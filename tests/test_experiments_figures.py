"""Unit tests for the evaluation-suite harness (non-simulation parts).

The simulation-backed figures are covered by tests/integration; here we
test the pure logic: variant registry, analytical figure, Table I
rendering, and row formatting.
"""

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.figures import (
    VARIANTS,
    EvaluationFigure,
    EvaluationSuite,
    FigureRow,
)


@pytest.fixture()
def suite(smoke_config):
    return EvaluationSuite(config=smoke_config)


class TestVariants:
    def test_five_systems(self):
        assert len(VARIANTS) == 5
        labels = [label for label, _name, _overrides in VARIANTS]
        assert "PA-VoD" in labels
        assert "SocialTube w/ PF" in labels and "SocialTube w/o PF" in labels
        assert "NetTube w/ PF" in labels and "NetTube w/o PF" in labels

    def test_prefetch_flags_match_labels(self):
        for label, _name, overrides in VARIANTS:
            if "w/o PF" in label:
                assert overrides == {"prefetch_window": 0}
            elif "w/ PF" in label:
                assert overrides == {}

    def test_unknown_variant_rejected(self, suite):
        with pytest.raises(KeyError):
            suite.result("BitTorrent")


class TestFig15:
    def test_rows_and_notes(self, suite):
        figure = suite.fig15_maintenance_model()
        assert figure.figure == "Fig 15"
        labels = [row.label for row in figure.rows]
        assert labels == ["m=1", "m=2", "m=5", "m=10", "m=20", "m=50"]
        assert any("crossover" in note for note in figure.notes)

    def test_max_videos_truncates_rows(self, suite):
        figure = suite.fig15_maintenance_model(max_videos=5)
        assert [row.label for row in figure.rows] == ["m=1", "m=2", "m=5"]


class TestTable1:
    def test_paper_column_matches_table1(self, suite):
        figure = suite.table1_parameters()
        values = {row.label: row.values for row in figure.rows}
        assert values["Number of nodes"]["paper"] == 10000
        assert values["Number of channels"]["paper"] == 545
        assert values["Sessions per user"]["paper"] == 250

    def test_this_run_column_matches_config(self, suite, smoke_config):
        figure = suite.table1_parameters()
        values = {row.label: row.values for row in figure.rows}
        assert values["Number of nodes"]["this_run"] == smoke_config.num_nodes


class TestRendering:
    def test_figure_row_render(self):
        row = FigureRow(label="X", values={"a": 1.0, "b": 2.5})
        text = row.render()
        assert "X" in text and "a=1" in text and "b=2.5" in text

    def test_evaluation_figure_render(self):
        figure = EvaluationFigure(
            figure="Fig 99",
            title="demo",
            rows=[FigureRow(label="X", values={"a": 1.0})],
            notes=["hello"],
        )
        rows = figure.render_rows()
        assert rows[0] == "Fig 99: demo"
        assert any("note: hello" in row for row in rows)

    def test_environment_selects_config(self, suite, smoke_config):
        assert suite._config_for("peersim") is suite.config
        assert suite._config_for("planetlab") is suite.planetlab_config
