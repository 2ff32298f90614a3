"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.experiments import runner
from repro.experiments.config import SimulationConfig


#: Every run-executing subcommand, with the arguments that make it a
#: cheap run if a bad flag were ever accepted instead of rejected.
RUN_COMMANDS = (
    ["compare", "--quick"],
    ["figures", "--quick"],
    ["profile", "socialtube"],
    ["chaos", "socialtube"],
    ["dashboard", "socialtube"],
    ["regress", "--quick"],
)


@pytest.mark.parametrize("command", RUN_COMMANDS, ids=lambda argv: argv[0])
@pytest.mark.parametrize(
    "bad_flag",
    (
        ["--workers", "2"],
        ["--shards", "0"],
        ["--shards", "4"],
        ["--jobs", "0"],
        ["--jobs", "-1"],
    ),
    ids=lambda flag: "".join(flag).lstrip("-"),
)
def test_bad_run_flags_are_usage_errors(command, bad_flag, capsys):
    # argparse rejects the removed worker- and shard-count flags and
    # non-positive counts before any run starts: exit 2 with a usage
    # message.
    with pytest.raises(SystemExit) as excinfo:
        main(command + bad_flag)
    assert excinfo.value.code == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        [command, "socialtube", "--window", value]
        for command in ("dashboard", "chaos")
        for value in ("0", "-5", "nan", "inf")
    ],
    ids=lambda argv: f"{argv[0]}{argv[2]}={argv[3]}",
)
def test_bad_values_are_usage_errors(argv, capsys):
    # A window must be finite and positive; argparse rejects anything
    # else before the run starts.
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "usage:" in capsys.readouterr().err


class TestCli:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_compare_quick(self, capsys):
        assert main(["compare", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "SocialTube" in out
        assert "NetTube" in out
        assert "PA-VoD" in out
        assert "normalized peer bandwidth" in out

    def test_figures_quick(self, capsys):
        assert main(["figures", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Fig 15" in out
        assert "Fig 16a" in out
        assert "Fig 17a" in out
        assert "Fig 18a" in out
        assert "Table I" in out
        assert "shape checks" in out

    def test_seed_flag_changes_compare_output(self, capsys):
        main(["--seed", "1", "compare", "--quick"])
        first = capsys.readouterr().out
        main(["--seed", "2", "compare", "--quick"])
        second = capsys.readouterr().out
        assert first != second

    def test_compare_multi_seed_prints_ci_table(self, capsys):
        assert main(["compare", "--quick", "--seeds", "1,2"]) == 0
        out = capsys.readouterr().out
        assert "95% CI" in out
        assert "Multi-seed aggregate over seeds [1, 2]" in out

    def test_compare_jobs_output_matches_serial(self, capsys):
        main(["compare", "--quick", "--seeds", "1,2", "--jobs", "1"])
        serial = capsys.readouterr().out
        main(["compare", "--quick", "--seeds", "1,2", "--jobs", "2"])
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_single_seed_list_keeps_plain_output(self, capsys):
        # --seeds with one entry behaves like the classic single run.
        main(["--seed", "5", "compare", "--quick"])
        classic = capsys.readouterr().out
        main(["--seed", "5", "compare", "--quick", "--seeds", "5"])
        via_seeds = capsys.readouterr().out
        assert "95% CI" not in via_seeds
        assert classic == via_seeds

    def test_bad_seeds_rejected(self):
        with pytest.raises(SystemExit):
            main(["compare", "--quick", "--seeds", "1,x"])

    def test_figures_multi_seed_prints_ci_table(self, capsys):
        assert main(["figures", "--quick", "--seeds", "1,2", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "Fig 17a" in out
        assert "Multi-seed aggregate" in out

    def test_seed_accepted_after_subcommand(self, capsys):
        # The shared parent parses --seed in subcommand position without
        # clobbering the top-level default when absent.
        main(["--seed", "7", "compare", "--quick"])
        top_level = capsys.readouterr().out
        main(["compare", "--quick", "--seed", "7"])
        subcommand = capsys.readouterr().out
        assert top_level == subcommand

    def test_run_flags_shared_across_subcommands(self):
        # Every run-executing subcommand exposes the same flag spellings.
        import argparse

        from repro.cli import _run_flags_parent

        parent = _run_flags_parent()
        args = parent.parse_args(["--seeds", "1,2", "--jobs", "2"])
        assert (args.seeds, args.jobs) == ("1,2", 2)
        assert not hasattr(args, "seed")  # SUPPRESS: absent unless given
        assert parent.parse_args(["--seed", "9"]).seed == 9

    def test_regress_rejects_seed_sweeps(self):
        with pytest.raises(SystemExit):
            main(["regress", "--seeds", "1,2"])

    def test_perf_rejects_jobs(self, capsys):
        # profile and chaos <protocol> execute their one spec
        # in-process, so a worker count would be ignored.
        for command in ("profile", "chaos"):
            with pytest.raises(SystemExit, match="--jobs"):
                main([command, "socialtube", "--jobs", "2"])
            assert capsys.readouterr().out == ""

    def test_profile_writes_one_trace_and_one_report(self, tmp_path, capsys):
        assert main(["profile", "socialtube", "--outdir", str(tmp_path)]) == 0
        traces = list(tmp_path.glob("trace_*.jsonl"))
        reports = list(tmp_path.glob("perf_*.json"))
        assert len(traces) == len(reports) == 1
        assert len(list(tmp_path.iterdir())) == 2
        header = json.loads(traces[0].read_text().splitlines()[0])
        report = json.loads(reports[0].read_text())
        assert report["content_hash"] == header["content_hash"]
        out = capsys.readouterr().out
        assert "busiest nodes (trace rows)" in out
        assert str(reports[0]) in out

    def test_single_run_commands_reject_multi_seed(self):
        with pytest.raises(SystemExit):
            main(["profile", "socialtube", "--seeds", "1,2"])


def test_planetlab_honours_seed(monkeypatch, capsys):
    # Stub the runs: only the specs matter here.
    seen = []

    def fake_run_spec(spec):
        seen.append(spec)
        return type("Result", (), {"render_rows": lambda self: [spec.protocol]})()

    monkeypatch.setattr(runner, "run_spec", fake_run_spec)
    assert main(["--seed", "7", "planetlab"]) == 0
    assert [spec.protocol for spec in seen] == ["pavod", "nettube", "socialtube"]
    assert all(spec.environment == "planetlab" for spec in seen)
    assert all(
        spec.config == SimulationConfig.planetlab_scale(seed=7) for spec in seen
    )
    assert "socialtube" in capsys.readouterr().out
