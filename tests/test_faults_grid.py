"""Unit tests for the resilience grid scaffolding (repro.faults.grid).

The full grid is exercised by the CLI smoke / CI parity jobs; these
tests pin the cheap, deterministic surfaces -- family lookup, cell
serialization, canonical JSON shape, and the rendered table -- without
running a simulation.
"""

import json

import pytest

from repro.faults.grid import (
    GRID_FAMILIES,
    GRID_PROTOCOLS,
    GridCell,
    family_plan,
    grid_specs,
    grid_to_json_bytes,
    render_grid,
)
from repro.faults.plan import FaultPlan


def _cells():
    return [
        GridCell(
            protocol="socialtube",
            family="community_crash",
            continuity=0.98123456789,
            failover_latency_ms=123.4567,
            server_fallback_fraction=0.1234567,
            recovery_time_s=60.0,
            fault_events=15,
        ),
        GridCell(
            protocol="pavod",
            family="flash_crowd",
            continuity=0.75,
            failover_latency_ms=0.0,
            server_fallback_fraction=1.0,
            recovery_time_s=300.0,
            fault_events=42,
        ),
    ]


class TestFamilyPlan:
    def test_each_family_maps_to_its_demo(self):
        demos = {
            "community_crash": FaultPlan.community_crash_demo(),
            "tracker_outage": FaultPlan.tracker_outage_demo(),
            "partition": FaultPlan.partition_demo(),
            "flash_crowd": FaultPlan.flash_crowd_demo(),
        }
        assert set(GRID_FAMILIES) == set(demos)
        for name in GRID_FAMILIES:
            assert family_plan(name) == demos[name]

    def test_infra_maps_to_the_combined_demo(self):
        assert family_plan("infra") == FaultPlan.infra_demo()

    def test_unknown_family_rejected_by_name(self):
        with pytest.raises(ValueError, match="sabotage"):
            family_plan("sabotage")
        with pytest.raises(ValueError, match="flash_crowd"):
            family_plan("sabotage")  # the error lists the known families


class TestGridSpecs:
    def test_protocol_major_order_and_armed_plans(self):
        cells = grid_specs(seed=2014, scale="smoke")
        assert len(cells) == len(GRID_PROTOCOLS) * len(GRID_FAMILIES)
        assert [p for p, _f, _s in cells[: len(GRID_FAMILIES)]] == [
            GRID_PROTOCOLS[0]
        ] * len(GRID_FAMILIES)
        for _protocol, family, spec in cells:
            assert spec.faults == family_plan(family)


class TestScorecardSerialization:
    def test_json_is_canonical_and_newline_terminated(self):
        blob = grid_to_json_bytes(_cells(), seed=2014, scale="smoke")
        assert blob == grid_to_json_bytes(_cells(), seed=2014, scale="smoke")
        assert blob.endswith(b"\n")
        payload = json.loads(blob)
        assert payload["seed"] == 2014
        assert payload["protocols"] == ["socialtube", "pavod"]
        assert [c["family"] for c in payload["cells"]] == [
            "community_crash",
            "flash_crowd",
        ]

    def test_cell_values_are_rounded(self):
        cell = _cells()[0].to_dict()
        assert cell["continuity"] == 0.981235
        assert cell["failover_latency_ms"] == 123.457
        assert cell["server_fallback_fraction"] == 0.123457

    def test_render_has_one_line_per_cell(self):
        text = render_grid(_cells())
        lines = text.splitlines()
        assert len(lines) == 2 + len(_cells())  # title + header + cells
        assert "continuity" in lines[1]
        assert lines[2].startswith("socialtube")
