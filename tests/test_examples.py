"""Smoke test: the quick examples run end to end through the public API.

``protocol_comparison.py`` (about 80 s: three protocols at default
scale) and ``planetlab_emulation.py`` (about 14 s: three PlanetLab-scale
runs) are left out to keep the tier-1 suite fast; the same code paths
run in tests/integration (``EvaluationSuite``, and ``run_spec`` on the
``"planetlab"`` environment).
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


@pytest.mark.parametrize(
    "name",
    ["quickstart", "prefetch_tuning", "link_budget_ablation", "trace_analysis"],
)
def test_example_main_runs(name, capsys):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    assert capsys.readouterr().out.strip()
