"""Parallel orchestrator tests: determinism, dedupe, aggregation,
cross-run isolation.

The headline contract: ``run_sweep(specs, jobs=N)`` is byte-identical
to ``run_sweep(specs, jobs=1)`` for any N, because every run owns an
independent RngStreams family and reads a shared immutable corpus.
"""

import dataclasses
import hashlib
import os
import pickle
import subprocess
import sys

import pytest

import repro
from repro.experiments.config import SimulationConfig
from repro.experiments.figures import EvaluationSuite
from repro.experiments.parallel import (
    AggregatedResult,
    aggregate_runs,
    aggregate_sweep,
    family_key,
    run_sweep,
    sweep_specs,
)
from repro.experiments.registry import resolve_params
from repro.experiments.runner import ExperimentResult, run_spec
from repro.experiments.spec import ExperimentSpec
from repro.faults.plan import FaultPlan
from repro.obs.export import run_traced
from repro.trace.synthesizer import TraceConfig

MICRO = SimulationConfig(
    num_nodes=40,
    trace=TraceConfig(num_users=40, num_channels=10, num_videos=200,
                      num_categories=4, seed=10),
    sessions_per_user=2,
    videos_per_session=4,
    mean_off_time_s=60.0,
    seed=10,
)


def describe_spec(spec, dataset=None):
    """A custom per-spec task: the spec's identity, and whether it got a corpus."""
    return (spec.protocol, spec.seed, dataset is not None)


class TestSweepSpecs:
    def test_protocol_major_cross_product(self):
        specs = sweep_specs(["socialtube", "pavod"], MICRO, seeds=[1, 2])
        assert [(s.protocol, s.seed) for s in specs] == [
            ("socialtube", 1), ("socialtube", 2), ("pavod", 1), ("pavod", 2),
        ]

    def test_default_seed_is_configs(self):
        specs = sweep_specs(["socialtube"], MICRO)
        assert [s.seed for s in specs] == [MICRO.seed]

    def test_all_specs_share_trace_hash(self):
        specs = sweep_specs(["socialtube", "nettube"], MICRO, seeds=[1, 2, 3])
        assert len({s.trace_hash() for s in specs}) == 1


class TestFamilyKey:
    def test_seed_siblings_share_family(self):
        spec = ExperimentSpec(protocol="socialtube", config=MICRO)
        assert family_key(spec) == family_key(spec.with_seed(99))

    def test_protocols_are_distinct_families(self):
        a = ExperimentSpec(protocol="socialtube", config=MICRO)
        b = ExperimentSpec(protocol="nettube", config=MICRO)
        assert family_key(a) != family_key(b)

    def test_param_changes_split_families(self):
        spec = ExperimentSpec(protocol="socialtube", config=MICRO)
        assert family_key(spec) != family_key(spec.with_params(ttl=4))


class TestRunSweepDeterminism:
    def test_parallel_matches_serial_exactly(self):
        specs = sweep_specs(["socialtube", "nettube"], MICRO, seeds=[1, 2])
        serial = run_sweep(specs, jobs=1)
        parallel = run_sweep(specs, jobs=4)
        assert serial == parallel
        for a, b in zip(serial, parallel):
            assert a.metrics == b.metrics
            assert a.events_processed == b.events_processed

    def test_aggregates_match_across_job_counts(self):
        specs = sweep_specs(["socialtube"], MICRO, seeds=[1, 2, 3])
        serial = aggregate_sweep(specs, run_sweep(specs, jobs=1))
        parallel = aggregate_sweep(specs, run_sweep(specs, jobs=2))
        assert serial[0].metrics == parallel[0].metrics
        assert serial[0].intervals == parallel[0].intervals

    def test_results_in_spec_order(self):
        specs = sweep_specs(["pavod", "socialtube"], MICRO, seeds=[1, 2])
        results = run_sweep(specs, jobs=2)
        assert [r.metrics.protocol for r in results] == [
            "PA-VoD", "PA-VoD", "SocialTube", "SocialTube",
        ]
        assert run_sweep(specs, jobs=2, task=describe_spec) == [
            ("pavod", 1, True), ("pavod", 2, True),
            ("socialtube", 1, True), ("socialtube", 2, True),
        ]

    def test_duplicate_specs_run_once(self):
        spec = ExperimentSpec(protocol="socialtube", config=MICRO)
        for task in (run_spec, describe_spec):
            results = run_sweep([spec, spec], jobs=1, task=task)
            assert len(results) == 2
            assert results[0] is results[1]

    def test_empty_sweep(self):
        assert run_sweep([], jobs=4) == []


class TestAggregation:
    def _runs(self, seeds):
        specs = sweep_specs(["socialtube"], MICRO, seeds=seeds)
        return specs, run_sweep(specs)

    def test_mean_metrics_and_intervals(self):
        specs, results = self._runs([1, 2, 3])
        agg = aggregate_runs(specs, results)
        assert isinstance(agg, AggregatedResult)
        assert agg.num_runs == 3
        assert agg.seeds == (1, 2, 3)
        values = [r.metrics.startup_delay_ms_mean for r in results]
        m, lo, hi = agg.interval("startup_delay_ms_mean")
        assert m == pytest.approx(sum(values) / 3)
        assert lo <= m <= hi
        assert agg.metrics.startup_delay_ms_mean == pytest.approx(m)

    def test_single_run_has_zero_width_interval(self):
        specs, results = self._runs([1])
        agg = aggregate_runs(specs, results)
        m, lo, hi = agg.interval("peer_bandwidth_p50")
        assert m == lo == hi

    def test_mixed_families_rejected(self):
        specs = sweep_specs(["socialtube", "nettube"], MICRO, seeds=[1])
        results = run_sweep(specs)
        with pytest.raises(ValueError, match="family"):
            aggregate_runs(specs, results)

    def test_aggregate_sweep_groups_per_family(self):
        specs = sweep_specs(["socialtube", "nettube"], MICRO, seeds=[1, 2])
        results = run_sweep(specs)
        aggregates = aggregate_sweep(specs, results)
        assert [a.protocol for a in aggregates] == ["SocialTube", "NetTube"]
        assert all(a.num_runs == 2 for a in aggregates)

    def test_render_rows_mention_ci(self):
        specs, results = self._runs([1, 2])
        rows = aggregate_runs(specs, results).render_rows()
        assert "95% CI" in rows[0]
        assert any("startup delay" in row for row in rows)


class TestEvaluationSuiteIntegration:
    def test_identical_trace_configs_share_one_corpus(self):
        # The old suite synthesized per environment even when the trace
        # recipes matched; the content-keyed cache makes them share.
        planetlab = dataclasses.replace(MICRO, mean_off_time_s=120.0)
        suite = EvaluationSuite(config=MICRO, planetlab_config=planetlab)
        assert suite._dataset_for("peersim") is suite._dataset_for("planetlab")

    def test_single_seed_returns_plain_result(self):
        suite = EvaluationSuite(config=MICRO)
        assert isinstance(suite.result("PA-VoD"), ExperimentResult)

    def test_multi_seed_returns_aggregate(self):
        suite = EvaluationSuite(config=MICRO, seeds=[1, 2])
        result = suite.result("PA-VoD")
        assert isinstance(result, AggregatedResult)
        assert result.seeds == (1, 2)
        assert result.metrics.protocol == "PA-VoD"

    def test_warm_fills_cache_in_one_sweep(self):
        suite = EvaluationSuite(config=MICRO, seeds=[1, 2], jobs=2)
        suite.warm(variant_labels=["PA-VoD", "SocialTube w/ PF"])
        assert ("PA-VoD", "peersim") in suite._results
        assert ("SocialTube w/ PF", "peersim") in suite._results

    def test_suite_multi_seed_matches_direct_sweep(self):
        suite = EvaluationSuite(config=MICRO, seeds=[1, 2])
        via_suite = suite.result("PA-VoD")
        cfg = MICRO
        base = ExperimentSpec(
            protocol="pavod", config=cfg,
            params=resolve_params("pavod"),
        )
        specs = [base.with_seed(1), base.with_seed(2)]
        direct = aggregate_runs(specs, run_sweep(specs))
        assert via_suite.metrics == direct.metrics
        assert via_suite.intervals == direct.intervals


def isolation_specs():
    """Smoke-scale specs that read every piece of process-wide state a
    run touches: the protocol registry (three stacks), the fault driver
    (crash/repair and every infrastructure family), the environment
    factories and the shared trace cache (every spec shares one trace
    recipe).  A leak shows only when a spec reads state that an earlier
    spec wrote, so each stack and each environment runs at least twice;
    the two ``planetlab`` runs differ only in seed."""
    config = SimulationConfig.smoke_scale()
    specs = []
    for protocol in ("socialtube", "nettube", "pavod"):
        base = ExperimentSpec(protocol=protocol, config=config)
        specs += [base, base.with_faults(FaultPlan.demo())]
    socialtube = specs[0]
    planetlab = dataclasses.replace(socialtube, environment="planetlab")
    specs += [
        socialtube.with_faults(FaultPlan.infra_demo()),
        planetlab,
        planetlab.with_seed(7),
    ]
    return specs


def fingerprint(rows, jsonl):
    """A run's identity: its result rows plus the sha256 of its trace."""
    return list(rows), hashlib.sha256(jsonl).hexdigest()


#: Runs one pickled spec traced and pickles back (rows, trace JSONL).
_FRESH_RUN = (
    "import pickle, sys\n"
    "from repro.obs.export import run_traced\n"
    "result, jsonl = run_traced(pickle.load(sys.stdin.buffer))\n"
    "pickle.dump((result.render_rows(), jsonl), sys.stdout.buffer)\n"
)


def fresh_process_fingerprint(spec):
    """The fingerprint of ``spec`` run alone in a new interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_RUN],
        input=pickle.dumps(spec),
        capture_output=True,
        env=env,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return fingerprint(*pickle.loads(proc.stdout))


class TestCrossRunIsolation:
    """No run's output depends on what ran before it in the process.

    Sweeps and the trace cache execute many runs in one interpreter, so
    module state, class attributes, the cached datasets and the
    registries all outlive a run.  Each spec's in-process fingerprint,
    with the others run before it in either order, must equal the same
    spec run alone in a fresh interpreter.
    """

    @pytest.fixture(scope="class")
    def fresh(self):
        return [fresh_process_fingerprint(spec) for spec in isolation_specs()]

    @pytest.mark.parametrize("order", ["forward", "reverse"])
    def test_in_process_runs_match_fresh_processes(self, fresh, order):
        specs = list(enumerate(isolation_specs()))
        if order == "reverse":
            specs.reverse()
        leaked = []
        for i, spec in specs:
            result, jsonl = run_traced(spec)
            if fingerprint(result.render_rows(), jsonl) != fresh[i]:
                leaked.append(f"#{i} {spec.label()} faults={spec.has_faults()}")
        assert not leaked, f"runs differ from a fresh process: {leaked}"
