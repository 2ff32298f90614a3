"""The one process pool: fan-out of multi-run commands, plus seed means.

Every figure of Section V is a mean over repeated randomized trials,
yet single-run execution is bottlenecked on one core.
:func:`run_sweep` is the only place in ``repro`` that spreads runs over
worker processes: it maps any per-spec task (by default
:func:`repro.experiments.runner.run_spec`; the dashboard, the regress
gate and the fault grid pass their own) over a list of
:class:`ExperimentSpec`.  This module also folds per-run metrics into
means with 95% confidence intervals -- the CliqueStream-style
statistically honest reporting the evaluation methodology calls for.

Determinism contract (tested by ``tests/test_experiments_parallel.py``):

* a task's result is a pure function of its spec -- every run owns an
  independent ``RngStreams.for_run(spec.seed)`` family, shares no
  mutable state with other runs, and reads the trace corpus only.
  ``TestCrossRunIsolation`` checks this directly: runs made one after
  another in one interpreter, in either order, match the same specs
  run in fresh processes;
* duplicate specs (equal :meth:`ExperimentSpec.content_hash`) execute
  once and share their result;
* results return in spec order regardless of completion order.

Together these make ``run_sweep(specs, jobs=N, task=t)`` byte-identical
to ``run_sweep(specs, jobs=1, task=t)`` for any N.

Trace sharing: the parent synthesizes each distinct trace recipe once
(through :data:`shared_trace_cache`), pickles it once, and ships the
snapshot to every worker via the pool initializer; workers deserialize
lazily, at most once per recipe per process, and never re-synthesize.
"""

from __future__ import annotations

import multiprocessing
import pickle
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.stats import mean, mean_confidence_interval
from repro.experiments.config import SimulationConfig
from repro.experiments.runner import ExperimentResult, run_spec
from repro.experiments.spec import ExperimentSpec, content_digest
from repro.experiments.trace_cache import shared_trace_cache
from repro.metrics.collectors import ExperimentMetrics, metric_bands

# ---------------------------------------------------------------------------
# spec construction helpers


def sweep_specs(
    protocols: Sequence[str],
    config: SimulationConfig,
    seeds: Optional[Sequence[int]] = None,
    environment: str = "peersim",
) -> List[ExperimentSpec]:
    """The ``(protocol, seed)`` cross product, protocol-major order.

    All specs share ``config``'s trace recipe (one corpus, many
    trials); ``seeds`` defaults to the config's own seed.
    """
    seed_list = [int(s) for s in seeds] if seeds else [config.seed]
    specs: List[ExperimentSpec] = []
    for name in protocols:
        base = ExperimentSpec(protocol=name, config=config, environment=environment)
        specs.extend(base.with_seed(seed) for seed in seed_list)
    return specs


def family_key(spec: ExperimentSpec) -> str:
    """Groups seed-sweep siblings: the content hash with the seed masked.

    Two specs with the same family key measure the same system under
    the same conditions and may be aggregated into one mean/CI row.
    """
    payload = spec.canonical_payload()
    payload["config"]["seed"] = None
    return content_digest(payload)


# ---------------------------------------------------------------------------
# worker plumbing
#
# Module-level state set by the pool initializer; underscore names keep
# them out of the public surface.  Workers deserialize each trace
# snapshot at most once and then reuse it for every spec they execute.

_WORKER_TRACE_BLOBS: Dict[str, bytes] = {}
_WORKER_DATASETS: Dict[str, object] = {}


def _init_worker(trace_blobs: Dict[str, bytes]) -> None:
    _WORKER_TRACE_BLOBS.clear()
    _WORKER_TRACE_BLOBS.update(trace_blobs)
    _WORKER_DATASETS.clear()


def _run_in_worker(task: Callable[..., Any], spec: ExperimentSpec) -> Any:
    key = spec.trace_hash()
    dataset = _WORKER_DATASETS.get(key)
    if dataset is None:
        blob = _WORKER_TRACE_BLOBS.get(key)
        if blob is not None:
            dataset = pickle.loads(blob)
            _WORKER_DATASETS[key] = dataset
    return task(spec, dataset=dataset)


# ---------------------------------------------------------------------------
# the orchestrator


def run_sweep(
    specs: Iterable[ExperimentSpec],
    jobs: int = 1,
    task: Callable[..., Any] = run_spec,
) -> List[Any]:
    """Apply ``task(spec, dataset=...)`` to each spec; results in spec order.

    ``task`` must pickle by reference: a module-level function or a
    :func:`functools.partial` of one.  ``jobs=1`` (the default) runs
    serially in-process -- no pool, no pickling -- and so does a list
    with one distinct spec.  ``jobs>1`` fans the distinct specs across
    a process pool.  Either way, duplicate specs execute once and
    share their result (see the module docstring).
    """
    spec_list = list(specs)
    if not spec_list:
        return []
    order = [spec.content_hash() for spec in spec_list]
    unique: Dict[str, ExperimentSpec] = {}
    for key, spec in zip(order, spec_list):
        if key not in unique:
            unique[key] = spec
    unique_specs = list(unique.values())

    if jobs <= 1 or len(unique_specs) == 1:
        outcomes = [
            task(spec, dataset=shared_trace_cache.dataset_for(spec.config.trace))
            for spec in unique_specs
        ]
    else:
        blobs: Dict[str, bytes] = {}
        for spec in unique_specs:
            trace_key = spec.trace_hash()
            if trace_key not in blobs:
                blobs[trace_key] = shared_trace_cache.serialized(spec.config.trace)
        workers = min(jobs, len(unique_specs))
        with multiprocessing.Pool(
            processes=workers, initializer=_init_worker, initargs=(blobs,)
        ) as pool:
            outcomes = pool.map(
                partial(_run_in_worker, task), unique_specs, chunksize=1
            )

    results_by_key = dict(zip(unique.keys(), outcomes))
    return [results_by_key[key] for key in order]


# ---------------------------------------------------------------------------
# aggregation: means + 95% confidence intervals over seed-sweep siblings

@dataclass
class AggregatedResult:
    """Mean + CI summary of one system measured over several seeds.

    ``metrics`` is a real :class:`ExperimentMetrics` holding field-wise
    means, so everything downstream that reads ``result.metrics``
    (figures, shape checks, exporters) consumes aggregates and single
    runs uniformly.  ``intervals`` maps each declared metric name (see
    :func:`repro.metrics.collectors.metric`) -- the scalars plus the
    run-level counters -- to ``(mean, low, high)`` at 95% confidence.
    """

    protocol: str
    environment: str
    seeds: Tuple[int, ...]
    runs: List[ExperimentResult]
    metrics: ExperimentMetrics
    intervals: Dict[str, Tuple[float, float, float]]

    @property
    def num_runs(self) -> int:
        return len(self.runs)

    def interval(self, name: str) -> Tuple[float, float, float]:
        """``(mean, low, high)`` for one aggregated quantity."""
        return self.intervals[name]

    def render_rows(self) -> List[str]:
        """Paper-style text summary with CI annotations."""
        seeds = ", ".join(str(s) for s in self.seeds)
        rows = [
            f"{self.protocol} on {self.environment} "
            f"(mean of {self.num_runs} seeds [{seeds}], 95% CI)"
        ]
        for label, name in (
            ("startup delay ms mean", "startup_delay_ms_mean"),
            ("startup delay ms p99", "startup_delay_ms_p99"),
            ("peer bandwidth p50", "peer_bandwidth_p50"),
            ("server fallback fraction", "server_fallback_fraction"),
            ("prefetch hit fraction", "prefetch_hit_fraction"),
            ("continuity index", "mean_continuity_index"),
            ("stalled-watch fraction", "stall_fraction"),
            ("mean stall ms", "mean_stall_ms"),
        ):
            m, lo, hi = self.intervals[name]
            rows.append(f"  {label}: {m:.4g} [{lo:.4g}, {hi:.4g}]")
        return rows


def aggregate_runs(
    specs: Sequence[ExperimentSpec], results: Sequence[ExperimentResult]
) -> AggregatedResult:
    """Fold seed-sweep siblings (one family) into one mean/CI summary."""
    if len(specs) != len(results) or not specs:
        raise ValueError("need equally many specs and results, at least one")
    families = {family_key(spec) for spec in specs}
    if len(families) > 1:
        raise ValueError(
            "aggregate_runs folds one (protocol, environment, params) "
            "family; use aggregate_sweep for mixed spec lists"
        )
    metrics_list = [result.metrics for result in results]
    intervals: Dict[str, Tuple[float, float, float]] = {}
    for owners, cls in ((metrics_list, ExperimentMetrics), (results, ExperimentResult)):
        for name in metric_bands(cls):
            values = [float(getattr(owner, name)) for owner in owners]
            intervals[name] = mean_confidence_interval(values)
    means = {name: intervals[name][0] for name in metric_bands(ExperimentMetrics)}
    means["num_requests"] = int(round(means["num_requests"]))

    indices = sorted(
        {idx for metrics in metrics_list for idx in metrics.overhead_by_video_index}
    )
    overhead = {
        idx: mean(
            [
                metrics.overhead_by_video_index[idx]
                for metrics in metrics_list
                if idx in metrics.overhead_by_video_index
            ]
        )
        for idx in indices
    }
    first = metrics_list[0]
    mean_metrics = ExperimentMetrics(
        protocol=first.protocol,
        environment=first.environment,
        overhead_by_video_index=overhead,
        **means,
    )
    return AggregatedResult(
        protocol=first.protocol,
        environment=first.environment,
        seeds=tuple(spec.seed for spec in specs),
        runs=list(results),
        metrics=mean_metrics,
        intervals=intervals,
    )


def aggregate_sweep(
    specs: Sequence[ExperimentSpec], results: Sequence[ExperimentResult]
) -> List[AggregatedResult]:
    """Group a mixed sweep by family and aggregate each group.

    Returns one :class:`AggregatedResult` per distinct ``(protocol,
    environment, params)`` family, in first-occurrence order.
    """
    if len(specs) != len(results):
        raise ValueError("need equally many specs and results")
    grouped: Dict[str, Tuple[List[ExperimentSpec], List[ExperimentResult]]] = {}
    for spec, result in zip(specs, results):
        key = family_key(spec)
        if key not in grouped:
            grouped[key] = ([], [])
        grouped[key][0].append(spec)
        grouped[key][1].append(result)
    return [
        aggregate_runs(group_specs, group_results)
        for group_specs, group_results in grouped.values()
    ]
