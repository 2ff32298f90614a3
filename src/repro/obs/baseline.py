"""Committed metric baselines and the regression gate.

``baselines/*.json`` snapshots the canonical headline metrics and the
time-series digest of each protocol at a known-good revision, keyed by
the producing spec's :meth:`ExperimentSpec.content_hash`.  ``python -m
repro regress`` re-runs each baselined spec and compares fresh values
under per-metric tolerance bands::

    |observed - baseline| <= abs_tol + rel_tol * |baseline|

failing (exit 1, with the metric name and the observed-vs-allowed
delta) on any drift.  This is CI's answer to "did this refactor change
simulation behaviour?": determinism makes the expected drift exactly
zero, and the bands say how much *intentional* drift a change may
smuggle in without updating the baselines in the same commit.

The series digest (the SHA-256 of the windowed table's canonical JSON)
is compared too: a digest mismatch with in-band scalar metrics means
the run's *shape over time* moved even though the endpoints agree,
and fails the gate like an out-of-band metric.

``--update`` regenerates the files from fresh runs (bootstrapping the
three paper protocols when none exist); commit the diff alongside the
behaviour change that motivated it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.config import SimulationConfig
from repro.experiments.parallel import run_sweep
from repro.experiments.runner import ExperimentResult
from repro.experiments.spec import ExperimentSpec
from repro.faults.plan import FaultPlan
from repro.metrics.collectors import ExperimentMetrics, metric_bands
from repro.obs.timeseries import DEFAULT_WINDOW_S, run_with_timeseries

#: Bumped when the baseline file layout changes.
BASELINE_SCHEMA_VERSION = 1

#: Default directory (repo root) holding the committed baseline files.
DEFAULT_BASELINE_DIR = "baselines"

#: The protocols bootstrapped by ``regress --update`` on an empty dir.
DEFAULT_PROTOCOLS: Tuple[str, ...] = ("pavod", "nettube", "socialtube")

#: Regress band of every declared run metric: the scalar fields of
#: :class:`ExperimentMetrics` and the run-level counters of
#: :class:`ExperimentResult` (see :func:`repro.metrics.collectors.metric`).
BANDS: Dict[str, Tuple[float, float]] = {
    **metric_bands(ExperimentMetrics),
    **metric_bands(ExperimentResult),
}

#: Band applied to a metric missing from :data:`BANDS`.
FALLBACK_TOLERANCE: Tuple[float, float] = (0.0, 0.05)

_SCALES = {"smoke": SimulationConfig.smoke_scale, "default": SimulationConfig.default_scale}


@dataclass
class Deviation:
    """One compared metric: observed vs baseline under its band."""

    metric: str
    baseline: float
    observed: float
    abs_tol: float
    rel_tol: float

    @property
    def delta(self) -> float:
        """Signed drift (observed - baseline)."""
        return self.observed - self.baseline

    @property
    def allowed(self) -> float:
        """The band half-width this metric is allowed to drift."""
        return self.abs_tol + self.rel_tol * abs(self.baseline)

    @property
    def ok(self) -> bool:
        """Whether the observed value sits inside the tolerance band."""
        return abs(self.delta) <= self.allowed

    def render(self) -> str:
        """One report line: metric, values, drift vs allowance, verdict."""
        status = "ok" if self.ok else "FAIL"
        return (
            f"  {self.metric:<26} baseline={self.baseline:>12.4f} "
            f"observed={self.observed:>12.4f} "
            f"drift={self.delta:>+10.4f} allowed={self.allowed:>8.4f}  {status}"
        )


def spec_for_baseline(payload: Dict[str, Any]) -> ExperimentSpec:
    """Reconstruct the producing spec from a baseline file's identity."""
    scale = payload.get("scale", "smoke")
    factory = _SCALES.get(scale)
    if factory is None:
        raise ValueError(f"unknown baseline scale {scale!r}")
    spec = ExperimentSpec(
        protocol=payload["protocol"],
        config=factory(seed=payload["seed"]),
        environment=payload.get("environment", "peersim"),
    )
    faults = payload.get("faults")
    if faults:
        spec = spec.with_faults(FaultPlan.from_dict(faults))
    return spec


def _measure(
    spec: ExperimentSpec,
    window_s: float = DEFAULT_WINDOW_S,
    dataset: Optional[object] = None,
) -> Dict[str, Any]:
    """Run one spec; the measured half of its baseline payload."""
    run = run_with_timeseries(spec, window_s=window_s, dataset=dataset)
    # Only chaos baselines carry the fault-only metrics: fault-free
    # capture payloads stay byte-identical to pre-fault ones.
    values: Dict[str, float] = {
        name: float(getattr(owner, name))
        for owner in (run.result.metrics, run.result)
        for name in metric_bands(type(owner), faults=spec.has_faults())
    }
    return {
        "content_hash": spec.content_hash(),
        "series_digest": run.table.digest(),
        "num_windows": run.table.num_windows,
        "metrics": values,
    }


def _identity(
    spec: ExperimentSpec,
    scale: str,
    window_s: float,
    variant: Optional[str] = None,
) -> Dict[str, Any]:
    """The identity half of a baseline payload.

    ``variant`` distinguishes multiple chaos baselines of the same
    protocol/environment (e.g. the ``infra`` grid scenarios from the
    classic crash-churn demo); it feeds the filename via
    :func:`baseline_path` and rides in the payload so ``regress
    --update`` rewrites the right file.
    """
    payload: Dict[str, Any] = {
        "schema": BASELINE_SCHEMA_VERSION,
        "protocol": spec.protocol,
        "environment": spec.environment,
        "seed": spec.seed,
        "scale": scale,
        "window_s": window_s,
    }
    if spec.has_faults():
        payload["faults"] = spec.faults.to_dict()
    if variant:
        payload["variant"] = variant
    return payload


def capture_baseline(
    protocol: str,
    scale: str = "smoke",
    seed: int = 2014,
    environment: str = "peersim",
    window_s: float = DEFAULT_WINDOW_S,
    faults: Optional[FaultPlan] = None,
    variant: Optional[str] = None,
) -> Dict[str, Any]:
    """Snapshot one protocol's baseline payload from a fresh run.

    A nonzero ``faults`` plan produces a *chaos* baseline: the payload
    carries the plan plus the recovery metrics, and lands in a separate
    ``baseline_<protocol>_<environment>_chaos.json`` file.

    Example::

        payload = capture_baseline("socialtube")
        write_baseline(baseline_path("baselines", payload), payload)
    """
    factory = _SCALES.get(scale)
    if factory is None:
        raise ValueError(f"unknown baseline scale {scale!r}")
    spec = ExperimentSpec(
        protocol=protocol, config=factory(seed=seed), environment=environment
    )
    if faults is not None:
        spec = spec.with_faults(faults)
    return {**_identity(spec, scale, window_s, variant), **_measure(spec, window_s)}


def baseline_path(baseline_dir: str, payload: Dict[str, Any]) -> str:
    """Canonical file path for one baseline payload."""
    suffix = "_chaos" if payload.get("faults") else ""
    variant = payload.get("variant")
    if variant:
        suffix += f"_{variant}"
    name = f"baseline_{payload['protocol']}_{payload['environment']}{suffix}.json"
    return os.path.join(baseline_dir, name)


def write_baseline(path: str, payload: Dict[str, Any]) -> str:
    """Write a baseline file (sorted keys, indented -- reviewable diffs)."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")
    return path


def load_baselines(baseline_dir: str) -> List[Tuple[str, Dict[str, Any]]]:
    """Every committed ``(path, payload)`` in the dir, filename-sorted."""
    if not os.path.isdir(baseline_dir):
        return []
    entries: List[Tuple[str, Dict[str, Any]]] = []
    for name in sorted(os.listdir(baseline_dir)):
        if not (name.startswith("baseline_") and name.endswith(".json")):
            continue
        path = os.path.join(baseline_dir, name)
        with open(path, "r", encoding="utf-8") as handle:
            entries.append((path, json.load(handle)))
    return entries


def compare_to_baseline(
    baseline: Dict[str, Any], fresh: Dict[str, Any]
) -> List[Deviation]:
    """Per-metric deviations of a fresh capture against one baseline.

    Metrics present in the baseline but missing from the fresh capture
    (or vice versa) surface as deviations against 0.0, so a renamed or
    dropped metric cannot silently pass the gate.
    """
    names = sorted(set(baseline["metrics"]) | set(fresh["metrics"]))
    deviations = []
    for name in names:
        abs_tol, rel_tol = BANDS.get(name, FALLBACK_TOLERANCE)
        deviations.append(
            Deviation(
                metric=name,
                baseline=float(baseline["metrics"].get(name, 0.0)),
                observed=float(fresh["metrics"].get(name, 0.0)),
                abs_tol=abs_tol,
                rel_tol=rel_tol,
            )
        )
    return deviations


def run_regression(
    baseline_dir: str = DEFAULT_BASELINE_DIR,
    jobs: int = 1,
    update: bool = False,
    quick: bool = False,
    protocols: Optional[Tuple[str, ...]] = None,
) -> int:
    """The ``python -m repro regress`` entry point; returns the exit code.

    Re-runs every committed baseline spec (``--quick`` keeps only the
    smoke-scale ones) and prints a per-metric drift table.  Exit 1 on:
    an out-of-band metric, a content-hash mismatch (the spec itself
    changed -- the baseline no longer describes this code), or a
    series-digest mismatch.  ``update=True`` instead
    rewrites the files from the fresh captures (bootstrapping
    :data:`DEFAULT_PROTOCOLS` when the directory is empty).
    """
    entries = load_baselines(baseline_dir)
    if quick:
        entries = [(p, b) for p, b in entries if b.get("scale") == "smoke"]
    if not entries:
        if not update:
            print(f"no baseline files under {baseline_dir}/ -- run with --update")
            return 1
        entries = [
            (
                "",
                {
                    "protocol": name,
                    "environment": "peersim",
                    "seed": 2014,
                    "scale": "smoke",
                    "window_s": DEFAULT_WINDOW_S,
                    "metrics": {},
                },
            )
            for name in (protocols or DEFAULT_PROTOCOLS)
        ]
    specs = [spec_for_baseline(payload) for _path, payload in entries]
    windows = [payload.get("window_s", DEFAULT_WINDOW_S) for _path, payload in entries]
    # One sweep per window width: the task fixes the width, while
    # run_sweep dedupes on the spec alone.
    measured: Dict[int, Dict[str, Any]] = {}
    for window_s in dict.fromkeys(windows):
        picks = [i for i, width in enumerate(windows) if width == window_s]
        runs = run_sweep(
            [specs[i] for i in picks],
            jobs=jobs,
            task=partial(_measure, window_s=window_s),
        )
        measured.update(zip(picks, runs))
    captures = [
        {
            **_identity(
                specs[i],
                payload.get("scale", "smoke"),
                windows[i],
                payload.get("variant"),
            ),
            **measured[i],
        }
        for i, (_path, payload) in enumerate(entries)
    ]

    if update:
        for (_old_path, _payload), fresh in zip(entries, captures):
            path = write_baseline(baseline_path(baseline_dir, fresh), fresh)
            print(f"wrote {path}")
        return 0

    failures = 0
    for (path, payload), fresh in zip(entries, captures):
        label = f"{payload['protocol']}/{payload.get('environment', 'peersim')}"
        print(f"{label} ({path})")
        if payload.get("content_hash") != fresh["content_hash"]:
            print(
                "  FAIL content_hash mismatch: baseline "
                f"{payload.get('content_hash', '?')[:16]} vs spec "
                f"{fresh['content_hash'][:16]} -- the spec's behaviour "
                "recipe changed; regenerate with `repro regress --update`"
            )
            failures += 1
            continue
        deviations = compare_to_baseline(payload, fresh)
        for deviation in deviations:
            print(deviation.render())
            if not deviation.ok:
                failures += 1
        if payload.get("series_digest") != fresh["series_digest"]:
            print(
                f"  FAIL series digest drift: {payload.get('series_digest', '?')[:16]} "
                f"-> {fresh['series_digest'][:16]} (shape-over-time changed)"
            )
            failures += 1
        else:
            print(f"  series digest ok ({fresh['series_digest'][:16]})")
    if failures:
        print(f"regress: {failures} failure(s)")
        return 1
    print(f"regress: all {len(entries)} baseline(s) within tolerance")
    return 0
