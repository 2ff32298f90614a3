"""Content-hash-keyed cache of synthesized traces.

Trace synthesis is the single most expensive non-simulation step of the
harness, and it is pure: a :class:`TraceConfig` fully determines the
resulting :class:`TraceDataset`.  Before this cache, every
``run_spec`` call, every ablation sweep, and every
``EvaluationSuite`` instance re-synthesized identical corpora from
scratch.  Now any identical recipe -- compared by the canonical content
digest of the config, not object identity -- synthesizes exactly once
per process.

Two views are cached per recipe:

* the live :class:`TraceDataset`, handed to in-process runs (runs treat
  datasets as read-only, the same contract the EvaluationSuite always
  relied on when sharing one dataset across its five variants);
* its pickled snapshot (:meth:`TraceCache.serialized`), shipped once to
  each worker of a parallel sweep so workers never re-synthesize.

``shared_trace_cache`` is the process-wide instance every harness layer
routes through.
"""

from __future__ import annotations

import pickle
from typing import Dict

from repro.experiments.spec import content_digest
from repro.trace.dataset import TraceDataset
from repro.trace.synthesizer import TraceConfig, TraceSynthesizer


class TraceCache:
    """Synthesize-once store of datasets keyed by trace content digest."""

    def __init__(self) -> None:
        self._datasets: Dict[str, TraceDataset] = {}
        self._blobs: Dict[str, bytes] = {}
        self.hits = 0
        self.misses = 0

    def key(self, trace_config: TraceConfig) -> str:
        """The cache key: canonical content digest of the recipe."""
        return content_digest(trace_config)

    def dataset_for(self, trace_config: TraceConfig) -> TraceDataset:
        """The (shared, read-only) dataset for ``trace_config``."""
        key = self.key(trace_config)
        dataset = self._datasets.get(key)
        if dataset is None:
            self.misses += 1
            dataset = TraceSynthesizer(trace_config).synthesize()
            self._datasets[key] = dataset
        else:
            self.hits += 1
        return dataset

    def serialized(self, trace_config: TraceConfig) -> bytes:
        """Pickled snapshot of the dataset (cached; one dump per recipe)."""
        key = self.key(trace_config)
        blob = self._blobs.get(key)
        if blob is None:
            blob = pickle.dumps(
                self.dataset_for(trace_config), protocol=pickle.HIGHEST_PROTOCOL
            )
            self._blobs[key] = blob
        return blob

    def put(self, trace_config: TraceConfig, dataset: TraceDataset) -> None:
        """Adopt an externally synthesized dataset for ``trace_config``."""
        self._datasets[self.key(trace_config)] = dataset

    def clear(self) -> None:
        """Drop every cached dataset and snapshot (tests, memory pressure)."""
        self._datasets.clear()
        self._blobs.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._datasets)


#: The process-wide cache used by the runner, suite, sweeps and CLI.
shared_trace_cache = TraceCache()
