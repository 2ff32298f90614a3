"""Determinism static analysis (plus runtime overlay invariants).

One pass parses each file once and runs every rule over it; the one
check that spans files then runs over the RNG substream sites that
pass collected.  Together with a runtime checker they keep the
reproduction's repeatability claim honest:

* :mod:`repro.lint.ast_rules` -- pattern rules (wall-clock reads,
  unused imports, dead names, broad excepts, float time equality,
  protocol construction, docstring coverage).
* :mod:`repro.lint.dataflow` -- flow-sensitive and RNG substream
  rules: substream discipline (``global-random``,
  ``rng-substream-aliasing``, ``rng-foreign-substream``,
  ``rng-obs-hook-draw``...) and determinism hazards
  (``unsorted-accumulation``, ``unsorted-serialization``,
  ``mutable-default-arg``).
* :mod:`repro.lint.runner` -- the rule table (:data:`RULES`), the
  file walk, suppression and the report.
* :mod:`repro.lint.invariants` -- runtime checks of the two-level
  overlay's structural invariants (``N_l``/``N_h`` capacity bounds,
  link symmetry, no self-links, no dangling links to departed nodes),
  callable from tests and as a periodic in-sim hook.

Cross-run isolation -- no run's output depends on what ran before it
in the same interpreter -- is not a static property here: it is tested
directly by ``tests/test_experiments_parallel.py::TestCrossRunIsolation``,
which compares in-process runs against fresh-process runs.

Findings carry severities for the report's rollup.  The only waiver
is a per-line ``# lint: disable=<rule>`` comment.

This package re-exports nothing: import names from the module that
defines them, so loading :mod:`repro.lint.invariants` (which the
overlay's ``check_invariants`` does after every SocialTube run) does
not load the analyzer.

CLI: ``python -m repro lint [--format json] [--list-rules]
[--explain RULE] [paths...]`` exits non-zero when any finding survives
per-line suppression; ``tests/test_lint_clean.py`` enforces the clean
state in tier-1.
"""
