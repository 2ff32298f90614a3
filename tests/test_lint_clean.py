"""Tier-1 gate: the shipped source tree must be lint-clean.

This is the PR's self-policing mechanism -- any rule violation that
lands in ``src/repro`` from now on fails the suite with the offending
file:line:rule rows in the assertion message.  Every severity fails,
exactly as in CI; the only waiver is a per-line
``# lint: disable=<rule>`` comment.
"""

import os

from repro.lint.dataflow import MODULE_DECL_PACKAGES
from repro.lint.runner import default_lint_root, lint_paths


def test_source_tree_is_lint_clean():
    report = lint_paths([default_lint_root()])
    # Sanity: the walk really covered the package, not an empty dir.
    assert report.files_checked > 40
    details = "\n".join(finding.render() for finding in report.findings)
    assert report.ok, f"lint findings in the source tree:\n{details}"


def test_program_pass_ran_over_the_tree():
    report = lint_paths([default_lint_root()])
    stats = report.program_stats
    assert stats is not None
    assert stats["modules"] > 40
    assert stats["call_edges"] > 100
    assert stats["event_roots"] > 0, "no EventScheduler callbacks found"
    assert stats["event_reachable"] >= stats["event_roots"]
    assert stats["stream_sites"] > 5, "RngStreams substream sites not indexed"


def test_pdes_packages_carry_module_shard_decls():
    """Acceptance: every module in sim/, overlay/, net/, core/ declares
    instance-state ownership with ``# shard: module=<class>``."""
    root = default_lint_root()
    missing = []
    for package in MODULE_DECL_PACKAGES:
        pkg_dir = os.path.join(root, package)
        for dirpath, _dirnames, filenames in os.walk(pkg_dir):
            for name in sorted(filenames):
                if not name.endswith(".py") or name == "__init__.py":
                    continue
                path = os.path.join(dirpath, name)
                with open(path, "r", encoding="utf-8") as handle:
                    if "# shard: module=" not in handle.read():
                        missing.append(path)
    assert not missing, f"modules without a shard module declaration: {missing}"
