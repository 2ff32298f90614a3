"""Tier-1 gate: the shipped source tree must be lint-clean.

This is the PR's self-policing mechanism -- any rule violation that
lands in ``src/repro`` from now on fails the suite with the offending
file:line:rule rows in the assertion message.  Every severity fails,
exactly as in CI; the only waiver is a per-line
``# lint: disable=<rule>`` comment.
"""

import ast

from repro.lint.runner import default_lint_root, lint_paths


def test_source_tree_is_lint_clean():
    report = lint_paths([default_lint_root()])
    # Sanity: the walk really covered the package, not an empty dir.
    assert report.files_checked > 40
    details = "\n".join(finding.render() for finding in report.findings)
    assert report.ok, f"lint findings in the source tree:\n{details}"


def test_program_pass_ran_over_the_tree():
    report = lint_paths([default_lint_root()])
    assert len(report.stream_sites) > 5, "RngStreams substream sites not collected"


def test_one_parse_per_file(monkeypatch):
    calls = []
    real_parse = ast.parse

    def counting_parse(*args, **kwargs):
        calls.append(kwargs.get("filename"))
        return real_parse(*args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    report = lint_paths([default_lint_root()])
    assert len(calls) == report.files_checked

