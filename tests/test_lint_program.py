"""Substream sites and the substream rules on fixture packages, all
through the public ``lint_paths`` entry, plus module naming: a file
linted alone is named by its own package."""

import textwrap

import pytest

from repro.lint.runner import lint_paths, module_name_of


def write(root, relpath, source):
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


@pytest.fixture()
def fixture_pkg(tmp_path):
    root = tmp_path / "pkg"
    write(root, "__init__.py", "")
    write(root, "sim/__init__.py", "")
    write(
        root,
        "sim/engine.py",
        '''\
        """Fixture scheduler."""


        class EventScheduler:
            def __init__(self):
                self.now = 0.0

            def schedule(self, delay, fn, *args):
                fn(*args)
        ''',
    )
    write(root, "overlay/__init__.py", "")
    write(
        root,
        "overlay/proto.py",
        '''\
        """Fixture protocol."""


        def seed_streams(streams):
            probe = streams.stream("overlay.probe")
            return probe
        ''',
    )
    return root


def findings_of(root, rule):
    return [f for f in lint_paths([str(root)]).findings if f.rule == rule]


class TestShardProgramRules:
    def test_substream_aliasing_flagged(self, tmp_path):
        root = tmp_path / "pkg"
        write(root, "__init__.py", "")
        write(
            root,
            "phases.py",
            """\
            def phase_a(streams):
                return streams.stream("arrivals")


            def phase_b(streams):
                return streams.stream("arrivals")
            """,
        )
        findings = findings_of(root, "rng-substream-aliasing")
        assert len(findings) == 2  # one per aliasing site
        assert "arrivals" in findings[0].message

    def test_single_site_substream_allowed(self, tmp_path):
        root = tmp_path / "pkg"
        write(root, "__init__.py", "")
        write(
            root,
            "phases.py",
            """\
            def phase_a(streams):
                return streams.stream("arrivals")


            def phase_b(streams):
                return streams.stream("departures")
            """,
        )
        assert findings_of(root, "rng-substream-aliasing") == []

    def test_faults_namespace_ownership(self, tmp_path):
        root = tmp_path / "pkg"
        write(root, "__init__.py", "")
        write(root, "faults/__init__.py", "")
        write(
            root,
            "faults/inject.py",
            """\
            def streams_for(streams):
                return streams.stream("overlay.crash")
            """,
        )
        write(
            root,
            "workload.py",
            """\
            def arrivals(streams):
                return streams.stream("faults.sneaky")
            """,
        )
        findings = findings_of(root, "rng-foreign-substream")
        messages = " ".join(f.message for f in findings)
        assert len(findings) == 2
        assert "overlay.crash" in messages  # faults module w/o faults. prefix
        assert "faults.sneaky" in messages  # foreign module using faults.*

    def test_obs_modules_must_not_own_substreams(self, tmp_path):
        root = tmp_path / "pkg"
        write(root, "__init__.py", "")
        write(root, "obs/__init__.py", "")
        write(
            root,
            "obs/tracer.py",
            """\
            def attach(streams):
                return streams.stream("obs.sampling")
            """,
        )
        findings = findings_of(root, "rng-foreign-substream")
        assert len(findings) == 1
        assert "observability" in findings[0].message


class TestRunnerIntegration:
    def test_lint_paths_includes_program_findings(self, fixture_pkg):
        write(
            fixture_pkg,
            "overlay/probe.py",
            """\
            def reseed(streams):
                return streams.stream("overlay.probe")
            """,
        )
        report = lint_paths([str(fixture_pkg)])
        rules = {f.rule for f in report.findings}
        assert "rng-substream-aliasing" in rules
        assert report.files_checked == 6
        assert len(report.stream_sites) == 2

    def test_stream_sites(self, fixture_pkg):
        sites = lint_paths([str(fixture_pkg)]).stream_sites
        assert [(s.name, s.qualname, s.method) for s in sites] == [
            ("overlay.probe", "pkg.overlay.proto:seed_streams", "stream")
        ]

    def test_report_is_deterministic(self, fixture_pkg):
        first = lint_paths([str(fixture_pkg)])
        second = lint_paths([str(fixture_pkg)])
        assert first == second

    def test_syntax_error_files_are_skipped(self, fixture_pkg):
        write(fixture_pkg, "overlay/broken.py", "def f(:\n")
        report = lint_paths([str(fixture_pkg)])
        assert [f.rule for f in report.findings] == ["syntax-error"]
        assert [s.module for s in report.stream_sites] == ["pkg.overlay.proto"]

    def test_program_finding_suppressible_per_line(self, tmp_path):
        root = tmp_path / "pkg"
        write(root, "__init__.py", "")
        write(
            root,
            "phases.py",
            """\
            def phase_a(streams):
                return streams.stream("arrivals")  # lint: disable=rng-substream-aliasing


            def phase_b(streams):
                return streams.stream("arrivals")  # lint: disable=rng-substream-aliasing
            """,
        )
        report = lint_paths([str(root)])
        assert "rng-substream-aliasing" not in {f.rule for f in report.findings}
        assert report.suppressed == 2


class TestModuleNames:
    def test_named_by_init_parents(self, fixture_pkg, tmp_path):
        assert module_name_of(str(fixture_pkg / "overlay/proto.py")) == (
            "pkg.overlay.proto"
        )
        assert module_name_of(str(fixture_pkg / "overlay/__init__.py")) == (
            "pkg.overlay"
        )
        loose = write(tmp_path, "loose.py", "")
        assert module_name_of(str(loose)) == "loose"

    def test_file_alone_matches_tree_run(self, fixture_pkg):
        # One project-scoped finding of each kind: unsorted-serialization,
        # rng-unowned-generator and rng-foreign-substream.
        module = write(
            fixture_pkg,
            "overlay/export.py",
            """\
            import json
            import random


            def dump(payload, streams):
                rng = random.Random(7)
                crash = streams.stream("faults.crash")
                return json.dumps(payload), rng, crash
            """,
        )
        alone = lint_paths([str(module)]).findings
        in_tree = [
            f for f in lint_paths([str(fixture_pkg)]).findings
            if f.path == str(module)
        ]
        assert sorted({f.rule for f in alone}) == [
            "rng-foreign-substream",
            "rng-unowned-generator",
            "unsorted-serialization",
        ]
        assert alone == in_tree
