"""Unit tests for the AST determinism rules, suppression, and the CLI."""

import json
import textwrap

import pytest

from repro.cli import main
from repro.lint.runner import (
    RULE_DESCRIPTIONS,
    lint_paths,
    lint_source,
    render_json,
    render_text,
)
from repro.lint.suppressions import SuppressionIndex


def lint(source, path="pkg/module.py"):
    return lint_source(textwrap.dedent(source), path=path)


def rules_of(findings):
    return sorted({f.rule for f in findings})


class TestGlobalRandomRule:
    def test_module_global_call_flagged(self):
        findings = lint("import random\nrandom.seed(0)\n")
        assert rules_of(findings) == ["global-random"]
        assert findings[0].line == 2

    def test_every_global_state_function_flagged(self):
        source = (
            "import random\n"
            "random.random()\n"
            "random.shuffle([1, 2])\n"
            "random.choice([1, 2])\n"
        )
        assert len(lint(source)) == 3

    def test_aliased_import_flagged(self):
        findings = lint("import random as rnd\nrnd.randint(0, 5)\n")
        assert rules_of(findings) == ["global-random"]

    def test_injected_random_instance_allowed(self):
        assert lint("import random\nrng = random.Random(7)\nrng.random()\n") == []

    def test_from_import_of_global_function_flagged(self):
        findings = lint("from random import random\nx = random()\n")
        assert rules_of(findings) == ["global-random"]

    def test_from_import_of_random_class_allowed(self):
        assert lint("from random import Random\nrng = Random(1)\n") == []

    def test_numpy_global_state_flagged(self):
        findings = lint("import numpy as np\nx = np.random.rand(3)\n")
        assert rules_of(findings) == ["global-random"]

    def test_numpy_default_rng_allowed(self):
        assert lint("import numpy as np\ng = np.random.default_rng(0)\n") == []

    def test_rng_module_is_exempt(self):
        findings = lint(
            "import random\nrandom.Random(0)\nrandom.seed(1)\n",
            path="src/repro/sim/rng.py",
        )
        assert findings == []


class TestWallClockRule:
    def test_time_time_flagged(self):
        findings = lint("import time\nnow = time.time()\n")
        assert rules_of(findings) == ["wall-clock"]

    def test_monotonic_and_sleep_flagged(self):
        source = "import time\ntime.monotonic()\ntime.sleep(1)\n"
        assert len(lint(source)) == 2

    def test_datetime_now_flagged(self):
        findings = lint("from datetime import datetime\nt = datetime.now()\n")
        assert rules_of(findings) == ["wall-clock"]

    def test_datetime_module_utcnow_flagged(self):
        findings = lint("import datetime\nt = datetime.datetime.utcnow()\n")
        assert rules_of(findings) == ["wall-clock"]

    def test_from_time_import_time_flagged(self):
        findings = lint("from time import time\nt = time()\n")
        assert rules_of(findings) == ["wall-clock"]

    def test_simulated_clock_allowed(self):
        assert lint("def fire(sched):\n    return sched.now + 5.0\n") == []


class TestSetIterationRule:
    def test_for_over_set_call_flagged(self):
        findings = lint("for x in set([3, 1]):\n    print(x)\n")
        assert rules_of(findings) == ["set-iteration"]

    def test_comprehension_over_set_literal_flagged(self):
        findings = lint("ys = [x for x in {1, 2, 3}]\n")
        assert rules_of(findings) == ["set-iteration"]

    def test_list_of_frozenset_flagged(self):
        findings = lint("xs = list(frozenset([1, 2]))\n")
        assert rules_of(findings) == ["set-iteration"]

    def test_rng_choice_of_set_flagged(self):
        findings = lint("def pick(rng, ids):\n    return rng.choice(set(ids))\n")
        assert rules_of(findings) == ["set-iteration"]

    def test_sorted_set_allowed(self):
        assert lint("xs = sorted(set([2, 1]))\nfor x in sorted({3, 4}):\n    pass\n") == []

    def test_membership_test_allowed(self):
        assert lint("def f(x, ids):\n    return x in set(ids)\n") == []


class TestUnusedImportRule:
    def test_unused_from_import_flagged(self):
        findings = lint("from typing import List\nx = 1\n")
        assert rules_of(findings) == ["unused-import"]
        assert "'List'" in findings[0].message

    def test_used_import_allowed(self):
        assert lint("import json\nprint(json.dumps({}))\n") == []

    def test_dunder_all_counts_as_use(self):
        source = "from json import dumps\n__all__ = ['dumps']\n"
        assert lint(source) == []

    def test_quoted_annotation_counts_as_use(self):
        source = (
            "from typing import Sequence\n"
            "def f(xs: 'Sequence[int]') -> int:\n"
            "    return len(xs)\n"
        )
        assert lint(source) == []

    def test_future_import_ignored(self):
        assert lint("from __future__ import annotations\n") == []


class TestDeadNameRule:
    def test_unused_pure_local_flagged(self):
        findings = lint("def f():\n    leftover = 5\n    return 1\n")
        assert rules_of(findings) == ["dead-name"]

    def test_underscore_prefix_allowed(self):
        assert lint("def f():\n    _ignored = 5\n    return 1\n") == []

    def test_used_local_allowed(self):
        assert lint("def f():\n    x = 5\n    return x\n") == []

    def test_call_result_not_flagged(self):
        # A call may be executed for its side effect; not a dead name.
        assert lint("def f(g):\n    result = g()\n    return 1\n") == []

    def test_use_in_nested_function_counts(self):
        source = (
            "def f():\n"
            "    x = 5\n"
            "    def g():\n"
            "        return x\n"
            "    return g\n"
        )
        assert lint(source) == []


class TestBroadExceptRule:
    def test_bare_except_flagged(self):
        findings = lint("try:\n    pass\nexcept:\n    pass\n")
        assert rules_of(findings) == ["broad-except"]

    def test_except_exception_flagged(self):
        findings = lint("try:\n    pass\nexcept Exception:\n    pass\n")
        assert rules_of(findings) == ["broad-except"]

    def test_reraising_handler_allowed(self):
        source = "try:\n    pass\nexcept Exception:\n    log()\n    raise\n"
        assert lint(source) == []

    def test_specific_exception_allowed(self):
        assert lint("try:\n    pass\nexcept ValueError:\n    pass\n") == []


class TestFloatTimeEqRule:
    def test_eq_against_scheduler_now_flagged(self):
        findings = lint("def f(sched):\n    return sched.now == 3.0\n")
        assert rules_of(findings) == ["float-time-eq"]

    def test_neq_flagged(self):
        findings = lint("def f(now):\n    return now != 0.0\n")
        assert rules_of(findings) == ["float-time-eq"]

    def test_ordering_comparison_allowed(self):
        assert lint("def f(sched, h):\n    return sched.now <= h\n") == []

    def test_unrelated_equality_allowed(self):
        assert lint("def f(a, b):\n    return a == b\n") == []


class TestDirectProtocolInstantiationRule:
    def test_direct_construction_flagged(self):
        findings = lint(
            "def f(dataset, server, rng):\n"
            "    return SocialTubeProtocol(dataset, server, rng)\n"
        )
        assert rules_of(findings) == ["direct-protocol-instantiation"]

    def test_attribute_chain_flagged(self):
        findings = lint(
            "import repro.core.socialtube as st\n"
            "def f(d, s, r):\n"
            "    return st.SocialTubeProtocol(d, s, r)\n"
        )
        assert "direct-protocol-instantiation" in rules_of(findings)

    def test_bare_typing_protocol_allowed(self):
        assert lint("from typing import Protocol\nX = Protocol\n") == []

    def test_registry_module_exempt(self):
        findings = lint(
            'def f(d, s, r):\n    """Doc."""\n    return NetTubeProtocol(d, s, r)\n',
            path="src/repro/experiments/registry.py",
        )
        assert findings == []

    def test_test_modules_exempt(self):
        source = "def f(d, s, r):\n    return NetTubeProtocol(d, s, r)\n"
        assert lint(source, path="tests/test_foo.py") == []
        assert lint(source, path="benchmarks/conftest.py") == []

    def test_create_protocol_allowed(self):
        assert (
            lint(
                "from repro.experiments.registry import create_protocol\n"
                "def f(d, s, r):\n"
                "    return create_protocol('socialtube', d, s, r)\n"
            )
            == []
        )

    def test_suppressible_per_line(self):
        source = (
            "def f(d, s, r):\n"
            "    return PaVodProtocol(d, s, r)"
            "  # lint: disable=direct-protocol-instantiation\n"
        )
        assert lint(source) == []


class TestSuppression:
    def test_disable_silences_named_rule(self):
        source = "import time\nt = time.time()  # lint: disable=wall-clock\n"
        assert lint(source) == []

    def test_disable_all_silences_everything(self):
        source = "import random\nrandom.seed(0)  # lint: disable=all\n"
        assert lint(source) == []

    def test_disable_other_rule_does_not_silence(self):
        source = "import time\nt = time.time()  # lint: disable=global-random\n"
        assert rules_of(lint(source)) == ["wall-clock"]

    def test_suppression_is_line_scoped(self):
        source = (
            "import time\n"
            "a = time.time()  # lint: disable=wall-clock\n"
            "b = time.time()\n"
        )
        findings = lint(source)
        assert rules_of(findings) == ["wall-clock"]
        assert findings[0].line == 3

    def test_empty_disable_list_reported(self):
        findings = lint("x = 1  # lint: disable=\n")
        assert rules_of(findings) == ["bad-suppression"]

    def test_docstring_mention_is_not_a_suppression(self):
        index = SuppressionIndex.from_source(
            '"""Docs: use ``# lint: disable=<rule>`` to silence."""\nx = 1\n'
        )
        assert index.suppressed_lines() == []
        assert index.malformed_lines == []

    def test_suppressed_count_in_report(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("import time\nt = time.time()  # lint: disable=wall-clock\n")
        report = lint_paths([str(path)])
        assert report.ok
        assert report.suppressed == 1


class TestRunnerAndCli:
    def test_every_rule_has_a_description(self):
        for rule_id, description in RULE_DESCRIPTIONS.items():
            assert rule_id and description

    def test_missing_path_is_a_finding_not_a_crash(self, tmp_path):
        report = lint_paths([str(tmp_path / "no_such_file.py")])
        assert rules_of(report.findings) == ["io-error"]
        assert not report.ok

    def test_syntax_error_is_a_finding(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n")
        report = lint_paths([str(path)])
        assert rules_of(report.findings) == ["syntax-error"]

    def test_render_text_lists_locations(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("import time\nt = time.time()\n")
        report = lint_paths([str(path)])
        text = render_text(report)
        assert f"{path}:2:" in text
        assert "wall-clock" in text

    def test_render_json_roundtrips(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("import random\nrandom.seed(0)\n")
        payload = json.loads(render_json(lint_paths([str(path)])))
        assert payload["ok"] is False
        assert payload["findings"][0]["rule"] == "global-random"
        assert payload["findings"][0]["line"] == 2

    def test_cli_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("def f(rng):\n    return rng.random()\n")
        assert main(["lint", str(path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_cli_dirty_fixture_exits_nonzero(self, tmp_path, capsys):
        # The acceptance fixture: global seeding plus a wall-clock read.
        path = tmp_path / "dirty.py"
        path.write_text(
            "import random\nimport time\nrandom.seed(0)\nstart = time.time()\n"
        )
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "global-random" in out
        assert "wall-clock" in out

    def test_cli_json_format_is_structured(self, tmp_path, capsys):
        path = tmp_path / "dirty.py"
        path.write_text("import random\nrandom.seed(0)\n")
        assert main(["lint", "--format", "json", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        rules = [f["rule"] for f in payload["findings"]]
        assert rules == ["global-random"]

    def test_cli_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULE_DESCRIPTIONS:
            assert rule_id in out

    def test_cli_default_target_is_source_tree(self, capsys):
        # No paths -> lints the installed package, which must be clean.
        assert main(["lint"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_bad_format_rejected(self):
        with pytest.raises(SystemExit):
            main(["lint", "--format", "yaml"])


class TestMissingPublicDocstringRule:
    SOURCE = (
        "class Foo:\n"
        "    def bar(self):\n"
        "        pass\n"
        "\n"
        "def baz():\n"
        "    pass\n"
    )

    def test_api_surface_files_checked(self):
        findings = lint(self.SOURCE, path="src/repro/obs/tracer.py")
        assert rules_of(findings) == ["missing-public-docstring"]
        assert len(findings) == 3  # class, method, function

    def test_spec_and_registry_opted_in(self):
        for path in (
            "src/repro/experiments/spec.py",
            "src/repro/experiments/registry.py",
        ):
            assert len(lint(self.SOURCE, path=path)) == 3

    def test_every_obs_module_is_in_scope(self):
        """The /obs/ entry covers the whole package roster -- the
        timeseries/report/baseline modules are held to the rule just
        like tracer/export, and future obs modules will be too."""
        for path in (
            "src/repro/obs/timeseries.py",
            "src/repro/obs/report.py",
            "src/repro/obs/baseline.py",
            "src/repro/obs/export.py",
            "src/repro/obs/anything_added_later.py",
        ):
            findings = lint(self.SOURCE, path=path)
            assert rules_of(findings) == ["missing-public-docstring"], path
            assert len(findings) == 3, path

    def test_other_modules_not_checked(self):
        assert lint(self.SOURCE, path="src/repro/metrics/collectors.py") == []

    def test_documented_defs_pass(self):
        source = (
            'class Foo:\n'
            '    """Doc."""\n'
            '\n'
            '    def bar(self):\n'
            '        """Doc."""\n'
            '\n'
            'def baz():\n'
            '    """Doc."""\n'
        )
        assert lint(source, path="src/repro/obs/tracer.py") == []

    def test_private_names_exempt(self):
        source = "def _helper():\n    pass\n\nclass _Hidden:\n    pass\n"
        assert lint(source, path="src/repro/obs/export.py") == []

    def test_nested_functions_exempt(self):
        source = (
            'def outer():\n'
            '    """Doc."""\n'
            '    def inner():\n'
            '        pass\n'
        )
        assert lint(source, path="src/repro/obs/tracer.py") == []

    def test_per_line_suppression(self):
        source = (
            "def baz():  # lint: disable=missing-public-docstring\n"
            "    pass\n"
        )
        assert lint(source, path="src/repro/obs/tracer.py") == []
