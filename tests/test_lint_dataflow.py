"""Positive/negative fixtures for the flow-sensitive rule families and
the global-random / set-iteration rules that share their module."""

import ast
import textwrap

from repro.lint import dataflow
from repro.lint.findings import RuleContext
from repro.lint.runner import RULE_SEVERITIES, RULES, lint_source

#: The rules defined in repro.lint.dataflow, in table order.
FLOW_RULES = [rule for rule in RULES if type(rule).__module__ == dataflow.__name__]


def flow_lint(
    source,
    *,
    path="src/repro/x.py",
    module_name="repro.x",
    is_test=False,
    is_rng=False,
):
    source = textwrap.dedent(source)
    ctx = RuleContext(
        path=path,
        module_name=module_name,
        is_test_module=is_test,
        is_rng_module=is_rng,
    )
    tree = ast.parse(source)
    return [f for rule in FLOW_RULES for f in rule.check(tree, ctx)]


def rules_of(findings):
    return [f.rule for f in findings]


class TestMutableDefaultArg:
    def test_list_default_flagged(self):
        findings = flow_lint("def f(xs=[]):\n    return xs\n")
        assert rules_of(findings) == ["mutable-default-arg"]

    def test_kwonly_dict_default_flagged(self):
        findings = flow_lint("def f(*, m={}):\n    return m\n")
        assert rules_of(findings) == ["mutable-default-arg"]

    def test_none_and_tuple_defaults_allowed(self):
        assert flow_lint("def f(xs=None, t=(), s='x'):\n    return xs\n") == []

    def test_runs_on_isolated_snippets_too(self):
        # Unlike the project-scoped rules this one has no false-positive
        # risk, so lint_source surfaces it for any path.
        findings = lint_source("def f(xs=[]):\n    return xs\n", path="any.py")
        assert rules_of(findings) == ["mutable-default-arg"]

    def test_suppressible_per_line(self):
        source = "def f(xs=[]):  # lint: disable=mutable-default-arg\n    return xs\n"
        assert lint_source(source, path="any.py") == []


class TestUnsortedAccumulation:
    def test_float_sum_over_set_flagged(self):
        findings = flow_lint(
            """
            def total(items):
                seen = set(items)
                acc = 0.0
                for x in seen:
                    acc += x
                return acc
            """
        )
        assert rules_of(findings) == ["unsorted-accumulation"]

    def test_append_accumulation_over_set_flagged(self):
        findings = flow_lint(
            """
            def collect(items):
                seen = set(items)
                out = []
                for x in seen:
                    out.append(x)
                return out
            """
        )
        assert rules_of(findings) == ["unsorted-accumulation"]

    def test_sorted_iteration_allowed(self):
        findings = flow_lint(
            """
            def total(items):
                seen = set(items)
                acc = 0.0
                for x in sorted(seen):
                    acc += x
                return acc
            """
        )
        assert findings == []

    def test_loop_without_accumulation_allowed(self):
        findings = flow_lint(
            """
            def check(items):
                seen = set(items)
                for x in seen:
                    if x < 0:
                        raise ValueError(x)
            """
        )
        assert findings == []


class TestUnsortedSerialization:
    def test_dumps_without_sort_keys_flagged(self):
        findings = flow_lint(
            """
            import json


            def save(payload):
                return json.dumps(payload)
            """
        )
        assert rules_of(findings) == ["unsorted-serialization"]

    def test_dump_to_file_without_sort_keys_flagged(self):
        findings = flow_lint(
            """
            import json


            def save(payload, fh):
                json.dump(payload, fh, indent=2)
            """
        )
        assert rules_of(findings) == ["unsorted-serialization"]

    def test_sort_keys_true_allowed(self):
        findings = flow_lint(
            """
            import json


            def save(payload):
                return json.dumps(payload, sort_keys=True)
            """
        )
        assert findings == []

    def test_project_scoped_only(self):
        # Without a resolved module name (isolated snippet) the rule
        # stays silent -- json.dumps in arbitrary code is not ours to
        # police.
        source = "import json\n\n\ndef save(p):\n    return json.dumps(p)\n"
        assert flow_lint(source, module_name=None) == []
        assert flow_lint(source, is_test=True) == []


class TestRngUnownedGenerator:
    def test_module_level_random_constructor_flagged(self):
        findings = flow_lint(
            """
            import random


            def make():
                return random.Random(3)
            """
        )
        assert rules_of(findings) == ["rng-unowned-generator"]

    def test_from_import_constructor_flagged(self):
        findings = flow_lint(
            """
            from random import Random


            def make():
                return Random(3)
            """
        )
        assert rules_of(findings) == ["rng-unowned-generator"]

    def test_rng_module_and_tests_exempt(self):
        source = "from random import Random\n\n\ndef make():\n    return Random(3)\n"
        assert flow_lint(source, is_rng=True) == []
        assert flow_lint(source, is_test=True) == []
        assert flow_lint(source, module_name=None) == []


class TestRngObsHookDraw:
    def test_draw_inside_tracer_guard_flagged(self):
        findings = flow_lint(
            """
            def emit(self, tracer, rng):
                if tracer:
                    return rng.random()
            """
        )
        assert rules_of(findings) == ["rng-obs-hook-draw"]

    def test_draw_inside_span_flagged(self):
        findings = flow_lint(
            """
            def emit(obs, rng):
                with obs.span("phase"):
                    rng.shuffle([1, 2])
            """
        )
        assert rules_of(findings) == ["rng-obs-hook-draw"]

    def test_draw_outside_hooks_allowed(self):
        findings = flow_lint(
            """
            def emit(self, tracer, rng):
                value = rng.random()
                if tracer:
                    tracer.record(value)
                return value
            """
        )
        assert findings == []


class TestMigratedRules:
    """The global-random and set-iteration rules run from the one rule
    table with their original ids, messages, and suppressions."""

    def test_rules_moved_not_duplicated(self):
        rule_ids = [rule.rule_id for rule in RULES]
        assert len(rule_ids) == len(set(rule_ids))
        classes = [type(rule) for rule in RULES]
        assert classes.count(dataflow.GlobalRandomRule) == 1
        assert classes.count(dataflow.SetIterationRule) == 1

    def test_global_random_findings_identical(self):
        findings = lint_source(
            "import random\n\nrandom.seed(42)\nx = random.random()\n",
            path="src/repro/sim/thing.py",
        )
        assert [(f.rule, f.line) for f in findings] == [
            ("global-random", 3),
            ("global-random", 4),
        ]
        assert "random.seed" in findings[0].message

    def test_set_iteration_findings_identical(self):
        findings = lint_source(
            "def f(s):\n    for x in set(s):\n        print(x)\n",
            path="src/repro/sim/thing.py",
        )
        assert [(f.rule, f.line) for f in findings] == [("set-iteration", 2)]

    def test_suppression_comments_still_work(self):
        source = (
            "import random\n\n"
            "random.seed(42)  # lint: disable=global-random\n"
        )
        assert lint_source(source, path="src/repro/sim/thing.py") == []

    def test_migrated_rules_keep_high_severity(self):
        assert RULE_SEVERITIES["global-random"] == "high"
        assert RULE_SEVERITIES["set-iteration"] == "high"
