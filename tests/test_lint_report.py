"""The lint report and CLI: the JSON report is byte-deterministic, any
finding fails the run, and the only waiver is a per-line
``# lint: disable=<rule>`` comment."""

import hashlib
import json
import subprocess
import sys

import pytest

from repro.cli import main
from repro.lint.runner import lint_paths, render_json

DIRTY = "import random\nrandom.seed(0)\nx = random.random()\n"


@pytest.fixture()
def proj(tmp_path):
    root = tmp_path / "proj"
    root.mkdir()
    (root / "mod.py").write_text(DIRTY)
    return root


class TestGoldenJsonDeterminism:
    def test_render_json_byte_identical_across_runs(self, proj):
        blob_a = render_json(lint_paths([str(proj)]))
        blob_b = render_json(lint_paths([str(proj)]))
        assert blob_a == blob_b

    def test_full_tree_json_byte_identical_across_processes(self):
        # The real gate: two fresh interpreters (fresh hash seeds) must
        # emit the identical report for the shipped tree.
        cmd = [sys.executable, "-m", "repro", "lint", "--format", "json"]
        runs = [
            subprocess.run(
                cmd,
                capture_output=True,
                text=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
                check=False,
            )
            for seed in ("1", "2")
        ]
        assert runs[0].returncode == 0, runs[0].stdout + runs[0].stderr
        assert runs[0].stdout == runs[1].stdout
        payload = json.loads(runs[0].stdout)
        assert payload["schema"] == 4
        assert payload["ok"] is True

    def test_report_shape(self, proj):
        payload = json.loads(render_json(lint_paths([str(proj)])))
        assert set(payload) == {
            "schema",
            "ok",
            "files_checked",
            "suppressed",
            "severity_counts",
            "stream_sites",
            "findings",
        }
        assert payload["severity_counts"]["high"] == 2
        assert [f["rule"] for f in payload["findings"]] == ["global-random"] * 2
        assert set(payload["findings"][0]) == {
            "path", "line", "col", "rule", "message", "severity",
        }


class TestCli:
    def test_explain_known_and_unknown_rule(self, capsys):
        assert main(["lint", "--explain", "rng-foreign-substream"]) == 0
        out = capsys.readouterr().out
        assert "rng-foreign-substream" in out
        assert "[high]" in out
        assert main(["lint", "--explain", "no-such-rule"]) == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--baseline", "ledger.json"],
            ["--no-baseline"],
            ["--update-baseline"],
            ["--json"],
        ],
        ids=["baseline", "no-baseline", "update-baseline", "json"],
    )
    def test_removed_flags_are_usage_errors(self, proj, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lint", str(proj)] + flags)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_dirty_project_fails_despite_a_finding_ledger(self, proj, capsys):
        # A tools/lint_baseline.json in the layout and fingerprint format
        # the lint once honoured, listing every current finding, must
        # not waive any of them.
        findings = lint_paths([str(proj)]).findings
        assert len(findings) == 2
        ledger = {}
        for finding in findings:
            payload = "\x00".join(("mod.py", finding.rule, finding.message, "0"))
            ledger[hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]] = {
                "path": finding.path, "rule": finding.rule,
                "line": finding.line, "message": finding.message,
            }
        (proj / "tools").mkdir()
        (proj / "tools" / "lint_baseline.json").write_text(
            json.dumps({"schema": 1, "fingerprints": ledger})
        )
        assert main(["lint", str(proj)]) == 1
        assert "2 finding(s) in 1 file(s)" in capsys.readouterr().out
