"""The documentation checker (tools/check_docs.py) and the docs it guards."""

import importlib.util
import os

import pytest

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def check_docs():
    path = os.path.join(_REPO_ROOT, "tools", "check_docs.py")
    spec = importlib.util.spec_from_file_location("check_docs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRepoDocs:
    def test_docs_pages_exist_and_are_linked_from_readme(self):
        for page in ("architecture.md", "tracing.md", "reproducing-the-paper.md"):
            assert os.path.exists(os.path.join(_REPO_ROOT, "docs", page))
        with open(os.path.join(_REPO_ROOT, "README.md"), encoding="utf-8") as fh:
            readme = fh.read()
        assert "docs/architecture.md" in readme
        assert "docs/tracing.md" in readme
        assert "docs/reproducing-the-paper.md" in readme

    def test_all_repo_markdown_is_clean(self, check_docs):
        cwd = os.getcwd()
        os.chdir(_REPO_ROOT)
        try:
            files = check_docs.iter_markdown_files(".")
            problems = []
            for path in files:
                problems.extend(check_docs.check_file(path))
        finally:
            os.chdir(cwd)
        assert problems == []

    def test_architecture_page_has_mermaid(self):
        with open(
            os.path.join(_REPO_ROOT, "docs", "architecture.md"), encoding="utf-8"
        ) as fh:
            assert "```mermaid" in fh.read()


class TestFaultCounterReference:
    def test_undocumented_rows_and_columns_detected(self, check_docs, tmp_path):
        page = tmp_path / "tracing.md"
        page.write_text("`churn.crash` and `partition_interrupts`\n")
        problems = check_docs.check_fault_counter_reference(str(page))
        flagged = {problem.split(" ")[1] for problem in problems}
        assert "'churn.crash'" not in flagged
        assert {"'crashes'", "'failover.query_lost'", "'failover_retries'"} <= flagged
        # no row, so no window column to document
        assert not any("partition_interrupts" in p for p in problems)


class TestLinkChecker:
    def test_broken_relative_link_detected(self, check_docs, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("see [missing](no/such/file.md)\n")
        problems = check_docs.check_file(str(page))
        assert len(problems) == 1
        assert "broken link target" in problems[0]

    def test_existing_relative_link_passes(self, check_docs, tmp_path):
        (tmp_path / "other.md").write_text("hi\n")
        page = tmp_path / "page.md"
        page.write_text("see [other](other.md#section)\n")
        assert check_docs.check_file(str(page)) == []

    def test_external_and_anchor_links_skipped(self, check_docs, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "[a](https://example.com/x.md) [b](#local-anchor) "
            "[c](mailto:x@example.com)\n"
        )
        assert check_docs.check_file(str(page)) == []

    def test_links_inside_code_fences_ignored(self, check_docs, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("```\n[fake](not/real.md)\n```\n")
        assert check_docs.check_file(str(page)) == []


class TestMermaidChecker:
    def test_valid_block_passes(self, check_docs, tmp_path):
        page = tmp_path / "page.md"
        page.write_text('```mermaid\nflowchart TD\n  A["x"] --> B\n```\n')
        assert check_docs.check_file(str(page)) == []

    def test_unknown_header_flagged(self, check_docs, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("```mermaid\nnotadiagram TD\n  A --> B\n```\n")
        problems = check_docs.check_file(str(page))
        assert any("expected one of" in p for p in problems)

    def test_unbalanced_bracket_flagged(self, check_docs, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("```mermaid\nflowchart TD\n  A[broken --> B\n```\n")
        problems = check_docs.check_file(str(page))
        assert any("unbalanced" in p for p in problems)

    def test_unterminated_fence_flagged(self, check_docs, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("```mermaid\nflowchart TD\n  A --> B\n")
        problems = check_docs.check_file(str(page))
        assert any("unterminated" in p for p in problems)

    def test_empty_block_flagged(self, check_docs, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("```mermaid\n```\n")
        problems = check_docs.check_file(str(page))
        assert any("empty mermaid block" in p for p in problems)


class TestTableChecker:
    def test_well_formed_table_passes(self, check_docs, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("| a | b |\n| --- | --- |\n| 1 | 2 |\n")
        assert check_docs.check_file(str(page)) == []

    def test_missing_separator_flagged(self, check_docs, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("| a | b |\n| 1 | 2 |\n| 3 | 4 |\n")
        problems = check_docs.check_file(str(page))
        assert any("separator" in p for p in problems)

    def test_ragged_row_flagged_with_line_number(self, check_docs, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("| a | b |\n| --- | --- |\n| 1 | 2 |\n| only one |\n")
        problems = check_docs.check_file(str(page))
        assert len(problems) == 1
        assert problems[0].startswith(f"{page}:4:")
        assert "1 cell(s), header has 2" in problems[0]

    def test_escaped_pipe_is_one_cell(self, check_docs, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("| a | b |\n| --- | --- |\n| x \\| y | 2 |\n")
        assert check_docs.check_file(str(page)) == []

    def test_tables_inside_code_fences_ignored(self, check_docs, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("```\n| not | a |\n| real | table |\n```\n")
        assert check_docs.check_file(str(page)) == []

    def test_trailing_table_at_eof_checked(self, check_docs, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("text\n\n| a | b |\n| --- | --- |\n| 1 | 2 | 3 |")
        problems = check_docs.check_file(str(page))
        assert any("3 cell(s), header has 2" in p for p in problems)
