"""Golden shapes for the analysis CLI's machine-readable reports.

CI archives these JSON documents as artifacts and downstream tooling
keys on their fields — the schemas are a contract, locked down here.
"""

import json

import pytest

from repro.analysis.cli import build_parser, main
from repro.analysis.lint import RULES

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def _run_json(tmp_path, argv):
    """Run the CLI writing JSON to a temp file; return (exit, payload)."""
    out = tmp_path / "report.json"
    code = main(argv + ["--format", "json", "--output", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


class TestLintReport:
    def test_schema(self, tmp_path):
        code, payload = _run_json(tmp_path, ["lint", "src/repro/analysis"])
        assert code == 0
        assert set(payload) == {"ok", "errors", "warnings", "findings"}
        assert payload["ok"] is True
        assert payload["findings"] == []

    def test_findings_entry_shape(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(a=[]):\n    return a\n", encoding="utf-8")
        code, payload = _run_json(tmp_path, ["lint", str(bad)])
        finding = payload["findings"][0]
        assert set(finding) >= {"path", "line", "rule", "severity", "message"}
        assert finding["rule"] == "REP106"


class TestCheckPlanReport:
    def test_schema(self, tmp_path):
        code, payload = _run_json(
            tmp_path, ["check-plan", "--plans", "examples/plans.py"]
        )
        assert code == 0
        assert set(payload) == {"ok", "plans"}
        assert payload["ok"] is True
        plan = payload["plans"][0]
        assert set(plan) == {"plan", "ok", "sites", "punctuation"}
        site = plan["sites"][0]
        assert set(site) == {
            "merge",
            "algorithm",
            "selected",
            "inferred",
            "input_properties",
            "verdict",
            "message",
        }
        entry = plan["punctuation"][0]
        assert set(entry) == {"class", "verdict", "operators", "sites"}
        assert all(
            p["verdict"] in ("proved", "unknown") for p in plan["punctuation"]
        )


class TestProtocolReport:
    def test_schema(self, tmp_path):
        code, payload = _run_json(tmp_path, ["protocol"])
        assert code == 0
        assert set(payload) == {"protocol", "ok", "sites", "summary"}
        assert payload["ok"] is True
        assert payload["summary"]["violations"] == 0
        site = payload["sites"][0]
        assert set(site) >= {
            "path",
            "line",
            "function",
            "role",
            "ring",
            "op",
            "kind",
            "violations",
        }

    def test_violating_fixture_exits_nonzero(self, tmp_path):
        bad = tmp_path / "bad_worker.py"
        bad.write_text(
            "def shard_loop(in_ring, out_ring):\n"
            "    out_ring.put(TELEM, stats)\n",
            encoding="utf-8",
        )
        code, payload = _run_json(tmp_path, ["protocol", str(bad)])
        assert code == 1
        assert payload["ok"] is False


class TestModelReport:
    def test_schema(self, tmp_path):
        code, payload = _run_json(tmp_path, ["model"])
        assert code == 0
        assert set(payload) >= {
            "params",
            "ok",
            "states",
            "transitions",
            "terminal_states",
            "properties",
            "violations",
            "wall_seconds",
        }
        assert payload["ok"] is True
        assert payload["violations"] == []

    def test_mutation_exits_nonzero_with_trace(self, tmp_path):
        code, payload = _run_json(
            tmp_path, ["model", "--mutate", "no_dedup"]
        )
        assert code == 1
        assert payload["ok"] is False
        assert payload["violations"][0]["trace"]


class TestRulesCommand:
    def test_json_catalog(self, tmp_path):
        code, payload = _run_json(tmp_path, ["rules"])
        assert code == 0
        ids = [entry["id"] for entry in payload]
        assert "REP101" in ids and "REP113" in ids
        assert all(
            set(entry) == {"id", "severity", "summary"} for entry in payload
        )

    def test_markdown_catalog(self, tmp_path, capsys):
        code = main(["rules", "--format", "markdown"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("| rule | severity | meaning |")
        rows = [line for line in out.splitlines() if line.startswith("| REP")]
        assert [row.split()[1] for row in rows] == sorted(RULES)

    def test_check_docs_in_sync(self):
        assert main(["rules", "--check-docs"]) == 0

    def test_check_docs_detects_drift(self, tmp_path, capsys):
        from repro.analysis.lint import (
            CATALOG_BEGIN_LINE,
            CATALOG_END_LINE,
        )

        stale = tmp_path / "ANALYSIS.md"
        stale.write_text(
            f"# Rules\n\n{CATALOG_BEGIN_LINE}\n| stale |\n"
            f"{CATALOG_END_LINE}\n",
            encoding="utf-8",
        )
        assert main(["rules", "--check-docs", "--docs", str(stale)]) == 1
        # --write-docs repairs it in place.
        assert main(["rules", "--write-docs", "--docs", str(stale)]) == 0
        assert main(["rules", "--check-docs", "--docs", str(stale)]) == 0

    def test_missing_markers_is_an_error(self, tmp_path):
        bare = tmp_path / "ANALYSIS.md"
        bare.write_text("# No markers here\n", encoding="utf-8")
        assert main(["rules", "--check-docs", "--docs", str(bare)]) == 2


class TestParser:
    def test_subcommands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("lint", "check-plan", "protocol", "model", "rules"):
            assert command in text
