"""The chaos matrix: property tests killing workers at random batch
boundaries, plus the seeded matrix smoke used by CI.

The oracle in every cell is the repro/theory TDB-equivalence check
(``tdb(faulty) == tdb(clean) == tdb(reference)``) plus multiset equality
of the data elements — no loss, no duplication.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience.chaos import run_chaos_cell, run_fault_matrix


class TestRandomKillBoundaries:
    @settings(max_examples=4)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        variant=st.sampled_from(["r1", "r3"]),
    )
    def test_kills_at_random_batch_boundaries_preserve_equivalence(
        self, seed, variant
    ):
        cell = run_chaos_cell(variant, "kill", seed, count=120)
        assert cell["equivalent"], cell
        assert cell["no_loss_no_duplication"], cell

    @settings(max_examples=3)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_r4_survives_kills(self, seed):
        cell = run_chaos_cell("r4", "kill", seed, count=120)
        assert cell["ok"], cell


class TestFaultKinds:
    def test_duplicate_frames_are_absorbed_without_restart(self):
        cell = run_chaos_cell("r3", "duplicate", 21, count=120)
        assert cell["ok"], cell
        assert cell["restarts"] == 0  # the sequence gate eats duplicates

    def test_drop_triggers_gap_recovery(self):
        cell = run_chaos_cell("r3", "drop", 21, count=120)
        assert cell["ok"], cell
        assert cell["restarts"] >= 1

    def test_delay_triggers_reorder_recovery(self):
        cell = run_chaos_cell("r3", "delay", 21, count=120)
        assert cell["ok"], cell


class TestMatrix:
    def test_seeded_matrix_is_reproducible_and_ok(self, tmp_path):
        report = run_fault_matrix(
            5,
            variants=("r3",),
            fault_kinds=("kill", "duplicate"),
            count=120,
        )
        assert report["all_ok"], report
        assert len(report["cells"]) == 2
        # Same seed, same fault plan: the injected sites are data, so a
        # rerun injects exactly the same faults.
        again = run_fault_matrix(
            5,
            variants=("r3",),
            fault_kinds=("kill", "duplicate"),
            count=120,
        )
        assert [c["fault_plan"] for c in again["cells"]] == [
            c["fault_plan"] for c in report["cells"]
        ]
        # The report is the CI artifact: it must be JSON-serializable.
        blob = json.dumps(report, sort_keys=True)
        assert "fault_plan" in blob


class TestChaosCli:
    def test_cli_writes_report_and_exits_zero(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "chaos-report.json"
        code = main(
            [
                "chaos",
                "--seed",
                "13",
                "--variants",
                "r3",
                "--faults",
                "kill",
                "--count",
                "120",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["all_ok"]
        assert report["cells"][0]["fault"] == "kill"
        printed = capsys.readouterr().out
        assert "chaos matrix" in printed

    def test_cli_rejects_unknown_fault(self):
        from repro.__main__ import main

        assert main(["chaos", "--faults", "meteor"]) == 2
