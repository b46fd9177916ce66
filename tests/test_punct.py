"""Punctuation-monotonicity pass: proofs, refusals, and plan wiring."""

import textwrap

import pytest

from repro.analysis.propflow import (
    UnsoundPlanError,
    check_plan,
    verify_plan,
)
from repro.analysis.punct import (
    PUNCT_PROVED,
    PUNCT_UNKNOWN,
    PUNCT_VIOLATED,
    SITE_GUARDED,
    SITE_PASS_THROUGH,
    classify_source,
    punctuation_of,
)
from repro.engine.operator import Operator
from repro.operators.aggregate import GroupedCount, WindowedCount
from repro.operators.cleanse import Cleanse
from repro.operators.exchange import ShardUnion
from repro.operators.join import TemporalJoin
from repro.operators.select import Filter
from repro.operators.union import Union
from repro.temporal.elements import Stable


def _classify(source):
    return classify_source(textwrap.dedent(source))


class TestSiteClassification:
    def test_pass_through_parameter(self):
        result = _classify(
            """
            class Forward:
                def on_stable(self, vc, port):
                    self.emit(Stable(vc))
            """
        )["Forward"]
        assert result.verdict == PUNCT_PROVED
        assert result.sites[0].classification == SITE_PASS_THROUGH

    def test_guarded_high_water_mark(self):
        result = _classify(
            """
            class Guarded:
                def on_stable(self, vc, port):
                    frontier = min(self._frontiers)
                    if frontier > self._emitted_stable:
                        self._emitted_stable = frontier
                        self.emit(Stable(frontier))
            """
        )["Guarded"]
        assert result.verdict == PUNCT_PROVED
        assert result.sites[0].classification == SITE_GUARDED

    def test_mirrored_guard_also_proves(self):
        result = _classify(
            """
            class Mirrored:
                def on_stable(self, vc, port):
                    if self._mark < vc:
                        self._mark = vc
                        self.emit(Stable(vc))
            """
        )["Mirrored"]
        assert result.verdict == PUNCT_PROVED

    def test_guard_without_watermark_update_is_unknown(self):
        result = _classify(
            """
            class Leaky:
                def on_stable(self, vc, port):
                    frontier = self._frontier()
                    if frontier > self._emitted_stable:
                        self.emit(Stable(frontier))
            """
        )["Leaky"]
        assert result.verdict == PUNCT_UNKNOWN

    def test_emission_below_parameter_is_violated(self):
        result = _classify(
            """
            class Regress:
                def on_stable(self, vc, port):
                    self.emit(Stable(vc - 1))
            """
        )["Regress"]
        assert result.verdict == PUNCT_VIOLATED

    def test_computed_unguarded_is_unknown_not_violated(self):
        result = _classify(
            """
            class Computed:
                def on_stable(self, vc, port):
                    self.emit(Stable(self._watermark()))
            """
        )["Computed"]
        assert result.verdict == PUNCT_UNKNOWN

    def test_else_branch_not_covered_by_guard(self):
        result = _classify(
            """
            class ElseEmit:
                def on_stable(self, vc, port):
                    frontier = min(self._frontiers)
                    if frontier > self._emitted_stable:
                        self._emitted_stable = frontier
                    else:
                        self.emit(Stable(frontier))
            """
        )["ElseEmit"]
        assert result.verdict == PUNCT_UNKNOWN

    def test_no_sites_is_trivially_proved(self):
        result = _classify(
            """
            class DataOnly:
                def on_insert(self, element, port):
                    self.emit(element)
            """
        )["DataOnly"]
        assert result.verdict == PUNCT_PROVED
        assert result.sites == []


class TestRealOperators:
    @pytest.mark.parametrize(
        "cls",
        [
            Union,
            Filter,
            Cleanse,
            TemporalJoin,
            WindowedCount,
            GroupedCount,
            ShardUnion,
        ],
    )
    def test_shipped_operator_proves_monotone(self, cls):
        result = punctuation_of(cls)
        assert result.verdict == PUNCT_PROVED, result.to_json()

    def test_inherited_helper_counts_via_mro(self):
        # WindowedCount itself never constructs a Stable — the guarded
        # site lives in the _WindowedOperator base's _emit_stable.
        result = punctuation_of(WindowedCount)
        assert any(
            site.class_name == "_WindowedOperator" for site in result.sites
        )

    def test_result_is_cached_per_class(self):
        assert punctuation_of(Union) is punctuation_of(Union)


class _RegressingStable(Operator):
    """Fixture: re-opens time it already promised closed."""

    def on_insert(self, element, port):
        self.emit(element)

    def on_stable(self, vc, port):
        self.emit(Stable(vc - 1))


class TestPlanWiring:
    def test_check_plan_carries_punctuation_verdicts(self):
        op = Filter(lambda p: True, name="keep")
        check = check_plan(op, plan="tiny")
        by_class = {entry.class_name: entry for entry in check.punctuation}
        assert by_class["Filter"].verdict == PUNCT_PROVED
        assert by_class["Filter"].operators == ["keep"]
        assert check.ok

    def test_punctuation_in_json_and_render(self):
        op = Filter(lambda p: True, name="keep")
        check = check_plan(op, plan="tiny")
        payload = check.to_json()
        assert payload["punctuation"]
        assert payload["punctuation"][0]["verdict"] == PUNCT_PROVED
        assert "punctuation" in check.render()

    def test_violating_operator_fails_the_plan(self):
        bad = _RegressingStable(name="regress")
        check = check_plan(bad, plan="broken")
        assert not check.ok
        assert check.punctuation_violations
        assert "violated" in check.render()

    def test_verify_plan_raises_on_violation(self):
        bad = _RegressingStable(name="regress")
        with pytest.raises(UnsoundPlanError) as excinfo:
            verify_plan(bad, plan="broken")
        assert "punctuation" in str(excinfo.value)

    def test_unknown_does_not_fail_the_plan(self):
        # The pass is conservative: unproven-but-unrefuted operators are
        # reported, not rejected.
        entries = check_plan(
            Filter(lambda p: True, name="keep"), plan="tiny"
        ).punctuation
        assert all(entry.ok for entry in entries)
