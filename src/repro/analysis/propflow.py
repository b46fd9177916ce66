"""Static property-flow analysis over operator graphs (Section IV-G).

The paper's compile-time story is a dataflow analysis: every operator
declares a *transfer function* (:meth:`Operator.derive_properties`)
mapping its inputs' :class:`StreamProperties` to its output's, and the
restriction class at each LMerge site follows from the fixpoint of those
functions over the plan graph.  This module makes that analysis explicit
and checkable:

* :func:`analyze_graph` walks the full reachable graph (upstream *and*
  downstream of the given roots), evaluates transfer functions in
  topological order, and returns the per-operator property map.  Operators
  caught in a dependency cycle are pessimized to
  ``StreamProperties.unknown()`` — a cycle provides no base case, so no
  guarantee can be proven.
* :func:`check_plan` locates every LMerge site in the graph (any adapter
  carrying ``.lmerge``/``.stream_id``, however the merge was wired),
  compares the variant the site actually runs against the variant the
  inferred input properties justify, and issues a verdict per site:

  ======================  =======================================  ========
  Verdict                 Meaning                                  Severity
  ======================  =======================================  ========
  ``exact``               selected == inferred                     ok
  ``unsound``             selected is *stronger* than inferred —   error
                          the algorithm assumes guarantees the
                          inputs do not provide; output may be
                          silently corrupted
  ``over-conservative``   selected is *weaker* than inferred —     warning
                          correct, but a cheaper algorithm is
                          provably valid (a free perf win)
  ======================  =======================================  ========

* :func:`verify_plan` raises :class:`UnsoundPlanError` on any error
  verdict, so tests and CI can gate on soundness.

The runtime counterpart — confirming the static verdicts on live data —
is :mod:`repro.analysis.checked`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.operator import Operator
from repro.streams.properties import (
    Restriction,
    StreamProperties,
    classify,
)

from .punct import ClassPunctuation, punctuation_of

#: Flag names in declaration order, reused by reports.
PROPERTY_FLAGS: Tuple[str, ...] = (
    "ordered",
    "strictly_increasing",
    "insert_only",
    "deterministic_same_vs_order",
    "key_vs_payload",
)


def _as_operators(roots: Sequence[object]) -> List[Operator]:
    """Accept bare operators or Query-likes (anything with ``.tail``)."""
    operators: List[Operator] = []
    for root in roots:
        tail = getattr(root, "tail", None)
        operators.append(tail if isinstance(tail, Operator) else root)
    for operator in operators:
        if not isinstance(operator, Operator):
            raise TypeError(f"not an operator or query: {operator!r}")
    return operators


def collect_graph(roots: Sequence[Operator]) -> List[Operator]:
    """Every operator reachable from *roots* along either edge direction.

    LMerge sites sit *downstream* of the replica tails a caller naturally
    holds, so the walk must follow subscriber edges too — the analyzer
    sees the whole wired plan no matter which operator it was handed.
    """
    seen: Dict[int, Operator] = {}
    stack = list(roots)
    while stack:
        operator = stack.pop()
        if id(operator) in seen:
            continue
        seen[id(operator)] = operator
        stack.extend(operator.upstreams)
        for downstream, _port in operator.subscribers:
            stack.append(downstream)
        if _is_merge_adapter(operator):
            # Cross the merge: its other input adapters (and, through
            # their upstreams, the sibling replicas) are part of the plan
            # even though the merge itself is not an Operator.
            for sibling in getattr(
                _merge_of(operator), "input_adapters", ()
            ):
                if isinstance(sibling, Operator):
                    stack.append(sibling)
    return list(seen.values())


def _toposort(
    operators: Sequence[Operator],
) -> Tuple[List[Operator], List[Operator]]:
    """Kahn's algorithm over upstream edges.

    Returns ``(order, cyclic)`` where *cyclic* holds operators with no
    admissible evaluation order (mutually dependent inputs).
    """
    members = {id(op) for op in operators}
    indegree: Dict[int, int] = {}
    for operator in operators:
        indegree[id(operator)] = sum(
            1 for up in operator.upstreams if id(up) in members
        )
    ready = [op for op in operators if indegree[id(op)] == 0]
    order: List[Operator] = []
    while ready:
        operator = ready.pop()
        order.append(operator)
        for downstream, _port in operator.subscribers:
            if id(downstream) not in members:
                continue
            indegree[id(downstream)] -= 1
            if indegree[id(downstream)] == 0:
                ready.append(downstream)
    ordered_ids = {id(op) for op in order}
    cyclic = [op for op in operators if id(op) not in ordered_ids]
    return order, cyclic


def _is_merge_adapter(operator: Operator) -> bool:
    """Duck-typed LMerge-input detection.

    Matches :class:`repro.engine.query._LMergeAdapter`,
    :class:`repro.__main__._MergeInput`, and any future bridge that
    forwards a port into ``lmerge.process(element, stream_id)``.
    """
    target = getattr(operator, "lmerge", None) or getattr(
        operator, "merge", None
    )
    return target is not None and hasattr(operator, "stream_id")


def _merge_of(adapter: Operator) -> object:
    return getattr(adapter, "lmerge", None) or getattr(adapter, "merge")


@dataclass
class MergeSite:
    """One LMerge instance and the adapters feeding it (by stream id)."""

    merge: object
    adapters: List[Operator] = field(default_factory=list)

    @property
    def name(self) -> str:
        return getattr(self.merge, "name", type(self.merge).__name__)

    @property
    def algorithm(self) -> str:
        return getattr(self.merge, "algorithm", "?")

    def selected_restriction(self) -> Restriction:
        from repro.lmerge.selector import restriction_of

        return restriction_of(self.merge)


@dataclass
class GraphAnalysis:
    """Result of :func:`analyze_graph`."""

    #: Topological evaluation order (cyclic operators excluded).
    order: List[Operator]
    #: Inferred output properties per operator (id-keyed via operator
    #: identity — operators hash by identity).
    properties: Dict[Operator, StreamProperties]
    #: Operators pessimized to unknown() because they sit on a cycle.
    cyclic: List[Operator]
    #: Every LMerge discovered in the graph, with its input adapters.
    sites: List[MergeSite]

    def properties_of(self, operator: Operator) -> StreamProperties:
        return self.properties[operator]

    def site_input_properties(self, site: MergeSite) -> StreamProperties:
        """The meet of the properties arriving at a site's inputs.

        The adapters themselves are transparent bridges (their transfer
        function is unknown()), so the site's inputs are the adapters'
        *upstreams* — exactly the streams LMerge consumes.
        """
        inputs: List[StreamProperties] = []
        for adapter in site.adapters:
            for upstream in adapter.upstreams:
                inputs.append(self.properties[upstream])
        if not inputs:
            return StreamProperties.unknown()
        merged = inputs[0]
        for item in inputs[1:]:
            merged = merged.meet(item)
        return merged


def analyze_graph(*roots: object) -> GraphAnalysis:
    """Infer per-operator properties over the whole reachable graph."""
    operators = collect_graph(_as_operators(roots))
    order, cyclic = _toposort(operators)
    properties: Dict[Operator, StreamProperties] = {
        operator: StreamProperties.unknown() for operator in cyclic
    }
    for operator in order:
        inputs = [
            properties.get(up, StreamProperties.unknown())
            for up in operator.upstreams
        ]
        properties[operator] = operator.derive_properties(inputs)
    sites: Dict[int, MergeSite] = {}
    for operator in operators:
        if not _is_merge_adapter(operator):
            continue
        merge = _merge_of(operator)
        site = sites.setdefault(id(merge), MergeSite(merge))
        site.adapters.append(operator)
    for site in sites.values():
        site.adapters.sort(key=lambda a: a.stream_id)  # type: ignore[attr-defined]
    return GraphAnalysis(
        order=order,
        properties=properties,
        cyclic=cyclic,
        sites=list(sites.values()),
    )


VERDICT_EXACT = "exact"
VERDICT_UNSOUND = "unsound"
VERDICT_OVER_CONSERVATIVE = "over-conservative"


@dataclass
class SiteCheck:
    """Soundness verdict for one LMerge site."""

    merge_name: str
    algorithm: str
    selected: Restriction
    inferred: Restriction
    input_properties: StreamProperties
    verdict: str
    message: str

    @property
    def is_error(self) -> bool:
        return self.verdict == VERDICT_UNSOUND

    @property
    def is_warning(self) -> bool:
        return self.verdict == VERDICT_OVER_CONSERVATIVE

    def to_json(self) -> dict:
        return {
            "merge": self.merge_name,
            "algorithm": self.algorithm,
            "selected": self.selected.name,
            "inferred": self.inferred.name,
            "input_properties": {
                flag: getattr(self.input_properties, flag)
                for flag in PROPERTY_FLAGS
            },
            "verdict": self.verdict,
            "message": self.message,
        }


@dataclass
class PlanCheck:
    """All site verdicts for one analyzed plan."""

    sites: List[SiteCheck]
    plan: str = "plan"
    #: Punctuation-monotonicity verdict per operator class in the graph
    #: (see :mod:`repro.analysis.punct`).  Only ``violated`` flips ``ok``;
    #: ``unknown`` is reported but tolerated — the pass is conservative.
    punctuation: List[ClassPunctuation] = field(default_factory=list)

    @property
    def errors(self) -> List[SiteCheck]:
        return [site for site in self.sites if site.is_error]

    @property
    def warnings(self) -> List[SiteCheck]:
        return [site for site in self.sites if site.is_warning]

    @property
    def punctuation_violations(self) -> List[ClassPunctuation]:
        return [entry for entry in self.punctuation if not entry.ok]

    @property
    def ok(self) -> bool:
        return not self.errors and not self.punctuation_violations

    def to_json(self) -> dict:
        return {
            "plan": self.plan,
            "ok": self.ok,
            "sites": [site.to_json() for site in self.sites],
            "punctuation": [
                entry.to_json() for entry in self.punctuation
            ],
        }

    def render(self) -> str:
        lines = []
        if not self.sites:
            lines.append(f"{self.plan}: no LMerge sites found")
        for site in self.sites:
            marker = (
                "ERROR"
                if site.is_error
                else "WARN" if site.is_warning else "ok"
            )
            lines.append(f"[{marker:5}] {self.plan}: {site.message}")
        for entry in self.punctuation:
            marker = "ERROR" if not entry.ok else "ok"
            operators = (
                f" ({', '.join(entry.operators)})" if entry.operators else ""
            )
            lines.append(
                f"[{marker:5}] {self.plan}: punctuation {entry.verdict} "
                f"for {entry.class_name}{operators} — {entry.summary()}"
            )
        return "\n".join(lines)


class UnsoundPlanError(Exception):
    """An LMerge site runs a variant its inputs do not justify."""

    def __init__(
        self, check: PlanCheck, offending: Optional[List[SiteCheck]] = None
    ):
        self.check = check
        self.offending = offending if offending is not None else check.errors
        details = [site.message for site in self.offending]
        details.extend(
            f"punctuation {entry.verdict} for {entry.class_name}"
            for entry in check.punctuation_violations
        )
        super().__init__(
            f"unsound plan {check.plan!r}: " + "; ".join(details)
        )


def _check_site(analysis: GraphAnalysis, site: MergeSite) -> SiteCheck:
    input_properties = analysis.site_input_properties(site)
    inferred = classify(input_properties)
    selected = site.selected_restriction()
    if selected < inferred:
        verdict = VERDICT_UNSOUND
        message = (
            f"{site.name} runs {site.algorithm} (assumes "
            f"{selected.name}) but its inputs only justify "
            f"{inferred.name} — guarantees the algorithm relies on are "
            f"not provided; output may be silently wrong"
        )
    elif selected > inferred:
        verdict = VERDICT_OVER_CONSERVATIVE
        message = (
            f"{site.name} runs {site.algorithm} ({selected.name}) but its "
            f"inputs justify {inferred.name} — a cheaper variant is "
            f"provably valid"
        )
    else:
        verdict = VERDICT_EXACT
        message = (
            f"{site.name} runs {site.algorithm}, matching the inferred "
            f"{inferred.name}"
        )
    return SiteCheck(
        merge_name=site.name,
        algorithm=site.algorithm,
        selected=selected,
        inferred=inferred,
        input_properties=input_properties,
        verdict=verdict,
        message=message,
    )


def _check_punctuation(operators: Sequence[Operator]) -> List[ClassPunctuation]:
    """One punctuation verdict per operator *class* in the graph.

    The verdict is a property of the class body, so operators sharing a
    class share an entry; the entry lists which instances it covers.
    """
    by_class: Dict[type, List[str]] = {}
    for operator in operators:
        by_class.setdefault(type(operator), []).append(operator.name)
    entries: List[ClassPunctuation] = []
    for cls, names in by_class.items():
        verdict = punctuation_of(cls)
        entries.append(
            ClassPunctuation(
                class_name=verdict.class_name,
                verdict=verdict.verdict,
                sites=verdict.sites,
                operators=sorted(names),
            )
        )
    entries.sort(key=lambda entry: entry.class_name)
    return entries


def check_plan(*roots: object, plan: str = "plan") -> PlanCheck:
    """Analyze the graph around *roots* and judge every LMerge site."""
    analysis = analyze_graph(*roots)
    checks = [_check_site(analysis, site) for site in analysis.sites]
    checks.sort(key=lambda check: check.merge_name)
    punctuation = _check_punctuation(analysis.order + analysis.cyclic)
    return PlanCheck(sites=checks, plan=plan, punctuation=punctuation)


def verify_plan(
    *roots: object, plan: str = "plan", strict: bool = False
) -> PlanCheck:
    """Like :func:`check_plan` but raise on unsound (or, with
    ``strict=True``, on over-conservative) selections."""
    check = check_plan(*roots, plan=plan)
    offending = check.errors + (check.warnings if strict else [])
    if offending or check.punctuation_violations:
        raise UnsoundPlanError(check, offending)
    return check
