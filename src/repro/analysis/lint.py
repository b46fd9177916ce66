"""Repo-specific AST lint: engine invariants as checkable rules.

Generic linters cannot know that ``repro`` operators must be replayable
(no wall-clock reads in hot paths), that stream elements are immutable
value objects, or that punctuation handling is mandatory.  This module
encodes those invariants as AST rules with stable IDs:

=======  ========  ====================================================
ID       Severity  Invariant
=======  ========  ====================================================
REP101   error     No wall-clock reads (``time.time``/``datetime.now``)
                   in engine/operators/lmerge hot paths — results must
                   be a function of the element sequence alone
                   (``time.perf_counter`` for measurement is fine).
REP102   error     Direct ``Operator`` subclasses that handle data
                   elements (``on_insert``/``on_adjust``/
                   ``receive_batch``) must also handle punctuation:
                   define ``on_stable`` (or take over delivery wholesale
                   by overriding ``receive``).
REP103   error     Never mutate received elements: no attribute stores
                   on parameters typed ``Insert``/``Adjust``/``Element``
                   (or named ``element``) — elements are shared across
                   subscribers.
REP104   error     Classes declaring ``__slots__`` must not store
                   attributes outside them (``self.x = ...``,
                   ``object.__setattr__(self, "x", ...)``, or the
                   ``_set(self, "x", ...)`` idiom) — growing a
                   ``__dict__`` silently forfeits the slotted layout.
REP105   error     No bare ``print`` in library code under ``src/`` —
                   use the CLI surface or :mod:`repro.obs`.  CLI modules
                   (``__main__.py``, ``cli.py``) are exempt.
REP106   warning   No mutable default arguments (``def f(x=[])``).
REP107   error     Columnar hot paths must stay columnar: inside the
                   exchange handlers of engine/operators code
                   (``receive_columns``, ``emit_columns``,
                   ``partition_columns``), do not loop over a
                   ``ColumnBatch`` row by row — no ``for e in batch``
                   and no iteration over ``batch.to_elements()`` /
                   ``batch.elements_slice(...)``.  Walk the columns
                   (``batch.vs``/``batch.kinds``/``batch.runs()``) and
                   materialize only surviving rows.  The merge's
                   ``process_columns`` is the decode boundary and is
                   not a columnar handler.
REP109   error     Registry instrument lookups stay out of hot loops: a
                   ``registry.counter/gauge/histogram/timeseries(...)``
                   call inside a ``for``/``while`` body (or a
                   comprehension) in engine/lmerge/structures code pays a
                   dict lookup + label-key build per iteration — resolve
                   the handle once before the loop and call
                   ``.inc()``/``.set()``/``.observe()`` on it inside.
REP110   error     No blocking calls (bare lock ``.acquire()``, untimed
                   ring/queue ``.get()``, unbounded ``sleep``) inside
                   hot-path element handlers, nor anywhere between a
                   ring-slot reserve (binding a ``memoryview`` of ring
                   storage) and its commit/release — tracked through
                   branches by the CFG dataflow in
                   :mod:`repro.analysis.flow`.
REP112   error     Exception handlers in hot paths must not swallow
                   punctuation: an ``except`` wrapping a ``Stable`` emit
                   must re-raise or emit — silently dropping the stable
                   stalls every downstream frontier (REP102's dynamic
                   cousin, caught statically).
REP113   warning   Unused suppression: a ``# noqa: REPxxx`` comment
                   that names REP rules but suppresses no finding on its
                   line is dead and hides future regressions — remove
                   it.  Comments naming only foreign (ruff) codes are
                   ignored, as is bare ``# noqa``.
=======  ========  ====================================================

Suppression: append ``# noqa: REP104`` (or a bare ``# noqa``) to the
offending line.  Run via ``python -m repro.analysis lint <paths>``;
programmatic entry points are :func:`lint_source`, :func:`lint_file`, and
:func:`lint_paths` (or :func:`lint_paths_report` for findings plus the
shared-pass timing stats the CI budget assertion consumes).

Rules receive a :class:`repro.analysis.flow.ModuleContext`: one parse,
one node-type index, and one CFG per function, shared by every rule —
adding a rule does not add a traversal.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
)

from .flow import (
    ForwardAnalysis,
    ModuleContext,
    context_for_source,
    receiver_text,
    shallow_walk,
    statement_tree,
)

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: Module path fragments that count as merge-engine hot paths (REP101).
HOT_PATH_PARTS = (
    ("repro", "engine"),
    ("repro", "operators"),
    ("repro", "lmerge"),
)

#: Wall-clock call names (attribute or bare) REP101 flags.
WALL_CLOCK_ATTRS = {"time", "time_ns", "now", "utcnow", "today"}
WALL_CLOCK_ROOTS = {"time", "datetime", "date"}

#: Parameter annotations REP103 treats as shared stream elements.
ELEMENT_TYPES = {"Insert", "Adjust", "Stable", "Element"}

#: File names exempt from REP105 (they *are* the console surface).
PRINT_EXEMPT_FILES = {"__main__.py", "cli.py"}

_NOQA_RE = re.compile(
    r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE
)


@dataclass(frozen=True)
class Finding:
    """One lint hit."""

    path: str
    line: int
    col: int
    rule: str
    severity: str
    message: str

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} [{self.severity}] {self.message}"
        )

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }


@dataclass(frozen=True)
class Rule:
    """A lint rule: stable ID, severity, scope, and a context check.

    ``check`` receives the shared :class:`ModuleContext` — parse, node
    index, and CFGs are built once per module and reused across rules.
    ``detail`` is the long-form description the generated rule catalog
    in docs/ANALYSIS.md renders (see ``rules_markdown``).
    """

    id: str
    severity: str
    summary: str
    applies: Callable[[Path], bool]
    check: Callable[[ModuleContext], List["_RawFinding"]]
    detail: str = ""


@dataclass(frozen=True)
class _RawFinding:
    line: int
    col: int
    message: str


def _parts(path: Path) -> tuple:
    return tuple(part for part in path.as_posix().split("/") if part)


def _in_hot_path(path: Path) -> bool:
    parts = _parts(path)
    for fragment in HOT_PATH_PARTS:
        for i in range(len(parts) - len(fragment) + 1):
            if parts[i : i + len(fragment)] == fragment:
                return True
    return False


def _in_src(path: Path) -> bool:
    return "src" in _parts(path) or "repro" in _parts(path)


def _always(_path: Path) -> bool:
    return True


# ---------------------------------------------------------------------------
# REP101 — wall-clock reads in hot paths
# ---------------------------------------------------------------------------


def _wall_clock_aliases(ctx: ModuleContext) -> Set[str]:
    """Names bound by ``from time import time`` style imports."""
    aliases: Set[str] = set()
    for node in ctx.walk(ast.ImportFrom):
        if node.module in ("time", "datetime"):
            for alias in node.names:
                if alias.name in WALL_CLOCK_ATTRS:
                    aliases.add(alias.asname or alias.name)
    return aliases


def _attr_root(node: ast.expr) -> Optional[str]:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _check_wall_clock(ctx: ModuleContext) -> List[_RawFinding]:
    aliases = _wall_clock_aliases(ctx)
    findings: List[_RawFinding] = []
    for node in ctx.walk(ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in WALL_CLOCK_ATTRS
            and _attr_root(func) in WALL_CLOCK_ROOTS
        ):
            name = f"{_attr_root(func)}.{func.attr}"
        elif isinstance(func, ast.Name) and func.id in aliases:
            name = func.id
        else:
            continue
        findings.append(
            _RawFinding(
                node.lineno,
                node.col_offset,
                f"wall-clock read {name}() in a merge hot path; element "
                f"processing must be replayable (time.perf_counter is "
                f"allowed for measurement)",
            )
        )
    return findings


# ---------------------------------------------------------------------------
# REP102 — Operator subclasses must handle punctuation
# ---------------------------------------------------------------------------


def _base_name(base: ast.expr) -> Optional[str]:
    if isinstance(base, ast.Name):
        return base.id
    if isinstance(base, ast.Attribute):
        return base.attr
    return None


def _check_on_stable(ctx: ModuleContext) -> List[_RawFinding]:
    findings: List[_RawFinding] = []
    for node in ctx.walk(ast.ClassDef):
        if not any(_base_name(base) == "Operator" for base in node.bases):
            continue
        methods = {
            item.name
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        handles_data = methods & {"on_insert", "on_adjust", "receive_batch"}
        if not handles_data:
            continue  # output-only operator (source, bridge): no input
        if "on_stable" in methods or "receive" in methods:
            continue
        findings.append(
            _RawFinding(
                node.lineno,
                node.col_offset,
                f"Operator subclass {node.name!r} handles data elements "
                f"({', '.join(sorted(handles_data))}) but defines neither "
                f"on_stable nor receive — punctuation would be dropped "
                f"and downstream frontiers never advance",
            )
        )
    return findings


# ---------------------------------------------------------------------------
# REP103 — no mutation of received elements
# ---------------------------------------------------------------------------


def _annotation_name(annotation: Optional[ast.expr]) -> Optional[str]:
    if annotation is None:
        return None
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        return annotation.value.split(".")[-1].strip()
    return None


def _element_params(
    function: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> Set[str]:
    names: Set[str] = set()
    args = function.args
    for arg in [
        *args.posonlyargs,
        *args.args,
        *args.kwonlyargs,
    ]:
        annotated = _annotation_name(arg.annotation)
        if annotated in ELEMENT_TYPES or (
            annotated is None and arg.arg == "element"
        ):
            names.add(arg.arg)
    return names


def _check_element_mutation(ctx: ModuleContext) -> List[_RawFinding]:
    findings: List[_RawFinding] = []
    for function in ctx.walk(ast.FunctionDef, ast.AsyncFunctionDef):
        params = _element_params(function)
        if not params:
            continue
        for node in ast.walk(function):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in params
                ):
                    findings.append(
                        _RawFinding(
                            node.lineno,
                            node.col_offset,
                            f"mutation of received element parameter "
                            f"{target.value.id!r} "
                            f"({target.value.id}.{target.attr} = ...); "
                            f"elements are immutable and shared across "
                            f"subscribers — build a new element instead",
                        )
                    )
    return findings


# ---------------------------------------------------------------------------
# REP104 — slotted classes must not grow attributes
# ---------------------------------------------------------------------------


def _slot_names(node: ast.ClassDef) -> Optional[Set[str]]:
    """The literal ``__slots__`` of a class body, or None when absent."""
    for item in node.body:
        values: Optional[ast.expr] = None
        if isinstance(item, ast.Assign):
            if any(
                isinstance(t, ast.Name) and t.id == "__slots__"
                for t in item.targets
            ):
                values = item.value
        elif isinstance(item, ast.AnnAssign):
            if (
                isinstance(item.target, ast.Name)
                and item.target.id == "__slots__"
            ):
                values = item.value
        if values is None:
            continue
        if isinstance(values, (ast.Tuple, ast.List, ast.Set)):
            names = {
                el.value
                for el in values.elts
                if isinstance(el, ast.Constant) and isinstance(el.value, str)
            }
            return names
        if isinstance(values, ast.Constant) and isinstance(values.value, str):
            return {values.value}
        return None  # dynamic __slots__: not checkable
    return None


def _setattr_string_target(node: ast.Call) -> Optional[str]:
    """The attribute name of ``object.__setattr__(self, "name", ...)`` or
    ``_set(self, "name", ...)`` calls targeting ``self``."""
    func = node.func
    is_object_setattr = (
        isinstance(func, ast.Attribute)
        and func.attr == "__setattr__"
        and isinstance(func.value, ast.Name)
        and func.value.id == "object"
    )
    is_set_alias = isinstance(func, ast.Name) and func.id == "_set"
    if not (is_object_setattr or is_set_alias):
        return None
    if len(node.args) < 2:
        return None
    target, name = node.args[0], node.args[1]
    if not (isinstance(target, ast.Name) and target.id == "self"):
        return None
    if isinstance(name, ast.Constant) and isinstance(name.value, str):
        return name.value
    return None


def _check_slot_growth(ctx: ModuleContext) -> List[_RawFinding]:
    # Union slots along the (same-module) base chain so subclasses may
    # store into inherited slots.
    class_slots: Dict[str, Optional[Set[str]]] = {}
    class_bases: Dict[str, List[str]] = {}
    classes: List[ast.ClassDef] = list(ctx.walk(ast.ClassDef))
    for node in classes:
        class_slots[node.name] = _slot_names(node)
        class_bases[node.name] = [
            name
            for name in (_base_name(base) for base in node.bases)
            if name is not None
        ]

    def effective_slots(name: str, seen: Set[str]) -> Optional[Set[str]]:
        if name in seen or name not in class_slots:
            # Base outside this module: unknown layout, skip the class.
            return None
        seen.add(name)
        own = class_slots[name]
        if own is None:
            return None
        merged = set(own)
        for base in class_bases[name]:
            if base == "object":
                continue
            inherited = effective_slots(base, seen)
            if inherited is None:
                return None
            merged |= inherited
        return merged

    findings: List[_RawFinding] = []
    for node in classes:
        if class_slots.get(node.name) is None:
            continue
        slots = effective_slots(node.name, set())
        if slots is None:
            continue
        for sub in ast.walk(node):
            attr: Optional[str] = None
            line, col = 0, 0
            if isinstance(sub, ast.Assign):
                for target in sub.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        attr, line, col = (
                            target.attr,
                            sub.lineno,
                            sub.col_offset,
                        )
            elif isinstance(sub, ast.Call):
                named = _setattr_string_target(sub)
                if named is not None:
                    attr, line, col = named, sub.lineno, sub.col_offset
            if attr is not None and attr not in slots:
                findings.append(
                    _RawFinding(
                        line,
                        col,
                        f"attribute {attr!r} stored outside __slots__ of "
                        f"{node.name!r}; slotted element classes must not "
                        f"grow __dict__ entries",
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# REP105 — no bare print in library code
# ---------------------------------------------------------------------------


def _print_applies(path: Path) -> bool:
    return _in_src(path) and path.name not in PRINT_EXEMPT_FILES


def _check_print(ctx: ModuleContext) -> List[_RawFinding]:
    findings: List[_RawFinding] = []
    for node in ctx.walk(ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            findings.append(
                _RawFinding(
                    node.lineno,
                    node.col_offset,
                    "bare print() in library code; route output through "
                    "the CLI layer or repro.obs",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# REP106 — mutable default arguments
# ---------------------------------------------------------------------------

_MUTABLE_CALLS = {"list", "dict", "set"}


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_CALLS
        and not node.args
        and not node.keywords
    )


def _check_mutable_default(ctx: ModuleContext) -> List[_RawFinding]:
    findings: List[_RawFinding] = []
    for function in ctx.walk(ast.FunctionDef, ast.AsyncFunctionDef):
        defaults = list(function.args.defaults) + [
            d for d in function.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                findings.append(
                    _RawFinding(
                        default.lineno,
                        default.col_offset,
                        f"mutable default argument in {function.name}(); "
                        f"shared across calls — default to None and build "
                        f"inside",
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# REP107 — columnar hot paths must not fall back to per-element loops
# ---------------------------------------------------------------------------

#: Hot-path handler names whose bodies REP107 inspects.
COLUMNAR_HOT_FUNCS = {
    "receive_columns",
    "emit_columns",
    "partition_columns",
}

#: ColumnBatch boundary converters whose results must not be looped over
#: inside a hot handler.
_BOUNDARY_CONVERTERS = {"to_elements", "elements_slice"}


def _batch_params(
    function: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> Set[str]:
    """Parameters of *function* that carry a ColumnBatch: annotated
    ``ColumnBatch``, or (in the columnar handlers) simply named ``batch``."""
    names: Set[str] = set()
    args = function.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        annotated = _annotation_name(arg.annotation)
        if annotated == "ColumnBatch" or (
            annotated is None and arg.arg == "batch"
        ):
            names.add(arg.arg)
    return names


def _check_columnar_loops(ctx: ModuleContext) -> List[_RawFinding]:
    findings: List[_RawFinding] = []
    for function in ctx.walk(ast.FunctionDef, ast.AsyncFunctionDef):
        if function.name not in COLUMNAR_HOT_FUNCS:
            continue
        params = _batch_params(function)
        if not params:
            continue
        for node in ast.walk(function):
            iterables: List[ast.expr] = []
            if isinstance(node, ast.For):
                iterables = [node.iter]
            elif isinstance(
                node,
                (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp),
            ):
                iterables = [generator.iter for generator in node.generators]
            for iterable in iterables:
                if isinstance(iterable, ast.Name) and iterable.id in params:
                    what = f"for ... in {iterable.id}"
                elif (
                    isinstance(iterable, ast.Call)
                    and isinstance(iterable.func, ast.Attribute)
                    and iterable.func.attr in _BOUNDARY_CONVERTERS
                    and _attr_root(iterable.func) in params
                ):
                    root = _attr_root(iterable.func)
                    what = f"for ... in {root}.{iterable.func.attr}(...)"
                else:
                    continue
                findings.append(
                    _RawFinding(
                        iterable.lineno,
                        iterable.col_offset,
                        f"per-element loop over a ColumnBatch ({what}) in "
                        f"hot handler {function.name}(); walk the columns "
                        f"(batch.vs/batch.kinds/batch.runs()) and "
                        f"materialize only surviving rows",
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# REP109 — registry instrument lookups stay out of hot loops
# ---------------------------------------------------------------------------

#: Module path fragments REP109 patrols: the merge hot paths that meet
#: the <5% disabled-overhead budget.  obs/ and resilience/ are exempt —
#: observers and recovery code run at sampling cadence, not per element.
REGISTRY_LOOP_PARTS = (
    ("repro", "engine"),
    ("repro", "lmerge"),
    ("repro", "structures"),
)

#: MetricRegistry factory methods: each call is a labels-key build plus a
#: dict lookup (get-or-create), cheap once but not per loop iteration.
REGISTRY_FACTORY_METHODS = {"counter", "gauge", "histogram", "timeseries"}


def _in_registry_loop_scope(path: Path) -> bool:
    parts = _parts(path)
    for fragment in REGISTRY_LOOP_PARTS:
        for i in range(len(parts) - len(fragment) + 1):
            if parts[i : i + len(fragment)] == fragment:
                return True
    return False


def _is_registry_receiver(node: ast.expr) -> bool:
    """True when *node* is the object a factory call is made on and it
    looks like a registry (``registry.counter``, ``self.registry.gauge``,
    ``self._registry.histogram``)."""
    if isinstance(node, ast.Name):
        return "registry" in node.id.lower()
    if isinstance(node, ast.Attribute):
        return "registry" in node.attr.lower()
    return False


def _registry_factory_calls(root: ast.AST) -> List[ast.Call]:
    calls: List[ast.Call] = []
    for node in ast.walk(root):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in REGISTRY_FACTORY_METHODS
            and _is_registry_receiver(node.func.value)
        ):
            calls.append(node)
    return calls


def _check_registry_in_loop(ctx: ModuleContext) -> List[_RawFinding]:
    findings: List[_RawFinding] = []
    seen: Set[tuple] = set()  # nested loops: report each call once

    def report(call: ast.Call, where: str) -> None:
        key = (call.lineno, call.col_offset)
        if key in seen:
            return
        seen.add(key)
        findings.append(
            _RawFinding(
                call.lineno,
                call.col_offset,
                f"registry.{call.func.attr}(...) inside {where}: the "  # type: ignore[union-attr]
                f"get-or-create lookup rebuilds the labels key every "
                f"iteration — resolve the instrument handle before the "
                f"loop and call .inc()/.set()/.observe() on it inside",
            )
        )

    for node in ctx.walk(ast.For, ast.AsyncFor, ast.While):
        kind = "a while loop" if isinstance(node, ast.While) else "a for loop"
        for stmt in [*node.body, *node.orelse]:
            for call in _registry_factory_calls(stmt):
                report(call, kind)
    for node in ctx.walk(
        ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp
    ):
        for call in _registry_factory_calls(node):
            report(call, "a comprehension")
    return findings


# ---------------------------------------------------------------------------
# REP110 — no blocking calls in hot handlers or reserve→commit windows
# ---------------------------------------------------------------------------

#: Per-element delivery handlers: code on the element path, where one
#: blocked call stalls the whole shard.  Top-level worker loops
#: (``_shard_loop`` etc.) are *not* handlers — their blocking ``get`` on
#: an idle in-ring is the design.
HOT_HANDLER_NAMES = {
    "receive",
    "receive_batch",
    "receive_columns",
    "process",
    "process_batch",
    "process_columns",
    "on_insert",
    "on_adjust",
    "on_stable",
    "emit",
    "emit_batch",
    "emit_columns",
    "_insert",
    "_adjust",
    "_stable",
    "_insert_batch",
    "_adjust_batch",
    "_stable_batch",
}

#: Receiver-name fragments identifying a lock-like object whose
#: ``.acquire()`` blocks.
_LOCK_RECEIVER_HINTS = ("lock", "mutex", "sem", "cond")

#: Receiver-name fragments identifying a channel whose zero-argument
#: ``.get()`` blocks until a peer produces.
_CHANNEL_RECEIVER_HINTS = ("ring", "queue")


def _blocking_reason(node: ast.Call) -> Optional[str]:
    """Why *node* is a potentially unbounded blocking call, or None."""
    func = node.func
    if isinstance(func, ast.Attribute):
        receiver = receiver_text(func.value)
        if func.attr == "acquire" and any(
            hint in receiver for hint in _LOCK_RECEIVER_HINTS
        ):
            has_bound = any(k.arg == "timeout" for k in node.keywords) or any(
                k.arg == "blocking"
                and isinstance(k.value, ast.Constant)
                and k.value.value is False
                for k in node.keywords
            )
            if not has_bound:
                return f"{receiver}.acquire() without timeout/blocking=False"
        if func.attr == "get" and any(
            hint in receiver for hint in _CHANNEL_RECEIVER_HINTS
        ):
            has_timeout = bool(node.args) or any(
                k.arg == "timeout" for k in node.keywords
            )
            if not has_timeout:
                return f"untimed {receiver}.get()"
        if func.attr == "sleep" and node.args:
            if not isinstance(node.args[0], ast.Constant):
                return "sleep() with a non-constant duration"
    elif isinstance(func, ast.Name) and func.id == "sleep" and node.args:
        if not isinstance(node.args[0], ast.Constant):
            return "sleep() with a non-constant duration"
    return None


class _ReserveWindow(ForwardAnalysis):
    """Dataflow: is a reserved-but-uncommitted ring slot live here?

    Reserve = binding the result of a ``memoryview(...)`` call (the
    zero-copy encode window ``ShmRing.put_frame`` hands out); commit =
    releasing the view or publishing the tail (``.release()`` /
    ``pack_into``).  The state is the set of live view names — a
    blocking call while it is non-empty stalls the ring slot itself.
    """

    def initial(self) -> FrozenSet[str]:
        return frozenset()

    def join(self, a: FrozenSet[str], b: FrozenSet[str]) -> FrozenSet[str]:
        return a | b

    def transfer(
        self, state: FrozenSet[str], statement: ast.stmt
    ) -> FrozenSet[str]:
        live = set(state)
        for node in shallow_walk(statement):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr in (
                    "release",
                    "pack_into",
                ):
                    root = receiver_text(func.value)
                    live.discard(root.split(".")[0])
                    if func.attr == "pack_into":
                        live.clear()  # tail publish commits the frame
                elif (
                    isinstance(func, ast.Name) and func.id == "pack_into"
                ):
                    live.clear()  # bare `from struct import pack_into`
        if isinstance(statement, ast.Assign):
            value = statement.value
            # Unwrap slicing: ``memoryview(buf)[a:b]`` reserves too.
            while isinstance(value, ast.Subscript):
                value = value.value
            is_view = (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "memoryview"
            )
            if is_view:
                for target in statement.targets:
                    if isinstance(target, ast.Name):
                        live.add(target.id)
        return frozenset(live)


def _check_blocking_calls(ctx: ModuleContext) -> List[_RawFinding]:
    findings: List[_RawFinding] = []
    for info in ctx.functions:
        function = info.node
        in_handler = function.name in HOT_HANDLER_NAMES
        # Cheap pre-scan: functions with no memoryview binding cannot
        # open a reserve window, so skip the CFG entirely unless this is
        # a handler (whose whole body is checked anyway).
        has_view = any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "memoryview"
            for node in ast.walk(function)
        )
        if not in_handler and not has_view:
            continue
        statement_in: Dict[int, FrozenSet[str]] = {}
        if has_view:
            cfg = ctx.cfg(function)
            _, statement_in = _ReserveWindow().run(cfg)
            statements = [
                statement
                for block in cfg.blocks
                for statement in block.statements
            ]
        else:
            statements = statement_tree(function.body)
        for statement in statements:
            window = statement_in.get(id(statement), frozenset())
            for node in shallow_walk(statement):
                if not isinstance(node, ast.Call):
                    continue
                reason = _blocking_reason(node)
                if reason is None:
                    continue
                if window:
                    findings.append(
                        _RawFinding(
                            node.lineno,
                            node.col_offset,
                            f"blocking call ({reason}) while ring slot "
                            f"view {sorted(window)[0]!r} is reserved but "
                            f"not committed — the consumer cannot pass "
                            f"the unpublished frame",
                        )
                    )
                elif in_handler:
                    findings.append(
                        _RawFinding(
                            node.lineno,
                            node.col_offset,
                            f"blocking call ({reason}) inside hot-path "
                            f"handler {function.name}(); one stalled "
                            f"element stalls the shard — bound the wait "
                            f"and surface backpressure instead",
                        )
                    )
    return findings


# ---------------------------------------------------------------------------
# REP112 — except handlers must not swallow punctuation
# ---------------------------------------------------------------------------


def _is_punctuation_emit(node: ast.AST) -> bool:
    """A call that emits a Stable downstream: ``emit(Stable(...))``,
    ``receive(Stable(...))``, ``sink(Stable(...))``, or the dedicated
    helpers ``_output_stable`` / ``_emit_stable`` / ``emit_stable``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = None
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    if name in ("_output_stable", "_emit_stable", "emit_stable"):
        return True
    if name in ("emit", "receive", "sink", "_emit"):
        for argument in node.args:
            if (
                isinstance(argument, ast.Call)
                and isinstance(argument.func, ast.Name)
                and argument.func.id == "Stable"
            ):
                return True
    return False


def _contains_punctuation_emit(statements: Iterable[ast.stmt]) -> bool:
    for statement in statement_tree(statements):
        for node in shallow_walk(statement):
            if _is_punctuation_emit(node):
                return True
    return False


def _handler_reraises_or_emits(handler: ast.ExceptHandler) -> bool:
    for statement in statement_tree(handler.body):
        if isinstance(statement, ast.Raise):
            return True
        for node in shallow_walk(statement):
            if _is_punctuation_emit(node):
                return True
    return False


def _check_swallowed_punctuation(ctx: ModuleContext) -> List[_RawFinding]:
    findings: List[_RawFinding] = []
    for node in ctx.walk(ast.Try):
        if not _contains_punctuation_emit(node.body):
            continue
        for handler in node.handlers:
            if _handler_reraises_or_emits(handler):
                continue
            caught = (
                ast.unparse(handler.type)
                if handler.type is not None
                else "BaseException"
            )
            findings.append(
                _RawFinding(
                    handler.lineno,
                    handler.col_offset,
                    f"except {caught} wraps a Stable emit but neither "
                    f"re-raises nor emits punctuation; swallowing the "
                    f"stable stalls every downstream frontier — re-raise "
                    f"or emit the punctuation in the handler",
                )
            )
    return findings


def _check_no_op(_ctx: ModuleContext) -> List[_RawFinding]:
    """REP113 is evaluated by the driver (it needs the pre-suppression
    finding set across all rules); the registry entry carries its
    metadata for the catalog and CLI."""
    return []


RULES: Dict[str, Rule] = {
    rule.id: rule
    for rule in (
        Rule(
            id="REP101",
            severity=SEVERITY_ERROR,
            summary="no wall-clock reads in engine/operators/lmerge",
            applies=_in_hot_path,
            check=_check_wall_clock,
            detail="no wall-clock reads (`time.time`, `datetime.now`, "
            "...) in `repro/engine`, `repro/operators`, `repro/lmerge` "
            "hot paths (`perf_counter` for measurement is fine)",
        ),
        Rule(
            id="REP102",
            severity=SEVERITY_ERROR,
            summary="data-handling Operator subclasses must define "
            "on_stable or receive",
            applies=_always,
            check=_check_on_stable,
            detail="data-handling `Operator` subclasses (defining "
            "`on_insert`/`on_adjust`/`receive_batch`) must also define "
            "`on_stable` or `receive` — swallowing punctuation stalls "
            "every downstream consumer",
        ),
        Rule(
            id="REP103",
            severity=SEVERITY_ERROR,
            summary="no mutation of received Insert/Adjust/Element params",
            applies=_always,
            check=_check_element_mutation,
            detail="no mutation of received `Insert`/`Adjust`/`Element` "
            "parameters — elements are shared, immutable values; "
            "rebuild instead",
        ),
        Rule(
            id="REP104",
            severity=SEVERITY_ERROR,
            summary="slotted classes must not grow attributes",
            applies=_always,
            check=_check_slot_growth,
            detail="classes with `__slots__` must not assign attributes "
            "outside the slot set (including via `object.__setattr__` / "
            "`_set` aliases)",
        ),
        Rule(
            id="REP105",
            severity=SEVERITY_ERROR,
            summary="no bare print() in src/ library code",
            applies=_print_applies,
            check=_check_print,
            detail="no bare `print()` in `src/` library code (CLI "
            "modules `__main__.py`/`cli.py` exempt)",
        ),
        Rule(
            id="REP106",
            severity=SEVERITY_WARNING,
            summary="no mutable default arguments",
            applies=_always,
            check=_check_mutable_default,
            detail="no mutable default arguments",
        ),
        Rule(
            id="REP107",
            severity=SEVERITY_ERROR,
            summary="no per-element loops over ColumnBatch in columnar "
            "hot handlers",
            applies=_in_hot_path,
            check=_check_columnar_loops,
            detail="columnar exchange handlers (`receive_columns`, "
            "`emit_columns`, `partition_columns`) must not loop "
            "over a `ColumnBatch` row by row — walk the columns and "
            "materialize only surviving rows",
        ),
        Rule(
            id="REP109",
            severity=SEVERITY_ERROR,
            summary="no registry instrument lookups inside "
            "engine/lmerge/structures loops",
            applies=_in_registry_loop_scope,
            check=_check_registry_in_loop,
            detail="no registry instrument lookups "
            "(`registry.counter/gauge/histogram/timeseries(...)`) "
            "inside `for`/`while` loops or comprehensions in "
            "`repro/engine`, `repro/lmerge`, `repro/structures` — the "
            "get-or-create lookup rebuilds the labels key per "
            "iteration; resolve the handle once before the loop and "
            "call `.inc()`/`.set()`/`.observe()` inside",
        ),
        Rule(
            id="REP110",
            severity=SEVERITY_ERROR,
            summary="no blocking calls in hot handlers or between "
            "ring-slot reserve and commit",
            applies=_in_hot_path,
            check=_check_blocking_calls,
            detail="no blocking calls (bare lock `.acquire()`, untimed "
            "ring/queue `.get()`, `sleep` with a non-constant duration) "
            "inside hot-path element handlers, nor anywhere between "
            "reserving a ring-slot `memoryview` and committing it — "
            "one blocked element handler stalls the whole shard, and a "
            "blocked reserve stalls the ring's consumer too (CFG "
            "dataflow tracks the window across branches)",
        ),
        Rule(
            id="REP112",
            severity=SEVERITY_ERROR,
            summary="except handlers around Stable emits must re-raise "
            "or emit",
            applies=_in_hot_path,
            check=_check_swallowed_punctuation,
            detail="no exception handler in a hot path may swallow "
            "punctuation: an `except` whose `try` body emits a "
            "`Stable` must re-raise or itself emit — dropping the "
            "stable silently stalls every downstream frontier",
        ),
        Rule(
            id="REP113",
            severity=SEVERITY_WARNING,
            summary="no unused # noqa: REPxxx suppressions",
            applies=_always,
            check=_check_no_op,
            detail="a `# noqa: REPxxx` comment whose named REP rules "
            "suppress no finding on that line is dead — remove it "
            "(checked by the lint driver against the pre-suppression "
            "finding set; bare `# noqa` and foreign ruff codes are "
            "left to ruff)",
        ),
    )
}


def _suppressed(source_line: str, rule_id: str) -> bool:
    match = _NOQA_RE.search(source_line)
    if not match:
        return False
    codes = match.group("codes")
    if not codes:
        return True  # bare `# noqa` silences everything on the line
    return rule_id.upper() in {
        code.strip().upper() for code in codes.split(",")
    }


_REP_CODE_RE = re.compile(r"^REP\d+$")


def _noqa_comments(source: str) -> List[tuple]:
    """Actual ``# noqa`` COMMENT tokens as ``(line, col, codes)``.

    Tokenizing (rather than scanning raw lines) keeps noqa-shaped text
    inside docstrings and string fixtures from looking like
    suppressions."""
    import io
    import tokenize

    comments = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _NOQA_RE.search(token.string)
            if match:
                comments.append(
                    (token.start[0], token.start[1], match.group("codes"))
                )
    except tokenize.TokenizeError:  # pragma: no cover - REP100 owns this
        pass
    return comments


def _unused_noqa_findings(
    source: str, hits_by_line: Dict[int, Set[str]]
) -> List[Finding]:
    """REP113: ``# noqa`` comments naming REP codes none of which
    suppressed a finding on their line.  *hits_by_line* maps line number
    to the rule IDs that produced (pre-suppression) findings there.
    Bare ``# noqa`` and comments naming only foreign codes are ruff's
    jurisdiction and are left alone."""
    findings: List[Finding] = []
    for line, col, raw_codes in _noqa_comments(source):
        if not raw_codes:
            continue
        codes = [
            code.strip().upper()
            for code in raw_codes.split(",")
            if code.strip()
        ]
        rep_codes = [code for code in codes if _REP_CODE_RE.match(code)]
        if not rep_codes:
            continue
        hits = hits_by_line.get(line, set())
        if any(code in hits for code in rep_codes):
            continue
        findings.append(
            Finding(
                path="",  # filled by the caller
                line=line,
                col=col,
                rule="REP113",
                severity=SEVERITY_WARNING,
                message=f"unused suppression: # noqa: "
                f"{', '.join(rep_codes)} suppresses nothing on this "
                f"line — remove it",
            )
        )
    return findings


@dataclass
class LintStats:
    """Shared-pass accounting across one lint run.

    ``parse_seconds``/``cfg_seconds`` measure the *single* parse and the
    cached CFG builds per module; ``rule_seconds`` is everything the
    rule bodies spent on the shared context.  The CI analysis job
    asserts a wall-clock budget over these, and ``cfg_functions`` being
    far below ``files × rules`` is the evidence the AST/CFG pass is
    cached, not rebuilt per rule.
    """

    files: int = 0
    rules: int = 0
    parse_seconds: float = 0.0
    cfg_seconds: float = 0.0
    rule_seconds: float = 0.0
    cfg_functions: int = 0

    def to_json(self) -> Dict[str, Any]:
        return {
            "files": self.files,
            "rules": self.rules,
            "parse_seconds": round(self.parse_seconds, 6),
            "cfg_seconds": round(self.cfg_seconds, 6),
            "rule_seconds": round(self.rule_seconds, 6),
            "cfg_functions": self.cfg_functions,
            "parses_per_file": 1,
        }


@dataclass
class LintReport:
    """Findings plus the shared-pass stats for one lint run."""

    findings: List[Finding]
    stats: LintStats


def _lint_context(
    ctx: ModuleContext,
    rules: Optional[Iterable[str]],
    stats: Optional[LintStats],
) -> List[Finding]:
    from time import perf_counter

    selected = (
        [RULES[rule_id] for rule_id in rules]
        if rules is not None
        else list(RULES.values())
    )
    location = Path(ctx.path)
    findings: List[Finding] = []
    hits_by_line: Dict[int, Set[str]] = {}
    started = perf_counter()
    for rule in selected:
        if not rule.applies(location):
            continue
        for raw in rule.check(ctx):
            hits_by_line.setdefault(raw.line, set()).add(rule.id)
            source_line = (
                ctx.lines[raw.line - 1]
                if 0 < raw.line <= len(ctx.lines)
                else ""
            )
            if _suppressed(source_line, rule.id):
                continue
            findings.append(
                Finding(
                    path=ctx.path,
                    line=raw.line,
                    col=raw.col,
                    rule=rule.id,
                    severity=rule.severity,
                    message=raw.message,
                )
            )
    # REP113 needs the full pre-suppression hit map, so it only runs
    # when every rule did (a filtered run would see false "unused").
    if rules is None:
        for finding in _unused_noqa_findings(ctx.source, hits_by_line):
            findings.append(
                Finding(
                    path=ctx.path,
                    line=finding.line,
                    col=finding.col,
                    rule=finding.rule,
                    severity=finding.severity,
                    message=finding.message,
                )
            )
    elapsed = perf_counter() - started
    if stats is not None:
        stats.files += 1
        stats.rules = len(selected)
        stats.parse_seconds += ctx.parse_seconds
        stats.cfg_seconds += ctx.cfg_seconds
        stats.rule_seconds += max(0.0, elapsed - ctx.cfg_seconds)
        stats.cfg_functions += ctx.cfg_builds
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Iterable[str]] = None,
    stats: Optional[LintStats] = None,
) -> List[Finding]:
    """Lint one module's source; *path* scopes path-dependent rules."""
    try:
        ctx = context_for_source(source, path)
    except SyntaxError as exc:
        if stats is not None:
            stats.files += 1
        return [
            Finding(
                path=path,
                line=exc.lineno or 0,
                col=exc.offset or 0,
                rule="REP100",
                severity=SEVERITY_ERROR,
                message=f"syntax error: {exc.msg}",
            )
        ]
    return _lint_context(ctx, rules, stats)


def lint_file(
    path: "Path | str",
    rules: Optional[Iterable[str]] = None,
    stats: Optional[LintStats] = None,
) -> List[Finding]:
    location = Path(path)
    return lint_source(
        location.read_text(encoding="utf-8"),
        path=location.as_posix(),
        rules=rules,
        stats=stats,
    )


def iter_python_files(paths: Sequence["Path | str"]) -> List[Path]:
    files: List[Path] = []
    for entry in paths:
        location = Path(entry)
        if location.is_dir():
            files.extend(sorted(location.rglob("*.py")))
        elif location.suffix == ".py":
            files.append(location)
    return files


def lint_paths(
    paths: Sequence["Path | str"], rules: Optional[Iterable[str]] = None
) -> List[Finding]:
    """Lint every ``.py`` file under *paths* (files or directories)."""
    return lint_paths_report(paths, rules=rules).findings


def lint_paths_report(
    paths: Sequence["Path | str"], rules: Optional[Iterable[str]] = None
) -> LintReport:
    """Like :func:`lint_paths`, but also returns the shared-pass stats."""
    stats = LintStats()
    findings: List[Finding] = []
    for file in iter_python_files(paths):
        findings.extend(lint_file(file, rules=rules, stats=stats))
    return LintReport(findings=findings, stats=stats)


# ---------------------------------------------------------------------------
# Rule catalog rendering (docs/ANALYSIS.md is generated from this)
# ---------------------------------------------------------------------------

#: Markers delimiting the generated table inside docs/ANALYSIS.md.
CATALOG_BEGIN = "<!-- rule-catalog:begin (generated by"
CATALOG_BEGIN_LINE = (
    "<!-- rule-catalog:begin (generated by `python -m repro.analysis "
    "rules --write-docs`; do not edit by hand) -->"
)
CATALOG_END_LINE = "<!-- rule-catalog:end -->"


def rules_markdown() -> str:
    """The rule catalog as a markdown table, from the live registry."""
    lines = ["| rule | severity | meaning |", "|---|---|---|"]
    for rule_id in sorted(RULES):
        rule = RULES[rule_id]
        meaning = rule.detail or rule.summary
        lines.append(f"| {rule.id} | {rule.severity} | {meaning} |")
    return "\n".join(lines)


def render_docs_catalog(document: str) -> str:
    """Replace the marked catalog region of *document* with the current
    registry table.  Raises ValueError when the markers are missing —
    the docs file must opt in once."""
    begin = document.find(CATALOG_BEGIN)
    end = document.find(CATALOG_END_LINE)
    if begin < 0 or end < 0 or end < begin:
        raise ValueError(
            "docs file lacks rule-catalog markers "
            f"({CATALOG_BEGIN_LINE!r} ... {CATALOG_END_LINE!r})"
        )
    head = document[:begin]
    tail = document[end + len(CATALOG_END_LINE) :]
    table = (
        CATALOG_BEGIN_LINE + "\n" + rules_markdown() + "\n" + CATALOG_END_LINE
    )
    return head + table + tail
