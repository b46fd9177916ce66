"""Repo-specific AST lint: engine invariants as checkable rules.

Generic linters cannot know that ``repro`` operators must be replayable
(no wall-clock reads in hot paths), that punctuation handling is
mandatory, or that a columnar handler must not fall back to a per-row
loop.  This module encodes those invariants as AST rules with stable
IDs; :data:`RULES` is the registry, and each entry's ``summary`` is the
one description the CLI and the generated catalog in docs/ANALYSIS.md
print.  Section 3 of that file also records, per rule, the live code it
inspects and why a test cannot stand in for it; a rule without live
subjects is deleted, and its id is not reused.

Suppression: append ``# noqa: REP106`` (or a bare ``# noqa``) to the
offending line.  Run via ``python -m repro.analysis lint <paths>``;
programmatic entry points are :func:`lint_source`, :func:`lint_file` and
:func:`lint_paths`.

Rules receive a :class:`repro.analysis.flow.ModuleContext`: one parse
and one node-type index per module, shared by every rule — adding a
rule does not add a traversal.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .flow import ModuleContext, context_for_source

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

    ``check`` receives the shared :class:`ModuleContext` — the parse and
    the node index are built once per module and reused across rules.
    ``summary`` is the rule's one description: ``rules`` prints it and
    the catalog in docs/ANALYSIS.md is generated from it.
    """

    id: str
    severity: str
    summary: str
    applies: Callable[[Path], bool]
    check: Callable[[ModuleContext], List["_RawFinding"]]


@dataclass(frozen=True)
class _RawFinding:
    line: int
    col: int
    message: str


def _parts(path: Path) -> tuple:
    return tuple(part for part in path.as_posix().split("/") if part)


def _under(path: Path, fragments: Sequence[Tuple[str, ...]]) -> bool:
    """True when *path* contains one of the directory *fragments*."""
    parts = _parts(path)
    for fragment in fragments:
        for i in range(len(parts) - len(fragment) + 1):
            if parts[i : i + len(fragment)] == fragment:
                return True
    return False


def _in_hot_path(path: Path) -> bool:
    return _under(path, HOT_PATH_PARTS)


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
    return _under(path, REGISTRY_LOOP_PARTS)


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
            summary="no wall-clock reads (`time.time`, `datetime.now`, "
            "...) in `repro/engine`, `repro/operators`, `repro/lmerge` "
            "hot paths (`perf_counter` for measurement is fine)",
            applies=_in_hot_path,
            check=_check_wall_clock,
        ),
        Rule(
            id="REP102",
            severity=SEVERITY_ERROR,
            summary="data-handling `Operator` subclasses (defining "
            "`on_insert`/`on_adjust`/`receive_batch`) must also define "
            "`on_stable` or `receive` — swallowing punctuation stalls "
            "every downstream consumer",
            applies=_always,
            check=_check_on_stable,
        ),
        Rule(
            id="REP105",
            severity=SEVERITY_ERROR,
            summary="no bare `print()` in `src/` library code (CLI "
            "modules `__main__.py`/`cli.py` exempt)",
            applies=_print_applies,
            check=_check_print,
        ),
        Rule(
            id="REP106",
            severity=SEVERITY_WARNING,
            summary="no mutable default arguments",
            applies=_always,
            check=_check_mutable_default,
        ),
        Rule(
            id="REP107",
            severity=SEVERITY_ERROR,
            summary="columnar exchange handlers (`receive_columns`, "
            "`emit_columns`, `partition_columns`) must not loop "
            "over a `ColumnBatch` row by row — walk the columns and "
            "materialize only surviving rows",
            applies=_in_hot_path,
            check=_check_columnar_loops,
        ),
        Rule(
            id="REP109",
            severity=SEVERITY_ERROR,
            summary="no registry instrument lookups "
            "(`registry.counter/gauge/histogram/timeseries(...)`) "
            "inside `for`/`while` loops or comprehensions in "
            "`repro/engine`, `repro/lmerge`, `repro/structures` — the "
            "get-or-create lookup rebuilds the labels key per "
            "iteration; resolve the handle once before the loop and "
            "call `.inc()`/`.set()`/`.observe()` inside",
            applies=_in_registry_loop_scope,
            check=_check_registry_in_loop,
        ),
        Rule(
            id="REP113",
            severity=SEVERITY_WARNING,
            summary="a `# noqa: REPxxx` comment whose named REP rules "
            "suppress no finding on that line is dead — remove it "
            "(checked by the lint driver against the pre-suppression "
            "finding set; bare `# noqa` and foreign ruff codes are "
            "left to ruff)",
            applies=_always,
            check=_check_no_op,
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


def _lint_context(
    ctx: ModuleContext, rules: Optional[Iterable[str]]
) -> List[Finding]:
    selected = (
        [RULES[rule_id] for rule_id in rules]
        if rules is not None
        else list(RULES.values())
    )
    location = Path(ctx.path)
    findings: List[Finding] = []
    hits_by_line: Dict[int, Set[str]] = {}
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
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Lint one module's source; *path* scopes path-dependent rules."""
    try:
        ctx = context_for_source(source, path)
    except SyntaxError as exc:
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
    return _lint_context(ctx, rules)


def lint_file(
    path: "Path | str", rules: Optional[Iterable[str]] = None
) -> List[Finding]:
    location = Path(path)
    return lint_source(
        location.read_text(encoding="utf-8"),
        path=location.as_posix(),
        rules=rules,
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
    findings: List[Finding] = []
    for file in iter_python_files(paths):
        findings.extend(lint_file(file, rules=rules))
    return findings


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
        lines.append(f"| {rule.id} | {rule.severity} | {rule.summary} |")
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
