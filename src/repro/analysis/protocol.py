"""Static verification of ShmRing call sites against the frame protocol.

:data:`repro.engine.shm.FRAME_PROTOCOL` declares, per frame kind, who
may produce it (driver or worker), whether it is terminal, and the put
discipline it requires (blocking / bounded / best-effort).  This module
finds every ring ``put`` / ``put_pickle`` / ``put_frame`` / ``get``
call in a set of Python files and checks it against that table,
reporting a site-level verdict per call the way ``check_plan`` reports
one per merge site.

What counts as a ring site
    A call whose receiver's dotted name contains ``ring`` (``out_ring``,
    ``self._out_rings[shard]``, ...), or any call whose first argument
    resolves to a declared frame-kind constant (``shm_rings.TELEM``, a
    bare ``DONE``, or the literal byte).  ``store.put(key, ...)`` — the
    StateStore — matches neither and is skipped.

Role inference
    Frame producers are identified by the code that calls them, not by
    annotations: a module-level function whose name contains
    ``shard_loop``/``worker`` (or that takes ``in_ring``/``out_ring``
    parameters) runs in the worker — in this repo that is one function,
    ``engine.parallel._ring_shard_loop``; a method of a ``*Runtime`` /
    ``*Supervisor`` class (``ParallelRuntime``, ``SupervisedRuntime``)
    runs in the driver.  A put wrapped in a ``lambda:`` for a retry
    helper is still a literal call and is attributed to the method that
    builds the lambda.  Sites whose role cannot be inferred get an
    ``unknown-role`` warning instead of silently passing.

Checks per put site
    * the frame kind is declared in the protocol;
    * the producing role matches the spec (a worker emitting CTRL is
      the canonical violation);
    * the discipline holds: ``best_effort`` requires a literal
      ``timeout=0``; ``bounded`` requires a finite timeout argument
      (any expression — configs are fine — but not ``None``);
      ``blocking`` sites may block by design (OUT backpressure, DONE);
    * terminality: from a terminal put (DONE/ERR), no **non-terminal**
      put on the same ring may be reachable in the CFG.  ERR after DONE
      stays legal — the exception path is itself terminal.

Checks per get site
    The driver multiplexes many rings, so a driver-side ``get`` must be
    bounded (pass a timeout).  Worker loops own exactly one inbound
    ring and may block on it — their liveness probe handles a dead
    driver.

Every verdict (including the passing ones) lands in the JSON report, so
"zero violations" is distinguishable from "found zero sites".
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro.engine.shm as shm_rings

from .flow import (
    CFG,
    ModuleContext,
    context_for_source,
    keyword_value,
    receiver_text,
    shallow_walk,
    statement_tree,
)

__all__ = [
    "ProtocolReport",
    "RingSite",
    "verify_paths",
    "verify_source",
    "DEFAULT_PROTOCOL_PATHS",
]

#: The modules that currently speak the ring protocol; the CLI default.
DEFAULT_PROTOCOL_PATHS = (
    "src/repro/engine/parallel.py",
    "src/repro/resilience/supervisor.py",
)

_PUT_METHODS = ("put", "put_pickle", "put_frame")
_KIND_BY_NAME = {spec.name: spec for spec in shm_rings.FRAME_PROTOCOL.values()}

#: Positional index of the ``timeout`` parameter per put method (after
#: the receiver): ``put(kind, payload, timeout)``,
#: ``put_pickle(kind, obj, timeout)``, ``put_frame(kind, size, fill,
#: timeout)``, ``get(timeout)``.
_TIMEOUT_POSITION = {"put": 2, "put_pickle": 2, "put_frame": 3, "get": 0}


@dataclass
class RingSite:
    """One verified ring call site."""

    path: str
    line: int
    function: str
    role: str  #: "driver" / "worker" / "unknown"
    ring: str  #: dotted receiver, e.g. ``out_ring``
    op: str  #: put / put_pickle / put_frame / get
    kind: Optional[str]  #: frame-kind name, None for ``get``
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "function": self.function,
            "role": self.role,
            "ring": self.ring,
            "op": self.op,
            "kind": self.kind,
            "ok": self.ok,
            "violations": list(self.violations),
        }


@dataclass
class ProtocolReport:
    """Every ring site found, with per-site verdicts."""

    sites: List[RingSite]

    @property
    def ok(self) -> bool:
        return all(site.ok for site in self.sites)

    @property
    def violations(self) -> List[RingSite]:
        return [site for site in self.sites if not site.ok]

    def to_json(self) -> Dict[str, Any]:
        return {
            "protocol": [
                {
                    "kind": spec.kind,
                    "name": spec.name,
                    "producer": spec.producer,
                    "terminal": spec.terminal,
                    "discipline": spec.discipline,
                }
                for spec in shm_rings.FRAME_PROTOCOL.values()
            ],
            "ok": self.ok,
            "sites": [site.to_json() for site in self.sites],
            "summary": {
                "sites": len(self.sites),
                "violations": sum(1 for s in self.sites if not s.ok),
            },
        }

    def render(self) -> str:
        lines = []
        for site in self.sites:
            kind = f" {site.kind}" if site.kind else ""
            head = (
                f"{site.path}:{site.line} [{site.role}] "
                f"{site.ring}.{site.op}{kind}"
            )
            if site.ok:
                lines.append(f"[ok]    {head}")
            else:
                for violation in site.violations:
                    lines.append(f"[ERROR] {head} — {violation}")
        lines.append(
            f"{len(self.sites)} ring sites, "
            f"{sum(1 for s in self.sites if not s.ok)} in violation"
        )
        return "\n".join(lines)


def _frame_kind(node: Optional[ast.expr]) -> Optional[Tuple[str, Any]]:
    """Resolve a call's first argument to a declared frame kind.

    Returns ``(name, spec)`` or None when the expression is not a frame
    constant.  Handles ``shm_rings.TELEM`` attributes, bare ``TELEM``
    names, and raw int literals that collide with a declared byte.
    """
    name: Optional[str] = None
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Constant) and isinstance(node.value, int):
        spec = shm_rings.FRAME_PROTOCOL.get(node.value)
        if spec is not None:
            return spec.name, spec
        return None
    if name is not None and name in _KIND_BY_NAME:
        return name, _KIND_BY_NAME[name]
    return None


def _is_ring_receiver(receiver: str) -> bool:
    return "ring" in receiver


def _infer_role(ctx: ModuleContext, function: Any) -> str:
    """driver / worker / unknown for the function containing a site."""
    class_name = ctx.enclosing_class(function)
    if class_name is not None:
        if class_name.endswith("Runtime") or class_name.endswith(
            "Supervisor"
        ):
            return "driver"
        return "unknown"
    name = function.name.lower()
    if "shard_loop" in name or "worker" in name:
        return "worker"
    params = {arg.arg for arg in function.args.args}
    if {"in_ring", "out_ring"} & params:
        return "worker"
    return "unknown"


def _timeout_argument(call: ast.Call, op: str) -> Optional[ast.expr]:
    """The timeout argument of a ring call, keyword or positional."""
    keyword = keyword_value(call, "timeout")
    if keyword is not None:
        return keyword
    position = _TIMEOUT_POSITION[op]
    if len(call.args) > position:
        return call.args[position]
    return None


def _call_sites(
    ctx: ModuleContext,
) -> List[Tuple[Any, ast.stmt, ast.Call, str, str]]:
    """Every ring call in the module as
    ``(function, statement, call, op, receiver)`` tuples."""
    sites = []
    for info in ctx.functions:
        for statement in statement_tree(info.node.body):
            for node in shallow_walk(statement):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not isinstance(func, ast.Attribute):
                    continue
                op = func.attr
                if op not in _PUT_METHODS and op != "get":
                    continue
                receiver = receiver_text(func.value)
                is_ring = _is_ring_receiver(receiver)
                if op in _PUT_METHODS:
                    kind = _frame_kind(node.args[0] if node.args else None)
                    if kind is None and not is_ring:
                        continue  # dict.get / StateStore.put / similar
                elif not is_ring:
                    continue  # .get on something that is not a ring
                sites.append((info.node, statement, node, op, receiver))
    return sites


def _locate(cfg: CFG, statement: ast.stmt) -> Optional[Tuple[int, int]]:
    for block in cfg.blocks:
        for index, candidate in enumerate(block.statements):
            if candidate is statement:
                return block.index, index
    return None


def _puts_in(statements: Sequence[ast.stmt], receiver: str) -> List[ast.Call]:
    """Ring put calls on *receiver* inside the given statements."""
    calls = []
    for statement in statements:
        for node in shallow_walk(statement):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _PUT_METHODS
                and receiver_text(node.func.value) == receiver
            ):
                calls.append(node)
    return calls


def verify_source(source: str, path: str = "<string>") -> List[RingSite]:
    """Verify every ring site in one module's source."""
    ctx = context_for_source(source, path)
    return verify_context(ctx)


def verify_context(ctx: ModuleContext) -> List[RingSite]:
    sites: List[RingSite] = []
    for function, statement, call, op, receiver in _call_sites(ctx):
        role = _infer_role(ctx, function)
        resolved = _frame_kind(call.args[0] if call.args else None)
        kind_name = resolved[0] if resolved else None
        site = RingSite(
            path=ctx.path,
            line=call.lineno,
            function=function.name,
            role=role,
            ring=receiver,
            op=op,
            kind=kind_name,
        )
        if op == "get":
            _check_get(site, call, role)
        else:
            _check_put(site, ctx, function, statement, call, op, receiver)
        sites.append(site)
    sites.sort(key=lambda s: (s.path, s.line))
    return sites


def _check_get(site: RingSite, call: ast.Call, role: str) -> None:
    timeout = _timeout_argument(call, "get")
    if role == "driver" and timeout is None:
        site.violations.append(
            "driver-side ring get must be bounded (pass timeout=): the "
            "driver multiplexes rings and cannot wedge on one"
        )
    if role == "unknown":
        site.violations.append(
            "cannot infer driver/worker role for this ring site"
        )


def _check_put(
    site: RingSite,
    ctx: ModuleContext,
    function: Any,
    statement: ast.stmt,
    call: ast.Call,
    op: str,
    receiver: str,
) -> None:
    resolved = _frame_kind(call.args[0] if call.args else None)
    if resolved is None:
        site.violations.append(
            "put on a ring with an unrecognized frame kind — declare the "
            "kind in repro.engine.shm.FRAME_PROTOCOL"
        )
        return
    name, spec = resolved
    role = site.role
    if role == "unknown":
        site.violations.append(
            "cannot infer driver/worker role for this ring site"
        )
    elif role != spec.producer:
        site.violations.append(
            f"{name} frames are produced by the {spec.producer}; this "
            f"site runs in the {role}"
        )
    timeout = _timeout_argument(call, op)
    if spec.discipline == "best_effort":
        if not (
            isinstance(timeout, ast.Constant) and timeout.value == 0
        ):
            site.violations.append(
                f"{name} is best-effort: the put must pass literal "
                f"timeout=0 and tolerate the drop"
            )
    elif spec.discipline == "bounded":
        if timeout is None or (
            isinstance(timeout, ast.Constant) and timeout.value is None
        ):
            site.violations.append(
                f"{name} puts must be bounded (pass a finite timeout=): "
                f"a wedged peer must not block this side forever"
            )
    # Terminality: no non-terminal put on the same ring reachable after
    # a terminal frame.  ERR-after-DONE is legal (the exception path is
    # itself terminal), so only non-terminal successors count.
    if spec.terminal:
        cfg = ctx.cfg(function)
        location = _locate(cfg, statement)
        if location is not None:
            following = cfg.statements_after(*location)
            for later in _puts_in(following, receiver):
                if later is call:
                    continue
                later_kind = _frame_kind(
                    later.args[0] if later.args else None
                )
                if later_kind is not None and later_kind[1].terminal:
                    continue
                label = later_kind[0] if later_kind else "unknown-kind"
                site.violations.append(
                    f"non-terminal {label} put at line {later.lineno} is "
                    f"reachable after terminal {name}"
                )


def verify_paths(paths: Sequence[str]) -> ProtocolReport:
    """Verify every ring site under the given files/directories."""
    sites: List[RingSite] = []
    for path in _python_files(paths):
        text = path.read_text(encoding="utf-8")
        try:
            sites.extend(verify_source(text, str(path)))
        except SyntaxError as error:
            sites.append(
                RingSite(
                    path=str(path),
                    line=error.lineno or 0,
                    function="<module>",
                    role="unknown",
                    ring="",
                    op="parse",
                    kind=None,
                    violations=[f"file does not parse: {error.msg}"],
                )
            )
    sites.sort(key=lambda s: (s.path, s.line))
    return ProtocolReport(sites=sites)


def _python_files(paths: Sequence[str]) -> List[Path]:
    files: List[Path] = []
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    return files


