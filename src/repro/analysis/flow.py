"""Per-function control-flow graphs and the shared per-module parse.

Most lint rules are single-pass AST walks, but the ring protocol's
terminality check is a *path* property — "no non-terminal put is
reachable after a DONE/ERR put on the same ring" — and needs a
control-flow graph, not a walk.  This module provides it, plus the
shared per-module cache that keeps every rule and verifier at one parse
(and one CFG build per function) per module:

* :func:`build_cfg` — a statement-level CFG for one function body:
  basic blocks, branch/loop/try edges, explicit entry/exit.  ``try``
  bodies edge into their handlers from every contained block (the
  conservative "an exception may fire anywhere" reading), ``finally``
  bodies are inlined on the fall-through path, ``break``/``continue``/
  ``return``/``raise`` cut the block.  :meth:`CFG.statements_after` is
  the reachability query :mod:`repro.analysis.protocol` asks.
* :class:`ModuleContext` — one parsed module shared by every rule:
  source, AST, line table, the function/class index, and a lazily built,
  cached CFG per function.

The framework is deliberately conservative: anything it cannot model
(``with`` bodies, ``match`` statements, comprehension control flow) is
treated as straight-line fall-through, so analyses built on it can only
over-approximate reachability — rules err toward reporting, never toward
silently missing a path.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "BasicBlock",
    "CFG",
    "FunctionInfo",
    "ModuleContext",
    "build_cfg",
    "context_for_source",
    "iter_functions",
    "keyword_value",
    "receiver_text",
    "shallow_walk",
    "statement_tree",
]

@dataclass
class BasicBlock:
    """A maximal straight-line statement run in one function's CFG."""

    index: int
    statements: List[ast.stmt] = field(default_factory=list)
    successors: List[int] = field(default_factory=list)
    #: True for the synthetic exit block every return/raise/fall-off
    #: edge targets (it holds no statements).
    is_exit: bool = False

    def add_successor(self, index: int) -> None:
        if index not in self.successors:
            self.successors.append(index)


@dataclass
class CFG:
    """The control-flow graph of one function body."""

    function: Any
    blocks: List[BasicBlock]
    entry: int
    exit: int

    def statements_after(
        self, block_index: int, statement_index: int
    ) -> List[ast.stmt]:
        """Every statement that may execute strictly after the given
        statement: the rest of its block plus all blocks reachable from
        its successors.  Conservative (ignores branch conditions)."""
        block = self.blocks[block_index]
        following = list(block.statements[statement_index + 1 :])
        seen = set()
        stack = list(block.successors)
        while stack:
            index = stack.pop()
            if index in seen:
                continue
            seen.add(index)
            successor = self.blocks[index]
            following.extend(successor.statements)
            stack.extend(successor.successors)
        return following


class _CFGBuilder:
    """Builds the block graph; one instance per function."""

    def __init__(self, function: Any):
        self.function = function
        self.blocks: List[BasicBlock] = []
        self.exit_index = self._new_block(is_exit=True)

    def _new_block(self, is_exit: bool = False) -> int:
        block = BasicBlock(index=len(self.blocks), is_exit=is_exit)
        self.blocks.append(block)
        return block.index

    def build(self) -> CFG:
        entry = self._new_block()
        end = self._sequence(self.function.body, entry, loop=None)
        if end is not None:
            self.blocks[end].add_successor(self.exit_index)
        return CFG(
            function=self.function,
            blocks=self.blocks,
            entry=entry,
            exit=self.exit_index,
        )

    # ``loop`` is (continue_target, break_targets_list) for the innermost
    # enclosing loop; break targets are patched once the loop exit exists.

    def _sequence(
        self,
        statements: Iterable[ast.stmt],
        current: int,
        loop: Optional[Tuple[int, List[int]]],
    ) -> Optional[int]:
        """Thread *statements* from block *current*; returns the block
        control falls out of, or None when every path left (return/raise/
        break/continue)."""
        for statement in statements:
            if current is None:
                # Unreachable code after a terminator: keep it in a
                # disconnected block so rules still see the statements.
                current = self._new_block()
            current = self._statement(statement, current, loop)
        return current

    def _statement(
        self,
        statement: ast.stmt,
        current: int,
        loop: Optional[Tuple[int, List[int]]],
    ) -> Optional[int]:
        blocks = self.blocks
        if isinstance(statement, ast.If):
            blocks[current].statements.append(statement)
            join = self._new_block()
            then_entry = self._new_block()
            blocks[current].add_successor(then_entry)
            then_end = self._sequence(statement.body, then_entry, loop)
            if then_end is not None:
                blocks[then_end].add_successor(join)
            if statement.orelse:
                else_entry = self._new_block()
                blocks[current].add_successor(else_entry)
                else_end = self._sequence(statement.orelse, else_entry, loop)
                if else_end is not None:
                    blocks[else_end].add_successor(join)
            else:
                blocks[current].add_successor(join)
            return join
        if isinstance(statement, (ast.While, ast.For, ast.AsyncFor)):
            head = self._new_block()
            blocks[current].add_successor(head)
            blocks[head].statements.append(statement)
            after = self._new_block()
            body_entry = self._new_block()
            blocks[head].add_successor(body_entry)
            # ``while True:`` with no break never falls through, but the
            # conservative graph keeps the exit edge unless the condition
            # is literally True with no breaks — precision rules don't
            # currently need.
            blocks[head].add_successor(after)
            breaks: List[int] = []
            body_end = self._sequence(
                statement.body, body_entry, (head, breaks)
            )
            if body_end is not None:
                blocks[body_end].add_successor(head)
            for index in breaks:
                blocks[index].add_successor(after)
            if statement.orelse:
                else_end = self._sequence(statement.orelse, after, loop)
                return else_end if else_end is not None else after
            return after
        if isinstance(statement, (ast.Try, getattr(ast, "TryStar", ast.Try))):
            entry = self._new_block()
            blocks[current].add_successor(entry)
            join = self._new_block()
            region_start = len(self.blocks)
            body_end = self._sequence(statement.body, entry, loop)
            # Conservative exception edges: any block of the try body may
            # transfer to any handler.  The region is every block the
            # builder allocated while sequencing the body (allocation is
            # append-only, so that is an index interval), plus the entry.
            body_blocks = [entry] + [
                index
                for index in range(region_start, len(self.blocks))
                if not self.blocks[index].is_exit
            ]
            handler_ends: List[Optional[int]] = []
            for handler in statement.handlers:
                handler_entry = self._new_block()
                for index in body_blocks:
                    blocks[index].add_successor(handler_entry)
                handler_ends.append(
                    self._sequence(handler.body, handler_entry, loop)
                )
            if statement.orelse and body_end is not None:
                body_end = self._sequence(statement.orelse, body_end, loop)
            ends = [body_end] + handler_ends
            if statement.finalbody:
                final_entry = self._new_block()
                for end in ends:
                    if end is not None:
                        blocks[end].add_successor(final_entry)
                final_end = self._sequence(
                    statement.finalbody, final_entry, loop
                )
                if final_end is not None:
                    blocks[final_end].add_successor(join)
                return join
            for end in ends:
                if end is not None:
                    blocks[end].add_successor(join)
            return join
        if isinstance(statement, (ast.With, ast.AsyncWith)):
            blocks[current].statements.append(statement)
            return self._sequence(statement.body, current, loop)
        if isinstance(statement, (ast.Return, ast.Raise)):
            blocks[current].statements.append(statement)
            blocks[current].add_successor(self.exit_index)
            return None
        if isinstance(statement, ast.Break):
            blocks[current].statements.append(statement)
            if loop is not None:
                loop[1].append(current)
            return None
        if isinstance(statement, ast.Continue):
            blocks[current].statements.append(statement)
            if loop is not None:
                blocks[current].add_successor(loop[0])
            return None
        # Everything else — assignments, expression statements, nested
        # function/class definitions, match statements — is straight-line
        # as far as this CFG is concerned.
        blocks[current].statements.append(statement)
        return current

def build_cfg(function: Any) -> CFG:
    """The statement-level CFG of *function* (a FunctionDef node)."""
    return _CFGBuilder(function).build()


@dataclass
class FunctionInfo:
    """One function (or method) in a module's index."""

    node: Any
    #: Dotted location inside the module, e.g. ``Runtime.submit``.
    qualname: str
    #: Innermost enclosing class name, or None for module-level defs.
    class_name: Optional[str]


def iter_functions(tree: ast.Module) -> List[FunctionInfo]:
    """Every function/method in *tree* with its enclosing-class context."""
    found: List[FunctionInfo] = []

    def visit(node: ast.AST, class_name: Optional[str], prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                found.append(FunctionInfo(child, qualname, class_name))
                visit(child, class_name, f"{qualname}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, child.name, f"{prefix}{child.name}.")
            else:
                visit(child, class_name, prefix)

    visit(tree, None, "")
    return found


@dataclass
class ModuleContext:
    """One module, parsed once, shared by every analysis pass.

    Rules receive the same context object, so the AST walk products they
    need repeatedly — the function index, per-function CFGs — are built
    once and memoized here.
    """

    path: str
    source: str
    tree: ast.Module
    lines: List[str]
    _functions: Optional[List[FunctionInfo]] = None
    _cfgs: Dict[int, CFG] = field(default_factory=dict)
    _node_index: Optional[Dict[type, List[ast.AST]]] = None

    @property
    def functions(self) -> List[FunctionInfo]:
        if self._functions is None:
            self._functions = iter_functions(self.tree)
        return self._functions

    def walk(self, *types: type) -> List[ast.AST]:
        """All nodes of the given AST types, from one shared full walk.

        The index is built on first use and reused by every rule, so N
        rules asking for calls/classes/functions cost one traversal of
        the module, not N.
        """
        if self._node_index is None:
            index: Dict[type, List[ast.AST]] = {}
            for node in ast.walk(self.tree):
                index.setdefault(type(node), []).append(node)
            self._node_index = index
        found: List[ast.AST] = []
        for node_type in types:
            found.extend(self._node_index.get(node_type, []))
        return found

    def cfg(self, function: Any) -> CFG:
        """The (cached) CFG for one of this module's functions."""
        key = id(function)
        cached = self._cfgs.get(key)
        if cached is None:
            cached = build_cfg(function)
            self._cfgs[key] = cached
        return cached

    def enclosing_class(self, function: Any) -> Optional[str]:
        for info in self.functions:
            if info.node is function:
                return info.class_name
        return None


def context_for_source(source: str, path: str = "<string>") -> ModuleContext:
    """Parse *source* once into a shared :class:`ModuleContext`.

    Raises :class:`SyntaxError` like :func:`ast.parse` — callers that
    need a finding instead (the lint driver) catch it there.
    """
    return ModuleContext(
        path=path,
        source=source,
        tree=ast.parse(source, filename=path),
        lines=source.splitlines(),
    )


# ---------------------------------------------------------------------------
# Small shared helpers for rules built on the framework
# ---------------------------------------------------------------------------


def shallow_walk(statement: ast.stmt) -> Iterable[ast.AST]:
    """Walk the parts of *statement* the CFG attributes to the statement
    itself — i.e. excluding compound bodies, which the CFG sequences
    into their own blocks (walking them here would double-count their
    contents against every enclosing compound statement)."""
    roots: List[ast.AST]
    if isinstance(statement, (ast.If, ast.While)):
        roots = [statement.test]
    elif isinstance(statement, (ast.For, ast.AsyncFor)):
        roots = [statement.target, statement.iter]
    elif isinstance(statement, (ast.With, ast.AsyncWith)):
        roots = []
        for item in statement.items:
            roots.append(item.context_expr)
            if item.optional_vars is not None:
                roots.append(item.optional_vars)
    elif isinstance(
        statement,
        (
            ast.Try,
            ast.FunctionDef,
            ast.AsyncFunctionDef,
            ast.ClassDef,
        ),
    ):
        roots = []
    else:
        roots = [statement]
    for root in roots:
        yield from ast.walk(root)


def statement_tree(body: Iterable[ast.stmt]) -> List[ast.stmt]:
    """Every CFG-granularity statement in *body*: simple statements and
    compound heads, recursing through compound bodies but **not** into
    nested function/class definitions (those are separate CFGs)."""
    found: List[ast.stmt] = []
    stack: List[ast.stmt] = list(body)
    while stack:
        statement = stack.pop()
        if isinstance(
            statement,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
        ):
            continue
        found.append(statement)
        if isinstance(statement, (ast.If, ast.While)):
            stack.extend(statement.body)
            stack.extend(statement.orelse)
        elif isinstance(statement, (ast.For, ast.AsyncFor)):
            stack.extend(statement.body)
            stack.extend(statement.orelse)
        elif isinstance(statement, (ast.With, ast.AsyncWith)):
            stack.extend(statement.body)
        elif isinstance(statement, ast.Try):
            stack.extend(statement.body)
            for handler in statement.handlers:
                stack.extend(handler.body)
            stack.extend(statement.orelse)
            stack.extend(statement.finalbody)
    return found


def receiver_text(node: ast.expr) -> str:
    """A lowercase dotted rendering of a call receiver, for name-pattern
    matching (``self._out_rings[shard]`` -> ``self._out_rings``)."""
    parts: List[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            break
        elif isinstance(node, ast.Call):
            node = node.func
        else:
            break
    return ".".join(reversed(parts)).lower()


def keyword_value(call: ast.Call, name: str) -> Optional[ast.expr]:
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None

