"""``python -m repro.analysis`` — lint, plan checking, rule catalog.

Subcommands:

* ``lint <paths...>`` — run the repo-specific AST lint
  (:mod:`repro.analysis.lint`); exits non-zero on any error-severity
  finding (``--strict`` also fails on warnings);
* ``check-plan [--plans FILE]`` — build every plan in a plan-catalog
  module (default ``examples/plans.py``, a ``PLANS`` dict of factories),
  run the static soundness check (:mod:`repro.analysis.propflow`), and
  optionally (``--dynamic``) execute each plan to confirm the inferred
  restriction against what :class:`repro.analysis.checked.MergeCheck`
  observes on live data;
* ``protocol [paths...]`` — statically verify every :class:`ShmRing`
  frame site against the declared :data:`FRAME_PROTOCOL`
  (:mod:`repro.analysis.protocol`);
* ``model`` — exhaustively model-check the SPSC ring + supervisor
  restart protocol (:mod:`repro.analysis.model`);
* ``rules`` — print the lint rule catalog; ``--check-docs`` /
  ``--write-docs`` keep the generated table in ``docs/ANALYSIS.md`` in
  sync with the registry.

All analysis commands take ``--format json`` and ``--output PATH`` so CI
can archive machine-readable reports.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.analysis.lint import (
    CATALOG_BEGIN,
    RULES,
    SEVERITY_ERROR,
    lint_paths,
    render_docs_catalog,
    rules_markdown,
)
from repro.analysis.model import MUTATIONS, ModelParams, check_model
from repro.analysis.propflow import check_plan
from repro.analysis.protocol import DEFAULT_PROTOCOL_PATHS, verify_paths

DEFAULT_PLANS = "examples/plans.py"
DEFAULT_DOCS = "docs/ANALYSIS.md"


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        Path(output).write_text(text + "\n", encoding="utf-8")
    else:
        sys.stdout.write(text + "\n")


# ---------------------------------------------------------------------------
# lint
# ---------------------------------------------------------------------------


def _cmd_lint(args: argparse.Namespace) -> int:
    findings = lint_paths(args.paths, rules=args.rules)
    errors = [f for f in findings if f.severity == SEVERITY_ERROR]
    warnings = [f for f in findings if f.severity != SEVERITY_ERROR]
    if args.format == "json":
        _emit(
            json.dumps(
                {
                    "ok": not errors,
                    "errors": len(errors),
                    "warnings": len(warnings),
                    "findings": [f.to_json() for f in findings],
                },
                indent=2,
            ),
            args.output,
        )
    else:
        lines = [f.render() for f in findings]
        lines.append(
            f"{len(errors)} error(s), {len(warnings)} warning(s) in "
            f"{len(args.paths)} path(s)"
        )
        _emit("\n".join(lines), args.output)
    if errors or (args.strict and warnings):
        return 1
    return 0


# ---------------------------------------------------------------------------
# check-plan
# ---------------------------------------------------------------------------


def load_plan_catalog(path: str) -> Dict[str, Callable[[], object]]:
    """Import a plan-catalog module by file path; return its ``PLANS``.

    The catalog convention: a module-level ``PLANS`` dict mapping plan
    name to a zero-argument factory returning an object with ``replicas``
    (queries feeding an LMerge) and optionally ``merge``/``run_inputs``.
    """
    location = Path(path)
    if not location.exists():
        raise FileNotFoundError(f"plan catalog not found: {path}")
    spec = importlib.util.spec_from_file_location(
        f"_repro_plans_{location.stem}", location
    )
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load plan catalog from {path}")
    module = importlib.util.module_from_spec(spec)
    # dataclasses (and other annotation resolvers) look the module up in
    # sys.modules while the body executes; register it first.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    plans = getattr(module, "PLANS", None)
    if not isinstance(plans, dict) or not plans:
        raise ValueError(f"{path} defines no PLANS catalog")
    return plans


def _check_one(
    name: str, factory: Callable[[], object], dynamic: bool
) -> dict:
    plan = factory()
    try:
        replicas = list(getattr(plan, "replicas"))
        static = check_plan(*replicas, plan=name)
        result = static.to_json()
        if dynamic:
            observed = plan.run_checked()  # type: ignore[attr-defined]
            result["dynamic"] = {
                "observed": observed.name,
                "matches": [
                    site["inferred"] == observed.name
                    for site in result["sites"]
                ],
            }
            if not all(result["dynamic"]["matches"]):
                result["ok"] = False
    finally:
        close = getattr(plan, "close", None)
        if callable(close):
            close()
    return result


def _cmd_check_plan(args: argparse.Namespace) -> int:
    catalog = load_plan_catalog(args.plans)
    names = args.plan or sorted(catalog)
    results = []
    for name in names:
        if name not in catalog:
            sys.stderr.write(f"unknown plan {name!r} in {args.plans}\n")
            return 2
        results.append(_check_one(name, catalog[name], args.dynamic))
    ok = all(result["ok"] for result in results)
    if args.format == "json":
        _emit(
            json.dumps({"ok": ok, "plans": results}, indent=2), args.output
        )
    else:
        lines = []
        for result in results:
            for site in result["sites"]:
                status = site["verdict"]
                lines.append(
                    f"[{status}] {result['plan']}: {site['message']}"
                )
            if "dynamic" in result:
                lines.append(
                    f"[dynamic] {result['plan']}: observed "
                    f"{result['dynamic']['observed']} "
                    f"(match={all(result['dynamic']['matches'])})"
                )
        lines.append("OK" if ok else "FAILED")
        _emit("\n".join(lines), args.output)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------


def _cmd_protocol(args: argparse.Namespace) -> int:
    paths = args.paths or list(DEFAULT_PROTOCOL_PATHS)
    report = verify_paths(paths)
    if args.format == "json":
        _emit(json.dumps(report.to_json(), indent=2), args.output)
    else:
        _emit(report.render(), args.output)
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------


def _cmd_model(args: argparse.Namespace) -> int:
    params = ModelParams(
        batches=args.batches,
        ring_capacity=args.ring_capacity,
        crashes=args.crashes,
        checkpoint_every=args.checkpoint_every,
        mutations=frozenset(args.mutate or ()),
    )
    started = time.perf_counter()
    result = check_model(params)
    elapsed = time.perf_counter() - started
    if args.format == "json":
        payload = result.to_json()
        payload["wall_seconds"] = round(elapsed, 4)
        _emit(json.dumps(payload, indent=2), args.output)
    else:
        _emit(result.render(), args.output)
    return 0 if result.ok else 1


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------


def _cmd_rules(args: argparse.Namespace) -> int:
    docs = Path(args.docs)
    if args.check_docs or args.write_docs:
        if not docs.exists():
            sys.stderr.write(f"docs file not found: {docs}\n")
            return 2
        document = docs.read_text(encoding="utf-8")
        if CATALOG_BEGIN not in document:
            sys.stderr.write(
                f"{docs} has no rule-catalog markers; add them once "
                "(see repro.analysis.lint.CATALOG_BEGIN_LINE)\n"
            )
            return 2
        regenerated = render_docs_catalog(document)
        if args.write_docs:
            docs.write_text(regenerated, encoding="utf-8")
            return 0
        if regenerated != document:
            sys.stderr.write(
                f"{docs} rule catalog is out of date — run "
                "`python -m repro.analysis rules --write-docs`\n"
            )
            return 1
        return 0
    if args.format == "json":
        _emit(
            json.dumps(
                [
                    {
                        "id": rule.id,
                        "severity": rule.severity,
                        "summary": rule.summary,
                    }
                    for rule in RULES.values()
                ],
                indent=2,
            ),
            args.output,
        )
        return 0
    if args.format == "markdown":
        _emit(rules_markdown(), args.output)
        return 0
    for rule in RULES.values():
        _emit(f"{rule.id}  {rule.severity:8}  {rule.summary}", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro analysis",
        description="Static analysis for repro stream plans and code",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    lint = commands.add_parser("lint", help="repo-specific AST lint")
    lint.add_argument("paths", nargs="+")
    lint.add_argument("--rules", nargs="*", choices=sorted(RULES))
    lint.add_argument("--format", choices=["text", "json"], default="text")
    lint.add_argument("--output", help="write the report here")
    lint.add_argument(
        "--strict", action="store_true", help="fail on warnings too"
    )
    lint.set_defaults(func=_cmd_lint)

    plan = commands.add_parser(
        "check-plan", help="LMerge soundness check over a plan catalog"
    )
    plan.add_argument(
        "--plans",
        default=DEFAULT_PLANS,
        help=f"plan catalog module (default {DEFAULT_PLANS})",
    )
    plan.add_argument(
        "--plan",
        action="append",
        help="check only this plan (repeatable; default: all)",
    )
    plan.add_argument(
        "--dynamic",
        action="store_true",
        help="also execute each plan and confirm the inferred restriction "
        "against the live-stream observation",
    )
    plan.add_argument("--format", choices=["text", "json"], default="text")
    plan.add_argument("--output", help="write the report here")
    plan.set_defaults(func=_cmd_check_plan)

    protocol = commands.add_parser(
        "protocol", help="verify ShmRing frame sites against FRAME_PROTOCOL"
    )
    protocol.add_argument(
        "paths",
        nargs="*",
        help=f"modules to verify (default: {' '.join(DEFAULT_PROTOCOL_PATHS)})",
    )
    protocol.add_argument(
        "--format", choices=["text", "json"], default="text"
    )
    protocol.add_argument("--output", help="write the report here")
    protocol.set_defaults(func=_cmd_protocol)

    model = commands.add_parser(
        "model",
        help="exhaustively model-check the ring + supervisor protocol",
    )
    model.add_argument("--batches", type=int, default=4)
    model.add_argument("--ring-capacity", type=int, default=2)
    model.add_argument("--crashes", type=int, default=2)
    model.add_argument("--checkpoint-every", type=int, default=2)
    model.add_argument(
        "--mutate",
        action="append",
        choices=sorted(MUTATIONS),
        help="inject a protocol bug the checker must catch (repeatable)",
    )
    model.add_argument("--format", choices=["text", "json"], default="text")
    model.add_argument("--output", help="write the report here")
    model.set_defaults(func=_cmd_model)

    rules = commands.add_parser("rules", help="print the lint rule catalog")
    rules.add_argument(
        "--format",
        choices=["text", "json", "markdown"],
        default="text",
    )
    rules.add_argument("--output", help="write the catalog here")
    rules.add_argument(
        "--docs",
        default=DEFAULT_DOCS,
        help=f"docs file holding the generated catalog (default {DEFAULT_DOCS})",
    )
    rules.add_argument(
        "--check-docs",
        action="store_true",
        help="fail if the docs catalog is out of date with the registry",
    )
    rules.add_argument(
        "--write-docs",
        action="store_true",
        help="regenerate the docs catalog in place",
    )
    rules.set_defaults(func=_cmd_rules)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)
