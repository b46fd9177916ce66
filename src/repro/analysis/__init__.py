"""Static and runtime analysis for repro stream plans.

Coordinated passes (see the submodules for detail):

1. **Property flow** (:mod:`repro.analysis.propflow`) — infer
   per-operator :class:`StreamProperties` over a wired plan graph and
   judge every LMerge site's selected variant against the inferred
   restriction (unsound → error, over-conservative → warning);
2. **Punctuation monotonicity** (:mod:`repro.analysis.punct`) — prove,
   per operator class, that no ``Stable(...)`` emission can regress
   below an already-promised CTI; verdicts ride along in
   :func:`check_plan` output;
3. **Repo lint** (:mod:`repro.analysis.lint`) — AST + dataflow rules
   (REP101…REP113) encoding engine invariants: replayability,
   punctuation handling, element immutability, slotted layouts, no
   blocking inside ring reserve/commit windows, no unused suppressions;
4. **Ring-protocol verification** (:mod:`repro.analysis.protocol`) —
   statically check every :class:`ShmRing` ``put``/``get`` site against
   the declared :data:`FRAME_PROTOCOL` (producer role, terminal-ness,
   blocking discipline);
5. **Protocol model checking** (:mod:`repro.analysis.model`) —
   exhaustively explore the SPSC ring + supervisor-restart state space
   and assert deadlock freedom, no lost terminal frame, and exactly-once
   output delivery;
6. **Checked execution** (:mod:`repro.analysis.checked`) —
   :class:`PropertyChecker` operators that re-measure declared
   properties on live streams and raise on the first violating element,
   confirming the static verdicts dynamically.

Shared infrastructure lives in :mod:`repro.analysis.flow`: per-function
CFGs, a forward-dataflow solver, and :class:`ModuleContext`, which lets
every rule share one parse, one node-type index, and one CFG per
function per file.

CLI: ``python -m repro.analysis {lint,check-plan,protocol,model,rules}``.
"""

from repro.analysis.checked import (
    JointOrderTracker,
    MergeCheck,
    PropertyChecker,
    PropertyViolationError,
)
from repro.analysis.flow import (
    CFG,
    BasicBlock,
    ForwardAnalysis,
    ModuleContext,
    context_for_source,
)
from repro.analysis.lint import (
    RULES,
    Finding,
    LintReport,
    LintStats,
    lint_file,
    lint_paths,
    lint_paths_report,
    lint_source,
    render_docs_catalog,
    rules_markdown,
)
from repro.analysis.model import (
    MUTATIONS,
    ModelParams,
    ModelResult,
    check_model,
)
from repro.analysis.propflow import (
    GraphAnalysis,
    MergeSite,
    PlanCheck,
    SiteCheck,
    UnsoundPlanError,
    analyze_graph,
    check_plan,
    verify_plan,
)
from repro.analysis.protocol import (
    DEFAULT_PROTOCOL_PATHS,
    ProtocolReport,
    RingSite,
    verify_paths,
    verify_source,
)
from repro.analysis.punct import (
    ClassPunctuation,
    StableSite,
    classify_source,
    punctuation_of,
)

__all__ = [
    "BasicBlock",
    "CFG",
    "ClassPunctuation",
    "DEFAULT_PROTOCOL_PATHS",
    "Finding",
    "ForwardAnalysis",
    "GraphAnalysis",
    "JointOrderTracker",
    "LintReport",
    "LintStats",
    "MUTATIONS",
    "MergeCheck",
    "MergeSite",
    "ModelParams",
    "ModelResult",
    "ModuleContext",
    "PlanCheck",
    "PropertyChecker",
    "PropertyViolationError",
    "ProtocolReport",
    "RULES",
    "RingSite",
    "SiteCheck",
    "StableSite",
    "UnsoundPlanError",
    "analyze_graph",
    "check_model",
    "check_plan",
    "classify_source",
    "context_for_source",
    "lint_file",
    "lint_paths",
    "lint_paths_report",
    "lint_source",
    "punctuation_of",
    "render_docs_catalog",
    "rules_markdown",
    "verify_paths",
    "verify_plan",
    "verify_source",
]
