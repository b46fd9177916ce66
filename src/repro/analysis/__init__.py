"""Static and runtime analysis for repro stream plans.

Import the submodule you need — this package root imports nothing, so
reaching :mod:`repro.analysis.checked` from the merge CLI does not pay
for the lint, the model checker or the protocol verifier:

1. **Property flow** (:mod:`repro.analysis.propflow`) — infer
   per-operator :class:`StreamProperties` over a wired plan graph and
   judge every LMerge site's selected variant against the inferred
   restriction (unsound → error, over-conservative → warning);
2. **Punctuation monotonicity** (:mod:`repro.analysis.punct`) — prove,
   per operator class, that no ``Stable(...)`` emission can regress
   below an already-promised CTI; verdicts ride along in
   :func:`check_plan` output;
3. **Repo lint** (:mod:`repro.analysis.lint`) — seven AST rules
   encoding engine invariants: replayability, punctuation handling,
   columnar handlers staying columnar, registry lookups out of hot
   loops, no unused suppressions;
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
CFGs and :class:`ModuleContext`, which lets every rule share one parse,
one node-type index, and one CFG per function per file.

CLI: ``python -m repro.analysis {lint,check-plan,protocol,model,rules}``.
"""
