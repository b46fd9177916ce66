"""Bounded model checking of the SPSC ring + supervisor state machine.

The protocol verifier (:mod:`repro.analysis.protocol`) checks that each
call *site* obeys the frame spec; this module checks that the *design*
composed of those sites is safe: it builds a finite-state model of one
driver/worker pair — bounded rings, the supervised worker's
apply/emit/checkpoint loop, crash + recovery with out-ring salvage,
journal replay, and the ``emitted_before`` OUT-dedup header — and
exhaustively enumerates every reachable interleaving by breadth-first
search.  Three safety properties are asserted over the whole space:

* **no deadlock** — every non-accepting state has at least one enabled
  transition (a full ring must always be drainable by someone);
* **no lost terminal frame** — every terminal state has the worker's
  DONE delivered to the driver;
* **exact output delivery** — the driver accepts each of the N shard
  outputs exactly once, in order: a replayed duplicate must be skipped
  by the ``emitted_before`` header, and a gap (``emitted_before`` ahead
  of the delivered count) is a lost output.

The model is deliberately small — a few batches, ring capacity of a few
frames, a bounded crash budget — because the bugs it exists to catch
(dedup off-by-ones, salvage-ordering races, replay-from-the-wrong-seq)
all manifest within a handful of frames.  CI runs it on every push and
uploads the JSON state-space report.

The ``mutations`` parameter deliberately breaks one mechanism at a time
(``no_dedup``, ``no_salvage``, ``no_replay``); tests assert each
mutation produces a caught violation, i.e. that the checker's
properties are strong enough to notice the mechanism is load-bearing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

__all__ = [
    "ModelParams",
    "ModelResult",
    "Violation",
    "check_model",
    "MUTATIONS",
]

#: The supported fault-injection mutations (see module docstring).
MUTATIONS = ("no_dedup", "no_salvage", "no_replay")

# Worker status values.
_RUNNING = 0
_FINISHED = 1

# Frame tags on the modelled rings.
_BATCH = "B"
_SENTINEL = "S"
_OUT = "O"
_DONE = "D"


@dataclass(frozen=True)
class ModelParams:
    """Bounds for the finite model."""

    batches: int = 4
    ring_capacity: int = 2
    crashes: int = 2
    checkpoint_every: int = 2
    mutations: FrozenSet[str] = frozenset()

    def validate(self) -> None:
        if self.batches < 1 or self.batches > 8:
            raise ValueError("batches must be in 1..8")
        if self.ring_capacity < 1 or self.ring_capacity > 4:
            raise ValueError("ring_capacity must be in 1..4")
        if self.crashes < 0 or self.crashes > 4:
            raise ValueError("crashes must be in 0..4")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        unknown = set(self.mutations) - set(MUTATIONS)
        if unknown:
            raise ValueError(f"unknown mutations: {sorted(unknown)}")

    def to_json(self) -> Dict[str, Any]:
        return {
            "batches": self.batches,
            "ring_capacity": self.ring_capacity,
            "crashes": self.crashes,
            "checkpoint_every": self.checkpoint_every,
            "mutations": sorted(self.mutations),
        }


# The state tuple (kept flat and hashable for the visited set):
#   (next_seq, sentinel_sent,
#    in_ring, out_ring,            # tuples of frames
#    status, applied_seq, emitted, pending_out,
#    ckpt_seq, ckpt_emitted,
#    delivered, done_received, crashes_left)
_State = Tuple


def _initial(params: ModelParams) -> _State:
    return (
        1,  # next_seq
        False,  # sentinel_sent
        (),  # in_ring
        (),  # out_ring
        _RUNNING,  # worker status
        0,  # applied_seq
        0,  # emitted
        None,  # pending_out (an OUT frame applied but not yet on the ring)
        0,  # ckpt_seq
        0,  # ckpt_emitted
        0,  # delivered
        False,  # done_received
        params.crashes,  # crashes_left
    )


@dataclass
class Violation:
    """One property violation with its shortest counterexample trace."""

    property: str
    detail: str
    trace: List[str]

    def to_json(self) -> Dict[str, Any]:
        return {
            "property": self.property,
            "detail": self.detail,
            "trace": list(self.trace),
        }


@dataclass
class ModelResult:
    """The outcome of one exhaustive exploration."""

    params: ModelParams
    states: int
    transitions: int
    terminal_states: int
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> Dict[str, Any]:
        return {
            "params": self.params.to_json(),
            "ok": self.ok,
            "states": self.states,
            "transitions": self.transitions,
            "terminal_states": self.terminal_states,
            "properties": {
                "deadlock_free": not any(
                    v.property == "deadlock" for v in self.violations
                ),
                "no_lost_terminal": not any(
                    v.property == "lost_terminal" for v in self.violations
                ),
                "exact_delivery": not any(
                    v.property in ("duplicate_delivery", "lost_output")
                    for v in self.violations
                ),
            },
            "violations": [v.to_json() for v in self.violations],
        }

    def render(self) -> str:
        lines = [
            f"explored {self.states} states / {self.transitions} "
            f"transitions ({self.terminal_states} terminal) with "
            f"params {self.params.to_json()}"
        ]
        if self.ok:
            lines.append(
                "[ok] deadlock-free, no lost terminal frame, exact "
                "output delivery"
            )
        else:
            for violation in self.violations:
                lines.append(
                    f"[ERROR] {violation.property}: {violation.detail}"
                )
                lines.append(
                    "        trace: " + " -> ".join(violation.trace[-12:])
                )
        return "\n".join(lines)


def _drain_one(
    out_ring: Tuple,
    delivered: int,
    done_received: bool,
    params: ModelParams,
) -> Tuple[Tuple, int, bool, Optional[Tuple[str, str]]]:
    """Driver-side processing of the head OUT-ring frame.

    Returns the new ``(out_ring, delivered, done_received, violation)``
    where *violation* is ``(property, detail)`` or None.  Mirrors the
    ``skip = delivered - emitted_before`` dedup in
    ``ParallelRuntime._drain_shm_ring`` (the one OUT-decode site).
    """
    frame, rest = out_ring[0], out_ring[1:]
    if frame[0] == _DONE:
        return rest, delivered, True, None
    _, emitted_before = frame
    if "no_dedup" in params.mutations:
        if emitted_before < delivered:
            return (
                rest,
                delivered + 1,
                done_received,
                (
                    "duplicate_delivery",
                    f"output #{emitted_before} accepted again at "
                    f"delivered={delivered}",
                ),
            )
        return rest, delivered + 1, done_received, None
    if emitted_before < delivered:
        # Replayed duplicate: the header says this output precedes what
        # the driver has already accepted — skip it.
        return rest, delivered, done_received, None
    if emitted_before > delivered:
        return (
            rest,
            delivered,
            done_received,
            (
                "lost_output",
                f"output #{delivered} missing: frame carries "
                f"emitted_before={emitted_before}",
            ),
        )
    return rest, delivered + 1, done_received, None


def _successors(
    state: _State, params: ModelParams
) -> List[Tuple[str, _State, Optional[Tuple[str, str]]]]:
    """Every enabled transition as ``(label, next_state, violation)``."""
    (
        next_seq,
        sentinel_sent,
        in_ring,
        out_ring,
        status,
        applied_seq,
        emitted,
        pending_out,
        ckpt_seq,
        ckpt_emitted,
        delivered,
        done_received,
        crashes_left,
    ) = state
    moves: List[Tuple[str, _State, Optional[Tuple[str, str]]]] = []

    # -- driver: send the next journal entry ---------------------------
    if len(in_ring) < params.ring_capacity and not done_received:
        if next_seq <= params.batches:
            moves.append(
                (
                    f"send(batch {next_seq})",
                    (
                        next_seq + 1,
                        sentinel_sent,
                        in_ring + ((_BATCH, next_seq),),
                        out_ring,
                        status,
                        applied_seq,
                        emitted,
                        pending_out,
                        ckpt_seq,
                        ckpt_emitted,
                        delivered,
                        done_received,
                        crashes_left,
                    ),
                    None,
                )
            )
        elif not sentinel_sent:
            moves.append(
                (
                    "send(sentinel)",
                    (
                        next_seq,
                        True,
                        in_ring + ((_SENTINEL,),),
                        out_ring,
                        status,
                        applied_seq,
                        emitted,
                        pending_out,
                        ckpt_seq,
                        ckpt_emitted,
                        delivered,
                        done_received,
                        crashes_left,
                    ),
                    None,
                )
            )

    # -- driver: drain one OUT-ring frame ------------------------------
    if out_ring:
        new_out, new_delivered, new_done, violation = _drain_one(
            out_ring, delivered, done_received, params
        )
        moves.append(
            (
                f"drain({out_ring[0][0]})",
                (
                    next_seq,
                    sentinel_sent,
                    in_ring,
                    new_out,
                    status,
                    applied_seq,
                    emitted,
                    pending_out,
                    ckpt_seq,
                    ckpt_emitted,
                    new_delivered,
                    new_done,
                    crashes_left,
                ),
                violation,
            )
        )

    # -- worker: flush a pending OUT frame (the blocking put) ----------
    if (
        status == _RUNNING
        and pending_out is not None
        and len(out_ring) < params.ring_capacity
    ):
        moves.append(
            (
                f"emit(out seq {applied_seq})",
                (
                    next_seq,
                    sentinel_sent,
                    in_ring,
                    out_ring + (pending_out,),
                    status,
                    applied_seq,
                    emitted + 1,
                    None,
                    ckpt_seq,
                    ckpt_emitted,
                    delivered,
                    done_received,
                    crashes_left,
                ),
                None,
            )
        )
        # A checkpoint fires only once the batch's output is out (the
        # real worker snapshots after put_frame returns); model it as a
        # separate transition so a crash can land in between.
        if applied_seq % params.checkpoint_every == 0:
            moves.append(
                (
                    f"emit+ckpt(seq {applied_seq})",
                    (
                        next_seq,
                        sentinel_sent,
                        in_ring,
                        out_ring + (pending_out,),
                        status,
                        applied_seq,
                        emitted + 1,
                        None,
                        applied_seq,
                        emitted + 1,
                        delivered,
                        done_received,
                        crashes_left,
                    ),
                    None,
                )
            )

    # -- worker: consume one in-ring frame -----------------------------
    if status == _RUNNING and pending_out is None and in_ring:
        frame, rest = in_ring[0], in_ring[1:]
        if frame[0] == _BATCH:
            seq = frame[1]
            if seq <= applied_seq:
                # Replay duplicate: the worker's sequence gate drops it.
                moves.append(
                    (
                        f"skip(batch {seq})",
                        (
                            next_seq,
                            sentinel_sent,
                            rest,
                            out_ring,
                            status,
                            applied_seq,
                            emitted,
                            pending_out,
                            ckpt_seq,
                            ckpt_emitted,
                            delivered,
                            done_received,
                            crashes_left,
                        ),
                        None,
                    )
                )
            else:
                # Apply, leaving the OUT frame pending (its blocking put
                # is the separate "emit" transition above).
                moves.append(
                    (
                        f"apply(batch {seq})",
                        (
                            next_seq,
                            sentinel_sent,
                            rest,
                            out_ring,
                            status,
                            seq,
                            emitted,
                            (_OUT, emitted),
                            ckpt_seq,
                            ckpt_emitted,
                            delivered,
                            done_received,
                            crashes_left,
                        ),
                        None,
                    )
                )
        else:  # sentinel -> final checkpoint + DONE (blocking put)
            if len(out_ring) < params.ring_capacity:
                moves.append(
                    (
                        "done",
                        (
                            next_seq,
                            sentinel_sent,
                            rest,
                            out_ring + ((_DONE,),),
                            _FINISHED,
                            applied_seq,
                            emitted,
                            None,
                            applied_seq,
                            emitted,
                            delivered,
                            done_received,
                            crashes_left,
                        ),
                        None,
                    )
                )

    # -- crash + supervised recovery (atomic) --------------------------
    if status == _RUNNING and crashes_left > 0:
        salvage_out = out_ring
        new_delivered, new_done = delivered, done_received
        violation = None
        if "no_salvage" not in params.mutations:
            # The supervisor drains the victim's out ring before tearing
            # the rings down, so already-produced outputs survive.
            while salvage_out and violation is None:
                salvage_out, new_delivered, new_done, violation = (
                    _drain_one(
                        salvage_out, new_delivered, new_done, params
                    )
                )
        if "no_replay" in params.mutations:
            replay_from = next_seq  # forgets the un-checkpointed tail
        else:
            replay_from = ckpt_seq + 1
        moves.append(
            (
                f"crash+recover(ckpt {ckpt_seq})",
                (
                    replay_from,
                    False,  # sentinel (if sent) is re-sent after replay
                    (),  # rings are torn down and recreated
                    (),
                    _RUNNING,
                    ckpt_seq,
                    ckpt_emitted,
                    None,
                    ckpt_seq,
                    ckpt_emitted,
                    new_delivered,
                    new_done,
                    crashes_left - 1,
                ),
                violation,
            )
        )

    return moves


def check_model(params: Optional[ModelParams] = None) -> ModelResult:
    """Exhaustively explore the model and check every property."""
    params = params or ModelParams()
    params.validate()
    initial = _initial(params)
    #: state -> (predecessor state, transition label); for traces.
    came_from: Dict[_State, Optional[Tuple[_State, str]]] = {initial: None}
    queue = deque([initial])
    transitions = 0
    terminal_states = 0
    violations: List[Violation] = []
    seen_properties = set()

    def record(prop: str, detail: str, state: _State, label: str) -> None:
        # One counterexample per property keeps the report readable;
        # BFS order makes it a shortest one.
        if prop in seen_properties:
            return
        seen_properties.add(prop)
        violations.append(
            Violation(prop, detail, _trace(came_from, state) + [label])
        )

    while queue:
        state = queue.popleft()
        moves = _successors(state, params)
        if not moves:
            terminal_states += 1
            _check_terminal(state, params, record)
            continue
        for label, successor, violation in moves:
            transitions += 1
            if violation is not None:
                record(violation[0], violation[1], state, label)
                continue  # do not explore past a violated state
            if successor not in came_from:
                came_from[successor] = (state, label)
                queue.append(successor)

    return ModelResult(
        params=params,
        states=len(came_from),
        transitions=transitions,
        terminal_states=terminal_states,
        violations=violations,
    )


def _check_terminal(
    state: _State, params: ModelParams, record
) -> None:
    """Safety checks on a state with no enabled transitions."""
    (
        _next_seq,
        _sentinel_sent,
        in_ring,
        out_ring,
        status,
        _applied_seq,
        _emitted,
        pending_out,
        _ckpt_seq,
        _ckpt_emitted,
        delivered,
        done_received,
        _crashes_left,
    ) = state
    accepting = (
        done_received
        and status == _FINISHED
        and not in_ring
        and not out_ring
        and pending_out is None
        and delivered == params.batches
    )
    if accepting:
        return
    if not done_received:
        prop = "lost_terminal" if status == _FINISHED else "deadlock"
        record(
            prop,
            f"terminal state without DONE delivered "
            f"(worker={'finished' if status == _FINISHED else 'running'}, "
            f"delivered={delivered}/{params.batches})",
            state,
            "<stuck>",
        )
    elif delivered != params.batches:
        record(
            "lost_output",
            f"terminated with {delivered}/{params.batches} outputs "
            f"delivered",
            state,
            "<stuck>",
        )
    else:
        record(
            "deadlock",
            "terminal state with undrained rings",
            state,
            "<stuck>",
        )


def _trace(
    came_from: Dict[_State, Optional[Tuple[_State, str]]], state: _State
) -> List[str]:
    labels: List[str] = []
    cursor: Optional[_State] = state
    while cursor is not None:
        step = came_from.get(cursor)
        if step is None:
            break
        cursor, label = step
        labels.append(label)
    labels.reverse()
    return labels


