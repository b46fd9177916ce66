"""Reclamation policy for bounded merge state (PR 8).

The seed R3/R4 merges retain every *half-frozen* node — ``Vs < MaxStable
<= Ve`` — forever, because a legal input may still adjust such an event's
Ve.  On revision-free workloads (``Ve = +inf`` everywhere, the common
"point event" case) that is the entire stream: state grows O(stream
length) even when the inputs are element-identical replicas.

:class:`ReclamationPolicy` opts a merge into CTI-driven pruning: when the
stable point advances to *t*, the walk that reconciles the half-frozen
keys also deletes every node below *t* on which every attached input
already *agrees with the output* (each per-stream Ve entry equals the
OUTPUT entry).  Such *settled* nodes carry no information the output
does not: re-inserts of their key are frozen (below stable) and
therefore dropped on both the seed and the reclaiming path.

This is a **semantic relaxation**, which is why it is opt-in
(``reclamation=None`` keeps seed behaviour bit-for-bit): a physically
legal input may adjust an event *after* all replicas agreed on it, and a
merge that pruned the node can no longer detect the disagreement (under
the default LAZY adjust policy the divergence only surfaces at a later
``stable()``).

State stays in memory either way, as in the paper.  What pruning cannot
reclaim is the lag window — keys the leader delivered that a trailing
replica has not confirmed yet — and that window bounds it (docs/MEMORY.md).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ReclamationPolicy:
    """Opt-in bounded-state configuration for R3/R4 merges.

    It has no fields: ``reclamation=ReclamationPolicy()`` turns settled
    pruning on and ``reclamation=None`` leaves it off.  It stays a class,
    not a flag, because callers construct it — lmbench's workloads and the
    Fig. 2 bench among them.  Picklable (plain frozen dataclass) so it
    crosses the process-backend boundary of :func:`repro.lmerge.sharded.shard`
    unchanged.
    """
