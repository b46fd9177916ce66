"""Compile-time LMerge algorithm selection (Section IV-G).

Given the (inferred, stipulated, or measured) properties of the input
streams, pick the cheapest correct algorithm.  The mapping follows the
paper's examples:

1. ordered source streams merged directly -> properties say R0/R1;
2. a Cleanse operator upstream enforces order -> at least R1;
3. in-order stream into a windowed aggregate -> strictly increasing, R0;
4. in-order stream into Top-k -> duplicate timestamps in rank order, R1;
5. grouped aggregation over an ordered stream -> same-Vs order differs
   across replicas but keyed, R2;
6. grouped aggregation over a *disordered* stream -> R3.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Optional, Type, Union

if TYPE_CHECKING:  # pragma: no cover
    from repro.lmerge.sharded import ShardedLMerge

from repro.lmerge.base import LMergeBase
from repro.lmerge.policies import DEFAULT_POLICY, OutputPolicy
from repro.lmerge.r0 import LMergeR0
from repro.lmerge.r1 import LMergeR1
from repro.lmerge.r2 import LMergeR2
from repro.lmerge.r3 import LMergeR3
from repro.lmerge.r4 import LMergeR4
from repro.streams.properties import Restriction, StreamProperties, classify

_ALGORITHMS: Dict[Restriction, Type[LMergeBase]] = {
    Restriction.R0: LMergeR0,
    Restriction.R1: LMergeR1,
    Restriction.R2: LMergeR2,
    Restriction.R3: LMergeR3,
    Restriction.R4: LMergeR4,
}


def algorithm_for(
    spec: Union[Restriction, StreamProperties, Iterable[StreamProperties]],
) -> Type[LMergeBase]:
    """The cheapest LMerge class valid for *spec*.

    *spec* may be an explicit :class:`Restriction`, one
    :class:`StreamProperties`, or the per-input property sets (their meet
    is used — all inputs must satisfy the chosen restriction).
    """
    if isinstance(spec, Restriction):
        return _ALGORITHMS[spec]
    if isinstance(spec, StreamProperties):
        return _ALGORITHMS[classify(spec)]
    properties = list(spec)
    if not properties:
        raise ValueError("no stream properties supplied")
    merged = properties[0]
    for item in properties[1:]:
        merged = merged.meet(item)
    return _ALGORITHMS[classify(merged)]


def restriction_of(merge: object) -> Restriction:
    """The restriction a concrete merge (or merge class) runs under.

    Works for :class:`LMergeBase` subclasses/instances and for
    :class:`~repro.lmerge.sharded.ShardedLMerge` wrappers, which carry their
    inner algorithm's restriction.  Raises :class:`TypeError` for objects
    that declare none — the static analyzer refuses to certify those.
    """
    restriction = getattr(merge, "restriction", None)
    if restriction is None:
        raise TypeError(f"{merge!r} declares no LMerge restriction")
    return Restriction(restriction)


def create_lmerge(
    spec: Union[Restriction, StreamProperties, Iterable[StreamProperties]],
    policy: Optional[OutputPolicy] = None,
    shards: int = 1,
    backend: str = "serial",
    **kwargs,
) -> "Union[LMergeBase, ShardedLMerge]":
    """Instantiate the algorithm :func:`algorithm_for` selects.

    *policy* is honoured by the R3 algorithm only; any other algorithm
    raises ValueError for a non-default one rather than drop it.

    With ``shards > 1`` the selected algorithm is wrapped in an N-shard
    partition-parallel plan (see :func:`repro.lmerge.sharded.shard`) running
    on *backend* workers; the returned object mirrors the LMergeBase
    driving surface.
    """
    cls = algorithm_for(spec)
    if cls is LMergeR3:
        kwargs = dict(kwargs, policy=policy or DEFAULT_POLICY)
    elif policy is not None and policy != DEFAULT_POLICY:
        raise ValueError(f"{cls.algorithm} admits no output-policy choices")
    if shards > 1:
        from repro.lmerge.sharded import shard as make_sharded

        return make_sharded(cls, shards, backend=backend, **kwargs)
    return cls(**kwargs)
