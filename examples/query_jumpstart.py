"""Query jumpstart and cutover in a cloud setting (Section II, apps 4-5).

A long-running query holds long-lived events in state; restarting it from
the live stream alone would take forever to warm up.  Instead:

1. checkpoint the running query's logical state at its stable point;
2. spin up a new instance seeded with the checkpoint (replayed as
   inserts) followed by the live tail — the *jumpstart*;
3. attach it to LMerge with the checkpoint time as its guarantee point;
4. once the output stable point passes the guarantee, *cut over*: detach
   the old instance; the consumer never notices.

Run:  python examples/query_jumpstart.py
"""

from repro import (
    GeneratorConfig,
    LMergeR3,
    StreamGenerator,
    checkpoint_of,
    diverge,
    replay_stream,
)
from repro.ha.switchover import cutover


def main() -> None:
    reference = StreamGenerator(
        GeneratorConfig(
            count=8_000,
            seed=21,
            disorder=0.2,
            stable_freq=0.05,
            payload_blob_bytes=16,
            event_duration=2_000,  # long-lived state worth seeding
        )
    ).generate()
    old_plan = diverge(reference, seed=1)
    new_plan = diverge(reference, seed=2)

    merge = LMergeR3()
    merge.attach("old")

    # The old instance has been running for a while.
    progress = int(len(old_plan) * 0.6)
    for element in old_plan[:progress]:
        merge.process(element, "old")
    as_of = merge.max_stable
    print(f"old instance drove the output to stable point {as_of}")

    # Checkpoint the logical state: only events still relevant at as_of.
    state = merge.output.tdb()
    checkpoint = checkpoint_of(state, as_of=as_of)
    print(f"checkpoint@{as_of}: {len(checkpoint)} live events "
          f"(of {len(state)} total in history)")

    # The new instance = checkpoint replay + the live tail it will see.
    # (In production the tail comes from the real-time feed; here we give
    # it the portion of its own plan's output past the checkpoint.)
    tail = [
        element
        for element in new_plan
        if getattr(element, "vs", getattr(element, "vc", None)) is None
        or getattr(element, "vs", getattr(element, "vc", 0)) >= as_of
    ]
    newcomer = replay_stream(checkpoint, tail)
    print(f"jumpstarted instance: {len(newcomer)} elements "
          f"({len(checkpoint)} seeded + {len(tail)} live)")

    # Cut the merge over from the old instance to the newcomer.
    old_tail = iter(old_plan[progress:])
    old_used, new_used = cutover(
        merge,
        old_id="old",
        old_tail=old_tail,
        new_id="new",
        new_stream=newcomer,
        guarantee_from=as_of,
    )
    print(f"cutover complete: old instance served {old_used} more "
          f"elements, then detached; newcomer drove {new_used}")

    assert not merge.is_attached("old")
    assert merge.is_joined("new")
    assert merge.output.tdb() == reference.tdb()
    print("OK: consumer saw one uninterrupted, correct logical stream")


if __name__ == "__main__":
    main()
