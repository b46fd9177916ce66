"""Inputs are a pure function of (workload, seed); schedules keep each
stream's order."""

import workloads
from repro.temporal.elements import Stable


def test_seed_changes_every_family_and_nothing_else_does():
    families = {w.family for w in workloads.WORKLOADS.values()}
    for family in families:
        assert workloads.derive_seed(1, family) != workloads.derive_seed(2, family)
        assert workloads.derive_seed(1, family) == workloads.derive_seed(1, family)
    assert len({workloads.derive_seed(1, family) for family in families}) == len(families)


def test_the_two_r3_workloads_are_fed_the_same_elements():
    batch = workloads.WORKLOADS["disorder_r3_batch"]
    proc = workloads.WORKLOADS["disorder_r3_proc2"]
    assert (batch.family, batch.params) == (proc.family, proc.params)
    assert batch.config_hash() != proc.config_hash()  # but not the same plan


def test_same_seed_same_sha_other_seed_other_sha():
    workload = workloads.WORKLOADS["openclose_r4_lagged"]
    one = workloads.build_inputs(workload, 41)
    again = workloads.build_inputs(workload, 41)
    other = workloads.build_inputs(workload, 42)
    assert one["sha256"] == again["sha256"] != other["sha256"]
    assert one["reference"] == again["reference"]
    assert one["distinct_events"] == int(workload.params["count"])


def test_lagged_schedule_keeps_each_replica_in_order_and_trailing():
    workload = workloads.WORKLOADS["openclose_r4_lagged"]
    replicas, steps, _ = workloads._openclose(workload.params, seed=3)
    delivered = {0: [], 1: [], 2: []}
    first_seen = {}
    position = 0
    for step in steps:
        assert workloads.step_elements(step) <= workloads.BATCH
        for stream_id, elements in step:
            for element in elements:
                delivered[stream_id].append(element)
                first_seen.setdefault((stream_id, id(element)), position)
                position += 1
    base = replicas[0]
    for stream_id in delivered:
        assert delivered[stream_id] == base
    # Replica 2 sees the lag-th element only after replica 0 saw the
    # element `lag` places later.
    lag = int(workload.params["lag"])
    probe = base[100]
    assert first_seen[(2, id(probe))] > first_seen[(0, id(base[100 + lag]))]


def test_step_max_stable_reads_every_segment():
    step = [(0, [Stable(3)]), (1, []), (2, [Stable(9), Stable(4)])]
    assert workloads.step_max_stable(step) == 9
    assert workloads.step_max_stable([(0, [])]) is None
