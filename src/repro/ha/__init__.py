"""High availability, jumpstart, and cutover on top of LMerge (Section II).

* :mod:`repro.ha.replica` — replicated deployments with failure injection:
  n copies of a plan feed one LMerge; replicas detach (fail) and re-attach
  (recover), possibly with gaps or duplicated history;
* :mod:`repro.ha.checkpoint` — TDB checkpoints and the query-jumpstart
  replay stream (seed a fresh replica's state so it joins quickly);
* :mod:`repro.ha.switchover` — switching a consumer from one plan to another
  through LMerge without the application noticing.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.ha.checkpoint import Checkpoint, checkpoint_of, replay_stream
    from repro.ha.replica import FailureEvent, ReplicatedDeployment
    from repro.ha.switchover import cutover
    from repro.ha.hierarchy import FragmentChain, ReplicatedFragment
else:
    __getattr__, __dir__, __all__ = lazy_exports(__name__, __file__)
