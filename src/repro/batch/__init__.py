"""Cross-run batched simulation (`repro.batch`).

One struct-of-arrays :class:`~repro.batch.simstate.SimState` advances
an entire sweep -- every workload mix x machine x scheduler -- quantum
by quantum as numpy array ops, evaluating the mechanistic model of
:mod:`repro.cores.mechanistic` on arrays of phases and environments
(:mod:`repro.batch.analysis`).  The scalar engine
(:mod:`repro.sim.multicore`) stays the reference implementation:
batched results are byte-identical to it (see ``docs/batching.md``
for the tolerance policy) and are differentially fuzzed against it by
``repro check --batch-cases``.
"""

from repro.batch.simstate import SimState
from repro.batch.sweep import BatchRunRequest, run_workload_batch

__all__ = [
    "BatchRunRequest",
    "SimState",
    "run_workload_batch",
]
