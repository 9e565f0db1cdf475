"""Batched mechanistic phase analysis over array inputs.

One call evaluates N (phase features, memory environment) pairs: it
gathers the :class:`~repro.cores.mechanistic.PhaseFeatures` of each
core type into columns and runs the model body of
:mod:`repro.cores.mechanistic` on them with numpy's ``minimum`` and
``where``.  The body is the one the scalar analyzers run on floats,
and element-wise float64 ops round like Python float ops, so every
output matches the scalar analyzer bit for bit.

Results come back as a :class:`BatchPhaseAnalysis` with a unified
seven-column structure layout (:data:`STRUCTURE_COLUMNS`); columns a
core type does not have are exactly ``0.0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.config.structures import StructureKind
from repro.cores.mechanistic import (
    BIG_STRUCTURES,
    SMALL_STRUCTURES,
    PhaseFeatures,
    model_body,
)

#: Unified structure-column order of the batched ACE/occupancy arrays.
STRUCTURE_COLUMNS: tuple[StructureKind, ...] = (
    StructureKind.ROB,
    StructureKind.ISSUE_QUEUE,
    StructureKind.LOAD_QUEUE,
    StructureKind.STORE_QUEUE,
    StructureKind.REGISTER_FILE,
    StructureKind.FUNCTIONAL_UNITS,
    StructureKind.PIPELINE_LATCHES,
)

_COL = {kind: i for i, kind in enumerate(STRUCTURE_COLUMNS)}

#: Each core type's structure order, as column indices -- the fold
#: order of the scalar analyzers' ``sum(dict.values())``.
BIG_KEY_COLUMNS = tuple(_COL[kind] for kind in BIG_STRUCTURES)
SMALL_KEY_COLUMNS = tuple(_COL[kind] for kind in SMALL_STRUCTURES)

#: The model body's ops on numpy arrays.
ARRAY_OPS = (np.minimum, np.where)


@dataclass
class BatchPhaseAnalysis:
    """Columnar phase-analysis results for N (features, env) pairs.

    Attributes:
        cpi: per-pair CPI.
        ace / occupancy: (N, 7) bit-rate arrays in
            :data:`STRUCTURE_COLUMNS` order.
        dram_pi / l3_pi: per-instruction DRAM / L3 access rates.
    """

    cpi: np.ndarray
    ace: np.ndarray
    occupancy: np.ndarray
    dram_pi: np.ndarray
    l3_pi: np.ndarray


class _Columns:
    """Column view of features sharing one core: each attribute the
    model body reads is gathered into an array on first access.

    The functional-unit pools' latency, capacity and width are fixed
    by the core, so only their mix fractions become columns.
    """

    def __init__(self, feats: Sequence[PhaseFeatures]):
        self._feats = feats
        self.pools = tuple(
            (np.array([f.pools[p][0] for f in feats]), *pool[1:])
            for p, pool in enumerate(feats[0].pools)
        )

    def __getattr__(self, name: str) -> np.ndarray:
        column = np.array([getattr(f, name) for f in self._feats])
        setattr(self, name, column)
        return column


def analyze_phase_batch(
    feats: Sequence[PhaseFeatures],
    shares: Sequence[float] | np.ndarray,
    mults: Sequence[float] | np.ndarray,
) -> BatchPhaseAnalysis:
    """Analyze N (features, environment) pairs in one shot.

    Pairs may mix core types and core configs; they are grouped by
    core (the functional-unit term needs one pool layout per group)
    and reassembled in input order.
    """
    n = len(feats)
    shares = np.asarray(shares, dtype=np.float64)
    mults = np.asarray(mults, dtype=np.float64)
    out = BatchPhaseAnalysis(
        cpi=np.zeros(n),
        ace=np.zeros((n, 7)),
        occupancy=np.zeros((n, 7)),
        dram_pi=np.zeros(n),
        l3_pi=np.zeros(n),
    )
    groups: dict[int, list[int]] = {}
    for i, feat in enumerate(feats):
        groups.setdefault(id(feat.core), []).append(i)
    for indices in groups.values():
        idx = np.array(indices, dtype=np.intp)
        cols = _Columns([feats[i] for i in indices])
        body, structures = model_body(feats[indices[0]].core)
        _, _, cpi, _, m3, ace, occupancy = body(
            cols, shares[idx], mults[idx], *ARRAY_OPS
        )
        out.cpi[idx] = cpi
        out.dram_pi[idx] = m3
        out.l3_pi[idx] = cols.m2
        for kind, a, o in zip(structures, ace, occupancy):
            out.ace[idx, _COL[kind]] = a
            out.occupancy[idx, _COL[kind]] = o
    return out
