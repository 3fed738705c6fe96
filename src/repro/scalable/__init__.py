"""Scalable (grouped) coded sorting — the paper's §VI future direction.

CodedTeraSort's CodeGen stage costs ``C(K, r+1)`` multicast-group setups,
which the paper identifies as the scalability wall ("Scalable Coding",
§VI): at K=20, r=5 it already burns 140.91 s of the 441.10 s total.  The
group-based construction of the authors' follow-up work [24] trades a
bounded amount of communication load for an exponential CodeGen saving:

* the ``K`` nodes are partitioned into ``G = K / g`` groups of ``g``;
* **every group stores the whole dataset**, placed within the group under
  the usual ``r``-redundant coded placement (so per-node storage and Map
  work rise from ``r/K`` to ``r/g`` of the input);
* each node still reduces one of the ``K`` key partitions, and all the
  intermediate values it needs live *inside its own group* — shuffles are
  entirely intra-group coded multicasts, and the ``G`` group shuffles can
  run concurrently;
* CodeGen shrinks from ``C(K, r+1)`` groups to ``C(g, r+1)`` per group —
  e.g. 38,760 -> 210 per group at K=20, g=10, r=5.

The communication load rises from ``(1/r)(1 - r/K)`` to ``(1/r)(1 - r/g)``
(Eq. (2) with K -> g).

This package holds only the closed forms (:mod:`repro.scalable.theory`).
The construction itself is not a separate program: it is the
``group_size`` field of :class:`repro.session.CodedTeraSortSpec` on the
one coded pipeline in :mod:`repro.core.coded_terasort`, and the ``group_size``
argument of :func:`repro.sim.model.simulate_coded_terasort` /
:class:`repro.sim.workload.CodedWorkload` in the closed-form model.
"""

from repro.scalable.theory import (
    grouped_codegen_groups,
    grouped_comm_load,
    grouped_vs_full,
)

__all__ = [
    "grouped_comm_load",
    "grouped_codegen_groups",
    "grouped_vs_full",
]
