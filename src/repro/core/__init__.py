"""The paper's contribution: TeraSort, CodedTeraSort, and Coded MapReduce.

Layering (bottom-up):

* :mod:`repro.core.partitioner` — key-domain partitioning (§III-A2);
* :mod:`repro.core.placement` — file placement: the structured redundant
  placement over ``r``-subsets (§IV-A); uncoded (§III-A1) is ``r = 1``;
* :mod:`repro.core.mapper` — the Map-stage hash of files into per-partition
  intermediate values (§III-A3, §IV-B), with the coded retention rule;
* :mod:`repro.core.groups` — multicast groups and the CodeGen stage (§V-A);
* :mod:`repro.core.encoding` / :mod:`repro.core.decoding` — Algorithms 1
  and 2 (§IV-C, §IV-E);
* :mod:`repro.core.coded_terasort` / :mod:`repro.core.terasort` — the
  one coded pipeline (§IV), run under a law (the sort's, or a general
  job's), and uncoded TeraSort (§III), its ``r = 1`` corner under an
  uncoded shuffle; each sort with its job spec (the one declaration of
  every option, and the coordinator-side compile);
* :mod:`repro.core.cmr` — general Coded MapReduce (§II): the job API,
  its law for the coded pipeline and its spec, with ready-made jobs
  (WordCount, Grep, SelfJoin, InvertedIndex) in :mod:`repro.core.jobs`;
* :mod:`repro.core.theory` — every closed form over ``(K, r, g, D)``:
  the loads and run-time model (Eqs. (2)-(5), Fig. 2), one job's counts
  and per-stage volumes, and the one ``(K, r, g)`` validator.
"""

from repro.core.partitioner import RangePartitioner
from repro.core.placement import CodedPlacement, UncodedPlacement
from repro.core.terasort import TeraSortProgram
from repro.core.coded_terasort import CodedTeraSortProgram
from repro.core.theory import (
    coded_comm_load,
    uncoded_comm_load,
    optimal_r,
    predicted_total_time,
)

__all__ = [
    "RangePartitioner",
    "CodedPlacement",
    "UncodedPlacement",
    "TeraSortProgram",
    "CodedTeraSortProgram",
    "coded_comm_load",
    "uncoded_comm_load",
    "optimal_r",
    "predicted_total_time",
]
