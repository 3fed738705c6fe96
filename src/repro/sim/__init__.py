"""The paper's EC2 runs as a closed-form model calibrated to Tables I-III.

The paper's evaluation ran on EC2 ``m3.large`` instances throttled to
100 Mbps.  This package reproduces those experiments at full scale (12 GB,
K = 16/20) without the cluster: every stage is one cost law
(:mod:`repro.sim.costmodel`, calibrated against Tables I-III) applied to
the balanced per-node volumes (:mod:`repro.sim.workload`), and the shuffle
is the Fig. 9 schedule's turn or round count times one transfer time
(:mod:`repro.sim.model`).

Entry points: :func:`repro.sim.model.simulate_terasort` and
:func:`repro.sim.model.simulate_coded_terasort`.  :mod:`repro.sim.des`
(a generator-based discrete-event engine) and :mod:`repro.sim.network`
(the fabric on it) replay a modelled shuffle transfer by transfer; the
tests check the closed forms against them.
"""

from repro.sim.costmodel import EC2CostModel
from repro.sim.model import (
    SimReport,
    simulate_coded_terasort,
    simulate_terasort,
)

__all__ = [
    "EC2CostModel",
    "SimReport",
    "simulate_terasort",
    "simulate_coded_terasort",
]
