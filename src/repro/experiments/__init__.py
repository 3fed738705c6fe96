"""Experiment harness: regenerate every table and figure of the paper.

* :mod:`repro.experiments.configs` — the paper's published numbers and the
  experiment grid;
* :mod:`repro.experiments.tables` — Tables I, II, III (the closed-form
  model at full 12 GB scale) next to the paper's cells;
* :mod:`repro.experiments.figures` — Fig. 1's loads, Fig. 2 load curves
  (theory + measured byte accounting), the speedup-vs-r and speedup-vs-K
  trend sweeps (§V-C), the extended grid behind the "up to 4.11x"
  remark, the ablations and the §VI grouped and wireless tables;
* :mod:`repro.experiments.report` — renders console/markdown reports;
  EXPERIMENTS.md is generated from here (``python -m repro report``).

Each artefact has one producer here; the report, the CLI and the examples
render it and build no rows of their own.
"""

from repro.experiments.tables import table1, table2, table3
from repro.experiments.figures import fig2_series, sweep_r, sweep_k
from repro.experiments.report import render_all, write_experiments_md

__all__ = [
    "table1",
    "table2",
    "table3",
    "fig2_series",
    "sweep_r",
    "sweep_k",
    "render_all",
    "write_experiments_md",
]
