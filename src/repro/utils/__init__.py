"""Shared utilities: combinatorics, timing, and text-table formatting.

These helpers are deliberately dependency-light; everything above them
(placement, coding, model, experiment harness) builds on this layer.
"""

from repro.utils.subsets import (
    binomial,
    k_subsets,
    subset_rank,
    subset_unrank,
    subsets_containing,
)
from repro.utils.timer import Stopwatch, StageTimes
from repro.utils.tables import format_table

__all__ = [
    "binomial",
    "k_subsets",
    "subset_rank",
    "subset_unrank",
    "subsets_containing",
    "Stopwatch",
    "StageTimes",
    "format_table",
]
