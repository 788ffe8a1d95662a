"""Non-private streaming frequency sketches.

This subpackage contains the streaming substrate the paper builds on: the
Misra-Gries sketch in the paper's variant (Algorithm 1) and in its standard
form, plus the related counter- and hash-based sketches used as points of
comparison (SpaceSaving, CountMin, CountSketch) and an exact counter.
"""

from .base import FrequencySketch, SketchSummary
from .count_min import CountMinSketch
from .count_sketch import CountSketch
from .exact import ExactCounter
from .merge import merge_many, merge_misra_gries, merge_tree, sum_counters
from .misra_gries import MisraGriesSketch
from .misra_gries_standard import StandardMisraGriesSketch
from .serialization import (
    load_histogram,
    load_sketch,
    save_histogram,
    save_sketch,
)
from .space_saving import SpaceSavingSketch

__all__ = [
    "CountMinSketch",
    "CountSketch",
    "ExactCounter",
    "FrequencySketch",
    "MisraGriesSketch",
    "SketchSummary",
    "SpaceSavingSketch",
    "StandardMisraGriesSketch",
    "load_histogram",
    "load_sketch",
    "merge_many",
    "merge_misra_gries",
    "merge_tree",
    "save_histogram",
    "save_sketch",
    "sum_counters",
]
