"""Prototype-based three-modal survival prediction.

Pathology-report segments, whole-slide-image patch features and
transcriptomic pathway expressions are each condensed into a small set of
prototype tokens, fused by one masked attention kernel (the full, late and
hierarchical modes differ only in what it is given), and trained against a
Cox partial-likelihood loss. See README.md for the pipeline walkthrough.
"""

from .data import SyntheticSpec, synth_cohort
from .survival import TrainConfig

__version__ = "0.1.0"
