"""Seed-derived random substreams.

Every random consumer in the package draws from its own named substream of
one run seed, so adding a consumer never perturbs the numbers another one
sees. Extra integer keys (fold index, slide index, epoch) further split a
stream deterministically.
"""

from __future__ import annotations

import numpy as np

from .errors import BadInput

_STREAMS = {
    "init": 1,      # model parameter initialisation
    "shuffle": 2,   # per-epoch minibatch shuffling
    "gmm": 3,       # mixture initialisation / degenerate-component rescue
    "synth": 4,     # synthetic cohort generation
    "fold": 5,      # k-fold assignment
}


def substream(seed: int, name: str, *key: int) -> np.random.Generator:
    """Return the generator for substream ``name`` of ``seed``, a nonnegative integer."""
    if seed < 0:
        raise BadInput(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(np.random.SeedSequence((int(seed), _STREAMS[name], *key)))
