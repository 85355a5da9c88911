"""Histological prototypes: a per-slide diagonal Gaussian mixture over patch
embeddings, fitted with EM and flattened into one matrix row per component.

Fitting is slide-level preprocessing; survival-loss gradients never flow
into mixture parameters. Everything is deterministic given (rng state, data).

EM needs O(block d + n k) memory beyond the patches: it never forms the
(n, k, d) patch-minus-mean tensor, nor a centred copy of the slide. Each
iteration is one pass over row blocks of at most BLOCK_BYTES per (rows, d)
array. A block is centred on the slide's mean patch c, as xc = x - c and
xc^2, and the E-step quadratic is two (rows, d) x (d, k) products,
xc^2 (1/var)^T - 2 xc ((mu - c)/var)^T + sum((mu - c)^2/var), clamped at 0.
The block's counts and first and second moments of xc add to the M-step
sums, so a large common offset in the features costs no precision in the
variances. Before those products the M-step zeroes responsibilities below
the smallest normal float64: on x86 each product with a sub-normal is many
times slower, and terms below 1e-306 vanish against the component sums, so
the fitted bytes do not change.

A slide that fits in one block (every synthetic slide at d = 16) is centred
once per fit and keeps the bits of a whole-slide computation. A larger slide
differs from that only in rounding: the order of the M-step sums, and a
block's products where BLAS takes another kernel for its row count. On
4096 x 384 slides the fitted parameters and log-likelihood traces stay
within 2e-15 of the whole-slide fit, relative to each array's largest
entry, with the same iteration counts.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BadInput, DegenerateInput

VAR_FLOOR = 1e-6
# EM streams a slide in row blocks of at most this many bytes per (rows, d) float64 array
BLOCK_BYTES = 256 * 1024
# fit_gmm stops once the average log-likelihood changes by less than this, relatively
REL_TOL = 1e-5
# and after this many EM iterations at most
MAX_ITERS = 100
# a component owning less than this fraction of total responsibility is re-seeded
RESCUE_FRACTION = 1e-8
# fit_gmm gives up when one component starves more rounds than this in a row
MAX_RESCUE_ROUNDS = 3


@dataclass
class PatchFeatures:
    slide_id: str
    patches: np.ndarray  # (n_patches, d_h)


@dataclass
class GmmParams:
    weights: np.ndarray  # (k,), positive, sums to 1
    means: np.ndarray  # (k, d_h)
    variances: np.ndarray  # (k, d_h) diagonal covariances, >= VAR_FLOOR


@dataclass
class EmTrace:
    log_likelihoods: list[float]  # per-iteration average log-likelihood (pre-update)
    iterations: int
    converged: bool
    rescues: int = 0  # starved components re-seeded over the whole fit


def init_gmm(n_components: int, dim: int, rng: np.random.Generator) -> GmmParams:
    """Means drawn from N(0, 0.1^2) by ``rng``, unit variances, uniform weights."""
    if n_components < 1 or dim < 1:
        raise BadInput("n_components and dim must be >= 1")
    return GmmParams(
        weights=np.full(n_components, 1.0 / n_components),
        means=rng.normal(scale=0.1, size=(n_components, dim)),
        variances=np.ones((n_components, dim)),
    )


def _block_rows(dim: int) -> int:
    """Rows per block: as many dim-wide float64 rows as fit in BLOCK_BYTES, at least one."""
    return max(1, BLOCK_BYTES // (8 * dim))


def _row_blocks(x: np.ndarray, centre: np.ndarray):
    """(rows, xc, xc2) per block of ``_block_rows`` patches, in row order: the
    block's row slice, its patches minus ``centre`` and their squares. An
    empty slide gives one empty block."""
    n, d = x.shape
    step = _block_rows(d)
    for start in range(0, max(n, 1), step):
        xc = x[start : start + step] - centre
        yield slice(start, start + step), xc, xc * xc


def _centred_blocks(x: np.ndarray):
    """The slide's mean patch and a function returning its centred row blocks.
    A slide of one block is centred here, once, and every call returns that
    block; a larger slide is centred block by block on every call."""
    centre = x.mean(axis=0)
    if x.shape[0] <= _block_rows(x.shape[1]):
        one = list(_row_blocks(x, centre))
        return centre, lambda: one
    return centre, lambda: _row_blocks(x, centre)


def _posterior(blocks, centre: np.ndarray, params: GmmParams, log_lik: np.ndarray):
    """Per centred block of ``blocks``: (rows, xc, xc2, (rows, k) posterior
    component probabilities), once the block's mixture log-likelihoods are
    written into ``log_lik[rows]`` of the (n,) vector ``log_lik``. The
    quadratic of log N(x; mu_k, diag var_k) is two (rows, d) x (d, k)
    products on the centred patches, and the posterior a log-sum-exp over
    the components. Both are row-wise, but BLAS may round a row's products
    differently when its block has another number of rows."""
    prec = 1.0 / params.variances
    mc = params.means - centre
    scaled_mc = (mc * prec).T
    offset = (mc * mc * prec).sum(axis=1)[None, :]
    log_norm = centre.shape[0] * math.log(2.0 * math.pi) + np.log(params.variances).sum(axis=-1)[None, :]
    log_weights = np.log(params.weights)[None, :]
    for rows, xc, xc2 in blocks:
        quad = xc2 @ prec.T - 2.0 * (xc @ scaled_mc) + offset
        np.maximum(quad, 0.0, out=quad)
        log_joint = -0.5 * (log_norm + quad) + log_weights
        row_max = log_joint.max(axis=1, keepdims=True)
        shifted = np.exp(log_joint - row_max)
        row_sum = shifted.sum(axis=1, keepdims=True)
        shifted /= row_sum
        np.log(row_sum, out=row_sum)
        np.add(row_max, row_sum, out=log_lik[rows, None])
        yield rows, xc, xc2, shifted


def log_density(patches: PatchFeatures, params: GmmParams) -> np.ndarray:
    """(n,) log-likelihood of each patch under the mixture (log-sum-exp)."""
    centre, blocks = _centred_blocks(patches.patches)
    out = np.empty(patches.patches.shape[0])
    for _ in _posterior(blocks(), centre, params, out):
        pass
    return out


def responsibilities(patches: PatchFeatures, params: GmmParams) -> np.ndarray:
    """(n, k) posterior component probabilities per patch."""
    centre, blocks = _centred_blocks(patches.patches)
    out = np.empty((patches.patches.shape[0], params.weights.shape[0]))
    for rows, _, _, resp in _posterior(blocks(), centre, params, np.empty(patches.patches.shape[0])):
        out[rows] = resp
    return out


def _em_step(x: np.ndarray, centre: np.ndarray, blocks, params: GmmParams, rng) -> tuple[GmmParams, float, np.ndarray]:
    """One EM update in one pass over the centred row ``blocks`` of the patches
    ``x``, plus the (k,) mask of starved components it re-seeded."""
    n, _ = x.shape
    k = params.weights.shape[0]

    log_lik = np.empty(n)
    for rows, xc, xc2, resp in _posterior(blocks, centre, params, log_lik):
        # products with sub-normal responsibilities run many times slower on x86;
        # each term is below 1e-306, lost against any nk >= RESCUE_FRACTION * n
        # (a smaller one is re-seeded), so zeroing them keeps the fitted bytes
        resp *= resp >= np.finfo(float).tiny
        # moments about the slide's mean patch: E[x^2] - mu^2 on raw features
        # cancels away every digit a large common offset carries. The first
        # block's sums are assigned, not added to zeros, so a one-block slide
        # keeps every bit (0.0 + -0.0 is +0.0)
        if rows.start == 0:
            nk, first, second = resp.sum(axis=0), resp.T @ xc, resp.T @ xc2
        else:
            nk += resp.sum(axis=0)
            first += resp.T @ xc
            second += resp.T @ xc2
    avg_ll = float(np.mean(log_lik))

    nk_safe = np.maximum(nk, 1e-300)
    weights = nk / n
    mc = first / nk_safe[:, None]
    variances = second / nk_safe[:, None] - mc * mc
    means = mc + centre

    starved = nk < RESCUE_FRACTION * n
    if starved.any():
        for c in np.flatnonzero(starved):
            means[c] = x[rng.integers(n)]
            variances[c] = 1.0
            weights[c] = 1.0 / k
        weights = weights / weights.sum()
    variances = np.maximum(variances, VAR_FLOOR)
    return GmmParams(weights, means, variances), avg_ll, starved


def em_step(patches: PatchFeatures, params: GmmParams, rng: np.random.Generator) -> tuple[GmmParams, float]:
    """One EM update, ``rng`` re-seeding a starved component. Returns the new
    parameters and the average log-likelihood of the *incoming* parameters."""
    centre, blocks = _centred_blocks(patches.patches)
    new_params, avg_ll, _ = _em_step(patches.patches, centre, blocks(), params, rng)
    return new_params, avg_ll


def fit_gmm(
    patches: PatchFeatures,
    n_components: int,
    rng: np.random.Generator,
) -> tuple[GmmParams, EmTrace]:
    """Iterate EM from ``init_gmm`` until the relative change in average
    log-likelihood falls below REL_TOL or MAX_ITERS is reached; ``rng``
    draws the initial means and every re-seed. Raises BadInput for a slide
    without patches, and DegenerateInput when one component starves more
    than MAX_RESCUE_ROUNDS rounds in a row."""
    n, dim = patches.patches.shape
    if n == 0:
        raise BadInput(f"slide {patches.slide_id}: no patches")
    if n < n_components:
        warnings.warn(
            f"slide {patches.slide_id}: {n} patches for {n_components} components",
            stacklevel=2,
        )
    params = init_gmm(n_components, dim, rng)
    centre, blocks = _centred_blocks(patches.patches)
    lls: list[float] = []
    rescues = 0
    converged = False
    starved_rounds = np.zeros(n_components, dtype=int)  # consecutive, per component
    previous = None
    for _ in range(MAX_ITERS):
        params, avg_ll, starved = _em_step(patches.patches, centre, blocks(), params, rng)
        rescues += int(starved.sum())
        starved_rounds = np.where(starved, starved_rounds + 1, 0)
        if starved_rounds.max() > MAX_RESCUE_ROUNDS:
            raise DegenerateInput(
                f"slide {patches.slide_id}: re-seeding failed {MAX_RESCUE_ROUNDS} times in a row"
            )
        lls.append(avg_ll)
        if previous is not None and abs(avg_ll - previous) / max(abs(avg_ll), 1.0) < REL_TOL:
            converged = True
            break
        previous = avg_ll
    return params, EmTrace(lls, len(lls), converged, rescues)


def slide_representation(params: GmmParams) -> np.ndarray:
    """Stack [weight, mean, variance-diagonal] per component into an
    (k, 1 + 2 d_h) matrix, rows sorted by descending weight (ties keep
    component order)."""
    k = params.weights.shape[0]
    order = np.lexsort((np.arange(k), -params.weights))
    return np.concatenate(
        [params.weights[order, None], params.means[order], params.variances[order]],
        axis=1,
    )
