"""Histological prototypes: a per-slide diagonal Gaussian mixture over patch
embeddings, fitted with EM and flattened into one matrix row per component.

Fitting is slide-level preprocessing; survival-loss gradients never flow
into mixture parameters. Everything is deterministic given (rng state, data).

Memory is O(nk + nd): EM never forms the (n, k, d) patch-minus-mean tensor.
Each fit centres the patches once on the slide's mean patch c and keeps
xc = x - c and xc^2. The E-step quadratic is two (n, d) x (d, k) products,
xc^2 (1/var)^T - 2 xc ((mu - c)/var)^T + sum((mu - c)^2/var), clamped at 0;
the M-step takes the first and second moments of xc, so a large common
offset in the features costs no precision in the variances. Before those
products the M-step zeroes responsibilities below the smallest normal
float64: on x86 each product with a sub-normal is many times slower, and
terms below 1e-306 vanish against the component sums, so the fitted bytes
do not change.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BadInput, DegenerateInput

VAR_FLOOR = 1e-6
# fit_gmm stops once the average log-likelihood changes by less than this, relatively
REL_TOL = 1e-5
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


@dataclass(frozen=True)
class _Centred:
    """Patches shifted by the slide's mean patch, with their squares: the
    only (n, d) arrays EM keeps, computed once per fit."""

    x: np.ndarray  # (n, d) the patches as given
    centre: np.ndarray  # (d,) mean patch
    xc: np.ndarray  # (n, d) x - centre
    xc2: np.ndarray  # (n, d) xc * xc


def _centre(x: np.ndarray) -> _Centred:
    centre = x.mean(axis=0)
    xc = x - centre
    return _Centred(x, centre, xc, xc * xc)


def _component_log_densities(data: _Centred, params: GmmParams) -> np.ndarray:
    """(n, k) matrix of log N(x_n; mu_k, diag var_k), with the quadratic
    expanded into two (n, d) x (d, k) products on the centred patches."""
    prec = 1.0 / params.variances
    mc = params.means - data.centre
    quad = data.xc2 @ prec.T - 2.0 * (data.xc @ (mc * prec).T) + (mc * mc * prec).sum(axis=1)[None, :]
    np.maximum(quad, 0.0, out=quad)
    log_det = np.log(params.variances).sum(axis=-1)
    d = data.xc.shape[1]
    return -0.5 * (d * math.log(2.0 * math.pi) + log_det[None, :] + quad)


def _posterior(data: _Centred, params: GmmParams) -> tuple[np.ndarray, np.ndarray]:
    """(n,) mixture log-likelihood of each patch and the (n, k) posterior
    component probabilities, by log-sum-exp over the components."""
    log_joint = _component_log_densities(data, params) + np.log(params.weights)[None, :]
    row_max = log_joint.max(axis=1, keepdims=True)
    shifted = np.exp(log_joint - row_max)
    row_sum = shifted.sum(axis=1, keepdims=True)
    return (row_max + np.log(row_sum)).squeeze(1), shifted / row_sum


def log_density(patches: PatchFeatures, params: GmmParams) -> np.ndarray:
    """(n,) log-likelihood of each patch under the mixture (log-sum-exp)."""
    return _posterior(_centre(patches.patches), params)[0]


def responsibilities(patches: PatchFeatures, params: GmmParams) -> np.ndarray:
    """(n, k) posterior component probabilities per patch."""
    return _posterior(_centre(patches.patches), params)[1]


def _em_step(data: _Centred, params: GmmParams, rng) -> tuple[GmmParams, float, np.ndarray]:
    """One EM update plus the (k,) mask of starved components it re-seeded."""
    n, _ = data.x.shape
    k = params.weights.shape[0]

    log_lik, resp = _posterior(data, params)
    avg_ll = float(np.mean(log_lik))
    # products with sub-normal responsibilities run many times slower on x86;
    # each term is below 1e-306, lost against any nk >= RESCUE_FRACTION * n
    # (a smaller one is re-seeded), so zeroing them keeps the fitted bytes
    resp *= resp >= np.finfo(float).tiny

    nk = resp.sum(axis=0)
    nk_safe = np.maximum(nk, 1e-300)
    weights = nk / n
    # moments about the slide's mean patch: E[x^2] - mu^2 on raw features
    # cancels away every digit a large common offset carries
    mc = (resp.T @ data.xc) / nk_safe[:, None]
    variances = (resp.T @ data.xc2) / nk_safe[:, None] - mc * mc
    means = mc + data.centre

    starved = nk < RESCUE_FRACTION * n
    if starved.any():
        for c in np.flatnonzero(starved):
            means[c] = data.x[rng.integers(n)]
            variances[c] = 1.0
            weights[c] = 1.0 / k
        weights = weights / weights.sum()
    variances = np.maximum(variances, VAR_FLOOR)
    return GmmParams(weights, means, variances), avg_ll, starved


def em_step(patches: PatchFeatures, params: GmmParams, rng: np.random.Generator) -> tuple[GmmParams, float]:
    """One EM update, ``rng`` re-seeding a starved component. Returns the new
    parameters and the average log-likelihood of the *incoming* parameters."""
    new_params, avg_ll, _ = _em_step(_centre(patches.patches), params, rng)
    return new_params, avg_ll


def fit_gmm(
    patches: PatchFeatures,
    n_components: int,
    rng: np.random.Generator,
    max_iters: int = 100,
) -> tuple[GmmParams, EmTrace]:
    """Iterate EM from ``init_gmm`` until the relative change in average
    log-likelihood falls below REL_TOL or ``max_iters`` is reached; ``rng``
    draws the initial means and every re-seed. Raises DegenerateInput
    when one component starves more than MAX_RESCUE_ROUNDS rounds in a row."""
    if max_iters < 1:
        raise BadInput("max_iters must be >= 1")
    n, dim = patches.patches.shape
    if n < n_components:
        warnings.warn(
            f"slide {patches.slide_id}: {n} patches for {n_components} components",
            stacklevel=2,
        )
    params = init_gmm(n_components, dim, rng)
    data = _centre(patches.patches)
    lls: list[float] = []
    rescues = 0
    converged = False
    starved_rounds = np.zeros(n_components, dtype=int)  # consecutive, per component
    previous = None
    for _ in range(max_iters):
        params, avg_ll, starved = _em_step(data, params, rng)
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
