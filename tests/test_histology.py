import math
import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from protosurv.data import SyntheticSpec, synth_cohort
from protosurv.histology import (
    EmTrace,
    GmmParams,
    PatchFeatures,
    RESCUE_FRACTION,
    VAR_FLOOR,
    em_step,
    fit_gmm,
    init_gmm,
    log_density,
    responsibilities,
    slide_representation,
)
from protosurv.numerics import affine
from protosurv.rng import substream


def _cluster_slide(seed, n=200, d=8, k=3, scale=2.5, noise=0.5):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=scale, size=(k, d))
    labels = rng.integers(0, k, size=n)
    x = centers[labels] + rng.normal(scale=noise, size=(n, d))
    return PatchFeatures(f"slide{seed}", x), labels, centers


def _direct_log_densities(x, params):
    """(n, k) log N(x_n; mu_k, diag var_k) from the (n, k, d) difference
    tensor: the textbook form, kept as the oracle of the matmul expansion."""
    diff = x[:, None, :] - params.means[None, :, :]
    quad = (diff * diff / params.variances[None, :, :]).sum(axis=-1)
    log_det = np.log(params.variances).sum(axis=-1)
    return -0.5 * (x.shape[1] * math.log(2.0 * math.pi) + log_det[None, :] + quad)


def _floored_params(rng, k, d):
    variances = rng.uniform(0.3, 3.0, size=(k, d))
    variances[rng.random(size=(k, d)) < 0.2] = VAR_FLOOR
    weights = rng.uniform(0.5, 1.5, size=k)
    return GmmParams(weights / weights.sum(), rng.normal(size=(k, d)), variances)


def test_init_gmm_defaults_at_paper_scale():
    params = init_gmm(16, 512, seed=0)
    np.testing.assert_allclose(params.weights, np.full(16, 1 / 16))
    assert np.all(params.variances == 1.0)
    assert abs(params.means.std() - 0.1) < 0.005


def test_init_gmm_deterministic():
    a = init_gmm(4, 8, seed=123)
    b = init_gmm(4, 8, seed=123)
    np.testing.assert_array_equal(a.means, b.means)


def test_init_gmm_single_component():
    np.testing.assert_array_equal(init_gmm(1, 3, seed=0).weights, [1.0])


def test_log_density_standard_normal():
    params = GmmParams(np.array([1.0]), np.zeros((1, 1)), np.ones((1, 1)))
    got = log_density(PatchFeatures("s", np.array([[0.0]])), params)
    assert got.shape == (1,)
    assert abs(got[0] - math.log(1 / math.sqrt(2 * math.pi))) < 1e-12


def test_log_density_duplicate_components_collapse():
    single = GmmParams(np.array([1.0]), np.array([[0.5, -0.2]]), np.array([[1.5, 0.7]]))
    double = GmmParams(
        np.array([0.5, 0.5]),
        np.array([[0.5, -0.2], [0.5, -0.2]]),
        np.array([[1.5, 0.7], [1.5, 0.7]]),
    )
    x = PatchFeatures("s", np.array([[0.3, 1.1]]))
    assert abs(log_density(x, single)[0] - log_density(x, double)[0]) < 1e-12


def test_log_density_matches_direct_sum_oracle():
    rng = np.random.default_rng(5)
    params = GmmParams(
        np.array([0.3, 0.7]),
        rng.normal(size=(2, 3)),
        rng.uniform(0.5, 2.0, size=(2, 3)),
    )
    x = rng.normal(size=3)
    total = 0.0
    for c in range(2):
        dens = 1.0
        for j in range(3):
            var = params.variances[c, j]
            dens *= math.exp(-((x[j] - params.means[c, j]) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)
        total += params.weights[c] * dens
    assert abs(log_density(PatchFeatures("s", x[None]), params)[0] - math.log(total)) < 1e-12


def test_responsibilities_match_direct_oracle():
    rng = np.random.default_rng(16)
    for _ in range(20):
        params = _floored_params(rng, 4, 6)
        # patches drawn from the mixture, so floored components own theirs
        labels = rng.integers(0, 4, size=60)
        x = params.means[labels] + rng.normal(size=(60, 6)) * np.sqrt(params.variances[labels])
        log_joint = _direct_log_densities(x, params) + np.log(params.weights)[None, :]
        expect = np.exp(log_joint - log_joint.max(axis=1, keepdims=True))
        expect /= expect.sum(axis=1, keepdims=True)
        got = responsibilities(PatchFeatures("s", x), params)
        # a responsibility's relative error is the absolute error of its log,
        # which grows with the log-joint itself: 1e-10 relative, on the log scale
        np.testing.assert_array_equal(got == 0, expect == 0)
        live = expect > 0
        log_expect = np.log(expect[live])
        assert np.all(np.abs(np.log(got[live]) - log_expect) <= 1e-10 * np.maximum(1.0, np.abs(log_expect)))


def test_log_density_matches_direct_oracle_with_floored_variances():
    rng = np.random.default_rng(17)
    for _ in range(20):
        params = _floored_params(rng, 4, 6)
        x = np.stack([rng.normal(size=6), params.means[rng.integers(0, 4)]])
        got = log_density(PatchFeatures("s", x), params)
        for row, value in zip(x, got):
            log_joint = _direct_log_densities(row[None, :], params)[0] + np.log(params.weights)
            m = log_joint.max()
            expect = m + math.log(np.exp(log_joint - m).sum())
            assert abs(value - expect) <= 1e-10 * abs(expect)


def test_em_step_single_component_closed_form():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(40, 3))
    params, _ = em_step(PatchFeatures("s", x), init_gmm(1, 3, seed=0), np.random.default_rng(0))
    np.testing.assert_allclose(params.means[0], x.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(params.variances[0], np.maximum(x.var(axis=0), VAR_FLOOR), atol=1e-12)
    assert abs(params.weights[0] - 1.0) < 1e-12


def test_em_step_reaches_cluster_centroids_from_nearby_init():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(60, 2)) * 0.1 + np.array([5.0, 5.0])
    b = rng.normal(size=(60, 2)) * 0.1 + np.array([-5.0, -5.0])
    x = np.vstack([a, b])
    params = GmmParams(np.array([0.5, 0.5]), np.array([[4.0, 4.0], [-4.0, -4.0]]), np.ones((2, 2)))
    for _ in range(50):
        params, _ = em_step(PatchFeatures("s", x), params, np.random.default_rng(0))
    centroids = np.array([a.mean(axis=0), b.mean(axis=0)])
    assert np.max(np.abs(np.sort(params.means, axis=0) - np.sort(centroids, axis=0))) < 1e-6


def test_em_step_monotone_log_likelihood():
    patches, _, _ = _cluster_slide(3)
    params = init_gmm(3, patches.patches.shape[1], seed=3)
    previous = None
    for _ in range(30):
        params, avg_ll = em_step(PatchFeatures("s", patches.patches), params, np.random.default_rng(0))
        if previous is not None:
            assert avg_ll - previous >= -1e-8
        previous = avg_ll


def test_em_step_invariants():
    patches, _, _ = _cluster_slide(4)
    params = init_gmm(4, patches.patches.shape[1], seed=4)
    params, _ = em_step(patches, params, np.random.default_rng(0))
    assert abs(params.weights.sum() - 1.0) < 1e-9
    assert np.all(params.variances >= VAR_FLOOR)
    resp = responsibilities(patches, params)
    np.testing.assert_allclose(resp.sum(axis=1), np.ones(len(resp)), atol=1e-9)


def test_fit_gmm_single_iteration():
    patches, _, _ = _cluster_slide(8)
    params_one, trace = fit_gmm(patches, 2, seed=0, max_iters=1)
    assert trace.iterations == 1 and not trace.converged
    step_params, _ = em_step(patches, init_gmm(2, patches.patches.shape[1], substream(0, "gmm")),
                             substream(0, "gmm"))
    np.testing.assert_allclose(params_one.means, step_params.means, atol=1e-12)


def test_fit_gmm_recovers_three_clusters():
    patches, labels, _ = _cluster_slide(0, d=16)
    params, trace = fit_gmm(patches, 3, substream(0, "gmm", 0))
    assert trace.converged and trace.rescues == 0
    hard = responsibilities(patches, params).argmax(axis=1)
    best = max(
        sum((hard[labels == t] == p).sum() for t, p in enumerate(perm))
        for perm in permutations(range(3))
    )
    assert best == len(labels)


def test_em_trace_rescues_default_to_zero():
    assert EmTrace([0.0], 1, False).rescues == 0


def test_fit_gmm_deterministic():
    patches, _, _ = _cluster_slide(9)
    a_params, a_trace = fit_gmm(patches, 3, seed=11)
    b_params, b_trace = fit_gmm(patches, 3, seed=11)
    np.testing.assert_array_equal(a_params.means, b_params.means)
    assert a_trace.log_likelihoods == b_trace.log_likelihoods


def test_fit_gmm_patch_order_invariance():
    patches, _, _ = _cluster_slide(10)
    shuffled = PatchFeatures("s", patches.patches[::-1].copy())
    rep_a = slide_representation(fit_gmm(patches, 3, seed=2)[0])
    rep_b = slide_representation(fit_gmm(shuffled, 3, seed=2)[0])
    assert np.max(np.abs(rep_a - rep_b)) < 1e-9


def test_fit_gmm_single_component_one_step_exact():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(50, 4))
    params, _ = fit_gmm(PatchFeatures("s", x), 1, seed=0, max_iters=1)
    np.testing.assert_allclose(params.means[0], x.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(params.variances[0], x.var(axis=0), atol=1e-12)


def test_fit_gmm_warns_on_few_patches():
    rng = np.random.default_rng(13)
    with pytest.warns(UserWarning):
        fit_gmm(PatchFeatures("s", rng.normal(size=(3, 2))), 5, seed=0, max_iters=2)


def test_fit_gmm_identical_patches_resolved():
    x = np.ones((30, 4))
    params, trace = fit_gmm(PatchFeatures("s", x), 2, seed=0)
    assert np.all(np.isfinite(params.means))
    assert np.all(params.variances >= VAR_FLOOR)


def test_fit_gmm_survives_separate_rescues():
    # this slide re-seeds starved components in more than MAX_RESCUE_ROUNDS
    # rounds over the fit, but every re-seeded component recovers
    patches = synth_cohort(SyntheticSpec(n_patients=300, seed=11)).patches[35]
    params, trace = fit_gmm(patches, 16, substream(0, "gmm", 35))
    assert np.all(np.isfinite(params.means))
    assert np.all(params.variances >= VAR_FLOOR)
    assert trace.iterations >= 1 and trace.rescues > 0


def test_fit_gmm_large_offset_keeps_precision():
    # second moments about the raw origin cancel every digit a common
    # offset of 1e6 carries; about the slide's mean patch they keep them
    patches, _, _ = _cluster_slide(3)
    shifted = PatchFeatures("shifted", patches.patches + 1e6)
    for seed in (3, 17):
        _, trace = fit_gmm(shifted, 3, seed=seed)
        assert np.diff(trace.log_likelihoods).min() >= -1e-8
    # at seed 3 the shifted fit takes the unshifted fit's path
    base, base_trace = fit_gmm(patches, 3, seed=3)
    moved, moved_trace = fit_gmm(shifted, 3, seed=3)
    assert moved_trace.iterations == base_trace.iterations
    d = patches.patches.shape[1]
    rep_base, rep_moved = slide_representation(base), slide_representation(moved)
    np.testing.assert_allclose(rep_moved[:, 0], rep_base[:, 0], rtol=1e-9)
    np.testing.assert_allclose(rep_moved[:, 1 + d:], rep_base[:, 1 + d:], rtol=1e-6)


def test_fit_gmm_memory_linear_in_patches():
    # an (n, k, d) temporary would take 16x the patches alone
    x = np.random.default_rng(18).normal(size=(4096, 384))
    tracemalloc.start()
    try:
        fit_gmm(PatchFeatures("paper", x), 16, seed=0, max_iters=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * x.nbytes


def test_em_step_flushes_sub_normal_responsibilities_without_changing_the_fit():
    # a scaled-down slides_paper slide: from the fourth EM step on, some
    # posterior entries fall below the smallest normal float64
    rng = np.random.default_rng([0, 0])
    n, d = 256, 32
    centres = rng.normal(0.0, 2.0, size=(8, d))
    x = centres[rng.permutation(np.repeat(np.arange(8), n // 8))] + rng.normal(0.0, 0.5, size=(n, d))
    patches = PatchFeatures("paper_small", x)
    params = init_gmm(4, d, np.random.default_rng([0, 0, 1]))
    tiny = np.finfo(float).tiny
    sub_normal_steps = 0
    for _ in range(6):
        resp = responsibilities(patches, params)  # keeps its sub-normal entries
        sub_normal_steps += bool(np.any((resp > 0) & (resp < tiny)))
        # the M-step on the unflushed posterior, moments about the mean patch
        centre = x.mean(axis=0)
        xc = x - centre
        nk = resp.sum(axis=0)
        assert np.all(nk >= RESCUE_FRACTION * n)
        nk_safe = np.maximum(nk, 1e-300)
        mc = (resp.T @ xc) / nk_safe[:, None]
        variances = np.maximum((resp.T @ (xc * xc)) / nk_safe[:, None] - mc * mc, VAR_FLOOR)
        params, _ = em_step(patches, params, np.random.default_rng(0))
        np.testing.assert_array_equal(params.weights, nk / n)
        np.testing.assert_array_equal(params.means, mc + centre)
        np.testing.assert_array_equal(params.variances, variances)
    assert sub_normal_steps >= 2


def test_slide_representation_shape_and_order():
    params = GmmParams(
        np.array([0.3, 0.7]),
        np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
        np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]),
    )
    rep = slide_representation(params)
    assert rep.shape == (2, 7)
    np.testing.assert_allclose(rep[0], [0.7, 4.0, 5.0, 6.0, 0.4, 0.5, 0.6])
    np.testing.assert_allclose(rep[1], [0.3, 1.0, 2.0, 3.0, 0.1, 0.2, 0.3])


def test_project_histo_bias_only_and_oracle():
    # the histology projection is numerics.affine on each slide representation's rows
    rep = np.arange(10.0).reshape(2, 5)
    bias = np.array([1.0, -2.0])
    out = affine(rep, np.zeros((5, 2)), bias)
    np.testing.assert_array_equal(out, np.tile(bias, (2, 1)))
    rng = np.random.default_rng(14)
    w, b = rng.normal(size=(5, 3)), rng.normal(size=3)
    expect = [[sum(rep[r, i] * w[i, j] for i in range(5)) + b[j] for j in range(3)] for r in range(2)]
    np.testing.assert_allclose(affine(rep, w, b), expect, atol=1e-12)
