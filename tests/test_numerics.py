import math

import numpy as np
import pytest

from protosurv import numerics as nm
from protosurv.errors import AllMasked, NonFiniteLoss, ShapeMismatch


def _selu_scalar(v):
    if v > 0:
        return nm.SELU_SCALE * v
    return nm.SELU_SCALE * nm.SELU_ALPHA * (math.exp(v) - 1.0)


# ---------------------------------------------------------------------------
# masked_softmax
# ---------------------------------------------------------------------------

def test_masked_softmax_uniform_logits():
    out = nm.masked_softmax(np.zeros((2, 2)), np.array([1, 1]))
    np.testing.assert_allclose(out, [[0.5, 0.5], [0.5, 0.5]])


def test_masked_softmax_single_unmasked_key():
    out = nm.masked_softmax(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1, 0]))
    np.testing.assert_array_equal(out, [[1.0, 0.0], [1.0, 0.0]])


def test_masked_softmax_closed_form():
    out = nm.masked_softmax(np.array([[0.0, math.log(2.0)]]), np.array([1, 1]))
    np.testing.assert_allclose(out, [[1.0 / 3.0, 2.0 / 3.0]], atol=1e-15)


def test_masked_softmax_all_masked_raises():
    with pytest.raises(AllMasked):
        nm.masked_softmax(np.zeros((2, 2)), np.array([0, 0]))


def test_masked_softmax_rows_sum_to_one_and_masked_cols_zero():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = rng.integers(1, 9)
        logits = rng.normal(scale=rng.uniform(0.1, 50.0), size=(m, m))
        mask = np.zeros(m)
        mask[rng.choice(m, size=rng.integers(1, m + 1), replace=False)] = 1
        out = nm.masked_softmax(logits, mask)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(m), atol=1e-9)
        assert np.all(out[:, mask == 0] == 0.0)


def test_masked_softmax_row_shift_invariance():
    rng = np.random.default_rng(8)
    logits = rng.normal(size=(4, 4))
    mask = np.array([1, 1, 0, 1])
    base = nm.masked_softmax(logits, mask)
    shifted = logits.copy()
    shifted[2] += 123.456
    out = nm.masked_softmax(shifted, mask)
    assert np.max(np.abs(out - np.vstack([base[:2], nm.masked_softmax(shifted, mask)[2], base[3]]))) < 1e-9
    # shifting every row by its own constant leaves the whole matrix unchanged
    out_all = nm.masked_softmax(logits + rng.normal(size=(4, 1)) * 0 + 5.0, mask)
    assert np.max(np.abs(out_all - base)) < 1e-9


# ---------------------------------------------------------------------------
# layer_norm
# ---------------------------------------------------------------------------

def test_layer_norm_constant_input():
    np.testing.assert_allclose(nm.layer_norm(np.ones(3), 1.0, 0.0), np.zeros(3), atol=1e-12)


def test_layer_norm_already_normalised():
    np.testing.assert_allclose(nm.layer_norm(np.array([1.0, -1.0]), 1.0, 0.0, eps=0.0), [1.0, -1.0], atol=1e-12)


def test_layer_norm_hand_case():
    # x=[0,2]: mu=1, sigma=1 -> xhat=[-1,1]; *2 + 1 = [-1, 3]
    out = nm.layer_norm(np.array([0.0, 2.0]), np.array([2.0, 2.0]), np.array([1.0, 1.0]), eps=0.0)
    np.testing.assert_allclose(out, [-1.0, 3.0], atol=1e-12)


def test_layer_norm_shift_and_scale_invariance():
    # variance large enough that the eps=1e-5 regulariser stays below tolerance
    rng = np.random.default_rng(9)
    x = rng.normal(scale=10.0, size=12)
    base = nm.layer_norm(x, 1.0, 0.0)
    shifted = nm.layer_norm(x + 37.5, 1.0, 0.0)
    scaled = nm.layer_norm(x * 4.0, 1.0, 0.0)
    assert np.max(np.abs(base - shifted)) < 1e-6
    assert np.max(np.abs(base - scaled)) < 1e-6


# ---------------------------------------------------------------------------
# snn_forward
# ---------------------------------------------------------------------------

def test_snn_zero_weights_gives_zero():
    layers = [(np.zeros((4, 3)), np.zeros(3)), (np.zeros((3, 2)), np.zeros(2))]
    np.testing.assert_array_equal(nm.snn_forward(np.array([1.0, -2.0, 3.0, 0.5]), layers), np.zeros(2))


def test_snn_identity_layer_positive_input():
    x = np.array([0.5, 2.0, 1.0])
    out = nm.snn_forward(x, [(np.eye(3), np.zeros(3))])
    np.testing.assert_allclose(out, nm.SELU_SCALE * x, atol=1e-12)


def test_snn_matches_scalar_oracle():
    rng = np.random.default_rng(11)
    layers = [(rng.normal(size=(5, 4)), rng.normal(size=4)), (rng.normal(size=(4, 3)), rng.normal(size=3))]
    x = np.zeros(5)
    x[0] = 1.0

    expect = [float(v) for v in x]
    for w, b in layers:
        expect = [_selu_scalar(sum(expect[i] * w[i, j] for i in range(len(expect))) + b[j]) for j in range(w.shape[1])]
    np.testing.assert_allclose(nm.snn_forward(x, layers), expect, atol=1e-12)


def test_snn_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        nm.snn_forward(np.zeros(3), [(np.zeros((4, 2)), np.zeros(2))])


# ---------------------------------------------------------------------------
# grad_check on simple closed forms
# ---------------------------------------------------------------------------

def test_grad_check_quadratic():
    def loss(p):
        return nm.tsum(p * p * 0.5)

    report = nm.grad_check(loss, np.array([1.0, 2.0]))
    assert report.max_relative_error < 1e-6


def test_grad_check_constant_loss():
    def loss(p):
        return nm.tsum(p * 0.0)

    report = nm.grad_check(loss, np.array([3.0, -1.0, 2.0]))
    assert report.max_relative_error == 0.0


def test_grad_check_nonfinite_loss():
    def loss(p):
        return nm.tsum(p) * math.inf

    with pytest.raises(NonFiniteLoss, match="at the supplied parameters"):
        nm.grad_check(loss, np.array([-1.0, 0.0]))


# ---------------------------------------------------------------------------
# every tape primitive verified against finite differences
# ---------------------------------------------------------------------------

def _check_op(build, n_params, seed, tol=1e-6):
    rng = np.random.default_rng(seed)
    report = nm.grad_check(build, rng.normal(size=n_params), eps=1e-6)
    assert report.max_relative_error < tol, report


def test_grad_matmul_broadcast():
    def loss(p):
        a = nm.reshape(nm.narrow(p, 0, 0, 12), (2, 3, 2))
        w = nm.reshape(nm.narrow(p, 0, 12, 8), (2, 4))
        rows = nm.tsum(a @ w, axis=-1)
        return nm.tsum(rows * rows * 0.01)

    _check_op(loss, 20, seed=1)


def test_grad_masked_softmax():
    mask = np.array([1.0, 1.0, 0.0, 1.0])

    def loss(p):
        logits = nm.reshape(p, (3, 4))
        soft = nm.masked_softmax(logits, mask)
        return nm.tsum(soft * np.arange(12.0).reshape(3, 4))

    _check_op(loss, 12, seed=2)


def test_grad_layer_norm():
    def loss(p):
        x = nm.reshape(nm.narrow(p, 0, 0, 10), (2, 5))
        gain = nm.narrow(p, 0, 10, 5)
        bias = nm.narrow(p, 0, 15, 5)
        y = nm.layer_norm(x, gain, bias)
        return nm.tsum(y * y)

    _check_op(loss, 20, seed=3)


def test_grad_selu_and_snn():
    def loss(p):
        w1 = nm.reshape(nm.narrow(p, 0, 0, 12), (4, 3))
        b1 = nm.narrow(p, 0, 12, 3)
        w2 = nm.reshape(nm.narrow(p, 0, 15, 6), (3, 2))
        b2 = nm.narrow(p, 0, 21, 2)
        x = np.array([[0.3, -0.7, 1.2, 0.1]])
        out = nm.snn_forward(x, [(w1, b1), (w2, b2)])
        return nm.tsum(out * out)

    _check_op(loss, 23, seed=4)


def test_grad_gather_concat_broadcast():
    idx = np.array([[2, 0], [1, 1]])

    def loss(p):
        x = nm.reshape(nm.narrow(p, 0, 0, 18), (2, 3, 3))
        picked = nm.gather_rows(x, idx)
        extra = nm.broadcast_to(nm.reshape(nm.narrow(p, 0, 18, 2), (1, 1, 2)), (2, 2, 2))
        both = nm.concat([picked, extra], axis=-1)
        return nm.tsum(both * both)

    _check_op(loss, 20, seed=5)


def test_grad_masked_logsumexp():
    mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])

    def loss(p):
        x = nm.reshape(p, (2, 3))
        return nm.tsum(nm.masked_logsumexp(x, mask))

    _check_op(loss, 6, seed=6)


def test_grad_swap_and_attention_shape():
    mask = np.array([1.0, 1.0, 1.0])

    def loss(p):
        q = nm.reshape(nm.narrow(p, 0, 0, 6), (3, 2))
        k = nm.reshape(nm.narrow(p, 0, 6, 6), (3, 2))
        v = nm.reshape(nm.narrow(p, 0, 12, 6), (3, 2))
        att = nm.masked_softmax((q @ nm.swap_last(k)) * (1.0 / math.sqrt(2.0)), mask)
        return nm.tsum((att @ v) * np.arange(6.0).reshape(3, 2))

    _check_op(loss, 18, seed=7)


# ---------------------------------------------------------------------------
# masked_attention
# ---------------------------------------------------------------------------

def _attention_oracle(x, mask, w_q, w_k, w_v):
    """Per-row loop over plain softmax restricted to the allowed keys."""
    n, d = x.shape
    out, att = np.zeros_like(x), np.zeros((n, n))
    for i in range(n):
        keys = np.flatnonzero(mask[i] > 0)
        logits = (x[i] @ w_q) @ (x[keys] @ w_k).T / math.sqrt(d)
        weights = np.exp(logits - logits.max())
        att[i, keys] = weights / weights.sum()
        out[i] = (att[i] @ (x @ w_v)) * mask[i, i]
    return out, att


def test_masked_attention_structural_mask_matches_oracle():
    rng = np.random.default_rng(20)
    x = rng.normal(size=(5, 3))
    w_q, w_k, w_v = (rng.normal(size=(3, 3)) for _ in range(3))
    validity = np.array([1.0, 1.0, 1.0, 1.0, 0.0])
    owner = np.array([0, 0, 1, 1, 1])
    mask = (owner[:, None] == owner[None, :]) * validity[None, :]
    out, att = nm.masked_attention(x, w_q, w_k, w_v, mask)
    ref_out, ref_att = _attention_oracle(x, mask, w_q, w_k, w_v)
    assert isinstance(out, np.ndarray) and isinstance(att, np.ndarray)
    assert np.max(np.abs(out - ref_out)) < 1e-12
    assert np.max(np.abs(att - ref_att)) < 1e-12
    assert np.all(att[mask == 0] == 0.0)  # masked keys get exactly zero weight
    assert np.all(out[4] == 0.0)  # token 4 may not see itself: invalid query row


def test_masked_attention_batched_validity_rows():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(2, 4, 3))
    w_q, w_k, w_v = (rng.normal(size=(3, 3)) for _ in range(3))
    validity = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0]])
    out, att = nm.masked_attention(x, w_q, w_k, w_v, validity[:, None, :])
    for b in range(2):
        ref_out, ref_att = _attention_oracle(x[b], np.broadcast_to(validity[b], (4, 4)), w_q, w_k, w_v)
        assert np.max(np.abs(out[b] - ref_out)) < 1e-12
        assert np.max(np.abs(att[b] - ref_att)) < 1e-12


def test_masked_attention_rejects_wrong_weight_width():
    with pytest.raises(ShapeMismatch):
        nm.masked_attention(np.ones((2, 3)), np.eye(3), np.eye(2), np.eye(3), np.ones(2))


def test_grad_masked_attention():
    mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    x = np.random.default_rng(22).normal(size=(3, 2))

    def loss(p):
        w_q, w_k, w_v = (nm.reshape(nm.narrow(p, 0, 4 * i, 4), (2, 2)) for i in range(3))
        out, att = nm.masked_attention(x, w_q, w_k, w_v, mask)
        return nm.tsum(out * np.arange(6.0).reshape(3, 2)) + nm.tsum(att * att)

    _check_op(loss, 12, seed=23)



def test_selu_large_input_does_not_overflow():
    x = nm.Tensor(np.array([1000.0, -1.0]), requires_grad=True)
    with np.errstate(all="raise"):
        out = nm.selu(x)
        nm.tsum(out).backward()
    np.testing.assert_allclose(out.data, [_selu_scalar(1000.0), _selu_scalar(-1.0)], rtol=1e-15)
    np.testing.assert_allclose(x.grad, [nm.SELU_SCALE, nm.SELU_SCALE * nm.SELU_ALPHA * math.exp(-1.0)], rtol=1e-15)
