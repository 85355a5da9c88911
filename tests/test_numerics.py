import math
import tracemalloc
import weakref
from itertools import accumulate

import numpy as np
import pytest

from protosurv import numerics as nm
from protosurv.data import SyntheticSpec, synth_cohort
from protosurv.errors import AllMasked, BadInput, NonFiniteLoss, ShapeMismatch
from protosurv.fusion import FusionParams, ModalityTokens, fuse
from protosurv.model import forward_risks, init_params
from protosurv.pathways import embed_pathways
from protosurv.pipeline import build_prepared
from protosurv.rng import substream
from protosurv.survival import TrainConfig, cox_loss
from protosurv.text import select_prototypes


def _selu_scalar(v):
    if v > 0:
        return nm.SELU_SCALE * v
    return nm.SELU_SCALE * nm.SELU_ALPHA * (math.exp(v) - 1.0)


# ---------------------------------------------------------------------------
# the taped composition the blocked nodes replace, kept as their oracle: one
# node per swap, softmax and layer norm, over numerics' bodies of that math
# ---------------------------------------------------------------------------

def swap_last(x):
    x = nm.as_tensor(x)
    return nm._node(np.swapaxes(x.data, -1, -2), (x,), lambda g: (np.swapaxes(g, -1, -2),))


def masked_softmax(logits, key_mask):
    """Row-stochastic softmax over unmasked keys; the mask gets no adjoint."""
    x = nm.as_tensor(logits)
    out = nm._masked_softmax(x.data, key_mask)
    return nm._node(out, (x,), lambda g: (nm._softmax_adjoint(g, out),))


def layer_norm(x, gain, bias, eps=1e-5):
    """The last axis at zero mean and unit variance, then ``* gain + bias``."""
    xt, gt, bt = nm.as_tensor(x), nm.as_tensor(gain), nm.as_tensor(bias)
    normed, inv_std = nm._layer_norm(xt.data, eps)

    def backward(g):
        return (
            nm._layer_norm_adjoint(g * gt.data, normed, inv_std) if xt.requires_grad else None,
            nm._unbroadcast(g * normed, gt.shape) if gt.requires_grad else None,
            nm._unbroadcast(g, bt.shape) if bt.requires_grad else None,
        )

    out = normed * gt.data
    out += bt.data
    return nm._node(out, (xt, gt, bt), backward)


def taped_attention(x, w_q, w_k, w_v, validity):
    """``masked_attention`` as eight nodes: three projections, the swap of k,
    the scale, the softmax under the key mask, the value product and the
    query mask. The weights come back as data, as the node returns them."""
    h = nm.as_tensor(x)
    d = h.shape[-1]
    validity = np.asarray(validity, dtype=np.float64)
    q, k, v = (nm.matmul(h, w) for w in (w_q, w_k, w_v))
    attention = masked_softmax(nm.mul(nm.matmul(q, swap_last(k)), 1.0 / math.sqrt(d)), validity[..., None, :])
    return nm.mul(nm.matmul(attention, v), validity[..., :, None]), nm.as_tensor(attention).data


def selu_layer(x, weight, bias):
    """One node for ``selu(x @ weight + bias)``."""
    x, weight, bias = nm.as_tensor(x), nm.as_tensor(weight), nm.as_tensor(bias)
    pre = x.data @ weight.data
    pre += bias.data

    def backward(g):
        slope = nm._selu_slope(pre, g)
        gx, gw = nm._matmul_grads(slope, x, weight)
        return gx, gw, nm._unbroadcast(slope, bias.shape) if bias.requires_grad else None

    return nm._node(nm._selu(pre), (x, weight, bias), backward)


def taped_snn(x, layers):
    """A self-normalising network as a SELU node per layer."""
    for weight, bias in layers:
        x = selu_layer(x, weight, bias)
    return x


def taped_tokens(xs, networks):
    """``snn_tokens`` as a SELU node per layer per network, one join of the
    networks' outputs on the last axis and one reshape to (..., P, width)."""
    joined = nm.concat([taped_snn(x, layers) for x, layers in zip(xs, networks)], axis=-1)
    return nm.reshape(joined, np.shape(joined)[:-1] + (len(networks), -1))


def narrow(x, axis, start, length):
    """The contiguous slice ``[start, start + length)`` along one axis, whose
    adjoint is a zero-padded copy of the slice's."""
    x = nm.as_tensor(x)
    cut = (slice(None),) * (axis % x.ndim) + (slice(start, start + length),)

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[cut] = g
        return (gx,)

    return nm._node(x.data[cut], (x,), backward)


def taped_split(x, sizes, axis=0):
    """``split`` as one ``narrow`` per piece."""
    return [narrow(x, axis, start, size) for start, size in zip(accumulate(sizes, initial=0), sizes)]


def taped_join(blocks, tails):
    """``join_rows`` as, per block with a tail, a broadcast copy of the tail
    and a concat onto the block's rows, then one concat of the blocks."""
    parts = [
        x if t is None else nm.concat([x, nm.broadcast_to(t, np.shape(x)[:-1] + np.shape(t))], axis=-1)
        for x, t in zip(blocks, tails)
    ]
    return parts[0] if len(parts) == 1 else nm.concat(parts, axis=-2)


def taped_pool(x, layers, gain, bias, validity):
    """``snn_norm_pool`` as a SELU node per layer, a layer norm, the row mask,
    the sum over rows and the division by the valid-row count."""
    y = layer_norm(taped_snn(x, layers), gain, bias)
    mask = np.asarray(validity, dtype=float)
    counts = np.maximum(mask.sum(axis=-1, keepdims=True), 1.0)
    return nm.tsum(y * mask[..., None], axis=-2) * (1.0 / counts)


# ---------------------------------------------------------------------------
# masked_softmax
# ---------------------------------------------------------------------------

def test_masked_softmax_uniform_logits():
    out = masked_softmax(np.zeros((2, 2)), np.array([1, 1]))
    np.testing.assert_allclose(out, [[0.5, 0.5], [0.5, 0.5]])


def test_masked_softmax_single_unmasked_key():
    out = masked_softmax(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1, 0]))
    np.testing.assert_array_equal(out, [[1.0, 0.0], [1.0, 0.0]])


def test_masked_softmax_closed_form():
    out = masked_softmax(np.array([[0.0, math.log(2.0)]]), np.array([1, 1]))
    np.testing.assert_allclose(out, [[1.0 / 3.0, 2.0 / 3.0]], atol=1e-15)


def test_masked_softmax_all_masked_raises():
    with pytest.raises(AllMasked):
        masked_softmax(np.zeros((2, 2)), np.array([0, 0]))


def test_masked_softmax_rows_sum_to_one_and_masked_cols_zero():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = rng.integers(1, 9)
        logits = rng.normal(scale=rng.uniform(0.1, 50.0), size=(m, m))
        mask = np.zeros(m)
        mask[rng.choice(m, size=rng.integers(1, m + 1), replace=False)] = 1
        out = masked_softmax(logits, mask)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(m), atol=1e-9)
        assert np.all(out[:, mask == 0] == 0.0)


def test_masked_softmax_row_shift_invariance():
    rng = np.random.default_rng(8)
    logits = rng.normal(size=(4, 4))
    mask = np.array([1, 1, 0, 1])
    base = masked_softmax(logits, mask)
    shifted = logits.copy()
    shifted[2] += 123.456
    out = masked_softmax(shifted, mask)
    assert np.max(np.abs(out - np.vstack([base[:2], masked_softmax(shifted, mask)[2], base[3]]))) < 1e-9
    # shifting every row by its own constant leaves the whole matrix unchanged
    out_all = masked_softmax(logits + rng.normal(size=(4, 1)) * 0 + 5.0, mask)
    assert np.max(np.abs(out_all - base)) < 1e-9


# ---------------------------------------------------------------------------
# layer_norm
# ---------------------------------------------------------------------------

def test_layer_norm_constant_input():
    np.testing.assert_allclose(layer_norm(np.ones(3), 1.0, 0.0), np.zeros(3), atol=1e-12)


def test_layer_norm_already_normalised():
    np.testing.assert_allclose(layer_norm(np.array([1.0, -1.0]), 1.0, 0.0, eps=0.0), [1.0, -1.0], atol=1e-12)


def test_layer_norm_hand_case():
    # x=[0,2]: mu=1, sigma=1 -> xhat=[-1,1]; *2 + 1 = [-1, 3]
    out = layer_norm(np.array([0.0, 2.0]), np.array([2.0, 2.0]), np.array([1.0, 1.0]), eps=0.0)
    np.testing.assert_allclose(out, [-1.0, 3.0], atol=1e-12)


def test_layer_norm_shift_and_scale_invariance():
    # variance large enough that the eps=1e-5 regulariser stays below tolerance
    rng = np.random.default_rng(9)
    x = rng.normal(scale=10.0, size=12)
    base = layer_norm(x, 1.0, 0.0)
    shifted = layer_norm(x + 37.5, 1.0, 0.0)
    scaled = layer_norm(x * 4.0, 1.0, 0.0)
    assert np.max(np.abs(base - shifted)) < 1e-6
    assert np.max(np.abs(base - scaled)) < 1e-6


# ---------------------------------------------------------------------------
# snn_forward
# ---------------------------------------------------------------------------

def test_snn_zero_weights_gives_zero():
    layers = [(np.zeros((4, 3)), np.zeros(3)), (np.zeros((3, 2)), np.zeros(2))]
    np.testing.assert_array_equal(nm.snn_forward(np.array([[1.0, -2.0, 3.0, 0.5]]), layers), np.zeros((1, 2)))


def test_snn_identity_layer_positive_input():
    x = np.array([[0.5, 2.0, 1.0]])
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
    np.testing.assert_allclose(nm.snn_forward(x[None], layers)[0], expect, atol=1e-12)


def test_snn_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        nm.snn_forward(np.zeros((1, 3)), [(np.zeros((4, 2)), np.zeros(2))])


_ROW_STACK_STAGES = {
    "affine": lambda x, w, b: nm.affine(x, w, b),
    "snn_forward": lambda x, w, b: nm.snn_forward(x, [(w, b)]),
    "embed_pathways": lambda x, w, b: embed_pathways([x], [[(w, b)]]),
}


@pytest.mark.parametrize("name", sorted(_ROW_STACK_STAGES))
def test_one_dimensional_input_is_rejected_at_forward_time(name):
    stage = _ROW_STACK_STAGES[name]
    w = nm.Tensor(np.ones((3, 2)), requires_grad=True)
    b = nm.Tensor(np.zeros(2), requires_grad=True)
    with pytest.raises(ShapeMismatch, match="stack of rows"):
        stage(np.ones(3), w, b)
    # the same row as a batch of one runs forward and backward
    nm.tsum(stage(np.ones((1, 3)), w, b)).backward()
    assert w.grad.shape == (3, 2) and b.grad.shape == (2,)


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

def _unpack(p, *shapes):
    """``p`` cut by one ``split`` into tensors of ``shapes``, in order."""
    return [nm.reshape(piece, s) for piece, s in zip(nm.split(p, [math.prod(s) for s in shapes]), shapes)]


def _check_op(build, n_params, seed, tol=1e-6):
    rng = np.random.default_rng(seed)
    report = nm.grad_check(build, rng.normal(size=n_params), eps=1e-6)
    assert report.max_relative_error < tol, report


def test_grad_matmul_broadcast():
    def loss(p):
        a, w = _unpack(p, (2, 3, 2), (2, 4))
        rows = nm.tsum(a @ w, axis=-1)
        return nm.tsum(rows * rows * 0.01)

    _check_op(loss, 20, seed=1)


def test_grad_masked_softmax():
    mask = np.array([1.0, 1.0, 0.0, 1.0])

    def loss(p):
        logits = nm.reshape(p, (3, 4))
        soft = masked_softmax(logits, mask)
        return nm.tsum(soft * np.arange(12.0).reshape(3, 4))

    _check_op(loss, 12, seed=2)


def test_grad_layer_norm():
    def loss(p):
        x, gain, bias = _unpack(p, (2, 5), (5,), (5,))
        y = layer_norm(x, gain, bias)
        return nm.tsum(y * y)

    _check_op(loss, 20, seed=3)


def test_grad_selu_and_snn():
    def loss(p):
        w1, b1, w2, b2 = _unpack(p, (4, 3), (3,), (3, 2), (2,))
        x = np.array([[0.3, -0.7, 1.2, 0.1]])
        out = nm.snn_forward(x, [(w1, b1), (w2, b2)])
        return nm.tsum(out * out)

    _check_op(loss, 23, seed=4)


def test_grad_gather_concat_broadcast():
    idx = np.array([[2, 0], [1, 1]])

    def loss(p):
        x, extra = _unpack(p, (2, 3, 3), (1, 1, 2))
        picked = nm.gather_rows(x, idx)
        extra = nm.broadcast_to(extra, (2, 2, 2))
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
        q, k, v = _unpack(p, (3, 2), (3, 2), (3, 2))
        att = masked_softmax((q @ swap_last(k)) * (1.0 / math.sqrt(2.0)), mask)
        return nm.tsum((att @ v) * np.arange(6.0).reshape(3, 2))

    _check_op(loss, 18, seed=7)


# ---------------------------------------------------------------------------
# masked_attention
# ---------------------------------------------------------------------------

def _attention_oracle(x, validity, w_q, w_k, w_v):
    """Per-row loop over plain softmax restricted to the valid keys."""
    n, d = x.shape
    out, att = np.zeros_like(x), np.zeros((n, n))
    keys = np.flatnonzero(validity > 0)
    for i in range(n):
        logits = (x[i] @ w_q) @ (x[keys] @ w_k).T / math.sqrt(d)
        weights = np.exp(logits - logits.max())
        att[i, keys] = weights / weights.sum()
        out[i] = (att[i] @ (x @ w_v)) * validity[i]
    return out, att


def test_masked_attention_batched_validity_rows():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(2, 4, 3))
    w_q, w_k, w_v = (rng.normal(size=(3, 3)) for _ in range(3))
    validity = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0]])
    out, att = nm.masked_attention(x, w_q, w_k, w_v, validity)
    for b in range(2):
        ref_out, ref_att = _attention_oracle(x[b], validity[b], w_q, w_k, w_v)
        assert np.max(np.abs(out[b] - ref_out)) < 1e-12
        assert np.max(np.abs(att[b] - ref_att)) < 1e-12
    assert np.all(att[1][:, 2:] == 0.0)  # invalid keys get exactly zero weight
    assert np.all(out[1][2:] == 0.0)  # and invalid queries a zero output row


def test_masked_attention_rejects_wrong_weight_width():
    with pytest.raises(ShapeMismatch):
        nm.masked_attention(np.ones((2, 3)), np.eye(3), np.eye(2), np.eye(3), np.ones(2))


def test_masked_attention_rejects_a_mask_that_does_not_broadcast():
    """Validity is one 0/1 entry per token: the (2, 3) tokens of a (2, 3, 4)
    stack, not a shape that broadcasts to them, nor a (..., n, n) mask."""
    x, w_q, w_k, w_v = _attention_arrays((2, 3, 4), seed=24)
    for shape in ((3, 1, 3), (2, 2, 3), (1, 2, 1, 3), (1, 3), (2, 3, 3)):
        with pytest.raises(ShapeMismatch, match="token validity"):
            nm.masked_attention(x, w_q, w_k, w_v, np.ones(shape))


def test_grad_masked_attention():
    validity = np.array([1.0, 1.0, 0.0])
    x = np.random.default_rng(22).normal(size=(3, 2))

    def loss(p):
        w_q, w_k, w_v = _unpack(p, (2, 2), (2, 2), (2, 2))
        out, _ = nm.masked_attention(x, w_q, w_k, w_v, validity)
        return nm.tsum(out * np.arange(6.0).reshape(3, 2))

    _check_op(loss, 12, seed=23)


@pytest.mark.parametrize("constant_weights", [False, True], ids=["all-inputs", "constant-weights"])
def test_grad_attention_node(monkeypatch, constant_weights):
    monkeypatch.setattr(nm, "BLOCK_BYTES", 1)  # a block per patient
    rng = np.random.default_rng(50)
    fixed = [rng.normal(size=(4, 4)) for _ in range(3)]
    validity = _VALID_ROWS[:3, :4]

    def loss(p):
        x, *weights = _unpack(p, (3, 4, 4), *([] if constant_weights else [(4, 4)] * 3))
        weights = weights or fixed
        out, _ = nm.masked_attention(x, *weights, validity)
        return nm.tsum(out * np.arange(48.0).reshape(3, 4, 4))

    report = nm.grad_check(loss, np.random.default_rng(51).normal(size=48 if constant_weights else 96), eps=1e-5)
    assert report.max_relative_error < 1e-6, report


def test_attention_backward_builds_no_batch_of_weight_adjoints():
    """One backward at the crit7 full-fusion shape (64 patients, 72 tokens of
    width 80) holds less than 8 MiB above its tape: its x adjoint, the
    output adjoint and one block's temporaries, not a (64, 72, 72) adjoint
    of the weights (2.5 MiB) beside them."""
    rng = np.random.default_rng(52)
    x, w_q, w_k, w_v = _attention_arrays((64, 72, 80), seed=53)
    validity = np.ones((64, 72))
    validity[:, -5:] = 0.0
    cotangent = rng.normal(size=x.shape)
    tracemalloc.start()
    try:
        leaves = [nm.Tensor(a, requires_grad=True) for a in (x, w_q, w_k, w_v)]
        out, _ = nm.masked_attention(*leaves, validity)
        loss = nm.tsum(out * cotangent)
        tape, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        loss.backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - tape) / 2**20 < 8.0


# ---------------------------------------------------------------------------
# the blocked nodes against their taped composition, bit for bit, at any block
# ---------------------------------------------------------------------------

def _run_taped(build, arrays, constant, rng):
    """Outputs of ``build`` on leaves of ``arrays`` (plain arrays at the
    ``constant`` positions), and the gradient of every leaf after one sweep
    of a random contraction of the first output. (The attention weights are
    a second output, data that no gradient reaches.)"""
    leaves = [a if i in constant else nm.Tensor(a, requires_grad=True) for i, a in enumerate(arrays)]
    outputs = build(*leaves)
    nm.tsum(outputs[0] * rng.normal(size=outputs[0].shape)).backward()
    return [nm.as_tensor(out).data for out in outputs], [leaf.grad for leaf in leaves if isinstance(leaf, nm.Tensor)]


def _assert_same_bits(build, oracle, arrays, constant=()):
    ours = _run_taped(build, arrays, constant, np.random.default_rng(40))
    theirs = _run_taped(oracle, arrays, constant, np.random.default_rng(40))
    for got, want in zip(ours[0] + ours[1], theirs[0] + theirs[1]):
        assert got.shape == want.shape and np.array_equal(got, want)


# patients per block: BLOCK_BYTES at one patient, three, and the whole batch
_BUDGETS = {"one": lambda patient: 1, "three": lambda patient: 3 * patient, "whole": lambda patient: 1 << 40}
_VALID_ROWS = np.array([
    [1, 1, 1, 1, 1], [1, 1, 0, 0, 0], [1, 0, 0, 0, 0], [1, 1, 1, 0, 0], [1, 1, 1, 1, 0], [1, 0, 1, 0, 1], [1, 1, 1, 1, 1],
], dtype=float)


def _attention_arrays(shape, seed):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=shape)] + [rng.normal(size=(shape[-1], shape[-1])) for _ in range(3)]


_ATTENTION_CASES = {
    # (x shape, validity, constant inputs): 0 is x, 1-3 the weights
    "batch": ((7, 5, 4), _VALID_ROWS, ()),
    "one": ((1, 5, 4), _VALID_ROWS[1:2], ()),
    "constant-x": ((7, 5, 4), _VALID_ROWS, (0,)),
    "constant-weights": ((7, 5, 4), _VALID_ROWS, (1, 2, 3)),
    "rows-2d": ((5, 4), _VALID_ROWS[5], ()),
}


@pytest.mark.parametrize("budget", sorted(_BUDGETS))
@pytest.mark.parametrize("case", sorted(_ATTENTION_CASES))
def test_attention_nodes_equal_the_taped_composition(monkeypatch, case, budget):
    shape, validity, constant = _ATTENTION_CASES[case]
    n, d = shape[-2:]
    patient = 8 * n * (n + d)
    monkeypatch.setattr(nm, "BLOCK_BYTES", _BUDGETS[budget](patient))
    assert len(nm._blocks(7, patient)) == {"one": 7, "three": 3, "whole": 1}[budget]
    _assert_same_bits(
        lambda *a: nm.masked_attention(*a, validity),
        lambda *a: taped_attention(*a, validity),
        _attention_arrays(shape, seed=41),
        constant,
    )


def test_attention_is_one_node():
    x, w_q, w_k, w_v = (nm.Tensor(a, requires_grad=True) for a in _attention_arrays((7, 5, 4), seed=42))
    out, att = nm.masked_attention(x, w_q, w_k, w_v, _VALID_ROWS)
    assert out._parents == (x, w_q, w_k, w_v)
    assert type(att) is np.ndarray and att.shape == (7, 5, 5)


def _pool_arrays(shape, widths, seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=shape)]
    for d_in, d_out in zip((shape[-1],) + widths, widths):
        arrays += [rng.normal(size=(d_in, d_out)), rng.normal(size=d_out)]
    return arrays + [rng.normal(size=widths[-1]), rng.normal(size=widths[-1])]


def _pool(x, w0, b0, w1, b1, gain, bias, validity):
    return (nm.snn_norm_pool(x, [(w0, b0), (w1, b1)], gain, bias, validity),)


def _taped_pool(x, w0, b0, w1, b1, gain, bias, validity):
    return (taped_pool(x, [(w0, b0), (w1, b1)], gain, bias, validity),)


_POOL_CASES = {
    # (x shape, validity, constant inputs): 0 is x, 1-4 the layers, 5-6 gain and bias
    "batch": ((7, 5, 4), _VALID_ROWS * (np.arange(7) != 2)[:, None], ()),
    "one": ((1, 5, 4), _VALID_ROWS[1:2], ()),
    "constant-x": ((7, 5, 4), _VALID_ROWS, (0,)),
    "constant-weights": ((7, 5, 4), _VALID_ROWS, (1, 2, 3, 4)),
    "rows-2d": ((5, 4), _VALID_ROWS[3], ()),
}


@pytest.mark.parametrize("budget", sorted(_BUDGETS))
@pytest.mark.parametrize("case", sorted(_POOL_CASES))
def test_pool_node_equals_the_taped_composition(monkeypatch, case, budget):
    shape, validity, constant = _POOL_CASES[case]
    patient = 8 * shape[-2] * (shape[-1] + 3 + 3)
    monkeypatch.setattr(nm, "BLOCK_BYTES", _BUDGETS[budget](patient))
    assert len(nm._blocks(7, patient)) == {"one": 7, "three": 3, "whole": 1}[budget]
    _assert_same_bits(
        lambda *a: _pool(*a, validity),
        lambda *a: _taped_pool(*a, validity),
        _pool_arrays(shape, (3, 3), seed=43),
        constant,
    )


def test_pool_node_rejects_validity_of_another_shape():
    x, w0, b0, w1, b1, gain, bias = _pool_arrays((7, 5, 4), (3, 3), seed=44)
    with pytest.raises(ShapeMismatch, match="row validity"):
        _pool(x, w0, b0, w1, b1, gain, bias, _VALID_ROWS[:, :4])
    with pytest.raises(ShapeMismatch, match="affine input"):
        _pool(x, w1, b0, w1, b1, gain, bias, _VALID_ROWS)


def _signed_zero_adjoint(shape):
    """An output adjoint that is -0.0 for patient 0 and in column 0 of every patient."""
    g = np.random.default_rng(47).normal(size=shape)
    g[0] = -0.0
    g[..., 0] = -0.0
    return g


_SIGNED_ZERO_CASES = {
    # node, its taped composition, its inputs and the bytes of one patient's working set
    "attention": (
        lambda x, q, k, v: nm.masked_attention(x, q, k, v, _VALID_ROWS)[0],
        lambda x, q, k, v: taped_attention(x, q, k, v, _VALID_ROWS)[0],
        _attention_arrays((7, 5, 4), seed=48),
        8 * 5 * (5 + 4),
    ),
    "pool": (
        lambda *a: _pool(*a, _VALID_ROWS)[0],
        lambda *a: _taped_pool(*a, _VALID_ROWS)[0],
        _pool_arrays((7, 5, 4), (3, 3), seed=49),
        8 * 5 * (4 + 3 + 3),
    ),
}


@pytest.mark.parametrize("budget", sorted(_BUDGETS))
@pytest.mark.parametrize("case", sorted(_SIGNED_ZERO_CASES))
def test_running_sums_keep_the_signed_zeros_of_the_whole_stack_sum(monkeypatch, case, budget):
    """Patient 0's output adjoint is -0.0, so its share of every parameter
    adjoint is a zero: -0.0 wherever the head's elementwise stacks (biases,
    gain) carry it, +0.0 from a product. numpy sums a stack from +0.0, so the
    whole-stack sum of the composition turns an all -0.0 entry (column 0 of
    the layer-norm bias) into +0.0; the blocked running sums must agree."""
    node, composition, arrays, patient = _SIGNED_ZERO_CASES[case]
    monkeypatch.setattr(nm, "BLOCK_BYTES", _BUDGETS[budget](patient))
    assert len(nm._blocks(7, patient)) == {"one": 7, "three": 3, "whole": 1}[budget]
    grads = []
    for build in (node, composition):
        leaves = [nm.Tensor(a, requires_grad=True) for a in arrays]
        out = build(*leaves)
        nm.tsum(out * _signed_zero_adjoint(out.shape)).backward()
        grads.append([leaf.grad for leaf in leaves[1:]])
    for got, want in zip(*grads):
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    if case == "pool":
        assert grads[1][-1][0] == 0.0 and not np.signbit(grads[1][-1][0])


@pytest.mark.parametrize("constant_weights", [False, True], ids=["all-inputs", "constant-weights"])
def test_grad_blocked_nodes(monkeypatch, constant_weights):
    monkeypatch.setattr(nm, "BLOCK_BYTES", 1)  # a block per patient
    rng = np.random.default_rng(45)
    fixed = [rng.normal(size=s) for s in ((4, 4), (4, 4), (4, 4), (4, 3), (3,), (3, 3), (3,), (3,), (3,))]
    validity = _VALID_ROWS[:3, :4]

    def loss(p):
        x, *params = _unpack(p, (3, 4, 4), *([] if constant_weights else [a.shape for a in fixed]))
        params = params or fixed
        out, _ = nm.masked_attention(x, *params[:3], validity)
        pooled = nm.snn_norm_pool(out, [(params[3], params[4]), (params[5], params[6])], params[7], params[8], validity)
        return nm.tsum(pooled * np.arange(9.0).reshape(3, 3)) + nm.tsum(out * out)

    n_params = 48 if constant_weights else 48 + sum(a.size for a in fixed)
    report = nm.grad_check(loss, np.random.default_rng(46).normal(size=n_params), eps=1e-5)
    assert report.max_relative_error < 1e-6, report


# ---------------------------------------------------------------------------
# the pathway, join and split nodes against their taped composition, bit for
# bit and sign for sign. They are not blocked, so no block budget may matter.
# ---------------------------------------------------------------------------

def _run_signed(build, arrays, constant, reached):
    """Outputs of ``build`` on leaves of ``arrays`` (plain arrays at the
    ``constant`` positions), and every leaf's gradient after one sweep of a
    contraction of the ``reached`` outputs with adjoints holding -0.0."""
    leaves = [a if i in constant else nm.Tensor(a, requires_grad=True) for i, a in enumerate(arrays)]
    outputs = build(*leaves)
    terms = [nm.tsum(outputs[i] * _signed_zero_adjoint(np.shape(outputs[i]))) for i in reached]
    loss = terms[0]
    for term in terms[1:]:
        loss = loss + term
    loss.backward()
    return [nm.as_tensor(out).data for out in outputs] + [leaf.grad for leaf in leaves if isinstance(leaf, nm.Tensor)]


def _assert_same_signed_bits(build, oracle, arrays, constant=(), reached=(0,)):
    ours = _run_signed(build, arrays, constant, reached)
    theirs = _run_signed(oracle, arrays, constant, reached)
    assert len(ours) == len(theirs)
    for got, want in zip(ours, theirs):
        assert got.shape == want.shape and np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def _networks(lead, widths, layer_widths, seed):
    """Arrays for ``snn_tokens``: an input per width, then each network's
    layers of ``layer_widths``; and the function that groups them back."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=lead + (w,)) for w in widths]
    for w in widths:
        for d_in, d_out in zip((w,) + layer_widths, layer_widths):
            arrays += [rng.normal(size=(d_in, d_out)), rng.normal(size=d_out)]

    def group(*a):
        xs, rest = list(a[: len(widths)]), list(a[len(widths) :])
        depth = len(layer_widths)
        networks = [
            [(rest[2 * (i * depth + k)], rest[2 * (i * depth + k) + 1]) for k in range(depth)] for i in range(len(widths))
        ]
        return xs, networks

    return arrays, group


_TOKEN_CASES = {
    # (lead, input widths, layer widths, constant inputs): the inputs come first
    "batch": ((7,), (2, 5, 1), (3, 3), ()),
    "one-layer": ((7,), (2, 4), (3,), ()),
    "three-layers": ((4,), (2, 3), (3, 4, 2), ()),
    "constant-slices": ((7,), (2, 5, 1), (3, 3), (0, 1, 2)),
    "constant-weights": ((7,), (2, 5), (3, 3), (2, 3, 4, 5, 6, 7, 8, 9)),
    "rows-3d": ((2, 3), (2, 4), (3, 3), ()),
}


@pytest.mark.parametrize("budget", sorted(_BUDGETS))
@pytest.mark.parametrize("case", sorted(_TOKEN_CASES))
def test_pathway_node_equals_the_taped_composition(monkeypatch, case, budget):
    lead, widths, layer_widths, constant = _TOKEN_CASES[case]
    monkeypatch.setattr(nm, "BLOCK_BYTES", _BUDGETS[budget](8 * 5 * 3))
    arrays, group = _networks(lead, widths, layer_widths, seed=60)
    _assert_same_signed_bits(
        lambda *a: (nm.snn_tokens(*group(*a)),), lambda *a: (taped_tokens(*group(*a)),), arrays, constant
    )


def test_snn_forward_is_the_one_network_node():
    arrays, group = _networks((7,), (4,), (3, 3), seed=61)
    leaves = [nm.Tensor(a, requires_grad=True) for a in arrays]
    (x,), (layers,) = group(*leaves)
    out = nm.snn_forward(x, layers)
    assert out.shape == (7, 3) and out._parents == tuple(leaves)
    np.testing.assert_array_equal(out.data, nm.snn_tokens([x], [layers]).data[:, 0])


def test_pathway_node_rejects_networks_of_other_widths():
    arrays, group = _networks((7,), (2, 4), (3, 3), seed=62)
    xs, networks = group(*arrays)
    with pytest.raises(ShapeMismatch, match="not one"):
        nm.snn_tokens(xs, [networks[0], networks[1][:1] + [(np.ones((3, 2)), np.ones(2))]])
    with pytest.raises(ShapeMismatch, match="2 inputs for 1 networks"):
        nm.snn_tokens(xs, networks[:1])
    with pytest.raises(ShapeMismatch, match="affine input"):
        nm.snn_tokens(xs[::-1], networks)


_JOIN_CASES = {
    # (block shapes, the tail each block takes: 0 or None, constant inputs): the
    # blocks come first, then the one tail vector of width 2
    "full": ([(7, 2, 3), (7, 4, 3), (7, 3, 3)], [0, 0, 0], ()),
    "hierarchical": ([(7, 2, 3), (7, 5, 5)], [0, None], ()),
    "one": ([(7, 4, 3)], [0], ()),
    "no-tails": ([(7, 2, 5), (7, 3, 5)], [None, None], (2,)),
    "constant-tail": ([(7, 2, 3), (7, 4, 3)], [0, 0], (2,)),
    "constant-blocks": ([(7, 2, 3), (7, 4, 3)], [0, 0], (0, 1)),
    "rows-2d": ([(4, 3), (2, 3)], [0, 0], ()),
}


@pytest.mark.parametrize("budget", sorted(_BUDGETS))
@pytest.mark.parametrize("case", sorted(_JOIN_CASES))
def test_join_node_equals_the_taped_composition(monkeypatch, case, budget):
    shapes, tails, constant = _JOIN_CASES[case]
    monkeypatch.setattr(nm, "BLOCK_BYTES", _BUDGETS[budget](8 * 5 * 3))
    rng = np.random.default_rng(63)
    arrays = [rng.normal(size=s) for s in shapes] + [rng.normal(size=2)]

    def grouped(join):
        return lambda *a: (join(list(a[: len(shapes)]), [None if t is None else a[-1] for t in tails]),)

    _assert_same_signed_bits(grouped(nm.join_rows), grouped(taped_join), arrays, constant)


def test_join_node_rejects_blocks_of_other_widths():
    with pytest.raises(ShapeMismatch, match="do not join into one width"):
        nm.join_rows([np.ones((2, 3, 3)), np.ones((2, 3, 4))], [np.ones(2), np.ones(2)])
    with pytest.raises(ShapeMismatch, match="do not join into one width"):
        nm.join_rows([np.ones((2, 3, 3)), np.ones((3, 3, 3))], [None, None])


_SPLIT_CASES = {
    # (x shape, sizes, axis, the pieces a gradient reaches)
    "three": ((7, 9, 4), [2, 4, 3], -2, (0, 1, 2)),
    "two-of-three": ((7, 9, 4), [2, 4, 3], -2, (0, 2)),
    "one-of-three": ((7, 9, 4), [2, 4, 3], -2, (1,)),
    "one-piece": ((7, 9, 4), [9], -2, (0,)),
    "flat": ((20,), [12, 3, 5], 0, (2, 0, 1)),
}


@pytest.mark.parametrize("budget", sorted(_BUDGETS))
@pytest.mark.parametrize("case", sorted(_SPLIT_CASES))
def test_split_node_equals_the_taped_composition(monkeypatch, case, budget):
    shape, sizes, axis, reached = _SPLIT_CASES[case]
    monkeypatch.setattr(nm, "BLOCK_BYTES", _BUDGETS[budget](8 * 5 * 3))
    x = np.random.default_rng(64).normal(size=shape)
    _assert_same_signed_bits(
        lambda a: nm.split(a, sizes, axis), lambda a: taped_split(a, sizes, axis), [x], reached=reached
    )


def test_split_without_a_gradient_returns_views():
    flat = np.arange(10.0)
    pieces = nm.split(flat, [4, 6])
    assert all(type(piece) is np.ndarray and piece.base is flat for piece in pieces)
    with pytest.raises(ShapeMismatch, match=r"pieces of \[4, 5\] vs length 10 along axis 0"):
        nm.split(flat, [4, 5])


def test_grad_pathway_join_and_split_nodes():
    def loss(p):
        s0, s1, w0, b0, w1, b1, v1, c1, e_r = _unpack(
            p, (3, 2), (3, 4), (2, 3), (3,), (4, 3), (3,), (3, 3), (3,), (2,)
        )
        tokens = nm.snn_tokens([s0, s1], [[(w0, b0)], [(w1, b1), (v1, c1)]])  # (3, 2, 3)
        seq = nm.join_rows([tokens, nm.reshape(s1, (3, 1, 4))], [e_r, (np.arange(1.0))])
        first, second = nm.split(seq, [2, 1], axis=-2)
        return nm.tsum(first * first) + nm.tsum(second * np.arange(15.0).reshape(3, 1, 5))

    _check_op(loss, 6 + 12 + 6 + 3 + 12 + 3 + 9 + 3 + 2, seed=65)


def test_selu_large_input_does_not_overflow():
    x = nm.Tensor(np.array([[1000.0, -1.0]]), requires_grad=True)
    with np.errstate(all="raise"):
        out = nm.snn_forward(x, [(np.eye(2), np.zeros(2))])
        nm.tsum(out).backward()
    np.testing.assert_allclose(out.data, [[_selu_scalar(1000.0), _selu_scalar(-1.0)]], rtol=1e-15)
    np.testing.assert_allclose(x.grad, [[nm.SELU_SCALE, nm.SELU_SCALE * nm.SELU_ALPHA * math.exp(-1.0)]], rtol=1e-15)


# ---------------------------------------------------------------------------
# the one-node SELU layer against the closed form of affine then selu
# ---------------------------------------------------------------------------

def _layer_closed_form(x, w, b, g):
    """Value and (x, w, b) adjoints of S·where(p > 0, p, A·expm1(p)) with
    p = x @ w + b, as separate matmul, add and selu nodes compute them."""
    p = x @ w + b
    with np.errstate(over="ignore"):
        value = nm.SELU_SCALE * np.where(p > 0, p, nm.SELU_ALPHA * np.expm1(p))
    gp = g * (nm.SELU_SCALE * np.where(p > 0, 1.0, nm.SELU_ALPHA * np.exp(np.minimum(p, 0.0))))
    lead = tuple(range(x.ndim - 1))
    gw = np.swapaxes(x, -1, -2) @ gp
    return value, gp @ w.T, gw.sum(axis=lead[:-1]) if x.ndim > 2 else gw, gp.sum(axis=lead)


def _layer_inputs(shape, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    w = rng.normal(size=(shape[-1], 5))
    b = rng.normal(size=5)
    return x, w, b, rng.normal(size=shape[:-1] + (5,))


def _special_inputs():
    """Pre-activations that are exactly 0, -0, ±800 and tiny: the identity
    weight passes x through unchanged."""
    x = np.array([[0.0, -0.0, 800.0, -800.0], [1e-300, -1e-300, 1.0, -1.0], [3.0, -2.5, 0.0, 709.0]])
    g = np.random.default_rng(3).normal(size=x.shape)
    return x, np.eye(4), np.zeros(4), g


@pytest.mark.parametrize(
    "inputs",
    [_layer_inputs((6, 4), 30), _layer_inputs((3, 7, 4), 31), _special_inputs()],
    ids=["2d", "3d", "zeros-and-800"],
)
def test_selu_layer_node_equals_closed_form_bit_for_bit(inputs):
    x, w, b, g = inputs
    value, gx, gw, gb = _layer_closed_form(x, w, b, g)
    leaves = [nm.Tensor(v, requires_grad=True) for v in (x, w, b)]
    with np.errstate(over="raise", invalid="raise"):  # exp(-800) may underflow to 0
        out = nm.snn_forward(leaves[0], [(leaves[1], leaves[2])])
        nm.tsum(out * g).backward()
    assert np.array_equal(out.data, value)
    for leaf, want in zip(leaves, (gx, gw, gb)):
        assert leaf.grad.shape == want.shape
        assert np.array_equal(leaf.grad, want)


def test_selu_layer_node_with_constant_input():
    x, w, b, g = _layer_inputs((3, 7, 4), 32)
    value, _, gw, gb = _layer_closed_form(x, w, b, g)
    w_leaf, b_leaf = nm.Tensor(w, requires_grad=True), nm.Tensor(b, requires_grad=True)
    out = nm.snn_forward(x, [(w_leaf, b_leaf)])
    assert out._backward(g)[0] is None  # no adjoint for the data
    nm.tsum(out * g).backward()
    assert np.array_equal(out.data, value)
    assert np.array_equal(w_leaf.grad, gw) and np.array_equal(b_leaf.grad, gb)


def test_grad_selu_layer_node_3d_input():
    def loss(p):
        x, w, b = _unpack(p, (2, 3, 4), (4, 3), (3,))
        out = nm.snn_forward(x, [(w, b)])
        return nm.tsum(out * out)

    _check_op(loss, 39, seed=33)


# ---------------------------------------------------------------------------
# constant operands and read-only buffers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("op", [nm.add, nm.mul, nm.matmul], ids=["add", "mul", "matmul"])
def test_constant_operand_gets_no_adjoint(op):
    rng = np.random.default_rng(34)
    variable, constant = nm.Tensor(rng.normal(size=(3, 3)), requires_grad=True), rng.normal(size=(3, 3))
    g = np.ones((3, 3))
    grad_variable, grad_constant = op(variable, constant)._backward(g)
    assert grad_variable is not None and grad_constant is None
    grad_constant, grad_variable = op(constant, variable)._backward(g)
    assert grad_variable is not None and grad_constant is None


def _frozen(a):
    a = np.array(a, dtype=np.float64)
    a.flags.writeable = False
    return a


def _sweep_with_read_only_adjoints(root):
    """``root.backward()`` with every node handed a read-only adjoint."""
    stack, seen = [root], set()
    while stack:
        node = stack.pop()
        if id(node) in seen or node._backward is None:
            continue
        seen.add(id(node))
        node._backward = (lambda f: lambda g: f(_frozen(g)))(node._backward)
        stack.extend(node._parents)
    root.backward()


_MASK = _frozen([[1.0, 1.0, 0.0, 1.0]] * 3)
_READ_ONLY_OPS = {
    "add": (lambda a, b: nm.add(a, nm.reshape(b, (3, 4))), [(3, 4), (12,)]),
    "mul": (lambda a, b: nm.mul(a, nm.reshape(b, (3, 4))), [(3, 4), (12,)]),
    "matmul": (lambda a, b: nm.matmul(a, b), [(2, 3, 4), (4, 3)]),
    "swap_last": (lambda a: swap_last(a), [(2, 3, 4)]),
    "tsum": (lambda a: nm.tsum(a, axis=1), [(3, 4)]),
    "broadcast_to": (lambda a: nm.broadcast_to(a, (3, 4)), [(4,)]),
    "split": (lambda a: nm.split(a, [1, 2, 1], axis=1)[1], [(3, 4)]),
    "join_rows": (lambda a, b, t: nm.join_rows([a, b], [t, None]), [(2, 3, 2), (2, 1, 4), (2,)]),
    "concat": (lambda a, b: nm.concat([a, b], axis=-1), [(3, 4), (3, 2)]),
    "gather_rows": (lambda a: nm.gather_rows(a, np.array([[2, 0], [1, 1]])), [(2, 3, 4)]),
    "masked_softmax": (lambda a: masked_softmax(a, _MASK), [(3, 4)]),
    "masked_logsumexp": (lambda a: nm.masked_logsumexp(a, _MASK), [(3, 4)]),
    "affine": (lambda a, w, b: nm.affine(a, w, b), [(2, 3, 4), (4, 5), (5,)]),
    "layer_norm": (lambda a, g, b: layer_norm(a, g, b), [(2, 3, 4), (4,), (4,)]),
    "snn_forward": (lambda a, w, b: nm.snn_forward(a, [(w, b)]), [(2, 3, 4), (4, 5), (5,)]),
    "snn_tokens": (
        lambda a, c, w, b, v, d: nm.snn_tokens([a, c], [[(w, b)], [(v, d)]]),
        [(2, 3, 4), (2, 3, 1), (4, 5), (5,), (1, 5), (5,)],
    ),
    "masked_attention": (
        lambda a, q, k, v: nm.masked_attention(a, q, k, v, _frozen(_MASK[:2, :3]))[0],
        [(2, 3, 4), (4, 4), (4, 4), (4, 4)],
    ),
    "snn_norm_pool": (
        lambda a, w, b, g, c: nm.snn_norm_pool(a, [(w, b)], g, c, _frozen(_MASK[:2, :3])),
        [(2, 3, 4), (4, 5), (5,), (5,), (5,)],
    ),
}


@pytest.mark.parametrize("name", sorted(_READ_ONLY_OPS))
def test_taped_op_writes_to_no_input_or_adjoint(name):
    build, shapes = _READ_ONLY_OPS[name]
    rng = np.random.default_rng(35)
    leaves = [nm.Tensor(_frozen(rng.normal(size=s)), requires_grad=True) for s in shapes]
    out = build(*leaves)
    _sweep_with_read_only_adjoints(nm.tsum(out * _frozen(rng.normal(size=out.shape))))
    for leaf in leaves:
        assert leaf.grad is not None and leaf.grad.shape == leaf.shape


def test_backward_frees_interior_adjoints_and_keeps_leaf_gradients():
    w = nm.Tensor(np.array([1.0, -2.0]), requires_grad=True)
    hidden = w * 2.0
    loss = nm.tsum(hidden * hidden)
    loss.backward()
    assert hidden.grad is None and loss.grad is None
    np.testing.assert_array_equal(w.grad, [8.0, -16.0])
    with pytest.raises(BadInput, match="^backward\\(\\) through a graph that was already swept; build it again$"):
        loss.backward()  # a graph is swept once
    with pytest.raises(BadInput, match="already swept"):
        nm.tsum(hidden * 3.0).backward()  # and so is any graph through a swept node
    np.testing.assert_array_equal(w.grad, [8.0, -16.0])


def test_the_sweep_releases_each_node_before_it_returns():
    """Once a node's backward has run, the arrays its closure saved and its
    parent links are gone, before the sweep reaches the nodes below it."""
    def scaled(x, factor, on_backward=lambda: None):
        """A node of ``x * factor`` whose backward reads the ``factor`` it saved."""
        return nm._node(x.data * factor, (x,), lambda g: (on_backward() or g * factor,))

    saved = np.arange(3.0)
    kept = weakref.ref(saved)
    released = []
    leaf = nm.Tensor(np.ones(3), requires_grad=True)
    below = scaled(leaf, 2.0, lambda: released.append(kept() is None))
    above = scaled(below, saved)
    del saved
    loss = nm.tsum(above)
    loss.backward()
    assert released == [True]
    assert above._parents == () and below._parents == () and loss._parents == ()
    np.testing.assert_array_equal(leaf.grad, [0.0, 2.0, 4.0])


@pytest.mark.parametrize("mode", ["full", "late", "hierarchical"])
def test_the_training_sweep_frees_every_node_it_passes(mode):
    """After one model step's sweep, no interior node of its tape keeps a
    backward closure, with the arrays it saved, or a parent."""
    cohort = synth_cohort(SyntheticSpec(
        n_patients=6, n_segments=(2, 4), n_patches=(15, 25), d_t=5, d_h=4, n_genes=20, n_pathways=5, seed=0,
    ))
    config = TrainConfig(d_e=4, d_r=2, n_histology=3, n_pathways=5, fusion_mode=mode)
    prepared, dims, _ = build_prepared(cohort, config)
    leaves = {k: nm.Tensor(v, requires_grad=True) for k, v in init_params(dims, substream(0, "init")).items()}
    loss, _ = cox_loss(forward_risks(prepared, leaves, dims, mode), (prepared.times, prepared.events))
    interior, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in interior and node._backward is not None:
            interior[id(node)] = node
            stack.extend(node._parents)
    loss.backward()
    assert len(interior) > 20
    assert all(node._parents == () and node._backward is nm._swept for node in interior.values())
    assert all(leaf.grad is not None for leaf in leaves.values())


def test_backward_sums_adjoints_without_touching_shared_ones():
    # a and b first receive the same adjoint array from one add; a then sums
    # two more contributions, which must leave b's gradient alone
    a = nm.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = nm.Tensor(np.array([3.0, 4.0]), requires_grad=True)
    loss = nm.tsum((a + b) * np.array([1.0, 10.0])) + nm.tsum(a * 2.0) + nm.tsum(a * 5.0)
    loss.backward()
    np.testing.assert_array_equal(b.grad, [1.0, 10.0])
    np.testing.assert_array_equal(a.grad, [8.0, 17.0])


# ---------------------------------------------------------------------------
# no gradient, no node: an op that no gradient can reach returns its array
# ---------------------------------------------------------------------------

def test_numpy_defers_to_a_tensor():
    leaf = nm.Tensor(np.ones((2, 3)), requires_grad=True)
    product = np.full((2, 3), 2.0) * leaf
    assert isinstance(product, nm.Tensor)
    nm.tsum(product).backward()
    np.testing.assert_array_equal(leaf.grad, np.full((2, 3), 2.0))
    with pytest.raises(TypeError):
        np.ones((3, 2)) @ leaf


_VALIDITY = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])


def _fuse_blocks(mode):
    def build(p, h, e_r, w_q, w_k, w_v):
        fused = fuse(
            ModalityTokens("pathway", p, np.ones((2, 2))),
            ModalityTokens("histology", h, _VALIDITY),
            None,
            FusionParams(e_r, w_q, w_k, w_v),
            mode,
        )
        return nm.concat([fused.pathway, fused.histology], axis=-2)

    return build, [(2, 2, 3), (2, 3, 3), (2,), (5, 5), (5, 5), (5, 5)]


# each stage's (build, input shapes): every input is one a gradient can reach
_STAGES = {
    "masked_softmax": (lambda a: masked_softmax(a, _VALIDITY[:, None, :]), [(2, 3, 3)]),
    "affine": (lambda x, w, b: nm.affine(x, w, b), [(2, 3, 4), (4, 5), (5,)]),
    "layer_norm": (lambda x, g, b: layer_norm(x, g, b), [(2, 3, 4), (4,), (4,)]),
    "snn_forward": (lambda x, w, b: nm.snn_forward(x, [(w, b), (np.eye(5), np.zeros(5))]), [(2, 3, 4), (4, 5), (5,)]),
    "masked_attention": (
        lambda x, q, k, v: nm.masked_attention(x, q, k, v, _VALIDITY)[0],
        [(2, 3, 4), (4, 4), (4, 4), (4, 4)],
    ),
    "snn_norm_pool": (
        lambda x, w, b, g, c: nm.snn_norm_pool(x, [(w, b), (np.eye(5), np.zeros(5))], g, c, _VALIDITY),
        [(2, 3, 4), (4, 5), (5,), (5,), (5,)],
    ),
    "fuse_full": _fuse_blocks("full"),
    "fuse_late": _fuse_blocks("late"),
    "fuse_hierarchical": _fuse_blocks("hierarchical"),
    "embed_pathways": (
        lambda s0, s1, w0, b0, w1, b1: embed_pathways([s0, s1], [[(w0, b0)], [(w1, b1)]]),
        [(3, 2), (3, 4), (2, 5), (5,), (4, 5), (5,)],
    ),
    "snn_tokens": (
        lambda s0, s1, w0, b0, w1, b1: nm.snn_tokens([s0, s1], [[(w0, b0), (np.eye(5), np.zeros(5))], [(w1, b1)]]),
        [(3, 2), (3, 4), (2, 5), (5,), (4, 5), (5,)],
    ),
    "join_rows": (lambda a, b, t: nm.join_rows([a, b], [t, None]), [(2, 3, 2), (2, 1, 4), (2,)]),
    # piece 0 is reached by no gradient: x's adjoint holds zeros there
    "split": (lambda x: nm.split(x, [1, 2], axis=-2)[1], [(2, 3, 4)]),
    "select_prototypes": (
        lambda z: select_prototypes(z, np.array([[0.2, 0.5, 0.0], [0.9, 0.0, 0.0]]), _VALIDITY, 2).embeddings,
        [(2, 3, 4)],
    ),
    "cox_loss": (lambda risks: cox_loss(risks, (np.array([1.0, 3.0, 2.0]), np.array([1, 0, 1])))[0], [(3,)]),
}


@pytest.mark.parametrize("name", sorted(_STAGES))
def test_an_output_no_gradient_reaches_is_a_plain_array(name):
    build, shapes = _STAGES[name]
    rng = np.random.default_rng(36)
    values = [rng.normal(size=s) for s in shapes]
    plain = build(*values)
    constant = build(*(nm.Tensor(v) for v in values))
    for out in (plain, constant):
        if name == "cox_loss":
            assert type(out) is float
        else:
            assert type(out) is np.ndarray and out.dtype == np.float64
    np.testing.assert_array_equal(constant, plain)
    for i in range(len(values)):
        leaf = nm.Tensor(values[i], requires_grad=True)
        out = build(*values[:i], leaf, *values[i + 1 :])
        assert isinstance(out, nm.Tensor), f"input {i}"
        np.testing.assert_array_equal(out.data, plain)
        nm.tsum(out * rng.normal(size=out.shape)).backward()
        assert leaf.grad is not None and leaf.grad.shape == leaf.shape, f"input {i}"


def test_forward_risks_with_array_parameters_returns_an_array():
    cohort = synth_cohort(SyntheticSpec(
        n_patients=6, n_segments=(2, 4), n_patches=(15, 25), d_t=5, d_h=4, n_genes=20, n_pathways=5, seed=0,
    ))
    config = TrainConfig(d_e=4, d_r=2, n_histology=3, n_pathways=5)
    prepared, dims, _ = build_prepared(cohort, config)
    values = init_params(dims, substream(0, "init"))
    for mode in ("full", "late", "hierarchical"):
        risks = forward_risks(prepared, values, dims, mode)
        assert type(risks) is np.ndarray and risks.shape == (6,)
        taped = forward_risks(prepared, {k: nm.Tensor(v, requires_grad=True) for k, v in values.items()}, dims, mode)
        assert isinstance(taped, nm.Tensor)
        np.testing.assert_array_equal(taped.data, risks)


@pytest.mark.parametrize("budget", [1, 3000, 1 << 40], ids=["patient", "3000B", "batch"])
@pytest.mark.parametrize(
    "mode, shared", [("full", False), ("late", False), ("hierarchical", False), ("full", True)],
    ids=["full", "late", "hierarchical", "full-shared-beta"],
)
def test_model_risks_and_gradients_equal_the_taped_composition(monkeypatch, mode, shared, budget):
    cohort = synth_cohort(SyntheticSpec(
        n_patients=7, n_segments=(1, 4), n_patches=(15, 25), d_t=5, d_h=4, n_genes=20, n_pathways=5, seed=0,
    ))
    config = TrainConfig(d_e=4, d_r=2, n_histology=3, n_pathways=5, fusion_mode=mode, shared_beta_mlp=shared)
    prepared, dims, _ = build_prepared(cohort, config)
    assert prepared.text_mask.sum(axis=-1).min() < dims.n_text  # some text prototype slots are empty
    values = init_params(dims, substream(0, "init"))
    monkeypatch.setattr(nm, "BLOCK_BYTES", budget)

    def step(batch):
        leaves = {name: nm.Tensor(v, requires_grad=True) for name, v in values.items()}
        risks = forward_risks(batch, leaves, dims, mode)
        nm.tsum(risks * np.linspace(-1.0, 2.0, len(batch))).backward()
        return [risks.data] + [leaves[name].grad for name in sorted(leaves)]

    batches = [prepared, prepared.subset([3])]  # seven patients, and a batch of one
    ours = [step(batch) for batch in batches]
    monkeypatch.setattr(nm, "masked_attention", taped_attention)
    monkeypatch.setattr(nm, "snn_norm_pool", taped_pool)
    monkeypatch.setattr(nm, "snn_tokens", taped_tokens)
    monkeypatch.setattr(nm, "join_rows", taped_join)
    monkeypatch.setattr(nm, "split", taped_split)
    for got, want in zip(ours, [step(batch) for batch in batches]):
        for a, b in zip(got, want):
            assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
