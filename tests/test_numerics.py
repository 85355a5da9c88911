import math

import numpy as np
import pytest

from protosurv import numerics as nm
from protosurv.errors import AllMasked, NonFiniteLoss, ShapeMismatch
from protosurv.pathways import embed_pathways


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
        x = nm.reshape(nm.narrow(p, 0, 0, 24), (2, 3, 4))
        w = nm.reshape(nm.narrow(p, 0, 24, 12), (4, 3))
        b = nm.narrow(p, 0, 36, 3)
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
    "swap_last": (lambda a: nm.swap_last(a), [(2, 3, 4)]),
    "tsum": (lambda a: nm.tsum(a, axis=1), [(3, 4)]),
    "broadcast_to": (lambda a: nm.broadcast_to(a, (3, 4)), [(4,)]),
    "narrow": (lambda a: nm.narrow(a, 1, 1, 2), [(3, 4)]),
    "concat": (lambda a, b: nm.concat([a, b], axis=-1), [(3, 4), (3, 2)]),
    "gather_rows": (lambda a: nm.gather_rows(a, np.array([[2, 0], [1, 1]])), [(2, 3, 4)]),
    "masked_softmax": (lambda a: nm.masked_softmax(a, _MASK), [(3, 4)]),
    "masked_logsumexp": (lambda a: nm.masked_logsumexp(a, _MASK), [(3, 4)]),
    "affine": (lambda a, w, b: nm.affine(a, w, b), [(2, 3, 4), (4, 5), (5,)]),
    "layer_norm": (lambda a, g, b: nm.layer_norm(a, g, b), [(2, 3, 4), (4,), (4,)]),
    "snn_forward": (lambda a, w, b: nm.snn_forward(a, [(w, b)]), [(2, 3, 4), (4, 5), (5,)]),
    "masked_attention": (
        lambda a, q, k, v: nm.masked_attention(a, q, k, v, _frozen(_MASK[..., :3])[None, :1, :])[0],
        [(2, 3, 4), (4, 4), (4, 4), (4, 4)],
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
    loss.backward()  # the graph is intact: a second sweep accumulates again
    np.testing.assert_array_equal(w.grad, [16.0, -32.0])


def test_backward_sums_adjoints_without_touching_shared_ones():
    # a and b first receive the same adjoint array from one add; a then sums
    # two more contributions, which must leave b's gradient alone
    a = nm.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = nm.Tensor(np.array([3.0, 4.0]), requires_grad=True)
    loss = nm.tsum((a + b) * np.array([1.0, 10.0])) + nm.tsum(a * 2.0) + nm.tsum(a * 5.0)
    loss.backward()
    np.testing.assert_array_equal(b.grad, [1.0, 10.0])
    np.testing.assert_array_equal(a.grad, [8.0, 17.0])
