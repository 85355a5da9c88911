"""Dense linear-algebra kernel shared by every stage of the pipeline.

All arithmetic is float64. Differentiation is reverse-mode over a recorded
computation graph: an operation returns a :class:`Tensor` holding the
forward value plus a closure that maps the output adjoint to the input
adjoints, or, when no input requires a gradient, its plain ndarray.

- No gradient, no node: ``_node`` makes that choice for every operation, so
  training and inference run one code path.
- A self-normalising layer ``selu(x @ W + b)`` is one node.
- ``affine`` and the layers take a stack of rows, (..., n, d): one row is
  a batch of one, (1, d).
- An operand that does not require a gradient (a constant: input data, a
  mask, a scale) gets ``None`` for its adjoint, which is never computed.
- A kernel writes in place only to arrays it allocated itself, never to an
  input or to the adjoint it was handed.
- The backward sweep frees each interior node's adjoint once it has
  used it; only leaves keep gradients.

Tapes are per-call (each forward builds a fresh graph), so concurrent
evaluation over immutable inputs is safe. Training hands every step leaf
Tensors that are views into one flat parameter buffer, which AdamW updates
in place (``survival.train``).

Correctness of every backward rule is pinned by :func:`grad_check` against
central finite differences rather than by comparison to any framework.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import AllMasked, BadInput, NonFiniteLoss, ShapeMismatch

# Self-normalising activation constants (scaled exponential linear unit).
SELU_SCALE = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772


class Tensor:
    """Node in a recorded computation graph over a float64 ndarray."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], tuple] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def backward(self) -> None:
        """Accumulate adjoints of this scalar into every reachable leaf.

        Only leaves keep their gradients: an interior node's adjoint is freed
        as soon as its backward has run, so the sweep holds the adjoints of
        its frontier, not of the whole graph.
        """
        if self.data.size != 1:
            raise ShapeMismatch("backward() requires a scalar root")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        summed: set[int] = set()  # nodes whose adjoint is a sum this sweep allocated
        for node in reversed(topo):
            if node._backward is None:
                continue
            grad, node.grad = node.grad, None
            if grad is None:
                continue
            for parent, g in zip(node._parents, node._backward(grad)):
                if not parent.requires_grad or g is None:
                    continue
                if parent.grad is None:
                    parent.grad = g
                elif id(parent) in summed:
                    parent.grad += g
                else:
                    parent.grad = parent.grad + g
                    summed.add(id(parent))

    # operator sugar; every op promotes plain arrays to constant Tensors, and
    # numpy defers to it (``array * tensor`` is ``__rmul__``'s node)
    __array_ufunc__ = None
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: np.ndarray, parents: Sequence[Tensor], backward):
    """A Tensor recording ``backward`` when any parent requires a gradient, else ``data``."""
    data = np.asarray(data, dtype=np.float64)
    if not any(p.requires_grad for p in parents):
        return data
    out = Tensor(data, requires_grad=True)
    out._parents = tuple(parents)
    out._backward = backward
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` along axes that were broadcast."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return _node(
        a.data + b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g, b.data.shape) if b.requires_grad else None,
        ),
    )


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return _node(
        a.data * b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None,
        ),
    )


def _matmul_grads(g, a: Tensor, b: Tensor):
    """Adjoints of ``a @ b`` given the output adjoint; None for a constant."""
    ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape) if a.requires_grad else None
    gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape) if b.requires_grad else None
    return ga, gb


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape[-1] != b.data.shape[-2 if b.data.ndim > 1 else 0]:
        raise ShapeMismatch(f"matmul {a.data.shape} @ {b.data.shape}")
    return _node(a.data @ b.data, (a, b), lambda g: _matmul_grads(g, a, b))


def swap_last(x):
    x = as_tensor(x)
    return _node(
        np.swapaxes(x.data, -1, -2),
        (x,),
        lambda g: (np.swapaxes(g, -1, -2),),
    )


def tsum(x, axis=None, keepdims: bool = False):
    x = as_tensor(x)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, x.data.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, x.data.shape).copy(),)

    return _node(x.data.sum(axis=axis, keepdims=keepdims), (x,), backward)


def reshape(x, shape):
    x = as_tensor(x)
    return _node(x.data.reshape(shape), (x,), lambda g: (g.reshape(x.data.shape),))


def broadcast_to(x, shape):
    x = as_tensor(x)
    return _node(
        np.broadcast_to(x.data, shape).copy(),
        (x,),
        lambda g: (_unbroadcast(g, x.data.shape),),
    )


def narrow(x, axis: int, start: int, length: int):
    """Contiguous slice ``[start, start+length)`` along one axis."""
    x = as_tensor(x)
    slicer = [slice(None)] * x.data.ndim
    slicer[axis] = slice(start, start + length)
    slicer = tuple(slicer)

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[slicer] = g
        return (gx,)

    return _node(x.data[slicer], (x,), backward)


def concat(parts: Sequence, axis: int = 0):
    parts = [as_tensor(p) for p in parts]
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return _node(np.concatenate([p.data for p in parts], axis=axis), parts, backward)


def gather_rows(x, idx: np.ndarray):
    """Select rows along axis -2: ``out[..., j, :] = x[..., idx[..., j], :]``."""
    x = as_tensor(x)
    idx = np.asarray(idx, dtype=np.intp)

    def backward(g):
        gx = np.zeros_like(x.data)
        lead = int(np.prod(x.data.shape[:-2]))
        m, d = x.data.shape[-2:]
        k = idx.shape[-1]
        flat = gx.reshape(lead * m, d)
        flat_idx = (idx.reshape(lead, k) + np.arange(lead)[:, None] * m).ravel()
        np.add.at(flat, flat_idx, g.reshape(lead * k, d))
        return (flat.reshape(x.data.shape),)

    return _node(np.take_along_axis(x.data, idx[..., None], axis=-2), (x,), backward)


# ---------------------------------------------------------------------------
# masked softmax / masked log-sum-exp
# ---------------------------------------------------------------------------

def _masked_exp(x: np.ndarray, mask):
    """``exp(x - row max)`` along the last axis, the max taken over the 0/1
    ``mask``'s entries only (masked entries end at exactly 0), with the row
    max and row sum (keepdims). Raises AllMasked for an all-zero mask row."""
    mask = np.asarray(mask, dtype=np.float64)
    if not np.all((mask == 0.0) | (mask == 1.0)):
        raise BadInput("mask entries must be 0 or 1")
    if np.any(mask.sum(axis=-1) < 1):
        raise AllMasked("softmax row with every key masked")
    shifted = np.where(mask > 0.5, x, -np.inf)
    row_max = shifted.max(axis=-1, keepdims=True)
    weights = np.exp(shifted - row_max)
    return weights, row_max, weights.sum(axis=-1, keepdims=True)


def masked_softmax(logits, key_mask):
    """Row-stochastic softmax over unmasked keys; masked columns are exactly 0.

    ``key_mask`` applies to the last axis and may broadcast over rows. Raises
    :class:`AllMasked` when any mask vector is all zeros. The mask is a
    constant: no adjoint flows to it.
    """
    x = as_tensor(logits)
    weights, _, total = _masked_exp(x.data, key_mask)
    out_data = weights / total

    def backward(g):
        inner = (g * out_data).sum(axis=-1, keepdims=True)
        gx = g - inner
        gx *= out_data
        return (gx,)

    return _node(out_data, (x,), backward)


def masked_logsumexp(x, mask):
    """log Σ_j∈mask exp(x_j) along the last axis, computed stably."""
    x = as_tensor(x)
    weights, row_max, total = _masked_exp(x.data, mask)
    out_data = (row_max + np.log(total)).squeeze(-1)

    def backward(g):
        gx = weights / total
        gx *= g[..., None]
        return (gx,)

    return _node(out_data, (x,), backward)


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

def _check_affine(x: Tensor, weight: Tensor, bias: Tensor) -> None:
    if x.ndim < 2:
        raise ShapeMismatch(f"affine input {x.shape} is not a stack of rows")
    if weight.ndim != 2 or x.shape[-1] != weight.shape[0]:
        raise ShapeMismatch(f"affine input {x.shape} vs weight {weight.shape}")
    if bias.shape not in ((), (weight.shape[1],)):
        raise ShapeMismatch(f"affine bias {bias.shape} vs weight {weight.shape}")


def affine(x, weight, bias):
    """Row-wise ``x @ weight + bias`` on a (..., n, d_in) stack of rows, arrays
    or Tensors; one row is a (1, d_in) stack, and a 1-D ``x`` raises."""
    xt, wt, bt = as_tensor(x), as_tensor(weight), as_tensor(bias)
    _check_affine(xt, wt, bt)
    return add(matmul(xt, wt), bt)


def layer_norm(x, gain, bias, eps: float = 1e-5):
    """Normalise the last axis to zero mean / unit variance, then affine.

    With gain 1 and bias 0 the output has (population) mean 0 and variance 1
    up to the eps regulariser.
    """
    xt, gt, bt = as_tensor(x), as_tensor(gain), as_tensor(bias)
    normed = xt.data - xt.data.mean(axis=-1, keepdims=True)
    var = (normed * normed).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    normed *= inv_std

    def backward(g):
        g_norm = g * gt.data
        d = xt.data.shape[-1]
        spread = g_norm * normed
        np.multiply(normed, spread.sum(axis=-1, keepdims=True), out=spread)
        spread /= d
        g_norm -= g_norm.mean(axis=-1, keepdims=True)
        g_norm -= spread
        g_norm *= inv_std
        return (
            g_norm if xt.requires_grad else None,
            _unbroadcast(g * normed, gt.data.shape) if gt.requires_grad else None,
            _unbroadcast(g, bt.data.shape) if bt.requires_grad else None,
        )

    out_data = normed * gt.data
    out_data += bt.data
    return _node(out_data, (xt, gt, bt), backward)


def _selu_layer(x: Tensor, weight: Tensor, bias: Tensor):
    """One node for ``selu(x @ weight + bias)``: with p = x @ weight + bias,
    selu(p) = S·(max(p, 0) + A·expm1(min(p, 0))) and its slope is S for
    p > 0, else S·A·exp(min(p, 0)). The minimum keeps exp from overflowing on
    large positive p; both equal the closed form S·where(p > 0, p, A·expm1(p))
    and its slope bit for bit."""
    _check_affine(x, weight, bias)
    pre = x.data @ weight.data
    pre += bias.data
    tail = np.minimum(pre, 0.0)
    np.expm1(tail, out=tail)
    tail *= SELU_ALPHA
    out_data = np.maximum(pre, 0.0)
    out_data += tail
    out_data *= SELU_SCALE

    def backward(g):
        # S·(pos + (1 - pos)·A·exp(min(p, 0))) with pos the 0/1 indicator of p > 0
        positive = (pre > 0).astype(np.float64)
        slope = 1.0 - positive
        slope *= SELU_ALPHA
        tail = np.minimum(pre, 0.0)
        slope *= np.exp(tail, out=tail)
        slope += positive
        slope *= SELU_SCALE
        slope *= g
        gx, gw = _matmul_grads(slope, x, weight)
        return gx, gw, _unbroadcast(slope, bias.data.shape) if bias.requires_grad else None

    return _node(out_data, (x, weight, bias), backward)


def snn_forward(x, layers):
    """Self-normalising feed-forward stack: selu(affine(·)) per layer, each
    layer one tape node.

    ``layers`` is a sequence of (weight, bias) pairs; ``x`` is a stack of
    rows, as for :func:`affine`.
    """
    out = x
    for weight, bias in layers:
        out = _selu_layer(as_tensor(out), as_tensor(weight), as_tensor(bias))
    return out


def masked_attention(x, w_q, w_k, w_v, key_mask):
    """Scaled dot-product self-attention over the rows of ``x`` under a mask.

    Computes ``softmax_mask((x w_q)(x w_k)ᵀ / √d) (x w_v)`` with d the token
    width. ``key_mask`` broadcasts against the (..., n, n) logits: pass
    (..., 1, n) per-token validity, or an (..., n, n) mask that also limits
    which tokens see which. Masked keys get exactly zero weight. Token i is a
    valid query when the mask lets it attend to itself; invalid query rows of
    the output are zero. Returns (output, attention).
    """
    h, weights = as_tensor(x), (w_q, w_k, w_v)
    n, d = h.shape[-2:]
    for w in weights:
        if np.shape(w) != (d, d):
            raise ShapeMismatch(f"attention weight {np.shape(w)} does not match token width {d}")
    mask = np.asarray(key_mask, dtype=np.float64)
    query_mask = np.diagonal(np.broadcast_to(mask, mask.shape[:-2] + (n, n)), axis1=-2, axis2=-1)
    q, k, v = (matmul(h, w) for w in weights)
    attention = masked_softmax(mul(matmul(q, swap_last(k)), 1.0 / math.sqrt(d)), mask)
    out = mul(matmul(attention, v), query_mask[..., :, None])
    return out, attention


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------

@dataclass
class GradReport:
    max_relative_error: float
    worst_parameter_index: int


def grad_check(loss_fn, params, eps: float = 1e-5) -> GradReport:
    """Compare the taped gradient of ``loss_fn`` with central differences.

    ``loss_fn`` maps a flat parameter :class:`Tensor` to a scalar, a Tensor
    when that one requires a gradient. The relative error per coordinate
    uses the denominator max(|analytic|, |numeric|, 1e-8).
    """
    params = np.asarray(params, dtype=np.float64).ravel()

    def evaluate(values: np.ndarray) -> float:
        value = float(as_tensor(loss_fn(Tensor(values))).data.reshape(()))
        if not np.isfinite(value):
            raise NonFiniteLoss(f"loss is {value} at a probed point")
        return value

    leaf = Tensor(params.copy(), requires_grad=True)
    out = as_tensor(loss_fn(leaf))
    centre = float(out.data.reshape(()))
    if not np.isfinite(centre):
        raise NonFiniteLoss(f"loss is {centre} at the supplied parameters")
    out.backward()
    analytic = np.zeros_like(params) if leaf.grad is None else leaf.grad.ravel()

    numeric = np.empty_like(params)
    for i in range(params.size):
        bumped = params.copy()
        bumped[i] += eps
        hi = evaluate(bumped)
        bumped[i] -= 2 * eps
        lo = evaluate(bumped)
        numeric[i] = (hi - lo) / (2.0 * eps)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    rel = np.abs(analytic - numeric) / denom
    worst = int(rel.argmax()) if rel.size else 0
    return GradReport(float(rel[worst]) if rel.size else 0.0, worst)
