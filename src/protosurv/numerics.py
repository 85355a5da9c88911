"""Dense linear-algebra kernel shared by every stage of the pipeline.

All arithmetic is float64. Differentiation is reverse-mode over a recorded
computation graph: an operation returns a :class:`Tensor` holding the
forward value plus a closure that maps the output adjoint to the input
adjoints, or, when no input requires a gradient, its plain ndarray.

- No gradient, no node: ``_node`` makes that choice for every operation, so
  training and inference run one code path.
- ``snn_tokens`` is one node for P self-normalising networks, each
  ``selu(x @ W + b)`` per layer on its own input, their outputs stacked as
  (..., P, width) tokens; ``snn_forward`` is its one-network case. It keeps
  the pre-activations and recomputes the hidden SELU outputs in its backward.
- ``join_rows`` is one node that joins stacks of rows on axis -2, a tail
  vector appended to each row of a block; ``split`` cuts an array into
  pieces through one hub node, whose backward gets one assembled adjoint.
  Neither keeps an array.
- ``masked_attention`` is one node over (..., n) token validity, with
  parents x, w_q, w_k and w_v. It returns the query-masked P (x w_v) and the
  attention weights P as data, which no gradient reaches; it keeps q, k,
  x w_v and P, not the logits, their scaled copy or the unmasked product.
- ``snn_norm_pool``, the risk head of one modality, is one node: its SELU
  layers, layer norm and masked mean over tokens. It keeps each layer's
  pre-activation and the normalised values with their 1/std; not the SELU
  outputs, which its backward recomputes, the layer-norm output or the
  masked rows.
- The attention and head nodes run forward and backward over blocks of patients, each block at most
  ``BLOCK_BYTES`` (256 KiB) of per-patient working set, so their
  temporaries stay small. Their bits do not depend on the block size:
  numpy's stacked matmul makes one product per patient, softmax, layer norm
  and the masked mean reduce within one patient, and a parameter's adjoint
  is a running sum: each block adds the earlier blocks' total into the
  first row of its own per-patient stack and sums that stack, the order in
  which ``_unbroadcast`` sums the batch's. x's attention adjoint is the q
  and k parts summed, plus the v part: the order in which the chain of
  taped operations it replaces sums it.
- ``affine`` and the layers take a stack of rows, (..., n, d): one row is
  a batch of one, (1, d).
- An operand that does not require a gradient (a constant: input data, a
  mask, a scale) gets ``None`` for its adjoint, which is never computed.
- A kernel writes in place only to arrays it allocated itself, never to an
  input or to the adjoint it was handed.
- The backward sweep frees each interior node as soon as its backward has
  run: its adjoint, its backward closure with the arrays that closure saved,
  and its links to its parents. Only leaves keep gradients, and a graph is
  swept once: a second sweep raises BadInput.

Tapes are per-call (each forward builds a fresh graph), so concurrent
evaluation over immutable inputs is safe. Training hands every step leaf
Tensors that are views into one flat parameter buffer, which AdamW updates
in place (``survival.train``).

Correctness of every backward rule is pinned by :func:`grad_check` against
central finite differences rather than by comparison to any framework.

Results are bit-reproducible given (data, seed) on one machine, with one
BLAS kernel and one EM block height (``histology.BLOCK_BYTES``). Another
OpenBLAS kernel rounds its products differently: on one crit7 fold it moved
the held-out risks by up to ~2e-12 of their largest value and left the
C-index equal. Neither the BLAS thread count (1 or 2) nor this module's
``BLOCK_BYTES`` changes the bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
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

        Only leaves keep their gradients. Once an interior node's backward has
        run, the sweep frees its adjoint, its backward closure, with the
        arrays the closure saved, and its links to its parents, so the sweep
        holds the adjoints of its frontier and the saved arrays of the nodes
        it has yet to reach. A graph is swept once: a sweep that reaches a
        swept node raises BadInput.
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
            if node._backward is _swept:
                _swept(None)  # raises
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        summed: set[int] = set()  # nodes whose adjoint is a sum this sweep allocated
        while topo:
            node = topo.pop()  # reverse topological order; a swept node is freed once its children are
            if node._backward is None:
                continue
            grad, node.grad = node.grad, None
            backward, parents = node._backward, node._parents
            node._backward, node._parents = _swept, ()
            if grad is None:
                continue
            for parent, g in zip(parents, backward(grad)):
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


def _swept(g):
    """The backward of a node a sweep has passed: a graph is swept once."""
    raise BadInput("backward() through a graph that was already swept; build it again")


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


def split(x, sizes: Sequence[int], axis: int = 0) -> list:
    """``x`` cut along ``axis`` into consecutive pieces of ``sizes``, which sum
    to its length there: views of ``x`` without a gradient, else Tensors
    through one hub node. The pieces' backwards assemble ``x``'s adjoint in
    one array, which the hub hands on; a piece that no gradient reached
    contributes zeros. The entries are those of a sum of zero-padded copies
    of the pieces' adjoints: once a second piece is reached, each is its
    adjoint + 0.0, which turns -0.0 into +0.0."""
    x = as_tensor(x)
    if sum(sizes) != x.shape[axis]:
        raise ShapeMismatch(f"pieces of {list(sizes)} vs length {x.shape[axis]} along axis {axis}")
    axis %= x.ndim
    cuts = [(slice(None),) * axis + (slice(start, start + size),) for start, size in zip(accumulate(sizes, initial=0), sizes)]
    pieces = [x.data[cut] for cut in cuts]
    if not x.requires_grad:
        return pieces
    adjoint, reached = np.empty(0), []

    def piece_backward(i):
        def backward(g):
            nonlocal adjoint
            if reached:
                if len(reached) == 1:
                    adjoint[cuts[reached[0]]] += 0.0
                adjoint[cuts[i]] += g
            else:
                adjoint = np.zeros(x.shape)
                adjoint[cuts[i]] = g
            reached.append(i)
            return (adjoint if len(reached) == 1 else None,)  # the hub's adjoint, handed on by the first

        return backward

    hub = _node(x.data, (x,), lambda g: (g,))
    return [_node(piece, (hub,), piece_backward(i)) for i, piece in enumerate(pieces)]


def join_rows(blocks: Sequence, tails: Sequence):
    """The (..., n_i, w_i) stacks of rows ``blocks`` joined on axis -2, each row
    of block i followed by ``tails[i]``: a vector of the joined width less
    w_i, or None when w_i is that width. One node, whose parents are the
    blocks and then each tail given, in block order, so a tail that several
    blocks share sums their adjoints in that order. It keeps nothing. One
    block without a tail is returned as it is.
    """
    blocks = [as_tensor(x) for x in blocks]
    tails = [None if t is None else as_tensor(t) for t in tails]
    if len(blocks) == 1 and tails[0] is None:
        return blocks[0].data if not blocks[0].requires_grad else blocks[0]
    lead = blocks[0].shape[:-2]
    widths = {x.shape[-1] + (0 if t is None else t.shape[-1]) for x, t in zip(blocks, tails)}
    if len(widths) != 1 or any(x.ndim < 2 or x.shape[:-2] != lead for x in blocks) or any(
        t is not None and t.ndim != 1 for t in tails
    ):
        shapes = [(x.shape, None if t is None else t.shape) for x, t in zip(blocks, tails)]
        raise ShapeMismatch(f"blocks and tails {shapes} do not join into one width")
    stops = list(accumulate(x.shape[-2] for x in blocks))
    rows = [slice(stop - x.shape[-2], stop) for x, stop in zip(blocks, stops)]
    out = np.empty(lead + (stops[-1], widths.pop()))
    for x, t, r in zip(blocks, tails, rows):
        out[..., r, : x.shape[-1]] = x.data
        if t is not None:
            out[..., r, x.shape[-1] :] = t.data

    def backward(g):
        grads = [g[..., r, : x.shape[-1]] if x.requires_grad else None for x, r in zip(blocks, rows)]
        return grads + [
            _unbroadcast(g[..., r, x.shape[-1] :], t.shape) if t.requires_grad else None
            for x, t, r in zip(blocks, tails, rows)
            if t is not None
        ]

    return _node(out, blocks + [t for t in tails if t is not None], backward)


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


def _masked_softmax(x: np.ndarray, mask) -> np.ndarray:
    """Row-stochastic softmax of ``x`` over unmasked keys, masked columns
    exactly 0; ``mask`` applies to the last axis and may broadcast over rows."""
    weights, _, total = _masked_exp(x, mask)
    return weights / total


def _softmax_adjoint(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Adjoint of the softmax input given its output ``p`` and output adjoint ``g``."""
    inner = (g * p).sum(axis=-1, keepdims=True)
    gx = g - inner
    gx *= p
    return gx


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

def _check_affine(x_shape, weight_shape, bias_shape) -> None:
    if len(x_shape) < 2:
        raise ShapeMismatch(f"affine input {x_shape} is not a stack of rows")
    if len(weight_shape) != 2 or x_shape[-1] != weight_shape[0]:
        raise ShapeMismatch(f"affine input {x_shape} vs weight {weight_shape}")
    if bias_shape not in ((), (weight_shape[1],)):
        raise ShapeMismatch(f"affine bias {bias_shape} vs weight {weight_shape}")


def affine(x, weight, bias):
    """Row-wise ``x @ weight + bias`` on a (..., n, d_in) stack of rows, arrays
    or Tensors; one row is a (1, d_in) stack, and a 1-D ``x`` raises."""
    xt, wt, bt = as_tensor(x), as_tensor(weight), as_tensor(bias)
    _check_affine(xt.shape, wt.shape, bt.shape)
    return add(matmul(xt, wt), bt)


def _selu(pre: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """selu(p) = S·(max(p, 0) + A·expm1(min(p, 0))), written to ``out`` when
    given. The minimum keeps exp from overflowing on large positive p; this
    equals the closed form S·where(p > 0, p, A·expm1(p)) bit for bit."""
    tail = np.minimum(pre, 0.0)
    np.expm1(tail, out=tail)
    tail *= SELU_ALPHA
    out = np.maximum(pre, 0.0, out=out)
    out += tail
    out *= SELU_SCALE
    return out


def _selu_slope(pre: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``g`` times the slope of selu at ``pre``: S·(pos + (1 - pos)·A·exp(min(p, 0)))
    with pos the 0/1 indicator of p > 0, which equals S for p > 0, else
    S·A·exp(p), bit for bit."""
    positive = (pre > 0).astype(np.float64)
    slope = np.subtract(1.0, positive)
    slope *= SELU_ALPHA
    tail = np.minimum(pre, 0.0)
    slope *= np.exp(tail, out=tail)
    slope += positive
    slope *= SELU_SCALE
    slope *= g
    return slope


def _snn_networks(xs, networks):
    """(tokens, parents, backward) of :func:`snn_tokens`'s node."""
    xs = [as_tensor(x) for x in xs]
    networks = [[(as_tensor(w), as_tensor(b)) for w, b in layers] for layers in networks]
    if len(xs) != len(networks) or not xs:
        raise ShapeMismatch(f"{len(xs)} inputs for {len(networks)} networks")
    shapes = set()
    for x, layers in zip(xs, networks):
        if not layers:
            raise ShapeMismatch("a network without a layer")
        shape = x.shape
        for w, b in layers:
            _check_affine(shape, w.shape, b.shape)
            shape = shape[:-1] + w.shape[1:]
        shapes.add(shape)
    if len(shapes) != 1:
        raise ShapeMismatch(f"networks give rows of shapes {sorted(shapes)}, not one")
    shape = shapes.pop()
    params = [t for layers in networks for layer in layers for t in layer]
    taped = any(t.requires_grad for t in xs + params)
    tokens = np.empty(shape[:-1] + (len(xs), shape[-1]))
    saved = []  # each network's pre-activations, kept only for a backward
    for i, (x, layers) in enumerate(zip(xs, networks)):
        h, pres = x.data, []
        for k, (w, b) in enumerate(layers):
            pre = h @ w.data
            pre += b.data
            h = _selu(pre, tokens[..., i, :] if k == len(layers) - 1 else None)
            pres.append(pre)
        if taped:
            saved.append(pres)

    def backward(g):
        g = g.reshape(tokens.shape)
        gxs, gparams = [], []
        for i, (x, layers, pres) in enumerate(zip(xs, networks, saved)):
            # reaches[k]: the adjoint of layer k's input is needed
            reaches = [x.requires_grad]
            for w, b in layers[:-1]:
                reaches.append(reaches[-1] or w.requires_grad or b.requires_grad)
            grad, adjoints = g[..., i, :], [None] * (2 * len(layers))
            for k in reversed(range(len(layers))):
                w, b = layers[k]
                slope = _selu_slope(pres[k], grad)
                if w.requires_grad:
                    rows = x.data if k == 0 else _selu(pres[k - 1])
                    adjoints[2 * k] = _unbroadcast(np.swapaxes(rows, -1, -2) @ slope, w.shape)
                grad = slope @ np.swapaxes(w.data, -1, -2) if reaches[k] else None
                if b.requires_grad:
                    adjoints[2 * k + 1] = _unbroadcast(slope, b.shape)
                if grad is None:
                    break
            gxs.append(grad if x.requires_grad else None)
            gparams += adjoints
        return gxs + gparams

    return tokens, xs + params, backward


def snn_tokens(xs, networks):
    """Token i is the self-normalising network ``networks[i]`` on ``xs[i]``:
    selu(affine(·)) per (weight, bias) layer, every network ending at one
    width. (..., n_i) stacks of rows give (..., P, width) tokens, P networks
    stacked on axis -2, as one tape node whose parents are every x and then
    each network's weights and biases in order. It writes each network's last
    output straight into the tokens and keeps the pre-activations only: its
    backward recomputes the hidden outputs, one network at a time.
    """
    tokens, parents, backward = _snn_networks(xs, networks)
    return _node(tokens, parents, backward)


def snn_forward(x, layers):
    """Self-normalising feed-forward stack: selu(affine(·)) per layer, as one
    tape node, the one-network case of :func:`snn_tokens` without its network
    axis.

    ``layers`` is a sequence of (weight, bias) pairs; ``x`` is a stack of
    rows, as for :func:`affine`.
    """
    tokens, parents, backward = _snn_networks([x], [layers])
    return _node(tokens[..., 0, :], parents, backward)


def _layer_norm(x: np.ndarray, eps: float = 1e-5):
    """(normed, inv_std) along the last axis: ``x`` at zero mean and unit
    (population) variance up to the eps regulariser, and the
    1/sqrt(var + eps) that scaled it (keepdims)."""
    normed = x - x.mean(axis=-1, keepdims=True)
    var = (normed * normed).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    normed *= inv_std
    return normed, inv_std


def _layer_norm_adjoint(g_norm: np.ndarray, normed: np.ndarray, inv_std: np.ndarray) -> np.ndarray:
    """Adjoint of the layer-norm input given ``g_norm``, the adjoint of
    ``normed``, which it overwrites and returns."""
    spread = g_norm * normed
    np.multiply(normed, spread.sum(axis=-1, keepdims=True), out=spread)
    spread /= normed.shape[-1]
    g_norm -= g_norm.mean(axis=-1, keepdims=True)
    g_norm -= spread
    g_norm *= inv_std
    return g_norm


# ---------------------------------------------------------------------------
# blocked nodes: attention and the pooled head
# ---------------------------------------------------------------------------

# Working set per patient block of the blocked nodes' forward and backward.
BLOCK_BYTES = 256 * 1024


def _blocks(count: int, patient_bytes: int) -> list[slice]:
    """Slices of ``range(count)``, each as many patients as fit in BLOCK_BYTES, at least one."""
    step = max(1, BLOCK_BYTES // patient_bytes)
    return [slice(start, start + step) for start in range(0, count, step)]


def _running_sum(total: np.ndarray | None, part: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A parameter's adjoint over the blocks so far, summed to ``shape``:
    ``total``, the earlier blocks' sum (None for the first block), plus
    ``part``, this block's per-patient stack. ``total`` is added into the
    stack's first row in place, and numpy adds the rows one after another,
    so the blocks sum in the order ``_unbroadcast`` sums the whole stack."""
    rows = part.reshape((-1,) + shape)
    if total is not None:
        rows[0] += total
    return rows.sum(axis=0)


def snn_norm_pool(x, layers, gain, bias, validity):
    """Mean over each stack's valid rows of ``layer_norm(snn_forward(x, layers))``
    with ``gain`` and ``bias``, as one tape node.

    ``x`` is a (..., n, d) stack of rows and ``validity`` its (..., n) 0/1 row
    mask; the result is (..., width), width the last layer's, and a stack
    with no valid row pools to zeros. Layer norm uses eps 1e-5. The node keeps
    each layer's pre-activation and the normalised values with their 1/std:
    not the SELU outputs, which its backward recomputes from the
    pre-activations where a weight's adjoint reads them, the layer-norm
    output or the masked rows.
    """
    xt, gt, bt = as_tensor(x), as_tensor(gain), as_tensor(bias)
    layers = [(as_tensor(w), as_tensor(b)) for w, b in layers]
    params = [t for layer in layers for t in layer] + [gt, bt]
    shape = xt.shape
    for w, b in layers:
        _check_affine(shape, w.shape, b.shape)
        shape = shape[:-1] + w.shape[1:]
    lead, (n, d_in), width = xt.shape[:-2], xt.shape[-2:], shape[-1]
    if np.shape(validity) != lead + (n,):
        raise ShapeMismatch(f"row validity {np.shape(validity)} vs rows {xt.shape}")
    x3 = xt.data.reshape(-1, n, d_in)
    count = x3.shape[0]
    mask = np.asarray(validity, dtype=np.float64).reshape(count, n, 1)
    inv_count = 1.0 / np.maximum(mask.sum(axis=-2), 1.0)
    pres = [np.empty((count, n, w.shape[1])) for w, _ in layers]
    normed, inv_std, pooled = np.empty((count, n, width)), np.empty((count, n, 1)), np.empty((count, width))
    blocks = _blocks(count, 8 * n * (d_in + sum(pre.shape[-1] for pre in pres)))
    for blk in blocks:
        h = x3[blk]
        for i, (w, b) in enumerate(layers):
            pre = np.matmul(h, w.data, out=pres[i][blk])
            pre += b.data
            h = _selu(pre)
        normed[blk], inv_std[blk] = _layer_norm(h)
        y = normed[blk] * gt.data
        y += bt.data
        y *= mask[blk]
        np.multiply(y.sum(axis=-2), inv_count[blk], out=pooled[blk])

    def backward(g):
        g = g.reshape(count, width)
        # reaches[i]: the adjoint of layer i's input is needed
        reaches = [xt.requires_grad]
        for w, b in layers:
            reaches.append(reaches[-1] or w.requires_grad or b.requires_grad)
        gx = np.empty(x3.shape) if xt.requires_grad else None
        # running sums of the parameters' adjoints, in parent order after x
        sums = [None] * len(params)
        for blk in blocks:
            gy = np.multiply((g[blk] * inv_count[blk])[:, None, :], mask[blk])
            if gt.requires_grad:
                sums[-2] = _running_sum(sums[-2], gy * normed[blk], gt.shape)
            grad = _layer_norm_adjoint(gy * gt.data, normed[blk], inv_std[blk]) if reaches[-1] else None
            if bt.requires_grad:
                sums[-1] = _running_sum(sums[-1], gy, bt.shape)
            if grad is None:
                continue
            for i in reversed(range(len(layers))):
                w, b = layers[i]
                slope = _selu_slope(pres[i][blk], grad)
                if w.requires_grad:
                    rows = x3[blk] if i == 0 else _selu(pres[i - 1][blk])
                    sums[2 * i] = _running_sum(sums[2 * i], np.swapaxes(rows, -1, -2) @ slope, w.shape)
                if reaches[i]:
                    grad = np.matmul(slope, np.swapaxes(w.data, -1, -2), out=gx[blk] if i == 0 else None)
                if b.requires_grad:
                    sums[2 * i + 1] = _running_sum(sums[2 * i + 1], slope, b.shape)
                if not reaches[i]:
                    break
        return (None if gx is None else gx.reshape(xt.shape), *sums)

    return _node(pooled.reshape(lead + (width,)), (xt, *params), backward)


def masked_attention(x, w_q, w_k, w_v, validity):
    """Scaled dot-product self-attention over the rows of ``x``, as one tape node.

    Computes ``softmax_mask((x w_q)(x w_k)ᵀ / √d) (x w_v)`` with d the token
    width, under ``validity``, the (..., n) 0/1 validity of the tokens: an
    invalid token gets exactly zero weight as a key and a zero output row as
    a query. Returns (output, weights): the output a node with parents (x,
    w_q, w_k, w_v) when one of them requires a gradient, the (..., n, n)
    weights always an array. The node keeps q, k, x w_v and the weights.
    """
    h = as_tensor(x)
    n, d = h.shape[-2:]
    w_q, w_k, w_v = (as_tensor(w) for w in (w_q, w_k, w_v))
    for w in (w_q, w_k, w_v):
        if w.shape != (d, d):
            raise ShapeMismatch(f"attention weight {w.shape} does not match token width {d}")
    if np.shape(validity) != h.shape[:-1]:
        raise ShapeMismatch(f"token validity {np.shape(validity)} vs tokens {h.shape}")
    x3 = h.data.reshape(-1, n, d)
    count = x3.shape[0]
    query = np.asarray(validity, dtype=np.float64).reshape(count, n, 1)
    keys = np.swapaxes(query, -1, -2)
    scale = 1.0 / math.sqrt(d)
    out, att = np.empty(x3.shape), np.empty((count, n, n))
    blocks = _blocks(count, 8 * n * (n + d))
    # each block's q, k and x w_v, kept only for a backward
    taped = any(t.requires_grad for t in (h, w_q, w_k, w_v))
    saved = []
    for blk in blocks:
        q, k, v = (x3[blk] @ w.data for w in (w_q, w_k, w_v))
        logits = q @ np.swapaxes(k, -1, -2)
        logits *= scale
        att[blk] = _masked_softmax(logits, keys[blk])
        np.multiply(att[blk] @ v, query[blk], out=out[blk])
        if taped:
            saved.append((q, k, v))

    def backward(g):
        g = g.reshape(x3.shape)
        gx = np.empty(x3.shape) if h.requires_grad else None
        gw_q = gw_k = gw_v = None
        for blk, (q, k, v) in zip(blocks, saved):
            g_rows = g[blk] * query[blk]
            gv = np.swapaxes(att[blk], -1, -2) @ g_rows
            if w_v.requires_grad:
                gw_v = _running_sum(gw_v, np.swapaxes(x3[blk], -1, -2) @ gv, w_v.shape)
            if not (h.requires_grad or w_q.requires_grad or w_k.requires_grad):
                continue
            g_logits = _softmax_adjoint(g_rows @ np.swapaxes(v, -1, -2), att[blk])
            g_logits *= scale
            gq = g_logits @ k
            # the transpose of qᵀ·g, as the adjoint of a swapped k
            gk = np.swapaxes(np.swapaxes(q, -1, -2) @ g_logits, -1, -2)
            if gx is not None:
                np.matmul(gq, np.swapaxes(w_q.data, -1, -2), out=gx[blk])
                gx[blk] += gk @ np.swapaxes(w_k.data, -1, -2)
                gx[blk] += gv @ np.swapaxes(w_v.data, -1, -2)
            if w_q.requires_grad:
                gw_q = _running_sum(gw_q, np.swapaxes(x3[blk], -1, -2) @ gq, w_q.shape)
            if w_k.requires_grad:
                gw_k = _running_sum(gw_k, np.swapaxes(x3[blk], -1, -2) @ gk, w_k.shape)
        return None if gx is None else gx.reshape(h.shape), gw_q, gw_k, gw_v

    return _node(out.reshape(h.shape), (h, w_q, w_k, w_v), backward), att.reshape(h.shape[:-1] + (n,))


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
