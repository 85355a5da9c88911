"""Attention fusion of pathway, histology and text prototype tokens.

Each token is widened by one shared learnable embedding, and the blocks of
the present modalities keep pathway, histology, text order. One masked scaled
dot-product attention kernel (:func:`numerics.masked_attention`) fuses them;
the fusion modes differ only in which blocks each kernel call joins. A call's
sequence is one :func:`numerics.join_rows` node, which writes each block's
tokens, with the embedding appended, straight into it, and a final output is
cut back into its blocks by one :func:`numerics.split`:

- ``full`` joins every block into one sequence, attends once and cuts the
  output back into its blocks.
- ``late`` attends within each block alone, so each call's output is its
  block and nothing is cut. The attention matrix is block-diagonal, each
  call's weights on the diagonal and zero across blocks.
- ``hierarchical`` joins histology and text for a first call, then joins the
  pathway block with that call's output for a second, whose output it cuts.
  Without pathways, or with pathways alone, it is ``full``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import numerics as nm
from .errors import BadInput, ShapeMismatch

MODALITY_ORDER = ("pathway", "histology", "text")
FUSION_MODES = ("full", "late", "hierarchical")


@dataclass
class ModalityTokens:
    modality: str
    tokens: np.ndarray  # (..., n, d_e)
    validity: np.ndarray  # (..., n)


@dataclass
class FusionParams:
    e_r: np.ndarray | None  # (d_r,) shared learnable appendix; None disables it
    w_q: np.ndarray  # (d, d) with d = d_e + d_r
    w_k: np.ndarray
    w_v: np.ndarray


@dataclass
class FusionOutput:
    pathway: np.ndarray | None  # (..., n_p, d)
    histology: np.ndarray | None
    text: np.ndarray | None
    attention: np.ndarray  # (..., n, n) over present modalities in p,h,t order
    block_sizes: dict[str, int]

    def block(self, name: str):
        return getattr(self, name)

    @property
    def spans(self) -> dict[str, tuple[int, int]]:
        """(start, stop) of each present block along the fused sequence."""
        stops = accumulate(self.block_sizes.values())
        return {name: (stop - size, stop) for (name, size), stop in zip(self.block_sizes.items(), stops)}


def append_learnable(tokens, e_r):
    """Concatenate the same learnable vector to every token row."""
    tail = _tail(e_r)
    return tokens if tail is None else nm.join_rows([tokens], [tail])


def _tail(e_r):
    """``e_r``, or None when it is absent or empty."""
    return None if e_r is None or np.shape(e_r)[-1] == 0 else e_r


def _block_diagonal(blocks) -> np.ndarray:
    """(..., n, n) matrix with the given square blocks on its diagonal, zero elsewhere."""
    sizes = [b.shape[-1] for b in blocks]
    out = np.zeros(blocks[0].shape[:-2] + (sum(sizes), sum(sizes)))
    for start, n, b in zip(np.cumsum([0] + sizes[:-1]), sizes, blocks):
        out[..., start : start + n, start : start + n] = b
    return out


def block_attention(p, h, t, params: FusionParams, key_validity) -> FusionOutput:
    """Full fusion attention over already-appended token matrices.

    ``key_validity`` covers the concatenated sequence in pathway, histology,
    text order; absent modalities are passed as None and simply omitted. The
    learnable embedding of ``params`` is not appended again.
    """
    sizes = [np.shape(m)[-2] for m in (p, h, t) if m is not None]
    key_validity = np.asarray(key_validity, dtype=float)
    if sizes and key_validity.shape[-1] != sum(sizes):
        raise ShapeMismatch(f"key validity length {key_validity.shape[-1]} vs {sum(sizes)} tokens")
    parts = iter(np.split(key_validity, np.cumsum(sizes)[:-1], axis=-1))
    tokens = [None if m is None else ModalityTokens(n, m, next(parts)) for n, m in zip(MODALITY_ORDER, (p, h, t))]
    return fuse(*tokens, FusionParams(None, params.w_q, params.w_k, params.w_v))


def fuse(p, h, t, params: FusionParams, mode: str = "full") -> FusionOutput:
    """Fuse modality token sets after appending the learnable embedding, in
    one of the modes the module docstring describes."""
    if mode not in FUSION_MODES:
        raise BadInput(f"unknown fusion mode {mode!r}")
    present = {name: mt for name, mt in zip(MODALITY_ORDER, (p, h, t)) if mt is not None}
    if not present:
        raise BadInput("every modality is disabled")
    tail = _tail(params.e_r)
    widths = {np.shape(mt.tokens)[-1] + (0 if tail is None else np.shape(tail)[-1]) for mt in present.values()}
    if len(widths) != 1:
        raise ShapeMismatch(f"token widths differ across modalities: {sorted(widths)}")
    sizes = {name: np.shape(mt.tokens)[-2] for name, mt in present.items()}

    def attend(blocks, tails, modalities):
        """The kernel over ``blocks`` and their ``tails`` joined on the token axis, under the joined validity of ``modalities``."""
        seq = nm.join_rows(blocks, tails)
        validity = np.concatenate([np.asarray(present[n].validity, dtype=float) for n in modalities], axis=-1)
        return nm.masked_attention(seq, params.w_q, params.w_k, params.w_v, validity)

    names = list(present)
    tokens = [present[n].tokens for n in names]
    if mode == "late":
        parts = [attend([x], [tail], [n]) for x, n in zip(tokens, names)]
        blocks, attention = [out for out, _ in parts], _block_diagonal([a for _, a in parts])
    else:
        if mode == "hierarchical" and names[0] == "pathway" and len(names) > 1:
            merged, _ = attend(tokens[1:], [tail] * (len(tokens) - 1), names[1:])
            out, attention = attend([tokens[0], merged], [tail, None], names)
        else:
            out, attention = attend(tokens, [tail] * len(names), names)
        blocks = nm.split(out, list(sizes.values()), axis=-2)
    by_name = dict(zip(names, blocks))
    return FusionOutput(*map(by_name.get, MODALITY_ORDER), attention, sizes)
