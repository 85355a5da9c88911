"""Pathway prototypes: gene-set masks over a fixed gene ordering and the
per-pathway self-normalising networks that embed each expression slice.

Mask reduction is positional: a pathway's slice keeps exactly its member
genes (in gene-order), so slice lengths depend only on the mask set, never
on expression values. A measured expression of exactly zero is retained.
Slicing and embedding take a batch of patients: one patient is a batch of
one.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .errors import BadInput, ShapeMismatch


@dataclass
class GeneOrder:
    symbols: list[str]
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.index = {s: i for i, s in enumerate(self.symbols)}
        if len(self.index) != len(self.symbols):
            repeated = next(s for i, s in enumerate(self.symbols) if self.index[s] != i)
            raise BadInput(f"gene symbol {repeated!r} repeated")

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self.index


@dataclass
class PathwayMaskSet:
    names: list[str]
    member_indices: list[np.ndarray]  # sorted gene indices per pathway
    n_genes: int  # length of the gene order the indices point into

    @property
    def n_pathways(self) -> int:
        return len(self.names)

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(len(m) for m in self.member_indices)


def build_masks(gene_sets, order: GeneOrder) -> PathwayMaskSet:
    """Member gene indices into ``order`` for each gene set of the mapping
    ``gene_sets`` (name to gene symbols).

    Genes absent from the order are dropped with a warning; a pathway left
    empty after dropping raises :class:`BadInput`.
    """
    names: list[str] = []
    members: list[np.ndarray] = []
    for name, genes in gene_sets.items():
        genes = list(genes)
        if not genes:
            raise BadInput(f"gene set {name!r} is empty")
        kept = sorted({order.index[g] for g in genes if g in order})
        dropped = len({g for g in genes if g not in order})
        if dropped:
            warnings.warn(f"{name}: dropped {dropped} gene(s) absent from the gene order", stacklevel=2)
        if not kept:
            raise BadInput(f"gene set {name!r} has no member in the gene order")
        names.append(name)
        members.append(np.asarray(kept, dtype=np.intp))
    return PathwayMaskSet(names, members, len(order))


def pathway_slices(x: np.ndarray, masks: PathwayMaskSet) -> list[np.ndarray]:
    """Dense expression slice per pathway: the (n_patients, n_genes)
    expression matrix ``x`` restricted to member genes, (n_patients, width)
    each."""
    values = np.asarray(x, dtype=float)
    if values.shape[-1] != masks.n_genes:
        raise ShapeMismatch(f"expression length {values.shape[-1]} vs {masks.n_genes} genes")
    return [values[..., idx] for idx in masks.member_indices]


def embed_pathways(slices, snns):
    """Embed every pathway slice with its dedicated network and stack the
    tokens on axis -2: token i is ``snn_forward(slices[i], snns[i])``.

    (n, width) slices give an (n, P, d_e) batch; a 1-D slice raises
    ShapeMismatch. The result is a Tensor only when a gradient can reach it.
    """
    if len(slices) != len(snns):
        raise ShapeMismatch(f"{len(slices)} slices for {len(snns)} networks")
    joined = nm.concat([nm.snn_forward(s, layers) for s, layers in zip(slices, snns)], axis=-1)
    return nm.reshape(joined, joined.shape[:-1] + (len(snns), -1))


def fingerprint(order: GeneOrder, masks: PathwayMaskSet) -> str:
    """Stable digest of the gene ordering and pathway memberships, used to
    guard checkpoints against mismatched gene definitions."""
    h = hashlib.sha256()
    for s in order.symbols:
        h.update(s.encode())
        h.update(b"\x00")
    for name, idx in zip(masks.names, masks.member_indices):
        h.update(name.encode())
        h.update(np.asarray(idx, dtype="<i8").tobytes())
    return h.hexdigest()
