"""Model assembly: parameter layout, the prepared-cohort container and the
forward pass from prepared modality inputs to per-patient risk scores.
A prepared cohort fixes ``text_proto_mode``, the slide fit's seed and
``n_histology``; ``model_dims`` takes the other model choices from the config.

The forward pass composes the public stage functions, each of which takes
a batch: ``text.select_prototypes``, ``pathways.embed_pathways``,
``fusion.fuse`` and the risk head ``_pooled_risk``, with ``numerics.affine``
projecting the text prototypes and slide representations into the shared
width. A single patient is a batch of one (``PreparedCohort.subset``), run
through the training bodies.

The learnable values are a dict of named float64 arrays laid out by
``param_spec``. Training hands the forward pass one leaf Tensor per name, so
one reverse sweep of the tape leaves each tensor's gradient on its own leaf.
The flatten helpers map that dict onto one coordinate vector in ``param_spec``
order, the layout finite-difference gradient checks and whole-model
comparisons use.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from . import numerics as nm
from . import text as text_mod
from .errors import BadInput
from .fusion import MODALITY_ORDER, FusionParams, ModalityTokens, fuse
from .pathways import embed_pathways

MODALITY_LETTERS = {"p": "pathway", "h": "histology", "t": "text"}


def canonical_modalities(letters: str) -> str:
    """Normalise a modality-subset string to canonical p,h,t order."""
    chosen = set(letters)
    unknown = chosen - set(MODALITY_LETTERS)
    if unknown:
        raise BadInput(f"unknown modality letters {sorted(unknown)}")
    if not chosen:
        raise BadInput("modality subset is empty")
    return "".join(c for c in "pht" if c in chosen)


@dataclass(frozen=True)
class ModelDims:
    """Model shapes: parameter widths, text padding and prototype counts, and the modality subset."""

    d_t: int  # report segment embedding width
    d_h: int  # patch embedding width
    max_segments: int  # m, frozen from the training set
    n_text: int  # diagnostic prototypes per report
    n_histology: int  # mixture components per slide
    pathway_widths: tuple[int, ...]  # member-gene count per pathway
    d_e: int = 256
    d_r: int = 32
    modalities: str = "pht"
    shared_beta: bool = False

    def __post_init__(self):
        for name, low in (
            ("d_t", 1), ("d_h", 1), ("max_segments", 1), ("n_text", 1), ("n_histology", 1), ("d_e", 1), ("d_r", 0)
        ):
            if getattr(self, name) < low:
                raise BadInput(f"{name} must be >= {low}, got {getattr(self, name)}")

    @property
    def d(self) -> int:
        return self.d_e + self.d_r

    @property
    def n_pathways(self) -> int:
        return len(self.pathway_widths)

    @property
    def slide_width(self) -> int:
        return 1 + 2 * self.d_h

    @property
    def enabled(self) -> tuple[str, ...]:
        return tuple(MODALITY_LETTERS[c] for c in self.modalities)


def param_spec(dims: ModelDims) -> list[tuple[str, tuple[int, ...]]]:
    """Ordered (name, shape) layout of every learnable tensor."""
    spec: list[tuple[str, tuple[int, ...]]] = []
    if "t" in dims.modalities:
        spec += [
            ("text.w_q", (dims.d_t, dims.d_t)),
            ("text.w_k", (dims.d_t, dims.d_t)),
            ("text.w_v", (dims.d_t, dims.d_t)),
            ("text.alpha.w", (dims.d_t, dims.d_e)),
            ("text.alpha.b", (dims.d_e,)),
        ]
    if "h" in dims.modalities:
        spec += [
            ("histo.alpha.w", (dims.slide_width, dims.d_e)),
            ("histo.alpha.b", (dims.d_e,)),
        ]
    if "p" in dims.modalities:
        for i, width in enumerate(dims.pathway_widths):
            spec += [
                (f"path.snn{i}.w0", (width, dims.d_e)),
                (f"path.snn{i}.b0", (dims.d_e,)),
                (f"path.snn{i}.w1", (dims.d_e, dims.d_e)),
                (f"path.snn{i}.b1", (dims.d_e,)),
            ]
    if dims.d_r > 0:
        spec.append(("fusion.e_r", (dims.d_r,)))
    spec += [
        ("fusion.w_q", (dims.d, dims.d)),
        ("fusion.w_k", (dims.d, dims.d)),
        ("fusion.w_v", (dims.d, dims.d)),
    ]
    beta_groups = ("shared",) if dims.shared_beta else dims.enabled
    for group in beta_groups:
        spec += [
            (f"head.beta.{group}.w0", (dims.d, dims.d_e)),
            (f"head.beta.{group}.b0", (dims.d_e,)),
            (f"head.beta.{group}.w1", (dims.d_e, dims.d_e)),
            (f"head.beta.{group}.b1", (dims.d_e,)),
            (f"head.ln.{group}.gain", (dims.d_e,)),
            (f"head.ln.{group}.bias", (dims.d_e,)),
        ]
    spec += [
        ("head.risk.w", (len(dims.enabled) * dims.d_e, 1)),
        ("head.risk.b", (1,)),
    ]
    return spec


def init_params(dims: ModelDims, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Seeded initialisation: weights uniform within ±1/sqrt(fan_in), biases
    zero, layer-norm gains one, the appended embedding from N(0, 0.02^2)."""
    values: dict[str, np.ndarray] = {}
    for name, shape in param_spec(dims):
        if name == "fusion.e_r":
            values[name] = rng.normal(scale=0.02, size=shape)
        elif name.endswith(".gain"):
            values[name] = np.ones(shape)
        elif len(shape) == 2:
            bound = 1.0 / np.sqrt(shape[0])
            values[name] = rng.uniform(-bound, bound, size=shape)
        else:
            values[name] = np.zeros(shape)
    return values


def flatten_params(values: Mapping[str, np.ndarray], spec) -> np.ndarray:
    """Concatenate the named arrays into one vector in ``spec`` order."""
    return np.concatenate([np.asarray(values[name], dtype=float).ravel() for name, _ in spec])


def unflatten_tensors(flat, spec) -> dict:
    """Named views of a vector laid out by ``flatten_params``: Tensors whose
    gradients accumulate in ``flat`` when it is a leaf that requires one (as
    in ``grad_check``), else array views of it."""
    out = {}
    offset = 0
    for name, shape in spec:
        size = int(np.prod(shape))
        out[name] = nm.reshape(nm.narrow(flat, 0, offset, size), shape)
        offset += size
    return out


@dataclass
class ModelParams:
    """All learnable tensors of a trained (or initialised) model."""

    values: dict[str, np.ndarray]
    dims: ModelDims

    @property
    def spec(self):
        return param_spec(self.dims)


@dataclass
class PreparedCohort:
    """Training-ready arrays for one cohort (or one minibatch of it) and the
    text prototype count frozen with them. ``text_proto_mode``, the slide
    fit's seed and ``n_histology`` are chosen when it is prepared."""

    patient_ids: list[str]
    times: np.ndarray  # (n,)
    events: np.ndarray  # (n,) in {0, 1}
    text_data: np.ndarray | None = None  # (n, m, d_t)
    text_mask: np.ndarray | None = None  # (n, m)
    slides: np.ndarray | None = None  # (n, n_histology, 1 + 2 d_h)
    slices: list[np.ndarray] | None = None  # per pathway, (n, width)
    n_text: int | None = None  # diagnostic prototypes per report, with text

    def __len__(self) -> int:
        return len(self.patient_ids)

    def subset(self, idx) -> "PreparedCohort":
        idx = np.asarray(idx)
        return PreparedCohort(
            patient_ids=[self.patient_ids[i] for i in idx],
            times=self.times[idx],
            events=self.events[idx],
            text_data=None if self.text_data is None else self.text_data[idx],
            text_mask=None if self.text_mask is None else self.text_mask[idx],
            slides=None if self.slides is None else self.slides[idx],
            slices=None if self.slices is None else [s[idx] for s in self.slices],
            n_text=self.n_text,
        )


def model_dims(prepared: PreparedCohort, config) -> ModelDims:
    """The config's model choices over the shapes of the cohort's arrays (1, or
    no pathways, for a modality the config leaves out). A modality the cohort
    lacks, or another pathway or slide row count, raises BadInput."""
    held = {"t": prepared.text_data, "h": prepared.slides, "p": prepared.slices}
    lacking = [MODALITY_LETTERS[c] for c in config.modalities if held[c] is None]
    if lacking:
        raise BadInput(f"config asks for modalities {config.modalities!r}, the prepared cohort has no {lacking[0]}")
    text, slides, slices = (held[c] if c in config.modalities else None for c in "thp")
    if slices is not None and len(slices) != config.n_pathways:
        raise BadInput(f"{len(slices)} pathways in the gene sets, config expects {config.n_pathways}")
    if slides is not None and slides.shape[1] != config.n_histology:
        raise BadInput(f"{slides.shape[1]} prototypes per slide, config expects n_histology {config.n_histology}")
    shapes = ModelDims(
        d_t=1 if text is None else text.shape[2], d_h=1 if slides is None else (slides.shape[2] - 1) // 2,
        max_segments=1 if text is None else text.shape[1], n_text=1 if text is None else prepared.n_text,
        n_histology=1 if slides is None else slides.shape[1],
        pathway_widths=() if slices is None else tuple(s.shape[1] for s in slices),
    )
    return with_config(shapes, config)


def with_config(shapes: ModelDims, config) -> ModelDims:
    """``shapes`` with a ``TrainConfig``'s model choices: n_histology, d_e, d_r, modalities, shared head."""
    return replace(
        shapes, n_histology=config.n_histology, d_e=config.d_e, d_r=config.d_r, modalities=config.modalities,
        shared_beta=config.shared_beta_mlp,
    )


def _snn_layers(pt: Mapping, prefix: str):
    return [(pt[f"{prefix}.w0"], pt[f"{prefix}.b0"]), (pt[f"{prefix}.w1"], pt[f"{prefix}.b1"])]


def forward_risks(prepared: PreparedCohort, pt: Mapping, dims: ModelDims, fusion_mode: str = "full"):
    """Risk score per patient, (n,). ``pt`` maps parameter names to leaf
    Tensors (training: a Tensor result) or plain arrays (inference: an array)."""
    risks, _, _ = forward_diagnostics(prepared, pt, dims, fusion_mode)
    return risks


def forward_diagnostics(prepared: PreparedCohort, pt: Mapping, dims: ModelDims, fusion_mode: str = "full"):
    """Forward pass returning (risks, FusionOutput, per-modality validity)."""
    n = len(prepared)
    tokens, validity = {}, {}

    if "t" in dims.modalities:
        z, att = text_mod.text_self_attention(
            text_mod.PaddedBatch(prepared.text_data, prepared.text_mask, dims.max_segments),
            text_mod.TextAttentionParams(pt["text.w_q"], pt["text.w_k"], pt["text.w_v"]),
        )
        scores = text_mod.importance_scores(att, prepared.text_mask)
        protos = text_mod.select_prototypes(z, scores, prepared.text_mask, dims.n_text)
        tokens["text"] = nm.affine(protos.embeddings, pt["text.alpha.w"], pt["text.alpha.b"])
        validity["text"] = protos.validity
    if "h" in dims.modalities:
        tokens["histology"] = nm.affine(prepared.slides, pt["histo.alpha.w"], pt["histo.alpha.b"])
        validity["histology"] = np.ones((n, dims.n_histology))
    if "p" in dims.modalities:
        snns = [_snn_layers(pt, f"path.snn{i}") for i in range(dims.n_pathways)]
        tokens["pathway"] = embed_pathways(prepared.slices, snns)
        validity["pathway"] = np.ones((n, dims.n_pathways))

    fused = fuse(
        *(ModalityTokens(name, tokens[name], validity[name]) if name in tokens else None for name in MODALITY_ORDER),
        params=FusionParams(pt.get("fusion.e_r"), pt["fusion.w_q"], pt["fusion.w_k"], pt["fusion.w_v"]),
        mode=fusion_mode,
    )
    risks = _pooled_risk({name: fused.block(name) for name in dims.enabled}, validity, pt, dims)
    return nm.reshape(risks, (n,)), fused, validity


def _pooled_risk(blocks: Mapping, validity: Mapping, pt: Mapping, dims: ModelDims):
    """Risk of each patient in a batch from the fused blocks of the enabled
    modalities. Per modality, in ``dims.enabled`` order, one
    ``numerics.snn_norm_pool`` node: f_beta each fused token, layer-normalise,
    mean over the valid tokens. Then concatenate the pooled vectors and apply
    the risk layer."""
    pooled = []
    for name in dims.enabled:
        group = "shared" if dims.shared_beta else name
        layers, ln = _snn_layers(pt, f"head.beta.{group}"), f"head.ln.{group}"
        pooled.append(nm.snn_norm_pool(blocks[name], layers, pt[f"{ln}.gain"], pt[f"{ln}.bias"], validity[name]))
    stacked = pooled[0] if len(pooled) == 1 else nm.concat(pooled, axis=-1)
    return nm.affine(stacked, pt["head.risk.w"], pt["head.risk.b"])
