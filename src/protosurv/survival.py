"""Cox partial-likelihood loss and the training loop.

The loss uses Breslow tie handling with risk sets formed inside each
minibatch, normalised by the batch event count. Optimisation is AdamW
(decoupled weight decay) under a cosine learning-rate schedule, on one flat
buffer each for the values, the gradient and both moments; every random
draw comes from named substreams of the run seed, so training is
bit-reproducible given (cohort, config).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import numerics as nm
from .errors import BadInput, NoEvents, NonFiniteLoss
from .evaluation import _records_to_arrays
from .fusion import FUSION_MODES
from .model import (
    ModelDims,
    ModelParams,
    PreparedCohort,
    canonical_modalities,
    flatten_params,
    forward_risks,
    init_params,
    model_dims,
    param_spec,
    unflatten_tensors,
    with_config,
)
from .numerics import Tensor
from .rng import substream


@dataclass
class SurvivalRecord:
    patient_id: str
    time: float
    event: int  # 1 observed, 0 censored

    def __post_init__(self):
        if not (math.isfinite(self.time) and self.time >= 0):
            raise BadInput(f"follow-up time for {self.patient_id} must be finite and nonnegative, got {self.time}")
        if self.event not in (0, 1):
            raise BadInput(f"event flag must be 0 or 1, got {self.event}")


@dataclass
class TrainConfig:
    epochs: int = 50
    learning_rate: float = 1e-4
    weight_decay: float = 1e-5
    batch_size: int = 64
    schedule: str = "cosine"
    seed: int = 0
    fusion_mode: str = "full"
    modalities: str = "pht"
    n_histology: int = 16
    n_pathways: int = 50
    text_proto_mode: str = "average"
    d_e: int = 256
    d_r: int = 32
    shared_beta_mlp: bool = False

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise BadInput("epochs must be >= 0 and batch_size >= 1")
        for name, low in (("d_e", 1), ("d_r", 0), ("n_histology", 1), ("n_pathways", 1)):
            if getattr(self, name) < low:
                raise BadInput(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name in ("learning_rate", "weight_decay"):
            if not math.isfinite(getattr(self, name)):
                raise BadInput(f"{name} must be finite, got {getattr(self, name)}")
        if self.learning_rate <= 0 or self.weight_decay < 0:
            raise BadInput("learning_rate must be positive, weight_decay nonnegative")
        if self.schedule != "cosine":
            raise BadInput(f"unknown schedule {self.schedule!r}")
        if self.fusion_mode not in FUSION_MODES:
            raise BadInput(f"unknown fusion mode {self.fusion_mode!r}")
        self.modalities = canonical_modalities(self.modalities)


@dataclass
class EpochStats:
    epoch: int
    learning_rate: float
    mean_loss: float


def cox_loss(risks, records):
    """Negative log partial likelihood (Breslow ties), averaged over events.

    ``records`` may be SurvivalRecords or a (times, events) pair. Returns
    (loss, degenerate): a Tensor loss when a gradient can reach it, else a
    float, and 0.0 with the degenerate flag set when the batch has no event.
    """
    times, events = _records_to_arrays(records)
    n = times.shape[0]
    event_idx = np.flatnonzero(events == 1)
    n_events = event_idx.size
    if n_events == 0:
        return 0.0, True
    # risk set of event i: everyone still under observation at that time
    at_risk = (times[None, :] >= times[event_idx, None]).astype(float)
    eta = nm.reshape(risks, (n,))
    observed = nm.gather_rows(nm.reshape(eta, (n, 1)), event_idx)
    pooled = nm.masked_logsumexp(nm.broadcast_to(nm.reshape(eta, (1, n)), (n_events, n)), at_risk)
    loss = (nm.tsum(pooled) - nm.tsum(observed)) * (1.0 / n_events)
    return (loss if isinstance(loss, Tensor) else float(loss)), False


def cosine_lr(base: float, epoch: int, total_epochs: int) -> float:
    """Decay from ``base`` at epoch 0 towards 0 across the epoch range."""
    return base * 0.5 * (1.0 + math.cos(math.pi * epoch / total_epochs))


@np.errstate(all="ignore")  # divergence is checked on the loss and gradients instead
def train(prepared: PreparedCohort, config: TrainConfig) -> tuple[ModelParams, list[EpochStats]]:
    """Minibatch Cox training of ``model_dims(prepared, config)``; deterministic
    given (cohort, config). ``text_proto_mode``, the slide fit's seed and
    ``n_histology`` were chosen when the cohort was prepared.

    One step's graph is alive at a time: a step drops its tape after the
    AdamW update, or at once when its batch has no event, before the next
    forward.

    An epoch's ``mean_loss`` averages the batches that have an event. A
    non-finite loss or gradient raises :class:`NonFiniteLoss` naming the
    epoch and batch. After the last epoch, a parameter that is not finite
    as float32 (the precision checkpoints store) raises it too.
    """
    n = len(prepared)
    if n == 0:
        raise NoEvents("empty cohort")
    if int(prepared.events.sum()) == 0:
        raise NoEvents("cohort has no observed events")
    dims = model_dims(prepared, config)
    # AdamW state as flat buffers in param_spec order; the named values are views
    spec = param_spec(dims)
    flat = flatten_params(init_params(dims, substream(config.seed, "init")), spec)
    values = unflatten_tensors(flat, spec)
    grad, moment1, moment2, scratch = (np.zeros_like(flat) for _ in range(4))
    step = 0
    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    history: list[EpochStats] = []
    for epoch in range(config.epochs):
        lr = cosine_lr(config.learning_rate, epoch, config.epochs)
        order = substream(config.seed, "shuffle", epoch).permutation(n)
        losses = []  # batches with events only: a zero-event batch has no loss
        for start in range(0, n, config.batch_size):
            batch = prepared.subset(order[start : start + config.batch_size])
            # each step drops its graph before the next forward, so one tape is alive at a time
            leaves = {name: Tensor(v, requires_grad=True) for name, v in values.items()}
            risks = forward_risks(batch, leaves, dims, config.fusion_mode)
            loss, degenerate = cox_loss(risks, (batch.times, batch.events))
            if degenerate:
                del leaves, risks, loss
                continue
            loss.backward()
            np.concatenate([leaf.grad.ravel() for leaf in leaves.values()], out=grad)
            if not (np.isfinite(loss.data) and np.isfinite(grad).all()):
                where = f"epoch {epoch}, batch {start // config.batch_size}"
                raise NonFiniteLoss(f"{where}: non-finite loss or gradient (loss {float(loss.data)})")
            step += 1
            # w -= lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * w), in place
            moment1 *= beta1
            np.multiply(grad, 1.0 - beta1, out=scratch)
            moment1 += scratch
            np.multiply(grad, 1.0 - beta2, out=scratch)
            scratch *= grad
            moment2 *= beta2
            moment2 += scratch
            np.divide(moment2, 1.0 - beta2**step, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += adam_eps
            np.divide(moment1, 1.0 - beta1**step, out=grad)  # m_hat, once both moments have read grad
            grad /= scratch
            np.multiply(flat, config.weight_decay, out=scratch)
            grad += scratch
            grad *= lr
            flat -= grad
            losses.append(float(loss.data))
            del leaves, risks, loss
        history.append(EpochStats(epoch, lr, float(np.mean(losses))))
    for name, v in values.items():
        if not np.isfinite(v.astype(np.float32)).all():
            raise NonFiniteLoss(f"after epoch {config.epochs - 1}: parameter {name} is not finite as float32")
    return ModelParams({name: v.copy() for name, v in values.items()}, dims), history


def predict_cohort(model: ModelParams, prepared: PreparedCohort, fusion_mode: str = "full") -> np.ndarray:
    """Deterministic risk scores for every prepared patient."""
    return forward_risks(prepared, model.values, model.dims, fusion_mode)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"PS3C"
CHECKPOINT_VERSION = 1


def _refuse_dims_clash(path, dims: ModelDims, config: TrainConfig) -> None:
    """Raise BadInput at the first field where ``dims`` differ from ``config``'s choices over their shapes."""
    asked = with_config(dims, config)
    name = next((f.name for f in fields(ModelDims) if getattr(dims, f.name) != getattr(asked, f.name)), None)
    if name is not None:
        raise BadInput(f"{path}: dims {name}={getattr(dims, name)!r} contradict the config's {getattr(asked, name)!r}")


def save_checkpoint(path, model: ModelParams, config: TrainConfig, fingerprint: str = "") -> None:
    """Versioned binary container: named float32 little-endian tensors plus
    the full training config, model dims and gene/pathway fingerprint.
    Dims that contradict the config, or a tensor that is not finite as
    float32, raise before the file opens."""
    _refuse_dims_clash(path, model.dims, config)
    spec = model.spec
    with np.errstate(over="ignore"):
        tensors = [np.ascontiguousarray(model.values[name], dtype="<f4") for name, _ in spec]
    for (name, _), tensor in zip(spec, tensors):
        if not np.isfinite(tensor).all():
            raise BadInput(f"{path}: refusing to write tensor {name}, not finite as float32")
    header = {
        "config": asdict(config),
        "dims": {**asdict(model.dims), "pathway_widths": list(model.dims.pathway_widths)},
        "fingerprint": fingerprint,
        "tensors": [{"name": name, "shape": list(shape)} for name, shape in spec],
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<BI", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        for tensor in tensors:
            fh.write(tensor.tobytes())


def load_checkpoint(path) -> tuple[ModelParams, TrainConfig, str]:
    """The model, config and fingerprint that ``save_checkpoint`` wrote to
    ``path``. The header's dims must carry its config's model choices, and
    its tensors must be those of ``param_spec(dims)``: the same names, in that
    order, with those shapes."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 9 or raw[:4] != CHECKPOINT_MAGIC:
        raise BadInput(f"{path}: not a checkpoint file")
    version, header_len = struct.unpack("<BI", raw[4:9])
    if version != CHECKPOINT_VERSION:
        raise BadInput(f"{path}: unsupported checkpoint version {version}")
    if len(raw) < 9 + header_len:
        raise BadInput(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(raw[9 : 9 + header_len].decode())
        dims = ModelDims(**{**header["dims"], "pathway_widths": tuple(header["dims"]["pathway_widths"])})
        config = TrainConfig(**header["config"])
        tensors = [(entry["name"], tuple(entry["shape"])) for entry in header["tensors"]]
        fingerprint = header["fingerprint"]
        spec = param_spec(dims)
    except (BadInput, TypeError, ValueError, KeyError) as exc:
        raise BadInput(f"{path}: malformed checkpoint header: {exc}") from exc
    _refuse_dims_clash(path, dims, config)
    if tensors != spec:
        # the first position where the two lists differ, or where the shorter one ends
        i = next((i for i, (got, want) in enumerate(zip(tensors, spec)) if got != want), min(len(tensors), len(spec)))
        got, want = (f"{t[i][0]} {t[i][1]}" if i < len(t) else "nothing" for t in (tensors, spec))
        raise BadInput(f"{path}: tensor {i} is {got}, but the header's dims ask for {want}")
    values: dict[str, np.ndarray] = {}
    offset = 9 + header_len
    for name, shape in spec:
        size = int(np.prod(shape)) * 4
        if offset + size > len(raw):
            raise BadInput(f"{path}: tensor {name} overruns the file")
        tensor = np.frombuffer(raw[offset : offset + size], dtype="<f4")
        if not np.isfinite(tensor).all():  # before the cast, which warns on a signalling NaN
            raise BadInput(f"{path}: tensor {name} is not finite")
        values[name] = tensor.astype(np.float64).reshape(shape)
        offset += size
    if offset != len(raw):
        raise BadInput(f"{path}: {len(raw) - offset} trailing bytes")
    return ModelParams(values, dims), config, fingerprint
