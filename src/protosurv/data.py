"""File ingestion, synthetic cohort generation and fold splitting.

The binary matrix format is the primary interchange (bit-exact round trips
of 32-bit floats); CSV is accepted for hand-authored inputs. A cohort on
disk is one JSON manifest naming per-patient matrix files plus shared gene
order, gene sets (GMT) and survival labels (CSV).
"""

from __future__ import annotations

import csv
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    BadEventFlag,
    BadMagic,
    DuplicatePatient,
    DuplicateSetName,
    MalformedLine,
    NegativeTime,
    NonFiniteValue,
    ShapeMismatch,
    ShapeOverflow,
    TooFewPatients,
)
from .histology import PatchFeatures
from .pathways import GeneOrder
from .rng import substream
from .survival import SurvivalRecord
from .text import ReportFeatures

MATRIX_MAGIC = b"PS3E"
MATRIX_VERSION = 1
_HEADER = struct.Struct("<II")


def write_matrix(path, matrix) -> None:
    """Binary matrix file: magic, version byte, u32 rows, u32 cols, then
    row-major little-endian float32 values."""
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"matrix files hold 2-D arrays, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue(f"{path}: refusing to write non-finite values")
    with open(path, "wb") as fh:
        fh.write(MATRIX_MAGIC)
        fh.write(bytes([MATRIX_VERSION]))
        fh.write(_HEADER.pack(arr.shape[0], arr.shape[1]))
        fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 5 or raw[:4] != MATRIX_MAGIC:
        raise BadMagic(f"{path}: missing matrix header")
    if raw[4] != MATRIX_VERSION:
        raise BadMagic(f"{path}: unsupported format version {raw[4]}")
    if len(raw) < 13:
        raise BadMagic(f"{path}: truncated matrix header")
    rows, cols = _HEADER.unpack(raw[5:13])
    if len(raw) - 13 != rows * cols * 4:
        raise ShapeOverflow(f"{path}: {rows}x{cols} declared but payload is {len(raw) - 13} bytes")
    data = np.frombuffer(raw[13:], dtype="<f4").astype(np.float64).reshape(rows, cols)
    if not np.all(np.isfinite(data)):
        raise NonFiniteValue(f"{path}: non-finite values in matrix")
    return data


def load_matrix(path) -> np.ndarray:
    """Read a matrix file; a ``.csv`` suffix selects the CSV fallback."""
    if str(path).endswith(".csv"):
        data = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
        if not np.all(np.isfinite(data)):
            raise NonFiniteValue(f"{path}: non-finite values in matrix")
        return data
    return read_matrix(path)


def parse_gmt(path) -> dict[str, list[str]]:
    """Gene sets, one per line: name TAB description TAB gene TAB gene ...

    Genes within a line are deduplicated (first occurrence kept); duplicate
    set names are rejected."""
    sets: dict[str, list[str]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\r\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            genes = [g for g in parts[2:] if g.strip()]
            if len(parts) < 3 or not genes:
                raise MalformedLine(f"{path}:{lineno}: expected name, description and genes")
            name = parts[0]
            if name in sets:
                raise DuplicateSetName(f"{path}:{lineno}: gene set {name!r} repeated")
            sets[name] = list(dict.fromkeys(genes))
    return sets


def write_gmt(path, gene_sets) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for name, genes in gene_sets.items():
            fh.write("\t".join([name, "na", *genes]) + "\n")


def load_survival(path) -> list[SurvivalRecord]:
    """Survival CSV with exact header ``patient_id,time,event``."""
    records: list[SurvivalRecord] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["patient_id", "time", "event"]:
            raise MalformedLine(f"{path}: header must be patient_id,time,event")
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise MalformedLine(f"{path}: expected 3 fields, got {len(row)}")
            pid, time_s, event_s = row
            if pid in seen:
                raise DuplicatePatient(f"{path}: patient {pid!r} repeated")
            seen.add(pid)
            try:
                time = float(time_s)
            except ValueError:
                raise MalformedLine(f"{path}: patient {pid!r} has time {time_s!r}, not a number") from None
            if not np.isfinite(time):
                raise NonFiniteValue(f"{path}: patient {pid!r} has time {time}")
            if time < 0:
                raise NegativeTime(f"{path}: patient {pid!r} has time {time}")
            if event_s not in ("0", "1"):
                raise BadEventFlag(f"{path}: patient {pid!r} has event {event_s!r}")
            records.append(SurvivalRecord(pid, time, int(event_s)))
    return records


def write_survival(path, records) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("patient_id,time,event\n")
        for r in records:
            fh.write(f"{r.patient_id},{r.time:.17g},{r.event}\n")


def load_gene_order(path) -> GeneOrder:
    with open(path, encoding="utf-8") as fh:
        return GeneOrder([line.strip() for line in fh if line.strip()])


def write_gene_order(path, order: GeneOrder) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(s + "\n" for s in order.symbols)


# ---------------------------------------------------------------------------
# cohorts
# ---------------------------------------------------------------------------

@dataclass
class Cohort:
    """An in-memory cohort; optional pieces follow the modality subset."""

    patient_ids: list[str]
    records: list[SurvivalRecord]
    reports: list[ReportFeatures] | None = None
    patches: list[PatchFeatures] | None = None
    slide_reps: list[np.ndarray] | None = None
    expressions: np.ndarray | None = None  # (n_patients, n_genes) in gene order
    gene_order: GeneOrder | None = None
    gene_sets: dict[str, list[str]] | None = None


@dataclass
class SyntheticCohort(Cohort):
    signal_feature: np.ndarray | None = None  # the generating covariate, per patient
    latent_risk: np.ndarray | None = None


@dataclass
class CohortManifest:
    file: Path  # the manifest itself; the files it names resolve beside it
    modalities: str
    slide: str  # the key of a patient's slide: "slide_representation" or "slide"
    gene_order_path: str
    gene_sets_path: str
    survival_path: str
    patients: list[dict] = field(default_factory=list)

    def path(self, name: str) -> Path:
        return self.file.parent / name

    def check_modalities(self, modalities: str) -> str:
        """``modalities``, once each of its letters is one the manifest declares."""
        undeclared = sorted(set(modalities) - set(self.modalities))
        if undeclared:
            raise MalformedLine(f"{self.file}: declares modalities {self.modalities!r}, not {undeclared[0]!r}")
        return modalities


def read_json(path):
    """The JSON document in ``path``; a syntax error names the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None


def load_manifest(path) -> CohortManifest:
    """The manifest in ``path``, its keys and the files it names checked. A
    patient's slide is its ``slide_representation`` when every patient names
    one, else its ``slide`` patch matrix."""
    path = Path(path)
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise MalformedLine(f"{path}: expected a JSON object, got a {type(doc).__name__}")
    required = ["modalities", "survival", "patients"]
    if "p" in doc.get("modalities", ""):
        required += ["gene_order", "gene_sets"]
    for key in required:
        if key not in doc:
            raise MalformedLine(f"{path}: no {key!r} key")
    slide = "slide_representation" if all("slide_representation" in e for e in doc["patients"]) else "slide"
    manifest = CohortManifest(
        file=path,
        modalities=doc["modalities"],
        slide=slide,
        gene_order_path=doc.get("gene_order", ""),
        gene_sets_path=doc.get("gene_sets", ""),
        survival_path=doc["survival"],
        patients=doc["patients"],
    )
    seen: set[str] = set()
    needed = {"p": "expression", "h": slide, "t": "report"}
    unknown = sorted(set(manifest.modalities) - set(needed))
    if unknown:
        raise MalformedLine(f"{path}: unknown modality letters {unknown} in 'modalities'")
    for i, entry in enumerate(manifest.patients):
        if "patient_id" not in entry:
            raise MalformedLine(f"{path}: patient entry {i} has no 'patient_id'")
        pid = entry["patient_id"]
        if pid in seen:
            raise DuplicatePatient(f"{path}: patient {pid!r} repeated")
        seen.add(pid)
        for modality in manifest.modalities:
            if needed[modality] not in entry:
                raise MalformedLine(f"{path}: patient {pid!r} lacks {needed[modality]!r}")
        for key in ("report", "slide", "slide_representation", "expression"):
            if key in entry and not isinstance(entry[key], str):
                raise MalformedLine(f"{path}: patient {pid!r} has {key!r} {entry[key]!r}, not a file name")
            if key in entry and not manifest.path(entry[key]).exists():
                raise FileNotFoundError(f"{path}: missing file {entry[key]!r} for {pid!r}")
    for name in (manifest.gene_order_path, manifest.gene_sets_path, manifest.survival_path):
        if name and not manifest.path(name).exists():
            raise FileNotFoundError(f"{path}: missing file {name!r}")
    return manifest


def _load_matrices(manifest: CohortManifest, key: str) -> list[np.ndarray]:
    """Each patient's ``key`` matrix, checked to hold a row and the first patient's width."""
    matrices: list[np.ndarray] = []
    for e in manifest.patients:
        path, pid = manifest.path(e[key]), e["patient_id"]
        matrices.append(load_matrix(path))
        rows, width = matrices[-1].shape
        if rows == 0:
            raise ShapeMismatch(f"{path}: patient {pid!r}: {key} matrix has no rows")
        if width != matrices[0].shape[1]:
            first = f"{matrices[0].shape[1]} for patient {manifest.patients[0]['patient_id']!r}"
            raise ShapeMismatch(f"{path}: patient {pid!r}: {key} matrix is {width} wide, but {first}")
    return matrices


def load_cohort(manifest: CohortManifest, modalities: str | None = None) -> Cohort:
    """Materialise the files of ``modalities`` (default: every declared one)."""
    modalities = manifest.check_modalities(manifest.modalities if modalities is None else modalities)
    records = {r.patient_id: r for r in load_survival(manifest.path(manifest.survival_path))}
    ids = [e["patient_id"] for e in manifest.patients]
    missing = [p for p in ids if p not in records]
    if missing:
        raise MalformedLine(f"no survival record for patients {missing[:3]}...")
    cohort = Cohort(patient_ids=ids, records=[records[p] for p in ids])
    if "t" in modalities:
        cohort.reports = [ReportFeatures(p, m) for p, m in zip(ids, _load_matrices(manifest, "report"))]
    if "h" in modalities:
        slides = _load_matrices(manifest, manifest.slide)
        if manifest.slide == "slide":
            cohort.patches = [PatchFeatures(p, m) for p, m in zip(ids, slides)]
        else:
            cohort.slide_reps = slides
    if "p" in modalities:
        cohort.gene_order = load_gene_order(manifest.path(manifest.gene_order_path))
        cohort.gene_sets = parse_gmt(manifest.path(manifest.gene_sets_path))
        cohort.expressions = np.empty((len(ids), len(cohort.gene_order)))
        for i, e in enumerate(manifest.patients):
            path = manifest.path(e["expression"])
            values = load_matrix(path).reshape(-1)
            if values.size != len(cohort.gene_order):
                genes = f"the {len(cohort.gene_order)} genes of {manifest.gene_order_path}"
                raise ShapeMismatch(f"{path}: patient {e['patient_id']!r}: {values.size} values for {genes}")
            cohort.expressions[i] = values
    return cohort


# ---------------------------------------------------------------------------
# synthetic cohorts
# ---------------------------------------------------------------------------

@dataclass
class SyntheticSpec:
    n_patients: int
    n_segments: tuple[int, int] = (3, 8)
    n_patches: tuple[int, int] = (64, 128)
    d_t: int = 16
    d_h: int = 16
    n_genes: int = 200
    signal_modality: str = "pathway"
    signal_strength: float = 2.0
    censoring_rate: float = 0.25
    seed: int = 0
    n_pathways: int = 50
    n_patch_clusters: int = 3

    def __post_init__(self):
        if self.n_patients < 1:
            raise ValueError("n_patients must be >= 1")
        if not (0.0 <= self.censoring_rate < 1.0):
            raise ValueError("censoring_rate must lie in [0, 1)")
        if self.n_segments[0] > self.n_segments[1] or self.n_patches[0] > self.n_patches[1]:
            raise ValueError("ranges must be nonempty")
        if self.signal_modality not in ("pathway", "histology", "text"):
            raise ValueError(f"unknown signal modality {self.signal_modality!r}")
        if self.n_genes < self.n_pathways:
            raise ValueError("need at least one gene per pathway")


_BASE_HAZARD = 0.05


def synth_cohort(spec: SyntheticSpec) -> SyntheticCohort:
    """Deterministic synthetic three-modal cohort with a plantable risk signal.

    Patch embeddings come from shared Gaussian clusters (so per-slide GMM
    fitting is meaningful); survival times follow an exponential
    proportional-hazard model whose log hazard is ``signal_strength`` times
    a unit-variance covariate of the chosen modality. Pathway signal: genes
    of the first pathway co-vary with the covariate. Histology signal: the
    first cluster's mixing proportion. Text signal: a fixed direction added
    to the first segment. Censoring flips each patient independently with
    probability ``censoring_rate`` and draws a uniform earlier time.
    """
    rng = substream(spec.seed, "synth")
    order = GeneOrder([f"G{i:05d}" for i in range(spec.n_genes)])
    chunk_bounds = np.linspace(0, spec.n_genes, spec.n_pathways + 1).astype(int)
    gene_sets = {
        f"PW_{i:03d}": [order.symbols[j] for j in range(chunk_bounds[i], chunk_bounds[i + 1])]
        for i in range(spec.n_pathways)
    }
    centers = rng.normal(scale=2.0, size=(spec.n_patch_clusters, spec.d_h))
    text_direction = rng.normal(size=spec.d_t)
    text_direction /= np.linalg.norm(text_direction)
    signal_genes = np.arange(chunk_bounds[0], chunk_bounds[1])

    reports, patches, records = [], [], []
    expressions = np.empty((spec.n_patients, spec.n_genes))
    signal_feature = np.zeros(spec.n_patients)
    for i in range(spec.n_patients):
        pid = f"SYN{i:04d}"
        factor = rng.normal()

        n_seg = int(rng.integers(spec.n_segments[0], spec.n_segments[1] + 1))
        segments = rng.normal(size=(n_seg, spec.d_t))
        if spec.signal_modality == "text":
            segments[0] += text_direction * factor
            covariate = factor

        n_patch = int(rng.integers(spec.n_patches[0], spec.n_patches[1] + 1))
        mix = rng.dirichlet(np.ones(spec.n_patch_clusters))
        assignment = rng.choice(spec.n_patch_clusters, size=n_patch, p=mix)
        patch_mat = centers[assignment] + rng.normal(scale=0.5, size=(n_patch, spec.d_h))
        if spec.signal_modality == "histology":
            k = spec.n_patch_clusters
            # Dirichlet(1,...,1) component variance is (k-1)/(k^2 (k+1))
            covariate = (mix[0] - 1.0 / k) / np.sqrt((k - 1) / (k * k * (k + 1)))

        expr = rng.normal(size=spec.n_genes)
        if spec.signal_modality == "pathway":
            expr[signal_genes] = factor + 0.5 * rng.normal(size=signal_genes.size)
            mean_expr = expr[signal_genes].mean()
            covariate = mean_expr / np.sqrt(1.0 + 0.25 / signal_genes.size)

        latent = spec.signal_strength * covariate
        signal_feature[i] = covariate
        time = rng.exponential(1.0) / (_BASE_HAZARD * np.exp(latent))
        event = 1
        if rng.uniform() < spec.censoring_rate:
            time *= rng.uniform()
            event = 0

        reports.append(ReportFeatures(pid, segments))
        patches.append(PatchFeatures(pid, patch_mat))
        expressions[i] = expr
        records.append(SurvivalRecord(pid, float(time), event))

    return SyntheticCohort(
        patient_ids=[r.patient_id for r in records],
        records=records,
        reports=reports,
        patches=patches,
        expressions=expressions,
        gene_order=order,
        gene_sets=gene_sets,
        signal_feature=signal_feature,
        latent_risk=spec.signal_strength * signal_feature,
    )


def kfold_split(patient_ids, k: int, seed: int) -> list[list[str]]:
    """Seeded shuffle then contiguous partition into k folds whose sizes
    differ by at most one."""
    ids = list(patient_ids)
    if k < 2:
        raise ValueError("k must be >= 2")
    if len(ids) < k:
        raise TooFewPatients(f"{len(ids)} patients for {k} folds")
    perm = substream(seed, "fold").permutation(len(ids))
    return [[ids[i] for i in part] for part in np.array_split(perm, k)]
