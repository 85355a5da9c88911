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
    ShapeOverflow,
    TooFewPatients,
)
from .histology import PatchFeatures
from .pathways import ExpressionProfile, GeneOrder
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
    modalities: str
    reports: list[ReportFeatures] | None = None
    patches: list[PatchFeatures] | None = None
    slide_reps: list[np.ndarray] | None = None
    expressions: list[ExpressionProfile] | None = None
    gene_order: GeneOrder | None = None
    gene_sets: dict[str, list[str]] | None = None


@dataclass
class SyntheticCohort(Cohort):
    signal_feature: np.ndarray | None = None  # the generating covariate, per patient
    latent_risk: np.ndarray | None = None


@dataclass
class CohortManifest:
    root: Path
    modalities: str
    gene_order_path: str
    gene_sets_path: str
    survival_path: str
    patients: list[dict] = field(default_factory=list)

    def path(self, name: str) -> Path:
        return self.root / name


def read_json(path):
    """The JSON document in ``path``; a syntax error names the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None


def load_manifest(path) -> CohortManifest:
    path = Path(path)
    doc = read_json(path)
    manifest = CohortManifest(
        root=path.parent,
        modalities=doc["modalities"],
        gene_order_path=doc.get("gene_order", ""),
        gene_sets_path=doc.get("gene_sets", ""),
        survival_path=doc["survival"],
        patients=doc["patients"],
    )
    seen: set[str] = set()
    needed = {"p": ["expression"], "h": [], "t": ["report"]}
    for entry in manifest.patients:
        pid = entry["patient_id"]
        if pid in seen:
            raise DuplicatePatient(f"{path}: patient {pid!r} repeated")
        seen.add(pid)
        for modality in manifest.modalities:
            for key in needed[modality]:
                if key not in entry:
                    raise MalformedLine(f"{path}: patient {pid!r} lacks {key!r}")
            if modality == "h" and "slide" not in entry and "slide_representation" not in entry:
                raise MalformedLine(f"{path}: patient {pid!r} lacks a slide reference")
        for key in ("report", "slide", "slide_representation", "expression"):
            if key in entry and not manifest.path(entry[key]).exists():
                raise FileNotFoundError(f"{path}: missing file {entry[key]!r} for {pid!r}")
    for name in (manifest.gene_order_path, manifest.gene_sets_path, manifest.survival_path):
        if name and not manifest.path(name).exists():
            raise FileNotFoundError(f"{path}: missing file {name!r}")
    return manifest


def load_cohort(manifest: CohortManifest) -> Cohort:
    """Materialise every referenced file for the configured modalities."""
    records = {r.patient_id: r for r in load_survival(manifest.path(manifest.survival_path))}
    ids = [e["patient_id"] for e in manifest.patients]
    missing = [p for p in ids if p not in records]
    if missing:
        raise MalformedLine(f"no survival record for patients {missing[:3]}...")
    cohort = Cohort(
        patient_ids=ids,
        records=[records[p] for p in ids],
        modalities=manifest.modalities,
    )
    if "t" in manifest.modalities:
        cohort.reports = [
            ReportFeatures(e["patient_id"], load_matrix(manifest.path(e["report"])))
            for e in manifest.patients
        ]
    if "h" in manifest.modalities:
        if all("slide_representation" in e for e in manifest.patients):
            cohort.slide_reps = [
                load_matrix(manifest.path(e["slide_representation"])) for e in manifest.patients
            ]
        else:
            cohort.patches = [
                PatchFeatures(e["patient_id"], load_matrix(manifest.path(e["slide"])))
                for e in manifest.patients
            ]
    if "p" in manifest.modalities:
        cohort.gene_order = load_gene_order(manifest.path(manifest.gene_order_path))
        cohort.gene_sets = parse_gmt(manifest.path(manifest.gene_sets_path))
        cohort.expressions = []
        for e in manifest.patients:
            values = load_matrix(manifest.path(e["expression"])).reshape(-1)
            cohort.expressions.append(ExpressionProfile(e["patient_id"], values))
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

    reports, patches, expressions, records = [], [], [], []
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
        expressions.append(ExpressionProfile(pid, expr))
        records.append(SurvivalRecord(pid, float(time), event))

    return SyntheticCohort(
        patient_ids=[r.patient_id for r in records],
        records=records,
        modalities="pht",
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
