"""File ingestion, synthetic cohort generation and fold splitting.

The binary matrix format is the primary interchange (bit-exact round trips
of 32-bit floats); CSV is accepted for hand-authored inputs. A cohort on
disk is one JSON manifest naming per-patient matrix files plus shared gene
order, gene sets (GMT) and survival labels (CSV).
"""

from __future__ import annotations

import csv
import io
import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import BadInput
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
        raise BadInput(f"matrix files hold 2-D arrays, got shape {arr.shape}")
    with np.errstate(over="ignore"):
        stored = np.ascontiguousarray(arr, dtype="<f4")
    if not np.all(np.isfinite(stored)):
        raise BadInput(f"{path}: refusing to write non-finite values")
    with open(path, "wb") as fh:
        fh.write(MATRIX_MAGIC)
        fh.write(bytes([MATRIX_VERSION]))
        fh.write(_HEADER.pack(arr.shape[0], arr.shape[1]))
        fh.write(stored.tobytes())


def read_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 5 or raw[:4] != MATRIX_MAGIC:
        raise BadInput(f"{path}: missing matrix header")
    if raw[4] != MATRIX_VERSION:
        raise BadInput(f"{path}: unsupported format version {raw[4]}")
    if len(raw) < 13:
        raise BadInput(f"{path}: truncated matrix header")
    rows, cols = _HEADER.unpack(raw[5:13])
    if len(raw) - 13 != rows * cols * 4:
        raise BadInput(f"{path}: {rows}x{cols} declared but payload is {len(raw) - 13} bytes")
    data = np.frombuffer(raw[13:], dtype="<f4")
    # checked before the cast, which warns on a signalling NaN
    if not np.all(np.isfinite(data)):
        raise BadInput(f"{path}: non-finite values in matrix")
    return data.astype(np.float64).reshape(rows, cols)


def load_matrix(path) -> np.ndarray:
    """Read a matrix file; a ``.csv`` suffix selects the CSV fallback."""
    if str(path).endswith(".csv"):
        try:
            data = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
        except ValueError as exc:  # a word or a ragged row
            raise BadInput(f"{path}: {exc}") from None
        if not np.all(np.isfinite(data)):
            raise BadInput(f"{path}: non-finite values in matrix")
        return data
    return read_matrix(path)


# a name that becomes a field of an output CSV holds none of these
_CSV_UNSAFE = ',"\r\n'


def open_text(path, newline: str | None = None) -> io.StringIO:
    """The UTF-8 text of ``path`` as a file object whose lines split as
    ``open(path, newline=newline)`` splits them. A byte that is not UTF-8
    raises BadInput naming the file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return io.StringIO(raw.decode("utf-8"), newline=newline)
    except UnicodeDecodeError as exc:
        raise BadInput(f"{path}: not UTF-8 text: {exc}") from None


def parse_gmt(path) -> dict[str, list[str]]:
    """Gene sets, one per line: name TAB description TAB gene TAB gene ...

    Genes within a line are deduplicated (first occurrence kept); duplicate
    set names are rejected."""
    sets: dict[str, list[str]] = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\r\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            genes = [g for g in parts[2:] if g.strip()]
            if len(parts) < 3 or not genes:
                raise BadInput(f"{path}:{lineno}: expected name, description and genes")
            name = parts[0]
            if any(c in name for c in _CSV_UNSAFE):
                raise BadInput(f"{path}:{lineno}: gene set name {name!r} holds a comma, a quote or a line break")
            if name in sets:
                raise BadInput(f"{path}:{lineno}: gene set {name!r} repeated")
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
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["patient_id", "time", "event"]:
            raise BadInput(f"{path}: header must be patient_id,time,event")
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise BadInput(f"{path}: expected 3 fields, got {len(row)}")
            pid, time_s, event_s = row
            if pid in seen:
                raise BadInput(f"{path}: patient {pid!r} repeated")
            seen.add(pid)
            try:
                time = float(time_s)
            except ValueError:
                raise BadInput(f"{path}: patient {pid!r} has time {time_s!r}, not a number") from None
            if not np.isfinite(time):
                raise BadInput(f"{path}: patient {pid!r} has time {time}")
            if time < 0:
                raise BadInput(f"{path}: patient {pid!r} has time {time}")
            if event_s not in ("0", "1"):
                raise BadInput(f"{path}: patient {pid!r} has event {event_s!r}")
            records.append(SurvivalRecord(pid, time, int(event_s)))
    return records


def write_survival(path, records) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("patient_id,time,event\n")
        for r in records:
            fh.write(f"{r.patient_id},{r.time:.17g},{r.event}\n")


def load_gene_order(path) -> GeneOrder:
    with open_text(path) as fh:
        symbols = [line.strip() for line in fh if line.strip()]
    try:
        return GeneOrder(symbols)
    except BadInput as exc:
        raise BadInput(f"{path}: {exc}") from None


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
    expressions: np.ndarray | None = None  # (n_patients, n_genes) in gene order
    gene_order: GeneOrder | None = None
    gene_sets: dict[str, list[str]] | None = None


@dataclass
class SyntheticCohort(Cohort):
    signal_feature: np.ndarray | None = None  # the generating covariate, per patient


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

    def paths(self, key: str) -> dict[str, Path]:
        return {e["patient_id"]: self.path(e[key]) for e in self.patients}

    def check_modalities(self, modalities: str) -> str:
        """``modalities``, once each of its letters is one the manifest declares."""
        undeclared = sorted(set(modalities) - set(self.modalities))
        if undeclared:
            raise BadInput(f"{self.file}: declares modalities {self.modalities!r}, not {undeclared[0]!r}")
        return modalities


def read_json(path):
    """The JSON document in ``path``; a syntax error names the file."""
    with open_text(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise BadInput(f"{path}: not valid JSON: {exc}") from None


def load_manifest(path) -> CohortManifest:
    """The manifest in ``path``, its keys and the files it names checked. A
    patient's slide is its ``slide_representation`` when every patient names
    one, else its ``slide`` patch matrix."""
    path = Path(path)
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise BadInput(f"{path}: expected a JSON object, got a {type(doc).__name__}")
    required = ["modalities", "survival", "patients"]
    if isinstance(doc.get("modalities"), str) and "p" in doc["modalities"]:
        required += ["gene_order", "gene_sets"]
    for key in required:
        if key not in doc:
            raise BadInput(f"{path}: no {key!r} key")
    for key in ("modalities", "survival", "gene_order", "gene_sets"):
        if key in doc and not isinstance(doc[key], str):
            raise BadInput(f"{path}: key {key!r} must be a string, got {doc[key]!r}")
    if not isinstance(doc["patients"], list):
        raise BadInput(f"{path}: key 'patients' must be a list, got a {type(doc['patients']).__name__}")
    for i, entry in enumerate(doc["patients"]):
        if not isinstance(entry, dict):
            raise BadInput(f"{path}: patient entry {i} is a {type(entry).__name__}, not a JSON object")
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
        raise BadInput(f"{path}: unknown modality letters {unknown} in 'modalities'")
    if not manifest.patients:
        raise BadInput(f"{path}: key 'patients' lists no patient")
    for i, entry in enumerate(manifest.patients):
        if "patient_id" not in entry:
            raise BadInput(f"{path}: patient entry {i} has no 'patient_id'")
        pid = entry["patient_id"]
        if not isinstance(pid, str):
            raise BadInput(f"{path}: patient entry {i} has 'patient_id' {pid!r}, not a string")
        if pid in ("", ".", "..") or any(c in pid for c in "/\\" + _CSV_UNSAFE):
            raise BadInput(f"{path}: patient entry {i} has 'patient_id' {pid!r}, not a file name or CSV field")
        if pid in seen:
            raise BadInput(f"{path}: patient {pid!r} repeated")
        seen.add(pid)
        for modality in manifest.modalities:
            if needed[modality] not in entry:
                raise BadInput(f"{path}: patient {pid!r} lacks {needed[modality]!r}")
        for key in ("report", "slide", "slide_representation", "expression"):
            if key in entry and not isinstance(entry[key], str):
                raise BadInput(f"{path}: patient {pid!r} has {key!r} {entry[key]!r}, not a file name")
            if key in entry and not manifest.path(entry[key]).exists():
                raise BadInput(f"{path}: missing file {entry[key]!r} for {pid!r}")
    for name in (manifest.gene_order_path, manifest.gene_sets_path, manifest.survival_path):
        if name and not manifest.path(name).exists():
            raise BadInput(f"{path}: missing file {name!r}")
    return manifest


def load_patient_matrices(paths: dict[str, Path], key: str, rows: int | None = None) -> list[np.ndarray]:
    """Each patient's ``key`` matrix from ``paths`` (patient id to file), checked to
    hold a row (``rows`` rows, when given) and a column, and the first patient's width."""
    matrices: list[np.ndarray] = []
    for pid, path in paths.items():
        matrices.append(load_matrix(path))
        n, width = matrices[-1].shape
        if n == 0:
            raise BadInput(f"{path}: patient {pid!r}: {key} matrix has no rows")
        if width == 0:
            raise BadInput(f"{path}: patient {pid!r}: {key} matrix has no columns")
        if rows is not None and n != rows:
            raise BadInput(f"{path}: patient {pid!r}: {key} matrix has {n} rows, not {rows}")
        if width != matrices[0].shape[1]:
            first = f"{matrices[0].shape[1]} for patient {next(iter(paths))!r}"
            raise BadInput(f"{path}: patient {pid!r}: {key} matrix is {width} wide, but {first}")
    return matrices


def load_cohort(manifest: CohortManifest, modalities: str | None = None) -> Cohort:
    """Materialise the files of ``modalities`` (default: every declared one).
    A manifest of slide representations has no patches to give ``h``."""
    modalities = manifest.check_modalities(manifest.modalities if modalities is None else modalities)
    if "h" in modalities and manifest.slide != "slide":
        raise BadInput(f"{manifest.file}: manifest provides precomputed slide representations; nothing to fit")
    survival = manifest.path(manifest.survival_path)
    records = {r.patient_id: r for r in load_survival(survival)}
    ids = [e["patient_id"] for e in manifest.patients]
    missing = [p for p in ids if p not in records]
    if missing:
        more = f" and {len(missing) - 1} more" if len(missing) > 1 else ""
        raise BadInput(f"{survival}: no record for patient {missing[0]!r}{more} of {manifest.file}")
    cohort = Cohort(patient_ids=ids, records=[records[p] for p in ids])
    if "t" in modalities:
        reports = load_patient_matrices(manifest.paths("report"), "report")
        cohort.reports = [ReportFeatures(p, m) for p, m in zip(ids, reports)]
    if "h" in modalities:
        slides = load_patient_matrices(manifest.paths("slide"), "slide")
        cohort.patches = [PatchFeatures(p, m) for p, m in zip(ids, slides)]
    if "p" in modalities:
        cohort.gene_order = load_gene_order(manifest.path(manifest.gene_order_path))
        cohort.gene_sets = parse_gmt(manifest.path(manifest.gene_sets_path))
        cohort.expressions = np.empty((len(ids), len(cohort.gene_order)))
        for i, e in enumerate(manifest.patients):
            path = manifest.path(e["expression"])
            values = load_matrix(path).reshape(-1)
            if values.size != len(cohort.gene_order):
                genes = f"the {len(cohort.gene_order)} genes of {manifest.gene_order_path}"
                raise BadInput(f"{path}: patient {e['patient_id']!r}: {values.size} values for {genes}")
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

    def __post_init__(self):
        if self.n_patients < 1:
            raise BadInput("n_patients must be >= 1")
        for name in ("d_t", "d_h", "n_pathways"):
            if getattr(self, name) < 1:
                raise BadInput(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (0.0 <= self.censoring_rate < 1.0):
            raise BadInput("censoring_rate must lie in [0, 1)")
        if not math.isfinite(self.signal_strength):
            raise BadInput(f"signal_strength must be finite, got {self.signal_strength}")
        for name in ("n_segments", "n_patches"):
            if getattr(self, name)[0] < 1:
                raise BadInput(f"{name} must start at 1 or more, got {getattr(self, name)}")
        if self.n_segments[0] > self.n_segments[1] or self.n_patches[0] > self.n_patches[1]:
            raise BadInput("ranges must be nonempty")
        if self.signal_modality not in ("pathway", "histology", "text"):
            raise BadInput(f"unknown signal modality {self.signal_modality!r}")
        if self.n_genes < self.n_pathways:
            raise BadInput("need at least one gene per pathway")


_BASE_HAZARD = 0.05
_PATCH_CLUSTERS = 3


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
    centers = rng.normal(scale=2.0, size=(_PATCH_CLUSTERS, spec.d_h))
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
        mix = rng.dirichlet(np.ones(_PATCH_CLUSTERS))
        assignment = rng.choice(_PATCH_CLUSTERS, size=n_patch, p=mix)
        patch_mat = centers[assignment] + rng.normal(scale=0.5, size=(n_patch, spec.d_h))
        if spec.signal_modality == "histology":
            k = _PATCH_CLUSTERS
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
    )


def kfold_split(patient_ids, k: int, seed: int) -> list[list[str]]:
    """Seeded shuffle then contiguous partition into k folds whose sizes
    differ by at most one."""
    ids = list(patient_ids)
    if k < 2:
        raise BadInput("k must be >= 2")
    if len(ids) < k:
        raise BadInput(f"{len(ids)} patients for {k} folds")
    perm = substream(seed, "fold").permutation(len(ids))
    return [[ids[i] for i in part] for part in np.array_split(perm, k)]
