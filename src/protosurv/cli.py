"""Command-line pipeline: synth, prototype, train, eval.

Every command is deterministic given its inputs and seed: repeated runs
produce byte-identical outputs. A library warning prints as one
``warning: <message>`` line on stderr. Floats in CSV files print with 17
significant digits. Exit codes: 0 success, 1 data/runtime error, 2 usage
error.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from collections.abc import Iterable
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .data import (
    SyntheticSpec,
    kfold_split,
    load_cohort,
    load_manifest,
    load_patient_matrices,
    read_json,
    synth_cohort,
    write_gene_order,
    write_gmt,
    write_matrix,
    write_survival,
)
from .errors import BadInput, ProtosurvError
from .evaluation import cross_attention_summary, km_curve, log_rank, stratify_median
from .fusion import FUSION_MODES, MODALITY_ORDER
from .pathways import fingerprint
from .pipeline import build_prepared, cross_validate, fit_slide_representations, score_fold, text_shapes
from .survival import TrainConfig, load_checkpoint, save_checkpoint

MODALITY_CHOICES = ("pht", "ht", "pt", "ph", "p", "h", "t")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _write_csv(path: Path, header: tuple[str, ...], rows: Iterable[tuple]) -> None:
    """Comma-joined tuples, LF line endings. A column whose first row holds a float
    (float64 too) prints with 17 significant digits, any other with ``str``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        line = None
        for row in rows:
            if line is None:
                line = ",".join("%.17g" if isinstance(v, float) else "%s" for v in row) + "\n"
            fh.write(line % row)


def _write_json(path: Path, doc) -> None:
    """Indented JSON with sorted keys and a final LF."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _c_index_rows(fold_values: list[tuple[int, float]]) -> list[tuple]:
    """``fold,metric,value`` rows of per-fold C-indices, then their mean and std."""
    values = np.asarray([v for _, v in fold_values])
    return [
        *((fold, "c_index", v) for fold, v in fold_values),
        ("mean", "c_index", values.mean()),
        ("std", "c_index", values.std()),
    ]


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spec = SyntheticSpec(
        n_patients=args.patients,
        n_segments=(args.segments[0], args.segments[1]),
        n_patches=(args.patches[0], args.patches[1]),
        d_t=args.d_t,
        d_h=args.d_h,
        n_genes=args.genes,
        signal_modality=args.signal,
        signal_strength=args.signal_strength,
        censoring_rate=args.censoring,
        seed=args.seed,
        n_pathways=args.pathways,
    )
    cohort = synth_cohort(spec)
    write_survival(out / "survival.csv", cohort.records)
    write_gene_order(out / "genes.txt", cohort.gene_order)
    write_gmt(out / "pathways.gmt", cohort.gene_sets)
    patients = []
    for i, pid in enumerate(cohort.patient_ids):
        names = {"report": f"{pid}.report.ps3e", "slide": f"{pid}.patches.ps3e", "expression": f"{pid}.expr.ps3e"}
        write_matrix(out / names["report"], cohort.reports[i].segments)
        write_matrix(out / names["slide"], cohort.patches[i].patches)
        write_matrix(out / names["expression"], cohort.expressions[i][None, :])
        patients.append({"patient_id": pid, **names})
    doc = {
        "modalities": "pht",
        "gene_order": "genes.txt",
        "gene_sets": "pathways.gmt",
        "survival": "survival.csv",
        "patients": patients,
    }
    _write_json(out / "manifest.json", doc)
    print(f"wrote {len(patients)}-patient synthetic cohort to {out}")
    return 0


# ---------------------------------------------------------------------------
# prototype
# ---------------------------------------------------------------------------

def cmd_prototype(args) -> int:
    if args.n_histology < 1:
        raise BadInput(f"--n-histology must be >= 1, got {args.n_histology}")
    manifest = load_manifest(args.manifest)
    modalities = manifest.modalities
    # the stage needs the reports' shapes and the patches, not the expression files
    cohort = load_cohort(manifest, modalities.replace("p", ""))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    trace_rows: list[tuple] = []
    meta = {
        "modalities": modalities,
        "seed": args.seed,
        "n_histology": args.n_histology,
        "nt_mode": args.nt_mode,
    }
    try:
        if "t" in modalities:
            meta["d_t"], meta["max_segments"], meta["n_text"] = text_shapes(cohort.reports, args.nt_mode)
        if "h" in modalities:
            meta["d_h"] = int(cohort.patches[0].patches.shape[1])
            reps, traces = fit_slide_representations(cohort.patches, args.n_histology, args.seed)
            for patches, rep, trace in zip(cohort.patches, reps, traces):
                path = out / f"{patches.slide_id}.slide.ps3e"
                write_matrix(path, rep)
                written.append(path)
                trace_rows.extend(
                    (patches.slide_id, it, ll, int(trace.converged)) for it, ll in enumerate(trace.log_likelihoods)
                )
    except (ProtosurvError, OSError) as exc:
        for path in written:
            path.unlink(missing_ok=True)
        return _fail(str(exc))
    if trace_rows:
        _write_csv(out / "em_trace.csv", ("patient_id", "iteration", "avg_log_likelihood", "converged"), trace_rows)
    _write_json(out / "prototype_meta.json", meta)
    print(f"prototype stage complete: {len(written)} matrices in {out}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

# keys a config file may carry beyond TrainConfig fields: the run metadata
# cmd_train writes into effective_config.json, so that file feeds back in as-is
_RUN_METADATA_KEYS = {"folds", "manifest", "prototypes", "out"}


def _fits(value, type_name: str) -> bool:
    """Whether a JSON value may fill a config field annotated ``type_name``:
    an int fills a float field, and a bool fills a bool field only."""
    if isinstance(value, bool):
        return type_name == "bool"
    return isinstance(value, {"int": int, "float": (int, float), "str": str}.get(type_name, ()))


def _effective_config(args) -> tuple[TrainConfig, int]:
    """Defaults, overlaid by --config JSON, overlaid by flags (whose dests are
    TrainConfig fields). A rejected value is reported with the input that
    holds it: the config file's path, or the flag."""
    known = {f.name: f.type for f in fields(TrainConfig)}
    flags = {k: v for k, v in vars(args).items() if k in known and v is not None}
    merged: dict = {}
    folds = None
    if args.config:
        doc = read_json(args.config)
        if not isinstance(doc, dict):
            raise BadInput(f"{args.config}: expected a JSON object of config keys, got a {type(doc).__name__}")
        unknown = doc.keys() - known - _RUN_METADATA_KEYS
        if unknown:
            raise BadInput(f"unknown config keys {sorted(unknown)}")
        for key, type_name in {**known, "folds": "int"}.items():
            if key in doc and not _fits(doc[key], type_name):
                raise BadInput(f"{args.config}: key {key!r} must be {type_name}, got {doc[key]!r}")
        folds = doc.get("folds")
        if folds is not None and args.folds is None and folds < 2:
            raise BadInput(f"{args.config}: folds must be >= 2, got {folds}")
        merged.update({k: v for k, v in doc.items() if k in known})
        try:
            # the file's values that no flag overrides, checked on their own
            TrainConfig(**{k: v for k, v in merged.items() if k not in flags})
        except BadInput as exc:
            raise BadInput(f"{args.config}: {exc}") from None
    merged.update(flags)
    if args.folds is not None:
        if args.folds < 2:
            raise BadInput(f"--folds must be >= 2, got {args.folds}")
        folds = args.folds
    return TrainConfig(**merged), int(folds) if folds is not None else 5


def _load_prepared(args, config: TrainConfig):
    """Cohort of ``--manifest`` packed for ``config``: the prototype stage of
    ``--prototypes`` (slide representations, frozen text dims) when given,
    then ``build_prepared``. Slide representations, from ``--prototypes`` or
    named in the manifest, must hold ``n_histology`` rows each, 1 + 2 d_h wide
    (a weight, d_h means and d_h variances); with text, the
    prototype stage's ``n_text`` and ``max_segments`` must be ints >= 1.
    Returns (prepared, mask_set, gene-set digest)."""
    manifest = load_manifest(args.manifest)
    modalities = manifest.check_modalities(config.modalities)
    slide_reps = meta = None
    rep_paths = manifest.paths(manifest.slide) if manifest.slide == "slide_representation" else None
    if args.prototypes:
        proto_dir = Path(args.prototypes)
        meta_path = proto_dir / "prototype_meta.json"
        meta = read_json(meta_path)
        if not isinstance(meta, dict):
            raise BadInput(f"{meta_path}: expected a JSON object of prototype-stage keys, got a {type(meta).__name__}")
        for letter, key, asked in (("h", "n_histology", config.n_histology), ("t", "nt_mode", config.text_proto_mode)):
            if letter in config.modalities and meta.get(key) != asked:
                raise BadInput(f"{meta_path}: prototypes fitted with {key}={meta.get(key)}, config asks {asked}")
        text_keys = ("n_text", "max_segments") if "t" in config.modalities else ()
        for key in text_keys:
            if key not in meta:
                raise BadInput(f"{meta_path}: no {key!r} key")
            if isinstance(meta[key], bool) or not isinstance(meta[key], int) or meta[key] < 1:
                raise BadInput(f"{meta_path}: key {key!r} must be an int >= 1, got {meta[key]!r}")
        rep_paths = {e["patient_id"]: proto_dir / f"{e['patient_id']}.slide.ps3e" for e in manifest.patients}
    if rep_paths is not None and "h" in modalities:
        # the slide representations stand in for the patch matrices, left unread
        slide_reps = load_patient_matrices(rep_paths, "slide", config.n_histology)
        width = slide_reps[0].shape[1]
        if width < 3 or width % 2 == 0:
            pid, path = next(iter(rep_paths.items()))
            raise BadInput(f"{path}: patient {pid!r}: slide representation is {width} wide, not 1 + 2 d_h, d_h >= 1")
        modalities = modalities.replace("h", "")
    cohort = load_cohort(manifest, modalities)
    if "p" in modalities and len(cohort.gene_sets) != config.n_pathways:
        raise BadInput(
            f"{manifest.path(manifest.gene_sets_path)}: {len(cohort.gene_sets)} pathways in the gene sets,"
            f" config expects --n-pathways {config.n_pathways}"
        )
    prepared, _, mask_set = build_prepared(
        cohort,
        config,
        slide_reps=slide_reps,
        n_text=None if meta is None else meta.get("n_text"),
        max_segments=None if meta is None else meta.get("max_segments"),
    )
    digest = fingerprint(cohort.gene_order, mask_set) if mask_set is not None else ""
    return prepared, mask_set, digest


def cmd_train(args) -> int:
    config, n_folds = _effective_config(args)
    prepared, _, digest = _load_prepared(args, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    folds = kfold_split(prepared.patient_ids, n_folds, config.seed)
    _write_json(out / "folds.json", {"seed": config.seed, "k": n_folds, "folds": folds})
    # checkpoints only once every fold has run, so a failing fold leaves none
    result = cross_validate(prepared, config, folds=folds)
    for f in result.folds:
        save_checkpoint(out / f"fold{f.fold}.ckpt", f.model, config, digest)
    _write_csv(
        out / "history.csv",
        ("fold", "epoch", "learning_rate", "mean_loss"),
        ((f.fold, stats.epoch, stats.learning_rate, stats.mean_loss) for f in result.folds for stats in f.history),
    )
    c_indices = [(f.fold, f.c_index) for f in result.folds]
    _write_csv(out / "summary.csv", ("fold", "metric", "value"), _c_index_rows(c_indices))
    effective = {
        **asdict(config),
        "folds": n_folds,
        "manifest": str(args.manifest),
        "prototypes": str(args.prototypes) if args.prototypes else None,
        "out": str(out),
    }
    _write_json(out / "effective_config.json", effective)
    print(f"trained {n_folds}/{n_folds} folds, mean held-out c_index {result.mean_c_index:.4f}")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _attention_pair(text: str) -> tuple[str, str]:
    """``QUERY:KEY`` of two fused block names, as ``eval --attention`` takes it."""
    query, sep, key = text.partition(":")
    if not sep or query not in MODALITY_ORDER or key not in MODALITY_ORDER:
        raise argparse.ArgumentTypeError(f"expected QUERY:KEY, each one of {', '.join(MODALITY_ORDER)}; got {text!r}")
    return query, key


def cmd_eval(args) -> int:
    models_dir = Path(args.models)
    checkpoint_paths = sorted(models_dir.glob("fold*.ckpt"))
    if not checkpoint_paths:
        return _fail(f"no fold*.ckpt files under {models_dir}")
    folds_path = models_dir / "folds.json"
    doc = read_json(folds_path)
    if not isinstance(doc, dict) or "folds" not in doc:
        raise BadInput(f'{folds_path}: no "folds" key')
    folds = doc["folds"]
    if not isinstance(folds, list) or not all(
        isinstance(fold, list) and all(isinstance(pid, str) for pid in fold) for fold in folds
    ):
        raise BadInput(f'{folds_path}: "folds" must be a list of lists of patient-id strings')
    numbered = []
    for path in checkpoint_paths:
        fold_no = path.stem.removeprefix("fold")
        # only the name train writes, fold<k>.ckpt: fold01, or fold1 in other digits, would score fold 1 twice
        if not (fold_no.isdecimal() and str(int(fold_no)) == fold_no):
            raise BadInput(f"{path}: not a checkpoint name train writes (fold<k>.ckpt)")
        if int(fold_no) >= len(folds):
            raise BadInput(f"{path}: no fold {fold_no} in {folds_path}")
        numbered.append((int(fold_no), path))
    # fold order, as train's summary lists them; by name, fold10 would come before fold2
    numbered.sort()
    checkpoint_paths = [path for _, path in numbered]
    models = [(fold_no, *load_checkpoint(path)) for fold_no, path in numbered]
    config = models[0][2]
    # every fold is scored with one config, so every checkpoint must carry it
    for path, (_, _, other, _) in zip(checkpoint_paths, models):
        name = next((f.name for f in fields(config) if getattr(other, f.name) != getattr(config, f.name)), None)
        if name is not None:
            first = f"{checkpoint_paths[0]} has {getattr(config, name)!r}"
            raise BadInput(f"{path}: trained with {name}={getattr(other, name)!r}, but {first}")
    pairs = args.attention or []
    lacking = [block for pair in pairs for block in pair if block not in models[0][1].dims.enabled]
    if lacking:
        trained = f"checkpoints trained on modalities {config.modalities!r}"
        raise BadInput(f"--attention: {trained} have no {lacking[0]} block")
    prepared, mask_set, digest = _load_prepared(args, config)
    for fold_no, _, _, stored in models:
        if stored != digest:
            raise BadInput(f"fold {fold_no}: checkpoint trained against different gene/pathway definitions")
    known = set(prepared.patient_ids)
    unknown = next((pid for fold in folds for pid in fold if pid not in known), None)
    if unknown is not None:
        raise BadInput(f"{folds_path}: patient {unknown!r} is not in {args.manifest}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fold_cindex: list[tuple[int, float]] = []
    pooled: list[tuple] = []  # (risks, times, events) of each held-out fold
    attention_rows: list[tuple] = []
    for fold_no, model, _, _ in models:
        # one batched forward gives the risks and every patient's attention
        held, risks, c_index, fused, validity = score_fold(model, prepared, folds[fold_no], config.fusion_mode, fold_no)
        fold_cindex.append((fold_no, c_index))
        pooled.append((risks, held.times, held.events))
        for query, key in pairs:
            # pathway tokens carry their gene-set names, the others are H0, H1, ... or T0, T1, ...
            size = fused.block_sizes[key]
            names = mask_set.names if key == "pathway" else [f"{key[0].upper()}{i}" for i in range(size)]
            summaries = cross_attention_summary(
                fused.attention, fused.spans, names, query, key, validity[query], validity[key]
            )
            for pid, summary in zip(held.patient_ids, summaries):
                for rank, (token, score) in enumerate(summary.ranking):
                    attention_rows.append((fold_no, pid, query, key, rank, token, score))

    _write_csv(out / "metrics.csv", ("fold", "metric", "value"), _c_index_rows(fold_cindex))
    risks, times, events = (np.concatenate(column) for column in zip(*pooled))
    high = np.asarray(stratify_median(risks)) == "high"
    groups = {"high": (times[high], events[high]), "low": (times[~high], events[~high])}
    curves = {group: km_curve(labels) for group, labels in groups.items() if labels[0].size}
    _write_csv(
        out / "km_curves.csv",
        ("group", "time", "survival", "at_risk"),
        ((group, t, s, n) for group, c in curves.items() for t, s, n in zip(c.times, c.survival, c.at_risk)),
    )
    logrank = [log_rank(groups["high"], groups["low"])] if len(curves) == 2 else []
    _write_csv(out / "logrank.csv", ("statistic", "p_value"), ((r.statistic, r.p_value) for r in logrank))
    if pairs:
        _write_csv(
            out / "attention_summary.csv",
            ("fold", "patient_id", "query_block", "key_block", "rank", "token", "dispersion"),
            attention_rows,
        )
    print(f"evaluated {len(fold_cindex)} folds, mean c_index {np.mean([v for _, v in fold_cindex]):.4f}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protosurv",
        description="Prototype-based three-modal survival pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic cohort on disk")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--patients", type=int, default=300)
    p_synth.add_argument("--signal", choices=("pathway", "histology", "text"), default="pathway")
    p_synth.add_argument("--signal-strength", type=float, default=2.0)
    p_synth.add_argument("--censoring", type=float, default=0.25)
    p_synth.add_argument("--genes", type=int, default=200)
    p_synth.add_argument("--pathways", type=int, default=50)
    p_synth.add_argument("--d-t", type=int, default=16)
    p_synth.add_argument("--d-h", type=int, default=16)
    p_synth.add_argument("--segments", type=int, nargs=2, default=(3, 8))
    p_synth.add_argument("--patches", type=int, nargs=2, default=(64, 128))

    p_proto = sub.add_parser("prototype", help="fit slide mixtures, freeze text prototype counts")
    p_proto.add_argument("--manifest", required=True)
    p_proto.add_argument("--out", required=True)
    p_proto.add_argument("--seed", type=int, default=0)
    p_proto.add_argument("--n-histology", type=int, default=16)
    p_proto.add_argument("--nt-mode", choices=("average", "p90"), default="average")

    p_train = sub.add_parser("train", help="k-fold training with checkpoints")
    p_train.add_argument("--manifest", required=True)
    p_train.add_argument("--prototypes", default=None)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--config", default=None, help="JSON file of TrainConfig fields; flags win")
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--folds", type=int, default=None, help="fold count (default 5)")
    p_train.add_argument("--fusion-mode", choices=FUSION_MODES, default=None)
    p_train.add_argument("--modalities", choices=MODALITY_CHOICES, default=None)
    p_train.add_argument("--epochs", type=int, default=None)
    p_train.add_argument("--lr", dest="learning_rate", type=float, default=None)
    p_train.add_argument("--batch-size", type=int, default=None)
    p_train.add_argument("--weight-decay", type=float, default=None)
    p_train.add_argument("--d-e", type=int, default=None)
    p_train.add_argument("--d-r", type=int, default=None)
    p_train.add_argument("--n-histology", type=int, default=None)
    p_train.add_argument("--n-pathways", type=int, default=None)
    p_train.add_argument("--nt-mode", dest="text_proto_mode", choices=("average", "p90"), default=None)
    p_train.add_argument("--shared-beta", dest="shared_beta_mlp", action="store_const", const=True, default=None)

    p_eval = sub.add_parser("eval", help="held-out metrics, KM curves, log-rank, attention summaries")
    p_eval.add_argument("--manifest", required=True)
    p_eval.add_argument("--prototypes", default=None)
    p_eval.add_argument("--models", required=True)
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument(
        "--attention",
        action="append",
        type=_attention_pair,
        default=None,
        metavar="QUERY:KEY",
        help="emit per-patient attention dispersion for a query/key block pair",
    )
    return parser


_COMMANDS = {
    "synth": cmd_synth,
    "prototype": cmd_prototype,
    "train": cmd_train,
    "eval": cmd_eval,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        # a library warning prints as one line, as an error does, without its source line
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return _COMMANDS[args.command](args)
        except (ProtosurvError, OSError) as exc:
            return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
