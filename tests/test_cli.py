import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from protosurv.cli import main
from protosurv.data import write_matrix

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort")
    assert main([
        "synth", "--out", str(out), "--patients", "24", "--seed", "7",
        "--genes", "40", "--pathways", "8", "--d-t", "8", "--d-h", "6",
        "--segments", "2", "5", "--patches", "20", "32",
    ]) == 0
    return out


@pytest.fixture(scope="module")
def proto_dir(cohort_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("proto")
    assert main([
        "prototype", "--manifest", str(cohort_dir / "manifest.json"),
        "--out", str(out), "--seed", "7", "--n-histology", "4",
    ]) == 0
    return out


@pytest.fixture(scope="module")
def proto_p90_dir(cohort_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("proto_p90")
    assert main([
        "prototype", "--manifest", str(cohort_dir / "manifest.json"),
        "--out", str(out), "--seed", "7", "--n-histology", "4", "--nt-mode", "p90",
    ]) == 0
    return out


def _train(cohort_dir, proto_dir, out, seed="3", extra=()):
    return main([
        "train", "--manifest", str(cohort_dir / "manifest.json"),
        "--prototypes", str(proto_dir), "--out", str(out),
        "--seed", seed, "--folds", "3", "--epochs", "2",
        "--d-e", "8", "--d-r", "4", "--n-histology", "4", "--n-pathways", "8",
        *extra,
    ])


def test_synth_writes_expected_tree(cohort_dir):
    manifest = json.loads((cohort_dir / "manifest.json").read_text())
    assert manifest["modalities"] == "pht"
    assert len(manifest["patients"]) == 24
    for key in ("report", "slide", "expression"):
        assert (cohort_dir / manifest["patients"][0][key]).exists()
    assert (cohort_dir / "survival.csv").exists()
    assert (cohort_dir / "pathways.gmt").exists()


def test_synth_rerun_is_byte_identical(cohort_dir, tmp_path):
    again = tmp_path / "again"
    assert main([
        "synth", "--out", str(again), "--patients", "24", "--seed", "7",
        "--genes", "40", "--pathways", "8", "--d-t", "8", "--d-h", "6",
        "--segments", "2", "5", "--patches", "20", "32",
    ]) == 0
    for name in ("manifest.json", "survival.csv", "SYN0003.expr.ps3e"):
        assert (cohort_dir / name).read_bytes() == (again / name).read_bytes()


def test_prototype_outputs(cohort_dir, proto_dir):
    meta = json.loads((proto_dir / "prototype_meta.json").read_text())
    assert meta["n_histology"] == 4 and meta["n_text"] >= 1
    assert (proto_dir / "SYN0000.slide.ps3e").exists()
    trace = (proto_dir / "em_trace.csv").read_text().splitlines()
    assert trace[0] == "patient_id,iteration,avg_log_likelihood,converged"
    # per-slide log-likelihoods are non-decreasing
    by_pid = {}
    for row in trace[1:]:
        pid, _, ll, _ = row.split(",")
        by_pid.setdefault(pid, []).append(float(ll))
    assert len(by_pid) == 24
    for values in by_pid.values():
        assert all(b - a >= -1e-8 for a, b in zip(values, values[1:]))


def test_prototype_rerun_is_byte_identical(cohort_dir, proto_dir, tmp_path):
    again = tmp_path / "proto2"
    assert main([
        "prototype", "--manifest", str(cohort_dir / "manifest.json"),
        "--out", str(again), "--seed", "7", "--n-histology", "4",
    ]) == 0
    for name in ("SYN0002.slide.ps3e", "em_trace.csv", "prototype_meta.json"):
        assert (proto_dir / name).read_bytes() == (again / name).read_bytes()


def test_prototype_missing_slide_names_patient(cohort_dir, tmp_path, capsys):
    doc = json.loads((cohort_dir / "manifest.json").read_text())
    doc["patients"][3]["slide"] = "gone.ps3e"
    # paths resolve relative to the manifest, so the broken copy lives alongside
    broken = cohort_dir / "broken.json"
    broken.write_text(json.dumps(doc))
    code = main(["prototype", "--manifest", str(broken), "--out", str(tmp_path / "p")])
    captured = capsys.readouterr()
    assert code == 1
    assert "SYN0003" in captured.err


def test_train_outputs_and_determinism(cohort_dir, proto_dir, tmp_path):
    run1, run2 = tmp_path / "run1", tmp_path / "run2"
    assert _train(cohort_dir, proto_dir, run1) == 0
    assert _train(cohort_dir, proto_dir, run2) == 0
    for name in ("history.csv", "summary.csv", "fold0.ckpt", "fold1.ckpt", "fold2.ckpt", "folds.json"):
        assert (run1 / name).read_bytes() == (run2 / name).read_bytes(), name
    history = (run1 / "history.csv").read_text().splitlines()
    assert history[0] == "fold,epoch,learning_rate,mean_loss"
    assert len(history) == 1 + 3 * 2
    effective = json.loads((run1 / "effective_config.json").read_text())
    assert effective["epochs"] == 2 and effective["folds"] == 3 and effective["d_e"] == 8


def test_train_epochs_zero_checkpoints_equal_initialisation(cohort_dir, proto_dir, tmp_path):
    from protosurv.model import init_params, param_spec
    from protosurv.rng import substream
    from protosurv.survival import load_checkpoint

    out = tmp_path / "init_run"
    assert _train(cohort_dir, proto_dir, out, extra=("--epochs", "0")) == 0
    model, config, _ = load_checkpoint(out / "fold0.ckpt")
    expected = init_params(model.dims, substream(config.seed, "init"))
    for name, _ in param_spec(model.dims):
        np.testing.assert_array_equal(
            model.values[name], expected[name].astype(np.float32).astype(np.float64)
        )


def test_train_config_file_with_flag_override(cohort_dir, proto_dir, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "epochs": 1, "d_e": 8, "d_r": 4, "n_histology": 4, "n_pathways": 8, "seed": 3,
    }))
    out = tmp_path / "cfg_run"
    code = main([
        "train", "--manifest", str(cohort_dir / "manifest.json"),
        "--prototypes", str(proto_dir), "--out", str(out),
        "--config", str(config_path), "--folds", "3", "--epochs", "2",
    ])
    assert code == 0
    effective = json.loads((out / "effective_config.json").read_text())
    assert effective["epochs"] == 2  # flag beats config file
    assert effective["d_e"] == 8


def test_train_modality_subset_without_text(cohort_dir, proto_dir, tmp_path):
    from protosurv.survival import load_checkpoint

    out = tmp_path / "ph_run"
    assert _train(cohort_dir, proto_dir, out, extra=("--modalities", "ph")) == 0
    model, config, _ = load_checkpoint(out / "fold0.ckpt")
    assert config.modalities == "ph"
    assert not any(name.startswith("text.") for name in model.values)


def test_effective_config_reproduces_the_run(cohort_dir, proto_dir, tmp_path):
    run1, run2 = tmp_path / "r1", tmp_path / "r2"
    assert _train(cohort_dir, proto_dir, run1) == 0
    code = main([
        "train", "--manifest", str(cohort_dir / "manifest.json"),
        "--prototypes", str(proto_dir), "--out", str(run2),
        "--config", str(run1 / "effective_config.json"),
    ])
    assert code == 0
    for name in ("history.csv", "summary.csv", "fold0.ckpt", "fold1.ckpt", "fold2.ckpt"):
        assert (run1 / name).read_bytes() == (run2 / name).read_bytes(), name


def test_train_rejects_unknown_config_keys(cohort_dir, proto_dir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"epochz": 3}')
    code = main([
        "train", "--manifest", str(cohort_dir / "manifest.json"),
        "--prototypes", str(proto_dir), "--out", str(tmp_path / "x"),
        "--config", str(bad),
    ])
    assert code == 1
    assert "epochz" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, key",
    [
        ('{"epochs": "2"}', "'epochs' must be int"),
        ('{"epochs": true}', "'epochs' must be int"),
        ('{"epochs": 2.0}', "'epochs' must be int"),
        ('{"learning_rate": "1e-3"}', "'learning_rate' must be float"),
        ('{"shared_beta_mlp": 1}', "'shared_beta_mlp' must be bool"),
        ('{"fusion_mode": null}', "'fusion_mode' must be str"),
        ('{"folds": 2.5}', "'folds' must be int"),
        ("[1, 2]", "expected a JSON object of config keys, got a list"),
    ],
)
def test_train_config_of_wrong_json_type_is_one_line_error(cohort_dir, tmp_path, capsys, doc, key):
    bad = tmp_path / "bad.json"
    bad.write_text(doc)
    code = main([
        "train", "--manifest", str(cohort_dir / "manifest.json"), "--out", str(tmp_path / "x"), "--config", str(bad),
    ])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {bad}: ") and key in err[0]


def test_train_config_takes_an_int_for_a_float_field(tmp_path):
    from protosurv.cli import _effective_config, build_parser

    path = tmp_path / "config.json"
    path.write_text('{"learning_rate": 1, "weight_decay": 0, "shared_beta_mlp": true, "folds": 3}')
    args = build_parser().parse_args(["train", "--manifest", "m.json", "--out", "o", "--config", str(path)])
    config, folds = _effective_config(args)
    assert (config.learning_rate, config.weight_decay, config.shared_beta_mlp, folds) == (1, 0, True, 3)


def test_eval_outputs(cohort_dir, proto_dir, tmp_path):
    run = tmp_path / "run"
    assert _train(cohort_dir, proto_dir, run) == 0
    out = tmp_path / "eval"
    code = main([
        "eval", "--manifest", str(cohort_dir / "manifest.json"),
        "--prototypes", str(proto_dir), "--models", str(run),
        "--out", str(out), "--attention", "text:pathway",
    ])
    assert code == 0
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "fold,metric,value"
    assert metrics[-2].startswith("mean,c_index,") and metrics[-1].startswith("std,c_index,")
    km = (out / "km_curves.csv").read_text().splitlines()
    assert km[0] == "group,time,survival,at_risk"
    assert {row.split(",")[0] for row in km[1:]} <= {"high", "low"}
    logrank = (out / "logrank.csv").read_text().splitlines()
    assert logrank[0] == "statistic,p_value"
    stat, p = map(float, logrank[1].split(","))
    assert stat >= 0 and 0 <= p <= 1
    att = (out / "attention_summary.csv").read_text().splitlines()
    assert att[0] == "fold,patient_id,query_block,key_block,rank,token,dispersion"
    assert any(",PW_" in row for row in att[1:])

    # the KM curves and the log-rank test of the median split of the pooled
    # held-out risks, recomputed per checkpoint on SurvivalRecord lists
    from protosurv.data import load_cohort, load_manifest, load_matrix
    from protosurv.evaluation import km_curve, log_rank, stratify_median
    from protosurv.pipeline import build_prepared
    from protosurv.survival import load_checkpoint, predict_cohort

    cohort = load_cohort(load_manifest(cohort_dir / "manifest.json"))
    record_of = dict(zip(cohort.patient_ids, cohort.records))
    meta = json.loads((proto_dir / "prototype_meta.json").read_text())
    slides = [load_matrix(proto_dir / f"{pid}.slide.ps3e") for pid in cohort.patient_ids]
    risks, records = [], []
    for fold_no, held_ids in enumerate(json.loads((run / "folds.json").read_text())["folds"]):
        model, config, _ = load_checkpoint(run / f"fold{fold_no}.ckpt")
        prepared, _, _ = build_prepared(
            cohort, config, slide_reps=slides, n_text=meta["n_text"], max_segments=meta["max_segments"]
        )
        held = prepared.subset([prepared.patient_ids.index(pid) for pid in held_ids])
        risks.extend(predict_cohort(model, held, config.fusion_mode))
        records.extend(record_of[pid] for pid in held_ids)
    labels = stratify_median(risks)
    groups = {g: [r for r, label in zip(records, labels) if label == g] for g in ("high", "low")}
    assert groups["high"] and groups["low"]
    curves = {g: km_curve(groups[g]) for g in ("high", "low")}
    expected_km = [(g, t, s, n) for g, c in curves.items() for t, s, n in zip(c.times, c.survival, c.at_risk)]
    got_km = [(g, float(t), float(s), int(n)) for g, t, s, n in (row.split(",") for row in km[1:])]
    assert got_km == expected_km
    expected_logrank = log_rank(groups["high"], groups["low"])
    assert (stat, p) == (expected_logrank.statistic, expected_logrank.p_value)


def test_eval_fingerprint_mismatch_is_hard_error(cohort_dir, proto_dir, tmp_path, capsys):
    run = tmp_path / "run"
    assert _train(cohort_dir, proto_dir, run) == 0
    # re-synthesise with the same pathway count but different gene memberships
    other = tmp_path / "other"
    assert main([
        "synth", "--out", str(other), "--patients", "24", "--seed", "8",
        "--genes", "80", "--pathways", "8", "--d-t", "8", "--d-h", "6",
        "--segments", "2", "5", "--patches", "20", "32",
    ]) == 0
    code = main([
        "eval", "--manifest", str(other / "manifest.json"),
        "--prototypes", str(proto_dir), "--models", str(run), "--out", str(tmp_path / "e"),
    ])
    assert code == 1
    assert "different gene" in capsys.readouterr().err


def test_usage_errors_exit_two(cohort_dir):
    with pytest.raises(SystemExit) as err:
        main(["train", "--manifest", str(cohort_dir / "manifest.json"),
              "--out", "/tmp/x", "--fusion-mode", "bogus"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["unknowncmd"])
    assert err.value.code == 2


@pytest.mark.parametrize("pair", ["text", "foo:text", "text:", "text:pathway:histology", "Text:pathway"])
def test_eval_malformed_attention_pair_is_usage_error(cohort_dir, tmp_path, capsys, pair):
    with pytest.raises(SystemExit) as err:
        _eval(cohort_dir, tmp_path, tmp_path, tmp_path / "e", attention=["histology:text", pair])
    assert err.value.code == 2
    assert f"argument --attention: expected QUERY:KEY, each one of pathway, histology, text; got {pair!r}" in (
        capsys.readouterr().err
    )


def test_eval_attention_block_the_checkpoints_lack_fails_before_scoring(
    cohort_dir, proto_dir, tmp_path, capsys, monkeypatch
):
    from protosurv import cli

    run = tmp_path / "ph_run"
    assert _train(cohort_dir, proto_dir, run, extra=("--modalities", "ph")) == 0

    def no_scoring(*args):
        raise AssertionError("a fold was scored")

    monkeypatch.setattr(cli, "score_fold", no_scoring)
    capsys.readouterr()
    assert _eval(cohort_dir, proto_dir, run, tmp_path / "e", attention=["histology:pathway", "text:pathway"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: --attention: checkpoints trained on modalities 'ph' have no text block"
    ]
    assert not (tmp_path / "e").exists()


def test_data_errors_exit_one(tmp_path):
    assert main(["prototype", "--manifest", str(tmp_path / "none.json"), "--out", str(tmp_path)]) == 1


def _rewrite_checkpoint_header(path, edit):
    """Rewrite a checkpoint's JSON header in place through ``edit(header)``."""
    import struct

    raw = path.read_bytes()
    (header_len,) = struct.unpack("<I", raw[5:9])
    header = json.loads(raw[9 : 9 + header_len])
    edit(header)
    blob = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(raw[:5] + struct.pack("<I", len(blob)) + blob + raw[9 + header_len :])


def _eval(cohort_dir, proto_dir, models, out, attention=()):
    argv = [
        "eval", "--manifest", str(cohort_dir / "manifest.json"),
        "--prototypes", str(proto_dir), "--models", str(models), "--out", str(out),
    ]
    for pair in attention:
        argv += ["--attention", pair]
    return main(argv)


@pytest.mark.parametrize("section", ["config", "dims"])
def test_eval_checkpoint_with_unknown_header_key_is_one_line_error(cohort_dir, proto_dir, tmp_path, capsys, section):
    run = tmp_path / "run"
    assert _train(cohort_dir, proto_dir, run) == 0
    _rewrite_checkpoint_header(run / "fold1.ckpt", lambda header: header[section].update(bogus_key=1))
    capsys.readouterr()
    assert _eval(cohort_dir, proto_dir, run, tmp_path / "e") == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "fold1.ckpt" in err[0] and "bogus_key" in err[0]


def test_eval_checkpoint_without_fold_entry_is_one_line_error(cohort_dir, proto_dir, tmp_path, capsys):
    import shutil

    run = tmp_path / "run"
    assert _train(cohort_dir, proto_dir, run) == 0
    shutil.copy(run / "fold1.ckpt", run / "fold3.ckpt")  # folds.json lists folds 0-2 only
    capsys.readouterr()
    assert _eval(cohort_dir, proto_dir, run, tmp_path / "e") == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "fold3.ckpt" in err[0]


@pytest.mark.parametrize("mode", ["full", "late", "hierarchical"])
def test_eval_attention_rows_match_per_patient_forward(cohort_dir, proto_dir, tmp_path, mode):
    from protosurv.data import load_cohort, load_manifest, load_matrix
    from protosurv.evaluation import cross_attention_summary
    from protosurv.model import forward_diagnostics
    from protosurv.pathways import build_masks
    from protosurv.pipeline import build_prepared
    from protosurv.survival import load_checkpoint

    run, out = tmp_path / "run", tmp_path / "eval"
    assert _train(cohort_dir, proto_dir, run, extra=("--fusion-mode", mode)) == 0
    pairs = ("text:pathway", "pathway:pathway", "histology:text")
    assert _eval(cohort_dir, proto_dir, run, out, attention=pairs) == 0
    rows = [row.split(",") for row in (out / "attention_summary.csv").read_text().splitlines()[1:]]

    cohort = load_cohort(load_manifest(cohort_dir / "manifest.json"))
    meta = json.loads((proto_dir / "prototype_meta.json").read_text())
    slides = [load_matrix(proto_dir / f"{pid}.slide.ps3e") for pid in cohort.patient_ids]
    names = build_masks(cohort.gene_sets, cohort.gene_order).names
    folds = json.loads((run / "folds.json").read_text())["folds"]
    expected = []
    for fold_no, held_ids in enumerate(folds):
        model, config, _ = load_checkpoint(run / f"fold{fold_no}.ckpt")
        prepared, _, _ = build_prepared(
            cohort, config, slide_reps=slides, n_text=meta["n_text"], max_segments=meta["max_segments"]
        )
        for pair in pairs:
            query, key = pair.split(":")
            for pid in held_ids:
                one = prepared.subset([prepared.patient_ids.index(pid)])
                _, fused, validity = forward_diagnostics(one, model.values, model.dims, mode)
                sizes = fused.block_sizes
                starts = dict(zip(sizes, np.cumsum([0, *sizes.values()])))
                spans = {name: (starts[name], starts[name] + size) for name, size in sizes.items()}
                keys = names if key == "pathway" else [f"{key[0].upper()}{i}" for i in range(sizes[key])]
                summary = cross_attention_summary(
                    fused.attention[0], spans, keys, query, key,
                    query_validity=validity[query][0], key_validity=validity[key][0],
                )
                for rank, (token, score) in enumerate(summary.ranking):
                    expected.append((str(fold_no), pid, query, key, str(rank), token, score))
    assert len(rows) == len(expected)
    for got, want in zip(rows, expected):
        assert got[:6] == list(want[:6])
        # A dispersion summarises attention weights in [0, 1]; the batched and
        # per-patient forwards round those weights differently by ~1e-17, and
        # near-equal weights amplify that relative to a small dispersion
        # (up to ~5e-10 relative here), so the bound is absolute, in weight units.
        assert abs(float(got[6]) - want[6]) <= 1e-15


def _cli_subprocess(argv):
    """Run the CLI in a subprocess, so that numpy's floating-point warnings
    would reach stderr too."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "protosurv.cli", *argv], capture_output=True, text=True, env=env)


def test_train_divergence_is_one_line_error_without_checkpoints(cohort_dir, proto_dir, tmp_path):
    run = tmp_path / "run"
    argv = [
        "train", "--manifest", str(cohort_dir / "manifest.json"), "--prototypes", str(proto_dir),
        "--out", str(run), "--seed", "3", "--folds", "3", "--epochs", "5", "--batch-size", "8", "--lr", "1e12",
        "--d-e", "8", "--d-r", "4", "--n-histology", "4", "--n-pathways", "8",
    ]
    proc = _cli_subprocess(argv)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: fold 0: epoch 3, batch 1: non-finite loss or gradient (loss nan)"]
    assert not list(run.glob("fold*.ckpt"))


def test_train_float32_overflow_is_one_line_error_without_checkpoints(tmp_path):
    # float64 weights stay finite through three epochs at lr 1e12, but not as float32
    cohort, run = tmp_path / "c", tmp_path / "r"
    assert main(["synth", "--out", str(cohort), "--patients", "40", "--seed", "0"]) == 0
    proc = _cli_subprocess([
        "train", "--manifest", str(cohort / "manifest.json"), "--out", str(run),
        "--epochs", "3", "--batch-size", "16", "--lr", "1e12", "--folds", "2",
    ])
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: fold 0: after epoch 2: parameter text.w_q is not finite as float32"]
    assert sorted(p.name for p in run.iterdir()) == ["folds.json"]


@pytest.mark.parametrize("events_in", ["none", "fold0"])
def test_train_without_training_events_names_the_fold(cohort_dir, proto_dir, tmp_path, events_in):
    from protosurv.data import kfold_split

    doc = json.loads((cohort_dir / "manifest.json").read_text())
    held = set(kfold_split([p["patient_id"] for p in doc["patients"]], 3, 3)[0]) if events_in == "fold0" else set()
    rows = (cohort_dir / "survival.csv").read_text().splitlines()
    lines = [rows[0]]
    for row in rows[1:]:
        pid, time, _ = row.split(",")
        lines.append(f"{pid},{time},{int(pid in held)}")
    # paths resolve relative to the manifest, so the edited copies live alongside
    (cohort_dir / f"survival_{events_in}.csv").write_text("\n".join(lines) + "\n")
    manifest = cohort_dir / f"events_{events_in}.json"
    manifest.write_text(json.dumps({**doc, "survival": f"survival_{events_in}.csv"}))
    run = tmp_path / "run"
    proc = _cli_subprocess([
        "train", "--manifest", str(manifest), "--prototypes", str(proto_dir), "--out", str(run),
        "--seed", "3", "--folds", "3", "--epochs", "2",
        "--d-e", "8", "--d-r", "4", "--n-histology", "4", "--n-pathways", "8",
    ])
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: fold 0: cohort has no observed events"]
    assert not list(run.glob("fold*.ckpt"))


def test_train_flags_and_config_file_reach_effective_config(cohort_dir, proto_dir, proto_p90_dir, tmp_path):
    run = tmp_path / "flags"
    assert _train(cohort_dir, proto_p90_dir, run, extra=("--lr", "0.003", "--nt-mode", "p90", "--shared-beta")) == 0
    effective = json.loads((run / "effective_config.json").read_text())
    assert effective["learning_rate"] == 0.003
    assert effective["text_proto_mode"] == "p90"
    assert effective["shared_beta_mlp"] is True
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "epochs": 1, "d_e": 8, "d_r": 4, "n_histology": 4, "n_pathways": 8, "shared_beta_mlp": True,
    }))
    run = tmp_path / "config"
    assert main([
        "train", "--manifest", str(cohort_dir / "manifest.json"), "--prototypes", str(proto_dir),
        "--out", str(run), "--config", str(config_path), "--folds", "3",
    ]) == 0
    assert json.loads((run / "effective_config.json").read_text())["shared_beta_mlp"] is True


def test_prototypes_fitted_with_another_nt_mode_are_rejected(cohort_dir, proto_dir, proto_p90_dir, tmp_path, capsys):
    capsys.readouterr()
    assert _train(cohort_dir, proto_dir, tmp_path / "x", extra=("--nt-mode", "p90")) == 1
    assert capsys.readouterr().err.splitlines() == ["error: prototypes fitted with nt_mode=average, config asks p90"]
    # without the text modality the text prototype count does not enter
    assert _train(cohort_dir, proto_dir, tmp_path / "ph", extra=("--modalities", "ph", "--nt-mode", "p90")) == 0
    # eval takes the mode from the checkpoints
    run = tmp_path / "p90"
    assert _train(cohort_dir, proto_p90_dir, run, extra=("--nt-mode", "p90")) == 0
    capsys.readouterr()
    assert _eval(cohort_dir, proto_dir, run, tmp_path / "e") == 1
    assert capsys.readouterr().err.splitlines() == ["error: prototypes fitted with nt_mode=average, config asks p90"]


def _record_matrix_reads(monkeypatch) -> list[str]:
    """The names of the matrix files ``protosurv.data.load_matrix`` opens from now on."""
    import protosurv.data

    opened = []
    load_matrix = protosurv.data.load_matrix

    def recording_load_matrix(path):
        opened.append(Path(path).name)
        return load_matrix(path)

    monkeypatch.setattr(protosurv.data, "load_matrix", recording_load_matrix)
    return opened


def test_prototype_runs_read_no_patch_matrix(cohort_dir, proto_dir, tmp_path, monkeypatch):
    opened = _record_matrix_reads(monkeypatch)
    run = tmp_path / "run"
    assert _train(cohort_dir, proto_dir, run) == 0
    assert _eval(cohort_dir, proto_dir, run, tmp_path / "eval") == 0
    assert any(name.endswith(".report.ps3e") for name in opened)
    assert not [name for name in opened if name.endswith(".patches.ps3e")]


def test_prototype_stage_writes_and_reads_only_what_train_uses(cohort_dir, tmp_path, monkeypatch):
    import protosurv.data

    def unused(*args):
        raise AssertionError("the prototype stage read the gene order or the gene sets")

    opened = _record_matrix_reads(monkeypatch)
    monkeypatch.setattr(protosurv.data, "load_gene_order", unused)
    monkeypatch.setattr(protosurv.data, "parse_gmt", unused)
    out = tmp_path / "proto"
    assert main([
        "prototype", "--manifest", str(cohort_dir / "manifest.json"),
        "--out", str(out), "--seed", "7", "--n-histology", "4",
    ]) == 0
    ids = [p["patient_id"] for p in json.loads((cohort_dir / "manifest.json").read_text())["patients"]]
    expected = {f"{pid}.slide.ps3e" for pid in ids} | {"em_trace.csv", "prototype_meta.json"}
    assert {p.name for p in out.iterdir()} == expected
    assert not [name for name in opened if name.endswith(".expr.ps3e")]
    assert sorted(opened) == sorted(f"{pid}.{kind}.ps3e" for pid in ids for kind in ("report", "patches"))


def _manifest_censoring_fold0(cohort_dir):
    """A copy of the cohort whose fold-0 patients (seed 3, three folds) are
    all censored and every other patient has an event."""
    from protosurv.data import kfold_split

    doc = json.loads((cohort_dir / "manifest.json").read_text())
    held = set(kfold_split([p["patient_id"] for p in doc["patients"]], 3, 3)[0])
    rows = (cohort_dir / "survival.csv").read_text().splitlines()
    lines = [rows[0]] + [f"{pid},{time},{int(pid not in held)}" for pid, time, _ in (r.split(",") for r in rows[1:])]
    # paths resolve relative to the manifest, so the edited copies live alongside
    (cohort_dir / "survival_censored0.csv").write_text("\n".join(lines) + "\n")
    manifest = cohort_dir / "censored0.json"
    manifest.write_text(json.dumps({**doc, "survival": "survival_censored0.csv"}))
    return manifest


def test_train_fold_without_comparable_pair_names_the_fold(cohort_dir, proto_dir, tmp_path):
    run = tmp_path / "run"
    proc = _cli_subprocess([
        "train", "--manifest", str(_manifest_censoring_fold0(cohort_dir)), "--prototypes", str(proto_dir),
        "--out", str(run), "--seed", "3", "--folds", "3", "--epochs", "2",
        "--d-e", "8", "--d-r", "4", "--n-histology", "4", "--n-pathways", "8",
    ])
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: fold 0: no comparable pair of records"]
    assert not list(run.glob("fold*.ckpt"))


def test_eval_fold_without_comparable_pair_names_the_fold(cohort_dir, proto_dir, tmp_path):
    run = tmp_path / "run"
    assert _train(cohort_dir, proto_dir, run) == 0
    proc = _cli_subprocess([
        "eval", "--manifest", str(_manifest_censoring_fold0(cohort_dir)), "--prototypes", str(proto_dir),
        "--models", str(run), "--out", str(tmp_path / "eval"),
    ])
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: fold 0: no comparable pair of records"]


def test_eval_checkpoints_with_different_configs_are_one_line_error(cohort_dir, proto_dir, tmp_path):
    import shutil

    full, late = tmp_path / "full", tmp_path / "late"
    assert _train(cohort_dir, proto_dir, full) == 0
    assert _train(cohort_dir, proto_dir, late, extra=("--fusion-mode", "late")) == 0
    # eval scores every fold in the first checkpoint's fusion mode
    shutil.copy(late / "fold1.ckpt", full / "fold1.ckpt")
    proc = _cli_subprocess([
        "eval", "--manifest", str(cohort_dir / "manifest.json"), "--prototypes", str(proto_dir),
        "--models", str(full), "--out", str(tmp_path / "eval"),
    ])
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        f"error: {full / 'fold1.ckpt'}: trained with fusion_mode='late', but {full / 'fold0.ckpt'} has 'full'"
    ]


def _rewrite(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


@pytest.mark.parametrize("broken", ["manifest", "config", "prototype_meta", "folds", "folds_key"])
def test_bad_json_file_is_one_line_error_naming_it(cohort_dir, proto_dir, tmp_path, broken):
    import shutil

    manifest = str(cohort_dir / "manifest.json")
    shape = ["--d-e", "8", "--d-r", "4", "--n-histology", "4", "--n-pathways", "8"]
    if broken == "manifest":
        path = _rewrite(tmp_path / "manifest.json", (cohort_dir / "manifest.json").read_text()[:-3])
        argv = ["train", "--manifest", str(path), "--out", str(tmp_path / "run")]
    elif broken == "config":
        path = _rewrite(tmp_path / "config.json", '{"epochs": 2,')
        argv = ["train", "--manifest", manifest, "--out", str(tmp_path / "run"), "--config", str(path)]
    elif broken == "prototype_meta":
        protos = Path(shutil.copytree(proto_dir, tmp_path / "protos"))
        path = _rewrite(protos / "prototype_meta.json", "{'seed': 7}")
        argv = ["train", "--manifest", manifest, "--prototypes", str(protos), "--out", str(tmp_path / "run"), *shape]
    else:
        run = tmp_path / "run"
        assert _train(cohort_dir, proto_dir, run) == 0
        path = _rewrite(run / "folds.json", "[[0, 1]" if broken == "folds" else '{"seed": 3, "k": 3}')
        argv = ["eval", "--manifest", manifest, "--prototypes", str(proto_dir), "--models", str(run),
                "--out", str(tmp_path / "eval")]
    proc = _cli_subprocess(argv)
    assert proc.returncode == 1
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: "), err
    assert ('no "folds" key' if broken == "folds_key" else "not valid JSON") in err[0]


@pytest.mark.parametrize(
    "flags, config, message",
    [
        (["--lr", "inf"], None, "learning_rate must be finite, got inf"),
        (["--lr", "nan"], None, "learning_rate must be finite, got nan"),
        (["--weight-decay", "inf"], None, "weight_decay must be finite, got inf"),
        ([], '{"learning_rate": 1e400}', "learning_rate must be finite, got inf"),
    ],
)
def test_non_finite_learning_rate_fails_before_any_fold(cohort_dir, tmp_path, flags, config, message):
    run = tmp_path / "run"
    argv = ["train", "--manifest", str(cohort_dir / "manifest.json"), "--out", str(run), *flags]
    if config is not None:
        argv += ["--config", str(_rewrite(tmp_path / "config.json", config))]
    proc = _cli_subprocess(argv)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [f"error: {message}"]
    assert not run.exists()


def _cohort_copy(cohort_dir, tmp_path) -> tuple[Path, dict]:
    """A copy of the synthetic cohort to edit, and its manifest document."""
    import shutil

    copy = Path(shutil.copytree(cohort_dir, tmp_path / "cohort"))
    return copy, json.loads((copy / "manifest.json").read_text())


@pytest.mark.parametrize("gene_files", [True, False])
def test_run_asking_for_an_undeclared_modality_is_one_line_naming_the_manifest(
    cohort_dir, tmp_path, capsys, gene_files
):
    cohort, doc = _cohort_copy(cohort_dir, tmp_path)
    doc["modalities"] = "ht"
    for entry in doc["patients"]:
        del entry["expression"]
    if not gene_files:
        del doc["gene_order"], doc["gene_sets"]
    manifest = _rewrite(cohort / "ht.json", json.dumps(doc))
    run = tmp_path / "run"
    code = main(["train", "--manifest", str(manifest), "--out", str(run), "--modalities", "pht"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {manifest}: declares modalities 'ht', not 'p'"]
    assert not run.exists()


def test_load_cohort_reads_only_the_modalities_it_is_given(cohort_dir, monkeypatch):
    from protosurv.data import load_cohort, load_manifest

    manifest = load_manifest(cohort_dir / "manifest.json")
    opened = _record_matrix_reads(monkeypatch)
    cohort = load_cohort(manifest, "t")
    assert sorted(opened) == sorted(f"{e['patient_id']}.report.ps3e" for e in manifest.patients)
    assert cohort.patches is cohort.slide_reps is cohort.expressions is None


def test_prototype_of_fitted_representations_fails_before_reading_a_matrix(
    cohort_dir, proto_dir, tmp_path, monkeypatch, capsys
):
    doc = json.loads((cohort_dir / "manifest.json").read_text())
    for entry in doc["patients"]:
        del entry["slide"]
        entry["slide_representation"] = os.path.relpath(proto_dir / f"{entry['patient_id']}.slide.ps3e", cohort_dir)
    manifest = _rewrite(cohort_dir / "representations.json", json.dumps(doc))
    opened = _record_matrix_reads(monkeypatch)
    assert main(["prototype", "--manifest", str(manifest), "--out", str(tmp_path / "p")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: manifest provides precomputed slide representations; nothing to fit"]
    assert opened == []


def _write_bad_matrix(matrix):
    def edit(cohort, entry, key):
        entry[key] = f"bad.{entry[key]}"
        write_matrix(cohort / entry[key], matrix)
        return cohort / entry[key]

    return edit


def _number_as_path(cohort, entry, key):
    entry[key] = 5
    return cohort / "bad.json"


@pytest.mark.parametrize(
    "key, edit, commands",
    [
        ("report", _number_as_path, ("prototype", "train")),
        ("expression", _write_bad_matrix(np.ones((1, 20))), ("train",)),  # the cohort has 40 genes
        ("slide", _write_bad_matrix(np.ones((24, 7))), ("prototype", "train")),  # patches are 6 wide
        ("report", _write_bad_matrix(np.ones((0, 8))), ("prototype", "train")),
        ("slide", _write_bad_matrix(np.ones((0, 6))), ("prototype", "train")),
    ],
    ids=["report_path_number", "expression_length", "slide_width", "report_no_rows", "slide_no_rows"],
)
def test_bad_patient_file_is_one_line_naming_the_file_and_the_patient(cohort_dir, tmp_path, capsys, key, edit, commands):
    cohort, doc = _cohort_copy(cohort_dir, tmp_path)
    named = edit(cohort, doc["patients"][3], key)
    manifest = _rewrite(cohort / "bad.json", json.dumps(doc))
    for command in commands:
        out = tmp_path / command
        assert main([command, "--manifest", str(manifest), "--out", str(out)]) == 1, command
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {named}: "), (command, err)
        assert "'SYN0003'" in err[0], (command, err)
        assert not out.exists(), command
