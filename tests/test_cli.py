import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from protosurv.cli import main
from protosurv.data import read_matrix, write_matrix

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


@pytest.mark.parametrize(
    "key, value, stored", [("modalities", "ph", "'pht'"), ("n_histology", 3, "4")], ids=["modalities", "n_histology"]
)
def test_eval_checkpoint_whose_dims_contradict_its_config_is_one_line_naming_it(
    cohort_dir, proto_dir, tmp_path, capsys, key, value, stored
):
    run = tmp_path / "run"
    assert _train(cohort_dir, proto_dir, run) == 0
    # one checkpoint, so no other checkpoint's config is compared with the edited one first
    for name in ("fold1.ckpt", "fold2.ckpt"):
        (run / name).unlink()
    _rewrite_checkpoint_header(run / "fold0.ckpt", lambda header: header["config"].update({key: value}))
    capsys.readouterr()
    assert _eval(cohort_dir, proto_dir, run, tmp_path / "e") == 1
    expected = [f"error: {run / 'fold0.ckpt'}: dims {key}={stored} contradict the config's {value!r}"]
    assert capsys.readouterr().err.splitlines() == expected
    assert not (tmp_path / "e").exists()


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


@pytest.mark.parametrize("name", ["fold01.ckpt", "fold\u0661.ckpt"])
def test_eval_checkpoint_name_train_does_not_write_is_one_line_error(cohort_dir, proto_dir, tmp_path, capsys, name):
    import shutil

    run = tmp_path / "run"
    assert _train(cohort_dir, proto_dir, run) == 0
    shutil.copy(run / "fold1.ckpt", run / name)  # scored as fold 1 a second time, were it read
    capsys.readouterr()
    assert _eval(cohort_dir, proto_dir, run, tmp_path / "e") == 1
    expected = [f"error: {run / name}: not a checkpoint name train writes (fold<k>.ckpt)"]
    assert capsys.readouterr().err.splitlines() == expected
    assert not (tmp_path / "e").exists()


def test_eval_of_eleven_folds_writes_them_in_fold_order(tmp_path):
    cohort, proto, run, out = (tmp_path / name for name in ("cohort", "proto", "run", "eval"))
    assert main([
        "synth", "--out", str(cohort), "--patients", "66", "--seed", "7",
        "--genes", "40", "--pathways", "8", "--d-t", "8", "--d-h", "6",
        "--segments", "2", "5", "--patches", "20", "32",
    ]) == 0
    assert main([
        "prototype", "--manifest", str(cohort / "manifest.json"), "--out", str(proto), "--seed", "7", "--n-histology", "4",
    ]) == 0
    assert main([
        "train", "--manifest", str(cohort / "manifest.json"), "--prototypes", str(proto), "--out", str(run),
        "--seed", "3", "--folds", "11", "--epochs", "1",
        "--d-e", "8", "--d-r", "4", "--n-histology", "4", "--n-pathways", "8",
    ]) == 0
    assert main([
        "eval", "--manifest", str(cohort / "manifest.json"), "--prototypes", str(proto), "--models", str(run),
        "--out", str(out), "--attention", "text:pathway",
    ]) == 0
    # fold 10 after fold 9, as train's summary lists them, and the same pooled mean
    assert (out / "metrics.csv").read_bytes() == (run / "summary.csv").read_bytes()
    folds = [int(row.split(",")[0]) for row in (out / "attention_summary.csv").read_text().splitlines()[1:]]
    assert folds == sorted(folds) and set(folds) == set(range(11))


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
                (summary,) = cross_attention_summary(
                    fused.attention, spans, keys, query, key, validity[query], validity[key]
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
    assert capsys.readouterr().err.splitlines() == [
        f"error: {proto_dir / 'prototype_meta.json'}: prototypes fitted with nt_mode=average, config asks p90"
    ]
    # without the text modality the text prototype count does not enter
    assert _train(cohort_dir, proto_dir, tmp_path / "ph", extra=("--modalities", "ph", "--nt-mode", "p90")) == 0
    # eval takes the mode from the checkpoints
    run = tmp_path / "p90"
    assert _train(cohort_dir, proto_p90_dir, run, extra=("--nt-mode", "p90")) == 0
    capsys.readouterr()
    assert _eval(cohort_dir, proto_dir, run, tmp_path / "e") == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {proto_dir / 'prototype_meta.json'}: prototypes fitted with nt_mode=average, config asks p90"
    ]


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


@pytest.mark.parametrize("broken", ["manifest", "config", "prototype_meta", "prototype_meta_list", "folds", "folds_key"])
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
    elif broken.startswith("prototype_meta"):
        protos = Path(shutil.copytree(proto_dir, tmp_path / "protos"))
        path = _rewrite(protos / "prototype_meta.json", "[1]" if broken == "prototype_meta_list" else "{'seed': 7}")
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
    expected = {"folds_key": 'no "folds" key', "prototype_meta_list": "expected a JSON object of prototype-stage keys"}
    assert expected.get(broken, "not valid JSON") in err[0]


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
    # a value from the config file is reported with the file's path
    named = "" if config is None else f"{tmp_path / 'config.json'}: "
    assert proc.stderr.splitlines() == [f"error: {named}{message}"]
    assert not run.exists()


@pytest.mark.parametrize(
    "flags, config, message",
    [
        ([], '{"d_r": -1}', "{config}: d_r must be >= 0, got -1"),
        (["--d-r", "-1"], None, "d_r must be >= 0, got -1"),
        (["--d-r", "-1"], '{"epochs": 2}', "d_r must be >= 0, got -1"),
        (["--epochs", "-2"], '{"d_r": 3}', "epochs must be >= 0 and batch_size >= 1"),
        (["--n-histology", "2"], '{"n_histology": 0, "n_pathways": 0}', "{config}: n_pathways must be >= 1, got 0"),
        (["--folds", "0"], None, "--folds must be >= 2, got 0"),
        (["--folds", "1"], '{"folds": 3}', "--folds must be >= 2, got 1"),
        ([], '{"folds": 1}', "{config}: folds must be >= 2, got 1"),
    ],
    ids=["config", "flag", "flag_over_config", "flag_beside_config", "config_beside_flag", "folds_0", "folds_1",
         "config_folds"],
)
def test_rejected_train_argument_names_the_input_holding_it(tmp_path, capsys, flags, config, message):
    # the arguments are checked before the manifest is read
    argv = ["train", "--manifest", str(tmp_path / "absent.json"), "--out", str(tmp_path / "run"), *flags]
    if config is not None:
        argv += ["--config", str(_rewrite(tmp_path / "config.json", config))]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message.format(config=tmp_path / 'config.json')}"]
    assert not (tmp_path / "run").exists()


def test_config_value_a_flag_overrides_is_not_checked(tmp_path):
    from protosurv.cli import _effective_config, build_parser

    path = _rewrite(tmp_path / "config.json", '{"d_r": -1, "folds": 1, "epochs": 3}')
    argv = ["train", "--manifest", "m.json", "--out", "o", "--config", str(path), "--d-r", "2", "--folds", "4"]
    config, folds = _effective_config(build_parser().parse_args(argv))
    assert (config.d_r, config.epochs, folds) == (2, 3, 4)


@pytest.mark.parametrize("value", ["0", "-1"])
def test_prototype_n_histology_below_one_names_the_flag(cohort_dir, tmp_path, capsys, value):
    argv = ["prototype", "--manifest", str(cohort_dir / "manifest.json"), "--out", str(tmp_path / "p"),
            "--n-histology", value]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: --n-histology must be >= 1, got {value}"]
    assert not (tmp_path / "p").exists()


def test_gene_set_count_mismatch_names_the_gmt_file(cohort_dir, proto_dir, tmp_path, capsys):
    cohort, doc = _cohort_copy(cohort_dir, tmp_path)
    gmt = cohort / doc["gene_sets"]
    gmt.write_text("".join(gmt.read_text().splitlines(True)[1:]))
    run = tmp_path / "run"
    assert _train(cohort, proto_dir, run) == 1
    expected = [f"error: {gmt}: 7 pathways in the gene sets, config expects --n-pathways 8"]
    assert capsys.readouterr().err.splitlines() == expected
    assert not run.exists()


def _cohort_copy(cohort_dir, tmp_path) -> tuple[Path, dict]:
    """A copy of the synthetic cohort to edit, and its manifest document."""
    import shutil

    copy = Path(shutil.copytree(cohort_dir, tmp_path / "cohort"))
    return copy, json.loads((copy / "manifest.json").read_text())


def test_prototype_of_a_patient_id_outside_its_directory_writes_nothing(cohort_dir, tmp_path, capsys):
    cohort, doc = _cohort_copy(cohort_dir, tmp_path)
    old = doc["patients"][0]["patient_id"]
    doc["patients"][0]["patient_id"] = "../outside"
    manifest = _rewrite(cohort / "manifest.json", json.dumps(doc))
    survival = cohort / doc["survival"]
    survival.write_text(survival.read_text().replace(f"\n{old},", "\n../outside,"))
    work = tmp_path / "work"
    assert main(["prototype", "--manifest", str(manifest), "--out", str(work / "p3"), "--n-histology", "4"]) == 1
    expected = [f"error: {manifest}: patient entry 0 has 'patient_id' '../outside', not a file name or CSV field"]
    assert capsys.readouterr().err.splitlines() == expected
    assert not work.exists()


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
    assert cohort.patches is cohort.expressions is None


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
    assert err == [f"error: {manifest}: manifest provides precomputed slide representations; nothing to fit"]
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


@pytest.mark.parametrize(
    "shape, message",
    [((4, 7), "slide matrix is 7 wide, but 13 for patient 'SYN0000'"), ((3, 13), "slide matrix has 3 rows, not 4")],
    ids=["width", "rows"],
)
def test_bad_prototype_slide_is_one_line_naming_the_file_and_the_patient(
    cohort_dir, proto_dir, tmp_path, capsys, shape, message
):
    import shutil

    protos = Path(shutil.copytree(proto_dir, tmp_path / "protos"))
    path = protos / "SYN0003.slide.ps3e"
    write_matrix(path, np.ones(shape))  # the fitted ones are 4 x 13
    capsys.readouterr()
    assert _train(cohort_dir, protos, tmp_path / "run") == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: patient 'SYN0003': {message}"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("n_text", "3", "key 'n_text' must be an int >= 1, got '3'"),
        ("n_text", 2.5, "key 'n_text' must be an int >= 1, got 2.5"),
        ("n_text", True, "key 'n_text' must be an int >= 1, got True"),
        ("max_segments", 0, "key 'max_segments' must be an int >= 1, got 0"),
        ("n_text", None, "no 'n_text' key"),
    ],
    ids=["n_text_string", "n_text_float", "n_text_bool", "max_segments_zero", "n_text_missing"],
)
def test_bad_prototype_text_shape_is_one_line_naming_the_file_and_the_key(
    cohort_dir, proto_dir, tmp_path, capsys, key, value, message
):
    import shutil

    protos = Path(shutil.copytree(proto_dir, tmp_path / "protos"))
    meta = json.loads((protos / "prototype_meta.json").read_text())
    if value is None:
        del meta[key]
    else:
        meta[key] = value
    path = _rewrite(protos / "prototype_meta.json", json.dumps(meta))
    capsys.readouterr()
    assert _train(cohort_dir, protos, tmp_path / "run") == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: {message}"]
    assert not (tmp_path / "run").exists()


def _in_checkpoint(edit):
    def apply(run):
        _rewrite_checkpoint_header(run / "fold1.ckpt", edit)
        return run / "fold1.ckpt"

    return apply


def _drop_tensor_shape(header):
    del header["tensors"][0]["shape"]


def _rename_tensor(header):
    header["tensors"][0]["name"] = "text.w_x"  # same shape as text.w_q


def _name_unknown_patient(run):
    doc = json.loads((run / "folds.json").read_text())
    doc["folds"][2][0] = "SYN9999"
    return _rewrite(run / "folds.json", json.dumps(doc))


def _set_folds(edit):
    def apply(run):
        doc = json.loads((run / "folds.json").read_text())
        edit(doc)
        return _rewrite(run / "folds.json", json.dumps(doc))

    return apply


def _nest_patient(doc):
    doc["folds"][1][0] = [doc["folds"][1][0]]


_FOLDS_SHAPE = '"folds" must be a list of lists of patient-id strings'


@pytest.mark.parametrize(
    "edit, message",
    [
        (_in_checkpoint(lambda header: header.pop("tensors")), "malformed checkpoint header: 'tensors'"),
        (_in_checkpoint(lambda header: header.pop("fingerprint")), "malformed checkpoint header: 'fingerprint'"),
        (_in_checkpoint(_drop_tensor_shape), "malformed checkpoint header: 'shape'"),
        (_in_checkpoint(_rename_tensor), "tensor 0 is text.w_x (8, 8), but the header's dims ask for text.w_q (8, 8)"),
        (
            _in_checkpoint(lambda header: header["tensors"].pop()),
            "tensor 62 is nothing, but the header's dims ask for head.risk.b (1,)",
        ),
        (_name_unknown_patient, "patient 'SYN9999' is not in {manifest}"),
        (_set_folds(lambda doc: doc.update(folds=5)), _FOLDS_SHAPE),
        (_set_folds(_nest_patient), _FOLDS_SHAPE),
    ],
    ids=[
        "tensors", "fingerprint", "shape", "renamed_tensor", "dropped_tensor",
        "folds_patient", "folds_count", "folds_nested_id",
    ],
)
def test_eval_of_a_bad_run_file_is_one_line_naming_the_file_and_the_key(
    cohort_dir, proto_dir, tmp_path, capsys, monkeypatch, edit, message
):
    from protosurv import cli

    run = tmp_path / "run"
    assert _train(cohort_dir, proto_dir, run) == 0
    path = edit(run)

    def no_scoring(*args):
        raise AssertionError("a fold was scored")

    monkeypatch.setattr(cli, "score_fold", no_scoring)
    capsys.readouterr()
    assert _eval(cohort_dir, proto_dir, run, tmp_path / "e") == 1
    err = capsys.readouterr().err.splitlines()
    expected = f"error: {path}: {message.format(manifest=cohort_dir / 'manifest.json')}"
    assert len(err) == 1 and err[0].startswith(expected), err
    assert not (tmp_path / "e").exists()


def _drop_survival_row(cohort, doc):
    path = cohort / doc["survival"]
    path.write_text("".join(line for line in path.read_text().splitlines(True) if not line.startswith("SYN0004,")))
    return path


def _repeat_gene(cohort, doc):
    path = cohort / doc["gene_order"]
    path.write_text(path.read_text() + "G00007\n")
    return path


def _csv_report(text):
    def edit(cohort, doc):
        entry = doc["patients"][3]
        entry["report"] = "bad.report.csv"
        (cohort / entry["report"]).write_text(text)
        return cohort / entry["report"]

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_drop_survival_row, "no record for patient 'SYN0004' of {manifest}"),
        (_repeat_gene, "gene symbol 'G00007' repeated"),
        (_csv_report("1,2,3,4,5,6,7,8\n1,2,five,4,5,6,7,8\n"), "could not convert string 'five' to float64"),
        (_csv_report("1,2,3,4,5,6,7,8\n1,2,3,4,5,6,7\n"), "the number of columns changed from 8 to 7 at row 2"),
    ],
    ids=["survival_record", "repeated_gene", "csv_word", "csv_ragged"],
)
def test_bad_cohort_file_is_one_line_naming_it(cohort_dir, tmp_path, capsys, edit, message):
    cohort, doc = _cohort_copy(cohort_dir, tmp_path)
    named = edit(cohort, doc)
    manifest = _rewrite(cohort / "bad.json", json.dumps(doc))
    assert main(["train", "--manifest", str(manifest), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {named}: {message.format(manifest=manifest)}"), err


def test_manifest_slide_representation_of_the_wrong_rows_is_one_line_naming_the_file_and_the_patient(
    cohort_dir, proto_dir, tmp_path, capsys
):
    # representations fitted with --n-histology 4, trained with 3: each must hold n_histology rows
    doc = json.loads((cohort_dir / "manifest.json").read_text())
    for key in ("gene_order", "gene_sets", "survival"):
        doc[key] = str(cohort_dir / doc[key])
    for entry in doc["patients"]:
        for key in ("report", "expression"):
            entry[key] = str(cohort_dir / entry[key])
        del entry["slide"]
        entry["slide_representation"] = str(proto_dir / f"{entry['patient_id']}.slide.ps3e")
    manifest = _rewrite(tmp_path / "representations.json", json.dumps(doc))
    run = tmp_path / "run"
    capsys.readouterr()
    assert main([
        "train", "--manifest", str(manifest), "--out", str(run), "--folds", "3", "--epochs", "1",
        "--d-e", "8", "--d-r", "4", "--n-histology", "3", "--n-pathways", "8",
    ]) == 1
    message = f"error: {proto_dir / 'SYN0000.slide.ps3e'}: patient 'SYN0000': slide matrix has 4 rows, not 3"
    assert capsys.readouterr().err.splitlines() == [message]
    assert not run.exists()


def test_prototype_warning_is_one_stderr_line(cohort_dir, tmp_path):
    cohort, _ = _cohort_copy(cohort_dir, tmp_path)
    write_matrix(cohort / "SYN0003.patches.ps3e", np.random.default_rng(0).normal(size=(2, 6)))
    proc = _cli_subprocess([
        "prototype", "--manifest", str(cohort / "manifest.json"), "--out", str(tmp_path / "p"), "--n-histology", "3",
    ])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == ["warning: slide SYN0003: 2 patches for 3 components"]


def test_train_warning_is_one_stderr_line(cohort_dir, proto_dir, tmp_path):
    cohort, _ = _cohort_copy(cohort_dir, tmp_path)
    gmt = cohort / "pathways.gmt"
    gmt.write_text(gmt.read_text().replace("PW_002\tna\t", "PW_002\tna\tNOT_A_GENE\t"))
    proc = _cli_subprocess([
        "train", "--manifest", str(cohort / "manifest.json"), "--prototypes", str(proto_dir),
        "--out", str(tmp_path / "run"), "--folds", "3", "--epochs", "1",
        "--d-e", "8", "--d-r", "4", "--n-histology", "4", "--n-pathways", "8",
    ])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == ["warning: PW_002: dropped 1 gene(s) absent from the gene order"]


def test_a_manifest_that_lists_no_patient_is_one_line_naming_it(cohort_dir, tmp_path, capsys):
    cohort, doc = _cohort_copy(cohort_dir, tmp_path)
    doc["patients"] = []
    manifest = _rewrite(cohort / "empty.json", json.dumps(doc))
    for command in ("prototype", "train"):
        out = tmp_path / command
        assert main([command, "--manifest", str(manifest), "--out", str(out)]) == 1, command
        assert capsys.readouterr().err.splitlines() == [f"error: {manifest}: key 'patients' lists no patient"]
        assert not out.exists(), command


@pytest.mark.parametrize("key, command", [("report", "train"), ("slide", "prototype")])
def test_patient_matrices_without_columns_are_one_line_naming_the_first_file(
    cohort_dir, tmp_path, capsys, key, command
):
    cohort, doc = _cohort_copy(cohort_dir, tmp_path)
    for entry in doc["patients"]:
        write_matrix(cohort / entry[key], np.ones((24, 0)))
    first = doc["patients"][0]
    out = tmp_path / command
    shape = ["--n-histology", "4"] + (["--n-pathways", "8"] if command == "train" else [])
    assert main([command, "--manifest", str(cohort / "manifest.json"), "--out", str(out), *shape]) == 1
    expected = f"error: {cohort / first[key]}: patient {first['patient_id']!r}: {key} matrix has no columns"
    assert capsys.readouterr().err.splitlines() == [expected]
    assert not out.exists()


@pytest.mark.parametrize("width", [1, 12], ids=["one_column", "one_column_dropped"])
def test_slide_representations_the_model_cannot_take_are_one_line_naming_the_file(
    cohort_dir, proto_dir, tmp_path, capsys, width
):
    import shutil

    protos = Path(shutil.copytree(proto_dir, tmp_path / "protos"))
    for path in protos.glob("*.slide.ps3e"):
        write_matrix(path, read_matrix(path)[:, :width])  # the fitted ones are 4 x 13, d_h 6
    pid = json.loads((cohort_dir / "manifest.json").read_text())["patients"][0]["patient_id"]
    capsys.readouterr()
    assert _train(cohort_dir, protos, tmp_path / "run") == 1
    message = f"slide representation is {width} wide, not 1 + 2 d_h, d_h >= 1"
    assert capsys.readouterr().err.splitlines() == [f"error: {protos / f'{pid}.slide.ps3e'}: patient {pid!r}: {message}"]
    assert not (tmp_path / "run").exists()
