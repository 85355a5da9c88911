import json
import re

import numpy as np
import pytest

from protosurv.data import (
    SyntheticSpec,
    kfold_split,
    load_manifest,
    load_matrix,
    load_survival,
    parse_gmt,
    read_matrix,
    synth_cohort,
    write_matrix,
)
from protosurv.errors import (
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
from protosurv.survival import SurvivalRecord


# ---------------------------------------------------------------------------
# matrix format
# ---------------------------------------------------------------------------

def test_matrix_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    mat = rng.normal(size=(3, 4)).astype(np.float32).astype(np.float64)
    path = tmp_path / "m.ps3e"
    write_matrix(path, mat)
    np.testing.assert_array_equal(read_matrix(path), mat)


def test_matrix_roundtrip_randomised(tmp_path):
    rng = np.random.default_rng(1)
    for i in range(50):
        rows, cols = int(rng.integers(1, 20)), int(rng.integers(1, 20))
        mat = (rng.normal(scale=rng.uniform(1e-8, 1e8)) * rng.normal(size=(rows, cols))).astype(
            np.float32
        ).astype(np.float64)
        path = tmp_path / f"m{i}.ps3e"
        write_matrix(path, mat)
        np.testing.assert_array_equal(read_matrix(path), mat)
        write_matrix(tmp_path / "again.ps3e", read_matrix(path))
        assert path.read_bytes() == (tmp_path / "again.ps3e").read_bytes()


def test_matrix_truncated_and_bad_magic(tmp_path):
    path = tmp_path / "m.ps3e"
    write_matrix(path, np.ones((2, 2)))
    raw = path.read_bytes()
    (tmp_path / "trunc.ps3e").write_bytes(raw[:-3])
    with pytest.raises(ShapeOverflow):
        read_matrix(tmp_path / "trunc.ps3e")
    (tmp_path / "short.ps3e").write_bytes(raw[:7])
    with pytest.raises(BadMagic):
        read_matrix(tmp_path / "short.ps3e")
    (tmp_path / "bad.ps3e").write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(BadMagic):
        read_matrix(tmp_path / "bad.ps3e")


def test_matrix_rejects_nonfinite(tmp_path):
    with pytest.raises(NonFiniteValue):
        write_matrix(tmp_path / "m.ps3e", np.array([[np.nan, 1.0]]))


def test_matrix_csv_fallback(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4\n")
    np.testing.assert_array_equal(load_matrix(path), [[1.0, 2.0], [3.0, 4.0]])


# ---------------------------------------------------------------------------
# GMT
# ---------------------------------------------------------------------------

def test_parse_gmt_basic(tmp_path):
    path = tmp_path / "sets.gmt"
    path.write_text("HALLMARK_X\tdesc\tG1\tG2\n")
    assert parse_gmt(path) == {"HALLMARK_X": ["G1", "G2"]}


def test_parse_gmt_malformed_line(tmp_path):
    path = tmp_path / "sets.gmt"
    path.write_text("NAME\tdesc\n")
    with pytest.raises(MalformedLine):
        parse_gmt(path)


def test_parse_gmt_deduplicates_genes(tmp_path):
    path = tmp_path / "sets.gmt"
    path.write_text("A\tdesc\tG1\tG2\tG1\n")
    assert parse_gmt(path)["A"] == ["G1", "G2"]


def test_parse_gmt_duplicate_name(tmp_path):
    path = tmp_path / "sets.gmt"
    path.write_text("A\tdesc\tG1\nA\tdesc\tG2\n")
    with pytest.raises(DuplicateSetName):
        parse_gmt(path)


# ---------------------------------------------------------------------------
# survival CSV
# ---------------------------------------------------------------------------

def test_load_survival_ok(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("patient_id,time,event\np1,100,1\np2,30.5,0\n")
    records = load_survival(path)
    assert records[0].patient_id == "p1" and records[0].time == 100.0 and records[0].event == 1
    assert records[1].event == 0


def test_load_survival_negative_time(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("patient_id,time,event\np1,-5,1\n")
    with pytest.raises(NegativeTime):
        load_survival(path)


@pytest.mark.parametrize(
    "time, error",
    [("nan", NonFiniteValue), ("inf", NonFiniteValue), ("-inf", NonFiniteValue), ("soon", MalformedLine)],
)
def test_load_survival_rejects_time_that_is_not_a_finite_number(tmp_path, time, error):
    path = tmp_path / "s.csv"
    path.write_text(f"patient_id,time,event\np1,5,1\np2,{time},1\n")
    with pytest.raises(error, match=rf"^{re.escape(str(path))}: patient 'p2' has time"):
        load_survival(path)


@pytest.mark.parametrize("time", [float("nan"), float("inf"), -1.0])
def test_survival_record_rejects_time_that_is_not_finite_and_nonnegative(time):
    with pytest.raises(ValueError, match="follow-up time for p1 must be finite and nonnegative"):
        SurvivalRecord("p1", time, 1)


def test_load_survival_bad_event(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("patient_id,time,event\np1,5,2\n")
    with pytest.raises(BadEventFlag):
        load_survival(path)


def test_load_survival_duplicate_patient(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("patient_id,time,event\np1,5,1\np1,6,0\n")
    with pytest.raises(DuplicatePatient):
        load_survival(path)


def test_load_survival_header_enforced(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("id,time,event\np1,5,1\n")
    with pytest.raises(MalformedLine):
        load_survival(path)


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def test_load_manifest_missing_file_names_patient(tmp_path):
    (tmp_path / "survival.csv").write_text("patient_id,time,event\np1,5,1\n")
    (tmp_path / "manifest.json").write_text(
        '{"modalities": "h", "survival": "survival.csv",'
        ' "patients": [{"patient_id": "p1", "slide": "missing.ps3e"}]}'
    )
    with pytest.raises(FileNotFoundError, match="p1"):
        load_manifest(tmp_path / "manifest.json")


def test_load_manifest_duplicate_patient(tmp_path):
    (tmp_path / "survival.csv").write_text("patient_id,time,event\np1,5,1\n")
    (tmp_path / "manifest.json").write_text(
        '{"modalities": "p", "gene_order": "survival.csv", "gene_sets": "survival.csv",'
        ' "survival": "survival.csv", "patients": ['
        '{"patient_id": "p1", "expression": "survival.csv"},'
        '{"patient_id": "p1", "expression": "survival.csv"}]}'
    )
    with pytest.raises(DuplicatePatient):
        load_manifest(tmp_path / "manifest.json")


def _bad_manifest(tmp_path, case):
    """A manifest with one required piece missing or malformed, with every
    file it names on disk."""
    (tmp_path / "survival.csv").write_text("patient_id,time,event\np1,5,1\np2,3,0\n")
    for name in ("r1.ps3e", "s1.ps3e", "s2.ps3e"):
        write_matrix(tmp_path / name, np.ones((2, 3)))
    docs = {
        "object": ["modalities", "survival", "patients"],
        "survival": {"modalities": "pht", "patients": []},
        "gene_sets": {"modalities": "p", "gene_order": "survival.csv", "survival": "survival.csv", "patients": []},
        "modalities": {"modalities": "htx", "survival": "survival.csv", "patients": []},
        "patient_id": {"modalities": "h", "survival": "survival.csv", "patients": [{"slide": "s1.ps3e"}]},
        # p1 names only a fitted representation, so p1 needs the patches too
        "slide": {
            "modalities": "h",
            "survival": "survival.csv",
            "patients": [
                {"patient_id": "p1", "slide_representation": "r1.ps3e"},
                {"patient_id": "p2", "slide": "s2.ps3e"},
            ],
        },
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(docs[case]))
    return path


@pytest.mark.parametrize(
    "case, message",
    [
        ("object", "expected a JSON object, got a list"),
        ("survival", "no 'survival' key"),
        ("gene_sets", "no 'gene_sets' key"),
        ("modalities", "unknown modality letters ['x'] in 'modalities'"),
        ("patient_id", "patient entry 0 has no 'patient_id'"),
        ("slide", "patient 'p1' lacks 'slide'"),
    ],
)
def test_bad_manifest_is_one_line_naming_the_file_and_the_key(tmp_path, case, message):
    path = _bad_manifest(tmp_path, case)
    with pytest.raises(MalformedLine) as caught:
        load_manifest(path)
    assert str(caught.value) == f"{path}: {message}"


def test_load_manifest_takes_representations_when_every_patient_names_one(tmp_path):
    path = _bad_manifest(tmp_path, "slide")
    doc = json.loads(path.read_text())
    doc["patients"][1]["slide_representation"] = "r1.ps3e"
    path.write_text(json.dumps(doc))
    assert len(load_manifest(path).patients) == 2


# ---------------------------------------------------------------------------
# synthetic cohorts
# ---------------------------------------------------------------------------

def _spec(**kw):
    base = dict(
        n_patients=60, n_segments=(2, 5), n_patches=(20, 40), d_t=6, d_h=5,
        n_genes=40, n_pathways=8, signal_modality="pathway", signal_strength=2.0,
        censoring_rate=0.25, seed=9,
    )
    base.update(kw)
    return SyntheticSpec(**base)


def test_synth_deterministic():
    a, b = synth_cohort(_spec()), synth_cohort(_spec())
    assert a.patient_ids == b.patient_ids
    np.testing.assert_array_equal(a.signal_feature, b.signal_feature)
    for ra, rb in zip(a.records, b.records):
        assert (ra.time, ra.event) == (rb.time, rb.event)
    np.testing.assert_array_equal(a.reports[3].segments, b.reports[3].segments)
    np.testing.assert_array_equal(a.patches[3].patches, b.patches[3].patches)
    np.testing.assert_array_equal(a.expressions[3], b.expressions[3])


def test_synth_no_signal_means_constant_latent_risk():
    cohort = synth_cohort(_spec(signal_strength=0.0))
    assert np.all(cohort.latent_risk == 0.0)


def test_synth_censoring_fraction_within_three_se():
    rate = 0.25
    cohort = synth_cohort(_spec(n_patients=400, censoring_rate=rate))
    censored = np.mean([1 - r.event for r in cohort.records])
    se = np.sqrt(rate * (1 - rate) / 400)
    assert abs(censored - rate) <= 3 * se


def test_synth_all_modalities_have_expected_shapes():
    cohort = synth_cohort(_spec())
    assert len(cohort.reports) == 60
    assert cohort.reports[0].segments.shape[1] == 6
    assert cohort.patches[0].patches.shape[1] == 5
    assert cohort.expressions[0].shape == (40,)
    assert len(cohort.gene_sets) == 8


def _fit_cox_1d(x, times, events, iters=30):
    """Newton fit of a one-covariate Cox model (no ties in synthetic times)."""
    order = np.argsort(-times)
    x_s, e_s = x[order], events[order]
    beta = 0.0
    for _ in range(iters):
        w = np.exp(beta * x_s)
        cw, cwx, cwxx = np.cumsum(w), np.cumsum(w * x_s), np.cumsum(w * x_s * x_s)
        idx = np.flatnonzero(e_s == 1)
        u = np.sum(x_s[idx] - cwx[idx] / cw[idx])
        h = -np.sum(cwxx[idx] / cw[idx] - (cwx[idx] / cw[idx]) ** 2)
        if abs(h) < 1e-12:
            break
        step = u / (-h)
        beta += step
        if abs(step) < 1e-10:
            break
    return beta


def test_synth_generator_signal_recoverable_by_cox_oracle():
    cohort = synth_cohort(_spec(n_patients=300, seed=4))
    times = np.array([r.time for r in cohort.records])
    events = np.array([r.event for r in cohort.records])
    x = cohort.signal_feature
    train, held = slice(0, 150), slice(150, 300)
    beta = _fit_cox_1d(x[train], times[train], events[train])
    from protosurv.evaluation import concordance_index

    held_records = [
        SurvivalRecord(p, t, e)
        for p, t, e in zip(cohort.patient_ids[held], times[held], events[held].astype(int))
    ]
    c = concordance_index(beta * x[held], held_records)
    assert c >= 0.75


# ---------------------------------------------------------------------------
# folds
# ---------------------------------------------------------------------------

def test_kfold_even_split():
    folds = kfold_split([f"p{i}" for i in range(10)], 5, seed=0)
    assert [len(f) for f in folds] == [2, 2, 2, 2, 2]


def test_kfold_uneven_split():
    folds = kfold_split([f"p{i}" for i in range(11)], 5, seed=0)
    assert sorted(len(f) for f in folds) == [2, 2, 2, 2, 3]


def test_kfold_deterministic_disjoint_exhaustive():
    ids = [f"p{i}" for i in range(23)]
    a = kfold_split(ids, 4, seed=7)
    b = kfold_split(ids, 4, seed=7)
    assert a == b
    flat = [p for fold in a for p in fold]
    assert sorted(flat) == sorted(ids) and len(set(flat)) == len(ids)


def test_kfold_too_few_patients():
    with pytest.raises(TooFewPatients):
        kfold_split(["p1", "p2"], 3, seed=0)
