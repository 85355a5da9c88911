import numpy as np
import pytest

from protosurv.data import Cohort, SyntheticSpec, synth_cohort
from protosurv.errors import BadInput
from protosurv.model import (
    ModelDims,
    canonical_modalities,
    flatten_params,
    forward_diagnostics,
    init_params,
    param_spec,
    unflatten_tensors,
)
from protosurv.pipeline import build_prepared, cross_validate
from protosurv.rng import substream
from protosurv.survival import TrainConfig, predict_cohort, train


def test_canonical_modalities():
    assert canonical_modalities("tph") == "pht"
    assert canonical_modalities("t") == "t"
    with pytest.raises(BadInput, match=r"unknown modality letters \['x'\]"):
        canonical_modalities("px")
    with pytest.raises(BadInput, match="modality subset is empty"):
        canonical_modalities("")


def _dims(modalities="pht", shared=False):
    return ModelDims(
        d_t=5, d_h=4, max_segments=6, n_text=2, n_histology=3,
        pathway_widths=(3, 2), d_e=4, d_r=2, modalities=modalities, shared_beta=shared,
    )


def test_param_spec_respects_modalities():
    names = [n for n, _ in param_spec(_dims("ph"))]
    assert not any(n.startswith("text.") for n in names)
    assert "head.beta.pathway.w0" in names and "head.beta.histology.w0" in names
    assert not any(".text." in n for n in names)
    risk_shape = dict(param_spec(_dims("ph")))["head.risk.w"]
    assert risk_shape == (2 * 4, 1)


def test_param_spec_shared_beta():
    names = [n for n, _ in param_spec(_dims(shared=True))]
    assert "head.beta.shared.w0" in names
    assert not any(n.startswith("head.beta.pathway") for n in names)


def test_init_params_scales_and_determinism():
    dims = _dims()
    a = init_params(dims, substream(3, "init"))
    b = init_params(dims, substream(3, "init"))
    for name, shape in param_spec(dims):
        np.testing.assert_array_equal(a[name], b[name])
        assert a[name].shape == shape
    assert np.all(a["head.beta.pathway.b0"] == 0)
    assert np.all(a["head.ln.text.gain"] == 1)
    bound = 1 / np.sqrt(dims.d_t)
    assert np.max(np.abs(a["text.w_q"])) <= bound
    assert a["fusion.e_r"].std() < 0.1


def test_flatten_unflatten_roundtrip():
    dims = _dims()
    spec = param_spec(dims)
    values = init_params(dims, substream(0, "init"))
    flat = flatten_params(values, spec)
    back = unflatten_tensors(flat, spec)
    for name, _ in spec:
        np.testing.assert_array_equal(values[name], back[name].data)


def _cohort(n=20, seed=0):
    return synth_cohort(
        SyntheticSpec(
            n_patients=n, n_segments=(2, 4), n_patches=(15, 25), d_t=5, d_h=4,
            n_genes=20, n_pathways=5, signal_modality="pathway", signal_strength=2.0,
            censoring_rate=0.2, seed=seed,
        )
    )


@pytest.mark.parametrize("modalities", ["pht", "ph", "pt", "ht", "p", "h", "t"])
def test_every_modality_subset_trains_and_predicts(modalities):
    cohort = _cohort()
    config = TrainConfig(
        epochs=1, batch_size=10, seed=2, d_e=4, d_r=2,
        n_histology=3, n_pathways=5, modalities=modalities,
    )
    prepared, dims, _ = build_prepared(cohort, config)
    model, _ = train(prepared, config)
    risks = predict_cohort(model, prepared, config.fusion_mode)
    assert risks.shape == (20,) and np.all(np.isfinite(risks))


@pytest.mark.parametrize("modalities", ["p", "h", "t"])
def test_a_cohort_without_patients_is_refused_for_each_modality(modalities):
    cohort = _cohort(n=4)
    empty = Cohort([], [], [], [], cohort.expressions[:0], cohort.gene_order, cohort.gene_sets)
    with pytest.raises(BadInput, match="cohort has no patients"):
        build_prepared(empty, TrainConfig(n_histology=3, n_pathways=5, modalities=modalities))


@pytest.mark.parametrize("mode", ["full", "late", "hierarchical"])
def test_every_fusion_mode_trains(mode):
    cohort = _cohort()
    config = TrainConfig(
        epochs=1, batch_size=10, seed=2, d_e=4, d_r=2,
        n_histology=3, n_pathways=5, fusion_mode=mode,
    )
    prepared, _, _ = build_prepared(cohort, config)
    model, _ = train(prepared, config)
    assert np.all(np.isfinite(predict_cohort(model, prepared, mode)))


def test_shared_beta_flag_trains():
    cohort = _cohort()
    config = TrainConfig(
        epochs=1, batch_size=10, seed=2, d_e=4, d_r=2,
        n_histology=3, n_pathways=5, shared_beta_mlp=True,
    )
    prepared, dims, _ = build_prepared(cohort, config)
    assert dims.shared_beta
    model, _ = train(prepared, config)
    assert np.all(np.isfinite(predict_cohort(model, prepared)))


def test_zero_appendix_width_trains():
    cohort = _cohort()
    config = TrainConfig(epochs=1, batch_size=10, seed=2, d_e=4, d_r=0, n_histology=3, n_pathways=5)
    prepared, dims, _ = build_prepared(cohort, config)
    assert not any(n == "fusion.e_r" for n, _ in param_spec(dims))
    model, _ = train(prepared, config)
    assert np.all(np.isfinite(predict_cohort(model, prepared)))


def test_forward_diagnostics_attention_shape():
    cohort = _cohort(n=6)
    config = TrainConfig(epochs=0, batch_size=6, seed=2, d_e=4, d_r=2, n_histology=3, n_pathways=5)
    prepared, dims, _ = build_prepared(cohort, config)
    model, _ = train(prepared, config)
    risks, fused, validity = forward_diagnostics(prepared, model.values, dims, "full")
    total = 5 + 3 + dims.n_text
    assert fused.attention.shape == (6, total, total)
    assert fused.block_sizes == {"pathway": 5, "histology": 3, "text": dims.n_text}
    valid = validity["text"]
    # invalid text keys carry exactly zero attention in every patient
    for b in range(6):
        cols = np.flatnonzero(valid[b] == 0) + 8
        assert np.all(fused.attention[b][:, cols] == 0.0)


def test_cross_validate_shapes():
    cohort = _cohort(n=18)
    config = TrainConfig(epochs=1, batch_size=9, seed=3, d_e=4, d_r=2, n_histology=3, n_pathways=5)
    prepared, _, _ = build_prepared(cohort, config)
    result = cross_validate(prepared, config, n_folds=3)
    assert len(result.folds) == 3
    ids = [pid for f in result.folds for pid in f.held_out_ids]
    assert sorted(ids) == sorted(cohort.patient_ids)
    assert sum(len(f.risks) for f in result.folds) == 18
