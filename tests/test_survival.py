import math

import numpy as np
import pytest

from protosurv import numerics as nm
from protosurv import survival
from protosurv.data import SyntheticSpec, synth_cohort
from protosurv.errors import NoEvents, NonFiniteLoss, NonFiniteValue
from protosurv.model import (
    ModelDims,
    _pooled_risk,
    flatten_params,
    forward_risks,
    init_params,
    param_spec,
    unflatten_tensors,
)
from protosurv.pipeline import build_prepared
from protosurv.rng import substream
from protosurv.survival import (
    SurvivalRecord,
    TrainConfig,
    cosine_lr,
    cox_loss,
    load_checkpoint,
    predict_cohort,
    save_checkpoint,
    train,
)


def _rec(times, events):
    return [SurvivalRecord(f"p{i}", t, e) for i, (t, e) in enumerate(zip(times, events))]


# ---------------------------------------------------------------------------
# cox_loss
# ---------------------------------------------------------------------------

def test_cox_loss_single_event_is_zero():
    loss, degenerate = cox_loss(np.array([0.7]), _rec([5.0], [1]))
    assert loss == 0.0 and not degenerate


def test_cox_loss_two_patient_breslow_value():
    loss, _ = cox_loss(np.array([0.0, 0.0]), _rec([1.0, 2.0], [1, 1]))
    assert abs(loss - math.log(2.0) / 2.0) < 1e-12


def test_cox_loss_all_censored_degenerate():
    loss, degenerate = cox_loss(np.array([1.0, -1.0]), _rec([1.0, 2.0], [0, 0]))
    assert loss == 0.0 and degenerate


def test_cox_loss_shift_invariance():
    rng = np.random.default_rng(0)
    risks = rng.normal(size=10)
    times = rng.uniform(1, 100, size=10)
    events = rng.integers(0, 2, size=10)
    events[0] = 1
    records = _rec(times, events)
    base, _ = cox_loss(risks, records)
    shifted, _ = cox_loss(risks + 123.456, records)
    assert abs(base - shifted) < 1e-9


def test_cox_loss_breslow_tied_events_vs_hand_formula():
    # times [2, 2, 5], all events: both t=2 events share the full risk set
    eta = np.array([0.3, -0.1, 0.4])
    loss, _ = cox_loss(eta, _rec([2.0, 2.0, 5.0], [1, 1, 1]))
    full = np.log(np.exp(eta).sum())
    expect = -(eta[0] - full + eta[1] - full + eta[2] - eta[2]) / 3.0
    assert abs(loss - expect) < 1e-12


def test_cox_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    for trial in range(5):
        n = int(rng.integers(2, 17))
        times = rng.uniform(1, 50, size=n)
        events = rng.integers(0, 2, size=n)
        events[int(rng.integers(n))] = 1
        records = _rec(times, events)

        def loss_fn(leaf):
            value, _ = cox_loss(leaf, records)
            return value

        report = nm.grad_check(loss_fn, rng.normal(size=n), eps=1e-6)
        assert report.max_relative_error < 1e-6


def test_cox_loss_ranking_monotonicity():
    records = _rec([1.0, 2.0], [1, 1])
    losses = [cox_loss(np.array([eta1, 0.0]), records)[0] for eta1 in (1.0, 0.0, -1.0)]
    assert losses[0] < losses[1] < losses[2]


# ---------------------------------------------------------------------------
# risk head
# ---------------------------------------------------------------------------

def _head_fixture(rng, d_e, d_r, modalities="p"):
    """Dims whose head reads ``d_e + d_r``-wide tokens, and named head values
    with every f_beta weight and bias drawn from N(0, 1); the risk layer is left
    to the test."""
    dims = ModelDims(
        d_t=1, d_h=1, max_segments=1, n_text=1, n_histology=1, pathway_widths=(1,),
        d_e=d_e, d_r=d_r, modalities=modalities,
    )
    values = {}
    for m in dims.enabled:
        values[f"head.beta.{m}.w0"] = rng.normal(size=(dims.d, d_e))
        values[f"head.beta.{m}.b0"] = rng.normal(size=d_e)
        values[f"head.beta.{m}.w1"] = rng.normal(size=(d_e, d_e))
        values[f"head.beta.{m}.b1"] = rng.normal(size=d_e)
        values[f"head.ln.{m}.gain"] = np.ones(d_e)
        values[f"head.ln.{m}.bias"] = np.zeros(d_e)
    return dims, values


def _head_risk_of_one(blocks, validity, values, dims):
    """``_pooled_risk`` on a batch of one patient, as a float."""
    batch = {name: np.asarray(block)[None] for name, block in blocks.items()}
    valid = {name: np.asarray(mask)[None] for name, mask in validity.items()}
    risk = _pooled_risk(batch, valid, values, dims)
    assert risk.shape == (1, 1)
    return float(risk.data[0, 0])


def test_risk_head_zero_final_layer():
    rng = np.random.default_rng(2)
    dims, values = _head_fixture(rng, 3, 1, modalities="pht")
    values["head.risk.w"], values["head.risk.b"] = np.zeros((9, 1)), np.zeros(1)
    blocks = {"pathway": rng.normal(size=(2, 4)), "histology": rng.normal(size=(2, 4)), "text": rng.normal(size=(1, 4))}
    validity = {"pathway": np.ones(2), "histology": np.ones(2), "text": np.ones(1)}
    assert _head_risk_of_one(blocks, validity, values, dims) == 0.0


def test_risk_head_duplicate_token_mean_pooling():
    rng = np.random.default_rng(3)
    dims, values = _head_fixture(rng, 3, 1)
    values["head.risk.w"], values["head.risk.b"] = rng.normal(size=(3, 1)), rng.normal(size=1)
    row = rng.normal(size=(1, 4))
    r1 = _head_risk_of_one({"pathway": row}, {"pathway": np.ones(1)}, values, dims)
    r2 = _head_risk_of_one({"pathway": np.vstack([row, row])}, {"pathway": np.ones(2)}, values, dims)
    assert abs(r1 - r2) < 1e-12


def test_risk_head_matches_scalar_pipeline_oracle():
    rng = np.random.default_rng(4)
    d, d_e = 3, 2
    dims, values = _head_fixture(rng, d_e, d - d_e)
    from protosurv.numerics import SELU_ALPHA, SELU_SCALE

    w_r, b_r = rng.normal(size=(d_e, 1)), rng.normal(size=1)
    values["head.risk.w"], values["head.risk.b"] = w_r, b_r
    tokens = rng.normal(size=(2, d))

    def selu(v):
        return SELU_SCALE * v if v > 0 else SELU_SCALE * SELU_ALPHA * (math.exp(v) - 1)

    pooled = np.zeros(d_e)
    for row in tokens:
        h = row.tolist()
        for layer in ("0", "1"):
            w, b = values[f"head.beta.pathway.w{layer}"], values[f"head.beta.pathway.b{layer}"]
            h = [selu(sum(h[i] * w[i, j] for i in range(len(h))) + b[j]) for j in range(w.shape[1])]
        mu = sum(h) / d_e
        var = sum((v - mu) ** 2 for v in h) / d_e
        h = [(v - mu) / math.sqrt(var + 1e-5) for v in h]
        pooled += np.asarray(h) / 2.0
    expect = float(pooled @ w_r[:, 0] + b_r[0])
    got = _head_risk_of_one({"pathway": tokens}, {"pathway": np.ones(2)}, values, dims)
    assert abs(got - expect) < 1e-10


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def _small_cohort(seed=0, n=24):
    spec = SyntheticSpec(
        n_patients=n, n_segments=(2, 4), n_patches=(20, 30), d_t=6, d_h=5,
        n_genes=24, n_pathways=6, signal_modality="pathway", signal_strength=2.0,
        censoring_rate=0.2, seed=seed,
    )
    return synth_cohort(spec)


def _small_config(**kw):
    base = dict(epochs=2, batch_size=8, seed=5, d_e=6, d_r=2, n_histology=3, n_pathways=6)
    base.update(kw)
    return TrainConfig(**base)


def test_train_zero_epochs_returns_initialisation():
    cohort = _small_cohort()
    config = _small_config(epochs=0)
    prepared, dims, _ = build_prepared(cohort, config)
    model, history = train(prepared, config)
    assert history == []
    expected = init_params(dims, substream(config.seed, "init"))
    for name, _ in param_spec(dims):
        np.testing.assert_array_equal(model.values[name], expected[name])


def _adamw_per_tensor(prepared, config):
    """Reference loop: AdamW on one array per named parameter, new arrays each step."""
    dims = prepared.dims
    values = init_params(dims, substream(config.seed, "init"))
    m1 = {k: np.zeros_like(v) for k, v in values.items()}
    m2 = {k: np.zeros_like(v) for k, v in values.items()}
    step = 0
    for epoch in range(config.epochs):
        lr = cosine_lr(config.learning_rate, epoch, config.epochs)
        order = substream(config.seed, "shuffle", epoch).permutation(len(prepared))
        for start in range(0, len(prepared), config.batch_size):
            batch = prepared.subset(order[start : start + config.batch_size])
            leaves = {k: nm.Tensor(v, requires_grad=True) for k, v in values.items()}
            loss, degenerate = cox_loss(forward_risks(batch, leaves, dims), (batch.times, batch.events))
            if degenerate:
                continue
            loss.backward()
            step += 1
            for k, leaf in leaves.items():
                m1[k] = 0.9 * m1[k] + (1.0 - 0.9) * leaf.grad
                m2[k] = 0.999 * m2[k] + (1.0 - 0.999) * leaf.grad * leaf.grad
                m_hat, v_hat = m1[k] / (1.0 - 0.9**step), m2[k] / (1.0 - 0.999**step)
                values[k] = values[k] - lr * (m_hat / (np.sqrt(v_hat) + 1e-8) + config.weight_decay * values[k])
    return values


def test_flat_adamw_matches_per_tensor_update_bit_for_bit():
    cohort = _small_cohort()
    config = _small_config(epochs=3, learning_rate=1e-2, weight_decay=1e-2, batch_size=8)
    prepared, _, _ = build_prepared(cohort, config)
    model, _ = train(prepared, config)
    expected = _adamw_per_tensor(prepared, config)
    for name, value in model.values.items():
        assert np.array_equal(value, expected[name]), name
        assert value.base is None  # a copy, not a view of the optimiser's buffer


@pytest.mark.parametrize(
    "mode, shared_beta",
    [("full", False), ("late", False), ("hierarchical", False), ("full", True)],
)
def test_per_leaf_gradients_equal_flat_leaf_gradient(mode, shared_beta):
    cohort = _small_cohort()
    config = _small_config(fusion_mode=mode, shared_beta_mlp=shared_beta)
    prepared, dims, _ = build_prepared(cohort, config)
    batch = prepared.subset(np.arange(config.batch_size))
    values = init_params(dims, substream(config.seed, "init"))
    spec = param_spec(dims)

    def loss_grad(pt):
        loss, degenerate = cox_loss(forward_risks(batch, pt, dims, mode), (batch.times, batch.events))
        assert not degenerate
        loss.backward()

    leaves = {name: nm.Tensor(v, requires_grad=True) for name, v in values.items()}
    loss_grad(leaves)
    flat = nm.Tensor(flatten_params(values, spec), requires_grad=True)
    loss_grad(unflatten_tensors(flat, spec))
    for name, grad in unflatten_tensors(flat.grad, spec).items():
        assert np.array_equal(leaves[name].grad, grad.data), name


def test_train_deterministic():
    cohort = _small_cohort()
    config = _small_config()
    prepared, _, _ = build_prepared(cohort, config)
    model_a, hist_a = train(prepared, config)
    model_b, hist_b = train(prepared, config)
    flat_a, flat_b = (flatten_params(m.values, m.spec) for m in (model_a, model_b))
    assert np.max(np.abs(flat_a - flat_b)) < 1e-12
    assert [h.mean_loss for h in hist_a] == [h.mean_loss for h in hist_b]


def test_train_requires_events():
    cohort = _small_cohort()
    for r in cohort.records:
        r.event = 0
    config = _small_config()
    prepared, _, _ = build_prepared(cohort, config)
    with pytest.raises(NoEvents):
        train(prepared, config)


def test_train_loss_decreases_on_signal_cohort():
    cohort = _small_cohort(n=40)
    config = _small_config(epochs=8, learning_rate=5e-3)
    prepared, _, _ = build_prepared(cohort, config)
    _, history = train(prepared, config)
    assert history[-1].mean_loss < history[0].mean_loss


def test_mean_loss_averages_only_batches_with_events(monkeypatch):
    cohort = _small_cohort()
    for record in cohort.records[::2]:
        record.event = 0  # censor half the cohort so that some batches of 3 hold no event
    config = _small_config(epochs=1, batch_size=3)
    prepared, _, _ = build_prepared(cohort, config)
    losses = []

    def recording_cox_loss(risks, records):
        loss, degenerate = cox_loss(risks, records)
        losses.append(None if degenerate else float(loss.data))
        return loss, degenerate

    monkeypatch.setattr(survival, "cox_loss", recording_cox_loss)
    _, history = train(prepared, config)
    assert None in losses
    assert history[0].mean_loss == np.mean([v for v in losses if v is not None])


def test_train_divergence_raises_with_epoch_and_batch():
    cohort = _small_cohort(n=40)
    config = _small_config(epochs=3, batch_size=16, learning_rate=1e12)
    prepared, _, _ = build_prepared(cohort, config)
    with pytest.raises(NonFiniteLoss, match=r"^epoch 2, batch 1: non-finite loss or gradient"):
        train(prepared, config)


def test_predict_matches_training_forward_and_is_pure():
    cohort = _small_cohort()
    config = _small_config()
    prepared, _, _ = build_prepared(cohort, config)
    model, _ = train(prepared, config)
    flat_before = flatten_params(model.values, model.spec)
    risks_a = predict_cohort(model, prepared, config.fusion_mode)
    risks_b = predict_cohort(model, prepared, config.fusion_mode)
    np.testing.assert_array_equal(risks_a, risks_b)
    np.testing.assert_array_equal(flatten_params(model.values, model.spec), flat_before)
    single = predict_cohort(model, prepared.subset([3]), config.fusion_mode)
    assert single.shape == (1,)
    assert abs(single[0] - risks_a[3]) < 1e-12


def test_cosine_schedule_endpoints():
    assert cosine_lr(1e-4, 0, 50) == 1e-4
    assert cosine_lr(1e-4, 49, 50) <= 0.01 * 1e-4


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip_bit_exact(tmp_path):
    cohort = _small_cohort()
    config = _small_config(epochs=1)
    prepared, dims, _ = build_prepared(cohort, config)
    model, _ = train(prepared, config)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, config, "digest0")
    loaded, loaded_config, digest = load_checkpoint(path)
    assert digest == "digest0"
    assert loaded_config == config
    assert loaded.dims == dims
    path2 = tmp_path / "model2.ckpt"
    save_checkpoint(path2, loaded, loaded_config, digest)
    assert path.read_bytes() == path2.read_bytes()
    for name, _ in param_spec(dims):
        np.testing.assert_array_equal(
            loaded.values[name], model.values[name].astype(np.float32).astype(np.float64)
        )


def test_checkpoint_refuses_values_not_finite_as_float32(tmp_path):
    cohort = _small_cohort()
    config = _small_config(epochs=0)
    prepared, _, _ = build_prepared(cohort, config)
    model, _ = train(prepared, config)
    model.values["fusion.w_q"][0, 0] = 1e39  # finite in float64, overflows float32
    with pytest.raises(NonFiniteValue, match="fusion.w_q"):
        save_checkpoint(tmp_path / "m.ckpt", model, config, "")
    assert not (tmp_path / "m.ckpt").exists()


def test_checkpoint_prediction_consistency(tmp_path):
    cohort = _small_cohort()
    config = _small_config(epochs=1)
    prepared, _, _ = build_prepared(cohort, config)
    model, _ = train(prepared, config)
    save_checkpoint(tmp_path / "m.ckpt", model, config, "")
    loaded, _, _ = load_checkpoint(tmp_path / "m.ckpt")
    a = predict_cohort(model, prepared, config.fusion_mode)
    b = predict_cohort(loaded, prepared, config.fusion_mode)
    # float32 storage rounds parameters; predictions stay close
    assert np.max(np.abs(a - b)) < 1e-4
