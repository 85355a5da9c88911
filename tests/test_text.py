import math

import numpy as np
import pytest

from protosurv import numerics as nm
from protosurv.errors import BadInput
from protosurv.text import (
    DiagnosticPrototypes,
    PaddedBatch,
    ReportFeatures,
    TextAttentionParams,
    compute_n_t,
    importance_scores,
    pad_batch,
    segment_report,
    select_prototypes,
    text_self_attention,
    top_segment_indices,
)


def test_segment_report_blank_line_split():
    assert segment_report("A\n\nB") == ["A", "B"]


def test_segment_report_single_newline_keeps_segment():
    assert segment_report("A\nB") == ["A\nB"]


def test_segment_report_trims_and_drops_empties():
    assert segment_report("  \n\n X \n\n\n Y ") == ["X", "Y"]


def test_segment_report_empty_raises():
    with pytest.raises(BadInput, match="report contains no nonempty segment"):
        segment_report("   \n\n   ")


def test_pad_batch_short_report():
    batch = pad_batch([ReportFeatures("p", np.ones((2, 3)))], m=4)
    np.testing.assert_array_equal(batch.mask, [[1, 1, 0, 0]])
    assert np.all(batch.data[0, 2:] == 0)


def test_pad_batch_exact_length_is_noop():
    seg = np.arange(12.0).reshape(4, 3)
    batch = pad_batch([ReportFeatures("p", seg)], m=4)
    np.testing.assert_array_equal(batch.data[0], seg)
    assert batch.mask.sum() == 4


def test_pad_batch_truncates_long_report():
    seg = np.arange(21.0).reshape(7, 3)
    batch = pad_batch([ReportFeatures("p", seg)], m=4)
    np.testing.assert_array_equal(batch.data[0], seg[:4])
    assert batch.mask.sum() == 4


def _loop_attention(h, mask, w_q, w_k, w_v):
    """Independent scalar-loop oracle for masked self-attention."""
    m, d = h.shape

    def mm(a, b):
        out = [[0.0] * len(b[0]) for _ in range(len(a))]
        for i in range(len(a)):
            for j in range(len(b[0])):
                out[i][j] = sum(a[i][k] * b[k][j] for k in range(len(b)))
        return out

    q, k, v = mm(h.tolist(), w_q.tolist()), mm(h.tolist(), w_k.tolist()), mm(h.tolist(), w_v.tolist())
    att = [[0.0] * m for _ in range(m)]
    for i in range(m):
        logits = [
            sum(q[i][a] * k[j][a] for a in range(d)) / math.sqrt(d) if mask[j] else None
            for j in range(m)
        ]
        finite = [x for x in logits if x is not None]
        top = max(finite)
        weights = [math.exp(x - top) if x is not None else 0.0 for x in logits]
        total = sum(weights)
        att[i] = [w / total for w in weights]
    z = mm(att, v)
    for i in range(m):
        if not mask[i]:
            z[i] = [0.0] * d
    return np.array(z), np.array(att)


def test_attention_single_segment():
    h = np.array([[1.0, 2.0]])
    params = TextAttentionParams(np.eye(2), np.eye(2), np.array([[2.0, 0.0], [0.0, 2.0]]))
    z, a = text_self_attention(PaddedBatch(h[None], np.ones((1, 1)), 1), params)
    np.testing.assert_allclose(a[0], [[1.0]])
    np.testing.assert_allclose(z[0], [[2.0, 4.0]])


def test_attention_zero_logits_average_values():
    h = np.array([[1.0, 0.0], [0.0, 3.0]])
    params = TextAttentionParams(np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2))
    z, a = text_self_attention(PaddedBatch(h[None], np.ones((1, 2)), 2), params)
    np.testing.assert_allclose(a[0], [[0.5, 0.5], [0.5, 0.5]])
    np.testing.assert_allclose(z[0], [[0.5, 1.5], [0.5, 1.5]])


def test_attention_matches_loop_oracle_with_padding():
    rng = np.random.default_rng(21)
    d = 5
    h = np.zeros((4, d))
    h[:3] = rng.normal(size=(3, d))
    mask = np.array([1.0, 1.0, 1.0, 0.0])
    params = TextAttentionParams(*rng.normal(size=(3, d, d)))
    z, a = text_self_attention(PaddedBatch(h[None], mask[None], 4), params)
    z_ref, a_ref = _loop_attention(h, mask, params.w_q, params.w_k, params.w_v)
    assert np.max(np.abs(z[0] - z_ref)) < 1e-10
    assert np.max(np.abs(a[0] - a_ref)) < 1e-10


def test_attention_rows_stochastic_padded_keys_zero():
    rng = np.random.default_rng(22)
    for _ in range(50):
        m = int(rng.integers(2, 7))
        n_valid = int(rng.integers(1, m + 1))
        mask = np.zeros(m)
        mask[:n_valid] = 1
        h = np.where(mask[:, None] > 0, rng.normal(size=(m, 4)), 0.0)
        params = TextAttentionParams(*rng.normal(size=(3, 4, 4)))
        _, a = text_self_attention(PaddedBatch(h[None], mask[None], m), params)
        np.testing.assert_allclose(a[0].sum(axis=1), np.ones(m), atol=1e-9)
        assert np.all(a[0][:, mask == 0] == 0.0)


def test_importance_scores_uniform():
    a = np.full((3, 3), 1.0 / 3.0)
    np.testing.assert_allclose(importance_scores(a, np.ones(3)), [1 / 3, 1 / 3, 1 / 3])


def test_importance_scores_point_mass():
    a = np.zeros((3, 3))
    a[:, 0] = 1.0
    np.testing.assert_allclose(importance_scores(a, np.ones(3)), [1.0, 0.0, 0.0])


def test_importance_scores_hand_average_with_mask():
    a = np.array([[0.5, 0.5, 0.0], [0.25, 0.75, 0.0], [9.0, 9.0, 9.0]])
    mask = np.array([1.0, 1.0, 0.0])
    np.testing.assert_allclose(importance_scores(a, mask), [0.375, 0.625, 0.0])


def test_importance_scores_sum_to_one_over_valid_keys():
    rng = np.random.default_rng(23)
    for _ in range(50):
        m = int(rng.integers(2, 8))
        n_valid = int(rng.integers(1, m + 1))
        mask = np.zeros(m)
        mask[:n_valid] = 1
        h = np.where(mask[:, None] > 0, rng.normal(size=(m, 3)), 0.0)
        params = TextAttentionParams(*rng.normal(size=(3, 3, 3)))
        _, a = text_self_attention(PaddedBatch(h[None], mask[None], m), params)
        s = importance_scores(a[0], mask)
        assert abs(s.sum() - 1.0) < 1e-9
        assert np.all(s[mask == 0] == 0.0)


def _select_one(z, scores, mask, n_t):
    """``select_prototypes`` on one report as a batch of one."""
    return select_prototypes(z[None], scores[None], mask[None], n_t)


def test_select_prototypes_top_two():
    z = np.arange(12.0).reshape(3, 4)
    protos = _select_one(z, np.array([0.1, 0.5, 0.4]), np.ones(3), 2)
    np.testing.assert_array_equal(protos.source_indices, [[1, 2]])
    np.testing.assert_array_equal(protos.embeddings[0], z[[1, 2]])


def test_select_prototypes_stable_tie_break():
    z = np.arange(6.0).reshape(3, 2)
    protos = _select_one(z, np.array([0.5, 0.5, 0.0]), np.ones(3), 1)
    np.testing.assert_array_equal(protos.source_indices, [[0]])


def test_select_prototypes_zero_fills_short_reports():
    z = np.arange(8.0).reshape(2, 4)
    protos = _select_one(z, np.array([0.6, 0.4]), np.ones(2), 4)
    np.testing.assert_array_equal(protos.validity, [[1, 1, 0, 0]])
    assert np.all(protos.embeddings[0, 2:] == 0)


def test_select_prototypes_permutation_equivariant():
    rng = np.random.default_rng(24)
    z = rng.normal(size=(5, 3))
    scores = rng.uniform(0.1, 1.0, size=5)
    mask = np.ones(5)
    base = _select_one(z, scores, mask, 3)
    perm = rng.permutation(5)
    permuted = _select_one(z[perm], scores[perm], mask, 3)
    np.testing.assert_allclose(np.sort(base.embeddings[0], axis=0), np.sort(permuted.embeddings[0], axis=0))
    np.testing.assert_array_equal(perm[permuted.source_indices], base.source_indices)


@pytest.mark.parametrize("n_t", [2, 5, 7])
def test_select_prototypes_batch_equals_per_report_calls(n_t):
    rng = np.random.default_rng(27)
    reports = [ReportFeatures(f"p{i}", rng.normal(size=(k, 4))) for i, k in enumerate((5, 3, 1))]
    batch = pad_batch(reports, 5)  # n_t = 7 asks for more slots than the padded length
    z, att = text_self_attention(batch, TextAttentionParams(*rng.normal(size=(3, 4, 4))))
    scores = importance_scores(att, batch.mask)
    order, validity = top_segment_indices(scores, batch.mask, n_t)
    assert order.shape == validity.shape == (3, n_t)
    batched = select_prototypes(z, scores, batch.mask, n_t)
    assert batched.embeddings.shape == (3, n_t, 4)
    assert batched.source_indices.shape == (3, n_t)
    for i in range(3):
        single = _select_one(z[i], scores[i], batch.mask[i], n_t)
        np.testing.assert_array_equal(batched.embeddings[i], single.embeddings[0])
        np.testing.assert_array_equal(batched.validity[i], single.validity[0])
        np.testing.assert_array_equal(batched.source_indices[i], single.source_indices[0])
    taped = select_prototypes(nm.Tensor(z, requires_grad=True), scores, batch.mask, n_t)
    assert isinstance(taped.embeddings, nm.Tensor)
    np.testing.assert_array_equal(taped.embeddings.data, batched.embeddings)


# the text projection is numerics.affine on the prototype matrices' rows


def test_project_text_zero_and_identity():
    protos = DiagnosticPrototypes(np.arange(6.0).reshape(1, 2, 3), np.ones((1, 2)), np.array([[0, 1]]))
    assert np.all(nm.affine(protos.embeddings, np.zeros((3, 2)), np.zeros(2)) == 0)
    np.testing.assert_array_equal(nm.affine(protos.embeddings, np.eye(3), np.zeros(3)), protos.embeddings)


def test_project_text_matches_dot_oracle():
    rng = np.random.default_rng(25)
    emb = rng.normal(size=(1, 1, 4))
    w, b = rng.normal(size=(4, 3)), rng.normal(size=3)
    protos = DiagnosticPrototypes(emb, np.ones((1, 1)), np.array([[0]]))
    expect = [sum(emb[0, 0][i] * w[i, j] for i in range(4)) + b[j] for j in range(3)]
    np.testing.assert_allclose(nm.affine(protos.embeddings, w, b)[0, 0], expect, atol=1e-12)


def test_compute_n_t_average():
    assert compute_n_t([2, 2, 2], "average") == 2
    assert compute_n_t([1, 2], "average") == 2  # 1.5 rounds half-up
    assert compute_n_t([1, 1, 2], "average") == 1  # 1.33 rounds to the nearest, not up


def test_compute_n_t_p90_nearest_rank():
    assert compute_n_t(list(range(1, 11)), "p90") == 9


def test_compute_n_t_empty_raises():
    with pytest.raises(BadInput, match="no training reports"):
        compute_n_t([], "average")


def test_padding_invariance_of_text_stage():
    rng = np.random.default_rng(26)
    segs = rng.normal(size=(3, 4))
    params = TextAttentionParams(*rng.normal(size=(3, 4, 4)))
    short = pad_batch([ReportFeatures("p", segs)], m=3)
    long = pad_batch([ReportFeatures("p", segs)], m=6)
    z_short, a_short = text_self_attention(short, params)
    z_long, a_long = text_self_attention(long, params)
    assert np.max(np.abs(z_long[0, :3] - z_short[0])) < 1e-9
    assert np.max(np.abs(a_long[0, :3, :3] - a_short[0])) < 1e-9
    s_short = importance_scores(a_short[0], short.mask[0])
    s_long = importance_scores(a_long[0], long.mask[0])
    assert np.max(np.abs(s_long[:3] - s_short)) < 1e-9
    p_short = _select_one(z_short[0], s_short, short.mask[0], 2)
    p_long = _select_one(z_long[0], s_long, long.mask[0], 2)
    np.testing.assert_array_equal(p_short.source_indices, p_long.source_indices)
    assert np.max(np.abs(p_short.embeddings - p_long.embeddings)) < 1e-9
