import math
from collections import Counter

import numpy as np
import pytest

from protosurv import numerics as nm
from protosurv.errors import BadInput, ShapeMismatch
from protosurv.fusion import (
    FUSION_MODES,
    FusionParams,
    ModalityTokens,
    append_learnable,
    block_attention,
    fuse,
)
from protosurv.pathways import embed_pathways


def monolithic_attention(tokens, key_mask, w_q, w_k, w_v, scale=None):
    """Independent oracle: plain masked scaled dot-product attention over the
    whole sequence, invalid query rows zeroed."""
    q, k, v = tokens @ w_q, tokens @ w_k, tokens @ w_v
    d = tokens.shape[1]
    logits = (q @ k.T) * (scale if scale is not None else 1.0 / math.sqrt(d))
    logits = np.where(key_mask[None, :] > 0, logits, -np.inf)
    logits -= logits.max(axis=1, keepdims=True)
    weights = np.exp(logits)
    att = weights / weights.sum(axis=1, keepdims=True)
    out = (att @ v) * key_mask[:, None]
    return out, att


def _params(rng, d, d_r=None):
    return FusionParams(
        None if d_r is None else rng.normal(size=d_r),
        rng.normal(size=(d, d)),
        rng.normal(size=(d, d)),
        rng.normal(size=(d, d)),
    )


def test_append_learnable_degenerate_and_zero():
    tokens = np.arange(6.0).reshape(2, 3)
    np.testing.assert_array_equal(append_learnable(tokens, None), tokens)
    np.testing.assert_array_equal(append_learnable(tokens, np.zeros(0)), tokens)
    out = append_learnable(tokens, np.zeros(2))
    np.testing.assert_array_equal(out[:, 3:], np.zeros((2, 2)))


def test_append_learnable_shares_one_vector():
    out = append_learnable(np.ones((2, 3)), np.array([1.0, 2.0]))
    np.testing.assert_array_equal(out[0, 3:], [1.0, 2.0])
    np.testing.assert_array_equal(out[1, 3:], [1.0, 2.0])


def test_block_attention_single_modality_is_self_attention():
    rng = np.random.default_rng(0)
    tok = rng.normal(size=(4, 5))
    params = _params(rng, 5)
    out = block_attention(None, tok, None, params, np.ones(4))
    ref, att = monolithic_attention(tok, np.ones(4), params.w_q, params.w_k, params.w_v)
    assert np.max(np.abs(out.histology - ref)) < 1e-12
    assert np.max(np.abs(out.attention - att)) < 1e-12
    assert out.pathway is None and out.text is None


def test_block_attention_uniform_weights_average_values():
    rng = np.random.default_rng(1)
    p, h, t = (rng.normal(size=(1, 4)) for _ in range(3))
    params = FusionParams(None, np.zeros((4, 4)), np.zeros((4, 4)), np.eye(4))
    out = block_attention(p, h, t, params, np.ones(3))
    mean_row = np.vstack([p, h, t]).mean(axis=0)
    for block in (out.pathway, out.histology, out.text):
        np.testing.assert_allclose(block[0], mean_row, atol=1e-12)


def test_block_attention_matches_monolithic_oracle():
    rng = np.random.default_rng(2)
    d = 6
    p, h, t = rng.normal(size=(2, d)), rng.normal(size=(2, d)), rng.normal(size=(1, d))
    params = _params(rng, d)
    mask = np.ones(5)
    out = block_attention(p, h, t, params, mask)
    ref, att = monolithic_attention(np.vstack([p, h, t]), mask, params.w_q, params.w_k, params.w_v)
    stacked = np.vstack([out.pathway, out.histology, out.text])
    assert np.max(np.abs(stacked - ref)) < 1e-10
    assert np.max(np.abs(out.attention - att)) < 1e-10


def test_block_attention_uses_exact_inverse_sqrt_scale():
    rng = np.random.default_rng(3)
    d = 4
    tok = rng.normal(size=(3, d))
    params = _params(rng, d)
    out = block_attention(tok, None, None, params, np.ones(3))
    right, _ = monolithic_attention(tok, np.ones(3), params.w_q, params.w_k, params.w_v)
    wrong, _ = monolithic_attention(
        tok, np.ones(3), params.w_q, params.w_k, params.w_v, scale=1.0 / math.sqrt(d) + 0.05
    )
    assert np.max(np.abs(out.pathway - right)) < 1e-10
    assert np.max(np.abs(out.pathway - wrong)) > 1e-6


def _tokens(rng, n, d_e, modality, validity=None):
    return ModalityTokens(modality, rng.normal(size=(n, d_e)), np.ones(n) if validity is None else validity)


def test_fuse_late_cross_blocks_exactly_zero():
    rng = np.random.default_rng(4)
    p, h, t = _tokens(rng, 3, 4, "pathway"), _tokens(rng, 2, 4, "histology"), _tokens(rng, 2, 4, "text")
    params = _params(rng, 4)
    out = fuse(p, h, t, params, mode="late")
    att = out.attention
    assert np.all(att[:3, 3:] == 0.0) and np.all(att[3:, :3] == 0.0)
    assert np.all(att[3:5, 5:] == 0.0) and np.all(att[5:, 3:5] == 0.0)
    # each diagonal block equals that modality's own self-attention
    ref, _ = monolithic_attention(p.tokens, np.ones(3), params.w_q, params.w_k, params.w_v)
    assert np.max(np.abs(out.pathway - ref)) < 1e-10


def test_fusion_output_spans_follow_the_present_blocks_in_order():
    rng = np.random.default_rng(4)
    p, t = _tokens(rng, 3, 4, "pathway"), _tokens(rng, 2, 4, "text")
    out = fuse(p, None, t, _params(rng, 4), mode="full")
    assert out.spans == {"pathway": (0, 3), "text": (3, 5)}
    assert out.histology is None and out.pathway.shape == (3, 4) and out.text.shape == (2, 4)


def test_fuse_full_single_modality_equals_late():
    rng = np.random.default_rng(5)
    p = _tokens(rng, 4, 5, "pathway")
    params = _params(rng, 5)
    full = fuse(p, None, None, params, mode="full")
    late = fuse(p, None, None, params, mode="late")
    np.testing.assert_array_equal(full.pathway, late.pathway)
    np.testing.assert_array_equal(full.attention, late.attention)


def test_fuse_hierarchical_matches_staged_oracle():
    rng = np.random.default_rng(6)
    d = 5
    p, h, t = _tokens(rng, 2, d, "pathway"), _tokens(rng, 3, d, "histology"), _tokens(rng, 2, d, "text")
    params = _params(rng, d)
    out = fuse(p, h, t, params, mode="hierarchical")
    # stage 1: histology+text fuse together
    stage1, _ = monolithic_attention(
        np.vstack([h.tokens, t.tokens]), np.ones(5), params.w_q, params.w_k, params.w_v
    )
    # stage 2: pathways with the fused pair
    stage2, att2 = monolithic_attention(
        np.vstack([p.tokens, stage1]), np.ones(7), params.w_q, params.w_k, params.w_v
    )
    assert np.max(np.abs(out.pathway - stage2[:2])) < 1e-10
    assert np.max(np.abs(out.histology - stage2[2:5])) < 1e-10
    assert np.max(np.abs(out.text - stage2[5:])) < 1e-10
    assert np.max(np.abs(out.attention - att2)) < 1e-10


def test_fuse_no_modalities_raises():
    rng = np.random.default_rng(7)
    with pytest.raises(BadInput, match="every modality is disabled"):
        fuse(None, None, None, _params(rng, 4), mode="full")


def test_fuse_invalid_text_keys_masked_and_rows_stochastic():
    rng = np.random.default_rng(8)
    validity = np.array([1.0, 1.0, 0.0])
    text_tokens = rng.normal(size=(3, 4)) * validity[:, None]
    p = _tokens(rng, 2, 4, "pathway")
    t = ModalityTokens("text", text_tokens, validity)
    out = fuse(p, None, t, _params(rng, 4), mode="full")
    att = out.attention
    assert np.all(att[:, 4] == 0.0)  # invalid text key column
    valid_rows = np.array([0, 1, 2, 3])
    np.testing.assert_allclose(att[valid_rows].sum(axis=1), np.ones(4), atol=1e-9)
    assert np.all(out.text[2] == 0.0)  # invalid query row zeroed


def test_fuse_pathway_permutation_equivariance_and_invariance():
    rng = np.random.default_rng(9)
    p, h, t = _tokens(rng, 4, 5, "pathway"), _tokens(rng, 3, 5, "histology"), _tokens(rng, 2, 5, "text")
    params = _params(rng, 5)
    base = fuse(p, h, t, params, mode="full")
    perm = rng.permutation(4)
    p_perm = ModalityTokens("pathway", p.tokens[perm], p.validity[perm])
    permuted = fuse(p_perm, h, t, params, mode="full")
    assert np.max(np.abs(permuted.pathway - base.pathway[perm])) < 1e-10
    assert np.max(np.abs(permuted.histology - base.histology)) < 1e-10
    assert np.max(np.abs(permuted.text - base.text)) < 1e-10


def test_fuse_with_appended_embedding_matches_oracle():
    rng = np.random.default_rng(10)
    d_e, d_r = 4, 3
    p, h = _tokens(rng, 2, d_e, "pathway"), _tokens(rng, 3, d_e, "histology")
    params = _params(rng, d_e + d_r, d_r=d_r)
    out = fuse(p, h, None, params, mode="full")
    widened = np.vstack(
        [
            np.hstack([p.tokens, np.tile(params.e_r, (2, 1))]),
            np.hstack([h.tokens, np.tile(params.e_r, (3, 1))]),
        ]
    )
    ref, _ = monolithic_attention(widened, np.ones(5), params.w_q, params.w_k, params.w_v)
    assert np.max(np.abs(np.vstack([out.pathway, out.histology]) - ref)) < 1e-10


def test_fuse_randomised_row_stochastic_suite():
    rng = np.random.default_rng(11)
    for _ in range(50):
        d_e = int(rng.integers(2, 6))
        sizes = rng.integers(1, 5, size=3)
        n_valid_text = int(rng.integers(1, sizes[2] + 1))
        text_validity = np.zeros(sizes[2])
        text_validity[:n_valid_text] = 1.0
        p = _tokens(rng, int(sizes[0]), d_e, "pathway")
        h = _tokens(rng, int(sizes[1]), d_e, "histology")
        t = ModalityTokens("text", rng.normal(size=(int(sizes[2]), d_e)) * text_validity[:, None], text_validity)
        mode = ("full", "late", "hierarchical")[int(rng.integers(3))]
        out = fuse(p, h, t, _params(rng, d_e), mode=mode)
        att = out.attention
        key_mask = np.concatenate([np.ones(sizes[0] + sizes[1]), text_validity])
        if mode == "late":
            offsets = np.cumsum([0, *sizes])
            for b, (s, e) in enumerate(zip(offsets[:-1], offsets[1:])):
                block_mask = key_mask[s:e]
                if block_mask.sum() == 0:
                    continue
                np.testing.assert_allclose(att[s:e].sum(axis=1), np.ones(e - s), atol=1e-9)
                assert np.all(att[s:e, s:e][:, block_mask == 0] == 0.0)
        else:
            np.testing.assert_allclose(att.sum(axis=1), np.ones(att.shape[0]), atol=1e-9)
            assert np.all(att[:, key_mask == 0] == 0.0)


def test_fuse_batched_late_and_hierarchical_match_per_patient_oracle():
    rng = np.random.default_rng(12)
    b, d = 3, 4
    sizes = {"pathway": 3, "histology": 2, "text": 3}
    text_validity = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    validity = {"pathway": np.ones((b, 3)), "histology": np.ones((b, 2)), "text": text_validity}
    tokens = {name: rng.normal(size=(b, n, d)) for name, n in sizes.items()}
    tokens["text"] *= text_validity[..., None]
    inputs = [ModalityTokens(name, tokens[name], validity[name]) for name in sizes]
    params = _params(rng, d)
    weights = (params.w_q, params.w_k, params.w_v)
    late = fuse(*inputs, params, mode="late")
    hier = fuse(*inputs, params, mode="hierarchical")
    assert late.pathway.shape == (b, 3, d) and late.attention.shape == (b, 8, 8)
    for i in range(b):
        # late: each modality attends only within itself
        offset = 0
        for name, n in sizes.items():
            ref, att = monolithic_attention(tokens[name][i], validity[name][i], *weights)
            assert np.max(np.abs(late.block(name)[i] - ref)) < 1e-12
            assert np.max(np.abs(late.attention[i, offset : offset + n, offset : offset + n] - att)) < 1e-12
            outside = np.ones(8, dtype=bool)
            outside[offset : offset + n] = False
            assert np.all(late.attention[i, offset : offset + n][:, outside] == 0.0)
            offset += n
        # hierarchical: histology+text first, then pathways join the fused pair
        pair_mask = np.concatenate([validity["histology"][i], text_validity[i]])
        stage1, _ = monolithic_attention(np.vstack([tokens["histology"][i], tokens["text"][i]]), pair_mask, *weights)
        full_mask = np.concatenate([np.ones(3), pair_mask])
        stage2, att2 = monolithic_attention(np.vstack([tokens["pathway"][i], stage1]), full_mask, *weights)
        stacked = np.vstack([hier.pathway[i], hier.histology[i], hier.text[i]])
        assert np.max(np.abs(stacked - stage2)) < 1e-12
        assert np.max(np.abs(hier.attention[i] - att2)) < 1e-12


def _batch(rng, b, d_e):
    """Batched pathway, histology and text tokens, the last text token of each patient invalid."""
    text_validity = np.ones((b, 3))
    text_validity[:, -1] = 0.0
    return (
        ModalityTokens("pathway", rng.normal(size=(b, 4, d_e)), np.ones((b, 4))),
        ModalityTokens("histology", rng.normal(size=(b, 2, d_e)), np.ones((b, 2))),
        ModalityTokens("text", rng.normal(size=(b, 3, d_e)) * text_validity[..., None], text_validity),
    )


@pytest.mark.parametrize("present", ["ht", "h", "t", "p"])
def test_fuse_hierarchical_without_a_second_stage_is_full_bit_for_bit(present):
    rng = np.random.default_rng(13)
    tokens = [mt if mt.modality[0] in present else None for mt in _batch(rng, 3, 4)]
    params = _params(rng, 6, d_r=2)
    hier, full = fuse(*tokens, params, mode="hierarchical"), fuse(*tokens, params, mode="full")
    for name in ("pathway", "histology", "text"):
        if name[0] in present:
            np.testing.assert_array_equal(hier.block(name), full.block(name))
        else:
            assert hier.block(name) is None
    np.testing.assert_array_equal(hier.attention, full.attention)
    assert hier.block_sizes == full.block_sizes


@pytest.mark.parametrize("other", ["histology", "text"])
def test_fuse_hierarchical_pathways_with_one_other_modality_matches_two_stage_oracle(other):
    rng = np.random.default_rng(14)
    d = 4
    p, h, t = _batch(rng, 2, d)
    second = {"histology": h, "text": t}[other]
    params = _params(rng, d)
    weights = (params.w_q, params.w_k, params.w_v)
    out = fuse(p, h if other == "histology" else None, t if other == "text" else None, params, mode="hierarchical")
    n_p = p.tokens.shape[-2]
    for i in range(2):
        stage1, _ = monolithic_attention(second.tokens[i], second.validity[i], *weights)
        mask = np.concatenate([p.validity[i], second.validity[i]])
        stage2, att2 = monolithic_attention(np.vstack([p.tokens[i], stage1]), mask, *weights)
        assert np.max(np.abs(out.pathway[i] - stage2[:n_p])) < 1e-12
        assert np.max(np.abs(out.block(other)[i] - stage2[n_p:])) < 1e-12
        assert np.max(np.abs(out.attention[i] - att2)) < 1e-12


@pytest.mark.parametrize("mode", FUSION_MODES)
def test_fuse_tokens_of_unequal_width_raise_shape_mismatch(mode):
    rng = np.random.default_rng(15)
    p, h = _tokens(rng, 2, 4, "pathway"), _tokens(rng, 3, 5, "histology")
    with pytest.raises(ShapeMismatch, match=r"token widths differ across modalities: \[6, 7\]"):
        fuse(p, h, None, _params(rng, 6, d_r=2), mode=mode)


# ---------------------------------------------------------------------------
# tape census: the token joins and cuts each stage records
# ---------------------------------------------------------------------------

def _interior_kinds(*outputs) -> Counter:
    """How many recorded nodes of each numerics operation reach ``outputs``
    through ``_parents``, leaves left out. An operation is named by the
    function that defines its backward closure."""
    seen, stack, kinds = set(), [o for o in outputs if isinstance(o, nm.Tensor)], Counter()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            kinds[node._backward.__qualname__.split(".")[0]] += 1
        stack.extend(node._parents)
    return kinds


def _leaf(x):
    return nm.Tensor(x, requires_grad=True)


def test_embed_pathways_records_one_join_and_one_reshape():
    rng = np.random.default_rng(16)
    widths = (2, 5, 1, 3)
    x = rng.normal(size=(3, sum(widths)))
    slices = np.split(x, np.cumsum(widths)[:-1], axis=-1)
    snns = [[(_leaf(rng.normal(size=(w, 4))), _leaf(rng.normal(size=4))),
             (_leaf(rng.normal(size=(4, 4))), _leaf(rng.normal(size=4)))] for w in widths]
    # 2P + 2 interior nodes: two layers per pathway network, one join, one reshape
    assert _interior_kinds(embed_pathways(slices, snns)) == {"_selu_layer": 2 * len(widths), "concat": 1, "reshape": 1}


# joins: one append per modality, plus full's one sequence and hierarchical's two stages
@pytest.mark.parametrize("mode, narrows, concats", [("full", 3, 4), ("late", 0, 3), ("hierarchical", 3, 5)])
def test_fuse_cuts_only_its_final_output(mode, narrows, concats):
    rng = np.random.default_rng(17)
    tokens = [ModalityTokens(mt.modality, _leaf(mt.tokens), mt.validity) for mt in _batch(rng, 2, 4)]
    params = FusionParams(_leaf(rng.normal(size=2)), *(_leaf(rng.normal(size=(6, 6))) for _ in range(3)))
    out = fuse(*tokens, params, mode=mode)
    blocks = [out.pathway, out.histology, out.text]
    kinds = _interior_kinds(*blocks)
    assert (kinds["narrow"], kinds["concat"]) == (narrows, concats)
    if narrows:
        # every cut is of the one output of the last kernel call
        assert len({id(block._parents[0]) for block in blocks}) == 1
    else:
        # late: each block is its own kernel call's output, the attention node
        assert {block._backward.__qualname__.split(".")[0] for block in blocks} == {"masked_attention"}
