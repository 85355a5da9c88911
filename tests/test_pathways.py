import numpy as np
import pytest

from protosurv import numerics as nm
from protosurv.errors import EmptyPathway, ShapeMismatch
from protosurv.numerics import snn_forward
from protosurv.pathways import (
    GeneOrder,
    PathwayMaskSet,
    build_masks,
    embed_pathways,
    fingerprint,
    pathway_slices,
)


def test_build_masks_membership():
    masks = build_masks({"A": ["g1", "g3"]}, GeneOrder(["g1", "g2", "g3"]))
    dense = np.zeros(masks.n_genes)
    dense[masks.member_indices[0]] = 1.0
    np.testing.assert_array_equal(dense, [1, 0, 1])
    np.testing.assert_array_equal(masks.member_indices[0], [0, 2])


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_build_masks_unknown_gene_rejected_when_empty():
    with pytest.raises(EmptyPathway):
        build_masks({"A": ["g4"]}, GeneOrder(["g1", "g2"]))


def test_build_masks_warns_on_dropped_genes():
    with pytest.warns(UserWarning):
        masks = build_masks({"A": ["g1", "nope"]}, GeneOrder(["g1", "g2"]))
    assert masks.widths == (1,)


def test_build_masks_at_hallmark_scale():
    # 50 gene sets tiling a 4000-gene universe: the published pathway-prototype scale
    universe = [f"GENE{i:05d}" for i in range(4000)]
    order = GeneOrder(universe)
    rng = np.random.default_rng(50)
    sets = {}
    for i in range(50):
        chunk = universe[i * 80 : (i + 1) * 80]
        extra = [universe[j] for j in rng.choice(4000, size=5, replace=False)]
        sets[f"SET_{i:02d}"] = chunk + extra  # small overlaps, like real pathway collections
    masks = build_masks(sets, order)
    assert masks.n_pathways == 50
    union = set()
    for idx in masks.member_indices:
        union.update(int(j) for j in idx)
    assert len(union) == 4000


def test_pathway_slices_positional():
    masks = PathwayMaskSet(["A"], [np.array([0, 2])], 4)
    np.testing.assert_array_equal(pathway_slices(np.array([[1.0, 2.0, 3.0, 4.0]]), masks)[0], [[1.0, 3.0]])


def test_pathway_slices_retain_true_zero_expression():
    masks = PathwayMaskSet(["A"], [np.array([0, 1])], 2)
    out = pathway_slices(np.array([[0.0, 5.0]]), masks)[0]
    np.testing.assert_array_equal(out, [[0.0, 5.0]])  # zero kept: removal is positional


def test_pathway_slices_overlapping_pathways():
    masks = build_masks({"A": ["g1", "g2"], "B": ["g2", "g3"]}, GeneOrder(["g1", "g2", "g3"]))
    slices = pathway_slices(np.array([[1.0, 2.0, 3.0]]), masks)
    np.testing.assert_array_equal(slices[0], [[1.0, 2.0]])
    np.testing.assert_array_equal(slices[1], [[2.0, 3.0]])


def test_pathway_slices_length_depends_only_on_masks():
    masks = build_masks({"A": ["g1", "g3"], "B": ["g2"]}, GeneOrder(["g1", "g2", "g3"]))
    rng = np.random.default_rng(0)
    for _ in range(10):
        slices = pathway_slices(rng.normal(size=(1, 3)), masks)
        assert [s.shape[1] for s in slices] == [2, 1]


def test_pathway_slices_length_mismatch():
    masks = PathwayMaskSet(["A"], [np.array([0])], 2)
    with pytest.raises(ShapeMismatch):
        pathway_slices(np.zeros((1, 3)), masks)


def _tiny_snn(rng, width, d_e=3):
    return [
        (rng.normal(size=(width, d_e)), rng.normal(size=d_e)),
        (rng.normal(size=(d_e, d_e)), rng.normal(size=d_e)),
    ]


def test_embed_pathways_zero_weights():
    snns = [[(np.zeros((2, 3)), np.zeros(3)), (np.zeros((3, 3)), np.zeros(3))]]
    out = embed_pathways([np.array([[1.0, -1.0]])], snns)
    np.testing.assert_array_equal(out, np.zeros((1, 1, 3)))


def test_embed_pathways_matches_snn_forward():
    rng = np.random.default_rng(1)
    layers = _tiny_snn(rng, 4)
    x = rng.normal(size=4)[None]
    out = embed_pathways([x], [layers])
    np.testing.assert_allclose(out[:, 0], snn_forward(x, layers), atol=1e-12)


def test_embed_pathways_permutation_equivariant():
    rng = np.random.default_rng(2)
    slices = [rng.normal(size=2)[None], rng.normal(size=3)[None]]
    snns = [_tiny_snn(rng, 2), _tiny_snn(rng, 3)]
    forward = embed_pathways(slices, snns)
    flipped = embed_pathways(slices[::-1], snns[::-1])
    np.testing.assert_allclose(forward, flipped[:, ::-1])


def test_embed_pathways_fixed_output_shape():
    rng = np.random.default_rng(3)
    slices = [rng.normal(size=w)[None] for w in (5, 1, 9)]
    snns = [_tiny_snn(rng, w) for w in (5, 1, 9)]
    assert embed_pathways(slices, snns).shape == (1, 3, 3)


def test_embed_pathways_batch_equals_per_patient_calls_and_reaches_every_leaf():
    rng = np.random.default_rng(5)
    widths = (2, 5, 1)
    snns = [_tiny_snn(rng, w) for w in widths]
    x = rng.normal(size=(4, 8))
    slices = [x[:, :2], x[:, 2:7], x[:, 7:]]
    batched = embed_pathways(slices, snns)
    assert batched.shape == (4, 3, 3)
    for i in range(4):
        single = embed_pathways([s[i : i + 1] for s in slices], snns)
        np.testing.assert_allclose(batched[i], single[0], rtol=1e-12, atol=0)
    leaves = [[(nm.Tensor(w, requires_grad=True), nm.Tensor(b, requires_grad=True)) for w, b in net] for net in snns]
    taped = embed_pathways(slices, leaves)
    np.testing.assert_array_equal(taped.data, batched)
    nm.tsum(taped * rng.normal(size=taped.shape)).backward()
    for net in leaves:
        for w, b in net:
            assert np.any(w.grad != 0) and np.any(b.grad != 0)


def test_masking_soundness_nonmember_perturbation():
    rng = np.random.default_rng(4)
    order = GeneOrder([f"g{i}" for i in range(6)])
    masks = build_masks({"A": ["g0", "g2"], "B": ["g3", "g4", "g5"]}, order)
    snns = [_tiny_snn(rng, 2), _tiny_snn(rng, 3)]
    x = rng.normal(size=6)[None]
    base = embed_pathways(pathway_slices(x, masks), snns)
    perturbed = x.copy()
    perturbed[0, 1] += 100.0  # g1 belongs to no pathway
    out = embed_pathways(pathway_slices(perturbed, masks), snns)
    np.testing.assert_array_equal(base, out)
    perturbed = x.copy()
    perturbed[0, 3] += 1.0  # member of B only: token 0 must stay bit-identical
    out = embed_pathways(pathway_slices(perturbed, masks), snns)
    np.testing.assert_array_equal(base[:, 0], out[:, 0])
    assert not np.array_equal(base[:, 1], out[:, 1])


def test_fingerprint_sensitive_to_membership():
    order = GeneOrder(["g1", "g2", "g3"])
    a = fingerprint(order, build_masks({"A": ["g1"]}, order))
    b = fingerprint(order, build_masks({"A": ["g2"]}, order))
    c = fingerprint(order, build_masks({"A": ["g1"]}, order))
    assert a != b and a == c


def test_expression_profile_roundtrip_through_slices():
    order = GeneOrder(["g1", "g2"])
    masks = build_masks({"A": ["g1", "g2"]}, order)
    values = np.array([1.5, -0.5])
    np.testing.assert_array_equal(pathway_slices(values[None], masks)[0][0], values)
