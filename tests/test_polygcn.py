import numpy as np
import pytest
from conftest import (dense_decompose, finite_difference, make_planted_bipartite,
                      reference_gcn_loss_and_grads, rel_error, to_dense)
from scipy import sparse

from polyembed import evaluation, facets, graph, kernel, polygcn
from polyembed.errors import ValidationError
from polyembed.polygcn import (FacetAdjacency, GcnConfig, decompose_adjacency,
                               forward_facet, gcn_loss_and_grads, init_gcn_model,
                               train_gcn)


def facet_adjacency(*dense):
    return FacetAdjacency(mats=[kernel.csr(m) for m in dense])


def random_instance(seed, num_a=5, num_b=4, k=3):
    rng = np.random.default_rng(seed)
    a = rng.random((num_a, num_b)) * (rng.random((num_a, num_b)) < 0.7)
    if a.max() == 0:
        a[0, 0] = 1.0
    p = rng.random((num_a, k)) + 0.05
    q = rng.random((num_b, k)) + 0.05
    return a, p, q


# ------------------------------------------------------------ decomposition

def test_decompose_k1_returns_adjacency():
    a, _, _ = random_instance(0)
    fa = decompose_adjacency(a, np.ones((5, 1)), np.ones((4, 1)))
    assert np.allclose(to_dense(fa.mats[0]), a)


def test_decompose_one_hot_routes_whole_edge():
    a = np.array([[2.0]])
    p = np.array([[1.0, 0.0]])
    q = np.array([[1.0, 0.0]])
    fa = decompose_adjacency(a, p, q)
    assert to_dense(fa.mats[0])[0, 0] == 2.0
    assert to_dense(fa.mats[1])[0, 0] == 0.0


@pytest.mark.parametrize("seed", range(10))
def test_decompose_partition_of_unity(seed):
    a, p, q = random_instance(seed)
    fa = decompose_adjacency(a, p, q)
    assert np.abs(sum(map(to_dense, fa.mats)) - a).max() < 1e-12
    for mat in fa.mats:
        dense = to_dense(mat)
        assert (dense[a == 0] == 0).all()
        assert (dense >= 0).all()


@pytest.mark.parametrize("seed", range(10))
def test_decompose_matches_dense_formula(seed):
    a, p, q = random_instance(seed, num_a=7, num_b=6, k=3)
    p[0] = 0.0          # row 0's cells have a zero factor product: uniform split
    q[1, :2] = 0.0      # column 1's cells keep only facet 2
    fa = decompose_adjacency(sparse.csr_array(a), p, q)
    for mat, ref in zip(fa.mats, dense_decompose(a, p, q)):
        assert np.abs(to_dense(mat) - ref).max() <= 1e-14
        assert (mat.data > 0).all()


def test_decompose_zero_denominator_splits_uniformly():
    a = np.array([[3.0]])
    p = np.array([[0.0, 0.0]])
    q = np.array([[1.0, 1.0]])
    fa = decompose_adjacency(a, p, q)
    assert to_dense(fa.mats[0])[0, 0] == pytest.approx(1.5)
    assert to_dense(fa.mats[1])[0, 0] == pytest.approx(1.5)


def test_decompose_shape_mismatch():
    a, p, q = random_instance(1)
    with pytest.raises(ValidationError):
        decompose_adjacency(a, p[:3], q)


# ------------------------------------------------------------------- masks

def dense_co_mask(mask):
    co = ((mask @ mask.T) > 0).astype(np.float64)
    np.fill_diagonal(co, 0.0)
    return co


def agg_blocks(ops):
    """The four (A|B) x (A|B) blocks of a facet operator, dense."""
    agg, n = to_dense(ops.agg), ops.num_a
    return agg[:n, :n], agg[:n, n:], agg[n:, :n], agg[n:, n:]


@pytest.mark.parametrize("seed", range(6))
def test_co_masks_match_dense_construction(seed):
    a, p, q = random_instance(seed, num_a=6, num_b=5, k=2)
    a[0] = 0.0
    a[:, 0] = 0.0     # user 0 and item 0 have no edges
    fa = decompose_adjacency(a, p, q)
    config = GcnConfig(neighbor_mode="co", threshold=0.05)
    for mat in fa.mats:
        ops = polygcn._facet_ops(mat, config)
        mask = (to_dense(mat) > 0.05).astype(np.float64)
        co_a, co_b = dense_co_mask(mask), dense_co_mask(mask.T)
        assert isinstance(ops.agg, kernel.Csr)
        aa, ab, ba, bb = agg_blocks(ops)
        assert np.array_equal(aa, co_a) and np.array_equal(bb, co_b)
        assert not ab.any() and not ba.any()
        assert np.array_equal(ops.inv, 1.0 / (1.0 + np.r_[co_a.sum(axis=1),
                                                          co_b.sum(axis=1)]))


def test_co_mask_via_shared_item():
    a = np.zeros((3, 2))
    a[0, 0] = a[1, 0] = 1.0   # users 0 and 1 both link to item 0
    ops = polygcn._facet_ops(kernel.csr(a), GcnConfig(neighbor_mode="co"))
    aa, ab, ba, bb = agg_blocks(ops)
    assert np.array_equal(aa, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    assert not bb.any() and not ab.any() and not ba.any()


def test_bipartite_operator_blocks():
    a, p, q = random_instance(2, num_a=6, num_b=5, k=1)
    mat = decompose_adjacency(a, p, q).mats[0]
    ops = polygcn._facet_ops(mat, GcnConfig(threshold=0.05))
    mask = (to_dense(mat) > 0.05).astype(np.float64)
    aa, ab, ba, bb = agg_blocks(ops)
    assert np.array_equal(ab, mask) and np.array_equal(ba, mask.T)
    assert not aa.any() and not bb.any()
    assert np.array_equal(ops.inv, 1.0 / (1.0 + np.r_[mask.sum(axis=1),
                                                      mask.sum(axis=0)]))


@pytest.mark.parametrize("neighbor_mode", ["bipartite", "co"])
@pytest.mark.parametrize("seed", range(4))
def test_operator_is_symmetric(seed, neighbor_mode):
    # backward_facet applies agg in place of its transpose
    a, p, q = random_instance(seed, num_a=7, num_b=5, k=2)
    fa = decompose_adjacency(a, p, q)
    for mat in fa.mats:
        agg = polygcn._facet_ops(mat, GcnConfig(neighbor_mode=neighbor_mode)).agg
        assert agg.shape == (12, 12)
        assert np.array_equal(to_dense(agg), to_dense(agg).T)


# ---------------------------------------------------------------- forward

def leaky(x):
    return np.where(x > 0, x, polygcn.LEAKY_SLOPE * x)


def identity_model(num_a, num_b, fa, dim, depth=1):
    config = GcnConfig(dim=dim, depth=depth, seed=0)
    model = init_gcn_model(num_a, num_b, fa, config)
    for facet in model.facets:
        for d in range(depth):
            facet.w_a[d] = np.eye(dim)
            facet.w_b[d] = np.eye(dim)
    return model


def test_forward_isolated_node_keeps_layer0_vector():
    a = np.zeros((2, 2))
    a[1, 1] = 1.0   # node 0 isolated under this facet
    fa = facet_adjacency(a)
    model = identity_model(2, 2, fa, dim=3, depth=1)
    u, _ = forward_facet(model.facets[0], model.ops[0])
    assert np.allclose(u[0], leaky(model.facets[0].x_a[0]))


def test_forward_mean_of_identical_vectors():
    a = np.ones((1, 2))   # one user linked to two items
    fa = facet_adjacency(a)
    model = identity_model(1, 2, fa, dim=3, depth=1)
    x = np.array([0.3, -0.2, 0.5])
    model.facets[0].x_a[0] = x
    model.facets[0].x_b[0] = x
    model.facets[0].x_b[1] = x
    u, _ = forward_facet(model.facets[0], model.ops[0])
    assert np.allclose(u[0], leaky(x))


def dense_reference_forward(facet, mask_ab, neighbor_mode, depth):
    """Independent dense implementation of the forward pass: a type-A node
    averages itself with its neighbours, which are its facet items
    ("bipartite") or the users sharing a facet item with it ("co")."""
    if neighbor_mode == "bipartite":
        nbr_a, nbr_b = mask_ab, mask_ab.T
    else:
        nbr_a, nbr_b = dense_co_mask(mask_ab), dense_co_mask(mask_ab.T)
    za, zb = facet.x_a.copy(), facet.x_b.copy()
    for d in range(depth):
        src_a, src_b = (zb, za) if neighbor_mode == "bipartite" else (za, zb)
        ma = np.array([np.mean([za[i]] + [src_a[j] for j in np.flatnonzero(row)],
                               axis=0) for i, row in enumerate(nbr_a)])
        mb = np.array([np.mean([zb[j]] + [src_b[i] for i in np.flatnonzero(row)],
                               axis=0) for j, row in enumerate(nbr_b)])
        za, zb = leaky(ma @ facet.w_a[d].T), leaky(mb @ facet.w_b[d].T)
    return za, zb


@pytest.mark.parametrize("seed", range(8))
def test_forward_matches_dense_reference(seed):
    a, p, q = random_instance(seed, num_a=4, num_b=4, k=2)
    fa = decompose_adjacency(a, p, q)
    for neighbor_mode in ("bipartite", "co"):
        config = GcnConfig(dim=3, depth=2, seed=seed, neighbor_mode=neighbor_mode)
        model = init_gcn_model(4, 4, fa, config)
        for k in range(2):
            u, h = forward_facet(model.facets[k], model.ops[k])
            ru, rh = dense_reference_forward(
                model.facets[k], (to_dense(fa.mats[k]) > 0).astype(float),
                neighbor_mode, config.depth)
            assert np.abs(u - ru).max() < 1e-10
            assert np.abs(h - rh).max() < 1e-10


# ---------------------------------------------------------------- gradients

@pytest.mark.parametrize("seed", range(8))
def test_gcn_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    a, p, q = random_instance(seed, num_a=3, num_b=3, k=2)
    fa = decompose_adjacency(a, p, q)
    config = GcnConfig(dim=2, depth=2, seed=seed, negatives=2)
    model = init_gcn_model(3, 3, fa, config)
    facet, ops = model.facets[0], model.ops[0]
    mat = to_dense(fa.mats[0])
    rows, cols = np.nonzero(mat > 0)
    edge_idx = np.stack([rows, cols], axis=1)
    edge_w = mat[rows, cols]
    neg_idx = rng.integers(0, 3, (len(rows), 2))
    _, grads = gcn_loss_and_grads(facet, ops, config, edge_idx, edge_w, neg_idx)
    analytic_all, numeric_all = [], []
    for name, p_arr in facet.params().items():
        numeric = finite_difference(
            lambda: gcn_loss_and_grads(facet, ops, config, edge_idx,
                                       edge_w, neg_idx)[0], p_arr)
        analytic_all.append(grads[name].ravel())
        numeric_all.append(numeric.ravel())
    # per-instance relative error over the full concatenated gradient;
    # per-block ratios are meaningless for blocks with near-zero gradient
    assert rel_error(np.concatenate(analytic_all),
                     np.concatenate(numeric_all)) < 1e-4


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("negatives", [1, 3])
# the ids name the activation too, as when it was a setting
@pytest.mark.parametrize("neighbor_mode", ["bipartite", "co"],
                         ids=["bipartite-leaky_relu", "co-leaky_relu"])
def test_gcn_gradients_match_reference(seed, negatives, neighbor_mode):
    rng = np.random.default_rng(seed)
    a, p, q = random_instance(seed, num_a=7, num_b=6, k=2)
    fa = decompose_adjacency(a, p, q)
    config = GcnConfig(dim=4, depth=2, neighbor_mode=neighbor_mode,
                       negatives=negatives, seed=seed)
    model = init_gcn_model(7, 6, fa, config)
    # at initialisation every score is about 1e-4, so each gradient's
    # positive and negative terms all but cancel; scaled up, scores are O(0.1)
    for p_arr in model.facets[0].params().values():
        p_arr *= 4.0
    rows, cols, edge_w = polygcn._cells(fa.mats[0])
    # rows repeated and out of order; edge 0's first negative is its own
    # positive, and with R > 1 edge 1 draws the same negative twice
    order = rng.integers(0, len(rows), 2 * len(rows))
    edge_idx = np.stack([rows, cols], axis=1)[order]
    edge_w = edge_w[order]
    neg_idx = rng.integers(0, 6, (len(order), negatives))
    neg_idx[0, 0] = edge_idx[0, 1]
    neg_idx[1, -1] = neg_idx[1, 0]
    args = (model.facets[0], model.ops[0], config, edge_idx, edge_w, neg_idx)
    loss, grads = gcn_loss_and_grads(*args)
    ref_loss, ref_grads = reference_gcn_loss_and_grads(*args)
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    assert grads.keys() == ref_grads.keys()
    for name, ref in ref_grads.items():
        assert np.abs(grads[name] - ref).max() <= 1e-12 * np.abs(ref).max(), name


# ------------------------------------------------------------------- train

def test_empty_facet_stays_at_initialization():
    a = np.zeros((3, 3))
    a[0, 0] = a[1, 1] = 1.0
    fa = facet_adjacency(a, np.zeros((3, 3)))
    g = graph.from_edges([(0, 0), (1, 1)], kind="bipartite", num_a=3, num_b=3)
    config = GcnConfig(dim=4, iterations=30, seed=5)
    result = train_gcn(g, fa, config)
    fresh = init_gcn_model(3, 3, fa, config,
                           seed=np.random.SeedSequence(5).spawn(3)[0])
    trained = result.model.facets[1].params()
    for name, p_arr in fresh.facets[1].params().items():
        assert np.array_equal(trained[name], p_arr), name
    assert result.loss_traces[1] == []


def test_facet_independence_checksums():
    a, p, q = random_instance(4, num_a=4, num_b=4, k=2)
    fa = decompose_adjacency(a, p, q)
    g = graph.from_edges([(int(i), int(j), float(a[i, j]))
                          for i, j in zip(*np.nonzero(a))],
                         kind="bipartite", num_a=4, num_b=4)
    config = GcnConfig(dim=3, iterations=10, seed=6)
    model = init_gcn_model(4, 4, fa, config,
                           seed=np.random.SeedSequence(6).spawn(3)[0])
    before = {k: {n: p_arr.copy() for n, p_arr in f.params().items()}
              for k, f in enumerate(model.facets)}
    result = train_gcn(g, fa, config)
    # facet 0 trained: must differ from init; at no point did it touch facet 1's init
    changed = any(not np.array_equal(result.model.facets[0].params()[n],
                                     before[0][n]) for n in before[0])
    assert changed


def test_training_loss_decreases_and_output_finite():
    g = make_planted_bipartite(1, n_side=20, p_in=0.5, p_out=0.05)
    a = graph.adjacency_dense(g)
    nmf = facets.asymmetric_nmf(a, 2, alpha=0.05, seed=1)
    fa = decompose_adjacency(a, *nmf.factors)
    config = GcnConfig(dim=8, iterations=80, seed=1)
    result = train_gcn(g, fa, config)
    assert result.loss_traces[0][-1] < result.loss_traces[0][0]
    assert np.isfinite(result.tables.u).all()


def test_planted_fixture_auc():
    g = make_planted_bipartite(0)
    train_g, test_edges = evaluation.split_links(g, "latest-per-user", seed=0)
    a = graph.adjacency_dense(train_g)
    nmf = facets.asymmetric_nmf(a, 2, alpha=0.05, seed=0)
    prior = facets.FacetPrior.from_factors(*nmf.factors)
    fa = decompose_adjacency(a, prior.p, prior.q)
    result = train_gcn(train_g, fa, GcnConfig(dim=16, seed=0))
    report = evaluation.link_prediction_report(
        train_g, test_edges, result.tables, prior, "cross-diagonal",
        num_negatives=35, ks=(10,), seed=0)
    assert report.auc >= 0.75


def test_train_matches_reference_gradients(monkeypatch):
    g = make_planted_bipartite(4, n_side=20, p_in=0.5, p_out=0.05)
    a = graph.adjacency_dense(g)
    nmf = facets.asymmetric_nmf(a, 3, alpha=0.05, seed=4)
    fa = decompose_adjacency(a, *nmf.factors)
    config = GcnConfig(dim=8, iterations=60, negatives=2, seed=4)
    result = train_gcn(g, fa, config)
    monkeypatch.setattr(polygcn, "gcn_loss_and_grads", reference_gcn_loss_and_grads)
    ref = train_gcn(g, fa, config)
    for got, want in ((result.tables.u, ref.tables.u), (result.tables.h, ref.tables.h),
                      (result.loss_traces, ref.loss_traces)):
        got, want = np.asarray(got), np.asarray(want)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_train_deterministic():
    g = make_planted_bipartite(2, n_side=16, p_in=0.5, p_out=0.05)
    a = graph.adjacency_dense(g)
    nmf = facets.asymmetric_nmf(a, 2, seed=2)
    fa = decompose_adjacency(a, *nmf.factors)
    config = GcnConfig(dim=4, iterations=40, seed=3)
    r1 = train_gcn(g, fa, config)
    r2 = train_gcn(g, fa, config)
    assert np.array_equal(r1.tables.u, r2.tables.u)
    assert np.array_equal(r1.tables.h, r2.tables.h)


def test_co_neighborhood_mode_trains():
    g = make_planted_bipartite(3, n_side=12, p_in=0.5, p_out=0.05)
    a = graph.adjacency_dense(g)
    nmf = facets.asymmetric_nmf(a, 2, seed=3)
    fa = decompose_adjacency(a, *nmf.factors)
    config = GcnConfig(dim=4, iterations=20, neighbor_mode="co", seed=0)
    result = train_gcn(g, fa, config)
    assert np.isfinite(result.tables.u).all()


def test_facet_adjacency_export(tmp_path):
    a = np.array([[1.5, 0.0], [0.0, 2.5]])
    fa = facet_adjacency(a)
    out = tmp_path / "fadj.txt"
    polygcn.save_facet_adjacency(out, fa)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("0 0 0 1.5")
    assert len(lines) == 2
