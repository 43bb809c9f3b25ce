import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import (dense_decompose, finite_difference, make_planted_bipartite,
                      reference_gcn_loss_and_grads, rel_error, to_dense)

from polyembed import evaluation, facets, graph, kernel, polygcn
from polyembed.errors import NumericsError, ValidationError
from polyembed.polygcn import (FacetAdjacency, GcnConfig, decompose_adjacency,
                               forward_facet, gcn_loss_and_grads, init_gcn_model,
                               train_gcn)
from polyembed.sgd import GuideTable


def facet_adjacency(*dense):
    return FacetAdjacency(mats=[kernel.csr(m) for m in dense])


def initial_tables(num_a, num_b, fa, config, k):
    """Facet k's (U, H) at the initial values train_gcn draws for it."""
    init_ss = np.random.SeedSequence(config.seed).spawn(1 + fa.k)[0]
    model = init_gcn_model(num_a, num_b, fa, config, seed=init_ss)
    return forward_facet(model.facets[k], model.ops[k])


def assert_facet_tables(result, k, u, h):
    assert np.array_equal(result.tables.u[:, k], u)
    assert np.array_equal(result.tables.h[:, k], h)


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
    fa = decompose_adjacency(kernel.csr(a), p, q)
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
    assert_facet_tables(result, 1, *initial_tables(3, 3, fa, config, 1))
    assert result.loss_traces[1] == []


def test_facet_independence_checksums():
    a, p, q = random_instance(4, num_a=6, num_b=5, k=3)
    fa = decompose_adjacency(a, p, q)
    g = graph.from_edges([(int(i), int(j), float(a[i, j]))
                          for i, j in zip(*np.nonzero(a))],
                         kind="bipartite", num_a=6, num_b=5)
    config = GcnConfig(dim=3, iterations=10, seed=6)
    result = train_gcn(g, fa, config)
    # facet 0 trained: its tables must differ from those at init
    u, h = initial_tables(6, 5, fa, config, 0)
    assert not np.array_equal(result.tables.u[:, 0], u)
    assert not np.array_equal(result.tables.h[:, 0], h)
    # no facet reads another's matrix, parameters or stream (the parallel
    # path trains them in separate processes): facet k trains the same
    # when every other facet matrix is empty
    empty = kernel.csr(np.zeros((6, 5)))
    for k in range(3):
        alone = FacetAdjacency([m if c == k else empty
                                for c, m in enumerate(fa.mats)])
        solo = train_gcn(g, alone, config)
        assert np.array_equal(solo.tables.u[:, k], result.tables.u[:, k]), k
        assert np.array_equal(solo.tables.h[:, k], result.tables.h[:, k]), k
        assert solo.loss_traces[k] == result.loss_traces[k]


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


# --------------------------------------------------------------- processes

def serial(monkeypatch):
    monkeypatch.setattr(polygcn, "_facet_workers", lambda k: 0)


def forked(monkeypatch, workers=None):
    """Force the parallel path: `workers` children, or one per facet but
    the first."""
    monkeypatch.setattr(polygcn, "_facet_workers",
                        lambda k: k - 1 if workers is None else workers)


@pytest.fixture
def left_clean():
    """A check that no child process is left and that numpy's OpenBLAS runs
    the 2 threads set here for the test, which the parallel path's 1
    cannot pass for; the count found is put back afterwards."""
    found = polygcn._openblas()
    before = found[0]() if found else None
    if found:
        found[1](2)

    def check():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert found is None or found[0]() == 2

    yield check
    if found:
        found[1](before)


def assert_same_training(got, want):
    assert np.array_equal(got.tables.u, want.tables.u)
    assert np.array_equal(got.tables.h, want.tables.h)
    assert got.loss_traces == want.loss_traces


def planted_facets(k, seed=1):
    g = make_planted_bipartite(seed, n_side=12, p_in=0.5, p_out=0.05)
    a = graph.adjacency_dense(g)
    nmf = facets.asymmetric_nmf(a, k, alpha=0.05, seed=seed)
    return g, decompose_adjacency(a, *nmf.factors)


def on_both_paths(monkeypatch, left_clean, g, fa, config, workers=None):
    """train_gcn on the serial path, then on the forked one; each leaves no
    child behind and the BLAS thread count as it found it."""
    results = []
    for path in (serial, lambda m: forked(m, workers)):
        path(monkeypatch)
        results.append(train_gcn(g, fa, config))
        left_clean()
    return results


@pytest.mark.parametrize("neighbor_mode", ["bipartite", "co"])
def test_forked_facets_train_as_the_serial_loop(monkeypatch, left_clean, neighbor_mode):
    g, fa = planted_facets(3)
    config = GcnConfig(dim=4, iterations=15, negatives=2, seed=2,
                       neighbor_mode=neighbor_mode)
    ser, par = on_both_paths(monkeypatch, left_clean, g, fa, config)
    assert (ser.processes, par.processes) == (1, 3)
    assert_same_training(par, ser)


def test_a_forked_empty_facet_stays_at_initialization(monkeypatch, left_clean):
    a = np.zeros((3, 3))
    a[0, 0] = a[1, 1] = 1.0
    fa = facet_adjacency(a, np.zeros((3, 3)))
    g = graph.from_edges([(0, 0), (1, 1)], kind="bipartite", num_a=3, num_b=3)
    config = GcnConfig(dim=4, iterations=30, seed=5)
    ser, par = on_both_paths(monkeypatch, left_clean, g, fa, config)
    assert_same_training(par, ser)
    # facet 1, which a child trained, kept its initial values
    assert_facet_tables(par, 1, *initial_tables(3, 3, fa, config, 1))
    assert par.loss_traces[1] == [] and len(par.loss_traces[0]) == 30


@pytest.mark.parametrize("path", [serial, forked], ids=["serial", "forked"])
def test_each_facet_trains_from_its_own_seed_child(monkeypatch, left_clean, path):
    # train_gcn against a loop that spawns the seed children itself: the
    # parameters from child 0, facet k's negatives from child 1 + k
    g, fa = planted_facets(3)
    config = GcnConfig(dim=3, iterations=6, negatives=2, seed=8)
    init_ss, *facet_ss = np.random.SeedSequence(8).spawn(1 + fa.k)
    model = init_gcn_model(g.num_a, g.num_b, fa, config, seed=init_ss)
    degree_table = GuideTable(g.degrees_b() ** 0.75)
    path(monkeypatch)
    result = train_gcn(g, fa, config)
    left_clean()
    assert result.processes == (1 if path is serial else 3)
    for k in range(fa.k):
        fit = polygcn._train_facet(k, model.facets[k], model.ops[k],
                                   polygcn._cells(fa.mats[k], config.threshold),
                                   facet_ss[k], degree_table, config)
        assert_facet_tables(result, k, fit.u, fit.h)
        assert result.loss_traces[k] == fit.trace


def test_one_facet_trains_in_this_process(monkeypatch, left_clean):
    g, fa = planted_facets(1)
    config = GcnConfig(dim=4, iterations=10, seed=3)
    assert polygcn._facet_workers(1) == 0
    assert train_gcn(g, fa, config).processes == 1
    # a child dealt no facet sends an empty result
    ser, par = on_both_paths(monkeypatch, left_clean, g, fa, config, workers=1)
    assert par.processes == 2
    assert_same_training(par, ser)


def test_more_facets_than_cpus(monkeypatch, left_clean):
    if polygcn._openblas() is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread setter")
    g, fa = planted_facets(5)
    config = GcnConfig(dim=3, iterations=8, seed=4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert polygcn._facet_workers(5) == 2
    par = train_gcn(g, fa, config)
    assert par.processes == 3     # facets 0 and 3 here, 1 and 4, then 2
    left_clean()
    serial(monkeypatch)
    assert_same_training(par, train_gcn(g, fa, config))


def test_facet_workers_falls_back_to_the_serial_loop(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(polygcn, "_openblas", lambda: (lambda: 4, lambda n: None))
    assert [polygcn._facet_workers(k) for k in (1, 2, 3, 5, 8)] == [0, 1, 2, 4, 4]
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {3})
        assert polygcn._facet_workers(3) == 0
    with monkeypatch.context() as m:
        m.setattr(polygcn, "_openblas", lambda: None)
        assert polygcn._facet_workers(3) == 0
    with monkeypatch.context() as m:
        m.setattr(polygcn.sys, "platform", "darwin")
        assert polygcn._facet_workers(3) == 0
    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        assert polygcn._facet_workers(3) == 0
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert polygcn._facet_workers(3) == 0
    finally:
        stop.set()
        other.join()
    assert polygcn._facet_workers(3) == 2


def test_openblas_is_looked_up_on_first_use():
    # looked up at import, it would add to the start-up of every command
    code = ("import polyembed.cli\n"
            "from polyembed import polygcn\n"
            "print(polygcn._openblas.cache_info().currsize)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "0\n"


def test_every_process_trains_with_one_blas_thread(monkeypatch, left_clean):
    found = polygcn._openblas()
    if found is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread setter")
    get_threads = found[0]
    real = polygcn.gcn_loss_and_grads

    def loss_and_grads(*args):
        loss, grads = real(*args)
        return (loss if get_threads() == 1 else float("nan")), grads

    monkeypatch.setattr(polygcn, "gcn_loss_and_grads", loss_and_grads)
    g, fa = planted_facets(3)
    config = GcnConfig(dim=3, iterations=3, seed=1)
    forked(monkeypatch)
    assert train_gcn(g, fa, config).processes == 3
    left_clean()
    # the check is live: the serial loop runs at the 2 threads set here
    serial(monkeypatch)
    with pytest.raises(NumericsError, match="^facet 0 diverged at iteration 1$"):
        train_gcn(g, fa, config)


def diverging(where):
    """gcn_loss_and_grads with a NaN loss in each process that
    `where(pid, parent)` picks. With `where=here`, every other process
    sleeps 30 s first, so that only a kill ends it early."""
    real, parent = polygcn.gcn_loss_and_grads, os.getpid()

    def loss_and_grads(*args):
        loss, grads = real(*args)
        if where(os.getpid(), parent):
            return float("nan"), grads
        if where is here:
            time.sleep(30)
        return loss, grads

    return loss_and_grads


def here(pid, parent):
    return pid == parent


def in_a_child(pid, parent):
    return pid != parent


def test_a_diverging_child_raises_its_error_here(monkeypatch, left_clean):
    g, fa = planted_facets(2)
    forked(monkeypatch)
    monkeypatch.setattr(polygcn, "gcn_loss_and_grads", diverging(in_a_child))
    with pytest.raises(NumericsError, match=r"^facet 1 diverged at iteration 1$"):
        train_gcn(g, fa, GcnConfig(dim=3, iterations=5, seed=1))
    left_clean()


def test_a_failure_here_kills_and_reaps_the_children(monkeypatch, left_clean):
    g, fa = planted_facets(3)
    forked(monkeypatch)
    monkeypatch.setattr(polygcn, "gcn_loss_and_grads", diverging(here))
    start = time.monotonic()
    with pytest.raises(NumericsError, match=r"^facet 0 diverged at iteration 1$"):
        train_gcn(g, fa, GcnConfig(dim=3, iterations=5, seed=1))
    # the children were sleeping through their first iteration
    assert time.monotonic() - start < 20
    left_clean()


def test_a_child_that_ends_without_its_results_is_an_error(monkeypatch, left_clean):
    g, fa = planted_facets(2)
    forked(monkeypatch)
    real = polygcn._train_facet

    def train_facet(k, *args):
        if k == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(k, *args)

    monkeypatch.setattr(polygcn, "_train_facet", train_facet)
    with pytest.raises(ChildProcessError, match=r"facets \[1\] ended with wait "
                                                r"status 9$"):
        train_gcn(g, fa, GcnConfig(dim=3, iterations=5, seed=1))
    left_clean()
