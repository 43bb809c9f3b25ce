import math

import numpy as np
import pytest
from conftest import (finite_difference, make_two_cliques, reference_sgns_train,
                      rel_error, spy_engine_runs, walk_lists)
from hypothesis import given, settings
from hypothesis import strategies as st

from polyembed import facets, graph, kernel, polydeepwalk as pdw, sgd, walks
from polyembed.errors import CapacityError, NumericsError, ValidationError
from polyembed.tables import init_tables
from polyembed.walks import Observation, WalkConfig, sliding_windows


def random_prior(n, k, seed):
    return facets.FacetPrior.from_factor(
        np.random.default_rng(seed).random((n, k)) + 0.01)


def random_tables(n, k, d, seed):
    rng = np.random.default_rng(seed)
    tables = init_tables(n, k, d, seed=seed)
    tables.u[:] = rng.normal(0, 1, tables.u.shape)
    tables.h[:] = rng.normal(0, 1, tables.h.shape)
    return tables


# -------------------------------------------------------------- init_tables

def test_init_tables_range_and_zero_context():
    t = init_tables(2, 2, 4, seed=0)
    assert t.u.size == 16
    assert np.abs(t.u).max() < 0.125
    assert not t.h.any()


def test_init_tables_deterministic():
    a, b = init_tables(3, 2, 5, seed=42), init_tables(3, 2, 5, seed=42)
    assert np.array_equal(a.u, b.u) and np.array_equal(a.h, b.h)


# ---------------------------------------------------------------- pair loss

def test_pair_loss_all_zero_vectors():
    loss, g_u, _, _ = sgd.sgns_loss_and_grads(np.zeros(4), np.zeros(4),
                                              np.zeros((1, 4)))
    assert loss == pytest.approx(2 * math.log(2))
    assert g_u.shape == (4,)


def test_pair_loss_saturation_limit():
    u = np.array([40.0, 0.0])
    positive = np.array([40.0, 0.0])      # strongly aligned
    negative = np.array([[-40.0, 0.0]])   # strongly repelled
    loss = sgd.sgns_loss_and_grads(u, positive, negative)[0]
    assert loss < 1e-10


def test_pair_loss_nonnegative():
    rng = np.random.default_rng(3)
    t = random_tables(4, 2, 3, seed=3)
    for _ in range(20):
        u = t.u[int(rng.integers(4)), int(rng.integers(2))]
        h = t.h[rng.integers(4, size=2), rng.integers(2, size=2)]
        assert sgd.sgns_loss_and_grads(u, h[0], h[1:])[0] >= 0.0


@pytest.mark.parametrize("seed", range(10))
def test_pair_loss_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    n_neg = int(rng.integers(1, 4))
    u = rng.normal(0, 1, d)
    h_ctx = rng.normal(0, 1, d)
    h_neg = rng.normal(0, 1, (n_neg, d))
    _, g_u, g_ctx, g_neg = sgd.sgns_loss_and_grads(u, h_ctx, h_neg)
    for analytic, arr in ((g_u, u), (g_ctx, h_ctx), (g_neg, h_neg)):
        numeric = finite_difference(
            lambda: sgd.sgns_loss_and_grads(u, h_ctx, h_neg)[0], arr)
        assert rel_error(analytic, numeric) < 1e-5


# --------------------------------------------------------- negative sampler

def test_negative_sampler_degenerate_prior_facet():
    prior = facets.FacetPrior.from_factor(np.array([[1.0, 0.0], [1.0, 0.0]]))
    sampler = sgd.NegativeSampler(np.array([3, 5]), prior.dist)
    rng = np.random.default_rng(0)
    nodes, facet_idx = sampler.decode(rng.random(2000), rng.random(2000))
    assert not facet_idx.any()


def test_negative_sampler_power_ratio():
    prior = facets.FacetPrior.uniform(2, 1)
    sampler = sgd.NegativeSampler(np.array([16, 1]), prior.dist)
    rng = np.random.default_rng(1)
    nodes, _ = sampler.decode(rng.random(100_000))
    ratio = (nodes == 0).sum() / (nodes == 1).sum()
    assert 0.95 * 8 <= ratio <= 1.05 * 8


def test_negative_sampler_uniform_pairs():
    prior = facets.FacetPrior.uniform(3, 2)
    sampler = sgd.NegativeSampler(np.array([7, 7, 7]), prior.dist)
    rng = np.random.default_rng(2)
    nodes, facet_idx = sampler.decode(rng.random(120_000), rng.random(120_000))
    for n in range(3):
        for k in range(2):
            freq = ((nodes == n) & (facet_idx == k)).mean()
            assert abs(freq - 1 / 6) < 0.05 / 6


def test_negative_sampler_batch_in_range():
    prior = facets.FacetPrior.uniform(2, 2)
    sampler = sgd.NegativeSampler(np.array([1, 1]), prior.dist)
    rng = np.random.default_rng(0)
    nodes, facet_idx = sampler.decode(rng.random(10), rng.random(10))
    assert ((0 <= nodes) & (nodes < 2) & (0 <= facet_idx) & (facet_idx < 2)).all()


def assert_guide_table_is_binary_search(weights, u):
    """The guide-table draw is searchsorted on the weights' CDF, clamped to
    the last index of positive weight, at `u` and at both edges of every
    bucket, and never an index of weight 0."""
    weights = np.asarray(weights, dtype=np.float64)
    table = sgd.GuideTable(weights)
    m = table.m
    assert m & (m - 1) == 0 and 2 * len(weights) <= m < 4 * len(weights)
    j = np.arange(m)
    u = np.concatenate([u, j / m, np.nextafter((j + 1) / m, 0)])
    cdf = np.cumsum(weights)
    expected = np.minimum(np.searchsorted(cdf, u * cdf[-1], side="right"),
                          np.flatnonzero(weights)[-1])
    index = table.decode(u)
    assert np.array_equal(index, expected)
    assert (weights[index] > 0).all()
    # the (S, R) shape of a decode
    index = table.decode(u[:len(u) // 2 * 2].reshape(-1, 2))
    assert np.array_equal(index.ravel(), expected[:len(u) // 2 * 2])


@settings(max_examples=200, deadline=None)
@given(weights=st.lists(st.one_of(st.sampled_from([0.0, 1e-300, 1.0, 1e6]),
                                  st.floats(0, 1e9)), min_size=1, max_size=60)
       .filter(lambda w: sum(w) > 0),
       u=st.lists(st.floats(0, 1, exclude_max=True), max_size=50))
def test_guide_table_equals_binary_search(weights, u):
    """Zero and 1e-300 weights leave steps of the CDF flat or below its
    rounding, a large weight next to small ones puts many indices in one
    bucket, past the one linear step, and a subnormal total lets u * total
    round up to the total."""
    assert_guide_table_is_binary_search(weights, np.array(u, dtype=np.float64))


@pytest.mark.parametrize("counts", [
    [1e6] + [1.0] * 50,          # 50 indices share the last buckets
    [0.0] * 10 + [1.0] + [0.0] * 10,
    [1e-300] * 5 + [1.0],
    [3.0],
    [1.1125369292536007e-308, 0.0],   # u * total rounds up to the total
    [1.0] * 3,                   # PolyPTE's unweighted edges
    [1.0] * 4320,
])
def test_guide_table_edge_cases(counts):
    u = np.append(np.random.default_rng(0).random(5_000), 1 - 2.0**-53)
    assert_guide_table_is_binary_search(counts, u)
    if set(counts) == {1.0}:
        # unit weights draw floor(u * n), as the conftest references do,
        # also at every k / n and one ulp below it
        n = len(counts)
        k = np.arange(n) / n
        u = np.concatenate([u, k, np.nextafter(k, 0)])
        assert np.array_equal(sgd.GuideTable(counts).decode(u),
                              np.minimum((u * n).astype(np.int64), n - 1))


def test_negative_facets_count_columns_of_the_prior_cdf():
    """The sampler's facets equal the inverse-CDF draw over all K sums of
    each negative's prior row, clamped to K - 1."""
    rng = np.random.default_rng(3)
    for k in (2, 3, 9):
        dist = rng.random((40, k))
        dist[rng.random(dist.shape) < 0.3] = 0.0
        prior = facets.FacetPrior.from_factor(dist)
        sampler = sgd.NegativeSampler(rng.integers(1, 9, 40), prior.dist)
        u_nodes, u_facets = rng.random((500, 7)), rng.random((500, 7))
        nodes, facet_idx = sampler.decode(u_nodes, u_facets)
        rows = np.cumsum(prior.dist, axis=1)[nodes]
        below = rows <= (u_facets * rows[..., -1])[..., None]
        assert np.array_equal(facet_idx, np.minimum(below.sum(axis=-1), k - 1))


def test_negative_counts_skip_pads(monkeypatch):
    """The sampler counts each node once per corpus occurrence, as the
    framed corpus does, -1 pads left out."""
    g = make_two_cliques(clique=4)
    corpus = walks.generate_walks(g, WalkConfig(walks_per_node=3, walk_length=6,
                                                seed=2))
    corpus[::3, 4:] = -1
    corpus[1, 1:] = -1
    flat, _ = pdw._observations(corpus, g.num_nodes, 2)
    seen = []

    class Recording(sgd.NegativeSampler):
        def __init__(self, counts, dist):
            seen.append(counts)
            super().__init__(counts, dist)

    monkeypatch.setattr(pdw, "NegativeSampler", Recording)
    pdw.train(g, facets.FacetPrior.uniform(g.num_nodes), corpus,
              pdw.TrainConfig(dim=2, negatives=1, epochs=1, window=2))
    assert np.array_equal(seen[0], np.bincount(flat[flat >= 0],
                                               minlength=g.num_nodes))


# ------------------------------------------------------------------- train

@pytest.fixture
def clique_setup():
    g = make_two_cliques(clique=4)
    a = graph.adjacency_dense(g)
    prior = facets.FacetPrior.from_factor(
        facets.symmetric_nmf(a, 2, seed=0).factors[0])
    corpus = walks.generate_walks(
        g, WalkConfig(walks_per_node=15, walk_length=8, seed=0))
    return g, prior, corpus


def test_training_loss_decreases(clique_setup):
    g, prior, corpus = clique_setup
    result = pdw.train(g, prior, corpus,
                       pdw.TrainConfig(dim=8, epochs=5, window=3, seed=0))
    assert result.epoch_losses[4] < result.epoch_losses[0]


def test_training_deterministic(clique_setup):
    g, prior, corpus = clique_setup
    config = pdw.TrainConfig(dim=8, epochs=2, window=3, seed=7)
    r1 = pdw.train(g, prior, corpus, config)
    r2 = pdw.train(g, prior, corpus, config)
    assert np.array_equal(r1.tables.u, r2.tables.u)
    assert np.array_equal(r1.tables.h, r2.tables.h)
    assert r1.epoch_losses == r2.epoch_losses


def test_tables_stay_finite(clique_setup):
    g, prior, corpus = clique_setup
    result = pdw.train(g, prior, corpus,
                       pdw.TrainConfig(dim=8, epochs=3, window=3, seed=1,
                                       learning_rate=0.5))
    assert np.isfinite(result.tables.u).all()
    assert np.isfinite(result.tables.h).all()


def test_single_facet_reduction_matches_reference(clique_setup):
    g, _, corpus = clique_setup
    uniform = facets.FacetPrior.uniform(g.num_nodes, 1)
    config = pdw.TrainConfig(dim=6, negatives=4, epochs=1, window=3, seed=5)

    checksums = []

    def hook(step, tables):
        if step < 100:
            checksums.append((tables.u.sum(), np.abs(tables.h).sum()))

    pdw.train(g, uniform, corpus, config, hook=hook)

    ref_checksums = []

    def ref_hook(step, u, h):
        if step < 100:
            ref_checksums.append((u.sum(), np.abs(h).sum()))

    reference_sgns_train(g, corpus, dim=6, negatives=4, epochs=1,
                         learning_rate=0.025, window=3, seed=5,
                         max_updates=100, on_update=ref_hook)
    assert checksums[:100] == ref_checksums[:100]


def test_facet_respect_zero_prior_rows_untouched(clique_setup):
    g, _, corpus = clique_setup
    # facet 1 impossible for every node: its rows must keep their init values
    p = np.zeros((g.num_nodes, 2))
    p[:, 0] = 1.0
    prior = facets.FacetPrior.from_factor(p)
    config = pdw.TrainConfig(dim=4, epochs=1, window=3, seed=3)
    result = pdw.train(g, prior, corpus, config)
    fresh = init_tables(g.num_nodes, 2, 4,
                        seed=np.random.SeedSequence(3).spawn(2)[0])
    assert np.array_equal(result.tables.u[:, 1], fresh.u[:, 1])
    assert not result.tables.h[:, 1].any()


def test_facet_respect_instrumented_sampler(clique_setup, monkeypatch):
    """On both decode paths every activated (node, facet) of a step has a
    positive min-rule conditional for its observation, so a facet the prior
    rules out is never activated."""
    g, _, corpus = clique_setup
    p = np.random.default_rng(3).random((g.num_nodes, 2)) + 0.1
    p[:3, 1] = 0.0      # three nodes whose prior rules facet 1 out
    p[5, 0] = 0.0
    prior = facets.FacetPrior.from_factor(p)
    config = pdw.TrainConfig(dim=4, epochs=1, window=3, seed=2)
    for path in ("compiled", "numpy"):
        with monkeypatch.context() as patched:
            calls = spy_engine_runs(patched)
            if path == "numpy":
                patched.setattr(kernel, "function", lambda name: None)
            kind = pdw.train(g, prior, corpus, config).engine
        assert kind == ("numpy" if path == "numpy" or kernel.function("sgd_chunk")
                        is None else "c")
        assert calls
        for engine, (_, target, context, *_), steps in calls:
            dist, dist_context = engine.dist, engine.dist_context
            p_o = sgd.observation_distribution(target, context, dist, dist_context)
            # steps run observation by observation, facet_rate per context
            owner = np.repeat(np.arange(len(target)),
                              engine.facet_rate * (context >= 0).sum(axis=1))
            assert np.array_equal(steps.target // prior.k, target[owner])
            for rows, d in ((steps.target, dist), (steps.context, dist_context)):
                node, facet = np.divmod(rows, prior.k)
                cond = facets.conditional_distribution(d[node], p_o[owner],
                                                       engine.mode)
                assert (cond[np.arange(len(rows)), facet] > 0).all()
                assert (d[node, facet] > 0).all()


def test_nan_in_tables_aborts_with_diagnostic(clique_setup):
    g, prior, corpus = clique_setup

    def poison(step, tables):
        if step == 5:
            tables.u[0, 0, 0] = np.nan

    with pytest.raises(NumericsError, match="epoch 0"):
        pdw.train(g, prior, corpus,
                  pdw.TrainConfig(dim=4, epochs=1, window=3, seed=0),
                  hook=poison)


def test_train_validates_inputs(clique_setup):
    g, prior, corpus = clique_setup
    with pytest.raises(ValidationError):
        pdw.train(g, prior, [], pdw.TrainConfig())
    short = facets.FacetPrior.uniform(g.num_nodes - 1, 2)
    with pytest.raises(ValidationError):
        pdw.train(g, short, corpus, pdw.TrainConfig())


def test_train_rejects_pads_inside_a_walk_and_other_negative_ids(clique_setup):
    g, prior, corpus = clique_setup
    config = pdw.TrainConfig(dim=4, epochs=1, window=3)
    gap, below = corpus.copy(), corpus.copy()
    gap[0, 2] = -1
    below[0, -1] = -2
    with pytest.raises(ValidationError, match="pads"):
        pdw.train(g, prior, gap, config)
    with pytest.raises(ValidationError, match="out of range"):
        pdw.train(g, prior, below, config)


@pytest.mark.parametrize("window", [1, 2, 6])
def test_observations_frame_ragged_walks_as_sliding_windows(window):
    corpus = np.array([[0, 1, 2, 3, 4], [5, 6, -1, -1, -1], [7, -1, -1, -1, -1],
                       [1, 2, 3, -1, -1], [4, 4, 4, 4, 0]])
    flat, centers = pdw._observations(corpus, 8, window)
    assert flat.dtype == np.int32
    offsets = np.r_[-window:0, 1:window + 1]
    got = [Observation(int(flat[c]), tuple(int(v) for v in flat[c + offsets]
                                           if v >= 0)) for c in centers]
    assert got == [o for walk in walk_lists(corpus)
                   for o in sliding_windows(walk, window)]


def test_decode_sees_int64_ids_from_an_int32_frame(clique_setup, monkeypatch):
    """node * K + facet must not wrap around in int32."""
    g, prior, corpus = clique_setup
    runs = spy_engine_runs(monkeypatch)
    pdw.train(g, prior, corpus, pdw.TrainConfig(dim=4, epochs=1, window=3))
    assert {(args[1].dtype, args[2].dtype) for _, args, _ in runs} == {
        (np.dtype(np.int64), np.dtype(np.int64))}


# ------------------------------------------------------ exact objective

def test_exact_objective_k1_equality():
    prior = facets.FacetPrior.uniform(4, 1)
    tables = random_tables(4, 1, 3, seed=1)
    le, ll = pdw.exact_objective_small(Observation(0, (1, 2)), prior, tables)
    assert le == pytest.approx(ll, abs=1e-12)


def test_exact_objective_one_hot_equality():
    p = np.zeros((4, 3))
    p[[0, 1, 2, 3], [0, 2, 1, 0]] = 1.0
    prior = facets.FacetPrior.from_factor(p)
    tables = random_tables(4, 3, 3, seed=2)
    le, ll = pdw.exact_objective_small(Observation(0, (1, 3)), prior, tables)
    assert le == pytest.approx(ll, abs=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_jensen_bound_random_instances(seed):
    rng = np.random.default_rng(seed)
    n, k = 5, int(rng.integers(1, 4))
    prior = random_prior(n, k, seed)
    tables = random_tables(n, k, 3, seed)
    ctx = tuple(int(x) for x in rng.integers(0, n, int(rng.integers(1, 3))))
    obs = Observation(int(rng.integers(n)), ctx)
    le, ll = pdw.exact_objective_small(obs, prior, tables)
    assert ll <= le + 1e-12


def test_exact_objective_enumeration_guard():
    prior = random_prior(8, 3, 0)
    tables = random_tables(8, 3, 2, 0)
    obs = Observation(0, tuple(range(1, 8)) * 2)
    with pytest.raises(CapacityError):
        pdw.exact_objective_small(obs, prior, tables, enumeration_cap=100)


def test_train_config_validation():
    with pytest.raises(ValidationError):
        pdw.TrainConfig(dim=0)
    with pytest.raises(ValidationError):
        pdw.TrainConfig(negatives=0)
    with pytest.raises(ValidationError):
        pdw.TrainConfig(learning_rate=0.0)
