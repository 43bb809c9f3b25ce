"""The decode-then-update engine against the per-step facet trainers,
and the compiled step loop against the numpy loop.

Tables must be bit-identical and the hook must see the same steps, at
the default chunk size and at a chunk size that leaves every run ending
off a chunk boundary. A hook runs the numpy loop; without one the
compiled kernel runs, and its tables and loss traces must agree with the
numpy loop's to 1e-12 relative to the largest entry.
"""

import math
import tracemalloc

import numpy as np
import pytest
from conftest import (bucket_means, make_planted_bipartite, make_two_cliques,
                      reference_polydeepwalk, reference_polypte)

from polyembed import facets, graph, kernel, polydeepwalk as pdw, polypte, sgd, walks
from polyembed.errors import NumericsError

CHUNKS = [sgd.CHUNK, 7]


def bipartite_prior(g, k, seed):
    rng = np.random.default_rng(seed)
    p = rng.random((g.num_a, k))
    p[0, 1:] = 0.0          # a row whose min-rule rules facets out
    return facets.FacetPrior.from_factors(p, rng.random((g.num_b, k)))


@pytest.fixture
def weighted_bipartite():
    g = make_planted_bipartite(3, n_side=12, p_in=0.5, p_out=0.05)
    weights = np.random.default_rng(0).random(g.num_edges) + 0.1
    return graph.from_edges(
        [(int(a), int(b), float(w)) for (a, b), w in zip(g.edges, weights)],
        kind="bipartite")


@pytest.mark.parametrize("chunk", CHUNKS)
def test_deepwalk_matches_per_step_trainer(chunk, monkeypatch):
    """At K=3, and at K=1 (uniform prior), where decode draws no facets."""
    monkeypatch.setattr(sgd, "CHUNK", chunk)
    g = make_two_cliques(clique=4)
    p = np.random.default_rng(1).random((g.num_nodes, 3))
    p[0, :2] = 0.0
    corpus = walks.generate_walks(
        g, walks.WalkConfig(walks_per_node=5, walk_length=7, seed=1))
    # a one-node walk, -1-padded, yields no observation
    corpus = np.vstack([corpus, [3] + [-1] * (corpus.shape[1] - 1)])
    config = pdw.TrainConfig(dim=5, negatives=3, facet_rate=2, epochs=2,
                             window=3, seed=4)
    for prior in (facets.FacetPrior.from_factor(p),
                  facets.FacetPrior.uniform(g.num_nodes)):
        steps, ref_steps = [], []
        result = pdw.train(g, prior, corpus, config,
                           hook=lambda step, tables: steps.append(step))
        ref_tables, ref_epoch_losses, _ = reference_polydeepwalk(
            g, prior, corpus, config,
            hook=lambda step, tables: ref_steps.append(step))
        assert np.array_equal(result.tables.u, ref_tables.u)
        assert np.array_equal(result.tables.h, ref_tables.h)
        assert steps == ref_steps
        assert result.epoch_losses == ref_epoch_losses


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("k,mode,weighted", [(3, "observation", False),
                                             (3, "min", True),
                                             (1, "observation", False),
                                             (1, "observation", True)])
def test_pte_matches_per_step_trainer(chunk, k, mode, weighted,
                                      weighted_bipartite, monkeypatch):
    monkeypatch.setattr(sgd, "CHUNK", chunk)
    g = weighted_bipartite
    prior = bipartite_prior(g, k, seed=k)
    config = polypte.PteConfig(dim=4, negatives=3, total_samples=61, seed=2,
                               facet_mode=mode, weighted_edges=weighted)
    steps, ref_steps = [], []
    result = polypte.train_pte(g, prior, config,
                               hook=lambda step, tables: steps.append(step))
    ref_tables, ref_losses = reference_polypte(
        g, prior, config, hook=lambda step, tables: ref_steps.append(step))
    assert np.array_equal(result.tables.u, ref_tables.u)
    assert np.array_equal(result.tables.h, ref_tables.h)
    assert steps == ref_steps
    expected = bucket_means(ref_losses, polypte.TRACE_POINTS)
    assert len(result.loss_trace) == len(expected)
    np.testing.assert_allclose(result.loss_trace, expected, rtol=1e-12, atol=0)


def test_observation_distribution_is_the_mean_prior():
    """An edge's is the mean of its endpoints' priors; a window's averages
    its target and the contexts present, skipping -1 pads."""
    dist = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    p_o = sgd.observation_distribution(np.array([0, 0]),
                                       np.array([[1, -1], [1, 2]]), dist, dist)
    np.testing.assert_allclose(p_o, [[0.5, 0.0, 0.5], [1 / 3, 1 / 3, 1 / 3]])


def test_pte_nan_aborts_with_edge_sample(weighted_bipartite):
    g = weighted_bipartite
    prior = bipartite_prior(g, 2, seed=0)

    def poison(step, tables):
        if step == 5:
            tables.u[:] = np.nan

    config = polypte.PteConfig(dim=4, negatives=2, total_samples=20, seed=0,
                               facet_rate=1)
    with pytest.raises(NumericsError, match="edge sample 6"):
        polypte.train_pte(g, prior, config, hook=poison)


def test_pte_decode_memory_does_not_grow_with_samples(weighted_bipartite):
    g = weighted_bipartite
    prior = bipartite_prior(g, 2, seed=1)

    def peak(samples):
        config = polypte.PteConfig(dim=2, negatives=1, total_samples=samples,
                                   facet_rate=1, seed=0)
        tracemalloc.start()
        try:
            polypte.train_pte(g, prior, config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2_000), peak(20_000)
    assert large < 2 * small


def test_sgns_loss_matches_textbook_formula():
    """The engine's ufunc form gives the values of the np.clip / np.outer
    form bit for bit, including non-finite inputs."""
    def textbook(u_cen, h_ctx, h_neg):
        sp = min(max(float(h_ctx @ u_cen), -30.0), 30.0)
        e_neg = np.exp(np.clip(h_neg @ u_cen, -30.0, 30.0))
        p_neg = e_neg / (1.0 + e_neg)
        p_pos = 1.0 / (1.0 + math.exp(-sp))
        loss = math.log1p(math.exp(-sp)) + float(np.log1p(e_neg).sum())
        return (loss, (p_pos - 1.0) * h_ctx + h_neg.T @ p_neg,
                (p_pos - 1.0) * u_cen, np.outer(p_neg, u_cen))

    rng = np.random.default_rng(0)
    for trial in range(500):
        d, r = int(rng.integers(1, 20)), int(rng.integers(1, 20))
        scale = 10 ** rng.uniform(-3, 2)
        args = (rng.normal(0, scale, d), rng.normal(0, scale, d),
                rng.normal(0, scale, (r, d)))
        if trial % 50 == 0:
            args[2][0, 0] = np.nan
        for got, want in zip(sgd.sgns_loss_and_grads(*args), textbook(*args)):
            assert np.array_equal(got, want, equal_nan=True)


KERNEL_RTOL = 1e-12


def deepwalk_run(k):
    g = make_two_cliques(clique=4)
    p = np.random.default_rng(1).random((g.num_nodes, k))
    p[0, :k - 1] = 0.0
    corpus = walks.generate_walks(
        g, walks.WalkConfig(walks_per_node=5, walk_length=7, seed=1))
    config = pdw.TrainConfig(dim=5, negatives=3, facet_rate=2, epochs=2,
                             window=3, seed=4)
    return lambda: pdw.train(g, facets.FacetPrior.from_factor(p), corpus, config)


def pte_run(g, k):
    config = polypte.PteConfig(dim=4, negatives=3, total_samples=301, seed=2,
                               facet_mode="min")
    return lambda: polypte.train_pte(g, bipartite_prior(g, k, seed=k), config)


def assert_close(got, want):
    scale = np.abs(want).max()
    assert np.abs(np.asarray(got) - want).max() <= KERNEL_RTOL * scale


@pytest.mark.parametrize("model,k", [("deepwalk", 4), ("deepwalk", 1),
                                     ("pte", 3), ("pte", 1)])
def test_kernel_matches_numpy_engine(model, k, compiled_kernel, weighted_bipartite,
                                     monkeypatch):
    run = deepwalk_run(k) if model == "deepwalk" else pte_run(weighted_bipartite, k)
    compiled, again = run(), run()
    monkeypatch.setattr(kernel, "function", lambda name: None)
    reference = run()
    assert (compiled.engine, reference.engine) == ("c", "numpy")
    assert_close(compiled.tables.u, reference.tables.u)
    assert_close(compiled.tables.h, reference.tables.h)
    assert_close(compiled[1], reference[1])   # epoch losses / loss trace
    assert np.array_equal(compiled.tables.u, again.tables.u)
    assert np.array_equal(compiled.tables.h, again.tables.h)
    assert compiled[1] == again[1]


def poisoned_engine():
    engine = sgd.Engine(6, 5, 2, 3, seed=0, learning_rate=0.1,
                        total_steps=8, bucket=4)
    engine.u[7] = np.nan
    rows = np.array([0, 3, 7, 1])
    return engine, sgd.Steps(rows, rows, np.array([[1, 2]] * 4),
                             np.array([20, 21, 22, 23]))


def test_nan_row_raises_at_its_step_on_both_engines(compiled_kernel, monkeypatch):
    engine, steps = poisoned_engine()
    before = engine.tables.h.copy()
    with pytest.raises(NumericsError, match="edge sample 22"):
        engine.apply(steps, "edge sample")
    assert not np.array_equal(engine.tables.h, before)   # steps 0, 1 ran
    assert np.isfinite(engine.tables.h).all()
    monkeypatch.setattr(kernel, "function", lambda name: None)
    engine, steps = poisoned_engine()
    with pytest.raises(NumericsError, match="edge sample 22"):
        engine.apply(steps, "edge sample")


@pytest.mark.parametrize("field", ["target", "context", "negatives"])
def test_kernel_rejects_rows_outside_the_tables(field, compiled_kernel):
    engine, steps = poisoned_engine()
    engine.u[7] = 0.0
    bad = getattr(steps, field).copy()
    bad.flat[-1] = len(engine.u) if field == "target" else -1
    with pytest.raises(IndexError):
        engine.apply(steps._replace(**{field: bad}), "edge sample")
