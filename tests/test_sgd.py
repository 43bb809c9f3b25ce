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
from hypothesis import given, settings
from hypothesis import strategies as st

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


def deepwalk_run(k, hook=None):
    g = make_two_cliques(clique=4)
    p = np.random.default_rng(1).random((g.num_nodes, k))
    p[0, :k - 1] = 0.0
    corpus = walks.generate_walks(
        g, walks.WalkConfig(walks_per_node=5, walk_length=7, seed=1))
    config = pdw.TrainConfig(dim=5, negatives=3, facet_rate=2, epochs=2,
                             window=3, seed=4)
    return lambda: pdw.train(g, facets.FacetPrior.from_factor(p), corpus, config,
                             hook)


def pte_run(g, k, mode="min", weighted=False, hook=None):
    config = polypte.PteConfig(dim=4, negatives=3, total_samples=301, seed=2,
                               facet_mode=mode, weighted_edges=weighted)
    return lambda: polypte.train_pte(g, bipartite_prior(g, k, seed=k), config,
                                     hook)


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
    assert compiled.facet_counts == reference.facet_counts


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


# ------------------------------------------------------- the compiled decode

def decode_both(*args):
    """The kernel's Steps of a chunk, or None where it declines, and the
    numpy decode's."""
    return sgd._decode_compiled(*args), sgd.decode(*args)


def assert_same_steps(got, want):
    for name, a, b in zip(sgd.Steps._fields, got, want):
        assert a.shape == b.shape and np.array_equal(a, b), name


def random_chunk(rng, k, n, c, n_target, n_context, negatives, facet_rate,
                 padded=True):
    """Targets, contexts (-1 where a context is missing, at any column),
    priors with zeros, all-zero rows and subnormal rows, negative counts
    with zeros, and the chunk's uniforms, two too many."""
    def prior(rows):
        p = rng.random((rows, k)) * (rng.random((rows, k)) < 0.6)
        p[rng.random(rows) < 0.15] = 0.0
        tiny = rng.random(rows) < 0.1
        p[tiny, 0] = 5e-324
        p[tiny, 1:] = 0.0
        return p / np.where(p.sum(axis=1) > 1e-300, p.sum(axis=1), 1.0)[:, None]

    dist, dist_context = prior(n_target), prior(n_context)
    counts = rng.integers(0, 4, n_context)
    counts[rng.integers(n_context)] = 2
    target = rng.integers(0, n_target, n)
    context = rng.integers(-1 if padded else 0, n_context, (n, c))
    width = (context >= 0).sum(axis=1)
    total = facet_rate * int(sgd.uniforms_per_round(width, k, negatives).sum())
    return (rng.random(total + 2), target, context, dist, dist_context,
            sgd.NegativeSampler(counts, dist_context))


def on_boundaries(rng, uniforms, target, context, dist, dist_context,
                  facet_rate, mode, sampler, negatives):
    """`uniforms` with 5% set to 0, 1 - 2^-53 or 1, and then each facet
    uniform of a target or context moved onto a boundary of its numpy
    conditional CDF: the least u with u * cdf[-1] >= cdf[j], for a random
    j < K - 1, so that a CDF entry one ulp off changes the facet. The
    layout is the one `uniforms_per_round` documents, walked one
    observation at a time."""
    u = uniforms.copy()
    edge = rng.random(len(u)) < 0.05
    u[edge] = rng.choice([0.0, 1 - 2**-53, 1.0], edge.sum())
    k = sampler.k
    if k == 1:
        return u
    p_o = sgd.observation_distribution(target, context, dist, dist_context)
    at = 0
    for i, row in enumerate(context):
        own = np.vstack([dist[target[i]], dist_context[row[row >= 0]]])
        cdfs = np.cumsum(facets.conditional_distribution(
            own, np.broadcast_to(p_o[i], own.shape), mode), axis=-1)
        for _ in range(facet_rate):
            for position, cdf in enumerate(cdfs):
                x, last = cdf[rng.integers(k - 1)], cdf[-1]
                if last > 0 and x <= last:
                    # x / last is within a few ulps of the boundary, unless
                    # last is subnormal, where the search gives up
                    v = min(x / last, 1.0)
                    for _ in range(8):
                        if v > 0 and np.nextafter(v, 0) * last >= x:
                            v = np.nextafter(v, 0)
                        elif v * last < x:
                            v = np.nextafter(v, 1)
                    u[at + position] = v
            at += sgd.uniforms_per_round(len(own) - 1, k, negatives)
    return u


@settings(max_examples=250, deadline=None)
@given(k=st.sampled_from([1, 2, 7, 8, 9, 130]),
       mode=st.sampled_from(["min", "observation"]),
       n=st.integers(0, 12), c=st.integers(1, 6), negatives=st.integers(0, 30),
       facet_rate=st.integers(1, 9), strided=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_compiled_decode_is_the_numpy_decode(k, mode, n, c, negatives, facet_rate,
                                             strided, seed):
    """Every array equal to numpy's, with facet uniforms on the CDF
    boundaries; K >= 128 declines, and `decode` then runs numpy's."""
    if kernel.function("decode_steps") is None:
        pytest.skip("no compiled kernel")
    rng = np.random.default_rng(seed)
    uniforms, target, context, dist, dist_context, sampler = random_chunk(
        rng, k, n, c, int(rng.integers(1, 20)), int(rng.integers(1, 20)),
        negatives, facet_rate)
    uniforms = on_boundaries(rng, uniforms, target, context, dist, dist_context,
                             facet_rate, mode, sampler, negatives)
    if strided:     # every other column of a wider array, and a strided prior
        wide = np.full((n, 2 * c), -1)
        wide[:, ::2] = context
        context = wide[:, ::2]
        dist = np.asfortranarray(dist)
    args = (uniforms, target, context, dist, dist_context, facet_rate, mode,
            int(rng.integers(0, 1000)), sampler, negatives)
    got, want = decode_both(*args)
    assert (got is None) == (k >= 128)
    assert_same_steps(sgd.decode(*args, "c"), want)
    if got is not None:
        assert_same_steps(got, want)


@pytest.mark.parametrize("shape", ["walk-sbm", "edge-bipartite-observation",
                                   "edge-bipartite-min"])
def test_compiled_decode_on_bench_shaped_chunks(shape, compiled_kernel):
    """Chunks of CHUNK observations as the benchmark's trainers decode
    them: a window of 2 with its pads (K = 4, R = 5, 2 rounds), and one
    item per edge (K = 3, R = 5, 9 rounds) in both facet modes."""
    rng = np.random.default_rng(len(shape))
    for first in range(0, 10 * sgd.CHUNK, sgd.CHUNK):
        if shape == "walk-sbm":
            chunk = random_chunk(rng, 4, sgd.CHUNK, 4, 400, 400, 5, 2)
            args = (*chunk[:5], 2, "min", first, chunk[5], 5)
        else:
            chunk = random_chunk(rng, 3, sgd.CHUNK, 1, 600, 60, 5, 9, padded=False)
            args = (*chunk[:5], 9, shape.rsplit("-", 1)[1], first, chunk[5], 5)
        got, want = decode_both(*args)
        assert got is not None
        assert_same_steps(got, want)


def spied_decodes(monkeypatch):
    """Records each `sgd.decode` call's arguments and result, and each
    result of the kernel's decode."""
    calls, compiled = [], []
    decode, decode_compiled = sgd.decode, sgd._decode_compiled

    def spy(*args):
        steps = decode(*args)
        calls.append((args, steps))
        return steps

    def spy_compiled(*args):
        compiled.append(decode_compiled(*args))
        return compiled[-1]

    monkeypatch.setattr(sgd, "decode", spy)
    monkeypatch.setattr(sgd, "_decode_compiled", spy_compiled)
    return calls, compiled


WHOLE_RUNS = [("deepwalk", 4, "min", False), ("deepwalk", 1, "min", False),
              *[("pte", 3, mode, weighted) for mode in ("observation", "min")
                for weighted in (False, True)],
              ("pte", 1, "observation", True)]


def whole_run(g, model, k, mode, weighted, hook=None):
    if model == "deepwalk":
        return deepwalk_run(k, hook)
    return pte_run(g, k, mode, weighted, hook)


@pytest.mark.parametrize("model,k,mode,weighted", WHOLE_RUNS)
def test_every_chunk_of_a_run_decodes_as_numpy(model, k, mode, weighted,
                                               compiled_kernel, weighted_bipartite,
                                               monkeypatch):
    """The kernel decodes every chunk of a run, each as numpy does, and the
    run's facet counts are those of the decoded rows."""
    numpy_decode = sgd.decode
    calls, compiled = spied_decodes(monkeypatch)
    result = whole_run(weighted_bipartite, model, k, mode, weighted)()
    assert calls and len(compiled) == len(calls)
    assert all(steps is not None for steps in compiled)
    counts = np.zeros(k, dtype=np.int64)
    for (*args, kind), steps in calls:
        assert kind == "c"
        assert_same_steps(steps, numpy_decode(*args))
        counts += sum(np.bincount(rows % k, minlength=k) for rows in steps[:2])
    assert result.facet_counts == counts.tolist()


@pytest.mark.parametrize("model,k,mode,weighted", WHOLE_RUNS[::2])
def test_a_run_with_a_hook_decodes_in_numpy(model, k, mode, weighted,
                                            weighted_bipartite, monkeypatch):
    calls, compiled = spied_decodes(monkeypatch)
    whole_run(weighted_bipartite, model, k, mode, weighted,
              hook=lambda step, tables: None)()
    assert calls and {args[-1] for args, _ in calls} == {"numpy"}
    assert compiled == []
