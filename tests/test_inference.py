import numpy as np
import pytest
from conftest import similarity_double_loop

from polyembed import evaluation, facets, graph, inference
from polyembed.errors import ValidationError
from polyembed.tables import EmbeddingTables, init_tables


def random_setup(n, k, d, seed, num_b=None):
    rng = np.random.default_rng(seed)
    if num_b is None:
        prior = facets.FacetPrior.from_factor(rng.random((n, k)) + 0.01)
        tables = init_tables(n, k, d, seed=seed)
    else:
        prior = facets.FacetPrior.from_factors(rng.random((n, k)) + 0.01,
                                               rng.random((num_b, k)) + 0.01)
        tables = init_tables(n, k, d, seed=seed, num_context=num_b)
    tables.u[:] = rng.normal(0, 1, tables.u.shape)
    tables.h[:] = rng.normal(0, 1, tables.h.shape)
    return prior, tables


# ------------------------------------------------------------------ concat

def test_concat_k1_same_under_both_flags():
    prior, tables = random_setup(3, 1, 4, seed=0)
    plain = inference.concat(tables, prior, weighted=False)
    weighted = inference.concat(tables, prior, weighted=True)
    assert np.allclose(plain, weighted)
    assert np.allclose(plain, tables.u[:, 0])


def test_concat_weighted_scales_blocks():
    prior = facets.FacetPrior.from_factor(np.array([[0.5, 0.5]]))
    tables = EmbeddingTables(u=np.array([[[2.0, 0.0], [0.0, 4.0]]]),
                             h=np.zeros((1, 2, 2)))
    row = inference.concat(tables, prior, weighted=True)[0]
    assert np.allclose(row, [1.0, 0.0, 0.0, 2.0])


def test_concat_one_hot_zeroes_other_block():
    prior = facets.FacetPrior.from_factor(np.array([[1.0, 0.0]]))
    tables = EmbeddingTables(u=np.ones((1, 2, 3)), h=np.zeros((1, 2, 3)))
    row = inference.concat(tables, prior, weighted=True)[0]
    assert np.allclose(row, [1, 1, 1, 0, 0, 0])


def test_concat_shape_mismatch():
    prior, _ = random_setup(3, 2, 4, seed=1)
    tables = init_tables(4, 2, 4, seed=0)
    with pytest.raises(ValidationError):
        inference.concat(tables, prior)


# -------------------------------------------------------------- similarity

def test_similarity_k1_is_dot_product():
    prior, tables = random_setup(3, 1, 4, seed=2)
    expected = float(tables.u[0, 0] @ tables.u[1, 0])
    assert inference.similarity(0, 1, tables, prior) == pytest.approx(expected)


def test_similarity_one_hot_single_term():
    p = np.zeros((2, 3))
    p[0, 1] = 1.0
    p[1, 2] = 1.0
    prior = facets.FacetPrior.from_factor(p)
    _, tables = random_setup(2, 3, 4, seed=3)
    expected = float(tables.u[0, 1] @ tables.u[1, 2])
    assert inference.similarity(0, 1, tables, prior) == pytest.approx(expected)


@pytest.mark.parametrize("seed", range(10))
def test_similarity_matches_double_loop(seed):
    prior, tables = random_setup(5, 3, 4, seed=seed)
    i, j = 1, 4
    assert inference.similarity(i, j, tables, prior) == pytest.approx(
        similarity_double_loop(i, j, tables, prior), abs=1e-12)


def test_similarity_symmetric_homogeneous():
    prior, tables = random_setup(4, 2, 3, seed=4)
    assert inference.similarity(0, 3, tables, prior) == pytest.approx(
        inference.similarity(3, 0, tables, prior), abs=1e-12)


def test_similarity_bilinear_in_prior():
    prior, tables = random_setup(3, 2, 3, seed=5)
    base = inference.similarity(0, 1, tables, prior)
    dist = prior.dist.copy()
    dist[0] *= 3.0   # scale only the query node's (unnormalized) weights
    scaled = facets.FacetPrior(p=prior.p, dist=dist)
    assert inference.similarity(0, 1, tables, scaled) == pytest.approx(
        3.0 * base, abs=1e-9)


def test_similarity_cross_type():
    prior, tables = random_setup(3, 2, 4, seed=6, num_b=5)
    got = inference.similarity(1, 2, tables, prior, mode="cross")
    expected = similarity_double_loop(1, 2, tables, prior, mode="cross")
    assert got == pytest.approx(expected, abs=1e-12)


def test_cross_similarity_needs_bipartite_prior():
    prior, tables = random_setup(3, 2, 4, seed=7)
    with pytest.raises(ValidationError):
        inference.similarity(0, 1, tables, prior, mode="cross")


def test_cross_diagonal_keeps_matching_facets_only():
    prior, tables = random_setup(3, 2, 4, seed=8, num_b=3)
    expected = sum(prior.dist[0][k] * prior.dist_b[1][k]
                   * float(tables.u[0, k] @ tables.h[1, k]) for k in range(2))
    got = inference.similarity(0, 1, tables, prior, mode="cross-diagonal")
    assert got == pytest.approx(expected, abs=1e-12)
    batch = inference.score_candidates([0], [[1, 2]], tables, prior,
                                       mode="cross-diagonal")
    assert batch.shape == (1, 2)
    assert batch[0, 0] == pytest.approx(got, abs=1e-12)


def test_factorized_equals_weighted_sum_then_dot():
    prior, tables = random_setup(4, 3, 5, seed=9)
    wa = np.einsum("nk,nkd->nd", prior.dist, tables.u)
    assert float(wa[0] @ wa[2]) == pytest.approx(
        inference.similarity(0, 2, tables, prior), abs=1e-12)


# ----------------------------------------------------------------- ranking
# Candidates are ranked by evaluation.link_prediction_report; HR@1 shows
# which candidate it puts first.

def hr_at_1(g, test_edge, tables, prior, num_negatives):
    report = evaluation.link_prediction_report(
        g, [test_edge], tables, prior, "homogeneous",
        num_negatives=num_negatives, ks=(1,))
    return report.hr_at_k[1]


def test_rank_twin_above_stranger():
    prior = facets.FacetPrior.uniform(3, 1)
    u = np.zeros((3, 1, 2))
    u[0, 0] = [1.0, 0.0]
    u[1, 0] = [2.0, 0.0]    # colinear twin
    u[2, 0] = [0.0, 1.0]    # orthogonal stranger
    tables = EmbeddingTables(u=u, h=np.zeros_like(u))
    g = graph.from_edges([(1, 2)], num_nodes=3)   # candidates of (0, 1): 1, 2
    assert hr_at_1(g, (0, 1), tables, prior, num_negatives=1) == 1.0


def test_rank_ties_break_by_ascending_id():
    prior = facets.FacetPrior.uniform(4, 1)
    tables = EmbeddingTables(u=np.zeros((4, 1, 2)), h=np.zeros((4, 1, 2)))
    g = graph.from_edges([(1, 2), (2, 3)], num_nodes=4)   # node 0 has no edges
    # every score ties, so node 1 ranks first among candidates 1, 2, 3
    assert hr_at_1(g, (0, 1), tables, prior, num_negatives=2) == 1.0
    assert hr_at_1(g, (0, 3), tables, prior, num_negatives=2) == 0.0
