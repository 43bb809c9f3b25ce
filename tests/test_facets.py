import numpy as np
import pytest
from conftest import make_two_cliques, sample_facet

from polyembed import facets, graph, kernel
from polyembed.errors import ValidationError
from polyembed.tables import save_matrix


# ------------------------------------------------------------ symmetric NMF

def test_symmetric_rank1_recovery():
    p = np.array([1.0, 2.0, 2.0])
    result = facets.symmetric_nmf(np.outer(p, p), 1, alpha=0.0,
                                  max_iters=2000, tol=1e-14, seed=0)
    assert result.objective < 1e-4
    recovered = result.factors[0][:, 0]
    assert (recovered >= 0).all()
    # proportional to p up to scale
    ratio = recovered / p
    assert np.allclose(ratio, ratio[0], rtol=1e-3)


def test_symmetric_zero_matrix_fixed_point():
    result = facets.symmetric_nmf(np.zeros((3, 3)), 2, alpha=0.05)
    assert np.array_equal(result.factors[0], np.zeros((3, 2)))
    assert result.objective == 0.0


def test_symmetric_two_cliques_argmax_alignment():
    g = make_two_cliques(clique=3)
    a = graph.adjacency_dense(g)
    result = facets.symmetric_nmf(a, 2, alpha=0.0, seed=1)
    am = facets.normalize_prior(result.factors[0]).argmax(axis=1)
    assert len(set(am[:3])) == 1
    assert len(set(am[3:])) == 1
    assert am[0] != am[3]


def test_symmetric_rejects_asymmetric_input():
    a = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValidationError, match="symmetric"):
        facets.symmetric_nmf(a, 1)


def test_symmetric_rejects_k_above_n():
    with pytest.raises(ValidationError):
        facets.symmetric_nmf(np.ones((3, 3)), 4)


# ----------------------------------------------------------- asymmetric NMF

def test_asymmetric_rank1_reconstruction():
    a = np.outer([1.0, 1.0], [2.0, 0.0, 2.0])
    result = facets.asymmetric_nmf(a, 1, alpha=0.0, max_iters=2000,
                                   tol=1e-14, seed=0)
    p, q = result.factors
    assert np.linalg.norm(a - p @ q.T) < 1e-4


def test_asymmetric_zero_matrix():
    result = facets.asymmetric_nmf(np.zeros((3, 4)), 2)
    assert np.array_equal(result.factors[0], np.zeros((3, 2)))
    assert np.array_equal(result.factors[1], np.zeros((4, 2)))


def test_asymmetric_block_diagonal_argmax():
    a = np.zeros((6, 6))
    a[:3, :3] = 1.0
    a[3:, 3:] = 1.0
    result = facets.asymmetric_nmf(a, 2, alpha=0.05, seed=3)
    rows = facets.normalize_prior(result.factors[0]).argmax(axis=1)
    assert len(set(rows[:3])) == 1 and len(set(rows[3:])) == 1
    assert rows[0] != rows[3]


def test_asymmetric_rejects_large_k():
    with pytest.raises(ValidationError):
        facets.asymmetric_nmf(np.ones((3, 2)), 3)


@pytest.mark.parametrize("seed", range(20))
def test_nmf_objective_monotone(seed):
    rng = np.random.default_rng(seed + 500)
    b = rng.random((10, 10))
    sym = facets.symmetric_nmf((b + b.T) / 2, 3, alpha=0.05,
                               max_iters=200, tol=0.0, seed=seed)
    assert (np.diff(sym.trace) <= 1e-10).all()
    asym = facets.asymmetric_nmf(rng.random((9, 6)), 3, alpha=0.05,
                                 max_iters=200, tol=0.0, seed=seed)
    assert (np.diff(asym.trace) <= 1e-10).all()


@pytest.mark.parametrize("seed", range(5))
def test_nmf_trace_objective_equals_explicit_residual(seed):
    rng = np.random.default_rng(seed + 900)
    b = rng.random((9, 9)) * (rng.random((9, 9)) < 0.4)
    sym_a = b + b.T
    sym = facets.symmetric_nmf(kernel.csr(sym_a), 3, alpha=0.05,
                               max_iters=7, tol=0.0, seed=seed)
    p, = sym.factors
    explicit = ((sym_a - p @ p.T) ** 2).sum() + 0.05 * (p * p).sum()
    assert abs(sym.objective - explicit) <= 1e-10 * explicit
    asym_a = rng.random((8, 5)) * (rng.random((8, 5)) < 0.5)
    asym = facets.asymmetric_nmf(kernel.csr(asym_a), 2, alpha=0.05,
                                 max_iters=7, tol=0.0, seed=seed)
    p, q = asym.factors
    explicit = (((asym_a - p @ q.T) ** 2).sum()
                + 0.05 * ((p * p).sum() + (q * q).sum()))
    assert abs(asym.objective - explicit) <= 1e-10 * explicit
    # dense input runs the same sparse path
    dense = facets.asymmetric_nmf(asym_a, 2, alpha=0.05, max_iters=7, tol=0.0,
                                  seed=seed)
    assert np.array_equal(dense.factors[0], p)
    assert np.array_equal(dense.trace, asym.trace)


# -------------------------------------------------------------- normalize

def test_normalize_rows():
    dist = facets.normalize_prior(np.array([[2.0, 1.0, 1.0]]))
    assert np.allclose(dist, [[0.5, 0.25, 0.25]])


def test_normalize_zero_row_uniform():
    dist = facets.normalize_prior(np.zeros((1, 3)))
    assert np.allclose(dist, [[1 / 3, 1 / 3, 1 / 3]])


def test_normalize_one_sided():
    dist = facets.normalize_prior(np.array([[5.0, 0.0]]))
    assert np.allclose(dist, [[1.0, 0.0]])


def test_normalize_rejects_negative():
    with pytest.raises(ValidationError):
        facets.normalize_prior(np.array([[1.0, -0.1]]))


def test_normalize_idempotent():
    rng = np.random.default_rng(7)
    p = rng.random((6, 4))
    once = facets.normalize_prior(p)
    assert np.allclose(facets.normalize_prior(once), once, atol=1e-12)
    assert np.allclose(once.sum(axis=1), 1.0, atol=1e-9)


def test_column_permutation_equivariance():
    rng = np.random.default_rng(11)
    p = rng.random((5, 4))
    perm = [2, 0, 3, 1]
    assert np.allclose(facets.normalize_prior(p)[:, perm],
                       facets.normalize_prior(p[:, perm]))


# ------------------------------------------------- conditional distribution

def test_conditional_min_rule():
    out = facets.conditional_distribution([0.8, 0.2, 0.0], [0.3, 0.3, 0.4])
    assert np.allclose(out, [0.6, 0.4, 0.0])


def test_conditional_min_idempotent():
    p = np.array([0.25, 0.75])
    assert np.allclose(facets.conditional_distribution(p, p), p)


def test_conditional_all_zero_min_falls_back_to_node_prior():
    out = facets.conditional_distribution([1.0, 0.0], [0.0, 1.0])
    assert np.allclose(out, [1.0, 0.0])


def test_conditional_observation_rule_passthrough():
    p_o = np.array([0.3, 0.7])
    out = facets.conditional_distribution([0.9, 0.1], p_o, mode="observation")
    assert np.array_equal(out, p_o)


def test_conditional_never_activates_zero_prior_facet():
    rng = np.random.default_rng(2)
    for _ in range(50):
        p_v = rng.random(4)
        p_v[rng.integers(4)] = 0.0
        p_v /= p_v.sum()
        p_o = rng.random(4)
        p_o /= p_o.sum()
        out = facets.conditional_distribution(p_v, p_o)
        assert out[p_v == 0].max(initial=0.0) == 0.0


# ---------------------------------------------------------------- sampling

def test_sample_facet_degenerate():
    u = np.random.default_rng(0).random(50)
    dist = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert not facets.sample_facets(np.broadcast_to(dist[0], (50, 3)), u).any()
    assert (facets.sample_facets(np.broadcast_to(dist[1], (50, 3)), u) == 2).all()


def test_sample_facet_frequency():
    rng = np.random.default_rng(123)
    dist = np.broadcast_to([0.5, 0.5], (100_000, 2))
    draws = (facets.sample_facets(dist, rng.random(100_000)) == 0).sum()
    assert 0.49 <= draws / 100_000 <= 0.51


@pytest.mark.parametrize("k", [1, 3, 9])
def test_column_counts_equal_the_clamped_comparison_sum(k):
    """Counting the first K - 1 columns equals counting all K sums at or
    below the threshold and clamping to K - 1, flat and zero rows included."""
    rng = np.random.default_rng(k)
    dist = rng.random((30, 4, k))
    dist[rng.random(dist.shape) < 0.4] = 0.0
    dist[0, 0] = 0.0
    cdf = np.cumsum(dist, axis=-1)
    u = rng.random((30, 4))
    u[1, :] = 0.0
    below = cdf <= (u * cdf[..., -1])[..., None]
    expected = np.minimum(below.sum(axis=-1), k - 1)
    assert np.array_equal(facets.facets_from_cdf(np.moveaxis(cdf, -1, 0), u), expected)
    # the same distributions as rows of a (K, nodes) table
    rows = rng.permutation(120).reshape(30, 4)
    table = np.empty((k, 120))
    table[:, rows] = np.moveaxis(cdf, -1, 0)
    assert np.array_equal(facets.facets_from_cdf(table, u, rows), expected)


class _Replay:
    """Stands in for a generator whose next uniform is known."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def test_stacked_rows_match_single_distributions():
    rng = np.random.default_rng(5)
    p_v = rng.random((200, 9))
    p_v[rng.random(p_v.shape) < 0.4] = 0.0
    p_o = rng.random((200, 9))
    p_o[:20] = np.where(p_v[:20] > 0, 0.0, 1.0)   # all-zero min rows
    cond = facets.conditional_distribution(p_v, p_o)
    u = rng.random(200)
    draws = facets.sample_facets(cond, u)
    for i in range(200):
        row = facets.conditional_distribution(p_v[i], p_o[i])
        assert np.array_equal(cond[i], row)
        assert draws[i] == sample_facet(row, _Replay(u[i]))


def test_entropy():
    assert facets.entropy([1.0, 0.0]) == 0.0
    assert facets.entropy([0.5, 0.5]) == pytest.approx(np.log(2))


# ---------------------------------------------------------------- file io

def test_load_prior_bipartite(tmp_path):
    p = facets.normalize_prior(np.random.default_rng(1).random((4, 2)))
    q = facets.normalize_prior(np.random.default_rng(2).random((3, 2)))
    save_matrix(tmp_path / "pr.a", p)
    save_matrix(tmp_path / "pr.b", q)
    prior = facets.load_prior(tmp_path / "pr.a", tmp_path / "pr.b")
    assert prior.q is not None
    assert np.allclose(prior.dist, p) and np.allclose(prior.dist_b, q)
