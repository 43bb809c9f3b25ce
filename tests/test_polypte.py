import numpy as np
import pytest
from conftest import make_planted_bipartite, reference_pte_train, spy_engine_runs

from polyembed import cli, evaluation, facets, graph, polypte, sgd
from polyembed.errors import ValidationError
from polyembed.tables import init_tables


def bipartite_prior(num_a, num_b, k, seed=0):
    rng = np.random.default_rng(seed)
    return facets.FacetPrior.from_factors(rng.random((num_a, k)) + 0.01,
                                          rng.random((num_b, k)) + 0.01)


@pytest.fixture
def small_bipartite():
    return graph.from_edges(
        [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 3), (3, 2), (3, 3)],
        kind="bipartite")


def test_single_facet_reduction_matches_reference(small_bipartite):
    g = small_bipartite
    prior = facets.FacetPrior.uniform(g.num_a, 1, num_b=g.num_b)
    config = polypte.PteConfig(dim=5, negatives=3, total_samples=150, seed=9)

    checksums = []

    def hook(step, tables):
        if step < 100:
            checksums.append((tables.u.sum(), np.abs(tables.h).sum()))

    polypte.train_pte(g, prior, config, hook=hook)

    ref = []

    def ref_hook(step, u, h):
        if step < 100:
            ref.append((u.sum(), np.abs(h).sum()))

    reference_pte_train(g, dim=5, negatives=3, total_samples=150,
                        learning_rate=0.025, seed=9, max_updates=100,
                        on_update=ref_hook)
    assert checksums[:100] == ref[:100]


def test_deterministic_runs(small_bipartite):
    prior = bipartite_prior(4, 4, 2)
    config = polypte.PteConfig(dim=4, negatives=2, total_samples=200, seed=3)
    r1 = polypte.train_pte(small_bipartite, prior, config)
    r2 = polypte.train_pte(small_bipartite, prior, config)
    assert np.array_equal(r1.tables.u, r2.tables.u)
    assert np.array_equal(r1.tables.h, r2.tables.h)


def test_type_discipline_table_shapes():
    g = graph.from_edges([(0, 0), (1, 1), (2, 0)], kind="bipartite")
    prior = bipartite_prior(3, 2, 2)
    result = polypte.train_pte(g, prior,
                               polypte.PteConfig(dim=4, negatives=2,
                                                 total_samples=50, seed=0))
    assert result.tables.u.shape == (3, 2, 4)
    assert result.tables.h.shape == (2, 2, 4)


def test_facet_rate_defaults_to_k_squared(small_bipartite):
    prior = bipartite_prior(4, 4, 3)
    steps = []
    config = polypte.PteConfig(dim=2, negatives=1, total_samples=7, seed=0)
    polypte.train_pte(small_bipartite, prior, config,
                      hook=lambda step, tables: steps.append(step))
    assert len(steps) == 7 * 9


def test_requires_bipartite_prior(small_bipartite):
    homo = facets.FacetPrior.uniform(4, 2)
    with pytest.raises(ValidationError):
        polypte.train_pte(small_bipartite, homo, polypte.PteConfig())


def test_prior_shape_mismatch(small_bipartite):
    wrong = bipartite_prior(5, 4, 2)
    with pytest.raises(ValidationError):
        polypte.train_pte(small_bipartite, wrong, polypte.PteConfig())


def test_min_mode_respects_endpoint_priors(small_bipartite):
    # type-A prior rules out facet 1: min-rule must never activate it
    p = np.zeros((4, 2))
    p[:, 0] = 1.0
    rng = np.random.default_rng(0)
    prior = facets.FacetPrior.from_factors(p, rng.random((4, 2)) + 0.01)
    config = polypte.PteConfig(dim=3, negatives=1, total_samples=100,
                               facet_mode="min", seed=1)
    result = polypte.train_pte(small_bipartite, prior, config)
    fresh = init_tables(4, 2, 3, seed=np.random.SeedSequence(1).spawn(2)[0],
                        num_context=4)
    assert np.array_equal(result.tables.u[:, 1], fresh.u[:, 1])


def test_weighted_edge_sampling_uses_alias_table():
    """Weighted edges are drawn through sgd.GuideTable, which took the alias
    table's place; every weighted sample still runs."""
    g = graph.from_edges([(0, 0, 100.0), (1, 1, 1.0)], kind="bipartite")
    prior = facets.FacetPrior.uniform(2, 1, num_b=2)
    seen = []
    config = polypte.PteConfig(dim=2, negatives=1, total_samples=300,
                               weighted_edges=True, seed=0)
    polypte.train_pte(g, prior, config,
                      hook=lambda step, tables: seen.append(step))
    assert len(seen) == 300


def test_alias_table_distribution():
    """The guide table that replaced the alias table draws index 1 of
    weights [1, 3] three times in four."""
    table = sgd.GuideTable([1.0, 3.0])
    rng = np.random.default_rng(0)
    hits = (table.decode(rng.random(40_000)) == 1).sum()
    assert 0.72 <= hits / 40_000 <= 0.78


def test_weighted_edges_are_drawn_in_proportion_to_weight(monkeypatch):
    """Every sample runs, and an edge of weight 3 is drawn three times as
    often as one of weight 1."""
    g = graph.from_edges([(0, 0, 1.0), (1, 1, 3.0)], kind="bipartite")
    prior = facets.FacetPrior.uniform(2, 1, num_b=2)
    runs = spy_engine_runs(monkeypatch)
    config = polypte.PteConfig(dim=2, negatives=1, total_samples=40_000,
                               weighted_edges=True, seed=0)
    polypte.train_pte(g, prior, config)
    targets = np.concatenate([args[1] for _, args, _ in runs])
    assert len(targets) == 40_000
    assert 0.74 <= targets.mean() <= 0.76


def test_weighted_edges_that_all_weigh_0_are_an_error(tmp_path, capsys):
    source, prior = tmp_path / "g.edges", tmp_path / "g.prior"
    source.write_text("0 0 0\n1 1 0\n")
    assert cli.run(["facets", "--input", str(source), "--kind", "bipartite",
                    "--k", "1", "--out", str(prior)]) == 0
    argv = ["train-pte", "--input", str(source), "--prior", str(prior),
            "--dim", "2", "--total-samples", "10", "--out", str(tmp_path / "e")]
    assert cli.run(argv) == 0
    capsys.readouterr()
    assert cli.run(argv + ["--weighted-edges"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(source) in err and "--weighted-edges" in err


def test_unit_weights_draw_the_same_edges_with_and_without_weighting(tmp_path):
    """An unweighted edge is a unit-weight edge: on an edge list whose
    weights are all 1, `--weighted-edges` changes no table byte."""
    source, prior = tmp_path / "g.edges", tmp_path / "g.prior"
    g = make_planted_bipartite(3, n_side=12, p_in=0.5, p_out=0.05)
    source.write_text("".join(f"{a} {b} 1\n" for a, b in g.edges))
    assert cli.run(["facets", "--input", str(source), "--kind", "bipartite",
                    "--k", "2", "--out", str(prior)]) == 0
    argv = ["train-pte", "--input", str(source), "--prior", str(prior),
            "--dim", "3", "--negatives", "2", "--total-samples", "700"]
    assert cli.run(argv + ["--out", str(tmp_path / "plain")]) == 0
    assert cli.run(argv + ["--weighted-edges", "--out", str(tmp_path / "w")]) == 0
    for side in ("a", "b"):
        assert ((tmp_path / f"plain.{side}").read_bytes()
                == (tmp_path / f"w.{side}").read_bytes())


# ----------------------------------------------------------- Jensen bound

def random_pte_tables(num_a, num_b, k, d, seed):
    rng = np.random.default_rng(seed)
    t = init_tables(num_a, k, d, seed=seed, num_context=num_b)
    t.u[:] = rng.normal(0, 1, t.u.shape)
    t.h[:] = rng.normal(0, 1, t.h.shape)
    return t


def test_pte_bound_k1_equality():
    prior = facets.FacetPrior.uniform(3, 1, num_b=4)
    tables = random_pte_tables(3, 4, 1, 3, seed=0)
    le, ll = polypte.pte_lower_bound_small((0, 1), prior, tables)
    assert le == pytest.approx(ll, abs=1e-12)


def test_pte_bound_shared_one_hot_equality():
    p = np.zeros((3, 3))
    p[:, 1] = 1.0
    q = np.zeros((4, 3))
    q[:, 1] = 1.0
    prior = facets.FacetPrior.from_factors(p, q)
    tables = random_pte_tables(3, 4, 3, 3, seed=1)
    le, ll = polypte.pte_lower_bound_small((0, 2), prior, tables)
    assert le == pytest.approx(ll, abs=1e-12)


def test_pte_bound_one_hot_min_mode_equality():
    # different one-hot facets per endpoint still degenerate under min-rule
    p = np.zeros((3, 3))
    p[:, 0] = 1.0
    q = np.zeros((4, 3))
    q[:, 2] = 1.0
    prior = facets.FacetPrior.from_factors(p, q)
    tables = random_pte_tables(3, 4, 3, 3, seed=2)
    le, ll = polypte.pte_lower_bound_small((0, 2), prior, tables, mode="min")
    assert le == pytest.approx(ll, abs=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_pte_jensen_bound_random(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 4))
    prior = bipartite_prior(4, 4, k, seed=seed)
    tables = random_pte_tables(4, 4, k, 3, seed=seed)
    edge = (int(rng.integers(4)), int(rng.integers(4)))
    le, ll = polypte.pte_lower_bound_small(edge, prior, tables)
    assert ll <= le + 1e-12


# ------------------------------------------------------ planted structure

def test_planted_bipartite_beats_chance():
    g = make_planted_bipartite(0)
    train_g, test_edges = evaluation.split_links(g, "latest-per-user", seed=0)
    a = graph.adjacency_dense(train_g)
    nmf = facets.asymmetric_nmf(a, 2, alpha=0.05, seed=0)
    prior = facets.FacetPrior.from_factors(*nmf.factors)
    config = polypte.PteConfig(dim=16, negatives=10, total_samples=15_000,
                               seed=0)
    result = polypte.train_pte(train_g, prior, config)
    report = evaluation.link_prediction_report(
        train_g, test_edges, result.tables, prior, "cross",
        num_negatives=35, ks=(10,), seed=0)
    assert report.auc >= 0.7
