import shutil
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import (auc_brute_force, reference_candidates, reference_classify,
                      reference_link_report, reference_split_links, to_dense)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polyembed import evaluation, facets, graph, inference, kernel
from polyembed.errors import CapacityError, ProtocolError, ValidationError
from polyembed.evaluation import (EvalReport, auc, classify, hit_ratio,
                                  split_links)
from polyembed.tables import EmbeddingTables


# ------------------------------------------------------------------- splits

def test_split_path_graph_holds_out_middle_edge():
    g = graph.from_edges([(0, 1), (1, 2)])
    train, test = split_links(g, "one-per-node", seed=0)
    assert len(test) == 1
    assert test[0][0] == 1
    assert train.num_edges == 1


def test_split_latest_per_user_uses_max_timestamp():
    g = graph.from_edges([(0, 0, 1.0), (0, 1, 1.0)], kind="bipartite",
                         timestamps=[5, 9])
    train, test = split_links(g, "latest-per-user", seed=0)
    assert test == [(0, 1)]
    assert train.num_edges == 1


def test_split_latest_falls_back_to_random_without_timestamps():
    g = graph.from_edges([(0, 0), (0, 1), (1, 0), (1, 1)], kind="bipartite")
    train, test = split_links(g, "latest-per-user", seed=3)
    assert len(test) == 2
    assert {a for a, _ in test} == {0, 1}


def test_split_deterministic():
    rng = np.random.default_rng(0)
    rows = [(int(i), int(j)) for i, j in rng.integers(0, 15, (60, 2)) if i != j]
    g = graph.from_edges(rows)
    s1 = split_links(g, "one-per-node", seed=4)
    s2 = split_links(g, "one-per-node", seed=4)
    assert s1[1] == s2[1]
    assert np.array_equal(to_dense(s1[0].adj), to_dense(s2[0].adj))


def test_split_partitions_edges():
    rng = np.random.default_rng(1)
    rows = {(int(min(i, j)), int(max(i, j)))
            for i, j in rng.integers(0, 12, (50, 2)) if i != j}
    g = graph.from_edges(sorted(rows))
    train, test = split_links(g, "one-per-node", seed=1)
    train_set = {(int(i), int(j)) for i, j in train.edges}
    test_set = {(min(a, b), max(a, b)) for a, b in test}
    original = {(int(i), int(j)) for i, j in g.edges}
    assert train_set | test_set == original
    assert not train_set & test_set


def test_split_degree_one_nodes_keep_their_edge():
    g = graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 1)])
    train, test = split_links(g, "one-per-node", seed=2)
    held = {tuple(sorted(e)) for e in test}
    assert (0, 1) not in held   # node 0 has degree 1


def test_split_strategy_kind_mismatch():
    b = graph.from_edges([(0, 0)], kind="bipartite")
    with pytest.raises(ValidationError):
        split_links(b, "one-per-node")
    g = graph.from_edges([(0, 1)])
    with pytest.raises(ValidationError):
        split_links(g, "latest-per-user")


# --------------------------------------------------------------- hit ratio

def test_hit_ratio_rank_first():
    assert hit_ratio([7, 1, 2], truth=7, ks=[10]) == {10: 1.0}


def test_hit_ratio_rank_eleventh():
    ranked = list(range(200))
    hits = hit_ratio(ranked, truth=10, ks=[10, 50])
    assert hits == {10: 0.0, 50: 1.0}


def test_hit_ratio_average_across_queries():
    q1 = hit_ratio(list(range(100)), truth=2, ks=[10])
    q2 = hit_ratio(list(range(100)), truth=29, ks=[10])
    assert (q1[10] + q2[10]) / 2 == 0.5


def test_hit_ratio_missing_truth_is_protocol_error():
    with pytest.raises(ProtocolError):
        hit_ratio([1, 2, 3], truth=9, ks=[1])


def test_hit_ratio_nondecreasing_in_k():
    rng = np.random.default_rng(0)
    for _ in range(30):
        ranked = list(rng.permutation(50))
        hits = hit_ratio(ranked, truth=int(ranked[rng.integers(50)]),
                         ks=[1, 5, 10, 25, 50])
        values = [hits[k] for k in sorted(hits)]
        assert values == sorted(values)


# --------------------------------------------------------------------- AUC

def test_auc_perfect_separation():
    assert auc([2.0, 3.0], [0.0, 1.0]) == 1.0


def test_auc_all_ties():
    assert auc([1.0, 1.0], [1.0, 1.0, 1.0]) == 0.5


def test_auc_one_win_one_loss():
    assert auc([1.0], [0.0, 2.0]) == 0.5


def test_auc_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(20):
        pos = rng.integers(0, 6, size=rng.integers(1, 12)).astype(float)
        neg = rng.integers(0, 6, size=rng.integers(1, 12)).astype(float)
        assert auc(pos, neg) == pytest.approx(auc_brute_force(pos, neg),
                                              abs=1e-12)


def test_auc_of_a_nan_score_is_nan():
    assert np.isnan(auc([np.nan, 1.0], [0.5]))


def test_auc_rejects_empty():
    with pytest.raises(ValidationError):
        auc([], [1.0])


# ------------------------------------------------------- candidate protocol

def on_both_paths(monkeypatch, run):
    """run() with numpy's per-query loop and, where there is a C compiler,
    with the compiled draw, which must give the same; the loop's result."""
    with monkeypatch.context() as patched:
        patched.setattr(kernel, "function", lambda name: None)
        reference = run()
    if shutil.which("cc") is not None:
        assert evaluation._compiled_draw(1) is not None
        assert run() == reference
    return reference


def candidates_of(test_edge, g, num_negatives, seed):
    """One test edge's candidates as `evaluation._candidates` draws them
    from the root seed `seed`: the true endpoint, then the negatives."""
    cand, sizes = evaluation._candidates(g, np.array([test_edge[0]]),
                                         np.array([test_edge[1]]), num_negatives,
                                         seed)
    return cand[0, :sizes[0]].tolist()


def child_seeds(seed, n):
    """numpy's own `SeedSequence(seed).spawn(n)[i].generate_state(1)[0]`."""
    return [int(child.generate_state(1)[0])
            for child in np.random.SeedSequence(seed).spawn(n)]


def test_candidate_count_small_graph():
    g = graph.from_edges([(0, 1), (1, 2)])
    cands = candidates_of((0, 1), g, num_negatives=1, seed=0)
    assert len(cands) == 2
    assert cands[0] == 1


def test_candidates_never_include_training_neighbors(monkeypatch):
    rng = np.random.default_rng(2)
    rows = [(int(i), int(j)) for i, j in rng.integers(0, 20, (40, 2)) if i != j]
    g = graph.from_edges(rows, num_nodes=20)
    nbrs = set(g.adj.indices[g.adj.indptr[0]:g.adj.indptr[1]].tolist())
    cands = on_both_paths(monkeypatch, lambda: candidates_of(
        (0, list(nbrs)[0]), g, num_negatives=5, seed=1))
    assert not (set(cands[1:]) & nbrs)
    assert 0 not in cands[1:]


def test_candidates_deterministic(monkeypatch):
    g = graph.from_edges([(0, i) for i in range(1, 4)], num_nodes=12)
    c1 = on_both_paths(monkeypatch, lambda: candidates_of((0, 1), g, 5, 9))
    c2 = on_both_paths(monkeypatch, lambda: candidates_of((0, 1), g, 5, 9))
    assert c1 == c2


def test_candidates_warn_when_pool_short(monkeypatch):
    g = graph.from_edges([(0, 1), (1, 2)])
    tables = EmbeddingTables(u=np.ones((3, 1, 2)), h=np.zeros((3, 1, 2)))

    def run():
        with pytest.warns(UserWarning, match="non-neighbors"):
            report = evaluation.link_prediction_report(
                g, [(0, 1)], tables, facets.FacetPrior.uniform(3),
                "homogeneous", num_negatives=50)
        return report.lines(), report.run["eval.pool_short"]

    assert on_both_paths(monkeypatch, run)[1] == 1


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), kind=st.sampled_from(["homogeneous", "bipartite"]),
       regime=st.sampled_from(["floyd", "floyd-large", "tail", "exact", "short"]),
       truth_is_neighbour=st.booleans(), rows=st.integers(1, 3),
       seed=st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**130 + 3]),
                      st.integers(0, 2**200)))
def test_compiled_draw_is_numpy_choice(compiled_kernel, data, kind, regime,
                                       truth_is_neighbour, rows, seed):
    # numpy's choice takes the tail shuffle when the pool exceeds 10,000 and
    # C > pool // 50, else Floyd's algorithm
    large = regime in ("floyd-large", "tail")
    n = data.draw(st.integers(10_063, 12_000) if large else st.integers(4, 9000))
    # at most degree + 2 ids are excluded, so the pool is never empty
    degree = data.draw(st.integers(1 if truth_is_neighbour else 0, min(n - 3, 60)))
    neighbours = np.random.default_rng(seed).choice(np.arange(1, n), degree,
                                                    replace=False)
    if kind == "homogeneous":
        g = graph.from_edges([(0, int(v)) for v in neighbours] or [(1, 2)],
                             num_nodes=n)
    else:
        g = graph.from_edges([(0, int(v)) for v in neighbours] or [(1, 0)],
                             kind="bipartite", num_a=2, num_b=n)
    truth = (int(neighbours[0]) if truth_is_neighbour
             else data.draw(st.integers(1, n - 1).filter(lambda v: v not in neighbours)))
    free = np.ones(n, dtype=bool)   # the ids query 0 may draw
    free[neighbours] = free[truth] = False
    free[0] &= kind == "bipartite"
    pool = np.flatnonzero(free)
    cut = len(pool) // 50   # the largest C of Floyd's algorithm on a large pool
    c = data.draw({"floyd": st.integers(1, len(pool)),
                   "floyd-large": st.just(cut) | st.integers(1, cut),
                   "tail": st.just(cut + 1) | st.integers(cut + 1, len(pool)),
                   "exact": st.just(len(pool)),
                   "short": st.integers(len(pool) + 1, len(pool) + 30)}[regime])
    assert evaluation._compiled_draw(n) is not None
    # `rows` queries of node 0, row r drawn with the root's child r
    cand, sizes = evaluation._candidates(g, np.zeros(rows, dtype=np.int64),
                                         np.full(rows, truth), c, seed)
    for r, child in enumerate(child_seeds(seed, rows)):
        if regime == "short":
            want = pool
        else:
            want = pool[np.random.default_rng(child).choice(len(pool), c,
                                                            replace=False)]
        assert sizes[r] == len(want) + 1
        assert cand[r, 0] == truth
        assert np.array_equal(cand[r, 1:len(want) + 1], want)
        assert (cand[r, len(want) + 1:] == -1).all()


def bench_shaped_graph(kind, seed):
    """A planted-block graph of the benchmark's shape, split as its
    pipeline splits it: 400 nodes in 4 blocks, or 600 users and 60 items
    in 3 blocks with timestamps."""
    rng = np.random.default_rng(seed)
    if kind == "homogeneous":
        block = np.arange(400) * 4 // 400
        p = np.where(block[:, None] == block, 0.12, 0.008)
        i, j = np.nonzero(np.triu(rng.random((400, 400)) < p, 1))
        g = graph.from_edges(np.column_stack([i, j]), num_nodes=400)
        return split_links(g, "one-per-node", seed=seed)
    block_a, block_b = np.arange(600) * 3 // 600, np.arange(60) * 3 // 60
    p = np.where(block_a[:, None] == block_b, 0.3, 0.03)
    a, b = np.nonzero(rng.random((600, 60)) < p)
    g = graph.from_edges(np.column_stack([a, b]), kind="bipartite", num_a=600,
                         num_b=60, timestamps=rng.permutation(len(a)))
    return split_links(g, "latest-per-user", seed=seed)


@pytest.mark.parametrize("kind", ["homogeneous", "bipartite"])
@pytest.mark.parametrize("num_negatives", [20, 50])
def test_compiled_candidates_equal_the_reference_per_query(compiled_kernel, kind,
                                                           num_negatives):
    train, test_edges = bench_shaped_graph(kind, 7)
    edges = np.array(test_edges)
    cand, sizes = evaluation._candidates(train, edges[:, 0], edges[:, 1],
                                         num_negatives, 7)
    assert evaluation._compiled_draw(1) is not None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for r, (edge, seed) in enumerate(zip(test_edges,
                                             child_seeds(7, len(test_edges)))):
            assert cand[r, :sizes[r]].tolist() == reference_candidates(
                edge, train, num_negatives, seed)
            assert (cand[r, sizes[r]:] == -1).all()


@pytest.fixture
def fresh_self_check():
    """`_draws_as_numpy` runs anew in the test and after it."""
    evaluation._draws_as_numpy.cache_clear()
    yield
    evaluation._draws_as_numpy.cache_clear()


def test_a_failed_self_check_falls_back_to_the_loop(compiled_kernel, monkeypatch,
                                                    fresh_self_check):
    # a numpy whose default_rng draws otherwise than the kernel replays
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: np.random.Generator(np.random.MT19937(seed)))
    assert_numpy_draws_after_one_warning(monkeypatch)


def assert_numpy_draws_after_one_warning(monkeypatch):
    """Two draws see one RuntimeWarning, and then numpy's loop draws, with
    whatever numpy the test has patched in."""
    g = graph.from_edges([(0, i) for i in range(1, 4)] + [(5, 6)], num_nodes=40)
    queries, truths, seed = np.array([0, 5, 7]), np.array([1, 6, 8]), 2**64 + 5
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = [evaluation._candidates(g, queries, truths, 10, seed)
               for _ in range(2)]
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "numpy draws the candidates" in str(caught[0].message)
    with monkeypatch.context() as patched:
        patched.setattr(kernel, "function", lambda name: None)
        want = evaluation._candidates(g, queries, truths, 10, seed)
    for cand, sizes in got:
        assert np.array_equal(cand, want[0]) and np.array_equal(sizes, want[1])
    assert evaluation._compiled_draw(1) is None


@pytest.mark.parametrize("long_roots_only", [False, True])
def test_a_spawn_that_disagrees_fails_the_self_check(compiled_kernel, monkeypatch,
                                                     fresh_self_check, long_roots_only):
    """A numpy whose spawn hands out other children than the kernel derives:
    for every root, or only past the first child of a root of five words or
    more, which only a check on such a root and child can see."""
    numpy_seed_sequence = np.random.SeedSequence

    class Other(numpy_seed_sequence):
        def spawn(self, n_children):
            children = super().spawn(n_children)
            if long_roots_only and self.entropy < 2**128:
                return children
            other = numpy_seed_sequence(self.entropy + 1).spawn(n_children)
            return children[:1] + other[1:] if long_roots_only else other

    monkeypatch.setattr(np.random, "SeedSequence", Other)
    assert_numpy_draws_after_one_warning(monkeypatch)


# ------------------------------------------------------------ classification

def separable_data(n=50):
    rng = np.random.default_rng(0)
    x = np.vstack([rng.normal(-3, 0.3, (n // 2, 2)),
                   rng.normal(3, 0.3, (n // 2, 2))])
    y = np.zeros((n, 2))
    y[:n // 2, 0] = 1.0
    y[n // 2:, 1] = 1.0
    perm = rng.permutation(n)
    return x[perm], y[perm]


def test_classify_separable_perfect():
    x, y = separable_data()
    micro, macro = classify(x, y, train_fraction=0.8, seed=0)
    assert micro == 1.0 and macro == 1.0


def test_classify_chance_level_on_shuffled_labels():
    x, y = separable_data(n=200)
    micros = []
    for seed in range(10):
        rng = np.random.default_rng(seed + 100)
        y_shuffled = y[rng.permutation(len(y))]
        micro, _ = classify(x, y_shuffled, train_fraction=0.8, seed=seed)
        micros.append(micro)
    assert abs(np.mean(micros) - 0.5) <= 0.05


def test_classify_duplicated_samples_identical_f1():
    x, y = separable_data(n=40)
    base = classify(x, y, train_fraction=0.8, seed=0)
    x_dup = np.repeat(x, 2, axis=0)
    y_dup = np.repeat(y, 2, axis=0)
    dup = classify(x_dup, y_dup, train_fraction=0.8, seed=0)
    assert dup == base


def test_classify_single_class_rejected():
    x = np.random.default_rng(0).normal(0, 1, (20, 3))
    y = np.zeros((20, 2))
    y[:, 0] = 1.0
    with pytest.raises(ValidationError):
        classify(x, y)


def test_classify_multilabel_top_l():
    rng = np.random.default_rng(3)
    x = rng.normal(0, 1, (40, 4))
    y = np.zeros((40, 3))
    y[:, 0] = 1.0
    y[::2, 1] = 1.0  # half the nodes carry a second label
    y[1::2, 2] = 1.0
    micro, macro = classify(x, y, train_fraction=0.75, seed=1)
    assert 0.0 <= micro <= 1.0 and 0.0 <= macro <= 1.0


@settings(max_examples=200, deadline=None)
@given(case_seed=st.integers(0, 2**32 - 1), shuffle=st.booleans(),
       ties=st.booleans())
def test_classify_equals_the_per_row_loops(case_seed, shuffle, ties):
    """Multi-label rows and rows without a label; with `ties`, rounded or
    repeated feature rows and two equal label columns, whose equal scores
    the stable sort orders by class."""
    rng = np.random.default_rng(case_seed)
    n, c, d = int(rng.integers(6, 60)), int(rng.integers(2, 7)), int(rng.integers(1, 5))
    x = rng.normal(0, 1, (n, d))
    if ties:
        x = np.round(x) if rng.random() < 0.5 else x[rng.integers(0, 3, n)]
    y = (rng.random((n, c)) < rng.uniform(0.1, 0.7)).astype(float)
    y[:c] = np.eye(c)   # every class represented
    y[rng.random(n) < 0.2] = 0.0
    if ties:
        y[:, -1] = y[:, 0]   # two classes with equal weights and scores
    args = dict(train_fraction=rng.uniform(0.2, 0.9), seed=case_seed,
                shuffle=shuffle)
    try:
        expected = reference_classify(x, y, **args)
    except ValidationError:
        with pytest.raises(ValidationError):
            classify(x, y, **args)
        return
    assert classify(x, y, **args) == expected


# ----------------------------------------------------------------- reports

def test_report_lines_and_table(tmp_path):
    report = EvalReport(hr_at_k={10: 0.5, 50: 0.75}, auc=0.9,
                        metadata={"seed": 1})
    lines = report.lines()
    assert "hr@10=0.500000" in lines
    assert "auc=0.900000" in lines
    path = tmp_path / "report.txt"
    evaluation.write_report(report, path)
    text = path.read_text()
    assert "HR@10" in text and "auc=0.900000" in text


def test_label_file_loading(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("0 red\n1 blue\n1 red\n2 blue\n")
    y, classes = evaluation.load_labels(path, 3)
    assert classes == ["blue", "red"]
    assert y[1].tolist() == [1.0, 1.0]


# ------------------------------------------------------ one-pass evaluation

SEEDS = (0, 2**32, 2**130 + 3)


def random_case(rng, kind, k, integer, num_a, num_b, density, dim=None):
    """A random graph with tables and a prior over it. Integer-valued
    tables and priors make exact score ties common."""
    if kind == "homogeneous":
        pairs = rng.integers(0, num_a, (int(density * num_a), 2))
        rows = [(int(i), int(j)) for i, j in pairs if i != j]
        g = graph.from_edges(rows or [(0, 1)], num_nodes=num_a)
        num_b = num_a
    else:
        rows = rng.integers(0, [num_a, num_b], (int(density * num_a), 2)).tolist()
        g = graph.from_edges(rows or [(0, 0)], kind="bipartite", num_a=num_a,
                             num_b=num_b)
    dim = dim or int(rng.integers(1, 5))
    if integer:
        u = rng.integers(-1, 2, (num_a, k, dim)).astype(float)
        h = rng.integers(-1, 2, (num_b, k, dim)).astype(float)
        fa, fb = rng.integers(1, 3, (num_a, k)), rng.integers(1, 3, (num_b, k))
    else:
        u, h = rng.normal(0, 1, (num_a, k, dim)), rng.normal(0, 1, (num_b, k, dim))
        fa, fb = rng.random((num_a, k)) + 0.01, rng.random((num_b, k)) + 0.01
    prior = (facets.FacetPrior.from_factor(fa) if kind == "homogeneous"
             else facets.FacetPrior.from_factors(fa, fb))
    return g, EmbeddingTables(u=u, h=h), prior


@settings(max_examples=120, deadline=None)
@given(case_seed=st.integers(0, 2**32 - 1),
       mode=st.sampled_from(["homogeneous", "cross", "cross-diagonal"]),
       k=st.sampled_from([1, 3, 8, 9]), integer=st.booleans(),
       nan=st.sampled_from([None, "query", "candidate"]),
       num_negatives=st.integers(1, 25), seed=st.sampled_from(SEEDS))
def test_link_report_equals_the_per_query_loop(case_seed, mode, k, integer, nan,
                                               num_negatives, seed):
    rng = np.random.default_rng(case_seed)
    kind = "homogeneous" if mode == "homogeneous" else "bipartite"
    num_a, num_b = (int(x) for x in rng.integers(3, 40, 2))
    g, tables, prior = random_case(rng, kind, k, integer, num_a, num_b,
                                   density=rng.uniform(0.5, 6))
    pool_size = num_b if kind == "bipartite" else num_a
    test_edges = [(int(q), int(t)) for q, t in zip(
        rng.integers(0, num_a, rng.integers(1, 30)),
        rng.integers(0, pool_size, 30))]
    if nan == "query":
        tables.u[test_edges[0][0], 0, 0] = np.nan
    elif nan == "candidate":
        side = tables.u if mode == "homogeneous" else tables.h
        side[int(rng.integers(pool_size)), -1, 0] = np.nan
    ks = (1, 3, 10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            hr, auc_ref, cands, scores = reference_link_report(
                g, test_edges, tables, prior, mode, num_negatives, ks, seed)
        except ValidationError:   # no query has a negative
            with pytest.raises(ValidationError, match="nonempty"):
                evaluation.link_prediction_report(
                    g, test_edges, tables, prior, mode, num_negatives, ks, seed)
            return
        report = evaluation.link_prediction_report(
            g, test_edges, tables, prior, mode, num_negatives, ks, seed)
        cand, got = evaluation._scored_candidates(g, test_edges, tables, prior,
                                                  mode, num_negatives, seed)
    assert report.hr_at_k == hr
    assert report.auc == auc_ref or (np.isnan(report.auc) and np.isnan(auc_ref))
    for r, (ref_cand, ref_scores) in enumerate(zip(cands, scores)):
        width = len(ref_cand)
        assert np.array_equal(cand[r, :width], ref_cand)
        assert (cand[r, width:] == -1).all()
        assert np.array_equal(got[r, :width], ref_scores, equal_nan=True)


@pytest.mark.parametrize("seed", SEEDS)
def test_the_kernel_spawns_the_children_numpy_spawns(seed, compiled_kernel,
                                                     monkeypatch):
    """Every row the kernel draws from the root seed equals the numpy
    loop's, which seeds row r with numpy's own spawned child r."""
    g = graph.from_edges([(0, 1), (1, 2), (2, 3), (5, 9)], num_nodes=30)
    rng = np.random.default_rng(5)
    for n in (0, 1, 7, 5000):
        queries = rng.integers(0, 30, n)
        truths = (queries + rng.integers(1, 30, n)) % 30
        got = evaluation._candidates(g, queries, truths, 4, seed)
        with monkeypatch.context() as patched:
            patched.setattr(kernel, "function", lambda name: None)
            want = evaluation._candidates(g, queries, truths, 4, seed)
        assert evaluation._compiled_draw(30) is not None
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        # the loop's rows are numpy's choice from those children
        for r, child in list(enumerate(child_seeds(seed, n)))[:20]:
            assert got[0][r].tolist() == reference_candidates(
                (queries[r], truths[r]), g, 4, child)


def test_no_memory_for_the_candidates_is_a_capacity_error(monkeypatch):
    g = graph.from_edges([(0, 1), (1, 2)], num_nodes=5)
    queries, truths = np.array([0]), np.array([1])

    def no_memory(*args, **kwargs):
        raise MemoryError

    with monkeypatch.context() as patched:
        patched.setattr(np, "empty", no_memory)
        with pytest.raises(CapacityError, match="no memory"):
            evaluation._candidates(g, queries, truths, 10**12, 0)
    monkeypatch.setattr(evaluation, "_compiled_draw", lambda pool_size: lambda *a: -1)
    with pytest.raises(CapacityError, match="no memory for the candidate draw"):
        evaluation._candidates(g, queries, truths, 2, 0)


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_a_bad_seed_is_a_validation_error(seed):
    g = graph.from_edges([(0, 1), (1, 2)], num_nodes=5)
    tables = EmbeddingTables(u=np.ones((5, 1, 2)), h=np.zeros((5, 1, 2)))
    with pytest.raises(ValidationError, match="seed must be a nonnegative integer"):
        evaluation.link_prediction_report(g, [(0, 1)], tables,
                                          facets.FacetPrior.uniform(5),
                                          "homogeneous", num_negatives=2, seed=seed)


def test_one_warning_counts_the_pool_short_queries(monkeypatch):
    # nodes 1-3 neighbour nodes 4-20, so 21 of 40 nodes are left to them
    g = graph.from_edges([(v, j) for v in (1, 2, 3) for j in range(4, 21)],
                         num_nodes=40)
    rng = np.random.default_rng(4)
    tables = EmbeddingTables(u=rng.normal(0, 1, (40, 2, 3)), h=np.zeros((40, 2, 3)))
    prior = facets.FacetPrior.from_factor(rng.random((40, 2)) + 0.1)
    test_edges = [(1, 0), (2, 0), (3, 0)] + [(v, 0) for v in range(10, 17)]

    def run():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = evaluation.link_prediction_report(
                g, test_edges, tables, prior, "homogeneous", num_negatives=27,
                ks=(1, 5, 20), seed=3)
        assert len(caught) == 1 and caught[0].category is UserWarning
        return (str(caught[0].message), report.hr_at_k, report.auc,
                report.run["eval.pool_short"])

    message, hr_at_k, auc_got, pool_short = on_both_paths(monkeypatch, run)
    assert "3 of 10 queries" in message and "27" in message
    assert pool_short == 3
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        hr, auc_ref, cands, _ = reference_link_report(
            g, test_edges, tables, prior, "homogeneous", 27, (1, 5, 20), 3)
    assert sum(len(c) < 28 for c in cands) == 3
    assert hr_at_k == hr and auc_got == auc_ref


@pytest.mark.parametrize("mode", ["homogeneous", "cross"])
def test_pool_short_rows_share_one_candidate_side(mode, tmp_path, monkeypatch):
    # queries 1-3 neighbour 17 of the 20 candidates (nodes or items 4-20),
    # so their pools are short of 12 negatives; the rest are full
    rng = np.random.default_rng(8)
    links = [(v, j) for v in (1, 2, 3) for j in range(4, 21)]
    if mode == "homogeneous":
        g = graph.from_edges(links, num_nodes=24)
        num_b = 24
    else:
        g = graph.from_edges(links, kind="bipartite", num_a=24, num_b=21)
        num_b = 21
    tables = EmbeddingTables(u=rng.normal(0, 1, (24, 3, 4)),
                             h=rng.normal(0, 1, (num_b, 3, 4)))
    prior = facets.FacetPrior.from_factors(rng.random((24, 3)) + 0.1,
                                           rng.random((num_b, 3)) + 0.1)
    test_edges = [(1, 0), (2, 3), (3, 0)] + [(v, 0) for v in range(10, 18)]
    sides = []
    candidate_side = inference.candidate_side

    def counted_side(*args):
        sides.append(1)
        return candidate_side(*args)

    monkeypatch.setattr(inference, "candidate_side", counted_side)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = evaluation.link_prediction_report(
            g, test_edges, tables, prior, mode, num_negatives=12, ks=(1, 5), seed=2)
        cand, got = evaluation._scored_candidates(g, test_edges, tables, prior,
                                                  mode, 12, 2)
        hr, auc_ref, cands, scores = reference_link_report(
            g, test_edges, tables, prior, mode, 12, (1, 5), 2)
    assert len(sides) == 2   # once per report, not once per short row
    assert sum(len(c) < 13 for c in cands) == 3
    for r, (ref_cand, ref_scores) in enumerate(zip(cands, scores)):
        assert np.array_equal(cand[r, :len(ref_cand)], ref_cand)
        assert np.array_equal(got[r, :len(ref_cand)], ref_scores)
    evaluation.write_report(report, tmp_path / "got.report")
    evaluation.write_report(EvalReport(hr_at_k=hr, auc=auc_ref,
                                       metadata=report.metadata),
                            tmp_path / "ref.report")
    assert ((tmp_path / "got.report").read_bytes()
            == (tmp_path / "ref.report").read_bytes())


def test_link_report_is_one_pass(monkeypatch):
    rng = np.random.default_rng(11)
    g, tables, prior = random_case(rng, "bipartite", 3, False, 300, 400, density=4)
    test_edges = list(zip(rng.integers(0, 300, 1000).tolist(),
                          rng.integers(0, 400, 1000).tolist()))
    score_calls, spawn_calls = [], []
    score = inference.score_candidates

    def counted_score(*args, **kwargs):
        score_calls.append(1)
        return score(*args, **kwargs)

    class CountedSeedSequence(np.random.SeedSequence):
        def spawn(self, n_children):
            spawn_calls.append(n_children)
            return super().spawn(n_children)

    compiled = evaluation._compiled_draw(400)   # its self-check spawns, once a process
    monkeypatch.setattr(inference, "score_candidates", counted_score)
    monkeypatch.setattr(np.random, "SeedSequence", CountedSeedSequence)
    evaluation.link_prediction_report(g, test_edges, tables, prior, "cross",
                                      num_negatives=50, ks=(10,), seed=5)
    rows = len(test_edges) * 51
    assert 1 <= len(score_calls) <= -(-rows // inference.SCORE_ROWS)
    # the kernel derives every child seed; numpy's loop spawns them at once
    assert spawn_calls == ([] if compiled is not None else [len(test_edges)])


def test_link_report_memory_is_the_candidates_and_scores():
    rng = np.random.default_rng(12)
    g, tables, prior = random_case(rng, "homogeneous", 4, False, 800, 800,
                                   density=3, dim=16)
    q = 3000
    test_edges = list(zip(rng.integers(0, 800, q).tolist(),
                          rng.integers(0, 800, q).tolist()))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        evaluation.link_prediction_report(g, test_edges, tables, prior,
                                          "homogeneous", num_negatives=200,
                                          ks=(10,), seed=1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    arrays = 2 * q * 201 * 8   # int64 candidates and float64 scores
    assert peak < arrays + 8 * 2**20


@settings(max_examples=150, deadline=None)
@given(case_seed=st.integers(0, 2**32 - 1),
       stamps=st.sampled_from(["distinct", "tied", "missing", "mixed", None]),
       seed=st.integers(0, 2**63 - 1))
def test_latest_per_user_split_equals_the_per_user_loop(case_seed, stamps, seed):
    rng = np.random.default_rng(case_seed)
    num_a, num_b = (int(x) for x in rng.integers(2, 30, 2))
    edges = rng.integers(0, [num_a, num_b], (int(rng.integers(2, 120)), 2))
    ts = {"distinct": rng.permutation(len(edges)),
          "tied": rng.integers(0, 3, len(edges)),
          "missing": np.full(len(edges), -1),
          "mixed": np.where(rng.random(len(edges)) < 0.5, -1,
                            rng.integers(-3, 4, len(edges))),
          None: None}[stamps]
    if stamps == "mixed":   # some users keep only missing stamps
        ts[edges[:, 0] % 3 == 0] = -1
    g = graph.from_edges(edges.tolist(), kind="bipartite", num_a=num_a,
                         num_b=num_b, timestamps=None if ts is None else ts.tolist())
    assert_same_split(g, "latest-per-user", seed)


def assert_same_split(g, strategy, seed):
    """split_links and the reference loop hold out the same pairs and keep
    the same training edges, or both reject the graph."""
    try:
        ref_train, ref_test = reference_split_links(g, strategy, seed)
    except ValidationError:
        with pytest.raises(ValidationError, match="every edge"):
            split_links(g, strategy, seed)
        return
    train, test = split_links(g, strategy, seed)
    assert test == ref_test
    assert train.edges.tobytes() == ref_train.edges.tobytes()
    assert train.weights.tobytes() == ref_train.weights.tobytes()
    if isinstance(g, graph.BipartiteGraph):
        assert (train.timestamps is None) == (ref_train.timestamps is None)
        assert train.timestamps is None or (
            train.timestamps.tobytes() == ref_train.timestamps.tobytes())


@settings(max_examples=60, deadline=None)
@given(case_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**63 - 1))
def test_one_per_node_split_equals_the_per_node_loop(case_seed, seed):
    rng = np.random.default_rng(case_seed)
    n = int(rng.integers(3, 30))
    pairs = rng.integers(0, n, (int(rng.integers(3, 90)), 2))
    rows = [(int(i), int(j)) for i, j in pairs if i != j]
    g = graph.from_edges(rows or [(0, 1), (1, 2)], num_nodes=n)
    assert_same_split(g, "one-per-node", seed)
