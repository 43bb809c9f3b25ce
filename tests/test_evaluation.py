import numpy as np
import pytest
from conftest import auc_brute_force

from polyembed import evaluation, graph
from polyembed.errors import ProtocolError, ValidationError
from polyembed.evaluation import (EvalReport, auc, candidate_protocol, classify,
                                  hit_ratio, split_links)


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
    assert np.array_equal(s1[0].adj.toarray(), s2[0].adj.toarray())


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

def test_candidate_count_small_graph():
    g = graph.from_edges([(0, 1), (1, 2)])
    cands = candidate_protocol((0, 1), g, num_negatives=1, seed=0)
    assert len(cands) == 2
    assert cands[0] == 1


def test_candidates_never_include_training_neighbors():
    rng = np.random.default_rng(2)
    rows = [(int(i), int(j)) for i, j in rng.integers(0, 20, (40, 2)) if i != j]
    g = graph.from_edges(rows, num_nodes=20)
    nbrs = set(g.adj.indices[g.adj.indptr[0]:g.adj.indptr[1]].tolist())
    cands = candidate_protocol((0, list(nbrs)[0]), g, num_negatives=5, seed=1)
    assert not (set(cands[1:]) & nbrs)
    assert 0 not in cands[1:]


def test_candidates_deterministic():
    g = graph.from_edges([(0, i) for i in range(1, 4)], num_nodes=12)
    c1 = candidate_protocol((0, 1), g, num_negatives=5, seed=9)
    c2 = candidate_protocol((0, 1), g, num_negatives=5, seed=9)
    assert c1 == c2


def test_candidates_warn_when_pool_short():
    g = graph.from_edges([(0, 1), (1, 2)])
    with pytest.warns(UserWarning, match="non-neighbors"):
        candidate_protocol((0, 1), g, num_negatives=50, seed=0)


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
