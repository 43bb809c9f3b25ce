from collections import Counter

import numpy as np
import pytest

from polyembed import graph, walks
from polyembed.errors import ValidationError
from polyembed.walks import Observation, WalkConfig, sliding_windows


def test_path_graph_forced_trajectory():
    g = graph.from_edges([(0, 1)])
    corpus = walks.generate_walks(g, WalkConfig(walks_per_node=3, walk_length=3))
    from_zero = [w for w in corpus if w[0] == 0]
    assert from_zero and all(w == [0, 1, 0] for w in from_zero)


def test_isolated_node_emits_no_walks():
    g = graph.from_edges([(0, 1)], num_nodes=3)
    corpus = walks.generate_walks(g, WalkConfig(walks_per_node=4, walk_length=3))
    assert all(2 not in w for w in corpus)
    assert len(corpus) == 8  # two non-isolated start nodes


def test_uniform_neighbor_frequency(triangle):
    config = WalkConfig(walks_per_node=10_000, walk_length=2, seed=9)
    corpus = walks.generate_walks(triangle, config)
    second = Counter(w[1] for w in corpus if w[0] == 0)
    for nbr in (1, 2):
        assert 0.48 <= second[nbr] / 10_000 <= 0.52


def test_weighted_steps_follow_edge_weight():
    g = graph.from_edges([(0, 1, 3.0), (0, 2, 1.0)])
    config = WalkConfig(walks_per_node=20_000, walk_length=2, seed=4)
    corpus = walks.generate_walks(g, config)
    second = Counter(w[1] for w in corpus if w[0] == 0)
    assert 0.72 <= second[1] / 20_000 <= 0.78


def test_walks_deterministic():
    g = graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    config = WalkConfig(walks_per_node=5, walk_length=6, seed=11)
    reference = walks.generate_walks(g, config)
    assert walks.generate_walks(g, config) == reference


def test_all_walk_nodes_valid():
    g = graph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
    corpus = walks.generate_walks(g, WalkConfig(walks_per_node=10, walk_length=5))
    assert all(0 <= v < g.num_nodes for w in corpus for v in w)


def test_walks_need_homogeneous_graph():
    b = graph.from_edges([(0, 0)], kind="bipartite")
    with pytest.raises(ValidationError):
        walks.generate_walks(b, WalkConfig())


def test_sliding_windows_basic():
    obs = sliding_windows([7, 8, 9], 1)
    assert obs == [Observation(7, (8,)), Observation(8, (7, 9)),
                   Observation(9, (8,))]


def test_sliding_windows_boundary_truncation():
    assert sliding_windows([4, 5], 5) == [Observation(4, (5,)),
                                          Observation(5, (4,))]


@pytest.mark.parametrize("length,window", [(3, 1), (5, 2), (8, 3), (6, 8)])
def test_sliding_windows_context_count(length, window):
    walk = list(np.random.default_rng(length).integers(0, 4, length))
    obs = sliding_windows(walk, window)
    assert len(obs) == length
    expected = sum(min(i, window) + min(length - 1 - i, window)
                   for i in range(length))
    assert sum(len(o.context) for o in obs) == expected


def test_window_context_symmetry():
    walk = [0, 1, 2, 1, 3, 0]
    obs = sliding_windows(walk, 2)
    pair_counts = Counter()
    for o in obs:
        for c in o.context:
            pair_counts[(o.center, c)] += 1
    for (a, b), count in pair_counts.items():
        assert pair_counts[(b, a)] == count


def test_corpus_round_trip(tmp_path):
    g = graph.from_edges([(0, 1), (1, 2)])
    corpus = walks.generate_walks(g, WalkConfig(walks_per_node=3, walk_length=4))
    path = tmp_path / "corpus.txt"
    walks.save_corpus(corpus, path)
    assert walks.load_corpus(path) == corpus


def test_walk_config_validation():
    with pytest.raises(ValidationError):
        WalkConfig(walk_length=1)
    with pytest.raises(ValidationError):
        WalkConfig(window=0)
