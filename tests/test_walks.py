from collections import Counter
from unittest import mock

import numpy as np
import pytest
from conftest import make_sbm, reference_walks, to_dense
from hypothesis import given, settings
from hypothesis import strategies as st

from polyembed import cli, graph, walks
from polyembed.errors import ValidationError
from polyembed.walks import Observation, WalkConfig, sliding_windows


def test_path_graph_forced_trajectory():
    g = graph.from_edges([(0, 1)])
    corpus = walks.generate_walks(g, WalkConfig(walks_per_node=3, walk_length=3))
    from_zero = corpus[corpus[:, 0] == 0]
    assert len(from_zero) and (from_zero == [0, 1, 0]).all()


def test_isolated_node_emits_no_walks():
    g = graph.from_edges([(0, 1)], num_nodes=3)
    corpus = walks.generate_walks(g, WalkConfig(walks_per_node=4, walk_length=3))
    assert all(2 not in w for w in corpus)
    assert len(corpus) == 8  # two non-isolated start nodes


def test_uniform_neighbor_frequency(triangle):
    config = WalkConfig(walks_per_node=10_000, walk_length=2, seed=9,
                        weighted=False)
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
    assert np.array_equal(walks.generate_walks(g, config), reference)


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
    assert np.array_equal(walks.load_corpus(path), corpus)


def test_walk_config_validation():
    with pytest.raises(ValidationError):
        WalkConfig(walk_length=1)
    with pytest.raises(ValidationError):
        WalkConfig(window=0)


def reference_matrix(g, config):
    return np.array(reference_walks(g, config),
                    dtype=np.int64).reshape(-1, config.walk_length)


WEIGHTS = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0.01, 100.0))


@st.composite
def weighted_graphs(draw):
    """Graphs with isolated nodes, tied weights and zero-weight edges
    beside positive ones; repeated pairs add their weights."""
    n = draw(st.integers(2, 12))
    node = st.integers(0, n - 1)
    rows = [(a, b, w) for a, b, w in draw(st.lists(
        st.tuples(node, node, WEIGHTS), min_size=1, max_size=30)) if a != b]
    if not rows:
        rows = [(0, 1, draw(WEIGHTS))]
    return graph.from_edges(rows, num_nodes=n + draw(st.integers(0, 3)))


@settings(max_examples=200, deadline=None)
@given(g=weighted_graphs(), walks_per_node=st.integers(1, 4),
       walk_length=st.integers(2, 7), seed=st.integers(0, 2**20),
       weighted=st.booleans(), block=st.sampled_from([1, 5, walks.WALK_BLOCK]))
def test_generator_matches_the_step_by_step_reference(g, walks_per_node,
                                                      walk_length, seed,
                                                      weighted, block):
    config = WalkConfig(walks_per_node=walks_per_node, walk_length=walk_length,
                        seed=seed, weighted=weighted)
    with mock.patch.object(walks, "WALK_BLOCK", block):
        corpus = walks.generate_walks(g, config)
    assert np.array_equal(corpus, reference_matrix(g, config))


@pytest.mark.parametrize("weighted,block", [(True, walks.WALK_BLOCK),
                                            (True, 7),
                                            (False, walks.WALK_BLOCK)])
def test_generator_matches_the_reference_on_a_weighted_sbm(weighted, block,
                                                           monkeypatch):
    """Degrees up to about 25, so the lockstep search takes several rounds;
    a block of 7 walks steps two start nodes at a time."""
    monkeypatch.setattr(walks, "WALK_BLOCK", block)
    g = make_sbm(3)
    w = np.random.default_rng(3).random(g.num_edges) + 0.05
    g = graph.from_edges(np.column_stack([g.edges, w]), num_nodes=g.num_nodes)
    config = WalkConfig(walks_per_node=3, walk_length=9, seed=17,
                        weighted=weighted)
    assert np.array_equal(walks.generate_walks(g, config),
                          reference_matrix(g, config))


@pytest.mark.parametrize("edges,unreached", [("0 1 0\n1 2 1\n2 3 1\n", 0),
                                             ("0 1 1\n1 2 1\n2 3 0\n", 3)])
def test_weighted_walks_leave_out_nodes_whose_edges_weigh_0(tmp_path, edges,
                                                           unreached):
    source, out = tmp_path / "g.edges", tmp_path / "g.walks"
    source.write_text(edges)
    argv = ["walks", "--input", str(source), "--walks-per-node", "4",
            "--walk-length", "5", "--out", str(out)]
    assert cli.run(argv) == 0
    corpus = walks.load_corpus(out)
    assert corpus.shape == (12, 5) and unreached not in corpus
    weight = to_dense(graph.load_edge_list(source).adj)
    assert (weight[corpus[:, :-1], corpus[:, 1:]] > 0).all()
    assert cli.run(argv + ["--uniform"]) == 0    # uniform walks start anywhere
    assert set(walks.load_corpus(out)[:, 0].tolist()) == {0, 1, 2, 3}


def test_weighted_walk_into_a_row_that_sums_to_0_is_an_error():
    """Row 3's weight 1e-20 vanishes beside the 2e17 summed before it, but
    row 0's does not, so a walk from 0 reaches 3 and has nowhere to go."""
    g = graph.from_edges([(0, 3, 1e-20), (1, 2, 1e17)])
    with pytest.raises(ValidationError, match="node 3"):
        walks.generate_walks(g, WalkConfig(walks_per_node=1, walk_length=3))


def test_ragged_corpus_loads_padded_and_saves_byte_identical(tmp_path,
                                                             monkeypatch):
    monkeypatch.setattr(walks, "SAVE_ROWS", 2)   # two blocks
    source, copy = tmp_path / "in.walks", tmp_path / "out.walks"
    source.write_text("0 1 2\n\n3\n4 5\n")
    corpus = walks.load_corpus(source)
    assert np.array_equal(corpus, [[0, 1, 2], [3, -1, -1], [4, 5, -1]])
    walks.save_corpus(corpus, copy)
    assert copy.read_text() == "0 1 2\n3\n4 5\n"
