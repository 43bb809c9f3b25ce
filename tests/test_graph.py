import re
from dataclasses import replace

import numpy as np
import pytest
from conftest import to_dense

from polyembed import graph, kernel
from polyembed.errors import CapacityError, ParseError, ValidationError


def write(tmp_path, text, name="g.edges"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_symmetrizes(tmp_path):
    g = graph.load_edge_list(write(tmp_path, "0 1\n1 2\n"))
    assert g.num_nodes == 3
    assert len(g.adj.data) == 4  # directed arcs after symmetrization
    assert g.num_edges == 2


@pytest.mark.parametrize("text,kind,weight,timestamp", [
    pytest.param("0 1 2.0\n0 1 3.0\n", "homogeneous", 5.0, None, id="repeat"),
    # summed in file order: (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
    pytest.param("0 1 0.1\n1 0 0.2\n0 1 0.3\n", "homogeneous",
                 (0.1 + 0.2) + 0.3, None, id="file-order"),
    pytest.param("u i 1 7\nu i 2 3\nu i 4\n", "bipartite", 7.0, 7,
                 id="latest-timestamp"),
])
def test_duplicate_edges_merge_by_weight_sum(tmp_path, text, kind, weight,
                                            timestamp):
    assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
    g = graph.load_edge_list(write(tmp_path, text), kind=kind)
    assert g.num_edges == 1
    assert g.weights[0] == weight
    if timestamp is not None:
        assert g.timestamps[0] == timestamp


def test_reverse_duplicates_merge(tmp_path):
    g = graph.load_edge_list(write(tmp_path, "0 1 2.0\n1 0 3.0\n"))
    assert g.num_edges == 1
    assert g.weights[0] == 5.0


def test_bipartite_counts(tmp_path):
    g = graph.load_edge_list(write(tmp_path, "u0 i0\nu0 i1\nu1 i0\n"),
                             kind="bipartite")
    assert (g.num_a, g.num_b, g.num_edges) == (2, 2, 3)
    degrees = g.degrees_b()
    assert degrees.dtype == np.int64 and degrees.tolist() == [2, 1]


def test_adjacency_dense_triangle(triangle):
    a = graph.adjacency_dense(triangle)
    assert a.shape == (3, 3)
    assert np.array_equal(a, np.ones((3, 3)) - np.eye(3))


def test_adjacency_dense_bipartite_identity():
    g = graph.from_edges([(0, 0), (1, 1)], kind="bipartite", num_a=2, num_b=2)
    assert np.array_equal(graph.adjacency_dense(g), np.eye(2))


def test_adjacency_dense_empty_graph():
    g = graph.from_edges([], num_nodes=2)
    assert np.array_equal(graph.adjacency_dense(g), np.zeros((2, 2)))


def row(g, v):
    """Node v's CSR adjacency row as (id, weight) pairs."""
    lo, hi = g.adj.indptr[v], g.adj.indptr[v + 1]
    return list(zip(g.adj.indices[lo:hi].tolist(), g.adj.data[lo:hi].tolist()))


def test_neighbors_triangle(triangle):
    assert row(triangle, 0) == [(1, 1.0), (2, 1.0)]


def test_neighbors_isolated_node():
    g = graph.from_edges([(0, 1)], num_nodes=3)
    assert row(g, 2) == []


def test_neighbors_star_center():
    g = graph.from_edges([(0, i) for i in range(1, 5)])
    assert len(row(g, 0)) == 4


def test_dense_exactly_symmetric():
    rng = np.random.default_rng(0)
    rows = [(int(i), int(j), float(w)) for i, j, w in
            zip(rng.integers(0, 20, 60), rng.integers(0, 20, 60),
                rng.random(60) + 0.1) if i != j]
    g = graph.from_edges(rows)
    a = graph.adjacency_dense(g)
    assert np.abs(a - a.T).max() == 0.0


def test_dense_sum_is_twice_total_weight():
    g = graph.from_edges([(0, 1, 2.0), (1, 2, 3.5)])
    assert graph.adjacency_dense(g).sum() == 2 * g.weights.sum()


def test_dense_sum_equals_total_weight_bipartite():
    g = graph.from_edges([(0, 0, 2.0), (1, 1, 3.5)], kind="bipartite")
    assert graph.adjacency_dense(g).sum() == g.weights.sum()


@pytest.mark.parametrize("text,kind", [
    ("0 1\n0 2\n5 9 2.5\n", "homogeneous"),
    ("a b\nb c\nc a 2.0\n", "homogeneous"),
    ("u0 i0 1.0 5\nu1 i0 2.0 9\nu1 i1\n", "bipartite"),
    pytest.param("# nodes 12\n0 1\n3 2\n", "homogeneous", id="isolated-nodes"),
    pytest.param("# node solo\n# node b\na b\n", "homogeneous",
                 id="preset-labels"),
    pytest.param("# nodes 4 3\n0 0 1 5\n1 2\n3 1 2.5\n3 0 1 8\n", "bipartite",
                 id="some-timestamps"),
])
def test_round_trip(tmp_path, text, kind):
    g = graph.load_edge_list(write(tmp_path, text), kind=kind)
    out, again = tmp_path / "out.edges", tmp_path / "again.edges"
    graph.save_edge_list(g, out)
    g2 = graph.load_edge_list(out, kind=kind)
    assert np.array_equal(to_dense(g.adj), to_dense(g2.adj))
    assert graph.sides(g) == graph.sides(g2)
    if kind == "bipartite" and g.timestamps is not None:
        assert np.array_equal(g.timestamps, g2.timestamps)
    graph.save_edge_list(g2, again)
    assert again.read_bytes() == out.read_bytes()


@pytest.mark.parametrize("text,kind,expected", [
    # (labels or None, node count) of each side
    pytest.param("zeta alpha\nalpha beta\n", "homogeneous",
                 [(["zeta", "alpha", "beta"], 3)], id="labels"),
    # integer mode: the tokens are the ids, so `1` and `01` are one node
    pytest.param("0 1\n01 2\n", "homogeneous", [(None, 3)], id="integers"),
    # one negative or non-integer token switches the side to labels
    pytest.param("0 1\n-1 2\n", "homogeneous", [(["0", "1", "-1", "2"], 4)],
                 id="negative"),
    pytest.param("0 1\n1 2.0\n", "homogeneous", [(["0", "1", "2.0"], 3)],
                 id="non-integer"),
    # `# node` directives come first, in their own order
    pytest.param("# node 5\n# node x\n0 x\n", "homogeneous",
                 [(["5", "x", "0"], 3)], id="preset-first"),
    # each bipartite side picks its own rule
    pytest.param("3 apple\n0 pear\n3 pear\n", "bipartite",
                 [(None, 4), (["apple", "pear"], 2)], id="per-side"),
])
def test_string_ids_first_appearance(tmp_path, text, kind, expected):
    g = graph.load_edge_list(write(tmp_path, text), kind=kind)
    assert list(graph.sides(g))[:len(expected)] == expected


def test_self_loops_dropped_with_warning(tmp_path):
    with pytest.warns(UserWarning, match="self-loop"):
        g = graph.load_edge_list(write(tmp_path, "0 0\n0 1\n"))
    assert g.num_edges == 1


def test_comment_lines_skipped(tmp_path):
    g = graph.load_edge_list(write(tmp_path, "# a comment\n0 1\n\n1 2\n"))
    assert g.num_edges == 2


def test_malformed_line_reports_line_number(tmp_path):
    with pytest.raises(ParseError, match="line 2"):
        graph.load_edge_list(write(tmp_path, "0 1\n0 1 abc\n"))


def test_negative_weight_rejected(tmp_path):
    with pytest.raises(ValidationError, match="negative weight"):
        graph.load_edge_list(write(tmp_path, "0 1 -2.0\n"))


@pytest.mark.parametrize("edge,kwargs,message", [
    ((0, 5), {"num_nodes": 3}, "node id 5 is outside 0..2 (the node count is 3)"),
    ((5, 0), {"kind": "bipartite", "num_a": 2, "num_b": 9},
     "type-A node id 5 is outside 0..1 (the type-A node count is 2)"),
    ((0, 5), {"kind": "bipartite", "num_a": 9, "num_b": 2},
     "type-B node id 5 is outside 0..1 (the type-B node count is 2)"),
], ids=["homogeneous", "type-a", "type-b"])
def test_from_edges_rejects_ids_beyond_the_node_count(edge, kwargs, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        graph.from_edges([edge], **kwargs)


def test_empty_file_rejected(tmp_path):
    with pytest.raises(ValidationError, match="no edges"):
        graph.load_edge_list(write(tmp_path, "# nothing\n"))


def test_dense_capacity_guard(tmp_path):
    g = graph.load_edge_list(write(tmp_path, "# nodes 10001\n0 1\n"))
    assert g.num_nodes == 10001
    with pytest.raises(CapacityError, match="sparse"):
        graph.adjacency_dense(g)


def test_read_node_lines_resolves_each_side(tmp_path):
    path = tmp_path / "nodes.txt"
    path.write_text("# a comment\n\nu 3\n  w 01  \n")
    g = graph.from_edges([(0, 0), (1, 3)], kind="bipartite")
    named = replace(g, a_labels=["u", "w"])
    # type A by label, type B by integer id
    assert graph.read_node_lines(path, graph.sides(named)) == [(0, 3), (1, 1)]
    # one node column: the second token is kept as text
    assert graph.read_node_lines(path, graph.sides(named)[:1]) == [(0, "3"),
                                                                   (1, "01")]
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))} line 3: "
                                         "expected int values, got 'u'$"):
        graph.read_node_lines(path, graph.sides(g))


def python_edge_list(g) -> bytes:
    """save_edge_list's bytes for an integer-id graph, line by line in
    Python: `%d %d %.17g`, then ` %d` on a row with a timestamp."""
    counts = [n for _, n in graph.sides(g)][:2 if g.kind == "bipartite" else 1]
    stamps = (g.timestamps if g.kind == "bipartite" and g.timestamps is not None
              else np.full(g.num_edges, -1))
    lines = ["# nodes " + " ".join(map(str, counts))] + [
        "%d %d %.17g%s" % (a, b, w, f" {t}" if t >= 0 else "")
        for (a, b), w, t in zip(g.edges.tolist(), g.weights.tolist(), stamps.tolist())]
    return "".join(line + "\n" for line in lines).encode()


@pytest.mark.parametrize("kind, stamped", [("homogeneous", "none"),
                                           ("bipartite", "none"),
                                           ("bipartite", "some"),
                                           ("bipartite", "all")])
def test_edge_list_writer_writes_python_bytes(tmp_path, monkeypatch, compiled_kernel,
                                              kind, stamped):
    rng = np.random.default_rng(11)
    weights = np.concatenate([[0.1, 5e-324, 1e-310, 1e17, 1.5e17, 2.0**60, 0.0],
                              rng.random(40) * 10])
    n = len(weights)
    rows = np.column_stack([np.arange(n), n + rng.integers(0, 9, n), weights])
    stamps = {"none": None,
              "some": np.where(rng.random(n) < 0.5, rng.integers(0, 10**15, n), -1),
              "all": rng.integers(0, 2**62, n)}[stamped]
    g = graph.from_edges(rows, kind=kind, timestamps=stamps)
    path, pairs = tmp_path / "g.edges", tmp_path / "test.edges"
    for function in (kernel.function, lambda name: None):
        monkeypatch.setattr(kernel, "function", function)
        graph.save_edge_list(g, path)
        assert path.read_bytes() == python_edge_list(g)
        graph.write_pairs(pairs, g.edges[::3].tolist(), graph.sides(g))
        assert pairs.read_text() == "".join("%d %d\n" % (a, b)
                                            for a, b in g.edges[::3].tolist())
