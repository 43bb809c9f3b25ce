"""Fuzzed text loaders: any text or bytes either loads or raises a
PolyembedError, and a saved edge list reloads and saves byte for byte."""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from polyembed import cli, evaluation, graph, walks
from polyembed.errors import ParseError, PolyembedError

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

INTEGER_GRAPH = graph.from_edges([(0, 1), (1, 2), (2, 3)])
LABEL_GRAPH = replace(graph.from_edges([(0, 1), (1, 2)]), node_labels=["a", "b", "c"])
LOADERS = {
    "edges-homogeneous": graph.load_edge_list,
    "edges-bipartite": lambda path: graph.load_edge_list(path, "bipartite"),
    "corpus": walks.load_corpus,
    "labels": lambda path: evaluation.load_labels(path, 3),
    "labels-names": lambda path: evaluation.load_labels(path, 3, ["a", "b", "c"]),
    "config": cli.parse_config_file,
    "test-edges-integer": lambda path: cli._load_test_edges(path, INTEGER_GRAPH),
    "test-edges-labels": lambda path: cli._load_test_edges(path, LABEL_GRAPH),
}
# one valid file of each format; a fuzzed input replaces one of its tokens
VALID = ["# nodes 5\n# node x\n0 1 2.5\n1 2\n3 4 1 7\n",
         "# nodes 3 2\n# anode u\n0 1 1 5\nu 0\n2 1 0.5\n",
         "0 1 2\n2 1\n", "0 a\n1 b\n2 a\n", "k=3\nalpha=0.1\n", "a b\nb c\n"]
# Integers are small or beyond int64. An id or count in between is valid
# input and builds a graph that large, which is a size guard's job.
NUMBERS = st.one_of(st.integers(-10**6, 10**6),
                    st.sampled_from([2**63, -2**63 - 1, 10**20]))
TOKENS = st.one_of(st.text(), NUMBERS.map(str), st.floats().map(repr),
                   st.sampled_from(["#", "# nodes", "# node", "=", "01", "nan"]))


@st.composite
def corrupted(draw):
    lines = [line.split() for line in draw(st.sampled_from(VALID)).splitlines()]
    row, col = draw(st.sampled_from(
        [(r, c) for r, tokens in enumerate(lines) for c in range(len(tokens))]))
    lines[row][col] = draw(TOKENS)
    return ("\n".join(map(" ".join, lines)) + "\n").encode()


@pytest.mark.parametrize("name", sorted(LOADERS))
@FUZZ
@given(content=st.one_of(corrupted(), st.text().map(str.encode), st.binary()))
@example(content=b"0 1\n0 99999999999999999999\n")
@example(content=b"# nodes 99999999999999999999\n0 1\n")
@example(content=b"0 1 1 99999999999999999999\n")
@example(content=b"0 1 99999999999999999999\n")
def test_text_loader_loads_or_raises_polyembed_error(tmp_path, name, content):
    path = tmp_path / "input.txt"
    path.write_bytes(content)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # dropped self-loops
        try:
            LOADERS[name](path)
        except PolyembedError:
            pass


@pytest.mark.parametrize("name", ["labels", "labels-names", "test-edges-integer",
                                  "test-edges-labels"])
@pytest.mark.parametrize("text, message", [
    ("b\n", "line 1: expected 2 fields, got 1"),
    ("# a comment\n\nb c d\n", "line 3: expected 2 fields, got 3"),
    ("7 b\n", "line 1: unknown node '7'")])
def test_node_files_fail_alike(tmp_path, name, text, message):
    # label and test-edge files share graph.read_node_lines
    path = tmp_path / "nodes.txt"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))} {message}$"):
        LOADERS[name](path)


LABEL = st.text(alphabet="abxyz019-.Ω", min_size=1, max_size=3)


def one_node(a, b):
    """Whether two tokens can name one node: `0` and `00` do in integer mode."""
    return a == b or (a.isdecimal() and b.isdecimal() and int(a) == int(b))


@st.composite
def edge_lists(draw):
    """(kind, text) of an edge list: integer ids or string labels on each
    side, isolated nodes, repeated pairs in either orientation, and
    weights and timestamps on some rows only."""
    kind = draw(st.sampled_from(["homogeneous", "bipartite"]))
    directives = {"homogeneous": ("node",), "bipartite": ("anode", "bnode")}[kind]
    labelled = [draw(st.booleans()) for _ in directives]
    names, head = [], []
    for directive, has_labels in zip(directives, labelled):
        n = draw(st.integers(1, 6))
        if has_labels:   # some of them preset, the rest met in the edges
            labels = draw(st.lists(LABEL, min_size=n, max_size=n, unique=True))
            head += [f"# {directive} {label}"
                     for label in labels[:draw(st.integers(0, n))]]
            names.append(labels)
        else:
            names.append([str(i) for i in range(n)])
    if not any(labelled):   # isolated nodes beyond the last id
        head.insert(0, "# nodes " + " ".join(
            str(len(side) + draw(st.integers(0, 3))) for side in names))
    ends = names * (3 - len(names))
    weight = st.one_of(st.sampled_from(["0.1", "0.2", "0.3", "2.5"]),
                       st.floats(0, 1e6).map(repr))
    extra = st.one_of(st.just(()), st.tuples(weight),
                      st.tuples(weight, st.integers(-3, 50).map(str)))
    rows = draw(st.lists(st.tuples(st.sampled_from(ends[0]),
                                   st.sampled_from(ends[1]), extra),
                         min_size=1, max_size=12))
    assume(kind == "bipartite" or not all(one_node(a, b) for a, b, _ in rows))
    lines = [" ".join([a, b, *fields]) for a, b, fields in rows]
    return kind, "\n".join(head + lines) + "\n"


def stamps(g):
    """Timestamps with -1 (none) for every edge of a graph without them."""
    if g.kind == "homogeneous" or g.timestamps is None:
        return np.full(g.num_edges, -1)
    return g.timestamps


@FUZZ
@given(case=edge_lists())
def test_edge_list_round_trip_is_byte_identical(tmp_path, case):
    kind, text = case
    source, first, second = (tmp_path / n for n in ("in.edges", "1.edges", "2.edges"))
    source.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # dropped self-loops
        g = graph.load_edge_list(source, kind)
    graph.save_edge_list(g, first)
    g2 = graph.load_edge_list(first, kind)
    graph.save_edge_list(g2, second)
    assert second.read_bytes() == first.read_bytes()
    assert np.array_equal(g.edges, g2.edges)
    assert np.array_equal(g.weights.view(np.int64), g2.weights.view(np.int64))
    assert graph.sides(g) == graph.sides(g2)
    assert np.array_equal(stamps(g), stamps(g2))
