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
                      st.tuples(weight, st.integers(0, 50).map(str)))
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


def outcome(path, kind):
    """The graph load_edge_list builds, or the type and text of its error."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # dropped self-loops
            return graph.load_edge_list(path, kind)
    except PolyembedError as e:
        return type(e), str(e)


def assert_same_graph(got, want):
    assert type(got) is type(want)
    for name in ("edges", "weights"):
        assert np.array_equal(getattr(got, name).view(np.int64),
                              getattr(want, name).view(np.int64)), name
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got.adj, name), getattr(want.adj, name)), name
    assert got.adj.shape == want.adj.shape
    assert graph.sides(got) == graph.sides(want)
    assert np.array_equal(stamps(got), stamps(want))
    assert (getattr(got, "timestamps", None) is None) == (
        getattr(want, "timestamps", None) is None)


def reference_outcome(monkeypatch, path, kind):
    """outcome() with the np.loadtxt path declining every file."""
    with monkeypatch.context() as patched:
        patched.setattr(graph, "_fast_columns", lambda *args: None)
        return outcome(path, kind)


# Tokens of the edge-list grammar, each kind as (usual, rare): the rare
# ones are those int() or float() reads but np.loadtxt does not, or reads
# apart, and those neither reads.
ID_TOKENS = (st.integers(0, 30).map(str), st.sampled_from(
    ["+1", "01", "-0", "-1", "1.0", "0x10", "1_000", "١٢", "a", "#b", "1e3",
     "0" * 19 + "1", str(2**63 - 1), str(2**63), "nan"]))
WEIGHT_TOKENS = (st.one_of(st.floats(0, 1e6).map(repr), st.sampled_from(
    ["0.1", "1", "2.5", "5e-324", "1e17", "3.5e18"])), st.one_of(
    st.floats().map(repr), st.sampled_from(
        ["-0", "+.5", "5.", "1E2", "nan", "-nan", "inf", "1e400", "1e-400",
         "1_0.5", "0x1p3", "١", "-1", "#"])))
STAMP_TOKENS = (st.integers(0, 50).map(str), st.sampled_from(
    ["-1", "-2", "+3", "007", "-0", "1.0", "1_0", str(2**63 - 1), str(2**63), "#"]))
GAPS = (st.sampled_from([" ", "  ", "\t"]),
        st.sampled_from(["\xa0", "\x0b", "\x1c", " \x00", " #", "\u2028"]))
LINES = (st.sampled_from(["", "  ", "# a comment"]), st.sampled_from(
    ["# nodes 40", "# nodes 40 40", "# nodes 2", "# nodes 2 40", "# nodes x",
     "# node x", "# bnode 3", "#node 3 4", "0 1 # note"]))


@st.composite
def token_files(draw):
    """An edge list of grammar tokens. Half the files draw rare tokens,
    ragged rows and the other `#` lines (a `# nodes` line or a preset
    label, before or after the rows) now and then; every file may have
    blank and comment lines, a BOM, and any line end."""
    rate = draw(st.sampled_from([0, 4]))

    def token(kind):
        usual, rare = kind
        return draw(rare if rate and draw(st.integers(1, rate)) == 1 else usual)

    width = draw(st.integers(2, 4))
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        # another width as often as a rare token
        w = width if token((st.just(True), st.just(False))) else draw(st.integers(1, 5))
        tokens = [token(ID_TOKENS), token(ID_TOKENS), token(WEIGHT_TOKENS),
                  token(STAMP_TOKENS), "7"][:w]
        lines.append("".join(t + token(GAPS) for t in tokens).rstrip(" "))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), token(LINES))
    end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    return draw(st.sampled_from(["", "", "", "\ufeff"])) + end.join(lines) + end


@pytest.mark.parametrize("kind", ["homogeneous", "bipartite"])
@FUZZ
@given(text=token_files())
@example(text="0 1 # note\n")
@example(text="+1 01\n-0 2\n0x10 1\n")
@example(text="1.0 2\n")
@example(text="1_000 2\n")
@example(text="١٢ 2\n")
@example(text="0 1 1 +1\n0 2 1 01\n")
@example(text="0 1 nan\n")
@example(text="0 1 inf\n")
@example(text="0 1 1e400\n")
@example(text="0 1\r\n1 2\r\n")
@example(text="0 1\r1 2\r")
@example(text="0\t1\t2.5\n")
@example(text="0\xa01\n")
@example(text="\ufeff0 1\n")
@example(text="\n0 1\n\n1 2\n\n")
@example(text="0 1\n# nodes 5\n")
@example(text="# nodes 2\n0 5\n")
@example(text="# nodes 2 2\n0 5\n")
def test_fast_reader_matches_the_reference(tmp_path, monkeypatch, kind, text):
    path = tmp_path / "g.edges"
    path.write_bytes(text.encode())
    got, want = outcome(path, kind), reference_outcome(monkeypatch, path, kind)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert_same_graph(got, want)


@pytest.mark.parametrize("kind, stamped", [("homogeneous", False),
                                           ("bipartite", False),
                                           ("bipartite", True)])
def test_saved_edge_lists_take_the_fast_reader(tmp_path, monkeypatch, kind, stamped):
    rng = np.random.default_rng(5)
    rows = np.column_stack([rng.integers(0, 25, 200), rng.integers(25, 50, 200),
                            rng.random(200) * 3])
    rows[:6, 2] = [0.1, 5e-324, 1e17, 3.5e18, 0.0, 2.5e-17]
    g = graph.from_edges(rows, kind=kind, timestamps=(
        rng.integers(0, 10**12, 200) if stamped else None))
    path = tmp_path / "g.edges"
    graph.save_edge_list(g, path)
    fast = graph._fast_columns
    taken = []
    monkeypatch.setattr(graph, "_fast_columns",
                        lambda *args: taken.append(fast(*args)) or taken[-1])
    loaded = outcome(path, kind)
    assert taken[0] is not None
    assert_same_graph(loaded, g)
    assert_same_graph(loaded, reference_outcome(monkeypatch, path, kind))


def test_label_that_starts_with_hash_is_an_error(tmp_path):
    # saved, `#b c 1` would be a comment line and lose its edge
    path = tmp_path / "g.edges"
    path.write_text("x #b\nc #b\n")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))} line 1: "
                                         "label '#b' starts with '#'$"):
        graph.load_edge_list(path)
    path.write_text("# nodes 2\n# node a\n# node #x\na b\n")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))} line 3: "
                                         "label '#x' starts with '#'$"):
        graph.load_edge_list(path)


def test_negative_timestamp_is_an_error_on_both_readers(tmp_path, monkeypatch):
    # -1 is "no timestamp", so latest-per-user would not see these stamps
    path = tmp_path / "g.edges"
    path.write_text("0 0 1 -5\n0 1 1 -3\n1 0 1 2\n")
    error = (ParseError, f"{path} line 1: timestamp '-5' is negative")
    assert outcome(path, "bipartite") == error
    assert reference_outcome(monkeypatch, path, "bipartite") == error
