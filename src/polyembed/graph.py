"""Edge-list networks with CSR adjacency.

Graphs are built once, validated, and then shared read-only by the walk
generator, the NMF solvers and the trainers. Homogeneous graphs are kept
symmetric; bipartite graphs keep two independent id namespaces.

Edge-list file format (UTF-8 text): one `src dst [weight] [timestamp]` per
line, whitespace-separated; lines starting with `#` are comments. A side
(the node set of a homogeneous graph, or type A, or type B) with no preset
labels whose tokens are all nonnegative integers uses them as ids; any
other side numbers its labels (none starts with `#`), preset ones first,
then the rest in first-appearance order. Ids and counts fit in int64, and
bipartite timestamps in 0 .. 2^63 - 1. np.loadtxt reads ASCII integer-id
files of one row width; the Python reader (the reference) reads the rest.
Two comment directives, written by :func:`save_edge_list` and honoured on
load, make round-trips exact even with isolated nodes or string ids:
    # nodes N            (homogeneous)   /  # nodes A B   (bipartite)
    # node LABEL         (one per id, in id order; `# anode` / `# bnode`
                          for the two bipartite sides)
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from .errors import (INT64, CapacityError, ParseError, PolyembedError,
                     ValidationError, parse_numbers, read_text, text_lines)
from .kernel import Csr
from .tables import write_rows

DENSE_GUARD = 10**8

# the `# node`-style directive of each side's labels, by graph kind
SIDES = {"homogeneous": ("node",), "bipartite": ("anode", "bnode")}


@dataclass(frozen=True)
class Graph:
    """Undirected homogeneous network with a symmetric CSR adjacency."""

    num_nodes: int
    edges: np.ndarray             # (E, 2) int64, canonical pairs with i < j
    weights: np.ndarray           # (E,) float64, merged weights
    adj: Csr                      # num_nodes x num_nodes, symmetric
    node_labels: list[str] | None = None

    kind: ClassVar[str] = "homogeneous"

    @property
    def num_edges(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class BipartiteGraph:
    """Two-mode network; edges connect a type-A node to a type-B node."""

    num_a: int
    num_b: int
    edges: np.ndarray             # (E, 2) int64 rows (a_id, b_id)
    weights: np.ndarray           # (E,) float64
    timestamps: np.ndarray | None  # (E,) int64, or None when absent
    adj: Csr                      # num_a x num_b
    a_labels: list[str] | None = None
    b_labels: list[str] | None = None

    kind: ClassVar[str] = "bipartite"

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees_b(self) -> np.ndarray:
        return np.bincount(self.adj.indices, minlength=self.num_b)


def sides(graph):
    """(labels or None, node count) of the nodes in each edge column: type A
    then type B, or the one node set twice for a homogeneous graph."""
    if isinstance(graph, BipartiteGraph):
        return (graph.a_labels, graph.num_a), (graph.b_labels, graph.num_b)
    return ((graph.node_labels, graph.num_nodes),) * 2


def read_node_lines(path, columns) -> list[tuple]:
    """The `token token` lines of a text file, `#` lines and blank lines
    skipped. Token j < len(columns) names a node of the side `columns[j]`
    (a (labels or None, node count) pair of `sides`): a label becomes its
    index, else the token is an integer id below the count. Any other
    line is a ParseError naming the file and the line."""
    lookups = [dict(zip(labels, range(len(labels)))) if labels else None
               for labels, _ in columns]
    out = []
    for line_no, line in text_lines(path):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        where = f"{path} line {line_no}"
        if len(tokens) != 2:
            raise ParseError(f"{where}: expected 2 fields, got {len(tokens)}")
        row = list(tokens)
        for j, (lookup, (_, count)) in enumerate(zip(lookups, columns)):
            row[j] = (lookup.get(tokens[j], -1) if lookup is not None
                      else parse_numbers(tokens[j:j + 1], int, where)[0])
            if not 0 <= row[j] < count:
                raise ParseError(f"{where}: unknown node {tokens[j]!r}")
        out.append(tuple(row))
    return out


def _column(path, rows, line_nos, at, col, kind, name) -> list:
    """`kind` of field `col` of the rows indexed by `at`, or ParseError
    naming the first row whose field does not parse."""
    tokens = [rows[i][col] for i in at]
    try:
        return list(map(kind, tokens))
    except ValueError:
        for i, token in zip(at, tokens):
            try:
                kind(token)
            except ValueError:
                raise ParseError(f"{path} line {line_nos[i]}: bad {name} "
                                 f"{token!r}") from None


def _side_ids(tokens, preset, declared, where):
    """(ids, node count, labels or None) of one side's id tokens. With no
    preset labels and every token a nonnegative integer, the ids are those
    integers (integer mode); otherwise ids follow first appearance, preset
    labels first. `where(j)` names the line of token j."""
    unique = dict.fromkeys(tokens)
    try:
        values = None if preset else list(map(int, unique))
    except ValueError:
        values = None
    if values is not None and min(values) >= 0:
        lookup, labels = dict(zip(unique, values)), None
        num = max(values) + 1
        if declared is not None:
            if declared < num:
                raise ValidationError(
                    f"declared node count {declared} below max id {num - 1}")
            num = declared
        if max(values) + 1 not in INT64:   # the node count must fit too
            j = next(j for j, t in enumerate(tokens) if int(t) + 1 not in INT64)
            raise ParseError(f"{where(j)}: node id {tokens[j]!r} is too large")
    else:
        if any(t.startswith("#") for t in unique):   # it would save as a comment
            j = next(j for j, t in enumerate(tokens) if t.startswith("#"))
            raise ParseError(f"{where(j)}: label {tokens[j]!r} starts with '#'")
        labels = list(dict.fromkeys([*preset, *unique]))
        lookup, num = dict(zip(labels, range(len(labels)))), len(labels)
        if declared is not None and declared != num:
            raise ValidationError(
                f"declared node count {declared} != {num} labels seen")
    ids = np.fromiter(map(lookup.__getitem__, tokens), np.int64, len(tokens))
    return ids, num, labels


def load_edge_list(path, kind: str = "homogeneous"):
    """Load and validate a graph from an edge-list file.

    kind is "homogeneous" (symmetrized, self-loops dropped with a warning)
    or "bipartite" (column 1 = type A, column 2 = type B).
    """
    path = Path(path)
    if kind not in SIDES:
        raise ValidationError(f"unknown graph kind {kind!r}")
    text = read_text(path)
    lines = text.split("\n")
    resolved, weights, timestamps = (_fast_columns(path, text, lines, kind)
                                     or _columns(path, lines, kind))
    try:
        if kind == "homogeneous":
            (ids, num_nodes, labels), = resolved
            return _build_homogeneous(num_nodes, ids[0::2], ids[1::2], weights,
                                      labels)
        (a_ids, num_a, a_labels), (b_ids, num_b, b_labels) = resolved
        return _build_bipartite(num_a, num_b, a_ids, b_ids, weights, timestamps,
                                a_labels, b_labels)
    except (ValueError, MemoryError):   # numpy cannot allocate the CSR arrays
        counts = " and ".join(str(num) for _, num, _ in resolved)
        raise CapacityError(f"{path}: a graph of {counts} nodes does not fit "
                            "in memory") from None


def _scan(path, lines):
    """(data rows as token lists, their line numbers, the last `# nodes` line
    as (where, tokens) or None, the preset labels by directive) of lines."""
    rows, line_nos = [], []
    nodes, presets = None, {"node": [], "anode": [], "bnode": []}
    for line_no, raw in enumerate(lines, start=1):
        fields = raw.split()
        if fields and fields[0].startswith("#"):
            body = raw.split("#", 1)[1].split()
            if body[:1] == ["nodes"]:
                nodes = (f"{path} line {line_no}", body[1:])
            elif len(body) == 2 and body[0] in presets:
                if body[1].startswith("#"):
                    raise ParseError(f"{path} line {line_no}: label "
                                     f"{body[1]!r} starts with '#'")
                presets[body[0]].append(body[1])
        elif fields:
            rows.append(fields)
            line_nos.append(line_no)
    return rows, line_nos, nodes, presets


def _declared(nodes, kind) -> list:
    """Each side's node count in the `# nodes` line, or None without one."""
    if nodes is None:
        return [None] * len(SIDES[kind])
    where, tokens = nodes
    if len(tokens) != len(SIDES[kind]):
        counts = "one count" if kind == "homogeneous" else "two counts"
        raise ParseError(f"{where}: '# nodes' needs {counts}")
    return parse_numbers(tokens, int, where)


def _fast_columns(path, text, lines, kind):
    """`_columns` of an ASCII edge list of integer ids whose rows np.loadtxt
    reads (one width, no preset labels) and that meets `_columns`' checks,
    else None. (np.loadtxt has crashed the process on non-ASCII tokens.)"""
    head = next((i for i, line in enumerate(lines)   # the first data row
                 if line.lstrip()[:1] not in ("", "#")), len(lines))
    try:
        _, _, nodes, presets = _scan(path, lines[:head])
        declared = _declared(nodes, kind)
        width = len(lines[head].split()) if head < len(lines) else 0
        if not text.isascii() or any(presets.values()) or not 2 <= width <= 4:
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            body = np.loadtxt(lines[head:], comments=None, ndmin=1, dtype=[
                ("ids", np.int64, 2), ("w", np.float64), ("t", np.int64)][:width - 1])
    except (ValueError, Warning, PolyembedError):
        return None
    weights = body["w"] if width > 2 else np.ones(len(body))
    ids = [body["ids"].ravel()] if kind == "homogeneous" else list(body["ids"].T)
    nums = [int(i.max()) + 1 if n is None else n for i, n in zip(ids, declared)]
    stamps = body["t"] if kind == "bipartite" and width == 4 else None
    if (not (np.isfinite(weights) & (weights >= 0)).all()
            or not all(0 <= i.min() and i.max() < n < 2**63 for i, n in zip(ids, nums))
            or (stamps is not None and stamps.min() < 0)):
        return None
    return [(i, n, None) for i, n in zip(ids, nums)], weights, stamps


def _columns(path, lines, kind):
    """([(ids, node count, labels or None) of each side], weights, timestamps
    or None) of an edge list's lines, the one side of a homogeneous graph as
    src, dst, src, ...: the reference reader, which names the line at fault."""
    rows, line_nos, nodes, presets = _scan(path, lines)
    if not rows:
        raise ValidationError(f"{path}: no edges found")

    widths = np.fromiter(map(len, rows), np.int64, len(rows))
    bad = (widths < 2) | (widths > 4)
    if bad.any():
        i = int(bad.argmax())
        raise ParseError(f"{path} line {line_nos[i]}: expected 2-4 fields, "
                         f"got {widths[i]}")
    weights = np.ones(len(rows))
    weighted = np.flatnonzero(widths >= 3)
    weights[weighted] = _column(path, rows, line_nos, weighted, 2, float, "weight")
    stamped = np.flatnonzero(widths == 4)
    stamps = _column(path, rows, line_nos, stamped, 3, int, "timestamp")
    bad = ~(np.isfinite(weights) & (weights >= 0))
    if bad.any():
        i = int(bad.argmax())
        fault = "negative" if np.isfinite(weights[i]) else "non-finite"
        raise ValidationError(f"{path} line {line_nos[i]}: {fault} weight "
                              f"{float(weights[i])}")

    names = SIDES[kind]
    declared = _declared(nodes, kind)
    stride = 2 // len(names)   # a homogeneous graph's one side: src, dst, src, ...
    columns = [[t for r in rows for t in r[c:c + stride]] for c in range(len(names))]
    resolved = [_side_ids(tokens, presets[name], count,
                          lambda j: f"{path} line {line_nos[j // stride]}")
                for tokens, name, count in zip(columns, names, declared)]
    if not all(num in INT64 for _, num, _ in resolved):   # a declared count
        raise ParseError(f"{nodes[0]}: node count does not fit in int64")
    timestamps = None
    if kind == "bipartite" and len(stamped):
        for i, t in zip(stamped, stamps):
            if not 0 <= t < 2**63:
                fault = "is negative" if t < 0 else "does not fit in int64"
                raise ParseError(f"{path} line {line_nos[i]}: timestamp "
                                 f"{rows[i][3]!r} {fault}")
        timestamps = np.full(len(rows), -1, dtype=np.int64)
        timestamps[stamped] = stamps
    return resolved, weights, timestamps


def _merge(a, b, weights, timestamps=None):
    """Repeated (a, b) pairs merged into one edge each, ordered by (a, b):
    weights summed in input order, the latest timestamp (-1: none) kept."""
    order = np.lexsort((b, a))
    a, b, weights = a[order], b[order], weights[order]
    boundary = np.ones(len(a), dtype=bool)
    boundary[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    group = np.cumsum(boundary) - 1
    merged_w = np.zeros(int(boundary.sum()), dtype=np.float64)
    np.add.at(merged_w, group, weights)
    merged_ts = None
    if timestamps is not None:
        merged_ts = np.full(len(merged_w), -1, dtype=np.int64)
        np.maximum.at(merged_ts, group, np.asarray(timestamps, np.int64)[order])
    return np.stack([a[boundary], b[boundary]], axis=1), merged_w, merged_ts


def _build_homogeneous(num_nodes, src, dst, weights, labels):
    keep = src != dst
    dropped = int((~keep).sum())
    if dropped:
        warnings.warn(f"dropped {dropped} self-loop(s)", stacklevel=3)
        if dropped == len(src):
            raise ValidationError("graph has no edges after dropping self-loops")
        src, dst, weights = src[keep], dst[keep], weights[keep]
    edges, merged_w, _ = _merge(np.minimum(src, dst), np.maximum(src, dst), weights)
    both = np.concatenate([edges, edges[:, ::-1]])   # each edge both ways
    order = np.lexsort((both[:, 1], both[:, 0]))
    adj = Csr.from_rows(both[order, 0], both[order, 1],
                        np.tile(merged_w, 2)[order], (num_nodes, num_nodes))
    return Graph(num_nodes=num_nodes, edges=edges, weights=merged_w,
                 adj=adj, node_labels=labels)


def _build_bipartite(num_a, num_b, a_ids, b_ids, weights, timestamps,
                     a_labels, b_labels):
    edges, merged_w, merged_ts = _merge(a_ids, b_ids, weights, timestamps)
    # _merge orders the edges by (a, b): the CSR order
    adj = Csr.from_rows(edges[:, 0], edges[:, 1], merged_w, (num_a, num_b))
    return BipartiteGraph(num_a=num_a, num_b=num_b, edges=edges,
                          weights=merged_w, timestamps=merged_ts,
                          adj=adj,
                          a_labels=a_labels, b_labels=b_labels)


def from_edges(edges, num_nodes=None, kind="homogeneous", num_a=None,
               num_b=None, timestamps=None):
    """Build a graph directly from (src, dst[, weight]) rows: an (E, 2|3)
    array, or an iterable of equal-length tuples.

    An empty edge list is allowed when the node count is given explicitly.
    """
    rows = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
    if len(rows) == 0:
        given = (num_nodes,) if kind == "homogeneous" else (num_a, num_b)
        if None in given:
            raise ValidationError("no edges given")
        rows = np.zeros((0, 2), dtype=np.int64)
    if rows.ndim != 2 or rows.shape[1] not in (2, 3):
        raise ValidationError("edges must be (src, dst[, weight]) rows")
    src = rows[:, 0].astype(np.int64)
    dst = rows[:, 1].astype(np.int64)
    w = rows[:, 2].astype(np.float64) if rows.shape[1] == 3 else np.ones(len(rows))
    if (w < 0).any() or not np.isfinite(w).all():
        raise ValidationError("edge weights must be finite and nonnegative")
    if kind == "homogeneous":
        n = num_nodes if num_nodes is not None else int(max(src.max(), dst.max())) + 1
        _check_ids(np.concatenate([src, dst]), n, "node")
        return _build_homogeneous(n, src, dst, w, None)
    na = num_a if num_a is not None else int(src.max()) + 1
    nb = num_b if num_b is not None else int(dst.max()) + 1
    _check_ids(src, na, "type-A node")
    _check_ids(dst, nb, "type-B node")
    return _build_bipartite(na, nb, src, dst, w, timestamps, None, None)


def _check_ids(ids, count, name) -> None:
    """ValidationError naming the first id outside 0 .. count - 1."""
    bad = ids[(ids < 0) | (ids >= count)]
    if len(bad):
        raise ValidationError(f"{name} id {bad[0]} is outside 0..{count - 1} "
                              f"(the {name} count is {count})")


def save_edge_list(graph, path) -> None:
    """Write a graph back to edge-list form; load_edge_list inverts this."""
    names = SIDES[graph.kind]
    columns = sides(graph)
    head = ["# nodes " + " ".join(str(n) for _, n in columns[:len(names)])]
    for name, (labels, _) in zip(names, columns):
        head += [f"# {name} {label}" for label in labels or ()]
    stamps = graph.timestamps if graph.kind == "bipartite" else None
    write_pairs(path, graph.edges, columns, graph.weights, stamps, head)


def write_pairs(path, pairs, columns, weights=None, stamps=None, head=()) -> None:
    """Write the lines of `head`, then `a b [weight] [timestamp]` per (R, 2)
    node pair: a node by label if its side in `columns` (see `sides`) has
    labels, else by id; a weight as `%.17g`; a timestamp unless it is -1.
    tables.write_rows writes integer ids unless only some rows are stamped."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    values = np.zeros((len(pairs), 0)) if weights is None else weights[:, None]
    stamped = np.zeros(0, bool) if stamps is None else stamps >= 0
    with open(Path(path), "wb") as fh:
        fh.write("".join(line + "\n" for line in head).encode())
        if not any(labels for labels, _ in columns) and (
                stamped.all() or not stamped.any()):
            if stamped.any():
                pairs = np.column_stack([pairs, stamps])
            write_rows(fh, pairs, values, trailing=pairs.shape[1] - 2)
            return
        tokens = [[labels[i] for i in ids.tolist()] if labels else ids.tolist()
                  for ids, (labels, _) in zip(pairs.T, columns)]
        stamp = ([""] * len(pairs) if stamps is None else
                 [f" {t}" if t >= 0 else "" for t in stamps.tolist()])
        line = "%s %s" + " %.17g" * values.shape[1] + "%s\n"
        fh.writelines((line % row).encode()
                      for row in zip(*tokens, *values.T.tolist(), stamp))


def adjacency_dense(graph) -> np.ndarray:
    """Materialize the adjacency as a dense float64 matrix.

    Guarded: refuses matrices above DENSE_GUARD entries.
    """
    rows, cols = graph.adj.shape
    cells = rows * cols
    if cells > DENSE_GUARD:
        raise CapacityError(
            f"dense adjacency would need {cells} entries (> {DENSE_GUARD}); "
            "use a sparse factorization path instead")
    dense = np.zeros((rows, cols))
    dense[graph.adj.rows(), graph.adj.indices] = graph.adj.data
    return dense

