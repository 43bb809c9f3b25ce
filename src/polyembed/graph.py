"""Edge-list networks with CSR adjacency.

Graphs are built once, validated, and then shared read-only by the walk
generator, the NMF solvers and the trainers. Homogeneous graphs are kept
symmetric; bipartite graphs keep two independent id namespaces.

Edge-list file format (UTF-8 text):
    src dst [weight] [timestamp]
separated by spaces or tabs, one edge per line. Lines starting with `#`
are comments. Node ids are nonnegative integers, or arbitrary strings
which get mapped to dense ids in first-appearance order. Two comment
directives, written by :func:`save_edge_list` and honoured on load, make
round-trips exact even with isolated nodes or string ids:
    # nodes N            (homogeneous)   /  # nodes A B   (bipartite)
    # node LABEL         (one per id, in id order; `# anode` / `# bnode`
                          for the two bipartite sides)
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from .errors import (CapacityError, ParseError, ValidationError, parse_numbers,
                     text_lines)

DENSE_GUARD = 10**8


@dataclass(frozen=True)
class Graph:
    """Undirected homogeneous network with a symmetric CSR adjacency."""

    num_nodes: int
    edges: np.ndarray             # (E, 2) int64, canonical pairs with i < j
    weights: np.ndarray           # (E,) float64, merged weights
    adj: sparse.csr_matrix        # num_nodes x num_nodes, symmetric
    node_labels: list[str] | None = None

    kind: str = "homogeneous"

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
    adj: sparse.csr_matrix        # num_a x num_b
    adj_t: sparse.csr_matrix      # num_b x num_a
    a_labels: list[str] | None = None
    b_labels: list[str] | None = None

    kind: str = "bipartite"

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees_b(self) -> np.ndarray:
        return np.diff(self.adj_t.indptr)


def _parse_lines(path):
    """Yield (line_no, fields) for data lines; collect comment directives."""
    directives = {"nodes": None, "node": [], "anode": [], "bnode": []}
    rows = []
    for line_no, raw in text_lines(path):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip().split()
            if body[:1] == ["nodes"]:
                directives["nodes"] = (line_no, body[1:])
            elif body[:1] in (["node"], ["anode"], ["bnode"]) and len(body) == 2:
                directives[body[0]].append(body[1])
            continue
        rows.append((line_no, line.split()))
    return rows, directives


def _parse_edge_fields(path, line_no, fields):
    if len(fields) < 2 or len(fields) > 4:
        raise ParseError(f"{path} line {line_no}: expected 2-4 fields, "
                         f"got {len(fields)}")
    src, dst = fields[0], fields[1]
    weight = 1.0
    timestamp = None
    if len(fields) >= 3:
        try:
            weight = float(fields[2])
        except ValueError:
            raise ParseError(f"{path} line {line_no}: bad weight "
                             f"{fields[2]!r}") from None
    if len(fields) == 4:
        try:
            timestamp = int(fields[3])
        except ValueError:
            raise ParseError(f"{path} line {line_no}: bad timestamp "
                             f"{fields[3]!r}") from None
    if not np.isfinite(weight):
        raise ValidationError(f"{path} line {line_no}: non-finite weight {weight}")
    if weight < 0:
        raise ValidationError(f"{path} line {line_no}: negative weight {weight}")
    return src, dst, weight, timestamp


class _IdMapper:
    """Maps raw id tokens to dense ints, honouring pre-registered labels."""

    def __init__(self, preset_labels=None):
        self.by_label = {}
        self.labels = []
        self.all_int = True
        self.max_int = -1
        self.preset = bool(preset_labels)
        if preset_labels:
            for label in preset_labels:
                self._register(label)

    def _register(self, token):
        if token not in self.by_label:
            self.by_label[token] = len(self.labels)
            self.labels.append(token)
        try:
            value = int(token)
            if value < 0:
                self.all_int = False
            else:
                self.max_int = max(self.max_int, value)
        except ValueError:
            self.all_int = False
        return self.by_label[token]

    def add(self, token):
        return self._register(token)

    def resolve(self, declared_count=None):
        """Return (num_nodes, token->id remap, labels or None)."""
        if self.all_int and not self.preset:
            # integer mode: tokens are the ids themselves
            num = self.max_int + 1
            if declared_count is not None:
                if declared_count < num:
                    raise ValidationError(
                        f"declared node count {declared_count} below max id {self.max_int}")
                num = declared_count
            remap = {label: int(label) for label in self.labels}
            return num, remap, None
        num = len(self.labels)
        if declared_count is not None and declared_count != num:
            raise ValidationError(
                f"declared node count {declared_count} != {num} labels seen")
        remap = dict(self.by_label)
        return num, remap, list(self.labels)


def load_edge_list(path, kind: str = "homogeneous"):
    """Load and validate a graph from an edge-list file.

    kind is "homogeneous" (symmetrized, self-loops dropped with a warning)
    or "bipartite" (column 1 = type A, column 2 = type B).
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"no such file: {path}")
    if kind not in ("homogeneous", "bipartite"):
        raise ValidationError(f"unknown graph kind {kind!r}")
    rows, directives = _parse_lines(path)
    if not rows:
        raise ValidationError(f"{path}: no edges found")

    parsed = [_parse_edge_fields(path, line_no, fields) for line_no, fields in rows]

    declared = None
    if directives["nodes"] is not None:
        line_no, tokens = directives["nodes"]
        where = f"{path} line {line_no}"
        counts = "one count" if kind == "homogeneous" else "two counts"
        if len(tokens) != (1 if kind == "homogeneous" else 2):
            raise ParseError(f"{where}: '# nodes' needs {counts}")
        declared = parse_numbers(tokens, int, where)
    if kind == "homogeneous":
        mapper = _IdMapper(directives["node"] or None)
        src_ids = np.empty(len(parsed), dtype=np.int64)
        dst_ids = np.empty(len(parsed), dtype=np.int64)
        for i, (s, d, _, _) in enumerate(parsed):
            mapper.add(s)
            mapper.add(d)
        num_nodes, remap, labels = mapper.resolve(declared[0] if declared else None)
        for i, (s, d, _, _) in enumerate(parsed):
            src_ids[i] = remap[s]
            dst_ids[i] = remap[d]
        weights = np.array([p[2] for p in parsed], dtype=np.float64)
        return _build_homogeneous(num_nodes, src_ids, dst_ids, weights, labels)

    mapper_a = _IdMapper(directives["anode"] or None)
    mapper_b = _IdMapper(directives["bnode"] or None)
    for s, d, _, _ in parsed:
        mapper_a.add(s)
        mapper_b.add(d)
    declared_a, declared_b = declared or (None, None)
    num_a, remap_a, a_labels = mapper_a.resolve(declared_a)
    num_b, remap_b, b_labels = mapper_b.resolve(declared_b)
    a_ids = np.array([remap_a[p[0]] for p in parsed], dtype=np.int64)
    b_ids = np.array([remap_b[p[1]] for p in parsed], dtype=np.int64)
    weights = np.array([p[2] for p in parsed], dtype=np.float64)
    ts_values = [p[3] for p in parsed]
    timestamps = None
    if any(t is not None for t in ts_values):
        timestamps = np.array([-1 if t is None else t for t in ts_values],
                              dtype=np.int64)
    return _build_bipartite(num_a, num_b, a_ids, b_ids, weights, timestamps,
                            a_labels, b_labels)


def _build_homogeneous(num_nodes, src, dst, weights, labels):
    keep = src != dst
    dropped = int((~keep).sum())
    if dropped:
        warnings.warn(f"dropped {dropped} self-loop(s)", stacklevel=3)
        src, dst, weights = src[keep], dst[keep], weights[keep]
    if len(src) == 0:
        raise ValidationError("graph has no edges after dropping self-loops")
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    # merge duplicates (either orientation) by weight summation
    order = np.lexsort((hi, lo))
    lo, hi, weights = lo[order], hi[order], weights[order]
    boundary = np.ones(len(lo), dtype=bool)
    boundary[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    group = np.cumsum(boundary) - 1
    merged_w = np.zeros(group[-1] + 1, dtype=np.float64)
    np.add.at(merged_w, group, weights)
    edges = np.stack([lo[boundary], hi[boundary]], axis=1)
    adj = sparse.coo_matrix(
        (np.concatenate([merged_w, merged_w]),
         (np.concatenate([edges[:, 0], edges[:, 1]]),
          np.concatenate([edges[:, 1], edges[:, 0]]))),
        shape=(num_nodes, num_nodes)).tocsr()
    adj.sort_indices()
    return Graph(num_nodes=num_nodes, edges=edges, weights=merged_w,
                 adj=adj, node_labels=labels)


def _build_bipartite(num_a, num_b, a_ids, b_ids, weights, timestamps,
                     a_labels, b_labels):
    order = np.lexsort((b_ids, a_ids))
    a_ids, b_ids, weights = a_ids[order], b_ids[order], weights[order]
    if timestamps is not None:
        timestamps = timestamps[order]
    boundary = np.ones(len(a_ids), dtype=bool)
    boundary[1:] = (a_ids[1:] != a_ids[:-1]) | (b_ids[1:] != b_ids[:-1])
    group = np.cumsum(boundary) - 1
    merged_w = np.zeros(group[-1] + 1, dtype=np.float64)
    np.add.at(merged_w, group, weights)
    merged_ts = None
    if timestamps is not None:
        merged_ts = np.full(group[-1] + 1, -1, dtype=np.int64)
        np.maximum.at(merged_ts, group, timestamps)  # keep latest on merge
    edges = np.stack([a_ids[boundary], b_ids[boundary]], axis=1)
    adj = sparse.coo_matrix((merged_w, (edges[:, 0], edges[:, 1])),
                            shape=(num_a, num_b)).tocsr()
    adj.sort_indices()
    adj_t = adj.T.tocsr()
    adj_t.sort_indices()
    return BipartiteGraph(num_a=num_a, num_b=num_b, edges=edges,
                          weights=merged_w, timestamps=merged_ts,
                          adj=adj, adj_t=adj_t,
                          a_labels=a_labels, b_labels=b_labels)


def from_edges(edges, num_nodes=None, kind="homogeneous", num_a=None,
               num_b=None, timestamps=None):
    """Build a graph directly from (src, dst[, weight]) rows: an (E, 2|3)
    array, or an iterable of equal-length tuples.

    An empty edge list is allowed when the node count is given explicitly.
    """
    rows = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
    if len(rows) == 0:
        if kind == "homogeneous" and num_nodes is not None:
            adj = sparse.csr_matrix((num_nodes, num_nodes))
            return Graph(num_nodes=num_nodes,
                         edges=np.zeros((0, 2), dtype=np.int64),
                         weights=np.zeros(0), adj=adj)
        if kind == "bipartite" and num_a is not None and num_b is not None:
            adj = sparse.csr_matrix((num_a, num_b))
            return BipartiteGraph(num_a=num_a, num_b=num_b,
                                  edges=np.zeros((0, 2), dtype=np.int64),
                                  weights=np.zeros(0), timestamps=None,
                                  adj=adj, adj_t=adj.T.tocsr())
        raise ValidationError("no edges given")
    if rows.ndim != 2 or rows.shape[1] not in (2, 3):
        raise ValidationError("edges must be (src, dst[, weight]) rows")
    src = rows[:, 0].astype(np.int64)
    dst = rows[:, 1].astype(np.int64)
    w = rows[:, 2].astype(np.float64) if rows.shape[1] == 3 else np.ones(len(rows))
    if (w < 0).any() or not np.isfinite(w).all():
        raise ValidationError("edge weights must be finite and nonnegative")
    if src.min() < 0 or dst.min() < 0:
        raise ValidationError("node ids must be nonnegative")
    if kind == "homogeneous":
        n = num_nodes if num_nodes is not None else int(max(src.max(), dst.max())) + 1
        return _build_homogeneous(n, src, dst, w, None)
    na = num_a if num_a is not None else int(src.max()) + 1
    nb = num_b if num_b is not None else int(dst.max()) + 1
    ts = None
    if timestamps is not None:
        ts = np.asarray(timestamps, dtype=np.int64)
    return _build_bipartite(na, nb, src, dst, w, ts, None, None)


def save_edge_list(graph, path) -> None:
    """Write a graph back to edge-list form; load_edge_list inverts this."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(graph, BipartiteGraph):
            fh.write(f"# nodes {graph.num_a} {graph.num_b}\n")
            if graph.a_labels is not None:
                for label in graph.a_labels:
                    fh.write(f"# anode {label}\n")
            if graph.b_labels is not None:
                for label in graph.b_labels:
                    fh.write(f"# bnode {label}\n")
            for idx in range(graph.num_edges):
                a, b = graph.edges[idx]
                a_tok = graph.a_labels[a] if graph.a_labels else str(a)
                b_tok = graph.b_labels[b] if graph.b_labels else str(b)
                line = f"{a_tok} {b_tok} {graph.weights[idx]:.17g}"
                if graph.timestamps is not None and graph.timestamps[idx] >= 0:
                    line += f" {graph.timestamps[idx]}"
                fh.write(line + "\n")
        else:
            fh.write(f"# nodes {graph.num_nodes}\n")
            if graph.node_labels is not None:
                for label in graph.node_labels:
                    fh.write(f"# node {label}\n")
            for idx in range(graph.num_edges):
                i, j = graph.edges[idx]
                i_tok = graph.node_labels[i] if graph.node_labels else str(i)
                j_tok = graph.node_labels[j] if graph.node_labels else str(j)
                fh.write(f"{i_tok} {j_tok} {graph.weights[idx]:.17g}\n")


def adjacency_dense(graph) -> np.ndarray:
    """Materialize the adjacency as a dense float64 matrix.

    Guarded: refuses matrices above DENSE_GUARD entries.
    """
    if isinstance(graph, BipartiteGraph):
        cells = graph.num_a * graph.num_b
    else:
        cells = graph.num_nodes * graph.num_nodes
    if cells > DENSE_GUARD:
        raise CapacityError(
            f"dense adjacency would need {cells} entries (> {DENSE_GUARD}); "
            "use a sparse factorization path instead")
    return graph.adj.toarray().astype(np.float64)

