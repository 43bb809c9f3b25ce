"""Random-walk corpus generation and center-context windowing.

Each start node owns an independent generator seeded with
`seed XOR node_id`, so a node's walks do not depend on the other nodes.
Walks are emitted pass-major (pass 0 over all nodes, then pass 1, ...)
which interleaves start nodes the way stochastic training prefers.

A corpus is an int matrix with one walk per row. A generated corpus has
whole walks only; a corpus loaded from a file with walks of several
lengths pads each shorter row with -1 after its walk, and `save_corpus`
writes it back through the one row writer, `tables.write_rows`. Walks
step by inverse CDF over each row's cumulative edge weights (unit weights
for uniform walks), all in lockstep, and consume each node's stream
exactly as one step at a time would. Weighted walks start only from nodes
whose edges weigh more than 0 in total, so a zero-weight edge is never
taken.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (INT64, ParseError, ValidationError, allocating,
                     check_settings, parse_numbers, text_lines)
from .tables import write_rows


WALK_BLOCK = 65536   # walks stepped together; bounds their memory


@dataclass(frozen=True)
class WalkConfig:
    walks_per_node: int = 110
    walk_length: int = 11
    seed: int = 0
    weighted: bool = True

    def __post_init__(self):
        check_settings(vars(self), "walks_per_node", nonnegative="seed")
        if not self.walk_length >= 2:
            raise ValidationError("walk_length must be at least 2")


@dataclass(frozen=True)
class Observation:
    """One training sample: a center node and its context window."""

    center: int
    context: tuple[int, ...]


def generate_walks(graph, config: WalkConfig) -> np.ndarray:
    """Sample `walks_per_node` truncated random walks from every start
    node: a (walks, walk_length) int64 matrix, one walk per row, in
    pass-major order.

    Start node v draws its walks' steps from `default_rng(seed ^ v)`, walk
    after walk. A step takes one uniform u and moves along the first edge
    of the current row whose cumulative weight exceeds u times the row's
    total, so edges are taken in proportion to their weight. Weighted
    walks (the default) start from the nodes whose edges weigh more than 0
    in total: no step takes an edge of weight 0, so a node whose edges all
    weigh 0 is never reached. Uniform walks (config.weighted false) weigh
    every edge 1, so a step takes edge floor(u * degree) of its row, and
    start from every node with an edge. Every edge runs both ways, so no
    walk stops early.
    """
    if getattr(graph, "kind", None) != "homogeneous":
        raise ValidationError("random walks need a homogeneous graph")
    adj = graph.adj
    indptr, indices = adj.indptr, adj.indices
    steps, degree = config.walk_length - 1, np.diff(indptr)
    starts = np.flatnonzero(degree)
    # cumulative weights, each minus the cumulative weight before its row;
    # unit weights sum exactly, so a uniform row's local weights are 1..degree
    cumw = np.cumsum(adj.data if config.weighted else np.ones(len(indices)))
    local = cumw - np.repeat(np.concatenate([[0.0], cumw])[indptr[:-1]], degree)
    total = np.zeros(graph.num_nodes)
    total[starts] = local[indptr[starts + 1] - 1]
    starts = starts[total[starts] > 0]
    with allocating(f"{config.walks_per_node} x {len(starts)} walks of "
                    f"{config.walk_length} nodes"):
        out = np.empty((config.walks_per_node, len(starts), config.walk_length),
                       dtype=np.int64)
    out[:, :, 0] = starts
    # every walk takes all its steps, so each start's walks use its first
    # walks_per_node * steps uniforms, which one call draws
    per_block = max(1, WALK_BLOCK // config.walks_per_node)
    for first in range(0, len(starts), per_block):
        block = out[:, first:first + per_block]
        uniforms = np.empty((block.shape[1], config.walks_per_node * steps))
        for row, v in zip(uniforms, starts[first:first + per_block].tolist()):
            np.random.default_rng(config.seed ^ v).random(out=row)
        cur = block[:, :, 0].ravel()
        for t in range(steps):
            # the block's walks step together: a binary search of each row's
            # local weights for the first above u, as searchsorted(side="right")
            u = uniforms[:, t::steps].T.ravel() * total[cur]
            lo = indptr[cur].astype(np.int64)
            hi = indptr[cur + 1].astype(np.int64)
            end, live = hi.copy(), np.arange(len(cur))
            while len(live):
                mid = (lo[live] + hi[live]) >> 1
                right = local[mid] <= u[live]
                lo[live] = np.where(right, mid + 1, lo[live])
                hi[live] = np.where(right, hi[live], mid)
                live = live[lo[live] < hi[live]]
            if (lo >= end).any():
                node = int(cur[np.argmax(lo >= end)])
                raise ValidationError(f"a weighted walk reached node {node}, "
                                      f"whose edge weights add up to 0")
            cur = indices[lo]
            block[:, :, t + 1] = cur.reshape(block.shape[:2])
    return out.reshape(-1, config.walk_length)


def sliding_windows(walk, window: int) -> list[Observation]:
    """Cut one walk into center-context observations.

    The context of position i is every position within `window` steps,
    truncated at the walk boundaries; positions with an empty context are
    skipped. Context entries are node ids, so a node revisited by the
    walk can appear in its own context; the center position itself never
    does.
    """
    if window < 1:
        raise ValidationError("window must be positive")
    n = len(walk)
    out = []
    for i in range(n):
        ctx = tuple(walk[max(0, i - window):i]) + tuple(walk[i + 1:i + 1 + window])
        if ctx:
            out.append(Observation(center=walk[i], context=ctx))
    return out


def save_corpus(walks, path) -> None:
    """One walk per line, space-separated node ids; -1 pads are left out.
    Each run of rows of one length is written by `tables.write_rows`."""
    walks = np.asarray(walks)
    lengths = (walks >= 0).sum(axis=1)
    starts = np.flatnonzero(np.diff(lengths, prepend=-1)).tolist()
    with open(Path(path), "wb") as fh:
        for first, end in zip(starts, starts[1:] + [len(walks)]):
            write_rows(fh, walks[first:end, :lengths[first]],
                       np.empty((end - first, 0)))


def load_corpus(path) -> np.ndarray:
    """The walks of a corpus file as a (walks, longest walk) int64 matrix,
    each row padded with -1 after its walk; node ids must be nonnegative
    and fit in int64."""
    walks = []
    for line_no, line in text_lines(path):
        fields = line.split()
        if fields:
            where = f"{path} line {line_no}"
            walk = parse_numbers(fields, int, where)
            if min(walk) < 0:
                raise ValidationError(f"{where}: negative node id {min(walk)}")
            if max(walk) not in INT64:
                raise ParseError(f"{where}: node id does not fit in int64")
            walks.append(walk)
    if not walks:
        raise ValidationError(f"{path}: empty corpus")
    lengths = np.array([len(walk) for walk in walks])
    out = np.full((len(walks), lengths.max()), -1, dtype=np.int64)
    out[np.arange(out.shape[1]) < lengths[:, None]] = np.fromiter(
        itertools.chain.from_iterable(walks), np.int64, lengths.sum())
    return out
