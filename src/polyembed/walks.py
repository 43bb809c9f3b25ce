"""Random-walk corpus generation and center-context windowing.

Each start node owns an independent generator seeded with
`seed XOR node_id`, so a node's walks do not depend on the other nodes.
Walks are emitted pass-major (pass 0 over all nodes, then pass 1, ...)
which interleaves start nodes the way stochastic training prefers.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (INT64, ParseError, ValidationError, parse_numbers,
                     text_lines)


@dataclass(frozen=True)
class WalkConfig:
    walks_per_node: int = 110
    walk_length: int = 11
    window: int = 8    # unread by generate_walks; criterion 6 builds WalkConfig(window=3)
    seed: int = 0
    weighted: bool = True

    def __post_init__(self):
        if self.walks_per_node < 1:
            raise ValidationError("walks_per_node must be positive")
        if self.walk_length < 2:
            raise ValidationError("walk_length must be at least 2")
        if self.window < 1:
            raise ValidationError("window must be positive")


@dataclass(frozen=True)
class Observation:
    """One training sample: a center node and its context window."""

    center: int
    context: tuple[int, ...]


def generate_walks(graph, config: WalkConfig) -> list[list[int]]:
    """Sample `walks_per_node` truncated random walks from every
    non-isolated node.

    Steps follow edge weight proportionally (or uniformly when
    config.weighted is false); a walk stops early at a node without
    neighbors. Deterministic for a fixed seed.
    """
    if getattr(graph, "kind", None) != "homogeneous":
        raise ValidationError("random walks need a homogeneous graph")
    adj = graph.adj
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    # per-row cumulative weights for O(log deg) weighted steps
    cumw = np.cumsum(data)
    row_offset = np.concatenate([[0.0], cumw])[indptr]

    starts = [v for v in range(graph.num_nodes) if indptr[v] < indptr[v + 1]]

    def walks_for(v: int) -> list[list[int]]:
        rng = np.random.default_rng(config.seed ^ v)
        out = []
        for _ in range(config.walks_per_node):
            walk = [v]
            cur = v
            for _ in range(config.walk_length - 1):
                lo, hi = indptr[cur], indptr[cur + 1]
                if lo == hi:
                    break
                if config.weighted:
                    total = cumw[hi - 1] - row_offset[cur]
                    u = rng.random() * total
                    cur = int(indices[lo + np.searchsorted(
                        cumw[lo:hi] - row_offset[cur], u, side="right")])
                else:
                    cur = int(indices[lo + rng.integers(hi - lo)])
                walk.append(cur)
            out.append(walk)
        return out

    per_node = [walks_for(v) for v in starts]
    return [per_node[i][r]
            for r in range(config.walks_per_node)
            for i in range(len(starts))]


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
    """One walk per line, space-separated node ids."""
    with open(Path(path), "w", encoding="utf-8") as fh:
        for walk in walks:
            fh.write(" ".join(str(v) for v in walk) + "\n")


def load_corpus(path) -> list[list[int]]:
    """The walks of a corpus file; node ids must fit in int64."""
    out = []
    for line_no, line in text_lines(path):
        fields = line.split()
        if fields:
            where = f"{path} line {line_no}"
            walk = parse_numbers(fields, int, where)
            if min(walk) not in INT64 or max(walk) not in INT64:
                raise ParseError(f"{where}: node id does not fit in int64")
            out.append(walk)
    if not out:
        raise ValidationError(f"{path}: empty corpus")
    return out
