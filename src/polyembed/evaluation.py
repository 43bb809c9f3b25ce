"""Held-out link prediction and node-classification evaluation.

Splits: "one-per-node" moves one random incident edge per node of degree
at least 2 into the test set (homogeneous); "latest-per-user" holds out
each type-A node's newest interaction, falling back to a random one when
timestamps are absent. Candidates for a test query are its true endpoint
plus uniform non-neighbor negatives. Metrics: HR@k over the ranked
candidates, exact tie-aware AUC over pooled scores, and micro/macro F1
from a one-vs-rest logistic-regression stand-in classifier.

Link evaluation is one pass over all queries. Query i's negatives are
`default_rng(child seed i).choice` from its pool of non-neighbours, where
child i is that of `SeedSequence(seed).spawn`. One kernel call derives
every child seed from the root seed and draws every query's negatives,
replaying numpy's stream; numpy's own per-query loop is the reference and
the fallback (`_candidates`). The rows that hold all C negatives are
scored in one `inference.score_candidates` call over their candidates,
which that function works through in bounded blocks. A row whose pool was
shorter is scored alone, over its own candidates: padded into the batch,
its products would have another shape, and BLAS may round those to other
floats. The truth's rank is a count, not a sort. Every report is the same
as the per-query loop's, byte for byte.
"""

from __future__ import annotations

import functools
import numbers
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import graph as graphmod
from . import inference, kernel
from .errors import CapacityError, ProtocolError, ValidationError, allocating
from .facets import FacetPrior
from .graph import BipartiteGraph, Graph
from .tables import EmbeddingTables


@dataclass
class EvalReport:
    hr_at_k: dict[int, float] = field(default_factory=dict)
    auc: float | None = None
    micro_f1: float | None = None
    macro_f1: float | None = None
    metadata: dict = field(default_factory=dict)
    # what the run did, for the .manifest; `lines()` does not write it
    run: dict = field(default_factory=dict)

    def _metrics(self) -> list[tuple[str, str, float]]:
        """(key, table name, value) of each metric present, in report order."""
        rows = [(f"hr@{k}", f"HR@{k}", self.hr_at_k[k]) for k in sorted(self.hr_at_k)]
        rows += [(key, name, value) for key, name, value in (
            ("auc", "AUC", self.auc), ("micro_f1", "micro-F1", self.micro_f1),
            ("macro_f1", "macro-F1", self.macro_f1)) if value is not None]
        return rows

    def lines(self) -> list[str]:
        return ([f"{key}={value:.6f}" for key, _, value in self._metrics()]
                + [f"{key}={self.metadata[key]}" for key in sorted(self.metadata)])

    def table(self) -> str:
        rows = [("metric", "value")]
        rows += [(name, f"{value:.4f}") for _, name, value in self._metrics()]
        width = max(len(r[0]) for r in rows)
        sep = "-" * (width + 12)
        body = "\n".join(f"{name:<{width}}  {value}" for name, value in rows)
        return f"{sep}\n{body}\n{sep}"


def write_report(report: EvalReport, path) -> None:
    """Human-readable table followed by machine-readable key=value lines."""
    with open(Path(path), "w", encoding="utf-8") as fh:
        fh.write(report.table() + "\n\n")
        fh.write("\n".join(report.lines()) + "\n")


def split_links(g, strategy: str = "one-per-node", seed: int = 0):
    """Hold out test links and return (train_graph, test_edges).

    Nodes (type-A users for the bipartite strategy) of degree < 2 never
    lose their only link. Every edge is removed at most once.
    """
    if strategy == "one-per-node":
        if not isinstance(g, Graph):
            raise ValidationError("one-per-node splitting needs a homogeneous graph")
        held, test = _one_per_node(g, np.random.default_rng(seed))
    elif strategy == "latest-per-user":
        if not isinstance(g, BipartiteGraph):
            raise ValidationError("latest-per-user splitting needs a bipartite graph")
        held, test = _latest_per_user(g, np.random.default_rng(seed))
    else:
        raise ValidationError(f"unknown split strategy {strategy!r}")
    keep = ~held
    if not keep.any():
        raise ValidationError("split removed every edge; graph too sparse")
    rows = np.column_stack([g.edges[keep], g.weights[keep]])
    if isinstance(g, Graph):
        train = graphmod.from_edges(rows, num_nodes=g.num_nodes)
        return replace(train, node_labels=g.node_labels), test
    ts = g.timestamps[keep] if g.timestamps is not None else None
    train = graphmod.from_edges(rows, kind="bipartite", num_a=g.num_a,
                                num_b=g.num_b, timestamps=ts)
    return replace(train, a_labels=g.a_labels, b_labels=g.b_labels), test


def _one_per_node(g, rng):
    """Held-edge mask and test pairs (v, other end) of "one-per-node": node
    by node, a random incident edge not yet held by an earlier node. A
    node owns the edges at both its ends, so each choice depends on the
    ones before it."""
    incident, starts = _incidence(g.edges, g.num_nodes)
    held = np.zeros(g.num_edges, dtype=bool)
    test = []
    for v in range(g.num_nodes):
        mine = incident[starts[v]:starts[v + 1]]
        if len(mine) < 2:
            continue
        eligible = mine[~held[mine]]
        if len(eligible) == 0:
            continue
        ei = eligible[int(rng.integers(len(eligible)))]
        held[ei] = True
        i, j = g.edges[ei]
        test.append((v, int(j) if i == v else int(i)))
    return held, test


def _latest_per_user(g, rng):
    """Held-edge mask and test pairs (user, item) of "latest-per-user":
    each user of degree >= 2 gives up the first of its edges (by edge id)
    with its newest stamp, as `np.argmax` picks it. A user whose stamps
    are all missing (-1), or every user when the graph has no stamps,
    gives up a random edge: one `rng.integers(degree)` per such user, in
    ascending user order. A user owns the edges it starts, so no choice
    depends on another."""
    incident, starts = _incidence(g.edges[:, :1], g.num_a)
    degree = np.diff(starts)
    users = np.flatnonzero(degree >= 2)
    chosen = np.full(len(users), -1, dtype=np.int64)
    if g.timestamps is not None and len(users):
        mine = incident[np.repeat(degree >= 2, degree)]   # the users' runs, in order
        offsets = np.cumsum(degree[users]) - degree[users]
        stamps = g.timestamps[mine]
        newest = np.maximum.reduceat(stamps, offsets)
        top = np.flatnonzero(stamps == np.repeat(newest, degree[users]))
        # every run holds a top position, so its first one follows its offset
        chosen = np.where(newest >= 0, mine[top[np.searchsorted(top, offsets)]], -1)
    for r in np.flatnonzero(chosen < 0).tolist():
        v = users[r]
        chosen[r] = incident[starts[v] + int(rng.integers(int(degree[v])))]
    held = np.zeros(g.num_edges, dtype=bool)
    held[chosen] = True
    return held, list(zip(users.tolist(), g.edges[chosen, 1].tolist()))


def _incidence(ends, n):
    """Edge ids by endpoint: node v's incident edges, ascending, are
    ids[starts[v]:starts[v + 1]]; `ends` is (E, c), one endpoint per column."""
    flat = ends.ravel()
    ids = np.argsort(flat, kind="stable") // ends.shape[1]
    starts = np.concatenate([[0], np.cumsum(np.bincount(flat, minlength=n))])
    return ids, starts


def hit_ratio(ranked, truth: int, ks) -> dict[int, float]:
    """HR@k for one query: 1.0 iff the true endpoint ranks in the top k."""
    try:
        position = list(ranked).index(truth)
    except ValueError:
        raise ProtocolError(f"true endpoint {truth} missing from candidates") from None
    return {int(k): (1.0 if position < k else 0.0) for k in ks}


def auc(pos_scores, neg_scores) -> float:
    """Probability that a random positive outscores a random negative,
    ties counted half; exact, via midranks."""
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    return _midrank_auc(pos, np.concatenate([pos, neg]))


def _midrank_auc(pos, pooled) -> float:
    """`auc` of the positives `pos` against the other scores of `pooled`,
    which holds the positives and the negatives in any order. A tie group
    at sorted positions lo..hi-1 has the midrank (lo + 1 + hi) / 2."""
    n_pos, n_neg = len(pos), len(pooled) - len(pos)
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("AUC needs nonempty score lists")
    ranked = np.sort(pooled)
    if np.isnan(ranked[-1]):   # NaN sorts last
        return float("nan")
    ranks = (np.searchsorted(ranked, pos, "left") + 1
             + np.searchsorted(ranked, pos, "right")) / 2
    return float((ranks.sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def _candidates(g, queries, truths, num_negatives, seed):
    """Candidates of the test edges (queries[i], truths[i]): a (Q, C+1)
    int64 matrix with the true endpoint in column 0, and each row's count.
    Row i's C = num_negatives negatives are `default_rng(child seed i)
    .choice(pool, C, replace=False)` from the query's non-neighbours in g
    (the query itself and the truth excluded), where child seed i is
    `SeedSequence(seed).spawn(Q)[i].generate_state(1)[0]`. A row whose
    pool is shorter takes the whole pool and is padded with -1; no pool
    holds every id of g's candidate side, so C is at most their count.

    The kernel's `draw_candidates` draws the same from the root seed's
    words without building a pool; `_draw_numpy` is the reference, and runs
    when `_compiled_draw` gives no kernel function."""
    words = _seed_words(seed)
    if num_negatives < 1:
        raise ValidationError("num_negatives must be positive")
    bipartite = isinstance(g, BipartiteGraph)
    num_query, pool_size = (g.num_a, g.num_b) if bipartite else (g.num_nodes,) * 2
    outside = ((queries < 0) | (queries >= num_query)
               | (truths < 0) | (truths >= pool_size))
    if outside.any():
        i = int(np.argmax(outside))
        raise ValidationError(f"test edge {queries[i]} {truths[i]} is outside the graph")
    c = min(num_negatives, pool_size)
    with allocating(f"{len(queries)} x {c + 1} candidates"):
        cand = np.empty((len(queries), c + 1), dtype=np.int64)
    sizes = np.empty(len(queries), dtype=np.int64)
    args = (c, pool_size, bipartite, g.adj.indptr, g.adj.indices,
            np.ascontiguousarray(queries, dtype=np.int64),
            np.ascontiguousarray(truths, dtype=np.int64))
    draw = _compiled_draw(pool_size)
    if draw is None:
        _draw_numpy(*args, int(seed), cand, sizes)
    elif draw(len(queries), *args, words, len(words), cand, sizes):
        raise CapacityError("no memory for the candidate draw")
    return cand, sizes


def _seed_words(seed) -> np.ndarray:
    """The root seed's little-endian uint32 words, as SeedSequence splits it
    (one word for 0); ValidationError unless it is a nonnegative integer."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, not {seed!r}")
    return np.array([int(seed) >> s & 0xFFFFFFFF
                     for s in range(0, max(int(seed).bit_length(), 1), 32)],
                    dtype=np.uint32)


def _draw_numpy(c, pool_size, bipartite, indptr, indices, queries, truths,
                seed, cand, sizes):
    """`draw_candidates` in numpy, one query at a time: row r's pool is
    built, and its negatives are drawn with numpy's own child r of seed."""
    cand[:, 0], cand[:, 1:], sizes[:] = truths, -1, c + 1
    free = np.ones(pool_size, dtype=bool)   # cleared per query, then restored
    children = np.random.SeedSequence(seed).spawn(len(queries))
    rows = zip(queries.tolist(), truths.tolist(), children)
    for r, (query, truth, child) in enumerate(rows):
        taken = indices[indptr[query]:indptr[query + 1]]
        own = truth if bipartite else query   # a node is no negative of itself
        free[taken] = free[truth] = free[own] = False
        pool = np.flatnonzero(free)
        free[taken] = free[truth] = free[own] = True
        if len(pool) < c:
            cand[r, 1:len(pool) + 1] = pool
            sizes[r] = len(pool) + 1
        else:
            rng = np.random.default_rng(int(child.generate_state(1)[0]))
            cand[r, 1:] = rng.choice(pool, size=c, replace=False)


def _compiled_draw(pool_size: int):
    """The kernel's `draw_candidates`, or None: without a kernel, for a
    pool of 2^32 ids or more (the kernel replays only numpy's 32-bit
    bounded draws), or when the kernel does not draw as this numpy does."""
    fn = kernel.function("draw_candidates")
    return fn if fn is not None and pool_size < 2**32 and _draws_as_numpy() else None


# (pool, C, root seed, queries) of the self-check: Floyd's algorithm, numpy's
# tail shuffle (pool > 10,000 and C > pool // 50), and roots of 1 to 5 words,
# the fifth mixed in after the pool's own mix, with a child past the first
_CHECKS = ((60, 60, 0, 1), (8999, 60, 2**32 - 1, 1), (10001, 201, 2**64 + 1, 1),
           (500, 20, 2**130 + 3, 2))


@functools.cache
def _draws_as_numpy() -> bool:
    """Whether the kernel draws as `_draw_numpy` does with this numpy, on
    each of _CHECKS; once per process, as numpy's stream is not a stable
    API. When it does not, one RuntimeWarning says that numpy draws the
    candidates."""
    fn = kernel.function("draw_candidates")
    indptr = np.zeros(2, dtype=np.int64)   # one user without neighbours
    for pool, c, seed, n in _CHECKS:
        # n queries of that user, with item `pool` the truth: item k is free index k
        args = (c, pool + 1, True, indptr, indptr[:0], np.zeros(n, dtype=np.int64),
                np.full(n, pool, dtype=np.int64))
        cand, sizes = np.empty((2, n, c + 1), dtype=np.int64), np.empty((2, n), np.int64)
        words = _seed_words(seed)
        fn(n, *args, words, len(words), cand[0], sizes[0])
        _draw_numpy(*args, seed, cand[1], sizes[1])
        if not np.array_equal(cand[0], cand[1]):
            warnings.warn("the compiled candidate draw differs from this numpy's "
                          "spawn and choice; numpy draws the candidates",
                          RuntimeWarning, stacklevel=2)
            return False
    return True


def link_prediction_report(train_graph, test_edges, tables: EmbeddingTables,
                           prior: FacetPrior, mode: str,
                           num_negatives: int = 200,
                           ks=(10, 50, 100, 200), seed: int = 0) -> EvalReport:
    """Rank candidates for every test edge and aggregate HR@k and AUC.

    Query i's candidates are drawn with the seed of the i-th child of
    SeedSequence(seed). Candidates rank by descending score, ties by
    ascending node id, and a NaN score ranks below every number, as a
    `lexsort` of (-score, id) orders them; rankings are reproducible. The
    prior must fit the tables (`inference.check_prior`), and the tables
    must have a row per node of the graph."""
    if not test_edges:
        raise ValidationError("no test edges")
    inference.check_prior(tables, prior, mode)
    nodes = [count for _, count in graphmod.sides(train_graph)]
    rows = [len(tables.u), len(tables.u if mode == "homogeneous" else tables.h)]
    if nodes != rows:
        raise ValidationError(f"graph nodes {nodes} disagree with table rows {rows}")
    n = len(test_edges)
    cand, scores = _scored_candidates(train_graph, test_edges, tables, prior, mode,
                                      num_negatives, seed)
    position = _truth_positions(cand, scores)
    short = int((cand[:, -1] < 0).sum())   # a short row ends in padding
    pooled = scores[cand >= 0] if short else scores.ravel()
    return EvalReport(
        hr_at_k={int(k): int((position < k).sum()) / n for k in ks},
        auc=_midrank_auc(scores[:, 0], pooled),
        metadata={"num_queries": n, "num_negatives": num_negatives,
                  "seed": seed, "mode": mode},
        run={"eval.candidates": "numpy" if _compiled_draw(nodes[1]) is None else "c",
             "eval.pool_short": short},
    )


def _truth_positions(cand, scores):
    """Each row's 0-based rank of its column-0 truth: the candidates above
    it and the tied ones of lower id, with a NaN below every number and
    padded (-1) columns left out, as a `lexsort` of (-score, id) ranks."""
    nan = np.isnan(scores)
    truth_nan = nan[:, :1]
    above = np.where(truth_nan, ~nan, scores > scores[:, :1])
    tied = np.where(truth_nan, nan, scores == scores[:, :1])
    tied &= cand < cand[:, :1]
    above |= tied
    above &= cand >= 0
    return above.sum(axis=1)


def _scored_candidates(g, test_edges, tables, prior, mode, num_negatives, seed):
    """Candidates of every test edge (see `_candidates`) and their scores,
    NaN where a row is padded. Full rows are scored in one call; a row
    whose pool was short is scored over its own candidates, and one
    warning counts those rows. Every call shares one candidate side."""
    # no dtype: an id beyond int64 stays a Python int for the bounds check
    edges = np.array(test_edges).reshape(len(test_edges), 2)
    queries, truths = edges[:, 0], edges[:, 1]
    cand, sizes = _candidates(g, queries, truths, num_negatives, seed)
    if (sizes == 1).all():   # the AUC would have no negative score
        raise ValidationError("no test query has a non-neighbor to rank "
                              "its true endpoint against")
    short = np.flatnonzero(sizes <= num_negatives)
    side = inference.candidate_side(tables, prior, mode)
    if len(short) == 0:
        return cand, inference.score_candidates(queries, cand, tables, prior,
                                                mode, side)
    warnings.warn(f"{len(short)} of {len(edges)} queries had fewer than "
                  f"{num_negatives} non-neighbors; they are ranked among the "
                  f"candidates available", stacklevel=3)
    scores = np.full(cand.shape, np.nan)
    full = np.flatnonzero(sizes > num_negatives)
    scores[full] = inference.score_candidates(queries[full], cand[full],
                                              tables, prior, mode, side)
    for r in short.tolist():
        scores[r, :sizes[r]] = inference.score_candidates(
            queries[r:r + 1], cand[r:r + 1, :sizes[r]], tables, prior, mode,
            side)[0]
    return cand, scores


def load_labels(path, num_nodes: int, names=None):
    """Label file: lines `node label`; repeated nodes make a multi-label
    node. A node is an integer id, or a name from `names` (the graph's node
    labels, when its edge list names its nodes). Returns (binary matrix
    (N, C), class names)."""
    pairs = graphmod.read_node_lines(path, [(names, num_nodes)])
    classes = sorted({lab for _, lab in pairs})
    index = {lab: c for c, lab in enumerate(classes)}
    y = np.zeros((num_nodes, len(classes)), dtype=np.float64)
    for node, lab in pairs:
        y[node, index[lab]] = 1.0
    return y, classes


def classify(features: np.ndarray, labels: np.ndarray,
             train_fraction: float = 0.8, seed: int = 0, shuffle: bool = False):
    """One-vs-rest logistic regression on joint embeddings, fitted by 200
    full-batch gradient steps of rate 0.5 with an L2 penalty of 1e-4.

    labels is a binary (N, C) indicator matrix. The split is positional
    (first `train_fraction` of the rows train) unless shuffle=True, which
    applies one seeded permutation first. Multi-label nodes are scored
    with the usual top-l protocol: predict as many labels as the node
    truly has. Returns (micro_f1, macro_f1).
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if x.shape[0] != y.shape[0]:
        raise ValidationError("features and labels disagree on sample count")
    if y.shape[1] < 2 or (y.sum(axis=0) > 0).sum() < 2:
        raise ValidationError("need at least two represented classes")
    if not 0.0 < train_fraction < 1.0:
        raise ValidationError("train_fraction must be in (0, 1)")
    n = x.shape[0]
    order = np.arange(n)
    if shuffle:
        order = np.random.default_rng(seed).permutation(n)
    cut = int(np.floor(train_fraction * n))
    if cut < 1 or cut >= n:
        raise ValidationError("split leaves an empty train or test side")
    train_idx, test_idx = order[:cut], order[cut:]

    mu = x[train_idx].mean(axis=0)
    sd = x[train_idx].std(axis=0)
    sd[sd == 0] = 1.0
    xs = (x - mu) / sd
    xs = np.hstack([xs, np.ones((n, 1))])  # bias column

    xt, yt = xs[train_idx], y[train_idx]
    w = np.zeros((xs.shape[1], y.shape[1]))
    m = len(train_idx)
    for _ in range(200):
        p = 1.0 / (1.0 + np.exp(-np.clip(xt @ w, -30, 30)))
        grad = xt.T @ (p - yt) / m + 1e-4 * w
        w -= 0.5 * grad

    scores = xs[test_idx] @ w
    y_test = y[test_idx]
    # top-l: a row predicts its l best classes by a stable sort, l its label count
    ranked = np.argsort(-scores, axis=1, kind="stable")
    num_true = y_test.sum(axis=1, keepdims=True).astype(int)
    y_pred = np.zeros_like(y_test)
    np.put_along_axis(y_pred, ranked, np.arange(y.shape[1]) < num_true, axis=1)

    tp = (y_pred * y_test).sum(axis=0)
    fp = (y_pred * (1 - y_test)).sum(axis=0)
    fn = ((1 - y_pred) * y_test).sum(axis=0)
    micro = 2 * tp.sum() / max(2 * tp.sum() + fp.sum() + fn.sum(), 1e-300)
    denom = 2 * tp + fp + fn
    per_class = np.divide(2 * tp, denom, out=np.zeros_like(denom), where=denom > 0)
    return float(micro), float(np.mean(per_class))
