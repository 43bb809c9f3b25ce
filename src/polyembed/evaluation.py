"""Held-out link prediction and node-classification evaluation.

Splits: "one-per-node" moves one random incident edge per node of degree
at least 2 into the test set (homogeneous); "latest-per-user" holds out
each type-A node's newest interaction, falling back to a random one when
timestamps are absent. Candidates for a test query are its true endpoint
plus uniform non-neighbor negatives. Metrics: HR@k over the ranked
candidates, exact tie-aware AUC over pooled scores, and micro/macro F1
from a one-vs-rest logistic-regression stand-in classifier.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import graph as graphmod
from . import inference
from .errors import (ParseError, ProtocolError, ValidationError, parse_numbers,
                     text_lines)
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
        # a node owns the edges at both its ends
        incident, starts = _incidence(g.edges, g.num_nodes)
        stamps = None
    elif strategy == "latest-per-user":
        if not isinstance(g, BipartiteGraph):
            raise ValidationError("latest-per-user splitting needs a bipartite graph")
        # a user owns the edges it starts, so none is held out by another
        incident, starts = _incidence(g.edges[:, :1], g.num_a)
        stamps = g.timestamps
    else:
        raise ValidationError(f"unknown split strategy {strategy!r}")
    rng = np.random.default_rng(seed)
    held = np.zeros(g.num_edges, dtype=bool)
    test = []
    for v in range(len(starts) - 1):
        mine = incident[starts[v]:starts[v + 1]]
        if len(mine) < 2:
            continue
        eligible = mine[~held[mine]]
        if len(eligible) == 0:
            continue
        latest = stamps[eligible] if stamps is not None else None
        if latest is not None and latest.max() >= 0:
            ei = eligible[int(np.argmax(latest))]
        else:
            ei = eligible[int(rng.integers(len(eligible)))]
        held[ei] = True
        i, j = g.edges[ei]
        # orient the pair as (holdout node, other endpoint)
        test.append((v, int(j) if i == v else int(i)))
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
    if len(pos) == 0 or len(neg) == 0:
        raise ValidationError("AUC needs nonempty score lists")
    scores = np.concatenate([pos, neg])
    if np.isnan(scores).any():
        return float("nan")
    # midranks: a tie group ending at rank r with c members averages r - (c-1)/2
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2)[group]
    pos_rank_sum = ranks[:len(pos)].sum()
    n_pos, n_neg = len(pos), len(neg)
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def candidate_protocol(test_edge, g, num_negatives: int = 200,
                       seed: int = 0) -> list[int]:
    """Candidate set for one test edge: true endpoint plus uniform
    non-neighbor negatives of the query node (sampled from the training
    graph, so no training neighbor ever appears)."""
    if num_negatives < 1:
        raise ValidationError("num_negatives must be positive")
    query, truth = test_edge
    rng = np.random.default_rng(seed)
    bipartite = isinstance(g, BipartiteGraph)
    num_query, pool_size = (g.num_a, g.num_b) if bipartite else (g.num_nodes,) * 2
    if not (0 <= query < num_query and 0 <= truth < pool_size):
        raise ValidationError(f"test edge {query} {truth} is outside the graph")
    free = np.ones(pool_size, dtype=bool)
    free[g.adj.indices[g.adj.indptr[query]:g.adj.indptr[query + 1]]] = False
    if not bipartite:
        free[query] = False
    free[truth] = False
    pool = np.flatnonzero(free)
    if len(pool) < num_negatives:
        warnings.warn(f"only {len(pool)} non-neighbors available "
                      f"({num_negatives} requested)", stacklevel=2)
        chosen = pool
    else:
        chosen = rng.choice(pool, size=num_negatives, replace=False)
    return [int(truth)] + [int(c) for c in chosen]


def link_prediction_report(train_graph, test_edges, tables: EmbeddingTables,
                           prior: FacetPrior, mode: str,
                           num_negatives: int = 200,
                           ks=(10, 50, 100, 200), seed: int = 0) -> EvalReport:
    """Rank candidates for every test edge and aggregate HR@k and AUC.

    Each query is scored once; candidates rank by descending score, ties
    by ascending node id, so rankings are reproducible."""
    if not test_edges:
        raise ValidationError("no test edges")
    hr_sums = {int(k): 0.0 for k in ks}
    pos_scores, neg_scores = [], []
    cand_rng = np.random.SeedSequence(seed)
    for child, edge in zip(cand_rng.spawn(len(test_edges)), test_edges):
        child_seed = int(child.generate_state(1)[0])
        candidates = candidate_protocol(edge, train_graph, num_negatives,
                                        seed=child_seed)
        scores = inference.score_candidates(edge[0], candidates, tables, prior, mode)
        cand = np.asarray(candidates)
        ranked = cand[np.lexsort((cand, -scores))]
        for k, hit in hit_ratio(ranked, edge[1], ks).items():
            hr_sums[k] += hit
        pos_scores.append(scores[0])
        neg_scores.append(scores[1:])
    n = len(test_edges)
    report = EvalReport(
        hr_at_k={k: v / n for k, v in hr_sums.items()},
        auc=auc(pos_scores, np.concatenate(neg_scores)),
        metadata={"num_queries": n, "num_negatives": num_negatives,
                  "seed": seed, "mode": mode},
    )
    return report


def load_labels(path, num_nodes: int, names=None):
    """Label file: lines `node label`; repeated nodes make a multi-label
    node. A node is an integer id, or a name from `names` (the graph's node
    labels, when its edge list names its nodes). Returns (binary matrix
    (N, C), class names)."""
    ids = None if names is None else {name: i for i, name in enumerate(names)}
    pairs = []
    for line_no, line in text_lines(path):
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        where = f"{path} line {line_no}"
        if len(fields) != 2:
            raise ValidationError(f"{where}: expected 'node label'")
        node = (parse_numbers(fields[:1], int, where)[0] if ids is None
                else ids.get(fields[0], -1))
        if not 0 <= node < num_nodes:
            raise ParseError(f"{where}: unknown node {fields[0]!r}")
        pairs.append((node, fields[1]))
    classes = sorted({lab for _, lab in pairs})
    index = {lab: c for c, lab in enumerate(classes)}
    y = np.zeros((num_nodes, len(classes)), dtype=np.float64)
    for node, lab in pairs:
        y[node, index[lab]] = 1.0
    return y, classes


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30, 30)))


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
        p = _sigmoid(xt @ w)
        grad = xt.T @ (p - yt) / m + 1e-4 * w
        w -= 0.5 * grad

    scores = xs[test_idx] @ w
    y_test = y[test_idx]
    y_pred = np.zeros_like(y_test)
    for r in range(len(test_idx)):
        n_true = int(y_test[r].sum())
        if n_true == 0:
            continue
        top = np.argsort(-scores[r], kind="stable")[:n_true]
        y_pred[r, top] = 1.0

    tp = (y_pred * y_test).sum()
    fp = (y_pred * (1 - y_test)).sum()
    fn = ((1 - y_pred) * y_test).sum()
    micro = 2 * tp / max(2 * tp + fp + fn, 1e-300)

    per_class = []
    for c in range(y.shape[1]):
        tp_c = (y_pred[:, c] * y_test[:, c]).sum()
        fp_c = (y_pred[:, c] * (1 - y_test[:, c])).sum()
        fn_c = ((1 - y_pred[:, c]) * y_test[:, c]).sum()
        denom = 2 * tp_c + fp_c + fn_c
        per_class.append(2 * tp_c / denom if denom > 0 else 0.0)
    macro = float(np.mean(per_class))
    return float(micro), macro
