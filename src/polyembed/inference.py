"""Combine per-facet embeddings for downstream tasks.

Classification consumes one joint vector per node: the facet blocks
concatenated, optionally scaled by the node's facet probabilities first
(the default). Link prediction scores a pair by summing inner products
over all facet pairs, weighted by both nodes' facet probabilities; that
double sum factorizes into a single inner product of prior-weighted
sums, which is the path used here.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .facets import FacetPrior
from .tables import EmbeddingTables

SCORE_ROWS = 4096   # (query, candidate) rows per scoring block


def concat(tables: EmbeddingTables, prior: FacetPrior,
           weighted: bool = True) -> np.ndarray:
    """Per-node joint vectors, shape (N, K*D): facet blocks of the target
    table concatenated in facet order, scaled by p(k|v) when weighted."""
    check_prior(tables, prior)
    u = tables.u
    if weighted:
        u = u * prior.dist[:, :, None]
    return u.reshape(u.shape[0], -1).copy()


def check_prior(tables: EmbeddingTables, prior: FacetPrior,
                mode: str = "homogeneous") -> None:
    """ValidationError unless `prior` fits the tables that `mode` reads: a
    row per target node, the tables' facet count and, in the cross modes,
    a type-B row per context node."""
    if mode not in ("homogeneous", "cross", "cross-diagonal"):
        raise ValidationError(f"unknown similarity mode {mode!r}")
    if prior.dist.shape[0] != tables.u.shape[0]:
        raise ValidationError("prior and tables disagree on node count")
    if prior.k != tables.k:
        raise ValidationError("prior and tables disagree on facet count")
    if mode != "homogeneous" and prior.dist_b is None:
        raise ValidationError("cross-type similarity needs a bipartite prior")
    if mode != "homogeneous" and prior.dist_b.shape[0] != tables.num_context:
        raise ValidationError("context table does not match the type-B prior")


def similarity(i: int, j: int, tables: EmbeddingTables, prior: FacetPrior,
               mode: str = "homogeneous") -> float:
    """Facet-pair similarity of two nodes.

    Homogeneous mode compares target vectors of nodes i and j; cross mode
    compares the type-A target vector of i with the type-B context vector
    of j. Both run the full double sum over facet pairs (bilinear in the
    two facet distributions), evaluated in its factorized form.
    cross-diagonal keeps only matching facet pairs; it is the right
    combiner for encoders whose facets were trained independently, where
    cross-facet inner products carry no signal.
    """
    return float(score_candidates([i], [[j]], tables, prior, mode)[0, 0])


def candidate_side(tables: EmbeddingTables, prior: FacetPrior,
                   mode: str = "homogeneous"):
    """The prior-weighted candidate side of the factorised double sum,
    sum_k p(k|c) t[c, k] for every candidate node c, (N, D); None in
    cross-diagonal mode, which keeps the facets apart."""
    if mode == "cross-diagonal":
        return None
    if mode == "homogeneous":
        return np.einsum("nk,nkd->nd", prior.dist, tables.u)
    return np.einsum("nk,nkd->nd", prior.dist_b, tables.h)


def score_candidates(queries, candidates, tables: EmbeddingTables,
                     prior: FacetPrior, mode: str = "homogeneous",
                     side=None) -> np.ndarray:
    """Similarity of queries against their candidates: (Q,) queries and
    (Q, C) candidates give (Q, C) scores. `side` is
    `candidate_side(tables, prior, mode)`, computed here when not given;
    a caller that scores the same tables many times passes it once made.

    Queries are scored in blocks of whole queries, about SCORE_ROWS
    (query, candidate) rows each, so that the gathered candidate vectors
    stay a few MiB at any C. Each score is the float that scoring its
    query alone gives: the same products in the same order."""
    queries = np.asarray(queries, dtype=np.int64)
    cand = np.asarray(candidates, dtype=np.int64)
    check_prior(tables, prior, mode)
    d_c, t_c = ((prior.dist, tables.u) if mode == "homogeneous"
                else (prior.dist_b, tables.h))
    if side is None:
        side = candidate_side(tables, prior, mode)
    out = np.empty(cand.shape)
    step = max(1, SCORE_ROWS // max(cand.shape[1], 1))
    for lo in range(0, len(queries), step):
        q, c = queries[lo:lo + step], cand[lo:lo + step]
        if side is None:
            qblocks = tables.u[q] * prior.dist[q][:, :, None]   # (q, K, D)
            per_facet = np.einsum("qkd,qckd->qck", qblocks, t_c[c])
            out[lo:lo + step] = (per_facet * d_c[c]).sum(axis=2)
        else:
            qvec = np.matmul(prior.dist[q][:, None, :], tables.u[q])   # (q, 1, D)
            out[lo:lo + step] = np.matmul(side[c], qvec.transpose(0, 2, 1))[:, :, 0]
    return out
