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


def concat(tables: EmbeddingTables, prior: FacetPrior,
           weighted: bool = True) -> np.ndarray:
    """Per-node joint vectors, shape (N, K*D): facet blocks of the target
    table concatenated in facet order, scaled by p(k|v) when weighted."""
    u = tables.u
    if prior.dist.shape[0] != u.shape[0]:
        raise ValidationError("prior and tables disagree on node count")
    if prior.k != tables.k:
        raise ValidationError("prior and tables disagree on facet count")
    if weighted:
        u = u * prior.dist[:, :, None]
    return u.reshape(u.shape[0], -1).copy()


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
    return float(score_candidates(i, [j], tables, prior, mode)[0])


def score_candidates(query: int, candidates, tables: EmbeddingTables,
                     prior: FacetPrior, mode: str = "homogeneous") -> np.ndarray:
    """Similarity of one query against many candidates in a single pass."""
    cand = np.asarray(list(candidates), dtype=np.int64)
    if mode == "homogeneous":
        d_c, t_c = prior.dist, tables.u
    elif mode in ("cross", "cross-diagonal"):
        if prior.dist_b is None:
            raise ValidationError("cross-type similarity needs a bipartite prior")
        if prior.dist_b.shape[0] != tables.num_context:
            raise ValidationError("context table does not match the type-B prior")
        d_c, t_c = prior.dist_b, tables.h
    else:
        raise ValidationError(f"unknown similarity mode {mode!r}")
    if mode == "cross-diagonal":
        qblocks = tables.u[query] * prior.dist[query][:, None]   # (K, D)
        per_facet = np.einsum("kd,ckd->ck", qblocks, t_c[cand])
        return (per_facet * d_c[cand]).sum(axis=1)
    qvec = prior.dist[query] @ tables.u[query]
    return np.einsum("nk,nkd->nd", d_c[cand], t_c[cand]) @ qvec
