"""Shared fixtures: planted graphs, reference implementations, oracles.

The reference walk generator takes one step at a time; the vectorised
generator must reproduce its walks exactly. The reference trainers
re-implement classic (single-vector) skip-gram and edge-sampling training
with explicit loops, consuming randomness in the documented order, so the
facet trainers can be checked step-for-step against them at K=1. The
per-step facet trainers check the decode-then-update engine exactly at
any K. Each reference draws by weight with its own scalar `searchsorted`
over a cumulative sum, a uniform walk step as `int(u * degree)` and a
classic PTE edge as `int(u * E)` of E edges, so none of them reads the
library's guide table. The per-edge PolyGCN loss checks the sparse
pair-coefficient gradient within 1e-12 relative. The per-query link
evaluation and the per-user split loop check the one-pass evaluation and
the split exactly, and the per-row classification loops check the
vectorised top-l scoring.
"""

import math
import re
import shutil
import warnings

import numpy as np
import pytest

from polyembed import graph as graphmod
from polyembed import kernel, sgd
from polyembed.errors import NumericsError, ValidationError
from polyembed.evaluation import _incidence, hit_ratio
from polyembed.facets import FacetPrior
from polyembed.polygcn import backward_facet, forward_facet
from polyembed.sgd import LR_FLOOR_RATIO, sgns_loss_and_grads
from polyembed.tables import EmbeddingTables, init_tables
from polyembed.walks import sliding_windows


@pytest.fixture
def compiled_kernel():
    """Skip without a C compiler; with one, the compiled kernel must load."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    assert kernel.function("sgd_chunk") is not None


def spy_engine_runs(monkeypatch):
    """Records each `sgd.Engine.run` call as (engine, arguments, the steps
    it returns)."""
    calls, run = [], sgd.Engine.run

    def spy(engine, *args):
        calls.append((engine, args, run(engine, *args)))
        return calls[-1][2]

    monkeypatch.setattr(sgd.Engine, "run", spy)
    return calls


def c_functions(source: str) -> dict[str, list[str]]:
    """The functions a C source defines without `static`, each with its
    parameters' names: a line that starts at column 0 with a return type
    and the function's name, whose parameter list is followed by the
    body's `{`, not by a `;`."""
    return {name: [] if params.strip() == "void" else
            [re.findall(r"\w+", param)[-1] for param in params.split(",")]
            for name, params in re.findall(
                r"^(?!static\b)[A-Za-z_][\w \t*]*?\b(\w+)\(([^;{]*)\)\s*\{",
                source, re.M)}


def make_sbm(seed, n_block=60, p_in=0.3, p_out=0.02):
    """Two-block homogeneous stochastic block model."""
    rng = np.random.default_rng(seed)
    n = 2 * n_block
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            pr = p_in if (i < n_block) == (j < n_block) else p_out
            if rng.random() < pr:
                rows.append((i, j))
    return graphmod.from_edges(rows, num_nodes=n)


def make_planted_bipartite(seed, n_side=60, p_in=0.4, p_out=0.02):
    """Two user-blocks by two item-blocks; dense within, sparse across."""
    rng = np.random.default_rng(seed)
    half = n_side // 2
    rows = []
    for a in range(n_side):
        for b in range(n_side):
            pr = p_in if (a < half) == (b < half) else p_out
            if rng.random() < pr:
                rows.append((a, b))
    return graphmod.from_edges(rows, kind="bipartite", num_a=n_side, num_b=n_side)


def planted_bipartite_oracle(n_side=60):
    """True-block scorer for `make_planted_bipartite`: (tables, prior).

    One-hot block vectors (block = index >= n_side // 2 on each side) under
    a uniform K=1 prior, so the cross similarity is 1 for a same-block pair
    and 0 otherwise. Within a block the fixture's edges are independent coin
    flips, so on held-out edges no scorer does better on average than this.
    """
    blocks = np.eye(2)[(np.arange(n_side) >= n_side // 2).astype(int)][:, None, :]
    return (EmbeddingTables(u=blocks, h=blocks.copy()),
            FacetPrior.uniform(n_side, 1, num_b=n_side))


def make_two_cliques(clique=4, gap=0):
    """Two disjoint cliques of the given size."""
    rows = []
    for base in (0, clique + gap):
        for i in range(base, base + clique):
            for j in range(i + 1, base + clique):
                rows.append((i, j))
    return graphmod.from_edges(rows)


@pytest.fixture
def triangle():
    return graphmod.from_edges([(0, 1), (1, 2), (0, 2)])


# ------------------------------------------------------- reference walks

def reference_walks(g, config):
    """Random walks one step at a time: the scalar loop that
    `walks.generate_walks` must reproduce. Weighted walks start from the
    nodes whose row weights add up to more than 0, uniform walks from every
    node with an edge; a walk stops at a node without neighbors. Returns
    the walks as lists, pass-major."""
    adj = g.adj
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    cumw = np.cumsum(data)
    row_offset = np.concatenate([[0.0], cumw])[indptr]

    def total(v):
        lo, hi = indptr[v], indptr[v + 1]
        return cumw[hi - 1] - row_offset[v] if lo < hi else 0.0

    starts = [v for v in range(g.num_nodes)
              if (total(v) > 0 if config.weighted else indptr[v] < indptr[v + 1])]

    def walks_for(v):
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
                    u = rng.random() * total(cur)
                    step = np.searchsorted(cumw[lo:hi] - row_offset[cur], u,
                                           side="right")
                    assert step < hi - lo, "weighted step left its row"
                    cur = int(indices[lo + step])
                else:
                    cur = int(indices[lo + int(rng.random() * (hi - lo))])
                walk.append(cur)
            out.append(walk)
        return out

    per_node = [walks_for(v) for v in starts]
    return [per_node[i][r]
            for r in range(config.walks_per_node)
            for i in range(len(starts))]


def walk_lists(corpus):
    """The walks of a -1-padded corpus matrix as lists, pads stripped."""
    return [[v for v in row if v >= 0] for row in np.asarray(corpus).tolist()]


# ------------------------------------------------------- reference trainers

def reference_sgns_train(g, corpus, dim, negatives, epochs, learning_rate,
                         window, seed, max_updates=None, on_update=None):
    """Classic skip-gram with negative sampling over a walk corpus.

    No facet machinery at all: one target and one context vector per
    node, negatives drawn from corpus counts ** 0.75.
    """
    n = g.num_nodes
    root = np.random.SeedSequence(seed)
    init_ss, train_ss = root.spawn(2)
    rng_init = np.random.default_rng(init_ss)
    u = (rng_init.random((n, 1, dim)) - 0.5) / dim
    h = np.zeros((n, 1, dim))
    rng = np.random.default_rng(train_ss)

    corpus = walk_lists(corpus)
    counts = np.zeros(n)
    for walk in corpus:
        for v in walk:
            counts[v] += 1
    cdf = np.cumsum(counts ** 0.75)

    obs = []
    for walk in corpus:
        obs.extend(sliding_windows(walk, window))
    total = sum(len(o.context) for o in obs) * epochs
    decay = (1.0 - LR_FLOOR_RATIO) / total

    step = 0
    for _ in range(epochs):
        for o in obs:
            for j in o.context:
                draws = rng.random(negatives) * cdf[-1]
                negs = np.minimum(np.searchsorted(cdf, draws, side="right"), n - 1)
                _, g_u, g_ctx, g_neg = sgns_loss_and_grads(
                    u[o.center, 0], h[j, 0], h[negs, 0])
                lr = learning_rate * max(LR_FLOOR_RATIO, 1.0 - decay * step)
                step += 1
                u[o.center, 0] -= lr * g_u
                h[j, 0] -= lr * g_ctx
                np.subtract.at(h, (negs, np.zeros(negatives, dtype=np.int64)),
                               lr * g_neg)
                if on_update is not None:
                    on_update(step - 1, u, h)
                if max_updates is not None and step >= max_updates:
                    return EmbeddingTables(u=u, h=h)
    return EmbeddingTables(u=u, h=h)


def reference_pte_train(g, dim, negatives, total_samples, learning_rate,
                        seed, max_updates=None, on_update=None):
    """Classic PTE: uniform edge sampling, single vector per node,
    negatives from item degree ** 0.75."""
    num_a, num_b = g.num_a, g.num_b
    root = np.random.SeedSequence(seed)
    init_ss, train_ss = root.spawn(2)
    rng_init = np.random.default_rng(init_ss)
    u = (rng_init.random((num_a, 1, dim)) - 0.5) / dim
    h = np.zeros((num_b, 1, dim))
    rng = np.random.default_rng(train_ss)

    cdf = np.cumsum(g.degrees_b().astype(np.float64) ** 0.75)
    edges = g.edges
    decay = (1.0 - LR_FLOOR_RATIO) / total_samples

    for step in range(total_samples):
        ei = min(int(rng.random() * len(edges)), len(edges) - 1)
        a, b = edges[ei]
        draws = rng.random(negatives) * cdf[-1]
        negs = np.minimum(np.searchsorted(cdf, draws, side="right"), num_b - 1)
        _, g_u, g_ctx, g_neg = sgns_loss_and_grads(u[a, 0], h[b, 0], h[negs, 0])
        lr = learning_rate * max(LR_FLOOR_RATIO, 1.0 - decay * step)
        u[a, 0] -= lr * g_u
        h[b, 0] -= lr * g_ctx
        np.subtract.at(h, (negs, np.zeros(negatives, dtype=np.int64)), lr * g_neg)
        if on_update is not None:
            on_update(step, u, h)
        if max_updates is not None and step + 1 >= max_updates:
            break
    return EmbeddingTables(u=u, h=h)


# ------------------------------------------- per-step facet trainers

class ReferenceNegativeSampler:
    """Per-call (node, facet) negative sampler; node from counts**0.75,
    facet from that node's prior by inverse CDF."""

    def __init__(self, counts, facet_dist, power=0.75):
        self.cdf = np.cumsum(np.asarray(counts, dtype=np.float64) ** power)
        self.facet_cdf = np.cumsum(facet_dist, axis=1)
        self.k = facet_dist.shape[1]

    def sample_batch(self, rng, count):
        u = rng.random(count) * self.cdf[-1]
        nodes = np.minimum(np.searchsorted(self.cdf, u, side="right"),
                           len(self.cdf) - 1)
        if self.k == 1:
            return nodes, np.zeros(count, dtype=np.int64)
        rows = self.facet_cdf[nodes]
        thresholds = rng.random(count) * rows[:, -1]
        facet_idx = np.minimum((rows <= thresholds[:, None]).sum(axis=1),
                               self.k - 1)
        return nodes, facet_idx


def sample_facet(dist, rng):
    """One inverse-CDF facet draw; a length-1 distribution returns 0
    without consuming randomness."""
    if len(dist) == 1:
        return 0
    cdf = np.cumsum(dist)
    k = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
    return min(k, len(dist) - 1)


def reference_conditional(p_v, p_o):
    """Min-rule conditional of one node within one observation."""
    m = np.minimum(p_v, p_o)
    s = m.sum()
    if s <= 0.0:
        return p_v.copy()
    return m / s


def reference_polydeepwalk(g, prior, corpus, config, hook=None):
    """PolyDeepWalk with facet draws, negatives and updates interleaved
    step by step. Returns (tables, epoch_losses, per-step losses)."""
    n = g.num_nodes
    corpus = walk_lists(corpus)
    obs_list = []
    for walk in corpus:
        obs_list.extend(sliding_windows(walk, config.window))
    init_ss, train_ss = np.random.SeedSequence(config.seed).spawn(2)
    tables = init_tables(n, prior.k, config.dim, seed=init_ss)
    counts = np.zeros(n, dtype=np.int64)
    for walk in corpus:
        np.add.at(counts, walk, 1)
    sampler = ReferenceNegativeSampler(counts, prior.dist)
    lr_total = (sum(len(o.context) for o in obs_list) * config.facet_rate
                * config.epochs)
    rng = np.random.default_rng(train_ss)
    u, h, dist = tables.u, tables.h, prior.dist
    lr0 = config.learning_rate
    decay = (1.0 - LR_FLOOR_RATIO) / lr_total
    step, losses, epoch_losses = 0, [], []
    for epoch in range(config.epochs):
        loss_box = [0.0, 0]
        for oi, obs in enumerate(obs_list):
            ctx = obs.context
            p_o = (dist[obs.center] + dist[list(ctx)].sum(axis=0)) / (len(ctx) + 1)
            cond_center = reference_conditional(dist[obs.center], p_o)
            cond_ctx = [reference_conditional(dist[j], p_o) for j in ctx]
            for _ in range(config.facet_rate):
                k_i = sample_facet(cond_center, rng)
                ctx_facets = [sample_facet(c, rng) for c in cond_ctx]
                for j, k_j in zip(ctx, ctx_facets):
                    neg_nodes, neg_facets = sampler.sample_batch(rng, config.negatives)
                    loss, g_u, g_ctx, g_neg = sgns_loss_and_grads(
                        u[obs.center, k_i], h[j, k_j], h[neg_nodes, neg_facets])
                    if not math.isfinite(loss):
                        raise NumericsError(
                            f"training diverged at epoch {epoch}, observation {oi}")
                    lr = lr0 * max(LR_FLOOR_RATIO, 1.0 - decay * step)
                    u[obs.center, k_i] -= lr * g_u
                    h[j, k_j] -= lr * g_ctx
                    np.subtract.at(h, (neg_nodes, neg_facets), lr * g_neg)
                    loss_box[0] += loss
                    loss_box[1] += 1
                    losses.append(loss)
                    if hook is not None:
                        hook(step, tables)
                    step += 1
        epoch_losses.append(loss_box[0] / max(loss_box[1], 1))
    return tables, epoch_losses, losses


def reference_polypte(g, prior, config, hook=None):
    """PolyPTE with edge draws, facet draws, negatives and updates
    interleaved step by step. Returns (tables, per-step losses)."""
    facet_rate = config.facet_rate if config.facet_rate is not None else prior.k ** 2
    total = (config.total_samples if config.total_samples is not None
             else 100 * g.num_edges)
    init_ss, train_ss = np.random.SeedSequence(config.seed).spawn(2)
    tables = init_tables(g.num_a, prior.k, config.dim, seed=init_ss,
                         num_context=g.num_b)
    sampler = ReferenceNegativeSampler(g.degrees_b(), prior.dist_b)
    edge_cdf = np.cumsum(g.weights if config.weighted_edges
                         else np.ones(len(g.edges)))
    rng = np.random.default_rng(train_ss)
    u, h = tables.u, tables.h
    lr0 = config.learning_rate
    decay = (1.0 - LR_FLOOR_RATIO) / (total * facet_rate)
    step, losses = 0, []
    for si in range(total):
        ei = min(int(np.searchsorted(edge_cdf, rng.random() * edge_cdf[-1],
                                     side="right")), len(g.edges) - 1)
        a, b = g.edges[ei]
        p_o = 0.5 * (prior.dist[a] + prior.dist_b[b])
        if config.facet_mode == "observation":
            cond_a = cond_b = p_o
        else:
            cond_a = reference_conditional(prior.dist[a], p_o)
            cond_b = reference_conditional(prior.dist_b[b], p_o)
        for _ in range(facet_rate):
            k_a = sample_facet(cond_a, rng)
            k_b = sample_facet(cond_b, rng)
            neg_nodes, neg_facets = sampler.sample_batch(rng, config.negatives)
            loss, g_u, g_ctx, g_neg = sgns_loss_and_grads(
                u[a, k_a], h[b, k_b], h[neg_nodes, neg_facets])
            if not math.isfinite(loss):
                raise NumericsError(f"training diverged at edge sample {si}")
            lr = lr0 * max(LR_FLOOR_RATIO, 1.0 - decay * step)
            u[a, k_a] -= lr * g_u
            h[b, k_b] -= lr * g_ctx
            np.subtract.at(h, (neg_nodes, neg_facets), lr * g_neg)
            losses.append(loss)
            if hook is not None:
                hook(step, tables)
            step += 1
    return tables, losses


def reference_gcn_loss_and_grads(facet, ops, edge_idx, edge_w, neg_idx):
    """PolyGCN's edge loss with the output gradients built per scored pair:
    each edge's (D,) terms are gathered, then added into their rows in
    edge order, positives before negatives (np.add.at)."""
    u, h, cache = forward_facet(facet, ops, keep_cache=True)
    ai, bi = edge_idx[:, 0], edge_idx[:, 1]
    wn = edge_w / edge_w.sum()
    u_e, h_e = u[ai], h[bi]                  # (E, D)
    s_pos = np.clip((u_e * h_e).sum(axis=1), -30, 30)
    h_neg = h[neg_idx]                       # (E, R, D)
    s_neg = np.clip(np.einsum("ed,erd->er", u_e, h_neg), -30, 30)
    e_neg = np.exp(s_neg)
    loss = float(wn @ (np.log1p(np.exp(-s_pos)) + np.log1p(e_neg).sum(axis=1)))

    coef_pos = wn * (1.0 / (1.0 + np.exp(-s_pos)) - 1.0)    # (E,)
    coef_neg = wn[:, None] * (e_neg / (1.0 + e_neg))         # (E, R)
    d_u = np.zeros_like(u)
    np.add.at(d_u, ai, coef_pos[:, None] * h_e
              + np.einsum("er,erd->ed", coef_neg, h_neg))
    d_h = np.zeros_like(h)
    np.add.at(d_h, bi, coef_pos[:, None] * u_e)
    np.add.at(d_h, neg_idx.reshape(-1),
              (coef_neg[:, :, None] * u_e[:, None, :]).reshape(-1, u.shape[1]))
    return loss, backward_facet(facet, ops, cache, d_u, d_h)


def bucket_means(losses, points):
    """Means of consecutive buckets of len(losses) // points losses."""
    width = max(1, len(losses) // max(points, 1))
    return [float(np.mean(losses[i:i + width]))
            for i in range(0, len(losses), width)]


# ---------------------------------------------------------------- oracles

def similarity_double_loop(i, j, tables, prior, mode="homogeneous"):
    """Literal double sum over facet pairs; the production path must match."""
    if mode == "homogeneous":
        d_j, t_j = prior.dist[j], tables.u[j]
    else:
        d_j, t_j = prior.dist_b[j], tables.h[j]
    total = 0.0
    for k in range(prior.k):
        for kp in range(prior.k):
            total += prior.dist[i][k] * d_j[kp] * float(tables.u[i, k] @ t_j[kp])
    return total


def to_dense(mat):
    """A library sparse matrix (`kernel.Csr`) as a dense array, read from
    its CSR arrays alone; repeated cells add up."""
    dense = np.zeros(mat.shape)
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    np.add.at(dense, (rows, mat.indices), mat.data)
    return dense


def dense_decompose(a, p, q):
    """Dense facet split of A: A^k = A * P(:,k) Q(:,k)^T / (P Q^T), with
    zero-product cells split uniformly; decompose_adjacency must match."""
    denom = p @ q.T
    safe = np.where(denom > 0, denom, 1.0)
    k = p.shape[1]
    return [a * np.where(denom > 0, np.outer(p[:, c], q[:, c]) / safe, 1.0 / k)
            for c in range(k)]


def auc_brute_force(pos, neg):
    wins = ties = 0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1
            elif p == q:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def finite_difference(fn, arr, h=1e-6):
    """Central differences of a scalar function w.r.t. every arr entry."""
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + h
        fp = fn()
        arr[idx] = orig - h
        fm = fn()
        arr[idx] = orig
        grad[idx] = (fp - fm) / (2 * h)
    return grad


def rel_error(analytic, numeric):
    denom = max(np.linalg.norm(numeric), 1e-12)
    return np.linalg.norm(analytic - numeric) / denom


# ----------------------------------------------- reference link evaluation
# The per-query evaluation loop that `evaluation.link_prediction_report`
# replaced, kept verbatim with the candidate draw, scoring and AUC it called.

def reference_candidates(test_edge, g, num_negatives=200, seed=0):
    """One test edge's candidates: the truth, then the negatives."""
    if num_negatives < 1:
        raise ValidationError("num_negatives must be positive")
    query, truth = test_edge
    rng = np.random.default_rng(seed)
    bipartite = isinstance(g, graphmod.BipartiteGraph)
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


def reference_scores(query, candidates, tables, prior, mode="homogeneous"):
    """Similarity of one query against many candidates."""
    cand = np.asarray(list(candidates), dtype=np.int64)
    if mode == "homogeneous":
        d_c, t_c = prior.dist, tables.u
    else:
        d_c, t_c = prior.dist_b, tables.h
    if mode == "cross-diagonal":
        qblocks = tables.u[query] * prior.dist[query][:, None]   # (K, D)
        per_facet = np.einsum("kd,ckd->ck", qblocks, t_c[cand])
        return (per_facet * d_c[cand]).sum(axis=1)
    qvec = prior.dist[query] @ tables.u[query]
    return np.einsum("nk,nkd->nd", d_c[cand], t_c[cand]) @ qvec


def reference_auc(pos_scores, neg_scores):
    """Midrank AUC through `np.unique`."""
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    if len(pos) == 0 or len(neg) == 0:
        raise ValidationError("AUC needs nonempty score lists")
    scores = np.concatenate([pos, neg])
    if np.isnan(scores).any():
        return float("nan")
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2)[group]
    pos_rank_sum = ranks[:len(pos)].sum()
    n_pos, n_neg = len(pos), len(neg)
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def reference_link_report(train_graph, test_edges, tables, prior, mode,
                          num_negatives=200, ks=(10, 50, 100, 200), seed=0):
    """One Python pass per query: (HR@k dict, AUC, each query's candidates,
    each query's scores)."""
    hr_sums = {int(k): 0.0 for k in ks}
    pos_scores, neg_scores, all_cands, all_scores = [], [], [], []
    cand_rng = np.random.SeedSequence(seed)
    for child, edge in zip(cand_rng.spawn(len(test_edges)), test_edges):
        child_seed = int(child.generate_state(1)[0])
        candidates = reference_candidates(edge, train_graph, num_negatives,
                                          seed=child_seed)
        scores = reference_scores(edge[0], candidates, tables, prior, mode)
        cand = np.asarray(candidates)
        ranked = cand[np.lexsort((cand, -scores))]
        for k, hit in hit_ratio(ranked, edge[1], ks).items():
            hr_sums[k] += hit
        pos_scores.append(scores[0])
        neg_scores.append(scores[1:])
        all_cands.append(cand)
        all_scores.append(scores)
    n = len(test_edges)
    return ({k: v / n for k, v in hr_sums.items()},
            reference_auc(pos_scores, np.concatenate(neg_scores)),
            all_cands, all_scores)


def reference_split_links(g, strategy="one-per-node", seed=0):
    """The one loop over nodes that `evaluation.split_links` replaced for
    "latest-per-user": (train graph, test pairs)."""
    if strategy == "one-per-node":
        incident, starts = _incidence(g.edges, g.num_nodes)
        stamps = None
    else:
        incident, starts = _incidence(g.edges[:, :1], g.num_a)
        stamps = g.timestamps
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
        test.append((v, int(j) if i == v else int(i)))
    keep = ~held
    if not keep.any():
        raise ValidationError("split removed every edge; graph too sparse")
    rows = np.column_stack([g.edges[keep], g.weights[keep]])
    if isinstance(g, graphmod.Graph):
        return graphmod.from_edges(rows, num_nodes=g.num_nodes), test
    ts = g.timestamps[keep] if g.timestamps is not None else None
    return graphmod.from_edges(rows, kind="bipartite", num_a=g.num_a,
                               num_b=g.num_b, timestamps=ts), test


# ---------------------------------------------- reference classification

def reference_classify(features, labels, train_fraction=0.8, seed=0,
                       shuffle=False):
    """`evaluation.classify` with its per-row top-l loop and per-class F1
    loop, as they were before the scoring was vectorised."""
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
