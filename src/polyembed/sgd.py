"""The SGD engine shared by PolyDeepWalk and PolyPTE.

The trainers describe observations: a target node and up to C context
nodes, a walk window or an edge (C = 1). `decode` owns what the paper
makes common to both: an observation's facet distribution is the mean
prior of its nodes, each node's facet is drawn from the conditional of
its own prior and that mean, and one negative-sampled step runs per
(target, context) pair. It turns a chunk of observations and their
random draws into per-step arrays of flat table rows (target, context,
negatives). No draw depends on the tables and the stream is consumed in
per-step order, so results do not depend on CHUNK. `Engine.apply` then
runs the SGD steps on (rows, D) views of the tables.

Both halves run in the compiled kernel (see `kernel`) when `Engine.kind`
is "c". The decode runs in `decode_steps`, which follows numpy's float
operations in numpy's order, so its steps equal the numpy decode's bit
for bit; it declines, and the numpy decode runs, at K >= 128, where
numpy's row sum changes form, and on ids outside the priors. The steps
run in `sgd_steps`, which does the arithmetic of `sgns_loss_and_grads` in
another summation order, so its tables agree with the numpy loop within
1e-12 of the largest entry (about 1e-14 measured), not bit for bit. The
numpy decode and loop are the reference: they run when a `hook` is
given, which needs per-step tables, and when the kernel cannot be built
or loaded.

A facet round of an observation with C contexts draws one uniform for the
target facet, C for the context facets, then per context R for the
negative nodes and R for their facets. At K = 1 no facet is drawn, so the
single-facet model draws the stream of classic skip-gram / PTE.

Every draw costs O(1) vectorised work. Negatives here and in PolyGCN and
PolyPTE's edges are drawn by weight, one uniform each, through
a `GuideTable` (Chen and Asau's indexed search, AIIE Transactions 1974):
it gives `searchsorted`'s index on the weights' CDF. A facet is the
count of a row's CDF columns at or below its threshold, one at a time.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, NamedTuple

import numpy as np

from . import kernel
from .errors import CapacityError, NumericsError, ValidationError
from .facets import conditional_distribution, facets_from_cdf, sample_facets
from .tables import EmbeddingTables, init_tables

LR_FLOOR_RATIO = 1e-4
LOGIT_CLAMP = 30.0
CHUNK = 256   # observations per decode; bounds its memory


def sgns_loss_and_grads(u_cen, h_ctx, h_neg):
    """Negative-sampling pair loss and its gradients.

    u_cen, h_ctx: (D,) vectors; h_neg: (R, D) matrix of negative context
    vectors. Logits are clamped to +-30 before the logistic, which
    perturbs the loss by < 1e-13. Returns (loss, g_u, g_ctx, g_neg).
    """
    s_pos = float(h_ctx @ u_cen)
    sp = min(max(s_pos, -LOGIT_CLAMP), LOGIT_CLAMP)
    # bare ufuncs give the values of np.clip / ndarray.sum / np.outer
    # without the Python wrappers, a quarter of this function's time
    s_neg = np.minimum(np.maximum(h_neg @ u_cen, -LOGIT_CLAMP), LOGIT_CLAMP)
    e_neg = np.exp(s_neg)
    p_neg = e_neg / (1.0 + e_neg)
    p_pos = 1.0 / (1.0 + math.exp(-sp))
    loss = math.log1p(math.exp(-sp)) + float(np.add.reduce(np.log1p(e_neg)))
    g_u = (p_pos - 1.0) * h_ctx + h_neg.T @ p_neg
    g_ctx = (p_pos - 1.0) * u_cen
    g_neg = p_neg[:, None] * u_cen
    return loss, g_u, g_ctx, g_neg


class GuideTable:
    """Draws an index in proportion to nonnegative weights, by inverse CDF
    of one uniform in O(1) work per draw."""

    def __init__(self, weights):
        weights = np.asarray(weights, dtype=np.float64)
        if not (weights >= 0).all() or not weights.any():
            raise ValidationError("weights must be nonnegative, not all zero")
        # u * total reaches total only when total is subnormal
        self.last = int(np.flatnonzero(weights)[-1])
        cdf = np.cumsum(weights)
        self.total = float(cdf[-1])
        # bucket j of M holds the uniforms in [j/M, (j+1)/M), whose index is
        # at least guide[j]; M is a power of two, 2 to 4 buckets per index,
        # so j/M and u*M are exact
        m = 1 << (2 * len(cdf) - 1).bit_length()
        self.guide = np.searchsorted(cdf, np.arange(m + 1) / m * self.total,
                                     side="right")
        self.m = m
        # an infinite last entry stops every search at the index count
        self.cdf = np.append(cdf, np.inf)

    def decode(self, u):
        """Indices shaped like the uniforms `u`: `searchsorted(cdf, u *
        total, side="right")`, clamped to the last index of positive
        weight, found from the guide table. `fl(a * total)` does not
        decrease as `a` grows, so `u * total` lies at or above bucket j's
        lower edge and the guide entry never passes the answer. One linear
        step settles most draws, and a binary search the rest."""
        cdf = self.cdf
        x = u * self.total
        index = self.guide[(u * self.m).astype(np.intp)]
        index += cdf[index] <= x
        open_ = cdf[index] <= x
        if open_.any():
            index[open_] = np.searchsorted(cdf, x[open_], side="right")
        np.minimum(index, self.last, out=index)
        return index


class NegativeSampler:
    """Draws (node, facet) negatives: node from counts**0.75, facet from
    that node's prior distribution."""

    def __init__(self, counts, facet_dist):
        if len(counts) != len(facet_dist):
            raise ValidationError("counts and prior disagree on node count")
        self.nodes = GuideTable(np.asarray(counts, dtype=np.float64) ** 0.75)
        # each node's facet CDF, summed once, as K columns (facets_from_cdf)
        self.facet_cdf = np.cumsum(facet_dist, axis=1, dtype=np.float64).T.copy()
        self.k = facet_dist.shape[1]

    def decode(self, u_nodes, u_facets=None):
        """(nodes, facets) arrays shaped like `u_nodes`, by inverse CDF of
        the node uniforms and, for K > 1, of the facet uniforms."""
        nodes = self.nodes.decode(u_nodes)
        if self.k == 1:
            return nodes, np.zeros_like(nodes)
        return nodes, facets_from_cdf(self.facet_cdf, u_facets, nodes)


def uniforms_per_round(contexts, k: int, negatives: int):
    """Uniforms one facet round draws, for `contexts` contexts."""
    if k == 1:
        return contexts * negatives
    return 1 + contexts + 2 * negatives * contexts


class Steps(NamedTuple):
    """Decoded steps: rows of the (nodes*K, D) tables, and the observation
    each step belongs to."""

    target: np.ndarray      # (S,)
    context: np.ndarray     # (S,)
    negatives: np.ndarray   # (S, R)
    unit: np.ndarray        # (S,)


def observation_distribution(target, context, dist, dist_context):
    """Facet distribution of each observation: the mean prior of its
    target and contexts, the context rows summed in column order. `target`
    is (n,), `context` (n, C) with -1 where there is no context."""
    valid = context >= 0
    acc = np.zeros((len(target), dist.shape[1]))
    for col in range(context.shape[1]):
        acc = acc + np.where(valid[:, col, None], dist_context[context[:, col]], 0.0)
    return (dist[target] + acc) / (valid.sum(axis=1) + 1)[:, None]


def decode(uniforms, target, context, dist, dist_context, facet_rate: int,
           mode: str, first: int, sampler: NegativeSampler, negatives: int,
           kind: str = "numpy") -> Steps:
    """Decode the steps of observations numbered from `first`: targets
    (n,) and contexts (n, C), -1 where there is none, of nodes whose facet
    priors are the rows of `dist` and `dist_context`. Each observation
    takes `facet_rate` facet rounds of `uniforms_per_round` uniforms, laid
    out observation by observation in `uniforms`; a round runs one step per
    context, in column order. Facets come from
    `conditional_distribution(prior, observation distribution, mode)`.

    With `kind` "c" (`Engine.kind`) the kernel's `decode_steps` decodes the
    chunk, unless it declines; the numpy code below is the reference and
    gives the same arrays."""
    if kind == "c":
        steps = _decode_compiled(uniforms, target, context, dist, dist_context,
                                 facet_rate, mode, first, sampler, negatives)
        if steps is not None:
            return steps
    valid = context >= 0
    width = valid.sum(axis=1)
    k = sampler.k
    per_round = uniforms_per_round(width, k, negatives)
    per_obs = facet_rate * per_round
    # one step per (observation, round, context present), in that order
    owner, rnd, col = np.nonzero(np.broadcast_to(
        valid[:, None], (len(target), facet_rate, context.shape[1])))
    position = (np.cumsum(valid, axis=1) - 1)[owner, col]
    base = (np.cumsum(per_obs) - per_obs)[owner] + rnd * per_round[owner]
    t_node, c_node = target[owner], context[owner, col]
    offsets = np.arange(negatives)
    if k == 1:
        draws = (base + position * negatives)[:, None] + offsets
        nodes, _ = sampler.decode(uniforms[draws])
        return Steps(t_node, c_node, nodes, first + owner)
    p_o = observation_distribution(target, context, dist, dist_context)
    t_cond = conditional_distribution(dist[target], p_o, mode)[owner]
    c_cond = conditional_distribution(
        dist_context[context], np.broadcast_to(p_o[:, None], (*context.shape, k)),
        mode)[owner, col]
    t_facet = sample_facets(t_cond, uniforms[base])
    c_facet = sample_facets(c_cond, uniforms[base + 1 + position])
    draws = (base + 1 + width[owner] + 2 * negatives * position)[:, None] + offsets
    nodes, facets = sampler.decode(uniforms[draws], uniforms[draws + negatives])
    return Steps(t_node * k + t_facet, c_node * k + c_facet,
                 nodes * k + facets, first + owner)


def _decode_compiled(uniforms, target, context, dist, dist_context,
                     facet_rate, mode, first, sampler, negatives) -> Steps | None:
    """`decode` in the kernel, or None where `decode_steps` declines or a
    mode or shape is not one it takes."""
    fn = kernel.function("decode_steps")
    target = np.ascontiguousarray(target, dtype=np.int64)
    context = np.ascontiguousarray(context, dtype=np.int64)
    dist = np.ascontiguousarray(dist, dtype=np.float64)
    dist_context = np.ascontiguousarray(dist_context, dtype=np.float64)
    k, table = sampler.k, sampler.nodes
    if (fn is None or mode not in ("min", "observation") or target.ndim != 1
            or context.ndim != 2 or len(context) != len(target)
            or dist.ndim != 2 or dist_context.ndim != 2
            or dist.shape[1] != k or dist_context.shape[1] != k):
        return None
    uniforms = np.ascontiguousarray(uniforms, dtype=np.float64).ravel()
    count = facet_rate * int(np.count_nonzero(context >= 0))
    steps = Steps(np.empty(count, dtype=np.int64), np.empty(count, dtype=np.int64),
                  np.empty((count, negatives), dtype=np.int64),
                  np.empty(count, dtype=np.int64))
    done = fn(len(target), context.shape[1], k, negatives, facet_rate,
              mode == "min", first, uniforms, len(uniforms), target, context,
              dist, len(dist), dist_context, len(dist_context), table.guide,
              table.m, table.cdf, len(table.cdf), table.total, table.last,
              sampler.facet_cdf, sampler.facet_cdf.shape[1],
              np.empty((context.shape[1] + 2) * k), count, *steps)
    return steps if done == count else None


def _logsumexp(x) -> float:
    """log(sum(exp(x))), shifted by the maximum so that no term overflows."""
    top = x.max()
    return float(top + np.log(np.exp(x - top).sum()))


def jensen_bound(target: int, contexts, dist, dist_context,
                 tables: EmbeddingTables, mode: str, enumeration_cap=None):
    """Exact facet-marginal log-likelihood of one observation and its
    Jensen lower bound, by enumerating every facet assignment; facets are
    drawn as in `decode`. The softmax normalizer runs over all (node,
    facet) context vectors; no negative sampling is involved. Returns
    (l_exact, l_lower) with l_lower <= l_exact; CapacityError when there
    are more than `enumeration_cap` assignments."""
    k = dist.shape[1]
    positions = 1 + len(contexts)
    if enumeration_cap is not None and k ** positions > enumeration_cap:
        raise CapacityError(
            f"{k}^{positions} facet assignments exceed cap {enumeration_cap}")
    p_o = observation_distribution(np.array([target]), np.array([contexts]),
                                   dist, dist_context)[0]
    cond_target = conditional_distribution(dist[target], p_o, mode)
    cond_ctx = [conditional_distribution(dist_context[j], p_o, mode)
                for j in contexts]

    u_t, flat_h = tables.u[target], tables.h.reshape(-1, tables.dim)
    log_z = np.array([_logsumexp(flat_h @ u_t[kt]) for kt in range(k)])
    log_ps_terms, log_po_terms = [], []
    for kt, *kctx in itertools.product(range(k), repeat=positions):
        ps = cond_target[kt]
        for cj, kj in zip(cond_ctx, kctx):
            ps *= cj[kj]
        if ps <= 0.0:
            continue
        log_ps_terms.append(np.log(ps))
        log_po_terms.append(sum(float(tables.h[j, kj] @ u_t[kt]) - log_z[kt]
                                for j, kj in zip(contexts, kctx)))
    log_ps, log_po = np.array(log_ps_terms), np.array(log_po_terms)
    return _logsumexp(log_ps + log_po), float(np.exp(log_ps) @ log_po)


class Engine:
    """One training run's tables, random stream and update loop.

    Steps are numbered across `apply` calls for the learning rate, which
    decays linearly over `total_steps` to a floor of LR_FLOOR_RATIO times
    its start, for `hook(step, tables)`, and for the loss trace: the mean
    loss of each run of `bucket` consecutive steps. `facet_counts` counts
    the facets of the target and context rows of the steps applied.
    """

    def __init__(self, num_target, num_context, k, dim, seed,
                 learning_rate: float, total_steps: int, bucket: int,
                 hook: Callable | None = None):
        init_ss, train_ss = np.random.SeedSequence(seed).spawn(2)
        self.tables = init_tables(num_target, k, dim, seed=init_ss,
                                  num_context=num_context)
        self.rng = np.random.default_rng(train_ss)
        self.u = self.tables.u.reshape(-1, dim)
        self.h = self.tables.h.reshape(-1, dim)
        self.lr0 = learning_rate
        self.decay = (1.0 - LR_FLOOR_RATIO) / total_steps
        self.total, self.bucket, self.hook = total_steps, bucket, hook
        self.loss_sums = np.zeros(-(-total_steps // bucket))
        self.facet_counts = np.zeros(k, dtype=np.int64)
        self.step = 0

    @property
    def kind(self) -> str:
        """The engine that decodes and runs the steps: "c" (the compiled
        kernel) or "numpy" (the reference decode and loop)."""
        return ("numpy" if self.hook is not None
                or kernel.function("sgd_steps") is None else "c")

    def apply(self, steps: Steps, label: str) -> None:
        """Run the steps; a non-finite loss raises NumericsError naming
        `label` and the step's unit."""
        start, count = self.step, len(steps.target)
        index = np.arange(start, start + count, dtype=np.float64)
        rates = self.lr0 * np.maximum(LR_FLOOR_RATIO, 1.0 - self.decay * index)
        losses = np.empty(count)
        if self.kind == "c":
            done = self._run_kernel(steps, rates, losses)
        else:
            done = self._run_numpy(steps, rates, losses)
        if done < count:
            raise NumericsError(f"training diverged at {label} {steps.unit[done]}")
        self.step = start + count
        k = len(self.facet_counts)
        self.facet_counts += (np.bincount(steps.target % k, minlength=k)
                              + np.bincount(steps.context % k, minlength=k))
        # in step order, so each bucket sums exactly as a running total does
        np.add.at(self.loss_sums, (index // self.bucket).astype(np.int64), losses)

    def _run_numpy(self, steps: Steps, rates, losses) -> int:
        """The reference loop. Fills `losses` and returns the index of the
        first step whose loss is not finite, left unapplied, or the step
        count."""
        u, h, hook, tables = self.u, self.h, self.hook, self.tables
        for s, (t, c, neg, lr) in enumerate(zip(
                steps.target.tolist(), steps.context.tolist(),
                steps.negatives, rates.tolist())):
            u_t, h_c = u[t], h[c]
            loss, g_u, g_ctx, g_neg = sgns_loss_and_grads(u_t, h_c, h[neg])
            if not math.isfinite(loss):
                return s
            u_t -= lr * g_u
            h_c -= lr * g_ctx
            np.subtract.at(h, neg, lr * g_neg)
            losses[s] = loss
            if hook is not None:
                hook(self.step + s, tables)
        return len(losses)

    def _run_kernel(self, steps: Steps, rates, losses) -> int:
        """`_run_numpy` in the compiled kernel, after checking every row it
        will touch, since the kernel does not."""
        target, context, negatives = (np.ascontiguousarray(a, dtype=np.int64)
                                      for a in steps[:3])
        count = len(target)
        if len(context) != count or len(negatives) != count:
            raise IndexError("decoded steps disagree on their count")
        for rows, table in ((target, self.u), (context, self.h),
                            (negatives, self.h)):
            if rows.size and (rows.min() < 0 or rows.max() >= len(table)):
                raise IndexError("decoded step row outside its table")
        dim, r = self.u.shape[1], negatives.shape[1]
        return kernel.function("sgd_steps")(
            self.u, self.h, dim, target, context, negatives, r, count, rates,
            losses, np.empty(2 * dim + r), LOGIT_CLAMP)

    def loss_trace(self) -> list[float]:
        """Mean loss per bucket; the last bucket may be shorter."""
        first = self.bucket * np.arange(len(self.loss_sums))
        return (self.loss_sums / np.minimum(self.bucket, self.total - first)).tolist()
