"""The SGD engine shared by PolyDeepWalk and PolyPTE.

The trainers describe observations: a target node and up to C context
nodes, a walk window or an edge (C = 1). `decode` owns what the paper
makes common to both: an observation's facet distribution is the mean
prior of its nodes, each node's facet is drawn from the conditional of
its own prior and that mean, and one negative-sampled step runs per
(target, context) pair. It turns a chunk of observations and their
random draws into per-step arrays of flat table rows (target, context,
negatives). No draw depends on the tables and the stream is consumed in
per-step order, so results do not depend on CHUNK. The SGD steps then run
on (rows, D) views of the tables.

An `Engine` holds what stays fixed for a run (priors, negative sampler,
facet rate and mode, negative count); `Engine.run` takes one chunk's
uniforms, targets and contexts through both halves. With `Engine.kind`
"c" the compiled kernel's `sgd_chunk` (see `kernel`) does both in one
call. Its decode follows numpy's float operations in numpy's order, so
its steps equal the numpy decode's bit for bit at any K. Its step loop
does the arithmetic of `sgns_loss_and_grads` in another summation order,
so its tables agree with the numpy loop within 1e-12 of the largest
entry (about 1e-14 measured), not bit for bit. The numpy decode and loop
are the reference: they run when a `hook` is given, which needs per-step
tables, and when the kernel cannot be built or loaded.

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
from .errors import CapacityError, NumericsError, ValidationError, allocating
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
    """Decoded steps: rows of the (nodes*K, D) tables."""

    target: np.ndarray      # (S,)
    context: np.ndarray     # (S,)
    negatives: np.ndarray   # (S, R)


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
           mode: str, sampler: NegativeSampler, negatives: int) -> Steps:
    """Decode the steps of observations: targets (n,) and contexts (n, C),
    -1 where there is none, of nodes whose facet priors are the rows of
    `dist` and `dist_context`. Each observation takes `facet_rate` facet
    rounds of `uniforms_per_round` uniforms, laid out observation by
    observation in `uniforms`; a round runs one step per context, in
    column order. Facets come from `conditional_distribution(prior,
    observation distribution, mode)`. The reference of the kernel's decode
    (`Engine.run`)."""
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
        return Steps(t_node, c_node, nodes)
    p_o = observation_distribution(target, context, dist, dist_context)
    t_cond = conditional_distribution(dist[target], p_o, mode)[owner]
    c_cond = conditional_distribution(
        dist_context[context], np.broadcast_to(p_o[:, None], (*context.shape, k)),
        mode)[owner, col]
    t_facet = sample_facets(t_cond, uniforms[base])
    c_facet = sample_facets(c_cond, uniforms[base + 1 + position])
    draws = (base + 1 + width[owner] + 2 * negatives * position)[:, None] + offsets
    nodes, facets = sampler.decode(uniforms[draws], uniforms[draws + negatives])
    return Steps(t_node * k + t_facet, c_node * k + c_facet, nodes * k + facets)


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
    """One training run's tables, random stream and update loop, built
    from the arguments of `decode` that stay fixed: the priors, whose rows
    size the tables, `sampler`, `facet_rate`, `mode` and `negatives`.

    Steps are numbered across `run` calls for the learning rate, which
    decays linearly over `total_steps` to a floor of LR_FLOOR_RATIO times
    its start, for `hook(step, tables)`, and for the loss trace: the mean
    loss of each run of `bucket` consecutive steps. `facet_counts` counts
    the facets of the target and context rows of the steps applied.
    """

    def __init__(self, dist, dist_context, sampler: NegativeSampler,
                 facet_rate: int, mode: str, negatives: int, dim: int, seed,
                 learning_rate: float, total_steps: int, bucket: int,
                 hook: Callable | None = None):
        self.dist, self.dist_context = (np.ascontiguousarray(a, dtype=np.float64)
                                        for a in (dist, dist_context))
        k = sampler.k
        if {a.shape[1:] for a in (self.dist, self.dist_context)} != {(k,)}:
            raise ValidationError("the priors are not (nodes, K) for the sampler's K")
        self.sampler, self.facet_rate, self.mode, self.negatives = (
            sampler, facet_rate, mode, negatives)
        init_ss, train_ss = np.random.SeedSequence(seed).spawn(2)
        self.tables = init_tables(len(self.dist), k, dim, seed=init_ss,
                                  num_context=len(self.dist_context))
        self.rng = np.random.default_rng(train_ss)
        self.u = self.tables.u.reshape(-1, dim)
        self.h = self.tables.h.reshape(-1, dim)
        self.lr0 = learning_rate
        self.decay = (1.0 - LR_FLOOR_RATIO) / total_steps
        self.total, self.bucket, self.hook = total_steps, bucket, hook
        with allocating(f"{-(-total_steps // bucket)} loss buckets"):
            self.loss_sums = np.zeros(-(-total_steps // bucket))
        self.facet_counts = np.zeros(k, dtype=np.int64)
        self.step = 0

    @property
    def kind(self) -> str:
        """The engine that decodes and runs the steps: "c" (the compiled
        kernel) or "numpy" (the reference decode and loop)."""
        return ("numpy" if self.hook is not None
                or kernel.function("sgd_chunk") is None else "c")

    def run(self, uniforms, target, context, first: int, label: str) -> Steps:
        """Decode a chunk of observations numbered from `first`, given as
        `decode`'s `uniforms`, `target` and `context`, and run its steps;
        returns the steps. A non-finite loss raises NumericsError naming
        `label` and the step's observation, after the steps before it; a
        row outside the tables raises IndexError before any."""
        start, count = self.step, self.facet_rate * int(np.count_nonzero(context >= 0))
        index = np.arange(start, start + count, dtype=np.float64)
        rates = self.lr0 * np.maximum(LR_FLOOR_RATIO, 1.0 - self.decay * index)
        losses = np.empty(count)
        if self.kind == "c":
            steps, done = self._run_kernel(uniforms, target, context, rates, losses)
        else:
            steps = decode(uniforms, target, context, self.dist, self.dist_context,
                           self.facet_rate, self.mode, self.sampler, self.negatives)
            done = self._run_numpy(steps, rates, losses)
        if done < count:   # observation i runs up to the i-th cumulative count
            ends = np.cumsum(self.facet_rate * np.count_nonzero(context >= 0, axis=1))
            raise NumericsError(f"training diverged at {label} "
                                f"{first + np.searchsorted(ends, done, 'right')}")
        self.step = start + count
        k = len(self.facet_counts)
        self.facet_counts += (np.bincount(steps.target % k, minlength=k)
                              + np.bincount(steps.context % k, minlength=k))
        # in step order, so each bucket sums exactly as a running total does
        np.add.at(self.loss_sums, (index // self.bucket).astype(np.int64), losses)
        return steps

    def _run_numpy(self, steps: Steps, rates, losses) -> int:
        """The reference loop. Fills `losses` and returns the index of the
        first step whose loss is not finite, left unapplied, or the step
        count."""
        u, h, hook, tables = self.u, self.h, self.hook, self.tables
        for rows, table in ((steps.target, u), (steps.context, h),
                            (steps.negatives, h)):
            if rows.size and (rows.min() < 0 or rows.max() >= len(table)):
                raise IndexError("decoded step row outside its table")
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

    def _run_kernel(self, uniforms, target, context, rates, losses):
        """`decode` and `_run_numpy` in one call of the kernel's `sgd_chunk`,
        which checks every row first; returns the steps and the count run."""
        target, context = (np.ascontiguousarray(a, dtype=np.int64)
                           for a in (target, context))
        if len(context) != len(target):
            raise IndexError("a chunk's targets and contexts disagree on their count")
        sampler, table, k = self.sampler, self.sampler.nodes, self.sampler.k
        c, r, count, dim = context.shape[1], self.negatives, len(rates), self.u.shape[1]
        steps = Steps(*(np.empty(s, np.int64) for s in (count, count, (count, r))))
        uniforms = np.ascontiguousarray(uniforms, dtype=np.float64).ravel()
        done = kernel.function("sgd_chunk")(
            len(target), c, k, r, self.facet_rate, self.mode == "min", uniforms,
            len(uniforms), target, context, self.dist, len(self.dist),
            self.dist_context, len(self.dist_context), table.guide, table.m,
            table.cdf, table.total, table.last, sampler.facet_cdf,
            sampler.facet_cdf.shape[1], count, *steps, self.u, len(self.u), self.h,
            len(self.h), dim, rates, losses, np.empty(max((c + 2) * k, 2 * dim + r)),
            LOGIT_CLAMP)
        if done < 0:
            raise IndexError("a chunk's ids or priors fall outside the tables")
        return steps, done

    def loss_trace(self) -> list[float]:
        """Mean loss per bucket; the last bucket may be shorter."""
        first = self.bucket * np.arange(len(self.loss_sums))
        return (self.loss_sums / np.minimum(self.bucket, self.total - first)).tolist()
