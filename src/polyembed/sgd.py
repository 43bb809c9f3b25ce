"""The SGD engine shared by PolyDeepWalk and PolyPTE.

Each chunk of observations (walk windows or edge samples) is first
decoded: its random draws become per-step arrays of flat table rows
(target, context, negatives). No draw depends on the tables and the
stream is consumed in per-step order, so results do not depend on CHUNK.
`Engine.apply` then runs the SGD steps on (rows, D) views of the tables.

A facet round of an observation with C contexts draws one uniform for the
target facet, C for the context facets, then per context R for the
negative nodes and R for their facets. At K = 1 no facet is drawn, so the
single-facet model draws the stream of classic skip-gram / PTE.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import NumericsError, ValidationError
from .facets import sample_facets
from .tables import init_tables

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


class NegativeSampler:
    """Draws (node, facet) negatives: node from counts**0.75, facet from
    that node's prior distribution."""

    def __init__(self, counts, facet_dist, power: float = 0.75):
        counts = np.asarray(counts, dtype=np.float64)
        if counts.shape[0] != facet_dist.shape[0]:
            raise ValidationError("counts and prior disagree on node count")
        weights = counts ** power
        if weights.sum() <= 0:
            raise ValidationError("negative sampler needs a nonzero count vector")
        self.cdf = np.cumsum(weights)
        self.facet_dist = facet_dist
        self.k = facet_dist.shape[1]

    def decode(self, u_nodes, u_facets=None):
        """(nodes, facets) arrays shaped like `u_nodes`, by inverse CDF of
        the node uniforms and, for K > 1, of the facet uniforms."""
        nodes = np.minimum(np.searchsorted(self.cdf, u_nodes * self.cdf[-1],
                                           side="right"), len(self.cdf) - 1)
        if self.k == 1:
            return nodes, np.zeros_like(nodes)
        return nodes, sample_facets(self.facet_dist[nodes], u_facets)


def uniforms_per_round(contexts, k: int, negatives: int):
    """Uniforms one facet round draws, for `contexts` contexts."""
    if k == 1:
        return contexts * negatives
    return 1 + contexts + 2 * negatives * contexts


class Steps(NamedTuple):
    """Decoded steps: rows of the (nodes*K, D) tables, and the observation
    or edge sample each step belongs to."""

    target: np.ndarray      # (S,)
    context: np.ndarray     # (S,)
    negatives: np.ndarray   # (S, R)
    unit: np.ndarray        # (S,)


def decode(uniforms, base, contexts, position, target, target_cond,
           context, context_cond, unit, sampler: NegativeSampler,
           negatives: int) -> Steps:
    """Decode one chunk's steps. Per step, `base` is the offset of its
    facet round in `uniforms`, which has `contexts` contexts, the step's
    being at `position`; `*_cond` are the facet distributions of `target`
    and `context` (unused at K == 1)."""
    k = sampler.k
    offsets = np.arange(negatives)
    if k == 1:
        first = base + position * negatives
        nodes, _ = sampler.decode(uniforms[first[:, None] + offsets])
        return Steps(target, context, nodes, unit)
    t_facet = sample_facets(target_cond, uniforms[base])
    c_facet = sample_facets(context_cond, uniforms[base + 1 + position])
    first = (base + 1 + contexts + 2 * negatives * position)[:, None] + offsets
    nodes, facets = sampler.decode(uniforms[first], uniforms[first + negatives])
    return Steps(target * k + t_facet, context * k + c_facet,
                 nodes * k + facets, unit)


class Engine:
    """One training run's tables, random stream and update loop.

    Steps are numbered across `apply` calls for the learning rate, which
    decays linearly over `total_steps` to a floor of LR_FLOOR_RATIO times
    its start, for `hook(step, tables)`, and for the loss trace: the mean
    loss of each run of `bucket` consecutive steps.
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
        self.step = 0

    def apply(self, steps: Steps, label: str) -> None:
        """Run the steps; a non-finite loss raises NumericsError naming
        `label` and the step's unit."""
        u, h, hook, tables = self.u, self.h, self.hook, self.tables
        start = self.step
        index = np.arange(start, start + len(steps.target), dtype=np.float64)
        rates = self.lr0 * np.maximum(LR_FLOOR_RATIO, 1.0 - self.decay * index)
        losses = []
        for s, (t, c, neg, lr) in enumerate(zip(
                steps.target.tolist(), steps.context.tolist(),
                steps.negatives, rates.tolist())):
            u_t, h_c = u[t], h[c]
            loss, g_u, g_ctx, g_neg = sgns_loss_and_grads(u_t, h_c, h[neg])
            if not math.isfinite(loss):
                raise NumericsError(
                    f"training diverged at {label} {steps.unit[s]}")
            u_t -= lr * g_u
            h_c -= lr * g_ctx
            np.subtract.at(h, neg, lr * g_neg)
            losses.append(loss)
            if hook is not None:
                hook(start + s, tables)
        self.step = start + len(losses)
        # in step order, so each bucket sums exactly as a running total does
        np.add.at(self.loss_sums, (index // self.bucket).astype(np.int64), losses)

    def loss_trace(self) -> list[float]:
        """Mean loss per bucket; the last bucket may be shorter."""
        first = self.bucket * np.arange(len(self.loss_sums))
        return (self.loss_sums / np.minimum(self.bucket, self.total - first)).tolist()
