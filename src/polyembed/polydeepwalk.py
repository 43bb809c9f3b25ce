"""Facet-aware skip-gram training on random-walk corpora.

For every center-context observation the trainer repeatedly (facet rate R)
assigns one facet to each node involved, then applies one negative-sampled
SGD update per (center, context) pair on the selected facet vectors.
Facets are drawn from the min-rule conditional distribution, so a facet
the prior rules out for a node is never activated for it. Sampling and
updating run in the shared `sgd` engine; runs are bit-reproducible for a
fixed seed. The tractable training objective is the Jensen lower bound
of the full facet-marginal log-likelihood; `exact_objective_small`
evaluates both sides exactly on enumerable instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import logsumexp

from . import sgd
from .errors import CapacityError, ValidationError
from .facets import FacetPrior, conditional_distribution
# sgns_loss_and_grads is public here too: the acceptance suite imports it
from .sgd import NegativeSampler, sgns_loss_and_grads  # noqa: F401
from .tables import EmbeddingTables
from .walks import Observation


@dataclass(frozen=True)
class TrainConfig:
    dim: int = 32
    negatives: int = 10
    facet_rate: int = 1
    epochs: int = 5
    learning_rate: float = 0.025
    window: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("dim must be positive")
        if self.negatives < 1:
            raise ValidationError("negatives must be positive")
        if self.facet_rate < 1:
            raise ValidationError("facet_rate must be positive")
        if self.epochs < 1:
            raise ValidationError("epochs must be positive")
        if self.learning_rate <= 0:
            raise ValidationError("learning_rate must be positive")
        if self.window < 1:
            raise ValidationError("window must be positive")


class TrainResult(NamedTuple):
    tables: EmbeddingTables
    epoch_losses: list[float]
    engine: str              # "c" or "numpy", as sgd.Engine.kind


def _observations(corpus, num_nodes: int, window: int):
    """The corpus as one flat array, each walk framed by at least `window`
    -1 pads on either side, and the index in it of every observation's
    center, in `walks.sliding_windows` order."""
    lengths = np.array([len(w) for w in corpus])
    padded = np.full((len(corpus), lengths.max() + 2 * window), -1, dtype=np.int64)
    for r, walk in enumerate(corpus):
        padded[r, window:window + len(walk)] = walk
    if padded.max() >= num_nodes or (padded >= 0).sum() != lengths.sum():
        raise ValidationError("corpus node id out of range")
    # a one-node walk has no context, so it yields no observation
    return padded.ravel(), np.flatnonzero((padded >= 0) & (lengths >= 2)[:, None])


def _decode_chunk(flat, at, offsets, first, dist, sampler, rng, facet_rate,
                  negatives):
    """Draw the uniforms of the observations centred at `at` (numbered
    from `first`) in one call and decode their steps."""
    center = flat[at]
    ctx = flat[at[:, None] + offsets]
    valid = ctx >= 0
    width = valid.sum(axis=1)
    k = dist.shape[1]
    per_round = sgd.uniforms_per_round(width, k, negatives)
    per_obs = facet_rate * per_round
    uniforms = rng.random(int(per_obs.sum()))

    n_steps = facet_rate * width
    owner = np.repeat(np.arange(len(at)), n_steps)
    q = np.arange(len(owner)) - np.repeat(np.cumsum(n_steps) - n_steps, n_steps)
    rnd, position = np.divmod(q, width[owner])
    base = (np.cumsum(per_obs) - per_obs)[owner] + rnd * per_round[owner]
    ctx_index = (np.cumsum(width) - width)[owner] + position
    contexts = ctx[valid]
    center_cond = ctx_cond = None
    if k > 1:
        # sum the context rows in window order, as the per-observation
        # formula does, so the conditionals match it bit for bit
        acc = np.zeros((len(at), k))
        for col in range(ctx.shape[1]):
            acc = acc + np.where(valid[:, col, None], dist[ctx[:, col]], 0.0)
        p_o = (dist[center] + acc) / (width + 1)[:, None]
        center_cond = conditional_distribution(dist[center], p_o)[owner]
        ctx_cond = conditional_distribution(
            dist[contexts], np.repeat(p_o, width, axis=0))[ctx_index]
    return sgd.decode(uniforms, base, width[owner], position, center[owner],
                      center_cond, contexts[ctx_index], ctx_cond,
                      first + owner, sampler, negatives)


def train(graph, prior: FacetPrior, corpus, config: TrainConfig,
          hook: Callable | None = None) -> TrainResult:
    """Run the facet-sampled negative-sampling trainer over a walk corpus.

    Bit-reproducible for a fixed seed. `hook(step, tables)`, when given,
    runs after every update.
    """
    n = graph.num_nodes
    if prior.dist.shape[0] != n:
        raise ValidationError("prior row count differs from graph size")
    if not corpus:
        raise ValidationError("empty corpus")
    flat, centers = _observations(corpus, n, config.window)
    if not len(centers):
        raise ValidationError("corpus yields no observations")

    sampler = NegativeSampler(np.bincount(flat[flat >= 0], minlength=n), prior.dist)
    offsets = np.r_[-config.window:0, 1:config.window + 1]
    pairs_per_epoch = config.facet_rate * sum(
        int((flat[centers + o] >= 0).sum()) for o in offsets)
    engine = sgd.Engine(n, n, prior.k, config.dim, config.seed,
                        config.learning_rate, pairs_per_epoch * config.epochs,
                        pairs_per_epoch, hook)
    for epoch in range(config.epochs):
        for first in range(0, len(centers), sgd.CHUNK):
            engine.apply(_decode_chunk(
                flat, centers[first:first + sgd.CHUNK], offsets, first,
                prior.dist, sampler, engine.rng, config.facet_rate,
                config.negatives), f"epoch {epoch}, observation")
        engine.tables.check_finite(f"after epoch {epoch}")
    return TrainResult(engine.tables, engine.loss_trace(), engine.kind)


def exact_objective_small(obs: Observation, prior: FacetPrior,
                          tables: EmbeddingTables,
                          enumeration_cap: int = 10**5):
    """Exact facet-marginal log-likelihood of one observation and its
    Jensen lower bound, by enumerating every facet assignment.

    The softmax normalizer runs over all (node, facet) context vectors;
    no negative sampling is involved. Returns (l_exact, l_lower) with
    l_lower <= l_exact.
    """
    k = prior.k
    positions = 1 + len(obs.context)
    if k ** positions > enumeration_cap:
        raise CapacityError(
            f"{k}^{positions} facet assignments exceed cap {enumeration_cap}")
    dist = prior.dist
    p_o = (dist[obs.center] + dist[list(obs.context)].sum(axis=0)) / positions
    cond_center = conditional_distribution(dist[obs.center], p_o)
    cond_ctx = [conditional_distribution(dist[j], p_o) for j in obs.context]

    d = tables.dim
    flat_h = tables.h.reshape(-1, d)
    log_z = np.array([logsumexp(flat_h @ tables.u[obs.center, kc])
                      for kc in range(k)])

    log_ps_terms = []
    log_po_terms = []
    for assign in itertools.product(range(k), repeat=positions):
        kc, kctx = assign[0], assign[1:]
        ps = cond_center[kc]
        for cj, kj in zip(cond_ctx, kctx):
            ps *= cj[kj]
        if ps <= 0.0:
            continue
        log_po = sum(float(tables.h[j, kj] @ tables.u[obs.center, kc]) - log_z[kc]
                     for j, kj in zip(obs.context, kctx))
        log_ps_terms.append(np.log(ps))
        log_po_terms.append(log_po)
    log_ps_arr = np.array(log_ps_terms)
    log_po_arr = np.array(log_po_terms)
    l_lower = float(np.exp(log_ps_arr) @ log_po_arr)
    l_exact = float(logsumexp(log_ps_arr + log_po_arr))
    return l_exact, l_lower
