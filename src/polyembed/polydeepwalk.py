"""Facet-aware skip-gram training on random-walk corpora.

For every center-context observation the trainer repeatedly (facet rate R)
assigns one facet to each node involved, then applies one negative-sampled
SGD update per (center, context) pair on the selected facet vectors.
Facets are drawn from the min-rule conditional distribution, so a facet
the prior rules out for a node is never activated for it. The trainer
frames the corpus into windows; the shared `sgd` engine decodes and
runs them. Runs are bit-reproducible for a fixed seed. The tractable
training objective is the Jensen lower bound of the full facet-marginal
log-likelihood; `exact_objective_small` evaluates both sides exactly on
enumerable instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import sgd
from .errors import ValidationError, check_settings
from .facets import FacetPrior
from .sgd import NegativeSampler
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
        check_settings(vars(self), "dim negatives facet_rate epochs learning_rate "
                       "window", nonnegative="seed")


class TrainResult(NamedTuple):
    tables: EmbeddingTables
    epoch_losses: list[float]
    engine: str              # "c" or "numpy", as sgd.Engine.kind
    facet_counts: list[int]  # activations per facet, as sgd.Engine


def _observations(corpus, num_nodes: int, window: int):
    """The corpus framed as one flat array, walk after walk with one run of
    `window` -1 pads before each walk and after the last, and the index in
    it of every observation's center, in `walks.sliding_windows` order.
    The ids are int32 when every node id fits."""
    corpus = np.asarray(corpus)
    if (corpus.ndim != 2 or not corpus.size
            or not np.issubdtype(corpus.dtype, np.integer)):
        raise ValidationError("corpus must be a nonempty integer matrix")
    present = corpus >= 0
    if corpus.max() >= num_nodes or corpus.min() < -1:
        raise ValidationError("corpus node id out of range")
    if (present[:, 1:] > present[:, :-1]).any():
        raise ValidationError("corpus -1 pads must follow each walk")
    rows, width = len(corpus), window + corpus.shape[1]
    flat = np.full(rows * width + window, -1,
                   dtype=np.int32 if num_nodes < 2**31 else np.int64)
    framed = flat[:rows * width].reshape(rows, width)
    framed[:, window:] = corpus
    # a one-node walk has no context, so it yields no observation
    return flat, np.flatnonzero((framed >= 0) & (present.sum(axis=1) >= 2)[:, None])


def _run_chunk(flat, at, offsets, first, engine, label):
    """Draw the uniforms of the observations centred at `at` (numbered
    from `first`) from the engine's stream in one call and run their steps
    on it."""
    ctx = flat[at[:, None] + offsets].astype(np.int64)
    per_round = sgd.uniforms_per_round((ctx >= 0).sum(axis=1), engine.sampler.k,
                                       engine.negatives)
    engine.run(engine.rng.random(int(engine.facet_rate * per_round.sum())),
               flat[at].astype(np.int64), ctx, first, label)


def train(graph, prior: FacetPrior, corpus, config: TrainConfig,
          hook: Callable | None = None) -> TrainResult:
    """Run the facet-sampled negative-sampling trainer over a walk corpus:
    an int matrix with one walk per row, -1 pads after a shorter walk.

    Bit-reproducible for a fixed seed. `hook(step, tables)`, when given,
    runs after every update.
    """
    n = graph.num_nodes
    if prior.dist.shape[0] != n:
        raise ValidationError("prior row count differs from graph size")
    flat, centers = _observations(corpus, n, config.window)
    if not len(centers):
        raise ValidationError("corpus yields no observations")

    corpus = np.asarray(corpus)
    # one walk position at a time: no mask, gather or int64 copy of the
    # whole corpus
    sampler = NegativeSampler(sum(np.bincount(col[col >= 0], minlength=n)
                                  for col in corpus.T), prior.dist)
    offsets = np.r_[-config.window:0, 1:config.window + 1]
    # a walk of l nodes has 2 * sum(l - d for d in 1..min(window, l - 1)) pairs
    lengths = (corpus >= 0).sum(axis=1)
    d = np.minimum(config.window, lengths - 1)
    pairs_per_epoch = config.facet_rate * int(
        (2 * (d * lengths - d * (d + 1) // 2)).sum())
    engine = sgd.Engine(prior.dist, prior.dist, sampler, config.facet_rate, "min",
                        config.negatives, config.dim, config.seed,
                        config.learning_rate, pairs_per_epoch * config.epochs,
                        pairs_per_epoch, hook)
    for epoch in range(config.epochs):
        for first in range(0, len(centers), sgd.CHUNK):
            _run_chunk(flat, centers[first:first + sgd.CHUNK], offsets, first,
                       engine, f"epoch {epoch}, observation")
        engine.tables.check_finite(f"after epoch {epoch}")
    return TrainResult(engine.tables, engine.loss_trace(), engine.kind,
                       engine.facet_counts.tolist())


def exact_objective_small(obs: Observation, prior: FacetPrior,
                          tables: EmbeddingTables,
                          enumeration_cap: int = 10**5):
    """Exact facet-marginal log-likelihood of one observation and its
    Jensen lower bound under the min rule, as `sgd.jensen_bound`. Returns
    (l_exact, l_lower) with l_lower <= l_exact."""
    return sgd.jensen_bound(obs.center, tuple(obs.context), prior.dist,
                            prior.dist, tables, "min", enumeration_cap)
