"""Facet-aware edge-sampling trainer for bipartite networks.

Observations are single edges (type-A node, type-B node). Each sampled
edge gets `facet_rate` rounds of facet assignment; both endpoints draw
their facet from the edge's facet distribution (facet_mode "observation")
or from its min-rule conditional ("min"), then one negative-sampled
update runs on the selected facet vectors. The target table U covers
type-A nodes, the context table H covers type-B nodes, and negatives are
(type-B node, facet) pairs drawn from item degree**0.75 and the item's
prior. An edge is one uniform through `sgd.GuideTable`, over the edge
weights (`weighted_edges`) or unit weights, and an `sgd` observation with
one context, decoded and run by the shared engine. Runs are
bit-reproducible for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import sgd
from .errors import ValidationError, check_settings
from .facets import FacetPrior
from .tables import EmbeddingTables

TRACE_POINTS = 10   # loss-trace buckets per run


@dataclass(frozen=True)
class PteConfig:
    dim: int = 30
    negatives: int = 30
    facet_rate: int | None = None      # None: K**2 rounds per edge
    total_samples: int | None = None   # None: 100 * num_edges
    learning_rate: float = 0.025
    seed: int = 0
    facet_mode: str = "observation"    # "observation" | "min"
    weighted_edges: bool = False

    def __post_init__(self):
        check_settings(vars(self), "dim negatives facet_rate total_samples "
                       "learning_rate", nonnegative="seed")
        if self.facet_mode not in ("observation", "min"):
            raise ValidationError(f"unknown facet_mode {self.facet_mode!r}")


class PteResult(NamedTuple):
    tables: EmbeddingTables
    loss_trace: list[float]
    engine: str              # "c" or "numpy", as sgd.Engine.kind
    facet_counts: list[int]  # activations per facet, as sgd.Engine


def _run_chunk(bipartite, engine, edge_table, start, count):
    """Draw edge samples start .. start + count - 1 from the engine's
    stream and run them on it.

    Each sample's edge uniform comes ahead of its block of uniforms, all in
    one `rng.random` call; `edge_table` decodes it into the edge.
    """
    width = engine.facet_rate * sgd.uniforms_per_round(1, engine.sampler.k,
                                                       engine.negatives)
    drawn = engine.rng.random((count, width + 1))
    edge, uniforms = edge_table.decode(drawn[:, 0]), drawn[:, 1:]
    a, b = bipartite.edges[edge, 0], bipartite.edges[edge, 1]
    engine.run(uniforms.ravel(), a, b[:, None], start, "edge sample")


def train_pte(bipartite, prior: FacetPrior, config: PteConfig,
              hook: Callable | None = None) -> PteResult:
    """Train facet embeddings by repeated edge sampling.

    Bit-reproducible for a fixed seed. `hook(step, tables)`, when given,
    runs after every update. The loss trace holds the mean loss of
    consecutive buckets of about total/TRACE_POINTS steps.
    """
    if prior.dist_b is None:
        raise ValidationError("PTE training needs a bipartite prior (P and Q)")
    if prior.dist.shape[0] != bipartite.num_a:
        raise ValidationError("prior P side does not match type-A node count")
    if prior.dist_b.shape[0] != bipartite.num_b:
        raise ValidationError("prior Q side does not match type-B node count")
    if bipartite.num_edges == 0:
        raise ValidationError("graph has no edges")

    facet_rate = config.facet_rate if config.facet_rate is not None else prior.k ** 2
    total = (config.total_samples if config.total_samples is not None
             else 100 * bipartite.num_edges)

    sampler = sgd.NegativeSampler(bipartite.degrees_b(), prior.dist_b)
    edge_table = sgd.GuideTable(bipartite.weights if config.weighted_edges
                                else np.ones(bipartite.num_edges))
    steps_total = total * facet_rate
    engine = sgd.Engine(prior.dist, prior.dist_b, sampler, facet_rate,
                        config.facet_mode, config.negatives, config.dim,
                        config.seed, config.learning_rate, steps_total,
                        max(1, steps_total // TRACE_POINTS), hook)
    for start in range(0, total, sgd.CHUNK):
        _run_chunk(bipartite, engine, edge_table, start,
                   min(sgd.CHUNK, total - start))
    engine.tables.check_finite("after training")
    return PteResult(engine.tables, engine.loss_trace(), engine.kind,
                     engine.facet_counts.tolist())


def pte_lower_bound_small(edge, prior: FacetPrior, tables: EmbeddingTables,
                          mode: str = "observation"):
    """Exact log-likelihood of one edge and its Jensen lower bound, as
    `sgd.jensen_bound` with the edge's type-B node as the one context.
    Returns (l_exact, l_lower)."""
    if prior.dist_b is None:
        raise ValidationError("needs a bipartite prior")
    a, b = edge
    return sgd.jensen_bound(a, (b,), prior.dist, prior.dist_b, tables, mode)
