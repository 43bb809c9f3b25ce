"""Benchmark workloads: seeded planted-block graphs and the pipeline flags.

The generators draw the same model as the test suite's `make_sbm` and
`make_planted_bipartite` (independent edges, one probability inside a
block and another across blocks), generalised to B blocks and drawn one
block pair at a time with numpy instead of one Python loop per cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                     # "homogeneous" | "bipartite"
    blocks: int
    sizes: tuple[int, ...]        # (nodes,) or (num_a, num_b)
    p_in: float
    p_out: float
    flags: tuple[str, ...]        # sizing flags after --input/--kind/--seed
    config: tuple[str, ...]       # key=value lines for --config


# Every sizing flag of `polyembed pipeline` is passed explicitly, so that a
# change of CLI defaults cannot change the work; NMF limits have no flag and
# go through --config. `--workers` is never passed.
_COMMON = ("--alpha", "0.05", "--num-negatives", "20", "--ks", "10")
_NMF = ("max_iters=200", "tol=1e-5")

WORKLOADS = {
    w.name: w for w in (
        # Trainer-bound (PolyDeepWalk); the only workload that runs walks,
        # symmetric NMF, the one-per-node split, homogeneous scoring and
        # classify.
        Workload(
            name="walk-sbm",
            kind="homogeneous", blocks=4, sizes=(400,), p_in=0.12,
            p_out=0.008,
            flags=("--model", "deepwalk", "--k", "4", "--dim", "16",
                   "--split", "one-per-node", "--walks-per-node", "2",
                   "--walk-length", "10", "--window", "2", "--negatives", "5",
                   "--facet-rate", "2", "--epochs", "1",
                   "--learning-rate", "0.2") + _COMMON,
            config=_NMF),
        # The same SGD layer as walk-sbm with another step shape: edge
        # samples, K^2 facet rounds per sample, degree-based negatives and no
        # context window. Many users per item give enough held-out queries
        # for a steady HR@10.
        Workload(
            name="edge-bipartite",
            kind="bipartite", blocks=3, sizes=(600, 60), p_in=0.3,
            p_out=0.03,
            flags=("--model", "pte", "--k", "3", "--dim", "16",
                   "--split", "latest-per-user", "--negatives", "5",
                   "--facet-rate", "9", "--total-samples", "6000",
                   "--learning-rate", "0.2") + _COMMON,
            config=_NMF),
        # The dense paths dominate: PolyGCN, then asymmetric NMF, then link
        # evaluation (a Python loop over every item per query). No SGD
        # trainer runs, so trainer changes must leave it unchanged.
        Workload(
            name="gcn-wide",
            kind="bipartite", blocks=3, sizes=(1600, 800), p_in=0.03,
            p_out=0.003,
            flags=("--model", "gcn", "--k", "3", "--dim", "16",
                   "--split", "latest-per-user", "--iterations", "20",
                   "--depth", "2", "--learning-rate", "0.01") + _COMMON,
            config=("max_iters=200", "tol=1e-6")),
    )
}


def _block_of(n: int, blocks: int) -> np.ndarray:
    """Block id of each of n nodes: contiguous, near-equal blocks."""
    return (np.arange(n) * blocks) // n


def make_sbm(rng, n: int, blocks: int, p_in: float, p_out: float):
    """Homogeneous planted-block graph: (edges (E, 2) with i < j, block)."""
    block = _block_of(n, blocks)
    starts = np.searchsorted(block, np.arange(blocks + 1))
    parts = []
    for bi in range(blocks):
        for bj in range(bi, blocks):
            rows = np.arange(starts[bi], starts[bi + 1])
            cols = np.arange(starts[bj], starts[bj + 1])
            hit = rng.random((len(rows), len(cols))) < (p_in if bi == bj else p_out)
            if bi == bj:
                hit = np.triu(hit, k=1)
            i, j = np.nonzero(hit)
            parts.append(np.stack([rows[i], cols[j]], axis=1))
    return np.concatenate(parts), block


def make_planted_bipartite(rng, num_a: int, num_b: int, blocks: int,
                           p_in: float, p_out: float):
    """Bipartite planted-block graph with distinct timestamps:
    (edges (E, 2) of (a, b), timestamps (E,), block_a, block_b)."""
    block_a, block_b = _block_of(num_a, blocks), _block_of(num_b, blocks)
    starts_a = np.searchsorted(block_a, np.arange(blocks + 1))
    starts_b = np.searchsorted(block_b, np.arange(blocks + 1))
    parts = []
    for bi in range(blocks):
        for bj in range(blocks):
            rows = np.arange(starts_a[bi], starts_a[bi + 1])
            cols = np.arange(starts_b[bj], starts_b[bj + 1])
            hit = rng.random((len(rows), len(cols))) < (p_in if bi == bj else p_out)
            i, j = np.nonzero(hit)
            parts.append(np.stack([rows[i], cols[j]], axis=1))
    edges = np.concatenate(parts)
    timestamps = rng.permutation(len(edges))
    return edges, timestamps, block_a, block_b


@dataclass(frozen=True)
class Inputs:
    edges_path: str
    labels_path: str | None
    num_edges: int
    block_a: np.ndarray           # block of each (type-A) node
    block_b: np.ndarray | None    # block of each type-B node (bipartite)


def write_inputs(workload: Workload, seed: int, prefix: str) -> Inputs:
    """Generate the workload's graph from `seed` and write it as an edge
    list (plus a block-label file for homogeneous graphs)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, *workload.name.encode()]))
    edges_path = f"{prefix}.edges"
    if workload.kind == "homogeneous":
        (n,) = workload.sizes
        edges, block = make_sbm(rng, n, workload.blocks, workload.p_in,
                                workload.p_out)
        with open(edges_path, "w", encoding="utf-8") as fh:
            fh.write(f"# nodes {n}\n")
            np.savetxt(fh, edges, fmt="%d")
        labels_path = f"{prefix}.labels"
        with open(labels_path, "w", encoding="utf-8") as fh:
            np.savetxt(fh, np.stack([np.arange(n), block], axis=1), fmt="%d b%d")
        return Inputs(edges_path, labels_path, len(edges), block, None)
    num_a, num_b = workload.sizes
    edges, stamps, block_a, block_b = make_planted_bipartite(
        rng, num_a, num_b, workload.blocks, workload.p_in, workload.p_out)
    with open(edges_path, "w", encoding="utf-8") as fh:
        fh.write(f"# nodes {num_a} {num_b}\n")
        np.savetxt(fh, np.column_stack([edges, np.ones(len(edges), np.int64),
                                        stamps]), fmt="%d")
    return Inputs(edges_path, None, len(edges), block_a, block_b)
