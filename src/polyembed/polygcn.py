"""Per-facet graph-convolution embeddings for bipartite networks.

The adjacency is split into K facet matrices (an exact partition guided
by the NMF factors). Each facet has its own encoder over the stacked node
set [A; B] with one aggregation operator, the mean of a node and its
neighbours: (I + M) z / (1 + deg), where the symmetric 0/1 mask M holds
the facet's edges ("bipartite") or links same-type nodes that share a
facet neighbour ("co"). A layer aggregates, applies type A's or type B's
weights, then a leaky ReLU of slope 0.2. Layer-0 inputs are free
trainable vectors (the datasets carry no node attributes). Each facet
trains independently on an edge-level negative-sampling loss over its own
facet matrix; the loss's gradients at the encoder outputs come from one
sparse matrix of per-pair score coefficients and flow back through the
same operator by hand-written reverse accumulation.

As facets share no state, `train_gcn` trains them in forked processes,
each with one BLAS thread, where that is safe and there is more than one
CPU (`_facet_workers`), and one after another otherwise. Both paths run
`_train_facet` from each facet's own seed child, so the tables are the
same bytes either way.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import pickle
import signal
import sys
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernel
from .errors import NumericsError, ValidationError, allocating, check_settings
from .kernel import Csr, coo_matmat, csr
from .sgd import GuideTable
from .tables import EmbeddingTables, write_rows

LEAKY_SLOPE = 0.2
_ADAM_B1, _ADAM_B2, _ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class FacetAdjacency:
    """K nonnegative CSR matrices that sum exactly to the adjacency."""

    mats: list[Csr]

    @property
    def k(self) -> int:
        return len(self.mats)

    @property
    def shape(self):
        return self.mats[0].shape


def decompose_adjacency(a, p, q) -> FacetAdjacency:
    """Split A (dense or sparse) into per-facet CSR matrices, visiting only
    its stored cells: A^k(i,j) = A(i,j) P(i,k) Q(j,k) / sum_c P(i,c) Q(j,c),
    so sum_k A^k == A. Cells whose factor products all vanish split uniformly."""
    a = csr(a)
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape[0] != a.shape[0] or q.shape[0] != a.shape[1]:
        raise ValidationError("factor shapes do not match the adjacency")
    if p.shape[1] != q.shape[1]:
        raise ValidationError("P and Q disagree on facet count")
    if (p < 0).any() or (q < 0).any():
        raise ValidationError("factors must be nonnegative")
    k = p.shape[1]
    rows, cols, values = _cells(a)
    prod = p[rows] * q[cols]                 # (E, K)
    denom = prod.sum(axis=1, keepdims=True)
    safe = np.where(denom > 0, denom, 1.0)
    share = np.where(denom > 0, prod / safe, 1.0 / k)
    mats = []
    for c in range(k):
        cell = values * share[:, c]
        live = cell != 0
        mats.append(Csr.from_rows(rows[live], cols[live], cell[live], a.shape))
    return FacetAdjacency(mats=mats)


def _cells(mat, threshold=0.0):
    """(rows, cols, values) of the entries of a canonical CSR matrix above
    `threshold`, row-major like np.nonzero on the dense matrix."""
    live = mat.data > threshold
    return mat.rows()[live], mat.indices[live], mat.data[live]


@dataclass(frozen=True)
class GcnConfig:
    dim: int = 16                 # output dimension per facet
    depth: int = 2
    threshold: float = 0.0
    neighbor_mode: str = "bipartite"  # or "co"
    # one negative per edge per full-batch pass keeps positive and
    # negative pressure balanced; more negatives push the score
    # equilibrium below zero, which breaks prior-weighted scoring
    learning_rate: float = 0.01
    iterations: int = 400
    negatives: int = 1
    seed: int = 0

    def __post_init__(self):
        check_settings(vars(self), "dim depth learning_rate iterations negatives",
                       nonnegative="threshold seed")
        if self.neighbor_mode not in ("bipartite", "co"):
            raise ValidationError(f"unknown neighbor_mode {self.neighbor_mode!r}")


@dataclass
class FacetGcn:
    """Parameters of one facet: free layer-0 vectors and layer weights."""

    x_a: np.ndarray             # (num_a, D)
    x_b: np.ndarray             # (num_b, D)
    w_a: list[np.ndarray]       # depth matrices (D, D)
    w_b: list[np.ndarray]

    def params(self) -> dict[str, np.ndarray]:
        return {"x_a": self.x_a, "x_b": self.x_b,
                **{f"w_a{d}": w for d, w in enumerate(self.w_a)},
                **{f"w_b{d}": w for d, w in enumerate(self.w_b)}}


class FacetOps(NamedTuple):
    """One facet's mean aggregation over the stacked node set [A; B]:
    m = (z + agg @ z) * inv[:, None]."""

    agg: Csr                # symmetric 0/1 neighbour mask, canonical
    inv: np.ndarray         # 1 / (1 + neighbour count) per node
    num_a: int              # the first num_a nodes are type A


class GcnModel(NamedTuple):
    facets: list[FacetGcn]
    ops: list[FacetOps]


def init_gcn_model(num_a: int, num_b: int, facet_adj: FacetAdjacency,
                   config: GcnConfig, seed=None) -> GcnModel:
    """Draw every facet's parameters from `seed`, a SeedSequence (default:
    SeedSequence(config.seed)), and build its aggregation operator."""
    root = np.random.SeedSequence(config.seed) if seed is None else seed
    facet_models = []
    d = config.dim
    bound = 1.0 / math.sqrt(d)
    for ss in root.spawn(facet_adj.k):
        rng = np.random.default_rng(ss)
        with allocating(f"GCN parameters of dimension {d}"):
            x_a = rng.uniform(-bound, bound, (num_a, d))
            x_b = rng.uniform(-bound, bound, (num_b, d))
            w_a = [rng.uniform(-bound, bound, (d, d)) for _ in range(config.depth)]
            w_b = [rng.uniform(-bound, bound, (d, d)) for _ in range(config.depth)]
        facet_models.append(FacetGcn(x_a, x_b, w_a, w_b))
    return GcnModel(facet_models,
                    [_facet_ops(mat, config) for mat in facet_adj.mats])


def _facet_ops(mat, config) -> FacetOps:
    """The aggregation operator of one facet matrix. "bipartite": each node's
    neighbours are its facet edges' other ends; "co": the nodes of its own
    type that share a facet neighbour with it."""
    mat = csr(mat)
    rows, cols, _ = _cells(mat, config.threshold)
    num_a, num_b = mat.shape
    mask = Csr.from_rows(rows, cols, np.ones(len(rows)), mat.shape)
    if config.neighbor_mode == "bipartite":
        # [[0, mask], [mask^T, 0]]: type A's rows hold type-B columns
        top, bottom = mask._replace(indices=mask.indices + num_a), mask.T
    else:
        top, bottom = _co_mask(mask), _co_mask(mask.T)
        bottom = bottom._replace(indices=bottom.indices + num_a)
    indptr = np.concatenate([top.indptr, top.indptr[-1] + bottom.indptr[1:]])
    indices = np.concatenate([top.indices, bottom.indices])
    agg = Csr(indptr, indices, np.ones(len(indices)),
              (num_a + num_b, num_a + num_b))
    return FacetOps(agg, 1.0 / (1.0 + np.diff(indptr)), num_a)


def _co_mask(mask: Csr) -> Csr:
    """Rows sharing at least one stored column of `mask`, self pairs
    excluded, as a canonical 0/1 matrix: the (mask @ mask^T > 0) pattern
    with a zero diagonal. Each stored (i, c) pairs row i with every row
    stored in column c; repeated pairs are merged."""
    n = mask.shape[0]
    by_col = mask.T
    sizes = np.diff(by_col.indptr)[mask.indices]     # of each entry's column
    left = np.repeat(mask.rows(), sizes)
    offset = np.arange(len(left)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    right = by_col.indices[np.repeat(by_col.indptr[mask.indices], sizes) + offset]
    # np.unique took about 40x as long as this sort on gcn-wide's keys
    keys = np.sort((left * n + right)[left != right])
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    keys = keys[first]
    return Csr.from_rows(keys // n, keys % n, np.ones(len(keys)), (n, n))


def forward_facet(facet: FacetGcn, ops: FacetOps, keep_cache: bool = False):
    """Run one facet's encoders on the stacked nodes: per layer, aggregate,
    apply each node type's weights, then the leaky ReLU. Returns
    (U, H[, cache])."""
    n = ops.num_a
    z = np.vstack([facet.x_a, facet.x_b])
    cache = []                   # per layer: (aggregated m, pre-activation s)
    for w_a, w_b in zip(facet.w_a, facet.w_b):
        m = (z + ops.agg @ z) * ops.inv[:, None]
        s = np.vstack([m[:n] @ w_a.T, m[n:] @ w_b.T])
        cache.append((m, s))
        z = np.where(s > 0, s, LEAKY_SLOPE * s)
    if keep_cache:
        return z[:n], z[n:], cache
    return z[:n], z[n:]


def backward_facet(facet: FacetGcn, ops: FacetOps, cache, d_u, d_h):
    """Reverse accumulation through the aggregation stack; `agg` is
    symmetric, so it is its own transpose.

    d_u/d_h are the loss gradients at the final layer outputs. Returns a
    dict of gradients matching facet.params()."""
    n = ops.num_a
    grads = {}
    dz = np.vstack([d_u, d_h])
    for d in reversed(range(len(cache))):
        m, s = cache[d]
        ds = dz * np.where(s > 0, 1.0, LEAKY_SLOPE)
        grads[f"w_a{d}"] = ds[:n].T @ m[:n]
        grads[f"w_b{d}"] = ds[n:].T @ m[n:]
        t = np.vstack([ds[:n] @ facet.w_a[d], ds[n:] @ facet.w_b[d]])
        t *= ops.inv[:, None]
        dz = t + ops.agg @ t
    grads["x_a"], grads["x_b"] = dz[:n], dz[n:]
    return grads


def gcn_loss_and_grads(facet: FacetGcn, ops: FacetOps, edge_idx, edge_w, neg_idx):
    """Edge-level loss for one facet and its parameter gradients.

    edge_idx: (E, 2) int array of (a, b) pairs with positive facet mass;
    edge_w: (E,) weights (the facet matrix entries); neg_idx: (E, R) of
    type-B negatives per edge. The loss is the weight-normalized sum of
    per-edge negative-sampling losses.
    """
    u, h, cache = forward_facet(facet, ops, keep_cache=True)
    ai, bi = edge_idx[:, 0], edge_idx[:, 1]
    total_w = edge_w.sum()
    if total_w <= 0:
        raise ValidationError("facet has no positive edges")
    wn = edge_w / total_w
    u_e = u[ai]                              # (E, D)
    s_pos = np.clip((u_e * h[bi]).sum(axis=1), -30, 30)
    s_neg = np.clip(np.einsum("ed,erd->er", u_e, h[neg_idx]), -30, 30)  # (E, R)
    e_neg = np.exp(s_neg)
    loss = float(wn @ (np.log1p(np.exp(-s_pos)) + np.log1p(e_neg).sum(axis=1)))

    # d loss / d score of every scored pair: edge e's positive (a, b), then
    # its R negatives (a, n). As one sparse (num_a, num_b) matrix C, whose
    # repeated pairs add in this order, the output gradients are C @ H and
    # C^T @ U.
    coef = wn[:, None] * np.column_stack([1.0 / (1.0 + np.exp(-s_pos)) - 1.0,
                                          e_neg / (1.0 + e_neg)])
    rows = np.repeat(ai, coef.shape[1])
    cols = np.column_stack([bi, neg_idx]).ravel()
    grads = backward_facet(facet, ops, cache,
                           coo_matmat(rows, cols, coef.ravel(), h, len(u)),
                           coo_matmat(cols, rows, coef.ravel(), u, len(h)))
    return loss, grads


class GcnTrainResult(NamedTuple):
    tables: EmbeddingTables
    loss_traces: list[list[float]]
    processes: int              # that trained the facets, this one included


class FacetFit(NamedTuple):
    """What training one facet gives: its loss per iteration and its (U, H)."""

    trace: list[float]
    u: np.ndarray
    h: np.ndarray


def train_gcn(bipartite, facet_adj: FacetAdjacency,
              config: GcnConfig) -> GcnTrainResult:
    """Train every facet's encoder pair independently with Adam on the
    facet-restricted edge loss; facets with no edges stay at init.

    The facets share no state, so they train in forked processes when
    `_facet_workers` allows it (see `_fit_in_processes`), and one after
    another otherwise. Both run `_train_facet` per facet, from the same
    seed children, so the result does not depend on the path."""
    num_a, num_b = bipartite.num_a, bipartite.num_b
    if facet_adj.shape != (num_a, num_b):
        raise ValidationError("facet adjacency does not match the graph")
    root = np.random.SeedSequence(config.seed)
    init_ss, *facet_ss = root.spawn(1 + facet_adj.k)
    model = init_gcn_model(num_a, num_b, facet_adj, config, seed=init_ss)

    degree_table = GuideTable(bipartite.degrees_b() ** 0.75)

    def fit(k: int) -> FacetFit:
        return _train_facet(k, model.facets[k], model.ops[k],
                            _cells(facet_adj.mats[k], config.threshold),
                            facet_ss[k], degree_table, config)

    workers = _facet_workers(facet_adj.k)
    fits = (_fit_in_processes(fit, facet_adj.k, workers) if workers
            else [fit(k) for k in range(facet_adj.k)])
    u_out = np.zeros((num_a, facet_adj.k, config.dim))
    h_out = np.zeros((num_b, facet_adj.k, config.dim))
    for k, result in enumerate(fits):
        u_out[:, k], h_out[:, k] = result.u, result.h

    tables = EmbeddingTables(u=u_out, h=h_out)
    tables.check_finite("after GCN training")
    return GcnTrainResult(tables=tables,
                          loss_traces=[result.trace for result in fits],
                          processes=1 + workers)


def _train_facet(k: int, facet: FacetGcn, ops: FacetOps, cells, seed,
                 degree_table: GuideTable, config: GcnConfig) -> FacetFit:
    """Train facet k in place with Adam on its stored cells (rows, cols,
    weights), drawing its negatives from `degree_table` with the stream of
    its own seed child. A facet with no cells keeps its initial values."""
    rows, cols, edge_w = cells
    edge_idx = np.stack([rows, cols], axis=1)
    rng = np.random.default_rng(seed)
    params = facet.params()
    moments = {name: (np.zeros_like(p), np.zeros_like(p))
               for name, p in params.items()}
    trace: list[float] = []
    for it in range(1, (config.iterations if len(rows) else 0) + 1):
        neg_idx = degree_table.decode(rng.random((len(rows), config.negatives)))
        loss, grads = gcn_loss_and_grads(facet, ops, edge_idx, edge_w, neg_idx)
        if not math.isfinite(loss):
            raise NumericsError(f"facet {k} diverged at iteration {it}")
        trace.append(loss)
        for name, p in params.items():
            g, (m, v) = grads[name], moments[name]
            m *= _ADAM_B1
            m += (1 - _ADAM_B1) * g
            v *= _ADAM_B2
            v += (1 - _ADAM_B2) * g * g
            m_hat = m / (1 - _ADAM_B1 ** it)
            v_hat = v / (1 - _ADAM_B2 ** it)
            p -= config.learning_rate * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
    return FacetFit(trace, *forward_facet(facet, ops))


@functools.cache
def _openblas():
    """(get, set) of the thread count of the OpenBLAS that numpy's wheel
    bundles, found through numpy's own extension module, whose
    dependencies a lookup on its handle searches; None where no such
    symbols are exported (another BLAS, another build)."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get_threads = lib.scipy_openblas_get_num_threads64_
        set_threads = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get_threads.restype, get_threads.argtypes = ctypes.c_int, []
    set_threads.restype, set_threads.argtypes = None, [ctypes.c_int]
    return get_threads, set_threads


def _facet_workers(k: int) -> int:
    """How many forked children train facets beside this process:
    min(k - 1, usable CPUs), or 0 (the serial loop) for one facet, on one
    CPU, without `os.fork` or off Linux, while other threads run (a fork
    copies only the calling thread, and any lock another one holds), or
    when numpy's BLAS thread count cannot be set."""
    if (k < 2 or sys.platform != "linux" or not hasattr(os, "fork")
            or threading.active_count() > 1):
        return 0
    cpus = len(os.sched_getaffinity(0))
    if cpus < 2 or _openblas() is None:
        return 0
    return min(k - 1, cpus)


def _fit_in_processes(fit, k: int, workers: int) -> list[FacetFit]:
    """fit(0), ..., fit(k - 1), dealt round robin over this process (facet
    0 first) and `workers` forked children, with numpy's BLAS at one
    thread: at its default of one thread per CPU in every process, the
    processes' BLAS threads would compete for the CPUs, and the whole ran
    slower than the serial loop. A child sends its results, or the
    exception it raised, back through a pipe and exits. Every child is
    reaped, and the BLAS thread count restored, before this returns or
    raises; when this process fails first, its children are killed."""
    kernel.function("coo_matmat")   # build or load it (or warn) once, not per child
    get_threads, set_threads = _openblas() or (None, None)
    threads = get_threads() if get_threads else None
    stride = workers + 1
    children = []          # (pid, read end of its pipe, its first facet)
    try:
        if set_threads:
            set_threads(1)
        for c in range(1, stride):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _child(write, fit, range(c, k, stride))
            os.close(write)
            children.append((pid, os.fdopen(read, "rb"), c))
        fits = {j: fit(j) for j in range(0, k, stride)}
        while children:
            pid, pipe, c = children[0]
            data = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            pipe.close()
            if status:
                raise ChildProcessError(f"the process training facets "
                                        f"{list(range(c, k, stride))} ended "
                                        f"with wait status {status}")
            sent = pickle.loads(data)
            if isinstance(sent, Exception):
                raise sent
            fits.update(sent)
    finally:
        for pid, pipe, _ in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
        if set_threads:
            set_threads(threads)
    return [fits[j] for j in range(k)]


def _child(write: int, fit, facets) -> None:
    """The body of a forked child: send {j: fit(j)} for `facets`, or the
    exception that stopped it, to the pipe end `write`, then exit with
    status 0 once the pipe holds it, 1 otherwise. Never returns."""
    status = 1
    try:
        try:
            sent = {j: fit(j) for j in facets}
        except Exception as exc:
            sent = exc
        with open(write, "wb") as pipe:
            pickle.dump(sent, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def save_facet_adjacency(path, facet_adj: FacetAdjacency) -> None:
    """Sparse triple export: lines `k i j value` for every positive cell,
    values as `%.17g`."""
    with open(path, "wb") as fh:
        for k, mat in enumerate(facet_adj.mats):
            rows, cols, values = _cells(mat)
            write_rows(fh, np.stack([np.full(len(rows), k), rows, cols], axis=1),
                       values[:, None])
