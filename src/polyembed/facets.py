"""Node-facet priors estimated by NMF, plus facet-distribution arithmetic.

The global association between nodes and facets is obtained by factorizing
the adjacency matrix: symmetrically (A ~ P P^T) for homogeneous networks,
asymmetrically (A ~ P Q^T) for bipartite ones. Row-normalizing the factors
gives each node a probability distribution over facets; everything the
trainers need (observation distributions, conditional distributions,
facet sampling) is derived from those rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError, check_settings
from .graph import _merge
from .kernel import Csr, csr
from .tables import load_matrix

_EPS = 1e-12


@dataclass(frozen=True)
class FacetPrior:
    """Nonnegative factor matrices and the per-node facet distributions.

    `p`/`dist` cover the homogeneous node set, or the type-A side of a
    bipartite network; `q`/`dist_b` hold the type-B side when present.
    """

    p: np.ndarray                 # (N, K) nonnegative factor
    dist: np.ndarray              # (N, K) row-stochastic
    q: np.ndarray | None = None   # (M, K)
    dist_b: np.ndarray | None = None

    @property
    def k(self) -> int:
        return self.p.shape[1]

    @classmethod
    def from_factor(cls, p):
        p = np.asarray(p, dtype=np.float64)
        return cls(p=p, dist=normalize_prior(p))

    @classmethod
    def from_factors(cls, p, q):
        p = np.asarray(p, dtype=np.float64)
        q = np.asarray(q, dtype=np.float64)
        if p.shape[1] != q.shape[1]:
            raise ValidationError("P and Q must share the facet dimension")
        return cls(p=p, dist=normalize_prior(p), q=q, dist_b=normalize_prior(q))

    @classmethod
    def uniform(cls, num_nodes, k=1, num_b=None):
        """Maximum-uncertainty prior; the K=1 case is the single-facet model."""
        p = np.ones((num_nodes, k))
        if num_b is None:
            return cls.from_factor(p)
        return cls.from_factors(p, np.ones((num_b, k)))


class NmfResult(NamedTuple):
    factors: tuple[np.ndarray, ...]   # (P,) or (P, Q)
    objective: float
    iterations: int
    trace: np.ndarray                 # objective value per iteration, trace[0] at init


def _validate_nonnegative(a, name):
    if not np.isfinite(a).all():
        raise ValidationError(f"{name} contains non-finite entries")
    if (a < 0).any():
        raise ValidationError(f"{name} contains negative entries")


def _sparse_input(a) -> Csr:
    """A dense matrix or a Csr as canonical float64 CSR (`kernel.csr`),
    values checked."""
    a = csr(a)
    _validate_nonnegative(a.data, "A")
    return a


def _asymmetry(a: Csr) -> float:
    """max |A - A^T| over A's stored cells: the cells (i, j, v) and
    (j, i, -v) merged."""
    if not len(a.data):
        return 0.0
    rows = a.rows()
    _, diff, _ = _merge(np.concatenate([rows, a.indices]),
                        np.concatenate([a.indices, rows]),
                        np.concatenate([a.data, -a.data]))
    return float(np.abs(diff).max())


def _init_factor(rng, shape, mean, k):
    # zero init is a fixed point of multiplicative updates; draw from (0, 1]
    scale = np.sqrt(mean / k)
    return (1.0 - rng.random(shape)) * scale


def symmetric_nmf(a, k, alpha=0.05, max_iters=500, tol=1e-5, seed=0) -> NmfResult:
    """Factorize a symmetric nonnegative matrix (dense or sparse) as A ~ P P^T.

    Minimizes ||A - P P^T||_F^2 + alpha ||P||_F^2 with a damped
    multiplicative update (damping 0.5); the objective never increases.
    It is evaluated as ||A||^2 - 2 tr(P^T A P) + ||P^T P||^2 + alpha ||P||^2
    on A's stored entries.
    """
    a = _sparse_input(a)
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValidationError("A must be square")
    asym = _asymmetry(a)
    if asym > 1e-9:
        raise ValidationError(f"A is not symmetric (max asymmetry {asym:g})")
    if not 1 <= k <= n:
        raise ValidationError(f"need 1 <= K <= {n}, got {k}")
    check_settings(dict(max_iters=max_iters, alpha=alpha, tol=tol), "max_iters",
                   nonnegative="alpha tol")

    total = a.data.sum()
    if total == 0.0:
        p = np.zeros((n, k))
        return NmfResult((p,), 0.0, 0, np.zeros(1))

    rng = np.random.default_rng(seed)
    p = _init_factor(rng, (n, k), total / (n * n), k)
    a_sq = float(a.data @ a.data)

    def objective(p, ap, ptp):
        return float(a_sq - 2.0 * (p * ap).sum() + (ptp * ptp).sum()
                     + alpha * (p * p).sum())

    ap, ptp = a @ p, p.T @ p
    trace = [objective(p, ap, ptp)]
    beta = 0.5
    iterations = 0
    for iterations in range(1, max_iters + 1):
        denom = p @ ptp + 0.5 * alpha * p + _EPS
        p = p * (1.0 - beta + beta * ap / denom)
        ap, ptp = a @ p, p.T @ p
        trace.append(objective(p, ap, ptp))
        if trace[-2] - trace[-1] < tol * max(trace[-2], _EPS):
            break
    return NmfResult((p,), trace[-1], iterations, np.array(trace))


def asymmetric_nmf(a, k, alpha=0.05, max_iters=500, tol=1e-5, seed=0) -> NmfResult:
    """Factorize a nonnegative matrix (dense or sparse) as A ~ P Q^T
    (Lee-Seung updates with a Tikhonov term); the objective never increases.
    It is evaluated as ||A||^2 - 2 tr(P^T A Q) + <P^T P, Q^T Q>
    + alpha (||P||^2 + ||Q||^2) on A's stored entries."""
    a = _sparse_input(a)
    n, m = a.shape
    if not 1 <= k <= min(n, m):
        raise ValidationError(f"need 1 <= K <= {min(n, m)}, got {k}")
    check_settings(dict(max_iters=max_iters, alpha=alpha, tol=tol), "max_iters",
                   nonnegative="alpha tol")

    total = a.data.sum()
    if total == 0.0:
        return NmfResult((np.zeros((n, k)), np.zeros((m, k))), 0.0, 0, np.zeros(1))

    rng = np.random.default_rng(seed)
    p = _init_factor(rng, (n, k), total / (n * m), k)
    q = _init_factor(rng, (m, k), total / (n * m), k)
    a_t = a.T
    a_sq = float(a.data @ a.data)

    def objective(p, q, atp, ptp, qtq):
        return float(a_sq - 2.0 * (q * atp).sum() + (ptp * qtq).sum()
                     + alpha * ((p * p).sum() + (q * q).sum()))

    ptp, qtq = p.T @ p, q.T @ q
    trace = [objective(p, q, a_t @ p, ptp, qtq)]
    iterations = 0
    for iterations in range(1, max_iters + 1):
        p = p * (a @ q) / (p @ qtq + alpha * p + _EPS)
        atp, ptp = a_t @ p, p.T @ p
        q = q * atp / (q @ ptp + alpha * q + _EPS)
        qtq = q.T @ q
        trace.append(objective(p, q, atp, ptp, qtq))
        if trace[-2] - trace[-1] < tol * max(trace[-2], _EPS):
            break
    return NmfResult((p, q), trace[-1], iterations, np.array(trace))


def normalize_prior(p) -> np.ndarray:
    """Row-normalize a nonnegative matrix; all-zero rows become uniform."""
    p = np.asarray(p, dtype=np.float64)
    _validate_nonnegative(p, "prior matrix")
    sums = p.sum(axis=1, keepdims=True)
    k = p.shape[1]
    out = np.where(sums > 0, p / np.where(sums > 0, sums, 1.0), 1.0 / k)
    return out


def conditional_distribution(p_v, p_o, mode: str = "min") -> np.ndarray:
    """Distribution a node's facet is sampled from within one observation.

    mode "min" keeps only facets plausible for both the node and the
    observation (elementwise min, renormalized); an all-zero min falls
    back to the node's own prior. mode "observation" returns p_o itself.
    Both arguments may also be matching stacks of distributions along the
    last axis, one conditional per row.
    """
    p_v = np.asarray(p_v, dtype=np.float64)
    p_o = np.asarray(p_o, dtype=np.float64)
    if p_v.shape != p_o.shape:
        raise ValidationError("facet distributions differ in length")
    if mode == "observation":
        return p_o.copy()
    if mode != "min":
        raise ValidationError(f"unknown conditional mode {mode!r}")
    m = np.minimum(p_v, p_o)
    s = m.sum(axis=-1, keepdims=True)
    return np.where(s > 0.0, m / np.where(s > 0.0, s, 1.0), p_v)


def sample_facets(dist, u) -> np.ndarray:
    """Inverse-CDF facet draws, one per distribution along the last axis of
    `dist`, from uniforms `u` shaped like `dist` without that axis."""
    return facets_from_cdf(np.moveaxis(np.cumsum(dist, axis=-1), -1, 0), u)


def facets_from_cdf(cdf, u, rows=...) -> np.ndarray:
    """`sample_facets` given the distributions' cumulative sums as K columns
    (K, ...) read at `rows`: the count of the first K - 1 sums at or below
    `u` times the last, which is the count of all K clamped to K - 1, as
    sums do not decrease. Columns are gathered one at a time: all K at
    once made the negative sampler's decode about twice as slow."""
    x = u * cdf[-1][rows]
    out = np.zeros(x.shape, dtype=np.intp)
    for column in cdf[:-1]:
        out += column[rows] <= x
    return out


def entropy(dist) -> float:
    """Shannon entropy in nats; zero entries contribute nothing."""
    d = np.asarray(dist, dtype=np.float64)
    nz = d[d > 0]
    return float(-(nz * np.log(nz)).sum())


def load_prior(path, path_b=None) -> FacetPrior:
    """Assemble a FacetPrior from one (homogeneous) or two (bipartite)
    prior files (`tables.load_matrix` layout "N K"); rows are renormalized
    on load."""
    p = normalize_prior(load_matrix(path, "N K"))
    if path_b is None:
        return FacetPrior.from_factor(p)
    q = normalize_prior(load_matrix(path_b, "N K"))
    return FacetPrior.from_factors(p, q)
