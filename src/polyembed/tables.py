"""Target/context embedding tables indexed by (node, facet).

Both tables are dense float64 arrays of shape (nodes, facets, dim). The
target table starts uniform in (-0.5/D, 0.5/D) and the context table at
zero, the usual skip-gram convention. The text export format is
    N K D
    node_id facet_id v_1 ... v_D
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (NumericsError, ParseError, ValidationError, parse_header,
                     parse_numbers)


@dataclass
class EmbeddingTables:
    u: np.ndarray   # (num_target, K, D) target vectors
    h: np.ndarray   # (num_context, K, D) context vectors

    def __post_init__(self):
        if self.u.ndim != 3 or self.h.ndim != 3:
            raise ValidationError("embedding tables must be (nodes, facets, dim)")
        if self.u.shape[1:] != self.h.shape[1:]:
            raise ValidationError("target/context tables disagree on (K, D)")

    @property
    def k(self) -> int:
        return self.u.shape[1]

    @property
    def dim(self) -> int:
        return self.u.shape[2]

    @property
    def num_target(self) -> int:
        return self.u.shape[0]

    @property
    def num_context(self) -> int:
        return self.h.shape[0]

    def check_finite(self, where: str = "") -> None:
        if not np.isfinite(self.u).all() or not np.isfinite(self.h).all():
            raise NumericsError(f"non-finite embedding entries {where}".strip())


def init_tables(num_nodes, k, d, seed=0, num_context=None) -> EmbeddingTables:
    """Fresh tables; same seed gives bit-identical contents."""
    if num_nodes < 1 or k < 1 or d < 1:
        raise ValidationError("table dimensions must be positive")
    rng = np.random.default_rng(seed)
    nc = num_nodes if num_context is None else num_context
    u = (rng.random((num_nodes, k, d)) - 0.5) / d
    h = np.zeros((nc, k, d))
    return EmbeddingTables(u=u, h=h)


def save_embeddings(path, table: np.ndarray) -> None:
    """Write one (N, K, D) table in the text format above."""
    table = np.asarray(table)
    if table.ndim != 3:
        raise ValidationError("expected a (nodes, facets, dim) array")
    n, k, d = table.shape
    with open(Path(path), "w", encoding="utf-8") as fh:
        fh.write(f"{n} {k} {d}\n")
        for i in range(n):
            for f in range(k):
                row = " ".join(f"{v:.17g}" for v in table[i, f])
                fh.write(f"{i} {f} {row}\n")


def load_embeddings(path) -> np.ndarray:
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        n, k, d = parse_header(fh.readline(), path, "N K D")
        out = np.zeros((n, k, d))
        seen = np.zeros((n, k), dtype=bool)
        for line_no, line in enumerate(fh, start=2):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != d + 2:
                raise ParseError(f"{path} line {line_no}: expected {d + 2} fields")
            where = f"{path} line {line_no}"
            i, f = parse_numbers(fields[:2], int, where)
            if not (0 <= i < n and 0 <= f < k):
                raise ParseError(f"{path} line {line_no}: index out of range")
            out[i, f] = parse_numbers(fields[2:], float, where)
            seen[i, f] = True
    if not seen.all():
        raise ParseError(f"{path}: missing {int((~seen).sum())} (node, facet) rows")
    return out
