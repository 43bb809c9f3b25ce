"""Target/context embedding tables indexed by (node, facet).

Both tables are dense float64 arrays of shape (nodes, facets, dim). The
target table starts uniform in (-0.5/D, 0.5/D) and the context table at
zero, the usual skip-gram convention.

`save_matrix` and `load_matrix` are the one text format of the pipeline's
priors, embedding tables and joint vectors: the header is the array's
shape, then each row of the last axis follows its integer index tuple,
    N K D
    node_id facet_id v_1 ... v_D
`write_rows` writes the rows of every such file, of PolyGCN's facet
adjacency and of integer-id edge lists through the kernel's `format_rows`;
Python's `'%.17g' % v` formats what that declines, and all without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernel
from .errors import (NumericsError, ParseError, ValidationError, parse_numbers,
                     text_lines)


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


# a row's bytes: at most 20 per int64 and 24 per "%.17g", each with the
# space or newline after it; blocks of rows fill a buffer of BLOCK_BYTES
INDEX_BYTES, VALUE_BYTES, BLOCK_BYTES = 21, 25, 1 << 16


def _declined(values) -> np.ndarray:
    """The values that format_rows leaves to Python, in row-major order:
    nonzero values outside 1e-16 < |x| < 1e17, and inf and NaN."""
    a = np.abs(values)
    return values[~(((a > 1e-16) & (a < 1e17)) | (a == 0))]


def write_rows(fh, index, values, trailing: int = 0) -> None:
    """Write one line `i_1 ... i_m v_1 ... v_w` per row of an int (R, m)
    index matrix and a float64 (R, w) value matrix to the binary file `fh`,
    indices as `%d` and values as `%.17g` (exact for float64); the last
    `trailing` index columns follow the values instead. The kernel
    formats them in blocks into one reused buffer; without it, Python
    does."""
    index = np.ascontiguousarray(index, dtype=np.int64)
    values = np.ascontiguousarray(values, dtype=np.float64)
    if index.ndim != 2 or values.ndim != 2 or len(index) != len(values):
        raise ValueError(f"index {index.shape} and values {values.shape} are "
                         "not two matrices with one row per line")
    (rows, m), width = index.shape, values.shape[1]
    fn, lead = kernel.function("format_rows"), m - trailing
    row_bytes = INDEX_BYTES * m + VALUE_BYTES * width + 1
    block = max(1, BLOCK_BYTES // row_bytes)
    if fn is None:
        line = " ".join(["%d"] * lead + ["%.17g"] * width + ["%d"] * trailing) + "\n"
        for start in range(0, rows, block):
            fh.write("".join(line % (*i[:lead], *v, *i[lead:]) for i, v in zip(
                index[start:start + block].tolist(),
                values[start:start + block].tolist())).encode())
        return
    out = np.empty(block * row_bytes, np.uint8)
    no_text, no_ends = np.zeros(0, np.uint8), np.zeros(0, np.int64)
    for start in range(0, rows, block):
        i, v = index[start:start + block], values[start:start + block]
        size = fn(len(v), m, trailing, i, width, v, no_text, no_ends, 0, out)
        if size < 0:   # the block holds values that Python formats
            text = [("%.17g" % x).encode() for x in _declined(v).tolist()]
            ends = np.cumsum([len(t) for t in text], dtype=np.int64)
            size = fn(len(v), m, trailing, i, width, v,
                      np.frombuffer(b"".join(text), np.uint8), ends, len(text), out)
            if size < 0:
                raise AssertionError("format_rows declined other values than _declined")
        fh.write(memoryview(out)[:size])


def save_matrix(path, array) -> None:
    """Write an array of shape (c_1, ..., c_m, w) as text: a header line of
    its shape, then one line `i_1 ... i_m v_1 ... v_w` per index tuple in
    row-major order, values as `%.17g` (exact for float64)."""
    array = np.asarray(array, dtype=np.float64)
    if array.ndim < 2:
        raise ValidationError("expected an array with index and value axes")
    *counts, width = array.shape
    index = np.indices(counts, dtype=np.int64).reshape(len(counts), -1).T
    with open(Path(path), "wb") as fh:
        fh.write(" ".join(map(str, array.shape)).encode() + b"\n")
        write_rows(fh, index, array.reshape(math.prod(counts), width))


def parse_header(line: str, path, names: str) -> list[int]:
    """The counts of a matrix file's header line, laid out as `names` (such
    as "N K"): nonnegative ints, or ParseError naming the file and line."""
    fields = line.split()
    if len(fields) != len(names.split()):
        raise ParseError(f"{path} line 1: bad header, expected {names!r}")
    counts = parse_numbers(fields, int, f"{path} line 1")
    if min(counts) < 0:
        raise ParseError(f"{path} line 1: negative count in {line.strip()!r}")
    return counts


def load_matrix(path, layout: str) -> np.ndarray:
    """Read a file written by save_matrix whose header is laid out as
    `layout`: "N K" (priors), "N K D" (embedding tables) or "N KD" (joint
    vectors). Every row must appear, a repeated row replaces the earlier
    one, and a malformed header, field or index raises ParseError naming
    the file and line. Rows are collected before the array is built, so
    memory follows the file's contents rather than its header."""
    path = Path(path)
    rows = {}
    lines = text_lines(path)
    shape = parse_header(next(lines, (1, ""))[1], path, layout)
    *counts, width = shape
    m = len(counts)
    for line_no, line in lines:
        tokens = line.split()
        if not tokens:
            continue
        where = f"{path} line {line_no}"
        if len(tokens) != m + width:
            raise ParseError(f"{where}: expected {m + width} fields")
        index = tuple(parse_numbers(tokens[:m], int, where))
        if not all(0 <= i < c for i, c in zip(index, counts)):
            raise ParseError(f"{where}: index {' '.join(tokens[:m])} out of range")
        rows[index] = parse_numbers(tokens[m:], float, where)
    missing = math.prod(counts) - len(rows)
    if missing:
        raise ParseError(f"{path}: missing {missing} of {math.prod(counts)} rows")
    try:
        out = np.zeros(shape)
    except ValueError:   # a zero count beside one beyond numpy's limits
        raise ParseError(f"{path} line 1: shape {tuple(shape)} is too large") from None
    if rows:
        out[tuple(np.array(list(rows)).T)] = list(rows.values())
    return out
