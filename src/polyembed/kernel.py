"""The compiled kernels, and the sparse matrix type whose products they run.

`kernel.c` holds the SGD engine's chunk (`sgd_chunk`: the steps of the
numpy `sgd.decode` bit for bit, then the step loop, in one call), two
sparse products (`csr_matmat`, `coo_matmat`), the text-matrix formatter
(`format_rows`, exact `%.17g` in integer arithmetic) and the
link-evaluation candidate draw (`draw_candidates`, numpy's
`SeedSequence(seed).spawn` and each child's `default_rng(child).choice`
replayed bit for bit). It is built with the system C compiler on first
use and cached as `$XDG_CACHE_HOME/polyembed/kernel-<hash>.so`
(`~/.cache/polyembed/` when XDG_CACHE_HOME is unset). `function(name)` returns one of its functions,
or None, with one warning per process, when it cannot be built or loaded.
The numpy or Python code that each caller runs then is the reference
(the numpy decode and update loop for the SGD engine, which also run
under a per-step hook; Python's `'%.17g' % v` for the formatter; numpy's
own `spawn` and `choice` for the draw), and tests hold the two equal.

Libraries of other sources stay in the cache: checkouts share it, and
removing one's library would make its next run compile again, or unlink
it between another process's check and load, which drops that process
to the numpy code with only a warning.

`Csr` is the package's sparse matrix: the graphs' adjacency, the NMF
input and PolyGCN's facet matrices and aggregation operators. Its `@`
with a dense matrix runs `csr_matmat`, or a numpy scatter when there is
no kernel. Both add each row's terms in stored order, as scipy.sparse's
products do, so all three give the same bits.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import stat
import tempfile
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ValidationError

# no -march=native or -ffast-math, and no FMA contraction: results must not
# depend on the host CPU. -ftree-vectorize widens the products' inner loops,
# which keeps each element's sum order.
CFLAGS = ("-O2", "-ftree-vectorize", "-fPIC", "-shared", "-ffp-contract=off")


def _cache_dir() -> Path:
    """The kernel cache directory, created with mode 0o700. OSError unless
    it belongs to this user and no one else may write to it."""
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    path = Path(root) / "polyembed"
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = path.stat()
    if info.st_uid != os.getuid() or info.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        raise OSError(f"{path} is not private to this user")
    return path


def _build() -> Path:
    """The compiled library, built into the cache unless it is there. The
    name hashes the source, the flags and the machine type; the library
    is written under a temporary name and moved into place."""
    source = Path(__file__).with_name("kernel.c").read_bytes()
    key = hashlib.sha256(b"\0".join(
        [source, " ".join(CFLAGS).encode(), platform.machine().encode()]))
    cache = _cache_dir()
    lib = cache / f"kernel-{key.hexdigest()[:16]}.so"
    if not lib.exists():
        import subprocess   # here: a run that finds the library compiles nothing
        fd, tmp = tempfile.mkstemp(dir=cache, suffix=".so")
        os.close(fd)
        try:
            # the compiler reads the hashed bytes, not the file again
            cc = subprocess.run(["cc", *CFLAGS, "-o", tmp, "-x", "c", "-", "-lm"],
                                input=source, capture_output=True)
            if cc.returncode:   # an OSError, as a missing cc, falls back to numpy
                raise OSError(f"cc exited with status {cc.returncode}")
            os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return lib


def _array(dtype, ndim, writeable=False):
    """The argument type of a C-contiguous `ndim`-D `dtype` array, passed
    as its address."""
    dtype = np.dtype(dtype)

    class Array:
        # np.ctypeslib.ndpointer makes the same checks, but passes
        # `ndarray.ctypes`, whose conversion leaves a reference cycle per
        # argument, and costs about 4 us per argument, 20 us a product
        @classmethod
        def from_param(cls, obj):
            if not (isinstance(obj, np.ndarray) and obj.dtype == dtype
                    and obj.ndim == ndim and obj.flags.c_contiguous
                    and (obj.flags.writeable or not writeable)):
                raise TypeError(f"expected a C-contiguous {ndim}-d {dtype} "
                                f"array{' that is writeable' * writeable}")
            return ctypes.c_void_p(obj.ctypes.data)

    return Array


def _signatures() -> dict:
    """(restype, argtypes) of each function of kernel.c."""
    i64, f64 = ctypes.c_int64, ctypes.c_double
    rows, values = _array(np.int64, 1), _array(np.float64, 1)
    table = _array(np.float64, 2, writeable=True)
    out = _array(np.float64, 1, writeable=True)
    steps = _array(np.int64, 1, writeable=True)
    product = [i64, i64, rows, rows, values, _array(np.float64, 2), table]
    return {"sgd_chunk": (i64, [i64] * 6 + [
                values, i64, rows, _array(np.int64, 2), _array(np.float64, 2), i64,
                _array(np.float64, 2), i64, rows, i64, values, f64, i64,
                _array(np.float64, 2), i64, i64, steps, steps,
                _array(np.int64, 2, writeable=True), table, i64, table, i64,
                i64, values, out, out, f64]),
            "csr_matmat": (None, product),
            "coo_matmat": (None, product),
            "format_rows": (i64, [i64, i64, i64, _array(np.int64, 2), i64,
                                  _array(np.float64, 2), _array(np.uint8, 1),
                                  rows, i64, _array(np.uint8, 1, writeable=True)]),
            "draw_candidates": (i64, [i64, i64, i64, i64, rows, rows, rows, rows,
                                      _array(np.uint32, 1), i64,
                                      _array(np.int64, 2, writeable=True),
                                      _array(np.int64, 1, writeable=True)])}


@functools.cache
def _library():
    """The loaded library with every function's signature set, or None,
    with a warning, when it cannot be built or loaded."""
    try:
        lib = ctypes.CDLL(str(_build()))
    except OSError as exc:
        warnings.warn(f"compiled kernel unavailable, using the numpy engine: "
                      f"{exc}", RuntimeWarning, stacklevel=3)
        return None
    for name, (restype, argtypes) in _signatures().items():
        fn = getattr(lib, name)   # ctypes keeps this object as the attribute
        fn.restype, fn.argtypes = restype, argtypes
    return lib


def function(name: str):
    """The compiled function `name` of kernel.c, or None when the library
    cannot be built or loaded."""
    lib = _library()
    return None if lib is None else getattr(lib, name)


def _operand(x, rows: int) -> np.ndarray:
    """`x` as the C-contiguous float64 (rows, D) right operand of a product."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != rows:
        raise ValueError(f"operand of shape {x.shape} does not have {rows} rows")
    return x


def _scatter(rows, cols, data, x, num_rows: int) -> np.ndarray:
    """The product without the kernel. Each output column is a bincount,
    which adds data[e] * x[cols[e], d] into row rows[e] entry by entry in
    the given order, one multiply and one add, as the kernel does."""
    y = np.empty((num_rows, x.shape[1]))
    for d in range(x.shape[1]):
        y[:, d] = np.bincount(rows, weights=data * x[cols, d], minlength=num_rows)
    return y


class Csr(NamedTuple):
    """A sparse matrix in compressed sparse row form: row i's entries are
    columns indices[indptr[i]:indptr[i + 1]] with values data[...]. The
    package builds them canonical: columns ascend within a row and no
    cell is stored twice."""

    indptr: np.ndarray       # (rows + 1,) int64
    indices: np.ndarray      # (stored,) int64
    data: np.ndarray         # (stored,) float64
    shape: tuple[int, int]

    @classmethod
    def from_rows(cls, rows, cols, data, shape) -> Csr:
        """The matrix of the entries (rows[e], cols[e], data[e]), given in
        row order and kept in that order."""
        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
        return cls(indptr, np.ascontiguousarray(cols, dtype=np.int64),
                   np.ascontiguousarray(data, dtype=np.float64),
                   (int(shape[0]), int(shape[1])))

    def rows(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    @property
    def T(self) -> Csr:
        """The transpose. A stable sort of the entries by column keeps
        each column's rows in stored order, so it is canonical too."""
        order = np.argsort(self.indices, kind="stable")
        return Csr.from_rows(self.indices[order], self.rows()[order],
                             self.data[order], self.shape[::-1])

    def __matmul__(self, x) -> np.ndarray:
        """The dense (rows, D) product with a dense (columns, D) matrix."""
        x = _operand(x, self.shape[1])
        fn = function("csr_matmat")
        if fn is None:
            return _scatter(self.rows(), self.indices, self.data, x, self.shape[0])
        y = np.zeros((self.shape[0], x.shape[1]))
        fn(self.shape[0], x.shape[1], self.indptr, self.indices, self.data, x, y)
        return y


def csr(a) -> Csr:
    """`a` as a float64 Csr: a Csr as it is, once checked to be canonical,
    or the nonzero cells of a dense matrix in row order."""
    if isinstance(a, Csr):
        indptr, indices, data = (np.ascontiguousarray(x, dtype=t) for x, t in
                                 zip(a[:3], (np.int64, np.int64, np.float64)))
        rows, cols = a.shape
        if not (len(indptr) == rows + 1 and indptr[0] == 0
                and indptr[-1] == len(indices) == len(data)
                and (np.diff(indptr) >= 0).all()
                and (indices >= 0).all() and (indices < cols).all()):
            raise ValidationError("malformed CSR matrix")
        a = Csr(indptr, indices, data, (rows, cols))
        # each entry's column ascends from the one before, or its row does
        if not ((np.diff(indices) > 0) | (np.diff(a.rows()) > 0)).all():
            raise ValidationError("malformed CSR matrix: a row's columns do "
                                  "not strictly ascend")
        return a
    try:
        a = np.asarray(a, dtype=np.float64)
    except (TypeError, ValueError):
        a = np.empty(0)     # not numbers, or a scipy.sparse matrix
    if a.ndim != 2:
        raise ValidationError("A must be a dense matrix or a Csr")
    rows, cols = np.nonzero(a)
    return Csr.from_rows(rows, cols, a[rows, cols], a.shape)


def coo_matmat(rows, cols, data, x, num_rows: int) -> np.ndarray:
    """The dense (num_rows, D) product of the sparse matrix with entries
    (rows[e], cols[e], data[e]) and a dense matrix x: entry by entry in the
    given order, data[e] * x[cols[e]] is added into row rows[e], so
    repeated cells add up in order, as scipy's coo_array product does."""
    x = _operand(x, len(x))
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    cols = np.ascontiguousarray(cols, dtype=np.int64)
    data = np.ascontiguousarray(data, dtype=np.float64)
    if not len(rows) == len(cols) == len(data):
        raise ValueError("entries disagree on their count")
    if len(rows) and (rows.min() < 0 or rows.max() >= num_rows
                      or cols.min() < 0 or cols.max() >= len(x)):
        raise IndexError("sparse entry outside the matrix")
    fn = function("coo_matmat")
    if fn is None:
        return _scatter(rows, cols, data, x, num_rows)
    y = np.zeros((num_rows, x.shape[1]))
    fn(len(rows), x.shape[1], rows, cols, data, x, y)
    return y
