"""The compiled-kernel loader, the sparse products against scipy, and the
text formatter against Python.

The kernel is built into a private cache, and without a compiler the
package falls back, with one warning, to numpy. Both paths of each sparse
product give scipy.sparse's bits, and every function that runs one gives
the same bits on both: random inputs, repeated cells, empty rows and
columns, and signed zeros. The formatter writes the bytes of Python's
`'%.17g' % v`, and every matrix writer writes the same file on both paths.
"""

import functools
import io
import os
import stat
import struct
import warnings

import numpy as np
import pytest
from conftest import make_two_cliques
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from polyembed import facets, kernel, polygcn, tables, walks
from polyembed import polydeepwalk as pdw
from polyembed.errors import ValidationError
from polyembed.polygcn import GcnConfig


def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


def on_both_paths(monkeypatch, run):
    """run() with the compiled kernel, then without it."""
    compiled = run()
    with monkeypatch.context() as patched:
        patched.setattr(kernel, "function", lambda name: None)
        fallback = run()
    return compiled, fallback


def assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert same_bits(getattr(got, name), getattr(want, name)), name


def random_matrix(rng, rows, cols, density=0.4):
    """A nonnegative dense matrix with an empty row and an empty column."""
    a = rng.random((rows, cols)) * (rng.random((rows, cols)) < density)
    a[rng.integers(rows)] = 0.0
    a[:, rng.integers(cols)] = 0.0
    return a


def repeated_cells(rng, a):
    """`a` as a Csr whose cells were split over one to three entries, in
    random order, and summed again by scipy.sparse: values an ulp or two
    off a's."""
    rows, cols = np.nonzero(a)
    copies = rng.integers(1, 4, len(rows))
    order = rng.permutation(copies.sum())
    values = np.repeat(a[rows, cols] / copies, copies)
    m = sparse.coo_array((values[order], (np.repeat(rows, copies)[order],
                                          np.repeat(cols, copies)[order])),
                         shape=a.shape).tocsr()
    m.sum_duplicates()
    return kernel.csr(kernel.Csr(m.indptr, m.indices, m.data, m.shape))


def with_signed_zeros(rng, x):
    x = x.copy()
    x[rng.random(x.shape) < 0.2] = -0.0
    x[rng.random(x.shape) < 0.1] = 0.0
    return x


@pytest.mark.parametrize("seed", range(20))
def test_products_equal_scipy(seed, compiled_kernel, monkeypatch):
    rng = np.random.default_rng(seed)
    a = kernel.csr(random_matrix(rng, 13, 9))
    signs = rng.choice([-1, 1], len(a.data))
    a = a._replace(data=with_signed_zeros(rng, a.data * signs))
    d = int(rng.integers(1, 6))
    x, x_t = (with_signed_zeros(rng, rng.normal(size=(n, d))) for n in (9, 13))
    count = int(rng.integers(0, 40))
    rows, cols = rng.integers(0, 13, count), rng.integers(0, 9, count)
    half = count - count // 2     # the second half repeats the first's cells
    rows[count // 2:], cols[count // 2:] = rows[:half], cols[:half]
    values = with_signed_zeros(rng, rng.normal(size=count))

    def run():
        return (a @ x, a.T @ x_t, kernel.coo_matmat(rows, cols, values, x, 13),
                kernel.coo_matmat(cols, rows, values, x_t, 9))

    ref = sparse.csr_array((a.data, a.indices, a.indptr), shape=a.shape)
    want = (ref @ x, ref.T.tocsr() @ x_t,
            sparse.coo_array((values, (rows, cols)), shape=(13, 9)) @ x,
            sparse.coo_array((values, (cols, rows)), shape=(9, 13)) @ x_t)
    for got in on_both_paths(monkeypatch, run):
        for product, reference in zip(got, want):
            assert same_bits(product, reference)


def test_products_check_their_operands(compiled_kernel, monkeypatch):
    a = kernel.csr(np.eye(3))

    def run():
        with pytest.raises(ValueError, match="rows"):
            a @ np.ones((2, 2))
        with pytest.raises(IndexError):
            kernel.coo_matmat([0, 3], [0, 0], [1.0, 1.0], np.ones((3, 2)), 3)
        with pytest.raises(IndexError):
            kernel.coo_matmat([0], [-1], [1.0], np.ones((3, 2)), 3)

    on_both_paths(monkeypatch, run)


@pytest.mark.parametrize("broken", [
    dict(indptr=[0, 2, 1, 3]), dict(indptr=[0, 1, 2]), dict(indptr=[1, 1, 2, 3]),
    dict(indices=[0, 3, 1]), dict(indices=[0, -1, 1]), dict(data=[1.0, 1.0]),
    dict(indptr=[0, 2, 2, 3], indices=[1, 0, 2]),     # columns descend
    dict(indptr=[0, 2, 2, 3], indices=[1, 1, 2])])    # a cell stored twice
def test_malformed_csr_input_is_rejected(broken):
    good = kernel.Csr(np.array([0, 1, 2, 3]), np.array([0, 1, 2]), np.ones(3), (3, 3))
    assert kernel.csr(good).shape == (3, 3)
    # a column may fall where a new row starts, past an empty row too
    assert kernel.csr(good._replace(indptr=np.array([0, 2, 2, 3]),
                                    indices=np.array([0, 2, 0]))).shape == (3, 3)
    bad = good._replace(**{key: np.array(value) for key, value in broken.items()})
    with pytest.raises(ValidationError, match="malformed"):
        facets.symmetric_nmf(bad, 2)
    with pytest.raises(ValidationError, match="malformed"):
        polygcn.decompose_adjacency(bad, np.ones((3, 1)), np.ones((3, 1)))
    with pytest.raises(ValidationError, match="malformed"):
        polygcn._facet_ops(bad, GcnConfig())


def test_a_scipy_matrix_is_not_an_input():
    for a in (sparse.csr_array(np.eye(3)), np.ones(3)):
        with pytest.raises(ValidationError, match="dense matrix or a Csr"):
            facets.symmetric_nmf(a, 2)


@pytest.mark.parametrize("seed", range(6))
def test_nmf_equal_on_both_paths(seed, compiled_kernel, monkeypatch):
    rng = np.random.default_rng(seed)
    sym = random_matrix(rng, 12, 12)
    sym = sym + sym.T
    asym = random_matrix(rng, 11, 8)

    def run():
        return [facets.symmetric_nmf(sym, 3, max_iters=40, seed=seed),
                facets.symmetric_nmf(repeated_cells(rng, sym), 2, max_iters=40),
                facets.asymmetric_nmf(asym, 3, max_iters=40, seed=seed),
                facets.asymmetric_nmf(repeated_cells(rng, asym), 2, max_iters=40)]

    state = rng.bit_generator.state
    compiled = run()
    rng.bit_generator.state = state   # the same repeated cells again
    with monkeypatch.context() as patched:
        patched.setattr(kernel, "function", lambda name: None)
        fallback = run()
    for got, want in zip(compiled, fallback):
        assert got.iterations == want.iterations
        assert same_bits(got.trace, want.trace)
        for f_got, f_want in zip(got.factors, want.factors):
            assert same_bits(f_got, f_want)


@pytest.mark.parametrize("neighbor_mode", ["bipartite", "co"])
@pytest.mark.parametrize("seed", range(4))
def test_gcn_equal_on_both_paths(seed, neighbor_mode, compiled_kernel, monkeypatch):
    rng = np.random.default_rng(seed)
    a = repeated_cells(rng, random_matrix(rng, 9, 7, density=0.5))
    p, q = rng.random((9, 2)) + 0.05, rng.random((7, 2))
    q[0] = 0.0      # its cells split uniformly
    config = GcnConfig(dim=3, depth=2, neighbor_mode=neighbor_mode,
                       negatives=2, seed=seed, threshold=0.05)
    fa = polygcn.decompose_adjacency(a, p, q)
    model = polygcn.init_gcn_model(9, 7, fa, config)
    facet = model.facets[0]
    for arr in facet.params().values():
        arr *= 4.0
    facet.x_a[rng.random(facet.x_a.shape) < 0.2] = -0.0
    rows, cols, edge_w = polygcn._cells(fa.mats[0])
    # edges repeated and out of order, a negative equal to its positive
    order = rng.integers(0, len(rows), 2 * len(rows))
    edge_idx = np.stack([rows, cols], axis=1)[order]
    neg_idx = rng.integers(0, 7, (len(order), 2))
    neg_idx[0] = edge_idx[0, 1]

    def run():
        fa_again = polygcn.decompose_adjacency(a, p, q)
        ops = [polygcn._facet_ops(mat, config) for mat in fa_again.mats]
        return fa_again, ops, polygcn.gcn_loss_and_grads(
            facet, ops[0], config, edge_idx, edge_w[order], neg_idx)

    compiled, fallback = on_both_paths(monkeypatch, run)
    for got, want in zip(compiled[0].mats, fallback[0].mats):
        assert_same_csr(got, want)
    for got, want in zip(compiled[1], fallback[1]):
        assert_same_csr(got.agg, want.agg)
        assert same_bits(got.inv, want.inv)
    (loss, grads), (ref_loss, ref_grads) = compiled[2], fallback[2]
    assert loss == ref_loss
    for name, ref in ref_grads.items():
        assert same_bits(grads[name], ref), name


def test_without_a_compiler_training_falls_back_to_numpy(tmp_path, monkeypatch):
    monkeypatch.setattr(kernel, "_library", functools.cache(kernel._library.__wrapped__))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setenv("PATH", "")
    g = make_two_cliques(clique=4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        prior = facets.FacetPrior.from_factor(
            facets.symmetric_nmf(g.adj, 2, seed=0).factors[0])
        corpus = walks.generate_walks(
            g, walks.WalkConfig(walks_per_node=2, walk_length=5, seed=1))
        result = pdw.train(g, prior, corpus, pdw.TrainConfig(
            dim=3, negatives=2, facet_rate=2, epochs=1, window=2, seed=4))
    assert [w.category for w in caught] == [RuntimeWarning]   # once
    assert "using the numpy engine" in str(caught[0].message)
    assert result.engine == "numpy"
    assert np.isfinite(result.tables.u).all()


def test_kernel_is_cached_in_a_private_directory(tmp_path, monkeypatch,
                                                 compiled_kernel):
    monkeypatch.setattr(kernel, "_library", functools.cache(kernel._library.__wrapped__))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert kernel.function("csr_matmat") is not None
    cache = tmp_path / "polyembed"
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700
    assert [p.name[:7] for p in cache.iterdir()] == ["kernel-"]
    os.chmod(cache, 0o777)
    with pytest.raises(OSError, match="not private"):
        kernel._build()


def formatted(values) -> bytes:
    """The lines write_rows gives to a column of values."""
    values = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    fh = io.BytesIO()
    tables.write_rows(fh, np.zeros((len(values), 0), np.int64), values)
    return fh.getvalue()


def python_text(values) -> bytes:
    return "".join("%.17g\n" % v for v in np.ravel(values).tolist()).encode()


def from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# raw 64-bit patterns, and patterns whose exponent puts them in the range
# the kernel formats itself (2^-54 <= |x| < 2^57)
DOUBLES = st.one_of(
    st.integers(0, 2**64 - 1),
    st.tuples(st.integers(0, 1), st.integers(969, 1079), st.integers(0, 2**52 - 1))
    .map(lambda f: f[0] << 63 | f[1] << 52 | f[2])).map(from_bits)
# the values whose exponent a rounded-first quotient gets wrong, the edges
# of the range, an exact tie, one ulp either side of powers of ten, and
# values Python formats
EXAMPLES = [1e-16, 1e-12, 1e-7, 1e-6, 1e-5, 9.999999999999998e16, 1e17, 2.0**-25,
            *(np.nextafter(p, t) for p in (1e-5, 1e-16, 1e16) for t in (0, np.inf)),
            0.0, -0.0, 5e-324, 1.7976931348623157e308, np.inf, -np.inf, np.nan]


def with_examples(test):
    for x in EXAMPLES:
        test = example(x=float(x))(test)
    return test


@with_examples
@settings(max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(x=DOUBLES)
def test_formatter_writes_python_bytes(x, compiled_kernel):
    assert formatted([x]) == python_text([x])


def test_formatter_on_powers_of_two_and_ten(compiled_kernel):
    """Every power of two and of ten in range, one ulp either side, and
    their negatives: the exact ties (2^-25 and others) and the values
    whose exponent %e carries or which sit just below a power of ten."""
    powers = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)),
                             [float(f"1e{k}") for k in range(-30, 30)]])
    with np.errstate(over="ignore"):
        values = np.concatenate([powers, np.nextafter(powers, np.inf),
                                 np.nextafter(powers, -np.inf)])
    values = np.concatenate([values, -values])
    assert formatted(values) == python_text(values)


def test_formatter_on_table_like_values(compiled_kernel):
    rng = np.random.default_rng(0)
    values = np.concatenate([
        (rng.random(20_000) - 0.5) / 16,
        rng.normal(size=20_000) * 10.0 ** rng.integers(-18, 19, 20_000),
        rng.integers(0, 2**64 - 1, 20_000, dtype=np.uint64,
                     endpoint=True).view(np.float64)])
    assert formatted(values) == python_text(values)


def test_write_rows_needs_one_index_row_per_value_row():
    with pytest.raises(ValueError, match="one row per line"):
        tables.write_rows(io.BytesIO(), np.zeros((3, 1)), np.zeros((2, 4)))


def test_matrix_writers_write_the_same_bytes_on_both_paths(tmp_path, compiled_kernel,
                                                           monkeypatch):
    rng = np.random.default_rng(3)
    declined = rng.random((5, 3, 4))
    declined.flat[::3] = [0.0, -0.0, 1e-300, 5e-324, 1e17, -1e300, np.inf, np.nan,
                          1e-16, 1e-17, -2e20, 3e-200, 7e16, -0.0, 1e-15, 2e-16,
                          9e-17, 1e200, -3.5e-300, 4e18]
    arrays = {"prior": rng.random((7, 3)), "embedding": rng.random((6, 4, 5)) - 0.5,
              "joint": rng.normal(size=(5, 12)), "declined": declined}
    fa = polygcn.decompose_adjacency(random_matrix(rng, 9, 7), rng.random((9, 2)),
                                     rng.random((7, 2)))

    def run():
        for name, array in arrays.items():
            tables.save_matrix(tmp_path / name, array)
        polygcn.save_facet_adjacency(tmp_path / "fadj", fa)
        return {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    compiled, fallback = on_both_paths(monkeypatch, run)
    assert compiled == fallback
    assert len(compiled) == 5
    lines = compiled["fadj"].decode().splitlines()
    assert len(lines) == sum(len(m.data) for m in fa.mats)
    assert all(len(line.split()) == 4 for line in lines)
