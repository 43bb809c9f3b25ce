import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from polyembed.errors import NumericsError, ParseError, ValidationError
from polyembed.tables import EmbeddingTables, init_tables, load_matrix, save_matrix

# the pipeline's three matrix files: priors, embedding tables, joint vectors
LAYOUTS = {"prior": "N K", "embedding": "N K D", "joint": "N KD"}
EXTREMES = (-0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308)
FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def matrices(layout):
    """float64 arrays with one axis per header field; N may be 0."""
    counts = [st.integers(0, 5)] + [st.integers(1, 4)] * (len(layout.split()) - 1)
    values = st.one_of(st.sampled_from(EXTREMES),
                       st.floats(allow_nan=False, allow_infinity=False))
    return st.tuples(*counts).flatmap(lambda shape: arrays(np.float64, shape,
                                                           elements=values))


def reference_text(array):
    """The text the former per-file writers produced, one value at a time."""
    lines = [" ".join(map(str, array.shape))]
    for index in np.ndindex(array.shape[:-1]):
        lines.append(" ".join([str(i) for i in index]
                              + [f"{v:.17g}" for v in array[index]]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(LAYOUTS))
@FUZZ
@given(data=st.data())
def test_matrix_round_trip(tmp_path, name, data):
    array = data.draw(matrices(LAYOUTS[name]))
    path = tmp_path / "m.txt"
    save_matrix(path, array)
    assert path.read_text(encoding="utf-8") == reference_text(array)
    loaded = load_matrix(path, LAYOUTS[name])
    assert loaded.shape == array.shape
    assert np.array_equal(loaded.view(np.int64), array.view(np.int64))  # bit-exact


@pytest.mark.parametrize("name", sorted(LAYOUTS))
@FUZZ
@given(data=st.data())
def test_corrupted_field_loads_or_raises_parse_error(tmp_path, name, data):
    path = tmp_path / "m.txt"
    save_matrix(path, data.draw(matrices(LAYOUTS[name])))
    lines = [line.split() for line in path.read_text(encoding="utf-8").splitlines()]
    row, col = data.draw(st.sampled_from(
        [(r, c) for r, tokens in enumerate(lines) for c in range(len(tokens))]))
    lines[row][col] = data.draw(st.one_of(st.text(), st.integers().map(str),
                                          st.floats().map(repr)))
    path.write_text("\n".join(map(" ".join, lines)) + "\n", encoding="utf-8")
    try:
        load_matrix(path, LAYOUTS[name])
    except ParseError:
        pass


def test_load_rejects_missing_rows(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("2 1 2\n0 0 1.0 2.0\n")
    with pytest.raises(ParseError, match="missing"):
        load_matrix(path, "N K D")


def test_load_rejects_empty_shape_beyond_numpy_limits(tmp_path):
    path = tmp_path / "joint.txt"
    path.write_text(f"0 {10**30}\n")    # no rows are due, but no array fits
    with pytest.raises(ParseError, match="line 1"):
        load_matrix(path, "N KD")


def test_load_rejects_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "prior.txt"
    path.write_bytes(b"1 2\n0 0.5 \xff\n")
    with pytest.raises(ParseError, match="UTF-8"):
        load_matrix(path, "N K")


def test_save_rejects_a_vector():
    with pytest.raises(ValidationError):
        save_matrix("unused.txt", np.zeros(3))


def test_asymmetric_context_count():
    t = init_tables(3, 2, 4, seed=0, num_context=7)
    assert t.u.shape[0] == 3 and t.num_context == 7


def test_check_finite():
    t = init_tables(2, 1, 2, seed=0)
    t.u[0, 0, 0] = np.inf
    with pytest.raises(NumericsError):
        t.check_finite()


def test_shape_validation():
    with pytest.raises(ValidationError):
        EmbeddingTables(u=np.zeros((2, 2, 3)), h=np.zeros((2, 2, 4)))
    with pytest.raises(ValidationError):
        init_tables(0, 1, 1)
