import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import oracles
from dipolemirror import DomainError
from dipolemirror.gridio import read_grid, write_grid, write_table

HEADER = {"kind": "test", "wavelength_nm": 633.0}

SPECIAL = (
    math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0,
    5e-324, -5e-324, 2.2250738585072014e-308, 1e-308,
    1e-100, -1e-100, 1e-99, 1e99, 9.9999999995e99, 1e100, -1e100, 1.7976931348623157e308,
    9.9999999995, 9.99999999949, 9.99999999951, 1.0, 10.0, 0.1,
)

# eleven significant digits ending in 5: half-way between two 10-digit
# texts, exactly so where the decimal is representable, else within an ulp
ties = st.builds(
    lambda digits, exponent: float(f"{digits}e{exponent}"),
    st.integers(10**9, 10**10 - 1).map(lambda k: 10 * k + 5),
    st.integers(-20, 20),
)
neighbours = ties.flatmap(lambda t: st.sampled_from(
    [t, float(np.nextafter(t, -math.inf)), float(np.nextafter(t, math.inf))]))
values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(SPECIAL),
    neighbours,
    neighbours.map(lambda v: -v),
)


def written_bytes(tmp_path, grid):
    path = tmp_path / "grid.txt"
    write_grid(path, grid, HEADER)
    return path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(grid=arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=8),
                   elements=values))
def test_write_grid_matches_per_value_text(tmp_path_factory, grid):
    tmp_path = tmp_path_factory.mktemp("grid")
    assert written_bytes(tmp_path, grid) == oracles.grid_text(grid, HEADER).encode("ascii")


@settings(max_examples=200, deadline=None)
@given(table=arrays(np.float64, st.tuples(st.integers(0, 8), st.integers(1, 3)),
                    elements=values))
def test_write_table_matches_per_value_text(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("table") / "table.txt"
    write_table(path, "columns: a b c", *table.T)
    assert path.read_bytes() == oracles.table_text("columns: a b c", *table.T).encode("ascii")


def test_write_grid_spans_row_blocks(tmp_path):
    # 150 rows of 1000 values: two full row blocks and a partial one
    rng = np.random.default_rng(17)
    grid = np.exp(rng.uniform(-230.0, 230.0, (150, 1000))) * rng.choice([-1.0, 1.0], (150, 1000))
    specials = rng.integers(0, grid.size, 600)
    grid.flat[specials] = rng.choice(np.array(SPECIAL), specials.size)
    assert written_bytes(tmp_path, grid) == oracles.grid_text(grid, HEADER).encode("ascii")


def test_read_grid_returns_the_written_text(tmp_path):
    rng = np.random.default_rng(5)
    grid = rng.normal(size=(40, 30)) * 10.0 ** rng.integers(-30, 30, (40, 30))
    grid[3, 4], grid[5, 6], grid[7, 8] = math.nan, math.inf, -0.0
    path = tmp_path / "grid.txt"
    write_grid(path, grid, HEADER)
    values, header = read_grid(path)
    assert header == {**HEADER, "rows": 40, "cols": 30}
    parsed = np.array([[float(f"{v:.9e}") for v in row] for row in grid])
    assert np.array_equal(values, parsed, equal_nan=True)
    assert np.array_equal(np.signbit(values), np.signbit(parsed))


@pytest.mark.parametrize("body, message", [
    ("1 2 3\n4 5\n", "number of columns"),
    ("1 2 3\n4 5 6\n7 8 9\n", "disagrees with header"),
    ("1 2 3\n4 x 6\n", "could not convert"),
])
def test_read_grid_rejects_malformed_grids(tmp_path, body, message):
    path = tmp_path / "bad.txt"
    path.write_text('# {"cols": 3, "rows": 2}\n' + body)
    with pytest.raises(DomainError, match=message) as err:
        read_grid(path)
    assert str(path) in str(err.value)
    path.write_text(body)
    with pytest.raises(DomainError, match="missing JSON header"):
        read_grid(path)
