import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import oracles
from dipolemirror import DomainError, FormatError, gridio
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


def _decades():
    """1e{k}, its neighbours and a value on each side of it, for two-digit k."""
    tens = np.array([float(f"1e{k}") for k in range(-99, 100)])
    return np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
                           tens * (1.0 - 4e-11), tens * (1.0 + 6e-11)])


# eleven significant digits ending in 5, with exponents from -10 to 29
TIES = np.array([float(f"{10 * k + 5}e{x}") for k, x in
                 zip(np.random.default_rng(2).integers(10**9, 10**10, 40), range(-20, 20))])
TIES = np.concatenate([TIES, np.nextafter(TIES, 0.0), np.nextafter(TIES, np.inf)])

# each kind of row block: the values it always holds, and a draw of the rest
BLOCK_KINDS = {
    # unsigned, finite, with two-digit exponents: written as 16-byte records
    "records": (np.concatenate([[0.0, 9.9999999995, 9.99999999949, 9.9999999995e99],
                                _decades(), TIES]),
                lambda rng, n: np.exp(rng.uniform(-227.0, 229.0, n))),
    # unsigned and finite, with the extreme normal and subnormal values
    "extremes": (np.array([0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                           1.7976931348623157e308]),
                 lambda rng, n: np.exp(rng.uniform(-740.0, 709.0, n))),
    # signs, nan, inf, ties and three-digit exponents mixed in
    "mixed": (np.concatenate([np.array(SPECIAL), -_decades(), -TIES]),
              lambda rng, n: np.exp(rng.uniform(-740.0, 709.0, n)) * rng.choice([-1.0, 1.0], n)),
}


def block_grid(rng, kinds, cols, block_rows, last_rows):
    """Row blocks of the given kinds, the last one ``last_rows`` tall; a
    block too small for every value its kind holds gets some of them."""
    blocks = []
    for i, kind in enumerate(kinds):
        rows = last_rows if i == len(kinds) - 1 else block_rows
        held, draw = BLOCK_KINDS[kind]
        values = np.concatenate([held, draw(rng, max(0, rows * cols - held.size))])
        blocks.append(rng.permutation(values)[:rows * cols].reshape(rows, cols))
    return np.vstack(blocks)


@pytest.mark.parametrize("cols", [1000, 7, 1])
def test_write_grid_matches_per_value_text_in_each_block_kind(tmp_path, cols):
    rng = np.random.default_rng(cols)
    block_rows = gridio._BLOCK_VALUES // cols
    kinds = ["records", "mixed", "records", "extremes", "records"]
    grid = block_grid(rng, kinds, cols, block_rows, block_rows // 3 + 1)
    assert written_bytes(tmp_path, grid) == oracles.grid_text(grid, HEADER).encode("ascii")


def test_write_table_matches_per_value_text_in_each_block_kind(tmp_path):
    rng = np.random.default_rng(3)
    block_rows = gridio._BLOCK_VALUES // 3
    table = block_grid(rng, ["mixed", "records", "extremes", "records"], 3, block_rows, 11)
    path = tmp_path / "table.txt"
    write_table(path, "columns: a b c", *table.T)
    assert path.read_bytes() == oracles.table_text("columns: a b c", *table.T).encode("ascii")


@pytest.mark.parametrize("kind", sorted(BLOCK_KINDS))
def test_only_unsigned_finite_two_digit_blocks_are_written_as_records(kind):
    block = block_grid(np.random.default_rng(11), [kind], 64, 0, 64)
    text = gridio._format_block(block)
    expected = oracles.grid_text(block, HEADER).split("\n", 1)[1].encode("ascii")
    assert bytes(text) == expected
    # one 16-byte record per value, or text compacted into bytes
    assert isinstance(text, np.ndarray) == (kind == "records")


unsigned = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True).map(abs),
    neighbours,
)


@st.composite
def small_block_grids(draw, block_values):
    """Grids of up to four runs of rows, each run drawn from unsigned
    finite values or from any values and no taller than a writer block of
    ``block_values`` values."""
    cols = draw(st.integers(1, 5))
    block_rows = max(1, block_values // cols)
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        elements = draw(st.sampled_from([unsigned, values]))
        rows = draw(st.integers(1, block_rows))
        blocks.append(draw(arrays(np.float64, (rows, cols), elements=elements)))
    return np.vstack(blocks)


@settings(max_examples=150, deadline=None)
@given(grid=small_block_grids(block_values=12))
def test_write_grid_matches_per_value_text_over_small_blocks(tmp_path_factory, grid):
    tmp_path = tmp_path_factory.mktemp("grid")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gridio, "_BLOCK_VALUES", 12)
        assert written_bytes(tmp_path, grid) == oracles.grid_text(grid, HEADER).encode("ascii")


def test_read_grid_returns_the_written_text(tmp_path):
    rng = np.random.default_rng(5)
    for shape in ((40, 30), (0, 5), (3, 0), (0, 0)):
        grid = rng.normal(size=shape) * 10.0 ** rng.integers(-30, 30, shape)
        if grid.size:
            grid[3, 4], grid[5, 6], grid[7, 8] = math.nan, math.inf, -0.0
        path = tmp_path / "grid.txt"
        write_grid(path, grid, HEADER)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, header = read_grid(path)
        assert header == {**HEADER, "rows": shape[0], "cols": shape[1]}
        parsed = np.array([[float(f"{v:.9e}") for v in row] for row in grid]).reshape(shape)
        assert values.shape == shape
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
    with pytest.raises(FormatError, match=message) as err:
        read_grid(path)
    assert str(path) in str(err.value)
    path.write_text(body)
    with pytest.raises(FormatError, match="missing JSON header"):
        read_grid(path)


def test_read_grid_names_the_file_of_a_header_that_is_not_json(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# {bad\n1 2\n")
    with pytest.raises(FormatError, match="Expecting property name") as err:
        read_grid(path)
    assert str(err.value).startswith(f"{path}: ")
