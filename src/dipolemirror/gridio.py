"""Plain-text data files: grids with a JSON header line, and column tables.

One grid per file: a first line '# {...}' carrying metadata (rows, cols,
and whatever the owning type needs), then one whitespace-separated row of
values per line. Invalid pixels are written as nan.

A column table (sampled modes, pulse shapes, Zernike expansions, optical
constants, frame manifests) has one whitespace-separated row per line
and '# key: value' comment lines for its metadata; ``read_table`` reads
them all.

Each format has one reader and one writer: ``GridWriter`` and
``read_grid`` for grids, ``write_table`` and ``read_table`` for column
tables of floats. A ``GridWriter`` takes a grid a block of rows at a
time, so its owner never needs to hold the whole grid. Tables with other
columns, Zernike expansions (integer indices) and frame manifests (file
names), are written by their owners' save functions. Both writers write
every value as Python's ``f"{v:.9e}"`` would, byte for byte, through one
row writer. It builds that text a block of rows at a time with array
operations. Each value
gets a 16-byte record of four ``uint32`` words, gathered from lookup
tables by its digits and exponent:

    [d0 '.' d1 d2] [d3 d4 d5 d6] [d7 d8 d9 'e'] [exponent sign, tens, ones, separator]

The separator is ' ', or '\\n' after a row's last value. A block whose
values are all finite, unsigned and written with two-digit exponents is
written as its records stand. Any other block gives each record a
prefix word, '\\0\\0\\0-' or zero, and has its zero bytes dropped: nan
and inf take a blank entry of the digit tables and the words 'nan ' and
'inf ' of the exponent table, and values that Python formats (ties,
three-digit exponents, an estimated exponent off by one) fill their slot
from the right.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .errors import DomainError, FormatError

__all__ = ["GridWriter", "read_grid", "write_table", "read_table"]

_BLOCK_VALUES = 1 << 16
# scaled = |v| * 10**(9 - e) for the estimated exponents e in [-100, 100]
_POW10 = np.array([float(f"1e{9 - e}") for e in range(-100, 101)])  # [e + 100]
# |scaled - true scaled| stays below 3e-6 (two roundings of a value < 1e10);
# values whose fraction lies closer than this to .5 take the exact path
_TIE_MARGIN = 1e-5


def _words(text: str) -> np.ndarray:
    """ASCII text as uint32 words of four bytes each."""
    return np.frombuffer(text.encode("ascii"), np.uint32)


def _digit_words(template: bytes) -> np.ndarray:
    """The 4-byte template with its '#'s set to the digits of 0, 1, 2, ..., then a blank word."""
    places = template.count(b"#")
    digits = iter(np.indices((10,) * places, dtype=np.uint8).reshape(places, -1) + ord("0"))
    columns = [next(digits) if c == ord("#") else np.full(10 ** places, c, np.uint8)
               for c in template]
    return np.append(np.stack(columns, axis=1).view(np.uint32), np.uint32(0))


# the four words of a record; index -1 of the digit tables is blank, and
# the exponent table starts with nan's word (e = -100) and ends with inf's (e = 100)
_HEAD = _digit_words(b"#.##")  # [q // 10**7]
_DIGITS4 = _digit_words(b"####")  # [q // 1000 % 10**4]
_TAIL = _digit_words(b"###e")  # [q % 1000]
_EXPONENT = np.concatenate([_words("nan "), _digit_words(b"-## ")[99:0:-1],
                            _digit_words(b"+## ")[:100], _words("inf ")])  # [e + 100]
_MINUS = _words("\0\0\0-")[0]


def _format_block(values: np.ndarray):
    """'.9e' text of a 2-d block, values separated by ' ' and rows ended by '\\n'.

    Returns the text as bytes, or as the array of its 16-byte records.
    """
    rows, cols = values.shape
    v = values.ravel()
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
        # zero, nan and inf take the exponents 0, -100 and 100
        np.nan_to_num(e, copy=False, nan=-100.0, posinf=100.0, neginf=0.0)
        np.clip(e, -100.0, 100.0, out=e)
        k = (e + 100.0).astype(np.intp)
        scaled = a * _POW10[k]
        q = np.rint(scaled)
        # Python formats the rest: estimated exponent off by one, a tie,
        # or a three-digit exponent
        array = (((scaled >= 1e9) | (scaled == 0.0)) & (q < 1e10)
                 & (np.abs(scaled - q) < 0.5 - _TIE_MARGIN) & (np.abs(e) < 100.0))
    other = np.flatnonzero(~array)
    q[other] = 0.0
    # an integer q < 1e10 splits exactly into q // 10**7, then 4 and 3 more digits
    hi = (q * 1e-7).astype(np.intp)
    rest = q - 1e7 * hi
    mid = (rest * 1e-3).astype(np.intp)
    lo = (rest - 1e3 * mid).astype(np.intp)
    hi[other] = mid[other] = lo[other] = -1
    exact = other[np.isfinite(v[other])]
    texts = [format(x, ".9e").encode("ascii") for x in v[exact].tolist()]
    sign = np.signbit(v)
    sign[other[np.isnan(v[other])]] = False  # Python writes nan unsigned
    # unsigned finite values whose texts fit in 15 bytes are written as
    # their records stand; any other block has its zero bytes dropped
    compact = exact.size < other.size or sign.any() or any(len(t) > 15 for t in texts)
    words = np.empty((v.size, 5 if compact else 4), dtype=np.uint32)
    if compact:
        words[:, 0] = sign * _MINUS
    words[:, -4] = _HEAD[hi]
    words[:, -3] = _DIGITS4[mid]
    words[:, -2] = _TAIL[lo]
    words[:, -1] = _EXPONENT[k]
    text = words.view(np.uint8).reshape(v.size, -1)
    for i, exact_text in zip(exact, texts):
        text[i, :-1] = 0
        text[i, -1 - len(exact_text):-1] = np.frombuffer(exact_text, np.uint8)
    text.reshape(rows, cols, -1)[:, -1, -1] = ord("\n")
    return words.tobytes().translate(None, b"\0") if compact else words


def _write_rows(fh, values: np.ndarray):
    """Write the rows of a 2-d array, a block of rows at a time."""
    rows, cols = values.shape
    if cols == 0:
        fh.write(b"\n" * rows)
        return
    block_rows = max(1, _BLOCK_VALUES // cols)
    for start in range(0, rows, block_rows):
        fh.write(_format_block(values[start:start + block_rows]))


class GridWriter:
    """A grid file of a given shape, written a block of rows at a time.

    Opening it writes the header line, with the grid's rows and cols;
    ``write`` appends a (k, cols) block of rows. Leaving the ``with``
    block closes the file, and refuses a grid left short of its rows.
    """

    def __init__(self, path, shape: tuple, header: dict):
        meta = dict(header)
        meta["rows"], meta["cols"] = (int(k) for k in shape)
        self._rows_left, self._cols = meta["rows"], meta["cols"]
        self._fh = open(path, "wb")
        self._fh.write(("# " + json.dumps(meta, sort_keys=True) + "\n").encode("ascii"))

    def write(self, rows: np.ndarray):
        values = np.asarray(rows, dtype=float)
        if values.ndim != 2 or values.shape[1] != self._cols:
            raise DomainError(f"grid rows must form a (k, {self._cols}) block")
        if values.shape[0] > self._rows_left:
            raise DomainError("more rows than the grid's header declares")
        _write_rows(self._fh, values)
        self._rows_left -= values.shape[0]

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self._fh.close()
        if exc_type is None and self._rows_left:
            raise DomainError(f"grid closed {self._rows_left} rows short of its header")


def write_table(path, comment: str, *columns):
    """Write equal-length columns side by side under the line '# comment'."""
    with open(path, "wb") as fh:
        fh.write(("# " + comment + "\n").encode("ascii"))
        _write_rows(fh, np.column_stack(columns).astype(float))


def read_grid(path):
    """Return (values, header) from a grid file written by a GridWriter."""
    with open(path) as fh:
        first = fh.readline()
        if not first.startswith("# {"):
            raise FormatError(f"{path}: missing JSON header line")
        try:
            header = json.loads(first[2:])
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from exc
        shape = (header.get("rows"), header.get("cols"))
        # JSON true is a Python int; a count must be a JSON integer
        if not all(type(n) is int and n >= 0 for n in shape):
            raise FormatError(f"{path}: grid header rows and cols must be non-negative "
                              f"integers, got {json.dumps(shape[0])} and {json.dumps(shape[1])}")
        try:
            # a grid without values leaves loadtxt nothing to read
            values = (np.empty(shape) if 0 in shape and not fh.read().split()
                      else np.loadtxt(path, dtype=float, comments="#", ndmin=2))
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from exc
    if values.shape != shape:
        raise FormatError(f"{path}: grid shape {values.shape} disagrees with header {shape}")
    return values, header


def read_table(path, columns: str, parse):
    """Return (header, rows) of a whitespace-separated column table.

    A line '# key: value' sets header[key] to the stripped value; '#'
    starts a comment anywhere and blank lines are skipped. Every other
    line must have one field per name in ``columns`` (e.g. "n m value")
    that ``parse(*fields)`` takes without ValueError, or FormatError names
    the file and line. Rows are what parse returns.
    """
    header, rows = {}, []
    width = len(columns.split())
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        m = re.match(r"\s*#\s*(\w+):(.*)", raw)
        if m:
            header[m.group(1)] = m.group(2).strip()
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if len(fields) != width:
            raise FormatError(f"{path}:{lineno}: expected '{columns}', got {len(fields)} fields")
        try:
            rows.append(parse(*fields))
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
    return header, rows
