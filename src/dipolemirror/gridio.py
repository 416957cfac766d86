"""Plain-text data files: grids with a JSON header line, and column tables.

One grid per file: a first line '# {...}' carrying metadata (rows, cols,
and whatever the owning type needs), then one whitespace-separated row of
values per line. Invalid pixels are written as nan.

A column table (sampled modes, pulse shapes, histograms, Zernike
expansions, optical constants, frame manifests) has one whitespace-separated
row per line and '# key: value' comment lines for its metadata;
``read_table`` reads them all.

Each format has one reader and one writer: ``write_grid`` and
``read_grid`` for grids, ``write_table`` and ``read_table`` for column
tables of floats. Tables with other columns, Zernike expansions (integer
indices) and frame manifests (file names), are written by their owners'
save functions. Both writers write every value as Python's
``f"{v:.9e}"`` would, byte for byte, through one row writer. It builds
that text with array operations: each value gets a fixed slot of bytes
in a ``uint8`` buffer, the unused bytes of each slot are zero, and the
zeros are dropped before the block is written.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .errors import DomainError

__all__ = ["write_grid", "read_grid", "write_table", "read_table"]

# one slot of five 4-byte words per value; 17 bytes fit the longest '.9e'
# text, '-1.000000000e-308', and byte 18 holds the separator:
#   [sign, 0, d0, '.'] [d1..d4] [d5..d8] [d9, 'e', exponent sign, 0]
#   [exponent tens, exponent ones, separator, 0]
_SLOT_WORDS = 5
_SEPARATOR = 18
_BLOCK_VALUES = 1 << 16
# scaled = |v| * 10**(9 - e) for the decimal exponents e with two digits
_POW10_MIN = 9 - 99
_POW10 = np.array([float(f"1e{k}") for k in range(_POW10_MIN, 9 + 99 + 1)])
# |scaled - true scaled| stays below 3e-6 (two roundings of a value < 1e10);
# values whose fraction lies closer than this to .5 take the exact path
_TIE_MARGIN = 1e-5


def _words(texts) -> np.ndarray:
    """4-byte ASCII strings as one uint32 word each."""
    return np.frombuffer(b"".join(t.encode("ascii") for t in texts), np.uint32)


_LEAD = _words(f"{s}\0{d}." for s in ("\0", "-") for d in range(10))  # [negative * 10 + d0]
_DIGITS4 = (np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1).T
            + ord("0")).copy().view(np.uint32).ravel()  # [0..9999]
_LAST = _words(f"{d}e{s}\0" for d in range(10) for s in "+-")  # [d9 * 2 + (e < 0)]
_EXPONENT = _words(f"{k:02d} \0" for k in range(100))
_NAN, _INF = _words(["\0\0na", "n\0\0\0"]), _words(["\0\0in", "f\0\0\0"])
_BLANK, _MINUS = _words(["\0\0 \0", "-\0\0\0"])


def _format_block(values: np.ndarray) -> bytes:
    """'.9e' text of a 2-d block, values separated by ' ' and rows ended by '\\n'."""
    rows, cols = values.shape
    v = values.ravel()
    a = np.abs(v)
    nan = np.isnan(v)
    inf = np.isinf(v)
    nonzero = (a != 0.0) & ~nan & ~inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = np.floor(np.log10(np.where(nonzero, a, 1.0))).astype(np.int64)
        scaled = a * _POW10[np.clip(9 - e - _POW10_MIN, 0, _POW10.size - 1)]
        q = np.rint(scaled)
        tie = np.abs(scaled - np.floor(scaled) - 0.5) < _TIE_MARGIN
    carry = q == 1e10
    q[carry] = 1e9
    e += carry
    # Python formats these: estimated exponent off by one, a tie, or a
    # three-digit exponent
    exact = nonzero & ((scaled < 1e9) | (scaled >= 1e10) | tie | (np.abs(e) > 99))
    plain = ~(nan | inf | exact)
    q = np.where(plain, q, 0.0).astype(np.int64)
    e = np.where(plain, e, 0)
    d0, rest = np.divmod(q, 1000000000)
    d1_4, rest = np.divmod(rest, 100000)
    d5_8, d9 = np.divmod(rest, 10)

    words = np.empty((v.size, _SLOT_WORDS), dtype=np.uint32)
    words[:, 0] = _LEAD[np.signbit(v) * 10 + d0]
    words[:, 1] = _DIGITS4[d1_4]
    words[:, 2] = _DIGITS4[d5_8]
    words[:, 3] = _LAST[d9 * 2 + (e < 0)]
    words[:, 4] = _EXPONENT[np.abs(e)]
    for mask, text in ((inf, _INF), (nan, _NAN)):
        words[mask, :2] = text
        words[mask, 2:4] = 0
        words[mask, 4] = _BLANK
    words[inf & (v < 0), 0] |= _MINUS
    text = words.view(np.uint8).reshape(rows, cols, 4 * _SLOT_WORDS)
    for i in np.flatnonzero(exact):
        exact_text = format(float(v[i]), ".9e").encode("ascii")
        slot = text[i // cols, i % cols]
        slot[:_SEPARATOR] = 0
        slot[:len(exact_text)] = np.frombuffer(exact_text, np.uint8)
    text[:, -1, _SEPARATOR] = ord("\n")
    return text[text != 0].tobytes()


def _write_file(path, first_line: str, values: np.ndarray):
    """Write one comment line, then the rows of a 2-d array, a block of rows at a time."""
    rows, cols = values.shape
    with open(path, "wb") as fh:
        fh.write(("# " + first_line + "\n").encode("ascii"))
        if cols == 0:
            fh.write(b"\n" * rows)
            return
        block_rows = max(1, _BLOCK_VALUES // cols)
        for start in range(0, rows, block_rows):
            fh.write(_format_block(values[start:start + block_rows]))


def write_grid(path, values: np.ndarray, header: dict):
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise DomainError("grid must be two-dimensional")
    meta = dict(header)
    meta["rows"], meta["cols"] = (int(k) for k in values.shape)
    _write_file(path, json.dumps(meta, sort_keys=True), values)


def write_table(path, comment: str, *columns):
    """Write equal-length columns side by side under the line '# comment'."""
    _write_file(path, comment, np.column_stack(columns).astype(float))


def read_grid(path):
    """Return (values, header) from a grid file written by write_grid."""
    with open(path) as fh:
        first = fh.readline()
    if not first.startswith("# {"):
        raise DomainError(f"{path}: missing JSON header line")
    header = json.loads(first[2:])
    try:
        values = np.loadtxt(path, dtype=float, comments="#", ndmin=2)
    except ValueError as exc:
        raise DomainError(f"{path}: {exc}") from exc
    if values.shape != (header.get("rows"), header.get("cols")):
        raise DomainError(
            f"{path}: grid shape {values.shape} disagrees with header "
            f"({header.get('rows')}, {header.get('cols')})"
        )
    return values, header


def read_table(path, columns: str):
    """Return (header, rows) of a whitespace-separated column table.

    A line '# key: value' sets header[key] to the stripped value; '#'
    starts a comment anywhere and blank lines are skipped. Every other
    line must have one field per name in ``columns`` (e.g. "n m value"),
    or DomainError names the file and line. Rows are lists of strings.
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
            raise DomainError(f"{path}:{lineno}: expected '{columns}', got {len(fields)} fields")
        rows.append(fields)
    return header, rows
