"""Bracketed one-dimensional maximum search.

The doughnut waist, the axial Strehl focus and the temporal pulse shift
are each the maximum of a smooth function of one variable: a coarse scan
brackets it, so that a secondary shoulder cannot trap the search, and
golden section refines it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError

__all__ = ["argmax_bracketed"]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def argmax_bracketed(f, grid, xtol: float, widenings: int = 0):
    """Maximum of ``f``: argmax on ``grid``, then golden section.

    ``f`` is called once on the whole grid array and then on scalars. The
    golden section runs between the grid neighbours of the argmax until
    they are ``xtol`` apart; the result is their midpoint x and ``f(x)``
    as a float.

    A grid maximum on either end may lie outside the grid: the window
    (lo, hi) then becomes (2 lo, 2 hi) at the same spacing, at most
    ``widenings`` times, before ConvergenceError is raised.
    """
    grid = np.asarray(grid, dtype=float)
    k = int(np.argmax(f(grid)))
    for _ in range(widenings):
        if 0 < k < grid.size - 1:
            break
        grid = np.linspace(2.0 * grid[0], 2.0 * grid[-1], 2 * grid.size - 1)
        k = int(np.argmax(f(grid)))
    if not 0 < k < grid.size - 1:
        raise ConvergenceError(
            f"maximum on the edge of the search window [{grid[0]:g}, {grid[-1]:g}]"
        )
    a, b = grid[k - 1], grid[k + 1]
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > xtol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return float(x), float(f(x))
