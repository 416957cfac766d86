"""Bracketed one-dimensional maximum search.

The doughnut waist and the axial Strehl focus are each the maximum of a
function of one variable: a coarse scan brackets it, so that a secondary
shoulder cannot trap the search, and golden section refines it. Near a
flat maximum the section's end point is set by rounding in near-equal
comparisons, so a smooth objective may also pass a Newton step on its
analytic derivatives; two such steps then place the maximum to rounding.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError

__all__ = ["argmax_bracketed"]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Newton steps after the golden section
_NEWTON_STEPS = 2


def argmax_bracketed(f, grid, xtol: float, widenings: int = 0, step=None):
    """Maximum of ``f``: argmax on ``grid``, golden section, then Newton.

    ``f`` is called once on the whole grid array and then on scalars. The
    golden section runs between the grid neighbours of the argmax until
    they are ``xtol`` apart; the result is their midpoint x and ``f(x)``
    as a float.

    ``step(x)``, if given, returns the Newton step -f'(x)/f''(x) of the
    objective (or of a monotone function of it, such as its log). Up to
    two steps move x from the midpoint; a step longer than ``xtol`` leaves
    the section's bracket and is refused, ending the polish.

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
    if step is not None:
        for _ in range(_NEWTON_STEPS):
            dx = step(x)
            if abs(dx) > xtol:
                break
            x += dx
    return float(x), float(f(x))
