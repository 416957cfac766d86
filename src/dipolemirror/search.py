"""Bracketed one-dimensional maximum search.

The doughnut waist and the axial Strehl focus are each the maximum of a
smooth function of one variable with analytic derivatives. The caller
scans a grid, which brackets the maximum so that a secondary shoulder
cannot trap the search, and safeguarded Newton steps on the derivatives
place it to rounding (``rtsafe``; Press et al., Numerical Recipes,
section 9.4). The search never widens the grid.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError

__all__ = ["argmax_bracketed"]

# Newton or bisection steps. Bisection alone halves the bracket, two grid
# spacings wide, to a step of eps times the spacing within 53; at a
# degenerate maximum (d2 = 0 there) Newton converges linearly, and the
# search alternates Newton steps and bisections, about twice as many
_MAX_STEPS = 128


def argmax_bracketed(grid, values, local):
    """Maximum of an objective: argmax of its scan, then safeguarded Newton.

    ``values`` holds the objective on every point of the increasing
    ``grid``, scanned beforehand by the caller. ``local(x)`` returns
    (value, d1, d2) at a scalar x: the objective, or any increasing
    function of it (such as its log), with its first and second
    derivatives. From the grid argmax, Newton steps -d1/d2 run inside the
    bracket of its grid neighbours, and the sign of d1 at each x moves one
    end of the bracket to x. A Newton point outside the bracket, one where
    d2 >= 0, or one more than half the last step away is replaced by the
    bracket's midpoint. The search stops when a step is within rounding of
    x, eps (|x| + grid spacing), and returns x with ``local``'s value
    there, as floats. The bracket must hold a single maximum: of two that
    the grid does not separate, either may be found.

    A grid maximum on either end may lie outside the grid: ConvergenceError.
    """
    k = int(np.argmax(values))
    if not 0 < k < grid.size - 1:
        raise ConvergenceError(f"maximum on the edge of the search window "
                               f"[{grid[0]:g}, {grid[-1]:g}]")
    a, x, b = grid[k - 1:k + 2]
    eps, spacing = np.finfo(float).eps, grid[1] - grid[0]
    step = b - a
    value, d1, d2 = local(x)
    for _ in range(_MAX_STEPS):
        if d1 > 0.0:
            a = x
        elif d1 < 0.0:
            b = x
        else:
            break
        newton = -d1 / d2 if d2 < 0.0 else np.inf
        if a <= x + newton <= b and abs(newton) <= 0.5 * abs(step):
            step = newton
        else:
            step = 0.5 * (a + b) - x
        if abs(step) <= eps * (abs(x) + spacing):
            break
        x += step
        value, d1, d2 = local(x)
    return float(x), float(value)
