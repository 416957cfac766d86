import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dipolemirror import ConvergenceError
from dipolemirror.search import argmax_bracketed

EPS = np.finfo(float).eps


def _double_well(c1, c2, tilt):
    # a tilted double well: two maxima of which the grid must pick the higher
    def f(x):
        well = (x - c1) * (x - c2)
        return tilt * x - well * well

    def local(x):
        well = (x - c1) * (x - c2)
        slope = 2.0 * x - c1 - c2
        return f(x), tilt - 2.0 * well * slope, -2.0 * slope * slope - 4.0 * well

    return f, local


def _stationary_in(c1, c2, tilt, a, b):
    # stationary points of the well in (a, b): the real roots of its cubic f'
    # -4 x^3 + 6 (c1 + c2) x^2 - 2 (c1^2 + 4 c1 c2 + c2^2) x + tilt + 2 c1 c2 (c1 + c2)
    s, p = c1 + c2, c1 * c2
    roots = np.roots([-4.0, 6.0 * s, -2.0 * (s * s + 2.0 * p), tilt + 2.0 * p * s])
    return [r.real for r in roots if abs(r.imag) < 1e-9 and a < r.real < b]


@settings(max_examples=300, deadline=None)
@given(c1=st.floats(-10.0, 10.0), c2=st.floats(-10.0, 10.0), tilt=st.floats(-50.0, 50.0),
       lo=st.floats(-10.0, 10.0), width=st.floats(0.1, 20.0), n=st.integers(3, 200))
def test_argmax_bracketed_agrees_with_scan_then_golden(c1, c2, tilt, lo, width, n):
    f, local = _double_well(c1, c2, tilt)
    grid = np.linspace(lo, lo + width, n)
    values = [f(x) for x in grid]
    k = int(np.argmax(values))
    if not 0 < k < n - 1:
        with pytest.raises(ConvergenceError, match="edge of the search window"):
            argmax_bracketed(grid, values, local)
        return
    x, fx = argmax_bracketed(grid, values, local)
    assert grid[k - 1] <= x <= grid[k + 1] and fx == f(x)
    if len(_stationary_in(c1, c2, tilt, grid[k - 1], grid[k + 1])) > 1:
        return  # the grid does not resolve the two wells: either maximum is one
    f_max, x_max = oracles.scan_then_golden(f, grid, 1e-12)
    # rounding of x and of f near the maximum, and the half-width of the
    # plateau on which f is within that rounding of its maximum
    dx = 4.0 * EPS * (abs(x) + grid[1] - grid[0])
    well, curvature = (x - c1) * (x - c2), abs(local(x)[2])
    noise = 8.0 * EPS * (abs(tilt * x) + well * well) + curvature * dx * dx
    plateau = math.sqrt(2.0 * noise / curvature) if curvature > 0.0 else math.inf
    assert fx >= f_max - noise
    assert abs(x - x_max) <= 1e-12 + plateau


def test_argmax_bracketed_refuses_a_maximum_on_either_end():
    # the scanned maximum sits on an end, and the true one lies beyond it;
    # the search refines a scanned grid and never widens it
    grid = np.linspace(-1.0, 1.0, 11)
    for center in (3.0, -3.0):
        def local(x):
            return -(x - center) ** 2, -2.0 * (x - center), -2.0

        with pytest.raises(ConvergenceError, match=r"edge of the search window \[-1, 1\]"):
            argmax_bracketed(grid, -(grid - center) ** 2, local)


@settings(max_examples=200, deadline=None)
@given(peak=st.floats(-10.0, 10.0), k=st.floats(0.2, 5.0), amplitude=st.floats(0.1, 10.0),
       left=st.floats(0.3, 0.9), right=st.floats(0.3, 0.9), n=st.integers(5, 200))
def test_newton_step_places_a_cosine_maximum_to_rounding(peak, k, amplitude, left, right, n):
    # one maximum in the window, at `peak`; within about 1e-7 / k of it
    # comparisons of f are rounding noise, but its derivatives are not
    def f(x):
        return amplitude * np.cos(k * (x - peak))

    def local(x):
        u = k * (x - peak)
        return f(x), -amplitude * k * math.sin(u), -amplitude * k * k * math.cos(u)

    grid = np.linspace(peak - left * math.pi / k, peak + right * math.pi / k, n)
    x, fx = argmax_bracketed(grid, f(grid), local)
    assert x == pytest.approx(peak, abs=1e-14)
    assert fx == f(x)


@pytest.mark.parametrize("order", [4, 6, 8, 16])
@pytest.mark.parametrize("center", [0.3, -2.7])
def test_a_degenerate_maximum_is_placed_to_rounding(order, center):
    # -(x - c)^order has d2 = 0 at its maximum, where Newton steps only
    # shrink the distance by (order - 2)/(order - 1); the steps that do not
    # halve the last one give way to bisection, so the search still ends
    # on a step within rounding, long before its guard
    calls = []

    def f(x):
        return -((x - center) ** order)

    def local(x):
        calls.append(x)
        u = x - center
        return f(x), -order * u ** (order - 1), -order * (order - 1) * u ** (order - 2)

    grid = np.linspace(-10.0, 10.0, 41)
    x, _ = argmax_bracketed(grid, f(grid), local)
    assert abs(x - center) <= (order - 1) * EPS * (abs(x) + grid[1] - grid[0])
    assert len(calls) < 100


@settings(max_examples=200, deadline=None)
@given(center=st.floats(-10.0, 10.0), curvature=st.floats(1e-3, 1e3),
       lo=st.floats(-12.0, -10.5), hi=st.floats(10.5, 12.0), n=st.integers(3, 400))
def test_a_convex_step_falls_back_to_bisection(center, curvature, lo, hi, n):
    # d2 is always +1, so no Newton step is ever taken: the sign of d1,
    # exact for a quadratic, halves the bracket until a step is rounding
    calls = []

    def f(x):
        return -curvature * (x - center) ** 2

    def local(x):
        calls.append(x)
        return f(x), -2.0 * curvature * (x - center), 1.0

    grid = np.linspace(lo, hi, n)
    if not 0 < int(np.argmax(f(grid))) < n - 1:
        return  # the maximum lies nearer an edge than the grid resolves
    x, fx = argmax_bracketed(grid, f(grid), local)
    assert abs(x - center) <= 2.0 * EPS * (abs(x) + grid[1] - grid[0])
    assert fx == f(x) and x == calls[-1]
    # the bracket, two spacings wide, halves to eps spacings in 52 steps
    assert len(calls) <= 53
