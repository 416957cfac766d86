import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dipolemirror import ConvergenceError
from dipolemirror.search import argmax_bracketed


@settings(max_examples=300, deadline=None)
@given(c1=st.floats(-10.0, 10.0), c2=st.floats(-10.0, 10.0), tilt=st.floats(-50.0, 50.0),
       lo=st.floats(-10.0, 10.0), width=st.floats(0.1, 20.0), n=st.integers(3, 200),
       xtol=st.floats(1e-9, 1e-3))
def test_argmax_bracketed_is_scan_then_golden(c1, c2, tilt, lo, width, n, xtol):
    # a tilted double well: two maxima of which the grid must pick the higher
    def f(x):
        well = (x - c1) * (x - c2)
        return tilt * x - well * well

    grid = np.linspace(lo, lo + width, n)
    k = int(np.argmax([f(x) for x in grid]))
    if 0 < k < n - 1:
        f_max, x_max = oracles.scan_then_golden(f, grid, xtol)
        assert argmax_bracketed(f, grid, xtol) == (x_max, f_max)
    else:
        with pytest.raises(ConvergenceError, match="edge of the search window"):
            argmax_bracketed(f, grid, xtol)


def test_argmax_bracketed_widens_toward_an_outside_maximum():
    def f(x):
        return -(x - 3.0) ** 2

    grid = np.linspace(-1.0, 1.0, 11)
    x, fx = argmax_bracketed(f, grid, 1e-10, widenings=2)  # (-4, 4) holds x = 3
    assert x == pytest.approx(3.0, abs=1e-9) and fx == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ConvergenceError, match=r"search window \[-2, 2\]"):
        argmax_bracketed(f, grid, 1e-10, widenings=1)


@settings(max_examples=200, deadline=None)
@given(peak=st.floats(-10.0, 10.0), k=st.floats(0.2, 5.0), amplitude=st.floats(0.1, 10.0),
       left=st.floats(0.3, 0.9), right=st.floats(0.3, 0.9), n=st.integers(5, 200),
       xtol=st.floats(1e-6, 1e-3))
def test_newton_step_places_a_cosine_maximum_to_rounding(peak, k, amplitude, left, right, n,
                                                         xtol):
    # one maximum in the window, at `peak`; -f'/f'' = -tan(k (x - peak))/k exactly.
    # Within about 1e-7 / k of the peak comparisons of f are rounding noise,
    # so the section tolerance stays above that and the steps are taken
    def f(x):
        return amplitude * np.cos(k * (x - peak))

    def step(x):
        return -math.tan(k * (x - peak)) / k

    grid = np.linspace(peak - left * math.pi / k, peak + right * math.pi / k, n)
    x, fx = argmax_bracketed(f, grid, xtol, step=step)
    assert x == pytest.approx(peak, abs=1e-14)
    assert fx == f(x)
    # the section alone stops where comparisons of f turn to rounding noise
    assert abs(argmax_bracketed(f, grid, xtol)[0] - peak) >= abs(x - peak)


@settings(max_examples=100, deadline=None)
@given(c1=st.floats(-10.0, 10.0), c2=st.floats(-10.0, 10.0), tilt=st.floats(-50.0, 50.0),
       xtol=st.floats(1e-9, 1e-3), over=st.floats(1.0, 1e6, exclude_min=True))
def test_a_step_wider_than_the_tolerance_is_refused(c1, c2, tilt, xtol, over):
    def f(x):
        well = (x - c1) * (x - c2)
        return tilt * x - well * well

    grid = np.linspace(-12.0, 12.0, 97)
    try:
        plain = argmax_bracketed(f, grid, xtol)
    except ConvergenceError:
        return
    calls = []

    def step(x):
        calls.append(x)
        return over * xtol

    assert argmax_bracketed(f, grid, xtol, step=step) == plain
    assert len(calls) == 1
