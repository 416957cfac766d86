import math
from fractions import Fraction

import numpy as np
import pytest
from oracles import trapezoid

from dipolemirror import (
    OMEGA_MAX,
    AngleInterval,
    ApertureSpec,
    DomainError,
    incidence_angle,
    rho_from_theta,
    theta_from_rho,
    weighted_fraction,
    weighted_solid_angle,
)
from dipolemirror.geometry import _gauss_kronrod, _gauss_legendre, _gauss_legendre_on


def test_angle_maps_invert_each_other():
    theta = np.linspace(0.0, 3.0, 1001)
    assert np.allclose(theta_from_rho(rho_from_theta(theta)), theta, atol=1e-13)
    rho = np.linspace(0.0, 50.0, 1001)
    assert np.allclose(rho_from_theta(theta_from_rho(rho)), rho, rtol=1e-13)


def test_angle_maps_scalar_and_reference_points():
    assert theta_from_rho(0.0) == 0.0
    assert theta_from_rho(2.0) == pytest.approx(math.pi / 2.0, abs=1e-15)
    assert rho_from_theta(math.pi / 2.0) == pytest.approx(2.0, abs=1e-15)
    assert isinstance(theta_from_rho(1.0), float)


def test_angle_maps_reject_out_of_domain():
    with pytest.raises(DomainError):
        theta_from_rho(-0.1)
    with pytest.raises(DomainError):
        rho_from_theta(math.pi)
    with pytest.raises(DomainError):
        rho_from_theta(-0.1)


def test_default_aperture_dimensions():
    ap = ApertureSpec()
    assert ap.rho_max == pytest.approx(10.0 / 2.1, rel=1e-12)
    assert ap.rho_bore == pytest.approx(0.75 / 2.1, rel=1e-12)
    assert math.degrees(ap.theta_max) == pytest.approx(134.437, abs=0.01)
    assert math.degrees(ap.theta_bore) == pytest.approx(20.25, abs=0.05)
    interval = ap.angle_interval()
    assert interval.theta_min == ap.theta_bore
    assert interval.theta_max == ap.theta_max
    assert ap.angle_interval(include_bore=True).theta_min == 0.0


def test_aperture_validation():
    with pytest.raises(DomainError):
        ApertureSpec(focal_length_mm=0.0)
    with pytest.raises(DomainError):
        ApertureSpec(bore_radius_mm=11.0)
    with pytest.raises(DomainError):
        ApertureSpec(bore_radius_mm=-0.1)
    ApertureSpec(bore_radius_mm=0.0)


def test_angle_interval_validation():
    with pytest.raises(DomainError):
        AngleInterval(1.0, 0.5)
    with pytest.raises(DomainError):
        AngleInterval(-0.1, 1.0)
    with pytest.raises(DomainError):
        AngleInterval(0.1, 3.5)


def test_full_sphere_weighted_solid_angle():
    full = AngleInterval(0.0, math.pi)
    assert weighted_solid_angle(full) == pytest.approx(OMEGA_MAX, rel=1e-14)
    assert weighted_fraction(full) == pytest.approx(1.0, rel=1e-14)
    assert OMEGA_MAX == pytest.approx(8.0 * math.pi / 3.0, rel=1e-15)


def test_weighted_fraction_matches_numerical_quadrature():
    interval = AngleInterval(0.3, 2.2)
    theta = np.linspace(interval.theta_min, interval.theta_max, 200_001)
    numeric = 2.0 * math.pi * trapezoid(np.sin(theta) ** 3, theta)
    assert weighted_solid_angle(interval) == pytest.approx(numeric, rel=1e-9)


def test_weighted_fraction_reference_values():
    # frozen closed-form values for the default mirror
    assert weighted_fraction(AngleInterval(0.0, math.radians(134.3))) == pytest.approx(
        0.9386425292, abs=1e-9
    )
    ap = ApertureSpec()
    annulus = weighted_fraction(ap.angle_interval())
    filled = weighted_fraction(ap.angle_interval(include_bore=True))
    assert annulus == pytest.approx(0.9364831671, abs=1e-9)
    assert filled == pytest.approx(0.9392890119, abs=1e-9)
    assert filled - annulus == pytest.approx(0.0028058447, abs=1e-9)


def test_incidence_angle_is_half_theta():
    theta = np.linspace(0.0, math.pi, 101)
    assert np.allclose(incidence_angle(theta), theta / 2.0)
    assert incidence_angle(0.0) == 0.0
    with pytest.raises(DomainError):
        incidence_angle(-0.01)
    with pytest.raises(DomainError):
        incidence_angle(math.pi + 0.01)


def test_mapped_rule_is_exact_on_each_interval():
    lo = np.array([[-1.0], [0.2], [3.0]])
    hi = np.array([[1.0], [0.7], [10.0]])
    x, w = _gauss_legendre_on(6, lo, hi)
    assert x.shape == w.shape == (3, 6)
    # six nodes integrate x^11 exactly, on every interval at once
    assert np.allclose(np.sum(w * x**11, axis=1), (hi**12 - lo**12)[:, 0] / 12, rtol=1e-13)
    for k in range(3):
        one = _gauss_legendre_on(6, float(lo[k, 0]), float(hi[k, 0]))
        assert np.array_equal(one[0], x[k]) and np.array_equal(one[1], w[k])


@pytest.mark.parametrize("n", [32, 64, 128, 256])
def test_kronrod_rule_integrates_monomials_to_degree_3n_plus_1(n):
    # every level the Strehl ladder builds, against the exact rational
    # integral of x^d over [-1, 1]: 2 / (d + 1) for even d, 0 for odd d
    x, w = _gauss_kronrod(n)
    assert x.shape == w.shape == (2 * n + 1,)
    assert np.all(w > 0.0) and np.all(np.diff(x) > 0.0)
    for d in range(3 * n + 2):
        exact = Fraction(2, d + 1) if d % 2 == 0 else Fraction(0)
        got = math.fsum(w * x**d)
        assert abs(got - float(exact)) <= 1e-12 * float(Fraction(2, d + 1)), d


@pytest.mark.parametrize("n", [32, 64, 128, 256])
def test_kronrod_rule_contains_the_gauss_rule_and_is_cached_read_only(n):
    x, w = _gauss_kronrod(n)
    assert np.array_equal(x[1::2], _gauss_legendre(n)[0])
    again = _gauss_kronrod(n)
    assert again[0] is x and again[1] is w
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0
