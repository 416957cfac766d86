"""Parabolic-mirror geometry: angle maps and dipole-weighted solid angle.

Conventions
-----------
The mirror is the paraboloid z = r^2/(4f) - f with its focus at the origin,
illuminated by a collimated beam travelling parallel to the axis. Polar
angles theta are measured at the focus from the vertex direction, so
theta = 0 points at the vertex and the rim of a deep mirror sits beyond
90 degrees. With the dimensionless entrance-plane radius rho = r/f the
mirror maps

    theta(rho) = 2*arctan(rho/2),        rho(theta) = 2*tan(theta/2).

A ray parallel to the axis is deflected by pi - theta on reflection, and
deflection = pi - 2*alpha for a mirror, so the local angle of incidence is
alpha = theta/2: normal incidence at the vertex, 67.2 degrees at the rim of
the default aperture. Radially polarized input is p-polarized at every
point of the surface.

The radiation pattern of a linear dipole on the axis weights the covered
solid angle as D(theta) = sin^2(theta); the full-sphere weighted solid
angle is 8*pi/3.

All angles are radians unless a name says otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError

# Full-sphere dipole-weighted solid angle, 2*pi * integral of sin^3.
OMEGA_MAX = 8.0 * math.pi / 3.0

__all__ = [
    "OMEGA_MAX",
    "ApertureSpec",
    "AngleInterval",
    "theta_from_rho",
    "rho_from_theta",
    "incidence_angle",
    "weighted_solid_angle",
    "weighted_fraction",
]


@lru_cache(maxsize=16)
def _gauss_legendre(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per n.

    The arrays are shared by every caller, so they are read-only.
    """
    u, w = np.polynomial.legendre.leggauss(n)
    u.flags.writeable = w.flags.writeable = False
    return u, w


# Newton steps for the new Kronrod nodes: from the midpoints in arccos(x)
# the fifth step moves no node by more than 1.1e-16, for n = 2 to 40 and
# for each of 48, 64, 96, 128, 192, 256, 384, 512 and 768
_KRONROD_NEWTON_STEPS = 6


@lru_cache(maxsize=8)
def _gauss_kronrod(n: int):
    """The (2n + 1)-point Gauss-Kronrod extension of the n-point rule on [-1, 1].

    Returns nodes and weights, computed once per n and read-only; the
    odd-indexed nodes are the n-point Gauss-Legendre nodes themselves, so
    a Gauss estimate reuses every evaluation of the Kronrod one. The rule
    integrates polynomials of degree 3n + 1 exactly (3n + 2 for odd n).
    Laurie's algorithm (Math. Comp. 66, 1133 (1997)) gives the (2n + 1)
    Jacobi-Kronrod matrix in O(n^2). For the symmetric Legendre weight its
    diagonal vanishes, so only the off-diagonal b_k are built, and each
    update of a row of mixed moments reads that row alone. The moments
    fall by about 4 per step, so each row is rescaled by a power of two,
    which is exact and changes no ratio. The matrix's eigenvalues are the
    nodes: the n Gauss nodes and n + 1 new ones, one in each gap between
    them and the ends. Each new node starts at its gap's midpoint in
    arccos(x) and takes Newton steps on the matrix's characteristic
    polynomial with the Gauss roots divided out, so no LAPACK call (which
    OpenBLAS threads from 65 rows on) is made. Each weight is the
    Christoffel number 1 / sum_k q_k(x)^2 over the matrix's orthonormal
    polynomials q_k.
    """
    size = 2 * n + 1
    r = np.arange(1, size, dtype=float) ** 2
    b = np.empty(size)  # Legendre's recurrence, completed by Laurie's loops
    b[0], b[1:] = 2.0, r / (4.0 * r - 1.0)
    b[(3 * n + 1) // 2 + 1:] = 0.0
    s, t = np.zeros(n // 2 + 2), np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        j = np.arange((m + 1) // 2, -1, -1)
        s[j + 1] = np.cumsum(b[j + n + 1] * s[j] - b[m - j] * s[j + 1])
        s, t = t, _rescaled(s)
    s[1:] = s[:-1].copy()
    for m in range(n - 1, 2 * n - 2):
        j = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        i = n - 1 - m + j
        s[i + 1] = np.cumsum(b[m - j] * s[i + 2] - b[j + n + 1] * s[i + 1])
        if m % 2:
            b[(m + 1) // 2 + n + 1] = s[i[-1] + 1] / s[i[-1] + 2]
        s, t = t, _rescaled(s)
    gauss = _gauss_legendre(n)[0]
    edges = np.concatenate(([math.pi], np.arccos(gauss), [0.0]))
    new = np.cos(0.5 * (edges[:-1] + edges[1:]))
    for _ in range(_KRONROD_NEWTON_STEPS):
        # rows P_k, P_k' of P_k = 2^k p_k, for the monic p_{k+1} = x p_k -
        # b_k p_{k-1}: P_{k+1} = 2x P_k - 4 b_k P_{k-1} stays O(k)
        two_x = 2.0 * new
        before = np.array([np.ones(n + 1), np.zeros(n + 1)])
        poly = np.array([two_x, np.full(n + 1, 2.0)])
        for k in range(1, size):
            after = two_x * poly - 4.0 * b[k] * before
            after[1] += 2.0 * poly[0]
            before, poly = poly, after
        p, dp = poly
        new = new - p / (dp - p * np.sum(1.0 / (new[:, None] - gauss), axis=1))
    x = np.empty(size)
    x[0::2], x[1::2] = 0.5 * (new - new[::-1]), gauss
    off = np.sqrt(b[1:])
    q_prev, q = np.zeros(size), np.full(size, 1.0 / math.sqrt(b[0]))
    total = q * q
    for j in range(size - 1):
        q_prev, q = q, (x * q - (off[j - 1] * q_prev if j else 0.0)) / off[j]
        total += q * q
    w = 1.0 / total
    w = 0.5 * (w + w[::-1])
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _rescaled(moments):
    """The moments scaled by a power of two to a largest magnitude in [0.5, 1)."""
    top = np.abs(moments).max()
    return np.ldexp(moments, -math.frexp(top)[1]) if top > 0.0 else moments


def _rule_on(rule, lo, hi):
    """A rule (nodes, weights) on [-1, 1] mapped onto [lo, hi].

    lo and hi broadcast against the rule: columns of shape (k, 1) give the
    rule on each of k intervals, as (k, n) arrays.
    """
    u, w = rule
    half = 0.5 * (hi - lo)
    return half * u + 0.5 * (lo + hi), half * w


def _gauss_legendre_on(n: int, lo, hi):
    """The cached n-point rule mapped onto [lo, hi]: (nodes, weights)."""
    return _rule_on(_gauss_legendre(n), lo, hi)


@dataclass(frozen=True)
class ApertureSpec:
    """Physical aperture of the mirror.

    Parameters
    ----------
    focal_length_mm : float
        Focal length f of the paraboloid.
    outer_radius_mm : float
        Radius of the entrance aperture (mirror rim).
    bore_radius_mm : float
        Radius of the on-axis bore through the vertex; 0 for none.
    """

    focal_length_mm: float = 2.1
    outer_radius_mm: float = 10.0
    bore_radius_mm: float = 0.75

    def __post_init__(self):
        if self.focal_length_mm <= 0:
            raise DomainError(f"focal length must be positive, got {self.focal_length_mm}")
        if not 0 <= self.bore_radius_mm < self.outer_radius_mm:
            raise DomainError(
                "need 0 <= bore radius < outer radius, got "
                f"{self.bore_radius_mm} and {self.outer_radius_mm}"
            )

    @property
    def rho_max(self) -> float:
        """Outer aperture radius in units of f."""
        return self.outer_radius_mm / self.focal_length_mm

    @property
    def rho_bore(self) -> float:
        """Bore radius in units of f."""
        return self.bore_radius_mm / self.focal_length_mm

    @property
    def theta_max(self) -> float:
        """Polar angle of the rim as seen from the focus."""
        return theta_from_rho(self.rho_max)

    @property
    def theta_bore(self) -> float:
        """Polar angle subtended by the bore."""
        return theta_from_rho(self.rho_bore)

    def angle_interval(self, include_bore: bool = False) -> "AngleInterval":
        """Angular interval covered by the mirror.

        With ``include_bore`` the interval starts at the vertex even though
        the bore removes those angles; useful for quantifying the bore's
        effect on the collected solid angle.
        """
        lo = 0.0 if include_bore else self.theta_bore
        return AngleInterval(lo, self.theta_max)


@dataclass(frozen=True)
class AngleInterval:
    """Polar-angle interval [theta_min, theta_max], measured from the vertex."""

    theta_min: float
    theta_max: float

    def __post_init__(self):
        if not 0.0 <= self.theta_min < self.theta_max <= math.pi:
            raise DomainError(
                f"need 0 <= theta_min < theta_max <= pi, got "
                f"[{self.theta_min}, {self.theta_max}]"
            )


def theta_from_rho(rho):
    """Polar angle at the focus for entrance-plane radius rho = r/f.

    Works on scalars and arrays. Strictly increasing; rho=0 is the vertex
    direction and rho -> infinity approaches pi.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise DomainError("rho must be non-negative")
    out = 2.0 * np.arctan(rho / 2.0)
    return float(out) if out.ndim == 0 else out


def rho_from_theta(theta):
    """Inverse of :func:`theta_from_rho` on [0, pi)."""
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < 0) or np.any(theta >= math.pi):
        raise DomainError("theta must lie in [0, pi)")
    out = 2.0 * np.tan(theta / 2.0)
    return float(out) if out.ndim == 0 else out


def incidence_angle(theta):
    """Angle of incidence on the mirror surface for focal polar angle theta.

    alpha = theta/2 follows from the ray deflection pi - theta and
    deflection = pi - 2*alpha. Normal incidence at the vertex (theta=0),
    grazing in the limit theta -> pi. Monotone increasing.
    """
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < 0) or np.any(theta > math.pi):
        raise DomainError("theta must lie in [0, pi]")
    out = theta / 2.0
    return float(out) if out.ndim == 0 else out


def _sin3_antiderivative(theta):
    # integral of sin^3 = -cos + cos^3/3
    c = np.cos(theta)
    return -c + c**3 / 3.0


def weighted_solid_angle(interval: AngleInterval) -> float:
    """Dipole-weighted solid angle over an angular interval.

    Omega = 2*pi * integral of sin^3(theta) d(theta) over the interval,
    evaluated in closed form. Azimuthally complete coverage is assumed.
    The full sphere gives OMEGA_MAX = 8*pi/3.
    """
    val = _sin3_antiderivative(interval.theta_max) - _sin3_antiderivative(interval.theta_min)
    return 2.0 * math.pi * float(val)


def weighted_fraction(interval: AngleInterval) -> float:
    """Weighted solid angle as a fraction of the full-sphere value."""
    return weighted_solid_angle(interval) / OMEGA_MAX
