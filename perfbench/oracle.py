"""Reference values for the benchmark's output checker.

Everything here is computed from first principles, without calling into
the ``dipolemirror`` package, so that a disagreement points at the
program: Zernike radial polynomials from Jacobi polynomials, overlaps by
adaptive quadrature, the modulator response in closed form, and the
polarimeter frames from explicit Mueller matrices (the same synthesis as
``tests/oracles.py``).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize, special

# Default mirror of the toolkit: f = 2.1 mm, rim 10 mm, bore 0.75 mm.
FOCAL_MM, RIM_MM, BORE_MM = 2.1, 10.0, 0.75
RHO_MAX = RIM_MM / FOCAL_MM
RHO_BORE = BORE_MM / FOCAL_MM
THETA_MAX = 2.0 * math.atan(RHO_MAX / 2.0)
THETA_BORE = 2.0 * math.atan(RHO_BORE / 2.0)

MISALIGNMENT = {(0, 0), (1, 1), (1, -1), (2, 0)}


# ------------------------------------------------------------------ Zernike


def zernike_terms(degree: int):
    """All (n, m) indices up to ``degree``, in the toolkit's order."""
    return [(n, m) for n in range(degree + 1) for m in range(-n, n + 1, 2)]


def zernike(terms, rho, phi):
    """Sum of unnormalized Zernike terms (n, m, value) at (rho, phi).

    R_n^m(rho) = (-1)^k rho^m P_k^(m,0)(1 - 2 rho^2) with k = (n - m)/2.
    """
    rho = np.asarray(rho, dtype=float)
    phi = np.asarray(phi, dtype=float)
    out = np.zeros(np.broadcast(rho, phi).shape)
    for n, m, value in terms:
        am = abs(m)
        k = (n - am) // 2
        radial = (-1.0) ** k * rho**am * special.eval_jacobi(k, am, 0.0, 1.0 - 2.0 * rho**2)
        if m > 0:
            radial = radial * np.cos(m * phi)
        elif m < 0:
            radial = radial * np.sin(-m * phi)
        out = out + value * radial
    return out


def annulus_rms(terms, inner: float = 0.0, outer: float = 1.0) -> float:
    """Area-weighted RMS about the mean over the annulus inner <= rho <= outer.

    Gauss-Legendre in u = rho^2 and a uniform azimuth rule, both exact for
    polynomials of the degrees used here.
    """
    u, wu = np.polynomial.legendre.leggauss(24)
    lo, hi = inner**2, outer**2
    u, wu = lo + 0.5 * (hi - lo) * (u + 1.0), 0.5 * wu
    phi = np.arange(96) * 2.0 * math.pi / 96
    w = zernike(terms, np.sqrt(u)[:, None], phi[None, :])
    weights = wu[:, None] / phi.size
    mean = float(np.sum(w * weights))
    return math.sqrt(float(np.sum((w - mean) ** 2 * weights)))


def weighted_sigma(terms) -> float:
    """Dipole-weighted RMS of an aberration over the mirror annulus.

    Weight sin^3(theta): the solid-angle sine times the dipole intensity.
    Gauss-Legendre in theta, uniform azimuth.
    """
    x, wx = np.polynomial.legendre.leggauss(200)
    half = 0.5 * (THETA_MAX - THETA_BORE)
    theta = THETA_BORE + half * (x + 1.0)
    q = half * wx * np.sin(theta) ** 3
    phi = np.arange(128) * 2.0 * math.pi / 128
    rho_unit = 2.0 * np.tan(theta / 2.0) / RHO_MAX
    w = zernike(terms, rho_unit[:, None], phi[None, :])
    q = np.broadcast_to(q[:, None], w.shape)
    mean = float(np.sum(w * q) / np.sum(q))
    return math.sqrt(float(np.sum((w - mean) ** 2 * q) / np.sum(q)))


def marechal(sigma_waves: float) -> float:
    return math.exp(-((2.0 * math.pi * sigma_waves) ** 2))


# ------------------------------------------------------------------ overlap


def doughnut_overlap(waist: float) -> float:
    """Overlap of the doughnut rho*exp(-rho^2/w^2) with the dipole mode."""

    def dn(r):
        return r * math.exp(-(r * r) / (waist * waist))

    def dip(r):
        return r / ((r / 2.0) ** 2 + 1.0) ** 2

    def quad(f):
        return integrate.quad(f, RHO_BORE, RHO_MAX, epsabs=0.0, epsrel=1e-13, limit=200)[0]

    num = quad(lambda r: dn(r) * dip(r) * r)
    return num / math.sqrt(quad(lambda r: dn(r) ** 2 * r) * quad(lambda r: dip(r) ** 2 * r))


# ----------------------------------------------------------------- temporal


def _exp_integral(c: float, lo: float, hi: float) -> float:
    """Integral of exp(c t) over [lo, hi]."""
    if hi <= lo:
        return 0.0
    if abs(c) * (hi - lo) < 1e-12:
        return (hi - lo) * math.exp(c * lo)
    return (math.exp(c * hi) - math.exp(c * lo)) / c


def aom_eta_t(lifetime_ns: float, buildup_ns: float, duration_lifetimes: float = 5.0) -> float:
    """Temporal overlap of the low-passed exponential drive, in closed form.

    The drive field is exp(a t), a = 1/(2 tau), on [-D, 0]. A first-order
    low-pass with time constant b gives

        y(u) = (exp(a u) - exp(a t0) exp(-(u - t0)/b)) / (1 + a b)   on [t0, 0],
        y(u) = y(0) exp(-u/b)                                       for u > 0,

    with t0 = -D. The projection onto the ideal exp(a t), t <= 0, and the
    pulse energy are sums of exponential integrals, written in v = u - t0
    so that no exponent overflows; the shift is maximized numerically.
    """
    tau, b = lifetime_ns, buildup_ns
    a = 0.5 / tau
    t0 = -duration_lifetimes * tau
    lag = a - 1.0 / b
    c = 1.0 + a * b
    y0 = (1.0 - math.exp(t0 * (a + 1.0 / b))) / c
    scale = math.exp(2.0 * a * t0)
    energy = (
        _exp_integral(2.0 * a, t0, 0.0)
        - 2.0 * scale * _exp_integral(lag, 0.0, -t0)
        + scale * _exp_integral(-2.0 / b, 0.0, -t0)
    ) / (c * c) + y0 * y0 * b / 2.0
    norm = math.sqrt(energy * tau)  # sqrt(energy / Gamma)

    def projection(s: float) -> float:
        top = min(0.0, -s)  # u = t - s runs up to -s
        rising = (_exp_integral(2.0 * a, t0, top) - scale * _exp_integral(lag, 0.0, top - t0)) / c
        falling = y0 * _exp_integral(lag, 0.0, -s) if s < 0.0 else 0.0
        return math.exp(a * s) * (rising + falling) / norm

    scan = np.linspace(-10.0 * tau, 10.0 * tau, 4001)
    best = scan[int(np.argmax([projection(s) for s in scan]))]
    step = scan[1] - scan[0]
    found = optimize.minimize_scalar(
        lambda s: -projection(s), bounds=(best - step, best + step),
        method="bounded", options={"xatol": 1e-10 * tau},
    )
    return -float(found.fun)


# -------------------------------------------------------------- polarimetry

_QWP_H = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 0, 1.0], [0, 0, -1.0, 0]])
_POLARIZER_H = 0.5 * np.array([[1.0, 1, 0, 0], [1.0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])


def _rotation(angle: float) -> np.ndarray:
    c, s = math.cos(2.0 * angle), math.sin(2.0 * angle)
    return np.array([[1.0, 0, 0, 0], [0, c, s, 0], [0, -s, c, 0], [0, 0, 0, 1.0]])


def doughnut_frames(waist: float, size: int, noise: np.ndarray, n_angles: int = 9):
    """Polarimeter frames of a radially polarized doughnut.

    Returns (angles_rad, frames, pixel_scale, center). ``noise`` rotates
    the local linear polarization before the frames are synthesized
    behind a rotating quarter-wave plate and a horizontal polarizer.
    """
    half = RHO_MAX * 1.02
    pixel_scale = 2.0 * half / size
    center = ((size - 1) / 2.0, (size - 1) / 2.0)
    x = (np.arange(size) - center[1]) * pixel_scale
    xx, yy = np.meshgrid(x, x)
    rho = np.hypot(xx, yy)
    intensity = (rho * np.exp(-(rho**2) / waist**2)) ** 2
    psi = np.arctan2(yy, xx) + noise
    stokes = np.stack([intensity, intensity * np.cos(2.0 * psi),
                       intensity * np.sin(2.0 * psi), np.zeros_like(intensity)])
    angles = [math.radians(22.5 * k) for k in range(n_angles)]
    frames = []
    for t in angles:
        m = _POLARIZER_H @ _rotation(-t) @ _QWP_H @ _rotation(t)
        frames.append(np.tensordot(m[0], stokes, axes=(0, 0)))
    return angles, np.stack(frames), pixel_scale, center
