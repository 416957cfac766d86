"""Entrance-plane mode profiles, spatial overlap, and coupling figures.

The ideal focusing mode is the time-reversed far-field of a linear dipole,
expressed in the entrance plane of the parabola as

    E_dip(rho) = rho / ((rho/2)^2 + 1)^2,

with rho = r/f. The laboratory approximation is the radially polarized
doughnut

    E_dn(rho) = rho * exp(-rho^2 / w^2),

where w is the beam waist in units of f. The spatial overlap between two
radial profiles a, b over the aperture annulus is the normalized scalar
product

    eta = int a b rho drho / sqrt(int a^2 rho drho * int b^2 rho drho),

azimuthal factors cancelling for co-polarized radial fields. A constant
factor on either profile cancels as well, so the profiles carry no
amplitude factor; a radius-dependent weight, such as the mirror's
reflectivity, enters through ``WeightedMode``. Coupling figures assemble
into the coupling strength G = Omega_fraction * eta^2 * S (S the Strehl
ratio) and the absorption probability P_a = G * eta_t^2 * branching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .errors import ConvergenceError, DomainError, UndefinedOverlapError
from .geometry import ApertureSpec
from .gridio import read_table
from .search import argmax_bracketed

__all__ = [
    "RadialMode",
    "WeightedMode",
    "dipole_profile",
    "doughnut_profile",
    "spatial_overlap",
    "optimize_waist",
    "WaistOptimum",
    "CouplingFigures",
    "coupling_strength",
    "absorption_probability",
    "load_sampled_mode",
    "save_sampled_mode",
]

# Quadrature defaults: composite Simpson starting at this interval count,
# doubled until the overlap changes by less than the tolerance.
_SIMPSON_N0 = 4096
_SIMPSON_NMAX = 1 << 19
_ETA_RTOL = 1e-9
# golden-section tolerance of the waist search, in units of f
_WAIST_XTOL = 1e-8


def dipole_profile(rho):
    """Entrance-plane amplitude of the linear-dipole mode.

    Maximum at rho = 2/sqrt(3); zero on axis.
    """
    rho = np.asarray(rho, dtype=float)
    out = rho / ((rho / 2.0) ** 2 + 1.0) ** 2
    return float(out) if out.ndim == 0 else out


def doughnut_profile(rho, waist: float):
    """Radially polarized doughnut amplitude with waist in units of f.

    Maximum at rho = waist/sqrt(2); zero on axis.
    """
    if waist <= 0:
        raise DomainError(f"waist must be positive, got {waist}")
    rho = np.asarray(rho, dtype=float)
    out = rho * np.exp(-(rho**2) / waist**2)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class RadialMode:
    """A radial field profile over the entrance plane.

    Construct through the classmethods; ``amplitude`` evaluates the profile
    at dimensionless radius rho. Sampled modes interpolate linearly between
    samples and are zero outside the sampled range.
    """

    kind: str
    waist: Optional[float] = None
    rho_samples: Optional[np.ndarray] = field(default=None, repr=False)
    amp_samples: Optional[np.ndarray] = field(default=None, repr=False)

    @classmethod
    def dipole(cls) -> "RadialMode":
        return cls(kind="dipole")

    @classmethod
    def doughnut(cls, waist: float) -> "RadialMode":
        if waist <= 0:
            raise DomainError(f"waist must be positive, got {waist}")
        return cls(kind="doughnut", waist=waist)

    @classmethod
    def sampled(cls, rho, amplitude) -> "RadialMode":
        rho = np.asarray(rho, dtype=float)
        amp = np.asarray(amplitude, dtype=float)
        if rho.ndim != 1 or rho.shape != amp.shape or rho.size < 2:
            raise DomainError("sampled mode needs matching 1-d rho/amplitude arrays")
        if np.any(rho < 0) or np.any(np.diff(rho) <= 0):
            raise DomainError("sample radii must be non-negative and strictly increasing")
        if not np.all(np.isfinite(amp)):
            raise DomainError("sample amplitudes must be finite")
        return cls(kind="sampled", rho_samples=rho, amp_samples=amp)

    def amplitude(self, rho):
        rho = np.asarray(rho, dtype=float)
        if self.kind == "dipole":
            out = dipole_profile(rho)
        elif self.kind == "doughnut":
            out = doughnut_profile(rho, self.waist)
        elif self.kind == "sampled":
            out = np.interp(rho, self.rho_samples, self.amp_samples, left=0.0, right=0.0)
        else:
            raise DomainError(f"unknown mode kind {self.kind!r}")
        return float(out) if np.ndim(out) == 0 else out

    @property
    def breaks(self) -> tuple:
        """Radii where the amplitude may jump: the ends of a sampled range."""
        if self.kind != "sampled":
            return ()
        return (float(self.rho_samples[0]), float(self.rho_samples[-1]))


@dataclass(frozen=True)
class WeightedMode:
    """A mode with a radius-dependent amplitude weight applied.

    weight is any callable of rho (vectorized); the wrapper exposes the
    same ``amplitude`` interface the overlap routines expect, so weighted
    and plain modes mix freely.
    """

    mode: "RadialMode"
    weight: Callable

    def amplitude(self, rho):
        rho = np.asarray(rho, dtype=float)
        out = np.asarray(self.weight(rho), dtype=float) * self.mode.amplitude(rho)
        return float(out) if np.ndim(out) == 0 else out

    @property
    def breaks(self) -> tuple:
        return self.mode.breaks


def _simpson(values: np.ndarray, h: float) -> float:
    # values on an odd number of equally spaced points
    return (h / 3.0) * float(
        values[0] + values[-1] + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-1:2].sum()
    )


def _amp(mode, rho):
    # duck-typed: anything with .amplitude works (RadialMode, weighted wrappers)
    return np.asarray(mode.amplitude(rho), dtype=float)


def _pieces(a, b, lo: float, hi: float) -> list:
    # [lo, hi] cut where either profile may jump, so that each piece is smooth
    cuts = sorted({x for mode in (a, b) for x in getattr(mode, "breaks", ()) if lo < x < hi})
    return list(zip([lo, *cuts], [*cuts, hi]))


def _overlap_on_grid(a, b, pieces: list, n: int) -> float:
    num = na = nb = 0.0
    for lo, hi in pieces:
        rho = np.linspace(lo, hi, n + 1)
        # at a cut, take the profile's limit from inside the piece
        if lo != pieces[0][0]:
            rho[0] = np.nextafter(lo, hi)
        if hi != pieces[-1][1]:
            rho[-1] = np.nextafter(hi, lo)
        fa = _amp(a, rho)
        fb = _amp(b, rho)
        h = (hi - lo) / n
        num += _simpson(fa * fb * rho, h)
        na += _simpson(fa * fa * rho, h)
        nb += _simpson(fb * fb * rho, h)
    if na <= 0.0 or nb <= 0.0:
        raise UndefinedOverlapError("zero-norm mode over the aperture annulus")
    return num / math.sqrt(na * nb)


def spatial_overlap(a, b, aperture: ApertureSpec, rtol: float = _ETA_RTOL) -> float:
    """Normalized overlap of two radial profiles over the aperture annulus.

    Integrates with composite Simpson on [rho_bore, rho_max], doubling the
    grid until the result changes by less than ``rtol``. Where a sampled
    profile's range ends inside the annulus its amplitude jumps to zero;
    the interval is cut there and each piece integrated on its own, since
    Simpson's rule converges only slowly across a jump.

    Raises
    ------
    UndefinedOverlapError
        If either profile has zero norm on the annulus.
    ConvergenceError
        If doubling exhausts the grid budget without stabilizing.
    """
    pieces = _pieces(a, b, aperture.rho_bore, aperture.rho_max)
    n = _SIMPSON_N0
    prev = _overlap_on_grid(a, b, pieces, n)
    while n <= _SIMPSON_NMAX:
        n *= 2
        cur = _overlap_on_grid(a, b, pieces, n)
        if abs(cur - prev) < rtol:
            return cur
        prev = cur
    raise ConvergenceError(
        f"overlap quadrature did not stabilize to {rtol} within {_SIMPSON_NMAX} intervals"
    )


@dataclass(frozen=True)
class WaistOptimum:
    """Result of a waist optimization."""

    waist: float
    eta: float


def optimize_waist(
    aperture: ApertureSpec,
    bracket: tuple[float, float] | None = None,
    transform: Callable | None = None,
) -> WaistOptimum:
    """Doughnut waist maximizing the overlap with the dipole mode.

    Parameters
    ----------
    aperture : ApertureSpec
        Integration annulus.
    bracket : (float, float), optional
        Waist search interval in units of f; defaults to (0.1, rho_max).
    transform : callable, optional
        Applied to each candidate doughnut before scoring, e.g. a
        reflectivity weighting; must return an object with ``amplitude``.

    A coarse scan of 65 waists brackets the maximum before golden-section
    refinement to 1e-8 f, so a secondary shoulder cannot trap the search.
    A best waist on either end of the bracket raises ConvergenceError: the
    optimum may lie outside it, and the bracket is not widened.
    """
    dipole = RadialMode.dipole()
    lo, hi = bracket if bracket is not None else (0.1, aperture.rho_max)
    if not 0 < lo < hi:
        raise DomainError(f"bad waist bracket ({lo}, {hi})")

    def score(w):
        if np.ndim(w):
            return np.array([score(x) for x in w])
        candidate = RadialMode.doughnut(w)
        if transform is not None:
            candidate = transform(candidate)
        return spatial_overlap(candidate, dipole, aperture, rtol=1e-10)

    waist, eta = argmax_bracketed(score, np.linspace(lo, hi, 65), _WAIST_XTOL)
    return WaistOptimum(waist=waist, eta=eta)


def coupling_strength(omega_fraction: float, eta: float, strehl: float) -> float:
    """Coupling strength G = Omega_fraction * eta^2 * Strehl."""
    for name, v in (("omega_fraction", omega_fraction), ("eta", eta), ("strehl", strehl)):
        if not 0.0 <= v <= 1.0:
            raise DomainError(f"{name} must lie in [0, 1], got {v}")
    return omega_fraction * eta**2 * strehl


def absorption_probability(g: float, eta_t: float, branching: float = 1.0) -> float:
    """Absorption probability P_a = G * eta_t^2 * branching."""
    for name, v in (("g", g), ("eta_t", eta_t), ("branching", branching)):
        if not 0.0 <= v <= 1.0:
            raise DomainError(f"{name} must lie in [0, 1], got {v}")
    return g * eta_t**2 * branching


@dataclass(frozen=True)
class CouplingFigures:
    """Assembled coupling figures for one transition.

    G and P_a are computed from the factors whenever read; a factor outside
    [0, 1] raises DomainError at construction.
    """

    omega_fraction: float
    eta: float
    strehl: float
    eta_t: float
    branching: float = 1.0

    def __post_init__(self):
        self.p_absorb  # reading P_a runs the range check of every factor

    @property
    def g(self) -> float:
        return coupling_strength(self.omega_fraction, self.eta, self.strehl)

    @property
    def p_absorb(self) -> float:
        return absorption_probability(self.g, self.eta_t, self.branching)


def load_sampled_mode(path) -> RadialMode:
    """Read a two-column (rho, amplitude) text file; '#' starts a comment."""
    _, rows = read_table(path, "rho amplitude")
    table = np.array(rows, dtype=float).reshape(-1, 2)
    return RadialMode.sampled(table[:, 0], table[:, 1])


def save_sampled_mode(mode: RadialMode, path, aperture: ApertureSpec | None = None, n: int = 512):
    """Write a mode as a two-column sampled profile.

    Analytic modes are tabulated on the aperture annulus (default aperture
    if none given).
    """
    if mode.kind == "sampled":
        rho, amp = mode.rho_samples, mode.amp_samples
    else:
        ap = aperture if aperture is not None else ApertureSpec()
        rho = np.linspace(ap.rho_bore, ap.rho_max, n)
        amp = mode.amplitude(rho)
    lines = ["# radial mode samples: rho amplitude"]
    lines += [f"{r:.9e} {a:.9e}" for r, a in zip(rho, amp)]
    Path(path).write_text("\n".join(lines) + "\n")
