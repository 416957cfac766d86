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
reflectivity, enters through ``WeightedMode``.

The integrals run on composite Gauss-Legendre panels over the annulus.
Analytic profiles are smooth there, so they need one panel; a sampled
profile is piecewise linear, so it gets one panel between each pair of
its samples. The first rule shares 64 Gauss-Legendre nodes among the
panels, mapped onto each block from the one cached rule in geometry; a
rule is accepted once doubling its nodes, by cutting each
Gauss-Legendre block in two, moves eta by no more than 1e-12. The waist
search evaluates the dipole profile and its norm once
on its rule; each candidate waist then costs one exponential per node. A
scan of waists brackets the best one, and Newton steps on the analytic
first and second derivatives of log eta in the waist place it.

Coupling figures assemble into the coupling strength
G = Omega_fraction * eta^2 * S (S the Strehl ratio) and the absorption
probability P_a = G * eta_t^2 * branching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConvergenceError, DomainError, UndefinedOverlapError
from .geometry import ApertureSpec, _gauss_legendre_on
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
]

# Composite Gauss-Legendre quadrature: nodes of the first rule, shared
# among the panels but at least 8 per panel, the most blocks a panel may be
# cut into, and the change in eta between a rule and its doubling that
# accepts the finer one
_GL_NODES = 64
_MIN_PANEL_NODES = 8
_MAX_BLOCKS = 16
_ETA_TOL = 1e-12
# waists on the coarse scan that brackets the maximum, from the smallest one
# (in units of f) to the rim; eta is so flat there (d2 log eta/dw2 = -0.27)
# that only its derivatives place the waist
_WAIST_SCAN, _WAIST_MIN = 65, 0.1


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
        if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(amp))):
            raise DomainError("sample radii and amplitudes must be finite")
        if np.any(rho < 0) or np.any(np.diff(rho) <= 0):
            raise DomainError("sample radii must be non-negative and strictly increasing")
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
    def breaks(self) -> np.ndarray:
        """Radii where the amplitude is not smooth: every sample of a sampled
        mode, which is linear between samples and zero past its ends."""
        if self.kind != "sampled":
            return np.empty(0)
        return self.rho_samples


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
    def breaks(self) -> np.ndarray:
        return self.mode.breaks


def _amp(mode, rho):
    # duck-typed: anything with .amplitude works (RadialMode, weighted wrappers)
    return np.asarray(mode.amplitude(rho), dtype=float)


def _panel_edges(aperture: ApertureSpec, *modes) -> np.ndarray:
    # [rho_bore, rho_max] cut wherever a profile is not smooth
    lo, hi = aperture.rho_bore, aperture.rho_max
    breaks = np.concatenate([np.empty(0), *(getattr(m, "breaks", ()) for m in modes)])
    cuts = np.sort(breaks[(breaks > lo) & (breaks < hi)])
    # a radius shared by both profiles cuts once (np.unique would import numpy.ma)
    return np.concatenate([[lo], cuts[np.diff(cuts, prepend=lo) > 0], [hi]])


def _nodes(edges: np.ndarray, blocks: int):
    """Nodes and quadrature weights for the measure rho drho: each panel
    cut into ``blocks`` equal blocks, with n-point Gauss-Legendre on each.

    n is 64 for one panel, and 64 shared among more, at least 8 each: a
    panel between two samples of a sampled mode is short, and the mode is
    linear on it.
    """
    cuts = (edges[:-1, None] + np.diff(edges)[:, None] * (np.arange(blocks) / blocks)).ravel()
    cuts = np.append(cuts, edges[-1])
    rho, w = _gauss_legendre_on(max(_GL_NODES // (edges.size - 1), _MIN_PANEL_NODES),
                                cuts[:-1, None], cuts[1:, None])
    rho = rho.ravel()
    return rho, w.ravel() * rho


def _certified(make, score, edges: np.ndarray):
    """(rule, scores) of the first rule whose scores its doubling confirms.

    ``make(rho, quad)`` builds a rule from nodes and quadrature weights, and
    ``score(rule)`` gives a float or an array of overlaps on it. Each
    doubling halves every block; the rule returned is the finer of the
    first two that agree to 1e-12.
    """
    blocks = 1
    last = score(make(*_nodes(edges, blocks)))
    while blocks < _MAX_BLOCKS:
        blocks *= 2
        rule = make(*_nodes(edges, blocks))
        scores = score(rule)
        if np.max(np.abs(scores - last)) <= _ETA_TOL:
            return rule, scores
        last = scores
    raise ConvergenceError(
        f"overlap quadrature did not settle to {_ETA_TOL} with {_MAX_BLOCKS} Gauss-Legendre "
        f"blocks per panel ({edges.size - 1} panels)"
    )


def _normalized(cross, norm_a, norm_b):
    if np.any(norm_a <= 0.0) or np.any(norm_b <= 0.0):
        raise UndefinedOverlapError("zero-norm mode over the aperture annulus")
    return cross / np.sqrt(norm_a * norm_b)


def spatial_overlap(a, b, aperture: ApertureSpec) -> float:
    """Normalized overlap of two radial profiles over the aperture annulus.

    Integrates by composite Gauss-Legendre on [rho_bore, rho_max], cut
    into panels at every sample of a sampled profile: between samples it
    is linear, and past its range it is zero. A first rule of 64 nodes
    (at least 8 per panel) is checked against its doubling, each panel cut
    into two blocks of as many nodes, and the blocks halve until two rules
    agree to 1e-12.

    Raises
    ------
    UndefinedOverlapError
        If either profile has zero norm on the annulus.
    ConvergenceError
        If 16 blocks per panel do not agree with 8.
    """
    def overlap(rule):
        rho, quad = rule
        fa, fb = _amp(a, rho), _amp(b, rho)
        return _normalized(quad @ (fa * fb), quad @ (fa * fa), quad @ (fb * fb))

    _, eta = _certified(lambda rho, quad: (rho, quad), overlap, _panel_edges(aperture, a, b))
    return float(eta)


@dataclass(frozen=True)
class _WaistRule:
    """Overlap of the weighted doughnut q rho exp(-rho^2/w^2) with the dipole
    on one rule, as a function of the waist w.

    Everything but the exponential is evaluated once on the nodes: with W
    the quadrature weights and d the dipole profile, the overlap weights
    W q d rho, the candidate norm weights W q^2 rho^2 and the dipole norm.
    """

    rho2: np.ndarray
    cross: np.ndarray
    self_weight: np.ndarray
    dipole_norm: float

    @classmethod
    def on(cls, rho, quad, weight) -> "_WaistRule":
        q = 1.0 if weight is None else np.asarray(weight(rho), dtype=float)
        d = dipole_profile(rho)
        return cls(rho2=rho * rho, cross=quad * q * d * rho,
                   self_weight=quad * (q * rho) ** 2, dipole_norm=float(quad @ (d * d)))

    def eta(self, waist):
        """eta at a waist, or at each of an array of waists in one product."""
        e = np.exp(-np.multiply.outer(1.0 / np.square(waist), self.rho2))
        return _normalized(e @ self.cross, np.square(e) @ self.self_weight, self.dipole_norm)

    def local(self, waist: float):
        """(eta, d log eta/dw, d2 log eta/dw2) at one waist.

        With g = q rho exp(-rho^2/w^2), dg/dw = g s and d2g/dw2 =
        g (s^2 - 3 s/w), s = 2 rho^2/w^3.
        """
        e = np.exp(-self.rho2 / waist**2)
        s = 2.0 * self.rho2 / waist**3
        powers = np.stack([np.ones_like(s), s, s * s])
        m0, m1, m2 = powers @ (e * self.cross)
        p0, p1, p2 = powers @ (e * e * self.self_weight)
        d1 = m1 / m0 - p1 / p0
        d2 = ((m2 - 3.0 * m1 / waist) / m0 - (m1 / m0) ** 2
              - (2.0 * p2 - 3.0 * p1 / waist) / p0 + 2.0 * (p1 / p0) ** 2)
        return float(_normalized(m0, p0, self.dipole_norm)), float(d1), float(d2)


@dataclass(frozen=True)
class WaistOptimum:
    """Result of a waist optimization."""

    waist: float
    eta: float


def optimize_waist(aperture: ApertureSpec, weight: Callable | None = None) -> WaistOptimum:
    """Doughnut waist maximizing the overlap with the dipole mode.

    ``weight``, a vectorized amplitude weight of rho such as the mirror's
    reflectivity, multiplies every candidate doughnut; it is evaluated
    once on the quadrature nodes. A coarse scan of 65 waists from 0.1 f to
    the rim radius rho_max brackets the maximum, so a secondary shoulder
    cannot trap the search; a rim at or inside 0.1 f raises DomainError.
    The rule is the one whose doubling moves no scanned eta by more than
    1e-12, and it scores the whole scan in one matrix product. Safeguarded
    Newton steps on the analytic derivatives of log eta then place the
    waist to rounding inside the bracket of the best scanned waist. A best
    waist on either end of the scan raises ConvergenceError: the optimum
    may lie outside it, and the scan is not widened.
    """
    if not aperture.rho_max > _WAIST_MIN:
        raise DomainError(f"rim radius rho_max = {aperture.rho_max:g} f leaves no waist "
                          f"scan above {_WAIST_MIN:g} f")
    scan = np.linspace(_WAIST_MIN, aperture.rho_max, _WAIST_SCAN)
    # the doughnut and the dipole are smooth on the annulus: one panel
    rule, etas = _certified(lambda rho, quad: _WaistRule.on(rho, quad, weight),
                            lambda rule: rule.eta(scan), _panel_edges(aperture))
    waist, eta = argmax_bracketed(scan, etas, rule.local)
    return WaistOptimum(waist=waist, eta=eta)


def coupling_strength(omega_fraction: float, eta: float, strehl: float) -> float:
    """Coupling strength G = Omega_fraction * eta^2 * Strehl."""
    for name, v in (("omega_fraction", omega_fraction), ("eta", eta), ("strehl", strehl)):
        if not 0.0 <= v <= 1.0:
            raise DomainError(f"{name} must lie in [0, 1], got {v}")
    return omega_fraction * eta**2 * strehl


def absorption_probability(g: float, eta_t: float, branching: float) -> float:
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
    _, rows = read_table(path, "rho amplitude", lambda *row: tuple(map(float, row)))
    table = np.array(rows, dtype=float).reshape(-1, 2)
    return RadialMode.sampled(table[:, 0], table[:, 1])

