"""Vectorial focal fields of the parabolic mirror and metal-mirror effects.

The mirror converts the entrance-plane field into a converging spherical
wave; the field near the focus follows from a Debye-type diffraction sum
over that wave,

    E(x) = sum_nodes w * A(theta) * e_theta(theta, phi)
           * exp(i 2 pi W(theta, phi)) * exp(i 2 pi s . x),

with positions x in units of the wavelength, propagation direction
s = -r_hat, and aberration W in waves. Quadrature is Gauss-Legendre (or,
for the Strehl, its Gauss-Kronrod extension) in cos(theta) crossed with a
uniform azimuthal grid, so the node weights already contain the
sin(theta) of the solid-angle measure.

Conventions
-----------
theta is measured from the vertex direction (mirror axis pointing from
focus to vertex); a sphere point has unit vector
r_hat = (sin t cos p, sin t sin p, -cos t), giving the polarization basis
e_theta = (cos t cos p, cos t sin p, sin t) and e_phi = (-sin p, cos p, 0).
Radially polarized entrance-plane light maps onto e_theta.

The energy-conserving map from the entrance plane to the sphere is
rho = 2 tan(theta/2) with amplitude apodization sec^2(theta/2); it turns
the ideal dipole-matched profile rho/((rho/2)^2 + 1)^2 into exactly
sin(theta).

Strehl ratios are aberrated over unaberrated on-axis |E_z|^2: an atom
whose dipole lies on the mirror axis couples to E_z alone. Because
defocus-like aberrations shift the axial maximum, both the value at the
shifted maximum (searched over an axial range) and at the nominal focus
are reported, together with the amplitude-weighted RMS of the aberration.
A SphereField stores the tensor-product node grid on its axes: theta,
the weights and the pupil radius have shape (n_theta, 1) and phi has
shape (1, n_phi). The source is a radially polarized mode, so the field
is one real amplitude along e_theta, of shape (n_theta, 1); the Cartesian
(n_theta, n_phi, 3) field is built only on request. Measured data do not
enter here as pixels: a polarization map is scored in the entrance plane
(polarimetry), and a phase map enters as its fitted Zernike expansion.
Aberrations are evaluated on the same axes; a callable's result is a
scalar or a 2-d array that broadcasts to (n_theta, n_phi). On the axis
the phase exp(i 2 pi z cos(theta)) does not depend on phi, so each ring
of constant theta adds one complex number to E_z, its weight times
sin(theta) times amp sum_phi exp(i 2 pi W). Every axial evaluation then
costs O(n_theta), and a scan of many axial positions is one
matrix-vector product. A pass does only what depends on the aberration
on the full grid: its phasor, the ring sums and the RMS deviations run over
blocks of rings of about 64 KiB, so each temporary is a reused buffer
that stays in cache. The RMS weight depends on theta only, so the RMS
comes from per-ring sums. The scan phasors exp(i 2 pi z cos(theta)) of a
search window do not depend on the aberration; they are cached per rule,
cos(theta) interval and window, and a widened window is computed when it
is first needed. Every rule comes from the one cached source in geometry,
computed once per node count and mapped onto the cos(theta) interval of
the mirror annulus. The Strehl takes the mode and the aperture and is
certified on nested rules of its own: n x m = 32 x 64 (n_theta x n_phi,
because the integrand resolves faster in theta than in phi) sets the first
level K_{2n+1} x T_{2m}, the (2n + 1)-point Gauss-Kronrod rule in
cos(theta) times the 2m-point trapezoid rule in phi. One pass on those
nodes gives the fine estimate, and its Gauss n x m subset, the odd rings
and even azimuths of the same phasors, the coarse one that certifies it.
When they disagree, n and m double, up to 513 x 1024 nodes; disagreement
there raises instead of returning a number that depends on the grid.

Reflection off the aluminum surface multiplies the field by the complex
Fresnel coefficient r_p at the local incidence angle theta/2. Its modulus
reweights mode overlaps; its argument acts as a wavefront aberration of
theta alone, which a Strehl pass takes as one exact phase per ring, as
smooth as r_p, so the Gauss-Legendre rule converges on it as on a Zernike
figure.
Optical constants load from provenance-tagged tables only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .errors import ConvergenceError, DomainError, ProvenanceError
from .geometry import (
    ApertureSpec, _gauss_kronrod, _gauss_legendre_on, _rule_on, incidence_angle,
    rho_from_theta, theta_from_rho,
)
from .gridio import read_table
from .search import argmax_bracketed
from .wavefront import ZernikeExpansion, zernike_eval

__all__ = [
    "SphereField",
    "plane_to_sphere",
    "StrehlResult",
    "strehl",
    "OpticalConstants",
    "aluminum",
    "aluminum_rp",
    "reflection_phase_waves",
    "reflectivity_weight",
]

# the Strehl's first level n x m of nested quadrature, n_theta x n_phi: the
# integrand resolves faster in theta than in phi
_FIRST_LEVEL = 32, 64
# the first axial window's half-width and spacing in wavelengths, and its
# doublings at that spacing; the levels of nested quadrature, and their
# tolerances of the Strehl ratios and of the peak offset in wavelengths
_SEARCH_HALFWIDTH, _SEARCH_STEP, _MAX_WIDENINGS = 2.0, 0.05, 3
_LEVELS, _RATIO_TOL, _OFFSET_TOL = 4, 1e-4, 1e-3
# nodes per block of rings in a Strehl pass: a block's complex phasor is
# 64 KiB, so it and its temporaries stay in cache and below the
# allocator's mmap threshold
_BLOCK = 1 << 12


@dataclass(frozen=True)
class SphereField:
    """Converging spherical wave on the quadrature nodes.

    The nodes form a tensor-product grid, stored on its axes: polar angle,
    quadrature weight (including the solid-angle sine) and pupil radius in
    units of the aperture radius have shape (n_theta, 1), and the azimuth
    has shape (1, n_phi). The source is a radially polarized mode, so the
    field is its real amplitude along e_theta, apodization included, of
    shape (n_theta, 1).
    """

    theta: np.ndarray
    phi: np.ndarray
    weight: np.ndarray
    rho_unit: np.ndarray
    amp_theta: np.ndarray

    @property
    def n_theta(self) -> int:
        return self.theta.shape[0]

    @property
    def n_phi(self) -> int:
        return self.phi.shape[1]

    @property
    def efield(self) -> np.ndarray:
        """Cartesian vector amplitude, shape (n_theta, n_phi, 3), built on demand."""
        a, ct = self.amp_theta, np.cos(self.theta)
        parts = a * ct * np.cos(self.phi), a * ct * np.sin(self.phi), a * np.sin(self.theta)
        return np.stack(np.broadcast_arrays(*parts), axis=-1)


def plane_to_sphere(source, aperture: ApertureSpec, n_theta: int, n_phi: int) -> SphereField:
    """Map an entrance-plane mode onto the converging sphere.

    ``source`` is a mode, an object with ``amplitude(rho)``: a RadialMode
    (radially polarized by convention) or a WeightedMode. The angular
    domain is the mirror annulus between bore and rim, on n_theta
    Gauss-Legendre nodes in cos(theta) times n_phi uniform azimuths.
    Anything else raises DomainError. strehl builds its own nodes and
    needs no field.
    """
    if n_theta < 2 or n_phi < 1:
        raise DomainError("need at least 2 polar and 1 azimuthal node")
    return _sphere_on(source, aperture, _gauss_legendre_on(n_theta, *_cos_interval(aperture)),
                      n_phi)


def _sphere_on(source, aperture: ApertureSpec, rule, n_phi: int) -> SphereField:
    """The mode on the rule's (cos theta nodes, weights) times n_phi uniform azimuths."""
    if not hasattr(source, "amplitude"):
        raise DomainError(f"cannot map {type(source).__name__} onto the sphere")
    u, wu = rule
    theta = np.arccos(u)[:, None]
    phi = (np.arange(n_phi) * 2.0 * math.pi / n_phi)[None, :]
    weight = wu[:, None] * (2.0 * math.pi / n_phi)
    rho = rho_from_theta(theta)
    apod = 1.0 / np.cos(0.5 * theta) ** 2
    return SphereField(
        theta=theta, phi=phi, weight=weight, rho_unit=rho / aperture.rho_max,
        amp_theta=np.asarray(source.amplitude(rho), dtype=float) * apod,
    )


def _cos_interval(aperture: ApertureSpec):
    """The mirror annulus as the cos(theta) interval (lo, hi) of the quadrature."""
    interval = aperture.angle_interval()
    return math.cos(interval.theta_max), math.cos(interval.theta_min)


def _resolve_aberration(field: SphereField, aberration):
    """Aberration in waves on the (n_theta, n_phi) node grid."""
    shape = (field.n_theta, field.n_phi)
    if aberration is None:
        return np.zeros(shape)
    if isinstance(aberration, ZernikeExpansion):
        return zernike_eval(aberration, field.rho_unit, field.phi)
    if not callable(aberration):
        raise DomainError(f"cannot interpret {type(aberration).__name__} as an aberration; "
                          "pass a callable W(theta, phi) in waves instead")
    w = np.asarray(aberration(field.theta, field.phi), dtype=float)
    # a 1-d result would broadcast along phi alone, whatever axis it meant
    if w.ndim in (0, 2):
        try:
            return np.broadcast_to(w, shape)
        except ValueError:
            pass
    raise DomainError(
        f"aberration of shape {w.shape} is neither a scalar nor a 2-d array "
        f"that broadcasts to the {shape} node grid"
    )


@dataclass(frozen=True)
class StrehlResult:
    """Strehl ratio with its axial-search and convergence context.

    Each ratio is of the on-axis |E_z|^2, the field an axial dipole
    couples to. ratio is taken at its axial maximum, nominal at the focal
    point itself; peak_offset_lambda locates the maximum, to rounding.
    rms_waves is the aberration RMS weighted by each node's contribution to
    the on-axis field (quadrature weight times axial field amplitude).
    n_theta x n_phi is the fine grid of the certified level, (2n + 1) x 2m
    for a level n x m: 65 x 128 from the default 32 x 64 field.
    """

    ratio: float
    nominal: float
    peak_offset_lambda: float
    rms_waves: float
    n_theta: int
    n_phi: int


def _strehl_level(field: SphereField, lo: float, hi: float, aberration, coating=None):
    """The fine and the coarse Strehl estimate of one nested pass.

    ``field`` lies on the nested level K_{2n+1} x T_{2m} of strehl, its
    Kronrod rule on the cos(theta) interval [lo, hi]. W, the ring phasors
    and the ring sums are computed once on its nodes; the fine estimate
    sums every ring and azimuth, and the coarse one the Gauss rings (odd
    ring indices, Gauss weights) and the even azimuths.
    Returns the fine StrehlResult and the coarse (ratio, nominal,
    peak_offset_lambda).
    """
    n, m = field.n_theta // 2, field.n_phi // 2
    w = _resolve_aberration(field, aberration)
    theta = field.theta[:, 0]
    # the mirror's reflection phase depends on theta alone: one phase per ring
    a = np.zeros(field.n_theta) if coating is None else reflection_phase_waves(theta, *coating)
    st, amp = np.sin(theta), field.amp_theta[:, 0]
    k = 2.0 * math.pi * np.cos(theta)
    # the RMS weight depends on theta only, so the mean comes from ring
    # sums; the weights cannot all vanish once the reference field is nonzero
    q = field.weight[:, 0] * np.abs(amp * st)
    qsum = field.n_phi * float(q.sum())
    mean = float(q @ (w.sum(axis=1) + field.n_phi * a)) / qsum
    # W + a - mean is W less the per-ring centre mean - a
    sums, even, spread = _ring_pass(w, amp * np.exp(2j * math.pi * a), mean - a)

    def axial(rings, kr, z):
        # |E_z|^2 and its first two derivatives in z from the ring sums S:
        # E_z(z) = sum_rings exp(i k z) S, k = 2 pi cos theta
        p = np.exp(1j * (kr * z))
        kp = kr * p
        e, e1, s2 = complex(p @ rings), 1j * complex(kp @ rings), complex((kr * kp) @ rings)
        return (e.real * e.real + e.imag * e.imag, 2.0 * (e.conjugate() * e1).real,
                2.0 * (e1.real * e1.real + e1.imag * e1.imag - (e.conjugate() * s2).real))

    def estimate(ring_weight, sums, n_az, rows):
        # an axial dipole couples to E_z = sum w amp sin(theta) exp(i 2 pi (W + z cos theta))
        # alone: each ring adds its weight times sin(theta) times its pass sum.
        # Unaberrated, each ring sums to n_az times its amplitude: bit-equal to
        # the pass on W = 0, so the ratios are then 1 at the focus and at most
        # 1 beside it, never 1 plus rounding
        kr = k[rows]
        denom = axial(ring_weight * (n_az * amp[rows]), kr, 0.0)[0]
        if denom <= 0.0:
            raise DomainError("on-axis reference field vanishes; Strehl undefined")
        rings = ring_weight * sums
        # the axial main lobe is 1/(hi - lo) lambda wide: a scanned maximum
        # within two lobes of an end may be a sidelobe of a focus outside the
        # window; the middle third of a window stays clear, or a shallow
        # mirror's lobe fills it
        lobes = 2.0 / (hi - lo)
        for widening in range(_MAX_WIDENINGS + 1):
            halfwidth = _SEARCH_HALFWIDTH * 2**widening
            points = round(2.0 * halfwidth / _SEARCH_STEP) + 1
            reach = min(lobes, 2.0 * halfwidth / 3.0)
            margin = int(reach / _SEARCH_STEP)
            # |E_z|^2 on the window, whose phasors are computed once per rule;
            # einsum, not a BLAS matrix-vector product: OpenBLAS threads that
            # at these sizes, and its idle thread then spins on the second core
            scan = _axial_scan(n, lo, hi, -halfwidth, halfwidth, points)[:, rows]
            e = np.einsum("zt,t->z", scan, rings)
            values = e.real**2 + e.imag**2
            if margin < int(np.argmax(values)) < points - 1 - margin:
                break
        else:
            raise ConvergenceError(
                f"axial intensity maximum within {reach:.3g} lambda of the edge of the "
                f"search window [-{halfwidth:g}, {halfwidth:g}] lambda "
                f"at {field.n_theta}x{field.n_phi} quadrature nodes")
        z_peak, peak = argmax_bracketed(np.linspace(-halfwidth, halfwidth, points), values,
                                        lambda z: axial(rings, kr, z))
        return peak / denom, axial(rings, kr, 0.0)[0] / denom, z_peak

    fine = estimate(field.weight[:, 0] * st, sums, 2 * m, slice(None))
    gauss = _gauss_legendre_on(n, lo, hi)[1] * (2.0 * math.pi / m)
    coarse = estimate(gauss * st[1::2], even[1::2], m, slice(1, None, 2))
    return StrehlResult(*fine, rms_waves=math.sqrt(float(q @ spread) / qsum),
                        n_theta=field.n_theta, n_phi=field.n_phi), coarse


def _ring_pass(w, amp, centre):
    """Per-ring sums of the aberrated amplitude and of (W - centre)^2.

    Returns the (n_theta,) sums amp * sum_phi exp(i 2 pi W) over every
    azimuth and over the even ones, and of the squared deviation; amp and
    centre have shape (n_theta,). The rings go in blocks of about _BLOCK
    nodes, so every temporary is a reused block buffer.
    """
    n_theta, n_phi = w.shape
    rows = max(1, _BLOCK // n_phi)
    arg = np.empty((min(rows, n_theta), n_phi))
    phasor = np.empty(arg.shape, dtype=complex)
    sums = np.empty(n_theta, dtype=complex)
    even = np.empty(n_theta, dtype=complex)
    spread = np.empty(n_theta)
    for start in range(0, n_theta, rows):
        block = slice(start, start + rows)
        a, p = arg[:n_theta - start], phasor[:n_theta - start]
        np.multiply(w[block], 2.0 * math.pi, out=a)
        np.cos(a, out=p.real)
        np.sin(a, out=p.imag)
        np.add.reduce(p, axis=1, out=sums[block])
        np.add.reduce(p[:, ::2], axis=1, out=even[block])
        np.subtract(w[block], centre[block, None], out=a)
        np.sum(np.square(a, out=a), axis=1, out=spread[block])
    sums *= amp
    even *= amp
    return sums, even, spread


@lru_cache(maxsize=8)
def _axial_scan(n: int, lo: float, hi: float, z0: float, z1: float, points: int):
    """exp(i 2 pi z cos(theta)) on an axial scan window, shape (points, 2n + 1).

    The rows are z = linspace(z0, z1, points); the columns are the nodes of
    the (2n + 1)-point Gauss-Kronrod rule that strehl puts on the
    cos(theta) interval [lo, hi], and its odd columns are those of the
    n-point Gauss rule. The phasors do not depend on the aberration, so
    each rule and window is computed once; the array is shared by every
    pass, so it is read-only.
    """
    cos_theta = np.cos(np.arccos(_rule_on(_gauss_kronrod(n), lo, hi)[0]))
    out = np.exp(2j * math.pi * np.multiply.outer(np.linspace(z0, z1, points), cos_theta))
    out.flags.writeable = False
    return out


def _lossless_kink(aperture: ApertureSpec, coating):
    """Refuse a lossless coating whose r_p kinks inside the mirror annulus.

    With k = 0 and n < 1, arg(r_p) has a kink at the critical angle
    theta_c = 2 asin(n), where the local incidence angle theta/2 reaches
    total internal reflection; no polynomial rule resolves it.
    """
    wavelength_nm, constants = coating
    index = constants.index(wavelength_nm)
    if index.imag != 0.0 or index.real >= 1.0:
        return
    theta_c = 2.0 * math.asin(index.real)
    interval = aperture.angle_interval()
    if interval.theta_min < theta_c < interval.theta_max:
        raise DomainError(
            f"lossless optical constants (n = {index.real:g}, k = 0 at {wavelength_nm:g} nm): "
            f"arg(r_p) kinks at the critical angle theta_c = {math.degrees(theta_c):.4g} deg, "
            f"inside the mirror annulus [{math.degrees(interval.theta_min):.4g}, "
            f"{math.degrees(interval.theta_max):.4g}] deg; the Strehl quadrature cannot "
            "resolve it")


def strehl(mode, aperture: ApertureSpec, aberration=None, coating=None) -> StrehlResult:
    """Strehl ratio of the mode's aberrated focus, certified on nested rules.

    The ratio is of the on-axis |E_z|^2, aberrated over unaberrated: an
    atom whose dipole lies on the mirror axis couples to E_z alone, so
    omega_fraction * eta^2 * ratio is its coupling to the aberrated wave.
    The |E_z|^2 maximum is scanned along the axis over plus/minus 2
    wavelengths, 0.05 lambda apart. A scanned maximum within two main
    lobes, 2/(cos theta_min - cos theta_max) wavelengths, of either end may
    be a sidelobe of a focus outside the window, so the window doubles at
    the same spacing, at most three times, before raising ConvergenceError.
    The margin is at most a third of the window, so a shallow mirror, whose
    main lobe is wider than the window, keeps a maximum in its middle.
    The nominal-focus ratio is reported alongside.

    ``mode`` is what plane_to_sphere takes, an object with
    ``amplitude(rho)``; anything else raises DomainError. On the mirror
    annulus of ``aperture`` it is summed on a ladder of nested rules, from
    n x m = 32 x 64: the (2n + 1)-point Gauss-Kronrod rule in cos(theta),
    which contains the n-point Gauss rule, times the 2m-point trapezoid
    rule in phi, which contains the m-point one. One pass on those nodes
    gives the fine estimate and, from the Gauss rings and the even
    azimuths, the coarse one. When they agree within 1e-4 in the ratio
    and the nominal ratio and 1e-3 wavelengths in the peak offset, the
    fine estimate is returned; otherwise n and m double, three times at
    most, before raising ConvergenceError rather than returning a
    grid-dependent number. A smooth figure is certified on 65 x 128
    nodes, and the last grid tried is 513 x 1024. The result reports the
    fine grid.

    ``coating`` is None or the mirror metal's (wavelength_nm,
    OpticalConstants): its reflection_phase_waves then adds to the
    aberration on each ring. The reference stays unreflected. A lossless
    coating (k = 0, n < 1) whose critical angle 2 asin(n) lies inside the
    mirror annulus raises DomainError: its phase kinks there.

    ``aberration`` is None, a ZernikeExpansion or a callable W(theta, phi)
    in waves, evaluated anew on every grid. The callable receives the grid
    axes, theta of shape (n_theta, 1) and phi of shape (1, n_phi), and
    returns a scalar or a 2-d array that broadcasts to (n_theta, n_phi);
    any other shape, a 1-d vector included, raises DomainError, and so
    does any other object, such as an array of node samples or a phase map.
    """
    if coating is not None:
        _lossless_kink(aperture, coating)
    lo, hi = _cos_interval(aperture)
    n, m = _FIRST_LEVEL
    for _ in range(_LEVELS):
        # the Kronrod rule holds the Gauss one at its odd rings, and 2m
        # azimuths hold m at the even ones: one pass gives both estimates
        field = _sphere_on(mode, aperture, _rule_on(_gauss_kronrod(n), lo, hi), 2 * m)
        fine, coarse = _strehl_level(field, lo, hi, aberration, coating)
        if (abs(fine.ratio - coarse[0]) < _RATIO_TOL
                and abs(fine.nominal - coarse[1]) < _RATIO_TOL
                and abs(fine.peak_offset_lambda - coarse[2]) < _OFFSET_TOL):
            return fine
        n, m = 2 * n, 2 * m
    raise ConvergenceError(
        f"Strehl ratio or axial peak of the Gauss and Kronrod estimates still apart by more "
        f"than {_RATIO_TOL} (peak: {_OFFSET_TOL} lambda) at {fine.n_theta}x{fine.n_phi} "
        "quadrature nodes"
    )


@dataclass(frozen=True)
class OpticalConstants:
    """Tabulated complex refractive index n + i k against wavelength."""

    wavelength_nm: np.ndarray
    n: np.ndarray
    k: np.ndarray
    source: str

    def index(self, wavelength_nm: float) -> complex:
        """Linear interpolation within the table range."""
        lam = self.wavelength_nm
        if not lam[0] <= wavelength_nm <= lam[-1]:
            raise DomainError(
                f"{wavelength_nm} nm outside the tabulated range "
                f"[{lam[0]}, {lam[-1]}] nm"
            )
        return complex(np.interp(wavelength_nm, lam, self.n),
                       np.interp(wavelength_nm, lam, self.k))

    @classmethod
    def from_file(cls, path) -> "OpticalConstants":
        """Read 'wavelength_nm n k' rows; a '# source:' header is mandatory."""
        header, rows = read_table(path, "wavelength_nm n k", lambda *row: tuple(map(float, row)))
        source = header.get("source")
        if not source:
            raise ProvenanceError(
                f"{path}: no '# source:' line; refusing optical constants "
                "without a citation"
            )
        if len(rows) < 2:
            raise DomainError(f"{path}: need at least two table rows")
        table = np.array(rows, dtype=float)
        if not np.all(np.isfinite(table)):
            raise DomainError(f"{path}: optical constants must be finite")
        if np.any(np.diff(table[:, 0]) <= 0):
            raise DomainError(f"{path}: wavelengths must increase strictly")
        return cls(wavelength_nm=table[:, 0], n=table[:, 1], k=table[:, 2], source=source)


@lru_cache(maxsize=1)
def aluminum() -> OpticalConstants:
    """Optical constants of aluminum from the shipped data table."""
    with resources.as_file(resources.files("dipolemirror.data") / "aluminum_nk.txt") as p:
        return OpticalConstants.from_file(p)


def aluminum_rp(theta, wavelength_nm: float, constants: OpticalConstants):
    """Complex Fresnel r_p on the mirror at polar angle(s) theta.

    The local incidence angle is theta/2; at the vertex this reduces to
    the normal-incidence coefficient (n - 1)/(n + 1).
    """
    n = constants.index(wavelength_nm)
    alpha = incidence_angle(theta)
    ca = np.cos(alpha)
    root = np.sqrt(n**2 - np.sin(alpha) ** 2 + 0j)
    return (n**2 * ca - root) / (n**2 * ca + root)


def reflection_phase_waves(theta, wavelength_nm: float, constants: OpticalConstants):
    """Phase of r_p in waves relative to the vertex: arg(r_p(theta) conj(r_p(0)))/2pi.

    Each value is the exact principal value. On an absorbing metal (k > 0)
    it stays within half a wave of the vertex's up to grazing incidence, so
    it is the phase unwrapped from the vertex and needs no 2 pi branch; a
    lossless table (k = 0, n < 1) kinks at its critical angle instead.
    """
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < 0) or np.any(theta >= math.pi):
        raise DomainError("theta must lie in [0, pi)")
    vertex = np.conj(aluminum_rp(0.0, wavelength_nm, constants))
    out = np.angle(aluminum_rp(theta, wavelength_nm, constants) * vertex) / (2.0 * math.pi)
    return float(out) if np.ndim(theta) == 0 else out


def reflectivity_weight(wavelength_nm: float, constants: OpticalConstants):
    """Callable |r_p| as a function of entrance-plane radius rho."""

    def weight(rho):
        return np.abs(aluminum_rp(theta_from_rho(rho), wavelength_nm, constants))

    return weight
