"""Vectorial focal fields of the parabolic mirror and metal-mirror effects.

The mirror converts the entrance-plane field into a converging spherical
wave; the field near the focus follows from a Debye-type diffraction sum
over that wave,

    E(x) = sum_nodes w * A(theta, phi) * e(theta, phi)
           * exp(i 2 pi W(theta, phi)) * exp(i 2 pi s . x),

with positions x in units of the wavelength, propagation direction
s = -r_hat, and aberration W in waves. Quadrature is Gauss-Legendre in
cos(theta) crossed with a uniform azimuthal grid, so the node weights
already contain the sin(theta) of the solid-angle measure.

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

Strehl ratios are aberrated over unaberrated focal intensity. Because
defocus-like aberrations shift the axial maximum, both the value at the
shifted maximum (searched over an axial range) and at the nominal focus
are reported, together with the amplitude-weighted RMS of the aberration.
On the axis the phase exp(i 2 pi z cos(theta)) does not depend on phi, so
the aberrated node amplitudes are summed over each ring of constant theta
once; every axial evaluation then costs O(n_theta), and a scan of many
axial positions is one matrix product. Aberrations are evaluated on the
axes of the tensor-product grid, theta of shape (n_theta, 1) against phi
of shape (1, n_phi). The quadrature is doubled to confirm the ratio and
the peak position; disagreement raises instead of returning a number that
depends on the grid. ``focal_field`` sums over every node and is the
brute-force reference for the ring sums.

Reflection off the aluminum surface multiplies the field by the complex
Fresnel coefficient r_p at the local incidence angle theta/2. Its modulus
reweights mode overlaps; its argument acts as a wavefront aberration.
Optical constants load from provenance-tagged tables only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np
from scipy.interpolate import RegularGridInterpolator
from scipy.ndimage import distance_transform_edt

from .errors import ConvergenceError, CoverageError, DomainError, ProvenanceError
from .geometry import ApertureSpec, incidence_angle, rho_from_theta, theta_from_rho
from .gridio import read_table
from .modes import RadialMode, WeightedMode, optimize_waist, spatial_overlap
from .polarimetry import PolarizationMap
from .search import argmax_bracketed
from .wavefront import PhaseMap, ZernikeExpansion, zernike_eval

__all__ = [
    "SphereField",
    "plane_to_sphere",
    "sphere_overlap",
    "focal_field",
    "StrehlResult",
    "strehl",
    "OpticalConstants",
    "aluminum",
    "aluminum_rp",
    "reflection_phase_waves",
    "AluminumFocusStudy",
    "aluminum_phase_study",
    "reflectivity_weight",
    "reflectivity_weighted_overlap",
    "reflectivity_weighted_optimum",
    "WeightedOptimum",
]

_DEFAULT_NODES = 256
# target element count per chunk of the Debye phase matrix (memory bound)
_CHUNK_ELEMENTS = 4_000_000
# doublings of the axial search window; the quadrature-convergence
# tolerances of the Strehl ratios and of the peak offset in wavelengths
_MAX_WIDENINGS = 3
_RATIO_TOL = 1e-4
_OFFSET_TOL = 1e-3
# points on which the reflection phase is unwrapped
_PHASE_GRID = 4096


@dataclass(frozen=True)
class SphereField:
    """Converging spherical wave on the quadrature nodes.

    Flat arrays of length n_theta*n_phi: polar angle, azimuth, quadrature
    weight (including the solid-angle sine), pupil radius in units of the
    aperture radius, and the complex vector amplitude. ``source`` and
    ``aperture`` are retained so the field can be rebuilt at a different
    resolution for convergence checks.
    """

    theta: np.ndarray
    phi: np.ndarray
    weight: np.ndarray
    rho_unit: np.ndarray
    efield: np.ndarray
    aperture: ApertureSpec
    source: object
    n_theta: int
    n_phi: int

    def with_resolution(self, n_theta: int, n_phi: int) -> "SphereField":
        return plane_to_sphere(self.source, self.aperture, n_theta=n_theta, n_phi=n_phi)

    def propagation(self) -> np.ndarray:
        """Unit propagation vectors s = -r_hat, shape (nodes, 3)."""
        st, ct = np.sin(self.theta), np.cos(self.theta)
        sp, cp = np.sin(self.phi), np.cos(self.phi)
        return np.column_stack([-st * cp, -st * sp, ct])


def _sphere_basis(theta, phi):
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    e_theta = np.column_stack([ct * cp, ct * sp, st])
    e_phi = np.column_stack([-sp, cp, np.zeros_like(sp)])
    return e_theta, e_phi


def _nan_filled(values, mask):
    # replace masked-out pixels by their nearest valid neighbor
    if mask.all():
        return values
    idx = distance_transform_edt(~mask, return_distances=False, return_indices=True)
    return values[tuple(idx)]


def _pmap_components(pmap: PolarizationMap):
    """Canonical transverse Jones components per pixel, NaN-free.

    The half-plane sign convention of the polarimetry module makes the
    components of a near-radial beam smooth across the psi fold, so they
    interpolate safely (angles themselves do not).
    """
    _, phi = pmap.grid_polar()
    sign = np.where(np.sin(phi) >= 0.0, 1.0, -1.0)
    amp = np.sqrt(np.maximum(pmap.s0, 0.0))
    cpsi, spsi = np.cos(pmap.psi), np.sin(pmap.psi)
    cchi, schi = np.cos(pmap.chi), np.sin(pmap.chi)
    jx = sign * amp * (cchi * cpsi - 1j * schi * spsi)
    jy = sign * amp * (cchi * spsi + 1j * schi * cpsi)
    jx = np.where(pmap.mask, jx, 0.0)
    jy = np.where(pmap.mask, jy, 0.0)
    return _nan_filled(jx, pmap.mask), _nan_filled(jy, pmap.mask)


def _pmap_on_sphere(pmap: PolarizationMap, rho):
    """Interpolated (e_radial, e_azimuthal) at pupil radii rho and azimuths."""
    rows, cols = pmap.s0.shape
    jx, jy = _pmap_components(pmap)
    grid = (np.arange(rows, dtype=float), np.arange(cols, dtype=float))

    def interp(arr):
        return RegularGridInterpolator(grid, arr, bounds_error=False, fill_value=np.nan)

    return interp(jx), interp(jy), interp(pmap.mask.astype(float))


def plane_to_sphere(
    source,
    aperture: ApertureSpec,
    n_theta: int = _DEFAULT_NODES,
    n_phi: int = _DEFAULT_NODES,
) -> SphereField:
    """Map an entrance-plane field onto the converging sphere.

    ``source`` is a RadialMode (radially polarized by convention) or a
    measured PolarizationMap. The angular domain is the mirror annulus
    between bore and rim. A PolarizationMap must cover that annulus;
    otherwise a CoverageError reports the missing fraction.
    """
    if n_theta < 2 or n_phi < 1:
        raise DomainError("need at least 2 polar and 1 azimuthal node")
    interval = aperture.angle_interval()
    u, wu = np.polynomial.legendre.leggauss(n_theta)
    ulo = math.cos(interval.theta_max)
    uhi = math.cos(interval.theta_min)
    uu = 0.5 * (uhi - ulo) * u + 0.5 * (uhi + ulo)
    wu = 0.5 * (uhi - ulo) * wu
    theta_1d = np.arccos(uu)
    phi_1d = np.arange(n_phi) * 2.0 * math.pi / n_phi
    w_phi = 2.0 * math.pi / n_phi

    theta = np.repeat(theta_1d, n_phi)
    phi = np.tile(phi_1d, n_theta)
    weight = np.repeat(wu, n_phi) * w_phi
    rho = rho_from_theta(theta)
    rho_unit = rho / aperture.rho_max
    apod = 1.0 / np.cos(0.5 * theta) ** 2
    e_theta, e_phi = _sphere_basis(theta, phi)

    if isinstance(source, PolarizationMap):
        fx, fy, fmask = _pmap_on_sphere(source, rho)
        x = rho * np.cos(phi)
        y = rho * np.sin(phi)
        pts = np.column_stack(
            [source.center[0] + y / source.pixel_scale,
             source.center[1] + x / source.pixel_scale]
        )
        cov = fmask(pts)
        bad = ~np.isfinite(cov) | (cov < 0.25)
        if bad.any():
            frac = float(bad.mean())
            raise CoverageError(
                f"measured map covers only {1 - frac:.1%} of the mirror annulus",
                missing_fraction=frac,
            )
        jx = fx(pts)
        jy = fy(pts)
        cp, sp = np.cos(phi), np.sin(phi)
        e_r = jx * cp + jy * sp
        e_a = -jx * sp + jy * cp
        efield = (apod * e_r)[:, None] * e_theta + (apod * e_a)[:, None] * e_phi
    elif hasattr(source, "amplitude"):
        amp = np.asarray(source.amplitude(rho), dtype=float) * apod
        efield = amp[:, None] * e_theta.astype(complex)
    else:
        raise DomainError(f"cannot map {type(source).__name__} onto the sphere")

    return SphereField(
        theta=theta, phi=phi, weight=weight, rho_unit=rho_unit,
        efield=np.asarray(efield, dtype=complex),
        aperture=aperture, source=source, n_theta=n_theta, n_phi=n_phi,
    )


def sphere_overlap(a: SphereField, b: SphereField) -> float:
    """Normalized overlap of two sphere fields on a common node set.

    Equals the entrance-plane overlap of the corresponding modes; used as
    a cross-check of the plane-to-sphere map.
    """
    if a.theta.shape != b.theta.shape or not np.allclose(a.theta, b.theta):
        raise DomainError("sphere fields must share one quadrature grid")
    num = float(np.real(np.sum(a.weight * np.sum(a.efield * np.conj(b.efield), axis=1))))
    na = float(np.sum(a.weight * np.sum(np.abs(a.efield) ** 2, axis=1)))
    nb = float(np.sum(b.weight * np.sum(np.abs(b.efield) ** 2, axis=1)))
    if na <= 0 or nb <= 0:
        raise DomainError("zero-energy sphere field in overlap")
    return num / math.sqrt(na * nb)


def _node_axes(field: SphereField):
    """Polar angle (n_theta, 1), azimuth (1, n_phi) and pupil radius
    (n_theta, 1): the axes of the tensor-product node grid."""
    theta = field.theta[:: field.n_phi, None]
    return theta, field.phi[None, : field.n_phi], field.rho_unit[:: field.n_phi, None]


def _resolve_aberration(field: SphereField, aberration):
    """Aberration in waves on the (n_theta, n_phi) node grid."""
    shape = (field.n_theta, field.n_phi)
    if aberration is None:
        return np.zeros(shape)
    theta, phi, rho_unit = _node_axes(field)
    if isinstance(aberration, ZernikeExpansion):
        return zernike_eval(aberration, rho_unit, phi)
    if isinstance(aberration, PhaseMap):
        rows, cols = aberration.values.shape
        filled = _nan_filled(np.where(aberration.mask, aberration.values, 0.0),
                             aberration.mask)
        grid = (np.arange(rows, dtype=float), np.arange(cols, dtype=float))
        x = (rho_unit * np.cos(phi)).ravel()
        y = (rho_unit * np.sin(phi)).ravel()
        # unit square [-1, 1]^2 of pixel centers; the clamp keeps rim nodes
        # inside the half-pixel border where no center exists
        pts = np.column_stack([
            np.clip((y + 1.0) * rows / 2.0 - 0.5, 0.0, rows - 1.0),
            np.clip((x + 1.0) * cols / 2.0 - 0.5, 0.0, cols - 1.0),
        ])
        cov = RegularGridInterpolator(grid, aberration.mask.astype(float),
                                      bounds_error=False, fill_value=0.0)(pts)
        bad = cov < 0.25
        if bad.any():
            raise CoverageError(
                f"phase map covers only {1 - float(bad.mean()):.1%} of the pupil annulus",
                missing_fraction=float(bad.mean()),
            )
        return RegularGridInterpolator(grid, filled, bounds_error=False,
                                       fill_value=0.0)(pts).reshape(shape)
    if isinstance(aberration, np.ndarray):
        w = np.asarray(aberration, dtype=float)
        if w.shape == field.theta.shape:
            return w.reshape(shape)
        if w.shape == shape:
            return w
        raise DomainError(
            f"aberration array shape {w.shape} matches neither the node vector "
            f"nor ({field.n_theta}, {field.n_phi})"
        )
    if callable(aberration):
        w = np.asarray(aberration(theta, phi), dtype=float)
        try:
            return np.broadcast_to(w, shape)
        except ValueError:
            raise DomainError(
                f"callable aberration returned shape {w.shape}, which does not "
                f"broadcast to the {shape} node grid"
            ) from None
    raise DomainError(f"cannot interpret {type(aberration).__name__} as an aberration")


def focal_field(field: SphereField, positions_lambda, aberration=None) -> np.ndarray:
    """Complex Cartesian field at positions given in wavelength units.

    positions_lambda has shape (n, 3) or (3,); the result matches with a
    trailing component axis. The overall normalization is arbitrary but
    consistent between calls on the same quadrature grid. ``aberration``
    takes the forms ``strehl`` documents; a callable is called on the grid
    axes, theta (n_theta, 1) and phi (1, n_phi), and its result must
    broadcast to (n_theta, n_phi).
    """
    pos = np.asarray(positions_lambda, dtype=float)
    single = pos.ndim == 1
    pos = np.atleast_2d(pos)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise DomainError("positions must have shape (n, 3)")
    w = _resolve_aberration(field, aberration).ravel()
    amp = field.efield * (field.weight * np.exp(2j * math.pi * w))[:, None]
    s = field.propagation()
    n_nodes = s.shape[0]
    chunk = max(1, _CHUNK_ELEMENTS // n_nodes)
    out = np.empty((pos.shape[0], 3), dtype=complex)
    for k in range(0, pos.shape[0], chunk):
        block = pos[k : k + chunk]
        phase = np.exp(2j * math.pi * (s @ block.T))
        out[k : k + chunk] = phase.T @ amp
    return out[0] if single else out


@dataclass(frozen=True)
class StrehlResult:
    """Strehl ratio with its axial-search and convergence context.

    ratio is taken at the axial intensity maximum, nominal at the focal
    point itself; peak_offset_lambda locates the maximum. rms_waves is the
    aberration RMS weighted by each node's contribution to the on-axis
    field (quadrature weight times axial field amplitude).
    """

    ratio: float
    nominal: float
    peak_offset_lambda: float
    rms_waves: float
    n_theta: int
    n_phi: int


def _strehl_once(field: SphereField, aberration, halfwidth: float) -> StrehlResult:
    w = _resolve_aberration(field, aberration)
    amp0 = (field.efield * field.weight[:, None]).reshape(field.n_theta, field.n_phi, 3)
    # the axial phase depends on theta only: sum each ring over phi once
    rings0 = amp0.sum(axis=1)
    rings = (np.exp(2j * math.pi * w)[:, None, :] @ amp0)[:, 0, :]
    cos_theta = np.cos(_node_axes(field)[0][:, 0])

    def intensity(sums, z):
        # |E|^2 at axial position(s) z from (n_theta, 3) ring sums
        e = np.exp(2j * math.pi * np.multiply.outer(z, cos_theta)) @ sums
        return np.sum(e.real**2 + e.imag**2, axis=-1)

    denom = float(intensity(rings0, 0.0))
    if denom <= 0.0:
        raise DomainError("on-axis reference field vanishes; Strehl undefined")
    nominal = float(intensity(rings, 0.0)) / denom

    try:
        z_peak, peak = argmax_bracketed(lambda z: intensity(rings, z),
                                        np.linspace(-halfwidth, halfwidth, 81), 1e-6,
                                        widenings=_MAX_WIDENINGS)
    except ConvergenceError as exc:
        raise ConvergenceError(f"axial intensity {exc} lambda at "
                               f"{field.n_theta}x{field.n_phi} quadrature nodes") from None
    ratio = peak / denom

    q = (field.weight * np.abs(field.efield[:, 2])).reshape(w.shape)
    qsum = float(q.sum())
    if qsum > 0.0:
        mean = float(np.sum(q * w)) / qsum
        rms = math.sqrt(float(np.sum(q * (w - mean) ** 2)) / qsum)
    else:
        rms = float("nan")
    return StrehlResult(
        ratio=ratio, nominal=nominal, peak_offset_lambda=z_peak,
        rms_waves=rms, n_theta=field.n_theta, n_phi=field.n_phi,
    )


def strehl(
    field: SphereField,
    aberration=None,
    search_halfwidth_lambda: float = 2.0,
    max_doublings: int = 2,
) -> StrehlResult:
    """Strehl ratio of the aberrated focus, quadrature-verified.

    The intensity maximum is searched along the axis over plus/minus
    ``search_halfwidth_lambda``; a maximum on the edge of that window
    doubles it, at most three times, before raising ConvergenceError. The
    nominal-focus ratio is reported alongside. The quadrature is doubled
    until the ratio and the nominal ratio move by less than 1e-4 and the
    peak offset by less than 1e-3 wavelengths; failing that raises
    ConvergenceError rather than returning a grid-dependent number.

    ``aberration`` is a ZernikeExpansion, a PhaseMap, per-node samples of
    shape (n_theta*n_phi,) or (n_theta, n_phi), or a callable W(theta, phi)
    in waves. The callable receives the grid axes, theta of shape
    (n_theta, 1) and phi of shape (1, n_phi), and its result must
    broadcast to (n_theta, n_phi); otherwise DomainError.
    """
    res = _strehl_once(field, aberration, search_halfwidth_lambda)
    for _ in range(max_doublings):
        field = field.with_resolution(2 * field.n_theta, 2 * field.n_phi)
        fine = _strehl_once(field, aberration, search_halfwidth_lambda)
        if (abs(fine.ratio - res.ratio) < _RATIO_TOL
                and abs(fine.nominal - res.nominal) < _RATIO_TOL
                and abs(fine.peak_offset_lambda - res.peak_offset_lambda) < _OFFSET_TOL):
            return fine
        res = fine
    raise ConvergenceError(
        f"Strehl ratio or axial peak still moving by more than {_RATIO_TOL} "
        f"(peak: {_OFFSET_TOL} lambda) at {field.n_theta}x{field.n_phi} quadrature nodes"
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
        header, rows = read_table(path, "wavelength_nm n k")
        source = header.get("source")
        if not source:
            raise ProvenanceError(
                f"{path}: no '# source:' line; refusing optical constants "
                "without a citation"
            )
        if len(rows) < 2:
            raise DomainError(f"{path}: need at least two table rows")
        table = np.array(rows, dtype=float)
        if np.any(np.diff(table[:, 0]) <= 0):
            raise DomainError(f"{path}: wavelengths must increase strictly")
        return cls(wavelength_nm=table[:, 0], n=table[:, 1], k=table[:, 2], source=source)


@lru_cache(maxsize=1)
def aluminum() -> OpticalConstants:
    """Optical constants of aluminum from the shipped data table."""
    with resources.as_file(resources.files("dipolemirror.data") / "aluminum_nk.txt") as p:
        return OpticalConstants.from_file(p)


def aluminum_rp(theta, wavelength_nm: float, constants: OpticalConstants | None = None):
    """Complex Fresnel r_p on the mirror at polar angle(s) theta.

    The local incidence angle is theta/2; at the vertex this reduces to
    the normal-incidence coefficient (n - 1)/(n + 1).
    """
    constants = aluminum() if constants is None else constants
    n = constants.index(wavelength_nm)
    alpha = incidence_angle(theta)
    ca = np.cos(alpha)
    root = np.sqrt(n**2 - np.sin(alpha) ** 2 + 0j)
    return (n**2 * ca - root) / (n**2 * ca + root)


def reflection_phase_waves(
    theta,
    wavelength_nm: float,
    constants: OpticalConstants | None = None,
):
    """Phase of r_p in waves, unwrapped in theta and zeroed at the vertex.

    Suitable directly as a Strehl aberration: the reflected wavefront
    acquires arg(r_p)/2pi waves that vary with theta. The phase is
    unwrapped on 4096 points from the vertex to the largest theta and
    interpolated from there.
    """
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < 0) or np.any(theta >= math.pi):
        raise DomainError("theta must lie in [0, pi)")
    hi = float(theta.max()) if theta.size else 0.0
    grid = np.linspace(0.0, max(hi, 1e-6), _PHASE_GRID)
    phase = np.unwrap(np.angle(aluminum_rp(grid, wavelength_nm, constants)))
    phase = (phase - phase[0]) / (2.0 * math.pi)
    out = np.interp(theta, grid, phase)
    return float(out) if np.ndim(theta) == 0 else out


@dataclass(frozen=True)
class AluminumFocusStudy:
    """Effect of the metal's reflection phase on an otherwise perfect focus."""

    wavelength_nm: float
    waist: float
    shift_lambda: float
    nominal_reduction: float
    peak_reduction: float
    strehl: StrehlResult


def aluminum_phase_study(
    aperture: ApertureSpec | None = None,
    wavelength_nm: float = 251.8,
    constants: OpticalConstants | None = None,
    waist: float | None = None,
    n_theta: int = _DEFAULT_NODES,
    n_phi: int = _DEFAULT_NODES,
) -> AluminumFocusStudy:
    """Focal shift and intensity loss from the aluminum reflection phase.

    The input is the optimal-waist doughnut (or the given waist) with the
    phase of r_p applied as the only aberration; amplitudes stay ideal so
    the numbers isolate the phase effect.
    """
    aperture = ApertureSpec() if aperture is None else aperture
    if waist is None:
        waist = optimize_waist(aperture).waist
    constants = aluminum() if constants is None else constants
    field = plane_to_sphere(RadialMode.doughnut(waist), aperture,
                            n_theta=n_theta, n_phi=n_phi)

    def aberration(theta, phi):
        return reflection_phase_waves(theta, wavelength_nm, constants)

    res = strehl(field, aberration)
    return AluminumFocusStudy(
        wavelength_nm=wavelength_nm,
        waist=waist,
        shift_lambda=res.peak_offset_lambda,
        nominal_reduction=1.0 - res.nominal,
        peak_reduction=1.0 - res.ratio,
        strehl=res,
    )


def reflectivity_weight(wavelength_nm: float, constants: OpticalConstants | None = None):
    """Callable |r_p| as a function of entrance-plane radius rho."""
    constants = aluminum() if constants is None else constants

    def weight(rho):
        return np.abs(aluminum_rp(theta_from_rho(rho), wavelength_nm, constants))

    return weight


def reflectivity_weighted_overlap(
    mode,
    aperture: ApertureSpec,
    constants: OpticalConstants | None = None,
    wavelength_nm: float = 369.5,
    reference=None,
) -> float:
    """Overlap of the mode after reflection with the dipole reference.

    The incident mode is weighted by |r_p| at the local incidence angle;
    a constant reflectivity cancels in the normalization.
    """
    weighted = WeightedMode(mode, reflectivity_weight(wavelength_nm, constants))
    ref = RadialMode.dipole() if reference is None else reference
    return spatial_overlap(weighted, ref, aperture)


@dataclass(frozen=True)
class WeightedOptimum:
    """Waist optimization with and without reflectivity weighting."""

    waist: float
    eta: float
    waist_unweighted: float
    eta_unweighted: float

    @property
    def delta_eta(self) -> float:
        return self.eta - self.eta_unweighted


def reflectivity_weighted_optimum(
    aperture: ApertureSpec,
    constants: OpticalConstants | None = None,
    wavelength_nm: float = 369.5,
) -> WeightedOptimum:
    """Re-optimize the doughnut waist with the reflectivity weighting on."""
    weight = reflectivity_weight(wavelength_nm, constants)
    plain = optimize_waist(aperture)
    weighted = optimize_waist(aperture, transform=lambda mode: WeightedMode(mode, weight))
    return WeightedOptimum(
        waist=weighted.waist, eta=weighted.eta,
        waist_unweighted=plain.waist, eta_unweighted=plain.eta,
    )

