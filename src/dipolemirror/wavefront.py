"""Wavefront maps, Zernike expansions, and phase-plate design.

Interferometric testing of the mirror yields a phase map over the aperture
disk; this module fits it with Zernike polynomials, separates alignment
artifacts from genuine figure error, quantifies PV/RMS, and designs the
compensating phase plate, including its behavior at wavelengths other than
the testing wavelength.

Conventions
-----------
Zernike terms are indexed (n, m) with radial degree n and azimuthal order
m; m > 0 means cos(m*phi), m < 0 means sin(|m|*phi). The polynomials are
unnormalized: a coefficient a on (2,2) means a wavefront a*rho^2*cos(2phi)
with peak-to-valley 2a over the unit disk. Coefficients and maps are in
waves at the wavelength they are tagged with. Terms go up to degree 27.

Phase maps live on a grid of pixel centers spanning [-1, 1] in
aperture-normalized coordinates (rho_unit = rho/rho_max), with a boolean
validity mask. Fitting is plain least squares on the valid pixels; no
annular re-orthogonalization is applied, so coefficients are reported in
the standard disk basis regardless of the mask. The pixel centers form a
tensor grid, so the normal equations are assembled from separable sums of
Legendre products in x and y over the mask. A fixed matrix per degree
then takes them to the Zernike basis. No (pixels x terms) design matrix
is built. The fixed matrix and the exact RMS moments integrate on
Gauss-Legendre rules from the one cached source in geometry, computed
once per node count. Evaluation sums each azimuthal order's terms by
Clenshaw's recurrence on R_n^m(rho) = (-1)^k rho^|m| P_k^(|m|,0)(1 - 2
rho^2), k = (n - |m|)/2 (Kintner 1976), with angular factors from powers
of exp(i phi); on the axes of a polar grid, one matrix product sums them.

A phase map enters only through ``zernike_fit``; PV/RMS, halving, the
plate and its wavelength rescaling take the fitted expansion, and any
other object raises DomainError. Interferometer maps measure the mirror
in double pass; ``single_pass`` halves the fit. The fit is linear in the
map and halving is exact, so this is bitwise the fit of the halved map.
The misalignment set {piston, tip, tilt, defocus} is removed after
fitting by default: tilts and defocus are alignment freedoms of the test
cavity (a displaced reference sphere shows up as defocus), not mirror
figure error.

Phase plates are etched for a design wavelength. At another wavelength the
plate's optical path scales with the material dispersion n(lambda) - 1
while the mirror's figure error is achromatic optical path; the residual
of the compensated system in waves at the new wavelength is

    residual(l1) = plate * (l0/l1) * ((n(l1)-1)/(n(l0)-1) - 1).

Material dispersion comes from a Sellmeier model whose coefficients ship
as a provenance-tagged data file.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ConvergenceError, DomainError, FormatError, ProvenanceError
from .geometry import _gauss_legendre, _gauss_legendre_on
from .gridio import read_grid, read_table

__all__ = [
    "ZernikeExpansion",
    "PhaseMap",
    "zernike_eval",
    "zernike_fit",
    "remove_misalignment",
    "MISALIGNMENT_TERMS",
    "pv_rms",
    "make_phase_plate",
    "single_pass",
    "SellmeierModel",
    "fused_silica",
    "rescale_wavelength",
    "load_expansion",
    "save_expansion",
    "load_phase_map",
]

MISALIGNMENT_TERMS = ((0, 0), (1, 1), (1, -1), (2, 0))

_DEFAULT_GRID = 512
# the highest degree of a term or a fit. Fit refinement stops converging from degree
# 23 or 24, the fit's (degree + 1)^4 moments must be refused before they are allocated,
# and no input exceeds 10; 27 keeps the order-0 terms admitted before, refusing fits from 28
_MAX_DEGREE = 27


@lru_cache(maxsize=512)
def _recurrence(orders: tuple, top: int):
    """Rows (scale, shift, back)[k, j] for the order |m| = orders[j]; read-only.

    R_n^m(rho) = rho^|m| scale[k] q_k(rho^2) for k = (n - |m|)/2 <= top, with
    scale[k] = C(n, k) and the monic q_k = (-1)^k P_k^(|m|,0)(1 - 2u) / scale[k]:
    q_0 = 1, q_(k+1) = (u + shift[k]) q_k - back[k] q_(k-1). Each entry is
    a ratio of integers rounded once, the same in every table.
    """
    k, a = np.arange(top + 1)[:, None], np.array(orders)
    s = 2 * k + a
    with np.errstate(divide="ignore", invalid="ignore"):
        table = np.array([[[math.comb(2 * i + b, i) for b in orders] for i in range(top + 1)],
                          np.where(s > 0, -(s * (s + 2) + a * a) / (2 * s * (s + 2)), -0.5),
                          np.where(k > 0, (k * (k + a)) ** 2 / (s * s * (s * s - 1)), 0.0)])
    table.flags.writeable = False
    return table


def _clenshaw(values, u, orders: tuple, buffers):
    """sum_k values[k] scale[k] q_k(u) over _recurrence(orders), by Clenshaw's recurrence.

    values[k] broadcasts against u as a row over the orders. The result is
    one of buffers, three arrays of its shape that the steps reuse in place.
    """
    scale, shift, back = _recurrence(orders, len(values) - 1)
    c = np.reshape(values, scale.shape) * scale
    b1, b2, t = buffers
    b1[...] = c[-1]
    b2[...] = 0.0
    for k in range(len(c) - 2, -1, -1):
        np.add(u, shift[k], out=t)
        t *= b1
        b2 *= back[k + 1]
        t -= b2
        t += c[k]
        b1, b2, t = t, b1, b2
    return b1


def _harmonics(orders: dict, step):
    """(m, angular) for each order m present, from the powers of step.

    angular is the real part of step^|m| for m >= 0 and its imaginary part
    for m < 0: one complex multiply per order instead of a cosine and a
    sine each.
    """
    power = np.ones(step.shape, dtype=complex)
    for m in range(max(abs(k) for k in orders) + 1):
        if m:
            power = power * step
        if m in orders:
            yield m, power.real
        if m and -m in orders:
            yield -m, power.imag


def _unit_phasor(phi):
    """exp(i phi) from one cosine and one sine, faster than complex np.exp."""
    out = np.empty(phi.shape, dtype=complex)
    np.cos(phi, out=out.real)
    np.sin(phi, out=out.imag)
    return out


# points per pass of the elementwise sum, so that each order's temporaries
# stay in cache
_BLOCK = 1 << 14


def _sum_orders(orders: dict, rho, phi):
    """Sum of sum_k c_k R_(2k+|m|)^m(rho) * (cos(m phi) | 1 | sin(|m| phi)) over m.

    orders maps each azimuthal order m to its terms' values c_k, indexed by
    k = (n - |m|)/2. On tensor axes, rho (n, 1) and phi (1, k), one
    Clenshaw pass in rho^2 evaluates all K orders' radial columns, and one
    (n x K) @ (K x k) product with the angular rows sums them. Any other
    layout costs each order one Clenshaw pass and one product with its
    angular factor, over the broadcast points a block at a time.
    """
    rho = np.asarray(rho, dtype=float)
    phi = np.asarray(phi, dtype=float)
    shape = np.broadcast_shapes(rho.shape, phi.shape)
    if not orders:
        return np.zeros(shape)
    if rho.ndim == phi.ndim == 2 and rho.shape[1] == phi.shape[0] == 1:
        ms, angulars = zip(*_harmonics(orders, _unit_phasor(phi)))
        # every order's values as one zero-padded column: a column's sums stay
        # +0 down to its own top, so one pass is bit-equal to one per order
        top = max(len(orders[m]) for m in ms)
        values = np.array([orders[m] + [0.0] * (top - len(orders[m])) for m in ms]).T
        radials = _clenshaw(values, rho * rho, tuple(abs(m) for m in ms),
                            np.empty((3, rho.shape[0], len(ms))))
        # rho^|m| as numpy computes it for a scalar exponent: rho^2 is a
        # product, not pow
        for column, m in enumerate(ms):
            radials[:, column:column + 1] *= rho ** abs(m)
        return radials @ np.vstack(angulars)
    out = np.zeros(shape)
    flat = out.reshape(-1)
    rho, phi = (np.broadcast_to(a, shape).reshape(-1) for a in (rho, phi))
    for start in range(0, flat.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        r, acc = rho[block], flat[block]
        u, buffers = r * r, np.empty((3,) + acc.shape)
        # the powers of rho exp(i phi) carry rho^|m| as well
        for m, angular in _harmonics(orders, r * _unit_phasor(phi[block])):
            radial = _clenshaw(orders[m], u, (abs(m),), buffers)
            acc += np.multiply(radial, angular, out=radial)
    return out


def _positive_wavelength(wavelength_nm):
    """Refuse a wavelength that is not a positive finite number."""
    if not math.isfinite(wavelength_nm):
        raise DomainError(f"wavelength {wavelength_nm} nm is not finite")
    if wavelength_nm <= 0:
        raise DomainError("wavelength must be positive")


@dataclass(frozen=True)
class ZernikeExpansion:
    """A wavefront as Zernike coefficients, in waves at wavelength_nm.

    terms is a tuple of (n, m, value) triples; annulus optionally records
    the (inner, outer) unit-disk radii the coefficients were fitted on,
    with 0 <= inner < outer <= 1.
    """

    terms: tuple
    wavelength_nm: float
    annulus: tuple | None = None

    def __post_init__(self):
        seen = set()
        for n, m, v in self.terms:
            if n < 0 or abs(m) > n or (n - abs(m)) % 2:
                raise DomainError(f"invalid Zernike index (n={n}, m={m})")
            if n > _MAX_DEGREE:
                raise DomainError(f"Zernike term (n={n}, m={m}) lies above degree {_MAX_DEGREE}")
            if (n, m) in seen:
                raise DomainError(f"duplicate Zernike index (n={n}, m={m})")
            if not math.isfinite(v):
                raise DomainError(f"Zernike coefficient (n={n}, m={m}) = {v} is not finite")
            seen.add((n, m))
        _positive_wavelength(self.wavelength_nm)
        if self.annulus is not None and not (
                len(self.annulus) == 2 and 0.0 <= self.annulus[0] < self.annulus[1] <= 1.0):
            raise DomainError(f"annulus {self.annulus} is not (inner, outer) "
                              "with 0 <= inner < outer <= 1")

    def coefficient(self, n: int, m: int) -> float:
        for nn, mm, v in self.terms:
            if (nn, mm) == (n, m):
                return v
        return 0.0

    def scaled(self, factor: float, wavelength_nm: float | None = None) -> "ZernikeExpansion":
        wl = self.wavelength_nm if wavelength_nm is None else wavelength_nm
        return ZernikeExpansion(
            tuple((n, m, v * factor) for n, m, v in self.terms), wl, self.annulus
        )


def zernike_eval(expansion: ZernikeExpansion, rho, phi):
    """Evaluate an expansion at unit-disk polar coordinates; arrays broadcast.

    Terms of one azimuthal order share their angular factor, so their
    values, each its own term's Jacobi coefficient, are summed in one
    Clenshaw pass; no expansion is refused. The angular factors come from
    powers of exp(i phi), not from one cosine and sine per order. Passing
    the axes of a tensor-product grid, rho of shape (n, 1) and phi of shape
    (1, k), evaluates each radial and angular factor on its axis only and
    sums the orders in one matrix product.
    """
    orders = {}
    for n, m, v in expansion.terms:
        if v != 0.0:
            k = (n - abs(m)) // 2
            values = orders.setdefault(m, [])
            values.extend([0.0] * (k + 1 - len(values)))
            values[k] = v
    return _sum_orders(orders, rho, phi)


def _pixel_axes(rows: int, cols: int):
    """x of each pixel column and y of each pixel row of a rows x cols map."""
    x = -1.0 + (np.arange(cols) + 0.5) * 2.0 / cols
    y = -1.0 + (np.arange(rows) + 0.5) * 2.0 / rows
    return x, y


def _pixel_polar(rows: int, cols: int):
    """(rho_unit, phi) of the pixel centers of a rows x cols phase map."""
    xx, yy = np.meshgrid(*_pixel_axes(rows, cols))
    return np.hypot(xx, yy), np.arctan2(yy, xx)


@dataclass(frozen=True)
class PhaseMap:
    """Gridded wavefront in waves on the aperture-normalized unit square.

    values[row, col] sits at x = -1 + (col + 0.5)*2/cols,
    y = -1 + (row + 0.5)*2/rows. mask marks valid pixels.
    """

    values: np.ndarray
    mask: np.ndarray
    wavelength_nm: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        mask = np.asarray(self.mask, dtype=bool)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)
        if values.ndim != 2 or values.shape != mask.shape:
            raise DomainError("values and mask must be matching 2-d arrays")
        _positive_wavelength(self.wavelength_nm)
        if not np.all(np.isfinite(values[mask])):
            raise DomainError("masked-in phase values must be finite")

    def grid_polar(self):
        """(rho_unit, phi) arrays for every pixel center."""
        return _pixel_polar(*self.values.shape)

    @classmethod
    def from_expansion(
        cls,
        expansion: ZernikeExpansion,
        size: int = _DEFAULT_GRID,
        annulus: tuple | None = None,
    ) -> "PhaseMap":
        """Render an expansion on a size x size grid.

        annulus=(inner, outer) limits the mask; default is the full unit
        disk (or the expansion's recorded annulus if it has one).
        """
        ann = annulus if annulus is not None else (expansion.annulus or (0.0, 1.0))
        inner, outer = ann
        rho, phi = _pixel_polar(size, size)
        mask = (rho >= inner) & (rho <= outer)
        values = np.where(mask, zernike_eval(expansion, rho, phi), np.nan)
        return cls(values=values, mask=mask, wavelength_nm=expansion.wavelength_nm)


def _zernike_index(degree: int):
    """Every (n, m) with n <= degree, in the order zernike_fit reports them."""
    return [(n, m) for n in range(degree + 1) for m in range(-n, n + 1, 2)]


def _legendre_table(x, degree: int):
    """Columns P_0(x) .. P_degree(x), as P_k(1 - 2 rho^2) = (-1)^k R_2k^0(rho)."""
    return _clenshaw(np.diag((-1.0) ** np.arange(degree + 1)), (1.0 - x[:, None]) / 2.0,
                     (0,) * (degree + 1), np.empty((3, x.size, degree + 1)))


@lru_cache(maxsize=None)
def _legendre_transform(degree: int):
    """(degree+1)^2 x n_terms matrix from Zernike coefficients to Legendre products.

    The terms with n <= degree span the polynomials of total degree <=
    degree, so each is exactly sum_(k,i) T[k*(degree+1) + i, j] P_k(y) P_i(x).
    (degree+1)-point Gauss-Legendre quadrature on each axis integrates
    every product P_i * Z_j exactly. Computed once per degree, read-only.
    """
    nodes, weights = _gauss_legendre(degree + 1)
    # row i: (i + 1/2) w_a P_i(x_a), the projection onto P_i
    project = _legendre_table(nodes, degree).T * weights * (np.arange(degree + 1) + 0.5)[:, None]
    rho = np.hypot(nodes[None, :], nodes[:, None])
    phi = np.arctan2(nodes[:, None], nodes[None, :])
    # values[b, a, j] = Z_j(x_a, y_b); project along x, then along y
    values = np.stack([_sum_orders({m: [0.0] * ((n - abs(m)) // 2) + [1.0]}, rho, phi)
                       for n, m in _zernike_index(degree)], axis=-1)
    transform = np.tensordot(project, project @ values, axes=(1, 0))
    transform = transform.reshape((degree + 1) ** 2, -1)
    transform.flags.writeable = False
    return transform


def _axis_products(table):
    """Per-point products P_k * P_l of a Legendre table, column k*(degree+1) + l."""
    return (table[:, :, None] * table[:, None, :]).reshape(table.shape[0], -1)


# condition number of the unit-diagonal Gram matrix, cond(A)^2, beyond
# which the terms count as dependent on the mask: a Cholesky solve there
# keeps fewer than four significant digits
_MAX_GRAM_CONDITION = 1e12

# refinement in zernike_fit: a correction below _SETTLED of the coefficients
# leaves the next one below rounding; one that no longer halves has reached
# the rounding floor of the data, accepted below _FLOOR of the coefficients
_SETTLED = math.sqrt(np.finfo(float).eps)
_FLOOR = 1e-6
_MAX_REFINEMENTS = 30


def zernike_fit(phase_map: PhaseMap, degree: int) -> ZernikeExpansion:
    """Least-squares Zernike fit of the valid pixels.

    All (n, m) with n <= degree are fitted simultaneously, from the
    separable moments the module docstring describes. The valid-pixel
    count must comfortably exceed the number of terms. The fit solves the
    normal equations by Cholesky after scaling the Gram matrix to a unit
    diagonal, then refines the solution on its residual, taken in the
    Zernike basis. A mask on which the terms are (nearly)
    linearly dependent, such as a thin ring, raises DomainError rather than
    returning one of many equally good coefficient sets. The transform
    grows with the degree (its column sums reach 3e5 at degree 16), and
    each refinement step shrinks the error less. A refinement whose
    corrections stop halving above a millionth of the coefficients raises
    ConvergenceError. A degree above 27, the highest a term may have,
    raises DomainError before anything is allocated.
    """
    if not 0 <= degree <= _MAX_DEGREE:
        raise DomainError(f"fit degree {degree} lies outside 0 to {_MAX_DEGREE}")
    rho, phi = phase_map.grid_polar()
    sel = phase_map.mask & (rho <= 1.0)
    index = _zernike_index(degree)
    count = int(np.count_nonzero(sel))
    if count < 2 * len(index):
        raise DomainError(
            f"only {count} valid pixels for {len(index)} terms; mask too small"
        )
    rr = rho[sel]
    annulus = (float(rr.min()), float(rr.max()))
    if annulus[0] == annulus[1]:
        # no area to take the RMS over
        raise DomainError(f"the {count} valid pixels all lie at rho {annulus[0]:.4f}: "
                          "the fitted annulus has no width")
    x, y = _pixel_axes(*phase_map.values.shape)
    vx, vy = _legendre_table(x, degree), _legendre_table(y, degree)
    # sum over the mask of P_k P_k'(y) P_i P_i'(x), reordered to [(k, i), (k', i')]
    d = degree + 1
    moments = _axis_products(vy).T @ sel.astype(float) @ _axis_products(vx)
    moments = moments.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    transform = _legendre_transform(degree)
    gram = transform.T @ moments @ transform
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = 1.0 / np.sqrt(np.diag(gram))
        gram *= np.outer(scale, scale)
    singular = DomainError(
        f"degree-{degree} Zernike terms are not independent on the mask "
        f"({count} pixels, rho {annulus[0]:.4f} to {annulus[1]:.4f})"
    )
    if not np.all(np.isfinite(gram)) or np.linalg.cond(gram) > _MAX_GRAM_CONDITION:
        raise singular
    try:
        lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise singular from exc

    def solve(grid):
        # grid holds the data on the selected pixels and zero elsewhere
        rhs = transform.T @ (vy.T @ grid @ vx).ravel()
        return scale * np.linalg.solve(lower.T, np.linalg.solve(lower, scale * rhs))

    def expansion(coef):
        return ZernikeExpansion(terms=tuple((n, m, float(c)) for (n, m), c in zip(index, coef)),
                                wavelength_nm=phase_map.wavelength_nm, annulus=annulus)

    # refinement on the residual, taken in the Zernike basis where the
    # transform's rounding does not reach, brings the error down to about
    # cond(a) times the rounding of the data. Each step shrinks the error by
    # about the relative size of its correction: degree 10 settles after one
    # step, the larger transforms from degree 16 on take two or more.
    grid = np.where(sel, phase_map.values, 0.0)
    coef = solve(grid)
    values, phi = phase_map.values[sel], phi[sel]
    previous = np.inf
    for _ in range(_MAX_REFINEMENTS):
        grid[sel] = values - zernike_eval(expansion(coef), rr, phi)
        step = solve(grid)
        coef += step
        size, stalled = np.abs(step).max(), np.abs(step).max() > previous / 2
        if size <= (_FLOOR if stalled else _SETTLED) * np.abs(coef).max():
            return expansion(coef)
        if stalled:
            break
        previous = size
    raise ConvergenceError(
        f"degree-{degree} Zernike fit still moving by {size:.1e} waves per "
        f"refinement step; fit a lower degree"
    )


def remove_misalignment(expansion: ZernikeExpansion) -> ZernikeExpansion:
    """Zero the alignment terms: piston, tip, tilt and defocus."""
    return ZernikeExpansion(
        tuple((n, m, 0.0 if (n, m) in MISALIGNMENT_TERMS else v) for n, m, v in expansion.terms),
        expansion.wavelength_nm,
        expansion.annulus,
    )


def _expansion_sample_grid(annulus, n_rho=512, n_phi=1024):
    inner, outer = annulus
    rho = np.linspace(inner, outer, n_rho)
    phi = np.arange(n_phi) * 2.0 * math.pi / n_phi
    return np.meshgrid(rho, phi, indexing="ij", sparse=True)


def _expansion_moments(expansion, annulus):
    # area-weighted mean and mean square over the annulus, exact for the
    # polynomial basis: Gauss-Legendre in u = rho^2 (the azimuthal average
    # leaves only integer powers of u), uniform trapezoid in phi
    inner, outer = annulus
    degree = max((n for n, _, _ in expansion.terms), default=0)
    lo, hi = inner**2, outer**2
    u, wu = _gauss_legendre_on(max(degree + 1, 4), lo, hi)
    n_phi = max(4 * degree + 4, 16)
    phi = np.arange(n_phi) * 2.0 * math.pi / n_phi
    rr, pp = np.meshgrid(np.sqrt(u), phi, indexing="ij", sparse=True)
    vals = zernike_eval(expansion, rr, pp)
    w = wu[:, None] / n_phi  # du/2 * dphi/(2 pi), normalized measure
    mean = float(np.sum(vals * w)) / (hi - lo)
    meansq = float(np.sum(vals**2 * w)) / (hi - lo)
    return mean, meansq


def _expansion(obj) -> ZernikeExpansion:
    """obj itself if it is a ZernikeExpansion; anything else, a PhaseMap too, raises."""
    if not isinstance(obj, ZernikeExpansion):
        raise DomainError(f"expected a ZernikeExpansion, got {type(obj).__name__}; "
                          "fit a phase map with zernike_fit first")
    return obj


def pv_rms(expansion: ZernikeExpansion) -> tuple[float, float]:
    """Peak-to-valley and RMS (about the mean) of an expansion, in waves.

    The statistics run over the expansion's annulus, the full unit disk if
    it records none. The RMS quadrature is exact for the polynomial basis;
    the PV comes from a dense polar sampling that includes the annulus
    boundaries, where the extremes of low-order modes sit.
    """
    ann = _expansion(expansion).annulus or (0.0, 1.0)
    rho, phi = _expansion_sample_grid(ann)
    vals = zernike_eval(expansion, rho, phi)
    pv = float(vals.max() - vals.min())
    mean, meansq = _expansion_moments(expansion, ann)
    return pv, math.sqrt(max(meansq - mean**2, 0.0))


def make_phase_plate(aberration: ZernikeExpansion) -> ZernikeExpansion:
    """Phase profile a plate must imprint to cancel an aberration."""
    return _expansion(aberration).scaled(-1.0)


def single_pass(measured: ZernikeExpansion) -> ZernikeExpansion:
    """Halve the fit of a double-pass interferometer measurement."""
    return _expansion(measured).scaled(0.5)


_SELLMEIER_KEYS = ("b1", "b2", "b3", "c1_um2", "c2_um2", "c3_um2")


@dataclass(frozen=True)
class SellmeierModel:
    """Three-term Sellmeier dispersion n^2 - 1 = sum b_i L^2/(L^2 - c_i).

    L is the wavelength in micrometers; c_i are in um^2. Evaluation outside
    [lambda_min_nm, lambda_max_nm] is a domain error.
    """

    b: tuple
    c_um2: tuple
    lambda_min_nm: float
    lambda_max_nm: float
    source: str

    def index(self, wavelength_nm: float) -> float:
        if not self.lambda_min_nm <= wavelength_nm <= self.lambda_max_nm:
            raise DomainError(
                f"{wavelength_nm} nm outside dispersion model validity "
                f"[{self.lambda_min_nm}, {self.lambda_max_nm}] nm"
            )
        l2 = (wavelength_nm / 1000.0) ** 2
        acc = 1.0
        for bi, ci in zip(self.b, self.c_um2):
            acc += bi * l2 / (l2 - ci)
        return math.sqrt(acc)

    @classmethod
    def from_file(cls, path) -> "SellmeierModel":
        """Read a key=value Sellmeier file; requires a '# source:' header."""
        text = Path(path).read_text()
        source = None
        fields = {}
        for raw in text.splitlines():
            line = raw.strip()
            if line.startswith("#"):
                m = re.match(r"#\s*source:\s*(.+)", line)
                if m:
                    source = m.group(1).strip()
                continue
            if not line:
                continue
            key, _, val = line.partition("=")
            fields[key.strip()] = float(val)
        if not source:
            raise ProvenanceError(f"{path}: no '# source:' line; refusing unattributed data")
        missing = [k for k in _SELLMEIER_KEYS + ("lambda_min_nm", "lambda_max_nm") if k not in fields]
        if missing:
            raise FormatError(f"{path}: missing keys {missing}")
        return cls(
            b=(fields["b1"], fields["b2"], fields["b3"]),
            c_um2=(fields["c1_um2"], fields["c2_um2"], fields["c3_um2"]),
            lambda_min_nm=fields["lambda_min_nm"],
            lambda_max_nm=fields["lambda_max_nm"],
            source=source,
        )


@lru_cache(maxsize=1)
def fused_silica() -> SellmeierModel:
    """Sellmeier model for fused silica from the shipped data table."""
    with resources.as_file(resources.files("dipolemirror.data") / "fused_silica_sellmeier.txt") as p:
        return SellmeierModel.from_file(p)


def rescale_wavelength(plate: ZernikeExpansion, target_nm: float,
                       model: SellmeierModel) -> ZernikeExpansion:
    """Residual wavefront of a compensated system at another wavelength.

    ``plate`` is the phase profile (waves) the plate imprints at its design
    wavelength, assumed to exactly cancel an achromatic-OPD aberration
    there. Returns the residual wavefront of plate plus aberration at
    ``target_nm``, in waves at ``target_nm``: the plate OPD scales with
    n(lambda) - 1 while the aberration OPD is fixed, leaving

        residual = plate * (l0/l1) * ((n(l1)-1)/(n(l0)-1) - 1).
    """
    l0 = _expansion(plate).wavelength_nm
    n0 = model.index(l0)
    n1 = model.index(target_nm)
    factor = (l0 / target_nm) * ((n1 - 1.0) / (n0 - 1.0) - 1.0)
    return plate.scaled(factor, target_nm)


def save_expansion(expansion: ZernikeExpansion, path):
    lines = [
        "# Zernike expansion: n m value_waves",
        f"# wavelength_nm: {expansion.wavelength_nm}",
    ]
    if expansion.annulus is not None:
        lines.append(f"# annulus: {expansion.annulus[0]} {expansion.annulus[1]}")
    lines += [f"{n} {m} {v:.12e}" for n, m, v in expansion.terms]
    Path(path).write_text("\n".join(lines) + "\n")


def load_expansion(path) -> ZernikeExpansion:
    header, rows = read_table(path, "n m value", lambda n, m, v: (int(n), int(m), float(v)))
    try:
        wavelength_nm = float(header["wavelength_nm"])
        annulus = tuple(map(float, header["annulus"].split())) if "annulus" in header else None
    except KeyError:
        raise FormatError(f"{path}: missing '# wavelength_nm:' header") from None
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
    return ZernikeExpansion(tuple(rows), wavelength_nm, annulus)


def load_phase_map(path) -> PhaseMap:
    values, header = read_grid(path)
    if "wavelength_nm" not in header:
        raise FormatError(f"{path}: header lacks wavelength_nm")
    raw = header["wavelength_nm"]
    try:
        wavelength_nm = float(raw)
        # float() also takes JSON true and the string "633"
        if isinstance(raw, (bool, str)):
            raise ValueError(f"must be a JSON number, not {type(raw).__name__!r}")
    except (TypeError, ValueError) as exc:
        # a JSON header may hold a list, null or a word where the number belongs
        raise FormatError(f"{path}: wavelength_nm: {exc}") from None
    mask = np.isfinite(values)
    return PhaseMap(values=np.where(mask, values, np.nan), mask=mask,
                    wavelength_nm=wavelength_nm)
