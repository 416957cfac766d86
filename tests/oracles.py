"""Independent reference computations for the tests.

Everything here is written from first principles (explicit Mueller
matrices, brute-force quadrature) rather than by calling back into the
package code paths under test, so a disagreement points at the package
and not at a shared helper. The one exception is ``focal_field``, which
resolves its aberration argument with the package's resolver: that input
handling is what the focal-field tests exercise through it.
"""

from __future__ import annotations

import json
import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np

from dipolemirror.errors import DomainError
from dipolemirror.focalfield import _resolve_aberration
from dipolemirror.geometry import rho_from_theta


# ------------------------------------------------------------ polarimetry

# Mueller matrix of a quarter-wave plate with horizontal fast axis and of a
# horizontal linear polarizer, plus the frame rotation, written out fully.
QWP_H = np.array(
    [[1.0, 0.0, 0.0, 0.0],
     [0.0, 1.0, 0.0, 0.0],
     [0.0, 0.0, 0.0, 1.0],
     [0.0, 0.0, -1.0, 0.0]]
)
POLARIZER_H = 0.5 * np.array(
    [[1.0, 1.0, 0.0, 0.0],
     [1.0, 1.0, 0.0, 0.0],
     [0.0, 0.0, 0.0, 0.0],
     [0.0, 0.0, 0.0, 0.0]]
)


def mueller_rotation(angle: float) -> np.ndarray:
    c, s = math.cos(2.0 * angle), math.sin(2.0 * angle)
    return np.array(
        [[1.0, 0.0, 0.0, 0.0],
         [0.0, c, s, 0.0],
         [0.0, -s, c, 0.0],
         [0.0, 0.0, 0.0, 1.0]]
    )


def polarimeter_frame(stokes: np.ndarray, theta: float) -> np.ndarray:
    """Detected intensity behind QWP(theta) + horizontal polarizer.

    stokes has shape (4, ...); only the S0 row of the output survives the
    polarizer, so the frame is the first row of the Mueller product.
    """
    m = POLARIZER_H @ mueller_rotation(-theta) @ QWP_H @ mueller_rotation(theta)
    return np.tensordot(m[0], np.asarray(stokes, dtype=float), axes=(0, 0))


def linear_stokes(intensity: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Stokes grids of a fully polarized linear state with orientation psi."""
    intensity = np.asarray(intensity, dtype=float)
    return np.stack(
        [intensity,
         intensity * np.cos(2.0 * psi),
         intensity * np.sin(2.0 * psi),
         np.zeros_like(intensity)]
    )


def elliptical_stokes(intensity, psi: float, chi: float) -> np.ndarray:
    """Stokes vector/grids of a fully polarized elliptical state."""
    intensity = np.asarray(intensity, dtype=float)
    return np.stack(
        [intensity,
         intensity * math.cos(2.0 * chi) * math.cos(2.0 * psi),
         intensity * math.cos(2.0 * chi) * math.sin(2.0 * psi),
         intensity * math.sin(2.0 * chi) * np.ones_like(intensity)]
    )


def radial_doughnut_stack(aperture, waist: float, size: int = 512,
                          margin: float = 1.02, n_angles: int = 9,
                          orientation_noise: np.ndarray | None = None):
    """Synthetic polarimeter stack of an ideal radially polarized doughnut.

    Returns (angles, frames, pixel_scale, center, stokes_true). The frames
    come from the explicit Mueller product above. ``orientation_noise``
    (same shape as the frames) rotates the local orientation before the
    frames are synthesized, modeling the mechanism that produces pi-flips
    in the folded orientation angle.
    """
    half = aperture.rho_max * margin
    pixel_scale = 2.0 * half / size
    center = ((size - 1) / 2.0, (size - 1) / 2.0)
    y = (np.arange(size) - center[0]) * pixel_scale
    x = (np.arange(size) - center[1]) * pixel_scale
    xx, yy = np.meshgrid(x, y)
    rho = np.hypot(xx, yy)
    phi = np.arctan2(yy, xx)
    amp = rho * np.exp(-(rho**2) / waist**2)
    intensity = amp**2
    psi = phi if orientation_noise is None else phi + orientation_noise
    stokes_true = linear_stokes(intensity, psi)
    angles = [math.radians(22.5 * k) for k in range(n_angles)]
    frames = np.stack([polarimeter_frame(stokes_true, t) for t in angles])
    return angles, frames, pixel_scale, center, stokes_true


def polarimeter_design(angles) -> np.ndarray:
    """Rows of the frame model: frame k = design[k] @ (S0, S1, S2, S3)."""
    return np.stack([polarimeter_frame(np.eye(4), theta) for theta in angles])


def stokes_lstsq(angles, frames) -> np.ndarray:
    """Stokes grids (4, rows, cols) by one SVD least-squares solve with a
    right-hand side per pixel."""
    frames = np.asarray(frames, dtype=float)
    n, rows, cols = frames.shape
    coef, *_ = np.linalg.lstsq(polarimeter_design(angles), frames.reshape(n, rows * cols),
                               rcond=None)
    return coef.reshape(4, rows, cols)


def radial_projection(pmap) -> np.ndarray:
    """Per-pixel projection sgn * cos(chi) * cos(psi - phi) of a polarization
    map on the radial direction, NaN outside its mask.

    phi is the azimuth of each pixel centre about the map's centre; sgn is
    +1 where sin(phi) >= 0 and -1 below, so that a radial pattern, whose
    orientation psi is folded into [0, pi), scores +1 everywhere.
    """
    rows, cols = pmap.psi.shape
    y = (np.arange(rows) - pmap.center[0])[:, None]
    x = (np.arange(cols) - pmap.center[1])[None, :]
    phi = np.arctan2(y, x)
    sgn = np.where(np.sin(phi) >= 0.0, 1.0, -1.0)
    return np.where(pmap.mask, sgn * np.cos(pmap.chi) * np.cos(pmap.psi - phi), np.nan)


def read_pgm(path) -> np.ndarray:
    """A binary 8- or 16-bit PGM as floats in [0, 1]: pixels over maxval."""
    raw = Path(path).read_bytes()
    m = re.match(rb"P5\s+(?:#[^\n]*\n\s*)*(\d+)\s+(\d+)\s+(\d+)\s", raw)
    if not m:
        raise DomainError(f"{path}: not a binary PGM")
    cols, rows, maxval = (int(m.group(i)) for i in (1, 2, 3))
    pixels = np.frombuffer(raw[m.end():], dtype=">u2" if maxval > 255 else "u1",
                           count=rows * cols)
    return pixels.reshape(rows, cols).astype(float) / maxval


# ------------------------------------------------------------------ grids


def grid_text(values, header: dict) -> str:
    """A grid file written one value at a time with f"{v:.9e}"."""
    meta = dict(header)
    meta["rows"], meta["cols"] = (int(k) for k in np.shape(values))
    lines = ["# " + json.dumps(meta, sort_keys=True)]
    lines += [" ".join(f"{v:.9e}" for v in row) for row in values]
    return "\n".join(lines) + "\n"


def table_text(comment: str, *columns) -> str:
    """A column table written one value at a time with f"{v:.9e}"."""
    lines = ["# " + comment]
    lines += [" ".join(f"{v:.9e}" for v in row) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


# -------------------------------------------------------------- wavefront


def _radial_powers(n: int, m: int):
    """(c_k, n - 2k) of R_n^|m|(rho) = sum_k c_k rho^(n-2k),
    c_k = (-1)^k (n-k)! / (k! ((n+m)/2-k)! ((n-m)/2-k)!)."""
    a = abs(m)
    return [((-1) ** k * math.factorial(n - k)
             / (math.factorial(k) * math.factorial((n + a) // 2 - k)
                * math.factorial((n - a) // 2 - k)), n - 2 * k)
            for k in range((n - a) // 2 + 1)]


def zernike_radial(n: int, m: int, rho) -> np.ndarray:
    """R_n^|m|(rho) as a sum of powers."""
    rho = np.asarray(rho, dtype=float)
    radial = np.zeros_like(rho)
    for c, power in _radial_powers(n, m):
        radial = radial + c * rho ** power
    return radial


def zernike_radial_exact(n: int, m: int, rho) -> np.ndarray:
    """R_n^|m|(rho) summed in exact rational arithmetic, rounded once.

    Each rho is a float, so a Fraction holds it exactly, and the integer
    coefficients of the powers then cancel without rounding.
    """
    a = abs(m)
    coeffs = [((-1) ** k * math.factorial(n - k)
               // (math.factorial(k) * math.factorial((n + a) // 2 - k)
                   * math.factorial((n - a) // 2 - k)), n - 2 * k)
              for k in range((n - a) // 2 + 1)]
    out = []
    for r in np.asarray(rho, dtype=float).ravel():
        x = Fraction(float(r))
        out.append(float(sum(c * x**power for c, power in coeffs)))
    return np.array(out).reshape(np.shape(rho))


def zernike_angular(m: int, phi) -> np.ndarray:
    """cos(m phi) for m > 0, sin(|m| phi) for m < 0, 1 for m = 0."""
    phi = np.asarray(phi, dtype=float)
    if m > 0:
        return np.cos(m * phi)
    if m < 0:
        return np.sin(-m * phi)
    return np.ones_like(phi)


def zernike_sum(expansion, rho, phi) -> np.ndarray:
    """Zernike expansion as a plain sum of terms, each a sum of powers."""
    out = np.zeros(np.broadcast(np.asarray(rho), np.asarray(phi)).shape)
    for n, m, v in expansion.terms:
        out = out + v * zernike_radial(n, m, rho) * zernike_angular(m, phi)
    return out


def zernike_abs_sum(expansion, rho) -> np.ndarray:
    """sum over terms and powers of |value * c_k| rho^(n-2k).

    Rounding bounds any term-by-term evaluation of the expansion to a
    small multiple of eps times this sum. It exceeds the values by orders
    of magnitude at high degree, where the powers of R_n^m cancel.
    """
    rho = np.asarray(rho, dtype=float)
    out = np.zeros_like(rho)
    for n, m, v in expansion.terms:
        for c, power in _radial_powers(n, m):
            out = out + abs(v * c) * rho ** power
    return out


def zernike_fit_lstsq(phase_map, degree: int) -> np.ndarray:
    """Coefficients of every (n, m) with n <= degree, in (n, m) order, by an
    SVD least-squares solve on a design matrix of per-term power sums."""
    rows, cols = phase_map.values.shape
    y = -1.0 + (np.arange(rows) + 0.5) * 2.0 / rows
    x = -1.0 + (np.arange(cols) + 0.5) * 2.0 / cols
    xx, yy = np.meshgrid(x, y)
    rho, phi = np.hypot(xx, yy), np.arctan2(yy, xx)
    sel = phase_map.mask & (rho <= 1.0)
    design = np.column_stack([
        zernike_radial(n, m, rho[sel]) * zernike_angular(m, phi[sel])
        for n in range(degree + 1) for m in range(-n, n + 1, 2)
    ])
    coef, *_ = np.linalg.lstsq(design, phase_map.values[sel], rcond=None)
    return coef


# ------------------------------------------------------------- quadrature


trapezoid = getattr(np, "trapezoid", None) or np.trapz


def annulus_overlap(f, g, lo: float, hi: float, n: int = 200_001, cuts=()) -> float:
    """Brute-force trapezoid of the normalized radial overlap integral.

    [lo, hi] is cut at ``cuts`` (radii where a profile has a kink or a
    jump), and each piece takes n points, its ends nudged one ulp inward
    so that a profile's value there is its limit from inside the piece.
    """
    edges = [lo, *sorted(c for c in cuts if lo < c < hi), hi]
    num = na = nb = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        rho = np.linspace(a, b, n)
        rho[0], rho[-1] = np.nextafter(a, b), np.nextafter(b, a)
        fa, fb = f(rho), g(rho)
        num += trapezoid(fa * fb * rho, rho)
        na += trapezoid(fa * fa * rho, rho)
        nb += trapezoid(fb * fb * rho, rho)
    return float(num / math.sqrt(na * nb))


def doughnut_waist_root(lo: float, hi: float, bracket, weight=None, n: int = 200_001) -> float:
    """Root in (bracket) of d eta / dw for the doughnut q rho exp(-rho^2/w^2)
    against the dipole rho / ((rho/2)^2 + 1)^2 on [lo, hi].

    With g the doughnut, dg/dw = 2 rho^3/w^3 exp(-rho^2/w^2) q, and eta =
    N / sqrt(A D) gives d log(eta)/dw = N'/N - A'/(2A), each integral a
    trapezoid at n points. The root is bisected to the last bit.
    """
    rho = np.linspace(lo, hi, n)
    q = np.ones_like(rho) if weight is None else np.asarray(weight(rho), dtype=float)
    dipole = rho / ((rho / 2.0) ** 2 + 1.0) ** 2

    def slope(w):
        g = q * rho * np.exp(-(rho**2) / w**2)
        g_w = g * 2.0 * rho**2 / w**3
        cross = trapezoid(g * dipole * rho, rho)
        cross_w = trapezoid(g_w * dipole * rho, rho)
        norm = trapezoid(g * g * rho, rho)
        norm_w = 2.0 * trapezoid(g * g_w * rho, rho)
        return cross_w / cross - 0.5 * norm_w / norm

    a, b = bracket
    fa = slope(a)
    if fa * slope(b) > 0:
        raise DomainError("bracket does not enclose a root of d eta / dw")
    while True:
        m = 0.5 * (a + b)
        if m in (a, b):
            return float(m)
        fm = slope(m)
        if (fm > 0) == (fa > 0):
            a, fa = m, fm
        else:
            b = m


def weighted_sigma(expansion, aperture) -> float:
    """Dipole-weighted RMS of a Zernike aberration over the mirror annulus.

    Trapezoid in theta with weight sin^3(theta) (quadrature measure
    sin(theta) times the dipole-mode intensity sin^2), uniform azimuth.
    This is the stationary-phase weight governing the on-axis Strehl of
    the dipole-matched mode.
    """
    th = np.linspace(aperture.theta_bore, aperture.theta_max, 2001)
    ph = np.arange(512) * 2.0 * math.pi / 512
    ru = rho_from_theta(th) / aperture.rho_max
    # on the (theta, phi) grid the term sum is a product of a radial and
    # an angular matrix
    radial = np.column_stack([v * zernike_radial(n, m, ru) for n, m, v in expansion.terms])
    angular = np.stack([zernike_angular(m, ph) for _, m, _ in expansion.terms])
    w = radial @ angular
    q = np.broadcast_to((np.sin(th) ** 3 * np.gradient(th))[:, None], w.shape)
    mean = np.sum(w * q) / np.sum(q)
    return math.sqrt(np.sum((w - mean) ** 2 * q) / np.sum(q))


# ----------------------------------------------------------------- search

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def scan_then_golden(f, grid, xtol):
    """Maximum of f: argmax on the grid, then golden section between the
    grid neighbours of that argmax down to xtol. Returns (f_max, x_max)."""
    k = int(np.argmax([f(x) for x in grid]))
    a, b = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    c, d = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > xtol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return f(x), x


# --------------------------------------------------------------- temporal


def overlap_at_shift(pulse, spec, shift_ns):
    """Projection of the pulse, displaced by shift_ns, on the ideal envelope.

    Each bin [t_i + s - dt/2, t_i + s + dt/2] is cut at t = 0 and the
    rising exponential exp(gamma t/2) is integrated over what remains,
    exactly: (2/gamma) exp(gamma lo/2) expm1(gamma (hi - lo)/2), so a short
    bin does not cancel. The sum is normalized by sqrt(int E^2 dt / gamma).
    ``shift_ns`` may be an array; the result then has its shape.
    """
    gamma = 1.0 / spec.lifetime_ns
    e = np.asarray(pulse.samples, dtype=float)
    width = pulse.bin_width_ns
    t = pulse.t_end_ns - width * np.arange(e.size - 1, -1, -1)
    norm = math.sqrt(float(np.sum(e**2) * width) / gamma)
    centers = t + np.asarray(shift_ns, dtype=float)[..., None]
    hi = np.minimum(centers + 0.5 * width, 0.0)
    lo = np.minimum(centers - 0.5 * width, 0.0)
    integrals = (2.0 / gamma) * np.exp(0.5 * gamma * lo) * np.expm1(0.5 * gamma * (hi - lo))
    out = integrals @ e / norm
    return float(out) if np.ndim(shift_ns) == 0 else out


def temporal_overlap_scan(pulse, spec, shift_lifetimes: float = 10.0):
    """eta_t and shift by brute force: every bin integrated at every shift.

    Each bin's integral is overlap_at_shift's, on a scan of 801 shifts over
    +-shift_lifetimes tau, refined by golden section to 1e-10 tau. Returns
    (eta_t, shift_ns).
    """
    tau = spec.lifetime_ns
    span = shift_lifetimes * tau
    scan = np.linspace(-span, span, 801)
    return scan_then_golden(lambda s: overlap_at_shift(pulse, spec, s), scan, 1e-10 * tau)


def aom_lowpass(envelope, buildup_time_ns: float) -> np.ndarray:
    """Modulator low-pass by its per-bin recursion, in 40-digit decimals.

    y_i = a y_(i-1) + (1 - a) x_i over the samples followed by
    ceil(5 tau_b / dt) empty bins, a = exp(-dt/tau_b), with a and 1 - a the
    doubles a double-precision recursion would use. In doubles the
    recursion itself drifts by up to 8e-15 of the peak over a long, slow
    response, so the reference carries 40 digits and rounds each output
    to a double once.
    """
    dt = envelope.bin_width_ns
    n_tail = int(math.ceil(5.0 * buildup_time_ns / dt))
    decay = math.exp(-dt / buildup_time_ns)
    out = np.empty(envelope.samples.size + n_tail)
    with localcontext() as ctx:
        ctx.prec = 40
        a, c = Decimal(decay), Decimal(1.0 - decay)
        acc = Decimal(0)
        for i, x in enumerate(envelope.samples.tolist() + [0.0] * n_tail):
            acc = acc * a + Decimal(x) * c
            out[i] = float(acc)
    return out


# ------------------------------------------------------------ focal field


def _sphere_axes(field):
    """sin and cos of theta and phi, broadcast to the (n_theta, n_phi) nodes."""
    shape = (field.n_theta, field.n_phi)
    theta = np.broadcast_to(field.theta, shape)
    phi = np.broadcast_to(field.phi, shape)
    return np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)


def sphere_vector_field(source, field) -> np.ndarray:
    """Cartesian field of the mode ``source`` on the nodes of ``field``, (n_theta, n_phi, 3).

    A point of the sphere at (theta, phi) sees the entrance plane at radius
    rho = 2 tan(theta/2) (units of f), with apodization sec^2(theta/2). A
    radially polarized mode is amplitude(rho) along
    e_theta = (cos t cos p, cos t sin p, sin t).
    """
    st, ct, sp, cp = _sphere_axes(field)
    theta = np.arccos(ct)
    radial = np.asarray(source.amplitude(2.0 * np.tan(theta / 2.0)), dtype=float)
    radial = radial / np.cos(theta / 2.0) ** 2
    return np.stack([radial * ct * cp, radial * ct * sp, radial * st], axis=-1)


def propagation(field) -> np.ndarray:
    """Unit propagation vectors s = -r_hat = (-sin t cos p, -sin t sin p, cos t)."""
    st, ct, sp, cp = _sphere_axes(field)
    return np.stack([-st * cp, -st * sp, ct], axis=-1)


# element count per chunk of the Debye phase matrix (memory bound)
_CHUNK_ELEMENTS = 4_000_000


def focal_field(mode, field, positions_lambda, aberration=None) -> np.ndarray:
    """Complex Cartesian field at positions given in wavelength units.

    The Debye sum over every node: sum_nodes w * E * exp(i 2 pi W) *
    exp(i 2 pi s . x), with E the oracle's ``sphere_vector_field`` of
    ``mode`` on the field's nodes. positions_lambda has shape (n, 3) or (3,); the result
    matches with a trailing component axis. ``aberration`` takes the forms
    ``strehl`` documents and is resolved by the package's own resolver,
    whose input handling the focal-field tests exercise through it.
    """
    pos = np.asarray(positions_lambda, dtype=float)
    single = pos.ndim == 1
    pos = np.atleast_2d(pos)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise DomainError("positions must have shape (n, 3)")
    w = _resolve_aberration(field, aberration)
    vector = sphere_vector_field(mode, field)
    amp = (vector * (field.weight * np.exp(2j * math.pi * w))[..., None]).reshape(-1, 3)
    s = propagation(field).reshape(-1, 3)
    chunk = max(1, _CHUNK_ELEMENTS // s.shape[0])
    out = np.empty((pos.shape[0], 3), dtype=complex)
    for k in range(0, pos.shape[0], chunk):
        block = pos[k : k + chunk]
        out[k : k + chunk] = np.exp(2j * math.pi * (s @ block.T)).T @ amp
    return out[0] if single else out


def sphere_overlap(a, b) -> float:
    """Normalized overlap of two sphere fields on a common node set.

    Reads each field's own ``efield``; for modes it equals their
    entrance-plane overlap, so it cross-checks the plane-to-sphere map.
    """
    ea, eb = a.efield, b.efield
    if ea.shape != eb.shape or not np.allclose(a.theta, b.theta):
        raise DomainError("sphere fields must share one quadrature grid")
    num = float(np.real(np.sum(a.weight * np.sum(ea * np.conj(eb), axis=-1))))
    na = float(np.sum(a.weight * np.sum(np.abs(ea) ** 2, axis=-1)))
    nb = float(np.sum(b.weight * np.sum(np.abs(eb) ** 2, axis=-1)))
    if na <= 0 or nb <= 0:
        raise DomainError("zero-energy sphere field in overlap")
    return num / math.sqrt(na * nb)


def axial_strehl(mode, field, w_nodes, halfwidth: float = 2.0, center: float = 0.0):
    """Strehl ratio of |E_z|^2 by a full node sum at every axial position.

    An atom whose dipole lies on the axis couples to the on-axis E_z alone:
    sum_nodes amp * exp(i 2 pi (W + z cos theta)), amp the node weight
    times the z component of ``sphere_vector_field`` of ``mode`` on the
    field's nodes.
    The maximum over z is taken on 81 points over center +- halfwidth,
    refined by golden section to 1e-6 wavelengths and then by two Newton
    steps on the analytic dI/dz, each node summed on its own. Returns
    (ratio, nominal, z_peak).
    """
    vector = sphere_vector_field(mode, field)
    shape = vector.shape[:2]
    amp0 = (vector[..., 2] * field.weight).ravel()
    amp = amp0 * np.exp(2j * math.pi * np.broadcast_to(w_nodes, shape).ravel())
    cos_theta = np.cos(np.broadcast_to(field.theta, shape).ravel())

    def intensity(a, z):
        return float(abs(np.exp(2j * math.pi * cos_theta * z) @ a) ** 2)

    denom = intensity(amp0, 0.0)
    _, z = scan_then_golden(lambda z: intensity(amp, z),
                            center + np.linspace(-halfwidth, halfwidth, 81), 1e-6)
    k = 2.0 * math.pi * cos_theta
    for _ in range(2):
        p = np.exp(1j * k * z)
        e, e1, e2 = p @ amp, (1j * k * p) @ amp, (-(k**2) * p) @ amp
        d1 = 2.0 * np.real(np.conj(e) * e1)
        d2 = 2.0 * np.real(np.conj(e1) * e1 + np.conj(e) * e2)
        z -= d1 / d2
    return intensity(amp, z) / denom, intensity(amp, 0.0) / denom, z


def wide_axial_strehl(mode, field, w_nodes, halfwidth: float = 40.0, step: float = 0.005):
    """Strehl ratio of |E_z|^2 at the global axial maximum over +-halfwidth.

    Brute force: the on-axis intensity on every point ``step`` apart over
    the whole window. The nodes of one ring share cos theta, so each
    ring's aberrated E_z amplitudes are summed first, a regrouping of the
    node sum into one column. ``axial_strehl`` then refines the best point
    within one step of it. Returns (ratio, nominal, z_peak).
    """
    axial = sphere_vector_field(mode, field)[..., 2]
    phasor = np.exp(2j * math.pi * np.broadcast_to(w_nodes, axial.shape))
    rings = np.sum(axial * field.weight * phasor, axis=1)
    cos_theta = np.cos(field.theta[:, 0])
    z = np.arange(-round(halfwidth / step), round(halfwidth / step) + 1) * step
    intensity = np.empty(z.size)
    for start in range(0, z.size, 1024):
        e = np.exp(2j * math.pi * np.multiply.outer(z[start:start + 1024], cos_theta)) @ rings
        intensity[start:start + 1024] = np.abs(e) ** 2
    return axial_strehl(mode, field, w_nodes, halfwidth=step, center=z[np.argmax(intensity)])


def direct_coupling(mode, field, aberration, z: float) -> float:
    """Coupling of the aberrated wave to an axial dipole at z on the axis.

    The dipole-wave overlap |E_z(z)|^2 / (P * 8 pi / 3): E_z(z) =
    sum_nodes w * A sin(theta) * exp(i 2 pi (W + z cos theta)) and P =
    sum_nodes w * A^2 the power through the aperture, A the
    ``sphere_vector_field`` amplitude of ``mode`` on the field's nodes and W the Zernike expansion
    ``aberration`` summed term by term; 8 pi / 3 is the integral of
    sin^2(theta) over the full sphere. Each node is summed on its own.
    """
    vector = sphere_vector_field(mode, field)
    shape = vector.shape[:2]
    w = np.broadcast_to(zernike_sum(aberration, field.rho_unit, field.phi), shape)
    cos_theta = np.cos(np.broadcast_to(field.theta, shape))
    weight = np.broadcast_to(field.weight, shape)
    e_z = np.sum(weight * vector[..., 2] * np.exp(2j * math.pi * (w + z * cos_theta)))
    power = np.sum(weight * np.sum(vector**2, axis=-1))
    return float(abs(e_z) ** 2 / (power * 8.0 * math.pi / 3.0))
