"""Temporal wave-packet design and overlap scoring.

Optimal excitation of a two-level system with decay rate Gamma = 1/tau
wants the time reverse of its spontaneous decay: a rising exponential

    E_ideal(t) = exp(Gamma*t/2) * heaviside(-t),

truncated sharply at t = 0. A candidate field envelope E_inc is scored by
the temporal overlap

    eta_t = max_s int E_inc(t - s) E_ideal(t) dt / sqrt(int E_inc^2 dt / Gamma),

the time shift s chosen to maximize the projection. The normalization uses
int E_ideal^2 dt = 1/Gamma, so eta_t <= 1 with equality only for the exact
rising exponential.

Envelopes are sampled at bin centers (midpoint rule); the projection
evaluates the ideal envelope's integral over each bin analytically, which
keeps the sharp t=0 cutoff from biasing the discretization.

Pulse shaping uses an acousto-optic modulator driven by an RF signal with
envelope U0(t) = arcsin(exp(t/(2*tau))), so that the diffracted intensity
sin^2(U0) follows exp(t/tau) exactly. The finite build-up/decay of the
optical grating in the modulator is modeled as a first-order low-pass on
the field envelope (time constant = build-up time); the model is a design
choice and deliberately simple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, UndefinedOverlapError
from .gridio import read_table
from .search import argmax_bracketed

__all__ = [
    "TransitionSpec",
    "T1",
    "T2",
    "PulseEnvelope",
    "AomModel",
    "ideal_envelope",
    "temporal_overlap",
    "TemporalOverlapResult",
    "aom_drive",
    "DriveWaveform",
    "aom_response",
    "histogram_to_envelope",
    "load_histogram",
]

# half-width of the initial shift scan in lifetimes, and how often an edge
# maximum may double it
_SHIFT_LIFETIMES = 10.0
_SHIFT_WIDENINGS = 3
# modulator tail modeled past the input, in build-up times
_TAIL_BUILDUPS = 5.0


@dataclass(frozen=True)
class TransitionSpec:
    """An atomic dipole transition: label, wavelength, lifetime."""

    label: str
    wavelength_nm: float
    lifetime_ns: float

    def __post_init__(self):
        if self.lifetime_ns <= 0:
            raise DomainError(f"lifetime must be positive, got {self.lifetime_ns}")
        if self.wavelength_nm <= 0:
            raise DomainError(f"wavelength must be positive, got {self.wavelength_nm}")

    @property
    def gamma(self) -> float:
        """Decay rate in 1/ns."""
        return 1.0 / self.lifetime_ns


T1 = TransitionSpec("T1", 369.5, 8.1)
T2 = TransitionSpec("T2", 251.8, 230.0)


@dataclass(frozen=True)
class PulseEnvelope:
    """Sampled field envelope on uniform bins.

    samples[i] is the field amplitude at the center of bin i; t_end is the
    center time of the last bin, measured relative to the intended
    truncation edge t = 0 of the ideal envelope.
    """

    samples: np.ndarray
    bin_width_ns: float
    t_end_ns: float = 0.0

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        if self.bin_width_ns <= 0:
            raise DomainError(f"bin width must be positive, got {self.bin_width_ns}")
        if samples.ndim != 1 or samples.size < 2:
            raise DomainError("envelope needs at least two samples")
        if not np.all(np.isfinite(samples)) or np.any(samples < 0):
            raise DomainError("envelope amplitudes must be finite and non-negative")

    def times(self) -> np.ndarray:
        """Bin-center times in ns."""
        n = self.samples.size
        return self.t_end_ns - self.bin_width_ns * np.arange(n - 1, -1, -1)

    def energy(self) -> float:
        """Integral of the squared envelope (amplitude^2 * ns)."""
        return float(np.sum(self.samples**2) * self.bin_width_ns)

    def shifted(self, delta_ns: float) -> "PulseEnvelope":
        return PulseEnvelope(self.samples, self.bin_width_ns, self.t_end_ns + delta_ns)


def _bin_centers(duration_ns: float, bin_width_ns: float) -> np.ndarray:
    """Centers of the (at least two) uniform bins that fill [-duration, 0]."""
    if duration_ns <= 0:
        raise DomainError(f"duration must be positive, got {duration_ns}")
    n = max(int(round(duration_ns / bin_width_ns)), 2)
    return -0.5 * bin_width_ns - bin_width_ns * np.arange(n - 1, -1, -1)


def ideal_envelope(spec: TransitionSpec, duration_ns: float, bin_width_ns: float) -> PulseEnvelope:
    """Rising exponential exp(Gamma*t/2) sampled on [-duration, 0]."""
    t = _bin_centers(duration_ns, bin_width_ns)
    return PulseEnvelope(np.exp(spec.gamma * t / 2.0), bin_width_ns, -0.5 * bin_width_ns)


@dataclass(frozen=True)
class TemporalOverlapResult:
    eta_t: float
    shift_ns: float


def temporal_overlap(
    pulse: PulseEnvelope,
    spec: TransitionSpec,
) -> TemporalOverlapResult:
    """Temporal overlap of a pulse with the ideal rising exponential.

    The incident envelope is displaced by a shift s (E_inc(t - s) against
    the fixed ideal envelope) chosen to maximize the projection. The search
    scans 801 shifts over +-10 tau and refines with golden section to
    1e-10 tau. A best shift on the edge of the scan doubles its span, at
    most three times, before raising ConvergenceError, so a pulse far from
    t = 0 is still scored at its best shift.

    Returns the overlap and the maximizing shift. Raises
    UndefinedOverlapError for a zero-energy pulse.
    """
    energy = pulse.energy()
    if energy <= 0.0:
        raise UndefinedOverlapError("zero-energy pulse")
    gamma = spec.gamma
    tau = spec.lifetime_ns
    t = pulse.times()
    e = pulse.samples
    half = 0.5 * pulse.bin_width_ns
    norm = math.sqrt(energy / gamma)
    # A bin wholly before the cutoff at shift s contributes
    # e_i * exp(gamma*(t_i + s)/2) * whole_bin; those are the first k(s)
    # bins, so one prefix sum serves every shift. It is kept as a log so
    # that no pulse extent overflows or underflows it.
    whole_bin = (4.0 / gamma) * math.sinh(gamma * pulse.bin_width_ns / 4.0)
    with np.errstate(divide="ignore"):
        log_terms = np.log(e) + 0.5 * gamma * t
    log_prefix = np.concatenate([[-np.inf], np.logaddexp.accumulate(log_terms)])

    def project(s):
        k = np.searchsorted(t, -s - half, side="right")
        whole = whole_bin * np.exp(log_prefix[k] + 0.5 * gamma * s)
        # the bin straddling the cutoff, if any, is integrated up to t = 0
        j = np.minimum(k, t.size - 1)
        lo = np.minimum(t[j] + s - half, 0.0)
        edge = np.where(k < t.size, e[j] * (-2.0 / gamma) * np.expm1(0.5 * gamma * lo), 0.0)
        return (whole + edge) / norm

    span = _SHIFT_LIFETIMES * tau
    shift, eta_t = argmax_bracketed(project, np.linspace(-span, span, 801), 1e-10 * tau,
                                    widenings=_SHIFT_WIDENINGS)
    return TemporalOverlapResult(eta_t=eta_t, shift_ns=shift)


@dataclass(frozen=True)
class AomModel:
    """Acousto-optic modulator response parameters.

    rf_frequency_hz is the carrier frequency of the RF drive; it is not used
    by the envelope model and is carried for reporting and export only.
    """

    rf_frequency_hz: float = 400e6
    buildup_time_ns: float = 5.0

    def __post_init__(self):
        if self.buildup_time_ns < 0:
            raise DomainError(f"buildup time must be >= 0, got {self.buildup_time_ns}")


@dataclass(frozen=True)
class DriveWaveform:
    """RF drive envelope U0(t) in radians, sampled at bin centers."""

    times_ns: np.ndarray
    u0_rad: np.ndarray
    bin_width_ns: float

    def save(self, path):
        lines = ["# AOM drive envelope: t_ns U0_rad"]
        lines += [f"{t:.9e} {u:.9e}" for t, u in zip(self.times_ns, self.u0_rad)]
        Path(path).write_text("\n".join(lines) + "\n")

    def field_envelope(self) -> PulseEnvelope:
        """Field envelope implied by the drive: sin(U0), so intensity sin^2(U0)."""
        return PulseEnvelope(np.sin(self.u0_rad), self.bin_width_ns, float(self.times_ns[-1]))


def aom_drive(spec: TransitionSpec, duration_ns: float, bin_width_ns: float) -> DriveWaveform:
    """Drive envelope U0(t) = arcsin(exp(t/(2*tau))) on [-duration, 0].

    sin^2(U0(t)) = exp(t/tau) recovers the target intensity exactly;
    U0(0-) = pi/2. Evaluation beyond t = 0 is a domain error (the arcsin
    argument would exceed 1).
    """
    t = _bin_centers(duration_ns, bin_width_ns)
    if np.any(t > 0):
        raise DomainError("drive is only defined for t <= 0")
    u0 = np.arcsin(np.exp(t / (2.0 * spec.lifetime_ns)))
    return DriveWaveform(times_ns=t, u0_rad=u0, bin_width_ns=bin_width_ns)


def aom_response(envelope: PulseEnvelope, model: AomModel) -> PulseEnvelope:
    """First-order low-pass response of the modulator to a field envelope.

    Applies y' = (x - y)/tau_b with tau_b = buildup_time to the input
    envelope (exact zero-order-hold update per bin) and extends the time
    axis past the input by 5 tau_b to capture the smeared falling edge.
    buildup_time = 0 returns the input unchanged.
    """
    if model.buildup_time_ns == 0.0:
        return envelope
    dt = envelope.bin_width_ns
    n_tail = int(math.ceil(_TAIL_BUILDUPS * model.buildup_time_ns / dt))
    x = np.concatenate([envelope.samples, np.zeros(n_tail)])
    decay = math.exp(-dt / model.buildup_time_ns)
    y = np.empty_like(x)
    acc = 0.0
    for i, xi in enumerate(x):
        acc = acc * decay + xi * (1.0 - decay)
        y[i] = acc
    return PulseEnvelope(y, dt, envelope.t_end_ns + n_tail * dt)


def histogram_to_envelope(counts, bin_width_ns: float, reverse: bool = False,
                          t_end_ns: float = 0.0) -> PulseEnvelope:
    """Field envelope from a photon-count histogram: amplitude = sqrt(counts).

    With ``reverse`` the bin order is flipped, undoing a start-stop
    acquisition that records time backwards. Total counts are preserved as
    the sum of squared amplitudes. An all-zero histogram is accepted here
    and flagged downstream by temporal_overlap.
    """
    counts = np.asarray(counts, dtype=float)
    if np.any(counts < 0):
        raise DomainError("counts must be non-negative")
    if reverse:
        counts = counts[::-1]
    return PulseEnvelope(np.sqrt(counts), bin_width_ns, t_end_ns)


def load_histogram(path):
    """Read a two-column (bin_start_ns, counts) text file.

    Returns (counts, bin_width_ns). Bins must be uniform.
    """
    _, rows = read_table(path, "bin_start_ns counts")
    if len(rows) < 2:
        raise DomainError(f"{path}: need at least two bins")
    table = np.array(rows, dtype=float)
    widths = np.diff(table[:, 0])
    if np.any(np.abs(widths - widths[0]) > 1e-9 * abs(widths[0])):
        raise DomainError(f"{path}: bins are not uniform")
    return table[:, 1], float(widths[0])
