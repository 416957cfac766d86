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
keeps the sharp t=0 cutoff from biasing the discretization. The best
shift puts a bin edge at t = 0, so the maximum over all shifts is exact
and comes from one first-order recursion over the bins. A modeled pulse
spans at most 10,000,000 bins, the modulator tail included; a duration,
bin width or build-up time that asks for more raises DomainError.

Pulse shaping uses an acousto-optic modulator driven by an RF signal with
envelope U0(t) = arcsin(exp(t/(2*tau))), so that the diffracted intensity
sin^2(U0) follows exp(t/tau) exactly. The finite build-up/decay of the
optical grating in the modulator is modeled as a first-order low-pass on
the field envelope (time constant = build-up time); the model is a design
choice and deliberately simple. Its exact per-bin update and the overlap's
recursion run as one blocked scan: one Toeplitz matrix product per block
of bins, and one carry per block between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UndefinedOverlapError

__all__ = [
    "TransitionSpec",
    "T1",
    "T2",
    "PulseEnvelope",
    "ideal_envelope",
    "temporal_overlap",
    "TemporalOverlapResult",
    "aom_drive",
    "DriveWaveform",
    "aom_response",
]

# modulator tail modeled past the input, in build-up times, and the bins
# per block of the blocked decay scan
_TAIL_BUILDUPS = 5.0
_SCAN_BLOCK = 64
# bins one modeled pulse may span, the modulator tail included: 170 times
# the 58,750 of a default T2 pulse, and 80 MB per array of them
_MAX_BINS = 10_000_000


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
        return float(np.dot(self.samples, self.samples) * self.bin_width_ns)


def _check_bins(bins: float) -> None:
    if bins > _MAX_BINS:
        raise DomainError(f"a pulse of {bins:.3g} bins exceeds the limit of {_MAX_BINS:,} bins")


def _bin_centers(duration_ns: float, bin_width_ns: float) -> np.ndarray:
    """Centers of the (at least two) uniform bins that fill [-duration, 0].

    Raises DomainError for more than _MAX_BINS bins.
    """
    if duration_ns <= 0:
        raise DomainError(f"duration must be positive, got {duration_ns}")
    if bin_width_ns <= 0:
        raise DomainError(f"bin width must be positive, got {bin_width_ns}")
    bins = duration_ns / bin_width_ns
    _check_bins(bins)
    n = max(int(round(bins)), 2)
    t = np.arange(n - 1, -1, -1, dtype=float)
    t *= -bin_width_ns
    t -= 0.5 * bin_width_ns
    return t


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
    the fixed ideal envelope) chosen to maximize the projection. While no
    bin edge crosses t = 0, the projection is C0 + C1 exp(gamma s/2),
    monotone in s; so its maximum over all shifts lies where some bin's
    right edge sits at t = 0, at s_k = -(t_k + dt/2). There the bins up to
    k are whole and the rest contribute nothing:

        eta_t(s_k) = (2/gamma) (1 - r) y_k / norm,
        y_k = r y_(k-1) + e_k,  r = exp(-gamma dt/2),

    where (2/gamma) (1 - r) is the ideal envelope's integral over the bin
    [-dt, 0] and norm = sqrt(int E_inc^2 dt / gamma). One pass of that
    recursion scores every edge; where several score the same, the first
    is returned. No window bounds the shift, and no term overflows,
    whatever the extent of the pulse or its t_end.

    Returns the overlap and the maximizing shift. Raises
    UndefinedOverlapError for a zero-energy pulse.
    """
    energy = pulse.energy()
    if energy <= 0.0:
        raise UndefinedOverlapError("zero-energy pulse")
    gamma = spec.gamma
    dt = pulse.bin_width_ns
    n = pulse.samples.size
    gain = (-2.0 / gamma) * math.expm1(-0.5 * gamma * dt) / math.sqrt(energy / gamma)
    eta = _decay_scan(pulse.samples, n, math.exp(-0.5 * gamma * dt), gain)
    k = int(np.argmax(eta))
    t_k = pulse.t_end_ns - dt * (n - 1 - k)
    return TemporalOverlapResult(eta_t=float(eta[k]), shift_ns=-(t_k + 0.5 * dt))


def _decay_scan(x, n: int, decay: float, gain: float) -> np.ndarray:
    """y_i = decay y_(i-1) + gain x_i for i < n, from y_(-1) = 0.

    ``x`` holds at most n inputs; the inputs past its end are zero. The
    recursion runs as a blocked scan: within each block of 64 bins the
    response to the block's own input is one product with the
    lower-triangular Toeplitz matrix gain decay^(j-k); the output carried
    in from the block before decays as decay^(j+1) across the block, and
    the carries follow one recursion per block. Only powers decay^m with
    m >= 0 appear, so none overflows when decay tends to 0.

    The output is the one array of the pulse's size allocated per call: the
    whole blocks of input multiply straight into it, and the carry terms
    are added in place, 64 blocks (32 KiB) at a time.
    """
    blocks = -(-n // _SCAN_BLOCK)
    powers = decay ** np.arange(_SCAN_BLOCK + 1)
    lag = np.subtract.outer(np.arange(_SCAN_BLOCK), np.arange(_SCAN_BLOCK))
    toeplitz = np.tril(gain * powers[np.abs(lag)])
    # each block's response from rest; blocks past the input respond 0
    y = np.zeros((blocks, _SCAN_BLOCK))
    whole = min(x.size, n) // _SCAN_BLOCK
    np.matmul(x[:whole * _SCAN_BLOCK].reshape(whole, _SCAN_BLOCK), toeplitz.T, out=y[:whole])
    rest = x[whole * _SCAN_BLOCK:n]
    if rest.size:
        y[whole] = toeplitz[:, :rest.size] @ rest
    # then the output carried in from the block before, which holds that
    # block's own carry decayed across it
    across, carries = float(powers[-1]), [0.0]
    for block_last in y[:-1, -1].tolist():
        carries.append(block_last + across * carries[-1])
    carries = np.array(carries)
    for start in range(0, blocks, _SCAN_BLOCK):
        y[start:start + _SCAN_BLOCK] += np.multiply.outer(carries[start:start + _SCAN_BLOCK],
                                                          powers[1:])
    return y.ravel()[:n]


@dataclass(frozen=True)
class DriveWaveform:
    """RF drive envelope U0(t) in radians, sampled at bin centers."""

    times_ns: np.ndarray
    u0_rad: np.ndarray
    bin_width_ns: float

    def field_envelope(self) -> PulseEnvelope:
        """Field envelope implied by the drive: sin(U0), so intensity sin^2(U0)."""
        return PulseEnvelope(np.sin(self.u0_rad), self.bin_width_ns, float(self.times_ns[-1]))


def aom_drive(spec: TransitionSpec, duration_ns: float, bin_width_ns: float) -> DriveWaveform:
    """Drive envelope U0(t) = arcsin(exp(t/(2*tau))) on [-duration, 0].

    sin^2(U0(t)) = exp(t/tau) recovers the target intensity exactly;
    U0(0-) = pi/2. The bins end at t = 0, beyond which the arcsin argument
    would exceed 1.
    """
    t = _bin_centers(duration_ns, bin_width_ns)
    u0 = t / (2.0 * spec.lifetime_ns)
    np.exp(u0, out=u0)
    np.arcsin(u0, out=u0)
    return DriveWaveform(times_ns=t, u0_rad=u0, bin_width_ns=bin_width_ns)


def aom_response(envelope: PulseEnvelope, buildup_time_ns: float) -> PulseEnvelope:
    """First-order low-pass response of the modulator to a field envelope.

    Applies y' = (x - y)/tau_b with tau_b = buildup_time to the input
    envelope (exact zero-order-hold update per bin,
    y_i = a y_(i-1) + (1 - a) x_i with a = exp(-dt/tau_b)) and extends the
    time axis past the input by 5 tau_b to capture the smeared falling
    edge. buildup_time = 0 returns the input unchanged. Raises DomainError
    for a negative build-up time, and when input and tail together span
    more than _MAX_BINS bins.

    The recursion is the shared blocked scan of temporal_overlap.
    """
    if buildup_time_ns < 0:
        raise DomainError(f"buildup time must be >= 0, got {buildup_time_ns}")
    if buildup_time_ns == 0.0:
        return envelope
    dt = envelope.bin_width_ns
    tail = _TAIL_BUILDUPS * buildup_time_ns / dt
    _check_bins(envelope.samples.size + tail)
    n_tail = int(math.ceil(tail))
    decay = math.exp(-dt / buildup_time_ns)
    y = _decay_scan(envelope.samples, envelope.samples.size + n_tail, decay, 1.0 - decay)
    return PulseEnvelope(y, dt, envelope.t_end_ns + n_tail * dt)
