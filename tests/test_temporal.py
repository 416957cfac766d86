import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from dipolemirror import (
    DomainError,
    PulseEnvelope,
    TransitionSpec,
    UndefinedOverlapError,
    aom_drive,
    aom_response,
    ideal_envelope,
    temporal_overlap,
)
from dipolemirror.temporal import T1, T2


def decaying_envelope(tau: float, duration: float, bin_width: float) -> PulseEnvelope:
    """Spontaneous-decay-shaped field e^(-t/2 tau) on [0, duration]."""
    n = int(round(duration / bin_width))
    t = (np.arange(n) + 0.5) * bin_width
    return PulseEnvelope(np.exp(-t / (2.0 * tau)), bin_width, float(t[-1]))


def test_transition_presets():
    assert T1.wavelength_nm == 369.5 and T1.lifetime_ns == 8.1
    assert T2.wavelength_nm == 251.8 and T2.lifetime_ns == 230.0
    assert T1.gamma == pytest.approx(1.0 / 8.1, rel=1e-12)
    with pytest.raises(DomainError):
        TransitionSpec("bad", 369.5, 0.0)
    with pytest.raises(DomainError):
        TransitionSpec("bad", -1.0, 8.0)


def test_envelope_validation():
    with pytest.raises(DomainError):
        PulseEnvelope([1.0], 0.1)
    with pytest.raises(DomainError):
        PulseEnvelope([1.0, -0.5], 0.1)
    with pytest.raises(DomainError):
        PulseEnvelope([1.0, 1.0], 0.0)


def test_envelope_times_and_energy():
    env = PulseEnvelope([1.0, 2.0, 3.0], 0.5, t_end_ns=0.0)
    assert np.allclose(env.times(), [-1.0, -0.5, 0.0])
    assert env.energy() == pytest.approx((1.0 + 4.0 + 9.0) * 0.5)


def test_truncated_rising_exponential_closed_form():
    # eta_t of the ideal envelope truncated to length T is sqrt(1 - e^(-T/tau))
    for lifetimes in (2.0, 5.0):
        pulse = ideal_envelope(T1, lifetimes * T1.lifetime_ns, T1.lifetime_ns / 2000.0)
        result = temporal_overlap(pulse, T1)
        assert result.eta_t == pytest.approx(math.sqrt(1.0 - math.exp(-lifetimes)), abs=2e-5)
        assert abs(result.shift_ns) < 0.01 * T1.lifetime_ns


def test_decaying_exponential_closed_form():
    # best shift is exactly -2 tau; eta = (2/e)/sqrt(1 - e^(-T/tau))
    tau = 8.1
    pulse = decaying_envelope(tau, 15.0 * tau, tau / 500.0)
    result = temporal_overlap(pulse, TransitionSpec("x", 369.5, tau))
    expected = (2.0 / math.e) / math.sqrt(1.0 - math.exp(-15.0))
    assert result.eta_t == pytest.approx(expected, abs=1e-4)
    assert result.shift_ns == pytest.approx(-2.0 * tau, abs=0.1)


def test_overlap_shift_invariance():
    pulse = ideal_envelope(T1, 5.0 * T1.lifetime_ns, 0.01)
    base = temporal_overlap(pulse, T1)
    # no window bounds the shift, so +-20 tau moves it as far
    for delta in (3.7, 20.0 * T1.lifetime_ns, -20.0 * T1.lifetime_ns):
        moved = temporal_overlap(PulseEnvelope(pulse.samples, pulse.bin_width_ns,
                                               pulse.t_end_ns + delta), T1)
        assert moved.eta_t == pytest.approx(base.eta_t, abs=1e-9)
        assert moved.shift_ns == pytest.approx(base.shift_ns - delta, abs=1e-6)


@settings(max_examples=100, deadline=None)
@given(samples=st.lists(st.floats(0.0, 10.0), min_size=2, max_size=400),
       bin_lifetimes=st.floats(1e-3, 0.5), end_lifetimes=st.floats(-5.0, 5.0))
def test_overlap_of_nonnegative_envelopes_is_at_most_one(samples, bin_lifetimes,
                                                         end_lifetimes):
    pulse = PulseEnvelope(samples, bin_lifetimes * T1.lifetime_ns,
                          end_lifetimes * T1.lifetime_ns)
    if pulse.energy() == 0.0:
        return
    assert temporal_overlap(pulse, T1).eta_t <= 1.0


def _modulated(spec, buildup_ns):
    bin_width = min(0.02, spec.lifetime_ns / 2000.0)
    drive = aom_drive(spec, 5.0 * spec.lifetime_ns, bin_width)
    return aom_response(drive.field_envelope(), buildup_ns)


def _histogram_pulse():
    rng = np.random.default_rng(5)
    t = (np.arange(4000) + 0.5) * 0.01 - 30.0
    counts = rng.poisson(1000.0 * np.exp(np.minimum(t, 0.0) / T1.lifetime_ns)) * (t < 0.5)
    return PulseEnvelope(np.sqrt(counts), 0.01, float(t[-1]))


# a 1 ns lifetime keeps the brute-force scan short; 1600 lifetimes put
# exp(gamma t/2) beyond the double range at both ends
_FAST = TransitionSpec("fast", 369.5, 1.0)


def _long_tail():
    # the rising exponential, then a weak plateau out to +1600 tau
    t = -5.0 + 0.1 * np.arange(int(1605.0 / 0.1))
    return PulseEnvelope(np.where(t > 0.0, 0.01, np.exp(np.minimum(t, 0.0) / 2.0)), 0.1,
                         float(t[-1]))


def _long_prepulse():
    # a plateau from -1600 tau to -1000 tau ahead of the rising exponential
    t = -1600.0 + 0.1 * np.arange(int(1600.0 / 0.1))
    return PulseEnvelope(np.where(t < -1000.0, 0.05, np.exp(t / 2.0)), 0.1, float(t[-1]))


@pytest.mark.parametrize("make_pulse, spec", [
    (lambda: _modulated(T1, 5.0), T1),
    (lambda: _modulated(T2, 5.0), T2),
    (_histogram_pulse, T1),
    (_long_tail, _FAST),
    (_long_prepulse, _FAST),
], ids=["T1", "T2", "histogram", "long-tail", "long-prepulse"])
def test_overlap_matches_brute_force_scan(make_pulse, spec):
    pulse = make_pulse()
    result = temporal_overlap(pulse, spec)
    eta_t, shift = oracles.temporal_overlap_scan(pulse, spec)
    assert math.isfinite(result.eta_t) and math.isfinite(result.shift_ns)
    assert result.eta_t == pytest.approx(eta_t, abs=1e-10)
    assert result.shift_ns == pytest.approx(shift, abs=1e-6 * spec.lifetime_ns)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 300), bumps=st.integers(1, 4), bin_lifetimes=st.floats(1e-3, 0.5),
       end_lifetimes=st.floats(-200.0, 200.0), seed=st.integers(0, 2**32 - 1))
def test_overlap_is_the_maximum_over_every_shift(n, bumps, bin_lifetimes, end_lifetimes, seed):
    # several bumps of random place, width and height, with 30 % of the bins
    # empty, and a time axis whose end lies far from t = 0
    rng = np.random.default_rng(seed)
    bins = np.arange(n)
    samples = np.zeros(n)
    for _ in range(bumps):
        center, width = rng.uniform(0.0, n), rng.uniform(0.5, 1.0 + n / 4.0)
        samples += rng.uniform(0.05, 1.0) * np.exp(-0.5 * ((bins - center) / width) ** 2)
    samples *= rng.uniform(0.0, 1.0, n) >= 0.3
    dt = bin_lifetimes * T1.lifetime_ns
    pulse = PulseEnvelope(samples, dt, end_lifetimes * T1.lifetime_ns)
    assume(pulse.energy() > 0.0)
    result = temporal_overlap(pulse, T1)
    # every shift that puts a bin edge at t = 0, and a dense scan from
    # before the last bin's edge to past the first bin
    edges = -(pulse.times() + 0.5 * dt)
    scan = np.concatenate([edges, np.linspace(edges[-1] - 5.0 * T1.lifetime_ns,
                                              edges[0] + dt, 2001)])
    assert np.all(oracles.overlap_at_shift(pulse, T1, scan) <= result.eta_t + 1e-12)
    assert result.eta_t == pytest.approx(oracles.overlap_at_shift(pulse, T1, result.shift_ns),
                                         abs=1e-12)


def _late_bump():
    # a T1 modulator pulse, 150 ns of 2 % background, then a bump of peak
    # 0.3 and width 1.5 ns in the last 10 ns; the last bin is centered on 0
    drive = aom_drive(T1, 5.0 * T1.lifetime_ns, 0.1)
    modulated = aom_response(drive.field_envelope(), 5.0)
    t = 0.1 * np.arange(100)
    bump = 0.3 * np.exp(-0.5 * ((t - t.mean()) / 1.5) ** 2)
    return PulseEnvelope(np.concatenate([modulated.samples, np.full(1500, 0.02), bump]), 0.1)


def test_a_late_bump_does_not_hide_the_pulse():
    # near a shift of 2.35 ns the late bump makes a local maximum of 0.155;
    # a search that brackets only the maxima near t = 0 returns that one
    pulse = _late_bump()
    result = temporal_overlap(pulse, T1)
    assert oracles.overlap_at_shift(pulse, T1, 2.35) == pytest.approx(0.155, abs=1e-3)
    assert result.shift_ns == pytest.approx(181.85, abs=1e-9)
    assert result.eta_t == pytest.approx(oracles.overlap_at_shift(pulse, T1, 181.85), abs=1e-12)
    assert result.eta_t == pytest.approx(0.921, abs=1e-3)


def test_zero_pulse_overlap_undefined():
    with pytest.raises(UndefinedOverlapError):
        temporal_overlap(PulseEnvelope([0.0, 0.0, 0.0], 0.1), T1)


def test_drive_waveform_recovers_exponential_intensity():
    drive = aom_drive(T1, 5.0 * T1.lifetime_ns, 0.01)
    t = drive.times_ns
    assert np.all(t <= 0.0)
    intensity = np.sin(drive.u0_rad) ** 2
    assert np.allclose(intensity, np.exp(t / T1.lifetime_ns), atol=1e-12)
    # the drive approaches the pi/2 rail at the truncation edge
    assert drive.u0_rad[-1] == pytest.approx(math.pi / 2.0, abs=0.05)
    with pytest.raises(DomainError):
        aom_drive(T1, -1.0, 0.01)


def test_aom_response_zero_buildup_is_identity():
    env = ideal_envelope(T1, 3.0 * T1.lifetime_ns, 0.01)
    assert aom_response(env, 0.0) is env


def test_aom_response_matches_exact_step_response():
    # a constant input charges the low-pass as 1 - e^(-t/tau_b), exactly
    # reproduced by the zero-order-hold update at bin edges
    tau_b = 5.0
    dt = 0.25
    env = PulseEnvelope(np.ones(200), dt, t_end_ns=0.0)
    out = aom_response(env, tau_b)
    k = np.arange(1, 201)
    expected = 1.0 - np.exp(-k * dt / tau_b)
    assert np.allclose(out.samples[:200], expected, atol=1e-12)
    # the tail keeps discharging toward zero
    assert out.samples.size > env.samples.size
    assert out.samples[-1] < 0.01


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 5000), log_ratio=st.floats(-4.0, 2.0), seed=st.integers(0, 2**32 - 1),
       sparse=st.floats(0.0, 0.9))
@example(n=2, log_ratio=2.0, seed=0, sparse=0.0)  # decay -> 0: a = e^-100
@example(n=5000, log_ratio=-4.0, seed=1, sparse=0.0)  # 50 000 tail bins, slow decay
@example(n=63, log_ratio=0.0, seed=2, sparse=0.5)  # 68 bins: one full block and 4
def test_aom_response_matches_the_per_bin_recursion(n, log_ratio, seed, sparse):
    # dt / tau_b = 10^log_ratio; random non-negative envelopes, some bins empty
    rng = np.random.default_rng(seed)
    samples = rng.uniform(0.0, 1.0, n) * (rng.uniform(0.0, 1.0, n) >= sparse)
    envelope = PulseEnvelope(samples, 1.0, t_end_ns=-3.0)
    buildup = 10.0 ** -log_ratio
    out = aom_response(envelope, buildup)
    reference = oracles.aom_lowpass(envelope, buildup)
    assert out.samples.shape == reference.shape
    assert out.t_end_ns == envelope.t_end_ns + (reference.size - n)
    assert np.max(np.abs(out.samples - reference)) <= 1e-14 * np.max(reference)


def test_aom_response_smears_the_truncation_edge():
    drive = aom_drive(T1, 5.0 * T1.lifetime_ns, 0.004)
    clean = drive.field_envelope()
    smeared = aom_response(clean, 5.0)
    eta_clean = temporal_overlap(clean, T1).eta_t
    eta_smeared = temporal_overlap(smeared, T1).eta_t
    assert eta_smeared < eta_clean
    assert max(smeared.samples) < max(clean.samples) + 1e-12


def test_aom_response_refuses_negative_buildup():
    env = ideal_envelope(T1, 3.0 * T1.lifetime_ns, 0.01)
    with pytest.raises(DomainError, match="buildup time must be >= 0, got -1.0"):
        aom_response(env, -1.0)
