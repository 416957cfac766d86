import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dipolemirror import (
    AomModel,
    DomainError,
    PulseEnvelope,
    TransitionSpec,
    UndefinedOverlapError,
    aom_drive,
    aom_response,
    ideal_envelope,
    temporal_overlap,
)
from dipolemirror.temporal import (
    T1,
    T2,
    histogram_to_envelope,
    load_histogram,
)


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
    shifted = env.shifted(2.0)
    assert np.allclose(shifted.times(), env.times() + 2.0)


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
    # +-20 tau lies outside the first +-10 tau shift scan
    for delta in (3.7, 20.0 * T1.lifetime_ns, -20.0 * T1.lifetime_ns):
        moved = temporal_overlap(pulse.shifted(delta), T1)
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
    return aom_response(drive.field_envelope(), AomModel(buildup_time_ns=buildup_ns))


def _histogram_pulse():
    rng = np.random.default_rng(5)
    t = (np.arange(4000) + 0.5) * 0.01 - 30.0
    counts = rng.poisson(1000.0 * np.exp(np.minimum(t, 0.0) / T1.lifetime_ns)) * (t < 0.5)
    return histogram_to_envelope(counts, 0.01, t_end_ns=float(t[-1]))


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


def test_drive_waveform_save(tmp_path):
    drive = aom_drive(T1, 2.0 * T1.lifetime_ns, 0.05)
    path = tmp_path / "drive.txt"
    drive.save(path)
    rows = [line.split() for line in path.read_text().splitlines() if not line.startswith("#")]
    assert len(rows) == drive.times_ns.size
    assert float(rows[0][0]) == pytest.approx(drive.times_ns[0])
    assert float(rows[-1][1]) == pytest.approx(drive.u0_rad[-1])


def test_aom_response_zero_buildup_is_identity():
    env = ideal_envelope(T1, 3.0 * T1.lifetime_ns, 0.01)
    assert aom_response(env, AomModel(buildup_time_ns=0.0)) is env


def test_aom_response_matches_exact_step_response():
    # a constant input charges the low-pass as 1 - e^(-t/tau_b), exactly
    # reproduced by the zero-order-hold update at bin edges
    tau_b = 5.0
    dt = 0.25
    env = PulseEnvelope(np.ones(200), dt, t_end_ns=0.0)
    out = aom_response(env, AomModel(buildup_time_ns=tau_b))
    k = np.arange(1, 201)
    expected = 1.0 - np.exp(-k * dt / tau_b)
    assert np.allclose(out.samples[:200], expected, atol=1e-12)
    # the tail keeps discharging toward zero
    assert out.samples.size > env.samples.size
    assert out.samples[-1] < 0.01


def test_aom_response_smears_the_truncation_edge():
    drive = aom_drive(T1, 5.0 * T1.lifetime_ns, 0.004)
    clean = drive.field_envelope()
    smeared = aom_response(clean, AomModel(buildup_time_ns=5.0))
    eta_clean = temporal_overlap(clean, T1).eta_t
    eta_smeared = temporal_overlap(smeared, T1).eta_t
    assert eta_smeared < eta_clean
    assert max(smeared.samples) < max(clean.samples) + 1e-12


def test_aom_model_validation():
    with pytest.raises(DomainError):
        AomModel(buildup_time_ns=-1.0)


def test_histogram_to_envelope():
    env = histogram_to_envelope([4.0, 1.0, 0.0], 0.5)
    assert np.allclose(env.samples, [2.0, 1.0, 0.0])
    rev = histogram_to_envelope([4.0, 1.0, 0.0], 0.5, reverse=True)
    assert np.allclose(rev.samples, [0.0, 1.0, 2.0])
    with pytest.raises(DomainError):
        histogram_to_envelope([-1.0, 2.0], 0.5)


def test_load_histogram(tmp_path):
    path = tmp_path / "hist.txt"
    path.write_text("# t counts\n0.0 10\n0.5 20\n1.0 5\n")
    counts, width = load_histogram(path)
    assert np.allclose(counts, [10.0, 20.0, 5.0])
    assert width == pytest.approx(0.5)
    bad = tmp_path / "bad.txt"
    bad.write_text("0.0 10\n0.5 20\n1.2 5\n")
    with pytest.raises(DomainError):
        load_histogram(bad)

