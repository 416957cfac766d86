"""Acceptance suite: the toolkit's headline figures, pinned with tolerances.

One test per numbered acceptance criterion, so ``pytest -v`` prints one
pass/fail line per criterion. The module test files exercise the APIs in
depth; this file pins the end-to-end numbers a release must reproduce,
each against an oracle that does not share code with the package.
"""

import math
import time

import numpy as np
import pytest

import oracles
from dipolemirror import (
    AngleInterval,
    FrameStack,
    PhaseMap,
    PulseEnvelope,
    RadialMode,
    TransitionSpec,
    ZernikeExpansion,
    aluminum,
    aom_drive,
    aom_response,
    coupling_strength,
    ellipse_angles,
    fused_silica,
    ideal_envelope,
    make_phase_plate,
    measured_overlap,
    pv_rms,
    rescale_wavelength,
    stokes_from_frames,
    strehl,
    temporal_overlap,
    weighted_fraction,
    zernike_fit,
)
from dipolemirror.cli import main
from dipolemirror.temporal import T1
from dipolemirror.wavefront import MISALIGNMENT_TERMS, zernike_eval


def _machine_pairs(stdout: str) -> dict:
    lines = stdout.splitlines()
    pairs = {}
    for line in lines[lines.index("# machine-readable") + 1:]:
        key, sep, value = line.partition(" = ")
        if sep:
            pairs[key] = value
    return pairs


def test_criterion_01_waist_optimization(capsys):
    start = time.perf_counter()
    assert main(["optimize-waist"]) == 0
    elapsed = time.perf_counter() - start
    pairs = _machine_pairs(capsys.readouterr().out)
    assert float(pairs["waist.w_opt"]) == pytest.approx(2.26, abs=0.02)
    assert float(pairs["waist.eta"]) == pytest.approx(0.982, abs=0.001)
    assert elapsed < 5.0


def test_criterion_02_weighted_solid_angle(aperture):
    start = time.perf_counter()
    fraction = weighted_fraction(AngleInterval(0.0, math.radians(134.3)))
    assert fraction == pytest.approx(0.937, abs=0.003)
    annulus = weighted_fraction(aperture.angle_interval())
    bore_filled = weighted_fraction(aperture.angle_interval(include_bore=True))
    assert abs(bore_filled - annulus) < 0.004
    assert time.perf_counter() - start < 1.0


def test_criterion_03_coupling_ceiling():
    assert coupling_strength(0.94, 0.982, 1.0) == pytest.approx(0.906, abs=0.002)


def test_criterion_04_coupling_report(tmp_path, capsys):
    ideal_pulse = tmp_path / "ideal.ini"
    ideal_pulse.write_text(
        "[report]\nomega_fraction = 0.94\neta = 0.975\nstrehl = 0.99\neta_t = 0.99\n"
    )
    assert main(["report", "--config", str(ideal_pulse)]) == 0
    out = capsys.readouterr().out
    pairs = _machine_pairs(out)
    assert float(pairs["result.g"]) == pytest.approx(0.885, abs=0.001)
    assert float(pairs["result.p_a"]) == pytest.approx(0.867, abs=0.001)
    assert "note.published_p_a" not in pairs

    measured_pulse = tmp_path / "measured.ini"
    measured_pulse.write_text(
        "[report]\nomega_fraction = 0.94\neta = 0.979\nstrehl = 0.99\neta_t = 0.96\n"
    )
    assert main(["report", "--config", str(measured_pulse)]) == 0
    out = capsys.readouterr().out
    pairs = _machine_pairs(out)
    assert float(pairs["result.g"]) == pytest.approx(0.892, abs=0.001)
    assert float(pairs["result.p_a"]) == pytest.approx(0.822, abs=0.002)
    # the 0.812 a published reference lists for this row is flagged, not
    # silently matched
    assert pairs["note.published_p_a"] == "0.812"
    assert "a published reference lists P_a = 0.812" in out


def test_criterion_05_temporal_closed_forms():
    start = time.perf_counter()
    pulse = ideal_envelope(T1, 5.0 * T1.lifetime_ns, T1.lifetime_ns / 2000.0)
    result = temporal_overlap(pulse, T1)
    assert result.eta_t == pytest.approx(0.9966, abs=1e-4)
    assert time.perf_counter() - start < 1.0

    start = time.perf_counter()
    tau = T1.lifetime_ns
    bin_width = tau / 500.0
    t = (np.arange(int(round(15.0 * tau / bin_width))) + 0.5) * bin_width
    decaying = PulseEnvelope(np.exp(-t / (2.0 * tau)), bin_width, float(t[-1]))
    shifted = temporal_overlap(decaying, T1)
    assert shifted.eta_t**2 == pytest.approx(0.541, abs=0.001)
    assert shifted.shift_ns == pytest.approx(-2.0 * tau, abs=0.02 * tau)
    assert time.perf_counter() - start < 1.0


def test_criterion_06_aom_buildup():
    bands = ((8.0, 0.96, 0.02), (230.0, 0.99, 0.005))
    for lifetime, center, width in bands:
        spec = TransitionSpec("x", 369.5, lifetime)
        bin_width = min(0.02, lifetime / 2000.0)
        drive = aom_drive(spec, 5.0 * lifetime, bin_width)
        envelope = aom_response(drive.field_envelope(), 5.0)
        eta_t = temporal_overlap(envelope, spec).eta_t
        assert eta_t == pytest.approx(center, abs=width)


def test_criterion_07_dipole_identity(aperture, dipole_field):
    start = time.perf_counter()
    amp = np.sqrt(np.sum(np.abs(dipole_field.efield) ** 2, axis=-1))
    sin_theta = np.broadcast_to(np.sin(dipole_field.theta), amp.shape)
    scale = float(np.sum(amp * sin_theta) / np.sum(sin_theta * sin_theta))
    assert np.abs(amp / scale - sin_theta).max() <= 1e-12
    result = strehl(RadialMode.dipole(), aperture)
    assert result.ratio == pytest.approx(1.0, abs=1e-9)
    assert result.nominal == pytest.approx(1.0, abs=1e-9)
    assert time.perf_counter() - start < 10.0


def test_criterion_08_marechal_consistency(aperture):
    start = time.perf_counter()
    rng = np.random.default_rng(20260817)
    deviations = []
    for _ in range(20):
        terms = []
        for n in range(1, 11):
            for m in range(-n, n + 1, 2):
                terms.append((n, m, rng.normal()))
        target_sigma = rng.uniform(0.01, 0.08)
        raw = ZernikeExpansion(terms=tuple(terms), wavelength_nm=633.0)
        sigma_raw = oracles.weighted_sigma(raw, aperture)
        expansion = ZernikeExpansion(
            terms=tuple((n, m, v * target_sigma / sigma_raw) for n, m, v in terms),
            wavelength_nm=633.0,
        )
        result = strehl(RadialMode.dipole(), aperture, expansion)
        marechal = math.exp(-((2.0 * math.pi * target_sigma) ** 2))
        deviations.append(abs(result.nominal - marechal))
    assert max(deviations) <= 0.03
    assert time.perf_counter() - start < 10.0


def test_criterion_09_dispersion_rescaling(aperture, doughnut):
    start = time.perf_counter()
    rng = np.random.default_rng(633)
    terms = []
    for n in range(2, 9):
        for m in range(-n, n + 1, 2):
            if (n, m) in MISALIGNMENT_TERMS:
                continue
            terms.append((n, m, rng.normal()))
    raw = ZernikeExpansion(terms=tuple(terms), wavelength_nm=632.8)
    _, rms_raw = pv_rms(raw)
    aberration = ZernikeExpansion(
        terms=tuple((n, m, v * 0.09 / rms_raw) for n, m, v in terms),
        wavelength_nm=632.8,
    )
    _, rms_check = pv_rms(aberration)
    assert rms_check == pytest.approx(0.09, abs=1e-6)
    plate = make_phase_plate(aberration)
    model = fused_silica()
    for target_nm in (369.5, 251.8):
        residual = rescale_wavelength(plate, target_nm, model)
        result = strehl(doughnut, aperture, residual)
        assert result.ratio >= 0.97
    assert time.perf_counter() - start < 30.0


def test_criterion_10_polarimetry_roundtrip(aperture):
    waist = 2.2636247439366217
    angles, frames, pixel_scale, center, stokes_true = oracles.radial_doughnut_stack(
        aperture, waist, size=512
    )
    stack = FrameStack(angles_rad=angles, frames=frames,
                       pixel_scale=pixel_scale, center=center)
    recovered = stokes_from_frames(stack)
    for got, want in zip(
        (recovered.s0, recovered.s1, recovered.s2, recovered.s3), stokes_true
    ):
        assert np.abs(got - want).max() <= 1e-8
    pmap = ellipse_angles(recovered, noise_floor=0.0)
    clean = measured_overlap(pmap, aperture)
    assert clean.eta == pytest.approx(0.982, abs=0.002)

    rng = np.random.default_rng(42)
    noise = rng.normal(0.0, 0.03, size=stokes_true[0].shape)
    angles, frames, _, _, _ = oracles.radial_doughnut_stack(
        aperture, waist, size=512, orientation_noise=noise
    )
    noisy_stack = FrameStack(angles_rad=angles, frames=frames,
                             pixel_scale=pixel_scale, center=center)
    noisy_map = ellipse_angles(stokes_from_frames(noisy_stack), noise_floor=0.0)
    noisy = measured_overlap(noisy_map, aperture)
    assert abs(noisy.eta_rectified - clean.eta) <= 1e-3
    assert noisy.eta < noisy.eta_rectified


def test_criterion_11_zernike_roundtrip():
    truth = ZernikeExpansion(
        terms=((2, 0, 0.12), (2, 2, -0.07), (3, 1, 0.05), (5, -3, 0.02), (8, 0, -0.015)),
        wavelength_nm=632.8,
    )
    pmap = PhaseMap.from_expansion(truth, size=256)
    fitted = zernike_fit(pmap, degree=8)
    rho, phi = pmap.grid_polar()
    residual = zernike_eval(fitted, rho, phi)[pmap.mask] - pmap.values[pmap.mask]
    assert np.abs(residual).max() <= 1e-9

    a = 0.25
    pv, rms = pv_rms(ZernikeExpansion(terms=((2, 2, a),), wavelength_nm=632.8))
    assert pv == pytest.approx(2.0 * a, abs=1e-6)
    assert rms == pytest.approx(a / math.sqrt(6.0), abs=1e-6)


def test_criterion_12_aluminum_phase_study(tmp_path, capsys):
    # the optimal-waist doughnut with the phase of r_p as its only aberration
    assert aluminum().source  # constants carry their citation
    config = tmp_path / "aluminum.ini"
    config.write_text("[strehl]\nevaluate_nm = 251.8\naluminum_phase = true\n")
    assert main(["strehl", "--config", str(config)]) == 0
    pairs = _machine_pairs(capsys.readouterr().out)
    assert abs(float(pairs["strehl.peak_offset_lambda"])) < 0.1
    assert 1.0 - float(pairs["strehl.nominal"]) <= 0.03
