"""Seeded inputs, job lists and the output checker of the three workloads.

``generate`` writes every input file a workload needs under its work
directory and returns the job list: each job is the command line of one
``dipolemirror`` invocation plus the references its output is checked
against. The program sees only these files. Paths are relative to the
checkout root, so reports (which echo input paths and digest the config)
are byte-identical between two runs with one seed.

Jobs run in a fixed cycle. A timed phase always ends on a cycle boundary,
so every run has the same mix of job kinds whatever its length.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

WORKLOADS = ("budget", "measure", "sweep")

OMEGA_FRACTION = 0.9364831671  # criterion 02, pinned in tests/test_cli.py
WAIST_ETA = 0.9824258842  # criterion 01, pinned in tests/test_cli.py
TRANSITIONS = {"T1": (369.5, 8.1), "T2": (251.8, 230.0)}  # wavelength_nm, lifetime_ns
ETA_T_BANDS = {"T1": (0.96, 0.02), "T2": (0.99, 0.005)}  # criterion 06, 5 ns build-up
CLEAN_STOKES_ETA = 0.982  # criterion 10
DOUGHNUT_WAIST = 2.2636247439366217
FIGURE_NM = 633.0


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``SMOKE`` keeps every job kind but shrinks the grids."""

    figures: int = 12
    stack_px: int = 1024
    stacks: int = 2
    map_px: int = 512
    maps: int = 2
    sweep_cycles: int = 4


FULL = Sizes()
SMOKE = Sizes(figures=4, stack_px=256, stacks=1, map_px=128, maps=1, sweep_cycles=1)


def generate(workload: str, seed: int, work: Path, sizes: Sizes = FULL) -> dict:
    """Write the inputs of one workload; return {"cycle": n, "jobs": [...]}."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    make = {"budget": _budget, "measure": _measure, "sweep": _sweep}[workload]
    cycle, jobs = make(rng, inputs, sizes)
    return {"cycle": cycle, "jobs": jobs}


def _job(name, argv, out=False, **check):
    return {"name": name, "argv": argv, "out": out, "check": check}


def _write_config(path: Path, sections: dict) -> str:
    lines = []
    for section, pairs in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in pairs.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _random_terms(rng, degrees):
    return [(n, m, float(rng.normal())) for n, m in oracle.zernike_terms(10) if n in degrees]


def _write_expansion(path: Path, terms, wavelength_nm: float) -> str:
    lines = ["# Zernike expansion: n m value_waves", f"# wavelength_nm: {wavelength_nm}"]
    lines += [f"{n} {m} {v:.12e}" for n, m, v in terms]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# ------------------------------------------------------------------- budget

# Variant of each job, in the order the jobs run. Jobs alternate T1 and
# T2, so over the pattern each transition gets one compensated and one
# aluminum job; a cycle is one T1-T2 pair.
_BUDGET_VARIANTS = ("plain", "compensated", "aluminum", "plain",
                    "compensated", "plain", "plain", "aluminum")


def _budget(rng, inputs: Path, sizes: Sizes):
    jobs = []
    for k in range(sizes.figures):
        label = "T1" if k % 2 == 0 else "T2"
        variant = _BUDGET_VARIANTS[k % len(_BUDGET_VARIANTS)]
        # criterion 08: every term up to degree 10, scaled to a
        # dipole-weighted RMS drawn from 0.01-0.08 waves
        raw = _random_terms(rng, range(1, 11))
        sigma = float(rng.uniform(0.01, 0.08))
        scale = sigma / oracle.weighted_sigma(raw)
        terms = [(n, m, v * scale) for n, m, v in raw]
        figure = _write_expansion(inputs / f"figure_{k:02d}.txt", terms, FIGURE_NM)
        strehl = {"zernike_file": figure}
        if variant == "compensated":
            strehl.update(evaluate_nm=TRANSITIONS[label][0], compensate="true")
            strehl_range = [0.97, 1.0]  # criterion 09
        elif variant == "aluminum":
            strehl["aluminum_phase"] = "true"
            # criterion 08 plus the 0.03 the metal phase may cost (criterion 12)
            strehl_range = [oracle.marechal(sigma) - 0.06, 1.0]
        else:
            strehl_range = [oracle.marechal(sigma) - 0.03, 1.0]  # criterion 08
        config = _write_config(inputs / f"budget_{k:02d}.ini", {
            "report": {f: "compute" for f in ("omega_fraction", "eta", "strehl", "eta_t")},
            "strehl": strehl,
            "pulse": {"buildup_ns": 5.0},
            "transition": {"label": label},
        })
        center, width = ETA_T_BANDS[label]
        eta_t = oracle.aom_eta_t(TRANSITIONS[label][1], 5.0)
        jobs.append(_job(
            f"report-{label}-{variant}", ["report", "--config", config],
            near={"factor.omega_fraction": [OMEGA_FRACTION, 1e-9],
                  "factor.eta": [WAIST_ETA, 1e-8],
                  "factor.eta_t": [eta_t, 1e-4]},
            within={"factor.strehl": strehl_range,
                    "factor.eta_t": [center - width, center + width]},
            equal={"report.transition": label},
            products=True,
        ))
    return 2, jobs


# ------------------------------------------------------------------ measure


def _write_stack(directory: Path, angles, frames, pixel_scale, center) -> str:
    directory.mkdir(parents=True, exist_ok=True)
    scale = float(frames.max())
    lines = [
        "# polarimeter frame manifest: filename angle_deg",
        f"# intensity_scale: {scale:.9e}",
        f"# pixel_scale: {pixel_scale:.9e}",
        f"# center: {center[0]:.3f} {center[1]:.3f}",
    ]
    for k, (angle, frame) in enumerate(zip(angles, frames)):
        name = f"frame_{k:03d}.pgm"
        rows, cols = frame.shape
        data = np.round(frame / scale * 65535).astype(">u2")
        with open(directory / name, "wb") as fh:
            fh.write(f"P5\n{cols} {rows}\n65535\n".encode("ascii"))
            fh.write(data.tobytes())
        lines.append(f"{name} {math.degrees(angle):.6f}")
    manifest = directory / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n")
    return str(manifest)


def _pixel_polar(size: int):
    x = -1.0 + (np.arange(size) + 0.5) * 2.0 / size
    xx, yy = np.meshgrid(x, x)
    return np.hypot(xx, yy), np.arctan2(yy, xx)


def _write_phase_map(path: Path, terms, size: int, wavelength_nm: float) -> str:
    rho, phi = _pixel_polar(size)
    values = np.where(rho <= 1.0, oracle.zernike(terms, rho, phi), np.nan)
    header = {"cols": size, "kind": "phase_waves", "rows": size, "wavelength_nm": wavelength_nm}
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
        np.savetxt(fh, values, fmt="%.9e")
    return str(path)


def _measure(rng, inputs: Path, sizes: Sizes):
    zernike_jobs, stokes_jobs = [], []
    # a fit reports its RMS over the annulus its valid pixel centers span
    rho = _pixel_polar(sizes.map_px)[0]
    span = (float(rho.min()), float(rho[rho <= 1.0].max()))
    for k in range(sizes.maps):
        raw = _random_terms(rng, range(0, 11))
        scale = float(rng.uniform(0.01, 0.08)) / oracle.annulus_rms(raw)
        figure = [(n, m, v * scale) for n, m, v in raw]
        double_pass = [(n, m, 2.0 * v) for n, m, v in figure]
        phase_map = _write_phase_map(inputs / f"map_{k}.txt", double_pass, sizes.map_px, FIGURE_NM)
        config = _write_config(inputs / f"zernike_{k}.ini", {
            "zernike": {"map_file": phase_map, "double_pass": "true", "degree": 10},
        })
        aligned = [(n, m, v) for n, m, v in figure if (n, m) not in oracle.MISALIGNMENT]
        zernike_jobs.append(_job(
            "zernike", ["zernike", "--config", config], out=True,
            near={"zernike.rms_fit": [oracle.annulus_rms(figure, *span), 1e-6],  # criterion 11
                  "zernike.rms_figure": [oracle.annulus_rms(aligned, *span), 1e-6]},
            equal={"zernike.degree": "10"},
        ))
    for k in range(sizes.stacks):
        noise = rng.normal(0.0, 0.03, size=(sizes.stack_px, sizes.stack_px))
        manifest = _write_stack(inputs / f"stack_{k}",
                                *oracle.doughnut_frames(DOUGHNUT_WAIST, sizes.stack_px, noise))
        config = _write_config(inputs / f"stokes_{k}.ini", {
            "stokes": {"manifest": manifest, "noise_floor": 0},
        })
        stokes_jobs.append(_job(
            "stokes", ["stokes", "--rectify", "--config", config], out=True,
            near={"stokes.eta": [CLEAN_STOKES_ETA, 1e-3]},  # criterion 10
            within={"stokes.coverage": [0.95, 1.0]},
            less=[["stokes.eta_plain", "stokes.eta_rectified"]],
        ))
    jobs = []
    for k in range(max(sizes.maps, sizes.stacks)):
        jobs += [zernike_jobs[k % sizes.maps], stokes_jobs[k % sizes.stacks]]
    return 2, jobs


# -------------------------------------------------------------------- sweep

_WEIGHTED_WAIST = {"waist.w_opt": [2.278148, 1e-4], "waist.delta_eta": [0.000331, 2e-5],
                   "waist.waist_unweighted": [2.2636248, 1e-6]}  # tests/test_cli.py


def _sweep(rng, inputs: Path, sizes: Sizes):
    weighted = _write_config(inputs / "weighted.ini", {"overlap": {"weighted": "true"}})
    jobs = []
    for k in range(sizes.sweep_cycles):
        waist = round(float(rng.uniform(1.0, 3.5)), 6)
        overlap = _write_config(inputs / f"overlap_{k}.ini", {"overlap": {"waist": waist}})
        jobs += [
            _job("solid-angle", ["solid-angle"],
                 near={"solid_angle.fraction": [OMEGA_FRACTION, 1e-9],
                       "solid_angle.fraction_bore_filled": [0.9392890119, 1e-9],
                       "solid_angle.omega_sr": [7.845463035, 1e-8]}),
            _job("optimize-waist", ["optimize-waist"],
                 near={"waist.w_opt": [2.2636247507, 1e-6], "waist.eta": [WAIST_ETA, 1e-8]}),
            _job("optimize-waist-weighted", ["optimize-waist", "--config", weighted],
                 near=_WEIGHTED_WAIST),
            _job("overlap", ["overlap", "--config", overlap],
                 near={"overlap.eta": [oracle.doughnut_overlap(waist), 1e-8]}),
        ]
        for label in ("T1", "T2"):
            buildup = round(float(rng.uniform(2.0, 8.0)), 4)
            config = _write_config(inputs / f"pulse_{label}_{k}.ini", {
                "transition": {"label": label}, "pulse": {"buildup_ns": buildup},
            })
            jobs.append(_job(
                f"pulse-{label}", ["pulse", "--config", config],
                near={"pulse.eta_t": [oracle.aom_eta_t(TRANSITIONS[label][1], buildup), 1e-4]},
                equal={"pulse.transition": label},
            ))
    return 6, jobs


# ------------------------------------------------------------------ checker


def machine_pairs(stdout: str) -> dict:
    """The ``key = value`` pairs after a report's '# machine-readable' line."""
    lines = stdout.splitlines()
    if "# machine-readable" not in lines:
        return {}
    pairs = {}
    for line in lines[lines.index("# machine-readable") + 1:]:
        key, sep, value = line.partition(" = ")
        if sep:
            pairs[key] = value
    return pairs


def check(job: dict, returncode: int, stdout: str) -> list:
    """Problems with one job's result; an empty list means it passed."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    pairs = machine_pairs(stdout)
    if not pairs:
        return ["no machine-readable block"]
    spec = job["check"]
    problems = []

    def number(key):
        try:
            return float(pairs[key])
        except (KeyError, ValueError):
            problems.append(f"{key} missing or not a number")
            return None

    for key, (ref, tol) in spec.get("near", {}).items():
        value = number(key)
        if value is not None and not abs(value - ref) <= tol:
            problems.append(f"{key} = {value!r}, want {ref!r} +- {tol}")
    for key, (lo, hi) in spec.get("within", {}).items():
        value = number(key)
        if value is not None and not lo <= value <= hi:
            problems.append(f"{key} = {value!r}, want within [{lo!r}, {hi!r}]")
    for key, want in spec.get("equal", {}).items():
        if pairs.get(key) != want:
            problems.append(f"{key} = {pairs.get(key)!r}, want {want!r}")
    for small, large in spec.get("less", []):
        a, b = number(small), number(large)
        if a is not None and b is not None and not a < b:
            problems.append(f"{small} = {a!r} is not below {large} = {b!r}")
    if spec.get("products"):
        f = {k: number(f"factor.{k}") for k in ("omega_fraction", "eta", "strehl", "eta_t",
                                                 "branching")}
        g, p_a = number("result.g"), number("result.p_a")
        if None not in f.values() and g is not None and p_a is not None:
            want_g = f["omega_fraction"] * f["eta"] ** 2 * f["strehl"]
            want_p = g * f["eta_t"] ** 2 * f["branching"]
            if not abs(g - want_g) <= 1e-9:
                problems.append(f"result.g = {g!r}, product of factors {want_g!r}")
            if not abs(p_a - want_p) <= 1e-9:
                problems.append(f"result.p_a = {p_a!r}, product of factors {want_p!r}")
    return problems
