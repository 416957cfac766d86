"""Spans around the package's public functions, installed from outside.

``install`` replaces every public function of the layer modules with a
wrapper that records a span (name, start, end, parent span, counters).
The wrapper is bound in every ``dipolemirror`` module namespace that
binds the original, so calls made inside the package are caught too: a
Strehl evaluation that doubles its quadrature reaches ``plane_to_sphere``
through ``focalfield``'s own namespace. No file of the package changes.

The ``cli`` layer is wrapped at ``main`` only, so its self time covers
config parsing, the digest, formatting and output. ``gridio`` is not a
layer: its I/O counts toward the function that calls it.

Spans stay in memory; ``summarize`` turns them into per-layer figures.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from pathlib import Path

import numpy as np

PACKAGE = "dipolemirror"
LAYERS = ("cli", "geometry", "modes", "polarimetry", "wavefront", "focalfield", "temporal")


def _stack_bytes(directory):
    path = Path(directory)
    folder = path if path.is_dir() else path.parent
    return sum(p.stat().st_size for p in folder.iterdir() if p.suffix in (".pgm", ".txt"))


# Work counters, from each call's bound arguments and its result.
COUNTERS = {
    "focalfield.plane_to_sphere": lambda a, r: {"nodes": r.n_theta * r.n_phi},
    "wavefront.zernike_eval": lambda a, r: {
        "points": np.broadcast(np.asarray(a["rho"]), np.asarray(a["phi"])).size
        * sum(1 for term in a["expansion"].terms if term[2] != 0.0)},
    "wavefront.zernike_fit": lambda a, r: {"pixels": int(np.count_nonzero(a["phase_map"].mask))},
    "temporal.temporal_overlap": lambda a, r: {"bins": len(a["pulse"].samples)},
    "polarimetry.load_frame_stack": lambda a, r: {"bytes": _stack_bytes(a["directory"])},
    "polarimetry.stokes_from_frames": lambda a, r: {"pixels": int(a["stack"].frames.size)},
}


class Recorder:
    """In-memory span list: [name, start, end, parent index, counters]."""

    def __init__(self):
        self.spans = []
        self._open = []

    def clear(self):
        self.spans = []

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = count(bound.arguments, result)
            return result

        return traced


def install(recorder: Recorder) -> int:
    """Wrap the layers' public functions everywhere they are bound."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    wrapped = 0
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        names = ["main"] if layer == "cli" else [
            name for name, value in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(value)
            and value.__module__ == module.__name__
        ]
        for name in names:
            original = getattr(module, name)
            wrapper = recorder.wrap(f"{layer}.{name}", original)
            for namespace in modules:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attr, wrapper)
            wrapped += 1
    return wrapped


def summarize(spans) -> dict:
    """Per-name totals: calls, busy_s, self_s and summed counters.

    busy_s counts a name's outermost spans only, so recursion is not
    counted twice; self_s is a span's duration minus its child spans
    (calls in one thread nest, so children never overlap).
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {}
    for index, (name, start, end, parent, counters) in enumerate(spans):
        entry = totals.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["busy_s"] += end - start
        for key, value in (counters or {}).items():
            entry[key] = entry.get(key, 0) + value
    return totals
