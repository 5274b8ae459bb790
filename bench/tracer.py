"""Per-layer tracing from outside the package.

Each boundary function is replaced by a timing wrapper at every module
attribute through which it is looked up (``solver.rhs_nonlocal`` as well as
``forms.rhs_nonlocal``, ``numpy.fft.fft`` for every caller), so nothing under
``src/`` changes.  A boundary that is missing, for example because a later
change renamed or folded it, is reported as absent and its metrics read 0.

Spans are kept in memory as ``[name, start, end, parent, run, points]`` and
written out after the traced iterations end.  Self time is a span's duration
minus the durations of its child spans; calls are synchronous on one thread,
so children never overlap.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time

import numpy

# (span name, module, attribute).  The span name is "<layer>.<function>".
BOUNDARIES = [
    ("cli.main", "shearwaves.cli", "main"),
    ("cli.load_config", "shearwaves.cli", "load_config"),
    ("cli.initial_condition", "shearwaves.cli", "initial_condition"),
    ("cli.write_run_outputs", "shearwaves.cli", "write_run_outputs"),
    ("cli.temporal_order", "shearwaves.cli", "temporal_order"),
    ("cli.spatial_error_ratio", "shearwaves.cli", "spatial_error_ratio"),
    ("solver.integrate", "shearwaves.solver", "integrate"),
    ("solver.step_rk4", "shearwaves.solver", "step_rk4"),
    ("solver.diagnose", "shearwaves.solver", "_diagnose"),
    ("forms.rhs", "shearwaves.forms", "rhs_nonlocal"),
    ("forms.verify_form_equivalence", "shearwaves.forms", "verify_form_equivalence"),
    ("spectral.derivative", "shearwaves.spectral", "derivative"),
    ("spectral.dealias", "shearwaves.spectral", "dealias"),
    ("spectral.helmholtz_inverse", "shearwaves.spectral", "helmholtz_inverse"),
    ("spectral.helmholtz_inverse_dx", "shearwaves.spectral", "helmholtz_inverse_dx"),
    ("spectral.field_to_csv", "shearwaves.spectral", "field_to_csv"),
    ("coeffs.identity_suite", "shearwaves.coeffs", "identity_suite"),
    ("besov.decompose", "shearwaves.besov", "decompose"),
    ("besov.inequality_suite", "shearwaves.besov", "inequality_suite"),
    ("oracles.helmholtz_inverse_quadrature", "shearwaves.oracles",
     "helmholtz_inverse_quadrature"),
    ("numpy.fft.fft", "numpy.fft", "fft"),
    ("numpy.fft.ifft", "numpy.fft", "ifft"),
    ("numpy.fft.rfft", "numpy.fft", "rfft"),
    ("numpy.fft.irfft", "numpy.fft", "irfft"),
]

FFT_KINDS = ("fft", "ifft", "rfft", "irfft")


def _transform_points(kind: str, args, kwargs) -> int:
    """Real or complex points of the computed transform(s): transform length
    times the number of transforms in a batched call; 0 if the call's
    arguments are not understood (the call itself then reports the error)."""
    try:
        shape = numpy.shape(args[0])
        n = args[1] if len(args) > 1 else kwargs.get("n")
        m = shape[args[2] if len(args) > 2 else kwargs.get("axis", -1)]
        if n is None:
            n = 2 * (m - 1) if kind == "irfft" else m
        return int(n) * (int(numpy.prod(shape)) // m)
    except (IndexError, TypeError, ValueError, ZeroDivisionError):
        return 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run = 0
        self.absent: list[str] = []
        self._stack = [-1]
        self._patched: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        kind = name.rsplit(".", 1)[1] if name.startswith("numpy.fft.") else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            points = _transform_points(kind, args, kwargs) if kind else 0
            span = [name, 0.0, 0.0, stack[-1], self.run, points]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every boundary at each module attribute bound to it."""
        lookups = [m for key, m in list(sys.modules.items())
                   if key == "shearwaves" or key.startswith("shearwaves.")]
        for name, module_name, attr in BOUNDARIES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in {id(m): m for m in lookups + [module]}.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def write(self, path) -> None:
        """Spans as gzipped CSV: run,index,parent,name,start,end,points."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("run,index,parent,name,start,end,points\n")
            for i, (name, start, end, parent, run, points) in enumerate(self.spans):
                fh.write(f"{run},{i},{parent},{name},{start!r},{end!r},{points}\n")


def _per_name(spans: list[list], run: int):
    """calls, total seconds, child seconds and points per span name, and the
    number of FFT spans below a right-hand-side span, for one run id."""
    stats: dict[str, list] = {}
    below_rhs: dict[int, bool] = {}
    fft_in_rhs = 0
    for i, (name, start, end, parent, span_run, points) in enumerate(spans):
        if span_run != run:
            continue
        entry = stats.setdefault(name, [0, 0.0, 0.0, 0])
        entry[0] += 1
        entry[1] += end - start
        entry[3] += points
        if parent >= 0:
            parent_name = spans[parent][0]
            stats.setdefault(parent_name, [0, 0.0, 0.0, 0])[2] += end - start
            below_rhs[i] = parent_name == "forms.rhs" or below_rhs.get(parent, False)
            if below_rhs[i] and name.startswith("numpy.fft."):
                fft_in_rhs += 1
    return stats, fft_in_rhs


# Boundaries reported as call count plus time, under their span names.
TIMED = [
    "cli.main", "cli.load_config", "cli.initial_condition", "cli.write_run_outputs",
    "cli.temporal_order", "cli.spatial_error_ratio", "solver.integrate",
    "solver.diagnose", "spectral.derivative", "spectral.dealias",
    "spectral.field_to_csv", "coeffs.identity_suite", "besov.decompose",
    "besov.inequality_suite", "oracles.helmholtz_inverse_quadrature",
    "forms.rhs", "forms.verify_form_equivalence",
]


def layer_metrics(spans: list[list], run: int) -> dict:
    """Per-layer metrics of one traced iteration: name -> (value, unit).
    Counts are exact; times are seconds of wall clock inside the spans."""
    stats, fft_in_rhs = _per_name(spans, run)

    def get(name):
        return stats.get(name, [0, 0.0, 0.0, 0])

    out = {}
    for name in TIMED:
        calls, total, child, _ = get(name)
        out[f"{name}_calls"] = (calls, "count")
        out[f"{name}_s"] = (total, "s")
    for name in ("forms.rhs", "solver.integrate"):
        calls, total, child, _ = get(name)
        out[f"{name}_self_s"] = (total - child, "s")
    out["forms.fft_per_rhs"] = (fft_in_rhs / max(get("forms.rhs")[0], 1), "count/call")

    calls, total, child, _ = get("solver.step_rk4")
    out["solver.steps"] = (calls, "count")
    out["solver.step_rk4_s"] = (total, "s")
    out["solver.step_rk4_self_s"] = (total - child, "s")

    helmholtz = [get("spectral.helmholtz_inverse"), get("spectral.helmholtz_inverse_dx")]
    out["spectral.helmholtz_calls"] = (sum(h[0] for h in helmholtz), "count")
    out["spectral.helmholtz_s"] = (sum(h[1] for h in helmholtz), "s")

    ffts = {kind: get(f"numpy.fft.{kind}") for kind in FFT_KINDS}
    out["spectral.fft_calls"] = (sum(f[0] for f in ffts.values()), "count")
    out["spectral.fft_s"] = (sum(f[1] for f in ffts.values()), "s")
    out["spectral.fft_points"] = (sum(f[3] for f in ffts.values()), "count")
    for kind, f in ffts.items():
        out[f"spectral.fft_calls.{kind}"] = (f[0], "count")
        out[f"spectral.fft_points.{kind}"] = (f[3], "count")
    return out
