"""Named cross-checks shared by the ``verify`` and ``convergence`` commands
and the acceptance tests.

``SUITES`` maps each ``verify --only`` name to a function
``(seed, m, g_override) -> [entry, ...]``; an entry records the check name,
grid, residual, tolerance and pass flag.  The manufactured-solution (MMS)
study behind ``convergence`` lives here as well: ``temporal_order`` and
``spatial_error_ratio`` run the integrator on problems with known answers.
"""
from __future__ import annotations

import math

import numpy as np

from . import besov as besov_mod
from .forms import (
    ProfileSum,
    ScaleParams,
    TravelingGaussian,
    verify_form_equivalence,
    verify_rescale,
)
from .oracles import helmholtz_inverse_quadrature
from .solver import SimConfig, integrate, manufactured_forcing
from .spectral import (
    Field,
    Grid,
    helmholtz_inverse,
    random_mode_coefficients,
    sup_norm,
    trig_field,
)

__all__ = ["SUITES", "mms_solution", "mms_run", "temporal_order", "spatial_error_ratio"]


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def _check_entry(check, n, length, residual, tolerance, passed=None):
    """One verify entry; passes when residual < tolerance unless ``passed``
    gives the verdict."""
    return {
        "check": check,
        "n": n,
        "L": length,
        "residual": float(residual),
        "tolerance": tolerance,
        "pass": bool(residual < tolerance if passed is None else passed),
    }


def helmholtz_suite(seed: int):
    grid = Grid(256, 40.0)
    rng = np.random.default_rng(seed)
    a, b = random_mode_coefficients(rng, max_mode=12)
    f = trig_field(grid, a, b, amplitude=1.0)
    direct = helmholtz_inverse(f).values
    quad = helmholtz_inverse_quadrature(f)
    residual = float(np.max(np.abs(direct - quad)))
    return [_check_entry("helmholtz_kernel_quadrature", grid.n, grid.length,
                         residual, 1e-8)]


def form_equivalence_suite(seed: int, m, g_override=None, samples: int = 50):
    rng = np.random.default_rng(seed)
    grid = Grid(256, 40.0)
    residuals = []
    for _ in range(samples):
        a, b = random_mode_coefficients(rng, max_mode=10)
        u = trig_field(grid, a, b, amplitude=0.8)
        residuals.append(verify_form_equivalence(u, m, g_override))
    worst = float(np.max(residuals))  # unlike max(), keeps a NaN residual
    entries = [_check_entry("form_equivalence", grid.n, grid.length, worst, 1e-8)]

    # refinement: the same modal data on a coarse grid must be >= 1e3 worse
    a, b = random_mode_coefficients(np.random.default_rng(seed + 1), max_mode=10)
    coarse = verify_form_equivalence(trig_field(Grid(64, 40.0), a, b, amplitude=0.8), m, g_override)
    fine = verify_form_equivalence(trig_field(grid, a, b, amplitude=0.8), m, g_override)
    entries.append(_check_entry("form_equivalence_refinement", 256, 40.0,
                                fine / coarse if coarse > 0 else math.inf, 1e-3,
                                passed=coarse >= 1e3 * fine))
    return entries


def rescale_suite(m):
    profile = ProfileSum(
        TravelingGaussian(amplitude=1.0, width=1.0, speed=0.7, center=-1.5),
        TravelingGaussian(amplitude=0.6, width=1.7, speed=-0.4, center=2.0),
    )
    report = verify_rescale(profile, ScaleParams(0.2, 0.008), m)
    return [_check_entry("rescale_single_factor", 0, 0.0, report.defect, report.tolerance,
                         passed=report.passed)]


def besov_suite(seed: int, samples: int = 100):
    rng = np.random.default_rng(seed)
    grid = Grid(256, 40.0)
    fields = []
    for _ in range(samples):
        a, b = random_mode_coefficients(rng, max_mode=40)
        fields.append(trig_field(grid, a, b, amplitude=1.0))
    report = besov_mod.inequality_suite(fields)
    worst = max(r["defect_or_ratio"] for r in report if r["check"] != "log_interpolation_ratio")
    entries = [_check_entry("besov_exact_inequalities", grid.n, grid.length,
                            worst, 1e-12)]
    recon = max(besov_mod.decompose(f).reconstruction_residual() for f in fields[:10])
    entries.append(_check_entry("besov_reconstruction", grid.n, grid.length,
                                recon, 1e-10))
    ratios = [r["defect_or_ratio"] for r in report if r["check"] == "log_interpolation_ratio"]
    entries.append(_check_entry("besov_log_interpolation_ratio", grid.n, grid.length,
                                max(ratios), math.inf,
                                passed=all(math.isfinite(r) for r in ratios)))
    return entries


# name -> fn(seed, m, g_override); ``g_override`` replaces the normalized
# coefficients on the nonlocal route of the form-equivalence check only.
SUITES = {
    "helmholtz": lambda seed, m, g_override: helmholtz_suite(seed),
    "form_equivalence": form_equivalence_suite,
    "rescale": lambda seed, m, g_override: rescale_suite(m),
    "besov": lambda seed, m, g_override: besov_suite(seed),
}


# ---------------------------------------------------------------------------
# manufactured-solution convergence study
# ---------------------------------------------------------------------------

def mms_solution(length: float, amplitude: float = 0.1, mode: int = 1):
    """Decaying traveling cosine with closed-form time derivative."""
    k = 2 * np.pi * mode / length

    def u_exact(t, x):
        return amplitude * np.cos(k * (x - t)) * np.exp(-t / 10.0)

    def u_exact_t(t, x):
        return amplitude * np.exp(-t / 10.0) * (k * np.sin(k * (x - t))
                                                - 0.1 * np.cos(k * (x - t)))

    return u_exact, u_exact_t


def mms_run(n: int, length: float, dt: float, t_end: float, g,
            amplitude: float = 0.1, mode: int = 1) -> tuple:
    """Integrate the manufactured problem; returns (final state, L-inf error)."""
    grid = Grid(n, length)
    u_exact, u_exact_t = mms_solution(length, amplitude, mode)
    forcing = manufactured_forcing(grid, g, u_exact, u_exact_t, dealias_policy="two_thirds")
    sim = SimConfig(grid=grid, coefficients=g, t_end=t_end, dt=dt, forcing=forcing,
                    snapshot_stride=10**9)
    u = integrate(sim, Field(grid, u_exact(0.0, grid.x))).final()
    err = float(np.max(np.abs(u.values - u_exact(t_end, grid.x))))
    return u, err


def temporal_order(g, n: int = 64, length: float = 40.0, t_end: float = 1.0,
                   dt0: float = 0.1) -> tuple:
    """Richardson triple: successive solution differences at dt, dt/2, dt/4.

    The manufactured wave uses mode 4 so the per-step phase advance is large
    enough for the O(dt^4) error to sit well above round-off.
    """
    u1, e1 = mms_run(n, length, dt0, t_end, g, amplitude=0.2, mode=4)
    u2, e2 = mms_run(n, length, dt0 / 2, t_end, g, amplitude=0.2, mode=4)
    u3, e3 = mms_run(n, length, dt0 / 4, t_end, g, amplitude=0.2, mode=4)
    d12 = sup_norm(u1 - u2)
    d23 = sup_norm(u2 - u3)
    order = math.log2(d12 / d23) if d23 > 0 else math.inf
    return order, (e1, e2, e3)


def spatial_error_ratio(g, length: float = 40.0, t_end: float = 0.5,
                        dt: float = 5e-4, amplitude: float = 0.1,
                        width: float = 2.0) -> tuple:
    """Unforced smooth Gaussian run: coarse-grid error against an n=256
    reference on shared nodes.  The profile is wide enough that everything
    past the coarse dealias band is spectrally small."""
    results = {}
    for n in (64, 128, 256):
        grid = Grid(n, length)
        u0 = Field(grid, amplitude * np.exp(-((grid.x - length / 2) ** 2) / (2 * width**2)))
        sim = SimConfig(grid=grid, coefficients=g, t_end=t_end, dt=dt,
                        dealias_policy="two_thirds", snapshot_stride=10**9)
        traj = integrate(sim, u0)
        results[n] = traj.final()
    ref = results[256]
    errors = {}
    for n in (64, 128):
        stride = 256 // n
        errors[n] = float(np.max(np.abs(results[n].values - ref.values[::stride])))
    return errors[64] / max(errors[128], 1e-300), errors
