"""Named cross-checks shared by the ``verify`` and ``convergence`` commands
and the acceptance tests.

``SUITES`` maps each ``verify --only`` name to a function
``(seed, m, g_override) -> [entry, ...]``; an entry records the check name,
grid, residual, tolerance and pass flag.  Acceptance criteria 3-5 and 7-9
call these entries; ``verify`` without ``--only`` runs ``DEFAULT_SUITES``,
which leaves out the 0.1-0.5 s solver runs of ``ch_reduction`` and
``breaking``.  The manufactured-solution (MMS) study behind ``convergence``
lives here as well: ``temporal_order`` and ``spatial_error_ratio`` run the
integrator on problems with known answers.
"""
from __future__ import annotations

import math
import sys

import numpy as np

from . import besov as besov_mod
from .coeffs import GeneralCoefficients, model_coefficients, normalize
from .forms import (
    RESCALE_TOL,
    ProfileSum,
    ScaleParams,
    TravelingGaussian,
    rhs_nonlocal,
    verify_form_equivalence,
    verify_rescale,
)
from .oracles import camassa_holm_rhs, helmholtz_inverse_quadrature
from .solver import SimConfig, breaking_monitor, integrate, manufactured_forcing
from .spectral import (
    Field,
    Grid,
    helmholtz_inverse,
    random_mode_coefficients,
    sup_norm,
    trig_field,
)

__all__ = ["SUITES", "DEFAULT_SUITES", "CAMASSA_HOLM", "BESOV_SAMPLES", "MIN_ORDER",
           "MIN_RATIO", "mms_solution", "temporal_order", "spatial_error_ratio"]

# the ``convergence`` gate: temporal order >= MIN_ORDER and spatial ratio > MIN_RATIO
MIN_ORDER = 3.8
MIN_RATIO = 1e3


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

# random fields drawn by the sample-based suites
FORM_SAMPLES = 50
BESOV_SAMPLES = 100

# Camassa-Holm in the nonlocal coefficient set: the equation of oracles.camassa_holm_rhs
CAMASSA_HOLM = GeneralCoefficients(alpha1=0.0, alpha2=1.0, alpha3=0.0, beta1=0.0, beta2=-1.0,
                                   beta3=0.0, beta4=0.0, beta5=0.0, beta6=0.0, beta7=-0.5,
                                   beta8=0.0, gamma=0.0)


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


def _field_stacks(rng, grid: Grid, count: int, max_mode: int, amplitude: float):
    """``count`` random fields in stacks of ``besov_mod.SUITE_BATCH``: row i
    is bit for bit the i-th field of ``count`` one-field draws from ``rng``."""
    for lo in range(0, count, besov_mod.SUITE_BATCH):
        a, b = random_mode_coefficients(rng, max_mode,
                                        fields=min(besov_mod.SUITE_BATCH, count - lo))
        yield trig_field(grid, a, b, amplitude=amplitude)


def form_equivalence_suite(seed: int, m, g_override=None):
    rng = np.random.default_rng(seed)
    grid = Grid(256, 40.0)
    residuals = [verify_form_equivalence(u, m, g_override)
                 for u in _field_stacks(rng, grid, FORM_SAMPLES, max_mode=10, amplitude=0.8)]
    worst = float(np.max(residuals))  # unlike max(), keeps a NaN residual
    entries = [_check_entry("form_equivalence", grid.n, grid.length, worst, 1e-8)]

    # refinement: the same modal data on a coarse grid must be >= 1e3 worse or at round-off
    a, b = random_mode_coefficients(np.random.default_rng(seed + 1), max_mode=10)
    coarse = verify_form_equivalence(trig_field(Grid(64, 40.0), a, b, amplitude=0.8), m, g_override)
    fine = verify_form_equivalence(trig_field(grid, a, b, amplitude=0.8), m, g_override)
    floor = coarse < 1e-12  # both residuals at round-off: report the coarse one, not the ratio
    entries.append(_check_entry("form_equivalence_refinement", 256, 40.0,
                                coarse if floor else fine / coarse, 1e-12 if floor else 1e-3,
                                passed=floor or coarse >= 1e3 * fine))
    return entries


def rescale_suite(m):
    profile = ProfileSum(
        TravelingGaussian(amplitude=1.0, width=1.0, speed=0.7, center=-1.5),
        TravelingGaussian(amplitude=0.6, width=1.7, speed=-0.4, center=2.0),
    )
    report = verify_rescale(profile, ScaleParams(0.2, 0.008), m)
    return [_check_entry("rescale_single_factor", 0, 0.0, report.defect, RESCALE_TOL,
                         passed=report.passed)]


def besov_suite(seed: int):
    rng = np.random.default_rng(seed)
    grid = Grid(256, 40.0)
    excess, passed, log_ratio, recon = besov_mod.inequality_suite(
        _field_stacks(rng, grid, BESOV_SAMPLES, max_mode=40, amplitude=1.0))
    worst = float(np.max(excess))  # unlike max(), keeps a NaN
    return [_check_entry("besov_exact_inequalities", grid.n, grid.length, worst, 1e-12,
                         passed=worst < 1e-12 and passed.all()),
            _check_entry("besov_reconstruction", grid.n, grid.length, np.max(recon), 1e-10),
            _check_entry("besov_log_interpolation_ratio", grid.n, grid.length,
                         np.max(log_ratio), math.inf, passed=np.isfinite(log_ratio).all())]


def ch_reduction(seed: int):
    """At ``CAMASSA_HOLM`` the CH energy of a sech^2 run to t = 1 drifts by
    round-off, and the nonlocal rate matches the oracle on 10 random fields."""
    grid = Grid(256, 40.0)
    sim = SimConfig(grid=grid, coefficients=CAMASSA_HOLM, t_end=1.0, dt=2e-3, snapshot_stride=50)
    traj = integrate(sim, Field(grid, 0.25 / np.cosh(grid.x - 20.0) ** 2))
    energies = [r.ch_energy for r in traj.records]
    rng = np.random.default_rng(seed)
    fields = trig_field(grid, *random_mode_coefficients(rng, 10, fields=10), amplitude=0.5)
    # the oracle reads one field: it checks the stack's rates one row at a time
    oracle = Field(grid, [camassa_holm_rhs(Field(grid, row)).values for row in fields.values])
    return [_check_entry("ch_energy_drift", grid.n, grid.length,
                         abs(energies[-1] - energies[0]) / energies[0], 1e-6),
            _check_entry("ch_oracle_agreement", grid.n, grid.length,
                         sup_norm(rhs_nonlocal(fields, CAMASSA_HOLM) - oracle), 1e-12)]


def breaking():
    """A CH sine wave on n = 1024 stops with the breaking signature, its slope
    10x steeper (residual: initial over steepest min u_x) at bounded amplitude;
    a smooth manufactured run stays quiet (residual: its final error)."""
    grid, slope0 = Grid(1024, 40.0), 1.5 * 2 * np.pi / 40.0
    sim = SimConfig(grid=grid, coefficients=CAMASSA_HOLM, t_end=14.0, cfl=0.3, snapshot_stride=10,
                    breaking_stop=-12.0 * slope0)
    traj = integrate(sim, Field(grid, -1.5 * np.sin(2 * np.pi * grid.x / 40.0)))
    first = traj.records[0]
    inverse_growth = first.min_ux / min(r.min_ux for r in traj.records)
    drift = max(abs(r.sup_u - first.sup_u) for r in traj.records) / first.sup_u
    signature = (traj.termination == "breaking_detected"
                 and breaking_monitor(traj.records) == "breaking_signature")
    g, smooth = normalize(model_coefficients(1.5)), Grid(128, 40.0)
    u_exact, u_exact_t = mms_solution(40.0)
    sim = SimConfig(grid=smooth, coefficients=g, t_end=2.0, dt=2e-3, snapshot_stride=20,
                    forcing=manufactured_forcing(smooth, g, u_exact, u_exact_t, "two_thirds"))
    quiet = integrate(sim, Field(smooth, u_exact(0.0, smooth.x)))
    return [_check_entry("breaking_signature", grid.n, grid.length, inverse_growth, 0.1,
                         passed=signature and inverse_growth <= 0.1),
            _check_entry("breaking_amplitude_drift", grid.n, grid.length, drift, 0.10),
            _check_entry("breaking_mms_quiet", smooth.n, smooth.length,
                         np.max(np.abs(quiet.final().values - u_exact(2.0, smooth.x))), math.inf,
                         passed=quiet.termination == "completed"
                         and breaking_monitor(quiet.records) == "no_breaking_evidence")]


# name -> fn(seed, m, g_override); ``g_override`` replaces the normalized
# coefficients on the nonlocal route of the form-equivalence check only.
SUITES = {
    "helmholtz": lambda seed, m, g_override: helmholtz_suite(seed),
    "form_equivalence": form_equivalence_suite,
    "rescale": lambda seed, m, g_override: rescale_suite(m),
    "besov": lambda seed, m, g_override: besov_suite(seed),
    "ch_reduction": lambda seed, m, g_override: ch_reduction(seed),
    "breaking": lambda seed, m, g_override: breaking(),
}
DEFAULT_SUITES = ("helmholtz", "form_equivalence", "rescale", "besov")


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


# temporal study: the mode-4 wave on n = 64 at dt0, dt0/2 and dt0/4
MMS_N = 64
MMS_T_END = 1.0
MMS_DT0 = 0.1
MMS_AMPLITUDE = 0.2
MMS_MODE = 4

# spatial study: a Gaussian of width 2 on n = 64, 128, 256 at one shared step
SPATIAL_T_END = 0.5
SPATIAL_DT = 1e-2
SPATIAL_AMPLITUDE = 0.1
SPATIAL_WIDTH = 2.0


def _final_state(sim: SimConfig, u0: Field, run: str) -> Field:
    """Final state of a study run; a run that does not complete is named on
    stderr and yields NaN samples, so its study's value is NaN and fails."""
    traj = integrate(sim, u0)
    if traj.termination == "completed":
        return traj.final()
    print(f"{run} ended {traj.termination}", file=sys.stderr)
    return Field(sim.grid, np.full(sim.grid.n, np.nan))


def temporal_order(g) -> tuple:
    """Richardson triple: successive solution differences at dt, dt/2, dt/4.

    The manufactured wave uses mode 4 so the per-step phase advance is large
    enough for the O(dt^4) error to sit well above round-off.  Returns the
    order and the L-inf errors against the exact solution.
    """
    grid = Grid(MMS_N, 40.0)
    u_exact, u_exact_t = mms_solution(grid.length, MMS_AMPLITUDE, MMS_MODE)
    forcing = manufactured_forcing(grid, g, u_exact, u_exact_t, dealias_policy="two_thirds")
    finals, errors = [], []
    for dt in (MMS_DT0, MMS_DT0 / 2, MMS_DT0 / 4):
        sim = SimConfig(grid=grid, coefficients=g, t_end=MMS_T_END, dt=dt, forcing=forcing,
                        snapshot_stride=10**9)
        u = _final_state(sim, Field(grid, u_exact(0.0, grid.x)),
                         f"temporal study: run at dt = {dt:g}")
        finals.append(u)
        errors.append(float(np.max(np.abs(u.values - u_exact(MMS_T_END, grid.x)))))
    d12 = sup_norm(finals[0] - finals[1])
    d23 = sup_norm(finals[1] - finals[2])
    order = math.inf if d23 == 0 else math.log2(d12 / d23)
    return order, tuple(errors)


def spatial_error_ratio(g) -> tuple:
    """Unforced smooth Gaussian run: coarse-grid error against an n=256
    reference on shared nodes.  The profile is wide enough that everything
    past the coarse dealias band is spectrally small.  All three grids share
    the step, so the comparison measures the spatial error."""
    results = {}
    for n in (64, 128, 256):
        grid = Grid(n, 40.0)
        u0 = Field(grid, SPATIAL_AMPLITUDE
                   * np.exp(-((grid.x - grid.length / 2) ** 2) / (2 * SPATIAL_WIDTH**2)))
        sim = SimConfig(grid=grid, coefficients=g, t_end=SPATIAL_T_END, dt=SPATIAL_DT,
                        dealias_policy="two_thirds", snapshot_stride=10**9)
        results[n] = _final_state(sim, u0, f"spatial study: run at n = {n}")
    ref = results[256]
    errors = {}
    for n in (64, 128):
        stride = 256 // n
        errors[n] = float(np.max(np.abs(results[n].values - ref.values[::stride])))
    return errors[64] / max(errors[128], 1e-300), errors
