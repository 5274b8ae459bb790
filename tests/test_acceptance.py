"""Acceptance criteria, one test per criterion, each printing a PASS line.

The check computations shared with the ``verify`` and ``convergence``
commands live in ``shearwaves.checks``; every threshold this gate asserts is
pinned here, so loosening a tolerance there cannot loosen the gate.  Run with
`pytest -v tests/test_acceptance.py` (add -s to see the per-criterion lines).
"""
import json
import math
import time
from fractions import Fraction as F

import numpy as np

from shearwaves.besov import decompose, inequality_suite
from shearwaves.checks import SUITES, mms_solution, spatial_error_ratio, temporal_order
from shearwaves.cli import main as cli_main
from shearwaves.coeffs import (
    GeneralCoefficients,
    ModelCoefficients,
    identity_suite,
    model_coefficients,
    normalize,
)
from shearwaves.oracles import camassa_holm_rhs
from shearwaves.solver import SimConfig, breaking_monitor, integrate, manufactured_forcing
from shearwaves.spectral import (
    Field,
    Grid,
    helmholtz_inverse,
    random_mode_coefficients,
    sup_norm,
    trig_field,
)

CH = GeneralCoefficients(alpha1=0.0, alpha2=1.0, alpha3=0.0, beta1=0.0, beta2=-1.0,
                         beta3=0.0, beta4=0.0, beta5=0.0, beta6=0.0, beta7=-0.5,
                         beta8=0.0, gamma=0.0)


def _report(num, text):
    print(f"[criterion {num:2d}] {text}: PASS")


def test_criterion_1_coefficient_identities():
    start = time.perf_counter()
    for a in np.geomspace(1e-3, 10.0, 100):
        checks = identity_suite(float(a), tol=1e-12)
        for chk in checks:
            assert chk.passed, f"A={a}: {chk.name} residual {chk.residual}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"identity sweep took {elapsed:.2f}s"
    _report(1, f"100-point identity sweep, residuals < 1e-12, {elapsed:.2f}s")


def test_criterion_2_spot_values():
    exact2 = ModelCoefficients.from_speed(F(2))
    assert exact2.c == 2 and exact2.alpha == F(7, 5)
    assert exact2.beta == F(43, 1050) and exact2.beta0 == F(17, 350)
    assert exact2.omega1 == F(288, 125)
    exact1 = ModelCoefficients.from_speed(F(1))
    assert exact1.c == 1 and exact1.alpha == F(1, 2)
    assert exact1.beta == F(5, 12) and exact1.beta0 == F(1, 4)
    assert (exact1.omega1, exact1.omega2, exact1.omega3, exact1.omega4) == (0, 0, 0, 0)
    for a, exact in ((1.5, exact2), (0.0, exact1)):
        dbl = model_coefficients(a)
        for name in ("c", "alpha", "beta", "beta0", "omega1", "omega2",
                     "omega3", "omega4", "omega5", "omega6", "omega7"):
            e, d = float(getattr(exact, name)), getattr(dbl, name)
            if e == 0.0:
                assert d == 0.0
            else:
                assert abs(d - e) / abs(e) < 1e-14
    _report(2, "exact-rational spot values, double path within 1e-14")


def test_criterion_3_helmholtz_operator():
    start = time.perf_counter()
    grid = Grid(256, 40.0)
    for mode in (1, 5, 17):
        k = 2 * np.pi * mode / 40.0
        f = Field(grid, np.sin(k * grid.x))
        err = np.max(np.abs(helmholtz_inverse(f).values - np.sin(k * grid.x) / (1 + k * k)))
        assert err < 1e-12
    (entry,) = SUITES["helmholtz"](7, None, None)
    quad_err = entry["residual"]
    assert quad_err < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(3, f"eigenfunction 1e-12, kernel quadrature {quad_err:.1e} < 1e-8, {elapsed:.2f}s")


def test_criterion_4_form_equivalence():
    # 50 fields from seed 11, refinement pair from seed 12
    worst, refinement = SUITES["form_equivalence"](11, model_coefficients(1.5), None)
    assert worst["residual"] < 1e-8
    fine_over_coarse = refinement["residual"]
    assert fine_over_coarse <= 1e-3  # coarse >= 1e3 * fine
    _report(4, f"50 fields worst {worst['residual']:.1e} < 1e-8, "
               f"refinement drop {1 / fine_over_coarse:.1e} >= 1e3")


def test_criterion_5_rescaling():
    (entry,) = SUITES["rescale"](None, model_coefficients(1.5), None)
    # the pass flag also covers the fitted-factor mismatch, at the suite's tolerance
    assert entry["tolerance"] <= 1e-8 and entry["pass"] and entry["residual"] < 1e-8
    _report(5, f"single-factor proportionality defect {entry['residual']:.1e} < 1e-8")


def test_criterion_6_solver_convergence():
    start = time.perf_counter()
    g = normalize(model_coefficients(1.5))
    order, _ = temporal_order(g)
    assert order >= 3.8
    ratio, errors = spatial_error_ratio(g)
    assert ratio > 1e3
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(6, f"temporal order {order:.2f} >= 3.8, spatial ratio {ratio:.1e} > 1e3, {elapsed:.1f}s")


def test_criterion_7_ch_reduction():
    grid = Grid(256, 40.0)
    u0 = Field(grid, 0.25 / np.cosh(grid.x - 20.0) ** 2)
    cfg = SimConfig(grid=grid, coefficients=CH, t_end=1.0, dt=2e-3, snapshot_stride=50)
    traj = integrate(cfg, u0)
    energies = [r.ch_energy for r in traj.records]
    drift = abs(energies[-1] - energies[0]) / energies[0]
    assert drift < 1e-6
    from shearwaves.forms import rhs_nonlocal
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(10):
        a, b = random_mode_coefficients(rng, 10)
        u = trig_field(grid, a, b, amplitude=0.5)
        diff = sup_norm(rhs_nonlocal(u, CH) - camassa_holm_rhs(u, drift=CH.alpha1))
        assert diff < 1e-12
        worst = max(worst, diff)
    _report(7, f"energy drift {drift:.1e} < 1e-6, oracle agreement {worst:.1e} < 1e-12")


def test_criterion_8_wave_breaking_signature():
    start = time.perf_counter()
    grid = Grid(1024, 40.0)
    amp = 1.5
    u0 = Field(grid, -amp * np.sin(2 * np.pi * grid.x / 40.0))
    slope0 = amp * 2 * np.pi / 40.0
    cfg = SimConfig(grid=grid, coefficients=CH, t_end=14.0, cfl=0.3,
                    snapshot_stride=10, breaking_stop=-12.0 * slope0)
    traj = integrate(cfg, u0)
    records = traj.records
    assert traj.termination == "breaking_detected"
    assert breaking_monitor(records) == "breaking_signature"
    worst_slope = min(r.min_ux for r in records)
    assert worst_slope <= 10.0 * records[0].min_ux
    amp_drift = max(abs(r.sup_u - records[0].sup_u) for r in records) / records[0].sup_u
    assert amp_drift < 0.10

    # smooth manufactured run must stay quiet
    g = normalize(model_coefficients(1.5))
    grid2 = Grid(128, 40.0)
    u_exact, u_exact_t = mms_solution(40.0)
    forcing = manufactured_forcing(grid2, g, u_exact, u_exact_t, "two_thirds")
    cfg2 = SimConfig(grid=grid2, coefficients=g, t_end=2.0, dt=2e-3,
                     forcing=forcing, snapshot_stride=20)
    traj2 = integrate(cfg2, Field(grid2, u_exact(0.0, grid2.x)))
    assert breaking_monitor(traj2.records) == "no_breaking_evidence"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(8, f"slope x{worst_slope / records[0].min_ux:.1f}, amplitude drift "
               f"{amp_drift:.1%} < 10%, MMS quiet, {elapsed:.1f}s")


def test_criterion_9_besov_suite():
    grid = Grid(256, 40.0)
    rng = np.random.default_rng(17)
    fields = []
    for _ in range(100):
        a, b = random_mode_coefficients(rng, 40)
        fields.append(trig_field(grid, a, b, amplitude=1.0))
    worst_recon = max(decompose(f).reconstruction_residual() for f in fields)
    assert worst_recon < 1e-10
    report = inequality_suite(fields, exact_tol=1e-12)
    for entry in report:
        assert entry["pass"], entry
    ratios = [e["defect_or_ratio"] for e in report if e["check"] == "log_interpolation_ratio"]
    assert len(ratios) == 100 and all(math.isfinite(r) for r in ratios)
    _report(9, f"reconstruction {worst_recon:.1e} < 1e-10, exact inequalities on 100 "
               f"fields, log-ratio max {max(ratios):.3f}")


def test_criterion_10_determinism(tmp_path):
    cfg = {
        "schema_version": 1, "n": 128, "length": 40.0, "t_end": 0.2,
        "dt": 0.002, "dealias": "two_thirds", "snapshot_stride": 20,
        "vorticity": 1.5, "initial": "random_bandlimited", "amplitude": 0.3,
        "max_mode": 8, "seed": 42,
    }
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_main(["simulate", str(cfg_path), "--out", str(out1)]) == 0
    assert cli_main(["simulate", str(cfg_path), "--out", str(out2)]) == 0
    b1 = (out1 / "diagnostics.csv").read_bytes()
    b2 = (out2 / "diagnostics.csv").read_bytes()
    assert b1 == b2
    _report(10, "fixed-step config+seed reproduces diagnostics CSV bytes")
