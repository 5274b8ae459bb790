"""Acceptance criteria, one test per criterion, each printing a PASS line.

Criteria 3-5 and 7-9 call the ``shearwaves.checks.SUITES`` entries that
``verify`` runs, criterion 6 the ``convergence`` study, and criterion 10
reruns ``simulate``; every threshold this gate asserts is pinned here, so
loosening a tolerance in ``checks`` cannot loosen the gate.  Run with
`pytest -v tests/test_acceptance.py` (add -s to see the per-criterion lines).
"""
import json
import time
from fractions import Fraction as F

import numpy as np

from shearwaves.checks import BESOV_SAMPLES, CAMASSA_HOLM, SUITES
from shearwaves.checks import spatial_error_ratio, temporal_order
from shearwaves.cli import main as cli_main
from shearwaves.coeffs import (
    GeneralCoefficients,
    ModelCoefficients,
    identity_suite,
    model_coefficients,
    normalize,
)
from shearwaves.spectral import Field, Grid, helmholtz_inverse

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
    assert CAMASSA_HOLM == CH
    drift, oracle = SUITES["ch_reduction"](13, None, None)  # sech^2 run, 10 fields of seed 13
    assert drift["n"] == 256 and drift["residual"] < 1e-6
    assert oracle["residual"] < 1e-12
    _report(7, f"energy drift {drift['residual']:.1e} < 1e-6, "
               f"oracle agreement {oracle['residual']:.1e} < 1e-12")


def test_criterion_8_wave_breaking_signature():
    start = time.perf_counter()
    assert CAMASSA_HOLM == CH
    signature, amplitude, quiet = SUITES["breaking"](None, None, None)
    growth = 1 / signature["residual"]  # steepest over initial min u_x
    assert signature["n"] == 1024 and signature["pass"] and growth >= 10.0
    assert amplitude["residual"] < 0.10
    assert quiet["pass"]  # the smooth manufactured run stays quiet
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(8, f"slope x{growth:.1f}, amplitude drift "
               f"{amplitude['residual']:.1%} < 10%, MMS quiet, {elapsed:.1f}s")


def test_criterion_9_besov_suite():
    assert BESOV_SAMPLES == 100
    exact, recon, ratio = SUITES["besov"](17, None, None)
    assert exact["n"] == 256 and exact["pass"] and exact["residual"] < 1e-12
    assert recon["residual"] < 1e-10
    assert ratio["pass"]  # every field's log-interpolation ratio is finite
    _report(9, f"reconstruction {recon['residual']:.1e} < 1e-10, exact inequalities on 100 "
               f"fields, log-ratio max {ratio['residual']:.3f}")


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
