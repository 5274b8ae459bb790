"""Coefficient engine: exact-rational spot values, identities, purity."""
import math
from fractions import Fraction as F

import numpy as np
import pytest

from shearwaves.coeffs import (
    DerivedIntermediates,
    ModelCoefficients,
    burns_speed,
    derived_intermediates,
    identity_suite,
    model_coefficients,
    normalize,
    perturbed,
)


def test_burns_speed_irrotational():
    assert burns_speed(0.0) == 1.0


def test_burns_speed_spot_values():
    assert burns_speed(1.5) == 2.0
    # quadratic-formula oracle recomputed independently
    assert burns_speed(3.0) == pytest.approx((3.0 + math.sqrt(13.0)) / 2.0, rel=1e-15)
    assert burns_speed(3.0) == pytest.approx(3.302775637731995, rel=1e-14)


@pytest.mark.parametrize("a", [0.0, 1e-3, 0.5, 1.5, 3.0, 10.0])
def test_burns_speed_satisfies_quadratic(a):
    c = burns_speed(a)
    assert abs(c * c - a * c - 1.0) / (c * c) < 1e-12
    assert c >= 1.0


def test_burns_speed_rejects_bad_input():
    with pytest.raises(ValueError):
        burns_speed(-0.1)
    with pytest.raises(ValueError):
        burns_speed(float("nan"))
    with pytest.raises(ValueError):
        burns_speed(float("inf"))


def test_exact_rational_spot_values_c2():
    m = ModelCoefficients.from_speed(F(2))
    assert m.A == F(3, 2)
    assert m.alpha == F(7, 5)
    assert m.beta == F(43, 1050)
    assert m.beta0 == F(17, 350)
    assert m.omega1 == F(288, 125)


def test_exact_rational_spot_values_c1():
    m = ModelCoefficients.from_speed(F(1))
    assert m.alpha == F(1, 2)
    assert m.beta == F(5, 12)
    assert m.beta0 == F(1, 4)
    assert (m.omega1, m.omega2, m.omega3, m.omega4) == (0, 0, 0, 0)
    # printed numerator sums to 576 over denominator 1152 at unit speed
    num = 2 + 17 + 37 + 115 + 189 + 152 + 54 + 10
    den = 12 * 3 * 1 * 2**5
    assert (num, den) == (576, 1152)
    assert m.omega5 == -F(num, den) == -F(1, 2)


def test_double_precision_agrees_with_exact():
    exact = ModelCoefficients.from_speed(F(2))
    dbl = model_coefficients(1.5)
    for name in ("c", "alpha", "beta", "beta0", "omega1", "omega2", "omega3",
                 "omega4", "omega5", "omega6", "omega7"):
        e, d = float(getattr(exact, name)), getattr(dbl, name)
        if e == 0.0:
            assert d == 0.0
        else:
            assert abs(d - e) / abs(e) < 1e-14


def _convolve(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def test_beta0_numerator_brute_force_expansion():
    # 3c^2 (c^4 + 6c^2 + 3) - 2 (c^2 + 1)(c^4 + c^2 + 1) expanded by plain
    # integer-list convolution (descending powers), independent of any
    # coefficient code
    first = _convolve([3, 0, 0], [1, 0, 6, 0, 3])
    second = _convolve([2, 0, 2], [1, 0, 1, 0, 1])
    diff = [a - b for a, b in zip([0] * (len(second) - len(first)) + first, second)]
    while diff and diff[0] == 0:
        diff.pop(0)
    assert diff == [1, 0, 14, 0, 5, 0, -2]


def test_beta0_closed_form_relation():
    for a in np.geomspace(1e-3, 10.0, 25):
        m = model_coefficients(a)
        c = m.c
        assert m.beta0 == pytest.approx(c * m.beta - 1.0 / (3 * c * (c * c + 1)), rel=1e-13)


def test_derived_intermediates_spot_values_c1():
    d = DerivedIntermediates.from_speed(F(1))
    assert d.c8 == F(114, 96)
    assert d.c9 == F(60, 96)
    assert d.c10 == F(138, 48)
    lhs = 2 * d.c8 + 2 * d.c9 - d.c10
    assert lhs == F(3, 4)
    c = F(1)
    rhs = (c**6 + 7 * c**4 + 7 * c**2 + 3) / (3 * c**2 * (c**2 + 1) ** 3)
    assert rhs == F(18, 24) == lhs
    assert d.A8 == -d.c8 and d.A9 == -d.c9 and d.A10 == -d.c10
    assert d.gamma6_times_1_minus_nu == -F(5, 12)
    assert d.B16 == 2 * d.B17 == -F(10, 24)


@pytest.mark.parametrize("a", np.geomspace(1e-3, 10.0, 20).tolist())
def test_omega_matches_expanded_b_list(a):
    m = model_coefficients(a)
    d = derived_intermediates(a)
    for w, b in [(m.omega1, d.B11), (m.omega2, d.B12),
                 (m.omega3, d.B13), (m.omega4, d.B14)]:
        scale = max(abs(w), abs(b), 1e-300)
        assert abs(w - b) / scale < 1e-12


def test_normalize_c1_values():
    m = ModelCoefficients.from_speed(F(1))
    g = normalize(m)
    assert g.alpha3 == -F(24, 5)
    assert g.alpha2 == 1
    assert g.beta2 == -1
    assert g.beta7 == -F(1, 2)
    assert g.beta4 == g.beta5 == g.beta6 == 0


def test_normalize_pinned_constants_any_a():
    for a in (0.0, 0.7, 1.5, 6.0):
        g = normalize(model_coefficients(a))
        assert g.alpha2 == 1
        assert g.beta2 == -1
        assert g.beta7 == -0.5


def test_normalize_guards_degenerate():
    m = model_coefficients(1.5)
    bad = perturbed(m, "beta", relative=-1.0)  # beta -> 0
    with pytest.raises(ValueError):
        normalize(bad)


def test_identity_suite_passes_at_half_integer_vorticity():
    checks = identity_suite(1.5)
    assert checks
    for chk in checks:
        assert chk.passed, f"{chk.name}: residual {chk.residual}"
        assert chk.residual < 1e-12


def test_identity_suite_irrotational_omegas_vanish():
    checks = {c.name: c for c in identity_suite(0.0)}
    assert checks["omegas_vanish_irrotational"].passed
    m = model_coefficients(0.0)
    assert m.omega1 == 0.0 and m.omega2 == 0.0 and m.omega3 == 0.0 and m.omega4 == 0.0
    assert all(c.passed for c in checks.values())


def test_identity_sweep_all_pass():
    # the upper range reaches the largest vorticity whose constants are finite
    for a in np.concatenate([np.geomspace(1e-3, 10.0, 100), np.geomspace(10.0, 6.9e12, 100)]):
        assert all(c.passed for c in identity_suite(float(a)))


def test_z0_in_unit_interval_across_sweep():
    for a in np.geomspace(1e-3, 50.0, 50):
        m = model_coefficients(float(a))
        assert 0.0 < m.z0 < 1.0
    assert model_coefficients(0.0).z0 == pytest.approx(math.sqrt(0.5), rel=1e-15)


def test_coefficients_are_pure():
    first = model_coefficients(2.345)
    second = model_coefficients(2.345)
    assert first == second  # bitwise-identical floats
    assert derived_intermediates(2.345) == derived_intermediates(2.345)


def test_positivity_across_sweep():
    for a in np.geomspace(1e-3, 20.0, 40):
        m = model_coefficients(float(a))
        assert m.alpha > 0 and m.beta > 0


def test_fault_injection_breaks_an_identity():
    # omega1 and B11 are evaluated through different representations, so a
    # perturbation of one side must surface in the suite
    d = derived_intermediates(1.5)
    m = perturbed(model_coefficients(1.5), "omega1")
    scale = max(abs(m.omega1), abs(d.B11))
    assert abs(m.omega1 - d.B11) / scale > 1e-12
