"""Model forms: nonlocal right-hand side, residual functionals, equivalence
and rescaling checks."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from shearwaves import checks
from shearwaves.checks import CAMASSA_HOLM
from shearwaves.coeffs import GeneralCoefficients, model_coefficients, normalize, perturbed
from shearwaves.forms import (
    ProfileSum,
    RateWorkspace,
    ScaleParams,
    TravelingGaussian,
    local_form_terms,
    rate_hat,
    residual_local_form,
    rhs_nonlocal,
    velocity_rate_from_rescaled_form,
    verify_form_equivalence,
    verify_rescale,
)
from shearwaves.oracles import camassa_holm_rhs, helmholtz_inverse_quadrature, trig_eval
from shearwaves.spectral import (
    Field,
    Grid,
    derivative,
    random_mode_coefficients,
    sup_norm,
    trig_field,
)

# Camassa-Holm with a drift: the oracle's camassa_holm_rhs(u, drift=0.3)
CH = dataclasses.replace(CAMASSA_HOLM, alpha1=0.3)


@pytest.fixture
def grid():
    return Grid(256, 40.0)


def test_scale_params_validation():
    with pytest.raises(ValueError):
        ScaleParams(0.0, 1.0)
    with pytest.raises(ValueError):
        ScaleParams(0.1, -1.0)
    ScaleParams(0.2, 0.008)


def test_rhs_zero_field(grid):
    g = normalize(model_coefficients(1.5))
    out = rhs_nonlocal(Field(grid, np.zeros(grid.n)), g)
    assert np.max(np.abs(out.values)) == 0.0


def test_rhs_constant_without_polynomial_flux(grid):
    g = normalize(model_coefficients(1.5))
    g = dataclasses.replace(g, beta1=0.0, beta2=0.0, beta3=0.0, beta4=0.0,
                            beta5=0.0, beta6=0.0)
    out = rhs_nonlocal(Field(grid, np.full(grid.n, 0.4)), g)
    assert np.max(np.abs(out.values)) < 1e-14


def test_rhs_linear_subcase_is_advection(grid):
    g = normalize(model_coefficients(1.5))
    g_lin = dataclasses.replace(g, alpha2=0.0, alpha3=0.0, beta1=0.0, beta2=0.0,
                                beta3=0.0, beta4=0.0, beta5=0.0, beta6=0.0,
                                beta7=0.0, beta8=0.0, gamma=0.0)
    rng = np.random.default_rng(0)
    a, b = random_mode_coefficients(rng, 10)
    u = trig_field(grid, a, b, amplitude=0.5)
    expect = -g_lin.alpha1 * derivative(u).values
    assert np.max(np.abs(rhs_nonlocal(u, g_lin).values - expect)) < 1e-14


@pytest.mark.parametrize("seed", range(5))
def test_rhs_matches_independent_ch_oracle(grid, seed):
    rng = np.random.default_rng(seed)
    a, b = random_mode_coefficients(rng, 10)
    u = trig_field(grid, a, b, amplitude=0.5)
    mine = rhs_nonlocal(u, CH)
    oracle = camassa_holm_rhs(u, drift=CH.alpha1)
    assert sup_norm(mine - oracle) < 1e-12


@pytest.mark.parametrize("policy", [None, "two_thirds", "strong"])
def test_rhs_matches_raw_fft_composition(grid, policy):
    # every coefficient nonzero; the expected rate is composed from full
    # complex transforms and fft-ordered wavenumbers, not from the grid's cache
    fraction = {None: math.inf, "two_thirds": 2.0 / 3.0, "strong": 2.0 / 7.0}[policy]
    rng = np.random.default_rng(13)
    names = [f.name for f in dataclasses.fields(GeneralCoefficients)]
    g = GeneralCoefficients(**dict(zip(names, rng.uniform(0.2, 1.0, 12) * rng.choice([-1, 1], 12))))
    k = 2 * np.pi * np.fft.fftfreq(grid.n, grid.dx)
    ik = 1j * k
    ik[grid.n // 2] = 0.0
    for _ in range(3):
        a, b = random_mode_coefficients(rng, 16)
        v = trig_field(grid, a, b, amplitude=0.6).values
        ux = np.fft.ifft(ik * np.fft.fft(v)).real
        advection = -(g.alpha1 + g.alpha2 * v + g.alpha3 * v**2) * ux
        flux = sum(getattr(g, f"beta{i}") * v**i for i in range(1, 7))
        flux = flux + g.beta7 * ux**2 + g.beta8 * v * ux**2
        rate_hat = (np.fft.fft(advection) + ik / (1 + k**2) * np.fft.fft(flux)
                    + np.fft.fft(g.gamma * ux**3) / (1 + k**2))
        expect = np.fft.ifft(rate_hat * (np.abs(k) <= fraction * grid.k_max)).real
        got = rhs_nonlocal(Field(grid, v), g, policy).values
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))


@pytest.mark.parametrize("policy", [None, "two_thirds", "strong"])
def test_rate_hat_workspace_is_bitwise_neutral(grid, policy):
    # the time step reuses one workspace, rhs_nonlocal passes fresh buffers;
    # a reused workspace holding an earlier call's data must not change the result
    rng = np.random.default_rng(21)
    names = [f.name for f in dataclasses.fields(GeneralCoefficients)]
    g = GeneralCoefficients(**dict(zip(names, rng.uniform(-1.0, 1.0, 12))))
    m = grid.retained_bins(policy)
    work = RateWorkspace(grid.n, m)
    for _ in range(3):
        u_hat = np.fft.rfft(trig_field(grid, *random_mode_coefficients(rng, 16), amplitude=0.6).values)[:m]
        fresh = rate_hat(u_hat, grid, g, m, RateWorkspace(grid.n, m))
        reused = rate_hat(u_hat, grid, g, m, work=work)
        assert fresh.shape == (m,)
        assert np.array_equal(fresh, reused)


@pytest.mark.parametrize("fields", [1, 3, 16])
@pytest.mark.parametrize("policy", [None, "two_thirds", "strong"])
@pytest.mark.parametrize("coefficients", ["random", "camassa_holm"])
def test_rate_hat_on_a_stack_equals_per_row_bitwise(grid, policy, fields, coefficients):
    # every nonzero term, and Camassa-Holm's skipped terms and two-row rfft
    rng = np.random.default_rng(22)
    names = [f.name for f in dataclasses.fields(GeneralCoefficients)]
    g = (GeneralCoefficients(**dict(zip(names, rng.uniform(-1.0, 1.0, 12))))
         if coefficients == "random" else CAMASSA_HOLM)
    m = grid.retained_bins(policy)
    a, b = random_mode_coefficients(rng, 16, fields=fields)
    u_hat = np.fft.rfft(trig_field(grid, a, b, amplitude=0.6).values)[:, :m]
    work = RateWorkspace((fields, grid.n), m)
    got = rate_hat(u_hat, grid, g, m, work)
    assert got.shape == (fields, m)
    for i, row in enumerate(u_hat):
        one = RateWorkspace(grid.n, m)
        assert np.array_equal(got[i], rate_hat(row, grid, g, m, one))
        assert np.array_equal(work.values[:, i], one.values)  # the samples (u, u_x) of the row


@pytest.mark.parametrize("fields", [1, 3, 16])
def test_rhs_nonlocal_on_a_stack_equals_per_row_bitwise(grid, fields):
    g = normalize(model_coefficients(1.5))
    a, b = random_mode_coefficients(np.random.default_rng(23), 10, fields=fields)
    stack = trig_field(grid, a, b, amplitude=0.8)
    for policy in (None, "two_thirds"):
        got = rhs_nonlocal(stack, g, policy).values
        assert got.shape == (fields, grid.n)
        for row, values in zip(got, stack.values):
            assert np.array_equal(row, rhs_nonlocal(Field(grid, values), g, policy).values)


def _rate_hat_every_term(u_hat, grid, g, m):
    """``rate_hat`` with every term evaluated, zero coefficients included, in
    the kernel's operation order: the reference for its skipped terms."""
    v, vx = np.fft.irfft(np.stack([u_hat, grid.mult_dx[:u_hat.size] * u_hat]), grid.n)
    slope2 = vx * vx
    advection = -(g.alpha2 * v + g.alpha1 + g.alpha3 * v * v) * vx
    flux = v * g.beta6
    for beta in (g.beta5, g.beta4, g.beta3, g.beta2, g.beta1):
        flux = v * (flux + beta)
    flux = flux + (g.beta7 * slope2 + g.beta8 * v * slope2)
    cubic = g.gamma * slope2 * vx
    advection_hat, flux_hat, cubic_hat = np.fft.rfft(np.stack([advection, flux, cubic]))[:, :m]
    return (advection_hat + grid.mult_helmholtz_dx[:m] * flux_hat
            + grid.mult_helmholtz[:m] * cubic_hat)


@pytest.mark.parametrize("policy", [None, "two_thirds", "strong"])
def test_rate_hat_skips_zero_terms_bitwise(grid, policy, monkeypatch):
    # skipping a term whose coefficient is 0 leaves every bit of the rate;
    # gamma = 0 transforms two product rows, gamma != 0 three
    rng = np.random.default_rng(34)
    names = [f.name for f in dataclasses.fields(GeneralCoefficients)]
    full = dict(zip(names, rng.uniform(0.2, 1.0, 12) * rng.choice([-1, 1], 12)))
    sets = [CH, GeneralCoefficients(**dict(full, gamma=0.0)),
            GeneralCoefficients(**{k: 0.0 if k.startswith("beta") else c for k, c in full.items()})]
    sets += [GeneralCoefficients(**{k: 0.0 if rng.random() < 0.5 else c for k, c in full.items()})
             for _ in range(20)]
    shapes = []
    rfft = np.fft.rfft

    def spied(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return rfft(a, *args, **kwargs)

    m = grid.retained_bins(policy)
    work = RateWorkspace(grid.n, m)
    for g in sets:
        u_hat = rfft(trig_field(grid, *random_mode_coefficients(rng, 16), amplitude=0.6).values)[:m]
        expect = _rate_hat_every_term(u_hat, grid, g, m)
        monkeypatch.setattr(np.fft, "rfft", spied)
        got = rate_hat(u_hat, grid, g, m, work=work)
        monkeypatch.undo()
        assert np.array_equal(got, expect)
        assert shapes.pop() == ((3, grid.n) if g.gamma else (2, grid.n))
    assert not shapes


def _h1_energy_identity_gap(u, g, rate_coefficients):
    """<u, (1 - dxx) rhs_nonlocal(u)>, which is dE/dt for E = (1/2) int u^2 + u_x^2,
    against -(alpha2/2 + beta7) int u_x^3 - (alpha3 + beta8 - gamma) int u u_x^3
    of the set g: the gap and the scale |first term| + |second term|.  The rate
    is taken with ``rate_coefficients``.  The flux terms carry no energy.
    Transforms are raw numpy; the trapezoid sums are exact for these
    band-limited products."""
    grid = u.grid
    k = 2 * np.pi * np.fft.rfftfreq(grid.n, grid.dx)
    u_hat = np.fft.rfft(u.values)
    ux = np.fft.irfft(1j * k * u_hat, grid.n)
    smoothed = np.fft.irfft((1 + k**2) * u_hat, grid.n)  # (1 - dxx) u, self-adjoint
    rate = rhs_nonlocal(u, rate_coefficients, "strong").values
    first = -(g.alpha2 / 2 + g.beta7) * np.sum(ux**3) * grid.dx
    second = -(g.alpha3 + g.beta8 - g.gamma) * np.sum(u.values * ux**3) * grid.dx
    return abs(np.sum(smoothed * rate) * grid.dx - first - second), abs(first) + abs(second)


@pytest.mark.parametrize("seed", range(3))
def test_rate_satisfies_h1_energy_identity(grid, seed):
    rng = np.random.default_rng(40 + seed)
    names = [f.name for f in dataclasses.fields(GeneralCoefficients)]
    g = GeneralCoefficients(**dict(zip(names, rng.uniform(0.2, 1.0, 12) * rng.choice([-1, 1], 12))))
    u = trig_field(grid, *random_mode_coefficients(rng, 8), amplitude=0.6)
    gap, scale = _h1_energy_identity_gap(u, g, g)
    assert gap <= 1e-12 * scale
    # a slip in the rate's coefficients that carry energy breaks the identity
    for name in ("beta8", "gamma"):
        gap, scale = _h1_energy_identity_gap(u, g, perturbed(g, name, 1e-6))
        assert gap > 1e-12 * scale


def test_rhs_unknown_policy(grid):
    with pytest.raises(ValueError):
        rhs_nonlocal(Field(grid, np.zeros(grid.n)), CH, "off")


def test_oracles_ignore_cached_multipliers():
    # the oracles must stay independent of the fast path they check: garbage
    # in the grid's wavenumbers and cached multipliers changes rhs_nonlocal
    # and nothing else
    grid = Grid(64, 40.0)
    a, b = random_mode_coefficients(np.random.default_rng(14), 8)
    values = trig_field(grid, a, b, amplitude=0.5).values
    points = np.linspace(0.0, 40.0, 7)

    def evaluate():
        u = Field(grid, values.copy())
        return (rhs_nonlocal(u, CH).values, camassa_holm_rhs(u, drift=0.3).values,
                helmholtz_inverse_quadrature(u), trig_eval(u, points))

    before = evaluate()
    garbage = np.random.default_rng(15)
    for name in ("mult_dx", "mult_helmholtz", "mult_helmholtz_dx"):
        setattr(grid, name, garbage.standard_normal(grid.n // 2 + 1) * 1j)
    grid.dealias_bins = {policy: int(garbage.integers(1, grid.n // 2 + 1))
                         for policy in grid.dealias_bins}
    grid.k = garbage.standard_normal(grid.n // 2 + 1)
    after = evaluate()
    assert np.max(np.abs(after[0] - before[0])) > 1e-3
    for old, new in zip(before[1:], after[1:]):
        assert np.array_equal(old, new)


def test_advection_translates_at_alpha1():
    # pure advection sub-case: the max position moves at speed alpha1
    from shearwaves.solver import LawsonRK4, step_rk4

    grid = Grid(256, 40.0)
    g_lin = GeneralCoefficients(alpha1=0.8, alpha2=0.0, alpha3=0.0, beta1=0.0,
                                beta2=0.0, beta3=0.0, beta4=0.0, beta5=0.0,
                                beta6=0.0, beta7=0.0, beta8=0.0, gamma=0.0)
    plan = LawsonRK4(grid, g_lin)
    w = np.fft.rfft(0.3 * np.exp(-((grid.x - 10.0) ** 2) / 4.0))
    plan.k1 = plan.rate(w, 0.0)
    t, dt = 0.0, 1e-3
    while t < 1.0 - 1e-12:
        w = step_rk4(plan, w, dt, t)
        t += dt
    peak = grid.x[np.argmax(np.fft.irfft(w, grid.n))]
    assert abs(peak - (10.0 + 0.8 * 1.0)) <= grid.dx + 1e-12


def test_residual_zero_pair_vanishes(grid):
    m = model_coefficients(1.5)
    zero = Field(grid, np.zeros(grid.n))
    res = residual_local_form(zero, zero, m, ScaleParams(0.2, 0.008))
    assert np.max(np.abs(res.values)) == 0.0


def test_residual_linear_dispersion_oracle(grid):
    # u_t built from the dispersion multiplier omega(k) = k(c + beta0*mu*k^2)
    # / (1 + beta*mu*k^2) solves the linearized equation; with a tiny
    # amplitude parameter the nonlinear terms are negligible
    m = model_coefficients(1.5)
    s = ScaleParams(1e-10, 1.0)
    rng = np.random.default_rng(1)
    a, b = random_mode_coefficients(rng, 12)
    u = trig_field(grid, a, b, amplitude=0.3)
    k = 2 * np.pi * np.fft.fftfreq(grid.n, grid.dx)
    omega = k * (m.c + m.beta0 * s.mu * k**2) / (1.0 + m.beta * s.mu * k**2)
    ut = Field(grid, np.fft.ifft(-1j * omega * np.fft.fft(u.values)).real)
    res = residual_local_form(u, ut, m, s)
    assert np.max(np.abs(res.values)) < 1e-10


def test_residual_flips_with_wrong_dispersion_sign(grid):
    m = model_coefficients(1.5)
    s = ScaleParams(1e-10, 1.0)
    u = Field(grid, 0.3 * np.cos(2 * np.pi * 5 * grid.x / 40.0))
    k = 2 * np.pi * np.fft.fftfreq(grid.n, grid.dx)
    omega_bad = k * (m.c - m.beta0 * s.mu * k**2) / (1.0 + m.beta * s.mu * k**2)
    ut = Field(grid, np.fft.ifft(-1j * omega_bad * np.fft.fft(u.values)).real)
    res = residual_local_form(u, ut, m, s)
    assert np.max(np.abs(res.values)) > 1e-6


def test_residual_matches_analytic_forcing(grid):
    # manufactured pair evaluated two ways: spectral derivatives vs closed
    # forms; the compensating forcing is the shared truth
    m = model_coefficients(1.5)
    s = ScaleParams(0.2, 0.008)
    bump = TravelingGaussian(amplitude=0.4, width=2.5, speed=0.6, center=20.0)
    t0 = 0.3
    u = Field(grid, bump.value(t0, grid.x))
    ut = Field(grid, bump.dt(t0, grid.x))
    spectral = residual_local_form(u, ut, m, s)
    analytic = local_form_terms(
        bump.value(t0, grid.x), bump.dt(t0, grid.x), bump.dx(t0, grid.x),
        bump.dxx(t0, grid.x), bump.dxxx(t0, grid.x), bump.dtxx(t0, grid.x), m, s)
    assert np.max(np.abs(spectral.values - analytic)) < 1e-10


def test_form_equivalence_zero(grid):
    m = model_coefficients(1.5)
    assert verify_form_equivalence(Field(grid, np.zeros(grid.n)), m) == 0.0


def test_form_equivalence_single_mode(grid):
    m = model_coefficients(1.5)
    u = Field(grid, 0.1 * np.sin(2 * np.pi * 3 * grid.x / 40.0))
    assert verify_form_equivalence(u, m) < 1e-10


def test_form_equivalence_random_sweep(grid):
    m = model_coefficients(1.5)
    rng = np.random.default_rng(2)
    for _ in range(50):
        a, b = random_mode_coefficients(rng, 10)
        u = trig_field(grid, a, b, amplitude=0.8)
        assert verify_form_equivalence(u, m) < 1e-8


@pytest.mark.parametrize("seed", [20240, 5, 1, 17])
@pytest.mark.parametrize("fault", [None, "beta8"])
def test_form_equivalence_suite_residual_equals_per_field_max_bitwise(grid, seed, fault):
    # the suite checks its fields in 16-field stacks; the residual is the max
    # of one verify_form_equivalence call per field, to the bit
    m = model_coefficients(1.5)
    g = None if fault is None else perturbed(normalize(m), fault)
    rng = np.random.default_rng(seed)
    per_field = [verify_form_equivalence(trig_field(grid, *random_mode_coefficients(rng, 10),
                                                    amplitude=0.8), m, g)
                 for _ in range(checks.FORM_SAMPLES)]
    residual = checks.form_equivalence_suite(seed, m, g)[0]["residual"]
    assert residual == float(np.max(per_field))
    assert (residual < 1e-8) == (fault is None)


def test_form_equivalence_suite_memory_is_bounded_by_its_stacks():
    # 16-field stacks peaked at about 0.55 MiB, one 50-field stack at 1.7 MiB
    m = model_coefficients(1.5)
    checks.form_equivalence_suite(20240, m)  # first call loads what numpy loads lazily
    tracemalloc.start()
    try:
        checks.form_equivalence_suite(20240, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


def test_form_equivalence_refines_spectrally():
    m = model_coefficients(1.5)
    rng = np.random.default_rng(3)
    a, b = random_mode_coefficients(rng, 10)
    coarse = verify_form_equivalence(trig_field(Grid(64, 40.0), a, b, amplitude=0.8), m)
    fine = verify_form_equivalence(trig_field(Grid(256, 40.0), a, b, amplitude=0.8), m)
    assert coarse >= 1e3 * fine


def test_form_equivalence_detects_coefficient_fault(grid):
    m = model_coefficients(1.5)
    g_bad = perturbed(normalize(m), "beta3")
    rng = np.random.default_rng(4)
    a, b = random_mode_coefficients(rng, 10)
    u = trig_field(grid, a, b, amplitude=0.8)
    assert verify_form_equivalence(u, m, g_bad) > 1e-8


def _two_bump_profile():
    return ProfileSum(
        TravelingGaussian(amplitude=1.0, width=1.0, speed=0.7, center=-1.5),
        TravelingGaussian(amplitude=0.6, width=1.7, speed=-0.4, center=2.0),
    )


def test_rescale_gaussian_bump():
    m = model_coefficients(1.5)
    report = verify_rescale(_two_bump_profile(), ScaleParams(0.2, 0.008), m)
    assert report.passed
    assert report.defect < 1e-8
    assert report.fitted_factor == pytest.approx(
        m.alpha * 0.2 * math.sqrt(m.beta * 0.008), rel=1e-10)


def test_rescale_degenerate_identity():
    m = dataclasses.replace(model_coefficients(1.5), alpha=1.0, beta=1.0)
    report = verify_rescale(_two_bump_profile(), ScaleParams(1.0, 1.0), m)
    assert report.passed
    assert report.expected_factor == 1.0
    assert report.defect < 1e-12


def test_rescale_dispersion_solution_vanishes_both_sides():
    # a profile solving the linear part of both forms simultaneously would
    # zero both residuals; the degenerate zero-profile check covers the
    # trivial branch of the report
    m = model_coefficients(1.5)
    zero = TravelingGaussian(amplitude=0.0, width=1.0, speed=0.0)
    report = verify_rescale(zero, ScaleParams(0.2, 0.008), m)
    assert report.passed and report.defect == 0.0


def test_rescale_detects_cross_form_fault():
    # breaking the printed relation between the two forms must destroy the
    # single-factor proportionality: perturb one form's weight only
    m = model_coefficients(1.5)
    s = ScaleParams(0.2, 0.008)
    profile = _two_bump_profile()
    good = verify_rescale(profile, s, m)

    from shearwaves import forms as forms_mod

    original = forms_mod.rescaled_form_terms

    def tampered(u, ut, ux, uxx, uxxx, utxx, mm):
        return original(u, ut, ux, uxx, uxxx, utxx, mm) + 1e-4 * uxx

    forms_mod.rescaled_form_terms = tampered
    try:
        bad = verify_rescale(profile, s, m)
    finally:
        forms_mod.rescaled_form_terms = original
    assert good.passed and not bad.passed


def test_velocity_rate_grid_mismatch_guard():
    m = model_coefficients(1.5)
    u = Field(Grid(64, 40.0), np.zeros(64))
    ut = Field(Grid(128, 40.0), np.zeros(128))
    with pytest.raises(ValueError):
        residual_local_form(u, ut, m, ScaleParams(0.2, 0.008))
    # smoke: rate extraction works on the small grid
    velocity_rate_from_rescaled_form(u, m)
