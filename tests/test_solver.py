"""Time stepping, diagnostics and the breaking monitor."""
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from shearwaves import solver
from shearwaves.checks import CAMASSA_HOLM as CH, mms_solution
from shearwaves.coeffs import model_coefficients, normalize
from shearwaves.forms import rate_hat
from shearwaves.solver import (
    DIAGNOSTICS_HEADER,
    RK4_IMAGINARY_LIMIT,
    LawsonRK4,
    SimConfig,
    advection_speed_bound,
    breaking_crossing,
    breaking_monitor,
    integrate,
    manufactured_forcing,
    step_rk4,
)
from shearwaves.spectral import (
    Field,
    Grid,
    derivative,
    random_mode_coefficients,
    sobolev_norm,
    trig_field,
)


def hand_steps(plan, u, dt, nsteps, t=0.0):
    """Advance u by nsteps plan steps of size dt from t, priming the plan's
    k1 once as ``integrate`` does; each step leaves k1 at its result for the
    next.  Returns (u, t)."""
    w = np.fft.rfft(u.values)[:plan.m]
    plan.k1 = plan.rate(w, t)
    for _ in range(nsteps):
        w = step_rk4(plan, w, dt, t)
        t += dt
    return Field(u.grid, np.fft.irfft(w, u.grid.n)), t


def linear_subcase(g):
    return dataclasses.replace(g, alpha2=0.0, alpha3=0.0, beta2=0.0, beta3=0.0,
                               beta4=0.0, beta5=0.0, beta6=0.0, beta7=0.0,
                               beta8=0.0, gamma=0.0)


def test_simconfig_validation():
    grid = Grid(64, 40.0)
    g = normalize(model_coefficients(1.5))
    with pytest.raises(ValueError):
        SimConfig(grid=grid, coefficients=g, t_end=1.0)  # neither dt nor cfl
    with pytest.raises(ValueError):
        SimConfig(grid=grid, coefficients=g, t_end=1.0, dt=1e-3, cfl=0.5)
    with pytest.raises(ValueError):
        SimConfig(grid=grid, coefficients=g, t_end=-1.0, dt=1e-3)
    with pytest.raises(ValueError):
        SimConfig(grid=grid, coefficients=g, t_end=1.0, cfl=1.5)
    with pytest.raises(ValueError):
        SimConfig(grid=grid, coefficients=g, t_end=1.0, dt=1e-3, snapshot_stride=0)
    # an unknown or unhashable dealias policy fails here, not when integrate plans the run
    with pytest.raises(ValueError):
        SimConfig(grid=grid, coefficients=g, t_end=1.0, dt=1e-3, dealias_policy="off")
    with pytest.raises(ValueError):
        SimConfig(grid=grid, coefficients=g, t_end=1.0, dt=1e-3, dealias_policy=["two_thirds"])


@pytest.mark.parametrize("t_end", [math.inf, math.nan])
def test_simconfig_rejects_nonfinite_t_end(t_end):
    # t_end = inf used to make the loop test t < nan and return "completed"
    # after zero steps
    with pytest.raises(ValueError):
        SimConfig(grid=Grid(64, 40.0), coefficients=CH, t_end=t_end, dt=1e-3)


@pytest.mark.parametrize("dt", [math.inf, math.nan])
def test_simconfig_rejects_nonfinite_dt(dt):
    with pytest.raises(ValueError):
        SimConfig(grid=Grid(64, 40.0), coefficients=CH, t_end=1.0, dt=dt)


@pytest.mark.parametrize("s", [math.inf, math.nan])
def test_simconfig_rejects_nonfinite_sobolev_s(s):
    # a non-finite index used to run to "completed" with an hs column of nan
    with pytest.raises(ValueError):
        SimConfig(grid=Grid(64, 40.0), coefficients=CH, t_end=1.0, dt=1e-3, sobolev_s=s)


@pytest.mark.parametrize("stop", [-math.inf, math.nan])
def test_simconfig_rejects_nonfinite_breaking_stop(stop):
    # min u_x never reaches -inf, so a stop there could never end the run
    with pytest.raises(ValueError):
        SimConfig(grid=Grid(64, 40.0), coefficients=CH, t_end=1.0, dt=1e-3, breaking_stop=stop)


@pytest.mark.parametrize("stride", [2.0, 1.5, True, "2"])
def test_simconfig_rejects_non_int_snapshot_stride(stride):
    with pytest.raises(ValueError):
        SimConfig(grid=Grid(64, 40.0), coefficients=CH, t_end=1.0, dt=1e-3,
                  snapshot_stride=stride)


def test_zero_field_stays_zero():
    grid = Grid(64, 40.0)
    g = normalize(model_coefficients(1.5))
    cfg = SimConfig(grid=grid, coefficients=g, t_end=0.5, dt=1e-2)
    traj = integrate(cfg, Field(grid, np.zeros(grid.n)))
    assert traj.termination == "completed"
    assert all(r.sup_u == 0.0 and r.h1 == 0.0 and r.breaking_integral == 0.0
               for r in traj.records)


def test_grid_mismatch_rejected():
    g = normalize(model_coefficients(1.5))
    cfg = SimConfig(grid=Grid(64, 40.0), coefficients=g, t_end=0.5, dt=1e-2)
    with pytest.raises(ValueError):
        integrate(cfg, Field(Grid(128, 40.0), np.zeros(128)))


def test_linear_mode_one_period_amplitude_error():
    m = model_coefficients(1.5)
    g_lin = linear_subcase(normalize(m))
    grid = Grid(64, 40.0)
    k = 2 * np.pi * 3 / 40.0
    omega = k * (m.c + (m.beta0 / m.beta) * k**2) / (1 + k**2)
    period = 2 * np.pi / omega
    u = Field(grid, 0.1 * np.cos(k * grid.x))
    nsteps = int(round(period / 1e-3))
    dt = period / nsteps
    u, t = hand_steps(LawsonRK4(grid, g_lin), u, dt, nsteps)
    exact = 0.1 * np.cos(k * grid.x - omega * t)
    assert np.max(np.abs(u.values - exact)) < 1e-8


def test_mms_exactness_n128():
    g = normalize(model_coefficients(1.5))
    grid = Grid(128, 40.0)
    u_exact, u_exact_t = mms_solution(40.0)
    forcing = manufactured_forcing(grid, g, u_exact, u_exact_t, "two_thirds")
    cfg = SimConfig(grid=grid, coefficients=g, t_end=1.0, dt=1e-3,
                    forcing=forcing, snapshot_stride=200)
    traj = integrate(cfg, Field(grid, u_exact(0.0, grid.x)))
    assert traj.termination == "completed"
    err = np.max(np.abs(traj.final().values - u_exact(1.0, grid.x)))
    assert err < 1e-8


def test_forcing_called_once_per_stage_time():
    # stages k2 and k3 share t + dt/2: the forcing, a full rhs_nonlocal per
    # call, depends on t only and is taken once there
    g = normalize(model_coefficients(1.5))
    grid = Grid(64, 40.0)
    u_exact, u_exact_t = mms_solution(40.0)
    forcing = manufactured_forcing(grid, g, u_exact, u_exact_t, "two_thirds")
    times = []

    def recorded(t, x):
        times.append(t)
        return forcing(t, x)

    t, dt = 0.3, 0.01
    plan = LawsonRK4(grid, g, "two_thirds", recorded)
    u, _ = hand_steps(plan, Field(grid, u_exact(t, grid.x)), dt, 1, t)
    assert times == [t, t + dt / 2, t + dt]
    assert np.all(np.isfinite(u.values))


def test_forced_run_reuses_the_forcing_at_each_step_boundary():
    # a step's end time t + dt is the next step's start time, the same float,
    # so k steps take the forcing 2k + 1 times rather than 3k
    g = normalize(model_coefficients(1.5))
    grid = Grid(64, 40.0)
    u_exact, u_exact_t = mms_solution(40.0)
    forcing = manufactured_forcing(grid, g, u_exact, u_exact_t, "two_thirds")
    times = []

    def recorded(t, x):
        times.append(t)
        return forcing(t, x)

    cfg = SimConfig(grid=grid, coefficients=g, t_end=0.1, dt=0.01, forcing=recorded)
    traj = integrate(cfg, Field(grid, u_exact(0.0, grid.x)))
    steps = len(traj.records) - 1
    assert traj.termination == "completed" and steps == 10
    assert len(times) == 2 * steps + 1
    assert len(set(times)) == len(times)


@pytest.mark.parametrize("policy, bound", [("two_thirds", 20), (None, 24)])
def test_stepping_memory_is_bounded(policy, bound):
    # peak traced memory over building a plan, priming it and 4 steps, counted
    # from before the plan: 19.7 x 8n under two_thirds and 23.5 x 8n under
    # None at n = 1024 (a stepper whose temporaries peak near 20 x 8n fails)
    n = 1024
    grid = Grid(n, 40.0)
    u = 0.3 * np.exp(-((grid.x - 20.0) ** 2) / 4.0)
    g = normalize(model_coefficients(1.5))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        plan = LawsonRK4(grid, g, policy)
        w = np.fft.rfft(u)[:plan.m]
        plan.k1 = plan.rate(w, 0.0)
        for _ in range(4):
            w = step_rk4(plan, w, 1e-3, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= bound * 8 * n


def test_step_returns_a_new_state_and_leaves_its_input():
    # the step is its formulas: the next state is a new array, the caller's
    # state is not written
    grid = Grid(64, 40.0)
    plan = LawsonRK4(grid, CH, "two_thirds")
    w = np.fft.rfft(0.25 / np.cosh(grid.x - 20.0) ** 2)[:plan.m]
    plan.k1 = plan.rate(w, 0.0)
    before = w.copy()
    w_new = step_rk4(plan, w, 1e-2, 0.0)
    assert w_new is not w and not np.shares_memory(w_new, w)
    assert np.array_equal(w.view(np.uint8), before.view(np.uint8))
    assert not np.array_equal(w_new, before)


def test_unprimed_step_returns_nan():
    # k1 is taken before the first step, never inside it; a plan whose k1
    # was never primed holds NaN, so forgetting the priming cannot pass unseen
    grid = Grid(64, 40.0)
    plan = LawsonRK4(grid, CH, "two_thirds")
    w = np.fft.rfft(0.25 / np.cosh(grid.x - 20.0) ** 2)[:plan.m]
    w = step_rk4(plan, w, 1e-2, 0.0)
    assert np.all(np.isnan(w.real)) and np.all(np.isnan(w.imag))


@pytest.mark.parametrize("policy", [None, "two_thirds"])
def test_snapshots_share_no_memory(monkeypatch, policy):
    # with dealias None the first snapshot used to be the caller's u0 itself
    plans = []

    class Recorded(LawsonRK4):
        def __init__(self, *args):
            super().__init__(*args)
            plans.append(self)

    monkeypatch.setattr(solver, "LawsonRK4", Recorded)
    grid = Grid(64, 40.0)
    cfg = SimConfig(grid=grid, coefficients=CH, t_end=0.05, dt=1e-2, dealias_policy=policy)
    u0 = Field(grid, 0.25 / np.cosh(grid.x - 20.0) ** 2)
    traj = integrate(cfg, u0)
    (plan,) = plans
    workspace = [plan.work.pair, plan.work.values, plan.work.products, plan.work.slope2,
                 plan.work.scratch, plan.k1, plan.k4, u0.values]
    values = [snap.values for snap in traj.snapshots]
    assert len(values) == 6
    for i, v in enumerate(values):
        assert not any(np.shares_memory(v, other) for other in values[i + 1:])
        assert not any(np.shares_memory(v, buf) for buf in workspace)


def test_ch_energy_conservation():
    grid = Grid(256, 40.0)
    u0 = Field(grid, 0.25 / np.cosh(grid.x - 20.0) ** 2)
    cfg = SimConfig(grid=grid, coefficients=CH, t_end=1.0, dt=2e-3, snapshot_stride=50)
    traj = integrate(cfg, u0)
    e = [r.ch_energy for r in traj.records]
    assert abs(e[-1] - e[0]) / e[0] < 1e-6
    # independent paths: spectrum-based H1 squared vs quadrature energy
    assert traj.records[0].h1 ** 2 == pytest.approx(e[0], rel=1e-12)


def test_mass_conservation_without_mean_sources():
    g = dataclasses.replace(normalize(model_coefficients(1.5)), beta1=0.0, gamma=0.0)
    grid = Grid(256, 40.0)
    u0 = Field(grid, 0.2 * np.exp(-((grid.x - 20.0) ** 2) / 4.0))
    cfg = SimConfig(grid=grid, coefficients=g, t_end=1.0, dt=2e-3, snapshot_stride=10**9)
    traj = integrate(cfg, u0)
    assert abs(np.mean(traj.final().values) - np.mean(traj.snapshots[0].values)) < 1e-10


def test_trajectory_grid_refinement_invariance():
    g = normalize(model_coefficients(1.5))
    finals = {}
    for n in (128, 256):
        grid = Grid(n, 40.0)
        u0 = Field(grid, 0.1 * np.exp(-((grid.x - 20.0) ** 2) / 8.0))
        cfg = SimConfig(grid=grid, coefficients=g, t_end=1.0, dt=1e-3, snapshot_stride=10**9)
        finals[n] = integrate(cfg, u0).final()
    err = np.max(np.abs(finals[128].values - finals[256].values[::2]))
    assert err < 1e-7


def test_reversibility_linear_subcase():
    g_lin = linear_subcase(normalize(model_coefficients(1.5)))
    grid = Grid(256, 40.0)
    u = Field(grid, 0.1 * np.cos(2 * np.pi * 3 * grid.x / 40.0))
    orig = u.values.copy()
    plan = LawsonRK4(grid, g_lin)
    dt, nsteps = 1e-3, 500
    u, t = hand_steps(plan, u, dt, nsteps)
    u, t = hand_steps(plan, u, -dt, nsteps, t)
    assert np.max(np.abs(u.values - orig)) < 1e-8


def _linear_step_setup():
    g_lin = linear_subcase(normalize(model_coefficients(1.5)))
    grid = Grid(256, 40.0)
    u = trig_field(grid, *random_mode_coefficients(np.random.default_rng(8), 16), amplitude=0.25)
    return g_lin, grid, u


def test_linear_drift_is_exact_at_any_step():
    # dt = 0.5 is far past any CFL step; only an exact integrating factor
    # reproduces the multiplier exp(L dt) there
    g_lin, grid, u = _linear_step_setup()
    dt = 0.5
    symbol = g_lin.beta1 * grid.mult_helmholtz_dx - g_lin.alpha1 * grid.mult_dx
    exact = np.fft.irfft(np.exp(symbol * dt) * np.fft.rfft(u.values), grid.n)
    stepped, _ = hand_steps(LawsonRK4(grid, g_lin), u, dt, 1)
    assert np.max(np.abs(stepped.values - exact)) < 1e-13


def test_linear_step_reverses_exactly():
    g_lin, grid, u = _linear_step_setup()
    plan = LawsonRK4(grid, g_lin)
    back, _ = hand_steps(plan, hand_steps(plan, u, 0.5, 1)[0], -0.5, 1, 0.5)
    assert np.max(np.abs(back.values - u.values)) < 1e-13


def test_advection_speed_bound_excludes_linear_drift():
    g = normalize(model_coefficients(1.5))
    assert g.alpha1 > 1.0
    assert advection_speed_bound(np.zeros(64), g) == 0.0


def test_cfl_mode_advances_to_t_end():
    g = normalize(model_coefficients(1.5))
    grid = Grid(128, 40.0)
    u0 = Field(grid, 0.1 * np.exp(-((grid.x - 20.0) ** 2) / 8.0))
    cfg = SimConfig(grid=grid, coefficients=g, t_end=0.3, cfl=0.5, snapshot_stride=5)
    traj = integrate(cfg, u0)
    assert traj.termination == "completed"
    assert traj.records[-1].t == pytest.approx(0.3, abs=1e-10)


def test_fixed_step_run_reuses_the_last_rate_as_the_next_first_stage(monkeypatch):
    # FSAL: one rate evaluation before the first step, then four per step
    # (k2, k3, k4 and the rate at the result, which is the next step's k1)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return rate_hat(*args, **kwargs)

    monkeypatch.setattr(solver, "rate_hat", counted)
    grid = Grid(64, 40.0)
    cfg = SimConfig(grid=grid, coefficients=CH, t_end=0.1, dt=0.01)
    traj = integrate(cfg, Field(grid, 0.25 / np.cosh(grid.x - 20.0) ** 2))
    assert traj.steps == 10 and traj.rejected_steps == 0
    assert len(calls) == 1 + 4 * traj.steps


def test_records_take_no_transform(monkeypatch):
    # a record reads the samples of the step's end rate and the carried
    # spectrum, so 11 records cost the same transforms as 2
    counts = []
    for stride in (1, 10**9):
        calls = []
        for name in ("rfft", "irfft"):
            original = getattr(np.fft, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        grid = Grid(64, 40.0)
        cfg = SimConfig(grid=grid, coefficients=CH, t_end=0.1, dt=0.01, snapshot_stride=stride)
        traj = integrate(cfg, Field(grid, 0.25 / np.cosh(grid.x - 20.0) ** 2))
        monkeypatch.undo()
        counts.append((len(traj.records), len(calls)))
    assert [records for records, _ in counts] == [11, 2]
    assert counts[0][1] == counts[1][1]


def _sine_cfl_run(**overrides):
    grid = Grid(512, 40.0)
    u0 = Field(grid, -1.5 * np.sin(2 * np.pi * grid.x / 40.0))
    cfg = SimConfig(grid=grid, coefficients=CH, t_end=1.0, cfl=0.5, snapshot_stride=1)
    return integrate(dataclasses.replace(cfg, **overrides), u0)


@pytest.mark.parametrize("policy", ["two_thirds", "strong", None])
def test_the_stability_cap_is_rk4s_limit_on_the_retained_band(policy):
    # alpha2 u u_x alone on u = 1 + a ripple near the band edge k_c: the ripple
    # is advected at speed 1, so a step of dt multiplies it by RK4's R(i k dt),
    # of modulus below 1 only while k dt <= 2 sqrt(2)
    advection = dataclasses.replace(CH, beta2=0.0, beta7=0.0)
    grid = Grid(256, 40.0)
    m = grid.retained_bins(policy)
    u0 = Field(grid, 1.0 + 1e-9 * np.cos(grid.k[m - 2] * grid.x))

    def ripple(f):
        dt = f * RK4_IMAGINARY_LIMIT / (grid.k[m - 1] * np.max(np.abs(u0.values)))
        traj = integrate(SimConfig(grid=grid, coefficients=advection, t_end=100 * dt, dt=dt,
                                   dealias_policy=policy, snapshot_stride=100), u0)
        if traj.termination == "nonfinite":
            return math.inf
        assert traj.steps == 100
        return np.max(np.abs(traj.final().values - 1.0))

    assert ripple(0.95) <= 1e-9
    assert ripple(1.05) >= 1e3 * 1e-9


def test_cfl_steps_stay_below_the_stability_cap():
    # at cfl 0.5 the error control binds (31 of 32 steps at 0.94 of the cap)
    traj = _sine_cfl_run(cfl=0.4)
    assert traj.termination == "completed"
    assert traj.steps == len(traj.records) - 1
    grid = traj.snapshots[0].grid
    k_c = grid.k[grid.retained_bins("two_thirds") - 1]  # the edge of the retained band
    caps = [0.4 * RK4_IMAGINARY_LIMIT / (k_c * advection_speed_bound(u.values, CH))
            for u in traj.snapshots]
    ratios = [(b.t - a.t) / cap for a, b, cap in zip(traj.records, traj.records[1:], caps)]
    # t is a running sum, so a step read back from it carries round-off
    assert max(ratios) <= 1.0 + 1e-12
    assert sum(r > 1.0 - 1e-9 for r in ratios) > len(ratios) // 2  # the cap binds


def test_records_describe_the_snapshot_beside_them():
    traj = _sine_cfl_run()
    assert len(traj.records) == len(traj.snapshots) == traj.steps + 1
    for rec, snap in zip(traj.records, traj.snapshots):
        ux = derivative(snap).values
        slope = np.max(np.abs(ux))
        assert rec.sup_u == np.max(np.abs(snap.values))
        assert abs(rec.min_ux - np.min(ux)) <= 1e-12 * slope
        assert abs(rec.max_ux - np.max(ux)) <= 1e-12 * slope
        u_hat = np.fft.rfft(snap.values)
        assert rec.h1 == pytest.approx(sobolev_norm(snap.grid, u_hat, 1.0), rel=1e-12)
        assert rec.hs == pytest.approx(sobolev_norm(snap.grid, u_hat, 1.5), rel=1e-12)


def test_records_take_their_norms_from_the_carried_spectrum(monkeypatch):
    # h1 and hs are sobolev_norm of the carried spectrum itself
    seen = []

    def recorded(plan, w, row, s):
        rec = diagnose(plan, w, row, s)
        seen.append((w.copy(), s, rec))
        return rec

    diagnose = solver._diagnose
    monkeypatch.setattr(solver, "_diagnose", recorded)
    traj = _sine_cfl_run(t_end=0.2, sobolev_s=2.5)
    grid = traj.snapshots[0].grid
    assert len(seen) == len(traj.records) >= 3
    for w, s, rec in seen:
        assert s == 2.5
        assert rec.h1 == sobolev_norm(grid, w, 1.0)
        assert rec.hs == sobolev_norm(grid, w, 2.5)


def test_rejected_step_is_retried_from_the_same_state(monkeypatch):
    attempts = []
    fresh = LawsonRK4(Grid(512, 40.0), CH, "two_thirds")

    def recorded(plan, w, dt, t=0.0):
        # after an accepted and a rejected step alike, the plan describes the
        # state it steps: k1 is N(w, t) and work.values its samples (u, u_x)
        fresh.k1 = fresh.rate(w, t)
        assert np.array_equal(plan.k1, fresh.k1)
        assert np.array_equal(plan.work.values, fresh.work.values)
        attempts.append((t, dt, w.copy()))
        return step_rk4(plan, w, dt, t)

    monkeypatch.setattr(solver, "step_rk4", recorded)
    monkeypatch.setattr(solver, "STEP_TOLERANCE", 1e-13)
    traj = _sine_cfl_run(t_end=0.1)
    assert traj.termination == "completed"
    assert traj.records[-1].t == pytest.approx(0.1, abs=1e-12)
    retries = [(a, b) for a, b in zip(attempts, attempts[1:]) if a[0] == b[0]]
    assert len(retries) == traj.rejected_steps >= 1
    assert len(attempts) == traj.steps + traj.rejected_steps
    for (t, dt, w), (t_retry, dt_retry, w_retry) in retries:
        assert np.array_equal(w_retry, w)
        assert dt_retry < dt
    # every accepted step moved t forward and was recorded
    assert [r.t for r in traj.records[1:]] == sorted({r.t for r in traj.records[1:]})


def test_zero_field_reaches_t_end_in_cfl_mode():
    # zero speed: no stability cap, so the controller starts from cfl dx and
    # doubles the step while the estimate reads 0
    grid = Grid(64, 40.0)
    cfg = SimConfig(grid=grid, coefficients=normalize(model_coefficients(1.5)),
                    t_end=1.0, cfl=0.5)
    traj = integrate(cfg, Field(grid, np.zeros(grid.n)))
    assert traj.termination == "completed"
    assert [r.t for r in traj.records] == [0.0, 0.3125, 0.9375, 1.0]
    assert traj.rejected_steps == 0


def _small_cfl_attempts(monkeypatch, t_end, stride=1):
    """Attempted step sizes and the trajectory of a CH sine CFL run at n = 64."""
    grid = Grid(64, 40.0)
    u0 = Field(grid, -1.5 * np.sin(2 * np.pi * grid.x / 40.0))
    cfg = SimConfig(grid=grid, coefficients=CH, t_end=t_end, cfl=0.5, snapshot_stride=stride)
    attempts = []

    def recorded(plan, w, dt, t=0.0):
        attempts.append(dt)
        return step_rk4(plan, w, dt, t)

    with monkeypatch.context() as patch:  # undone on return: a later integrate steps unrecorded
        patch.setattr(solver, "step_rk4", recorded)
        return attempts, integrate(cfg, u0)


def test_cfl_step_below_the_floor_ends_the_run(monkeypatch):
    attempts, traj = _small_cfl_attempts(monkeypatch, 1.0)
    assert traj.termination == "completed"
    smallest = min(attempts[:-1])  # the last attempt is clipped to t_end
    first_small = attempts.index(smallest)
    monkeypatch.setattr(solver, "STEP_MIN_FRACTION", 1.000001 * smallest)
    attempts, traj = _small_cfl_attempts(monkeypatch, 1.0)
    assert traj.termination == "step_size_underflow"
    # the too-small step is never taken; the records up to it are kept
    assert len(attempts) == first_small
    assert traj.steps + traj.rejected_steps == first_small
    assert len(traj.records) == len(traj.snapshots) == traj.steps + 1
    assert traj.records[-1].t < 1.0


def test_step_floor_spares_the_clipped_last_step_and_refuses_a_smaller_fixed_dt(monkeypatch):
    attempts, traj = _small_cfl_attempts(monkeypatch, 1.0)
    smallest = min(attempts[:-1])
    # end just past a middle record: the last step, clipped to 1e-3 of the
    # smallest attempt, lies below the floor but the proposal before it does not
    t_end = traj.records[len(traj.records) // 2].t + 1e-3 * smallest
    monkeypatch.setattr(solver, "STEP_MIN_FRACTION", 0.5 * smallest / t_end)
    attempts, traj = _small_cfl_attempts(monkeypatch, t_end)
    assert traj.termination == "completed"
    assert attempts[-1] < 0.5 * smallest
    assert traj.records[-1].t == pytest.approx(t_end, abs=1e-15)
    # a fixed step below the same floor is a config error, one at it runs
    monkeypatch.setattr(solver, "STEP_MIN_FRACTION", 0.5)
    grid = Grid(64, 40.0)
    with pytest.raises(ValueError, match=r"dt must be >= STEP_MIN_FRACTION \* t_end = 0.05, got"):
        SimConfig(grid=grid, coefficients=CH, t_end=0.1, dt=0.04)
    cfg = SimConfig(grid=grid, coefficients=CH, t_end=0.1, dt=0.05)
    traj = integrate(cfg, Field(grid, np.sin(2 * np.pi * grid.x / 40.0)))
    assert traj.termination == "completed" and traj.steps == 2


def test_t_final_is_the_time_of_the_last_accepted_state(monkeypatch):
    # a completed run ends at t_end; a step-floor stop and a nonfinite stop end
    # at their last accepted state, which a stride of 7 leaves unrecorded
    grid = Grid(64, 40.0)
    u0 = Field(grid, 5.0 * np.sin(2 * np.pi * 5 * grid.x / 40.0))
    cfg = SimConfig(grid=grid, coefficients=normalize(model_coefficients(1.5)), t_end=50.0, dt=0.5)
    overflowed = [integrate(dataclasses.replace(cfg, snapshot_stride=stride), u0)
                  for stride in (1, 7)]
    # the raised floor below would refuse dt = 0.5 at t_end = 50
    attempts, done = _small_cfl_attempts(monkeypatch, 1.0)
    assert done.termination == "completed"
    assert done.t_final == pytest.approx(1.0, abs=1e-12)
    monkeypatch.setattr(solver, "STEP_MIN_FRACTION", 1.000001 * min(attempts[:-1]))
    floored = [_small_cfl_attempts(monkeypatch, 1.0, stride)[1] for stride in (1, 7)]
    for (dense, sparse), why, t_end in ((floored, "step_size_underflow", 1.0),
                                        (overflowed, "nonfinite", 50.0)):
        assert dense.termination == sparse.termination == why
        assert sparse.t_final == dense.t_final == dense.records[-1].t < t_end
        assert sparse.records[-1].t < sparse.t_final
    assert overflowed[0].t_final == 0.5


def test_readme_config_cfl_run_matches_a_fine_fixed_step():
    # the README run at cfl 0.5 against a fixed step of t_end/1000 (equal to
    # one of t_end/8000 within 6e-13); the error control holds the gap near
    # 2e-8, and a cap of cfl dx / (speed + 1) would leave 2e-6
    grid = Grid(256, 40.0)
    u0 = Field(grid, 0.25 / np.cosh(grid.x - 20.0) ** 2)
    cfg = SimConfig(grid=grid, coefficients=normalize(model_coefficients(1.5)),
                    t_end=1.0, cfl=0.5, snapshot_stride=10**9)
    adaptive = integrate(cfg, u0).final().values
    fine = integrate(dataclasses.replace(cfg, cfl=None, dt=1e-3), u0).final().values
    assert np.max(np.abs(adaptive - fine)) < 1e-7 * np.max(np.abs(fine))


def test_breaking_integral_squares_a_huge_finite_slope_without_overflow(monkeypatch):
    # a finite slope above 1.3e154 squares to inf, where float ** would raise;
    # no real step ends there (its last stage overflows), so a stand-in step
    # scales the state up and leaves the finite samples of the result
    def scaled(plan, w, dt, t=0.0):
        w = w * 1e155
        plan.k1 = plan.rate(w, t + dt)
        return w

    monkeypatch.setattr(solver, "step_rk4", scaled)
    grid = Grid(64, 40.0)
    cfg = SimConfig(grid=grid, coefficients=CH, t_end=0.1, dt=0.1)
    traj = integrate(cfg, Field(grid, np.sin(2 * np.pi * grid.x / 40.0)))
    assert traj.termination == "completed" and traj.steps == 1
    rec = traj.records[-1]
    assert abs(rec.min_ux) > 1.3e154 and math.isfinite(rec.min_ux)
    assert rec.breaking_integral == math.inf


def test_nonfinite_detection():
    # an absurd fixed step on steep data overflows; the trajectory is
    # truncated and flagged rather than raising
    grid = Grid(64, 40.0)
    g = normalize(model_coefficients(1.5))
    u0 = Field(grid, 5.0 * np.sin(2 * np.pi * 5 * grid.x / 40.0))
    cfg = SimConfig(grid=grid, coefficients=g, t_end=50.0, dt=1.0, snapshot_stride=1)
    with np.errstate(over="ignore", invalid="ignore"):
        traj = integrate(cfg, u0)
    assert traj.termination == "nonfinite"
    assert all(np.all(np.isfinite(s.values)) for s in traj.snapshots)


def test_overflow_ends_nonfinite_without_warnings():
    # steep data at A = 5 overflows in the priming rate; the termination is
    # the one report of it, no floating-point warning
    grid = Grid(64, 40.0)
    u0 = Field(grid, 30.0 * np.sin(2 * np.pi * grid.x / 40.0))
    cfg = SimConfig(grid=grid, coefficients=normalize(model_coefficients(5.0)),
                    t_end=1.0, dt=0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(cfg, u0)
    assert traj.termination == "nonfinite"
    assert traj.steps == 0 and len(traj.snapshots) == 1


def test_breaking_integral_is_nondecreasing_and_second_order():
    # the trapezoid runs over accepted steps, so the stride leaves the integral
    # bitwise unchanged; its error is second order in dt (ratio ~ 4)
    grid = Grid(512, 40.0)
    u0 = Field(grid, -1.5 * np.sin(2 * np.pi * grid.x / 40.0))
    cfg = SimConfig(grid=grid, coefficients=CH, t_end=1.5, dt=2.5e-3)
    finals = set()
    for stride in (1, 4, 8, 16):
        traj = integrate(dataclasses.replace(cfg, snapshot_stride=stride), u0)
        bi = [r.breaking_integral for r in traj.records]
        assert all(b2 >= b1 for b1, b2 in zip(bi, bi[1:]))
        finals.add(bi[-1])
    assert len(finals) == 1
    by_dt = [integrate(dataclasses.replace(cfg, dt=dt, snapshot_stride=10**9), u0)
             .records[-1].breaking_integral for dt in (1e-2, 5e-3, 2.5e-3, 1.25e-3)]
    diffs = [abs(a - b) for a, b in zip(by_dt, by_dt[1:])]
    assert by_dt[2] in finals
    assert all(d1 / d2 > 2.5 for d1, d2 in zip(diffs, diffs[1:]))


def test_breaking_stop_falls_on_the_same_step_at_any_stride():
    # the stop is tested after every accepted step: 56 steps at n = 256, a
    # step that strides 7 and 100 do not record, so the stop records it
    grid = Grid(256, 40.0)
    u0 = Field(grid, -1.5 * np.sin(2 * np.pi * grid.x / 40.0))
    stop = -6.0 * 1.5 * 2 * np.pi / 40.0
    cfg = SimConfig(grid=grid, coefficients=CH, t_end=14.0, cfl=0.3, breaking_stop=stop)
    runs = [integrate(dataclasses.replace(cfg, snapshot_stride=stride), u0)
            for stride in (1, 7, 100)]
    assert [len(traj.records) for traj in runs] == [57, 9, 2]
    for traj in runs:
        assert traj.termination == "breaking_detected"
        assert (traj.steps, traj.t_final) == (runs[0].steps, runs[0].t_final)
        assert traj.records[-1] == runs[0].records[-1]
        assert traj.records[-1].t == traj.t_final
        assert traj.records[-1].min_ux <= stop < traj.records[-2].min_ux
        assert np.array_equal(traj.final().values, runs[0].final().values)


def _breaking_run(a=1.5, n=1024, cfl=0.3):
    grid = Grid(n, 40.0)
    u0 = Field(grid, -a * np.sin(2 * np.pi * grid.x / 40.0))
    slope0 = a * 2 * np.pi / 40.0
    cfg = SimConfig(grid=grid, coefficients=CH, t_end=14.0, cfl=cfl,
                    snapshot_stride=10, breaking_stop=-12.0 * slope0)
    return integrate(cfg, u0)


def test_breaking_stop_is_located_at_the_crossing():
    # criterion 8 at three step sizes: the last step's time moves by 8e-3, the
    # crossing of the stop interpolated between the last two steps by 1e-5
    stop = -12.0 * 1.5 * 2 * np.pi / 40.0
    runs = [_breaking_run(n=n, cfl=cfl) for n, cfl in ((1024, 0.3), (2048, 0.15), (1024, 0.075))]
    crossings = np.array([breaking_crossing(traj.series, stop) for traj in runs])
    assert np.ptp(crossings[:, 0]) <= 2e-5
    assert np.ptp(crossings[:, 1]) <= 1e-3
    assert np.ptp([traj.t_final for traj in runs]) > 100 * np.ptp(crossings[:, 0])
    for traj, (t_stop, integral) in zip(runs, crossings):
        assert traj.termination == "breaking_detected"
        (t0, _, min0, _, integral0), (t1, _, min1, _, integral1) = traj.series[-2:]
        assert min1 <= stop < min0
        assert t0 < t_stop <= t1 == traj.t_final
        assert integral0 < integral <= integral1


def test_breaking_signature_detected():
    traj = _breaking_run()
    assert traj.termination == "breaking_detected"
    records = traj.records
    assert breaking_monitor(records) == "breaking_signature"
    worst = min(r.min_ux for r in records)
    assert worst <= 10.0 * records[0].min_ux
    drift = max(abs(r.sup_u - records[0].sup_u) for r in records) / records[0].sup_u
    assert drift < 0.10


def test_no_breaking_evidence_on_linear_run():
    g_lin = linear_subcase(normalize(model_coefficients(1.5)))
    grid = Grid(128, 40.0)
    u0 = Field(grid, 0.3 * np.sin(2 * np.pi * grid.x / 40.0))
    cfg = SimConfig(grid=grid, coefficients=g_lin, t_end=2.0, dt=2e-3, snapshot_stride=20)
    traj = integrate(cfg, u0)
    assert breaking_monitor(traj.records) == "no_breaking_evidence"


def _small_breaking_run(stride):
    # the criterion-8 setup at n = 64: the smallest grid whose stride-1 series
    # shows the breaking signature; it stops after 85 steps
    grid = Grid(64, 40.0)
    u0 = Field(grid, -1.5 * np.sin(2 * np.pi * grid.x / 40.0))
    slope0 = 1.5 * 2 * np.pi / 40.0
    cfg = SimConfig(grid=grid, coefficients=CH, t_end=14.0, cfl=0.3,
                    snapshot_stride=stride, breaking_stop=-12.0 * slope0)
    return integrate(cfg, u0)


def _quiet_linear_run(stride):
    g_lin = linear_subcase(normalize(model_coefficients(1.5)))
    grid = Grid(128, 40.0)
    u0 = Field(grid, 0.3 * np.sin(2 * np.pi * grid.x / 40.0))
    cfg = SimConfig(grid=grid, coefficients=g_lin, t_end=2.0, dt=2e-3, snapshot_stride=stride)
    return integrate(cfg, u0)


def _record_list_monitor(records):
    """The record-list form of the ``breaking_monitor`` rule, the reference
    for its column form."""
    if len(records) < 5:
        return "no_breaking_evidence"
    t0, t_final = records[0].t, records[-1].t
    if not t_final > t0:
        return "no_breaking_evidence"
    t_split = t0 + 0.8 * (t_final - t0)
    head = [r for r in records if r.t <= t_split]
    tail = [r for r in records if r.t >= t_split]
    if len(head) < 2 or len(tail) < 2:
        return "no_breaking_evidence"
    g, g_split = records[-1].breaking_integral, head[-1].breaking_integral
    rate_head = (g_split - records[0].breaking_integral) / max(head[-1].t - t0, 1e-300)
    rate_tail = (g - tail[0].breaking_integral) / max(t_final - tail[0].t, 1e-300)
    superlinear = rate_tail >= 2.0 * rate_head and rate_tail > 0
    base_slope = records[0].min_ux
    slope_blowup = base_slope < 0 and min(r.min_ux for r in records) <= 10.0 * base_slope
    base_amp = records[0].sup_u
    if base_amp > 0:
        amp_drift = max(abs(r.sup_u - base_amp) for r in records) / base_amp
    else:
        amp_drift = max(r.sup_u for r in records)
    if superlinear and slope_blowup and amp_drift < 0.10:
        return "breaking_signature"
    return "no_breaking_evidence"


def test_breaking_verdict_reads_every_accepted_step_at_any_stride():
    # the series has a row per accepted step whatever the stride, so its
    # verdict is the same at every stride; 2 records at strides 100 and 300
    # are too few for the record-list verdict
    runs = [_small_breaking_run(stride) for stride in (1, 7, 100, 300)]
    assert [len(traj.records) for traj in runs] == [86, 14, 2, 2]
    for traj in runs:
        assert traj.termination == "breaking_detected"
        assert np.array_equal(traj.series, runs[0].series)
        assert breaking_monitor(traj.series) == "breaking_signature"
    assert breaking_monitor(runs[2].records) == "no_breaking_evidence"


def test_records_copy_their_series_row():
    traj = _small_breaking_run(1)
    assert len(traj.records) == len(traj.series) == traj.steps + 1
    for rec, row in zip(traj.records, traj.series):
        assert (rec.t, rec.sup_u, rec.min_ux, rec.max_ux, rec.breaking_integral) == tuple(row)


def test_series_has_a_row_per_accepted_state_on_every_stop(monkeypatch):
    # a 1,000-step run, and a step floor and an
    # overflow end the run between strides
    completed = [_quiet_linear_run(stride) for stride in (1, 7)]
    grid = Grid(64, 40.0)
    u0 = Field(grid, 5.0 * np.sin(2 * np.pi * 5 * grid.x / 40.0))
    cfg = SimConfig(grid=grid, coefficients=normalize(model_coefficients(1.5)), t_end=50.0, dt=0.5)
    overflowed = [integrate(dataclasses.replace(cfg, snapshot_stride=stride), u0)
                  for stride in (1, 7)]
    # the raised floor below would refuse dt = 0.5 at t_end = 50
    attempts, _ = _small_cfl_attempts(monkeypatch, 1.0)
    monkeypatch.setattr(solver, "STEP_MIN_FRACTION", 1.000001 * min(attempts[:-1]))
    floored = [_small_cfl_attempts(monkeypatch, 1.0, stride)[1] for stride in (1, 7)]
    assert completed[0].steps == 1000
    for (dense, sparse), why in ((completed, "completed"), (floored, "step_size_underflow"),
                                 (overflowed, "nonfinite")):
        assert dense.termination == sparse.termination == why
        assert dense.series.shape == (dense.steps + 1, 5)
        assert np.array_equal(sparse.series, dense.series)
        assert dense.series[-1, 0] == dense.t_final
        assert np.all(np.diff(dense.series[:, 0]) > 0)


def test_series_memory_per_accepted_step_is_bounded():
    # the series is 40 B of floats per accepted state plus its array's slack:
    # about 47 B a step here; a buffer that doubles by copying peaks near
    # 160 B, and a list of row tuples near 280 B
    grid = Grid(16, 40.0)
    u0 = Field(grid, 0.1 * np.sin(2 * np.pi * grid.x / 40.0))
    steps, dt = 2048, 2.0**-10  # exact in binary, so t reaches t_end on the last step
    cfg = SimConfig(grid=grid, coefficients=CH, t_end=steps * dt, dt=dt, snapshot_stride=10**9)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        traj = integrate(cfg, u0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.steps == steps and len(traj.records) == 2
    assert peak - base <= 100 * steps


@pytest.mark.parametrize("step, t_final", [({"dt": 0.01}, 0.01), ({"cfl": 0.5}, 0.0332)])
def test_breaking_stop_takes_effect_after_the_first_step(step, t_final):
    # the initial state already lies past the stop, which the run heeds from
    # its first accepted step on: one step, then the stop, two records
    grid = Grid(64, 40.0)
    u0 = Field(grid, -1.5 * np.sin(2 * np.pi * grid.x / 40.0))
    cfg = SimConfig(grid=grid, coefficients=CH, t_end=1.0, breaking_stop=-0.1, **step)
    traj = integrate(cfg, u0)
    assert traj.records[0].min_ux <= cfg.breaking_stop
    assert traj.termination == "breaking_detected"
    assert traj.steps == 1 and len(traj.records) == len(traj.series) == 2
    assert traj.t_final == pytest.approx(t_final, abs=1e-4)


def test_breaking_monitor_reads_series_and_records_alike():
    # at stride 1 the records hold the series' columns; every prefix of the
    # breaking run, and the quiet run, get the record-list rule's verdict
    breaking, quiet = _small_breaking_run(1), _quiet_linear_run(1)
    assert breaking_monitor(breaking.series) == "breaking_signature"
    assert breaking_monitor(quiet.series) == "no_breaking_evidence"
    verdicts = set()
    prefixes = [(breaking, k) for k in range(len(breaking.records) + 1)]
    for traj, k in [(quiet, len(quiet.records))] + prefixes:
        verdict = _record_list_monitor(traj.records[:k])
        assert breaking_monitor(traj.series[:k]) == breaking_monitor(traj.records[:k]) == verdict
        verdicts.add(verdict)
    assert verdicts == {"breaking_signature", "no_breaking_evidence"}


def test_diagnostics_csv_header():
    assert DIAGNOSTICS_HEADER == "t,sup_u,min_ux,max_ux,h1,hs,breaking_integral,ch_energy"
    grid = Grid(64, 40.0)
    g = normalize(model_coefficients(1.5))
    cfg = SimConfig(grid=grid, coefficients=g, t_end=0.1, dt=1e-2)
    traj = integrate(cfg, Field(grid, np.zeros(grid.n)))
    lines = traj.diagnostics_csv().splitlines()
    assert lines[0] == DIAGNOSTICS_HEADER
    assert len(lines) == len(traj.records) + 1
