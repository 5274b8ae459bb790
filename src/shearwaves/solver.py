"""Time integration of the nonlocal Cauchy problem with diagnostics.

Lawson's integrating-factor RK4 (J. D. Lawson 1967, SIAM J. Numer. Anal.
4:372) on the rfft half-spectrum.  The linear shear drift is the diagonal,
purely imaginary symbol L(k) = ik (beta1/(1+k^2) - alpha1), which the factor
exp(L dt) advances exactly; RK4 integrates the nonlinear rate only.  The
smoothing operator caps the nonlinear dispersive multipliers at linear growth
in |k|, so the stability cap of a CFL step needs only the nonlinear advection:
its eigenvalues on the retained band reach i k_c speed, with k_c the band's
highest wavenumber and speed = max|alpha2 u + alpha3 u^2|, and RK4 is stable
on the imaginary axis up to |z| = 2 sqrt(2) (Hairer & Wanner, Solving ODEs
II, IV.2), so dt <= cfl 2 sqrt(2) / (k_c speed).  Below the cap the step
follows the embedded RK4(3) estimate of the interaction picture (Balac & Mahe
2013, Comput. Phys. Commun. 184:1211) under the standard controller (Hairer,
Norsett & Wanner, Solving ODEs I, II.4).

The state is carried as the m bins of the half-spectrum that the dealias
policy retains, so every state lies in the dealiased band by construction.
A ``LawsonRK4`` plan holds what stays fixed over a run (m, the symbol and the
rate's workspace); ``step_rk4`` is the four stage formulas and returns the
next state.  A primed plan describes the state w at t: ``plan.k1`` is
N(w, t), the next step's first stage ("first same as last", FSAL) and the
estimate's fifth, and ``plan.work.values`` holds its samples (u, u_x).

Diagnostics track the wave-breaking criterion: the time integral of the
squared sup-norm of the slope, a trapezoid sum over the accepted steps, stays
finite exactly while the solution persists.  ``accept()`` in ``integrate``
gives each accepted state a row of ``Trajectory.series`` (t, sup_u, min_ux,
max_ux, breaking_integral) for the stop, records and monitor.  The monitor looks
for the finite-time signature (slope blow-up at bounded amplitude); a
simulation can only ever exhibit the signature, not prove blow-up.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field as dataclass_field, fields, replace

import numpy as np

from .coeffs import GeneralCoefficients
from .forms import RateWorkspace, rate_hat, rhs_nonlocal
from .spectral import Field, Grid, sobolev_norm

__all__ = [
    "SimConfig",
    "DiagnosticsRecord",
    "Trajectory",
    "LawsonRK4",
    "step_rk4",
    "integrate",
    "breaking_monitor",
    "breaking_crossing",
    "manufactured_forcing",
    "DIAGNOSTICS_HEADER",
]

@dataclass
class SimConfig:
    """Run description: grid, coefficients, stepping and output cadence.

    Exactly one of ``dt`` (fixed step, at least ``STEP_MIN_FRACTION`` t_end)
    or ``cfl`` must be set.  ``cfl`` in (0, 1] is the fraction of RK4's
    stability limit 2 sqrt(2) / (k_c speed) on the retained band, k_c its
    highest wavenumber: each step is the smaller of that cap and the
    error-controlled proposal, see ``integrate``.  ``forcing`` is an
    optional callable (t, x_array) -> array added to the right-hand side,
    used by the manufactured-solution harness.
    ``breaking_stop`` ends the run at the first step with min u_x <= it (< 0;
    min u_x <= 0 always).  ``sobolev_s`` must keep the largest weight
    (1 + k_max^2)^s of the hs norm finite.
    """

    grid: Grid
    coefficients: GeneralCoefficients
    t_end: float
    dt: float | None = None
    cfl: float | None = None
    dealias_policy: str | None = "two_thirds"
    snapshot_stride: int = 1
    forcing: object = None
    breaking_stop: float | None = None
    sobolev_s: float = 1.5

    def __post_init__(self):
        if (self.dt is None) == (self.cfl is None):
            raise ValueError("exactly one of dt / cfl must be specified")
        if self.dt is not None and not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.cfl is not None and not 0 < self.cfl <= 1:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if not 0 < self.t_end < math.inf:
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if self.dt is not None and self.dt < STEP_MIN_FRACTION * self.t_end:
            raise ValueError(f"dt must be >= STEP_MIN_FRACTION * t_end = "
                             f"{STEP_MIN_FRACTION * self.t_end:g}, got {self.dt}")
        if isinstance(self.snapshot_stride, bool) or not isinstance(self.snapshot_stride, int):
            raise ValueError(f"snapshot_stride must be an int, got {self.snapshot_stride!r}")
        if self.snapshot_stride < 1:
            raise ValueError(f"snapshot_stride must be >= 1, got {self.snapshot_stride}")
        if self.breaking_stop is not None and not self.breaking_stop < 0:
            raise ValueError(f"breaking_stop must be negative, got {self.breaking_stop}")
        if self.breaking_stop == -math.inf:
            raise ValueError("breaking_stop must be finite, got -inf")
        if not -math.inf < self.sobolev_s < math.inf:
            raise ValueError(f"sobolev_s must be finite, got {self.sobolev_s}")
        try:  # the largest weight of the hs norm; float ** raises on overflow
            (1.0 + self.grid.k_max**2) ** self.sobolev_s
        except OverflowError:
            raise ValueError(f"sobolev_s = {self.sobolev_s} overflows the weight (1 + k_max^2)^s "
                             f"at k_max = {self.grid.k_max:g}") from None
        self.grid.retained_bins(self.dealias_policy)


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    sup_u: float
    min_ux: float
    max_ux: float
    h1: float
    hs: float
    breaking_integral: float
    ch_energy: float

    def csv_row(self) -> str:
        return ",".join(f"{value:.17g}" for value in vars(self).values())  # in field order


DIAGNOSTICS_HEADER = ",".join(f.name for f in fields(DiagnosticsRecord))


@dataclass
class Trajectory:
    snapshots: list = dataclass_field(default_factory=list)
    records: list = dataclass_field(default_factory=list)
    series: np.ndarray = None  # a row per accepted state: t, sup_u, min/max u_x, breaking integral
    termination: str = "completed"
    t_final: float = 0.0  # time of the last accepted state, whatever ended the run
    steps: int = 0
    rejected_steps: int = 0

    def final(self) -> Field:
        return self.snapshots[-1]

    def diagnostics_csv(self) -> str:
        lines = [DIAGNOSTICS_HEADER]
        lines.extend(rec.csv_row() for rec in self.records)
        return "\n".join(lines) + "\n"


class LawsonRK4:
    """The fixed parts of Lawson RK4 steps on one grid, built once per run.

    Holds the number m of retained bins of the dealias policy (the carried
    state is the rfft half-spectrum truncated to them), the linear symbol
    L = beta1 ik/(1+k^2) - alpha1 ik on those bins, the coefficients with
    alpha1 = beta1 = 0 for the nonlinear rate, the ``rate_hat`` workspace and
    the last step's first and last stage rates k1 and k4, NaN until a rate
    primes k1.  ``forcing`` (t, x) -> array, if given, is added to the rate;
    its spectrum at a step's end time is kept for the next step starting there.
    """

    def __init__(self, grid: Grid, g: GeneralCoefficients, dealias_policy: str | None = None,
                 forcing=None):
        self.grid = grid
        self.m = m = grid.retained_bins(dealias_policy)
        self.linear = g.beta1 * grid.mult_helmholtz_dx[:m] - g.alpha1 * grid.mult_dx[:m]
        self.g_nonlinear = replace(g, alpha1=0.0, beta1=0.0)
        self.forcing = forcing
        self.work = RateWorkspace(grid.n, m)
        self.k1 = self.k4 = np.full(m, np.nan, dtype=complex)
        self._forcing_at = (None, None)

    def forcing_hat(self, t: float):
        """Retained spectrum of the forcing at t; the last one is reused."""
        time, f_hat = self._forcing_at
        if time != t:
            f_hat = np.fft.rfft(self.forcing(t, self.grid.x))[:self.m]
            self._forcing_at = (t, f_hat)
        return f_hat

    def rate(self, w: np.ndarray, t: float) -> np.ndarray:
        """Nonlinear rate of the retained spectrum w, plus the forcing at t."""
        rate = rate_hat(w, self.grid, self.g_nonlinear, self.m, self.work)
        if self.forcing is not None:
            rate += self.forcing_hat(t)
        return rate

    def error(self, w: np.ndarray, dt: float) -> float:
        """Embedded RK4(3) estimate of the last step's error relative to its
        result w, (|dt|/10) ||k4 - k1||_2 / ||w||_2 with k1 = N(w): the
        third-order weights of k4 and N(w) are 1/15 and 1/10, RK4's 1/6 and 0."""
        d = self.k4 - self.k1
        gap = np.vdot(d, d).real
        if gap == 0.0:
            return 0.0
        size = np.vdot(w, w).real
        return abs(dt) / 10.0 * math.sqrt(gap / size) if size > 0.0 else math.inf


def step_rk4(plan: LawsonRK4, w: np.ndarray, dt: float, t: float = 0.0) -> np.ndarray:
    """One Lawson integrating-factor RK4 step of the retained half-spectrum w
    from t to t + dt; negative dt integrates backwards.

    With E = exp(L dt/2) and N the nonlinear rate (forcing included, taken
    once at each of t, t + dt/2 and t + dt), the stages are classical RK4 on
    exp(-L t) w, so the linear drift is exact at any dt.  Precondition:
    ``plan.k1`` holds N(w, t), as the last step or ``plan.k1 = plan.rate(w,
    t)`` leaves it.  Returns the new state w_new and leaves w untouched; the
    step sets ``plan.k4`` to its k4 and ``plan.k1`` to N(w_new, t + dt), whose
    samples stay in ``plan.work``: 8 transform calls per unforced step.
    """
    half = 0.5 * dt
    e_half = np.exp(half * plan.linear)
    e_full = e_half * e_half
    k1 = plan.k1
    k2 = plan.rate(e_half * (w + half * k1), t + half)
    k3 = plan.rate(e_half * w + half * k2, t + half)
    k4 = plan.rate(e_full * w + dt * (e_half * k3), t + dt)
    w_new = e_full * (w + dt / 6.0 * k1) + dt / 3.0 * (e_half * (k2 + k3)) + dt / 6.0 * k4
    plan.k4 = k4
    plan.k1 = plan.rate(w_new, t + dt)
    return w_new


def advection_speed_bound(v: np.ndarray, g: GeneralCoefficients) -> float:
    """CFL speed max|alpha2 v + alpha3 v^2| of the samples v; alpha1 is part
    of the linear drift, which the step advances exactly."""
    return float(np.max(np.abs(g.alpha2 * v + g.alpha3 * v * v)))


def _diagnose(plan: LawsonRK4, w: np.ndarray, row: tuple, s: float) -> DiagnosticsRecord:
    """Record of w from its series row and the samples (u, u_x) in ``plan.work``."""
    grid = plan.grid
    u, ux = plan.work.values
    t, sup_u, min_ux, max_ux, integral = row
    return DiagnosticsRecord(t, sup_u, min_ux, max_ux, h1=sobolev_norm(grid, w, 1.0),
                             hs=sobolev_norm(grid, w, s), breaking_integral=integral,
                             ch_energy=float(grid.dx * np.sum(u**2 + ux**2)))


RK4_IMAGINARY_LIMIT = 2 * math.sqrt(2)  # RK4 is stable on the imaginary axis up to |z| = it

# error control of CFL steps (see ``integrate``)
STEP_TOLERANCE = 1e-8
STEP_MIN_FRACTION = 1e-6  # floor of a step as a share of t_end: fixed dt below it is refused
STEP_SAFETY = 0.9
STEP_FACTOR_MIN = 0.2
STEP_FACTOR_MAX = 2.0


def _step_factor(err: float) -> float:
    """Ratio of the next step size to the last: 0.9 (tol/err)^(1/4) clamped
    to [0.2, 2]; a non-finite estimate takes the smallest factor."""
    if err == 0.0:
        return STEP_FACTOR_MAX
    factor = STEP_SAFETY * (STEP_TOLERANCE / err) ** 0.25
    return min(factor, STEP_FACTOR_MAX) if factor > STEP_FACTOR_MIN else STEP_FACTOR_MIN


@np.errstate(over="ignore", invalid="ignore")
def integrate(cfg: SimConfig, u0: Field) -> Trajectory:
    """Advance u0 to t_end, or stop early on a breaking threshold, loss of
    finiteness or a step too small to reach t_end.  An overflow raises no
    floating-point warning: ``termination = "nonfinite"`` is its one report.

    One ``LawsonRK4`` plan serves the whole run, carrying the retained
    half-spectrum: one rfft of u0 and one rate evaluation, then 8 transform
    calls per attempted step, whose last rate evaluation also gives the
    samples (u, u_x) that the CFL bound, the finiteness check and the series
    row read; records take no transform, and every snapshot is irfft(w).

    ``accept()`` is all that happens to an accepted state, the one at t = 0
    included: it appends the series row with its trapezoid term of the
    breaking integral, tests the breaking stop (the run ignores it at t = 0),
    records at t = 0, every ``snapshot_stride`` steps, at t_end and at the
    stop, and sets a CFL run's stability cap for the next step.

    A CFL step is the smaller of the stability cap at the state it starts
    from, cfl ``RK4_IMAGINARY_LIMIT`` / (k_c speed) with the band edge
    k_c = ``grid.k[m - 1]`` and the state's ``advection_speed_bound``, and
    the last step size times ``_step_factor`` of its error estimate (at
    first the cap, or cfl dx at zero speed).  A step past
    ``STEP_TOLERANCE`` is retried smaller from the state it started from, k1
    re-primed.
    A step below ``STEP_MIN_FRACTION`` t_end, the clip to t_end aside, ends
    the run with ``termination = "step_size_underflow"`` (Hairer, Norsett &
    Wanner's "step size too small" exit): a solution that leaves the grid's
    resolution would otherwise drive the step towards zero without end."""
    if u0.grid != cfg.grid:
        raise ValueError("initial data grid does not match the configured grid")
    g, grid = cfg.coefficients, cfg.grid
    plan = LawsonRK4(grid, g, cfg.dealias_policy, cfg.forcing)
    w = np.fft.rfft(u0.single_values("integrate"))[:plan.m]
    plan.k1 = plan.rate(w, 0.0)
    values, slopes = plan.work.values
    t, tiny, cap = 0.0, 1e-12 * cfg.t_end, math.inf
    k_c = float(grid.k[plan.m - 1])  # the retained band's edge
    traj = Trajectory()
    series = array("d")  # flat rows (t, sup_u, min_ux, max_ux, breaking_integral)

    def accept():  # the accepted state w at t; returns whether it passed the stop
        nonlocal cap
        min_ux, max_ux = float(slopes.min()), float(slopes.max())
        integral = 0.0
        if series:
            t_prev, _, min_prev, max_prev, integral = series[-5:]
            slope_prev, slope = max(abs(min_prev), abs(max_prev)), max(abs(min_ux), abs(max_ux))
            # float ** raises OverflowError past about 1.3e154; * gives inf
            integral += 0.5 * (t - t_prev) * (slope_prev * slope_prev + slope * slope)
        row = (t, float(np.abs(values).max()), min_ux, max_ux, integral)
        series.extend(row)
        stop = cfg.breaking_stop is not None and min_ux <= cfg.breaking_stop
        if stop or traj.steps % cfg.snapshot_stride == 0 or t >= cfg.t_end - tiny:
            traj.records.append(_diagnose(plan, w, row, cfg.sobolev_s))
            traj.snapshots.append(Field(grid, values.copy()))
        if cfg.cfl is not None:
            speed = advection_speed_bound(values, g)
            cap = cfg.cfl * RK4_IMAGINARY_LIMIT / (k_c * speed) if speed > 0 else math.inf
        return stop

    accept()  # the run ignores the stop at t = 0
    if cfg.cfl is not None:
        proposal = cap if cap < math.inf else cfg.cfl * grid.dx
    while t < cfg.t_end - tiny:
        dt = cfg.dt if cfg.dt is not None else min(proposal, cap)
        if dt < STEP_MIN_FRACTION * cfg.t_end:  # before the clip to t_end
            traj.termination = "step_size_underflow"
            break
        dt = min(dt, cfg.t_end - t)
        w_start, w = w, step_rk4(plan, w, dt, t)
        if not np.all(np.isfinite(values)):
            traj.termination = "nonfinite"
            break
        if cfg.cfl is not None:
            err = plan.error(w, dt)
            proposal = dt * _step_factor(err)
            if not err <= STEP_TOLERANCE:
                w = w_start
                plan.k1 = plan.rate(w, t)
                traj.rejected_steps += 1
                continue
        t += dt
        traj.steps += 1
        if accept():
            traj.termination = "breaking_detected"
            break
    traj.t_final = t
    traj.series = np.frombuffer(series).reshape(-1, 5)
    return traj


def breaking_crossing(series: np.ndarray, stop: float) -> tuple[float, float]:
    """Time and breaking integral at which min u_x crosses ``stop`` between
    the last two rows of the series of a run that ended on that breaking stop:
    min u_x interpolated linearly in t (event location by dense output,
    Hairer, Norsett & Wanner, Solving ODEs I, II.6), the integral at the same
    fraction of the step.  A crossing at or before the earlier row (the stop
    is not tested at t = 0) is placed at that row."""
    (t0, _, min0, _, integral0), (t1, _, min1, _, integral1) = series[-2:].tolist()
    theta = (min0 - stop) / (min0 - min1) if min0 > stop else 0.0
    return t0 + theta * (t1 - t0), integral0 + theta * (integral1 - integral0)


# thresholds of the breaking signature (see ``breaking_monitor``)
SLOPE_GROWTH = 10.0
AMPLITUDE_CHANGE = 0.10
SUPERLINEAR_FACTOR = 2.0


def breaking_monitor(series) -> str:
    """Classify a diagnostics series, ``Trajectory.series`` or a list of
    ``DiagnosticsRecord`` read as its columns, as ``breaking_signature`` or
    ``no_breaking_evidence``.

    The signature requires jointly: (a) the breaking integral grows at least
    ``SUPERLINEAR_FACTOR`` times faster over the final fifth of the series'
    time than before it, (b) min u_x fell by at least ``SLOPE_GROWTH`` from
    its initial value, (c) the amplitude changed by less than
    ``AMPLITUDE_CHANGE`` relative.  The verdict is evidence, not a proof of
    blow-up.
    """
    if not isinstance(series, np.ndarray):
        series = np.array([(r.t, r.sup_u, r.min_ux, r.max_ux, r.breaking_integral) for r in series])
    if len(series) < 5:
        return "no_breaking_evidence"
    t, sup_u, min_ux, _, integral = series.T
    if not t[-1] > t[0]:
        return "no_breaking_evidence"

    t_split = t[0] + 0.8 * (t[-1] - t[0])
    head = np.searchsorted(t, t_split, side="right")  # rows [:head] have t <= t_split
    tail = np.searchsorted(t, t_split, side="left")  # rows [tail:] have t >= t_split
    if head < 2 or len(t) - tail < 2:
        return "no_breaking_evidence"
    rate_head = (integral[head - 1] - integral[0]) / max(t[head - 1] - t[0], 1e-300)
    rate_tail = (integral[-1] - integral[tail]) / max(t[-1] - t[tail], 1e-300)
    superlinear = rate_tail >= SUPERLINEAR_FACTOR * rate_head and rate_tail > 0

    slope_blowup = min_ux[0] < 0 and min_ux.min() <= SLOPE_GROWTH * min_ux[0]

    base_amp = sup_u[0]
    amp_drift = np.max(np.abs(sup_u - base_amp)) / base_amp if base_amp > 0 else sup_u.max()
    amplitude_bounded = amp_drift < AMPLITUDE_CHANGE

    if superlinear and slope_blowup and amplitude_bounded:
        return "breaking_signature"
    return "no_breaking_evidence"


def manufactured_forcing(grid: Grid, g: GeneralCoefficients, u_exact, u_exact_t,
                         dealias_policy: str | None = None):
    """Forcing that makes ``u_exact`` solve the semi-discrete system exactly:
    f(t, x) = du*/dt - rhs(u*(t, .))."""

    def forcing(t, x):
        state = Field(grid, u_exact(t, grid.x))
        return u_exact_t(t, grid.x) - rhs_nonlocal(state, g, dealias_policy).values

    return forcing
