"""Time integration of the nonlocal Cauchy problem with diagnostics.

Lawson's integrating-factor RK4 (J. D. Lawson 1967, SIAM J. Numer. Anal.
4:372) on the rfft half-spectrum.  The linear shear drift is the diagonal,
purely imaginary symbol L(k) = ik (beta1/(1+k^2) - alpha1), which the factor
exp(L dt) advances exactly; RK4 integrates the nonlinear rate only.  The
smoothing operator caps the nonlinear dispersive multipliers at linear growth
in |k|, so the CFL bound needs only the nonlinear advection speed,
max|alpha2 u + alpha3 u^2| + 1.  Each accepted state is projected onto the
dealiased band of the configured policy.

Diagnostics track the wave-breaking criterion: the time integral of the
squared sup-norm of the slope, accumulated with the trapezoid rule, stays
finite exactly while the solution persists.  ``breaking_monitor`` looks for
the finite-time signature (slope blow-up at bounded amplitude); a simulation
can only ever exhibit the signature, not prove blow-up.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

from .coeffs import GeneralCoefficients
from .forms import rate_hat, rhs_nonlocal
from .spectral import Field, Grid, dealias, derivative, sobolev_norm

__all__ = [
    "SimConfig",
    "DiagnosticsRecord",
    "Trajectory",
    "step_rk4",
    "integrate",
    "breaking_monitor",
    "manufactured_forcing",
    "DIAGNOSTICS_HEADER",
]

DIAGNOSTICS_HEADER = "t,sup_u,min_ux,max_ux,h1,hs,breaking_integral,ch_energy"


@dataclass
class SimConfig:
    """Run description: grid, coefficients, stepping and output cadence.

    Exactly one of ``dt`` (fixed step) or ``cfl`` (Courant number in (0, 1],
    step recomputed from the advection speed) must be set.  ``forcing`` is an
    optional callable (t, x_array) -> array added to the right-hand side,
    used by the manufactured-solution harness.  ``breaking_stop`` stops the
    run once min u_x falls to or below the given value (< 0; min u_x <= 0 always).
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
        if self.dt is not None and not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.cfl is not None and not 0 < self.cfl <= 1:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if not self.t_end > 0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if self.snapshot_stride < 1:
            raise ValueError(f"snapshot_stride must be >= 1, got {self.snapshot_stride}")
        if self.breaking_stop is not None and not self.breaking_stop < 0:
            raise ValueError(f"breaking_stop must be negative, got {self.breaking_stop}")


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
        return ",".join(f"{getattr(self, name):.17g}"
                        for name in DIAGNOSTICS_HEADER.split(","))


@dataclass
class Trajectory:
    snapshots: list = dataclass_field(default_factory=list)
    records: list = dataclass_field(default_factory=list)
    termination: str = "completed"

    def final(self) -> Field:
        return self.snapshots[-1]

    def diagnostics_csv(self) -> str:
        lines = [DIAGNOSTICS_HEADER]
        lines.extend(rec.csv_row() for rec in self.records)
        return "\n".join(lines) + "\n"


def step_rk4(u: Field, dt: float, g: GeneralCoefficients, forcing=None,
             t: float = 0.0, dealias_policy: str | None = None) -> Field:
    """One Lawson integrating-factor RK4 step; negative dt integrates backwards.

    The state is the rfft half-spectrum w.  With E = exp(mask L dt/2) and N the
    nonlinear rate (``rate_hat`` with alpha1 = beta1 = 0, plus the forcing, taken
    once at each of t, t + dt/2 and t + dt), the stages are classical RK4 on
    exp(-L t) w, so the linear drift is exact at any dt: 10 transform calls per
    unforced step.  Modes outside the dealias mask see E = 1; the result is masked.
    """
    grid = u.grid
    mask = grid.dealias_mask(dealias_policy)
    linear = g.beta1 * grid.mult_helmholtz_dx - g.alpha1 * grid.mult_dx
    e_half = np.exp((0.5 * dt) * (mask * linear))
    e_full = e_half * e_half
    g_nonlinear = replace(g, alpha1=0.0, beta1=0.0)
    half = 0.5 * dt
    f0, f_half, f1 = ([None] * 3 if forcing is None else
                      [np.fft.rfft(forcing(time, grid.x)) for time in (t, t + half, t + dt)])

    def rate(w, f_hat):
        out = rate_hat(w, grid, g_nonlinear, mask)
        return out if f_hat is None else out + f_hat

    w = np.fft.rfft(u.values)
    k1 = rate(w, f0)
    k2 = rate(e_half * (w + half * k1), f_half)
    k3 = rate(e_half * w + half * k2, f_half)
    k4 = rate(e_full * w + dt * (e_half * k3), f1)
    w_next = (e_full * (w + (dt / 6.0) * k1) + (dt / 3.0) * (e_half * (k2 + k3))
              + (dt / 6.0) * k4)
    return Field(grid, np.fft.irfft(mask * w_next, grid.n))


def advection_speed_bound(u: Field, g: GeneralCoefficients) -> float:
    """CFL speed max|alpha2 u + alpha3 u^2|; alpha1 is part of the linear
    drift, which the step advances exactly."""
    v = u.values
    return float(np.max(np.abs(g.alpha2 * v + g.alpha3 * v * v)))


def _diagnose(u: Field, t: float, s: float, prev: DiagnosticsRecord | None) -> DiagnosticsRecord:
    ux = derivative(u).values
    slope_sup = float(np.max(np.abs(ux)))
    integral = 0.0 if prev is None else prev.breaking_integral
    if prev is not None:
        prev_slope = max(abs(prev.min_ux), abs(prev.max_ux))
        integral += 0.5 * (t - prev.t) * (prev_slope**2 + slope_sup**2)
    return DiagnosticsRecord(
        t=t,
        sup_u=float(np.max(np.abs(u.values))),
        min_ux=float(np.min(ux)),
        max_ux=float(np.max(ux)),
        h1=sobolev_norm(u, 1.0),
        hs=sobolev_norm(u, s),
        breaking_integral=integral,
        ch_energy=float(u.grid.dx * np.sum(u.values**2 + ux**2)),
    )


def integrate(cfg: SimConfig, u0: Field) -> Trajectory:
    """Advance u0 to t_end, or stop early on a breaking threshold or loss of
    finiteness.  Diagnostics and snapshots every ``snapshot_stride`` steps."""
    if u0.grid != cfg.grid:
        raise ValueError("initial data grid does not match the configured grid")
    g = cfg.coefficients
    u = u0 if cfg.dealias_policy is None else dealias(u0, cfg.dealias_policy)
    t = 0.0
    traj = Trajectory()

    def record(state, time):
        prev = traj.records[-1] if traj.records else None
        rec = _diagnose(state, time, cfg.sobolev_s, prev)
        traj.records.append(rec)
        traj.snapshots.append(state)
        return rec

    rec = record(u, t)
    step_count = 0
    tiny = 1e-12 * cfg.t_end
    while t < cfg.t_end - tiny:
        if cfg.dt is not None:
            dt = cfg.dt
        else:
            dt = cfg.cfl * cfg.grid.dx / (advection_speed_bound(u, g) + 1.0)
        dt = min(dt, cfg.t_end - t)
        u_next = step_rk4(u, dt, g, cfg.forcing, t, cfg.dealias_policy)
        if not np.all(np.isfinite(u_next.values)):
            traj.termination = "nonfinite"
            return traj
        u = u_next
        t += dt
        step_count += 1
        at_end = t >= cfg.t_end - tiny
        if step_count % cfg.snapshot_stride == 0 or at_end:
            rec = record(u, t)
            if cfg.breaking_stop is not None and rec.min_ux <= cfg.breaking_stop:
                traj.termination = "breaking_detected"
                return traj
    traj.termination = "completed"
    return traj


# thresholds of the breaking signature (see ``breaking_monitor``)
SLOPE_GROWTH = 10.0
AMPLITUDE_CHANGE = 0.10
SUPERLINEAR_FACTOR = 2.0


def breaking_monitor(records) -> str:
    """Classify a diagnostics series as ``breaking_signature`` or
    ``no_breaking_evidence``.

    The signature requires jointly: (a) the breaking integral grows at least
    ``SUPERLINEAR_FACTOR`` times faster over the final fifth of recorded time
    than before it, (b) min u_x fell by at least ``SLOPE_GROWTH`` from its
    initial value, (c) the amplitude changed by less than
    ``AMPLITUDE_CHANGE`` relative.  The verdict is evidence, not a proof of
    blow-up.
    """
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
    g = records[-1].breaking_integral
    g_split = head[-1].breaking_integral
    rate_head = (g_split - records[0].breaking_integral) / max(head[-1].t - t0, 1e-300)
    rate_tail = (g - tail[0].breaking_integral) / max(t_final - tail[0].t, 1e-300)
    superlinear = rate_tail >= SUPERLINEAR_FACTOR * rate_head and rate_tail > 0

    base_slope = records[0].min_ux
    worst_slope = min(r.min_ux for r in records)
    slope_blowup = base_slope < 0 and worst_slope <= SLOPE_GROWTH * base_slope

    base_amp = records[0].sup_u
    if base_amp > 0:
        amp_drift = max(abs(r.sup_u - base_amp) for r in records) / base_amp
    else:
        amp_drift = max(r.sup_u for r in records)
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
