"""The three equivalent presentations of the model and the maps between them.

* local form: the epsilon/mu-weighted evolution equation for the horizontal
  velocity (residual functional only, never integrated);
* rescaled form: the same equation after u -> alpha*eps*u(sqrt(beta*mu) t,
  sqrt(beta*mu) x), which removes epsilon and mu;
* nonlocal form: the rescaled equation with (1 - dxx)^-1 applied, the one the
  time integrator advances.  Its rate is one half-spectrum kernel,
  ``rate_hat``, which both ``rhs_nonlocal`` and the time step call.

The pointwise residual cores (`local_form_terms`, `rescaled_form_terms`) are
shared between the spectral wrappers and the analytic-derivative checks so
the equation algebra exists in exactly one place.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import GeneralCoefficients, ModelCoefficients, normalize
from .spectral import Field, Grid, derivative, helmholtz_inverse, sup_norm

__all__ = [
    "ScaleParams",
    "RateWorkspace",
    "rate_hat",
    "rhs_nonlocal",
    "local_form_terms",
    "rescaled_form_terms",
    "residual_local_form",
    "velocity_rate_from_rescaled_form",
    "verify_form_equivalence",
    "verify_rescale",
    "RescaleReport",
    "TravelingGaussian",
    "ProfileSum",
]


@dataclass(frozen=True)
class ScaleParams:
    """Amplitude and shallowness parameters of the asymptotic regime."""

    epsilon: float
    mu: float

    def __post_init__(self):
        for name in ("epsilon", "mu"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")


class RateWorkspace:
    """Buffers that ``rate_hat`` writes into, for inputs of ``bins`` bins
    whose samples have ``shape``: n for one field, (F, n) for a stack of F.
    With S that shape: the complex pair (u_hat, ik u_hat) of shape (2, *S)
    with ``bins`` in place of n, the samples (u, u_x) of the last input,
    (2, *S), the advection/flux/cubic products, (3, *S), and two real
    scratch arrays of shape S."""

    __slots__ = ("pair", "values", "products", "slope2", "scratch")

    def __init__(self, shape, bins: int):
        shape = tuple(np.atleast_1d(shape))
        self.pair = np.empty((2, *shape[:-1], bins), dtype=complex)
        self.values = np.empty((2, *shape))
        self.products = np.empty((3, *shape))
        self.slope2 = np.empty(shape)
        self.scratch = np.empty(shape)


def rate_hat(u_hat: np.ndarray, grid: Grid, g: GeneralCoefficients, m: int,
             work: RateWorkspace) -> np.ndarray:
    """Retained half-spectrum of du/dt of the nonlocal Cauchy problem.

    du/dt = -(a1 + a2 u + a3 u^2) u_x
            + (1-dxx)^-1 [ d/dx(sum_i b_i u^i + b7 u_x^2 + b8 u u_x^2) + gamma u_x^3 ]

    ``u_hat`` holds the first bins <= n/2+1 rfft bins of u, shape (bins,), or
    of each of F fields, shape (F, bins); the bins above are zero.  Every
    step works row by row, so a row's rate is bit for bit the rate of that
    field alone.  u and u_x come back to sample space in one batched
    irfft, the advection, flux and cubic products are formed there and
    transformed in one batched rfft, and only the first ``m`` bins (the
    retained band of a dealias policy) are combined with the grid's
    multipliers: two transform calls per evaluation.  A term whose
    coefficient is 0 is skipped, exact for finite data (x + 0 = x); with
    gamma = 0 (Camassa-Holm) the rfft takes two product rows, not three.
    Returns a fresh array of shape (..., m); every elementwise step in
    sample space writes into the caller's ``work``, sized for the shape of
    ``u_hat``, and ``work.values`` keeps the samples (u, u_x) of ``u_hat``
    until the next call.
    """
    n = grid.n
    pair, products, slope2, tmp = work.pair, work.products, work.slope2, work.scratch
    pair[0] = u_hat
    np.multiply(grid.mult_dx[:u_hat.shape[-1]], u_hat, out=pair[1])
    np.copyto(work.values, np.fft.irfft(pair, n))
    v, vx = work.values
    np.multiply(vx, vx, out=slope2)
    advection, flux, cubic = products
    # -(a1 + a2 v + a3 v^2) vx
    np.multiply(g.alpha2, v, out=advection)
    if g.alpha1:
        advection += g.alpha1
    if g.alpha3:
        np.multiply(g.alpha3, v, out=tmp)
        tmp *= v
        advection += tmp
    np.negative(advection, out=advection)
    advection *= vx
    # v (b1 + v (b2 + v (b3 + v (b4 + v (b5 + v b6))))) + b7 vx^2 + b8 v vx^2
    started = False  # Horner's rule starts at the highest nonzero b_i
    for beta in (g.beta6, g.beta5, g.beta4, g.beta3, g.beta2, g.beta1):
        if started and beta:
            flux += beta
        if started or beta:
            np.multiply(v, flux if started else beta, out=flux)
            started = True
    if not started:
        flux.fill(0.0)
    np.multiply(g.beta7, slope2, out=cubic)
    if g.beta8:
        np.multiply(g.beta8, v, out=tmp)
        tmp *= slope2
        cubic += tmp
    flux += cubic
    # gamma vx^3
    if g.gamma:
        np.multiply(g.gamma, slope2, out=cubic)
        cubic *= vx
    hats = np.fft.rfft(products if g.gamma else products[:2])[..., :m]
    rate = hats[0] + grid.mult_helmholtz_dx[:m] * hats[1]
    if g.gamma:
        np.multiply(grid.mult_helmholtz[:m], hats[2], out=hats[2])  # in place: a step's peak memory
        rate += hats[2]
    return rate


def rhs_nonlocal(u: Field, g: GeneralCoefficients, dealias_policy: str | None = None) -> Field:
    """du/dt of the nonlocal Cauchy problem in sample space, of one field or
    of each row of a stack: ``rate_hat`` between one rfft and one irfft,
    four transform calls per evaluation.  The rate keeps only the retained
    band of the dealias policy."""
    grid, m = u.grid, u.grid.retained_bins(dealias_policy)
    work = RateWorkspace(u.values.shape, grid.n // 2 + 1)
    rate = rate_hat(np.fft.rfft(u.values), grid, g, m, work)
    return Field(grid, np.fft.irfft(rate, grid.n))


def local_form_terms(u, ut, ux, uxx, uxxx, utxx, m: ModelCoefficients, s: ScaleParams):
    """Pointwise residual (LHS - RHS) of the local evolution form."""
    eps, mu = s.epsilon, s.mu
    u2 = u * u
    lhs = (ut - m.beta * mu * utxx + m.c * ux
           + 3 * m.alpha * eps * u * ux - m.beta0 * mu * uxxx
           + eps**2 * m.omega1 * u2 * ux
           + eps**3 * m.omega2 * u2 * u * ux
           + eps**4 * m.omega3 * u2 * u2 * ux
           + eps**5 * m.omega4 * u2 * u2 * u * ux)
    rhs = (m.alpha * m.beta * eps * mu * (2 * ux * uxx + u * uxxx)
           + eps**2 * mu * (m.omega5 * u2 * uxxx + m.omega6 * ux**3
                            + m.omega7 * u * ux * uxx))
    return lhs - rhs


def rescaled_form_terms(u, ut, ux, uxx, uxxx, utxx, m: ModelCoefficients):
    """Pointwise residual (LHS - RHS) of the rescaled, parameter-free form."""
    al, be = m.alpha, m.beta
    u2 = u * u
    lhs = (ut - utxx + m.c * ux + 3 * u * ux - (m.beta0 / be) * uxxx
           + (m.omega1 / al**2) * u2 * ux
           + (m.omega2 / al**3) * u2 * u * ux
           + (m.omega3 / al**4) * u2 * u2 * ux
           + (m.omega4 / al**5) * u2 * u2 * u * ux)
    rhs = (2 * ux * uxx + u * uxxx
           + (m.omega7 * u * ux * uxx + m.omega5 * u2 * uxxx + m.omega6 * ux**3)
           / (al**2 * be))
    return lhs - rhs


def _spatial_derivatives(u: Field):
    ux = derivative(u)
    uxx = derivative(ux)
    uxxx = derivative(uxx)
    return ux.values, uxx.values, uxxx.values


def residual_local_form(u: Field, u_t: Field, m: ModelCoefficients, s: ScaleParams) -> Field:
    """Residual of the local form at a sampled (u, u_t) pair, derivatives
    taken spectrally."""
    if u_t.grid != u.grid:
        raise ValueError("grid mismatch between u and u_t")
    ux, uxx, uxxx = _spatial_derivatives(u)
    utxx = derivative(derivative(u_t)).values
    vals = local_form_terms(u.values, u_t.values, ux, uxx, uxxx, utxx, m, s)
    return Field(u.grid, vals)


def velocity_rate_from_rescaled_form(u: Field, m: ModelCoefficients) -> Field:
    """u_t extracted from the rescaled form: every non-time term moved right
    and (1 - dxx)^-1 applied (exact on the grid, the operator is diagonal).
    The residual is linear in u_t - u_txx, so the moved terms are minus the
    residual at u_t = u_txx = 0."""
    ux, uxx, uxxx = _spatial_derivatives(u)
    moved = -rescaled_form_terms(u.values, 0.0, ux, uxx, uxxx, 0.0, m)
    return helmholtz_inverse(Field(u.grid, moved))


def verify_form_equivalence(u: Field, m: ModelCoefficients,
                            g: GeneralCoefficients | None = None) -> float:
    """L-inf difference between u_t from the rescaled form and u_t from the
    nonlocal right-hand side with the normalized coefficient set; for a
    stack, the largest over its rows.

    Passing an explicit ``g`` replaces the normalized set on the nonlocal
    route only (used for fault injection by the verification CLI)."""
    a = velocity_rate_from_rescaled_form(u, m)
    b = rhs_nonlocal(u, normalize(m) if g is None else g)
    return sup_norm(a - b)


# ---------------------------------------------------------------------------
# rescaling check: local form -> rescaled form
# ---------------------------------------------------------------------------

class TravelingGaussian:
    """Gaussian bump a*exp(-(x - x0 - v t)^2 / (2 w^2)) with closed-form
    derivatives, for pointwise residual evaluation off the grid."""

    def __init__(self, amplitude: float, width: float, speed: float, center: float = 0.0):
        self.amplitude = amplitude
        self.width = width
        self.speed = speed
        self.center = center

    def _xi(self, t, x):
        return x - self.center - self.speed * t

    def value(self, t, x):
        xi = self._xi(t, x)
        return self.amplitude * np.exp(-xi * xi / (2 * self.width**2))

    def dx(self, t, x):
        xi = self._xi(t, x)
        return -xi / self.width**2 * self.value(t, x)

    def dxx(self, t, x):
        xi = self._xi(t, x)
        w2 = self.width**2
        return (xi * xi / w2 - 1.0) / w2 * self.value(t, x)

    def dxxx(self, t, x):
        xi = self._xi(t, x)
        w2 = self.width**2
        return (3.0 * xi / w2 - xi**3 / w2**2) / w2 * self.value(t, x)

    # depends on (t, x) through xi only, so d/dt = -speed * d/dx
    def dt(self, t, x):
        return -self.speed * self.dx(t, x)

    def dtxx(self, t, x):
        return -self.speed * self.dxxx(t, x)


class ProfileSum:
    """Sum of closed-form profiles; breaks the single-characteristic
    degeneracy of one traveling bump.  Each of ``value``, ``dt``, ``dx``,
    ``dxx``, ``dxxx`` and ``dtxx`` is the sum over the parts."""

    def __init__(self, *parts):
        self.parts = parts

    def __getattr__(self, name):
        if name not in ("value", "dt", "dx", "dxx", "dxxx", "dtxx"):
            raise AttributeError(name)
        return lambda t, x: sum(getattr(p, name)(t, x) for p in self.parts)


@dataclass(frozen=True)
class RescaleReport:
    fitted_factor: float
    expected_factor: float
    defect: float
    factor_mismatch: float
    passed: bool


# sample lattice of the rescaling check and its defect/mismatch tolerance
RESCALE_T = np.linspace(0.0, 2.0, 5)
RESCALE_X = np.linspace(-8.0, 8.0, 161)
RESCALE_TOL = 1e-8


def verify_rescale(profile, s: ScaleParams, m: ModelCoefficients) -> RescaleReport:
    """Check that rescaling maps the local form onto the rescaled form with a
    single chain-rule factor.

    With v(t,x) = alpha*eps*u(r t, r x) and r = sqrt(beta*mu), each term of
    the rescaled-form residual of v equals alpha*eps*r times the matching
    term of the local-form residual of u at the scaled arguments (one-time
    pencil derivation: v carries alpha*eps, every d/dx carries one r, and the
    term weights of the two forms differ by exactly the complementary
    powers).  K = alpha*eps*sqrt(beta*mu) is therefore the expected common
    factor; the report fits K from samples and measures the proportionality
    defect, which flags any transcription slip between the two forms.
    """
    r = math.sqrt(m.beta * s.mu)
    amp = m.alpha * s.epsilon
    tt, xx = np.meshgrid(RESCALE_T, RESCALE_X, indexing="ij")

    st, sx = r * tt, r * xx
    u = profile.value(st, sx)
    ut = profile.dt(st, sx)
    ux = profile.dx(st, sx)
    uxx = profile.dxx(st, sx)
    uxxx = profile.dxxx(st, sx)
    utxx = profile.dtxx(st, sx)
    r1 = local_form_terms(u, ut, ux, uxx, uxxx, utxx, m, s)

    r2 = rescaled_form_terms(
        amp * u, amp * r * ut, amp * r * ux, amp * r**2 * uxx,
        amp * r**3 * uxxx, amp * r**3 * utxx, m)

    expected = amp * r
    denom = float(np.sum(r1 * r1))
    scale2 = float(np.max(np.abs(r2)))
    if denom == 0.0 and scale2 == 0.0:
        return RescaleReport(expected, expected, 0.0, 0.0, True)
    fitted = float(np.sum(r1 * r2) / denom) if denom > 0 else math.inf
    defect = float(np.max(np.abs(r2 - fitted * r1))) / max(scale2, 1e-300)
    mismatch = abs(fitted - expected) / abs(expected)
    passed = bool(defect < RESCALE_TOL and mismatch < RESCALE_TOL)
    return RescaleReport(fitted, expected, defect, mismatch, passed)

