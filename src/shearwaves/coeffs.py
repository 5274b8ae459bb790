"""Model constants of the vorticity-parameterized shallow-water equation.

Every constant is a rational function of the right-going linear wave speed c,
which solves c^2 - A*c - 1 = 0 for the vorticity parameter A >= 0.  Two
substitutions recur throughout and are used to keep all formulas univariate
in c:

    c - A = 1/c,        2c - A = (c^2 + 1)/c,
    3c^2 - 3Ac + A^2 = (c^4 + c^2 + 1)/c^2.

Evaluation is generic in the numeric type of c: floats for production use,
``fractions.Fraction`` for the exact-rational cross checks in the test suite
(the height parameter z0 involves a square root and is always a float).

Coefficient families:

* ``ModelCoefficients`` -- the constants of the local evolution form
  (``alpha``, ``beta``, ``beta0``, ``omega1..omega7``) plus ``z0``.
* ``DerivedIntermediates`` -- the intermediate lists from the derivation
  (``c8..c10``, ``A1..A10``, ``B11..B20``) and the combined slope-flux
  quantity ``gamma6_times_1_minus_nu`` fixed by the structure constraint
  B16 = 2*B17.
* ``GeneralCoefficients`` -- the advection / flux / slope scalars of the
  nonlocal form, produced from a ModelCoefficients by ``normalize``.

The factored and expanded representations of the same constants are kept as
separate code paths on purpose; ``identity_suite`` compares them to catch
transcription slips.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from fractions import Fraction

__all__ = [
    "burns_speed",
    "ModelCoefficients",
    "GeneralCoefficients",
    "DerivedIntermediates",
    "model_coefficients",
    "derived_intermediates",
    "normalize",
    "IdentityCheck",
    "identity_suite",
]


def burns_speed(vorticity: float) -> float:
    """Right-going linear wave speed over a linear shear of strength A.

    Positive root of c^2 - A*c - 1 = 0, i.e. c = (A + sqrt(A^2 + 4))/2.
    A = 0 is accepted as the irrotational limit (c = 1).
    """
    a = float(vorticity)
    if not math.isfinite(a):
        raise ValueError(f"vorticity must be finite, got {vorticity!r}")
    if a < 0:
        raise ValueError(f"vorticity must be >= 0, got {vorticity!r}")
    return 0.5 * (a + math.sqrt(a * a + 4.0))


def _poly(c, coeffs):
    """Horner evaluation, descending coefficients; exact for Fraction input."""
    acc = coeffs[0]
    for a in coeffs[1:]:
        acc = acc * c + a
    return acc


def _poly_ratio(c, num, den):
    """Expanded numerator/denominator evaluated without cancellation.

    Float input is promoted to an exact rational (a float is a dyadic
    rational), the integer-coefficient polynomials are evaluated exactly and
    the quotient is rounded once.  This matters near c = 1 where the B-list
    numerators vanish to high order and plain double Horner loses most of its
    digits.  Fraction input passes through exactly.
    """
    if isinstance(c, float):
        exact = Fraction(c)
        return float(_poly(exact, num) / _poly(exact, den))
    return _poly(c, num) / _poly(c, den)


# Expanded numerator/denominator tables for the quintic-to-septic advection
# coefficients of the derivation's B-list.  The factored counterparts live in
# ModelCoefficients (omega1..omega4); identity_suite checks the two paths
# against each other.
_B11_NUM = [1, 0, 1, 0, -2, 0, 0, 0, 0, 0]
_B11_DEN = [2, 0, 6, 0, 6, 0, 2]
_B12_NUM = [1, 0, 2, 0, -1, 0, -8, 0, 6, 0, 0, 0, 0, 0, 0]
_B12_DEN = [6, 0, 30, 0, 60, 0, 60, 0, 30, 0, 6]
_B13_NUM = [1, 0, 3, 0, -1, 0, -1, 0, -36, 0, 58, 0, -24, 0, 0, 0, 0, 0, 0, 0]
_B13_DEN = [24, 0, 168, 0, 504, 0, 840, 0, 840, 0, 504, 0, 168, 0, 24]
_B14_NUM = [1, 0, 4, 0, 2, 0, -32, 0, 113, 0, -368, 0, 604, 0, -444, 0, 120,
            0, 0, 0, 0, 0, 0, 0, 0]
_B14_DEN = [120, 0, 1080, 0, 4320, 0, 10080, 0, 15120, 0, 15120, 0, 10080,
            0, 4320, 0, 1080, 0, 120]
_B15_NUM = [1, 0, 5, 0, 4, 0, 22, 0, -523, 0, 2389, 0, -5990, 0, 8996, 0,
            -7892, 0, 3708, 0, -720, 0, 0, 0, 0, 0, 0, 0, 0, 0]
_B15_DEN = [720, 0, 7920, 0, 39600, 0, 118800, 0, 237600, 0, 332640, 0,
            332640, 0, 237600, 0, 118800, 0, 39600, 0, 7920, 0, 720]


def _omega1(c):
    return c**5 * (c**2 - 1) * (c**2 + 2) / (2 * (c**2 + 1) ** 3)


def _omega2(c):
    return c**6 * (c - 1) ** 2 * (c + 1) ** 2 * (c**4 + 4 * c**2 + 6) / (6 * (c**2 + 1) ** 5)


def _omega3(c):
    return (c**7 * (c - 1) ** 3 * (c + 1) ** 3 * (c**2 + 4) * (c**4 + 2 * c**2 + 6)
            / (24 * (c**2 + 1) ** 7))


def _omega4(c):
    return (c**8 * (c - 1) ** 4 * (c + 1) ** 4
            * _poly(c, [1, 0, 8, 0, 28, 0, 36, 0, 120]) / (120 * (c**2 + 1) ** 9))


def _omega5(c):
    num = _poly(c, [2, 0, 17, 0, 37, 0, 115, 0, 189, 0, 152, 0, 54, 0, 10, 0])
    return -num / (12 * (c**4 + c**2 + 1) * (c**2 + 1) ** 5)


def _omega6(c):
    num = _poly(c, [4, 4, 26, 34, 79, 137, 126, 314, 131, 402, 95, 290, 50,
                    109, 23, 18, 6])
    return -num / (12 * (c**4 + c**2 + 1) * (c**2 + 1) ** 5)


def _omega7(c):
    num = _poly(c, [4, 2, 32, 23, 115, 100, 216, 319, 269, 485, 233, 376,
                    140, 137, 59, 22, 12])
    return -num / (6 * (c**4 + c**2 + 1) * (c**2 + 1) ** 5)


def _z0(c):
    """Height parameter fixed by the slope-flux structure constraint.

    Involves a square root, so the result is always a float even on the
    exact-rational path.
    """
    y = float(c) ** 2
    radicand = 6.0 * (y**2 + y + 1.0) * (2.0 * y**4 + 14.0 * y**3 + 23.0 * y**2 - 3.0)
    return math.sqrt(radicand) / (6.0 * (y**2 + y + 1.0) * (y + 1.0))


class _Record:
    """Field-name -> value mapping shared by the coefficient dataclasses."""

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class ModelCoefficients(_Record):
    """Constants of the local evolution form, derived from the vorticity A."""

    A: float
    c: float
    alpha: float
    beta: float
    beta0: float
    omega1: float
    omega2: float
    omega3: float
    omega4: float
    omega5: float
    omega6: float
    omega7: float
    z0: float

    @classmethod
    def from_speed(cls, c, vorticity=None) -> "ModelCoefficients":
        """Evaluate every coefficient at wave speed c (generic arithmetic).

        Passing a Fraction c gives exact-rational values for all fields
        except z0.
        """
        a = c - 1 / c if vorticity is None else vorticity
        return cls(
            A=a,
            c=c,
            alpha=(c**4 + c**2 + 1) / (3 * (c**2 + 1)),
            beta=(c**4 + 6 * c**2 + 3)
            / _poly(c, [2, 0, 6, 0, 8, 0, 6, 0, 2]),
            beta0=_poly(c, [1, 0, 14, 0, 5, 0, -2])
            / _poly(c, [6, 0, 18, 0, 24, 0, 18, 0, 6, 0]),
            omega1=_omega1(c),
            omega2=_omega2(c),
            omega3=_omega3(c),
            omega4=_omega4(c),
            omega5=_omega5(c),
            omega6=_omega6(c),
            omega7=_omega7(c),
            z0=_z0(c),
        )


@dataclass(frozen=True)
class GeneralCoefficients(_Record):
    """Advection, flux and slope scalars of the nonlocal Cauchy problem.

    ``normalize`` fills them from a ModelCoefficients; arbitrary values are
    allowed for sub-case studies (e.g. the classical quadratic-flux reduction).
    """

    alpha1: float
    alpha2: float
    alpha3: float
    beta1: float
    beta2: float
    beta3: float
    beta4: float
    beta5: float
    beta6: float
    beta7: float
    beta8: float
    gamma: float


def _half(like):
    """1/2 in the arithmetic of ``like`` (Fraction stays exact)."""
    one = like / like if like != 0 else 1
    return one / 2


@dataclass(frozen=True)
class DerivedIntermediates(_Record):
    """Intermediate constants of the derivation, with the free height fixed
    at z0.

    B19 and B20 carry the two reconstruction coefficients whose closed forms
    are never printed; they are recovered from the final-equation matching
    (B19 = -omega6, B20 = -omega7) rather than evaluated independently, so no
    identity is asserted on them.  B18 is evaluated from its own printed
    formula and reported without an assertion: it does not reproduce -omega5
    (see the notes accompanying the test suite).
    """

    c8: float
    c9: float
    c10: float
    A1: float
    A2: float
    A3: float
    A4: float
    A5: float
    A6: float
    A7: float
    A8: float
    A9: float
    A10: float
    B11: float
    B12: float
    B13: float
    B14: float
    B15: float
    B16: float
    B17: float
    B18: float
    B19: float
    B20: float
    gamma6_times_1_minus_nu: float

    @classmethod
    def from_speed(cls, c) -> "DerivedIntermediates":
        c8, c9, c10, g6_prod, b16, b17 = _slope_flux(c)
        b18 = (g6_prod * _poly(c, [1, 0, 3, 0, 1, 0, -3, 0, -2, 0, 0, 0, 0])
               / (2 * (c**2 + 1) ** 5)
               + c * _poly(c, [1, 0, 4, 0, 9, 0, 37, 0, 24, 0, 5]) / (6 * (c**2 + 1) ** 5))

        return cls(
            c8=c8,
            c9=c9,
            c10=c10,
            A1=-(c**4 + 4 * c**2 + 1) / (2 * (c**2 + 1) ** 2),
            A2=_poly(c, [1, 0, 6, 0, 4, 0, 6, 0, 1]) / (3 * (c**2 + 1) ** 4),
            A3=-_poly(c, [1, 0, 8, 0, 9, 0, 24, 0, 9, 0, 8, 0, 1]) / (4 * (c**2 + 1) ** 6),
            A4=_poly(c, [1, 0, 10, 0, 16, 0, 60, 0, 36, 0, 60, 0, 16, 0, 10, 0, 1])
            / (5 * (c**2 + 1) ** 8),
            A5=-_poly(c, [1, 0, 12, 0, 25, 0, 120, 0, 100, 0, 240, 0, 100, 0,
                          120, 0, 25, 0, 12, 0, 1]) / (6 * (c**2 + 1) ** 10),
            A6=-_poly(c, [2, 0, 4, 0, 11, 0, 6]) / (3 * c**2 * (c**2 + 1) ** 2),
            A7=-(c**4 + 6 * c**2 + 3) / (3 * c**2 * (c**2 + 1) ** 2),
            A8=-c8,
            A9=-c9,
            A10=-c10,
            B11=_poly_ratio(c, _B11_NUM, _B11_DEN),
            B12=_poly_ratio(c, _B12_NUM, _B12_DEN),
            B13=_poly_ratio(c, _B13_NUM, _B13_DEN),
            B14=_poly_ratio(c, _B14_NUM, _B14_DEN),
            B15=_poly_ratio(c, _B15_NUM, _B15_DEN),
            B16=b16,
            B17=b17,
            B18=b18,
            B19=-_omega6(c),
            B20=-_omega7(c),
            gamma6_times_1_minus_nu=g6_prod,
        )


def _slope_flux(c):
    """c8, c9, c10, gamma6*(1 - nu), B16 and B17 at speed c.  2*c8 + 2*c9 - c10
    and B16 cancel their leading powers of c, so a float c loses about c^2 ulps
    there; identity_suite checks them on Fraction(c)."""
    c8 = _poly(c, [2, 0, 13, 0, 19, 0, 38, 0, 33, 0, 9]) / (6 * c**2 * (c**2 + 1) ** 4)
    c9 = _poly(c, [1, 0, 3, 0, 2, 0, 28, 0, 21, 0, 5]) / (6 * c**2 * (c**2 + 1) ** 4)
    c10 = _poly(c, [3, 0, 15, 0, 13, 0, 52, 0, 44, 0, 11]) / (3 * c**2 * (c**2 + 1) ** 4)

    # slope-flux structure constraint: with the speed substitutions, the
    # prefactor of gamma6 in the constraint display is
    # (2/3)(c^4+c^2+1)/(c(c^2+1)), which fixes
    #   gamma6            from (4c^6+7c^4-14c^2-9)/(18(c^2+1)^3),
    #   gamma6*(1 - nu)   from -(c^4+6c^2+3)/(3(c^2+1)^3).
    # nu itself is a free splitting parameter and is never materialized.
    scale = 3 * c * (c**2 + 1) / (2 * (c**4 + c**2 + 1))
    gamma6 = _poly(c, [4, 0, 7, 0, -14, 0, -9]) / (18 * (c**2 + 1) ** 3) * scale
    g6_prod = -(c**4 + 6 * c**2 + 3) / (3 * (c**2 + 1) ** 3) * scale
    # gamma6*(1-3nu) = 3*gamma6*(1-nu) - 2*gamma6
    ring = (c**4 + c**2 + 1) / (c * (c**2 + 1))
    b16 = ring * (3 * g6_prod - 2 * gamma6) + _poly(c, [2, 0, 7, 0, 14, 0, 6]) / (3 * (c**2 + 1) ** 3)
    b17 = ring * g6_prod + (c**4 + 6 * c**2 + 3) / (3 * (c**2 + 1) ** 3)
    return c8, c9, c10, g6_prod, b16, b17


def model_coefficients(vorticity: float) -> ModelCoefficients:
    """All constants of the local evolution form at vorticity A >= 0."""
    return ModelCoefficients.from_speed(burns_speed(vorticity), vorticity=float(vorticity))


def derived_intermediates(vorticity: float) -> DerivedIntermediates:
    """The derivation's intermediate constants at vorticity A >= 0."""
    return DerivedIntermediates.from_speed(burns_speed(vorticity))


def normalize(m: ModelCoefficients) -> GeneralCoefficients:
    """Map the local-form constants onto the nonlocal-form coefficient set."""
    if m.alpha == 0 or m.beta == 0:
        raise ValueError("degenerate model coefficients: alpha or beta is zero")
    al, be = m.alpha, m.beta
    return GeneralCoefficients(
        alpha1=m.beta0 / be,
        alpha2=1,
        alpha3=m.omega5 / (al**2 * be),
        beta1=m.beta0 / be - m.c,
        beta2=-1,
        beta3=(m.omega5 - be * m.omega1) / (3 * al**2 * be),
        beta4=-m.omega2 / (4 * al**3),
        beta5=-m.omega3 / (5 * al**4),
        beta6=-m.omega4 / (6 * al**5),
        beta7=-_half(m.c),
        beta8=(m.omega7 - 6 * m.omega5) / (2 * al**2 * be),
        gamma=(2 * (m.omega5 + m.omega6) - m.omega7) / (2 * al**2 * be),
    )


@dataclass(frozen=True)
class IdentityCheck(_Record):
    name: str
    residual: float
    tolerance: float
    passed: bool


def _rel(lhs: float, rhs: float) -> float:
    scale = max(abs(lhs), abs(rhs))
    if scale == 0.0:
        return 0.0
    return abs(lhs - rhs) / scale


def identity_suite(vorticity: float, tol: float = 1e-12) -> list:
    """Evaluate every algebraic identity the derivation implies at one A.

    Failures are reported, never raised.  Returns a list of IdentityCheck.
    """
    m = model_coefficients(vorticity)
    d = derived_intermediates(vorticity)
    g = normalize(m)
    c = m.c
    checks = []

    def add(name, residual, tolerance=tol):
        checks.append(IdentityCheck(name, float(residual), tolerance, bool(residual <= tolerance)))

    add("burns_quadratic", abs(c * c - m.A * c - 1.0) / (c * c))
    add("speed_at_least_unity", max(0.0, 1.0 - c), 0.0)
    if vorticity > 0:
        add("speed_above_unity_when_rotational", 0.0 if c > 1.0 else 1.0, 0.0)
    add("alpha_positive", 0.0 if m.alpha > 0 else 1.0)
    add("beta_positive", 0.0 if m.beta > 0 else 1.0)
    add("alpha_closed_form", _rel(3 * m.alpha, (c**4 + c**2 + 1) / (c**2 + 1)))
    add("beta_factored_denominator",
        _rel(m.beta, (c**4 + 6 * c**2 + 3) / (2 * (c**2 + 1) ** 2 * (c**4 + c**2 + 1))))
    add("beta0_from_beta", _rel(m.beta0, c * m.beta - 1.0 / (3 * c * (c**2 + 1))))
    for i, (w, b) in enumerate(zip(
            (m.omega1, m.omega2, m.omega3, m.omega4),
            (d.B11, d.B12, d.B13, d.B14)), start=1):
        add(f"omega{i}_matches_B1{i}", _rel(w, b))
    for i, (a, ci) in enumerate(zip((d.A8, d.A9, d.A10), (d.c8, d.c9, d.c10)), start=8):
        add(f"A{i}_is_minus_c{i}", _rel(a, -ci), 0.0)
    cq = Fraction(c)  # exact rationals, see _slope_flux
    c8, c9, c10, _, b16, b17 = _slope_flux(cq)
    add("derivative_obstruction",
        _rel(2 * c8 + 2 * c9 - c10,
             (cq**6 + 7 * cq**4 + 7 * cq**2 + 3) / (3 * cq**2 * (cq**2 + 1) ** 3)))
    add("B16_equals_2_B17", _rel(b16, 2 * b17))
    add("B16_closed_form", _rel(b16, -(cq**4 + 6 * cq**2 + 3) / (3 * (cq**2 + 1) ** 3)))
    add("B16_is_minus_2_alpha_beta", _rel(b16, -2 * m.alpha * m.beta))
    add("gamma6_product_is_minus_c_beta", _rel(d.gamma6_times_1_minus_nu, -c * m.beta))
    add("normalized_advection_unit", abs(g.alpha2 - 1.0), 0.0)
    add("normalized_quadratic_flux", abs(g.beta2 + 1.0), 0.0)
    add("normalized_slope_flux", abs(g.beta7 + 0.5), 0.0)
    add("alpha1_minus_beta1_is_speed", _rel(g.alpha1 - g.beta1, c))
    add("z0_in_unit_interval", max(0.0, m.z0 - 1.0, -m.z0), 0.0)
    add("B15_finite", 0.0 if math.isfinite(d.B15) else 1.0, 0.0)
    if vorticity == 0:
        add("omegas_vanish_irrotational",
            max(abs(m.omega1), abs(m.omega2), abs(m.omega3), abs(m.omega4)), 0.0)
    return checks


def perturbed(coefficients, field: str, relative: float = 1e-6):
    """Fault-injection helper: scale one coefficient field by (1 + relative).

    Works on any of the coefficient dataclasses.
    """
    value = getattr(coefficients, field)
    return replace(coefficients, **{field: value * (1.0 + relative)})
