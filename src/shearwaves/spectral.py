"""Periodic grid, spectral differentiation and the smoothing operator (1 - dxx)^-1.

The operators apply half-spectrum (``rfft``) multipliers cached on ``Grid``,
built on ``Grid.k``, the ``rfft`` wavenumbers 0..k_max; ``dealias`` keeps the
leading bins a policy retains.  A Field holds only its grid and its values:
one field of shape (n,) or a stack of F fields of shape (F, n), which the
multiplier operators transform row by row (pocketfft transforms each row on
its own, so a row's bits do not depend on the stack).
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

__all__ = ["DEALIAS_FRACTIONS", "GRID_MAX_N", "GRID_MIN_DX", "Grid", "Field", "derivative",
           "helmholtz_inverse", "helmholtz_inverse_dx", "dealias", "sup_norm", "sobolev_norm",
           "random_mode_coefficients", "trig_field", "csv_text", "field_to_csv"]

# Dealiasing cutoffs as fractions of the Nyquist wavenumber.  two_thirds is the
# classic rule for quadratic products; "strong" keeps |j| <= n/(p+1) with p = 6,
# which is alias-safe for the sixth-power fluxes of the model.
DEALIAS_FRACTIONS = {
    "two_thirds": 2.0 / 3.0,
    "strong": 2.0 / 7.0,
}
GRID_MAX_N = 2**20  # largest grid size; a larger one fails here, not in an allocation
GRID_MIN_DX = 1e-100  # smallest spacing length/n: k_max^2 and (1 + k_max^2)^1.5 stay finite


class Grid:
    """Uniform sampling of the periodic interval [0, L)."""

    def __init__(self, n: int, length: float):
        if n % 2 != 0 or not 16 <= n <= GRID_MAX_N:
            raise ValueError(f"grid size must be even and in [16, {GRID_MAX_N}], got {n}")
        if not (length > 0 and np.isfinite(length)):
            raise ValueError(f"grid length must be positive and finite, got {length}")
        if length / n < GRID_MIN_DX:
            raise ValueError(f"grid spacing length/n must be >= {GRID_MIN_DX}, got {length / n:g}")
        self.n = int(n)
        self.length = float(length)
        self.dx = self.length / self.n
        self.x = np.arange(self.n) * self.dx
        self.k_max = np.pi * self.n / self.length
        self.k = k = 2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.dx)
        # half-spectrum multipliers; the odd ones zero the Nyquist bin to stay real
        self.mult_dx = 1j * k
        self.mult_dx[-1] = 0.0
        self.mult_helmholtz = 1.0 / (1.0 + k**2)
        self.mult_helmholtz_dx = self.mult_dx / (1.0 + k**2)
        # the retained band of each dealias policy: bins 0..m-1, |k| <= fraction k_max
        self.dealias_bins = {policy: int(np.count_nonzero(k <= fraction * self.k_max))
                             for policy, fraction in {None: np.inf, **DEALIAS_FRACTIONS}.items()}

    def retained_bins(self, policy: str | None) -> int:
        """Number m of leading half-spectrum bins a dealias policy keeps; None
        keeps every bin.  The one check of a policy: any other value, an
        unhashable one included, raises ValueError."""
        try:
            return self.dealias_bins[policy]
        except (KeyError, TypeError):
            raise ValueError(f"unknown dealias policy {policy!r}; "
                             f"options: {sorted(DEALIAS_FRACTIONS)}") from None

    @cached_property
    def csv_template(self) -> str:
        """Snapshot file text with the x column filled in and one ``%.17g``
        slot per node for u; built on the first snapshot written."""
        return "x,u\n" + "".join(f"{x:.17g},%.17g\n" for x in self.x.tolist())

    def __eq__(self, other):
        return isinstance(other, Grid) and self.n == other.n and self.length == other.length

    def __hash__(self):
        return hash((self.n, self.length))

    def __repr__(self):
        return f"Grid(n={self.n}, length={self.length})"


class Field:
    """Real function sampled on a Grid: values of shape (n,), or a stack of F
    such functions, values of shape (F, n) with one field per row."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values):
        values = np.asarray(values, dtype=float)
        if values.ndim not in (1, 2) or values.shape[-1] != grid.n:
            raise ValueError(f"expected {grid.n} samples or a stack of rows of {grid.n}, "
                             f"got shape {values.shape}")
        self.grid = grid
        self.values = values

    def single_values(self, reader: str) -> np.ndarray:
        """The (n,) samples of one field; a stack raises ValueError, as
        ``reader`` reads one field only."""
        if self.values.ndim != 1:
            raise ValueError(f"{reader} takes one field, got values of shape {self.values.shape}")
        return self.values

    def __sub__(self, other):
        if isinstance(other, Field):
            if other.grid != self.grid:
                raise ValueError("grid mismatch")
            return Field(self.grid, self.values - other.values)
        return NotImplemented

    def __repr__(self):
        return f"Field({self.grid!r}, max|u|={np.max(np.abs(self.values)):.3e})"


def _apply_multiplier(f: Field, multiplier: np.ndarray) -> Field:
    return Field(f.grid, np.fft.irfft(multiplier * np.fft.rfft(f.values), f.grid.n))


def derivative(f: Field) -> Field:
    """Spectral d/dx, multiplier ik with the Nyquist bin zeroed."""
    return _apply_multiplier(f, f.grid.mult_dx)


def helmholtz_inverse(f: Field) -> Field:
    """(1 - dxx)^-1 as the multiplier 1/(1+k^2); equals convolution with the
    periodization of (1/2)exp(-|x|)."""
    return _apply_multiplier(f, f.grid.mult_helmholtz)


def helmholtz_inverse_dx(f: Field) -> Field:
    """d/dx (1 - dxx)^-1, multiplier ik/(1+k^2), Nyquist zeroed."""
    return _apply_multiplier(f, f.grid.mult_helmholtz_dx)


def dealias(f: Field, policy: str | None = "two_thirds") -> Field:
    """Truncate the half-spectrum to the bins the policy retains (|k| up to
    the policy fraction of the Nyquist wavenumber); None keeps every mode."""
    grid = f.grid
    m = grid.retained_bins(policy)
    return Field(grid, np.fft.irfft(np.fft.rfft(f.values)[..., :m], grid.n))


def sup_norm(f: Field) -> float:
    """max |u| over the samples; over every row of a stack."""
    return float(np.max(np.abs(f.values)))


def sobolev_norm(grid: Grid, u_hat: np.ndarray, s: float) -> float:
    """H^s norm of the field whose rfft half-spectrum starts with the m <=
    n/2+1 bins ``u_hat`` (the bins above are zero): sqrt(L * sum (1+k^2)^s
    |hat|^2) over all bins, with hat = u_hat/n.  Every bin but the mean, and
    the Nyquist bin when m = n/2+1, stands for itself and its conjugate.

    Normalized so that s = 0 reproduces the L^2 quadrature norm and s = 1
    squares to the energy integral of u^2 + u_x^2.
    """
    m = u_hat.shape[-1]
    power = (1.0 + grid.k[:m]**2) ** s * np.abs(u_hat / grid.n) ** 2
    nyquist = power[-1] if m == grid.k.size else 0.0
    return float(np.sqrt(grid.length * (2.0 * np.sum(power) - power[0] - nyquist)))


def random_mode_coefficients(rng, max_mode: int, decay: float = 0.3, fields: int | None = None):
    """Random cosine/sine coefficients for modes 1..max_mode with geometric
    taper; deterministic for a seeded generator.  With ``fields`` = F both
    arrays have shape (F, max_mode), F fields from one (F, 2, max_mode) draw:
    the generator fills it in the order of F calls without ``fields``, so
    row i equals the i-th of those calls bit for bit."""
    j = np.arange(1, max_mode + 1)
    taper = np.exp(-decay * (j - 1))
    draw = rng.standard_normal((2, max_mode) if fields is None else (fields, 2, max_mode)) * taper
    return draw[..., 0, :], draw[..., 1, :]


def trig_field(grid: Grid, cos_coeffs, sin_coeffs, amplitude: float | None = None) -> Field:
    """Band-limited field sum_j a_j cos(k_j x) + b_j sin(k_j x), j = 1..m, from
    grid-independent coefficients: one ``irfft`` of the half-spectrum holding
    (a_j - i b_j) n/2 in bins 1..m.  Both arrays must have the same shape,
    (m,) for one field or (F, m) for a stack of F, with m < n/2.  When
    ``amplitude`` is given, each field's coefficients are rescaled so
    sum |a_j| + |b_j| = amplitude, bounding its sup norm by it."""
    a = np.asarray(cos_coeffs, dtype=float)
    b = np.asarray(sin_coeffs, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"{a.size} cos but {b.size} sin coefficients (shapes {a.shape} and "
                         f"{b.shape}); the shapes must match")
    if a.ndim not in (1, 2):
        raise ValueError(f"coefficients must have shape (m,) or (F, m), got {a.shape}")
    if a.shape[-1] >= grid.n // 2:
        raise ValueError("mode content exceeds the grid band")
    if amplitude is not None:
        total = (np.sum(np.abs(a), axis=-1, keepdims=True)
                 + np.sum(np.abs(b), axis=-1, keepdims=True))
        scale = np.divide(amplitude, total, out=np.ones_like(total), where=total > 0)
        a, b = a * scale, b * scale
    half = np.zeros((*a.shape[:-1], grid.n // 2 + 1), dtype=complex)
    half[..., 1:a.shape[-1] + 1] = (a - 1j * b) * (grid.n / 2)
    return Field(grid, np.fft.irfft(half, grid.n))


def csv_text(f: Field) -> str:
    """Snapshot file text: rows x,u(x) with 17 significant digits.

    One ``%`` format of the grid's cached ``csv_template``; the text equals a
    per-row ``f"{x:.17g},{u:.17g}\\n"`` under an ``x,u`` header.
    """
    return f.grid.csv_template % tuple(f.single_values("csv_text").tolist())


def field_to_csv(f: Field, path) -> None:
    """Write ``csv_text(f)`` to ``path`` in one write; a stack raises
    ValueError before the file is opened."""
    text = csv_text(f)
    with open(path, "w") as fh:
        fh.write(text)
