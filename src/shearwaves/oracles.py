"""Independent slow-path evaluations used to cross-check the spectral core.

Nothing here touches the Fourier-multiplier implementations: the smoothing
operator is evaluated by panel Gauss quadrature against the exponential
kernel, with the integrand's band-limited interpolant summed directly by
Horner's rule at the quadrature nodes; derivatives by high-order finite
differences; and the classical quadratic-flux right-hand side is coded
directly from its textbook form.  The 8-point Gauss-Legendre rule is a
table of numpy's ``leggauss(8)``, so no oracle calls LAPACK.  Every
oracle reads one field: a stack of fields raises ValueError, and a caller
checks a stack one row at a time.
"""
from __future__ import annotations

import numpy as np

from .spectral import Field

__all__ = [
    "line_kernel",
    "helmholtz_inverse_quadrature",
    "fd_derivative6",
    "camassa_holm_rhs",
]


def line_kernel(z):
    """(1/2) exp(-|z|), the Green's function of 1 - dxx on the line."""
    return 0.5 * np.exp(-np.abs(z))


def _wrap_half(z, length):
    """Wrap displacements into [-L/2, L/2) (nearest periodic image)."""
    return (z + 0.5 * length) % length - 0.5 * length


def trig_eval(f: Field, points) -> np.ndarray:
    """Evaluate the band-limited interpolant of f at arbitrary points.

    The interpolant is Re sum_{j=0}^{n/2} c_j z^j in z = exp(2 pi i p / L),
    with c_0 = fhat_0, c_j = 2 fhat_j for 0 < j < n/2, and c_{n/2} = Re
    fhat_{n/2} (the Nyquist term split evenly between +/- n/2 so the
    interpolant is real).  It is summed by Horner's rule: one exp per point,
    then n/2 in-place multiply-adds.
    """
    grid = f.grid
    hat = np.fft.fft(f.single_values("trig_eval")) / grid.n
    ny = grid.n // 2
    coef = 2.0 * hat[:ny + 1]
    coef[0] = hat[0]
    coef[ny] = hat[ny].real
    z = np.exp((2j * np.pi / grid.length) * np.asarray(points, dtype=float).ravel())
    acc = np.full_like(z, coef[ny])
    for c in coef[ny - 1::-1]:
        acc *= z
        acc += c
    return acc.real


# the 8-point Gauss-Legendre rule on [-1, 1], the exact repr of numpy's
# leggauss(8): a table, so the oracle loads neither numpy.polynomial nor LAPACK
GAUSS_NODES = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
    0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362,
])
GAUSS_WEIGHTS = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
    0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706,
])


def helmholtz_inverse_quadrature(f: Field) -> np.ndarray:
    """Convolution with the nearest-image exponential kernel by composite
    Gauss-Legendre quadrature, one panel per grid cell.

    The kernel kink sits on panel boundaries (grid nodes and their
    antipodes), so the integrand is smooth inside every panel and the rule
    converges far below the kernel's periodization tail exp(-L/2), which is
    the accuracy floor of the nearest-image approximation.
    """
    grid = f.grid
    f.single_values("helmholtz_inverse_quadrature")
    # map to panels [x_m, x_m + dx]
    starts = grid.x
    half = 0.5 * grid.dx
    y = (starts[:, None] + half * (GAUSS_NODES[None, :] + 1.0)).ravel()
    w = np.tile(half * GAUSS_WEIGHTS, grid.n)
    fy = trig_eval(f, y)
    out = np.empty(grid.n)
    for i, xi in enumerate(grid.x):
        out[i] = np.sum(w * line_kernel(_wrap_half(xi - y, grid.length)) * fy)
    return out


# 6th-order centred first-derivative stencil
_FD6 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0


def fd_derivative6(values: np.ndarray, dx: float) -> np.ndarray:
    """Periodic 6th-order centred finite-difference first derivative of
    the samples of one field."""
    if np.ndim(values) != 1:
        raise ValueError(f"fd_derivative6 takes one field, got values of shape {np.shape(values)}")
    out = np.zeros_like(values)
    for offset, coeff in zip(range(-3, 4), _FD6):
        if coeff != 0.0:
            out += coeff * np.roll(values, -offset)
    return out / dx


def camassa_holm_rhs(u: Field, drift: float = 0.0) -> Field:
    """Textbook quadratic-flux nonlocal right-hand side,

        du/dt = -(drift + u) u_x - d/dx (1-dxx)^-1 (u^2 + u_x^2 / 2),

    coded against raw transforms (independent of the multiplier helpers)."""
    grid = u.grid
    n = grid.n
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.length / n)
    ik = 1j * k
    ik[n // 2] = 0.0
    values = u.single_values("camassa_holm_rhs")
    uhat = np.fft.fft(values)
    ux = np.fft.ifft(ik * uhat).real
    flux = values**2 + 0.5 * ux**2
    smooth_dx = np.fft.ifft(ik / (1.0 + k**2) * np.fft.fft(flux)).real
    return Field(grid, -(drift + values) * ux - smooth_dx)
