"""Dyadic frequency decomposition and Besov norms on sampled periodic fields.

The low cutoff chi equals 1 on |xi| <= 1 and vanishes for |xi| >= 4/3; the
annulus function is the telescoping difference phi(xi) = chi(xi/2) - chi(xi),
supported in [1, 8/3].  The partial sums then collapse exactly,

    chi(xi) + sum_{q=0..Q} phi(2^-q xi) = chi(2^-(Q+1) xi),

so the partition of unity holds to round-off on every resolved wavenumber and
blocks two or more octaves apart have disjoint supports.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .spectral import Field

__all__ = ["chi_cutoff", "phi_cutoff", "DyadicBlocks", "decompose", "besov_norm",
           "besov_norm_from_blocks", "inequality_suite"]


def _smooth_step(t):
    """C-infinity step: 1 for t <= 0, 0 for t >= 1 (standard exp(-1/t) bump)."""
    t = np.asarray(t, dtype=float)
    lo = np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)) * (t < 1.0)
    hi = np.exp(-1.0 / np.maximum(t, 1e-300)) * (t > 0.0)
    return lo / (lo + hi + (lo + hi == 0.0))


def chi_cutoff(xi):
    """Radial low-frequency cutoff: 1 on |xi| <= 1, 0 beyond 4/3."""
    return _smooth_step((np.abs(xi) - 1.0) * 3.0)


def phi_cutoff(xi):
    """Annulus cutoff phi(xi) = chi(xi/2) - chi(xi), supported in [1, 8/3]."""
    xi = np.asarray(xi, dtype=float)
    return chi_cutoff(xi / 2.0) - chi_cutoff(xi)


@dataclass
class DyadicBlocks:
    """Frequency-localized pieces of a sampled field, one row per block.

    ``blocks`` has shape (Q+2, n): row 0 is the low block (q = -1) and row i
    the annulus block q = i - 1, so ``q_values`` is -1..Q.  ``multipliers``
    holds the matching (Q+2, n/2+1) cutoffs on the grid's half-spectrum
    wavenumbers ``Grid.k``.
    """

    field: Field
    blocks: np.ndarray
    q_values: np.ndarray
    multipliers: np.ndarray

    def reconstruction_residual(self) -> float:
        return float(np.max(np.abs(self.blocks.sum(axis=0) - self.field.values)))

    def lp_norms(self, p: float) -> np.ndarray:
        """Discrete L^p norm of every block, dx-weighted; p = inf is the row max."""
        return _lp_norms(self.blocks, self.field.grid.dx, p)


def _lp_norms(blocks: np.ndarray, dx: float, p: float) -> np.ndarray:
    """dx-weighted discrete L^p norms over the last axis of ``blocks``."""
    v = np.abs(blocks)
    if math.isinf(p):
        return v.max(axis=-1)
    return (dx * np.sum(v**p, axis=-1)) ** (1.0 / p)


def q_max_for_grid(grid) -> int:
    return max(0, math.ceil(math.log2(grid.k_max)))


@functools.lru_cache(maxsize=32)
def _cutoffs(grid):
    """q_values -1..Q and the (Q+2, n/2+1) cutoff multipliers of a grid,
    built once per grid (equal grids share them) and read-only."""
    q_values = np.arange(-1, q_max_for_grid(grid) + 1)
    multipliers = np.vstack([chi_cutoff(grid.k), phi_cutoff(grid.k / 2.0 ** q_values[1:, None])])
    q_values.setflags(write=False)
    multipliers.setflags(write=False)
    return q_values, multipliers


def _blocks(grid, multipliers, values) -> np.ndarray:
    """(Q+2, n) blocks of one field's samples, or (F, Q+2, n) of F fields';
    pocketfft transforms each row alone, so no bit depends on the batch."""
    return np.fft.irfft(multipliers * np.fft.rfft(values)[..., None, :], grid.n)


def decompose(u: Field) -> DyadicBlocks:
    """Split one field u into its low block and dyadic annulus blocks
    covering the resolved band; a stack raises ValueError."""
    q_values, multipliers = _cutoffs(u.grid)
    return DyadicBlocks(field=u, blocks=_blocks(u.grid, multipliers, u.single_values("decompose")),
                        q_values=q_values, multipliers=multipliers)


def besov_norm_from_blocks(blocks: DyadicBlocks, s: float, p: float, r: float) -> float:
    if p < 1 or r < 1:
        raise ValueError(f"integrability indices must be >= 1, got p={p}, r={r}")
    return _besov_from_norms(blocks.q_values, blocks.lp_norms(p)[None], s, r)[0]


def _besov_from_norms(q_values, norms, s: float, r: float) -> list:
    """l^r norm over q of 2^(qs) * norms[:, q], one float per row of block L^p norms."""
    weights = 2.0 ** (q_values * s) * norms
    # 1/r power per float (libm pow): numpy's array ** 0.5 is sqrt, which can differ in the last bit
    return (np.max(weights, axis=1).tolist() if math.isinf(r)
            else [t ** (1.0 / r) for t in np.sum(weights**r, axis=1).tolist()])


def besov_norm(u: Field, s: float, p: float, r: float) -> float:
    """Besov norm of one field: the l^r norm over q of 2^(qs) * ||Delta_q u||_{L^p}."""
    return besov_norm_from_blocks(decompose(u), s, p, r)


# indices of the exact-inequality checks: B^s_{P,r} at s in {S1, S2} and the
# convex combination THETA*S1 + (1 - THETA)*S2
P = 2.0
S1 = 0.5
S2 = 1.5
THETA = 0.5
# fields per transform pair in ``inequality_suite``, which bounds its transient
# blocks, and per stack of the random fields of ``verify``'s sample-based suites
SUITE_BATCH = 16


def inequality_suite(stacks, exact_tol: float = 1e-12) -> tuple:
    """Exact-inequality checks over a sample of fields on one grid, given as
    ``Field``s that each hold one field or a stack of them, rows in order.

    Per field: (a) summation-index monotonicity (l^r nesting), (b) convexity
    interpolation in the smoothness index, (c) the logarithmic interpolation
    ratio, which has no closed-form constant and is only recorded.  The
    blocks are built from each stack as it is, at most ``SUITE_BATCH`` rows
    per rfft/irfft pair, so the transient (batch, Q+2, n) blocks stay the
    same size for any number of fields; each batch gives its block L^p norms
    and its reconstruction residuals, and each Besov norm is then one
    reduction over the (F, Q+2) norms.  pocketfft transforms each row alone,
    so no bit depends on how the fields are stacked.

    Returns four arrays, one row per field: ``excess`` (F, 6), how far each
    value exceeds its bound (the three r-monotonicity pairs, then the three
    interpolation r values), ``passed`` (F, 6), the excess within
    ``exact_tol`` relative to its bound, ``log_ratio`` (F,) and
    ``reconstruction`` (F,), max|sum of blocks - u|.  A NaN sample makes its
    field's values NaN and its checks fail.
    """
    grid, norms, reconstruction = None, [], []
    for u in stacks:
        grid = u.grid if grid is None else grid
        if u.grid != grid:
            raise ValueError(f"inequality_suite needs one grid, got {grid} and {u.grid}")
        q, multipliers = _cutoffs(grid)
        rows = u.values.reshape(-1, grid.n)  # a view: one field is a stack of one
        for lo in range(0, len(rows), SUITE_BATCH):
            values = rows[lo:lo + SUITE_BATCH]
            blocks = _blocks(grid, multipliers, values)
            norms.append(_lp_norms(blocks, grid.dx, P))
            reconstruction.append(np.max(np.abs(blocks.sum(axis=-2) - values), axis=-1))
    if grid is None:
        return np.empty((0, 6)), np.empty((0, 6), dtype=bool), np.empty(0), np.empty(0)
    norms, reconstruction = np.concatenate(norms), np.concatenate(reconstruction)
    s_mid, rs = THETA * S1 + (1.0 - THETA) * S2, (1.0, 2.0, math.inf)
    besov = {(s, r): _besov_from_norms(q, norms, s, r) for s in (S1, S2, s_mid) for r in rs}
    value = np.array([besov[S1, 2.0], besov[S1, math.inf], besov[S1, math.inf]]
                     + [besov[s_mid, r] for r in rs]).T
    # x ** THETA per float (libm pow), as in _besov_from_norms
    bound = np.array([besov[S1, 1.0], besov[S1, 2.0], besov[S1, 1.0]]
                     + [[x ** THETA * y ** (1.0 - THETA) for x, y in zip(besov[S1, r], besov[S2, r])]
                        for r in rs]).T
    excess = np.maximum(value - bound, 0.0)  # keeps a NaN
    passed = excess <= exact_tol * np.maximum(bound, 1e-300)
    # the ratio's smoothness indices 1/P and 1 + 1/P are S1 and S2
    log_ratio = np.array([
        0.0 if lo_inf == 0.0 else lo_1 / (lo_inf * math.log(math.e + hi_inf / lo_inf))
        for lo_1, lo_inf, hi_inf in zip(besov[S1, 1.0], besov[S1, math.inf], besov[S2, math.inf])])
    return excess, passed, log_ratio, reconstruction
