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
    """Split u into its low block and dyadic annulus blocks covering the
    resolved band."""
    q_values, multipliers = _cutoffs(u.grid)
    return DyadicBlocks(field=u, blocks=_blocks(u.grid, multipliers, u.values),
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
    """Besov norm: the l^r norm over q of 2^(qs) * ||Delta_q u||_{L^p}."""
    return besov_norm_from_blocks(decompose(u), s, p, r)


# indices of the exact-inequality checks: B^s_{P,r} at s in {S1, S2} and the
# convex combination THETA*S1 + (1 - THETA)*S2
P = 2.0
S1 = 0.5
S2 = 1.5
THETA = 0.5
# fields per transform pair in ``inequality_suite``: bounds its transient blocks
SUITE_BATCH = 16


def _exact_entry(check: str, params: dict, value: float, bound: float, tol: float) -> dict:
    """Entry of the exact inequality value <= bound: its excess passes up to
    tol relative to the bound, and a NaN excess fails."""
    excess = max(value - bound, 0.0)  # keeps a NaN: 0.0 > NaN is false
    return {"check": check, "params": params, "defect_or_ratio": excess,
            "pass": bool(excess <= tol * max(bound, 1e-300))}


def inequality_suite(fields, exact_tol: float = 1e-12) -> list:
    """Exact-inequality checks over a sample of fields on one grid.

    Per field: (a) summation-index monotonicity (l^r nesting), (b) convexity
    interpolation in the smoothness index, (c) the logarithmic interpolation
    ratio, recorded and bounded by the constant fitted over the sample's finite
    ratios (no closed-form constant is available for it).  The block L^p norms
    fill one (F, Q+2) array, ``SUITE_BATCH`` fields per rfft/irfft pair, so
    the transient (batch, Q+2, n) blocks stay the same size for any F; each
    Besov norm is then one reduction over that array.

    Returns a list of dicts {check, params, defect_or_ratio, pass}; a NaN
    sample makes its field's defects NaN and its entries fail.
    """
    fields = list(fields)
    if not fields:
        return []
    grid = fields[0].grid
    for u in fields:
        if u.grid != grid:
            raise ValueError(f"inequality_suite needs one grid, got {grid} and {u.grid}")
    q, multipliers = _cutoffs(grid)
    norms = np.empty((len(fields), len(q)))
    for lo in range(0, len(fields), SUITE_BATCH):
        blocks = _blocks(grid, multipliers, [u.values for u in fields[lo:lo + SUITE_BATCH]])
        norms[lo:lo + SUITE_BATCH] = _lp_norms(blocks, grid.dx, P)
    s_mid = THETA * S1 + (1.0 - THETA) * S2
    besov = {(s, r): _besov_from_norms(q, norms, s, r)
             for s in {S1, S2, s_mid, 1.0 / P, 1.0 + 1.0 / P} for r in (1.0, 2.0, math.inf)}
    results, ratios = [], []
    for idx in range(len(fields)):
        for r1, r2 in ((1.0, 2.0), (2.0, math.inf), (1.0, math.inf)):
            results.append(_exact_entry(
                "r_monotonicity", {"field": idx, "s": S1, "p": P, "r1": r1, "r2": r2},
                besov[S1, r2][idx], besov[S1, r1][idx], exact_tol))
        for r in (1.0, 2.0, math.inf):
            bound = besov[S1, r][idx] ** THETA * besov[S2, r][idx] ** (1.0 - THETA)
            results.append(_exact_entry(
                "interpolation", {"field": idx, "s1": S1, "s2": S2, "theta": THETA, "p": P, "r": r},
                besov[s_mid, r][idx], bound, exact_tol))

        low_1, low_inf = besov[1.0 / P, 1.0][idx], besov[1.0 / P, math.inf][idx]
        high_inf = besov[1.0 + 1.0 / P, math.inf][idx]
        ratio = 0.0 if low_inf == 0.0 else low_1 / (low_inf * math.log(math.e + high_inf / low_inf))
        ratios.append((idx, ratio))

    fitted = max((r for _, r in ratios if math.isfinite(r)), default=0.0)
    for idx, ratio in ratios:
        results.append({
            "check": "log_interpolation_ratio",
            "params": {"field": idx, "p": P, "fitted_constant": fitted},
            "defect_or_ratio": ratio,
            "pass": bool(math.isfinite(ratio) and ratio <= fitted),
        })
    return results
