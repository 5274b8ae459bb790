"""Dyadic decomposition, Besov norms and the exact-inequality suite."""
import math
import tracemalloc

import numpy as np
import pytest

from shearwaves.besov import (
    besov_norm,
    besov_norm_from_blocks,
    chi_cutoff,
    decompose,
    inequality_suite,
    phi_cutoff,
    q_max_for_grid,
)
from shearwaves.spectral import Field, Grid, random_mode_coefficients, trig_field


@pytest.fixture
def grid():
    return Grid(256, 40.0)


def test_cutoff_supports():
    xi = np.linspace(-6, 6, 4001)
    chi = chi_cutoff(xi)
    assert np.all(chi[np.abs(xi) <= 1.0] == 1.0)
    assert np.all(chi[np.abs(xi) >= 4.0 / 3.0] == 0.0)
    assert np.all((0.0 <= chi) & (chi <= 1.0))
    phi = phi_cutoff(xi)
    assert np.all(phi[np.abs(xi) <= 0.99] == 0.0)
    assert np.all(phi[np.abs(xi) >= 8.0 / 3.0] == 0.0)
    inside = (np.abs(xi) >= 4.0 / 3.0) & (np.abs(xi) <= 2.0)
    assert np.all(phi[inside] == 1.0)


def test_partition_of_unity_on_grid(grid):
    total = chi_cutoff(grid.k).copy()
    for q in range(q_max_for_grid(grid) + 1):
        total += phi_cutoff(grid.k / 2.0**q)
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_constant_field_lives_in_low_block(grid):
    blocks = decompose(Field(grid, np.full(grid.n, 0.7)))
    assert np.max(np.abs(blocks.blocks[0] - 0.7)) < 1e-13
    for blk in blocks.blocks[1:]:
        assert np.max(np.abs(blk)) < 1e-13


def test_single_mode_hits_single_block(grid):
    # k_38 = 5.97 sits in the flat part of the q = 2 annulus
    u = Field(grid, np.cos(grid.k[38] * grid.x))
    blocks = decompose(u)
    active = [q for q, blk in zip(blocks.q_values, blocks.blocks)
              if np.max(np.abs(blk)) > 1e-12]
    assert active == [2]


def test_reconstruction_random_field(grid):
    rng = np.random.default_rng(0)
    a, b = random_mode_coefficients(rng, 100, decay=0.05)
    u = trig_field(grid, a, b, amplitude=1.0)
    assert decompose(u).reconstruction_residual() < 1e-10


def test_cutoffs_built_once_per_grid_and_read_only(grid):
    # decompose reuses one cached set of multipliers per grid; a caller
    # writing into them would change every later decomposition
    equal_grid = Grid(grid.n, grid.length)
    first = decompose(Field(grid, np.zeros(grid.n)))
    second = decompose(Field(equal_grid, np.ones(grid.n)))
    assert first.multipliers is second.multipliers
    assert first.q_values is second.q_values
    with pytest.raises(ValueError):
        first.multipliers[0, 0] = 2.0
    with pytest.raises(ValueError):
        first.q_values[0] = 7


def test_blocks_are_real(grid):
    rng = np.random.default_rng(1)
    a, b = random_mode_coefficients(rng, 60)
    u = trig_field(grid, a, b, amplitude=1.0)
    assert decompose(u).blocks.dtype == np.float64


def test_blocks_two_octaves_apart_are_orthogonal(grid):
    rng = np.random.default_rng(2)
    a, b = random_mode_coefficients(rng, 100, decay=0.02)
    u = trig_field(grid, a, b, amplitude=1.0)
    blocks = decompose(u)
    norm = math.sqrt(grid.dx * np.sum(u.values**2))
    for i, mi in enumerate(blocks.multipliers):
        for j, mj in enumerate(blocks.multipliers):
            if abs(blocks.q_values[i] - blocks.q_values[j]) >= 2:
                overlap = np.max(np.abs(mi * mj * np.abs(np.fft.rfft(u.values)) / grid.n))
                assert overlap < 1e-10 * max(norm, 1.0)


def test_blocks_match_full_spectrum_composition(grid):
    rng = np.random.default_rng(6)
    u = Field(grid, 0.3 + rng.standard_normal(grid.n))
    k = np.abs(2 * np.pi * np.fft.fftfreq(grid.n, grid.dx))
    blocks = decompose(u)
    for q, blk in zip(blocks.q_values, blocks.blocks):
        mult = chi_cutoff(k) if q == -1 else phi_cutoff(k / 2.0**q)
        expect = np.fft.ifft(np.fft.fft(u.values) * mult).real
        assert np.max(np.abs(blk - expect)) <= 1e-13 * np.max(np.abs(u.values))


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf], ids=["1", "2", "3", "inf"])
def test_block_norms_match_per_block_quadrature(grid, p):
    rng = np.random.default_rng(8)
    blocks = decompose(Field(grid, 0.3 + rng.standard_normal(grid.n)))
    norms = blocks.lp_norms(p)
    expect = []
    for row in blocks.blocks:
        v = np.abs(row)
        expect.append(np.max(v) if math.isinf(p) else (grid.dx * np.sum(v**p)) ** (1.0 / p))
    assert norms.shape == (len(expect),)
    np.testing.assert_allclose(norms, expect, rtol=1e-14, atol=0.0)
    # s < 0 weights the low block (q = -1) by 2^(+0.5), above every annulus
    s = -0.5
    weights = [2.0 ** (q * s) * e for q, e in enumerate(expect, start=-1)]
    for r in (1.0, 2.0, math.inf):
        oracle = max(weights) if math.isinf(r) else sum(w**r for w in weights) ** (1.0 / r)
        assert besov_norm_from_blocks(blocks, s, p, r) == pytest.approx(oracle, rel=1e-14)


def test_zero_field_norm(grid):
    z = Field(grid, np.zeros(grid.n))
    assert besov_norm(z, 0.5, 2.0, 1.0) == 0.0
    assert besov_norm(z, 0.5, math.inf, math.inf) == 0.0


def test_besov_rejects_bad_indices(grid):
    u = Field(grid, np.zeros(grid.n))
    with pytest.raises(ValueError):
        besov_norm(u, 0.5, 0.5, 2.0)
    with pytest.raises(ValueError):
        besov_norm(u, 0.5, 2.0, 0.0)


def test_b022_comparable_to_l2(grid):
    rng = np.random.default_rng(3)
    for _ in range(10):
        a, b = random_mode_coefficients(rng, 80, decay=0.05)
        u = trig_field(grid, a, b, amplitude=1.0)
        ratio = besov_norm(u, 0.0, 2.0, 2.0) / math.sqrt(grid.dx * np.sum(u.values**2))
        assert 1.0 / math.sqrt(2.0) <= ratio <= math.sqrt(2.0)


def test_homogeneity(grid):
    rng = np.random.default_rng(4)
    a, b = random_mode_coefficients(rng, 30)
    u = trig_field(grid, a, b, amplitude=1.0)
    for (s, p, r) in [(0.5, 2.0, 2.0), (1.5, 2.0, 1.0), (0.0, math.inf, math.inf),
                      (1.0, 3.0, 4.0)]:
        n1 = besov_norm(u, s, p, r)
        n2 = besov_norm(Field(grid, 2.0 * u.values), s, p, r)
        assert n2 == pytest.approx(2.0 * n1, rel=1e-12)


def test_monotone_in_smoothness_for_annulus_content(grid):
    # with the low block empty, raising s raises every weight 2^(qs), q >= 0
    u = Field(grid, np.cos(grid.k[38] * grid.x) + 0.5 * np.cos(grid.k[90] * grid.x))
    blocks = decompose(u)
    assert np.max(np.abs(blocks.blocks[0])) < 1e-12
    values = [besov_norm_from_blocks(blocks, s, 2.0, 2.0) for s in (0.0, 0.5, 1.0, 2.0)]
    assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))


def test_inequality_suite_on_sample(grid):
    rng = np.random.default_rng(5)
    fields = []
    for _ in range(100):
        a, b = random_mode_coefficients(rng, 40)
        fields.append(trig_field(grid, a, b, amplitude=1.0))
    excess, passed, log_ratio, reconstruction = inequality_suite(fields)
    assert excess.shape == passed.shape == (100, 6)
    assert log_ratio.shape == reconstruction.shape == (100,)
    assert passed.all()
    assert np.isfinite(log_ratio).all()


def test_inequality_suite_entries_equal_per_entry_besov_norms(grid):
    # every entry recomputed from a fresh besov_norm(u, s, 2, r) per norm, and
    # every reconstruction from a fresh decompose(u): the suite's shared
    # batched blocks must not move a single bit
    rng = np.random.default_rng(17)
    fields = [trig_field(grid, *random_mode_coefficients(rng, 40), amplitude=1.0)
              for _ in range(100)]
    excess, passed, log_ratio, reconstruction = inequality_suite(fields)
    expect = []
    ratios = []
    for u in fields:
        row = []
        for r1, r2 in ((1.0, 2.0), (2.0, math.inf), (1.0, math.inf)):
            n1, n2 = besov_norm(u, 0.5, 2.0, r1), besov_norm(u, 0.5, 2.0, r2)
            row.append(max(0.0, n2 - n1))
        for r in (1.0, 2.0, math.inf):
            bound = besov_norm(u, 0.5, 2.0, r) ** 0.5 * besov_norm(u, 1.5, 2.0, r) ** 0.5
            row.append(max(0.0, besov_norm(u, 1.0, 2.0, r) - bound))
        expect.append(row)
        low_1, low_inf = besov_norm(u, 0.5, 2.0, 1.0), besov_norm(u, 0.5, 2.0, math.inf)
        high_inf = besov_norm(u, 1.5, 2.0, math.inf)
        ratios.append(low_1 / (low_inf * math.log(math.e + high_inf / low_inf)))
    assert excess.tolist() == expect
    assert log_ratio.tolist() == ratios
    assert reconstruction.tolist() == [decompose(u).reconstruction_residual() for u in fields]
    assert passed.all()


def test_inequality_suite_memory_is_bounded_by_its_batch(grid):
    # 100 fields at n = 256 as one (100, Q+2, n) block array peaked at about
    # 4.1 MiB; batches of SUITE_BATCH fields keep the blocks and the report
    # under 1 MiB
    rng = np.random.default_rng(31)
    fields = [trig_field(grid, *random_mode_coefficients(rng, 40), amplitude=1.0)
              for _ in range(100)]
    inequality_suite(fields)  # first call loads what numpy loads lazily
    tracemalloc.start()
    try:
        inequality_suite(fields)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


def test_inequality_suite_zero_field_vacuous(grid):
    excess, passed, log_ratio, reconstruction = inequality_suite([Field(grid, np.zeros(grid.n))])
    assert passed.all()
    assert excess.tolist() == [[0.0] * 6]
    assert log_ratio.tolist() == reconstruction.tolist() == [0.0]


def test_inequality_suite_entries_equal_per_entry_besov_norms_coarse_grid():
    # n = 64 has fewer blocks than n = 256 (another Q); the zero field takes the
    # ratio's vacuous branch
    grid = Grid(64, 40.0)
    assert q_max_for_grid(grid) != q_max_for_grid(Grid(256, 40.0))
    rng = np.random.default_rng(23)
    fields = [trig_field(grid, *random_mode_coefficients(rng, 20), amplitude=1.0)
              for _ in range(30)]
    fields.insert(4, Field(grid, np.zeros(grid.n)))
    excess, passed, log_ratio, reconstruction = inequality_suite(fields)
    expect = []
    ratios = []
    for u in fields:
        norm = {(s, r): besov_norm(u, s, 2.0, r)
                for s in (0.5, 1.0, 1.5) for r in (1.0, 2.0, math.inf)}
        row = [max(0.0, norm[0.5, r2] - norm[0.5, r1])
               for r1, r2 in ((1.0, 2.0), (2.0, math.inf), (1.0, math.inf))]
        for r in (1.0, 2.0, math.inf):
            bound = norm[0.5, r] ** 0.5 * norm[1.5, r] ** 0.5
            row.append(max(0.0, norm[1.0, r] - bound))
        expect.append(row)
        low_1, low_inf, high_inf = norm[0.5, 1.0], norm[0.5, math.inf], norm[1.5, math.inf]
        ratios.append(0.0 if low_inf == 0.0 else
                      low_1 / (low_inf * math.log(math.e + high_inf / low_inf)))
    assert excess.tolist() == expect
    assert log_ratio.tolist() == ratios
    assert reconstruction.tolist() == [decompose(u).reconstruction_residual() for u in fields]
    assert passed.all()
    assert ratios[4] == 0.0


def test_inequality_suite_nan_sample_fails_its_field_only(grid):
    rng = np.random.default_rng(29)
    fields = [trig_field(grid, *random_mode_coefficients(rng, 40), amplitude=1.0)
              for _ in range(6)]
    clean = inequality_suite(fields)
    values = fields[0].values.copy()
    values[17] = np.nan
    fields[0] = Field(grid, values)
    report = inequality_suite(fields)
    excess, passed, log_ratio, reconstruction = report
    assert np.isnan(excess[0]).all() and not passed[0].any()
    assert math.isnan(log_ratio[0]) and math.isnan(reconstruction[0])
    assert passed[1:].all()
    # the other fields' rows are bit for bit those of the clean sample
    for after, before in zip(report, clean):
        assert after.shape == before.shape
        assert after[1:].tobytes() == before[1:].tobytes()


def test_inequality_suite_empty_sample(grid):
    excess, passed, log_ratio, reconstruction = inequality_suite([])
    assert excess.shape == passed.shape == (0, 6)
    assert log_ratio.shape == reconstruction.shape == (0,)


def test_inequality_suite_rejects_mixed_grids(grid):
    other = Grid(128, 40.0)
    fields = [Field(grid, np.zeros(grid.n)), Field(other, np.zeros(other.n))]
    with pytest.raises(ValueError, match=r"Grid\(n=256, length=40\.0\).*Grid\(n=128, length=40\.0\)"):
        inequality_suite(fields)


def test_r_monotonicity_exact(grid):
    rng = np.random.default_rng(6)
    a, b = random_mode_coefficients(rng, 50)
    u = trig_field(grid, a, b, amplitude=1.0)
    blocks = decompose(u)
    n1 = besov_norm_from_blocks(blocks, 0.5, 2.0, 1.0)
    n2 = besov_norm_from_blocks(blocks, 0.5, 2.0, 2.0)
    ninf = besov_norm_from_blocks(blocks, 0.5, 2.0, math.inf)
    assert ninf <= n2 + 1e-12 * n2
    assert n2 <= n1 + 1e-12 * n1


def test_interpolation_exact(grid):
    rng = np.random.default_rng(7)
    a, b = random_mode_coefficients(rng, 50)
    u = trig_field(grid, a, b, amplitude=1.0)
    blocks = decompose(u)
    na = besov_norm_from_blocks(blocks, 0.5, 2.0, 2.0)
    nb = besov_norm_from_blocks(blocks, 1.5, 2.0, 2.0)
    nm = besov_norm_from_blocks(blocks, 1.0, 2.0, 2.0)
    assert nm <= math.sqrt(na * nb) * (1 + 1e-12)
