"""Grid, Field, spectral operators and dealiasing."""
import math
import tracemalloc

import numpy as np
import pytest

from shearwaves.besov import besov_norm, decompose, inequality_suite
from shearwaves.checks import CAMASSA_HOLM
from shearwaves.oracles import (
    GAUSS_NODES,
    GAUSS_WEIGHTS,
    camassa_holm_rhs,
    fd_derivative6,
    helmholtz_inverse_quadrature,
    trig_eval,
)
from shearwaves.solver import SimConfig, integrate
from shearwaves.spectral import (
    Field,
    Grid,
    csv_text,
    dealias,
    derivative,
    field_to_csv,
    helmholtz_inverse,
    helmholtz_inverse_dx,
    random_mode_coefficients,
    sobolev_norm,
    sup_norm,
    trig_field,
)


@pytest.fixture
def grid():
    return Grid(256, 40.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(15, 40.0)
    with pytest.raises(ValueError):
        Grid(33, 40.0)
    with pytest.raises(ValueError):
        Grid(64, -1.0)


def test_grid_equality_ignores_cached_multipliers():
    a, b = Grid(64, 40.0), Grid(64, 40.0)
    b.mult_helmholtz = np.zeros_like(b.mult_helmholtz)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Grid(64, 20.0) and a != Grid(128, 40.0)


def test_grid_wavenumbers(grid):
    assert grid.k.shape == (grid.n // 2 + 1,)  # the rfft half-spectrum 0..k_max
    assert grid.k[0] == 0.0
    assert grid.k[1] == pytest.approx(2 * np.pi / 40.0)
    assert grid.k[-1] == pytest.approx(grid.k_max)
    assert grid.k_max == pytest.approx(np.pi * 256 / 40.0)
    assert grid.dx == pytest.approx(40.0 / 256)


def test_field_shape_check(grid):
    # one field (n,) or a stack (F, n); a 0-d value, a last axis other than n
    # and a stack of stacks are refused
    for values in (np.zeros(100), np.zeros((3, 100)), np.float64(1.0), np.zeros((2, 2, grid.n))):
        with pytest.raises(ValueError, match="got shape"):
            Field(grid, values)
    assert Field(grid, np.zeros((3, grid.n))).values.shape == (3, grid.n)


def _stack(grid, fields, seed=40):
    a, b = random_mode_coefficients(np.random.default_rng(seed), 12, fields=fields)
    return trig_field(grid, a, b, amplitude=0.7)


@pytest.mark.parametrize("fields", [1, 3, 16])
@pytest.mark.parametrize("operator", [
    derivative, helmholtz_inverse, helmholtz_inverse_dx, dealias,
    lambda f: dealias(f, "strong"), lambda f: dealias(f, None),
], ids=["derivative", "helmholtz_inverse", "helmholtz_inverse_dx", "dealias-two_thirds",
        "dealias-strong", "dealias-none"])
def test_operators_on_a_stack_equal_per_row_bitwise(grid, operator, fields):
    stack = _stack(grid, fields)
    got = operator(stack).values
    assert got.shape == (fields, grid.n)
    for row, values in zip(got, stack.values):
        assert np.array_equal(row, operator(Field(grid, values)).values)


@pytest.mark.parametrize("reader", [
    "csv_text", "field_to_csv", "decompose", "besov_norm", "inequality_suite", "integrate",
    "trig_eval", "helmholtz_inverse_quadrature", "camassa_holm_rhs", "fd_derivative6",
])
def test_single_field_readers_refuse_a_stack(tmp_path, grid, reader):
    # each would mix the rows of a stack or fail deep inside
    stack = _stack(grid, 3)
    sim = SimConfig(grid=grid, coefficients=CAMASSA_HOLM, t_end=0.1, dt=0.01)
    call = {
        "csv_text": lambda: csv_text(stack),
        "field_to_csv": lambda: field_to_csv(stack, tmp_path / "snap.csv"),
        "decompose": lambda: decompose(stack),
        "besov_norm": lambda: besov_norm(stack, 1.0, 2.0, 2.0),
        "inequality_suite": lambda: inequality_suite([stack]),
        "integrate": lambda: integrate(sim, stack),
        "trig_eval": lambda: trig_eval(stack, [0.5]),
        "helmholtz_inverse_quadrature": lambda: helmholtz_inverse_quadrature(stack),
        "camassa_holm_rhs": lambda: camassa_holm_rhs(stack),
        "fd_derivative6": lambda: fd_derivative6(stack.values, grid.dx),
    }[reader]
    with pytest.raises(ValueError, match=r"takes one field, got values of shape \(3, 256\)"):
        call()
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("fields", [1, 3, 16])
def test_random_fields_as_a_stack_equal_per_field_draws_bitwise(grid, fields):
    stacked = random_mode_coefficients(np.random.default_rng(41), 9, fields=fields)
    rng = np.random.default_rng(41)
    one_by_one = [random_mode_coefficients(rng, 9) for _ in range(fields)]
    for got, want in zip(stacked, zip(*one_by_one)):
        assert got.shape == (fields, 9)
        assert np.array_equal(got, np.array(want))
    a, b = stacked
    a[0] = b[0] = 0.0  # a zero row: nothing to rescale
    for amplitude in (None, 0.7):
        f = trig_field(grid, a, b, amplitude)
        rows = [trig_field(grid, a_i, b_i, amplitude).values for a_i, b_i in zip(a, b)]
        assert np.array_equal(f.values, np.array(rows))
    assert not f.values[0].any()
    assert sup_norm(f) == max(sup_norm(Field(grid, row)) for row in f.values)


def test_derivative_constant_is_zero(grid):
    f = Field(grid, np.full(grid.n, 3.7))
    assert np.max(np.abs(derivative(f).values)) < 1e-14


def test_derivative_eigenfunction(grid):
    k = 2 * np.pi / 40.0
    f = Field(grid, np.sin(k * grid.x))
    err = np.max(np.abs(derivative(f).values - k * np.cos(k * grid.x)))
    assert err < 1e-12


def test_derivative_matches_fd6_at_expected_order():
    # random band-limited field; 6th-order differences approach the spectral
    # derivative at O(dx^6)
    rng = np.random.default_rng(1)
    a, b = random_mode_coefficients(rng, 8)
    errs = {}
    for n in (128, 256):
        g = Grid(n, 40.0)
        f = trig_field(g, a, b, amplitude=1.0)
        errs[n] = np.max(np.abs(fd_derivative6(f.values, g.dx) - derivative(f).values))
    assert errs[128] / errs[256] > 40  # 2^6 = 64 up to constants


def test_helmholtz_constant_fixed_point(grid):
    f = Field(grid, np.full(grid.n, 1.23))
    assert np.max(np.abs(helmholtz_inverse(f).values - 1.23)) < 1e-14


def test_helmholtz_eigenfunction(grid):
    k = 2 * np.pi * 5 / 40.0
    f = Field(grid, np.sin(k * grid.x))
    expect = np.sin(k * grid.x) / (1 + k * k)
    assert np.max(np.abs(helmholtz_inverse(f).values - expect)) < 1e-12


def test_helmholtz_linearity(grid):
    rng = np.random.default_rng(3)
    f = Field(grid, rng.standard_normal(grid.n))
    g = Field(grid, rng.standard_normal(grid.n))
    combo = Field(grid, 2.0 * f.values - 0.5 * g.values)
    direct = helmholtz_inverse(combo).values
    split = 2.0 * helmholtz_inverse(f).values - 0.5 * helmholtz_inverse(g).values
    assert np.max(np.abs(direct - split)) < 1e-13


def test_helmholtz_contracts_every_mode(grid):
    rng = np.random.default_rng(4)
    f = Field(grid, rng.standard_normal(grid.n))
    out = helmholtz_inverse(f)
    out_hat, f_hat = np.fft.fft(out.values) / grid.n, np.fft.fft(f.values) / grid.n
    assert np.all(np.abs(out_hat) <= np.abs(f_hat) + 1e-16)


def test_helmholtz_left_inverse(grid):
    rng = np.random.default_rng(5)
    a, b = random_mode_coefficients(rng, 20)
    f = trig_field(grid, a, b, amplitude=1.0)
    smooth = helmholtz_inverse(f)
    back = smooth.values - derivative(derivative(smooth)).values
    assert np.max(np.abs(back - f.values)) < 1e-12


def test_helmholtz_dx_is_composition(grid):
    rng = np.random.default_rng(6)
    f = Field(grid, rng.standard_normal(grid.n))
    a = helmholtz_inverse_dx(f).values
    b = derivative(helmholtz_inverse(f)).values
    assert np.max(np.abs(a - b)) < 1e-13


def test_helmholtz_dx_eigenfunction(grid):
    k = 2 * np.pi * 4 / 40.0
    f = Field(grid, np.sin(k * grid.x))
    expect = k * np.cos(k * grid.x) / (1 + k * k)
    assert np.max(np.abs(helmholtz_inverse_dx(f).values - expect)) < 1e-12
    const = Field(grid, np.ones(grid.n))
    assert np.max(np.abs(helmholtz_inverse_dx(const).values)) < 1e-15


def test_quadrature_oracle_agreement(grid):
    rng = np.random.default_rng(7)
    a, b = random_mode_coefficients(rng, 12)
    f = trig_field(grid, a, b, amplitude=1.0)
    quad = helmholtz_inverse_quadrature(f)
    assert np.max(np.abs(quad - helmholtz_inverse(f).values)) < 1e-8


def dense_trig_eval(f, points):
    """Reference interpolant: every mode's phase at every point as one complex
    exponential matrix, the Nyquist coefficient split between +/- n/2."""
    grid = f.grid
    hat = np.fft.fft(f.values) / grid.n
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.length / grid.n)
    ny = grid.n // 2
    phases = np.exp(1j * np.outer(np.asarray(points, dtype=float), k))
    vals = phases @ hat
    extra = hat[ny] * 0.5 * (np.exp(1j * np.outer(points, [-k[ny]])) -
                             np.exp(1j * np.outer(points, [k[ny]])))
    return (vals + extra[:, 0]).real


@pytest.mark.parametrize("n", [16, 64, 256])
def test_trig_eval_matches_dense_sum(n):
    grid = Grid(n, 40.0)
    rng = np.random.default_rng(n)
    nyquist = np.cos(np.pi * np.arange(n))
    points = rng.uniform(-40.0, 80.0, size=(6, 11))  # negative, beyond L, unsorted, 2-D
    for values in (rng.standard_normal(n), 0.3 * nyquist, np.sin(grid.x) + 0.5 * nyquist):
        f = Field(grid, values)
        for p in (grid.x, points, points[0]):
            got = trig_eval(f, p)
            assert got.shape == (np.size(p),)
            assert np.max(np.abs(got - dense_trig_eval(f, p))) < 1e-13 * np.max(np.abs(values))


def test_quadrature_oracle_memory(grid):
    # the interpolant at the 8 n Gauss nodes takes O(n) memory, no n x 8n matrix
    f = trig_field(grid, *random_mode_coefficients(np.random.default_rng(3), 12), amplitude=1.0)
    helmholtz_inverse_quadrature(f)  # first call loads what numpy loads lazily
    tracemalloc.start()
    try:
        helmholtz_inverse_quadrature(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_gauss_table_is_leggauss():
    # the oracle's table stands in for numpy's rule, which calls LAPACK
    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert np.array_equal(GAUSS_NODES, nodes)
    assert np.array_equal(GAUSS_WEIGHTS, weights)


def test_dealias_keeps_low_band(grid):
    a = np.zeros(grid.n // 3)
    a[:10] = np.linspace(1, 0.1, 10)
    f = trig_field(grid, a, np.zeros_like(a))
    cut = dealias(f, "two_thirds")
    assert np.max(np.abs(cut.values - f.values)) < 1e-13


def test_dealias_kills_nyquist(grid):
    f = Field(grid, np.cos(np.pi * np.arange(grid.n)))  # pure Nyquist mode
    assert np.max(np.abs(dealias(f, "two_thirds").values)) < 1e-13
    assert np.max(np.abs(dealias(f, "strong").values)) < 1e-13


def test_odd_multipliers_zero_the_nyquist_mode(grid):
    f = Field(grid, np.cos(np.pi * grid.n * grid.x / grid.length))  # pure Nyquist mode
    assert np.all(derivative(f).values == 0.0)
    assert np.all(helmholtz_inverse_dx(f).values == 0.0)
    expect = f.values / (1.0 + grid.k_max**2)
    assert np.max(np.abs(helmholtz_inverse(f).values - expect)) < 1e-15 * np.max(np.abs(expect))


def test_dealias_unknown_policy(grid):
    f = Field(grid, np.zeros(grid.n))
    with pytest.raises(ValueError):
        dealias(f, "off")


def test_strong_cut_dealiases_sixth_power():
    # two-mode field, sixth power on n vs a 4n alias-free reference
    n = 128
    gridn, grid4n = Grid(n, 40.0), Grid(4 * n, 40.0)

    def two_mode(g):
        return Field(g, 0.7 * np.cos(2 * np.pi * 5 * g.x / 40.0)
                     + 0.5 * np.sin(2 * np.pi * 9 * g.x / 40.0))

    u6 = Field(gridn, two_mode(gridn).values ** 6)
    ref_hat = np.fft.fft(two_mode(grid4n).values ** 6) / grid4n.n
    cut = dealias(u6, "strong")
    cut_hat = np.fft.fft(cut.values) / n
    k = 2 * np.pi * np.fft.fftfreq(n, gridn.dx)
    err = 0.0
    for idx in range(n):
        j = idx if idx <= n // 2 else idx - n
        if abs(k[idx]) <= (2.0 / 7.0) * gridn.k_max:
            err = max(err, abs(cut_hat[idx] - ref_hat[j % (4 * n)]))
    assert err < 1e-10


def test_sobolev_norm_matches_parseval(grid):
    rng = np.random.default_rng(8)
    a, b = random_mode_coefficients(rng, 30)
    f = trig_field(grid, a, b, amplitude=1.0)
    ux = derivative(f).values
    energy = grid.dx * np.sum(f.values**2 + ux**2)
    u_hat = np.fft.rfft(f.values)
    assert sobolev_norm(grid, u_hat, 1.0) ** 2 == pytest.approx(energy, rel=1e-12)
    l2 = math.sqrt(grid.dx * np.sum(f.values**2))
    assert sobolev_norm(grid, u_hat, 0.0) == pytest.approx(l2, rel=1e-12)


@pytest.mark.parametrize("s", [0.0, 1.0, 1.5])
def test_sobolev_norm_matches_full_spectrum_sum(grid, s):
    # nonzero mean and Nyquist content: the two half-spectrum bins counted once
    rng = np.random.default_rng(10)
    nyquist = np.cos(np.pi * grid.n * grid.x / grid.length)
    f = Field(grid, 0.7 + rng.standard_normal(grid.n) + 0.5 * nyquist)
    k = 2 * np.pi * np.fft.fftfreq(grid.n, grid.dx)

    def full_spectrum_norm(values):
        power = (1 + k**2) ** s * np.abs(np.fft.fft(values) / grid.n) ** 2
        return math.sqrt(grid.length * np.sum(power))

    u_hat = np.fft.rfft(f.values)
    assert sobolev_norm(grid, u_hat, s) == pytest.approx(full_spectrum_norm(f.values), rel=1e-14)
    # m < n/2+1 leading bins: the last one is not the Nyquist bin and counts twice
    cut = u_hat[:grid.retained_bins("two_thirds")]
    expect = full_spectrum_norm(np.fft.irfft(cut, grid.n))
    assert sobolev_norm(grid, cut, s) == pytest.approx(expect, rel=1e-14)


def _direct_trig_sum(grid, a, b):
    """sum_j a_j cos(k_j x) + b_j sin(k_j x), one mode at a time.  The phase
    k_j x_m = 2 pi j m / n is reduced mod n in integers first: formed as the
    float product k_j * x_m, its rounding alone moves the n = 4096 sum by up to
    1e-13 of the amplitude."""
    m = np.arange(grid.n)
    values = np.zeros(grid.n)
    for j in range(1, len(a) + 1):
        phase = 2.0 * np.pi * (j * m % grid.n) / grid.n
        values += a[j - 1] * np.cos(phase) + b[j - 1] * np.sin(phase)
    return values


@pytest.mark.parametrize("amplitude", [None, 0.7], ids=["raw", "amplitude"])
@pytest.mark.parametrize("n", [16, 256, 4096])
def test_trig_field_matches_direct_sum(n, amplitude):
    # O(1) coefficients on every allowed mode, the top one n/2 - 1 included
    grid = Grid(n, 40.0)
    rng = np.random.default_rng(n)
    a, b = rng.standard_normal(n // 2 - 1), rng.standard_normal(n // 2 - 1)
    total = np.sum(np.abs(a)) + np.sum(np.abs(b))
    scale = 1.0 if amplitude is None else amplitude / total
    f = trig_field(grid, a, b, amplitude)
    gap = np.max(np.abs(f.values - _direct_trig_sum(grid, a * scale, b * scale)))
    assert gap <= 1e-14 * total * scale


@pytest.mark.parametrize("cos_coeffs, sin_coeffs, message", [
    ([1.0], [0.0, 1.0], "1 cos but 2 sin"),
    ([1.0, 2.0], [1.0], "2 cos but 1 sin"),
    (np.ones(8), np.ones(8), "exceeds the grid band"),
], ids=["short-cos", "short-sin", "past-band"])
def test_trig_field_rejects_bad_coefficients(cos_coeffs, sin_coeffs, message):
    with pytest.raises(ValueError, match=message):
        trig_field(Grid(16, 40.0), cos_coeffs, sin_coeffs)


def test_csv_roundtrip(tmp_path, grid):
    rng = np.random.default_rng(9)
    f = Field(grid, rng.standard_normal(grid.n))
    path = tmp_path / "snap.csv"
    field_to_csv(f, path)
    first = path.read_text().splitlines()
    assert first[0] == "x,u"
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back[:, 0], grid.x)
    assert np.array_equal(back[:, 1], f.values)  # 17 significant digits round-trip exactly


@pytest.mark.parametrize("n", [16, 4096])
def test_csv_bytes_match_per_row_format(tmp_path, n):
    special = [0.0, -0.0, 5e-324, 1e-310, 1.7976931348623157e308,
               -1.7976931348623157e308, math.nan, math.inf, -math.inf]
    grid = Grid(n, 40.0)
    values = np.random.default_rng(n).standard_normal(n)
    values[:len(special)] = special
    path = tmp_path / "snap.csv"
    for f in (Field(grid, values), Field(grid, -values[::-1])):  # second write reuses the template
        field_to_csv(f, path)
        oracle = "x,u\n" + "".join(f"{x:.17g},{u:.17g}\n" for x, u in zip(grid.x, f.values))
        assert path.read_bytes() == oracle.encode()


def test_csv_text_is_the_written_file(tmp_path, grid):
    f = Field(grid, np.random.default_rng(3).standard_normal(grid.n))
    path = tmp_path / "snap.csv"
    field_to_csv(f, path)
    assert csv_text(f).encode() == path.read_bytes()
