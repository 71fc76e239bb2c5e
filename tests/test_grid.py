import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qadic import bimodule, grid
from qadic.cli import RunConfig, default_cases, run_duality_cases
from qadic.errors import MemoryBudgetExceeded
from qadic.grid import (
    BumpSymbol,
    GaussianSymbol,
    GridFunction,
    TabulatedFourierPair,
    affine_reindex,
    dilate,
    export_csv,
    fourier,
    fourier_inv,
    grid_sample,
    import_csv,
    indicator,
    inner,
    intertwining_residual,
    multiply,
    norm,
    rep_apply,
    sample_symbol,
    translate,
    twisted_correlation,
)
from qadic.numbers import PowerOfTwo, dyadic

rng = random.Random(31337)

G = 6
WINDOW = 16.0


def gaussian(center=0.0, width=1.0, modulation=0, g=G):
    sym = GaussianSymbol(center, width, modulation)
    return sample_symbol(sym, g, -WINDOW, WINDOW)


# -- translation and dilation -------------------------------------------------


def test_translate_identity():
    xi = gaussian()
    out = translate(xi, 0)
    assert out.start_index == xi.start_index
    assert np.allclose(out.samples, xi.samples)


def test_translate_integer_reindex():
    xi = indicator(3, 0, 1)
    out = translate(xi, 1)
    assert out.spacing_exp == 3
    assert out.start_index == xi.start_index + 8
    assert norm(out) == pytest.approx(norm(xi))


def test_translate_refines_fine_shift():
    # the shift moves the stored samples to the finer grid; to_grid refines them
    xi = indicator(3, 0, 1)
    out = translate(xi, dyadic(1, 4))
    assert np.shares_memory(out.samples, xi.samples)
    fine = out.to_grid(4)
    assert fine.spacing_exp == 4
    assert fine.start_index == 1
    assert len(fine) == 16
    assert norm(fine) == pytest.approx(norm(xi), abs=1e-12)


def test_dilate_unitary_and_inverse():
    xi = gaussian(0.25, 0.5)
    two = PowerOfTwo(1)
    assert norm(dilate(xi, two)) == pytest.approx(norm(xi), abs=1e-12)
    back = dilate(dilate(xi, two), PowerOfTwo(-1))
    assert back.spacing_exp == xi.spacing_exp
    assert np.allclose(back.samples, xi.samples)


def test_dilate_translate_commutation():
    # D_a T_b = T_{ab} D_a
    xi = gaussian(-0.5, 0.75)
    a, b = PowerOfTwo(1), dyadic(3, 2)
    lhs = dilate(translate(xi, b), a)
    rhs = translate(dilate(xi, a), dyadic(3, 1))  # ab = 2 * 3/4 = 3/2
    assert norm(lhs - rhs) <= 1e-12 * norm(xi)


def test_dilate_values():
    xi = indicator(G, 0, 1)
    out = rep_apply(GaussianSymbol(0, 1e9), 0, PowerOfTwo(1), xi)  # f ~ 1 on the window
    expected = indicator(G - 1, 0, 1)  # support [0, 2) after x -> x/2
    assert out.support()[1] * 1.0 == pytest.approx(2.0 - out.h, abs=1e-9)
    assert abs(out.samples[0] - 2 ** -0.5) < 1e-9


# -- multiplication and the covariant representation ------------------------------


def test_multiply_by_one_like():
    xi = indicator(G, 0, 1)
    flat = GaussianSymbol(0.0, 1e8)
    out = multiply(flat, xi)
    assert np.allclose(out.samples, xi.samples, atol=1e-9)


def test_multiply_contraction_bound():
    xi = gaussian(0.5, 0.5, 2)
    f = GaussianSymbol(0.25, 0.3, 1)
    assert norm(multiply(f, xi)) <= 1.0 * norm(xi) + 1e-12  # sup |f| = 1


def test_rep_apply_pure_translation():
    xi = gaussian()
    out = rep_apply(GaussianSymbol(0, 1e8), dyadic(1, 1), PowerOfTwo(0), xi)
    ref = translate(xi, dyadic(1, 1))
    assert norm(out - ref) <= 1e-8 * norm(xi)


def test_rep_apply_covariance_law():
    # pi(f,(b,a)) pi(1,(b',a')) = pi(f,(b + a b', a a'))
    f = GaussianSymbol(0.0, 0.8, 1)
    xi = gaussian(0.25, 0.6)
    one_sym = GaussianSymbol(0.0, 1e8)
    b, bp = dyadic(1, 1), dyadic(-3, 2)
    a, ap = PowerOfTwo(1), PowerOfTwo(-1)
    lhs = rep_apply(f, b, a, rep_apply(one_sym, bp, ap, xi))
    combined_b = b + dyadic(-3, 2) * a.as_dyadic()  # b + a b' = 1/2 - 3/2 = -1
    rhs = rep_apply(f, combined_b, a * ap, xi)
    assert norm(lhs - rhs) <= 1e-7 * norm(xi)


# -- Fourier layer ------------------------------------------------------------------


def test_gaussian_self_duality():
    xi = gaussian()
    ft = fourier(xi)
    # closed form under the e(tx) convention
    pts = ft.points()
    mask = np.abs(pts) <= 4.0
    exact = np.exp(-np.pi * pts[mask] ** 2)
    assert np.max(np.abs(ft.samples[mask] - exact)) <= 1e-6


def test_fourier_matches_direct_quadrature():
    # oracle: Riemann sum of the defining integral at a handful of t values
    xi = gaussian(0.5, 0.7, 1)
    ft = fourier(xi)
    x = xi.points()
    for t in (0.0, 0.25, -1.5, 3.0):
        direct = np.sum(np.exp(2j * np.pi * t * x) * xi.samples) * xi.h
        assert abs(grid_sample(ft, t)[0] - direct) <= 1e-9


def test_plancherel():
    for xi in (gaussian(), gaussian(1.5, 0.4, 3), gaussian(-2.0, 2.0)):
        assert abs(norm(fourier(xi)) - norm(xi)) <= 1e-6 * norm(xi)


def test_fourier_round_trip():
    xi = gaussian(0.5, 0.9, 2)
    back = fourier_inv(fourier(xi))
    assert norm(back - xi) <= 1e-8 * norm(xi)
    forth = fourier(fourier_inv(xi))
    assert norm(forth - xi) <= 1e-8 * norm(xi)


def test_fourier_translation_modulation():
    xi = gaussian(0.0, 0.8)
    b = dyadic(3, 1)
    lhs = fourier(translate(xi, b))
    ft = fourier(xi)
    rhs = GridFunction(ft.spacing_exp, ft.start_index,
                       ft.samples * np.exp(2j * np.pi * float(b) * ft.points()))
    assert norm(lhs - rhs) <= 1e-7 * norm(xi)


def _direct_fourier(xi, ft, j, sign):
    """The Riemann sum h * sum_k e(sign t_j x_k) xi(x_k) at the points t_j of
    ft's grid, with t_j x_k = j (start + k) / period reduced in integers."""
    period = 1 << (ft.spacing_exp + xi.spacing_exp)
    idx = xi.start_index + np.arange(len(xi), dtype=np.int64)
    return np.array([xi.h * np.sum(np.exp(sign * 2j * np.pi * ((jj * idx) % period) / period)
                                   * xi.samples) for jj in j])


FOURIER_ORACLE_INPUTS = {
    "centred gaussian": sample_symbol(GaussianSymbol(), 6, -WINDOW, WINDOW),
    "wide gaussian": sample_symbol(GaussianSymbol(0.0, 4.0), 6, -WINDOW, WINDOW),
    "off-centre gaussian": sample_symbol(GaussianSymbol(100.0, 0.8), 6, 95, 105),
    "gaussian near nyquist": sample_symbol(GaussianSymbol(0.0, 1.0, 27), 6, -8, 8),
    "gaussian across nyquist": sample_symbol(GaussianSymbol(0.0, 1.0, 32), 6, -8, 8),
    "indicator": indicator(6, dyadic(-1, 1), 1),
    "indicator of 2^6 samples": indicator(6, 0, 1),
}


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("name", list(FOURIER_ORACLE_INPUTS))
def test_fourier_matches_direct_sum_in_and_outside_the_band(name, sign):
    xi = FOURIER_ORACLE_INPUTS[name]
    ft = fourier(xi) if sign > 0 else fourier_inv(xi)
    scale = xi.h * np.sum(np.abs(xi.samples))
    period = 1 << (ft.spacing_exp + xi.spacing_exp)
    kept = np.arange(ft.start_index, ft.start_index + len(ft))
    assert np.max(np.abs(_direct_fourier(xi, ft, kept, sign) - ft.samples)) <= 1e-13 * scale
    # every point of the period outside the kept band is below the roundoff bound
    dropped = np.setdiff1d(np.arange(-period // 2, period // 2), kept)
    coarse = 2 * len(xi)
    bound = xi.h * np.finfo(float).eps * math.log2(coarse) * math.sqrt(coarse) \
        * np.linalg.norm(xi.samples)
    if len(dropped):
        assert np.max(np.abs(_direct_fourier(xi, ft, dropped, sign))) <= bound
    if name in ("indicator", "indicator of 2^6 samples", "gaussian across nyquist"):
        assert len(ft) >= period - 1          # no decay: the whole period is kept
    else:
        assert len(ft) <= period // 4


def test_fourier_output_is_band_limited():
    assert len(fourier(sample_symbol(GaussianSymbol(), 10, -16, 16))) < 2 ** 16


def test_default_duality_transforms_are_band_limited(monkeypatch):
    sizes, periods = [], []
    for name in ("fourier", "fourier_inv"):
        def counted(xi, _inner=getattr(grid, name)):
            out = _inner(xi)
            sizes.append(len(out))
            return out
        monkeypatch.setattr(grid, name, counted)
    fft_size = grid._fft_size
    monkeypatch.setattr(grid, "_fft_size", lambda xi: periods.append(fft_size(xi)) or periods[-1])
    monkeypatch.setattr(grid, "_chirp_z", None)  # one length-L FFT serves every leg
    for g in (10, 12):
        assert run_duality_cases(default_cases(), RunConfig(grid_exp=g))["pass"]
    assert len(sizes) == len(periods) == 4 * len(default_cases())
    assert max(sizes) < 2 ** 16
    # each period is sized from its leg; a reciprocal spacing of 2^-g would take 2^26
    assert max(periods) <= 2 ** 16


def test_default_duality_transforms_fit_their_fast_lengths(monkeypatch):
    # power-of-two padding took the longest transform to 2^15 points at g = 10 and 2^17
    # at g = 12, and each correlation convolution up to twice its linear length
    calls = _spy_fft(monkeypatch)
    convolutions = []
    correlation = bimodule.twisted_correlation

    def spied(*args):
        first = len(calls)
        out = correlation(*args)
        convolutions.append([call for call in calls[first:] if call[0] < call[1]])
        return out

    monkeypatch.setattr(bimodule, "twisted_correlation", spied)
    for g, longest in ((10, 1 << 14), (12, 1 << 16)):
        calls.clear()
        convolutions.clear()
        assert run_duality_cases(default_cases(), RunConfig(grid_exp=g))["pass"]
        assert max(size for _, size in calls) <= longest
        assert len(convolutions) == len(default_cases())
        for (n, size), (m, size_m) in convolutions:  # its two zero-padded forward FFTs
            assert size == size_m <= 1.25 * (n + m - 1)


def test_fine_dilation_passes_once_resolved():
    # c = 2^-6 refines xi six levels; it fits the budget and passes from g = 7
    case = dict(default_cases()[2], c="1/2^6")
    report = run_duality_cases([case], RunConfig(grid_exp=7))
    assert report["pass"]
    assert report["cases"][0]["residual"] < 1e-10


def test_plain_transform_beyond_budget_raises_before_allocating(monkeypatch):
    sizes = []
    dft = grid._dft
    monkeypatch.setattr(grid, "_dft",
                        lambda x, size, sign: sizes.append(size) or dft(x, size, sign))
    xi = indicator(21, 0, dyadic(1, 8))  # 2^13 samples at 2^-21: a period of 2^25, no decay
    assert grid._fft_size(xi) > grid.MAX_PLAIN_FFT
    with pytest.raises(MemoryBudgetExceeded):
        fourier(xi)
    assert sizes and max(sizes) <= 4 * len(xi)


def test_wide_band_is_refused_before_the_multiply():
    # fcheck of a Gaussian of width 1e-7 reaches 6e7: f's band needs spacing 2^-28
    leg = fourier_inv(gaussian())
    tracemalloc.start()
    try:
        with pytest.raises(MemoryBudgetExceeded, match="refining to spacing 2.-28 needs"):
            grid.rep_apply(GaussianSymbol(0.0, 1e-7), 0, PowerOfTwo(0), leg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_band_transform_beyond_budget_raises_before_allocating(monkeypatch):
    monkeypatch.setattr(grid, "_chirp_z", None)  # never reached
    far = gaussian(0.0, 0.5, g=6)
    far = GridFunction(far.spacing_exp, far.start_index + (1 << 66), far.samples)
    with pytest.raises(MemoryBudgetExceeded,
                       match=r"chirp-z transform of the band needs at least 2\^66 points"):
        fourier(far)


def test_chirp_z_matches_the_direct_sum():
    rng = np.random.default_rng(7)
    for _ in range(40):
        size, sign = 1 << int(rng.integers(10, 23)), int(rng.choice([1, -1]))
        n, m = int(rng.integers(1, 301)), int(rng.integers(1, 301))
        lo = int(rng.integers(-size // 2, size // 2))
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        # sum_k x_k e(sign (lo + q) k / size), each exponent reduced in integers
        q, k = np.arange(lo, lo + m, dtype=np.int64)[:, None], np.arange(n, dtype=np.int64)
        direct = np.exp(sign * 2j * np.pi * ((q * k) % size) / size) @ x
        out = grid._chirp_z(x, size, lo, m, sign)
        assert np.abs(out - direct).max() <= 1e-13 * np.abs(x).sum()


def test_off_centre_duality_case_reaches_chirp_z(monkeypatch):
    # legs far off centre: a long period, but a narrow band cut out by chirp-z
    case = dict(default_cases()[2], xi={"kind": "gaussian", "center": 12, "width": 0.5},
                xi1={"kind": "gaussian", "center": 12.5, "width": 1})
    calls = []
    chirp_z = grid._chirp_z
    monkeypatch.setattr(grid, "_chirp_z", lambda *args: calls.append(args) or chirp_z(*args))
    assert run_duality_cases([case], RunConfig(grid_exp=10))["pass"]
    assert calls


def test_points_beyond_int64():
    rng = random.Random(5)
    for _ in range(200):  # bit-identical to (start + k) h where that is exact
        xi = GridFunction(rng.randint(-8, 12), rng.randint(-2 ** 52, 2 ** 52), np.ones(5))
        assert np.array_equal(xi.points(), (xi.start_index + np.arange(5)) * xi.h)
    far = GridFunction(6, (1 << 1000) + 1, np.ones(3))  # rounds to 2^994
    assert list(far.points()) == [2.0 ** 994] * 3


def test_indicator_beyond_budget_raises_before_allocating():
    with pytest.raises(MemoryBudgetExceeded, match="indicator at spacing 2.-6"):
        indicator(6, 0, 1 << 40)


# -- inner products --------------------------------------------------------------------


def test_inner_positive_real():
    xi = gaussian(0.5, 0.5, 2)
    val = inner(xi, xi)
    assert val.imag == pytest.approx(0.0, abs=1e-12)
    assert val.real > 0


def test_inner_indicator_exact():
    xi = indicator(4, 0, 1)
    assert inner(xi, xi) == pytest.approx(1.0, abs=1e-12)


def test_inner_disjoint_supports():
    assert inner(indicator(4, 0, 1), indicator(4, 2, 3)) == 0


def test_inner_conjugate_linear_first():
    xi = gaussian(0, 0.5, 1)
    eta = gaussian(0.25, 0.5)
    assert inner(xi.scale(2j), eta) == pytest.approx(-2j * inner(xi, eta))
    assert inner(xi, eta.scale(2j)) == pytest.approx(2j * inner(xi, eta))


def test_inner_mixed_grids():
    a = indicator(4, 0, 1)
    b = indicator(6, dyadic(1, 1), 1)
    assert inner(a, b) == pytest.approx(0.5, abs=1e-12)


def test_affine_reindex_matches_pointwise():
    xi = indicator(4, 0, 1)
    out = affine_reindex(xi, 1, dyadic(1, 2))  # t -> xi(2t + 1/4)
    t = np.arange(-20, 20) * out.h
    expected = ((0 <= 2 * t + 0.25) & (2 * t + 0.25 < 1)).astype(float)
    assert grid_sample(out, t).real == pytest.approx(expected, abs=1e-12)


@st.composite
def legs_and_points(draw):
    """A step or smooth leg with lag and points on it, off it and non-finite; a
    smooth leg gets only points of level <= 8, which refine within the budget."""
    style = draw(st.sampled_from(["step", "smooth"]))
    samples = draw(st.lists(st.complex_numbers(min_magnitude=0.5, max_magnitude=4), min_size=1,
                            max_size=6))
    leg = GridFunction(draw(st.integers(-2, 3)), draw(st.integers(-8, 8)), samples, style,
                       draw(st.integers(0, 2)))
    dyadic_points = st.builds(math.ldexp, st.integers(-600, 600), st.integers(-8, 2))
    special = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])
    anywhere = st.floats(-40, 40) if style == "step" else st.nothing()
    return leg, draw(st.lists(dyadic_points | special | anywhere, min_size=1, max_size=8))


@settings(max_examples=150, deadline=None)
@given(legs_and_points())
def test_grid_sample_reads_each_point_alone(leg_points):
    leg, xs = leg_points
    alone = np.concatenate([grid_sample(leg, [x]) for x in xs])
    assert grid_sample(leg, xs).tobytes() == alone.tobytes()
    assert not alone[~np.isfinite(xs)].any()


def test_grid_sample_smooth_leg_reads_its_interpolant_at_the_point_level():
    f = GaussianSymbol(0.1, 0.5)
    g = sample_symbol(f, 3, -4, 4)
    alone = grid_sample(g, [2 ** -4])[0]
    assert alone == grid_sample(g, [2 ** -4, 2 ** -3])[0]
    assert alone == pytest.approx(0.98248, abs=1e-5)
    assert abs(alone - f.f_values(2 ** -4)) <= 1e-6


@pytest.mark.parametrize("lag", [0, 1])
def test_grid_sample_step_leg_reads_its_cell_left_closed(lag):
    # samples 2, 4 on the cells [0, 1) and [1, 2), stored at spacing 1 or 1/2 with lag 1
    xi = GridFunction(lag, 0, [2.0, 4.0], "step", lag)
    x = [-0.5, -1e-300, 0.0, 0.3, 0.999, 1.0, 1.25, 1.999, 2.0, 2.5]
    assert grid_sample(xi, x).tolist() == [0, 0, 2, 2, 2, 4, 4, 4, 0, 0]


def test_grid_sample_smooth_leg_refuses_a_point_beyond_the_budget():
    # 0.3 sits at level 54: its refinement is refused before it is built, alone or not
    xi = GridFunction(0, 0, [2.0, 4.0])
    for x in ([0.3], [0.0, 0.3]):
        with pytest.raises(MemoryBudgetExceeded, match="refining to spacing 2\\^-54"):
            grid_sample(xi, x)


# -- twisted correlation ----------------------------------------------------------------


def test_correlation_identity_case():
    # d = 0, c = 1 reduces to F M_f F^-1
    f = GaussianSymbol(0.0, 0.9)
    xi = gaussian(0.25, 0.8)
    lhs = twisted_correlation(f, 0, PowerOfTwo(0), xi)
    rhs = fourier(rep_apply(f, 0, PowerOfTwo(0), fourier_inv(xi)))
    assert norm(lhs - rhs) <= 1e-6 * norm(xi)


def test_correlation_approximate_identity():
    # a near-delta fcheck leaves xi almost unchanged
    f = BumpSymbol(0.0, 0.05)
    xi = gaussian(0.0, 2.0)
    out = twisted_correlation(f, 0, PowerOfTwo(0), xi)
    mass = 0.05  # integral of the Hann bump of radius r is r
    assert norm(out - xi.scale(mass)) <= 5e-3 * norm(xi) * mass + 5e-3


def test_correlation_linear():
    f = GaussianSymbol(0.0, 0.7, 1)
    xi1, xi2 = gaussian(0.5, 0.5), gaussian(-0.25, 0.75, 2)
    d, c = dyadic(1, 1), PowerOfTwo(1)
    lhs = twisted_correlation(f, d, c, xi1 + xi2)
    rhs = twisted_correlation(f, d, c, xi1) + twisted_correlation(f, d, c, xi2)
    assert norm(lhs - rhs) <= 1e-10 * (norm(xi1) + norm(xi2))


def _correlation_direct_sum(f, d, c, xi):
    """Each output point t_k as the Riemann sum
    e(t_k d / c) * sum_m delta e(s_m d) fcheck(s_m) xi(t_k + s_m c),
    with the nodes and the lookup grid of twisted_correlation."""
    e, g = c.exponent, xi.spacing_exp
    lookup = xi.to_grid(g + max(0, -e))
    stride = 1 << (lookup.spacing_exp - g)
    delta = 2.0 ** -(g + max(0, e))
    slo, shi = f.fcheck_support()
    m = np.arange(math.ceil(slo / delta), math.floor(shi / delta) + 1)
    weights = delta * f.fcheck_values(m * delta) * np.exp(2j * np.pi * float(d) * m * delta)
    k_lo = math.ceil((lookup.start_index - m[-1]) / stride)
    k_hi = math.floor((lookup.start_index + len(lookup) - 1 - m[0]) / stride)
    out = []
    for k in range(k_lo, k_hi + 1):
        pos = k * stride + m - lookup.start_index
        ok = (pos >= 0) & (pos < len(lookup))
        t = k * 2.0 ** -g
        out.append(np.exp(2j * np.pi * t * float(d) * 2.0 ** -e)
                   * np.sum(weights[ok] * lookup.samples[pos[ok]]))
    return k_lo, np.array(out), np.sum(np.abs(weights)) * np.max(np.abs(lookup.samples))


def _spy_fft(monkeypatch):
    """Record (input length, transform length) of every np.fft.fft and np.fft.ifft call."""
    calls = []
    for name in ("fft", "ifft"):
        def spy(a, n=None, *args, _inner=getattr(np.fft, name), **kwargs):
            calls.append((len(a), len(a) if n is None else n))
            return _inner(a, n, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, spy)
    return calls


@pytest.mark.parametrize("c", [PowerOfTwo(-1), PowerOfTwo(0), PowerOfTwo(1)])
@pytest.mark.parametrize("d", [dyadic(0), dyadic(3, 1)])
def test_correlation_matches_direct_sum(monkeypatch, d, c):
    f = BumpSymbol(0.25, 1.0)
    xi = gaussian(0.25, 0.8, g=5)
    calls = _spy_fft(monkeypatch)
    out = twisted_correlation(f, d, c, xi)
    # the convolution pads both factors to the fast length of its linear length,
    # here never a power of two (the next power of two is 256 or 512 points)
    (n, size), (m, size_m) = [call for call in calls if call[0] < call[1]]
    assert size == size_m == grid._fast_length(n + m - 1)
    assert size & (size - 1)
    k_lo, direct, scale = _correlation_direct_sum(f, d, c, xi)
    assert out.spacing_exp == xi.spacing_exp
    got = grid_sample(out, (k_lo + np.arange(len(direct))) * out.h)
    assert np.max(np.abs(got - direct)) <= 1e-13 * scale


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 1 << 26))
@example(8)
@example(9)
@example(grid.MAX_PLAIN_FFT)
@example(grid.MAX_PLAIN_FFT + 1)
@example(1 << 26)
def test_fast_length_is_the_smallest_fast_size(n):
    fast = grid._fast_length(n)
    shift = max(0, fast.bit_length() - 4)
    forms = {m << k for m in (8, 9, 10, 12, 15) for k in range(shift + 2)}
    if n <= 8:
        assert fast == 8
    else:
        assert n <= fast <= grid._next_pow2(n)
        assert fast in forms  # m 2^k with m in {8, 9, 10, 12, 15}
    assert not any(n <= size < fast for size in forms)
    assert (fast > grid.MAX_PLAIN_FFT) == (n > grid.MAX_PLAIN_FFT)


INTERTWINING_CASES = [
    (dyadic(0), PowerOfTwo(0), 1e-5),
    (dyadic(1), PowerOfTwo(0), 1e-5),
    (dyadic(1, 1), PowerOfTwo(1), 1e-4),
    (dyadic(3, 1), PowerOfTwo(-1), 1e-4),
    (dyadic(0), PowerOfTwo(1), 1e-4),
]


@pytest.mark.parametrize("d,c,tol", INTERTWINING_CASES)
def test_intertwining_residuals(d, c, tol):
    f = GaussianSymbol(0.0, 1.0)
    xi = gaussian(0.25, 0.9)
    assert intertwining_residual(f, d, c, xi) <= tol


def test_intertwining_modulated_data():
    f = GaussianSymbol(0.5, 0.8)
    xi = gaussian(0.0, 0.7, 2)
    assert intertwining_residual(f, dyadic(1, 1), PowerOfTwo(-1), xi) <= 1e-4


# -- refinement consistency ----------------------------------------------------------


def test_refinement_consistency():
    f = GaussianSymbol(0.0, 1.0)
    d, c = dyadic(1, 1), PowerOfTwo(1)
    coarse = intertwining_residual(f, d, c, gaussian(0.25, 0.9, g=6))
    fine = intertwining_residual(f, d, c, gaussian(0.25, 0.9, g=7))
    assert fine <= 4 * coarse + 1e-9


def test_step_refine_exact():
    xi = indicator(4, 0, 1)
    fine = xi.to_grid(6)
    assert inner(fine, fine) == pytest.approx(1.0, abs=1e-12)
    assert fine.style == "step"
    # three levels of duplication at once: every sample repeated 8 times
    steps = GridFunction(2, -3, [1, 2j, 0, -1], "step")
    fine = steps.to_grid(5)
    assert (fine.spacing_exp, fine.start_index) == (5, -24)
    assert np.array_equal(fine.samples, np.repeat([1, 2j, 0, -1], 8))
    assert steps.to_grid(2) is steps
    for style in ("step", "smooth"):
        empty = GridFunction(3, 5, [], style).to_grid(4)
        assert (empty.spacing_exp, empty.start_index, len(empty)) == (4, 0, 0)


def test_refinement_allocates_its_exact_length():
    # one FFT over a period padded once: 2^L periods, not a period padded at every level
    xi = gaussian()
    assert len(xi) == 439
    for levels in range(1, 7):
        bound = (1 << (levels + 1)) * (len(xi) + 2 * grid._TRIG_MARGIN)
        allocated = xi._refined_length(G + levels)
        tracemalloc.start()
        try:
            fine = xi.to_grid(G + levels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(fine) <= allocated <= bound
        assert peak <= 8 * 16 * allocated  # a few complex arrays of the allocated length
    assert xi._refined_length(G + 6) == 32768  # the level-by-level refinement held 1,048,576


@pytest.mark.parametrize("center,width,modulation", [(0.0, 1.0, 0), (0.25, 0.8, 0),
                                                     (-0.5, 0.6, 3)])
def test_trimmed_refinement_drops_only_roundoff(monkeypatch, center, width, modulation):
    xi = gaussian(center, width, modulation)
    peak = np.abs(xi.samples).max()
    for levels in range(1, 6):
        fine = xi.to_grid(G + levels)
        with monkeypatch.context() as patch:  # keep every sample of the inverse FFT
            patch.setattr(grid, "_roundoff", lambda x: -1.0)
            full = xi.to_grid(G + levels)
        assert len(full) == xi._refined_length(G + levels)
        assert len(fine) < 0.9 * len(full)
        # the trimmed leg is a slice of the whole inverse FFT, cut where it meets the floor
        lo = fine.start_index - full.start_index
        assert np.array_equal(full.samples[lo:lo + len(fine)], fine.samples)
        floor = np.finfo(float).eps * math.log2(len(full)) * np.linalg.norm(full.samples)
        dropped = np.concatenate([full.samples[:lo], full.samples[lo + len(fine):]])
        assert np.abs(dropped).max() <= floor
        assert min(abs(fine.samples[0]), abs(fine.samples[-1])) > floor
        # the stored samples read back at the coarse nodes
        nodes = ((xi.start_index + np.arange(len(xi))) << levels) - fine.start_index
        inside = (nodes >= 0) & (nodes < len(fine))
        assert np.abs(fine.samples[nodes[inside]] - xi.samples[inside]).max() <= 1e-14 * peak
        assert np.abs(xi.samples[~inside]).max(initial=0) <= 2 * floor


def test_lagged_leg_refines_from_its_stored_samples():
    # dilation and a fine translation keep the stored samples; reading the leg
    # refines them once, exactly as refining first and moving the result
    xi = gaussian(0.25, 0.75)
    a, b = PowerOfTwo(-2), dyadic(3, G + 5)
    moved = translate(dilate(xi, a), b)
    assert (moved.spacing_exp, moved.lag) == (G + 5, 3)
    direct = translate(dilate(xi.to_grid(G + 4), a), b)
    assert (direct.spacing_exp, direct.lag) == (G + 6, 0)
    fine = moved.to_grid(G + 6)
    assert (fine.start_index, len(fine)) == (direct.start_index, len(direct))
    assert np.array_equal(fine.samples, direct.samples)


def test_trig_refine_interpolates():
    xi = gaussian(0.0, 1.0)
    fine = xi.to_grid(xi.spacing_exp + 1)
    # even samples reproduce the original ones
    for k in range(0, len(xi), 37):
        idx = 2 * (xi.start_index + k) - fine.start_index
        if 0 <= idx < len(fine):
            assert abs(fine.samples[idx] - xi.samples[k]) <= 1e-9


# -- sampling closed-form symbols -------------------------------------------------------


def _window_sampled(sym, g, lo, hi):
    # every point of the window, then the tail cutoff and GridFunction's trim
    start, end = math.floor(lo * 2 ** g), math.ceil(hi * 2 ** g)
    x = (start + np.arange(end - start + 1)) * 2.0 ** -g
    with np.errstate(over="ignore"):
        vals = np.exp(-np.pi * ((x - sym.center) / sym.width) ** 2) \
            * np.exp(2j * np.pi * sym.modulation * x)
    vals = np.where(np.abs(vals) < grid._TAIL_CUTOFF, 0, vals)
    return GridFunction(g, start, vals, "smooth")


@settings(max_examples=300, deadline=None)
@given(st.floats(-40, 40) | st.sampled_from([1e9, -1e9, 1e308, -1e308]),
       st.floats(1e-3, 1e3) | st.just(1e308),
       st.just(0.0) | st.floats(-40, 40),
       st.integers(3, 12), st.sampled_from([1 << k for k in range(7)]))
@example(0.0, 1e308, 0.0, 12, 16)  # the support overflows a float: the whole window
@example(1e308, 1.0, 0.0, 12, 16)  # the support lies beyond the window: no sample
@example(-1.7e308, 1e300, 0.0, 12, 16)
def test_gaussian_sampled_on_its_support_equals_the_window(center, width, modulation, g,
                                                           window):
    sym = GaussianSymbol(center, width, modulation)
    leg = sample_symbol(sym, g, -window, window)
    ref = _window_sampled(sym, g, -window, window)
    assert leg.spacing_exp == g and leg.style == "smooth"
    if ref.is_zero():
        assert leg.is_zero()
    else:
        assert leg.start_index == ref.start_index
        assert np.array_equal(leg.samples, ref.samples)


# -- symbols ----------------------------------------------------------------------------


def test_bump_symbol_round_trip():
    f = BumpSymbol(0.5, 1.5)
    s = np.linspace(-2, 3, 301)
    vals = f.fcheck_values(s)
    assert np.max(np.abs(vals)) == pytest.approx(1.0, abs=1e-9)
    # transform of the tabulated bump agrees with the closed form
    bump_grid = sample_symbol_fcheck(f, 8)
    ft = fourier(bump_grid)
    pts = ft.points()
    mask = np.abs(pts) <= 4
    assert np.max(np.abs(ft.samples[mask] - f.f_values(pts[mask]))) <= 1e-4


def sample_symbol_fcheck(f, g):
    lo, hi = f.fcheck_support()
    start = math.floor(lo * 2 ** g)
    end = math.ceil(hi * 2 ** g)
    x = (start + np.arange(end - start + 1)) * 2.0 ** -g
    return GridFunction(g, start, f.fcheck_values(x), "smooth")


def test_tabulated_pair_validation():
    f = GaussianSymbol(0.0, 1.0)
    f_grid = sample_symbol(f, 6, -8, 8)
    fcheck_grid = sample_symbol_fcheck(f, 6)
    pair = TabulatedFourierPair(f_grid, fcheck_grid)
    x = np.array([0.0, 0.5, 1.25])
    assert np.allclose(pair.f_values(x), f.f_values(x), atol=1e-5)
    bad = fcheck_grid.scale(2.0)
    with pytest.raises(ValueError):
        TabulatedFourierPair(f_grid, bad)


# -- CSV ----------------------------------------------------------------------------------


def test_csv_round_trip(tmp_path):
    xi = gaussian(0.5, 0.7, 1)
    path = tmp_path / "xi.csv"
    export_csv(xi, path)
    back = import_csv(path)
    assert back.spacing_exp == xi.spacing_exp
    assert back.start_index == xi.start_index
    assert np.allclose(back.samples, xi.samples)


@pytest.mark.parametrize("spacing_exp", [16, 20, 30, 40])
def test_csv_round_trip_on_fine_grids(tmp_path, spacing_exp):
    # a spacing of 2^-k has k decimals, so no fixed rounding can infer it
    xi = GridFunction(spacing_exp, -3, np.array([1, 2j, 0.5, -1 - 1j]), "smooth")
    path = tmp_path / "fine.csv"
    export_csv(xi, path)
    back = import_csv(path)
    assert (back.spacing_exp, back.start_index) == (spacing_exp, -3)
    assert np.array_equal(back.samples, xi.samples)


def test_csv_beyond_budget_raises_before_allocating(tmp_path):
    path = tmp_path / "far.csv"  # three samples spanning 2^40 points
    path.write_text(f"x,re,im\n0,1,0\n{2.0 ** -10!r},1,0\n{2.0 ** 30!r},1,0\n")
    with pytest.raises(MemoryBudgetExceeded, match=f"needs {2 ** 40 + 1} points"):
        import_csv(path)


def test_csv_rejects_bad_spacing(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,re,im\n0.0,1.0,0.0\n0.3,1.0,0.0\n")
    with pytest.raises(ValueError):
        import_csv(path)



@pytest.mark.parametrize("row", ["0.5,nan,0", "inf,1,0", "0.5,1,-inf", "0.5,1"])
def test_csv_rejects_a_non_finite_or_short_row(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"x,re,im\n0,1,0\n{row}\n")
    with pytest.raises(ValueError, match="row 3: x, re and im must be finite numbers"):
        import_csv(path)
