"""Compactly supported functions on dyadic grids and the operators on them.

A GridFunction stores complex samples at the points (start_index + (k << lag)) * h
with h = 2^-spacing_exp, so every sample point is a dyadic rational and the
translation / dilation operators act by exact reindexing.  The continuous
Fourier transform uses the e(tx) = exp(2*pi*i*t*x) convention throughout
and is realized by DFTs with the phase and scale corrections that turn
the DFT into a Riemann sum of the defining integral.

The transform of n samples at spacing 2^-g lives on a reciprocal grid of
L = _fft_size(xi) points per period, sized from the leg it carries: L holds
every index of the leg without wraparound and L >= 2^(g+4), so the reciprocal
spacing is at most 2^-4, but it keeps only its significant band.  One
coarse DFT of length P = min(L, next_pow2(2n)) gives every (L/P)-th output
point; P >= 2n because at P = n the coarse points of an n-sample indicator
fall on the zeros of its Dirichlet kernel and hide its sidelobes.  The band
is the hull of the coarse points above the FFT roundoff bound

    eps * log2(P) * sqrt(P) * ||x||_2     (in units of sum_k x_k e(...)),

widened by _BAND_MARGIN coarse cells on each side.  Its points are computed
exactly (Bluestein chirp-z, or one length-L FFT when the band is nearly the
whole period); all others are dropped as zero.  Error bound: every dropped
coarse point is below h times the bound, the error an FFT over the whole
period already makes at each point; dropped points between coarse points
obey it for spectra that decay beyond the band.  The margin puts the cut
where such tails have fallen further, so that the step it leaves does not
widen the band of a later transform.  Chirp-z serves legs far off centre:
they need a long period, but only a narrow band.  Spectra that do not decay
(indicators) keep the whole period; that plain length-L path refuses
L > MAX_PLAIN_FFT with MemoryBudgetExceeded before allocating anything of
length L.  A Gaussian is sampled only where its computed values can reach
_TAIL_CUTOFF, though the whole window still sets the sampling budget.

Translations and dilations keep the stored samples and move only lag and
the integer positions.  Refinement happens once, in to_grid, from the stored
samples: "step" legs repeat each one (exact for indicators with grid-aligned
breakpoints), "smooth" legs interpolate them trigonometrically in one FFT and
keep the span above its roundoff bound.  grid_sample reads each point x alone,
in to_grid at a step leg's spacing, or at x's own level on a smooth leg.  The
correlation's one convolution of length n > 8 pads to the 5-smooth
_fast_length(n) < 1.25 n, chirp-z to next_pow2.
"""

from __future__ import annotations

import csv
import math
import sys

import numpy as np

from .errors import MemoryBudgetExceeded
from .numbers import DyadicRational, PowerOfTwo, as_dyadic, dyadic

_TAIL_CUTOFF = 1e-16
_TAIL_RADIUS = math.sqrt(-math.log(_TAIL_CUTOFF) / math.pi)  # exp(-pi r^2) = _TAIL_CUTOFF
_BAND_MARGIN = 3  # coarse cells kept beyond the significant band on each side
_TRIG_MARGIN = 16  # zero samples padded on each side before a trigonometric refinement
# longest transform over a whole period (2^24 points: 256 MiB per complex
# array); g = 12 without dilation reaches it, spacing 2^-13 exceeds it
MAX_PLAIN_FFT = 1 << 24


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1)).bit_length()


def _fast_length(n: int) -> int:
    """Smallest m 2^k >= n, m in {8, 9, 10, 12, 15}: five sizes per octave, plans cached."""
    k = max(0, (n - 1).bit_length() - 4)  # 8 2^k < n <= 16 2^k once n > 8
    return min(m << k for m in (8, 9, 10, 12, 15, 16) if m << k >= n)


def _roundoff(x: np.ndarray) -> float:
    """eps log2(N) ||x||_2, the roundoff bound of an FFT at each of its N outputs x."""
    return np.finfo(float).eps * math.log2(len(x)) * np.linalg.norm(x)


def check_budget(points: int, what: str) -> None:
    """Refuse `what` before it is built when it needs more than MAX_PLAIN_FFT points."""
    if points > MAX_PLAIN_FFT:
        count = points if points < 1 << 64 else f"at least 2^{points.bit_length() - 1}"
        raise MemoryBudgetExceeded(
            f"{what} needs {count} points, over the budget of {MAX_PLAIN_FFT}")


class GridFunction:
    """Finitely many samples on 2^-spacing_exp * Z, sample k at index start_index + (k << lag)."""

    __slots__ = ("spacing_exp", "start_index", "samples", "style", "lag")

    def __init__(self, spacing_exp: int, start_index: int, samples, style="smooth", lag=0):
        samples = np.asarray(samples, dtype=complex)
        if not (len(samples) and samples[0] and samples[-1]):  # else already trimmed
            nz = np.nonzero(samples)[0]
            if len(nz) == 0:
                start_index, samples = 0, samples[:0]
            else:
                start_index += int(nz[0]) << lag
                samples = samples[nz[0]:nz[-1] + 1]
        if style not in ("step", "smooth"):
            raise ValueError(f"unknown style {style!r}")
        self.spacing_exp = spacing_exp
        self.start_index = start_index
        self.samples = samples
        self.style = style
        self.lag = lag

    # -- basic geometry ------------------------------------------------------

    @property
    def h(self) -> float:
        return 2.0 ** (-self.spacing_exp)

    def __len__(self):
        return len(self.samples)

    def is_zero(self) -> bool:
        return len(self.samples) == 0

    def points(self) -> np.ndarray:
        # start_index may lie beyond int64, even past 2^1024: one correctly rounded division
        start = float(dyadic(self.start_index, self.spacing_exp))
        return start + np.arange(len(self.samples)) * 2.0 ** (self.lag - self.spacing_exp)

    def support(self) -> tuple[float, float]:
        """Closed interval carrying the nonzero samples (0-length if empty)."""
        if self.is_zero():
            return 0.0, 0.0
        return self.start_index * self.h, (self.start_index + (len(self) - 1 << self.lag)) * self.h

    # -- refinement ------------------------------------------------------------

    def _refined_length(self, spacing_exp: int) -> int:
        """Length of the array to_grid(spacing_exp) allocates; past the budget it raises first."""
        n, levels = len(self.samples), spacing_exp - self.spacing_exp + self.lag
        if n and levels > 0:  # past 64 levels n is over the budget: 2^levels is not built
            n = (n if self.style == "step" else _next_pow2(n + 2 * _TRIG_MARGIN)) << min(levels, 64)
            check_budget(n, f"refining to spacing 2^-{spacing_exp}")
        return n

    def to_grid(self, spacing_exp: int) -> "GridFunction":
        """Samples at every point of 2^-spacing_exp Z, from the stored ones in one step: a
        smooth leg pads them once, zero-fills their spectrum to 2^levels periods and keeps
        the span of the inverse FFT's N outputs above eps log2(N) ||out||_2, _band's rule."""
        levels = spacing_exp - self.spacing_exp + self.lag
        if spacing_exp < self.spacing_exp:
            raise ValueError("cannot coarsen a grid function")
        if levels == 0:
            return self
        if self.is_zero():
            return GridFunction(spacing_exp, 0, [], self.style)
        length = self._refined_length(spacing_exp)
        start = self.start_index << (spacing_exp - self.spacing_exp)
        if self.style == "step":
            return GridFunction(spacing_exp, start, np.repeat(self.samples, 1 << levels), "step")
        size, half = length >> levels, length >> (levels + 1)
        buf = np.zeros(size, dtype=complex)
        buf[_TRIG_MARGIN:_TRIG_MARGIN + len(self.samples)] = self.samples
        spec = np.fft.fft(buf, out=buf)
        out = np.zeros(length, dtype=complex)
        out[:half] = spec[:half]
        out[half] = out[length - half] = spec[half] / 2  # the Nyquist term, split
        out[length - half + 1:] = spec[half + 1:]
        fine = np.fft.ifft(out, out=out)
        fine *= 1 << levels
        keep = np.flatnonzero(np.abs(fine) > _roundoff(fine))
        return GridFunction(spacing_exp, start - (_TRIG_MARGIN << levels) + int(keep[0]),
                            fine[keep[0]:keep[-1] + 1], "smooth")

    # -- linear structure ---------------------------------------------------------

    def scale(self, c: complex) -> "GridFunction":
        return GridFunction(self.spacing_exp, self.start_index, self.samples * c, self.style,
                            self.lag)

    def __neg__(self):
        return self.scale(-1)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        if not isinstance(other, GridFunction):
            return NotImplemented
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        g = max(self.spacing_exp, other.spacing_exp)
        a, b = self.to_grid(g), other.to_grid(g)
        lo = min(a.start_index, b.start_index)
        hi = max(a.start_index + len(a), b.start_index + len(b))
        buf = np.zeros(hi - lo, dtype=complex)
        buf[a.start_index - lo:a.start_index - lo + len(a)] += a.samples
        buf[b.start_index - lo:b.start_index - lo + len(b)] += b.samples
        style = a.style if a.style == b.style else "smooth"
        return GridFunction(g, lo, buf, style)

    def __sub__(self, other):
        return self + (-other)


def grid_sample(src: GridFunction, x) -> np.ndarray:
    """The value at each point x, read alone: at index floor(x 2^L) of to_grid(L).

    A step leg reads at L = spacing_exp, the cell holding x, left-closed.  A smooth
    leg reads its trigonometric interpolant at x's own level: L is the least level
    with x 2^L an integer, or spacing_exp if that is finer.  Points off the samples
    of to_grid(L), NaN and +-inf read 0; a level over the budget raises in to_grid.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros(len(x), dtype=complex)
    finite = np.isfinite(x)
    levels = np.full(len(x), src.spacing_exp)
    if src.style == "smooth":
        nonzero = np.flatnonzero(finite & (x != 0))
        mantissa, exp = np.frexp(x[nonzero])
        bits = (mantissa * 2.0 ** 53).astype(np.int64)  # x = bits 2^(exp - 53)
        lowest = np.frexp(bits & -bits)[1] - 1  # x 2^(53 - exp - lowest) is odd
        levels[nonzero] = np.maximum(src.spacing_exp, 53 - exp - lowest)
    for level in np.unique(levels[finite]):
        fine = src.to_grid(int(level))
        at = np.flatnonzero(finite & (levels == level))
        pos = np.floor(np.ldexp(x[at], level)) - fine.start_index
        inside = (pos >= 0) & (pos < len(fine))
        out[at[inside]] = fine.samples[pos[inside].astype(np.int64)]
    return out


def indicator(spacing_exp: int, lo: DyadicRational | int, hi: DyadicRational | int) -> GridFunction:
    """Indicator of the half-open interval [lo, hi) sampled left-closed."""
    lo, hi = as_dyadic(lo), as_dyadic(hi)
    g = max(spacing_exp, lo.exponent, hi.exponent)
    start = lo.numerator << (g - lo.exponent)
    end = hi.numerator << (g - hi.exponent)
    check_budget(end - start, f"an indicator at spacing 2^-{g}")
    return GridFunction(g, start, np.ones(max(0, end - start)), "step")


def sample_symbol(f, spacing_exp: int, lo: float, hi: float) -> GridFunction:
    """Sample a closed-form function on [lo, hi] at the given resolution.

    More than MAX_PLAIN_FFT samples on [lo, hi] raise MemoryBudgetExceeded
    before any is computed.  A symbol with f_support() is evaluated only
    where [lo, hi] meets it: the other points would be cut as tails.
    """
    check_budget(math.ceil(hi * 2 ** spacing_exp) - math.floor(lo * 2 ** spacing_exp) + 1,
                 f"sampling at spacing 2^-{spacing_exp}")
    if hasattr(f, "f_support"):  # cut as floats: an end of the support may be infinite
        flo, fhi = f.f_support()
        lo, hi = max(lo, flo), min(hi, fhi)
        if lo > hi:
            return GridFunction(spacing_exp, 0, [], "smooth")
    start = math.floor(lo * 2 ** spacing_exp)
    x = (start + np.arange(math.ceil(hi * 2 ** spacing_exp) - start + 1)) * 2.0 ** (-spacing_exp)
    vals = np.asarray(f.f_values(x), dtype=complex)
    vals = np.where(np.abs(vals) < _TAIL_CUTOFF, 0, vals)
    return GridFunction(spacing_exp, start, vals, "smooth")


# -- elementary operators ---------------------------------------------------------


def translate(xi: GridFunction, b: DyadicRational | int) -> GridFunction:
    """(T_b xi)(x) = xi(x - b); exact reindexing, on a finer grid if b is finer."""
    return affine_reindex(xi, 0, -as_dyadic(b))


def dilate(xi: GridFunction, a: PowerOfTwo) -> GridFunction:
    """(D_a xi)(x) = a^(-1/2) xi(x / a); exact on the grid representation."""
    return GridFunction(xi.spacing_exp - a.exponent, xi.start_index,
                        xi.samples * 2.0 ** (-a.exponent / 2), xi.style, xi.lag)


def affine_reindex(xi: GridFunction, scale_exp: int, shift: DyadicRational | int) -> GridFunction:
    """t -> xi(2^scale_exp * t + shift) by exact reindexing; a finer shift widens the lag."""
    shift = as_dyadic(shift)
    if xi.is_zero():
        return GridFunction(xi.spacing_exp + scale_exp, 0, [], xi.style)
    up = max(0, shift.exponent - xi.spacing_exp)
    offset = shift.numerator << (xi.spacing_exp + up - shift.exponent)
    return GridFunction(xi.spacing_exp + up + scale_exp, (xi.start_index << up) - offset,
                        xi.samples, xi.style, xi.lag + up)


def multiply(f, xi: GridFunction) -> GridFunction:
    """Pointwise multiplication by a closed-form symbol."""
    if xi.is_zero():
        return xi
    xi = xi.to_grid(xi.spacing_exp)  # f is read at every grid point, not at the stored ones
    vals = np.asarray(f.f_values(xi.points()), dtype=complex)
    return GridFunction(xi.spacing_exp, xi.start_index, vals * xi.samples, xi.style)


def rep_apply(f, b: DyadicRational | int, a: PowerOfTwo, xi: GridFunction) -> GridFunction:
    """M_f T_b D_a xi: multiplication after translation after dilation, at a spacing
    2^-need with 2^need >= 4 max(|slo|, |shi|) for the support of fcheck, f's band."""
    leg = translate(dilate(xi, a), b)
    mantissa, bits = math.frexp(max(map(abs, f.fcheck_support())))  # no float error at 0 or inf
    need = bits + 2 - (mantissa == 0.5)  # ceil(log2(2 max(|slo|, |shi|))) + 1
    return multiply(f, leg.to_grid(max(leg.spacing_exp, need)))


def inner(xi1: GridFunction, xi2: GridFunction) -> complex:
    """L^2 pairing, conjugate-linear in the first argument.

    Riemann sum at the common refined spacing; exact for step functions
    with grid-aligned breakpoints.
    """
    if xi1.is_zero() or xi2.is_zero():
        return 0j
    g = max(xi1.spacing_exp, xi2.spacing_exp)
    a, b = xi1.to_grid(g), xi2.to_grid(g)
    return complex(overlap_vdot(a.samples, a.start_index, b.samples, b.start_index) * a.h)


def overlap_vdot(x1: np.ndarray, start1: int, x2: np.ndarray, start2: int):
    """Sum of conj(x1) * x2 over the indices both runs cover, x1[k] and x2[k]
    sitting at index start1 + k and start2 + k; 0j when they are disjoint."""
    lo, hi = max(start1, start2), min(start1 + len(x1), start2 + len(x2))
    if hi <= lo:
        return 0j
    return np.vdot(x1[lo - start1:hi - start1], x2[lo - start2:hi - start2])


def norm(xi: GridFunction) -> float:
    return math.sqrt(max(inner(xi, xi).real, 0.0))


# -- Fourier layer ------------------------------------------------------------------


def _fft_size(xi: GridFunction) -> int:
    m = len(xi.samples)
    # all indices must fit in [-size/2, size/2) to avoid wraparound, and the
    # reciprocal spacing 2^spacing_exp / size stays at or below 2^-4: a smaller
    # margin raises the residuals of cases whose spectra do not decay (indicators)
    fit = 2 * max(-xi.start_index, xi.start_index + m, 1)
    resolution = 1 << max(0, xi.spacing_exp + 4)
    return _next_pow2(max(m, fit, resolution, 8))


def fourier(xi: GridFunction) -> GridFunction:
    """(F xi)(t) = integral of e(tx) xi(x) dx, discretized on the reciprocal grid."""
    return _fourier(xi, +1)


def fourier_inv(xi: GridFunction) -> GridFunction:
    """Inverse transform: conjugate phase convention."""
    return _fourier(xi, -1)


def _dft(x: np.ndarray, size: int, sign: int) -> np.ndarray:
    """sum_k x_k e(sign j k / size) for j in [0, size), x zero-padded."""
    return np.fft.ifft(x, size, norm="forward") if sign > 0 else np.fft.fft(x, size)


def _plain_dft(x: np.ndarray, size: int, sign: int) -> np.ndarray:
    """_dft over the whole period, refused beyond MAX_PLAIN_FFT points."""
    check_budget(size, "a Fourier transform over the whole period")
    return _dft(x, size, sign)


def _band(coarse: np.ndarray, size: int) -> tuple[int, int]:
    """Output indices [lo, hi) of the significant band (see the module notes),
    clipped to [-size/2, size/2); coarse[r] is the DFT at output index
    r * size / len(coarse)."""
    count = len(coarse)
    # ||coarse||_2 = sqrt(count) ||x||_2 by Parseval
    keep = np.flatnonzero(np.abs(coarse) > _roundoff(coarse))
    centred = (keep + count // 2) % count - count // 2
    step = size // count
    lo = max(-size // 2, (int(centred.min()) - _BAND_MARGIN) * step)
    hi = min(size // 2, (int(centred.max()) + _BAND_MARGIN) * step + 1)
    return lo, hi


def _chirp_z(x: np.ndarray, size: int, lo: int, m: int, sign: int) -> np.ndarray:
    """sum_k x_k e(sign (lo + q) k / size) for q in [0, m), by Bluestein's algorithm.

    With 2qk = q^2 + k^2 - (q - k)^2 the sum is a convolution with a chirp,
    done with three FFTs of length next_pow2(n + m - 1).  The exponents are
    reduced exactly in integers before the exponential.
    """
    n = len(x)
    nfft = _next_pow2(n + m - 1)
    k = np.arange(max(n, m), dtype=np.int64)
    chirp = np.exp(sign * 1j * np.pi * ((k * k) % (2 * size)) / size)  # e(sign k^2 / 2 size)
    a = x * chirp[:n] * np.exp(sign * 2j * np.pi * ((lo * k[:n]) % size) / size)
    b = np.zeros(nfft, dtype=complex)
    b[:m] = chirp[:m].conj()
    b[nfft - n + 1:] = chirp[1:n][::-1].conj()
    return np.fft.ifft(np.fft.fft(a, nfft) * np.fft.fft(b))[:m] * chirp[:m]


def _fourier(xi: GridFunction, sign: int) -> GridFunction:
    if xi.is_zero():
        return GridFunction(0, 0, [], "smooth")
    xi = xi.to_grid(xi.spacing_exp)
    x, size = xi.samples, _fft_size(xi)
    count = min(size, _next_pow2(2 * len(x)))
    coarse = (_plain_dft if count == size else _dft)(x, count, sign)
    lo, hi = _band(coarse, size)
    nfft = _next_pow2(len(x) + hi - lo - 1)  # the length of a chirp-z transform of the band
    if len(coarse) == size:
        full = coarse
    elif 4 * nfft > size:
        full = _plain_dft(x, size, sign)
    else:
        check_budget(nfft, "a chirp-z transform of the band")
        full = None
    j = np.arange(lo, hi, dtype=np.int64)
    vals = _chirp_z(x, size, lo, hi - lo, sign) if full is None else full[j % size]
    vals *= xi.h * np.exp(sign * 2j * np.pi * ((j * (xi.start_index % size)) % size) / size)
    out_exp = size.bit_length() - 1 - xi.spacing_exp
    return GridFunction(out_exp, lo, vals, "smooth")


# -- the phase-twisted correlation and its intertwining check ------------------------


def twisted_correlation(f, d: DyadicRational | int, c: PowerOfTwo,
                        xi: GridFunction) -> GridFunction:
    """The function t -> e(t d / c) * integral e(s d) fcheck(s) xi(t + s c) ds.

    The integral is truncated to the support of fcheck and evaluated as a
    Riemann sum whose nodes land exactly on a refinement of xi's grid; all
    output points come from one FFT convolution, refused beyond
    MAX_PLAIN_FFT points before xi is refined.  For a far d, the nodes and
    xi are refined until 2^gs > 4|d| once the phases are known to fit a float.
    """
    d = as_dyadic(d)
    e = c.exponent
    g = xi.spacing_exp
    gs = g + max(0, e)            # quadrature grid for s
    slo, shi = f.fcheck_support()
    if xi.is_zero():
        return GridFunction(g, 0, [], "smooth")
    # at least (shi - slo) 2^gs - 1 >= 2^bits - 1 nodes: the budget decides on bits
    # before 2^gs is formed, which no float holds past 2^1023 (nor an infinite support)
    bits = math.frexp(min(shi - slo, sys.float_info.max))[1] - 1 + gs if shi > slo else 0
    if bits >= MAX_PLAIN_FFT.bit_length():
        raise MemoryBudgetExceeded(f"the correlation needs over 2^{bits - 1} points,"
                                   f" over the budget of {MAX_PLAIN_FFT}")
    delta = 2.0 ** (-gs)
    m_lo, m_hi = math.ceil(slo / delta), math.floor(shi / delta)
    if m_hi < m_lo:
        return GridFunction(g, 0, [], "smooth")
    check_budget(_fast_length(xi._refined_length(g + max(0, -e)) + m_hi - m_lo), "the correlation")
    lookup = xi.to_grid(g + max(0, -e))
    stride = 1 << (lookup.spacing_exp - g)
    # out[k] = sum_m weights[m] * lookup(k * stride + m): one full convolution
    # with the reversed weights, read at every stride-th position
    src_lo, src_hi = lookup.start_index, lookup.start_index + len(lookup) - 1
    k_lo = math.ceil((src_lo - m_hi) / stride)
    k_hi = math.floor((src_hi - m_lo) / stride)
    s_vals = np.arange(m_lo, m_hi + 1) * delta
    t = (k_lo + np.arange(k_hi - k_lo + 1)) * 2.0 ** (-g)
    reach = max(max(-m_lo, m_hi) * delta, float(np.abs(t).max(initial=0))) * 2.0 ** max(0, -e)
    if not math.isfinite(2 * math.pi * float(d) * reach):  # the float phases of s d and t d / c
        raise ValueError("the correlation phase 2 pi t d / c overflows a float")
    far = (abs(d.numerator) >> d.exponent).bit_length() + 2 - gs if d.numerator else 0
    if far > 0:  # nodes 2^-gs apart read e(s d) as e(s (d mod 2^gs)): refine until 2^gs > 4|d|
        return twisted_correlation(f, d, c, xi.to_grid(g + far))
    weights = delta * np.asarray(f.fcheck_values(s_vals), dtype=complex) \
        * np.exp(2j * np.pi * float(d) * s_vals)
    size = _fast_length(len(lookup) + len(weights) - 1)
    conv = np.fft.fft(lookup.samples, size)
    conv *= np.fft.fft(weights[::-1], size)
    np.fft.ifft(conv, out=conv)
    first = k_lo * stride + m_hi - src_lo
    out = conv[first:first + (k_hi - k_lo) * stride + 1:stride]
    out *= np.exp(2j * np.pi * t * float(d) * 2.0 ** (-e))
    return GridFunction(g, k_lo, out, "smooth")


def intertwining_residual(f, d: DyadicRational | int, c: PowerOfTwo,
                          xi: GridFunction) -> float:
    """Relative discrepancy between the two transport routes of xi.

    Compares D_c* applied to the twisted correlation with the conjugation
    of M_f T_d D_c by the Fourier transform.
    """
    lhs = dilate(twisted_correlation(f, d, c, xi), c.inverse())
    rhs = fourier(rep_apply(f, d, c, fourier_inv(xi)))
    return norm(lhs - rhs) / norm(xi)


# -- closed-form symbols ----------------------------------------------------------


class GaussianSymbol:
    """exp(-pi ((x - center)/width)^2) * e(modulation * x).

    The inverse transform is again Gaussian:
    fcheck(s) = width * exp(-pi width^2 (s - modulation)^2) * e(-(s - modulation) center).
    """

    def __init__(self, center: float = 0.0, width: float = 1.0, modulation=0):
        if width <= 0:
            raise ValueError("width must be positive")
        self.center = float(center)
        self.width = float(width)
        self.modulation = float(as_dyadic(modulation)) if not isinstance(modulation, float) \
            else modulation

    def f_values(self, x):
        x = np.asarray(x, dtype=float)
        vals = np.exp(-np.pi * ((x - self.center) / self.width) ** 2)
        if self.modulation == 0:  # e(0 x) is exactly 1 + 0j
            return vals
        return vals * np.exp(2j * np.pi * self.modulation * x)

    def f_support(self):
        """An interval outside which every computed |f| is below _TAIL_CUTOFF, widened
        past rounding; it is infinite when the radius overflows a float."""
        radius = self.width * _TAIL_RADIUS * 1.001 + 1e-9
        return self.center - radius, self.center + radius

    def fcheck_values(self, s):
        s = np.asarray(s, dtype=float)
        rel = s - self.modulation
        return self.width * np.exp(-np.pi * self.width ** 2 * rel ** 2) \
            * np.exp(-2j * np.pi * rel * self.center)

    def fcheck_support(self):
        radius = _TAIL_RADIUS / self.width
        return self.modulation - radius, self.modulation + radius


class BumpSymbol:
    """Symbol whose inverse transform is a raised-cosine bump.

    fcheck is the Hann window of the given radius around center; f is its
    transform, a combination of three sinc terms times a phase.
    """

    def __init__(self, center: float = 0.0, radius: float = 1.0):
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.center = float(center)
        self.radius = float(radius)

    def f_values(self, x):
        x = np.asarray(x, dtype=float)
        length = 2 * self.radius
        main = np.sinc(length * x)
        side = 0.5 * (np.sinc(length * x - 1) + np.sinc(length * x + 1))
        return (length / 2) * (main + side) * np.exp(2j * np.pi * self.center * x)

    def fcheck_values(self, s):
        s = np.asarray(s, dtype=float)
        rel = (s - self.center) / (2 * self.radius)
        inside = np.abs(rel) <= 0.5
        return np.where(inside, np.cos(np.pi * rel) ** 2, 0.0).astype(complex)

    def fcheck_support(self):
        return self.center - self.radius, self.center + self.radius


class TabulatedFourierPair:
    """A symbol given by samples of f and of its inverse transform.

    The pair must pass a round-trip check: the Fourier transform of the
    tabulated fcheck has to reproduce the tabulated f within check_tol.
    """

    def __init__(self, f_grid: GridFunction, fcheck_grid: GridFunction,
                 check_tol: float = 1e-6):
        back = fourier(fcheck_grid)
        scale = max(norm(f_grid), 1e-30)
        err = norm(back - f_grid) / scale
        if err > check_tol:
            raise ValueError(f"tabulated pair fails round-trip check: {err:.2e}")
        self.f_grid = f_grid
        self.fcheck_grid = fcheck_grid

    def f_values(self, x):
        return grid_sample(self.f_grid, x)

    def fcheck_values(self, s):
        return grid_sample(self.fcheck_grid, s)

    def fcheck_support(self):
        return self.fcheck_grid.support()


# -- CSV interchange -----------------------------------------------------------------


def export_csv(xi: GridFunction, path) -> None:
    xi = xi.to_grid(xi.spacing_exp)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "re", "im"])
        for x, v in zip(xi.points(), xi.samples):
            writer.writerow([repr(float(x)), repr(float(v.real)), repr(float(v.imag))])


def import_csv(path, style: str = "smooth") -> GridFunction:
    xs, vals = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if [c.strip() for c in next(reader, [])[:3]] != ["x", "re", "im"]:
            raise ValueError(f"{path}, row 1: expected the header x,re,im")
        for row in reader:
            if not row:
                continue
            try:
                values = [float(v) for v in row[:3]]
            except ValueError:
                values = []
            if len(values) < 3 or not all(map(math.isfinite, values)):
                raise ValueError(f"{path}, row {reader.line_num}: x, re and im must be"
                                 " finite numbers")
            xs.append(values[0])
            vals.append(complex(values[1], values[2]))
    if not xs:
        return GridFunction(0, 0, [], style)
    step = min((b - a for a, b in zip(xs, xs[1:])), default=1.0)
    mantissa, exp = math.frexp(step)  # h: the power of two nearest step, below 2^1024
    spacing_exp = 1 - exp if mantissa < 0.75 or exp > 1023 else -exp
    h = 2.0 ** -spacing_exp
    if abs(step - h) > 1e-9 * h:
        raise ValueError(f"spacing {step} is not a power of two")
    start = round(xs[0] / h)
    length = round(xs[-1] / h) - start + 1
    check_budget(length, f"a CSV grid function at spacing 2^-{spacing_exp}")
    buf = np.zeros(length, dtype=complex)
    for x, v in zip(xs, vals):
        idx = round(x / h) - start
        if abs(x / h - round(x / h)) > 1e-9:
            raise ValueError(f"sample point {x} is not on the grid")
        buf[idx] = v
    return GridFunction(spacing_exp, start, buf, style)
