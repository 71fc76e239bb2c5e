"""The concrete pre-equivalence bimodule and the induced representation.

Elements are finite sums of elementary tensors

    1_{l + k Z_2}  (x)  xi  (x)  1_{m}

with k in {1, 2, 4, ...}, xi a grid function on R and m a (possibly
negative) power of two.  The right action of a word u^a s^i s*^j u^b is
one substitution of coordinates per tensor, the left action of the
function-crossed-product algebra combines an exact 2-adic phase with the
twisted correlation of the grid module, and the algebra-valued inner
product lands in the numeric mode of the symbolic algebra.  The induced
space X (x)_A l^2(Z) needs no container of its own: phi (x) e_n =
phi . u^n (x) e_0, so its vectors are module elements paired at e_0.

The inner product of tensors keyed (l1, k1, m1e) and (l2, k2, m2e) is one
kernel.  With e = m1e - m2e, up = max(e, 0) and down = max(-e, 0), the term
at shift b is P1 s*^up u^-b s^down P2 (Pn the class projections), nonzero iff

    b = 2^down l2 - 2^up l1  (mod 2^min(k1 + up, k2 + down)),

valued at the pairing of xi1 with t -> xi2(2^e t + 2^-down b).  Both legs
are refined once to a common grid, on which that leg is the refined second
leg moved by b lattice strides; every value is then one grid.overlap_vdot
of the two sample runs, and every monomial one composition against the
shift-independent factor P1 s*^up.  The module axioms pin this indexing;
the test-suite checks them and compares each shift with its reindexed
inner product and composed monomial chain.  Only b = 0 and class offsets
0 reach e_0 (s^down fixes 0, u^-b moves it to -b, and s*^up brings that
back only for b = 0), so induced_inner pairs just those legs at shift 0.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import grid as gridmod
from .algebra import MAX_NORMAL_FORM_NODES, Element, Monomial, compose
from .errors import MemoryBudgetExceeded
from .grid import GridFunction, affine_reindex, check_budget, inner, twisted_correlation
from .numbers import (
    DyadicRational,
    PadicInt,
    PowerOfTwo,
    SolenoidPoint,
    as_dyadic,
    dyadic,
    solenoid_character,
)

INNER_EPS = 1e-14


class BimoduleElement:
    """Finite sum of elementary tensors, canonically merged.

    Tensors are keyed by (class offset l, class level exponent, m-leg
    exponent); scalar coefficients are absorbed into the grid leg.  The
    constructor takes (key, leg) pairs and adds the legs of equal keys in order.
    """

    __slots__ = ("tensors",)

    def __init__(self, tensors=()):
        merged: dict[tuple[int, int, int], GridFunction] = {}
        for (l, k_exp, m_exp), xi in tensors:
            key = (l % (1 << k_exp), k_exp, m_exp)
            merged[key] = merged[key] + xi if key in merged else xi
        self.tensors = {k: v for k, v in sorted(merged.items()) if not v.is_zero()}

    @classmethod
    def simple(cls, offset: int, level_exp: int, xi: GridFunction,
               m_exp: int = 0) -> "BimoduleElement":
        return cls([((offset, level_exp, m_exp), xi)])

    def is_zero(self) -> bool:
        return not self.tensors

    def scale(self, c: complex) -> "BimoduleElement":
        return BimoduleElement((k, xi.scale(c)) for k, xi in self.tensors.items())

    def __add__(self, other: "BimoduleElement") -> "BimoduleElement":
        return BimoduleElement([*self.tensors.items(), *other.tensors.items()])

    def __sub__(self, other):
        return self + other.scale(-1)

    def eval(self, z: PadicInt, t: float, a_exp: int) -> complex:
        """Pointwise value at (z, (t, 2^a_exp))."""
        total = 0j
        for (l, k_exp, m_exp), xi in self.tensors.items():
            if m_exp != a_exp:
                continue
            if z.reduce(k_exp).residue != l:
                continue
            total += gridmod.grid_sample(xi, t)[0]
        return total

    def act_word(self, a: int, i: int, j: int, b: int) -> "BimoduleElement":
        """Right action of u^a s^i s*^j u^b as one substitution.

        The leg becomes t -> xi(2^(i-j) (t + b) + a).  The class offset
        moves to l' = l - a; s^i halves it tau = min(i, k) times and kills
        the tensor unless 2^tau divides l', s*^j doubles it j times, and u^b
        moves it by -b, while the m-leg exponent gains i - j.
        """
        out = []
        shift = dyadic((a << j) + (b << i), j)
        for (l, k_exp, m_exp), xi in self.tensors.items():
            l = (l - a) % (1 << k_exp)
            tau = min(i, k_exp)
            if l % (1 << tau):
                continue
            k_new = k_exp - tau + j
            key = ((((l >> tau) << j) - b) % (1 << k_new), k_new, m_exp + i - j)
            out.append((key, affine_reindex(xi, i - j, shift)))
        return BimoduleElement(out)

    def act(self, q: Element) -> "BimoduleElement":
        """Right action of an algebra element, term by term."""
        total = BimoduleElement()
        for m, c in q.terms.items():
            total = total + self.act_word(*m.word()).scale(complex(c))
        return total


# -- the algebra-valued inner product -------------------------------------------


def _pairing_grid(e: int, exp1: int, exp2: int) -> int:
    """g of the common grid 2^-g of legs at 2^-exp1 and 2^-exp2 with m1e - m2e = e."""
    return max(exp1, exp2 + e, e, 0)


def _common_legs(m1e, xi1, m2e, xi2):
    """(fine1, base2, weight, h, floor) of a tensor pair: both legs refined once to the
    common grid 2^-g, base2 at shift 0, and floor = INNER_EPS times the Cauchy-Schwarz
    bound weight * h * |x1| |x2| of every term, so the cutoff has no units."""
    e = m1e - m2e
    g = _pairing_grid(e, xi1.spacing_exp, xi2.spacing_exp)
    fine1, base2 = xi1.to_grid(g), affine_reindex(xi2.to_grid(g - e), e, 0)
    weight, h = 2.0 ** m1e, fine1.h
    norm1, norm2 = (math.sqrt(np.vdot(x.samples, x.samples).real) for x in (fine1, base2))
    return fine1, base2, weight, h, INNER_EPS * weight * h * norm1 * norm2


def _pair_terms(key1, xi1, key2, xi2):
    """Inner-product terms of one tensor pair: list of (Monomial, complex).

    Term b (see the module notes) pairs xi1 with xi2(2^e t + 2^-down b).
    On the common grid 2^-g that leg is the refined second leg moved by b
    strides of 2^(g - up) samples, so each value is one overlap_vdot and
    each monomial one compose against the b-free factor P1 s*^up.  The
    shifts run over the b that pair (module notes) whose refined sample
    runs overlap; terms are kept above the floor of _common_legs.
    """
    (l1, k1e, m1e), (l2, k2e, m2e) = key1, key2
    up, down = max(m1e - m2e, 0), max(m2e - m1e, 0)
    fine1, base2, weight, h, floor = _common_legs(m1e, xi1, m2e, xi2)
    x1, x2 = fine1.samples, base2.samples
    # the shifts whose sample runs overlap: -len(x2) < offset - b * stride < len(x1)
    offset, stride = base2.start_index - fine1.start_index, 1 << (fine1.spacing_exp - up)
    lo, hi = (offset - len(x1)) // stride + 1, (offset + len(x2) - 1) // stride
    left = compose(Monomial.from_word(l1, k1e, k1e, -l1), Monomial.from_word(0, 0, up, 0))
    a, i, j, c = compose(Monomial.from_word(0, down, 0, 0),
                         Monomial.from_word(l2, k2e, k2e, -l2)).word()
    step = 1 << min(k1e + up, k2e + down)
    out = []
    for b in range(lo + ((l2 << down) - (l1 << up) - lo) % step, hi + 1, step):
        val = weight * complex(gridmod.overlap_vdot(
            x1, fine1.start_index, x2, base2.start_index - b * stride) * h)
        if abs(val) > floor:
            out.append((compose(left, Monomial.from_word(a - b, i, j, c)), val))
    return out


def algebra_inner(phi1: BimoduleElement, phi2: BimoduleElement) -> Element:
    """Algebra-valued inner product, conjugate-linear in the first slot."""
    terms: dict[Monomial, complex] = {}
    for key1, xi1 in phi1.tensors.items():
        for key2, xi2 in phi2.tensors.items():
            for mono, val in _pair_terms(key1, xi1, key2, xi2):
                terms[mono] = terms.get(mono, 0j) + val
    return Element(terms, exact=False)


# -- the left action ---------------------------------------------------------------


def left_action(f, d: DyadicRational | int, c: PowerOfTwo,
                phi: BimoduleElement) -> BimoduleElement:
    """Action of the elementary crossed-product element f (x) 1_{(d, c)}.

    Per tensor: the power-of-two leg moves from m to m/c, the grid leg
    becomes the twisted correlation at ratio c/m, and the exact 2-adic
    phase splits the class indicator into subclasses at the denominator
    level of m d / c, each with a root-of-unity coefficient.  More than
    MAX_NORMAL_FORM_NODES subclasses, or legs over MAX_PLAIN_FFT samples in
    all, raise MemoryBudgetExceeded before they are built.
    """
    d = as_dyadic(d)
    out = []
    for (l, k_exp, m_exp), xi in phi.tensors.items():
        w = dyadic(d.numerator, d.exponent - (m_exp - c.exponent))
        big_exp = max(k_exp, w.exponent)
        split = big_exp - k_exp  # the class splits into 2^split subclasses
        if split >= MAX_NORMAL_FORM_NODES.bit_length():  # 2^split > budget, not built
            raise MemoryBudgetExceeded(f"the denominator 2^{d.exponent} of d splits a class"
                                       f" into 2^{split} subclasses, over the budget of"
                                       f" {MAX_NORMAL_FORM_NODES}")
        eta = twisted_correlation(f, d, PowerOfTwo(c.exponent - m_exp), xi)
        if eta.is_zero():
            continue
        check_budget(len(eta) << split, f"splitting into 2^{split} subclass legs")
        scalar = 2.0 ** (c.exponent / 2)  # past the correlation's budget, so it is a float
        new_m = m_exp - c.exponent
        for offset in range(l % (1 << k_exp), 1 << big_exp, 1 << k_exp):
            phase = cmath.exp(-2j * math.pi * float((offset * w).frac_mod1()))
            out.append(((offset, big_exp, new_m), eta.scale(scalar * phase)))
    return BimoduleElement(out)


def transform_eval(f, d: DyadicRational | int, c: PowerOfTwo, t: float,
                   a: PowerOfTwo, point: SolenoidPoint) -> complex:
    """Closed-form value of the transformed elementary element f (x) 1_{(d, c)}
    at the groupoid point ((t, a), [r, x])."""
    if a.exponent != c.exponent:
        return 0j
    fcheck = complex(np.asarray(f.fcheck_values(t)).ravel()[0])
    return 2.0 ** (-c.exponent) * cmath.exp(2j * math.pi * t * float(as_dyadic(d))) \
        * solenoid_character(point, d) * fcheck


# -- induced vectors ------------------------------------------------------------------


def induce(xi: GridFunction) -> BimoduleElement:
    """The canonical embedding of a grid function: the full tensor at e_0."""
    return BimoduleElement.simple(0, 0, xi, 0)


def induced_inner(phi1: BimoduleElement, phi2: BimoduleElement) -> complex:
    """<phi1 (x) e_0, phi2 (x) e_0> = <e_0, <phi1, phi2>_A e_0>, from b = 0 (module notes)."""
    total = 0j
    for (l1, _, m1e), xi1 in phi1.tensors.items():
        for (l2, _, m2e), xi2 in phi2.tensors.items():
            if l1 == l2 == 0:
                fine1, base2, weight, _, floor = _common_legs(m1e, xi1, m2e, xi2)
                val = weight * inner(fine1, base2)  # the legs at shift 0
                total += val if abs(val) > floor else 0
    return total


def induced_norm(phi: BimoduleElement) -> float:
    return math.sqrt(max(induced_inner(phi, phi).real, 0.0))


def equivalence_residual(f, d: DyadicRational | int, c: PowerOfTwo,
                         xi1: GridFunction, xi2: GridFunction) -> float:
    """Matrix-coefficient discrepancy between the induced and the standard picture.

    Compares <W xi1, Ind(f, d, c) W xi2> against
    <xi1, F (M_f T_d D_c) F^-1 xi2>, normalized by the vector norms.
    """
    # refuse refining xi1 for the pairing with the correlated legs (xi2's grid, m = 1/c) first
    xi1._refined_length(_pairing_grid(c.exponent, xi1.spacing_exp, xi2.spacing_exp))
    # and F^-1 xi2's transform over its whole period before the twisted correlation runs
    leg = gridmod.fourier_inv(xi2)
    lhs = induced_inner(induce(xi1), left_action(f, d, c, induce(xi2)))
    rhs = inner(xi1, gridmod.fourier(gridmod.rep_apply(f, d, c, leg)))
    return abs(lhs - rhs) / (gridmod.norm(xi1) * gridmod.norm(xi2))
