import cmath
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qadic import bimodule, grid
from qadic.algebra import Element, Monomial, compose, one, projection, s, s_adj, u
from qadic.bimodule import (
    INNER_EPS,
    BimoduleElement,
    _pair_terms,
    algebra_inner,
    equivalence_residual,
    induce,
    induced_inner,
    induced_norm,
    left_action,
    transform_eval,
)
from qadic.errors import InsufficientPrecision
from qadic.grid import (
    BumpSymbol,
    GaussianSymbol,
    TabulatedFourierPair,
    affine_reindex,
    fourier,
    fourier_inv,
    indicator,
    inner,
    norm,
    rep_apply,
    sample_symbol,
)
from qadic.cli import (
    RunConfig,
    build_symbol,
    build_vector,
    default_cases,
    parse_case_dyadic,
    parse_case_pow2,
)
from qadic.numbers import (
    PadicInt,
    PadicNumber,
    PowerOfTwo,
    dyadic,
    solenoid_canonical,
)

rng = random.Random(60221023)

G = 6


def unit_bump(lo8, hi8):
    """Indicator of [lo8/8, hi8/8) inside the unit interval."""
    return indicator(G, dyadic(lo8, 3), dyadic(hi8, 3))


def small_gaussian(center=0.25, width=0.1):
    return sample_symbol(GaussianSymbol(center, width), G, -2.0, 3.0)


def phi_distance(a: BimoduleElement, b: BimoduleElement) -> float:
    diff = a - b
    return max((norm(xi) for xi in diff.tensors.values()), default=0.0)


# -- right action -------------------------------------------------------------


def test_act_u_full_class():
    xi = unit_bump(1, 3)
    phi = BimoduleElement.simple(0, 0, xi)
    out = phi.act(u())
    assert set(out.tensors) == {(0, 0, 0)}
    # xi(t + 1): support moves one unit left
    lo, hi = out.tensors[(0, 0, 0)].support()
    assert lo == pytest.approx(xi.support()[0] - 1)


def test_act_u_rotates_class():
    phi = BimoduleElement.simple(1, 1, unit_bump(0, 2))
    out = phi.act(u())
    assert set(out.tensors) == {(0, 1, 0)}
    back = out.act(u(-1))
    assert phi_distance(back, phi) == 0


def test_act_u_pointwise():
    xi = unit_bump(0, 4)
    phi = BimoduleElement.simple(1, 2, xi, 0)
    out = phi.act(u())
    for res in range(4):
        z = PadicInt(res, 8)
        for t in (0.125, 0.25, -0.75):
            assert out.eval(z, t, 0) == pytest.approx(phi.eval(z + 1, t + 1, 0))


def test_eval_reads_only_the_known_bits_of_z():
    phi = BimoduleElement.simple(5, 3, unit_bump(0, 8))
    assert phi.eval(PadicInt(13, 4), 0.5, 0) == 1
    assert phi.eval(PadicInt(1, 3), 0.5, 0) == 0
    with pytest.raises(InsufficientPrecision):  # z = 1 mod 4 may be 5 mod 8
        phi.eval(PadicInt(5, 2), 0.5, 0)


def test_act_s_examples():
    xi = unit_bump(0, 4)
    out = BimoduleElement.simple(0, 0, xi).act(s())
    assert set(out.tensors) == {(0, 0, 1)}
    # xi(2t): support halves
    assert out.tensors[(0, 0, 1)].support()[1] == pytest.approx(
        xi.support()[1] / 2)

    assert BimoduleElement.simple(1, 1, xi).act(s()).is_zero()

    out = BimoduleElement.simple(2, 2, xi).act(s())
    assert set(out.tensors) == {(1, 1, 1)}


def test_act_s_adj_example():
    xi = unit_bump(0, 4)
    out = BimoduleElement.simple(0, 0, xi, 1).act(s_adj())
    assert set(out.tensors) == {(0, 1, 0)}
    assert out.tensors[(0, 1, 0)].support()[1] == pytest.approx(xi.support()[1] * 2)


def test_act_s_pointwise():
    xi = unit_bump(0, 6)
    phi = BimoduleElement.simple(2, 2, xi, 0)
    out = phi.act(s())
    for res in range(8):
        z = PadicInt(res, 8)
        for t in (0.125, 0.375):
            assert out.eval(z, t, 1) == pytest.approx(phi.eval(z * 2, 2 * t, 0))


def test_act_word_matches_generator_compositions():
    xi = unit_bump(1, 5)
    phi = BimoduleElement.simple(1, 1, xi, 0)
    via_word = phi.act(projection(0, 1))  # e_2 = s s*
    via_steps = phi.act(s()).act(s_adj())
    assert phi_distance(via_word, via_steps) <= 1e-12


def test_act_associative_samples():
    xi = unit_bump(0, 8)
    phi = BimoduleElement.simple(0, 1, xi, 0)
    candidates = [u(), u(-1), s(), s_adj(), projection(1, 1), u() * s()]
    for _ in range(12):
        q1 = candidates[rng.randrange(len(candidates))]
        q2 = candidates[rng.randrange(len(candidates))]
        lhs = phi.act(q1).act(q2)
        rhs = phi.act(q1 * q2)
        assert phi_distance(lhs, rhs) <= 1e-10


def _merged(pairs):
    out = {}
    for key, xi in pairs:
        out[key] = out[key] + xi if key in out else xi
    return BimoduleElement(out.items())


def ref_act_u(phi, power):
    """Per-generator reference: (z + n, t + n, a); the class offset drops."""
    return _merged((((l - power) % (1 << k), k, m), grid.translate(xi, -power))
                   for (l, k, m), xi in phi.tensors.items())


def ref_act_s(phi):
    """Per-generator reference: (2z, 2t, a/2); odd classes are annihilated."""
    return _merged((((l // 2, k - 1, m + 1) if k else (0, 0, m + 1)),
                    affine_reindex(xi, 1, 0))
                   for (l, k, m), xi in phi.tensors.items() if k == 0 or l % 2 == 0)


def ref_act_s_adj(phi):
    """Per-generator reference: (z/2, t/2, 2a) against the even-class indicator."""
    return _merged((((2 * l) % (1 << (k + 1)), k + 1, m - 1), affine_reindex(xi, -1, 0))
                   for (l, k, m), xi in phi.tensors.items())


def ref_act_word(phi, a, i, j, b):
    out = ref_act_u(phi, a)
    for _ in range(i):
        out = ref_act_s(out)
    for _ in range(j):
        out = ref_act_s_adj(out)
    return ref_act_u(out, b)


@st.composite
def tensors(draw):
    k = draw(st.integers(0, 4))
    spacing = draw(st.integers(-3, 6))
    style = draw(st.sampled_from(("step", "smooth")))
    values = draw(st.lists(st.complex_numbers(max_magnitude=4, allow_nan=False,
                                              allow_infinity=False), min_size=1, max_size=6))
    xi = grid.GridFunction(spacing, draw(st.integers(-8, 8)), values, style)
    return BimoduleElement.simple(draw(st.integers(0, (1 << k) - 1)), k, xi,
                                  draw(st.integers(-3, 3)))


@settings(max_examples=300, deadline=None)
@given(tensors(), st.integers(0, 7), st.integers(0, 3), st.integers(0, 3), st.integers(-5, 5))
def test_act_word_is_the_per_generator_composition(phi, a, i, j, b):
    # one substitution per tensor equals u^a, then s i times, then s* j
    # times, then u^b; the reference may refine a leg further, which
    # changes no sample on the common grid
    got, want = phi.act_word(a, i, j, b), ref_act_word(phi, a, i, j, b)
    assert list(got.tensors) == list(want.tensors)
    for key, xi in got.tensors.items():
        assert norm(xi - want.tensors[key]) == 0, key


_WORDS = st.tuples(st.integers(-3, 3), st.integers(0, 2), st.integers(0, 2), st.integers(-3, 3),
                   st.integers(-4, 4).filter(bool))


@settings(max_examples=200, deadline=None)
@given(st.lists(tensors(), min_size=1, max_size=3), st.lists(_WORDS, min_size=1, max_size=4),
       st.booleans())
def test_act_merges_every_term_once(parts, words, numeric):
    # one merge of every term's scaled tensors, in term order, is the
    # term-by-term running sum, leg for leg and bit for bit
    phi = BimoduleElement(pair for part in parts for pair in part.tensors.items())
    q = Element.sum(Element.from_word(a, i, j, b, c * (0.5 + 0.25j) if numeric else Fraction(c, 3))
                    for a, i, j, b, c in words)
    want = BimoduleElement()
    for m, c in q.terms.items():
        want = want + phi.act_word(*m.word()).scale(complex(c))
    got = phi.act(q)
    assert list(got.tensors) == list(want.tensors)
    for key, xi in got.tensors.items():
        ref = want.tensors[key]
        assert (xi.spacing_exp, xi.start_index, xi.lag, xi.style) == \
            (ref.spacing_exp, ref.start_index, ref.lag, ref.style)
        assert xi.samples.tobytes() == ref.samples.tobytes()


# -- algebra-valued inner product ------------------------------------------------


def test_inner_of_unit_support_is_scalar():
    xi = unit_bump(1, 7)
    phi = BimoduleElement.simple(0, 0, xi)
    q = algebra_inner(phi, phi)
    assert q.approx_equals(one().scale(inner(xi, xi)), tol=1e-9)


def test_inner_offdiagonal_class_kills_basis_zero():
    xi = unit_bump(0, 8)
    phi = BimoduleElement.simple(1, 1, xi, 0)  # class 1 + 2Z
    q = algebra_inner(phi, phi)
    assert q.apply({0: 1.0}) == {}


def compose_chain(*words):
    out = Monomial.from_word(*words[0])
    for word in words[1:]:
        out = compose(out, Monomial.from_word(*word))
        if out is None:
            return None
    return out


def per_shift_terms(key1, xi1, key2, xi2, large_left):
    """Reference terms: every shift b composes its four-monomial chain and
    reindexes xi2 afresh, and inner() refines both legs again.  Terms are
    kept above INNER_EPS times the Cauchy-Schwarz bound of the pair, with
    both legs refined to the common grid 2^-g."""
    (l1, k1e, m1e), (l2, k2e, m2e) = key1, key2
    shift_exp = m1e - m2e
    p1, p2 = (l1, k1e, k1e, -l1), (l2, k2e, k2e, -l2)
    g = max(xi1.spacing_exp, xi2.spacing_exp + shift_exp, shift_exp, 0)
    norm1, norm2 = (math.sqrt(np.vdot(x, x).real)
                    for x in (xi1.to_grid(g).samples, xi2.to_grid(g - shift_exp).samples))
    floor = INNER_EPS * 2.0 ** m1e * 2.0 ** -g * norm1 * norm2
    out = []
    for b in range(-64, 65):
        if large_left:  # P1 S*^e U^-b P2, xi2(t m1/m2 + b)
            mono = compose_chain(p1, (0, 0, shift_exp, 0), (-b, 0, 0, 0), p2)
            shift = b
        else:  # P1 U^-b S^n P2, xi2((t + b) m1/m2)
            mono = compose_chain(p1, (-b, 0, 0, 0), (0, -shift_exp, 0, 0), p2)
            shift = dyadic(b, -shift_exp)
        if mono is None:
            continue
        val = 2.0 ** m1e * inner(xi1, affine_reindex(xi2, shift_exp, shift))
        if abs(val) > floor:
            out.append((mono, val))
    return out


def test_inner_branch_overlap_consistency():
    # at m1 = m2 both per-shift formulas are the kernel's, to the last digit;
    # the unit bumps meet only at b = 0, where the classes are disjoint
    key1, key2 = (1, 2, 0), (3, 2, 0)
    wide = sample_symbol(GaussianSymbol(-0.1, 1.0), G, -4.0, 4.0)
    for xi1, xi2, count in [(unit_bump(0, 3), unit_bump(2, 6), 0),
                            (unit_bump(0, 3), wide, 2)]:
        got = _pair_terms(key1, xi1, key2, xi2)
        assert len(got) == count
        assert got == per_shift_terms(key1, xi1, key2, xi2, large_left=False)
        assert got == per_shift_terms(key1, xi1, key2, xi2, large_left=True)


@pytest.mark.parametrize("m1e,m2e", [(-2, 0), (-1, 1), (0, 0), (1, -1), (2, 0)])
def test_inner_branches_equal_per_shift_reindexing(m1e, m2e):
    # the kernel refines once per pair and reads each shift as a slice,
    # which must not change a digit or a monomial
    xi1 = unit_bump(1, 5)
    xi2 = sample_symbol(GaussianSymbol(-0.1, 0.4), G + 1, -2.0, 3.0)
    key1, key2 = (0, 0, m1e), (0, 0, m2e)
    got = _pair_terms(key1, xi1, key2, xi2)
    assert got
    assert got == per_shift_terms(key1, xi1, key2, xi2, large_left=m1e > m2e)


def test_inner_kernel_matches_chain_on_class_keys():
    # nonzero residue classes: the kernel's b-free factor must carry l1, l2
    # exactly as the per-shift chain does, for legs at mixed spacings
    pair_rng = random.Random(1729)
    classes = [(l, k) for k in range(4) for l in range(1 << k)]
    step_fine = unit_bump(1, 5)
    gauss_finer = sample_symbol(GaussianSymbol(-0.1, 0.4), G + 1, -2.0, 3.0)
    gauss = sample_symbol(GaussianSymbol(0.2, 0.5), G, -2.0, 2.0)
    legs = [  # (xi1, xi2, m-exponent pairs)
        (step_fine, gauss_finer, [(m1e, m2e) for m1e in range(-2, 3) for m2e in range(-2, 3)]),
        # a smooth xi1 with a coarser step xi2
        (gauss, indicator(1, dyadic(-1, 1), 1), [(e, 0) for e in range(-3, 4)]),
        # coarse legs, where e = m1e - m2e or 0 sets the common grid; with
        # dyadic step samples every Riemann sum is exact on any refinement,
        # so the reference may pair them on its own per-shift grid
        (grid.GridFunction(0, -1, [1, 2, 0.5], "step"),
         grid.GridFunction(-1, -1, [0.5, 1j, 1], "step"), [(0, -e) for e in range(-3, 4)]),
        (grid.GridFunction(-1, -1, [1, 1j, 0.5], "step"),
         grid.GridFunction(-2, -1, [2, 1], "step"), [(e, 0) for e in range(-3, 4)]),
    ]
    winners = set()
    for xi1, xi2, exponents in legs:
        for m1e, m2e in exponents:
            e = m1e - m2e
            candidates = (xi1.spacing_exp, xi2.spacing_exp + e, e, 0)
            if candidates.count(max(candidates)) == 1:
                winners.add(candidates.index(max(candidates)))
            for _ in range(3):
                (l1, k1e), (l2, k2e) = pair_rng.choice(classes), pair_rng.choice(classes)
                key1, key2 = (l1, k1e, m1e), (l2, k2e, m2e)
                assert _pair_terms(key1, xi1, key2, xi2) == \
                    per_shift_terms(key1, xi1, key2, xi2, large_left=e > 0), (key1, key2)
    assert winners == {0, 1, 2, 3}  # every argument of the common grid's max wins once


def test_inner_kernel_reads_only_the_shifts_that_pair(monkeypatch):
    # one overlap_vdot per member of the pairing class in [lo, hi], not one per
    # shift: the run at trivial classes (where every shift pairs) lists [lo, hi]
    starts = []
    real_vdot = grid.overlap_vdot
    monkeypatch.setattr(grid, "overlap_vdot",
                        lambda x1, s1, x2, s2: starts.append(s2) or real_vdot(x1, s1, x2, s2))
    xi1, xi2 = unit_bump(1, 5), sample_symbol(GaussianSymbol(-0.1, 0.4), G + 1, -2.0, 3.0)
    for m1e, m2e in [(0, 0), (2, 0), (0, 2), (-1, 1)]:
        e = m1e - m2e
        up, down = max(e, 0), max(-e, 0)
        fine1, base2, *_ = bimodule._common_legs(m1e, xi1, m2e, xi2)
        stride = 1 << (fine1.spacing_exp - up)
        starts.clear()
        _pair_terms((0, 0, m1e), xi1, (0, 0, m2e), xi2)
        shifts = [(base2.start_index - start) // stride for start in starts]
        assert shifts == list(range(shifts[0], shifts[-1] + 1))
        for (l1, k1e), (l2, k2e) in [((1, 2), (3, 2)), ((0, 1), (5, 3)), ((3, 3), (1, 1))]:
            p1, p2 = (l1, k1e, k1e, -l1), (l2, k2e, k2e, -l2)
            pairing = [b for b in shifts if compose_chain(
                p1, (0, 0, up, 0), (-b, down, 0, 0), p2) is not None]
            starts.clear()
            _pair_terms((l1, k1e, m1e), xi1, (l2, k2e, m2e), xi2)
            assert starts == [base2.start_index - b * stride for b in pairing]
            assert len(starts) < len(shifts)


def test_inner_reads_shifts_without_grid_calls(monkeypatch):
    # every shift is a slice of the once-refined legs: no translate, no inner
    config = RunConfig(grid_exp=6)
    pairs = []
    for case in default_cases():
        f, d, c = build_symbol(case["f"]), parse_case_dyadic(case["d"]), parse_case_pow2(case["c"])
        phi2 = left_action(f, d, c, induce(build_vector(case["xi"], config)))
        pairs.append((induce(build_vector(case["xi1"], config)), phi2))
    calls = dict.fromkeys(("translate", "inner"), 0)
    for module, name in ((bimodule, "inner"), (grid, "translate"), (grid, "inner")):
        def counted(*args, _name=name, _fn=getattr(module, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counted)
    for phi1, phi2 in pairs:
        assert not algebra_inner(phi1, phi2).is_zero()
    assert calls == {"translate": 0, "inner": 0}


def test_module_axiom_right_linearity():
    # <phi1, phi2 . q> = <phi1, phi2> q
    phis = [
        BimoduleElement.simple(0, 0, unit_bump(0, 4), 0),
        BimoduleElement.simple(1, 1, unit_bump(2, 6), 0),
        BimoduleElement.simple(0, 0, unit_bump(1, 5), 1),
        BimoduleElement.simple(3, 2, unit_bump(0, 8), -1),
    ]
    qs = [u(), u(-1), s(), projection(0, 1), u() * s()]
    for phi1 in phis:
        for phi2 in phis:
            base = algebra_inner(phi1, phi2)
            for q in qs:
                lhs = algebra_inner(phi1, phi2.act(q))
                rhs = base * q
                assert lhs.approx_equals(rhs, tol=1e-6)


def test_module_axiom_adjoint():
    # <phi1 . q, phi2> = q* <phi1, phi2>; with q = s* this pins the
    # coisometry action
    phis = [
        BimoduleElement.simple(0, 0, unit_bump(0, 4), 0),
        BimoduleElement.simple(1, 1, unit_bump(2, 7), 0),
        BimoduleElement.simple(0, 1, unit_bump(1, 6), 1),
    ]
    qs = [u(), s(), s_adj(), projection(1, 2), u() * s()]
    for phi1 in phis:
        for phi2 in phis:
            base = algebra_inner(phi1, phi2)
            for q in qs:
                lhs = algebra_inner(phi1.act(q), phi2)
                rhs = q.adjoint() * base
                assert lhs.approx_equals(rhs, tol=1e-6)


def test_inner_numeric_positivity():
    phi = BimoduleElement.simple(0, 0, unit_bump(0, 5), 0) + \
        BimoduleElement.simple(1, 1, unit_bump(3, 8), 1).scale(0.5 - 0.25j)
    q = algebra_inner(phi, phi)
    entries, _ = q.matrix_window(32)
    dense = np.zeros((65, 65), dtype=complex)
    for (r, c), v in entries.items():
        dense[r + 32, c + 32] = v
    eigs = np.linalg.eigvalsh(dense)
    assert eigs.min() >= -1e-6


def test_inner_conjugate_symmetry():
    phi1 = BimoduleElement.simple(0, 1, unit_bump(0, 4), 0)
    phi2 = BimoduleElement.simple(0, 0, unit_bump(2, 8), 1).scale(1 + 2j)
    q12 = algebra_inner(phi1, phi2)
    q21 = algebra_inner(phi2, phi1)
    assert q12.adjoint().approx_equals(q21, tol=1e-9)


# -- left action ---------------------------------------------------------------------


def test_left_action_moves_m_leg():
    phi = BimoduleElement.simple(0, 0, small_gaussian(), 0)
    out = left_action(GaussianSymbol(0, 1.0), dyadic(0), PowerOfTwo(1), phi)
    assert all(key[2] == -1 for key in out.tensors)


def test_left_action_near_identity():
    # a narrow bump integrates to its radius; d = 0, c = 1
    radius = 1.0 / 32
    f = BumpSymbol(0.0, radius)
    xi = sample_symbol(GaussianSymbol(0.5, 2.0), G, -8, 8)
    phi = BimoduleElement.simple(0, 0, xi, 0)
    out = left_action(f, 0, PowerOfTwo(0), phi)
    assert set(out.tensors) == {(0, 0, 0)}
    got = out.tensors[(0, 0, 0)]
    assert norm(got - xi.scale(radius)) <= 5e-3 * radius * norm(xi)


def test_left_action_splits_classes_exactly():
    # w = m d / c = 1/4: the full class splits into 4 subclasses with
    # exact fourth-root-of-unity phases
    xi = small_gaussian()
    phi = BimoduleElement.simple(0, 0, xi, 0)
    out = left_action(GaussianSymbol(0, 1.0), dyadic(1, 1), PowerOfTwo(1), phi)
    keys = sorted(out.tensors)
    assert [k[:2] for k in keys] == [(0, 2), (1, 2), (2, 2), (3, 2)]
    base = out.tensors[(0, 2, -1)]
    for offset in range(1, 4):
        expected = base.scale(cmath.exp(-2j * math.pi * offset / 4))
        assert norm(out.tensors[(offset, 2, -1)] - expected) <= 1e-12 * norm(base)


def test_left_action_composition():
    f1 = GaussianSymbol(0.0, 1.0)
    f2 = GaussianSymbol(0.25, 0.8)
    d1, c1 = dyadic(1, 1), PowerOfTwo(1)
    d2, c2 = dyadic(1), PowerOfTwo(-1)
    xi = small_gaussian(0.0, 0.5)
    phi = BimoduleElement.simple(0, 0, xi, 0)

    step = left_action(f2, d2, c2, phi)
    lhs = left_action(f1, d1, c1, step)

    # product element: f3 = f1 * (f2 affinely moved by (d1, c1)), at the
    # composed group element (d1 + c1 d2, c1 c2)
    def f3(x):
        x = np.asarray(x, dtype=float)
        return f1.f_values(x) * f2.f_values((x - float(d1)) / float(c1))

    class _Product:
        f_values = staticmethod(f3)

    f_grid = sample_symbol(_Product, 8, -20, 20)
    fcheck_grid = fourier_inv(f_grid)
    f3_sym = TabulatedFourierPair(f_grid, fcheck_grid, check_tol=1e-5)
    d3 = d1 + dyadic(1) * c1.as_dyadic()
    rhs = left_action(f3_sym, d3, c1 * c2, phi)

    assert set(lhs.tensors) == set(rhs.tensors)
    scale = max(norm(x) for x in rhs.tensors.values())
    for key in rhs.tensors:
        assert norm(lhs.tensors[key] - rhs.tensors[key]) <= 1e-3 * scale


# -- transform evaluation ---------------------------------------------------------


def test_transform_eval_trivial_group_element():
    f = GaussianSymbol(0.0, 1.0)
    point = solenoid_canonical(0.37, PadicNumber(PadicInt(5, 16), 0))
    for t in (0.0, 0.5, -1.25):
        val = transform_eval(f, dyadic(0), PowerOfTwo(0), t, PowerOfTwo(0), point)
        assert val == pytest.approx(complex(f.fcheck_values(t)))


def test_transform_eval_leg_mismatch():
    f = GaussianSymbol(0.0, 1.0)
    point = solenoid_canonical(0.0, 0)
    assert transform_eval(f, dyadic(1, 1), PowerOfTwo(1), 0.3, PowerOfTwo(0), point) == 0


def test_transform_eval_well_defined_on_solenoid():
    f = GaussianSymbol(0.0, 1.0)
    for _ in range(100):
        r = rng.uniform(-2, 2)
        x = PadicNumber(PadicInt(rng.randrange(1 << 32), 40), rng.randrange(0, 4))
        shift = dyadic(rng.randrange(-20, 20), rng.randrange(0, 4))
        d = dyadic(rng.randrange(-9, 9), rng.randrange(0, 3))
        c = PowerOfTwo(rng.randrange(-2, 3))
        t = rng.uniform(-2, 2)
        p1 = solenoid_canonical(r, x)
        p2 = solenoid_canonical(r + float(shift), x + shift)
        v1 = transform_eval(f, d, c, t, c, p1)
        v2 = transform_eval(f, d, c, t, c, p2)
        assert abs(v1 - v2) <= 1e-10


# -- induced vectors ---------------------------------------------------------------


def test_induced_isometry_unit_support():
    xi1, xi2 = unit_bump(0, 3), unit_bump(1, 6)
    lhs = induced_inner(induce(xi1), induce(xi2))
    assert abs(lhs - inner(xi1, xi2)) <= 1e-6 * norm(xi1) * norm(xi2)


def test_induced_isometry_gaussian():
    xi1 = small_gaussian(0.2, 0.3)
    xi2 = small_gaussian(0.6, 0.4)
    lhs = induced_inner(induce(xi1), induce(xi2))
    assert abs(lhs - inner(xi1, xi2)) <= 1e-6 * norm(xi1) * norm(xi2)


def test_induced_orthogonality_disjoint():
    v1, v2 = induce(unit_bump(0, 4)), induce(unit_bump(4, 8))
    assert abs(induced_inner(v1, v2)) <= 1e-12


def test_offclass_tensor_induces_null_vector():
    # 1_{l + k Z_2} (x) xi (x) 1_m against basis 0 vanishes unless l in k Z
    xi = unit_bump(0, 8)
    for (l, k_exp, m_exp) in [(1, 1, 0), (1, 2, 1), (3, 2, -1), (2, 2, 0)]:
        v = BimoduleElement.simple(l, k_exp, xi, m_exp)
        if l % (1 << k_exp) == 0:
            assert induced_norm(v) > 0.1
        else:
            assert induced_norm(v) <= 1e-9


def test_projected_tensor_equals_plain_tensor():
    # the depth-k class indicator around 0 acts trivially on the induced
    # vector at basis 0
    xi = unit_bump(1, 7)
    for k_exp in (1, 2, 3):
        v1 = BimoduleElement.simple(0, k_exp, xi, 0)
        v2 = BimoduleElement.simple(0, 0, xi, 0)
        assert induced_norm(v1 - v2) <= 1e-9


def test_scaled_m_leg_lies_in_induced_range():
    # (1 (x) xi (x) 1_m) (x) eps_0 matches W(xi(. / m))
    xi = unit_bump(0, 8)
    for m_exp in (1, 2, -1):
        v = BimoduleElement.simple(0, 0, xi, m_exp)
        w = induce(affine_reindex(xi, -m_exp, 0))
        assert induced_norm(v - w) <= 1e-9


def test_induced_positivity_and_linearity():
    v = induce(unit_bump(0, 5)) + induce(small_gaussian()).scale(0.3j)
    assert induced_inner(v, v).real >= -1e-8
    f, d, c = GaussianSymbol(0, 1.0), dyadic(1, 1), PowerOfTwo(1)
    v1, v2 = induce(unit_bump(0, 4)), induce(small_gaussian())
    lhs = left_action(f, d, c, v1 + v2)
    rhs = left_action(f, d, c, v1) + left_action(f, d, c, v2)
    assert induced_norm(lhs - rhs) <= 1e-8


def test_induced_act_norm_bound():
    f = GaussianSymbol(0.25, 0.7)
    v = induce(small_gaussian(0.3, 0.5))
    out = left_action(f, dyadic(1, 1), PowerOfTwo(1), v)
    # sup |f| = 1 for a Gaussian symbol
    assert induced_norm(out) <= (1 + 1e-6) * 1.0 * induced_norm(v) + 1e-9


def test_induced_act_near_identity():
    radius = 1.0 / 32
    f = BumpSymbol(0.0, radius)
    v = induce(sample_symbol(GaussianSymbol(0.5, 2.0), G, -8, 8))
    out = left_action(f, 0, PowerOfTwo(0), v)
    assert induced_norm(out - v.scale(radius)) <= 5e-3 * radius * induced_norm(v)


def test_induced_inner_reads_basis_pairs_through_u():
    # phi (x) e_n = phi . u^n (x) e_0: the pairing of two basis legs is the
    # pairing at e_0 of the module elements moved by u^n
    pair_rng = random.Random(2718)
    legs = [unit_bump(0, 4), sample_symbol(GaussianSymbol(0.3, 2.0), G, -8, 8),
            sample_symbol(GaussianSymbol(-0.5, 1.5), G - 1, -8, 8)]
    nonzero = 0
    for _ in range(120):
        phi1, phi2 = (BimoduleElement.simple(
            pair_rng.randrange(1 << k), k, pair_rng.choice(legs).scale(
                cmath.exp(1j * pair_rng.uniform(0, 2 * math.pi))), pair_rng.randrange(-2, 3))
            for k in (pair_rng.randrange(3), pair_rng.randrange(3)))
        n1, n2 = pair_rng.randrange(-6, 7), pair_rng.randrange(-6, 7)
        q = algebra_inner(phi1, phi2)
        legacy = q.apply({n2: 1.0}).get(n1, 0j)
        got = induced_inner(phi1.act(u(n1)), phi2.act(u(n2)))
        assert abs(got - legacy) <= 1e-12 * abs(legacy), (n1, n2)
        nonzero += abs(legacy) > 0
    assert nonzero >= 10


def random_element(draw_rng, off_zero=False):
    """One to three tensors with k in {0, 1, 2}, m in -2..2 and short step or
    smooth legs; with off_zero, no class holds 0 (k >= 1, offset l != 0)."""
    tensors = []
    for _ in range(draw_rng.randrange(1, 4)):
        k = draw_rng.randrange(off_zero, 3)
        values = [complex(draw_rng.uniform(-2, 2), draw_rng.uniform(-2, 2))
                  for _ in range(draw_rng.randrange(1, 6))]
        xi = grid.GridFunction(draw_rng.randrange(2, 5), draw_rng.randrange(-8, 9), values,
                               draw_rng.choice(("step", "smooth")))
        tensors.append(((draw_rng.randrange(off_zero, 1 << k), k, draw_rng.randrange(-2, 3)), xi))
    return BimoduleElement(tensors)


def test_induced_inner_matches_the_algebra_route():
    # the terms that send e_0 to e_0 are the whole entry <e_0, <phi1, phi2>_A e_0>; with
    # one such term the two routes add nothing else and agree to the bit, and with more
    # they only add in another order.  Only class-0 pairs are scanned for them: a term
    # the scan missed would show in the legacy entry
    draw_rng = random.Random(5772)
    eps = np.finfo(float).eps
    reaching = {0: 0, 1: 0, 2: 0}
    for _ in range(300):
        phi1, phi2 = random_element(draw_rng), random_element(draw_rng)
        vals = [val for key1, xi1 in phi1.tensors.items() for key2, xi2 in phi2.tensors.items()
                if key1[0] == key2[0] == 0
                for mono, val in _pair_terms(key1, xi1, key2, xi2) if mono.apply_index(0) == 0]
        got = induced_inner(phi1, phi2)
        legacy = algebra_inner(phi1, phi2).apply({0: 1.0}).get(0, 0j)
        if len(vals) <= 1:
            assert got == legacy == sum(vals, 0j)
        else:
            assert abs(got - legacy) <= 4 * len(vals) * eps * sum(map(abs, vals))
        reaching[min(len(vals), 2)] += 1
    assert min(reaching.values()) >= 10, reaching


def test_induced_inner_without_a_class_zero_tensor_is_zero():
    draw_rng = random.Random(1414)
    for _ in range(50):
        phi = random_element(draw_rng)
        off = random_element(draw_rng, off_zero=True)
        assert all(l for l, _, _ in off.tensors)
        assert induced_inner(off, phi) == induced_inner(phi, off) == 0j


# -- the unitary-equivalence residual ------------------------------------------------


def default_xis(g=G):
    xi1 = sample_symbol(GaussianSymbol(-0.125, 1.0), g, -16, 16)
    xi2 = sample_symbol(GaussianSymbol(0.25, 0.75), g, -16, 16)
    return xi1, xi2


EQUIV_CASES = [
    (dyadic(0), PowerOfTwo(0), 1e-3),
    (dyadic(1), PowerOfTwo(0), 1e-3),
    (dyadic(1, 1), PowerOfTwo(1), 5e-3),
    (dyadic(3, 1), PowerOfTwo(-1), 5e-3),
    (dyadic(0), PowerOfTwo(1), 5e-3),
]


@pytest.mark.parametrize("d,c,tol", EQUIV_CASES)
def test_equivalence_residual_cases(d, c, tol):
    f = BumpSymbol(0.0, 1.5)
    xi1, xi2 = default_xis()
    assert equivalence_residual(f, d, c, xi1, xi2) <= tol


def test_equivalence_residual_gaussian_symbol():
    f = GaussianSymbol(0.0, 1.0)
    xi1, xi2 = default_xis()
    for d, c, tol in EQUIV_CASES:
        assert equivalence_residual(f, d, c, xi1, xi2) <= tol


def test_equivalence_residual_converges():
    f = BumpSymbol(0.0, 1.5)
    d, c = dyadic(1), PowerOfTwo(0)
    coarse = equivalence_residual(f, d, c, *default_xis(6))
    fine = equivalence_residual(f, d, c, *default_xis(8))
    assert fine * 2 <= coarse


# the default residuals when every transform had reciprocal spacing 2^-g (4^g points)
FINE_RECIPROCAL_RESIDUALS = {
    6: [1.9292e-10, 6.9498e-11, 2.3620e-12, 1.2618e-11, 2.6276e-12],
    8: [7.5366e-13, 2.7145e-13, 9.3269e-15, 4.9230e-14, 1.0243e-14],
}


def test_equivalence_residuals_keep_their_error_behaviour():
    # transforms sized from their legs: at g = 6 and 8 the residuals rise by 10 % at
    # most, and from g = 10 on they stay at the roundoff floor
    f = BumpSymbol(0.0, 1.5)
    for g in (6, 8, 10, 12):
        xis, fine = default_xis(g), FINE_RECIPROCAL_RESIDUALS.get(g)
        for k, (d, c, _) in enumerate(EQUIV_CASES):
            bound = 1.1 * fine[k] if fine else 1e-14
            assert equivalence_residual(f, d, c, *xis) <= bound, (g, d, c)


def reference_coefficient(f, d, c, sym1, sym2):
    """The normalized coefficient c^(1/2) int e(s d) fcheck(s) K(s) ds / (|xi1| |xi2|) of a
    bump f and Gaussian vectors, by 400-node Gauss-Legendre on fcheck's support.

    The overlap K(s) = int conj xi1(t) e(t d) xi2(c (t + s)) dt of Gaussians (mu1, w1),
    (mu2, w2) is closed form: with a1 = w1^-2, a2 = c^2 w2^-2, A = a1 + a2,
    nu = mu2 / c - s and m = (a1 mu1 + a2 nu) / A,
    K(s) = A^(-1/2) exp(-pi a1 a2 (mu1 - nu)^2 / A) e(m d) exp(-pi d^2 / A),
    and |xi|^2 = w / sqrt(2).
    """
    nodes, weights = np.polynomial.legendre.leggauss(400)
    s_nodes = f.center + f.radius * nodes
    (mu1, w1), (mu2, w2) = (sym1.center, sym1.width), (sym2.center, sym2.width)
    a1, a2 = w1 ** -2, (c / w2) ** 2
    big_a = a1 + a2
    nu = mu2 / c - s_nodes
    m = (a1 * mu1 + a2 * nu) / big_a
    overlap = big_a ** -0.5 * np.exp(-np.pi * a1 * a2 * (mu1 - nu) ** 2 / big_a) \
        * np.exp(2j * np.pi * m * d) * np.exp(-np.pi * d ** 2 / big_a)
    integral = f.radius * np.dot(weights, np.exp(2j * np.pi * s_nodes * d)
                                          * f.fcheck_values(s_nodes) * overlap)
    return math.sqrt(c) * integral / math.sqrt(w1 * w2 / 2)


@pytest.mark.parametrize("case", default_cases(), ids=lambda case: f"d={case['d']},c={case['c']}")
def test_each_route_against_an_independent_reference(case):
    # the standard route sits at the reference's roundoff floor (<= 2.4e-14) at every g;
    # the induced route converges at order 4, so on Gaussian cases the residual is its error
    f = BumpSymbol(case["f"]["center"], case["f"]["radius"])
    d, c = parse_case_dyadic(case["d"]), parse_case_pow2(case["c"])
    syms = [GaussianSymbol(case[key]["center"], case[key]["width"]) for key in ("xi1", "xi")]
    ref = reference_coefficient(f, float(d), float(c), *syms)
    induced_errors = []
    for g in (4, 5, 6, 8, 10, 12):
        xi1, xi2 = (sample_symbol(sym, g, -16, 16) for sym in syms)
        scale = norm(xi1) * norm(xi2)
        standard = inner(xi1, fourier(rep_apply(f, d, c, fourier_inv(xi2)))) / scale
        assert abs(standard - ref) <= 1e-13, g
        if g <= 6:
            induced = induced_inner(induce(xi1), left_action(f, d, c, induce(xi2))) / scale
            induced_errors.append(abs(induced - ref))
    orders = [math.log2(a / b) for a, b in zip(induced_errors, induced_errors[1:])]
    assert all(abs(order - 4) <= 0.2 for order in orders), orders


def indicator_residual(g):
    """The residual of case (1/2, 2) with the vectors 1_[-1/2, 1) and 1_[0, 3/4)."""
    return equivalence_residual(BumpSymbol(0.0, 1.5), dyadic(1, 1), PowerOfTwo(1),
                                indicator(g, 0, dyadic(3, 2)), indicator(g, dyadic(-1, 1), 1))


@pytest.mark.parametrize("g,want", [(8, 1.4589e-4), (10, 3.6441e-5), (11, 1.8218e-5)])
def test_indicator_residuals_keep_their_values(g, want):
    # the values read when every transform had reciprocal spacing 2^-g
    assert indicator_residual(g) == pytest.approx(want, rel=1e-3)


def test_indicator_case_fits_at_g12():
    # at reciprocal spacing 2^-g this case needed a 2^26-point transform
    tracemalloc.start()
    try:
        residual = indicator_residual(12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residual <= 5e-3
    assert peak < 100 << 20


def default_case_legs():
    """(f, d, c, xi1, xi2) of the five default duality cases at g = G."""
    f = BumpSymbol(0.0, 1.5)
    return [(f, d, c, *default_xis()) for d, c, _ in EQUIV_CASES]


def test_equivalence_residual_is_scale_free():
    # the duality is unitary equivalence: scaling both vectors by 2^k
    # changes no bit of the residual
    for f, d, c, xi1, xi2 in default_case_legs():
        base = equivalence_residual(f, d, c, xi1, xi2)
        for k in range(-60, 61):
            scaled = equivalence_residual(f, d, c, xi1.scale(2.0 ** k), xi2.scale(2.0 ** k))
            assert scaled == base, (d, c, k)


def test_equivalence_residual_ignores_unit_phases():
    phase_rng = random.Random(314)
    for f, d, c, xi1, xi2 in default_case_legs():
        base = equivalence_residual(f, d, c, xi1, xi2)
        for _ in range(4):
            z1, z2 = (cmath.exp(1j * phase_rng.uniform(0, 2 * math.pi)) for _ in range(2))
            got = equivalence_residual(f, d, c, xi1.scale(z1), xi2.scale(z2))
            assert abs(got - base) <= 1e-15, (d, c, z1, z2)


def test_algebra_inner_is_conjugate_homogeneous():
    # algebra_inner(lam phi1, phi2) = conj(lam) algebra_inner(phi1, phi2):
    # the same monomials at every scale, coefficients to roundoff
    lams = [10.0 ** e * cmath.exp(1j * e) for e in np.linspace(-9, 9, 10)]
    for f, d, c, xi1, xi2 in default_case_legs():
        phi1 = BimoduleElement.simple(0, 0, xi1)
        phi2 = left_action(f, d, c, BimoduleElement.simple(0, 0, xi2))
        base = algebra_inner(phi1, phi2)
        for lam in lams:
            got = algebra_inner(phi1.scale(lam), phi2)
            assert list(got.terms) == list(base.terms), (d, c, lam)
            bound = 1e-12 * abs(lam) * norm(xi1) * norm(xi2)
            assert all(abs(got.terms[m] - lam.conjugate() * v) <= bound
                       for m, v in base.terms.items()), (d, c, lam)
