import functools
import json
import operator
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qadic import algebra
from qadic.algebra import (
    IDENTITY,
    Element,
    Monomial,
    RationalComplex,
    compose,
    diagonal_expectation,
    embed_2x2,
    imaginary_unit,
    mat_adjoint,
    mat_mul,
    one,
    projection,
    s,
    s_adj,
    u,
    zero,
)
from qadic.errors import MemoryBudgetExceeded

rng = random.Random(977)

GENERATORS = {"u": u(), "U": u(-1), "s": s(), "S": s_adj()}


def random_word(length=None, rng=rng):
    length = rng.randint(1, 6) if length is None else length
    e = one()
    for _ in range(length):
        e = e * GENERATORS[rng.choice("uUsS")]
    return e


def random_element(max_words=3, rng=rng):
    e = zero()
    for _ in range(rng.randint(1, max_words)):
        c = RationalComplex(Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                            Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
        e = e + random_word(rng=rng).scale(c)
    return e


def expand_to_level(e, level):
    """Independent canonicalizer: split every term to a common domain level."""
    out = {}
    frontier = list(e.terms.items())
    while frontier:
        m, c = frontier.pop()
        if m.dom_level < level:
            c0, c1 = m.children()
            frontier.append((c0, c))
            frontier.append((c1, c))
        else:
            out[m] = out.get(m, RationalComplex()) + c
    return {m: c for m, c in out.items() if c}


def l2_window_equal(e1, e2, half_width=64):
    for n in range(-half_width, half_width + 1):
        if e1.apply({n: 1}) != e2.apply({n: 1}):
            return False
    return True


# -- monomials ---------------------------------------------------------------


def test_word_to_monomial_generators():
    assert Monomial.from_word(1, 0, 0, 0) == Monomial(0, 0, 0, 1)
    assert Monomial.from_word(0, 1, 0, 0) == Monomial(0, 0, 1, 0)
    assert Monomial.from_word(0, 0, 1, 0) == Monomial(1, 0, 0, 0)


def test_word_round_trip():
    for _ in range(500):
        m = Monomial(rng.randint(0, 5), 0, rng.randint(0, 5), rng.randint(-40, 40))
        m = Monomial(m.dom_level, rng.randrange(1 << m.dom_level),
                     m.range_level, m.base_image)
        assert Monomial.from_word(*m.word()) == m


def test_compose_orthogonal_ranges():
    e2 = Monomial.from_word(0, 1, 1, 0)
    ue2u = Monomial.from_word(1, 1, 1, -1)
    assert compose(e2, ue2u) is None


def test_compose_relation_one():
    su = compose(Monomial.from_word(0, 1, 0, 0), Monomial(0, 0, 0, 1))
    uus = compose(Monomial(0, 0, 0, 2), Monomial.from_word(0, 1, 0, 0))
    assert su == uus == Monomial(0, 0, 1, 2)
    assert su.apply_index(3) == 8


def test_compose_annihilation():
    us = compose(Monomial(0, 0, 0, 1), Monomial.from_word(0, 1, 0, 0))
    assert compose(Monomial.from_word(0, 0, 1, 0), us) is None
    # oracle: the word s* u s kills every basis vector in a window
    chain = s_adj() * u() * s()
    for n in range(-16, 17):
        assert chain.apply({n: 1}) == {}


def test_compose_matches_map_composition():
    # oracle: composing the partial maps pointwise on a window
    for _ in range(300):
        m1 = Monomial.from_word(rng.randint(0, 3), rng.randint(0, 2),
                                rng.randint(0, 2), rng.randint(-5, 5))
        m2 = Monomial.from_word(rng.randint(0, 3), rng.randint(0, 2),
                                rng.randint(0, 2), rng.randint(-5, 5))
        prod = compose(m1, m2)
        for n in range(-64, 65):
            step = m2.apply_index(n)
            expected = m1.apply_index(step) if step is not None else None
            got = prod.apply_index(n) if prod is not None else None
            assert got == expected


def test_adjoint_word_example():
    m = Monomial.from_word(3, 2, 1, 5)
    assert m.adjoint() == Monomial.from_word(-5, 1, 2, -3)


# -- canonical form and relations ---------------------------------------------


def test_defining_relations_normalize_to_zero():
    rel1 = s() * u() - u() * u() * s()
    rel2 = s() * s_adj() + u() * s() * s_adj() * u(-1) - one()
    assert rel1.is_zero()
    assert rel2.is_zero()


def test_projection_partition_merges_to_one():
    for i in range(0, 6):
        total = zero()
        for l in range(1 << i):
            total = total + projection(l, i)
        assert total == one()


def test_projection_partition_refines():
    for i in range(0, 6):
        for j in range(i, 6):
            total = zero()
            for l in range(0, 1 << j, 1 << i):
                total = total + projection(l, j)
            assert total == projection(0, i)


def test_merge_agrees_with_expand_oracle():
    # confluence check: two elements are equal iff their expansions to a
    # common level coincide
    for _ in range(200):
        e1, e2 = random_element(), random_element()
        level = max([m.dom_level for m in e1.terms] + [m.dom_level for m in e2.terms] + [0])
        same_expanded = expand_to_level(e1, level) == expand_to_level(e2, level)
        assert e1.equals(e2) == same_expanded


def test_overlapping_forms_compare_equal():
    # the same operator written over different partitions of a germ
    a = one() + projection(0, 1)
    b = projection(0, 1).scale(2) + projection(1, 1)
    assert a == b and str(a) == str(b) == "2 s s* + u s s* u^-1"
    c = u() + u() * projection(0, 1)
    d = (u() * projection(0, 1)).scale(2) + projection(0, 1) * u()
    assert c == d and str(c) == str(d) == "2 u s s* + s s* u"


def _max_level(e):
    return max([m.dom_level for m in e.terms] + [0])


def random_overlapping_element(rand):
    """A random element plus translated projections u^t P(l, k), so that
    terms of one germ often lie on one branch of its trie."""
    pieces = [(u(rand.randint(0, 1)) * projection(rand.randint(0, 7), rand.randint(0, 3)))
              .scale(rand.randint(-2, 2)) for _ in range(rand.randint(1, 4))]
    return Element.sum([random_element(rng=rand)] + pieces)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_equality_is_operator_equality(rand, perturb):
    a = random_overlapping_element(rand)
    b = Element(expand_to_level(a, _max_level(a) + rand.randint(0, 2)))
    if perturb:
        b = b + random_overlapping_element(rand)
    assert (a == b) == l2_window_equal(a, b)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 3))
def test_normal_form_does_not_depend_on_the_writing(rand, extra):
    e = random_overlapping_element(rand)
    assert Element(expand_to_level(e, _max_level(e) + extra)) == e
    assert list(Element(e.terms).terms.items()) == list(e.terms.items())


def test_unitary_isometry_identities():
    assert (u().adjoint() * u()).equals(one())
    assert (s_adj() * s()).equals(one())


def test_equals_examples():
    assert (s() * u()).equals(u() * u() * s())
    assert (s_adj() * u() * s()).equals(zero())
    assert not u().equals(u(-1))


def test_adjoint_involutive_antimultiplicative():
    for _ in range(100):
        e1, e2 = random_element(), random_element()
        assert e1.adjoint().adjoint().equals(e1)
        assert (e1 * e2).adjoint().equals(e2.adjoint() * e1.adjoint())


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_adjoint_of_a_normal_form_is_normal(rand, numeric):
    e = random_overlapping_element(rand)
    if numeric:  # float sums give coefficients that differ in the last bits
        e = e.scale(1.0) + random_overlapping_element(rand).scale(rand.uniform(-1, 1) * 1j)
    raw = Element({m.adjoint(): c.conjugate() for m, c in e.terms.items()}, e.exact)
    assert e.adjoint().exact == e.exact
    assert list(e.adjoint().terms.items()) == list(raw.terms.items())


def test_oracle_equivalence_random_pairs():
    agree = 0
    for _ in range(300):
        e1, e2 = random_word(), random_word()
        sym = e1.equals(e2)
        win = l2_window_equal(e1, e2)
        assert sym == win
        agree += sym
    # rewrite pairs guarantee the equal branch is exercised elsewhere


REWRITES = [
    (["s", "u"], ["u", "u", "s"]),
    (["u", "u", "s"], ["s", "u"]),
    (["U", "S"], ["S", "U", "U"]),
    (["S", "U", "U"], ["U", "S"]),
    (["S", "s"], []),
    (["U", "u"], []),
    (["u", "U"], []),
]


def test_oracle_equivalence_rewritten_pairs():
    for _ in range(200):
        letters = [rng.choice("uUsS") for _ in range(rng.randint(1, 6))]
        rewritten = list(letters)
        for _ in range(3):
            lhs, rhs = REWRITES[rng.randrange(len(REWRITES))]
            for pos in range(len(rewritten) - len(lhs) + 1):
                if rewritten[pos:pos + len(lhs)] == lhs:
                    rewritten[pos:pos + len(lhs)] = rhs
                    break
        def build(seq):
            e = one()
            for g in seq:
                e = e * GENERATORS[g]
            return e
        e1, e2 = build(letters), build(rewritten)
        assert e1.equals(e2)
        assert l2_window_equal(e1, e2)


# -- basis representation -------------------------------------------------------


def test_apply_examples():
    assert u().apply({5: 1}) == {6: RationalComplex(Fraction(1))}
    assert s_adj().apply({3: 1}) == {}
    e4 = projection(0, 2)
    assert e4.apply({8: 1}) == {8: RationalComplex(Fraction(1))}
    assert e4.apply({6: 1}) == {}


def test_apply_linear_exact():
    e = s() + u().scale(Fraction(1, 3))
    out = e.apply({0: Fraction(1, 2), 1: 1})
    assert out[0] == RationalComplex(Fraction(1, 2))  # s eps_0
    assert out[2] == RationalComplex(Fraction(4, 3))  # s eps_1 + (u/3) eps_1
    assert out[1] == RationalComplex(Fraction(1, 6))  # (u/3) eps_0


# -- conditional expectation -----------------------------------------------------


def test_expectation_examples():
    e2 = projection(0, 1)
    assert diagonal_expectation(e2) == e2
    assert diagonal_expectation(u()).is_zero()
    assert diagonal_expectation(e2 + (u() * e2).scale(3)) == e2


def test_expectation_idempotent_bimodular():
    for _ in range(200):
        e = random_element()
        d1 = projection(rng.randint(-8, 8), rng.randint(0, 3))
        d2 = projection(rng.randint(-8, 8), rng.randint(0, 3))
        te = diagonal_expectation(e)
        assert diagonal_expectation(te).equals(te)
        assert diagonal_expectation(d1 * e * d2).equals(d1 * te * d2)


def test_expectation_kills_offdiagonal_translates():
    for _ in range(50):
        d = projection(rng.randint(-8, 8), rng.randint(0, 3))
        l = rng.choice([-3, -2, -1, 1, 2, 3])
        assert diagonal_expectation(u(l) * d).is_zero()


# -- matrix embedding --------------------------------------------------------------


def test_embed_generator_images():
    mu = embed_2x2(u())
    assert mu[0][0].is_zero() and mu[0][1].equals(u())
    assert mu[1][0].equals(one()) and mu[1][1].is_zero()
    ms = embed_2x2(s())
    assert ms[0][0].equals(s()) and ms[0][1].equals(u() * s())
    assert ms[1][0].is_zero() and ms[1][1].is_zero()


def test_embed_matrix_units():
    e2 = projection(0, 1)
    cases = [
        (e2 * u(-1), (0, 1)),
        (e2, (0, 0)),
        (u() * e2 * u(-1), (1, 1)),
        (u() * e2, (1, 0)),
    ]
    for elem, (r, c) in cases:
        M = embed_2x2(elem)
        for rr in range(2):
            for cc in range(2):
                if (rr, cc) == (r, c):
                    assert M[rr][cc].equals(one())
                else:
                    assert M[rr][cc].is_zero()


def test_embed_relations_hold_in_matrices():
    MU, MS = embed_2x2(u()), embed_2x2(s())
    lhs = mat_mul(MS, MU)
    rhs = mat_mul(mat_mul(MU, MU), MS)
    for r in range(2):
        for c in range(2):
            assert lhs[r][c].equals(rhs[r][c])
    proj_sum = mat_mul(MS, mat_adjoint(MS))
    shifted = mat_mul(mat_mul(MU, proj_sum), mat_adjoint(MU))
    for r in range(2):
        for c in range(2):
            total = proj_sum[r][c] + shifted[r][c]
            expected = one() if r == c else zero()
            assert total.equals(expected)


def test_embed_star_homomorphism_samples():
    for _ in range(25):
        e1, e2 = random_word(3), random_word(3)
        lhs = embed_2x2(e1 * e2)
        rhs = mat_mul(embed_2x2(e1), embed_2x2(e2))
        for r in range(2):
            for c in range(2):
                assert lhs[r][c].equals(rhs[r][c])
        star = embed_2x2(e1.adjoint())
        adj = mat_adjoint(embed_2x2(e1))
        for r in range(2):
            for c in range(2):
                assert star[r][c].equals(adj[r][c])


def test_embed_large_exponent_by_squaring(monkeypatch):
    products = []
    mul = Element.__mul__
    monkeypatch.setattr(Element, "__mul__", lambda a, b: products.append(1) or mul(a, b))

    def embed_counted(e):
        products.clear()
        return embed_2x2(e), len(products)

    _, small = embed_counted(u(1))
    M, large = embed_counted(u(1000))  # [[0, u], [1, 0]]^1000 = u^500 on the diagonal
    assert M[0][0].equals(u(500)) and M[1][1].equals(u(500))
    assert M[0][1].is_zero() and M[1][0].is_zero()
    M = embed_2x2(u(-999))
    assert M[0][1].equals(u(-499)) and M[1][0].equals(u(-500))
    assert M[0][0].is_zero() and M[1][1].is_zero()
    # the cost of the embedding does not grow with the exponent
    assert 0 < large == small


def test_embed_unital():
    M = embed_2x2(one())
    assert M[0][0].equals(one()) and M[1][1].equals(one())
    assert M[0][1].is_zero() and M[1][0].is_zero()


# -- matrix window -------------------------------------------------------------------


def test_matrix_window_identity():
    entries, loss = one().matrix_window(2)
    assert not loss
    assert entries == {(n, n): 1 + 0j for n in range(-2, 3)}


def test_matrix_window_shift_flags_loss():
    entries, loss = u().matrix_window(2)
    assert loss
    assert entries == {(n + 1, n): 1 + 0j for n in range(-2, 2)}


def test_matrix_window_parity_diagonal():
    entries, loss = projection(0, 1).matrix_window(2)
    assert not loss
    assert entries == {(n, n): 1 + 0j for n in (-2, 0, 2)}


def test_matrix_window_drops_cancelled_images():
    # u and s both send e_1 to e_2, so u - s has no (2, 1) entry
    e = u() - s()
    assert e.apply({1: 1}) == {}
    entries, loss = e.matrix_window(2)
    assert loss  # u e_2 = e_3 and s e_2 = e_4 are nonzero and outside
    assert entries == {(-1, -2): 1, (0, -1): 1, (-2, -1): -1, (1, 0): 1, (0, 0): -1}


def test_matrix_window_loss_is_a_nonzero_image_outside():
    # the two images of e_1 both land on e_4 and cancel; every other column is 0
    e = (u(3) - s() * u()) * u() * s().power(3) * s_adj().power(3) * u(-1)
    assert all(not e.apply({n: 1}) for n in range(-2, 3))
    assert e.matrix_window(2) == ({}, False)


window_terms = st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 2), st.integers(0, 2),
                                  st.integers(-3, 3), st.sampled_from([1, -1, Fraction(1, 2)])),
                        min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(window_terms, st.integers(0, 4))
def test_matrix_window_is_the_window_of_apply(terms, half_width):
    # few short words with coefficients +-1: images often coincide and cancel;
    # the oracle sums the images of the words as drawn, before normalization
    e = Element.sum(Element.from_word(*term) for term in terms)
    cols = range(-half_width, half_width + 1)
    images = {}
    for a, i, j, b, c in terms:
        for col in cols:
            row = Monomial.from_word(a, i, j, b).apply_index(col)
            if row is not None:
                images[row, col] = images.get((row, col), 0) + c
    images = {key: c for key, c in images.items() if c}
    entries, loss = e.matrix_window(half_width)
    assert entries == {(row, col): complex(c) for (row, col), c in images.items()
                       if abs(row) <= half_width}
    assert loss == any(abs(row) > half_width for row, _ in images)
    for col in cols:
        assert {row: v for (row, c), v in entries.items() if c == col} == \
            {row: complex(v) for row, v in e.apply({col: 1}).items() if abs(row) <= half_width}


# -- numeric mode ---------------------------------------------------------------------


def test_numeric_promotion_and_exact_cancellation():
    e = u().scale(0.5) + u().scale(0.5) - u()
    assert not e.exact
    assert e.is_zero()
    # no absolute cutoff: a difference of one ulp is a term
    ulp = u().scale(1.0 + 2.0 ** -52) - u()
    assert list(ulp.terms.items()) == [(Monomial(0, 0, 0, 1), 2.0 ** -52 + 0j)]


def _promoted(e):
    """The exact element e with each coefficient promoted by complex()."""
    return Element({m: complex(c) for m, c in e.terms.items()}, exact=False)


def _bits(items):
    """(key, real bits, imaginary bits) of each numeric coefficient, in order."""
    return [(k, complex(c).real.hex(), complex(c).imag.hex()) for k, c in items]


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_mixed_operations_promote_the_exact_operand(rand):
    # one promotion rule: a mixed sum, product, scale or apply equals, bit
    # for bit, the same operation with the exact operand promoted by complex()
    exact = random_overlapping_element(rand)
    numeric = Element({m: complex(rand.uniform(-2, 2), rand.uniform(-2, 2))
                       for m in random_element(rng=rand).terms}, exact=False)
    q = RationalComplex(Fraction(rand.randint(-5, 5), rand.randint(1, 7)),
                        Fraction(rand.randint(-5, 5), rand.randint(1, 7)))
    z = complex(rand.uniform(-2, 2), rand.uniform(-2, 2))
    pairs = [
        (Element.sum([exact, numeric]), Element.sum([_promoted(exact), numeric])),
        (Element.sum([numeric, exact]), Element.sum([numeric, _promoted(exact)])),
        (exact * numeric, _promoted(exact) * numeric),
        (numeric * exact, numeric * _promoted(exact)),
        (exact.scale(z), _promoted(exact).scale(z)),
        (numeric.scale(q), numeric.scale(complex(q))),
    ]
    for got, want in pairs:
        assert not got.exact and not want.exact
        assert _bits(got.terms.items()) == _bits(want.terms.items())
    exact_vec = {n: rand.choice([rand.randint(-3, 3), Fraction(rand.randint(-3, 3), 3), q])
                 for n in range(-8, 9)}
    numeric_vec = {n: rand.choice([complex(v), 0.5 * n, np.int64(n), np.float64(n / 3)])
                   for n, v in exact_vec.items()}
    promoted_vec = {n: complex(v) for n, v in numeric_vec.items()}
    applied = [
        (exact.apply(numeric_vec), _promoted(exact).apply(promoted_vec)),
        (numeric.apply(exact_vec), numeric.apply({n: complex(v) for n, v in exact_vec.items()})),
        (exact.apply({n: np.int64(n) for n in range(-8, 9)}),
         _promoted(exact).apply({n: complex(n) for n in range(-8, 9)})),
    ]
    for got, want in applied:
        assert all(type(v) is complex for v in got.values())
        assert _bits(got.items()) == _bits(want.items())


def test_numeric_product_keeps_small_coefficients():
    small = u().scale(1e-7)
    for product in (small * small, small.power(2)):
        assert not product.exact
        assert list(product.terms.items()) == [(Monomial(0, 0, 0, 2), 1e-7 * 1e-7 + 0j)]
    assert str(u().scale(1e-13 + 1e-14j)) == "(1e-13+1e-14i) u"
    assert u().scale(1e-300).apply({0: 1e-20}) == {1: 1e-320 + 0j}


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(-60, 60), st.integers(0, 2))
def test_numeric_normal_form_commutes_with_powers_of_two(rand, k, extra):
    # split to a finer level and scaled by 2^k, a numeric element merges
    # back to its exact normal form's terms scaled by 2^k, bit for bit
    e = random_overlapping_element(rand)
    split = expand_to_level(e, _max_level(e) + extra)
    got = Element({m: complex(c) * 2.0 ** k for m, c in split.items()}, exact=False)
    assert list(got.terms.items()) == [(m, complex(c) * 2.0 ** k) for m, c in e.terms.items()]


def test_approx_equals():
    assert (s() * u()).scale(1.0).approx_equals((u() * u() * s()).scale(1.0 + 1e-12))
    with pytest.raises(ValueError):
        u().scale(1.0).equals(u())


# -- serialization -----------------------------------------------------------------


def test_text_form_examples():
    assert str(one()) == "1"
    assert str(zero()) == "0"
    assert str(u()) == "u"
    assert str(s() * s_adj()) == "s s*"
    assert str(u(-1)) == "u^-1"
    assert str(-one()) == "-1"


@pytest.mark.parametrize("coeff, text", [
    # exact: real only, imaginary only (a unit part reads i), both parts, negative lead
    (RationalComplex(Fraction(3, 2)), "3/2 u"),
    (RationalComplex(Fraction(0), Fraction(1)), "i u"),
    (RationalComplex(Fraction(0), Fraction(-1)), "-i u"),
    (RationalComplex(Fraction(0), Fraction(2, 3)), "2/3i u"),
    (RationalComplex(Fraction(0), Fraction(-2)), "-2i u"),
    (RationalComplex(Fraction(1, 2), Fraction(1)), "(1/2+1i) u"),
    (RationalComplex(Fraction(1, 2), Fraction(-3)), "(1/2-3i) u"),
    (RationalComplex(Fraction(-1, 2), Fraction(3)), "-(1/2-3i) u"),
    (RationalComplex(Fraction(-5)), "-5 u"),
    # numeric: the same layout with repr parts, so a unit part keeps its 1.0
    (2.5, "2.5 u"),
    (-1.0, "-1.0 u"),
    (1j, "1.0i u"),
    (-1j, "-1.0i u"),
    (0.5j, "0.5i u"),
    (-2.5j, "-2.5i u"),
    (1 + 1j, "(1.0+1.0i) u"),
    (-0.5 + 2j, "-(0.5-2.0i) u"),
])
def test_coefficient_text_layouts(coeff, text):
    assert str(u().scale(coeff)) == text


def test_coefficient_text_of_scalars_and_later_terms():
    assert [str(RationalComplex(Fraction(re), Fraction(im))) for re, im in
            [(0, 1), (0, -1), (-1, 0), (-1, -3), (0, Fraction(-1, 2))]] == [
        "i", "-i", "-1", "(-1-3i)", "-1/2i"]
    assert imaginary_unit() * imaginary_unit() == -one()
    assert str(-imaginary_unit()) == "-i"
    assert str(one().scale(-1j)) == "-1.0i"
    assert str(u() - s().scale(RationalComplex(Fraction(0), Fraction(1)))) == "u - i s"
    assert str(u().scale(1.0) + s().scale(-2j)) == "1.0 u - 2.0i s"


def test_json_round_trip():
    e = (s() * u()).scale(0.25) + u(-2).scale(1j)
    back = Element.from_json_dict(e.to_json_dict())
    assert back.approx_equals(e, tol=1e-12)


def test_exact_json_round_trip():
    c = RationalComplex(Fraction(1, 3), Fraction(5, 4))
    e = (s() * u()).scale(c) + u(-2).scale(Fraction(-7, 2))
    data = json.loads(json.dumps(e.to_json_dict()))
    assert data["exact"] is True
    assert sorted((t["q_re"], t["q_im"], t["re"], t["im"]) for t in data["terms"]) == [
        ("-7/2", "0", -3.5, 0.0), ("1/3", "5/4", 1 / 3, 1.25)]
    back = Element.from_json_dict(data)
    assert back.exact and back == e


# -- construction ----------------------------------------------------------------------


def test_raw_rational_coefficients_are_coerced():
    assert Element({IDENTITY: 1}) == one()
    half = Element({IDENTITY: Fraction(1, 2), Monomial(0, 0, 0, 1): 0})
    assert half == one().scale(Fraction(1, 2))


def test_monomial_level_budget():
    # the largest admitted level still prints within Python's int-to-str limit
    top = algebra.MAX_LEVEL
    assert str(Monomial(top, (1 << top) - 1, top, 0)).startswith(f"s^{top} s*^{top} u^-")
    for fields in [(top + 1, 0, 0, 0), (0, 0, top + 1, 0)]:
        with pytest.raises(MemoryBudgetExceeded):
            Monomial(*fields)
    term = {"j": top + 1, "r": 0, "i": 0, "m0": 0, "q_re": "1", "q_im": "0"}
    with pytest.raises(MemoryBudgetExceeded):
        Element.from_json_dict({"exact": True, "terms": [term]})


@pytest.mark.parametrize("word", [(0, 10**8, 0, 5), (0, 0, 10**8, 5)])
def test_from_word_refuses_huge_levels_before_shifting(word):
    # 2^(10^8) alone would take 12.5 MB; the budget check comes first
    tracemalloc.start()
    try:
        with pytest.raises(MemoryBudgetExceeded):
            Monomial.from_word(*word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("coeff", [0.5, 1j])
def test_float_coefficient_in_exact_element_raises(coeff):
    with pytest.raises(TypeError):
        Element({IDENTITY: coeff})


words = st.lists(st.sampled_from("uUsS"), min_size=0, max_size=4).map(
    lambda letters: functools.reduce(operator.mul, (GENERATORS[x] for x in letters), one()))
rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
coeffs = st.builds(RationalComplex, rationals, rationals).filter(bool)
one_term = st.builds(Element.scale, words, coeffs)
multi_term = st.lists(one_term, min_size=2, max_size=3).map(Element.sum)


@settings(max_examples=60, deadline=None)
@given(st.one_of(one_term, multi_term), st.integers(0, 8))
def test_power_equals_repeated_product(e, n):
    assert e.power(n) == functools.reduce(operator.mul, [e] * n, one())


_MAT_ONE = [[one(), zero()], [zero(), one()]]
_MAT_U = [[zero(), u()], [one(), zero()]]
_MAT_S = [[s(), u() * s()], [zero(), zero()]]


def _mat_power(A, n):
    out = _MAT_ONE
    for _ in range(n.bit_length()):
        if n & 1:
            out = mat_mul(out, A)
        A, n = mat_mul(A, A), n >> 1
    return out


def _embed_by_generators(terms):
    """sum c U^a S^i S*^j U^b over the words, from the generator matrices alone."""
    total = [[zero(), zero()], [zero(), zero()]]
    for a, i, j, b, c in terms:
        M = _MAT_ONE
        for base, n in ((_MAT_U, a), (_MAT_S, i), (mat_adjoint(_MAT_S), j), (_MAT_U, b)):
            M = mat_mul(M, _mat_power(base if n >= 0 else mat_adjoint(base), abs(n)))
        total = [[total[r][k] + M[r][k].scale(c) for k in range(2)] for r in range(2)]
    return total


word_terms = st.lists(st.tuples(st.integers(-1000, 1000), st.integers(0, 6), st.integers(0, 6),
                                st.integers(-1000, 1000), coeffs), min_size=1, max_size=4)


@settings(max_examples=80, deadline=None)
@given(word_terms)
def test_embedding_matches_generator_matrices(terms):
    e = Element.sum(Element.from_word(a, i, j, b, c) for a, i, j, b, c in terms)
    M = embed_2x2(e)
    assert M == _embed_by_generators(terms)
    pair = (s(), u() * s())
    assert Element.sum(pair[p] * M[p][q] * pair[q].adjoint()
                       for p in range(2) for q in range(2)) == e
