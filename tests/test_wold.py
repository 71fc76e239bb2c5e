import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qadic import wold
from qadic.algebra import MAX_LEVEL, Element, Monomial, RationalComplex, one, s, u
from qadic.errors import CuntzRelationViolation, UnsupportedIsometry
from qadic.wold import (
    MonomialIsometry,
    apply_v_limit,
    build_extension_unitary,
    build_vn,
    check_intertwining,
    unitary_part,
)

rng = random.Random(4242)

S0 = MonomialIsometry.from_element(s())
S1 = MonomialIsometry.from_element(u() * s())


def images_intersection(S, reps, window):
    """Oracle: intersect im(S^k) over k <= reps inside an index window."""
    current = set(range(-window, window + 1))
    for _ in range(reps):
        current = {S.apply_index(n) for n in current}
    return {n for n in current if abs(n) <= window // 2}


def test_unitary_part_examples():
    wd = unitary_part(S0)
    assert wd.kind == "fixed" and wd.fixed_point == 0
    wd = unitary_part(S1)
    assert wd.kind == "fixed" and wd.fixed_point == -1
    wd = unitary_part(MonomialIsometry.from_element(u()))
    assert wd.kind == "all"


def test_unitary_part_against_window_oracle():
    for iso, expected in [(S0, {0}), (S1, {-1})]:
        assert images_intersection(iso, 10, 1024) == expected
    pure = MonomialIsometry(Monomial.from_word(1, 2, 0, 0))  # n -> 4n + 1
    assert unitary_part(pure).kind == "empty"
    assert images_intersection(pure, 10, 1024) == set()


def test_unitary_part_empty_iff_noninteger_fixed_point():
    for _ in range(100):
        i = rng.randint(1, 4)
        c = rng.randint(-40, 40)
        iso = MonomialIsometry(Monomial(0, 0, i, c))
        wd = unitary_part(iso)
        if c % ((1 << i) - 1) == 0:
            assert wd.kind == "fixed" and wd.fixed_point == -c // ((1 << i) - 1)
        else:
            assert wd.kind == "empty"


def test_monomial_isometry_rejects_partial_maps():
    with pytest.raises(UnsupportedIsometry):
        MonomialIsometry(Monomial.from_word(0, 0, 1, 0))
    with pytest.raises(UnsupportedIsometry):
        MonomialIsometry.from_element(s() + u())
    with pytest.raises(UnsupportedIsometry):
        MonomialIsometry.from_element(s().scale(2))


def test_isometry_symbolically():
    e = S1.element()
    assert (e.adjoint() * e).equals(one())


def test_build_vn_requires_cuntz_pair():
    with pytest.raises(CuntzRelationViolation):
        build_vn(S0, MonomialIsometry(Monomial.from_word(1, 2, 0, 0)), 1)


def test_build_vn_single_term():
    v0 = build_vn(S0, S1, 0)
    assert v0.equals(u() * s() * s_adj_el())


def s_adj_el():
    return s().adjoint()


def test_vn_star_vn_identity():
    e1 = S1.element()
    for n in range(5):
        vn = build_vn(S0, S1, n)
        lhs = vn.adjoint() * vn
        rhs = one() - e1.power(n + 1) * e1.adjoint().power(n + 1)
        assert lhs.equals(rhs)


def test_vn_applied_to_basis():
    v2 = build_vn(S0, S1, 2)
    assert v2.apply({1: 1}) == {2: _one()}


def _one():
    from qadic.algebra import RationalComplex
    return RationalComplex(Fraction(1))


def test_apply_v_limit_examples():
    assert apply_v_limit(S0, S1, {0: 1}) == {1: _one()}
    assert apply_v_limit(S0, S1, {-1: 1}) == {}
    assert apply_v_limit(S0, S1, {1: 1}) == {2: _one()}


def test_apply_v_limit_late_stabilization():
    # the S1*-orbit of 7 has length 3, so early partial sums all vanish
    assert build_vn(S0, S1, 2).apply({7: 1}) == {}
    assert apply_v_limit(S0, S1, {7: 1}) == {8: _one()}


@st.composite
def cuntz_pairs(draw):
    """S0 = u^a s, S1 = u^b s: ranges a + 2Z and b + 2Z partition Z iff a + b is odd."""
    a = draw(st.integers(-16, 16))
    b = draw(st.integers(-16, 16).filter(lambda b: (a + b) % 2))
    return (MonomialIsometry.from_element(u(a) * s()),
            MonomialIsometry.from_element(u(b) * s()))


fractions = st.fractions(min_value=-4, max_value=4, max_denominator=9)
exact_values = st.one_of(st.integers(-3, 3), fractions,
                         st.builds(RationalComplex, fractions, fractions))
complex_values = st.complex_numbers(max_magnitude=8, allow_nan=False, allow_infinity=False)


def adjoint_index(S, n):
    """S* e_n by arithmetic: the preimage of n under n -> 2^i n + c, or None."""
    d = n - S.offset
    return None if d % (1 << S.slope_exp) else d >> S.slope_exp


def orbit_length(S1, n):
    """S1* steps from n until the orbit leaves im(S1) or sits at the fixed point."""
    k = 0
    while (m := adjoint_index(S1, n)) is not None and m != n:
        n, k = m, k + 1
    return k


def walked_v_index(S0, S1, n):
    """Oracle: V e_n = S0^k S1 S0* e_m from the S1*-orbit walk, or None on the fixed point."""
    fixed_point = unitary_part(S1).fixed_point
    k = 0
    while n != fixed_point:
        m = adjoint_index(S1, n)
        if m is None:
            image = S1.apply_index(adjoint_index(S0, n))
            for _ in range(k):
                image = S0.apply_index(image)
            return image
        n, k = m, k + 1
    return None


def walked_extension_unitary(S0, S1, window, w_phase):
    """Oracle: the extension unitary table built index by index from the walk."""
    fixed0, fixed1 = unitary_part(S0).fixed_point, unitary_part(S1).fixed_point
    return {n: (fixed0, complex(w_phase)) if n == fixed1
            else (walked_v_index(S0, S1, n), 1 + 0j)
            for n in range(-window, window + 1)}


@st.composite
def two_sided_cuntz_pairs(draw):
    """S0, S1 = u^a s u^c in either role: n -> 2n + a + 2c, offsets of opposite parity."""
    a0, c0, c1 = (draw(st.integers(-16, 16)) for _ in range(3))
    a1 = draw(st.integers(-16, 16).filter(lambda a1: (a0 + a1) % 2))
    pair = [MonomialIsometry.from_element(u(a0) * s() * u(c0)),
            MonomialIsometry.from_element(u(a1) * s() * u(c1))]
    return pair[::-1] if draw(st.booleans()) else pair


@settings(deadline=None)
@given(two_sided_cuntz_pairs(), st.sampled_from([1, 1j]), st.integers(1, 64))
def test_closed_form_unitary_matches_orbit_walk(pair, w_phase, window):
    S0_, S1_ = pair
    table = build_extension_unitary(S0_, S1_, window, w_phase)
    assert table == walked_extension_unitary(S0_, S1_, window, w_phase)
    assert list(table) == list(range(-window, window + 1))


def test_cuntz_pairs_are_exactly_slope_one_opposite_parity():
    # the closed form rests on this: its oracle is the symbolic relation
    # e0 e0* + e1 e1* = 1, and no other monomial pair satisfies it
    draw = random.Random(9)
    pairs = [((draw.randint(1, 3), draw.randint(-8, 8)), (draw.randint(1, 3), draw.randint(-8, 8)))
             for _ in range(400)]
    pairs += [((0, c0), (i1, c1)) for c0 in (-3, 0, 2) for i1 in (0, 1) for c1 in (-1, 0, 5)]  # u^k
    pairs += [((1, 0), (MAX_LEVEL - 1, 1)), ((MAX_LEVEL - 1, 0), (MAX_LEVEL - 1, 1))]
    accepted = rejected = 0
    for (i0, c0), (i1, c1) in pairs:
        A = MonomialIsometry(Monomial(0, 0, i0, c0))
        B = MonomialIsometry(Monomial(0, 0, i1, c1))
        e0, e1 = A.element(), B.element()
        if (e0 * e0.adjoint() + e1 * e1.adjoint()).equals(one()):
            assert i0 == i1 == 1 and (c0 + c1) % 2
            assert wold._check_cuntz(A, B) == (c1 - c0, -c1)
            accepted += 1
        else:
            with pytest.raises(CuntzRelationViolation, match=r"^S0 S0\* \+ S1 S1\* != 1$"):
                wold._check_cuntz(A, B)
            rejected += 1
    assert accepted > 10 and rejected > 10


@settings(deadline=None)
@given(cuntz_pairs(),
       st.one_of(st.dictionaries(st.integers(-64, 64), exact_values, max_size=5),
                 st.dictionaries(st.integers(-64, 64),
                                 st.one_of(exact_values, complex_values), max_size=5)))
def test_v_limit_matches_partial_sums_where_they_stabilize(pair, vec):
    S0_, S1_ = pair
    k = max((orbit_length(S1_, n) for n in vec), default=0)
    limit = apply_v_limit(S0_, S1_, vec)
    assert limit == build_vn(S0_, S1_, k).apply(vec) == build_vn(S0_, S1_, k + 1).apply(vec)


def test_wold_runs_no_symbolic_partial_sums(monkeypatch):
    # the run-time path forms no Element product and no normal form
    spied = ((wold, "build_vn"), (wold, "_check_cuntz"),
             (Element, "__mul__"), (Element, "_normalize"))
    calls = dict.fromkeys((name for _, name in spied), 0)
    for owner, name in spied:
        def counted(*args, _name=name, _fn=getattr(owner, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(owner, name, counted)
    expected = {"build_vn": 0, "_check_cuntz": 1, "__mul__": 0, "_normalize": 0}
    build_extension_unitary(S0, S1, 64)
    assert calls == expected
    calls.update(dict.fromkeys(calls, 0))
    apply_v_limit(S0, S1, {n: 1 for n in range(-64, 65)})
    assert calls == expected


def test_norm_telescoping_exact():
    # ||V_n xi||^2 = ||V_m xi||^2 + ||V_n xi - V_m xi||^2 on exact vectors
    def norm2(vec):
        total = Fraction(0)
        for c in vec.values():
            total += c.re * c.re + c.im * c.im
        return total

    xi = {3: Fraction(1, 2), -5: Fraction(2), 7: Fraction(1, 3), 0: 1}
    values = [build_vn(S0, S1, n).apply(xi) for n in range(7)]
    for m in range(7):
        for n in range(m, 7):
            diff = {}
            keys = set(values[n]) | set(values[m])
            for k in keys:
                a = values[n].get(k, _one() - _one())
                b = values[m].get(k, _one() - _one())
                diff[k] = a - b
            assert norm2(values[n]) == norm2(values[m]) + norm2(diff)


def test_v_limit_is_isometric_off_fixed_point():
    for n in range(-64, 65):
        image = apply_v_limit(S0, S1, {n: 1})
        if n == -1:
            assert image == {}
        else:
            assert len(image) == 1
            assert next(iter(image.values())) == _one()


def test_extension_unitary_is_bilateral_shift():
    table = build_extension_unitary(S0, S1, 32)
    for n in range(-32, 33):
        assert table[n] == (n + 1, 1 + 0j)


def test_extension_unitary_checks_pass():
    table = build_extension_unitary(S0, S1, 32)
    results = check_intertwining(table, S0, S1)
    assert results["US0=S1"] and results["S0U=U2S0"]
    assert results["checked"] > 20


def test_extension_unitary_other_pairs():
    # swapped roles: S0 = u s (fixed point -1), S1 = s (fixed point 0)
    table = build_extension_unitary(S1, S0, 24)
    results = check_intertwining(table, S1, S0)
    assert results["US0=S1"] and results["S0U=U2S0"]
    images = [m for (m, _) in table.values()]
    assert len(set(images)) == len(images)  # injective on the window

    # another genuine pair: S0 = u^2 s (n -> 2n+2), S1 = u^3 s u^-1 (n -> 2n+1)
    A = MonomialIsometry.from_element(u(2) * s())
    B = MonomialIsometry.from_element(u(3) * s() * u(-1))
    table = build_extension_unitary(A, B, 24)
    results = check_intertwining(table, A, B)
    assert results["US0=S1"] and results["S0U=U2S0"]


def test_extension_unitary_orthonormal_images():
    table = build_extension_unitary(S0, S1, 16)
    images = {}
    for n, (m, amp) in table.items():
        assert abs(abs(amp) - 1) < 1e-12
        assert m not in images
        images[m] = n


def test_phase_only_moves_fixed_point_line():
    base = build_extension_unitary(S0, S1, 16)
    twisted = build_extension_unitary(S0, S1, 16, w_phase=1j)
    for n in range(-16, 17):
        if n == -1:
            assert twisted[n] == (0, 1j)
        else:
            assert twisted[n] == base[n]
    results = check_intertwining(twisted, S0, S1)
    assert results["US0=S1"] and results["S0U=U2S0"]
