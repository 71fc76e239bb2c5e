"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with `pytest -s` or in the
-v test listing) and asserts the criterion.
"""

import random
from fractions import Fraction

import numpy as np

from qadic.algebra import (
    Element,
    RationalComplex,
    diagonal_expectation,
    embed_2x2,
    mat_adjoint,
    mat_mul,
    one,
    projection,
    s,
    s_adj,
    u,
    zero,
)
from qadic.bimodule import (
    BimoduleElement,
    algebra_inner,
    equivalence_residual,
    induce,
    induced_inner,
    induced_norm,
)
from qadic.cli import default_cases, parse_case_dyadic, parse_case_pow2
from qadic.grid import (
    GaussianSymbol,
    fourier,
    indicator,
    inner,
    intertwining_residual,
    norm,
    sample_symbol,
)
from qadic.numbers import (
    PadicInt,
    PadicNumber,
    character,
    dyadic,
    solenoid_canonical,
    solenoid_character,
)
from qadic.wold import (
    MonomialIsometry,
    build_extension_unitary,
    build_vn,
    check_intertwining,
)

rng = random.Random(123456789)

GENERATORS = {"u": u(), "U": u(-1), "s": s(), "S": s_adj()}


def _report(num: int, description: str, ok: bool) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def _word(letters) -> Element:
    e = one()
    for g in letters:
        e = e * GENERATORS[g]
    return e


def _window_agree(e1: Element, e2: Element, half_width: int = 64) -> bool:
    return all(e1.apply({n: 1}) == e2.apply({n: 1})
               for n in range(-half_width, half_width + 1))


def test_c01_defining_relations():
    ok = (s() * u() - u() * u() * s()).is_zero() and \
        (s() * s_adj() + u() * s() * s_adj() * u(-1) - one()).is_zero()
    _report(1, "defining relations normalize to zero exactly", ok)


def test_c02_partition_identities():
    ok = True
    for i in range(6):
        total = zero()
        for l in range(1 << i):
            total = total + projection(l, i)
        ok &= total == one()
    for i in range(6):
        for j in range(i, 6):
            total = zero()
            for l in range(0, 1 << j, 1 << i):
                total = total + projection(l, j)
            ok &= total == projection(0, i)
    _report(2, "projection partitions merge exactly (i <= 5, i <= j <= 5)", ok)


REWRITES = [
    (["s", "u"], ["u", "u", "s"]),
    (["u", "u", "s"], ["s", "u"]),
    (["U", "S"], ["S", "U", "U"]),
    (["S", "U", "U"], ["U", "S"]),
    (["S", "s"], []),
    (["U", "u"], []),
    (["u", "U"], []),
]


def test_c03_oracle_equivalence():
    discrepancies = 0
    for trial in range(1000):
        letters = [rng.choice("uUsS") for _ in range(rng.randint(1, 6))]
        if trial % 2:
            other = [rng.choice("uUsS") for _ in range(rng.randint(1, 6))]
        else:
            other = list(letters)
            for _ in range(rng.randint(0, 3)):
                lhs, rhs = REWRITES[rng.randrange(len(REWRITES))]
                for pos in range(len(other) - len(lhs) + 1):
                    if other[pos:pos + len(lhs)] == lhs:
                        other[pos:pos + len(lhs)] = rhs
                        break
        e1, e2 = _word(letters), _word(other)
        if e1.equals(e2) != _window_agree(e1, e2):
            discrepancies += 1
    _report(3, "symbolic equality matches the basis-window oracle on 1000 pairs",
            discrepancies == 0)


def _random_element():
    e = zero()
    for _ in range(rng.randint(1, 3)):
        letters = [rng.choice("uUsS") for _ in range(rng.randint(1, 5))]
        c = RationalComplex(Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                            Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
        e = e + _word(letters).scale(c)
    return e


def test_c04_conditional_expectation():
    ok = True
    for _ in range(200):
        e = _random_element()
        d1 = projection(rng.randint(-8, 8), rng.randint(0, 3))
        d2 = projection(rng.randint(-8, 8), rng.randint(0, 3))
        te = diagonal_expectation(e)
        ok &= diagonal_expectation(te).equals(te)
        ok &= diagonal_expectation(d1 * e * d2).equals(d1 * te * d2)
    for _ in range(100):
        d = projection(rng.randint(-8, 8), rng.randint(0, 3))
        l = rng.choice([-3, -2, -1, 1, 2, 3])
        ok &= diagonal_expectation(u(l) * d).is_zero()
    _report(4, "expectation is idempotent, bimodular, kills shifted diagonals", ok)


def test_c05_matrix_embedding():
    MU, MS = embed_2x2(u()), embed_2x2(s())
    ok = True
    lhs, rhs = mat_mul(MS, MU), mat_mul(mat_mul(MU, MU), MS)
    for r in range(2):
        for c in range(2):
            ok &= lhs[r][c].equals(rhs[r][c])
    proj = mat_mul(MS, mat_adjoint(MS))
    shifted = mat_mul(mat_mul(MU, proj), mat_adjoint(MU))
    for r in range(2):
        for c in range(2):
            expected = one() if r == c else zero()
            ok &= (proj[r][c] + shifted[r][c]).equals(expected)
    e2 = projection(0, 1)
    units = [(e2 * u(-1), (0, 1)), (e2, (0, 0)),
             (u() * e2 * u(-1), (1, 1)), (u() * e2, (1, 0))]
    for elem, (r, c) in units:
        M = embed_2x2(elem)
        for rr in range(2):
            for cc in range(2):
                expected = one() if (rr, cc) == (r, c) else zero()
                ok &= M[rr][cc].equals(expected)
    _report(5, "2x2 embedding satisfies the relations and the matrix units", ok)


def test_c06_wold_extension():
    S0 = MonomialIsometry.from_element(s())
    S1 = MonomialIsometry.from_element(u() * s())
    table = build_extension_unitary(S0, S1, 32)
    ok = all(table[n] == (n + 1, 1 + 0j) for n in range(-32, 33))
    checks = check_intertwining(table, S0, S1)
    ok &= checks["US0=S1"] and checks["S0U=U2S0"]
    e1 = S1.element()
    for n in range(5):
        vn = build_vn(S0, S1, n)
        target = one() - e1.power(n + 1) * e1.adjoint().power(n + 1)
        ok &= (vn.adjoint() * vn).equals(target)
    _report(6, "extension unitary is the bilateral shift; identities exact", ok)


def test_c07_character_layer():
    ok = True
    for _ in range(1000):
        x = PadicNumber(PadicInt(rng.randrange(1 << 64), 64), rng.randrange(0, 9))
        y = PadicNumber(PadicInt(rng.randrange(1 << 64), 64), rng.randrange(0, 9))
        ok &= character(x + y).angle == (character(x) * character(y)).angle
    for _ in range(100):
        r = rng.uniform(-2, 2)
        x = PadicNumber(PadicInt(rng.randrange(1 << 40), 64), rng.randrange(0, 4))
        b = dyadic(rng.randrange(-30, 30), rng.randrange(0, 4))
        d = dyadic(rng.randrange(-15, 15), rng.randrange(0, 4))
        lhs = solenoid_character(solenoid_canonical(r + float(b), x + b), d)
        rhs = solenoid_character(solenoid_canonical(r, x), d)
        ok &= abs(lhs - rhs) <= 1e-10
    _report(7, "characters multiply exactly; solenoid evaluation well defined", ok)


def test_c08_fourier_convention_pin():
    xi = sample_symbol(GaussianSymbol(), 6, -16, 16)
    ft = fourier(xi)
    pts = ft.points()
    mask = np.abs(pts) <= 4.0
    sup_err = float(np.max(np.abs(ft.samples[mask] - np.exp(-np.pi * pts[mask] ** 2))))
    plancherel = abs(norm(ft) - norm(xi)) / norm(xi)
    ok = sup_err <= 1e-6 and plancherel <= 1e-6
    _report(8, f"Gaussian self-duality (sup err {sup_err:.1e}) and "
            f"Plancherel ({plancherel:.1e}) within 1e-6", ok)


def test_c09_correlation_identity():
    xi = sample_symbol(GaussianSymbol(0.25, 0.75), 6, -16, 16)
    worst = 0.0
    for case in default_cases():
        from qadic.cli import build_symbol
        f = build_symbol(case["f"])
        d = parse_case_dyadic(case["d"])
        c = parse_case_pow2(case["c"])
        worst = max(worst, intertwining_residual(f, d, c, xi))
    _report(9, f"transport identity residual {worst:.1e} <= 1e-4 on all five cases",
            worst <= 1e-4)


def test_c10_bimodule_axioms():
    g = 6
    phis = [
        BimoduleElement.simple(0, 0, indicator(g, dyadic(0), dyadic(1, 1)), 0),
        BimoduleElement.simple(1, 1, indicator(g, dyadic(1, 2), dyadic(3, 2)), 0),
        BimoduleElement.simple(0, 1, indicator(g, dyadic(1, 3), dyadic(5, 3)), 1),
        BimoduleElement.simple(3, 2, indicator(g, dyadic(0), dyadic(7, 3)), -1),
    ]
    qs = [u(), u(-1), s(), projection(0, 1), u() * s()]
    ok = True
    for phi1 in phis:
        for phi2 in phis:
            base = algebra_inner(phi1, phi2)
            for q in qs:
                ok &= algebra_inner(phi1, phi2.act(q)).approx_equals(base * q, tol=1e-6)
                ok &= algebra_inner(phi1.act(q), phi2).approx_equals(
                    q.adjoint() * base, tol=1e-6)
    for _ in range(20):
        phi = phis[rng.randrange(len(phis))]
        q1, q2 = qs[rng.randrange(len(qs))], qs[rng.randrange(len(qs))]
        lhs, rhs = phi.act(q1).act(q2), phi.act(q1 * q2)
        diff = lhs - rhs
        ok &= max((norm(x) for x in diff.tensors.values()), default=0.0) <= 1e-6
    mixed = phis[0] + phis[1].scale(0.5 - 0.25j)
    entries, _ = algebra_inner(mixed, mixed).matrix_window(32)
    dense = np.zeros((65, 65), dtype=complex)
    for (r, c), v in entries.items():
        dense[r + 32, c + 32] = v
    ok &= float(np.linalg.eigvalsh(dense).min()) >= -1e-6
    _report(10, "module axioms, adjoint axiom, associativity, positivity", ok)


def test_c11_isometric_embedding():
    g = 6
    pairs = [
        (indicator(g, dyadic(0), dyadic(1, 1)), indicator(g, dyadic(1, 2), dyadic(3, 2))),
        (indicator(g, dyadic(1, 3), dyadic(1, 1)), indicator(g, dyadic(1, 3), dyadic(1, 1))),
        (indicator(g, dyadic(0), dyadic(1)), indicator(g, dyadic(1, 1), dyadic(1))),
    ]
    ok = True
    for xi1, xi2 in pairs:
        lhs = induced_inner(induce(xi1), induce(xi2))
        ok &= abs(lhs - inner(xi1, xi2)) <= 1e-6 * norm(xi1) * norm(xi2)
    xi = indicator(g, dyadic(1, 3), dyadic(7, 3))
    for k_exp in (1, 2, 3):
        v_proj = BimoduleElement.simple(0, k_exp, xi, 0)
        v_full = BimoduleElement.simple(0, 0, xi, 0)
        ok &= induced_norm(v_proj - v_full) <= 1e-6 * norm(xi)
    for (l, k_exp) in [(1, 1), (1, 2), (3, 2)]:
        v = BimoduleElement.simple(l, k_exp, xi, 0)
        ok &= induced_norm(v) <= 1e-6 * norm(xi)
    _report(11, "embedding is isometric; class projections collapse; "
            "off-class tensors vanish", ok)


def test_c12_unitary_equivalence_desk_scale():
    from qadic.cli import build_symbol
    tolerances = [1e-3, 1e-3, 5e-3, 5e-3, 5e-3]
    residuals = {6: [], 8: []}
    for g in (6, 8):
        for case in default_cases():
            f = build_symbol(case["f"])
            d = parse_case_dyadic(case["d"])
            c = parse_case_pow2(case["c"])
            xi1 = sample_symbol(GaussianSymbol(-0.125, 1.0), g, -16, 16)
            xi2 = sample_symbol(GaussianSymbol(0.25, 0.75), g, -16, 16)
            residuals[g].append(equivalence_residual(f, d, c, xi1, xi2))
    ok = all(r <= tol for r, tol in zip(residuals[6], tolerances))
    shrink = all(2 * r8 <= r6 for r6, r8 in zip(residuals[6], residuals[8]))
    worst = max(residuals[6])
    _report(12, f"equivalence residuals (max {worst:.1e}) within tolerance "
            "and shrinking at least 2x from g=6 to g=8", ok and shrink)
