"""Wold analysis for monomial isometries and the extension unitary.

Given two monomial isometries S0, S1 whose range projections sum to the
identity, the partial sums

    V_n = sum_{k=0..n} S0^k S1 S0* (S1*)^k

converge strongly; the limit V is a partial isometry between the
complements of the unitary parts of S1 and S0, and extending it across the
(at most one-dimensional) unitary parts yields a unitary U with

    U S0 = S1   and   S0 U = U^2 S0.

Everything here is exact.  The ranges c0 + 2^i Z and c1 + 2^j Z partition
Z only when i = j = 1 and c0 + c1 is odd, so S0 = n -> 2n + c0 and
S1 = n -> 2n + c1.  Exactly one term of the sum is nonzero on e_n: V e_n =
S0^k S1 S0* e_m with n = S1^k m and m outside im(S1).  Then

    S1^k m = 2^k m + c1 (2^k - 1),
    S0^k y = 2^k y + c0 (2^k - 1),   y = S1 S0* m = m - c0 + c1,
    so V e_n = e_{n + c1 - c0},

except on the S1 fixed point -c1, whose orbit never leaves im(S1) and
which V kills.  U is the translation u^(c1 - c0) with the phase on that
line; ``build_vn`` keeps the symbolic partial sums.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import MAX_WINDOW, Element, Monomial, one, zero
from .errors import CuntzRelationViolation, MemoryBudgetExceeded, UnsupportedIsometry


@dataclass(frozen=True)
class MonomialIsometry:
    """A single monomial with full domain; automatically an isometry."""

    map: Monomial

    def __post_init__(self):
        if self.map.dom_level != 0:
            raise UnsupportedIsometry("isometry must be defined on all of Z")

    @classmethod
    def from_element(cls, e: Element) -> "MonomialIsometry":
        if not e.exact or len(e.terms) != 1:
            raise UnsupportedIsometry("only single-monomial isometries are supported")
        m, = e.terms
        if e != Element.monomial(m):
            raise UnsupportedIsometry("isometry coefficient must be 1")
        return cls(m)

    def element(self) -> Element:
        return Element.monomial(self.map)

    @property
    def slope_exp(self) -> int:
        return self.map.range_level

    @property
    def offset(self) -> int:
        return self.map.base_image

    def apply_index(self, n: int) -> int:
        return (n << self.map.range_level) + self.map.base_image


@dataclass(frozen=True)
class WoldData:
    """Support of the unitary part: nothing, one basis line, or everything."""

    isometry: MonomialIsometry
    fixed_point: int | None = None

    @property
    def kind(self) -> str:
        """The support: "all" for slope 2^0, "fixed" on a fixed point, else "empty"."""
        if self.isometry.slope_exp == 0:
            return "all"
        return "empty" if self.fixed_point is None else "fixed"


def unitary_part(S: MonomialIsometry) -> WoldData:
    """Locate the invariant subspace that carries the unitary part.

    For n -> 2^i n + c with i >= 1 the images of the iterates shrink to the
    2-adic fixed point c / (1 - 2^i); the intersection is a basis line when
    that value is an integer and trivial otherwise.  Slope-one maps are
    unitary outright.
    """
    i, c = S.slope_exp, S.offset
    denom = (1 << i) - 1
    return WoldData(S, -c // denom if i and c % denom == 0 else None)


def _check_cuntz(S0: MonomialIsometry, S1: MonomialIsometry) -> tuple[int, int]:
    """Decide S0 S0* + S1 S1* = 1 in closed form; return V's shift c1 - c0
    and the S1 fixed point -c1 (both derived in the module notes)."""
    if not (S0.slope_exp == S1.slope_exp == 1 and (S0.offset + S1.offset) % 2):
        raise CuntzRelationViolation("S0 S0* + S1 S1* != 1")
    return S1.offset - S0.offset, -S1.offset


def build_vn(S0: MonomialIsometry, S1: MonomialIsometry, n: int) -> Element:
    """The n-th partial sum of the shift-part intertwiner, in canonical form."""
    _check_cuntz(S0, S1)
    e0, e1 = S0.element(), S1.element()
    out = zero()
    left, right = one(), one()
    for _ in range(n + 1):
        out = out + left * e1 * e0.adjoint() * right
        left = left * e0
        right = right * e1.adjoint()
    return out


def apply_v_limit(S0: MonomialIsometry, S1: MonomialIsometry, vec: dict) -> dict:
    """The strong limit V applied to a finitely supported vector.

    V sends each basis vector to a basis vector or to zero, so the values of
    vec are only moved.  They come back as ``Element.apply`` returns them:
    exact when every value is exact, complex otherwise, zeros dropped.
    """
    shift, fixed_point = _check_cuntz(S0, S1)
    return {n + shift: c for n, c in one().apply(vec).items() if n != fixed_point}


def build_extension_unitary(S0: MonomialIsometry, S1: MonomialIsometry,
                            window: int, w_phase: complex = 1.0) -> dict:
    """Table n -> (image index, amplitude) of the extension unitary on [-N, N].

    The shift parts are matched by the strong limit V of the partial sums;
    the unitary parts are matched by sending the S1 fixed basis vector to
    the S0 one, by default with amplitude +1.
    """
    if window > MAX_WINDOW:
        raise MemoryBudgetExceeded(
            f"window half-width {window} exceeds the budget of {MAX_WINDOW}")
    shift, fixed_point = _check_cuntz(S0, S1)
    table = {n: (n + shift, 1 + 0j) for n in range(-window, window + 1)}
    if fixed_point in table:
        table[fixed_point] = (fixed_point + shift, complex(w_phase))
    return table


def check_intertwining(table: dict, S0: MonomialIsometry, S1: MonomialIsometry) -> dict:
    """Verify U S0 = S1 and S0 U = U^2 S0 wherever the window allows.

    Returns {'US0=S1': bool, 'S0U=U2S0': bool, 'checked': count}.
    """
    ok1 = ok2 = True
    checked = 0
    for n, (un, ua) in table.items():
        m = S0.apply_index(n)
        if m in table:
            # U S0 eps_n against S1 eps_n
            checked += 1
            first, a1 = table[m]
            ok1 &= first == S1.apply_index(n) and abs(a1 - 1) < 1e-12
            # S0 U eps_n against U U S0 eps_n
            if first in table:
                second, a2 = table[first]
                checked += 1
                ok2 &= S0.apply_index(un) == second and abs(ua - a1 * a2) < 1e-12
    return {"US0=S1": bool(ok1), "S0U=U2S0": bool(ok2), "checked": checked}
