"""Exact model of the *-algebra generated by the bilateral shift and the
doubling isometry on l^2(Z).

Every word u^a s^i s*^j u^b acts on basis vectors as a partial affine map

    n  ->  2^(i-j) * (n - r) + m0      for n = r (mod 2^j),  0 otherwise,

so monomials are stored as the tuple (dom_level j, dom_residue r,
range_level i, base_image m0).  Operator products become compositions of
partial affine maps, the defining relations of the algebra become theorems
instead of rewrite rules, and equal operators have equal normal forms.

Elements are finite linear combinations of monomials.  Coefficients are
either exact Gaussian rationals or complex doubles; mixed arithmetic
promotes to the numeric mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import MemoryBudgetExceeded

APPROX_EQ_TOL = 1e-9
MAX_LEVEL = 1 << 13  # largest dom/range level of a monomial; 2^MAX_LEVEL prints
MAX_NORMAL_FORM_NODES = 1 << 14  # trie nodes one normalization may split
MAX_WINDOW = 1 << 16  # half-width of a basis window [-N, N] built as a table


@dataclass(frozen=True)
class RationalComplex:
    """Complex number with rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __add__(self, other):
        return RationalComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return RationalComplex(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return RationalComplex(-self.re, -self.im)

    def __mul__(self, other):
        if not (self.im or other.im):
            return RationalComplex(self.re * other.re)
        return RationalComplex(self.re * other.re - self.im * other.im,
                               self.re * other.im + self.im * other.re)

    def conjugate(self):
        return RationalComplex(self.re, -self.im)

    def __bool__(self):
        return bool(self.re or self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __str__(self):
        return _complex_str(self.re, self.im, _frac_str)


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _complex_str(re, im, part) -> str:
    """re + im i in the one coefficient layout, each part written by `part`;
    an imaginary part alone that is written 1 or -1 reads i or -i."""
    if im == 0:
        return part(re)
    if re == 0:
        text = part(im)
        return {"1": "i", "-1": "-i"}.get(text, text + "i")
    return f"({part(re)}{'+' if im > 0 else '-'}{part(abs(im))}i)"


RC_ONE = RationalComplex(Fraction(1))


def _coerce(c):
    """Map a python scalar to (coefficient, exact_flag)."""
    if isinstance(c, RationalComplex):
        return c, True
    if isinstance(c, (int, Fraction)):
        return RationalComplex(Fraction(c)), True
    if isinstance(c, (float, complex)):
        return complex(c), False
    raise TypeError(f"unsupported coefficient {c!r}")


def _exact_coeff(c) -> RationalComplex:
    """A coefficient of an exact element; rationals are promoted, floats refused."""
    c, exact = _coerce(c)
    if not exact:
        raise TypeError(f"exact elements need rational coefficients, got {c!r}")
    return c


@dataclass(frozen=True, order=True)
class Monomial:
    """A partial dyadic affine transformation of Z.

    Sends basis index n to 2^(range_level - dom_level) * (n - dom_residue)
    + base_image when n = dom_residue (mod 2^dom_level), and kills it
    otherwise.  The map is a bijection from its domain class onto
    base_image + 2^range_level Z.  Levels above MAX_LEVEL raise
    MemoryBudgetExceeded before any 2^level integer is built.
    """

    dom_level: int
    dom_residue: int
    range_level: int
    base_image: int

    def __post_init__(self):
        if self.dom_level < 0 or self.range_level < 0:
            raise ValueError("levels must be non-negative")
        if self.dom_level > MAX_LEVEL or self.range_level > MAX_LEVEL:
            raise MemoryBudgetExceeded(f"a monomial level exceeds the budget of {MAX_LEVEL}")
        if not 0 <= self.dom_residue < (1 << self.dom_level):
            raise ValueError("dom_residue must be reduced mod 2^dom_level")

    def apply_index(self, n: int) -> int | None:
        if (n - self.dom_residue) % (1 << self.dom_level):
            return None
        return self.base_image + (((n - self.dom_residue) >> self.dom_level) << self.range_level)

    def word(self) -> tuple[int, int, int, int]:
        """The canonical exponents (a, i, j, b) of u^a s^i s*^j u^b."""
        i, j = self.range_level, self.dom_level
        a = self.base_image % (1 << i)
        k = (self.base_image - a) >> i
        b = -self.dom_residue + (k << j)
        return a, i, j, b

    @classmethod
    def from_word(cls, a: int, i: int, j: int, b: int) -> "Monomial":
        if i < 0 or j < 0:
            raise ValueError("isometry exponents must be non-negative")
        if i > MAX_LEVEL or j > MAX_LEVEL:  # before 2^i or 2^j is built
            raise MemoryBudgetExceeded(f"a monomial level exceeds the budget of {MAX_LEVEL}")
        r = (-b) % (1 << j)
        m0 = (((r + b) >> j) << i) + a
        return cls(j, r, i, m0)

    def adjoint(self) -> "Monomial":
        """The inverse partial bijection."""
        r = self.base_image % (1 << self.range_level)
        m0 = (((r - self.base_image) >> self.range_level) << self.dom_level) + self.dom_residue
        return Monomial(self.range_level, r, self.dom_level, m0)

    def is_diagonal(self) -> bool:
        """True when the map is the identity on its domain class."""
        return self.range_level == self.dom_level and self.base_image == self.dom_residue

    def children(self) -> tuple["Monomial", "Monomial"]:
        """The same map restricted to the two halves of the domain class."""
        j, r, i, m0 = self.dom_level, self.dom_residue, self.range_level, self.base_image
        return (Monomial(j + 1, r, i + 1, m0),
                Monomial(j + 1, r + (1 << j), i + 1, m0 + (1 << i)))

    def __str__(self):
        return word_str(*self.word())


IDENTITY = Monomial(0, 0, 0, 0)


def word_str(a: int, i: int, j: int, b: int) -> str:
    parts = []
    if a:
        parts.append("u" if a == 1 else f"u^{a}")
    if i:
        parts.append("s" if i == 1 else f"s^{i}")
    if j:
        parts.append("s*" if j == 1 else f"s*^{j}")
    if b:
        parts.append("u" if b == 1 else f"u^{b}")
    return " ".join(parts) if parts else "1"


def compose(m1: Monomial, m2: Monomial) -> Monomial | None:
    """The operator product m1 m2 (m2 applied first); None when zero.

    The domain is the m2-preimage of the intersection of m2's range class
    with m1's domain class, itself a residue class or empty.
    """
    j1, r1 = m1.dom_level, m1.dom_residue
    i2, m02 = m2.range_level, m2.base_image
    t = min(i2, j1)
    if (r1 - m02) % (1 << t):
        return None
    if j1 > i2:
        extra = j1 - i2
        t0 = ((r1 - m02) >> i2) % (1 << extra)
        level = m2.dom_level + extra
        res = m2.dom_residue + (t0 << m2.dom_level)
    else:
        level = m2.dom_level
        res = m2.dom_residue
    rng = m1.range_level + max(0, i2 - j1)
    image = m1.apply_index(m2.apply_index(res))
    return Monomial(level, res, rng, image)


class Element:
    """Finite linear combination of monomials in its unique normal form.

    Monomials that restrict the same global affine map x -> 2^(i-j) x + c
    (one affine germ) form a binary trie: each node's two children are its
    restrictions to the two halves of its domain class.  Per germ, the
    normal form keeps the coarsest partition of the domain into such
    classes on which the coefficient is constant (the maximal constant
    nodes), drops zero coefficients and sorts the terms.  So `==` on exact
    elements is equality of the represented operators.  Numeric elements
    follow the same rules with no tolerance (only exactly equal siblings
    merge, only exact zeros drop), so 2^k scales a normal form exactly, and
    `==` on them is plain term equality with no operator meaning.  A
    normalization that would visit more than MAX_NORMAL_FORM_NODES trie
    nodes raises MemoryBudgetExceeded (1 + s^K s*^K has K + 1 terms).
    """

    __slots__ = ("terms", "exact")
    __hash__ = None

    def __init__(self, terms=None, exact=True, _normalized=False):
        self.terms = dict(terms or {})
        self.exact = exact
        if not _normalized:
            self._normalize()

    # -- construction -----------------------------------------------------

    @classmethod
    def monomial(cls, m: Monomial, coeff=1):
        c, exact = _coerce(coeff)
        return cls._single(m, c, exact)

    @classmethod
    def _single(cls, m: Monomial | None, c, exact: bool) -> "Element":
        """c m, or zero when m is None or c is zero; one term is canonical."""
        return cls({m: c} if m is not None and c else {}, exact, _normalized=True)

    @classmethod
    def sum(cls, elements) -> "Element":
        """Merge the terms of all elements, then normalize once."""
        elements = list(elements)
        exact = all(e.exact for e in elements)
        out = {}
        for e in elements:
            for m, c in cls._promote(e.terms, exact).items():
                out[m] = out[m] + c if m in out else c
        return cls(out, exact)

    @classmethod
    def from_word(cls, a: int, i: int, j: int, b: int, coeff=1):
        return cls.monomial(Monomial.from_word(a, i, j, b), coeff)

    @classmethod
    def scalar(cls, c):
        return cls.monomial(IDENTITY, c)

    # -- canonical form ----------------------------------------------------

    def _normalize(self):
        items = self.terms.items()
        if self.exact:
            items = [(m, _exact_coeff(c)) for m, c in items]
        # node (depth d, path q) under its germ's root (j, r, i, m0) is the
        # monomial (j + d, r + (q << j), i + d, m0 + (q << i))
        germs = {}
        for m, c in items:
            j, r, i, m0 = m.dom_level, m.dom_residue, m.range_level, m.base_image
            d = min(i, j)
            q = r >> (j - d)
            nodes = germs.setdefault((j - d, r - (q << (j - d)), i - d, m0 - (q << (i - d))), {})
            nodes[d, q] = nodes[d, q] + c if (d, q) in nodes else c
        zero = RationalComplex() if self.exact else 0j
        budget = MAX_NORMAL_FORM_NODES
        terms = {}
        for (j, r, i, m0), nodes in germs.items():
            if len(nodes) > 1:  # a lone node is maximal, however deep
                # split nodes: the strict ancestors of the given nodes
                splits = set()
                for d, q in nodes:
                    for e in range(d - 1, -1, -1):
                        node = (e, q & ((1 << e) - 1))
                        if node in splits:
                            break
                        splits.add(node)
                        budget -= 1
                        if budget < 0:
                            raise MemoryBudgetExceeded(
                                f"a normal form needs over {MAX_NORMAL_FORM_NODES} trie nodes")
                order = sorted(splits)
                for e, q in order:  # top-down: push coefficients onto both children
                    c = nodes.pop((e, q), None)
                    if c is not None:
                        for kid in ((e + 1, q), (e + 1, q | 1 << e)):
                            nodes[kid] = nodes[kid] + c if kid in nodes else c
                for e, q in reversed(order):  # bottom-up: merge equal sibling leaves
                    kids = (e + 1, q), (e + 1, q | 1 << e)
                    if kids[0] in splits or kids[1] in splits:
                        continue
                    c0, c1 = (nodes.get(kid, zero) for kid in kids)
                    if c0 == c1:
                        splits.discard((e, q))
                        nodes.pop(kids[0], None)
                        nodes.pop(kids[1], None)
                        nodes[e, q] = c0
            for (d, q), c in nodes.items():
                if c:
                    terms[Monomial(j + d, r + (q << j), i + d, m0 + (q << i))] = c
        self.terms = dict(sorted(terms.items()))

    # -- ring structure -----------------------------------------------------

    @staticmethod
    def _promote(coeffs: dict, exact: bool) -> dict:
        """The one promotion rule: coefficients unchanged when the result is
        exact, promoted to complex when it is numeric."""
        return coeffs if exact else {k: complex(c) for k, c in coeffs.items()}

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return Element.sum((self, other))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Element({m: -c for m, c in self.terms.items()}, self.exact, _normalized=True)

    def __mul__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        exact = self.exact and other.exact
        t1, t2 = self._promote(self.terms, exact), self._promote(other.terms, exact)
        if len(t1) == 1 and len(t2) == 1:
            (ma, ca), = t1.items()
            (mb, cb), = t2.items()
            return Element._single(compose(ma, mb), ca * cb, exact)
        out = {}
        for ma, ca in t1.items():
            for mb, cb in t2.items():
                m = compose(ma, mb)
                if m is None:
                    continue
                c = ca * cb
                out[m] = out[m] + c if m in out else c
        return Element(out, exact)

    def scale(self, c):
        return self * Element.scalar(c)

    def adjoint(self) -> "Element":
        # adjoint maps every germ's trie isomorphically: sorted, it stays normal
        return Element(sorted((m.adjoint(), c.conjugate()) for m, c in self.terms.items()),
                       self.exact, _normalized=True)

    def power(self, n: int) -> "Element":
        """self^n by repeated squaring: about 2 log2(n) products."""
        if n < 0:
            raise ValueError("negative powers are not defined on general elements")
        out, base = one(), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.exact == other.exact and self.terms == other.terms

    def equals(self, other: "Element") -> bool:
        """Exact operator equality, which is equality of normal forms."""
        if not (self.exact and other.exact):
            raise ValueError("equals requires exact coefficients; use approx_equals")
        return self == other

    def approx_equals(self, other: "Element", tol: float = APPROX_EQ_TOL) -> bool:
        diff = self - other
        if diff.exact:
            return diff.is_zero()
        return all(abs(c) <= tol for c in diff.terms.values())

    # -- representation on l^2(Z) --------------------------------------------

    def apply(self, vec: dict) -> dict:
        """Image of a finitely supported vector under the basis representation.

        The vector is a map basis index -> coefficient; exact coefficients
        stay exact when both the element and the vector are exact.
        """
        exact = self.exact and all(
            isinstance(v, (int, Fraction, RationalComplex)) for v in vec.values())
        vec = {n: _exact_coeff(v) for n, v in vec.items()} if exact else self._promote(vec, exact)
        out = {}
        for m, c in self._promote(self.terms, exact).items():
            for n, vn in vec.items():
                image = m.apply_index(n)
                if image is None:
                    continue
                contrib = c * vn
                out[image] = out[image] + contrib if image in out else contrib
        return {n: v for n, v in out.items() if v}

    def matrix_window(self, half_width: int):
        """Sparse matrix (entries, boundary_loss) of the element on basis indices [-N, N].

        Column col is apply({col: 1}): entries maps (row, col) to a complex amplitude,
        and boundary_loss flags a nonzero image outside the window.  Half-widths
        beyond MAX_WINDOW raise MemoryBudgetExceeded before anything is built.
        """
        if half_width > MAX_WINDOW:
            raise MemoryBudgetExceeded(
                f"window half-width {half_width} exceeds the budget of {MAX_WINDOW}")
        entries, boundary_loss = {}, False
        for col in range(-half_width, half_width + 1):
            for row, v in self.apply({col: 1}).items():
                if abs(row) > half_width:
                    boundary_loss = True
                else:
                    entries[row, col] = complex(v)
        return entries, boundary_loss

    # -- serialization ---------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for idx, (m, c) in enumerate(self.terms.items()):
            coeff, neg = _coeff_str(c, self.exact)
            body = str(m)
            if coeff == "1":
                text = body
            elif body == "1":
                text = coeff
            else:
                text = f"{coeff} {body}"
            if idx == 0:
                pieces.append(("-" if neg else "") + text)
            else:
                pieces.append(("- " if neg else "+ ") + text)
        return " ".join(pieces)

    __repr__ = __str__

    def to_json_dict(self) -> dict:
        """Terms with float parts `re`/`im`; exact elements add the exact
        strings `q_re`/`q_im` that `from_json_dict` reads back."""
        terms = []
        for m, c in self.terms.items():
            t = {"j": m.dom_level, "r": m.dom_residue, "i": m.range_level, "m0": m.base_image}
            if self.exact:
                t.update(re=float(c.re), im=float(c.im),
                         q_re=_frac_str(c.re), q_im=_frac_str(c.im))
            else:
                t.update(re=c.real, im=c.imag)
            terms.append(t)
        return {"exact": self.exact, "terms": terms}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Element":
        exact = data.get("exact", False)
        terms = {}
        for t in data["terms"]:
            m = Monomial(t["j"], t["r"], t["i"], t["m0"])
            terms[m] = (RationalComplex(Fraction(t["q_re"]), Fraction(t["q_im"])) if exact
                        else complex(t["re"], t["im"]))
        return cls(terms, exact)


def _coeff_str(c, exact: bool) -> tuple[str, bool]:
    """Printable magnitude of a coefficient and whether its sign is negative."""
    re, im = (c.re, c.im) if exact else (c.real, c.imag)
    neg = re < 0 or (re == 0 and im < 0)
    return _complex_str(-re if neg else re, -im if neg else im,
                        _frac_str if exact else repr), neg


# -- generators and common elements ------------------------------------------


def u(power: int = 1) -> Element:
    return Element.monomial(Monomial(0, 0, 0, power))


def s() -> Element:
    return Element.monomial(Monomial(0, 0, 1, 0))


def s_adj() -> Element:
    return Element.monomial(Monomial(1, 0, 0, 0))


def imaginary_unit() -> Element:
    return Element.scalar(RationalComplex(Fraction(0), Fraction(1)))


def one() -> Element:
    return Element({IDENTITY: RC_ONE}, True, _normalized=True)


def zero() -> Element:
    return Element({}, True, _normalized=True)


def projection(offset: int, level: int) -> Element:
    """u^offset e u^-offset: the diagonal projection onto offset + 2^level Z."""
    r = offset % (1 << level)
    return Element.monomial(Monomial(level, r, level, r))


def diagonal_expectation(e: Element) -> Element:
    """Project onto the diagonal subalgebra.

    Keeps exactly the terms whose monomial acts as the identity on its
    domain class; everything else maps to zero.
    """
    return Element({m: c for m, c in e.terms.items() if m.is_diagonal()},
                   e.exact, _normalized=True)


# -- 2x2 matrix embedding ------------------------------------------------------


def mat_mul(A, B):
    return [[A[r][0] * B[0][c] + A[r][1] * B[1][c] for c in range(2)] for r in range(2)]


def mat_adjoint(A):
    return [[A[c][r].adjoint() for c in range(2)] for r in range(2)]


def embed_2x2(e: Element):
    """The *-isomorphism x -> [t_p* x t_q] onto 2x2 matrices over the algebra.

    t0 = s and t1 = u s form a Cuntz pair: t_p* t_q = delta_pq, and
    t0 t0* + t1 t1* = 1 is the defining relation s s* + u s s* u* = 1.  So
    the map is unital, multiplicative and *-preserving, with inverse
    M -> sum t_p M_pq t_q*.  On the generators it reads
    u -> [[0, u], [1, 0]] and s -> [[s, u s], [0, 0]].
    """
    pair = (s(), u() * s())
    return [[tp.adjoint() * e * tq for tq in pair] for tp in pair]
