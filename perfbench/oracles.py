"""Output checks that do not use the code under test.

The exact layer is checked with a word-action evaluator on basis vectors of
l^2(Z): ``u: n -> n+1``, ``s: n -> 2n`` and ``s*: n -> n/2`` on even n (zero
on odd n), extended linearly with exact fractions.  Program output in JSON
is read back as affine partial maps and compared on a window of basis
vectors.  Each check returns a list of failure messages; an empty list
means the output passed.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction

REL_TOL = 1e-9

# -- the word-action evaluator ------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _token_map(tok: str) -> tuple[str, int]:
    if tok in ("s", "s*"):
        return tok, 0
    if tok.startswith("u^"):
        return "u", int(tok[2:])
    raise ValueError(f"unknown token {tok!r}")


def _word_index(toks: list[str], n: int) -> int | None:
    """The basis index a word sends e_n to, or None when it kills e_n."""
    for tok in reversed(toks):
        op, k = _token_map(tok)
        if op == "u":
            n += k
        elif op == "s":
            n *= 2
        elif n % 2:
            return None
        else:
            n //= 2
    return n


def evaluate(node: list, vec: dict) -> dict:
    """The syntax tree of ``gen.py`` applied to a sparse vector {n: coeff}."""
    kind = node[0]
    if kind == "word":
        out: dict = {}
        for n, c in vec.items():
            m = _word_index(node[1], n)
            if m is not None:
                out[m] = out.get(m, 0) + c
        return out
    if kind == "sum":
        out = {}
        for coeff, child in node[1]:
            q = Fraction(coeff)
            for n, c in evaluate(child, vec).items():
                out[n] = out.get(n, 0) + q * c
        return {n: c for n, c in out.items() if c != 0}
    if kind == "pow":
        for _ in range(node[2]):
            vec = evaluate(node[1], vec)
        return vec
    if kind == "prod":
        for child in reversed(node[1]):
            vec = evaluate(child, vec)
        return vec
    raise ValueError(f"unknown node {kind!r}")


def agree_on(lhs: list, rhs: list, window) -> bool:
    return all(evaluate(lhs, {n: 1}) == evaluate(rhs, {n: 1}) for n in window)


def _json_terms_apply(terms: list[dict], n: int) -> dict:
    """Program terms read as partial maps n -> 2^i (n - r) / 2^j + m0."""
    out: dict = {}
    for t in terms:
        j, r, i, m0 = t["j"], t["r"], t["i"], t["m0"]
        if (n - r) % (1 << j):
            continue
        image = ((n - r) >> j << i) + m0
        out[image] = out.get(image, 0) + complex(t["re"], t["im"])
    return out


def _close(a: complex, b: complex) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _vec_mismatch(got: dict, want: dict) -> int | None:
    """First index where two sparse vectors differ, or None."""
    for k in sorted(set(got) | set(want)):
        if not _close(complex(got.get(k, 0)), complex(want.get(k, 0))):
            return k
    return None


NORMALIZE_WINDOW = range(-64, 64)
POWER_WINDOW = range(-16, 16)


# -- checks per item kind ---------------------------------------------------------------


def _sum_window(node: list) -> range:
    """Enough consecutive basis indices to meet every residue class that the
    words of a sum can tell apart: 2^k of them for words with k letters s*."""
    half = max(16, max(1 << w[1].count("s*") for _c, w in node[1]) // 2)
    return range(-half, half)


def check_normalize(item: dict, payload: dict) -> list[str]:
    expr = item["expr"]
    if expr[0] == "pow":
        window = POWER_WINDOW
    elif expr[0] == "sum":
        window = _sum_window(expr)
    else:
        window = NORMALIZE_WINDOW
    for n in window:
        k = _vec_mismatch(_json_terms_apply(payload["terms"], n), evaluate(expr, {n: 1}))
        if k is not None:
            return [f"normalize: image of e_{n} differs at e_{k}"]
    return []


def check_eq(item: dict, text: str, code: int) -> list[str]:
    window_equal = agree_on(item["lhs"], item["rhs"], NORMALIZE_WINDOW)
    if window_equal != item["expected_equal"]:
        return ["eq: generated pair disagrees with its construction on the window"]
    want = ("equal", 0) if item["expected_equal"] else ("not equal", 1)
    if (text.strip(), code) != want:
        return [f"eq: got {text.strip()!r} exit {code}, expected {want[0]!r} exit {want[1]}"]
    return []


def is_diagonal_word(toks: list[str], window) -> bool:
    """A word is diagonal when it fixes every basis vector it does not kill."""
    images = [(n, _word_index(toks, n)) for n in window]
    return all(m is None or m == n for n, m in images)


def check_expect(item: dict, payload: dict) -> list[str]:
    """The conditional expectation keeps the words that act as the identity
    on their domain and drops the rest (expressions are sums of words)."""
    kept = ["sum", [[c, w] for c, w in item["expr"][1]
                    if is_diagonal_word(w[1], NORMALIZE_WINDOW)]]
    for n in NORMALIZE_WINDOW:
        k = _vec_mismatch(_json_terms_apply(payload["terms"], n), evaluate(kept, {n: 1}))
        if k is not None:
            return [f"expect: image of e_{n} differs at e_{k}"]
    return []


def check_apply(item: dict, payload: list) -> list[str]:
    got = {e["n"]: complex(e["re"], e["im"]) for e in payload}
    k = _vec_mismatch(got, evaluate(item["expr"], {item["basis"]: 1}))
    return [] if k is None else [f"apply: coefficient of e_{k} differs"]


def check_matrix(item: dict, payload: dict, stderr: str) -> list[str]:
    half = item["window"]
    want, loss = {}, False
    for col in range(-half, half + 1):
        for row, c in evaluate(item["expr"], {col: 1}).items():
            if abs(row) > half:
                loss = True
            else:
                want[(row, col)] = c
    got = {(e["row"], e["col"]): complex(e["re"], e["im"]) for e in payload["entries"]}
    errors = []
    if _vec_mismatch(got, want) is not None:
        errors.append("matrix: entries differ from the word action")
    if payload["boundary_loss"] != loss:
        errors.append(f"matrix: boundary_loss {payload['boundary_loss']}, expected {loss}")
    if loss != ("outside the window" in stderr):
        errors.append("matrix: boundary note on stderr does not match boundary_loss")
    return errors


def check_wold(item: dict, payload: dict) -> list[str]:
    a, b = item["a"], item["b"]
    table = {e["n"]: (e["image"], complex(e["re"], e["im"])) for e in payload["table"]}
    errors = []
    if not all(payload["checks"][k] for k in ("US0=S1", "S0U=U2S0")):
        errors.append(f"wold: program checks failed: {payload['checks']}")
    if sorted(table) != list(range(-item["window"], item["window"] + 1)):
        errors.append("wold: table does not cover the window")
    # U S0 = S1 with S0: n -> 2n + a and S1: n -> 2n + b
    for n in table:
        m = 2 * n + a
        if m in table and (table[m][0] != 2 * n + b or not _close(table[m][1], 1)):
            errors.append(f"wold: U S0 e_{n} != S1 e_{n}")
            break
    return errors


def check_duality(item: dict, report: dict) -> list[str]:
    cases = report.get("cases", [])
    if len(cases) != 1:
        return [f"duality: expected one case, got {len(cases)}"]
    case = cases[0]
    tol = item["case"]["tol"]
    residual = case["residual"]
    errors = []
    if not (case["pass"] is True and report["pass"] is True):
        errors.append("duality: pass is not true")
    if not (math.isfinite(residual) and 0 <= residual <= tol):
        errors.append(f"duality: residual {residual} exceeds tol {tol}")
    return errors


# -- solenoid characters ---------------------------------------------------------------


# the points carry 64 known bits and shift by at most 8; every angle checked
# needs at most 12 bits of z
MIN_Z_PRECISION = 56


def frac_times(z: int, b: Fraction) -> Fraction:
    """Fractional part in [0, 1) of the 2-adic integer z times the dyadic b."""
    return Fraction((z * b.numerator) % b.denominator, b.denominator)


def check_character(item: dict, results: list[dict]) -> list[str]:
    """Each result holds the program's canonical point and, for b1, b2 and
    b1 + b2, the exact angle of the 2-adic character and the complex value."""
    errors = []
    for spec, res in zip(item["points"], results, strict=True):
        unit, shift, r = spec["unit"], spec["shift"], spec["r"]
        b1 = Fraction(spec["b1"][0], 1 << spec["b1"][1])
        b2 = Fraction(spec["b2"][0], 1 << spec["b2"][1])
        # canonical form: subtract the fractional part of x, then the floor
        low = unit % (1 << shift)
        r1 = r - low / (1 << shift)
        n = math.floor(r1)
        z_int = ((unit - low) >> shift) - n
        if not (0 <= res["r"] < 1 and abs(res["r"] - (r1 - n)) < 1e-12):
            errors.append(f"character: canonical r {res['r']} != {r1 - n}")
        prec = res["z_precision"]
        if prec < MIN_Z_PRECISION or res["z_residue"] != z_int % (1 << prec):
            errors.append("character: canonical z differs")
        angles = [Fraction(*a) for a in res["angles"]]
        for b, angle, value in zip((b1, b2, b1 + b2), angles, res["values"]):
            want_angle = frac_times(z_int, b)
            if angle != want_angle:
                errors.append(f"character: angle {angle} != {want_angle}")
            want = cmath.exp(2j * math.pi * (res["r"] * float(b) - float(want_angle)))
            if not _close(complex(*value), want):
                errors.append("character: value differs from e(r b) e(-{z b})")
        # the group law, exactly on the angles and numerically on the values
        if (angles[0] + angles[1]) % 1 != angles[2]:
            errors.append("character: exact group law fails")
        v1, v2, v3 = (complex(*v) for v in res["values"])
        if not _close(v1 * v2, v3):
            errors.append("character: numeric group law fails")
    return errors
