"""Command-line front end.

Surface syntax for the algebra: the atoms are `u`, `s`, `i`, integers
(ASCII digits) and fractions; juxtaposition or `*` multiplies, `+`/`-` add,
`^n` raises to an integer power and `^*` (or a `*` written tightly after
`u`/`s`) takes the adjoint.  `u^-1` is accepted because the shift is
unitary; `s^-1` is rejected.  Parentheses nest at most MAX_NESTING deep.

Exit codes: 0 success/equal, 1 not-equal or tolerance failure, 2 usage or
parse errors, 3 module precondition failures.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from . import algebra
from .algebra import Element, RationalComplex
from .bimodule import equivalence_residual
from .errors import MemoryBudgetExceeded, ParseError, QadicError
from .grid import (
    BumpSymbol,
    GaussianSymbol,
    TabulatedFourierPair,
    import_csv,
    indicator,
    sample_symbol,
)
from .numbers import PowerOfTwo, dyadic
from .wold import MonomialIsometry, build_extension_unitary, check_intertwining

# -- expression language -------------------------------------------------------


MAX_NESTING = 100  # deepest parenthesis nesting; the parser recurses once per level

# single-character tokens; integers and powers are read by _NUMBER
_TOKEN_KINDS = {"u": "name", "s": "name", "i": "name", "*": "star", "+": "plus",
                "-": "minus", "(": "lparen", ")": "rparen", "/": "slash"}
_NUMBER = re.compile(r"[0-9]+|\^(?:\*|-?[0-9]+)?")


def _tokenize(src: str):
    tokens = []  # (kind, value, offset)
    pos, n = 0, len(src)
    while pos < n:
        ch = src[pos]
        if ch.isspace():
            pos += 1
            continue
        kind = _TOKEN_KINDS.get(ch)
        if kind is not None:
            # a star written tightly after u or s is the adjoint
            if kind == "star" and tokens and tokens[-1][1] in ("u", "s") and tokens[-1][2] == pos - 1:
                kind = "adj"
            tokens.append((kind, ch if kind == "name" else None, pos))
            pos += 1
            continue
        match = _NUMBER.match(src, pos)
        if match is None:
            raise ParseError(f"unexpected character {ch!r}", pos, set())
        text = match.group()
        if text == "^":
            raise ParseError("malformed power", pos, {"integer", "'*'"})
        try:
            tokens.append(("adj", None, pos) if text == "^*" else
                          ("pow", int(text[1:]), pos) if ch == "^" else ("int", int(text), pos))
        except ValueError:  # more digits than int() reads
            raise ParseError("integer literal too long", pos, set()) from None
        pos = match.end()
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.depth = 0  # open parentheses around the current factor

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"unexpected {tok[0]}", tok[2], {kind})
        return self.advance()

    def parse(self) -> Element:
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError("trailing input", tok[2], {"end of input"})
        return e

    def expr(self) -> Element:
        op = self.advance()[0] if self.peek()[0] in ("plus", "minus") else "plus"
        terms = []
        while True:
            t = self.term()
            terms.append(-t if op == "minus" else t)
            if self.peek()[0] not in ("plus", "minus"):
                break
            op = self.advance()[0]
        # one merge of all terms: folding `+` would normalize after each term
        return terms[0] if len(terms) == 1 else Element.sum(terms)

    def term(self) -> Element:
        total = self.factor()
        while (kind := self.peek()[0]) in ("star", "int", "name", "lparen"):
            if kind == "star":  # an explicit product; juxtaposition is the implicit one
                self.advance()
            total = total * self.factor()
        return total

    def factor(self) -> Element:
        tok = self.peek()
        if tok[0] == "int":
            base = self.scalar()
        elif tok[0] == "name":
            self.advance()
            if tok[1] == "u":
                base = algebra.u()
            elif tok[1] == "s":
                base = algebra.s()
            else:
                base = Element.scalar(RationalComplex(Fraction(0), Fraction(1)))
        elif tok[0] == "lparen":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", tok[2], set())
            self.advance()
            self.depth += 1
            base = self.expr()
            self.expect("rparen")
            self.depth -= 1
        else:
            raise ParseError(f"unexpected {tok[0]}", tok[2],
                             {"integer", "'u'", "'s'", "'i'", "'('"})
        return self.trailers(base)

    def scalar(self) -> Element:
        num = self.expect("int")[1]
        if self.peek()[0] == "slash":
            self.advance()
            den = self.expect("int")[1]
            if den == 0:
                raise ParseError("division by zero", self.tokens[self.pos - 1][2], set())
            return Element.scalar(RationalComplex(Fraction(num, den)))
        return Element.scalar(RationalComplex(Fraction(num)))

    def trailers(self, base: Element) -> Element:
        while True:
            tok = self.peek()
            if tok[0] == "adj":
                self.advance()
                base = base.adjoint()
            elif tok[0] == "pow":
                self.advance()
                n = tok[1]
                if n >= 0:
                    base = base.power(n)
                elif _is_translation(base):  # u^k is unitary: its inverse is its adjoint
                    base = base.adjoint().power(-n)
                else:
                    raise ParseError("negative powers need a translation u^k"
                                     " (s is a proper isometry; use s^*)", tok[2], set())
            else:
                return base


def _is_translation(e: Element) -> bool:
    if len(e.terms) != 1:
        return False
    (m, c), = e.terms.items()
    return m.dom_level == 0 and m.range_level == 0 and e.exact \
        and c == RationalComplex(Fraction(1))


def parse_expr(src: str) -> Element:
    """Parse surface syntax into a canonical algebra element."""
    return _Parser(src).parse()


# -- run configuration ------------------------------------------------------------


@dataclass
class RunConfig:
    """The numeric settings of `matrix`, `wold` and `duality`; each range is checked here."""

    grid_exp: int = 6
    window: int = 16
    tol: float | None = None

    def __post_init__(self):
        if not 3 <= self.grid_exp <= 12:
            raise ValueError("grid exponent must lie in [3, 12]")
        if self.window <= 0 or self.window & (self.window - 1):
            raise ValueError("window must be a positive power of two")
        if self.tol is not None:
            _tolerance(self.tol)


# -- case files --------------------------------------------------------------------


def _read_pow2(text: str) -> int:
    """k for a power of two written "2^k" or as the integer 2^k."""
    text = text.strip()
    if text.startswith("2^"):
        return int(text[2:])
    n = int(text)
    if n <= 0 or n & (n - 1):
        raise ValueError(f"{text} is not a power of two")
    return n.bit_length() - 1


def _split_case_number(text) -> tuple[str, int]:
    """The numerator text and k of a case value written "a" or "a/d", d = 2^k."""
    num, slash, den = str(text).strip().partition("/")
    return num, _read_pow2(den) if slash else 0


def parse_case_dyadic(text: str):
    """num/2^k, refused on bit counts before any 2^|k| is built."""
    num, k = _split_case_number(text)
    num = int(num)
    if num and num.bit_length() - k > sys.float_info.max_exp:
        raise ValueError("too large for a float")
    value = dyadic(num, k)
    if value.exponent > algebra.MAX_LEVEL:
        raise MemoryBudgetExceeded(f"a denominator of 2^{value.exponent} is over the"
                                   f" budget of 2^{algebra.MAX_LEVEL}")
    try:
        float(value)  # the grid layer reads it as a float
    except OverflowError:
        raise ValueError("too large for a float") from None
    return value


def parse_case_pow2(text: str) -> PowerOfTwo:
    num, k = _split_case_number(text)
    return PowerOfTwo(_read_pow2(num) - k)


def _field(spec, key: str):
    """spec[key] for a case-file object; a non-object or a missing key is a
    ValueError, so a malformed case file exits 2."""
    if not isinstance(spec, dict):
        raise ValueError(f"expected an object, got {type(spec).__name__}")
    if key not in spec:
        raise ValueError(f"missing key {key!r}")
    return spec[key]


def _real(value) -> float:
    """A finite float; strings, bools, NaN and infinities are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _tolerance(value) -> float:
    """The one reader of `--tol` and a case's "tol": a finite number (see _real) > 0."""
    if (tol := _real(value)) > 0:
        return tol
    raise ValueError("tolerance must be positive")


def _value(spec, key: str, read, default=None):
    """read(spec[key]) (or read(default) for an absent key); errors name the key."""
    value = _field(spec, key) if default is None or key in spec else default
    try:
        return read(value)
    except ValueError as exc:
        raise ValueError(f"key {key!r}: {exc}") from None


def build_symbol(spec: dict):
    kind = _field(spec, "kind")
    if kind == "gaussian":
        return GaussianSymbol(_value(spec, "center", _real, 0.0),
                              _value(spec, "width", _real, 1.0),
                              _value(spec, "modulation", _real, 0.0))
    if kind == "bump":
        return BumpSymbol(_value(spec, "center", _real, 0.0), _value(spec, "radius", _real, 1.0))
    if kind == "tabulated":
        return TabulatedFourierPair(import_csv(_field(spec, "f_csv")),
                                    import_csv(_field(spec, "fcheck_csv")))
    raise ValueError(f"unknown symbol kind {kind!r}")


def build_vector(spec: dict, config: RunConfig):
    kind = _field(spec, "kind")
    if kind == "indicator":
        return indicator(config.grid_exp, _value(spec, "lo", parse_case_dyadic),
                         _value(spec, "hi", parse_case_dyadic))
    if kind in ("gaussian", "bump"):
        return sample_symbol(build_symbol(spec), config.grid_exp,
                             -config.window, config.window)
    if kind == "csv":
        return import_csv(_field(spec, "path"), style=spec.get("style", "smooth"))
    raise ValueError(f"unknown vector kind {kind!r}")


def default_cases() -> list[dict]:
    """Five transport-verification cases spanning the translation/dilation range."""
    f = {"kind": "bump", "center": 0.0, "radius": 1.5}
    xi1 = {"kind": "gaussian", "center": -0.125, "width": 1.0}
    xi2 = {"kind": "gaussian", "center": 0.25, "width": 0.75}
    entries = [("0", "1", 1e-3), ("1", "1", 1e-3), ("1/2", "2", 5e-3),
               ("3/2", "1/2", 5e-3), ("0", "2", 5e-3)]
    return [{"f": f, "d": d, "c": c, "xi": xi2, "xi1": xi1, "tol": tol}
            for d, c, tol in entries]


def _run_case(case: dict, config: RunConfig) -> dict:
    f = build_symbol(_field(case, "f"))
    d = _value(case, "d", parse_case_dyadic)
    # M_f T_d reads f near d, which may overflow there; overflow shows within 1 of d, and
    # the integer floor(d) does not refine a tabulated f to d's level before the budget
    with np.errstate(all="ignore"):
        if not np.isfinite(f.f_values(d.floor())).all():
            raise ValueError("key 'd': the symbol f is not finite this far out")
    c = _value(case, "c", parse_case_pow2)
    xi2 = build_vector(_field(case, "xi"), config)
    xi1 = build_vector(case["xi1"], config) if "xi1" in case else xi2
    for key, xi in (("xi", xi2), ("xi1", xi1)):
        if xi.is_zero():  # its normalized matrix coefficient would be 0/0
            raise ValueError(f"key {key!r}: the vector is zero on the grid")
    tol = config.tol if config.tol is not None else _value(case, "tol", _tolerance, 1e-3)
    residual = equivalence_residual(f, d, c, xi1, xi2)
    return {
        "case": {"f": dict(case["f"]), "d": str(d), "c": str(c)},
        "residual": residual,
        "tolerances": {"residual": tol},
        "grid": {"g": config.grid_exp, "window": config.window},
        "pass": bool(residual <= tol),
    }


def run_duality_cases(cases: list[dict], config: RunConfig) -> dict:
    if not isinstance(cases, list) or not cases:
        raise ValueError("a case file must hold a non-empty array of cases")
    results = []
    for index, case in enumerate(cases):
        try:
            results.append(_run_case(case, config))
        except ValueError as exc:
            raise ValueError(f"case {index}: {exc}") from None
    return {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "grid": {"g": config.grid_exp, "window": config.window},
        "cases": results,
        "pass": all(r["pass"] for r in results),
    }


# -- output helpers ------------------------------------------------------------------


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _emit_element(e: Element, args) -> int:
    _emit(json.dumps(e.to_json_dict(), sort_keys=True) if args.format == "json" else str(e),
          args.out)
    return 0


# -- commands ----------------------------------------------------------------------


def cmd_normalize(args) -> int:
    return _emit_element(parse_expr(args.expr), args)


def cmd_eq(args) -> int:
    e1, e2 = parse_expr(args.expr1), parse_expr(args.expr2)
    equal = e1.equals(e2)
    _emit("equal" if equal else "not equal", args.out)
    return 0 if equal else 1


def cmd_apply(args) -> int:
    e = parse_expr(args.expr)
    vec = e.apply({args.basis: 1})
    if args.format == "json":
        payload = [{"n": n, "re": float(complex(c).real), "im": float(complex(c).imag)}
                   for n, c in sorted(vec.items())]
        _emit(json.dumps(payload), args.out)
    elif args.format == "csv":
        lines = ["n,re,im"] + [
            f"{n},{complex(c).real!r},{complex(c).imag!r}" for n, c in sorted(vec.items())]
        _emit("\n".join(lines), args.out)
    else:
        _emit("\n".join(f"{n}: {vec[n]}" for n in sorted(vec)) or "0", args.out)
    return 0


def cmd_expect(args) -> int:
    return _emit_element(algebra.diagonal_expectation(parse_expr(args.expr)), args)


def cmd_matrix(args) -> int:
    config = RunConfig(window=args.window)
    e = parse_expr(args.expr)
    entries, boundary_loss = e.matrix_window(config.window)
    if args.format == "json":
        payload = {"window": config.window, "boundary_loss": boundary_loss,
                   "entries": [{"row": r, "col": c, "re": v.real, "im": v.imag}
                               for (r, c), v in sorted(entries.items())]}
        _emit(json.dumps(payload, sort_keys=True), args.out)
    else:
        lines = ["row,col,re,im"]
        lines += [f"{r},{c},{v.real!r},{v.imag!r}"
                  for (r, c), v in sorted(entries.items())]
        _emit("\n".join(lines), args.out)
    if boundary_loss:
        print("note: entries outside the window were dropped", file=sys.stderr)
    return 0


def cmd_wold(args) -> int:
    config = RunConfig(window=args.window)
    s0 = MonomialIsometry.from_element(parse_expr(args.s0))
    s1 = MonomialIsometry.from_element(parse_expr(args.s1))
    table = build_extension_unitary(s0, s1, config.window)
    checks = check_intertwining(table, s0, s1)
    if args.format == "json":
        payload = {"window": config.window,
                   "table": [{"n": n, "image": m, "re": a.real, "im": a.imag}
                             for n, (m, a) in sorted(table.items())],
                   "checks": checks}
        _emit(json.dumps(payload, sort_keys=True), args.out)
    else:
        lines = [f"U e_{n} = " + (f"e_{m}" if a == 1 else f"({a}) e_{m}")
                 for n, (m, a) in sorted(table.items())]
        lines.append(f"U S0 = S1 on window: {'pass' if checks['US0=S1'] else 'FAIL'}")
        lines.append(f"S0 U = U^2 S0 on window: {'pass' if checks['S0U=U2S0'] else 'FAIL'}")
        _emit("\n".join(lines), args.out)
    return 0 if checks["US0=S1"] and checks["S0U=U2S0"] else 1


def cmd_duality(args) -> int:
    config = RunConfig(grid_exp=args.grid_exp, window=args.window, tol=args.tol)
    if args.cases == "default":
        cases = default_cases()
    else:
        with open(args.cases) as fh:
            cases = json.load(fh)
    report = run_duality_cases(cases, config)
    if args.format == "text":
        lines = []
        for r in report["cases"]:
            status = "pass" if r["pass"] else "FAIL"
            lines.append(f"d={r['case']['d']} c={r['case']['c']}: "
                         f"residual {r['residual']:.3e} "
                         f"(tol {r['tolerances']['residual']:.1e}) {status}")
        lines.append("all cases pass" if report["pass"] else "some cases FAILED")
        _emit("\n".join(lines), args.out)
    else:
        _emit(json.dumps(report, indent=2, sort_keys=True), args.out)
    return 0 if report["pass"] else 1


# -- entry point --------------------------------------------------------------------


def _build_arg_parser() -> argparse.ArgumentParser:
    # each command registers only the flags it reads; --format offers only
    # the formats it writes, so argparse refuses the rest before any input
    parser = argparse.ArgumentParser(
        prog="qadic",
        description="workbench for the dyadic shift/translation operator algebra")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *positionals, formats=("text", "json")):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        for dest in positionals:
            p.add_argument(dest)
        if len(formats) > 1:
            p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", help="write output to this path")
        return p

    command("normalize", cmd_normalize, "print the canonical form of an expression", "expr")
    command("eq", cmd_eq, "decide equality of two expressions", "expr1", "expr2",
            formats=("text",))
    command("apply", cmd_apply, "apply an expression to a basis vector", "expr",
            formats=("text", "json", "csv")).add_argument("--basis", type=int, default=0)
    command("expect", cmd_expect, "project onto the diagonal subalgebra", "expr")
    matrix = command("matrix", cmd_matrix, "export the windowed matrix of an expression", "expr")
    wold = command("wold", cmd_wold, "build and check the extension unitary")
    wold.add_argument("--s0", required=True)
    wold.add_argument("--s1", required=True)
    duality = command("duality", cmd_duality, "run the transport-verification case list")
    duality.add_argument("--cases", default="default",
                         help="JSON case file, or 'default' for the built-in list")
    duality.add_argument("-g", "--grid-exp", type=int, default=RunConfig.grid_exp,
                         help="grid resolution exponent (spacing 2^-g)")
    duality.add_argument("--tol", type=float, help="override verification tolerance")

    for p in (matrix, wold, duality):
        p.add_argument("-N", "--window", type=int, default=RunConfig.window,
                       help="basis window half-width (power of two)")
    return parser


_PARSER: argparse.ArgumentParser | None = None  # built by the first main call


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_arg_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except QadicError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
