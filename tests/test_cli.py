import argparse
import json
import os
import random
import resource
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qadic import algebra, bimodule, cli, grid
from qadic.algebra import RationalComplex, one, projection, s, s_adj, u, zero
from qadic.bimodule import equivalence_residual
from qadic.cli import (
    RunConfig,
    default_cases,
    main,
    parse_case_dyadic,
    parse_case_pow2,
    parse_expr,
    run_duality_cases,
)
from qadic.errors import MemoryBudgetExceeded, ParseError
from qadic.numbers import PowerOfTwo, dyadic

rng = random.Random(271828)

GENERATORS = {"u": u(), "U": u(-1), "s": s(), "S": s_adj()}


def random_element():
    e = zero()
    for _ in range(rng.randint(1, 3)):
        w = one()
        for _ in range(rng.randint(1, 5)):
            w = w * GENERATORS[rng.choice("uUsS")]
        c = RationalComplex(Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                            Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
        e = e + w.scale(c)
    return e


# -- parser ------------------------------------------------------------------


def test_parse_relation_examples():
    assert parse_expr("s u").equals(parse_expr("u^2 s"))
    assert parse_expr("s s^* + u s s^* u^*").equals(one())
    assert parse_expr("s^* u s").equals(zero())


def test_parse_tight_star_adjoint():
    assert parse_expr("s s* + u s s* u*").equals(one())
    assert parse_expr("u*").equals(u(-1))
    # a spaced star is multiplication
    assert parse_expr("s * u").equals(s() * u())
    assert parse_expr("2*u").equals(u().scale(2))
    assert parse_expr("(u + 1) * s").equals((u() + one()) * s())


def test_parse_powers():
    assert parse_expr("u^3").equals(u(3))
    assert parse_expr("u^-2").equals(u(-2))
    assert parse_expr("s^2").equals(s() * s())
    assert parse_expr("s*^2").equals(s_adj() * s_adj())
    assert parse_expr("(u s)^*").equals((u() * s()).adjoint())


def test_parse_scalars():
    assert parse_expr("3/4 u").equals(u().scale(Fraction(3, 4)))
    assert parse_expr("(1/2+3/4i)").equals(
        one().scale(RationalComplex(Fraction(1, 2), Fraction(3, 4))))
    assert parse_expr("2i").equals(one().scale(RationalComplex(Fraction(0), Fraction(2))))
    assert parse_expr("1").equals(one())
    assert parse_expr("0").equals(zero())
    assert parse_expr("- u + 1").equals(one() - u())


def test_parse_projection_shorthand():
    assert parse_expr("s s*").equals(projection(0, 1))
    assert parse_expr("u s s* u*").equals(projection(1, 1))


# one input per ParseError site: (source, message, offset)
PARSE_ERRORS = [
    ("u @ s", "unexpected character '@'", 2),
    ("u²", "unexpected character '²'", 1),  # only ASCII digits are integers
    ("٣ u", "unexpected character '٣'", 0),
    ("u^", "malformed power", 1),
    ("u^-", "malformed power", 1),
    ("u ^ 2", "malformed power", 2),
    ("u^" + "9" * 5000, "integer literal too long", 1),  # past int()'s 4300 digits
    ("u )", "trailing input", 2),
    ("(u", "unexpected end", 2),
    ("u + ", "unexpected end", 4),
    ("1/u", "unexpected name", 2),
    ("1/0", "division by zero", 2),
    ("s^-1", "isometry", 1),
    ("(u + s)^-1", "translation", 7),  # a base of two terms
    ("(" * 1000 + "u" + ")" * 1000, f"nested deeper than {cli.MAX_NESTING}", cli.MAX_NESTING),
]


def test_parse_errors_carry_offsets(capsys):
    for src, message, offset in PARSE_ERRORS:
        with pytest.raises(ParseError) as info:
            parse_expr(src)
        assert message in str(info.value) and info.value.offset == offset, src[:20]
        assert main(["normalize", src]) == 2
        assert "Traceback" not in capsys.readouterr().err


def test_nesting_limit_does_not_depend_on_the_stack():
    deepest = "(" * cli.MAX_NESTING + "u" + ")" * cli.MAX_NESTING

    def nested(frames, src):  # a caller already deep in its own recursion
        return parse_expr(src) if frames == 0 else nested(frames - 1, src)

    assert nested(400, deepest) == u()
    with pytest.raises(ParseError, match="nested deeper"):
        nested(400, "(" + deepest + ")")


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    # at most eight characters: the language can write a power that takes
    # minutes to expand, which no parse error or budget refuses
    st.text("usi*+-()/^0123456789 \t\n\x0b²٣@", max_size=8),
    st.sampled_from([src for src, _, _ in PARSE_ERRORS])))
def test_parse_expr_raises_only_its_own_errors(src):
    try:
        result = parse_expr(src)
    except (ParseError, MemoryBudgetExceeded):
        return
    assert isinstance(result, algebra.Element)


def test_parser_round_trip_random():
    for _ in range(1000):
        e = random_element()
        back = parse_expr(str(e))
        assert back == e


word_src = st.lists(st.sampled_from(["u", "u^-1", "s", "s*", "u^3", "s^2"]),
                    min_size=1, max_size=4).map(" ".join)
term_src = st.tuples(st.sampled_from(["+", "-"]), st.sampled_from(["", "2 ", "1/2 ", "3/4 "]),
                     word_src)


@settings(max_examples=60, deadline=None)
@given(st.lists(term_src, min_size=1, max_size=6))
def test_parsed_sum_equals_folded_sum(terms):
    src = " ".join(f"{sign} {coeff}{word}" for sign, coeff, word in terms)
    folded = zero()
    for sign, coeff, word in terms:
        t = parse_expr(coeff + word)
        folded = folded + t if sign == "+" else folded - t
    assert parse_expr(src).equals(folded)


def test_sum_form_does_not_depend_on_term_order():
    forward = "s^2 s*^2 + u^2 s^2 s*^2 u^-2 + s s* + u s s* u^-1"
    backward = "u s s* u^-1 + s s* + u^2 s^2 s*^2 u^-2 + s^2 s*^2"
    assert str(parse_expr(forward)) == str(parse_expr(backward)) == "2 s s* + u s s* u^-1"


def three_deep_germs(k):
    """1 + s^k s*^k on three germs: 3k split nodes, 3k + 3 terms."""
    deep = f"s^{k} s*^{k}"
    return f"1 + {deep} + u + u {deep} + u^2 + u^2 {deep}"


def test_deep_normal_form_fails_fast(capsys):
    # the unique form of 1 + s^K s*^K has K + 1 terms
    assert len(parse_expr("1 + s^64 s*^64").terms) == 65
    k = algebra.MAX_NORMAL_FORM_NODES // 3
    assert k < algebra.MAX_LEVEL
    assert len(parse_expr(three_deep_germs(k)).terms) == 3 * k + 3
    # levels past MAX_LEVEL trip the level budget first; under it, one more
    # level per germ trips the node budget
    for src, budget in [("1 + s^100000 s*^100000", "level"),
                        (three_deep_germs(k + 1), "trie nodes")]:
        start = time.perf_counter()
        with pytest.raises(MemoryBudgetExceeded, match=budget):
            parse_expr(src)
        assert time.perf_counter() - start < 1.0
        assert main(["normalize", src]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["apply", "s^1000000", "--basis", "3"],
    ["normalize", "s^3000000000"],
    ["normalize", f"s*^{algebra.MAX_LEVEL + 1}"],
])
def test_level_budget_exits_fast(argv, capsys):
    # refused before a 2^level integer is built or printed
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 1.0
    assert "MemoryBudgetExceeded" in capsys.readouterr().err


def test_large_power_parses_in_logarithmic_products(monkeypatch):
    calls = []
    compose = algebra.compose
    monkeypatch.setattr(algebra, "compose", lambda a, b: calls.append(1) or compose(a, b))
    assert parse_expr("u^200000 s u^-7") == parse_expr("s u^99993")
    assert parse_expr("(s* u s)^1000000").is_zero()
    assert len(calls) <= 64


# -- configuration ----------------------------------------------------------------


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(grid_exp=2)
    with pytest.raises(ValueError):
        RunConfig(window=12)
    for tol in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            RunConfig(tol=tol)


def test_case_value_parsers():
    assert parse_case_dyadic("3/2^1") == dyadic(3, 1)
    assert parse_case_dyadic("3/2") == dyadic(3, 1)
    assert parse_case_dyadic("-5") == dyadic(-5)
    assert parse_case_pow2("2^3").exponent == 3
    assert parse_case_pow2("1/2").exponent == -1
    assert parse_case_pow2("4").exponent == 2
    with pytest.raises(ValueError):
        parse_case_pow2("3")
    with pytest.raises(ValueError):
        parse_case_dyadic("1/3")


# each value read by both case parsers: (dyadic (numerator, exponent), pow2 exponent);
# None means ValueError
CASE_VALUES = [
    ("2^3", None, 3), ("2^-3", None, -3), ("1/2^3", (1, 3), -3), ("1/8", (1, 3), -3),
    ("8", (8, 0), 3), ("3/2^2", (3, 2), None), ("-5/4", (-5, 2), None),
    ("7", (7, 0), None), ("3/4", (3, 2), None), ("0", (0, 0), None),
    ("1/6", None, None), ("1/-2", None, None), ("1/2^-1", (2, 0), 1),
    (" 1/2 ", (1, 1), -1), ("1", (1, 0), 0), ("x", None, None),
]


@pytest.mark.parametrize("text, as_dyadic, as_pow2", CASE_VALUES)
def test_case_value_table(text, as_dyadic, as_pow2):
    for parse, expected in ((parse_case_dyadic, as_dyadic and dyadic(*as_dyadic)),
                            (lambda t: parse_case_pow2(t).exponent, as_pow2)):
        if expected is None:
            with pytest.raises(ValueError):
                parse(text)
        else:
            assert parse(text) == expected


# -- commands ----------------------------------------------------------------------


def test_cmd_eq_exit_codes(capsys):
    assert main(["eq", "s u", "u^2 s"]) == 0
    assert main(["eq", "u", "u^-1"]) == 1
    capsys.readouterr()


def test_cmd_normalize(capsys):
    assert main(["normalize", "s s^* + u s s^* u^*"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["normalize", "s u - u^2 s"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_cmd_normalize_json(capsys):
    assert main(["normalize", "u", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"exact": True, "terms": [{"j": 0, "r": 0, "i": 0, "m0": 1, "re": 1.0,
                                              "im": 0.0, "q_re": "1", "q_im": "0"}]}


def test_cmd_apply(capsys):
    assert main(["apply", "u", "--basis", "5"]) == 0
    assert capsys.readouterr().out.strip() == "6: 1"
    assert main(["apply", "s^*", "--basis", "3"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_cmd_apply_csv(capsys):
    assert main(["apply", "u + 1/2 s", "--basis", "3", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines() == ["n,re,im", "4,1.0,0.0", "6,0.5,0.0"]


def test_cmd_expect(capsys):
    assert main(["expect", "u"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert main(["expect", "s s* + 3 u s s*"]) == 0
    assert capsys.readouterr().out.strip() == "s s*"


def test_cmd_matrix(tmp_path, capsys):
    out = tmp_path / "matrix.csv"
    assert main(["matrix", "1", "-N", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "row,col,re,im"
    assert len(lines) == 6  # header + 5 diagonal entries


def test_cmd_matrix_boundary_note(capsys):
    assert main(["matrix", "u", "-N", "2"]) == 0
    err = capsys.readouterr().err
    assert "outside the window" in err


def test_cmd_matrix_cancelled_images_are_not_dropped(capsys):
    # the two images of e_1 both land on e_4 and cancel: nothing nonzero leaves
    assert main(["matrix", "(u^3 - s u) u s^3 s*^3 u^-1", "-N", "2", "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"window": 2, "boundary_loss": False, "entries": []}
    assert captured.err == ""


def test_cmd_wold(capsys):
    assert main(["wold", "--s0", "s", "--s1", "u s", "-N", "16"]) == 0
    out = capsys.readouterr().out
    assert "U e_0 = e_1" in out
    assert "pass" in out


def test_flags_accepted_after_subcommand(capsys):
    assert main(["wold", "--s0", "s", "--s1", "u s", "-N", "8"]) == 0
    out = capsys.readouterr().out
    assert "U e_8 = e_9" in out and "U e_9" not in out
    assert main(["matrix", "u", "-N", "4", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["window"] == 4 and data["boundary_loss"] is True


def test_cmd_wold_rejects_bad_isometry(capsys):
    assert main(["wold", "--s0", "s + u", "--s1", "u s"]) == 3
    assert main(["wold", "--s0", "s^*", "--s1", "u s"]) == 3
    capsys.readouterr()


def test_cmd_parse_error_exit(capsys):
    assert main(["normalize", "s^-1"]) == 2
    assert "parse error" in capsys.readouterr().err


def test_cmd_config_error_exit(tmp_path, capsys):
    # flags go after the command name: the top-level parser takes none
    out = tmp_path / "out.txt"
    with pytest.raises(SystemExit) as info:
        main(["-N", "12", "normalize", "u", "--out", str(out)])
    assert info.value.code == 2
    assert capsys.readouterr().out == "" and not out.exists()


@pytest.mark.parametrize("argv", [
    ["normalize", "u", "-N", "64"],
    ["normalize", "u", "-g", "10"],
    ["normalize", "u", "--tol", "1e-9"],
    ["eq", "u", "u", "-N", "16"],
    ["apply", "u", "-g", "6"],
    ["wold", "--s0", "s", "--s1", "u s", "--tol", "5"],
])
def test_unread_flag_exits_2(tmp_path, capsys, argv):
    # a flag the command does not read is refused, not ignored
    out = tmp_path / "out.txt"
    with pytest.raises(SystemExit) as info:
        main(argv + ["--out", str(out)])
    assert info.value.code == 2
    assert capsys.readouterr().out == "" and not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["matrix", "(", "-N", "12"], "window must be a positive power of two"),
    (["wold", "--s0", "(", "--s1", "u s", "-N", "0"], "window must be a positive power of two"),
    (["duality", "--cases", "missing.json", "-N", "12"], "window must be a positive power of two"),
    (["duality", "--cases", "missing.json", "-g", "2"], "grid exponent must lie in [3, 12]"),
    (["duality", "--cases", "missing.json", "-g", "13"], "grid exponent must lie in [3, 12]"),
    (["duality", "--cases", "missing.json", "--tol", "-1"], "tolerance must be positive"),
    (["duality", "--cases", "missing.json", "--tol", "nan"], "expected a finite number, got nan"),
    (["duality", "--cases", "missing.json", "--tol", "inf"], "expected a finite number, got inf"),
])
def test_setting_out_of_range_exits_2(tmp_path, capsys, argv, message):
    # refused before the expression is parsed, the case file read or --out opened
    out = tmp_path / "out.txt"
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("argv,fmt", [
    (["normalize", "("], "csv"),
    (["expect", "("], "csv"),
    (["wold", "--s0", "(", "--s1", "u s"], "csv"),
    (["duality", "--cases", "missing.json"], "csv"),
    (["eq", "(", "u"], "json"),
    (["eq", "(", "u"], "csv"),
    (["matrix", "("], "csv"),
])
def test_unwritten_format_exits_2(tmp_path, capsys, argv, fmt):
    # refused before the expression is parsed, the case file read or --out opened
    out = tmp_path / "out.txt"
    with pytest.raises(SystemExit) as info:
        main(argv + ["--format", fmt, "--out", str(out)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert "--format" in captured.err
    assert captured.out == "" and not out.exists()


_MINIMAL_ARGV = {"normalize": ["u"], "eq": ["u", "u"], "apply": ["u"], "expect": ["u"],
                 "matrix": ["u"], "wold": ["--s0", "s", "--s1", "u s"], "duality": []}


def test_every_flag_is_read_by_its_command(tmp_path, capsys):
    # a flag that its command never reads does nothing; flags are registered
    # on the commands alone, so the top-level parser has none
    parser = cli._build_arg_parser()
    assert [a.dest for a in parser._actions if a.option_strings and a.dest != "help"] == []
    commands, = (a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction))
    assert sorted(commands) == sorted(_MINIMAL_ARGV)
    registered = 0
    for name, sub in commands.items():
        read = set()

        class Recorder(argparse.Namespace):
            def __getattribute__(self, attr):
                read.add(attr)
                return super().__getattribute__(attr)

        args = parser.parse_args([name, *_MINIMAL_ARGV[name], "--out", str(tmp_path / "out")],
                                 namespace=Recorder())
        read.clear()  # parsing reads the namespace too
        assert args.func(args) == 0
        flags = {a.dest for a in sub._actions if a.option_strings and a.dest != "help"}
        assert sorted(flags - read) == [], name
        registered += len(flags)
    assert registered == 22
    capsys.readouterr()


def test_cmd_duality_default(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["duality", "--format", "json", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    report = json.loads(out.read_text())
    assert report["pass"] is True
    assert len(report["cases"]) == 5
    for case in report["cases"]:
        assert case["pass"] is True
        assert case["residual"] <= case["tolerances"]["residual"]
        assert case["grid"] == {"g": 6, "window": 16}


def test_cmd_duality_tolerance_failure(capsys):
    assert main(["duality", "--tol", "1e-30"]) == 1
    capsys.readouterr()


def test_cmd_duality_empty_cases_path_exits_2(capsys):
    # only the literal "default" selects the built-in cases
    assert main(["duality", "--cases", ""]) == 2
    captured = capsys.readouterr()
    assert "No such file" in captured.err and captured.out == ""


def test_cmd_duality_custom_cases(tmp_path, capsys):
    cases = [{
        "f": {"kind": "bump", "center": 0.0, "radius": 1.0},
        "d": "1/2", "c": "2^1",
        "xi": {"kind": "gaussian", "center": 0.25, "width": 0.5},
        "tol": 5e-3,
    }]
    path = tmp_path / "cases.json"
    path.write_text(json.dumps(cases))
    assert main(["duality", "--cases", str(path)]) == 0
    capsys.readouterr()


def test_cmd_duality_tabulated_symbol_and_step_csv_vector(tmp_path, capsys):
    # a symbol read from sample files and a vector read as a step function;
    # at c = 1/2 the vector is refined, where the step style changes the result
    fcheck = grid.sample_symbol(grid.GaussianSymbol(), 6, -4.0, 4.0)
    f = grid.fourier(fcheck)
    xi = grid.indicator(6, 0, 1)
    for name, samples in (("f", f), ("fcheck", fcheck), ("xi", xi)):
        grid.export_csv(samples, tmp_path / f"{name}.csv")
    case = {"f": {"kind": "tabulated", "f_csv": str(tmp_path / "f.csv"),
                  "fcheck_csv": str(tmp_path / "fcheck.csv")},
            "d": "0", "c": "1/2",
            "xi": {"kind": "csv", "path": str(tmp_path / "xi.csv"), "style": "step"},
            "xi1": {"kind": "gaussian", "center": 0.25, "width": 0.75}, "tol": 1e-2}
    path, out = tmp_path / "cases.json", tmp_path / "report.json"
    path.write_text(json.dumps([case]))
    assert main(["duality", "--cases", str(path), "--format", "json", "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())["cases"][0]
    assert report["case"]["f"]["kind"] == "tabulated"
    xi1 = cli.build_vector(case["xi1"], RunConfig())
    symbol = grid.TabulatedFourierPair(f, fcheck)
    want = equivalence_residual(symbol, 0, PowerOfTwo(-1), xi1, xi)
    smooth = equivalence_residual(symbol, 0, PowerOfTwo(-1), xi1, grid.GridFunction(
        xi.spacing_exp, xi.start_index, xi.samples, "smooth"))
    assert report["residual"] == want != smooth


_CASE = {"f": {"kind": "bump"}, "d": "0", "c": "1", "xi": {"kind": "gaussian"}}


@pytest.mark.parametrize("cases,message", [
    ({}, "non-empty array"),
    ([], "non-empty array"),
    ([1], "case 0: expected an object"),
    ([_CASE, {k: v for k, v in _CASE.items() if k != "f"}], "case 1: missing key 'f'"),
    ([dict(_CASE, xi={"kind": "indicator", "lo": "0"})], "case 0: missing key 'hi'"),
])
def test_cmd_duality_malformed_case_file_exits_2(tmp_path, capsys, cases, message):
    # exit 1 means a tolerance failure: a malformed file is an input error
    path = tmp_path / "cases.json"
    path.write_text(json.dumps(cases))
    assert main(["duality", "--cases", str(path)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


_HOSTILE = {
    "radius-string": (dict(_CASE, f={"kind": "bump", "radius": "wide"}), 2,
                      "case 0: key 'radius'"),
    "width-bool": (dict(_CASE, xi={"kind": "gaussian", "width": True}), 2, "case 0: key 'width'"),
    # a tolerance not above 0 is an input error, as it is on --tol
    "tol-zero": (dict(_CASE, tol=0), 2, "case 0: key 'tol': tolerance must be positive"),
    "tol-negative": (dict(_CASE, tol=-1), 2, "case 0: key 'tol': tolerance must be positive"),
    "empty-indicator": (dict(_CASE, xi={"kind": "indicator", "lo": "1", "hi": "1/2"}), 2,
                        "case 0: key 'xi': the vector is zero"),
    "far-gaussian": (dict(_CASE, xi1={"kind": "gaussian", "center": 1e9}), 2,
                     "case 0: key 'xi1': the vector is zero"),
    # Gaussians whose support, cut from the window as floats, lies beyond it
    "huge-gaussian-center": (dict(_CASE, xi={"kind": "gaussian", "center": 1e308}), 2,
                             "case 0: key 'xi': the vector is zero"),
    "huge-negative-gaussian-center": (
        dict(_CASE, xi={"kind": "gaussian", "center": -1.7e308, "width": 1e300}), 2,
        "case 0: key 'xi': the vector is zero"),
    "fine-d": (dict(_CASE, d="1/2^100"), 3, "2^100 subclasses, over the budget"),
    # c = 2^12, 2^-12 and (d, c) = (1/2, 2^-8) run within the budget (see below)
    "dilation-up-16": (dict(_CASE, c="2^16"), 3, "refining to spacing 2^-22 needs"),
    "dilation-down-16": (dict(_CASE, c="1/2^16"), 3, "refining to spacing 2^-22 needs"),
    "half-d-dilation-up-12": (dict(_CASE, d="1/2", c="2^12"), 3, "MemoryBudgetExceeded"),
    "half-d-dilation-down-16": (dict(_CASE, d="1/2", c="1/2^16"), 3,
                                "refining to spacing 2^-22 needs"),
    # dilations whose quadrature step 2^-gs overflows or underflows a float
    **{f"dilation-up-{k}": (dict(_CASE, c=f"2^{k}"), 3, "MemoryBudgetExceeded")
       for k in (1020, 1030, 1100, 2100, 5000, 1000000000)},
    "huge-d": (dict(_CASE, d="1" + "0" * 400), 2, "case 0: key 'd': too large for a float"),
    # refused on bit counts before 2^1000000000 is built (tested in memory below)
    "huge-d-power": (dict(_CASE, d="1/2^-1000000000"), 2, "key 'd': too large for a float"),
    "tiny-d": (dict(_CASE, d="1/2^1000000000"), 3, "2^1000000000 is over the budget of 2^8192"),
    "fine-d-2000": (dict(_CASE, d="1/2^2000"), 3, "2^2000 subclasses, over the budget"),
    # the probe of f near d reads a tabulated f without refining it to d's level
    # (2^24 points here), so the subclass budget refuses the case first
    "fine-d-tabulated": (dict(_CASE, d="1/2^20", f={"kind": "tabulated", "f_csv": "gauss.csv",
                                                    "fcheck_csv": "gauss_check.csv"}),
                         3, "2^20 subclasses, over the budget"),
    # a translated leg beyond int64, whose transform band is over the budget
    **{f"far-d-{k}": (dict(_CASE, f={"kind": "bump", "radius": 1}, d=f"1/2^-{k}",
                           xi={"kind": "gaussian", "center": 0.25, "width": 0.5}),
                      3, "MemoryBudgetExceeded") for k in (60, 1000)},
    # f near d = 2^1022 overflows a float: sinc(2 r x) at r = 1 is nan
    **{f"d-near-max-float-{k}": (dict(_CASE, f={"kind": "bump", "radius": 1}, d=f"1/2^-{k}"),
                                 2, "case 0: key 'd': the symbol f is not finite")
       for k in (1022, 1023)},
    # the correlation's phase t d / c overflows a float
    **{f"far-d-phase-{k}": (dict(_CASE, f={"kind": "bump", "radius": 1}, d=f"1/2^-{k}",
                                 xi={"kind": "gaussian", "center": 0.25, "width": 0.5}),
                            2, "the correlation phase 2 pi t d / c overflows a float")
       for k in (1020, 1021)},
    # f's band, the support of fcheck, needs more quadrature nodes than the budget
    # allows; at width 1e-320 its radius overflows to inf
    "wide-band": (dict(_CASE, f={"kind": "gaussian", "width": 1e-7}), 3,
                  "the correlation needs over 2^31 points"),
    "infinite-band": (dict(_CASE, f={"kind": "gaussian", "width": 1e-320}), 3,
                      "the correlation needs over 2^1028 points"),
    "far-indicator": (dict(_CASE, xi={"kind": "indicator", "lo": "0", "hi": "1/2^-40"}), 3,
                      "an indicator at spacing 2^-6 needs"),
    "far-csv": (dict(_CASE, xi={"kind": "csv", "path": "far.csv"}), 3,
                "a CSV grid function at spacing 2^-10 needs"),
    "far-tabulated": (dict(_CASE, f={"kind": "tabulated", "f_csv": "far.csv",
                                     "fcheck_csv": "far.csv"}), 3, "a CSV grid function"),
    # a nan sample, refused by the reader before it reaches a transform
    "nan-csv": (dict(_CASE, xi={"kind": "csv", "path": "nan.csv"}), 2,
                "case 0: nan.csv, row 3: x, re and im must be finite numbers"),
    "nan-tabulated": (dict(_CASE, f={"kind": "tabulated", "f_csv": "nan.csv",
                                     "fcheck_csv": "nan.csv"}), 2, "nan.csv, row 3"),
    # an empty file and a non-numeric cell, refused by name and row
    "empty-csv": (dict(_CASE, xi={"kind": "csv", "path": "empty.csv"}), 2,
                  "case 0: empty.csv, row 1: expected the header x,re,im"),
    "text-csv": (dict(_CASE, xi={"kind": "csv", "path": "text.csv"}), 2,
                 "case 0: text.csv, row 3: x, re and im must be finite numbers"),
    "text-tabulated": (dict(_CASE, f={"kind": "tabulated", "f_csv": "good.csv",
                                      "fcheck_csv": "text.csv"}), 2, "text.csv, row 3"),
    # an indicator at spacing 2^-21 needs a 2^25-point transform over the whole period,
    # refused before the correlation spans fcheck's support at that spacing
    "fine-indicator": (dict(_CASE, xi={"kind": "indicator", "lo": "0", "hi": "1/2^21"}), 3,
                       "a Fourier transform over the whole period needs 33554432 points"),
}


def _limit_address_space():
    # a refusal that came too late shows as a MemoryError, not as a host out of memory
    resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))


@pytest.mark.parametrize("name", sorted(_HOSTILE))
def test_hostile_case_file_exits_fast(tmp_path, name):
    # a value that used to crash (exit 1, the tolerance-failure code), hang or
    # exhaust memory is an input error (2) or a refused budget (3)
    case, code, message = _HOSTILE[name]
    path = tmp_path / "cases.json"
    path.write_text(json.dumps([case]))
    # three samples spanning 2^40 points of spacing 2^-10
    (tmp_path / "far.csv").write_text(f"x,re,im\n0,1,0\n{2.0 ** -10!r},1,0\n{2.0 ** 30!r},1,0\n")
    (tmp_path / "nan.csv").write_text("x,re,im\n0,1,0\n0.5,nan,0\n")
    (tmp_path / "good.csv").write_text("x,re,im\n0,1,0\n0.5,1,0\n")
    (tmp_path / "empty.csv").write_text("")
    (tmp_path / "text.csv").write_text("x,re,im\n0,1,0\n0.5,one,0\n")
    fcheck = grid.sample_symbol(grid.GaussianSymbol(), 6, -4.0, 4.0)
    grid.export_csv(grid.fourier(fcheck), tmp_path / "gauss.csv")
    grid.export_csv(fcheck, tmp_path / "gauss_check.csv")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    with open(tmp_path / "err.txt", "w+") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "qadic.cli", "duality", "--cases", str(path)],
            stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=tmp_path,
            preexec_fn=_limit_address_space)
        timer = threading.Timer(10.0, proc.kill)  # a hang fails below instead of blocking
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    assert proc.returncode == code, stderr
    assert message in stderr and "Traceback" not in stderr
    assert len(stderr) < 200  # numbers past 64 bits are written 2^k
    # CPU seconds of the whole process, start-up included: unlike wall time,
    # they do not grow when other processes share the host
    assert usage.ru_utime + usage.ru_stime < 1.0
    assert usage.ru_maxrss < 200 << 10  # kilobytes


def test_coarse_dilation_passes_once_resolved():
    # c = 2^12 fits the budget: the refinement of xi1 to 2^-18 holds 2^21 samples.
    # rep_apply multiplies f on a grid that resolves f's band, so the standard side
    # reads 0.0160678043, the normalized coefficient a 2M-point quadrature of the
    # closed form gives
    for c in ("2^8", "2^10", "2^12"):
        report = run_duality_cases([dict(_CASE, c=c)], RunConfig())
        assert report["pass"] and report["cases"][0]["residual"] < 1e-12, c
    xi = cli.build_vector(_CASE["xi"], RunConfig())
    standard = grid.inner(xi, grid.fourier(grid.rep_apply(
        grid.BumpSymbol(), 0, PowerOfTwo(12), grid.fourier_inv(xi))))
    assert abs(standard / grid.inner(xi, xi) - 0.0160678043) < 1e-10


@pytest.mark.parametrize("g,d", [(6, d) for d in (64, 128, 256, 384, 768, 513, 1023)]
                         + [(10, d) for d in (1023, 1024, 2048, 4096)])
def test_far_translation_is_not_aliased(g, d):
    # quadrature nodes 2^-g apart read e(s d) as e(s (d mod 2^g)): unrefined, these
    # cases read 0.8625 (d = 0 mod 2^g) or 0.1917 (d = 1 or -1 mod 2^g)
    report = run_duality_cases([dict(default_cases()[1], d=str(d))], RunConfig(grid_exp=g))
    assert report["pass"] and report["cases"][0]["residual"] < 1e-12


def test_flat_gaussian_is_sampled_on_the_whole_window(monkeypatch):
    # width 1e308 overflows the support's radius to inf; the case reads the
    # same residual as when every Gaussian samples the whole window
    case = dict(_CASE, xi={"kind": "gaussian", "width": 1e308})
    report = run_duality_cases([case], RunConfig(grid_exp=8))
    monkeypatch.delattr(grid.GaussianSymbol, "f_support")
    reference = run_duality_cases([case], RunConfig(grid_exp=8))
    assert report["pass"]
    assert report["cases"][0]["residual"] == reference["cases"][0]["residual"]


def test_refusal_of_the_pairing_comes_before_the_correlation(monkeypatch):
    # c = 2^16 would refine xi1 past the budget when paired; the correlation is never run
    def refuse(*args):
        raise AssertionError("the correlation ran")

    monkeypatch.setattr(bimodule, "left_action", refuse)
    with pytest.raises(MemoryBudgetExceeded, match="refining to spacing 2"):
        run_duality_cases([dict(_CASE, c="2^16")], RunConfig())


@pytest.mark.parametrize("text, error", [("1/2^-1000000000", ValueError),
                                         ("1/2^1000000000", MemoryBudgetExceeded)])
def test_case_dyadic_refused_before_it_is_built(text, error):
    # 2^1000000000 alone is 125 MB, which the hostile test's 200 MB limit lets pass
    tracemalloc.start()
    try:
        with pytest.raises(error):
            parse_case_dyadic(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("argv", [
    ["wold", "--s0", "s", "--s1", "u s", "-N", str(2 * algebra.MAX_WINDOW)],
    ["matrix", "u s", "-N", str(2 * algebra.MAX_WINDOW)],
    ["duality", "-g", "12", "-N", str(grid.MAX_PLAIN_FFT >> 12)],
])
def test_window_budgets_exit_fast(argv, capsys):
    # refused before any table, matrix or sample array is built
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 1.0
    assert "MemoryBudgetExceeded" in capsys.readouterr().err


def test_report_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["duality", "--format", "json", "--out", str(out1)])
    main(["duality", "--format", "json", "--out", str(out2)])
    capsys.readouterr()
    r1, r2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    r1.pop("generated_at")
    r2.pop("generated_at")
    assert r1 == r2


def test_duality_never_builds_the_algebra_valued_inner_product(tmp_path, capsys, monkeypatch):
    # the report reads one matrix entry per case from the b = 0 pairing; the whole
    # A-valued inner product is the slow route, so calling it fails the command
    def refuse(*args):
        raise AssertionError("the duality path built the A-valued inner product")

    monkeypatch.setattr(bimodule, "algebra_inner", refuse)
    out = tmp_path / "g4.json"
    assert main(["duality", "-g", "4", "--format", "json", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["pass"]


def test_reused_parser_keeps_no_state(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_PARSER", None)
    assert main(["duality"]) == 0
    fresh = capsys.readouterr().out
    out = tmp_path / "g8.json"
    assert main(["duality", "--format", "json", "-g", "8", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["grid"]["g"] == 8
    args = cli._PARSER.parse_args(["duality"])
    assert (args.grid_exp, args.format, args.out) == (6, "text", None)
    assert main(["duality"]) == 0
    again = capsys.readouterr().out
    assert again == fresh and again.endswith("all cases pass\n")
    assert main(["apply", "u", "--basis", "5"]) == 0
    assert main(["apply", "u"]) == 0
    assert capsys.readouterr().out.split() == ["6:", "1", "1:", "1"]


def test_parser_built_once_per_process(monkeypatch, capsys):
    calls = 0
    build = cli._build_arg_parser

    def counted():
        nonlocal calls
        calls += 1
        return build()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "_build_arg_parser", counted)
    assert main(["normalize", "u"]) == 0
    assert main(["eq", "s u", "u^2 s"]) == 0
    assert main(["apply", "u", "--basis", "2"]) == 0
    capsys.readouterr()
    assert calls == 1


def test_default_cases_cover_spec_grid():
    cases = default_cases()
    pairs = [(c["d"], c["c"]) for c in cases]
    assert pairs == [("0", "1"), ("1", "1"), ("1/2", "2"), ("3/2", "1/2"), ("0", "2")]
    assert {c["xi"]["kind"] for c in cases} == {"gaussian"}
