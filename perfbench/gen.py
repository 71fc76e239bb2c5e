"""Seeded input generators for the four benchmark workloads.

The inputs are a pure function of (workload, seed): they are drawn from a
``random.Random`` seeded with a string, so the same seed yields
byte-identical inputs (``canonical_bytes``).  Items are plain JSON data;
expressions for the exact layer are carried both as CLI text and as a small
syntax tree that the independent oracle in ``oracles.py`` evaluates.

Syntax tree nodes (JSON lists):

* ``["word", [tok, ...]]`` with tokens ``"u^k"`` (k != 0), ``"s"``, ``"s*"``;
  the product is read left to right, so the rightmost token acts first;
* ``["sum", [[coeff, node], ...]]`` with ``coeff`` a fraction string;
* ``["pow", node, k]``;
* ``["prod", [node, ...]]``.

Items come in rounds, the smallest block that holds a workload's intended
mix, and rounds in passes (``passes``).
"""

from __future__ import annotations

import itertools
import json
import random
from collections.abc import Iterator

from . import oracles

WORKLOADS = ("duality-g10", "duality-g6", "exact", "wold")

# The five default (d, c) pairs of `qadic duality`, all checked at 1e-3.
DUALITY_PAIRS = (("0", "1"), ("1", "1"), ("1/2", "2"), ("3/2", "1/2"), ("0", "2"))
DUALITY_TOL = 1e-3

# Rounds per pass.  A timed run makes passes until its time is up; a traced
# run makes one pass untraced and the same pass traced.
ROUNDS = {"duality-g10": 1, "duality-g6": 10, "exact": 3, "wold": 4}

WOLD_WINDOW = 256
MATRIX_WINDOW = 64


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"qadic-bench:{workload}:{seed}")


def passes(workload: str, seed: int) -> Iterator[list[dict]]:
    """The workload's endless sequence of passes for one seed.

    A pass is ROUNDS[workload] rounds; position i of every pass holds an
    item of the same kind and stratum, with fresh random parameters.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = rng_for(workload, seed)
    make = {"duality-g10": _duality_round, "duality-g6": _duality_round,
            "exact": _exact_round, "wold": _wold_round}[workload]
    while True:
        yield [item for _ in range(ROUNDS[workload]) for item in make(rng)]


def first_passes(workload: str, seed: int, count: int) -> list[list[dict]]:
    return list(itertools.islice(passes(workload, seed), count))


def canonical_bytes(data) -> bytes:
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


# -- duality ------------------------------------------------------------------


def _duality_round(rng: random.Random) -> list[dict]:
    items = []
    for d, c in DUALITY_PAIRS:
        case = {
            "f": {"kind": "bump", "center": rng.uniform(-0.5, 0.5),
                  "radius": rng.uniform(1.0, 2.0)},
            "d": d, "c": c,
            "xi": {"kind": "gaussian", "center": rng.uniform(-0.5, 0.5),
                   "width": rng.uniform(0.6, 1.2)},
            "xi1": {"kind": "gaussian", "center": rng.uniform(-0.5, 0.5),
                    "width": rng.uniform(0.6, 1.2)},
            "tol": DUALITY_TOL,
        }
        items.append({"kind": "duality", "case": case})
    return items


# -- wold -----------------------------------------------------------------------


def _wold_round(rng: random.Random) -> list[dict]:
    a = rng.randint(-8, 8)
    # a + b odd: the ranges of u^a s and u^b s partition Z (Cuntz condition)
    b = rng.choice([v for v in range(-8, 9) if (a + v) % 2])
    return [{"kind": "wold", "a": a, "b": b, "window": WOLD_WINDOW,
             "argv": ["wold", "--s0", render(_word_node(a, 1)),
                      "--s1", render(_word_node(b, 1)),
                      "-N", str(WOLD_WINDOW), "--format", "json"]}]


def _word_node(a: int, s_power: int) -> list:
    return ["word", ([f"u^{a}"] if a else []) + ["s"] * s_power]


# -- exact ------------------------------------------------------------------------


_COEFFS = ("1", "2", "3", "1/2", "5/4")


def _exact_round(rng: random.Random) -> list[dict]:
    items = [_normalize_item(_projection_sum(rng, level)) for level in (5, 6, 7)]
    for k in (3 + rng.randrange(2), 5 + rng.randrange(2)):
        base = ["sum", [[rng.choice(_COEFFS), _random_word(rng)]
                        for _ in range(rng.randint(3, 4))]]
        items.append(_normalize_item(["pow", base, k]))
    n, m = rng.randint(1000, 2000), rng.randint(1, 2000)
    items.append(_normalize_item(["word", [f"u^{n}", "s", f"u^{-m}"]]))
    # four query groups put the median latency inside the query cluster
    for _ in range(4):
        items.append(_eq_item(rng, equal=True))
        items.append(_eq_item(rng, equal=False))
        items.append(_query("expect", _random_sum(rng), ["--format", "json"]))
        basis = rng.randint(-20, 20)
        items.append(_query("apply", _random_sum(rng),
                            ["--basis", str(basis), "--format", "json"], basis=basis))
        items.append({"kind": "character", "points": _character_points(rng, 8)})
    items.append(_query("matrix", _random_sum(rng),
                        ["-N", str(MATRIX_WINDOW), "--format", "json"], window=MATRIX_WINDOW))
    return items


def _query(kind: str, expr: list, tail: list[str], **extra) -> dict:
    return {"kind": kind, "expr": expr, "argv": [kind, render(expr)] + tail, **extra}


def _normalize_item(expr: list) -> dict:
    return _query("normalize", expr, ["--format", "json"])


def _projection_sum(rng: random.Random, level: int) -> list:
    """All 2^level translates of the level-`level` projection, in seeded order.

    Coefficients are constant on seeded 2-adic blocks (residue classes mod
    2^k, k <= level), so sibling terms merge and the merges cascade up the
    dyadic tree when the sum is normalized.
    """
    coeff_of = {}

    def split(k, t):
        if k == level or (k >= 2 and rng.random() < 0.35):
            c = rng.choice(_COEFFS)
            for r in range(t, 1 << level, 1 << k):
                coeff_of[r] = c
            return
        split(k + 1, t)
        split(k + 1, t + (1 << k))

    split(0, 0)
    order = list(range(1 << level))
    rng.shuffle(order)
    return ["sum", [[coeff_of[r], ["word", ([f"u^{r}"] if r else [])
                                   + ["s"] * level + ["s*"] * level
                                   + ([f"u^{-r}"] if r else [])]]
                    for r in order]]


def _random_word(rng: random.Random) -> list:
    a, b = rng.randint(-3, 3), rng.randint(-3, 3)
    toks = ([f"u^{a}"] if a else []) + ["s"] * rng.randint(0, 2) \
        + ["s*"] * rng.randint(0, 2) + ([f"u^{b}"] if b else [])
    return ["word", toks]


def _random_sum(rng: random.Random) -> list:
    return ["sum", [[rng.choice(_COEFFS), _random_word(rng)]
                    for _ in range(rng.randint(2, 4))]]


# rewrites that preserve the operator: s u = u^2 s, its adjoint
# s* u^2 = u s*, and insertion of the partition of unity
_REWRITES = ((["s", "u^1"], ["u^1", "u^1", "s"]), (["s*", "u^1", "u^1"], ["u^1", "s*"]))
_HALVES = (["word", ["s", "s*"]], ["word", ["u^1", "s", "s*", "u^-1"]])
EQ_WINDOW = range(-64, 64)


def _eq_item(rng: random.Random, equal: bool) -> dict:
    lhs = None
    while lhs is None or not any(oracles.evaluate(lhs, {n: 1}) for n in EQ_WINDOW):
        # a word can be zero (s* u s = 0); draw until it is not
        toks = [rng.choice(("u^1", "u^-1", "s", "s*", "s", "u^1"))
                for _ in range(rng.randint(3, 6))]
        before, after = _REWRITES[rng.randrange(2)]
        i = rng.randrange(len(toks) + 1)
        lhs = ["word", toks[:i] + before + toks[i:]]
    rewritten = toks[:i] + after + toks[i:]
    cut = rng.randrange(len(rewritten) + 1)
    left, right = ["word", rewritten[:cut]], ["word", rewritten[cut:]]
    halves = list(_HALVES)
    rng.shuffle(halves)
    if equal:
        middle = ["sum", [["1", h] for h in halves]]
    else:
        # keep one half of the partition of unity; w1 P w2 + w1 P' w2 is the
        # nonzero word lhs, so one of the two choices changes the operator
        middle = next(["sum", [["1", h]]] for h in halves
                      if not oracles.agree_on(lhs, ["prod", [left, ["sum", [["1", h]]], right]],
                                              EQ_WINDOW))
    rhs = ["prod", [left, middle, right]]
    return {"kind": "eq", "lhs": lhs, "rhs": rhs, "expected_equal": equal,
            "argv": ["eq", render(lhs), render(rhs)]}


def _character_points(rng: random.Random, count: int) -> list[dict]:
    points = []
    for _ in range(count):
        shift = rng.randint(0, 8)
        k1, k2 = rng.randint(0, 12), rng.randint(0, 12)
        points.append({
            "r": rng.uniform(-4.0, 4.0),
            "unit": rng.getrandbits(64), "shift": shift,
            "b1": [rng.randrange(-(3 << k1), 3 << k1) | 1, k1],
            "b2": [rng.randrange(-(3 << k2), 3 << k2) | 1, k2],
        })
    return points


# -- rendering to CLI syntax -------------------------------------------------------


def render(node: list) -> str:
    kind = node[0]
    if kind == "word":
        return " ".join("u" if t == "u^1" else t for t in node[1]) or "1"
    if kind == "sum":
        parts = []
        for coeff, child in node[1]:
            body = render(child)
            if child[0] != "word":
                body = f"({body})"
            parts.append(body if coeff == "1" else
                          (coeff if body == "1" else f"{coeff} {body}"))
        return " + ".join(parts) if parts else "0"
    if kind == "pow":
        return f"({render(node[1])})^{node[2]}"
    if kind == "prod":
        return " ".join(f"({render(c)})" for c in node[1])
    raise ValueError(f"unknown node {kind!r}")
