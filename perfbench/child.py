"""One workload in one fresh process: set up, run items one at a time, check.

Run by ``run.py`` as ``python -m perfbench.child``.  The process imports
``qadic.cli``, generates its inputs, prints ``READY`` (the parent times set-up
up to that line) and then drives ``qadic.cli.main(argv)`` in-process, one
item at a time, each writing its output with ``--out``.  Only the call is
timed; reading and checking the output happens after the clock stops.  The
last line of standard output is a JSON object with the raw measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy
import qadic.cli as cli
from qadic import numbers

from . import gen, oracles, reference
from .reference import Reference
from .spans import Tracer

MAX_REPORTED_FAILURES = 5
REF_EVERY_S = 0.5


class Runner:
    """Runs and checks items; every item run counts in attempted/failed."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.out_path = str(workdir / "out.txt")
        self.attempted = 0
        self.failures: list[str] = []
        self.digits: list[float] = []
        self._passes = gen.passes(workload, seed)
        self._made = 0
        self.warm_items = self.next_pass()   # generated during set-up

    def next_pass(self) -> list[dict]:
        """The next pass of fresh items, with duality case files written."""
        items = next(self._passes)
        for item in items:
            if item["kind"] == "duality":
                path = self.workdir / f"case-{self._made}.json"
                self._made += 1
                path.write_text(json.dumps([item["case"]]))
                item["argv"] = ["duality", "--cases", str(path), "-g",
                                self.workload.rsplit("-g", 1)[1], "--format", "json"]
        return items

    def run(self, item: dict, tracer: Tracer | None = None) -> float:
        """Run one item, check it, and return its latency in seconds."""
        self.attempted += 1
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.out_path)
        err = io.StringIO()
        code, result = None, None
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            if tracer is not None:
                tracer.enabled = True
            start = time.perf_counter()
            try:
                if item["kind"] == "character":
                    result = _character_item(item)
                else:
                    code = cli.main(item["argv"] + ["--out", self.out_path])
            except SystemExit as exc:
                code = exc.code
            except Exception:  # noqa: BLE001 - any crash is a failed item
                code = traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.enabled = False
        try:
            errors = self._check(item, code, result, err.getvalue())
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            errors = [f"{item['kind']}: unreadable output: {exc!r}"]
        if errors:
            self.failures.append("; ".join(errors))
        return elapsed

    def _check(self, item: dict, code, result, stderr: str) -> list[str]:
        kind = item["kind"]
        if kind == "character":
            return oracles.check_character(item, result)
        if kind != "eq" and code != 0:
            return [f"{kind}: exit {code!r}; stderr: {stderr.strip()[:200]}"]
        text = Path(self.out_path).read_text()
        if kind == "eq":
            return oracles.check_eq(item, text, code)
        payload = json.loads(text)
        if kind == "duality":
            case = payload["cases"][0]
            if case["residual"] > 0:
                self.digits.append(math.log10(item["case"]["tol"] / case["residual"]))
            return oracles.check_duality(item, payload)
        if kind == "matrix":
            return oracles.check_matrix(item, payload, stderr)
        return {"normalize": oracles.check_normalize, "expect": oracles.check_expect,
                "apply": oracles.check_apply, "wold": oracles.check_wold}[kind](item, payload)


def _character_item(item: dict) -> list[dict]:
    """Library calls: canonical solenoid points and their characters."""
    out = []
    for spec in item["points"]:
        x = numbers.PadicNumber(numbers.PadicInt(spec["unit"], 64), spec["shift"])
        point = numbers.solenoid_canonical(spec["r"], x)
        bs = [numbers.dyadic(*spec["b1"]), numbers.dyadic(*spec["b2"])]
        bs.append(bs[0] + bs[1])
        z = numbers.as_padic(point.z)
        angles = [numbers.character(z * b).angle for b in bs]
        values = [numbers.solenoid_character(point, b) for b in bs]
        out.append({"r": point.r, "z_residue": point.z.residue,
                    "z_precision": point.z.precision,
                    "angles": [(a.numerator, 1 << a.exponent) for a in angles],
                    "values": [(v.real, v.imag) for v in values]})
    return out


def warm_up(runner: Runner) -> None:
    """One item of each kind from a pass of its own, so lazy set-up is not timed."""
    seen = set()
    for item in runner.warm_items:
        if item["kind"] not in seen:
            seen.add(item["kind"])
            runner.run(item)


def timed_run(runner: Runner, seconds: float) -> dict:
    """Warm up, then run passes of fresh items until `seconds` of item time.

    Items never repeat, so nothing the program caches between calls is
    reused.  The reference task runs after every REF_EVERY_S of item time;
    each latency is scaled by the mean of the reference times just before
    and just after it.
    """
    warm_up(runner)
    ref = Reference()
    refs = [ref.measure()]
    raw: list[float] = []
    before: list[int] = []          # references measured before each item
    since = 0.0
    while sum(raw) < seconds:
        for item in runner.next_pass():
            raw.append(runner.run(item))
            before.append(len(refs))
            since += raw[-1]
            if since >= REF_EVERY_S:
                refs.append(ref.measure())
                since = 0.0
    refs.append(ref.measure())
    scaled = [reference.scale(t, (refs[k - 1] + refs[k]) / 2) for t, k in zip(raw, before)]
    return {"latencies": raw, "scaled": scaled, "references": refs}


def trace_run(runner: Runner, spans_path: Path) -> dict:
    """One pass untraced, then the same pass traced: the counts repeat exactly
    for a seed, and the wall-time difference is the tracing overhead."""
    warm_up(runner)
    items = runner.next_pass()
    gc.collect()
    untraced = sum(runner.run(item) for item in items)
    tracer = Tracer()
    tracer.install()
    gc.collect()
    try:
        traced = 0.0
        for i, item in enumerate(items):
            tracer.item_id = i
            traced += runner.run(item, tracer)
    finally:
        tracer.restore()
    tracer.write_spans(spans_path)
    return {"untraced_wall_s": untraced, "traced_wall_s": traced, "items": len(items),
            "time_s": tracer.time_s, "self_s": tracer.self_s, "counts": tracer.counts,
            "layer_self_s": tracer.layer_self_s, "top_level_s": tracer.top_level_s,
            "absent": tracer.absent, "spans": len(tracer.spans)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", help="where a traced run writes its spans (JSON lines)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    runner = Runner(args.workload, args.seed, Path(args.workdir))
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        result = trace_run(runner, Path(args.spans))
    else:
        result = timed_run(runner, args.seconds)
    result.update({
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:MAX_REPORTED_FAILURES],
        "accuracy_digits": min(runner.digits) if runner.digits else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": numpy.__version__,
        "qadic_path": str(Path(cli.__file__).resolve()),
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
