"""qadic benchmark: run a workload in fresh child processes and report metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 25 --trace 0

``--workload all`` (the default) runs the four workloads one after another.
With ``--trace 0`` the end-to-end metrics are measured with tracing off
for ``--seconds`` of item time; with ``--trace 1`` a separate run makes one
fixed pass untraced and the same pass with the layers' public functions
wrapped, and reports per-layer metrics.  Human-readable lines come first;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every child ran.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.dont_write_bytecode = True      # leave the checkout as it was

from perfbench import gen, reference  # noqa: E402
from perfbench.reference import Reference  # noqa: E402

WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 5          # set-up is timed in this many fresh processes
CHILD_TIMEOUT_S = 170
P90_MIN_ITEMS = 100

END_TO_END = (("setup_s", "s"), ("items_per_s", "1/s"), ("item_s_p50", "s"),
              ("peak_rss_mb", "MB"))

# per-layer metrics, read from the traced child's totals
TIME_METRICS = ("grid.fourier", "grid.correlation", "grid.rep_apply", "grid.inner",
                "grid.sample", "bimodule.algebra_inner", "bimodule.left_action",
                "bimodule.induced_inner", "algebra.add", "algebra.mul",
                "algebra.normalize", "algebra.equals", "algebra.apply",
                "algebra.matrix_window", "algebra.expectation", "wold.build",
                "wold.apply_v_limit", "wold.build_vn", "wold.check", "cli.parse",
                "numbers.character", "numbers.dyadic", "numbers.solenoid")
SELF_METRICS = ("bimodule.residual", "cli.main")
COUNT_METRICS = ("grid.fourier_calls", "grid.fourier_out_samples", "grid.inner_calls",
                 "bimodule.inner_terms", "algebra.compose_calls",
                 "algebra.construct_terms_in", "algebra.construct_terms_out",
                 "wold.build_vn_calls", "cli.parse_calls", "numbers.character_calls")
LAYERS = ("numbers", "algebra", "wold", "grid", "bimodule", "cli")


def child_env() -> dict:
    env = dict(os.environ)
    # A fixed mmap threshold stops glibc from raising it after the first
    # large free, so freed FFT buffers go back to the system and peak RSS
    # follows the live arrays instead of the allocator's history.
    env.update({"MALLOC_MMAP_THRESHOLD_": "131072",
                "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
                "PYTHONDONTWRITEBYTECODE": "1", "OMP_NUM_THREADS": "1",
                "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
                "NUMEXPR_NUM_THREADS": "1"})
    return env


class ChildFailed(RuntimeError):
    pass


def run_child(args, name: str, workdir: Path, setup_only: bool) -> tuple[float, dict | None]:
    """Start one child; return (set-up seconds, parsed result or None)."""
    cmd = [sys.executable, "-m", "perfbench.child", "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir),
           "--spans", str(WORK / f"spans-{name}-seed{args.seed}.jsonl")]
    if setup_only:
        cmd.append("--setup-only")
    workdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{name}: child exceeded {CHILD_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if first.strip() != "READY" or proc.returncode != 0:
        raise ChildFailed(f"{name}: child failed (exit {proc.returncode})\n{first}{out}{err}")
    if setup_only:
        return setup, None
    raw = out.strip().splitlines()[-1]
    (WORK / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(raw)
    return setup, json.loads(raw)


def machine_line(numpy_version: str) -> str:
    return (f"machine: {platform.machine()} {platform.processor() or platform.platform()}; "
            f"nproc {os.cpu_count()}; python {platform.python_version()}; "
            f"numpy {numpy_version}")


def end_to_end(args, name: str, base: Path) -> tuple[dict, dict, list[str]]:
    ref = Reference()
    setups = []
    for i in range(SETUP_SAMPLES):
        speed = (ref.measure() + ref.measure()) / 2
        setup, res = run_child(args, name, base / f"setup{i}", i < SETUP_SAMPLES - 1)
        setups.append(reference.scale(setup, speed))
    raw, scaled = res["latencies"], res["scaled"]
    n = len(scaled)
    values = {
        "setup_s": statistics.median(setups),
        "items_per_s": n / sum(scaled),
        "item_s_p50": statistics.median(scaled),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
    p90 = statistics.quantiles(scaled, n=10)[-1] if n >= P90_MIN_ITEMS else None
    refs = res["references"]
    lines = [machine_line(res["numpy"]),
             f"{name}: {n} timed items, {sum(raw):.3f} s of item time "
             f"(closed loop, one client, one item at a time); {res['attempted']} item runs "
             f"checked, warm-up included",
             f"  unscaled: {n / sum(raw):.6g} items/s, median {statistics.median(raw):.6g} s; "
             f"reference task median {statistics.median(refs):.6g} s over {len(refs)} runs "
             f"(times below are scaled to {reference.NOMINAL_S} s)"]
    for key, unit in END_TO_END:
        lines.append(f"  {key:<16} {values[key]:.6g} {unit}"
                     + (f"  (median of {SETUP_SAMPLES} fresh processes)" if key == "setup_s"
                        else f"  (n={n})" if key == "item_s_p50" else ""))
    lines.append(f"  {'item_s_p90':<16} " + (f"{p90:.6g} s  (n={n})" if p90 is not None
                 else f"not reported: {n} items < {P90_MIN_ITEMS}"))
    digits = res["accuracy_digits"]
    lines.append(f"  {'accuracy_digits':<16} " + (f"{digits:.4g} decades  (min over items of "
                 "log10(tol/residual))" if digits is not None else "not applicable"))
    lines.append(f"  {'error_rate':<16} {res['failed'] / res['attempted']:.6g} ratio  "
                 f"({res['failed']}/{res['attempted']})")
    lines += [f"  failure: {f}" for f in res["failures"]]
    return metrics, res, lines


def traced(args, name: str, base: Path) -> tuple[dict, dict, list[str]]:
    _setup, res = run_child(args, name, base / "run", False)
    values = {}
    for stem in TIME_METRICS:
        if stem in res["time_s"]:
            values[f"{stem}_s"] = res["time_s"][stem]
    for stem in SELF_METRICS:
        if stem in res["self_s"]:
            values[f"{stem}_self_s"] = res["self_s"][stem]
    for key in COUNT_METRICS:
        if key in res["counts"]:
            values[key] = res["counts"][key]
    for layer in LAYERS:
        values[f"self.{layer}_s"] = res["layer_self_s"][layer]
    wall = res["traced_wall_s"]
    values["self.unattributed_s"] = wall - res["top_level_s"]
    values["trace.wall_s"] = wall
    values["trace.untraced_wall_s"] = res["untraced_wall_s"]
    values["trace.overhead_s"] = wall - res["untraced_wall_s"]
    metrics = {k: {"value": v, "unit": "count" if k in COUNT_METRICS else "s"}
               for k, v in values.items()}
    lines = [machine_line(res["numpy"]),
             f"{name} traced: {res['items']} items in one pass, {res['spans']} spans written "
             f"to .bench_work/spans-{name}-seed{args.seed}.jsonl; layer self times + "
             f"unattributed = {sum(res['layer_self_s'].values()) + values['self.unattributed_s']:.6f}"
             f" s, traced wall {wall:.6f} s"]
    lines += [f"  {k:<30} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
    if res["absent"]:
        lines.append(f"  absent (name not found, metrics left out): {', '.join(res['absent'])}")
    lines += [f"  failure: {f}" for f in res["failures"]]
    return metrics, res, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=gen.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qadic" / "cli.py").is_file():
        print(f"error: no qadic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    combined, correct, attempted, failed = {}, True, 0, 0
    for name in names:
        base = WORK / f"{name}-seed{args.seed}-pid{os.getpid()}"
        try:
            metrics, res, lines = (traced if args.trace else end_to_end)(args, name, base)
        except ChildFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(base, ignore_errors=True)
        print("\n".join(lines), flush=True)
        prefix = f"{name}." if len(names) > 1 else ""
        combined.update({prefix + k: v for k, v in metrics.items()})
        attempted += res["attempted"]
        failed += res["failed"]
        correct &= res["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
