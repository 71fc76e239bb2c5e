"""Tests of the benchmark itself: generators, oracles, tracing, and a short run."""

from __future__ import annotations

import copy
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import qadic.algebra as algebra  # noqa: E402
import qadic.bimodule as bimodule  # noqa: E402
import qadic.cli as cli  # noqa: E402
import qadic.grid as grid  # noqa: E402

from perfbench import child, gen, oracles, spans  # noqa: E402


@pytest.fixture
def runner(tmp_path):
    return lambda workload, seed=11: child.Runner(workload, seed, tmp_path)


def _run_cli(item, tmp_path, extra=()):
    out = tmp_path / "out.txt"
    code = cli.main(item["argv"] + list(extra) + ["--out", str(out)])
    return code, out.read_text()


def _first(workload, kind, seed=11, pred=lambda item: True):
    return next(copy.deepcopy(item) for items in gen.first_passes(workload, seed, 3)
                for item in items if item["kind"] == kind and pred(item))


# -- generator ----------------------------------------------------------------------


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    a = gen.canonical_bytes(gen.first_passes(workload, 5, 2))
    assert a == gen.canonical_bytes(gen.first_passes(workload, 5, 2))
    assert a != gen.canonical_bytes(gen.first_passes(workload, 6, 2))


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_passes_repeat_the_strata_with_fresh_items(workload):
    first, second = gen.first_passes(workload, 5, 2)
    assert [i["kind"] for i in first] == [i["kind"] for i in second]
    assert first != second


def test_generated_eq_pairs_match_their_construction():
    for items in gen.first_passes("exact", 2, 1):
        for item in items:
            if item["kind"] == "eq":
                assert oracles.agree_on(item["lhs"], item["rhs"], gen.EQ_WINDOW) \
                    == item["expected_equal"]


# -- oracles reject corrupted outputs ---------------------------------------------------


def test_normalize_oracle(tmp_path):
    item = _first("exact", "normalize", pred=lambda i: len(i["expr"][1]) == 32)
    code, text = _run_cli(item, tmp_path)
    payload = json.loads(text)
    assert code == 0 and oracles.check_normalize(item, payload) == []
    bad = copy.deepcopy(payload)
    bad["terms"][0]["re"] += 1
    assert oracles.check_normalize(item, bad)
    bad = copy.deepcopy(payload)
    bad["terms"][0]["m0"] += 1
    assert oracles.check_normalize(item, bad)


def test_power_and_shift_oracle(tmp_path):
    for pred in (lambda i: i["expr"][0] == "pow", lambda i: len(i["expr"][1]) == 3):
        item = _first("exact", "normalize", pred=pred)
        code, text = _run_cli(item, tmp_path)
        payload = json.loads(text)
        assert code == 0 and oracles.check_normalize(item, payload) == []
        payload["terms"].pop()
        assert oracles.check_normalize(item, payload)


@pytest.mark.parametrize("expected", [True, False])
def test_eq_oracle(tmp_path, expected):
    item = _first("exact", "eq", pred=lambda i: i["expected_equal"] == expected)
    code, text = _run_cli(item, tmp_path)
    assert oracles.check_eq(item, text, code) == []
    flipped = "not equal" if expected else "equal"
    assert oracles.check_eq(item, flipped, 1 - code)


def test_expect_apply_matrix_oracles(tmp_path):
    item = _first("exact", "expect", pred=lambda i: any(
        oracles.is_diagonal_word(w[1], oracles.NORMALIZE_WINDOW) for _c, w in i["expr"][1]))
    payload = json.loads(_run_cli(item, tmp_path)[1])
    assert oracles.check_expect(item, payload) == []
    payload["terms"][0]["re"] *= 2
    assert oracles.check_expect(item, payload)

    item = _first("exact", "apply")
    payload = json.loads(_run_cli(item, tmp_path)[1])
    assert oracles.check_apply(item, payload) == []
    assert oracles.check_apply(item, payload + [{"n": 10**6, "re": 1.0, "im": 0.0}])

    item = _first("exact", "matrix")
    err_path = tmp_path / "err.txt"
    with open(err_path, "w") as err, pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "stderr", err)
        code, text = _run_cli(item, tmp_path)
    payload, stderr = json.loads(text), err_path.read_text()
    assert code == 0 and oracles.check_matrix(item, payload, stderr) == []
    bad = copy.deepcopy(payload)
    bad["entries"][0]["im"] = 0.5
    assert oracles.check_matrix(item, bad, stderr)
    bad = dict(payload, boundary_loss=not payload["boundary_loss"])
    assert oracles.check_matrix(item, bad, stderr)


def test_wold_oracle(tmp_path):
    item = _first("wold", "wold")
    item["window"] = 16
    item["argv"][item["argv"].index("-N") + 1] = "16"
    payload = json.loads(_run_cli(item, tmp_path)[1])
    assert oracles.check_wold(item, payload) == []
    bad = copy.deepcopy(payload)
    row = next(r for r in bad["table"] if r["n"] == 2 + item["a"])
    row["image"] += 1
    assert oracles.check_wold(item, bad)
    bad = copy.deepcopy(payload)
    bad["checks"]["US0=S1"] = False
    assert oracles.check_wold(item, bad)


def test_duality_oracle(runner):
    r = runner("duality-g6")
    item = r.warm_items[2]
    code = cli.main(item["argv"] + ["--out", r.out_path])
    report = json.loads(Path(r.out_path).read_text())
    assert code == 0 and oracles.check_duality(item, report) == []
    bad = copy.deepcopy(report)
    bad["cases"][0]["residual"] = 2 * item["case"]["tol"]
    assert oracles.check_duality(item, bad)
    bad = copy.deepcopy(report)
    bad["cases"][0]["pass"] = False
    assert oracles.check_duality(item, bad)


def test_character_oracle():
    item = _first("exact", "character")
    results = child._character_item(item)
    assert oracles.check_character(item, results) == []
    bad = copy.deepcopy(results)
    num, den = bad[0]["angles"][2]
    bad[0]["angles"][2] = (num + 2, den) if den > 2 else (num, 2 * den)
    assert oracles.check_character(item, bad)
    bad = copy.deepcopy(results)
    bad[0]["values"][0] = (-bad[0]["values"][0][0], bad[0]["values"][0][1])
    assert oracles.check_character(item, bad)
    bad = copy.deepcopy(results)
    bad[0]["z_residue"] += 1
    assert oracles.check_character(item, bad)


def test_runner_counts_a_failed_item(runner):
    r = runner("duality-g6")
    item = dict(r.warm_items[0], argv=r.warm_items[0]["argv"] + ["--tol", "1e-30"])
    r.run(item)
    assert r.attempted == 1 and len(r.failures) == 1


# -- tracing ------------------------------------------------------------------------------


def test_tracer_rebinds_imported_names_and_restores_them():
    originals = {
        (bimodule, "compose"): bimodule.compose,
        (bimodule, "inner"): bimodule.inner,
        (bimodule, "twisted_correlation"): bimodule.twisted_correlation,
        (cli, "equivalence_residual"): cli.equivalence_residual,
        (grid, "fourier"): grid.fourier,
        (algebra.Element, "__add__"): algebra.Element.__dict__["__add__"],
    }
    tracer = spans.Tracer(spans.PROBES + (spans.Probe("grid.gone", "grid", "no_such", "span"),))
    tracer.install()
    try:
        for (owner, name), original in originals.items():
            current = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            assert current is not original, name
        assert bimodule.compose is algebra.compose
        assert tracer.absent == ["no_such"]
    finally:
        tracer.restore()
    for (owner, name), original in originals.items():
        current = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        assert current is original, name


def test_trace_counts_repeat_and_self_times_add_up(runner, tmp_path, monkeypatch):
    monkeypatch.setitem(gen.ROUNDS, "duality-g6", 2)
    results = [child.trace_run(runner("duality-g6"), tmp_path / f"spans{i}.jsonl")
               for i in range(2)]
    assert results[0]["counts"] == results[1]["counts"]
    assert results[0]["counts"]["grid.fourier_calls"] == 2 * 10
    for res in results:
        total = sum(res["layer_self_s"].values()) + res["traced_wall_s"] - res["top_level_s"]
        assert total == pytest.approx(res["traced_wall_s"], rel=1e-9)
    lines = (tmp_path / "spans0.jsonl").read_text().splitlines()
    assert len(lines) == results[0]["spans"]
    assert {json.loads(line)["name"] for line in lines} >= {"cli.main", "grid.fourier"}


# -- whole runs ----------------------------------------------------------------------------


def _snapshot(root: Path) -> dict[str, str]:
    skip = {".git", ".bench_work", "__pycache__", ".pytest_cache"}
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in skip]
        for name in filenames:
            path = Path(dirpath) / name
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_run_leaves_the_worktree_unchanged():
    before = _snapshot(ROOT)
    proc = _bench(ROOT, "--workload", "duality-g6", "--seed", "3", "--seconds", "0.3")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {"setup_s", "items_per_s", "item_s_p50", "peak_rss_mb"}
    assert _snapshot(ROOT) == before


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench(tmp_path, "--workload", "wold", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
