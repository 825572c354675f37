"""Self-tests of the benchmark: tiny runs of each workload and its gate.

    python3 -m pytest -q bench/test_bench.py
"""

import argparse
import dataclasses
import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracer  # noqa: E402

bench.import_program()

from ddvv import cli, curvature, extremizer, fuzz  # noqa: E402
from workloads import KNOWN_DEFECTS, CheckMix, FuzzOracle, SearchAscent  # noqa: E402

TINY_SEARCH = ((3, 3, 4), (4, 3, 2))
TINY_FUZZ = ((3, 3, 4), (4, 4, 2))


def tiny(name, tmp_path, seed=7):
    if name == "check-mix":
        return CheckMix(seed, tmp_path / "work", pool_size=200)
    if name == "search-ascent":
        return SearchAscent(seed, tmp_path / "work", plan=TINY_SEARCH)
    return FuzzOracle(seed, tmp_path / "work", plan=TINY_FUZZ, pool_rounds=2)


def flat(cycles):
    return [r for cycle in cycles for r in cycle]


@pytest.mark.parametrize("name", ["check-mix", "search-ascent", "fuzz-oracle"])
def test_workload_runs_at_tiny_size(name, tmp_path):
    wl = tiny(name, tmp_path)
    cycles = bench.timed_run(wl, 0.05)
    correct, attempted, failed = bench.verdict(flat(cycles))
    metrics, named = bench.end_to_end(wl, cycles, setup=(0.1, 0.2))
    assert correct and attempted >= 1
    assert all(r.pace > 0 for r in flat(cycles))
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())
    assert named["cycles"] == len(cycles) and named["raw_setup_s"] == 0.2


def test_check_mix_fails_only_on_known_defects(tmp_path):
    # seed 11 holds an umbilic point on which `check` raises today
    wl = CheckMix(11, tmp_path / "work")
    kinds = {p[0] for p in wl.points}
    assert {"nan", "overflow", "asymmetric", "wrong-shape", "cdk", "umbilic",
            "umbilic-residue", "s3-equality", "eq51", "random"} <= kinds
    rounds = [wl.round(k) for k in range(len(wl.points))]
    failures = {kind for r in rounds for kind in r.failures}
    assert failures == KNOWN_DEFECTS
    assert bench.verdict(rounds)[0]


def test_gate_counts_raise_on_small_umbilic_point(tmp_path, monkeypatch):
    """Only umbilic points with a trace residue above 1e-12 may raise."""
    wl = tiny("check-mix", tmp_path)
    k = next(i for i, p in enumerate(wl.points) if p[0] == "umbilic")

    def raising(*args, **kwargs):
        raise ValueError("perturbed")

    monkeypatch.setattr(cli, "main", raising)
    r = wl.round(k)
    assert r.failures == ["umbilic:raised"]
    assert bench.verdict([r]) == (False, 1, 1)


def test_gate_counts_perturbed_invariants(tmp_path, monkeypatch):
    wl = tiny("check-mix", tmp_path)
    original = curvature.invariants

    def perturbed(s):
        inv = original(s)
        size = 1.0 + inv.b_sq + inv.h_sq + abs(inv.ambient_c)
        return dataclasses.replace(inv, rho=inv.rho + 1e-6 * size)

    monkeypatch.setattr(curvature, "invariants", perturbed)
    rounds = [wl.round(k) for k in range(len(wl.points))]
    correct, attempted, failed = bench.verdict(rounds)
    oracle_checked = sum(p[3] is not None for p in wl.points)
    assert not correct
    assert failed >= oracle_checked > 0
    assert any(how.endswith(":invariants") for r in rounds for how in r.failures)


def test_gate_counts_wrong_exit_code(tmp_path, monkeypatch):
    wl = tiny("check-mix", tmp_path)
    monkeypatch.setattr(cli, "main", lambda argv: 2)
    rounds = [wl.round(k) for k in range(20)]
    assert bench.verdict(rounds) == (False, 20, 20)


@pytest.mark.parametrize("name,target", [
    ("check-mix", (cli, "main")), ("search-ascent", (extremizer, "multistart")),
    ("fuzz-oracle", (fuzz, "run_fuzz"))])
def test_gate_counts_exceptions(name, target, tmp_path, monkeypatch):
    wl = tiny(name, tmp_path)

    def raising(*args, **kwargs):
        raise ValueError("perturbed")

    monkeypatch.setattr(*target, raising)
    k = next(i for i, p in enumerate(wl.points) if p[0] == "random") if name == "check-mix" else 0
    r = wl.round(k)
    assert all(how.endswith(":raised") for how in r.failures)
    correct, attempted, failed = bench.verdict([r])
    assert not correct and failed == attempted >= 1


def test_gate_counts_search_above_ceiling(tmp_path, monkeypatch):
    wl = tiny("search-ascent", tmp_path)
    original = extremizer.multistart
    monkeypatch.setattr(extremizer, "multistart", lambda config: dataclasses.replace(
        original(config), best_value=1.0 + 1e-3))
    assert bench.verdict([wl.round(0)]) == (False, 1, 1)


def test_gate_counts_fuzz_hard_failures(tmp_path, monkeypatch):
    wl = tiny("fuzz-oracle", tmp_path)
    original = fuzz.run_fuzz

    def failing(*args, **kwargs):
        summary = original(*args, **kwargs)
        summary.record(False, "perturbed")
        return summary

    monkeypatch.setattr(fuzz, "run_fuzz", failing)
    assert bench.verdict([wl.round(0)]) == (False, 2, 2)


@pytest.mark.parametrize("name", ["check-mix", "search-ascent", "fuzz-oracle"])
def test_traced_counts_repeat_exactly(name, tmp_path):
    results = []
    for run_index in range(2):
        wl = tiny(name, tmp_path / str(run_index))
        untraced, passes = bench.traced_run(wl, 0.0)
        metrics, counts, deterministic = bench.layer_metrics(wl, untraced, passes)
        assert deterministic
        results.append((counts, {k: v["value"] for k, v in metrics.items()
                                 if v["unit"] == "count"}))
    assert results[0] == results[1]
    assert results[0][0]
    # the patched module attributes are restored after the traced pass
    assert curvature.invariants.__module__ == "ddvv.curvature"
    assert not hasattr(curvature.invariants, "__wrapped__")


def test_missing_traced_function_marks_run_incorrect(tmp_path, monkeypatch):
    """A traced function the program no longer has is listed, and the run is incorrect."""
    monkeypatch.setattr(tracer, "TRACED", tracer.TRACED + ("curvature.renamed_away",))
    bench.WORK.mkdir(exist_ok=True)
    args = argparse.Namespace(seed=7, seconds=0.0, trace=1)
    meta, result = bench.run(functools.partial(SearchAscent, plan=TINY_SEARCH), args, tmp_path)
    assert meta["missing_functions"] == ["curvature.renamed_away"]
    assert meta["counts"]["extremizer.ascend"] > 0 and result["failed"] == 0
    assert not result["correct"]


def test_check_mix_counts_per_point(tmp_path):
    wl = tiny("check-mix", tmp_path)
    wl.points = [p for p in wl.points if p[0] == "random"][:10]
    wl.size = len(wl.points)
    untraced, passes = bench.traced_run(wl, 0.0)
    metrics, _, _ = bench.layer_metrics(wl, untraced, passes)
    assert metrics["curvature.invariants_calls_per_point"]["value"] == 3
    assert metrics["curvature.traceless_parts_calls_per_point"]["value"] == 10
    assert metrics["extremizer.iterations"]["value"] == 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert all(metrics[m["name"]]["unit"] == m["unit"] for m in spec["per_layer"])


def test_inputs_depend_only_on_seed(tmp_path):
    for name in ("check-mix", "search-ascent", "fuzz-oracle"):
        a = tiny(name, tmp_path / "a", seed=3).digest
        b = tiny(name, tmp_path / "b", seed=3).digest
        c = tiny(name, tmp_path / "c", seed=4).digest
        assert a == b != c


def test_result_line_and_bare_directory(tmp_path):
    """Without the program's sources the benchmark fails without a result."""
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".bench_work"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "check-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_end_to_end_result_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fuzz-oracle",
         "--seed", "1", "--seconds", "0.5", "--trace", "0"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    meta, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert meta["environment"]["nproc"] >= 1 and meta["inputs_sha256"]
