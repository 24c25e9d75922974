"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests -q``."""

from __future__ import annotations

import dataclasses
import gc
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import cases  # noqa: E402
import gen_corpus  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

RUN = [sys.executable, str(BENCH_DIR / "run.py")]


def _run_json(*args: str) -> dict:
    proc = subprocess.run(RUN + list(args), capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(cases.WORKLOADS))
def test_generator_is_deterministic(name):
    small = dataclasses.replace(cases.WORKLOADS[name], pool=3)
    first = list(gen_corpus.case_lines(small, 7))
    second = list(gen_corpus.case_lines(small, 7))
    assert first == second
    assert first != list(gen_corpus.case_lines(small, 8))


def test_committed_corpus_matches_workloads():
    for w in cases.WORKLOADS.values():
        docs = w.docs_path.read_text(encoding="utf-8").splitlines()
        expects = [json.loads(line) for line in w.expect_path.read_text(encoding="utf-8").splitlines()]
        assert len(docs) == len(expects) == w.pool
        assert [e["case"] for e in expects] == list(range(w.pool))


def test_sample_depends_only_on_seed():
    a = run.sample(100, 5.0, "fuzz-zm", 3, 4)
    assert a == run.sample(100, 5.0, "fuzz-zm", 3, 4)
    assert len(a) == 20 and len(set(a)) == 20
    assert a != run.sample(100, 5.0, "fuzz-zm", 4, 4)
    assert len(run.sample(10, 5.0, "fuzz-zm", 3, 4)) == 10


def test_times_are_scaled_by_the_kernel_samples_next_to_them():
    ref, near = run.REF_KERNEL_S, run.NEAR
    times = [0.01] * 20
    steady = [ref] * (len(times) + 2 * near - 1)
    assert run.scaled(times, steady) == pytest.approx(times)
    assert run.scaled(times, [2 * x for x in steady]) == pytest.approx([0.005] * 20)
    # the machine halves its speed after the tenth case
    drifting = [ref] * (near + 10) + [2 * ref] * (len(times) + near - 11)
    out = run.scaled(times, drifting)
    assert out[0] == pytest.approx(0.01) and out[-1] == pytest.approx(0.005)


def test_kernel_leaves_the_collector_alone():
    gc.collect()
    before = gc.get_count()[0]
    for _ in range(50):
        assert run.kernel_s() > 0
    assert gc.get_count()[0] - before < 10


def test_corrupted_expectation_is_counted(tmp_path, monkeypatch):
    w = cases.WORKLOADS["oracle-compare"]
    seed, seconds = 5, 1
    first = run.sample(w.pool, w.rate, w.name, seed, seconds)[0]
    lines = w.expect_path.read_text(encoding="utf-8").splitlines(keepends=True)
    case = json.loads(lines[first])
    case["answer"]["ext1_order"] += 1
    lines[first] = json.dumps(case, sort_keys=True) + "\n"
    shutil.copy(w.docs_path, tmp_path / w.docs_path.name)
    (tmp_path / w.expect_path.name).write_text("".join(lines), encoding="utf-8")

    monkeypatch.setattr(cases, "CORPUS_DIR", tmp_path)
    out = run.end_to_end(w.name, seed, seconds)
    assert out["failed"] == 1 and not out["correct"]
    assert out["metrics"]["correct_frac"]["value"] == 1 - 1 / out["attempted"]


def test_solve_linear_called_from_modules_is_counted():
    from hexext import linalg, modules
    from hexext.rings import Zmod

    original = linalg.solve_linear
    m = modules.PresentedModule.cyclic(Zmod(4), 2)
    with layers.Tracer() as tracer:
        assert modules.solve_linear is not original
        modules.solve_morphism(m, m)
    assert modules.solve_linear is original and linalg.solve_linear is original
    assert tracer.fn_calls["linalg.solve_linear"] >= 1
    assert tracer.fn_calls["modules.solve_morphism"] == 1
    assert tracer.calls["linalg"] >= 1 and tracer.self_s["linalg"] > 0


def test_self_time_excludes_nested_spans():
    from hexext import diagram, randgen
    from hexext.rings import Zmod

    d = randgen.random_diagram(random.Random(1), Zmod(4), 16)
    with layers.Tracer() as tracer:
        t0 = time.perf_counter()
        diagram.check_uniqueness(d)
        wall = time.perf_counter() - t0
    total = sum(tracer.self_s.values())
    assert 0 < total <= wall
    assert tracer.fn_calls["diagram.check_uniqueness"] == 1
    assert tracer.calls["linalg"] > 0 and tracer.calls["modules"] > 0


def test_cache_stats_sum_every_cache_of_a_layer():
    from hexext import ext, modules
    from hexext.rings import Zmod

    before = layers.cache_stats()
    assert set(before) >= set(layers.CACHED_LAYERS)
    p = modules.PresentedModule.cyclic(Zmod(4), 2)
    ext.ext_module(0, p, p)
    after = layers.cache_stats()["ext"]
    assert after["hits"] + after["misses"] > before["ext"]["hits"] + before["ext"]["misses"]
    assert after["entries"] >= before["ext"]["entries"]


@pytest.mark.parametrize("name", ["fuzz-zm", "hexagon-zm"])
def test_traced_call_counts_repeat(name):
    first = _run_json("--workload", name, "--seed", "11", "--seconds", "1", "--trace", "1")
    second = _run_json("--workload", name, "--seed", "11", "--seconds", "1", "--trace", "1")
    calls = {k: v for k, v in first["metrics"].items() if v["unit"] == "count"}
    assert calls == {k: v for k, v in second["metrics"].items() if v["unit"] == "count"}
    assert first["correct"] and second["correct"]
    for layer in layers.LAYERS:
        assert f"{layer}.calls" in first["metrics"] and f"{layer}.self_s" in first["metrics"]
    assert "trace.overhead_ratio" in first["metrics"]


def test_end_to_end_reports_every_metric():
    out = _run_json("--workload", "oracle-compare", "--seed", "2", "--seconds", "1", "--trace", "0")
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == run.END_TO_END_UNITS


def test_fails_without_library_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, str(tmp_path / BENCH_DIR.name / "run.py"),
                           "--workload", "fuzz-zm", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
