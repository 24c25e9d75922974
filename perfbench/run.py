"""hexext benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

One run is one fresh, single-threaded process: import ``hexext``, parse the
run's cases from the frozen corpus, then answer each case in turn and check
the answer against the corpus's expectation.  The seed orders the workload's
pool (with the standard library only, so two commits read the same bytes
and answer the same cases in the same order), and the run answers the first
``--seconds`` times the workload's nominal rate of them.  At the benchmark's
own run length that is the whole pool: the pools are heavy-tailed, and
seeded subsets of them moved the figures more than any change should.  The
work stays fixed when a later commit is faster or slower.

Caches start empty, as in every ``hexext`` invocation; parsing re-checks
certificates and so fills some of them, as ``hexext extend DOC`` does.
Nothing clears them and nothing runs a warm pass.

Times are reported in reference seconds.  The processor speed of a shared
virtual machine drifts by up to 2x within minutes, and the library slows
with it.  So the runner times a fixed pure-Python kernel (:func:`kernel_s`)
after every case and every few milliseconds of set-up, and scales each
measured time by ``REF_KERNEL_S`` over the median kernel time next to it: a
time reads what it would on a machine where the kernel takes exactly
``REF_KERNEL_S``.  The kernel never touches ``hexext``, so a change to the
library moves the scaled times as much as the raw ones.  The raw wall-clock
figures go to standard error.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics from a traced run of the same cases, plus the ratio of its
time to that of an untraced run in a separate fresh process.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 5      # set-ups per run; setup_s is their median
# A timed phase stops starting cases after this long and counts the rest as
# failed, so that a run ends within 180 s however slow the library gets.  A
# traced run has two timed phases (untraced child, traced) and halves it.
TIME_LIMIT_S = 120.0
KERNEL_N = 3000        # loop length of the calibration kernel
REF_KERNEL_S = 0.0005  # the kernel's time on the reference machine
NEAR = 4               # kernel samples on each side that scale a time
SETUP_SLICE_S = 0.005  # a set-up takes a kernel sample about this often

END_TO_END_UNITS = {"cases_per_s": "1/s", "case_p50_ms": "ms", "case_p90_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB", "correct_frac": "ratio"}


def kernel_s() -> float:
    """Time one run of the fixed calibration kernel: dict and integer work in
    the interpreter.  It allocates nothing the garbage collector tracks, so
    its time depends neither on the size of the heap around it nor moves the
    collector's schedule for the library."""
    t0 = time.perf_counter()
    acc, seen = 0, {}
    for i in range(KERNEL_N):
        key = (i & 63) * 7 + i % 7
        acc = (acc * 31 + seen.get(key, i)) % 1000003
        seen[key] = acc
    return time.perf_counter() - t0


def scaled(times: list[float], kernels: list[float]) -> list[float]:
    """Each time in reference seconds.  ``kernels`` holds ``NEAR`` samples
    taken before the first time, one between each two and ``NEAR`` after the
    last, so ``kernels[i:i + 2 * NEAR]`` are the samples nearest ``times[i]``;
    the time is scaled by their median."""
    return [t * REF_KERNEL_S / statistics.median(kernels[i:i + 2 * NEAR])
            for i, t in enumerate(times)]


def sample(pool_size: int, rate: float, workload: str, seed: int, seconds: int) -> list[int]:
    """The indices of the run's cases, in the order they are answered: the
    first ``seconds * rate`` of a seeded permutation of the pool."""
    n = min(pool_size, max(1, round(seconds * rate)))
    return random.Random(f"{workload}:{seed}").sample(range(pool_size), pool_size)[:n]


def setup(workload: str, seed: int, seconds: int, tick=lambda: None):
    """Import hexext and parse the run's cases: ``(cases, [(expected, model)])``.
    ``tick`` is called after the import and after each parsed document."""
    sys.path.insert(0, str(BENCH_DIR))
    import cases

    tick()
    w = cases.WORKLOADS.get(workload)
    if w is None:
        raise SystemExit(f"unknown workload {workload!r}; choose from {sorted(cases.WORKLOADS)}")
    with open(w.docs_path, encoding="utf-8") as fh:
        docs = fh.readlines()
    with open(w.expect_path, encoding="utf-8") as fh:
        expects = fh.readlines()
    if len(docs) != len(expects):
        raise SystemExit(f"{w.docs_path.name} and {w.expect_path.name} differ in length")
    parsed = []
    for i in sample(len(docs), w.rate, workload, seed, seconds):
        parsed.append((json.loads(expects[i])["answer"], cases.document.parse(docs[i])))
        tick()
    return cases, parsed


def timed_setup(workload: str, seed: int, seconds: int):
    """:func:`setup`, its wall time and its time in reference seconds.  The
    set-up is cut into slices of about ``SETUP_SLICE_S`` with a kernel sample
    between each two, and each slice is scaled like a case."""
    kernels = [kernel_s() for _ in range(1 + NEAR)][1:]  # the first one warms up
    slices = []
    last = time.perf_counter()

    def tick(end: bool = False) -> None:
        nonlocal last
        now = time.perf_counter()
        if end or now - last >= SETUP_SLICE_S:
            slices.append(now - last)
            kernels.append(kernel_s())
            last = time.perf_counter()

    cases, parsed = setup(workload, seed, seconds, tick)
    tick(end=True)
    kernels += [kernel_s() for _ in range(NEAR - 1)]
    return cases, parsed, sum(slices), sum(scaled(slices, kernels))


def answer_all(cases, workload: str, parsed, limit_s: float = TIME_LIMIT_S) -> dict:
    """Answer every case in order, with a kernel sample between cases; the
    per-case wall times, the same in reference seconds, and the failures."""
    answer = cases.ANSWER[cases.WORKLOADS[workload].kind]
    times, failed = [], 0
    kernels = [kernel_s() for _ in range(NEAR)]
    t_start = time.perf_counter()
    for expect, model in parsed:
        t0 = time.perf_counter()
        if t0 - t_start > limit_s:
            break
        try:
            ok = answer(model) == expect
        except Exception as exc:  # any error is a failed case; the run goes on
            sys.stderr.write(f"case failed: {type(exc).__name__}: {exc}\n")
            ok = False
        times.append(time.perf_counter() - t0)
        failed += not ok
        kernels.append(kernel_s())
    kernels += [kernel_s() for _ in range(NEAR - 1)]
    failed += len(parsed) - len(times)   # not reached within the time limit
    ref = scaled(times, kernels)
    return {"times": times, "ref_times": ref, "failed": failed, "attempted": len(parsed),
            "timed_s": sum(times), "ref_timed_s": sum(ref),
            "ref_factor": REF_KERNEL_S / statistics.median(kernels)}


def _child(workload: str, seed: int, seconds: int, what: str, timeout: float) -> dict:
    """Run ``--child`` in a fresh interpreter and return its JSON line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--child", what]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"child run {what!r} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def result(attempted: int, failed: int, metrics: dict) -> dict:
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def end_to_end(workload: str, seed: int, seconds: int) -> dict:
    cases, parsed, raw_setup_s, setup_s = timed_setup(workload, seed, seconds)
    setups, raw_setups = [setup_s], [raw_setup_s]
    run = answer_all(cases, workload, parsed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for _ in range(SETUP_REPEATS - 1):
        out = _child(workload, seed, seconds, "setup", 30)
        setups.append(out["setup_s"])
        raw_setups.append(out["raw_setup_s"])
    ms = [t * 1000 for t in run["ref_times"]] or [0.0]
    raw_ms = [t * 1000 for t in run["times"]] or [0.0]
    sys.stderr.write(f"wall clock: {len(run['times']) / run['timed_s']:.4f} cases/s, "
                     f"p50 {statistics.median(raw_ms):.4f} ms, "
                     f"setup {statistics.median(raw_setups):.4f} s; "
                     f"reference/wall {run['ref_factor']:.4f}\n")
    metrics = {
        "cases_per_s": len(run["ref_times"]) / run["ref_timed_s"],
        "case_p50_ms": statistics.median(ms),
        "case_p90_ms": statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else ms[0],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "correct_frac": 1 - run["failed"] / run["attempted"],
    }
    return result(run["attempted"], run["failed"],
                  {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()})


def per_layer(workload: str, seed: int, seconds: int) -> dict:
    untraced_s = _child(workload, seed, seconds, "timed", TIME_LIMIT_S / 2 + 30)["ref_timed_s"]
    sys.path.insert(0, str(BENCH_DIR))
    import cases  # imports hexext, whose functions the tracer wraps
    import layers

    with layers.Tracer() as tracer:  # parsing is traced as the document layer
        _, parsed = setup(workload, seed, seconds)
        run = answer_all(cases, workload, parsed, TIME_LIMIT_S / 2)
    metrics = layers.layer_metrics(tracer, layers.cache_stats(), run["ref_factor"])
    metrics["trace.overhead_ratio"] = (run["ref_timed_s"] / untraced_s, "ratio")
    return result(run["attempted"], run["failed"], metrics)


def child(workload: str, seed: int, seconds: int, what: str) -> dict:
    cases, parsed, raw_setup_s, setup_s = timed_setup(workload, seed, seconds)
    if what == "setup":
        return {"setup_s": setup_s, "raw_setup_s": raw_setup_s}
    return {"ref_timed_s": answer_all(cases, workload, parsed, TIME_LIMIT_S / 2)["ref_timed_s"]}


def run_all(seed: int, seconds: int) -> int:
    """Every workload, each in its own process, as a table and one JSON line."""
    import cases

    summary = {}
    for name in cases.WORKLOADS:
        out = _child(name, seed, seconds, "e2e", 3 * TIME_LIMIT_S)
        summary[name] = out
        failed_frac = out["failed"] / out["attempted"]
        print(f"{name}: attempted {out['attempted']}, failed_frac {failed_frac:.4f}")
        for metric, m in out["metrics"].items():
            print(f"  {metric:<14} {m['value']:>12.4f} {m['unit']}")
    print(json.dumps(summary, sort_keys=True))
    return 0 if all(s["correct"] for s in summary.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hexext benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("setup", "timed", "e2e"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.workload == "all":
        sys.path.insert(0, str(BENCH_DIR))
        return run_all(args.seed, args.seconds)
    if args.child in ("setup", "timed"):
        out = child(args.workload, args.seed, args.seconds, args.child)
    elif args.trace:
        out = per_layer(args.workload, args.seed, args.seconds)
    else:
        out = end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
