"""cmperiods benchmark: run one workload for a fixed time and check every verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one caller: each repetition is a fresh single-threaded
interpreter (``child.py``) that imports the library and makes the
workload's ``cmperiods.cli.main`` calls, so every repetition pays the
cold caches a command-line invocation pays.  Only one child runs at a
time.  Inputs are generated from the seed before any timing starts.

With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced repetitions and prints
the per-layer metrics, the exact workload counts and the tracing
overhead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a record of the run,
with every repetition's values, is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import GROUPS  # noqa: E402

SETUP_PROBES = 5  # extra import-only children per run, for a steadier setup_s
MIN_REPS = 3
CHILD_TIMEOUT_S = 150


class HarnessError(RuntimeError):
    pass


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def child(argvs: list[list[str]], trace: bool = False, spans: str | None = None) -> dict:
    # A fixed hash seed keeps set and dict orders, and so the work done, the
    # same in every child.  Bytecode is cached inside the checkout, whatever
    # the caller's environment says, so set-up always loads compiled modules
    # (the first child of a fresh checkout compiles them).
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=str(HERE / "out" / "pycache"))
    job = json.dumps({"argvs": argvs, "trace": trace, "spans": spans})
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py")],
        input=job, capture_output=True, text=True, env=env, cwd=str(ROOT), timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise HarnessError(f"child exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(values: list[float]) -> dict:
    """Every value, with median and quartiles (Python's exclusive method), min and max."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"values": values, "median": med, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def tail_percentile(samples: int) -> int:
    """The highest whole percentile with at least ten samples beyond it (100 if none has)."""
    return (100 * (samples - 10)) // samples if samples > 10 else 100


def percentile(values: list[float], p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Run:
    """Repetitions of one workload, their judged verdicts and counts."""

    def __init__(self, wl: workloads.Workload):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.counts: dict | None = None
        self.consistent = True

    def repetition(self, trace: bool = False, spans: str | None = None) -> dict:
        res = child([c.argv for c in self.wl.calls], trace, spans)
        counts: dict[str, int] = {"verdicts": 0}
        for call, got in zip(self.wl.calls, res["calls"]):
            j = workloads.judge(call, got["rc"], got["out"], got["failure"])
            self.attempted += j.verdicts
            self.failed += j.wrong
            counts["verdicts"] += j.verdicts
            for k, v in j.counts.items():
                counts[k] = counts.get(k, 0) + v
            if got["failure"]:
                print(f"call {call.argv} raised:\n{got['failure']}", file=sys.stderr)
        if self.counts is None:
            self.counts = counts
        elif counts != self.counts:
            self.consistent = False  # a fixed seed must give the same counts every time
        res["timed_s"] = sum(c["seconds"] for c in res["calls"])
        res["verdicts"] = counts["verdicts"]
        return res


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    setup_runs = [child([]) for _ in range(SETUP_PROBES)]
    reps = []
    started = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - started < seconds:
        reps.append(run.repetition())
    setup_runs += reps
    setups = [r["setup_s"] for r in setup_runs]
    rates = [r["verdicts"] / r["timed_s"] for r in reps]
    sampled = [k for k, call in enumerate(run.wl.calls) if call.latency]
    latencies = [r["calls"][k]["seconds"] * 1e3 for r in reps for k in sampled]
    tail = tail_percentile(MIN_REPS * len(sampled))
    rss = [r["maxrss_kb"] / 1024 for r in reps]

    def metric(unit: str, values: list[float], stat: str, value: float) -> dict:
        return dict(summarize(values), unit=unit, stat=stat, value=value)

    metrics = {
        "setup_s": metric("s", setups, "median", statistics.median(setups)),
        "verdicts_per_s": metric("1/s", rates, "median", statistics.median(rates)),
        "report_p50_ms": metric("ms", latencies, "p50", percentile(latencies, 50)),
        "report_tail_ms": metric("ms", latencies, f"p{tail}", percentile(latencies, tail)),
        "peak_rss_mb": metric("MB", rss, "median", statistics.median(rss)),
    }
    # The same statistics over wall-clock times, which the speed probe does
    # not correct: a change that slows the probe too shows only here.
    wall_latencies = [r["calls"][k]["wall_s"] * 1e3 for r in reps for k in sampled]
    wall = {
        "setup_s": statistics.median(r["setup_wall_s"] for r in setup_runs),
        "verdicts_per_s": statistics.median(r["verdicts"] / sum(c["wall_s"] for c in r["calls"]) for r in reps),
        "report_p50_ms": percentile(wall_latencies, 50),
        "report_tail_ms": percentile(wall_latencies, tail),
    }
    extra = {
        "repetitions": len(reps),
        "wall": wall,
        "wall_s": [[c["wall_s"] for c in r["calls"]] for r in reps],
        "setup_wall_s": [r["setup_wall_s"] for r in setup_runs],
        "probes": [r["probes"] for r in reps],
    }
    return metrics, extra


def per_layer(run: Run, seconds: float, spans_path: str) -> tuple[dict, dict]:
    plain, traced = [], []
    started = time.perf_counter()
    while not (plain and traced) or time.perf_counter() - started < seconds:
        plain.append(run.repetition())
        traced.append(run.repetition(trace=True, spans=None if traced else spans_path))
    groups = [t["trace"]["groups"] for t in traced]
    first = groups[0]
    if any({g: v["calls"] for g, v in gs.items()} != {g: v["calls"] for g, v in first.items()} for gs in groups):
        run.consistent = False
    silent = [g for g in run.wl.exercises if first[g]["calls"] == 0]
    if silent:
        raise HarnessError(f"{run.wl.name}: traced groups recorded no call: {', '.join(silent)}")

    metrics: dict[str, tuple[float, str]] = {}
    for g in GROUPS:
        metrics[f"{g}.calls"] = (first[g]["calls"], "count")
        metrics[f"{g}.self_s"] = (statistics.median(gs[g]["self_s"] for gs in groups), "s")
    cache = traced[0]["lattice_cache"] or {"hits": 0, "misses": 0}
    lookups = cache["hits"] + cache["misses"]
    metrics["periods.lattice_cache.hits"] = (cache["hits"], "count")
    metrics["periods.lattice_cache.misses"] = (cache["misses"], "count")
    metrics["periods.lattice_cache.hit_ratio"] = (cache["hits"] / lookups if lookups else 0.0, "ratio")
    counts = run.counts
    per_instance = counts.get("sweep_instances") or counts["verdicts"]
    metrics["hodge.critical_range.calls_per_instance"] = (
        first["hodge.critical_range"]["calls"] / per_instance, "calls/instance",
    )
    for key in ("verdicts", "sweep_instances", "critical_points", "vacuous_instances"):
        metrics[f"counts.{key}"] = (counts.get(key, 0), "count")
    for kind in workloads.KINDS:
        for status in ("pass", "fail", "error"):
            metrics[f"counts.checks.{kind}.{status}"] = (counts.get(f"checks.{kind}.{status}", 0), "count")
    overhead = statistics.median(r["timed_s"] for r in traced) / statistics.median(r["timed_s"] for r in plain) - 1
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    metrics["trace.spans"] = (traced[0]["trace"]["spans"], "count")
    out = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    extra = {
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "untraced_s": [r["timed_s"] for r in plain],
        "traced_s": [r["timed_s"] for r in traced],
        "aliases_rebound": traced[0]["trace"]["rebound"],
        "spans_file": spans_path,
    }
    return out, extra


def main(argv: list[str] | None = None) -> int:
    spec = benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cmperiods" / "cli.py").is_file():
        print(f"no cmperiods sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    work = out_dir / "work" / args.workload
    wl = workloads.build(args.workload, args.seed, work)
    run = Run(wl)
    try:
        if args.trace:
            metrics, extra = per_layer(run, args.seconds, str(out_dir / f"spans-{args.workload}.tsv.gz"))
            wanted = [m["name"] for m in spec["per_layer"]]
        else:
            metrics, extra = end_to_end(run, args.seconds)
            wanted = [m["name"] for m in spec["end_to_end"]]
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    missing = [m for m in wanted if m not in metrics]
    if missing:
        print(f"metrics not produced: {missing}", file=sys.stderr)
        return 1

    wrong_ratio = run.failed / run.attempted
    record = {
        "meta": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "commit": git_commit(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
        },
        "correct": run.failed == 0 and run.consistent,
        "attempted": run.attempted,
        "failed": run.failed,
        "wrong_verdict_ratio": wrong_ratio,
        "counts_consistent": run.consistent,
        "counts": run.counts,
        "metrics": metrics,
        "extra": extra,
    }
    record_path = out_dir / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    for name in wanted:
        m = metrics[name]
        spread = (
            f"  ({m['stat']} of {len(m['values'])}: median {m['median']:.6g}, q1 {m['q1']:.6g}, q3 {m['q3']:.6g})"
            if "stat" in m else ""
        )
        print(f"{args.workload}  {name:44s} {m['value']:.6g} {m['unit']}{spread}")
    print(f"{args.workload}  {'wrong_verdict_ratio':44s} {wrong_ratio:.6g} ratio  "
          f"({run.failed} of {run.attempted} verdicts)")
    result = {
        "correct": record["correct"],
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
            for name in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
