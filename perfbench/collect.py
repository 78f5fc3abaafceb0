"""Run every workload over several seeds and merge the runs into one record.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/out/BENCH.json

Each (workload, seed) is one ``run.py`` invocation at the benchmark's
``run_seconds``; workloads are interleaved seed by seed, and each run's
own record stays in ``perfbench/out/``.  The merged
record keeps, per workload and end-to-end metric, every run's value with
their median and quartiles, which ``diff.py`` compares.  The table printed
at the end gives each metric's spread (quartile distance over median)
next to its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, benchmark_spec, summarize  # noqa: E402


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(m: dict) -> float:
    return (m["q3"] - m["q1"]) / m["median"] if m["median"] else float("inf")


def main(argv: list[str] | None = None) -> int:
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--out", default=str(HERE / "out" / "BENCH.json"))
    args = parser.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]
    seeds = seed_list(args.seeds)
    out = Path(args.out)

    results: dict[str, list[dict]] = {w: [] for w in names}
    for seed in seeds:
        for w in names:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                print(f"{w} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            line = json.loads(proc.stdout.splitlines()[-1])
            record = json.loads((HERE / "out" / f"run-{w}-seed{seed}-trace0.json").read_text(encoding="utf-8"))
            results[w].append(dict(line, seed=seed, wall=record["extra"]["wall"]))
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.6g}" for k, v in line["metrics"].items()), flush=True)

    first_run = HERE / "out" / f"run-{names[0]}-seed{seeds[0]}-trace0.json"
    meta = json.loads(first_run.read_text(encoding="utf-8"))["meta"]
    for key in ("workload", "seed", "trace"):
        del meta[key]
    merged = {"meta": dict(meta, seeds=seeds), "workloads": {}}
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"\n{'workload':22s} {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for w, lines in results.items():
        attempted = sum(r["attempted"] for r in lines)
        failed = sum(r["failed"] for r in lines)
        entry = {
            "correct": all(r["correct"] for r in lines),
            "attempted": attempted,
            "failed": failed,
            "wrong_verdict_ratio": failed / attempted,
            "seeds": [r["seed"] for r in lines],
            "metrics": {},
            "wall": {
                name: summarize([r["wall"][name] for r in lines]) for name in lines[0]["wall"]
            },
        }
        for name, b in bounds.items():
            m = summarize([r["metrics"][name]["value"] for r in lines])
            m["unit"] = b["unit"]
            m["spread"] = spread(m)
            entry["metrics"][name] = m
            print(f"{w:22s} {name:16s} {m['median']:12.6g} {m['q1']:12.6g} {m['q3']:12.6g} "
                  f"{m['spread']:7.4f} {b['bound']:6.2f}")
        merged["workloads"][w] = entry
    out.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"\nwrote {out}")
    return 0 if all(e["correct"] for e in merged["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
