"""Compare two benchmark records, one row per (workload, end-to-end metric).

    python3 perfbench/diff.py BASE.json NEW.json

A record is a merged record from ``collect.py`` (one value per run) or a
single run's record from ``run.py`` (its one reported value).

Each row shows both sides' median and quartiles over their runs and a
verdict against the bound in ``BENCHMARK.json``:

- unresolved: either side's spread (quartile distance over median) is
  wider than the bound, unless every new run beats every base run;
- regressed: the new median is worse than the base median by more than
  the bound;
- improved: the new median is better by more than the base's quartile
  distance;
- unchanged: otherwise.

Times are in reference seconds (see ``child.py``).  For each timed metric
the row also shows both sides' wall-clock medians, when the records have
them, and notes ``wall worse`` when the wall-clock change is worse than
the reference change by more than the bound: a change that also slowed
the speed probe (cache or heap pollution) has part of its cost divided
out of the reference time, and shows there.  Wall-clock times move with
the machine's load, so the note asks for a look, not a verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import benchmark_spec, summarize  # noqa: E402


def load(path: str) -> dict:
    rec = json.loads(Path(path).read_text(encoding="utf-8"))
    if "workloads" in rec:
        return rec
    metrics = {name: summarize([m["value"]]) for name, m in rec["metrics"].items()}
    wall = {name: summarize([v]) for name, v in rec["extra"].get("wall", {}).items()}
    return {"meta": rec["meta"], "workloads": {rec["meta"]["workload"]: {"metrics": metrics, "wall": wall}}}


def relative(base: float, new: float, higher_is_better: bool) -> float:
    """Change of new against base as a share of base; > 0 is better."""
    return (1 if higher_is_better else -1) * (new - base) / base


def verdict(base: dict, new: dict, bound: float, higher_is_better: bool) -> tuple[str, float]:
    sign = 1 if higher_is_better else -1
    change = relative(base["median"], new["median"], higher_is_better)
    beats_all = (
        min(sign * v for v in new["values"]) > max(sign * v for v in base["values"])
    )
    spreads = [(m["q3"] - m["q1"]) / m["median"] for m in (base, new)]
    if max(spreads) > bound:
        return ("improved" if beats_all else "unresolved"), change
    if change < -bound:
        return "regressed", change
    if sign * (new["median"] - base["median"]) > base["q3"] - base["q1"] and change > 0:
        return "improved", change
    return "unchanged", change


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    spec = benchmark_spec()
    print(f"base {base['meta'].get('commit', '?')[:12]}  new {new['meta'].get('commit', '?')[:12]}")
    if base["meta"].get("seconds") != new["meta"].get("seconds"):
        print(f"warning: runs of {base['meta'].get('seconds')} s against runs of {new['meta'].get('seconds')} s")
    print(f"{'workload':22s} {'metric':16s} {'base median [q1, q3]':>32s} {'new median [q1, q3]':>32s} "
          f"{'change':>8s}  {'verdict':10s}  wall-clock medians")
    worst = 0
    for w in base["workloads"]:
        if w not in new["workloads"]:
            print(f"{w:22s} missing from {args.new}")
            continue
        for m in spec["end_to_end"]:
            b, n = base["workloads"][w]["metrics"][m["name"]], new["workloads"][w]["metrics"][m["name"]]
            higher = m["better"] == "higher"
            v, change = verdict(b, n, m["bound"], higher)
            worst = max(worst, v == "regressed")
            cell = lambda x: f"{x['median']:.5g} [{x['q1']:.5g}, {x['q3']:.5g}]"  # noqa: E731
            wall = ""
            wb = base["workloads"][w].get("wall", {}).get(m["name"])
            wn = new["workloads"][w].get("wall", {}).get(m["name"])
            if wb and wn:
                wall_change = relative(wb["median"], wn["median"], higher)
                wall = f"{wb['median']:.5g} -> {wn['median']:.5g} ({wall_change:+.1%})"
                if wall_change < change - m["bound"]:
                    wall += "  wall worse"
            print(f"{w:22s} {m['name']:16s} {cell(b):>32s} {cell(n):>32s} {change:+8.1%}  {v:10s}  {wall}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
