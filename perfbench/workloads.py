"""The three workloads: seeded inputs, expected answers, and the verdict judge.

Each workload turns a seed into a list of ``cmperiods`` CLI calls (the
scenario files they read are written here, never timed) and, for every
call, the answer the harness expects, computed by ``oracle`` without the
library.  ``judge`` compares one call's exit code and structured report
with that answer and counts the verdicts it got wrong.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import oracle

SCHEMA = "cmperiods/scenario-v1"
KINDS = ("critical", "signature", "weights", "lemma_d", "compare", "basechange", "ephi")

# The sweep bounds and options of scenarios/demo.json, copied so that the
# benchmark's inputs do not change when the demo does.
DEMO_BOUNDS = {"n_max": 4, "d_max": 3, "two_a_max": 15, "m_max": 6, "kappa_max": 4}
SWEEP_COUNT = 1000  # the demo sweeps 200 instances per sweep
TATE_OFF_SWEEPS = 3
TATE_OFF_MAX_COUNT = 30
BASECHANGE_M_MAX = 4


@dataclass
class Call:
    argv: list[str]
    expect: dict
    verdicts: int
    # Whether the call's latency is a sample of the report_* metrics.
    latency: bool = True


@dataclass
class Workload:
    name: str
    calls: list[Call]
    # Layer groups this workload must exercise; zero calls there is an error.
    exercises: tuple[str, ...]


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def _sweep_call(seed: int, count: int, tate: bool, work: Path, latency: bool = True) -> Call:
    doc = {
        "schema": SCHEMA,
        "seed": seed,
        "options": {
            "level": "fgal",
            "tate": "on" if tate else "off",
            "d_exponent": "thm",
            "format": "structured",
            "sweep": dict(DEMO_BOUNDS, count=count),
        },
        "field_model": {"builtin": "cyclic:2"},
    }
    path = _write(work / f"sweep-{seed}-{doc['options']['tate']}.json", doc)
    expect = oracle.expected_sweeps(seed, count, DEMO_BOUNDS, tate=tate)
    rc = 0 if all(e["status"] == "pass" for e in expect.values()) else 1
    verdicts = sum(e["instances"] for e in expect.values())
    return Call(["sweep", path, "--seed", str(seed)], {"sweeps": expect, "rc": rc}, verdicts, latency)


def sweep_mix(seed: int, work: Path) -> Workload:
    """``cmperiods sweep`` on the demo scenario with a larger sweep count.

    With the period dictionary on every comparison must close, so a false
    "equivalent" would go unseen.  Small sweeps with the dictionary off
    follow on the same warm reduction-lattice cache: there every
    admissible point must fail, and each is sized so that the report lists
    all its failures, so a false "equivalent" is a missing failure.  Their
    latencies are not samples of the report_* metrics, which stay the
    latency of the main sweep.
    """
    calls = [_sweep_call(seed, SWEEP_COUNT, True, work)]
    for k in range(1, TATE_OFF_SWEEPS + 1):
        sub = 1000 * seed + 10 * k  # clear of the main sweep's seeds seed..seed+4
        count = oracle.fully_reported_count(sub, DEMO_BOUNDS, TATE_OFF_MAX_COUNT)
        calls.append(_sweep_call(sub, count, False, work, latency=False))
    return Workload(
        "sweep-mix",
        calls,
        exercises=(
            "periods.equivalent_mod", "periods.standard_relations", "periods.monomial",
            "periods.compare_automorphic_motivic", "lattice.reduce", "hodge.chain",
            "hodge.critical_range", "hodge.signature", "hodge.bounds",
            "sweeps.random_instance", "weights", "hecke", "cli.main",
        ),
    )


def basechange_exhaustive(seed: int, work: Path) -> Workload:
    """The acceptance suite's exhaustive base-change sweep, as one ``check``."""
    doc = {
        "schema": SCHEMA,
        "seed": seed,
        "field_model": {"builtin": "cyclic:1"},
        "checks": [{"id": f"bc-{seed}", "kind": "basechange", "m_max": BASECHANGE_M_MAX, "witness": True}],
    }
    path = _write(work / "basechange-exhaustive.json", doc)
    checked = oracle.basechange_checks(BASECHANGE_M_MAX)
    # Each commutativity check is a verdict; a wrong report gets all of them wrong.
    bc = {"kind": "basechange", "status": "pass", "checked": checked, "witness": True, "verdicts": checked}
    expect = {"checks": [bc], "rc": 0}
    return Workload(
        "basechange-exhaustive",
        [Call(["check", path], expect, checked)],
        exercises=("basechange.commutativity_check", "basechange", "cli.main"),
    )


# scenario-batch: one scenario per cell of a fixed design, so every seed
# gives the same mix of models, options and check sizes; the seed draws
# the numbers inside each scenario.
MODELS = (
    ("cyclic:1", 1), ("cyclic:2", 2), ("cyclic:3", 3),
    ("klein", 2), ("dihedral:2", 2), ("dihedral:3", 3),
)
BATCH = 96  # the 48-cell design twice


def _instance(rng: random.Random, taus: list[str], n: int, vacuous: bool):
    """A regular rank-n datum and character whose comparator is vacuous iff asked."""
    allowed = [x for x in range(-15, 16) if (x - (n - 1)) % 2 == 0]
    while True:
        kappa = rng.randint(-4, 4)
        w = rng.randint(-6, 6)
        pairs = {}
        for t in taus:
            m_t = rng.randint(-6, 6)
            pairs[t] = (m_t, w - m_t)
        doubled = {t: sorted(rng.sample(allowed, n), reverse=True) for t in taus}
        if oracle.degenerate(doubled, pairs, kappa):
            continue
        points = oracle.admissible_points(doubled, pairs, kappa, n)
        if (not points) == vacuous:
            return kappa, pairs, doubled, points


def _scenario(i: int, rng: random.Random) -> tuple[dict, dict]:
    model, d = MODELS[i % len(MODELS)]
    cell = i // len(MODELS)
    level, tate, d_exp = ("q", "fgal")[cell & 1], ("on", "off")[cell >> 1 & 1], ("thm", "intro")[cell >> 2 & 1]
    n = 1 + (cell + i) % 4
    taus = [f"t{k}" for k in range(1, d + 1)]
    embeddings = taus + [f"c{k}" for k in range(1, d + 1)]
    kappa, pairs, doubled, points = _instance(rng, taus, n, vacuous=i % 3 == 0)
    window = list(oracle.critical_window(doubled, pairs, kappa, n))
    wrong_window = i % 4 == 3  # a known-fail critical check
    expect_window = [window[0], window[1] + 1] if wrong_window else window

    rows, sig = {}, {}
    for t in taus:
        row = sorted((rng.randint(-8, 8) for _ in range(n)), reverse=True)
        if i % 5 == 4 and n > 1:  # an ascending row: a known-fail weights check
            row = row[::-1]
            row[-1] += 1
        rows[t] = row
        r = rng.randint(0, n)
        sig[t] = [r, n - r]
    dominant = oracle.is_dominant(rows)
    lemma = {"n_max": 4 + 2 * (i % 3), "kappa_max": 4, "d_max": 3, "m_extra": 6}
    bc_m_max = 1 + i % 2

    doc = {
        "schema": SCHEMA,
        "seed": i,
        "options": {"level": level, "tate": tate, "d_exponent": d_exp, "format": "structured"},
        "field_model": {"builtin": model},
        "emb_family": {"builtin": "regular"},
        "signatures": {"sig": {"n": n, "pairs": sig}},
        "weights": {"mu": {"n": n, "a0": rng.randint(-6, 6), "entries": rows}},
        "infinity_types": {"psi": {t: rng.randint(-6, 6) for t in embeddings}},
        "arch_params": {"Pi": {"n": n, "entries": {t: [[a2, 2] for a2 in doubled[t]] for t in taus}}},
        "characters": {"eta": {"pairs": {t: list(pairs[t]) for t in taus}, "kappa": kappa}},
        "checks": [
            {"id": "ephi", "kind": "ephi"},
            {"id": "critical", "kind": "critical", "arch": "Pi", "character": "eta", "expect": expect_window},
            {"id": "signature", "kind": "signature", "arch": "Pi", "character": "eta"},
            {"id": "weights", "kind": "weights", "weight": "mu", "infinity_type": "psi",
             "signature": "sig", "kappa": rng.randint(-4, 4)},
            dict({"id": "lemma_d", "kind": "lemma_d"}, **lemma),
            {"id": "compare", "kind": "compare", "arch": "Pi", "character": "eta", "a0": rng.randint(-2, 2)},
            {"id": "basechange", "kind": "basechange", "m_max": bc_m_max, "witness": True},
        ],
    }
    checks = [
        {"kind": "ephi", "status": "pass", "cm_types_checked": 2**d},
        {"kind": "critical", "status": "fail" if wrong_window else "pass", "range": window},
        {"kind": "signature", "status": "pass"},
        {"kind": "weights", "status": "pass" if dominant else "fail", "dominant": dominant},
        {"kind": "lemma_d", "status": "pass", "checked": oracle.lemma_d_checks(**lemma)},
        {"kind": "compare", "status": "pass" if oracle.compare_passes(tate == "on", points) else "fail",
         "points": points},
        {"kind": "basechange", "status": "pass", "checked": oracle.basechange_checks(bc_m_max),
         "witness": bc_m_max >= 2},
    ]
    rc = 0 if all(c["status"] == "pass" for c in checks) else 1
    return doc, {"checks": checks, "rc": rc}


def scenario_batch(seed: int, work: Path) -> Workload:
    """Distinct generated scenario files, each one ``cmperiods check`` call."""
    rng = random.Random(seed)
    calls = []
    for i in range(BATCH):
        doc, expect = _scenario(i, rng)
        path = _write(work / f"scenario-{i:02d}.json", doc)
        calls.append(Call(["check", path], expect, len(expect["checks"])))
    return Workload(
        "scenario-batch",
        calls,
        exercises=(
            "lattice.add", "periods.normalizing_factor", "cmfield", "scenario.parse_scenario",
            "scenario.emit_report", "scenario.run_checks", "cli.main",
        ),
    )


BUILDERS = {
    "sweep-mix": sweep_mix,
    "basechange-exhaustive": basechange_exhaustive,
    "scenario-batch": scenario_batch,
}


def build(name: str, seed: int, work: Path) -> Workload:
    work.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](seed, work)


# Judging one call.


def _check_ok(exp: dict, got: dict) -> bool:
    if got.get("kind") != exp["kind"] or got.get("status") != exp["status"]:
        return False
    det = got.get("details", {})
    kind = exp["kind"]
    if kind == "critical":
        lo, hi = exp["range"]
        return det.get("range") == [lo, hi] and det.get("points") == list(range(lo + 1, hi + 1))
    if kind == "compare":
        return [p.get("m") for p in det.get("points", [])] == exp["points"] and det.get("vacuous") == (
            not exp["points"]
        )
    if kind == "weights":
        return det.get("dominant") == exp["dominant"]
    if kind == "lemma_d":
        return det.get("checked") == exp["checked"] and det.get("mismatches") == []
    if kind == "ephi":
        return det.get("cm_types_checked") == exp["cm_types_checked"] and det.get("failures") == []
    if kind == "basechange":
        if det.get("checked") != exp["checked"] or det.get("failures") != 0:
            return False
        if not exp["witness"]:
            return "witness" not in det
        w = det.get("witness", {})
        return (
            w.get("pattern_direct") == oracle.WITNESS_DIRECT
            and w.get("pattern_via_bc") == oracle.WITNESS_VIA_BC
            and w.get("patterns_equal_as_tuples") is False
            and w.get("patterns_weyl_equivalent") is True
            and w.get("weyl_equivalent") is True
        )
    return True


def _failure_points(failures):
    """A sweep's listed failures, with a comparator failure ``m=<m> residual ...`` read as m."""
    if not isinstance(failures, list):
        return failures
    out = []
    for f in failures:
        head = f.split()[0] if isinstance(f, str) and f.strip() else ""
        out.append(int(head[2:]) if head.startswith("m=") and head[2:].lstrip("-").isdigit() else f)
    return out


@dataclass
class Judgement:
    verdicts: int
    wrong: int
    counts: dict


def judge(call: Call, rc, out: str, failure) -> Judgement:
    """Verdicts decided by one call, how many differ from the known answer, and its counts.

    A traceback, a wrong exit code or an unreadable report makes every
    verdict of the call wrong.
    """
    counts: dict[str, int] = {}
    try:
        report = json.loads(out) if failure is None else None
    except json.JSONDecodeError:
        report = None
    if not isinstance(report, dict) or rc != call.expect["rc"]:
        return Judgement(call.verdicts, call.verdicts, counts)
    results = {r["id"]: r for r in report.get("checks", [])}
    wrong = 0
    if "sweeps" in call.expect:
        for sid, exp in call.expect["sweeps"].items():
            got = results.get(sid, {})
            det = got.get("details", {})
            seen = {k: det.get(k) for k in ("instances", "points_checked", "vacuous")}
            seen["status"] = got.get("status")
            seen["failures"] = _failure_points(det.get("failures"))
            if seen != exp:
                wrong += exp["instances"]
            for k, key in (("instances", "sweep_instances"), ("points_checked", "critical_points"),
                           ("vacuous", "vacuous_instances")):
                counts[key] = counts.get(key, 0) + (det.get(k) or 0)
        return Judgement(call.verdicts, wrong, counts)
    got_checks = report.get("checks", [])
    if len(got_checks) != len(call.expect["checks"]):
        return Judgement(call.verdicts, call.verdicts, counts)
    for exp, got in zip(call.expect["checks"], got_checks):
        if not _check_ok(exp, got):
            wrong += exp.get("verdicts", 1)
        key = f"checks.{got.get('kind')}.{got.get('status')}"
        counts[key] = counts.get(key, 0) + 1
        det = got.get("details", {})
        if got.get("kind") == "compare":
            counts["critical_points"] = counts.get("critical_points", 0) + len(det.get("points", []))
            counts["vacuous_instances"] = counts.get("vacuous_instances", 0) + bool(det.get("vacuous"))
    return Judgement(call.verdicts, wrong, counts)
