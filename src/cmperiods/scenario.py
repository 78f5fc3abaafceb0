"""Scenario files, check execution, and report serialization.

Scenarios are JSON documents under the versioned schema
``cmperiods/scenario-v1``; every rational number is written as a
``[numerator, denominator]`` pair, never a float.  Reports use schema
``cmperiods/report-v1`` and are byte-deterministic for a fixed scenario
and seed: the structured format carries no wall-clock data (timing is
printed only in the text rendering).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import partial
from fractions import Fraction
from typing import Any

from . import basechange as bc
from .cmfield import (
    CMFieldModel,
    CMType,
    EmbFamilyModel,
    cyclic_model,
    dihedral_model,
    displacement_sign_family,
    displacement_sign_invariance_check,
    conjugate_cm_type,
    klein_model,
    regular_family,
)
from .errors import CMPeriodsError, ScenarioError
from .hecke import InfinityType, conjugate_infinity_type
from .hodge import ArchParams, split_indices
from .periods import (
    ComparatorInstance,
    Level,
    compare_automorphic_motivic,
    normalizing_factor_closed,
    normalizing_factor_product,
    standard_vs_refined,
)
from .sweeps import (
    SweepBounds,
    run_compare_sweep,
    run_bounds_sweep,
    run_dominance_sweep,
    run_equivariance_sweep,
    run_signature_sweep,
)
from .weights import (
    Signature,
    WeightParam,
    conjugate_weight,
    doubling_weight,
    is_block_dominant,
    is_dominant,
    sharp_dual_composite,
    sharp_dual_weight,
)

SCENARIO_SCHEMA = "cmperiods/scenario-v1"
REPORT_SCHEMA = "cmperiods/report-v1"

CHECK_KINDS = ("critical", "signature", "weights", "lemma_d", "compare", "basechange", "ephi")


@dataclass
class Options:
    level: str = "fgal"
    tate: str = "on"
    d_exponent: str = "thm"
    fmt: str = "structured"
    seed: int = 0
    sweep: SweepBounds = field(default_factory=SweepBounds)
    sweep_count: int = 200

    def level_enum(self) -> Level:
        if self.level in ("q", "e"):
            return Level.Q
        if self.level == "fgal":
            return Level.FGAL
        raise ScenarioError(f"unknown level {self.level!r}")

    def tate_enabled(self) -> bool:
        if self.tate not in ("on", "off"):
            raise ScenarioError(f"tate flag must be 'on' or 'off', got {self.tate!r}")
        return self.tate == "on"


@dataclass
class Scenario:
    model: CMFieldModel
    cm_type: CMType
    family: EmbFamilyModel | None
    signatures: dict[str, Signature]
    weights: dict[str, WeightParam]
    infinity_types: dict[str, InfinityType]
    arch_params: dict[str, ArchParams]
    characters: dict[str, dict]
    checks: list[dict]
    options: Options
    # One instance per (arch, character) pair, so checks on the same pair
    # share its analysis.
    instances: dict[tuple[str, str], ComparatorInstance] = field(default_factory=dict)


def _fraction(value: Any, where: str) -> Fraction:
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, list) and len(value) == 2 and all(isinstance(x, int) for x in value):
        return Fraction(value[0], value[1])
    raise ScenarioError(f"{where}: rationals must be integers or [num, den] pairs")


BUILTIN_MODELS = {
    "cyclic": cyclic_model,
    "dihedral": dihedral_model,
}


def _parse_model(spec: dict) -> CMFieldModel:
    if "builtin" in spec:
        name = spec["builtin"]
        if name == "klein":
            return klein_model()
        kind, _, arg = name.partition(":")
        if kind in BUILTIN_MODELS and arg.isdigit():
            return BUILTIN_MODELS[kind](int(arg))
        raise ScenarioError(f"unknown builtin field model {name!r}")
    try:
        return CMFieldModel(
            embeddings=tuple(spec["embeddings"]),
            conj=dict(spec["conj"]),
            group={name: dict(perm) for name, perm in spec["group"].items()},
        )
    except KeyError as exc:
        raise ScenarioError(f"field_model is missing key {exc}") from exc


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_basechange_fields(chk: dict, where: str) -> None:
    m_max = chk.get("m_max", 3)
    if not _is_int(m_max) or m_max < 1:
        raise ScenarioError(f"{where}: m_max must be an integer >= 1, got {m_max!r}")
    for flag in ("odd_rank", "witness"):
        if flag in chk and not isinstance(chk[flag], bool):
            raise ScenarioError(f"{where}: {flag} must be true or false, got {chk[flag]!r}")


# Per check kind: the fields naming a scenario entry, with the block that
# must define it, and the optional fields that must be integers.
_INSTANCE_REFS = (("arch", "arch_params"), ("character", "characters"))
_CHECK_REFS = {
    "critical": _INSTANCE_REFS,
    "signature": _INSTANCE_REFS,
    "compare": _INSTANCE_REFS,
    "weights": (("weight", "weights"), ("infinity_type", "infinity_types"), ("signature", "signatures")),
}
_INT_FIELDS = {
    "lemma_d": ("n_max", "kappa_max", "d_max", "m_extra"),
    "compare": ("a0",),
    "weights": ("kappa",),
}


def _check_fields(chk: dict, where: str, blocks: dict[str, dict]) -> None:
    for name, block in _CHECK_REFS.get(chk["kind"], ()):
        ref = chk.get(name)
        if not isinstance(ref, str) or ref not in blocks[block]:
            raise ScenarioError(f"{where}: {name} must be a name defined in {block}, got {ref!r}")
    for name in _INT_FIELDS.get(chk["kind"], ()):
        if name in chk and not _is_int(chk[name]):
            raise ScenarioError(f"{where}: {name} must be an integer, got {chk[name]!r}")


def parse_scenario(path: str) -> Scenario:
    """Load and fully validate a scenario file.

    Parse errors carry line and column; invariant violations name the
    failing invariant via the underlying structured error.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ScenarioError(f"scenario file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"malformed scenario: {exc.msg}", line=exc.lineno, column=exc.colno) from exc
    if raw.get("schema") != SCENARIO_SCHEMA:
        raise ScenarioError(f"expected schema {SCENARIO_SCHEMA!r}, got {raw.get('schema')!r}")
    try:
        model = _parse_model(raw.get("field_model", {"builtin": "cyclic:1"}))
        cm_type = (
            CMType(frozenset(raw["cm_type"])) if "cm_type" in raw else model.canonical_cm_type()
        )
        cm_type.validate(model)
        family = None
        fam_spec = raw.get("emb_family")
        if fam_spec == {"builtin": "regular"} or fam_spec == "regular":
            family = regular_family(model)
        elif fam_spec is not None:
            family = EmbFamilyModel(
                points=tuple(fam_spec["points"]),
                base=fam_spec["base"],
                action={g: dict(p) for g, p in fam_spec["action"].items()},
            )
            family.validate(model)

        signatures = {
            name: Signature({t: tuple(rs) for t, rs in spec["pairs"].items()}, spec["n"])
            for name, spec in raw.get("signatures", {}).items()
        }
        weight_params = {
            name: WeightParam(
                {t: tuple(row) for t, row in spec["entries"].items()}, spec["a0"], spec["n"]
            )
            for name, spec in raw.get("weights", {}).items()
        }
        infinity_types = {
            name: InfinityType({t: int(v) for t, v in spec.items()}, model)
            for name, spec in raw.get("infinity_types", {}).items()
        }
        arch_params = {}
        for name, spec in raw.get("arch_params", {}).items():
            entries = {
                t: tuple(_fraction(x, f"arch_params.{name}.{t}") for x in row)
                for t, row in spec["entries"].items()
            }
            arch_params[name] = ArchParams(entries, spec["n"], model)
        characters = {}
        for name, spec in raw.get("characters", {}).items():
            pairs = {t: (int(p[0]), int(p[1])) for t, p in spec["pairs"].items()}
            characters[name] = {"pairs": pairs, "kappa": int(spec.get("kappa", 0))}

        opts_raw = raw.get("options", {})
        sweep_raw = opts_raw.get("sweep", {})
        options = Options(
            level=opts_raw.get("level", "fgal"),
            tate=opts_raw.get("tate", "on"),
            d_exponent=opts_raw.get("d_exponent", "thm"),
            fmt=opts_raw.get("format", "structured"),
            seed=int(raw.get("seed", 0)),
            sweep=SweepBounds(
                n_max=sweep_raw.get("n_max", 4),
                d_max=sweep_raw.get("d_max", 3),
                two_a_max=sweep_raw.get("two_a_max", 15),
                m_max=sweep_raw.get("m_max", 6),
                kappa_max=sweep_raw.get("kappa_max", 4),
            ),
            sweep_count=sweep_raw.get("count", 200),
        )
        options.level_enum()
        options.tate_enabled()
        if options.d_exponent not in ("thm", "intro"):
            raise ScenarioError(f"d_exponent must be 'thm' or 'intro', got {options.d_exponent!r}")

        blocks = {
            "arch_params": arch_params,
            "characters": characters,
            "weights": weight_params,
            "infinity_types": infinity_types,
            "signatures": signatures,
        }
        checks = []
        for idx, chk in enumerate(raw.get("checks", [])):
            kind = chk.get("kind")
            if kind not in CHECK_KINDS:
                raise ScenarioError(f"checks[{idx}]: unknown kind {kind!r}")
            if kind == "basechange":
                _check_basechange_fields(chk, f"checks[{idx}]")
            _check_fields(chk, f"checks[{idx}]", blocks)
            entry = dict(chk)
            entry.setdefault("id", f"{kind}-{idx}")
            checks.append(entry)
    except ScenarioError:
        raise
    except CMPeriodsError as exc:
        raise ScenarioError(f"{type(exc).__name__}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed scenario: {type(exc).__name__}: {exc}") from exc

    return Scenario(
        model=model,
        cm_type=cm_type,
        family=family,
        signatures=signatures,
        weights=weight_params,
        infinity_types=infinity_types,
        arch_params=arch_params,
        characters=characters,
        checks=checks,
        options=options,
    )


@dataclass
class CheckResult:
    check_id: str
    kind: str
    status: str  # pass | fail | error
    details: dict
    identities: tuple[str, ...] = ()


@dataclass
class Report:
    schema: str
    seed: int
    options: dict
    results: list[CheckResult]
    elapsed: float  # text rendering only; excluded from structured output

    @property
    def all_passed(self) -> bool:
        return all(r.status == "pass" for r in self.results)

    def to_structured(self) -> dict:
        return {
            "schema": self.schema,
            "seed": self.seed,
            "options": self.options,
            "checks": [
                {
                    "id": r.check_id,
                    "kind": r.kind,
                    "status": r.status,
                    "details": r.details,
                    "identities": sorted(r.identities),
                }
                for r in self.results
            ],
            "summary": {
                "pass": sum(1 for r in self.results if r.status == "pass"),
                "fail": sum(1 for r in self.results if r.status == "fail"),
                "error": sum(1 for r in self.results if r.status == "error"),
                "status": "pass" if self.all_passed else "fail",
            },
        }


def _mono_dict(mono) -> dict[str, int]:
    return {g.name(): e for g, e in mono.exps}


def _instance_for(scn: Scenario, chk: dict) -> ComparatorInstance:
    key = (chk["arch"], chk["character"])
    if key not in scn.instances:
        char = scn.characters[chk["character"]]
        scn.instances[key] = ComparatorInstance(
            ap=scn.arch_params[chk["arch"]], exp_pairs=char["pairs"], kappa=char["kappa"]
        )
    return scn.instances[key]


# A check runner returns (status, details, identity tags).
Outcome = tuple[str, dict, tuple[str, ...]]


def _run_critical(scn: Scenario, chk: dict) -> Outcome:
    analysis = _instance_for(scn, chk).analysis
    crit = analysis.window
    details = {
        "exponents": list(analysis.exponents),
        "weight": analysis.tensor.weight,
        "range": [crit.lo, crit.hi],
        "points": list(crit.points()),
    }
    status = "pass"
    if "expect" in chk and list(chk["expect"]) != [crit.lo, crit.hi]:
        status = "fail"
        details["expected"] = list(chk["expect"])
    return status, details, ("critical-window",)


def _run_signature(scn: Scenario, chk: dict) -> Outcome:
    analysis = _instance_for(scn, chk).analysis
    n = analysis.ap.n
    split_ok = True
    for t in analysis.ap.phi().sorted_members():
        table = split_indices(n, analysis.counts_hodge[t])
        if table.rank_n_sum != 1 or table.rank_1_sum != n:
            split_ok = False
    ok = analysis.counts_arch == analysis.counts_hodge and split_ok
    return (
        "pass" if ok else "fail",
        {
            "arch_counts": analysis.counts_arch,
            "hodge_counts": analysis.counts_hodge,
            "split_sums_ok": split_ok,
        },
        ("signature-dictionary", "split-index-table"),
    )


def _run_weights(scn: Scenario, chk: dict) -> Outcome:
    mu = scn.weights[chk["weight"]]
    psi = scn.infinity_types[chk["infinity_type"]]
    sig = scn.signatures[chk["signature"]]
    details: dict[str, Any] = {"dominant": is_dominant(mu)}
    ok = details["dominant"]
    if ok:
        lam = doubling_weight(mu, psi, sig)
        details["doubling_block_dominant"] = is_block_dominant(lam, sig)
        kappa = chk.get("kappa", 0)
        details["sharp_paths_agree"] = sharp_dual_weight(mu, kappa) == sharp_dual_composite(mu, kappa)
        ok = details["doubling_block_dominant"] and details["sharp_paths_agree"]
        equiv_fail = []
        for g in sorted(scn.model.group):
            lhs = doubling_weight(
                conjugate_weight(mu, g, scn.model),
                conjugate_infinity_type(psi, scn.model.inverse_name(g)),
                sig.conjugated(scn.model, g),
            )
            if lhs != conjugate_weight(lam, g, scn.model):
                equiv_fail.append(g)
        details["equivariance_failures"] = equiv_fail
        ok = ok and not equiv_fail
    return (
        "pass" if ok else "fail",
        details,
        ("doubling-parameter", "sharp-dual-construction", "conjugation-equivariance"),
    )


def _run_lemma_d(scn: Scenario, chk: dict) -> Outcome:
    n_max = chk.get("n_max", 12)
    kappa_max = chk.get("kappa_max", 4)
    d_max = chk.get("d_max", 3)
    m_extra = chk.get("m_extra", 6)
    checked = 0
    mismatches = []
    for n in range(1, n_max + 1):
        for kappa in range(0, kappa_max + 1):
            for d in range(1, d_max + 1):
                # Integers m with n - kappa/2 < m <= n + m_extra.
                for m in range((2 * n - kappa) // 2 + 1, n + m_extra + 1):
                    closed = normalizing_factor_closed(n, m, kappa, d)
                    product = normalizing_factor_product(n, m, kappa, d)
                    checked += 1
                    if closed != product:
                        mismatches.append([n, m, kappa, d])
    return (
        "pass" if checked and not mismatches else "fail",
        {"checked": checked, "mismatches": mismatches},
        ("normalizing-factor-closed-form", "finite-order-period-factorization"),
    )


def _run_compare(scn: Scenario, chk: dict) -> Outcome:
    inst = _instance_for(scn, chk)
    level = scn.options.level_enum()
    tate = scn.options.tate_enabled()
    report = compare_automorphic_motivic(inst, level=level, tate=tate)
    points = [
        {
            "m": p.m,
            "equivalent": p.equivalent,
            "residual": _mono_dict(p.residual),
            "pi_half_expected_shift": p.pi_half_expected_shift,
            "pi_half_observed_shift": p.pi_half_observed_shift,
            "printed_pi_exponent_integral": p.printed_pi_exponent_integral,
        }
        for p in report.points
    ]
    aux = standard_vs_refined(
        n=inst.ap.n,
        m=max((p.m for p in report.points), default=inst.ap.n + 1),
        d_plus=inst.model.degree_plus,
        a0=chk.get("a0", 0),
        variant=scn.options.d_exponent,
        level=level,
    )
    details = {
        "points": points,
        "vacuous": report.vacuous,
        "signature": {t: c for t, c in report.signature},
        "tate": tate,
        "level": scn.options.level,
        "d_exponent_variant": scn.options.d_exponent,
        "standard_vs_refined": {
            "equivalent": aux.equivalent,
            "residual": _mono_dict(aux.residual),
        },
    }
    return "pass" if report.all_equivalent else "fail", details, report.identity_tags


def _run_basechange(scn: Scenario, chk: dict) -> Outcome:
    m_max = chk.get("m_max", 3)
    total = failures = coordinatewise = 0
    for rep in bc.sweep_commutativity(m_max, odd_rank=chk.get("odd_rank", False)):
        total += 1
        coordinatewise += rep.values_equal_as_tuples
        if not rep.weyl_equivalent:
            failures += 1
    details: dict[str, Any] = {
        "checked": total,
        "failures": failures,
        # weyl_equivalent short-circuits on coordinatewise equality, so
        # the orbit comparison decides only the remaining checks.
        "decided_by": {"coordinatewise": coordinatewise, "weyl_orbit": total - coordinatewise},
    }
    ok = failures == 0 and total > 0
    if chk.get("witness", True) and m_max >= 2:
        witness = bc.commutativity_check(
            bc.UnramChar(bc.USide(2), (bc.qval(2, 0), bc.qval(1, 1))), -1
        )
        details["witness"] = {
            "pattern_direct": [[e.numerator, e.denominator] for e in witness.pattern_direct],
            "pattern_via_bc": [[e.numerator, e.denominator] for e in witness.pattern_via_bc],
            "patterns_equal_as_tuples": witness.patterns_equal_as_tuples,
            "patterns_weyl_equivalent": witness.patterns_weyl_equivalent,
            "weyl_equivalent": witness.weyl_equivalent,
        }
        ok = ok and (not witness.patterns_equal_as_tuples) and witness.patterns_weyl_equivalent
    return (
        "pass" if ok else "fail",
        details,
        ("modulus-half-exponents", "base-change-on-satake-data", "twist-commutativity"),
    )


def _run_ephi(scn: Scenario, chk: dict) -> Outcome:
    family = scn.family if scn.family is not None else regular_family(scn.model)
    details: dict[str, Any] = {}
    failures = []
    for phi in scn.model.cm_types():
        signs = displacement_sign_family(scn.model, phi, family)
        stab = {
            g for g in scn.model.group if conjugate_cm_type(scn.model, phi, g) == phi
        }
        rep = displacement_sign_invariance_check(scn.model, phi, family, stab)
        if not rep.passed:
            failures.append(sorted(phi.members))
        if phi == scn.cm_type:
            details["signs"] = signs
            details["stabilizer"] = sorted(stab)
    details["cm_types_checked"] = 2 ** scn.model.degree_plus
    details["failures"] = failures
    return (
        "pass" if not failures else "fail",
        details,
        ("displacement-sign-family", "stabilizer-invariance"),
    )


_CHECK_RUNNERS = {
    "critical": _run_critical,
    "signature": _run_signature,
    "weights": _run_weights,
    "lemma_d": _run_lemma_d,
    "compare": _run_compare,
    "basechange": _run_basechange,
    "ephi": _run_ephi,
}


def _report(scn: Scenario, jobs, **options) -> Report:
    """Run ``(id, kind, job)`` triples in order, each job returning an outcome.

    A job that raises is recorded as an error with the exception's type and
    text; it never aborts the batch or contaminates the other results.
    """
    started = time.perf_counter()
    results = []
    for check_id, kind, job in jobs:
        try:
            results.append(CheckResult(check_id, kind, *job()))
        except Exception as exc:  # the batch outlives any one broken check
            results.append(
                CheckResult(check_id, kind, "error", {"error": f"{type(exc).__name__}: {exc}"})
            )
    return Report(
        schema=REPORT_SCHEMA,
        seed=scn.options.seed,
        options={
            "level": scn.options.level,
            "tate": scn.options.tate,
            "d_exponent": scn.options.d_exponent,
            **options,
        },
        results=results,
        elapsed=time.perf_counter() - started,
    )


def run_checks(scn: Scenario) -> Report:
    """Execute the scenario's checks in declaration order."""
    return _report(
        scn,
        [(chk["id"], chk["kind"], partial(_CHECK_RUNNERS[chk["kind"]], scn, chk)) for chk in scn.checks],
    )


def _sweep_outcome(name: str, sweep) -> Outcome:
    stats = sweep()
    details = {
        "instances": stats.instances,
        "points_checked": stats.points_checked,
        "vacuous": stats.vacuous,
        "failures": stats.failures[:20],
    }
    return "pass" if stats.ok else "fail", details, (f"sweep:{name}",)


def run_sweeps(scn: Scenario) -> Report:
    """Randomized property sweeps driven by the scenario's seed and bounds."""
    seed = scn.options.seed
    count = scn.options.sweep_count
    bounds = scn.options.sweep
    level = scn.options.level_enum()
    tate = scn.options.tate_enabled()
    sweeps = [
        ("compare", partial(run_compare_sweep, seed, count, bounds, level, tate)),
        ("bounds", partial(run_bounds_sweep, seed + 1, count, bounds)),
        ("signature", partial(run_signature_sweep, seed + 2, count, bounds)),
        ("dominance", partial(run_dominance_sweep, seed + 3, count)),
        ("equivariance", partial(run_equivariance_sweep, seed + 4, max(1, count // 10), bounds, level, tate)),
    ]
    jobs = [
        (f"sweep-{name}", name if name in CHECK_KINDS else "compare", partial(_sweep_outcome, name, sweep))
        for name, sweep in sweeps
    ]
    return _report(scn, jobs, count=count)


def emit_report(report: Report, fmt: str = "structured") -> str:
    """Render a report; the structured form is byte-deterministic."""
    if fmt == "structured":
        return json.dumps(report.to_structured(), sort_keys=True, indent=2) + "\n"
    if fmt != "text":
        raise ScenarioError(f"unknown report format {fmt!r}")
    lines = [f"report {report.schema} (seed {report.seed})"]
    for r in report.results:
        lines.append(f"[{r.status.upper():5s}] {r.check_id} ({r.kind})")
        for tag in sorted(r.identities):
            lines.append(f"         identity: {tag}")
        for key in sorted(r.details):
            lines.append(f"         {key}: {r.details[key]}")
    summary = report.to_structured()["summary"]
    lines.append(
        f"summary: {summary['pass']} passed, {summary['fail']} failed, "
        f"{summary['error']} errored in {report.elapsed:.2f}s"
    )
    return "\n".join(lines) + "\n"
