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
import reprlib
import time
from dataclasses import dataclass, field, fields
from functools import partial
from fractions import Fraction
from typing import Any, Iterator

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
from .hecke import InfinityType
from .hodge import ArchParams, InstanceAnalysis, analyze_instance, split_index_failures
from .periods import (
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
    doubling_equivariance_failures,
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
    instances: dict[tuple[str, str], InstanceAnalysis] = field(default_factory=dict)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int(value: Any, where: str) -> int:
    if not _is_int(value):
        raise ScenarioError(f"{where} must be an integer, got {value!r}")
    return value


def _int_pair(value: Any, where: str) -> tuple[int, int]:
    if not (isinstance(value, list) and len(value) == 2 and all(_is_int(x) for x in value)):
        raise ScenarioError(f"{where} must be a list of two integers, got {value!r}")
    return value[0], value[1]


def _fraction(value: Any, where: str) -> Fraction:
    if _is_int(value):
        return Fraction(value)
    if isinstance(value, list) and len(value) == 2 and all(_is_int(x) for x in value):
        if value[1]:
            return Fraction(value[0], value[1])
    raise ScenarioError(f"{where}: rationals must be integers or [num, den] pairs with den != 0")


def _shaped(value: Any, shape: type, where: str) -> Any:
    """``value`` if it is a JSON object (``dict``) or array (``list``) as required."""
    if not isinstance(value, shape):
        name = "an object" if shape is dict else "an array"
        raise ScenarioError(f"{where} must be {name}, got {reprlib.repr(value)}")
    return value


def _member(spec: dict, key: str, where: str) -> dict:
    return _shaped(spec[key], dict, f"{where}.{key}")


def _names(value: Any, where: str) -> list[str]:
    """``value`` if it is a JSON array of strings."""
    for i, name in enumerate(_shaped(value, list, where)):
        if not isinstance(name, str):
            raise ScenarioError(f"{where}[{i}] must be a string, got {reprlib.repr(name)}")
    return value


def _named(raw: dict, block: str) -> Iterator[tuple[str, str, dict]]:
    """(name, place, spec) for each entry of a top-level block of named objects."""
    for name, spec in _shaped(raw.get(block, {}), dict, block).items():
        yield name, f"{block}.{name}", _shaped(spec, dict, f"{block}.{name}")


BUILTIN_MODELS = {
    "cyclic": cyclic_model,
    "dihedral": dihedral_model,
}


def _parse_model(spec: Any) -> CMFieldModel:
    if "builtin" in _shaped(spec, dict, "field_model"):
        name = spec["builtin"]
        if name == "klein":
            return klein_model()
        kind, _, arg = str(name).partition(":")
        if kind in BUILTIN_MODELS and arg.isdigit():
            return BUILTIN_MODELS[kind](int(arg))
        raise ScenarioError(f"unknown builtin field model {name!r}")
    try:
        return CMFieldModel(
            embeddings=tuple(_names(spec["embeddings"], "field_model.embeddings")),
            conj=dict(_member(spec, "conj", "field_model")),
            group={
                name: dict(_shaped(perm, dict, f"field_model.group.{name}"))
                for name, perm in _member(spec, "group", "field_model").items()
            },
        )
    except KeyError as exc:
        raise ScenarioError(f"field_model is missing key {exc}") from exc


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
    if chk["kind"] == "critical" and "expect" in chk:
        _int_pair(chk["expect"], f"{where}: expect")
    for name, block in _CHECK_REFS.get(chk["kind"], ()):
        ref = chk.get(name)
        if not isinstance(ref, str) or ref not in blocks[block]:
            raise ScenarioError(f"{where}: {name} must be a name defined in {block}, got {ref!r}")
    for name in _INT_FIELDS.get(chk["kind"], ()):
        if name in chk:
            _int(chk[name], f"{where}: {name}")


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
    _shaped(raw, dict, "scenario")
    if raw.get("schema") != SCENARIO_SCHEMA:
        raise ScenarioError(f"expected schema {SCENARIO_SCHEMA!r}, got {raw.get('schema')!r}")
    try:
        model = _parse_model(raw.get("field_model", {"builtin": "cyclic:1"}))
        if "cm_type" in raw:
            cm_type = CMType(frozenset(_names(raw["cm_type"], "cm_type")))
        else:
            cm_type = model.canonical_cm_type()
        cm_type.validate(model)
        family = None
        fam_spec = raw.get("emb_family")
        if fam_spec == {"builtin": "regular"} or fam_spec == "regular":
            family = regular_family(model)
        elif fam_spec is not None:
            action = _member(_shaped(fam_spec, dict, "emb_family"), "action", "emb_family")
            family = EmbFamilyModel(
                points=tuple(_names(fam_spec["points"], "emb_family.points")),
                base=fam_spec["base"],
                action={g: dict(_shaped(p, dict, f"emb_family.action.{g}")) for g, p in action.items()},
            )
            family.validate(model)

        signatures = {}
        for name, where, spec in _named(raw, "signatures"):
            pairs = _member(spec, "pairs", where)
            pairs = {t: _int_pair(rs, f"{where}.pairs.{t}") for t, rs in pairs.items()}
            signatures[name] = Signature(pairs, _int(spec["n"], f"{where}.n"))
        weight_params = {}
        for name, where, spec in _named(raw, "weights"):
            rows = {
                t: tuple(_int(a, f"{where}.entries.{t}") for a in _shaped(row, list, f"{where}.entries.{t}"))
                for t, row in _member(spec, "entries", where).items()
            }
            a0, n = _int(spec["a0"], f"{where}.a0"), _int(spec["n"], f"{where}.n")
            weight_params[name] = WeightParam(rows, a0, n)
        infinity_types = {
            name: InfinityType({t: _int(v, f"{where}.{t}") for t, v in spec.items()}, model)
            for name, where, spec in _named(raw, "infinity_types")
        }
        arch_params = {}
        for name, where, spec in _named(raw, "arch_params"):
            entries = {
                t: tuple(_fraction(x, f"{where}.{t}") for x in _shaped(row, list, f"{where}.{t}"))
                for t, row in _member(spec, "entries", where).items()
            }
            arch_params[name] = ArchParams(entries, _int(spec["n"], f"{where}.n"), model)
        characters = {}
        for name, where, spec in _named(raw, "characters"):
            pairs = _member(spec, "pairs", where)
            pairs = {t: _int_pair(p, f"{where}.pairs.{t}") for t, p in pairs.items()}
            characters[name] = {"pairs": pairs, "kappa": _int(spec.get("kappa", 0), f"{where}.kappa")}

        opts_raw = _shaped(raw.get("options", {}), dict, "options")
        sweep_raw = _shaped(opts_raw.get("sweep", {}), dict, "options.sweep")
        bound_names = [f.name for f in fields(SweepBounds)]
        for key in ("count", *bound_names):
            if key in sweep_raw:
                _int(sweep_raw[key], f"options.sweep.{key}")
        options = Options(
            level=opts_raw.get("level", "fgal"),
            tate=opts_raw.get("tate", "on"),
            d_exponent=opts_raw.get("d_exponent", "thm"),
            fmt=opts_raw.get("format", "structured"),
            seed=_int(raw.get("seed", 0), "seed"),
            sweep=SweepBounds(**{k: sweep_raw[k] for k in bound_names if k in sweep_raw}),
            sweep_count=sweep_raw.get("count", 200),
        )
        options.level_enum()
        options.tate_enabled()
        if options.d_exponent not in ("thm", "intro"):
            raise ScenarioError(f"d_exponent must be 'thm' or 'intro', got {options.d_exponent!r}")
        if options.fmt not in ("structured", "text"):
            raise ScenarioError(f"format must be 'structured' or 'text', got {options.fmt!r}")

        blocks = {
            "arch_params": arch_params,
            "characters": characters,
            "weights": weight_params,
            "infinity_types": infinity_types,
            "signatures": signatures,
        }
        checks = []
        for idx, chk in enumerate(_shaped(raw.get("checks", []), list, "checks")):
            kind = _shaped(chk, dict, f"checks[{idx}]").get("kind")
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
    except (LookupError, TypeError, ValueError) as exc:
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


def _instance_for(scn: Scenario, chk: dict) -> InstanceAnalysis:
    key = (chk["arch"], chk["character"])
    if key not in scn.instances:
        char = scn.characters[chk["character"]]
        scn.instances[key] = analyze_instance(
            scn.arch_params[chk["arch"]], char["pairs"], char["kappa"]
        )
    return scn.instances[key]


# A check runner returns (status, details, identity tags).
Outcome = tuple[str, dict, tuple[str, ...]]


def _run_critical(scn: Scenario, chk: dict) -> Outcome:
    analysis = _instance_for(scn, chk)
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
    analysis = _instance_for(scn, chk)
    split_ok = not split_index_failures(analysis)
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
        equiv_fail = doubling_equivariance_failures(mu, psi, sig, lam)
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
    analysis = _instance_for(scn, chk)
    level = scn.options.level_enum()
    tate = scn.options.tate_enabled()
    report = compare_automorphic_motivic(analysis, level=level, tate=tate)
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
        n=analysis.ap.n,
        m=max((p.m for p in report.points), default=analysis.ap.n + 1),
        d_plus=analysis.model.degree_plus,
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
    jobs = [(f"sweep-{name}", name, partial(_sweep_outcome, name, sweep)) for name, sweep in sweeps]
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
