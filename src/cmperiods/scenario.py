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
import random
import reprlib
import time
from functools import partial
from fractions import Fraction
from itertools import islice
from types import SimpleNamespace
from typing import Any, Iterator, NamedTuple

from . import basechange as bc
from .cmfield import (
    CMFieldModel,
    CMType,
    EmbFamilyModel,
    cyclic_model,
    dihedral_model,
    displacement_sign_invariance,
    klein_model,
    regular_family,
)
from .errors import CMPeriodsError, InvalidCMTypeError, ScenarioError
from .hecke import InfinityType
from .hodge import (
    MAX_WINDOW_POINTS,
    ArchParams,
    InstanceAnalysis,
    analyze_instance,
    arch_row_defect,
    split_index_failures,
)
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
    seeded_instances,
    weight_data,
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
# The top-level blocks of named entries.
BLOCKS = ("signatures", "weights", "infinity_types", "arch_params", "characters")


class StringOption(NamedTuple):
    values: tuple[str, ...]
    default: str
    help: str  # the command-line flag's help text


# The string options, keyed as in a scenario's ``options`` and, with ``-`` for ``_``, on the command line.
STRING_OPTIONS = {
    "level": StringOption(("q", "fgal", "e"), "fgal", "rationality level"),
    "tate": StringOption(("on", "off"), "on", "enable the conditional period dictionary"),
    "d_exponent": StringOption(("thm", "intro"), "thm", "discriminant-exponent variant of the standard period side"),
    "format": StringOption(("structured", "text"), "structured", "report format"),
}


class CheckField(NamedTuple):
    """How a check reads one field, and its value where the check leaves it out."""

    type: str  # "name", "int", "bool" (a JSON boolean) or "pair" (a list of two integers)
    default: Any = None  # a name has none: it is required
    least: int | None = None  # an int's least value, if it has one
    most: int | None = None  # an int's greatest value, if it has one
    block: str | None = None  # the block that must define a name


_INSTANCE_FIELDS = {
    "arch": CheckField("name", block="arch_params"),
    "character": CheckField("name", block="characters"),
}
# Each check kind with every field it reads.
CHECK_FIELDS = {
    "critical": {**_INSTANCE_FIELDS, "expect": CheckField("pair")},
    "signature": _INSTANCE_FIELDS,
    "weights": {
        "weight": CheckField("name", block="weights"),
        "infinity_type": CheckField("name", block="infinity_types"),
        "signature": CheckField("name", block="signatures"),
        "kappa": CheckField("int", 0),
    },
    "lemma_d": {
        "n_max": CheckField("int", 12, least=1, most=64),
        "kappa_max": CheckField("int", 4, least=0, most=16),
        "d_max": CheckField("int", 3, least=1, most=8),
        "m_extra": CheckField("int", 6, most=16),
    },
    "compare": {**_INSTANCE_FIELDS, "a0": CheckField("int", 0)},
    "basechange": {
        "m_max": CheckField("int", 3, least=1, most=64),
        "odd_rank": CheckField("bool", False),
        "witness": CheckField("bool", True),
    },
    "ephi": {},
}
CHECK_KINDS = tuple(CHECK_FIELDS)
_BOUNDS = SweepBounds._field_defaults
# Each field of ``options.sweep``: the instance count and the bounds a sweep draws from.
SWEEP_FIELDS = {
    "count": CheckField("int", 200, least=1),
    "n_max": CheckField("int", _BOUNDS["n_max"], least=1),
    # A draw redraws every place while any place is degenerate: about 2 passes at d 8, 1,400 at 45.
    "d_max": CheckField("int", _BOUNDS["d_max"], least=1, most=8),
    "two_a_max": CheckField("int", _BOUNDS["two_a_max"]),
    "m_max": CheckField("int", _BOUNDS["m_max"], least=0),
    "kappa_max": CheckField("int", _BOUNDS["kappa_max"], least=0),
}


class Options(SimpleNamespace):
    """The run options: ``level``, ``tate``, ``d_exponent``, ``format``,
    ``seed``, ``sweep`` (a ``SweepBounds``) and ``sweep_count``."""

    def level_enum(self) -> Level:
        return Level.FGAL if self.level == "fgal" else Level.Q

    def tate_enabled(self) -> bool:
        return self.tate == "on"


class Scenario(NamedTuple):
    model: CMFieldModel
    cm_type: CMType
    family: EmbFamilyModel | None
    # The named entries of each block in BLOCKS, by block and then by name.
    blocks: dict[str, dict]
    checks: list[dict]
    options: Options
    # The analysis of each (arch, character) pair a check names, made once
    # at parse time, so checks on the same pair share it.
    instances: dict[tuple[str, str], InstanceAnalysis]


# Every scenario integer x has |x| < INT_BOUND, so that report integers, small multiples
# of them or their products with the rank, stay within the 4,300 digits Python prints.
INT_BOUND = 10**1000


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and -INT_BOUND < value < INT_BOUND


def _got(value: Any) -> str:
    """``repr(value)``, but an integer past the bound, alone or in a list, is named by the bound."""
    items = value if isinstance(value, list) else [value]
    shown = ["an integer with |x| >= 10**1000" if isinstance(x, int) and not -INT_BOUND < x < INT_BOUND
             else repr(x) for x in items]
    return f"[{', '.join(shown)}]" if isinstance(value, list) else shown[0]


def _int(value: Any, where: str) -> int:
    if not _is_int(value):
        raise ScenarioError(f"{where} must be an integer, got {_got(value)}")
    return value


def _is_pair(value: Any) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(_is_int(x) for x in value)


def _int_pair(value: Any, where: str) -> tuple[int, int]:
    if not _is_pair(value):
        raise ScenarioError(f"{where} must be a list of two integers, got {_got(value)}")
    return value[0], value[1]


def _fraction(value: Any, where: str) -> Fraction:
    if _is_int(value):
        return Fraction(value)
    if _is_pair(value) and value[1]:
        return Fraction(value[0], value[1])
    raise ScenarioError(f"{where}: rationals must be integers or [num, den] pairs with den != 0")


def _doubled(value: Any, where: str) -> int:
    """Twice a half-integer rational, the form in which parameters are stored."""
    twice = 2 * _fraction(value, where)
    if twice.denominator != 1:
        raise ScenarioError(f"{where}: rationals must be half-integers, got {value!r}")
    return twice.numerator


def _shaped(value: Any, shape: type, where: str) -> Any:
    """``value`` if it is a JSON object (``dict``) or array (``list``) as required."""
    if not isinstance(value, shape):
        name = "an object" if shape is dict else "an array"
        raise ScenarioError(f"{where} must be {name}, got {reprlib.repr(value)}")
    return value


def _required(spec: dict, key: str, where: str) -> Any:
    """``spec[key]``, which the scenario must give."""
    if key not in spec:
        raise ScenarioError(f"{where}.{key} is missing")
    return spec[key]


def _member(spec: dict, key: str, where: str) -> dict:
    return _shaped(_required(spec, key, where), dict, f"{where}.{key}")


def _names(value: Any, where: str) -> list[str]:
    """``value`` if it is a JSON array of strings."""
    for i, name in enumerate(_shaped(value, list, where)):
        if not isinstance(name, str):
            raise ScenarioError(f"{where}[{i}] must be a string, got {reprlib.repr(name)}")
    return value


def _known_keys(spec: dict, known: tuple[str, ...], where: str, noun: str) -> None:
    """Reject the first key of ``spec`` outside ``known``, so that a misspelt key cannot fall back to a default."""
    for key in spec:
        if key not in known:
            raise ScenarioError(f"{where}: unknown {noun} {key!r}")


def _named(raw: dict, block: str, keys: tuple[str, ...] | None) -> Iterator[tuple[str, str, dict]]:
    """(name, place, spec) for each entry of a top-level block of named objects.

    ``keys`` are the keys an entry may have, or None where the caller checks them.
    """
    for name, spec in _shaped(raw.get(block, {}), dict, block).items():
        where = f"{block}.{name}"
        _shaped(spec, dict, where)
        if keys is not None:
            _known_keys(spec, keys, where, "key")
        yield name, where, spec


def _embedding_keys(entries: dict, model: CMFieldModel, where: str) -> None:
    for t in entries:
        if t not in model.conj:
            raise ScenarioError(f"{where}: {t!r} is not an embedding of the field model")


def _per_place(spec: dict, key: str, model: CMFieldModel, where: str, read=None) -> dict:
    """The object ``spec[key]``, keyed by the places of a CM type, with each value read by ``read``."""
    entries, where = _member(spec, key, where), f"{where}.{key}"
    _embedding_keys(entries, model, where)
    try:
        CMType(frozenset(entries)).validate(model)
    except InvalidCMTypeError as exc:
        raise ScenarioError(f"{where}: keys {sorted(entries)} are not a CM type: {exc}") from exc
    return {t: read(v, f"{where}.{t}") for t, v in entries.items()} if read else entries


BUILTIN_MODELS = {
    "cyclic": cyclic_model,
    "dihedral": dihedral_model,
}


# The most conjugate pairs a field model may have: building a model is cubic in
# them (3.2 s at 100), and an ephi check walks all 2**pairs CM types (0.44 s at 12).
MAX_MODEL_PAIRS = 12


def _model_size(size: int) -> None:
    if size > 2 * MAX_MODEL_PAIRS:
        raise ScenarioError(f"field_model must have at most {MAX_MODEL_PAIRS} conjugate pairs, got {size} embeddings")


def _parse_model(spec: Any) -> CMFieldModel:
    if "builtin" in _shaped(spec, dict, "field_model"):
        _known_keys(spec, ("builtin",), "field_model", "key")
        name = spec["builtin"]
        if name == "klein":
            return klein_model()
        kind, _, arg = str(name).partition(":")
        if kind in BUILTIN_MODELS and arg.isdigit():
            _model_size(2 * int(arg))  # cyclic and dihedral models of degree d have 2d embeddings
            return BUILTIN_MODELS[kind](int(arg))
        raise ScenarioError(f"unknown builtin field model {name!r}")
    _known_keys(spec, ("embeddings", "conj", "group"), "field_model", "key")
    embeddings = _names(_required(spec, "embeddings", "field_model"), "field_model.embeddings")
    _model_size(len(embeddings))
    return CMFieldModel(
        embeddings=tuple(embeddings),
        conj=dict(_member(spec, "conj", "field_model")),
        group={
            name: dict(_shaped(perm, dict, f"field_model.group.{name}"))
            for name, perm in _member(spec, "group", "field_model").items()
        },
    )


def _parse_family(spec: Any, model: CMFieldModel) -> EmbFamilyModel:
    if spec == "regular":
        return regular_family(model)
    if "builtin" in _shaped(spec, dict, "emb_family"):
        _known_keys(spec, ("builtin",), "emb_family", "key")
        if spec["builtin"] != "regular":
            raise ScenarioError(f"unknown builtin emb_family {spec['builtin']!r}")
        return regular_family(model)
    _known_keys(spec, ("points", "base", "action"), "emb_family", "key")
    action = _member(spec, "action", "emb_family")
    family = EmbFamilyModel(
        points=tuple(_names(_required(spec, "points", "emb_family"), "emb_family.points")),
        base=_required(spec, "base", "emb_family"),
        action={g: dict(_shaped(p, dict, f"emb_family.action.{g}")) for g, p in action.items()},
    )
    family.validate(model)
    return family


# The blocks keyed by the places of a CM type, with each entry's keyed mapping.
# The entries one check refers to from these blocks must share their places.
_PLACE_KEYED = {
    "arch_params": lambda ap: ap.doubled,
    "characters": lambda char: char["pairs"],
    "weights": lambda mu: mu.entries,
    "signatures": lambda sig: sig.pairs,
}


def _check_value(chk: dict, name: str, spec: CheckField, place: str, blocks: dict[str, dict]) -> Any:
    """Field ``name`` of ``chk``, or its default where ``chk`` leaves it out; ``place`` names it in errors."""
    if name not in chk and spec.type != "name":
        return spec.default
    value = chk.get(name)
    if spec.type == "name":
        ok, wanted = isinstance(value, str) and value in blocks[spec.block], f"a name defined in {spec.block}"
    elif spec.type == "int":
        ok = _is_int(value) and (spec.least is None or value >= spec.least)
        ok = ok and (spec.most is None or value <= spec.most)
        if spec.most is None:
            wanted = "an integer" if spec.least is None else f"an integer >= {spec.least}"
        elif spec.least is None:
            wanted = f"an integer <= {spec.most}"
        else:
            wanted = f"an integer from {spec.least} to {spec.most}"
    elif spec.type == "bool":
        ok, wanted = isinstance(value, bool), "true or false"
    else:
        ok, wanted = _is_pair(value), "a list of two integers"
    if not ok:
        raise ScenarioError(f"{place} must be {wanted}, got {_got(value)}")
    return value


def _check_fields(chk: dict, kind: str, where: str, blocks: dict[str, dict]) -> dict:
    """Every field of the check's kind, or of ``options.sweep`` for kind "sweep", read or defaulted."""
    spec = SWEEP_FIELDS if kind == "sweep" else CHECK_FIELDS[kind]
    place = "{}.{}" if kind == "sweep" else "{}: {}"
    values = {name: _check_value(chk, name, spec[name], place.format(where, name), blocks) for name in spec}
    places = {
        name: sorted(_PLACE_KEYED[spec[name].block](blocks[spec[name].block][values[name]]))
        for name in spec
        if spec[name].block in _PLACE_KEYED
    }
    if len({tuple(keys) for keys in places.values()}) > 1:
        named = " and ".join(f"{name} {values[name]!r} on {keys}" for name, keys in places.items())
        raise ScenarioError(f"{where}: {named} must be keyed by the same places")
    if kind == "weights":
        mu, sig = blocks["weights"][values["weight"]], blocks["signatures"][values["signature"]]
        if mu.n != sig.n:
            raise ScenarioError(
                f"{where}: weight {values['weight']!r} of rank {mu.n} and signature"
                f" {values['signature']!r} of rank {sig.n} must have the same rank"
            )
    if kind == "lemma_d":
        # Each (n, kappa, d) contributes m_extra + ceil(kappa/2) values of m
        # when that is positive, so the grid is empty unless it is at kappa_max.
        kappa_max, m_extra = values["kappa_max"], values["m_extra"]
        least = 1 - (kappa_max + 1) // 2
        if m_extra < least:
            raise ScenarioError(
                f"{where}: m_extra must be at least {least} for kappa_max {kappa_max}, got {m_extra}"
            )
    if kind == "sweep":
        # A draw is redrawn while some place t has a row A = kappa - 2(m_t - m_tbar).
        # A rank-n row takes n of at least two_a_max values, so at twice n_max a place
        # is degenerate with chance at most 1/2, and a draw takes at most 2**d_max passes.
        if values["two_a_max"] < 2 * values["n_max"]:
            raise ScenarioError(
                f"{where}.two_a_max must be at least twice {where}.n_max ({values['n_max']}),"
                f" got {values['two_a_max']}"
            )
        # A draw's window holds min |A + 2(m_t - m_tbar) - kappa| points over its places
        # and rows, with |A| <= two_a_max and |m_t - m_tbar| <= 2 m_max.
        widest = values["two_a_max"] + 4 * values["m_max"] + values["kappa_max"]
        if widest > MAX_WINDOW_POINTS:
            raise ScenarioError(
                f"{where}: two_a_max + 4 * m_max + kappa_max must be at most {MAX_WINDOW_POINTS},"
                f" the most points a critical window may hold, got {widest}"
            )
    return values


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
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"malformed scenario: {exc.msg}", line=exc.lineno, column=exc.colno) from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not UTF-8: {exc.reason} at byte {exc.start}") from exc
    except (RecursionError, ValueError) as exc:  # nesting or an integer past Python's own limits
        raise ScenarioError(f"malformed scenario: {exc}") from exc
    _shaped(raw, dict, "scenario")
    if raw.get("schema") != SCENARIO_SCHEMA:
        raise ScenarioError(f"expected schema {SCENARIO_SCHEMA!r}, got {_got(raw.get('schema'))}")
    top_keys = ("schema", "seed", "field_model", "cm_type", "emb_family", *BLOCKS, "options", "checks")
    _known_keys(raw, top_keys, "scenario", "key")
    try:
        model = _parse_model(raw.get("field_model", {"builtin": "cyclic:1"}))
        if "cm_type" in raw:
            cm_type = CMType(frozenset(_names(raw["cm_type"], "cm_type")))
        else:
            cm_type = model.canonical_cm_type()
        cm_type.validate(model)
        fam_spec = raw.get("emb_family")
        family = None if fam_spec is None else _parse_family(fam_spec, model)

        blocks = {block: {} for block in BLOCKS}
        signatures, weight_params, infinity_types, arch_params, characters = blocks.values()
        for name, where, spec in _named(raw, "signatures", ("n", "pairs")):
            pairs = _per_place(spec, "pairs", model, where, _int_pair)
            signatures[name] = Signature(pairs, _int(_required(spec, "n", where), f"{where}.n"))
        for name, where, spec in _named(raw, "weights", ("n", "a0", "entries")):
            rows = _per_place(
                spec, "entries", model, where, lambda row, at: tuple(_int(a, at) for a in _shaped(row, list, at))
            )
            a0, n = (_int(_required(spec, key, where), f"{where}.{key}") for key in ("a0", "n"))
            weight_params[name] = WeightParam(rows, a0, n)
        for name, where, spec in _named(raw, "infinity_types", None):
            _embedding_keys(spec, model, where)
            for t in model.embeddings:
                if t not in spec:
                    raise ScenarioError(f"{where}: embedding {t!r} has no exponent")
            infinity_types[name] = InfinityType({t: _int(v, f"{where}.{t}") for t, v in spec.items()}, model)
        for name, where, spec in _named(raw, "arch_params", ("n", "entries")):
            n = _int(_required(spec, "n", where), f"{where}.n")
            doubled = {}
            for t, row in _per_place(spec, "entries", model, where).items():
                doubled[t] = tuple(_doubled(x, f"{where}.{t}") for x in _shaped(row, list, f"{where}.{t}"))
                defect = arch_row_defect(doubled[t], n)
                if defect:
                    raise ScenarioError(f"{where}.{t}: doubled parameters {defect}")
            arch_params[name] = ArchParams(doubled, n, model)
        for name, where, spec in _named(raw, "characters", ("pairs", "kappa")):
            pairs = _per_place(spec, "pairs", model, where, _int_pair)
            characters[name] = {"pairs": pairs, "kappa": _int(spec.get("kappa", 0), f"{where}.kappa")}

        opts_raw = _shaped(raw.get("options", {}), dict, "options")
        _known_keys(opts_raw, (*STRING_OPTIONS, "sweep"), "options", "key")
        sweep_raw = _shaped(opts_raw.get("sweep", {}), dict, "options.sweep")
        _known_keys(sweep_raw, tuple(SWEEP_FIELDS), "options.sweep", "key")
        sweep = _check_fields(sweep_raw, "sweep", "options.sweep", blocks)
        count = sweep.pop("count")
        strings = {key: opts_raw.get(key, option.default) for key, option in STRING_OPTIONS.items()}
        for key, value in strings.items():
            if value not in STRING_OPTIONS[key].values:
                *others, last = map(repr, STRING_OPTIONS[key].values)
                raise ScenarioError(f"{key} must be {', '.join(others)} or {last}, got {_got(value)}")
        options = Options(
            **strings, seed=_int(raw.get("seed", 0), "seed"), sweep=SweepBounds(**sweep), sweep_count=count
        )

        checks = []
        instances: dict[tuple[str, str], InstanceAnalysis] = {}
        first_of: dict[str, int] = {}  # each check id, with the index of the check it names
        for idx, chk in enumerate(_shaped(raw.get("checks", []), list, "checks")):
            kind = _shaped(chk, dict, f"checks[{idx}]").get("kind")
            if kind not in CHECK_KINDS:
                raise ScenarioError(f"checks[{idx}]: unknown kind {kind!r}")
            _known_keys(chk, ("id", "kind", *CHECK_FIELDS[kind]), f"checks[{idx}]", "field")
            values = _check_fields(chk, kind, f"checks[{idx}]", blocks)
            check_id = chk.get("id", f"{kind}-{idx}")
            if not isinstance(check_id, str) or not check_id:
                raise ScenarioError(f"checks[{idx}].id must be a non-empty string, got {_got(check_id)}")
            if check_id in first_of:
                raise ScenarioError(f"checks[{idx}].id {check_id!r} repeats checks[{first_of[check_id]}].id")
            first_of[check_id] = idx
            pair = values.get("arch"), values.get("character")
            if "arch" in values and pair not in instances:
                char = characters[pair[1]]
                try:
                    instances[pair] = analyze_instance(arch_params[pair[0]], char["pairs"], char["kappa"])
                except CMPeriodsError as exc:
                    named = f"arch {pair[0]!r} with character {pair[1]!r}"
                    raise ScenarioError(f"checks[{idx}]: {named}: {exc}") from exc
            checks.append({"id": check_id, "kind": kind, **values})
    except ScenarioError:
        raise
    except CMPeriodsError as exc:
        raise ScenarioError(f"{type(exc).__name__}: {exc}") from exc
    except (LookupError, TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed scenario: {type(exc).__name__}: {exc}") from exc

    return Scenario(
        model=model, cm_type=cm_type, family=family, blocks=blocks, checks=checks, options=options, instances=instances
    )


class CheckResult(NamedTuple):
    check_id: str
    kind: str
    status: str  # pass | fail | error
    details: dict
    identities: tuple[str, ...] = ()


class Report(NamedTuple):
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
                **{status: sum(r.status == status for r in self.results) for status in ("pass", "fail", "error")},
                "status": "pass" if self.all_passed else "fail",
            },
        }


def _mono_dict(mono) -> dict[str, int]:
    return {g.name(): e for g, e in mono.exps}


def _instance_for(scn: Scenario, chk: dict) -> InstanceAnalysis:
    return scn.instances[chk["arch"], chk["character"]]


# A check runner returns (status, details, identity tags).
Outcome = tuple[str, dict, tuple[str, ...]]


def _run_critical(scn: Scenario, chk: dict) -> Outcome:
    analysis = _instance_for(scn, chk)
    crit = analysis.window
    details = {
        "exponents": list(analysis.exponents),
        "weight": analysis.ap.n - 1 - analysis.kappa,  # the tensor's weight
        "range": [crit.lo, crit.hi],
        "points": list(crit.points()),
    }
    status = "pass"
    if chk["expect"] is not None and list(chk["expect"]) != [crit.lo, crit.hi]:
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
    mu = scn.blocks["weights"][chk["weight"]]
    psi = scn.blocks["infinity_types"][chk["infinity_type"]]
    sig = scn.blocks["signatures"][chk["signature"]]
    details: dict[str, Any] = {"dominant": is_dominant(mu)}
    ok = details["dominant"]
    if ok:
        lam = doubling_weight(mu, psi, sig)
        details["doubling_block_dominant"] = is_block_dominant(lam, sig)
        kappa = chk["kappa"]
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
    n_max, kappa_max, d_max, m_extra = chk["n_max"], chk["kappa_max"], chk["d_max"], chk["m_extra"]
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
        a0=chk["a0"],
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
    m_max = chk["m_max"]
    total, coordinatewise, failures = map(sum, zip(*(
        bc.commutativity_counts(m, eps, chk["odd_rank"]) for m in range(1, m_max + 1) for eps in (1, -1)
    )))
    details: dict[str, Any] = {
        "checked": total,
        "failures": failures,
        # weyl_equivalent short-circuits on coordinatewise equality, so
        # the orbit comparison decides only the remaining checks.
        "decided_by": {"coordinatewise": coordinatewise, "weyl_orbit": total - coordinatewise},
    }
    ok = failures == 0 and total > 0
    if chk["witness"] and m_max >= 2:
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
    reports = displacement_sign_invariance(scn.model, family)
    for rep in reports:
        if rep.phi == scn.cm_type:
            details["signs"] = rep.signs
            details["stabilizer"] = list(rep.stabilizer)
    failures = [sorted(rep.phi.members) for rep in reports if rep.failures]
    details["cm_types_checked"] = len(reports)
    details["failures"] = failures
    return (
        "pass" if not failures else "fail",
        details,
        ("displacement-sign-family", "stabilizer-invariance"),
    )


# Each check kind is run by the function ``_run_<kind>``.
_CHECK_RUNNERS = {kind: globals()[f"_run_{kind}"] for kind in CHECK_KINDS}


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
        # Reports echo every string option but the format.
        options={**{key: getattr(scn.options, key) for key in STRING_OPTIONS if key != "format"}, **options},
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
    """Randomized property sweeps over sources seeded from the scenario's seed and bounds."""
    seed = scn.options.seed
    count = scn.options.sweep_count
    bounds = scn.options.sweep
    level = scn.options.level_enum()
    tate = scn.options.tate_enabled()

    def instances(k: int) -> Iterator[InstanceAnalysis]:
        return seeded_instances(random.Random(seed + k), count, bounds)

    # Equivariance alternates instance and weight-datum draws on one stream.
    shared = random.Random(seed + 4)
    pairs = zip(seeded_instances(shared, max(1, count // 10), bounds), weight_data(shared, 4))
    sweeps = [
        ("compare", partial(run_compare_sweep, instances(0), level, tate)),
        ("bounds", partial(run_bounds_sweep, instances(1))),
        ("signature", partial(run_signature_sweep, instances(2))),
        ("dominance", partial(run_dominance_sweep, islice(weight_data(random.Random(seed + 3), 8), count))),
        ("equivariance", partial(run_equivariance_sweep, pairs, level, tate)),
    ]
    jobs = [(f"sweep-{name}", name, partial(_sweep_outcome, name, sweep)) for name, sweep in sweeps]
    return _report(scn, jobs, count=count)


def emit_report(report: Report, fmt: str = "structured") -> str:
    """Render a report; the structured form is byte-deterministic."""
    if fmt == "structured":
        return json.dumps(report.to_structured(), sort_keys=True, indent=2) + "\n"
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
