import contextlib
import copy
import errno
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cmperiods import basechange, cmfield, scenario
from cmperiods.cli import EXPLANATIONS, build_parser, main, read_canonical
from cmperiods.cmfield import EmbFamilyModel, conjugate_cm_type
from cmperiods.errors import ScenarioError
from cmperiods.hodge import MAX_WINDOW_POINTS, ArchParams, analyze_instance
from cmperiods.scenario import (
    CHECK_FIELDS,
    CHECK_KINDS,
    STRING_OPTIONS,
    SWEEP_FIELDS,
    Scenario,
    emit_report,
    parse_scenario,
    run_checks,
    run_sweeps,
)
from cmperiods.weights import similitude_twist

DEMO = Path(__file__).resolve().parents[1] / "scenarios" / "demo.json"
README = DEMO.parents[1] / "README.md"
# Fuzz examples share one tmp_path; overwriting a file just written is
# far slower on some file systems than writing a new one.
EXAMPLE_NUMBERS = itertools.count()

MINIMAL = {
    "schema": "cmperiods/scenario-v1",
    "seed": 5,
    "field_model": {"builtin": "cyclic:1"},
    "cm_type": ["t1"],
    "arch_params": {"Pi": {"n": 1, "entries": {"t1": [[2, 1]]}}},
    "characters": {"eta": {"pairs": {"t1": [1, -1]}, "kappa": 1}},
    "checks": [
        {"id": "crit", "kind": "critical", "arch": "Pi", "character": "eta"},
        {"id": "sig", "kind": "signature", "arch": "Pi", "character": "eta"},
        {"id": "cmp", "kind": "compare", "arch": "Pi", "character": "eta"},
    ],
}

# Entries a weights check can name, for tests that add one to MINIMAL.
WEIGHT_ENTRIES = {
    "weights": {"mu": {"n": 1, "a0": 0, "entries": {"t1": [0]}}},
    "infinity_types": {"psi": {"t1": 0, "c1": 0}},
    "signatures": {"sig": {"n": 1, "pairs": {"t1": [1, 0]}}},
}


def write(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def json_paths(node, path=()):
    """Every key/index path into a parsed JSON document, the root included."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from json_paths(child, path + (key,))


DEMO_DOC = json.loads(DEMO.read_text(encoding="utf-8"))
DEMO_PATHS = list(json_paths(DEMO_DOC))
DROP = object()
FUZZ_VALUES = [DROP, 5, "x", None, [], {}, 1.5, True]


def mutated(doc, mutations):
    """``doc`` with each (path, value) applied in turn; DROP deletes the entry.

    A path that an earlier mutation removed is skipped.
    """
    for path, value in mutations:
        if not path:
            if value is not DROP:
                doc = copy.deepcopy(value)
            continue
        parent = doc
        try:
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]]
        except (LookupError, TypeError):
            continue
        if not isinstance(parent, (dict, list)):
            continue
        if value is DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)
    return doc


class TestParsing:
    def test_minimal_valid(self, tmp_path):
        scn = parse_scenario(write(tmp_path, MINIMAL))
        assert scn.model.degree_plus == 1
        assert [c["id"] for c in scn.checks] == ["crit", "sig", "cmp"]

    def test_empty_checks_pass(self, tmp_path):
        payload = dict(MINIMAL, checks=[])
        scn = parse_scenario(write(tmp_path, payload))
        report = run_checks(scn)
        assert report.all_passed and report.results == []

    def test_signature_invariant_violation_named(self, tmp_path):
        payload = dict(MINIMAL)
        payload = json.loads(json.dumps(MINIMAL))
        payload["signatures"] = {"bad": {"n": 2, "pairs": {"t1": [1, 2]}}}
        with pytest.raises(ScenarioError, match="r\\+s"):
            parse_scenario(write(tmp_path, payload))

    def test_conj_fixed_point_rejected(self, tmp_path):
        payload = json.loads(json.dumps(MINIMAL))
        payload["field_model"] = {
            "embeddings": ["a", "b"],
            "conj": {"a": "a", "b": "b"},
            "group": {"e": {"a": "a", "b": "b"}},
        }
        with pytest.raises(ScenarioError, match="fixed point|fixes"):
            parse_scenario(write(tmp_path, payload))

    def test_json_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema": "cmperiods/scenario-v1",\n  "seed": }', encoding="utf-8")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(str(path))
        assert err.value.line == 2

    def test_directory_path_is_input_error(self, tmp_path, capsys):
        assert main(["check", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"input error: cannot read scenario file {tmp_path}")

    def test_non_utf8_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"schema": "caf\u00e9"}'.encode("latin-1"))
        with pytest.raises(ScenarioError, match="not UTF-8"):
            parse_scenario(str(path))
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"input error: scenario file {path} is not UTF-8")

    def test_unknown_check_kind(self, tmp_path):
        payload = json.loads(json.dumps(MINIMAL))
        payload["checks"] = [{"kind": "bogus"}]
        with pytest.raises(ScenarioError, match="unknown kind"):
            parse_scenario(write(tmp_path, payload))

    def test_wrong_schema(self, tmp_path):
        payload = json.loads(json.dumps(MINIMAL))
        payload["schema"] = "other"
        with pytest.raises(ScenarioError, match="schema"):
            parse_scenario(write(tmp_path, payload))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("m_max", "x"),
            ("m_max", 2.7),
            ("m_max", True),
            ("m_max", 0),
            ("odd_rank", "false"),
            ("witness", 1),
            ("n_max", "x"),
            ("kappa_max", True),
            ("d_max", 1.5),
            ("m_extra", "6"),
            ("a0", False),
            ("kappa", "1"),
            ("arch", "nope"),
            ("character", "nope"),
            ("weight", "nope"),
            ("infinity_type", ["mu"]),
            ("signature", None),
            ("expect", 5),
            ("expect", [1, "2"]),
            # Below the least value, where a lemma_d grid would be empty.
            ("n_max", 0),
            ("d_max", 0),
            ("kappa_max", -1),
            ("m_extra", -20),
            # Above the greatest value; with all four lemma_d fields at it the grid holds 176,128 points.
            ("n_max", 65),
            ("kappa_max", 17),
            ("d_max", 9),
            ("m_extra", 17),
        ],
    )
    def test_malformed_basechange_field(self, tmp_path, capsys, field, value):
        # Covers every check field, not only those of basechange: each value
        # spoils an otherwise valid check of the kind that reads the field.
        valid = {
            "basechange": {"kind": "basechange"},
            "critical": {"kind": "critical", "arch": "Pi", "character": "eta"},
            "lemma_d": {"kind": "lemma_d"},
            "compare": {"kind": "compare", "arch": "Pi", "character": "eta"},
            "weights": {"kind": "weights", "weight": "mu", "infinity_type": "psi", "signature": "sig"},
        }
        kind = {
            "n_max": "lemma_d", "kappa_max": "lemma_d", "d_max": "lemma_d", "m_extra": "lemma_d",
            "a0": "compare", "arch": "compare", "character": "compare",
            "kappa": "weights", "weight": "weights", "infinity_type": "weights", "signature": "weights",
            "expect": "critical",
        }.get(field, "basechange")
        payload = json.loads(json.dumps(MINIMAL))
        payload.update(WEIGHT_ENTRIES)
        payload["checks"] = [dict(valid[kind], id="chk", **{field: value})]
        assert main(["check", write(tmp_path, payload)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"input error: checks[0]: {field} must be")

    @pytest.mark.parametrize(
        "where, path, value",
        [
            pytest.param(where, path, value, id=where)
            for where, path, value in [
                ("scenario", (), [DEMO_DOC]),
                ("checks[0]", ("checks",), [5]),
                ("options", ("options",), 5),
                ("options.sweep", ("options", "sweep"), 5),
                ("infinity_types.psi", ("infinity_types", "psi"), 5),
                ("characters.eta.pairs", ("characters", "eta", "pairs"), []),
                ("options.sweep.count", ("options", "sweep", "count"), "x"),
                ("format", ("options", "format"), 5),
                ("seed", ("seed",), 1.5),
                ("infinity_types.psi.t1", ("infinity_types", "psi", "t1"), 1.5),
                ("characters.eta.pairs.t1", ("characters", "eta", "pairs", "t1"), ["-4", 6]),
                ("characters.eta.kappa", ("characters", "eta", "kappa"), True),
                ("signatures.sig.pairs.t1", ("signatures", "sig", "pairs", "t1"), [0.5, 1.5]),
                ("weights.mu.entries.t1", ("weights", "mu", "entries", "t1"), [2, 0.5]),
                ("arch_params.Pi.n", ("arch_params", "Pi", "n"), 2.0),
                ("arch_params.Pi.t1", ("arch_params", "Pi", "entries", "t1"), 5),
                ("cm_type", ("cm_type",), 5),
                ("cm_type[0]", ("cm_type",), [5, "t2"]),
                ("field_model.group.e", ("field_model",), {
                    "embeddings": ["t1", "c1"], "conj": {"t1": "c1", "c1": "t1"}, "group": {"e": 5},
                }),
                ("emb_family.points", ("emb_family",), {"points": 5, "base": "p", "action": {}}),
            ]
        ]
        + [pytest.param("weights.mu.entries.t1", ("weights", "mu", "entries", "t1"), 5, id="weights-row")]
        # Sweep sizes a sweep cannot sample from.  With two_a_max at or below
        # n_max a rank-n draw may have no non-degenerate choice: the last
        # case used to loop forever, the one before it to raise ValueError.
        + [
            pytest.param(f"options.sweep.{key}", ("options", "sweep", key), value, id=f"sweep-{key}-{value}")
            for key, value in [
                ("count", 0), ("count", -3), ("n_max", 0), ("d_max", 0), ("m_max", -1), ("kappa_max", -1),
            ]
        ]
        + [
            pytest.param("options.sweep.two_a_max", ("options", "sweep"), bounds, id=f"sweep-two_a_max-{i}")
            for i, bounds in enumerate([
                {"n_max": 4, "d_max": 1, "two_a_max": 1, "m_max": 2, "kappa_max": 2},
                {"n_max": 1, "d_max": 1, "two_a_max": 0, "m_max": 0, "kappa_max": 0},
            ])
        ],
    )
    def test_malformed_shape_exits_two(self, tmp_path, capsys, where, path, value):
        # A container of the wrong JSON type, or a number that is not an
        # integer where one is required, is an input error naming its place.
        payload = mutated(copy.deepcopy(DEMO_DOC), [(path, value)])
        assert main(["check", write(tmp_path, payload)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"input error: {where} must be")

    @pytest.mark.parametrize(
        "path, keys, message",
        [
            pytest.param(("arch_params", "Pi", "entries"), ["t1", "t2", "zz"],
                         "arch_params.Pi.entries: 'zz' is not an embedding of the field model", id="arch-zz"),
            pytest.param(("characters", "eta", "pairs"), ["t1", "t2", "zz"],
                         "characters.eta.pairs: 'zz' is not an embedding of the field model", id="character-zz"),
            pytest.param(("weights", "mu", "entries"), ["zz", "t2"],
                         "weights.mu.entries: 'zz' is not an embedding of the field model", id="weight-zz"),
            pytest.param(("signatures", "sig", "pairs"), ["t1", "t2", "zz"],
                         "signatures.sig.pairs: 'zz' is not an embedding of the field model", id="signature-zz"),
            pytest.param(("signatures", "sig", "pairs"), ["t1"],
                         "signatures.sig.pairs: keys ['t1'] are not a CM type:"
                         " CM type does not cover every conjugate pair", id="signature-without-t2"),
            pytest.param(("arch_params", "Pi", "entries"), ["t1", "c1"],
                         "arch_params.Pi.entries: keys ['c1', 't1'] are not a CM type:"
                         " CM type contains a conjugate pair", id="arch-conjugate-pair"),
            pytest.param(("characters", "eta", "pairs"), ["t1", "c2"],
                         "checks[1]: arch 'Pi' on ['t1', 't2'] and character 'eta' on ['c2', 't1']"
                         " must be keyed by the same places", id="character-other-cm-type"),
            pytest.param(("signatures", "sig", "pairs"), ["t1", "c2"],
                         "checks[3]: weight 'mu' on ['t1', 't2'] and signature 'sig' on ['c2', 't1']"
                         " must be keyed by the same places", id="signature-other-cm-type"),
        ],
    )
    def test_place_keys_exit_two(self, tmp_path, capsys, path, keys, message):
        # Per-place entries are keyed by a CM type of the model, and the two
        # such entries a check pairs are keyed by the same one.  The demo's
        # rows are reused, cyclically, under the new keys.
        block, name, key = path
        rows = list(DEMO_DOC[block][name][key].values())
        payload = mutated(copy.deepcopy(DEMO_DOC), [(path, {t: rows[i % len(rows)] for i, t in enumerate(keys)})])
        assert main(["check", write(tmp_path, payload)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {message}\n"

    @pytest.mark.parametrize(
        "path, value, message",
        [
            pytest.param(("signatures", "sig"), {"n": 3, "pairs": {"t1": [1, 2], "t2": [3, 0]}},
                         "checks[3]: weight 'mu' of rank 2 and signature 'sig' of rank 3 must have the same rank",
                         id="weights-rank"),
            pytest.param(("infinity_types", "psi"), {"t1": 1, "t2": -2, "c1": 0, "c2": 3, "zz": 1},
                         "infinity_types.psi: 'zz' is not an embedding of the field model", id="infinity-zz"),
            pytest.param(("infinity_types", "psi"), {"t1": 1, "t2": -2, "c1": 0},
                         "infinity_types.psi: embedding 'c2' has no exponent", id="infinity-without-c2"),
        ],
    )
    def test_inconsistent_entry_exits_two(self, tmp_path, capsys, path, value, message):
        # Entries of the right shape that disagree with the model, or with the
        # entry a check pairs them with, are input errors naming the entry.
        payload = mutated(copy.deepcopy(DEMO_DOC), [(path, value)])
        assert main(["check", write(tmp_path, payload)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {message}\n"

    @pytest.mark.parametrize(
        "mutations, message",
        [
            pytest.param([(("checks", 2, "id"), 5)], "checks[2].id must be a non-empty string, got 5", id="int"),
            pytest.param([(("checks", 2, "id"), [1])], "checks[2].id must be a non-empty string, got [1]", id="list"),
            pytest.param([(("checks", 2, "id"), "")], "checks[2].id must be a non-empty string, got ''", id="empty"),
            pytest.param([(("checks", 2, "id"), None)], "checks[2].id must be a non-empty string, got None",
                         id="null"),
            pytest.param([(("checks", 2, "id"), "critical-window")],
                         "checks[2].id 'critical-window' repeats checks[1].id", id="copied"),
            # A check without an id is named kind-index, which an explicit id may repeat.
            pytest.param([(("checks", 1, "id"), DROP), (("checks", 3, "id"), "critical-1")],
                         "checks[3].id 'critical-1' repeats checks[1].id", id="repeats-default"),
            pytest.param([(("checks", 0, "id"), "critical-1"), (("checks", 1, "id"), DROP)],
                         "checks[1].id 'critical-1' repeats checks[0].id", id="default-repeats"),
        ],
    )
    def test_check_ids_exit_two(self, tmp_path, capsys, mutations, message):
        # Report readers tell checks apart by id alone.
        payload = mutated(copy.deepcopy(DEMO_DOC), mutations)
        assert main(["check", write(tmp_path, payload)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {message}\n"

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.lists(
            st.tuples(st.sampled_from(DEMO_PATHS), st.sampled_from(FUZZ_VALUES)), min_size=1, max_size=3
        )
    )
    def test_mutated_demo_parses_or_raises_scenario_error(self, tmp_path, mutations):
        payload = mutated(copy.deepcopy(DEMO_DOC), mutations)
        path = write(tmp_path, payload, name=f"example-{next(EXAMPLE_NUMBERS)}.json")
        try:
            assert isinstance(parse_scenario(path), Scenario)
        except ScenarioError as exc:
            # A missing member is named by its place, not by a bare KeyError.
            assert "malformed scenario: KeyError" not in str(exc)

    @pytest.mark.parametrize(
        "path, value, place",
        [
            pytest.param(("arch_params", "Pi", "n"), DROP, "arch_params.Pi.n", id="arch-n"),
            pytest.param(("arch_params", "Pi", "entries"), DROP, "arch_params.Pi.entries", id="arch-entries"),
            pytest.param(("weights", "mu", "a0"), DROP, "weights.mu.a0", id="weight-a0"),
            pytest.param(("signatures", "sig", "pairs"), DROP, "signatures.sig.pairs", id="signature-pairs"),
            pytest.param(("emb_family", "builtin"), DROP, "emb_family.action", id="family-action"),
            pytest.param(("field_model",), {
                "embeddings": ["t1", "t2", "c1", "c2"], "group": {"e": {t: t for t in ("t1", "t2", "c1", "c2")}},
            }, "field_model.conj", id="model-conj"),
        ],
    )
    def test_missing_member_exits_two(self, tmp_path, capsys, path, value, place):
        payload = mutated(copy.deepcopy(DEMO_DOC), [(path, value)])
        assert main(["check", write(tmp_path, payload)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {place} is missing\n"

    def test_bare_checks_take_their_defaults(self, tmp_path):
        payload = dict(MINIMAL, checks=[{"kind": "lemma_d"}, {"kind": "basechange"}])
        scn = parse_scenario(write(tmp_path, payload))
        assert scn.checks == [
            {"id": "lemma_d-0", "kind": "lemma_d", "n_max": 12, "kappa_max": 4, "d_max": 3, "m_extra": 6},
            {"id": "basechange-1", "kind": "basechange", "m_max": 3, "odd_rank": False, "witness": True},
        ]
        lemma, basechange = run_checks(scn).results
        assert (lemma.status, lemma.details["checked"]) == ("pass", 1296)
        assert basechange.status == "pass" and "witness" in basechange.details

    @pytest.mark.parametrize("kappa_max", range(0, 6))
    def test_lemma_d_grid_is_empty_exactly_when_rejected(self, tmp_path, kappa_max):
        for m_extra in range(-4, 5):
            fields = {"n_max": 1, "kappa_max": kappa_max, "d_max": 1, "m_extra": m_extra}
            _, details, _ = scenario._run_lemma_d(None, fields)
            payload = dict(MINIMAL, checks=[dict(fields, kind="lemma_d")])
            if details["checked"]:
                parse_scenario(write(tmp_path, payload))
            else:
                with pytest.raises(ScenarioError, match=r"^checks\[0\]: m_extra must be at least"):
                    parse_scenario(write(tmp_path, payload))

    def test_readme_table_lists_every_check_field(self):
        # The "Scenario format" table: kind, field, type, least value, greatest value, default.
        rows = [
            [cell.replace("`", "").strip() for cell in line.strip("|").split("|")]
            for line in README.read_text(encoding="utf-8").splitlines()
            if line.startswith("| `")
        ]

        def cells(spec):
            if spec.type == "name":
                return [f"name in {spec.block}", "", "", "required"]
            default = "none" if spec.default is None else json.dumps(spec.default)
            bounds = ["" if bound is None else str(bound) for bound in (spec.least, spec.most)]
            return [spec.type, *bounds, default]

        expected = [
            [kind, name, *cells(spec)] for kind, specs in CHECK_FIELDS.items() for name, spec in specs.items()
        ]
        expected += [["options.sweep", name, *cells(spec)] for name, spec in SWEEP_FIELDS.items()]
        assert rows == expected

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("level", "Q", "level must be 'q', 'fgal' or 'e', got 'Q'"),
            ("tate", True, "tate must be 'on' or 'off', got True"),
            ("d_exponent", None, "d_exponent must be 'thm' or 'intro', got None"),
            ("format", "json", "format must be 'structured' or 'text', got 'json'"),
        ],
    )
    def test_string_option_values_exit_two(self, tmp_path, capsys, key, value, message):
        payload = mutated(copy.deepcopy(DEMO_DOC), [(("options", key), value)])
        assert main(["check", write(tmp_path, payload)]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"

    @pytest.mark.parametrize(
        "where, key, message",
        [
            (("checks", 6), "mmax", "checks[6]: unknown field 'mmax'"),
            # A field of another kind: ephi reads none.
            (("checks", 0), "m_max", "checks[0]: unknown field 'm_max'"),
            (("options",), "lvl", "options: unknown key 'lvl'"),
            # The seed is a top-level key, not an option.
            (("options",), "seed", "options: unknown key 'seed'"),
            (("options", "sweep"), "cnt", "options.sweep: unknown key 'cnt'"),
            # A misspelt "checks" would leave an empty, passing report.
            ((), "chekcs", "scenario: unknown key 'chekcs'"),
            (("characters", "eta"), "kapa", "characters.eta: unknown key 'kapa'"),
            (("signatures", "sig"), "r", "signatures.sig: unknown key 'r'"),
            (("weights", "mu"), "a_0", "weights.mu: unknown key 'a_0'"),
            (("arch_params", "Pi"), "entires", "arch_params.Pi: unknown key 'entires'"),
            (("field_model",), "extra", "field_model: unknown key 'extra'"),
            (("emb_family",), "extra", "emb_family: unknown key 'extra'"),
        ],
    )
    def test_unknown_keys_exit_two(self, tmp_path, capsys, where, key, message):
        # A misspelt key would otherwise leave its field at the default.
        payload = copy.deepcopy(DEMO_DOC)
        parent = payload
        for step in where:
            parent = parent[step]
        parent[key] = 1
        assert main(["check", write(tmp_path, payload)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {message}\n"

    @pytest.mark.parametrize("where", ["field_model", "emb_family"])
    def test_unknown_keys_in_explicit_models_exit_two(self, tmp_path, capsys, where):
        payload = json.loads(json.dumps(MINIMAL))
        payload["field_model"] = {
            "embeddings": ["t1", "c1"],
            "conj": {"t1": "c1", "c1": "t1"},
            "group": {"g0": {"t1": "t1", "c1": "c1"}, "g1": {"t1": "c1", "c1": "t1"}},
        }
        payload["emb_family"] = {
            "points": ["g0", "g1"], "base": "g0", "action": {"g0": {"g0": "g0", "g1": "g1"}, "g1": {"g0": "g1", "g1": "g0"}},
        }
        assert main(["check", write(tmp_path, payload)]) == 0
        payload[where]["extra"] = 1
        assert main(["check", write(tmp_path, payload)]) == 2
        assert capsys.readouterr().err == f"input error: {where}: unknown key 'extra'\n"

    @pytest.mark.parametrize("m_max", [65, 10**6])
    def test_m_max_above_64_exits_two(self, tmp_path, capsys, m_max):
        # The bound caps what the twist and pattern caches of basechange hold.
        assert main(["check", write(tmp_path, dict(MINIMAL, checks=[{"kind": "basechange", "m_max": 64}]))]) == 0
        capsys.readouterr()
        payload = dict(MINIMAL, checks=[{"kind": "basechange", "m_max": m_max}])
        assert main(["check", write(tmp_path, payload)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: checks[0]: m_max must be an integer from 1 to 64, got {m_max}\n"

    @pytest.mark.parametrize(
        "value",
        [[1, 0], True, [True, 2]]
        + [pytest.param([1, 3], id="third"), pytest.param([5, 4], id="five-quarters")],
    )
    def test_malformed_rational_rejected(self, tmp_path, value):
        payload = json.loads(json.dumps(MINIMAL))
        payload["arch_params"]["Pi"]["entries"]["t1"] = [value]
        with pytest.raises(ScenarioError, match="arch_params.Pi.t1: rationals must be"):
            parse_scenario(write(tmp_path, payload))

    @pytest.mark.parametrize(
        "n, row, defect",
        [
            (2, [[1, 2], [3, 2]], "must be strictly decreasing"),
            (2, [[1, 2], [1, 2]], "must be strictly decreasing"),
            (1, [[1, 2]], "must share the parity of n-1"),
            (2, [2, 0], "must share the parity of n-1"),
            (2, [[1, 2]], "must have length 2"),
        ],
    )
    def test_malformed_parameter_row_names_its_place(self, tmp_path, capsys, n, row, defect):
        payload = json.loads(json.dumps(MINIMAL))
        payload["arch_params"]["Pi"] = {"n": n, "entries": {"t1": row}}
        assert main(["check", write(tmp_path, payload)]) == 2
        assert capsys.readouterr().err == f"input error: arch_params.Pi.t1: doubled parameters {defect}\n"

    def test_float_rational_rejected(self, tmp_path):
        payload = json.loads(json.dumps(MINIMAL))
        payload["arch_params"]["Pi"]["entries"]["t1"] = [0.5]
        with pytest.raises(ScenarioError):
            parse_scenario(write(tmp_path, payload))


class TestReports:
    def test_structured_determinism(self, tmp_path):
        path = write(tmp_path, MINIMAL)
        out1 = emit_report(run_checks(parse_scenario(path)), "structured")
        out2 = emit_report(run_checks(parse_scenario(path)), "structured")
        assert out1 == out2

    def test_structured_round_trip(self, tmp_path):
        path = write(tmp_path, MINIMAL)
        out = emit_report(run_checks(parse_scenario(path)), "structured")
        payload = json.loads(out)
        assert payload["schema"] == "cmperiods/report-v1"
        assert payload["summary"]["status"] == "pass"
        assert [c["id"] for c in payload["checks"]] == ["crit", "sig", "cmp"]

    def test_text_format_cites_identities(self, tmp_path):
        path = write(tmp_path, MINIMAL)
        out = emit_report(run_checks(parse_scenario(path)), "text")
        assert "identity: critical-window" in out
        assert "identity: period-dictionary" in out
        assert "summary:" in out

    def test_batch_isolation(self, tmp_path):
        # A failing check in the middle leaves its neighbours' results alone.
        payload = json.loads(json.dumps(MINIMAL))
        payload["checks"].insert(
            1,
            {
                "id": "bad",
                "kind": "critical",
                "arch": "Pi",
                "character": "eta",
                "expect": [99, 100],
            },
        )
        solo = {r.check_id: r for r in run_checks(parse_scenario(write(tmp_path, MINIMAL, "a.json"))).results}
        mixed = {r.check_id: r for r in run_checks(parse_scenario(write(tmp_path, payload, "b.json"))).results}
        assert mixed["bad"].status == "fail"
        for cid in ("crit", "sig", "cmp"):
            assert mixed[cid].status == solo[cid].status
            assert mixed[cid].details == solo[cid].details

    def test_unexpected_exception_recorded(self, tmp_path, monkeypatch):
        # A check runner that raises TypeError is recorded as an error with
        # the exception's type, and the next check still runs.
        def broken(scn, chk):
            raise TypeError("broken runner")

        monkeypatch.setitem(scenario._CHECK_RUNNERS, "critical", broken)
        report = run_checks(parse_scenario(write(tmp_path, MINIMAL)))
        by_id = {r.check_id: r for r in report.results}
        assert by_id["crit"].status == "error"
        assert by_id["crit"].details["error"].startswith("TypeError: ")
        assert by_id["sig"].status == "pass" and by_id["cmp"].status == "pass"

    def test_sharp_paths_compared(self, tmp_path, monkeypatch):
        payload = json.loads(json.dumps(MINIMAL))
        payload.update(WEIGHT_ENTRIES)
        payload["checks"] = [{"id": "w", "kind": "weights", "weight": "mu", "infinity_type": "psi", "signature": "sig"}]
        scn = parse_scenario(write(tmp_path, payload))
        (ok,) = run_checks(scn).results
        assert ok.status == "pass" and ok.details["sharp_paths_agree"] is True
        monkeypatch.setattr(scenario, "sharp_dual_composite", lambda w, kappa: similitude_twist(w, 1))
        (broken,) = run_checks(scn).results
        assert broken.status == "fail" and broken.details["sharp_paths_agree"] is False

    def test_check_error_captured(self, tmp_path, capsys):
        # A degenerate (arch, character) pair is an input error naming the
        # first check on it, found when the scenario is parsed.
        payload = json.loads(json.dumps(MINIMAL))
        # Degenerate comparison: 2*diff - kappa + 2A = 2*2 - 0 + 2*(-2) = 0.
        payload["arch_params"]["Pi"]["entries"]["t1"] = [[-2, 1]]
        payload["characters"]["eta"] = {"pairs": {"t1": [1, -1]}, "kappa": 0}
        demo = mutated(copy.deepcopy(DEMO_DOC), [(("characters", "eta", "pairs", "t2"), [3, 5])])
        # The demo's first check, ephi, names no pair.
        for doc, idx, place in ((payload, 0, "t1"), (demo, 1, "t2")):
            assert main(["check", write(tmp_path, doc)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"input error: checks[{idx}]: arch 'Pi' with character 'eta': vanishing comparison at {place!r}\n"
            )


class TestEphiCheck:
    def ephi_scenario(self, tmp_path, model, n_checks=1):
        payload = copy.deepcopy(DEMO_DOC)
        payload["field_model"] = {"builtin": model}
        payload["checks"] = [{"id": f"ephi-{i}", "kind": "ephi"} for i in range(n_checks)]
        return parse_scenario(write(tmp_path, payload))

    def test_family_validated_once_per_check(self, tmp_path, monkeypatch):
        scn = self.ephi_scenario(tmp_path, "cyclic:2", n_checks=3)
        calls = []
        validate = EmbFamilyModel.validate
        monkeypatch.setattr(EmbFamilyModel, "validate", lambda fam, model: calls.append(fam) or validate(fam, model))
        results = run_checks(scn).results
        assert [r.status for r in results] == ["pass"] * 3
        assert len(calls) == 3

    def test_moved_sign_fails_the_check(self, tmp_path, monkeypatch):
        # On klein, a sign of -1 on the coset {s, c} is invariant under
        # translation by sc but not by s, so exactly the CM types that s
        # stabilizes fail.
        scn = self.ephi_scenario(tmp_path, "klein")
        image_and_sign = cmfield._image_and_sign
        monkeypatch.setattr(
            cmfield,
            "_image_and_sign",
            lambda model, phi, g: (image_and_sign(model, phi, g)[0], -1 if g in ("s", "c") else 1),
        )
        (result,) = run_checks(scn).results
        stabilized_by_s = [
            sorted(phi.members) for phi in scn.model.cm_types() if conjugate_cm_type(scn.model, phi, "s") == phi
        ]
        assert result.status == "fail"
        assert result.details["failures"] == stabilized_by_s == [["t1", "t2"], ["c1", "c2"]]
        assert result.details["stabilizer"] == ["e", "s"]
        assert result.details["signs"] == {"c": -1, "e": 1, "s": -1, "sc": 1}
        assert result.details["cm_types_checked"] == 4


@pytest.fixture(scope="module")
def demo_identities():
    """Each check kind with the identities its demo check cites at any level and tate setting."""
    cited = {}
    for level in ("q", "fgal"):
        for tate in ("on", "off"):
            scn = parse_scenario(str(DEMO))
            scn.options.level, scn.options.tate = level, tate
            for result in run_checks(scn).results:
                cited.setdefault(result.kind, set()).update(result.identities)
    return cited


# The demo with its compare check's a0 at 4,300 digits, the most that
# json.load reads.
DEMO_WITH_HUGE_A0 = dict(
    DEMO_DOC, checks=[{**c, "a0": int("9" * 4300)} if c["kind"] == "compare" else c for c in DEMO_DOC["checks"]]
)


def demo_with_sweep(**bounds):
    doc = copy.deepcopy(DEMO_DOC)
    doc["options"]["sweep"].update(bounds)
    return doc


# Sweep bounds at the corners of the accepted region: the rejection loop's
# (n_max at half of two_a_max, a place degenerate whenever its row holds 0)
# and the critical window's (two_a_max + 4 * m_max + kappa_max at the bound).
LOOP_CORNER = {"n_max": 5000, "two_a_max": 10000, "m_max": 0, "kappa_max": 0, "d_max": 8}
WINDOW_CORNER = {"n_max": 1, "two_a_max": 2000, "m_max": 1000, "kappa_max": 4000, "d_max": 8}


class TestSizeBounds:
    @pytest.mark.parametrize(
        "doc, message",
        [
            pytest.param(demo_with_sweep(count=20, m_max=m_max), "options.sweep: two_a_max + 4 * m_max + kappa_max"
                         f" must be at most 10000, the most points a critical window may hold, got {got}",
                         id=f"m_max-{m_max}")
            for m_max, got in [(10000, 40019), (999999, 4000015)]
        ]
        + [
            pytest.param(demo_with_sweep(count=20, two_a_max=10**7 + 1), "options.sweep: two_a_max + 4 * m_max"
                         " + kappa_max must be at most 10000, the most points a critical window may hold,"
                         " got 10000029", id="two_a_max"),
            pytest.param(demo_with_sweep(count=10, d_max=45),
                         "options.sweep.d_max must be an integer from 1 to 8, got 45", id="d_max"),
            # Under the earlier rule, two_a_max above n_max, this took 22 s at count 20.
            pytest.param(demo_with_sweep(count=20, **dict(LOOP_CORNER, n_max=16, two_a_max=17)),
                         "options.sweep.two_a_max must be at least twice options.sweep.n_max (16), got 17",
                         id="n_max"),
            pytest.param({"schema": MINIMAL["schema"], "field_model": {"builtin": "cyclic:1000"}},
                         "field_model must have at most 12 conjugate pairs, got 2000 embeddings",
                         id="cyclic-1000"),
            pytest.param({"schema": MINIMAL["schema"], "field_model": {"builtin": "dihedral:13"}},
                         "field_model must have at most 12 conjugate pairs, got 26 embeddings",
                         id="dihedral-13"),
            pytest.param({"schema": MINIMAL["schema"], "field_model": {"embeddings": [f"e{i}" for i in range(25)]}},
                         "field_model must have at most 12 conjugate pairs, got 25 embeddings",
                         id="explicit-25"),
        ],
    )
    def test_oversized_input_exits_two(self, tmp_path, capsys, doc, message):
        for command in ("check", "sweep"):
            assert main([command, write(tmp_path, doc)]) == 2
            assert capsys.readouterr() == ("", f"input error: {message}\n")

    def test_sweep_window_rule_at_its_corner(self, tmp_path, capsys):
        # The widest window a draw can take: rank 1 at place t1 with the least doubled
        # value, m_t - m_tbar = -2 m_max (weight 0) and kappa = kappa_max.
        two_a_max, m_max, kappa_max = (WINDOW_CORNER[key] for key in ("two_a_max", "m_max", "kappa_max"))
        widest = analyze_instance(
            ArchParams({"t1": (-two_a_max,)}, 1, cmfield.cyclic_model(1)), {"t1": (-m_max, m_max)}, kappa_max
        )
        assert widest.window.hi - widest.window.lo == two_a_max + 4 * m_max + kappa_max == MAX_WINDOW_POINTS
        parse_scenario(write(tmp_path, demo_with_sweep(**WINDOW_CORNER)))
        for key, step, got in [("two_a_max", 1, 10001), ("m_max", 1, 10004), ("kappa_max", 1, 10001)]:
            doc = demo_with_sweep(**dict(WINDOW_CORNER, **{key: WINDOW_CORNER[key] + step}))
            assert main(["sweep", write(tmp_path, doc)]) == 2
            assert capsys.readouterr().err == (
                "input error: options.sweep: two_a_max + 4 * m_max + kappa_max must be at most 10000,"
                f" the most points a critical window may hold, got {got}\n"
            )

    @pytest.mark.parametrize("corner", [LOOP_CORNER, WINDOW_CORNER], ids=["loop", "window"])
    def test_sweep_at_its_mosts_is_quick(self, tmp_path, capsys, corner):
        # Measured 0.3-0.9 s on 2 vCPUs with Python 3.11.
        started = time.perf_counter()
        assert main(["sweep", write(tmp_path, demo_with_sweep(count=3, **corner))]) == 0
        assert time.perf_counter() - started < 10.0
        assert json.loads(capsys.readouterr().out)["summary"]["pass"] == 5

    @pytest.mark.parametrize(
        "doc, seconds",
        [
            # 176,128 identities; measured 4-5 s on 2 vCPUs with Python 3.11.
            pytest.param(dict(MINIMAL, checks=[{"kind": "lemma_d", "n_max": 64, "kappa_max": 16, "d_max": 8,
                                                "m_extra": 16}]), 30.0, id="lemma_d"),
            pytest.param(dict(MINIMAL, checks=[{"kind": "basechange", "m_max": 64, "odd_rank": odd}
                                               for odd in (False, True)]), 5.0, id="basechange"),
            # 4,096 CM types, each through the group's 48 elements: measured 0.7 s.
            pytest.param({"schema": MINIMAL["schema"], "field_model": {"builtin": "dihedral:12"},
                          "checks": [{"kind": "ephi"}]}, 10.0, id="ephi"),
            # critical, signature, weights and compare on a window of 10,000 points: measured 0.2 s.
            pytest.param(mutated(copy.deepcopy(DEMO_DOC), [
                (("characters", "eta", "pairs"), {"t1": [1, -5004], "t2": [1, -5004]}),
                (("checks",), [c for c in DEMO_DOC["checks"] if c["kind"] in ("critical", "signature", "weights",
                                                                              "compare")]),
            ]), 5.0, id="window"),
        ],
    )
    def test_check_at_its_mosts_is_quick(self, tmp_path, doc, seconds):
        started = time.perf_counter()
        assert main(["check", write(tmp_path, doc)]) == 0
        assert time.perf_counter() - started < seconds


class TestMainEntry:
    def test_exit_zero_on_pass(self, tmp_path, capsys):
        path = write(tmp_path, MINIMAL)
        assert main(["check", path]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["summary"]["status"] == "pass"

    def test_exit_one_on_failing_check(self, tmp_path, capsys):
        assert main(["check", write(tmp_path, MINIMAL), "--tate", "off"]) == 1
        payload = json.loads(capsys.readouterr().out)
        statuses = {c["id"]: c["status"] for c in payload["checks"]}
        assert statuses["cmp"] == "fail"

    @pytest.mark.parametrize("method", ["write", "flush"])
    @pytest.mark.parametrize("error", [errno.ENOSPC, errno.EPIPE], ids=["full", "broken-pipe"])
    def test_output_error_ends_in_one_line(self, tmp_path, capsys, monkeypatch, method, error):
        # A full disk (``> /dev/full``) or a closed pipe, raised by the write or by the flush.
        class Unwritable(io.StringIO):
            def fail(self, *args):
                raise (BrokenPipeError if error == errno.EPIPE else OSError)(error, os.strerror(error))

        stdout = Unwritable()
        setattr(stdout, method, stdout.fail)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["check", write(tmp_path, MINIMAL)]) == 1
        assert capsys.readouterr().err == f"output error: {os.strerror(error)}\n"
        if error == errno.EPIPE:
            # The interpreter's flush at exit goes to the null device, not to the pipe.
            assert sys.stdout.name == os.devnull
            sys.stdout.close()
        else:
            assert sys.stdout is stdout

    def test_exit_two_on_input_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        assert main(["check", str(path)]) == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, options",
        [
            pytest.param("[" * 100000 + "]" * 100000, [], id="nesting"),
            pytest.param('{"schema": "cmperiods/scenario-v1", "seed": ' + "9" * 5000 + "}", [], id="seed-digits"),
            pytest.param(json.dumps(DEMO_WITH_HUGE_A0), ["--level", "q"], id="a0-digits"),
            pytest.param(json.dumps(dict(MINIMAL, options={"level": int("9" * 4300)})), [], id="level-digits"),
        ],
    )
    def test_python_limits_exit_two(self, tmp_path, capsys, text, options):
        # Python's own limits: json.load stops at nesting past the recursion
        # limit and at an integer past 4,300 digits, and json.dumps could not
        # print the q-level residual -4*a0 of a 4,300-digit a0.  No message
        # echoes an integer past the bound.
        path = tmp_path / "scenario.json"
        path.write_text(text, encoding="utf-8")
        assert main(["check", str(path), *options]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error:") and "Traceback" not in captured.err
        assert len(captured.err) < 300  # no echoed digits

    def test_scenario_integers_are_bounded(self, tmp_path, capsys):
        assert parse_scenario(write(tmp_path, dict(MINIMAL, seed=scenario.INT_BOUND - 1))).options.seed
        assert main(["check", write(tmp_path, dict(MINIMAL, seed=-scenario.INT_BOUND))]) == 2
        assert capsys.readouterr().err == "input error: seed must be an integer, got an integer with |x| >= 10**1000\n"

    @pytest.mark.parametrize("pair", [[1, -1000000], [1, -(10**900)]], ids=["million", "900-digits"])
    def test_critical_window_is_bounded(self, tmp_path, capsys, pair):
        # Every check walks its window point by point; these windows would
        # hold about 2 * 10**6 and 2 * 10**900 points.
        doc = copy.deepcopy(DEMO_DOC)
        doc["characters"]["eta"]["pairs"] = dict.fromkeys(doc["characters"]["eta"]["pairs"], pair)
        assert main(["check", write(tmp_path, doc)]) == 2
        assert capsys.readouterr() == (
            "",
            "input error: checks[1]: arch 'Pi' with character 'eta': critical window holds more than the bound"
            f" of {MAX_WINDOW_POINTS} points\n",
        )

    def test_critical_window_at_the_bound_parses(self, tmp_path):
        doc = copy.deepcopy(DEMO_DOC)
        doc["characters"]["eta"]["pairs"] = dict.fromkeys(doc["characters"]["eta"]["pairs"], [1, -5004])
        (window,) = {inst.window for inst in parse_scenario(write(tmp_path, doc)).instances.values()}
        assert window.hi - window.lo == MAX_WINDOW_POINTS
        doc["characters"]["eta"]["pairs"] = dict.fromkeys(doc["characters"]["eta"]["pairs"], [1, -5005])
        with pytest.raises(ScenarioError, match="critical window"):
            parse_scenario(write(tmp_path, doc))

    def test_flags_are_the_string_options(self):
        # Each string option is one flag, with its values and help, then --seed.
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        for command in ("check", "sweep"):
            flags = [a for a in sub.choices[command]._actions if a.option_strings and a.dest != "help"]
            assert [(a.option_strings, a.dest, a.choices, a.help) for a in flags[:-1]] == [
                ([f"--{key.replace('_', '-')}"], key, option.values, option.help)
                for key, option in STRING_OPTIONS.items()
            ]
            assert flags[-1].option_strings == ["--seed"]

    def test_flag_overrides(self, tmp_path, capsys):
        path = write(tmp_path, MINIMAL)
        assert main(["check", path, "--level", "q", "--format", "text", "--seed", "9"]) in (0, 1)
        out = capsys.readouterr().out
        assert "seed 9" in out

    def test_sweep_subcommand(self, tmp_path, capsys):
        payload = json.loads(json.dumps(MINIMAL))
        payload["options"] = {"sweep": {"count": 20}}
        assert main(["sweep", write(tmp_path, payload)]) == 0
        report = json.loads(capsys.readouterr().out)
        names = ["compare", "bounds", "signature", "dominance", "equivariance"]
        assert [c["id"] for c in report["checks"]] == [f"sweep-{name}" for name in names]
        assert [c["kind"] for c in report["checks"]] == names

    def test_sweep_determinism(self, tmp_path):
        payload = json.loads(json.dumps(MINIMAL))
        payload["options"] = {"sweep": {"count": 15}}
        path = write(tmp_path, payload)
        out1 = emit_report(run_sweeps(parse_scenario(path)), "structured")
        out2 = emit_report(run_sweeps(parse_scenario(path)), "structured")
        assert out1 == out2

    def test_explain(self, capsys):
        assert main(["explain", "lemma_d"]) == 0
        out = capsys.readouterr().out
        assert "closed form" in out
        assert "identities:" in out

    def test_explain_covers_every_check_kind(self):
        assert set(EXPLANATIONS) == set(CHECK_FIELDS)

    @pytest.mark.parametrize("kind", CHECK_KINDS)
    def test_explain_names_every_cited_identity(self, capsys, demo_identities, kind):
        cited = demo_identities[kind]
        assert main(["explain", kind]) == 0
        out = capsys.readouterr().out
        assert cited and (kind != "compare" or len(cited) == 11)
        assert [tag for tag in sorted(cited) if tag not in out] == []

    def test_demo_scenario_passes(self, capsys):
        assert main(["check", str(DEMO)]) == 0
        capsys.readouterr()

    def test_demo_report_adds_only_decided_by(self, capsys):
        # The recorded report predates the decided_by counts; everything
        # else must stay byte-identical.
        assert main(["check", str(DEMO)]) == 0
        report = json.loads(capsys.readouterr().out)
        (bc_check,) = [c for c in report["checks"] if c["kind"] == "basechange"]
        decided = bc_check["details"].pop("decided_by")
        assert decided == {"coordinatewise": bc_check["details"]["checked"], "weyl_orbit": 0}
        recorded = (Path(__file__).parent / "data" / "demo_check_without_decided_by.json").read_text(
            encoding="utf-8"
        )
        assert json.dumps(report, sort_keys=True, indent=2) + "\n" == recorded

    def test_demo_report_unchanged_under_optimize(self):
        # Under -O every assert is stripped; the report must not depend on one.
        env = dict(os.environ, PYTHONPATH=str(DEMO.parents[1] / "src"))
        for args in (["check", str(DEMO)], ["sweep", str(DEMO), "--seed", "7"]):
            cmd = ["-m", "cmperiods", *args]
            plain = subprocess.run([sys.executable, *cmd], capture_output=True, env=env, check=True)
            optimized = subprocess.run([sys.executable, "-O", *cmd], capture_output=True, env=env, check=True)
            assert optimized.stdout == plain.stdout

    def test_demo_sweep_report_is_recorded(self, capsys):
        # The recorded report predates labelling each sweep by its own kind
        # (the three sweeps that are not check kinds were labelled compare);
        # everything else must stay byte-identical.
        assert main(["sweep", str(DEMO), "--seed", "7"]) == 0
        report = json.loads(capsys.readouterr().out)
        for check in report["checks"]:
            if check["id"] in ("sweep-bounds", "sweep-dominance", "sweep-equivariance"):
                assert check["kind"] == check["id"].removeprefix("sweep-")
                check["kind"] = "compare"
        recorded = (Path(__file__).parent / "data" / "demo_sweep_seed7.json").read_text(encoding="utf-8")
        assert json.dumps(report, sort_keys=True, indent=2) + "\n" == recorded

    def test_demo_tate_off_check_report_is_recorded(self, capsys):
        # With tate off the demo's compare check fails at its critical points.
        assert main(["check", str(DEMO), "--level", "q", "--tate", "off"]) == 1
        recorded = (Path(__file__).parent / "data" / "demo_check_q_tate_off.json").read_text(encoding="utf-8")
        assert capsys.readouterr().out == recorded

    @pytest.mark.parametrize(
        "options, rc, recorded",
        [
            (["--tate", "off"], 1, "demo_sweep_seed7_q_tate_off.json"),
            ([], 0, "demo_sweep_seed7_q.json"),
        ],
        ids=["q-tate-off", "q"],
    )
    def test_demo_tate_off_sweep_report_is_recorded(self, capsys, options, rc, recorded):
        # With tate off every compared point fails, and each listed failure
        # prints the instance's half-integer parameters as Fractions.  With
        # tate on every point closes at level Q, where cm-type-sign and
        # disc^1/2 are not units, so the relation rows decide.
        assert main(["sweep", str(DEMO), "--seed", "7", "--level", "q", *options]) == rc
        assert capsys.readouterr().out == (Path(__file__).parent / "data" / recorded).read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "options, rc, recorded",
        [
            ([], 0, "demo_sweep_count1000_seed41.json"),
            (["--level", "q", "--tate", "off"], 1, "demo_sweep_count1000_seed41_q_tate_off.json"),
        ],
        ids=["defaults", "q-tate-off"],
    )
    def test_demo_sweep_at_count_1000_is_recorded(self, tmp_path, capsys, options, rc, recorded):
        # The demo at 1,000 instances per sweep meets about five times the
        # comparator keys of the seed-7 gates.
        doc = copy.deepcopy(DEMO_DOC)
        doc["options"]["sweep"]["count"] = 1000
        assert main(["sweep", write(tmp_path, doc), "--seed", "41", *options]) == rc
        assert capsys.readouterr().out == (Path(__file__).parent / "data" / recorded).read_text(encoding="utf-8")

    @pytest.mark.parametrize("witness, checks", [(True, 1), (False, 0)])
    def test_basechange_check_enumerates_no_passing_character(self, tmp_path, monkeypatch, witness, checks):
        # Every character of the pool passes, so the counts come from the
        # per-position facts and only the witness is checked.
        calls = {"commutativity_check": 0, "weyl_equivalent": 0}
        for name in calls:
            original = getattr(basechange, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(basechange, name, counted)
        payload = dict(MINIMAL, checks=[{"kind": "basechange", "m_max": 4, "witness": witness}])
        (result,) = run_checks(parse_scenario(write(tmp_path, payload))).results
        assert result.status == "pass" and result.details["checked"] == 2 * (12 + 12**2 + 12**3 + 12**4)
        assert calls == {"commutativity_check": checks, "weyl_equivalent": 0}
        calls["commutativity_check"] = 0
        assert all(rep.values_equal_as_tuples for rep in basechange.sweep_commutativity(4))
        assert calls == {"commutativity_check": 45_240, "weyl_equivalent": 0}

    def test_basechange_report_is_recorded(self, capsys):
        # Two base-change sweeps at m_max 3: odd rank without the witness,
        # even rank with it.
        data = Path(__file__).parent / "data"
        assert main(["check", str(data / "basechange_m3.json")]) == 0
        recorded = (data / "basechange_m3_check.json").read_text(encoding="utf-8")
        assert capsys.readouterr().out == recorded


# Words an argv is drawn from: the canonical spelling's, and the hazards
# where argparse reads a token otherwise than a plain reading would
# (abbreviations, ``=``, help, ``--``, Unicode digits, underscores and
# spaces that ``int`` accepts, a seed past ``int``'s 4,300 digits).
FLAG_WORDS = [
    *(f"--{key.replace('_', '-')}" for key in STRING_OPTIONS), "--seed",
    "--d_exponent", "--lev", "--level=q", "-h", "--help", "--", "-",
]  # fmt: skip
VALUE_WORDS = [
    *(value for option in STRING_OPTIONS.values() for value in option.values),
    "0", "7", "007", "-5", "-0", "--5", "-\u0663", "\u0663", "1_0", "-1_0", " 7", "+7", "9" * 4400, "-" + "9" * 4400,
]  # fmt: skip
ARGV_WORDS = ["check", "sweep", "explain", "lemma_d", "demo.json", *FLAG_WORDS, *VALUE_WORDS]
CANONICAL_ARGVS = st.builds(
    lambda command, path, pairs: [command, path, *itertools.chain.from_iterable(pairs)],
    st.sampled_from(["check", "sweep"]),
    st.sampled_from(["demo.json", "", "-", "--level"]),
    st.lists(st.tuples(st.sampled_from(FLAG_WORDS), st.sampled_from(VALUE_WORDS)), max_size=4),
)


class TestCommandLine:
    @settings(max_examples=500, deadline=None)
    @given(argv=st.one_of(CANONICAL_ARGVS, st.lists(st.sampled_from(ARGV_WORDS), max_size=7)))
    @example(argv=["check", "demo.json", "--level", "q", "--seed", "-5", "--level", "e", "--seed", "007"])
    @example(argv=["check", "demo.json", "--d_exponent", "thm"])
    @example(argv=["check", "--level", "--level", "q"])
    @example(argv=["sweep", "demo.json", "--seed", "-1_0"])
    @example(argv=["sweep", "demo.json", "--seed", "9" * 4400])
    def test_direct_reading_is_argparse(self, argv):
        # Wherever the direct reading answers, argparse reads the same.
        direct = read_canonical(argv)
        if direct is not None:
            assert vars(direct) == vars(build_parser().parse_args(argv))

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", str(DEMO), "--lev", "q"],
            ["check", str(DEMO), "--level=q"],
            ["check", "--level", "q", str(DEMO)],
        ],
        ids=["abbreviated", "equals", "flag-first"],
    )
    def test_other_spellings_read_as_the_full_one(self, capsys, argv):
        full = ["check", str(DEMO), "--level", "q"]
        assert read_canonical(argv) is None and read_canonical(full) is not None
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert main(full) == 0
        assert capsys.readouterr().out == out

    def test_help_is_argparse_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == build_parser().format_help()

    def test_invalid_choice_is_argparse_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", str(DEMO), "--level", "z"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "argument --level: invalid choice: 'z'" in captured.err

    def test_scenario_batch_bytes(self, tmp_path, monkeypatch):
        # The 96 seed-1 scenario-batch calls, serialized as ROADMAP's byte set
        # is: one JSON line of argv, exit code, stdout and stderr per call,
        # with the work directory written <work> and the repository <repo>.
        monkeypatch.syspath_prepend(str(DEMO.parents[1] / "perfbench"))
        import workloads

        work, repo = str(tmp_path.resolve()), str(DEMO.parents[1])

        def placed(text):
            return text.replace(work, "<work>").replace(repo, "<repo>")

        lines = []
        for call in workloads.scenario_batch(1, tmp_path.resolve()).calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(call.argv)
            lines.append(json.dumps([[placed(a) for a in call.argv], rc, placed(out.getvalue()), placed(err.getvalue())]))
        assert len(lines) == 96
        assert hashlib.md5("\n".join(lines).encode("utf-8")).hexdigest() == "0176fbc33c1f3e7c9aa3c10e17f4913d"
