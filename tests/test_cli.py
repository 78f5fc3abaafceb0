import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cmperiods import scenario
from cmperiods.cli import main
from cmperiods.errors import ScenarioError
from cmperiods.scenario import Scenario, emit_report, parse_scenario, run_checks, run_sweeps
from cmperiods.weights import similitude_twist

DEMO = Path(__file__).resolve().parents[1] / "scenarios" / "demo.json"

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
        ],
    )
    def test_malformed_basechange_field(self, tmp_path, capsys, field, value):
        # Despite the name, covers every validated check field: each value
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
        + [pytest.param("weights.mu.entries.t1", ("weights", "mu", "entries", "t1"), 5, id="weights-row")],
    )
    def test_malformed_shape_exits_two(self, tmp_path, capsys, where, path, value):
        # A container of the wrong JSON type, or a number that is not an
        # integer where one is required, is an input error naming its place.
        payload = mutated(copy.deepcopy(DEMO_DOC), [(path, value)])
        assert main(["check", write(tmp_path, payload)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"input error: {where} must be")

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.lists(
            st.tuples(st.sampled_from(DEMO_PATHS), st.sampled_from(FUZZ_VALUES)), min_size=1, max_size=3
        )
    )
    def test_mutated_demo_parses_or_raises_scenario_error(self, tmp_path, mutations):
        path = write(tmp_path, mutated(copy.deepcopy(DEMO_DOC), mutations))
        try:
            assert isinstance(parse_scenario(path), Scenario)
        except ScenarioError:
            pass

    @pytest.mark.parametrize("value", [[1, 0], True, [True, 2]])
    def test_malformed_rational_rejected(self, tmp_path, value):
        payload = json.loads(json.dumps(MINIMAL))
        payload["arch_params"]["Pi"]["entries"]["t1"] = [value]
        with pytest.raises(ScenarioError, match="arch_params.Pi.t1: rationals must be"):
            parse_scenario(write(tmp_path, payload))

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

    def test_check_error_captured(self, tmp_path):
        payload = json.loads(json.dumps(MINIMAL))
        # Degenerate comparison: 2*diff - kappa + 2A = 2*2 - 0 + 2*(-2) = 0.
        payload["arch_params"]["Pi"]["entries"]["t1"] = [[-2, 1]]
        payload["characters"]["eta"] = {"pairs": {"t1": [1, -1]}, "kappa": 0}
        report = run_checks(parse_scenario(write(tmp_path, payload)))
        by_id = {r.check_id: r for r in report.results}
        assert by_id["sig"].status == "error"
        assert "Degenerate" in by_id["sig"].details["error"]
        assert by_id["crit"].status in ("pass", "fail", "error")


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

    def test_exit_two_on_input_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        assert main(["check", str(path)]) == 2
        assert "input error" in capsys.readouterr().err

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

    def test_explain_compare_names_every_cited_identity(self, capsys):
        cited = set()
        for level in ("q", "fgal"):
            for tate in ("on", "off"):
                main(["check", str(DEMO), "--level", level, "--tate", tate])
                report = json.loads(capsys.readouterr().out)
                cited.update(tag for c in report["checks"] if c["kind"] == "compare" for tag in c["identities"])
        assert main(["explain", "compare"]) == 0
        out = capsys.readouterr().out
        assert len(cited) == 11
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
        cmd = ["-m", "cmperiods", "check", str(DEMO)]
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
