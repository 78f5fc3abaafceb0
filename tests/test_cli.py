import json
from pathlib import Path

import pytest

from cmperiods.cli import main
from cmperiods.errors import ScenarioError
from cmperiods.scenario import emit_report, parse_scenario, run_checks, run_sweeps

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


def write(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


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
        ],
    )
    def test_malformed_basechange_field(self, tmp_path, capsys, field, value):
        payload = json.loads(json.dumps(MINIMAL))
        payload["checks"] = [{"id": "bc", "kind": "basechange", field: value}]
        assert main(["check", write(tmp_path, payload)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"input error: checks[0]: {field} must be")

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
        ids = [c["id"] for c in report["checks"]]
        assert ids == [
            "sweep-compare",
            "sweep-bounds",
            "sweep-signature",
            "sweep-dominance",
            "sweep-equivariance",
        ]

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
