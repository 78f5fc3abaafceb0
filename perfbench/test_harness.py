"""Self-test of the benchmark harness: its known answers and its tracer.

    PYTHONPATH=src python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from cmperiods import cli  # noqa: E402


def run_calls(wl):
    outs = []
    for call in wl.calls:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(call.argv)
        outs.append((rc, buf.getvalue()))
    return outs


def wrong_ratio(wl, outs) -> float:
    judged = [workloads.judge(c, rc, out, None) for c, (rc, out) in zip(wl.calls, outs)]
    return sum(j.wrong for j in judged) / sum(j.verdicts for j in judged)


@pytest.fixture(scope="module")
def batch(tmp_path_factory):
    wl = workloads.build("scenario-batch", 11, tmp_path_factory.mktemp("batch"))
    return wl, run_calls(wl)


def test_batch_matches_known_answers(batch):
    wl, outs = batch
    assert wrong_ratio(wl, outs) == 0
    statuses = {e["status"] for c in wl.calls for e in c.expect["checks"]}
    assert statuses == {"pass", "fail"}  # the batch holds known-fail checks


def test_flipped_answer_is_counted(batch):
    wl, outs = batch
    flipped = copy.deepcopy(wl)
    first = flipped.calls[0].expect["checks"][0]
    first["status"] = "fail" if first["status"] == "pass" else "pass"
    assert wrong_ratio(flipped, outs) > 0


def test_always_pass_program_is_caught(batch):
    wl, outs = batch
    faked = []
    for rc, out in outs:
        report = json.loads(out)
        for chk in report["checks"]:
            chk["status"] = "pass"
        faked.append((0, json.dumps(report)))
    assert wrong_ratio(wl, faked) > 0


def test_sweep_counts_match_replayed_generator(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SWEEP_COUNT", 60)
    wl = workloads.build("sweep-mix", 5, tmp_path)
    outs = run_calls(wl)
    assert wrong_ratio(wl, outs) == 0

    # A point of a dictionary-off sweep wrongly found equivalent is a missing failure.
    rc, out = outs[1]
    report = json.loads(out)
    compare = next(c for c in report["checks"] if c["id"] == "sweep-compare")
    assert compare["status"] == "fail" and compare["details"]["failures"]
    del compare["details"]["failures"][-1]
    outs[1] = (rc, json.dumps(report))
    assert wrong_ratio(wl, outs) > 0


def test_missing_traced_function_fails_loudly(monkeypatch):
    monkeypatch.setattr(tracer, "NAMED", tracer.NAMED + ["hodge:no_such_function"])
    with pytest.raises(tracer.TraceError):
        tracer.Tracer().install()


def test_tracer_sees_calls_through_copied_names(tmp_path):
    """``periods`` and ``scenario`` call ``critical_range`` through their own imported names."""
    wl = workloads.build("scenario-batch", 3, tmp_path)
    groups = run.child([wl.calls[1].argv], trace=True)["trace"]["groups"]
    assert groups["hodge.critical_range"]["calls"] > 0
    assert groups["cmfield"]["calls"] > 0
    assert groups["scenario.run_checks"]["calls"] == 1
