"""Every layer group a benchmark workload declares it exercises records calls.

The benchmark's traced run refuses a workload whose declared groups stay
silent; this runs the same check at Tier-1 on a small sweep-mix and on
the first files of scenario-batch, and on basechange-exhaustive, so a
change that routes the comparator or a check around a traced function
(such as a base-change witness that stops calling
``commutativity_check`` by name) fails here.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
import workloads  # noqa: E402


def test_sweep_mix_exercises_every_declared_group(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SWEEP_COUNT", 60)
    wl = workloads.build("sweep-mix", 5, tmp_path)
    groups = run.child([c.argv for c in wl.calls], trace=True)["trace"]["groups"]
    assert [g for g in wl.exercises if groups[g]["calls"] == 0] == []


def test_scenario_batch_exercises_every_declared_group(tmp_path):
    # The first six files cover the six field models, one each.
    wl = workloads.build("scenario-batch", 5, tmp_path)
    docs = [json.loads(Path(c.argv[1]).read_text(encoding="utf-8")) for c in wl.calls[:6]]
    assert sorted(d["field_model"]["builtin"] for d in docs) == sorted(name for name, _ in workloads.MODELS)
    groups = run.child([c.argv for c in wl.calls[:6]], trace=True)["trace"]["groups"]
    assert [g for g in wl.exercises if groups[g]["calls"] == 0] == []


def test_basechange_exhaustive_exercises_every_declared_group(tmp_path):
    wl = workloads.build("basechange-exhaustive", 5, tmp_path)
    groups = run.child([c.argv for c in wl.calls], trace=True)["trace"]["groups"]
    assert [g for g in wl.exercises if groups[g]["calls"] == 0] == []
