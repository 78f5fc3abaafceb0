"""The immutable record types: NamedTuples with the dataclass contract they replaced.

Each record keeps the ``Name(field=value, ...)`` repr, refuses attribute
assignment, and (where its fields allow) hashes as its field tuple.  The
classes still declared as dataclasses are listed with the feature each one
needs, so a new dataclass has to state its own.
"""

import functools
import importlib
import pkgutil
import random
from pathlib import Path

import pytest

import cmperiods
from cmperiods import basechange as bc
from cmperiods.cmfield import cyclic_model, displacement_sign_invariance, regular_family
from cmperiods.hodge import (
    critical_points_satisfy_bounds,
    critical_range,
    doubling_bounds_check,
    split_indices,
    weight_from_arch_params,
)
from cmperiods.periods import (
    TWO_PI_I_HALF,
    Level,
    compare_automorphic_motivic,
    equivalent_mod,
    mono,
    standard_relations,
)
from cmperiods.scenario import parse_scenario, run_checks
from cmperiods.sweeps import SweepBounds, random_instance
from cmperiods.weights import Signature

DEMO = Path(__file__).resolve().parents[1] / "scenarios" / "demo.json"

VALIDATED = "validation in __post_init__"
# The classes that stay dataclasses, with the feature each one uses.
DATACLASSES = {
    "basechange.USide": VALIDATED,
    "basechange.GLSide": VALIDATED,
    "basechange.UnramChar": VALIDATED,
    "cmfield.CMFieldModel": VALIDATED,
    "hecke.InfinityType": VALIDATED,
    "hodge.ArchParams": VALIDATED,
    "hodge.HodgeData": VALIDATED,
    "weights.WeightParam": VALIDATED,
    "weights.Signature": VALIDATED,
    "cmfield.EmbFamilyModel": "field(compare=False)",
    "periods.RelationLattice": "field(init=False) caches and a cached_property",
    "scenario.Options": "mutated after construction by cli.main",
    "sweeps.SweepStats": "mutated as a sweep runs",
}

HASHABLE = {"PeriodMonomial", "Relation", "CMType", "CriticalRange"}


@functools.lru_cache(maxsize=None)
def records() -> dict:
    """One small real value of each record type, by type name."""
    scn = parse_scenario(str(DEMO))
    report = run_checks(scn)
    inst = random_instance(random.Random(1))
    ap = inst.ap
    sig = Signature({t: (ap.n - c, c) for t, c in inst.counts_arch.items()}, ap.n)
    compare = next(
        rep for rep in map(compare_automorphic_motivic, scn.instances.values()) if rep.points
    )
    model = cyclic_model(1)
    x = mono((TWO_PI_I_HALF, 2))
    values = [
        bc.commutativity_check(bc.UnramChar(bc.USide(1), (bc.qval(2, 1),)), -1),
        displacement_sign_invariance(model, regular_family(model))[0],
        next(model.cm_types()),
        critical_range((0, 3), 3),
        split_indices(2, 1),
        inst,
        doubling_bounds_check(ap.n, weight_from_arch_params(ap), inst.exp_pairs, inst.kappa, sig),
        critical_points_satisfy_bounds(inst),
        x,
        standard_relations(Level.Q).relations[0],
        equivalent_mod(x, x, standard_relations(Level.Q)),
        compare.points[0],
        compare,
        SweepBounds(),
        report.results[0],
        report,
        scn,
    ]
    return {type(v).__name__: v for v in values}


RECORD_NAMES = [
    "CommutativityReport",
    "InvarianceReport",
    "CMType",
    "CriticalRange",
    "SplitIndexTable",
    "InstanceAnalysis",
    "BoundsReport",
    "CriticalBoundsReport",
    "PeriodMonomial",
    "Relation",
    "EquivalenceResult",
    "PointComparison",
    "CompareReport",
    "SweepBounds",
    "CheckResult",
    "Report",
    "Scenario",
]


@pytest.mark.parametrize("name", RECORD_NAMES)
def test_record_contract(name):
    x = records()[name]
    fields = type(x)._fields
    with pytest.raises(AttributeError):
        setattr(x, fields[0], getattr(x, fields[0]))
    assert repr(x).startswith(f"{name}(")
    assert repr(x) == f"{name}(" + ", ".join(f"{f}={getattr(x, f)!r}" for f in fields) + ")"
    assert x == type(x)(*x)
    if name in HASHABLE:
        assert hash(x) == hash(tuple(x))


def test_dataclasses_state_their_feature():
    found = {}
    for info in pkgutil.iter_modules(cmperiods.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        mod = importlib.import_module(f"cmperiods.{info.name}")
        found.update(
            (f"{info.name}.{name}", obj)
            for name, obj in vars(mod).items()
            if isinstance(obj, type) and obj.__module__ == mod.__name__ and "__dataclass_fields__" in vars(obj)
        )
    assert set(found) == set(DATACLASSES)
    for name, feature in DATACLASSES.items():
        assert feature != VALIDATED or "__post_init__" in vars(found[name]), name
