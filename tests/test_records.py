"""The record types: tuples with the contract the dataclasses they replaced had.

Each record keeps the ``Name(field=value, ...)`` repr, refuses assignment
to its fields, equals a record rebuilt from its fields, and (where its
fields allow) hashes as its field tuple.  The validated records run their
checks in ``__new__``, so an invalid value is refused at construction with
the error type and message it always had.  No class of the package is a
dataclass, and importing the command line loads neither ``dataclasses``
nor the introspection modules it pulls in, nor (for a check spelled out
in full) ``argparse``.
"""

import functools
import importlib
import os
import pkgutil
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cmperiods
from cmperiods import basechange as bc
from cmperiods.cmfield import CMFieldModel, cyclic_model, displacement_sign_invariance, regular_family
from cmperiods.errors import InvalidModelError, PreconditionError
from cmperiods.hecke import InfinityType
from cmperiods.hodge import (
    ArchParams,
    HodgeData,
    critical_points_satisfy_bounds,
    critical_range,
    doubling_bounds_check,
    hodge_from_arch_params,
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
from cmperiods.weights import Signature, WeightParam

DEMO = Path(__file__).resolve().parents[1] / "scenarios" / "demo.json"

HASHABLE = {"PeriodMonomial", "Relation", "CMType", "CriticalRange", "USide", "GLSide", "UnramChar"}


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
    char = bc.UnramChar(bc.USide(1), (bc.qval(2, 1),))
    values = [
        bc.commutativity_check(char, -1),
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
        char.side,
        bc.GLSide(2),
        char,
        model,
        scn.blocks["infinity_types"]["psi"],
        ap,
        hodge_from_arch_params(ap),
        scn.blocks["weights"]["mu"],
        sig,
        regular_family(model),
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
    "USide",
    "GLSide",
    "UnramChar",
    "CMFieldModel",
    "InfinityType",
    "ArchParams",
    "HodgeData",
    "WeightParam",
    "Signature",
    "EmbFamilyModel",
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


# One invalid value of each validated record, with the error it has always raised.
REJECTED = {
    "USide": (lambda: bc.USide(0), PreconditionError, "half-rank must be at least 1"),
    "GLSide": (lambda: bc.GLSide(0), PreconditionError, "rank must be at least 1"),
    "UnramChar": (
        lambda: bc.UnramChar(bc.USide(2), (bc.qval(1),)),
        PreconditionError,
        "character needs 2 coordinates, got 1",
    ),
    # A 3-cycle on the conjugate pairs without its square: the closure check reads _names.
    "CMFieldModel": (
        lambda: CMFieldModel(
            ("t1", "t2", "t3", "c1", "c2", "c3"),
            {"t1": "c1", "t2": "c2", "t3": "c3", "c1": "t1", "c2": "t2", "c3": "t3"},
            {
                "e": {x: x for x in ("t1", "t2", "t3", "c1", "c2", "c3")},
                "g": {"t1": "t2", "t2": "t3", "t3": "t1", "c1": "c2", "c2": "c3", "c3": "c1"},
            },
        ),
        InvalidModelError,
        "group is not closed under composition",
    ),
    "InfinityType": (
        lambda: InfinityType({"t1": 1}, cyclic_model(1)),
        PreconditionError,
        "infinity type must assign an exponent to every embedding",
    ),
    "ArchParams": (
        lambda: ArchParams({"t1": (2,)}, 1, cyclic_model(2)),
        PreconditionError,
        "ArchParams places ['t1'] are not a CM type: CM type does not cover every conjugate pair",
    ),
    "HodgeData": (
        lambda: HodgeData(n=1, weight=0, pairs={"t1": ((1, 0),)}),
        PreconditionError,
        "each Hodge pair must sum to the weight",
    ),
    "WeightParam": (
        lambda: WeightParam({"t1": (1,)}, 0, 2),
        PreconditionError,
        "entry list at 't1' has length 1 != 2",
    ),
    "Signature": (
        lambda: Signature({"t1": (2, 0)}, 1),
        PreconditionError,
        "signature at 't1' must be nonnegative with r+s=1",
    ),
}


@pytest.mark.parametrize("name", REJECTED)
def test_validated_record_rejects_invalid_value(name):
    build, error, message = REJECTED[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_no_class_is_a_dataclass():
    for info in pkgutil.iter_modules(cmperiods.__path__):
        mod = importlib.import_module(f"cmperiods.{info.name}")
        found = [
            name
            for name, obj in vars(mod).items()
            if isinstance(obj, type) and obj.__module__ == mod.__name__ and "__dataclass_fields__" in vars(obj)
        ]
        assert found == [], mod.__name__


def test_cli_import_loads_no_dataclass_machinery():
    # A fresh interpreter, as every command-line call is: ``dataclasses``
    # would pull in ``inspect``, ``ast``, ``dis`` and ``tokenize``.
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = f"import sys, cmperiods.cli; print([m for m in {heavy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(DEMO.parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout == "[]\n"


def test_cli_import_and_check_load_no_argparse():
    # A fresh interpreter, as every command-line call is: ``argparse``
    # pulls in ``gettext``, whose first message loads ``locale``.  A check
    # spelled out in full is read without them.
    heavy = ("argparse", "gettext", "locale")
    code = (
        "import contextlib, io, sys, cmperiods.cli as cli\n"
        f"print([m for m in {heavy!r} if m in sys.modules])\n"
        f"with contextlib.redirect_stdout(io.StringIO()): cli.main(['check', {str(DEMO)!r}, '--seed', '3'])\n"
        f"print([m for m in {heavy!r} if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=str(DEMO.parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout == "[]\n[]\n"
