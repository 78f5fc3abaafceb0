"""Sweeps fed by instance sources other than the cyclic seeded draw."""

import random
from itertools import islice

import pytest

from cmperiods.cmfield import dihedral_model, klein_model
from cmperiods.hodge import ArchParams, analyze_instance
from cmperiods.periods import Level
from cmperiods.sweeps import (
    DEFAULT_BOUNDS,
    run_compare_sweep,
    run_equivariance_sweep,
    seeded_instances,
    weight_data,
)

SEED = 5
PER_MODEL = 30


def reanalysed(model):
    """Seeded draws of the model's degree, re-analysed on the model.

    The cyclic draws of degree d use the same embedding names as the
    non-cyclic models of that degree, so only the group action changes.
    """
    d = model.degree_plus
    draws = seeded_instances(random.Random(SEED), 100 * PER_MODEL, DEFAULT_BOUNDS)
    return [
        analyze_instance(ArchParams(inst.ap.doubled, inst.ap.n, model), inst.exp_pairs, inst.kappa)
        for inst in islice((inst for inst in draws if inst.model.degree_plus == d), PER_MODEL)
    ]


@pytest.fixture(
    scope="module",
    params=[klein_model(), dihedral_model(2), dihedral_model(3)],
    ids=["klein", "dihedral:2", "dihedral:3"],
)
def instances(request):
    return reanalysed(request.param)


@pytest.mark.parametrize("level, tate", [(Level.FGAL, True), (Level.Q, False)], ids=["fgal-tate", "q-no-tate"])
def test_noncyclic_compare_sweep(instances, level, tate):
    # Without the period dictionary no admissible point closes; with it, all do.
    stats = run_compare_sweep(instances, level, tate)
    assert stats.instances == PER_MODEL
    assert stats.points_checked > 0
    assert len(stats.failures) == (0 if tate else stats.points_checked)


@pytest.mark.parametrize("level, tate", [(Level.FGAL, True), (Level.Q, False)], ids=["fgal-tate", "q-no-tate"])
def test_noncyclic_equivariance_sweep(instances, level, tate):
    stats = run_equivariance_sweep(zip(instances, weight_data(random.Random(SEED), 4)), level, tate)
    assert stats.instances == PER_MODEL
    assert stats.points_checked > 0
    assert stats.ok, stats.failures[:3]
