import itertools
import random

from cmperiods.cmfield import cyclic_model
from cmperiods.hecke import InfinityType, conjugate_infinity_type

FOUR = cyclic_model(2)


def inf(model, **exps):
    return InfinityType(dict(exps), model)


def algebraic(model, rng, span=6):
    w = rng.randint(-span, span)
    exps = {}
    for t in model.canonical_cm_type().sorted_members():
        m = rng.randint(-span, span)
        exps[t] = m
        exps[model.conj[t]] = w - m
    return InfinityType(exps, model)


class TestConjugation:
    def test_identity(self):
        psi = inf(FOUR, t1=7, t2=0, c1=0, c2=0)
        assert conjugate_infinity_type(psi, "g0") == psi

    def test_four_cycle_moves_support(self):
        psi = inf(FOUR, t1=7, t2=0, c1=0, c2=0)
        out = conjugate_infinity_type(psi, "g1")
        assert out.exps == {"t1": 0, "t2": 7, "c1": 0, "c2": 0}

    def test_left_action_law(self):
        psi = inf(FOUR, t1=1, t2=2, c1=3, c2=4)
        for g, h in itertools.product(FOUR.group, repeat=2):
            gh = FOUR.compose_names(g, h)
            assert conjugate_infinity_type(psi, gh) == conjugate_infinity_type(
                conjugate_infinity_type(psi, h), g
            )

    def test_weight_preserved(self):
        rng = random.Random(0)
        for _ in range(50):
            psi = algebraic(FOUR, rng)
            weight = {psi.exps[x] + psi.exps[FOUR.conj[x]] for x in psi.exps}
            assert len(weight) == 1
            for g in FOUR.group:
                out = conjugate_infinity_type(psi, g)
                assert {out.exps[x] + out.exps[FOUR.conj[x]] for x in out.exps} == weight
