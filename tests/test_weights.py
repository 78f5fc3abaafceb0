import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmperiods.cmfield import CMType, cyclic_model, klein_model
from cmperiods.errors import DominanceError
from cmperiods.hecke import InfinityType, conjugate_infinity_type
from cmperiods.weights import (
    Signature,
    WeightParam,
    character_twist_weight,
    conjugate_weight,
    det_twist,
    doubling_weight,
    dual_weight,
    extend_weight,
    is_block_dominant,
    is_dominant,
    line_bundle_weight,
    sharp_dual_composite,
    sharp_dual_weight,
    sharp_pair,
    similitude_twist,
)

ONE_PAIR = cyclic_model(1)
PHI1 = CMType(frozenset({"t1"}))
FOUR = cyclic_model(2)


def inf(model, **exps):
    return InfinityType(dict(exps), model)


@st.composite
def dominant_rows(draw, n):
    start = draw(st.integers(-8, 8))
    steps = draw(st.lists(st.integers(0, 4), min_size=n - 1, max_size=n - 1))
    row = [start]
    for s in steps:
        row.append(row[-1] - s)
    return tuple(row)


@st.composite
def dominant_weights(draw):
    n = draw(st.integers(1, 8))
    row = draw(dominant_rows(n))
    return WeightParam({"t1": row}, draw(st.integers(-5, 5)), n)


class TestDominance:
    def test_examples(self):
        assert is_dominant(WeightParam({"t1": (1, 0)}, 0, 2))
        assert not is_dominant(WeightParam({"t1": (0, 1)}, 0, 2))
        assert is_dominant(WeightParam({"t1": (3, 3, 3)}, 0, 3))

    def test_block_examples(self):
        assert is_block_dominant(WeightParam({"t1": (-1, 2)}, 0, 2), Signature({"t1": (1, 1)}, 2))
        w = WeightParam({"t1": (2, -1, 0)}, 0, 3)
        assert is_block_dominant(w, Signature({"t1": (2, 1)}, 3))
        assert not is_block_dominant(w, Signature({"t1": (1, 2)}, 3))

    @given(dominant_weights(), st.integers(0, 8))
    def test_dominant_is_block_dominant_for_every_signature(self, w, r):
        sig = Signature({"t1": (min(r, w.n), w.n - min(r, w.n))}, w.n)
        assert is_block_dominant(w, sig)


class TestDoublingWeight:
    def test_basic_example(self):
        mu = WeightParam({"t1": (1, 0)}, 0, 2)
        psi = inf(ONE_PAIR, t1=0, c1=0)
        lam = doubling_weight(mu, psi, Signature({"t1": (1, 1)}, 2))
        assert lam == WeightParam({"t1": (-1, 2)}, 0, 2)

    def test_definite_signature_collapses(self):
        # With s = 0 and equal exponents at both embeddings the rows survive.
        mu = WeightParam({"t1": (4, 2, 1)}, 5, 3)
        psi = inf(ONE_PAIR, t1=3, c1=3)
        lam = doubling_weight(mu, psi, Signature({"t1": (3, 0)}, 3))
        assert lam.entries["t1"] == (4, 2, 1)
        assert lam.a0 == 5 - 3 * 3

    def test_shift_linearity_in_conjugate_exponent(self):
        mu = WeightParam({"t1": (2, 0), "t2": (1, 1)}, 3, 2)
        psi = inf(FOUR, t1=1, t2=-2, c1=0, c2=4)
        shifted = inf(FOUR, t1=1, t2=-2, c1=1, c2=5)
        sig = Signature({"t1": (1, 1), "t2": (2, 0)}, 2)
        lam = doubling_weight(mu, psi, sig)
        lam2 = doubling_weight(mu, shifted, sig)
        assert lam2.a0 == lam.a0 - 2 * 2
        for t in ("t1", "t2"):
            assert lam2.entries[t] == tuple(b + 1 for b in lam.entries[t])

    def test_requires_dominant_input(self):
        with pytest.raises(DominanceError):
            doubling_weight(
                WeightParam({"t1": (0, 1)}, 0, 2),
                inf(ONE_PAIR, t1=0, c1=0),
                Signature({"t1": (1, 1)}, 2),
            )

    def test_dominance_preserved_on_seeded_sweep(self):
        rng = random.Random(99)
        for _ in range(500):
            n = rng.randint(1, 8)
            row = [rng.randint(-8, 8)]
            for _ in range(n - 1):
                row.append(row[-1] - rng.randint(0, 4))
            mu = WeightParam({"t1": tuple(row)}, rng.randint(-5, 5), n)
            psi = inf(ONE_PAIR, t1=rng.randint(-6, 6), c1=rng.randint(-6, 6))
            r = rng.randint(0, n)
            sig = Signature({"t1": (r, n - r)}, n)
            assert is_block_dominant(doubling_weight(mu, psi, sig), sig)


class TestDualAndSharp:
    def test_dual_example(self):
        assert dual_weight(WeightParam({"t1": (1, 0)}, 3, 2)) == WeightParam(
            {"t1": (0, -1)}, -3, 2
        )

    def test_dual_involution(self):
        w = WeightParam({"t1": (4, 1, -2), "t2": (0, 0, -5)}, 7, 3)
        assert dual_weight(dual_weight(w)) == w

    def test_dual_zero(self):
        z = WeightParam({"t1": (0, 0)}, 0, 2)
        assert dual_weight(z) == z

    def test_sharp_dual_example(self):
        got = sharp_dual_weight(WeightParam({"t1": (1, 0)}, 0, 2), 0)
        assert got == WeightParam({"t1": (1, 0, 0, -1)}, 0, 4)

    def test_sharp_dual_zero_weight_twist(self):
        got = sharp_dual_weight(WeightParam({"t1": (0, 0)}, 0, 2), 2)
        assert got == WeightParam({"t1": (0, 0, -2, -2)}, 0, 4)

    @given(dominant_weights(), st.integers(-4, 4))
    def test_sharp_dual_scalar_always_zero(self, w, kappa):
        got = sharp_dual_weight(w, kappa)
        assert got.a0 == 0
        assert sharp_dual_composite(w, kappa) == got

    def test_composite_pieces(self):
        w = WeightParam({"t1": (2, 1)}, 5, 2)
        assert det_twist(w, 3).entries["t1"] == (5, 4)
        assert det_twist(w, 3).a0 == 8
        assert similitude_twist(w, -2).a0 == 3
        pair = sharp_pair(w, dual_weight(w))
        assert pair.n == 4 and pair.a0 == 0


class TestCharacterTwistWeight:
    def test_zero(self):
        psi = inf(ONE_PAIR, t1=0, c1=0)
        assert character_twist_weight(psi, 2, PHI1) == WeightParam({"t1": (0, 0)}, 0, 2)

    def test_example(self):
        psi = inf(ONE_PAIR, t1=3, c1=1)
        assert character_twist_weight(psi, 2, PHI1) == WeightParam({"t1": (2, 2)}, 2, 2)

    def test_inverse_negates(self):
        psi = inf(ONE_PAIR, t1=3, c1=-2)
        w = character_twist_weight(psi, 3, PHI1)
        w_inv = character_twist_weight(psi.inverse(), 3, PHI1)
        assert all(a + b == 0 for a, b in zip(w.entries["t1"], w_inv.entries["t1"]))
        assert w.a0 + w_inv.a0 == 0


class TestLineBundleWeight:
    def test_zero(self):
        assert line_bundle_weight(0, 0, 2, PHI1) == WeightParam({"t1": (0, 0, 0, 0)}, 0, 4)

    def test_example(self):
        assert line_bundle_weight(3, 1, 1, PHI1) == WeightParam({"t1": (-4, 3)}, 0, 2)

    def test_block_dominant_for_doubled_signature(self):
        # Constant blocks are blockwise dominant for every doubled signature;
        # full weak decrease across the boundary is the inequality 2m+k <= 0.
        for m in range(-3, 4):
            for kappa in range(-3, 4):
                w = line_bundle_weight(m, kappa, 2, PHI1)
                assert is_block_dominant(w, Signature({"t1": (2, 2)}, 4))
                assert is_dominant(w) == (2 * m + kappa <= 0)


class TestConjugateWeight:
    W = WeightParam({"t1": (1, 0), "t2": (5, 2)}, 0, 2)

    def test_identity(self):
        assert conjugate_weight(self.W, "g0", FOUR) == self.W

    def test_four_cycle_entries(self):
        out = conjugate_weight(self.W, "g1", FOUR)
        assert out.entries["t1"] == (5, 2)
        # t2 maps into the conjugate half, picking up the dual row of t1.
        assert out.entries["t2"] == (0, -1)
        assert out.a0 == 0 + (1 + 0)

    def test_mirror_convention_keeps_scalar(self):
        out = conjugate_weight(self.W, "g1", FOUR, convention="mirror")
        assert out.entries["t2"] == (0, 1)
        assert out.a0 == 0

    def test_inverse_round_trip(self):
        for g in FOUR.group:
            gi = FOUR.inverse_name(g)
            assert conjugate_weight(conjugate_weight(self.W, g, FOUR), gi, FOUR) == self.W

    def test_right_action_law(self):
        for g in FOUR.group:
            for h in FOUR.group:
                twice = conjugate_weight(conjugate_weight(self.W, h, FOUR), g, FOUR)
                once = conjugate_weight(self.W, FOUR.compose_names(h, g), FOUR)
                assert twice == once

    def test_extension_conventions(self):
        ext = extend_weight(self.W, FOUR)
        assert ext["c1"] == (0, -1)
        ext_m = extend_weight(self.W, FOUR, convention="mirror")
        assert ext_m["c1"] == (0, 1)


class TestDoublingEquivariance:
    def models(self):
        return [cyclic_model(1), cyclic_model(2), cyclic_model(3), klein_model()]

    def test_identity_against_transported_inputs(self):
        rng = random.Random(4)
        for model in self.models():
            phi = model.canonical_cm_type()
            for _ in range(60):
                n = rng.randint(1, 5)
                entries = {}
                for t in phi.sorted_members():
                    row = [rng.randint(-6, 6)]
                    for _ in range(n - 1):
                        row.append(row[-1] - rng.randint(0, 3))
                    entries[t] = tuple(row)
                mu = WeightParam(entries, rng.randint(-4, 4), n)
                psi = InfinityType(
                    {t: rng.randint(-5, 5) for t in model.embeddings}, model
                )
                sig = Signature(
                    {t: (lambda r: (r, n - r))(rng.randint(0, n)) for t in phi.sorted_members()},
                    n,
                )
                lam = doubling_weight(mu, psi, sig)
                for g in model.group:
                    lhs = doubling_weight(
                        conjugate_weight(mu, g, model),
                        conjugate_infinity_type(psi, model.inverse_name(g)),
                        sig.conjugated(model, g),
                    )
                    assert lhs == conjugate_weight(lam, g, model)
