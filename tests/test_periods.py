
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmperiods.cmfield import CMType, cyclic_model
from cmperiods.errors import NotCriticalError
from cmperiods.hodge import ArchParams, analyze_instance
from cmperiods.periods import (
    CM_TYPE_SIGN,
    D_HALF,
    IMAG_PRODUCT,
    ETA_DUAL_C,
    FINITE_ORDER_PERIOD,
    GAUSS_SUM,
    ONE,
    Q_PI_PSI_ALPHA,
    QUAD_PERIOD,
    TWO_PI_I_HALF,
    Level,
    PeriodMonomial,
    RelationLattice,
    arch_zeta,
    auto_period,
    character_relations,
    cm_period,
    compare_automorphic_motivic,
    deligne_period_prediction,
    equivalent_mod,
    mono,
    mono_inv,
    mono_mul,
    mono_pow,
    motivic_q,
    normalizing_factor_closed,
    normalizing_factor_product,
    opaque,
    pairing_relations,
    rankin_lvalue_period,
    refined_lvalue_period,
    standard_lvalue_period,
    standard_relations,
    standard_vs_refined,
)
from cmperiods.sweeps import SweepBounds, random_instance

ONE_PAIR = cyclic_model(1)
PHI1 = CMType(frozenset({"t1"}))

GEN_POOL = [TWO_PI_I_HALF, D_HALF, IMAG_PRODUCT, QUAD_PERIOD, CM_TYPE_SIGN, GAUSS_SUM, opaque("x")]


@st.composite
def monomials(draw):
    pairs = draw(
        st.dictionaries(st.sampled_from(GEN_POOL), st.integers(-6, 6), max_size=5)
    )
    return PeriodMonomial.from_dict(pairs)


class TestMonomialAlgebra:
    def test_cancellation(self):
        x = mono((D_HALF, 1), (GAUSS_SUM, 2))
        assert mono_mul(x, mono_inv(x)) == ONE

    def test_power_of_power(self):
        g = mono((QUAD_PERIOD, 2))
        assert mono_pow(g, 3) == mono((QUAD_PERIOD, 6))

    def test_canonical_form_drops_zeros(self):
        assert mono((D_HALF, 0)) == ONE
        assert mono_mul(mono((D_HALF, 1)), mono((D_HALF, -1))) == ONE

    @given(monomials(), monomials(), monomials())
    def test_group_laws(self, x, y, z):
        assert mono_mul(x, y) == mono_mul(y, x)
        assert mono_mul(mono_mul(x, y), z) == mono_mul(x, mono_mul(y, z))
        assert mono_mul(x, ONE) == x
        assert mono_mul(x, mono_inv(x)) == ONE

    @given(monomials(), st.integers(-4, 4))
    def test_powers(self, x, k):
        expected = ONE
        for _ in range(abs(k)):
            expected = mono_mul(expected, x if k >= 0 else mono_inv(x))
        assert mono_pow(x, k) == expected

    def test_describe_sorted(self):
        x = mono((QUAD_PERIOD, 1), (D_HALF, -2))
        assert x.describe() == "disc^1/2^-2 * quad-char-period^1"

    def test_fixed_symbol_names(self):
        # These names are printed in residuals and order them in reports.
        assert ETA_DUAL_C == "eta-dual^c"
        assert Q_PI_PSI_ALPHA.name() == "opaque(Q(Pi,psi,alpha))"
        assert GAUSS_SUM.name() == "gauss-sum(alpha)"
        assert FINITE_ORDER_PERIOD.name() == "finite-order-period(alpha)"


class TestEquivalence:
    def test_equal_inputs(self):
        lat = standard_relations(Level.Q)
        res = equivalent_mod(mono((D_HALF, 3)), mono((D_HALF, 3)), lat)
        assert res.equivalent and res.residual == ONE

    def test_quad_period_factorization(self):
        lat = standard_relations(Level.Q)
        res = equivalent_mod(
            mono((QUAD_PERIOD, 1)), mono((IMAG_PRODUCT, 1), (D_HALF, 1)), lat
        )
        assert res.equivalent

    def test_empty_lattice_residual_is_difference(self):
        empty = RelationLattice(level=Level.Q, relations=())
        res = equivalent_mod(
            mono((QUAD_PERIOD, 1)), mono((IMAG_PRODUCT, 1), (D_HALF, 1)), empty
        )
        assert not res.equivalent
        assert res.residual == mono((QUAD_PERIOD, 1), (IMAG_PRODUCT, -1), (D_HALF, -1))

    def test_sign_generator_levels(self):
        at_q = standard_relations(Level.Q)
        at_fgal = standard_relations(Level.FGAL)
        one_sign = mono((CM_TYPE_SIGN, 1))
        assert not equivalent_mod(one_sign, ONE, at_q).equivalent
        assert equivalent_mod(mono((CM_TYPE_SIGN, 2)), ONE, at_q).equivalent
        assert equivalent_mod(one_sign, ONE, at_fgal).equivalent

    def test_parameterized_trivial_generators(self):
        lat = standard_relations(Level.FGAL)
        assert equivalent_mod(mono((arch_zeta(5), -1)), ONE, lat).equivalent
        assert not equivalent_mod(mono((arch_zeta(5), -1)), ONE, standard_relations(Level.Q)).equivalent

    def test_equivalence_relation_properties(self):
        rng = random.Random(31)
        lat = standard_relations(Level.FGAL)
        pool = GEN_POOL + [arch_zeta(1)]
        for _ in range(60):
            def rand_mono():
                return PeriodMonomial.from_dict(
                    {g: rng.randint(-3, 3) for g in rng.sample(pool, rng.randint(0, 4))}
                )

            x, y, z = rand_mono(), rand_mono(), rand_mono()
            assert equivalent_mod(x, x, lat).equivalent
            assert (
                equivalent_mod(x, y, lat).equivalent
                == equivalent_mod(y, x, lat).equivalent
            )
            if equivalent_mod(x, y, lat).equivalent and equivalent_mod(y, z, lat).equivalent:
                assert equivalent_mod(x, z, lat).equivalent


class TestNormalizingFactor:
    def test_rank_one_closed_form(self):
        got = normalizing_factor_closed(1, 4, 2, 3)
        assert got == mono(
            (TWO_PI_I_HALF, 2 * 3 * 10), (D_HALF, 1), (GAUSS_SUM, 1)
        )

    def test_rank_two_example(self):
        got = normalizing_factor_closed(2, 3, 0, 1)
        assert got == mono(
            (TWO_PI_I_HALF, 22), (D_HALF, 1), (QUAD_PERIOD, 1), (GAUSS_SUM, 2)
        )
        assert normalizing_factor_product(2, 3, 0, 1) == got

    def test_product_before_substitution(self):
        raw = normalizing_factor_product(1, 2, 0, 1, substitute=False)
        assert raw.exponent(FINITE_ORDER_PERIOD) == 1
        assert raw.exponent(GAUSS_SUM) == 0
        lat = standard_relations(Level.Q)
        assert equivalent_mod(raw, normalizing_factor_closed(1, 2, 0, 1), lat).equivalent

    def test_full_sweep_equality(self):
        for n in range(1, 13):
            for kappa in range(0, 5):
                for d in (1, 2, 3):
                    for m in range((2 * n - kappa) // 2 + 1, n + 7):
                        assert normalizing_factor_closed(
                            n, m, kappa, d
                        ) == normalizing_factor_product(n, m, kappa, d)

    def test_twist_shift_invariance(self):
        for n in (1, 2, 5):
            for m in range(n + 1, n + 5):
                assert normalizing_factor_closed(n, m, 2, 2) == normalizing_factor_closed(
                    n, m - 1, 4, 2
                )


class TestStandardSides:
    def test_discriminant_variants(self):
        thm = standard_lvalue_period(3, 5, 2, variant="thm")
        intro = standard_lvalue_period(3, 5, 2, variant="intro")
        assert thm.exponent(D_HALF) == 1
        assert intro.exponent(D_HALF) == 2
        assert thm.exponent(arch_zeta(5)) == -1

    def test_refined_side_exponents(self):
        got = refined_lvalue_period(2, 2, 1, 3)
        assert got.exponent(TWO_PI_I_HALF) == 2 * (4 - 1) - 12
        assert got.exponent(IMAG_PRODUCT) == 1
        assert got.exponent(D_HALF) == 2
        assert got.exponent(CM_TYPE_SIGN) == 4
        assert got.exponent(cm_period("psi", "@x")) == 1
        assert got.exponent(cm_period("psi^-1*alpha^-1", "@xbar")) == 1

    @pytest.mark.parametrize("variant", ["thm", "intro"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_standard_matches_refined_at_coarse_level(self, variant, n):
        res = standard_vs_refined(n, n + 2, 2, a0=3, variant=variant, level=Level.FGAL)
        assert res.equivalent, res.residual.describe()

    def test_variant_discrepancy_visible_at_fine_level(self):
        thm = standard_vs_refined(3, 5, 1, a0=0, variant="thm", level=Level.Q)
        intro = standard_vs_refined(3, 5, 1, a0=0, variant="intro", level=Level.Q)
        assert not thm.equivalent and not intro.equivalent
        assert thm.residual != intro.residual
        # The two residuals differ by exactly one square-root discriminant.
        gap = mono_mul(thm.residual, mono_inv(intro.residual))
        assert equivalent_mod(gap, mono((D_HALF, -1)), standard_relations(Level.Q)).equivalent

    def test_even_rank_has_no_variant_discrepancy(self):
        thm = standard_vs_refined(4, 6, 1, a0=0, variant="thm", level=Level.Q)
        intro = standard_vs_refined(4, 6, 1, a0=0, variant="intro", level=Level.Q)
        assert thm.residual == intro.residual

    def test_point_dependence_is_transcendental_only(self):
        # For fixed data the standard side at two points differs only in the
        # transcendental exponent and the archimedean-integral tag.
        a = standard_lvalue_period(3, 5, 2).as_dict()
        b = standard_lvalue_period(3, 7, 2).as_dict()
        moved = {g for g in set(a) | set(b) if a.get(g, 0) != b.get(g, 0)}
        assert moved == {TWO_PI_I_HALF, arch_zeta(5), arch_zeta(7)}


class TestAssemblies:
    def test_rankin_example(self):
        got = rankin_lvalue_period(ONE_PAIR, PHI1, 2, 2, {"t1": 1})
        assert got.exponent(TWO_PI_I_HALF) == 4  # (2 pi i)^2
        assert got.exponent(IMAG_PRODUCT) == 1
        assert got.exponent(D_HALF) == 2
        assert got.exponent(CM_TYPE_SIGN) == 4
        assert got.exponent(auto_period("Pi", (("t1", 1),))) == 1
        assert got.exponent(cm_period("eta-dual", "t1")) == 1
        assert got.exponent(cm_period("eta-dual", "c1")) == 1

    def test_rankin_zero_signature_uses_conjugate_side(self):
        got = rankin_lvalue_period(ONE_PAIR, PHI1, 2, 3, {"t1": 0})
        assert got.exponent(cm_period("eta-dual", "t1")) == 0
        assert got.exponent(cm_period("eta-dual", "c1")) == 2

    def test_odd_rank_half_exponent_flag(self):
        got = rankin_lvalue_period(ONE_PAIR, PHI1, 1, 2, {"t1": 0})
        assert got.exponent(TWO_PI_I_HALF) == 3  # printed exponent 3/2, representable

    def n1_instance(self):
        ap = ArchParams({"t1": (Fraction(2),)}, 1, ONE_PAIR)
        return analyze_instance(ap, {"t1": (1, -1)}, 1)

    def test_deligne_parity_branches(self):
        analysis = self.n1_instance()
        even = deligne_period_prediction(analysis, 2)
        odd = deligne_period_prediction(analysis, 3)
        assert even.exponent(CM_TYPE_SIGN) == 0
        assert odd.exponent(CM_TYPE_SIGN) == 1
        assert even.exponent(motivic_q("Pi", 0, "t1")) == 1
        assert even.exponent(motivic_q("eta", 0, "t1")) == 1
        assert even.exponent(motivic_q("eta", 1, "t1")) == 0

    def test_deligne_rejects_noncritical_point(self):
        with pytest.raises(NotCriticalError):
            deligne_period_prediction(self.n1_instance(), 4)


class TestComparator:
    def n1_instance(self):
        ap = ArchParams({"t1": (Fraction(2),)}, 1, ONE_PAIR)
        return analyze_instance(ap, {"t1": (1, -1)}, 1)

    def test_rank_one_manual_exponent_sums(self):
        # Everything below is recomputed by hand for A = (2), exponents
        # (1, -1), twist 1: tensor exponents {-4, 3}, weight -1, signature 0,
        # admissible points {1, 2, 3}.
        inst = self.n1_instance()
        report = compare_automorphic_motivic(inst)
        assert [p.m for p in report.points] == [1, 2, 3]
        for p, m in zip(report.points, (1, 2, 3)):
            auto = rankin_lvalue_period(ONE_PAIR, PHI1, 1, m, {"t1": 0})
            assert auto.as_dict() == {
                TWO_PI_I_HALF: 2 * m - 1,
                D_HALF: 1,
                CM_TYPE_SIGN: m,
                auto_period("Pi", (("t1", 0),)): 1,
                cm_period("eta-dual", "c1"): 1,
            }
            mot = deligne_period_prediction(inst, m)
            expected_mot = {
                TWO_PI_I_HALF: 2 * m,
                D_HALF: 1,
                motivic_q("Pi", 0, "t1"): 1,
                motivic_q("eta", 0, "t1"): 1,
            }
            if m % 2:
                expected_mot[CM_TYPE_SIGN] = 1
            assert mot.as_dict() == expected_mot
            assert p.equivalent and p.residual == ONE
            assert p.pi_half_observed_shift == -1
            assert p.pi_half_expected_shift == -1

    def test_tate_disabled_residual_is_dictionary_vector(self):
        inst = self.n1_instance()
        report = compare_automorphic_motivic(inst, tate=False)
        assert not report.all_equivalent
        for p in report.points:
            assert p.residual == mono(
                (auto_period("Pi", (("t1", 0),)), 1), (motivic_q("Pi", 0, "t1"), -1)
            )

    def test_sweep_small(self):
        rng = random.Random(41)
        seen_points = 0
        for _ in range(150):
            inst = random_instance(rng)
            report = compare_automorphic_motivic(inst)
            assert report.all_equivalent
            seen_points += len(report.points)
            for p in report.points:
                assert p.pi_half_observed_shift == p.pi_half_expected_shift
                assert p.residual == ONE
        assert seen_points > 100

    def test_verdicts_invariant_under_conjugation(self):
        rng = random.Random(42)
        for _ in range(40):
            inst = random_instance(rng, SweepBounds(n_max=3, d_max=3))
            base = compare_automorphic_motivic(inst)
            for g in sorted(inst.model.group):
                conj = compare_automorphic_motivic(inst.conjugated(g))
                assert [p.m for p in conj.points] == [p.m for p in base.points]
                assert [p.equivalent for p in conj.points] == [
                    p.equivalent for p in base.points
                ]

    def test_signature_flips_at_crossing_places(self):
        rng = random.Random(43)
        for _ in range(30):
            inst = random_instance(rng, SweepBounds(n_max=4, d_max=2))
            base = dict(compare_automorphic_motivic(inst).signature)
            model = inst.model
            phi_members = set(inst.exp_pairs)
            for g in sorted(model.group):
                conj = dict(compare_automorphic_motivic(inst.conjugated(g)).signature)
                perm = model.element(g)
                for t in phi_members:
                    if perm[t] in phi_members:
                        assert conj[t] == base[perm[t]]
                    else:
                        assert conj[t] == inst.ap.n - base[model.conj[perm[t]]]


class TestRelationContextContents:
    def test_lattice_tags(self):
        # The comparator's lattice at signature t1:0 carries the character
        # family and, with tate, the period dictionary; the pairing family
        # belongs to standard_vs_refined.
        inst = analyze_instance(ArchParams({"t1": (Fraction(2),)}, 1, ONE_PAIR), {"t1": (1, -1)}, 1)
        tags = set(compare_automorphic_motivic(inst, tate=True).identity_tags)
        assert "period-dictionary" in tags
        assert "motivic-q0-of-character" in tags
        assert "cm-period-conjugation" in tags
        assert tags >= {r.tag for r in character_relations(ONE_PAIR, PHI1)}
        assert "petersson-factorization" in {r.tag for r in pairing_relations(Level.FGAL, 0)}
        no_tate = compare_automorphic_motivic(inst, tate=False).identity_tags
        assert "period-dictionary" not in set(no_tate)

    def test_q_level_excludes_fgal_relations(self):
        assert "petersson-factorization" not in {r.tag for r in pairing_relations(Level.Q, 0)}
