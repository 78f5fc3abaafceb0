
import copy
import pickle
import random
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmperiods import hodge, periods, sweeps
from cmperiods.cli import main
from cmperiods.cmfield import CMFieldModel, CMType, cyclic_model, dihedral_model, klein_model
from cmperiods.errors import NotCriticalError
from cmperiods.hodge import ArchParams, analyze_instance
from cmperiods.lattice import IntegerLattice
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
    PeriodGenerator,
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
    petersson_period,
    rankin_lvalue_period,
    refined_lvalue_period,
    standard_lvalue_period,
    standard_relations,
    standard_vs_refined,
    trivial_at,
)
from cmperiods.sweeps import DEFAULT_BOUNDS, SweepBounds, random_instance, run_compare_sweep, seeded_instances

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


def reference_name(gen):
    # The name and sort key as computed from kind and args on every call.
    def fmt(a):
        return "|".join(f"{t}:{c}" for t, c in a) if isinstance(a, tuple) else str(a)

    return f"{gen.kind}({','.join(fmt(a) for a in gen.args)})" if gen.args else gen.kind


def reference_sort_key(gen):
    return (gen.kind, tuple(str(a) for a in gen.args))


class TestInterning:
    CONSTRUCTORS = [
        (cm_period, ("eta-dual", "t1")),
        (auto_period, ("Pi", (("t1", 0), ("t2", 2)))),
        (motivic_q, ("Pi", 1, "c2")),
        (arch_zeta, (3,)),
        (opaque, ("x",)),
        (petersson_period, ("Pi",)),
    ]

    def test_constructors_return_the_same_object(self):
        for build, args in self.CONSTRUCTORS:
            assert build(*args) is build(*args)
        assert PeriodGenerator("two-pi-i^1/2") is TWO_PI_I_HALF
        assert PeriodGenerator("gauss-sum", ("alpha",)) is GAUSS_SUM
        assert cm_period("eta-dual", "t1") is not cm_period("eta-dual", "c1")

    def test_name_and_sort_key_unchanged(self):
        gens = GEN_POOL + [build(*args) for build, args in self.CONSTRUCTORS]
        for g in gens:
            assert g.name() == reference_name(g)
            assert g.sort_key() == reference_sort_key(g)
        assert auto_period("Pi", (("t1", 0), ("t2", 2))).name() == "auto-period(Pi,t1:0|t2:2)"

    def test_copies_are_the_interned_object(self):
        g = motivic_q("Pi", 1, "c2")
        assert copy.deepcopy(g) is g
        assert pickle.loads(pickle.dumps(g)) is g
        with pytest.raises(AttributeError):
            g.kind = "other"

    def test_standard_lattice_built_once_per_level(self):
        assert standard_relations(Level.Q) is standard_relations(Level.Q)
        assert standard_relations(Level.FGAL) is not standard_relations(Level.Q)


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


# Generators in none of the oracle's lattices' relations, trivial at FGAL
# (arch_zeta) and at no level; they sort before and among the relations' own.
OUTSIDE_POOL = [arch_zeta(3), auto_period("Pi", (("t1", 1),)), motivic_q("Pi", 1, "t1"), opaque("y")]

# The Q family at each level: at FGAL only the projection makes its
# generators trivial, where the standard family also declares them trivial.
Q_FAMILY = {level: RelationLattice(level=level, relations=standard_relations(Level.Q).relations) for level in Level}

# The lattices the oracle draws from, at a level: those two families, the
# tate-off comparator over cyclic:2 and the pairing lattice at a0 = 3.
ORACLE_LATTICES = {
    "standard": standard_relations,
    "q-family": Q_FAMILY.__getitem__,
    "comparator-tate-off": lambda level: periods._comparator_lattice(level, None, (("t1", "c1"), ("t2", "c2"))),
    "pairing": lambda level: periods._pairing_lattice(level, 3),
}


@st.composite
def differences(draw):
    """A lattice, two monomials over its relations' generators, GEN_POOL
    and OUTSIDE_POOL, and the lattice of the same key at level Q."""
    family = ORACLE_LATTICES[draw(st.sampled_from(sorted(ORACLE_LATTICES)))]
    lat = family(draw(st.sampled_from(list(Level))))
    own = [g for r in lat.relations for g in r.vector.generators()]
    pool = st.sampled_from(list(dict.fromkeys(own + GEN_POOL + OUTSIDE_POOL)))
    x = draw(st.dictionaries(pool, st.integers(-6, 6), max_size=5))
    y = draw(st.dictionaries(pool, st.integers(-6, 6), max_size=5))
    return lat, PeriodMonomial.from_dict(x), PeriodMonomial.from_dict(y), family(Level.Q)


class TestEquivalenceOracle:
    @settings(max_examples=300, deadline=None)
    @given(differences())
    def test_residual_matches_fresh_reduction(self, lxy):
        # The oracle reduces over the relations' generators and the
        # difference's, with a unit vector for each one trivial at the level.
        lat, x, y, q_lat = lxy  # shared, so its reducer is reused
        diff = {g: x.exponent(g) - y.exponent(g) for g in set(x.generators()) | set(y.generators())}
        diff = {g: e for g, e in diff.items() if e}
        gens = set(diff)
        for r in lat.relations:
            gens.update(r.vector.generators())
        universe = sorted(gens, key=PeriodGenerator.sort_key)
        fresh = IntegerLattice(len(universe))
        for r in lat.relations:
            fresh.add([r.vector.exponent(g) for g in universe])
        for i, g in enumerate(universe):
            if trivial_at(g, lat.level):
                fresh.add([int(i == j) for j in range(len(universe))])
        reduced = fresh.reduce([diff.get(g, 0) for g in universe])
        expected = PeriodMonomial.from_dict(dict(zip(universe, reduced)))

        pairs = [(x, y)]
        if lat.level is Level.FGAL:
            # Projection is a homomorphism: each key's Q relations lie in its
            # FGAL lattice, so the Q residual of x / y reduces to the same
            # FGAL residual as x / y itself.
            pairs.append((equivalent_mod(x, y, q_lat).residual, ONE))
        for a, b in pairs:
            result = equivalent_mod(a, b, lat)
            assert result.residual == expected
            assert result.equivalent == expected.is_one()

    def test_outside_generator_sorting_first_is_kept(self):
        auto = auto_period("Pi", (("t1", 1),))
        res = equivalent_mod(mono((auto, 2), (CM_TYPE_SIGN, 3)), ONE, standard_relations(Level.Q))
        assert res.residual == mono((auto, 2), (CM_TYPE_SIGN, 1))


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

    def test_fine_level_residual_is_pinned(self):
        # The canonical residual, not only its coset: with cm-type-sign of
        # order 2 at Q, a truncating reduction leaves its exponent at -1.
        got = standard_vs_refined(3, 5, 1, a0=0, variant="thm", level=Level.Q).residual
        assert got == mono(
            (arch_zeta(5), -1),
            (cm_period("psi", "@x"), -1),
            (cm_period("psi^-1*alpha^-1", "@xbar"), -1),
            (CM_TYPE_SIGN, 1),
            (IMAG_PRODUCT, 1),
            (Q_PI_PSI_ALPHA, 1),
            (petersson_period("Pi"), 1),
            (QUAD_PERIOD, -1),
        )

    def test_even_rank_has_no_variant_discrepancy(self):
        thm = standard_vs_refined(4, 6, 1, a0=0, variant="thm", level=Level.Q)
        intro = standard_vs_refined(4, 6, 1, a0=0, variant="intro", level=Level.Q)
        assert thm.residual == intro.residual

    def test_point_dependence_is_transcendental_only(self):
        # For fixed data the standard side at two points differs only in the
        # transcendental exponent and the archimedean-integral tag.
        a = dict(standard_lvalue_period(3, 5, 2).exps)
        b = dict(standard_lvalue_period(3, 7, 2).exps)
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
        ap = ArchParams({"t1": (4,)}, 1, ONE_PAIR)
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
        ap = ArchParams({"t1": (4,)}, 1, ONE_PAIR)
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
            assert dict(auto.exps) == {
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
            assert dict(mot.exps) == expected_mot
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
        inst = analyze_instance(ArchParams({"t1": (4,)}, 1, ONE_PAIR), {"t1": (1, -1)}, 1)
        tags = set(compare_automorphic_motivic(inst, tate=True).identity_tags)
        assert "period-dictionary" in tags
        assert "motivic-q0-of-character" in tags
        assert "cm-period-conjugation" in tags
        assert tags >= {r.tag for r in character_relations((("t1", ONE_PAIR.conj["t1"]),))}
        assert "petersson-factorization" in {r.tag for r in pairing_relations(Level.FGAL, 0)}
        no_tate = compare_automorphic_motivic(inst, tate=False).identity_tags
        assert "period-dictionary" not in set(no_tate)

    def test_q_level_excludes_fgal_relations(self):
        assert "petersson-factorization" not in {r.tag for r in pairing_relations(Level.Q, 0)}


# Two models on the same place names whose conjugations pair them differently,
# with one CM type {a, c} valid for both.
PLACES = ("a", "b", "c", "d")
CONJ_AB = CMFieldModel(PLACES, {"a": "b", "b": "a", "c": "d", "d": "c"}, {"e": {t: t for t in PLACES}})
CONJ_AD = CMFieldModel(PLACES, {"a": "d", "d": "a", "c": "b", "b": "c"}, {"e": {t: t for t in PLACES}})


class TestComparatorLatticeCache:
    def instance(self, model):
        # Counts a:1, c:0 differ, so the character relations of one model do
        # not close the other's comparison.
        ap = ArchParams({"a": (-4,), "c": (4,)}, 1, model)
        return analyze_instance(ap, {"a": (-1, 1), "c": (1, -1)}, 0)

    def test_cached_lattice_keyed_by_conjugation_and_dictionary(self):
        instances = [self.instance(CONJ_AB), self.instance(CONJ_AD)]
        fresh = {}
        for k, inst in enumerate(instances):
            for tate in (True, False):
                periods._comparator_lattice.cache_clear()
                fresh[k, tate] = compare_automorphic_motivic(inst, tate=tate)
        for k in (0, 1):
            assert fresh[k, True].points and fresh[k, True].all_equivalent
            assert not fresh[k, False].all_equivalent
        periods._comparator_lattice.cache_clear()
        for _ in range(2):
            for tate in (True, False):
                for k, inst in enumerate(instances):
                    assert compare_automorphic_motivic(inst, tate=tate) == fresh[k, tate], (k, tate)


def spy_on_equivalent_mod(monkeypatch):
    """Record each (lattice, x, y) that ``equivalent_mod`` is called with, in call order."""
    calls = []
    real = periods.equivalent_mod

    def spy(x, y, lat):
        calls.append((lat, x, y))
        return real(x, y, lat)

    monkeypatch.setattr(periods, "equivalent_mod", spy)
    return calls


BUILTIN_MODELS = [cyclic_model(1), cyclic_model(2), cyclic_model(3), klein_model(), dihedral_model(2), dihedral_model(3)]


def assembled_point(inst, m, lat):
    """The comparison at m, both sides assembled and reduced on a fresh lattice
    with the relations of ``lat``."""
    n, d_plus = inst.ap.n, inst.model.degree_plus
    quotient = mono_mul(
        rankin_lvalue_period(inst.model, inst.phi(), n, m, inst.counts_arch),
        mono_inv(deligne_period_prediction(inst, m)),
    )
    result = equivalent_mod(
        mono_mul(quotient, mono((TWO_PI_I_HALF, n * d_plus))),
        ONE,
        RelationLattice(level=lat.level, relations=lat.relations),
    )
    return periods.PointComparison(
        m=m,
        equivalent=result.equivalent,
        residual=result.residual,
        pi_half_expected_shift=-n * d_plus,
        pi_half_observed_shift=quotient.exponent(TWO_PI_I_HALF),
        printed_pi_exponent_integral=((2 * m - n) * n * d_plus) % 2 == 0,
    )


class TestKeptPoints:
    def test_kept_points_are_fresh_comparisons(self, monkeypatch):
        # Seeded draws re-analysed on every builtin model of their degree, with
        # every conjugate; all four settings run in one test, so a point kept
        # under one setting and returned under another is caught.
        draws = list(seeded_instances(random.Random(23), 400, DEFAULT_BOUNDS))
        instances = []
        for model in BUILTIN_MODELS:
            same_degree = (inst for inst in draws if inst.model.degree_plus == model.degree_plus)
            for inst in islice(same_degree, 8):
                base = analyze_instance(ArchParams(inst.ap.doubled, inst.ap.n, model), inst.exp_pairs, inst.kappa)
                instances += [base, *(base.conjugated(g) for g in sorted(model.group))]
        points = sum(len(inst.admissible) for inst in instances)
        real = periods._comparator_lattice
        for level in (Level.Q, Level.FGAL):
            for tate in (True, False):
                real.cache_clear()
                used = []
                monkeypatch.setattr(periods, "_comparator_lattice", lambda *key: used.append(real(*key)) or used[-1])
                run_compare_sweep(instances, level, tate)
                assert len(used) == len(instances)
                seen = set()
                for inst, lat in zip(instances, used):
                    monkeypatch.setattr(periods, "_comparator_lattice", lambda *key, lat=lat: lat)
                    kept = {id(p) for p in lat._points.values()}
                    for point in compare_automorphic_motivic(inst, level=level, tate=tate).points:
                        assert id(point) in kept  # a repeated key returns the kept object
                        assert point == assembled_point(inst, point.m, lat), (level, tate)
                        seen.add(id(point))
                lattices = {id(lat): lat for lat in used}.values()
                assert seen == {id(p) for lat in lattices for p in lat._points.values()}
                assert 0 < len(seen) < points  # the sweep repeats keys


DEMO = Path(__file__).resolve().parents[1] / "scenarios" / "demo.json"


def test_demo_sweep_builds_one_reducer_per_lattice(monkeypatch, capsys):
    # However many generators outside its relations the differences bring,
    # a relation lattice builds one IntegerLattice.
    for cached in (periods.standard_relations, periods._comparator_lattice, periods._pairing_lattice):
        cached.cache_clear()
    built = []
    init = IntegerLattice.__init__

    def counted_init(self, dimension):
        built.append(dimension)
        init(self, dimension)

    monkeypatch.setattr(IntegerLattice, "__init__", counted_init)
    calls = spy_on_equivalent_mod(monkeypatch)
    assert main(["sweep", str(DEMO), "--seed", "7", "--level", "q", "--tate", "off"]) == 1
    capsys.readouterr()
    assert len(built) == len({id(lat) for lat, _, _ in calls}) == 3


def test_demo_sweep_builds_no_hodge_data_and_reduces_each_point_once(monkeypatch, capsys):
    # The sweep reads the one-pass analysis only, and a point decided on a
    # lattice is never assembled or reduced there again.
    periods._comparator_lattice.cache_clear()
    built = []
    new = hodge.HodgeData.__new__

    def counted_new(cls, *args, **kwargs):  # library calls pass keywords
        built.append((args, kwargs))
        return new(cls, *args, **kwargs)

    reductions = []
    reduce = IntegerLattice.reduce

    def counted_reduce(self, vec):
        reductions.append(vec)
        return reduce(self, vec)

    assembled = []
    rankin = periods.rankin_lvalue_period

    def counted_rankin(*args):
        assembled.append(args)
        return rankin(*args)

    lattices = []
    lattice = periods._comparator_lattice

    def recorded_lattice(*key):
        lattices.append(lattice(*key))
        return lattices[-1]

    points = set()
    compare = sweeps.compare_automorphic_motivic

    def recorded_compare(analysis, **options):
        report = compare(analysis, **options)
        points.update((id(lattices[-1]), analysis.ap.n, report.signature, p.m) for p in report.points)
        return report

    monkeypatch.setattr(hodge.HodgeData, "__new__", counted_new)
    monkeypatch.setattr(IntegerLattice, "reduce", counted_reduce)
    monkeypatch.setattr(periods, "rankin_lvalue_period", counted_rankin)
    monkeypatch.setattr(periods, "_comparator_lattice", recorded_lattice)
    monkeypatch.setattr(sweeps, "compare_automorphic_motivic", recorded_compare)
    calls = spy_on_equivalent_mod(monkeypatch)
    assert main(["sweep", str(DEMO), "--seed", "7"]) == 0
    capsys.readouterr()
    assert built == []
    assert 0 < len(reductions) == len(assembled) == len(points) == len(calls)
