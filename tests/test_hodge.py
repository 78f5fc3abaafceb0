import random
from fractions import Fraction

import pytest

from cmperiods.cmfield import cyclic_model
from cmperiods.errors import (
    DegenerateInputError,
    NotCriticalError,
    PreconditionError,
)
from cmperiods.hodge import (
    ArchParams,
    analyze_instance,
    archimedean_params,
    conjugate_arch_params,
    critical_points_satisfy_bounds,
    critical_range,
    doubling_bounds_check,
    hodge_exponents,
    hodge_from_arch_params,
    hodge_of_character,
    signature_from_arch,
    signature_from_hodge,
    split_indices,
    tensor_hodge,
    weight_from_arch_params,
)
from cmperiods.sweeps import random_instance
from cmperiods.weights import Signature, WeightParam

ONE_PAIR = cyclic_model(1)
PHI1 = ONE_PAIR.canonical_cm_type()
HALF = Fraction(1, 2)


def arch(model, n, **rows):
    return ArchParams({t: tuple(Fraction(x) for x in row) for t, row in rows.items()}, n, model)


class TestParameterDictionary:
    def test_zero_weight_rank_two(self):
        mu = WeightParam({"t1": (0, 0)}, 0, 2)
        ap = archimedean_params(mu, ONE_PAIR)
        assert ap.entries["t1"] == (HALF, -HALF)

    def test_rank_one_negation(self):
        for a1 in range(-4, 5):
            mu = WeightParam({"t1": (a1,)}, 0, 1)
            ap = archimedean_params(mu, ONE_PAIR)
            assert ap.entries["t1"] == (Fraction(-a1),)

    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(1, 6)
            row = [rng.randint(-6, 6)]
            for _ in range(n - 1):
                row.append(row[-1] - rng.randint(0, 3))
            mu = WeightParam({"t1": tuple(row)}, 0, n)
            assert weight_from_arch_params(archimedean_params(mu, ONE_PAIR)) == mu

    def test_regularity_enforced(self):
        with pytest.raises(PreconditionError):
            arch(ONE_PAIR, 2, t1=(HALF, HALF))

    def test_parity_enforced(self):
        with pytest.raises(PreconditionError):
            arch(ONE_PAIR, 2, t1=(1, 0))


class TestHodgeConstruction:
    def test_rank_two_pairs(self):
        ap = arch(ONE_PAIR, 2, t1=(HALF, -HALF))
        h = hodge_from_arch_params(ap)
        assert h.weight == 1
        assert h.pairs["t1"] == ((1, 0), (0, 1))
        assert h.pairs["c1"] == ((1, 0), (0, 1))

    def test_rank_one_trivial(self):
        ap = arch(ONE_PAIR, 1, t1=(0,))
        h = hodge_from_arch_params(ap)
        assert h.weight == 0
        assert h.pairs["t1"] == ((0, 0),)

    def test_pairs_sum_to_weight(self):
        rng = random.Random(6)
        for _ in range(50):
            inst = random_instance(rng)
            h = hodge_from_arch_params(inst.ap)
            for row in h.pairs.values():
                assert all(p + q == h.weight for p, q in row)

    def test_character_pairs(self):
        h = hodge_of_character(ONE_PAIR, {"t1": (2, -1)}, 3)
        assert h.weight == -3
        assert h.pairs["t1"] == ((-3, 0),)
        assert h.pairs["c1"] == ((0, -3),)


def direct_exponent_set(ap, pairs, kappa):
    # Displayed form of the tensor exponent set, assembled without the
    # Hodge-data machinery: both families per place of the CM type.
    n = ap.n
    out = set()
    for t, row in ap.entries.items():
        m_t, m_bar = pairs[t]
        for a in row:
            out.add(-a + Fraction(n - 1, 2) + m_bar - m_t)
            out.add(a + Fraction(n - 1, 2) + m_t - m_bar - kappa)
    assert all(x.denominator == 1 for x in out)
    return tuple(sorted(int(x) for x in out))


class TestExponentSet:
    def test_rank_one_trivial(self):
        ap = arch(ONE_PAIR, 1, t1=(0,))
        tensor = tensor_hodge(hodge_from_arch_params(ap), hodge_of_character(ONE_PAIR, {"t1": (0, 0)}, 0))
        assert hodge_exponents(tensor) == (0,)

    def test_rank_two_weight_one(self):
        ap = arch(ONE_PAIR, 2, t1=(HALF, -HALF))
        tensor = tensor_hodge(hodge_from_arch_params(ap), hodge_of_character(ONE_PAIR, {"t1": (0, 0)}, 0))
        assert hodge_exponents(tensor) == (0, 1)
        assert tensor.weight == 1

    def test_matches_direct_formula(self):
        rng = random.Random(7)
        for _ in range(200):
            inst = random_instance(rng)
            tensor = tensor_hodge(
                hodge_from_arch_params(inst.ap),
                hodge_of_character(inst.model, inst.exp_pairs, inst.kappa),
            )
            assert hodge_exponents(tensor) == direct_exponent_set(
                inst.ap, inst.exp_pairs, inst.kappa
            )

    def test_symmetric_when_untwisted(self):
        ap = arch(ONE_PAIR, 3, t1=(3, 1, -2))
        tensor = tensor_hodge(hodge_from_arch_params(ap), hodge_of_character(ONE_PAIR, {"t1": (2, 2)}, 0))
        exps = hodge_exponents(tensor)
        w = tensor.weight
        assert sorted(w - p for p in exps) == list(exps)


class TestCriticalRange:
    def test_weight_one(self):
        assert list(critical_range([0, 1], 1).points()) == [1]

    def test_weight_three(self):
        assert list(critical_range([0, 3], 3).points()) == [1, 2, 3]

    def test_middle_exponent_rejected(self):
        with pytest.raises(NotCriticalError):
            critical_range([1], 2)

    def test_one_sided_rejected(self):
        with pytest.raises(DegenerateInputError):
            critical_range([5, 7], 3)

    def test_never_empty(self):
        rng = random.Random(8)
        for _ in range(200):
            inst = random_instance(rng)
            tensor = tensor_hodge(
                hodge_from_arch_params(inst.ap),
                hodge_of_character(inst.model, inst.exp_pairs, inst.kappa),
            )
            crit = critical_range(hodge_exponents(tensor), tensor.weight)
            assert len(list(crit.points())) >= 1


class TestSignatureMaps:
    def test_examples(self):
        ap = arch(ONE_PAIR, 2, t1=(HALF, -HALF))
        assert signature_from_arch(ap, {"t1": 0}, 0) == {"t1": 1}
        low = arch(ONE_PAIR, 2, t1=(Fraction(-9, 2), Fraction(-11, 2)))
        assert signature_from_arch(low, {"t1": 0}, 0) == {"t1": 2}
        high = arch(ONE_PAIR, 2, t1=(Fraction(11, 2), Fraction(9, 2)))
        assert signature_from_arch(high, {"t1": 0}, 0) == {"t1": 0}

    def test_degenerate_rejected(self):
        ap = arch(ONE_PAIR, 2, t1=(HALF, -HALF))
        with pytest.raises(DegenerateInputError):
            signature_from_arch(ap, {"t1": 0}, 1)  # 2*0 - 1 + 2*(1/2) = 0

    def test_rank_one_extremes(self):
        big = hodge_of_character(ONE_PAIR, {"t1": (-9, 9)}, 0)
        tiny = hodge_of_character(ONE_PAIR, {"t1": (9, -9)}, 0)
        probe = hodge_of_character(ONE_PAIR, {"t1": (0, 0)}, 0)
        phi = ONE_PAIR.canonical_cm_type()
        assert signature_from_hodge(big, probe, phi) == {"t1": 1}
        assert signature_from_hodge(tiny, probe, phi) == {"t1": 0}

    def test_dictionaries_agree(self):
        rng = random.Random(9)
        for _ in range(300):
            inst = random_instance(rng)
            counts_arch = signature_from_arch(inst.ap, inst.diffs(), inst.kappa)
            counts_hodge = signature_from_hodge(
                hodge_from_arch_params(inst.ap),
                hodge_of_character(inst.model, inst.exp_pairs, inst.kappa),
                inst.phi(),
            )
            assert counts_arch == counts_hodge


class TestSplitIndices:
    def build(self, inst):
        return (
            hodge_from_arch_params(inst.ap),
            hodge_of_character(inst.model, inst.exp_pairs, inst.kappa),
        )

    def test_examples(self):
        ap = arch(ONE_PAIR, 2, t1=(HALF, -HALF))
        m_n = hodge_from_arch_params(ap)
        m_1 = hodge_of_character(ONE_PAIR, {"t1": (0, 0)}, 0)
        table = split_indices(2, signature_from_hodge(m_n, m_1, PHI1)["t1"])
        assert table.rank_n == (0, 1, 0)
        assert table.rank_1 == (1, 1)

    def test_count_zero(self):
        ap = arch(ONE_PAIR, 2, t1=(Fraction(11, 2), Fraction(9, 2)))
        m_n = hodge_from_arch_params(ap)
        m_1 = hodge_of_character(ONE_PAIR, {"t1": (0, 0)}, 0)
        table = split_indices(2, signature_from_hodge(m_n, m_1, PHI1)["t1"])
        assert table.rank_n == (1, 0, 0)
        assert table.rank_1 == (2, 0)

    def test_sums(self):
        rng = random.Random(10)
        for _ in range(200):
            inst = random_instance(rng)
            m_n, m_1 = self.build(inst)
            counts = signature_from_hodge(m_n, m_1, inst.phi())
            for t in inst.phi().sorted_members():
                table = split_indices(inst.ap.n, counts[t])
                assert table.rank_n_sum == 1
                assert table.rank_1_sum == inst.ap.n


class TestDoublingBounds:
    def test_rank_one_example(self):
        mu = WeightParam({"t1": (0,)}, 0, 1)
        sig = Signature({"t1": (1, 0)}, 1)
        pairs = {"t1": (5, 0)}
        for m in range(1, 6):
            assert doubling_bounds_check(m, mu, pairs, 0, sig).ok
        assert not doubling_bounds_check(0, mu, pairs, 0, sig).ok
        assert not doubling_bounds_check(6, mu, pairs, 0, sig).ok

    def test_below_lower_bound(self):
        mu = WeightParam({"t1": (0, 0)}, 0, 2)
        sig = Signature({"t1": (1, 1)}, 2)
        report = doubling_bounds_check(-4, mu, {"t1": (9, 0)}, 0, sig)
        assert not report.ok and report.lower == 1

    def test_second_term_monotone_in_conjugate_exponent(self):
        mu = WeightParam({"t1": (3, 1)}, 0, 2)
        sig = Signature({"t1": (1, 1)}, 2)
        prev = None
        for m_bar in range(-5, 6):
            rep = doubling_bounds_check(0, mu, {"t1": (0, m_bar)}, 0, sig)
            term2 = rep.upper_terms["t1"][1]
            if prev is not None:
                assert term2 >= prev
            prev = term2

    def test_omitted_terms(self):
        mu = WeightParam({"t1": (2, 0)}, 0, 2)
        full = Signature({"t1": (0, 2)}, 2)
        rep = doubling_bounds_check(1, mu, {"t1": (0, 0)}, 0, full)
        assert rep.upper_terms["t1"][0] is None
        definite = Signature({"t1": (2, 0)}, 2)
        rep2 = doubling_bounds_check(1, mu, {"t1": (0, 0)}, 0, definite)
        assert rep2.upper_terms["t1"][1] is None


def oracle_bounds_ok(m, ap, pairs, kappa, counts):
    # Independent evaluation of every inequality term from raw data.
    n = ap.n
    if 2 * m < n - kappa:
        return False
    mu = weight_from_arch_params(ap)
    for t in ap.entries:
        a = mu.entries[t]
        s = counts[t]
        r = n - s
        m_t, m_bar = pairs[t]
        if s < n and m > -a[s] + s + m_t - m_bar - kappa:
            return False
        if s > 0 and m > a[s - 1] + r + m_bar - m_t:
            return False
    return True


class TestCriticalPointsSatisfyBounds:
    def test_rank_one_always(self):
        rng = random.Random(11)
        from cmperiods.sweeps import SweepBounds

        for _ in range(100):
            inst = random_instance(rng, SweepBounds(n_max=1))
            assert critical_points_satisfy_bounds(inst.analysis).ok

    def test_vacuous_small_case(self):
        ap = arch(ONE_PAIR, 2, t1=(HALF, -HALF))
        report = critical_points_satisfy_bounds(analyze_instance(ap, {"t1": (0, 0)}, 0))
        assert report.ok and report.vacuous

    def test_sweep_with_independent_oracle(self):
        rng = random.Random(12)
        nonvacuous = 0
        for _ in range(400):
            inst = random_instance(rng)
            report = critical_points_satisfy_bounds(inst.analysis)
            assert report.ok, report
            counts = signature_from_arch(inst.ap, inst.diffs(), inst.kappa)
            tensor = tensor_hodge(
                hodge_from_arch_params(inst.ap),
                hodge_of_character(inst.model, inst.exp_pairs, inst.kappa),
            )
            crit = critical_range(hodge_exponents(tensor), tensor.weight)
            for m in crit.points():
                if 2 * m > 2 * inst.ap.n - inst.kappa:
                    nonvacuous += 1
                    assert oracle_bounds_ok(m, inst.ap, inst.exp_pairs, inst.kappa, counts)
        assert nonvacuous > 100


class TestInstanceAnalysis:
    def test_matches_the_chain(self):
        rng = random.Random(14)
        for _ in range(200):
            inst = random_instance(rng)
            a = analyze_instance(inst.ap, inst.exp_pairs, inst.kappa)
            m_n = hodge_from_arch_params(inst.ap)
            m_1 = hodge_of_character(inst.model, inst.exp_pairs, inst.kappa)
            tensor = tensor_hodge(m_n, m_1)
            crit = critical_range(hodge_exponents(tensor), tensor.weight)
            assert (a.rank_n, a.rank_1, a.tensor, a.window) == (m_n, m_1, tensor, crit)
            assert a.exponents == hodge_exponents(tensor)
            assert a.admissible == tuple(m for m in crit.points() if 2 * m > 2 * inst.ap.n - inst.kappa)
            assert a.counts_arch == signature_from_arch(inst.ap, inst.diffs(), inst.kappa)
            assert a.counts_hodge == signature_from_hodge(m_n, m_1, inst.phi())

    def test_degenerate_instance_names_the_place(self):
        # 2*diff - kappa + 2A = 2*2 - 0 + 2*(-2) = 0: the middle exponent
        # occurs too, and the vanishing comparison is what gets reported.
        ap = arch(ONE_PAIR, 1, t1=(-2,))
        with pytest.raises(DegenerateInputError, match="t1"):
            analyze_instance(ap, {"t1": (1, -1)}, 0)


class TestConjugateArchParams:
    def test_round_trip_and_regularity(self):
        rng = random.Random(13)
        for _ in range(100):
            inst = random_instance(rng)
            for g in inst.model.group:
                conj = conjugate_arch_params(inst.ap, g)
                gi = inst.model.inverse_name(g)
                assert conjugate_arch_params(conj, gi) == inst.ap


class TestCharacterSplitIntegration:
    def test_split_character_feeds_hodge_data(self):
        # An algebraic character is split into its anticyclotomic part and
        # twist exponent, and the resulting datum drives the full chain.
        from cmperiods.hecke import InfinityType, anticyclotomic_split
        from cmperiods.hodge import hodge_of_character_type

        model = ONE_PAIR
        phi = model.canonical_cm_type()
        eta = InfinityType({"t1": 3, "c1": 2}, model)
        split = anticyclotomic_split(eta, phi)
        assert split.kappa == -5
        h = hodge_of_character_type(split.psi, split.kappa, phi)
        assert h.weight == 5
        p, q = h.pairs["t1"][0]
        assert p + q == 5
        ap = arch(model, 2, t1=(Fraction(17, 2), Fraction(3, 2)))
        report = critical_points_satisfy_bounds(analyze_instance(ap, split.psi.pairs_on(phi), split.kappa))
        assert report.ok
