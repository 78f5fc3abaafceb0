import random
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from cmperiods.cmfield import cyclic_model, dihedral_model, klein_model
from cmperiods.errors import (
    CMPeriodsError,
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
from cmperiods.sweeps import DEFAULT_BOUNDS, random_instance, seeded_instances
from cmperiods.weights import Signature, WeightParam

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import oracle  # noqa: E402  (library-free answers)

ONE_PAIR = cyclic_model(1)
PHI1 = ONE_PAIR.canonical_cm_type()
HALF = Fraction(1, 2)


def arch(model, n, **rows):
    # Rows list the half-integer parameters; ArchParams stores them doubled.
    # A value that is not a half-integer stays a Fraction, which it rejects.
    doubled = {t: tuple(2 * Fraction(x) for x in row) for t, row in rows.items()}
    return ArchParams(
        {t: tuple(int(x) if x.denominator == 1 else x for x in row) for t, row in doubled.items()}, n, model
    )


class TestParameterDictionary:
    def test_zero_weight_rank_two(self):
        mu = WeightParam({"t1": (0, 0)}, 0, 2)
        ap = archimedean_params(mu, ONE_PAIR)
        assert ap.doubled["t1"] == (1, -1)

    def test_rank_one_negation(self):
        for a1 in range(-4, 5):
            mu = WeightParam({"t1": (a1,)}, 0, 1)
            ap = archimedean_params(mu, ONE_PAIR)
            assert ap.doubled["t1"] == (-2 * a1,)

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

    @pytest.mark.parametrize(
        "row",
        [(Fraction(1), Fraction(-1)), (True, -1), (1.0, -1.0), (2, 0), (1,), (-1, 1)],
        ids=["fraction", "bool", "float", "parity", "length", "increasing"],
    )
    def test_doubled_row_checked(self, row):
        # The doubled entries of rank 2 must be odd ints, two of them, decreasing.
        with pytest.raises(PreconditionError, match="doubled parameters at 't1' must"):
            ArchParams({"t1": row}, 2, ONE_PAIR)

    @pytest.mark.parametrize(
        "model, rows, message",
        [
            pytest.param(
                cyclic_model(2), {"t1": (2,)},
                "ArchParams places ['t1'] are not a CM type: CM type does not cover every conjugate pair",
                id="arch-cm-type",
            ),
            pytest.param(
                ONE_PAIR, {"t1": (2,), "c1": (4,)},
                "ArchParams places ['c1', 't1'] are not a CM type: CM type contains a conjugate pair",
                id="conjugate-pair",
            ),
            pytest.param(
                ONE_PAIR, {"t1": (2,), "zz": (4,)},
                "ArchParams places ['t1', 'zz'] are not a CM type: 'zz' is not an embedding of the model",
                id="unknown-place",
            ),
        ],
    )
    def test_places_must_be_a_cm_type(self, model, rows, message):
        with pytest.raises(PreconditionError) as exc:
            ArchParams(rows, 1, model)
        assert str(exc.value) == message


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
    for t, row in ap.doubled.items():
        m_t, m_bar = pairs[t]
        for a in (Fraction(x, 2) for x in row):
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
        with pytest.raises(DegenerateInputError, match="exponents lie on one side of the middle"):
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
            counts_arch = signature_from_arch(inst.ap, inst.diffs, inst.kappa)
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
    for t in ap.doubled:
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
            assert critical_points_satisfy_bounds(inst).ok

    def test_vacuous_small_case(self):
        ap = arch(ONE_PAIR, 2, t1=(HALF, -HALF))
        report = critical_points_satisfy_bounds(analyze_instance(ap, {"t1": (0, 0)}, 0))
        assert report.ok and report.vacuous

    def test_sweep_with_independent_oracle(self):
        rng = random.Random(12)
        nonvacuous = 0
        for _ in range(400):
            inst = random_instance(rng)
            report = critical_points_satisfy_bounds(inst)
            assert report.ok, report
            counts = signature_from_arch(inst.ap, inst.diffs, inst.kappa)
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
            assert a.window == crit
            assert a.exponents == hodge_exponents(tensor)
            assert a.admissible == tuple(m for m in crit.points() if 2 * m > 2 * inst.ap.n - inst.kappa)
            assert a.counts_arch == signature_from_arch(inst.ap, inst.diffs, inst.kappa)
            assert a.counts_hodge == signature_from_hodge(m_n, m_1, inst.phi())

    def test_degenerate_instance_names_the_place(self):
        # 2*diff - kappa + 2A = 2*2 - 0 + 2*(-2) = 0: the middle exponent
        # occurs too, and the vanishing comparison is what gets reported.
        ap = arch(ONE_PAIR, 1, t1=(-2,))
        with pytest.raises(DegenerateInputError, match="t1"):
            analyze_instance(ap, {"t1": (1, -1)}, 0)


def chain(ap, exp_pairs, kappa):
    """What ``analyze_instance`` computes, through the public Hodge chain in its order."""
    rank_n = hodge_from_arch_params(ap)
    rank_1 = hodge_of_character(ap.model, exp_pairs, kappa)
    tensor = tensor_hodge(rank_n, rank_1)
    diffs = {t: m_t - m_bar for t, (m_t, m_bar) in exp_pairs.items()}
    counts_arch = signature_from_arch(ap, diffs, kappa)
    counts_hodge = signature_from_hodge(rank_n, rank_1, ap.phi())
    exponents = hodge_exponents(tensor)
    window = critical_range(exponents, tensor.weight)
    threshold = 2 * ap.n - kappa
    return {
        "exponents": exponents,
        "window": window,
        "admissible": tuple(m for m in window.points() if 2 * m > threshold),
        "counts_hodge": counts_hodge,
        "counts_arch": counts_arch,
    }


def one_pass(ap, exp_pairs, kappa):
    a = analyze_instance(ap, exp_pairs, kappa)
    return {key: getattr(a, key) for key in ("exponents", "window", "admissible", "counts_hodge", "counts_arch")}


def raised(fn, *args):
    try:
        fn(*args)
    except (CMPeriodsError, LookupError) as exc:
        return type(exc), str(exc)
    raise AssertionError(f"{fn.__name__} raised nothing")


BUILTIN_MODELS = [cyclic_model(1), cyclic_model(2), cyclic_model(3), klein_model(), dihedral_model(2), dihedral_model(3)]
BUILTIN_IDS = ["cyclic:1", "cyclic:2", "cyclic:3", "klein", "dihedral:2", "dihedral:3"]


class TestOnePassMatchesTheChain:
    @pytest.mark.parametrize("model", BUILTIN_MODELS, ids=BUILTIN_IDS)
    def test_seeded_instances_and_their_conjugates(self, model):
        # Seeded cyclic draws of the model's degree, re-analysed on the model
        # (the builtin models of one degree share their embedding names).
        draws = seeded_instances(random.Random(16), 2000, DEFAULT_BOUNDS)
        same_degree = (inst for inst in draws if inst.model.degree_plus == model.degree_plus)
        checked = 0
        for inst in islice(same_degree, 25):
            base = analyze_instance(ArchParams(inst.ap.doubled, inst.ap.n, model), inst.exp_pairs, inst.kappa)
            for a in [base, *(base.conjugated(g) for g in sorted(model.group))]:
                assert one_pass(a.ap, a.exp_pairs, a.kappa) == chain(a.ap, a.exp_pairs, a.kappa)
                # The tensor's exponents pair up about half its weight, so the
                # middle-exponent and one-sided branches of the window cannot be
                # reached from an instance whose comparisons do not vanish.
                weight = a.ap.n - 1 - a.kappa
                assert {weight - e for e in a.exponents} == set(a.exponents)
                checked += 1
        assert checked == 25 * (1 + len(model.group))

    @pytest.mark.parametrize(
        "model, rows, exp_pairs, kappa",
        [
            # the character's places hold a conjugate pair
            pytest.param(ONE_PAIR, {"t1": (2,)}, {"t1": (0, 0), "c1": (0, 0)}, 0, id="character-cm-type"),
            # 2*diff - kappa + 2A = 2*2 - 0 - 4 = 0 at t1
            pytest.param(ONE_PAIR, {"t1": (-4,)}, {"t1": (1, -1)}, 0, id="vanishing"),
        ],
    )
    def test_degenerate_inputs_raise_alike(self, model, rows, exp_pairs, kappa):
        ap = ArchParams(rows, 1, model)
        assert raised(one_pass, ap, exp_pairs, kappa) == raised(chain, ap, exp_pairs, kappa)

    def test_window_matches_library_free_oracle(self):
        # The window, its points and the admissible points, against answers
        # computed without the library, on seeded draws re-analysed on every
        # builtin model with every conjugate.
        draws = list(seeded_instances(random.Random(23), 400, DEFAULT_BOUNDS))
        checked = 0
        for model in BUILTIN_MODELS:
            same_degree = (inst for inst in draws if inst.model.degree_plus == model.degree_plus)
            for inst in islice(same_degree, 8):
                base = analyze_instance(ArchParams(inst.ap.doubled, inst.ap.n, model), inst.exp_pairs, inst.kappa)
                for a in [base, *(base.conjugated(g) for g in sorted(model.group))]:
                    datum = (a.ap.doubled, a.exp_pairs, a.kappa, a.ap.n)
                    lo, hi = oracle.critical_window(*datum)
                    assert (a.window.lo, a.window.hi) == (lo, hi)
                    assert list(a.window.points()) == list(range(lo + 1, hi + 1))
                    assert list(a.admissible) == oracle.admissible_points(*datum)
                    checked += 1
        assert checked == sum(8 * (1 + len(model.group)) for model in BUILTIN_MODELS)

    def test_character_on_other_places(self):
        # Both place sets are CM types, so the chain gets as far as a missing place.
        ap = ArchParams({"t1": (2,), "t2": (4,)}, 1, cyclic_model(2))
        with pytest.raises(PreconditionError) as exc:
            analyze_instance(ap, {"t1": (0, 0), "c2": (0, 0)}, 0)
        assert str(exc.value) == "character places ['c2', 't1'] are not the parameters' places ['t1', 't2']"


def fraction_chain(inst):
    """Pairs, signature counts, window, admissible points and bound test of
    ``inst`` from the half-integer parameters in Fraction arithmetic."""
    n, kappa, w = inst.ap.n, inst.kappa, inst.ap.n - 1
    params = {t: tuple(Fraction(x, 2) for x in row) for t, row in inst.ap.doubled.items()}
    pairs, counts, exps = {}, {}, set()
    for t, row in params.items():
        ps = sorted((-a + Fraction(w, 2) for a in row), reverse=True)
        pairs[t] = tuple((p, w - p) for p in ps)
        pairs[inst.model.conj[t]] = tuple((w - p, p) for p in reversed(ps))
        counts[t] = sum(1 for a in row if 2 * inst.diffs[t] - kappa + 2 * a < 0)
        exps.update(p - inst.diffs[t] for p in ps)
        exps.update(w - p + inst.diffs[t] - kappa for p in ps)
    half = Fraction(w - kappa, 2)
    lo, hi = max(p for p in exps if p < half), min(p for p in exps if p > half)
    admissible = tuple(m for m in range(int(lo) + 1, int(hi) + 1) if m > Fraction(2 * n - kappa, 2))
    return {
        "pairs": pairs,
        "counts": counts,
        "window": (lo, hi),
        "admissible": admissible,
        "lower": Fraction(n - kappa, 2),
    }


class TestIntegerChainMatchesFractions:
    def test_random_instances(self):
        rng = random.Random(15)
        for _ in range(300):
            inst = random_instance(rng)
            ref = fraction_chain(inst)
            assert hodge_from_arch_params(inst.ap).pairs == ref["pairs"]
            assert inst.counts_arch == ref["counts"]
            assert (inst.window.lo, inst.window.hi) == ref["window"]
            assert inst.admissible == ref["admissible"]
            mu = weight_from_arch_params(inst.ap)
            sig = Signature({t: (inst.ap.n - c, c) for t, c in inst.counts_arch.items()}, inst.ap.n)
            for m in range(-8, 9):
                report = doubling_bounds_check(m, mu, inst.exp_pairs, inst.kappa, sig)
                assert (report.lower <= m) == (ref["lower"] <= m)

    def test_middle_exponent_message(self):
        with pytest.raises(NotCriticalError, match="middle exponent 3 occurs"):
            critical_range([1, 3, 5], 6)
        with pytest.raises(NotCriticalError, match="middle exponent 5/2 occurs"):
            critical_range([Fraction(5, 2)], 5)


def model_arch_params(model):
    """Seeded cyclic draws of the model's degree, re-built on the model."""
    draws = seeded_instances(random.Random(13), 1000, DEFAULT_BOUNDS)
    same_degree = (inst for inst in draws if inst.model.degree_plus == model.degree_plus)
    return [ArchParams(inst.ap.doubled, inst.ap.n, model) for inst in islice(same_degree, 20)]


class TestConjugateArchParams:
    @pytest.mark.parametrize("model", BUILTIN_MODELS, ids=BUILTIN_IDS)
    def test_round_trip_and_regularity(self, model):
        for ap in model_arch_params(model):
            for g in model.group:
                conj = conjugate_arch_params(ap, g)
                gi = model.inverse_name(g)
                assert conjugate_arch_params(conj, gi) == ap

    @pytest.mark.parametrize("model", BUILTIN_MODELS, ids=BUILTIN_IDS)
    def test_right_action_law(self, model):
        for ap in model_arch_params(model):
            for g in model.group:
                for h in model.group:
                    twice = conjugate_arch_params(conjugate_arch_params(ap, h), g)
                    assert twice == conjugate_arch_params(ap, model.compose_names(h, g))


class TestCharacterSplitIntegration:
    def test_split_character_feeds_hodge_data(self):
        # The split of the character t1 -> 3, c1 -> 2 on the canonical CM
        # type: exponent pair (m_t, m_tbar) = (-1, 2) and twist exponent -5.
        # That datum drives the full chain.
        model = ONE_PAIR
        pairs, kappa = {"t1": (-1, 2)}, -5
        h = hodge_of_character(model, pairs, kappa)
        assert h.weight == 5
        p, q = h.pairs["t1"][0]
        assert p + q == 5
        ap = arch(model, 2, t1=(Fraction(17, 2), Fraction(3, 2)))
        report = critical_points_satisfy_bounds(analyze_instance(ap, pairs, kappa))
        assert report.ok
