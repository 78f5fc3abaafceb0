import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmperiods import basechange
from cmperiods.basechange import (
    GLSide,
    QValue,
    USide,
    UnramChar,
    base_change,
    commutativity_check,
    commutativity_counts,
    galois_twist,
    linear_modulus_exponents,
    qval,
    small_value_set,
    sweep_commutativity,
    twist_pattern_via_base_change,
    unitary_modulus_exponents,
    weyl_equivalent,
)
from cmperiods.errors import PreconditionError, SideError

F = Fraction

values = st.sampled_from(small_value_set())
nonzero = st.fractions(max_denominator=10**6).filter(lambda r: r != 0)
exponents = st.integers(-6, 6)


def uchar(m, *coords, odd=False):
    return UnramChar(USide(m, odd), tuple(coords))


def as_fraction(value):
    """A QValue as (rational, root power), the pair it denotes."""
    return Fraction(value.num, value.den), value.k


def is_normalized(value):
    return value.num != 0 and value.den > 0 and math.gcd(value.num, value.den) == 1


class TestIntegerValues:
    @given(nonzero, exponents, nonzero, exponents)
    def test_matches_fraction_arithmetic(self, r, k, s, l):
        x, y = qval(r, k), qval(s, l)
        for got, want in ((x, (r, k)), (x * y, (r * s, k + l)), (x.inv(), (1 / r, -k))):
            assert as_fraction(got) == want
            assert is_normalized(got)
        assert (x == y) == ((r, k) == (s, l))
        if x == y:
            assert hash(x) == hash(y)
        assert x * x.inv() == qval(1)

    def test_equal_rationals_give_equal_values(self):
        assert qval(Fraction(2, 4)) == qval(Fraction(1, 2))
        assert hash(qval(Fraction(-6, 4), 1)) == hash(qval(Fraction(3, -2), 1))
        assert qval(Fraction(1, -2)) == QValue(-1, 2, 0)
        assert qval(Fraction(-2, 3)).inv() == QValue(-3, 2, 0)
        assert qval(2) * qval(Fraction(1, 4)) == QValue(1, 2, 0)

    def test_zero_rejected(self):
        with pytest.raises(PreconditionError):
            qval(0)
        with pytest.raises(PreconditionError):
            UnramChar(USide(1), (QValue(0, 1, 0),))

    def test_sweep_coordinates_match_fraction_oracle(self):
        reports = sweep_commutativity(3)
        for m in range(1, 4):
            for eps in (1, -1):
                for combo in itertools.product(small_value_set(), repeat=m):
                    lhs, rhs = oracle_routes(m, False, eps, [as_fraction(c) for c in combo])
                    rep = next(reports)
                    assert [as_fraction(c) for c in rep.twist_then_bc.coords] == lhs
                    assert [as_fraction(c) for c in rep.bc_then_twist.coords] == rhs
                    assert rep.values_equal_as_tuples == (lhs == rhs)
        assert next(reports, None) is None


def oracle_routes(m, odd, eps, chi):
    """Both routes of the square on (rational, root power) pairs, from the exponent formulas."""
    if odd:
        u_exps = [F(m - i) for i in range(m)]
        gl_exps = [F(m - i) for i in range(2 * m + 1)]
    else:
        u_exps = [F(2 * m - 1 - 2 * i, 2) for i in range(m)]
        gl_exps = [F(2 * m - 1 - 2 * i, 2) for i in range(2 * m)]

    def twist(exps):
        return [(F(eps if (2 * e).numerator % 2 else 1), 0) for e in exps]

    def times(xs, ys):
        return [(a * b, k + l) for (a, k), (b, l) in zip(xs, ys)]

    def bc(xs):
        return xs + [(F(1), 0)] * odd + [(1 / a, -k) for a, k in xs]

    return times(bc(chi), twist(gl_exps)), bc(times(chi, twist(u_exps)))


def assert_matches_oracle(side, eps, coords):
    rep = commutativity_check(UnramChar(side, tuple(coords)), eps)
    lhs, rhs = oracle_routes(side.m, side.odd_rank, eps, [as_fraction(c) for c in coords])
    assert [as_fraction(c) for c in rep.twist_then_bc.coords] == lhs
    assert [as_fraction(c) for c in rep.bc_then_twist.coords] == rhs
    assert all(map(is_normalized, rep.twist_then_bc.coords + rep.bc_then_twist.coords))
    assert rep.values_equal_as_tuples == (lhs == rhs)
    return rep


wide_values = st.builds(qval, nonzero, exponents)
SIDES = [USide(m, odd) for m in (1, 2, 3) for odd in (False, True)]


class TestCoordinateImages:
    def test_odd_rank_matches_oracle(self):
        for m in (1, 2, 3):
            side = USide(m, odd_rank=True)
            for eps in (1, -1):
                for combo in itertools.product(small_value_set(), repeat=m):
                    rep = assert_matches_oracle(side, eps, combo)
                    assert rep.twist_then_bc.coords[m] == qval(1)
                    assert rep.bc_then_twist.coords[m] == qval(1)

    def test_interleaved_sides_and_signs(self):
        # The same value goes through every position of every side under
        # both signs, one call after another, so a twist cached for one
        # (side, sign) and read back for another shows up.
        pool = small_value_set() + (qval(F(-3, 7), 5), qval(F(11, 2), -3))
        for c in pool:
            for side in SIDES:
                for eps in (1, -1, 1):
                    for i in range(side.m):
                        coords = [qval(1)] * side.m
                        coords[i] = c
                        assert_matches_oracle(side, eps, coords)

    @given(st.lists(st.tuples(st.sampled_from(SIDES), st.sampled_from((1, -1)),
                              st.lists(wide_values, min_size=3, max_size=3)), min_size=1, max_size=8))
    def test_values_outside_the_pool(self, calls):
        for side, eps, coords in calls:
            assert_matches_oracle(side, eps, coords[: side.m])


class TestModulusExponents:
    def test_unitary_small(self):
        assert unitary_modulus_exponents(1) == (F(1, 2),)
        assert unitary_modulus_exponents(2) == (F(3, 2), F(1, 2))

    def test_linear_small(self):
        assert linear_modulus_exponents(2) == (F(1, 2), F(-1, 2))
        assert linear_modulus_exponents(4) == (F(3, 2), F(1, 2), F(-1, 2), F(-3, 2))

    @pytest.mark.parametrize("m", range(1, 7))
    def test_even_rank_sequences(self, m):
        expected_u = tuple(F(2 * m - 1 - 2 * i, 2) for i in range(m))
        assert unitary_modulus_exponents(m) == expected_u
        expected_gl = tuple(F(2 * m - 1 - 2 * i, 2) for i in range(2 * m))
        assert linear_modulus_exponents(2 * m) == expected_gl

    def test_linear_sum_zero(self):
        for n in range(1, 13):
            assert sum(linear_modulus_exponents(n)) == 0

    def test_unitary_strictly_decreasing_positive(self):
        for m in range(1, 7):
            exps = unitary_modulus_exponents(m)
            assert all(a > b for a, b in zip(exps, exps[1:]))
            assert all(e > 0 for e in exps)

    def test_odd_rank_experimental(self):
        assert unitary_modulus_exponents(2, odd_rank=True) == (F(2), F(1))


class TestGaloisTwist:
    def test_trivial_sign(self):
        tw = galois_twist(USide(3), 1)
        assert all(c == qval(1) for c in tw.coords)

    def test_unitary_flip(self):
        tw = galois_twist(USide(1), -1)
        assert tw.coords == (qval(-1),)

    def test_linear_flip_both(self):
        tw = galois_twist(GLSide(2), -1)
        assert tw.coords == (qval(-1), qval(-1))

    def test_integral_exponents_stay_trivial(self):
        # Exponents (1, 0, -1) are integral, so the conjugation ratio is 1.
        tw = galois_twist(GLSide(3), -1)
        assert tw.coords == (qval(1), qval(1), qval(1))

    def test_square_is_trivial(self):
        for side in (USide(2), GLSide(4)):
            tw = galois_twist(side, -1)
            assert (tw * tw).coords == galois_twist(side, 1).coords

    def test_bad_sign_rejected(self):
        with pytest.raises(PreconditionError):
            galois_twist(USide(1), 2)


class TestBaseChange:
    def test_trivial(self):
        chi = uchar(2, qval(1), qval(1))
        assert base_change(chi).coords == (qval(1),) * 4

    def test_root_power_inversion(self):
        chi = uchar(1, qval(1, 1))
        assert base_change(chi).coords == (qval(1, 1), qval(1, -1))

    def test_coordinate_inversion_swaps_pair(self):
        chi = uchar(2, qval(2, 1), qval(3, -1))
        inverted = uchar(2, chi.coords[0].inv(), chi.coords[1])
        a = base_change(chi).coords
        b = base_change(inverted).coords
        assert (b[0], b[2]) == (a[2], a[0])
        assert (b[1], b[3]) == (a[1], a[3])

    def test_wrong_side_rejected(self):
        with pytest.raises(SideError):
            base_change(UnramChar(GLSide(2), (qval(1), qval(1))))

    def test_odd_rank_middle_coordinate(self):
        chi = uchar(1, qval(2, 1), odd=True)
        assert base_change(chi).coords == (qval(2, 1), qval(1), qval(F(1, 2), -1))


class TestWeylEquivalence:
    def test_reflexive(self):
        chi = uchar(2, qval(2), qval(1, 1))
        assert weyl_equivalent(chi, chi)

    def test_linear_transposition(self):
        a = UnramChar(GLSide(2), (qval(2), qval(3)))
        b = UnramChar(GLSide(2), (qval(3), qval(2)))
        assert weyl_equivalent(a, b)

    def test_unitary_inversion(self):
        assert weyl_equivalent(uchar(1, qval(2, 1)), uchar(1, qval(F(1, 2), -1)))

    def test_linear_inversion_distinct(self):
        a = UnramChar(GLSide(1), (qval(2, 1),))
        b = UnramChar(GLSide(1), (qval(F(1, 2), -1),))
        assert not weyl_equivalent(a, b)

    @given(st.lists(values, min_size=3, max_size=3), st.permutations([0, 1, 2]),
           st.lists(st.booleans(), min_size=3, max_size=3))
    def test_unitary_orbit_membership(self, coords, perm, flips):
        x = uchar(3, *coords)
        moved = tuple(
            coords[p].inv() if f else coords[p] for p, f in zip(perm, flips)
        )
        assert weyl_equivalent(x, uchar(3, *moved))


class TestCommutativity:
    def test_trivial_sign(self):
        chi = uchar(2, qval(2, 1), qval(3))
        rep = commutativity_check(chi, 1)
        assert rep.values_equal_as_tuples and rep.weyl_equivalent

    def test_half_rank_one_matches_directly(self):
        rep = commutativity_check(uchar(1, qval(5, 2)), -1)
        assert rep.patterns_equal_as_tuples
        assert rep.values_equal_as_tuples
        assert rep.weyl_equivalent

    def test_half_rank_two_witness(self):
        rep = commutativity_check(uchar(2, qval(2), qval(1, 1)), -1)
        assert rep.pattern_via_bc == (F(3, 2), F(1, 2), F(-3, 2), F(-1, 2))
        assert rep.pattern_direct == (F(3, 2), F(1, 2), F(-1, 2), F(-3, 2))
        assert not rep.patterns_equal_as_tuples
        assert rep.patterns_weyl_equivalent
        assert rep.weyl_equivalent

    def test_exhaustive_small_sweep(self):
        total = 0
        for rep in sweep_commutativity(3):
            assert rep.weyl_equivalent
            total += 1
        assert total == 2 * (12 + 12**2 + 12**3)

    def test_odd_rank_sweep(self):
        for m in (1, 2):
            side = USide(m, odd_rank=True)
            for eps in (1, -1):
                for combo in itertools.product(small_value_set()[:6], repeat=m):
                    rep = commutativity_check(UnramChar(side, combo), eps)
                    assert rep.weyl_equivalent
                    assert rep.patterns_weyl_equivalent

    def test_well_defined_on_orbits(self):
        rng = random.Random(17)
        pool = small_value_set()
        for _ in range(200):
            m = rng.randint(1, 4)
            coords = [rng.choice(pool) for _ in range(m)]
            moved = coords[:]
            rng.shuffle(moved)
            moved = [c.inv() if rng.random() < 0.5 else c for c in moved]
            a = base_change(uchar(m, *coords))
            b = base_change(uchar(m, *moved))
            assert weyl_equivalent(a, b)

    def test_reversed_alignment_would_erase_the_witness(self):
        # Reading the second block in reversed order makes the transported
        # pattern coincide with the direct one on the nose, so the
        # half-rank-two tuple/orbit contrast above is specific to the
        # formula-literal alignment.
        side = USide(2)
        exps = unitary_modulus_exponents(2)
        reversed_reading = exps + tuple(-e for e in reversed(exps))
        assert reversed_reading == linear_modulus_exponents(4)
        assert twist_pattern_via_base_change(side) != reversed_reading


def enumerated_counts(m, eps, odd):
    """(checked, coordinatewise, failures) from every character of the pool, one check each."""
    side = USide(m, odd)
    reports = [commutativity_check(UnramChar(side, combo), eps)
               for combo in itertools.product(small_value_set(), repeat=m)]
    return (len(reports), sum(r.values_equal_as_tuples for r in reports),
            sum(not r.weyl_equivalent for r in reports))


CASES = [(m, eps, odd) for odd in (False, True) for m in range(1, 5) for eps in (1, -1)]
# The mutants fail up to every character, each through the orbit
# comparison, so they stop at half-rank 3; so does the enumeration of the
# unmutated square, whose half-rank-4 characters acceptance criterion 6
# enumerates.
MUTANT_CASES = [case for case in CASES if case[0] <= 3]


def failures_on_both_paths(cases):
    """The failures over ``cases``, after asserting that both paths give the same counts."""
    failures = 0
    for m, eps, odd in cases:
        counts = commutativity_counts(m, eps, odd)
        assert counts == enumerated_counts(m, eps, odd), (m, eps, odd)
        failures += counts[2]
    return failures


def patch_twist(monkeypatch, negated):
    """Negate coordinate ``negated(side)`` of ``galois_twist`` on every side where it is not None."""
    twist = basechange.galois_twist

    def mutant(side, eps):
        chi, i = twist(side, eps), negated(side)
        if i is None:
            return chi
        return UnramChar(side, chi.coords[:i] + (chi.coords[i] * qval(-1),) + chi.coords[i + 1 :])

    monkeypatch.setattr(basechange, "galois_twist", mutant)


class TestFactoredCounts:
    def test_matches_enumeration(self):
        assert failures_on_both_paths(MUTANT_CASES) == 0
        assert all(commutativity_counts(m, eps, odd) == (12**m, 12**m, 0) for m, eps, odd in CASES)

    # Each mutant breaks the square on some characters; the factored
    # counts must find the same failures as the enumeration.

    def test_unitary_factor_negated_at_one_position(self, monkeypatch):
        patch_twist(monkeypatch, lambda side: 1 if isinstance(side, USide) and side.m > 1 else None)
        assert failures_on_both_paths(MUTANT_CASES) == 4 * sum(12**m for m in range(2, 4))

    def test_first_back_factor_negated(self, monkeypatch):
        # Coordinate m of an even-rank linear twist is the first of the back block.
        patch_twist(monkeypatch, lambda side: side.n // 2 if isinstance(side, GLSide) and side.n % 2 == 0 else None)
        assert failures_on_both_paths(MUTANT_CASES) == 2 * sum(12**m for m in range(1, 4))

    def test_odd_rank_middle_negated(self, monkeypatch):
        patch_twist(monkeypatch, lambda side: side.n // 2 if isinstance(side, GLSide) and side.n % 2 else None)
        odd_cases = [case for case in MUTANT_CASES if case[2]]
        assert failures_on_both_paths(odd_cases) == 2 * sum(12**m for m in range(1, 4))
        assert all(commutativity_counts(m, eps, odd)[1] == 0 for m, eps, odd in odd_cases)
        assert failures_on_both_paths([case for case in MUTANT_CASES if not case[2]]) == 0


WIDE_CASES = [(m, eps, odd) for odd in (False, True) for m in range(1, 65) for eps in (1, -1)]


def pool_split_bad_positions(m, eps, odd):
    """The positions no pool value passes, with "middle" for an odd-rank middle that differs.

    This transcribes the per-value split ``commutativity_counts`` made
    before it read the twist factors alone: value c is good at a position
    when c·front == c·unitary and c⁻¹·back == (c·unitary)⁻¹.  On the way
    it asserts that each position is good for every pool value or for
    none, and that this agrees with front == unitary and back == unitary⁻¹.
    """
    pool = small_value_set()
    u = basechange.galois_twist(USide(m, odd), eps).coords
    gl = basechange.galois_twist(GLSide(2 * m + odd), eps).coords
    bad = ["middle"] if odd and gl[m] != qval(1) else []
    for i, (front, back, unitary) in enumerate(zip(gl, gl[m + odd :], u)):
        goods = [c for c in pool if c * front == c * unitary and c.inv() * back == (c * unitary).inv()]
        assert len(goods) in (0, len(pool)), (m, eps, odd, i)
        assert bool(goods) == (front == unitary and back == unitary.inv()), (m, eps, odd, i)
        if not goods:
            bad.append(i)
    return bad


class TestFactorDecision:
    def test_every_position_good_and_no_character_checked(self, monkeypatch):
        assert all(pool_split_bad_positions(*case) == [] for case in WIDE_CASES)

        def refused(*args):
            raise AssertionError("commutativity_check called although every position is good")

        monkeypatch.setattr(basechange, "commutativity_check", refused)
        assert all(commutativity_counts(m, eps, odd) == (12**m, 12**m, 0) for m, eps, odd in WIDE_CASES)

    # The mutants of TestFactoredCounts, each with the positions it makes bad.
    @pytest.mark.parametrize(
        "negated, bad",
        [
            (lambda side: 1 if isinstance(side, USide) and side.m > 1 else None,
             lambda m, odd: [1] if m > 1 else []),
            (lambda side: side.n // 2 if isinstance(side, GLSide) and side.n % 2 == 0 else None,
             lambda m, odd: [] if odd else [0]),
            (lambda side: side.n // 2 if isinstance(side, GLSide) and side.n % 2 else None,
             lambda m, odd: ["middle"] if odd else []),
        ],
        ids=["unitary-factor", "first-back-factor", "odd-rank-middle"],
    )
    def test_mutated_position_is_bad_for_every_value(self, monkeypatch, negated, bad):
        patch_twist(monkeypatch, negated)
        assert all(pool_split_bad_positions(m, eps, odd) == bad(m, odd) for m, eps, odd in WIDE_CASES)
        # A position bad for every value leaves no character coordinatewise equal.
        assert all(commutativity_counts(m, eps, odd)[1] == (0 if bad(m, odd) else 12**m)
                   for m, eps, odd in CASES if m <= 2)
