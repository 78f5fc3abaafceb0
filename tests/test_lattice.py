import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import hermite_normal_form

from cmperiods.errors import PreconditionError
from cmperiods.lattice import IntegerLattice, xgcd


@given(st.integers(-500, 500), st.integers(-500, 500))
def test_xgcd_identity(a, b):
    x, y, g = xgcd(a, b)
    assert x * a + y * b == g
    assert g >= 0
    if a or b:
        assert a % g == 0 and b % g == 0


def brute_force_member(rows, vec, bound=4):
    if not rows:
        return not any(vec)
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=len(rows)):
        combo = [sum(c * row[i] for c, row in zip(coeffs, rows)) for i in range(len(vec))]
        if combo == list(vec):
            return True
    return False


def test_membership_agrees_with_bounded_search():
    rng = random.Random(21)
    for _ in range(60):
        dim = rng.randint(1, 4)
        nrows = rng.randint(1, 3)
        rows = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(nrows)]
        lat = IntegerLattice(dim)
        for row in rows:
            lat.add(list(row))
        for _ in range(25):
            if rng.random() < 0.5:
                coeffs = [rng.randint(-3, 3) for _ in rows]
                vec = [sum(c * r[i] for c, r in zip(coeffs, rows)) for i in range(dim)]
                assert lat.contains(vec)
            else:
                vec = [rng.randint(-6, 6) for _ in range(dim)]
                got = lat.contains(vec)
                if got:
                    # Claimed members must be reachable (unbounded certificate
                    # via residual-zero reduction already checked; cross-check
                    # small ones by search).
                    if all(abs(v) <= 4 for v in vec):
                        assert brute_force_member(rows, vec, bound=6)
                elif all(abs(v) <= 3 for v in vec):
                    assert not brute_force_member(rows, vec, bound=4)


def test_reduce_is_idempotent_and_detects_members():
    rng = random.Random(22)
    for _ in range(40):
        dim = rng.randint(2, 5)
        lat = IntegerLattice(dim)
        for _ in range(rng.randint(1, 4)):
            lat.add([rng.randint(-4, 4) for _ in range(dim)])
        vec = [rng.randint(-9, 9) for _ in range(dim)]
        red = lat.reduce(vec)
        assert lat.reduce(red) == red
        assert lat.contains(vec) == (not any(red))
        # The difference between a vector and its residual is in the lattice.
        diff = [a - b for a, b in zip(vec, red)]
        assert lat.contains(diff)


def test_known_small_lattices():
    lat = IntegerLattice(2)
    lat.add([2, 0])
    lat.add([0, 3])
    assert lat.contains([4, -3])
    assert not lat.contains([1, 0])
    assert lat.reduce([3, 4]) == [1, 1]

    gcd_lat = IntegerLattice(1)
    gcd_lat.add([6])
    gcd_lat.add([10])
    assert gcd_lat.contains([2]) and not gcd_lat.contains([1])


def sympy_member(rows, vec):
    """Independent oracle: appending a member as a generator leaves the HNF unchanged."""
    return hermite_normal_form(Matrix(rows).T) == hermite_normal_form(Matrix(rows + [vec]).T)


@st.composite
def lattice_and_vector(draw):
    dim = draw(st.integers(1, 4))
    entry = st.integers(-6, 6)
    rows = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=1, max_size=4))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
    combo = [sum(c * row[i] for c, row in zip(coeffs, rows)) for i in range(dim)]
    vec = draw(st.sampled_from([combo, draw(st.lists(entry, min_size=dim, max_size=dim))]))
    return rows, vec


@settings(max_examples=200, deadline=None)
@given(lattice_and_vector())
def test_membership_agrees_with_sympy_hnf(case):
    rows, vec = case
    lat = IntegerLattice(len(vec))
    for row in rows:
        lat.add(row)
    assert lat.contains(vec) == sympy_member(rows, vec)
    diff = [a - b for a, b in zip(vec, lat.reduce(vec))]
    assert sympy_member(rows, diff)


@pytest.mark.parametrize("method", ["add", "reduce"])
def test_wrong_length_vector_rejected(method):
    lat = IntegerLattice(3)
    lat.add([1, 2, 3])
    with pytest.raises(PreconditionError):
        getattr(lat, method)([1, 2])


def lattice_of(dim, rows):
    lat = IntegerLattice(dim)
    for row in rows:
        lat.add(list(row))
    return lat


def test_reduce_returns_the_canonical_residual():
    # The residual is a function of the coset alone: adding a member does
    # not move it, and neither does the order in which the rows were added.
    rng = random.Random(26)
    for _ in range(400):
        dim = rng.randint(1, 6)
        rows = [[rng.randint(-6, 6) for _ in range(dim)] for _ in range(rng.randint(1, 6))]
        lat = lattice_of(dim, rows)
        shuffled = lattice_of(dim, rng.sample(rows, len(rows)))
        vec = [rng.randint(-20, 20) for _ in range(dim)]
        coeffs = [rng.randint(-4, 4) for _ in rows]
        member = [sum(c * row[i] for c, row in zip(coeffs, rows)) for i in range(dim)]
        residual = lat.reduce(vec)
        assert lat.reduce([a + b for a, b in zip(vec, member)]) == residual, (rows, vec, coeffs)
        assert shuffled.reduce(vec) == residual, (rows, vec)
