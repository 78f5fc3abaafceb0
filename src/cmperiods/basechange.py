"""Unramified torus characters, modulus twists, and quadratic base change.

Characters live on the diagonal torus coordinates as formal values
r * (q^{1/2})^k with r a nonzero rational and q unspecified, so every
comparison is exact.  The conjugation twist of the half-modulus, the
base-change map on Satake data, equivalence under the relevant Weyl
groups, and the commutativity of twisting with base change are all
computed at this desk scale.

A value r * (q^{1/2})^k is stored as the integer triple (num, den, k)
with r = num/den in lowest terms and den > 0, so equality and hashing
are plain tuple operations.  ``Fraction`` appears only at the edges:
the input of ``qval``, the Weyl-orbit sort key and the modulus-exponent
patterns.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from fractions import Fraction
from math import gcd
from operator import itemgetter
from typing import NamedTuple

from .errors import PreconditionError, SideError

# Products and inverses are built with tuple.__new__, which skips the
# NamedTuple constructor's extra Python-level call; their arithmetic
# already leaves them normalized.
_new_tuple = tuple.__new__


class QValue(NamedTuple):
    """(num/den) * (q^{1/2})^k with num != 0, den > 0 and gcd(num, den) == 1.

    Build values with ``qval``; the products and inverses below keep the
    normalization, so two equal values are equal as tuples.
    """

    num: int
    den: int
    k: int

    def __mul__(self, other: "QValue") -> "QValue":  # type: ignore[override]
        n1, d1, k1 = self
        n2, d2, k2 = other
        num, den = n1 * n2, d1 * d2
        g = gcd(num, den)
        return _new_tuple(QValue, (num // g, den // g, k1 + k2))

    def inv(self) -> "QValue":
        num, den, k = self
        if num < 0:
            return _new_tuple(QValue, (-den, -num, -k))
        return _new_tuple(QValue, (den, num, -k))

    def sort_key(self):
        return (self.k, Fraction(self.num, self.den))


def qval(r, k: int = 0) -> QValue:
    value = Fraction(r)
    if value == 0:
        raise PreconditionError("character values must be nonzero")
    return QValue(value.numerator, value.denominator, k)


ONE_VALUE = qval(1, 0)


class USide(namedtuple("USide", "m odd_rank")):
    """Rank-2m (or, experimentally, rank-2m+1) quasi-split unitary side.

    ``odd_rank`` opts into the odd-rank extension, whose modulus
    exponents follow from the same Haar-measure bookkeeping but are not
    displayed anywhere; it is validated only through the well-definedness
    and commutativity invariants.
    """

    __slots__ = ()

    def __new__(cls, m: int, odd_rank: bool = False):
        if m < 1:
            raise PreconditionError("half-rank must be at least 1")
        return super().__new__(cls, m, odd_rank)


class GLSide(namedtuple("GLSide", "n")):
    __slots__ = ()

    def __new__(cls, n: int):
        if n < 1:
            raise PreconditionError("rank must be at least 1")
        return super().__new__(cls, n)


_numerator = itemgetter(0)


class UnramChar(namedtuple("UnramChar", "side coords")):
    __slots__ = ()

    def __new__(cls, side: USide | GLSide, coords: tuple[QValue, ...]):
        expected = side.m if isinstance(side, USide) else side.n
        if len(coords) != expected:
            raise PreconditionError(
                f"character needs {expected} coordinates, got {len(coords)}"
            )
        if not all(map(_numerator, coords)):
            raise PreconditionError("character values must be nonzero")
        return super().__new__(cls, side, coords)

    def __mul__(self, other: "UnramChar") -> "UnramChar":
        if self.side != other.side:
            raise SideError("cannot multiply characters on different sides")
        return UnramChar(self.side, _times(self.coords, other.coords))


def _times(xs: tuple[QValue, ...], ys: tuple[QValue, ...]) -> tuple[QValue, ...]:
    return tuple(map(QValue.__mul__, xs, ys))


def unitary_modulus_exponents(m: int, odd_rank: bool = False) -> tuple[Fraction, ...]:
    """Half-modulus exponents on the unitary side.

    Even rank 2m: ((2m-1)/2, (2m-3)/2, ..., 1/2).  Odd rank 2m+1
    (experimental): the same bookkeeping yields (m, m-1, ..., 1).
    """
    if m < 1:
        raise PreconditionError("half-rank must be at least 1")
    if odd_rank:
        return tuple(Fraction(m - i) for i in range(m))
    return tuple(Fraction(2 * m - 1 - 2 * i, 2) for i in range(m))


def linear_modulus_exponents(n: int) -> tuple[Fraction, ...]:
    """Half-modulus exponents ((n-1)/2, (n-3)/2, ..., -(n-1)/2) on the linear side."""
    if n < 1:
        raise PreconditionError("rank must be at least 1")
    return tuple(Fraction(n - 1 - 2 * i, 2) for i in range(n))


def modulus_exponents(side: USide | GLSide) -> tuple[Fraction, ...]:
    if isinstance(side, USide):
        return unitary_modulus_exponents(side.m, side.odd_rank)
    return linear_modulus_exponents(side.n)


@functools.lru_cache(maxsize=None)
def galois_twist(side: USide | GLSide, eps: int) -> UnramChar:
    """The character sigma(half-modulus)/half-modulus for sigma acting by eps on q^{1/2}.

    Coordinate i takes the value eps**numerator(e_i) with e_i the modulus
    exponent written over denominator 2; integral exponents give 1.
    """
    if eps not in (1, -1):
        raise PreconditionError("the twist is determined by a sign")
    coords = []
    for e in modulus_exponents(side):
        num = int(2 * e)
        coords.append(qval(eps if num % 2 else 1, 0))
    return UnramChar(side, tuple(coords))


def _gl_side(side: USide) -> GLSide:
    return GLSide(2 * side.m + (1 if side.odd_rank else 0))


def base_change(chi: UnramChar) -> UnramChar:
    """Quadratic base change on Satake data: (c_1..c_m) -> (c_1..c_m, c_1^-1..c_m^-1).

    For the experimental odd rank a trivial middle coordinate is inserted.
    """
    side = chi.side
    if not isinstance(side, USide):
        raise SideError("base change starts from the unitary side")
    middle = (ONE_VALUE,) if side.odd_rank else ()
    return UnramChar(_gl_side(side), chi.coords + middle + tuple(map(QValue.inv, chi.coords)))


def twist_pattern_via_base_change(side: USide) -> tuple[Fraction, ...]:
    """Half-modulus exponent pattern transported through the base-change formula."""
    exps = unitary_modulus_exponents(side.m, side.odd_rank)
    middle = (Fraction(0),) if side.odd_rank else ()
    return exps + middle + tuple(-e for e in exps)


@functools.lru_cache(maxsize=None)
def _pattern_facts(side: USide) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...], bool, bool]:
    direct = linear_modulus_exponents(_gl_side(side).n)
    via_bc = twist_pattern_via_base_change(side)
    return direct, via_bc, direct == via_bc, sorted(direct) == sorted(via_bc)


def weyl_equivalent(x: UnramChar, y: UnramChar) -> bool:
    """Orbit equality under the relevant Weyl group.

    Linear side: coordinate multisets.  Unitary side: signed
    permutations, i.e. multisets after normalizing each coordinate
    against its inverse.
    """
    if x.side != y.side:
        return False
    if isinstance(x.side, GLSide):
        return sorted(x.coords, key=QValue.sort_key) == sorted(y.coords, key=QValue.sort_key)

    def normal(c: QValue) -> QValue:
        return min(c, c.inv(), key=QValue.sort_key)

    return sorted(map(normal, x.coords), key=QValue.sort_key) == sorted(map(normal, y.coords), key=QValue.sort_key)


class CommutativityReport(NamedTuple):
    """Both routes from a unitary character to a twisted linear character."""

    twist_then_bc: UnramChar
    bc_then_twist: UnramChar
    values_equal_as_tuples: bool
    weyl_equivalent: bool
    pattern_direct: tuple[Fraction, ...]
    pattern_via_bc: tuple[Fraction, ...]
    patterns_equal_as_tuples: bool
    patterns_weyl_equivalent: bool


def commutativity_check(chi: UnramChar, eps: int) -> CommutativityReport:
    """Compare twisting before and after base change.

    The two induced characters must be Weyl equivalent (in fact they agree
    coordinatewise, because the sign twist squares to one); the formal
    half-exponent patterns behind the two twists agree only up to the
    linear Weyl group once the half-rank exceeds one.
    """
    side = chi.side
    if not isinstance(side, USide):
        raise SideError("commutativity check starts from the unitary side")
    lhs = base_change(chi) * galois_twist(_gl_side(side), eps)
    rhs = base_change(chi * galois_twist(side, eps))
    direct, via_bc, tuples_eq, weyl_eq = _pattern_facts(side)
    values_equal = lhs.coords == rhs.coords
    return CommutativityReport(
        twist_then_bc=lhs,
        bc_then_twist=rhs,
        values_equal_as_tuples=values_equal,
        weyl_equivalent=values_equal or weyl_equivalent(lhs, rhs),
        pattern_direct=direct,
        pattern_via_bc=via_bc,
        patterns_equal_as_tuples=tuples_eq,
        patterns_weyl_equivalent=weyl_eq,
    )


def small_value_set() -> tuple[QValue, ...]:
    """The fixed coordinate pool used by the exhaustive commutativity sweeps."""
    vals = [qval(s, k) for s in (1, -1) for k in range(-2, 3)]
    vals += [qval(2, 0), qval(Fraction(1, 2), 0)]
    return tuple(vals)


def _pool_reports(side: USide, eps: int):
    """Yield the commutativity report of every character of the value pool on ``side``."""
    for combo in itertools.product(small_value_set(), repeat=side.m):
        yield commutativity_check(UnramChar(side, combo), eps)


def commutativity_counts(m: int, eps: int, odd_rank: bool = False) -> tuple[int, int, int]:
    """(checked, coordinatewise, failures) over the 12^m characters of the value pool.

    Position i of chi fixes coordinates i and m+i (m+1+i at odd rank) of
    both routes: c·front against c·unitary and c⁻¹·back against
    (c·unitary)⁻¹, with front and back the linear twist's factors there.
    The value c cancels, so when front equals unitary and back its
    inverse at every position, and the middle coordinates agree (none at
    even rank, the linear twist's middle factor 1 at odd rank), the square
    commutes coordinatewise for every character with values r·q^{k/2},
    not only the pool's; the pool fixes only ``checked``.  A bad position
    is bad for every value, so then all 12^m pool characters go through
    ``commutativity_check``.
    """
    side = USide(m, odd_rank)
    u, gl = galois_twist(side, eps).coords, galois_twist(_gl_side(side), eps).coords
    checked = len(small_value_set()) ** m
    if (not odd_rank or gl[m] == ONE_VALUE) and all(
        front == unitary and back == unitary.inv() for front, back, unitary in zip(gl, gl[m + odd_rank :], u)
    ):
        return checked, checked, 0
    coordinatewise = failures = 0
    for rep in _pool_reports(side, eps):
        coordinatewise += rep.values_equal_as_tuples
        failures += not rep.weyl_equivalent
    return checked, coordinatewise, failures


def sweep_commutativity(m_max: int = 4, odd_rank: bool = False):
    """Yield every commutativity report over the fixed value pool up to m_max."""
    for m in range(1, m_max + 1):
        for eps in (1, -1):
            yield from _pool_reports(USide(m, odd_rank), eps)
