"""Exact membership in integer lattices of exponent vectors.

Rows are kept in row-echelon form with positive pivots, keyed by their
pivot column in increasing order, and built incrementally with
extended-gcd row operations.  Membership of a vector is decided by
greedy floor reduction against the pivots, left to right, which leaves
``0 <= r[j] < pivot`` at each pivot column j; the leftover is the
canonical residual, zero exactly on members.

No back-reduction of the entries above the pivots is needed.  The pivot
at column j is the gcd of the j-th entries of the members vanishing
before j, so the pivots are invariants of the lattice.  Two residuals
with their pivot entries in range differ by a member; its first nonzero
coefficient over the basis, at pivot j, would make their j-th entries
differ by a nonzero multiple of that pivot, which two entries in
``[0, pivot)`` cannot.  So the floor-reduced residual is unique,
whatever the basis holds above its pivots.
"""

from __future__ import annotations

from .errors import PreconditionError


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(x, y, g) with x*a + y*b == g == gcd(a, b)."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


class IntegerLattice:
    """Sublattice of Z^N spanned by added vectors."""

    def __init__(self, dimension: int):
        self.n = dimension
        self.rows: dict[int, list[int]] = {}  # echelon rows by pivot column, increasing

    def _checked(self, vec: list[int]) -> list[int]:
        if len(vec) != self.n:
            raise PreconditionError(f"vector of length {len(vec)} in a lattice of dimension {self.n}")
        return list(vec)

    def add(self, vec: list[int]) -> None:
        v = self._checked(vec)
        for j in range(self.n):
            if not v[j]:
                continue
            # v vanishes before j, and so does the row pivoted at j, if any:
            # mixing the two leaves columns < j untouched.
            row = self.rows.get(j)
            if row is None:
                self.rows[j] = v if v[j] > 0 else [-x for x in v]
                self.rows = dict(sorted(self.rows.items()))
                return
            a, b = row[j], v[j]
            if b % a == 0:
                q = b // a
                for i in range(j, self.n):
                    v[i] -= q * row[i]
            else:
                x, y, g = xgcd(a, b)
                ag, bg = a // g, b // g
                for i in range(j, self.n):
                    ri, vi = row[i], v[i]
                    row[i] = x * ri + y * vi
                    v[i] = -bg * ri + ag * vi

    def reduce(self, vec: list[int]) -> list[int]:
        """Canonical representative of vec modulo the lattice."""
        v = self._checked(vec)
        for j, row in self.rows.items():
            q = v[j] // row[j]  # floor; pivots are positive, so 0 <= remainder < pivot
            if q:
                for i in range(j, self.n):
                    v[i] -= q * row[i]
        return v

    def contains(self, vec: list[int]) -> bool:
        return not any(self.reduce(vec))
