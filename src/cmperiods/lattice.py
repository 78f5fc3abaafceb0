"""Exact membership in integer lattices of exponent vectors.

Rows are kept in a gcd-pivoted row-echelon form (a Hermite-style basis),
built incrementally with extended-gcd row operations.  Membership of a
vector is decided by greedy reduction against the pivots; the leftover
after reduction is the canonical residual, zero exactly on members.
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
        self.rows: list[list[int]] = []  # echelon rows, pivot columns increasing

    def _checked(self, vec: list[int]) -> list[int]:
        if len(vec) != self.n:
            raise PreconditionError(f"vector of length {len(vec)} in a lattice of dimension {self.n}")
        return list(vec)

    def add(self, vec: list[int]) -> None:
        v = self._checked(vec)
        while any(v):
            j = next(i for i, x in enumerate(v) if x)
            # Mix only with the row pivoted exactly at the leading column of v;
            # both vectors vanish before j, so columns < j stay untouched.
            row = None
            for r in self.rows:
                lead = next(i for i, x in enumerate(r) if x)
                if lead == j:
                    row = r
                    break
                if lead > j:
                    break
            if row is None:
                if v[j] < 0:
                    v = [-x for x in v]
                where = 0
                while where < len(self.rows) and next(
                    i for i, x in enumerate(self.rows[where]) if x
                ) < j:
                    where += 1
                self.rows.insert(where, v)
                self._normalize()
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
        self._normalize()

    def _normalize(self) -> None:
        # Back-reduce entries above each pivot into [0, pivot), sweeping
        # pivots left to right so later columns are cleaned last.
        for k in range(len(self.rows)):
            row = self.rows[k]
            j = next(i for i, x in enumerate(row) if x)
            for upper in self.rows[:k]:
                q = upper[j] // row[j]
                if q:
                    for i in range(j, self.n):
                        upper[i] -= q * row[i]

    def reduce(self, vec: list[int]) -> list[int]:
        """Canonical representative of vec modulo the lattice."""
        v = self._checked(vec)
        for row in self.rows:
            j = next(i for i, x in enumerate(row) if x)
            q = v[j] // row[j]  # floor; pivots are positive, so 0 <= remainder < pivot
            if q:
                for i in range(j, self.n):
                    v[i] -= q * row[i]
        return v

    def contains(self, vec: list[int]) -> bool:
        return not any(self.reduce(vec))
