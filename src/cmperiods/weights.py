"""Highest-weight parameters and the transforms used by the doubling method.

Weights are integer tuples indexed by a CM type plus one scalar for the
similitude factor.  All transforms here are exact integer arithmetic:
dominance tests, the doubling parameter built from a weight and a
character infinity type, duals, sharp pairings with determinant and
similitude twists, and conjugation by the model group.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cmfield import CMFieldModel, CMType, conjugate_signature
from .errors import DominanceError, PreconditionError

__all__ = [
    "WeightParam",
    "Signature",
    "is_dominant",
    "is_block_dominant",
    "doubling_weight",
    "dual_weight",
    "sharp_pair",
    "det_twist",
    "similitude_twist",
    "sharp_dual_weight",
    "sharp_dual_composite",
    "character_twist_weight",
    "line_bundle_weight",
    "extend_weight",
    "conjugate_weight",
]


@dataclass(frozen=True, eq=True)
class WeightParam:
    """Tuples ((a_{t,1},...,a_{t,n}) for t in the CM type; a0)."""

    entries: dict[str, tuple[int, ...]]
    a0: int
    n: int

    def __post_init__(self):
        for t, row in self.entries.items():
            if len(row) != self.n:
                raise PreconditionError(f"entry list at {t!r} has length {len(row)} != {self.n}")

    def row(self, t: str) -> tuple[int, ...]:
        return self.entries[t]

    def taus(self) -> tuple[str, ...]:
        return tuple(sorted(self.entries))

    def map_rows(self, fn) -> "WeightParam":
        return WeightParam({t: tuple(fn(row)) for t, row in self.entries.items()}, self.a0, self.n)


@dataclass(frozen=True, eq=True)
class Signature:
    """Pairs (r_t, s_t) with r_t + s_t equal to the rank at every place."""

    pairs: dict[str, tuple[int, int]]
    n: int

    def __post_init__(self):
        for t, (r, s) in self.pairs.items():
            if r < 0 or s < 0 or r + s != self.n:
                raise PreconditionError(f"signature at {t!r} must be nonnegative with r+s={self.n}")

    def r(self, t: str) -> int:
        return self.pairs[t][0]

    def s(self, t: str) -> int:
        return self.pairs[t][1]

    def conjugated(self, model: CMFieldModel, g: str) -> "Signature":
        return Signature(conjugate_signature(model, self.pairs, g), self.n)


def _weakly_decreasing(row) -> bool:
    return all(a >= b for a, b in zip(row, row[1:]))


def is_dominant(w: WeightParam) -> bool:
    """Every entry list is weakly decreasing."""
    return all(_weakly_decreasing(row) for row in w.entries.values())


def is_block_dominant(w: WeightParam, sig: Signature) -> bool:
    """Weak decrease on the first r_t entries and on the remaining s_t entries."""
    for t, row in w.entries.items():
        r = sig.r(t)
        if not (_weakly_decreasing(row[:r]) and _weakly_decreasing(row[r:])):
            return False
    return True


def doubling_weight(mu: WeightParam, psi, sig: Signature) -> WeightParam:
    """Block-dominant parameter combining a dominant weight with a character.

    With (r, s) the signature at t and m the character exponents,

        b_{t,i} = a_{t,s+i} + m_{tbar} - m_t - s        for 1 <= i <= r,
        b_{t,i} = a_{t,i-r} + m_{tbar} - m_t + r        for r <  i <= n,
        b_0     = a_0 - n * sum over the CM type of m_{tbar}.

    The result is always block dominant for ``sig``; this is asserted.
    """
    if not is_dominant(mu):
        raise DominanceError("doubling_weight requires a dominant input weight")
    model = psi.model
    entries: dict[str, tuple[int, ...]] = {}
    total_bar = 0
    for t in mu.entries:
        a = mu.row(t)
        r, s = sig.pairs[t]
        m_t = psi.exps[t]
        m_bar = psi.exps[model.conj[t]]
        total_bar += m_bar
        row = [a[s + i - 1] + m_bar - m_t - s for i in range(1, r + 1)]
        row += [a[i - r - 1] + m_bar - m_t + r for i in range(r + 1, mu.n + 1)]
        entries[t] = tuple(row)
    out = WeightParam(entries, mu.a0 - mu.n * total_bar, mu.n)
    assert is_block_dominant(out, sig)
    return out


def dual_weight(w: WeightParam) -> WeightParam:
    """Reverse and negate each entry list; negate the scalar."""
    return WeightParam(
        {t: tuple(-a for a in reversed(row)) for t, row in w.entries.items()},
        -w.a0,
        w.n,
    )


def sharp_pair(w: WeightParam, w_minus: WeightParam) -> WeightParam:
    """Concatenate two rank-n parameters into the rank-2n doubled parameter."""
    if w.n != w_minus.n or set(w.entries) != set(w_minus.entries):
        raise PreconditionError("sharp_pair requires matching rank and CM type")
    entries = {t: w.row(t) + w_minus.row(t) for t in w.entries}
    return WeightParam(entries, w.a0 + w_minus.a0, 2 * w.n)


def det_twist(w: WeightParam, k: int) -> WeightParam:
    """Determinant twist: add k to every entry and to the scalar."""
    return WeightParam(
        {t: tuple(a + k for a in row) for t, row in w.entries.items()}, w.a0 + k, w.n
    )


def similitude_twist(w: WeightParam, k: int) -> WeightParam:
    """Similitude twist: add k to the scalar only."""
    return WeightParam(dict(w.entries), w.a0 + k, w.n)


def sharp_dual_weight(w: WeightParam, kappa: int) -> WeightParam:
    """Rank-2n parameter (a_{t,1},...,a_{t,n}, -a_{t,n}-kappa,...,-a_{t,1}-kappa; 0).

    Computed by the explicit formula; :func:`sharp_dual_composite` builds
    the same parameter independently, and the two must agree exactly.
    """
    return WeightParam(
        {
            t: row + tuple(-a - kappa for a in reversed(row))
            for t, row in w.entries.items()
        },
        0,
        2 * w.n,
    )


def sharp_dual_composite(w: WeightParam, kappa: int) -> WeightParam:
    """The sharp-dual parameter as sharp_pair(w, det_twist(dual_weight(w), -kappa))
    followed by a similitude twist by kappa."""
    return similitude_twist(sharp_pair(w, det_twist(dual_weight(w), -kappa)), kappa)


def character_twist_weight(psi, n: int, phi: CMType) -> WeightParam:
    """Weight of the bundle twist by a character: constant rows m_t - m_{tbar},
    scalar n * sum of m_{tbar} over the CM type."""
    model = psi.model
    entries = {}
    total_bar = 0
    for t in phi.sorted_members():
        m_t = psi.exps[t]
        m_bar = psi.exps[model.conj[t]]
        total_bar += m_bar
        entries[t] = (m_t - m_bar,) * n
    return WeightParam(entries, n * total_bar, n)


def line_bundle_weight(m: int, kappa: int, n: int, phi: CMType) -> WeightParam:
    """Rank-2n weight (-m-kappa,...,-m-kappa, m,...,m; 0) of the scalar bundle."""
    row = (-m - kappa,) * n + (m,) * n
    return WeightParam({t: row for t in phi.sorted_members()}, 0, 2 * n)


def extend_weight(
    w: WeightParam, model: CMFieldModel, convention: str = "dual"
) -> dict[str, tuple[int, ...]]:
    """Extend entry lists from the CM type of ``w`` to every embedding.

    ``dual`` (default) sets the conjugate row to the reversed negation, the
    same duality used by :func:`dual_weight`; ``mirror`` reverses without
    negating.  The choice is a convention flag because only the dual
    variant makes conjugation interact exactly with the doubling
    parameter.
    """
    full = dict(w.entries)
    for t, row in w.entries.items():
        if convention == "dual":
            full[model.conj[t]] = tuple(-a for a in reversed(row))
        elif convention == "mirror":
            full[model.conj[t]] = tuple(reversed(row))
        else:
            raise PreconditionError(f"unknown extension convention {convention!r}")
    if set(full) != set(model.embeddings):
        raise PreconditionError("weight is not indexed by a CM type of the model")
    return full


def conjugate_weight(
    w: WeightParam, g: str, model: CMFieldModel, convention: str = "dual"
) -> WeightParam:
    """Pull the weight back along g and restrict to the original CM type.

    The row at t becomes the extended row at g(t).  Under the ``dual``
    convention the scalar absorbs the entry sums of the rows that cross
    to the conjugate half, which is exactly the correction that makes
    conjugation commute with :func:`doubling_weight`; under ``mirror``
    the scalar is left unchanged.
    """
    full = extend_weight(w, model, convention)
    perm = model.element(g)
    phi_members = set(w.entries)
    entries = {t: full[perm[t]] for t in w.entries}
    a0 = w.a0
    if convention == "dual":
        for t in w.entries:
            if perm[t] not in phi_members:
                a0 += sum(w.entries[model.conj[perm[t]]])
    return WeightParam(entries, a0, w.n)
