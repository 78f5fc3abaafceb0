"""Highest-weight parameters and the transforms used by the doubling method.

Weights are integer tuples indexed by a CM type plus one scalar for the
similitude factor.  All transforms here are exact integer arithmetic:
dominance tests, the doubling parameter built from a weight and a
character infinity type, duals, sharp pairings with determinant and
similitude twists, and conjugation by the model group.
"""

from __future__ import annotations

from collections import namedtuple

from .cmfield import CMFieldModel, CMType, conjugate_signature, pull_back
from .errors import DominanceError, InvalidCMTypeError, PreconditionError
from .hecke import conjugate_infinity_type


class WeightParam(namedtuple("WeightParam", "entries a0 n")):
    """Tuples ((a_{t,1},...,a_{t,n}) for t in the CM type; a0)."""

    __slots__ = ()

    def __new__(cls, entries: dict[str, tuple[int, ...]], a0: int, n: int):
        for t, row in entries.items():
            if len(row) != n:
                raise PreconditionError(f"entry list at {t!r} has length {len(row)} != {n}")
        return super().__new__(cls, entries, a0, n)

    def row(self, t: str) -> tuple[int, ...]:
        return self.entries[t]


class Signature(namedtuple("Signature", "pairs n")):
    """Pairs (r_t, s_t) with r_t + s_t equal to the rank at every place."""

    __slots__ = ()

    def __new__(cls, pairs: dict[str, tuple[int, int]], n: int):
        for t, (r, s) in pairs.items():
            if r < 0 or s < 0 or r + s != n:
                raise PreconditionError(f"signature at {t!r} must be nonnegative with r+s={n}")
        return super().__new__(cls, pairs, n)

    def r(self, t: str) -> int:
        return self.pairs[t][0]

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

    The result is block dominant for ``sig``; the callers that report
    block dominance decide it with :func:`is_block_dominant`.
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
    return WeightParam(entries, mu.a0 - mu.n * total_bar, mu.n)


def dual_row(row: tuple[int, ...]) -> tuple[int, ...]:
    """The reversed negation of an entry list."""
    return tuple(-a for a in reversed(row))


def dual_weight(w: WeightParam) -> WeightParam:
    """Reverse and negate each entry list; negate the scalar."""
    return WeightParam({t: dual_row(row) for t, row in w.entries.items()}, -w.a0, w.n)


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


def conjugate_weight(w: WeightParam, g: str, model: CMFieldModel) -> WeightParam:
    """Pull the weight back along g, on its own CM type.

    The row at t becomes the row at g(t), or the reversed negation of the
    row at conj(g(t)) where g(t) crosses to the conjugate half; that is the
    duality of :func:`dual_weight`.  The scalar absorbs the entry sums of
    the crossed rows, which is exactly the correction that makes
    conjugation commute with :func:`doubling_weight`.
    """
    try:
        CMType(frozenset(w.entries)).validate(model)
    except InvalidCMTypeError as exc:
        raise PreconditionError(f"weight places {sorted(w.entries)} are not a CM type: {exc}") from None
    perm = model.element(g)
    crossed = [model.conj[perm[t]] for t in w.entries if perm[t] not in w.entries]
    return WeightParam(
        pull_back(model, w.entries, g, dual_row), w.a0 + sum(sum(w.entries[t]) for t in crossed), w.n
    )


def doubling_equivariance_failures(mu: WeightParam, psi, sig: Signature, lam: WeightParam) -> list[str]:
    """Group elements g under which ``lam = doubling_weight(mu, psi, sig)`` is not equivariant:
    conjugating the inputs by g, the character by g's inverse, must conjugate ``lam`` by g."""
    model = psi.model
    return [
        g
        for g in sorted(model.group)
        if doubling_weight(
            conjugate_weight(mu, g, model),
            conjugate_infinity_type(psi, model.inverse_name(g)),
            sig.conjugated(model, g),
        )
        != conjugate_weight(lam, g, model)
    ]
