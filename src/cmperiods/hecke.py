"""Infinity types of algebraic Hecke characters over a CM-field model.

An infinity type is stored as the exponent family (m_t) over all
embeddings, meaning the character behaves like z^{-m_t} zbar^{-m_tbar}
at the place of t.  That single internal convention is fixed here once;
:meth:`InfinityType.z_exponent` converts to the exponent-of-z convention
at the API boundary, since silently mixing the two is the classic
pitfall in this corner of the subject.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .cmfield import CMFieldModel, CMType, invert
from .errors import NoSolutionError, NotAlgebraicError, PreconditionError


@dataclass(frozen=True, eq=True)
class InfinityType:
    """Exponent family of an algebraic Hecke character at infinity."""

    exps: dict[str, int]
    model: CMFieldModel

    def __post_init__(self):
        if set(self.exps) != set(self.model.embeddings):
            raise PreconditionError("infinity type must assign an exponent to every embedding")

    def z_exponent(self, t: str) -> int:
        """Exponent of z at the place of t (the negated stored exponent)."""
        return -self.exps[t]

    def pair(self, t: str) -> tuple[int, int]:
        """(m_t, m_tbar)."""
        return self.exps[t], self.exps[self.model.conj[t]]

    def pairs_on(self, phi: CMType) -> dict[str, tuple[int, int]]:
        return {t: self.pair(t) for t in phi.sorted_members()}

    def conjugated_character(self) -> "InfinityType":
        """Infinity type of the character precomposed with conjugation."""
        return InfinityType({t: self.exps[self.model.conj[t]] for t in self.exps}, self.model)

    def __mul__(self, other: "InfinityType") -> "InfinityType":
        return InfinityType({t: self.exps[t] + other.exps[t] for t in self.exps}, self.model)

    def inverse(self) -> "InfinityType":
        return InfinityType({t: -m for t, m in self.exps.items()}, self.model)


def conjugate_infinity_type(t: InfinityType, g: str) -> InfinityType:
    """Transport by a group element: new exponent at x is the old one at g^{-1}(x)."""
    ginv = invert(t.model.element(g))
    return InfinityType({x: t.exps[ginv[x]] for x in t.exps}, t.model)


def weight_of(t: InfinityType) -> int:
    """The constant m_t + m_tbar; raises if the sums are not constant."""
    sums = {t.exps[x] + t.exps[t.model.conj[x]] for x in t.exps}
    if len(sums) != 1:
        raise NotAlgebraicError(f"exponent sums are not constant: {sorted(sums)}")
    return sums.pop()


@dataclass(frozen=True)
class CharacterShape:
    """Exponent-of-z view (a, b) of an infinity type with its weight."""

    a: dict[str, int]
    b: dict[str, int]
    omega: int

    @classmethod
    def of(cls, t: InfinityType) -> "CharacterShape":
        omega = weight_of(t)
        a = {x: t.z_exponent(x) for x in t.exps}
        b = {x: t.z_exponent(t.model.conj[x]) for x in t.exps}
        if any(a[x] + b[x] != -omega for x in a):
            raise NotAlgebraicError("z-exponent pairs do not sum to the negated weight")
        return cls(a=a, b=b, omega=omega)


def tilde_alpha_infinity(psi: InfinityType, kappa: int, phi: CMType) -> InfinityType:
    """Infinity type of (psi / psi-conjugate) times the kappa-twist supported on phi."""
    model = psi.model
    members = phi.members
    exps = {}
    for t in model.embeddings:
        exps[t] = (psi.exps[t] - psi.exps[model.conj[t]]) - (kappa if t in members else 0)
    return InfinityType(exps, model)


@dataclass(frozen=True)
class AnticyclotomicSplit:
    """Solution family of eta-conjugate = (psi / psi-conjugate) * alpha.

    The differences m_t - m_tbar over the CM type and the twist exponent
    kappa are determined; the weight of psi is free within one parity
    class.  ``psi`` is the canonical representative of minimal weight.
    """

    psi: InfinityType
    kappa: int
    phi: CMType
    differences: dict[str, int]
    weight_parity: int

    def psi_at_weight(self, w: int) -> InfinityType:
        """The solution with psi of weight w; w must match the determined parity."""
        if w % 2 != self.weight_parity:
            raise PreconditionError(f"weight {w} has the wrong parity; need {self.weight_parity} mod 2")
        model = self.psi.model
        exps = {}
        for t, d in self.differences.items():
            m_t = (w + d) // 2
            exps[t] = m_t
            exps[model.conj[t]] = w - m_t
        return InfinityType(exps, model)


def anticyclotomic_split(eta: InfinityType, phi: CMType) -> AnticyclotomicSplit:
    """Solve eta-conjugate = (psi / psi-conjugate) * alpha for the given CM type.

    Solvable exactly when the stored exponents of eta share one parity on
    the CM type; on failure the error carries the parity table and an
    alternative CM type that works, when one exists.
    """
    model = eta.model
    phi.validate(model)
    omega = weight_of(eta)
    kappa = -omega
    members = phi.sorted_members()
    parities = {t: eta.exps[t] % 2 for t in members}
    if len(set(parities.values())) > 1:
        alternative = next(iter(solvable_cm_types(eta)), None)
        raise NoSolutionError(
            "parity obstruction: exponents on the CM type are not of one parity",
            parities=parities,
            alternative=alternative,
        )
    differences = {t: -eta.exps[t] for t in members}
    parity = next(iter(parities.values()))
    exps: dict[str, int] = {}
    for t, d in differences.items():
        m_t = (parity + d) // 2
        exps[t] = m_t
        exps[model.conj[t]] = parity - m_t
    psi = InfinityType(exps, model)
    split = AnticyclotomicSplit(
        psi=psi, kappa=kappa, phi=phi, differences=differences, weight_parity=parity
    )
    # Soundness: recombining must reproduce the conjugated input exactly.
    if tilde_alpha_infinity(psi, kappa, phi) != eta.conjugated_character():
        raise NoSolutionError("the split does not reproduce the conjugated character")
    return split


def solvable_cm_types(eta: InfinityType) -> list[CMType]:
    """All CM types of the model for which the split succeeds (exhaustive)."""
    return [
        phi
        for phi in eta.model.cm_types()
        if len({eta.exps[t] % 2 for t in phi.members}) <= 1
    ]


class Splittability(enum.Enum):
    SOLVABLE_FIXED_PHI = "solvable_fixed_phi"
    SOLVABLE_SOME_PHI = "solvable_some_phi"
    UNSOLVABLE = "unsolvable"


def splittability(eta: InfinityType, phi: CMType | None = None) -> Splittability:
    """Classify solvability of the split, optionally relative to a fixed CM type.

    An odd-weight character always splits after adjusting the CM type; an
    even-weight character splits for some CM type exactly when all stored
    exponents share one parity.  With ``phi`` given, a finer answer is
    returned when that particular CM type already works.
    """
    omega = weight_of(eta)
    if phi is not None:
        phi.validate(eta.model)
        if len({eta.exps[t] % 2 for t in phi.members}) <= 1:
            return Splittability.SOLVABLE_FIXED_PHI
    if omega % 2 != 0:
        return Splittability.SOLVABLE_SOME_PHI
    if len({m % 2 for m in eta.exps.values()}) <= 1:
        return Splittability.SOLVABLE_SOME_PHI
    return Splittability.UNSOLVABLE
