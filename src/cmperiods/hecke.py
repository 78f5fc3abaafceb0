"""Infinity types of algebraic Hecke characters over a CM-field model.

An infinity type is stored as the exponent family (m_t) over all
embeddings, meaning the character behaves like z^{-m_t} zbar^{-m_tbar}
at the place of t.  That single convention is used everywhere: the
exponent of z itself is the negated stored value, and silently mixing
the two conventions is the classic pitfall in this corner of the subject.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cmfield import CMFieldModel, invert
from .errors import PreconditionError


@dataclass(frozen=True, eq=True)
class InfinityType:
    """Exponent family of an algebraic Hecke character at infinity."""

    exps: dict[str, int]
    model: CMFieldModel

    def __post_init__(self):
        if set(self.exps) != set(self.model.embeddings):
            raise PreconditionError("infinity type must assign an exponent to every embedding")


def conjugate_infinity_type(t: InfinityType, g: str) -> InfinityType:
    """Transport by a group element: new exponent at x is the old one at g^{-1}(x)."""
    ginv = invert(t.model.element(g))
    return InfinityType({x: t.exps[ginv[x]] for x in t.exps}, t.model)
