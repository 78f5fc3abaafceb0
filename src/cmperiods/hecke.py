"""Infinity types of algebraic Hecke characters over a CM-field model.

An infinity type is stored as the exponent family (m_t) over all
embeddings, meaning the character behaves like z^{-m_t} zbar^{-m_tbar}
at the place of t.  That single convention is used everywhere: the
exponent of z itself is the negated stored value, and silently mixing
the two conventions is the classic pitfall in this corner of the subject.
"""

from __future__ import annotations

from collections import namedtuple

from .cmfield import CMFieldModel, invert
from .errors import PreconditionError


class InfinityType(namedtuple("InfinityType", "exps model")):
    """Exponent family of an algebraic Hecke character at infinity."""

    __slots__ = ()

    def __new__(cls, exps: dict[str, int], model: CMFieldModel):
        if set(exps) != set(model.embeddings):
            raise PreconditionError("infinity type must assign an exponent to every embedding")
        return super().__new__(cls, exps, model)


def conjugate_infinity_type(t: InfinityType, g: str) -> InfinityType:
    """Transport by a group element: new exponent at x is the old one at g^{-1}(x)."""
    ginv = invert(t.model.element(g))
    return InfinityType({x: t.exps[ginv[x]] for x in t.exps}, t.model)
