"""Combinatorial models of CM-field embedding sets.

A CM field is modelled by its finite set of complex embeddings together
with a fixed-point-free conjugation involution, a finite group of
permutations commuting with conjugation, and CM types (sections of the
conjugation pairing).  Everything downstream — conjugated signatures,
conjugated weights, displacement signs — consumes only this permutation
data, so no actual number fields appear anywhere.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import cached_property
from typing import NamedTuple

from .errors import (
    IllPosedModelError,
    InvalidCMTypeError,
    InvalidModelError,
    PreconditionError,
    UnreachablePointError,
)

Perm = dict[str, str]


def compose(outer: Perm, inner: Perm) -> Perm:
    """Composite permutation x -> outer[inner[x]]."""
    return {x: outer[inner[x]] for x in inner}


def invert(perm: Perm) -> Perm:
    return {v: k for k, v in perm.items()}


def _is_permutation(perm: Perm, domain: tuple[str, ...]) -> bool:
    return set(perm) == set(domain) and set(perm.values()) == set(domain)


class CMFieldModel(namedtuple("CMFieldModel", "embeddings conj group")):
    """Embedding set with conjugation and a finite commuting group action.

    ``group`` maps element names to permutations of ``embeddings``.  The
    named identity element is looked up by its permutation; the group is
    required to be closed under composition and inverses so that
    displacement-sign families are well posed.

    No ``__slots__``: the cached ``_names`` lives in the instance ``__dict__``.
    """

    def __new__(cls, embeddings: tuple[str, ...], conj: Perm, group: dict[str, Perm]):
        # Built first: the closure checks below read ``self._names``.
        self = super().__new__(cls, embeddings, conj, group)
        emb = self.embeddings
        if len(set(emb)) != len(emb):
            raise InvalidModelError("duplicate embedding names")
        if len(emb) % 2 != 0:
            raise InvalidModelError("embedding set must have even size")
        if not _is_permutation(self.conj, emb):
            raise InvalidModelError("conj is not a permutation of the embeddings")
        for t in emb:
            if self.conj[t] == t:
                raise InvalidModelError(f"conj fixes {t!r}; conjugation must be fixed-point free")
            if self.conj[self.conj[t]] != t:
                raise InvalidModelError("conj is not an involution")
        if not self.group:
            raise InvalidModelError("group must contain at least one element")
        for name, perm in self.group.items():
            if not _is_permutation(perm, emb):
                raise InvalidModelError(f"group element {name!r} is not a permutation")
            for t in emb:
                if perm[self.conj[t]] != self.conj[perm[t]]:
                    raise InvalidModelError(f"group element {name!r} does not commute with conj")
        # Closure and inverses; with these, every coset computation below is total.
        for g, h in itertools.product(self.group.values(), repeat=2):
            if self._key(compose(g, h)) not in self._names:
                raise InvalidModelError("group is not closed under composition")
        for name, perm in self.group.items():
            if self._key(invert(perm)) not in self._names:
                raise InvalidModelError(f"group element {name!r} has no inverse in the model")
        return self

    @staticmethod
    def _key(perm: Perm) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(perm.items()))

    @cached_property
    def _names(self) -> dict[tuple[tuple[str, str], ...], str]:
        """Each element's permutation key, with the first name listed for it."""
        return {self._key(p): n for n, p in reversed(self.group.items())}

    @property
    def degree_plus(self) -> int:
        return len(self.embeddings) // 2

    def element(self, name: str) -> Perm:
        try:
            return self.group[name]
        except KeyError:
            raise PreconditionError(f"unknown group element {name!r}") from None

    def name_of(self, perm: Perm) -> str:
        try:
            return self._names[self._key(perm)]
        except KeyError:
            raise PreconditionError("permutation is not a group element of the model") from None

    def inverse_name(self, name: str) -> str:
        return self.name_of(invert(self.element(name)))

    def compose_names(self, outer: str, inner: str) -> str:
        return self.name_of(compose(self.element(outer), self.element(inner)))

    def _conjugate_pairs(self) -> list[tuple[str, str]]:
        """Each conjugate pair once, as ``(t, conj t)`` with ``t`` its first-listed member."""
        pairs = []
        seen: set[str] = set()  # the second members; the embeddings are distinct
        for t in self.embeddings:
            if t not in seen:
                seen.add(self.conj[t])
                pairs.append((t, self.conj[t]))
        return pairs

    def canonical_cm_type(self) -> "CMType":
        """The CM type taking the first-listed member of each conjugate pair."""
        return CMType(frozenset([t for t, _ in self._conjugate_pairs()]))

    def cm_types(self):
        """All CM types of the model, in a deterministic order."""
        for choice in itertools.product(*self._conjugate_pairs()):
            yield CMType(frozenset(choice))


class CMType(NamedTuple):
    """A choice of one embedding from each conjugate pair."""

    members: frozenset[str]

    def validate(self, model: CMFieldModel) -> None:
        unknown = sorted(self.members - model.conj.keys())
        if unknown:
            raise InvalidCMTypeError(f"{unknown[0]!r} is not an embedding of the model")
        conj_members = {model.conj[t] for t in self.members}
        if self.members & conj_members:
            raise InvalidCMTypeError("CM type contains a conjugate pair")
        if self.members | conj_members != set(model.embeddings):
            raise InvalidCMTypeError("CM type does not cover every conjugate pair")

    def sorted_members(self) -> tuple[str, ...]:
        return tuple(sorted(self.members))


class EmbFamilyModel(namedtuple("EmbFamilyModel", "points base action")):
    """A finite pointed set carrying the model group's action.

    Stands in for a family of coefficient-field embeddings: ``action``
    maps each group-element name to a permutation of ``points``.  The
    base point anchors the coset structure; two elements may reach the
    same point, and consumers must verify sign coherence explicitly.
    """

    __slots__ = ()

    def validate(self, model: CMFieldModel) -> None:
        if self.base not in self.points:
            raise InvalidModelError("base point is not in the point set")
        if set(self.action) != set(model.group):
            raise InvalidModelError("action must name exactly the model's group elements")
        for name, perm in self.action.items():
            if not _is_permutation(perm, self.points):
                raise InvalidModelError(f"action of {name!r} is not a permutation of the points")
        # Action compatibility: composing two named actions realizes the
        # action of some element whose embedding permutation matches.
        key = CMFieldModel._key
        realized = {(key(model.element(k)), key(self.action[k])) for k in model.group}
        for g, h in itertools.product(model.group, repeat=2):
            comp_emb = key(compose(model.element(g), model.element(h)))
            comp_pts = key(compose(self.action[g], self.action[h]))
            if (comp_emb, comp_pts) not in realized:
                raise InvalidModelError(
                    f"composite of {g!r} and {h!r} is not realized by any named element"
                )


def _image_and_sign(model: CMFieldModel, phi: CMType, g: str) -> tuple[frozenset[str], int]:
    """g(phi) and (-1)**|phi minus g(phi)|, for a CM type already known to be valid."""
    perm = model.element(g)
    image = frozenset(perm[t] for t in phi.members)
    return image, -1 if len(phi.members - image) % 2 else 1


def conjugate_cm_type(model: CMFieldModel, phi: CMType, g: str) -> CMType:
    """Image CM type {g(t) for t in phi}; valid because g commutes with conj."""
    phi.validate(model)
    return CMType(_image_and_sign(model, phi, g)[0])


def displacement_sign(model: CMFieldModel, phi: CMType, g: str) -> int:
    """(-1)**|phi minus g(phi)|, the sign measuring how far g moves the CM type."""
    phi.validate(model)
    return _image_and_sign(model, phi, g)[1]


class InvarianceReport(NamedTuple):
    """One CM type's sign family, its stabilizer, and where the signs move."""

    phi: CMType
    signs: dict[str, int]
    stabilizer: tuple[str, ...]
    failures: tuple[tuple[str, str], ...]  # (group element, point) counterexamples


def displacement_sign_invariance(
    model: CMFieldModel, fam: EmbFamilyModel
) -> tuple[InvarianceReport, ...]:
    """Sign family and stabilizer invariance for every CM type, in ``cm_types()`` order.

    The sign at a family point is that of any group element reaching it
    from the base; every point must be reachable and every element
    reaching it must give the same sign.  The report lists each
    (g, rho) with g stabilizing the CM type and sign(g . rho) != sign(rho).
    """
    fam.validate(model)
    reaching: dict[str, list[str]] = {rho: [] for rho in fam.points}
    for g in model.group:
        reaching[fam.action[g][fam.base]].append(g)
    reports = []
    for phi in model.cm_types():
        # g(phi) once per element (phi comes from the model, so it is valid):
        # the sign and the stabilizer both read it.
        moved = {g: _image_and_sign(model, phi, g) for g in model.group}
        signs: dict[str, int] = {}
        for rho, elements in reaching.items():
            if not elements:
                raise UnreachablePointError(f"no group element reaches point {rho!r}")
            values = {moved[g][1] for g in elements}
            if len(values) > 1:
                raise IllPosedModelError(
                    f"point {rho!r} is reached with both signs; the family is ill posed"
                )
            signs[rho] = values.pop()
        stabilizer = tuple(g for g in sorted(model.group) if moved[g][0] == phi.members)
        failures = tuple(
            (g, rho) for g in stabilizer for rho in fam.points if signs[fam.action[g][rho]] != signs[rho]
        )
        reports.append(InvarianceReport(phi, signs, stabilizer, failures))
    return tuple(reports)


def pull_back(model: CMFieldModel, data: dict, g: str, dual) -> dict:
    """Pull per-place data back along g, on the same CM type.

    ``data`` is keyed by a CM type of ``model``, which the caller has
    validated.  The value at t is the value at g(t); where g(t) leaves the
    CM type, it is ``dual`` of the value at conj(g(t)).
    """
    perm = model.element(g)
    return {
        t: data[perm[t]] if perm[t] in data else dual(data[model.conj[perm[t]]])
        for t in data
    }


def conjugate_signature(
    model: CMFieldModel, sig: dict[str, tuple[int, int]], g: str
) -> dict[str, tuple[int, int]]:
    """Pull back a signature along g; (r, s) becomes (s, r) where a place crosses.

    ``sig`` is given on a CM type (its key set); the result is returned on
    the same CM type.
    """
    CMType(frozenset(sig)).validate(model)
    return pull_back(model, sig, g, lambda pair: pair[::-1])


# Ready-made model factories used by tests, scripts, and scenario files.


def cyclic_model(d: int) -> CMFieldModel:
    """2d embeddings on a cycle; conjugation is the half-turn, group is the full cycle."""
    if d < 1:
        raise InvalidModelError("need at least one conjugate pair")
    emb = [f"t{i}" for i in range(1, d + 1)] + [f"c{i}" for i in range(1, d + 1)]
    cycle = {emb[i]: emb[(i + 1) % (2 * d)] for i in range(2 * d)}
    conj = {emb[i]: emb[(i + d) % (2 * d)] for i in range(2 * d)}
    group: dict[str, Perm] = {}
    current = {t: t for t in emb}
    for k in range(2 * d):
        group[f"g{k}"] = dict(current)
        current = compose(cycle, current)
    return CMFieldModel(embeddings=tuple(emb), conj=conj, group=group)


def klein_model() -> CMFieldModel:
    """Four embeddings with the Klein four-group acting."""
    emb = ("t1", "t2", "c1", "c2")
    conj = {"t1": "c1", "c1": "t1", "t2": "c2", "c2": "t2"}
    swap = {"t1": "t2", "t2": "t1", "c1": "c2", "c2": "c1"}
    ident = {t: t for t in emb}
    group = {
        "e": ident,
        "c": dict(conj),
        "s": swap,
        "sc": compose(swap, conj),
    }
    return CMFieldModel(embeddings=emb, conj=conj, group=group)


def dihedral_model(d: int) -> CMFieldModel:
    """Dihedral group of order 4d acting on 2d embeddings; conjugation is the half-turn."""
    base = cyclic_model(d)
    emb = base.embeddings
    n = len(emb)
    refl = {emb[i]: emb[(-i) % n] for i in range(n)}
    group = dict(base.group)
    for k in range(n):
        group[f"r{k}"] = compose(base.group[f"g{k}"], refl)
    return CMFieldModel(embeddings=emb, conj=base.conj, group=group)


def regular_family(model: CMFieldModel) -> EmbFamilyModel:
    """Family whose points are the group elements with the left-translation action."""
    names = tuple(sorted(model.group))
    ident = model.name_of({t: t for t in model.embeddings})
    action = {
        g: {h: model.compose_names(g, h) for h in names}
        for g in names
    }
    return EmbFamilyModel(points=names, base=ident, action=action)
