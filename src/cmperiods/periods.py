"""Formal period monomials and the relation lattice they are compared in.

Every multiplicative period identity in scope is mechanized the same way:
both sides become integer exponent vectors over a declared generator set,
and equivalence up to a rationality level means the difference vector,
with the generators trivial at that level projected out, lies in the
integer lattice spanned by the declared relations.  Square-root
granularity is built in for 2*pi*i and the discriminant so that every
half-integer exponent in the printed formulas is an integer internally.
"""

from __future__ import annotations

import enum
import functools
from typing import NamedTuple

from .cmfield import CMFieldModel, CMType
from .errors import NotCriticalError, PreconditionError
from .hodge import InstanceAnalysis
from .lattice import IntegerLattice


class Level(enum.Enum):
    """Rationality level at which two period expressions are compared.

    Q is the finest level in scope (coefficient-field units are invisible
    by construction, so the E level coincides with it); FGAL additionally
    trivializes everything lying in the normal closure of the base field.
    """

    Q = 1
    FGAL = 2


class PeriodGenerator:
    """One formal multiplicative generator, identified by kind and tags.

    Interned: each ``(kind, args)`` has exactly one object, built with its
    name and canonical sort key, so equality and hashing are by identity
    and sorting a monomial reads a stored key.
    """

    __slots__ = ("kind", "args", "_name", "_sort_key")
    _interned: dict[tuple, "PeriodGenerator"] = {}

    def __new__(cls, kind: str, args: tuple = ()) -> "PeriodGenerator":
        gen = cls._interned.get((kind, args))
        if gen is None:
            gen = cls._interned[kind, args] = object.__new__(cls)
            init = functools.partial(object.__setattr__, gen)
            init("kind", kind)
            init("args", args)
            init("_name", _generator_name(kind, args))
            init("_sort_key", (kind, tuple(str(a) for a in args)))
        return gen

    def __setattr__(self, name, value):
        raise AttributeError(f"PeriodGenerator is immutable; cannot set {name!r}")

    def __reduce__(self):
        return PeriodGenerator, (self.kind, self.args)

    def __repr__(self) -> str:
        return f"PeriodGenerator(kind={self.kind!r}, args={self.args!r})"

    def name(self) -> str:
        return self._name

    def sort_key(self) -> tuple:
        return self._sort_key


def _generator_name(kind: str, args: tuple) -> str:
    if not args:
        return kind

    def fmt(a):
        if isinstance(a, tuple):
            return "|".join(f"{t}:{c}" for t, c in a)
        return str(a)

    return f"{kind}({','.join(fmt(a) for a in args)})"


def _pair_sort_key(pair: tuple[PeriodGenerator, int]) -> tuple:
    return pair[0]._sort_key


TWO_PI_I_HALF = PeriodGenerator("two-pi-i^1/2")
D_HALF = PeriodGenerator("disc^1/2")
IMAG_PRODUCT = PeriodGenerator("imag-product")  # product of a purely imaginary element's images
QUAD_PERIOD = PeriodGenerator("quad-char-period")  # period of the quadratic-character motive
CM_TYPE_SIGN = PeriodGenerator("cm-type-sign")

# The representation and characters of the compared identities, named once.
# Generator names print these tags and order the residual, so they are part
# of the report bytes.
PI = "Pi"
PSI = "psi"
ALPHA = "alpha"
ETA = "eta"  # the rank-1 motive of the character
ETA_DUAL = "eta-dual"
ETA_DUAL_C = f"{ETA_DUAL}^c"  # eta-dual precomposed with complex conjugation

GAUSS_SUM = PeriodGenerator("gauss-sum", (ALPHA,))
FINITE_ORDER_PERIOD = PeriodGenerator("finite-order-period", (ALPHA,))


def cm_period(char: str, emb: str) -> PeriodGenerator:
    return PeriodGenerator("cm-period", (char, emb))


def auto_period(rep: str, signature: tuple[tuple[str, int], ...]) -> PeriodGenerator:
    return PeriodGenerator("auto-period", (rep, signature))


def motivic_q(tag: str, index: int, emb: str) -> PeriodGenerator:
    return PeriodGenerator("motivic-period", (tag, index, emb))


def petersson_period(rep: str) -> PeriodGenerator:
    return PeriodGenerator("petersson-period", (rep,))


def doubling_pairing(rep: str) -> PeriodGenerator:
    return PeriodGenerator("doubling-pairing", (rep,))


def arch_zeta(m: int) -> PeriodGenerator:
    return PeriodGenerator("arch-zeta", (m,))


def opaque(name: str) -> PeriodGenerator:
    return PeriodGenerator("opaque", (name,))


Q_PI_PSI_ALPHA = opaque(f"Q({PI},{PSI},{ALPHA})")
CM_PERIOD_PSI = cm_period(PSI, "@x")
CM_PERIOD_PSI_ALPHA_INV = cm_period(f"{PSI}^-1*{ALPHA}^-1", "@xbar")


FGAL_TRIVIAL_KINDS = frozenset(
    {"disc^1/2", "imag-product", "quad-char-period", "cm-type-sign", "arch-zeta"}
)


def trivial_at(gen: PeriodGenerator, level: Level) -> bool:
    """Whether ``gen`` is a unit at ``level``: only FGAL trivializes generators."""
    return level is Level.FGAL and gen.kind in FGAL_TRIVIAL_KINDS


class PeriodMonomial(NamedTuple):
    """Finite integer exponent vector over period generators, in canonical form."""

    exps: tuple[tuple[PeriodGenerator, int], ...] = ()

    @classmethod
    def from_dict(cls, d: dict[PeriodGenerator, int]) -> "PeriodMonomial":
        items = tuple(sorted(((g, e) for g, e in d.items() if e != 0), key=_pair_sort_key))
        return cls(items)

    def exponent(self, gen: PeriodGenerator) -> int:
        return dict(self.exps).get(gen, 0)

    def generators(self) -> tuple[PeriodGenerator, ...]:
        return tuple(g for g, _ in self.exps)

    def is_one(self) -> bool:
        return not self.exps

    def describe(self) -> str:
        if not self.exps:
            return "1"
        parts = sorted((g.name(), e) for g, e in self.exps)
        return " * ".join(f"{name}^{e}" for name, e in parts)


ONE = PeriodMonomial()


def mono_mul(*xs: PeriodMonomial) -> PeriodMonomial:
    acc: dict[PeriodGenerator, int] = {}
    for x in xs:
        for g, e in x.exps:
            acc[g] = acc.get(g, 0) + e
    return PeriodMonomial.from_dict(acc)


def mono_inv(x: PeriodMonomial) -> PeriodMonomial:
    return PeriodMonomial.from_dict({g: -e for g, e in x.exps})


def mono_pow(x: PeriodMonomial, k: int) -> PeriodMonomial:
    return PeriodMonomial.from_dict({g: k * e for g, e in x.exps})


def mono(*pairs: tuple[PeriodGenerator, int]) -> PeriodMonomial:
    return PeriodMonomial.from_dict(dict(pairs))


class Relation(NamedTuple):
    """A monomial declared trivial, with its identity tag."""

    vector: PeriodMonomial
    tag: str


class RelationLattice:
    """Declared relations at a level, and the one reducer that decides membership in them.

    The generators trivial at the level are projected out, not spanned by
    unit rows, so the reducer spans only the relations' other generators.
    A difference's entry on a trivial generator is dropped, and one on a
    generator in no relation is residual as it stands.  The reducer is
    built on first use and kept on the lattice.  Each comparator point is
    kept too, keyed by ``(n, signature, m)``, so a decided point is not
    assembled or reduced again; it is the only comparison kept.
    """

    def __init__(self, level: Level, relations: tuple[Relation, ...]):
        self.level = level
        self.relations = relations
        self._points: dict = {}

    def tags(self) -> tuple[str, ...]:
        return tuple(r.tag for r in self.relations)

    def with_relations(self, extra: tuple[Relation, ...]) -> "RelationLattice":
        return RelationLattice(level=self.level, relations=self.relations + extra)

    @functools.cached_property
    def reducer(self) -> tuple[dict[PeriodGenerator, int], IntegerLattice]:
        """The index of the relations' generators not trivial at the level,
        in sorted order, and the lattice of the relations projected onto
        them, one row per relation."""
        level = self.level
        gens = {g for r in self.relations for g, _ in r.vector.exps if not trivial_at(g, level)}
        universe = tuple(sorted(gens, key=PeriodGenerator.sort_key))
        index = {g: i for i, g in enumerate(universe)}
        lattice = IntegerLattice(len(universe))
        for r in self.relations:
            exps = dict(r.vector.exps)
            lattice.add([exps.get(g, 0) for g in universe])
        return index, lattice


@functools.lru_cache(maxsize=None)
def standard_relations(level: Level) -> RelationLattice:
    """The context-free relation lattice at the requested level, built once per level.

    Relations that depend on an instance belong to the comparison that
    uses them: the comparator adds :func:`character_relations` and,
    conditionally, :func:`period_dictionary`; :func:`standard_vs_refined`
    adds :func:`pairing_relations`.
    """
    rels = [
        Relation(mono((CM_TYPE_SIGN, 2)), "cm-type-sign-squared"),
        Relation(
            mono((QUAD_PERIOD, 1), (IMAG_PRODUCT, -1), (D_HALF, -1)),
            "quad-period-factorization",
        ),
        Relation(
            mono((FINITE_ORDER_PERIOD, 1), (D_HALF, -1), (GAUSS_SUM, -1)),
            "finite-order-period-factorization",
        ),
    ]
    for g in (CM_TYPE_SIGN, D_HALF, IMAG_PRODUCT, QUAD_PERIOD):
        if trivial_at(g, level):
            rels.append(Relation(mono((g, 1)), f"rationality:{g.name()}"))
    return RelationLattice(level=level, relations=tuple(rels))


def period_dictionary(signature: tuple[tuple[str, int], ...]) -> Relation:
    """The conditional dictionary between the automorphic period and motivic periods."""
    vec = {auto_period(PI, signature): 1}
    for t, c in signature:
        vec[motivic_q(PI, c, t)] = vec.get(motivic_q(PI, c, t), 0) - 1
    return Relation(PeriodMonomial.from_dict(vec), "period-dictionary")


def character_relations(conj_pairs: tuple[tuple[str, str], ...]) -> tuple[Relation, ...]:
    """The character's motivic periods as CM periods, at each place ``t`` of
    the CM type, given as the pairs ``(t, conj(t))``."""
    rels: list[Relation] = []
    for t, tb in conj_pairs:
        rels.append(
            Relation(
                mono(
                    (motivic_q(ETA, 0, t), 1),
                    (cm_period(ETA_DUAL_C, t), -1),
                ),
                "motivic-q0-of-character",
            )
        )
        rels.append(
            Relation(
                mono(
                    (motivic_q(ETA, 1, t), 1),
                    (cm_period(ETA_DUAL, t), -1),
                ),
                "motivic-q1-of-character",
            )
        )
        rels.append(
            Relation(
                mono(
                    (cm_period(ETA_DUAL_C, t), 1),
                    (cm_period(ETA_DUAL, tb), -1),
                ),
                "cm-period-conjugation",
            )
        )
    return tuple(rels)


def pairing_relations(level: Level, a0: int) -> tuple[Relation, ...]:
    """The doubling pairing: its Petersson factorization, trivial only at the
    coarser level, and its proportionality to the modified period."""
    rels: list[Relation] = []
    if level is Level.FGAL:
        rels.append(
            Relation(
                mono(
                    (doubling_pairing(PI), 1),
                    (TWO_PI_I_HALF, -4 * a0),
                    (petersson_period(PI), -1),
                    (CM_PERIOD_PSI, 1),
                    (CM_PERIOD_PSI_ALPHA_INV, 1),
                ),
                "petersson-factorization",
            )
        )
    rels.append(
        Relation(
            mono(
                (doubling_pairing(PI), 1),
                (Q_PI_PSI_ALPHA, 1),
            ),
            "pairing-proportionality",
        )
    )
    return tuple(rels)


class EquivalenceResult(NamedTuple):
    equivalent: bool
    residual: PeriodMonomial


def _quotient(x: PeriodMonomial, y: PeriodMonomial) -> dict[PeriodGenerator, int]:
    """The exponents of x / y, with any cancelled generator kept at zero."""
    acc = dict(x.exps)
    for g, e in y.exps:
        acc[g] = acc.get(g, 0) - e
    return acc


def equivalent_mod(x: PeriodMonomial, y: PeriodMonomial, lat: RelationLattice) -> EquivalenceResult:
    """Decide x ~ y modulo the lattice; the residual is zero exactly on success.

    An entry of x / y on a generator trivial at the lattice level is
    dropped, whether or not a relation names it.  The entries on the
    reducer's generators are reduced by it, and an entry on any other
    generator is residual as it stands.  Nothing is kept on ``lat``.
    """
    index, reducer = lat.reducer
    row = [0] * len(index)
    residual: dict[PeriodGenerator, int] = {}
    for g, e in _quotient(x, y).items():
        if g in index:
            row[index[g]] = e
        elif not trivial_at(g, lat.level):
            residual[g] = e
    residual.update((g, e) for g, e in zip(index, reducer.reduce(row)) if e)
    result = PeriodMonomial.from_dict(residual)
    return EquivalenceResult(equivalent=result.is_one(), residual=result)


# Assembled sides of the identities in scope.


def normalizing_factor_closed(n: int, m: int, kappa: int, d_plus: int) -> PeriodMonomial:
    """Closed form of the normalizing L-value product in the doubling identity.

    (2 pi i)^{d((2m+kappa)n - n(n-1)/2)} * disc^{ceil(n/2)/2}
    * quad-period^{floor(n/2)} * gauss-sum^{n}.
    """
    return mono(
        (TWO_PI_I_HALF, 2 * d_plus * ((2 * m + kappa) * n - n * (n - 1) // 2)),
        (D_HALF, (n + 1) // 2),
        (QUAD_PERIOD, n // 2),
        (GAUSS_SUM, n),
    )


def normalizing_factor_product(
    n: int, m: int, kappa: int, d_plus: int, substitute: bool = True
) -> PeriodMonomial:
    """Same factor built term by term from its n constituent L-values.

    Even-indexed terms contribute (2 pi i)^{d(2m-j+kappa)} times the
    finite-order-character period; odd-indexed terms additionally carry
    the quadratic-character period and an inverse square-root
    discriminant.  With ``substitute`` the finite-order period is replaced
    by disc^{1/2} times the Gauss sum.
    """
    acc: dict[PeriodGenerator, int] = {}

    def bump(g: PeriodGenerator, e: int):
        acc[g] = acc.get(g, 0) + e

    for j in range(n):
        bump(TWO_PI_I_HALF, 2 * d_plus * (2 * m - j + kappa))
        bump(FINITE_ORDER_PERIOD, 1)
        if j % 2 == 1:
            bump(QUAD_PERIOD, 1)
            bump(D_HALF, -1)
    if substitute:
        e = acc.pop(FINITE_ORDER_PERIOD, 0)
        bump(D_HALF, e)
        bump(GAUSS_SUM, e)
    return PeriodMonomial.from_dict(acc)


def standard_lvalue_period(n: int, m: int, d_plus: int, *, variant: str = "thm") -> PeriodMonomial:
    """Period side predicted for the twisted standard L-value at m.

    The discriminant exponent is printed in two variants in the source
    formulas; both are implemented and selected by ``variant``:
    ``thm`` uses floor(n/2)/2 and ``intro`` uses floor((n+1)/2)/2.
    """
    if variant == "thm":
        d_exp = n // 2
    elif variant == "intro":
        d_exp = (n + 1) // 2
    else:
        raise PreconditionError(f"unknown discriminant-exponent variant {variant!r}")
    return mono(
        (TWO_PI_I_HALF, 2 * d_plus * (m * n - n * (n - 1) // 2)),
        (D_HALF, d_exp),
        (QUAD_PERIOD, n // 2),
        (Q_PI_PSI_ALPHA, 1),
        (arch_zeta(m), -1),
    )


def refined_lvalue_period(n: int, m: int, d_plus: int, a0: int) -> PeriodMonomial:
    """Refined period side with CM periods split out of the modified period."""
    return mono(
        (TWO_PI_I_HALF, 2 * d_plus * (m * n - n * (n - 1) // 2) - 4 * a0),
        (IMAG_PRODUCT, n // 2),
        (D_HALF, n),
        (CM_TYPE_SIGN, m * n),
        (petersson_period(PI), -1),
        (CM_PERIOD_PSI, 1),
        (CM_PERIOD_PSI_ALPHA_INV, 1),
    )


def rankin_lvalue_period(
    model: CMFieldModel,
    phi: CMType,
    n: int,
    m: int,
    signature: dict[str, int],
) -> PeriodMonomial:
    """Period side for the rank-n times rank-1 Rankin-Selberg value at m - n/2.

    (2 pi i)^{(m-n/2) n d} * imag^{floor(n/2)} * (disc^{1/2})^n * sign^{mn}
    times the signature-indexed automorphic period and one CM-period
    factor per place, split by the signature count.
    """
    d_plus = model.degree_plus
    sig_items = tuple(sorted(signature.items()))
    vec: dict[PeriodGenerator, int] = {
        TWO_PI_I_HALF: (2 * m - n) * n * d_plus,
        IMAG_PRODUCT: n // 2,
        D_HALF: n,
        CM_TYPE_SIGN: m * n,
        auto_period(PI, sig_items): 1,
    }
    for t in phi.sorted_members():
        c = signature[t]
        vec[cm_period(ETA_DUAL, t)] = vec.get(cm_period(ETA_DUAL, t), 0) + c
        tb = model.conj[t]
        vec[cm_period(ETA_DUAL, tb)] = vec.get(cm_period(ETA_DUAL, tb), 0) + (n - c)
    return PeriodMonomial.from_dict(vec)


def deligne_period_prediction(analysis: InstanceAnalysis, m_crit: int) -> PeriodMonomial:
    """Conjectural period side of the motivic L-value at a critical integer.

    (2 pi i)^{m n d} times the plus or minus period determinant of the
    restriction of scalars of the tensor, the sign chosen by the parity
    of the critical integer; the minus determinant differs from the plus
    one by the n-th power of the CM-type sign.
    """
    if m_crit not in analysis.window:
        raise NotCriticalError(f"{m_crit} is not critical for the tensor datum")
    n = analysis.ap.n
    d_plus = analysis.ap.model.degree_plus
    vec: dict[PeriodGenerator, int] = {
        TWO_PI_I_HALF: 2 * m_crit * n * d_plus - d_plus * n * (n - 1),
        IMAG_PRODUCT: n // 2,
        D_HALF: n,
    }
    if m_crit % 2 != 0:
        vec[CM_TYPE_SIGN] = n
    for t in analysis.ap.phi().sorted_members():
        c = analysis.counts_hodge[t]
        vec[motivic_q(PI, c, t)] = vec.get(motivic_q(PI, c, t), 0) + 1
        vec[motivic_q(ETA, 0, t)] = vec.get(motivic_q(ETA, 0, t), 0) + (n - c)
        vec[motivic_q(ETA, 1, t)] = vec.get(motivic_q(ETA, 1, t), 0) + c
    return PeriodMonomial.from_dict(vec)


def standard_vs_refined(
    n: int,
    m: int,
    d_plus: int,
    a0: int,
    *,
    variant: str = "thm",
    level: Level = Level.FGAL,
) -> EquivalenceResult:
    """Compare the standard period side with its refined CM-period expansion.

    Closes at the coarser level through the pairing proportionality and the
    Petersson factorization; at the finer level the residual stays visible,
    and with the ``thm`` discriminant variant it additionally contains one
    stray square-root discriminant in odd rank.
    """
    main = standard_lvalue_period(n, m, d_plus, variant=variant)
    refined = refined_lvalue_period(n, m, d_plus, a0)
    return equivalent_mod(main, refined, _pairing_lattice(level, a0))


@functools.lru_cache(maxsize=256)
def _pairing_lattice(level: Level, a0: int) -> RelationLattice:
    """The standard family and the pairing relations at ``a0``, built once per key."""
    return standard_relations(level).with_relations(pairing_relations(level, a0))


# The end-to-end comparator.


@functools.lru_cache(maxsize=256)
def _comparator_lattice(
    level: Level,
    dictionary_signature: tuple[tuple[str, int], ...] | None,
    conj_pairs: tuple[tuple[str, str], ...],
) -> RelationLattice:
    """The comparator's relations, built once per key: the standard family,
    the period dictionary at ``dictionary_signature`` (none when it is
    None) and the character family over ``conj_pairs``."""
    dictionary = () if dictionary_signature is None else (period_dictionary(dictionary_signature),)
    return standard_relations(level).with_relations(dictionary + character_relations(conj_pairs))


class PointComparison(NamedTuple):
    m: int
    equivalent: bool
    residual: PeriodMonomial
    pi_half_expected_shift: int
    pi_half_observed_shift: int
    printed_pi_exponent_integral: bool


class CompareReport(NamedTuple):
    points: tuple[PointComparison, ...]
    all_equivalent: bool
    vacuous: bool
    signature: tuple[tuple[str, int], ...]
    identity_tags: tuple[str, ...]


def compare_automorphic_motivic(
    analysis: InstanceAnalysis,
    *,
    level: Level = Level.FGAL,
    tate: bool = True,
) -> CompareReport:
    """Compare the Rankin-Selberg period side with the motivic prediction.

    Both sides are assembled verbatim at every admissible critical
    integer.  The two printed formulas evaluate their L-functions at
    points offset by one half, which shifts the transcendental exponent
    by exactly n*d half-units; that derived shift is checked and reported
    explicitly, never folded away.  The verdict is equivalence of
    everything else modulo the declared relations.

    Each point is kept on the lattice keyed by ``(n, signature, m)``.  The
    lattice's key fixes the level, the dictionary and the conjugation
    pairs, hence the CM type, its conjugates and ``d_plus``; both sides
    read nothing else but ``n``, the signature counts and ``m``.
    """
    n = analysis.ap.n
    model = analysis.model
    phi = analysis.phi()
    d_plus = model.degree_plus
    if analysis.counts_arch != analysis.counts_hodge:
        raise PreconditionError("signature counts disagree between the two dictionaries")
    sig_items = tuple(sorted(analysis.counts_arch.items()))
    lat = _comparator_lattice(
        level,
        sig_items if tate else None,
        tuple((t, model.conj[t]) for t in phi.sorted_members()),
    )

    expected_shift = -n * d_plus  # half-unit offset between the two evaluation points
    comparisons = []
    for m in analysis.admissible:
        point = lat._points.get((n, sig_items, m))
        if point is None:
            auto = rankin_lvalue_period(model, phi, n, m, analysis.counts_arch)
            mot = deligne_period_prediction(analysis, m)
            diff = _quotient(auto, mot)
            observed = diff.get(TWO_PI_I_HALF, 0)
            diff[TWO_PI_I_HALF] = observed - expected_shift
            result = equivalent_mod(PeriodMonomial.from_dict(diff), ONE, lat)
            point = lat._points[n, sig_items, m] = PointComparison(
                m=m,
                equivalent=result.equivalent,
                residual=result.residual,
                pi_half_expected_shift=expected_shift,
                pi_half_observed_shift=observed,
                printed_pi_exponent_integral=((2 * m - n) * n * d_plus) % 2 == 0,
            )
        comparisons.append(point)
    return CompareReport(
        points=tuple(comparisons),
        all_equivalent=all(c.equivalent for c in comparisons),
        vacuous=not comparisons,
        signature=sig_items,
        identity_tags=lat.tags(),
    )
