"""Formal period monomials and the relation lattice they are compared in.

Every multiplicative period identity in scope is mechanized the same way:
both sides become integer exponent vectors over a declared generator set,
and equivalence up to a rationality level means the difference vector
lies in the integer lattice spanned by the declared relations plus the
unit vectors of generators trivial at that level.  Square-root
granularity is built in for 2*pi*i and the discriminant so that every
half-integer exponent in the printed formulas is an integer internally.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

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


class Rationality(enum.Enum):
    NONE = 0
    FGAL = 1
    Q = 2

    def trivial_at(self, level: Level) -> bool:
        if self is Rationality.Q:
            return True
        if self is Rationality.FGAL:
            return level is Level.FGAL
        return False


@dataclass(frozen=True, eq=True)
class PeriodGenerator:
    """One formal multiplicative generator, identified by kind and tags."""

    kind: str
    args: tuple = ()

    def name(self) -> str:
        if not self.args:
            return self.kind

        def fmt(a):
            if isinstance(a, tuple):
                return "|".join(f"{t}:{c}" for t, c in a)
            return str(a)

        return f"{self.kind}({','.join(fmt(a) for a in self.args)})"

    def sort_key(self):
        return (self.kind, tuple(str(a) for a in self.args))


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


RATIONALITY_BY_KIND: dict[str, Rationality] = {
    "disc^1/2": Rationality.FGAL,
    "imag-product": Rationality.FGAL,
    "quad-char-period": Rationality.FGAL,
    "cm-type-sign": Rationality.FGAL,
    "arch-zeta": Rationality.FGAL,
}


def rationality_of(gen: PeriodGenerator) -> Rationality:
    return RATIONALITY_BY_KIND.get(gen.kind, Rationality.NONE)


@dataclass(frozen=True, eq=True)
class PeriodMonomial:
    """Finite integer exponent vector over period generators, in canonical form."""

    exps: tuple[tuple[PeriodGenerator, int], ...] = ()

    @classmethod
    def from_dict(cls, d: dict[PeriodGenerator, int]) -> "PeriodMonomial":
        items = tuple(
            sorted(((g, e) for g, e in d.items() if e != 0), key=lambda ge: ge[0].sort_key())
        )
        return cls(items)

    def as_dict(self) -> dict[PeriodGenerator, int]:
        return dict(self.exps)

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


@dataclass(frozen=True, eq=True)
class Relation:
    """A monomial declared trivial, with its identity tag."""

    vector: PeriodMonomial
    tag: str


@dataclass(frozen=True, eq=True)
class RelationLattice:
    level: Level
    relations: tuple[Relation, ...]

    def tags(self) -> tuple[str, ...]:
        return tuple(r.tag for r in self.relations)

    def with_relations(self, extra: tuple[Relation, ...]) -> "RelationLattice":
        return RelationLattice(level=self.level, relations=self.relations + extra)


def standard_relations(level: Level) -> RelationLattice:
    """The context-free relation lattice at the requested level.

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
        if rationality_of(g).trivial_at(level):
            rels.append(Relation(mono((g, 1)), f"rationality:{g.name()}"))
    return RelationLattice(level=level, relations=tuple(rels))


def period_dictionary(signature: tuple[tuple[str, int], ...]) -> Relation:
    """The conditional dictionary between the automorphic period and motivic periods."""
    vec = {auto_period(PI, signature): 1}
    for t, c in signature:
        vec[motivic_q(PI, c, t)] = vec.get(motivic_q(PI, c, t), 0) - 1
    return Relation(PeriodMonomial.from_dict(vec), "period-dictionary")


def character_relations(model: CMFieldModel, phi: CMType) -> tuple[Relation, ...]:
    """The character's motivic periods as CM periods, at each place of the CM type."""
    rels: list[Relation] = []
    for t in phi.sorted_members():
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
                    (cm_period(ETA_DUAL, model.conj[t]), -1),
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


@dataclass(frozen=True)
class EquivalenceResult:
    equivalent: bool
    residual: PeriodMonomial


@functools.lru_cache(maxsize=256)
def _reduction_lattice(
    relation_vectors: tuple[PeriodMonomial, ...],
    universe: tuple[PeriodGenerator, ...],
    level: Level,
) -> IntegerLattice:
    lat = IntegerLattice(len(universe))
    index = {g: i for i, g in enumerate(universe)}
    for vec in relation_vectors:
        row = [0] * len(universe)
        for g, e in vec.exps:
            row[index[g]] = e
        lat.add(row)
    for g, i in index.items():
        if rationality_of(g).trivial_at(level):
            row = [0] * len(universe)
            row[i] = 1
            lat.add(row)
    return lat


def equivalent_mod(
    x: PeriodMonomial, y: PeriodMonomial, lat: RelationLattice
) -> EquivalenceResult:
    """Decide x ~ y modulo the lattice; the residual is zero exactly on success.

    Unit vectors of every generator trivial at the lattice level are
    adjoined over the working generator universe, so parameterized
    trivial generators are handled uniformly.
    """
    diff = mono_mul(x, mono_inv(y))
    gens = set(diff.generators())
    for r in lat.relations:
        gens.update(r.vector.generators())
    universe = tuple(sorted(gens, key=lambda g: g.sort_key()))
    reducer = _reduction_lattice(
        tuple(r.vector for r in lat.relations), universe, lat.level
    )
    index = {g: i for i, g in enumerate(universe)}
    row = [0] * len(universe)
    for g, e in diff.exps:
        row[index[g]] = e
    residual_row = reducer.reduce(row)
    residual = PeriodMonomial.from_dict(
        {universe[i]: e for i, e in enumerate(residual_row) if e}
    )
    return EquivalenceResult(equivalent=residual.is_one(), residual=residual)


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
    lat = standard_relations(level).with_relations(pairing_relations(level, a0))
    return equivalent_mod(main, refined, lat)


# The end-to-end comparator.


@dataclass(frozen=True)
class PointComparison:
    m: int
    equivalent: bool
    residual: PeriodMonomial
    pi_half_expected_shift: int
    pi_half_observed_shift: int
    printed_pi_exponent_integral: bool


@dataclass(frozen=True)
class CompareReport:
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
    """
    n = analysis.ap.n
    model = analysis.model
    phi = analysis.phi()
    d_plus = model.degree_plus
    if analysis.counts_arch != analysis.counts_hodge:
        raise PreconditionError("signature counts disagree between the two dictionaries")
    sig_items = tuple(sorted(analysis.counts_arch.items()))

    dictionary = (period_dictionary(sig_items),) if tate else ()
    lat = standard_relations(level).with_relations(dictionary + character_relations(model, phi))

    expected_shift = -n * d_plus  # half-unit offset between the two evaluation points
    comparisons = []
    for m in analysis.admissible:
        auto = rankin_lvalue_period(model, phi, n, m, analysis.counts_arch)
        mot = deligne_period_prediction(analysis, m)
        diff = mono_mul(auto, mono_inv(mot))
        observed = diff.exponent(TWO_PI_I_HALF)
        adjusted = mono_mul(diff, mono((TWO_PI_I_HALF, -expected_shift)))
        result = equivalent_mod(adjusted, ONE, lat)
        comparisons.append(
            PointComparison(
                m=m,
                equivalent=result.equivalent,
                residual=result.residual,
                pi_half_expected_shift=expected_shift,
                pi_half_observed_shift=observed,
                printed_pi_exponent_integral=((2 * m - n) * n * d_plus) % 2 == 0,
            )
        )
    return CompareReport(
        points=tuple(comparisons),
        all_equivalent=all(c.equivalent for c in comparisons),
        vacuous=not comparisons,
        signature=sig_items,
        identity_tags=lat.tags(),
    )
