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
from .hodge import ArchParams, InstanceAnalysis, analyze_instance, conjugate_arch_params
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


def gauss_sum(alpha: str = "alpha") -> PeriodGenerator:
    return PeriodGenerator("gauss-sum", (alpha,))


def finite_order_period(alpha: str = "alpha") -> PeriodGenerator:
    return PeriodGenerator("finite-order-period", (alpha,))


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


RATIONALITY_BY_KIND: dict[str, Rationality] = {
    "disc^1/2": Rationality.FGAL,
    "imag-product": Rationality.FGAL,
    "quad-char-period": Rationality.FGAL,
    "cm-type-sign": Rationality.FGAL,
    "arch-zeta": Rationality.FGAL,
}


def rationality_of(gen: PeriodGenerator) -> Rationality:
    return RATIONALITY_BY_KIND.get(gen.kind, Rationality.NONE)


def conjugated_tag(char: str) -> str:
    """Tag of a character precomposed with conjugation; involutive on tags."""
    return char[:-2] if char.endswith("^c") else char + "^c"


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
    """A monomial declared trivial at a level, with its identity tag."""

    vector: PeriodMonomial
    level: Level
    tag: str


@dataclass(frozen=True, eq=True)
class RelationLattice:
    level: Level
    relations: tuple[Relation, ...]

    def tags(self) -> tuple[str, ...]:
        return tuple(r.tag for r in self.relations)


@dataclass(frozen=True, eq=True)
class RelationContext:
    """Instance data needed to instantiate the context-dependent relations."""

    model: CMFieldModel | None = None
    phi: CMType | None = None
    rep: str = "Pi"
    psi: str = "psi"
    alpha: str = "alpha"
    eta_dual: str = "eta-dual"
    eta_motive: str = "eta"
    a0: int = 0
    signature: tuple[tuple[str, int], ...] | None = None

    def qpet_tag(self) -> str:
        if self.signature is None:
            return self.rep
        sig = ",".join(f"{t}:{c}" for t, c in self.signature)
        return f"{self.rep}[{sig}]"


def standard_relations(
    level: Level,
    ctx: RelationContext | None = None,
    *,
    tate: bool = False,
    include_pairing: bool = True,
) -> RelationLattice:
    """The declared relation lattice at the requested level.

    Context-free relations are always present; relations mentioning a
    representation, characters, or a CM type require ``ctx``.  The
    period-dictionary relation between automorphic and motivic periods is
    conditional and only included when ``tate`` is set.  The pairing
    family (Petersson factorization, pairing proportionality, and the
    automorphic-period definition) belongs to the standard-value chain
    and can be dropped so residuals stay in dictionary form.
    """
    rels: list[Relation] = []

    def rel(vec: PeriodMonomial, lv: Level, tag: str):
        if lv.value <= level.value:
            rels.append(Relation(vec, lv, tag))

    rel(mono((CM_TYPE_SIGN, 2)), Level.Q, "cm-type-sign-squared")
    rel(
        mono((QUAD_PERIOD, 1), (IMAG_PRODUCT, -1), (D_HALF, -1)),
        Level.Q,
        "quad-period-factorization",
    )
    alpha = ctx.alpha if ctx else "alpha"
    rel(
        mono((finite_order_period(alpha), 1), (D_HALF, -1), (gauss_sum(alpha), -1)),
        Level.Q,
        "finite-order-period-factorization",
    )
    for g in (CM_TYPE_SIGN, D_HALF, IMAG_PRODUCT, QUAD_PERIOD):
        if rationality_of(g).trivial_at(level):
            rels.append(Relation(mono((g, 1)), level, f"rationality:{g.name()}"))

    if ctx is not None:
        if ctx.signature is not None:
            if include_pairing:
                rel(
                    mono(
                        (auto_period(ctx.rep, ctx.signature), 1),
                        (TWO_PI_I_HALF, 4 * ctx.a0),
                        (petersson_period(ctx.qpet_tag()), 1),
                    ),
                    Level.Q,
                    "auto-period-definition",
                )
            if tate:
                vec = {auto_period(ctx.rep, ctx.signature): 1}
                for t, c in ctx.signature:
                    vec[motivic_q(ctx.rep, c, t)] = vec.get(motivic_q(ctx.rep, c, t), 0) - 1
                rel(PeriodMonomial.from_dict(vec), Level.Q, "period-dictionary")
        if ctx.model is not None and ctx.phi is not None:
            for t in ctx.phi.sorted_members():
                rel(
                    mono(
                        (motivic_q(ctx.eta_motive, 0, t), 1),
                        (cm_period(conjugated_tag(ctx.eta_dual), t), -1),
                    ),
                    Level.Q,
                    "motivic-q0-of-character",
                )
                rel(
                    mono(
                        (motivic_q(ctx.eta_motive, 1, t), 1),
                        (cm_period(ctx.eta_dual, t), -1),
                    ),
                    Level.Q,
                    "motivic-q1-of-character",
                )
                rel(
                    mono(
                        (cm_period(conjugated_tag(ctx.eta_dual), t), 1),
                        (cm_period(ctx.eta_dual, ctx.model.conj[t]), -1),
                    ),
                    Level.Q,
                    "cm-period-conjugation",
                )
        if include_pairing:
            rel(
                mono(
                    (doubling_pairing(ctx.rep), 1),
                    (TWO_PI_I_HALF, -4 * ctx.a0),
                    (petersson_period(ctx.qpet_tag()), -1),
                    (cm_period(ctx.psi, "@x"), 1),
                    (cm_period(f"{ctx.psi}^-1*{ctx.alpha}^-1", "@xbar"), 1),
                ),
                Level.FGAL,
                "petersson-factorization",
            )
            rel(
                mono(
                    (doubling_pairing(ctx.rep), 1),
                    (opaque(f"Q({ctx.rep},{ctx.psi},{ctx.alpha})"), 1),
                ),
                Level.Q,
                "pairing-proportionality",
            )

    return RelationLattice(level=level, relations=tuple(rels))


@dataclass(frozen=True)
class EquivalenceResult:
    equivalent: bool
    residual: PeriodMonomial
    level: Level


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
    return EquivalenceResult(equivalent=residual.is_one(), residual=residual, level=lat.level)


# Assembled sides of the identities in scope.


def normalizing_factor_closed(
    n: int, m: int, kappa: int, d_plus: int, alpha: str = "alpha"
) -> PeriodMonomial:
    """Closed form of the normalizing L-value product in the doubling identity.

    (2 pi i)^{d((2m+kappa)n - n(n-1)/2)} * disc^{ceil(n/2)/2}
    * quad-period^{floor(n/2)} * gauss-sum^{n}.
    """
    return mono(
        (TWO_PI_I_HALF, 2 * d_plus * ((2 * m + kappa) * n - n * (n - 1) // 2)),
        (D_HALF, (n + 1) // 2),
        (QUAD_PERIOD, n // 2),
        (gauss_sum(alpha), n),
    )


def normalizing_factor_product(
    n: int, m: int, kappa: int, d_plus: int, alpha: str = "alpha", substitute: bool = True
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
        bump(finite_order_period(alpha), 1)
        if j % 2 == 1:
            bump(QUAD_PERIOD, 1)
            bump(D_HALF, -1)
    if substitute:
        e = acc.pop(finite_order_period(alpha), 0)
        bump(D_HALF, e)
        bump(gauss_sum(alpha), e)
    return PeriodMonomial.from_dict(acc)


def standard_lvalue_period(
    n: int,
    m: int,
    d_plus: int,
    *,
    variant: str = "thm",
    rep: str = "Pi",
    psi: str = "psi",
    alpha: str = "alpha",
) -> PeriodMonomial:
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
        (opaque(f"Q({rep},{psi},{alpha})"), 1),
        (arch_zeta(m), -1),
    )


def refined_lvalue_period(
    n: int,
    m: int,
    d_plus: int,
    a0: int,
    *,
    rep: str = "Pi",
    psi: str = "psi",
    alpha: str = "alpha",
    qpet_tag: str | None = None,
) -> PeriodMonomial:
    """Refined period side with CM periods split out of the modified period."""
    return mono(
        (TWO_PI_I_HALF, 2 * d_plus * (m * n - n * (n - 1) // 2) - 4 * a0),
        (IMAG_PRODUCT, n // 2),
        (D_HALF, n),
        (CM_TYPE_SIGN, m * n),
        (petersson_period(qpet_tag if qpet_tag is not None else rep), -1),
        (cm_period(psi, "@x"), 1),
        (cm_period(f"{psi}^-1*{alpha}^-1", "@xbar"), 1),
    )


def rankin_lvalue_period(
    model: CMFieldModel,
    phi: CMType,
    n: int,
    m: int,
    signature: dict[str, int],
    *,
    rep: str = "Pi",
    eta_dual: str = "eta-dual",
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
        auto_period(rep, sig_items): 1,
    }
    for t in phi.sorted_members():
        c = signature[t]
        vec[cm_period(eta_dual, t)] = vec.get(cm_period(eta_dual, t), 0) + c
        tb = model.conj[t]
        vec[cm_period(eta_dual, tb)] = vec.get(cm_period(eta_dual, tb), 0) + (n - c)
    return PeriodMonomial.from_dict(vec)


def deligne_period_prediction(
    analysis: InstanceAnalysis,
    m_crit: int,
    *,
    rep: str = "Pi",
    eta_motive: str = "eta",
) -> PeriodMonomial:
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
        vec[motivic_q(rep, c, t)] = vec.get(motivic_q(rep, c, t), 0) + 1
        vec[motivic_q(eta_motive, 0, t)] = vec.get(motivic_q(eta_motive, 0, t), 0) + (n - c)
        vec[motivic_q(eta_motive, 1, t)] = vec.get(motivic_q(eta_motive, 1, t), 0) + c
    return PeriodMonomial.from_dict(vec)


def standard_vs_refined(
    n: int,
    m: int,
    d_plus: int,
    a0: int,
    *,
    variant: str = "thm",
    level: Level = Level.FGAL,
    rep: str = "Pi",
    psi: str = "psi",
    alpha: str = "alpha",
) -> EquivalenceResult:
    """Compare the standard period side with its refined CM-period expansion.

    Closes at the coarser level through the pairing proportionality and the
    Petersson factorization; at the finer level the residual stays visible,
    and with the ``thm`` discriminant variant it additionally contains one
    stray square-root discriminant in odd rank.
    """
    main = standard_lvalue_period(n, m, d_plus, variant=variant, rep=rep, psi=psi, alpha=alpha)
    refined = refined_lvalue_period(n, m, d_plus, a0, rep=rep, psi=psi, alpha=alpha)
    ctx = RelationContext(rep=rep, psi=psi, alpha=alpha, a0=a0)
    lat = standard_relations(level, ctx)
    return equivalent_mod(main, refined, lat)


# The end-to-end comparator.


@dataclass(frozen=True, eq=True)
class ComparatorInstance:
    """Everything needed to compare the two period predictions.

    ``exp_pairs`` maps each place of the CM type to the character
    exponents (m_t, m_tbar); only their differences enter any
    computation, which keeps conjugation of instances total.
    """

    ap: ArchParams
    exp_pairs: dict[str, tuple[int, int]]
    kappa: int
    rep: str = "Pi"
    eta_dual: str = "eta-dual"
    eta_motive: str = "eta"

    @property
    def model(self) -> CMFieldModel:
        return self.ap.model

    def phi(self) -> CMType:
        return self.ap.phi()

    def diffs(self) -> dict[str, int]:
        return {t: a - b for t, (a, b) in self.exp_pairs.items()}

    @functools.cached_property
    def analysis(self) -> InstanceAnalysis:
        """The instance's Hodge and critical-point analysis, built on first use."""
        return analyze_instance(self.ap, self.exp_pairs, self.kappa)

    def conjugated(self, g: str) -> "ComparatorInstance":
        """Transport the instance by a group element, re-expressed on the same CM type.

        Places whose image crosses to the conjugate half flip their
        difference and absorb the twist exponent; the twist exponent
        itself is invariant.
        """
        model = self.model
        ap2 = conjugate_arch_params(self.ap, g)
        perm = model.element(g)
        members = set(self.exp_pairs)
        diffs = self.diffs()
        pairs2: dict[str, tuple[int, int]] = {}
        for t in self.exp_pairs:
            gt = perm[t]
            if gt in members:
                d2 = diffs[gt]
            else:
                d2 = -diffs[model.conj[gt]] + self.kappa
            pairs2[t] = (d2, 0)
        return ComparatorInstance(
            ap=ap2,
            exp_pairs=pairs2,
            kappa=self.kappa,
            rep=self.rep,
            eta_dual=self.eta_dual,
            eta_motive=self.eta_motive,
        )


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
    level: Level
    tate: bool
    signature: tuple[tuple[str, int], ...]
    identity_tags: tuple[str, ...]

    def first_failure(self) -> PointComparison | None:
        return next((p for p in self.points if not p.equivalent), None)


def compare_automorphic_motivic(
    inst: ComparatorInstance,
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
    analysis = inst.analysis
    n = inst.ap.n
    model = inst.model
    phi = inst.phi()
    d_plus = model.degree_plus
    if analysis.counts_arch != analysis.counts_hodge:
        raise PreconditionError("signature counts disagree between the two dictionaries")
    sig_items = tuple(sorted(analysis.counts_arch.items()))

    ctx = RelationContext(
        model=model,
        phi=phi,
        rep=inst.rep,
        eta_dual=inst.eta_dual,
        eta_motive=inst.eta_motive,
        signature=sig_items,
    )
    lat = standard_relations(level, ctx, tate=tate, include_pairing=False)

    expected_shift = -n * d_plus  # half-unit offset between the two evaluation points
    comparisons = []
    for m in analysis.admissible:
        auto = rankin_lvalue_period(
            model, phi, n, m, analysis.counts_arch, rep=inst.rep, eta_dual=inst.eta_dual
        )
        mot = deligne_period_prediction(analysis, m, rep=inst.rep, eta_motive=inst.eta_motive)
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
        level=level,
        tate=tate,
        signature=sig_items,
        identity_tags=lat.tags(),
    )
