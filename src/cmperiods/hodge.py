"""Hodge-type bookkeeping: critical ranges, signature maps, split indices.

The archimedean parameters of a regular rank-n datum are strictly
decreasing half-integers; the dictionary between those parameters and
dominant weights, the induced Hodge exponents, the combinatorial
criterion for critical integers, and the per-place signature counts all
live here, in exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cmfield import CMFieldModel, CMType
from .errors import (
    DegenerateInputError,
    DominanceError,
    NotCriticalError,
    PreconditionError,
)
from .hecke import InfinityType
from .weights import Signature, WeightParam, is_dominant


@dataclass(frozen=True, eq=True)
class ArchParams:
    """Strictly decreasing half-integer parameters (A_{t,1},...,A_{t,n}) per place.

    Doubled entries are integers sharing the parity of n-1, so the induced
    Hodge exponents below are integers.
    """

    entries: dict[str, tuple[Fraction, ...]]
    n: int
    model: CMFieldModel

    def __post_init__(self):
        for t, row in self.entries.items():
            if len(row) != self.n:
                raise PreconditionError(f"parameter list at {t!r} must have length {self.n}")
            if any(a <= b for a, b in zip(row, row[1:])):
                raise PreconditionError(f"parameters at {t!r} must be strictly decreasing")
            for a in row:
                doubled = 2 * a
                if doubled.denominator != 1:
                    raise PreconditionError("doubled parameters must be integers")
                if (doubled.numerator - (self.n - 1)) % 2 != 0:
                    raise PreconditionError("doubled parameters must share the parity of n-1")

    def phi(self) -> CMType:
        return CMType(frozenset(self.entries))

    def taus(self) -> tuple[str, ...]:
        return tuple(sorted(self.entries))


def archimedean_params(mu: WeightParam, model: CMFieldModel) -> ArchParams:
    """Parameters A_{t,j} = -a_{t,n+1-j} + (n+1)/2 - j from a dominant weight."""
    if not is_dominant(mu):
        raise DominanceError("archimedean parameters require a dominant weight")
    n = mu.n
    entries = {}
    for t, a in mu.entries.items():
        entries[t] = tuple(
            Fraction(-2 * a[n - j] + (n + 1) - 2 * j, 2) for j in range(1, n + 1)
        )
    return ArchParams(entries, n, model)


def weight_from_arch_params(ap: ArchParams, a0: int = 0) -> WeightParam:
    """Inverse dictionary a_{t,i} = -A_{t,n+1-i} - (n+1)/2 + i."""
    n = ap.n
    entries = {}
    for t, row in ap.entries.items():
        vals = []
        for i in range(1, n + 1):
            v = -row[n - i] - Fraction(n + 1, 2) + i
            if v.denominator != 1:
                raise PreconditionError("parameter parity does not yield an integral weight")
            vals.append(int(v))
        entries[t] = tuple(vals)
    return WeightParam(entries, a0, n)


def extend_arch_params(ap: ArchParams) -> dict[str, tuple[Fraction, ...]]:
    """Extend to all embeddings: the conjugate row is the reversed negation."""
    full = dict(ap.entries)
    for t, row in ap.entries.items():
        full[ap.model.conj[t]] = tuple(-a for a in reversed(row))
    return full


def conjugate_arch_params(ap: ArchParams, g: str) -> ArchParams:
    """Pull back along a group element, restricted to the original CM type."""
    full = extend_arch_params(ap)
    perm = ap.model.element(g)
    return ArchParams({t: full[perm[t]] for t in ap.entries}, ap.n, ap.model)


@dataclass(frozen=True, eq=True)
class HodgeData:
    """Per-embedding Hodge exponent pairs (p, q) with q = weight - p."""

    n: int
    weight: int
    pairs: dict[str, tuple[tuple[int, int], ...]]

    def __post_init__(self):
        for t, row in self.pairs.items():
            if len(row) != self.n:
                raise PreconditionError(f"Hodge pairs at {t!r} must have length {self.n}")
            for p, q in row:
                if p + q != self.weight:
                    raise PreconditionError("each Hodge pair must sum to the weight")
            ps = [p for p, _ in row]
            if any(a <= b for a, b in zip(ps, ps[1:])):
                raise PreconditionError("Hodge exponents must be strictly decreasing")


def hodge_from_arch_params(ap: ArchParams) -> HodgeData:
    """Rank-n Hodge data of weight n-1 with pairs (-A + (n-1)/2, A + (n-1)/2)."""
    n = ap.n
    w = n - 1
    pairs = {}
    for t, row in ap.entries.items():
        ps = []
        for a in row:
            p = -a + Fraction(w, 2)
            if p.denominator != 1:
                raise DegenerateInputError("parameter parity does not yield integer exponents")
            ps.append(int(p))
        # Parameters decrease, so p increases; store pairs by decreasing p.
        pairs[t] = tuple((p, w - p) for p in sorted(ps, reverse=True))
        pairs[ap.model.conj[t]] = tuple((w - p, p) for p in sorted(ps))
    return HodgeData(n=n, weight=w, pairs=pairs)


def hodge_of_character(
    model: CMFieldModel, exp_pairs: dict[str, tuple[int, int]], kappa: int
) -> HodgeData:
    """Rank-1 Hodge data of weight -kappa attached to a split character datum.

    ``exp_pairs`` maps each place t of a CM type to (m_t, m_tbar); the pair
    at t is (m_tbar - m_t, m_t - m_tbar - kappa), swapped at the conjugate.
    """
    CMType(frozenset(exp_pairs)).validate(model)
    pairs = {}
    for t, (m_t, m_bar) in exp_pairs.items():
        p = m_bar - m_t
        q = m_t - m_bar - kappa
        pairs[t] = ((p, q),)
        pairs[model.conj[t]] = ((q, p),)
    return HodgeData(n=1, weight=-kappa, pairs=pairs)


def hodge_of_character_type(psi: InfinityType, kappa: int, phi: CMType) -> HodgeData:
    """Convenience wrapper taking a full infinity type."""
    return hodge_of_character(psi.model, psi.pairs_on(phi), kappa)


def tensor_hodge(m: HodgeData, m1: HodgeData) -> HodgeData:
    """Tensor of rank-n data with rank-1 data over the same embedding set."""
    if m1.n != 1 or set(m.pairs) != set(m1.pairs):
        raise PreconditionError("tensor_hodge expects rank-1 second factor on the same embeddings")
    pairs = {}
    for t, row in m.pairs.items():
        p1, q1 = m1.pairs[t][0]
        pairs[t] = tuple((p + p1, q + q1) for p, q in row)
    return HodgeData(n=m.n, weight=m.weight + m1.weight, pairs=pairs)


def hodge_exponents(h: HodgeData) -> tuple[int, ...]:
    """Sorted set of occurring p-exponents over every embedding."""
    return tuple(sorted({p for row in h.pairs.values() for p, _ in row}))


@dataclass(frozen=True)
class CriticalRange:
    """Integers m with lo < m <= hi."""

    lo: int
    hi: int

    def points(self) -> range:
        return range(self.lo + 1, self.hi + 1)

    def __contains__(self, m: int) -> bool:
        return self.lo < m <= self.hi


def critical_range(exponents, weight: int) -> CriticalRange:
    """Critical integers from the exponent set of a pure datum.

    The range is (max{p < w/2}, min{p > w/2}]; the middle exponent w/2 must
    not occur, and both sides must be populated.
    """
    exps = sorted(set(exponents))
    half = Fraction(weight, 2)
    if any(p == half for p in exps):
        raise NotCriticalError(f"middle exponent {half} occurs; no critical range")
    below = [p for p in exps if p < half]
    above = [p for p in exps if p > half]
    if not below or not above:
        raise DegenerateInputError("exponents lie on one side of the middle; range unbounded")
    return CriticalRange(lo=max(below), hi=min(above))


def signature_from_arch(
    ap: ArchParams, diffs: dict[str, int], kappa: int
) -> dict[str, int]:
    """Per-place count of indices i with 2*diff - kappa + 2A_{t,i} < 0.

    ``diffs`` maps each place of the CM type to m_t - m_tbar.  A zero
    value of the tested expression is degenerate and rejected.
    """
    out = {}
    for t, row in ap.entries.items():
        count = 0
        for a in row:
            val = 2 * diffs[t] - kappa + 2 * a
            if val == 0:
                raise DegenerateInputError(f"vanishing comparison at {t!r}")
            if val < 0:
                count += 1
        out[t] = count
    return out


def signature_from_hodge(m: HodgeData, m1: HodgeData, phi: CMType) -> dict[str, int]:
    """Per-place count of indices i with 2 p_i + p' - q' - w > 0 (w the rank-n weight)."""
    out = {}
    for t in phi.sorted_members():
        p1, q1 = m1.pairs[t][0]
        count = 0
        for p, _ in m.pairs[t]:
            val = 2 * p + p1 - q1 - m.weight
            if val == 0:
                raise DegenerateInputError(f"vanishing split comparison at {t!r}")
            if val > 0:
                count += 1
        out[t] = count
    return out


@dataclass(frozen=True)
class SplitIndexTable:
    """Split multiplicities for a (rank n, rank 1) pair at one place."""

    rank_n: tuple[int, ...]  # indexed 0..n
    rank_1: tuple[int, int]  # indices 0 and 1

    @property
    def rank_n_sum(self) -> int:
        return sum(self.rank_n)

    @property
    def rank_1_sum(self) -> int:
        return sum(self.rank_1)


def split_indices(n: int, count: int) -> SplitIndexTable:
    """The table concentrating rank-n mass at a signature count.

    With ``count`` the value of :func:`signature_from_hodge` at one place,
    the rank-n multiplicities are 1 at index ``count`` and 0 elsewhere, and
    the rank-1 multiplicities are (n - count, count).
    """
    rank_n = tuple(1 if i == count else 0 for i in range(n + 1))
    return SplitIndexTable(rank_n=rank_n, rank_1=(n - count, count))


@dataclass(frozen=True)
class InstanceAnalysis:
    """Everything derived from one (rank-n datum, character, kappa) instance.

    Built once by :func:`analyze_instance` and passed to every consumer.
    The two signature counts come from independent dictionaries and are
    kept apart so that callers can compare them.
    """

    ap: ArchParams
    exp_pairs: dict[str, tuple[int, int]]
    kappa: int
    rank_n: HodgeData
    rank_1: HodgeData
    tensor: HodgeData
    exponents: tuple[int, ...]
    window: CriticalRange
    admissible: tuple[int, ...]  # critical integers above (2n - kappa)/2
    counts_arch: dict[str, int]
    counts_hodge: dict[str, int]


def analyze_instance(
    ap: ArchParams, exp_pairs: dict[str, tuple[int, int]], kappa: int
) -> InstanceAnalysis:
    """Hodge data, tensor, critical window, admissible points and both signature counts.

    The signature counts are taken before the window: a middle exponent
    occurs exactly where a signature comparison vanishes, and that is
    reported as the vanishing comparison at its place.
    """
    rank_n = hodge_from_arch_params(ap)
    rank_1 = hodge_of_character(ap.model, exp_pairs, kappa)
    tensor = tensor_hodge(rank_n, rank_1)
    diffs = {t: m_t - m_bar for t, (m_t, m_bar) in exp_pairs.items()}
    counts_arch = signature_from_arch(ap, diffs, kappa)
    counts_hodge = signature_from_hodge(rank_n, rank_1, ap.phi())
    exponents = hodge_exponents(tensor)
    window = critical_range(exponents, tensor.weight)
    threshold = Fraction(2 * ap.n - kappa, 2)
    return InstanceAnalysis(
        ap=ap,
        exp_pairs=exp_pairs,
        kappa=kappa,
        rank_n=rank_n,
        rank_1=rank_1,
        tensor=tensor,
        exponents=exponents,
        window=window,
        admissible=tuple(m for m in window.points() if m > threshold),
        counts_arch=counts_arch,
        counts_hodge=counts_hodge,
    )


@dataclass(frozen=True)
class BoundsReport:
    """Outcome of the evaluation-point inequality with per-place slack."""

    ok: bool
    m: int
    lower: Fraction
    upper_terms: dict[str, tuple[int | None, int | None]]
    min_upper: int | None

    def slack(self, t: str) -> int | None:
        terms = [x for x in self.upper_terms[t] if x is not None]
        return min(terms) - self.m if terms else None


def doubling_bounds_check(
    m: int,
    mu: WeightParam,
    pairs: dict[str, tuple[int, int]],
    kappa: int,
    sig: Signature,
) -> BoundsReport:
    """Check (n - kappa)/2 <= m <= min over places of the two upper terms.

    At a place with s = n the first term is omitted, and with s = 0 the
    second is omitted (a missing constraint counts as plus infinity).
    """
    n = mu.n
    lower = Fraction(n - kappa, 2)
    upper_terms: dict[str, tuple[int | None, int | None]] = {}
    uppers: list[int] = []
    for t in mu.entries:
        a = mu.row(t)
        r, s = sig.pairs[t]
        m_t, m_bar = pairs[t]
        t1 = -a[s] + s + m_t - m_bar - kappa if s < n else None
        t2 = a[s - 1] + r + m_bar - m_t if s > 0 else None
        upper_terms[t] = (t1, t2)
        uppers.extend(x for x in (t1, t2) if x is not None)
    min_upper = min(uppers) if uppers else None
    ok = lower <= m and (min_upper is None or m <= min_upper)
    return BoundsReport(ok=ok, m=m, lower=lower, upper_terms=upper_terms, min_upper=min_upper)


@dataclass(frozen=True)
class CriticalBoundsReport:
    ok: bool
    points_checked: tuple[int, ...]
    first_violation: tuple[int, str] | None
    vacuous: bool


def critical_points_satisfy_bounds(analysis: InstanceAnalysis) -> CriticalBoundsReport:
    """Every critical integer above n - kappa/2 satisfies the evaluation bounds.

    The signature is forced from the per-place counts (s = count,
    r = n - count); the critical integers come from the tensor Hodge data
    of the rank-n datum with the rank-1 character datum.
    """
    ap, kappa = analysis.ap, analysis.kappa
    sig = Signature({t: (ap.n - c, c) for t, c in analysis.counts_arch.items()}, ap.n)
    mu = weight_from_arch_params(ap)
    points = analysis.admissible
    first_violation = None
    for m in points:
        report = doubling_bounds_check(m, mu, analysis.exp_pairs, kappa, sig)
        if not report.ok:
            bad = sorted(
                t
                for t in mu.entries
                if any(x is not None and m > x for x in report.upper_terms[t])
            )
            first_violation = (m, bad[0] if bad else "")
            break
    return CriticalBoundsReport(
        ok=first_violation is None,
        points_checked=points,
        first_violation=first_violation,
        vacuous=not points,
    )
