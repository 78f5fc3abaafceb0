"""Hodge-type bookkeeping: critical ranges, signature maps, split indices.

The archimedean parameters of a regular rank-n datum are strictly
decreasing half-integers; the dictionary between those parameters and
dominant weights, the induced Hodge exponents, the combinatorial
criterion for critical integers, and the per-place signature counts all
live here, in exact integer arithmetic: a half-integer parameter is
stored doubled, and a half-integer bound w/2 is compared as 2p with w.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

from .cmfield import CMFieldModel, CMType, pull_back
from .errors import (
    DegenerateInputError,
    DominanceError,
    InvalidCMTypeError,
    NotCriticalError,
    PreconditionError,
)
from .weights import Signature, WeightParam, dual_row, is_dominant


def arch_row_defect(row: tuple[int, ...], n: int) -> str | None:
    """Why ``row`` is not a doubled parameter row of rank ``n``, or None if it is one."""
    if len(row) != n:
        return f"must have length {n}"
    if any(a <= b for a, b in zip(row, row[1:])):
        return "must be strictly decreasing"
    if any(type(a) is not int for a in row):
        return "must be integers"
    if any((a - n + 1) % 2 for a in row):
        return "must share the parity of n-1"
    return None


class ArchParams(namedtuple("ArchParams", "doubled n model")):
    """Strictly decreasing half-integer parameters (A_{t,1},...,A_{t,n}) per place.

    Stored doubled: ``doubled[t]`` holds the integers 2*A_{t,i}, which share
    the parity of n-1, so the induced Hodge exponents below are integers.
    The places are a CM type of ``model``.
    """

    __slots__ = ()

    def __new__(cls, doubled: dict[str, tuple[int, ...]], n: int, model: CMFieldModel):
        for t, row in doubled.items():
            defect = arch_row_defect(row, n)
            if defect:
                raise PreconditionError(f"doubled parameters at {t!r} {defect}")
        self = super().__new__(cls, doubled, n, model)
        try:
            self.phi().validate(model)
        except InvalidCMTypeError as exc:
            raise PreconditionError(f"ArchParams places {sorted(doubled)} are not a CM type: {exc}") from None
        return self

    def phi(self) -> CMType:
        return CMType(frozenset(self.doubled))

    def taus(self) -> tuple[str, ...]:
        return tuple(sorted(self.doubled))


def archimedean_params(mu: WeightParam, model: CMFieldModel) -> ArchParams:
    """Parameters A_{t,j} = -a_{t,n+1-j} + (n+1)/2 - j from a dominant weight."""
    if not is_dominant(mu):
        raise DominanceError("archimedean parameters require a dominant weight")
    n = mu.n
    doubled = {
        t: tuple(-2 * a[n - j] + (n + 1) - 2 * j for j in range(1, n + 1))
        for t, a in mu.entries.items()
    }
    return ArchParams(doubled, n, model)


def weight_from_arch_params(ap: ArchParams) -> WeightParam:
    """Inverse dictionary a_{t,i} = -A_{t,n+1-i} - (n+1)/2 + i, with scalar 0.

    A doubled parameter has the parity of n-1, so the halving is exact.
    """
    n = ap.n
    entries = {
        t: tuple((-row[n - i] - n - 1) // 2 + i for i in range(1, n + 1))
        for t, row in ap.doubled.items()
    }
    return WeightParam(entries, 0, n)


def conjugate_arch_params(ap: ArchParams, g: str) -> ArchParams:
    """Pull back along a group element; a row crossing to the conjugate half is reversed and negated."""
    return ArchParams(pull_back(ap.model, ap.doubled, g, dual_row), ap.n, ap.model)


class HodgeData(namedtuple("HodgeData", "n weight pairs")):
    """Per-embedding Hodge exponent pairs (p, q) with q = weight - p."""

    __slots__ = ()

    def __new__(cls, n: int, weight: int, pairs: dict[str, tuple[tuple[int, int], ...]]):
        for t, row in pairs.items():
            if len(row) != n:
                raise PreconditionError(f"Hodge pairs at {t!r} must have length {n}")
            for p, q in row:
                if p + q != weight:
                    raise PreconditionError("each Hodge pair must sum to the weight")
            ps = [p for p, _ in row]
            if any(a <= b for a, b in zip(ps, ps[1:])):
                raise PreconditionError("Hodge exponents must be strictly decreasing")
        return super().__new__(cls, n, weight, pairs)


def hodge_from_arch_params(ap: ArchParams) -> HodgeData:
    """Rank-n Hodge data of weight n-1 with pairs (-A + (n-1)/2, A + (n-1)/2)."""
    n = ap.n
    w = n - 1
    pairs = {}
    for t, row in ap.doubled.items():
        # 2p = w - 2A is even by the parity of the doubled row.  Parameters
        # decrease, so p increases; store pairs by decreasing p.
        ps = [(w - a) // 2 for a in row]
        pairs[t] = tuple((p, w - p) for p in reversed(ps))
        pairs[ap.model.conj[t]] = tuple((w - p, p) for p in ps)
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


class CriticalRange(NamedTuple):
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
    not occur, and both sides must be populated.  Each p is compared as 2p
    with w.
    """
    exps = sorted(set(exponents))
    if any(2 * p == weight for p in exps):
        half = weight // 2 if weight % 2 == 0 else f"{weight}/2"
        raise NotCriticalError(f"middle exponent {half} occurs; no critical range")
    below = [p for p in exps if 2 * p < weight]
    above = [p for p in exps if 2 * p > weight]
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
    for t, row in ap.doubled.items():
        count = 0
        for a in row:
            val = 2 * diffs[t] - kappa + a
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


class SplitIndexTable(NamedTuple):
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


class InstanceAnalysis(NamedTuple):
    """Everything derived from one (rank-n datum, character, kappa) instance.

    Built once by :func:`analyze_instance` and passed to every consumer.
    ``exp_pairs`` maps each place of the CM type to the character
    exponents (m_t, m_tbar); only their differences ``diffs`` enter any
    computation, which keeps conjugation of instances total.  The two
    signature counts write one inequality two ways (with p = (w - 2A)/2,
    2p + p' - q' - w > 0 is exactly 2d - kappa + 2A < 0), so they always
    agree; callers compare them to guard the two transcriptions.
    """

    ap: ArchParams
    exp_pairs: dict[str, tuple[int, int]]
    kappa: int
    diffs: dict[str, int]  # m_t - m_tbar per place
    exponents: tuple[int, ...]
    window: CriticalRange
    admissible: tuple[int, ...]  # critical integers above (2n - kappa)/2
    counts_arch: dict[str, int]
    counts_hodge: dict[str, int]

    @property
    def model(self) -> CMFieldModel:
        return self.ap.model

    def phi(self) -> CMType:
        return self.ap.phi()

    def conjugated(self, g: str) -> "InstanceAnalysis":
        """Transport the instance by a group element, re-expressed on the same CM type.

        Places whose image crosses to the conjugate half flip their
        difference and absorb the twist exponent; the twist exponent
        itself is invariant.
        """
        diffs = pull_back(self.model, self.diffs, g, lambda d: self.kappa - d)
        pairs = {t: (d, 0) for t, d in diffs.items()}
        return analyze_instance(conjugate_arch_params(self.ap, g), pairs, self.kappa)


# The most points a critical window may hold: every check walks its window point by point.
MAX_WINDOW_POINTS = 10_000


def analyze_instance(
    ap: ArchParams, exp_pairs: dict[str, tuple[int, int]], kappa: int
) -> InstanceAnalysis:
    """Critical window, admissible points and both signature counts, in one integer pass.

    The pass reads the tensor's exponents off the doubled rows, without
    building Hodge data: with w = n - 1 and d = m_t - m_tbar, the rank-n
    exponent p = (w - 2A)/2 at t gives p - d there and w - p + d - kappa
    at the conjugate place, of weight w - kappa.  It raises what the
    public chain raises, in the same order, and a ``PreconditionError``
    where the character sits on other places than the parameters (where
    the chain fails on a missing place) or the window holds more than
    ``MAX_WINDOW_POINTS`` points.  The signature counts are
    taken before the window: a middle exponent occurs exactly where a
    signature comparison vanishes, and that is reported as the vanishing
    comparison at its place.
    """
    if ap.doubled.keys() != exp_pairs.keys():
        # The parameters' places were validated when ``ap`` was built; the
        # character's are validated as the public chain validates them.
        CMType(frozenset(exp_pairs)).validate(ap.model)
        raise PreconditionError(
            f"character places {sorted(exp_pairs)} are not the parameters' places {sorted(ap.doubled)}"
        )
    diffs = {t: m_t - m_bar for t, (m_t, m_bar) in exp_pairs.items()}
    counts_arch = signature_from_arch(ap, diffs, kappa)
    w = ap.n - 1
    exps: set[int] = set()
    counts_hodge = {}
    for t in sorted(ap.doubled):
        d = diffs[t]
        count = 0
        for a in ap.doubled[t]:
            p = (w - a) // 2
            exps.add(p - d)
            exps.add(w - p + d - kappa)
            # 2p + p' - q' - w with the character's pair (p', q') = (-d, d - kappa)
            if 2 * p - 2 * d + kappa - w > 0:
                count += 1
        counts_hodge[t] = count
    exponents = tuple(sorted(exps))
    window = critical_range(exponents, w - kappa)
    if window.hi - window.lo > MAX_WINDOW_POINTS:
        raise PreconditionError(f"critical window holds more than the bound of {MAX_WINDOW_POINTS} points")
    threshold = 2 * ap.n - kappa  # m is admissible when 2m exceeds it
    return InstanceAnalysis(
        ap=ap,
        exp_pairs=exp_pairs,
        kappa=kappa,
        diffs=diffs,
        exponents=exponents,
        window=window,
        admissible=tuple(m for m in window.points() if 2 * m > threshold),
        counts_arch=counts_arch,
        counts_hodge=counts_hodge,
    )


def split_index_failures(analysis: InstanceAnalysis) -> list[str]:
    """Places whose split-index table at the Hodge signature count breaks its sums or mass."""
    n = analysis.ap.n
    failures = []
    for t in analysis.ap.phi().sorted_members():
        count = analysis.counts_hodge[t]
        table = split_indices(n, count)
        if table.rank_n_sum != 1 or table.rank_1_sum != n:
            failures.append(f"split sums violated at {t}")
        if table.rank_n[count] != 1:
            failures.append(f"split mass not at the signature count at {t}")
    return failures


class BoundsReport(NamedTuple):
    """Outcome of the evaluation-point inequality with the per-place upper terms."""

    ok: bool
    m: int
    lower: int  # ceil((n - kappa)/2), the least integer m meeting the lower bound
    upper_terms: dict[str, tuple[int | None, int | None]]
    min_upper: int | None


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
    lower = (n - kappa + 1) // 2
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


class CriticalBoundsReport(NamedTuple):
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
