"""Seeded randomized sweeps over regular instances.

Shared by the command-line ``sweep`` subcommand and the acceptance
suite.  Every sweep is driven by an explicit seed and
returns a small stats object, so runs are reproducible byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .cmfield import CMFieldModel, cyclic_model
from .hecke import InfinityType, conjugate_infinity_type
from .hodge import ArchParams, critical_points_satisfy_bounds, split_indices
from .periods import ComparatorInstance, Level, compare_automorphic_motivic
from .weights import (
    Signature,
    WeightParam,
    conjugate_weight,
    doubling_weight,
    is_block_dominant,
    is_dominant,
)


@dataclass(frozen=True)
class SweepBounds:
    n_max: int = 4
    d_max: int = 3
    two_a_max: int = 15
    m_max: int = 6
    kappa_max: int = 4


DEFAULT_BOUNDS = SweepBounds()

_MODEL_CACHE: dict[int, CMFieldModel] = {}


def _model(d: int) -> CMFieldModel:
    if d not in _MODEL_CACHE:
        _MODEL_CACHE[d] = cyclic_model(d)
    return _MODEL_CACHE[d]


def random_instance(rng: random.Random, bounds: SweepBounds = DEFAULT_BOUNDS) -> ComparatorInstance:
    """A random regular instance within the given bounds.

    The archimedean parameters are strictly decreasing half-integers of
    the right parity, the character exponents share one weight, and every
    signature comparison is resampled away from zero.
    """
    d = rng.randint(1, bounds.d_max)
    n = rng.randint(1, bounds.n_max)
    model = _model(d)
    taus = [f"t{i}" for i in range(1, d + 1)]
    kappa = rng.randint(-bounds.kappa_max, bounds.kappa_max)
    w = rng.randint(-bounds.m_max, bounds.m_max)
    lo = max(-bounds.m_max, w - bounds.m_max)
    hi = min(bounds.m_max, w + bounds.m_max)
    allowed = [x for x in range(-bounds.two_a_max, bounds.two_a_max + 1) if (x - (n - 1)) % 2 == 0]
    while True:
        pairs = {}
        for t in taus:
            m_t = rng.randint(lo, hi)
            pairs[t] = (m_t, w - m_t)
        entries = {}
        for t in taus:
            doubled = sorted(rng.sample(allowed, n), reverse=True)
            entries[t] = tuple(Fraction(x, 2) for x in doubled)
        degenerate = any(
            2 * (m_t - m_bar) - kappa + 2 * a == 0
            for t, (m_t, m_bar) in pairs.items()
            for a in entries[t]
        )
        if degenerate:
            continue
        ap = ArchParams(entries, n, model)
        return ComparatorInstance(ap=ap, exp_pairs=pairs, kappa=kappa)


@dataclass
class SweepStats:
    instances: int = 0
    points_checked: int = 0
    vacuous: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_compare_sweep(
    seed: int,
    count: int,
    bounds: SweepBounds = DEFAULT_BOUNDS,
    level: Level = Level.FGAL,
    tate: bool = True,
) -> SweepStats:
    """Comparator verdicts over ``count`` random instances at every admissible point."""
    rng = random.Random(seed)
    stats = SweepStats()
    for _ in range(count):
        inst = random_instance(rng, bounds)
        report = compare_automorphic_motivic(inst, level=level, tate=tate)
        stats.instances += 1
        stats.points_checked += len(report.points)
        if report.vacuous:
            stats.vacuous += 1
        for point in report.points:
            if not point.equivalent:
                stats.failures.append(
                    f"m={point.m} residual {point.residual.describe()} (instance {inst.ap.entries})"
                )
    return stats


def run_bounds_sweep(
    seed: int, count: int, bounds: SweepBounds = DEFAULT_BOUNDS
) -> SweepStats:
    """Critical points above the threshold satisfy the evaluation bounds."""
    rng = random.Random(seed)
    stats = SweepStats()
    for _ in range(count):
        inst = random_instance(rng, bounds)
        report = critical_points_satisfy_bounds(inst.analysis)
        stats.instances += 1
        stats.points_checked += len(report.points_checked)
        if report.vacuous:
            stats.vacuous += 1
        if not report.ok:
            stats.failures.append(f"violation at {report.first_violation}")
    return stats


def run_signature_sweep(
    seed: int, count: int, bounds: SweepBounds = DEFAULT_BOUNDS
) -> SweepStats:
    """Signature maps agree across the two dictionaries and split sums hold."""
    rng = random.Random(seed)
    stats = SweepStats()
    for _ in range(count):
        inst = random_instance(rng, bounds)
        stats.instances += 1
        counts_arch, counts_hodge = inst.analysis.counts_arch, inst.analysis.counts_hodge
        if counts_arch != counts_hodge:
            stats.failures.append(f"signature mismatch {counts_arch} vs {counts_hodge}")
            continue
        for t in inst.phi().sorted_members():
            table = split_indices(inst.ap.n, counts_hodge[t])
            if table.rank_n_sum != 1 or table.rank_1_sum != inst.ap.n:
                stats.failures.append(f"split sums violated at {t}")
            if table.rank_n[counts_hodge[t]] != 1:
                stats.failures.append(f"split mass not at the signature count at {t}")
    return stats


def random_dominant_weight(rng: random.Random, model: CMFieldModel, n: int) -> WeightParam:
    entries = {}
    for t in model.canonical_cm_type().sorted_members():
        steps = [rng.randint(0, 4) for _ in range(n - 1)]
        start = rng.randint(-8, 8)
        row = [start]
        for s in steps:
            row.append(row[-1] - s)
        entries[t] = tuple(row)
    return WeightParam(entries, rng.randint(-6, 6), n)


def random_infinity_type(rng: random.Random, model: CMFieldModel, span: int = 6) -> InfinityType:
    return InfinityType({t: rng.randint(-span, span) for t in model.embeddings}, model)


def random_signature(rng: random.Random, model: CMFieldModel, n: int) -> Signature:
    taus = model.canonical_cm_type().sorted_members()
    return Signature({t: (lambda r: (r, n - r))(rng.randint(0, n)) for t in taus}, n)


def run_dominance_sweep(seed: int, count: int, n_max: int = 8) -> SweepStats:
    """Doubling parameters of dominant inputs are block dominant."""
    rng = random.Random(seed)
    stats = SweepStats()
    for _ in range(count):
        d = rng.randint(1, 3)
        n = rng.randint(1, n_max)
        model = _model(d)
        mu = random_dominant_weight(rng, model, n)
        psi = random_infinity_type(rng, model)
        sig = random_signature(rng, model, n)
        stats.instances += 1
        if not is_dominant(mu):
            stats.failures.append("generator produced a non-dominant weight")
            continue
        lam = doubling_weight(mu, psi, sig)
        if not is_block_dominant(lam, sig):
            stats.failures.append(f"dominance lost for {mu} with {sig}")
    return stats


def run_equivariance_sweep(
    seed: int,
    count: int,
    bounds: SweepBounds = DEFAULT_BOUNDS,
    level: Level = Level.FGAL,
    tate: bool = True,
) -> SweepStats:
    """Conjugating an instance by any group element preserves every verdict.

    Also sweeps the interaction of weight conjugation with the doubling
    parameter: transporting the inputs and transporting the output agree,
    with the character moved by the inverse element.
    """
    rng = random.Random(seed)
    stats = SweepStats()
    for _ in range(count):
        inst = random_instance(rng, bounds)
        model = inst.model
        base = compare_automorphic_motivic(inst, level=level, tate=tate)
        stats.instances += 1
        for g in sorted(model.group):
            conj = inst.conjugated(g)
            if conj.analysis.exponents != inst.analysis.exponents:
                stats.failures.append(f"exponent set moved under {g}")
                continue
            report = compare_automorphic_motivic(conj, level=level, tate=tate)
            stats.points_checked += len(report.points)
            if [p.m for p in report.points] != [p.m for p in base.points]:
                stats.failures.append(f"critical points moved under {g}")
            for a, b in zip(report.points, base.points):
                if a.equivalent != b.equivalent:
                    stats.failures.append(f"verdict changed under {g} at m={a.m}")

        # Doubling-parameter equivariance on a fresh random weight datum.
        d = rng.randint(1, 3)
        n = rng.randint(1, 4)
        wmodel = _model(d)
        mu = random_dominant_weight(rng, wmodel, n)
        psi = random_infinity_type(rng, wmodel)
        sig = random_signature(rng, wmodel, n)
        lam = doubling_weight(mu, psi, sig)
        for g in sorted(wmodel.group):
            g_inv = wmodel.inverse_name(g)
            lhs = doubling_weight(
                conjugate_weight(mu, g, wmodel),
                conjugate_infinity_type(psi, g_inv),
                sig.conjugated(wmodel, g),
            )
            rhs = conjugate_weight(lam, g, wmodel)
            if lhs != rhs:
                stats.failures.append(f"doubling parameter not equivariant under {g}")
    return stats
