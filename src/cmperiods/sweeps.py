"""Seeded randomized sweeps over regular instances.

Shared by the command-line ``sweep`` subcommand and the acceptance
suite.  Every sweep consumes an instance source, an iterable of the
items it checks, and returns a small stats object.  The sources here
(``seeded_instances`` and ``weight_data``) draw lazily from a caller's
``random.Random``, so runs are reproducible byte for byte.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .cmfield import CMFieldModel, cyclic_model
from .hecke import InfinityType
from .hodge import (
    ArchParams,
    InstanceAnalysis,
    analyze_instance,
    critical_points_satisfy_bounds,
    split_index_failures,
)
from .periods import Level, compare_automorphic_motivic
from .weights import (
    Signature,
    WeightParam,
    doubling_equivariance_failures,
    doubling_weight,
    is_block_dominant,
    is_dominant,
)


class SweepBounds(NamedTuple):
    n_max: int = 4
    d_max: int = 3
    two_a_max: int = 15
    m_max: int = 6
    kappa_max: int = 4


DEFAULT_BOUNDS = SweepBounds()

_MODEL_CACHE: dict[int, tuple[CMFieldModel, tuple[str, ...]]] = {}


def _model(d: int) -> tuple[CMFieldModel, tuple[str, ...]]:
    """The cyclic model of degree ``d`` and its places t1, ..., td, in order."""
    if d not in _MODEL_CACHE:
        _MODEL_CACHE[d] = cyclic_model(d), tuple(f"t{i}" for i in range(1, d + 1))
    return _MODEL_CACHE[d]


def random_instance(rng: random.Random, bounds: SweepBounds = DEFAULT_BOUNDS) -> InstanceAnalysis:
    """A random regular instance within the given bounds, analysed.

    The archimedean parameters are strictly decreasing half-integers of
    the right parity, the character exponents share one weight, and every
    signature comparison is resampled away from zero.
    """
    d = rng.randint(1, bounds.d_max)
    n = rng.randint(1, bounds.n_max)
    model, taus = _model(d)
    kappa = rng.randint(-bounds.kappa_max, bounds.kappa_max)
    w = rng.randint(-bounds.m_max, bounds.m_max)
    lo = max(-bounds.m_max, w - bounds.m_max)
    hi = min(bounds.m_max, w + bounds.m_max)
    # The doubled values in [-two_a_max, two_a_max] of the parity of n - 1.
    allowed = range(-bounds.two_a_max + (bounds.two_a_max + n - 1) % 2, bounds.two_a_max + 1, 2)
    while True:
        pairs = {}
        for t in taus:
            m_t = rng.randint(lo, hi)
            pairs[t] = (m_t, w - m_t)
        doubled = {t: tuple(sorted(rng.sample(allowed, n), reverse=True)) for t in taus}
        degenerate = any(
            2 * (m_t - m_bar) - kappa + a == 0
            for t, (m_t, m_bar) in pairs.items()
            for a in doubled[t]
        )
        if degenerate:
            continue
        return analyze_instance(ArchParams(doubled, n, model), pairs, kappa)


def seeded_instances(rng: random.Random, count: int, bounds: SweepBounds) -> Iterator[InstanceAnalysis]:
    """``count`` random instances drawn lazily from ``rng``, one per step."""
    for _ in range(count):
        yield random_instance(rng, bounds)


def _halved(ap: ArchParams) -> dict[str, tuple[Fraction, ...]]:
    """The parameters themselves, as a failure message prints them."""
    return {t: tuple(Fraction(a, 2) for a in row) for t, row in ap.doubled.items()}


class SweepStats:
    def __init__(self):
        self.instances = self.points_checked = self.vacuous = 0
        self.failures: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures


def run_compare_sweep(
    instances: Iterable[InstanceAnalysis], level: Level = Level.FGAL, tate: bool = True
) -> SweepStats:
    """Comparator verdicts over the instances at every admissible point."""
    stats = SweepStats()
    for inst in instances:
        report = compare_automorphic_motivic(inst, level=level, tate=tate)
        stats.instances += 1
        stats.points_checked += len(report.points)
        if report.vacuous:
            stats.vacuous += 1
        for point in report.points:
            if not point.equivalent:
                stats.failures.append(
                    f"m={point.m} residual {point.residual.describe()} (instance {_halved(inst.ap)})"
                )
    return stats


def run_bounds_sweep(instances: Iterable[InstanceAnalysis]) -> SweepStats:
    """Critical points above the threshold satisfy the evaluation bounds."""
    stats = SweepStats()
    for inst in instances:
        report = critical_points_satisfy_bounds(inst)
        stats.instances += 1
        stats.points_checked += len(report.points_checked)
        if report.vacuous:
            stats.vacuous += 1
        if not report.ok:
            stats.failures.append(f"violation at {report.first_violation}")
    return stats


def run_signature_sweep(instances: Iterable[InstanceAnalysis]) -> SweepStats:
    """Signature maps agree across the two dictionaries and split sums hold."""
    stats = SweepStats()
    for inst in instances:
        stats.instances += 1
        counts_arch, counts_hodge = inst.counts_arch, inst.counts_hodge
        if counts_arch != counts_hodge:
            stats.failures.append(f"signature mismatch {counts_arch} vs {counts_hodge}")
            continue
        stats.failures.extend(split_index_failures(inst))
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


def random_infinity_type(rng: random.Random, model: CMFieldModel) -> InfinityType:
    return InfinityType({t: rng.randint(-6, 6) for t in model.embeddings}, model)


def random_signature(rng: random.Random, model: CMFieldModel, n: int) -> Signature:
    taus = model.canonical_cm_type().sorted_members()
    return Signature({t: (lambda r: (r, n - r))(rng.randint(0, n)) for t in taus}, n)


WeightDatum = tuple[WeightParam, InfinityType, Signature]  # dominant weight, psi, signature


def weight_data(rng: random.Random, n_max: int) -> Iterator[WeightDatum]:
    """Endless weight data on cyclic models of degree 1 to 3, at rank 1 to ``n_max``."""
    while True:
        model, _ = _model(rng.randint(1, 3))
        n = rng.randint(1, n_max)
        mu = random_dominant_weight(rng, model, n)
        yield mu, random_infinity_type(rng, model), random_signature(rng, model, n)


def run_dominance_sweep(data: Iterable[WeightDatum]) -> SweepStats:
    """Doubling parameters of dominant inputs are block dominant."""
    stats = SweepStats()
    for mu, psi, sig in data:
        stats.instances += 1
        if not is_dominant(mu):
            stats.failures.append("generator produced a non-dominant weight")
            continue
        lam = doubling_weight(mu, psi, sig)
        if not is_block_dominant(lam, sig):
            stats.failures.append(f"dominance lost for {mu} with {sig}")
    return stats


def run_equivariance_sweep(
    pairs: Iterable[tuple[InstanceAnalysis, WeightDatum]], level: Level = Level.FGAL, tate: bool = True
) -> SweepStats:
    """Conjugating an instance by any group element preserves every verdict.

    Each instance's paired weight datum checks weight conjugation against
    the doubling parameter: transporting the inputs and transporting the
    output agree, with the character moved by the inverse element.
    """
    stats = SweepStats()
    for inst, (mu, psi, sig) in pairs:
        base = compare_automorphic_motivic(inst, level=level, tate=tate)
        stats.instances += 1
        for g in sorted(inst.model.group):
            conj = inst.conjugated(g)
            if conj.exponents != inst.exponents:
                stats.failures.append(f"exponent set moved under {g}")
                continue
            report = compare_automorphic_motivic(conj, level=level, tate=tate)
            stats.points_checked += len(report.points)
            if [p.m for p in report.points] != [p.m for p in base.points]:
                stats.failures.append(f"critical points moved under {g}")
            for a, b in zip(report.points, base.points):
                if a.equivalent != b.equivalent:
                    stats.failures.append(f"verdict changed under {g} at m={a.m}")
        for g in doubling_equivariance_failures(mu, psi, sig, doubling_weight(mu, psi, sig)):
            stats.failures.append(f"doubling parameter not equivariant under {g}")
    return stats
