"""Known answers, computed without the library.

Everything here works from the raw numbers the harness writes into its
inputs.  It shares no code with ``cmperiods``: the comparator's verdict,
the critical window and the base-change counts are derived from their
closed-form descriptions, and the random sweep instances are regenerated
by replaying the documented draws of ``sweeps.random_instance`` on the
same ``random.Random`` stream.
"""

from __future__ import annotations

import random


def critical_window(doubled: dict, pairs: dict, kappa: int, n: int) -> tuple[int, int] | None:
    """(lo, hi] of critical integers of the rank-n datum tensored with the character.

    ``doubled[t]`` holds the doubled parameters 2*A_{t,i} (integers of the
    parity of n-1) and ``pairs[t]`` the exponents (m_t, m_tbar).  The
    tensor has weight w = n-1-kappa and exponents e = -A + (n-1)/2 +
    m_tbar - m_t at t together with w - e at the conjugate place.
    Returns None when w/2 itself occurs (no critical window).
    """
    w = n - 1 - kappa
    exps = set()
    for t, row in doubled.items():
        m_t, m_bar = pairs[t]
        for a2 in row:
            e = (n - 1 - a2) // 2 + m_bar - m_t
            exps.update((e, w - e))
    if any(2 * e == w for e in exps):
        return None
    return max(e for e in exps if 2 * e < w), min(e for e in exps if 2 * e > w)


def admissible_points(doubled: dict, pairs: dict, kappa: int, n: int) -> list[int]:
    """Critical integers m with m > n - kappa/2, where the comparator evaluates."""
    lo, hi = critical_window(doubled, pairs, kappa, n)
    return [m for m in range(lo + 1, hi + 1) if 2 * m > 2 * n - kappa]


def compare_passes(tate: bool, points: list[int]) -> bool:
    """The comparator closes exactly when the period dictionary is on or nothing is compared."""
    return tate or not points


def degenerate(doubled: dict, pairs: dict, kappa: int) -> bool:
    """A vanishing signature comparison 2(m_t - m_tbar) - kappa + 2A = 0."""
    return any(
        2 * (pairs[t][0] - pairs[t][1]) - kappa + a2 == 0 for t, row in doubled.items() for a2 in row
    )


def basechange_checks(m_max: int) -> int:
    """Characters over the 12-value pool for half-ranks 1..m_max, both twist signs."""
    return sum(2 * 12**m for m in range(1, m_max + 1))


# Half-exponent twist patterns of the half-rank-two witness, written over 2.
WITNESS_DIRECT = [[3, 2], [1, 2], [-1, 2], [-3, 2]]
WITNESS_VIA_BC = [[3, 2], [1, 2], [-3, 2], [-1, 2]]


def lemma_d_checks(n_max: int, kappa_max: int, d_max: int, m_extra: int) -> int:
    """Number of (n, m, kappa, d) with n - kappa/2 < m <= n + m_extra."""
    return sum(
        max(0, n + m_extra - (2 * n - kappa) // 2)
        for n in range(1, n_max + 1)
        for kappa in range(kappa_max + 1)
        for _ in range(d_max)
    )


def is_dominant(entries: dict) -> bool:
    return all(a >= b for row in entries.values() for a, b in zip(row, row[1:]))


# Replay of the seeded sweep generators.


def replay_instance(rng: random.Random, b: dict) -> tuple[int, int, int, dict, dict]:
    """(d, n, kappa, pairs, doubled) drawn exactly as ``sweeps.random_instance`` draws them."""
    d = rng.randint(1, b["d_max"])
    n = rng.randint(1, b["n_max"])
    taus = [f"t{i}" for i in range(1, d + 1)]
    kappa = rng.randint(-b["kappa_max"], b["kappa_max"])
    w = rng.randint(-b["m_max"], b["m_max"])
    lo, hi = max(-b["m_max"], w - b["m_max"]), min(b["m_max"], w + b["m_max"])
    allowed = [x for x in range(-b["two_a_max"], b["two_a_max"] + 1) if (x - (n - 1)) % 2 == 0]
    while True:
        pairs = {}
        for t in taus:
            m_t = rng.randint(lo, hi)
            pairs[t] = (m_t, w - m_t)
        doubled = {t: sorted(rng.sample(allowed, n), reverse=True) for t in taus}
        if not degenerate(doubled, pairs, kappa):
            return d, n, kappa, pairs, doubled


def _replay_weight_datum(rng: random.Random) -> None:
    """Consume the draws of the doubling-equivariance half of one equivariance step."""
    d = rng.randint(1, 3)
    n = rng.randint(1, 4)
    for _ in range(d):  # random_dominant_weight: steps and start per place
        for _ in range(n - 1):
            rng.randint(0, 4)
        rng.randint(-8, 8)
    rng.randint(-6, 6)  # a0
    for _ in range(2 * d):  # random_infinity_type over every embedding
        rng.randint(-6, 6)
    for _ in range(d):  # random_signature per place
        rng.randint(0, n)


# A sweep report lists a failing sweep's first 20 failures.
REPORTED_FAILURES = 20


def fully_reported_count(seed: int, bounds: dict, cap: int) -> int:
    """The largest sweep count up to ``cap`` whose comparator sweep has at most
    ``REPORTED_FAILURES`` admissible points, so that with the period
    dictionary off every failing point is listed in the report."""
    rng = random.Random(seed)
    total = 0
    for count in range(cap):
        _, n, kappa, pairs, doubled = replay_instance(rng, bounds)
        total += len(admissible_points(doubled, pairs, kappa, n))
        if total > REPORTED_FAILURES:
            return max(1, count)
    return cap


def expected_sweeps(seed: int, count: int, bounds: dict, tate: bool) -> dict[str, dict]:
    """Expected instances, points, vacuous count, status and listed failures of each ``run_sweeps`` sweep.

    The comparator sweep's failures are the critical integers m of its
    failing points, in order: every admissible point when the period
    dictionary is off, none when it is on.
    """

    def comparator_like(s: int) -> dict:
        rng = random.Random(s)
        points = vacuous = 0
        failing: list[int] = []
        for _ in range(count):
            _, n, kappa, pairs, doubled = replay_instance(rng, bounds)
            pts = admissible_points(doubled, pairs, kappa, n)
            points += len(pts)
            vacuous += not pts
            if not compare_passes(tate, pts):
                failing += pts
        return {
            "instances": count, "points_checked": points, "vacuous": vacuous,
            "status": "fail" if failing else "pass", "failures": failing[:REPORTED_FAILURES],
        }

    def passing(instances: int, points: int = 0) -> dict:
        return {"instances": instances, "points_checked": points, "vacuous": 0, "status": "pass", "failures": []}

    out = {"sweep-compare": comparator_like(seed), "sweep-bounds": comparator_like(seed + 1)}
    out["sweep-bounds"].update(status="pass", failures=[])  # the bounds do not depend on the dictionary
    out["sweep-signature"] = passing(count)
    out["sweep-dominance"] = passing(count)
    rng = random.Random(seed + 4)
    eq_count = max(1, count // 10)
    points = 0
    for _ in range(eq_count):
        d, n, kappa, pairs, doubled = replay_instance(rng, bounds)
        pts = admissible_points(doubled, pairs, kappa, n)
        points += 2 * d * len(pts)  # the cyclic model of degree d has 2d group elements
        _replay_weight_datum(rng)
    # Conjugation never changes a verdict, with the dictionary on or off.
    out["sweep-equivariance"] = passing(eq_count, points)
    return out
