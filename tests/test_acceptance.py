"""Acceptance suite: every criterion at its stated tolerance (exact equality).

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  All arithmetic is exact; there are no numeric tolerances
anywhere, only exact exponent-vector and integer equalities.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from cmperiods.basechange import (
    UnramChar,
    USide,
    commutativity_check,
    linear_modulus_exponents,
    qval,
    sweep_commutativity,
    unitary_modulus_exponents,
)
from cmperiods.cmfield import (
    conjugate_cm_type,
    cyclic_model,
    dihedral_model,
    displacement_sign_family,
    displacement_sign_invariance_check,
    klein_model,
    regular_family,
)
from cmperiods.hecke import conjugate_infinity_type
from cmperiods.hodge import (
    critical_range,
    hodge_exponents,
    hodge_from_arch_params,
    hodge_of_character,
    signature_from_arch,
    signature_from_hodge,
    split_indices,
    tensor_hodge,
    weight_from_arch_params,
)
from cmperiods.periods import Level, compare_automorphic_motivic
from cmperiods.periods import normalizing_factor_closed, normalizing_factor_product
from cmperiods.sweeps import (
    SweepBounds,
    random_dominant_weight,
    random_infinity_type,
    random_instance,
    random_signature,
    run_dominance_sweep,
)
from cmperiods.weights import (
    conjugate_weight,
    doubling_weight,
    is_block_dominant,
    is_dominant,
)

SEED = 20260808
BOUNDS = SweepBounds(n_max=4, d_max=3, two_a_max=15, m_max=6, kappa_max=4)


def announce(number: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {number:2d} ({name}): PASS — {detail}")


@pytest.fixture(scope="module")
def instance_sweep():
    rng = random.Random(SEED)
    return [random_instance(rng, BOUNDS) for _ in range(1000)]


def test_criterion_01_normalizing_factor_mechanization():
    started = time.perf_counter()
    checked = 0
    for n in range(1, 13):
        for kappa in range(0, 5):
            for d in (1, 2, 3):
                for m in range((2 * n - kappa) // 2 + 1, n + 7):
                    assert 2 * m > 2 * n - kappa and m <= n + 6
                    closed = normalizing_factor_closed(n, m, kappa, d)
                    product = normalizing_factor_product(n, m, kappa, d)
                    assert closed == product, (n, m, kappa, d)
                    checked += 1
    elapsed = time.perf_counter() - started
    assert checked > 1000
    assert elapsed < 1.0
    announce(1, "normalizing-factor identity", f"{checked} exact equalities in {elapsed:.2f}s")


def test_criterion_02_deligne_compatibility(instance_sweep):
    started = time.perf_counter()
    points = 0
    for inst in instance_sweep:
        report = compare_automorphic_motivic(inst, level=Level.FGAL, tate=True)
        for p in report.points:
            assert p.equivalent, (inst, p.m, p.residual.describe())
            assert p.residual.is_one()
            assert p.pi_half_observed_shift == p.pi_half_expected_shift
            points += 1
    elapsed = time.perf_counter() - started
    assert len(instance_sweep) >= 1000
    assert points >= 1000
    assert elapsed < 30.0
    announce(
        2,
        "automorphic-motivic compatibility",
        f"{len(instance_sweep)} instances, {points} critical points, zero residuals, {elapsed:.1f}s",
    )


def test_criterion_03_critical_points_satisfy_bounds(instance_sweep):
    # Brute-force oracle: enumerate the critical interval and evaluate every
    # inequality term directly from raw data.
    checked = 0
    for inst in instance_sweep:
        n = inst.ap.n
        kappa = inst.kappa
        counts = signature_from_arch(inst.ap, inst.diffs(), kappa)
        tensor = tensor_hodge(
            hodge_from_arch_params(inst.ap),
            hodge_of_character(inst.model, inst.exp_pairs, kappa),
        )
        crit = critical_range(hodge_exponents(tensor), tensor.weight)
        mu = weight_from_arch_params(inst.ap)
        for m in crit.points():
            if 2 * m <= 2 * n - kappa:
                continue
            checked += 1
            assert 2 * m >= n - kappa
            for t in inst.ap.taus():
                s = counts[t]
                r = n - s
                a = mu.entries[t]
                m_t, m_bar = inst.exp_pairs[t]
                if s < n:
                    assert m <= -a[s] + s + m_t - m_bar - kappa, (inst, m, t)
                if s > 0:
                    assert m <= a[s - 1] + r + m_bar - m_t, (inst, m, t)
    assert checked >= 1000
    announce(3, "critical points satisfy bounds", f"{checked} points re-verified by direct evaluation")


def test_criterion_04_signature_agreement(instance_sweep):
    for inst in instance_sweep:
        counts_arch = signature_from_arch(inst.ap, inst.diffs(), inst.kappa)
        counts_hodge = signature_from_hodge(
            hodge_from_arch_params(inst.ap),
            hodge_of_character(inst.model, inst.exp_pairs, inst.kappa),
            inst.phi(),
        )
        assert counts_arch == counts_hodge, inst
    announce(4, "signature-map agreement", f"exact map equality on {len(instance_sweep)} instances")


def test_criterion_05_split_index_sums(instance_sweep):
    places = 0
    for inst in instance_sweep:
        m_n = hodge_from_arch_params(inst.ap)
        m_1 = hodge_of_character(inst.model, inst.exp_pairs, inst.kappa)
        counts = signature_from_hodge(m_n, m_1, inst.phi())
        for t in inst.phi().sorted_members():
            table = split_indices(inst.ap.n, counts[t])
            assert table.rank_n_sum == 1
            assert table.rank_1_sum == inst.ap.n
            places += 1
    announce(5, "split-index sums", f"sums 1 and n at {places} places")


def test_criterion_06_base_change_commutativity():
    started = time.perf_counter()
    characters = 0
    for rep in sweep_commutativity(4):
        assert rep.weyl_equivalent
        characters += 1
    characters //= 2  # each character is swept with both signs
    witness = commutativity_check(UnramChar(USide(2), (qval(2, 0), qval(1, 1))), -1)
    assert witness.pattern_via_bc == (
        Fraction(3, 2),
        Fraction(1, 2),
        Fraction(-3, 2),
        Fraction(-1, 2),
    )
    assert witness.pattern_direct == (
        Fraction(3, 2),
        Fraction(1, 2),
        Fraction(-1, 2),
        Fraction(-3, 2),
    )
    assert not witness.patterns_equal_as_tuples
    assert witness.patterns_weyl_equivalent
    assert witness.weyl_equivalent
    elapsed = time.perf_counter() - started
    assert characters >= 10**4
    assert elapsed < 5.0
    announce(
        6,
        "base-change commutativity",
        f"{characters} characters, both signs, witness reproduced, {elapsed:.1f}s",
    )


def test_criterion_07_modulus_sequences():
    for m in range(1, 7):
        expected_u = tuple(Fraction(2 * m - 1 - 2 * i, 2) for i in range(m))
        expected_gl = tuple(Fraction(2 * m - 1 - 2 * i, 2) for i in range(2 * m))
        assert unitary_modulus_exponents(m) == expected_u
        assert linear_modulus_exponents(2 * m) == expected_gl
        assert expected_gl[:m] == expected_u
        assert expected_gl[m:] == tuple(-e for e in reversed(expected_u))
    assert unitary_modulus_exponents(1) == (Fraction(1, 2),)
    assert linear_modulus_exponents(2) == (Fraction(1, 2), Fraction(-1, 2))
    assert linear_modulus_exponents(4) == (
        Fraction(3, 2),
        Fraction(1, 2),
        Fraction(-1, 2),
        Fraction(-3, 2),
    )
    announce(7, "modulus exponent sequences", "unitary and linear sides match for m <= 6")


def test_criterion_08_sign_family_invariance():
    zoo = [
        cyclic_model(1),
        cyclic_model(2),
        cyclic_model(3),
        cyclic_model(4),
        cyclic_model(5),
        cyclic_model(6),
        klein_model(),
        dihedral_model(2),
        dihedral_model(3),
    ]
    models = types = checks = 0
    for model in zoo:
        assert len(model.group) <= 12
        fam = regular_family(model)
        models += 1
        for phi in model.cm_types():
            types += 1
            signs = displacement_sign_family(model, phi, fam)
            stab = {g for g in model.group if conjugate_cm_type(model, phi, g) == phi}
            report = displacement_sign_invariance_check(model, phi, fam, stab)
            assert report.passed, (model, phi)
            for g in stab:
                for rho in fam.points:
                    checks += 1
                    assert signs[fam.action[g][rho]] == signs[rho]
    announce(
        8,
        "sign-family invariance",
        f"{models} models, {types} CM types, {checks} exhaustive stabilizer checks",
    )


def test_criterion_09_galois_equivariance(instance_sweep):
    # Comparator verdicts are unchanged under conjugating the whole instance.
    conjugated = 0
    for inst in instance_sweep[:150]:
        base = compare_automorphic_motivic(inst)
        for g in sorted(inst.model.group):
            conj = compare_automorphic_motivic(inst.conjugated(g))
            assert [p.m for p in conj.points] == [p.m for p in base.points]
            assert all(p.equivalent for p in conj.points) == all(
                p.equivalent for p in base.points
            )
            conjugated += 1

    # Action laws and the doubling-parameter identity on random weight data.
    rng = random.Random(SEED + 9)
    identities = 0
    for _ in range(120):
        model = random.Random(rng.random()).choice(
            [cyclic_model(1), cyclic_model(2), cyclic_model(3), klein_model()]
        )
        n = rng.randint(1, 4)
        mu = random_dominant_weight(rng, model, n)
        psi = random_infinity_type(rng, model)
        sig = random_signature(rng, model, n)
        lam = doubling_weight(mu, psi, sig)
        for g, h in itertools.product(sorted(model.group), repeat=2):
            gh = model.compose_names(g, h)
            assert conjugate_infinity_type(psi, gh) == conjugate_infinity_type(
                conjugate_infinity_type(psi, h), g
            )
            assert conjugate_weight(conjugate_weight(mu, h, model), g, model) == conjugate_weight(
                mu, model.compose_names(h, g), model
            )
        for g in sorted(model.group):
            lhs = doubling_weight(
                conjugate_weight(mu, g, model),
                conjugate_infinity_type(psi, model.inverse_name(g)),
                sig.conjugated(model, g),
            )
            assert lhs == conjugate_weight(lam, g, model)
            identities += 1
    announce(
        9,
        "Galois equivariance",
        f"{conjugated} conjugated comparisons, {identities} doubling-parameter identities",
    )


def test_criterion_10_dominance_preservation():
    stats = run_dominance_sweep(SEED + 10, 10_000, n_max=8)
    assert stats.instances == 10_000
    assert stats.ok, stats.failures[:3]
    # Direct spot re-verification on a fresh stream.
    rng = random.Random(SEED + 11)
    for _ in range(500):
        model = cyclic_model(rng.randint(1, 3))
        n = rng.randint(1, 8)
        mu = random_dominant_weight(rng, model, n)
        psi = random_infinity_type(rng, model)
        sig = random_signature(rng, model, n)
        assert is_dominant(mu)
        assert is_block_dominant(doubling_weight(mu, psi, sig), sig)
    announce(10, "dominance preservation", "10500 random dominant inputs, block dominance kept")
