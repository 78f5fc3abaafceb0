import itertools

import pytest

from cmperiods import cmfield
from cmperiods.cmfield import (
    CMFieldModel,
    CMType,
    EmbFamilyModel,
    compose,
    conjugate_cm_type,
    conjugate_signature,
    cyclic_model,
    dihedral_model,
    displacement_sign,
    displacement_sign_invariance,
    klein_model,
    regular_family,
)
from cmperiods.errors import (
    IllPosedModelError,
    InvalidCMTypeError,
    InvalidModelError,
    PreconditionError,
    UnreachablePointError,
)

FOUR = cyclic_model(2)  # embeddings t1,t2,c1,c2; g1 is the 4-cycle t1->t2->c1->c2->t1
PHI = CMType(frozenset({"t1", "t2"}))

MODEL_ZOO = [
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


def identity_name(model):
    return model.name_of({t: t for t in model.embeddings})


class TestModelInvariants:
    def test_conj_fixed_point_rejected(self):
        with pytest.raises(InvalidModelError):
            CMFieldModel(("a", "b"), {"a": "a", "b": "b"}, {"e": {"a": "a", "b": "b"}})

    def test_conj_must_be_involution(self):
        with pytest.raises(InvalidModelError):
            CMFieldModel(
                ("a", "b", "c", "d"),
                {"a": "b", "b": "c", "c": "d", "d": "a"},
                {"e": {t: t for t in "abcd"}},
            )

    def test_group_must_commute_with_conj(self):
        swap_first = {"t1": "t2", "t2": "t1", "c1": "c1", "c2": "c2"}
        group = {"e": {t: t for t in FOUR.embeddings}, "s": swap_first}
        with pytest.raises(InvalidModelError):
            CMFieldModel(FOUR.embeddings, FOUR.conj, group)

    def test_odd_embedding_count_rejected(self):
        with pytest.raises(InvalidModelError):
            CMFieldModel(("a",), {"a": "a"}, {"e": {"a": "a"}})

    def test_group_closure_required(self):
        cycle = FOUR.group["g1"]
        with pytest.raises(InvalidModelError):
            CMFieldModel(FOUR.embeddings, FOUR.conj, {"g1": cycle})

    @pytest.mark.parametrize("model", MODEL_ZOO)
    def test_name_of_agrees_with_a_scan(self, model):
        for name, perm in model.group.items():
            assert model.name_of(dict(perm)) == next(n for n, p in model.group.items() if p == perm) == name
        for g, h in itertools.product(model.group, repeat=2):
            assert model.group[model.compose_names(g, h)] == compose(model.group[g], model.group[h])

    def test_name_of_keeps_the_first_name_of_a_repeated_element(self):
        ident = {t: t for t in FOUR.embeddings}
        model = CMFieldModel(FOUR.embeddings, FOUR.conj, {"one": ident, "e": dict(ident)})
        assert model.name_of(ident) == identity_name(model) == "one"
        assert model.inverse_name("e") == "one"

    def test_name_of_rejects_a_non_member(self):
        swap = {"t1": "t2", "t2": "t1", "c1": "c2", "c2": "c1"}
        with pytest.raises(PreconditionError, match="not a group element"):
            FOUR.name_of(swap)

    def test_zoo_is_valid_and_small(self):
        for model in MODEL_ZOO:
            assert len(model.group) <= 12
            assert len(model.embeddings) == 2 * model.degree_plus


class TestCMType:
    def test_valid(self):
        PHI.validate(FOUR)

    def test_contains_conjugate_pair(self):
        with pytest.raises(InvalidCMTypeError):
            CMType(frozenset({"t1", "c1"})).validate(FOUR)

    def test_not_covering(self):
        with pytest.raises(InvalidCMTypeError):
            CMType(frozenset({"t1"})).validate(FOUR)

    def test_enumeration_counts(self):
        for model in MODEL_ZOO:
            types = list(model.cm_types())
            assert len(types) == 2 ** model.degree_plus
            for phi in types:
                phi.validate(model)


class TestConjugateCMType:
    def test_identity(self):
        assert conjugate_cm_type(FOUR, PHI, "g0") == PHI

    def test_four_cycle(self):
        assert conjugate_cm_type(FOUR, PHI, "g1") == CMType(frozenset({"t2", "c1"}))

    def test_conj_element_gives_conjugate_type(self):
        # g2 is the half turn, i.e. conjugation itself.
        assert FOUR.element("g2") == FOUR.conj
        image = conjugate_cm_type(FOUR, PHI, "g2")
        assert image == CMType(frozenset({"c1", "c2"}))
        image.validate(FOUR)

    def test_output_always_valid(self):
        for model in MODEL_ZOO:
            for phi in model.cm_types():
                for g in model.group:
                    conjugate_cm_type(model, phi, g).validate(model)

    def test_invalid_input_rejected(self):
        with pytest.raises(InvalidCMTypeError):
            conjugate_cm_type(FOUR, CMType(frozenset({"t1", "c1"})), "g0")


class TestDisplacementSign:
    def test_identity(self):
        assert displacement_sign(FOUR, PHI, "g0") == 1

    def test_four_cycle_moves_one_member(self):
        # g1(Phi) = {t2, c1}, so Phi minus its image is {t1}.
        assert displacement_sign(FOUR, PHI, "g1") == -1

    def test_stabilizing_element(self):
        model = klein_model()
        phi = CMType(frozenset({"t1", "t2"}))
        assert conjugate_cm_type(model, phi, "s") == phi
        assert displacement_sign(model, phi, "s") == 1

    def test_square_is_one(self):
        for model in MODEL_ZOO[:4]:
            for phi in model.cm_types():
                for g in model.group:
                    assert displacement_sign(model, phi, g) ** 2 == 1

    def test_sign_of_composition_matches_composed_permutation(self):
        # The sign of a named product equals the sign computed from the raw
        # composite permutation, exhaustively over the zoo.
        for model in MODEL_ZOO:
            phi = model.canonical_cm_type()
            members = phi.members
            for g, h in itertools.product(model.group, repeat=2):
                name = model.compose_names(g, h)
                perm = compose(model.element(g), model.element(h))
                moved = {perm[t] for t in members}
                direct = -1 if len(members - moved) % 2 else 1
                assert displacement_sign(model, phi, name) == direct


def report_for(model, phi, fam):
    """The invariance report of one CM type."""
    (report,) = [r for r in displacement_sign_invariance(model, fam) if r.phi == phi]
    return report


class TestSignFamily:
    def test_trivial_group_constant(self):
        two = cyclic_model(1)
        ident = identity_name(two)
        # Only the identity reaches p in a family where all elements act trivially
        # but have different signs, so restrict the model to the identity.
        model = CMFieldModel(two.embeddings, two.conj, {ident: two.element(ident)})
        fam1 = EmbFamilyModel(points=("p",), base="p", action={ident: {"p": "p"}})
        assert report_for(model, model.canonical_cm_type(), fam1).signs == {"p": 1}

    def test_regular_family_of_the_four_cycle(self):
        fam = regular_family(FOUR)
        signs = report_for(FOUR, PHI, fam).signs
        assert signs == {"g0": 1, "g1": -1, "g2": 1, "g3": -1}

    def test_unreachable_point(self):
        two = cyclic_model(1)
        ident = identity_name(two)
        model = CMFieldModel(two.embeddings, two.conj, {ident: two.element(ident)})
        fam = EmbFamilyModel(points=("p", "q"), base="p", action={ident: {"p": "p", "q": "q"}})
        with pytest.raises(UnreachablePointError, match="^no group element reaches point 'q'$"):
            displacement_sign_invariance(model, fam)

    def test_ill_posed_family(self):
        # Every element fixes the single point, but the 4-cycle has sign -1
        # while the identity has sign +1.
        action = {g: {"p": "p"} for g in FOUR.group}
        fam = EmbFamilyModel(points=("p",), base="p", action=action)
        with pytest.raises(
            IllPosedModelError, match="^point 'p' is reached with both signs; the family is ill posed$"
        ):
            displacement_sign_invariance(FOUR, fam)

    def test_constant_on_stabilizer_orbits(self):
        for model in MODEL_ZOO:
            fam = regular_family(model)
            reports = displacement_sign_invariance(model, fam)
            assert [r.phi for r in reports] == list(model.cm_types())
            for report in reports:
                stab = [g for g in model.group if conjugate_cm_type(model, report.phi, g) == report.phi]
                assert report.stabilizer == tuple(sorted(stab))
                for g in stab:
                    for rho in fam.points:
                        assert report.signs[fam.action[g][rho]] == report.signs[rho]


def scan_realized(model, fam):
    """The compatibility predicate as a full scan: the first unrealized composite, or None."""
    key = CMFieldModel._key
    for g, h in itertools.product(model.group, repeat=2):
        comp_emb = key(compose(model.element(g), model.element(h)))
        comp_pts = compose(fam.action[g], fam.action[h])
        if not any(key(model.element(k)) == comp_emb and fam.action[k] == comp_pts for k in model.group):
            return f"composite of {g!r} and {h!r} is not realized by any named element"
    return None


class TestFamilyValidation:
    SWAP = {"p": "q", "q": "p"}
    FIX = {"p": "p", "q": "q"}

    def family(self, **action):
        return EmbFamilyModel(points=("p", "q"), base="p", action=action)

    def test_base_point_outside_points(self):
        fam = EmbFamilyModel(points=("p", "q"), base="r", action={g: self.FIX for g in FOUR.group})
        with pytest.raises(InvalidModelError, match="^base point is not in the point set$"):
            fam.validate(FOUR)

    def test_action_names_wrong_elements(self):
        missing = {g: self.FIX for g in FOUR.group if g != "g3"}
        extra = dict({g: self.FIX for g in FOUR.group}, h=self.FIX)
        for action in (missing, extra):
            with pytest.raises(InvalidModelError, match="^action must name exactly the model's group elements$"):
                self.family(**action).validate(FOUR)

    def test_action_not_a_permutation(self):
        fam = self.family(g0=self.FIX, g1={"p": "p", "q": "p"}, g2=self.FIX, g3=self.FIX)
        with pytest.raises(InvalidModelError, match="^action of 'g1' is not a permutation of the points$"):
            fam.validate(FOUR)

    def test_composite_not_realized(self):
        # g1 . g2 has the embedding permutation of g3 and the point action
        # SWAP; g3 fixes the points and g1 swaps them, so both halves of the
        # composite occur in the group, but never under one element.
        fam = self.family(g0=self.FIX, g1=self.SWAP, g2=self.FIX, g3=self.FIX)
        expected = "composite of 'g1' and 'g2' is not realized by any named element"
        assert scan_realized(FOUR, fam) == expected
        with pytest.raises(InvalidModelError) as err:
            fam.validate(FOUR)
        assert str(err.value) == expected

    def test_matches_full_scan(self):
        # Every point action of the right shape on two or three points, over
        # small models: validate fails exactly when the scan finds an
        # unrealized composite, with the scan's first failure as its message.
        for model in (cyclic_model(1), FOUR, klein_model()):
            names = list(model.group)
            for n_points in (2, 3):
                points = tuple(f"p{i}" for i in range(n_points))
                perms = [dict(zip(points, image)) for image in itertools.permutations(points)]
                for choice in itertools.product(perms, repeat=len(names)):
                    fam = EmbFamilyModel(points=points, base=points[0], action=dict(zip(names, choice)))
                    expected = scan_realized(model, fam)
                    if expected is None:
                        fam.validate(model)
                        continue
                    with pytest.raises(InvalidModelError) as err:
                        fam.validate(model)
                    assert str(err.value) == expected


class TestInvarianceCheck:
    def test_identity_fixer_passes(self):
        report = report_for(FOUR, PHI, regular_family(FOUR))
        assert report.stabilizer == ("g0",)
        assert report.failures == ()

    def test_full_stabilizer_passes(self):
        model = klein_model()
        phi = CMType(frozenset({"t1", "t2"}))
        report = report_for(model, phi, regular_family(model))
        assert report.stabilizer == ("e", "s")
        assert report.failures == ()

    def test_cm_types_are_not_revalidated(self, monkeypatch):
        # Every CM type comes from model.cm_types(), so none needs validating.
        fam = regular_family(FOUR)
        calls = []
        validate = CMType.validate
        monkeypatch.setattr(CMType, "validate", lambda phi, model: calls.append(phi) or validate(phi, model))
        reports = displacement_sign_invariance(FOUR, fam)
        assert len(reports) == 4
        assert calls == []

    def test_moved_signs_are_listed(self, monkeypatch):
        # A sign of -1 on the coset {s, c} is invariant under translation
        # by sc but not by s, so only the CM types that s stabilizes fail,
        # each at every point s moves.
        image_and_sign = cmfield._image_and_sign
        monkeypatch.setattr(
            cmfield,
            "_image_and_sign",
            lambda model, phi, g: (image_and_sign(model, phi, g)[0], -1 if g in ("s", "c") else 1),
        )
        model = klein_model()
        reports = displacement_sign_invariance(model, regular_family(model))
        failing = {r.phi for r in reports if r.failures}
        assert failing == {r.phi for r in reports if "s" in r.stabilizer}
        assert failing == {CMType(frozenset({"t1", "t2"})), CMType(frozenset({"c1", "c2"}))}
        for report in reports:
            if report.phi in failing:
                assert report.failures == (("s", "c"), ("s", "e"), ("s", "s"), ("s", "sc"))


class TestConjugateSignature:
    SIG = {"t1": (2, 1), "t2": (3, 0)}

    def test_identity(self):
        assert conjugate_signature(FOUR, self.SIG, "g0") == self.SIG

    def test_four_cycle(self):
        out = conjugate_signature(FOUR, self.SIG, "g1")
        assert out == {"t1": (3, 0), "t2": (1, 2)}

    def test_rank_preserved(self):
        for g in FOUR.group:
            out = conjugate_signature(FOUR, self.SIG, g)
            assert all(r + s == 3 for r, s in out.values())

    def test_inverse_round_trip(self):
        for model in MODEL_ZOO:
            phi = model.canonical_cm_type()
            sig = {t: (i % 3, 2 - i % 3) for i, t in enumerate(phi.sorted_members())}
            for g in model.group:
                gi = model.inverse_name(g)
                assert conjugate_signature(model, conjugate_signature(model, sig, g), gi) == sig

    def test_partial_signature_rejected(self):
        with pytest.raises(InvalidCMTypeError) as info:
            conjugate_signature(FOUR, {"t1": (1, 1)}, "g0")
        assert str(info.value) == "CM type does not cover every conjugate pair"
