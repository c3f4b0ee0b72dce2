"""The equalizer sheaf checker: section maps, compatible families,
gluing, and the closed-form discrete criterion."""

import random
from fractions import Fraction

import pytest

from quivsheaf import (
    LinearMap,
    Presheaf,
    SectionFamily,
    TopologySpec,
    compatibility_space,
    constant_presheaf,
    cross_validate_discrete,
    dualize,
    generate_sieve,
    glue,
    is_discrete_sheaf_criterion,
    is_sheaf,
    is_sheaf_for_sieve,
    maximal_sieve,
    section_map,
    edge_morphism,
    identity_morphism,
)
from quivsheaf.sheaf import EPSILON_NOT_INJECTIVE, FAMILY_NOT_GLUED
from quivsheaf.sieves import NotASieveError, TooManyMorphismsError, _vertex_table

from helpers import (
    abc_quiver,
    chain_quiver,
    parallel_quiver,
    random_representation,
    single_edge_quiver,
)


def projection_presheaf():
    """F(b) = k^2, F(a) = k, F(e) the first-coordinate projection."""
    q = single_edge_quiver()
    return q, Presheaf(
        q, {"a": 1, "b": 2}, {"e": LinearMap.from_rows([[1, 0]])}
    )


def test_section_map_stacks_restrictions():
    q = single_edge_quiver()
    F = constant_presheaf(q, 1)
    s = maximal_sieve(q, "b")
    eps = section_map(F, s)
    assert eps.matrix.to_rows() == [[1], [1]]


def test_compatibility_space_forces_equal_sections():
    # family on {id_b, e}: the restriction equation forces s_id = s_e
    q = single_edge_quiver()
    F = constant_presheaf(q, 1)
    s = maximal_sieve(q, "b")
    dim, families = compatibility_space(F, s)
    assert dim == 1
    fam = families[0]
    id_b = identity_morphism("b")
    e = edge_morphism(q.edge("e"))
    assert fam.sections[id_b] == fam.sections[e]


def test_glue_returns_identity_section():
    q = single_edge_quiver()
    F = constant_presheaf(q, 1)
    s = maximal_sieve(q, "b")
    id_b = identity_morphism("b")
    e = edge_morphism(q.edge("e"))
    fam = SectionFamily(s, {id_b: (Fraction(5),), e: (Fraction(5),)})
    assert glue(F, fam) == (Fraction(5),)
    # an incompatible family does not glue
    bad = SectionFamily(s, {id_b: (Fraction(1),), e: (Fraction(2),)})
    assert glue(F, bad) is None


def test_glue_without_identity_member():
    q = single_edge_quiver()
    F = constant_presheaf(q, 1)
    s = generate_sieve(q, "b", [edge_morphism(q.edge("e"))])
    assert not s.contains(identity_morphism("b"))
    fam = SectionFamily(s, {edge_morphism(q.edge("e")): (Fraction(3),)})
    assert glue(F, fam) == (Fraction(3),)


def test_constant_presheaf_is_sheaf_everywhere():
    for q in (single_edge_quiver(), abc_quiver(), chain_quiver(4)):
        F = constant_presheaf(q, 2)
        assert is_sheaf(F, TopologySpec.coarse()).holds
        assert is_sheaf(F, TopologySpec.discrete()).holds
        assert is_discrete_sheaf_criterion(F)


def test_projection_rejected_for_discrete_with_witness():
    q, F = projection_presheaf()
    verdict = is_sheaf(F, TopologySpec.discrete())
    assert not verdict.holds
    assert verdict.vertex == "b"
    assert verdict.failing_sieve.labels() == ["e"]
    assert verdict.diagnosis == EPSILON_NOT_INJECTIVE
    assert not is_discrete_sheaf_criterion(F)
    # but the coarse check passes: the identity is in the only covering sieve
    assert is_sheaf(F, TopologySpec.coarse()).holds


def test_gluing_failure_diagnosis_with_witness():
    # dual direction: F(b) = k, F(a) = k^2, F(e) includes k into k^2;
    # the sieve {e} has a 2-dimensional compatibility space but only a
    # 1-dimensional image, so some compatible family never glues
    q = single_edge_quiver()
    F = Presheaf(q, {"a": 2, "b": 1}, {"e": LinearMap.from_rows([[1], [0]])})
    s = generate_sieve(q, "b", [edge_morphism(q.edge("e"))])
    verdict = is_sheaf_for_sieve(F, s)
    assert not verdict.holds
    assert verdict.diagnosis == FAMILY_NOT_GLUED
    witness = verdict.witness
    assert witness is not None
    # the witness is compatible but has no preimage under the section map
    assert glue(F, witness) is None


def test_dualized_representations_are_coarse_sheaves():
    rng = random.Random(2026)
    for _ in range(40):
        V = random_representation(rng)
        assert is_sheaf(dualize(V), TopologySpec.coarse()).holds


def test_graded_decides_without_listing_sieves():
    # graded:n has exactly coarse's covering sieve, the maximal one, so
    # is_sheaf needs no list of sieves and gives coarse's verdicts
    rng = random.Random(29)
    for _ in range(10):
        F = dualize(random_representation(rng))
        q = F.quiver
        assert is_sheaf(F, TopologySpec.length_graded(2)) == is_sheaf(F, TopologySpec.coarse())
        assert all(_vertex_table(q, v)._sieve_masks is None for v in q.vertices)
    # the limit that listing the sieves had still applies
    F = constant_presheaf(chain_quiver(4), 1)
    with pytest.raises(TooManyMorphismsError):
        is_sheaf(F, TopologySpec.length_graded(2), limit=2)
    assert is_sheaf(F, TopologySpec.coarse(), limit=2).holds


def test_image_contained_in_compatibility_space():
    rng = random.Random(11)
    for _ in range(20):
        V = random_representation(rng)
        F = dualize(V)
        q = F.quiver
        for v in q.vertices:
            s = maximal_sieve(q, v)
            eps = section_map(F, s)
            for j in range(F.dim(v)):
                col = eps.matrix.col(j)
                fam = SectionFamily.from_vector(F, s, col)
                assert glue(F, fam) is not None


def test_glue_round_trip_on_holding_sieves():
    rng = random.Random(12)
    for _ in range(20):
        V = random_representation(rng)
        F = dualize(V)
        q = F.quiver
        for v in q.vertices:
            s = maximal_sieve(q, v)
            if not is_sheaf_for_sieve(F, s).holds:
                continue
            eps = section_map(F, s)
            for j in range(F.dim(v)):
                basis_vec = tuple(
                    Fraction(1) if i == j else Fraction(0) for i in range(F.dim(v))
                )
                fam = SectionFamily.from_vector(F, s, eps.apply(basis_vec))
                assert glue(F, fam) == basis_vec


def test_empty_sieve_only_zero_space_is_sheaf():
    q = single_edge_quiver()
    empty = generate_sieve(q, "b", [])
    F = constant_presheaf(q, 1)
    assert not is_sheaf_for_sieve(F, empty).holds
    Z = Presheaf(q, {"a": 0, "b": 0}, {"e": LinearMap.zero(0, 0)})
    assert is_sheaf_for_sieve(Z, empty).holds


def test_recorder_sees_every_checked_sieve():
    q = abc_quiver()
    F = constant_presheaf(q, 1)
    seen = []
    is_sheaf(F, TopologySpec.discrete(), recorder=lambda f, s, v: seen.append(s))
    # every nonempty sieve on every vertex is visited for the discrete check
    assert len(seen) == (1) + (2) + (3)  # a: 1 sieve; b: 2; c: 3 nonempty


def test_cross_validation_agrees_on_single_edge():
    q, F = projection_presheaf()
    report = cross_validate_discrete(F, q)
    assert report.agree
    assert not report.criterion_holds


def test_cross_validation_disagrees_on_parallel_pair():
    # constant presheaf on a => b: all edge maps are isomorphisms, but the
    # sieve {e, f} admits compatible families with s_e != s_f that cannot
    # come from one section, so the definitional checker refuses
    q = parallel_quiver()
    F = constant_presheaf(q, 1)
    report = cross_validate_discrete(F, q)
    assert report.criterion_holds
    assert not report.definitional.holds
    assert not report.agree
    assert report.separating_sieve is not None
    assert report.separating_sieve.labels() == ["e", "f"]


def test_unclosed_sieve_rejected_not_misdecided():
    q = abc_quiver()
    F = constant_presheaf(q, 1)
    from quivsheaf import PathMorphism, Sieve

    closed = Sieve("c", frozenset({PathMorphism("a", "c", ("e1", "e2"))}))
    assert is_sheaf_for_sieve(F, closed).holds
    # {e2} alone is not precomposition-closed; the sheaf functions must
    # fail loudly instead of returning a verdict
    unclosed = Sieve("c", frozenset({PathMorphism("b", "c", ("e2",))}))
    with pytest.raises(NotASieveError):
        is_sheaf_for_sieve(F, unclosed)
    with pytest.raises(NotASieveError):
        section_map(F, unclosed)
    with pytest.raises(NotASieveError):
        compatibility_space(F, unclosed)
    with pytest.raises(NotASieveError):
        glue(F, SectionFamily(unclosed, {PathMorphism("b", "c", ("e2",)): (1,)}))
    # a morphism into another vertex is no member of a sieve on c
    stray = Sieve("c", frozenset({PathMorphism("a", "b", ("e1",))}))
    with pytest.raises(NotASieveError):
        is_sheaf_for_sieve(F, stray)
