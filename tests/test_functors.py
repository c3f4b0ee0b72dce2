"""Comparison functors: adjoints, adjunction dimensions,
transport and monodromy."""

import random
from fractions import Fraction

import pytest

from quivsheaf import (
    LinearMap,
    Matrix,
    Presheaf,
    check_adjunction,
    constant_presheaf,
    dualize,
    is_isomorphism,
    left_adjoint_component,
    left_adjoint_literal,
    monodromy_report,
    nat_trans_space,
    transport,
)
from quivsheaf.functors import FunctorError, NotDiscreteSheafError
from quivsheaf.presheaf import is_natural_presheaf
from quivsheaf.quiver import UnknownVertexError

import functor_oracle
from helpers import (
    abc_quiver,
    chain_quiver,
    parallel_quiver,
    random_representation,
    single_edge_quiver,
)


def scaled_parallel_presheaf():
    """a => b with F(e) = id and F(f) = 2 id; locally constant but with
    non-trivial monodromy."""
    q = parallel_quiver()
    return Presheaf(
        q,
        {"a": 1, "b": 1},
        {"e": LinearMap.identity(1), "f": LinearMap.from_rows([[2]])},
    )


def test_literal_adjoint_comparison_is_always_iso():
    # the identity is terminal among morphisms into v, so the pointwise
    # universal construction collapses back to F(v), even for zero maps
    q = abc_quiver()
    F = Presheaf(
        q,
        {"a": 1, "b": 2, "c": 1},
        {"e1": LinearMap.zero(1, 2), "e2": LinearMap.from_rows([[1], [0]])},
    )
    for v in q.vertices:
        rep = left_adjoint_literal(F, v)
        reference = functor_oracle.left_adjoint_literal(F, v)
        assert (rep.dim, rep.comparison_is_iso) == (reference.dim, reference.comparison_is_iso)
        assert rep.dim == F.dim(v)
        assert rep.comparison_is_iso
        assert is_isomorphism(rep.comparison)


def test_literal_adjoint_matches_slice_limit_on_random_presheaves():
    rng = random.Random(31)
    for _ in range(25):
        F = dualize(random_representation(rng))
        for v in F.quiver.vertices:
            rep, reference = left_adjoint_literal(F, v), functor_oracle.left_adjoint_literal(F, v)
            assert (rep.dim, rep.comparison_is_iso) == (reference.dim, reference.comparison_is_iso)


def test_literal_adjoint_builds_no_path_tree():
    # the maximal sieve's one generator is the identity, so F(v) is read as is
    F = constant_presheaf(chain_quiver(4), 2)
    for v in F.quiver.vertices:
        assert left_adjoint_literal(F, v).comparison == LinearMap.identity(2)
    assert vars(F.quiver).get("_sieve_tables", {}) == {}
    assert vars(F.quiver).get("_paths", {}) == {}
    with pytest.raises(UnknownVertexError):
        left_adjoint_literal(F, "nowhere")


def test_component_adjoint_on_chain_is_limit_free_colimit():
    # a -> b with F(e) = 0: the colimit identifies F(b) with the image of
    # F(e) inside F(a)... concretely every class comes from F(a) and F(b)
    # jointly modulo x_b ~ 0, so the collapse has dim F(a)
    q = single_edge_quiver()
    F = Presheaf(q, {"a": 2, "b": 1}, {"e": LinearMap.zero(2, 1)})
    ext = left_adjoint_component(F)
    assert ext.presheaf.dim("a") == ext.presheaf.dim("b") == 2
    assert is_natural_presheaf(F, ext.presheaf, ext.unit)


def test_component_adjoint_constant_on_each_component():
    q = abc_quiver()
    F = constant_presheaf(q, 3)
    ext = left_adjoint_component(F)
    assert {ext.presheaf.dim(v) for v in q.vertices} == {3}
    for e in q.edges:
        assert ext.presheaf.edge_map(e.id).matrix == Matrix.identity(3)
    assert is_natural_presheaf(F, ext.presheaf, ext.unit)


def test_adjunction_dimensions_match_constant_case():
    q = abc_quiver()
    F = constant_presheaf(q, 1)
    G = constant_presheaf(q, 1)
    report = check_adjunction(F, G)
    assert report.left_dim == report.right_dim == 1
    assert report.match and report.unit_spans


def test_adjunction_dimensions_on_random_presheaves():
    from quivsheaf import dualize

    rng = random.Random(5)
    checked = 0
    while checked < 15:
        V = random_representation(rng)
        F = dualize(V)
        G = constant_presheaf(F.quiver, 2)
        report = check_adjunction(F, G)
        # independent solves on both sides of the adjunction must agree
        assert report.left_dim == nat_trans_space(left_adjoint_component(F).presheaf, G)[0]
        assert report.right_dim == nat_trans_space(F, G)[0]
        assert report.match
        checked += 1


def test_adjunction_requires_discrete_right_side():
    q = single_edge_quiver()
    F = constant_presheaf(q, 1)
    bad = Presheaf(q, {"a": 1, "b": 1}, {"e": LinearMap.zero(1, 1)})
    with pytest.raises(NotDiscreteSheafError):
        check_adjunction(F, bad)


def test_transport_directions():
    F = scaled_parallel_presheaf()
    # forward along f applies F(f)^{-1}; backward along e applies F(e)
    m = transport(F, [("f", +1), ("e", -1)], start="a")
    assert m.matrix.entries == (Fraction(1, 2),)
    assert transport(F, [], start="a").matrix == Matrix.identity(1)
    with pytest.raises(FunctorError):
        transport(F, [], start=None)
    with pytest.raises(FunctorError):
        transport(F, [("e", +1), ("f", +1)], start="a")  # breaks at b


def test_transport_needs_invertible_forward_maps():
    q = single_edge_quiver()
    F = Presheaf(q, {"a": 1, "b": 1}, {"e": LinearMap.zero(1, 1)})
    with pytest.raises(NotDiscreteSheafError):
        monodromy_report(F)
    from quivsheaf.functors import NonInvertibleEdgeError

    with pytest.raises(NonInvertibleEdgeError):
        transport(F, [("e", +1)], start="a")
    # backward transport applies the stored map directly, no inverse needed
    assert transport(F, [("e", -1)], start="b").matrix.entries == (Fraction(0),)


def test_monodromy_parallel_pair():
    F = scaled_parallel_presheaf()
    report = monodromy_report(F)
    assert len(report.components) == 1
    comp = report.components[0]
    assert comp.root == "a"
    assert comp.tree_edges == ("e",)
    assert len(comp.cycles) == 1
    cycle = comp.cycles[0]
    assert cycle.edge_id == "f"
    assert cycle.map.matrix.entries == (Fraction(1, 2),)
    assert not cycle.is_identity
    assert not report.all_identity


def test_monodromy_constant_is_identity():
    q = parallel_quiver()
    report = monodromy_report(constant_presheaf(q, 2))
    assert report.all_identity
    assert len(report.components[0].cycles) == 1
    assert report.components[0].cycles[0].is_identity


def test_monodromy_tree_has_no_cycles():
    report = monodromy_report(constant_presheaf(chain_quiver(4), 1))
    assert report.all_identity
    assert report.components[0].cycles == ()
    assert set(report.components[0].tree_edges) == {"e1", "e2", "e3"}


def test_monodromy_is_basepoint_automorphism():
    # the cycle map is an automorphism of the fiber at the base vertex
    F = scaled_parallel_presheaf()
    cycle = monodromy_report(F).components[0].cycles[0]
    assert cycle.map.domain_dim == F.dim(cycle.base_vertex)
    assert is_isomorphism(cycle.map)
