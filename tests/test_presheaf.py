"""Presheaves, representations, dualization and hom-space computation."""

import random
from fractions import Fraction

import pytest

from quivsheaf import (
    LinearMap,
    Matrix,
    NatTrans,
    Presheaf,
    Representation,
    TopologySpec,
    compose,
    constant_presheaf,
    dualize,
    dualize_morphism,
    edge_morphism,
    eval_presheaf,
    eval_representation,
    generate_sieve,
    hom,
    is_sheaf,
    is_sheaf_for_sieve,
    maximal_sieve,
    morphisms_into,
    nat_trans_space,
    section_map,
)
from quivsheaf.functors import left_adjoint_literal
from quivsheaf.presheaf import (
    DimensionMismatchError,
    NotNaturalError,
    identity_nat_trans,
    is_natural_presheaf,
    is_natural_representation,
    naturality_failures,
    path_maps,
)
from quivsheaf.sheaf import EPSILON_NOT_INJECTIVE

from helpers import (
    abc_quiver,
    chain_quiver,
    make_edge_maps_drift,
    parallel_quiver,
    random_representation,
    single_edge_quiver,
)


def two_step_presheaf():
    q = abc_quiver()
    m1 = LinearMap.from_rows([[1, 2], [3, 4]])  # F(e1): F(b) -> F(a)
    m2 = LinearMap.from_rows([[5, 6], [7, 8]])  # F(e2): F(c) -> F(b)
    return q, Presheaf(q, {"a": 2, "b": 2, "c": 2}, {"e1": m1, "e2": m2})


def test_shape_validation():
    q = abc_quiver()
    with pytest.raises(DimensionMismatchError):
        Presheaf(q, {"a": 1, "b": 1}, {})
    with pytest.raises(DimensionMismatchError):
        Presheaf(
            q,
            {"a": 1, "b": 2, "c": 1},
            {"e1": LinearMap.identity(1), "e2": LinearMap.identity(1)},
        )
    with pytest.raises(DimensionMismatchError):
        Representation(
            q,
            {"a": 1, "b": 2, "c": 1},
            {"e1": LinearMap.identity(1), "e2": LinearMap.identity(1)},
        )


def test_eval_composition_convention():
    q, F = two_step_presheaf()
    p = compose(edge_morphism(q.edge("e1")), edge_morphism(q.edge("e2")))
    # contravariant: the matrix of the two-edge path is M(e1) . M(e2)
    expected = F.edge_map("e1").matrix @ F.edge_map("e2").matrix
    assert eval_presheaf(F, p).matrix == expected
    assert eval_presheaf(F, p).domain_dim == F.dim("c")
    assert eval_presheaf(F, p).codomain_dim == F.dim("a")


def test_eval_representation_convention():
    q = abc_quiver()
    V = Representation(
        q,
        {"a": 1, "b": 1, "c": 1},
        {"e1": LinearMap.from_rows([[2]]), "e2": LinearMap.from_rows([[3]])},
    )
    p = hom(q, "a", "c")[0]
    assert eval_representation(V, p).matrix.entries == (Fraction(6),)


def test_eval_functoriality_exhaustive():
    q, F = two_step_presheaf()
    for v in q.vertices:
        for p in morphisms_into(q, v):
            for g in morphisms_into(q, p.source):
                lhs = eval_presheaf(F, compose(g, p))
                rhs = eval_presheaf(F, g) @ eval_presheaf(F, p)
                assert lhs.matrix == rhs.matrix


def test_path_maps_match_eval_presheaf():
    rng = random.Random(5)
    for _ in range(25):
        F = dualize(random_representation(rng))
        q = F.quiver
        for v in q.vertices:
            assert path_maps(F, v) == [eval_presheaf(F, p).matrix for p in morphisms_into(q, v)]
        # every vertex's table is held by the presheaf, built once
        assert set(F._path_maps) == set(q.vertices)
        assert path_maps(F, q.vertices[-1]) is F._path_maps[q.vertices[-1]]


def test_path_maps_check_functoriality(monkeypatch):
    # whatever builds c's table checks it: under drifting edge maps every
    # route to the table raises instead of deciding on a broken one
    q, F = two_step_presheaf()
    a_to_c = compose(edge_morphism(q.edge("e1")), edge_morphism(q.edge("e2")))
    routes = [
        lambda G: path_maps(G, "c"),
        lambda G: is_sheaf(G, TopologySpec.discrete()),
        lambda G: is_sheaf_for_sieve(G, generate_sieve(q, "c", [a_to_c])),
        lambda G: section_map(G, maximal_sieve(q, "c")),
    ]
    for route in routes:
        with monkeypatch.context() as patch:
            make_edge_maps_drift(patch)
            G = Presheaf(q, F.dims, F.edge_maps)
            with pytest.raises(AssertionError, match="into 'c' are not functorial along the paths from 'b'"):
                route(G)


def test_sheaf_decisions_that_read_no_map_build_no_table():
    rng = random.Random(3)
    for _ in range(10):
        F = dualize(random_representation(rng))
        for t in ("coarse", "graded:0", "graded:2"):
            assert is_sheaf(F, TopologySpec.parse(t)).holds
        for v in F.quiver.vertices:
            assert left_adjoint_literal(F, v).comparison_is_iso
        # the identity generator alone needs no path map
        assert F._path_maps == {}
    # sigma = dim F(a) = 1 < dim F(b) = 2 fails on dimensions
    q = single_edge_quiver()
    F = Presheaf(q, {"a": 1, "b": 2}, {"e": LinearMap.from_rows([[1, 0]])})
    verdict = is_sheaf(F, TopologySpec.discrete())
    assert (verdict.vertex, verdict.failing_sieve.labels(), verdict.diagnosis) == ("b", ["e"], EPSILON_NOT_INJECTIVE)
    assert "b" not in F._path_maps


def test_dualize_transposes_and_is_involutive():
    rng = random.Random(7)
    for _ in range(25):
        V = random_representation(rng)
        F = dualize(V)
        for e in V.quiver.edges:
            assert F.edge_map(e.id).matrix == V.edge_map(e.id).matrix.transpose()
        # dual commutes with path evaluation
        for v in V.quiver.vertices:
            for p in morphisms_into(V.quiver, v):
                assert (
                    eval_presheaf(F, p).matrix
                    == eval_representation(V, p).matrix.transpose()
                )
        back = Representation(F.quiver, dict(F.dims), {
            e: LinearMap(m.matrix.transpose()) for e, m in F.edge_maps.items()
        })
        for e in V.quiver.edges:
            assert back.edge_map(e.id).matrix == V.edge_map(e.id).matrix


def test_dualize_morphism_reverses_direction():
    q = chain_quiver(2)
    V = Representation(q, {"v1": 1, "v2": 1}, {"e1": LinearMap.from_rows([[2]])})
    W = Representation(q, {"v1": 1, "v2": 1}, {"e1": LinearMap.from_rows([[2]])})
    eta = NatTrans({"v1": LinearMap.from_rows([[3]]), "v2": LinearMap.from_rows([[3]])})
    assert is_natural_representation(V, W, eta)
    dual = dualize_morphism(V, W, eta)
    assert is_natural_presheaf(dualize(W), dualize(V), dual)
    bad = NatTrans({"v1": LinearMap.from_rows([[1]]), "v2": LinearMap.from_rows([[5]])})
    with pytest.raises(NotNaturalError):
        dualize_morphism(V, W, bad)


def test_nat_trans_space_contains_identity():
    q, F = two_step_presheaf()
    dim, basis = nat_trans_space(F, F)
    assert dim >= 1
    # the identity must lie in the span: solve for coordinates
    target = []
    for v in q.vertices:
        target.extend(Matrix.identity(F.dim(v)).entries)
    columns = []
    for eta in basis:
        col = []
        for v in q.vertices:
            col.extend(eta.component(v).matrix.entries)
        columns.append(col)
    stacked = Matrix.from_rows(
        [[columns[k][i] for k in range(dim)] for i in range(len(target))], dim
    )
    from quivsheaf import solve

    assert solve(stacked, target) is not None


def test_nat_trans_space_hand_example():
    # F = G on a single edge with F(e) = [[2]]: eta_a * 2 = 2 * eta_b
    # forces eta_a = eta_b, a one-dimensional space
    q = chain_quiver(2)
    F = Presheaf(q, {"v1": 1, "v2": 1}, {"e1": LinearMap.from_rows([[2]])})
    dim, basis = nat_trans_space(F, F)
    assert dim == 1
    eta = basis[0]
    assert eta.component("v1").matrix == eta.component("v2").matrix


def test_nat_trans_space_constant_to_constant():
    # on a connected quiver, maps between constant presheaves are constant
    # matrices: dimension m * n
    q = abc_quiver()
    for m, n in [(1, 1), (1, 2), (2, 2)]:
        F = constant_presheaf(q, m)
        G = constant_presheaf(q, n)
        dim, basis = nat_trans_space(F, G)
        assert dim == m * n
        for eta in basis:
            assert eta.component("a").matrix == eta.component("b").matrix


def test_nat_trans_space_tree_with_isomorphisms():
    # with all edge maps invertible on a chain, a transformation F -> F is
    # determined by its component at one vertex: dim = (dim at root)^2
    q = chain_quiver(3)
    F = Presheaf(
        q,
        {"v1": 2, "v2": 2, "v3": 2},
        {
            "e1": LinearMap.from_rows([[1, 1], [0, 1]]),
            "e2": LinearMap.from_rows([[2, 0], [0, 1]]),
        },
    )
    dim, _ = nat_trans_space(F, F)
    assert dim == 4


def test_nat_trans_space_zero_target():
    q = chain_quiver(2)
    F = constant_presheaf(q, 2)
    G = Presheaf(q, {"v1": 0, "v2": 0}, {"e1": LinearMap.zero(0, 0)})
    dim, basis = nat_trans_space(F, G)
    assert dim == 0 and basis == []


def test_identity_nat_trans_is_natural():
    q, F = two_step_presheaf()
    assert is_natural_presheaf(F, F, identity_nat_trans(F))


def natural_by_hand(F, G, eta):
    """G(e) . eta_t = eta_s . F(e) on every edge, one transformation at a time."""
    return all(
        G.edge_map(e.id).matrix @ eta.component(e.dst).matrix == eta.component(e.src).matrix @ F.edge_map(e.id).matrix
        for e in F.quiver.edges
    )


def broken_at(eta, v):
    """eta with 1 added to the first entry of its component at v."""
    m = eta.component(v).matrix
    entries = (m.entries[0] + 1,) + m.entries[1:]
    return NatTrans({**eta.components, v: LinearMap(Matrix(m.rows, m.cols, entries))})


def test_batched_naturality_flags_exactly_the_broken_transformation():
    # every dualized random representation to the constant presheaf of dim
    # 2, with some zero-dimensional vertices, so that components can be empty
    rng = random.Random(3)
    cases = flagged = 0
    while cases < 200:
        F = dualize(random_representation(rng))
        q = F.quiver
        G = Presheaf(q, {v: 0 if v == q.vertices[-1] else 2 for v in q.vertices}, {
            e.id: LinearMap.identity(2) if e.dst != q.vertices[-1] else LinearMap.zero(2, 0) for e in q.edges
        })
        _, basis = nat_trans_space(F, G)
        # scaled copies give lists of several natural transformations
        etas = [NatTrans({v: LinearMap(Matrix(m.matrix.rows, m.matrix.cols, tuple(c * x for x in m.matrix.entries)))
                          for v, m in b.components.items()}) for c in (1, 2, 3) for b in basis]
        assert naturality_failures(F, G, etas) == []
        for k in sorted({0, len(etas) // 2, len(etas) - 1}) if etas else ():
            for v in q.vertices:
                if not F.dim(v) * G.dim(v):
                    continue
                batch = etas[:k] + [broken_at(etas[k], v)] + etas[k + 1 :]
                expected = [i for i, eta in enumerate(batch) if not natural_by_hand(F, G, eta)]
                assert naturality_failures(F, G, batch) == expected
                assert is_natural_presheaf(F, G, batch[k]) == (expected == [])
                flagged += expected == [k]
                cases += 1
    assert flagged > 50
    assert naturality_failures(F, G, []) == []


def test_batched_naturality_rejects_misshapen_components():
    q = chain_quiver(2)
    F = constant_presheaf(q, 1)
    eta = NatTrans({"v1": LinearMap.identity(1), "v2": LinearMap.identity(2)})
    with pytest.raises(DimensionMismatchError):
        naturality_failures(F, F, [identity_nat_trans(F), eta])


def test_parallel_edges_cut_hom_space():
    # F(e) = id, F(f) = 2id: eta_a = eta_b and eta_a * 2 = 2 * eta_b both
    # hold, so dim 1; with F(f) = 0 on one side only, naturality forces 0
    q = parallel_quiver()
    F = Presheaf(
        q,
        {"a": 1, "b": 1},
        {"e": LinearMap.identity(1), "f": LinearMap.from_rows([[2]])},
    )
    G = constant_presheaf(q, 1)
    dim, _ = nat_trans_space(F, G)
    # eta_a = eta_b (via e) and eta_a * 2 = eta_b (via f) force eta = 0
    assert dim == 0
