"""Path category construction: validation, canonical morphism enumeration,
composition laws, and the slice index."""

import itertools
import random

import pytest

from quivsheaf import (
    PathMorphism,
    Quiver,
    compose,
    connected_components,
    constant_presheaf,
    edge_morphism,
    hom,
    identity_morphism,
    morphism_table,
    morphisms_into,
    monodromy_report,
    slice_objects,
    validate,
)
from quivsheaf.quiver import (
    DirectedCycleError,
    DuplicateIdError,
    InvalidQuiverError,
    LoopEdgeError,
    NonComposableError,
    UnknownVertexError,
    path_counts,
)

import quiver_oracle
from helpers import abc_quiver, chain_quiver, dag_family, parallel_quiver


def test_validate_accepts_chain():
    report = validate(abc_quiver())
    assert report.valid and report.problems == ()


def test_validate_rejects_duplicates_loops_unknowns():
    q = Quiver.build(["a", "a"], [])
    assert "DuplicateIdError" in validate(q).problem_kinds()
    q = Quiver.build(["a"], [("e", "a", "a")])
    report = validate(q)
    assert any(isinstance(p, LoopEdgeError) for p in report.problems)
    q = Quiver.build(["a"], [("e", "a", "zzz")])
    assert any(isinstance(p, UnknownVertexError) for p in validate(q).problems)


def test_validate_rejects_directed_cycle_with_witness():
    q = Quiver.build(["a", "b"], [("e", "a", "b"), ("f", "b", "a")])
    report = validate(q)
    assert not report.valid
    cycle = next(p for p in report.problems if isinstance(p, DirectedCycleError))
    assert cycle.cycle[0] == cycle.cycle[-1]
    with pytest.raises(InvalidQuiverError):
        q.require_valid()


def test_identity_and_composition():
    q = abc_quiver()
    e1 = edge_morphism(q.edge("e1"))
    e2 = edge_morphism(q.edge("e2"))
    p = compose(e1, e2)
    assert p == PathMorphism("a", "c", ("e1", "e2"))
    assert compose(identity_morphism("a"), e1) == e1
    assert compose(e1, identity_morphism("b")) == e1
    with pytest.raises(NonComposableError):
        compose(e2, e1)


def test_morphisms_into_canonical_order():
    q = abc_quiver()
    labels = [m.label() for m in morphisms_into(q, "c")]
    assert labels == ["id:c", "e2", "e1.e2"]
    labels_b = [m.label() for m in morphisms_into(q, "b")]
    assert labels_b == ["id:b", "e1"]


def test_hom_sets():
    q = abc_quiver()
    assert [m.label() for m in hom(q, "a", "c")] == ["e1.e2"]
    assert hom(q, "c", "a") == []
    table = morphism_table(q)
    assert len(table[("a", "a")]) == 1  # identity only


def brute_force_paths(q, v, max_len=10):
    """Independent path enumeration by breadth-first edge extension."""
    found = {(v, ())}
    frontier = [(v, ())]
    while frontier:
        nxt = []
        for src, edges in frontier:
            for e in q.edges:
                if e.dst == src and len(edges) < max_len:
                    item = (e.src, (e.id,) + edges)
                    if item not in found:
                        found.add(item)
                        nxt.append(item)
        frontier = nxt
    return found


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_path_count_recurrence_on_chains(n):
    q = chain_quiver(n)
    for v in q.vertices:
        ms = morphisms_into(q, v)
        expected = 1 + sum(
            len(morphisms_into(q, e.src)) for e in q.edges_into(v)
        )
        assert len(ms) == expected
        assert {(m.source, m.edges) for m in ms} == brute_force_paths(q, v)


def test_path_counts_match_the_listing():
    for q in dag_family(4, 4):
        assert path_counts(q) == {v: len(morphisms_into(q, v)) for v in q.vertices}


def test_path_enumeration_matches_brute_force_on_family():
    for q in dag_family(3, 3):
        for v in q.vertices:
            got = {(m.source, m.edges) for m in morphisms_into(q, v)}
            assert got == brute_force_paths(q, v)


def test_compose_is_associative_exhaustively():
    q = parallel_quiver()
    table = morphism_table(q)
    all_morphisms = [m for ms in table.values() for m in ms]
    for p1, p2, p3 in itertools.product(all_morphisms, repeat=3):
        if p1.target == p2.source and p2.target == p3.source:
            assert compose(compose(p1, p2), p3) == compose(p1, compose(p2, p3))


def test_connected_components():
    q = Quiver.build(["a", "b", "c", "d"], [("e", "a", "b"), ("f", "c", "d")])
    assert connected_components(q) == [("a", "b"), ("c", "d")]
    assert connected_components(abc_quiver()) == [("a", "b", "c")]


def shuffled_random_quivers(rng, count):
    """Acyclic quivers whose vertex and edge lists are shuffled, so file order
    is neither a topological order nor sorted by id: up to 9 vertices, parallel
    edges, isolated vertices and several components."""
    for _ in range(count):
        n = rng.randint(1, 9)
        ranked = [f"v{k}" for k in rng.sample(range(100), n)]  # edges go up the ranking
        pairs = [(a, b) for i, a in enumerate(ranked) for b in ranked[i + 1 :]]
        m = rng.randint(0, 12) if pairs else 0
        edges = [(f"e{k}",) + rng.choice(pairs) for k in rng.sample(range(100), m)]
        vertices = rng.sample(ranked, n)
        yield Quiver.build(vertices, edges).require_valid()


def test_structure_matches_the_edge_list_oracle():
    rng = random.Random(23)
    for q in dag_family(4, 4) + list(shuffled_random_quivers(rng, 300)):
        assert connected_components(q) == quiver_oracle.connected_components(q)
        assert path_counts(q) == quiver_oracle.path_counts(q)
        for v in q.vertices:
            assert q.edges_into(v) == quiver_oracle.edges_into(q, v)
        for e in q.edges:
            assert q.edge(e.id) is quiver_oracle.edge(q, e.id)
        report = monodromy_report(constant_presheaf(q, 1))
        got = [
            (comp.root, comp.tree_edges, [(c.edge_id, c.base_vertex, c.walk) for c in comp.cycles])
            for comp in report.components
        ]
        assert got == quiver_oracle.spanning_trees(q)


def test_edge_lookups_refuse_an_invalid_quiver():
    q = Quiver.build(["a", "b"], [("e", "a", "b"), ("f", "b", "a")])
    with pytest.raises(InvalidQuiverError):
        q.edge("e")
    with pytest.raises(InvalidQuiverError):
        q.edges_into("a")


def test_slice_index_has_terminal_identity():
    q = abc_quiver()
    sl = slice_objects(q, "c")
    assert [f.label() for f in sl.objects] == ["id:c", "e2", "e1.e2"]
    terminal = sl.terminal_index()
    # every object maps to the identity object exactly once
    for i, f in enumerate(sl.objects):
        into_terminal = [a for a in sl.arrows if a[0] == i and a[1] == terminal]
        assert len(into_terminal) == 1
        assert into_terminal[0][2] == f


def test_slice_arrows_on_chain():
    q = abc_quiver()
    sl = slice_objects(q, "c")
    described = {
        (sl.objects[i].label(), sl.objects[j].label(), g.label())
        for i, j, g in sl.arrows
        if not g.is_identity
    }
    assert described == {
        ("e2", "id:c", "e2"),
        ("e1.e2", "id:c", "e1.e2"),
        ("e1.e2", "e2", "e1"),
    }


def test_slice_arrows_match_factorization_search():
    for q in dag_family(3, 3):
        for v in q.vertices:
            sl = slice_objects(q, v)
            searched = [
                (i, j, g)
                for i, f_prime in enumerate(sl.objects)
                for j, f in enumerate(sl.objects)
                for g in hom(q, f_prime.source, f.source)
                if compose(g, f) == f_prime
            ]
            assert list(sl.arrows) == searched


def test_long_chain_is_valid_without_recursion():
    q = chain_quiver(1500)
    assert validate(q).valid


def test_long_chain_paths_without_recursion():
    q = chain_quiver(1500)
    paths = morphisms_into(q, "v1500")
    assert len(paths) == 1500
    assert paths[0] == identity_morphism("v1500")
    assert paths[-1].source == "v1" and paths[-1].length == 1499
    assert [len(morphisms_into(q, v)) for v in ("v1", "v2", "v750")] == [1, 2, 750]


def test_paths_of_a_cyclic_quiver_are_refused():
    q = Quiver.build(["a", "b"], [("e", "a", "b"), ("f", "b", "a")])
    with pytest.raises(InvalidQuiverError):
        morphisms_into(q, "a")


def test_long_cycle_is_reported_in_full():
    n = 1500
    vertices = [f"v{i}" for i in range(n)]
    edges = [(f"e{i}", vertices[i], vertices[(i + 1) % n]) for i in range(n)]
    report = validate(Quiver.build(vertices, edges))
    assert not report.valid
    (problem,) = report.problems
    assert isinstance(problem, DirectedCycleError)
    assert problem.cycle == tuple(vertices) + (vertices[0],)
