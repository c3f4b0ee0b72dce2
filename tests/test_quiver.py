"""Path category construction: validation, canonical morphism enumeration,
composition laws, and the slice index."""

import itertools

import pytest

from quivsheaf import (
    PathMorphism,
    Quiver,
    compose,
    connected_components,
    edge_morphism,
    hom,
    identity_morphism,
    morphism_table,
    morphisms_into,
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
)

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


def test_long_chain_is_valid_without_recursion():
    q = chain_quiver(1500)
    assert validate(q).valid


def test_long_cycle_is_reported_in_full():
    n = 1500
    vertices = [f"v{i}" for i in range(n)]
    edges = [(f"e{i}", vertices[i], vertices[(i + 1) % n]) for i in range(n)]
    report = validate(Quiver.build(vertices, edges))
    assert not report.valid
    (problem,) = report.problems
    assert isinstance(problem, DirectedCycleError)
    assert problem.cycle == tuple(vertices) + (vertices[0],)
