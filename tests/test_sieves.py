"""Sieves, covering policies and the Grothendieck-axiom auditor."""

import gc
import weakref

import pytest

from quivsheaf import (
    PathMorphism,
    Quiver,
    Sieve,
    TopologySpec,
    audit_axioms,
    covering_sieves,
    edge_morphism,
    enumerate_sieves,
    generate_sieve,
    identity_morphism,
    is_covering,
    maximal_sieve,
    pullback_sieve,
)
from quivsheaf.sieves import (
    CodomainMismatchError,
    Gt2Counterexample,
    InvalidTopologyError,
    NotASieveError,
    TooManyMorphismsError,
    WrongCodomainError,
    is_closed,
)

import sieve_oracle
from helpers import abc_quiver, dag_family, parallel_quiver, single_edge_quiver

TOPOLOGIES = ["coarse", "discrete", "discrete+empty", "edge", "graded:0", "graded:1", "graded:2", "graded:3"]


def layered_quiver(n, width):
    """v1 -> ... -> vn with `width` parallel edges between neighbours."""
    vertices = [f"v{i}" for i in range(1, n + 1)]
    edges = [
        (f"e{i}_{k}", f"v{i}", f"v{i + 1}") for i in range(1, n) for k in range(width)
    ]
    return Quiver.build(vertices, edges).require_valid()


def test_maximal_sieve_contains_identity():
    q = abc_quiver()
    for v in q.vertices:
        s = maximal_sieve(q, v)
        assert s.contains(identity_morphism(v))
        assert is_closed(q, s)


def test_generate_sieve_closes_under_precomposition():
    q = abc_quiver()
    e2 = edge_morphism(q.edge("e2"))
    s = generate_sieve(q, "c", [e2])
    assert s.labels() == ["e2", "e1.e2"]
    assert is_closed(q, s)
    with pytest.raises(WrongCodomainError):
        generate_sieve(q, "b", [e2])


def test_enumerate_sieves_on_chain():
    q = abc_quiver()
    # on c: empty, the length-2 path alone, the e2-generated sieve, maximal
    assert [s.labels() for s in enumerate_sieves(q, "c")] == [
        [],
        ["e1.e2"],
        ["e2", "e1.e2"],
        ["id:c", "e2", "e1.e2"],
    ]
    for s in enumerate_sieves(q, "c"):
        assert is_closed(q, s)


def test_enumerate_sieves_matches_brute_force():
    for q in dag_family(4, 4):
        for v in q.vertices:
            assert enumerate_sieves(q, v) == sieve_oracle.all_sieves(q, v)


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_audit_matches_pairwise_oracle(topology):
    t = TopologySpec.parse(topology)
    for q in dag_family(4, 4):
        assert audit_axioms(t, q) == sieve_oracle.audit(t, q), q


def test_covering_sieves_match_oracle():
    for q in dag_family(3, 3):
        for topology in TOPOLOGIES:
            t = TopologySpec.parse(topology)
            for v in q.vertices:
                want = [s for s in sieve_oracle.all_sieves(q, v) if sieve_oracle.covers(t, q, s)]
                assert covering_sieves(q, t, v) == want
                assert all(is_covering(t, s, q) for s in want)


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_is_covering_rejects_a_set_that_is_not_a_sieve(topology):
    # {e2} on a -> b -> c lacks e1.e2; deciding its mask as given would
    # call it covering under discrete and edge
    q = abc_quiver()
    unclosed = Sieve("c", frozenset({PathMorphism("b", "c", ("e2",))}))
    with pytest.raises(NotASieveError):
        is_covering(TopologySpec.parse(topology), unclosed, q)
    stray = Sieve("c", frozenset({PathMorphism("a", "b", ("e1",))}))
    with pytest.raises(NotASieveError):
        is_covering(TopologySpec.parse(topology), stray, q)


def test_audit_checks_the_limit_before_listing_paths():
    # 2**40 paths into the last vertex: listing them would never finish
    q = layered_quiver(41, 2)
    with pytest.raises(TooManyMorphismsError) as caught:
        audit_axioms(TopologySpec.discrete(), q)
    assert (caught.value.vertex, caught.value.count) == ("v4", 15)
    assert "_paths" not in vars(q)


def test_audited_quiver_is_not_kept_alive():
    q = parallel_quiver()
    ref = weakref.ref(q)
    for topology in TOPOLOGIES:
        audit_axioms(TopologySpec.parse(topology), q)
    enumerate_sieves(q, "b")
    del q
    gc.collect()
    assert ref() is None


def test_pullback_sieve():
    q = abc_quiver()
    e2 = edge_morphism(q.edge("e2"))
    s = generate_sieve(q, "c", [e2])
    pulled = pullback_sieve(q, e2, s)
    assert pulled.codomain == "b"
    assert pulled.labels() == ["id:b", "e1"]
    with pytest.raises(CodomainMismatchError):
        pullback_sieve(q, edge_morphism(q.edge("e1")), s)


def test_pullback_can_be_empty():
    q = parallel_quiver()
    s = generate_sieve(q, "b", [edge_morphism(q.edge("e"))])
    pulled = pullback_sieve(q, edge_morphism(q.edge("f")), s)
    assert pulled.size == 0


def test_topology_parsing():
    assert TopologySpec.parse("coarse").kind == "coarse"
    assert TopologySpec.parse("discrete").include_empty is False
    assert TopologySpec.parse("discrete+empty").include_empty is True
    assert TopologySpec.parse("graded:2").grade == 2
    assert TopologySpec.parse("edge").kind == "edge"
    for bad in ("bogus", "graded:x", "graded:"):
        with pytest.raises(InvalidTopologyError):
            TopologySpec.parse(bad)
    for t in ("coarse", "discrete", "discrete+empty", "edge", "graded:3"):
        assert TopologySpec.parse(t).describe() == t


def test_covering_sieves_coarse_is_maximal_only():
    q = abc_quiver()
    for v in q.vertices:
        cov = covering_sieves(q, TopologySpec.coarse(), v)
        assert cov == [maximal_sieve(q, v)]


def test_covering_sieves_discrete_counts():
    q = abc_quiver()
    nonempty = covering_sieves(q, TopologySpec.discrete(), "c")
    with_empty = covering_sieves(q, TopologySpec.discrete(include_empty=True), "c")
    assert len(with_empty) == len(nonempty) + 1
    assert with_empty[0].size == 0


def test_edge_topology_amended_at_sources():
    q = abc_quiver()
    t = TopologySpec.edge_generated()
    # at b, a covering sieve must contain the single-edge morphism e1
    covering = covering_sieves(q, t, "b")
    assert all(any(m.label() == "e1" for m in s.members) for s in covering)
    # a has no incoming edges: only the maximal sieve (the identity) covers
    assert covering_sieves(q, t, "a") == [maximal_sieve(q, "a")]
    assert is_covering(t, maximal_sieve(q, "a"), q)


def test_audit_coarse_and_discrete_pass_on_chain():
    q = abc_quiver()
    assert audit_axioms(TopologySpec.coarse(), q).passed
    assert audit_axioms(TopologySpec.discrete(include_empty=True), q).passed


def test_audit_edge_topology_fails_transitivity_on_chain():
    # the sieve generated by the length-2 path pulls back to a covering
    # sieve along every member of a covering sieve, yet contains no single
    # edge into c, so transitivity fails; replayable by hand
    q = abc_quiver()
    report = audit_axioms(TopologySpec.edge_generated(), q)
    assert report.gt1.passed and report.gt2.passed
    assert not report.gt3.passed
    assert report.gt3.counterexample.candidate.labels() == ["e1.e2"]


def test_audit_discrete_without_empty_fails_gt2_on_parallel_pair():
    # pulling the e-generated sieve back along f is empty, and the empty
    # sieve does not cover without include_empty
    q = Quiver.build(
        ["a", "b", "c"], [("e", "a", "c"), ("f", "b", "c")]
    ).require_valid()
    report = audit_axioms(TopologySpec.discrete(include_empty=False), q)
    assert report.gt1.passed and report.gt3.passed
    assert not report.gt2.passed
    ce = report.gt2.counterexample
    assert isinstance(ce, Gt2Counterexample)
    assert ce.pullback.size == 0
    assert not is_covering(TopologySpec.discrete(), ce.pullback, q)


def test_audit_counterexample_replays():
    # replay any reported GT2 counterexample through the public operations
    q = parallel_quiver()
    report = audit_axioms(TopologySpec.discrete(include_empty=False), q)
    ce = report.gt2.counterexample
    assert ce is not None
    replayed = pullback_sieve(q, ce.morphism, ce.sieve)
    assert replayed == ce.pullback


def test_sieve_limit_enforced():
    q = abc_quiver()
    with pytest.raises(TooManyMorphismsError):
        enumerate_sieves(q, "c", limit=2)
    # coarse covering sieves need no enumeration, so no limit applies
    assert covering_sieves(q, TopologySpec.coarse(), "c", limit=2)


def test_graded_topology_on_chain():
    q = abc_quiver()
    t = TopologySpec.length_graded(1)
    covering = covering_sieves(q, t, "c")
    wanted = {"id:c", "e2"}
    for s in covering:
        assert wanted <= set(s.labels())
    assert audit_axioms(t, q).passed
