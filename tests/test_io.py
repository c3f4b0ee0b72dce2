"""File formats: rational strings, matrices, quivers, presheaf files and
canonical report serialization."""

import json
from fractions import Fraction

import pytest

from quivsheaf import LinearMap, Matrix, Presheaf, TopologySpec, audit_axioms, is_sheaf
from quivsheaf import constant_presheaf, dualize
from quivsheaf.io import (
    KindMismatchError,
    ParseError,
    axiom_report_to_json,
    dumps_canonical,
    matrix_from_json,
    matrix_to_json,
    presheaf_from_json,
    presheaf_to_json,
    quiver_from_json,
    quiver_to_json,
    rational_from_str,
    rational_to_str,
    representation_from_json,
    representation_to_json,
    verdict_to_json,
)

from helpers import abc_quiver, random_representation, single_edge_quiver


def test_rational_strings_round_trip():
    for x in [Fraction(0), Fraction(-3), Fraction(5, 7), Fraction(-22, 9)]:
        assert rational_from_str(rational_to_str(x)) == x
    assert rational_to_str(Fraction(4, 2)) == "2"
    for bad in ["1.5", "1/0", "a", "", "1/-2", 3]:
        with pytest.raises(ParseError):
            rational_from_str(bad)


def test_rational_literals_are_ascii_without_a_trailing_newline():
    # neither a final newline nor a non-ASCII digit belongs to a literal
    for bad in ["3\n", "\u0663", "1/\u0662", "-\u0663/2"]:
        with pytest.raises(ParseError):
            rational_from_str(bad)
    with pytest.raises(ParseError):
        matrix_from_json([["1", "2\n"]], 1, 2)
    assert rational_from_str("-0012/34") == Fraction(-6, 17)


def test_matrix_round_trip():
    m = Matrix.from_rows([[Fraction(1, 2), 3], [0, Fraction(-7, 5)]])
    data = matrix_to_json(m)
    assert data == [["1/2", "3"], ["0", "-7/5"]]
    assert matrix_from_json(data, 2, 2) == m
    with pytest.raises(ParseError):
        matrix_from_json(data, 3, 2)
    with pytest.raises(ParseError):
        matrix_from_json([["1", "2"]], 1, 3)


def test_quiver_round_trip():
    q = abc_quiver()
    assert quiver_from_json(quiver_to_json(q)) == q
    with pytest.raises(ParseError):
        quiver_from_json({"vertices": "abc", "edges": []})
    with pytest.raises(ParseError):
        quiver_from_json({"vertices": ["a"], "edges": [{"id": "e"}]})
    with pytest.raises(ParseError):
        quiver_from_json([1, 2, 3])


def test_presheaf_round_trip():
    q = single_edge_quiver()
    F = Presheaf(q, {"a": 1, "b": 2}, {"e": LinearMap.from_rows([[1, 0]])})
    data = presheaf_to_json(F)
    assert data["kind"] == "presheaf"
    back = presheaf_from_json(q, data)
    assert back.dims == F.dims
    assert back.edge_map("e").matrix == F.edge_map("e").matrix


def test_representation_round_trip_and_kind_guard():
    import random

    V = random_representation(random.Random(3))
    data = representation_to_json(V)
    back = representation_from_json(V.quiver, data)
    for e in V.quiver.edges:
        assert back.edge_map(e.id).matrix == V.edge_map(e.id).matrix
    with pytest.raises(KindMismatchError):
        presheaf_from_json(V.quiver, data)


def test_dualize_twice_round_trips_bytes():
    import random

    V = random_representation(random.Random(9))
    F = dualize(V)
    # transpose is an involution, so the double dual serializes identically
    double = dualize(
        type(V)(F.quiver, dict(F.dims), {
            e: LinearMap(m.matrix.transpose()) for e, m in F.edge_maps.items()
        })
    )
    assert dumps_canonical(presheaf_to_json(double)) == dumps_canonical(
        presheaf_to_json(F)
    )


def test_missing_fields_raise():
    q = single_edge_quiver()
    with pytest.raises(ParseError):
        presheaf_from_json(q, {"kind": "presheaf", "dims": {"a": 1}, "maps": {}})
    with pytest.raises(ParseError):
        presheaf_from_json(
            q, {"kind": "presheaf", "dims": {"a": 1, "b": 1}, "maps": {}}
        )
    with pytest.raises(KindMismatchError):
        presheaf_from_json(q, {"dims": {}, "maps": {}})


def test_report_serialization_is_canonical():
    q = abc_quiver()
    report = audit_axioms(TopologySpec.coarse(), q)
    a = dumps_canonical(axiom_report_to_json(report))
    b = dumps_canonical(axiom_report_to_json(audit_axioms(TopologySpec.coarse(), q)))
    assert a == b
    parsed = json.loads(a)
    assert parsed["passed"] is True


def test_verdict_serialization_includes_witness_fields():
    q = single_edge_quiver()
    F = Presheaf(q, {"a": 1, "b": 2}, {"e": LinearMap.from_rows([[1, 0]])})
    verdict = is_sheaf(F, TopologySpec.discrete())
    data = verdict_to_json(verdict)
    assert data["holds"] is False
    assert data["failing_sieve"]["members"] == ["e"]
    holds = verdict_to_json(is_sheaf(constant_presheaf(q, 1), TopologySpec.coarse()))
    assert holds == {"holds": True}
