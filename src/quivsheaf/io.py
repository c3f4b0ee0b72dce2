"""File formats and report serialization.

Quivers are JSON objects with vertex and edge lists (file order fixes the
canonical order).  Presheaves and representations share one format tagged
by a "kind" field, with matrices as arrays of arrays of exact rational
strings like "3" or "-5/7".  Report serializers build dictionaries whose
key and list orders are canonical, so dumping them is byte-reproducible.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Optional

from .linalg import LinearMap, Matrix
from .presheaf import Presheaf, Representation
from .quiver import Quiver, ValidationReport
from .sheaf import CrossValidationReport, SectionFamily, SheafVerdict
from .sieves import AxiomReport, Sieve


class IoError(Exception):
    pass


class ParseError(IoError):
    pass


class KindMismatchError(ParseError):
    def __init__(self, wanted: str, got):
        self.wanted = wanted
        self.got = got
        super().__init__(f"expected kind {wanted!r}, file says {got!r}")


_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def rational_to_str(x) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def rational_from_str(s) -> Fraction:
    if not isinstance(s, str) or not _RATIONAL_RE.match(s):
        raise ParseError(f"bad rational literal {s!r}")
    return Fraction(s)


def matrix_to_json(m: Matrix) -> list:
    return [[rational_to_str(x) for x in m.row(i)] for i in range(m.rows)]


def matrix_from_json(data, rows: int, cols: int) -> Matrix:
    if not isinstance(data, list) or len(data) != rows:
        raise ParseError(f"matrix needs {rows} rows, got {data!r}")
    grid = []
    for r in data:
        if not isinstance(r, list) or len(r) != cols:
            raise ParseError(f"matrix row needs {cols} entries, got {r!r}")
        grid.append([rational_from_str(x) for x in r])
    return Matrix.from_rows(grid, cols)


def quiver_to_json(q: Quiver) -> dict:
    return {
        "vertices": list(q.vertices),
        "edges": [{"id": e.id, "src": e.src, "dst": e.dst} for e in q.edges],
    }


def quiver_from_json(data) -> Quiver:
    if not isinstance(data, dict):
        raise ParseError("quiver file must be a JSON object")
    vertices = data.get("vertices")
    edges = data.get("edges")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ParseError("'vertices' must be a list of strings")
    if not isinstance(edges, list):
        raise ParseError("'edges' must be a list")
    triples = []
    for e in edges:
        if not isinstance(e, dict) or not {"id", "src", "dst"} <= set(e):
            raise ParseError(f"edge entry must have id/src/dst, got {e!r}")
        if not all(isinstance(e[k], str) for k in ("id", "src", "dst")):
            raise ParseError(f"edge ids and endpoints must be strings, got {e!r}")
        triples.append((e["id"], e["src"], e["dst"]))
    return Quiver.build(vertices, triples)


def _functor_to_json(kind: str, dims, edge_maps, q: Quiver) -> dict:
    return {
        "kind": kind,
        "dims": {v: dims[v] for v in q.vertices},
        "maps": {e.id: matrix_to_json(edge_maps[e.id].matrix) for e in q.edges},
    }


def presheaf_to_json(F: Presheaf) -> dict:
    return _functor_to_json("presheaf", F.dims, F.edge_maps, F.quiver)


def representation_to_json(V: Representation) -> dict:
    return _functor_to_json("representation", V.dims, V.edge_maps, V.quiver)


def _functor_from_json(q: Quiver, data, wanted_kind: str):
    if not isinstance(data, dict):
        raise ParseError("presheaf file must be a JSON object")
    kind = data.get("kind")
    if kind != wanted_kind:
        raise KindMismatchError(wanted_kind, kind)
    dims = data.get("dims")
    maps = data.get("maps")
    if not isinstance(dims, dict) or not isinstance(maps, dict):
        raise ParseError("'dims' and 'maps' must be JSON objects")
    for v in q.vertices:
        # bool is a subclass of int, so JSON true/false must be excluded by type
        if type(dims.get(v)) is not int or dims[v] < 0:
            raise ParseError(f"missing or bad dimension for vertex {v!r}")
    edge_maps = {}
    for e in q.edges:
        if e.id not in maps:
            raise ParseError(f"missing map for edge {e.id!r}")
        if wanted_kind == "presheaf":
            rows, cols = dims[e.src], dims[e.dst]
        else:
            rows, cols = dims[e.dst], dims[e.src]
        edge_maps[e.id] = LinearMap(matrix_from_json(maps[e.id], rows, cols))
    cls = Presheaf if wanted_kind == "presheaf" else Representation
    return cls(q, {v: dims[v] for v in q.vertices}, edge_maps)


def presheaf_from_json(q: Quiver, data) -> Presheaf:
    return _functor_from_json(q, data, "presheaf")


def representation_from_json(q: Quiver, data) -> Representation:
    return _functor_from_json(q, data, "representation")


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def load_quiver(path: str) -> Quiver:
    return quiver_from_json(load_json(path))


def load_presheaf(path: str, q: Quiver) -> Presheaf:
    return presheaf_from_json(q, load_json(path))


def load_representation(path: str, q: Quiver) -> Representation:
    return representation_from_json(q, load_json(path))


def dumps_canonical(obj) -> str:
    """One serializer for every machine-readable report; key order is
    sorted so equal report dictionaries always print identically."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def sieve_to_json(s: Sieve) -> dict:
    return {"codomain": s.codomain, "members": s.labels()}


def family_to_json(family: SectionFamily) -> dict:
    return {
        "sieve": sieve_to_json(family.sieve),
        "sections": {
            f.label(): [rational_to_str(x) for x in family.sections[f]]
            for f in family.sieve.sorted_members()
        },
    }


def verdict_to_json(v: SheafVerdict) -> dict:
    out: dict = {"holds": v.holds}
    if not v.holds:
        out["vertex"] = v.vertex
        out["failing_sieve"] = sieve_to_json(v.failing_sieve)
        out["diagnosis"] = v.diagnosis
        if v.witness is not None:
            out["witness"] = family_to_json(v.witness)
    return out


def _counterexample_to_json(c) -> Optional[dict]:
    if c is None:
        return None
    out = {}
    for name in ("vertex", "morphism"):
        if hasattr(c, name):
            value = getattr(c, name)
            out[name] = value if isinstance(value, str) else value.label()
    for name in ("sieve", "pullback", "covering", "candidate"):
        if hasattr(c, name):
            out[name] = sieve_to_json(getattr(c, name))
    return out


def axiom_report_to_json(report: AxiomReport) -> dict:
    out = {"topology": report.topology.describe(), "passed": report.passed}
    for name, result in (("gt1", report.gt1), ("gt2", report.gt2), ("gt3", report.gt3)):
        entry: dict = {"passed": result.passed}
        if not result.passed:
            entry["counterexample"] = _counterexample_to_json(result.counterexample)
        out[name] = entry
    return out


def validation_report_to_json(report: ValidationReport) -> dict:
    return {
        "valid": report.valid,
        "problems": [
            {"kind": type(p).__name__, "detail": str(p)} for p in report.problems
        ],
    }


def cross_validation_to_json(report: CrossValidationReport) -> dict:
    out = {
        "criterion_holds": report.criterion_holds,
        "definitional": verdict_to_json(report.definitional),
        "agree": report.agree,
    }
    if report.separating_sieve is not None:
        out["separating_sieve"] = sieve_to_json(report.separating_sieve)
    return out
