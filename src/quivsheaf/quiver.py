"""Finite loop-free acyclic quivers and their free path categories.

Objects are vertices, morphisms are directed paths (the empty path at a
vertex is its identity), composition is concatenation.  Acyclicity is
required so every hom-set is finite; cyclic quivers are rejected at
validation instead of truncated, because a truncated morphism set is not
closed under composition.

Morphisms are always enumerated in a canonical order (length first, then
lexicographic edge ids) so downstream sieve enumeration and product
indexing are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Tuple


class QuiverError(Exception):
    pass


class DuplicateIdError(QuiverError):
    pass


class LoopEdgeError(QuiverError):
    def __init__(self, edge_id: str):
        self.edge_id = edge_id
        super().__init__(f"edge {edge_id!r} is a loop")


class DirectedCycleError(QuiverError):
    def __init__(self, cycle: Tuple[str, ...]):
        self.cycle = cycle
        super().__init__(f"directed cycle through {' -> '.join(cycle)}")


class UnknownVertexError(QuiverError):
    pass


class UnknownEdgeError(QuiverError):
    pass


class NonComposableError(QuiverError):
    pass


class InvalidQuiverError(QuiverError):
    pass


@dataclass(frozen=True)
class Edge:
    id: str
    src: str
    dst: str


@dataclass(frozen=True)
class Quiver:
    vertices: tuple
    edges: tuple

    @classmethod
    def build(cls, vertices: Iterable[str], edges: Iterable) -> "Quiver":
        """Build from vertex ids and (id, src, dst) triples or Edge values."""
        edge_objs = tuple(e if isinstance(e, Edge) else Edge(*e) for e in edges)
        return cls(tuple(vertices), edge_objs)

    def edge(self, edge_id: str) -> Edge:
        for e in self.edges:
            if e.id == edge_id:
                return e
        raise UnknownEdgeError(edge_id)

    def has_vertex(self, v: str) -> bool:
        return v in self.vertices

    def edges_into(self, v: str) -> tuple:
        return tuple(e for e in self.edges if e.dst == v)

    def edges_out_of(self, v: str) -> tuple:
        return tuple(e for e in self.edges if e.src == v)

    def vertex_index(self, v: str) -> int:
        try:
            return self.vertices.index(v)
        except ValueError:
            raise UnknownVertexError(v) from None

    def require_valid(self) -> "Quiver":
        report = validate(self)
        if not report.valid:
            raise InvalidQuiverError("; ".join(str(p) for p in report.problems))
        return self


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    problems: tuple  # QuiverError instances, in detection order

    def problem_kinds(self) -> tuple:
        return tuple(type(p).__name__ for p in self.problems)


def validate(q: Quiver) -> ValidationReport:
    """Report duplicate ids, loops and directed cycles; accept otherwise."""
    problems = []
    seen_v = set()
    for v in q.vertices:
        if v in seen_v:
            problems.append(DuplicateIdError(f"duplicate vertex id {v!r}"))
        seen_v.add(v)
    seen_e = set()
    for e in q.edges:
        if e.id in seen_e:
            problems.append(DuplicateIdError(f"duplicate edge id {e.id!r}"))
        seen_e.add(e.id)
        if e.src not in seen_v or e.dst not in seen_v:
            problems.append(UnknownVertexError(f"edge {e.id!r} references unknown vertex"))
        elif e.src == e.dst:
            problems.append(LoopEdgeError(e.id))
    if not problems:
        cycle = _find_directed_cycle(q)
        if cycle is not None:
            problems.append(DirectedCycleError(cycle))
    return ValidationReport(not problems, tuple(problems))


def _find_directed_cycle(q: Quiver) -> Optional[tuple]:
    """First directed cycle met by depth-first search in vertex and edge
    order, as (v, ..., v); iterative, so long chains cannot overflow."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {v: WHITE for v in q.vertices}
    out = {v: [] for v in q.vertices}
    for e in q.edges:
        out[e.src].append(e.dst)

    for root in q.vertices:
        if color[root] != WHITE:
            continue
        color[root] = GREY
        stack = [root]
        pending = [iter(out[root])]
        while pending:
            for w in pending[-1]:
                if color[w] == GREY:
                    i = stack.index(w)
                    return tuple(stack[i:] + [w])
                if color[w] == WHITE:
                    color[w] = GREY
                    stack.append(w)
                    pending.append(iter(out[w]))
                    break
            else:
                pending.pop()
                color[stack.pop()] = BLACK
    return None


@dataclass(frozen=True)
class PathMorphism:
    """A composable edge sequence; empty sequence = identity at a vertex."""

    source: str
    target: str
    edges: tuple

    @property
    def length(self) -> int:
        return len(self.edges)

    @property
    def is_identity(self) -> bool:
        return not self.edges

    def key(self) -> tuple:
        return (len(self.edges), self.edges, self.source)

    def label(self) -> str:
        if not self.edges:
            return f"id:{self.source}"
        return ".".join(self.edges)


def identity_morphism(v: str) -> PathMorphism:
    return PathMorphism(v, v, ())


def edge_morphism(e: Edge) -> PathMorphism:
    return PathMorphism(e.src, e.dst, (e.id,))


def compose(p: PathMorphism, q: PathMorphism) -> PathMorphism:
    """The composite q after p (traverse p first, then q)."""
    if p.target != q.source:
        raise NonComposableError(
            f"cannot compose: {p.label()} ends at {p.target!r}, {q.label()} starts at {q.source!r}"
        )
    return PathMorphism(p.source, q.target, p.edges + q.edges)


@lru_cache(maxsize=None)
def _morphisms_into_cached(q: Quiver, v: str) -> tuple:
    if not q.has_vertex(v):
        raise UnknownVertexError(v)
    paths = [identity_morphism(v)]
    for e in q.edges_into(v):
        step = edge_morphism(e)
        for p in _morphisms_into_cached(q, e.src):
            paths.append(compose(p, step))
    paths.sort(key=PathMorphism.key)
    return tuple(paths)


def morphisms_into(q: Quiver, v: str) -> list:
    """All paths with target v, identity included, in canonical order."""
    return list(_morphisms_into_cached(q, v))


def morphism_table(q: Quiver) -> dict:
    """Complete hom-sets keyed by (source, target), canonical order."""
    table = {(u, v): [] for u in q.vertices for v in q.vertices}
    for v in q.vertices:
        for p in _morphisms_into_cached(q, v):
            table[(p.source, v)].append(p)
    return table


def hom(q: Quiver, u: str, v: str) -> list:
    return [p for p in _morphisms_into_cached(q, v) if p.source == u]


def connected_components(q: Quiver) -> list:
    """Partition of the vertices by undirected connectivity.

    Components are listed by their least vertex (in quiver order), each as a
    tuple of vertices in quiver order.
    """
    parent = {v: v for v in q.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in q.edges:
        ra, rb = find(e.src), find(e.dst)
        if ra != rb:
            parent[rb] = ra
    groups = {}
    for v in q.vertices:
        groups.setdefault(find(v), []).append(v)
    comps = sorted(groups.values(), key=lambda vs: q.vertex_index(vs[0]))
    return [tuple(vs) for vs in comps]


@dataclass(frozen=True)
class SliceIndex:
    """The category of morphisms into a fixed vertex.

    Objects are morphisms f: u -> v; an arrow (index of f', index of f, g)
    records a factorization objects[f_index] o g = objects[f'_index].
    Identity factorizations are included.
    """

    vertex: str
    objects: tuple  # PathMorphism, canonical order
    arrows: tuple  # (from_index, to_index, g: PathMorphism)

    def terminal_index(self) -> int:
        return self.objects.index(identity_morphism(self.vertex))


def slice_objects(q: Quiver, v: str) -> SliceIndex:
    """Index category for the pointwise extension formula at v."""
    objects = _morphisms_into_cached(q, v)
    arrows = []
    for i, f_prime in enumerate(objects):
        for j, f in enumerate(objects):
            for g in hom(q, f_prime.source, f.source):
                if compose(g, f) == f_prime:
                    arrows.append((i, j, g))
    return SliceIndex(vertex=v, objects=objects, arrows=tuple(arrows))
