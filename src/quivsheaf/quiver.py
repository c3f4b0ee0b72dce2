"""Finite loop-free acyclic quivers and their free path categories.

Objects are vertices, morphisms are directed paths (the empty path at a
vertex is its identity), composition is concatenation.  Acyclicity is
required so every hom-set is finite; cyclic quivers are rejected at
validation instead of truncated, because a truncated morphism set is not
closed under composition.

Morphisms are always enumerated in a canonical order (length first, then
lexicographic edge ids) so downstream sieve enumeration and product
indexing are reproducible bit for bit.

A quiver holds what is read from its edge list, built on first use, so it
is dropped with it: the validation report and, on a valid quiver only, an
edge-id index, the edges into each vertex, a breadth-first spanning forest
(grown from each component's least vertex, earlier edges first) and the
path tree into each vertex.  The morphisms into v form a tree rooted at the
identity: dropping the first edge of a path gives its parent, and the
subtree under f is all f o g; it is listed from v without recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from graphlib import TopologicalSorter
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
        try:
            return self._edge_index[edge_id]
        except KeyError:
            raise UnknownEdgeError(edge_id) from None

    def edges_into(self, v: str) -> tuple:
        return tuple(self._into.get(v, ()))

    def require_valid(self) -> "Quiver":
        if not self._report.valid:
            raise InvalidQuiverError("; ".join(str(p) for p in self._report.problems))
        return self

    @cached_property
    def _report(self) -> "ValidationReport":
        return validate(self)

    @cached_property
    def _edge_index(self) -> dict:
        return {e.id: e for e in self.require_valid().edges}

    @cached_property
    def _into(self) -> dict:
        into = {v: [] for v in self.require_valid().vertices}
        for e in self.edges:
            into[e.dst].append(e)
        return into

    @cached_property
    def _forest(self) -> list:
        """Per component, by least vertex: its vertices in quiver order (the
        root first), its edges in file order, its tree edge ids in discovery
        order and parent[w] = (edge id, +1 along the edge or -1, v), the tree
        step from w one nearer the root."""
        incident = {v: [] for v in self.require_valid().vertices}
        for e in self.edges:
            incident[e.src].append((e.id, -1, e.dst))
            incident[e.dst].append((e.id, +1, e.src))
        comp_of, forest = {}, []
        for root in self.vertices:
            if root in comp_of:
                continue
            comp_of[root] = len(forest)
            order, tree, parent = [root], [], {}
            for v in order:  # order grows as it is read: a queue
                for edge_id, direction, w in incident[v]:
                    if w not in comp_of:
                        comp_of[w] = comp_of[root]
                        parent[w] = (edge_id, direction, v)
                        tree.append(edge_id)
                        order.append(w)
            forest.append(([], [], tuple(tree), parent))
        for v in self.vertices:
            forest[comp_of[v]][0].append(v)
        for e in self.edges:
            forest[comp_of[e.src]][1].append(e)
        return forest

    # Per-vertex tables (paths here, sieve tables in sieves.py).
    @cached_property
    def _paths(self) -> dict:
        return {}

    @cached_property
    def _sieve_tables(self) -> dict:
        return {}


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


def _paths_into(q: Quiver, v: str) -> tuple:
    """The path tree into v, listed level by level, in canonical order."""
    if v not in q._paths:
        into = q._into
        if v not in into:
            raise UnknownVertexError(v)
        paths, level = [], [identity_morphism(v)]
        while level:
            paths += level
            level = [PathMorphism(e.src, v, (e.id,) + p.edges) for p in level for e in into[p.source]]
        q._paths[v] = tuple(sorted(paths, key=PathMorphism.key))
    return q._paths[v]


def morphisms_into(q: Quiver, v: str) -> list:
    """All paths with target v, identity included, in canonical order."""
    return list(_paths_into(q, v))


def morphism_table(q: Quiver) -> dict:
    """Complete hom-sets keyed by (source, target), canonical order."""
    table = {(u, v): [] for u in q.vertices for v in q.vertices}
    for v in q.vertices:
        for p in _paths_into(q, v):
            table[(p.source, v)].append(p)
    return table


def hom(q: Quiver, u: str, v: str) -> list:
    return [p for p in _paths_into(q, v) if p.source == u]


def path_counts(q: Quiver) -> dict:
    """Paths into each vertex of an acyclic quiver, identity included, counted
    without listing any: 1 + the counts at the edges' sources, in O(V + E)."""
    into = q._into
    count = {}
    for v in TopologicalSorter({v: [e.src for e in es] for v, es in into.items()}).static_order():
        count[v] = 1 + sum(count[e.src] for e in into[v])
    return count


def connected_components(q: Quiver) -> list:
    """Partition of the vertices by undirected connectivity.

    Components are listed by their least vertex (in quiver order), each as a
    tuple of vertices in quiver order.
    """
    return [tuple(vertices) for vertices, *_ in q._forest]


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
    """Index category for the pointwise extension formula at v.

    f' = f o g exactly when f is a suffix of f', so the arrows out of f'
    come from its suffixes, shortest (the identity at v) first."""
    objects = _paths_into(q, v)
    position = {f.edges: j for j, f in enumerate(objects)}
    arrows = []
    for i, f_prime in enumerate(objects):
        for k in range(f_prime.length, -1, -1):
            j = position[f_prime.edges[k:]]
            arrows.append((i, j, PathMorphism(f_prime.source, objects[j].source, f_prime.edges[:k])))
    return SliceIndex(vertex=v, objects=objects, arrows=tuple(arrows))
