"""Comparison machinery between locally constant sheaves and coarse
sheaves: the two candidate left adjoints (the pointwise extension, F(v)
itself by the maximal sieve's one generator, and the component-wide colimit),
the adjunction dimension check, and transport/monodromy.
The inclusion of locally constant sheaves into coarse sheaves is the
identity on data, fully faithful by definition, and has no helper.

The groupoid completion is never materialized: per component its
computable content is the spanning-tree transports plus one monodromy
automorphism per non-tree edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Optional

from .linalg import (
    DiagramOfSpaces,
    LinearMap,
    Matrix,
    colimit,
    inverse_map,
    is_isomorphism,
    rank,
)
from .presheaf import NatTrans, Presheaf, nat_trans_space, naturality_failures
from .quiver import UnknownVertexError
from .sheaf import is_discrete_sheaf_criterion


class FunctorError(Exception):
    pass


class NotDiscreteSheafError(FunctorError):
    pass


class NonInvertibleEdgeError(FunctorError):
    def __init__(self, edge_id: str):
        self.edge_id = edge_id
        super().__init__(f"edge map {edge_id!r} is not invertible")


@dataclass(frozen=True)
class PointwiseExtensionReport:
    vertex: str
    dim: int
    comparison: LinearMap  # F(v) -> the compatible families, at the generators
    comparison_is_iso: bool


def left_adjoint_literal(F: Presheaf, v: str) -> PointwiseExtensionReport:
    """Pointwise extension over all morphisms into v.

    The limit over the slice of morphisms into v is the space of matching
    families for the maximal sieve on v (Mac Lane & Moerdijk, III.4).  A
    compatible family is fixed by its value at the sieve's one generator,
    the identity, so the comparison from F(v) is the identity: an
    isomorphism for every presheaf.  The construction collapses back to
    F(v) and cannot produce a locally constant sheaf.
    """
    if v not in F.quiver._into:
        raise UnknownVertexError(v)
    return PointwiseExtensionReport(v, F.dim(v), LinearMap.identity(F.dim(v)), True)


@dataclass(frozen=True)
class ComponentExtension:
    presheaf: Presheaf  # constant on each component, identity edge maps
    unit: NatTrans  # F -> presheaf, the colimit cocone legs


def left_adjoint_component(F: Presheaf) -> ComponentExtension:
    """Component-wide colimit: the locally constant collapse of F.

    For each connected component the diagram holds F(v) at every vertex
    with one arrow per edge carrying its restriction map; the colimit
    dimension becomes the constant value of the output presheaf on that
    component and the cocone legs assemble into the adjunction unit.
    """
    q = F.quiver
    dims = {}
    units = {}
    for vertices, edges, _, _ in q._forest:
        pos = {v: i for i, v in enumerate(vertices)}
        # F(e): F(dst) -> F(src)
        arrows = [(pos[e.dst], pos[e.src], F.edge_map(e.id)) for e in edges]
        dim, cocone = colimit(DiagramOfSpaces.build([F.dim(v) for v in vertices], arrows))
        for v in vertices:
            dims[v] = dim
            units[v] = cocone[pos[v]]
    out = Presheaf(
        q, dims, {e.id: LinearMap.identity(dims[e.src]) for e in q.edges}
    )
    return ComponentExtension(out, NatTrans(units))


@dataclass(frozen=True)
class AdjunctionReport:
    left_dim: int
    right_dim: int
    match: bool
    unit_spans: bool


def check_adjunction(F: Presheaf, G: Presheaf) -> AdjunctionReport:
    """Compare hom dimensions on both sides of the candidate adjunction.

    left_dim counts maps from the component extension of F to G,
    right_dim counts maps from F to G; both by independent linear solves.
    Additionally composes each basis map with the unit and checks, in one
    batch, that the resulting maps F -> G are natural and span the
    right-hand space.
    """
    if not is_discrete_sheaf_criterion(G):
        raise NotDiscreteSheafError("right-hand argument must be a locally constant sheaf")
    ext = left_adjoint_component(F)
    left_dim, left_basis = nat_trans_space(ext.presheaf, G)
    right_dim, _ = nat_trans_space(F, G)

    vertices = F.quiver.vertices
    composites = [
        NatTrans({v: phi.component(v) @ ext.unit.component(v) for v in vertices})
        for phi in left_basis
    ]
    # composites of natural maps are natural; a failure is the program's fault
    if naturality_failures(F, G, composites):
        raise AssertionError("a composite with the adjunction unit is not natural")
    # one row per composite, its components side by side over their common
    # denominator; scaling a row keeps the rank
    flattened = []
    for eta in composites:
        comps = [eta.component(v).matrix for v in vertices]
        d = lcm(*[m.den for m in comps])
        flattened.extend(a * (d // m.den) for m in comps for a in m.num)
    width = sum(G.dim(v) * F.dim(v) for v in vertices)
    # the adjunction map is injective iff the composites stay independent
    unit_spans = rank(Matrix.from_ints(len(composites), width, tuple(flattened))) == left_dim
    match = left_dim == right_dim and unit_spans
    return AdjunctionReport(left_dim, right_dim, match, unit_spans)


def transport(F: Presheaf, walk, start: Optional[str] = None) -> LinearMap:
    """Composite map along an undirected walk of edges.

    ``walk`` is a sequence of (edge_id, direction) with direction +1 for
    forward traversal (source to target, applying the inverse restriction
    map) and -1 for backward traversal (applying the restriction map).
    ``start`` is required for the empty walk.
    """
    q = F.quiver
    if not walk:
        if start is None:
            raise FunctorError("empty walk needs an explicit start vertex")
        return LinearMap.identity(F.dim(start))
    first_edge = q.edge(walk[0][0])
    current = start
    if current is None:
        current = first_edge.src if walk[0][1] > 0 else first_edge.dst
    result = LinearMap.identity(F.dim(current))
    for edge_id, direction in walk:
        e = q.edge(edge_id)
        f = F.edge_map(edge_id)
        if direction > 0:
            if current != e.src:
                raise FunctorError(f"walk breaks at edge {edge_id!r}")
            if not is_isomorphism(f):
                raise NonInvertibleEdgeError(edge_id)
            result = inverse_map(f) @ result
            current = e.dst
        else:
            if current != e.dst:
                raise FunctorError(f"walk breaks at edge {edge_id!r}")
            result = f @ result
            current = e.src
    return result


@dataclass(frozen=True)
class CycleMonodromy:
    edge_id: str  # the non-tree edge closing the cycle
    base_vertex: str
    walk: tuple
    map: LinearMap
    is_identity: bool


@dataclass(frozen=True)
class ComponentTransport:
    root: str
    tree_edges: tuple  # edge ids, in BFS discovery order
    cycles: tuple  # CycleMonodromy per non-tree edge


@dataclass(frozen=True)
class TransportReport:
    components: tuple

    @property
    def all_identity(self) -> bool:
        return all(c.is_identity for comp in self.components for c in comp.cycles)


def monodromy_report(F: Presheaf) -> TransportReport:
    """Monodromy of each fundamental cycle, per spanning tree.

    The tree is grown breadth-first from the least vertex of each
    component, preferring earlier edges; each non-tree edge is traversed
    forward and closed through the tree, and the composite automorphism at
    its source vertex is reported.  All-identity monodromy means F is
    isomorphic to a presheaf with identity transports.
    """
    if not is_discrete_sheaf_criterion(F):
        raise NotDiscreteSheafError("monodromy needs invertible edge maps")
    components = []
    for vertices, edges, tree_edges, parent in F.quiver._forest:
        tree_set = set(tree_edges)
        cycles = []
        for e in edges:
            if e.id in tree_set:
                continue
            walk_down = tuple(
                (edge_id, -direction) for edge_id, direction in reversed(_walk_to_root(parent, e.src))
            )
            cycle_walk = ((e.id, +1),) + _walk_to_root(parent, e.dst) + walk_down
            m = transport(F, cycle_walk, start=e.src)
            cycles.append(
                CycleMonodromy(
                    e.id,
                    e.src,
                    cycle_walk,
                    m,
                    m.matrix == Matrix.identity(F.dim(e.src)),
                )
            )
        components.append(ComponentTransport(vertices[0], tree_edges, tuple(cycles)))
    return TransportReport(tuple(components))


def _walk_to_root(parent: dict, v: str) -> tuple:
    """The tree steps from v to its component's root."""
    walk = []
    while v in parent:
        edge_id, direction, v = parent[v]
        walk.append((edge_id, direction))
    return tuple(walk)
