"""Shared quiver builders and exhaustive sweep generators for the tests."""

import itertools
import random
from fractions import Fraction

from quivsheaf import LinearMap, Presheaf, Quiver, Representation


def chain_quiver(n: int) -> Quiver:
    """Linear quiver v1 -> v2 -> ... -> vn."""
    vertices = [f"v{i}" for i in range(1, n + 1)]
    edges = [(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(1, n)]
    return Quiver.build(vertices, edges).require_valid()


def abc_quiver() -> Quiver:
    return Quiver.build(
        ["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c")]
    ).require_valid()


def parallel_quiver() -> Quiver:
    """Two parallel edges a => b, ids e and f."""
    return Quiver.build(["a", "b"], [("e", "a", "b"), ("f", "a", "b")]).require_valid()


def single_edge_quiver() -> Quiver:
    return Quiver.build(["a", "b"], [("e", "a", "b")]).require_valid()


def dag_family(max_vertices: int = 4, max_edges: int = 4):
    """Every loop-free acyclic quiver with <= max_vertices vertices and
    <= max_edges edges, up to relabelling: vertices v1..vn and edges drawn
    (with multiplicity) from the pairs i < j, which forces acyclicity."""
    quivers = []
    for n in range(1, max_vertices + 1):
        vertices = [f"v{i}" for i in range(1, n + 1)]
        pairs = [
            (f"v{i}", f"v{j}")
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        ]
        for count in range(0, max_edges + 1):
            for combo in itertools.combinations_with_replacement(pairs, count):
                edges = [
                    (f"e{k + 1}", src, dst) for k, (src, dst) in enumerate(combo)
                ]
                quivers.append(Quiver.build(vertices, edges).require_valid())
    return quivers


def all_binary_presheaves(q: Quiver, max_dim: int = 2):
    """Every presheaf on q with dims <= max_dim and matrix entries in {0, 1}."""
    dim_choices = range(max_dim + 1)
    for dims_tuple in itertools.product(dim_choices, repeat=len(q.vertices)):
        dims = dict(zip(q.vertices, dims_tuple))
        per_edge = []
        for e in q.edges:
            rows, cols = dims[e.src], dims[e.dst]
            cells = itertools.product((0, 1), repeat=rows * cols)
            per_edge.append(
                [
                    LinearMap.from_rows(
                        [list(flat[r * cols : (r + 1) * cols]) for r in range(rows)],
                        cols,
                    )
                    for flat in cells
                ]
            )
        for maps in itertools.product(*per_edge):
            yield Presheaf(q, dims, {e.id: m for e, m in zip(q.edges, maps)})


def linear_sweep(max_vertices: int = 4, max_dim: int = 2):
    """The cross-validation sweep: all binary presheaves on all linear
    quivers with <= max_vertices vertices."""
    for n in range(1, max_vertices + 1):
        q = chain_quiver(n)
        for F in all_binary_presheaves(q, max_dim):
            yield q, F


def random_representation(rng: random.Random, max_vertices: int = 4) -> Representation:
    """A seeded random representation: random small acyclic quiver, dims
    <= 3, entries with numerators and denominators bounded by 5."""
    n = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(1, n + 1)]
    pairs = [
        (f"v{i}", f"v{j}") for i in range(1, n + 1) for j in range(i + 1, n + 1)
    ]
    edge_count = rng.randint(0, min(4, len(pairs))) if pairs else 0
    edges = [
        (f"e{k + 1}",) + rng.choice(pairs) for k in range(edge_count)
    ]
    q = Quiver.build(vertices, edges).require_valid()
    dims = {v: rng.randint(0, 3) for v in vertices}

    def entry():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 5))

    maps = {}
    for e in q.edges:
        rows, cols = dims[e.dst], dims[e.src]
        maps[e.id] = LinearMap.from_rows(
            [[entry() for _ in range(cols)] for _ in range(rows)], cols
        )
    return Representation(q, dims, maps)


def make_edge_maps_drift(monkeypatch):
    """Patch Presheaf.edge_map so that every edge's map is doubled from its
    second lookup on: restriction maps built at different times disagree,
    as they would for a broken path-map table."""
    lookups = {}
    original = Presheaf.edge_map

    def drifting(self, edge_id):
        m = original(self, edge_id)
        lookups[edge_id] = lookups.get(edge_id, 0) + 1
        if lookups[edge_id] == 1:
            return m
        return LinearMap.from_rows([[2 * x for x in row] for row in m.matrix.to_rows()], m.domain_dim)

    monkeypatch.setattr(Presheaf, "edge_map", drifting)
