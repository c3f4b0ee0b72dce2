"""Presheaves and covariant representations of a path category as matrix
data on edges, extension to paths, dualization, and natural-transformation
hom-spaces.

Maps are stored on edges only; extension to paths is forced because the
path category is free.  path_maps tabulates F(p) for the paths into a
vertex, one product per path along the path tree, and checks each table
for functoriality once, as it is built; the package reads every F(p) from
these tables, and eval_presheaf is the reference they are tested against.
Dual spaces are identified with coordinate spaces via the dual basis,
which makes dualization literally matrix transposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Mapping

from .linalg import LinearMap, Matrix, transpose_map
from .linalg._kernels_py import kernel_vectors
from .quiver import PathMorphism, Quiver, UnknownEdgeError
from .sieves import _vertex_table


class PresheafError(Exception):
    pass


class DimensionMismatchError(PresheafError):
    pass


class NotNaturalError(PresheafError):
    pass


def _check_maps(quiver: Quiver, dims: Mapping, edge_maps: Mapping, contravariant: bool):
    for v in quiver.vertices:
        if v not in dims or dims[v] < 0:
            raise DimensionMismatchError(f"missing or negative dimension at vertex {v!r}")
    for e in quiver.edges:
        if e.id not in edge_maps:
            raise DimensionMismatchError(f"missing map for edge {e.id!r}")
        f = edge_maps[e.id]
        if contravariant:
            want = (dims[e.src], dims[e.dst])  # F(e): F(dst) -> F(src)
        else:
            want = (dims[e.dst], dims[e.src])  # V(e): V(src) -> V(dst)
        if (f.codomain_dim, f.domain_dim) != want:
            raise DimensionMismatchError(
                f"edge {e.id!r}: map is {f.codomain_dim}x{f.domain_dim}, expected {want[0]}x{want[1]}"
            )


@dataclass(frozen=True)
class Presheaf:
    """Contravariant functor to finite-dimensional spaces: F(e): F(t(e)) -> F(s(e))."""

    quiver: Quiver
    dims: Mapping
    edge_maps: Mapping  # edge id -> LinearMap

    def __post_init__(self):
        _check_maps(self.quiver, self.dims, self.edge_maps, contravariant=True)

    def dim(self, v: str) -> int:
        return self.dims[v]

    def edge_map(self, edge_id: str) -> LinearMap:
        try:
            return self.edge_maps[edge_id]
        except KeyError:
            raise UnknownEdgeError(edge_id) from None

    # The restriction maps of the paths into each vertex (see path_maps),
    # built on demand and held by the presheaf so that they are dropped with it.
    @cached_property
    def _path_maps(self) -> dict:
        return {}


@dataclass(frozen=True)
class Representation:
    """Covariant functor (quiver representation): V(e): V(s(e)) -> V(t(e))."""

    quiver: Quiver
    dims: Mapping
    edge_maps: Mapping

    def __post_init__(self):
        _check_maps(self.quiver, self.dims, self.edge_maps, contravariant=False)

    def dim(self, v: str) -> int:
        return self.dims[v]

    def edge_map(self, edge_id: str) -> LinearMap:
        try:
            return self.edge_maps[edge_id]
        except KeyError:
            raise UnknownEdgeError(edge_id) from None


def eval_presheaf(F: Presheaf, p: PathMorphism) -> LinearMap:
    """The restriction map F(p): F(target) -> F(source).

    Under the column-vector convention a two-edge path [e1, e2] evaluates
    to the matrix product M(e1) . M(e2).
    """
    result = LinearMap.identity(F.dim(p.target))
    for edge_id in reversed(p.edges):
        result = F.edge_map(edge_id) @ result
    return result


def path_maps(F: Presheaf, v: str) -> list:
    """F(p) for every path p into v, as matrices in the order of the path
    tree at v: maps[0] is the identity and maps[i] = F(first edge of i) .
    maps[parent[i]], one product per path.

    The first call for v builds the missing tables of v and its ancestors,
    ancestors first, and checks each one for functoriality as it is built.
    """
    tables = F._path_maps
    if v not in tables:
        q = F.quiver
        # a proper ancestor of u has fewer paths into it than u, so in this
        # order every table that a check reads is built before the check
        ancestors = dict.fromkeys(m.source for m in _vertex_table(q, v).morphisms)
        for u in sorted(ancestors, key=lambda u: len(_vertex_table(q, u).morphisms)):
            if u not in tables:
                table = _vertex_table(q, u)
                maps = [Matrix.identity(F.dim(u))]
                for m, parent in zip(table.morphisms[1:], table.parent[1:]):
                    maps.append(F.edge_map(m.edges[0]).matrix @ maps[parent])
                _check_functorial(F, table, maps)
                tables[u] = maps
    return tables[v]


def _check_functorial(F: Presheaf, table, maps: list) -> None:
    """Assert F(f o g) = F(g) . F(f) for every f into v and g into dom f.

    One product per source u of the f: the maps into u stacked, times the
    F(f) from u side by side.  f = id_v is skipped, as maps[0] is the
    identity.
    """
    v = table.vertex
    d = F.dim(v)
    from_source = {}
    for i, f in enumerate(table.morphisms[1:], 1):
        from_source.setdefault(f.source, []).append(i)
    for u, fs in from_source.items():
        du = F.dim(u)
        into_u = _vertex_table(F.quiver, u).morphisms
        maps_u = F._path_maps[u]
        side = Matrix.stack_cols([maps[i] for i in fs], du)
        composites = Matrix.stack_rows(
            [
                Matrix.stack_cols(
                    [maps[table.index[PathMorphism(g.source, v, g.edges + table.morphisms[i].edges)]] for i in fs],
                    mg.rows,
                )
                for g, mg in zip(into_u, maps_u)
            ],
            len(fs) * d,
        )
        if Matrix.stack_rows(maps_u, du) @ side != composites:
            raise AssertionError(
                f"restriction maps into {v!r} are not functorial along the paths from {u!r}; "
                "presheaf data is not functorial"
            )


def eval_representation(V: Representation, p: PathMorphism) -> LinearMap:
    """V(p): V(source) -> V(target), composing edge maps along the path."""
    result = LinearMap.identity(V.dim(p.source))
    for edge_id in p.edges:
        result = V.edge_map(edge_id) @ result
    return result


def dualize(V: Representation) -> Presheaf:
    """The dual presheaf: same dimensions, each edge map transposed."""
    return Presheaf(
        V.quiver,
        dict(V.dims),
        {e: transpose_map(f) for e, f in V.edge_maps.items()},
    )


def constant_presheaf(q: Quiver, dim: int) -> Presheaf:
    """Every vertex gets the same space, every edge map the identity."""
    return Presheaf(
        q,
        {v: dim for v in q.vertices},
        {e.id: LinearMap.identity(dim) for e in q.edges},
    )


@dataclass(frozen=True)
class NatTrans:
    """Per-vertex components of a natural transformation; naturality on
    edges suffices because the path category is free."""

    components: Mapping  # vertex -> LinearMap

    def component(self, v: str) -> LinearMap:
        return self.components[v]


def identity_nat_trans(F: Presheaf) -> NatTrans:
    return NatTrans({v: LinearMap.identity(F.dim(v)) for v in F.quiver.vertices})


def naturality_failures(F: Presheaf, G: Presheaf, etas) -> list:
    """The positions k, ascending, at which etas[k]: F -> G fails
    G(e) . eta_t(e) = eta_s(e) . F(e) on some edge e.

    Two products per edge for the whole list: G(e) times the eta_t side by
    side, whose column block k is G(e) . eta_t of etas[k], and the eta_s
    stacked times F(e), whose row block k is eta_s . F(e).
    """
    q = F.quiver
    for eta in etas:
        for v in q.vertices:
            if (eta.component(v).codomain_dim, eta.component(v).domain_dim) != (G.dim(v), F.dim(v)):
                raise DimensionMismatchError(f"component at {v!r} does not map F(v) to G(v)")
    failed = set()
    for e in q.edges if etas else ():
        s, t = e.src, e.dst
        w, h = F.dim(t), G.dim(s)
        side = Matrix.stack_cols([eta.component(t).matrix for eta in etas], G.dim(t))
        left = G.edge_map(e.id).matrix @ side
        stacked = Matrix.stack_rows([eta.component(s).matrix for eta in etas], F.dim(s))
        right = stacked @ F.edge_map(e.id).matrix
        # a / b = c / d iff a * d = c * b: numerators over one denominator
        ln, rn = left.num, right.num
        if left.den != right.den:
            ln, rn = [a * right.den for a in ln], [c * left.den for c in rn]
        lw = len(etas) * w
        for k in range(len(etas)):
            if any(ln[r * lw + k * w : r * lw + (k + 1) * w] != rn[(k * h + r) * w : (k * h + r + 1) * w] for r in range(h)):
                failed.add(k)
    return sorted(failed)


def is_natural_presheaf(F: Presheaf, G: Presheaf, eta: NatTrans) -> bool:
    """Check G(e) . eta_t(e) = eta_s(e) . F(e) on every edge."""
    return not naturality_failures(F, G, [eta])


def is_natural_representation(V: Representation, W: Representation, eta: NatTrans) -> bool:
    """Check eta_t(e) . V(e) = W(e) . eta_s(e) on every edge: transposed,
    this is the naturality of the dual eta*: W* -> V*."""
    dual = NatTrans({v: transpose_map(f) for v, f in eta.components.items()})
    return is_natural_presheaf(dualize(W), dualize(V), dual)


def dualize_morphism(V: Representation, W: Representation, eta: NatTrans) -> NatTrans:
    """Dual of a representation morphism eta: V -> W, a map W* -> V*.

    Components are transposes; the direction reverses contravariantly.
    """
    if not is_natural_representation(V, W, eta):
        raise NotNaturalError("input transformation fails the naturality square")
    return NatTrans({v: transpose_map(f) for v, f in eta.components.items()})


def nat_trans_space(F: Presheaf, G: Presheaf) -> tuple:
    """Dimension and basis of the space of natural transformations F -> G.

    Solves the per-edge linear system G(e) . eta_t = eta_s . F(e) in the
    component entries; edges suffice since the category is free on the
    quiver.  A basis element that is not natural is the solver's fault.
    """
    if F.quiver != G.quiver:
        raise PresheafError("presheaves live on different quivers")
    q = F.quiver
    offsets: Dict[str, int] = {}
    total = 0
    for v in q.vertices:
        offsets[v] = total
        total += G.dim(v) * F.dim(v)

    rows = []
    for e in q.edges:
        fe = F.edge_map(e.id).matrix  # F(t) -> F(s)
        ge = G.edge_map(e.id).matrix  # G(t) -> G(s)
        fs, ft, gt = F.dim(e.src), F.dim(e.dst), G.dim(e.dst)
        src, dst = offsets[e.src], offsets[e.dst]
        # equation block: eta_s . F(e) - G(e) . eta_t = 0, one row per
        # (i in G(s), j in F(t)), times the denominators of F(e) and G(e);
        # the unknown (i, k) of the component at v is offsets[v] + i * F(v) + k
        for i in range(G.dim(e.src)):
            for j in range(ft):
                row = [0] * total
                for k in range(fs):
                    row[src + i * fs + k] += fe.num[k * ft + j] * ge.den
                for k in range(gt):
                    row[dst + k * ft + j] -= ge.num[i * gt + k] * fe.den
                rows.append(row)

    basis_vectors, den = kernel_vectors(rows, total)

    def unpack(vec) -> NatTrans:
        components = {}
        for v in q.vertices:
            size = G.dim(v) * F.dim(v)
            start = offsets[v]
            components[v] = LinearMap(Matrix.from_ints(G.dim(v), F.dim(v), tuple(vec[start : start + size]), den))
        return NatTrans(components)

    basis = [unpack(vec) for vec in basis_vectors]
    # every returned basis element must pass the exact naturality check
    if naturality_failures(F, G, basis):
        raise AssertionError("solver produced a non-natural transformation")
    return len(basis), basis
