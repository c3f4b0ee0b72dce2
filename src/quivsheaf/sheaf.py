"""Deciding the sheaf condition for a sieve from its generators.

For a sieve S on v the section map stacks the restriction maps of the
sieve members, and a compatible family is a vector of sections x_f with
x_(f o g) = F(g) x_f.  The presheaf satisfies the sheaf condition for S
when every compatible family comes from exactly one section.  In a free
path category every member of S is one generator of S (a member whose
parent in the path tree is not a member) followed by a path, in exactly
one way, so a compatible family is fixed by its values at the generators
r, and any values there extend to one: carry them down each generator's
subtree, x_(f o e) = F(e) x_f for edges e.  That extension is the one
description of compatible families here.  The condition holds iff
F(v) -> sum of F(dom r) is square and of full rank; compatibility_space,
glue and the witness for a family that does not glue are all extensions
of values at the generators.

The decision reads the shape of the generators before any map.  A sieve
generated by the identity (a maximal sieve, the only covering sieve of
coarse and graded:n) holds for every presheaf, and a generator sum
sigma = sum of dim F(dom r) below dim F(v) fails on dimensions.  Only the
other sieves need the presheaf's table of path maps and one exact rank;
every table that is built is checked for functoriality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from .linalg import LinearMap, Matrix, is_isomorphism, kernel_basis, rank, solve
from .linalg.matrix import ONE, ZERO
from .presheaf import DimensionMismatchError, Presheaf, path_maps
from .quiver import Quiver, edge_morphism
from .sieves import (
    DEFAULT_SIEVE_LIMIT,
    Sieve,
    TopologySpec,
    _vertex_table,
    check_sieve,
    generate_sieve,
)

EPSILON_NOT_INJECTIVE = "epsilon_not_injective"
FAMILY_NOT_GLUED = "compatible_family_not_glued"


@dataclass(frozen=True)
class SectionFamily:
    """One vector per sieve member, indexed in the sieve's canonical order."""

    sieve: Sieve
    sections: Mapping  # PathMorphism -> tuple of Fractions

    def to_vector(self) -> tuple:
        out = []
        for f in self.sieve.sorted_members():
            out.extend(self.sections[f])
        return tuple(out)

    @classmethod
    def from_vector(cls, F: Presheaf, sieve: Sieve, vec) -> "SectionFamily":
        sections = {}
        pos = 0
        for f in sieve.sorted_members():
            d = F.dim(f.source)
            sections[f] = tuple(vec[pos : pos + d])
            pos += d
        if pos != len(vec):
            raise DimensionMismatchError("family vector length does not match sieve")
        return cls(sieve, sections)


@dataclass(frozen=True)
class SheafVerdict:
    holds: bool
    vertex: Optional[str] = None
    failing_sieve: Optional[Sieve] = None
    diagnosis: Optional[str] = None
    witness: Optional[SectionFamily] = None


def section_map(F: Presheaf, s: Sieve) -> LinearMap:
    """epsilon: F(v) -> product over the sieve of F(dom f), stacked blocks;
    raises NotASieveError unless s is closed."""
    mask = check_sieve(F.quiver, s)
    maps = path_maps(F, s.codomain)
    return LinearMap(Matrix.stack_rows([m for i, m in enumerate(maps) if mask >> i & 1], F.dim(s.codomain)))


def _generator_maps(F: Presheaf, v: str, mask: int) -> tuple:
    """The generators r of the sieve `mask` on v and F(v) -> sum of
    F(dom r), their maps stacked.  The identity alone stacks to the
    identity of F(v), read without the table of path maps."""
    table = _vertex_table(F.quiver, v)
    generators = table.generators(mask)
    if generators == [0]:
        stacked = Matrix.identity(F.dim(v))
    else:
        maps = path_maps(F, v)
        stacked = Matrix.stack_rows([maps[r] for r in generators], F.dim(v))
    return [table.morphisms[r] for r in generators], stacked


def _extend(F: Presheaf, s: Sieve, mask: int, values) -> SectionFamily:
    """The compatible family on s (closed, with mask `mask`) whose values at
    the generators, in order, are the blocks of `values`, a vector of the
    sum of F(dom r): each value is carried down its generator's subtree,
    x_(f o e) = F(e) x_f, parents before children."""
    table = _vertex_table(F.quiver, s.codomain)
    sections = {}
    pos = 0
    for r in table.generators(mask):
        d = F.dim(table.morphisms[r].source)
        sections[r] = tuple(values[pos : pos + d])
        pos += d
    # a child's index is larger than its parent's
    for i in range(1, len(table.morphisms)):
        if mask >> i & 1 and i not in sections:
            sections[i] = F.edge_map(table.morphisms[i].edges[0]).apply(sections[table.parent[i]])
    return SectionFamily(s, {table.morphisms[i]: x for i, x in sections.items()})


def compatibility_space(F: Presheaf, s: Sieve) -> tuple:
    """Dimension and basis of the space of compatible families over s: the
    extensions of the unit vectors of the sum of F(dom r)."""
    mask = check_sieve(F.quiver, s)
    _, stacked = _generator_maps(F, s.codomain, mask)
    sigma = stacked.rows
    units = [[ONE if i == j else ZERO for i in range(sigma)] for j in range(sigma)]
    return sigma, [_extend(F, s, mask, unit) for unit in units]


def glue(F: Presheaf, family: SectionFamily) -> Optional[tuple]:
    """The glued section for a compatible family, or None.

    A family is compatible exactly when it is the extension of its own
    values at the generators r of the sieve; a particular solution of
    F(v) -> sum of F(dom r) on those values is returned.
    """
    s = family.sieve
    for f in s.sorted_members():
        if len(family.sections[f]) != F.dim(f.source):
            raise DimensionMismatchError(
                f"section at {f.label()} has wrong length"
            )
    mask = check_sieve(F.quiver, s)
    generators, stacked = _generator_maps(F, s.codomain, mask)
    values = [x for r in generators for x in family.sections[r]]
    if _extend(F, s, mask, values).to_vector() != family.to_vector():
        return None
    return solve(stacked, values)


def _decide(F: Presheaf, table, mask: int, s: Optional[Sieve] = None) -> SheafVerdict:
    """The sheaf condition for the closed sieve `mask` on table.vertex, from
    the shape of its generators r first.  The identity alone holds.  A sum
    sigma of dim F(dom r) below dim F(v) fails with no map built.  Else the
    rank of the stacked generator maps decides.  s, the sieve, is built
    from the mask when a failing verdict needs it and none is given."""
    v = table.vertex
    if mask & 1:
        return SheafVerdict(True, v)
    d = F.dim(v)
    sigma = sum(F.dim(table.morphisms[r].source) for r in table.generators(mask))
    diagnosis, values = EPSILON_NOT_INJECTIVE, None
    if sigma >= d:
        _, stacked = _generator_maps(F, v, mask)
        if rank(stacked) == d:
            if sigma == d:
                return SheafVerdict(True, v)
            diagnosis, values = FAMILY_NOT_GLUED, kernel_basis(stacked.transpose())[0]
    if s is None:
        s = table.sieve_of(mask)
    witness = None if values is None else _extend(F, s, mask, values)
    return SheafVerdict(False, v, s, diagnosis, witness)


def is_sheaf_for_sieve(
    F: Presheaf,
    s: Sieve,
    recorder: Optional[Callable] = None,
) -> SheafVerdict:
    """The sheaf condition for s, decided on the generators of s.

    A compatible family is free on its values at the generators r: the
    families form the sum of F(dom r), of dimension sigma, and the section
    map is injective iff F(v) -> sum F(dom r), the generator maps stacked,
    is.  Hence F is a sheaf for s iff that map is square and of full rank.
    The identity alone stacks to the identity and holds, and sigma <
    dim F(v) fails; neither reads a path map.  Otherwise the maps F(r)
    come from path_maps, which checks functoriality once per vertex.  When
    the map is injective but sigma is larger, the first kernel vector of
    its transpose is orthogonal to its image, so not in it, and its
    extension is the compatible family that does not glue.  Raises
    NotASieveError unless s is closed.
    """
    mask = check_sieve(F.quiver, s)
    verdict = _decide(F, _vertex_table(F.quiver, s.codomain), mask, s)
    if recorder is not None:
        recorder(F, s, verdict)
    return verdict


def is_sheaf(
    F: Presheaf,
    t: TopologySpec,
    limit: int = DEFAULT_SIEVE_LIMIT,
    recorder: Optional[Callable] = None,
) -> SheafVerdict:
    """Conjunction of the per-sieve check over all covering sieves of t,
    vertices and sieves in canonical order; first failure reported.  The
    enumerated masks are closed, so each is decided as it stands, and a
    Sieve is built for the recorder or a failing verdict only."""
    q = F.quiver
    for v in q.vertices:
        table = _vertex_table(q, v)
        for mask in table.covering_masks(t, limit):
            s = None if recorder is None else table.sieve_of(mask)
            verdict = _decide(F, table, mask, s)
            if recorder is not None:
                recorder(F, s, verdict)
            if not verdict.holds:
                return verdict
    return SheafVerdict(True)


def is_discrete_sheaf_criterion(F: Presheaf) -> bool:
    """Closed-form discrete test: every edge map is an isomorphism.

    Paths are composites of edges and composites of isomorphisms are
    isomorphisms, so edge maps suffice.
    """
    return all(is_isomorphism(F.edge_map(e.id)) for e in F.quiver.edges)


@dataclass(frozen=True)
class CrossValidationReport:
    criterion_holds: bool
    definitional: SheafVerdict
    agree: bool
    separating_sieve: Optional[Sieve] = None


def cross_validate_discrete(
    F: Presheaf, q: Quiver, limit: int = DEFAULT_SIEVE_LIMIT
) -> CrossValidationReport:
    """Compare the closed-form discrete criterion against the definitional
    equalizer checker on the nonempty-sieve discrete topology."""
    criterion = is_discrete_sheaf_criterion(F)
    definitional = is_sheaf(F, TopologySpec.discrete(include_empty=False), limit)
    agree = criterion == definitional.holds
    separating = None
    if not agree:
        if not definitional.holds:
            separating = definitional.failing_sieve
        else:
            # definitional checker accepts but some edge map is not an iso;
            # the sieve generated by that edge separates the two readings
            for e in q.edges:
                if not is_isomorphism(F.edge_map(e.id)):
                    separating = generate_sieve(q, e.dst, [edge_morphism(e)])
                    break
    return CrossValidationReport(criterion, definitional, agree, separating)
