"""Deciding the sheaf condition for a sieve from its generators.

For a sieve S on v the section map stacks the restriction maps of the
sieve members; the compatibility space is the subspace of the product cut
out by the precomposition equations.  The presheaf satisfies the sheaf
condition for S when the section map is injective and its image is the
whole compatibility space.  In a free path category every member of S is
one generator of S (a member whose parent in the path tree is not a
member) followed by a path, in exactly one way, so the compatible
families are free on their values at the generators r, and the condition
holds iff F(v) -> sum of F(dom r) is square and of full rank.
is_sheaf_for_sieve decides that by one exact rank over the presheaf's
table of path maps; the equalizer itself (section_map, compatibility_space,
glue) supplies the witness for a family that does not glue.  Its equations
are F(e) x_f = x_(f o e) for edges e only: every path is a composite of
edges, so they cut out the same space as the equations of all paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional

from .linalg import LinearMap, Matrix, kernel_basis, rank, solve, is_isomorphism
from .presheaf import DimensionMismatchError, Presheaf, path_maps
from .quiver import Quiver, edge_morphism
from .sieves import (
    DEFAULT_SIEVE_LIMIT,
    Sieve,
    TopologySpec,
    _vertex_table,
    check_sieve,
    covering_sieves,
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


def _member_offsets(F: Presheaf, s: Sieve):
    offsets = {}
    total = 0
    for f in s.sorted_members():
        offsets[f] = total
        total += F.dim(f.source)
    return offsets, total


def section_map(F: Presheaf, s: Sieve) -> LinearMap:
    """epsilon: F(v) -> product over the sieve of F(dom f), stacked blocks."""
    maps = path_maps(F, s.codomain)
    mask = _vertex_table(F.quiver, s.codomain).mask_of(s)
    return LinearMap(Matrix.stack_rows([m for i, m in enumerate(maps) if mask >> i & 1], F.dim(s.codomain)))


def _compatibility_matrix(F: Presheaf, s: Sieve) -> Matrix:
    """One block F(e) x_f = x_(f o e) per member f and edge e into dom f."""
    q = F.quiver
    check_sieve(q, s)  # raises NotASieveError for a set that is not closed
    table = _vertex_table(q, s.codomain)
    offsets, total = _member_offsets(F, s)
    rows = []
    for f, start in offsets.items():
        for c in table.children[table.index[f]]:
            # f o e is the child c of f in the path tree, a member by closure
            fe = table.morphisms[c]
            me = F.edge_map(fe.edges[0]).matrix  # F(dom f) -> F(dom fe)
            for i in range(me.rows):
                row = [Fraction(0)] * total
                row[start : start + me.cols] = me.row(i)
                row[offsets[fe] + i] -= 1
                rows.append(row)
    return Matrix.from_rows(rows, total)


def compatibility_space(F: Presheaf, s: Sieve) -> tuple:
    """Dimension and basis of the space of compatible families over s."""
    basis = kernel_basis(_compatibility_matrix(F, s))
    return len(basis), [SectionFamily.from_vector(F, s, vec) for vec in basis]


def _generator_maps(F: Presheaf, s: Sieve, mask: int) -> tuple:
    """The generators r of s and F(v) -> sum of F(dom r), their maps stacked."""
    v = s.codomain
    table = _vertex_table(F.quiver, v)
    generators = table.generators(mask)
    maps = path_maps(F, v)
    stacked = Matrix.stack_rows([maps[r] for r in generators], F.dim(v))
    return [table.morphisms[r] for r in generators], stacked


def glue(F: Presheaf, family: SectionFamily) -> Optional[tuple]:
    """The glued section for a compatible family, or None.

    A compatible family is fixed by its sections at the generators r of
    the sieve, so a particular solution of F(v) -> sum of F(dom r) is
    returned.
    """
    s = family.sieve
    for f in s.sorted_members():
        if len(family.sections[f]) != F.dim(f.source):
            raise DimensionMismatchError(
                f"section at {f.label()} has wrong length"
            )
    vec = family.to_vector()
    compat = _compatibility_matrix(F, s)
    if any(x != 0 for x in compat.apply(vec)):
        return None
    generators, stacked = _generator_maps(F, s, _vertex_table(F.quiver, s.codomain).mask_of(s))
    return solve(stacked, [x for r in generators for x in family.sections[r]])


def is_sheaf_for_sieve(
    F: Presheaf,
    s: Sieve,
    recorder: Optional[Callable] = None,
) -> SheafVerdict:
    """The sheaf condition for s, decided on the generators of s.

    Every member of s is a generator r followed by a path, in exactly one
    way, so a compatible family is free on its values at the generators:
    the families form the sum of F(dom r), of dimension sigma, and the
    section map is injective iff F(v) -> sum F(dom r), the generator maps
    stacked, is.  Hence F is a sheaf for s iff that map is square and of
    full rank; sigma < dim F(v) fails without elimination.  The maps F(r)
    come from path_maps, which checks functoriality once per vertex.  A
    compatible family that does not glue is found as the equalizer finds
    it: the first basis vector of the compatibility space whose values at
    the generators are outside the image of the stacked map.
    """
    q = F.quiver
    mask = check_sieve(q, s)
    v = s.codomain
    generators, stacked = _generator_maps(F, s, mask)
    d = F.dim(v)
    sigma = stacked.rows
    if sigma < d or rank(stacked) < d:
        verdict = SheafVerdict(False, v, s, EPSILON_NOT_INJECTIVE)
    elif sigma > d:
        witness = None
        for vec in kernel_basis(_compatibility_matrix(F, s)):
            family = SectionFamily.from_vector(F, s, vec)
            if solve(stacked, [x for r in generators for x in family.sections[r]]) is None:
                witness = family
                break
        verdict = SheafVerdict(False, v, s, FAMILY_NOT_GLUED, witness)
    else:
        verdict = SheafVerdict(True, v)
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
    vertices and sieves in canonical order; first failure reported."""
    q = F.quiver
    for v in q.vertices:
        for s in covering_sieves(q, t, v, limit):
            verdict = is_sheaf_for_sieve(F, s, recorder)
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
