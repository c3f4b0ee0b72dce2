"""Definitional reference for the sheaf condition on one sieve: the whole
equalizer.  The section map stacks every member's restriction map, the
compatibility space is cut out by every precomposition equation, and the
condition holds when the section map is injective and its rank is the
dimension of the compatibility space.  This is the check that the
generator rule in quivsheaf.sheaf replaced.  Its section map and its
all-paths compatibility matrix are built here, path by path through
eval_presheaf, so the oracle shares no builder with the package's sheaf
module.  generator_rule decides every sieve by the rank of its stacked
generator maps, the rule without the shortcuts the package takes, and
is_sheaf is the definitional loop over the covering sieves, the reference
for the package's is_sheaf, which decides masks without listing sieves."""

from fractions import Fraction
from typing import Callable, Optional

from quivsheaf import (
    PathMorphism,
    Presheaf,
    Sieve,
    TopologySpec,
    compose,
    enumerate_sieves,
    eval_presheaf,
    is_covering,
    maximal_sieve,
    morphisms_into,
)
from quivsheaf.linalg import LinearMap, Matrix, kernel_basis, rank, solve
from quivsheaf.sheaf import (
    EPSILON_NOT_INJECTIVE,
    FAMILY_NOT_GLUED,
    SectionFamily,
    SheafVerdict,
)
from quivsheaf.sieves import DEFAULT_SIEVE_LIMIT, check_sieve


def section_map(F: Presheaf, s: Sieve) -> LinearMap:
    """epsilon: F(v) -> product over the sieve of F(dom f), stacked blocks."""
    blocks = [eval_presheaf(F, f).matrix for f in s.sorted_members()]
    return LinearMap(Matrix.stack_rows(blocks, F.dim(s.codomain)))


def compatibility_matrix(F: Presheaf, s: Sieve) -> Matrix:
    """One block F(g) x_f = x_(f o g) per member f and every path g into
    dom f, the identity included."""
    q = F.quiver
    check_sieve(q, s)
    members = s.sorted_members()
    offsets = {}
    total = 0
    for f in members:
        offsets[f] = total
        total += F.dim(f.source)
    rows = []
    for f in members:
        for g in morphisms_into(q, f.source):
            fg = compose(g, f)
            mg = eval_presheaf(F, g).matrix  # F(dom f) -> F(dom g)
            for i in range(mg.rows):
                row = [Fraction(0)] * total
                for j in range(mg.cols):
                    row[offsets[f] + j] += mg.entry(i, j)
                row[offsets[fg] + i] -= 1
                rows.append(row)
    return Matrix.from_rows(rows, total)


def is_sheaf_for_sieve(
    F: Presheaf,
    s: Sieve,
    recorder: Optional[Callable] = None,
) -> SheafVerdict:
    """Equalizer check by rank arithmetic.

    Holds iff the section map is injective and its rank equals the
    dimension of the compatibility space.  The containment image(epsilon)
    inside the compatibility space is asserted on every call; it holds by
    functoriality and a violation means a broken presheaf.
    """
    compat = compatibility_matrix(F, s)
    eps = section_map(F, s)
    if not all(x == 0 for x in (compat @ eps.matrix).entries):
        raise AssertionError(
            "section-map image escapes the compatibility space; "
            "presheaf data is not functorial"
        )
    d = F.dim(s.codomain)
    eps_rank = rank(eps.matrix)
    compat_dim = eps.matrix.rows - rank(compat) if eps.matrix.rows else 0
    # compat matrix has eps.matrix.rows columns (the product dimension)
    if eps_rank != d:
        verdict = SheafVerdict(False, s.codomain, s, EPSILON_NOT_INJECTIVE)
    elif compat_dim != eps_rank:
        witness = None
        for vec in kernel_basis(compat):
            if solve(eps.matrix, vec) is None:
                witness = SectionFamily.from_vector(F, s, vec)
                break
        verdict = SheafVerdict(False, s.codomain, s, FAMILY_NOT_GLUED, witness)
    else:
        verdict = SheafVerdict(True, s.codomain)
    if recorder is not None:
        recorder(F, s, verdict)
    return verdict


def generator_rule(
    F: Presheaf,
    s: Sieve,
    recorder: Optional[Callable] = None,
) -> SheafVerdict:
    """The generator rule on every sieve, with no shortcut: the generators
    r of s (members whose path without its first edge is not a member),
    F(v) -> sum of F(dom r) stacked path by path, and one rank.  The
    witness is the first kernel vector of the transpose, each value x_r
    carried to the members r o g as F(g) x_r."""
    check_sieve(F.quiver, s)
    v, d = s.codomain, F.dim(s.codomain)
    members = s.sorted_members()
    inside = {f.edges for f in members}
    generators = [f for f in members if not f.edges or f.edges[1:] not in inside]
    stacked = Matrix.stack_rows([eval_presheaf(F, r).matrix for r in generators], d)
    if rank(stacked) < d:
        verdict = SheafVerdict(False, v, s, EPSILON_NOT_INJECTIVE)
    elif stacked.rows > d:
        kernel, values, pos = kernel_basis(stacked.transpose())[0], {}, 0
        for r in generators:
            values[r] = tuple(kernel[pos : pos + F.dim(r.source)])
            pos += F.dim(r.source)
        sections = {}
        for f in members:
            r = next(r for r in generators if f.edges[len(f.edges) - len(r.edges) :] == r.edges)
            g = PathMorphism(f.source, r.source, f.edges[: len(f.edges) - len(r.edges)])
            sections[f] = eval_presheaf(F, g).apply(values[r])
        verdict = SheafVerdict(False, v, s, FAMILY_NOT_GLUED, SectionFamily(s, sections))
    else:
        verdict = SheafVerdict(True, v)
    if recorder is not None:
        recorder(F, s, verdict)
    return verdict


def is_sheaf(
    F: Presheaf,
    t: TopologySpec,
    check: Callable = is_sheaf_for_sieve,
    limit: int = DEFAULT_SIEVE_LIMIT,
    recorder: Optional[Callable] = None,
) -> SheafVerdict:
    """The first failure of the per-sieve check `check` over the covering
    sieves, vertices and sieves in canonical order: every sieve that
    is_covering accepts, or the maximal one alone for coarse, which lists
    none and so meets no morphism limit."""
    q = F.quiver
    for v in q.vertices:
        if t.kind == "coarse":
            covering = [maximal_sieve(q, v)]
        else:
            covering = [s for s in enumerate_sieves(q, v, limit) if is_covering(t, s, q)]
        for s in covering:
            verdict = check(F, s, recorder)
            if not verdict.holds:
                return verdict
    return SheafVerdict(True)
