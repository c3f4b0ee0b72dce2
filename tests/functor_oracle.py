"""Definitional reference for the pointwise extension: the limit over the
slice of morphisms into v.  This is the construction that
quivsheaf.functors.left_adjoint_literal replaced by the maximal sieve on v,
whose compatible families are the same space (Mac Lane & Moerdijk,
Sheaves in Geometry and Logic, III.4).  Every F(p) is evaluated path by
path through eval_presheaf, so the oracle shares no builder with the
package's path-map tables."""

from quivsheaf import Presheaf, eval_presheaf, is_isomorphism, limit, slice_objects, solve
from quivsheaf.functors import PointwiseExtensionReport
from quivsheaf.linalg import DiagramOfSpaces, LinearMap, Matrix


def left_adjoint_literal(F: Presheaf, v: str) -> PointwiseExtensionReport:
    """Pointwise extension over all morphisms into v.

    Builds the diagram indexed by morphisms f: u -> v (node f carries
    F(u); each factorization g with f o g = f' contributes the map F(g)
    from node f to node f') and computes its universal space together with
    the canonical comparison from F(v) at the identity node.
    """
    sl = slice_objects(F.quiver, v)
    nodes = [F.dim(f.source) for f in sl.objects]
    arrows = []
    for i_fprime, i_f, g in sl.arrows:
        # F(g): F(dom f) -> F(dom f'), i.e. node i_f -> node i_fprime
        arrows.append((i_f, i_fprime, eval_presheaf(F, g)))
    dim, cone = limit(DiagramOfSpaces.build(nodes, arrows))

    # comparison: columns are the coordinates of (F(f)(b))_f in the
    # universal space's basis, for b ranging over a basis of F(v)
    stacked = Matrix.stack_rows([eval_presheaf(F, f).matrix for f in sl.objects], F.dim(v))
    basis_cols = Matrix.from_rows(_universal_basis_rows(cone, nodes, dim), dim)
    comparison_cols = []
    for j in range(F.dim(v)):
        x = solve(basis_cols, stacked.col(j))
        if x is None:
            raise AssertionError("section image escapes the universal space")
        comparison_cols.append(x)
    comparison = LinearMap(
        Matrix.from_rows(
            [[comparison_cols[j][i] for j in range(F.dim(v))] for i in range(dim)],
            F.dim(v),
        )
    )
    return PointwiseExtensionReport(v, dim, comparison, is_isomorphism(comparison))


def _universal_basis_rows(cone, nodes, dim):
    """Rows of the (sum of nodes) x dim matrix whose columns are the
    universal space's basis vectors, recovered from the cone legs."""
    rows = []
    for leg, node_dim in zip(cone, nodes):
        for i in range(node_dim):
            rows.append([leg.matrix.entry(i, k) for k in range(dim)])
    return rows
