"""Finite diagrams of vector spaces with exact limits and colimits.

A diagram is a list of node dimensions plus arrows, each arrow carrying a
linear map from its source node's space to its destination node's space.
Limits are computed as compatibility subspaces of the direct sum, colimits
as quotients of the direct sum by one relation per (arrow, basis vector).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ._kernels_py import kernel_vectors
from .matrix import LinearMap, Matrix


@dataclass(frozen=True)
class DiagramOfSpaces:
    nodes: tuple  # dimensions
    arrows: tuple  # (src_index, dst_index, LinearMap)

    def __post_init__(self):
        for src, dst, f in self.arrows:
            if not (0 <= src < len(self.nodes) and 0 <= dst < len(self.nodes)):
                raise ValueError("arrow endpoint out of range")
            if f.domain_dim != self.nodes[src] or f.codomain_dim != self.nodes[dst]:
                raise ValueError(
                    f"arrow {src}->{dst} has shape {f.codomain_dim}x{f.domain_dim}, "
                    f"expected {self.nodes[dst]}x{self.nodes[src]}"
                )

    @classmethod
    def build(cls, nodes: Sequence[int], arrows: Sequence) -> "DiagramOfSpaces":
        return cls(tuple(nodes), tuple(arrows))


def _offsets(dims):
    offs = []
    total = 0
    for d in dims:
        offs.append(total)
        total += d
    return offs, total


def limit(d: DiagramOfSpaces) -> tuple:
    """Limit subspace of the direct sum cut out by arrow compatibility.

    Returns (dim, cone) where cone[i] maps the limit (in the coordinates of
    the returned basis) to node i.  Compatibility for an arrow f: s -> t is
    f(x_s) = x_t, written over the denominator of f.
    """
    offs, total = _offsets(d.nodes)
    rows = []
    for src, dst, f in d.arrows:
        m = f.matrix
        for i in range(m.rows):
            row = [0] * total
            row[offs[src] : offs[src] + m.cols] = m.num[i * m.cols : (i + 1) * m.cols]
            row[offs[dst] + i] -= m.den
            rows.append(row)
    basis, den = kernel_vectors(rows, total)
    dim = len(basis)
    # columns of the cone matrix are the node-i blocks of the basis vectors
    cone = []
    for i, node_dim in enumerate(d.nodes):
        num = tuple(vec[offs[i] + r] for r in range(node_dim) for vec in basis)
        cone.append(LinearMap(Matrix.from_ints(node_dim, dim, num, den)))
    return dim, cone


def colimit(d: DiagramOfSpaces) -> tuple:
    """Quotient of the direct sum by span{i_src(x) - i_dst(f(x))}.

    Returns (dim, cocone) where cocone[i] maps node i into the colimit.
    The quotient map is a basis of the left null space of the relation
    matrix, so the cocone maps commute with every arrow by construction.
    Each relation is written over the denominator of its arrow's map.
    """
    offs, total = _offsets(d.nodes)
    relations = []
    for src, dst, f in d.arrows:
        m = f.matrix
        for j in range(m.cols):
            rel = [0] * total
            rel[offs[src] + j] += m.den
            for i in range(m.rows):
                rel[offs[dst] + i] -= m.num[i * m.cols + j]
            relations.append(rel)
    # the rows of the quotient map are the vectors orthogonal to every relation
    quotient_rows, den = kernel_vectors(relations, total)
    dim = len(quotient_rows)
    cocone = []
    for i, node_dim in enumerate(d.nodes):
        num = tuple(x for row in quotient_rows for x in row[offs[i] : offs[i] + node_dim])
        cocone.append(LinearMap(Matrix.from_ints(dim, node_dim, num, den)))
    return dim, cocone
