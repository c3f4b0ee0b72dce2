"""Exact rational linear algebra: matrices, maps, diagram limits/colimits."""

from .diagram import DiagramOfSpaces, colimit, limit
from .matrix import (
    LinearMap,
    Matrix,
    Scalar,
    as_vector,
    frac,
    inverse,
    inverse_map,
    is_isomorphism,
    kernel_basis,
    rank,
    rref,
    solve,
    transpose_map,
)

__all__ = [
    "DiagramOfSpaces",
    "LinearMap",
    "Matrix",
    "Scalar",
    "as_vector",
    "backend_name",
    "colimit",
    "frac",
    "inverse",
    "inverse_map",
    "is_isomorphism",
    "kernel_basis",
    "limit",
    "rank",
    "rref",
    "solve",
    "transpose_map",
]


def backend_name() -> str:
    """The elimination kernel in use; there is one, in pure Python."""
    return "python"
