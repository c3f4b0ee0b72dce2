"""Exact rational matrices and the linear-algebra decisions built on them.

Entries are ``fractions.Fraction`` and every decision is exact: rank,
solvability and isomorphism questions are decided by the integer kernel
in ``_kernels_py``, which builds Fractions only for the entries a result
holds.  Matrices with zero rows or zero columns are legal and represent maps to or from the zero space.
Values are immutable after construction and every operation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

from . import _kernels_py as kernel
from ._kernels_py import ONE, ZERO

Scalar = Fraction


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def as_vector(values: Sequence) -> tuple:
    return tuple(frac(x) for x in values)


@dataclass(frozen=True)
class Matrix:
    """A rows x cols rational matrix, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], cols: Optional[int] = None) -> "Matrix":
        grid = [list(r) for r in rows]
        if grid:
            width = len(grid[0]) if cols is None else cols
            if any(len(r) != width for r in grid):
                raise ValueError("ragged rows")
        else:
            width = 0 if cols is None else cols
        return cls(len(grid), width, tuple(map(frac, chain.from_iterable(grid))))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, (ZERO,) * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        entries = tuple(ONE if i == j else ZERO for i in range(n) for j in range(n))
        return cls(n, n, entries)

    @classmethod
    def stack_rows(cls, blocks: Sequence["Matrix"], cols: int) -> "Matrix":
        entries = []
        total = 0
        for b in blocks:
            if b.cols != cols:
                raise ValueError("column mismatch in row stack")
            entries.extend(b.entries)
            total += b.rows
        return cls(total, cols, tuple(entries))

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        entries = tuple(
            self.entries[i * self.cols + j]
            for j in range(self.cols)
            for i in range(self.rows)
        )
        return Matrix(self.cols, self.rows, entries)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        if self.rows == 0 or other.cols == 0 or self.cols == 0:
            return Matrix.zero(self.rows, other.cols)
        grid = kernel.matmul(self.to_rows(), other.to_rows(), other.cols)
        return Matrix(self.rows, other.cols, tuple(chain.from_iterable(grid)))

    def apply(self, vec: Sequence) -> tuple:
        """Matrix-vector product (column-vector convention)."""
        v = as_vector(vec)
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(
            sum((self.entry(i, j) * v[j] for j in range(self.cols)), Fraction(0))
            for i in range(self.rows)
        )


def rref(m: Matrix) -> tuple:
    """Reduced row echelon form of ``m`` with its pivot columns."""
    grid, pivots = kernel.rref_pivots(m.to_rows(), m.cols)
    return Matrix(m.rows, m.cols, tuple(chain.from_iterable(grid))), tuple(pivots)


def rank(m: Matrix) -> int:
    """Number of pivots, counted without building any Fraction."""
    if m.rows == 1 or m.cols == 1:
        return 1 if any(m.entries) else 0
    return len(kernel.reduce_rows(kernel.integer_rows(m.to_rows()), m.cols, above=False))


def kernel_basis(m: Matrix) -> list:
    """Basis of the null space of ``m`` as a list of tuples; [] when injective."""
    reduced = kernel.integer_rows(m.to_rows())
    pivots = kernel.reduce_rows(reduced, m.cols)
    pivot_set = set(pivots)
    basis = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        vec = [ZERO] * m.cols
        vec[f] = ONE
        for row, p in zip(reduced, pivots):
            vec[p] = kernel.fraction(-row[f], row[p])
        basis.append(tuple(vec))
    return basis


def solve(m: Matrix, b: Sequence) -> Optional[tuple]:
    """Some particular solution of m x = b, or None when inconsistent."""
    vec = as_vector(b)
    if len(vec) != m.rows:
        raise ValueError("right-hand side length does not match row count")
    n = m.cols
    reduced = kernel.integer_rows([row + [x] for row, x in zip(m.to_rows(), vec)])
    pivots = kernel.reduce_rows(reduced, n + 1)
    if pivots and pivots[-1] == n:
        return None
    x = [ZERO] * n
    for row, p in zip(reduced, pivots):
        x[p] = kernel.fraction(row[n], row[p])
    return tuple(x)


def inverse(m: Matrix) -> Matrix:
    """Inverse of a square full-rank matrix; raises ValueError otherwise."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    identity = Matrix.identity(n).to_rows()
    reduced = kernel.integer_rows([row + unit for row, unit in zip(m.to_rows(), identity)])
    if kernel.reduce_rows(reduced, 2 * n) != list(range(n)):
        raise ValueError("matrix is singular")
    entries = tuple(kernel.fraction(row[j], row[i]) for i, row in enumerate(reduced) for j in range(n, 2 * n))
    return Matrix(n, n, entries)


@dataclass(frozen=True)
class LinearMap:
    """A linear map under the column-vector convention: the matrix acts on
    the left, so domain is the column count and codomain the row count."""

    matrix: Matrix

    @property
    def domain_dim(self) -> int:
        return self.matrix.cols

    @property
    def codomain_dim(self) -> int:
        return self.matrix.rows

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], cols: Optional[int] = None) -> "LinearMap":
        return cls(Matrix.from_rows(rows, cols))

    @classmethod
    def identity(cls, n: int) -> "LinearMap":
        return cls(Matrix.identity(n))

    @classmethod
    def zero(cls, codomain_dim: int, domain_dim: int) -> "LinearMap":
        return cls(Matrix.zero(codomain_dim, domain_dim))

    def __matmul__(self, other: "LinearMap") -> "LinearMap":
        """Composition self after other."""
        return LinearMap(self.matrix @ other.matrix)

    def apply(self, vec: Sequence) -> tuple:
        return self.matrix.apply(vec)


def is_isomorphism(f: LinearMap) -> bool:
    """True iff f is square and of full rank; 0x0 maps count as isomorphisms."""
    return f.domain_dim == f.codomain_dim and rank(f.matrix) == f.domain_dim


def transpose_map(f: LinearMap) -> LinearMap:
    return LinearMap(f.matrix.transpose())


def inverse_map(f: LinearMap) -> LinearMap:
    return LinearMap(inverse(f.matrix))
