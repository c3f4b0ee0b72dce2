"""Exact rational matrices and the linear-algebra decisions built on them.

A matrix holds int numerators, row-major, over one positive denominator,
normalized so that the gcd of the denominator and every numerator is 1
(the zero matrix has denominator 1).  That form is unique, so two matrices
are equal exactly when their fields are.  A product multiplies ints and
normalizes once, and rank, null space, solve and inverse hand the
numerator rows to the integer kernel in ``_kernels_py`` as they stand.
``entries`` is the Fraction view of a matrix, built on first use.
Matrices with zero rows or zero columns are legal and represent maps to or
from the zero space.  Values are immutable after construction and every
operation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from . import _kernels_py as kernel
from ._kernels_py import ONE, ZERO, fraction

Scalar = Fraction


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def as_vector(values: Sequence) -> tuple:
    return tuple(frac(x) for x in values)


def _over_one_denominator(values) -> tuple:
    """(numerators, d) of rationals: d is the lcm of their denominators."""
    fracs = [frac(x) for x in values]
    d = lcm(*[x.denominator for x in fracs])
    if d == 1:
        return tuple(x.numerator for x in fracs), 1
    return tuple(x.numerator * (d // x.denominator) for x in fracs), d


def _matrix(rows: int, cols: int, num: tuple, den: int) -> "Matrix":
    """A Matrix from fields that are already in normal form."""
    m = object.__new__(Matrix)
    m.__dict__.update(rows=rows, cols=cols, num=num, den=den)
    return m


def _common_denominator(blocks) -> tuple:
    """The lcm d of the blocks' denominators and, per block, d over its own."""
    d = lcm(*[b.den for b in blocks])
    return d, [d // b.den for b in blocks]


@dataclass(frozen=True, init=False)
class Matrix:
    """A rows x cols rational matrix: entry (i, j) is num[i * cols + j] / den."""

    rows: int
    cols: int
    num: tuple
    den: int

    def __init__(self, rows: int, cols: int, entries: Sequence):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        # over the lcm of the reduced denominators the form is normal
        num, den = _over_one_denominator(entries)
        self.__dict__.update(rows=rows, cols=cols, num=num, den=den)

    @classmethod
    def from_ints(cls, rows: int, cols: int, num: tuple, den: int = 1) -> "Matrix":
        """The matrix whose entries are the ints ``num`` (row-major, a tuple)
        over ``den`` > 0, normalized."""
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                num = tuple(a // g for a in num)
                den //= g
        return _matrix(rows, cols, num, den)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], cols: Optional[int] = None) -> "Matrix":
        grid = [list(r) for r in rows]
        if grid:
            width = len(grid[0]) if cols is None else cols
            if any(len(r) != width for r in grid):
                raise ValueError("ragged rows")
        else:
            width = 0 if cols is None else cols
        return cls(len(grid), width, tuple(chain.from_iterable(grid)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return _matrix(rows, cols, (0,) * (rows * cols), 1)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        num = [0] * (n * n)
        num[:: n + 1] = [1] * n
        return _matrix(n, n, tuple(num), 1)

    @classmethod
    def stack_rows(cls, blocks: Sequence["Matrix"], cols: int) -> "Matrix":
        """The blocks one above the other."""
        if any(b.cols != cols for b in blocks):
            raise ValueError("column mismatch in row stack")
        # over the lcm of normal denominators the form is normal again
        den, scales = _common_denominator(blocks)
        num = []
        for b, s in zip(blocks, scales):
            num.extend(b.num if s == 1 else [a * s for a in b.num])
        return _matrix(sum(b.rows for b in blocks), cols, tuple(num), den)

    @classmethod
    def stack_cols(cls, blocks: Sequence["Matrix"], rows: int) -> "Matrix":
        """The blocks side by side."""
        if any(b.rows != rows for b in blocks):
            raise ValueError("row mismatch in column stack")
        den, scales = _common_denominator(blocks)
        num = []
        for i in range(rows):
            for b, s in zip(blocks, scales):
                part = b.num[i * b.cols : (i + 1) * b.cols]
                num.extend(part if s == 1 else [a * s for a in part])
        return _matrix(rows, sum(b.cols for b in blocks), tuple(num), den)

    @cached_property
    def entries(self) -> tuple:
        """The entries as Fractions, row-major."""
        den = self.den
        return tuple(fraction(a, den) for a in self.num)

    def entry(self, i: int, j: int) -> Fraction:
        return fraction(self.num[i * self.cols + j], self.den)

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return self.entries[j :: self.cols]

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def num_rows(self) -> list:
        """The numerator rows, as tuples: the matrix times den."""
        c, num = self.cols, self.num
        return [num[i * c : (i + 1) * c] for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        c, num = self.cols, self.num
        return _matrix(c, self.rows, tuple(chain.from_iterable(num[j::c] for j in range(c))), self.den)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        m, b = other.cols, other.num
        columns = [b[j::m] for j in range(m)]
        num = tuple(sum(map(mul, row, col)) for row in self.num_rows() for col in columns)
        return Matrix.from_ints(self.rows, m, num, self.den * other.den)

    def apply(self, vec: Sequence) -> tuple:
        """Matrix-vector product (column-vector convention)."""
        vn, vd = _over_one_denominator(vec)
        if len(vn) != self.cols:
            raise ValueError("vector length does not match column count")
        d = self.den * vd
        return tuple(fraction(sum(map(mul, row, vn)), d) for row in self.num_rows())


def rref(m: Matrix) -> tuple:
    """Reduced row echelon form of ``m`` with its pivot columns."""
    reduced = m.num_rows()
    pivots = kernel.reduce_rows(reduced, m.cols)
    d = lcm(*[row[p] for row, p in zip(reduced, pivots)])
    num = [a * (d // row[p]) for row, p in zip(reduced, pivots) for a in row]
    num.extend([0] * ((m.rows - len(pivots)) * m.cols))
    return Matrix.from_ints(m.rows, m.cols, tuple(num), d), tuple(pivots)


def rank(m: Matrix) -> int:
    """Number of pivots, counted without building any Fraction."""
    if m.rows == 1 or m.cols == 1:
        return 1 if any(m.num) else 0
    return len(kernel.reduce_rows(m.num_rows(), m.cols, above=False))


def kernel_basis(m: Matrix) -> list:
    """Basis of the null space of ``m`` as a list of tuples; [] when injective."""
    vectors, d = kernel.kernel_vectors(m.num_rows(), m.cols)
    return [tuple(fraction(a, d) for a in vec) for vec in vectors]


def solve(m: Matrix, b: Sequence) -> Optional[tuple]:
    """Some particular solution of m x = b, or None when inconsistent."""
    # with b = bn / bd, m x = b is (num * bd) x = den * bn row by row
    bn, bd = _over_one_denominator(b)
    if len(bn) != m.rows:
        raise ValueError("right-hand side length does not match row count")
    n = m.cols
    rows = m.num_rows() if bd == 1 else [tuple(a * bd for a in row) for row in m.num_rows()]
    reduced = [row + (x * m.den,) for row, x in zip(rows, bn)]
    pivots = kernel.reduce_rows(reduced, n + 1)
    if pivots and pivots[-1] == n:
        return None
    x = [ZERO] * n
    for row, p in zip(reduced, pivots):
        x[p] = fraction(row[n], row[p])
    return tuple(x)


def inverse(m: Matrix) -> Matrix:
    """Inverse of a square full-rank matrix; raises ValueError otherwise."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    units = Matrix.identity(n).num_rows()
    reduced = [row + unit for row, unit in zip(m.num_rows(), units)]
    if kernel.reduce_rows(reduced, 2 * n) != list(range(n)):
        raise ValueError("matrix is singular")
    # row i over its pivot is row i of num^-1, and m^-1 is den * num^-1
    d = lcm(*[row[i] for i, row in enumerate(reduced)])
    num = tuple(a * (m.den * d // row[i]) for i, row in enumerate(reduced) for a in row[n:])
    return Matrix.from_ints(n, n, num, d)


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
