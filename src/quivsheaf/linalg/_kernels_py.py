"""Exact rational row reduction over Python ints.

A Matrix holds int numerators over one denominator, and scaling a row
keeps its row space, so the numerator rows are reduced as they stand.  The
integer rows are reduced by fraction-free Gauss-Jordan elimination: a row
is eliminated against a pivot row by integer combination and divided by
the gcd of its entries, so no Fraction is built inside the loops (compare
Bareiss, Math. Comp. 22, 1968).  Fractions are made once, for the entries
a caller asks for.  The reduced row echelon form of a matrix is unique,
so every result equals that of Gauss-Jordan elimination over Fraction.
"""

from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)
# Shared Fractions for the small integers that most results consist of.
_INTEGERS = {i: Fraction(i) for i in range(-256, 257)}


def reduce_rows(m, ncols, above=True):
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    ``m`` is a list of rows, each a list or tuple of ints; rows are
    replaced, never changed.  Afterwards row r holds pivot
    ``m[r][pivots[r]]`` (positive) and is zero in every other pivot column;
    dividing row r by its pivot gives row r of the reduced row echelon
    form.  Rows from ``len(pivots)`` on are zero.  With ``above=False``
    only the rows below each pivot are cleared, which is enough to count
    the pivots.  Returns the pivot columns.
    """
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for i in range(r, nrows):
            if m[i][c]:
                break
        else:
            continue
        row = m[i]
        if i != r:
            m[i] = m[r]
        g = gcd(*row)
        if row[c] < 0:
            g = -g
        if g != 1:
            row = [a // g for a in row]
        m[r] = row
        p = row[c]
        for i in range(0 if above else r + 1, nrows):
            other = m[i]
            f = other[c]
            if f and i != r:
                g = gcd(p, f)
                if g == p:
                    f //= p
                    m[i] = [a - f * b for a, b in zip(other, row)]
                else:
                    s = p // g
                    f //= g
                    new = [s * a - f * b for a, b in zip(other, row)]
                    g = gcd(*new)
                    m[i] = [a // g for a in new] if g > 1 else new
        pivots.append(c)
        r += 1
    return pivots


def kernel_vectors(m, ncols):
    """A basis of the null space of the integer rows ``m``, reduced in place.

    Returns ``(vectors, d)``: d is the lcm of the pivots and each vector is
    a list of int numerators over d.  There is one vector per free column
    f, in increasing order: 1 at f, minus the entry in column f of pivot
    row r over its pivot at pivot column r, and 0 elsewhere, which is the
    basis read off the reduced row echelon form.
    """
    pivots = reduce_rows(m, ncols)
    d = lcm(*[row[p] for row, p in zip(m, pivots)])
    scales = [(row, p, d // row[p]) for row, p in zip(m, pivots)]
    pivot_set = set(pivots)
    vectors = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [0] * ncols
        vec[f] = d
        for row, p, s in scales:
            vec[p] = -row[f] * s
        vectors.append(vec)
    return vectors, d


def fraction(a, p):
    """The Fraction a/p for ints a and p > 0, sharing the common values."""
    if p == 1 or a == p or not a:
        f = _INTEGERS.get(a // p)
        if f is not None:
            return f
    return Fraction(a, p)
