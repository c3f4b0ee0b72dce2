"""Exact rational row reduction and matrix products over Python ints.

A matrix of Fractions is cleared to integers row by row: each row is
scaled by the lcm of its denominators, which keeps the row space.  The
integer rows are reduced by fraction-free Gauss-Jordan elimination: a row
is eliminated against a pivot row by integer combination and divided by
the gcd of its entries, so no Fraction is built inside the loops (compare
Bareiss, Math. Comp. 22, 1968).  Fractions are made once, for the entries
a caller asks for.  The reduced row echelon form of a matrix is unique,
so every result equals that of Gauss-Jordan elimination over Fraction.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul

ZERO = Fraction(0)
ONE = Fraction(1)
# Shared Fractions for the small integers that most results consist of.
_INTEGERS = {i: Fraction(i) for i in range(-256, 257)}


def integer_rows(rows):
    """Each row of Fractions scaled by the lcm of its denominators, as ints."""
    out = []
    for row in rows:
        dens = [x.denominator for x in row]
        d = lcm(*dens)
        if d == 1:
            out.append([x.numerator for x in row])
        else:
            out.append([x.numerator * (d // q) for x, q in zip(row, dens)])
    return out


def reduce_rows(m, ncols, above=True):
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Afterwards row r holds pivot ``m[r][pivots[r]]`` (positive) and is zero
    in every other pivot column; dividing row r by its pivot gives row r of
    the reduced row echelon form.  Rows from ``len(pivots)`` on are zero.
    With ``above=False`` only the rows below each pivot are cleared, which
    is enough to count the pivots.  Returns the pivot columns.
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


def fraction(a, p):
    """The Fraction a/p for ints a and p > 0, sharing the common values."""
    if p == 1 or a == p or not a:
        f = _INTEGERS.get(a // p)
        if f is not None:
            return f
    return Fraction(a, p)


def rref_pivots(rows, ncols):
    """Reduced row echelon form of a list of Fraction rows.

    Returns ``(new_rows, pivot_columns)``.  The input is not modified.
    """
    m = integer_rows(rows)
    pivots = reduce_rows(m, ncols)
    out = []
    for row, c in zip(m, pivots):
        p = row[c]
        out.append([fraction(a, p) for a in row])
    out.extend([ZERO] * ncols for _ in range(len(m) - len(pivots)))
    return out, pivots


def matmul(a, b, bcols):
    """Product of row-major Fraction grids: ``a`` (n x m) times ``b`` (m x bcols).

    Each operand is scaled to integers by the lcm of all its denominators,
    the integer grids are multiplied, and the product is divided by both
    scale factors once per entry.
    """
    if not b:
        return [[ZERO] * bcols for _ in a]
    if len(b) == 1:
        # an outer product needs one Fraction multiplication per entry
        brow = b[0]
        return [[x * y for y in brow] for x, in a]
    ia, da = _scaled(a)
    ib, db = _scaled(b)
    cols = list(zip(*ib))
    d = da * db
    return [[fraction(sum(map(mul, arow, col)), d) for col in cols] for arow in ia]


def _scaled(rows):
    """Integer rows equal to ``rows`` times d, and d: the lcm of all denominators."""
    d = lcm(*[x.denominator for row in rows for x in row])
    if d == 1:
        return [[x.numerator for x in row] for row in rows], 1
    return [[x.numerator * (d // x.denominator) for x in row] for row in rows], d
