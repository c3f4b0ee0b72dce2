"""Definitional oracle for the elimination kernel: Gauss-Jordan elimination
and matrix products carried out in ``fractions.Fraction`` arithmetic, plus
rank, null space, solve and inverse read off the reduced rows.

This is the textbook algorithm the integer kernel replaces; it is slow and
obviously right, and the kernel must agree with it entry for entry.
"""

from fractions import Fraction


def rref_pivots(rows, ncols):
    """Reduced row echelon form of Fraction rows and its pivot columns."""
    m = [list(row) for row in rows]
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c]), -1)
        if pr < 0:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        m[r] = [x / piv for x in m[r]]
        for i in range(nrows):
            f = m[i][c]
            if f and i != r:
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def matmul(a, b, bcols):
    """Product of Fraction grids: ``a`` (n x k) times ``b`` (k x bcols)."""
    return [
        [sum((arow[k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(bcols)]
        for arow in a
    ]


def rank(rows, ncols):
    return len(rref_pivots(rows, ncols)[1])


def kernel_basis(rows, ncols):
    reduced, pivots = rref_pivots(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r][f]
        basis.append(tuple(vec))
    return basis


def solve(rows, ncols, b):
    reduced, pivots = rref_pivots([list(row) + [x] for row, x in zip(rows, b)], ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for r, p in enumerate(pivots):
        x[p] = reduced[r][ncols]
    return tuple(x)


def inverse(rows):
    """Inverse rows of a square matrix, or None when it is singular."""
    n = len(rows)
    augmented = [
        list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)
    ]
    reduced, pivots = rref_pivots(augmented, 2 * n)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in reduced]
