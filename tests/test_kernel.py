"""The integer elimination kernel against the Fraction oracle.

Row reduction, products, rank, null space, solve and inverse must equal
what Gauss-Jordan elimination over Fraction gives, entry for entry, on
seeded and on hypothesis-drawn matrices with binary, small-integer and
p/q entries, including empty, 1x1 zero and rank-deficient shapes.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linalg_oracle as oracle
from quivsheaf import backend_name
from quivsheaf.linalg import Matrix, _kernels_py as kernel, inverse, kernel_basis, rank, solve

ENTRY_KINDS = {
    "binary": lambda rng: Fraction(rng.randint(0, 1)),
    "small-integer": lambda rng: Fraction(rng.randint(-3, 3)),
    "rational": lambda rng: Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
}

DEGENERATE = [
    ([], 0),
    ([], 3),
    ([[], [], []], 0),
    ([[Fraction(0)]], 1),
    ([[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]], 2),
]


def random_rows(rng, nrows, ncols, entry):
    return [[entry(rng) for _ in range(ncols)] for _ in range(nrows)]


def rank_deficient_rows(rng, nrows, ncols, entry):
    """A product through an inner dimension below min(nrows, ncols)."""
    inner = rng.randint(0, max(0, min(nrows, ncols) - 1))
    left = random_rows(rng, nrows, inner, entry)
    right = random_rows(rng, inner, ncols, entry)
    return oracle.matmul(left, right, ncols)


def seeded_matrices():
    rng = random.Random(2024)
    cases = list(DEGENERATE)
    for entry in ENTRY_KINDS.values():
        for _ in range(60):
            nrows, ncols = rng.randint(0, 7), rng.randint(0, 7)
            cases.append((random_rows(rng, nrows, ncols, entry), ncols))
            cases.append((rank_deficient_rows(rng, nrows, ncols, entry), ncols))
        for n in range(1, 7):
            cases.append((random_rows(rng, n, n, entry), n))
    return cases


def right_hand_sides(rows, ncols):
    """A consistent right-hand side (the row sums) and an arbitrary one."""
    sums = [sum(row, Fraction(0)) for row in rows]
    other = [Fraction(i % 3 - 1, 1 + i % 2) for i in range(len(rows))]
    return sums, other


def assert_fractions(values):
    assert all(type(x) is Fraction for x in values)


def check_against_oracle(rows, ncols):
    snapshot = [list(row) for row in rows]
    reduced, pivots = kernel.rref_pivots(rows, ncols)
    assert (reduced, pivots) == oracle.rref_pivots(rows, ncols)
    assert_fractions(x for row in reduced for x in row)

    m = Matrix.from_rows(rows, ncols)
    assert rank(m) == oracle.rank(rows, ncols)
    basis = kernel_basis(m)
    assert basis == oracle.kernel_basis(rows, ncols)
    assert_fractions(x for vec in basis for x in vec)
    for b in right_hand_sides(rows, ncols):
        x = solve(m, b)
        assert x == oracle.solve(rows, ncols, b)
        if x is not None:
            assert_fractions(x)
    if len(rows) == ncols:
        expected = oracle.inverse(rows)
        if expected is None:
            with pytest.raises(ValueError):
                inverse(m)
        else:
            inv = inverse(m)
            assert inv.to_rows() == expected
            assert_fractions(inv.entries)
    assert rows == snapshot


def check_product(a, b, bcols):
    snapshot = ([list(row) for row in a], [list(row) for row in b])
    expected = oracle.matmul(a, b, bcols)
    product = kernel.matmul(a, b, bcols)
    assert product == expected
    assert_fractions(x for row in product for x in row)
    via_matrix = Matrix.from_rows(a, len(b)) @ Matrix.from_rows(b, bcols)
    assert via_matrix.to_rows() == expected
    assert_fractions(via_matrix.entries)
    assert (a, b) == snapshot


def test_backend_name_is_constant():
    assert backend_name() == "python"


def test_decisions_match_oracle_on_seeded_matrices():
    for rows, ncols in seeded_matrices():
        check_against_oracle(rows, ncols)


def test_products_match_oracle_on_seeded_matrices():
    rng = random.Random(7)
    for entry in ENTRY_KINDS.values():
        for _ in range(80):
            n, k, m = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
            check_product(random_rows(rng, n, k, entry), random_rows(rng, k, m, entry), m)
    for n, k, m in ((1, 1, 1), (1, 0, 1), (0, 2, 3), (3, 2, 0)):
        check_product([[Fraction(0)] * k for _ in range(n)], [[Fraction(0)] * m for _ in range(k)], m)


def test_growth_stays_exact_on_a_hilbert_matrix():
    n = 8
    rows = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    check_against_oracle(rows, n)
    inv = inverse(Matrix.from_rows(rows, n))
    assert inv.entry(0, 0) == n * n  # the Hilbert inverse has integer entries


entries = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1)]),
    st.integers(-3, 3).map(Fraction),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
)


@st.composite
def grids(draw, nrows=None, ncols=None):
    nrows = draw(st.integers(0, 6)) if nrows is None else nrows
    ncols = draw(st.integers(0, 6)) if ncols is None else ncols
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(grids())
def test_decisions_match_oracle_on_drawn_matrices(grid):
    check_against_oracle(*grid)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: grids(n, n)))
def test_square_decisions_match_oracle_on_drawn_matrices(grid):
    check_against_oracle(*grid)


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)).flatmap(
    lambda s: st.tuples(grids(s[0], s[1]), grids(s[1], s[2]))
))
def test_products_match_oracle_on_drawn_matrices(pair):
    (a, _), (b, bcols) = pair
    check_product(a, b, bcols)
