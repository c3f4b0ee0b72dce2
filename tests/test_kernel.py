"""The integer elimination kernel against the Fraction oracle.

Row reduction, products, rank, null space, solve and inverse must equal
what Gauss-Jordan elimination over Fraction gives, entry for entry, on
seeded and on hypothesis-drawn matrices with binary, small-integer and
p/q entries, including empty, 1x1 zero and rank-deficient shapes.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linalg_oracle as oracle
from quivsheaf import io as qio
from quivsheaf import backend_name
from quivsheaf.linalg import Matrix, inverse, kernel_basis, rank, rref, solve

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
    m = Matrix.from_rows(rows, ncols)
    reduced, pivots = rref(m)
    expected, expected_pivots = oracle.rref_pivots(rows, ncols)
    assert (reduced.to_rows(), list(pivots)) == (expected, expected_pivots)
    assert_fractions(reduced.entries)

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
    product = Matrix.from_rows(a, len(b)) @ Matrix.from_rows(b, bcols)
    assert product.to_rows() == expected
    assert_fractions(product.entries)
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


# One shared denominator over entries with unrelated denominators: the
# numerators grow with the product of the primes, and every route that
# builds a matrix must land on the same normal form.
PRIMES = [2, 3, 5, 7, 11, 13, 101, 997, 65537, 2**31 - 1]
mixed_entries = st.one_of(
    st.just(Fraction(0)),
    st.integers(-5, 5).map(Fraction),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.sampled_from(PRIMES)),
)


@st.composite
def mixed_grids(draw, nrows=None, ncols=None):
    nrows = draw(st.integers(0, 5)) if nrows is None else nrows
    ncols = draw(st.integers(0, 5)) if ncols is None else ncols
    if draw(st.booleans()) and draw(st.booleans()):
        return [[Fraction(0)] * ncols for _ in range(nrows)], ncols
    rows = draw(st.lists(st.lists(mixed_entries, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    return rows, ncols


def assert_normal(m, rows):
    """m is in normal form and holds exactly the entries of rows."""
    assert m.den > 0 and gcd(m.den, *m.num) == 1
    if not any(m.num):
        assert m.den == 1
    assert m.entries == tuple(x for row in rows for x in row)
    assert_fractions(m.entries)


def routes(draw, rows, ncols):
    """The matrix of rows, built every way the package builds one."""
    flat = [x for row in rows for x in row]
    nrows = len(rows)
    built = [Matrix(nrows, ncols, tuple(flat)), Matrix.from_rows(rows, ncols)]
    # unreduced literals, each scaled by its own factor
    factors = draw(st.lists(st.integers(1, 6), min_size=len(flat), max_size=len(flat)))
    literals = iter(f"{x.numerator * k}/{x.denominator * k}" for x, k in zip(flat, factors))
    literals = [[next(literals) for _ in range(ncols)] for _ in range(nrows)]
    built.append(qio.matrix_from_json(literals, nrows, ncols))
    built.append(Matrix.identity(nrows) @ built[0] @ Matrix.identity(ncols))
    cut = draw(st.integers(0, nrows))
    built.append(Matrix.stack_rows([Matrix.from_rows(rows[:cut], ncols), Matrix.from_rows(rows[cut:], ncols)], ncols))
    built.append(built[0].transpose().transpose())
    if nrows == ncols and oracle.inverse(rows) is not None:
        built.append(inverse(inverse(built[0])))
    return built


@settings(max_examples=200, deadline=None)
@given(mixed_grids(), st.data())
def test_one_denominator_over_unrelated_denominators(grid, data):
    rows, ncols = grid
    built = routes(data.draw, rows, ncols)
    for m in built:
        assert_normal(m, rows)
        assert m == built[0] and hash(m) == hash(built[0])
    m = built[0]
    assert rank(m) == oracle.rank(rows, ncols)
    assert kernel_basis(m) == oracle.kernel_basis(rows, ncols)
    b = data.draw(st.lists(mixed_entries, min_size=len(rows), max_size=len(rows)))
    for rhs in (b, right_hand_sides(rows, ncols)[0]):
        assert solve(m, rhs) == oracle.solve(rows, ncols, rhs)
    transposed = [list(col) for col in zip(*rows)] if rows else []
    assert_normal(m.transpose(), transposed)

    other_rows, _ = data.draw(mixed_grids(len(rows), ncols))
    other = Matrix.from_rows(other_rows, ncols)
    assert (other == m) == (other_rows == rows)
    if other_rows == rows:
        assert hash(other) == hash(m)
    stacked = Matrix.stack_rows([m, other], ncols)
    assert_normal(stacked, rows + other_rows)
    if len(rows) == ncols:
        expected = oracle.inverse(rows)
        if expected is not None:
            assert_normal(inverse(m), expected)


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)).flatmap(
    lambda s: st.tuples(mixed_grids(s[0], s[1]), mixed_grids(s[1], s[2]))
))
def test_products_over_unrelated_denominators(pair):
    (a, k), (b, bcols) = pair
    product = Matrix.from_rows(a, k) @ Matrix.from_rows(b, bcols)
    assert_normal(product, oracle.matmul(a, b, bcols))
