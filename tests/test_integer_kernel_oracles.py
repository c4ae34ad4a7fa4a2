"""Oracles for the integer kernels.

``rref``, ``char_poly``, ``is_nilpotent`` and the identity engine
``failures`` clear denominators once and run on ints.  The oracles below are
the earlier kernels on ``Fraction`` scalars: Gauss-Jordan elimination with a
division per entry, Faddeev-LeVerrier on the rational matrix, nilpotency read
off the characteristic polynomial, and the basis-triple scan on the rational
tensor.  Old and new must agree exactly, witnesses and both sides included,
on random rational inputs with large denominators.
"""
import itertools
import random
from fractions import Fraction

import pytest

from lsa.algebra import IDENTITIES, Algebra, IdentityCheck, conjugated, failures, multiply
from lsa.catalog import catalog_lsas
from lsa.linalg import (
    QMatrix,
    char_poly,
    is_nilpotent,
    random_invertible,
    rref,
    unit_vec,
)

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

SETTINGS = settings(max_examples=120, deadline=None, database=None, derandomize=True)


def fraction_rref(m: QMatrix) -> tuple[QMatrix, tuple[int, ...]]:
    rows = [list(r) for r in m.rows]
    nrows, ncols = m.nrows, m.ncols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [a / pv for a in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return QMatrix(rows), tuple(pivots)


def fraction_char_poly(m: QMatrix) -> list[Fraction]:
    n = m.nrows
    coeffs = [Fraction(1)]
    eye = QMatrix.identity(n)
    mk = m
    for k in range(1, n + 1):
        if k > 1:
            mk = m @ (mk + eye.scale(coeffs[-1]))
        coeffs.append(-mk.trace() / k)
    return coeffs


def fraction_is_nilpotent(m: QMatrix) -> bool:
    return all(c == 0 for c in fraction_char_poly(m)[1:])


def fraction_failures(a: Algebra, identity: str):
    sides, can_fail = IDENTITIES[identity]
    e = [unit_vec(a.dim, i) for i in range(a.dim)]
    products: dict = {}

    def p(x, y):
        xy = products.get((x, y))
        if xy is None:
            xy = products[x, y] = multiply(a, x, y)
        return xy

    for i, j, k in itertools.product(range(a.dim), repeat=3):
        if can_fail(i, j, k):
            lhs, rhs = sides(p, e[i], e[j], e[k])
            if lhs != rhs:
                yield IdentityCheck(False, (i + 1, j + 1, k + 1), lhs, rhs)


def rationals(max_den: int = 10**12):
    big = st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, max_den))
    small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
    return st.one_of(st.just(Fraction(0)), small, big)


@st.composite
def matrices(draw, max_dim: int = 6, square: bool = False):
    nrows = draw(st.integers(1, max_dim))
    ncols = nrows if square else draw(st.integers(1, max_dim))
    return QMatrix([[draw(rationals()) for _ in range(ncols)] for _ in range(nrows)])


@st.composite
def rank_deficient(draw, square: bool = False):
    """U V with U n x r and V r x m, r < min(n, m): rank at most r."""
    n = draw(st.integers(2, 6))
    m = n if square else draw(st.integers(2, 6))
    r = draw(st.integers(1, min(n, m) - 1))
    u = QMatrix([[draw(rationals()) for _ in range(r)] for _ in range(n)])
    v = QMatrix([[draw(rationals()) for _ in range(m)] for _ in range(r)])
    return u @ v


@st.composite
def conjugated_nilpotents(draw):
    """P N P^-1 for N strictly upper triangular and P a random invertible."""
    n = draw(st.integers(1, 6))
    nil = QMatrix([[draw(rationals()) if j > i else 0 for j in range(n)] for i in range(n)])
    p = random_invertible(random.Random(draw(st.integers(0, 2**32))), n, max_num=9, max_den=7)
    red = fraction_rref(QMatrix([[*row, *unit_vec(n, i)] for i, row in enumerate(p.rows)]))[0]
    p_inv = QMatrix([row[n:] for row in red.rows])
    return p @ nil @ p_inv


@SETTINGS
@given(st.one_of(matrices(), rank_deficient()))
def test_rref_matches_fraction_oracle(m):
    assert rref(m) == fraction_rref(m)


@SETTINGS
@given(st.one_of(matrices(square=True), rank_deficient(square=True), conjugated_nilpotents()))
def test_char_poly_and_nilpotency_match_fraction_oracle(m):
    assert char_poly(m) == fraction_char_poly(m)
    assert is_nilpotent(m) == fraction_is_nilpotent(m)


@SETTINGS
@given(conjugated_nilpotents())
def test_conjugated_nilpotents_are_nilpotent(m):
    assert is_nilpotent(m)
    assert char_poly(m) == [1] + [0] * m.nrows


def test_kernels_return_fractions():
    m = QMatrix([[Fraction(1, 3), 2], [4, Fraction(-5, 7)]])
    red, _ = rref(m)
    assert all(type(x) is Fraction for row in red.rows for x in row)
    assert all(type(c) is Fraction for c in char_poly(m))


@st.composite
def rational_tensors(draw):
    """Sparse rational structure constants with large denominators, dims 1-4."""
    n = draw(st.integers(1, 4))
    idx = st.integers(1, n)
    entries = draw(st.dictionaries(st.tuples(idx, idx, idx), rationals(), max_size=10))
    return Algebra.from_entries(n, entries)


@st.composite
def catalog_in_random_bases(draw):
    entry = draw(st.sampled_from(catalog_lsas()))
    seed = draw(st.integers(0, 2**32))
    a = entry.make(entry.sample_params(random.Random(seed)))
    return conjugated(a, random_invertible(random.Random(seed), 3, max_num=5, max_den=4))


@SETTINGS
@given(st.one_of(rational_tensors(), catalog_in_random_bases()))
def test_failures_match_fraction_engine(a):
    for identity in IDENTITIES:
        assert list(failures(a, identity)) == list(fraction_failures(a, identity)), identity
