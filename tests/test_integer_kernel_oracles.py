"""Oracles for the integer kernels.

``rref``, ``nullspace_basis``, ``char_poly``, ``is_nilpotent`` and the
identity engine ``failures`` clear denominators once and run on ints.  The
oracles below are the earlier kernels on ``Fraction`` scalars: Gauss-Jordan
elimination with a division per entry, the nullspace read off that RREF,
Faddeev-LeVerrier on the rational matrix, nilpotency read off the
characteristic polynomial, and the basis-triple scan on the rational tensor.
Old and new must agree exactly, witnesses and both sides included, on random
rational inputs with large denominators.  The operator spans, once a
fingerprint component, are kept as the oracle of the rank-nullity identity
that replaced them.
"""
import itertools
import random
from fractions import Fraction

import pytest

from lsa.algebra import (
    IDENTITIES,
    Algebra,
    IdentityCheck,
    Subspace,
    TripleTable,
    conjugated,
    failures,
    first_failure,
    left_mult,
    lie_algebra_of,
    multiply,
    right_mult,
)
from lsa.catalog import _annihilator_dims, _spans, catalog_lsas, fixtures
from lsa.cli import CHECK_MAX_DIM
from lsa.linalg import (
    QMatrix,
    char_poly,
    is_nilpotent,
    nullspace_basis,
    random_invertible,
    rref,
    unit_vec,
    vec_add,
    vec_sub,
    zero_vec,
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


def fraction_nullspace(m: QMatrix) -> list[tuple[Fraction, ...]]:
    """One vector per free column of ``fraction_rref``: 1 there, minus the
    pivot rows' entries of that column at the pivots, 0 elsewhere."""
    red, pivots = fraction_rref(m)
    basis = []
    for f in (c for c in range(m.ncols) if c not in pivots):
        v = [Fraction(0)] * m.ncols
        v[f] = Fraction(1)
        for row, c in zip(red.rows, pivots):
            v[c] = -row[f]
        basis.append(tuple(v))
    return basis


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


# The five identities in product form on ``Fraction`` vectors, written out
# independently of the engine's index-permutation table: each side as a
# function of the product p at (x, y, z), and the triples the scan keeps.
FRACTION_IDENTITIES = {
    # (x*y)*z - (y*x)*z = x*(y*z) - y*(x*z)
    "left_symmetric": (
        lambda p, x, y, z: (
            vec_sub(p(p(x, y), z), p(p(y, x), z)),
            vec_sub(p(x, p(y, z)), p(y, p(x, z))),
        ),
        lambda i, j, k: i < j,
    ),
    # N: (x*y)*z = (x*z)*y
    "N": (lambda p, x, y, z: (p(p(x, y), z), p(p(x, z), y)), lambda i, j, k: j < k),
    # D: (x*y)*z = (z*y)*x
    "D": (lambda p, x, y, z: (p(p(x, y), z), p(p(z, y), x)), lambda i, j, k: i < k),
    # S: [x,y]*z = 0
    "S": (
        lambda p, x, y, z: (p(vec_sub(p(x, y), p(y, x)), z), zero_vec(len(z))),
        lambda i, j, k: i < j,
    ),
    # Jacobi: [[x,y],z] + [[y,z],x] + [[z,x],y] = 0
    "jacobi": (
        lambda p, x, y, z: (
            vec_add(p(p(x, y), z), vec_add(p(p(y, z), x), p(p(z, x), y))),
            zero_vec(len(z)),
        ),
        lambda i, j, k: i < j < k,
    ),
}


def fraction_failures(a: Algebra, identity: str):
    sides, can_fail = FRACTION_IDENTITIES[identity]
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
    red, pivots = fraction_rref(m)
    assert rref(m) == (red, pivots)
    assert Subspace.from_spanning(m.ncols, m.rows) == Subspace(m.ncols, red.rows[: len(pivots)])


@SETTINGS
@given(st.one_of(matrices(), rank_deficient()))
def test_nullspace_matches_fraction_oracle(m):
    assert nullspace_basis(m) == fraction_nullspace(m)


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


@st.composite
def sparse_tensors(draw, n: int):
    """Sparse rational structure constants with large denominators, dimension
    n, with room for every identity to fail at several triples."""
    idx = st.integers(1, n)
    entries = draw(st.dictionaries(st.tuples(idx, idx, idx), rationals(), max_size=3 * n))
    return Algebra.from_entries(n, entries)


@pytest.mark.parametrize("n", range(1, CHECK_MAX_DIM + 1))
@settings(max_examples=15, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_plan_scans_match_fraction_engine_at_every_checked_dimension(n, data):
    """The plan scans equal the ``Fraction`` engine, triple by triple,
    witnesses and both sides included, at every dimension ``lsa check``
    accepts; N, D, S and Jacobi read T1 only, so they never fill T2, and
    left symmetry fills it."""
    a = data.draw(st.one_of(sparse_tensors(n), sparse_tensors(n).map(lie_algebra_of)))
    table = TripleTable(a)
    for identity in ("N", "D", "S", "jacobi"):
        assert list(table.failures(identity)) == list(fraction_failures(a, identity)), identity
    assert len(table._entries) == n**3
    assert list(table.failures("left_symmetric")) == list(fraction_failures(a, "left_symmetric"))
    assert len(table._entries) == 2 * n**3


@st.composite
def catalog_at_sampled_params(draw):
    entry = draw(st.sampled_from(catalog_lsas()))
    return entry.make(entry.sample_params(random.Random(draw(st.integers(0, 2**32)))))


def any_algebras():
    """Catalog entries at sampled parameters and in random rational bases,
    random rational tensors, the fixtures, and commutator algebras of these."""
    base = st.one_of(
        catalog_at_sampled_params(),
        catalog_in_random_bases(),
        rational_tensors(),
        st.sampled_from(list(fixtures().values())),
    )
    return st.one_of(base, base.map(lie_algebra_of))


@SETTINGS
@given(any_algebras())
def test_one_table_answers_every_identity(a):
    """One algebra's table, asked every identity, matches the oracle triple
    by triple, witnesses and both sides included, and the first failure it
    keeps is the oracle's first (see ``tests/test_cleared_tensor_oracles.py``
    for the order of the questions)."""
    for identity in IDENTITIES:
        expected = list(fraction_failures(a, identity))
        assert list(failures(a, identity)) == expected, identity
        assert first_failure(a, identity) == next(iter(expected), IdentityCheck(True)), identity


def operator_spans(a: Algebra) -> tuple[int, int]:
    """(dim span{L_x}, dim span{R_x}) in the space of n x n matrices, each
    operator built from ``multiply``."""
    basis = [unit_vec(a.dim, i) for i in range(a.dim)]
    return tuple(
        Subspace.from_spanning(a.dim**2, [tuple(x for row in mult(a, e).rows for x in row) for e in basis]).dim
        for mult in (left_mult, right_mult)
    )


@SETTINGS
@given(st.one_of(rational_tensors(), catalog_in_random_bases()))
def test_annihilators_give_the_operator_spans(a):
    """L_x = 0 iff x*A = 0 and R_x = 0 iff A*x = 0, so by rank-nullity the
    operator spans are the dimension minus the annihilators."""
    left_annihilator, right_annihilator = _annihilator_dims(a, _spans(a))
    assert (a.dim - left_annihilator, a.dim - right_annihilator) == operator_spans(a)
