import random
from fractions import Fraction

import pytest

from lsa.linalg import (
    QMatrix,
    char_poly,
    column_space_basis,
    det,
    inverse,
    is_nilpotent,
    nullspace_basis,
    quotient_basis,
    random_invertible,
    random_matrix,
    rank,
    rational_roots,
    rref,
    solve,
    sqrt_fraction,
    symmetric_signature,
    unit_vec,
    vec,
)

F = Fraction


def test_rref_identity():
    m = QMatrix.identity(3)
    red, pivots = rref(m)
    assert red == m
    assert pivots == (0, 1, 2)


def test_rref_rank_one():
    m = QMatrix([[2, 4], [1, 2]])
    red, pivots = rref(m)
    assert red == QMatrix([[1, 2], [0, 0]])
    assert pivots == (0,)


def test_rref_constructed_rank():
    # rank-r matrix as U V^T with U, V full column rank (Vandermonde columns)
    for r in (1, 2, 3):
        nodes_u = [F(i + 1) for i in range(4)]
        nodes_v = [F(2 * i + 1, 2) for i in range(4)]
        u = QMatrix([[x**j for j in range(r)] for x in nodes_u])
        v = QMatrix([[x**j for j in range(r)] for x in nodes_v])
        m = u @ v.transpose()
        _, pivots = rref(m)
        assert len(pivots) == r


def test_rref_idempotent():
    rng = random.Random(7)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        red, _ = rref(m)
        again, _ = rref(red)
        assert again == red


def test_nullspace_trivial_cases():
    assert nullspace_basis(QMatrix.identity(4)) == []
    basis = nullspace_basis(QMatrix.zero(2, 3))
    assert len(basis) == 3


def test_nullspace_substitute_back():
    m = QMatrix([[1, 1, 0]])
    basis = nullspace_basis(m)
    assert len(basis) == 2
    for v in basis:
        assert all(x == 0 for x in m.apply(v))


def test_rank_nullity():
    rng = random.Random(3)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        assert m.ncols == rank(m) + len(nullspace_basis(m))


def test_quotient_basis():
    e = [unit_vec(2, 0), unit_vec(2, 1)]
    reps = quotient_basis(e, [e[0]])
    assert len(reps) == 1
    assert quotient_basis(e, e) == []
    with pytest.raises(ValueError):
        quotient_basis([unit_vec(2, 0)], [unit_vec(2, 1)])


def test_quotient_basis_rank_oracle():
    rng = random.Random(17)
    ambient = [vec([rng.randint(-3, 3) for _ in range(4)]) for _ in range(6)]
    while rank(QMatrix(ambient)) < 4:
        ambient = [vec([rng.randint(-3, 3) for _ in range(4)]) for _ in range(6)]
    sub = [ambient[0], ambient[1]]
    if rank(QMatrix(sub)) < 2:
        sub = [ambient[0], ambient[2]]
    reps = quotient_basis(ambient, sub)
    assert len(reps) == 4 - rank(QMatrix(sub))
    assert rank(QMatrix(sub + reps)) == 4


def test_char_poly_zero_and_diag():
    assert char_poly(QMatrix.zero(3, 3)) == [F(1), F(0), F(0), F(0)]
    assert char_poly(QMatrix.diag([1, 2])) == [F(1), F(-3), F(2)]


def test_char_poly_companion():
    # companion matrix of x^3 - 2x + 5
    companion = QMatrix([[0, 0, -5], [1, 0, 2], [0, 1, 0]])
    assert char_poly(companion) == [F(1), F(0), F(-2), F(5)]


def test_char_poly_similarity_invariant():
    rng = random.Random(5)
    for _ in range(20):
        m = random_matrix(rng, 3, 3)
        p = random_invertible(rng, 3)
        conj = inverse(p) @ m @ p
        assert char_poly(conj) == char_poly(m)


def test_char_poly_rejects_non_square():
    with pytest.raises(ValueError):
        char_poly(QMatrix.zero(2, 3))


def test_is_nilpotent():
    strict_upper = QMatrix([[0, 1, 2], [0, 0, 3], [0, 0, 0]])
    assert is_nilpotent(strict_upper)
    assert not is_nilpotent(QMatrix.identity(2))


def test_solve_and_inverse():
    m = QMatrix([[2, 1], [1, 1]])
    assert solve(m, [vec([3, 2])]) == [(F(1), F(1))]
    assert solve(m, [vec([3, 2]), vec([0, 1]), vec([0, 0])]) == [(F(1), F(1)), (F(-1), F(2)), (F(0), F(0))]
    assert solve(m, []) == []
    assert inverse(m) @ m == QMatrix.identity(2)
    assert solve(QMatrix([[1, 1], [1, 1]]), [vec([0, 1])]) is None
    # one inconsistent right-hand side refuses them all
    assert solve(QMatrix([[1, 1], [1, 1]]), [vec([2, 2]), vec([0, 1])]) is None
    # free variables are set to 0
    assert solve(QMatrix([[1, 1], [1, 1]]), [vec([2, 2])]) == [(F(2), F(0))]
    with pytest.raises(ValueError, match="singular"):
        inverse(QMatrix([[1, 1], [1, 1]]))
    with pytest.raises(ValueError, match="shape mismatch"):
        solve(m, [vec([1, 2, 3])])


def test_column_space_basis():
    m = QMatrix([[1, 2], [2, 4], [0, 0]])
    basis = column_space_basis(m)
    assert len(basis) == 1


def test_rational_roots():
    # (x - 2)(x + 1/2) x = x^3 - 3/2 x^2 - x
    coeffs = [F(1), F(-3, 2), F(-1), F(0)]
    assert rational_roots(coeffs) == [F(-1, 2), F(0), F(2)]
    assert rational_roots([F(1), F(0), F(1)]) == []  # x^2 + 1


def test_sqrt_fraction():
    assert sqrt_fraction(F(9, 4)) == F(3, 2)
    assert sqrt_fraction(F(2)) is None
    assert sqrt_fraction(F(-1)) is None
    assert sqrt_fraction(F(0)) == 0


def test_det():
    assert det(QMatrix([[1, 2], [3, 4]])) == F(-2)
    rng = random.Random(9)
    for _ in range(10):
        p = random_invertible(rng, 3)
        assert det(p) != 0


def test_symmetric_signature():
    assert symmetric_signature(QMatrix.diag([1, -2, 0])) == (1, 1, 1)
    # x*y has signature (1, 1)
    assert symmetric_signature(QMatrix([[0, 1], [1, 0]])) == (1, 1, 0)
    assert symmetric_signature(QMatrix.zero(2, 2)) == (0, 0, 2)


def test_is_nilpotent_matches_direct_powers():
    # right multiplication by e2 in the two-generator scaling algebra:
    # e1*e2 = e2, e1*e3 = e3 gives R_e2 = E21, and E21^2 = 0
    r_e2 = QMatrix([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    assert is_nilpotent(r_e2)
    assert (r_e2 @ r_e2).is_zero()
    almost = QMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    assert not is_nilpotent(almost)
    assert not (almost @ almost @ almost).is_zero()
