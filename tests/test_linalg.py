import math
import random
import time
from fractions import Fraction

import pytest

from lsa.linalg import (
    QMatrix,
    _int_roots,
    char_poly,
    det,
    frac,
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


def test_rational_roots():
    # (x - 2)(x + 1/2) x = x^3 - 3/2 x^2 - x
    coeffs = [F(1), F(-3, 2), F(-1), F(0)]
    assert rational_roots(coeffs) == [F(-1, 2), F(0), F(2)]
    assert rational_roots([F(1), F(0), F(1)]) == []  # x^2 + 1
    assert rational_roots([F(1), F(-3), F(3), F(-1)]) == [F(1)]  # (x - 1)^3
    assert rational_roots([0, 0]) == [] and rational_roots([5]) == []
    assert rational_roots([0, 5, 0]) == [F(0)]
    # -3 (x + 2)^2 (x - 2): a negative lead, and a double root that ends two
    # monotone pieces of the bisection
    assert rational_roots([-3, -6, 12, 24]) == [F(-2), F(2)]
    # 4 x^2 - 1 and 6 x^2 - x - 1 = (2x - 1)(3x + 1): roots off the integers
    assert rational_roots([4, 0, -1]) == [F(-1, 2), F(1, 2)]
    assert rational_roots([F(6, 5), F(-1, 5), F(-1, 5)]) == [F(-1, 3), F(1, 2)]
    with pytest.raises(ValueError, match="degree <= 3"):
        rational_roots([1, 0, 0, 0, -1])


def _divisors(n):
    n = abs(n)
    return sorted({d for k in range(1, math.isqrt(n) + 1) if n % k == 0 for d in (k, n // k)})


def oracle_rational_roots(coeffs):
    """The rational root theorem by enumeration: every +-p/q with p | a_0
    and q | a_d, after clearing denominators and zero roots."""
    cs = [F(c) for c in coeffs]
    while cs and cs[0] == 0:
        cs = cs[1:]
    roots = set()
    while len(cs) > 1 and cs[-1] == 0:
        roots.add(F(0))
        cs = cs[:-1]
    if len(cs) <= 1:
        return sorted(roots)
    ints = [int(c * math.lcm(*(c.denominator for c in cs))) for c in cs]
    for p in _divisors(ints[-1]):
        for q in _divisors(ints[0]):
            for cand in (F(p, q), F(-p, q)):
                if sum(c * cand ** (len(cs) - 1 - i) for i, c in enumerate(cs)) == 0:
                    roots.add(cand)
    return sorted(roots)


def random_polynomial(rng):
    """Degree <= 3, often a product of rational linear factors (zero and
    repeated roots included) times a random factor, else dense random."""
    degree = rng.randint(0, 3)
    if rng.random() < 0.5:
        return [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(degree + 1)]
    cs = [F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))]
    for _ in range(rng.randint(0, degree)):
        r = F(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.8 else F(0)
        cs = [a - r * b for a, b in zip([*cs, F(0)], [F(0), *cs])]
    while len(cs) < degree + 1:
        c = F(rng.randint(-3, 3))
        cs = [a + c * b for a, b in zip([*cs, F(0)], [F(0), *cs])]
    return [F(0), *cs] if rng.random() < 0.1 else cs


def test_rational_roots_match_divisor_enumeration():
    rng = random.Random(29)
    seen = {"zero_root": 0, "repeated_root": 0, "no_root": 0, "three_roots": 0}
    for _ in range(3000):
        cs = random_polynomial(rng)
        expected = oracle_rational_roots(cs)
        assert rational_roots(cs) == expected, cs
        seen["zero_root"] += F(0) in expected
        seen["no_root"] += not expected
        seen["three_roots"] += len(expected) == 3
        monic = [c / cs[0] for c in cs] if cs and cs[0] != 0 else None
        seen["repeated_root"] += monic is not None and any(
            sum(c * (len(monic) - 1 - i) * r ** (len(monic) - 2 - i) for i, c in enumerate(monic[:-1])) == 0
            for r in expected
        )
    assert min(seen.values()) > 20, seen


def _poly_product(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def test_int_roots_match_the_roots_they_are_built_from():
    """``_int_roots`` on monic integer polynomials of degree 1-3 built from
    integer roots with multiplicity (zero, double and triple roots), times
    an optional factor without integer roots: an irreducible quadratic with
    a negative or a positive non-square discriminant, or x^3 + c with c
    strictly between two cubes.  Roots and coefficients reach beyond 2^64;
    where every coefficient is small, divisor enumeration agrees."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    small = st.integers(-6, 6)
    big = st.integers(-(2**80), 2**80)

    @st.composite
    def built(draw):
        factor = draw(st.sampled_from(("none", "negative", "non-square", "cubic")))
        if factor == "negative":
            b = draw(st.one_of(small, big))
            extra = [1, b, b * b // 4 + draw(st.integers(1, 2**70))]
        elif factor == "non-square":
            b, c = draw(st.one_of(small, big)), draw(st.one_of(small, big))
            disc = b * b - 4 * c
            hypothesis.assume(disc > 0 and math.isqrt(disc) ** 2 != disc)
            extra = [1, b, c]
        elif factor == "cubic":
            k = draw(st.integers(1, 2**30))
            extra = [1, 0, 0, draw(st.sampled_from((-1, 1))) * (k**3 + draw(st.integers(1, 3 * k * k + 3 * k)))]
        else:
            extra = [1]
        distinct = draw(st.lists(st.one_of(st.just(0), small, big), max_size=4 - len(extra), unique=True))
        roots = [r for r in distinct for _ in range(draw(st.integers(1, 3)))][: 4 - len(extra)]
        hypothesis.assume(roots or len(extra) > 1)
        q = extra
        for r in roots:
            q = _poly_product(q, [1, -r])
        return q, sorted(set(roots))

    @hypothesis.settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @hypothesis.given(built())
    def check(case):
        q, expected = case
        assert _int_roots(q) == expected, q
        assert rational_roots(q) == [F(r) for r in expected], q
        if max(map(abs, q)) < 10**4:
            assert oracle_rational_roots(q) == [F(r) for r in expected], q

    check()


def test_rational_roots_time_is_bounded_by_bit_length():
    # enumeration would try 2 * 1344^2 candidates p/q: 735134400 has 1344 divisors
    start = time.perf_counter()
    assert rational_roots([735134400, 1, 1, 735134400]) == [F(-1)]
    big = 10**40 + 7
    assert rational_roots([1, -(big + 1), big]) == [F(1), F(big)]
    assert rational_roots([F(1, big), F(-3), F(2 * big)]) == [F(big), F(2 * big)]
    assert time.perf_counter() - start < 1.0


def test_frac_returns_plain_fractions():
    """A plain ``Fraction`` passes through; ints, strings and ``Fraction``
    subclasses become equal plain ``Fraction`` values."""

    class Sub(Fraction):
        pass

    x = F(3, 2)
    assert frac(x) is x
    for value, expected in ((3, F(3)), ("-3/2", F(-3, 2)), (Sub(5, 4), F(5, 4)), (True, F(1))):
        out = frac(value)
        assert type(out) is Fraction and out == expected


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
