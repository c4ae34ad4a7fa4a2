"""Catalog claims proved for every admissible parameter value.

``verify_catalog`` checks C3t, D31mu and E31zeta at their defaults and at
seeded samples.  Every structure constant of ``ENTRIES`` is affine in the
entry's one parameter p (a constant or a pair (c0, c1) meaning c0 + c1 p),
so at a basis triple each side of left symmetry, N, D and S, a sum of
products of two constants, is a polynomial in p of degree <= 2, and
d tr R_ei = sum_j c[j][i][j] is affine in p.  A polynomial of degree <= 2
that vanishes at 3 distinct points vanishes everywhere, and an affine one
at 2.  So:

- left symmetry and every N/D/S flag claimed true hold for every p once
  they hold at 3 admissible rationals, and the traces vanish for every p
  once they vanish at 2; with left symmetry that is completeness
  (Helmstetter and Segal: a left-symmetric algebra is complete iff
  tr R_x = 0 for every x);
- a flag claimed false fails for every admissible p if the difference of
  its two sides at one fixed witness triple has a coordinate, a nonzero
  polynomial of degree <= 2 interpolated from 3 points, with no admissible
  rational root (``rational_roots``; parameters are rational).  C3t's N
  fails at (1, 1, 2) and its S at (1, 2, 1);
- C3t's members are pairwise non-isomorphic: on P = span(e2, e3), lifted
  by e1, the induced operators Lb and Rb have affine entries, so
  t Rb = (t - 1)(Lb - I) holds identically once it holds for their
  interpolants; the fingerprint's induced-action ratio is then (t - 1)/t,
  'inf' at t = 0, and t -> (t - 1)/t is injective.

The claims that stay sampled are listed in the README: the Lie tag and the
ideals.
"""
from fractions import Fraction

import pytest

from lsa.algebra import check_left_symmetric, first_failure, multiply, right_mult
from lsa.catalog import ENTRIES, _induced_action_ratio, _spans
from lsa.linalg import QMatrix, rational_roots, solve, unit_vec

F = Fraction

# three distinct admissible values of each entry's parameter
POINTS = {
    "C3t": (F(2), F(3), F(-1, 2)),
    "D31mu": (F(1, 2), F(-1, 3), F(2, 3)),
    "E31zeta": (F(1), F(2), F(1, 3)),
}


def _sub(u, v):
    return tuple(x - y for x, y in zip(u, v))


# the flags C3t is claimed not to have, each with the triple where it fails
# and the difference of its sides there
E = [unit_vec(3, i) for i in range(3)]
C3T_FALSE_FLAGS = {
    # N: (x*y)*z = (x*z)*y
    "N": ((1, 1, 2), lambda a, x, y, z: _sub(multiply(a, multiply(a, x, y), z), multiply(a, multiply(a, x, z), y))),
    # S: (x*y)*z = (y*x)*z
    "S": ((1, 2, 1), lambda a, x, y, z: _sub(multiply(a, multiply(a, x, y), z), multiply(a, multiply(a, y, x), z))),
}


def at(name, p):
    entry = ENTRIES[name]
    return entry.make({entry.param.name: p})


def interpolate(points, values):
    """The coefficients, highest first, of the polynomial of degree <= 2
    through (points[k], values[k])."""
    (coeffs,) = solve(QMatrix([[p * p, p, 1] for p in points]), [tuple(values)])
    return list(coeffs)


@pytest.mark.parametrize("name", POINTS)
def test_the_points_are_distinct_and_admissible_and_the_constants_affine(name):
    """The premise of every proof below: three distinct admissible points,
    and each constant of the built algebra is c0 + c1 p, as the table says."""
    entry, points = ENTRIES[name], POINTS[name]
    assert len(set(points)) == 3 and all(entry.param.admissible(p) for p in points)
    for p in points:
        a = at(name, p)
        expected = {}
        for key, c in entry.products.items():
            assert isinstance(c, (int, Fraction)) or (len(c) == 2 and all(isinstance(x, (int, Fraction)) for x in c))
            expected[key] = F(c) if isinstance(c, (int, Fraction)) else c[0] + c[1] * p
        assert {key: a.entry(*key) for key in expected} == expected
        assert {(i, j, k) for i, j, k, _ in a.nonzero_products()} <= set(expected)


@pytest.mark.parametrize("name", POINTS)
def test_left_symmetry_and_the_true_flags_hold_for_every_parameter(name):
    entry = ENTRIES[name]
    for p in POINTS[name]:
        a = at(name, p)
        assert check_left_symmetric(a).ok
        for flag, claimed in zip("NDS", entry.claimed_flags):
            if claimed:
                assert first_failure(a, flag).ok, (flag, p)


@pytest.mark.parametrize("name", POINTS)
def test_completeness_holds_for_every_parameter(name):
    """tr R_ei is affine in p: zero at two points, zero everywhere; left
    symmetry holds everywhere by the test above."""
    for p in POINTS[name][:2]:
        a = at(name, p)
        assert [right_mult(a, e).trace() for e in E] == [0, 0, 0]


@pytest.mark.parametrize("flag", C3T_FALSE_FLAGS)
def test_c3t_false_flags_fail_for_every_admissible_t(flag):
    entry, points = ENTRIES["C3t"], POINTS["C3t"]
    assert flag in "NDS" and not entry.claimed_flags["NDS".index(flag)]
    witness, difference = C3T_FALSE_FLAGS[flag]
    x, y, z = (E[i - 1] for i in witness)
    values = [difference(at("C3t", t), x, y, z) for t in points]
    polys = [interpolate(points, coordinate) for coordinate in zip(*values)]
    nonzero = [q for q in polys if any(q)]
    assert nonzero
    # every admissible t is a non-root of some nonzero coordinate: the
    # rational roots common to all of them are inadmissible
    common = set.intersection(*(set(rational_roots(q)) for q in nonzero))
    assert not any(entry.param.admissible(t) for t in common), common
    for t in points:
        assert not first_failure(at("C3t", t), flag).ok


def _lift_operators(a):
    """Lb and Rb, as rows: e1*x and x*e1 on P = span(e2, e3), in that basis."""
    left = [multiply(a, E[0], E[j]) for j in (1, 2)]
    right = [multiply(a, E[j], E[0]) for j in (1, 2)]
    return [[[col[r] for col in cols] for r in (1, 2)] for cols in (left, right)]


def test_c3t_members_are_pairwise_distinct_for_every_t():
    """The induced-action ratio of C3t is (t - 1)/t for t != 0 and 'inf' at
    t = 0, for every t; t -> (t - 1)/t is injective and never 'inf', so
    C3t(t) and C3t(t') are not isomorphic for t != t'."""
    products, points = ENTRIES["C3t"].products, POINTS["C3t"]
    # for every t, P = span(e2, e3) holds every product (no e1 component,
    # e1*e3 = e3, e1*e2 - t e1*e3 = e2) and P*P = 0 (no product of e2, e3)
    assert all(k != 1 for _, _, k in products) and products[1, 3, 3] == 1
    assert all(1 in (i, j) for i, j, _ in products)
    values = [_lift_operators(at("C3t", t)) for t in points]
    lb, rb = (
        [[interpolate(points, [v[side][r][c] for v in values]) for c in range(2)] for r in range(2)]
        for side in range(2)
    )
    # affine entries, highest coefficient first: Lb = [[1, 0], [t, 1]],
    # Rb = [[0, 0], [t - 1, 0]]
    assert lb == [[[0, 0, 1], [0, 0, 0]], [[0, 1, 0], [0, 0, 1]]]
    assert rb == [[[0, 0, 0], [0, 0, 0]], [[0, 1, -1], [0, 0, 0]]]
    # t Rb = (t - 1)(Lb - I) as polynomials: with Rb = r1 t + r0 and
    # Lb - I = l1 t + l0, compare the coefficients of t^2, t and 1
    for r in range(2):
        for c in range(2):
            (_, r1, r0), (_, l1, l0) = rb[r][c], lb[r][c]
            l0 -= r == c
            assert [r1, r0, 0] == [l1, l0 - l1, -l0]
    # tr Lb = 2, so the fingerprint's Lb - (tr Lb / 2) I is Lb - I, whose
    # entry t is nonzero for t != 0; at t = 0 it vanishes and Rb does not
    assert [x + y for x, y in zip(lb[0][0], lb[1][1])] == [0, 0, 2]
    assert lb[1][0] == [0, 1, 0] and rb[1][0][2] != 0
    # (t - 1)/t = 1 - 1/t, so equal finite ratios give equal t
    for t in (F(0), *points, F(5, 7), F(-3)):
        a = at("C3t", t)
        assert _induced_action_ratio(a, _spans(a)) == ("inf" if t == 0 else str((t - 1) / t)), t
