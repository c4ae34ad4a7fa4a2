"""Exact certificates for the affine families (sympy, test-only).

Each family is written once in ``lsa.affine`` as two formulas over a
namespace of elementary functions.  The harness evaluates them with
``NUMPY``; these tests evaluate the very same functions with ``SYMPY``
(sympy's functions and the closed forms of f, g, h, k, phi), so every
certificate covers the code that runs:

- closure: two symbolic elements are composed, ``recover`` is applied to
  the composite, and the residual (recovered element minus composite)
  simplifies to 0 in all twelve entries.  The D32-legacy form leaves a
  nonzero residual: its witness.
- simple transitivity: ``recover . orbit`` and ``orbit . recover``
  simplify to the identity on R^3, where the orbit map is p -> g(p).0, the
  translation.  So the orbit map is a bijection of R^3, which the float
  grid only samples.  ``recover`` divides by f(a), f(mu a) and f(a/2),
  where f(x) = (e^x - 1)/x > 0 for every real x (e^x - 1 has the sign of
  x, and f(0) = 1), and for E3 by F^2 + H^2, the orbit map's Jacobian
  determinant.  F^2 + H^2 is not positive for every zeta: F and H vanish
  together at (a, zeta) ~ (-3.4326019, 0.3969246), where the E3 chart is
  not injective.  E3 is claimed simply transitive only at zeta = 1, where
  the minimum over a is 0.00443, at a ~ -1.867 (the harness grid reports
  0.0128); that positivity is sampled, not proved here.
- tangent algebra: the symbolic element is differentiated in each
  coordinate at the identity and equals the generator (L_ei, e_i) of
  ``affine_rep`` exactly; the generators satisfy [X_i, X_j] = sum_k
  c_ij^k X_k exactly.

Every residual claimed to vanish is first evaluated at one rational point
to 30 digits, so a wrong formula fails in seconds instead of leaving
``sp.simplify`` to run for minutes.  The symbolic closed forms are 0/0 at
a = 0, where the identities hold by continuity.  One float check ties the namespaces together: the closed forms
and numpy's branched special functions (series below 1/4) give the same
values through the same formulas.
"""
import random
from types import SimpleNamespace

import numpy as np
import pytest

from lsa.affine import FAMILIES, FAMILY_NAMES, LEGACY_D32, NUMPY, affine_rep, build_family, legacy_d32_family
from lsa.algebra import lie_algebra_of
from lsa.catalog import make_lsa

sp = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

SYMPY = SimpleNamespace(
    exp=sp.exp, cos=sp.cos, sin=sp.sin, log=sp.log,
    f=lambda x: (sp.exp(x) - 1) / x,
    g=lambda x: (sp.exp(x) - x - 1) / x**2,
    h=lambda x: (sp.cos(x) - 1) / x + x / 2,
    k=lambda x: (sp.sin(x) - x) / x,
    phi=lambda x: ((x - 1) * sp.exp(x) + 1) / x,
    half=sp.Rational(1, 2),
)

a, b, c, a1, b1, c1, a2, b2, c2 = sp.symbols("a b c a1 b1 c1 a2 b2 c2", real=True)
# a free linear part and translation, for recover applied to any map
LIN = sp.Matrix(3, 3, sp.symbols("l0:9", real=True))
T = sp.Matrix(sp.symbols("t0:3", real=True))


# a rational point off every 0/0 of the closed forms (a1 + a2 != 0 too)
POINT = dict(
    zip(
        (a, b, c, a1, b1, c1, a2, b2, c2, *LIN, *T),
        map(
            sp.Rational,
            "1/3 -2/5 3/7 2/3 -1/2 5/4 -3/5 1/7 -4/3 3 1/2 -1 2/5 2 1/3 -1/4 1 5/2 1/2 -5/3 2/9".split(),
        ),
    )
)


def assert_vanishes(residuals):
    """Each residual is 0: first at POINT to 30 digits, so that a wrong
    formula fails in seconds, then exactly by ``sp.simplify``."""
    at_point = [sp.N(r.subs(POINT), 30) for r in residuals]
    assert all(abs(v) < 1e-20 for v in at_point), at_point
    assert [sp.simplify(r) for r in residuals] == [0] * len(residuals)


def rational(x):
    return sp.Rational(x.numerator, x.denominator)


def exact_params(name):
    return {key: rational(v) for key, v in FAMILIES[name].defaults.items()}


def homogeneous(spec, point, params):
    """The 4 x 4 matrix of the symbolic element g(point)."""
    entries, translation = spec.maps(SYMPY, *point, **params)
    m = sp.eye(4)
    for (i, j), value in entries.items():
        m[i, j] = value
    m[:3, 3] = sp.Matrix(translation)
    return m


def closure_residual(spec, params):
    """Entries of g(recover(g1 g2)) - g1 g2 for symbolic g1, g2, in the
    order of ``AffineMap3.flat``."""
    composite = homogeneous(spec, (a1, b1, c1), params) * homogeneous(spec, (a2, b2, c2), params)
    recovered = spec.recover(SYMPY, composite[:3, :3], composite[:3, 3], **params)
    residual = homogeneous(spec, recovered, params) - composite
    return list(residual[:3, :3]) + list(residual[:3, 3])


def test_namespaces_name_the_same_functions():
    assert vars(SYMPY).keys() == vars(NUMPY).keys()


@pytest.mark.parametrize("name", FAMILY_NAMES + ("D32-legacy",))
def test_namespaces_agree_through_the_same_formulas(name):
    """At sample points (|a| below and above 1/4) the numpy family equals
    the sympy closed forms, evaluated to 30 digits, within 1e-12."""
    if name == "D32-legacy":
        spec, params, fam = LEGACY_D32, {}, legacy_d32_family()
    else:
        spec, params, fam = FAMILIES[name], exact_params(name), build_family(name, **FAMILIES[name].defaults)
    m = homogeneous(spec, (a, b, c), params)
    maps = sp.lambdify((a, b, c), list(m[:3, :3]) + list(m[:3, 3]), "mpmath")
    recover = sp.lambdify(list(LIN) + list(T), spec.recover(SYMPY, LIN, T, **params), "mpmath")
    rng = random.Random(4)
    with mpmath.workdps(30):
        for scale in (0.2, 1.8, 0.2, 1.8):
            p1, p2 = ([rng.uniform(-scale, scale) for _ in range(3)] for _ in range(2))
            ours = fam.element(*p1)
            assert np.max(np.abs(np.array(maps(*p1), dtype=float) - ours.flat())) < 1e-12, p1
            composite = ours.compose(fam.element(*p2))
            theirs = recover(*composite.flat())
            assert np.max(np.abs(np.array(theirs, dtype=float) - fam.recover(composite))) < 1e-12, (p1, p2)


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_closure_residual_vanishes_exactly(name):
    assert_vanishes(closure_residual(FAMILIES[name], exact_params(name)))


def test_legacy_d32_residual_is_a_nonzero_witness():
    fam = legacy_d32_family()
    residual = [sp.simplify(r) for r in closure_residual(LEGACY_D32, {})]
    assert any(r != 0 for r in residual)
    # at one pair the witness equals the float residual the harness measures
    p1, p2 = (1.0, 1.0, 0.0), (0.5, 1.0, 0.0)
    composite = fam.element(*p1).compose(fam.element(*p2))
    measured = fam.element(*fam.recover(composite)).flat() - composite.flat()
    point = dict(zip((a1, b1, c1, a2, b2, c2), map(sp.nsimplify, p1 + p2)))
    exact = np.array([float(r.subs(point)) for r in residual])
    assert np.max(np.abs(exact)) > 1e-3
    assert np.max(np.abs(exact - measured)) < 1e-9


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_orbit_map_is_a_bijection_exactly(name):
    spec, params = FAMILIES[name], exact_params(name)
    m = homogeneous(spec, (a, b, c), params)
    back = spec.recover(SYMPY, m[:3, :3], m[:3, 3], **params)
    assert_vanishes([x - y for x, y in zip(back, (a, b, c))])
    _, image = spec.maps(SYMPY, *spec.recover(SYMPY, LIN, T, **params), **params)
    assert_vanishes([x - y for x, y in zip(image, T)])


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_tangent_generators_and_brackets_exactly(name):
    spec, params = FAMILIES[name], exact_params(name)
    algebra = make_lsa(spec.catalog_name, **spec.defaults)
    m = homogeneous(spec, (a, b, c), params)
    # b and c enter polynomially; f(0) is 0/0 symbolically, so a -> 0 last
    xs = [m.diff(s).subs({b: 0, c: 0}).applyfunc(lambda e: sp.limit(e, a, 0)) for s in (a, b, c)]
    for x, (lin, vec) in zip(xs, affine_rep(algebra).generators):
        expected = sp.zeros(4, 4)
        expected[:3, :3] = sp.Matrix([[rational(v) for v in row] for row in lin.rows])
        expected[:3, 3] = sp.Matrix([rational(v) for v in vec])
        assert x == expected
    lie = lie_algebra_of(algebra)
    for i in range(3):
        for j in range(3):
            combination = sum((rational(lie.c[i][j][k]) * xs[k] for k in range(3)), sp.zeros(4, 4))
            assert xs[i] * xs[j] - xs[j] * xs[i] == combination, (i, j)
