"""Exact certificates for the affine families (sympy, test-only).

Each family of ``lsa.affine`` is one matrix function L(p), written once
over a namespace of elementary functions.  The harness evaluates it with
``NUMPY``; these tests evaluate the very same functions with ``SYMPY``, so
every certificate covers the code that runs.  With the parameters t, mu and
zeta left symbolic, they prove the three identities that make
{(L(p), p)} the simply transitive group of the paired algebra:

- the identity: L(0) = I;
- closure: two symbolic elements are composed, ``recover`` (in the
  translation chart, the translation) is applied to the composite, and the
  residual (recovered element minus composite) simplifies to 0 in all
  twelve entries.  Its linear block is L(p + L(p) q) - L(p) L(q).  The
  D32-legacy chart leaves a nonzero residual: its witness;
- tangent: dL/dp_i at 0 equals L_ei, read off the catalog entry's
  structure constants with the parameter symbolic, and the generators
  X_i = (L_ei, e_i) satisfy [X_i, X_j] = sum_k c_ij^k X_k.

The eleven transcribed charts of ``transcribed_charts.py`` are proved
reparametrizations of the translation charts: lin(maps(a)) = L(orbit(a)),
and ``recover . orbit`` and ``orbit . recover`` are the identity wherever
``recover`` is defined (it divides by f(a), f(mu a), f(a/2), which are
positive, and for E3 by F^2 + H^2, which vanishes at zeta*).

Every residual claimed to vanish is first evaluated at one rational point
to 30 digits, so a wrong formula fails in seconds instead of leaving
``sp.simplify`` to run for minutes.  One float check ties the namespaces
together: numpy and sympy give the same values through the same formulas.
"""
import random
from types import SimpleNamespace

import numpy as np
import pytest

from lsa.affine import FAMILIES, FAMILY_NAMES, LEGACY_D32, NUMPY, build_family, legacy_d32_family
from lsa.catalog import ENTRIES

from transcribed_charts import CHARTS

sp = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

SYMPY = SimpleNamespace(
    exp=sp.exp, cos=sp.cos, sin=sp.sin, log=sp.log,
    f=lambda x: (sp.exp(x) - 1) / x,
    g=lambda x: (sp.exp(x) - x - 1) / x**2,
    half=sp.Rational(1, 2),
)
# the transcribed charts also read h, k and phi
CHART_SYMPY = SimpleNamespace(
    **vars(SYMPY),
    h=lambda x: (sp.cos(x) - 1) / x + x / 2,
    k=lambda x: (sp.sin(x) - x) / x,
    phi=lambda x: ((x - 1) * sp.exp(x) + 1) / x,
)

p = sp.symbols("p0:3", real=True)
q = sp.symbols("q0:3", real=True)
a, b, c = sp.symbols("a b c", real=True)
# a free linear part and translation, for recover applied to any map
LIN = sp.Matrix(3, 3, sp.symbols("l0:9", real=True))
T = sp.Matrix(sp.symbols("t0:3", real=True))
PARAM_SYMBOLS = {name: sp.Symbol(name, real=True) for name in ("t", "mu", "zeta")}

# a rational point off every 0/0 of the closed forms (p0 + q0 != 0 too)
POINT = dict(
    zip(
        (*p, *q, a, b, c, *LIN, *T, *PARAM_SYMBOLS.values()),
        map(
            sp.Rational,
            "2/3 -1/2 5/4 -3/5 1/7 -4/3 1/3 -2/5 3/7 3 1/2 -1 2/5 2 1/3 -1/4 1 5/2 1/2 -5/3 2/9 -2/3 3/8 5/7".split(),
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


def symbolic_params(name):
    """The family's parameter as a symbol: t, mu or zeta."""
    return {key: PARAM_SYMBOLS[key] for key in FAMILIES[name].defaults}


def exact_params(name):
    return {key: rational(v) for key, v in FAMILIES[name].defaults.items()}


def homogeneous(maps, point, params, x=SYMPY):
    """The 4 x 4 matrix of the symbolic element ``maps`` gives at ``point``."""
    rows, translation = maps(x, *point, **params)
    m = sp.eye(4)
    m[:3, :3] = sp.Matrix(rows)
    m[:3, 3] = sp.Matrix(translation)
    return m


def linear_part(name, point, params):
    """L at ``point``: the linear part of the family's element there."""
    rows, _ = FAMILIES[name].maps(SYMPY, *point, **params)
    return sp.Matrix(rows)


def closure_residual(spec, params):
    """Entries of g(recover(g1 g2)) - g1 g2 for symbolic g1 = g(p) and
    g2 = g(q), in the order of ``AffineMap3.flat``."""
    composite = homogeneous(spec.maps, p, params) * homogeneous(spec.maps, q, params)
    recovered = spec.recover(SYMPY, composite[:3, :3], composite[:3, 3], **params)
    residual = homogeneous(spec.maps, recovered, params) - composite
    return list(residual[:3, :3]) + list(residual[:3, 3])


def structure_tensor(name):
    """c[i][j][k], e_i e_j = sum_k c[i][j][k] e_k, of the family's catalog
    entry with its parameter symbolic."""
    entry = ENTRIES[FAMILIES[name].catalog_name]
    value = PARAM_SYMBOLS[entry.param.name] if entry.param else None
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for (i, j, k), coeff in entry.products.items():
        c[i - 1][j - 1][k - 1] = coeff[0] + coeff[1] * value if isinstance(coeff, tuple) else sp.Rational(str(coeff))
    return c


def test_namespaces_name_the_same_functions():
    assert vars(SYMPY).keys() == vars(NUMPY).keys()


@pytest.mark.parametrize("name", FAMILY_NAMES + ("D32-legacy",))
def test_namespaces_agree_through_the_same_formulas(name):
    """At sample points (|a| below and above 1/4, the series threshold of
    f and g) the numpy family equals the sympy one, evaluated to 30 digits,
    within 1e-12, and so does ``recover`` at a composite."""
    if name == "D32-legacy":
        spec, params, fam = LEGACY_D32, {}, legacy_d32_family()
    else:
        spec, params, fam = FAMILIES[name], exact_params(name), build_family(name, **FAMILIES[name].defaults)
    m = homogeneous(spec.maps, (a, b, c), params)
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
def test_translation_chart_is_the_identity_at_zero(name):
    assert linear_part(name, (0, 0, 0), symbolic_params(name)) == sp.eye(3)


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_closure_residual_vanishes_exactly(name):
    """L(p + L(p) q) = L(p) L(q), for every value of the parameter."""
    assert_vanishes(closure_residual(FAMILIES[name], symbolic_params(name)))


def test_legacy_d32_residual_is_a_nonzero_witness():
    fam = legacy_d32_family()
    residual = [sp.simplify(r) for r in closure_residual(LEGACY_D32, {})]
    assert any(r != 0 for r in residual)
    # at one pair the witness equals the float residual the harness measures
    p1, p2 = (1.0, 1.0, 0.0), (0.5, 1.0, 0.0)
    composite = fam.element(*p1).compose(fam.element(*p2))
    measured = fam.element(*fam.recover(composite)).flat() - composite.flat()
    point = dict(zip((*p, *q), map(sp.nsimplify, p1 + p2)))
    exact = np.array([float(r.subs(point)) for r in residual])
    assert np.max(np.abs(exact)) > 1e-3
    assert np.max(np.abs(exact - measured)) < 1e-9


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_tangent_generators_and_brackets_exactly(name):
    """dL/dp_i at 0 is L_ei, and the translation's derivative is e_i, so
    the generators are (L_ei, e_i); their commutators are the Lie
    brackets of the entry, for every value of the parameter."""
    m = homogeneous(FAMILIES[name].maps, p, symbolic_params(name))
    xs = [m.diff(s).subs(dict.fromkeys(p, 0)) for s in p]
    c = structure_tensor(name)
    for i, x in enumerate(xs):
        expected = sp.zeros(4, 4)
        expected[:3, :3] = sp.Matrix(3, 3, lambda k, j: c[i][j][k])
        expected[i, 3] = 1
        assert (x - expected).applyfunc(sp.simplify) == sp.zeros(4, 4), i
    for i in range(3):
        for j in range(3):
            combination = sum(((c[i][j][k] - c[j][i][k]) * xs[k] for k in range(3)), sp.zeros(4, 4))
            assert (xs[i] * xs[j] - xs[j] * xs[i] - combination).applyfunc(sp.expand) == sp.zeros(4, 4), (i, j)


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_transcribed_chart_is_a_reparametrization(name):
    """lin(maps(a)) = L(orbit(a)): the transcribed element at a is the
    translation chart's element at its translation."""
    params = symbolic_params(name)
    maps, _ = CHARTS[name]
    m = homogeneous(maps, (a, b, c), params, CHART_SYMPY)
    assert_vanishes(list(m[:3, :3] - linear_part(name, m[:3, 3], params)))


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_orbit_map_is_a_bijection_exactly(name):
    """The transcribed chart's ``recover . orbit`` and ``orbit . recover``
    are the identity, where ``recover`` is defined."""
    params = symbolic_params(name)
    maps, recover = CHARTS[name]
    m = homogeneous(maps, (a, b, c), params, CHART_SYMPY)
    back = recover(CHART_SYMPY, m[:3, :3], m[:3, 3], **params)
    assert_vanishes([x - y for x, y in zip(back, (a, b, c))])
    _, image = maps(CHART_SYMPY, *recover(CHART_SYMPY, LIN, T, **params), **params)
    assert_vanishes([x - y for x, y in zip(image, T)])
