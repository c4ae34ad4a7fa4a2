"""Exact closure certificates for the affine families (sympy, test-only).

Each family is transcribed symbolically here, the transcription is checked
against ``fam.element`` and ``fam.recover`` at a few points, and then two symbolic elements are
composed, the family's closed-form recover is applied to the composite, and
the residual (recovered element minus composite) must simplify to 0 in all
twelve entries.  The sampled float check in ``check_closure`` bounds the
same residual by 1e-9 on random pairs; this proves it vanishes identically.
The D32-legacy transcription leaves a nonzero residual: its witness.
"""
import random

import numpy as np
import pytest

from lsa.affine import FAMILIES, FAMILY_NAMES, build_family, legacy_d32_family

sp = pytest.importorskip("sympy")

a1, b1, c1, a2, b2, c2 = sp.symbols("a1 b1 c1 a2 b2 c2", real=True)


def f(x):
    return (sp.exp(x) - 1) / x


def g(x):
    return (sp.exp(x) - x - 1) / x**2


def h(x):
    return (sp.cos(x) - 1) / x + x / 2


def k(x):
    return (sp.sin(x) - x) / x


def phi(x):
    return ((x - 1) * sp.exp(x) + 1) / x


def affine(entries, translation):
    linear = sp.eye(3)
    for (i, j), value in entries.items():
        linear[i, j] = value
    return linear, sp.Matrix(translation)


def a3x(sign):
    def maps(a, b, c):
        return affine({(1, 1): sp.exp(a), (0, 2): sign * c}, (a + sign * c**2 / 2, b * f(a), c))

    def recover(lin, t):
        c = t[2]
        a = t[0] - sign * c**2 / 2
        return a, t[1] / f(a), c

    return maps, recover


def e3_fh(a, zeta):
    return f(a) + k(zeta * a), h(zeta * a) - zeta * phi(a)


def e3_maps(a, b, c, zeta):
    ea, cz, sz = sp.exp(a), sp.cos(zeta * a), sp.sin(zeta * a)
    big_f, big_h = e3_fh(a, zeta)
    return affine(
        {(1, 1): ea * cz, (1, 2): -ea * sz, (2, 1): ea * sz, (2, 2): ea * cz},
        (a, b * big_f + c * big_h, -b * big_h + c * big_f),
    )


def e3_recover(lin, t, zeta):
    big_f, big_h = e3_fh(t[0], zeta)
    denom = big_f**2 + big_h**2
    return t[0], (big_f * t[1] - big_h * t[2]) / denom, (big_h * t[1] + big_f * t[2]) / denom


# name -> (maps(a, b, c, **params), recover(linear, translation, **params))
SYMBOLIC = {
    "A30": (
        lambda a, b, c: affine({(1, 1): sp.exp(a)}, (a, b * f(a), c)),
        lambda lin, t: (t[0], t[1] / f(t[0]), t[2]),
    ),
    "A31": (
        lambda a, b, c: affine({(1, 1): sp.exp(a), (2, 0): a}, (a, b * f(a), c + a**2 / 2)),
        lambda lin, t: (t[0], t[1] / f(t[0]), t[2] - t[0] ** 2 / 2),
    ),
    "A32": a3x(1),
    "A33": a3x(-1),
    "B30": (
        lambda a, b, c: affine({(1, 1): sp.exp(a), (2, 2): sp.exp(a)}, (a, b * f(a), c * f(a))),
        lambda lin, t: (t[0], t[1] / f(t[0]), t[2] / f(t[0])),
    ),
    "B31": (
        lambda a, b, c: affine(
            {(1, 1): sp.exp(a), (2, 2): sp.exp(a), (2, 0): b * f(a), (2, 1): a * sp.exp(a)},
            (a, b * f(a), (a * b + c) * f(a)),
        ),
        lambda lin, t: (t[0], t[1] / f(t[0]), t[2] / f(t[0]) - t[0] * t[1] / f(t[0])),
    ),
    "C31": (
        lambda a, b, c: affine(
            {(1, 1): sp.exp(a), (2, 2): sp.exp(a), (2, 1): a * sp.exp(a)},
            (a, b * f(a), c * f(a) + b * phi(a)),
        ),
        lambda lin, t: (t[0], t[1] / f(t[0]), (t[2] - t[1] / f(t[0]) * phi(t[0])) / f(t[0])),
    ),
    "C3t": (
        lambda a, b, c, t: affine(
            {(1, 1): sp.exp(a), (2, 2): sp.exp(a), (2, 0): (t - 1) * b * f(a), (2, 1): t * a * sp.exp(a)},
            (a, b * f(a), (t * a * b + c - b) * f(a) + b),
        ),
        lambda lin, tr, t: (
            tr[0],
            tr[1] / f(tr[0]),
            (tr[2] - tr[1] / f(tr[0])) / f(tr[0]) - t * tr[0] * tr[1] / f(tr[0]) + tr[1] / f(tr[0]),
        ),
    ),
    "D31": (
        lambda a, b, c, mu: affine(
            {(1, 1): sp.exp(a), (2, 2): sp.exp(mu * a)}, (a, b * f(a), c * f(mu * a))
        ),
        lambda lin, t, mu: (t[0], t[1] / f(t[0]), t[2] / f(mu * t[0])),
    ),
    "D32": (
        lambda a, b, c: affine(
            {(1, 1): sp.exp(a), (2, 2): sp.exp(a / 2), (1, 2): c * (2 * f(a) - f(a / 2))},
            (a, b * f(a) + c**2 * f(a / 2) ** 2 / 2, c * f(a / 2)),
        ),
        lambda lin, t: (
            t[0],
            (t[1] - (t[2] / f(t[0] / 2)) ** 2 * f(t[0] / 2) ** 2 / 2) / f(t[0]),
            t[2] / f(t[0] / 2),
        ),
    ),
    "E3": (e3_maps, e3_recover),
}

LEGACY = (
    lambda a, b, c: affine(
        {(1, 1): sp.exp(a), (2, 2): sp.exp(a / 2), (0, 1): b * f(a)},
        (a + b**2 * g(a), b * f(a), c * f(a / 2)),
    ),
    lambda lin, t: (sp.log(lin[1, 1]), t[1] / f(sp.log(lin[1, 1])), t[2] / f(sp.log(lin[1, 1]) / 2)),
)


def exact_params(name):
    return {key: sp.Rational(v.numerator, v.denominator) for key, v in FAMILIES[name].defaults.items()}


def closure_residual(maps, recover, params):
    """Entries of g(recover(g1 g2)) - g1 g2 for symbolic g1, g2."""
    lin1, t1 = maps(a1, b1, c1, **params)
    lin2, t2 = maps(a2, b2, c2, **params)
    lin, t = lin1 * lin2, lin1 * t2 + t1
    lin3, t3 = maps(*recover(lin, t, **params), **params)
    return list(lin3 - lin) + list(t3 - t)


def assert_transcribes(fam, maps, recover, params):
    """The symbolic maps and recover agree with the family's at sample points."""
    rng = random.Random(4)
    a, b, c = sp.symbols("a b c", real=True)
    lin, t = maps(a, b, c, **params)
    entries = sp.lambdify((a, b, c), list(lin) + list(t), "math")
    for _ in range(4):
        p1, p2 = ([rng.choice((-1, 1)) * rng.uniform(0.3, 1.8) for _ in range(3)] for _ in range(2))
        ours = fam.element(*p1)
        assert np.max(np.abs(np.array(entries(*p1), dtype=float) - ours.flat())) < 1e-12, p1
        composite = ours.compose(fam.element(*p2))
        theirs = recover(sp.Matrix(composite.linear), sp.Matrix(composite.translation), **params)
        assert np.max(np.abs(np.array(theirs, dtype=float) - fam.recover(composite))) < 1e-12, (p1, p2)


def test_symbolic_table_covers_every_family():
    assert set(SYMBOLIC) == set(FAMILY_NAMES)


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_closure_residual_vanishes_exactly(name):
    maps, recover = SYMBOLIC[name]
    params = exact_params(name)
    assert_transcribes(build_family(name, **FAMILIES[name].defaults), maps, recover, params)
    residual = closure_residual(maps, recover, params)
    assert [sp.simplify(r) for r in residual] == [0] * 12


def test_legacy_d32_residual_is_a_nonzero_witness():
    maps, recover = LEGACY
    fam = legacy_d32_family()
    assert_transcribes(fam, maps, recover, {})
    residual = [sp.simplify(r) for r in closure_residual(maps, recover, {})]
    assert any(r != 0 for r in residual)
    # at one pair the witness equals the float residual the harness measures
    p1, p2 = (1.0, 1.0, 0.0), (0.5, 1.0, 0.0)
    composite = fam.element(*p1).compose(fam.element(*p2))
    measured = fam.element(*fam.recover(composite)).flat() - composite.flat()
    point = dict(zip((a1, b1, c1, a2, b2, c2), map(sp.nsimplify, p1 + p2)))
    exact = np.array([float(r.subs(point)) for r in residual])
    assert np.max(np.abs(exact)) > 1e-3
    assert np.max(np.abs(exact - measured)) < 1e-9
