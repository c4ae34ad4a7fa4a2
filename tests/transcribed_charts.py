"""The eleven affine families in their transcribed charts, as test data.

Before the translation chart, each family was written in coordinates
(a, b, c) as two formulas: ``maps(x, a, b, c, **params)``, the rows of the
linear part and the translation of g(a, b, c), and ``recover(x, lin, t,
**params)``, its closed-form inverse.  They use the special functions

    f(x) = (e^x - 1)/x,  h(x) = (cos x - 1)/x + x/2,  k(x) = (sin x - x)/x,
    phi(x) = ((x - 1) e^x + 1)/x,

which ``lsa.affine`` no longer carries.  ``tests/test_affine_exact.py``
proves each chart a reparametrization of its translation chart, so both
describe one group: lin(maps(a)) = L(orbit(a)), with orbit(a) the
translation of g(a), and recover . orbit = id.  The E3 chart is not
injective at zeta* (``E3_ZETA_STAR``): its orbit Jacobian determinant
F^2 + H^2 has a transversal zero at a* (``E3_A_STAR``), where (a*, 0, 0)
and (a*, 1, -2) have the same orbit image.  The E3 group itself is a group
for every zeta; the defect is the chart's.  Whether this chart is the
paper's or a transcription slip is open: the paper's text is not at hand.

The formulas are written over a namespace ``x`` as in ``lsa.affine``:
sympy in the exact tests, ``FLOAT`` (numpy, closed forms only, so not at
0) in the float witnesses.
"""
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

FLOAT = SimpleNamespace(
    exp=np.exp, cos=np.cos, sin=np.sin, log=np.log, half=0.5,
    f=lambda x: (np.exp(x) - 1.0) / x,
    g=lambda x: (np.exp(x) - x - 1.0) / (x * x),
    h=lambda x: (np.cos(x) - 1.0) / x + x / 2.0,
    k=lambda x: (np.sin(x) - x) / x,
    phi=lambda x: ((x - 1.0) * np.exp(x) + 1.0) / x,
)

# A transversal common zero of F and H, E3's orbit Jacobian determinant
# F^2 + H^2, in (a, zeta).
E3_ZETA_STAR = Fraction(0.3969246308258383)
E3_A_STAR = -3.4326019090486215


def _a30(x, a, b, c):
    return ((1, 0, 0), (0, x.exp(a), 0), (0, 0, 1)), (a, b * x.f(a), c)


def _a30_recover(x, lin, t):
    return t[0], t[1] / x.f(t[0]), t[2]


def _a31(x, a, b, c):
    return ((1, 0, 0), (0, x.exp(a), 0), (a, 0, 1)), (a, b * x.f(a), c + x.half * a * a)


def _a31_recover(x, lin, t):
    a = t[0]
    return a, t[1] / x.f(a), t[2] - x.half * a * a


def _a32_a33(sign: int):
    def maps(x, a, b, c):
        return ((1, 0, sign * c), (0, x.exp(a), 0), (0, 0, 1)), (a + sign * x.half * c * c, b * x.f(a), c)

    def recover(x, lin, t):
        c = t[2]
        a = t[0] - sign * x.half * c * c
        return a, t[1] / x.f(a), c

    return maps, recover


def _b30(x, a, b, c):
    ea, fa = x.exp(a), x.f(a)
    return ((1, 0, 0), (0, ea, 0), (0, 0, ea)), (a, b * fa, c * fa)


def _b30_recover(x, lin, t):
    a = t[0]
    return a, t[1] / x.f(a), t[2] / x.f(a)


def _b31(x, a, b, c):
    ea, fa = x.exp(a), x.f(a)
    return ((1, 0, 0), (0, ea, 0), (b * fa, a * ea, ea)), (a, b * fa, (a * b + c) * fa)


def _b31_recover(x, lin, t):
    a = t[0]
    b = t[1] / x.f(a)
    return a, b, t[2] / x.f(a) - a * b


def _c31(x, a, b, c):
    ea, fa = x.exp(a), x.f(a)
    return ((1, 0, 0), (0, ea, 0), (0, a * ea, ea)), (a, b * fa, c * fa + b * x.phi(a))


def _c31_recover(x, lin, t):
    a = t[0]
    b = t[1] / x.f(a)
    return a, b, (t[2] - b * x.phi(a)) / x.f(a)


def _c3t(x, a, b, c, t):
    ea, fa = x.exp(a), x.f(a)
    return (
        ((1, 0, 0), (0, ea, 0), ((t - 1) * b * fa, t * a * ea, ea)),
        (a, b * fa, (t * a * b + c - b) * fa + b),
    )


def _c3t_recover(x, lin, tr, t):
    a = tr[0]
    b = tr[1] / x.f(a)
    return a, b, (tr[2] - b) / x.f(a) - t * a * b + b


def _d31(x, a, b, c, mu):
    return ((1, 0, 0), (0, x.exp(a), 0), (0, 0, x.exp(mu * a))), (a, b * x.f(a), c * x.f(mu * a))


def _d31_recover(x, lin, t, mu):
    a = t[0]
    return a, t[1] / x.f(a), t[2] / x.f(mu * a)


def _d32(x, a, b, c):
    fa, fh = x.f(a), x.f(x.half * a)
    return (
        ((1, 0, 0), (0, x.exp(a), c * (2 * fa - fh)), (0, 0, x.exp(x.half * a))),
        (a, b * fa + x.half * c * c * fh**2, c * fh),
    )


def _d32_recover(x, lin, t):
    a = t[0]
    fh = x.f(x.half * a)
    c = t[2] / fh
    return a, (t[1] - x.half * c * c * fh**2) / x.f(a), c


def e3_fh(x, a, zeta):
    """The translation's rotation-scaling pair (F, H) of the E3 chart."""
    return x.f(a) + x.k(zeta * a), x.h(zeta * a) - zeta * x.phi(a)


def _e3(x, a, b, c, zeta):
    ea, cz, sz = x.exp(a), x.cos(zeta * a), x.sin(zeta * a)
    big_f, big_h = e3_fh(x, a, zeta)
    return (
        ((1, 0, 0), (0, ea * cz, -ea * sz), (0, ea * sz, ea * cz)),
        (a, b * big_f + c * big_h, -b * big_h + c * big_f),
    )


def _e3_recover(x, lin, t, zeta):
    a = t[0]
    big_f, big_h = e3_fh(x, a, zeta)
    denom = big_f * big_f + big_h * big_h
    return a, (big_f * t[1] - big_h * t[2]) / denom, (big_h * t[1] + big_f * t[2]) / denom


# family name -> (maps, recover), in the order of ``lsa.affine.FAMILIES``
CHARTS = {
    "A30": (_a30, _a30_recover),
    "A31": (_a31, _a31_recover),
    "A32": _a32_a33(1),
    "A33": _a32_a33(-1),
    "B30": (_b30, _b30_recover),
    "B31": (_b31, _b31_recover),
    "C31": (_c31, _c31_recover),
    "C3t": (_c3t, _c3t_recover),
    "D31": (_d31, _d31_recover),
    "D32": (_d32, _d32_recover),
    "E3": (_e3, _e3_recover),
}
