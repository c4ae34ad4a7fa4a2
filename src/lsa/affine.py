"""Double-precision verification of the eleven simply transitive subgroups
of Aff(R^3) attached to the catalog algebras.

A complete left-symmetric algebra's group acts simply transitively on R^3,
so the orbit map g -> g.0 is a global chart, the translation chart: the
element with translation p is (L(p), p), the group law is
p * q = p + L(p) q, and a family is one 3x3 matrix function L(p).  Three
identities make {(L(p), p)} the simply transitive group of the paired
algebra: L(0) = I; closure, L(p + L(p) q) = L(p) L(q), which with L(0) = I
also gives inverses; and dL/dp_i = L_ei at 0, so the group's Lie algebra is
the affine representation X -> (L_X, X).  Simple transitivity then holds
by construction, since the orbit map is the identity.
``tests/test_affine_exact.py`` proves the three identities in sympy,
symbolically in the family parameter; the harness samples them in floats.

``verify_family`` checks closure at sampled pairs (the composite against
the element at its translation), the identity at 0, the tangent
generators and brackets, and at 20 sampled targets p: min |det L(p)|, the
group-inverse residual |g(p) g(q) - id| with q = -L(p)^-1 p the
translation of g(p)^-1, and orbit(p) = p exactly.

Each family is one row of ``FAMILIES``: its L, written once over a
namespace of elementary functions (``NUMPY`` here, sympy in the exact
tests), which ``translation_chart`` turns into the harness's pair of
formulas: ``maps`` gives (L(p), p) and ``recover`` reads the translation.
In numpy the formulas broadcast: arrays of coordinates map to linear parts
(..., 3, 3) and translations (..., 3), and ``AffineMap3`` validates once per
batch.  ``verify_families`` checks any number of families in one stacked
pass, and ``verify_family`` is its one-family case.  Each family is
evaluated by its own formulas in two batches: every sample point that
depends on nothing computed before it (both points of every closure pair,
the six tangent curve points, the targets and the origin), then the
recovered composites and inverse points.  The batches of all families are
stacked to (F, N, 3, 3) and (F, N, 3), and the composition, the adjugate,
the inverse products, the residuals and the tangent check's generators,
commutators and bracket residuals run once on the stack; only the
bracket solves, one ``lstsq`` per family and pair, are per family.  Every
step is elementwise, a max or a product of one slice of the stack, so a
family's report equals that of its points evaluated alone, bit for bit.

The D32 family needs one documented correction: the commonly quoted entry
(with b f(a) in the first row and a + b^2 g(a) in the translation) is not
closed under composition; it mirrors the same transcription slip as the
rejected D32 product form.  ``LEGACY_D32`` keeps that transcribed chart,
with its own ``maps`` and ``recover`` over the special functions f and g,
so the failure is reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from .algebra import Algebra, _basis, check_left_symmetric
from .catalog import ENTRIES, ParameterError, validate_params
from .linalg import QMatrix, Vec, frac

SERIES_THRESHOLD = 0.25
SERIES_EPS = 1e-18


def _series(x, first, ratio) -> np.ndarray:
    """Entrywise sum of the terms t_0 = first, t_n = t_{n-1} ratio(x, n),
    stopping each entry before its first term below SERIES_EPS: the
    term-by-term loop, run on each entry in turn, so every entry gets the
    value of its own scalar loop whatever else is in the batch."""
    x = np.asarray(x, dtype=float)
    sums = []
    for xi in x.ravel().tolist():
        total, term, n = 0.0, first, 0
        while abs(term) >= SERIES_EPS:
            total += term
            n += 1
            term *= ratio(xi, n)
        sums.append(total)
    return np.array(sums).reshape(x.shape)


def series_f(x):
    return _series(x, 1.0, lambda x, n: x / (n + 1))


def closed_f(x):
    return (np.exp(x) - 1.0) / x


def series_g(x):
    return _series(x, 0.5, lambda x, n: x / (n + 2))


def closed_g(x):
    return (np.exp(x) - x - 1.0) / (x * x)


def _branched(series: Callable, closed: Callable, doc: str) -> Callable:
    def fn(x):
        x = np.asarray(x, dtype=float)
        small = np.abs(x) < SERIES_THRESHOLD
        out = np.empty(x.shape)
        out[small] = series(x[small])
        out[~small] = closed(x[~small])
        return out[()]  # a float for a scalar argument

    fn.__doc__ = doc + " Entrywise on arrays: the series below SERIES_THRESHOLD, the closed form above."
    return fn


special_f = _branched(series_f, closed_f, "(e^x - 1)/x with f(0) = 1.")
special_g = _branched(series_g, closed_g, "(e^x - x - 1)/x^2 with g(0) = 1/2.")


@dataclass
class AffineMap3:
    """The affine map x -> linear x + translation of R^3, or a stack of them:
    linear (..., 3, 3) with translation (..., 3).  Shape and finiteness are
    checked once per construction, so a stack is validated once."""

    linear: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.linear = np.asarray(self.linear, dtype=float)
        self.translation = np.asarray(self.translation, dtype=float)
        if self.linear.shape[-2:] != (3, 3) or self.translation.shape != self.linear.shape[:-1]:
            raise ValueError(
                f"affine map needs linear (..., 3, 3) and translation (..., 3), "
                f"got {self.linear.shape} and {self.translation.shape}"
            )
        if not (np.isfinite(self.linear).all() and np.isfinite(self.translation).all()):
            raise ValueError("affine map has a non-finite entry")

    @classmethod
    def identity(cls) -> "AffineMap3":
        return cls(np.eye(3), np.zeros(3))

    def compose(self, other: "AffineMap3") -> "AffineMap3":
        """self after other: x -> self(other(x)), map by map."""
        moved = (self.linear @ other.translation[..., None])[..., 0]
        return AffineMap3(self.linear @ other.linear, moved + self.translation)

    def as_homogeneous(self) -> np.ndarray:
        out = np.zeros(self.translation.shape[:-1] + (4, 4))
        out[..., :3, :3] = self.linear
        out[..., :3, 3] = self.translation
        out[..., 3, 3] = 1.0
        return out

    def flat(self) -> np.ndarray:
        lead = self.translation.shape[:-1]
        return np.concatenate([self.linear.reshape(lead + (9,)), self.translation], axis=-1)


def map_distance(m1: AffineMap3, m2: AffineMap3):
    """Max-norm distance of the 12 entries; one per map of a stack."""
    return np.max(np.abs(m1.flat() - m2.flat()), axis=-1)[()]


# ---------------------------------------------------------------------------
# Exact affine representation X -> (L_X, X)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffRep:
    generators: tuple[tuple[QMatrix, Vec], ...]

    def homogeneous_float(self) -> list[np.ndarray]:
        out = []
        for lin, vecpart in self.generators:
            m = np.zeros((4, 4))
            m[:3, :3] = [[float(x) for x in row] for row in lin.rows]
            m[:3, 3] = [float(x) for x in vecpart]
            out.append(m)
        return out


def _require_3d_lsa(a: Algebra) -> None:
    """Refuse an algebra whose affine representation is not defined: one
    not of dimension 3, or not left-symmetric."""
    if a.dim != 3:
        raise ValueError("affine representation is defined for dimension 3")
    if not check_left_symmetric(a).ok:
        raise ValueError(
            "affine representation is not a homomorphism; input is not left-symmetric"
        )


def affine_rep(a: Algebra) -> AffRep:
    """Generators (L_{e_i}, e_i), the columns of L_{e_i} read off the
    tensor's rows c[i][j] = e_i*e_j.  The map is a homomorphism exactly when
    [L_x, L_y] = L_[x,y], which is left symmetry; the translation parts
    satisfy L_x y - L_y x = [x, y] by definition."""
    _require_3d_lsa(a)
    return AffRep(tuple((QMatrix.from_cols(a.c[i]), e) for i, e in enumerate(_basis(a))))


# ---------------------------------------------------------------------------
# The eleven group families
# ---------------------------------------------------------------------------

# Formulas are written over a namespace ``x`` of elementary functions: exp,
# cos, sin, and half = 1/2 (``half * c * c`` stays finite where
# ``(c * c) / 2`` overflows); the legacy D32 chart also reads log and the
# special functions f and g.  The harness evaluates them in ``NUMPY``.
NUMPY = SimpleNamespace(exp=np.exp, cos=np.cos, sin=np.sin, log=np.log, f=special_f, g=special_g, half=0.5)

_EYE = np.eye(3)

# Each L(x, p0, p1, p2, **params) gives the three rows of the linear part at
# translation p.


def _a30(x, p0, p1, p2):
    return (1, 0, 0), (0, x.exp(p0), 0), (0, 0, 1)


def _a31(x, p0, p1, p2):
    return (1, 0, 0), (0, x.exp(p0), 0), (p0, 0, 1)


def _a32_a33(sign: int):
    def linear(x, p0, p1, p2):
        return (1, 0, sign * p2), (0, x.exp(p0 - sign * x.half * p2 * p2), 0), (0, 0, 1)

    return linear


def _b30(x, p0, p1, p2):
    e = x.exp(p0)
    return (1, 0, 0), (0, e, 0), (0, 0, e)


def _b31(x, p0, p1, p2):
    e = x.exp(p0)
    return (1, 0, 0), (0, e, 0), (p1, p0 * e, e)


def _c31(x, p0, p1, p2):
    e = x.exp(p0)
    return (1, 0, 0), (0, e, 0), (0, p0 * e, e)


def _c3t(x, p0, p1, p2, t):
    e = x.exp(p0)
    return (1, 0, 0), (0, e, 0), ((t - 1) * p1, t * p0 * e, e)


def _d31(x, p0, p1, p2, mu):
    return (1, 0, 0), (0, x.exp(p0), 0), (0, 0, x.exp(mu * p0))


def _d32(x, p0, p1, p2):
    eh = x.exp(x.half * p0)
    return (1, 0, 0), (0, x.exp(p0), p2 * eh), (0, 0, eh)


def _e3(x, p0, p1, p2, zeta):
    # 1 (+) e^p0 R(zeta p0), R the rotation: a group for every zeta
    e, cz, sz = x.exp(p0), x.cos(zeta * p0), x.sin(zeta * p0)
    return (1, 0, 0), (0, e * cz, -e * sz), (0, e * sz, e * cz)


def _legacy_d32(x, a, b, c):
    fa = x.f(a)
    return (
        ((1, b * fa, 0), (0, x.exp(a), 0), (0, 0, x.exp(x.half * a))),
        (a + b * b * x.g(a), b * fa, c * x.f(x.half * a)),
    )


def _legacy_d32_recover(x, lin, t):
    a = x.log(lin[1, 1])
    return a, t[1] / x.f(a), t[2] / x.f(x.half * a)


@dataclass(frozen=True)
class FamilySpec:
    """One family as the harness's pair of formulas over a namespace (see
    ``NUMPY``): ``maps(x, a, b, c, **params)`` gives the rows of the linear
    part and the translation of the element at coordinates (a, b, c), and
    ``recover(x, lin, t, **params)`` gives the coordinates of a map, reading
    only lin[i, j] and t[i].  The family's parameters and their constraint
    are those of its catalog entry."""

    catalog_name: str
    maps: Callable[..., tuple[tuple, tuple]]
    recover: Callable[..., tuple]

    @property
    def defaults(self) -> dict[str, Fraction]:
        """Exact parameters of the catalog entry's first default."""
        return dict(ENTRIES[self.catalog_name].default_params[0])


def _translation(x, lin, translation, **params):
    """The coordinates of a map in a translation chart: its translation
    (not ``t``, which is C3t's parameter)."""
    return translation[0], translation[1], translation[2]


def translation_chart(catalog_name: str, linear: Callable) -> FamilySpec:
    """The family whose element at p is (L(p), p), L = ``linear``."""

    def maps(x, p0, p1, p2, **params):
        return linear(x, p0, p1, p2, **params), (p0, p1, p2)

    return FamilySpec(catalog_name, maps, _translation)


FAMILIES: dict[str, FamilySpec] = {
    "A30": translation_chart("N30", _a30),
    "A31": translation_chart("N31", _a31),
    "A32": translation_chart("N32", _a32_a33(1)),
    "A33": translation_chart("N33", _a32_a33(-1)),
    "B30": translation_chart("B30", _b30),
    "B31": translation_chart("B31", _b31),
    "C31": translation_chart("C31", _c31),
    "C3t": translation_chart("C3t", _c3t),
    "D31": translation_chart("D31mu", _d31),
    "D32": translation_chart("D32", _d32),
    "E3": translation_chart("E31zeta", _e3),  # the E family carries the zeta parameter
}

FAMILY_NAMES = tuple(FAMILIES)

# The commonly quoted D32 entry (see the module docstring).
LEGACY_D32 = FamilySpec("D32", _legacy_d32, _legacy_d32_recover)


@dataclass
class GroupFamily:
    """A family of affine maps g(a, b, c) at fixed float parameters.

    ``elements`` evaluates arrays a, b, c of one shape in one batch
    (overflow gives inf or nan, which the validation refuses); ``element``
    is its one-point view and ``recover`` gives the coordinates of a map or
    a stack.
    """

    name: str
    spec: FamilySpec
    params: dict[str, float]

    @property
    def catalog_name(self) -> str:
        return self.spec.catalog_name

    def evaluate(self, a, b, c) -> tuple[np.ndarray, np.ndarray]:
        """Unvalidated linear parts and translations, stacked over the
        broadcast shape of the inputs, so a formula that ignores an input
        still gets the full stack."""
        a, b, c = (np.asarray(v, dtype=float) for v in (a, b, c))
        with np.errstate(all="ignore"):
            rows, translation = self.spec.maps(NUMPY, a, b, c, **self.params)
        shape = np.broadcast_shapes(a.shape, b.shape, c.shape)
        linear = np.empty(shape + (3, 3))
        for i, row in enumerate(rows):
            for j, value in enumerate(row):
                linear[..., i, j] = value
        stacked = np.empty(shape + (3,))
        for i, value in enumerate(translation):
            stacked[..., i] = value
        return linear, stacked

    def elements(self, a, b, c) -> AffineMap3:
        return AffineMap3(*self.evaluate(a, b, c))

    def element(self, a, b, c) -> AffineMap3:
        """The map at one point (a, b, c)."""
        return self.elements(a, b, c)

    def recover(self, m: AffineMap3) -> tuple:
        """Coordinates (a, b, c) of a map or a stack of maps."""
        lin, t = np.moveaxis(m.linear, (-2, -1), (0, 1)), np.moveaxis(m.translation, -1, 0)
        with np.errstate(all="ignore"):
            return self.spec.recover(NUMPY, lin, t, **self.params)


def build_family(name: str, **params) -> GroupFamily:
    """Construct a family by name.  Parameters (ints, floats, Fractions or
    rational strings) must satisfy the catalog entry's constraint exactly;
    the family evaluates them as floats."""
    spec = FAMILIES.get(name)
    if spec is None:
        raise KeyError(f"unknown family {name!r}")
    try:
        exact = {k: frac(v) for k, v in params.items()}
        validate_params(spec.catalog_name, exact)
        floats = {k: float(v) for k, v in exact.items()}
    except (ValueError, OverflowError) as err:  # a constraint, a NaN or infinite parameter, or one past float range
        raise ParameterError(f"family {name}: {err}") from err
    return GroupFamily(name, spec, floats)


def legacy_d32_family() -> GroupFamily:
    """The commonly quoted D32 entry; kept as reproducible evidence that it
    is not closed under composition (see check_closure)."""
    return GroupFamily("D32-legacy", LEGACY_D32, {})


def default_families() -> list[GroupFamily]:
    """All eleven families at the catalog default parameters."""
    return [build_family(name, **spec.defaults) for name, spec in FAMILIES.items()]


# ---------------------------------------------------------------------------
# Verification harness
# ---------------------------------------------------------------------------

DIFF_STEP = 1e-6  # the central-difference step of the tangent check
CLOSURE_TOL = 1e-9  # max-norm residual a composite may leave
# max-norm residual of a group inverse and of ``newton_invert_orbit``; the
# JSON fields that report the first keep the name ``newton``
NEWTON_TOL = 1e-10
_N_TARGETS = 20  # the sampled transitivity targets of a family


def _distances(linear, translation, ref_linear, ref_translation) -> np.ndarray:
    """Max-norm distance of each map (linear, translation) of a stack from
    its reference, inf where it is NaN."""
    d = np.maximum(
        np.max(np.abs(linear - ref_linear), axis=(-2, -1)),
        np.max(np.abs(translation - ref_translation), axis=-1),
    )
    return np.where(np.isnan(d), np.inf, d)


def _uniform(rng, lo, hi, count: int) -> list[float]:
    """``count`` draws from [lo, hi), each ``rng.uniform(lo, hi)`` bit for
    bit: CPython defines it as lo + (hi - lo) * random()."""
    r = rng.random
    return [lo + (hi - lo) * r() for _ in range(count)]


@dataclass
class ClosureReport:
    family: str
    samples: int
    max_residual: float
    failures: list[tuple]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def newton_fallbacks(self) -> int:  # the failing pairs, under the name the benchmark reads
        return len(self.failures)


def check_closure(fam: GroupFamily, sample_pairs: Sequence[tuple]) -> ClosureReport:
    """Compose sampled pairs and test each composite against the family
    element at its coordinates, which ``recover`` reads off it (in a
    translation chart, its translation).

    ``recover`` reads entries of g(a, b, c) that fix (a, b, c) for any
    member of the family, so a composite is in the family exactly when it
    equals g(recover(composite)).  The residual is the max-norm difference
    of the two, and ``inf`` where ``recover`` is not finite.  All pairs are
    composed, recovered and re-evaluated in one batch.
    """
    pairs = np.asarray(sample_pairs, dtype=float).reshape(-1, 2, 3)
    composite = fam.elements(*pairs[:, 0].T).compose(fam.elements(*pairs[:, 1].T))
    recovered = fam.evaluate(*fam.recover(composite))
    return _closure_report(fam, sample_pairs, _distances(*recovered, composite.linear, composite.translation))


def _closure_report(fam: GroupFamily, sample_pairs: Sequence[tuple], resids: np.ndarray) -> ClosureReport:
    """The closure verdict on the N sampled pairs (a sequence or an array
    (N, 2, 3)), given the residual (N,) of each composite."""
    resids = resids.tolist()
    failures = [(*sample_pairs[k], r) for k, r in enumerate(resids) if not r < CLOSURE_TOL]
    return ClosureReport(fam.name, len(sample_pairs), max(resids, default=0.0), failures)


@dataclass
class TransitivityReport:
    """The translation-chart checks at sampled targets p: min |det L(p)|
    and the target where it is taken; whether every target is its own orbit
    image, with the first that is not and its image; and how many
    group-inverse residuals are not below ``NEWTON_TOL``, with their
    maximum."""

    family: str
    min_abs_det: float
    min_det_point: tuple
    orbit_is_identity: bool
    orbit_witness: tuple | None
    inverse_failures: int
    max_inverse_residual: float

    @property
    def ok(self) -> bool:
        return self.min_abs_det > 1e-8 and self.orbit_is_identity and self.inverse_failures == 0


def orbit_map(fam: GroupFamily, p) -> np.ndarray:
    """Image of the origin, the translation part, at a point (3,) or at
    every point of a stack (..., 3); the identity in a translation chart."""
    p = np.asarray(p, dtype=float)
    return fam.elements(p[..., 0], p[..., 1], p[..., 2]).translation


def newton_invert_orbit(fam: GroupFamily, targets):
    """The points whose orbit images are ``targets``, one (3,) or a stack
    (N, 3), read off by ``recover`` with the target as translation and a
    NaN linear part; there is no iteration, and the name is the one the
    benchmark traces.

    Returns the points, the max-norm residual of their orbit images and
    whether it is below ``NEWTON_TOL``: a tuple, a float and a bool for one
    target, arrays (N, 3), (N,) and (N,) for a stack.  A point that is not
    finite, or whose map overflows, fails with a NaN or infinite residual.
    """
    targets = np.asarray(targets, dtype=float)
    stack = targets.reshape(-1, 3)
    with np.errstate(all="ignore"):
        x = np.stack(fam.spec.recover(NUMPY, np.full((3, 3, len(stack)), np.nan), stack.T, **fam.params), axis=-1)
    err = np.max(np.abs(fam.evaluate(*x.T)[1] - stack), axis=1)
    ok = err < NEWTON_TOL
    if targets.ndim == 1:
        return tuple(x[0]), float(err[0]), bool(ok[0])
    return x, err, ok


def _inverse_translations(linear: np.ndarray, translation: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """det L and the translation -L^-1 t of the inverse, for each map
    (L, t) of a stack, from the adjugate of L, whose columns are the cross
    products of its rows, each cofactor formed as ``np.cross`` forms it.
    Every step is elementwise, so a row of a stack equals its map alone;
    where det L = 0 the translation is inf or nan."""
    (a, b, c), (d, e, f), (g, h, i) = np.moveaxis(linear, (-2, -1), (0, 1))
    # the columns r1 x r2, r2 x r0 and r0 x r1 of the adjugate
    x0, y0, z0 = e * i - f * h, f * g - d * i, d * h - e * g
    x1, y1, z1 = h * c - i * b, i * a - g * c, g * b - h * a
    x2, y2, z2 = b * f - c * e, c * d - a * f, a * e - b * d
    det = a * x0 + b * y0 + c * z0
    t0, t1, t2 = np.moveaxis(translation, -1, 0)
    moved = np.stack([x0 * t0 + x1 * t1 + x2 * t2, y0 * t0 + y1 * t1 + y2 * t2, z0 * t0 + z1 * t1 + z2 * t2], axis=-1)
    with np.errstate(all="ignore"):
        return det, -moved / det[..., None]


def _inverse_residuals(linear, translation, back_linear, back_translation) -> np.ndarray:
    """Max-norm distance of g g' from the identity, for each map g =
    (linear, translation) of a stack and its g' = (back_linear,
    back_translation); inf where it is NaN."""
    with np.errstate(all="ignore"):
        product = linear @ back_linear, (linear @ back_translation[..., None])[..., 0] + translation
    return _distances(*product, _EYE, 0.0)


def check_simply_transitive(fam: GroupFamily, n_targets: int = _N_TARGETS, rng=None) -> TransitivityReport:
    """The translation-chart checks at ``n_targets`` targets p drawn from
    [-3, 3]^3: |det L(p)|, orbit(p) = p exactly, and the residual of
    g(p) g(q) against the identity, q the translation of g(p)^-1.  With
    closure and L(0) = I, these make the family act simply transitively:
    the orbit map is the identity, so it is onto and one to one."""
    import random as _random

    targets = _sample_targets(rng or _random.Random(0), n_targets)
    at = fam.elements(*targets.T)
    det, inverse = _inverse_translations(at.linear, at.translation)
    resids = _inverse_residuals(at.linear, at.translation, *fam.evaluate(*inverse.T))
    return _transitivity_report(fam, targets, at.translation, det, resids)


def _sample_targets(rng, n_targets: int) -> np.ndarray:
    """``n_targets`` targets (N, 3) drawn uniformly from [-3, 3]^3."""
    return np.array(_uniform(rng, -3, 3, 3 * n_targets)).reshape(-1, 3)


def _transitivity_report(
    fam: GroupFamily, targets: np.ndarray, translation: np.ndarray, det: np.ndarray, resids: np.ndarray
) -> TransitivityReport:
    """The transitivity verdict at ``targets`` (N, 3), given the
    translations of the maps there, det L of each, and the residual of
    each group inverse."""
    dets = np.abs(det)
    first = int(np.argmin(dets))  # the first minimum
    misses = np.flatnonzero(np.any(translation != targets, axis=1))
    witness = None
    if misses.size:
        witness = (tuple(targets[misses[0]].tolist()), tuple(translation[misses[0]].tolist()))
    return TransitivityReport(
        fam.name,
        float(dets[first]),
        tuple(targets[first].tolist()),
        witness is None,
        witness,
        int(np.count_nonzero(~(resids < NEWTON_TOL))),
        float(np.max(resids)),
    )


@dataclass
class TangentReport:
    family: str
    max_generator_error: float
    max_bracket_residual: float
    max_constant_error: float
    worst_pair: tuple[int, int] | None = None  # 1-based commutator indices

    @property
    def ok(self) -> bool:
        return (
            self.max_generator_error < 1e-6
            and self.max_bracket_residual < 1e-6
            and self.max_constant_error < 1e-6
        )


# the six points +-DIFF_STEP e_i of the coordinate curves at the identity
_CURVE_POINTS = DIFF_STEP * np.vstack([_EYE, -_EYE])
# the pairs i < j of the bracket solves
_PAIRS = ((0, 1), (0, 2), (1, 2))


def check_tangent_algebra(fam: GroupFamily, algebra: Algebra) -> TangentReport:
    """Differentiate the coordinate curves at the identity (the i-th is the
    generator of e_i) and compare with the affine representation
    X -> (L_X, X) and the algebra's bracket constants.  The generators are
    read off the tensor: entry (k, j) of L_ei is float(c[i][j][k]), the
    float that ``AffRep.homogeneous_float`` gives, and the translation
    part is e_i.  Like ``affine_rep``, the check refuses an algebra that is
    not 3D or not left-symmetric.  It is the one-family case of the stacked
    ``_tangent_reports`` that ``verify_families`` runs."""
    curve = fam.elements(*_CURVE_POINTS.T)
    return _tangent_reports([fam], [algebra], curve.linear[None], curve.translation[None])[0]


def _tangent_reports(
    fams: Sequence[GroupFamily], algebras: Sequence[Algebra], linear: np.ndarray, translation: np.ndarray
) -> list[TangentReport]:
    """The tangent verdict of each family on its maps at ``_CURVE_POINTS``,
    linear (F, 6, 3, 3) and translation (F, 6, 3), in one stacked pass:
    every algebra is refused or accepted first, and only the bracket solves
    are per family and pair.

    The constants are read off each algebra's table, c = x / d with
    integers x and d: int true division is correctly rounded, so x / d is
    float(c) and (x_ijk - x_jik) / d is float(c[i][j][k] - c[j][i][k])."""
    for algebra in algebras:
        _require_3d_lsa(algebra)
    tables = [algebra.table for algebra in algebras]
    count = len(tables)
    xs = np.zeros((count, 3, 4, 4))
    xs[..., :3, :3] = (linear[:, :3] - linear[:, 3:]) / (2 * DIFF_STEP)
    xs[..., :3, 3] = (translation[:, :3] - translation[:, 3:]) / (2 * DIFF_STEP)
    rep = np.zeros((count, 3, 4, 4))
    # rep[f][i][k][j] = c[i][j][k]; a table's rows are flat at i n + j
    constants = np.array([[[x / t.d for x in v] for v in t.rows] for t in tables])
    rep[..., :3, :3] = constants.reshape(count, 3, 3, 3).transpose(0, 1, 3, 2)
    rep[..., :3, 3] = _EYE
    gen_errs = np.max(np.abs(xs - rep), axis=(1, 2, 3)).tolist()
    # left symmetry is checked, and the commutator algebra of a
    # left-symmetric algebra is a Lie algebra: its constants are read off
    # the tensor, c_ij^k = c[i][j][k] - c[j][i][k], with no Jacobi scan.
    # Only the pairs i < j are solved.  The pair (j, i) has the commutator
    # -comm exactly, lstsq is odd in its right-hand side bit for bit, and
    # negation is exact in every later step, so (j, i) repeats the residual
    # and constant error of (i, j); the pair (i, i) has comm = 0, hence
    # coefficients and errors 0.  Neither can raise a maximum, and ``worst``
    # moves only on a strict rise, so the report equals the 9-pair loop's.
    # Each basis is C-ordered (16, 3), as one family's stack of its
    # generators is, so the residual products run the same kernel.
    basis = np.ascontiguousarray(xs.reshape(count, 3, 16).transpose(0, 2, 1))
    left, right = xs[:, [i for i, _ in _PAIRS]], xs[:, [j for _, j in _PAIRS]]
    comms = (left @ right - right @ left).reshape(count, 3, 16)
    coeffs = np.array([[np.linalg.lstsq(b, comm, rcond=None)[0] for comm in cs] for b, cs in zip(basis, comms)])
    resids = np.max(np.abs((basis[:, None] @ coeffs[..., None])[..., 0] - comms), axis=-1).tolist()
    exact = [[[(t.c[i][j][k] - t.c[j][i][k]) / t.d for k in range(3)] for i, j in _PAIRS] for t in tables]
    const_errs = np.abs(coeffs - exact).tolist()
    reports = []
    for fam, gen_err, pair_resids, pair_errs in zip(fams, gen_errs, resids, const_errs, strict=True):
        max_resid = 0.0
        max_const_err = 0.0
        worst = None
        for (i, j), resid, errs in zip(_PAIRS, pair_resids, pair_errs):
            const_err = max(errs)
            if max(resid, const_err) > max(max_resid, max_const_err):
                worst = (i + 1, j + 1)
            max_resid = max(max_resid, resid)
            max_const_err = max(max_const_err, const_err)
        reports.append(TangentReport(fam.name, gen_err, max_resid, max_const_err, worst))
    return reports


def sample_parameter_pairs(rng, count: int):
    """``count`` pairs of points drawn uniformly from [-2, 2]^3."""
    xs = _uniform(rng, -2.0, 2.0, 6 * count)
    return [(tuple(xs[k : k + 3]), tuple(xs[k + 3 : k + 6])) for k in range(0, 6 * count, 6)]


def verify_family(fam: GroupFamily, algebra: Algebra, rng, closure_samples: int = 50) -> dict:
    """The closure, transitivity and tangent checks of one family, the
    identity at 0, and their verdict ``ok``: ``verify_families`` of the one
    family."""
    return verify_families([fam], [algebra], rng, closure_samples)[0]


def verify_families(
    fams: Sequence[GroupFamily], algebras: Sequence[Algebra], rng, closure_samples: int = 50
) -> list[dict]:
    """``verify_family``'s report of each of the families (a non-empty
    sequence, each with its algebra), in one stacked pass.

    The rng draws, family by family, the closure pairs
    (``sample_parameter_pairs``), then the 20 transitivity targets
    (``_sample_targets``), as ``check_closure`` and
    ``check_simply_transitive`` would in turn.  Each family evaluates in
    one batch its pairs' first points, their second points, the tangent
    curve points, its targets and the origin, and in a second the
    composites' recovered coordinates and the targets' inverse
    translations.  The checks run on the stack of all families' batches and
    each verdict reads its family's rows, so every report is that of the
    three public checks."""
    n, count = closure_samples, len(fams)
    draws = []
    for _ in fams:
        draws += [np.array(sample_parameter_pairs(rng, n)).reshape(-1, 3), _sample_targets(rng, _N_TARGETS)]
    samples = np.concatenate(draws).reshape(count, 2 * n + _N_TARGETS, 3)
    pairs, targets = samples[:, : 2 * n].reshape(count, n, 2, 3), samples[:, 2 * n :]
    curve_points = np.broadcast_to(_CURVE_POINTS, (count,) + _CURVE_POINTS.shape)
    points = np.concatenate([pairs[:, :, 0], pairs[:, :, 1], curve_points, targets, np.zeros((count, 1, 3))], axis=1)
    maps = AffineMap3(*map(np.stack, zip(*(fam.evaluate(*p.T) for fam, p in zip(fams, points)))))
    rows = np.cumsum([n, n, len(_CURVE_POINTS), _N_TARGETS])
    # each is (linear parts, translations) of its rows, (F, rows, ...)
    first, second, curve, at, origin = zip(np.split(maps.linear, rows, axis=1), np.split(maps.translation, rows, axis=1))
    composite = AffineMap3(*first).compose(AffineMap3(*second))
    det, inverse = _inverse_translations(*at)
    back = (
        fam.evaluate(*np.concatenate([np.stack(fam.recover(AffineMap3(*m)), axis=-1), q]).T)
        for fam, m, q in zip(fams, zip(composite.linear, composite.translation), inverse)
    )
    back_linear, back_translation = map(np.stack, zip(*back))
    closure_resids = _distances(back_linear[:, :n], back_translation[:, :n], composite.linear, composite.translation)
    inverse_resids = _inverse_residuals(*at, back_linear[:, n:], back_translation[:, n:])
    identity_exact = np.all(origin[0][:, 0] == _EYE, axis=(1, 2)) & ~np.any(origin[1][:, 0], axis=1)
    tangents = _tangent_reports(fams, algebras, *curve)
    reports = []
    for f, (fam, tangent) in enumerate(zip(fams, tangents)):
        closure = _closure_report(fam, pairs[f], closure_resids[f])
        transitivity = _transitivity_report(fam, targets[f], at[1][f], det[f], inverse_resids[f])
        identity = bool(identity_exact[f])
        reports.append({
            "family": fam.name,
            "catalog_entry": fam.catalog_name,
            "params": dict(sorted(fam.params.items())),
            "samples": closure_samples,
            "identity_at_zero": identity,
            "max_closure_residual": closure.max_residual,
            "closure_failures": len(closure.failures),
            # the benchmark reads the translation-chart checks under the names
            # of the grid and Newton checks they replace
            "jacobian_min_abs_det": transitivity.min_abs_det,
            "jacobian_min_point": list(transitivity.min_det_point),
            "injectivity_ok": transitivity.orbit_is_identity,
            "newton_failures": transitivity.inverse_failures,
            "max_newton_residual": transitivity.max_inverse_residual,
            "tangent_generator_error": tangent.max_generator_error,
            "tangent_bracket_residual": max(tangent.max_bracket_residual, tangent.max_constant_error),
            "ok": closure.ok and transitivity.ok and tangent.ok and identity,
        })
    return reports
