"""Double-precision verification of the eleven simply transitive subgroups
of Aff(R^3) attached to the catalog algebras.

Each family is a parametrized set of affine maps g(a, b, c); the harness
checks the properties that characterize the claim operationally instead of
re-deriving any particular exponential-coordinate system: closure under
composition, a nonsingular and injective orbit map that inverts sampled
targets, and tangent vectors at the identity matching the exact affine
representation X -> (L_X, X) of the paired catalog algebra.  Closure and
grid injectivity are decided by the family's closed-form inverse
``recover``, which ``tests/test_affine_exact.py`` proves exact: a composite
is in the family exactly when it equals g(recover(composite)), and the grid
is injective when ``recover`` takes every orbit image back to its point.  A
sampled target is inverted by Newton started at ``recover``; on the eleven
families that start already solves it at roundoff, and Newton remains the
check of the residual and the fallback where ``recover`` is not finite.

Every family is written once, as two formulas over a namespace of
elementary functions (``NUMPY`` here, sympy in the exact tests).  In numpy
they broadcast: arrays a, b, c map to linear parts (..., 3, 3) and
translations (..., 3) stacked over their broadcast shape.  The checks
evaluate whole batches in one call, and ``AffineMap3`` validates once per
batch.  ``verify_family`` evaluates every sample point that depends on
nothing computed before it in one batch: both points of every closure
pair, the six tangent curve points, the Newton starts and the origin; each
check reads its own rows.  Every formula is elementwise and ``_series``
gives each entry its own term-by-term value, so a row of the batch equals
the same point evaluated alone, bit for bit.  Only the recovered
composites and the grid keep their own evaluations.  The transitivity
grid, 729 points with their six finite-difference neighbours, goes in as
its three axes (``_GRID_AXES``): 63 special-function arguments per family,
broadcast to the 5103 points.  Newton takes the images at its starts as
given and tests their residuals in one batch; a target that its start does
not solve is iterated alone, one 7-point stencil per evaluation.

The D32 family needs one documented correction: the commonly quoted entry
(with b f(a) in the first row and a + b^2 g(a) in the translation) is not
closed under composition; it mirrors the same transcription slip as the
rejected D32 product form.  The family stored here is derived from the
corrected algebra and is closed; ``legacy_d32_family`` keeps the other form
so the failure is reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from .algebra import Algebra, _basis, _basis_mults, check_left_symmetric
from .catalog import ENTRIES, ParameterError, validate_params
from .linalg import QMatrix, Vec, frac

SERIES_THRESHOLD = 0.25
SERIES_EPS = 1e-18
SERIES_CHUNK = 16  # terms per cumulative product


def _series(x, first, ratio) -> np.ndarray:
    """Entrywise sum of the terms t_0 = first, t_n = t_{n-1} ratio(x, n),
    stopping each entry before its first term below SERIES_EPS.

    A chunk of terms is one cumulative product, and the running total is
    accumulated in term order (``sum`` would pair terms up), so every entry
    gets the value of its own term-by-term loop whatever else is in the
    batch.
    """
    x = np.asarray(x, dtype=float)
    steps = np.arange(1, SERIES_CHUNK + 1).reshape((-1,) + (1,) * x.ndim)
    total = np.zeros(x.shape)
    term = total + first
    live = True
    while True:
        terms = np.concatenate([term[None], ratio(x, steps)]).cumprod(axis=0)
        alive = np.logical_and.accumulate(np.abs(terms) >= SERIES_EPS, axis=0) & live
        total = np.add.accumulate(np.concatenate([total[None], np.where(alive[:-1], terms[:-1], 0.0)]))[-1]
        term, live = terms[-1], alive[-1]
        if not live.any():
            return total
        steps = steps + SERIES_CHUNK


def series_f(x):
    return _series(x, 1.0, lambda x, n: x / (n + 1))


def closed_f(x):
    return (np.exp(x) - 1.0) / x


def series_g(x):
    return _series(x, 0.5, lambda x, n: x / (n + 2))


def closed_g(x):
    return (np.exp(x) - x - 1.0) / (x * x)


def series_h(x):
    x = np.asarray(x, dtype=float)
    return _series(x, np.float_power(x, 3) / 24.0, lambda x, n: -x * x / ((2 * n + 3) * (2 * n + 4)))


def closed_h(x):
    return (np.cos(x) - 1.0) / x + x / 2.0


def series_k(x):
    x = np.asarray(x, dtype=float)
    return _series(x, -x * x / 6.0, lambda x, n: -x * x / ((2 * n + 2) * (2 * n + 3)))


def closed_k(x):
    return (np.sin(x) - x) / x


def series_phi(x):
    return _series(x, np.asarray(x, dtype=float) / 2.0, lambda x, n: x * (n + 1) / (n * (n + 2)))


def closed_phi(x):
    return ((x - 1.0) * np.exp(x) + 1.0) / x


def _branched(series: Callable, closed: Callable, doc: str) -> Callable:
    def fn(x):
        x = np.asarray(x, dtype=float)
        small = np.abs(x) < SERIES_THRESHOLD
        if not small.any():
            return closed(x)[()]
        if small.all():
            return series(x)[()]
        out = np.empty(x.shape)
        out[small] = series(x[small])
        out[~small] = closed(x[~small])
        return out[()]  # a float for a scalar argument

    fn.__doc__ = doc + " Entrywise on arrays: the series below SERIES_THRESHOLD, the closed form above."
    return fn


special_f = _branched(series_f, closed_f, "(e^x - 1)/x with f(0) = 1.")
special_g = _branched(series_g, closed_g, "(e^x - x - 1)/x^2 with g(0) = 1/2.")
special_h = _branched(series_h, closed_h, "(cos x - 1)/x + x/2 with h(0) = 0.")
special_k = _branched(series_k, closed_k, "(sin x - x)/x with k(0) = 0.")
special_phi = _branched(series_phi, closed_phi, "sum_{n>=1} n x^n/(n+1)!; closed form ((x-1)e^x + 1)/x.")


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
    """Generators (L_{e_i}, e_i).  The map is a homomorphism exactly when
    [L_x, L_y] = L_[x,y], which is left symmetry; the translation parts
    satisfy L_x y - L_y x = [x, y] by definition."""
    _require_3d_lsa(a)
    return AffRep(tuple(zip(_basis_mults(a)[0], _basis(a))))


# ---------------------------------------------------------------------------
# The eleven group families
# ---------------------------------------------------------------------------

# A family is two formulas over a namespace ``x`` of elementary functions:
# exp, cos, sin, log, the special functions f, g, h, k, phi, and half = 1/2
# (``half * c * c`` stays finite where ``(c * c) / 2`` overflows).
# ``maps(x, a, b, c, **params)`` returns the linear-part entries that differ
# from the identity, {(i, j): value}, and the translation (t0, t1, t2);
# ``recover(x, lin, t, **params)`` is its closed-form inverse and reads only
# lin[i, j] and t[i].  The harness evaluates them in ``NUMPY``.
NUMPY = SimpleNamespace(
    exp=np.exp, cos=np.cos, sin=np.sin, log=np.log,
    f=special_f, g=special_g, h=special_h, k=special_k, phi=special_phi, half=0.5,
)

_EYE = np.eye(3)


def _a30(x, a, b, c):
    return {(1, 1): x.exp(a)}, (a, b * x.f(a), c)


def _a30_recover(x, lin, t):
    return t[0], t[1] / x.f(t[0]), t[2]


def _a31(x, a, b, c):
    return {(1, 1): x.exp(a), (2, 0): a}, (a, b * x.f(a), c + x.half * a * a)


def _a31_recover(x, lin, t):
    a = t[0]
    return a, t[1] / x.f(a), t[2] - x.half * a * a


def _a32_a33(sign: int):
    def maps(x, a, b, c):
        return {(1, 1): x.exp(a), (0, 2): sign * c}, (a + sign * x.half * c * c, b * x.f(a), c)

    def recover(x, lin, t):
        c = t[2]
        a = t[0] - sign * x.half * c * c
        return a, t[1] / x.f(a), c

    return maps, recover


def _b30(x, a, b, c):
    ea, fa = x.exp(a), x.f(a)
    return {(1, 1): ea, (2, 2): ea}, (a, b * fa, c * fa)


def _b30_recover(x, lin, t):
    a = t[0]
    return a, t[1] / x.f(a), t[2] / x.f(a)


def _b31(x, a, b, c):
    ea, fa = x.exp(a), x.f(a)
    return {(1, 1): ea, (2, 2): ea, (2, 0): b * fa, (2, 1): a * ea}, (a, b * fa, (a * b + c) * fa)


def _b31_recover(x, lin, t):
    a = t[0]
    b = t[1] / x.f(a)
    return a, b, t[2] / x.f(a) - a * b


def _c31(x, a, b, c):
    ea, fa = x.exp(a), x.f(a)
    return {(1, 1): ea, (2, 2): ea, (2, 1): a * ea}, (a, b * fa, c * fa + b * x.phi(a))


def _c31_recover(x, lin, t):
    a = t[0]
    b = t[1] / x.f(a)
    return a, b, (t[2] - b * x.phi(a)) / x.f(a)


def _c3t(x, a, b, c, t):
    ea, fa = x.exp(a), x.f(a)
    return (
        {(1, 1): ea, (2, 2): ea, (2, 0): (t - 1) * b * fa, (2, 1): t * a * ea},
        (a, b * fa, (t * a * b + c - b) * fa + b),
    )


def _c3t_recover(x, lin, tr, t):
    a = tr[0]
    b = tr[1] / x.f(a)
    return a, b, (tr[2] - b) / x.f(a) - t * a * b + b


def _d31(x, a, b, c, mu):
    return {(1, 1): x.exp(a), (2, 2): x.exp(mu * a)}, (a, b * x.f(a), c * x.f(mu * a))


def _d31_recover(x, lin, t, mu):
    a = t[0]
    return a, t[1] / x.f(a), t[2] / x.f(mu * a)


def _d32(x, a, b, c):
    # derived closed form: linear (2,3) entry c (2 f(a) - f(a/2)) and
    # translation (a, b f(a) + c^2 f(a/2)^2 / 2, c f(a/2))
    fa, fh = x.f(a), x.f(x.half * a)
    return (
        {(1, 1): x.exp(a), (2, 2): x.exp(x.half * a), (1, 2): c * (2 * fa - fh)},
        (a, b * fa + x.half * c * c * fh**2, c * fh),
    )


def _d32_recover(x, lin, t):
    a = t[0]
    fh = x.f(x.half * a)
    c = t[2] / fh
    return a, (t[1] - x.half * c * c * fh**2) / x.f(a), c


def _e3_fh(x, a, zeta):
    """The translation's rotation-scaling pair (F, H) of the E3 family."""
    return x.f(a) + x.k(zeta * a), x.h(zeta * a) - zeta * x.phi(a)


def _e3(x, a, b, c, zeta):
    ea = x.exp(a)
    cz, sz = x.cos(zeta * a), x.sin(zeta * a)
    big_f, big_h = _e3_fh(x, a, zeta)
    return (
        {(1, 1): ea * cz, (1, 2): -ea * sz, (2, 1): ea * sz, (2, 2): ea * cz},
        (a, b * big_f + c * big_h, -b * big_h + c * big_f),
    )


def _e3_recover(x, lin, t, zeta):
    a = t[0]
    big_f, big_h = _e3_fh(x, a, zeta)
    denom = big_f * big_f + big_h * big_h
    return a, (big_f * t[1] - big_h * t[2]) / denom, (big_h * t[1] + big_f * t[2]) / denom


def _legacy_d32(x, a, b, c):
    fa = x.f(a)
    return (
        {(1, 1): x.exp(a), (2, 2): x.exp(x.half * a), (0, 1): b * fa},
        (a + b * b * x.g(a), b * fa, c * x.f(x.half * a)),
    )


def _legacy_d32_recover(x, lin, t):
    a = x.log(lin[1, 1])
    return a, t[1] / x.f(a), t[2] / x.f(x.half * a)


@dataclass(frozen=True)
class FamilySpec:
    """One row of the family table: the two formulas ``maps`` and
    ``recover`` (see ``NUMPY``); the family's parameters and their
    constraint are those of its catalog entry."""

    catalog_name: str
    maps: Callable[..., tuple[dict, tuple]]
    recover: Callable[..., tuple]

    @property
    def defaults(self) -> dict[str, Fraction]:
        """Exact parameters of the catalog entry's first default."""
        return dict(ENTRIES[self.catalog_name].default_params[0])


FAMILIES: dict[str, FamilySpec] = {
    "A30": FamilySpec("N30", _a30, _a30_recover),
    "A31": FamilySpec("N31", _a31, _a31_recover),
    "A32": FamilySpec("N32", *_a32_a33(1)),
    "A33": FamilySpec("N33", *_a32_a33(-1)),
    "B30": FamilySpec("B30", _b30, _b30_recover),
    "B31": FamilySpec("B31", _b31, _b31_recover),
    "C31": FamilySpec("C31", _c31, _c31_recover),
    "C3t": FamilySpec("C3t", _c3t, _c3t_recover),
    "D31": FamilySpec("D31mu", _d31, _d31_recover),
    "D32": FamilySpec("D32", _d32, _d32_recover),
    "E3": FamilySpec("E31zeta", _e3, _e3_recover),  # the E family carries the zeta parameter
}

FAMILY_NAMES = tuple(FAMILIES)

# The commonly quoted D32 entry (see the module docstring).
LEGACY_D32 = FamilySpec("D32", _legacy_d32, _legacy_d32_recover)


@dataclass
class GroupFamily:
    """A family of affine maps g(a, b, c) at fixed float parameters.

    ``elements`` evaluates arrays a, b, c of one shape in one batch
    (overflow gives inf or nan, which the validation refuses); ``element``
    is its one-point view and ``recover`` inverts a map or a stack.
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
        still gets the full stack (the transitivity grid's axes rely on
        this; see ``_GRID_AXES``)."""
        a, b, c = (np.asarray(v, dtype=float) for v in (a, b, c))
        with np.errstate(all="ignore"):
            entries, translation = self.spec.maps(NUMPY, a, b, c, **self.params)
        shape = np.broadcast_shapes(a.shape, b.shape, c.shape)
        linear = np.empty(shape + (3, 3))
        linear[...] = _EYE
        for (i, j), value in entries.items():
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
        """Group parameters (a, b, c) of a map or a stack of maps."""
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

# a point and its six neighbours +-e_i, for central differences
_STENCIL = np.vstack([np.zeros(3), np.eye(3), -np.eye(3)])
DIFF_STEP = 1e-6  # the central-difference step of the orbit and tangent checks
CLOSURE_TOL = 1e-9  # max-norm residual a composite may leave
NEWTON_TOL = 1e-10  # max-norm residual of a solved target and of recover on the grid
NEWTON_ITERS = 80
_N_TARGETS = 20  # the sampled transitivity targets of a family


@dataclass
class ClosureReport:
    family: str
    samples: int
    max_residual: float
    newton_fallbacks: int  # the pairs the closed form misses, under the name the benchmark reads
    failures: list[tuple]

    @property
    def ok(self) -> bool:
        return not self.failures


def check_closure(fam: GroupFamily, sample_pairs: Sequence[tuple]) -> ClosureReport:
    """Compose sampled pairs and test each composite against the family
    element at its closed-form inverse.

    Every ``recover`` reads entries of g(a, b, c) that fix (a, b, c) for any
    member of the family, so a composite is in the family exactly when it
    equals g(recover(composite)); no search can find a member that
    ``recover`` misses.  The residual is the max-norm difference of the two,
    and ``inf`` where ``recover`` is not finite.  All pairs are composed,
    recovered and re-evaluated in one batch.
    """
    pairs = np.asarray(sample_pairs, dtype=float).reshape(-1, 2, 3)
    return _closure_report(fam, sample_pairs, fam.elements(*pairs[:, 0].T).compose(fam.elements(*pairs[:, 1].T)))


def _closure_report(fam: GroupFamily, sample_pairs: Sequence[tuple], composite: AffineMap3) -> ClosureReport:
    """The closure verdict on the composites (N,) of the N sampled pairs."""
    linear, translation = fam.evaluate(*fam.recover(composite))
    resids = np.maximum(
        np.max(np.abs(linear - composite.linear), axis=(-2, -1)),
        np.max(np.abs(translation - composite.translation), axis=-1),
    )
    resids = np.where(np.isnan(resids), np.inf, resids).tolist()  # NaN: the closed form broke down
    failures = [(p1, p2, r) for (p1, p2), r in zip(sample_pairs, resids) if not r < CLOSURE_TOL]
    return ClosureReport(fam.name, len(sample_pairs), max(resids, default=0.0), len(failures), failures)


@dataclass
class TransitivityReport:
    family: str
    min_abs_jacobian: float
    min_jacobian_point: tuple | None
    injectivity_ok: bool
    injectivity_witness: tuple | None
    newton_failures: int
    max_newton_residual: float

    @property
    def ok(self) -> bool:
        return (
            self.min_abs_jacobian > 1e-8
            and self.injectivity_ok
            and self.newton_failures == 0
        )


def orbit_map(fam: GroupFamily, p) -> np.ndarray:
    """Image of the origin, the translation part, at a point (3,) or at
    every point of a stack (..., 3)."""
    p = np.asarray(p, dtype=float)
    return fam.elements(p[..., 0], p[..., 1], p[..., 2]).translation


def _central_differences(images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The centre row (N, 3) of stencil images (7, N, 3) and the
    central-difference Jacobians (N, 3, 3)."""
    return images[0], (images[1:4] - images[4:7]).transpose(1, 2, 0) / (2 * DIFF_STEP)


def _orbit_jacobians(fam: GroupFamily, points) -> tuple[np.ndarray, np.ndarray]:
    """Orbit images at ``points`` (N, 3) and their central-difference
    Jacobians (N, 3, 3), from one batch of the 7N stencil points."""
    return _central_differences(orbit_map(fam, np.asarray(points, dtype=float) + DIFF_STEP * _STENCIL[:, None, :]))


def newton_invert_orbit(fam: GroupFamily, targets, start=(0.0, 0.0, 0.0)):
    """Solve orbit(p) = target by damped Newton with numeric Jacobian, for
    one target (3,) or for each target of a stack (N, 3), from ``start``
    (one point, or one per target).

    Returns the point reached, its max-norm residual and whether that is
    below ``NEWTON_TOL``: a tuple, a float and a bool for one target, arrays
    (N, 3), (N,) and (N,) for a stack.  The first evaluation takes the
    images at the starts only, the stencil's centre row bit for bit; a
    target whose start misses is then iterated on its own (see ``_newton``).
    """
    targets = np.asarray(targets, dtype=float)
    stack = targets.reshape(-1, 3)
    x = np.empty(stack.shape)
    x[...] = start
    x, err, ok = _newton(fam, stack, x, orbit_map(fam, x + DIFF_STEP * _STENCIL[0]))
    if targets.ndim == 1:
        return tuple(x[0]), float(err[0]), bool(ok[0])
    return x, err, ok


def _newton(fam: GroupFamily, stack: np.ndarray, x: np.ndarray, image: np.ndarray):
    """Newton for the targets ``stack`` (N, 3) from the starts ``x`` (N, 3),
    which it overwrites with the points reached, given the starts' orbit
    images ``image`` (N, 3); returns those points, their residuals and which
    are below ``NEWTON_TOL``.

    One batched residual test takes every start that already solves its
    target, at no further evaluation; only the targets it leaves at or above
    ``NEWTON_TOL`` are iterated, one at a time (``_newton_target``).
    """
    err = np.max(np.abs(image - stack), axis=1)
    for i in np.flatnonzero(~(err < NEWTON_TOL)):
        x[i], err[i] = _newton_target(fam, stack[i], x[i])
    return x, err, err < NEWTON_TOL


def _newton_target(fam: GroupFamily, target: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Damped Newton with numeric Jacobian for one target from x; returns
    the point reached and its max-norm residual.  A singular Jacobian, or a
    step that 30 halvings cannot make lower the residual, stops it.  Each
    evaluation is the 7-point stencil of one point, so an accepted trial
    point already carries the next step's Jacobian."""
    image, jac = _orbit_jacobians(fam, x[None])
    for _ in range(NEWTON_ITERS):
        resid = image[0] - target
        err = float(np.max(np.abs(resid)))
        if err < NEWTON_TOL:
            return x, err
        try:
            delta = np.linalg.solve(jac[0], -resid)
        except np.linalg.LinAlgError:
            return x, err
        scale = 1.0
        for _damp in range(30):
            trial = x + scale * delta
            trial_image, trial_jac = _orbit_jacobians(fam, trial[None])
            if float(np.max(np.abs(trial_image[0] - target))) < err:
                x, image, jac = trial, trial_image, trial_jac
                break
            scale *= 0.5
        else:
            return x, err
    return x, float(np.max(np.abs(image[0] - target)))


# the ticks of the 9^3 parameter grid, -2 to 2 in steps of 1/2
GRID_TICKS = np.arange(-2.0, 2.25, 0.5)

# The grid points and their six neighbours as three broadcastable axes.
# Each stencil row shifts one coordinate only, so coordinate k of the 5103
# stencil points takes the 9 ticks plus the 7 rows' shifts of that
# coordinate: a (7, 9, 1, 1), b (7, 1, 9, 1) and c (7, 1, 1, 9).  A family
# evaluated on these runs a special function of one coordinate on 63
# arguments, not 5103.  Every stacked entry comes from the same elementwise
# operations on the same coordinates as at its flat point, and the
# broadcast in row-major order is the row-major (a, b, c) order of the
# grid, so images, Jacobians, the minimum point and the injectivity witness
# equal those of the flat meshgrid bit for bit.
_GRID_AXES = tuple(
    GRID_TICKS.reshape(shape) + (DIFF_STEP * _STENCIL)[:, k].reshape(-1, 1, 1, 1)
    for k, shape in enumerate([(1, -1, 1, 1), (1, 1, -1, 1), (1, 1, 1, -1)])
)


def _grid_orbit_jacobians(fam: GroupFamily) -> tuple[np.ndarray, np.ndarray]:
    """Orbit images (729, 3) and Jacobians (729, 3, 3) at the grid points,
    row-major, equal to ``_orbit_jacobians`` at the flat points."""
    return _central_differences(fam.elements(*_GRID_AXES).translation.reshape(len(_STENCIL), -1, 3))


# the 729 grid points, row-major in (a, b, c)
_GRID_POINTS = np.stack(np.meshgrid(GRID_TICKS, GRID_TICKS, GRID_TICKS, indexing="ij"), axis=-1).reshape(-1, 3)


def _recover_orbit(fam: GroupFamily, targets: np.ndarray) -> np.ndarray:
    """The closed-form inverse (N, 3) at each target (N, 3) of the orbit
    map.  The orbit image of p is the translation of g(p), so the targets go
    in as translations; the linear part is NaN, so a ``recover`` that reads
    it gives NaN."""
    lin = np.full((3, 3) + targets.shape[:1], np.nan)
    with np.errstate(all="ignore"):
        return np.stack(fam.spec.recover(NUMPY, lin, targets.T, **fam.params), axis=-1)


def _recover_starts(fam: GroupFamily, targets: np.ndarray) -> np.ndarray:
    """``_recover_orbit`` at each target, or the origin where it is not
    finite."""
    rec = _recover_orbit(fam, targets)
    return np.where(np.isfinite(rec).all(axis=1)[:, None], rec, 0.0)


def check_simply_transitive(fam: GroupFamily, n_targets: int = _N_TARGETS, rng=None) -> TransitivityReport:
    """Jacobian nonsingularity on a grid, grid injectivity, and inversion of
    sampled targets in [-3, 3]^3, all targets in one batch.

    The grid is injective when ``recover`` is a left inverse of the orbit
    map on it: |recover(orbit(p)) - p| < ``NEWTON_TOL`` at every grid point.
    Two equal images would go to one point, and one of the two grid points,
    1/2 apart, would miss it by at least 1/4.  The witness is the first grid
    point that misses, with what ``recover`` gave there.

    Each target's Newton starts at ``recover`` (the origin where that is
    not finite) and remains the verifier: a target passes only if its orbit
    residual is below ``NEWTON_TOL``.  On the eleven families every start is
    already a solution, at roundoff.  The report keeps the Newton field
    names that the JSON output and the benchmark read.
    """
    import random as _random

    targets = _sample_targets(rng or _random.Random(0), n_targets)
    starts = _recover_starts(fam, targets)
    return _transitivity_report(fam, targets, starts, orbit_map(fam, starts + DIFF_STEP * _STENCIL[0]))


def _sample_targets(rng, n_targets: int) -> np.ndarray:
    """``n_targets`` orbit targets (N, 3) drawn uniformly from [-3, 3]^3."""
    return np.array([[rng.uniform(-3, 3) for _ in range(3)] for _ in range(n_targets)]).reshape(-1, 3)


def _transitivity_report(
    fam: GroupFamily, targets: np.ndarray, starts: np.ndarray, start_images: np.ndarray
) -> TransitivityReport:
    """The transitivity verdict: the grid checks, and Newton for ``targets``
    from ``starts``, whose orbit images ``start_images`` are given."""
    images, jacobians = _grid_orbit_jacobians(fam)
    dets = np.abs(np.linalg.det(jacobians))
    first = int(np.argmin(dets))  # the first minimum, as a strict `<` scan keeps it
    back = _recover_orbit(fam, images)
    misses = np.flatnonzero(~(np.max(np.abs(back - _GRID_POINTS), axis=1) < NEWTON_TOL))  # also NaN
    witness = None
    if misses.size:
        witness = (tuple(_GRID_POINTS[misses[0]].tolist()), tuple(back[misses[0]].tolist()))
    _, errs, oks = _newton(fam, targets, starts, start_images)
    return TransitivityReport(
        fam.name,
        float(dets[first]),
        tuple(_GRID_POINTS[first].tolist()),
        witness is None,
        witness,
        int(np.count_nonzero(~oks)),
        float(np.max(errs, initial=0.0)),
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
_CURVE_POINTS = DIFF_STEP * _STENCIL[1:]


def check_tangent_algebra(fam: GroupFamily, algebra: Algebra) -> TangentReport:
    """Differentiate the coordinate curves at the identity (the i-th is the
    generator of e_i) and compare with the affine representation
    X -> (L_X, X) and the algebra's bracket constants.  The generators are
    read off the tensor: entry (k, j) of L_ei is float(c[i][j][k]), the
    float that ``AffRep.homogeneous_float`` gives, and the translation part
    is e_i.  Like ``affine_rep``, the check refuses an algebra that is not
    3D or not left-symmetric."""
    curve = fam.elements(*_CURVE_POINTS.T)
    return _tangent_report(fam, algebra, curve.linear, curve.translation)


def _tangent_report(fam: GroupFamily, algebra: Algebra, linear: np.ndarray, translation: np.ndarray) -> TangentReport:
    """The tangent verdict on the maps (6,) at ``_CURVE_POINTS``."""
    _require_3d_lsa(algebra)
    xs = np.zeros((3, 4, 4))
    xs[:, :3, :3] = (linear[:3] - linear[3:]) / (2 * DIFF_STEP)
    xs[:, :3, 3] = (translation[:3] - translation[3:]) / (2 * DIFF_STEP)
    c = algebra.c
    rep = np.zeros((3, 4, 4))
    rep[:, :3, :3] = np.array(c, dtype=float).transpose(0, 2, 1)  # rep[i][k][j] = c[i][j][k]
    rep[:, :3, 3] = _EYE
    gen_err = float(np.max(np.abs(xs - rep)))
    # left symmetry is checked, and the commutator algebra of a
    # left-symmetric algebra is a Lie algebra: its constants are read off
    # the tensor, c_ij^k = c[i][j][k] - c[j][i][k], with no Jacobi scan.
    # Only the pairs i < j are solved.  The pair (j, i) has the commutator
    # -comm exactly, lstsq is odd in its right-hand side bit for bit, and
    # negation is exact in every later step, so (j, i) repeats the residual
    # and constant error of (i, j); the pair (i, i) has comm = 0, hence
    # coefficients and errors 0.  Neither can raise a maximum, and ``worst``
    # moves only on a strict rise, so the report equals the 9-pair loop's.
    basis = np.stack([x.reshape(-1) for x in xs], axis=1)  # 16 x 3
    max_resid = 0.0
    max_const_err = 0.0
    worst = None
    for i in range(3):
        for j in range(i + 1, 3):
            comm = xs[i] @ xs[j] - xs[j] @ xs[i]
            coeffs, residuals, *_ = np.linalg.lstsq(basis, comm.reshape(-1), rcond=None)
            resid = float(np.max(np.abs(basis @ coeffs - comm.reshape(-1))))
            const_err = max(abs(coeffs[k] - float(c[i][j][k] - c[j][i][k])) for k in range(3))
            if max(resid, const_err) > max(max_resid, max_const_err):
                worst = (i + 1, j + 1)
            max_resid = max(max_resid, resid)
            max_const_err = max(max_const_err, const_err)
    return TangentReport(fam.name, gen_err, max_resid, max_const_err, worst)


def sample_parameter_pairs(rng, count: int):
    """``count`` pairs of points drawn uniformly from [-2, 2]^3."""
    return [
        tuple(tuple(rng.uniform(-2.0, 2.0) for _ in range(3)) for _ in range(2))
        for _ in range(count)
    ]


def verify_family(fam: GroupFamily, algebra: Algebra, rng, closure_samples: int = 50) -> dict:
    """The closure, transitivity and tangent checks of one family, and
    their verdict ``ok``.  Closure and grid injectivity are both decided by
    the closed-form ``recover``, so a ``recover`` that does not invert
    ``maps`` fails the family; the transitivity Newton alone would repair
    it.

    The rng draws the closure pairs, then the 20 transitivity targets, as
    ``check_closure`` and ``check_simply_transitive`` would in turn.  One
    batch then evaluates the pairs' first points, their second points, the
    tangent curve points, the Newton starts and the origin, and each check
    reads its rows: the report is that of the three public checks.  Newton
    evaluates more only for a target that its start misses, and then only
    the stencils of that target's own iterates; on the eleven families no
    start misses."""
    pairs = sample_parameter_pairs(rng, closure_samples)
    targets = _sample_targets(rng, _N_TARGETS)
    starts = _recover_starts(fam, targets)
    pair_points = np.asarray(pairs, dtype=float).reshape(-1, 2, 3).transpose(1, 0, 2)  # (2, N, 3)
    points = np.concatenate([*pair_points, _CURVE_POINTS, starts + DIFF_STEP * _STENCIL[0], np.zeros((1, 3))])
    maps = fam.elements(*points.T)
    rows = np.cumsum([len(pairs), len(pairs), len(_CURVE_POINTS), len(starts)])
    # each is (linear parts, translations) of its rows
    first, second, curve, start, origin = zip(np.split(maps.linear, rows), np.split(maps.translation, rows))
    closure = _closure_report(fam, pairs, AffineMap3(*first).compose(AffineMap3(*second)))
    transitivity = _transitivity_report(fam, targets, starts, start[1])
    tangent = _tangent_report(fam, algebra, *curve)
    identity_exact = bool(np.array_equal(origin[0][0], _EYE) and not origin[1].any())
    return {
        "family": fam.name,
        "catalog_entry": fam.catalog_name,
        "params": dict(sorted(fam.params.items())),
        "samples": closure_samples,
        "identity_at_zero": identity_exact,
        "max_closure_residual": closure.max_residual,
        "closure_newton_fallbacks": closure.newton_fallbacks,
        "closure_failures": len(closure.failures),
        "jacobian_min_abs_det": transitivity.min_abs_jacobian,
        "jacobian_min_point": list(transitivity.min_jacobian_point or ()),
        "injectivity_ok": transitivity.injectivity_ok,
        "newton_failures": transitivity.newton_failures,
        "max_newton_residual": transitivity.max_newton_residual,
        "tangent_generator_error": tangent.max_generator_error,
        "tangent_bracket_residual": max(tangent.max_bracket_residual, tangent.max_constant_error),
        "ok": closure.ok and transitivity.ok and tangent.ok and identity_exact,
    }
