"""Reference values for the affine layer's tests: the special functions by
name, their values at zero, their two branches, the closed forms in extended
precision, the defining series of phi, a matrix exponential, and the
one-at-a-time forms of the three checks: the transitivity check with
``recover`` taken point by point on the flat grid, the closure check with
the closed form taken pair by pair, and the tangent check over all 9
bracket pairs.
"""
import math
import random
from typing import Callable

import numpy as np

from lsa.affine import (
    _STENCIL,
    CLOSURE_TOL,
    DIFF_STEP,
    NEWTON_TOL,
    NUMPY,
    ClosureReport,
    TangentReport,
    TransitivityReport,
    _orbit_jacobians,
    affine_rep,
    closed_f,
    closed_g,
    closed_h,
    closed_k,
    closed_phi,
    series_f,
    series_g,
    series_h,
    series_k,
    series_phi,
    special_f,
    special_g,
    special_h,
    special_k,
    special_phi,
)

SPECIAL_BRANCHES: dict[str, tuple[Callable, Callable]] = {
    "f": (series_f, closed_f),
    "g": (series_g, closed_g),
    "h": (series_h, closed_h),
    "k": (series_k, closed_k),
    "phi": (series_phi, closed_phi),
}

SPECIAL_FUNCTIONS: dict[str, Callable] = {
    "f": special_f,
    "g": special_g,
    "h": special_h,
    "k": special_k,
    "phi": special_phi,
}

SPECIAL_ZERO_VALUES = {"f": 1.0, "g": 0.5, "h": 0.0, "k": 0.0, "phi": 0.0}


def closed_reference(name: str, x: float) -> float:
    """Closed form in extended precision (float128 where available).

    Near zero the double-precision closed forms lose digits to cancellation
    (the reason the implementation branches); the ``SPECIAL_BRANCHES`` closed
    form evaluated in extended precision is the honest comparison target for
    sweep checks.
    """
    return float(SPECIAL_BRANCHES[name][1](np.longdouble(x)))


def phi_partial_sum(x: float, terms: int = 50) -> float:
    """Direct truncation of the defining series."""
    total = 0.0
    for n in range(1, terms + 1):
        total += n * x**n / math.factorial(n + 1)
    return total


def expm4(m: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring matrix exponential with an order-13 Taylor core.

    The argument is scaled below 1/4 so the first dropped term is < 1e-16.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (4, 4):
        raise ValueError(f"expm4 needs a 4x4 matrix, got shape {m.shape}")
    norm = float(np.max(np.sum(np.abs(m), axis=1)))
    squarings = 0
    if norm > 0.25:
        squarings = max(0, int(math.ceil(math.log2(norm / 0.25))))
    scaled = m / (2.0**squarings)
    out = np.eye(4)
    term = np.eye(4)
    for k in range(1, 14):
        term = term @ scaled / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def newton_invert_orbit_reference(fam, target, start=(0.0, 0.0, 0.0), tol=1e-10, iters=80):
    """One target: damped Newton with numeric Jacobian, returning the point
    reached, its max-norm residual and whether that is below ``tol``."""
    x = np.array(start, dtype=float)
    target = np.asarray(target, dtype=float)
    image, jac = _orbit_jacobians(fam, x[None])
    for _ in range(iters):
        resid = image[0] - target
        err = float(np.max(np.abs(resid)))
        if err < tol:
            return tuple(x), err, True
        try:
            delta = np.linalg.solve(jac[0], -resid)
        except np.linalg.LinAlgError:
            return tuple(x), err, False
        scale = 1.0
        for _damp in range(30):
            trial = x + scale * delta
            trial_image, trial_jac = _orbit_jacobians(fam, trial[None])
            if float(np.max(np.abs(trial_image[0] - target))) < err:
                x, image, jac = trial, trial_image, trial_jac
                break
            scale *= 0.5
        else:
            return tuple(x), err, False
    err = float(np.max(np.abs(image[0] - target)))
    return tuple(x), err, err < tol


def recover_reference(fam, target) -> np.ndarray:
    """The family's closed-form inverse at one orbit target, read as a
    translation with a NaN linear part."""
    with np.errstate(all="ignore"):
        return np.array(fam.spec.recover(NUMPY, np.full((3, 3), np.nan), np.asarray(target, float), **fam.params))


def recover_start_reference(fam, target) -> np.ndarray:
    """``recover_reference``, or the origin where it is not finite."""
    start = recover_reference(fam, target)
    return start if np.isfinite(start).all() else np.zeros(3)


def check_simply_transitive_reference(
    fam, grid_lo=-2.0, grid_hi=2.0, grid_step=0.5, n_targets=20, rng=None
) -> TransitivityReport:
    """The grid checks, with ``recover`` taken at one grid image at a time,
    and one Newton solve per target, in sampling order, each from its own
    closed-form start."""
    rng = rng or random.Random(0)
    ticks = np.arange(grid_lo, grid_hi + grid_step / 2, grid_step)
    points = np.stack(np.meshgrid(ticks, ticks, ticks, indexing="ij"), axis=-1).reshape(-1, 3)
    images, jacobians = _orbit_jacobians(fam, points)
    dets = np.abs(np.linalg.det(jacobians))
    first = int(np.argmin(dets))
    witness = None
    for point, image in zip(points, images):
        back = recover_reference(fam, image)
        if not float(np.max(np.abs(back - point))) < NEWTON_TOL:
            witness = (tuple(point.tolist()), tuple(back.tolist()))
            break
    newton_failures = 0
    max_resid = 0.0
    for _ in range(n_targets):
        target = [rng.uniform(-3, 3) for _ in range(3)]
        _, err, ok = newton_invert_orbit_reference(fam, target, start=recover_start_reference(fam, target))
        max_resid = max(max_resid, err)
        if not ok:
            newton_failures += 1
    return TransitivityReport(
        fam.name,
        float(dets[first]),
        tuple(points[first].tolist()),
        witness is None,
        witness,
        newton_failures,
        max_resid,
    )


def check_closure_reference(fam, sample_pairs) -> ClosureReport:
    """One pair at a time: compose, recover in closed form, and measure the
    composite against the element there; ``inf`` where the closed form is
    not finite."""
    max_residual = 0.0
    failures = []
    for p1, p2 in sample_pairs:
        composite = fam.element(*p1).compose(fam.element(*p2))
        linear, translation = fam.evaluate(*fam.recover(composite))
        resid = float(
            np.maximum(np.max(np.abs(linear - composite.linear)), np.max(np.abs(translation - composite.translation)))
        )
        if math.isnan(resid):
            resid = math.inf
        max_residual = max(max_residual, resid)
        if not (resid < CLOSURE_TOL):
            failures.append((p1, p2, resid))
    return ClosureReport(fam.name, len(sample_pairs), max_residual, len(failures), failures)


def tangent_reference(fam, algebra) -> TangentReport:
    """The tangent check with one bracket solve for each of the 9 ordered
    pairs (i, j), diagonal included."""
    curve = fam.elements(*(DIFF_STEP * _STENCIL[1:]).T).as_homogeneous()
    xs = list((curve[:3] - curve[3:]) / (2 * DIFF_STEP))
    rep = affine_rep(algebra).homogeneous_float()
    gen_err = max(float(np.max(np.abs(xs[i] - rep[i]))) for i in range(3))
    c = algebra.c
    basis = np.stack([x.reshape(-1) for x in xs], axis=1)
    max_resid = 0.0
    max_const_err = 0.0
    worst = None
    for i in range(3):
        for j in range(3):
            comm = xs[i] @ xs[j] - xs[j] @ xs[i]
            coeffs, *_ = np.linalg.lstsq(basis, comm.reshape(-1), rcond=None)
            resid = float(np.max(np.abs(basis @ coeffs - comm.reshape(-1))))
            const_err = max(abs(coeffs[k] - float(c[i][j][k] - c[j][i][k])) for k in range(3))
            if max(resid, const_err) > max(max_resid, max_const_err):
                worst = (i + 1, j + 1)
            max_resid = max(max_resid, resid)
            max_const_err = max(max_const_err, const_err)
    return TangentReport(fam.name, gen_err, max_resid, max_const_err, worst)
