"""Reference values for the affine layer's tests: the special functions f
and g by name, their values at zero, their two branches, the closed forms in
extended precision, the defining series of phi (which the transcribed
charts read), a matrix exponential, and the one-at-a-time forms of the
checks: the orbit inverse and the transitivity check target by target, the
closure check pair by pair, and the tangent check over all 9 bracket pairs;
and ``verify_family``'s report composed from separate checks, each
evaluating its own points.
"""
import math
import random
from typing import Callable

import numpy as np

from lsa.affine import (
    CLOSURE_TOL,
    DIFF_STEP,
    NEWTON_TOL,
    NUMPY,
    AffineMap3,
    ClosureReport,
    TangentReport,
    TransitivityReport,
    _inverse_translations,
    affine_rep,
    closed_f,
    closed_g,
    map_distance,
    sample_parameter_pairs,
    series_f,
    series_g,
    special_f,
    special_g,
)

SPECIAL_BRANCHES: dict[str, tuple[Callable, Callable]] = {
    "f": (series_f, closed_f),
    "g": (series_g, closed_g),
}

SPECIAL_FUNCTIONS: dict[str, Callable] = {
    "f": special_f,
    "g": special_g,
}

SPECIAL_ZERO_VALUES = {"f": 1.0, "g": 0.5}


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


def newton_invert_orbit_reference(fam, target):
    """One target: ``recover`` at the target read as a translation with a
    NaN linear part, the max-norm residual of that point's orbit image,
    and whether it is below ``NEWTON_TOL``."""
    with np.errstate(all="ignore"):
        x = np.array(fam.spec.recover(NUMPY, np.full((3, 3), np.nan), np.asarray(target, float), **fam.params))
    err = float(np.max(np.abs(fam.evaluate(*x)[1] - np.asarray(target, float))))
    return tuple(x), err, err < NEWTON_TOL


def check_simply_transitive_reference(fam, n_targets=20, rng=None) -> TransitivityReport:
    """One target at a time, in sampling order: the map there, det L and
    the inverse translation from the adjugate of that map alone, the map at
    the inverse translation, and the product's residual against the
    identity; the first strict minimum of |det L| and the first target that
    is not its own orbit image."""
    rng = rng or random.Random(0)
    min_det, min_point, witness = math.inf, None, None
    failures, max_resid = 0, 0.0
    for _ in range(n_targets):
        target = np.array([rng.uniform(-3, 3) for _ in range(3)])
        m = fam.element(*target)
        det, inverse = _inverse_translations(m.linear, m.translation)
        if abs(float(det)) < min_det:
            min_det, min_point = abs(float(det)), tuple(target.tolist())
        if witness is None and not np.array_equal(m.translation, target):
            witness = (tuple(target.tolist()), tuple(m.translation.tolist()))
        back_linear, back_translation = fam.evaluate(*inverse)
        with np.errstate(all="ignore"):
            linear = m.linear @ back_linear
            translation = (m.linear @ back_translation[..., None])[..., 0] + m.translation
        resid = float(max(np.max(np.abs(linear - np.eye(3))), np.max(np.abs(translation))))
        if math.isnan(resid):
            resid = math.inf
        max_resid = max(max_resid, resid)
        if not resid < NEWTON_TOL:
            failures += 1
    return TransitivityReport(fam.name, min_det, min_point, witness is None, witness, failures, max_resid)


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
    curve = fam.elements(*(DIFF_STEP * np.vstack([np.eye(3), -np.eye(3)])).T).as_homogeneous()
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


def family_report(fam, algebra, rng, closure_samples, checks) -> dict:
    """``verify_family``'s report from separate checks, in its rng order:
    ``checks`` is a closure, a transitivity and a tangent check with the
    signatures of the public ones, run one after the other, and the identity
    is the family's own element at the origin."""
    closure_check, transitivity_check, tangent_check = checks
    pairs = sample_parameter_pairs(rng, closure_samples)
    closure = closure_check(fam, pairs)
    transitivity = transitivity_check(fam, rng=rng)
    tangent = tangent_check(fam, algebra)
    identity_exact = bool(map_distance(fam.element(0.0, 0.0, 0.0), AffineMap3.identity()) == 0.0)
    return {
        "family": fam.name,
        "catalog_entry": fam.catalog_name,
        "params": dict(sorted(fam.params.items())),
        "samples": closure_samples,
        "identity_at_zero": identity_exact,
        "max_closure_residual": closure.max_residual,
        "closure_failures": len(closure.failures),
        "jacobian_min_abs_det": transitivity.min_abs_det,
        "jacobian_min_point": list(transitivity.min_det_point),
        "injectivity_ok": transitivity.orbit_is_identity,
        "newton_failures": transitivity.inverse_failures,
        "max_newton_residual": transitivity.max_inverse_residual,
        "tangent_generator_error": tangent.max_generator_error,
        "tangent_bracket_residual": max(tangent.max_bracket_residual, tangent.max_constant_error),
        "ok": closure.ok and transitivity.ok and tangent.ok and identity_exact,
    }


def verify_family_reference(fam, algebra, rng, closure_samples: int = 50) -> dict:
    """``verify_family`` from the one-at-a-time oracles."""
    return family_report(
        fam, algebra, rng, closure_samples, (check_closure_reference, check_simply_transitive_reference, tangent_reference)
    )
