"""Reference values for the affine layer's tests: the special functions by
name, their values at zero, their two branches, the closed forms in extended
precision, the defining series of phi, and a matrix exponential.
"""
import math
from typing import Callable

import numpy as np

from lsa.affine import (
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
