"""Completeness by nilpotency, as a test oracle for ``is_complete``.

``lattice_complete(a)`` is True iff every right multiplication R_x of ``a``
is nilpotent, for all real x, on any algebra, left-symmetric or not.

R_x is nilpotent iff the coefficients c_1..c_n of char_poly(R_x) vanish,
and R_x is linear in x, so c_k is a homogeneous polynomial of degree k in
the coordinates of x.  The check runs over the simplex lattice
{x in N^n : x_1 + ... + x_n = n}, C(2n-1, n) points (1, 3, 10, 35 for
n = 1..4), and is exact:

- on the hyperplane sum(x) = n, c_k is a polynomial of degree <= n in
  n - 1 affine coordinates, and the principal simplex lattice of order n
  is unisolvent for such polynomials, so c_k vanishes on the whole
  hyperplane;
- c_k(x) = (sum(x) / n)^k c_k(n x / sum(x)) by homogeneity, so c_k
  vanishes wherever sum(x) != 0, a dense set, hence identically.

``tests/test_algebra.py`` certifies it against the full grid {0..n}^n.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from lsa.algebra import Algebra, right_mult
from lsa.linalg import is_nilpotent


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Every tuple of ``parts`` natural numbers summing to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total, -1, -1):
        for rest in compositions(total - first, parts - 1):
            yield (first, *rest)


def lattice_complete(a: Algebra) -> bool:
    """True iff R_x is nilpotent at every point of the simplex lattice of
    order n, hence for every x."""
    n = a.dim
    return all(
        is_nilpotent(right_mult(a, tuple(Fraction(x) for x in point))) for point in compositions(n, n)
    )
