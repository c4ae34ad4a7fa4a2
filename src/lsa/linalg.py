"""Exact linear algebra over the rationals.

Scalars are ``fractions.Fraction`` (arbitrary-precision, always reduced,
positive denominator).  Matrices are small and dense; everything here is
exact, with no tolerances anywhere.  The kernels (``rref``, ``char_poly``,
``is_nilpotent``) clear denominators once with ``_cleared`` and run on
Python ints, so no scalar operation pays a gcd; they return Fractions.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]

FractionLike = Fraction | int | str


def frac(value: FractionLike) -> Fraction:
    """Coerce ints, strings like ``"3/2"``, and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def vec(values: Iterable[FractionLike]) -> Vec:
    return tuple(frac(v) for v in values)


def zero_vec(n: int) -> Vec:
    return (Fraction(0),) * n


def unit_vec(n: int, i: int) -> Vec:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_scale(c: Fraction, v: Vec) -> Vec:
    return tuple(c * a for a in v)


def vec_is_zero(v: Vec) -> bool:
    return all(a == 0 for a in v)


def _cleared(rows: Iterable[Sequence[Fraction | int]]) -> tuple[int, list[list[int]]]:
    """(d, d * rows) with d > 0 the least common denominator, so that the
    scaled rows are ints."""
    rows = list(rows)
    d = math.lcm(*(x.denominator for row in rows for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in rows]


def _int_matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


class QMatrix:
    """Immutable dense matrix of Fractions."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[FractionLike]]):
        data = tuple(tuple(frac(v) for v in row) for row in rows)
        if data and any(len(r) != len(data[0]) for r in data):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", data)

    @classmethod
    def _trusted(cls, rows: tuple[Vec, ...]) -> "QMatrix":
        """A matrix from a tuple of equal-length tuples of Fractions, unchecked."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("QMatrix is immutable")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "QMatrix":
        return cls([[0] * ncols for _ in range(nrows)])

    @classmethod
    def diag(cls, values: Iterable[FractionLike]) -> "QMatrix":
        vals = [frac(v) for v in values]
        n = len(vals)
        return cls([[vals[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_cols(cls, cols: Sequence[Vec]) -> "QMatrix":
        if not cols:
            return cls([])
        n = len(cols[0])
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(n)])

    @classmethod
    def from_rows(cls, rows: Sequence[Vec]) -> "QMatrix":
        return cls(rows)

    def col(self, j: int) -> Vec:
        return tuple(row[j] for row in self.rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, QMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return "QMatrix(%s)" % (list(list(map(str, r)) for r in self.rows),)

    def __add__(self, other: "QMatrix") -> "QMatrix":
        self._same_shape(other)
        return QMatrix._trusted(
            tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows))
        )

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        self._same_shape(other)
        return QMatrix._trusted(
            tuple(tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows))
        )

    def __neg__(self) -> "QMatrix":
        return QMatrix._trusted(tuple(tuple(-a for a in row) for row in self.rows))

    def scale(self, c: FractionLike) -> "QMatrix":
        cc = frac(c)
        return QMatrix._trusted(tuple(tuple(cc * a for a in row) for row in self.rows))

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        cols = tuple(zip(*other.rows))
        return QMatrix._trusted(
            tuple(
                tuple(sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in cols)
                for row in self.rows
            )
        )

    def apply(self, v: Vec) -> Vec:
        if len(v) != self.ncols:
            raise ValueError("shape mismatch in matrix-vector product")
        return tuple(
            sum((row[k] * v[k] for k in range(self.ncols)), Fraction(0))
            for row in self.rows
        )

    def transpose(self) -> "QMatrix":
        return QMatrix._trusted(tuple(zip(*self.rows)))

    def trace(self) -> Fraction:
        if self.nrows != self.ncols:
            raise ValueError("trace of non-square matrix")
        return sum((self.rows[i][i] for i in range(self.nrows)), Fraction(0))

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.rows for a in row)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def _same_shape(self, other: "QMatrix") -> None:
        if self.shape != other.shape:
            raise ValueError("shape mismatch")


def vstack(mats: Sequence[QMatrix]) -> QMatrix:
    rows: list = []
    for m in mats:
        rows.extend(m.rows)
    return QMatrix(rows)


def commutator(a: QMatrix, b: QMatrix) -> QMatrix:
    return a @ b - b @ a


def rref(m: QMatrix) -> tuple[QMatrix, tuple[int, ...]]:
    """Reduced row echelon form and the strictly increasing pivot columns.

    Fraction-free Gauss-Jordan: each row is cleared to ints on its own (row
    scaling keeps the echelon form), a row being reduced by the pivot row p
    becomes p[c] * row - row[c] * p and is divided by the gcd of its
    entries, and each pivot row is divided by its pivot once at the end.
    The reduced row echelon form is unique, so it equals the one of
    rational elimination.
    """
    rows = [_cleared([row])[1][0] for row in m.rows]
    nrows, ncols = m.nrows, m.ncols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        pv = prow[c]
        for i in range(nrows):
            factor = rows[i][c]
            if i != r and factor != 0:
                new = [pv * a - factor * b for a, b in zip(rows[i], prow)]
                g = math.gcd(*new)
                rows[i] = [a // g for a in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    out = [tuple(Fraction(a, row[c]) for a in row) for row, c in zip(rows, pivots)]
    out += [(Fraction(0),) * ncols] * (nrows - r)
    return QMatrix._trusted(tuple(out)), tuple(pivots)


def rank(m: QMatrix) -> int:
    return len(rref(m)[1])


def nullspace_basis(m: QMatrix) -> list[Vec]:
    """Basis of {v : m v = 0}; one vector per free column of the RREF."""
    red, pivots = rref(m)
    ncols = m.ncols
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis: list[Vec] = []
    for fc in free_cols:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red.rows[r][fc]
        basis.append(tuple(v))
    return basis


def solve(m: QMatrix, bs: Sequence[Vec]) -> list[Vec] | None:
    """One particular solution of m x = b for each b in ``bs`` (free
    variables set to 0), all read off one rref of [m | b_1 ... b_r]; None if
    any b is inconsistent, i.e. if that rref has a pivot past m."""
    if any(len(b) != m.nrows for b in bs):
        raise ValueError("shape mismatch in solve")
    n = m.ncols
    red, pivots = rref(QMatrix([[*row, *(b[i] for b in bs)] for i, row in enumerate(m.rows)]))
    if pivots and pivots[-1] >= n:
        return None
    xs = [[Fraction(0)] * n for _ in bs]
    for r, pc in enumerate(pivots):
        for x, value in zip(xs, red.rows[r][n:]):
            x[pc] = value
    return [tuple(x) for x in xs]


def inverse(m: QMatrix) -> QMatrix:
    if not m.is_square():
        raise ValueError("inverse of non-square matrix")
    cols = solve(m, [unit_vec(m.nrows, i) for i in range(m.nrows)])
    if cols is None:
        raise ValueError("matrix is singular")
    return QMatrix.from_cols(cols)


def quotient_basis(ambient: Sequence[Vec], sub: Sequence[Vec]) -> list[Vec]:
    """Vectors from ``ambient`` extending ``sub`` to a basis of span(ambient).

    The greedy choice: each ambient vector outside the span of ``sub`` and
    the vectors before it, i.e. the pivot columns of [sub | ambient] past
    ``sub``.  Raises ValueError if span(sub) is not contained in
    span(ambient), i.e. if [ambient | sub] has a pivot past ``ambient``.
    """
    if any(c >= len(ambient) for c in rref(QMatrix.from_cols([*ambient, *sub]))[1]):
        raise ValueError("sub is not contained in the ambient span")
    pivots = rref(QMatrix.from_cols([*sub, *ambient]))[1]
    return [ambient[c - len(sub)] for c in pivots if c >= len(sub)]


def char_poly(m: QMatrix) -> list[Fraction]:
    """Monic characteristic polynomial coefficients, highest degree first.

    Faddeev-LeVerrier on the integer matrix B = d m: M1 = B, c1 = -tr M1,
    M(k) = B (M(k-1) + c(k-1) I), ck = -tr(Mk)/k.  For an integer matrix
    every ck is an integer, so the division is exact; c_k(d m) = d^k c_k(m)
    rescales the coefficients.
    """
    if not m.is_square():
        raise ValueError("characteristic polynomial of non-square matrix")
    n = m.nrows
    d, b = _cleared(m.rows)
    coeffs = [1]
    mk = b
    for k in range(1, n + 1):
        if k > 1:
            mk = _int_matmul(b, [[x + coeffs[-1] * (i == j) for j, x in enumerate(row)] for i, row in enumerate(mk)])
        coeffs.append(-sum(mk[i][i] for i in range(n)) // k)
    return [Fraction(c, d**k) for k, c in enumerate(coeffs)]


def det(m: QMatrix) -> Fraction:
    n = m.nrows
    if n == 0:
        return Fraction(1)
    cp = char_poly(m)
    return cp[-1] * (-1) ** n


def is_nilpotent(m: QMatrix) -> bool:
    """True iff m^n = 0, decided on the integer matrix d m."""
    if not m.is_square():
        raise ValueError("nilpotency of non-square matrix")
    return _nilpotent_ints(_cleared(m.rows)[1])


def _nilpotent_ints(b: list[list[int]]) -> bool:
    """True iff the n x n integer matrix b has b^n = 0, i.e. b^(2^j) = 0 for
    the least 2^j >= n: repeated squaring that stops at the first zero power."""
    power = 1
    while any(any(row) for row in b):
        if power >= len(b):
            return False
        power, b = 2 * power, _int_matmul(b, b)
    return True


def _horner(coeffs: Sequence[int], y: int) -> int:
    acc = 0
    for c in coeffs:
        acc = acc * y + c
    return acc


def _integer_root(q: Sequence[int], lo: int, hi: int, increasing: bool) -> int | None:
    """The integer root of q in [lo, hi], on which q is strictly monotone,
    by bisection for the first point where q stops being below zero."""
    sign = 1 if increasing else -1
    while lo < hi:
        mid = (lo + hi) // 2
        if sign * _horner(q, mid) < 0:
            lo = mid + 1
        else:
            hi = mid
    return lo if _horner(q, lo) == 0 else None


def rational_roots(coeffs: Sequence[FractionLike]) -> list[Fraction]:
    """Distinct rational roots of a polynomial of degree <= 3 (coefficients
    highest first), sorted.

    With integer coefficients a_d..a_0, the monic q(y) = a_d^(d-1) p(y/a_d)
    = y^d + b_1 y^(d-1) + ... + b_d has integer coefficients, so its rational
    roots are integers, all within the Cauchy bound 1 + max |b_k|.  Between
    consecutive simple critical points (the real roots of q', located
    exactly by ``math.isqrt``) q is strictly monotone, so each such piece
    holds at most one root and integer bisection finds it; a double root is
    a critical point and lies on a piece's end.  The cost grows with the
    coefficients' bit length, not their size.  Degree > 3 is refused with
    ``ValueError``.
    """
    cs = [frac(c) for c in coeffs]
    while cs and cs[0] == 0:
        cs = cs[1:]
    if len(cs) > 4:
        raise ValueError("rational_roots handles degree <= 3 only")
    roots: set[Fraction] = set()
    while len(cs) > 1 and cs[-1] == 0:
        roots.add(Fraction(0))
        cs = cs[:-1]
    if len(cs) <= 1:
        return sorted(roots)
    denom_lcm = math.lcm(*(c.denominator for c in cs))
    a = [int(c * denom_lcm) for c in cs]
    lead, d = a[0], len(a) - 1
    q = [1, *(a[k] * lead ** (k - 1) for k in range(1, d + 1))]
    bound = 1 + max(abs(b) for b in q[1:])
    # each critical point of q as (floor, ceil); q rises right of the last
    if d == 2:
        crit = [((-q[1]) // 2, -(q[1] // 2))]
    elif d == 3 and q[1] ** 2 > 3 * q[2]:
        # q' = 3y^2 + 2by + c vanishes at (-b -+ sqrt(b^2 - 3c)) / 3
        disc = q[1] ** 2 - 3 * q[2]
        s = math.isqrt(disc)
        t = s + (s * s != disc)  # ceil(sqrt(disc))
        crit = [((-q[1] - t) // 3, -((q[1] + s) // 3)), ((-q[1] + s) // 3, -((q[1] - t) // 3))]
    else:
        crit = []
    ends = [(-bound, -bound), *crit, (bound, bound)]
    for piece, ((_, lo), (hi, _)) in enumerate(zip(ends, ends[1:])):
        lo, hi = max(lo, -bound), min(hi, bound)
        y = _integer_root(q, lo, hi, (len(crit) - piece) % 2 == 0) if lo <= hi else None
        if y is not None:
            roots.add(Fraction(y, lead))
    return sorted(roots)


def sqrt_fraction(f: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if f < 0:
        return None
    ns = math.isqrt(f.numerator)
    ds = math.isqrt(f.denominator)
    if ns * ns == f.numerator and ds * ds == f.denominator:
        return Fraction(ns, ds)
    return None


def random_fraction(rng, max_num: int = 4, max_den: int = 3) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def random_matrix(rng, nrows: int, ncols: int, max_num: int = 3, max_den: int = 2) -> QMatrix:
    return QMatrix(
        [[random_fraction(rng, max_num, max_den) for _ in range(ncols)] for _ in range(nrows)]
    )


def random_invertible(rng, n: int, max_num: int = 3, max_den: int = 2) -> QMatrix:
    while True:
        m = random_matrix(rng, n, n, max_num, max_den)
        if det(m) != 0:
            return m


def _sign_changes(coeffs: Sequence[Fraction]) -> int:
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def symmetric_signature(s: QMatrix) -> tuple[int, int, int]:
    """Signature (positive, negative, zero) of a rational symmetric matrix.

    A real symmetric matrix has only real eigenvalues, and for a polynomial
    with only real roots Descartes' rule of signs is exact: the sign changes
    of the coefficients of p(x) = char_poly(s) count the positive roots and
    those of p(-x) the negative ones, with multiplicity.  The zero root's
    multiplicity is the number of trailing zero coefficients.
    """
    if not s.is_square():
        raise ValueError("signature of non-square matrix")
    if s != s.transpose():
        raise ValueError("matrix is not symmetric")
    p = char_poly(s)
    n = s.nrows
    p_neg = [c * (-1) ** (n - i) for i, c in enumerate(p)]
    zero = n - max(i for i, c in enumerate(p) if c != 0)
    return _sign_changes(p), _sign_changes(p_neg), zero
