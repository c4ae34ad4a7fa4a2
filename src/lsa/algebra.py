"""Finite-dimensional algebras as rational structure constants.

An ``Algebra`` stores a tensor c with e_i * e_j = sum_k c[i][j][k] e_k
(0-based internally; all user-facing indices are 1-based).  The same type
carries left-symmetric products and Lie brackets (antisymmetric constants).
Each algebra clears its tensor to integers once, into its ``table``, which
the predicates below read and which keeps what they decide.
"""
from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from .linalg import (
    FractionLike,
    QMatrix,
    Vec,
    _cleared,
    _echelon_rows,
    _int_char_poly,
    _int_matmul,
    _int_nullspace,
    _int_rank,
    _int_roots,
    _int_rref,
    _primitive,
    frac,
    quotient_basis,
    solve,
    sqrt_fraction,
    unit_vec,
    vec_sub,
)


class NotInScopeError(Exception):
    """The input falls outside the identified structure families."""


Tensor = tuple[tuple[Vec, ...], ...]


@dataclass(frozen=True)
class Algebra:
    dim: int
    c: Tensor
    name: str = ""
    params: tuple[tuple[str, Fraction], ...] = ()

    def __post_init__(self):
        n = self.dim
        if len(self.c) != n or any(
            len(plane) != n or any(len(v) != n for v in plane) for plane in self.c
        ):
            raise ValueError("structure tensor must have shape dim x dim x dim")

    @classmethod
    def from_entries(
        cls,
        dim: int,
        entries: Mapping[tuple[int, int, int], FractionLike],
        name: str = "",
        params: Mapping[str, FractionLike] | None = None,
    ) -> "Algebra":
        """Build from sparse 1-based entries {(i, j, k): coefficient}."""
        c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j, k), value in entries.items():
            if not (1 <= i <= dim and 1 <= j <= dim and 1 <= k <= dim):
                raise ValueError(f"index out of range: {(i, j, k)}")
            c[i - 1][j - 1][k - 1] = frac(value)
        tensor = tuple(tuple(tuple(v) for v in plane) for plane in c)
        p = tuple(sorted((k, frac(v)) for k, v in (params or {}).items()))
        return cls(dim, tensor, name, p)

    @classmethod
    def from_brackets(
        cls,
        dim: int,
        brackets: Mapping[tuple[int, int], Mapping[int, FractionLike]],
        name: str = "",
        params: Mapping[str, FractionLike] | None = None,
    ) -> "Algebra":
        """Lie algebra from 1-based brackets {(i, j): {k: coeff}} with i < j."""
        entries: dict[tuple[int, int, int], Fraction] = {}
        for (i, j), val in brackets.items():
            if i >= j:
                raise ValueError("brackets must be given with i < j")
            for k, coeff in val.items():
                entries[(i, j, k)] = frac(coeff)
                entries[(j, i, k)] = -frac(coeff)
        return cls.from_entries(dim, entries, name, params)

    @functools.cached_property
    def table(self) -> TripleTable:
        """The algebra's one ``TripleTable``, built on first use and kept
        for the life of the algebra (outside the fields: equality and the
        hash are unchanged).  An algebra that lives for the process, such
        as a ``catalog`` fixture, keeps its table for the process too."""
        return TripleTable(self)

    def entry(self, i: int, j: int, k: int) -> Fraction:
        """1-based structure constant."""
        return self.c[i - 1][j - 1][k - 1]

    def nonzero_products(self) -> list[tuple[int, int, int, Fraction]]:
        """Sparse 1-based listing, sorted."""
        return [
            (i + 1, j + 1, k + 1, v)
            for i, plane in enumerate(self.c)
            for j, row in enumerate(plane)
            for k, v in enumerate(row)
            if v != 0
        ]


@dataclass(frozen=True)
class Subspace:
    ambient_dim: int
    basis: tuple[Vec, ...]

    @classmethod
    def from_spanning(cls, ambient_dim: int, vectors: Sequence[Vec]) -> "Subspace":
        """Canonical subspace: reduced-echelon basis of the span, from
        ``_int_span`` of the vectors, each cleared to ints on its own
        (scaling a vector keeps the span)."""
        return _int_span(ambient_dim, [_cleared([v])[1][0] for v in vectors])

    @property
    def dim(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class LieTag:
    """One of the five solvable non-unimodular 3D families, or out of scope."""

    kind: str  # "G31" | "G32" | "G33" | "G34" | "G35" | "not_in_scope"
    mu: Fraction | float | None = None
    zeta: Fraction | float | None = None
    exact: bool = True
    reason: str = ""

    def __post_init__(self):
        if self.kind == "G34":
            if self.mu is None or not (0 < abs(self.mu) < 1):
                raise ValueError("G34 requires 0 < |mu| < 1")
        if self.kind == "G35":
            if self.zeta is None or not self.zeta > 0:
                raise ValueError("G35 requires zeta > 0")

    def __str__(self) -> str:
        if self.kind == "G34":
            return f"G34(mu={self.mu})"
        if self.kind == "G35":
            return f"G35(zeta={self.zeta})"
        if self.kind == "not_in_scope":
            return f"not_in_scope({self.reason})"
        return self.kind


@dataclass(frozen=True)
class MilnorForm:
    """Adapted form of a solvable non-unimodular 3D Lie algebra.

    ``d`` is the 2x2 matrix of ad(e1) on the trace-form kernel, with e1
    scaled so that trace(d) = 2; det(d) is a complete isomorphism invariant.
    """

    d: QMatrix
    adapted_basis: tuple[Vec, Vec, Vec]
    det_d: Fraction


@dataclass(frozen=True)
class IdentityCheck:
    ok: bool
    witness: tuple[int, int, int] | None = None  # 1-based basis indices
    lhs: Vec | None = None
    rhs: Vec | None = None


def multiply(a: Algebra, x: Vec, y: Vec) -> Vec:
    """Bilinear product of coordinate vectors."""
    if len(x) != a.dim or len(y) != a.dim:
        raise ValueError("vector length must equal the algebra dimension")
    return _product(a.c, x, y, Fraction(0))


def _product(c, x, y, zero):
    """sum_ijk x_i y_j c[i][j][k] e_k for a tensor c of any last axis (a
    product, or a bilinear map such as a cocycle), with the sums started at
    ``zero``."""
    out = [zero] * len(c[0][0])
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            coeff = xi * yj
            for k, ck in enumerate(c[i][j]):
                if ck != 0:
                    out[k] += coeff * ck
    return tuple(out)


def left_mult(a: Algebra, x: Vec) -> QMatrix:
    """Matrix of y -> x * y."""
    cols = [multiply(a, x, unit_vec(a.dim, j)) for j in range(a.dim)]
    return QMatrix.from_cols(cols)


def right_mult(a: Algebra, x: Vec) -> QMatrix:
    """Matrix of y -> y * x."""
    cols = [multiply(a, unit_vec(a.dim, j), x) for j in range(a.dim)]
    return QMatrix.from_cols(cols)


def _basis(a: Algebra) -> list[Vec]:
    return [unit_vec(a.dim, i) for i in range(a.dim)]


def _trace_row(c: Sequence[Sequence[Sequence]]) -> list:
    """tr L_ei = sum_j c[i][j][j] for each i, of the tensor c; tr L_x is its
    dot product with x.  On the cleared tensor of a ``TripleTable`` these
    are the integers d tr L_ei."""
    n = len(c)
    return [sum(c[i][j][j] for j in range(n)) for i in range(n)]


# The trilinear identities, checked on basis triples t = (i, j, k) by
# ``failures``.  On basis vectors every side of every identity is a signed
# sum of entries of two tensors, T1[i][j][k] = (e_i*e_j)*e_k and
# T2[i][j][k] = e_i*(e_j*e_k), taken at a permutation of t: a term
# (sign, tensor, order) stands for sign * tensor[t[o0]][t[o1]][t[o2]], with
# (o0, o1, o2) = order.  So one ``TripleTable`` of an algebra serves every
# identity.  Each row also gives the triples where the identity can fail:
# every identity changes sign under one swap of arguments (Jacobi, on
# antisymmetric brackets, under every swap), so it holds where the swapped
# indices coincide and fails at a triple exactly when it fails at the
# swapped one; the kept triple is the earlier of the two in product order,
# so the first failure is the one a scan over all n^3 triples finds.
T1, T2 = 0, 1
IJK, JIK, IKJ, KJI, JKI, KIJ = (0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)

Term = tuple[int, int, tuple[int, int, int]]


class Identity(NamedTuple):
    lhs: tuple[Term, ...]
    rhs: tuple[Term, ...]
    can_fail: Callable[[int, int, int], bool]


IDENTITIES: dict[str, Identity] = {
    # (x*y)*z - (y*x)*z = x*(y*z) - y*(x*z)
    "left_symmetric": Identity(((1, T1, IJK), (-1, T1, JIK)), ((1, T2, IJK), (-1, T2, JIK)), lambda i, j, k: i < j),
    # N: (x*y)*z = (x*z)*y
    "N": Identity(((1, T1, IJK),), ((1, T1, IKJ),), lambda i, j, k: j < k),
    # D: (x*y)*z = (z*y)*x
    "D": Identity(((1, T1, IJK),), ((1, T1, KJI),), lambda i, j, k: i < k),
    # S: [x,y]*z = (x*y)*z - (y*x)*z = 0
    "S": Identity(((1, T1, IJK), (-1, T1, JIK)), (), lambda i, j, k: i < j),
    # Jacobi, for antisymmetric brackets: [[x,y],z] + [[y,z],x] + [[z,x],y] = 0
    "jacobi": Identity(((1, T1, IJK), (1, T1, JKI), (1, T1, KIJ)), (), lambda i, j, k: i < j < k),
}

ALL_PASS = "all triples pass"


def _combination(coeffs: Sequence[int], vectors: Sequence[Sequence[int]], n: int) -> tuple[int, ...]:
    """sum_m coeffs[m] vectors[m] for int vectors of length n."""
    out = [0] * n
    for x, v in zip(coeffs, vectors):
        if x:
            for k, y in enumerate(v):
                if y:
                    out[k] += x * y
    return tuple(out)


def _by_sign(terms: Sequence[Term]) -> tuple[list, list]:
    """The (tensor, order) pairs of the terms with sign +1, and of those with sign -1."""
    return tuple([(tensor, o) for sign, tensor, o in terms if sign == s] for s in (1, -1))


@functools.cache
def _plan(identity: str, n: int) -> tuple[int, tuple[tuple, ...]]:
    """``identity``'s scan of a ``TripleTable`` of dimension n: how many of
    the tensors T1, T2 it reads, and a row for each triple t its filter
    keeps, in product order.  A term (tensor, (p, q, r)) at t is the entry
    at the flat index tensor n^3 + (t[p] n + t[q]) n + t[r] of the table's
    T1 followed by its T2.  Every sign is +1 or -1: with each side split
    into its + and - terms, lhs = rhs iff lhs+ + rhs- = rhs+ + lhs-, sums
    of entries only.  So a row is the 1-based witness, the indices of
    lhs+ + rhs- and of rhs+ + lhs-, and the (+, -) indices of each side,
    which ``failures`` reads only where the identity fails.  The plan
    depends on n and ``IDENTITIES`` alone, so it is built once per
    (identity, n)."""
    lhs, rhs, can_fail = IDENTITIES[identity]
    (lhs_plus, lhs_minus), (rhs_plus, rhs_minus) = _by_sign(lhs), _by_sign(rhs)
    size = n**3

    def at(terms, t):
        return tuple(tensor * size + (t[p] * n + t[q]) * n + t[r] for tensor, (p, q, r) in terms)

    rows = []
    for t in itertools.product(range(n), repeat=3):
        if can_fail(*t):
            lp, lm, rp, rm = (at(terms, t) for terms in (lhs_plus, lhs_minus, rhs_plus, rhs_minus))
            rows.append(((t[0] + 1, t[1] + 1, t[2] + 1), lp + rm, rp + lm, (lp, lm), (rp, rm)))
    return 1 + max(tensor for _, tensor, _ in lhs + rhs), tuple(rows)


def _total(entries: Sequence[tuple[int, ...]], indices: Sequence[int], zero: tuple[int, ...]) -> tuple[int, ...]:
    """The sum of the entries at ``indices``; a sum of one term is the entry
    itself, and of none ``zero``.  Two terms, as on each side of left
    symmetry's scan, are added without the transposing ``zip``."""
    if len(indices) == 1:
        return entries[indices[0]]
    if len(indices) == 2:
        return tuple(map(operator.add, entries[indices[0]], entries[indices[1]]))
    return tuple(map(sum, zip(*(entries[x] for x in indices)))) if indices else zero


class TripleTable:
    """What one algebra's predicates share: its integer tensor, T1 and T2
    (see ``IDENTITIES``), the first failure of each identity scanned, and
    the Lie tag of its commutators (``_commutator_tag``).  Each algebra has
    one, built by ``Algebra.table`` on first use; T1 and T2 are each filled
    whole the first time a scan reads them, and every verdict is kept once
    decided, so asking an algebra again costs nothing.  An identity is
    scanned by its ``_plan``: N, D, S and Jacobi read T1 only, so they
    never fill T2.

    The entries are those of the integer tensor d c, d the least common
    denominator of the structure constants, which the table keeps as
    ``c`` (planes of rows d e_i*e_j) and ``rows`` (the same rows, flat).
    Both sides of every identity are homogeneous of degree 2 in the
    structure constants, so scaling c by d scales both by d^2: the failing
    triples are the same, and the witness sides are the integer ones
    divided by d^2.
    """

    def __init__(self, a: Algebra):
        n = a.dim
        d, rows = _cleared(v for plane in a.c for v in plane)
        self.dim = n
        self.d = d
        self.rows = rows
        self.c = [rows[i * n : (i + 1) * n] for i in range(n)]
        # T1's entries, then T2's once a scan reads it, flat at
        # tensor n^3 + (i n + j) n + k
        self._entries: list[tuple[int, ...]] = []
        self._first: dict[str, IdentityCheck] = {}
        self.tag: LieTag | None = None

    def _tensor(self, tensor: int) -> list[tuple[int, ...]]:
        """The entries of T1 or T2, flat at (i n + j) n + k, in one pass.
        For each pair (p, q) both are read off one combination of n vectors
        of length n^2: T1[i][j][k] = sum_m c[i][j][m] c[m][k] is the slice k
        of sum_m c[i][j][m] (c[m][0], ..., c[m][n-1]), and T2[i][j][k] =
        sum_m c[j][k][m] c[i][m] the slice i of sum_m c[j][k][m]
        (c[0][m], ..., c[n-1][m])."""
        n, c = self.dim, self.c
        if tensor == T1:
            vectors = [[x for v in c[m] for x in v] for m in range(n)]
        else:
            vectors = [[x for plane in c for x in plane[m]] for m in range(n)]
        sums = [_combination(row, vectors, n * n) for plane in c for row in plane]
        if tensor == T1:
            return [s[k * n : (k + 1) * n] for s in sums for k in range(n)]
        return [s[i * n : (i + 1) * n] for i in range(n) for s in sums]

    def failures(self, identity: str) -> Iterator[IdentityCheck]:
        """Every basis triple, in product order, where ``identity`` fails."""
        tensors, rows = _plan(identity, self.dim)
        while len(self._entries) < tensors * self.dim**3:
            self._entries += self._tensor(T2 if self._entries else T1)
        entries, zero = self._entries, (0,) * self.dim
        for witness, plus, minus, lhs, rhs in rows:
            if _total(entries, plus, zero) != _total(entries, minus, zero):
                yield IdentityCheck(False, witness, self._value(*lhs), self._value(*rhs))

    def _value(self, plus: Sequence[int], minus: Sequence[int]) -> Vec:
        """A side's value at a triple, from the entries at its + and - terms'
        indices, in the coordinates of the algebra: d^-2 times its value on
        the cleared tensor."""
        d2 = self.d * self.d
        zero = (0,) * self.dim
        return tuple(
            Fraction(x - y, d2)
            for x, y in zip(_total(self._entries, plus, zero), _total(self._entries, minus, zero))
        )

    def first_failure(self, identity: str) -> IdentityCheck:
        """The first failure of ``identity``, scanned on the first call and
        kept by identity."""
        check = self._first.get(identity)
        if check is None:
            check = self._first[identity] = next(self.failures(identity), IdentityCheck(True))
        return check


def failures(a: Algebra, identity: str) -> Iterator[IdentityCheck]:
    """Every basis triple, in product order, where ``identity`` fails.

    Bilinearity makes the basis check complete; a skipped triple fails
    exactly when its swap, which is kept, does (see ``IDENTITIES``).
    """
    return a.table.failures(identity)


def first_failure(a: Algebra, identity: str) -> IdentityCheck:
    """First basis triple, in product order, where ``identity`` fails;
    scanned once per algebra (``TripleTable.first_failure``)."""
    return a.table.first_failure(identity)


def check_left_symmetric(a: Algebra) -> IdentityCheck:
    """(x*y)*z - (y*x)*z = x*(y*z) - y*(x*z), with the first failing triple."""
    return first_failure(a, "left_symmetric")


def lie_algebra_of(a: Algebra) -> Algebra:
    """Commutator brackets [x,y] = x*y - y*x, with no Jacobi scan: those of
    a left-symmetric algebra form a Lie algebra (the Jacobi sum is the
    alternating sum of the associators (x*y)*z - x*(y*z) over the orders of
    x, y, z, and left symmetry cancels it in pairs).  ``_require_lie``
    refuses other input where the brackets are read.  ``_commutator_tag``
    reads the brackets of a left-symmetric algebra off its own table
    instead; it builds them only for other input."""
    brackets = tuple(tuple(vec_sub(a.c[i][j], a.c[j][i]) for j in range(a.dim)) for i in range(a.dim))
    return Algebra(a.dim, brackets, name=f"Lie({a.name})" if a.name else "", params=a.params)


def _first_asymmetry(a: Algebra) -> tuple[int, int] | None:
    """The first 1-based pair (i, j), i <= j, with e_i*e_j != -e_j*e_i, i.e.
    with e_i*e_j + e_j*e_i != 0, read off the table's cleared tensor."""
    n, c = a.dim, a.table.c
    return next(
        ((i + 1, j + 1) for i in range(n) for j in range(i, n) if any(x + y for x, y in zip(c[i][j], c[j][i]))),
        None,
    )


def _lie_defect(a: Algebra) -> str | None:
    """Why ``a`` is not a Lie algebra, naming the first basis pair where
    antisymmetry fails or triple where Jacobi does; None if it is one."""
    pair = _first_asymmetry(a)
    if pair is not None:
        return f"antisymmetry fails at basis pair {pair}"
    bad = first_failure(a, "jacobi")
    if not bad.ok:
        return f"the Jacobi identity fails at basis triple {bad.witness}"
    return None


def is_lie_algebra(a: Algebra) -> bool:
    return _lie_defect(a) is None


def _require_lie(a: Algebra) -> None:
    """Refuse a non-Lie ``a`` before its brackets are read, with its
    ``_lie_defect``.  It cannot fail on the commutators of a
    left-symmetric algebra."""
    defect = _lie_defect(a)
    if defect is not None:
        raise ValueError(f"not a Lie algebra: {defect}")


def _commutator_brackets(a: Algebra) -> list:
    """A positive multiple of the commutator tensor, b[i][j] = d' [e_i, e_j]
    with [x, y] = x*y - y*x, as ints.

    The commutators of a left-symmetric algebra form a Lie algebra (see
    ``lie_algebra_of``), so there they are read off a's table, d (c[i][j] -
    c[j][i]), with no scan.  Otherwise they may fail Jacobi: they are built
    and scanned by ``_require_lie``, which raises its ``ValueError`` with the
    failing triple.  Every reader of the brackets (the tag, the trace row,
    the rank) is scale-free, so d' does not matter."""
    if not first_failure(a, "left_symmetric").ok:
        lie = lie_algebra_of(a)
        _require_lie(lie)
        return lie.table.c
    n, c = a.dim, a.table.c
    return [[tuple(x - y for x, y in zip(c[i][j], c[j][i])) for j in range(n)] for i in range(n)]


def _commutator_tag(a: Algebra) -> LieTag:
    """The tag of the commutator algebra of a 3D algebra ``a``,
    ``identify_lie_algebra(lie_algebra_of(a))``: ``_lie_tag`` of
    ``_commutator_brackets``, kept by a's table once decided.  Commutators
    that are not a Lie algebra are refused again on every call."""
    table = a.table
    if table.tag is None:
        table.tag = _lie_tag(_commutator_brackets(a))
    return table.tag


def is_complete(a: Algebra) -> bool:
    """True iff ``a`` is a complete left-symmetric algebra: one that is
    left-symmetric and whose right multiplications R_x are all nilpotent.

    Completeness is defined for left-symmetric algebras only, so this is
    the left-symmetry scan and then Helmstetter's and Segal's criterion,
    tr R_ei = 0 for every i (``_complete_by_traces``).  An algebra that is
    not left-symmetric is not a complete left-symmetric algebra, whatever
    its right multiplications do.
    """
    return check_left_symmetric(a).ok and _complete_by_traces(a)


def _complete_by_traces(a: Algebra) -> bool:
    """Completeness of a left-symmetric algebra, by Helmstetter's and
    Segal's theorem: a left-symmetric algebra is complete (every R_x
    nilpotent) iff tr R_x = 0 for every x.  tr R_x is linear in x, so this
    is tr R_ei = sum_j c[j][i][j] = 0 for every i, read as d tr R_ei = 0 on
    the table's cleared tensor.

    The theorem holds only for left-symmetric input: e1*e1 = e1,
    e2*e1 = -e2 has tr R_x = 0 for every x, but R_e1 = diag(1, -1) is not
    nilpotent.  ``is_complete`` scans left symmetry first.
    """
    n, c = a.dim, a.table.c
    return all(sum(c[j][i][j] for j in range(n)) == 0 for i in range(n))


def is_novikov(a: Algebra) -> bool:
    """N: (x*y)*z = (x*z)*y, i.e. the right multiplications commute."""
    return first_failure(a, "N").ok


def flag_witnesses(a: Algebra) -> dict[str, tuple[int, int, int] | str]:
    """For each of N/D/S, the first failing basis triple (1-based) or
    ALL_PASS."""
    return {identity: first_failure(a, identity).witness or ALL_PASS for identity in "NDS"}


def ndsflags(a: Algebra) -> tuple[bool, bool, bool]:
    """The N/D/S flags."""
    return tuple(first_failure(a, identity).ok for identity in "NDS")


def _mult_blocks(rows: Sequence[Sequence[int]], n: int) -> tuple[list[list[int]], list[list[int]]]:
    """The rows of the stacked d L_e1..d L_en and of the stacked d R_e1..d R_en,
    from the cleared tensor rows[i n + j] = d e_i*e_j: row (i, k) of the L
    block is (d c[i][j][k])_j and of the R block (d c[j][i][k])_j.  Scaling
    by d > 0 keeps every kernel and rank."""
    lefts = [[rows[i * n + j][k] for j in range(n)] for i in range(n) for k in range(n)]
    rights = [[rows[j * n + i][k] for j in range(n)] for i in range(n) for k in range(n)]
    return lefts, rights


def _int_span(n: int, vectors: Sequence[Sequence[int]]) -> Subspace:
    """The canonical ``Subspace`` of the span of integer vectors of length
    n: the reduced-echelon rows of one ``_int_rref`` (the reduced echelon
    form is unique)."""
    return Subspace(n, tuple(_echelon_rows(*_int_rref([list(v) for v in vectors]))))


def center(a: Algebra) -> Subspace:
    """{x : x*e_j = e_j*x = 0 for all j}: the kernel of the stacked integer
    L and R blocks of the table's cleared tensor (``_mult_blocks``)."""
    lefts, rights = _mult_blocks(a.table.rows, a.dim)
    return _int_span(a.dim, _int_nullspace(lefts + rights, a.dim))


def _two_sided(rows: Sequence[Sequence[int]], n: int, vectors: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """For each integer vector w of ``vectors``, d e_1*w, ..., d e_n*w and
    then d w*e_1, ..., d w*e_n, from the cleared tensor rows[i n + j] =
    d e_i*e_j: e_i*w = sum_k w_k e_i*e_k and w*e_i = sum_k w_k e_k*e_i."""
    factors = [rows[i * n : (i + 1) * n] for i in range(n)] + [rows[i::n] for i in range(n)]
    return [_combination(w, side, n) for w in vectors for side in factors]


def _int_product(rows: Sequence[Sequence[int]], n: int, u: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
    """d u*v = sum_i u_i d e_i*v for integer vectors u and v, the d e_i*v read
    off ``_two_sided``."""
    return _combination(u, _two_sided(rows, n, [v])[:n], n)


def is_two_sided_ideal(a: Algebra, w: Subspace) -> bool:
    """W is an ideal iff W's cleared basis with its ``_two_sided`` products
    still has rank dim W."""
    if w.ambient_dim != a.dim:
        raise ValueError("subspace ambient dimension mismatch")
    basis = _cleared(w.basis)[1]
    return _int_rank(basis + _two_sided(a.table.rows, a.dim, basis)) == w.dim


def _maps_into_line(dm: Sequence[Sequence[int]], v: Sequence[int]) -> bool:
    """True iff the integer matrix dm maps the nonzero v to a multiple of v."""
    w = [sum(x * y for x, y in zip(row, v)) for row in dm]
    i = next(i for i, x in enumerate(v) if x)
    return all(wj * v[i] == w[i] * vj for wj, vj in zip(w, v))


def _refine(
    ops: Sequence[tuple[int, list[list[int]]]],
    spectrum: Callable[[int], list[Fraction]],
    k: int,
    basis: list[list[int]],
) -> Iterator[list[list[int]]]:
    """Integer bases of the nonzero joint eigenspaces, inside span(basis),
    of the operators ops[k:], each given cleared as (d, d M).

    Depth first: span(basis) is intersected with each eigenspace of the
    next operator in turn and empty intersections are dropped.  A line
    span(v) needs no spectrum: it lies in a joint eigenspace iff every
    remaining operator maps v into span(v).
    """
    if len(basis) == 1:
        if all(_maps_into_line(dm, basis[0]) for _, dm in ops[k:]):
            yield basis
        return
    if k == len(ops):
        yield basis
        return
    d, dm = ops[k]
    images = [[sum(x * y for x, y in zip(row, b)) for row in dm] for b in basis]
    for lam in spectrum(k):
        p, q = lam.numerator, lam.denominator
        # column j is q d (M - lam) b_j
        shifted = [[q * x - p * d * y for x, y in zip(image, b)] for image, b in zip(images, basis)]
        kernel = _int_nullspace([list(row) for row in zip(*shifted)], len(basis))
        if kernel:
            cols = list(zip(*basis))
            sub = [_primitive([sum(c * x for c, x in zip(coeffs, col)) for col in cols]) for coeffs in kernel]
            yield from _refine(ops, spectrum, k + 1, sub)


def _joint_eigenvectors(
    n: int, ops: Sequence[tuple[int, list[list[int]]]], spectra: Sequence[list[Fraction]]
) -> list[list[int]]:
    """Integer multiples of the reduced-echelon basis vectors of the nonzero
    joint eigenspaces of the cleared n x n operators ``ops``, whose spectra
    are ``spectra``: the ``_int_rref`` rows of each basis that ``_refine``
    yields.  No vector can repeat: distinct joint eigenspaces meet only in 0.

    An operator whose spectrum is one lam = p/q cannot split a joint
    eigenspace: every joint eigenvector lies in ker(M - lam).  The rows
    q d M - p d I of all such operators are stacked, and one
    ``_int_nullspace`` of the stack is their joint eigenspace: the identity
    basis when none is stacked, and no vector when they share none.
    ``_refine`` then splits it through the other operators only."""
    stack: list[list[int]] = []
    multi: list[tuple[int, list[list[int]]]] = []
    multi_spectra: list[list[Fraction]] = []
    for (d, dm), s in zip(ops, spectra):
        if len(s) == 1:
            p, q = s[0].numerator, s[0].denominator
            stack += [[q * x - p * d * (i == j) for j, x in enumerate(row)] for i, row in enumerate(dm)]
        else:
            multi.append((d, dm))
            multi_spectra.append(s)
    basis = _int_nullspace(stack, n)
    return [row for b in _refine(multi, multi_spectra.__getitem__, 0, basis) for row in _int_rref(b)[0]]


def find_ideals_dim_le3(a: Algebra) -> list[Subspace]:
    """Proper nonzero two-sided ideals with rational defining data (dim <= 3).

    The ideals are the subspaces invariant under every L_x and R_x, hence
    under the 2n operators L_ei and R_ei, and each is found by construction:

    - a joint eigenvector v of all L_ei and R_ei spans an ideal line, since
      x*v and v*x are multiples of v for every x;
    - if w is a joint eigenvector of all the transposes, the plane
      ker(w^T) = {y : w.y = 0} is an ideal: w.(M y) = (M^T w).y = lam w.y
      vanishes on it for each operator M.

    The joint eigenspaces come from ``_joint_eigenvectors`` on a basis of
    the span of the operators, read off the table's integer tensor d c: the
    columns of d L_ei and d R_ei are its rows d e_i*e_j and d e_j*e_i.  Only
    a basis of that span is searched: the pivot columns of one ``_int_rref``
    of the n^2 x 2n matrix whose columns are the operators' entries.  A
    joint eigenvector of a spanning set is one of every linear combination,
    so the nonzero joint eigenspaces of the basis are those of all 2n
    operators; each dropped operator is a combination of the kept ones
    before it, and zero, repeated and proportional operators cost no
    spectrum, kernel or line test.  An operator's spectrum is the integer
    roots (``_int_roots``) of the closed-form characteristic polynomial of
    d M (``_int_char_poly``) divided by d: that polynomial is monic with
    integer coefficients, so its rational roots are integers.  Every kept
    operator's spectrum is computed once, up front, and the transposes share
    it (char_poly(M^T) = char_poly(M)).  An operator without a rational
    eigenvalue leaves no joint eigenspace, so then the answer is empty at
    once.  Otherwise the operators with one eigenvalue are intersected in
    one stacked kernel and only the others are refined
    (``_joint_eigenvectors``).  The joint eigenvectors stay integer until
    the ``Subspace`` of each line, and of each plane ker(w^T), is built;
    multidimensional joint eigenspaces are reported through their
    reduced-echelon basis vectors.  Irrational eigendata is out of reach by
    design, so an empty answer means "no rational ideal found", never
    "simple".
    """
    if a.dim > 3:
        raise ValueError("ideal search is implemented for dim <= 3 only")
    if a.dim <= 1:
        return []
    n, d, c = a.dim, a.table.d, a.table.c
    # the columns of d L_ei and of d R_ei
    columns = [list(c[i]) for i in range(n)]
    columns += [[c[j][i] for j in range(n)] for i in range(n)]
    flat = [[x for col in cols for x in col] for cols in columns]
    columns = [columns[k] for k in _int_rref([list(r) for r in zip(*flat)])[1]]
    ops = [(d, [list(r) for r in zip(*cols)]) for cols in columns]
    spectra = [[Fraction(r, d) for r in _int_roots(_int_char_poly(dm))] for _, dm in ops]
    if not all(spectra):
        return []
    found = [_int_span(n, [v]) for v in _joint_eigenvectors(n, ops, spectra)]
    if n == 3:
        found += [
            _int_span(3, _int_nullspace([list(w)], 3))
            for w in _joint_eigenvectors(3, [(d, cols) for cols in columns], spectra)
        ]
    found.sort(key=lambda s: (s.dim, s.basis))
    return found


def is_unimodular(lie: Algebra) -> bool:
    _require_lie(lie)
    return not any(_trace_row(lie.table.c))


def derived_subspace(lie: Algebra, w: Subspace) -> Subspace:
    """The span of every u*v, u and v in W's cleared basis."""
    basis = _cleared(w.basis)[1]
    return _int_span(lie.dim, [_int_product(lie.table.rows, lie.dim, u, v) for u in basis for v in basis])


def is_solvable(lie: Algebra) -> bool:
    _require_lie(lie)
    current = Subspace.from_spanning(lie.dim, _basis(lie))
    while current.dim > 0:
        nxt = derived_subspace(lie, current)
        if nxt.dim == current.dim:
            return False
        current = nxt
    return True


def _require_3d_lie(lie: Algebra) -> None:
    """``_require_lie``, then refuse a dimension other than 3."""
    _require_lie(lie)
    if lie.dim != 3:
        raise ValueError("Milnor normal form requires dimension 3")


def _nonzero_trace_row(b: Sequence[Sequence[Sequence[int]]]) -> list[int]:
    """The trace row d tr ad_ei of the integer brackets b[i][j] = d [e_i, e_j],
    d > 0, of a 3D Lie algebra, refused with NotInScopeError where it
    vanishes, i.e. on unimodular input."""
    trace_row = _trace_row(b)
    if not any(trace_row):
        # Solvability only picks the reason: a non-solvable 3D real Lie
        # algebra is its own Levi factor, so it is simple, hence perfect
        # ([g, g] = g), hence unimodular (tr ad_[x,y] = tr [ad_x, ad_y] = 0).
        # A nonzero trace row therefore already implies solvable.  A 3D g
        # with [g, g] != g is solvable, as [g, g] of dim <= 2 is; dim [g, g]
        # is the rank of the bracket rows.
        perfect = _int_rank(v for plane in b for v in plane) == 3
        raise NotInScopeError(f"Lie algebra is {'not solvable' if perfect else 'unimodular'}")
    return trace_row


def milnor_normal_form(lie: Algebra) -> MilnorForm:
    """Adapted basis (e1, u1, u2) with U = ker(x -> tr ad_x) abelian and
    tr(ad_e1 | U) = 2; returns ad_e1 restricted to U and its determinant.

    e1 is the first standard basis vector outside U, i.e. the first e_i with
    tr ad_ei != 0, scaled by 2 / tr ad_ei; the echelon basis of U makes the
    construction deterministic.  On the table's integer brackets, with
    tr = d tr ad_ei and B = d ad_ei as in ``_lie_tag``, ad_e1 u = (2 / tr) B u,
    and its coordinates in the echelon basis (u1, u2) are its entries at U's
    pivot columns.
    """
    _require_3d_lie(lie)
    table = lie.table
    trace_row = _nonzero_trace_row(table.c)
    # U is abelian: for u in U, ad_u maps g into [g, g], which lies in U
    # (tr ad_[x,y] = 0), so tr(ad_u | U) = tr ad_u = 0; a unimodular 2D Lie
    # algebra is abelian; the row is d times the trace row, with the same kernel
    u1, u2 = _int_span(3, _int_nullspace([list(trace_row)], 3)).basis
    i, tr = next((i, t) for i, t in enumerate(trace_row) if t != 0)
    e1 = tuple(Fraction(2 * table.d * (k == i), tr) for k in range(3))
    # [e1, U] lies in [g, g], and [g, g] lies in U, so D exists
    b = list(zip(*table.c[i]))
    images = [[Fraction(2, tr) * sum(x * y for x, y in zip(row, u)) for row in b] for u in (u1, u2)]
    pivots = [next(k for k, x in enumerate(u) if x) for u in (u1, u2)]
    d = QMatrix([[image[k] for image in images] for k in pivots])
    assert d.trace() == 2
    det_d = d.rows[0][0] * d.rows[1][1] - d.rows[0][1] * d.rows[1][0]
    return MilnorForm(d, (e1, u1, u2), det_d)


def identify_lie_algebra(lie: Algebra) -> LieTag:
    """The isomorphism class of a 3D Lie algebra: ``_require_lie``, which
    scans antisymmetry and Jacobi, and ``_lie_tag`` of the integer brackets
    of its table.  ``_commutator_tag`` takes the same path on the brackets
    of a left-symmetric algebra, which need no scan."""
    _require_3d_lie(lie)
    return _lie_tag(lie.table.c)


def _lie_tag(b: Sequence[Sequence[Sequence[int]]]) -> LieTag:
    """The tag of the 3D Lie algebra with integer brackets b[i][j] =
    d [e_i, e_j], d > 0, from two traces of ad_x, x the first e_i with
    t = tr ad_x != 0 (the Milnor form's e1 is 2x/t), and ``_tag_of_form``.

    In a basis (x, u1, u2) with U = ker(tr ad) as in ``milnor_normal_form``,
    ad_x = diag(0, A), A = ad_x | U, and D = (2/t) A.  For a 2x2 matrix
    det = (tr^2 - tr of the square) / 2, so det D = 2 - 2 tr(ad_x^2) / t^2.
    D = I iff A = (t/2) I iff ad_x^2 = (t/2) ad_x: if A (A - t/2) = 0 and
    A != t/2, A has the eigenvalues 0 and t, and A (A - t/2) has t^2/2.
    No basis of U, solve or restriction is needed.  Both sides are read on
    the integer matrix B = d ad_x, where they become 2 - 2 tr(B^2) / tr(B)^2
    and 2 B^2 = tr(B) B: both are unchanged by the scale d.  The trace row
    and B are read off b; tr B is that row's entry i.
    """
    try:
        trace_row = _nonzero_trace_row(b)
    except NotInScopeError as err:
        return LieTag("not_in_scope", reason=str(err))
    i, t = next((i, t) for i, t in enumerate(trace_row) if t != 0)
    # the columns of B are the brackets d [e_i, e_j]
    m = [list(r) for r in zip(*b[i])]
    m2 = _int_matmul(m, m)
    det_d = 2 - Fraction(2 * sum(m2[k][k] for k in range(3)), t * t)
    return _tag_of_form(det_d, all(2 * x == t * y for r2, r in zip(m2, m) for x, y in zip(r2, r)))


def _tag_of_form(det_d: Fraction, d_is_identity: bool) -> LieTag:
    """Decide the isomorphism class from det(D) of the Milnor form and
    whether D = I.

    d = 0 -> G31; d = 1 -> G32 if D = I else G33; d in (0,1) or d < 0 ->
    G34 with 4 mu / (1+mu)^2 = d and |mu| < 1; d > 1 -> G35 with
    zeta = sqrt(d-1).  Parameters of rational-parameter inputs recover
    exactly; otherwise the tag is flagged non-exact.
    """
    d = det_d
    if d == 0:
        return LieTag("G31")
    if d == 1:
        return LieTag("G32" if d_is_identity else "G33")
    if d > 1:
        z = sqrt_fraction(d - 1)
        if z is not None:
            return LieTag("G35", zeta=z)
        return LieTag("G35", zeta=float(d - 1) ** 0.5, exact=False)
    # 0 < d < 1 or d < 0: solve d mu^2 + (2d-4) mu + d = 0, pick |mu| < 1;
    # an irrational root is found in floats, kept off |mu| = 1 by a margin
    disc = 1 - d
    s = sqrt_fraction(disc)
    exact = s is not None
    if not exact:
        s, d = float(disc) ** 0.5, float(d)
    for mu in ((2 - d + 2 * s) / d, (2 - d - 2 * s) / d):
        if 0 < abs(mu) < (1 if exact else 1 - 1e-12):
            return LieTag("G34", mu=mu, exact=exact)
    raise RuntimeError("mu recovery failed; internal bug")


def _induced_product(a: Algebra, basis: Sequence[Vec], modulo: Sequence[Vec] = ()) -> Tensor:
    """The product induced on span(basis) modulo span(modulo), in the
    coordinates of the frame [modulo | basis], from one solve for every
    product and the frame's own columns: the frame is a basis exactly when
    those solve to unit vectors.  A square basis frame solves everything.
    """
    frame = [*modulo, *basis]
    n, m, skip = len(frame), len(basis), len(modulo)
    products = [multiply(a, x, y) for x in basis for y in basis]
    coords = solve(QMatrix.from_cols(frame), [*frame, *products])
    if coords is None and n < a.dim:
        raise ValueError("subspace is not closed under the product")
    if coords is None or coords[:n] != [unit_vec(n, i) for i in range(n)]:
        raise ValueError("matrix is singular")
    return tuple(tuple(coords[n + i * m + j][skip:] for j in range(m)) for i in range(m))


def conjugated(a: Algebra, p: QMatrix) -> Algebra:
    """Structure constants in the basis f_i = sum_k p[k][i] e_k."""
    if p.shape != (a.dim, a.dim):
        raise ValueError("basis-change matrix has wrong shape")
    return Algebra(a.dim, _induced_product(a, [p.col(i) for i in range(a.dim)]), name=a.name, params=a.params)


def restriction_to_ideal(a: Algebra, w: Subspace) -> Algebra:
    """Induced product on an ideal, in the ideal's echelon basis."""
    return Algebra(w.dim, _induced_product(a, w.basis), name=f"{a.name}|ideal" if a.name else "")


def quotient_algebra(a: Algebra, w: Subspace) -> Algebra:
    """Induced product on A/W for a two-sided ideal W, in the coordinates of
    the standard basis vectors that extend W's basis."""
    reps = quotient_basis(_basis(a), list(w.basis))
    return Algebra(len(reps), _induced_product(a, reps, w.basis), name=f"{a.name}/ideal" if a.name else "")


def product_span(a: Algebra) -> Subspace:
    """Span of all products x*y, i.e. of the table's cleared rows d e_i*e_j."""
    return _int_span(a.dim, a.table.rows)
