"""Extensions of left-symmetric algebras.

An extension 0 -> V -> A~ -> K -> 0 is encoded by bimodule actions
(lambda, rho) of K on V and a bilinear map g: K x K -> V.  The extended
product

    (x, a) . (y, b) = (x.y, a.b + lambda_x(b) + rho_y(a) + g(x, y))

is left-symmetric exactly when five conditions hold, and each condition is
the left-symmetry identity on the basis triples of one block pattern (see
``CONDITION_OF_BLOCKS``), so the product is built once and scanned by the
identity engine of ``lsa.algebra``.  Lie extensions are read off the Jacobi
identity of the extended bracket the same way.

The coboundary operators delta1/delta2 give a second cohomology classifying
extensions up to equivalence.  Each is one integer matrix on flattened
cochains (``_delta1_rows``, ``_delta2_rows``; a 2-cochain is laid out as
``Cocycle2.flat``), written entry by entry in one pass: every entry is a
signed sum of structure constants of K and of lambda and rho, cleared over
one denominator.  ``delta1``, ``delta2``,
``h2`` and ``cocycles_cohomologous`` all read these matrices, so each
coboundary has one definition; ``h2`` is one integer kernel (Z2) and one
echelon span (B2).
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .algebra import (
    Algebra,
    Subspace,
    _combination,
    _first_asymmetry,
    _int_span,
    _lie_defect,
    _mult_blocks,
    _product,
    failures,
    first_failure,
)
from .linalg import (
    QMatrix,
    Vec,
    _cleared,
    _free_scaled,
    _int_nullspace,
    _int_rank,
    quotient_basis,
    random_fraction,
    random_invertible,
    solve,
    vec_is_zero,
    zero_vec,
)


class ExtensionError(ValueError):
    """The extension data violates the left-symmetry conditions."""

    def __init__(self, failed: Sequence[int], report: "KimReport"):
        self.failed = tuple(failed)
        self.report = report
        super().__init__(f"extension conditions failed: {self.failed}")


class CompatibilityError(ValueError):
    """Lie extension data violates a compatibility identity."""


@dataclass(frozen=True)
class BimoduleAction:
    k: Algebra
    v_dim: int
    lam: tuple[QMatrix, ...]
    rho: tuple[QMatrix, ...]

    def __post_init__(self):
        if len(self.lam) != self.k.dim or len(self.rho) != self.k.dim:
            raise ValueError("one lambda/rho matrix per base basis vector")
        for m in (*self.lam, *self.rho):
            if m.shape != (self.v_dim, self.v_dim):
                raise ValueError("action matrices must be v_dim x v_dim")


def trivial_action(k: Algebra, v_dim: int) -> BimoduleAction:
    z = QMatrix.zero(v_dim, v_dim)
    return BimoduleAction(k, v_dim, (z,) * k.dim, (z,) * k.dim)


@dataclass(frozen=True)
class Cocycle2:
    """Bilinear map K x K -> V as values[i][j] = g(e_i, e_j).

    ``flat`` and ``from_flat`` are the one layout of 2-cochains that every
    coboundary matrix uses: entry (i*k_dim + j)*v_dim + m is g(e_i, e_j)_m.
    """

    values: tuple[tuple[Vec, ...], ...]

    @classmethod
    def zero(cls, k_dim: int, v_dim: int) -> "Cocycle2":
        return cls.from_flat(zero_vec(k_dim * k_dim * v_dim), k_dim, v_dim)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Sequence]]) -> "Cocycle2":
        return cls(
            tuple(tuple(tuple(Fraction(x) for x in cell) for cell in row) for row in rows)
        )

    @classmethod
    def from_flat(cls, flat: Sequence[Fraction], k_dim: int, v_dim: int) -> "Cocycle2":
        """The cocycle whose ``flat`` is ``flat``; each cell is sliced by its
        (i, j), so k_dim = 0 or v_dim = 0 gives the empty cochain's shape."""
        return cls(tuple(
            tuple(tuple(flat[(i * k_dim + j) * v_dim: (i * k_dim + j + 1) * v_dim]) for j in range(k_dim))
            for i in range(k_dim)
        ))

    @property
    def flat(self) -> Vec:
        return tuple(x for row in self.values for cell in row for x in cell)

    @property
    def k_dim(self) -> int:
        return len(self.values)

    @property
    def v_dim(self) -> int:
        return len(self.values[0][0]) if self.values and self.values[0] else 0

    def has_shape(self, k_dim: int, v_dim: int) -> bool:
        """True iff this is a cochain K x K -> V with dim K = k_dim and
        dim V = v_dim.  Over k_dim = 0 the empty cochain is the one cochain
        for every V, so its ``v_dim`` (read off no cell) is not compared."""
        return self.k_dim == k_dim and (k_dim == 0 or self.v_dim == v_dim)

    def of(self, x: Vec, y: Vec) -> Vec:
        return _product(self.values, x, y, Fraction(0))

    def is_zero(self) -> bool:
        return vec_is_zero(self.flat)

    def _combine(self, other: "Cocycle2", op) -> "Cocycle2":
        if (self.k_dim, self.v_dim) != (other.k_dim, other.v_dim):
            raise ValueError("cocycles of different shapes")
        return Cocycle2.from_flat(tuple(map(op, self.flat, other.flat)), self.k_dim, self.v_dim)

    def __add__(self, other: "Cocycle2") -> "Cocycle2":
        return self._combine(other, operator.add)

    def __sub__(self, other: "Cocycle2") -> "Cocycle2":
        return self._combine(other, operator.sub)


@dataclass(frozen=True)
class ExtensionData:
    k: Algebra
    v: Algebra
    action: BimoduleAction
    g: Cocycle2

    def __post_init__(self):
        if self.action.k.dim != self.k.dim or self.action.v_dim != self.v.dim:
            raise ValueError("action shapes do not match K and V")
        if self.action.k.c != self.k.c:
            raise ValueError("the action is over a different product on K")
        if not self.g.has_shape(self.k.dim, self.v.dim):
            raise ValueError("cocycle shape does not match K and V")


@dataclass(frozen=True)
class KimReport:
    """Verdicts for the five extension conditions, with failure witnesses.

    Witnesses are (condition, basis triple, lhs, rhs): the 1-based triple of
    the extended algebra (K block first) where left symmetry fails, and the
    identity's two sides there; at most 32 are kept.
    """

    verdicts: tuple[bool, bool, bool, bool, bool]
    witnesses: tuple[tuple, ...]

    @property
    def ok(self) -> bool:
        return all(self.verdicts)

    def failed_conditions(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, v in enumerate(self.verdicts) if not v)


def _cleared_action(action: BimoduleAction) -> tuple[int, int, int, list, list, list]:
    """(k_dim, v_dim, d, c, lam, rho): the action's dimensions, and K's
    structure constants and the action matrices as ints over one positive
    denominator d, c[i][j][p] = d (e_i.e_j)_p and lam[i][m][n] =
    d lambda_{e_i}[m][n] (rho likewise).  c is K's table rescaled, so a K
    that a check already asked is not cleared again."""
    table, k_dim, v_dim = action.k.table, action.k.dim, action.v_dim
    da, mats = _cleared(row for m in (*action.lam, *action.rho) for row in m.rows)
    d = math.lcm(table.d, da)
    sk, sa = d // table.d, d // da
    c = [[[x * sk for x in row] for row in plane] for plane in table.c]
    mats = [[x * sa for x in row] for row in mats]
    lam = [mats[i * v_dim: (i + 1) * v_dim] for i in range(k_dim)]
    rho = [mats[(k_dim + i) * v_dim: (k_dim + i + 1) * v_dim] for i in range(k_dim)]
    return k_dim, v_dim, d, c, lam, rho


def _delta1_rows(cleared: tuple) -> tuple[int, list[list[int]]]:
    """(d, rows): delta1 as the integer matrix rows / d from flattened maps
    h (entry i*v_dim + n is h(e_i)_n) to flattened cocycles
    (``Cocycle2.flat``: row (i*k_dim + j)*v_dim + m is
    delta1 h (e_i, e_j)_m).  Each entry is a sum of structure constants,
    read off

        delta1 h (x, y) = rho_y(h(x)) + lambda_x(h(y)) - h(x.y)

    from ``cleared``, the action's ``_cleared_action``.
    """
    k_dim, v_dim, d, c, lam, rho = cleared
    rows = []
    for i in range(k_dim):
        for j in range(k_dim):
            for m in range(v_dim):
                row = [0] * (k_dim * v_dim)
                for n in range(v_dim):
                    row[i * v_dim + n] += rho[j][m][n]
                    row[j * v_dim + n] += lam[i][m][n]
                for p, x in enumerate(c[i][j]):
                    row[p * v_dim + m] -= x
                rows.append(row)
    return d, rows


def _delta2_rows(cleared: tuple) -> tuple[int, list[list[int]]]:
    """(d, rows): delta2 as the integer matrix rows / d from flattened
    cocycles (``Cocycle2.flat``) to flattened triples (row
    ((i*k_dim + j)*k_dim + l)*v_dim + m is delta2 g (e_i, e_j, e_l)_m).
    Each entry is a sum of structure constants, read off

        delta2 g (x, y, z) = g(x, y.z) - g(y, x.z) + lambda_x(g(y, z))
                             - lambda_y(g(x, z)) - g([x, y], z)
                             - rho_z(g(x, y) - g(y, x))

    from ``cleared``, the action's ``_cleared_action``.  The rows of one i
    are a 2-cochain in (j, l), laid out as ``Cocycle2.flat``.
    """
    k_dim, v_dim, d, c, lam, rho = cleared
    rows = []
    for i in range(k_dim):
        for j in range(k_dim):
            bracket = [x - y for x, y in zip(c[i][j], c[j][i])]
            for l in range(k_dim):
                for m in range(v_dim):
                    row = [0] * (k_dim * k_dim * v_dim)
                    for p in range(k_dim):
                        row[(i * k_dim + p) * v_dim + m] += c[j][l][p]
                        row[(j * k_dim + p) * v_dim + m] -= c[i][l][p]
                        row[(p * k_dim + l) * v_dim + m] -= bracket[p]
                    for n in range(v_dim):
                        row[(j * k_dim + l) * v_dim + n] += lam[i][m][n]
                        row[(i * k_dim + l) * v_dim + n] -= lam[j][m][n]
                        row[(i * k_dim + j) * v_dim + n] -= rho[l][m][n]
                        row[(j * k_dim + i) * v_dim + n] += rho[l][m][n]
                    rows.append(row)
    return d, rows


def _apply_rows(d: int, rows: list[list[int]], x: Vec) -> Vec:
    """(rows / d) x."""
    return tuple(Fraction(sum(a * b for a, b in zip(row, x)), d) for row in rows)


def delta1(action: BimoduleAction, h: QMatrix) -> Cocycle2:
    """delta1 h (x, y) = rho_y(h(x)) + lambda_x(h(y)) - h(x.y): the matrix
    of ``_delta1_rows`` applied to h's columns, flattened."""
    k_dim, v_dim = action.k.dim, action.v_dim
    if h.shape != (v_dim, k_dim):
        raise ValueError("h must be a v_dim x k_dim matrix (map K -> V)")
    flat = tuple(x for col in zip(*h.rows) for x in col)
    return Cocycle2.from_flat(_apply_rows(*_delta1_rows(_cleared_action(action)), flat), k_dim, v_dim)


def _require_cocycle_shape(action: BimoduleAction, g: Cocycle2) -> None:
    """Refuse a 2-cochain that is not K x K -> V for the action's K and V:
    ``_apply_rows`` would silently truncate it."""
    if not g.has_shape(action.k.dim, action.v_dim):
        raise ValueError("cocycle shape does not match the action")


def delta2(action: BimoduleAction, g: Cocycle2) -> tuple[tuple[tuple[Vec, ...], ...], ...]:
    """delta2 g (x, y, z) on basis triples, indexed [i][j][l]: the matrix of
    ``_delta2_rows`` applied to ``g.flat``, read one i-slice (a 2-cochain in
    (j, l)) per basis vector of K."""
    _require_cocycle_shape(action, g)
    k_dim, v_dim = action.k.dim, action.v_dim
    flat = _apply_rows(*_delta2_rows(_cleared_action(action)), g.flat)
    n2 = k_dim * k_dim * v_dim
    return tuple(Cocycle2.from_flat(flat[i * n2: (i + 1) * n2], k_dim, v_dim).values for i in range(k_dim))


def delta2_is_zero(action: BimoduleAction, g: Cocycle2) -> bool:
    _require_cocycle_shape(action, g)
    return vec_is_zero(_apply_rows(*_delta2_rows(_cleared_action(action)), g.flat))


# Block pattern of a basis triple of the extended algebra (K or V in each
# slot) -> the extension condition that left symmetry at that triple is:
#   1  lambda_x(a.b) = lambda_x(a).b + a.lambda_x(b) - rho_x(a).b
#   2  rho_x([a,b]) = a.rho_x(b) - b.rho_x(a)
#   3  [lambda_x, lambda_y] - lambda_[x,y] = L_{g(x,y) - g(y,x)}
#   4  [lambda_x, rho_y] + rho_y rho_x - rho_{x.y} = R_{g(x,y)}
#   5  delta2 g = 0 (the V part of a KKK triple; the K part is K's own identity)
# With the K block first, the engine's i < j filter keeps exactly the triples
# each condition ranges over (delta2 g is antisymmetric in x, y).  VVV, and
# the K part of KKK, are the identities of V and K themselves.
CONDITION_OF_BLOCKS = {"KVV": 1, "VVK": 2, "KKV": 3, "KVK": 4, "KKK": 5}


def _blocks(triple: tuple[int, int, int], k_dim: int) -> str:
    return "".join("K" if i <= k_dim else "V" for i in triple)


def _extended_algebra(d: ExtensionData) -> Algebra:
    """The extended product on K + V coordinates, K block first."""
    k, v, action, g = d.k, d.v, d.action, d.g
    n = k.dim + v.dim
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(k.dim):
        for j in range(k.dim):
            c[i][j] = [*k.c[i][j], *g.values[i][j]]
        for m in range(v.dim):
            c[i][k.dim + m][k.dim:] = action.lam[i].col(m)
            c[k.dim + m][i][k.dim:] = action.rho[i].col(m)
    for p in range(v.dim):
        for q in range(v.dim):
            c[k.dim + p][k.dim + q][k.dim:] = v.c[p][q]
    return Algebra(n, tuple(tuple(tuple(x) for x in plane) for plane in c),
                   name=f"ext({k.name or 'K'},{v.name or 'V'})")


def _not_left_symmetric(label: str, a: Algebra, triple: tuple[int, int, int]) -> ValueError:
    name = f" ({a.name})" if a.name else ""
    return ValueError(f"{label}{name} is not left-symmetric: the identity fails at its basis triple {triple}")


def _kim_report(ext: Algebra, d: ExtensionData) -> KimReport:
    """Read the five verdicts off the left-symmetry failures of ``ext``.

    A failure of K's or V's own identity is an input error (``ValueError``),
    not a failed condition: the conditions presuppose both are left-symmetric.
    """
    kd = d.k.dim
    verdicts = [True] * 5
    witnesses: list[tuple] = []
    for bad in failures(ext, "left_symmetric"):
        blocks = _blocks(bad.witness, kd)
        if blocks == "VVV":
            raise _not_left_symmetric("V", d.v, tuple(i - kd for i in bad.witness))
        if blocks == "KKK" and bad.lhs[:kd] != bad.rhs[:kd]:
            raise _not_left_symmetric("K", d.k, bad.witness)
        cond = CONDITION_OF_BLOCKS[blocks]
        verdicts[cond - 1] = False
        if len(witnesses) < 32:
            witnesses.append((cond, bad.witness, bad.lhs, bad.rhs))
    return KimReport(tuple(verdicts), tuple(witnesses))


def check_kim_conditions(d: ExtensionData) -> KimReport:
    """Evaluate the five extension conditions on all basis triples."""
    return _kim_report(_extended_algebra(d), d)


def build_extension(d: ExtensionData) -> Algebra:
    """Extended algebra on K + V coordinates (K block first).

    Refuses (with the failing condition indices) unless all five conditions
    hold, which is left symmetry of the result.  The V block is a two-sided
    ideal with quotient K by construction: K.V, V.K and V.V land in it.
    """
    ext = _extended_algebra(d)
    report = _kim_report(ext, d)
    if not report.ok:
        raise ExtensionError(report.failed_conditions(), report)
    return ext


@dataclass(frozen=True)
class H2Result:
    dim_h2: int
    dim_z2: int
    dim_b2: int
    representatives: tuple[Cocycle2, ...]
    b2_basis: tuple[Cocycle2, ...]


def h2(action: BimoduleAction) -> H2Result:
    """Second cohomology for (lambda, rho): Z2 = ker delta2, B2 = im delta1.

    Cocycles are their ``flat`` vectors, so Z2 is one integer kernel of
    ``_delta2_rows`` and B2 one echelon basis of the span of
    ``_delta1_rows``' columns.  Both bases are canonical (scaled to
    1 at the free columns, reduced echelon), so they do not depend on the
    denominator the matrices were cleared with.  Data with B2 not inside Z2
    is refused with ``ValueError``.
    """
    k_dim, v_dim = action.k.dim, action.v_dim
    n2 = k_dim * k_dim * v_dim
    cleared = _cleared_action(action)
    z2 = _free_scaled(_int_nullspace(_delta2_rows(cleared)[1], n2))
    b2 = list(_int_span(n2, list(zip(*_delta1_rows(cleared)[1]))).basis)
    try:
        reps = quotient_basis(z2, b2)
    except ValueError:
        raise ValueError(
            "delta2 . delta1 != 0, so H2 is undefined: K is not left-symmetric "
            "or (lambda, rho) is not a K-bimodule"
        ) from None
    return H2Result(
        dim_h2=len(z2) - len(b2),
        dim_z2=len(z2),
        dim_b2=len(b2),
        representatives=tuple(Cocycle2.from_flat(r, k_dim, v_dim) for r in reps),
        b2_basis=tuple(Cocycle2.from_flat(b, k_dim, v_dim) for b in b2),
    )


def i_g(d: ExtensionData) -> Subspace:
    """I_[g] = {x in K : x.y = y.x = 0 and g(x, y) = g(y, x) = 0 for all y}:
    ``center``'s integer kernel of K's ``_mult_blocks``, with the cleared
    rows (j, m) of g(x, e_j) and of g(e_j, x) stacked under them."""
    k, g, n = d.k, d.g, d.k.dim
    rows = [[g.values[i][j][m] for i in range(n)] for j in range(n) for m in range(g.v_dim)]
    rows += [[g.values[j][i][m] for i in range(n)] for j in range(n) for m in range(g.v_dim)]
    lefts, rights = _mult_blocks(k.table.rows, n)
    return _int_span(n, _int_nullspace(lefts + rights + _cleared(rows)[1], n))


def is_exact_extension(d: ExtensionData) -> bool:
    """Exactness (the kernel maps onto the center) is I_[g] = 0."""
    return i_g(d).dim == 0


def is_central_extension(d: ExtensionData) -> bool:
    """V is central in the built extension iff V.A = A.V = 0, i.e. iff every
    V row and every V column of its structure tensor is zero."""
    ext = build_extension(d)
    kd = d.k.dim
    return all(
        vec_is_zero(ext.c[i][j]) for i in range(ext.dim) for j in range(ext.dim) if max(i, j) >= kd
    )


def verify_iso_witness(a: Algebra, b: Algebra, eta: QMatrix) -> bool:
    """True iff eta is invertible and eta(x .a y) = eta(x) .b eta(y), i.e.
    iff b, written in the basis f_i = eta(e_i), has a's structure constants
    (f_i .b f_j = eta(e_i .a e_j) is exactly that statement).

    Decided on integers, with no inverse and no solve: eta is cleared to
    E = e eta, and a and b are read off their tables, A = da a.c and
    B = db b.c.  eta is invertible iff E has n pivots, and the identity at
    (e_i, e_j), with eta(e_i) = E[:, i] / e, reads
    da sum_{p,q} E[p][i] E[q][j] B[p][q] = e db E A[i][j].
    """
    if a.dim != b.dim:
        raise ValueError("algebras must have equal dimension")
    if eta.shape != (a.dim, a.dim):
        raise ValueError("witness matrix has wrong shape")
    n = a.dim
    e, rows = _cleared(eta.rows)
    if _int_rank(rows) < n:
        return False
    da, ca = a.table.d, a.table.rows
    db, cb = b.table.d, b.table.rows
    cols = list(zip(*rows))  # cols[i] = E[:, i], e times eta(e_i)
    scale = e * db
    for i in range(n):
        # left[q] = sum_p E[p][i] B[p][q], e db times eta(e_i) .b e_q
        left = [_combination(cols[i], cb[q::n], n) for q in range(n)]
        for j in range(n):
            lhs = _combination(cols[j], left, n)
            rhs = _combination(ca[i * n + j], cols, n)
            if any(da * x != scale * y for x, y in zip(lhs, rhs)):
                return False
    return True


def act_on_cocycle(k: Algebra, v: Algebra, mu: QMatrix, eta: QMatrix, g: Cocycle2) -> Cocycle2:
    """(mu, eta) . g (x, y) = mu(g(eta(x), eta(y))) for automorphism pairs."""
    if not verify_iso_witness(v, v, mu):
        raise ValueError("mu is not an automorphism of V")
    if not verify_iso_witness(k, k, eta):
        raise ValueError("eta is not an automorphism of K")
    rows = []
    for i in range(k.dim):
        row = []
        for j in range(k.dim):
            row.append(mu.apply(g.of(eta.col(i), eta.col(j))))
        rows.append(tuple(row))
    return Cocycle2(tuple(rows))


def cocycles_cohomologous(action: BimoduleAction, g1: Cocycle2, g2: Cocycle2) -> QMatrix | None:
    """Solve g1 - g2 = delta1 h exactly; returns h or None.  The system is
    ``_delta1_rows`` with the right-hand side scaled by its d, which leaves
    the reduced echelon form, and so the solution, unchanged."""
    d, rows = _delta1_rows(_cleared_action(action))
    sols = solve(QMatrix(rows), [tuple(d * x for x in (g1 - g2).flat)])
    if sols is None:
        return None
    v_dim = action.v_dim
    return QMatrix.from_cols([sols[0][i: i + v_dim] for i in range(0, len(sols[0]), v_dim)])


@dataclass(frozen=True)
class AutGroup:
    """Closed-form automorphism group of one of the known 2D algebras."""

    kind: str  # "gl2" | "n2" | "square" | "unknown"
    description: str
    algebra: Algebra
    supported: bool

    def sample(self, rng) -> QMatrix:
        if not self.supported:
            raise LookupError("unknown, verification-only mode")
        if self.kind == "gl2":
            m = random_invertible(rng, 2)
        elif self.kind == "n2":
            d = Fraction(0)
            while d == 0:
                d = random_fraction(rng)
            m = QMatrix([[1, 0], [0, d]])
        else:  # square: e2.e2 = e1
            s = Fraction(0)
            while s == 0:
                s = random_fraction(rng)
            q = random_fraction(rng)
            m = QMatrix([[s * s, q], [0, s]])
        assert verify_iso_witness(self.algebra, self.algebra, m)
        return m


def aut_group_dim2(a2: Algebra) -> AutGroup:
    """Automorphisms of the zero product, e2.e2 = e1, and e1.e2 = e2 algebras.

    Anything else is reported as unknown (verification-only mode): sampled
    witnesses can still be checked, but no closed form is stored.
    """
    if a2.dim != 2:
        raise ValueError("aut_group_dim2 requires dimension 2")
    zero = Algebra.from_entries(2, {})
    n2 = Algebra.from_entries(2, {(1, 2, 2): 1})
    square = Algebra.from_entries(2, {(2, 2, 1): 1})
    if a2.c == zero.c:
        return AutGroup("gl2", "all of GL(2)", a2, True)
    if a2.c == n2.c:
        return AutGroup("n2", "diag(1, d), d != 0", a2, True)
    if a2.c == square.c:
        return AutGroup("square", "[[s^2, q], [0, s]], s != 0", a2, True)
    return AutGroup("unknown", "unknown, verification-only mode", a2, False)


@dataclass(frozen=True)
class LieExtensionData:
    g_base: Algebra  # Lie algebra being extended
    a_kernel: Algebra  # Lie algebra kernel
    phi: tuple[QMatrix, ...]  # phi(e_i) in Der(kernel), one per base basis vector
    omega: tuple[tuple[Vec, ...], ...]  # alternating, values in the kernel

    def __post_init__(self):
        if len(self.phi) != self.g_base.dim:
            raise ValueError("one phi matrix per base basis vector")
        for m in self.phi:
            if m.shape != (self.a_kernel.dim, self.a_kernel.dim):
                raise ValueError("phi matrices must act on the kernel")
        n = self.g_base.dim
        if len(self.omega) != n or any(len(r) != n for r in self.omega):
            raise ValueError("omega must be n x n")


# Block pattern of the first Jacobi failure of the extended bracket (K for
# the base, V for the kernel) -> the compatibility identity that fails.
# VVV and KKK's base part are the Jacobi identities of the kernel and base.
COMPATIBILITY_OF_BLOCKS = {
    "KVV": "phi(e{i}) is not a derivation of the kernel",
    "KKV": "[phi(x), phi(y)] != phi([x,y]) + ad_omega(x,y)",
    "KKK": "omega cocycle identity fails",
}


def build_lie_extension(d: LieExtensionData) -> Algebra:
    """Extended Lie bracket ([x,y], [a,b] + phi(x)b - phi(y)a + omega(x,y)).

    The bracket is the extended product with lambda = phi, rho = -phi and
    g = omega, built once; it is antisymmetric iff omega is alternating, and
    then Jacobi on its basis triples is exactly the compatibility of
    (phi, omega), so the first failing triple names the identity that fails.
    The kernel block is a Lie ideal by construction.
    """
    g_base, a_ker, phi, omega = d.g_base, d.a_kernel, d.phi, d.omega
    for label, algebra in (("base", g_base), ("kernel", a_ker)):
        defect = _lie_defect(algebra)
        if defect is not None:
            raise ValueError(f"{label} is not a Lie algebra: {defect}")
    n = g_base.dim
    action = BimoduleAction(g_base, a_ker.dim, phi, tuple(-p for p in phi))
    data = ExtensionData(g_base, a_ker, action, Cocycle2.from_rows(omega))
    ext = replace(_extended_algebra(data), name="lie-ext")
    pair = _first_asymmetry(ext)
    if pair is not None:
        raise CompatibilityError(f"omega is not alternating at {pair}")
    bad = first_failure(ext, "jacobi")
    if not bad.ok:
        what = COMPATIBILITY_OF_BLOCKS[_blocks(bad.witness, n)].format(i=bad.witness[0])
        raise CompatibilityError(f"{what} at basis triple {bad.witness} of the extension")
    return ext
