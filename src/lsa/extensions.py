"""Extensions of left-symmetric algebras.

An extension 0 -> V -> A~ -> K -> 0 is encoded by bimodule actions
(lambda, rho) of K on V and a bilinear map g: K x K -> V.  The extended
product

    (x, a) . (y, b) = (x.y, a.b + lambda_x(b) + rho_y(a) + g(x, y))

is left-symmetric exactly when five conditions hold, and each condition is
the left-symmetry identity on the basis triples of one block pattern (see
``CONDITION_OF_BLOCKS``), so the product is built once and scanned by the
identity engine of ``lsa.algebra``.  Lie extensions are read off the Jacobi
identity of the extended bracket the same way.  The coboundary operators
delta1/delta2 give a second cohomology classifying extensions up to
equivalence; everything is flattened to exact rational linear algebra.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .algebra import (
    Algebra,
    Subspace,
    _basis,
    _basis_mults,
    _combination,
    _first_asymmetry,
    _lie_defect,
    _product,
    failures,
    first_failure,
)
from .linalg import (
    QMatrix,
    Vec,
    _cleared,
    _int_rank,
    nullspace_basis,
    quotient_basis,
    random_fraction,
    random_invertible,
    solve,
    unit_vec,
    vec_add,
    vec_is_zero,
    vec_sub,
    vstack,
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
    """Bilinear map K x K -> V as values[i][j] = g(e_i, e_j)."""

    values: tuple[tuple[Vec, ...], ...]

    @classmethod
    def zero(cls, k_dim: int, v_dim: int) -> "Cocycle2":
        row = tuple(zero_vec(v_dim) for _ in range(k_dim))
        return cls(tuple(row for _ in range(k_dim)))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Sequence]]) -> "Cocycle2":
        return cls(
            tuple(tuple(tuple(Fraction(x) for x in cell) for cell in row) for row in rows)
        )

    @property
    def k_dim(self) -> int:
        return len(self.values)

    @property
    def v_dim(self) -> int:
        return len(self.values[0][0]) if self.values and self.values[0] else 0

    def of(self, x: Vec, y: Vec) -> Vec:
        return _product(self.values, x, y, Fraction(0))

    def is_zero(self) -> bool:
        return all(vec_is_zero(cell) for row in self.values for cell in row)

    def __add__(self, other: "Cocycle2") -> "Cocycle2":
        return Cocycle2(
            tuple(
                tuple(vec_add(a, b) for a, b in zip(r1, r2))
                for r1, r2 in zip(self.values, other.values)
            )
        )

    def __sub__(self, other: "Cocycle2") -> "Cocycle2":
        return Cocycle2(
            tuple(
                tuple(vec_sub(a, b) for a, b in zip(r1, r2))
                for r1, r2 in zip(self.values, other.values)
            )
        )


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
        if self.g.k_dim != self.k.dim or self.g.v_dim != self.v.dim:
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


def delta1(action: BimoduleAction, h: QMatrix) -> Cocycle2:
    """delta1 h (x, y) = rho_y(h(x)) + lambda_x(h(y)) - h(x.y)."""
    k = action.k
    if h.shape != (action.v_dim, k.dim):
        raise ValueError("h must be a v_dim x k_dim matrix (map K -> V)")
    rows = []
    for i in range(k.dim):
        row = []
        for j in range(k.dim):
            hx = h.col(i)
            hy = h.col(j)
            val = vec_add(action.rho[j].apply(hx), action.lam[i].apply(hy))
            val = vec_sub(val, h.apply(k.c[i][j]))
            row.append(val)
        rows.append(tuple(row))
    return Cocycle2(tuple(rows))


def delta2(action: BimoduleAction, g: Cocycle2) -> tuple[tuple[tuple[Vec, ...], ...], ...]:
    """delta2 g (x, y, z) on basis triples, indexed [i][j][k]."""
    k = action.k
    e = _basis(k)
    out = []
    for i in range(k.dim):
        plane = []
        for j in range(k.dim):
            row = []
            for l in range(k.dim):
                val = g.of(e[i], k.c[j][l])
                val = vec_sub(val, g.of(e[j], k.c[i][l]))
                val = vec_add(val, action.lam[i].apply(g.values[j][l]))
                val = vec_sub(val, action.lam[j].apply(g.values[i][l]))
                bracket = vec_sub(k.c[i][j], k.c[j][i])
                val = vec_sub(val, g.of(bracket, e[l]))
                omega = vec_sub(g.values[i][j], g.values[j][i])
                val = vec_sub(val, action.rho[l].apply(omega))
                row.append(val)
            plane.append(tuple(row))
        out.append(tuple(plane))
    return tuple(out)


def delta2_is_zero(action: BimoduleAction, g: Cocycle2) -> bool:
    return vec_is_zero(_flatten(delta2(action, g)))


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


def _flatten(nested: tuple) -> Vec:
    """The scalars of nested tuples of vectors (a cocycle's values, delta2's
    output), in row-major order."""
    if not isinstance(nested, tuple):
        return (nested,)
    return tuple(x for part in nested for x in _flatten(part))


def _unflatten_cocycle(flat: Vec, k_dim: int, v_dim: int) -> Cocycle2:
    rows = []
    for i in range(k_dim):
        row = []
        for j in range(k_dim):
            base = (i * k_dim + j) * v_dim
            row.append(tuple(flat[base: base + v_dim]))
        rows.append(tuple(row))
    return Cocycle2(tuple(rows))


def _delta1_columns(action: BimoduleAction) -> list[Vec]:
    """delta1 as a matrix on flattened maps: column i*v_dim + m is the
    flattened delta1 of the map K -> V sending e_i to e_m and the rest to 0."""
    k_dim, v_dim = action.k.dim, action.v_dim
    cols = []
    for i in range(k_dim):
        for m in range(v_dim):
            h_rows = [[Fraction(0)] * k_dim for _ in range(v_dim)]
            h_rows[m][i] = Fraction(1)
            cols.append(_flatten(delta1(action, QMatrix(h_rows)).values))
    return cols


@dataclass(frozen=True)
class H2Result:
    dim_h2: int
    dim_z2: int
    dim_b2: int
    representatives: tuple[Cocycle2, ...]
    b2_basis: tuple[Cocycle2, ...]


def h2(action: BimoduleAction) -> H2Result:
    """Second cohomology for (lambda, rho): Z2 = ker delta2, B2 = im delta1.

    Cocycles flatten to vectors indexed (i*k_dim + j)*v_dim + m, so both
    spaces reduce to one exact kernel and one echelon basis of the span of
    delta1's columns.  Data with B2 not inside Z2 is refused with
    ``ValueError``.
    """
    k_dim, v_dim = action.k.dim, action.v_dim
    n2 = k_dim * k_dim * v_dim
    d2_matrix = QMatrix.from_cols(
        [_flatten(delta2(action, _unflatten_cocycle(unit_vec(n2, i), k_dim, v_dim))) for i in range(n2)]
    )
    z2 = nullspace_basis(d2_matrix)

    b2 = list(Subspace.from_spanning(n2, _delta1_columns(action)).basis)
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
        representatives=tuple(_unflatten_cocycle(r, k_dim, v_dim) for r in reps),
        b2_basis=tuple(_unflatten_cocycle(b, k_dim, v_dim) for b in b2),
    )


def i_g(d: ExtensionData) -> Subspace:
    """I_[g] = {x in K : x.y = y.x = 0 and g(x, y) = g(y, x) = 0 for all y}."""
    k, g = d.k, d.g
    lefts, rights = _basis_mults(k)
    blocks = []
    for j in range(k.dim):
        blocks.append(rights[j])
        blocks.append(lefts[j])
        blocks.append(QMatrix.from_cols([g.values[i][j] for i in range(k.dim)]))
        blocks.append(QMatrix.from_cols([g.values[j][i] for i in range(k.dim)]))
    return Subspace.from_spanning(k.dim, nullspace_basis(vstack(blocks)))


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
    """Solve g1 - g2 = delta1 h exactly; returns h or None."""
    sols = solve(QMatrix.from_cols(_delta1_columns(action)), [_flatten((g1 - g2).values)])
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
