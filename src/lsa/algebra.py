"""Finite-dimensional algebras as rational structure constants.

An ``Algebra`` stores a tensor c with e_i * e_j = sum_k c[i][j][k] e_k
(0-based internally; all user-facing indices are 1-based).  The same type
carries left-symmetric products and Lie brackets (antisymmetric constants).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Sequence

from .linalg import (
    FractionLike,
    QMatrix,
    Vec,
    _cleared,
    _nilpotent_ints,
    char_poly,
    frac,
    nullspace_basis,
    quotient_basis,
    rational_roots,
    rref,
    solve,
    sqrt_fraction,
    unit_vec,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
    vstack,
    zero_vec,
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

    @property
    def params_dict(self) -> dict[str, Fraction]:
        return dict(self.params)

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
        """Canonical subspace: reduced-echelon basis of the span."""
        vecs = [v for v in vectors if not vec_is_zero(v)]
        if not vecs:
            return cls(ambient_dim, ())
        red, _ = rref(QMatrix.from_rows(vecs))
        basis = tuple(row for row in red.rows if not vec_is_zero(row))
        return cls(ambient_dim, basis)

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
    """sum_ijk x_i y_j c[i][j][k] e_k, with the sums started at ``zero``."""
    out = [zero] * len(x)
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


def _basis_mults(a: Algebra) -> tuple[list[QMatrix], list[QMatrix]]:
    """(L_e1..L_en, R_e1..R_en), read off the tensor: the columns of L_ei
    and R_ei are its rows c[i][j] = e_i*e_j and c[j][i] = e_j*e_i."""
    n = a.dim
    return (
        [QMatrix.from_cols(a.c[i]) for i in range(n)],
        [QMatrix.from_cols([a.c[j][i] for j in range(n)]) for i in range(n)],
    )


# The trilinear identities, checked on basis triples (i, j, k) by
# ``failures``.  Each row holds the identity's two sides as a function of
# the product p at (x, y, z) = (e_i, e_j, e_k), and the triples where it can
# fail.  Every identity changes sign under one swap of arguments (Jacobi, on
# antisymmetric brackets, under every swap), so it holds where the swapped
# indices coincide and fails at a triple exactly when it fails at the swapped
# one; the kept triple is the earlier of the two in product order, so the
# first failure is the one a scan over all n^3 triples finds.
IDENTITIES: dict[str, tuple[Callable, Callable[[int, int, int], bool]]] = {
    # (x*y)*z - (y*x)*z = x*(y*z) - y*(x*z)
    "left_symmetric": (
        lambda p, x, y, z: (
            vec_sub(p(p(x, y), z), p(p(y, x), z)),
            vec_sub(p(x, p(y, z)), p(y, p(x, z))),
        ),
        lambda i, j, k: i < j,
    ),
    # N: (x*y)*z = (x*z)*y
    "N": (lambda p, x, y, z: (p(p(x, y), z), p(p(x, z), y)), lambda i, j, k: j < k),
    # D: (x*y)*z = (z*y)*x
    "D": (lambda p, x, y, z: (p(p(x, y), z), p(p(z, y), x)), lambda i, j, k: i < k),
    # S: [x,y]*z = 0
    "S": (
        lambda p, x, y, z: (p(vec_sub(p(x, y), p(y, x)), z), zero_vec(len(z))),
        lambda i, j, k: i < j,
    ),
    # Jacobi, for antisymmetric brackets: [[x,y],z] + [[y,z],x] + [[z,x],y] = 0
    "jacobi": (
        lambda p, x, y, z: (
            vec_add(p(p(x, y), z), vec_add(p(p(y, z), x), p(p(z, x), y))),
            zero_vec(len(z)),
        ),
        lambda i, j, k: i < j < k,
    ),
}

ALL_PASS = "all triples pass"


def failures(a: Algebra, identity: str) -> Iterator[IdentityCheck]:
    """Every basis triple, in product order, where ``identity`` fails.

    Bilinearity makes the basis check complete; a skipped triple fails
    exactly when its swap, which is kept, does (see ``IDENTITIES``).

    The scan runs on the integer tensor d c, d the least common denominator
    of the structure constants.  Both sides of every identity are
    homogeneous of degree 2 in the structure constants, so scaling c by d
    scales both by d^2: the failing triples are the same, and the witness
    sides are the integer ones divided by d^2.
    """
    sides, can_fail = IDENTITIES[identity]
    n = a.dim
    d, rows = _cleared(v for plane in a.c for v in plane)
    c = [rows[i * n : (i + 1) * n] for i in range(n)]
    e = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    products: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[int, ...]] = {}

    def p(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
        xy = products.get((x, y))
        if xy is None:
            xy = products[x, y] = _product(c, x, y, 0)
        return xy

    d2 = d * d
    for i, j, k in itertools.product(range(n), repeat=3):
        if can_fail(i, j, k):
            lhs, rhs = sides(p, e[i], e[j], e[k])
            if lhs != rhs:
                yield IdentityCheck(
                    False,
                    (i + 1, j + 1, k + 1),
                    tuple(Fraction(v, d2) for v in lhs),
                    tuple(Fraction(v, d2) for v in rhs),
                )


def first_failure(a: Algebra, identity: str) -> IdentityCheck:
    """First basis triple, in product order, where ``identity`` fails."""
    return next(failures(a, identity), IdentityCheck(True))


def check_left_symmetric(a: Algebra) -> IdentityCheck:
    """(x*y)*z - (y*x)*z = x*(y*z) - y*(x*z), with the first failing triple."""
    return first_failure(a, "left_symmetric")


def lie_algebra_of(a: Algebra) -> Algebra:
    """Commutator brackets [x,y] = x*y - y*x; Jacobi is asserted."""
    n = a.dim
    b = [
        [
            tuple(a.c[i][j][k] - a.c[j][i][k] for k in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]
    lie = Algebra(n, tuple(tuple(plane) for plane in b), name=f"Lie({a.name})" if a.name else "", params=a.params)
    bad = first_failure(lie, "jacobi")
    if not bad.ok:
        raise ValueError(f"Jacobi identity fails at basis triple {bad.witness}; input is corrupted or not left-symmetric")
    return lie


def is_lie_algebra(a: Algebra) -> bool:
    n = a.dim
    antisymmetric = all(
        a.c[i][j] == vec_scale(-1, a.c[j][i]) for i in range(n) for j in range(i, n)
    )
    return antisymmetric and first_failure(a, "jacobi").ok


def _require_lie(a: Algebra) -> None:
    if not is_lie_algebra(a):
        raise ValueError("input is not a Lie algebra (antisymmetry or Jacobi fails)")


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Every tuple of ``parts`` natural numbers summing to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def is_complete(a: Algebra) -> bool:
    """True iff every right multiplication R_x is nilpotent, for all real x.

    R_x is nilpotent iff the coefficients c_1..c_n of char_poly(R_x) vanish,
    and R_x is linear in x, so c_k is a homogeneous polynomial of degree k
    in the coordinates of x.  The check runs over the simplex lattice
    {x in N^n : x_1 + ... + x_n = n}, C(2n-1, n) points (1, 3, 10, 35 for
    n = 1..4), and is exact:

    - on the hyperplane sum(x) = n, c_k is a polynomial of degree <= n in
      n - 1 affine coordinates, and the principal simplex lattice of order
      n is unisolvent for such polynomials, so c_k vanishes on the whole
      hyperplane;
    - c_k(x) = (sum(x) / n)^k c_k(n x / sum(x)) by homogeneity, so c_k
      vanishes wherever sum(x) != 0, a dense set, hence identically.

    Segal's criterion (complete iff tr R_x = 0 for all x) is not used: it
    holds only for left-symmetric algebras, and this decides any algebra.

    Scaling keeps nilpotency, so each R_x is built from the integer tensor
    d c, cleared once: R_x[k][j] = sum_i x_i c[j][i][k].
    """
    n = a.dim
    _, rows = _cleared(v for plane in a.c for v in plane)
    # cols[i][j] = c[j][i], column j of R_ei
    cols = [[rows[j * n + i] for j in range(n)] for i in range(n)]
    return all(
        _nilpotent_ints(
            [[sum(x * cols[i][j][k] for i, x in enumerate(point) if x) for j in range(n)] for k in range(n)]
        )
        for point in _compositions(n, n)
    )


def is_novikov(a: Algebra) -> bool:
    """N: (x*y)*z = (x*z)*y, i.e. the right multiplications commute."""
    return first_failure(a, "N").ok


def is_derivation_algebra(a: Algebra) -> bool:
    """D: (x*y)*z = (z*y)*x."""
    return first_failure(a, "D").ok


def satisfies_s(a: Algebra) -> bool:
    """S: [x,y]*z = 0."""
    return first_failure(a, "S").ok


def flag_witnesses(a: Algebra) -> dict[str, tuple[int, int, int] | str]:
    """For each of N/D/S, the first failing basis triple (1-based) or ALL_PASS."""
    return {flag: first_failure(a, flag).witness or ALL_PASS for flag in "NDS"}


def ndsflags(a: Algebra) -> tuple[bool, bool, bool]:
    """The N/D/S flags, read off ``flag_witnesses``."""
    return tuple(w == ALL_PASS for w in flag_witnesses(a).values())


def center(a: Algebra) -> Subspace:
    """{x : x*e_j = e_j*x = 0 for all j}, computed as one exact kernel."""
    lefts, rights = _basis_mults(a)
    return Subspace.from_spanning(a.dim, nullspace_basis(vstack([*lefts, *rights])))


def is_two_sided_ideal(a: Algebra, w: Subspace) -> bool:
    """W is an ideal iff W's basis with every e_i*w and w*e_i still spans a
    space of dimension dim W: one echelon form."""
    if w.ambient_dim != a.dim:
        raise ValueError("subspace ambient dimension mismatch")
    e = _basis(a)
    products = [p for wv in w.basis for x in e for p in (multiply(a, x, wv), multiply(a, wv, x))]
    return Subspace.from_spanning(a.dim, [*w.basis, *products]).dim == w.dim


def _joint_eigenvectors(mats: Sequence[QMatrix], spectra: Sequence[list[Fraction]]) -> set[Vec]:
    """Reduced-echelon basis vectors of the nonzero joint eigenspaces of
    ``mats`` over every choice of one eigenvalue from each spectrum."""
    eye = QMatrix.identity(mats[0].nrows)
    found: set[Vec] = set()
    for combo in itertools.product(*spectra):
        stacked = vstack([m - eye.scale(lam) for m, lam in zip(mats, combo)])
        found.update(Subspace.from_spanning(eye.nrows, nullspace_basis(stacked)).basis)
    return found


def find_ideals_dim_le3(a: Algebra) -> list[Subspace]:
    """Proper nonzero two-sided ideals with rational defining data (dim <= 3).

    The ideals are the subspaces invariant under every L_x and R_x, hence
    under the 2n operators L_ei and R_ei, and each is found by construction:

    - a joint eigenvector v of all L_ei and R_ei spans an ideal line, since
      x*v and v*x are multiples of v for every x;
    - if w is a joint eigenvector of all the transposes, the plane
      ker(w^T) = {y : w.y = 0} is an ideal: w.(M y) = (M^T w).y = lam w.y
      vanishes on it for each operator M.

    The transposes share the operators' spectra (char_poly(M^T) =
    char_poly(M)), so each spectrum is computed once, by rational-root
    enumeration.  Multidimensional joint eigenspaces are reported through
    their reduced-echelon basis vectors.  Irrational eigendata is out of
    reach by design, so an empty answer means "no rational ideal found",
    never "simple".
    """
    if a.dim > 3:
        raise ValueError("ideal search is implemented for dim <= 3 only")
    if a.dim <= 1:
        return []
    lefts, rights = _basis_mults(a)
    mats = [*lefts, *rights]
    spectra = []
    for m in mats:
        spectra.append(rational_roots(char_poly(m)))
        if not spectra[-1]:
            return []
    # a reduced-echelon row is already the canonical basis of its line
    found = [Subspace(a.dim, (v,)) for v in _joint_eigenvectors(mats, spectra)]
    if a.dim == 3:
        found += {
            Subspace.from_spanning(3, nullspace_basis(QMatrix([w])))
            for w in _joint_eigenvectors([m.transpose() for m in mats], spectra)
        }
    found.sort(key=lambda s: (s.dim, s.basis))
    return found


def is_unimodular(lie: Algebra) -> bool:
    _require_lie(lie)
    e = _basis(lie)
    return all(left_mult(lie, x).trace() == 0 for x in e)


def derived_subspace(lie: Algebra, w: Subspace) -> Subspace:
    products = [
        multiply(lie, u, v)
        for u in w.basis
        for v in w.basis
    ]
    return Subspace.from_spanning(lie.dim, products)


def is_solvable(lie: Algebra) -> bool:
    _require_lie(lie)
    current = Subspace.from_spanning(lie.dim, _basis(lie))
    while current.dim > 0:
        nxt = derived_subspace(lie, current)
        if nxt.dim == current.dim:
            return False
        current = nxt
    return True


def milnor_normal_form(lie: Algebra) -> MilnorForm:
    """Adapted basis (e1, u1, u2) with U = ker(x -> tr ad_x) abelian and
    tr(ad_e1 | U) = 2; returns ad_e1 restricted to U and its determinant.

    e1 is the first standard basis vector outside U, i.e. the first e_i with
    tr ad_ei != 0, scaled by 2 / tr ad_ei; the echelon basis of U makes the
    construction deterministic.
    """
    _require_lie(lie)
    if lie.dim != 3:
        raise ValueError("Milnor normal form requires dimension 3")
    e = _basis(lie)
    # tr ad_ei = sum_j c[i][j][j]
    trace_row = [sum((lie.c[i][j][j] for j in range(3)), Fraction(0)) for i in range(3)]
    if all(t == 0 for t in trace_row):
        # Solvability only picks the reason: a non-solvable 3D real Lie
        # algebra is its own Levi factor, so it is simple, hence perfect
        # ([g, g] = g), hence unimodular (tr ad_[x,y] = tr [ad_x, ad_y] = 0).
        # A nonzero trace row therefore already implies solvable.
        raise NotInScopeError("Lie algebra is unimodular" if is_solvable(lie) else "Lie algebra is not solvable")
    u_space = Subspace.from_spanning(3, nullspace_basis(QMatrix([trace_row])))
    assert u_space.dim == 2
    u1, u2 = u_space.basis
    if not vec_is_zero(multiply(lie, u1, u2)):
        raise NotInScopeError("kernel of the trace form is not abelian")
    i, tr = next((i, t) for i, t in enumerate(trace_row) if t != 0)
    e1 = vec_scale(Fraction(2) / tr, e[i])
    cols = solve(QMatrix.from_cols([u1, u2]), [multiply(lie, e1, u) for u in (u1, u2)])
    if cols is None:
        raise NotInScopeError("trace-form kernel is not ad_e1 invariant")
    d = QMatrix.from_cols(cols)
    assert d.trace() == 2
    det_d = d.rows[0][0] * d.rows[1][1] - d.rows[0][1] * d.rows[1][0]
    return MilnorForm(d, (e1, u1, u2), det_d)


def identify_lie_algebra(lie: Algebra) -> LieTag:
    """The isomorphism class, read off the Milnor form (``_tag_of_form``)."""
    try:
        form = milnor_normal_form(lie)
    except NotInScopeError as err:
        return LieTag("not_in_scope", reason=str(err))
    return _tag_of_form(form)


def _tag_of_form(form: MilnorForm) -> LieTag:
    """Decide the isomorphism class from det(D) of the Milnor form.

    d = 0 -> G31; d = 1 -> G32 if D = I else G33; d in (0,1) or d < 0 ->
    G34 with 4 mu / (1+mu)^2 = d and |mu| < 1; d > 1 -> G35 with
    zeta = sqrt(d-1).  Parameters of rational-parameter inputs recover
    exactly; otherwise the tag is flagged non-exact.
    """
    d = form.det_d
    if d == 0:
        return LieTag("G31")
    if d == 1:
        if form.d == QMatrix.identity(2):
            return LieTag("G32")
        return LieTag("G33")
    if d > 1:
        z = sqrt_fraction(d - 1)
        if z is not None:
            return LieTag("G35", zeta=z)
        return LieTag("G35", zeta=float(d - 1) ** 0.5, exact=False)
    # 0 < d < 1 or d < 0: solve d mu^2 + (2d-4) mu + d = 0, pick |mu| < 1
    disc = 1 - d
    s = sqrt_fraction(disc)
    if s is not None:
        for mu in ((2 - d + 2 * s) / d, (2 - d - 2 * s) / d):
            if 0 < abs(mu) < 1:
                return LieTag("G34", mu=mu)
        raise RuntimeError("mu recovery failed; internal bug")
    sf = float(disc) ** 0.5
    df = float(d)
    for muf in ((2 - df + 2 * sf) / df, (2 - df - 2 * sf) / df):
        if 0 < abs(muf) < 1 - 1e-12:
            return LieTag("G34", mu=muf, exact=False)
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
    """Span of all products x*y, i.e. of the tensor's rows e_i*e_j."""
    return Subspace.from_spanning(a.dim, [v for plane in a.c for v in plane])
