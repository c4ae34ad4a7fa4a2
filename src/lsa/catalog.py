"""Built-in catalog: the eleven complete left-symmetric structures on
3-dimensional solvable non-unimodular Lie algebras (the table ``ENTRIES``),
the five Lie algebra families they live on (``LIE_FAMILIES``), small fixture
algebras, extension data that rebuilds every entry, and the end-to-end
verification pipeline.

One transcription note, preserved as evidence rather than silently fixed:
the widely-quoted product listing for D32 reads e2*e2 = e1, which is not
left-symmetric ((e1*e2)*e2 - (e2*e1)*e2 != e1*(e2*e2) - e2*(e1*e2)).  The
form stored here, with e3*e3 = e2 instead, is exactly what the extension
construction produces before relabeling, is left-symmetric and complete,
and matches the claimed invariants.  ``d32_rejected_variant`` keeps the
other form around so the discrepancy is rerunnable.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Sequence

from .algebra import (
    Algebra,
    LieTag,
    Subspace,
    _combination,
    _commutator_brackets,
    _commutator_tag,
    _int_span,
    _mult_blocks,
    _trace_row,
    check_left_symmetric,
    find_ideals_dim_le3,
    flag_witnesses,
    is_complete,
    ndsflags,
    quotient_algebra,
    restriction_to_ideal,
)
from .extensions import (
    BimoduleAction,
    Cocycle2,
    ExtensionData,
    ExtensionError,
    build_extension,
    trivial_action,
    verify_iso_witness,
)
from .linalg import (
    QMatrix,
    _echelon_rows,
    _int_rank,
    _int_rref,
    frac,
    symmetric_signature,
)

F = Fraction


class ParameterError(ValueError):
    """A family parameter violates its constraint."""


def _sample_t(rng) -> Fraction:
    t = F(1)
    while t == 1:
        t = F(rng.randint(-6, 6), rng.randint(1, 4))
    return t


def _sample_mu(rng) -> Fraction:
    mu = F(0)
    while mu == 0:
        den = rng.randint(2, 9)
        mu = F(rng.randint(-den + 1, den - 1), den)
    return mu


@dataclass(frozen=True)
class Param:
    """The one rational parameter of a family: its name, its constraint (as
    text and as a predicate), its default values and a seeded sampler of
    admissible values.  A catalog entry and the Lie family it claims share
    the same ``Param`` (mu for D31mu and G34, zeta for E31zeta and G35)."""

    name: str
    constraint: str
    admissible: Callable[[Fraction], bool]
    defaults: tuple[Fraction, ...]
    sample: Callable[[random.Random], Fraction]


T = Param("t", "t != 1", lambda t: t != 1, (F(2),), _sample_t)
MU = Param("mu", "0 < |mu| < 1", lambda m: 0 < abs(m) < 1, (F(1, 2), F(-1, 2)), _sample_mu)
ZETA = Param("zeta", "zeta > 0", lambda z: z > 0, (F(1),),
             lambda rng: F(rng.randint(1, 8), rng.randint(1, 4)))

# A structure constant is a constant or a pair (c0, c1) meaning c0 + c1 * p,
# p the row's parameter: every constant of the table is affine in p.
Coeff = int | Fraction | tuple[int, int]


def _at(coeffs: Mapping, p: Fraction | None) -> dict:
    """The coefficients of a sparse table at parameter value p."""
    return {key: F(c[0]) + c[1] * p if isinstance(c, tuple) else F(c) for key, c in coeffs.items()}


def _param_value(name: str, param: Param | None, params: Mapping[str, Fraction]) -> Fraction | None:
    """The value of ``param`` in ``params``, which must hold exactly it."""
    if param is None:
        if params:
            raise ParameterError(f"{name} takes no parameters")
        return None
    if set(params) != {param.name}:
        raise ParameterError(f"{name} requires exactly parameter '{param.name}'")
    value = frac(params[param.name])
    if not param.admissible(value):
        raise ParameterError(f"constraint violated for {name}: {param.constraint}")
    return value


def _default_points(param: Param | None) -> tuple[dict, ...]:
    return ({},) if param is None else tuple({param.name: v} for v in param.defaults)


@dataclass(frozen=True)
class LieFamily:
    """One row of the Lie family table: 1-based brackets
    {(i, j): {k: coefficient}} with i < j, and the family parameter."""

    brackets: Mapping[tuple[int, int], Mapping[int, Coeff]]
    param: Param | None = None


LIE_FAMILIES: dict[str, LieFamily] = {
    "G31": LieFamily({(1, 2): {2: 1}}),
    "G32": LieFamily({(1, 2): {2: 1}, (1, 3): {3: 1}}),
    "G33": LieFamily({(1, 2): {2: 1, 3: 1}, (1, 3): {3: 1}}),
    "G34": LieFamily({(1, 2): {2: 1}, (1, 3): {3: (0, 1)}}, MU),
    "G35": LieFamily({(1, 2): {2: 1, 3: (0, 1)}, (1, 3): {2: (0, -1), 3: 1}}, ZETA),
}


@dataclass(frozen=True)
class CatalogEntry:
    """One row of the classification table.

    ``products`` are the sparse 1-based products {(i, j, k): coefficient},
    e_i * e_j = coefficient e_k.  The claimed Lie family's parameter is the
    entry's own parameter when the entry has one (D31mu, E31zeta), else the
    constant ``lie_param`` (D32 claims G34 at mu = 1/2).
    """

    name: str
    claimed_lie: str
    claimed_flags: tuple[bool, bool, bool]  # (N, D, S)
    products: Mapping[tuple[int, int, int], Coeff]
    param: Param | None = None
    lie_param: Fraction | None = None

    @property
    def default_params(self) -> tuple[dict, ...]:
        return _default_points(self.param)

    def make(self, params: Mapping[str, Fraction] | None = None) -> Algebra:
        p = {k: frac(v) for k, v in (params or {}).items()}
        value = _param_value(self.name, self.param, p)
        return Algebra.from_entries(3, _at(self.products, value), self.name, params=p)

    def claimed_tag(self, params: Mapping[str, Fraction]) -> LieTag:
        family_param = LIE_FAMILIES[self.claimed_lie].param
        if family_param is None:
            return LieTag(self.claimed_lie)
        value = self.lie_param if self.param is None else params[self.param.name]
        return LieTag(self.claimed_lie, **{family_param.name: frac(value)})

    def sample_params(self, rng) -> dict:
        return {} if self.param is None else {self.param.name: self.param.sample(rng)}


_ALL = (True, True, True)

ENTRIES: dict[str, CatalogEntry] = {entry.name: entry for entry in (
    CatalogEntry("N30", "G31", _ALL, {(1, 2, 2): 1}),
    CatalogEntry("N31", "G31", _ALL, {(1, 1, 3): 1, (1, 2, 2): 1}),
    CatalogEntry("N32", "G31", (False, False, True), {(1, 2, 2): 1, (3, 3, 1): 1}),
    CatalogEntry("N33", "G31", (False, False, True), {(1, 2, 2): 1, (3, 3, 1): -1}),
    CatalogEntry("B30", "G32", _ALL, {(1, 2, 2): 1, (1, 3, 3): 1}),
    CatalogEntry("B31", "G32", (False, True, False),
                 {(1, 2, 2): 1, (1, 2, 3): 1, (2, 1, 3): 1, (1, 3, 3): 1}),
    CatalogEntry("C31", "G33", _ALL, {(1, 2, 2): 1, (1, 2, 3): 1, (1, 3, 3): 1}),
    CatalogEntry("C3t", "G33", (False, True, False),
                 {(1, 2, 2): 1, (1, 2, 3): (0, 1), (1, 3, 3): 1, (2, 1, 3): (-1, 1)}, T),
    CatalogEntry("D31mu", "G34", _ALL, {(1, 2, 2): 1, (1, 3, 3): (0, 1)}, MU),
    CatalogEntry("D32", "G34", (True, False, False),
                 {(1, 2, 2): 1, (1, 3, 3): F(1, 2), (3, 3, 2): 1}, lie_param=F(1, 2)),
    CatalogEntry("E31zeta", "G35", _ALL,
                 {(1, 2, 2): 1, (1, 2, 3): (0, 1), (1, 3, 2): (0, -1), (1, 3, 3): 1}, ZETA),
)}

ENTRY_NAMES = tuple(ENTRIES)


def validate_params(name: str, params: Mapping[str, Fraction]) -> None:
    """Refuse parameters other than exactly the admissible parameter of the
    catalog entry or Lie family ``name``."""
    row = ENTRIES[name] if name in ENTRIES else LIE_FAMILIES[name]
    _param_value(name, row.param, params)


def make_lsa(name: str, **params) -> Algebra:
    """Catalog left-symmetric algebra by name, at the given rational parameters."""
    if name not in ENTRIES:
        raise KeyError(f"unknown catalog entry {name!r}")
    return ENTRIES[name].make(params)


def d32_rejected_variant() -> Algebra:
    """The e2*e2 = e1 transcription of D32; fails check_left_symmetric."""
    return Algebra.from_entries(
        3, {(1, 2, 2): 1, (1, 3, 3): F(1, 2), (2, 2, 1): 1}, "D32-rejected"
    )


def make_lie(name: str, **params) -> Algebra:
    """Solvable non-unimodular 3D Lie algebra family by name."""
    if name not in LIE_FAMILIES:
        raise KeyError(f"unknown Lie family {name!r}")
    family = LIE_FAMILIES[name]
    p = {k: frac(v) for k, v in params.items()}
    value = _param_value(name, family.param, p)
    brackets = {ij: _at(ks, value) for ij, ks in family.brackets.items()}
    return Algebra.from_brackets(3, brackets, name, params=p)


def catalog_lsas() -> list[CatalogEntry]:
    return list(ENTRIES.values())


def catalog_lie_algebras() -> list[Algebra]:
    """The five families at their parameter's first default (mu = 1/2, zeta = 1)."""
    return [make_lie(name, **_default_points(f.param)[0]) for name, f in LIE_FAMILIES.items()]


# Small algebras that the reconstruction cases extend, built once: an
# ``Algebra`` is immutable.  Each keeps its table (``Algebra.table``) for the
# process, as it keeps its tensor.
_FIXTURES: dict[str, Algebra] = {
    "A1_inv": Algebra.from_entries(3, {(1, 2, 2): 1, (1, 3, 3): -1, (2, 3, 1): 1, (3, 2, 1): 1}, "A1_inv"),
    "r2_zero": Algebra.from_entries(2, {}, "r2_zero"),
    "r2_square": Algebra.from_entries(2, {(2, 2, 1): 1}, "r2_square"),
    "N2": Algebra.from_entries(2, {(1, 2, 2): 1}, "N2"),
    "aff_R": Algebra.from_brackets(2, {(1, 2): {2: 1}}, "aff_R"),
    "R0": Algebra.from_entries(1, {}, "R0"),
}


def fixtures() -> dict[str, Algebra]:
    """The fixture algebras by name, in a fresh dict."""
    return dict(_FIXTURES)


# ---------------------------------------------------------------------------
# Extension data that rebuilds each catalog entry, with explicit isomorphism
# witnesses onto the stored forms.  Witness columns are the target
# coordinates of the extension basis (base block first, then the kernel).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReconstructionCase:
    label: str
    target: str
    target_params: dict
    data: ExtensionData
    witness: QMatrix


def _cocycle_1d_base(e_vec: Sequence) -> Cocycle2:
    return Cocycle2((((tuple(frac(x) for x in e_vec)),),))


def _cocycle_2d_scalar(rows: Sequence[Sequence]) -> Cocycle2:
    return Cocycle2(
        tuple(tuple((frac(x),) for x in row) for row in rows)
    )


def _scalar_action(k: Algebra, lams: Sequence, rhos: Sequence) -> BimoduleAction:
    return BimoduleAction(
        k,
        1,
        tuple(QMatrix([[frac(x)]]) for x in lams),
        tuple(QMatrix([[frac(x)]]) for x in rhos),
    )


def case1_r2_trivial(alpha, s) -> ReconstructionCase:
    """1D kernel over the zero product on R^2; lands on N30."""
    alpha, s = frac(alpha), frac(s)
    if alpha == 0:
        raise ParameterError("case requires alpha != 0")
    k = _FIXTURES["r2_zero"]
    v = _FIXTURES["R0"]
    data = ExtensionData(
        k, v, _scalar_action(k, [alpha, 0], [0, 0]), _cocycle_2d_scalar([[0, s], [0, 0]])
    )
    t = s / alpha
    witness = QMatrix.from_cols([(alpha, 0, 0), (0, t, 1), (0, 1, 0)])
    return ReconstructionCase("case1/trivial-R2", "N30", {}, data, witness)


def case1_n2_central(t) -> ReconstructionCase:
    """Central 1D extension of the nonabelian 2D algebra; N30 or N31."""
    t = frac(t)
    k = _FIXTURES["N2"]
    v = _FIXTURES["R0"]
    data = ExtensionData(k, v, trivial_action(k, 1), _cocycle_2d_scalar([[t, 0], [0, 0]]))
    if t == 0:
        return ReconstructionCase("case1/N2-central", "N30", {}, data, QMatrix.identity(3))
    witness = QMatrix.diag([1, 1, 1 / t])
    return ReconstructionCase("case1/N2-central", "N31", {}, data, witness)


def case1_n2_identity(t) -> ReconstructionCase:
    """Nontrivial action with symmetric cocycle; B30 or B31."""
    t = frac(t)
    k = _FIXTURES["N2"]
    v = _FIXTURES["R0"]
    data = ExtensionData(
        k, v, _scalar_action(k, [1, 0], [0, 0]), _cocycle_2d_scalar([[0, t], [t, 0]])
    )
    if t == 0:
        return ReconstructionCase("case1/N2-identity", "B30", {}, data, QMatrix.identity(3))
    return ReconstructionCase("case1/N2-identity", "B31", {}, data, QMatrix.diag([1, 1, 1 / t]))


def case1_n2_jordan(t) -> ReconstructionCase:
    """Cocycle with antisymmetric part 1; C31 or C3t."""
    t = frac(t)
    k = _FIXTURES["N2"]
    v = _FIXTURES["R0"]
    data = ExtensionData(
        k, v, _scalar_action(k, [1, 0], [0, 0]), _cocycle_2d_scalar([[0, t], [t - 1, 0]])
    )
    if t == 1:
        return ReconstructionCase("case1/N2-jordan", "C31", {}, data, QMatrix.identity(3))
    return ReconstructionCase("case1/N2-jordan", "C3t", {"t": t}, data, QMatrix.identity(3))


def case1_n2_diag(mu) -> ReconstructionCase:
    """Scaled action, vanishing cohomology; D31(mu)."""
    mu = frac(mu)
    k = _FIXTURES["N2"]
    v = _FIXTURES["R0"]
    data = ExtensionData(
        k, v, _scalar_action(k, [mu, 0], [0, 0]), Cocycle2.zero(2, 1)
    )
    return ReconstructionCase("case1/N2-diag", "D31mu", {"mu": mu}, data, QMatrix.identity(3))


def case2_n2_kernel(b, dd, s, sign=1) -> ReconstructionCase:
    """2D nonabelian kernel under a 1D base; N30, N32, or N33.

    t = sign * s^2 keeps the rescaling witness rational.
    """
    b, dd, s = frac(b), frac(dd), frac(s)
    t = sign * s * s
    k = _FIXTURES["R0"]
    v = _FIXTURES["N2"]
    action = BimoduleAction(
        k, 2, (QMatrix([[0, 0], [0, dd]]),), (QMatrix([[0, 0], [-b, 0]]),)
    )
    data = ExtensionData(k, v, action, _cocycle_1d_base((t, -b * dd)))
    if s == 0:
        witness = QMatrix.from_cols([(dd, -b, 1), (1, 0, 0), (0, 1, 0)])
        return ReconstructionCase("case2/N2-kernel", "N30", {}, data, witness)
    witness = QMatrix.from_cols([(dd, -b, s), (1, 0, 0), (0, 1, 0)])
    target = "N32" if sign > 0 else "N33"
    return ReconstructionCase("case2/N2-kernel", target, {}, data, witness)


def _case3_data(k: Algebra, v: Algebra, lam_rows, rho_rows, e_vec) -> ExtensionData:
    action = BimoduleAction(k, 2, (QMatrix(lam_rows),), (QMatrix(rho_rows),))
    return ExtensionData(k, v, action, _cocycle_1d_base(e_vec))


def case3_trivial_diag10(s, t) -> ReconstructionCase:
    """Abelian 2D kernel, projector action; N30 or N31."""
    s, t = frac(s), frac(t)
    k, v = _FIXTURES["R0"], _FIXTURES["r2_zero"]
    data = _case3_data(k, v, [[1, 0], [0, 0]], [[0, 0], [0, 0]], (s, t))
    if t == 0:
        witness = QMatrix.from_cols([(1, s, 0), (0, 1, 0), (0, 0, 1)])
        return ReconstructionCase("case3/diag10", "N30", {}, data, witness)
    witness = QMatrix.from_cols([(1, s, 0), (0, 1, 0), (0, 0, 1 / t)])
    return ReconstructionCase("case3/diag10", "N31", {}, data, witness)


def case3_trivial_identity(alpha) -> ReconstructionCase:
    """Unipotent-coupled identity action; B30 or B31."""
    a = frac(alpha)
    k, v = _FIXTURES["R0"], _FIXTURES["r2_zero"]
    data = _case3_data(k, v, [[1, a], [0, 1]], [[0, a], [0, 0]], (a * a, a))
    if a == 0:
        return ReconstructionCase("case3/identity", "B30", {}, data, QMatrix.identity(3))
    witness = QMatrix.from_cols([(1, a, -a), (0, 0, 1 / a), (0, 1, 0)])
    return ReconstructionCase("case3/identity", "B31", {}, data, witness)


def case3_trivial_jordan(alpha) -> ReconstructionCase:
    """Jordan-block action; C31 or C3t with t = alpha + 1."""
    a = frac(alpha)
    k, v = _FIXTURES["R0"], _FIXTURES["r2_zero"]
    data = _case3_data(k, v, [[1, a + 1], [0, 1]], [[0, a], [0, 0]], (a, a))
    witness = QMatrix.from_cols([(1, a, -2 * a * a), (0, 0, 1), (0, 1, 0)])
    if a == 0:
        return ReconstructionCase("case3/jordan", "C31", {}, data, witness)
    return ReconstructionCase("case3/jordan", "C3t", {"t": a + 1}, data, witness)


def case3_trivial_diagmu(mu) -> ReconstructionCase:
    mu = frac(mu)
    k, v = _FIXTURES["R0"], _FIXTURES["r2_zero"]
    data = _case3_data(k, v, [[1, 0], [0, mu]], [[0, 0], [0, 0]], (1, mu))
    witness = QMatrix.from_cols([(1, 1, 1), (0, 1, 0), (0, 0, 1)])
    return ReconstructionCase("case3/diagmu", "D31mu", {"mu": mu}, data, witness)


def case3_trivial_rotation(zeta) -> ReconstructionCase:
    z = frac(zeta)
    k, v = _FIXTURES["R0"], _FIXTURES["r2_zero"]
    data = _case3_data(k, v, [[1, -z], [z, 1]], [[0, 0], [0, 0]], (2 * z, z * z - 1))
    witness = QMatrix.from_cols([(1, z, -1), (0, 1, 0), (0, 0, 1)])
    return ReconstructionCase("case3/rotation", "E31zeta", {"zeta": z}, data, witness)


def case3_square_kernel(alpha, t) -> ReconstructionCase:
    """Kernel with e2*e2 = e1; the only surviving action scale is 1/2; D32."""
    a, t = frac(alpha), frac(t)
    k, v = _FIXTURES["R0"], _FIXTURES["r2_square"]
    data = _case3_data(k, v, [[1, a], [0, F(1, 2)]], [[0, a], [0, 0]], (t, a / 2))
    witness = QMatrix.from_cols([(1, -(a * a - t), a), (0, 1, 0), (0, 0, 1)])
    return ReconstructionCase("case3/square", "D32", {}, data, witness)


def reconstruction_cases(rng: random.Random | None = None) -> list[ReconstructionCase]:
    """Default plus (optionally) randomized parameter choices for every path."""
    rng = rng or random.Random(0)

    def nz(lo=-4, hi=4, den=3):
        x = F(0)
        while x == 0:
            x = F(rng.randint(lo, hi), rng.randint(1, den))
        return x

    return [
        case1_r2_trivial(nz(), F(rng.randint(-4, 4), rng.randint(1, 3))),
        case1_n2_central(F(0)),
        case1_n2_central(nz()),
        case1_n2_identity(F(0)),
        case1_n2_identity(nz()),
        case1_n2_jordan(F(1)),
        case1_n2_jordan(F(2)),
        case1_n2_jordan(nz() + 1),  # nz() != 0 keeps t != 1
        case1_n2_diag(F(1, 2)),
        case1_n2_diag(F(-1, 2)),
        case2_n2_kernel(nz(), nz(), F(0)),
        case2_n2_kernel(nz(), nz(), nz(), sign=1),
        case2_n2_kernel(nz(), nz(), nz(), sign=-1),
        case3_trivial_diag10(nz(), F(0)),
        case3_trivial_diag10(nz(), nz()),
        case3_trivial_identity(F(0)),
        case3_trivial_identity(nz()),
        case3_trivial_jordan(F(0)),
        case3_trivial_jordan(nz()),
        case3_trivial_diagmu(F(1, 2)),
        case3_trivial_diagmu(F(-1, 2)),
        case3_trivial_rotation(F(1)),
        case3_trivial_rotation(nz(1, 4)),
        case3_square_kernel(nz(), F(rng.randint(-4, 4), rng.randint(1, 3))),
    ]


# ---------------------------------------------------------------------------
# Fingerprints: isomorphism invariants certifying non-isomorphism when they
# differ.  Every component is basis-free; the two refined components (a
# quadratic-form signature and an induced-action ratio) separate the pairs
# the coarse data cannot.
# ---------------------------------------------------------------------------


class _Spans(NamedTuple):
    """What ``fingerprint`` reads off the cleared tensor of an algebra's
    table: ``rows[i n + j]`` = d e_i*e_j with d the least common
    denominator, the integer blocks of the stacked L_ei and R_ei
    (``_mult_blocks``), the product span P, P's echelon basis times one
    common pivot D > 0 as ints, its pivot columns and
    W = P*A + A*P.  Scaling by d > 0 keeps every span, rank and kernel."""

    rows: list[list[int]]
    lefts: list[list[int]]
    rights: list[list[int]]
    p: Subspace
    basis: list[list[int]]
    pivots: list[int]
    w: Subspace


def _spans(a: Algebra) -> _Spans:
    """The ``_Spans`` of an algebra, read off its table's rows: P is the
    span of the rows, from one ``_int_rref``, and W the span of every e_i*w
    and w*e_i, w in the integer basis of P that it leaves.  Each of those
    basis rows is a multiple of a reduced-echelon row; scaled to the lcm D
    of their pivots, they are D times P's echelon basis, with no second
    clear."""
    n, rows = a.dim, a.table.rows
    p_rows, pivots = _int_rref([list(row) for row in rows])
    # e_i*w = sum_k w_k e_i*e_k and w*e_i = sum_k w_k e_k*e_i
    factors = [rows[i * n : (i + 1) * n] for i in range(n)] + [rows[i::n] for i in range(n)]
    products = [_combination(w, vectors, n) for w in p_rows for vectors in factors]
    p = Subspace(n, tuple(_echelon_rows(p_rows, pivots)))
    common = math.lcm(*(row[k] for row, k in zip(p_rows, pivots)))
    basis = [[x * (common // row[k]) for x in row] for row, k in zip(p_rows, pivots)]
    return _Spans(rows, *_mult_blocks(rows, n), p, basis, pivots, _int_span(n, products))


def _annihilator_dims(a: Algebra, s: _Spans) -> tuple[int, int]:
    """(dim {x : x*A = 0}, dim {x : A*x = 0}): the nullities of the stacked
    integer R block and of the stacked L block.

    L_x = 0 iff x*A = 0, and R_x = 0 iff A*x = 0, so by rank-nullity the
    spans of the L_x and of the R_x have dimensions n minus these two: the
    operator spans are not a component, as they could never differ first."""
    return a.dim - _int_rank(s.rights), a.dim - _int_rank(s.lefts)


def _symmetrized_products(rows: Sequence[Sequence[int]], n: int) -> list[list[int]]:
    """d (e_i*e_j + e_j*e_i) for every (i, j) in row-major order, from the
    cleared tensor rows[i n + j] = d e_i*e_j."""
    return [[x + y for x, y in zip(rows[i * n + j], rows[j * n + i])] for i in range(n) for j in range(n)]


def _square_form_signature(a: Algebra, s: _Spans) -> tuple[int, int, int] | None:
    """Signature of v -> [v*v] in P/W, normalized by trace of left actions.

    P = span of products, W = P*A + A*P.  Defined when dim P = 2 and
    dim W = 1, the trace functional p -> tr(L_p) kills W and is nonzero on
    P; the form is then a canonical rational quadratic form on the algebra
    and its signature is an isomorphism invariant.
    """
    p, w = s.p, s.w
    if p.dim != 2 or w.dim != 1:
        return None
    row = _trace_row(a.table.c)
    tr_w, *tr_p = (sum(t * x for t, x in zip(row, v)) for v in (*w.basis, *p.basis))
    if tr_w != 0 or not any(tr_p):
        return None
    # tr L is a coordinate on the line P/W, so the form's matrix is half tr L
    # of e_i*e_j + e_j*e_i; the factor 1/2, and the d of the cleared rows, do
    # not change a signature, so they are left out
    n = a.dim
    values = [sum(t * x for t, x in zip(row, v)) for v in _symmetrized_products(s.rows, n)]
    return symmetric_signature(QMatrix([values[i * n : (i + 1) * n] for i in range(n)]))


def _induced_action_ratio(a: Algebra, s: _Spans) -> str | None:
    """Scale-free invariant of the quotient action on P = span of products.

    When P is a 2D ideal with 1D quotient and every p in P acts trivially on
    P, any lift x of the quotient generator induces well-defined operators
    Lb, Rb on P.  The ratio Rb = c (Lb - (tr Lb / 2) I) is independent of
    the lift and scaling; returned as a string ('none' cases excluded).

    Everything is read on ints: the products off the cleared rows
    s.rows[i n + j] = d e_i*e_j, with P's echelon basis times one common
    pivot D (``s.basis``).  In that basis a vector's coordinates are still
    its entries at P's pivot columns, over D, so the matrices read there
    are d D Lb and d D Rb: one factor for both, which the ratio does not
    see.
    """
    p = s.p
    n = a.dim
    if p.dim != 2 or n - p.dim != 1:
        return None
    rows, basis = s.rows, s.basis
    # P acts trivially on P: u*v = sum_i u_i e_i*v vanishes for u, v in P,
    # with e_i*v = sum_k v_k e_i*e_k
    if any(
        any(_combination(u, [_combination(v, rows[i * n : (i + 1) * n], n) for i in range(n)], n))
        for u in basis
        for v in basis
    ):
        return None
    # P's echelon basis is zero at the one column q without a pivot, so e_q
    # has zero coordinates in P: it lies outside P and lifts the generator;
    # e_q*u = sum_k u_k e_q*e_k and u*e_q = sum_k u_k e_k*e_q
    q = next(k for k in range(n) if k not in s.pivots)
    # P holds every product, so e_q*P and P*e_q stay in P and both restrict
    factors = (rows[q * n : (q + 1) * n], rows[q::n])
    images = [[_combination(u, side, n) for u in basis] for side in factors]
    lb, rb = ([[image[k] for image in side] for k in s.pivots] for side in images)
    # 2 (Lb - (tr Lb / 2) I) and 2 Rb, the same multiple of both
    tr = lb[0][0] + lb[1][1]
    flat1 = [2 * x - tr * (k == m) for k, row in enumerate(lb) for m, x in enumerate(row)]
    flat2 = [2 * x for row in rb for x in row]
    if not any(flat1):
        return "inf" if any(flat2) else "0/0"
    pivot = next(i for i, x in enumerate(flat1) if x != 0)
    if any(f2 * flat1[pivot] != flat2[pivot] * f1 for f1, f2 in zip(flat1, flat2)):
        return None
    return str(F(flat2[pivot], flat1[pivot]))


# The fingerprint's components in order, each with the label that names it
# in the distinctness evidence.  Each is a function of the algebra and of
# its ``_Spans``, which is computed once per fingerprint; the rank
# components are ranks of integer matrices from the table's cleared tensor
# (the center is the kernel of the stacked L and R blocks, as in
# ``center``).  The Lie tag and the N/D/S flags are the ones the table keeps
# once decided, so an algebra that ``verify_entry`` audited is not decided
# again.  Invariants from other modules are called through their
# module-level names, so rebinding those names (as the perfbench tracer
# does) reaches these calls too.
FINGERPRINT: tuple[tuple[str, Callable[[Algebra, _Spans], object]], ...] = (
    ("lie_tag", lambda a, s: str(_commutator_tag(a))),
    ("dim_center", lambda a, s: a.dim - _int_rank(s.lefts + s.rights)),
    ("dim_products", lambda a, s: s.p.dim),
    ("dim_squares", lambda a, s: _int_rank(_symmetrized_products(s.rows, a.dim))),
    ("dim_PA+AP", lambda a, s: s.w.dim),
    ("annihilators", _annihilator_dims),
    ("flags_NDS", lambda a, s: ndsflags(a)),
    ("square_form_signature", _square_form_signature),
    ("induced_action_ratio", _induced_action_ratio),
)


def fingerprint(a: Algebra) -> tuple:
    """Isomorphism-invariant tuple; differing fingerprints certify
    non-isomorphism, equal fingerprints certify nothing.  The components
    are read off a's table (``FINGERPRINT``)."""
    if a.dim != 3:
        raise ValueError("fingerprint is defined for dimension 3")
    s = _spans(a)
    return tuple(invariant(a, s) for _, invariant in FINGERPRINT)


# ---------------------------------------------------------------------------
# Verification pipeline
# ---------------------------------------------------------------------------


def _params_str(params: Mapping[str, Fraction]) -> dict[str, str]:
    return {k: str(v) for k, v in sorted(params.items())}


def verify_entry(entry: CatalogEntry, algebras: Sequence[Algebra]) -> dict:
    """All checks for one catalog entry at every sample, each an algebra
    that ``entry.make`` built, with its parameters in ``a.params``.

    Every verdict is asked of the sample through the public predicates,
    which read its one table (``Algebra.table``) and keep what they decide:

    - left symmetry and the N/D/S flags are scans of the table;
    - completeness is defined for left-symmetric algebras only, so a
      sample is complete iff it is left-symmetric and d tr R_ei = 0 on the
      table's tensor (``is_complete``, Helmstetter and Segal);
    - the Lie tag is that of the commutators (``_commutator_tag``): those
      of a left-symmetric algebra form a Lie algebra, so they are read off
      the table with no Jacobi scan; those of a sample that fails left
      symmetry are scanned, and if they fail Jacobi the tag is that error,
      with its triple, and the sample a hard failure;
    - the ideals are ``find_ideals_dim_le3``'s.

    Ideals and quotients of a complete algebra are complete, so
    ``completeness_propagation`` is decided ideal by ideal, by
    ``is_complete``, only on an incomplete sample."""
    samples_report = []
    hard_failures: list[str] = []
    for a in algebras:
        params = dict(a.params)
        ls = check_left_symmetric(a)
        complete = is_complete(a)
        try:
            tag = _commutator_tag(a)
        except ValueError as err:  # commutators that fail Jacobi
            tag = str(err)
        claimed_tag = entry.claimed_tag(params)
        tag_ok = tag == claimed_tag
        flags = ndsflags(a)
        flags_ok = flags == entry.claimed_flags
        ideals = find_ideals_dim_le3(a)
        # I and A/I of a complete A are complete: each nilpotent R_y maps the
        # ideal I into I, so it stays nilpotent on I and on A/I.
        propagation_ok = complete or all(
            is_complete(restriction_to_ideal(a, ideal)) and is_complete(quotient_algebra(a, ideal))
            for ideal in ideals
        )
        sample = {
            "params": _params_str(params),
            "left_symmetric": ls.ok,
            "complete": complete,
            "lie_tag": str(tag),
            "claimed_lie_tag": str(claimed_tag),
            "lie_match": tag_ok,
            "flags_computed": dict(zip("NDS", flags)),
            "flags_claimed": dict(zip("NDS", entry.claimed_flags)),
            "flags_match": flags_ok,
            "flag_witnesses": {k: str(v) for k, v in flag_witnesses(a).items()},
            "ideals_found": len(ideals),
            "completeness_propagation": propagation_ok,
        }
        samples_report.append(sample)
        if not (ls.ok and complete and tag_ok and ideals and propagation_ok):
            hard_failures.append(f"{entry.name} at {_params_str(params)}")
    return {
        "name": entry.name,
        "samples": samples_report,
        "hard_failures": hard_failures,
    }


def _distinctness_evidence(fp1: tuple, fp2: tuple) -> str | None:
    for (label, _), x, y in zip(FINGERPRINT, fp1, fp2):
        if x != y:
            return f"{label}: {x} vs {y}"
    return None


def verify_catalog(seed: int = 0, random_samples: int = 5) -> dict:
    """Reproduce and audit the whole classification table.

    Runs every per-entry check at defaults plus seeded random parameters,
    certifies pairwise distinctness by fingerprint, and rebuilds every entry
    through the extension machinery with verified isomorphism witnesses.
    Each sample is made once; each entry's first default is fingerprinted
    as the algebra the entry checks asked, so its table, Lie tag and N/D/S
    flags are not decided again.
    """
    rng = random.Random(seed)
    entries = catalog_lsas()
    report: dict = {"seed": seed, "entries": {}, "hard_failures": []}
    fingerprints = {}
    for entry in entries:
        samples: list[dict] = list(entry.default_params)
        if entry.param is not None:
            for _ in range(random_samples):
                samples.append(entry.sample_params(rng))
        algebras = [entry.make(params) for params in samples]
        entry_report = verify_entry(entry, algebras)
        report["entries"][entry.name] = entry_report
        report["hard_failures"].extend(entry_report["hard_failures"])
        fingerprints[entry.name] = fingerprint(algebras[0])
    distinct = {}
    all_distinct = True
    names = [e.name for e in entries]
    for n1, n2 in itertools.combinations(names, 2):
        ev = _distinctness_evidence(fingerprints[n1], fingerprints[n2])
        key = f"{n1}|{n2}"
        if ev is None:
            all_distinct = False
            distinct[key] = "NOT SEPARATED"
            report["hard_failures"].append(f"fingerprints equal: {key}")
        else:
            distinct[key] = ev
    # the one-parameter C family: sampled parameter pairs stay non-isomorphic;
    # t = 2 is C3t's default, fingerprinted above
    ev = _distinctness_evidence(fingerprints["C3t"], fingerprint(make_lsa("C3t", t=F(3))))
    distinct[f"C3t(t=2)|C3t(t=3)"] = ev or "NOT SEPARATED"
    if ev is None:
        report["hard_failures"].append("C3t parameter values not separated")
    report["distinctness"] = {"all_distinct": all_distinct, "evidence": distinct}

    recon_report = []
    for case in reconstruction_cases(rng):
        try:
            built = build_extension(case.data)
        except ExtensionError:
            built = None
        kim_ok = built is not None
        target = make_lsa(case.target, **case.target_params)
        witness_ok = kim_ok and verify_iso_witness(built, target, case.witness)
        recon_report.append(
            {
                "label": case.label,
                "target": case.target,
                "target_params": _params_str(case.target_params),
                "kim_conditions_ok": kim_ok,
                "witness_ok": witness_ok,
            }
        )
        if not witness_ok:
            report["hard_failures"].append(f"reconstruction {case.label} -> {case.target}")
    report["reconstructions"] = recon_report

    a1 = _FIXTURES["A1_inv"]
    report["a1_inverse_fixture"] = {
        "left_symmetric": check_left_symmetric(a1).ok,
        "lie_unimodular": not any(_trace_row(_commutator_brackets(a1))),
        "rational_ideals_found": len(find_ideals_dim_le3(a1)),
    }

    rejected = d32_rejected_variant()
    rejected_check = check_left_symmetric(rejected)
    discrepancies = [
        {
            "id": "D32-product-column",
            "detail": (
                "the e2*e2=e1 transcription of D32 is not left-symmetric; "
                "catalog stores the equivalent-derivation form with e3*e3=e2"
            ),
            "witness_triple": list(rejected_check.witness or ()),
            "rejected_left_symmetric": rejected_check.ok,
            "stored_left_symmetric": report["entries"]["D32"]["samples"][0]["left_symmetric"],
        },
        {
            "id": "C3t-remark-format",
            "detail": "the C3t remark column carries a doubled comma; cosmetic only",
        },
    ]
    for entry_report in report["entries"].values():
        for sample in entry_report["samples"]:
            if not sample["flags_match"]:
                discrepancies.append(
                    {
                        "id": f"flags-{entry_report['name']}",
                        "detail": "computed N/D/S differ from the claimed remarks",
                        "computed": sample["flags_computed"],
                        "claimed": sample["flags_claimed"],
                        "witnesses": sample["flag_witnesses"],
                    }
                )
    report["discrepancies"] = discrepancies
    report["ok"] = not report["hard_failures"]
    return report
