"""Oracles for the changes of basis.

``linalg.solve`` answers several right-hand sides from one echelon form, and
``conjugated``, ``restriction_to_ideal``, ``quotient_algebra``, the Milnor
form's D and ``verify_iso_witness`` all ask it for coordinates in a new
basis.  The oracles below are the earlier direct methods: one ``rref`` per
right-hand side, conjugation through the inverse matrix, restriction and
quotient one product at a time, and the isomorphism test basis pair by
basis pair after a determinant.  Old and new must agree on random inputs.
"""
import random
from fractions import Fraction

import pytest

from lsa.algebra import (
    Algebra,
    NotInScopeError,
    Subspace,
    conjugated,
    find_ideals_dim_le3,
    is_solvable,
    left_mult,
    milnor_normal_form,
    multiply,
    quotient_algebra,
    restriction_to_ideal,
)
from lsa.catalog import (
    LIE_FAMILIES,
    catalog_lsas,
    fixtures,
    make_lie,
    make_lsa,
    reconstruction_cases,
)
from lsa.extensions import build_extension, verify_iso_witness
from lsa.linalg import (
    QMatrix,
    det,
    inverse,
    nullspace_basis,
    quotient_basis,
    random_invertible,
    random_matrix,
    rank,
    rref,
    solve,
    unit_vec,
    vec_is_zero,
    vec_scale,
)

F = Fraction


def oracle_solve(m, b):
    """One particular solution of m x = b from the rref of [m | b], or None."""
    aug = QMatrix([list(row) + [b[i]] for i, row in enumerate(m.rows)])
    red, pivots = rref(aug)
    if m.ncols in pivots:
        return None
    x = [F(0)] * m.ncols
    for r, pc in enumerate(pivots):
        x[pc] = red.rows[r][m.ncols]
    return tuple(x)


def oracle_in_span(v, basis):
    """v is a combination of ``basis``: adding it leaves the rank unchanged."""
    return rank(QMatrix.from_rows([*basis, v])) == rank(QMatrix.from_rows(list(basis)))


def oracle_inverse(m):
    n = m.nrows
    aug = QMatrix([list(m.rows[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)])
    red, pivots = rref(aug)
    if tuple(pivots[:n]) != tuple(range(n)):
        raise ValueError("matrix is singular")
    return QMatrix([row[n:] for row in red.rows])


def oracle_conjugated(a, p):
    p_inv = oracle_inverse(p)
    cols = [p.col(i) for i in range(a.dim)]
    tensor = tuple(
        tuple(p_inv.apply(multiply(a, cols[i], cols[j])) for j in range(a.dim)) for i in range(a.dim)
    )
    return Algebra(a.dim, tensor, name=a.name, params=a.params)


def oracle_restriction(a, w):
    basis_matrix = QMatrix.from_cols(list(w.basis))
    tensor = []
    for x in w.basis:
        plane = []
        for y in w.basis:
            coords = oracle_solve(basis_matrix, multiply(a, x, y))
            if coords is None:
                raise ValueError("subspace is not closed under the product")
            plane.append(coords)
        tensor.append(tuple(plane))
    return Algebra(w.dim, tuple(tensor), name=f"{a.name}|ideal" if a.name else "")


def oracle_quotient(a, w):
    reps = quotient_basis([unit_vec(a.dim, i) for i in range(a.dim)], list(w.basis))
    full = QMatrix.from_cols(list(w.basis) + reps)
    tensor = tuple(
        tuple(oracle_solve(full, multiply(a, x, y))[w.dim:] for y in reps) for x in reps
    )
    return Algebra(len(reps), tensor, name=f"{a.name}/ideal" if a.name else "")


def oracle_milnor(lie):
    """(D, adapted basis, det D), or the reason the form is out of scope;
    solvability first, then the trace row, e1 as the first standard basis
    vector outside its kernel, then D one column at a time."""
    e = [unit_vec(3, i) for i in range(3)]
    try:
        if not is_solvable(lie):
            raise NotInScopeError("Lie algebra is not solvable")
        trace_row = [left_mult(lie, x).trace() for x in e]
        if all(t == 0 for t in trace_row):
            raise NotInScopeError("Lie algebra is unimodular")
        u_space = Subspace.from_spanning(3, nullspace_basis(QMatrix([trace_row])))
        u1, u2 = u_space.basis
        if not vec_is_zero(multiply(lie, u1, u2)):
            raise NotInScopeError("kernel of the trace form is not abelian")
        e1 = next(x for x in e if not oracle_in_span(x, u_space.basis))
        e1 = vec_scale(F(2) / left_mult(lie, e1).trace(), e1)
        cols = []
        for u in (u1, u2):
            coords = oracle_solve(QMatrix.from_cols([u1, u2]), multiply(lie, e1, u))
            if coords is None:
                raise NotInScopeError("trace-form kernel is not ad_e1 invariant")
            cols.append(coords)
    except NotInScopeError as err:
        return str(err)
    d = QMatrix.from_cols(cols)
    return d, (e1, u1, u2), d.rows[0][0] * d.rows[1][1] - d.rows[0][1] * d.rows[1][0]


def oracle_iso_witness(a, b, eta):
    if det(eta) == 0:
        return False
    e = [unit_vec(a.dim, i) for i in range(a.dim)]
    return all(
        eta.apply(multiply(a, e[i], e[j])) == multiply(b, eta.col(i), eta.col(j))
        for i in range(a.dim)
        for j in range(a.dim)
    )


def outcome(f, *args):
    """The value of f(*args), or the ValueError message it raises."""
    try:
        return f(*args)
    except ValueError as err:
        return ("ValueError", str(err))


# --- random inputs ----------------------------------------------------------


def random_low_rank(rng, nrows, ncols):
    """A random product of a nrows x r and a r x ncols matrix, r <= min."""
    r = rng.randint(0, min(nrows, ncols))
    if r == 0:
        return QMatrix.zero(nrows, ncols)
    return random_matrix(rng, nrows, r) @ random_matrix(rng, r, ncols)


def random_algebra(rng, n):
    """Sparse products with small rational coefficients; most are not
    left-symmetric."""
    entries = {}
    for _ in range(rng.randint(0, 2 * n)):
        entries[tuple(rng.randint(1, n) for _ in range(3))] = F(rng.choice((-2, -1, 1, 3)), rng.randint(1, 2))
    return Algebra.from_entries(n, entries)


def lie_algebras(rng):
    """The five families, sl(2,R), so(3), Heisenberg, e(2), e(1,1) and the
    abelian algebra, each in random bases."""
    brackets = [
        {(1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}},
        {(1, 2): {3: 1}, (1, 3): {2: -1}, (2, 3): {1: 1}},
        {(1, 2): {3: 1}},
        {(1, 2): {3: 1}, (1, 3): {2: -1}},
        {(1, 2): {3: 1}, (1, 3): {2: 1}},
        {},
    ]
    lies = [Algebra.from_brackets(3, b) for b in brackets]
    for name, family in LIE_FAMILIES.items():
        lies.append(make_lie(name, **({} if family.param is None else {family.param.name: family.param.sample(rng)})))
    return [conjugated(lie, random_invertible(rng, 3)) for lie in lies for _ in range(4)] + lies


# --- solve ------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_solve_matches_one_rref_per_right_hand_side(seed):
    rng = random.Random(seed)
    seen = {"inconsistent": 0, "rank_deficient": 0, "solved": 0}
    for _ in range(40):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_low_rank(rng, nrows, ncols) if rng.random() < 0.5 else random_matrix(rng, nrows, ncols)
        bs = []
        for _ in range(rng.randint(0, 4)):
            x = random_matrix(rng, ncols, 1).col(0)
            # in the column space, or an arbitrary vector (often inconsistent)
            bs.append(m.apply(x) if rng.random() < 0.7 else random_matrix(rng, nrows, 1).col(0))
        expected = [oracle_solve(m, b) for b in bs]
        if None in expected:
            expected = None
            seen["inconsistent"] += 1
        else:
            seen["solved"] += 1
        seen["rank_deficient"] += len(rref(m)[1]) < ncols
        assert solve(m, bs) == expected, (m, bs)
    assert min(seen.values()) > 0, seen


def test_inverse_matches_oracle():
    rng = random.Random(3)
    singular = 0
    for _ in range(100):
        n = rng.randint(1, 4)
        m = random_low_rank(rng, n, n) if rng.random() < 0.3 else random_matrix(rng, n, n)
        expected = outcome(oracle_inverse, m)
        singular += isinstance(expected, tuple)
        assert outcome(inverse, m) == expected
    assert singular > 0


# --- conjugation, restriction, quotient ---------------------------------------


def test_conjugated_matches_inverse_oracle():
    rng = random.Random(11)
    algebras = [random_algebra(rng, rng.choice((2, 3))) for _ in range(60)]
    algebras += [e.make(e.default_params[0]) for e in catalog_lsas()]
    algebras += [a for a in fixtures().values() if a.dim in (2, 3)]
    refused = 0
    for a in algebras:
        for _ in range(3):
            singular = rng.random() < 0.3
            p = random_low_rank(rng, a.dim, a.dim) if singular else random_invertible(rng, a.dim)
            expected = outcome(oracle_conjugated, a, p)
            refused += expected == ("ValueError", "matrix is singular")
            assert outcome(conjugated, a, p) == expected, (a.nonzero_products(), p)
    assert refused > 20


def test_restriction_and_quotient_match_oracle_on_every_ideal():
    rng = random.Random(17)
    algebras = []
    for entry in catalog_lsas():
        for params in [*entry.default_params, *(entry.sample_params(rng) for _ in range(2 if entry.param else 0))]:
            algebras.append(conjugated(entry.make(params), random_invertible(rng, 3, max_num=2, max_den=1)))
    algebras += [
        conjugated(a, random_invertible(rng, a.dim, max_num=2, max_den=1))
        for a in fixtures().values()
        if a.dim in (2, 3)
    ]
    algebras += [random_algebra(rng, rng.choice((2, 3))) for _ in range(60)]
    checked = 0
    for a in algebras:
        for ideal in find_ideals_dim_le3(a):
            assert restriction_to_ideal(a, ideal) == oracle_restriction(a, ideal)
            assert quotient_algebra(a, ideal) == oracle_quotient(a, ideal)
            checked += 1
    assert checked > 100


def test_restriction_refuses_a_subspace_that_is_not_closed():
    rng = random.Random(19)
    refused = 0
    for _ in range(100):
        a = random_algebra(rng, 3)
        w = Subspace.from_spanning(3, [random_matrix(rng, 3, 1).col(0) for _ in range(rng.randint(1, 2))])
        expected = outcome(oracle_restriction, a, w)
        refused += isinstance(expected, tuple)
        assert outcome(restriction_to_ideal, a, w) == expected
    assert refused > 20


# --- Milnor form ----------------------------------------------------------------


def test_milnor_form_matches_oracle():
    rng = random.Random(23)
    reasons = set()
    for lie in lie_algebras(rng):
        expected = oracle_milnor(lie)
        try:
            form = milnor_normal_form(lie)
        except NotInScopeError as err:
            reasons.add(str(err))
            assert str(err) == expected
            continue
        assert (form.d, form.adapted_basis, form.det_d) == expected
    assert reasons == {"Lie algebra is not solvable", "Lie algebra is unimodular"}


# --- isomorphism witnesses ------------------------------------------------------


def test_iso_witness_matches_pairwise_oracle():
    verdicts = []
    for case in reconstruction_cases(random.Random(0)):
        built = build_extension(case.data)
        target = make_lsa(case.target, **case.target_params)
        eta = case.witness
        assert verify_iso_witness(built, target, eta) and oracle_iso_witness(built, target, eta)
        n = eta.nrows
        for r in range(n):
            for c in range(n):
                for delta in (1, -eta.rows[r][c] or 1):
                    rows = [list(row) for row in eta.rows]
                    rows[r][c] += delta
                    bumped = QMatrix(rows)
                    expected = oracle_iso_witness(built, target, bumped)
                    verdicts.append((expected, det(bumped) == 0))
                    assert verify_iso_witness(built, target, bumped) == expected, (case.label, r, c)
        zero = QMatrix.zero(n, n)
        assert not verify_iso_witness(built, target, zero) and not oracle_iso_witness(built, target, zero)
    # accepted, refused and singular perturbations all occur
    assert {v for v, _ in verdicts} == {True, False} and any(s for _, s in verdicts)
