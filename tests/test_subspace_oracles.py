"""Oracles for the exact subspace questions.

``symmetric_signature`` reads the signature off the characteristic
polynomial by Descartes' rule of signs, ``quotient_basis`` reads pivots off
one echelon form, ``is_two_sided_ideal`` is one echelon form of W's basis
and all its products, and ``find_ideals_dim_le3`` trusts its construction
instead of re-checking each candidate.  The oracles below are the earlier
direct methods: Lagrange diagonalisation by congruence, rank comparisons
vector by vector, one membership question per product, and the joint
eigenspace enumeration followed by an ideal test of every candidate.  Old
and new must agree on random inputs.

``find_ideals_dim_le3`` finds its joint eigenspaces by refining one
operator's eigenspaces at a time on integer rows; ``oracle_product_ideals``
is the enumeration it replaced, one stacked kernel per choice of one
eigenvalue from every operator's spectrum, and must return the same list.
"""
import itertools
import random
from fractions import Fraction

import pytest

from ideal_inputs import degenerate_inputs, file_command_inputs, operators
from lsa.algebra import (
    Algebra,
    Subspace,
    check_left_symmetric,
    conjugated,
    find_ideals_dim_le3,
    is_two_sided_ideal,
    multiply,
)
from lsa.catalog import catalog_lsas, fixtures
from lsa.linalg import (
    QMatrix,
    char_poly,
    nullspace_basis,
    quotient_basis,
    random_invertible,
    rank,
    rational_roots,
    symmetric_signature,
    unit_vec,
    vec,
    vec_is_zero,
    vstack,
)

SEEDS = range(20)


def oracle_signature(s):
    """Lagrange diagonalisation by congruence."""
    n = s.nrows
    a = [list(row) for row in s.rows]
    pos = neg = zero = 0
    idx = list(range(n))
    while idx:
        pivot = next((i for i in idx if a[i][i] != 0), None)
        if pivot is None:
            off = next(((i, j) for i in idx for j in idx if i != j and a[i][j] != 0), None)
            if off is None:
                zero += len(idx)
                break
            i, j = off
            # e_i <- e_i + e_j makes a[i][i] = 2 a[i][j]
            for k in range(n):
                a[i][k] += a[j][k]
            for k in range(n):
                a[k][i] += a[k][j]
            continue
        d = a[pivot][pivot]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for j in idx:
            if j != pivot and a[j][pivot] != 0:
                factor = a[j][pivot] / d
                for k in range(n):
                    a[j][k] -= factor * a[pivot][k]
                for k in range(n):
                    a[k][j] -= factor * a[k][pivot]
        idx.remove(pivot)
    return pos, neg, zero


def oracle_in_span(v, basis):
    if not basis:
        return vec_is_zero(v)
    return rank(QMatrix.from_rows(list(basis) + [v])) == rank(QMatrix.from_rows(list(basis)))


def oracle_span_dim(vectors):
    return rank(QMatrix.from_rows(list(vectors))) if vectors else 0


def oracle_quotient_basis(ambient, sub):
    """Greedy: keep each ambient vector that raises the rank."""
    for v in sub:
        if not oracle_in_span(v, ambient):
            raise ValueError("sub is not contained in the ambient span")
    current = [v for v in sub if not vec_is_zero(v)]
    current_rank = oracle_span_dim(current)
    reps = []
    for v in ambient:
        r = oracle_span_dim(current + [v])
        if r > current_rank:
            reps.append(v)
            current = current + [v]
            current_rank = r
    return reps


def oracle_is_two_sided_ideal(a, w):
    """One membership question per product e_i*w and w*e_i."""
    e = [unit_vec(a.dim, i) for i in range(a.dim)]
    return all(
        oracle_in_span(multiply(a, x, wv), w.basis) and oracle_in_span(multiply(a, wv, x), w.basis)
        for wv in w.basis
        for x in e
    )


def oracle_common_eigenspaces(mats, n):
    eigs = []
    for m in mats:
        ev = rational_roots(char_poly(m))
        if not ev:
            return []
        eigs.append(ev)
    eye = QMatrix.identity(n)
    spaces = []
    for combo in itertools.product(*eigs):
        ns = nullspace_basis(vstack([m - eye.scale(lam) for m, lam in zip(mats, combo)]))
        if ns:
            sp = Subspace.from_spanning(n, ns)
            if sp not in spaces:
                spaces.append(sp)
    return spaces


def oracle_product_ideals(a):
    """The reduced-echelon basis vectors of the joint eigenspaces of the
    operators as lines, and the kernels of those of their transposes as
    planes, from the product enumeration."""
    if a.dim <= 1:
        return []
    mats = operators(a)
    found = {Subspace.from_spanning(a.dim, [v]) for sp in oracle_common_eigenspaces(mats, a.dim) for v in sp.basis}
    if a.dim == 3:
        found |= {
            Subspace.from_spanning(3, nullspace_basis(QMatrix([w])))
            for sp in oracle_common_eigenspaces([m.transpose() for m in mats], 3)
            for w in sp.basis
        }
    return sorted(found, key=lambda s: (s.dim, s.basis))


def oracle_ideals(a):
    """The product enumeration's candidates, each kept only if
    ``is_two_sided_ideal`` accepts it."""
    return [w for w in oracle_product_ideals(a) if is_two_sided_ideal(a, w)]


# --- signature --------------------------------------------------------------


def random_symmetric(rng, n):
    """Random symmetric n x n: dense, with a zero diagonal, or singular
    (a congruence P^T D P through fewer than n dimensions)."""
    kind = rng.choice(("dense", "zero_diagonal", "singular"))
    if kind == "singular":
        m = rng.randint(0, n - 1)
        p = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)]
        d = [rng.choice((-2, -1, 1, 3)) for _ in range(m)]
        return QMatrix(
            [[sum(p[k][i] * d[k] * p[k][j] for k in range(m)) for j in range(n)] for i in range(n)]
        )
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i == j and kind == "zero_diagonal":
                continue
            if rng.random() < 0.6:
                a[i][j] = a[j][i] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return QMatrix(a)


def test_signature_matches_lagrange():
    rng = random.Random(41)
    kinds = set()
    for _ in range(400):
        n = rng.randint(1, 6)
        s = random_symmetric(rng, n)
        expected = oracle_signature(s)
        assert symmetric_signature(s) == expected, s
        assert sum(expected) == n
        kinds.add((expected[2] > 0, all(s.rows[i][i] == 0 for i in range(n))))
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


def test_signature_refusals():
    with pytest.raises(ValueError, match="non-square"):
        symmetric_signature(QMatrix([[1, 2]]))
    with pytest.raises(ValueError, match="not symmetric"):
        symmetric_signature(QMatrix([[1, 2], [3, 1]]))


# --- spans ------------------------------------------------------------------


def random_vectors(rng, count, n, rank_at_most):
    """``count`` random vectors of length n in a random subspace of
    dimension <= ``rank_at_most``, zero vectors and repeats included."""
    gens = [vec([rng.randint(-2, 2) for _ in range(n)]) for _ in range(rank_at_most)]
    out = []
    for _ in range(count):
        coeffs = [rng.randint(-2, 2) for _ in gens]
        out.append(tuple(sum((c * g[i] for c, g in zip(coeffs, gens)), Fraction(0)) for i in range(n)))
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_spans_match_rank_oracle(seed):
    rng = random.Random(seed)
    failures = 0
    for _ in range(25):
        n = rng.randint(1, 5)
        ambient = random_vectors(rng, rng.randint(0, 6), n, rng.randint(0, n))
        # sub inside span(ambient), or with an arbitrary vector mixed in
        sub = [
            tuple(sum((rng.randint(-1, 1) * w[i] for w in ambient), Fraction(0)) for i in range(n))
            for _ in range(rng.randint(0, 3))
        ]
        if rng.random() < 0.4:
            sub.insert(rng.randint(0, len(sub)), vec([rng.randint(-2, 2) for _ in range(n)]))
        try:
            expected = oracle_quotient_basis(ambient, sub)
        except ValueError:
            failures += 1
            with pytest.raises(ValueError, match="not contained"):
                quotient_basis(ambient, sub)
            continue
        assert quotient_basis(ambient, sub) == expected
    assert failures > 0


# --- ideals -----------------------------------------------------------------


def random_algebra(rng, n):
    """Sparse products with small integer coefficients; most are not
    left-symmetric."""
    entries = {}
    for _ in range(rng.randint(0, 2 * n)):
        entries[tuple(rng.randint(1, n) for _ in range(3))] = rng.choice((-2, -1, 1, 2))
    return Algebra.from_entries(n, entries)


def left_symmetric_algebras(rng):
    """Catalog entries and 2D fixtures in random bases."""
    out = []
    for entry in catalog_lsas():
        for params in entry.default_params:
            out.append(conjugated(entry.make(params), random_invertible(rng, 3, max_num=2, max_den=1)))
    for a in fixtures().values():
        if a.dim in (2, 3):
            out.append(conjugated(a, random_invertible(rng, a.dim, max_num=2, max_den=1)))
    return out


def test_ideals_match_filtered_enumeration():
    rng = random.Random(5)
    algebras = [random_algebra(rng, rng.choice((2, 3))) for _ in range(200)]
    algebras += left_symmetric_algebras(rng)
    counts = {"left_symmetric": 0, "not_left_symmetric": 0, "with_ideals": 0}
    for a in algebras:
        expected = oracle_ideals(a)
        assert find_ideals_dim_le3(a) == expected, a.nonzero_products()
        counts["left_symmetric" if check_left_symmetric(a).ok else "not_left_symmetric"] += 1
        counts["with_ideals"] += bool(expected)
    assert min(counts.values()) >= 20, counts


def test_is_two_sided_ideal_matches_membership_oracle():
    """Random subspaces, the ideals found, and subspaces of those, in random
    2D/3D algebras and in catalog entries and fixtures in random bases."""
    rng = random.Random(13)
    algebras = [random_algebra(rng, rng.choice((2, 3))) for _ in range(120)]
    algebras += left_symmetric_algebras(rng)
    verdicts = {True: 0, False: 0}
    for a in algebras:
        n = a.dim
        ideals = find_ideals_dim_le3(a)
        subspaces = [Subspace(n, ()), Subspace.from_spanning(n, [unit_vec(n, i) for i in range(n)]), *ideals]
        subspaces += [
            Subspace.from_spanning(n, random_vectors(rng, rng.randint(1, 3), n, rng.randint(1, n)))
            for _ in range(3)
        ]
        subspaces += [Subspace.from_spanning(n, [w.basis[-1]]) for w in ideals if w.dim > 1]
        for w in subspaces:
            expected = oracle_is_two_sided_ideal(a, w)
            assert is_two_sided_ideal(a, w) == expected, (a.nonzero_products(), w)
            verdicts[expected] += 1
    assert min(verdicts.values()) > 100, verdicts


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_refinement_equals_product_enumeration_on_file_inputs(seed):
    """Entries at sampled parameters and fixtures in fresh rational bases."""
    for a in file_command_inputs(seed, rounds=2):
        assert find_ideals_dim_le3(a) == oracle_product_ideals(a), a.nonzero_products()


def test_refinement_equals_product_enumeration_on_degenerate_inputs():
    """Joint eigenspaces of dimension 2 and 3, where the line shortcut never
    fires, and a first or last operator with no rational eigenvalue."""
    leaf_dims, empty_spectra = set(), set()
    for a in degenerate_inputs(seed=3):
        assert find_ideals_dim_le3(a) == oracle_product_ideals(a), a.name
        mats = operators(a)
        leaf_dims |= {sp.dim for sp in oracle_common_eigenspaces(mats, a.dim)}
        empty_spectra |= {
            (a.name, k) for k in (0, len(mats) - 1) if not rational_roots(char_poly(mats[k]))
        }
    assert {2, 3} <= leaf_dims
    assert {
        ("irrational_first2", 0), ("irrational_first3", 0),
        ("irrational_last2", 3), ("irrational_last3", 5),
    } <= empty_spectra

