"""Oracle for the ideal search on a basis of the operator span.

``find_ideals_dim_le3`` refines the joint eigenspaces of the independent
operators among d L_e1, ..., d L_en, d R_e1, ..., d R_en only, the pivot
columns of one elimination, and keeps its joint eigenvectors as integer vectors until
each ``Subspace`` is built.  ``all_operator_ideals`` is the search it
replaced: every one of the 2n operators refined in turn, the eigenvectors
turned into ``Fraction`` rows at once and each plane built through
``nullspace_basis`` and ``Subspace.from_spanning``.  Both must return the
same list on random rational algebras of dimension 2 and 3, the zero
algebras (no operator is kept), algebras with zero, repeated or
proportional operators, and one whose dropped operator has no rational
eigenvalue.

The search first intersects the eigenspaces of every kept operator with a
single rational eigenvalue in one stacked kernel and refines only through
the others; ``stack_cases`` names which branches of that step an input
reaches, so that the oracles are compared on each of them.
"""
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from ideal_inputs import DEPENDENT, degenerate_inputs, dependent_inputs, file_command_inputs, fresh_basis, operators
from test_subspace_oracles import oracle_ideals
from lsa.algebra import Algebra, Subspace, _refine, find_ideals_dim_le3
from lsa.linalg import (
    QMatrix,
    _cleared,
    _echelon_rows,
    _int_char_poly,
    _int_rref,
    char_poly,
    nullspace_basis,
    rank,
    rational_roots,
    rref,
    vstack,
)

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

SETTINGS = settings(max_examples=150, deadline=None, database=None, derandomize=True)


def all_operator_ideals(a: Algebra) -> list[Subspace]:
    """``find_ideals_dim_le3`` refining all 2n operators in turn."""
    n = a.dim
    d, rows = _cleared(v for plane in a.c for v in plane)
    c = [rows[i * n : (i + 1) * n] for i in range(n)]
    columns = [list(c[i]) for i in range(n)]
    columns += [[c[j][i] for j in range(n)] for i in range(n)]
    ops = [(d, [list(r) for r in zip(*cols)]) for cols in columns]
    spectra = {}

    def spectrum(k):
        if k not in spectra:
            spectra[k] = [root / d for root in rational_roots(_int_char_poly(ops[k][1]))]
        return spectra[k]

    def joint_eigenvectors(operators):
        found = set()
        for basis in _refine(operators, spectrum, 0, [[int(i == j) for j in range(n)] for i in range(n)]):
            found.update(_echelon_rows(*_int_rref(basis)))
        return found

    found = [Subspace(n, (v,)) for v in joint_eigenvectors(ops)]
    if n == 3:
        found += {
            Subspace.from_spanning(3, nullspace_basis(QMatrix([w])))
            for w in joint_eigenvectors([(d, cols) for cols in columns])
        }
    found.sort(key=lambda s: (s.dim, s.basis))
    return found


def span_rank(a: Algebra) -> int:
    """dim span{L_e1, ..., R_en}, from the rational operators."""
    return rank(QMatrix([[x for row in m.rows for x in row] for m in operators(a)]))


def rationals():
    big = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6))
    small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
    return st.one_of(st.just(Fraction(0)), small, big)


@st.composite
def sparse_algebras(draw):
    """Sparse rational structure constants, dimension 2 or 3, in the stored
    basis (where operators are often zero or repeated) or a random one."""
    n = draw(st.sampled_from((2, 3)))
    idx = st.integers(1, n)
    entries = draw(st.dictionaries(st.tuples(idx, idx, idx), rationals(), max_size=8))
    a = Algebra.from_entries(n, entries)
    return fresh_basis(a, random.Random(draw(st.integers(0, 2**32)))) if draw(st.booleans()) else a


@SETTINGS
@given(st.one_of(sparse_algebras(), st.sampled_from(dependent_inputs(seed=7) + degenerate_inputs(seed=7))))
def test_the_search_on_a_basis_of_the_span_equals_the_search_on_all_operators(a):
    assert find_ideals_dim_le3(a) == all_operator_ideals(a), a.nonzero_products()


def test_the_inputs_reach_every_span_rank():
    """The fixed inputs, the file-command inputs and a dense algebra of each
    dimension span from no operator (the zero algebras) to 2n independent
    ones, and the dropped operator R_e2 of ``irrational_dropped2`` has no
    rational eigenvalue while each kept one has."""
    rng = random.Random(7)
    generic = [
        Algebra.from_entries(n, {t: rng.randint(1, 9) for t in itertools.product(range(1, n + 1), repeat=3)})
        for n in (2, 3)
    ]
    algebras = dependent_inputs(seed=7) + degenerate_inputs(seed=7) + file_command_inputs(seed=7, rounds=1) + generic
    ranks = {2: set(), 3: set()}
    for a in algebras:
        assert find_ideals_dim_le3(a) == all_operator_ideals(a), a.name
        ranks[a.dim].add(span_rank(a))
    assert ranks == {2: set(range(5)), 3: set(range(7))}
    dropped = Algebra.from_entries(2, DEPENDENT["irrational_dropped2"][1])
    mats = operators(dropped)
    assert span_rank(dropped) == 3
    assert mats[3] == mats[1] - mats[2]
    assert not rational_roots(char_poly(mats[3]))
    assert all(rational_roots(char_poly(m)) for m in mats[:3])


def stack_cases(a: Algebra) -> set[str]:
    """The branches of the stacked first step that the line pass of
    ``find_ideals_dim_le3(a)`` takes, read off the rational kept operators
    (the pivot columns among L_e1, ..., R_en) and their spectra:
    ``no_rational_root`` (the answer is empty at once), else one of
    ``all_single`` (nothing left to refine), ``none_single`` (the identity
    basis) and ``mix``; with it ``irrational_pair`` for a kept 3 x 3
    operator with one simple rational root and two irrational ones, and
    ``empty_stack`` when the single-eigenvalue operators share no
    eigenvector."""
    n, mats = a.dim, operators(a)
    kept = [mats[k] for k in rref(QMatrix([[x for row in m.rows for x in row] for m in mats]).transpose())[1]]
    spectra = [rational_roots(char_poly(m)) for m in kept]
    if not all(spectra):
        return {"no_rational_root"}
    single = [(m, s[0]) for m, s in zip(kept, spectra) if len(s) == 1]
    cases = {"all_single" if len(single) == len(kept) > 0 else "mix" if single else "none_single"}
    for m, lam in single if n == 3 else ():
        # char_poly(m) / (y - lam), the quadratic cofactor
        _, c1, c2, _ = char_poly(m)
        if not rational_roots([1, c1 + lam, c2 + lam * (c1 + lam)]):
            cases.add("irrational_pair")
    if single and not nullspace_basis(vstack([m - QMatrix.identity(n).scale(lam) for m, lam in single])):
        cases.add("empty_stack")
    return cases


def test_the_stack_reaches_every_case_and_equals_both_oracles():
    """On the degenerate and dependent inputs and 600 seeded sparse
    algebras, each in its stored basis and a random one, the search equals
    ``all_operator_ideals`` (every operator refined from the identity) on
    every input and ``oracle_ideals`` (the product enumeration, each
    candidate re-checked) on the first three inputs of each case.  Every
    case of ``stack_cases`` is reached in 2D and 3D, in stored and random
    bases (``irrational_pair`` needs a cubic: 3D only).  In 2D, kept
    operators that are single with distinct eigenlines need a special
    basis, so a random basis reaches ``empty_stack`` there only about once
    in 500 draws; these 600 draws reach it once."""
    rng = random.Random(2)
    fixed = degenerate_inputs(seed=2) + dependent_inputs(seed=2)
    inputs = [("stored" if k % 2 == 0 else "random", a) for k, a in enumerate(fixed)]
    for i in range(600):
        n = 2 if i % 3 else 3
        entries = {
            tuple(rng.randint(1, n) for _ in range(3)): rng.choice((-1, 1, 2)) for _ in range(rng.randint(1, 3))
        }
        a = Algebra.from_entries(n, entries)
        inputs += [("stored", a), ("random", fresh_basis(a, rng))]
    reached = Counter()
    for kind, a in inputs:
        found = find_ideals_dim_le3(a)
        assert found == all_operator_ideals(a), (kind, a.nonzero_products())
        cells = [(a.dim, kind, case) for case in stack_cases(a)]
        if any(reached[cell] < 3 for cell in cells):
            assert found == oracle_ideals(a), (kind, a.nonzero_products())
        reached.update(cells)
    cases = ("all_single", "none_single", "mix", "empty_stack", "no_rational_root")
    expected = {(n, kind, case) for n in (2, 3) for kind in ("stored", "random") for case in cases}
    expected |= {(3, kind, "irrational_pair") for kind in ("stored", "random")}
    assert set(reached) == expected, sorted(expected - set(reached))
