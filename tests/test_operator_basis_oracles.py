"""Oracle for the ideal search on a basis of the operator span.

``_ideals`` refines the joint eigenspaces of the independent operators
among d L_e1, ..., d L_en, d R_e1, ..., d R_en only, the pivot columns of
one elimination, and keeps its joint eigenvectors as integer vectors until
each ``Subspace`` is built.  ``all_operator_ideals`` is the search it
replaced: every one of the 2n operators refined in turn, the eigenvectors
turned into ``Fraction`` rows at once and each plane built through
``nullspace_basis`` and ``Subspace.from_spanning``.  Both must return the
same list on random rational algebras of dimension 2 and 3, the zero
algebras (no operator is kept), algebras with zero, repeated or
proportional operators, and one whose dropped operator has no rational
eigenvalue.
"""
import itertools
import random
from fractions import Fraction

import pytest

from ideal_inputs import DEPENDENT, degenerate_inputs, dependent_inputs, file_command_inputs, fresh_basis, operators
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
