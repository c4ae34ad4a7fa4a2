"""Property tests for the basis-triple identity engine ``first_failure``."""
import itertools
import random

import pytest

from lsa.algebra import (
    IDENTITIES,
    Algebra,
    check_left_symmetric,
    conjugated,
    first_failure,
    identify_lie_algebra,
    is_complete,
    lie_algebra_of,
    multiply,
    ndsflags,
)
from lsa.catalog import catalog_lsas, fingerprint
from lsa.linalg import random_invertible, unit_vec, vec_add, vec_sub

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

SETTINGS = settings(max_examples=150, deadline=None, database=None, derandomize=True)

# Each identity as one defect vector lhs - rhs, written out independently of
# the engine's table.
DEFECTS = {
    "left_symmetric": lambda m, x, y, z: vec_sub(
        vec_sub(m(m(x, y), z), m(m(y, x), z)),
        vec_sub(m(x, m(y, z)), m(y, m(x, z))),
    ),
    "N": lambda m, x, y, z: vec_sub(m(m(x, y), z), m(m(x, z), y)),
    "D": lambda m, x, y, z: vec_sub(m(m(x, y), z), m(m(z, y), x)),
    "S": lambda m, x, y, z: m(vec_sub(m(x, y), m(y, x)), z),
    "jacobi": lambda m, x, y, z: vec_add(vec_add(m(m(x, y), z), m(m(y, z), x)), m(m(z, x), y)),
}


@st.composite
def algebras(draw):
    """Sparse structure constants in -2..2, dimension 1-3."""
    n = draw(st.integers(1, 3))
    idx = st.integers(1, n)
    entries = draw(st.dictionaries(st.tuples(idx, idx, idx), st.integers(-2, 2), max_size=6))
    return Algebra.from_entries(n, entries)


@st.composite
def catalog_samples(draw):
    """A catalog entry at a default or a seeded random parameter."""
    entry = draw(st.sampled_from(catalog_lsas()))
    sampled = st.integers(0, 2**32).map(lambda seed: entry.sample_params(random.Random(seed)))
    return entry.make(draw(st.sampled_from(entry.default_params) | sampled))


@st.composite
def lie_brackets(draw):
    """Antisymmetric brackets with sparse constants in -2..2, dimension 1-3."""
    n = draw(st.integers(1, 3))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    brackets = {
        pair: draw(st.dictionaries(st.integers(1, n), st.integers(-2, 2), max_size=2))
        for pair in pairs
    }
    return Algebra.from_brackets(n, brackets)


def full_scan(a: Algebra, identity: str):
    """First 1-based triple over all n^3 in product order with a nonzero defect."""
    e = [unit_vec(a.dim, i) for i in range(a.dim)]
    m = lambda x, y: multiply(a, x, y)
    for i, j, k in itertools.product(range(a.dim), repeat=3):
        defect = DEFECTS[identity](m, e[i], e[j], e[k])
        if any(defect):
            return (i + 1, j + 1, k + 1), defect
    return None, None


def assert_matches_full_scan(a: Algebra, identity: str):
    res = first_failure(a, identity)
    witness, defect = full_scan(a, identity)
    assert res.witness == witness
    assert res.ok == (witness is None)
    if witness is not None:
        assert vec_sub(res.lhs, res.rhs) == defect


def test_defects_cover_every_identity():
    assert set(DEFECTS) == set(IDENTITIES)


@SETTINGS
@given(algebras(), st.sampled_from(["left_symmetric", "N", "D", "S"]))
def test_first_failure_matches_full_scan(a, identity):
    assert_matches_full_scan(a, identity)


@SETTINGS
@given(lie_brackets())
def test_jacobi_first_failure_matches_full_scan(lie):
    assert_matches_full_scan(lie, "jacobi")


@SETTINGS
@given(st.one_of(algebras(), catalog_samples()), st.integers(0, 2**32))
def test_basis_change_keeps_left_symmetry_and_flags(a, seed):
    b = conjugated(a, random_invertible(random.Random(seed), a.dim))
    assert check_left_symmetric(b).ok == check_left_symmetric(a).ok
    assert ndsflags(b) == ndsflags(a)
    assert is_complete(b) == is_complete(a)
    if a.name:  # catalog entries are named; their Lie algebras are in scope
        tag = lambda x: str(identify_lie_algebra(lie_algebra_of(x)))
        assert tag(b) == tag(a)
        assert fingerprint(b) == fingerprint(a)
