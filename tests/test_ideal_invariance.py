"""The ideal search under a rational change of basis.

``conjugated(a, P)`` is ``a`` in the basis f_i = sum_k P[k][i] e_k, so a
subspace W of ``a`` (in e-coordinates) is P^-1 W in f-coordinates, and a
plane with normal w has the normal P^T w.  The joint eigenspaces of the
operators L_x, R_x, and of their transposes, do not depend on the basis, so
``find_ideals_dim_le3(conjugated(a, P))`` finds the images of ``a``'s
ideals.  Where a joint eigenspace has dimension >= 2 (N30, B30, the 2D zero
algebra), the search reports it through the reduced-echelon basis vectors
of the current basis, one line (or plane) per vector: those vary with P,
but the joint eigenspace each one lies in, and so the count, do not.
"""
from collections import Counter

import pytest

from ideal_inputs import operators
from lsa.algebra import Subspace, conjugated, find_ideals_dim_le3
from lsa.catalog import catalog_lsas, fixtures
from lsa.linalg import QMatrix, det, inverse, nullspace_basis, vstack

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

ALGEBRAS = {
    **{
        e.name + "".join(f"({k}={v})" for k, v in params.items()): e.make(params)
        for e in catalog_lsas()
        for params in e.default_params
    },
    **{name: a for name, a in fixtures().items() if a.dim in (2, 3)},
}
ENTRY = st.fractions(-3, 3, max_denominator=3)


def basis_changes(n):
    return (
        st.lists(st.lists(ENTRY, min_size=n, max_size=n), min_size=n, max_size=n)
        .map(QMatrix)
        .filter(lambda p: det(p) != 0)
    )


def joint_eigenspace(mats, v):
    """The joint eigenspace of ``mats`` that holds the joint eigenvector v."""
    i = next(i for i, x in enumerate(v) if x)
    eye = QMatrix.identity(len(v))
    shifted = [m - eye.scale(m.apply(v)[i] / v[i]) for m in mats]
    return Subspace.from_spanning(len(v), nullspace_basis(vstack(shifted)))


def mapped(m, w):
    return Subspace.from_spanning(w.ambient_dim, [m.apply(v) for v in w.basis])


def eigenspaces_of(a, ideals):
    """The joint eigenspace of the operators through each line, and of the
    transposes through the normal of each plane, one per ideal."""
    mats = operators(a)
    lines = Counter(joint_eigenspace(mats, w.basis[0]) for w in ideals if w.dim == 1)
    normals = [nullspace_basis(QMatrix(list(w.basis)))[0] for w in ideals if w.dim == 2]
    planes = Counter(joint_eigenspace([m.transpose() for m in mats], v) for v in normals)
    return lines, planes


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@settings(max_examples=15, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_ideals_follow_a_change_of_basis(name, data):
    a = ALGEBRAS[name]
    p = data.draw(basis_changes(a.dim))
    p_inv, p_t = inverse(p), p.transpose()
    ideals, moved = find_ideals_dim_le3(a), find_ideals_dim_le3(conjugated(a, p))
    assert sorted(w.dim for w in moved) == [w.dim for w in ideals]
    lines, planes = eigenspaces_of(a, ideals)
    assert eigenspaces_of(conjugated(a, p), moved) == (
        Counter({mapped(p_inv, sp): k for sp, k in lines.items()}),
        Counter({mapped(p_t, sp): k for sp, k in planes.items()}),
    )
    if all(sp.dim == 1 for sp in [*lines, *planes]):
        # every ideal is its own joint eigenspace's line or plane
        assert moved == sorted((mapped(p_inv, w) for w in ideals), key=lambda s: (s.dim, s.basis))
