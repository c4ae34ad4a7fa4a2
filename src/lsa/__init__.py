"""Exact-arithmetic toolkit for left-symmetric (pre-Lie) algebras."""

from .algebra import (
    Algebra,
    LieTag,
    MilnorForm,
    NotInScopeError,
    Subspace,
    center,
    check_left_symmetric,
    find_ideals_dim_le3,
    identify_lie_algebra,
    is_complete,
    is_novikov,
    is_solvable,
    is_two_sided_ideal,
    is_unimodular,
    left_mult,
    lie_algebra_of,
    milnor_normal_form,
    multiply,
    right_mult,
)
from .extensions import (
    BimoduleAction,
    Cocycle2,
    ExtensionData,
    LieExtensionData,
    act_on_cocycle,
    aut_group_dim2,
    build_extension,
    build_lie_extension,
    check_kim_conditions,
    delta1,
    delta2,
    h2,
    i_g,
    is_central_extension,
    is_exact_extension,
    verify_iso_witness,
)
from .catalog import catalog_lsas, catalog_lie_algebras, fingerprint, fixtures, make_lie, make_lsa, verify_catalog
from .linalg import QMatrix, char_poly, is_nilpotent, nullspace_basis, quotient_basis, rref

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
