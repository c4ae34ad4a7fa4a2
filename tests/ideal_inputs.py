"""Seeded inputs for the ideal search, and its operators, shared by its
oracle, property and byte tests.

``file_command_inputs`` are the algebras a user hands ``lsa ideals``: every
catalog entry at a sampled parameter and the 2D/3D fixtures, each in a
fresh random rational basis.  ``degenerate_inputs`` are the cases where a
joint eigenspace stays 2D or 3D to the end (the zero algebras, diagonal
algebras with repeated eigenvalues) and where the first or the last
operator L_e1, ..., R_en has no rational eigenvalue; each comes in its
stored basis and in a random one.  ``DEPENDENT`` adds algebras whose
operators are zero, repeated or proportional, so that the search drops
them from the span's basis, one of them an operator without a rational
eigenvalue.
"""
import random

from lsa.algebra import Algebra, conjugated, left_mult, right_mult
from lsa.catalog import catalog_lsas, fixtures
from lsa.linalg import random_invertible, unit_vec


def operators(a: Algebra) -> list:
    """L_e1..L_en, R_e1..R_en: the operators whose joint eigenspaces the
    ideal search refines."""
    e = [unit_vec(a.dim, i) for i in range(a.dim)]
    return [left_mult(a, x) for x in e] + [right_mult(a, x) for x in e]


def fresh_basis(a: Algebra, rng: random.Random) -> Algebra:
    return conjugated(a, random_invertible(rng, a.dim, max_num=3, max_den=3))


def file_command_inputs(seed: int, rounds: int) -> list[Algebra]:
    rng = random.Random(seed)
    out = []
    for _ in range(rounds):
        out += [fresh_basis(e.make(e.sample_params(rng)), rng) for e in catalog_lsas()]
        out += [fresh_basis(a, rng) for a in fixtures().values() if a.dim in (2, 3)]
    return out


DEGENERATE = {
    "zero2": (2, {}),
    "zero3": (3, {}),
    # L_e1 = diag(1, 0, 0): its 0-eigenspace is a plane no other operator splits
    "idempotent3": (3, {(1, 1, 1): 1}),
    # L_e1 = 2 I: one eigenvalue of multiplicity 3
    "scalar3": (3, {(1, 1, 1): 2, (1, 2, 2): 2, (1, 3, 3): 2}),
    "diag3": (3, {(1, 1, 1): 1, (2, 2, 2): 1, (1, 2, 2): 1, (2, 1, 1): 1}),
    "diag2": (2, {(1, 1, 1): 3, (1, 2, 2): 3}),
    # L_e1 is the companion matrix of y^3 - 2 (y^2 - 2 in 2D)
    "irrational_first3": (3, {(1, 1, 2): 1, (1, 2, 3): 1, (1, 3, 1): 2}),
    "irrational_first2": (2, {(1, 1, 2): 1, (1, 2, 1): 2}),
    # R_e3 (R_e2 in 2D) is such a companion matrix; in 3D the operators
    # before it share the eigenplane span(e1, e2)
    "irrational_last3": (3, {(1, 3, 2): 1, (2, 3, 3): 1, (3, 3, 1): 2}),
    "irrational_last2": (2, {(1, 2, 2): 1, (2, 2, 1): 2}),
}


def degenerate_inputs(seed: int) -> list[Algebra]:
    rng = random.Random(seed)
    out = []
    for name, (dim, entries) in DEGENERATE.items():
        a = Algebra.from_entries(dim, entries, name)
        out += [a, fresh_basis(a, rng)]
    return out


DEPENDENT = {
    # L_e1 = R_e1 = E11, and the other operators are zero
    "one_product2": (2, {(1, 1, 1): 1}),
    "one_product3": (3, {(1, 1, 1): 1}),
    # commutative: R_ei = L_ei, each operator repeated
    "commutative3": (3, {(1, 1, 1): 1, (1, 2, 2): 1, (2, 1, 2): 1, (1, 3, 3): 1, (3, 1, 3): 1}),
    # L_e2 = 2 L_e1
    "proportional3": (3, {(1, 1, 2): 1, (2, 1, 2): 2, (1, 3, 3): 1, (2, 3, 3): 2}),
    # R_e2 = L_e2 - R_e1 has the characteristic polynomial y^2 + 1
    "irrational_dropped2": (2, {(1, 1, 2): 1, (1, 2, 2): -1, (2, 2, 1): 1}),
}


def dependent_inputs(seed: int) -> list[Algebra]:
    """``DEPENDENT`` and the zero algebras, each in its stored basis and in a
    random one."""
    rng = random.Random(seed)
    out = []
    for name, (dim, entries) in {"zero2": DEGENERATE["zero2"], "zero3": DEGENERATE["zero3"], **DEPENDENT}.items():
        a = Algebra.from_entries(dim, entries, name)
        out += [a, fresh_basis(a, rng)]
    return out
