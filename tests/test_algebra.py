import random
from collections import Counter
from fractions import Fraction

import pytest

from lsa.algebra import (
    Algebra,
    _complete_by_traces,
    LieTag,
    NotInScopeError,
    Subspace,
    center,
    check_left_symmetric,
    conjugated,
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
    ndsflags,
    quotient_algebra,
    restriction_to_ideal,
    right_mult,
)
from completeness_oracle import lattice_complete
from lsa.catalog import catalog_lsas, fixtures, make_lie, make_lsa
from lsa.linalg import QMatrix, commutator, random_invertible, unit_vec, vec

F = Fraction
E = lambda n, i: unit_vec(n, i)


def zero_algebra(n):
    return Algebra.from_entries(n, {})


def test_multiply_catalog_products():
    n30 = make_lsa("N30")
    assert multiply(n30, E(3, 0), E(3, 1)) == E(3, 1)  # e1*e2 = e2
    assert multiply(n30, vec([0, 0, 0]), E(3, 1)) == vec([0, 0, 0])
    d32 = make_lsa("D32")
    assert multiply(d32, E(3, 2), E(3, 2)) == E(3, 1)  # e3*e3 = e2
    assert multiply(d32, E(3, 0), E(3, 2)) == vec([0, 0, F(1, 2)])


def test_multiply_bilinear():
    from lsa.linalg import vec_add, vec_scale

    a = make_lsa("B31")
    x, y, z = vec([1, 2, -1]), vec([0, 3, 1]), vec([2, 0, 5])
    assert multiply(a, vec_add(x, z), y) == vec_add(multiply(a, x, y), multiply(a, z, y))
    assert multiply(a, x, vec_scale(F(3), y)) == vec_scale(F(3), multiply(a, x, y))


def test_left_right_mult():
    b30 = make_lsa("B30")
    assert left_mult(b30, E(3, 0)) == QMatrix.diag([0, 1, 1])
    assert right_mult(zero_algebra(2), vec([1, 1])).is_zero()
    a1 = fixtures()["A1_inv"]
    r3 = right_mult(a1, E(3, 2))
    assert r3.apply(E(3, 0)) == vec([0, 0, -1])  # e1*e3 = -e3
    assert r3.apply(E(3, 1)) == vec([1, 0, 0])  # e2*e3 = e1


def test_left_mult_defines_product():
    a = make_lsa("C3t", t=F(3))
    for i in range(3):
        for j in range(3):
            assert left_mult(a, E(3, i)).apply(E(3, j)) == multiply(a, E(3, i), E(3, j))
            assert right_mult(a, E(3, i)).apply(E(3, j)) == multiply(a, E(3, j), E(3, i))


def test_check_left_symmetric_catalog():
    for entry in catalog_lsas():
        for params in entry.default_params:
            assert check_left_symmetric(entry.make(params)).ok, entry.name
    assert check_left_symmetric(zero_algebra(3)).ok


def test_check_left_symmetric_failure_witness():
    # e1*e1 = e2, e2*e1 = e1: fails at (1,2,1) with lhs -e2, rhs +e2
    bad = Algebra.from_entries(2, {(1, 1, 2): 1, (2, 1, 1): 1})
    res = check_left_symmetric(bad)
    assert not res.ok
    assert res.witness == (1, 2, 1)
    assert res.lhs == vec([0, -1])
    assert res.rhs == vec([0, 1])


def test_representation_property():
    # [L_x, L_y] = L_[x,y] holds exactly for left-symmetric algebras
    for entry in catalog_lsas():
        a = entry.make(entry.default_params[0])
        for i in range(3):
            for j in range(3):
                lx, ly = left_mult(a, E(3, i)), left_mult(a, E(3, j))
                br = vec(
                    [
                        x - y
                        for x, y in zip(
                            multiply(a, E(3, i), E(3, j)), multiply(a, E(3, j), E(3, i))
                        )
                    ]
                )
                assert commutator(lx, ly) == left_mult(a, br)


def test_lie_algebra_of():
    n31 = make_lsa("N31")
    lie = lie_algebra_of(n31)
    assert multiply(lie, E(3, 0), E(3, 1)) == E(3, 1)
    assert multiply(lie, E(3, 0), E(3, 2)) == vec([0, 0, 0])
    # commutative product gives the abelian Lie algebra
    comm = Algebra.from_entries(2, {(1, 1, 2): 1})
    assert all(
        multiply(lie_algebra_of(comm), E(2, i), E(2, j)) == vec([0, 0])
        for i in range(2)
        for j in range(2)
    )
    e31 = make_lsa("E31zeta", zeta=1)
    lie31 = lie_algebra_of(e31)
    assert multiply(lie31, E(3, 0), E(3, 1)) == vec([0, 1, 1])
    assert multiply(lie31, E(3, 0), E(3, 2)) == vec([0, -1, 1])


def test_a_lie_tag_costs_one_jacobi_scan(monkeypatch):
    """``lie_algebra_of`` builds the brackets without a scan; the Milnor
    form's ``_require_lie`` is the one scan, on unimodular input too.  The
    scans are counted on the triple table, where every scan runs."""
    import lsa.algebra

    scans = []
    original = lsa.algebra.TripleTable.failures

    def counting(table, identity):
        scans.append(identity)
        return original(table, identity)

    monkeypatch.setattr(lsa.algebra.TripleTable, "failures", counting)
    assert str(identify_lie_algebra(lie_algebra_of(make_lsa("D31mu", mu="1/2")))) == "G34(mu=1/2)"
    assert scans == ["jacobi"]
    scans.clear()
    tag = identify_lie_algebra(lie_algebra_of(fixtures()["A1_inv"]))
    assert tag == LieTag("not_in_scope", reason="Lie algebra is unimodular")
    assert scans == ["jacobi"]


def test_lie_checks_name_the_failing_pair_or_triple():
    with pytest.raises(ValueError, match=r"antisymmetry fails at basis pair \(1, 2\)"):
        is_unimodular(make_lsa("N30"))
    # antisymmetric, but [[e1,e2],e3] + [[e2,e3],e1] + [[e3,e1],e2] = e1
    bad = Algebra.from_brackets(3, {(1, 3): {3: 1}, (2, 3): {1: 1}})
    lie_algebra_of(bad)  # a constructor: it does not scan
    for check in (is_unimodular, is_solvable, milnor_normal_form, identify_lie_algebra):
        with pytest.raises(ValueError, match=r"Jacobi identity fails at basis triple \(1, 2, 3\)"):
            check(bad)


def test_is_complete():
    for entry in catalog_lsas():
        for params in entry.default_params:
            assert is_complete(entry.make(params)), entry.name
    assert is_complete(zero_algebra(2))
    idem = Algebra.from_entries(1, {(1, 1, 1): 1})
    assert not is_complete(idem)


def test_is_complete_basis_invariant():
    rng = random.Random(21)
    a = make_lsa("D32")
    for _ in range(10):
        p = random_invertible(rng, 3)
        assert is_complete(conjugated(a, p))


def test_flags():
    assert ndsflags(make_lsa("N30")) == (True, True, True)
    assert ndsflags(make_lsa("B31")) == (False, True, False)
    assert ndsflags(zero_algebra(2)) == (True, True, True)
    assert ndsflags(make_lsa("N32")) == (False, False, True)
    assert ndsflags(make_lsa("D32")) == (True, False, False)


def test_novikov_characterizations_agree_random():
    rng = random.Random(5)
    count = 0
    for _ in range(200):
        n = rng.randint(1, 3)
        entries = {}
        for _ in range(rng.randint(0, 4)):
            key = (rng.randint(1, n), rng.randint(1, n), rng.randint(1, n))
            entries[key] = F(rng.randint(-2, 2))
        a = Algebra.from_entries(n, entries)
        rs = [right_mult(a, E(n, i)) for i in range(n)]
        assert is_novikov(a) == all(commutator(x, y).is_zero() for x in rs for y in rs)
        count += 1
    assert count == 200


def test_center():
    assert center(zero_algebra(2)).dim == 2
    c = center(make_lsa("N30"))
    assert c.basis == (E(3, 2),)
    assert center(make_lsa("B30")).dim == 0


def test_ideals():
    n30 = make_lsa("N30")
    ideals = find_ideals_dim_le3(n30)
    reprs = {s.basis for s in ideals}
    assert (E(3, 1),) in reprs  # span(e2)
    assert (E(3, 2),) in reprs  # span(e3)
    assert (E(3, 1), E(3, 2)) in reprs  # span(e2, e3)
    z2 = zero_algebra(2)
    assert {s.basis for s in find_ideals_dim_le3(z2)} == {(E(2, 0),), (E(2, 1),)}
    b30 = make_lsa("B30")
    assert not is_two_sided_ideal(b30, Subspace.from_spanning(3, [E(3, 0)]))
    assert is_two_sided_ideal(b30, Subspace.from_spanning(3, [E(3, 0), E(3, 1), E(3, 2)]))
    for entry in catalog_lsas():
        assert find_ideals_dim_le3(entry.make(entry.default_params[0])), entry.name


def test_ideal_outputs_pass_predicate():
    for entry in catalog_lsas():
        a = entry.make(entry.default_params[0])
        for ideal in find_ideals_dim_le3(a):
            assert is_two_sided_ideal(a, ideal)


def test_unimodular_solvable():
    a1_lie = lie_algebra_of(fixtures()["A1_inv"])
    assert is_unimodular(a1_lie)
    g32 = make_lie("G32")
    assert not is_unimodular(g32)
    assert is_solvable(g32)
    abelian = zero_algebra(3)
    assert is_unimodular(abelian) and is_solvable(abelian)
    with pytest.raises(ValueError):
        is_unimodular(make_lsa("N30"))  # not antisymmetric


def test_milnor_form():
    assert milnor_normal_form(make_lie("G31")).det_d == 0
    form = milnor_normal_form(make_lie("G32"))
    assert form.det_d == 1 and form.d == QMatrix.identity(2)
    assert milnor_normal_form(make_lie("G35", zeta=2)).det_d == 5
    assert milnor_normal_form(make_lie("G34", mu=F(1, 2))).det_d == F(8, 9)
    with pytest.raises(NotInScopeError):
        milnor_normal_form(zero_algebra(3))  # unimodular


def test_identify():
    assert str(identify_lie_algebra(make_lie("G31"))) == "G31"
    assert str(identify_lie_algebra(make_lie("G33"))) == "G33"
    tag = identify_lie_algebra(make_lie("G34", mu=F(1, 2)))
    assert tag.kind == "G34" and tag.mu == F(1, 2) and tag.exact
    tag = identify_lie_algebra(make_lie("G34", mu=F(-1, 2)))
    assert tag.mu == F(-1, 2)
    tag = identify_lie_algebra(make_lie("G35", zeta=F(3, 2)))
    assert tag.kind == "G35" and tag.zeta == F(3, 2)
    assert identify_lie_algebra(zero_algebra(3)).kind == "not_in_scope"


@pytest.mark.parametrize(
    "brackets, reason",
    [
        ({(1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}}, "not solvable"),  # sl(2,R)
        ({(1, 2): {3: 1}, (1, 3): {2: -1}, (2, 3): {1: 1}}, "not solvable"),  # so(3)
        ({(1, 2): {3: 1}}, "unimodular"),  # Heisenberg
        ({(1, 2): {3: 1}, (1, 3): {2: -1}}, "unimodular"),  # e(2)
        ({}, "unimodular"),  # abelian
    ],
)
def test_identify_out_of_scope_reason(brackets, reason):
    rng = random.Random(len(brackets))
    lie = Algebra.from_brackets(3, brackets)
    for a in (lie, conjugated(lie, random_invertible(rng, 3))):
        assert str(identify_lie_algebra(a)) == f"not_in_scope(Lie algebra is {reason})"


def test_identify_random_conjugate():
    rng = random.Random(13)
    g32 = make_lie("G32")
    for _ in range(20):
        p = random_invertible(rng, 3)
        assert str(identify_lie_algebra(conjugated(g32, p))) == "G32"


def test_detd_conjugation_invariant():
    rng = random.Random(29)
    for lie, expected in [
        (make_lie("G31"), F(0)),
        (make_lie("G33"), F(1)),
        (make_lie("G34", mu=F(1, 3)), F(12, 16)),
        (make_lie("G35", zeta=F(2)), F(5)),
    ]:
        for _ in range(10):
            p = random_invertible(rng, 3)
            assert milnor_normal_form(conjugated(lie, p)).det_d == expected


def test_restriction_quotient_complete():
    a = make_lsa("N31")
    for ideal in find_ideals_dim_le3(a):
        assert is_complete(restriction_to_ideal(a, ideal))
        assert is_complete(quotient_algebra(a, ideal))


def test_lie_tag_constraints():
    with pytest.raises(ValueError):
        LieTag("G34", mu=F(2))
    with pytest.raises(ValueError):
        LieTag("G35", zeta=F(-1))


def test_identify_non_square_parameters_flagged():
    # det D = 1/2: mu = 3 - 2 sqrt(2) is irrational; tag flagged non-exact
    lie = Algebra.from_brackets(3, {(1, 2): {2: 1, 3: F(1, 2)}, (1, 3): {2: 1, 3: 1}})
    tag = identify_lie_algebra(lie)
    assert tag.kind == "G34" and not tag.exact
    assert abs(4 * tag.mu / (1 + tag.mu) ** 2 - 0.5) < 1e-12
    # det D = 3: zeta = sqrt(2)
    lie = Algebra.from_brackets(3, {(1, 2): {2: 1, 3: 2}, (1, 3): {2: -1, 3: 1}})
    tag = identify_lie_algebra(lie)
    assert tag.kind == "G35" and not tag.exact
    assert abs(tag.zeta**2 - 2.0) < 1e-12


def _random_algebra(rng, n, products=4):
    """Up to ``products`` random basis products with coefficients in -2..2."""
    entries = {}
    for _ in range(rng.randint(0, products)):
        key = (rng.randint(1, n), rng.randint(1, n), rng.randint(1, n))
        entries[key] = F(rng.randint(-2, 2))
    return Algebra.from_entries(n, entries)


def test_is_complete_grid_decision_vs_random_points():
    # the lattice oracle, which decides nilpotency of every R_x on any
    # algebra, against the full grid {0..n}^n, exact because each
    # coefficient of char_poly(R_x) has degree <= n in every coordinate;
    # complete verdicts are also checked at random rational points
    import itertools

    from lsa.linalg import is_nilpotent, random_fraction, vec as mkvec

    def full_grid(a):
        n = a.dim
        return all(
            is_nilpotent(right_mult(a, vec([F(c) for c in pt])))
            for pt in itertools.product(range(n + 1), repeat=n)
        )

    rng = random.Random(19)
    verdicts = set()
    for trial in range(66):
        n = 4 if trial >= 60 else rng.randint(1, 3)  # 625 grid points in 4D
        a = _random_algebra(rng, n)
        complete = lattice_complete(a)
        assert complete == full_grid(a), (trial, a.c)
        verdicts.add(complete)
        if complete:
            for _ in range(50):
                x = mkvec([random_fraction(rng, 6, 4) for _ in range(n)])
                assert is_nilpotent(right_mult(a, x)), (trial, x)
    assert verdicts == {True, False}


def _right_traces_vanish(a):
    return all(right_mult(a, unit_vec(a.dim, i)).trace() == 0 for i in range(a.dim))


def _direct_sum(a, b):
    """A + B with A*B = B*A = 0, B's basis after A's."""
    n = a.dim
    entries = {(i, j, k): v for i, j, k, v in a.nonzero_products()}
    entries.update({(i + n, j + n, k + n): v for i, j, k, v in b.nonzero_products()})
    return Algebra.from_entries(n + b.dim, entries, f"{a.name}+{b.name}")


def _left_symmetric_algebras():
    """Complete and incomplete left-symmetric algebras of dimensions 1-4:
    the catalog defaults, the small fixtures, every reconstruction, direct
    sums of these with each other and with an idempotent, and each of them
    in a random basis."""
    from lsa.catalog import reconstruction_cases
    from lsa.extensions import build_extension

    idempotent = Algebra.from_entries(1, {(1, 1, 1): 1}, "idem")  # incomplete
    lsas = [entry.make(p) for entry in catalog_lsas() for p in entry.default_params]
    # aff_R is a Lie bracket, not a left-symmetric product
    small = [a for a in fixtures().values() if a.dim <= 2 and a.name != "aff_R"]
    lsas += small
    lsas += [build_extension(case.data) for case in reconstruction_cases()]
    lsas.append(idempotent)
    # direct sums of left-symmetric algebras are left-symmetric: complete
    # ones in dims 2-4, and incomplete ones with the idempotent in dims 2-4
    lsas += [_direct_sum(a, b) for a in small for b in small if 2 <= a.dim + b.dim <= 4]
    lsas += [_direct_sum(a, idempotent) for a in small + lsas[:3]]
    lsas += [_direct_sum(idempotent, a) for a in small]
    rng = random.Random(29)
    return lsas + [conjugated(a, random_invertible(rng, a.dim)) for a in lsas]


def test_is_complete_agrees_with_segal_trace_criterion():
    # Segal: a left-symmetric algebra is complete iff tr R_x = 0 for all x;
    # the lattice oracle decides nilpotency of every R_x without the theorem
    verdicts = Counter()
    for a in _left_symmetric_algebras():
        assert check_left_symmetric(a).ok, a.name
        complete = is_complete(a)
        assert complete == lattice_complete(a) == _right_traces_vanish(a) == _complete_by_traces(a), a.name
        verdicts[complete, a.dim] += 1
    assert {(False, n) for n in (1, 2, 3, 4)} <= set(verdicts)
    assert {(True, n) for n in (1, 2, 3, 4)} <= set(verdicts)


def test_is_complete_is_left_symmetry_and_nilpotency():
    """``is_complete`` is "a complete left-symmetric algebra": left
    symmetry and every R_x nilpotent, the latter by the lattice oracle, on
    random algebras of dimensions 1-4 (left-symmetric or not) and on the
    left-symmetric ones of the Segal test."""
    rng = random.Random(31)
    randoms = [_random_algebra(rng, rng.randint(1, 4), products=6) for _ in range(120)]
    verdicts = Counter()
    for a in randoms + _left_symmetric_algebras():
        left_symmetric = check_left_symmetric(a).ok
        nilpotent = lattice_complete(a)
        assert is_complete(a) == (left_symmetric and nilpotent), a.c
        verdicts[left_symmetric, nilpotent] += 1
    # every combination occurs, off left-symmetric input with nilpotent
    # right multiplications included
    assert set(verdicts) == {(True, True), (True, False), (False, True), (False, False)}


def test_trace_criterion_fails_off_left_symmetric_algebras():
    # e1.e1 = e1, e2.e1 = -e2: tr R_x = 0 for every x, but R_e1 = diag(1, -1)
    a = Algebra.from_entries(2, {(1, 1, 1): 1, (2, 1, 2): -1})
    assert not check_left_symmetric(a).ok
    assert _right_traces_vanish(a) and _complete_by_traces(a)
    assert not lattice_complete(a)
    assert not is_complete(a)


def test_milnor_det_matches_trace_formula():
    # independent det oracle: for a 2x2 matrix with trace 2,
    # det D = (4 - tr(D^2)) / 2
    rng = random.Random(23)
    samples = [
        make_lie("G31"),
        make_lie("G33"),
        make_lie("G34", mu=F(2, 5)),
        make_lie("G35", zeta=F(3, 2)),
    ]
    for lie in samples:
        for _ in range(5):
            p = random_invertible(rng, 3)
            form = milnor_normal_form(conjugated(lie, p))
            d = form.d
            assert form.det_d == (4 - (d @ d).trace()) / 2
