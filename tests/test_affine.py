import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import lsa.affine
from lsa.affine import (
    _GRID_AXES,
    _STENCIL,
    DIFF_STEP,
    FAMILIES,
    FAMILY_NAMES,
    GRID_TICKS,
    NEWTON_TOL,
    NUMPY,
    AffineMap3,
    ClosureReport,
    FamilySpec,
    GroupFamily,
    _grid_orbit_jacobians,
    _orbit_jacobians,
    _recover_starts,
    affine_rep,
    build_family,
    check_closure,
    check_simply_transitive,
    check_tangent_algebra,
    default_families,
    legacy_d32_family,
    map_distance,
    newton_invert_orbit,
    orbit_map,
    sample_parameter_pairs,
    special_f,
    special_g,
    special_h,
    special_k,
    special_phi,
    verify_family,
)
from lsa.catalog import MU, T, make_lsa
from lsa.linalg import QMatrix

from affine_reference import (
    SPECIAL_BRANCHES,
    SPECIAL_FUNCTIONS,
    SPECIAL_ZERO_VALUES,
    check_closure_reference,
    check_simply_transitive_reference,
    closed_reference,
    expm4,
    newton_invert_orbit_reference,
    phi_partial_sum,
    recover_start_reference,
    tangent_reference,
)


# --- special functions ----------------------------------------------------


def test_values_at_zero_exact():
    assert special_f(0.0) == 1.0
    assert special_g(0.0) == 0.5
    assert special_h(0.0) == 0.0
    assert special_k(0.0) == 0.0
    assert special_phi(0.0) == 0.0
    xs = np.array([-0.3, 0.0, 1e-6, 0.0, 2.0])
    for name, fn in SPECIAL_FUNCTIONS.items():
        assert fn(xs)[1] == fn(xs)[3] == SPECIAL_ZERO_VALUES[name], name


def test_f_at_one():
    assert abs(special_f(1.0) - (math.e - 1.0)) < 1e-15


def test_phi_closed_form_vs_partial_sum():
    for x in (-3.0, -1.0, -0.2, 0.1, 1.0, 2.5):
        assert abs(special_phi(x) - phi_partial_sum(x, 60)) < 1e-12
    assert abs(special_phi(1.0) - 1.0) < 1e-12


def test_series_and_closed_branches_agree():
    xs = [x / 100.0 for x in range(-500, 501) if x != 0]
    for name, fn in SPECIAL_FUNCTIONS.items():
        for x in xs:
            assert abs(fn(x) - closed_reference(name, x)) < 1e-12, (name, x)
        # one array across both sides of the threshold: each entry as if alone
        batch = fn(np.array(xs))
        assert batch.tolist() == [fn(x) for x in xs], name


def _term_by_term(first, ratio):
    total, term, n = 0.0, first, 0
    while abs(term) >= 1e-18:
        total += term
        n += 1
        term *= ratio(n)
    return total


SERIES_LOOPS = {
    "f": lambda x: _term_by_term(1.0, lambda n: x / (n + 1)),
    "g": lambda x: _term_by_term(0.5, lambda n: x / (n + 2)),
    "h": lambda x: _term_by_term(x**3 / 24.0, lambda n: -x * x / ((2 * n + 3) * (2 * n + 4))),
    "k": lambda x: _term_by_term(-x * x / 6.0, lambda n: -x * x / ((2 * n + 2) * (2 * n + 3))),
    "phi": lambda x: _term_by_term(x / 2.0, lambda n: x * (n + 1) / (n * (n + 2))),
}


def test_array_series_equal_the_scalar_loops():
    # each entry stops at its own first term below 1e-18, bit for bit
    rng = random.Random(6)
    xs = [0.0, 1e-7, -1e-6, 1e-4, 0.25, -0.25] + [rng.uniform(-0.25, 0.25) for _ in range(300)]
    for name, (series, _) in SPECIAL_BRANCHES.items():
        assert series(np.array(xs)).tolist() == [SERIES_LOOPS[name](x) for x in xs], name


def test_branch_continuity_at_threshold():
    # both branches evaluated at the switch points themselves
    from lsa.affine import SERIES_THRESHOLD

    for name, (series, closed) in SPECIAL_BRANCHES.items():
        for s in (SERIES_THRESHOLD, -SERIES_THRESHOLD):
            assert abs(series(s) - closed(s)) < 1e-12, name


# --- expm4 ----------------------------------------------------------------


def test_expm4_zero():
    assert np.allclose(expm4(np.zeros((4, 4))), np.eye(4), atol=0)


def test_expm4_nilpotent():
    n = np.zeros((4, 4))
    n[0, 1] = 1.0
    n[1, 2] = 2.0
    n[2, 3] = 3.0
    expected = np.eye(4) + n + n @ n / 2 + n @ n @ n / 6
    assert np.max(np.abs(expm4(n) - expected)) < 1e-15


def test_expm4_diagonal():
    d = np.diag([1.0, 2.0, 3.0, 0.0])
    expected = np.diag([math.e, math.e**2, math.e**3, 1.0])
    assert np.max(np.abs(expm4(d) - expected)) < 1e-13


def test_expm4_inverse_property():
    rng = random.Random(17)
    for _ in range(20):
        m = np.array([[rng.uniform(-1.2, 1.2) for _ in range(4)] for _ in range(4)])
        prod = expm4(m) @ expm4(-m)
        assert np.max(np.abs(prod - np.eye(4))) < 1e-12


def test_coordinate_axes_are_exponentials_of_the_generators():
    """Each family's coordinate axes are one-parameter subgroups:
    g(t e_i) = exp(t X) with X the generator of catalog basis vector
    e_i."""
    for fam in default_families():
        spec = FAMILIES[fam.name]
        rep = affine_rep(make_lsa(spec.catalog_name, **spec.defaults)).homogeneous_float()
        for i, t in itertools.product(range(3), (0.7, -1.3, 2.0)):
            point = [0.0, 0.0, 0.0]
            point[i] = t
            element = fam.element(*point).as_homogeneous()
            err = np.max(np.abs(element - expm4(t * rep[i])))
            assert err < 1e-12, (fam.name, i, t, err)


# --- affine representation ------------------------------------------------


def test_affine_rep_n30():
    rep = affine_rep(make_lsa("N30"))
    lin, vecpart = rep.generators[0]
    assert lin == QMatrix([[0, 0, 0], [0, 1, 0], [0, 0, 0]])
    assert vecpart == (1, 0, 0)


def test_affine_rep_e31():
    rep = affine_rep(make_lsa("E31zeta", zeta=1))
    lin, _ = rep.generators[0]
    assert lin == QMatrix([[0, 0, 0], [0, 1, -1], [0, 1, 1]])


def test_affine_rep_zero_algebra():
    from lsa.algebra import Algebra

    rep = affine_rep(Algebra.from_entries(3, {}))
    for lin, vecpart in rep.generators:
        assert lin.is_zero()
    homs = rep.homogeneous_float()
    for i in range(3):
        for j in range(3):
            assert np.allclose(homs[i] @ homs[j], homs[j] @ homs[i])


def test_affine_rep_rejects_non_lsa():
    from lsa.catalog import d32_rejected_variant

    with pytest.raises(ValueError):
        affine_rep(d32_rejected_variant())


# --- group elements -------------------------------------------------------


def test_a30_element():
    fam = build_family("A30")
    m = fam.element(1.0, 2.0, 3.0)
    assert np.allclose(m.linear, np.diag([1.0, math.e, 1.0]))
    assert np.allclose(m.translation, [1.0, 2.0 * special_f(1.0), 3.0])


def test_d32_element():
    fam = build_family("D32")
    m = fam.element(1.0, 2.0, 3.0)
    f1, fh = special_f(1.0), special_f(0.5)
    assert np.allclose(m.linear[1, 2], 3.0 * (2 * f1 - fh))
    assert np.allclose(m.translation, [1.0, 2.0 * f1 + 4.5 * fh * fh, 3.0 * fh])


def test_identity_at_zero_all_families():
    for fam in default_families():
        assert map_distance(fam.element(0.0, 0.0, 0.0), AffineMap3.identity()) == 0.0


def test_family_param_validation():
    with pytest.raises(ValueError):
        build_family("C3t", t=1.0)
    with pytest.raises(ValueError):
        build_family("D31", mu=1.0)
    with pytest.raises(ValueError):
        build_family("E3", zeta=-1.0)
    with pytest.raises(ValueError):
        build_family("A30", t=2.0)
    with pytest.raises(ValueError):
        build_family("D31")
    with pytest.raises(ValueError):
        build_family("E3", zeta=math.nan)
    # the constraint holds on the exact value, which the float then rounds
    assert build_family("C3t", t=1 + 1e-13).params == {"t": 1 + 1e-13}
    assert build_family("D31", mu=Fraction(-1, 3)).params == {"mu": -1 / 3}
    with pytest.raises(ValueError, match="0 < |mu| < 1"):
        build_family("D31", mu="-1")


def test_family_table_reads_the_catalog():
    from lsa.catalog import catalog_lsas

    entries = {e.name: e for e in catalog_lsas()}
    for fam, (name, spec) in zip(default_families(), FAMILIES.items()):
        assert fam.name == name and fam.catalog_name == spec.catalog_name
        assert spec.defaults == entries[spec.catalog_name].default_params[0]
        assert fam.params == {k: float(v) for k, v in spec.defaults.items()}


# --- closure --------------------------------------------------------------


def test_closure_specific_pair_a30():
    fam = build_family("A30")
    report = check_closure(fam, [((1.0, 2.0, 3.0), (-1.0, 1.0, 0.0))])
    assert report.ok and report.max_residual < 1e-12


def test_closure_with_identity():
    for fam in default_families():
        report = check_closure(fam, [((0.7, -1.1, 0.4), (0.0, 0.0, 0.0))])
        assert report.ok
        assert report.max_residual < 1e-12


def test_closure_all_families_sampled():
    rng = random.Random(101)
    for fam in default_families():
        pairs = sample_parameter_pairs(rng, 25)
        report = check_closure(fam, pairs)
        assert report.ok, (fam.name, report.failures[:1])
        assert report.max_residual < 1e-9


def test_legacy_d32_not_closed():
    fam = legacy_d32_family()
    composite = fam.element(1.0, 1.0, 0.0).compose(fam.element(0.0, 1.0, 0.0))
    rec = fam.recover(composite)
    assert map_distance(fam.element(*rec), composite) > 1e-3


@pytest.mark.parametrize("seed", (0, 7, 11))
def test_legacy_closure_equals_the_per_pair_reference(seed):
    """Every pair misses the closed form."""
    fam = legacy_d32_family()
    pairs = sample_parameter_pairs(random.Random(seed), 10)
    report = check_closure(fam, pairs)
    assert report == check_closure_reference(fam, pairs)
    assert report.newton_fallbacks == len(report.failures) == 10


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_closure_equals_the_per_pair_reference(name):
    fam = build_family(name, **FAMILIES[name].defaults)
    pairs = sample_parameter_pairs(random.Random(11), 50)
    assert check_closure(fam, pairs) == check_closure_reference(fam, pairs)


def test_closure_edge_cases_equal_the_per_pair_reference():
    fam = build_family("A30")
    assert check_closure(fam, []) == check_closure_reference(fam, []) == ClosureReport("A30", 0, 0.0, 0, [])
    # a closed family of translations whose recover misses by a^2 where the
    # composite's a is positive and is NaN where it is not: every pair
    # fails, a NaN one with residual inf, and inf is the maximum
    crude = GroupFamily(
        "crude",
        FamilySpec(
            "zero",
            lambda x, a, b, c: ({}, (a, b + a * a, c)),
            lambda x, lin, t: (t[0], t[1] + 0 * x.log(t[0]), t[2]),
        ),
        {},
    )
    pairs = sample_parameter_pairs(random.Random(3), 20)
    report = check_closure(crude, pairs)
    assert report == check_closure_reference(crude, pairs)
    assert report.newton_fallbacks == len(report.failures) == 20 and report.max_residual == math.inf
    broken = [p1[0] + p2[0] <= 0 for p1, p2 in pairs]
    assert 0 < sum(broken) < 20
    assert [resid == math.inf for *_, resid in report.failures] == broken


# --- simple transitivity --------------------------------------------------


def _orbit_jacobian_per_point(fam, p, step=1e-6):
    """Reference: the per-point central-difference loop the batch replaces."""
    jac = np.zeros((3, 3))
    p = np.asarray(p, dtype=float)
    for i in range(3):
        dp, dm = p.copy(), p.copy()
        dp[i] += step
        dm[i] -= step
        jac[:, i] = (orbit_map(fam, dp) - orbit_map(fam, dm)) / (2 * step)
    return jac


def test_orbit_map_a30_jacobian_analytic():
    fam = build_family("A30")
    points = [(0.0, 0.0, 0.0), (1.0, 2.0, -1.0), (-1.5, 0.3, 0.7)]
    _, jacs = _orbit_jacobians(fam, points)
    for p, jac in zip(points, jacs):
        # orbit = (a, b f(a), c); det = f(a)
        assert abs(np.linalg.det(jac) - special_f(p[0])) < 1e-7


def test_transitivity_at_origin_all():
    for fam in default_families():
        _, jac = _orbit_jacobians(fam, [(0.0, 0.0, 0.0)])
        assert abs(np.linalg.det(jac[0])) > 1e-8


def test_batched_grid_matches_per_point_oracle():
    ticks = np.arange(-2.0, 2.25, 0.5)
    for fam in default_families():
        report = check_simply_transitive(fam, n_targets=0)
        min_jac, min_point = math.inf, None
        for p in itertools.product(ticks, repeat=3):
            d = abs(float(np.linalg.det(_orbit_jacobian_per_point(fam, p))))
            if d < min_jac:
                min_jac, min_point = d, p
        assert abs(report.min_abs_jacobian - min_jac) <= 1e-12 * min_jac, fam.name
        assert report.min_jacobian_point == min_point, fam.name


def test_batched_elements_equal_single_calls():
    rng = np.random.default_rng(12)
    # both sides of the series threshold and exact zeros in one batch
    a, b, c = rng.uniform(-2.5, 2.5, (3, 40))
    a[:10] = rng.uniform(-0.3, 0.3, 10)
    a[10:13] = 0.0
    for fam in default_families() + [legacy_d32_family()]:
        batch = fam.elements(a, b, c)
        for i in range(len(a)):
            single = fam.element(a[i], b[i], c[i])
            assert np.array_equal(batch.linear[i], single.linear), (fam.name, i)
            assert np.array_equal(batch.translation[i], single.translation), (fam.name, i)
        rec = np.stack(fam.recover(batch), axis=-1)
        assert np.max(np.abs(rec - np.stack([a, b, c], axis=-1))) < 1e-9, fam.name


def test_affine_map_validates_without_assert():
    with pytest.raises(ValueError, match="non-finite"):
        AffineMap3(np.eye(3), [math.nan, 0.0, 0.0])
    with pytest.raises(ValueError, match="non-finite"):
        build_family("A30").element(1000.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="non-finite"):
        build_family("A30").elements([0.0, math.inf], [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="3, 3"):
        AffineMap3(np.eye(2), [0.0, 0.0])


def test_newton_inversion_e3():
    fam = build_family("E3", zeta=1.0)
    rng = random.Random(5)
    for _ in range(20):
        target = [rng.uniform(-3, 3) for _ in range(3)]
        _, err, ok = newton_invert_orbit(fam, target)
        assert ok and err < 1e-10


def test_check_simply_transitive_a30():
    report = check_simply_transitive(build_family("A30"))
    assert report.ok


# --- simple transitivity: the batches against the one-at-a-time oracles ---


def translation_family(name, translation, recover=lambda t: np.full_like(t, np.nan)):
    """A test family of pure translations p -> translation(p) with the
    closed form ``recover(t)``, by default none: it gives NaN, so the grid
    check refuses the family and the transitivity check starts every target
    at the origin."""
    return GroupFamily(
        name, FamilySpec("zero", lambda x, a, b, c: ({}, translation(a, b, c)), lambda x, lin, t: recover(t)), {}
    )


@pytest.mark.parametrize("seed", (0, 7, 11))
@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_transitivity_report_equals_the_oracle(name, seed):
    fam = build_family(name, **FAMILIES[name].defaults)
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    assert check_simply_transitive(fam, rng=rng) == check_simply_transitive_reference(fam, rng=oracle_rng)
    assert rng.getstate() == oracle_rng.getstate()


def test_batched_newton_equals_one_point_calls():
    rng = random.Random(23)
    for fam in default_families():
        # [-8, 8]^3 also holds a target that fails
        targets = np.array([[rng.uniform(-8, 8) for _ in range(3)] for _ in range(12)])
        xs, errs, oks = newton_invert_orbit(fam, targets)
        for target, x, err, ok in zip(targets, xs, errs, oks):
            expected = newton_invert_orbit_reference(fam, target)
            assert (tuple(x), float(err), bool(ok)) == expected, (fam.name, target)
            assert newton_invert_orbit(fam, target) == expected, (fam.name, target)


@pytest.mark.parametrize(
    "translation, recover",
    [
        # g(-a, b, c) = g(a, b, c) exactly
        (lambda a, b, c: (a * a, b, c), lambda t: (np.sqrt(t[0]), t[1], t[2])),
        # 2e-10 |a| apart, and recover takes the root a >= -5e-11
        (lambda a, b, c: (a * a + 1e-10 * a, b, c), lambda t: ((np.sqrt(1e-20 + 4 * t[0]) - 1e-10) / 2, t[1], t[2])),
    ],
    ids=["exact-fold", "near-fold"],
)
def test_non_injective_family_witness_equals_the_oracle(translation, recover):
    """The grid refuses a closed form that is a left inverse for a >= 0
    only; the witness is the first grid point, which ``recover`` sends to
    (within 1e-10 of) its mirror image."""
    fam = translation_family("fold", translation, recover)
    report = check_simply_transitive(fam, rng=random.Random(7))
    assert report == check_simply_transitive_reference(fam, rng=random.Random(7))
    assert not report.injectivity_ok and not report.ok
    point, back = report.injectivity_witness
    assert point == (-2.0, -2.0, -2.0) and abs(back[0] - 2.0) < 1e-9 and back[1:] == (-2.0, -2.0)
    # a target with a negative first coordinate starts at the origin, and
    # no point reaches it
    assert 0 < report.newton_failures < 20


@pytest.mark.parametrize("shift, ok", [(NEWTON_TOL / 2, True), (2 * NEWTON_TOL, False)], ids=["below", "above"])
def test_the_grid_refuses_a_recover_that_misses_by_more_than_newton_tol(shift, ok):
    spec = FAMILIES["A30"]

    def recover(x, lin, t):
        a, b, c = spec.recover(x, lin, t)
        return a, b, c + shift

    fam = GroupFamily("A30-shifted", FamilySpec(spec.catalog_name, spec.maps, recover), {})
    report = check_simply_transitive(fam, n_targets=0)
    assert report == check_simply_transitive_reference(fam, n_targets=0)
    assert report.injectivity_ok is ok
    if not ok:
        assert report.injectivity_witness == ((-2.0, -2.0, -2.0), (-2.0, -2.0, -2.0 + shift))


def test_newton_batch_isolates_its_failures():
    """One batch: converging targets, a target whose Jacobian is singular
    at its start, and one whose first step 30 halvings cannot make lower
    the residual.  Each matches its one-point oracle."""
    fam = translation_family("fold", lambda a, b, c: (a * a, b, c))
    starts = np.array([(1.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1e-12, 0.0, 0.0), (1.0, 0.0, 0.0), (0.5, 0.5, 0.5)])
    targets = np.array([(2.0, 1.0, -1.0), (1.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.3, -2.0, 2.0), (-2.0, 1.0, 1.0)])
    _, jacobians = _orbit_jacobians(fam, starts)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(jacobians, np.ones((5, 3, 1)))
    xs, errs, oks = newton_invert_orbit(fam, targets, start=starts)
    expected = [newton_invert_orbit_reference(fam, t, start=s) for t, s in zip(targets, starts)]
    assert [(tuple(x), float(e), bool(o)) for x, e, o in zip(xs, errs, oks)] == expected
    assert oks.tolist() == [True, False, False, True, False]
    assert np.array_equal(xs[1:3], starts[1:3])  # neither failure took a step
    assert int(np.count_nonzero(~oks)) == sum(not ok for *_, ok in expected) == 3
    assert float(np.max(errs)) == max(err for _, err, _ in expected) == 2.0


# --- simple transitivity: the closed-form start ---------------------------

# the eleven defaults and the parameters no default reaches
FAMILY_CASES = [(name, FAMILIES[name].defaults) for name in FAMILY_NAMES] + [
    ("D31", {"mu": Fraction(-1, 2)}),
    ("C3t", {"t": Fraction(-1)}),
    ("C3t", {"t": Fraction(1, 2)}),
    ("E3", {"zeta": Fraction(1, 2)}),
    ("E3", {"zeta": Fraction(2)}),
]
FAMILY_CASE_IDS = [f"{n}-{'-'.join(map(str, p.values()))}" for n, p in FAMILY_CASES]


@pytest.mark.parametrize("name, params", FAMILY_CASES, ids=FAMILY_CASE_IDS)
def test_closed_form_start_needs_no_newton_step(name, params):
    fam = build_family(name, **params)
    targets = np.random.default_rng(41).uniform(-3, 3, (200, 3))
    starts = _recover_starts(fam, targets)
    assert [tuple(s) for s in starts] == [tuple(recover_start_reference(fam, t)) for t in targets]
    xs, errs, oks = newton_invert_orbit(fam, targets, start=starts)
    assert np.array_equal(xs, starts)  # no step was taken
    assert oks.all() and float(np.max(errs)) < 1e-13
    report = check_simply_transitive(fam, rng=random.Random(5))
    assert report.ok and report.max_newton_residual < 1e-13, report


def test_a_start_without_a_closed_form_is_the_origin():
    """A family whose ``recover`` breaks down for a <= 0: those targets start
    at the origin and Newton solves them, but the grid refuses the family,
    first at a = -2.  The batch equals the one-at-a-time oracle (compared by
    ``repr``, in which the NaN of the witness equals itself)."""

    def recover(x, lin, t):
        a, b, c = FAMILIES["A30"].recover(x, lin, t)
        return np.where(a > 0, a, np.nan), b, c

    fam = GroupFamily("A30-half", FamilySpec("N30", FAMILIES["A30"].maps, recover), {})
    targets = np.random.default_rng(43).uniform(-3, 3, (40, 3))
    starts = _recover_starts(fam, targets)
    left = targets[:, 0] <= 0
    assert 0 < np.count_nonzero(left) < len(targets)
    assert np.array_equal(starts[left], np.zeros((np.count_nonzero(left), 3)))
    assert np.array_equal(starts[~left], _recover_starts(build_family("A30"), targets[~left]))
    for seed in (0, 7, 11):
        report = check_simply_transitive(fam, rng=random.Random(seed))
        assert repr(report) == repr(check_simply_transitive_reference(fam, rng=random.Random(seed)))
        assert report.newton_failures == 0 and not report.injectivity_ok and not report.ok
        point, back = report.injectivity_witness
        assert point == (-2.0, -2.0, -2.0) and math.isnan(back[0])


@pytest.mark.parametrize("name, params", FAMILY_CASES, ids=FAMILY_CASE_IDS)
def test_recover_reads_only_the_translation(name, params):
    """The contract the closed-form start relies on: with the linear part
    replaced by NaN, ``recover`` gives the same finite point."""
    fam = build_family(name, **params)
    maps = fam.elements(*np.random.default_rng(47).uniform(-2, 2, (3, 50)))
    with np.errstate(all="ignore"):
        blind = fam.spec.recover(NUMPY, np.full((3, 3, 50), np.nan), maps.translation.T, **fam.params)
    assert np.array_equal(np.stack(blind), np.stack(fam.recover(maps)))
    assert np.isfinite(np.stack(blind)).all()


def test_a_recover_that_reads_the_linear_part_starts_at_the_origin():
    # the legacy D32 form recovers a from log L[1, 1]
    legacy = legacy_d32_family()
    targets = np.random.default_rng(53).uniform(-3, 3, (10, 3))
    assert np.array_equal(_recover_starts(legacy, targets), np.zeros((10, 3)))


# --- simple transitivity: the grid on its three axes ---------------------

GRID_CASES = FAMILY_CASES + [("D31", {"mu": Fraction(3, 7)}), ("E3", {"zeta": Fraction(397, 1000)})]
GRID_FAMILIES = [build_family(name, **params) for name, params in GRID_CASES] + [legacy_d32_family()]
GRID_IDS = [f"{n}-{'-'.join(map(str, p.values()))}" for n, p in GRID_CASES] + ["D32-legacy"]


def flat_grid_points():
    """The 729 grid points, row-major in (a, b, c), as one flat list."""
    return np.stack(np.meshgrid(GRID_TICKS, GRID_TICKS, GRID_TICKS, indexing="ij"), axis=-1).reshape(-1, 3)


@pytest.mark.parametrize("fam", GRID_FAMILIES, ids=GRID_IDS)
def test_grid_axes_equal_the_flat_meshgrid(fam):
    """The grid evaluated on its three broadcast axes equals the flat
    evaluation of its 5103 stencil points bit for bit: images, Jacobians,
    and the linear parts that the validation reads."""
    points = flat_grid_points()
    images, jacobians = _grid_orbit_jacobians(fam)
    flat_images, flat_jacobians = _orbit_jacobians(fam, points)
    assert np.array_equal(images, flat_images)
    assert np.array_equal(jacobians, flat_jacobians)
    linear, translation = fam.evaluate(*_GRID_AXES)
    flat_linear, flat_translation = fam.evaluate(*np.moveaxis(points + DIFF_STEP * _STENCIL[:, None, :], -1, 0))
    assert np.array_equal(linear.reshape(flat_linear.shape), flat_linear)
    assert np.array_equal(translation.reshape(flat_translation.shape), flat_translation)


@pytest.mark.parametrize("fam", GRID_FAMILIES, ids=GRID_IDS)
def test_recover_inverts_the_maps_on_the_grid(fam):
    """recover(g(p)) = p up to roundoff at every grid point, D32-legacy
    included: the identity the closure verdict rests on."""
    points = flat_grid_points()
    back = np.stack(fam.recover(fam.elements(*points.T)), axis=-1)
    assert np.max(np.abs(back - points)) < 1e-14


def test_a_formula_that_ignores_an_input_gets_the_full_stack():
    fam = translation_family("constant-c", lambda a, b, c: (a, b, 0.0 * a + 1.0))
    linear, translation = fam.evaluate(*_GRID_AXES)
    assert linear.shape == (7, 9, 9, 9, 3, 3) and translation.shape == (7, 9, 9, 9, 3)
    assert np.array_equal(linear, np.broadcast_to(np.eye(3), linear.shape))
    flat = flat_grid_points() + DIFF_STEP * _STENCIL[:, None, :]
    assert np.array_equal(translation.reshape(flat.shape), np.stack([flat[..., 0], flat[..., 1], np.ones(flat.shape[:-1])], -1))
    # the grid reads the same points, so the report is the flat oracle's
    # (compared by repr, in which the NaN of the witness equals itself)
    report = check_simply_transitive(fam, rng=random.Random(3))
    assert repr(report) == repr(check_simply_transitive_reference(fam, rng=random.Random(3)))
    assert report.min_abs_jacobian == 0.0 and report.min_jacobian_point == (-2.0, -2.0, -2.0)
    assert report.injectivity_witness[0] == (-2.0, -2.0, -2.0)


def test_an_overflow_at_one_grid_corner_is_refused():
    # 120 (a + b + c) passes exp's range only at the corner (2, 2, 2)
    fam = translation_family("corner", lambda a, b, c: (a, b, np.exp(120 * (a + b + c))))
    assert np.isfinite(fam.evaluate(2.0, 2.0, 1.5)[1]).all()
    with pytest.raises(ValueError, match="non-finite"):
        check_simply_transitive(fam)


def test_newton_evaluates_only_the_images_of_solved_starts(monkeypatch):
    """The first evaluation takes the starts' images only; the Jacobians
    follow for the targets a start does not solve, and the iterates stay
    those of the one-target oracle."""
    counts = []

    def counted(fam, p):
        counts.append(int(np.prod(np.shape(p)[:-1])))
        return orbit_map(fam, p)

    monkeypatch.setattr(lsa.affine, "orbit_map", counted)
    for name, params in FAMILY_CASES:
        fam = build_family(name, **params)
        targets = np.random.default_rng(59).uniform(-3, 3, (20, 3))
        counts.clear()
        _, _, oks = newton_invert_orbit(fam, targets, start=_recover_starts(fam, targets))
        assert oks.all() and counts == [20], (name, counts)
    # the fold batch: two starts solve their targets, three do not
    fam = translation_family("fold", lambda a, b, c: (a * a, b, c))
    starts = np.array([(1.0, 0.0, 0.0), (1.0, 2.0, 0.5), (0.0, 0.0, 0.0), (0.5, 0.5, 0.5), (-1.5, 0.0, 1.0)])
    targets = np.array([(2.0, 1.0, -1.0), (1.0, 2.0, 0.5), (1.0, 0.0, 0.0), (-2.0, 1.0, 1.0), (2.25, 0.0, 1.0)])
    counts.clear()
    xs, errs, oks = newton_invert_orbit(fam, targets, start=starts)
    assert counts[:2] == [5, 7 * 3]
    monkeypatch.undo()
    expected = [newton_invert_orbit_reference(fam, t, start=s) for t, s in zip(targets, starts)]
    assert [(tuple(x), float(e), bool(o)) for x, e, o in zip(xs, errs, oks)] == expected
    assert oks.tolist() == [True, True, False, False, True]
    assert np.array_equal(xs[[1, 4]], starts[[1, 4]])  # solved at the start


# --- tangent algebra ------------------------------------------------------


def test_tangent_a30():
    report = check_tangent_algebra(build_family("A30"), make_lsa("N30"))
    assert report.ok


def test_tangent_translation_sanity_fixture():
    # a pure-translation family over the zero algebra: all commutators vanish
    from lsa.algebra import Algebra

    fam = translation_family("translations", lambda a, b, c: (a, b, c))
    report = check_tangent_algebra(fam, Algebra.from_entries(3, {}))
    assert report.ok


def test_tangent_d31():
    report = check_tangent_algebra(build_family("D31", mu=0.5), make_lsa("D31mu", mu="1/2"))
    assert report.ok


def test_tangent_all_families():
    for fam in default_families():
        spec = FAMILIES[fam.name]
        report = check_tangent_algebra(fam, make_lsa(spec.catalog_name, **spec.defaults))
        assert report.ok, (fam.name, report)


@pytest.mark.parametrize("name, params", FAMILY_CASES, ids=FAMILY_CASE_IDS)
def test_tangent_report_equals_the_nine_pair_reference(name, params):
    fam = build_family(name, **params)
    algebra = make_lsa(FAMILIES[name].catalog_name, **params)
    report = check_tangent_algebra(fam, algebra)
    expected = tangent_reference(fam, algebra)
    assert report == expected
    assert report.worst_pair == expected.worst_pair is not None


def test_verify_family_report():
    rng = random.Random(3)
    fam = build_family("B31")
    report = verify_family(fam, make_lsa("B31"), rng, closure_samples=10)
    assert report["ok"], report
    assert report["max_closure_residual"] < 1e-9
    assert report["tangent_bracket_residual"] < 1e-6


def test_a_recover_that_does_not_invert_its_maps_fails_the_family():
    """A31 with translation c + a^2 instead of c + a^2/2 is still a group
    (the same one, reparametrized), so Newton solves every target; but
    ``recover`` no longer inverts ``maps``, and both closure and the grid
    show it."""
    spec = FAMILIES["A31"]

    def maps(x, a, b, c):
        entries, (t0, t1, t2) = spec.maps(x, a, b, c)
        return entries, (t0, t1, t2 + x.half * a * a)

    bent = GroupFamily("A31", FamilySpec(spec.catalog_name, maps, spec.recover), {})
    report = verify_family(bent, make_lsa("N31"), random.Random(7), closure_samples=10)
    assert report["newton_failures"] == 0
    assert report["closure_failures"] > 0 and not report["injectivity_ok"] and not report["ok"]
    for fam in default_families():
        algebra = make_lsa(fam.catalog_name, **fam.spec.defaults)
        report = verify_family(fam, algebra, random.Random(7), closure_samples=10)
        assert report["closure_newton_fallbacks"] == 0 and report["ok"], fam.name


def test_a_family_that_is_not_closed_fails_on_closure_alone():
    """A30 with a^3 at linear entry (2, 0): the orbit map, its inverse and
    the tangent algebra are A30's (the entry's derivative vanishes at 0),
    but composites leave the family."""
    spec = FAMILIES["A30"]

    def maps(x, a, b, c):
        entries, translation = spec.maps(x, a, b, c)
        return {**entries, (2, 0): a * a * a}, translation

    bent = GroupFamily("A30", FamilySpec(spec.catalog_name, maps, spec.recover), {})
    report = verify_family(bent, make_lsa("N30"), random.Random(7), closure_samples=10)
    assert report["injectivity_ok"] and report["newton_failures"] == 0
    assert report["tangent_generator_error"] < 1e-6 and report["tangent_bracket_residual"] < 1e-6
    assert report["closure_failures"] > 0 and not report["ok"]


def draws(param, count=40):
    rng = random.Random(0)
    return [param.sample(rng) for _ in range(count)]


# every zeta that ZETA.sample can draw, and 40 draws of mu and of t
SAMPLED_PARAMETERS = {
    "E3": sorted({Fraction(p, q) for p in range(1, 9) for q in range(1, 5)}),
    "D31": draws(MU),
    "C3t": draws(T),
}


@pytest.mark.parametrize("name", SAMPLED_PARAMETERS)
def test_every_sampled_parameter_passes_verify_family(name):
    spec = FAMILIES[name]
    (key,) = spec.defaults
    failed = []
    for value in SAMPLED_PARAMETERS[name]:
        fam = build_family(name, **{key: value})
        report = verify_family(fam, make_lsa(spec.catalog_name, **{key: value}), random.Random(0))
        if not report["ok"]:
            failed.append(value)
    assert not failed, failed
    assert len(SAMPLED_PARAMETERS["E3"]) == 22


def test_expm4_against_scipy():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = random.Random(29)
    for _ in range(25):
        m = np.array([[rng.uniform(-2, 2) for _ in range(4)] for _ in range(4)])
        ours = expm4(m)
        reference = scipy_linalg.expm(m)
        scale = max(1.0, float(np.max(np.abs(reference))))
        assert np.max(np.abs(ours - reference)) / scale < 1e-12
