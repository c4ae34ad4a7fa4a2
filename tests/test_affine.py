import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import lsa.affine
from lsa.affine import (
    FAMILIES,
    FAMILY_NAMES,
    NEWTON_TOL,
    NUMPY,
    AffineMap3,
    ClosureReport,
    FamilySpec,
    GroupFamily,
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
    tangent_reference,
)
from transcribed_charts import CHARTS, E3_A_STAR, E3_ZETA_STAR, FLOAT

IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


# --- special functions ----------------------------------------------------


def test_values_at_zero_exact():
    assert special_f(0.0) == 1.0
    assert special_g(0.0) == 0.5
    xs = np.array([-0.3, 0.0, 1e-6, 0.0, 2.0])
    for name, fn in SPECIAL_FUNCTIONS.items():
        assert fn(xs)[1] == fn(xs)[3] == SPECIAL_ZERO_VALUES[name], name


def test_f_at_one():
    assert abs(special_f(1.0) - (math.e - 1.0)) < 1e-15


def test_phi_closed_form_vs_partial_sum():
    # the closed form of phi that the transcribed C31 and E3 charts read
    for x in (-3.0, -1.0, -0.2, 0.1, 1.0, 2.5):
        assert abs(FLOAT.phi(x) - phi_partial_sum(x, 60)) < 1e-12
    assert abs(FLOAT.phi(1.0) - 1.0) < 1e-12


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
    """The coordinate axes of the first-kind chart, t -> exp(t X) with X
    the generator of catalog basis vector e_i, are one-parameter subgroups
    inside each family: exp(t X) is the family's element at its own
    translation."""
    for fam in default_families():
        spec = FAMILIES[fam.name]
        rep = affine_rep(make_lsa(spec.catalog_name, **spec.defaults)).homogeneous_float()
        for i, t in itertools.product(range(3), (0.7, -1.3, 2.0)):
            expected = expm4(t * rep[i])
            element = fam.element(*expected[:3, 3]).as_homogeneous()
            err = np.max(np.abs(element - expected))
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


@pytest.mark.parametrize(
    "algebra, message",
    [
        ("d32-rejected", "affine representation is not a homomorphism; input is not left-symmetric"),
        ("2d", "affine representation is defined for dimension 3"),
    ],
)
def test_tangent_check_refuses_what_affine_rep_refuses(algebra, message):
    """The tangent check reads its generators off the tensor, and still
    refuses exactly as ``affine_rep`` does."""
    from lsa.algebra import Algebra
    from lsa.catalog import d32_rejected_variant

    algebra = d32_rejected_variant() if algebra == "d32-rejected" else Algebra.from_entries(2, {(1, 2, 2): 1})
    with pytest.raises(ValueError) as rep_error:
        affine_rep(algebra)
    with pytest.raises(ValueError) as error:
        check_tangent_algebra(build_family("D32"), algebra)
    assert str(error.value) == str(rep_error.value) == message


# --- group elements -------------------------------------------------------


def test_a30_element():
    fam = build_family("A30")
    m = fam.element(1.0, 2.0, 3.0)
    assert np.allclose(m.linear, np.diag([1.0, math.e, 1.0]))
    assert np.array_equal(m.translation, [1.0, 2.0, 3.0])


def test_d32_element():
    fam = build_family("D32")
    m = fam.element(1.0, 2.0, 3.0)
    root = math.exp(0.5)
    assert np.allclose(m.linear, [[1.0, 0.0, 0.0], [0.0, math.e, 3.0 * root], [0.0, 0.0, root]])
    assert np.array_equal(m.translation, [1.0, 2.0, 3.0])


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
            lambda x, a, b, c: (IDENTITY, (a, b + a * a, c)),
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


class Replay:
    """An rng whose ``uniform`` returns the given values in turn, so that a
    check samples exactly the targets a test chooses."""

    def __init__(self, values):
        self.values = iter(values)

    def uniform(self, lo, hi):
        return float(next(self.values))


def test_orbit_map_a30_jacobian_analytic():
    """In the translation chart the orbit map is the identity, and g(p)
    acts by x -> L(p) x + p, whose Jacobian is L(p): for A30, det e^a."""
    fam = build_family("A30")
    points = np.array([(0.0, 0.0, 0.0), (1.0, 2.0, -1.0), (-1.5, 0.3, 0.7)])
    assert np.array_equal(orbit_map(fam, points), points)
    report = check_simply_transitive(fam, n_targets=3, rng=Replay(points.ravel()))
    assert abs(report.min_abs_det - math.exp(-1.5)) < 1e-15 and report.min_det_point == (-1.5, 0.3, 0.7)


def test_transitivity_at_origin_all():
    """At the origin every L is the identity: det 1, and g(0) g(0) = id
    exactly."""
    for fam in default_families():
        report = check_simply_transitive(fam, n_targets=1, rng=Replay([0.0] * 3))
        assert report.min_abs_det == 1.0 and report.max_inverse_residual == 0.0 and report.ok, fam.name


# a 9^3 grid, -2 to 2 in steps of 1/2, as three broadcastable axes
GRID_TICKS = np.arange(-2.0, 2.25, 0.5)
GRID_AXES = (GRID_TICKS.reshape(-1, 1, 1), GRID_TICKS.reshape(1, -1, 1), GRID_TICKS.reshape(1, 1, -1))


def flat_grid_points():
    """The 729 grid points, row-major in (a, b, c), as one flat list."""
    return np.stack(np.meshgrid(GRID_TICKS, GRID_TICKS, GRID_TICKS, indexing="ij"), axis=-1).reshape(-1, 3)


def test_batched_grid_matches_per_point_oracle():
    """The checks at the 729 grid points as targets, in one batch, against
    numpy's LU determinant and solve, point by point."""
    points = flat_grid_points()
    for fam in default_families():
        report = check_simply_transitive(fam, n_targets=len(points), rng=Replay(points.ravel()))
        dets = [abs(float(np.linalg.det(fam.element(*p).linear))) for p in points]
        assert abs(report.min_abs_det - min(dets)) <= 1e-12 * min(dets), fam.name
        assert abs(dets[points.tolist().index(list(report.min_det_point))] - min(dets)) <= 1e-12 * min(dets)
        assert report.orbit_is_identity and report.inverse_failures == 0, fam.name
        for p in points[::37]:
            m = fam.element(*p)
            inverse = fam.element(*-np.linalg.solve(m.linear, m.translation))
            assert map_distance(m.compose(inverse), AffineMap3.identity()) <= report.max_inverse_residual + 1e-13


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


def translation_family(name, translation, recover=lambda t: np.full_like(t, np.nan)):
    """A test family of pure translations p -> translation(p) with the
    closed form ``recover(t)``, by default none: it gives NaN."""
    return GroupFamily(
        name, FamilySpec("zero", lambda x, a, b, c: (IDENTITY, translation(a, b, c)), lambda x, lin, t: recover(t)), {}
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
    """A family whose orbit map folds a onto a^2 is not in a translation
    chart: the first target is not its own orbit image, and it is the
    witness, with its image.  ``recover`` inverts the fold for a >= 0 only,
    so the orbit inverse fails at the targets with a negative first
    coordinate."""
    fam = translation_family("fold", translation, recover)
    report = check_simply_transitive(fam, rng=random.Random(7))
    assert report == check_simply_transitive_reference(fam, rng=random.Random(7))
    assert not report.orbit_is_identity and not report.ok
    rng = random.Random(7)
    first = tuple(rng.uniform(-3, 3) for _ in range(3))
    assert report.orbit_witness == (first, tuple(float(v) for v in translation(*first)))
    targets = np.array([first] + [[rng.uniform(-3, 3) for _ in range(3)] for _ in range(19)])
    _, _, oks = newton_invert_orbit(fam, targets)
    assert oks.tolist() == (targets[:, 0] >= 0).tolist() and 0 < np.count_nonzero(oks) < 20


def test_the_orbit_check_is_exact():
    """A translation c + 1e-13 a at coordinates (a, b, c) passes every
    check with a tolerance, the group inverse included, but is not a
    translation chart: only the exact orbit check refuses it."""
    fam = translation_family("nudged", lambda a, b, c: (a, b, c + 1e-13 * a))
    report = check_simply_transitive(fam, rng=random.Random(4))
    assert report == check_simply_transitive_reference(fam, rng=random.Random(4))
    assert report.min_abs_det == 1.0 and report.inverse_failures == 0
    assert not report.orbit_is_identity and not report.ok


@pytest.mark.parametrize("shift, ok", [(NEWTON_TOL / 2, True), (2 * NEWTON_TOL, False)], ids=["below", "above"])
def test_the_grid_refuses_a_recover_that_misses_by_more_than_newton_tol(shift, ok):
    """The orbit inverse at the 729 grid points as targets passes exactly
    when ``recover`` misses them by less than ``NEWTON_TOL``."""
    spec = FAMILIES["A30"]

    def recover(x, lin, t):
        a, b, c = spec.recover(x, lin, t)
        return a, b, c + shift

    fam = GroupFamily("A30-shifted", FamilySpec(spec.catalog_name, spec.maps, recover), {})
    points = flat_grid_points()
    xs, errs, oks = newton_invert_orbit(fam, points)
    assert [(tuple(x), float(e), bool(o)) for x, e, o in zip(xs, errs, oks)] == [
        newton_invert_orbit_reference(fam, p) for p in points
    ]
    assert oks.all() if ok else not oks.any()


def test_newton_batch_isolates_its_failures():
    """One batch: targets the fold's ``recover`` inverts, and targets where
    it is NaN.  Each matches its one-point oracle (compared by ``repr``, in
    which a NaN equals itself), and a failure leaves the others alone."""
    fam = translation_family("fold", lambda a, b, c: (a * a, b, c), lambda t: (np.sqrt(t[0]), t[1], t[2]))
    targets = np.array([(4.0, 1.0, -1.0), (-1.0, 0.0, 0.0), (2.0, 0.5, 0.5), (-0.0, 2.0, 1.0), (-2.0, 1.0, 1.0)])
    xs, errs, oks = newton_invert_orbit(fam, targets)
    expected = [newton_invert_orbit_reference(fam, t) for t in targets]
    assert repr([(tuple(x), float(e), bool(o)) for x, e, o in zip(xs, errs, oks)]) == repr(expected)
    assert oks.tolist() == [True, False, True, True, False]
    assert np.isnan(errs[[1, 4]]).all() and float(np.max(errs[oks])) < NEWTON_TOL


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
    """In a translation chart the closed-form inverse of the orbit map is
    the target itself: no step, and a residual of exactly 0."""
    fam = build_family(name, **params)
    targets = np.random.default_rng(41).uniform(-3, 3, (200, 3))
    xs, errs, oks = newton_invert_orbit(fam, targets)
    assert np.array_equal(xs, targets) and not errs.any() and oks.all()
    report = check_simply_transitive(fam, rng=random.Random(5))
    assert report.ok and report.max_inverse_residual < 1e-13, report


@pytest.mark.parametrize("name, params", FAMILY_CASES, ids=FAMILY_CASE_IDS)
def test_recover_reads_only_the_translation(name, params):
    """The contract the orbit inverse relies on: with the linear part
    replaced by NaN, ``recover`` gives the same finite point."""
    fam = build_family(name, **params)
    maps = fam.elements(*np.random.default_rng(47).uniform(-2, 2, (3, 50)))
    with np.errstate(all="ignore"):
        blind = fam.spec.recover(NUMPY, np.full((3, 3, 50), np.nan), maps.translation.T, **fam.params)
    assert np.array_equal(np.stack(blind), np.stack(fam.recover(maps)))
    assert np.isfinite(np.stack(blind)).all()


# --- evaluation on broadcast axes -----------------------------------------

GRID_CASES = FAMILY_CASES + [("D31", {"mu": Fraction(3, 7)}), ("E3", {"zeta": Fraction(397, 1000)})]
GRID_FAMILIES = [build_family(name, **params) for name, params in GRID_CASES] + [legacy_d32_family()]
GRID_IDS = [f"{n}-{'-'.join(map(str, p.values()))}" for n, p in GRID_CASES] + ["D32-legacy"]


@pytest.mark.parametrize("fam", GRID_FAMILIES, ids=GRID_IDS)
def test_grid_axes_equal_the_flat_meshgrid(fam):
    """A family evaluated on the grid's three broadcast axes equals the
    flat evaluation of its 729 points bit for bit."""
    points = flat_grid_points()
    linear, translation = fam.evaluate(*GRID_AXES)
    flat_linear, flat_translation = fam.evaluate(*points.T)
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
    linear, translation = fam.evaluate(*GRID_AXES)
    assert linear.shape == (9, 9, 9, 3, 3) and translation.shape == (9, 9, 9, 3)
    assert np.array_equal(linear, np.broadcast_to(np.eye(3), linear.shape))
    flat = flat_grid_points()
    assert np.array_equal(translation.reshape(flat.shape), np.stack([flat[:, 0], flat[:, 1], np.ones(len(flat))], -1))
    # not a translation chart: the first target is not its own orbit image
    report = check_simply_transitive(fam, rng=random.Random(3))
    assert report == check_simply_transitive_reference(fam, rng=random.Random(3))
    assert not report.orbit_is_identity and report.orbit_witness[1][2] == 1.0


def test_an_overflow_at_one_grid_corner_is_refused():
    # 120 (a + b + c) passes exp's range only at the corner (2, 2, 2)
    fam = translation_family("corner", lambda a, b, c: (a, b, np.exp(120 * (a + b + c))))
    assert np.isfinite(fam.evaluate(2.0, 2.0, 1.5)[1]).all()
    with pytest.raises(ValueError, match="non-finite"):
        fam.elements(*GRID_AXES)


def test_newton_evaluates_only_the_images_of_solved_starts(monkeypatch):
    """The orbit inverse evaluates the family once, at the points
    ``recover`` gives, and takes no further step."""
    calls = []
    evaluate = GroupFamily.evaluate

    def recorded(self, a, b, c):
        calls.append(np.stack(np.broadcast_arrays(a, b, c), axis=-1))
        return evaluate(self, a, b, c)

    monkeypatch.setattr(GroupFamily, "evaluate", recorded)
    for name, params in FAMILY_CASES:
        fam = build_family(name, **params)
        targets = np.random.default_rng(59).uniform(-3, 3, (20, 3))
        calls.clear()
        _, _, oks = newton_invert_orbit(fam, targets)
        assert oks.all() and len(calls) == 1 and np.array_equal(calls[0], targets), name


@pytest.mark.parametrize("seed", (0, 7, 11))
def test_verify_family_on_the_defaults_builds_no_newton_jacobian(monkeypatch, seed):
    """``verify_family`` evaluates each family in two batches and inverts
    no orbit: on the eleven defaults, drawn as ``lsa affine-verify`` draws
    them, it calls neither ``newton_invert_orbit`` nor ``orbit_map``."""

    def refused(*args, **kwargs):
        raise AssertionError("verify_family inverted an orbit")

    evaluations = []
    evaluate = GroupFamily.evaluate

    def counted(self, a, b, c):
        evaluations.append(self.name)
        return evaluate(self, a, b, c)

    monkeypatch.setattr(lsa.affine, "newton_invert_orbit", refused)
    monkeypatch.setattr(lsa.affine, "orbit_map", refused)
    monkeypatch.setattr(GroupFamily, "evaluate", counted)
    rng = random.Random(seed)
    for name, spec in FAMILIES.items():
        fam = build_family(name, **spec.defaults)
        evaluations.clear()
        report = verify_family(fam, make_lsa(spec.catalog_name, **spec.defaults), rng)
        assert report["ok"] and report["newton_failures"] == 0, name
        assert evaluations == [name, name]


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
    """A31 with translation (a, b, c + a^2/2) at coordinates (a, b, c) is
    still the A31 group, reparametrized, since its L reads a alone; but
    ``recover`` reads the translation, so it no longer inverts ``maps``, and
    both closure and the orbit check show it."""
    spec = FAMILIES["A31"]

    def maps(x, a, b, c):
        rows, (t0, t1, t2) = spec.maps(x, a, b, c)
        return rows, (t0, t1, t2 + x.half * a * a)

    bent = GroupFamily("A31", FamilySpec(spec.catalog_name, maps, spec.recover), {})
    report = verify_family(bent, make_lsa("N31"), random.Random(7), closure_samples=10)
    assert report["closure_failures"] > 0 and not report["injectivity_ok"] and not report["ok"]
    for fam in default_families():
        algebra = make_lsa(fam.catalog_name, **fam.spec.defaults)
        report = verify_family(fam, algebra, random.Random(7), closure_samples=10)
        assert report["closure_failures"] == 0 and report["ok"], fam.name


def test_a_family_that_is_not_closed_fails_on_closure_alone():
    """A30 with a^3 at linear entry (2, 0): the orbit map, det L, the group
    inverses and the tangent algebra are A30's (g(-a, ...) cancels the
    entry, and its derivative vanishes at 0), but composites leave the
    family."""
    spec = FAMILIES["A30"]

    def maps(x, a, b, c):
        (r0, r1, (_, r21, r22)), translation = spec.maps(x, a, b, c)
        return (r0, r1, (a * a * a, r21, r22)), translation

    bent = GroupFamily("A30", FamilySpec(spec.catalog_name, maps, spec.recover), {})
    report = verify_family(bent, make_lsa("N30"), random.Random(7), closure_samples=10)
    assert report["injectivity_ok"] and report["newton_failures"] == 0
    assert report["tangent_generator_error"] < 1e-6 and report["tangent_bracket_residual"] < 1e-6
    assert report["closure_failures"] > 0 and not report["ok"]


def test_the_inverse_check_refuses_a_residual_above_its_tolerance():
    """L = diag(1, e^a, 1 + s) leaves g(p) g(q) off the identity by
    2s + s^2 at every target: refused above ``NEWTON_TOL``, passed below."""
    spec = FAMILIES["A30"]
    for s, ok in ((NEWTON_TOL / 4, True), (NEWTON_TOL, False)):

        def maps(x, a, b, c, s=s):
            (r0, r1, _), translation = spec.maps(x, a, b, c)
            return (r0, r1, (0, 0, 1 + s)), translation

        fam = GroupFamily("A30-scaled", FamilySpec(spec.catalog_name, maps, spec.recover), {})
        report = check_simply_transitive(fam, rng=random.Random(2))
        assert report == check_simply_transitive_reference(fam, rng=random.Random(2))
        assert report.orbit_is_identity and report.min_abs_det > 1e-8
        assert report.ok is ok and report.inverse_failures == (0 if ok else 20), s


def test_e3_orbit_map_is_not_injective_at_zeta_star():
    """The transcribed E3 chart (test data) folds two points onto one
    orbit image at zeta*; the translation chart of the harness is the same
    group in other coordinates."""
    maps, _ = CHARTS["E3"]
    zeta = float(E3_ZETA_STAR)
    images = [np.array(maps(FLOAT, E3_A_STAR, b, c, zeta=zeta)[1]) for b, c in ((0.0, 0.0), (1.0, -2.0))]
    assert float(np.max(np.abs(images[0] - images[1]))) < 3.4e-16


def test_verify_family_accepts_e3_at_zeta_star():
    """E3 is a group for every zeta: the harness passes it at zeta*, where
    the transcribed chart is not injective, and at every zeta that
    ``ZETA.sample`` can draw."""
    for zeta in [E3_ZETA_STAR, *SAMPLED_PARAMETERS["E3"]]:
        fam = build_family("E3", zeta=zeta)
        report = verify_family(fam, make_lsa("E31zeta", zeta=zeta), random.Random(0))
        assert report["ok"], (zeta, report)


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
