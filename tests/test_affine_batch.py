"""``verify_families`` checks any number of families in one stacked pass:
each family evaluates every independent sample point in one batch, and the
points that depend on it in a second, and the checks run on the stack of
all families' rows.  Each report must be the one the public checks give,
each evaluating its own points with the same rng, and the one
``verify_family`` gives for the family alone; that rests on a family's
evaluation being elementwise, so a row of a stack equals its point
evaluated alone, bit for bit."""
import random
from fractions import Fraction

import numpy as np
import pytest

from lsa.affine import (
    FAMILIES,
    FAMILY_NAMES,
    FamilySpec,
    GroupFamily,
    _CURVE_POINTS,
    _tangent_reports,
    _uniform,
    build_family,
    check_closure,
    check_simply_transitive,
    check_tangent_algebra,
    legacy_d32_family,
    verify_families,
    verify_family,
)
from lsa.algebra import Algebra
from lsa.catalog import MU, T, d32_rejected_variant, make_lsa
from lsa.jsonio import dumps_sorted

from affine_reference import family_report, tangent_reference

PUBLIC_CHECKS = (check_closure, check_simply_transitive, check_tangent_algebra)


def draws(param, count):
    rng = random.Random(0)
    return [param.sample(rng) for _ in range(count)]


def a30_half():
    """A30 whose ``recover`` breaks down for a <= 0: closure fails at the
    composites there, and the translation-chart checks, which do not read
    ``recover``, pass."""

    def recover(x, lin, t):
        a, b, c = FAMILIES["A30"].recover(x, lin, t)
        return np.where(a > 0, a, np.nan), b, c

    return GroupFamily("A30-half", FamilySpec("N30", FAMILIES["A30"].maps, recover), {})


def case(name, params):
    return build_family(name, **params), make_lsa(FAMILIES[name].catalog_name, **params)


# the eleven defaults; E3 at every zeta ZETA.sample can draw; 10 draws of
# mu and of t; and a family whose closure fails
CASES = {
    "defaults": [case(name, FAMILIES[name].defaults) for name in FAMILY_NAMES],
    "E3-zeta": [case("E3", {"zeta": z}) for z in sorted({Fraction(p, q) for p in range(1, 9) for q in range(1, 5)})],
    "D31-mu": [case("D31", {"mu": mu}) for mu in draws(MU, 10)],
    "C3t-t": [case("C3t", {"t": t}) for t in draws(T, 10)],
    "A30-half": [(a30_half(), make_lsa("N30"))],
}


@pytest.mark.parametrize("group", CASES)
def test_verify_family_equals_the_public_checks(group):
    for fam, algebra in CASES[group]:
        for samples in (1, 5, 50):
            for seed in range(4):
                batched = verify_family(fam, algebra, random.Random(seed), closure_samples=samples)
                separate = family_report(fam, algebra, random.Random(seed), samples, PUBLIC_CHECKS)
                assert dumps_sorted(batched) == dumps_sorted(separate), (fam.name, fam.params, samples, seed)
    if group == "A30-half":
        assert not batched["ok"] and batched["newton_failures"] == 0


@pytest.mark.parametrize("group", ["defaults", "D31-mu", "C3t-t"])
def test_stacked_tangent_reports_equal_the_nine_pair_loop(group):
    """The stacked tangent pass gives each family of a stack the report of
    the independent 9-pair loop, float for float."""
    fams, algebras = zip(*CASES[group])
    curves = [fam.elements(*_CURVE_POINTS.T) for fam in fams]
    linear, translation = np.stack([m.linear for m in curves]), np.stack([m.translation for m in curves])
    for report, fam, algebra in zip(_tangent_reports(fams, algebras, linear, translation), fams, algebras, strict=True):
        expected = tangent_reference(fam, algebra)
        assert report == expected, fam.params
        assert report.worst_pair == expected.worst_pair is not None
        fields = ("max_generator_error", "max_bracket_residual", "max_constant_error")
        assert [float(getattr(report, k)).hex() for k in fields] == [float(getattr(expected, k)).hex() for k in fields]


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("bad", ["not-left-symmetric", "2d"])
def test_verify_families_refuses_as_the_tangent_check_does(bad, where):
    """An algebra the tangent check refuses, anywhere in a stack of the
    eleven defaults, makes ``verify_families`` raise that check's error."""
    algebra = d32_rejected_variant() if bad == "not-left-symmetric" else Algebra.from_entries(2, {(1, 2, 2): 1})
    with pytest.raises(ValueError) as alone:
        check_tangent_algebra(build_family("D32"), algebra)
    cases = list(CASES["defaults"])
    cases.insert({"first": 0, "middle": len(cases) // 2, "last": len(cases)}[where], (build_family("D32"), algebra))
    with pytest.raises(ValueError) as stacked:
        verify_families([fam for fam, _ in cases], [a for _, a in cases], random.Random(0), 5)
    assert str(stacked.value) == str(alone.value)


pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

# both branches of the special functions, their threshold, and exact zeros
coordinate = st.one_of(
    st.floats(-3.0, 3.0, allow_nan=False),
    st.floats(-0.3, 0.3, allow_nan=False),
    st.sampled_from([0.0, -0.0, 0.25, -0.25, np.nextafter(0.25, 0.0)]),
)
point = st.tuples(coordinate, coordinate, coordinate)
# a part is one 0-d point or a stack (n, 3) of them
part = st.one_of(point.map(np.array), st.lists(point, min_size=0, max_size=6).map(lambda ps: np.array(ps).reshape(-1, 3)))
FAMS = [build_family(n, **FAMILIES[n].defaults) for n in FAMILY_NAMES] + [
    build_family("D31", mu=Fraction(-1, 2)),
    build_family("C3t", t=Fraction(1, 2)),
    build_family("E3", zeta=Fraction(2)),
    legacy_d32_family(),
]


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(FAMS), st.lists(part, min_size=1, max_size=5))
def test_a_stack_evaluates_each_part_as_alone(fam, parts):
    stack = np.concatenate([p.reshape(-1, 3) for p in parts])
    linear, translation = fam.evaluate(*stack.T)
    start = 0
    for p in parts:
        alone_linear, alone_translation = fam.evaluate(*p.T)
        rows = slice(start, start + len(p.reshape(-1, 3)))
        assert linear[rows].reshape(alone_linear.shape).tobytes() == alone_linear.tobytes(), (fam.name, p)
        assert translation[rows].reshape(alone_translation.shape).tobytes() == alone_translation.tobytes(), (fam.name, p)
        start = rows.stop


# every (family, algebra) of ``CASES``, A30-half last
ALL_CASES = [pair for group in CASES.values() for pair in group]


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    st.lists(st.sampled_from(ALL_CASES), min_size=1, max_size=6),
    st.sampled_from([1, 5, 50]),
    st.integers(0, 2**32 - 1),
)
@example([ALL_CASES[-1], *CASES["defaults"], ALL_CASES[-1]], 5, 0)
def test_verify_families_equals_verify_family_in_turn(cases, samples, seed):
    """Any families, in any order and with repeats, give in one stacked
    pass the reports of ``verify_family`` called on each in turn with one
    shared rng, and leave the rng where those calls leave it."""
    rng, turn_rng = random.Random(seed), random.Random(seed)
    stacked = verify_families([fam for fam, _ in cases], [algebra for _, algebra in cases], rng, samples)
    in_turn = [verify_family(fam, algebra, turn_rng, samples) for fam, algebra in cases]
    assert dumps_sorted(stacked) == dumps_sorted(in_turn)
    assert rng.getstate() == turn_rng.getstate()


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(st.integers(0, 2**64), st.integers(0, 200), st.sampled_from([(-2.0, 2.0), (-3, 3)]))
def test_uniform_draws_are_rng_uniform(seed, count, bounds):
    """The sampler's draws are ``rng.uniform``'s, bit for bit, on both
    ranges the harness draws from, and it leaves the rng in the same
    state."""
    lo, hi = bounds
    rng, reference = random.Random(seed), random.Random(seed)
    draws = _uniform(rng, lo, hi, count)
    expected = [reference.uniform(lo, hi) for _ in range(count)]
    assert [x.hex() for x in draws] == [x.hex() for x in expected]
    assert rng.getstate() == reference.getstate()
