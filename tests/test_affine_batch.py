"""``verify_family`` evaluates every independent sample point of a family in
one batch, and the points that depend on it in a second, and hands each
check its rows.  Its report must be the one the
public checks give, each evaluating its own points with the same rng; that
rests on a family's evaluation being elementwise, so a row of a stack
equals its point evaluated alone, bit for bit."""
import random
from fractions import Fraction

import numpy as np
import pytest

from lsa.affine import (
    FAMILIES,
    FAMILY_NAMES,
    FamilySpec,
    GroupFamily,
    build_family,
    check_closure,
    check_simply_transitive,
    check_tangent_algebra,
    legacy_d32_family,
    verify_family,
)
from lsa.catalog import MU, T, make_lsa
from lsa.jsonio import dumps_sorted

from affine_reference import family_report

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


pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

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
