"""Acceptance suite: ten criteria, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  All tolerances are
pinned here; the exact-arithmetic criteria admit no tolerance at all.
"""
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path


from lsa import affine as aff
from lsa.algebra import (
    check_left_symmetric,
    conjugated,
    find_ideals_dim_le3,
    identify_lie_algebra,
    is_complete,
    is_unimodular,
    lie_algebra_of,
    milnor_normal_form,
    quotient_algebra,
    restriction_to_ideal,
)
from lsa.catalog import (
    ENTRIES,
    catalog_lsas,
    fixtures,
    make_lie,
    make_lsa,
    reconstruction_cases,
    verify_entry,
)
from lsa.extensions import (
    BimoduleAction,
    build_extension,
    check_kim_conditions,
    delta1,
    delta2_is_zero,
    h2,
    trivial_action,
    verify_iso_witness,
)
from lsa.linalg import QMatrix, random_fraction, random_invertible

from affine_reference import SPECIAL_FUNCTIONS, closed_reference

F = Fraction


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _all_samples(entry, rng, count=5):
    samples = list(entry.default_params)
    if entry.name in ("C3t", "D31mu", "E31zeta"):
        samples += [entry.sample_params(rng) for _ in range(count)]
    return samples


def test_criterion_1_classification_reproduction():
    rng = random.Random(1)
    checked = 0
    for entry in catalog_lsas():
        for params in _all_samples(entry, rng):
            a = entry.make(params)
            assert check_left_symmetric(a).ok, (entry.name, params)
            assert is_complete(a), (entry.name, params)
            tag = identify_lie_algebra(lie_algebra_of(a))
            claimed = entry.claimed_tag(params)
            assert str(tag) == str(claimed), (entry.name, params, str(tag))
            checked += 1
    report(1, True, f"{checked} (entry, parameter) pairs: left-symmetric, complete, Lie tag exact")


def test_criterion_2_flags_audit():
    rng = random.Random(2)
    mismatches = []
    witnessed = 0
    for entry in catalog_lsas():
        rep = verify_entry(entry, [entry.make(params) for params in _all_samples(entry, rng, 2)])
        for sample in rep["samples"]:
            assert set(sample["flag_witnesses"]) == {"N", "D", "S"}
            for flag in "NDS":
                computed = sample["flags_computed"][flag]
                wit = sample["flag_witnesses"][flag]
                # a True flag is backed by the exhaustive triple scan, a
                # False flag by an explicit failing triple
                assert (wit == "all triples pass") == computed, (entry.name, flag)
                witnessed += 1
            if not sample["flags_match"]:
                mismatches.append((entry.name, sample["params"]))
    report(2, True, f"{witnessed} flags witnessed; {len(mismatches)} mismatches vs the claimed remarks")


def test_criterion_3_cohomology_identities():
    rng = random.Random(3)
    n2 = fixtures()["N2"]
    r2 = fixtures()["r2_zero"]
    r0 = fixtures()["R0"]
    actions = [
        trivial_action(n2, 1),
        BimoduleAction(n2, 1, (QMatrix([[1]]), QMatrix([[0]])), (QMatrix([[0]]), QMatrix([[0]]))),
        BimoduleAction(n2, 1, (QMatrix([["1/2"]]), QMatrix([[0]])), (QMatrix([[0]]), QMatrix([[0]]))),
        BimoduleAction(r2, 1, (QMatrix([[2]]), QMatrix([[0]])), (QMatrix([[0]]), QMatrix([[0]]))),
        BimoduleAction(r0, 2, (QMatrix([[1, 0], [0, 0]]),), (QMatrix.zero(2, 2),)),
        BimoduleAction(r0, 2, (QMatrix([[0, 0], [0, 3]]),), (QMatrix([[0, 0], [-2, 0]]),)),
    ]
    for i in range(100):
        action = actions[i % len(actions)]
        h = QMatrix(
            [[random_fraction(rng) for _ in range(action.k.dim)] for _ in range(action.v_dim)]
        )
        assert delta2_is_zero(action, delta1(action, h)), i
    res = h2(trivial_action(n2, 1))
    assert res.dim_h2 == 1
    assert (res.dim_z2, res.dim_b2) == (2, 1)
    # displayed shapes: coboundaries (0 h12; 0 0), class representative (g11 0; 0 0)
    assert res.b2_basis[0].values == (((F(0),), (F(1),)), ((F(0),), (F(0),)))
    assert res.representatives[0].values == (((F(1),), (F(0),)), ((F(0),), (F(0),)))
    report(3, True, "delta2 . delta1 = 0 on 100 seeded instances; central H2 = 1 with displayed shapes")


def test_criterion_4_extension_round_trips():
    rng = random.Random(4)
    targets_seen = set()
    count = 0
    for case in reconstruction_cases(rng):
        kim = check_kim_conditions(case.data)
        assert kim.ok, case.label
        ext = build_extension(case.data)
        target = make_lsa(case.target, **case.target_params)
        assert verify_iso_witness(ext, target, case.witness), (case.label, case.target)
        targets_seen.add(case.target)
        count += 1
    required = set(ENTRIES)
    assert required <= targets_seen
    report(4, True, f"{count} extension paths rebuild all of {sorted(required)} with exact witnesses")


def test_criterion_5_completeness_propagation():
    rng = random.Random(5)
    checked = 0
    for entry in catalog_lsas():
        for params in _all_samples(entry, rng, 2):
            a = entry.make(params)
            for ideal in find_ideals_dim_le3(a):
                assert is_complete(restriction_to_ideal(a, ideal)), (entry.name, ideal)
                assert is_complete(quotient_algebra(a, ideal)), (entry.name, ideal)
                checked += 1
    report(5, True, f"{checked} (ideal, quotient) pairs complete, exactly")


def test_criterion_6_non_simplicity():
    for entry in catalog_lsas():
        a = entry.make(entry.default_params[0])
        assert find_ideals_dim_le3(a), entry.name
    a1 = fixtures()["A1_inv"]
    assert is_unimodular(lie_algebra_of(a1))
    report(6, True, "every entry has a rational ideal; the simple fixture's Lie algebra is unimodular")


def test_criterion_7_milnor_invariant():
    rng = random.Random(7)
    # canonical det values: 0, 1, 1, 4 mu/(1+mu)^2, 1 + zeta^2
    mu, zeta = F(1, 2), F(1)
    families = [
        (make_lie("G31"), "G31", F(0)),
        (make_lie("G32"), "G32", F(1)),
        (make_lie("G33"), "G33", F(1)),
        (make_lie("G34", mu=mu), "G34(mu=1/2)", 4 * mu / (1 + mu) ** 2),
        (make_lie("G35", zeta=zeta), "G35(zeta=1)", 1 + zeta**2),
    ]
    assert families[3][2] == F(8, 9)
    total = 0
    for lie, tag_str, det_expected in families:
        assert milnor_normal_form(lie).det_d == det_expected
        assert str(identify_lie_algebra(lie)) == tag_str
        for _ in range(100):
            p = random_invertible(rng, 3)
            conj = conjugated(lie, p)
            assert milnor_normal_form(conj).det_d == det_expected
            assert str(identify_lie_algebra(conj)) == tag_str
            total += 1
    report(7, True, f"{total} random basis changes: det D and the Lie tag exactly invariant")


def test_criterion_8_affine_harness():
    rng = random.Random(8)
    results = []
    for name, spec in aff.FAMILIES.items():
        fam = aff.build_family(name, **spec.defaults)
        algebra = make_lsa(spec.catalog_name, **spec.defaults)
        pairs = aff.sample_parameter_pairs(rng, 50)
        closure = aff.check_closure(fam, pairs)
        assert closure.ok and closure.max_residual < 1e-9, (name, closure.max_residual)
        # in the translation chart: det L(p) and the group-inverse residual
        # |g(p) g(-L(p)^-1 p) - id| at 20 targets, and orbit(p) = p exactly
        trans = aff.check_simply_transitive(fam, n_targets=20, rng=rng)
        assert trans.min_abs_det > 1e-8, (name, trans.min_abs_det)
        assert trans.orbit_is_identity, name
        assert trans.inverse_failures == 0 and trans.max_inverse_residual < 1e-10, name
        tangent = aff.check_tangent_algebra(fam, algebra)
        assert tangent.max_bracket_residual < 1e-6, name
        assert tangent.max_constant_error < 1e-6, name
        assert tangent.max_generator_error < 1e-6, name
        results.append(name)
    report(8, True, f"{len(results)} families: closure<1e-9, |det L|>1e-8, inverse<1e-10, tangent<1e-6")


def test_criterion_9_special_functions():
    assert aff.special_f(0.0) == 1.0
    assert aff.special_g(0.0) == 0.5
    xs = [-5.0 + 10.0 * i / 999 for i in range(1000)]
    worst = 0.0
    for name, fn in SPECIAL_FUNCTIONS.items():
        for x in xs:
            if x == 0.0:
                continue
            err = abs(fn(x) - closed_reference(name, x))
            worst = max(worst, err)
            assert err < 1e-12, (name, x, err)
    report(9, True, f"series vs closed form within 1e-12 on 1000-point sweep (worst {worst:.2e}); zero values exact")


def test_criterion_10_determinism():
    cmd = [sys.executable, "-m", "lsa.cli", "catalog-verify", "--json", "--seed", "7"]
    # cwd="/" breaks a relative PYTHONPATH, so the child gets the absolute src path.
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    first = subprocess.run(cmd, capture_output=True, cwd="/", env=env, check=True)
    second = subprocess.run(cmd, capture_output=True, cwd="/", env=env, check=True)
    assert first.stdout == second.stdout
    assert first.returncode == 0
    report(10, True, f"catalog-verify --json --seed 7 twice: byte-identical ({len(first.stdout)} bytes)")
