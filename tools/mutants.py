"""Rerunnable mutation checks.

Each row of ``MUTANTS`` names a source file, an exact snippet in it, the
replacement that breaks it, and the fast test selection that must fail once
the replacement is made.  Every row runs on its own temporary copy of
``src/`` and ``tests/``, as ``python -m pytest -x -q <selection>`` under a
timeout of ``TIMEOUT`` seconds, and is reported as one of:

- killed: the selection failed, as it should, and passes on the unmutated
  copy (each selection is run once unmutated);
- surviving: the selection passed with the mutant in place;
- stale: the snippet does not occur exactly once in its file, so the row no
  longer says anything about the code and must be rewritten;
- timeout: the selection did not finish within the timeout;
- error: pytest could not run the selection (exit status 2 to 5, e.g. a
  test id that no longer exists), or the selection fails without the mutant.

A selection whose tests are all skipped passes, so its row reads surviving.

Run from the repository root:

    python tools/mutants.py

The exit status is 0 when every row is killed and 1 otherwise.
This is not part of the test suite; ``tests/test_mutants.py`` checks only
that every snippet still occurs exactly once.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml")
TIMEOUT = 120.0  # seconds per row


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest arguments: the selection that must fail


AFFINE = "src/lsa/affine.py"
ALGEBRA = "src/lsa/algebra.py"
CATALOG = "src/lsa/catalog.py"
CLI = "src/lsa/cli.py"
EXTENSIONS = "src/lsa/extensions.py"
LINALG = "src/lsa/linalg.py"
TEST_AFFINE = "tests/test_affine.py"
TEST_BATCH = "tests/test_affine_batch.py"
TEST_CLEARED = "tests/test_cleared_tensor_oracles.py"
TEST_EXACT = "tests/test_affine_exact.py"
TEST_KERNELS = "tests/test_integer_kernel_oracles.py"
TEST_OPERATOR_BASIS = "tests/test_operator_basis_oracles.py"
TEST_PRIMITIVES = "tests/test_primitive_oracles.py"
# every L entry a mutant breaks must fail the acceptance criterion of the affine harness
CRITERION_8 = "tests/test_acceptance.py::test_criterion_8_affine_harness"

MUTANTS = (
    Mutant(
        "c3t-linear-t-minus-one-read-as-t",
        AFFINE,
        "((t - 1) * p1, t * p0 * e, e)",
        "(t * p1, t * p0 * e, e)",
        (CRITERION_8,),
    ),
    Mutant(
        "e3-one-sin-sign-flipped",
        AFFINE,
        "(0, e * cz, -e * sz)",
        "(0, e * cz, e * sz)",
        (CRITERION_8,),
    ),
    Mutant(
        "a32-exponent-without-half",
        AFFINE,
        "x.exp(p0 - sign * x.half * p2 * p2)",
        "x.exp(p0 - sign * p2 * p2)",
        (CRITERION_8,),
    ),
    Mutant(
        "b31-linear-entry-doubled",
        AFFINE,
        "(p1, p0 * e, e)",
        "(p1, 2 * p0 * e, e)",
        (f"{TEST_EXACT}::test_tangent_generators_and_brackets_exactly[B31]",),
    ),
    Mutant(
        "d31-exponent-without-mu",
        AFFINE,
        "x.exp(mu * p0)",
        "x.exp(p0)",
        (f"{TEST_AFFINE}::test_tangent_all_families",),
    ),
    Mutant(
        "d32-coupling-without-its-exponential",
        AFFINE,
        "p2 * eh)",
        "p2)",
        (f"{TEST_EXACT}::test_closure_residual_vanishes_exactly[D32]",),
    ),
    Mutant(
        "numpy-namespace-half",
        AFFINE,
        "g=special_g, half=0.5)",
        "g=special_g, half=0.5 + 1e-9)",
        (f"{TEST_EXACT}::test_namespaces_agree_through_the_same_formulas",),
    ),
    Mutant(
        "translation-chart-recover-swaps-coordinates",
        AFFINE,
        "return translation[0], translation[1], translation[2]",
        "return translation[0], translation[2], translation[1]",
        (f"{TEST_AFFINE}::test_closure_all_families_sampled",),
    ),
    Mutant(
        "distances-keep-nan",
        AFFINE,
        "return np.where(np.isnan(d), np.inf, d)",
        "return d",
        (f"{TEST_AFFINE}::test_closure_edge_cases_equal_the_per_pair_reference",),
    ),
    Mutant(
        "orbit-inverse-bound-loosened",
        AFFINE,
        "ok = err < NEWTON_TOL",
        "ok = err < 10 * NEWTON_TOL",
        (f"{TEST_AFFINE}::test_the_grid_refuses_a_recover_that_misses_by_more_than_newton_tol",),
    ),
    Mutant(
        "orbit-check-compares-the-target-with-itself",
        AFFINE,
        "np.any(translation != targets, axis=1)",
        "np.any(targets != targets, axis=1)",
        (f"{TEST_AFFINE}::test_non_injective_family_witness_equals_the_oracle",),
    ),
    Mutant(
        "min-det-takes-the-maximum",
        AFFINE,
        "first = int(np.argmin(dets))",
        "first = int(np.argmax(dets))",
        (f"{TEST_AFFINE}::test_orbit_map_a30_jacobian_analytic",),
    ),
    Mutant(
        "inverse-translation-without-its-sign",
        AFFINE,
        "return det, -moved / det[..., None]",
        "return det, moved / det[..., None]",
        (CRITERION_8,),
    ),
    Mutant(
        "adjugate-columns-swapped",
        AFFINE,
        "    x1, y1, z1 = h * c - i * b, i * a - g * c, g * b - h * a\n"
        "    x2, y2, z2 = b * f - c * e, c * d - a * f, a * e - b * d\n",
        "    x1, y1, z1 = b * f - c * e, c * d - a * f, a * e - b * d\n"
        "    x2, y2, z2 = h * c - i * b, i * a - g * c, g * b - h * a\n",
        (CRITERION_8,),
    ),
    Mutant(
        "transitivity-ok-ignores-the-inverse-residual",
        AFFINE,
        "and self.orbit_is_identity and self.inverse_failures == 0",
        "and self.orbit_is_identity",
        (f"{TEST_AFFINE}::test_the_inverse_check_refuses_a_residual_above_its_tolerance",),
    ),
    Mutant(
        "transitivity-ok-ignores-the-orbit-check",
        AFFINE,
        "return self.min_abs_det > 1e-8 and self.orbit_is_identity and",
        "return self.min_abs_det > 1e-8 and",
        (f"{TEST_AFFINE}::test_the_orbit_check_is_exact",),
    ),
    Mutant(
        "verify-family-inverse-rows-from-the-closure-rows",
        AFFINE,
        "_inverse_residuals(*at, back_linear[:, n:], back_translation[:, n:])",
        "_inverse_residuals(*at, back_linear[:, :-n], back_translation[:, :-n])",
        (f"{TEST_BATCH}::test_verify_family_equals_the_public_checks[defaults]",),
    ),
    Mutant(
        "verify-families-closure-reads-the-next-familys-rows",
        AFFINE,
        "closure = _closure_report(fam, pairs[f], closure_resids[f])",
        "closure = _closure_report(fam, pairs[f], closure_resids[(f + 1) % count])",
        (f"{TEST_BATCH}::test_verify_families_equals_verify_family_in_turn",),
    ),
    Mutant(
        "verify-families-targets-drawn-before-pairs",
        AFFINE,
        "        draws += _uniform(rng, -2.0, 2.0, 6 * n)\n        draws += _uniform(rng, -3, 3, 3 * _N_TARGETS)\n",
        "        draws += _uniform(rng, -3, 3, 3 * _N_TARGETS)\n        draws += _uniform(rng, -2.0, 2.0, 6 * n)\n",
        (f"{TEST_BATCH}::test_verify_family_equals_the_public_checks[defaults]",),
    ),
    Mutant(
        "legacy-d32-recover-reads-the-wrong-diagonal",
        AFFINE,
        "a = x.log(lin[1, 1])",
        "a = x.log(lin[2, 2])",
        (f"{TEST_AFFINE}::test_recover_inverts_the_maps_on_the_grid",),
    ),
    Mutant(
        "verify-family-tangent-rows-shifted-by-one",
        AFFINE,
        "tangent = _tangent_report(fam, algebra, curve[0][f], curve[1][f])",
        "tangent = _tangent_report(fam, algebra, maps.linear[f, rows[1] + 1 : rows[2] + 1], "
        "maps.translation[f, rows[1] + 1 : rows[2] + 1])",
        (f"{TEST_BATCH}::test_verify_family_equals_the_public_checks[defaults]",),
    ),
    Mutant(
        "tangent-check-without-the-left-symmetry-refusal",
        AFFINE,
        "    _require_3d_lsa(algebra)\n    d, c = algebra.table.d, algebra.table.c\n",
        "    if algebra.dim != 3:\n        _require_3d_lsa(algebra)\n    d, c = algebra.table.d, algebra.table.c\n",
        (f"{TEST_AFFINE}::test_tangent_check_refuses_what_affine_rep_refuses",),
    ),
    Mutant(
        "ideal-operator-uncleared",
        ALGEBRA,
        "ops = [(d, [list(r) for r in zip(*cols)]) for cols in columns]",
        "ops = [(1 if k == 0 else d, [list(r) for r in zip(*cols)]) for k, cols in enumerate(columns)]",
        ("tests/test_subspace_oracles.py::test_ideals_match_filtered_enumeration",),
    ),
    Mutant(
        "ideal-operator-basis-from-the-left-block-only",
        ALGEBRA,
        "columns = [columns[k] for k in _int_rref([list(r) for r in zip(*flat)])[1]]",
        "columns = [columns[k] for k in _int_rref([list(r) for r in zip(*flat[:n])])[1]]",
        (f"{TEST_OPERATOR_BASIS}::test_the_search_on_a_basis_of_the_span_equals_the_search_on_all_operators",),
    ),
    Mutant(
        "ideal-search-dimension-read-off-the-first-operator",
        ALGEBRA,
        "_refine(ops, spectrum, 0, [[int(i == j) for j in range(n)] for i in range(n)])",
        "_refine(ops, spectrum, 0, [[int(i == j) for j in range(len(ops[0][1]))] for i in range(len(ops[0][1]))])",
        (f"{TEST_OPERATOR_BASIS}::test_the_inputs_reach_every_span_rank",),
    ),
    Mutant(
        "completeness-traces-always-true",
        ALGEBRA,
        "return all(sum(c[j][i][j] for j in range(n)) == 0 for i in range(n))",
        "return True",
        ("tests/test_algebra.py::test_is_complete_agrees_with_segal_trace_criterion",),
    ),
    Mutant(
        "is-complete-without-the-left-symmetry-scan",
        ALGEBRA,
        "return check_left_symmetric(a).ok and _complete_by_traces(a)",
        "return _complete_by_traces(a)",
        ("tests/test_algebra.py::test_is_complete_is_left_symmetry_and_nilpotency",),
    ),
    Mutant(
        "check-reads-traces-off-left-symmetry",
        CLI,
        "complete = is_complete(a)",
        "complete = all(sum(a.table.c[j][i][j] for j in range(a.dim)) == 0 for i in range(a.dim))",
        ("tests/test_cli.py::test_check_refuses_completeness_off_left_symmetry_at_the_largest_dimension",),
    ),
    Mutant(
        "fingerprint-basis-without-the-common-pivot",
        CATALOG,
        "basis = [[x * (common // row[k]) for x in row] for row, k in zip(p_rows, pivots)]",
        "basis = p_rows",
        (f"{TEST_PRIMITIVES}::test_induced_action_ratio_equals_the_full_matrix_restriction",),
    ),
    Mutant(
        "annihilator-dims-plus-one",
        CATALOG,
        "return a.dim - _int_rank(s.rights), a.dim - _int_rank(s.lefts)",
        "return a.dim - _int_rank(s.rights) + 1, a.dim - _int_rank(s.lefts)",
        (f"{TEST_KERNELS}::test_annihilators_give_the_operator_spans",),
    ),
    Mutant(
        "verify-family-ignores-closure",
        AFFINE,
        '"ok": closure.ok and transitivity.ok and',
        '"ok": transitivity.ok and',
        (f"{TEST_AFFINE}::test_a_family_that_is_not_closed_fails_on_closure_alone",),
    ),
    Mutant(
        "iso-witness-without-pivot-count",
        EXTENSIONS,
        "    if _int_rank(rows) < n:\n        return False\n",
        "",
        (f"{TEST_CLEARED}::test_iso_witness_matches_conjugation_oracle",),
    ),
    Mutant(
        "iso-witness-without-e-factor",
        EXTENSIONS,
        "scale = e * db",
        "scale = db",
        (f"{TEST_CLEARED}::test_iso_witness_matches_conjugation_oracle",),
    ),
    Mutant(
        "jacobi-drops-a-cyclic-term",
        ALGEBRA,
        '"jacobi": Identity(((1, T1, IJK), (1, T1, JKI), (1, T1, KIJ)), (),',
        '"jacobi": Identity(((1, T1, IJK), (1, T1, JKI)), (),',
        (f"{TEST_CLEARED}::test_lie_identification_matches_fraction_oracle",),
    ),
    Mutant(
        "center-from-left-block-only",
        ALGEBRA,
        "return _int_span(a.dim, _int_nullspace(lefts + rights, a.dim))",
        "return _int_span(a.dim, _int_nullspace(lefts, a.dim))",
        (f"{TEST_CLEARED}::test_ranks_match_fraction_oracle",),
    ),
    Mutant(
        "fingerprint-center-from-left-block-only",
        CATALOG,
        "a.dim - _int_rank(s.lefts + s.rights)",
        "a.dim - _int_rank(s.lefts)",
        (f"{TEST_CLEARED}::test_ranks_match_fraction_oracle",),
    ),
    Mutant(
        "char-poly-floor-division",
        LINALG,
        "return [Fraction(c, d**k) for k, c in enumerate(_int_char_poly(b))]",
        "return [Fraction(c // d**k) for k, c in enumerate(_int_char_poly(b))]",
        (f"{TEST_KERNELS}::test_char_poly_and_nilpotency_match_fraction_oracle",),
    ),
    Mutant(
        "char-poly-closed-form-minor-sign",
        LINALG,
        "a * e - b1 * d + a * i",
        "a * e + b1 * d + a * i",
        (f"{TEST_KERNELS}::test_char_poly_and_nilpotency_match_fraction_oracle",),
    ),
    Mutant(
        "int-roots-quadratic-without-the-square-test",
        LINALG,
        "if s * s == disc:",
        "if True:",
        ("tests/test_linalg.py::test_int_roots_match_the_roots_they_are_built_from",),
    ),
    Mutant(
        "int-rref-leaves-tall-inputs-unreduced",
        LINALG,
        "        for i in range(nrows):\n            factor = rows[i][c]",
        "        for i in (range(r + 1, nrows) if nrows > len(prow) else range(nrows)):\n            factor = rows[i][c]",
        (f"{TEST_CLEARED}::test_ranks_match_fraction_oracle",),
    ),
    Mutant(
        "rref-floor-division",
        LINALG,
        "return [tuple(Fraction(a, row[c]) for a in row) for row, c in zip(rows, pivots)]",
        "return [tuple(Fraction(a // row[c]) for a in row) for row, c in zip(rows, pivots)]",
        (f"{TEST_KERNELS}::test_rref_matches_fraction_oracle",),
    ),
    Mutant(
        "identity-n-wrong-permutation",
        ALGEBRA,
        '"N": Identity(((1, T1, IJK),), ((1, T1, IKJ),),',
        '"N": Identity(((1, T1, IJK),), ((1, T1, JIK),),',
        (f"{TEST_KERNELS}::test_failures_match_fraction_engine",),
    ),
    Mutant(
        "identity-d-reversed-can-fail",
        ALGEBRA,
        "((1, T1, KJI),), lambda i, j, k: i < k)",
        "((1, T1, KJI),), lambda i, j, k: i > k)",
        (f"{TEST_KERNELS}::test_failures_match_fraction_engine",),
    ),
    Mutant(
        "plan-reads-ikj-as-jik",
        ALGEBRA,
        "for tensor, (p, q, r) in terms)",
        "for tensor, (q, r, p) in terms)",
        (f"{TEST_KERNELS}::test_failures_match_fraction_engine",),
    ),
    Mutant(
        "identity-witness-without-d2-rescale",
        ALGEBRA,
        "d2 = self.d * self.d",
        "d2 = self.d",
        (f"{TEST_KERNELS}::test_failures_match_fraction_engine",),
    ),
    Mutant(
        "induced-action-lift-at-a-pivot",
        CATALOG,
        "k not in s.pivots",
        "k in s.pivots",
        (f"{TEST_PRIMITIVES}::test_induced_action_ratio_equals_the_full_matrix_restriction",),
    ),
    Mutant(
        "restricted-reads-the-pivots-reversed",
        ALGEBRA,
        "return QMatrix([[image[k] for image in images] for k in pivots])",
        "return QMatrix([[image[k] for image in images] for k in reversed(pivots)])",
        (f"{TEST_PRIMITIVES}::test_milnor_d_is_ad_e1_on_the_trace_kernel",),
    ),
    Mutant(
        "audit-tag-without-the-left-symmetry-gate",
        ALGEBRA,
        '    if not first_failure(a, "left_symmetric").ok:\n        lie = lie_algebra_of(a)\n'
        "        _require_lie(lie)\n        return lie.table.c\n",
        "",
        ("tests/test_catalog.py::test_a_sample_whose_commutators_fail_jacobi_is_audited",),
    ),
    Mutant(
        "audit-brackets-symmetrized",
        ALGEBRA,
        "tuple(x - y for x, y in zip(c[i][j], c[j][i]))",
        "tuple(x + y for x, y in zip(c[i][j], c[j][i]))",
        (f"{TEST_CLEARED}::test_the_one_table_inputs_reach_every_left_symmetric_verdict",),
    ),
    Mutant(
        "completeness-reads-left-traces",
        ALGEBRA,
        "return all(sum(c[j][i][j] for j in range(n)) == 0 for i in range(n))",
        "return all(sum(c[i][j][j] for j in range(n)) == 0 for i in range(n))",
        ("tests/test_catalog.py::test_verify_entry_n30",),
    ),
    Mutant(
        "a1-fixture-reads-its-commutators-off-a-copy",
        CATALOG,
        "_commutator_brackets(a1)",
        "_commutator_brackets(Algebra(a1.dim, a1.c, a1.name))",
        ("tests/test_catalog.py::test_an_audit_decides_each_algebra_once",),
    ),
    Mutant(
        "first-failure-memo-ignores-its-identity",
        ALGEBRA,
        "check = self._first.get(identity)",
        "check = next(iter(self._first.values()), None)",
        (f"{TEST_CLEARED}::test_one_table_answers_in_any_order",),
    ),
    Mutant(
        "one-table-shared-by-the-algebras-of-a-dimension",
        ALGEBRA,
        "        return TripleTable(self)\n",
        '        return globals().setdefault("_TABLES", {}).setdefault(self.dim, TripleTable(self))\n',
        (f"{TEST_CLEARED}::test_one_table_answers_in_any_order",),
    ),
    Mutant(
        "unimodular-reason-from-a-rank-of-two",
        ALGEBRA,
        "perfect = _int_rank(v for plane in b for v in plane) == 3",
        "perfect = _int_rank(v for plane in b for v in plane) >= 2",
        (f"{TEST_CLEARED}::test_lie_oracle_inputs_reach_every_verdict",),
    ),
    Mutant(
        "induced-action-rb-without-its-factor-two",
        CATALOG,
        "flat2 = [2 * x for row in rb for x in row]",
        "flat2 = [x for row in rb for x in row]",
        ("tests/test_catalog.py::test_c3t_induced_action_ratio_at_every_sampled_t",),
    ),
    Mutant(
        "kim-conditions-1-and-2-swapped",
        EXTENSIONS,
        'CONDITION_OF_BLOCKS = {"KVV": 1, "VVK": 2,',
        'CONDITION_OF_BLOCKS = {"KVV": 2, "VVK": 1,',
        ("tests/test_extension_oracles.py::test_kim_conditions_agree_with_the_separate_loops",),
    ),
)


def occurrences(mutant: Mutant, root: Path = ROOT) -> int:
    return (root / mutant.path).read_text().count(mutant.snippet)


def run(mutant: Mutant, mutate: bool = True) -> str:
    """The row's status, from a fresh copy of the tree (left unmutated when
    ``mutate`` is false)."""
    if occurrences(mutant) != 1:
        return "stale"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, copy / name)
        if mutate:
            target = copy / mutant.path
            target.write_text(target.read_text().replace(mutant.snippet, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests]
        try:
            code = subprocess.run(command, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT).returncode
        except subprocess.TimeoutExpired:
            return "timeout"
    return {0: "surviving", 1: "killed"}.get(code, "error")


def main() -> int:
    statuses = []
    baselines: dict[tuple[str, ...], str] = {}
    for mutant in MUTANTS:
        start = time.perf_counter()
        status = run(mutant)
        if status == "killed":
            if mutant.tests not in baselines:
                baselines[mutant.tests] = run(mutant, mutate=False)
            if baselines[mutant.tests] != "surviving":  # the selection fails on the code as it is
                status = "error"
        statuses.append(status)
        print(f"{status:9} {time.perf_counter() - start:6.1f}s  {mutant.name}", flush=True)
    print(f"{statuses.count('killed')} of {len(MUTANTS)} killed")
    return 0 if all(s == "killed" for s in statuses) else 1


if __name__ == "__main__":
    sys.exit(main())
