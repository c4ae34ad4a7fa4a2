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
EXTENSIONS = "src/lsa/extensions.py"
LINALG = "src/lsa/linalg.py"
TEST_AFFINE = "tests/test_affine.py"
TEST_CLEARED = "tests/test_cleared_tensor_oracles.py"
TEST_KERNELS = "tests/test_integer_kernel_oracles.py"

MUTANTS = (
    Mutant(
        "c31-recover-phi-sign",
        AFFINE,
        "return a, b, (t[2] - b * x.phi(a)) / x.f(a)",
        "return a, b, (t[2] + b * x.phi(a)) / x.f(a)",
        (f"{TEST_AFFINE}::test_closed_form_start_needs_no_newton_step[C31-]",),
    ),
    Mutant(
        "e3-recover-denominator",
        AFFINE,
        "denom = big_f * big_f + big_h * big_h",
        "denom = big_f * big_f + 2 * big_h * big_h",
        (f"{TEST_AFFINE}::test_closed_form_start_needs_no_newton_step[E3-1]",),
    ),
    Mutant(
        "a31-translation-without-half",
        AFFINE,
        "(a, b * x.f(a), c + x.half * a * a)",
        "(a, b * x.f(a), c + a * a)",
        ("tests/test_affine_exact.py::test_closure_residual_vanishes_exactly[A31]",),
    ),
    Mutant(
        "b31-linear-entry-doubled",
        AFFINE,
        "(2, 1): a * ea}, (a, b * fa, (a * b + c) * fa)",
        "(2, 1): 2 * a * ea}, (a, b * fa, (a * b + c) * fa)",
        (f"{TEST_AFFINE}::test_tangent_all_families",),
    ),
    Mutant(
        "numpy-namespace-half",
        AFFINE,
        "phi=special_phi, half=0.5,",
        "phi=special_phi, half=0.5 + 1e-9,",
        ("tests/test_affine_exact.py::test_namespaces_agree_through_the_same_formulas",),
    ),
    Mutant(
        "grid-inverse-bound-loosened",
        AFFINE,
        "axis=1) < NEWTON_TOL))  # also NaN",
        "axis=1) < 10 * NEWTON_TOL))  # also NaN",
        (f"{TEST_AFFINE}::test_the_grid_refuses_a_recover_that_misses_by_more_than_newton_tol",),
    ),
    Mutant(
        "closure-keeps-nan-residuals",
        AFFINE,
        "resids = np.where(np.isnan(resids), np.inf, resids).tolist()",
        "resids = resids.tolist()",
        (f"{TEST_AFFINE}::test_closure_edge_cases_equal_the_per_pair_reference",),
    ),
    Mutant(
        "legacy-d32-recover-reads-the-wrong-diagonal",
        AFFINE,
        "a = x.log(lin[1, 1])",
        "a = x.log(lin[2, 2])",
        (f"{TEST_AFFINE}::test_recover_inverts_the_maps_on_the_grid",),
    ),
    Mutant(
        "grid-axes-b-and-c-swapped",
        AFFINE,
        "enumerate([(1, -1, 1, 1), (1, 1, -1, 1), (1, 1, 1, -1)])",
        "enumerate([(1, -1, 1, 1), (1, 1, 1, -1), (1, 1, -1, 1)])",
        (f"{TEST_AFFINE}::test_grid_axes_equal_the_flat_meshgrid",),
    ),
    Mutant(
        "grid-axis-c-unshifted",
        AFFINE,
        "(DIFF_STEP * _STENCIL)[:, k].reshape(-1, 1, 1, 1)",
        "(DIFF_STEP * _STENCIL)[:, k].reshape(-1, 1, 1, 1) * (k < 2)",
        (f"{TEST_AFFINE}::test_grid_axes_equal_the_flat_meshgrid",),
    ),
    Mutant(
        "newton-first-jacobians-at-every-start",
        AFFINE,
        "jac = _orbit_jacobians(fam, x[live])[1] if jac is None else jac[~done]",
        "jac = _orbit_jacobians(fam, x)[1] if jac is None else jac[~done]",
        (f"{TEST_AFFINE}::test_newton_evaluates_only_the_images_of_solved_starts",),
    ),
    Mutant(
        "ideal-operator-uncleared",
        ALGEBRA,
        "ops = [(d, [list(r) for r in zip(*cols)]) for cols in columns]",
        "ops = [(1 if k == 0 else d, [list(r) for r in zip(*cols)]) for k, cols in enumerate(columns)]",
        ("tests/test_subspace_oracles.py::test_ideals_match_filtered_enumeration",),
    ),
    Mutant(
        "completeness-traces-always-true",
        ALGEBRA,
        "return all(sum(a.c[j][i][j] for j in range(n)) == 0 for i in range(n))",
        "return True",
        ("tests/test_algebra.py::test_is_complete_agrees_with_segal_trace_criterion",),
    ),
    Mutant(
        "annihilator-dims-plus-one",
        CATALOG,
        "return a.dim - _int_rank(s.rights), a.dim - _int_rank(s.lefts)",
        "return a.dim - _int_rank(s.rights) + 1, a.dim - _int_rank(s.lefts)",
        (f"{TEST_KERNELS}::test_annihilators_give_the_operator_spans",),
    ),
    Mutant(
        "a31-translation-without-half-passes-verify-family",
        AFFINE,
        "(a, b * x.f(a), c + x.half * a * a)",
        "(a, b * x.f(a), c + a * a)",
        (f"{TEST_AFFINE}::test_a_recover_that_does_not_invert_its_maps_fails_the_family",),
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
        "identity-witness-without-d2-rescale",
        ALGEBRA,
        "d2 = self.d * self.d",
        "d2 = self.d",
        (f"{TEST_KERNELS}::test_failures_match_fraction_engine",),
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
