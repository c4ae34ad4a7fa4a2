"""The three benchmark workloads: input generation, warm-up and output checks.

Every workload drives ``lsa`` only through ``lsa.catalog.verify_catalog`` and
``lsa.cli.main``; the other ``lsa`` functions used here only build inputs or
read the catalog's claimed values.  Inputs depend on the workload seed alone.

An operation's outcome is one of:

* ``ok``: expected exit code and every output check passes;
* ``raised``: an exception escaped the entry point (the program's contract
  is an exit code and a message, so this is a failure, but no wrong answer
  was given);
* ``wrong``: an unexpected exit code or an output that fails its check.

``raised`` and ``wrong`` both count as failed; only ``wrong`` makes the run
incorrect.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from lsa import catalog, cli
from lsa.algebra import Algebra, conjugated
from lsa.catalog import catalog_lsas, fixtures, make_lsa, reconstruction_cases
from lsa.jsonio import algebra_to_dict, dumps_sorted, extension_to_dict
from lsa.linalg import QMatrix, det

F = Fraction

# Seed-7 catalog report: ``dumps_sorted`` bytes and CLI stdout at the seed commit.
CATALOG_SEED7_BYTES = 27465
CATALOG_SEED7_SHA = "f8319fd94f40"
CATALOG_SEED7_STDOUT_SHA = "c0478e59d6a6"

# Rational two-sided ideals found per catalog entry; invariant under a
# rational basis change and under the entry's parameter.
IDEAL_COUNTS = {
    "N30": 4, "N31": 3, "N32": 2, "N33": 2, "B30": 3, "B31": 2,
    "C31": 2, "C3t": 2, "D31mu": 3, "D32": 2, "E31zeta": 1,
}

# 2D fixtures: check exit code, (left_symmetric, complete, N, D, S), ideal count.
FIXTURES_2D = {
    "r2_zero": (0, (True, True, True, True, True), 2),
    "r2_square": (0, (True, True, True, True, True), 1),
    "N2": (0, (True, True, True, True, True), 1),
    "aff_R": (1, (False, False, False, False, False), 1),
}

# (dim Z2, dim B2, dim H2) per reconstruction path; the action of each path
# does not depend on its random parameters.
H2_DIMS = {
    "case1/trivial-R2": (2, 2, 0),
    "case1/N2-central": (2, 1, 1),
    "case1/N2-identity": (3, 1, 2),
    "case1/N2-jordan": (3, 1, 2),
    "case1/N2-diag": (2, 2, 0),
    "case2/N2-kernel": (2, 1, 1),
    "case3/diag10": (2, 1, 1),
    "case3/identity": (2, 2, 0),
    "case3/jordan": (2, 2, 0),
    "case3/diagmu": (2, 2, 0),
    "case3/rotation": (2, 2, 0),
    "case3/square": (2, 2, 0),
}

AFFINE_BOUNDS = {"closure": 1e-9, "jacobian": 1e-8, "newton": 1e-10, "tangent": 1e-6}

ENTRIES = {e.name: e for e in catalog_lsas()}
FAMILY_PARAMS = {"C3t": "t", "D31": "mu", "E3": "zeta"}
AFFINE_FAMILIES = ("A30", "A31", "A32", "A33", "B30", "B31", "C31", "C3t", "D31", "D32", "E3")


class Outcome:
    OK, RAISED, WRONG = "ok", "raised", "wrong"


def call_cli(argv: list[str]) -> tuple[int | None, str, str, str | None]:
    """Run ``lsa.cli.main`` with captured streams: (exit code, stdout, stderr, exception)."""
    out, err = io.StringIO(), io.StringIO()
    code, exc = None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as stop:
        code = stop.code
    except Exception as raised:  # the entry point's own failure, recorded per op
        exc = f"{type(raised).__name__}: {raised}"
    return code, out.getvalue(), err.getvalue(), exc


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _op_seed(tag: str, seed: int, index: int) -> int:
    return random.Random(f"{tag}:{seed}:{index}").randrange(1, 2**31)


@dataclass(frozen=True)
class Op:
    """One request: ``run()`` is the timed call into ``lsa``; ``check(result)``
    returns (outcome, detail) and runs after the clock stops."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str, str]]


# ---------------------------------------------------------------------------
# catalog_audit
# ---------------------------------------------------------------------------


def _check_catalog_report(report: dict) -> tuple[str, str]:
    if not report.get("ok") or report.get("hard_failures"):
        return Outcome.WRONG, f"catalog not ok: {report.get('hard_failures')}"
    ids = {d["id"] for d in report.get("discrepancies", [])}
    missing = {"D32-product-column", "C3t-remark-format"} - ids
    if missing:
        return Outcome.WRONG, f"missing discrepancy notes {sorted(missing)}"
    return Outcome.OK, ""


def _catalog_op(seed: int) -> Op:
    def run():
        try:
            return catalog.verify_catalog(seed=seed, random_samples=5), None
        except Exception as raised:
            return None, f"{type(raised).__name__}: {raised}"

    def check(result):
        report, exc = result
        if exc:
            return Outcome.RAISED, exc
        return _check_catalog_report(report)

    return Op("verify_catalog", run, check)


def _catalog_golden_op() -> Op:
    """``lsa catalog-verify --json --seed 7``: bytes must equal the seed commit's."""

    def check(result):
        code, out, _err, exc = result
        if exc:
            return Outcome.RAISED, exc
        if code != 0:
            return Outcome.WRONG, f"exit {code}"
        body = out[:-1] if out.endswith("\n") else out
        if (len(body), _sha(body), _sha(out)) != (
            CATALOG_SEED7_BYTES, CATALOG_SEED7_SHA, CATALOG_SEED7_STDOUT_SHA
        ):
            return Outcome.WRONG, f"seed-7 digest {len(body)} {_sha(body)} {_sha(out)}"
        outcome, detail = _check_catalog_report(json.loads(out))
        if outcome != Outcome.OK:
            return outcome, detail
        if dumps_sorted(json.loads(out)) != body:
            return Outcome.WRONG, "stdout is not the dumps_sorted rendering"
        return Outcome.OK, ""

    return Op("catalog_verify_seed7", lambda: call_cli(["catalog-verify", "--json", "--seed", "7"]), check)


class CatalogAudit:
    """One op = ``verify_catalog(seed=s, random_samples=5)``."""

    name = "catalog_audit"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def warm_up(self) -> list[Op]:
        return [_catalog_golden_op()]

    def batch(self, index: int) -> list[Op]:
        return [_catalog_op(_op_seed(self.name, self.seed, index))]


# ---------------------------------------------------------------------------
# affine_audit
# ---------------------------------------------------------------------------


def _check_affine(result) -> tuple[str, str]:
    code, out, _err, exc = result
    if exc:
        return Outcome.RAISED, exc
    if code != 0:
        return Outcome.WRONG, f"exit {code}"
    rep = json.loads(out)
    if not rep.get("ok") or len(rep["families"]) != 11:
        return Outcome.WRONG, "affine report not ok"
    b = AFFINE_BOUNDS
    for fam in rep["families"]:
        if not (
            fam["ok"]
            and fam["closure_failures"] == 0
            and fam["max_closure_residual"] < b["closure"]
            and fam["jacobian_min_abs_det"] > b["jacobian"]
            and fam["injectivity_ok"]
            and fam["newton_failures"] == 0
            and fam["max_newton_residual"] < b["newton"]
            and fam["tangent_generator_error"] < b["tangent"]
            and fam["tangent_bracket_residual"] < b["tangent"]
            and fam["identity_at_zero"]
        ):
            return Outcome.WRONG, f"family {fam['family']} out of bounds"
    legacy = [n for n in rep["notes"] if n["family"] == "D32-legacy"]
    if not legacy or legacy[0]["closure_failures"] < 1:
        return Outcome.WRONG, "D32-legacy closure failures not reported"
    return Outcome.OK, ""


def _affine_op(seed: int) -> Op:
    return Op(
        "affine_verify", lambda: call_cli(["affine-verify", "--json", "--seed", str(seed)]), _check_affine
    )


class AffineAudit:
    """One op = ``lsa affine-verify --json --seed s``."""

    name = "affine_audit"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def warm_up(self) -> list[Op]:
        return [_affine_op(_op_seed(self.name, self.seed, -1))]

    def batch(self, index: int) -> list[Op]:
        return [_affine_op(_op_seed(self.name, self.seed, index))]


# ---------------------------------------------------------------------------
# file_commands
# ---------------------------------------------------------------------------


def _random_invertible(rng: random.Random, n: int) -> QMatrix:
    while True:
        m = QMatrix([[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)])
        if det(m) != 0:
            return m


def _fresh_basis(a: Algebra, rng: random.Random) -> Algebra:
    """``a`` in a random rational basis, without its catalog name and parameters."""
    c = conjugated(a, _random_invertible(rng, a.dim))
    return Algebra(c.dim, c.c)


def _direct_sum_r0(a: Algebra) -> Algebra:
    n = a.dim + 1
    zero = (F(0),) * n
    tensor = tuple(
        tuple(tuple(a.c[i][j]) + (F(0),) if i < a.dim and j < a.dim else zero for j in range(n))
        for i in range(n)
    )
    return Algebra(n, tensor)


def _sample_entry_params(name: str, rng: random.Random) -> dict:
    if name == "C3t":
        t = F(1)
        while t == 1:
            t = F(rng.randint(-9, 9), rng.randint(1, 5))
        return {"t": t}
    if name == "D31mu":
        den = rng.randint(2, 11)
        return {"mu": F(rng.choice([-1, 1]) * rng.randint(1, den - 1), den)}
    if name == "E31zeta":
        return {"zeta": F(rng.randint(1, 9), rng.randint(1, 5))}
    return {}


def _product(tensor, x, y):
    n = len(x)
    out = [F(0)] * n
    for i in range(n):
        for j in range(n):
            c = x[i] * y[j]
            if c:
                for k, v in enumerate(tensor[i][j]):
                    out[k] += c * v
    return out


def _tensor_from_json(obj: dict):
    n = obj["dim"]
    t = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    for p in obj["products"]:
        t[p["i"] - 1][p["j"] - 1][p["k"] - 1] = F(p["num"], p["den"])
    return t


def _is_isomorphism(built, target, cols) -> bool:
    """``cols[i]`` is the image of basis vector i; checks eta(e_i e_j) = eta(e_i) eta(e_j)."""
    n = len(cols)

    def eta(v):
        return [sum((v[i] * cols[i][r] for i in range(n)), F(0)) for r in range(n)]

    return det(QMatrix.from_cols(cols)) != 0 and all(
        eta(built[i][j]) == _product(target, cols[i], cols[j]) for i in range(n) for j in range(n)
    )


def _expect_exit(code_expected: int):
    def check(result):
        code, _out, _err, exc = result
        if exc:
            return Outcome.RAISED, exc
        if code != code_expected:
            return Outcome.WRONG, f"exit {code}, expected {code_expected}"
        return Outcome.OK, ""

    return check


def _expect_json(code_expected: int, predicate):
    def check(result):
        code, out, _err, exc = result
        if exc:
            return Outcome.RAISED, exc
        if code != code_expected:
            return Outcome.WRONG, f"exit {code}, expected {code_expected}"
        detail = predicate(json.loads(out))
        return (Outcome.WRONG, detail) if detail else (Outcome.OK, "")

    return check


def _check_fields(flags):
    ls, complete, n, d, s = flags

    def pred(o):
        got = (o["left_symmetric"], o["complete"], o["novikov"], o["derivation"], o["s_identity"])
        return None if got == (ls, complete, n, d, s) else f"check fields {got}"

    return pred


def _lie_tag_is(tag: str):
    return lambda o: None if o["lie_tag"] == tag else f"lie_tag {o['lie_tag']} != {tag}"


def _ideal_count_is(count: int):
    def pred(o):
        ok = o["count"] == count == len(o["ideals"]) and all(1 <= i["dim"] <= 3 for i in o["ideals"])
        return None if ok else f"ideals count {o['count']} != {count}"

    return pred


def _h2_dims_are(dims):
    def pred(o):
        got = (o["dim_Z2"], o["dim_B2"], o["dim_H2"])
        ok = got == dims and len(o["representatives"]) == dims[2]
        return None if ok else f"h2 dims {got} != {dims}"

    return pred


def _iso_to(target_tensor, witness: QMatrix):
    cols = [witness.col(i) for i in range(witness.ncols)]
    return lambda o: None if _is_isomorphism(_tensor_from_json(o), target_tensor, cols) else "witness fails"


def _affine_sample_ok(at_zero: bool):
    def pred(o):
        if len(o["elements"]) != 1:
            return "wrong element count"
        el = o["elements"][0]
        vals = [x for row in el["linear"] for x in row] + el["translation"]
        if not all(math.isfinite(x) for x in vals):
            return "non-finite element"
        if abs(_det3(el["linear"])) < 1e-12:
            return "singular linear part"
        identity = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        if at_zero and (el["linear"] != identity or el["translation"] != [0.0, 0.0, 0.0]):
            return "element at 0 is not the identity"
        return None

    return pred


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


class FileCommands:
    """A seeded stream of per-file CLI requests, in rounds of fixed composition.

    One round holds 82 requests: check/lie/identify/ideals on each of the 11
    catalog entries (sampled parameters, random rational basis) and on the
    four 2D fixtures, the same four on one 4D direct sum entry + R0, h2 and
    extend on six reconstruction paths, two affine-sample calls and four
    malformed or out-of-scope requests.  A run measures whole rounds, so every
    run has the same mix.
    """

    name = "file_commands"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir

    def _write(self, name: str, obj) -> str:
        path = self.dir / f"{name}.json"
        path.write_text(obj if isinstance(obj, str) else json.dumps(obj), encoding="utf-8")
        return str(path)

    def _cli(self, kind: str, argv: list[str], check) -> Op:
        return Op(kind, lambda: call_cli(argv), check)

    def warm_up(self) -> list[Op]:
        # one request of every kind from a round no run measures; the 4D check
        # is left out because it only repeats the 3D check's code path
        ops = self._round(-1)
        seen, out = set(), []
        for op in ops:
            if op.kind not in seen and op.kind != "check-4d":
                seen.add(op.kind)
                out.append(op)
        return out

    def batch(self, index: int) -> list[Op]:
        return self._round(index)

    def _round(self, index: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        tag = f"r{index}"
        ops: list[Op] = []
        for name, entry in ENTRIES.items():
            params = _sample_entry_params(name, rng)
            path = self._write(f"{tag}-{name}", algebra_to_dict(_fresh_basis(make_lsa(name, **params), rng)))
            claimed = str(entry.claimed_tag(params))
            ops += [
                self._cli("check-3d", ["check", path, "--json"], _expect_json(0, _check_fields((True, True, *entry.claimed_flags)))),
                self._cli("lie-3d", ["lie", path, "--json"], _expect_json(0, _lie_tag_is(claimed))),
                self._cli("identify-3d", ["identify", path, "--json"], _expect_json(0, _lie_tag_is(claimed))),
                self._cli("ideals-3d", ["ideals", path, "--json"], _expect_json(0, _ideal_count_is(IDEAL_COUNTS[name]))),
            ]
        fx = fixtures()
        for name, (check_code, flags, n_ideals) in FIXTURES_2D.items():
            path = self._write(f"{tag}-{name}", algebra_to_dict(_fresh_basis(fx[name], rng)))
            ops += [
                self._cli("check-2d", ["check", path, "--json"], _expect_json(check_code, _check_fields(flags))),
                self._cli("lie-2d", ["lie", path, "--json"], _expect_exit(2)),
                self._cli("identify-2d", ["identify", path, "--json"], _expect_exit(2)),
                self._cli("ideals-2d", ["ideals", path, "--json"], _expect_json(0, _ideal_count_is(n_ideals))),
            ]
        name = rng.choice(sorted(ENTRIES))
        params = _sample_entry_params(name, rng)
        a4 = _fresh_basis(_direct_sum_r0(make_lsa(name, **params)), rng)
        path = self._write(f"{tag}-{name}-4d", algebra_to_dict(a4))
        ops += [
            self._cli("check-4d", ["check", path, "--json"], _expect_json(0, _check_fields((True, True, *ENTRIES[name].claimed_flags)))),
            self._cli("lie-4d", ["lie", path, "--json"], _expect_exit(2)),
            self._cli("identify-4d", ["identify", path, "--json"], _expect_exit(2)),
            self._cli("ideals-4d", ["ideals", path, "--json"], _expect_exit(2)),
        ]
        cases = rng.sample(reconstruction_cases(random.Random(rng.randrange(2**31))), 6)
        for pos, case in enumerate(cases):
            path = self._write(f"{tag}-ext{pos}", extension_to_dict(case.data))
            target = make_lsa(case.target, **case.target_params)
            ops += [
                self._cli("h2", ["h2", path, "--json"], _expect_json(0, _h2_dims_are(H2_DIMS[case.label]))),
                self._cli("extend", ["extend", path, "--json"], _expect_json(0, _iso_to(target.c, case.witness))),
            ]
        # one point per request, passed as --at=a,b,c: argparse would read a
        # separate token such as -1.5,0,2 as an option
        for point in ("0,0,0", ",".join(str(rng.randint(-8, 8) / 4) for _ in range(3))):
            fam = rng.choice(AFFINE_FAMILIES)
            argv = ["affine-sample", "--family", fam, "--json", f"--at={point}"]
            if fam in FAMILY_PARAMS:
                argv += ["--params", f"{FAMILY_PARAMS[fam]}={self._family_param(fam, rng)}"]
            ops.append(self._cli("affine-sample", argv, _expect_json(0, _affine_sample_ok(point == "0,0,0"))))
        for pos in range(4):
            ops.append(self._malformed(rng, f"{tag}-bad{pos}"))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _family_param(fam: str, rng: random.Random) -> str:
        if fam == "C3t":
            t = F(1)
            while t == 1:
                t = F(rng.randint(-6, 6), rng.randint(1, 4))
            return str(t)
        if fam == "D31":
            den = rng.randint(2, 9)
            return str(F(rng.choice([-1, 1]) * rng.randint(1, den - 1), den))
        return str(F(rng.randint(1, 9), rng.randint(1, 4)))

    def _malformed(self, rng: random.Random, name: str) -> Op:
        """A request the CLI contract answers with exit code 2."""
        kind = rng.randrange(8)
        good = algebra_to_dict(_fresh_basis(make_lsa("B31"), rng))
        ext = extension_to_dict(rng.choice(reconstruction_cases(random.Random(rng.randrange(2**31)))).data)
        if kind == 0:
            text = json.dumps(good)
            return self._cli("bad-json", ["check", self._write(name, text[: rng.randint(1, len(text) - 1)]), "--json"], _expect_exit(2))
        if kind == 1:
            del good["dim"]
            return self._cli("bad-schema", ["ideals", self._write(name, good), "--json"], _expect_exit(2))
        if kind == 2:
            good["products"][rng.randrange(len(good["products"]))]["den"] = 0
            return self._cli("bad-rational", ["lie", self._write(name, good), "--json"], _expect_exit(2))
        if kind == 3:
            good["products"][rng.randrange(len(good["products"]))]["k"] = 4
            return self._cli("bad-index", ["identify", self._write(name, good), "--json"], _expect_exit(2))
        if kind == 4:
            del ext["rho"]
            return self._cli("bad-extension", ["h2", self._write(name, ext), "--json"], _expect_exit(2))
        if kind == 5:
            ext["g"] = ext["g"] + ext["g"][:1]
            return self._cli("bad-cocycle", ["extend", self._write(name, ext), "--json"], _expect_exit(2))
        if kind == 6:
            mu = F(rng.randint(10, 30), rng.randint(2, 9))
            return self._cli("bad-param", ["affine-sample", "--family", "D31", "--params", f"mu={mu}", "--json"], _expect_exit(2))
        return self._cli("missing-file", ["check", str(self.dir / f"{name}-absent.json"), "--json"], _expect_exit(2))


WORKLOADS = {w.name: w for w in (CatalogAudit, AffineAudit, FileCommands)}


def make(name: str, seed: int, workdir: Path):
    return WORKLOADS[name](seed, workdir)
