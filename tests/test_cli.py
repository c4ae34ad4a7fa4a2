import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from lsa.algebra import Algebra, conjugated
from lsa.catalog import case1_n2_central, case3_square_kernel, make_lsa
from lsa.cli import CHECK_MAX_DIM, main
from lsa.jsonio import (
    JsonFormatError,
    algebra_from_dict,
    algebra_to_dict,
    dumps_sorted,
    extension_from_dict,
    extension_to_dict,
)
from lsa.linalg import QMatrix


@pytest.fixture
def n30_file(tmp_path):
    path = tmp_path / "n30.json"
    path.write_text(dumps_sorted(algebra_to_dict(make_lsa("N30"))))
    return str(path)


@pytest.fixture
def idem_file(tmp_path):
    path = tmp_path / "idem.json"
    path.write_text(json.dumps({"dim": 1, "products": [{"i": 1, "j": 1, "k": 1, "num": 1}]}))
    return str(path)


@pytest.fixture
def ext_file(tmp_path):
    path = tmp_path / "ext.json"
    path.write_text(dumps_sorted(extension_to_dict(case1_n2_central(3).data)))
    return str(path)


def test_json_roundtrip_algebra():
    for name, params in [("N30", {}), ("C3t", {"t": "5/3"}), ("D32", {})]:
        a = make_lsa(name, **params)
        b = algebra_from_dict(json.loads(dumps_sorted(algebra_to_dict(a))))
        assert (b.dim, b.c, b.name, b.params) == (a.dim, a.c, a.name, a.params)


def test_json_roundtrip_extension():
    d = case3_square_kernel(2, 3).data
    d2 = extension_from_dict(extension_to_dict(d))
    assert d2.k.c == d.k.c and d2.v.c == d.v.c
    assert d2.action.lam == d.action.lam and d2.action.rho == d.action.rho
    assert d2.g.values == d.g.values


def test_json_schema_errors():
    with pytest.raises(JsonFormatError):
        algebra_from_dict({"products": []})  # no dim
    with pytest.raises(JsonFormatError):
        algebra_from_dict({"dim": 2, "products": [{"i": 1, "j": 5, "k": 1, "num": 1}]})
    with pytest.raises(JsonFormatError):
        algebra_from_dict({"dim": 2, "products": [{"i": 1, "j": 1, "k": 1, "num": 1, "den": 0}]})


def test_check_pass(n30_file, capsys):
    assert main(["check", n30_file]) == 0
    out = capsys.readouterr().out
    assert "left-symmetric: yes" in out
    assert "complete: yes" in out
    assert "N D S: yes yes yes" in out


def test_check_incomplete(idem_file, capsys):
    assert main(["check", idem_file]) == 1
    assert "complete: no" in capsys.readouterr().out


def test_check_json_flag(n30_file, capsys):
    assert main(["check", n30_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["left_symmetric"] and data["complete"]


def test_malformed_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


GOOD_EXT = extension_to_dict(case1_n2_central(3).data)


@pytest.mark.parametrize(
    "data",
    [
        {"dim": 2, "products": 5},
        {"dim": 2, "params": [1, 2]},
        {"dim": 2, "products": [{"i": 1, "j": 1, "k": 1, "num": 1e400}]},
        {"dim": 2, "products": [{"i": 1, "j": 1, "k": 1, "num": 1.5}]},
        {"dim": 2, "products": [{"i": 1, "j": 1, "k": 1, "num": 1, "den": True}]},
        {"dim": 2, "products": [{"i": 1.0, "j": 1, "k": 1, "num": 1}]},
        {"dim": 2, "products": [{"i": 1, "j": "1", "k": 1, "num": 1}]},
        {"dim": 2, "params": {"t": 0.5}},
        {"dim": 2, "params": {"t": {"num": 1, "den": 2.0}}},
        {"dim": True, "products": []},
        {"dim": 2.0, "products": []},
        {"dim": 2, "name": [1]},
        dict(GOOD_EXT, **{"lambda": 5}),
        dict(GOOD_EXT, rho=[[1]]),
        dict(GOOD_EXT, K={"dim": "2"}),
    ],
)
def test_malformed_input_exit_2(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["h2" if "K" in data else "check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_missing_file_exit_2(tmp_path):
    assert main(["check", str(tmp_path / "nope.json")]) == 2


def test_lie_command(n30_file, capsys):
    assert main(["lie", n30_file]) == 0
    out = capsys.readouterr().out
    assert "[e1, e2] -> 1 e2" in out
    assert "G31" in out


def test_h2_command(ext_file, capsys):
    assert main(["h2", ext_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["dim_Z2"], data["dim_B2"], data["dim_H2"]) == (2, 1, 1)


def test_h2_refuses_data_whose_coboundaries_are_not_cocycles(tmp_path, capsys):
    # rho_e2 = 1 over the trivial plane is no bimodule: delta2 . delta1 != 0
    data = {
        "K": {"dim": 2, "products": []},
        "V": {"dim": 1, "products": []},
        "lambda": [[[0]], [[0]]],
        "rho": [[[0]], [[1]]],
    }
    path = tmp_path / "not_bimodule.json"
    path.write_text(json.dumps(data))
    assert main(["h2", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: delta2 . delta1 != 0")


def test_extend_command(ext_file, tmp_path, capsys):
    out_path = tmp_path / "built.json"
    assert main(["extend", ext_file, "--out", str(out_path)]) == 0
    built = algebra_from_dict(json.loads(out_path.read_text()))
    assert built.dim == 3
    assert built.entry(1, 1, 3) == 3  # g(e1, e1) = 3 in the kernel slot


def test_extend_refuses_bad_data(tmp_path, capsys):
    # lambda that is not a Lie representation over the N2 base
    data = extension_to_dict(case1_n2_central(0).data)
    data["lambda"] = [[[[0, 1]]], [[[1, 1]]]]  # lambda_e2 != 0 is not a representation
    path = tmp_path / "bad_ext.json"
    path.write_text(json.dumps(data))
    assert main(["extend", str(path)]) == 1
    assert "conditions failed" in capsys.readouterr().err


# V with e2.e2 = e1 and e1.e2 = e2 is not left-symmetric; with lambda = rho =
# g = 0 over a 1D K all five extension conditions hold, so only V's own
# identity can refuse it.
NON_LSA_KERNEL = {
    "K": {"dim": 1, "products": []},
    "V": {"dim": 2, "products": [{"i": 2, "j": 2, "k": 1, "num": 1}, {"i": 1, "j": 2, "k": 2, "num": 1}]},
    "lambda": [[[0, 0], [0, 0]]],
    "rho": [[[0, 0], [0, 0]]],
    "g": [[[0, 0]]],
}


@pytest.fixture
def non_lsa_kernel_file(tmp_path):
    path = tmp_path / "ext_bad.json"
    path.write_text(json.dumps(NON_LSA_KERNEL))
    return str(path)


def test_extend_refuses_non_left_symmetric_kernel(non_lsa_kernel_file, capsys):
    assert main(["extend", non_lsa_kernel_file, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: V is not left-symmetric")


# The same V as the base of a zero extension by R.
NON_LSA_BASE = {
    "K": NON_LSA_KERNEL["V"],
    "V": {"dim": 1, "products": []},
    "lambda": [[[0]], [[0]]],
    "rho": [[[0]], [[0]]],
    "g": [[[0], [0]], [[0], [0]]],
}


@pytest.mark.parametrize("data, factor", [(NON_LSA_KERNEL, "V"), (NON_LSA_BASE, "K")])
def test_h2_refuses_what_extend_refuses(tmp_path, capsys, data, factor):
    # delta2 has no V.V term, so only this check keeps h2 from reporting a
    # cohomology (dim H2 = 2) for the V that extend refuses
    path = tmp_path / "ext_bad.json"
    path.write_text(json.dumps(data))
    assert main(["extend", str(path)]) == 2
    refusal = capsys.readouterr().err
    assert refusal.startswith(f"error: {factor} is not left-symmetric")
    assert main(["h2", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == refusal


def test_extend_refuses_non_left_symmetric_kernel_under_python_O(non_lsa_kernel_file):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cmd = [sys.executable, "-O", "-m", "lsa.cli", "extend", non_lsa_kernel_file, "--json"]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: V is not left-symmetric") and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_ideals_command(n30_file, capsys):
    assert main(["ideals", n30_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] >= 3


def test_identify_command(n30_file, capsys):
    assert main(["identify", n30_file]) == 0
    out = capsys.readouterr().out
    assert "det D = 0" in out and "G31" in out


def test_identify_builds_one_milnor_form(n30_file, monkeypatch, capsys):
    import lsa.algebra
    import lsa.cli

    calls = []
    original = lsa.algebra.milnor_normal_form

    def counting(lie):
        calls.append(lie)
        return original(lie)

    for module in (lsa.algebra, lsa.cli):
        monkeypatch.setattr(module, "milnor_normal_form", counting)
    assert main(["identify", n30_file, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["lie_tag"] == "G31"
    assert len(calls) == 1


def test_ideals_with_a_huge_eigenvalue_finish(tmp_path):
    """The spectra come from integer bisection, so an eigenvalue of 41
    digits costs as little as one of 1 digit."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    outputs = []
    for n, scale in enumerate((7, 10**40 + 7)):
        path = tmp_path / f"scale{n}.json"
        path.write_text(json.dumps({"dim": 2, "products": [
            {"i": 1, "j": 1, "k": 1, "num": scale}, {"i": 1, "j": 2, "k": 2, "num": 1},
        ]}))
        cmd = [sys.executable, "-m", "lsa.cli", "ideals", str(path), "--json"]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=10)
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout))
    assert outputs[0] == outputs[1] == {"count": 1, "ideals": [{"dim": 1, "basis": [["0", "1"]]}]}


def truncated_polynomials(n: int) -> Algebra:
    """x R[x] / x^(n+1) R[x] in a random unitriangular basis: commutative,
    associative (hence left-symmetric) and nilpotent (hence complete), with
    e_i*e_j in span(e_k : k >= i + j) and every such coefficient filled."""
    a = Algebra.from_entries(n, {(i, j, i + j): 1 for i in range(1, n) for j in range(1, n - i + 1)})
    rng = random.Random(3)
    p = [[Fraction(rng.randint(1, 3), rng.randint(1, 4)) if i > j else int(i == j) for j in range(n)] for i in range(n)]
    return conjugated(a, QMatrix(p))


def test_check_dimension_limit(tmp_path):
    """``check`` decides the largest dimension it takes and refuses the next
    one within 2 s, before any work."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def check(n):
        path = tmp_path / f"poly{n}.json"
        path.write_text(dumps_sorted(algebra_to_dict(truncated_polynomials(n))))
        cmd = [sys.executable, "-m", "lsa.cli", "check", str(path)]
        return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)

    start = time.perf_counter()
    refused = check(CHECK_MAX_DIM + 1)
    assert time.perf_counter() - start < 2
    assert refused.returncode == 2 and f"dim <= {CHECK_MAX_DIM}" in refused.stderr
    decided = check(CHECK_MAX_DIM)
    assert decided.returncode == 0, decided.stderr
    assert decided.stdout == "left-symmetric: yes; complete: yes; N D S: yes yes yes\n"


def test_identify_out_of_scope(tmp_path, capsys):
    path = tmp_path / "abelian.json"
    path.write_text(json.dumps({"dim": 3, "products": []}))
    assert main(["identify", str(path)]) == 0
    assert "not_in_scope" in capsys.readouterr().out


@pytest.mark.parametrize("command, dim", [("lie", 2), ("lie", 4), ("ideals", 4), ("check", CHECK_MAX_DIM + 1)])
def test_unsupported_dimension_exit_2(tmp_path, capsys, command, dim):
    path = tmp_path / f"zero{dim}.json"
    path.write_text(json.dumps({"dim": dim, "products": []}))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_affine_sample(capsys):
    assert main(["affine-sample", "--family", "A30", "--at", "1,2,3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["elements"][0]["translation"][0] == 1.0


@pytest.mark.parametrize(
    "at", [["--at", "-1,2,3", "4,-5,6"], ["--at=-1,2,3", "--at=4,-5,6"], ["--at", "-1,2,3", "--at", "4,-5,6"]]
)
def test_affine_sample_negative_first_coordinate(capsys, at):
    assert main(["affine-sample", "--family", "A30", *at, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [e["abc"] for e in data["elements"]] == [[-1.0, 2.0, 3.0], [4.0, -5.0, 6.0]]


@pytest.mark.parametrize(
    "at",
    [
        ["--at", "-1,2"], ["--at=-1,x,3"], ["--at", "-x,2,3"],
        # parse as floats, but the map there is not finite
        ["--at=nan,0,0"], ["--at=inf,0,0"], ["--at=1000,0,0"],
        # a signed non-finite point is a point, and so is the one after it
        ["--at", "-inf,0,0"], ["--at", "-nan,0,0", "1,2,3"],
    ],
)
def test_affine_sample_bad_point_exit_2(capsys, at):
    # every case reaches the point check; none is an argparse usage error
    assert main(["affine-sample", "--family", "A30", *at]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert ("non-finite entry" in err) == any(s in "".join(at) for s in ("nan", "inf", "1000"))


def test_affine_sample_refuses_non_finite_point_under_python_O():
    # the check is not an assert, so -O keeps it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cmd = [sys.executable, "-O", "-m", "lsa.cli", "affine-sample", "--family", "A30", "--at=nan,0,0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_affine_sample_constraint(capsys):
    assert main(["affine-sample", "--family", "D31", "--params", "mu=1"]) == 2
    assert "constraint" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--seed", "--samples"])
@pytest.mark.parametrize(
    "command", ["check", "lie", "h2", "extend", "ideals", "identify", "affine-sample"]
)
def test_only_the_audits_take_sampling_options(n30_file, capsys, command, option):
    args = ["--family", "A30"] if command == "affine-sample" else [n30_file]
    with pytest.raises(SystemExit) as exc:
        main([command, *args, option, "3"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option} 3" in capsys.readouterr().err


def test_catalog_verify_exit_and_determinism(capsys):
    assert main(["catalog-verify", "--json", "--seed", "7", "--samples", "1"]) == 0
    first = capsys.readouterr().out
    assert main(["catalog-verify", "--json", "--seed", "7", "--samples", "1"]) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["ok"]


def test_catalog_verify_seed_changes_samples(capsys):
    main(["catalog-verify", "--json", "--seed", "1", "--samples", "1"])
    r1 = json.loads(capsys.readouterr().out)
    main(["catalog-verify", "--json", "--seed", "2", "--samples", "1"])
    r2 = json.loads(capsys.readouterr().out)
    s1 = r1["entries"]["C3t"]["samples"][1]["params"]
    s2 = r2["entries"]["C3t"]["samples"][1]["params"]
    assert s1 != s2  # seeded sampling actually varies


@pytest.mark.parametrize("samples", ["-3", "0"])
def test_affine_verify_refuses_samples_below_one(capsys, samples):
    assert main(["affine-verify", "--samples", samples, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "--samples" in captured.err
    assert captured.out == ""


def test_affine_verify_command(capsys):
    assert main(["affine-verify", "--seed", "3", "--samples", "5", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] and len(data["families"]) == 11
    assert data["notes"][0]["family"] == "D32-legacy"
    assert data["notes"][0]["max_closure_residual"] > 1e-3
