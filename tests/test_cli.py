import argparse
import ast
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ideal_inputs import degenerate_inputs, file_command_inputs
from lsa.algebra import Algebra, conjugated, right_mult
from lsa.catalog import case1_n2_central, case3_square_kernel, fixtures, make_lsa
from lsa import cli, jsonio
from lsa.cli import CHECK_MAX_DIM, MAX_DIM, main
from lsa.jsonio import (
    JsonFormatError,
    algebra_from_dict,
    algebra_to_dict,
    dumps_sorted,
    extension_from_dict,
    extension_to_dict,
)
from lsa.linalg import QMatrix, unit_vec


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


FILE_COMMANDS = ("check", "lie", "identify", "ideals", "h2", "extend")


@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_deeply_nested_json_exit_2(tmp_path, capsys, command):
    """The JSON decoder recurses once per nesting level; a file deeper than
    the interpreter's recursion limit is refused like any malformed file."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: JSON nested too deeply to parse\n"
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


@pytest.mark.parametrize("name, code, verdict", [
    ("N30", 0, "left-symmetric: yes; complete: yes"),
    ("D32", 0, "left-symmetric: yes; complete: yes"),
    ("idem", 1, "left-symmetric: yes; complete: no"),
    ("aff_R", 1, "left-symmetric: no (fails at basis triple (1, 2, 1)); complete: no"),
])
def test_check_reads_traces_of_left_symmetric_input_only(tmp_path, monkeypatch, capsys, name, code, verdict):
    """A left-symmetric input is complete iff its right traces vanish; an
    input that is not left-symmetric is not a complete left-symmetric
    algebra, and its traces are not read.  The input gets one triple table,
    which scans left symmetry and N/D/S once each, though ``is_complete``
    asks left symmetry again."""
    algebras = {**fixtures(), "idem": Algebra.from_entries(1, {(1, 1, 1): 1})}
    a = algebras[name] if name in algebras else make_lsa(name)
    path = tmp_path / "a.json"
    path.write_text(dumps_sorted(algebra_to_dict(a)))
    import lsa.algebra

    calls = []
    original = lsa.algebra._complete_by_traces

    def counting(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(lsa.algebra, "_complete_by_traces", counting)
    scans = []
    failures = lsa.algebra.TripleTable.failures

    def scanning(table, identity):
        scans.append((table, identity))
        return failures(table, identity)

    monkeypatch.setattr(lsa.algebra.TripleTable, "failures", scanning)
    assert main(["check", str(path)]) == code
    out = capsys.readouterr().out
    assert out.startswith(verdict + ";")
    assert len(calls) == out.startswith("left-symmetric: yes")
    assert len({table for table, _ in scans}) == 1
    assert sorted(identity for _, identity in scans) == ["D", "N", "S", "left_symmetric"]


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


# e1.e1 = e3, e2.e3 = e1, e3.e1 = -e3: the commutators [e1, e3] = e3 and
# [e2, e3] = e1 are antisymmetric but fail Jacobi at (e1, e2, e3)
NON_JACOBI = {"dim": 3, "products": [
    {"i": 1, "j": 1, "k": 3, "num": 1},
    {"i": 2, "j": 3, "k": 1, "num": 1},
    {"i": 3, "j": 1, "k": 3, "num": -1},
]}


def test_lie_names_the_triple_where_the_commutator_fails_jacobi(tmp_path, capsys):
    path = tmp_path / "non_jacobi.json"
    path.write_text(json.dumps(NON_JACOBI))
    assert main(["lie", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "basis triple (1, 2, 3)" in captured.err
    # not left-symmetric, so identify reads the products as brackets, and
    # names the first pair where they are not antisymmetric
    assert main(["identify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "basis pair (1, 1)" in captured.err


def test_repeated_products_sum():
    a = algebra_from_dict({"dim": 2, "products": [
        {"i": 1, "j": 2, "k": 2, "num": 1},
        {"i": 2, "j": 1, "k": 1, "num": 1, "den": 3},
        {"i": 1, "j": 2, "k": 2, "num": 1, "den": 2},
        {"i": 2, "j": 1, "k": 1, "num": -1, "den": 3},
    ]})
    assert a.entry(1, 2, 2) == Fraction(3, 2)
    assert a.entry(2, 1, 1) == 0
    assert a.nonzero_products() == [(1, 2, 2, Fraction(3, 2))]


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


def truncated_polynomials(n: int, extra=None) -> Algebra:
    """x R[x] / x^(n+1) R[x] in a random unitriangular basis: commutative,
    associative (hence left-symmetric) and nilpotent (hence complete), with
    e_i*e_j in span(e_k : k >= i + j) and every such coefficient filled.
    ``extra`` adds products {(i, j, k): coefficient} before the change of
    basis; with k > max(i, j) every R_x stays nilpotent."""
    entries = {(i, j, i + j): 1 for i in range(1, n) for j in range(1, n - i + 1)}
    a = Algebra.from_entries(n, {**entries, **(extra or {})})
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


def test_check_refuses_completeness_off_left_symmetry_at_the_largest_dimension(tmp_path, capsys):
    """Completeness is defined for left-symmetric algebras only: an input
    that is not left-symmetric is reported not complete, even where every
    R_x is nilpotent."""
    a = truncated_polynomials(CHECK_MAX_DIM, {(1, 2, 4): 1})
    path = tmp_path / "poly8.json"
    # e1*e2 = e3 + e4 but e2*e1 = e3: every R_x nilpotent, not left-symmetric
    path.write_text(dumps_sorted(algebra_to_dict(a)))
    assert all(right_mult(a, unit_vec(a.dim, i)).trace() == 0 for i in range(a.dim))
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("left-symmetric: no (fails at basis triple ") and "; complete: no;" in out
    assert main(["check", str(path), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["left_symmetric"] is False and report["complete"] is False


@pytest.mark.parametrize("command", sorted(MAX_DIM))
def test_oversized_dimension_is_refused_before_any_work(tmp_path, command):
    """A declared dim of 160 is refused from the file's header: no dim^3
    tensor and no identity scan."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    path = tmp_path / "dim160.json"
    path.write_text(json.dumps({"dim": 160, "products": [{"i": 1, "j": 2, "k": 3, "num": 1}]}))
    start = time.perf_counter()
    cmd = [sys.executable, "-m", "lsa.cli", command, str(path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=30)
    assert time.perf_counter() - start < 5
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: {command} handles dim <= {MAX_DIM[command]} only, got dim 160\n"


@pytest.mark.parametrize("command", sorted(MAX_DIM))
def test_huge_declared_dimension_never_reaches_the_tensor(tmp_path, monkeypatch, capsys, command):
    def build(data):
        raise AssertionError("the structure tensor was built")

    monkeypatch.setattr(cli, "algebra_from_dict", build)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dim": 10**6, "products": [{"i": 1, "j": 1, "k": 1, "num": 1}]}))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {command} handles dim <= {MAX_DIM[command]} only, got dim 1000000\n"
    assert captured.out == ""


def _zero_extension(k_dim: int, v_dim: int = 1) -> dict:
    """Extension data over the zero products on K and V, with zero actions."""
    zero = [[[0, 1]] * v_dim] * v_dim
    return {
        "K": {"dim": k_dim, "products": []},
        "V": {"dim": v_dim, "products": []},
        "lambda": [zero] * k_dim,
        "rho": [zero] * k_dim,
        "g": [[[0] * v_dim] * k_dim] * k_dim,
    }


@pytest.mark.parametrize("command", ["h2", "extend"])
def test_huge_declared_extension_never_reaches_the_tensor(tmp_path, monkeypatch, capsys, command):
    def build(data):
        raise AssertionError("a structure tensor was built")

    monkeypatch.setattr(jsonio, "algebra_from_dict", build)
    path = tmp_path / "huge.json"
    data = _zero_extension(1)
    data["K"]["dim"] = 10**6
    path.write_text(json.dumps(data))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {command} handles dim K + dim V <= {CHECK_MAX_DIM} only, got 1000001\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["h2", "extend"])
def test_negative_declared_dimension_cannot_offset_the_guard(tmp_path, monkeypatch, capsys, command):
    """A negative declared dim counts as 0, so K = R^12 with V of dim -10
    is refused before any structure tensor is built."""
    built = []
    from_entries = Algebra.from_entries.__func__

    def spy(cls, *args, **kwargs):
        built.append(args)
        return from_entries(cls, *args, **kwargs)

    monkeypatch.setattr(Algebra, "from_entries", classmethod(spy))
    data = _zero_extension(12)
    data["V"]["dim"] = -10
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(data))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {command} handles dim K + dim V <= {CHECK_MAX_DIM} only, got 12\n"
    assert captured.out == "" and built == []


def test_h2_dimension_limit(tmp_path):
    """``h2`` refuses K = R^12 with V = R (28 s of work without the bound,
    2-vCPU host) within 5 s, and still takes dim K + dim V = CHECK_MAX_DIM."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    path = tmp_path / "k12.json"
    path.write_text(json.dumps(_zero_extension(12)))
    start = time.perf_counter()
    cmd = [sys.executable, "-m", "lsa.cli", "h2", str(path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=60)
    assert time.perf_counter() - start < 5
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: h2 handles dim K + dim V <= {CHECK_MAX_DIM} only, got 13\n"
    path.write_text(json.dumps(_zero_extension(CHECK_MAX_DIM - 1)))
    assert main(["h2", str(path), "--json"]) == 0


def test_directory_path_exit_2(tmp_path, capsys):
    assert main(["check", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory")


def test_extend_out_directory_exit_2(tmp_path, ext_file, capsys):
    assert main(["extend", ext_file, "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: [Errno 21] Is a directory") and captured.out == ""


def test_exact_commands_do_not_import_numpy(n30_file):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys\n"
        "from lsa import cli\n"
        "assert cli.main(['catalog-verify']) == 0\n"
        f"assert cli.main(['check', {n30_file!r}]) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _importers(package_name: str) -> set[str]:
    """The modules of ``lsa`` that import ``package_name`` anywhere."""
    package = Path(__file__).resolve().parents[1] / "src" / "lsa"
    importers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == package_name for m in modules):
                importers.add(path.name)
    return importers


def test_only_the_affine_layer_imports_numpy():
    assert _importers("numpy") == {"affine.py"}


def test_no_module_imports_sympy():
    """sympy checks the affine formulas in the tests only; numpy stays the
    one runtime dependency."""
    assert _importers("sympy") == set()


def test_family_choices_are_the_affine_families_in_order():
    from lsa import affine

    assert cli.FAMILY_NAMES == affine.FAMILY_NAMES


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


@pytest.mark.parametrize(
    "at, message",
    [
        ("1,2", "error: --at expects 'a,b,c', got '1,2'\n"),
        ("nan,0,0", "error: A30 at nan,0.0,0.0: affine map has a non-finite entry\n"),
    ],
)
def test_affine_sample_point_errors_go_through_main(capsys, at, message):
    """Both point errors are raised as ``ValueError`` and printed by
    ``main``, once, like every other input error."""
    assert main(["affine-sample", "--family", "A30", f"--at={at}"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message)


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


@pytest.mark.parametrize("family, param", [("E3", "zeta=1e400"), ("C3t", "t=1e400")])
def test_affine_sample_parameter_past_float_range_exit_2(capsys, family, param):
    """An admissible exact parameter too large for a float is an input error."""
    assert main(["affine-sample", "--family", family, "--params", param]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: family {family}:") and "Traceback" not in captured.err
    assert captured.out == ""


def test_affine_sample_refuses_a_repeated_parameter(capsys):
    assert main(["affine-sample", "--family", "D31", "--params", "mu=1/2", "mu=1/3"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "'mu'" in captured.err
    assert captured.out == ""


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


@pytest.mark.parametrize("seed, digest", [(7, "c0478e59d6a6"), (0, "f434590588a3")])
def test_catalog_verify_json_bytes_are_pinned(capsys, seed, digest):
    """The catalog audit is exact arithmetic, so its report's bytes are the
    same on every host."""
    assert main(["catalog-verify", "--json", "--seed", str(seed)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:12] == digest


IDEALS_JSON_DIGEST = "5ce2ae82a577"


def test_ideals_json_bytes_are_pinned(tmp_path, capsys):
    """``lsa ideals --json`` on seeded random-basis inputs: which ideals are
    found, their order and their echelon bases are exact, so the
    concatenated output's bytes are the same on every host."""
    outputs = []
    for pos, a in enumerate(file_command_inputs(seed=14, rounds=2) + degenerate_inputs(seed=14)):
        path = tmp_path / f"a{pos}.json"
        path.write_text(json.dumps(algebra_to_dict(a)))
        assert main(["ideals", str(path), "--json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert hashlib.sha256("".join(outputs).encode()).hexdigest()[:12] == IDEALS_JSON_DIGEST


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


def test_catalog_verify_refuses_negative_samples(capsys):
    assert main(["catalog-verify", "--samples", "-1", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "--samples" in captured.err
    assert captured.out == ""


def test_affine_verify_command(capsys):
    assert main(["affine-verify", "--seed", "3", "--samples", "5", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] and len(data["families"]) == 11
    assert data["notes"][0]["family"] == "D32-legacy"
    assert data["notes"][0]["max_closure_residual"] > 1e-3


@pytest.mark.parametrize("seed", ["0", "7", "13"])
def test_affine_verify_bytes_equal_the_one_at_a_time_checks(seed, monkeypatch, capsys):
    """The stacked family checks print the bytes of their one-at-a-time
    oracles, run family by family in the same rng order; the legacy D32
    note's closure check too.  The digests are pinned below."""
    from lsa import affine

    from affine_reference import check_closure_reference, verify_family_reference

    assert main(["affine-verify", "--json", "--seed", seed]) == 0
    batched = capsys.readouterr().out
    families = []

    def reference(fams, algebras, rng, closure_samples=50):
        reports = []
        for fam, algebra in zip(fams, algebras, strict=True):
            families.append(fam.name)
            reports.append(verify_family_reference(fam, algebra, rng, closure_samples))
        return reports

    monkeypatch.setattr(affine, "verify_families", reference)
    monkeypatch.setattr(affine, "check_closure", check_closure_reference)
    assert main(["affine-verify", "--json", "--seed", seed]) == 0
    assert capsys.readouterr().out == batched
    assert len(families) == 11 and families == list(affine.FAMILY_NAMES)


@pytest.mark.parametrize(
    "runs, digest",
    [
        ([["--json", "--seed", str(seed)] for seed in range(40)], "5dd67363d357"),
        ([["--seed", "7"]], "067c863c6127"),
        ([["--json", "--seed", "7"]], "4a367e8a8910"),
        ([["--json", "--seed", "7", "--samples", "1"]], "53915dbaac11"),
        ([["--json", "--seed", "7", "--samples", "7"]], "4650e17c62cf"),
    ],
    ids=["json-seeds-0-39", "text-seed-7", "json-seed-7", "json-seed-7-samples-1", "json-seed-7-samples-7"],
)
def test_affine_verify_bytes_are_pinned(capsys, runs, digest):
    """The first 12 hex digits of the SHA-256 of ``affine-verify`` stdout,
    concatenated over the runs.  The report is floating point, so these
    bytes are those of one numpy, libm and BLAS (numpy 2.4.6 with OpenBLAS
    0.3.31 on x86-64); where another toolchain moves them, the
    one-at-a-time test above tells whether the code did too."""
    outputs = []
    for argv in runs:
        assert main(["affine-verify", *argv]) == 0
        outputs.append(capsys.readouterr().out)
    assert hashlib.sha256("".join(outputs).encode()).hexdigest()[:12] == digest


def test_main_builds_the_parser_once(n30_file, monkeypatch, capsys):
    cli.build_parser.cache_clear()
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["check", n30_file]) == 0
    built = list(progs)
    assert built.count("lsa") == 1 and "lsa check" in built
    for argv in (["check", n30_file], ["lie", n30_file], ["affine-sample", "--family", "A30"]):
        assert main(argv) == 0
    assert progs == built


def test_main_runs_the_command_bound_at_call_time(n30_file, monkeypatch, capsys):
    assert main(["check", n30_file]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_check", lambda args: seen.append(args.file) or 7)
    assert main(["check", n30_file]) == 7
    assert seen == [n30_file]
    assert capsys.readouterr().out.count("left-symmetric") == 1


def test_reused_parser_keeps_no_values_between_calls(capsys):
    def elements(*argv):
        assert main(["affine-sample", *argv, "--json"]) == 0
        return json.loads(capsys.readouterr().out)["elements"]

    at = elements("--family", "A30", "--at=1,2,3")
    assert [e["abc"] for e in at] == [[1.0, 2.0, 3.0]]
    assert elements("--family", "A30", "--at=1,2,3") == at
    assert [e["abc"] for e in elements("--family", "A30")] == [[0.5, 0.5, 0.5]]
    half = elements("--family", "D31", "--params", "mu=1/2")
    assert elements("--family", "D31", "--params", "mu=1/2") == half
    assert elements("--family", "D31", "--params", "mu=1/3") != half
    assert main(["affine-sample", "--family", "D31"]) == 2  # no mu is left over
    assert "exactly parameter 'mu'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["bogus"], ["affine-sample"]])
def test_usage_errors_repeat_on_the_reused_parser(capsys, argv):
    cli.build_parser.cache_clear()
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("usage: lsa")
