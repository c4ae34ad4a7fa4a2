"""Fuzzing the CLI: random small algebras and extension data through the
file commands, and random families, parameters and points through
``affine-sample``, run by ``lsa.cli.main`` in-process.  Each call must end
in exit 0, 1 or 2, never an exception, and print nothing on stderr unless
it refuses its input."""
import contextlib
import io
import json
import os
import tempfile
import warnings

import pytest

from lsa.affine import FAMILY_NAMES
from lsa.algebra import check_left_symmetric
from lsa.cli import main
from lsa.jsonio import algebra_from_dict

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

SETTINGS = settings(max_examples=200, deadline=None, database=None, derandomize=True)

COEFF = st.integers(-2, 2)


def products(n):
    idx = st.integers(1, n)
    return st.dictionaries(st.tuples(idx, idx, idx), COEFF, max_size=4).map(
        lambda entries: [{"i": i, "j": j, "k": k, "num": c} for (i, j, k), c in entries.items()]
    )


def array(*shape):
    """Nested lists of integers of the given shape, all zero half the time:
    zero blocks are what let the other blocks' defects through."""
    dense, zero = COEFF, 0
    for n in reversed(shape):
        dense, zero = st.lists(dense, min_size=n, max_size=n), [zero] * n
    return st.one_of(st.just(zero), dense)


@st.composite
def extension_json(draw):
    """K and V of dimension 1-2 with small integer products, and random
    lambda, rho and g."""
    kd, vd = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    return {
        "K": {"dim": kd, "products": draw(products(kd))},
        "V": {"dim": vd, "products": draw(products(vd))},
        "lambda": draw(array(kd, vd, vd)),
        "rho": draw(array(kd, vd, vd)),
        "g": draw(array(kd, kd, vd)),
    }


def run_cli(argv):
    """Exit code, stdout and stderr; warnings count as stderr, where the
    command line prints them."""
    out, err = io.StringIO(), io.StringIO()
    with (
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
        warnings.catch_warnings(record=True) as caught,
    ):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as stop:  # argparse ends a usage error this way
            code = stop.code
    return code, out.getvalue(), err.getvalue() + "".join(f"{w.message}\n" for w in caught)


@SETTINGS
@given(extension_json())
def test_extension_commands_exit_cleanly(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ext.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        for command in ("extend", "h2"):
            code, out, err = run_cli([command, path, "--json"])
            assert code in (0, 1, 2), (command, code)
            assert (code == 0) == (err == ""), (command, err)
            if command == "extend" and code == 0:
                assert check_left_symmetric(algebra_from_dict(json.loads(out))).ok


@SETTINGS
@given(st.integers(1, 4).flatmap(lambda n: st.fixed_dictionaries({"dim": st.just(n), "products": products(n)})))
def test_algebra_commands_exit_cleanly(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "algebra.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        for command in ("check", "lie", "identify", "ideals"):
            code, out, err = run_cli([command, path, "--json"])
            assert code in (0, 1, 2), (command, code)
            assert code == 2 or (err == "" and json.loads(out)), (command, err)
            if command == "check" and code != 2:
                # completeness is defined for left-symmetric algebras only
                report = json.loads(out)
                assert report["left_symmetric"] or not report["complete"], report
                assert (code == 0) == (report["left_symmetric"] and report["complete"]), (code, report)


# files no command can read: truncated or deeply nested JSON, non-JSON text,
# well-formed JSON of the wrong shape, and bytes that are not UTF-8
MALFORMED = st.one_of(
    st.sampled_from(["", "{oops", "[" * 100_000, "{\"dim\": " * 50_000, "[]", "null", "\"x\"", "3"]),
    st.integers(1, 5000).map(lambda depth: "[" * depth + "]" * depth),
    st.text(max_size=20),
    st.binary(max_size=20).map(lambda raw: raw.decode("latin-1")),
)


@SETTINGS
@given(MALFORMED, st.sampled_from(["check", "lie", "identify", "ideals", "h2", "extend"]))
def test_malformed_files_exit_2(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bad.json")
        with open(path, "w", encoding="latin-1", errors="replace") as fh:
            fh.write(text)
        code, out, err = run_cli([command, path, "--json"])
        if code != 2:  # a random text can happen to be a valid algebra
            assert code in (0, 1) and err == "", (command, code, err)
            return
        assert err.startswith("error:") and out == "", (command, err)


# finite points, points whose maps overflow, and non-finite tokens
COORD = st.one_of(
    st.floats(-3, 3, allow_nan=False).map(repr),
    st.floats(-1e3, 1e3, allow_nan=False).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "x"]),
)
PARAM = st.sampled_from(["t", "mu", "zeta", "s"]).flatmap(
    lambda name: st.sampled_from(["2", "1", "1/2", "-1/3", "0", "-5", "3/0"]).map(lambda v: f"{name}={v}")
)


@SETTINGS
@given(
    st.sampled_from(FAMILY_NAMES),
    st.lists(PARAM, max_size=2),
    st.lists(st.lists(COORD, min_size=3, max_size=3).map(",".join), max_size=3),
)
def test_affine_sample_exits_cleanly(family, params, points):
    argv = ["affine-sample", "--family", family, "--json"]
    if params:
        argv += ["--params", *params]
    if points:
        argv += ["--at", *points]
    code, out, err = run_cli(argv)
    assert code in (0, 2), code
    assert (code == 0) == (err == ""), err
    if code == 0:
        assert len(json.loads(out)["elements"]) == max(len(points), 1)
