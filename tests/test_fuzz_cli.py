"""Fuzzing the extension file commands: random small extension data through
``lsa.cli.main`` in-process must end in exit 0, 1 or 2, never an exception."""
import contextlib
import io
import json
import os
import tempfile

import pytest

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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


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
