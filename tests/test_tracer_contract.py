"""The benchmark's tracer wraps named functions of ``lsa``; a change that
deletes or renames one of them breaks the benchmark.  Installing the tracer
must find every name, and restoring it must put every original back."""
import importlib.util
import json
from collections import Counter
from pathlib import Path

from lsa.catalog import case1_n2_central, make_lsa
from lsa.jsonio import algebra_to_dict, extension_to_dict

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(tracing):
    """Every attribute of every traced module and class, by identity."""
    owners = [*tracing.MODULES, tracing.linalg.QMatrix, tracing.affine.AffineMap3]
    return {(id(owner), key): val for owner in owners for key, val in list(vars(owner).items())}


def test_tracer_installs_and_restores():
    tracing = load_tracing()
    before = bindings(tracing)
    restore = tracing.install(tracing.Tracer())
    try:
        for module, attr in [*tracing.SPANS, *tracing.COUNTS]:
            owner, name = tracing._resolve(module, attr)
            assert hasattr(getattr(owner, name), "__wrapped__"), attr
    finally:
        restore()
    after = bindings(tracing)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracer_counts_a_command_after_an_untraced_call(tmp_path, capsys):
    """The benchmark runs every operation untraced before it installs the
    tracer; a command run after that must still go through the wrapper."""
    path = tmp_path / "n30.json"
    path.write_text(json.dumps(algebra_to_dict(make_lsa("N30"))))
    tracing = load_tracing()
    assert tracing.cli.main(["check", str(path)]) == 0
    tr = tracing.Tracer()
    restore = tracing.install(tr)
    try:
        tr.begin_op()
        assert tracing.cli.main(["check", str(path)]) == 0
        tr.end_op()
    finally:
        restore()
    names = [tr.names[nid] for nid in tr.arrays()["name"]]
    assert names.count("cli.cmd_check") == 1


def test_the_audit_and_check_reach_the_traced_names(tmp_path, capsys):
    """The catalog audit and ``check`` ask the public names the tracer
    wraps, so the per-layer metrics see their work: a check that calls a
    private twin instead goes blind here, not only in a benchmark file."""
    path = tmp_path / "n30.json"
    path.write_text(json.dumps(algebra_to_dict(make_lsa("N30"))))
    tracing = load_tracing()
    tr = tracing.Tracer()
    restore = tracing.install(tr)
    try:
        tr.begin_op()
        assert tracing.catalog.verify_catalog(11, 5)["ok"]
        tr.end_op()
        tr.begin_op()
        assert tracing.cli.main(["check", str(path)]) == 0
        tr.end_op()
    finally:
        restore()
    spans = tr.arrays()
    audit, check = (
        Counter(tr.names[nid] for nid, op in zip(spans["name"], spans["op"]) if op == k) for k in (0, 1)
    )
    assert audit["catalog.verify_entry"] == 11
    assert audit["catalog.fingerprint"] == 12
    assert audit["algebra.find_ideals_dim_le3"] == 28
    assert audit["algebra.is_complete"] >= 27
    assert audit["algebra.check_left_symmetric"] > 0
    assert check["cli.cmd_check"] == 1
    assert check["algebra.is_complete"] == check["algebra.check_left_symmetric"] - 1 == 1


def test_h2_and_extend_reach_the_traced_names(tmp_path, capsys):
    """One ``h2`` and one ``extend`` request record the ``extensions.h2``
    and ``extensions.build_extension`` spans, so the benchmark's metrics of
    those names keep seeing the requests' work."""
    path = tmp_path / "ext.json"
    path.write_text(json.dumps(extension_to_dict(case1_n2_central(3).data)))
    tracing = load_tracing()
    tr = tracing.Tracer()
    restore = tracing.install(tr)
    try:
        for command in ("h2", "extend"):
            tr.begin_op()
            assert tracing.cli.main([command, str(path), "--json"]) == 0
            tr.end_op()
    finally:
        restore()
    spans = tr.arrays()
    h2_op, extend_op = (
        Counter(tr.names[nid] for nid, op in zip(spans["name"], spans["op"]) if op == k) for k in (0, 1)
    )
    assert h2_op["cli.cmd_h2"] == h2_op["extensions.h2"] == 1
    assert extend_op["cli.cmd_extend"] == extend_op["extensions.build_extension"] == 1
