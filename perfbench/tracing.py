"""Span tracing of ``lsa`` from outside the package, and the per-layer metrics.

``install`` wraps public functions of the package's modules (its layers) and
rebinds every module namespace that holds the function, so calls made
through a name imported with ``from .x import f`` are traced too.  Spans
(name, start, end, parent span, operation) are kept in flat arrays and
written out at the end of the run; a few hot functions are only counted.
Nothing is recorded outside an operation, so the benchmark's own input
generation and output checks do not show up.

Each per-layer metric below names the end-to-end metric it should move.
One client runs one operation at a time with no queue, so no layer has wait
time to report.
"""
from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict

import numpy as np

from lsa import affine, algebra, catalog, cli, extensions, jsonio, linalg
import lsa

MODULES = (lsa, linalg, algebra, extensions, catalog, affine, jsonio, cli)

CLI_COMMANDS = (
    "check", "lie", "h2", "extend", "ideals", "identify",
    "catalog_verify", "affine_verify", "affine_sample",
)

# Timed spans: (module, attribute) -> span name.  Class methods use "Class.method".
SPANS = {
    (linalg, "char_poly"): "linalg.char_poly",
    (linalg, "rref"): "linalg.rref",
    (linalg, "QMatrix.__matmul__"): "linalg.QMatrix.matmul",
    (algebra, "is_complete"): "algebra.is_complete",
    (algebra, "find_ideals_dim_le3"): "algebra.find_ideals_dim_le3",
    (algebra, "check_left_symmetric"): "algebra.check_left_symmetric",
    (algebra, "ndsflags"): "algebra.ndsflags",
    (algebra, "flag_witnesses"): "algebra.flag_witnesses",
    (algebra, "identify_lie_algebra"): "algebra.identify_lie_algebra",
    (catalog, "fingerprint"): "catalog.fingerprint",
    (catalog, "verify_entry"): "catalog.verify_entry",
    (catalog, "verify_catalog"): "catalog.verify_catalog",
    (extensions, "check_kim_conditions"): "extensions.check_kim_conditions",
    (extensions, "build_extension"): "extensions.build_extension",
    (extensions, "verify_iso_witness"): "extensions.verify_iso_witness",
    (extensions, "h2"): "extensions.h2",
    (affine, "check_closure"): "affine.check_closure",
    (affine, "check_simply_transitive"): "affine.check_simply_transitive",
    (affine, "check_tangent_algebra"): "affine.check_tangent_algebra",
    (affine, "affine_rep"): "affine.affine_rep",
    (affine, "newton_invert_orbit"): "affine.newton_invert_orbit",
    (affine, "AffineMap3.__post_init__"): "affine.AffineMap3.init",
    (jsonio, "load_json_file"): "jsonio.load_json_file",
    (jsonio, "algebra_from_dict"): "jsonio.algebra_from_dict",
    (jsonio, "extension_from_dict"): "jsonio.extension_from_dict",
    (jsonio, "dumps_sorted"): "jsonio.dumps_sorted",
    **{(cli, f"cmd_{c}"): f"cli.cmd_{c}" for c in CLI_COMMANDS},
}

# Counted only: called too often for a span each.
COUNTS = {
    (linalg, "QMatrix.__init__"): "linalg.QMatrix.init.calls",
    (linalg, "rational_roots"): "linalg.rational_roots.calls",
    (algebra, "multiply"): "algebra.multiply.calls",
}

COUNTED = {*COUNTS.values(), "affine.family_element.calls"}

OP_SPAN = "bench.op"


def _metric(name, unit, better, moves):
    return {"name": name, "unit": unit, "better": better, "moves": moves}


_CATALOG_P90 = "catalog_audit.ops_per_s, file_commands.op_p90_ms; no change on affine_audit"
_KERNELS = "catalog_audit.ops_per_s, file_commands.op_p50_ms"
_CATALOG = "catalog_audit.ops_per_s"
_EXT = "file_commands.op_p50_ms (h2, extend); small share of catalog_audit"
_AFFINE = "affine_audit.ops_per_s, affine_audit.op_p50_ms; no change on catalog_audit"
_FILES = "file_commands only"

LAYER_METRICS = [
    _metric("linalg.char_poly.calls", "count", "lower", _CATALOG_P90),
    _metric("linalg.char_poly.self_s", "s", "lower", _CATALOG_P90),
    _metric("algebra.is_complete.calls", "count", "lower", _CATALOG_P90),
    _metric("algebra.is_complete.total_s", "s", "lower", _CATALOG_P90),
    _metric("algebra.is_complete.self_s", "s", "lower", _CATALOG_P90),
    _metric("algebra.is_complete.char_poly_per_call", "count", "lower", _CATALOG_P90),
    _metric("linalg.QMatrix.init.calls", "count", "lower", _KERNELS),
    _metric("linalg.QMatrix.matmul.calls", "count", "lower", _KERNELS),
    _metric("linalg.QMatrix.matmul.self_s", "s", "lower", _KERNELS),
    _metric("linalg.rref.calls", "count", "lower", _KERNELS),
    _metric("linalg.rref.self_s", "s", "lower", _KERNELS),
    _metric("linalg.rational_roots.calls", "count", "lower", _KERNELS),
    _metric("algebra.find_ideals_dim_le3.calls", "count", "lower", _KERNELS),
    _metric("algebra.find_ideals_dim_le3.total_s", "s", "lower", _KERNELS),
    _metric("catalog.fingerprint.calls", "count", "lower", _KERNELS),
    _metric("catalog.fingerprint.total_s", "s", "lower", _KERNELS),
    _metric("algebra.check_left_symmetric.total_s", "s", "lower", _CATALOG),
    _metric("algebra.ndsflags.total_s", "s", "lower", _CATALOG),
    _metric("algebra.flag_witnesses.total_s", "s", "lower", _CATALOG),
    _metric("algebra.identify_lie_algebra.total_s", "s", "lower", _CATALOG),
    _metric("algebra.multiply.calls", "count", "lower", _CATALOG),
    _metric("catalog.verify_entry.total_s", "s", "lower", _CATALOG),
    _metric("extensions.check_kim_conditions.total_s", "s", "lower", _EXT),
    _metric("extensions.build_extension.total_s", "s", "lower", _EXT),
    _metric("extensions.verify_iso_witness.total_s", "s", "lower", _EXT),
    _metric("extensions.h2.total_s", "s", "lower", _EXT),
    _metric("catalog.reconstructions.total_s", "s", "lower", _EXT),
    _metric("affine.check_closure.total_s", "s", "lower", _AFFINE),
    _metric("affine.check_simply_transitive.total_s", "s", "lower", _AFFINE),
    _metric("affine.check_tangent_algebra.total_s", "s", "lower", _AFFINE),
    _metric("affine.affine_rep.total_s", "s", "lower", _AFFINE),
    _metric("affine.check_closure.fallback_ratio", "ratio", "lower", _AFFINE),
    _metric("affine.family_element.calls", "count", "lower", _AFFINE),
    _metric("affine.AffineMap3.init.calls", "count", "lower", _AFFINE),
    _metric("affine.AffineMap3.init.self_s", "s", "lower", _AFFINE),
    _metric("affine.newton_invert_orbit.calls", "count", "lower", _AFFINE),
    _metric("affine.newton_invert_orbit.orbit_evals_per_call", "count", "lower", _AFFINE),
    _metric("jsonio.load_json_file.total_s", "s", "lower", _FILES),
    _metric("jsonio.algebra_from_dict.total_s", "s", "lower", _FILES),
    _metric("jsonio.extension_from_dict.total_s", "s", "lower", _FILES),
    _metric("jsonio.dumps_sorted.total_s", "s", "lower", _FILES),
    *(
        _metric(f"cli.cmd_{c}.{field}", unit, "lower", _FILES)
        for c in CLI_COMMANDS
        for field, unit in (("calls", "count"), ("total_s", "s"))
    ),
    _metric("trace.spans", "count", "lower", "tracing cost"),
    _metric("trace.untraced_ops_per_s", "1/s", "higher", "same ops as the traced pass, tracing off"),
    _metric("trace.traced_ops_per_s", "1/s", "higher", "same ops, tracing on"),
    _metric("trace.overhead_ratio", "ratio", "lower", "untraced_ops_per_s / traced_ops_per_s"),
]


class Tracer:
    """In-memory span store; one instance per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.nested = array("b")  # an enclosing span has the same name
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.depth: list[int] = []
        self.op_id = -1
        self.active = False
        self.counts: dict[str, int] = defaultdict(int)
        self._op_name = self.name_id(OP_SPAN)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.depth.append(0)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.nested.append(self.depth[nid] > 0)
        self.end.append(0.0)
        self.depth[nid] += 1
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, nid: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()
        self.depth[nid] -= 1

    def begin_op(self) -> None:
        self.op_id += 1
        self._op_idx = self._open(self._op_name)
        self.active = True

    def end_op(self) -> None:
        self.active = False
        self._close(self._op_idx, self._op_name)

    def top_is(self, nid: int) -> bool:
        return self.stack[-1] >= 0 and self.name[self.stack[-1]] == nid

    def span(self, name: str, fn, on_return=None):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, nid)
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def counter(self, key: str, fn, when=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active and (when is None or when()):
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "nested": np.frombuffer(self.nested, dtype=np.int8).astype(bool),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _resolve(module, attr: str):
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(module, cls_name), meth
    return module, attr


def install(tr: Tracer):
    """Wrap the traced functions; returns a callable that undoes every patch."""
    patches: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, wrapper) -> None:
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def rebind(module, attr: str, make_wrapper) -> None:
        owner, name = _resolve(module, attr)
        original = getattr(owner, name)
        wrapper = make_wrapper(original)
        if owner is not module:  # a method: patch the class once
            patch(owner, name, wrapper)
            return
        for mod in MODULES:
            for key, val in list(vars(mod).items()):
                if val is original:
                    patch(mod, key, wrapper)

    def closure_report(rep) -> None:
        tr.counts["affine.check_closure.samples"] += rep.samples
        tr.counts["affine.check_closure.fallbacks"] += rep.newton_fallbacks

    hooks = {"affine.check_closure": closure_report}
    for (module, attr), name in SPANS.items():
        rebind(module, attr, lambda fn, name=name: tr.span(name, fn, hooks.get(name)))
    for (module, attr), key in COUNTS.items():
        rebind(module, attr, lambda fn, key=key: tr.counter(key, fn))

    newton = tr.name_id("affine.newton_invert_orbit")
    rebind(affine, "orbit_map", lambda fn: tr.counter("affine.orbit_map.in_newton", fn, lambda: tr.top_is(newton)))

    def count_elements(make_family):
        @functools.wraps(make_family)
        def wrapper(*args, **kwargs):
            fam = make_family(*args, **kwargs)
            fam.element = tr.counter("affine.family_element.calls", fam.element)
            return fam

        return wrapper

    rebind(affine, "build_family", count_elements)
    rebind(affine, "legacy_d32_family", count_elements)

    def restore() -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return restore


def layer_metrics(tr: Tracer, track, op_scale) -> dict[str, float]:
    """Per-layer values from the spans and counters of one traced pass.

    Span durations exclude the speed kernel's runs inside them and are
    scaled by their operation's speed factor (see ``speed.py``).
    """
    a = tr.arrays()
    name, parent, nested = a["name"], a["parent"], a["nested"]
    dur = (a["end"] - a["start"] - track.kernel_inside(a["start"], a["end"])) * np.asarray(op_scale)[a["op"]]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child

    def ids(span_name: str) -> int:
        return tr._ids.get(span_name, -1)

    def calls(span_name: str) -> int:
        return int(np.count_nonzero(name == ids(span_name)))

    def total(span_name: str) -> float:
        return float(dur[(name == ids(span_name)) & ~nested].sum())

    def self_s(span_name: str) -> float:
        return float(self_time[name == ids(span_name)].sum())

    def under(span_name: str) -> np.ndarray:
        """Spans with an ancestor (or self) of the given name."""
        flag = name == ids(span_name)
        anc = parent.copy()
        while True:
            live = anc >= 0
            if not live.any():
                return flag
            flag = flag | np.where(live, name[np.maximum(anc, 0)] == ids(span_name), False)
            anc = np.where(live, parent[np.maximum(anc, 0)], -1)

    def per(n: float, d: float) -> float:
        return n / d if d else 0.0

    out: dict[str, float] = {}
    for spec in LAYER_METRICS:
        key = spec["name"]
        if key.startswith("trace."):
            continue
        base, _, field = key.rpartition(".")
        if key in COUNTED:
            out[key] = tr.counts.get(key, 0)
        elif field == "calls":
            out[key] = calls(base)
        elif field == "total_s":
            out[key] = total(base)
        elif field == "self_s":
            out[key] = self_s(base)
    cp = ids("linalg.char_poly")
    out["algebra.is_complete.char_poly_per_call"] = per(
        int(np.count_nonzero((name == cp) & under("algebra.is_complete"))), calls("algebra.is_complete")
    )
    vc = ids("catalog.verify_catalog")
    ext_ids = [ids(n) for n in SPANS.values() if n.startswith("extensions.")]
    from_vc = np.isin(name, ext_ids) & has_parent & (name[np.maximum(parent, 0)] == vc)
    out["catalog.reconstructions.total_s"] = float(dur[from_vc].sum())
    out["affine.check_closure.fallback_ratio"] = per(
        tr.counts.get("affine.check_closure.fallbacks", 0), tr.counts.get("affine.check_closure.samples", 0)
    )
    out["affine.newton_invert_orbit.orbit_evals_per_call"] = per(
        tr.counts.get("affine.orbit_map.in_newton", 0), calls("affine.newton_invert_orbit")
    )
    out["trace.spans"] = len(dur)
    return out
