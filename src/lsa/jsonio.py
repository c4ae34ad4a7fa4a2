"""JSON interchange for algebras and extension data.

Indices are 1-based throughout (matching the e1, e2, e3 conventions of the
reports); omitted products are zero.  Rationals travel as {"num", "den"}
objects in algebra files and as [num, den] pairs inside matrices/vectors.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .algebra import Algebra
from .extensions import BimoduleAction, Cocycle2, ExtensionData
from .linalg import QMatrix


class JsonFormatError(ValueError):
    """Input JSON does not match the documented schema."""


def _is_int(x: Any) -> bool:
    """A JSON integer: bool, float and str are not, even when integral."""
    return isinstance(x, int) and not isinstance(x, bool)


def _rational(num: Any, den: Any, where: str) -> Fraction:
    if not (_is_int(num) and _is_int(den)) or den == 0:
        raise JsonFormatError(f"bad rational at {where}: num={num!r}, den={den!r}")
    return Fraction(num, den)


def _frac_from_obj(obj: Any, where: str) -> Fraction:
    if isinstance(obj, dict):
        return _rational(obj.get("num"), obj.get("den", 1), where)
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return _rational(obj[0], obj[1], where)
    return _rational(obj, 1, where)


def _frac_to_obj(f: Fraction) -> dict:
    return {"num": f.numerator, "den": f.denominator}


def algebra_to_dict(a: Algebra) -> dict:
    products = [
        {"i": i, "j": j, "k": k, "num": v.numerator, "den": v.denominator}
        for (i, j, k, v) in a.nonzero_products()
    ]
    out: dict = {"dim": a.dim, "products": products}
    if a.name:
        out["name"] = a.name
    if a.params:
        out["params"] = {k: _frac_to_obj(v) for k, v in a.params}
    return out


def algebra_from_dict(data: Any) -> Algebra:
    if not isinstance(data, dict):
        raise JsonFormatError("algebra must be a JSON object")
    dim = data.get("dim")
    if not _is_int(dim):
        raise JsonFormatError(f"algebra requires an integer 'dim', got {dim!r}")
    if dim < 1:
        raise JsonFormatError("'dim' must be positive")
    products = data.get("products", [])
    if not isinstance(products, list):
        raise JsonFormatError("'products' must be a list")
    entries: dict[tuple[int, int, int], Fraction] = {}
    for pos, product in enumerate(products):
        if not isinstance(product, dict):
            raise JsonFormatError(f"products[{pos}] must be an object")
        i, j, k = (product.get(key) for key in "ijk")
        if not (_is_int(i) and _is_int(j) and _is_int(k)):
            raise JsonFormatError(f"products[{pos}] requires integer i, j, k")
        value = _rational(product.get("num", 0), product.get("den", 1), f"products[{pos}]")
        if not (1 <= i <= dim and 1 <= j <= dim and 1 <= k <= dim):
            raise JsonFormatError(f"products[{pos}] index out of range for dim={dim}")
        entries[i, j, k] = entries[i, j, k] + value if (i, j, k) in entries else value  # repeats sum
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise JsonFormatError("'params' must be an object")
    params = {key: _frac_from_obj(val, f"params.{key}") for key, val in params.items()}
    name = data.get("name", "")
    if not isinstance(name, str):
        raise JsonFormatError("'name' must be a string")
    return Algebra.from_entries(dim, entries, name=name, params=params)


def matrix_to_rows(m: QMatrix) -> list:
    return [[[x.numerator, x.denominator] for x in row] for row in m.rows]


def cocycle_to_rows(g: Cocycle2) -> list:
    return [[[[x.numerator, x.denominator] for x in cell] for cell in row] for row in g.values]


def matrix_from_rows(data: Any, where: str) -> QMatrix:
    if not isinstance(data, list) or not data or not all(isinstance(row, list) for row in data):
        raise JsonFormatError(f"{where} must be a non-empty list of rows")
    return QMatrix(
        [
            [_frac_from_obj(cell, f"{where}[{r}][{c}]") for c, cell in enumerate(row)]
            for r, row in enumerate(data)
        ]
    )


def extension_to_dict(d: ExtensionData) -> dict:
    return {
        "K": algebra_to_dict(d.k),
        "V": algebra_to_dict(d.v),
        "lambda": [matrix_to_rows(m) for m in d.action.lam],
        "rho": [matrix_to_rows(m) for m in d.action.rho],
        "g": cocycle_to_rows(d.g),
    }


def extension_from_dict(data: Any, require_g: bool = True) -> ExtensionData:
    if not isinstance(data, dict):
        raise JsonFormatError("extension data must be a JSON object")
    for key in ("K", "V", "lambda", "rho"):
        if key not in data:
            raise JsonFormatError(f"extension data requires '{key}'")
    for key in ("lambda", "rho"):
        if not isinstance(data[key], list):
            raise JsonFormatError(f"'{key}' must be a list of matrices")
    k = algebra_from_dict(data["K"])
    v = algebra_from_dict(data["V"])
    lam = tuple(
        matrix_from_rows(m, f"lambda[{i}]") for i, m in enumerate(data["lambda"])
    )
    rho = tuple(matrix_from_rows(m, f"rho[{i}]") for i, m in enumerate(data["rho"]))
    if len(lam) != k.dim or len(rho) != k.dim:
        raise JsonFormatError("lambda/rho must list one matrix per K basis vector")
    action = BimoduleAction(k, v.dim, lam, rho)
    if "g" in data and data["g"] is not None:
        raw = data["g"]
        if not isinstance(raw, list) or len(raw) != k.dim:
            raise JsonFormatError("g must be a k_dim x k_dim array of vectors")
        rows = []
        for i, row in enumerate(raw):
            if not isinstance(row, list) or len(row) != k.dim:
                raise JsonFormatError(f"g[{i}] must list k_dim vectors")
            cells = []
            for j, cell in enumerate(row):
                if not isinstance(cell, list) or len(cell) != v.dim:
                    raise JsonFormatError(f"g[{i}][{j}] must be a vector of length v_dim")
                cells.append(
                    tuple(_frac_from_obj(x, f"g[{i}][{j}][{m}]") for m, x in enumerate(cell))
                )
            rows.append(tuple(cells))
        g = Cocycle2(tuple(rows))
    elif require_g:
        raise JsonFormatError("extension data requires 'g'")
    else:
        g = Cocycle2.zero(k.dim, v.dim)
    return ExtensionData(k, v, action, g)


def load_json_file(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise JsonFormatError(
            f"malformed JSON at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err
    except RecursionError as err:  # the decoder recurses once per nesting level
        raise JsonFormatError("JSON nested too deeply to parse") from err


def dumps_sorted(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)
