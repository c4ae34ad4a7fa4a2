"""Command-line interface.

Exit codes: 0 all checks pass, 1 a verification failed, 2 input error
(malformed JSON, schema violation, a parameter constraint violation, a path
that cannot be read or written, or an input the command does not handle,
such as a dimension it does not cover).
Reports go to stdout, errors to stderr; --json switches every report to a
sorted, byte-stable JSON rendering.
"""
from __future__ import annotations

import argparse
import functools
import random
import sys
from fractions import Fraction

from .algebra import (
    NotInScopeError,
    _tag_of_form,
    check_left_symmetric,
    find_ideals_dim_le3,
    first_failure,
    identify_lie_algebra,
    is_complete,
    lie_algebra_of,
    milnor_normal_form,
)
from .catalog import make_lsa, verify_catalog
from .extensions import ExtensionError, _not_left_symmetric, build_extension, h2
from .jsonio import (
    JsonFormatError,
    algebra_from_dict,
    algebra_to_dict,
    cocycle_to_rows,
    dumps_sorted,
    extension_from_dict,
    load_json_file,
)
from .linalg import QMatrix

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2

# ``check`` builds the dim^3 structure tensor, fills the triple table's T1
# and T2 (n^3 entries of length n each, O(n^5) integer products) and scans
# left symmetry and N/D/S by their triple plans of up to n^3 rows
# (``algebra._plan``).  The limit bounds that work; ``h2`` and ``extend``
# share it, so that every algebra they build is one ``check`` takes.
CHECK_MAX_DIM = 8

# The largest dimension each command that reads an algebra file takes: the
# Milnor form and the ideal search are defined for dim <= 3.
MAX_DIM = {"check": CHECK_MAX_DIM, "lie": 3, "identify": 3, "ideals": 3}

# The ``--family`` choices, in the order of ``affine.FAMILY_NAMES``; kept
# here so that building the parser does not import numpy.
FAMILY_NAMES = ("A30", "A31", "A32", "A33", "B30", "B31", "C31", "C3t", "D31", "D32", "E3")


def _yesno(b: bool) -> str:
    return "yes" if b else "no"


def _declared_dim(data) -> int:
    """The integer ``dim`` an algebra object declares, at least 0, else 0
    (the JSON reader refuses a negative or missing one later)."""
    dim = data.get("dim") if isinstance(data, dict) else None
    return max(dim, 0) if isinstance(dim, int) else 0


def _load_algebra(path: str, command: str):
    """The file's algebra, refused by its declared dimension before the
    dim^3 structure tensor is built."""
    data = load_json_file(path)
    dim = _declared_dim(data)
    if dim > MAX_DIM[command]:
        raise ValueError(f"{command} handles dim <= {MAX_DIM[command]} only, got dim {dim}")
    return algebra_from_dict(data)


def _load_extension(path: str, command: str, require_g: bool = True):
    """The file's extension data, refused before either structure tensor
    is built when dim K + dim V exceeds CHECK_MAX_DIM: the extended algebra
    must be one ``check`` decides."""
    data = load_json_file(path)
    parts = data if isinstance(data, dict) else {}
    dim = _declared_dim(parts.get("K")) + _declared_dim(parts.get("V"))
    if dim > CHECK_MAX_DIM:
        raise ValueError(f"{command} handles dim K + dim V <= {CHECK_MAX_DIM} only, got {dim}")
    return extension_from_dict(data, require_g=require_g)


def _frac_str(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as err:
        raise JsonFormatError(f"bad rational {s!r}") from err


def cmd_check(args) -> int:
    a = _load_algebra(args.file, "check")
    ls = check_left_symmetric(a)
    complete = is_complete(a)
    n, d, s = (first_failure(a, flag).ok for flag in "NDS")
    if args.json:
        print(
            dumps_sorted(
                {
                    "left_symmetric": ls.ok,
                    "witness": list(ls.witness) if ls.witness else None,
                    "complete": complete,
                    "novikov": n,
                    "derivation": d,
                    "s_identity": s,
                }
            )
        )
    else:
        print(f"left-symmetric: {_yesno(ls.ok)}", end="")
        if not ls.ok:
            print(f" (fails at basis triple {ls.witness})", end="")
        print(f"; complete: {_yesno(complete)}; N D S: {_yesno(n)} {_yesno(d)} {_yesno(s)}")
    return EXIT_OK if ls.ok and complete else EXIT_FAIL


def cmd_lie(args) -> int:
    lie = lie_algebra_of(_load_algebra(args.file, "lie"))
    tag = identify_lie_algebra(lie)
    brackets = [p for p in algebra_to_dict(lie)["products"] if p["i"] < p["j"]]
    if args.json:
        print(dumps_sorted({"brackets": brackets, "lie_tag": str(tag)}))
    else:
        if brackets:
            for b in brackets:
                coeff = Fraction(b["num"], b["den"])
                print(f"[e{b['i']}, e{b['j']}] -> {coeff} e{b['k']}")
        else:
            print("abelian")
        print(f"lie algebra: {tag}")
    return EXIT_OK


def cmd_h2(args) -> int:
    data = _load_extension(args.file, "h2", require_g=False)
    for label, factor in (("K", data.k), ("V", data.v)):
        ls = check_left_symmetric(factor)
        if not ls.ok:
            raise _not_left_symmetric(label, factor, ls.witness)
    res = h2(data.action)
    reps = [cocycle_to_rows(rep) for rep in res.representatives]
    if args.json:
        print(
            dumps_sorted(
                {
                    "dim_H2": res.dim_h2,
                    "dim_Z2": res.dim_z2,
                    "dim_B2": res.dim_b2,
                    "representatives": reps,
                }
            )
        )
    else:
        print(f"dim Z2 = {res.dim_z2}, dim B2 = {res.dim_b2}, dim H2 = {res.dim_h2}")
        for idx, rep in enumerate(res.representatives):
            cells = [
                f"g(e{i + 1},e{j + 1}) = ({', '.join(str(x) for x in cell)})"
                for i, row in enumerate(rep.values)
                for j, cell in enumerate(row)
                if any(x != 0 for x in cell)
            ]
            print(f"representative {idx + 1}: " + ("; ".join(cells) or "0"))
    return EXIT_OK


def cmd_extend(args) -> int:
    data = _load_extension(args.file, "extend")
    try:
        ext = build_extension(data)
    except ExtensionError as err:
        print(f"extension conditions failed: {err.failed}", file=sys.stderr)
        return EXIT_FAIL
    text = dumps_sorted(algebra_to_dict(ext))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_ideals(args) -> int:
    a = _load_algebra(args.file, "ideals")
    ideals = find_ideals_dim_le3(a)
    listing = [
        {"dim": sp.dim, "basis": [[str(x) for x in v] for v in sp.basis]}
        for sp in ideals
    ]
    if args.json:
        print(dumps_sorted({"count": len(ideals), "ideals": listing}))
    else:
        if not ideals:
            print("no rational ideal found")
        for sp in ideals:
            vecs = ["(" + ", ".join(str(x) for x in v) + ")" for v in sp.basis]
            print(f"dim {sp.dim}: span{{{'; '.join(vecs)}}}")
    return EXIT_OK


def cmd_identify(args) -> int:
    a = _load_algebra(args.file, "identify")
    lie = lie_algebra_of(a) if check_left_symmetric(a).ok else a
    try:
        form = milnor_normal_form(lie)
    except NotInScopeError as err:
        tag = f"not_in_scope({err})"
        print(dumps_sorted({"lie_tag": tag}) if args.json else f"lie algebra: {tag}")
        return EXIT_OK
    tag = _tag_of_form(form.det_d, form.d == QMatrix.identity(2))
    if args.json:
        print(
            dumps_sorted(
                {
                    "D": [[str(x) for x in row] for row in form.d.rows],
                    "det_D": str(form.det_d),
                    "adapted_basis": [[str(x) for x in v] for v in form.adapted_basis],
                    "lie_tag": str(tag),
                }
            )
        )
    else:
        print(f"D = {[[str(x) for x in row] for row in form.d.rows]}")
        print(f"det D = {form.det_d}")
        print(f"lie algebra: {tag}")
    return EXIT_OK


def cmd_catalog_verify(args) -> int:
    if args.samples < 0:
        raise ValueError(f"--samples must be at least 0, got {args.samples}")
    report = verify_catalog(seed=args.seed, random_samples=args.samples)
    if args.json:
        print(dumps_sorted(report))
    else:
        for name in sorted(report["entries"]):
            entry = report["entries"][name]
            bad = entry["hard_failures"]
            n_samples = len(entry["samples"])
            print(f"{name}: {n_samples} sample(s) " + ("FAIL" if bad else "ok"))
        print(f"distinctness: {'ok' if report['distinctness']['all_distinct'] else 'FAIL'}")
        recon_ok = all(r["kim_conditions_ok"] and r["witness_ok"] for r in report["reconstructions"])
        print(f"reconstructions: {'ok' if recon_ok else 'FAIL'} ({len(report['reconstructions'])} paths)")
        print(f"discrepancy notes: {len(report['discrepancies'])}")
        print("catalog verification:", "PASS" if report["ok"] else "FAIL")
    return EXIT_OK if report["ok"] else EXIT_FAIL


def cmd_affine_verify(args) -> int:
    from . import affine as aff

    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    rng = random.Random(args.seed)
    algebras = [make_lsa(spec.catalog_name, **spec.defaults) for spec in aff.FAMILIES.values()]
    reports = aff.verify_families(aff.default_families(), algebras, rng, closure_samples=args.samples)
    ok = all(rep["ok"] for rep in reports)
    legacy = aff.legacy_d32_family()
    legacy_closure = aff.check_closure(
        legacy, aff.sample_parameter_pairs(random.Random(args.seed), 10)
    )
    note = {
        "family": "D32-legacy",
        "detail": "alternate D32 transcription; not closed under composition",
        "max_closure_residual": legacy_closure.max_residual,
        "closure_failures": len(legacy_closure.failures),
    }
    if args.json:
        print(dumps_sorted({"families": reports, "notes": [note], "ok": ok}))
    else:
        for rep in reports:
            print(
                f"{rep['family']:<4} -> {rep['catalog_entry']:<8} "
                f"closure<{rep['max_closure_residual']:.2e} "
                f"|det L|>{rep['jacobian_min_abs_det']:.2e} "
                f"inverse_fail={rep['newton_failures']} "
                f"tangent<{rep['tangent_bracket_residual']:.2e} "
                + ("ok" if rep["ok"] else "FAIL")
            )
        print(
            "note: D32-legacy (alternate transcription) closure residual "
            f"{legacy_closure.max_residual:.3g} over 10 samples (not closed)"
        )
        print("affine verification:", "PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_affine_sample(args) -> int:
    from . import affine as aff

    params = {}
    for item in args.params or []:
        if "=" not in item:
            raise JsonFormatError(f"--params expects name=value, got {item!r}")
        key, val = item.split("=", 1)
        if key in params:
            raise JsonFormatError(f"--params gives {key!r} more than once")
        params[key] = _frac_str(val)
    fam = aff.build_family(args.family, **params)
    points = []
    for spec in args.at or ["0.5,0.5,0.5"]:
        try:
            a, b, c = (float(x) for x in spec.split(","))
        except ValueError:
            raise ValueError(f"--at expects 'a,b,c', got {spec!r}") from None
        points.append((a, b, c))
    out = []
    for (a, b, c) in points:
        try:
            m = fam.element(a, b, c)
        except ValueError as err:  # a non-finite point, or one where the map overflows
            raise ValueError(f"{args.family} at {a},{b},{c}: {err}") from err
        out.append(
            {
                "abc": [a, b, c],
                "linear": [[float(x) for x in row] for row in m.linear],
                "translation": [float(x) for x in m.translation],
            }
        )
    if args.json:
        print(dumps_sorted({"family": args.family, "elements": out}))
    else:
        for item in out:
            print(f"(a, b, c) = {tuple(item['abc'])}")
            for row in item["linear"]:
                print("   [" + ", ".join(f"{x: .12g}" for x in row) + "]")
            print("   t = [" + ", ".join(f"{x: .12g}" for x in item["translation"]) + "]")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``lsa`` argument parser, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="lsa",
        description="Exact checks for left-symmetric algebras, their extensions, and the associated affine group families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_file=True):
        if with_file:
            p.add_argument("file", help="input JSON file")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    def sampling(p):
        p.add_argument("--seed", type=int, default=0, help="seed for randomized sampling")
        p.add_argument("--samples", type=int, default=5, help="random sample count")

    p = sub.add_parser("check", help="left-symmetry, completeness, and N/D/S flags")
    common(p)
    p = sub.add_parser("lie", help="bracket constants and Lie algebra identification")
    common(p)
    p = sub.add_parser("h2", help="second cohomology of a bimodule action (g optional)")
    common(p)
    p = sub.add_parser("extend", help="build the extension algebra from extension data")
    common(p)
    p.add_argument("--out", help="write the built algebra JSON here instead of stdout")
    p = sub.add_parser("ideals", help="rational two-sided ideals (dim <= 3)")
    common(p)
    p = sub.add_parser("identify", help="Milnor form and Lie family of a (Lie) algebra")
    common(p)
    p = sub.add_parser("catalog-verify", help="verify the full classification catalog")
    common(p, with_file=False)
    sampling(p)
    p = sub.add_parser("affine-verify", help="verify the eleven affine group families")
    common(p, with_file=False)
    sampling(p)
    p = sub.add_parser("affine-sample", help="print sampled group elements of a family")
    common(p, with_file=False)
    p.add_argument("--family", required=True, choices=FAMILY_NAMES)
    p.add_argument("--params", nargs="*", help="family parameters, e.g. mu=1/2")
    p.add_argument("--at", nargs="*", action="extend", help="translations 'a,b,c' of the printed elements")
    return parser


def _spell_at_points(argv: list[str]) -> list[str]:
    """Rewrite each point token after ``--at`` as ``--at=POINT``.

    argparse takes a separate token such as ``-1,2,3`` for an option; in the
    ``=`` form it is a value, and ``--at`` collects every value it is given.
    A token is a point when it does not start with ``-`` or when it holds a
    comma: every point has commas and no option does (``-inf,0,0`` too).
    """
    out: list[str] = []
    in_points = False
    for tok in argv:
        if in_points and (not tok.startswith("-") or "," in tok):
            out.append(f"--at={tok}")
            continue
        in_points = tok == "--at"
        out.append(tok)
    return out


def main(argv=None) -> int:
    """Run one ``lsa`` command and return its exit code.

    The parser is built once per process and reused, so it holds no command
    functions: the command is looked up by name, as ``cmd_<command>`` in
    this module, on every call. A wrapper or test double bound to
    ``lsa.cli.cmd_*`` after the parser was built is the one that runs.
    """
    args = build_parser().parse_args(_spell_at_points(sys.argv[1:] if argv is None else argv))
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (ValueError, OSError) as err:  # includes JsonFormatError, ParameterError, IsADirectoryError
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
