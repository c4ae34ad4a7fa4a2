import hashlib
import json
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from lsa.algebra import (
    Algebra,
    _complete_by_traces,
    check_left_symmetric,
    conjugated,
    find_ideals_dim_le3,
    identify_lie_algebra,
    is_complete,
    is_lie_algebra,
    is_solvable,
    is_unimodular,
    lie_algebra_of,
    multiply,
    quotient_algebra,
    restriction_to_ideal,
)
from lsa.catalog import (
    _ALL,
    ENTRIES,
    ENTRY_NAMES,
    FINGERPRINT,
    T,
    CatalogEntry,
    ParameterError,
    case1_n2_central,
    catalog_lie_algebras,
    catalog_lsas,
    d32_rejected_variant,
    fingerprint,
    fixtures,
    make_lie,
    make_lsa,
    reconstruction_cases,
    validate_params,
    verify_catalog,
    verify_entry,
)
from lsa.extensions import build_extension, check_kim_conditions, verify_iso_witness
from lsa.jsonio import extension_to_dict, matrix_to_rows
from lsa.linalg import _int_rank, random_invertible, unit_vec, vec

F = Fraction
E = lambda i: unit_vec(3, i)


def test_catalog_has_eleven_entries():
    entries = catalog_lsas()
    assert [e.name for e in entries] == list(ENTRY_NAMES)
    assert len(entries) == 11


def test_entry_products_spot_checks():
    n32 = make_lsa("N32")
    assert multiply(n32, E(0), E(1)) == E(1)
    assert multiply(n32, E(2), E(2)) == E(0)
    d32 = make_lsa("D32")
    assert multiply(d32, E(0), E(1)) == E(1)
    assert multiply(d32, E(0), E(2)) == vec([0, 0, F(1, 2)])
    assert multiply(d32, E(2), E(2)) == E(1)
    c3t = make_lsa("C3t", t=2)
    assert multiply(c3t, E(0), E(1)) == vec([0, 1, 2])
    assert multiply(c3t, E(0), E(2)) == E(2)
    assert multiply(c3t, E(1), E(0)) == E(2)  # (t-1) e3 at t=2


def test_d32_rejected_variant_is_not_left_symmetric():
    res = check_left_symmetric(d32_rejected_variant())
    assert not res.ok
    assert res.witness == (1, 2, 2)
    assert check_left_symmetric(make_lsa("D32")).ok


def test_parameter_constraints():
    with pytest.raises(ParameterError):
        make_lsa("C3t", t=1)
    with pytest.raises(ParameterError):
        make_lsa("D31mu", mu=1)
    with pytest.raises(ParameterError):
        make_lsa("E31zeta", zeta=0)
    with pytest.raises(ParameterError):
        make_lsa("N30", t=2)
    with pytest.raises(ParameterError, match="requires exactly parameter 'mu'"):
        make_lie("G34")
    with pytest.raises(ParameterError, match="G31 takes no parameters"):
        make_lie("G31", mu=5)
    with pytest.raises(ParameterError, match="constraint violated for G35: zeta > 0"):
        make_lie("G35", zeta=0)
    validate_params("C3t", {"t": F(5)})


# Nonzero products e_i * e_j = c e_k as {(i, j, k): c}, written out by hand
# for every entry at its defaults and at one more admissible parameter value.
ENTRY_PRODUCTS = [
    ("N30", {}, {(1, 2, 2): 1}),
    ("N31", {}, {(1, 1, 3): 1, (1, 2, 2): 1}),
    ("N32", {}, {(1, 2, 2): 1, (3, 3, 1): 1}),
    ("N33", {}, {(1, 2, 2): 1, (3, 3, 1): -1}),
    ("B30", {}, {(1, 2, 2): 1, (1, 3, 3): 1}),
    ("B31", {}, {(1, 2, 2): 1, (1, 2, 3): 1, (1, 3, 3): 1, (2, 1, 3): 1}),
    ("C31", {}, {(1, 2, 2): 1, (1, 2, 3): 1, (1, 3, 3): 1}),
    ("C3t", {"t": F(2)}, {(1, 2, 2): 1, (1, 2, 3): 2, (1, 3, 3): 1, (2, 1, 3): 1}),
    ("C3t", {"t": F(-1, 3)}, {(1, 2, 2): 1, (1, 2, 3): F(-1, 3), (1, 3, 3): 1, (2, 1, 3): F(-4, 3)}),
    ("D31mu", {"mu": F(1, 2)}, {(1, 2, 2): 1, (1, 3, 3): F(1, 2)}),
    ("D31mu", {"mu": F(-1, 2)}, {(1, 2, 2): 1, (1, 3, 3): F(-1, 2)}),
    ("D31mu", {"mu": F(3, 4)}, {(1, 2, 2): 1, (1, 3, 3): F(3, 4)}),
    ("D32", {}, {(1, 2, 2): 1, (1, 3, 3): F(1, 2), (3, 3, 2): 1}),
    ("E31zeta", {"zeta": F(1)}, {(1, 2, 2): 1, (1, 2, 3): 1, (1, 3, 2): -1, (1, 3, 3): 1}),
    ("E31zeta", {"zeta": F(5, 2)}, {(1, 2, 2): 1, (1, 2, 3): F(5, 2), (1, 3, 2): F(-5, 2), (1, 3, 3): 1}),
]

# Brackets [e_i, e_j] = c e_k with i < j, at the default and one more value.
LIE_BRACKETS = [
    ("G31", {}, {(1, 2, 2): 1}),
    ("G32", {}, {(1, 2, 2): 1, (1, 3, 3): 1}),
    ("G33", {}, {(1, 2, 2): 1, (1, 2, 3): 1, (1, 3, 3): 1}),
    ("G34", {"mu": F(1, 2)}, {(1, 2, 2): 1, (1, 3, 3): F(1, 2)}),
    ("G34", {"mu": F(-2, 3)}, {(1, 2, 2): 1, (1, 3, 3): F(-2, 3)}),
    ("G35", {"zeta": F(1)}, {(1, 2, 2): 1, (1, 2, 3): 1, (1, 3, 2): -1, (1, 3, 3): 1}),
    ("G35", {"zeta": F(3)}, {(1, 2, 2): 1, (1, 2, 3): 3, (1, 3, 2): -3, (1, 3, 3): 1}),
]


def _products(a):
    return {(i, j, k): v for i, j, k, v in a.nonzero_products()}


def test_table_transcription():
    for name, params, products in ENTRY_PRODUCTS:
        assert _products(make_lsa(name, **params)) == products, (name, params)
    listed = [(name, params) for name, params, _ in ENTRY_PRODUCTS]
    assert {name for name, _ in listed} == set(ENTRY_NAMES)
    assert all((e.name, p) in listed for e in catalog_lsas() for p in e.default_params)
    for name, params, brackets in LIE_BRACKETS:
        full = {**brackets, **{(j, i, k): -c for (i, j, k), c in brackets.items()}}
        assert _products(make_lie(name, **params)) == full, (name, params)
    first = {}
    for name, params, _ in LIE_BRACKETS:
        first.setdefault(name, params)
    assert [(g.name, dict(g.params)) for g in catalog_lie_algebras()] == list(first.items())


def test_lie_families():
    g33 = make_lie("G33")
    assert multiply(g33, E(0), E(1)) == vec([0, 1, 1])
    assert multiply(g33, E(0), E(2)) == E(2)
    g34 = make_lie("G34", mu=F(1, 2))
    assert multiply(g34, E(0), E(2)) == vec([0, 0, F(1, 2)])
    for lie in catalog_lie_algebras():
        assert is_lie_algebra(lie)
        assert is_solvable(lie)
        assert not is_unimodular(lie)


def test_fixtures_products():
    fx = fixtures()
    a1 = fx["A1_inv"]
    assert multiply(a1, E(0), E(1)) == E(1)
    assert multiply(a1, E(0), E(2)) == vec([0, 0, -1])
    assert multiply(a1, E(1), E(2)) == E(0)
    assert multiply(a1, E(2), E(1)) == E(0)
    sq = fx["r2_square"]
    assert multiply(sq, unit_vec(2, 1), unit_vec(2, 1)) == unit_vec(2, 0)
    n2 = fx["N2"]
    assert multiply(n2, unit_vec(2, 0), unit_vec(2, 1)) == unit_vec(2, 1)
    assert fx["R0"].dim == 1


def test_entry_lie_tags_match_table():
    for entry in catalog_lsas():
        for params in entry.default_params:
            a = entry.make(params)
            tag = identify_lie_algebra(lie_algebra_of(a))
            assert str(tag) == str(entry.claimed_tag(params)), entry.name


def test_verify_entry_n30():
    entry = next(e for e in catalog_lsas() if e.name == "N30")
    report = verify_entry(entry, [entry.make()])
    sample = report["samples"][0]
    assert sample["left_symmetric"] and sample["complete"]
    assert sample["flags_computed"] == {"N": True, "D": True, "S": True}
    assert sample["flags_match"]
    assert not report["hard_failures"]


def test_verify_entry_e31_zeta_one():
    entry = next(e for e in catalog_lsas() if e.name == "E31zeta")
    report = verify_entry(entry, [entry.make({"zeta": F(1)})])
    assert report["samples"][0]["lie_tag"] == "G35(zeta=1)"
    assert report["samples"][0]["lie_match"]


def test_verify_entry_c3t_flags():
    entry = next(e for e in catalog_lsas() if e.name == "C3t")
    report = verify_entry(entry, [entry.make({"t": F(2)})])
    sample = report["samples"][0]
    assert sample["flags_computed"] == {"N": False, "D": True, "S": False}
    assert sample["flags_match"]


# --- reconstructions ------------------------------------------------------


def test_all_reconstruction_paths():
    for case in reconstruction_cases(random.Random(5)):
        report = check_kim_conditions(case.data)
        assert report.ok, case.label
        ext = build_extension(case.data)
        target = make_lsa(case.target, **case.target_params)
        assert verify_iso_witness(ext, target, case.witness), (case.label, case.target)


def test_reconstruction_targets_cover_catalog():
    targets = {c.target for c in reconstruction_cases(random.Random(0))}
    assert targets == set(ENTRY_NAMES)


def test_reconstruction_paths_are_pinned():
    """Every path of ``reconstruction_cases`` at seeds 0-9, byte for byte:
    its label, target, target parameters, extension data and witness rows.
    ``witness_ok`` alone would pass any other valid isomorphism."""
    records = []
    for seed in range(10):
        for case in reconstruction_cases(random.Random(seed)):
            params = {k: [v.numerator, v.denominator] for k, v in case.target_params.items()}
            records.append(
                [case.label, case.target, params, extension_to_dict(case.data), matrix_to_rows(case.witness)]
            )
    assert len(records) == 240
    assert hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()[:12] == "933d8bfae025"


def test_n3t_scaling_witness():
    from lsa.catalog import case1_n2_central

    case = case1_n2_central(F(7))
    ext = build_extension(case.data)
    assert verify_iso_witness(ext, make_lsa("N31"), case.witness)


def test_case2_lands_in_n30_n32_n33():
    from lsa.catalog import case2_n2_kernel

    for args, target in [
        ((F(1), F(2), F(0), 1), "N30"),
        ((F(1), F(2), F(3), 1), "N32"),
        ((F(1), F(2), F(3), -1), "N33"),
    ]:
        case = case2_n2_kernel(*args)
        assert case.target == target
        ext = build_extension(case.data)
        assert verify_iso_witness(ext, make_lsa(target), case.witness)


# --- fingerprints ---------------------------------------------------------


def test_fingerprints_separate_n32_n33():
    fp32, fp33 = fingerprint(make_lsa("N32")), fingerprint(make_lsa("N33"))
    assert fp32 != fp33
    # the separating component is the square-form signature
    assert fp32[-2] == (1, 0, 2)
    assert fp33[-2] == (0, 1, 2)


def test_sign_invariant_brute_force_oracle():
    """Validate the signature component against small-height rational search.

    In N32 some v with v*v acting with a unit eigenvalue exists at height 1;
    in N33 the signature (0,1,...) proves the square-form is <= 0, so no v
    at any height can work.
    """
    n32 = make_lsa("N32")
    found = False
    vals = [F(n, d) for n in range(-2, 3) for d in (1, 2)]
    for v1 in vals:
        for v2 in vals:
            for v3 in vals:
                v = vec([v1, v2, v3])
                w = multiply(n32, v, v)
                # w = v1 v2 e2 + v3^2 e1; unit left action needs e1-component 1
                if w[0] == 1:
                    found = True
    assert found
    n33 = make_lsa("N33")
    for v1 in vals:
        for v2 in vals:
            for v3 in vals:
                w = multiply(n33, vec([v1, v2, v3]), vec([v1, v2, v3]))
                assert w[0] <= 0


def test_fingerprints_separate_n30_n31():
    fp30, fp31 = fingerprint(make_lsa("N30")), fingerprint(make_lsa("N31"))
    assert fp30 != fp31
    assert fp30[2] == 1 and fp31[2] == 2  # dim of the product span


def test_fingerprints_separate_c3t_values():
    fp2 = fingerprint(make_lsa("C3t", t=F(2)))
    fp3 = fingerprint(make_lsa("C3t", t=F(3)))
    assert fp2 != fp3
    assert fp2[-1] == str(F(1, 2))  # (t-1)/t at t=2
    assert fp3[-1] == str(F(2, 3))


def test_c3t_induced_action_ratio_at_every_sampled_t():
    """In a fresh random basis, C3t's ratio is (t - 1)/t, 'inf' at t = 0,
    at every t that ``T.sample`` can draw, and C31's is 0, the ratio of the
    excluded t = 1: the Moebius map t -> (t - 1)/t is injective, so the
    sampled C3t are pairwise distinct and distinct from C31."""
    support = {F(p, q) for p in range(-6, 7) for q in range(1, 5)} - {F(1)}
    rng = random.Random(25)
    assert {T.sample(rng) for _ in range(400)} <= support
    label = [label for label, _ in FINGERPRINT].index("induced_action_ratio")

    def ratio(name, **params):
        return fingerprint(conjugated(make_lsa(name, **params), random_invertible(rng, 3)))[label]

    for t in sorted(support):
        assert ratio("C3t", t=t) == ("inf" if t == 0 else str((t - 1) / t)), t
    assert ratio("C31") == "0"


def test_fingerprint_invariant_under_basis_change():
    rng = random.Random(31)
    for name in ("N32", "N33", "C3t", "D32"):
        params = {"t": F(3)} if name == "C3t" else {}
        a = make_lsa(name, **params)
        fp = fingerprint(a)
        for _ in range(10):
            p = random_invertible(rng, 3)
            assert fingerprint(conjugated(a, p)) == fp, name


def test_all_default_fingerprints_distinct():
    fps = {}
    for entry in catalog_lsas():
        fps[entry.name] = fingerprint(entry.make(entry.default_params[0]))
    names = list(fps)
    for i, n1 in enumerate(names):
        for n2 in names[i + 1 :]:
            assert fps[n1] != fps[n2], (n1, n2)


def test_fingerprint_equal_on_conjugate():
    rng = random.Random(8)
    a = make_lsa("B31")
    p = random_invertible(rng, 3)
    assert fingerprint(a) == fingerprint(conjugated(a, p))


# --- full pipeline --------------------------------------------------------


def test_verify_catalog_full_run():
    report = verify_catalog(seed=7, random_samples=2)
    assert report["ok"], report["hard_failures"]
    assert set(report["entries"]) == set(ENTRY_NAMES)
    assert report["distinctness"]["all_distinct"]
    assert all(r["kim_conditions_ok"] and r["witness_ok"] for r in report["reconstructions"])
    assert report["a1_inverse_fixture"]["lie_unimodular"]
    ids = [d["id"] for d in report["discrepancies"]]
    assert "D32-product-column" in ids
    # with the stored D32 form every computed flag matches the claimed one
    assert not any(i.startswith("flags-") for i in ids)


def test_verify_catalog_completeness_propagation():
    report = verify_catalog(seed=1, random_samples=1)
    for entry_report in report["entries"].values():
        for sample in entry_report["samples"]:
            assert sample["completeness_propagation"]
            assert sample["ideals_found"] >= 1


def test_fingerprint_invariance_all_entries():
    rng = random.Random(77)
    for entry in catalog_lsas():
        a = entry.make(entry.default_params[0])
        fp = fingerprint(a)
        for _ in range(5):
            p = random_invertible(rng, 3)
            assert fingerprint(conjugated(a, p)) == fp, entry.name


def test_fingerprint_takes_the_entry_verdicts_as_given(monkeypatch):
    """The fingerprint of a default that ``verify_entry`` audited equals
    that of a fresh equal algebra, and reads its Lie tag and N/D/S flags
    off the table the audit left: no identity scan and no tag again."""
    import lsa.algebra

    decided = []
    scans = lsa.algebra.TripleTable.failures
    brackets = lsa.algebra._commutator_brackets

    def scanning(table, identity):
        decided.append(identity)
        return scans(table, identity)

    def tagging(a):
        decided.append("lie_tag")
        return brackets(a)

    for entry in catalog_lsas():
        a = entry.make(entry.default_params[0])
        expected = fingerprint(entry.make(entry.default_params[0]))
        verify_entry(entry, [a])
        with monkeypatch.context() as patch:
            patch.setattr(lsa.algebra.TripleTable, "failures", scanning)
            patch.setattr(lsa.algebra, "_commutator_brackets", tagging)
            assert fingerprint(a) == expected, entry.name
        assert decided == [], entry.name


def _count_restrictions_and_quotients(monkeypatch):
    import lsa.catalog

    built = []
    for name in ("restriction_to_ideal", "quotient_algebra"):
        original = getattr(lsa.catalog, name)

        def counting(a, w, _original=original, _name=name):
            built.append(_name)
            return _original(a, w)

        monkeypatch.setattr(lsa.catalog, name, counting)
    return built


def test_complete_entry_propagates_completeness_by_theorem(monkeypatch):
    built = _count_restrictions_and_quotients(monkeypatch)
    entry = ENTRIES["D31mu"]
    report = verify_entry(entry, [entry.make({"mu": F(1, 2)}), entry.make({"mu": F(-1, 3)})])
    for sample in report["samples"]:
        assert sample["complete"] and sample["completeness_propagation"]
        assert sample["ideals_found"] >= 1
    assert built == []


def test_incomplete_entry_checks_propagation_ideal_by_ideal(monkeypatch):
    # e1.e1 = e1 is an idempotent, so R_e1 is not nilpotent
    entry = CatalogEntry("X", "G31", _ALL, {(1, 1, 1): 1, (1, 2, 2): 1})
    a = entry.make()
    brute_force = all(
        is_complete(restriction_to_ideal(a, ideal)) and is_complete(quotient_algebra(a, ideal))
        for ideal in find_ideals_dim_le3(a)
    )
    built = _count_restrictions_and_quotients(monkeypatch)
    sample = verify_entry(entry, [a])["samples"][0]
    assert sample["complete"] is False
    assert sample["ideals_found"] == 4
    assert sample["completeness_propagation"] is False
    assert sample["completeness_propagation"] == brute_force
    assert built  # the fallback ran


def test_flag_mismatch_is_audited_not_fatal():
    # deliberately wrong claimed flags surface as a mismatch with witnesses,
    # never as a hard failure
    wrong = replace(ENTRIES["N30"], claimed_flags=(False, True, True))
    report = verify_entry(wrong, [wrong.make()])
    sample = report["samples"][0]
    assert not sample["flags_match"]
    assert sample["flags_computed"]["N"] is True
    assert sample["flag_witnesses"]["N"] == "all triples pass"
    assert not report["hard_failures"]


def _record_tables(monkeypatch):
    """Every ``TripleTable`` built from here on, with the algebra it
    cleared, and every identity scan of each, by table."""
    import lsa.algebra

    tables = {}  # table -> the algebra it cleared
    init = lsa.algebra.TripleTable.__init__

    def clearing(table, a):
        tables[table] = a
        init(table, a)

    monkeypatch.setattr(lsa.algebra.TripleTable, "__init__", clearing)
    scans = Counter()
    failures = lsa.algebra.TripleTable.failures

    def scanning(table, identity):
        scans[table, identity] += 1
        return failures(table, identity)

    monkeypatch.setattr(lsa.algebra.TripleTable, "failures", scanning)
    return tables, scans


def test_an_audit_decides_each_algebra_once(monkeypatch):
    """Per ``verify_catalog(seed=11, random_samples=5)``: each algebra gets
    at most one triple table, each table scans each identity at most once,
    and each algebra's commutators are read at most once, so its Lie tag is
    decided once: the distinct ones of the 27 samples, C3t at t = 3 and the
    A1 fixture, all left-symmetric, with no ``lie_algebra_of``, no Lie
    algebra built and no Jacobi scan.  The audit asks the public names:
    ``verify_entry`` once per entry, ``fingerprint`` for the eleven defaults
    and C3t at t = 3, and ``find_ideals_dim_le3`` for each sample and the
    fixture.  No (name, params) is made twice: a repeated sample, a
    sampled reconstruction target and a default's fingerprint reuse the
    algebra already made, and no fixture algebra is built."""
    import lsa.algebra
    import lsa.catalog

    calls = Counter()
    for module, name in (
        (lsa.algebra, "identify_lie_algebra"),
        (lsa.algebra, "lie_algebra_of"),
        (lsa.catalog, "fingerprint"),
        (lsa.catalog, "verify_entry"),
        (lsa.catalog, "find_ideals_dim_le3"),
    ):
        original = getattr(module, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    tables, scans = _record_tables(monkeypatch)
    tagged = []
    brackets = lsa.algebra._commutator_brackets

    def reading(a):
        tagged.append(a)
        return brackets(a)

    monkeypatch.setattr(lsa.algebra, "_commutator_brackets", reading)
    monkeypatch.setattr(lsa.catalog, "_commutator_brackets", reading)
    built = []
    post_init = Algebra.__post_init__

    def recording(self):
        built.append(self.name)
        post_init(self)

    monkeypatch.setattr(Algebra, "__post_init__", recording)
    made = []
    make = CatalogEntry.make

    def key(name, params):
        return name, tuple(sorted((k, str(v)) for k, v in params.items()))

    def making(entry, params=None):
        made.append(key(entry.name, params or {}))
        return make(entry, params)

    monkeypatch.setattr(CatalogEntry, "make", making)
    report = verify_catalog(seed=11, random_samples=5)
    audit_built, audit_made = list(built), list(made)  # not what the checks below build
    assert report["ok"]
    assert calls == {"verify_entry": 11, "fingerprint": 12, "find_ideals_dim_le3": 28}
    # at most one table per algebra object, one scan per table and identity
    cleared = list(tables.values())
    assert len({id(a) for a in cleared}) == len(cleared)
    assert set(scans.values()) == {1}
    assert not any(identity == "jacobi" for _, identity in scans)
    assert len({id(a) for a in tagged}) == len(tagged)
    c3t_3 = make_lsa("C3t", t=3)
    samples = Counter(
        ENTRIES[name].make({k: F(v) for k, v in sample["params"].items()})
        for name, entry_report in report["entries"].items()
        for sample in entry_report["samples"]
    )
    assert sum(samples.values()) == 27
    assert Counter(tagged) == Counter(set(samples) | {c3t_3, fixtures()["A1_inv"]})
    targets = [key(r["target"], r["target_params"]) for r in report["reconstructions"]]
    assert len(targets) == 24
    sampled = [
        key(name, sample["params"])
        for name, entry_report in report["entries"].items()
        for sample in entry_report["samples"]
    ]
    # each (name, params) is made once: a repeated sample, C3t at t = 3 and
    # a sampled target are the algebra the entry checks asked
    assert Counter(audit_made) == Counter(set(sampled + targets + [key("C3t", {"t": 3})]))
    assert len(set(sampled)) < len(sampled) and set(targets) & set(sampled)
    assert not set(audit_built) & set(fixtures())
    assert not [name for name in audit_built if name.startswith("Lie(")]


def test_an_audit_clears_no_default_again_for_its_fingerprint(monkeypatch):
    """Per ``verify_catalog`` op, the twelve fingerprints build at most one
    triple table: that of C3t at t = 3 when no entry check asked it (it is
    a sample at seeds 1 and 2, not at 0).  The eleven defaults, and a
    sampled C3t at t = 3, are fingerprinted off the tables their entry
    checks built."""
    import lsa.catalog

    tables, _ = _record_tables(monkeypatch)
    built_by = []
    original = lsa.catalog.fingerprint

    def recording(a):
        before = len(tables)
        found = original(a)
        built_by.append((a.name, a.params, len(tables) - before))
        return found

    monkeypatch.setattr(lsa.catalog, "fingerprint", recording)
    ops, sampled = 3, []
    for seed in range(ops):
        report = verify_catalog(seed=seed, random_samples=5)
        assert report["ok"]
        sampled.append({"t": "3"} in [sample["params"] for sample in report["entries"]["C3t"]["samples"]])
    assert sampled == [False, True, True]
    assert len(built_by) == 12 * ops
    assert [(name, k) for name, _, k in built_by if k] == [("C3t", 1)]
    assert all(params == (("t", 3),) for name, params, k in built_by if k)


def test_a_sample_whose_commutators_fail_jacobi_is_audited():
    """A sample that fails left symmetry may have commutators that are not a
    Lie algebra: its tag is then the Jacobi failure, with its triple, and
    the sample a hard failure, not an exception."""
    entry = CatalogEntry("Z", "G31", (True,) * 3, {(1, 2, 3): 1, (2, 3, 1): 1, (1, 3, 3): 1})
    with pytest.raises(ValueError, match=r"Jacobi identity fails at basis triple \(1, 2, 3\)"):
        identify_lie_algebra(lie_algebra_of(entry.make()))
    report = verify_entry(entry, [entry.make()])
    sample = report["samples"][0]
    assert not sample["left_symmetric"]
    assert sample["lie_tag"] == "not a Lie algebra: the Jacobi identity fails at basis triple (1, 2, 3)"
    assert not sample["lie_match"]
    assert report["hard_failures"] == ["Z at {}"]


def test_an_audit_decides_completeness_by_traces(monkeypatch):
    """Every audited sample is left-symmetric and complete: ``is_complete``
    asks each sample once, reading its table's right traces, and no ideal
    or quotient is built or decided again."""
    import lsa.catalog

    calls = []
    original = lsa.catalog.is_complete

    def counting(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(lsa.catalog, "is_complete", counting)
    built = _count_restrictions_and_quotients(monkeypatch)
    report = verify_catalog(seed=11, random_samples=5)
    assert report["ok"]
    samples = [
        (name, sample["params"])
        for name, entry_report in report["entries"].items()
        for sample in entry_report["samples"]
    ]
    assert [(a.name, {k: str(v) for k, v in a.params}) for a in calls] == samples
    assert built == []


def test_the_ideal_search_reads_spectra_off_integer_kernels(monkeypatch):
    """Each spectrum of an audit's ideal search is the integer roots of the
    closed-form characteristic polynomial of d M: ``find_ideals_dim_le3``
    calls no ``rational_roots`` (the ``Fraction`` path) and at most one
    ``_int_char_poly`` per kept operator, one of the independent d L_ei,
    d R_ei."""
    import lsa.algebra
    import lsa.catalog
    import lsa.linalg

    counts = Counter()

    def counting(name, original):
        def counted(*args):
            counts[name] += 1
            return original(*args)

        return counted

    monkeypatch.setattr(lsa.algebra, "_int_char_poly", counting("char_poly", lsa.algebra._int_char_poly))
    roots = counting("rational_roots", lsa.linalg.rational_roots)
    monkeypatch.setattr(lsa.linalg, "rational_roots", roots)
    monkeypatch.setattr(lsa.algebra, "rational_roots", roots, raising=False)
    searches = []
    original = lsa.catalog.find_ideals_dim_le3

    def ideals(a):
        before = counts.copy()
        found = original(a)
        n, c = a.dim, a.table.c
        operators = [[x for v in c[i] for x in v] for i in range(n)]
        operators += [[x for j in range(n) for x in c[j][i]] for i in range(n)]
        searches.append((counts - before, _int_rank(operators)))
        return found

    monkeypatch.setattr(lsa.catalog, "find_ideals_dim_le3", ideals)
    assert verify_catalog(seed=11, random_samples=5)["ok"]
    assert len(searches) == 28
    assert all(used["rational_roots"] == 0 for used, _ in searches)
    assert all(used["char_poly"] <= kept for used, kept in searches)
    assert sum(used["char_poly"] for used, _ in searches) > 0


def test_verify_entry_decides_completeness_of_left_symmetric_samples_only():
    # left-symmetric and incomplete, ideals included
    incomplete = CatalogEntry("X", "G31", _ALL, {(1, 1, 1): 1, (1, 2, 2): 1})
    sample = verify_entry(incomplete, [incomplete.make()])["samples"][0]
    assert sample["left_symmetric"] and not sample["complete"]
    assert not sample["completeness_propagation"]
    # e1.e1 = e1, e2.e1 = -e2: not left-symmetric, so not complete, though
    # every tr R_x = 0
    off = CatalogEntry("Y", "G31", _ALL, {(1, 1, 1): 1, (2, 1, 2): -1})
    assert _complete_by_traces(off.make())
    report = verify_entry(off, [off.make()])
    sample = report["samples"][0]
    assert not sample["left_symmetric"] and sample["complete"] is False
    assert report["hard_failures"] == ["Y at {}"]


def test_fixtures_returns_a_fresh_dict():
    mutated = fixtures()
    expected = dict(mutated)
    mutated["N2"] = mutated.pop("R0")
    mutated["extra"] = make_lsa("N30")
    assert fixtures() == expected
    assert case1_n2_central(0).data.k == expected["N2"]
