"""Oracles for the three routines that read one cleared integer tensor.

``identify_lie_algebra`` (with ``_lie_defect`` and the trace row),
the fingerprint's rank components (with ``center``) and
``verify_iso_witness`` clear their structure constants, and the witness
matrix, to integers once and decide on ints; the catalog audit reads a
left-symmetric sample's tag off its table's integer brackets
(``_commutator_tag``).  The oracles below are the earlier ``Fraction``
forms: the antisymmetry test through
``vec_scale(-1, ...)``, a Jacobi scan through ``multiply``, the trace row
and ad_x as rational matrices; the center and the annihilators as the
``Fraction`` Gauss-Jordan nullspace (``fraction_nullspace``) of the stacked
rational L and R matrices, P, W and the squares as the pivot rows of
``fraction_rref`` of rational products (``fraction_span``): none of them
runs the integer elimination ``_int_rref`` under test, the square-form signature
by a solve of the rational symmetrized products, the induced-action ratio
of ``fingerprint_oracles``; and the witness as
``conjugated(b, eta).c == a.c``.  Old and new must agree exactly, messages,
pairs, triples and reasons included, on random rational algebras of
dimension 2 to 4 in fresh random bases, Lie algebras that are unimodular,
not solvable or in one of the five families, inputs that break
antisymmetry or Jacobi, singular and wrong witnesses, and the 27 samples
and 24 witnesses of one catalog audit.
"""
import itertools
import random
from fractions import Fraction

import pytest

from fingerprint_oracles import oracle_induced_action_ratio
from test_integer_kernel_oracles import fraction_nullspace, fraction_rref
from test_primitive_oracles import fraction_basis_mults, fraction_two_sided_products
from test_subspace_oracles import oracle_product_ideals
from lsa.algebra import (
    Algebra,
    LieTag,
    NotInScopeError,
    Subspace,
    _commutator_tag,
    _lie_defect,
    _tag_of_form,
    center,
    check_left_symmetric,
    conjugated,
    find_ideals_dim_le3,
    first_failure,
    identify_lie_algebra,
    is_complete,
    is_unimodular,
    left_mult,
    lie_algebra_of,
    multiply,
    ndsflags,
    product_span,
)
from lsa.catalog import (
    FINGERPRINT,
    LIE_FAMILIES,
    _spans,
    catalog_lsas,
    fingerprint,
    fixtures,
    make_lie,
    make_lsa,
    reconstruction_cases,
)
from lsa.extensions import build_extension, verify_iso_witness
from lsa.linalg import (
    QMatrix,
    random_invertible,
    solve,
    symmetric_signature,
    unit_vec,
    vec_add,
    vec_scale,
    vstack,
)

pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings, strategies as st

# no shrink phase: the derandomized examples are the same, and a failing
# case reports its first example at once instead of minimizing it
SETTINGS = settings(
    max_examples=60,
    deadline=None,
    database=None,
    derandomize=True,
    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target),
)

F = Fraction


# --- the Fraction forms -------------------------------------------------------


def oracle_lie_defect(a: Algebra) -> str | None:
    n = a.dim
    for i in range(n):
        for j in range(i, n):
            if a.c[i][j] != vec_scale(-1, a.c[j][i]):
                return f"antisymmetry fails at basis pair {(i + 1, j + 1)}"
    e = [unit_vec(n, i) for i in range(n)]

    def p(x, y):
        return multiply(a, x, y)

    for i, j, k in itertools.product(range(n), repeat=3):
        if i < j < k:
            total = vec_add(p(p(e[i], e[j]), e[k]), vec_add(p(p(e[j], e[k]), e[i]), p(p(e[k], e[i]), e[j])))
            if any(total):
                return f"the Jacobi identity fails at basis triple {(i + 1, j + 1, k + 1)}"
    return None


def oracle_trace_row(a: Algebra) -> list[Fraction]:
    return [left_mult(a, unit_vec(a.dim, i)).trace() for i in range(a.dim)]


def oracle_identify(lie: Algebra) -> LieTag:
    """The tag from ad_x as a rational matrix: det D = 2 - 2 tr(ad_x^2) / t^2
    and D = I iff 2 ad_x^2 = t ad_x, t = tr ad_x (see identify_lie_algebra)."""
    defect = oracle_lie_defect(lie)
    if defect is not None:
        raise ValueError(f"not a Lie algebra: {defect}")
    if lie.dim != 3:
        raise ValueError("Milnor normal form requires dimension 3")
    row = oracle_trace_row(lie)
    if all(t == 0 for t in row):
        reason = "unimodular" if oracle_product_span(lie).dim < 3 else "not solvable"
        return LieTag("not_in_scope", reason=f"Lie algebra is {reason}")
    i, t = next((i, t) for i, t in enumerate(row) if t != 0)
    ad = left_mult(lie, unit_vec(3, i))
    ad2 = ad @ ad
    return _tag_of_form(2 - 2 * ad2.trace() / (t * t), ad2.scale(2) == ad.scale(t))


def oracle_is_unimodular(lie: Algebra) -> bool:
    defect = oracle_lie_defect(lie)
    if defect is not None:
        raise ValueError(f"not a Lie algebra: {defect}")
    return all(t == 0 for t in oracle_trace_row(lie))


def fraction_span(n: int, vectors) -> Subspace:
    """The span of ``vectors`` in its reduced-echelon basis: the pivot rows
    of ``fraction_rref``, the ``Fraction`` Gauss-Jordan."""
    if not vectors:
        return Subspace(n, ())
    red, pivots = fraction_rref(QMatrix([list(v) for v in vectors]))
    return Subspace(n, tuple(tuple(row) for row in red.rows[: len(pivots)]))


def oracle_product_span(a: Algebra) -> Subspace:
    return fraction_span(a.dim, [v for plane in a.c for v in plane])


def oracle_center(a: Algebra) -> Subspace:
    lefts, rights = fraction_basis_mults(a)
    return fraction_span(a.dim, fraction_nullspace(vstack([*lefts, *rights])))


def oracle_annihilators(a: Algebra) -> tuple[int, int]:
    lefts, rights = fraction_basis_mults(a)
    return tuple(len(fraction_nullspace(vstack(mats))) for mats in (rights, lefts))


def oracle_symmetrized(a: Algebra) -> list:
    return [vec_add(a.c[i][j], a.c[j][i]) for i in range(a.dim) for j in range(a.dim)]


def oracle_square_form_signature(a: Algebra, p: Subspace, w: Subspace):
    if p.dim != 2 or w.dim != 1:
        return None
    row = oracle_trace_row(a)
    tr_w, *tr_p = (sum((t * x for t, x in zip(row, v)), F(0)) for v in (*w.basis, *p.basis))
    if tr_w != 0 or not any(tr_p):
        return None
    tr, p_hat = next((t, pv) for t, pv in zip(tr_p, p.basis) if t != 0)
    p_hat = tuple(x / tr for x in p_hat)
    n = a.dim
    coords = solve(QMatrix.from_cols([p_hat, *w.basis]), oracle_symmetrized(a))
    return symmetric_signature(QMatrix([[coords[i * n + j][0] for j in range(n)] for i in range(n)]))


def oracle_fingerprint(a: Algebra, lie_tag=None) -> tuple:
    """The fingerprint with the given ``lie_tag``, or with the oracle's tag
    of the commutators if none is given."""
    p = oracle_product_span(a)
    w = fraction_span(a.dim, fraction_two_sided_products(a, p.basis))
    return (
        str(oracle_identify(lie_algebra_of(a))) if lie_tag is None else lie_tag,
        oracle_center(a).dim,
        p.dim,
        fraction_span(a.dim, oracle_symmetrized(a)).dim,
        w.dim,
        oracle_annihilators(a),
        ndsflags(a),
        oracle_square_form_signature(a, p, w),
        oracle_induced_action_ratio(a, p),
    )


def oracle_iso_witness(a: Algebra, b: Algebra, eta: QMatrix) -> bool:
    if a.dim != b.dim:
        raise ValueError("algebras must have equal dimension")
    if eta.shape != (a.dim, a.dim):
        raise ValueError("witness matrix has wrong shape")
    try:
        return conjugated(b, eta).c == a.c
    except ValueError:  # eta is singular
        return False


def outcome(f, *args):
    """The value of f(*args), or the type and message of what it raises."""
    try:
        return f(*args)
    except (ValueError, NotInScopeError) as err:
        return (type(err).__name__, str(err))


# --- inputs -------------------------------------------------------------------


def rationals():
    big = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6))
    small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
    return st.one_of(st.just(Fraction(0)), small, big)


def in_fresh_basis(a: Algebra, seed: int) -> Algebra:
    return conjugated(a, random_invertible(random.Random(seed), a.dim, max_num=5, max_den=4))


@st.composite
def rational_algebras(draw, dims=(2, 3, 4)):
    """Sparse rational structure constants in a fresh random basis."""
    n = draw(st.sampled_from(dims))
    idx = st.integers(1, n)
    entries = draw(st.dictionaries(st.tuples(idx, idx, idx), rationals(), max_size=8))
    return in_fresh_basis(Algebra.from_entries(n, entries), draw(st.integers(0, 2**32)))


@st.composite
def catalog_in_fresh_bases(draw):
    entry = draw(st.sampled_from(catalog_lsas()))
    seed = draw(st.integers(0, 2**32))
    return in_fresh_basis(entry.make(entry.sample_params(random.Random(seed))), seed)


# sl(2,R), so(3), Heisenberg, e(2), e(1,1) and the abelian algebra: the
# first two are not solvable, the others unimodular
UNIMODULAR_OR_SIMPLE = [
    {(1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}},
    {(1, 2): {3: 1}, (1, 3): {2: -1}, (2, 3): {1: 1}},
    {(1, 2): {3: 1}},
    {(1, 2): {3: 1}, (1, 3): {2: -1}},
    {(1, 2): {3: 1}, (1, 3): {2: 1}},
    {},
]


@st.composite
def lie_algebras(draw):
    """Lie algebras in fresh random bases: the five families at sampled
    parameters, the commutators of catalog entries, the algebras above, and
    the 2D non-abelian and 4D direct-sum algebras (refused by dimension)."""
    seed = draw(st.integers(0, 2**32))
    rng = random.Random(seed)
    name = draw(st.sampled_from([*LIE_FAMILIES, "catalog", "other", "2D", "4D"]))
    if name in LIE_FAMILIES:
        param = LIE_FAMILIES[name].param
        lie = make_lie(name, **({} if param is None else {param.name: param.sample(rng)}))
    elif name == "catalog":
        entry = draw(st.sampled_from(catalog_lsas()))
        lie = lie_algebra_of(entry.make(entry.sample_params(rng)))
    elif name == "other":
        lie = Algebra.from_brackets(3, draw(st.sampled_from(UNIMODULAR_OR_SIMPLE)))
    elif name == "2D":
        lie = Algebra.from_brackets(2, {(1, 2): {2: 1}})
    else:
        lie = Algebra.from_brackets(4, {(1, 2): {2: 1}, (1, 3): {3: 1}})
    return in_fresh_basis(lie, seed)


@st.composite
def broken_lie_algebras(draw):
    """A Lie algebra with one structure constant moved, which breaks
    antisymmetry (and then maybe Jacobi too), or the commutators of a random
    algebra, which are antisymmetric but mostly fail Jacobi."""
    if draw(st.booleans()):
        return lie_algebra_of(draw(rational_algebras()))
    lie = draw(lie_algebras())
    n = lie.dim
    i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
    c = [[list(v) for v in plane] for plane in lie.c]
    c[i][j][k] += draw(st.sampled_from([F(1), F(-2, 3)]))
    return Algebra(n, tuple(tuple(tuple(v) for v in plane) for plane in c))


def any_inputs():
    return st.one_of(lie_algebras(), broken_lie_algebras(), rational_algebras(), catalog_in_fresh_bases())


# --- Lie identification -------------------------------------------------------


def assert_lie_checks_match(a: Algebra) -> None:
    assert _lie_defect(a) == oracle_lie_defect(a)
    assert outcome(identify_lie_algebra, a) == outcome(oracle_identify, a)
    assert outcome(is_unimodular, a) == outcome(oracle_is_unimodular, a)


@SETTINGS
@given(any_inputs())
def test_lie_identification_matches_fraction_oracle(a):
    assert_lie_checks_match(a)


def test_lie_oracle_inputs_reach_every_verdict():
    """One fixed input of each kind above per verdict: together they reach
    every message and every tag kind, each as the oracle does."""
    rng = random.Random(5)
    algebras = [in_fresh_basis(Algebra.from_brackets(3, b), k) for k, b in enumerate(UNIMODULAR_OR_SIMPLE)]
    for k, (name, family) in enumerate(LIE_FAMILIES.items()):
        params = {} if family.param is None else {family.param.name: family.param.sample(rng)}
        algebras.append(in_fresh_basis(make_lie(name, **params), k))
    bad_pair = make_lsa("N30")  # e1 e2 = e2 but e2 e1 = 0
    bad_triple = Algebra.from_brackets(3, {(1, 3): {3: 1}, (2, 3): {1: 1}})
    algebras += [bad_pair, bad_triple, Algebra.from_brackets(2, {(1, 2): {2: 1}})]
    verdicts = set()
    for a in algebras:
        assert_lie_checks_match(a)
        result = outcome(identify_lie_algebra, a)
        if isinstance(result, LieTag):
            verdicts.add(result.reason or result.kind)
        else:  # the message up to its pair or triple
            verdicts.add(result[1].split(" at ")[0])
    assert verdicts == {
        "G31", "G32", "G33", "G34", "G35",
        "Lie algebra is unimodular", "Lie algebra is not solvable",
        "not a Lie algebra: antisymmetry fails", "not a Lie algebra: the Jacobi identity fails",
        "Milnor normal form requires dimension 3",
    }


# --- the audit's one table ---------------------------------------------------


# left-symmetric, off the catalog: A1_inv, whose commutators are unimodular,
# and two associative algebras, e1 e1 = e1 with e1 e2 = e2 (not complete;
# commutators G31) and e1 e1 = e1 alone (commutative: abelian commutators)
OTHER_LEFT_SYMMETRIC = [
    fixtures()["A1_inv"],
    Algebra.from_entries(3, {(1, 1, 1): 1, (1, 2, 2): 1}),
    Algebra.from_entries(3, {(1, 1, 1): 1}),
]


@st.composite
def left_symmetric_in_fresh_bases(draw):
    if draw(st.booleans()):
        return draw(catalog_in_fresh_bases())
    return in_fresh_basis(draw(st.sampled_from(OTHER_LEFT_SYMMETRIC)), draw(st.integers(0, 2**32)))


@SETTINGS
@given(left_symmetric_in_fresh_bases())
def test_the_audit_tag_and_ideals_read_off_one_table_match_the_oracles(a):
    """A left-symmetric sample's tag, read off the integer brackets of its
    own table, is that of its commutator algebra as ``identify_lie_algebra``
    and the ``Fraction`` oracle decide it; the ideals then found off the same
    table are the product enumeration's."""
    assert check_left_symmetric(a).ok
    lie = lie_algebra_of(a)
    tag = outcome(_commutator_tag, a)
    assert tag == outcome(identify_lie_algebra, lie) == outcome(oracle_identify, lie)
    assert find_ideals_dim_le3(a) == oracle_product_ideals(a)


def test_the_one_table_inputs_reach_every_left_symmetric_verdict():
    """The inputs above reach a tag of each family and the unimodular
    reason; no left-symmetric algebra has a non-solvable commutator algebra
    (Helmstetter), so that reason is out of their reach."""
    rng = random.Random(3)
    algebras = [entry.make(entry.sample_params(rng)) for entry in catalog_lsas()] + OTHER_LEFT_SYMMETRIC
    verdicts = set()
    for k, a in enumerate(algebras):
        a = in_fresh_basis(a, k)
        tag = _commutator_tag(a)
        assert tag == oracle_identify(lie_algebra_of(a))
        verdicts.add(tag.reason or tag.kind)
    assert verdicts == {"G31", "G32", "G33", "G34", "G35", "Lie algebra is unimodular"}


# --- one table per algebra ----------------------------------------------------


# What an algebra's table remembers, asked through the public names and the
# commutator tag: each answer must not depend on what was asked before.
QUESTIONS = {
    "check_left_symmetric": check_left_symmetric,
    **{
        f"first_failure {identity}": lambda a, identity=identity: first_failure(a, identity)
        for identity in ("N", "D", "S", "jacobi")
    },
    "is_complete": is_complete,
    "find_ideals_dim_le3": find_ideals_dim_le3,
    "fingerprint": fingerprint,
    # the tag is defined for 3D input, as the fingerprint is
    "commutator tag": lambda a: _commutator_tag(a) if a.dim == 3 else None,
}


def fresh_copy(a: Algebra) -> Algebra:
    return Algebra(a.dim, a.c, a.name, a.params)


@SETTINGS
@given(
    st.one_of(left_symmetric_in_fresh_bases(), rational_algebras(), broken_lie_algebras()),
    st.permutations([*QUESTIONS, *QUESTIONS]),
)
def test_one_table_answers_in_any_order(a, order):
    """One algebra, asked every question twice in a random order, answers
    each as a fresh equal algebra asked only that question does.  Inputs
    are left-symmetric, not left-symmetric, and with commutators that fail
    Jacobi, in dimensions 2 to 4, so the tag, the fingerprint and the ideal
    search also refuse: a refusal is raised again on every call, never kept
    as an answer.  The table is the algebra's own: kept across the
    questions, and not an equal algebra's."""
    for name in order:
        assert outcome(QUESTIONS[name], a) == outcome(QUESTIONS[name], fresh_copy(a)), name
    assert a.table is a.table
    assert a.table is not fresh_copy(a).table


# --- fingerprint ranks ----------------------------------------------------------


@SETTINGS
@given(st.one_of(rational_algebras(), catalog_in_fresh_bases(), lie_algebras()))
def test_ranks_match_fraction_oracle(a):
    """``center`` and the spans of every dimension, and every fingerprint
    component of 3D input but the Lie tag (whose commutators need not be a
    Lie algebra here; see the Lie tests), equal their ``Fraction`` forms."""
    s = _spans(a)
    p = oracle_product_span(a)
    assert center(a) == oracle_center(a)
    assert s.p == product_span(a) == p
    assert s.w == fraction_span(a.dim, fraction_two_sided_products(a, p.basis))
    if a.dim == 3:
        ranks = tuple(invariant(a, s) for _, invariant in FINGERPRINT[1:])
        assert ("given", *ranks) == oracle_fingerprint(a, lie_tag="given")


# --- isomorphism witnesses --------------------------------------------------------


@st.composite
def witness_cases(draw):
    """(a, b, eta): eta a witness by construction (a is b written in the
    basis eta(e_i)), the same eta with one entry moved, a singular matrix,
    or a matrix of the wrong shape."""
    b = draw(st.one_of(rational_algebras(), catalog_in_fresh_bases()))
    n = b.dim
    rng = random.Random(draw(st.integers(0, 2**32)))
    eta = random_invertible(rng, n, max_num=7, max_den=5)
    a = conjugated(b, eta)
    kind = draw(st.sampled_from(["witness", "moved", "singular", "shape"]))
    rows = [list(row) for row in eta.rows]
    if kind == "moved":
        rows[rng.randrange(n)][rng.randrange(n)] += draw(st.sampled_from([F(1), F(1, 7), F(-3, 2)]))
    elif kind == "singular":
        # the last column is a rational combination of the others
        coeffs = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n - 1)]
        for row in rows:
            row[-1] = sum((x * y for x, y in zip(coeffs, row)), F(0))
    elif kind == "shape":
        rows = [row[:-1] for row in rows]
    return a, b, QMatrix(rows)


@SETTINGS
@given(witness_cases())
def test_iso_witness_matches_conjugation_oracle(case):
    a, b, eta = case
    assert outcome(verify_iso_witness, a, b, eta) == outcome(oracle_iso_witness, a, b, eta)
    assert outcome(verify_iso_witness, b, b, eta) == outcome(oracle_iso_witness, b, b, eta)


def test_iso_witness_refuses_unequal_dimensions():
    a, b, eta = make_lsa("N30"), fixtures()["N2"], QMatrix.identity(3)
    assert outcome(verify_iso_witness, a, b, eta) == outcome(oracle_iso_witness, a, b, eta)


# --- one catalog audit ------------------------------------------------------------


def test_one_audit_matches_the_oracles():
    """The 27 samples, 12 fingerprints and 24 witnesses of one catalog
    audit, as ``verify_catalog(seed=7)`` draws them."""
    rng = random.Random(7)
    samples = []
    for entry in catalog_lsas():
        points = list(entry.default_params)
        if entry.param is not None:
            points += [entry.sample_params(rng) for _ in range(5)]
        samples += [entry.make(p) for p in points]
    assert len(samples) == 27
    for a in samples:
        assert_lie_checks_match(lie_algebra_of(a))
    for a in [entry.make(entry.default_params[0]) for entry in catalog_lsas()] + [make_lsa("C3t", t=3)]:
        assert fingerprint(a) == oracle_fingerprint(a)
    cases = reconstruction_cases(rng)
    assert len(cases) == 24
    for case in cases:
        built, target = build_extension(case.data), make_lsa(case.target, **case.target_params)
        assert verify_iso_witness(built, target, case.witness) and oracle_iso_witness(built, target, case.witness)
        wrong = QMatrix([[x + (i == j == 0) for j, x in enumerate(row)] for i, row in enumerate(case.witness.rows)])
        assert verify_iso_witness(built, target, wrong) == oracle_iso_witness(built, target, wrong)
