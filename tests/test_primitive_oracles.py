"""Oracles for the algebra primitives that each have one routine.

The trace row, the two-sided product list, the operator on an invariant
subspace, the bilinear evaluator of a cocycle, its flat layout,
the first asymmetric pair and the recovery of mu from det D are each
computed in one place.  The oracles below are the earlier per-caller forms:
traces of ``left_mult`` matrices, the per-vector span of P*A + A*P, the
restriction through full ``left_mult``/``right_mult`` matrices (shared,
in ``fingerprint_oracles``), ``h2`` assembled from the hand-expanded
coboundaries one unit cochain at a time (shared, in
``test_extension_oracles``), the antisymmetry loop, the separate exact and
float mu loops, and the loop body of ``Cocycle2.of``; the Lie tag read off
two traces of one ad_ei has the tag of the full Milnor form as its oracle.
Old and new must agree on seeded random algebras, on catalog entries and Lie
families in random rational bases, and on random cocycles, non-ideals,
non-Lie inputs and irrational mu included.

The exact jobs that run on the table's integers (the two-sided products of
a subspace and the ideal test, products of pairs and the derived series,
the product span, the Milnor form's D, the L_ei of ``affine_rep``,
``i_g``, ``rank`` and ``quotient_basis``) keep their former ``Fraction``
forms here (``fraction_*``) as oracles, and one derandomized hypothesis
test compares each routine with its oracle.
"""
import random
from fractions import Fraction

import pytest

from fingerprint_oracles import oracle_induced_action_ratio
from test_extension_oracles import oracle_h2
from lsa.algebra import (
    Algebra,
    LieTag,
    MilnorForm,
    NotInScopeError,
    Subspace,
    _first_asymmetry,
    _nonzero_trace_row,
    _require_3d_lie,
    _tag_of_form,
    _trace_row,
    _two_sided,
    conjugated,
    identify_lie_algebra,
    is_lie_algebra,
    is_unimodular,
    left_mult,
    milnor_normal_form,
    multiply,
    right_mult,
)
from lsa.catalog import (
    LIE_FAMILIES,
    _induced_action_ratio,
    _spans,
    catalog_lsas,
    fixtures,
    make_lie,
    reconstruction_cases,
)
from lsa.extensions import (
    BimoduleAction,
    Cocycle2,
    CompatibilityError,
    LieExtensionData,
    build_lie_extension,
    delta2,
    delta2_is_zero,
    h2,
)
from lsa.linalg import (
    QMatrix,
    _cleared,
    nullspace_basis,
    random_fraction,
    random_invertible,
    random_matrix,
    rref,
    sqrt_fraction,
    unit_vec,
    vec_add,
    vec_scale,
    vstack,
    zero_vec,
)

F = Fraction
SEEDS = range(12)


def random_algebra(rng, n, density=0.5):
    return Algebra.from_entries(
        n,
        {
            (i, j, k): random_fraction(rng)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            for k in range(1, n + 1)
            if rng.random() < density
        },
    )


def random_vector(rng, n):
    return tuple(random_fraction(rng) if rng.random() < 0.7 else F(0) for _ in range(n))


def catalog_in_random_bases(rng):
    for entry in catalog_lsas():
        for params in entry.default_params:
            a = entry.make(params)
            yield a
            yield conjugated(a, random_invertible(rng, 3))


def lie_families_in_random_bases(rng):
    for name, family in LIE_FAMILIES.items():
        params = {} if family.param is None else {family.param.name: family.param.sample(rng)}
        lie = make_lie(name, **params)
        yield lie
        yield conjugated(lie, random_invertible(rng, 3))


def sample_algebras(seed):
    rng = random.Random(seed)
    out = [random_algebra(rng, n) for n in (1, 2, 2, 3, 3, 3)]
    out += list(catalog_in_random_bases(rng))
    out += list(lie_families_in_random_bases(rng))
    out += list(fixtures().values())
    return out


# --- oracles: the earlier Fraction forms of the integer routines ----------


def fraction_basis_mults(a):
    """(L_e1..L_en, R_e1..R_en), read off the tensor: the columns of L_ei
    and R_ei are its rows c[i][j] = e_i*e_j and c[j][i] = e_j*e_i."""
    n = a.dim
    return (
        [QMatrix.from_cols(a.c[i]) for i in range(n)],
        [QMatrix.from_cols([a.c[j][i] for j in range(n)]) for i in range(n)],
    )


def fraction_two_sided_products(a, vectors):
    """e_i*w and w*e_i for every w in ``vectors`` and every basis vector e_i."""
    e = [unit_vec(a.dim, i) for i in range(a.dim)]
    return [p for w in vectors for x in e for p in (multiply(a, x, w), multiply(a, w, x))]


def fraction_is_two_sided_ideal(a, w):
    if w.ambient_dim != a.dim:
        raise ValueError("subspace ambient dimension mismatch")
    return Subspace.from_spanning(a.dim, [*w.basis, *fraction_two_sided_products(a, w.basis)]).dim == w.dim


def fraction_restricted(images, basis):
    """The matrix, in a reduced-echelon ``basis``, of the map basis[j] ->
    images[j] into span(basis): the coordinates of a vector of the span are
    its entries at the basis's pivot columns."""
    pivots = [next(k for k, x in enumerate(b) if x != 0) for b in basis]
    return QMatrix([[image[k] for image in images] for k in pivots])


def fraction_milnor_normal_form(lie):
    """U from the rational nullspace of the trace row, D by
    ``fraction_restricted`` of the products e1*u."""
    _require_3d_lie(lie)
    table = lie.table
    trace_row = _nonzero_trace_row(table.c)
    u1, u2 = Subspace.from_spanning(3, nullspace_basis(QMatrix([trace_row]))).basis
    i, tr = next((i, t) for i, t in enumerate(trace_row) if t != 0)
    e1 = vec_scale(Fraction(2 * table.d, tr), unit_vec(3, i))
    d = fraction_restricted([multiply(lie, e1, u) for u in (u1, u2)], [u1, u2])
    det_d = d.rows[0][0] * d.rows[1][1] - d.rows[0][1] * d.rows[1][0]
    return MilnorForm(d, (e1, u1, u2), det_d)


def fraction_i_g(d):
    """I_[g] as the rational nullspace of the stacked R_ej, L_ej and the
    matrices of g(., e_j) and g(e_j, .)."""
    k, g = d.k, d.g
    lefts, rights = fraction_basis_mults(k)
    blocks = []
    for j in range(k.dim):
        blocks.append(rights[j])
        blocks.append(lefts[j])
        blocks.append(QMatrix.from_cols([g.values[i][j] for i in range(k.dim)]))
        blocks.append(QMatrix.from_cols([g.values[j][i] for i in range(k.dim)]))
    return Subspace.from_spanning(k.dim, nullspace_basis(vstack(blocks)))


def fraction_derived_subspace(lie, w):
    return Subspace.from_spanning(lie.dim, [multiply(lie, u, v) for u in w.basis for v in w.basis])


def fraction_product_span(a):
    return Subspace.from_spanning(a.dim, [v for plane in a.c for v in plane])


def fraction_rank(m):
    return len(rref(m)[1])


def fraction_quotient_basis(ambient, sub):
    """The pivots of [ambient | sub] and of [sub | ambient], read off the
    rational echelon form of ``rref``."""
    if any(c >= len(ambient) for c in rref(QMatrix.from_cols([*ambient, *sub]))[1]):
        raise ValueError("sub is not contained in the ambient span")
    pivots = rref(QMatrix.from_cols([*sub, *ambient]))[1]
    return [ambient[c - len(sub)] for c in pivots if c >= len(sub)]


# --- oracles: the earlier per-caller forms --------------------------------


def oracle_trace(a, x):
    return left_mult(a, x).trace()


def oracle_two_sided_products(a, vectors):
    e = [unit_vec(a.dim, i) for i in range(a.dim)]
    return [p for w in vectors for x in e for p in (left_mult(a, x).apply(w), right_mult(a, x).apply(w))]


def oracle_pa_ap_span(a, p):
    """W = P*A + A*P, one product at a time."""
    e = [unit_vec(a.dim, i) for i in range(a.dim)]
    vecs = []
    for w in p.basis:
        for x in e:
            vecs.append(multiply(a, w, x))
            vecs.append(multiply(a, x, w))
    return Subspace.from_spanning(a.dim, vecs)


def oracle_first_asymmetry(a):
    n = a.dim
    for i in range(n):
        for j in range(i, n):
            if a.c[i][j] != tuple(-x for x in a.c[j][i]):
                return (i + 1, j + 1)
    return None


def oracle_tag_of_form(form):
    d = form.det_d
    if d == 0:
        return LieTag("G31")
    if d == 1:
        if form.d == QMatrix.identity(2):
            return LieTag("G32")
        return LieTag("G33")
    if d > 1:
        z = sqrt_fraction(d - 1)
        if z is not None:
            return LieTag("G35", zeta=z)
        return LieTag("G35", zeta=float(d - 1) ** 0.5, exact=False)
    disc = 1 - d
    s = sqrt_fraction(disc)
    if s is not None:
        for mu in ((2 - d + 2 * s) / d, (2 - d - 2 * s) / d):
            if 0 < abs(mu) < 1:
                return LieTag("G34", mu=mu)
        raise RuntimeError("mu recovery failed; internal bug")
    sf = float(disc) ** 0.5
    df = float(d)
    for muf in ((2 - df + 2 * sf) / df, (2 - df - 2 * sf) / df):
        if 0 < abs(muf) < 1 - 1e-12:
            return LieTag("G34", mu=muf, exact=False)
    raise RuntimeError("mu recovery failed; internal bug")


def oracle_cocycle_of(g, x, y):
    out = zero_vec(g.v_dim)
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            out = vec_add(out, vec_scale(xi * yj, g.values[i][j]))
    return out


def oracle_flatten_cocycle(g):
    out = []
    for row in g.values:
        for cell in row:
            out.extend(cell)
    return tuple(out)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as err:
        return type(err)


# --- trace row ------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_trace_row_equals_traces_of_left_multiplications(seed):
    rng = random.Random(1000 + seed)
    for a in sample_algebras(seed):
        row = _trace_row(a.c)
        for x in [unit_vec(a.dim, i) for i in range(a.dim)] + [random_vector(rng, a.dim) for _ in range(3)]:
            assert sum(t * xi for t, xi in zip(row, x)) == oracle_trace(a, x)
        if is_lie_algebra(a):
            assert is_unimodular(a) == all(oracle_trace(a, unit_vec(a.dim, i)) == 0 for i in range(a.dim))


# --- two-sided products ---------------------------------------------------


def two_sided_as_fractions(a, vectors):
    """``_two_sided`` of each vector, cleared on its own, divided back by
    the table's d and the vector's denominator, in the oracle's order:
    e_i*w and w*e_i for each i in turn."""
    n, out = a.dim, []
    for w in vectors:
        dw, (wi,) = _cleared([w])
        products = [tuple(Fraction(x, a.table.d * dw) for x in p) for p in _two_sided(a.table.rows, n, [wi])]
        out += [p for i in range(n) for p in (products[i], products[n + i])]
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_two_sided_products_list_every_product_in_order(seed):
    rng = random.Random(2000 + seed)
    for a in sample_algebras(seed):
        p = fraction_product_span(a)
        assert two_sided_as_fractions(a, p.basis) == oracle_two_sided_products(a, p.basis)
        assert Subspace.from_spanning(a.dim, two_sided_as_fractions(a, p.basis)) == oracle_pa_ap_span(a, p)
        # a random subspace, usually not an ideal
        w = Subspace.from_spanning(a.dim, [random_vector(rng, a.dim) for _ in range(rng.randint(1, a.dim))])
        assert two_sided_as_fractions(a, w.basis) == oracle_two_sided_products(a, w.basis)
        assert Subspace.from_spanning(a.dim, two_sided_as_fractions(a, w.basis)) == oracle_pa_ap_span(a, w)


# --- operator on an invariant subspace ------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_restricted_matrix_maps_the_basis_to_the_images(seed):
    """The Milnor form's D, read at U's pivot columns on integers, is the
    matrix of ad_e1 on U in the basis (u1, u2): it maps the basis to the
    images e1*u, as ``fraction_restricted`` of those images does, and
    ``fraction_restricted`` does so on random invariant subspaces too."""
    rng = random.Random(3000 + seed)
    for lie in lie_families_in_random_bases(rng):
        form = milnor_normal_form(lie)
        e1, u1, u2 = form.adapted_basis
        images = [multiply(lie, e1, u) for u in (u1, u2)]
        d = form.d
        assert d == fraction_restricted(images, [u1, u2])
        assert QMatrix.from_cols([u1, u2]) @ d == QMatrix.from_cols(images)
    for n in (2, 3, 4):
        for m in range(1, n + 1):
            basis = list(Subspace.from_spanning(n, [random_vector(rng, n) for _ in range(m)]).basis)
            if not basis:
                continue
            inside = QMatrix.from_cols(basis) @ random_matrix(rng, len(basis), len(basis))
            images = [inside.col(j) for j in range(len(basis))]
            restricted = fraction_restricted(images, basis)
            assert restricted.shape == (len(basis), len(basis))
            assert QMatrix.from_cols(basis) @ restricted == QMatrix.from_cols(images)


@pytest.mark.parametrize("seed", SEEDS)
def test_milnor_d_is_ad_e1_on_the_trace_kernel(seed):
    for lie in lie_families_in_random_bases(random.Random(4000 + seed)):
        form = milnor_normal_form(lie)
        e1, u1, u2 = form.adapted_basis
        for j, u in enumerate((u1, u2)):
            image = vec_add(vec_scale(form.d.rows[0][j], u1), vec_scale(form.d.rows[1][j], u2))
            assert multiply(lie, e1, u) == image


@pytest.mark.parametrize("seed", SEEDS)
def test_induced_action_ratio_equals_the_full_matrix_restriction(seed):
    rng = random.Random(5000 + seed)
    algebras = list(catalog_in_random_bases(rng)) + [random_algebra(rng, 3, 0.3) for _ in range(6)]
    for a in algebras:
        assert _induced_action_ratio(a, _spans(a)) == oracle_induced_action_ratio(a, fraction_product_span(a))


# --- identity bookkeeping -------------------------------------------------


def commutator_tensor(a):
    """[e_i, e_j] = e_i*e_j - e_j*e_i as lists, antisymmetric for any a."""
    n = a.dim
    return [[[a.c[i][j][k] - a.c[j][i][k] for k in range(n)] for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("seed", SEEDS)
def test_first_asymmetry_equals_the_antisymmetry_loop(seed):
    rng = random.Random(6000 + seed)
    algebras = sample_algebras(seed)
    for a in list(algebras):
        c = commutator_tensor(a)
        algebras.append(Algebra(a.dim, tuple(tuple(tuple(v) for v in plane) for plane in c)))
        # one planted asymmetric pair
        c[rng.randrange(a.dim)][rng.randrange(a.dim)][rng.randrange(a.dim)] += 1
        algebras.append(Algebra(a.dim, tuple(tuple(tuple(v) for v in plane) for plane in c)))
    for a in algebras:
        assert _first_asymmetry(a) == oracle_first_asymmetry(a)
    assert {_first_asymmetry(a) is None for a in algebras} == {True, False}


def test_lie_extension_names_the_first_asymmetric_pair():
    base = fixtures()["aff_R"]
    zero1 = Algebra.from_entries(1, {})
    phi = (QMatrix([[0]]), QMatrix([[0]]))
    cases = [((((1,), (0,)), ((0,), (0,))), (1, 1)), ((((0,), (1,)), ((1,), (0,))), (1, 2))]
    for omega, pair in cases:
        with pytest.raises(CompatibilityError, match=rf"omega is not alternating at \({pair[0]}, {pair[1]}\)"):
            build_lie_extension(LieExtensionData(base, zero1, phi, omega))


def random_form(rng):
    """A trace-2 matrix D and its determinant."""
    a, b, c = (random_fraction(rng) for _ in range(3))
    d = QMatrix([[1 + a, b], [c, 1 - a]])
    return MilnorForm(d, (), (1 + a) * (1 - a) - b * c)


def test_tag_of_form_equals_the_separate_exact_and_float_loops():
    rng = random.Random(7)
    forms = [random_form(rng) for _ in range(400)]
    forms += [milnor_normal_form(lie) for lie in lie_families_in_random_bases(rng)]
    # det D = 1 - a^2 - bc at chosen (a, b, c): G31, G32, G33, G35 exact and
    # not, G34 with rational and irrational mu, negative det
    for a, b, c in [(1, 0, 0), (0, 0, 0), (0, 1, 0), (0, 3, -1), (0, 2, -1), (F(1, 2), 0, 0),
                    (F(1, 3), 0, 0), (0, 1, F(1, 2)), (2, 0, 0), (3, 1, 1), (0, 1, F(1, 3))]:
        d = QMatrix([[1 + F(a), F(b)], [F(c), 1 - F(a)]])
        forms.append(MilnorForm(d, (), (1 + F(a)) * (1 - F(a)) - F(b) * F(c)))
    kinds = set()
    for form in forms:
        tag = outcome(lambda f: _tag_of_form(f.det_d, f.d == QMatrix.identity(2)), form)
        assert tag == outcome(oracle_tag_of_form, form), form.det_d
        kinds.add((tag.kind, tag.exact))
    assert {("G34", True), ("G34", False), ("G35", True), ("G35", False), ("G31", True),
            ("G32", True), ("G33", True)} <= kinds


# --- bilinear maps and their flat layout ----------------------------------


def random_cocycle(rng, k_dim, v_dim):
    return Cocycle2(tuple(
        tuple(random_vector(rng, v_dim) for _ in range(k_dim)) for _ in range(k_dim)
    ))


@pytest.mark.parametrize("seed", SEEDS)
def test_cocycle_evaluation_equals_the_loop(seed):
    rng = random.Random(8000 + seed)
    for k_dim in (1, 2, 3):
        for v_dim in (1, 2, 3):
            g = random_cocycle(rng, k_dim, v_dim)
            for _ in range(5):
                x, y = random_vector(rng, k_dim), random_vector(rng, k_dim)
                value = g.of(x, y)
                assert value == oracle_cocycle_of(g, x, y)
                assert all(type(v) is Fraction for v in value)
            assert g.flat == oracle_flatten_cocycle(g)
            assert Cocycle2.from_flat(g.flat, k_dim, v_dim) == g


def actions(seed):
    rng = random.Random(9000 + seed)
    out = [case.data.action for case in reconstruction_cases(rng)]
    # random matrices over the 2D fixtures: mostly not bimodules
    for k in (fixtures()["N2"], fixtures()["r2_zero"], fixtures()["r2_square"]):
        v_dim = rng.randint(1, 2)
        out.append(BimoduleAction(
            k, v_dim,
            tuple(random_matrix(rng, v_dim, v_dim) for _ in range(2)),
            tuple(random_matrix(rng, v_dim, v_dim) for _ in range(2)),
        ))
    return out


@pytest.mark.parametrize("seed", range(4))
def test_h2_equals_the_unit_cocycle_loop(seed):
    rng = random.Random(seed)
    for action in actions(seed):
        res = outcome(h2, action)
        old = outcome(oracle_h2, action)
        if isinstance(res, type):
            assert res is old is ValueError
            continue
        assert (res.dim_z2, res.dim_b2, res.dim_h2) == old[:3]
        assert tuple(r.values for r in res.representatives) == old[3]
        assert tuple(b.values for b in res.b2_basis) == old[4]
        g = random_cocycle(rng, action.k.dim, action.v_dim)
        image = delta2(action, g)
        flat = [x for plane in image for row in plane for cell in row for x in cell]
        assert delta2_is_zero(action, g) == all(x == 0 for x in flat)
        for rep in res.representatives:
            assert delta2_is_zero(action, rep)


# --- Lie tag from traces ----------------------------------------------------


def tag_of_milnor_form(lie):
    """The tag of the full Milnor form: D's determinant and D == I."""
    try:
        form = milnor_normal_form(lie)
    except NotInScopeError as err:
        return LieTag("not_in_scope", reason=str(err))
    return _tag_of_form(form.det_d, form.d == QMatrix.identity(2))


def lie_of_d(d):
    """[e1, e2] = D e2 and [e1, e3] = D e3 in coordinates (e2, e3), [e2, e3] = 0."""
    return Algebra.from_brackets(3, {(1, 2): {2: d[0][0], 3: d[1][0]}, (1, 3): {2: d[0][1], 3: d[1][1]}})


UNIMODULAR = {
    "abelian": {},
    "heisenberg": {(2, 3): {1: 1}},
    "e(2)": {(1, 2): {3: 1}, (1, 3): {2: -1}},
    "e(1,1)": {(1, 2): {2: 1}, (1, 3): {3: -1}},
    "so(3)": {(1, 2): {3: 1}, (1, 3): {2: -1}, (2, 3): {1: 1}},
    "sl(2)": {(1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}},
}


@pytest.mark.parametrize("seed", SEEDS)
def test_tag_from_traces_equals_the_tag_of_the_milnor_form(seed):
    rng = random.Random(6000 + seed)
    lies = list(lie_families_in_random_bases(rng))
    # det D = 1 on both sides of the G32/G33 boundary, and D = (t/2) I at
    # several traces t; rational D with any nonzero trace
    ds = [[[1, 0], [0, 1]], [[1, 1], [0, 1]], [[1, 0], [1, 1]], [[F(-3, 2), 0], [0, F(-3, 2)]],
          [[2, F(1, 3)], [-3, 0]], [[F(1, 2), 1], [F(1, 2), F(3, 2)]]]
    while len(ds) < 14:
        d = [[random_fraction(rng) for _ in range(2)] for _ in range(2)]
        if d[0][0] + d[1][1] != 0:
            ds.append(d)
    lies += [lie_of_d(d) for d in ds]
    lies += [Algebra.from_brackets(3, brackets) for brackets in UNIMODULAR.values()]
    lies = [conjugated(lie, random_invertible(rng, 3)) for lie in lies] + lies
    seen = set()
    for lie in lies:
        tag = identify_lie_algebra(lie)
        expected = tag_of_milnor_form(lie)
        assert tag == expected and str(tag) == str(expected), lie.c
        seen.add(tag.reason or tag.kind)
    assert {"G31", "G32", "G33", "G34", "G35", "Lie algebra is unimodular", "Lie algebra is not solvable"} <= seen


def test_tag_from_traces_refuses_what_the_milnor_form_refuses():
    # not 3D, and not a Lie algebra: the same ValueError text
    for a in (Algebra.from_brackets(2, {(1, 2): {2: 1}}),
              Algebra.from_entries(3, {(1, 1, 3): 1, (2, 3, 1): 1, (3, 1, 3): -1}),
              Algebra.from_entries(3, {(1, 2, 2): 1})):
        with pytest.raises(ValueError) as trace_err:
            identify_lie_algebra(a)
        with pytest.raises(ValueError) as form_err:
            milnor_normal_form(a)
        assert str(trace_err.value) == str(form_err.value)


# --- the integer routines against their Fraction forms ----------------------


def test_integer_routines_equal_their_fraction_forms():
    """Each exact job that runs on the table's integers equals its former
    ``Fraction`` form: ``_two_sided`` and ``is_two_sided_ideal`` on ideals
    and on subspaces that are not, ``_int_product`` and
    ``derived_subspace``, ``product_span``, ``milnor_normal_form`` (values
    and refusals), the L_ei of ``affine_rep``, ``i_g`` with K of dims 1-3,
    V of dims 1-2 and random g, and ``rank`` and ``quotient_basis`` with
    dependent ambient vectors and ``sub`` inside span(ambient) or not (the
    same ``ValueError``).  Algebras are random of dims 1-4 (mostly neither
    left-symmetric nor Lie), catalog entries and fixtures, Lie families and
    unimodular or simple Lie algebras, in random rational bases; every
    outcome below is reached."""
    pytest.importorskip("hypothesis")
    from hypothesis import Phase, given, settings, strategies as st

    from lsa.affine import affine_rep
    from lsa.algebra import (
        _int_product,
        check_left_symmetric,
        derived_subspace,
        find_ideals_dim_le3,
        is_two_sided_ideal,
        product_span,
    )
    from lsa.extensions import ExtensionData, i_g, trivial_action
    from lsa.linalg import quotient_basis, rank

    rationals = st.one_of(st.just(F(0)), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))
    entries = list(catalog_lsas())
    others = [*fixtures().values(), *(Algebra.from_entries(n, {}) for n in (1, 2, 3))]
    lies = [*LIE_FAMILIES, *UNIMODULAR]

    def vectors(draw, count, n):
        return [tuple(draw(rationals) for _ in range(n)) for _ in range(count)]

    @st.composite
    def algebras(draw, dims=(1, 2, 3, 4)):
        rng = random.Random(draw(st.integers(0, 2**32)))
        kind = draw(st.sampled_from(["random", "catalog", "other", "lie"]))
        if kind == "random":
            n = draw(st.sampled_from(dims))
            idx = st.integers(1, n)
            a = Algebra.from_entries(n, draw(st.dictionaries(st.tuples(idx, idx, idx), rationals, max_size=6)))
        elif kind == "catalog":
            entry = draw(st.sampled_from(entries))
            a = entry.make(entry.sample_params(rng))
        elif kind == "other":
            a = draw(st.sampled_from([b for b in others if b.dim in dims]))
        else:
            name = draw(st.sampled_from(lies))
            if name in UNIMODULAR:
                a = Algebra.from_brackets(3, UNIMODULAR[name])
            else:
                param = LIE_FAMILIES[name].param
                a = make_lie(name, **({} if param is None else {param.name: param.sample(rng)}))
        if a.dim not in dims:
            a = Algebra.from_entries(draw(st.sampled_from(dims)), {})
        return conjugated(a, random_invertible(rng, a.dim)) if draw(st.booleans()) else a

    def subspaces(draw, a):
        n = a.dim
        ideals = [product_span(a), Subspace(n, ()), Subspace.from_spanning(n, [unit_vec(n, i) for i in range(n)])]
        if n <= 3:
            ideals += find_ideals_dim_le3(a)
        if draw(st.booleans()):
            return draw(st.sampled_from(ideals))
        return Subspace.from_spanning(n, vectors(draw, draw(st.integers(1, n)), n))

    def result(fn, *args):
        """fn(*args), or the type and message of what it raises."""
        try:
            return fn(*args)
        except (ValueError, NotInScopeError) as err:
            return type(err).__name__, str(err)

    outcomes = set()

    # no shrink phase: a failing example is reported as drawn
    @settings(max_examples=120, deadline=None, database=None, derandomize=True,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(st.data())
    def check(data):
        draw = data.draw
        a = draw(algebras())
        n = a.dim
        w = subspaces(draw, a)
        assert two_sided_as_fractions(a, w.basis) == oracle_two_sided_products(a, w.basis)
        ideal = is_two_sided_ideal(a, w)
        assert ideal == fraction_is_two_sided_ideal(a, w)
        outcomes.add("ideal" if ideal else "not an ideal")
        u, v = vectors(draw, 2, n)
        du, (ui,) = _cleared([u])
        dv, (vi,) = _cleared([v])
        product = _int_product(a.table.rows, n, ui, vi)
        assert tuple(Fraction(x, a.table.d * du * dv) for x in product) == multiply(a, u, v)
        assert derived_subspace(a, w) == fraction_derived_subspace(a, w)
        assert product_span(a) == fraction_product_span(a)
        form = result(milnor_normal_form, a)
        assert form == result(fraction_milnor_normal_form, a)
        outcomes.add("milnor form" if isinstance(form, MilnorForm) else form[0])
        if n == 3 and check_left_symmetric(a).ok:
            assert [m for m, _ in affine_rep(a).generators] == fraction_basis_mults(a)[0]
            outcomes.add("affine_rep")
        # I_[g]: K of dims 1-3, V of dims 1-2, g random and often sparse
        k = draw(algebras(dims=(1, 2, 3)))
        v_dim = draw(st.integers(1, 2))
        zero = st.just(F(0))
        cells = st.one_of(zero, zero, rationals) if draw(st.booleans()) else rationals
        g = Cocycle2(tuple(
            tuple(tuple(draw(cells) for _ in range(v_dim)) for _ in range(k.dim)) for _ in range(k.dim)
        ))
        ext = ExtensionData(k, Algebra.from_entries(v_dim, {}), trivial_action(k, v_dim), g)
        found = i_g(ext)
        assert found == fraction_i_g(ext)
        outcomes.add("I_g = 0" if found.dim == 0 else "I_g != 0")
        # quotient_basis and rank: ambient with dependent vectors, sub
        # inside span(ambient) or with an arbitrary vector mixed in
        m = draw(st.integers(1, 4))
        ambient = vectors(draw, draw(st.integers(0, 4)), m)
        for _ in range(draw(st.integers(0, 2))):
            # a combination of the first and last vectors, zero if there are none
            x, y = draw(rationals), draw(rationals)
            first, last = (ambient[0], ambient[-1]) if ambient else ((F(0),) * m,) * 2
            ambient.insert(draw(st.integers(0, len(ambient))), tuple(x * p + y * q for p, q in zip(first, last)))
        sub = [
            tuple(sum((draw(st.integers(-1, 1)) * b[i] for b in ambient), F(0)) for i in range(m))
            for _ in range(draw(st.integers(0, 3)))
        ]
        if draw(st.booleans()):
            sub.insert(draw(st.integers(0, len(sub))), tuple(vectors(draw, 1, m)[0]))
        quotient = result(quotient_basis, ambient, sub)
        assert quotient == result(fraction_quotient_basis, ambient, sub)
        outcomes.add("quotient" if isinstance(quotient, list) else "not contained")
        if ambient:
            assert rank(QMatrix(ambient)) == fraction_rank(QMatrix(ambient))

    check()
    assert outcomes == {
        "ideal", "not an ideal", "milnor form", "ValueError", "NotInScopeError", "affine_rep",
        "I_g = 0", "I_g != 0", "quotient", "not contained",
    }
