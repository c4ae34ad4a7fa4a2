"""Oracles for the extension checks.

``check_kim_conditions`` and ``build_lie_extension`` read their verdicts off
the identity engine run on the extended product.  The oracles below write
the five extension conditions, the simplified conditions (i)-(iii) for a
trivial V product, and the Lie compatibility identities out as separate
loops over basis tuples, and the two must agree on every reconstruction
path and on single-entry perturbations of its data.  ``is_central_extension``
reads the V rows and columns of the extended tensor; its oracle asks, for
each V basis vector, whether it lies in the center of the extension.

delta1 and delta2 are matrices written entry by entry from the structure
constants (``_delta1_rows``, ``_delta2_rows``).  Their oracles are the
coboundary formulas expanded by hand, one ``QMatrix.apply`` per term, and
``oracle_h2`` assembles both matrices from them one unit cochain at a time;
matrices, ``h2`` and ``cocycles_cohomologous`` must agree with them on
random actions, bimodules or not, over left-symmetric and other K.
"""
import itertools
import random
from fractions import Fraction

import pytest

from lsa.algebra import Algebra, Subspace, center, left_mult, lie_algebra_of, multiply, right_mult
from lsa.catalog import catalog_lsas, fixtures, reconstruction_cases
from lsa.extensions import (
    CONDITION_OF_BLOCKS,
    BimoduleAction,
    Cocycle2,
    CompatibilityError,
    ExtensionData,
    ExtensionError,
    LieExtensionData,
    _cleared_action,
    _delta1_rows,
    _delta2_rows,
    build_extension,
    build_lie_extension,
    check_kim_conditions,
    cocycles_cohomologous,
    delta1,
    delta2,
    delta2_is_zero,
    h2,
    is_central_extension,
    trivial_action,
)
from lsa.linalg import (
    QMatrix,
    nullspace_basis,
    quotient_basis,
    random_fraction,
    rank,
    solve,
    unit_vec,
    vec,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
    zero_vec,
)

SEEDS = range(20)


def combination(mats, x, size):
    out = QMatrix.zero(size, size)
    for i, xi in enumerate(x):
        if xi != 0:
            out = out + mats[i].scale(xi)
    return out


def oracle_delta1(action, h):
    """delta1 h (x, y) = rho_y(h(x)) + lambda_x(h(y)) - h(x.y), term by term."""
    k = action.k
    rows = []
    for i in range(k.dim):
        row = []
        for j in range(k.dim):
            val = vec_add(action.rho[j].apply(h.col(i)), action.lam[i].apply(h.col(j)))
            row.append(vec_sub(val, h.apply(k.c[i][j])))
        rows.append(tuple(row))
    return Cocycle2(tuple(rows))


def oracle_delta2(action, g):
    """delta2 g (x, y, z) on basis triples, indexed [i][j][l], term by term."""
    k = action.k
    e = [unit_vec(k.dim, i) for i in range(k.dim)]
    out = []
    for i in range(k.dim):
        plane = []
        for j in range(k.dim):
            row = []
            for l in range(k.dim):
                val = g.of(e[i], k.c[j][l])
                val = vec_sub(val, g.of(e[j], k.c[i][l]))
                val = vec_add(val, action.lam[i].apply(g.values[j][l]))
                val = vec_sub(val, action.lam[j].apply(g.values[i][l]))
                bracket = vec_sub(k.c[i][j], k.c[j][i])
                val = vec_sub(val, g.of(bracket, e[l]))
                omega = vec_sub(g.values[i][j], g.values[j][i])
                val = vec_sub(val, action.rho[l].apply(omega))
                row.append(val)
            plane.append(tuple(row))
        out.append(tuple(plane))
    return tuple(out)


def flat(nested):
    """The scalars of a cocycle's values or of delta2's output, row-major."""
    out = []
    for part in nested:
        out.extend(flat(part) if isinstance(part, tuple) else [part])
    return tuple(out)


def unit_map(action, i, n):
    """The map K -> V sending e_i to e_n and the other basis vectors to 0."""
    rows = [[Fraction(0)] * action.k.dim for _ in range(action.v_dim)]
    rows[n][i] = Fraction(1)
    return QMatrix(rows)


def oracle_delta1_columns(action):
    """delta1 of each unit map, flattened: the columns of its matrix."""
    return [
        flat(oracle_delta1(action, unit_map(action, i, n)).values)
        for i in range(action.k.dim) for n in range(action.v_dim)
    ]


def oracle_delta2_columns(action):
    """delta2 of each unit cocycle, flattened: the columns of its matrix."""
    k_dim, v_dim = action.k.dim, action.v_dim
    n2 = k_dim * k_dim * v_dim
    return [flat(oracle_delta2(action, Cocycle2.from_flat(unit_vec(n2, t), k_dim, v_dim))) for t in range(n2)]


def oracle_h2(action, d1_columns=None, d2_columns=None):
    """(dim Z2, dim B2, dim H2, representatives, B2 basis) from the
    unit-cochain loops (or from their columns, where already made);
    ``ValueError`` where B2 is not inside Z2."""
    k_dim, v_dim = action.k.dim, action.v_dim
    n2 = k_dim * k_dim * v_dim
    z2 = nullspace_basis(QMatrix.from_cols(d2_columns or oracle_delta2_columns(action)))
    b2 = list(Subspace.from_spanning(n2, d1_columns or oracle_delta1_columns(action)).basis)
    reps = quotient_basis(z2, b2)
    return (
        len(z2),
        len(b2),
        len(z2) - len(b2),
        tuple(Cocycle2.from_flat(r, k_dim, v_dim).values for r in reps),
        tuple(Cocycle2.from_flat(b, k_dim, v_dim).values for b in b2),
    )


def oracle_cohomologous(action, g1, g2, d1_columns=None):
    """Solve g1 - g2 = delta1 h on the oracle's columns; h or None."""
    sols = solve(QMatrix.from_cols(d1_columns or oracle_delta1_columns(action)), [flat((g1 - g2).values)])
    if sols is None:
        return None
    v_dim = action.v_dim
    return QMatrix.from_cols([sols[0][i: i + v_dim] for i in range(0, len(sols[0]), v_dim)])


def oracle_kim(d):
    """The five conditions as separate loops; (verdicts, simplified or None)."""
    k, v, action, g = d.k, d.v, d.action, d.g
    lam, rho = action.lam, action.rho
    ek = [unit_vec(k.dim, i) for i in range(k.dim)]
    ev = [unit_vec(v.dim, m) for m in range(v.dim)]
    kr, vr = range(k.dim), range(v.dim)
    mv = lambda a, b: multiply(v, a, b)  # noqa: E731
    bracket = lambda i, j: vec_sub(multiply(k, ek[i], ek[j]), multiply(k, ek[j], ek[i]))  # noqa: E731
    # 1: lambda_x(a.b) = lambda_x(a).b + a.lambda_x(b) - rho_x(a).b
    c1 = all(
        lam[i].apply(mv(ev[p], ev[q]))
        == vec_sub(
            vec_add(mv(lam[i].apply(ev[p]), ev[q]), mv(ev[p], lam[i].apply(ev[q]))),
            mv(rho[i].apply(ev[p]), ev[q]),
        )
        for i in kr for p in vr for q in vr
    )
    # 2: rho_x([a,b]) = a.rho_x(b) - b.rho_x(a)
    c2 = all(
        rho[i].apply(vec_sub(mv(ev[p], ev[q]), mv(ev[q], ev[p])))
        == vec_sub(mv(ev[p], rho[i].apply(ev[q])), mv(ev[q], rho[i].apply(ev[p])))
        for i in kr for p in vr for q in range(p + 1, v.dim)
    )
    # 3: [lambda_x, lambda_y] - lambda_[x,y] = L_{g(x,y) - g(y,x)}
    c3 = all(
        lam[i] @ lam[j] - lam[j] @ lam[i] - combination(lam, bracket(i, j), v.dim)
        == left_mult(v, vec_sub(g.values[i][j], g.values[j][i]))
        for i in kr for j in range(i + 1, k.dim)
    )
    # 4: [lambda_x, rho_y] + rho_y rho_x - rho_{x.y} = R_{g(x,y)}
    c4 = all(
        lam[i] @ rho[j] - rho[j] @ lam[i] + rho[j] @ rho[i]
        - combination(rho, multiply(k, ek[i], ek[j]), v.dim)
        == right_mult(v, g.values[i][j])
        for i in kr for j in kr
    )
    # 5: delta2 g = 0 on every basis triple
    d2 = oracle_delta2(action, g)
    c5 = all(vec_is_zero(d2[i][j][l]) for i, j, l in itertools.product(kr, repeat=3))
    simplified = None
    if all(vec_is_zero(mv(a, b)) for a in ev for b in ev):
        simplified = (
            all(
                lam[i] @ lam[j] - lam[j] @ lam[i] == combination(lam, bracket(i, j), v.dim)
                for i in kr for j in range(i + 1, k.dim)
            ),
            all(
                lam[i] @ rho[j] - rho[j] @ lam[i]
                == combination(rho, multiply(k, ek[i], ek[j]), v.dim) - rho[j] @ rho[i]
                for i in kr for j in kr
            ),
            delta2_is_zero(action, g),
        )
    return (c1, c2, c3, c4, c5), simplified


def oracle_lie(d):
    """Compatibility checks and the bracket built term by term; None if refused."""
    base, ker, phi, omega = d.g_base, d.a_kernel, d.phi, d.omega
    n, m = base.dim, ker.dim
    e = [unit_vec(n, i) for i in range(n)]
    ea = [unit_vec(m, i) for i in range(m)]
    phi_of = lambda x: combination(phi, x, m)  # noqa: E731

    def omega_of(x, y):
        out = zero_vec(m)
        for i, j in itertools.product(range(n), repeat=2):
            if x[i] != 0 and y[j] != 0:
                out = vec_add(out, vec_scale(x[i] * y[j], omega[i][j]))
        return out

    alternating = all(
        omega[i][j] == tuple(-x for x in omega[j][i]) for i in range(n) for j in range(n)
    )
    derivations = all(
        mat.apply(multiply(ker, ea[p], ea[q]))
        == vec_add(multiply(ker, mat.apply(ea[p]), ea[q]), multiply(ker, ea[p], mat.apply(ea[q])))
        for mat in phi for p in range(m) for q in range(p + 1, m)
    )
    compatible = all(
        phi[i] @ phi[j] - phi[j] @ phi[i]
        == phi_of(multiply(base, e[i], e[j])) + left_mult(ker, omega[i][j])
        for i in range(n) for j in range(i + 1, n)
    )

    def cocycle_ok(x, y, z):
        lhs = vec_sub(omega_of(multiply(base, x, y), z), omega_of(x, multiply(base, y, z)))
        lhs = vec_add(lhs, omega_of(y, multiply(base, x, z)))
        rhs = vec_add(phi_of(x).apply(omega_of(y, z)), phi_of(y).apply(omega_of(z, x)))
        return lhs == vec_add(rhs, phi_of(z).apply(omega_of(x, y)))

    cocycle = all(
        cocycle_ok(e[i], e[j], e[l])
        for i in range(n) for j in range(i + 1, n) for l in range(j + 1, n)
    )
    if not (alternating and derivations and compatible and cocycle):
        return None
    total = n + m
    c = []
    for i in range(total):
        plane = []
        for j in range(total):
            x = e[i] if i < n else zero_vec(n)
            y = e[j] if j < n else zero_vec(n)
            a = ea[i - n] if i >= n else zero_vec(m)
            b = ea[j - n] if j >= n else zero_vec(m)
            kpart = vec_add(multiply(ker, a, b), vec_sub(phi_of(x).apply(b), phi_of(y).apply(a)))
            plane.append(multiply(base, x, y) + vec_add(kpart, omega_of(x, y)))
        c.append(tuple(plane))
    return tuple(c)


def nonzero(rng):
    x = Fraction(0)
    while x == 0:
        x = random_fraction(rng)
    return x


def bump(mats, rng):
    """The matrices with one random entry changed by a nonzero rational."""
    which = rng.randrange(len(mats))
    rows = [list(r) for r in mats[which].rows]
    r, c = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
    rows[r][c] += nonzero(rng)
    return tuple(QMatrix(rows) if t == which else m for t, m in enumerate(mats))


def bump_cells(cells, rng):
    """A k x k array of vectors with one random coordinate changed."""
    i, j = rng.randrange(len(cells)), rng.randrange(len(cells))
    m = rng.randrange(len(cells[i][j]))
    out = [[list(cell) for cell in row] for row in cells]
    out[i][j][m] += nonzero(rng)
    return tuple(tuple(tuple(cell) for cell in row) for row in out)


def kim_inputs():
    """Every reconstruction path at 20 seeds, plus for each one the data
    with one entry of lambda, of rho and of g perturbed."""
    for seed in SEEDS:
        rng = random.Random(1000 + seed)
        for case in reconstruction_cases(random.Random(seed)):
            d = case.data
            action = d.action
            yield d
            yield ExtensionData(d.k, d.v, BimoduleAction(d.k, d.v.dim, bump(action.lam, rng), action.rho), d.g)
            yield ExtensionData(d.k, d.v, BimoduleAction(d.k, d.v.dim, action.lam, bump(action.rho, rng)), d.g)
            yield ExtensionData(d.k, d.v, action, Cocycle2(bump_cells(d.g.values, rng)))


def test_kim_conditions_agree_with_the_separate_loops():
    seen = failing = 0
    for d in kim_inputs():
        report = check_kim_conditions(d)
        expected, simplified = oracle_kim(d)
        assert report.verdicts == expected, (d, report.witnesses)
        assert report.verdicts[4] == delta2_is_zero(d.action, d.g)
        if simplified is not None:
            assert expected[:2] == (True, True)
            assert simplified == expected[2:]
        for cond, triple, lhs, rhs in report.witnesses:
            blocks = "".join("K" if i <= d.k.dim else "V" for i in triple)
            assert CONDITION_OF_BLOCKS[blocks] == cond and lhs != rhs
        seen += 1
        failing += not report.ok
    # the perturbations reach failing data, and not every perturbation fails
    assert seen == 4 * 24 * len(SEEDS)
    assert 0 < failing < seen


def oracle_is_central(d):
    """Each V basis vector lies in the center of the built extension: one
    rank question per vector."""
    ext = build_extension(d)
    c = list(center(ext).basis)
    return all(
        rank(QMatrix.from_rows([*c, unit_vec(ext.dim, d.k.dim + m)])) == rank(QMatrix.from_rows(c))
        for m in range(d.v.dim)
    )


def central_inputs():
    """The Kim inputs of five seeds, each also with a trivial action and g
    kept or zeroed."""
    for d in itertools.islice(kim_inputs(), 4 * 24 * 5):
        trivial = trivial_action(d.k, d.v.dim)
        yield d
        yield ExtensionData(d.k, d.v, trivial, d.g)
        yield ExtensionData(d.k, d.v, trivial, Cocycle2.zero(d.k.dim, d.v.dim))


def test_is_central_extension_matches_center_oracle():
    verdicts = {"central": 0, "not_central": 0, "refused": 0}
    for d in central_inputs():
        try:
            expected = oracle_is_central(d)
        except ExtensionError:
            with pytest.raises(ExtensionError):
                is_central_extension(d)
            verdicts["refused"] += 1
            continue
        assert is_central_extension(d) == expected, d
        verdicts["central" if expected else "not_central"] += 1
    assert min(verdicts.values()) > 20, verdicts


def induced_lie_data(d):
    """phi = lambda - rho and omega = g - g^T over the commutator algebras."""
    kd = d.k.dim
    phi = tuple(d.action.lam[i] - d.action.rho[i] for i in range(kd))
    omega = tuple(
        tuple(vec_sub(d.g.values[i][j], d.g.values[j][i]) for j in range(kd)) for i in range(kd)
    )
    return lie_algebra_of(d.k), lie_algebra_of(d.v), phi, omega


def lie_inputs():
    """The induced data of every reconstruction path at 20 seeds, plus one
    perturbation of phi and two of omega: one entry alone, which breaks
    alternation, and a pair that keeps it."""
    for seed in SEEDS:
        rng = random.Random(2000 + seed)
        for case in reconstruction_cases(random.Random(seed)):
            base, ker, phi, omega = induced_lie_data(case.data)
            yield LieExtensionData(base, ker, phi, omega)
            yield LieExtensionData(base, ker, bump(phi, rng), omega)
            yield LieExtensionData(base, ker, phi, bump_cells(omega, rng))
            i, j = rng.randrange(base.dim), rng.randrange(base.dim)
            delta = vec_scale(nonzero(rng), unit_vec(ker.dim, rng.randrange(ker.dim)))
            cells = [list(row) for row in omega]
            cells[i][j] = vec_add(cells[i][j], delta)
            cells[j][i] = vec_sub(cells[j][i], delta)
            yield LieExtensionData(base, ker, phi, tuple(tuple(row) for row in cells))


def test_lie_extension_agrees_with_the_separate_checks():
    seen = refused = 0
    for d in lie_inputs():
        expected = oracle_lie(d)
        try:
            got = build_lie_extension(d).c
        except CompatibilityError:
            got = None
        assert got == expected, d
        seen += 1
        refused += got is None
    assert 0 < refused < seen


# Base [e1, e2] = e2, [e1, e3] = e3; each row breaks one compatibility
# identity and keeps the others, so the first Jacobi failure of the extended
# bracket lies in the named block.
AFF_BASE = Algebra.from_brackets(3, {(1, 2): {2: 1}, (1, 3): {3: 1}})
AFF_KERNEL = Algebra.from_brackets(2, {(1, 2): {2: 1}})
LINE = Algebra.from_entries(1, {})
SCALARS = lambda *xs: tuple(QMatrix([[x]]) for x in xs)  # noqa: E731
NO_OMEGA = lambda m: tuple(tuple(zero_vec(m) for _ in range(3)) for _ in range(3))  # noqa: E731
OMEGA_23 = tuple(
    tuple(vec([{(1, 2): 1, (2, 1): -1}.get((i, j), 0)]) for j in range(3)) for i in range(3)
)


@pytest.mark.parametrize(
    "d, message",
    [
        # diag(1, 0) is not a derivation of [a1, a2] = a2
        (LieExtensionData(AFF_BASE, AFF_KERNEL, (QMatrix([[1, 0], [0, 0]]), QMatrix.zero(2, 2),
                                                  QMatrix.zero(2, 2)), NO_OMEGA(2)),
         "phi(e1) is not a derivation of the kernel at basis triple (1, 4, 5)"),
        # phi(e2) = 1 but [phi(e1), phi(e2)] = 0 != phi([e1, e2])
        (LieExtensionData(AFF_BASE, LINE, SCALARS(0, 1, 0), NO_OMEGA(1)),
         "[phi(x), phi(y)] != phi([x,y]) + ad_omega(x,y) at basis triple (1, 2, 4)"),
        # omega(e2, e3) = a with phi = 0: the cocycle identity at (e1, e2, e3) gives 2a
        (LieExtensionData(AFF_BASE, LINE, SCALARS(0, 0, 0), OMEGA_23),
         "omega cocycle identity fails at basis triple (1, 2, 3)"),
    ],
)
def test_lie_refusal_names_the_failing_identity(d, message):
    assert oracle_lie(d) is None
    with pytest.raises(CompatibilityError) as err:
        build_lie_extension(d)
    assert str(err.value) == message + " of the extension"


def left_symmetric_bases():
    """Left-symmetric K of dims 1-3: zero products, the 1D idempotent, the
    2D fixtures and the catalog defaults."""
    out = [Algebra.from_entries(n, {}) for n in (1, 2, 3)]
    out.append(Algebra.from_entries(1, {(1, 1, 1): 1}))
    out += [a for a in fixtures().values() if a.dim == 2]
    return out + [entry.make() for entry in catalog_lsas() if entry.param is None]


def test_coboundary_matrices_equal_the_hand_expanded_oracles():
    """Entry by entry, ``_delta1_rows`` / d and ``_delta2_rows`` / d are the
    matrices of the hand-expanded coboundaries; ``delta1`` and ``delta2``
    agree with them on random cochains, ``h2`` agrees with ``oracle_h2`` in
    dimensions, representatives and B2 basis or refuses where it does, and
    ``cocycles_cohomologous`` gives the oracle's answer.  K is
    left-symmetric or random, of dims 1-3, V of dims 1-3, and the actions
    random (mostly not bimodules), trivial, or a reconstruction path's."""
    pytest.importorskip("hypothesis")
    from hypothesis import Phase, given, settings, strategies as st

    rationals = st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))
    paths = [case.data.action for case in reconstruction_cases(random.Random(0))]
    bases = left_symmetric_bases()

    def matrices(draw, count, nrows, ncols):
        return tuple(
            QMatrix([[draw(rationals) for _ in range(ncols)] for _ in range(nrows)]) for _ in range(count)
        )

    @st.composite
    def actions(draw):
        kind = draw(st.sampled_from(["random", "trivial", "path"]))
        if kind == "path":
            return draw(st.sampled_from(paths))
        if draw(st.booleans()):
            k = draw(st.sampled_from(bases))
        else:
            n = draw(st.integers(1, 3))
            k = Algebra(n, tuple(tuple(tuple(draw(rationals) for _ in range(n)) for _ in range(n)) for _ in range(n)))
        v_dim = draw(st.integers(1, 3))
        if kind == "trivial":
            return trivial_action(k, v_dim)
        return BimoduleAction(k, v_dim, matrices(draw, k.dim, v_dim, v_dim), matrices(draw, k.dim, v_dim, v_dim))

    def cocycles(draw, k_dim, v_dim):
        return Cocycle2(tuple(
            tuple(tuple(draw(rationals) for _ in range(v_dim)) for _ in range(k_dim)) for _ in range(k_dim)
        ))

    outcomes = set()

    # no shrink phase: a failing example is reported as drawn
    @settings(max_examples=80, deadline=None, database=None, derandomize=True,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(st.data())
    def check(data):
        action = data.draw(actions())
        k_dim, v_dim = action.k.dim, action.v_dim
        d1_columns, d2_columns = oracle_delta1_columns(action), oracle_delta2_columns(action)
        cleared = _cleared_action(action)
        for (d, rows), columns in ((_delta1_rows(cleared), d1_columns), (_delta2_rows(cleared), d2_columns)):
            assert d > 0 and all(type(x) is int for row in rows for x in row)
            assert [[Fraction(x, d) for x in row] for row in rows] == [list(r) for r in zip(*columns)]
        h = matrices(data.draw, 1, v_dim, k_dim)[0]
        g1, g2 = cocycles(data.draw, k_dim, v_dim), cocycles(data.draw, k_dim, v_dim)
        assert delta1(action, h) == oracle_delta1(action, h)
        assert delta2(action, g1) == oracle_delta2(action, g1)
        try:
            res = h2(action)
        except ValueError as err:
            assert str(err).startswith("delta2 . delta1 != 0")
            with pytest.raises(ValueError):
                oracle_h2(action, d1_columns, d2_columns)
            outcomes.add("refused")
        else:
            assert (res.dim_z2, res.dim_b2, res.dim_h2) + (
                tuple(r.values for r in res.representatives), tuple(b.values for b in res.b2_basis)
            ) == oracle_h2(action, d1_columns, d2_columns)
            outcomes.add("h2")
        if data.draw(st.booleans()):  # cohomologous by construction
            g1 = g2 + oracle_delta1(action, h)
        found = cocycles_cohomologous(action, g1, g2)
        assert found == oracle_cohomologous(action, g1, g2, d1_columns)
        outcomes.add("cohomologous" if found is not None else "not cohomologous")

    check()
    assert outcomes == {"h2", "refused", "cohomologous", "not cohomologous"}
