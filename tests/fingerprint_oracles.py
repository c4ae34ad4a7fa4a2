"""The induced-action ratio in its earlier form, shared by the primitive
and the cleared-tensor oracle tests: Lb and Rb restricted from the full
``left_mult``/``right_mult`` matrices by a solve in P's basis, with the
first standard basis vector of ``quotient_basis`` as the lift."""
from lsa.algebra import left_mult, multiply, right_mult
from lsa.linalg import QMatrix, quotient_basis, solve, unit_vec, vec_is_zero


def oracle_induced_action_ratio(a, p):
    if p.dim != 2 or a.dim - p.dim != 1:
        return None
    if any(not vec_is_zero(multiply(a, x, y)) for x in p.basis for y in p.basis):
        return None
    basis_matrix = QMatrix.from_cols(list(p.basis))

    def restrict(m):
        cols = solve(basis_matrix, [m.apply(bv) for bv in p.basis])
        return None if cols is None else QMatrix.from_cols(cols)

    lift = quotient_basis([unit_vec(a.dim, i) for i in range(a.dim)], list(p.basis))[0]
    lb, rb = restrict(left_mult(a, lift)), restrict(right_mult(a, lift))
    if lb is None or rb is None:
        return None
    m1 = lb - QMatrix.identity(2).scale(lb.trace() / 2)
    if m1.is_zero():
        return "inf" if not rb.is_zero() else "0/0"
    flat1 = [x for row in m1.rows for x in row]
    flat2 = [x for row in rb.rows for x in row]
    pivot = next(i for i, x in enumerate(flat1) if x != 0)
    c = flat2[pivot] / flat1[pivot]
    if any(f2 != c * f1 for f1, f2 in zip(flat1, flat2)):
        return None
    return str(c)
