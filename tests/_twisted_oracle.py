"""The engine's earlier count over F_(q^6), kept as a test oracle for
engine.twisted_fix_count and the F_(q^6) part of every path: for each
coset of scalars lambda whose norm inverts an eigenvalue of M^3, the curve
points in the projective F_(q^2)-kernel of the 9x9 system Frob(v) =
lambda M v. It shares no code with the engine: the Hermitian form, the
general curve-point search on a span (form_zeros, also the oracle of the
engine's search on an eigenspace) and the n x n null space
(elimination_kernel) are its own."""

from __future__ import annotations

from hermquot._linalg import charpoly3, mat_mul3
from hermquot.autgrp import Aut
from hermquot.gf import FieldTower, poly_roots
from hermquot.localval import EngineError

# the curve's Gram matrix: Y^q Z + Z^q Y - X^(q+1) = sum x_i^q H_ij x_j
_GRAM = ((-1, 0, 0), (0, 0, 1), (0, 1, 0))


def _herm(lvl, u, v):
    """The curve's sesquilinear form sum u_i^q H_ij v_j."""
    total = 0
    for i, row in enumerate(_GRAM):
        for j, h in enumerate(row):
            if h:
                term = lvl.mul(lvl.frobq(u[i]), v[j])
                total = (lvl.add if h == 1 else lvl.sub)(total, term)
    return total


def form_zeros(lvl, q: int, g) -> list[tuple]:
    """Zeros in P^(k-1)(F_{q^2}) of sum g_ij c_i^q c_j, for a k x k matrix g
    over F_{q^2} with k <= 3, as tuples c with first nonzero entry 1. The
    zeros with c_0 = 1 are found one line c = (1, s, t) at a time, each in
    one scan of the log tables (BaseLevel.zeros), the rest by the same
    search on g[1:][1:]."""
    k = len(g)
    if k == 1:
        return [(1,)] if g[0][0] == 0 else []
    out = [(0,) + c for c in form_zeros(lvl, q, [row[1:] for row in g[1:]])]
    if k == 2:
        (c0, c1), (cq, cq1) = g
        return out + [(1, s) for s in lvl.zeros(
            c0, ((c1, 1), (cq, q), (cq1, q + 1)))]
    fr, mul, add = lvl.frobq, lvl.mul, lvl.add
    for s in range(lvl.size):
        sq = fr(s)
        c0 = add(add(g[0][0], mul(g[0][1], s)),
                 add(mul(g[1][0], sq), mul(g[1][1], mul(sq, s))))
        c1 = add(g[0][2], mul(g[1][2], sq))
        cq = add(g[2][0], mul(g[2][1], s))
        out += [(1, s, t) for t in lvl.zeros(
            c0, ((c1, 1), (cq, q), (g[2][2], q + 1)))]
    return out


def elimination_kernel(lvl, rows):
    """Basis of the right null space of a matrix (list of row lists) by
    Gauss-Jordan elimination: one vector per non-pivot column, 1 there, 0 at
    the other non-pivot columns. Also the oracle for the closed-form 3x3
    null space, _linalg.kernel."""
    rows = [list(r) for r in rows]
    n = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = lvl.inv(rows[r][col])
        rows[r] = [lvl.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                c = rows[i][col]
                rows[i] = [lvl.sub(x, lvl.mul(c, y))
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for ri, pc in enumerate(pivots):
            v[pc] = lvl.neg(rows[ri][fc])
        basis.append(v)
    return basis


def _span_curve_points(tower: FieldTower, basis) -> int:
    """Points of the curve in the projective span over F_{q^2} of F_{q^6}
    vectors b_1..b_k on which Frob(v) = lam M v. The curve equation at
    sum c_i b_i is sum c_i^q c_j h(b_i, b_j); Frobenius multiplies every
    h(b_i, b_j) by the same factor lam^(q+1) kappa (M scales the form by
    kappa), so after division by one nonzero entry the Gram matrix lies in
    F_{q^2} and the candidates are tested with F_{q^2} tables."""
    lvl, q6 = tower.q2, tower.q6
    gram = [[_herm(q6, u, v) for v in basis] for u in basis]
    g0 = next((x for row in gram for x in row if x), 0)
    if not g0:
        assert len(basis) == 1, "the curve is irreducible and contains no line"
        return 1
    ig = q6.inv(g0)
    gram = [[q6.mul(x, ig) for x in row] for row in gram]
    if not all(q6.in_base(x) for row in gram for x in row):
        raise EngineError("Gram matrix of a twisted kernel is not F_q^2-proportional")
    return len(form_zeros(lvl, tower.q, gram))


def kernel_twisted_fix_count(tower: FieldTower, aut: Aut) -> int:
    """#{x on the curve over F_{q^6} : Frob(x) = aut(x)} projectively.

    Frob(v) = lambda M v is F_{q^2}-linear in v for each scalar lambda, and
    scaling v by mu moves lambda by mu^(q^2 - 1), so lambda only needs to run
    over coset representatives w^j of the (q^2 - 1)-th powers; no point is
    counted in two classes. Applying Frob three times gives v = N(lambda)
    M^3 v with N the norm to F_{q^2}, which is constant on a class, so only
    the classes whose norm inverts an eigenvalue of M^3 in F_{q^2} (at most
    three) have solutions. Each contributes the curve points of the
    projective F_{q^2}-kernel of a 9x9 system.
    """
    lvl = tower.q2
    q6 = tower.q6
    n = lvl.size - 1
    f2 = q6.frobq2_matrix
    w = q6.primitive()
    # N(w) = w^((q^6 - 1)/(q^2 - 1)) generates F_{q^2}^*, and N(w^j) = N(w)^j
    nw = q6.pow(w, (q6.size - 1) // n)
    assert q6.in_base(nw)
    inv_log_nw = pow(lvl.dlog(nw), -1, n)
    m = aut.m
    m3 = mat_mul3(lvl, mat_mul3(lvl, m, m), m)
    total = 0
    for eta, _mult in poly_roots(lvl, charpoly3(lvl, m3)):
        lam = q6.pow(w, (-lvl.dlog(eta) * inv_log_nw) % n)
        ll = q6.matrix(lambda x: q6.mul(lam, x))
        rows = []
        for k in range(3):
            for i in range(3):
                row = []
                for l in range(3):
                    for jj in range(3):
                        val = f2[3 * i + jj] if k == l else 0
                        if m[3 * k + l]:
                            val = lvl.sub(val, lvl.mul(m[3 * k + l],
                                                       ll[3 * i + jj]))
                        row.append(val)
                rows.append(row)
        basis = elimination_kernel(lvl, rows)
        if basis:
            total += _span_curve_points(
                tower, [tuple(q6.pack(*v9[3 * l:3 * l + 3]) for l in range(3))
                        for v9 in basis])
    return total
