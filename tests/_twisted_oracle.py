"""The engine's earlier count over F_(q^6), kept as a test oracle for
engine.twisted_fix_count and the F_(q^6) part of every path: for each
coset of scalars lambda whose norm inverts an eigenvalue of M^3, the curve
points in the projective F_(q^2)-kernel of the 9x9 system Frob(v) =
lambda M v."""

from __future__ import annotations

from hermquot._linalg import charpoly3, mat_mul3
from hermquot.autgrp import Aut
from hermquot.engine import EngineError, _form_zeros, _herm
from hermquot.gf import FieldTower, poly_roots


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
    return len(_form_zeros(lvl, tower.q, gram))


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
