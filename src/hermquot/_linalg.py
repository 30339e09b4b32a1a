"""Small dense linear algebra over a field level (matrices as tuples/lists)."""
from __future__ import annotations

IDENTITY3 = (1, 0, 0, 0, 1, 0, 0, 0, 1)


def mat_mul3(lvl, A, B):
    """Product of 3x3 matrices over F_{q^2} (row-major 9-tuples): x y is
    E[L[x] + L[y]], and x + y is x ^ y in characteristic 2, else T[x |F| + y]."""
    E, L = lvl._E, lvl._L
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = map(L.__getitem__, A)
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = map(L.__getitem__, B)
    if lvl.p == 2:
        return (E[a0 + b0] ^ E[a1 + b3] ^ E[a2 + b6],
                E[a0 + b1] ^ E[a1 + b4] ^ E[a2 + b7],
                E[a0 + b2] ^ E[a1 + b5] ^ E[a2 + b8],
                E[a3 + b0] ^ E[a4 + b3] ^ E[a5 + b6],
                E[a3 + b1] ^ E[a4 + b4] ^ E[a5 + b7],
                E[a3 + b2] ^ E[a4 + b5] ^ E[a5 + b8],
                E[a6 + b0] ^ E[a7 + b3] ^ E[a8 + b6],
                E[a6 + b1] ^ E[a7 + b4] ^ E[a8 + b7],
                E[a6 + b2] ^ E[a7 + b5] ^ E[a8 + b8])
    T, s = lvl._addt, lvl.size
    return (T[T[E[a0 + b0] * s + E[a1 + b3]] * s + E[a2 + b6]],
            T[T[E[a0 + b1] * s + E[a1 + b4]] * s + E[a2 + b7]],
            T[T[E[a0 + b2] * s + E[a1 + b5]] * s + E[a2 + b8]],
            T[T[E[a3 + b0] * s + E[a4 + b3]] * s + E[a5 + b6]],
            T[T[E[a3 + b1] * s + E[a4 + b4]] * s + E[a5 + b7]],
            T[T[E[a3 + b2] * s + E[a4 + b5]] * s + E[a5 + b8]],
            T[T[E[a6 + b0] * s + E[a7 + b3]] * s + E[a8 + b6]],
            T[T[E[a6 + b1] * s + E[a7 + b4]] * s + E[a8 + b7]],
            T[T[E[a6 + b2] * s + E[a7 + b5]] * s + E[a8 + b8]])


def mat_vec3(lvl, A, v):
    """A v for a 3x3 matrix over F_{q^2}; v at F_{q^2} goes through the
    tables as in mat_mul3. At F_{q^6}, A acts on each coordinate of v's
    entries separately: three F_{q^2} passes, one per power of t."""
    if lvl.name != "q2":
        w0, w1, w2 = (mat_vec3(lvl.base, A, c) for c in zip(*map(lvl.unpack, v)))
        return tuple(map(lvl.pack, w0, w1, w2))
    E, L = lvl._E, lvl._L
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = map(L.__getitem__, A)
    v0, v1, v2 = map(L.__getitem__, v)
    if lvl.p == 2:
        return (E[a0 + v0] ^ E[a1 + v1] ^ E[a2 + v2],
                E[a3 + v0] ^ E[a4 + v1] ^ E[a5 + v2],
                E[a6 + v0] ^ E[a7 + v1] ^ E[a8 + v2])
    T, s = lvl._addt, lvl.size
    return (T[T[E[a0 + v0] * s + E[a1 + v1]] * s + E[a2 + v2]],
            T[T[E[a3 + v0] * s + E[a4 + v1]] * s + E[a5 + v2]],
            T[T[E[a6 + v0] * s + E[a7 + v1]] * s + E[a8 + v2]])


def mat_det3(lvl, A):
    m, ad, sb = lvl.mul, lvl.add, lvl.sub
    a, b, c, d, e, f, g, h, i = A
    return ad(sb(m(a, sb(m(e, i), m(f, h))),
                 m(b, sb(m(d, i), m(f, g)))),
              m(c, sb(m(d, h), m(e, g))))


def mat_adj3(lvl, A):
    """Adjugate; a projective inverse since A * adj(A) = det(A) * I."""
    m, sb = lvl.mul, lvl.sub
    a, b, c, d, e, f, g, h, i = A
    return (sb(m(e, i), m(f, h)), sb(m(c, h), m(b, i)), sb(m(b, f), m(c, e)),
            sb(m(f, g), m(d, i)), sb(m(a, i), m(c, g)), sb(m(c, d), m(a, f)),
            sb(m(d, h), m(e, g)), sb(m(b, g), m(a, h)), sb(m(a, e), m(b, d)))


def charpoly3(lvl, A):
    """Coefficients [c0, c1, c2, 1] of det(x*I - A)."""
    m, ad, sb, ng = lvl.mul, lvl.add, lvl.sub, lvl.neg
    a, b, c, d, e, f, g, h, i = A
    tr = ad(ad(a, e), i)
    minors = ad(ad(sb(m(a, e), m(b, d)), sb(m(a, i), m(c, g))),
                sb(m(e, i), m(f, h)))
    return [ng(mat_det3(lvl, A)), minors, ng(tr), 1]


def cross3(lvl, u, v):
    """The cross product u x v, normal to the span of u and v; at F_{q^2}
    on the tables as in mat_mul3, x - y being T[x |F| + N[y]] for odd p
    with N the negation table."""
    if lvl.name != "q2":
        m, sb = lvl.mul, lvl.sub
        (a, b, c), (d, e, f) = u, v
        return [sb(m(b, f), m(c, e)), sb(m(c, d), m(a, f)), sb(m(a, e), m(b, d))]
    E, L = lvl._E, lvl._L
    a, b, c = map(L.__getitem__, u)
    d, e, f = map(L.__getitem__, v)
    if lvl.p == 2:
        return [E[b + f] ^ E[c + e], E[c + d] ^ E[a + f], E[a + e] ^ E[b + d]]
    T, N, s = lvl._addt, lvl.negt, lvl.size
    return [T[E[b + f] * s + N[E[c + e]]], T[E[c + d] * s + N[E[a + f]]],
            T[E[a + e] * s + N[E[b + d]]]]


def row_kernel(lvl, row):
    """Basis of the plane that a nonzero row is normal to, as Gauss-Jordan
    elimination gives it: pivoting on the row's first nonzero column, one
    vector per other column, 1 there and 0 at the third."""
    piv = next(j for j in range(3) if row[j])
    ng = lvl.neg(lvl.inv(row[piv]))
    basis = []
    for j in range(3):
        if j != piv:
            v = [0, 0, 0]
            v[j], v[piv] = 1, lvl.mul(ng, row[j])
            basis.append(v)
    return basis


def kernel(lvl, rows):
    """Basis of the right null space of a 3x3 matrix (three row lists), in
    closed form: the basis that Gauss-Jordan elimination gives, each vector
    1 at a non-pivot column and 0 at the other non-pivot ones. Rank 2: the
    cross product of two rows, checked against the third and scaled so its
    last nonzero coordinate (the non-pivot column) is 1. Rank 1: the nonzero
    row's plane (row_kernel). Rank 3: none. Rank 0: the unit vectors."""
    r0, r1, r2 = rows
    for u, w, (g, h, i) in ((r0, r1, r2), (r0, r2, r1), (r1, r2, r0)):
        v = cross3(lvl, u, w)
        if any(v):
            last = next(x for x in reversed(v) if x)
            if lvl.name != "q2":
                m = lvl.mul
                if lvl.add(lvl.add(m(g, v[0]), m(h, v[1])), m(i, v[2])):
                    return []
                s = lvl.inv(last)
                return [[m(s, x) for x in v]]
            # the check and the division by last in the log domain
            E, L = lvl._E, lvl._L
            a, b, c = map(L.__getitem__, v)
            g, h, i = map(L.__getitem__, (g, h, i))
            if lvl.p == 2:
                dot = E[g + a] ^ E[h + b] ^ E[i + c]
            else:
                T, sz = lvl._addt, lvl.size
                dot = T[T[E[g + a] * sz + E[h + b]] * sz + E[i + c]]
            if dot:
                return []
            s = lvl.size - 1 - L[last]
            return [[E[a + s], E[b + s], E[c + s]]]
    row = next((r for r in rows if any(r)), None)
    if row is None:
        return [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    return row_kernel(lvl, row)
