"""Exact quotient-genus computation for subgroups of the Hermitian curve's
automorphism group.

The strategy avoids scanning places. The group is walked by powers: the
powers of sigma up to the identity give n = ord(sigma), the phi(n)
generators sigma^k, gcd(k, n) = 1, of <sigma>, and those of each subgroup
<sigma^d>. The generators fix the same places as sigma, as sigma is a power
of each; so all is found at sigma, once per G-conjugacy class of cyclic
subgroups: conjugating by the group's generators finds each class, and
fixed(g sigma g^-1) = g(fixed(sigma)) gives every other member its places.
The walk runs on element indices with no matrix product: a product with
sigma follows the group's generator tables (Group.tables) along sigma's
path in the tree that the closure records, and a conjugate is one lookup
in a table made per walk from that tree (autgrp.conjugation_tables).
For ord(sigma) prime to p the fixed rational places come out of an
eigenvalue analysis of sigma's matrix over F_{q^2}, and a pointwise-fixed
degree-3 place needs an irreducible cubic factor of its charpoly (every
line of PG(2, q^2) meets the curve only in rational points). The analysis
runs once per chain of powers: sigma = s^d of order prime to p is a power
t^e of the chain's tame part t = s^(p^a), p^a the p-part of ord(s), and t
is semisimple, so the eigenspaces of t^e are sums of those of t and take
their bases from t's with no null space solved (_power_eigen_data): one
that is t's alone keeps t's basis, and two lines that merge span the plane
normal to their cross product. t's own eigenspaces are null spaces of 3x3
matrices, found in closed form (_linalg.kernel). A wild sigma
needs no eigenvalues: a Sylow p-subgroup of PGU(3, q) fixes one rational
place and acts regularly on the q^3 others (Hirschfeld-Korchmaros-Torres
2008), so sigma fixes one rational place and no degree-3 one, as p does not
divide q^2 - q + 1. Of order p, sigma's matrix is lam (I + N) with N
nilpotent, and the place is read off the highest nonzero power of N
(_wild_place); of order n = p m, m > 1, sigma fixes the place of its
order-p subgroup <sigma^m>.

Only places fixed by some nontrivial element can ramify, so the different
degree is a sum over a handful of orbits. Each orbit comes from a
breadth-first search over the generators, and a place's inertia group is
read off the walk: the identity and the generators of the records that fix
it. The setwise stabiliser has order |G| / |orbit|, so orbit-stabiliser is a
check at rational places and gives the residue degree at degree-3 ones. The
i-values are computed once per cyclic subgroup and weighted by phi(n), as
i_P(sigma^k) = i_P(sigma): the ramification groups G_i(P) are subgroups.
The walk lists the inertia group at every member of an orbit, each moved
there on its own, so the data read at the orbit's last member from its own
list must agree with the representative's: a guard against a broken one.

A fixed rational place is an eigenvector on the curve. An eigenspace of
dimension 1 is its point; on one of dimension 2 with basis b_0, b_1 the
curve equation at b_0 + s b_1 is g00 + g01 s + g10 s^q + g11 s^(q+1),
g_ij = h(b_i, b_j) with h the sesquilinear Hermitian form of the curve,
whose zeros one scan of the log tables lists (BaseLevel.zeros, which also
gives poly_roots its eigenvalues); b_1 is on the curve when g11 = 0. A
walk searches each eigenspace once, keyed by its basis (elimination's).

Rational places of the quotient are counted by Burnside. Frobenius commutes
with every automorphism here (all matrices have F_{q^2} entries), so the
Frobenius-stable G-orbits of points of the curve, which are the rational
places of X/G, number (1/|G|) sum over sigma of N_sigma with
N_sigma = #{x : Frob(x) = sigma(x)}, the same for every generator of <sigma>
and for its conjugates; it is counted once per class of cyclic subgroups
and weighted by the phi(n) generators of each member (_rational_count).
Such an x lies over F_{q^(2n)}, and N_sigma is counted from points on one
of three paths:

  * p | ord(sigma): sigma's affine form at P_inf (localval.affine_form)
    gives an additive or a Kummer equation in x and the curve equation in y;
    this needs only sigma's fixed place, not its eigenvalues;
  * sigma diagonalisable over F_{q^2}: in eigen-coordinates twisted by a
    (q^2 - 1)-th root of a, the solutions are the zeros in P^2(F_{q^2}) of
    one form over F_{q^2}, counted as norm fibres over P^1;
  * no root of sigma's charpoly in F_{q^2} (a Singer-type element): in
    eigen-coordinates over F_{q^6} the solutions are the common roots of
    two polynomials, counted by one gcd (twisted_fix_count).

These cover PGU(3, q) (Carter, Finite Groups of Lie Type, 1985): an element
of order prime to p lies in a maximal torus of type (q + 1)^3 or
(q^2 - 1)(q + 1), split over F_{q^2}, or q^3 + 1, whose elements with no
eigenvalue in F_{q^2} have an irreducible charpoly; any other element is an
EngineError. The points over F_{q^6} alone give the subcount of quotient
places under places of degree 1 and 3; unless ord(sigma) = 3 they are
sigma's fixed rational points (_twisted_count). Each class's N_sigma must
also meet the Lefschetz fixed-point formula, as Frobenius acts on H^1 of
the maximal curve as -q: N_sigma = (q + 1)^2 - q D, D the sum of
deg P i_P(sigma) over the places sigma fixes pointwise.
"""
from __future__ import annotations

from collections import Counter
from math import gcd
from typing import NamedTuple

from ._linalg import (charpoly3, cross3, kernel, mat_det3, mat_mul3, mat_vec3,
                      row_kernel)
from .autgrp import (Aut, Group, apply_place, aut_order, conjugation_tables,
                     word_tables)
from .curve import (Place, degree3_place, herm, normalize_point, on_curve,
                    place_of_point, place_sort_key, point_is_rational)
from .gf import FieldTower, p_gcd, p_powmod, p_trim, poly_roots
from .localval import (EngineError, OrbitRow, affine_form, fixes_pointwise,
                       i_value, inertia_data, to_infinity)


def _eigen_data(tower: FieldTower, aut: Aut):
    """[(eigenvalue over F_{q^2}, multiplicity, kernel basis)] plus the
    charpoly when it has no root in F_{q^2}, None otherwise."""
    lvl = tower.q2
    cp = charpoly3(lvl, aut.m)
    out = [(lam, mult, _eigenspace(lvl, aut.m, lam))
           for lam, mult in poly_roots(lvl, cp)]
    return out, None if out else cp


def _power_eigen_data(tower: FieldTower, eig, m: tuple, order: int, e: int):
    """_eigen_data of sigma^e, whose point matrix is m and order is order,
    from sigma's eigen data eig when sigma is diagonalisable over F_{q^2},
    with no null space to solve: the eigenspaces of sigma^e are the sums of
    those of sigma whose eigenvalues have equal e-th powers. One that is
    sigma's alone keeps sigma's basis; two lines that merge span the plane
    normal to their cross product, whose basis is row_kernel's, as
    _eigenspace would give it. Each one's eigenvalue for m is read off one
    vector (m is a scalar times M^e) and checked on every vector, and no two
    may be equal; its multiplicity is its dimension, sigma^e being semisimple
    too."""
    lvl = tower.q2
    spaces = {}
    for lam, _mult, basis in eig:
        spaces.setdefault(lvl.pow(lam, e), []).append(basis)
    out = []
    for bases in spaces.values():
        vs = [v for basis in bases for v in basis]
        v = vs[0]
        mv = mat_vec3(lvl, m, v)
        j = next(j for j in range(3) if v[j])
        lam = lvl.div(mv[j], v[j])
        if any(lam == x[0] for x in out) or any(
                x != lvl.mul(lam, y) for b in vs
                for x, y in zip(mat_vec3(lvl, m, b), b)):
            raise EngineError(f"an element of order {order} does not keep the "
                              f"eigenvectors of the element it is a power of")
        if len(bases) == len(vs) == 2:
            vs = row_kernel(lvl, cross3(lvl, *vs))
        out.append((lam, len(vs), vs))
    out.sort(key=lambda x: lvl.rank[x[0]])
    return out, None


def _eigenspace(lvl, m, lam):
    """Kernel basis of M - lam I over lvl, M a row-major 3x3 matrix."""
    flat = list(m)
    for i in range(3):
        flat[4 * i] = lvl.sub(flat[4 * i], lam)
    return kernel(lvl, [flat[0:3], flat[3:6], flat[6:9]])


def _span_places(tower: FieldTower, basis) -> list[Place]:
    """The rational places on the span of an eigenspace basis: its point, or
    the zeros s of the curve equation at b_0 + s b_1, and b_1 when g11 = 0."""
    lvl, q = tower.q2, tower.q
    if len(basis) == 1:
        b0 = basis[0]
        return [] if herm(lvl, b0, b0) else [place_of_point(tower, b0)]
    b0, b1 = basis
    (g00, g01), (g10, g11) = [[herm(lvl, u, v) for v in basis]
                              for u in basis]
    points = [[lvl.add(x, lvl.mul(s, y)) for x, y in zip(b0, b1)]
              for s in lvl.zeros(g00, ((g01, 1), (g10, q), (g11, q + 1)))]
    if not g11:
        points.append(b1)
    return [place_of_point(tower, pt) for pt in points]


def fixed_rational_places(tower: FieldTower, aut: Aut, eigen=None,
                          found=None) -> list[Place]:
    """All rational places fixed by a nontrivial automorphism, sorted: a
    fixed point is an eigenvector, so they are the places on its eigenspaces
    (_span_places). eigen is _eigen_data(tower, aut) when the caller already
    has it; found, when given, maps the basis of each eigenspace searched
    before to its places, and each eigenspace is searched once across the
    calls that share it."""
    assert not aut.is_identity()
    eig, _ = eigen or _eigen_data(tower, aut)
    found = {} if found is None else found
    places = []
    for _lam, _mult, basis in eig:
        if len(basis) not in (1, 2):
            raise EngineError(f"an element of order {aut_order(aut)} has an "
                              f"eigenspace of dimension {len(basis)}")
        key = tuple(map(tuple, basis))
        known = found.get(key)
        if known is None:
            known = found[key] = _span_places(tower, basis)
        places += known
    return sorted(places, key=lambda p: place_sort_key(tower, p))


def _wild_place(tower: FieldTower, m: tuple) -> Place:
    """The one rational place fixed by a point matrix m of order p. M^p is
    scalar and p-th roots are unique in characteristic p, so M = lam (I + N)
    with N nilpotent: lam = tr M / 3, or for p = 3 the cube root
    det(M)^(q^2/3), cubing being a bijection of F_{q^2}. The fixed points
    are ker N. If N^2 != 0, N is one Jordan block and ker N = im N^2, a
    point; if N^2 = 0, M is an elation, whose axis is the tangent line at
    its centre im N and meets the curve only there. Either way the place is
    a nonzero column of the highest nonzero power of N."""
    lvl = tower.q2
    if tower.p == 3:
        lam = lvl.pow(mat_det3(lvl, m), lvl.size // 3)
    else:
        lam = lvl.div(lvl.add(lvl.add(m[0], m[4]), m[8]), 3 % tower.p)
    nil = list(m)
    for i in (0, 4, 8):
        nil[i] = lvl.sub(nil[i], lam)
    nil2 = mat_mul3(lvl, nil, nil)
    top = nil2 if any(nil2) else nil
    pt = next((top[j::3] for j in range(3) if any(top[j::3])), None)
    # on the curve, and M pt = lam pt
    if pt is None or herm(lvl, pt, pt) or any(mat_vec3(lvl, nil, pt)):
        raise EngineError("an element of order p fixes no rational place "
                          "through its nilpotent part")
    return place_of_point(tower, pt)


def pointwise_fixed_degree3_places(tower: FieldTower, aut: Aut,
                                   eigen=None) -> list[Place]:
    """All degree-3 places every point of which is fixed by aut. Nonempty
    only when ord(aut) divides q^2 - q + 1. eigen as in
    fixed_rational_places. A fixed point is an eigenvector; an eigenspace
    over F_{q^2} is a rational point or a line of PG(2, q^2), which meets
    the curve in 1 or q + 1 rational points, all q + 1 intersections by
    Bezout (Hirschfeld-Korchmaros-Torres 2008). So only an irreducible
    cubic factor of the charpoly can fix a degree-3 place."""
    assert not aut.is_identity()
    q6 = tower.q6
    _eig, cubic = eigen or _eigen_data(tower, aut)
    if cubic is None:
        return []
    # irreducible cubic factor: eigenvalues form one Frobenius orbit in
    # F_{q^6}, and their eigenvectors one degree-3 orbit of points, so a
    # single root already determines the whole candidate place
    roots = poly_roots(q6, cubic)
    if not roots:
        raise EngineError(f"the charpoly of an element of order "
                          f"{aut_order(aut)} has no root in F_q^6")
    basis = _eigenspace(q6, aut.m, roots[0][0])
    if len(basis) != 1:
        raise EngineError(f"an element of order {aut_order(aut)} has an "
                          f"eigenspace of dimension {len(basis)} over F_q^6")
    pt = normalize_point(q6, basis[0])
    if not on_curve(q6, pt):
        return []
    if point_is_rational(tower, pt):
        raise EngineError(f"an element of order {aut_order(aut)} fixes a "
                          f"rational point through an irreducible cubic")
    return [degree3_place(tower, pt)]


def twisted_fix_count(tower: FieldTower, aut: Aut) -> int:
    """#{x on the curve : Frob(x) = aut(x)} projectively, for aut whose
    charpoly has no root in F_{q^2} (a Singer-type element).

    With mu a root of the charpoly in F_{q^6}, p_1 an eigenvector,
    p_2 = Frob(p_1), p_3 = Frob(p_2) (so Frob(p_3) = p_1) and M p_i = mu_i p_i,
    mu_i = mu^(q^(2(i - 1))), a solution x = p_1 + t_2 p_2 + t_3 p_3 of
    Frob(x) = lam M x has t_2 = (lam mu_2)^-1, t_3 = (lam mu_2)^(-q^2)
    (lam mu_3)^-1 and lam^(q^4 + q^2 + 1) = mu^-3, one x per lam. sigma
    scales the Hermitian form, so the Gram matrix h_ij = h(p_i, p_j) has the
    one cyclic family h13, h21, h32, and the curve equation h13 t_3 +
    h21 t_2^q + h32 t_3^q t_2 is lam^-q P(X), P = C X^(q+1) + A X + B, in
    X = lam^-T, T = q^2 - q + 1, with X^(q^2 + q + 1) = mu^3; lam -> X is
    T-to-1. So N = T deg gcd(P, X^(q^2 + q + 1) - mu^3), the gcd squarefree
    as q^2 + q + 1 is prime to p.
    """
    q, q6 = tower.q, tower.q6
    mu = poly_roots(q6, charpoly3(tower.q2, aut.m))[0][0]
    p1 = _eigenspace(q6, aut.m, mu)[0]
    p2 = tuple(map(q6.frobq2, p1))
    ps = (p1, p2, tuple(map(q6.frobq2, p2)))
    h = [[herm(q6, u, v) for v in ps] for u in ps]
    if any(bool(h[i][j]) != (j == (i + 2) % 3)
           for i in range(3) for j in range(3)):
        raise EngineError("eigenvalues over F_q^6 do not respect the "
                          "Hermitian form")
    # A = h13 / (mu_2^(q^2) mu_3), B = h21 / mu_2^q and
    # C = h32 / (mu_2^(q^3 + 1) mu_3^q), as powers of mu
    pw, mul = q6.pow, q6.mul
    poly = ([mul(h[1][0], pw(mu, -q ** 3)), mul(h[0][2], pw(mu, -2 * q ** 4))]
            + [0] * (q - 1) + [mul(h[2][1], pw(mu, -q * q - 2 * q ** 5))])
    r = p_powmod(q6, [0, 1], q * q + q + 1, poly) or [0]
    r[0] = q6.sub(r[0], pw(mu, 3))
    return (q * q - q + 1) * (len(p_gcd(q6, poly, p_trim(r))) - 1)


def _diagonal_counts(tower: FieldTower, eig):
    """(N, N6) for sigma diagonalisable over F_{q^2}, where N counts every
    x with Frob(x) = sigma(x) and N6 those over F_{q^6}.

    With eigenvalues a^(k_i) and eigenvectors p_i, the solutions are
    x = sum t_i Theta^(e_i) p_i with e_i = k_i - k_1, Theta^(q^2 - 1) = a and
    t in P^2(F_{q^2}), one point per t. The curve equation there is
    sum h(p_i, p_j) Theta^(q e_i + e_j) t_i^q t_j, and every nonzero term
    has its Theta-exponent in one class mod q^2 - 1 (sigma scales the form),
    so after one power of Theta it is a form sum c_ij t_i^q t_j over F_{q^2}.
    Some t_k occurs only as c_kk t_k^(q+1): c_ij != 0 needs
    a^(q k_i + k_j) to be the factor by which sigma scales the form, so the
    nonzero entries of a row all sit at one eigenvalue, and a nondegenerate
    Gram matrix (one product W V, W's rows the (-X^q, Z^q, Y^q) of the p_i)
    with this pattern has such a k. For each (t_i : t_j) in P^1 the t_k are
    then a norm fibre of size 0, 1 or q + 1. A solution is over
    F_{q^6} iff sigma^3 fixes it, i.e. its support lies in one eigenspace
    of M^3.
    """
    lvl, q = tower.q2, tower.q
    n = lvl.size - 1
    vecs, ks = [], []
    for lam, _mult, basis in eig:
        vecs += basis
        ks += [lvl.dlog(lam)] * len(basis)
    e = [(k - ks[0]) % n for k in ks]
    fr, neg = lvl.frobt, lvl.neg
    gram = mat_mul3(lvl, [x for v in vecs
                          for x in (neg(fr[v[0]]), fr[v[2]], fr[v[1]])],
                    [v[i] for i in range(3) for v in vecs])
    c = [[0] * 3 for _ in range(3)]
    r = None
    for i in range(3):
        for j in range(3):
            hij = gram[3 * i + j]
            if hij:
                x = q * e[i] + e[j]
                if r is None:
                    r = x % n
                elif x % n != r:
                    raise EngineError("eigenvalues do not respect the Hermitian form")
                c[i][j] = lvl.mul(hij, tower.a_pow((x - r) // n))
    k = next((k for k in range(3) if c[k][k] and not any(
        c[k][j] or c[j][k] for j in range(3) if j != k)), None)
    if k is None:
        raise EngineError("no eigen-coordinate splits off the curve equation")
    i, j = (x for x in range(3) if x != k)
    ik = lvl.neg(lvl.inv(c[k][k]))
    d = [[lvl.mul(ik, c[x][y]) for y in (i, j)] for x in (i, j)]
    cls = [3 * x % n for x in ks]  # eigenvalue logs of M^3
    frobt = lvl.frobt
    # (t_i : t_j) = (1 : 0), (0 : 1) and (1 : a^l): the value of c_kk t_k^(q+1)
    # is beta, support {i}, {j} and {i, j} plus k when t_k != 0
    total = total6 = 0
    for vals, support in (([d[0][0]], (i,)), ([d[1][1]], (j,)),
                          (lvl.values(((d[0][0], 0), (d[0][1], 1),
                                       (d[1][0], q), (d[1][1], q + 1))),
                           (i, j))):
        zeros = vals.count(0)
        norms = sum(1 for v in vals if frobt[v] == v) - zeros
        total += zeros + (q + 1) * norms
        if len({cls[x] for x in support}) == 1:
            total6 += zeros
            if cls[k] == cls[support[0]]:
                total6 += (q + 1) * norms
    return total, total6


def _wild_counts(tower: FieldTower, aut: Aut, fixed, order: int):
    """(N, N6) for sigma with p | ord(sigma), as in _diagonal_counts.

    sigma fixes exactly the rational place its p-part fixes; conjugating
    that place to P_inf (N is invariant under conjugation in PGU(3, q))
    makes sigma(x, y) = (a x + b, a^(q+1) y + a b^q x + c). On the curve
    y^(q^2) - y = x^q (x^(q^2) - x), so the twisted affine points are:
      * a = 1: the roots x of b X^q - b^q X = c (raising to the q-th power
        and adding gives x^(q^2) = x + b); q of them when b != 0, none when
        b = 0;
      * a != 1: conjugating by tau(-x0, d), d^q + d = x0^(q+1), moves the
        fixed point x0 = b / (1 - a) of x -> a x + b to 0 and leaves
        y -> a^(q+1) y + c + (1 - a^(q+1)) d - b x0^q; a p-part forces
        a^(q+1) = 1 and c' = c - b x0^q != 0, and the roots of
        (a - 1) x^(q+1) = c' satisfy x^(q^2 - 1) = a all or none;
    each with the q roots y of y^q + y = x^(q+1). sigma^3 fixes P_inf and
    no affine twisted point unless sigma^3 = 1.
    """
    lvl, q = tower.q2, tower.q
    if len(fixed) != 1:
        raise EngineError(f"an element of order {order} fixes "
                          f"{len(fixed)} rational places, not 1")
    form = affine_form(lvl, to_infinity(tower, fixed[0]), aut.m)
    if form is None:
        raise EngineError("conjugate does not fix P_inf")
    a, b, c = form
    if a == 1:
        xs = q if b else 0
    else:
        x0 = lvl.div(b, lvl.sub(1, a))
        c = lvl.sub(c, lvl.mul(b, lvl.frobq(x0)))
        if lvl.mul(a, lvl.frobq(a)) != 1 or c == 0:
            raise EngineError(f"an element of order {order} is semisimple")
        beta = lvl.div(c, lvl.sub(a, 1))
        xs = q + 1 if lvl.pow(beta, q - 1) == a else 0
    total = 1 + q * xs
    return total, (total if order == 3 else 1)


class TwistedCount(NamedTuple):
    """N_sigma = #{x : Frob(x) = sigma(x)}, its part n6 over F_{q^6}, and
    the path that counted it."""

    n: int
    n6: int
    path: str


def _twisted_count(tower: FieldTower, aut: Aut, order: int, eig,
                   fixed) -> TwistedCount:
    if order % tower.p == 0:
        return TwistedCount(*_wild_counts(tower, aut, fixed, order), "wild")
    if sum(len(b) for _l, _m, b in eig) == 3:
        return TwistedCount(*_diagonal_counts(tower, eig), "diagonal")
    if not eig:
        n = twisted_fix_count(tower, aut)
        # other orders: over F_{q^6} only the fixed rational points solve
        # Frob(x) = sigma(x), and an irreducible charpoly fixes none. sigma
        # would cycle the points of a non-rational solution's degree-3 place
        # as Frobenius does; a line through all three would be defined over
        # F_{q^2} and meet the curve only in rational points, so in their
        # basis sigma is diagonal times a 3-cycle, of order 3
        return TwistedCount(n, n if order == 3 else 0, "F_q^6")
    raise EngineError(f"an element of order {order} is on no count path")


def twisted_counts(tower: FieldTower, aut: Aut) -> TwistedCount:
    """N_sigma for a nontrivial automorphism, from points."""
    assert not aut.is_identity()
    eigen = _eigen_data(tower, aut)
    return _twisted_count(tower, aut, aut_order(aut), eigen[0],
                          fixed_rational_places(tower, aut, eigen))


class GenusReport(NamedTuple):
    q: int
    group_order: int
    genus: int
    deg_diff: int
    orbits: tuple
    n_rational: int | None  # rational places of the quotient
    f3_orbits: int | None   # those under degree-3 places of the curve
    maximal: bool | None    # None only under with_count=False
    expected: int | None
    n_rational_deg13: int | None = None  # those under places of degree 1, 3

    @property
    def matches(self) -> bool | None:
        return None if self.expected is None else self.genus == self.expected


def _orbit(group: Group, place: Place) -> list:
    """The G-orbit of a place by a breadth-first search over the group's
    generators, the place first."""
    orbit, seen = [place], {place}
    for pl in orbit:
        for g in group.gens:
            im = apply_place(g, pl)
            if im not in seen:
                seen.add(im)
                orbit.append(im)
    return orbit


def _orbit_rows(tower: FieldTower, group: Group, walk,
                dual_check: bool) -> list[OrbitRow]:
    """One row per orbit of ramified places. A place's inertia group is the
    identity and the generators of the walk records that fix it (pointwise,
    at degree 3); its setwise stabiliser has order |G| / |orbit|. At an
    orbit of more than one place, the walk's lists at the representative
    and at the last member must fix their places, and the last member's
    must give the representative's (e, f, d), or EngineError."""
    inertia = {}
    for c in walk:
        for pl in c.fixed + c.deg3:
            inertia.setdefault(pl, []).append((c.gens[0], len(c.gens)))
    rows, done = [], set()
    for rep in sorted(inertia, key=lambda p: place_sort_key(tower, p)):
        if rep in done:
            continue
        orbit = _orbit(group, rep)
        done.update(orbit)
        if group.order % len(orbit):
            raise EngineError(f"an orbit has {len(orbit)} places, not a "
                              f"divisor of |G| = {group.order}")
        setwise = group.order // len(orbit)
        # at a rational place this checks orbit-stabiliser against the walk
        row = inertia_data(tower, rep, inertia[rep], setwise, len(orbit),
                           dual_check)
        if len(orbit) > 1:
            # ramification data is constant on an orbit, and the walk moved
            # each member's inertia group there on its own; recompute it at
            # the last member as a guard against a broken one
            other = max(orbit, key=lambda p: place_sort_key(tower, p))
            if not all(fixes_pointwise(tower, s, pl) for pl in (rep, other)
                       for s, _w in inertia.get(pl, [])):
                raise EngineError("a conjugated inertia group does not fix "
                                  "its place")
            row2 = inertia_data(tower, other, inertia.get(other, []),
                                setwise, len(orbit), dual_check=False)
            if (row2.e, row2.f, row2.d) != (row.e, row.f, row.d):
                raise EngineError("ramification data differ along an orbit")
        rows.append(row)
    return rows


class _CyclicSubgroup(NamedTuple):
    gens: list   # the generators sigma^k, gcd(k, n) = 1, sigma first
    order: int   # n = ord(sigma)
    fixed: list  # fixed rational places
    deg3: list   # pointwise-fixed degree-3 places
    rep: int     # walk index of its conjugacy class's representative
    eig: list | None  # sigma's [(eigenvalue, multiplicity, basis)] on a
                      # representative of order prime to p, None elsewhere


def _cyclic_walk(tower: FieldTower, group: Group) -> list[_CyclicSubgroup]:
    """One record per nontrivial cyclic subgroup <sigma> of the group, from
    the power walk of sigma or of an element that sigma is a power of. Its
    generators fix the same places as sigma, since sigma is in turn a power
    of each. The places are found once per G-conjugacy class of cyclic
    subgroups, each class by conjugating with the group's generators:
    fixed(g sigma g^-1) = g(fixed(sigma)), so a member met from another by
    g gets that member's places moved by g. The eigen analysis runs only
    on classes of order prime to p, and once per chain of powers: the walk
    of s analyses its tame part t = s^(p^a) (p^a the p-part of ord s) at
    most once, and a tame class <s^d> = <t^e>, e = d / p^a, takes its eigen
    data from t's (_power_eigen_data), unless t has no eigenvalue in
    F_{q^2} (Singer-type), when each class is analysed alone; each
    eigenspace is searched for places once per walk (found). A class of
    order p takes its representative's one fixed place from the nilpotent
    part of its matrix (_wild_place), one of order n = p m, m > 1, from the
    record of <sigma^m>, which the walk by increasing order has met before.

    The walk runs on element indices and makes no matrix product: x s
    follows the group's tables along the path of s in the closure's tree
    (autgrp.word_tables), and g s g^-1 is one lookup in g's conjugation
    table (autgrp.conjugation_tables)."""
    q, p = tower.q, tower.p
    els, size = group.elements, group.order
    word = word_tables(group.tables, group.up, group.by)
    subs, where = [], [None] * size
    for s in range(1, size):
        if where[s] is not None:
            continue
        w = word(s)
        powers = [s]
        x = s
        while x:
            for t in w:
                x = t[x]
            powers.append(x)
        n = len(powers)
        # the tame part t = s^(p^a) of the chain, p^a the p-part of n
        pa = 1
        while n % (pa * p) == 0:
            pa *= p
        # <s> and each subgroup <s^d> not met yet, generated by the s^(dk)
        # with gcd(k, n/d) = 1
        for d in range(1, n):
            if n % d or where[powers[d - 1]] is not None:
                continue
            gens = [powers[d * k - 1] for k in range(1, n // d)
                    if gcd(k, n // d) == 1]
            for x in gens:
                where[x] = len(subs)
            # the element whose data <s^d> starts from: a tame <s^d> is
            # <t^e>, e = d / p^a, and a wild one of order > p fixes what
            # <s^(n/p)> fixes
            if n // d % p:
                subs.append((gens, n // d, powers[pa - 1], d // pa))
            else:
                subs.append((gens, n // d, powers[n // p - 1], 0))
    conj = list(zip(group.gens, conjugation_tables(group)))
    out = [None] * len(subs)
    spectra = {}  # a chain's tame part t -> _eigen_data(t)
    found = {}  # an eigenspace's basis -> the rational places on it
    # by increasing order, so the order-p subgroup of a wild one comes
    # first; the sort is stable, so a class's lowest index stays its
    # representative
    for i in sorted(range(len(subs)), key=lambda i: subs[i][1]):
        if out[i] is not None:
            continue
        gens, n, source, e = subs[i]
        gens = [els[x] for x in gens]
        if n == p:
            fixed, deg3, eig = [_wild_place(tower, gens[0].m)], [], None
        elif n % p:
            if source not in spectra:
                spectra[source] = _eigen_data(tower, els[source])
            eigen = spectra[source]
            if e > 1:
                # t semisimple and split over F_{q^2}, or else (Singer-type)
                # an analysis of its own
                eigen = (_power_eigen_data(tower, eigen[0], gens[0].m, n, e)
                         if sum(len(b) for _l, _m, b in eigen[0]) == 3
                         else _eigen_data(tower, gens[0]))
            fixed = fixed_rational_places(tower, gens[0], eigen, found)
            deg3 = (pointwise_fixed_degree3_places(tower, gens[0], eigen)
                    if (q * q - q + 1) % n == 0 else [])
            eig = eigen[0]
        else:
            fixed, deg3, eig = out[where[source]].fixed, [], None
        out[i] = _CyclicSubgroup(gens, n, fixed, deg3, i, eig)
        # the class, each member met from one before it
        frontier = [i]
        for j in frontier:
            y, c = subs[j][0][0], out[j]
            for g, table in conj:
                k = where[table[y]]
                if out[k] is None:
                    out[k] = _CyclicSubgroup(
                        [els[x] for x in subs[k][0]], n,
                        [apply_place(g, pl) for pl in c.fixed],
                        [apply_place(g, pl) for pl in c.deg3], i, None)
                    frontier.append(k)
    return out


def _hurwitz_genus(q: int, order: int, deg_diff: int) -> int:
    num = q * q - q - 2 - deg_diff
    if num % order != 0:
        raise EngineError(f"different degree {deg_diff} breaks the "
                          f"Riemann-Hurwitz integrality at |G| = {order}")
    two_g_minus_2 = num // order
    if two_g_minus_2 % 2 != 0:
        raise EngineError("odd 2g - 2 for the quotient")
    genus = (two_g_minus_2 + 2) // 2
    if genus < 0:
        raise EngineError(f"negative quotient genus {genus}")
    return genus


def _rational_count(tower: FieldTower, group_order: int, walk):
    """(n_rational, f3_orbits, n_rational_deg13) by Burnside: the rational
    places of X/G are the Frobenius-stable G-orbits of points of X,
    (1/|G|) sum over sigma of N_sigma. The same sum over the points over
    F_{q^6} alone gives the places under places of degree 1 and 3, and
    over the fixed rational points the rational places under rational
    ones. Each class meets Lefschetz's N_sigma = (q + 1)^2 - q D, i = 1 at
    a tame place, or EngineError."""
    q = tower.q
    top = q ** 3 + 1  # the identity: every rational point
    total = fixed = over_q6 = top
    members = Counter(c.rep for c in walk)
    for i, c in enumerate(walk):
        if c.rep != i:
            continue
        # sigma and its phi(n) generators sigma^k fix the same points, and
        # i_P(sigma^k) = i_P(sigma) as sigma is in G_i(P) iff <sigma> is; so
        # they share the Lefschetz number and the trace on H^1, which on the
        # maximal curve gives N_sigma = N_(sigma^k). N_sigma is a class
        # function, as Frobenius commutes with G, so it is counted once from
        # points for each class of conjugate cyclic subgroups
        weight = members[i] * len(c.gens)
        tc = _twisted_count(tower, c.gens[0], c.order, c.eig, c.fixed)
        d = 3 * len(c.deg3) + (i_value(tower, c.fixed[0], c.gens[0])
                               if c.order % tower.p == 0 else len(c.fixed))
        if tc.n != (q + 1) ** 2 - q * d:
            raise EngineError(f"an element of order {c.order} has N = {tc.n} "
                              f"on the {tc.path} path, not (q + 1)^2 - q D = "
                              f"{(q + 1) ** 2 - q * d} with D = {d}")
        fixed += weight * len(c.fixed)
        over_q6 += weight * tc.n6
        total += weight * tc.n
    for what, x in (("fixed rational points", fixed),
                    ("twisted points over F_q^6", over_q6),
                    ("twisted point counts", total)):
        if x % group_order != 0:
            raise EngineError(f"{what} sum to {x}, not a multiple of "
                              f"|G| = {group_order}")
    return (total // group_order, (over_q6 - fixed) // group_order,
            over_q6 // group_order)


def genus_of_quotient(tower: FieldTower, group: Group,
                      expected: int | None = None,
                      with_count: bool = True,
                      dual_check: bool = True) -> GenusReport:
    q = tower.q
    walk = _cyclic_walk(tower, group)
    rows = _orbit_rows(tower, group, walk, dual_check)
    deg_diff = sum(r.d * r.size * r.degree for r in rows)
    genus = _hurwitz_genus(q, group.order, deg_diff)
    n_rational = f3 = maximal = sub = None
    if with_count:
        n_rational, f3, sub = _rational_count(tower, group.order, walk)
        # the quotient of a maximal curve is maximal (Lachaud 1987), so
        # False here would expose a wrong count
        maximal = n_rational == q * q + 1 + 2 * genus * q
    return GenusReport(q, group.order, genus, deg_diff, tuple(rows),
                       n_rational, f3, maximal, expected, sub)


def tame_diff_crosscheck(tower: FieldTower, group: Group) -> int:
    """Independent different degree for groups with order prime to both p
    and q^2 - q + 1: every ramified place is rational and tame, so each
    nontrivial sigma contributes exactly 1 at each of its fixed places."""
    q = tower.q
    if group.order % tower.p == 0:
        raise EngineError("crosscheck needs a group of order prime to p")
    if gcd(group.order, q * q - q + 1) != 1:
        raise EngineError("crosscheck needs no degree-3 ramification")
    total = 0
    for s in group.elements:
        if not s.is_identity():
            total += len(fixed_rational_places(tower, s))
    return total
