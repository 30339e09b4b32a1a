"""Ramification data at places of the Hermitian curve, from one expansion.

All wild ramification happens at rational places, and every i-value is read
off one expansion at P_inf: there t = x/y = X/Y is a uniformizer and
u = 1/y = Z/Y solves u + u^q = t^(q+1), so the curve point is (t : 1 : u).
That u has the closed form u = sum over k >= 0 of (-1)^k t^((q+1) q^k),
since u^q is the same sum shifted by one term.
A map T_P of PGU(3, q) takes a rational place P to P_inf (i-values are
invariant under this conjugation), the point near P is w = adj(T_P)(t, 1, u)
and its uniformizer is l_0/l_1 for the first two rows of T_P, x - alpha at
an affine place (alpha, beta). For sigma fixing P with point matrix M,
i_P(sigma) = v(l_0(M w) - t l_1(M w)) - v(l_1(M w)), scanned over the few
exponents where w or t w has a nonzero coefficient; no series is multiplied.

The different exponent of a place P in the quotient by a group G is
d(P) = sum over nontrivial sigma in the stabilizer of i_P(sigma). Each G_i
is a subgroup, so the generators of a cyclic subgroup share one i-value,
and inertia_data takes one generator per cyclic subgroup with a weight. The
same number is the Hilbert sum sum_i (|G_i| - 1) over the ramification
filtration, which we recompute as a consistency check whenever the i-values
are on hand.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._linalg import mat_adj3, mat_mul3, mat_vec3
from .autgrp import Aut, Group, apply_place, apply_point, from_affine, omega
from .curve import P_INF, Place, normalize_point
from .gf import FieldTower, GFError


class PrecisionError(GFError):
    pass


def to_infinity(tower: FieldTower, place: Place):
    """Point matrix T_P of an automorphism taking a rational place to P_inf
    (None for P_inf itself)."""
    if place == P_INF:
        return None
    lvl = tower.q2
    al, be = place.alpha, place.beta
    # the translation taking (al, be) to (0, 0), then omega swapping Y and Z
    tr = from_affine(tower, 1, lvl.neg(al), lvl.sub(lvl.mul(lvl.frobq(al), al), be))
    return mat_mul3(lvl, omega(tower).m, tr.m)


@dataclass(frozen=True)
class LocalFrame:
    """The curve point w = adj(T_P)(t, 1, u) near a rational place P, as its
    nonzero coefficient vectors w[e] of t^e, exact for e < horizon."""

    place: Place
    to_inf: tuple | None  # T_P
    w: dict
    horizon: int


def expand_at(tower: FieldTower, place: Place, horizon: int) -> LocalFrame:
    """The frame at a rational place, exact below t^horizon."""
    if place.kind == "degree3":
        raise GFError("local frames are only built at rational places")
    lvl = tower.q2
    # (t, 1, u) = sum over e of v[e] t^e, u in its closed form
    v = {0: (0, 1, 0), 1: (1, 0, 0)}
    e, c = tower.q + 1, 1
    while e < horizon:
        v[e] = (0, 0, c)
        e, c = e * tower.q, lvl.neg(c)
    t = to_infinity(tower, place)
    if t is not None:
        adj = mat_adj3(lvl, t)
        v = {e: mat_vec3(lvl, adj, x) for e, x in v.items()}
    return LocalFrame(place, t, v, horizon)


def _start_horizon(q: int) -> int:
    """The horizon a frame is first built to; i_value escalates at most to
    8 times it."""
    return q + 5


def _dot(lvl, r, v):
    m, ad = lvl.mul, lvl.add
    return ad(ad(m(r[0], v[0]), m(r[1], v[1])), m(r[2], v[2]))


def _order(lvl, frame: LocalFrame, r0, r1=None) -> int:
    """v(r0.w - t r1.w), or v(r0.w) without r1, from the exponents where
    w[e] or t w[e] is nonzero."""
    w = frame.w
    exps = set(w) if r1 is None else set(w) | {e + 1 for e in w}
    for n in sorted(e for e in exps if e < frame.horizon):
        c = _dot(lvl, r0, w[n]) if n in w else 0
        if r1 is not None and n - 1 in w:
            c = lvl.sub(c, _dot(lvl, r1, w[n - 1]))
        if c:
            return n
    raise PrecisionError(f"no nonzero term below t^{frame.horizon}")


def i_value(tower: FieldTower, place: Place, aut: Aut,
            frame: LocalFrame | None = None) -> int:
    """i_P(sigma) = v_P(sigma(t) - t) for the place's uniformizer t.

    Returns 0 when sigma does not fix the place. The frame at the place is
    built when none is given; its horizon escalates internally while the
    difference still vanishes to the known precision."""
    if aut.is_identity():
        raise GFError("i-value of the identity is infinite")
    lvl = tower.q2
    limit = 8 * _start_horizon(tower.q)
    if frame is None:
        frame = expand_at(tower, place, _start_horizon(tower.q))
    tm = aut.m if frame.to_inf is None else mat_mul3(lvl, frame.to_inf, aut.m)
    # w[0] is P, and sigma fixes P when T_P M w[0] is (0 : 1 : 0)
    image = mat_vec3(lvl, tm, frame.w[0])
    if image[0] or image[2]:
        return 0
    r0, r1 = tm[0:3], tm[3:6]
    while True:
        try:
            return _order(lvl, frame, r0, r1) - _order(lvl, frame, r1)
        except PrecisionError:
            if frame.horizon >= limit:
                raise
            frame = expand_at(tower, place, min(2 * frame.horizon, limit))


@dataclass(frozen=True)
class RamificationData:
    place: Place
    e: int
    f: int
    d: int
    i_values: tuple | None  # sorted tuple of i_P(sigma) over the inertia group

    @property
    def degree(self) -> int:
        return self.place.degree


def _is_prime_power_of(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def fixes_pointwise(tower: FieldTower, aut: Aut, place: Place) -> bool:
    """Whether aut fixes every point of the place. Its matrix has F_{q^2}
    entries and so commutes with Frobenius: at a degree-3 place, fixing one
    point fixes its conjugates."""
    if place.kind != "degree3":
        return apply_place(aut, place) == place
    pt = place.data[0]
    return normalize_point(tower.q6, apply_point(aut, tower.q6, pt)) == pt


def ramification_data(tower: FieldTower, place: Place, group: Group,
                      dual_check: bool = True) -> RamificationData:
    """Ramification data at a place in the quotient by a whole group, from
    its stabiliser found by applying every element."""
    setwise, inertia = 1, []
    for s in group.elements:
        if s.is_identity() or apply_place(s, place) != place:
            continue
        setwise += 1
        if place.kind != "degree3" or fixes_pointwise(tower, s, place):
            inertia.append((s, 1))
    assert group.order % setwise == 0
    return inertia_data(tower, place, inertia, setwise, dual_check)


def inertia_data(tower: FieldTower, place: Place, inertia, setwise: int,
                 dual_check: bool = True) -> RamificationData:
    """Ramification data at a place from its inertia group, the elements
    that fix it pointwise, given as pairs (sigma, weight): sigma generates
    a cyclic subgroup, standing for weight elements that share its i-value.
    The phi(n) generators of a cyclic subgroup of order n do, as every
    G_i(P) is a subgroup. setwise is the order of the setwise stabiliser."""
    p, q = tower.p, tower.q
    e = 1 + sum(w for _s, w in inertia)
    assert setwise % e == 0
    f = setwise // e
    if place.kind == "degree3":
        # degree-3 places are always tamely ramified with cyclic inertia of
        # order dividing q^2 - q + 1
        assert f in (1, 3)
        assert (q * q - q + 1) % e == 0 and e % p != 0
        return RamificationData(place, e, f, e - 1, None)
    assert f == 1, "a rational place has residue degree 1"
    wild = e % p == 0
    if not wild and not dual_check:
        return RamificationData(place, e, 1, e - 1, None)
    frame = expand_at(tower, place, _start_horizon(q)) if inertia else None
    ivals = sorted((i_value(tower, place, s, frame), w) for s, w in inertia)
    assert all(v >= 1 for v, _w in ivals), "stabilizer elements must fix P"
    d_sum = sum(v * w for v, w in ivals)
    # Hilbert form of the same sum, plus structural checks on the
    # filtration sizes
    imax = ivals[-1][0] if ivals else 0
    d_hilbert = 0
    for i in range(imax):
        gi = 1 + sum(w for v, w in ivals if v >= i + 1)
        if i == 0:
            assert gi == e
        if i == 1:
            assert _is_prime_power_of(gi, p)
        d_hilbert += gi - 1
    assert d_hilbert == d_sum
    if not wild:
        assert all(v == 1 for v, _w in ivals)
        assert d_sum == e - 1
    else:
        assert d_sum >= e, "wild ramification forces d >= e"
    return RamificationData(place, e, 1, d_sum,
                            tuple(v for v, w in ivals for _ in range(w)))
