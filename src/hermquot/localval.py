"""Ramification data at places of the Hermitian curve, read off the affine
form of sigma at P_inf.

All wild ramification happens at rational places. A map T_P of PGU(3, q)
takes a rational place P to P_inf, and i-values are invariant under this
conjugation; T_P and its exact inverse are written down in closed form
(to_infinity), so a conjugate is two matrix products. At P_inf the
stabiliser is the affine group x -> a x + b, y -> a^(q+1) y + a b^q x + c,
whose lower ramification filtration is known (Garcia, Stichtenoth and Xing
2000): G_1 = {a = 1}, G_2 = ... = G_(q+1) = {tau(0, c)} and G_(q+2) = 1. So
for sigma fixing P, with (a, b, c) read off T_P sigma T_P^-1 (affine_form,
also the wild point count's one reader), i_P(sigma) is 1 when a != 1, 2
when a = 1 and b != 0, and q + 2 when only c is left.

expand_at writes the curve point near P as a power series in the
uniformizer: at P_inf, t = x/y = X/Y and u = 1/y = Z/Y solves
u + u^q = t^(q+1), with the closed form u = sum over k >= 0 of
(-1)^k t^((q+1) q^k), so the point is (t : 1 : u); near P it is
w = T_P^-1 (t, 1, u).

The different exponent of a place P in the quotient by a group G is
d(P) = sum over nontrivial sigma in the stabilizer of i_P(sigma). Each G_i
is a subgroup, so the generators of a cyclic subgroup share one i-value,
and inertia_data takes one generator per cyclic subgroup with a weight. The
same number is the Hilbert sum sum_i (|G_i| - 1) over the ramification
filtration, which we recompute as a consistency check whenever the i-values
are on hand. Every such check, and orbit-stabiliser and the residue degree,
raises EngineError naming the place, also under python -O.
"""

from __future__ import annotations

from typing import NamedTuple

from ._linalg import mat_mul3, mat_vec3
from .autgrp import Aut, Group, apply_place, apply_point
from .curve import P_INF, Place, normalize_point
from .gf import FieldTower, GFError


class EngineError(GFError):
    """A mathematical invariant of the computation does not hold."""


def to_infinity(tower: FieldTower, place: Place):
    """The frame (T_P, T_P^-1) of point matrices at a rational place
    P = (alpha, beta): T_P = omega tau(-alpha, alpha^(q+1) - beta) takes P to
    P_inf = (0 : 1 : 0), and tau(alpha, beta) omega is its exact inverse
    (None for P_inf itself)."""
    if place == P_INF:
        return None
    lvl, al, be = tower.q2, place.alpha, place.beta
    aq = lvl.frobq(al)
    return ((1, 0, lvl.neg(al), 0, 0, 1, lvl.neg(aq), 1,
             lvl.sub(lvl.mul(aq, al), be)),
            (1, al, 0, aq, be, 1, 0, 1, 0))


def affine_form(lvl, frame, m):
    """(a, b, c) of T M T^-1 for a frame (T, T^-1) from to_infinity (M itself
    for None), in the shape (a, 0, b; a b^q, a^(q+1), c; 0, 0, 1) up to a
    scalar; None when T M T^-1 moves P_inf = (0 : 1 : 0)."""
    if frame is not None:
        m = mat_mul3(lvl, mat_mul3(lvl, frame[0], m), frame[1])
    if m[1] or m[6] or m[7]:
        return None
    iz = lvl.inv(m[8])
    return lvl.mul(iz, m[0]), lvl.mul(iz, m[2]), lvl.mul(iz, m[5])


class LocalFrame(NamedTuple):
    """The curve point w = T_P^-1 (t, 1, u) near a rational place P, as its
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
    frame = to_infinity(tower, place)
    if frame is not None:
        v = {e: mat_vec3(lvl, frame[1], x) for e, x in v.items()}
    return LocalFrame(place, frame and frame[0], v, horizon)


def i_value(tower: FieldTower, place: Place, aut: Aut) -> int:
    """i_P(sigma) = v_P(sigma(t) - t) for the place's uniformizer t, 0 when
    sigma does not fix the place, read off sigma's affine form at P_inf."""
    if aut.is_identity():
        raise GFError("i-value of the identity is infinite")
    if place.kind == "degree3":
        raise GFError("i-values are only computed at rational places")
    form = affine_form(tower.q2, to_infinity(tower, place), aut.m)
    if form is None:
        return 0
    if form[0] != 1:
        return 1
    return 2 if form[1] else tower.q + 2


class OrbitRow(NamedTuple):
    """A ramified orbit: its representative, size and (e, f, d) at each."""

    rep: Place
    size: int
    e: int
    f: int
    d: int
    i_values: tuple | None  # sorted i_P(sigma) over the inertia group

    @property
    def degree(self) -> int:
        return self.rep.degree


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
                      dual_check: bool = True) -> OrbitRow:
    """The row of a place's orbit in the quotient by a whole group, from
    its stabiliser found by applying every element."""
    setwise, inertia = 1, []
    for s in group.elements:
        if s.is_identity() or apply_place(s, place) != place:
            continue
        setwise += 1
        if place.kind != "degree3" or fixes_pointwise(tower, s, place):
            inertia.append((s, 1))
    if group.order % setwise:
        raise EngineError(f"the stabiliser of {place} has order {setwise}, "
                          f"not a divisor of |G| = {group.order}")
    return inertia_data(tower, place, inertia, setwise,
                        group.order // setwise, dual_check)


def _hilbert_sum(ivals, e: int) -> tuple[int, int]:
    """sum over i >= 0 of (|G_i| - 1), and |G_1|, in one pass over the
    sorted pairs (i-value, weight): |G_i| = 1 + the weight of the i-values
    above i, so the levels from one i-value up to the next share it."""
    total, level, size, g1 = 0, 0, e, e
    for v, w in ivals:
        total += (v - level) * (size - 1)
        level, size = v, size - w
        if v == 1:
            g1 = size
    return total, g1


def inertia_data(tower: FieldTower, place: Place, inertia, setwise: int,
                 size: int, dual_check: bool = True) -> OrbitRow:
    """The row of a place's orbit of size places from its inertia group,
    the elements that fix it pointwise, given as pairs (sigma, weight):
    sigma generates a cyclic subgroup, standing for weight elements that
    share its i-value, as every G_i(P) is a subgroup. setwise is the order
    of the setwise stabiliser. A broken invariant raises EngineError."""
    p, q = tower.p, tower.q
    e = 1 + sum(w for _s, w in inertia)
    if setwise % e:
        raise EngineError(f"the inertia group at {place} has order {e}, not "
                          f"a divisor of its stabiliser's order {setwise}")
    f = setwise // e
    if place.kind == "degree3":
        # degree-3 places are always tamely ramified with cyclic inertia of
        # order dividing q^2 - q + 1
        if f not in (1, 3):
            raise EngineError(f"residue degree {f} at {place}, not 1 or 3")
        if (q * q - q + 1) % e or e % p == 0:
            raise EngineError(f"the inertia group at {place} has order {e}, "
                              f"not a divisor of q^2 - q + 1")
        return OrbitRow(place, size, e, f, e - 1, None)
    if f != 1:
        raise EngineError(f"residue degree {f} at the rational place {place}")
    wild = e % p == 0
    if not wild and not dual_check:
        return OrbitRow(place, size, e, 1, e - 1, None)
    ivals = sorted((i_value(tower, place, s), w) for s, w in inertia)
    if ivals and ivals[0][0] < 1:
        raise EngineError(f"an element of the inertia group at {place} does "
                          f"not fix it, so |G_0| is not e = {e}")
    d_sum = sum(v * w for v, w in ivals)
    # the Hilbert form of the same sum, and the filtration's G_1
    d_hilbert, g1 = _hilbert_sum(ivals, e)
    if not _is_prime_power_of(g1, p):
        raise EngineError(f"|G_1| = {g1} at {place} is not a power of p")
    if d_hilbert != d_sum:
        raise EngineError(f"the Hilbert sum at {place} is {d_hilbert}, not "
                          f"the sum {d_sum} of the i-values")
    if not wild and d_sum != e - 1:
        raise EngineError(f"tame ramification at {place} has d = {d_sum}, "
                          f"not e - 1 = {e - 1}")
    if wild and d_sum < e:
        raise EngineError(f"wild ramification at {place} has d = {d_sum} < "
                          f"e = {e}")
    return OrbitRow(place, size, e, 1, d_sum,
                    tuple(v for v, w in ivals for _ in range(w)))
