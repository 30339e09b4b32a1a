"""Ramification data at places of the Hermitian curve, from one expansion.

All wild ramification happens at rational places, and every i-value is read
off one expansion at P_inf: there t = x/y = X/Y is a uniformizer and
u = 1/y = Z/Y solves u + u^q = t^(q+1), so the curve point is (t : 1 : u).
A map T_P of PGU(3, q) takes a rational place P to P_inf (i-values are
invariant under this conjugation), the point near P is w = adj(T_P)(t, 1, u)
and its uniformizer is l_0/l_1 for the first two rows of T_P, x - alpha at
an affine place (alpha, beta). For sigma fixing P with point matrix M,
i_P(sigma) = v(l_0(M w) - t l_1(M w)) - v(l_1(M w)), scanned over the few
exponents where w or t w has a nonzero coefficient; no series is multiplied.

The different exponent of a place P in the quotient by a group G is
d(P) = sum over nontrivial sigma in the stabilizer of i_P(sigma). The same
number is the Hilbert sum sum_i (|G_i| - 1) over the ramification
filtration, which we recompute as a consistency check whenever the i-values
are on hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ._linalg import mat_adj3, mat_mul3, mat_vec3
from .autgrp import Aut, Group, apply_place, apply_point, from_affine, omega
from .curve import P_INF, Place, normalize_point
from .gf import FieldTower, GFError


class PrecisionError(GFError):
    pass


@dataclass(frozen=True)
class Series:
    """A truncated Laurent series: coefficients cs[i] of t^(off + i), exact
    for all exponents below prec."""

    lvl: object
    off: int
    cs: tuple
    prec: int

    @staticmethod
    def make(lvl, off, cs, prec):
        cs = list(cs)
        while cs and cs[-1] == 0:
            cs.pop()
        while cs and cs[0] == 0:
            cs.pop(0)
            off += 1
        if len(cs) > prec - off:
            cs = cs[: max(prec - off, 0)]
            while cs and cs[-1] == 0:
                cs.pop()
        if not cs:
            off = prec
        return Series(lvl, off, tuple(cs), prec)

    @staticmethod
    def zero(lvl, prec):
        return Series(lvl, prec, (), prec)

    @staticmethod
    def t_power(lvl, n, prec):
        return Series.make(lvl, n, [1], prec)

    def is_zero_to_prec(self) -> bool:
        return not self.cs

    def valuation(self) -> int:
        if not self.cs:
            raise PrecisionError(
                f"series is zero to its precision O(t^{self.prec})")
        return self.off

    def coeff(self, n: int) -> int:
        if n >= self.prec:
            raise PrecisionError(f"coefficient of t^{n} beyond O(t^{self.prec})")
        if n < self.off or n >= self.off + len(self.cs):
            return 0
        return self.cs[n - self.off]

    def __add__(self, other: "Series") -> "Series":
        lvl = self.lvl
        prec = min(self.prec, other.prec)
        off = min(self.off, other.off, prec)
        n = max(self.off + len(self.cs), other.off + len(other.cs), off)
        cs = [0] * (n - off)
        for i, c in enumerate(self.cs):
            cs[self.off + i - off] = c
        for i, c in enumerate(other.cs):
            j = other.off + i - off
            cs[j] = lvl.add(cs[j], c)
        return Series.make(lvl, off, cs, prec)

    def __neg__(self) -> "Series":
        lvl = self.lvl
        return Series(lvl, self.off, tuple(lvl.neg(c) for c in self.cs), self.prec)

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def __mul__(self, other: "Series") -> "Series":
        lvl = self.lvl
        if not self.cs or not other.cs:
            # the product is zero up to the precision the zero factor allows
            prec = min(self.prec + other.off, other.prec + self.off,
                       self.prec + other.prec)
            return Series.zero(lvl, prec)
        prec = min(self.prec + other.off, other.prec + self.off)
        off = self.off + other.off
        n = min(len(self.cs) + len(other.cs) - 1, prec - off)
        cs = [0] * n
        for i, ci in enumerate(self.cs):
            if ci == 0:
                continue
            for j, cj in enumerate(other.cs):
                k = i + j
                if k >= n:
                    break
                if cj:
                    cs[k] = lvl.add(cs[k], lvl.mul(ci, cj))
        return Series.make(lvl, off, cs, prec)

    def frobq(self) -> "Series":
        """The q-power map: exponents scale by q, coefficients by Frobenius."""
        lvl = self.lvl
        q = lvl.q
        cs = [0] * (q * (len(self.cs) - 1) + 1) if self.cs else []
        for i, c in enumerate(self.cs):
            cs[q * i] = lvl.frobq(c)
        return Series.make(lvl, q * self.off, cs, q * self.prec)

    def inverse(self) -> "Series":
        lvl = self.lvl
        m = self.valuation()
        n = self.prec - m  # known unit-part coefficients
        u = [self.coeff(m + i) for i in range(n)]
        w = [0] * n
        i0 = lvl.inv(u[0])
        w[0] = i0
        for k in range(1, n):
            acc = 0
            for j in range(1, k + 1):
                if u[j] and w[k - j]:
                    acc = lvl.add(acc, lvl.mul(u[j], w[k - j]))
            w[k] = lvl.neg(lvl.mul(i0, acc))
        return Series.make(lvl, -m, w, self.prec - 2 * m)


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


def pole_expansion(tower: FieldTower, horizon: int) -> Series:
    """u = Z/Y in t = X/Y at P_inf, exact below t^horizon: the iteration
    u <- t^(q+1) - u^q of u + u^q = t^(q+1)."""
    lvl, q = tower.q2, tower.q
    tq1 = Series.t_power(lvl, q + 1, horizon)
    u = Series.zero(lvl, horizon)
    k = q + 1
    while k < horizon:
        u = tq1 - u.frobq()
        u = Series.make(lvl, u.off, u.cs, min(u.prec, horizon))
        k *= q
    resid = u + u.frobq() - tq1
    assert resid.is_zero_to_prec() and resid.prec >= horizon
    return u


@dataclass(frozen=True)
class LocalFrame:
    """The curve point w = adj(T_P)(t, 1, u) near a rational place P, as its
    nonzero coefficient vectors w[e] of t^e, exact for e < horizon."""

    place: Place
    to_inf: tuple | None  # T_P
    w: dict
    horizon: int


def expand_at(tower: FieldTower, place: Place, horizon: int,
              u: Series | None = None) -> LocalFrame:
    """The frame at a rational place; u is the pole expansion to this
    horizon when the caller already has it."""
    if place.kind == "degree3":
        raise GFError("local frames are only built at rational places")
    lvl = tower.q2
    if u is None:
        u = pole_expansion(tower, horizon)
    # (t, 1, u) = sum over e of v[e] t^e
    v = {0: (0, 1, 0), 1: (1, 0, 0)}
    for i, c in enumerate(u.cs):
        if c:
            v[u.off + i] = (0, 0, c)
    t = to_infinity(tower, place)
    if t is not None:
        adj = mat_adj3(lvl, t)
        v = {e: mat_vec3(lvl, adj, x) for e, x in v.items()}
    return LocalFrame(place, t, v, horizon)


@dataclass
class FrameCache:
    tower: FieldTower
    frames: dict = field(default_factory=dict)
    poles: dict = field(default_factory=dict)  # horizon -> pole expansion

    def get(self, place: Place, horizon: int) -> LocalFrame:
        key = (place.kind, place.data)
        frame = self.frames.get(key)
        if frame is None or frame.horizon < horizon:
            if horizon not in self.poles:
                self.poles[horizon] = pole_expansion(self.tower, horizon)
            frame = self.frames[key] = expand_at(self.tower, place, horizon,
                                                 self.poles[horizon])
        return frame


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
            cache: FrameCache) -> int:
    """i_P(sigma) = v_P(sigma(t) - t) for the place's uniformizer t.

    Returns 0 when sigma does not fix the place. The horizon escalates
    internally while the difference still vanishes to the known precision."""
    if aut.is_identity():
        raise GFError("i-value of the identity is infinite")
    lvl = tower.q2
    n = tower.q + 5
    limit = 8 * n
    frame = cache.get(place, n)
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
            if n >= limit:
                raise
            n = min(2 * n, limit)
            frame = cache.get(place, n)


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


def ramification_data(tower: FieldTower, place: Place, group: Group,
                      cache: FrameCache, dual_check: bool = True
                      ) -> RamificationData:
    p, q = tower.p, tower.q
    if place.kind != "degree3":
        stab = [s for s in group.elements
                if not s.is_identity() and apply_place(s, place) == place]
        e = len(stab) + 1
        assert group.order % e == 0
        wild = e % p == 0
        if not wild and not dual_check:
            return RamificationData(place, e, 1, e - 1, None)
        ivals = sorted(i_value(tower, place, s, cache) for s in stab)
        assert all(v >= 1 for v in ivals), "stabilizer elements must fix P"
        d_sum = sum(ivals)
        # Hilbert form of the same sum, plus structural checks on the
        # filtration sizes
        imax = ivals[-1] if ivals else 0
        d_hilbert = 0
        for i in range(imax):
            gi = 1 + sum(1 for v in ivals if v >= i + 1)
            if i == 0:
                assert gi == e
            if i == 1:
                assert _is_prime_power_of(gi, p)
            d_hilbert += gi - 1
        assert d_hilbert == d_sum
        if not wild:
            assert all(v == 1 for v in ivals)
            assert d_sum == e - 1
        else:
            assert d_sum >= e, "wild ramification forces d >= e"
        return RamificationData(place, e, 1, d_sum, tuple(ivals))
    # degree-3 places are always tamely ramified with cyclic inertia of
    # order dividing q^2 - q + 1
    q6 = tower.q6
    pt0 = place.data[0]
    setwise = 1
    pointwise = 1
    for s in group.elements:
        if s.is_identity():
            continue
        if apply_place(s, place) == place:
            setwise += 1
            if normalize_point(q6, apply_point(s, q6, pt0)) == pt0:
                pointwise += 1
    e = pointwise
    assert setwise % e == 0
    f = setwise // e
    assert f in (1, 3)
    assert (q * q - q + 1) % e == 0 and e % p != 0
    return RamificationData(place, e, f, e - 1, None)
