"""Local expansions and ramification data at places of the Hermitian curve.

All wild ramification happens at rational places, so Laurent series frames
are only ever built there. At a finite place (alpha, beta) the uniformizer
is t = x - alpha and y = beta + s with s^q + s = R(t),
R = alpha^q t + alpha t^q + t^(q+1); at the common pole of x and y the
uniformizer is t = x/y and u = 1/y solves u + u^q = t^(q+1).

The different exponent of a place P in the quotient by a group G is
d(P) = sum over nontrivial sigma in the stabilizer of i_P(sigma), where
i_P(sigma) = v_P(sigma(t) - t). The same number is the Hilbert sum
sum_i (|G_i| - 1) over the ramification filtration, which we recompute as a
consistency check whenever the i-values are on hand.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .autgrp import Aut, Group, apply_place, apply_point
from .curve import Place, normalize_point
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
            cs = cs[: prec - off]
            while cs and cs[-1] == 0:
                cs.pop()
        if not cs:
            off = prec
        return Series(lvl, off, tuple(cs), prec)

    @staticmethod
    def zero(lvl, prec):
        return Series(lvl, prec, (), prec)

    @staticmethod
    def const(lvl, c, prec):
        return Series.make(lvl, 0, [c], prec)

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

    def scaled(self, c: int) -> "Series":
        lvl = self.lvl
        if c == 0:
            return Series.zero(lvl, self.prec)
        return Series.make(lvl, self.off,
                           [lvl.mul(c, x) for x in self.cs], self.prec)

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


@dataclass(frozen=True)
class LocalFrame:
    """Expansions of x and y in the local uniformizer at a rational place."""

    place: Place
    x: Series
    y: Series
    horizon: int


def expand_at(tower: FieldTower, place: Place, horizon: int) -> LocalFrame:
    lvl = tower.q2
    q = tower.q
    if place.kind == "degree3":
        raise GFError("local frames are only built at rational places")
    if place.kind == "rational":
        alpha, beta = place.alpha, place.beta
        n = horizon
        x = Series.make(lvl, 0, [alpha, 1], n)
        t = Series.t_power(lvl, 1, n)
        r = (t.scaled(lvl.frobq(alpha))
             + Series.t_power(lvl, q, n).scaled(alpha)
             + Series.t_power(lvl, q + 1, n))
        s = Series.zero(lvl, n)
        k = 1
        while k < n:
            s = r - s.frobq()
            s = Series.make(lvl, s.off, s.cs, min(s.prec, n))
            k *= q
        y = Series.const(lvl, beta, n) + s
        resid = y.frobq() + y - x.frobq() * x
        assert resid.is_zero_to_prec() and resid.prec >= n
        assert s.valuation() == (q + 1 if alpha == 0 else 1)
        return LocalFrame(place, x, y, n)
    # common pole of x and y: work at padded precision so that inverting
    # u (valuation q + 1) still leaves horizon many exact terms
    n = horizon + 2 * (q + 1) + 2
    tq1 = Series.t_power(lvl, q + 1, n)
    u = Series.zero(lvl, n)
    k = q + 1
    while k < n:
        u = tq1 - u.frobq()
        u = Series.make(lvl, u.off, u.cs, min(u.prec, n))
        k *= q
    # u + u^q = t^(q+1) implies the curve equation identically for
    # y = 1/u, x = t/u, so checking it avoids the precision loss of
    # forming x^(q+1) at a pole
    resid = u + u.frobq() - tq1
    assert resid.is_zero_to_prec() and resid.prec >= n
    y = u.inverse()
    x = Series.t_power(lvl, 1, n) * y
    assert x.valuation() == -q and y.valuation() == -(q + 1)
    return LocalFrame(place, x, y, horizon)


@dataclass
class FrameCache:
    tower: FieldTower
    frames: dict = field(default_factory=dict)

    def get(self, place: Place, horizon: int) -> LocalFrame:
        key = (place.kind, place.data)
        frame = self.frames.get(key)
        if frame is None or frame.horizon < horizon:
            frame = expand_at(self.tower, place, horizon)
            self.frames[key] = frame
        return frame


def _row_series(lvl, row, x: Series, y: Series, prec: int) -> Series:
    out = x.scaled(row[0]) + y.scaled(row[1])
    if row[2]:
        out = out + Series.const(lvl, row[2], prec)
    return out


def _i_value_at_horizon(tower: FieldTower, frame: LocalFrame, aut: Aut) -> int:
    lvl = tower.q2
    m = aut.m
    x, y = frame.x, frame.y
    prec = min(x.prec, y.prec)
    if frame.place.kind == "rational":
        num = _row_series(lvl, m[0:3], x, y, prec)
        den = _row_series(lvl, m[6:9], x, y, prec)
        return (num - x * den).valuation() - den.valuation()
    num0 = _row_series(lvl, m[0:3], x, y, prec)
    num1 = _row_series(lvl, m[3:6], x, y, prec)
    return ((num0 * y - x * num1).valuation()
            - num1.valuation() - y.valuation())


def i_value(tower: FieldTower, place: Place, aut: Aut,
            cache: FrameCache) -> int:
    """i_P(sigma) = v_P(sigma(t) - t) for the place's uniformizer t.

    Returns 0 when sigma does not fix the place (the difference is then a
    unit or has a pole). The horizon escalates internally while the
    difference still vanishes to the known precision."""
    if aut.is_identity():
        raise GFError("i-value of the identity is infinite")
    n = tower.q + 5
    limit = 8 * n
    while True:
        frame = cache.get(place, n)
        try:
            val = _i_value_at_horizon(tower, frame, aut)
            return max(val, 0)
        except PrecisionError:
            if n >= limit:
                raise
            n = min(2 * n, limit)


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
