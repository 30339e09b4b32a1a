"""Truncated Laurent series over F_(q^2): the arithmetic of the textbook
oracle in test_localval, which expands x and y at each place on its own."""

from __future__ import annotations

from dataclasses import dataclass

from hermquot.gf import GFError


class PrecisionError(GFError):
    """A coefficient or valuation asked for beyond a series' precision."""


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
