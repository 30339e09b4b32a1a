"""Exact arithmetic in the field tower F_p < F_{q^2} < F_{q^6}.

Elements are packed integers.  An element of F_{q^2} = F_p[X]/(m) is the
integer whose base-p digits are the polynomial coefficients, constant
coefficient in the lowest digit.  An element of F_{q^6}, built as a cubic
extension of F_{q^2}, packs three F_{q^2} values in base |F_{q^2}|.  With
this packing the embedding F_{q^2} -> F_{q^6} is the identity on integers.

Both moduli and the canonical primitive are picked by a fixed deterministic
rule (least coefficient tuple, compared from the constant term upward), so
two towers built for the same (p, e) are bit-identical.  The F_{q^2} tables
come from one linear walk: the powers of each candidate in key order, until
one candidate's powers fill F_{q^2}^*.

There is one polynomial arithmetic: the generic p_* helpers, which run over
any level (F_p, F_{q^2} or F_{q^6}).  They test the base modulus for
irreducibility and find roots.  The hot paths are written out by hand: the
F_{q^6} product, the 3x3 matrix products over F_{q^2} (_linalg.mat_mul3
and mat_vec3), which read the F_{q^2} log/exp and addition tables directly,
and BaseLevel.values, which evaluates a sparse polynomial on all of
F_{q^2}^* in one scan of those tables; poly_roots and the curve-point
search take their F_{q^2} zeros from it.
"""
from __future__ import annotations

import itertools
import operator
import random


class GFError(Exception):
    pass


class BudgetExceeded(GFError):
    pass


TABLE_LIMIT = 1 << 20       # largest field size for exp/log tables
ADD_TABLE_LIMIT = 1024      # largest field size for a full addition table
SCAN_ROOT_LIMIT = 1024      # F_(q^2) root scan up to this size (q <= 32)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; fine at desk scale."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# ---------------------------------------------------------------------------
# Levels.  Every polynomial operation but the hot paths goes through
# the p_* helpers below, which need only add, sub, mul and inv from a level
# (zero and one are the ints 0 and 1); F_p is such a minimal level.
# poly_roots also needs size, char, neg and key (deterministic ordering
# tuple).  F_{q^2} and F_{q^6} also expose pow and frobq (the q-power map).

class _PrimeLevel:
    """F_p with plain modular arithmetic; only used while building F_{q^2}."""

    def __init__(self, p: int):
        self.p = p

    def add(self, x, y):
        return (x + y) % self.p

    def sub(self, x, y):
        return (x - y) % self.p

    def mul(self, x, y):
        return x * y % self.p

    def inv(self, x):
        if x % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(x, self.p - 2, self.p)


def _is_irreducible(fp: _PrimeLevel, f) -> bool:
    """Rabin's test for a monic f of degree d >= 1 over F_p: X^(p^d) = X
    mod f, and gcd(f, X^(p^(d/r)) - X) = 1 for every prime r | d."""
    d = len(f) - 1

    def frob_minus_x(k):  # X^(p^k) - X mod f
        h = p_powmod(fp, [0, 1], fp.p ** k, f) + [0, 0]
        h[1] = fp.sub(h[1], 1)
        return p_mod(fp, p_trim(h), f)

    return not frob_minus_x(d) and all(
        len(p_gcd(fp, f, frob_minus_x(d // r))) == 1 for r in factorize(d))


class _DigitSums:
    """The addition table, entry x |F| + y = x + y, computed on demand."""

    def __init__(self, lvl):
        self.lvl = lvl

    def __getitem__(self, i):
        lvl = self.lvl
        x, y = divmod(i, lvl.size)
        return lvl.pack([(u + v) % lvl.p for u, v in
                         zip(lvl.digits(x), lvl.digits(y))])


class BaseLevel:
    """F_{q^2} with exp/log tables generated by the canonical primitive.

    With n = q^2 - 1, _L is the log table with log 0 = 2n and _E the exp
    table twice and then 2n + 1 zeros, so x y = _E[_L[x] + _L[y]] with no
    branch; _addt[x |F| + y] = x + y for odd p.  rank[x] is x's place in
    key order."""

    name = "q2"

    def __init__(self, p: int, e: int):
        self.p = p
        self.char = p
        self.e = e
        # p^(2e) with the exponent capped where 2^(2e) passes the limit, so
        # a huge e is rejected without being raised to
        if p ** min(2 * e, TABLE_LIMIT.bit_length()) > TABLE_LIMIT:
            raise GFError(f"|F_q^2| = {p}^{2 * e} exceeds the desk-scale table limit")
        self.q = p ** e
        self.deg = 2 * e
        self.size = p ** self.deg
        self.mod = self._find_modulus()
        self._build_tables()

    # -- packing -----------------------------------------------------------
    def digits(self, x: int) -> tuple[int, ...]:
        p = self.p
        out = []
        for _ in range(self.deg):
            out.append(x % p)
            x //= p
        return tuple(out)

    def pack(self, digits) -> int:
        x = 0
        for d in reversed(digits):
            x = x * self.p + d
        return x

    def key(self, x: int) -> tuple[int, ...]:
        """Ordering key: coefficient tuple from the constant term upward."""
        return self.digits(x)

    # -- construction ------------------------------------------------------
    def _find_modulus(self) -> tuple[int, ...]:
        fp = _PrimeLevel(self.p)
        for coeffs in itertools.product(range(self.p), repeat=self.deg):
            if coeffs[0] == 0:
                continue  # constant term zero is always reducible
            f = [*coeffs, 1]
            # so is f with a root in F_p, a test far cheaper than Rabin's
            rootless = all(p_eval(fp, f, r) for r in range(1, self.p))
            if rootless and _is_irreducible(fp, f):
                return coeffs
        raise GFError("no irreducible modulus found")  # pragma: no cover

    def _build_tables(self):
        p, deg, size, n = self.p, self.deg, self.size, self.size - 1
        # key order is the order of the digit-reversed integers, so the
        # reversal is the rank, and, being an involution, its inverse too
        rank = [0]
        for _ in range(deg):
            rank = [r * p + d for d in range(p) for r in rank]
        self.rank = rank
        if p == 2:
            self.negt = None
            self.add = add = operator.xor
            self.neg = lambda x: x
        else:
            self.negt = [self.pack([(-d) % p for d in self.digits(x)])
                         for x in range(size)]
            self.neg = self.negt.__getitem__
            if size <= ADD_TABLE_LIMIT:
                # digit by digit: with x = x0 + p x' and y = y0 + p y', x + y
                # is (x0 + y0) mod p + p (x' + y'), so row x0 + p x' is row
                # p x' with its digit blocks rotated by x0
                addt, s = [0], 1
                for _ in range(deg):
                    S = s * p
                    rows = [0] * (S * S)
                    for x1 in range(s):
                        pv = addt[x1 * s:(x1 + 1) * s]
                        cols = [[p * v + d for v in pv] for d in range(p)]
                        for x0 in range(p):
                            o = (x1 * p + x0) * S
                            for y0 in range(p):
                                rows[o + y0:o + S:p] = cols[(x0 + y0) % p]
                    addt, s = rows, S
            else:  # pragma: no cover - beyond desk scale
                addt = _DigitSums(self)
            self._addt = addt
            self.add = add = lambda x, y: addt[x * size + y]
        # The canonical primitive is the first candidate in key order whose
        # powers walk through all of F^*; that walk is the exp table.  With
        # y = y0 + X y', the table of y -> x y is y0 x + X (x y'), where X z
        # shifts z's digits up one place and reduces the top one by the modulus.
        top = p ** (deg - 1)
        red = [self.pack([(-t * c) % p for c in self.mod]) for t in range(p)]
        for x in rank[1:]:
            xs, tab = [0], [0] * size
            for _ in range(p - 1):
                xs.append(add(xs[-1], x))
            for y in range(1, size):
                z = tab[y // p]
                tab[y] = add(xs[y % p], add(z % top * p, red[z // top]))
            exp, cur = [1], tab[1]
            while cur != 1:
                exp.append(cur)
                cur = tab[cur]
            if len(exp) == n:
                break
        else:  # pragma: no cover
            raise GFError("no primitive element")
        log = [-1] * size
        for i, v in enumerate(exp):
            log[v] = i
        self.a, self.exp, self.log = x, exp, log
        self._E = exp + exp + [0] * (2 * n + 1)
        self._L = [2 * n] + log[1:]
        self.frobt = [0] + [exp[l * self.q % n] for l in log[1:]]
        self._strides = {}  # e -> getter of the e l mod n, l < n, for values

    # -- arithmetic ---------------------------------------------------------
    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        return self._E[self._L[x] + self._L[y]]

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.exp[(-self.log[x]) % (self.size - 1)]

    def div(self, x, y):
        return self.mul(x, self.inv(y))

    def pow(self, x, k):
        if x == 0:
            if k == 0:
                return 1
            if k < 0:
                raise ZeroDivisionError("0 ** negative")
            return 0
        return self.exp[(self.log[x] * k) % (self.size - 1)]

    def frobq(self, x):
        """x -> x^q."""
        return self.frobt[x]

    def dlog(self, x) -> int:
        if x == 0:
            raise GFError("dlog of zero")
        return self.log[x]

    def elements_by_key(self):
        return list(self.rank)

    def values(self, terms):
        """Values of sum c s^e over the (c, e) in terms at s = a^l for
        l = 0..n-1, n = |F| - 1, as a sequence: c s^e is exp[log c + e l],
        the exp table rotated by log c and read at the indices e l mod n,
        whose getter is kept per e."""
        n, E, L, size = self.size - 1, self._E, self._L, self.size
        vals = None
        for c, e in terms:
            if not c:
                continue
            col = E[L[c]:L[c] + n]
            if e != 1:
                get = self._strides.get(e)
                if get is None:
                    get = self._strides[e] = operator.itemgetter(
                        *[e * l % n for l in range(n)])
                col = get(col)
            if vals is None:
                vals = col
            elif self.p == 2:
                vals = list(map(operator.xor, vals, col))
            else:
                vals = list(map(self._addt.__getitem__, map(
                    operator.add, map(size.__mul__, vals), col)))
        return [0] * n if vals is None else vals

    def zeros(self, c0, terms) -> list[int]:
        """The s in F at which c0 + sum c s^e vanishes, every e >= 1: 0 when
        c0 = 0, and the a^l at which values(terms) is -c0."""
        vals, x = self.values(terms), self.neg(c0)
        out = [0] if c0 == 0 else []
        l = -1
        for _ in range(vals.count(x)):
            l = vals.index(x, l + 1)
            out.append(self.exp[l])
        return out


class ExtLevel:
    """F_{q^6} as a cubic extension of the base level (no big tables)."""

    name = "q6"

    def __init__(self, base: BaseLevel):
        self.base = base
        self.char = base.p
        self.q = base.q
        Q = base.size
        self._Q = Q
        self._Q2 = Q * Q
        self.size = Q ** 3
        self.mod = self._find_modulus()
        g0, g1, g2 = self.mod
        nb = base.neg
        self._red3 = (nb(g0), nb(g1), nb(g2))          # t^3
        r0, r1, r2 = self._red3
        m, ad = base.mul, base.add
        self._red4 = (m(r2, self._red3[0]),            # t^4 = t * t^3 reduced
                      ad(r0, m(r2, self._red3[1])),
                      ad(r1, m(r2, self._red3[2])))
        t = Q  # the generator t packs as (0, 1, 0)
        tq = self.pow(t, base.q)
        self._tq = (1, tq, self.mul(tq, tq))
        tq2 = self.pow(t, base.size)
        self._tq2 = (1, tq2, self.mul(tq2, tq2))
        self._primitive = None

    def _find_modulus(self) -> tuple[int, int, int]:
        b = self.base
        elems = b.elements_by_key()
        for g0 in elems:
            if g0 == 0:
                continue  # constant term zero is always reducible
            for g1 in elems:
                for g2 in elems:
                    f = (g0, g1, g2, 1)
                    if all(p_eval(b, f, x) for x in range(b.size)):
                        return (g0, g1, g2)
        raise GFError("no irreducible cubic")  # pragma: no cover

    def unpack(self, x):
        Q = self._Q
        return x % Q, (x // Q) % Q, x // self._Q2

    def pack(self, c0, c1, c2):
        return c0 + c1 * self._Q + c2 * self._Q2

    def key(self, x):
        """Ordering key: the base keys' order, coefficient by coefficient."""
        c0, c1, c2 = self.unpack(x)
        rank = self.base.rank
        return (rank[c0], rank[c1], rank[c2])

    def add(self, x, y):
        a0, a1, a2 = self.unpack(x)
        b0, b1, b2 = self.unpack(y)
        ad = self.base.add
        return self.pack(ad(a0, b0), ad(a1, b1), ad(a2, b2))

    def neg(self, x):
        a0, a1, a2 = self.unpack(x)
        n = self.base.neg
        return self.pack(n(a0), n(a1), n(a2))

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        a0, a1, a2 = self.unpack(x)
        b0, b1, b2 = self.unpack(y)
        m, ad = self.base.mul, self.base.add
        c0 = m(a0, b0)
        c1 = ad(m(a0, b1), m(a1, b0))
        c2 = ad(ad(m(a0, b2), m(a1, b1)), m(a2, b0))
        c3 = ad(m(a1, b2), m(a2, b1))
        c4 = m(a2, b2)
        if c3 or c4:
            r30, r31, r32 = self._red3
            r40, r41, r42 = self._red4
            c0 = ad(c0, ad(m(c3, r30), m(c4, r40)))
            c1 = ad(c1, ad(m(c3, r31), m(c4, r41)))
            c2 = ad(c2, ad(m(c3, r32), m(c4, r42)))
        return self.pack(c0, c1, c2)

    def scalar_mul(self, c: int, x: int) -> int:
        """Multiply by c from the base field."""
        a0, a1, a2 = self.unpack(x)
        m = self.base.mul
        return self.pack(m(c, a0), m(c, a1), m(c, a2))

    def inv(self, x):
        """x^-1 = y / N(x) with y = x^(q^2) x^(q^4) and the norm N(x) = x y
        in the base field; the base inverse raises ZeroDivisionError at 0."""
        y = self.frobq2(x)
        y = self.mul(y, self.frobq2(y))
        return self.scalar_mul(self.base.inv(self.mul(x, y)), y)

    def pow(self, x, n):
        if n < 0:
            x, n = self.inv(x), -n
        if x == 0:
            return 0 if n else 1
        n %= self.size - 1
        r = 1
        while n:
            if n & 1:
                r = self.mul(r, x)
            x = self.mul(x, x)
            n >>= 1
        return r

    def _semilinear(self, x, powers, basefrob):
        c0, c1, c2 = self.unpack(x)
        r = basefrob(c0)
        r = self.add(r, self.scalar_mul(basefrob(c1), powers[1]))
        return self.add(r, self.scalar_mul(basefrob(c2), powers[2]))

    def frobq(self, x):
        """x -> x^q."""
        return self._semilinear(x, self._tq, self.base.frobq)

    def frobq2(self, x):
        """x -> x^(q^2)."""
        return self._semilinear(x, self._tq2, lambda c: c)

    def in_base(self, x) -> bool:
        return x < self._Q

    def primitive(self) -> int:
        """A deterministic generator of the multiplicative group."""
        if self._primitive is None:
            fac = factorize(self.size - 1)
            x = 2
            while True:
                if all(self.pow(x, (self.size - 1) // r) != 1 for r in fac):
                    self._primitive = x
                    break
                x += 1
        return self._primitive


# ---------------------------------------------------------------------------
# Generic dense polynomials over a level (little-endian int lists).

def p_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def p_eval(lvl, cs, x):
    r = 0
    for c in reversed(cs):
        r = lvl.add(lvl.mul(r, x), c)
    return r


def p_mul(lvl, a, b):
    if not a or not b:
        return []
    r = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                r[i + j] = lvl.add(r[i + j], lvl.mul(ai, bj))
    return p_trim(r)


def p_divmod(lvl, a, b):
    a = list(a)
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    inv_lead = lvl.inv(b[-1])
    quo = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = lvl.mul(a[i + len(b) - 1], inv_lead)
        quo[i] = c
        if c:
            for j, bj in enumerate(b):
                a[i + j] = lvl.sub(a[i + j], lvl.mul(c, bj))
    return quo, p_trim(a[:len(b) - 1])


def p_mod(lvl, a, b):
    return p_divmod(lvl, a, b)[1]


def p_monic(lvl, a):
    if not a:
        return a
    c = lvl.inv(a[-1])
    return [lvl.mul(c, x) for x in a]


def p_gcd(lvl, a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, p_mod(lvl, a, b)
    return p_monic(lvl, a)


def p_powmod(lvl, a, n, m):
    r = [1]
    a = p_mod(lvl, a, m)
    while n:
        if n & 1:
            r = p_mod(lvl, p_mul(lvl, r, a), m)
        a = p_mod(lvl, p_mul(lvl, a, a), m)
        n >>= 1
    return r


def _split_linears(lvl, g, rng):
    """g = monic product of distinct linear factors; return its roots."""
    if len(g) == 2:
        return [lvl.neg(g[0]) if g[1] == 1 else lvl.mul(lvl.neg(g[0]), lvl.inv(g[1]))]
    if len(g) < 2:
        return []
    for _ in range(200):
        r = rng.randrange(lvl.size)
        if lvl.char == 2:
            # gcd with the absolute trace of r*X splits char-2 fields
            k = (lvl.size - 1).bit_length()
            cur = p_mod(lvl, [0, r], g)
            acc = list(cur) + [0] * (len(g) - 1 - len(cur))
            for _ in range(k - 1):
                cur = p_mod(lvl, p_mul(lvl, cur, cur), g)
                for i, c in enumerate(cur):
                    acc[i] = lvl.add(acc[i], c)
            d = p_gcd(lvl, p_trim(list(acc)), g)
        else:
            w = p_powmod(lvl, [r, 1], (lvl.size - 1) // 2, g)
            w = list(w) + [0]
            w[0] = lvl.sub(w[0], 1)
            d = p_gcd(lvl, p_trim(w), g)
        if 1 < len(d) < len(g):
            other = p_divmod(lvl, g, d)[0]
            return _split_linears(lvl, d, rng) + _split_linears(lvl, p_monic(lvl, other), rng)
    raise GFError("equal-degree splitting failed to converge")  # pragma: no cover


def poly_roots(lvl, cs, seed: int = 0) -> list[tuple[int, int]]:
    """Roots of a nonzero polynomial in the level, with multiplicities.

    F_{q^2} up to SCAN_ROOT_LIMIT elements, the crossover measured on the
    characteristic polynomials of `hermquot table`, is scanned in one pass
    over its log tables (BaseLevel.zeros). Larger F_{q^2} and every F_{q^6}
    use a gcd with the Frobenius power of X followed by seeded equal-degree
    splitting, so the result is deterministic.
    """
    cs = p_trim(list(cs))
    if not cs:
        raise GFError("zero polynomial")
    if len(cs) == 1:
        return []
    if lvl.name == "q2" and lvl.size <= SCAN_ROOT_LIMIT:
        roots = lvl.zeros(cs[0], zip(cs[1:], itertools.count(1)))
    else:
        f = p_monic(lvl, cs)
        h = p_powmod(lvl, [0, 1], lvl.size, f)
        h = list(h) + [0] * (2 - len(h))
        h[1] = lvl.sub(h[1], 1)
        g = p_gcd(lvl, p_trim(h), f)
        rng = random.Random(0xC0FFEE ^ seed ^ len(cs))
        roots = _split_linears(lvl, g, rng) if len(g) > 1 else []
    out = []
    key = lvl.rank.__getitem__ if lvl.name == "q2" else lvl.key
    add, mul = lvl.add, lvl.mul
    for r in sorted(roots, key=key):
        # synthetic division by X - r: Horner's partial sums are the
        # quotient's coefficients, the last one the remainder
        mult, rest = 0, cs
        while True:
            acc, sums = 0, []
            for c in reversed(rest):
                acc = add(mul(acc, r), c)
                sums.append(acc)
            if acc:
                break
            mult += 1
            rest = sums[-2::-1]
        out.append((r, mult))
    return out


# ---------------------------------------------------------------------------
# The public tower.

class FieldTower:
    """The tower F_p < F_{q^2} < F_{q^6} for q = p^e."""

    def __init__(self, p: int, e: int):
        if not is_prime(p):
            raise GFError(f"p = {p} is not prime")
        if e < 1:
            raise GFError(f"e = {e} is below 1")
        self.p = p
        self.e = e
        self.q2 = BaseLevel(p, e)  # rejects a huge e before p ** e runs
        self.q = self.q2.q
        self.a = self.q2.a
        self._q6: ExtLevel | None = None
        self._preimage: dict[str, dict[int, list[int]]] = {}

    @property
    def q6(self) -> ExtLevel:
        if self._q6 is None:
            self._q6 = ExtLevel(self.q2)
        return self._q6

    def level(self, name: str):
        if name == "q2":
            return self.q2
        if name == "q6":
            return self.q6
        raise GFError(f"unknown level {name!r}")

    # -- element helpers ----------------------------------------------------
    def a_pow(self, k: int) -> int:
        return self.q2.exp[k % (self.q2.size - 1)]

    def elt_str(self, v: int) -> str:
        """Print a q2 value as '0' or 'a^k'."""
        if v == 0:
            return "0"
        return f"a^{self.q2.dlog(v)}"

    def elt_str_any(self, v: int, level: str) -> str:
        if level == "q2":
            return self.elt_str(v)
        c0, c1, c2 = self.q6.unpack(v)
        return "[" + ",".join(self.elt_str(c) for c in (c0, c1, c2)) + "]"

    # -- additive equation y^q + y = alpha^(q+1) -----------------------------
    def _preimage_map(self, level: str) -> dict[int, list[int]]:
        if level not in self._preimage:
            lvl = self.level(level)
            m: dict[int, list[int]] = {}
            for y in range(lvl.size):
                m.setdefault(lvl.add(lvl.frobq(y), y), []).append(y)
            self._preimage[level] = m
        return self._preimage[level]

    def solve_additive_raw(self, alpha: int, level: str = "q2") -> list[int]:
        """All y with y^q + y = alpha^(q+1), as sorted packed ints."""
        lvl = self.level(level)
        rhs = lvl.mul(lvl.frobq(alpha), alpha)
        return sorted(self._preimage_map(level).get(rhs, []))


def build_tower(p: int, e: int) -> FieldTower:
    return FieldTower(p, e)
