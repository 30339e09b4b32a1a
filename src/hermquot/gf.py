"""Exact arithmetic in the field tower F_p < F_{q^2} < F_{q^6}.

Elements are packed integers.  An element of F_{q^2} = F_p[X]/(m) is the
integer whose base-p digits are the polynomial coefficients, constant
coefficient in the lowest digit.  An element of F_{q^6}, built as a cubic
extension of F_{q^2}, packs three F_{q^2} values in base |F_{q^2}|.  With
this packing the embedding F_{q^2} -> F_{q^6} is the identity on integers.

Both moduli come from one search, _first_irreducible: the first monic
irreducible polynomial in key order (least coefficient tuple, compared from
the constant term upward), of degree 2e over F_p and of degree 3 over
F_{q^2}.  The primitives are fixed too, so two towers built for the same
(p, e) are bit-identical.  The F_{q^2} tables come from one linear walk:
the powers of each candidate in key order, until one candidate's powers
fill F_{q^2}^*.  F_{q^6}'s generator is the first in packed order.  In
F_{q^6}, x -> x^q and x -> x^(q^2) are 3x3 matrices over F_{q^2},
precomputed per level.

There is one polynomial arithmetic: the generic p_* helpers, which run over
any level (F_p, F_{q^2} or F_{q^6}).  They test a modulus candidate for
irreducibility and find roots.  The hot paths are written out by hand on
the F_{q^2} log/exp and addition tables, with no level method call per
coefficient: ExtLevel's product, sums, negation and scaling, one log read
per coefficient and the reductions of t^3 and t^4 kept as logs (at p = 2
the F_{q^6} sum is XOR of the packed integers); the 3x3 matrix kernels
over F_{q^2} (_linalg.mat_mul3, mat_vec3 and cross3), where mat_vec3 at
F_{q^6} is three F_{q^2} passes, one per power of t, and applies the
F_{q^6} Frobenius matrices; and BaseLevel.values, which evaluates a sparse
polynomial on all of F_{q^2}^* in one scan of those tables.  poly_roots
and the curve-point search take their F_{q^2} zeros from it; over F_{q^6},
poly_roots runs the Frobenius gcd of a polynomial with coefficients in
F_{q^2} over F_{q^2}, and takes the roots of an irreducible cubic as one
Frobenius orbit r, r^(q^2), r^(q^4).
"""
from __future__ import annotations

import itertools
import operator
import random

from ._linalg import mat_vec3


class GFError(Exception):
    pass


class BudgetExceeded(GFError):
    pass


TABLE_LIMIT = 1 << 20       # largest field size for exp/log tables
ADD_TABLE_LIMIT = 1024      # largest field size for a full addition table
SCAN_ROOT_LIMIT = 1024      # F_(q^2) root scan up to this size (q <= 32)


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
# (zero and one are the ints 0 and 1), and Rabin's test also size; F_p is
# such a minimal level.  poly_roots also needs char, neg and key
# (deterministic ordering tuple).  F_{q^2} and F_{q^6} also expose pow and frobq (the q-power map).

class _PrimeLevel:
    """F_p with plain modular arithmetic; only used while building F_{q^2}."""

    def __init__(self, p: int):
        self.p = self.size = p

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


def _is_irreducible(lvl, f) -> bool:
    """Rabin's test for a monic f of degree d >= 1 over a level of Q
    elements: X^(Q^d) = X mod f, and gcd(f, X^(Q^(d/r)) - X) = 1 for every
    prime r | d."""
    d = len(f) - 1

    def frob_minus_x(k):  # X^(Q^k) - X mod f
        h = p_powmod(lvl, [0, 1], lvl.size ** k, f) + [0, 0]
        h[1] = lvl.sub(h[1], 1)
        return p_mod(lvl, p_trim(h), f)

    return not frob_minus_x(d) and all(
        len(p_gcd(lvl, f, frob_minus_x(d // r))) == 1 for r in factorize(d))


def _first_irreducible(lvl, elems, d) -> tuple:
    """The first monic irreducible polynomial of degree d over lvl, without
    its leading 1, in key order: elems are lvl's elements in key order and
    the constant term is compared first.  A root in lvl rules a candidate
    out; for d <= 3 having none is enough, above that Rabin's test decides."""
    nonzero = [c for c in elems if c]  # constant term zero is always reducible
    for coeffs in itertools.product(nonzero, *[elems] * (d - 1)):
        f = [*coeffs, 1]
        if all(p_eval(lvl, f, x) for x in nonzero) and (
                d <= 3 or _is_irreducible(lvl, f)):
            return coeffs
    raise GFError("no irreducible modulus found")  # pragma: no cover


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
    key order, the order of its digits compared from the constant term
    upward; rank is its own inverse, so it also lists the elements in key
    order."""

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
        self.mod = _first_irreducible(_PrimeLevel(p), range(p), self.deg)
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

    # -- construction ------------------------------------------------------
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
        L = [2 * n] * size
        for i, v in enumerate(exp):
            L[v] = i
        self.a, self._L = x, L
        self._E = exp + exp + [0] * (2 * n + 1)
        self.frobt = [0] + [exp[l * self.q % n] for l in L[1:]]
        self._strides = {}  # e -> getter of the e l mod n, l < n, for values

    # -- arithmetic ---------------------------------------------------------
    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        return self._E[self._L[x] + self._L[y]]

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._E[self.size - 1 - self._L[x]]

    def div(self, x, y):
        return self.mul(x, self.inv(y))

    def pow(self, x, k):
        if x == 0:
            if k == 0:
                return 1
            if k < 0:
                raise ZeroDivisionError("0 ** negative")
            return 0
        return self._E[self._L[x] * k % (self.size - 1)]

    def frobq(self, x):
        """x -> x^q."""
        return self.frobt[x]

    def dlog(self, x) -> int:
        if x == 0:
            raise GFError("dlog of zero")
        return self._L[x]

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
            out.append(self._E[l])
        return out


class ExtLevel:
    """F_{q^6} as a cubic extension of the base level, its arithmetic
    written out on the base level's log/exp and addition tables (no tables
    of its own)."""

    name = "q6"

    def __init__(self, base: BaseLevel):
        self.base = base
        self.char = base.p
        self.q = base.q
        Q = base.size
        self._Q = Q
        self._Q2 = Q * Q
        self.size = Q ** 3
        self._E, self._L = base._E, base._L
        self.mod = _first_irreducible(base, base.rank, 3)
        # t^3 = r0 + r1 t + r2 t^2 and t^4 = t t^3, reduced, kept as logs
        r0, r1, r2 = map(base.neg, self.mod)
        m, ad = base.mul, base.add
        red4 = (m(r2, r0), ad(r0, m(r2, r1)), ad(r1, m(r2, r2)))
        self._lred = tuple(map(self._L.__getitem__, (r0, r1, r2, *red4)))
        if base.p == 2:
            # coefficient by coefficient XOR is XOR of the packed integers
            self.add = self.sub = operator.xor
            self.neg = base.neg
        else:
            self._addt, self._negt = base._addt, base.negt
        self.frobq_matrix = self.matrix(lambda x: self.pow(x, base.q))
        self.frobq2_matrix = self.matrix(lambda x: self.pow(x, Q))
        self._primitive = None

    def matrix(self, f):
        """The row-major 3x3 matrix over F_{q^2} whose column j is f(t^j):
        that of f in the basis 1, t, t^2 when f is F_{q^2}-linear.  For
        x -> x^q it maps the q-th powers of x's coefficients to x^q's."""
        cols = [self.unpack(f(t)) for t in (1, self._Q, self._Q2)]
        return tuple(cols[j][i] for i in range(3) for j in range(3))

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

    # add, sub and neg below are those of odd p; at p = 2 the instance has
    # XOR and the identity in their place
    def add(self, x, y):
        Q, T = self._Q, self._addt
        return (T[x % Q * Q + y % Q] + T[x // Q % Q * Q + y // Q % Q] * Q
                + T[x // self._Q2 * Q + y // self._Q2] * self._Q2)

    def neg(self, x):
        Q, N = self._Q, self._negt
        return N[x % Q] + N[x // Q % Q] * Q + N[x // self._Q2] * self._Q2

    def sub(self, x, y):
        Q, T, N = self._Q, self._addt, self._negt
        return (T[x % Q * Q + N[y % Q]] + T[x // Q % Q * Q + N[y // Q % Q]] * Q
                + T[x // self._Q2 * Q + N[y // self._Q2]] * self._Q2)

    def mul(self, x, y):
        """The schoolbook product of the coefficient triples, each base
        product one exp read at a sum of logs, and t^3, t^4 reduced with
        the logs of their reductions."""
        Q, E, L = self._Q, self._E, self._L
        a0, a1, a2 = L[x % Q], L[x // Q % Q], L[x // self._Q2]
        b0, b1, b2 = L[y % Q], L[y // Q % Q], L[y // self._Q2]
        if self.char == 2:
            c0 = E[a0 + b0]
            c1 = E[a0 + b1] ^ E[a1 + b0]
            c2 = E[a0 + b2] ^ E[a1 + b1] ^ E[a2 + b0]
            c3 = E[a1 + b2] ^ E[a2 + b1]
            c4 = E[a2 + b2]
            if c3 or c4:
                l3, l4 = L[c3], L[c4]
                r0, r1, r2, s0, s1, s2 = self._lred
                c0 ^= E[l3 + r0] ^ E[l4 + s0]
                c1 ^= E[l3 + r1] ^ E[l4 + s1]
                c2 ^= E[l3 + r2] ^ E[l4 + s2]
            return c0 + (c1 + c2 * Q) * Q
        T = self._addt
        c0 = E[a0 + b0]
        c1 = T[E[a0 + b1] * Q + E[a1 + b0]]
        c2 = T[T[E[a0 + b2] * Q + E[a1 + b1]] * Q + E[a2 + b0]]
        c3 = T[E[a1 + b2] * Q + E[a2 + b1]]
        c4 = E[a2 + b2]
        if c3 or c4:
            l3, l4 = L[c3], L[c4]
            r0, r1, r2, s0, s1, s2 = self._lred
            c0 = T[T[c0 * Q + E[l3 + r0]] * Q + E[l4 + s0]]
            c1 = T[T[c1 * Q + E[l3 + r1]] * Q + E[l4 + s1]]
            c2 = T[T[c2 * Q + E[l3 + r2]] * Q + E[l4 + s2]]
        return c0 + (c1 + c2 * Q) * Q

    def scalar_mul(self, c: int, x: int) -> int:
        """Multiply by c from the base field."""
        Q, E, L = self._Q, self._E, self._L
        lc = L[c]
        return (E[lc + L[x % Q]] + E[lc + L[x // Q % Q]] * Q
                + E[lc + L[x // self._Q2]] * self._Q2)

    def inv(self, x):
        """x^-1 = y / N(x) with y = x^(q^2) x^(q^4) and the norm N(x) = x y
        in the base field; the base inverse raises ZeroDivisionError at 0,
        and is x^-1 itself for x in the base field."""
        if x < self._Q:
            return self.base.inv(x)
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

    def frobq(self, x):
        """x -> x^q."""
        frobt = self.base.frobt
        return self.pack(*mat_vec3(self.base, self.frobq_matrix,
                                   [frobt[c] for c in self.unpack(x)]))

    def frobq2(self, x):
        """x -> x^(q^2)."""
        return self.pack(*mat_vec3(self.base, self.frobq2_matrix, self.unpack(x)))

    def in_base(self, x) -> bool:
        return x < self._Q

    def primitive(self) -> int:
        """A deterministic generator of the multiplicative group."""
        if self._primitive is None:
            fac = factorize(self.size - 1)
            # every x below |F_{q^2}| lies in F_{q^2}, whose orders divide q^2 - 1
            x = self._Q
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
    """Long division; a monic b needs no inverse, and the leading term of
    each step, which cancels, is not computed."""
    a = list(a)
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    *low, lead = b
    inv_lead = None if lead == 1 else lvl.inv(lead)
    n = len(low)
    quo = [0] * max(0, len(a) - n)
    for i in range(len(a) - n - 1, -1, -1):
        c = a[i + n] if inv_lead is None else lvl.mul(a[i + n], inv_lead)
        quo[i] = c
        if c:
            for j, bj in enumerate(low):
                a[i + j] = lvl.sub(a[i + j], lvl.mul(c, bj))
    return quo, p_trim(a[:n])


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


def _split(lvl, g, rng):
    """A proper monic factor of g, a monic product of two or more distinct
    linear factors, by seeded equal-degree splitting."""
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
            return d
    raise GFError("equal-degree splitting failed to converge")  # pragma: no cover


def _split_linears(lvl, g, rng):
    """g = monic product of distinct linear factors; return its roots."""
    if len(g) < 3:
        return [lvl.neg(g[0])] if len(g) == 2 else []
    d = _split(lvl, g, rng)
    return (_split_linears(lvl, d, rng)
            + _split_linears(lvl, p_divmod(lvl, g, d)[0], rng))


def poly_roots(lvl, cs, seed: int = 0) -> list[tuple[int, int]]:
    """Roots of a nonzero polynomial in the level, with multiplicities.

    F_{q^2} up to SCAN_ROOT_LIMIT elements, the crossover measured on the
    characteristic polynomials of `hermquot table`, is scanned in one pass
    over its log tables (BaseLevel.zeros). Larger F_{q^2} and every F_{q^6}
    take the gcd g of f with X^|F| - X, then seeded equal-degree splitting
    (Cantor-Zassenhaus), so the result is deterministic. Over F_{q^6}, when
    f's coefficients lie in F_{q^2} the gcd runs over F_{q^2}, and a cubic g
    is split once, which leaves a linear factor X - r: if r is not in
    F_{q^2}, g is irreducible over F_{q^2} and its roots are the Frobenius
    orbit r, r^(q^2), r^(q^4), each conjugate checked to be a root
    (GFError otherwise); if r is in F_{q^2}, so are the other two roots,
    and the rest of g is split as usual. The (root, multiplicity) pairs
    come in key order.
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
        over = (lvl.base if lvl.name == "q6" and all(map(lvl.in_base, f))
                else lvl)
        h = p_powmod(over, [0, 1], lvl.size, f)
        h = list(h) + [0] * (2 - len(h))
        h[1] = over.sub(h[1], 1)
        g = p_gcd(over, p_trim(h), f)
        rng = random.Random(0xC0FFEE ^ seed ^ len(cs))
        if over is lvl or len(g) != 4:
            roots = _split_linears(lvl, g, rng)
        else:
            d = _split(lvl, g, rng)
            lin, rest = d, p_divmod(lvl, g, d)[0]
            if len(lin) != 2:
                lin, rest = rest, lin
            r = lvl.neg(lin[0])
            if lvl.in_base(r):
                roots = [r] + _split_linears(lvl, rest, rng)
            else:
                roots = [r, lvl.frobq2(r)]
                roots.append(lvl.frobq2(roots[1]))
                for x in roots[1:]:
                    if p_eval(lvl, g, x):
                        raise GFError(f"the conjugate {x} of the root {r} "
                                      f"of a cubic over F_q^2 is not a root")
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
        if factorize(p) != {p: 1}:
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
        return self.q2._E[k % (self.q2.size - 1)]

    def elt_str(self, v: int) -> str:
        """Print a q2 value as '0' or 'a^k'."""
        if v == 0:
            return "0"
        return f"a^{self.q2.dlog(v)}"

    def elt_str_any(self, v: int) -> str:
        """Print a q6 value as its coefficients '[c0,c1,c2]' over F_{q^2}."""
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
