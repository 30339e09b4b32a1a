"""Automorphisms of the Hermitian function field as projective 3x3 matrices.

Every automorphism acts on the projective model Y^q Z + Y Z^q = X^(q+1) by a
matrix over F_{q^2}; the full group is PGU(3, q) of order q^3 (q^2-1)(q^3+1).
Two families generate everything we need:

  * affine maps sigma(x) = a x + b, sigma(y) = a^(q+1) y + a b^q x + c with
    c^q + c = b^(q+1), which fix the common pole of x and y, and
  * the involution omega(x) = x / y, omega(y) = 1 / y.

We store the matrix of the point action P |-> (sigma(x)(P), sigma(y)(P)).
That action is contravariant in composition: the point matrix of f o g
(g applied first to functions) is M_g M_f. An Aut is a NamedTuple of the
tower and that row-major 9-tuple, and a Group is a NamedTuple too.
apply_place moves a rational place with mat_vec3's table reads written out
(XOR in characteristic 2, the addition table otherwise) and divides by z in
the log domain in the same pass.
"""
from __future__ import annotations

import re
from typing import NamedTuple

from ._linalg import IDENTITY3, mat_adj3, mat_mul3, mat_vec3
from .curve import Place, degree3_place, normalize_point, place_of_point
from .gf import FieldTower, GFError


class DSLError(GFError):
    pass


def pgu_order(q: int) -> int:
    return q ** 3 * (q * q - 1) * (q ** 3 + 1)


class Aut(NamedTuple):
    """A curve automorphism, represented projectively (first nonzero entry 1)."""

    tower: FieldTower
    m: tuple

    def is_identity(self) -> bool:
        return self.m == IDENTITY3

    def __repr__(self):
        es = self.tower.elt_str
        rows = [" ".join(es(self.m[3 * i + j]) for j in range(3)) for i in range(3)]
        return "Aut[" + "; ".join(rows) + "]"


def identity(tower: FieldTower) -> Aut:
    return Aut(tower, IDENTITY3)


def omega(tower: FieldTower) -> Aut:
    """The involution x |-> x/y, y |-> 1/y; swaps Y and Z on points."""
    return Aut(tower, (1, 0, 0, 0, 0, 1, 0, 1, 0))


def epsilon(tower: FieldTower, a: int) -> Aut:
    """The torus element x |-> a x, y |-> a^(q+1) y."""
    return from_affine(tower, a, 0, 0)


def from_affine(tower: FieldTower, a: int, b: int, c: int) -> Aut:
    """sigma(x) = a x + b, sigma(y) = a^(q+1) y + a b^q x + c."""
    lvl = tower.q2
    if a == 0:
        raise GFError("affine automorphism needs a != 0")
    if lvl.add(lvl.frobq(c), c) != lvl.mul(lvl.frobq(b), b):
        raise GFError("affine constraint c^q + c = b^(q+1) violated")
    aq1 = lvl.mul(a, lvl.frobq(a))
    abq = lvl.mul(a, lvl.frobq(b))
    m = (a, 0, b,
         abq, aq1, c,
         0, 0, 1)
    return Aut(tower, normalize_point(lvl, m))


def proj_mul(lvl, a: tuple, b: tuple) -> tuple:
    """The product a b of point matrices over F_{q^2} (row-major 9-tuples),
    scaled in the log domain so that its first nonzero entry is 1."""
    m = mat_mul3(lvl, a, b)
    c = m[0] or next(filter(None, m), 0)
    if c != 1:
        if not c:
            raise GFError("zero vector is not a projective point")
        E, L = lvl._E, lvl._L
        s = lvl.size - 1 - L[c]
        m = tuple([E[L[x] + s] for x in m])
    return m


def compose(f: Aut, g: Aut) -> Aut:
    """f o g as maps of functions (g applied first); point matrix M_g M_f."""
    return Aut(f.tower, proj_mul(f.tower.q2, g.m, f.m))


def inverse(f: Aut) -> Aut:
    lvl = f.tower.q2
    return Aut(f.tower, normalize_point(lvl, mat_adj3(lvl, f.m)))


def aut_order(f: Aut) -> int:
    n, cur, cap = 1, f, pgu_order(f.tower.q)
    while not cur.is_identity():
        cur = compose(cur, f)
        n += 1
        assert n <= cap
    return n


def aut_pow(f: Aut, n: int) -> Aut:
    if n < 0:
        return aut_pow(inverse(f), -n)
    out = identity(f.tower)
    base = f
    while n:
        if n & 1:
            out = compose(out, base)
        base = compose(base, base)
        n >>= 1
    return out


def apply_point(f: Aut, lvl, pt):
    """Image of a projective point; matrix entries are base-field ints,
    valid verbatim at any level of the tower."""
    return mat_vec3(lvl, f.m, pt)


def apply_place(f: Aut, place: Place) -> Place:
    """The image of a place. At a rational place (alpha, beta) this is
    M (alpha, beta, 1) with mat_vec3's table reads, divided by its z in the
    log domain in the same pass; P_inf goes to M's middle column, and an
    image with z = 0 to place_of_point, which checks that it is P_inf."""
    tower, kind, m = f.tower, place.kind, f.m
    if kind == "degree3":
        return degree3_place(tower, apply_point(f, tower.q6, place.data[0]))
    if kind == "infinity":
        return place_of_point(tower, (m[1], m[4], m[7]))
    lvl = tower.q2
    E, L = lvl._E, lvl._L
    al, be = map(L.__getitem__, place.data)
    a0, a1, _, a3, a4, _, a6, a7, _ = map(L.__getitem__, m)
    if lvl.p == 2:
        x = E[a0 + al] ^ E[a1 + be] ^ m[2]
        y = E[a3 + al] ^ E[a4 + be] ^ m[5]
        z = E[a6 + al] ^ E[a7 + be] ^ m[8]
    else:
        T, s = lvl._addt, lvl.size
        x = T[T[E[a0 + al] * s + E[a1 + be]] * s + m[2]]
        y = T[T[E[a3 + al] * s + E[a4 + be]] * s + m[5]]
        z = T[T[E[a6 + al] * s + E[a7 + be]] * s + m[8]]
    if not z:
        return place_of_point(tower, (x, y, 0))
    s = lvl.size - 1 - L[z]
    return Place("rational", (E[L[x] + s], E[L[y] + s]))


def sigma4(tower: FieldTower, delta: int) -> Aut:
    """tau(0, c) followed by omega, with c = delta - delta^(-1).

    The point (0 : c : 1) must lie on the curve, i.e. c^q + c = 0; this is
    exactly the constraint checked by from_affine and fails for a delta
    outside the allowed torus.
    """
    lvl = tower.q2
    if delta == 0:
        raise GFError("sigma4 needs delta != 0")
    c = lvl.sub(delta, lvl.inv(delta))
    return compose(from_affine(tower, 1, 0, c), omega(tower))


def sigma5(tower: FieldTower, delta: int) -> Aut:
    """aff(a, 0, c) followed by omega, a the canonical primitive element and
    c = delta - a^(q+1) delta^(-1)."""
    lvl = tower.q2
    if delta == 0:
        raise GFError("sigma5 needs delta != 0")
    a = tower.a
    aq1 = lvl.mul(a, lvl.frobq(a))
    c = lvl.sub(delta, lvl.mul(aq1, lvl.inv(delta)))
    return compose(from_affine(tower, a, 0, c), omega(tower))


class Group(NamedTuple):
    """A finite group of automorphisms, its elements in closure order with
    the identity at index 0.

    tables[j] is the right-regular action of gens[j] on the element indices:
    elements[tables[j][x]] has the point matrix M_x M_(gens[j]), so a
    product with a generator is a list lookup. The closure's tree gives a
    word for every element: for x > 0, elements[x] is
    elements[up[x]] gens[by[x]], so a product with any element follows the
    tables along its path (word_tables). A group made from bare elements (a
    stabiliser) has no tables."""

    tower: FieldTower
    elements: tuple
    gens: tuple  # nontrivial generators; their words reach every element
    tables: tuple = ()
    up: list = ()
    by: list = ()

    @property
    def order(self) -> int:
        return len(self.elements)


def word_tables(tables, up, by):
    """A function from an element index x to the tables that right-multiply
    by element x, in order: the path from the identity to x in the tree
    (up, by), where x > 0 is element up[x] times generator by[x] and
    tables[j] is generator j's table. A run g^k of one generator takes the
    tables of g^(2^b) for the bits b of k, each squared once and kept by
    the returned function, not by the group."""
    squares = [[t] for t in tables]  # [j][b]: the table of gens[j]^(2^b)

    def word(x):
        w = []
        while x:
            j, k = by[x], 0
            while x and by[x] == j:
                x, k = up[x], k + 1
            sq, b = squares[j], 0
            while k:
                if len(sq) == b:
                    sq.append([sq[-1][y] for y in sq[-1]])
                if k & 1:
                    w.append(sq[b])
                k, b = k >> 1, b + 1
        return w[::-1]

    return word


def conjugation_tables(group: Group):
    """For each generator g, the table c with elements[c[x]] = g x g^-1 (point
    matrices): M_g M_x = (M_g M_(up[x])) M_(gens[by[x]]) with up[x] < x, one
    pass along the closure's tree, then the inverse of g's right table (Holt,
    Eick and O'Brien, Handbook of Computational Group Theory, 2005)."""
    tables, up, by, n = group.tables, group.up, group.by, group.order
    out, inv = [], [0] * n
    for t in tables:
        c = [t[0]] * n
        for x in range(1, n):
            c[x] = tables[by[x]][c[up[x]]]
        # x runs over t, a permutation, to keep the int objects it shares
        for x in t:
            inv[t[x]] = x
        for x in range(n):
            c[x] = inv[c[x]]
        out.append(c)
    return out


def _dimino(lvl, gens: tuple, cap: int):
    """Dimino's closure of nontrivial gens: the elements in coset order, the
    tree (up, by), the tables of the generators that joined, None for one
    already in the group when its turn came, and each generator's index.
    The index lists share one int object per index."""
    # the first generator's powers first, each its own coset of 1
    elements, ids = [IDENTITY3], [0]
    tables = [None] * len(gens)
    if gens:
        m = x = gens[0].m
        while x != IDENTITY3:
            if len(elements) >= cap:
                raise GFError(f"subgroup closure exceeded the cap {cap}")
            elements.append(x)
            x = proj_mul(lvl, x, m)
        ids = list(range(len(elements)))
        tables[0] = ids[1:] + ids[:1]
    up, by = [0] + ids[:-1], [0] * len(ids)
    index = dict(zip(elements, ids))
    for k, g in enumerate(gens):
        if g.m in index:
            continue
        sub, n = elements[1:], len(elements)
        used = [j for j, t in enumerate(tables) if t is not None] + [k]
        word = word_tables(tables, up, by)
        rows = {j: [] for j in used}
        right = {}  # i -> the map i' -> H[i'] H[i] of H
        # every coset of H is n consecutive elements, its representative
        # first; H itself, at 0, reaches g's coset
        pos = 0
        while pos < len(elements):
            r = elements[pos]
            for j in used:
                x = proj_mul(lvl, r, gens[j].m)
                y = index.get(x)
                if y is None:
                    if len(elements) + n > cap:
                        raise GFError(
                            f"subgroup closure exceeded the cap {cap}")
                    y = len(elements)
                    coset = [x] + [proj_mul(lvl, h, x) for h in sub]
                    new = list(range(y, y + n))
                    index.update(zip(coset, new))
                    elements += coset
                    ids += new
                    # (H[i] r) gens[j] sits at y + i
                    up += ids[pos:pos + n]
                    by += [j] * n
                i = y % n
                hi = right.get(i)
                if hi is None:
                    hi = range(n)
                    for t in word(i):
                        hi = [t[h] for h in hi]
                    right[i] = hi
                c = y - i
                rows[j] += [ids[c + h] for h in hi]
            pos += n
        for j in used:
            tables[j] = rows[j]
    return elements, up, by, tables, [index[g.m] for g in gens]


def close_group(tower: FieldTower, gens, cap: int | None = None) -> Group:
    """The subgroup that gens generate, closed by cosets (Dimino's algorithm;
    Butler, Fundamental Algorithms for Permutation Groups, 1991), with the
    index table of each generator and the tree of the closure.

    The generators join one at a time. One not yet in the subgroup H closed
    so far adds each right coset H x that a coset representative times a
    generator so far reaches, at |H| products a coset: about |G| products
    in all, not |G| |gens|. The cap guards runaway input: the closure
    raises before adding a coset that would pass it, so exactly when
    |G| > cap. The elements stay in closure order, the identity at 0.

    The tables and the tree cost no further products. A coset found as
    r t, r at position c and t = gens[j], is stored at y + i as H[i] r t,
    which is the element at c + i times t: that is its place in the tree.
    Every r t is computed; if it is H[i'] r' at y = c' + i', then
    (H[i] r) t = (H[i] H[i']) r' at c' + (i -> H[i] H[i']), and that map is
    H's own tables followed along the path of H[i'], which stays in H. A
    generator already in the group when its turn comes gets its table by
    following the others along its path."""
    if cap is None:
        cap = 4 * tower.q ** 3
    gens = tuple(g for g in gens if not g.is_identity())
    elements, up, by, tables, where = _dimino(tower.q2, gens, cap)
    order = len(elements)
    if pgu_order(tower.q) % order:
        raise GFError(f"the closure of order {order} is not a subgroup of "
                      f"PGU(3, {tower.q})")
    word = word_tables(tables, up, by)
    for j in range(len(gens)):
        if tables[j] is None:
            xs = range(order)
            for t in word(where[j]):
                xs = [t[x] for x in xs]
            tables[j] = xs
    return Group(tower, tuple([Aut(tower, m) for m in elements]), gens,
                 tuple(tables), up, by)


_TOKEN_RE = re.compile(r"\s*(?:(\^|\*|,|\(|\)|=)|([A-Za-z_][A-Za-z_0-9]*)|(-?\d+))")


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise DSLError(f"bad character at position {pos}: {text[pos:]!r}")
        if m.group(1):
            out.append(("op", m.group(1), pos))
        elif m.group(2):
            out.append(("name", m.group(2), pos))
        else:
            out.append(("int", int(m.group(3)), pos))
        pos = m.end()
    out.append(("end", None, pos))
    return out


# generator name -> (constructor, number of element arguments)
_ATOMS = {"eps": (epsilon, 1),
          "tau": (lambda tw, b, c: from_affine(tw, 1, b, c), 2),
          "aff": (from_affine, 3),
          "sigma4": (sigma4, 1),
          "sigma5": (sigma5, 1)}


class _Parser:
    """Generator expressions: omega, eps(a^3), tau(b,c), aff(a,b,c),
    sigma4(delta=a^2), sigma5(delta=a), products with *, powers with ^."""

    def __init__(self, tower: FieldTower, text: str):
        self.tower = tower
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None, value=None):
        tok = self.toks[self.i]
        if kind and tok[0] != kind or value is not None and tok[1] != value:
            what = "end of spec" if tok[0] == "end" else repr(tok[1])
            raise DSLError(f"unexpected {what} at position {tok[2]}")
        self.i += 1
        return tok

    def parse(self):
        gens = [self.gen()]
        while self.peek()[1] == ",":
            self.take()
            gens.append(self.gen())
        self.take("end")
        return gens

    def gen(self) -> Aut:
        out = self.atom()
        while self.peek()[1] == "*":
            self.take()
            out = compose(out, self.atom())
        if self.peek()[1] == "^":
            self.take()
            n = self.take("int")[1]
            out = aut_pow(out, n)
        return out

    def atom(self) -> Aut:
        tok = self.take("name")
        name = tok[1]
        if name == "omega":
            return omega(self.tower)
        if name not in _ATOMS:
            raise DSLError(f"unknown generator {name!r} at position {tok[2]}")
        make, nargs = _ATOMS[name]
        self.take("op", "(")
        if name in ("sigma4", "sigma5"):
            self.take("name", "delta")
            self.take("op", "=")
        args = [self.elt()]
        while len(args) < nargs:
            self.take("op", ",")
            args.append(self.elt())
        self.take("op", ")")
        try:
            return make(self.tower, *args)
        except GFError as ex:
            # parameters that make no automorphism are a spec error
            raise DSLError(str(ex)) from ex

    def elt(self) -> int:
        tok = self.take()
        tw = self.tower
        if tok[0] == "int":
            if tok[1] == 0:
                return 0
            if tok[1] == 1:
                return 1
            raise DSLError(f"element literals are 0, 1 or a^k, got {tok[1]}")
        if tok[0] == "name" and tok[1] == "a":
            if self.peek()[1] == "^":
                self.take()
                k = self.take("int")[1]
                return tw.a_pow(k)
            return tw.a
        raise DSLError(f"expected element at position {tok[2]}")


def parse_spec(tower: FieldTower, text: str) -> list[Aut]:
    """Parse a comma-separated generator list into automorphisms."""
    if not text.strip():
        return []
    return _Parser(tower, text).parse()


def group_from_spec(tower: FieldTower, text: str, cap: int | None = None) -> Group:
    return close_group(tower, parse_spec(tower, text), cap=cap)
