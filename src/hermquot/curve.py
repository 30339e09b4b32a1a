"""Places of the Hermitian function field y^q + y = x^(q+1) over F_{q^2}.

The projective model is Y^q Z + Y Z^q = X^(q+1) with x = X/Z, y = Y/Z.
Rational places are the common pole of x and y at (0:1:0) plus the affine
points over F_{q^2}; every remaining closed place whose degree matters here
has degree 3 and is stored as its Frobenius orbit of three F_{q^6}-points.

A Place is a NamedTuple (kind, data), so hashing and comparing one runs
in C and building one sets no attributes. The rational place of a point (x : y : z) with z != 0 is
(x / z, y / z), each quotient E[L[x] + n - L[z]] in the log domain of
F_{q^2} with n = q^2 - 1: log reads of x, y and z and two exp reads, with
no inversion or multiplication call.
"""
from __future__ import annotations

from typing import NamedTuple

from .gf import BudgetExceeded, FieldTower, GFError

DEFAULT_DEG3_BUDGET = 2_000_000   # largest |F_{q^6}| degree3_places enumerates


class Place(NamedTuple):
    """A closed place: 'infinity', 'rational' (alpha, beta) or 'degree3'."""

    kind: str
    data: tuple

    @property
    def degree(self) -> int:
        return 3 if self.kind == "degree3" else 1

    @property
    def alpha(self) -> int:
        assert self.kind == "rational"
        return self.data[0]

    @property
    def beta(self) -> int:
        assert self.kind == "rational"
        return self.data[1]

    def __repr__(self):
        if self.kind == "infinity":
            return "P_inf"
        if self.kind == "rational":
            return f"P({self.data[0]},{self.data[1]})"
        return f"P3{self.data[0]}"


P_INF = Place("infinity", ())


def rational_place(alpha: int, beta: int) -> Place:
    return Place("rational", (alpha, beta))


def place_sort_key(tower: FieldTower, place: Place):
    if place.kind == "infinity":
        return (0, ())
    if place.kind == "rational":
        rank = tower.q2.rank
        return (1, (rank[place.alpha], rank[place.beta]))
    k6 = tower.q6.key
    return (2, tuple(tuple(k6(c) for c in pt) for pt in place.data))


def normalize_point(lvl, v):
    """Scale a nonzero projective vector (a point, or a 3x3 matrix as a
    row-major 9-tuple) so its first nonzero entry is 1."""
    for c in v:
        if c != 0:
            if c == 1:
                return tuple(v)
            ic = lvl.inv(c)
            return tuple(lvl.mul(ic, x) for x in v)
    raise GFError("zero vector is not a projective point")


def herm(lvl, u, v):
    """The Hermitian form Y_u^q Z_v + Z_u^q Y_v - X_u^q X_v of the curve."""
    fr, mul, add, sub = lvl.frobq, lvl.mul, lvl.add, lvl.sub
    return sub(add(mul(fr(u[1]), v[2]), mul(fr(u[2]), v[1])),
               mul(fr(u[0]), v[0]))


def on_curve(lvl, pt) -> bool:
    """Check Y^q Z + Y Z^q = X^(q+1) for a point over the given level."""
    return not herm(lvl, pt, pt)


def frobenius_point(tower: FieldTower, pt):
    """The q^2-power Frobenius on a projective F_{q^6}-point."""
    q6 = tower.q6
    return normalize_point(q6, tuple(q6.frobq2(c) for c in pt))


def point_is_rational(tower: FieldTower, pt) -> bool:
    """True for an F_{q^6}-point already defined over F_{q^2}."""
    q6 = tower.q6
    return all(q6.in_base(c) for c in normalize_point(q6, pt))


def degree3_place(tower: FieldTower, pt) -> Place:
    """The degree-3 place through a non-rational F_{q^6}-point on the curve."""
    q6 = tower.q6
    p0 = normalize_point(q6, pt)
    p1 = frobenius_point(tower, p0)
    p2 = frobenius_point(tower, p1)
    orbit = sorted({p0, p1, p2}, key=lambda p: tuple(q6.key(c) for c in p))
    if len(orbit) != 3:
        raise GFError("point does not generate a degree-3 orbit")
    return Place("degree3", tuple(orbit))


def place_of_point(tower: FieldTower, pt) -> Place:
    """The rational place of a projective F_{q^2}-point on the curve."""
    x, y, z = pt
    if z == 0:
        if x or not y:
            raise GFError(f"the point ({x}:{y}:0) at infinity is not "
                          f"P_inf = (0:1:0)")
        return P_INF
    lvl = tower.q2
    E, L = lvl._E, lvl._L
    s = lvl.size - 1 - L[z]
    return Place("rational", (E[L[x] + s], E[L[y] + s]))


def rational_places(tower: FieldTower) -> list[Place]:
    """All q^3 + 1 rational places, infinity first, then sorted (alpha, beta)."""
    q2 = tower.q2
    out = [P_INF]
    rank = q2.rank.__getitem__
    for alpha in q2.elements_by_key():
        for beta in sorted(tower.solve_additive_raw(alpha, "q2"), key=rank):
            out.append(rational_place(alpha, beta))
    if len(out) != tower.q ** 3 + 1:
        raise GFError(f"the curve has {len(out)} rational places, not "
                      f"q^3 + 1 = {tower.q ** 3 + 1}")
    return out


def degree3_count(tower: FieldTower) -> int:
    """(N_6 - N_2) / 3 from maximality of the Hermitian curve."""
    q = tower.q
    n6 = q ** 6 + 1 + (q * q - q) * q ** 3
    n2 = q ** 3 + 1
    assert (n6 - n2) % 3 == 0
    return (n6 - n2) // 3


def degree3_places(tower: FieldTower,
                   budget: int = DEFAULT_DEG3_BUDGET) -> list[Place]:
    """Enumerate every degree-3 place; gated by the F_{q^6} size budget."""
    q6 = tower.q6
    if q6.size > budget:
        raise BudgetExceeded(
            f"|F_q^6| = {q6.size} exceeds the degree-3 enumeration budget {budget}")
    Q = tower.q2.size
    seen: dict[tuple, Place] = {}
    for x in range(q6.size):
        ys = tower.solve_additive_raw(x, "q6")
        for y in ys:
            if x < Q and y < Q:
                continue  # rational point
            pl = degree3_place(tower, (x, y, 1))
            seen.setdefault(pl.data[0], pl)
    out = sorted(seen.values(), key=lambda p: place_sort_key(tower, p))
    if len(out) != degree3_count(tower):
        raise GFError(f"the curve has {len(out)} places of degree 3, not "
                      f"(N_6 - N_2) / 3 = {degree3_count(tower)}")
    return out
