"""Closed-form quotient genus predictions for the named subgroup families.

Each family pins down a subgroup of the Hermitian curve's automorphism
group for every divisor m of its modulus n(q), together with the genus the
quotient curve must have. All groups contain the involution omega composed
with an affine map, and the parameter delta feeds the sigma4 / sigma5
constructors of the generator DSL.

Each family is one `Family` record in `FAMILIES`, which every function here
reads; none branches on a case name. A record holds n(q), the hypotheses
beyond m | n as (condition on q, message) pairs checked in order, the spec
as a function of q and k = n / m, the order of the distinguished sigma, the
genus rows and, if there is one, the congruence for v_{i-1} = 0. A genus
row is the paper's table and label (None where the tables leave the family
out), a condition on (q, m) and the formula; within a family the conditions
partition the (q, m) grid.

  t3          char 2, dihedral-flavoured <eps, omega>
  t41m_minus  char 2, <omega, sigma4(delta)>, delta of order m | q - 1
  t41m_plus   char 2, <omega, sigma4(delta)>, delta of order m | q + 1
  ex43        char 2, <omega, sigma4(delta)>, delta of order 3
  ex44        char 2, <omega, sigma4(delta)>, delta of order 5
  t421        odd q, cyclic <sigma4(delta = a^(q-1))>
  t422        odd q, cyclic <sigma4(delta = a^((q+1)/2))>
  t511        char 2, cyclic <sigma5(delta = a^(q+1))>
  t512        char 2, cyclic <sigma5(delta = a)>
  t521        odd q, cyclic <sigma5(delta = a^((q+1)/2))>
  t522        odd q, cyclic <sigma5(delta = a)>
"""
from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from math import comb, gcd
from typing import NamedTuple

from .gf import GFError


class HypothesisNotMet(GFError):
    """The (q, m) pair is outside the range a formula is claimed for."""


def _divides(n: int, m: int):
    if m < 1 or n % m:
        raise HypothesisNotMet(f"need m | {n}, got m = {m}")


class Row(NamedTuple):
    """A genus row, as the module docstring describes."""

    table: int | None
    label: str | None
    holds: Callable[[int, int], bool]
    genus: Callable[[int, int], Fraction]


class Family(NamedTuple):
    """One catalogue family, as the module docstring describes."""

    modulus: Callable[[int], int]
    hypotheses: tuple[tuple[Callable[[int], bool], str], ...]
    spec: Callable[[int, int], str]
    order: Callable[[Family, int, int], int] | None
    rows: tuple[Row, ...]
    vanishes: Callable[[int, int], bool] | None

    def check(self, q: int, m: int):
        """Raise HypothesisNotMet unless m | n and every hypothesis holds."""
        _divides(self.modulus(q), m)
        for cond, msg in self.hypotheses:
            if not cond(q):
                raise HypothesisNotMet(msg)


def _delta_order(fam: Family, q: int, m: int) -> int:
    # sigma4 in even characteristic has the order of delta itself
    fam.check(q, m)
    return m


def _cyclic(modulus, hypotheses, sigma, rows, vanishes) -> Family:
    """The family <sigma(q)> ^ k, k = n / m, with ord sigma(q) = n."""
    return Family(modulus, hypotheses, lambda q, k: f"{sigma(q)} ^ {k}",
                  lambda fam, q, m: modulus(q), rows, vanishes)


def _t522_modulus(q: int) -> int:
    return (q + 1) // 2 if q % 4 == 1 else q + 1


def _sigma5_genus(q: int, m: int) -> Fraction:
    return Fraction((q - 1) * (q + 1 - m), 2 * m)


_ALWAYS = lambda q, m: True
_EVEN = (lambda q: q % 2 == 0, "even characteristic only")
_ODD = (lambda q: q % 2 == 1, "odd characteristic only")
_ODD_ABOVE_3 = (lambda q: q % 2 == 1 and q > 3, "odd q > 3 only")
# for q = 2^e, 3 | q - 1 says that e is even: q is a power of 4
_CHAR2_3 = lambda q: q % 2 == 0 and (q - 1) % 3 == 0


FAMILIES = {
    "t3": Family(
        modulus=lambda q: q * q - 1, hypotheses=(_EVEN,),
        spec=lambda q, k: f"eps(a^{k}), omega", order=None,
        rows=(Row(1, "i", _ALWAYS, lambda q, m: Fraction(
            q * q - q + m - (gcd(m, q + 1) - 1) * (q - 1)
            - gcd(m, q - 1) * (q + 1), 4 * m)),),
        vanishes=None),
    "t41m_minus": Family(
        modulus=lambda q: q - 1, hypotheses=(_EVEN,),
        spec=lambda q, k: f"omega, sigma4(delta=a^{(q + 1) * k})",
        order=_delta_order, vanishes=None,
        rows=(Row(1, "ii", _ALWAYS,
                  lambda q, m: Fraction(q * q - q - m * q, 4 * m)),)),
    "t41m_plus": Family(
        modulus=lambda q: q + 1, hypotheses=(_EVEN,),
        spec=lambda q, k: f"omega, sigma4(delta=a^{(q - 1) * k})",
        order=_delta_order, vanishes=None,
        rows=(Row(1, "iii", _ALWAYS, lambda q, m: Fraction(
            q * q - q - m * q + 2 * m - 2, 4 * m)),)),
    "ex43": Family(
        modulus=lambda q: 1,
        hypotheses=((_CHAR2_3, "need char 2 and 3 | q - 1"),),
        spec=lambda q, k: f"omega, sigma4(delta=a^{(q * q - 1) // 3})",
        order=lambda fam, q, m: 3, vanishes=None,
        rows=(Row(None, None, _ALWAYS,
                  lambda q, m: Fraction(q * q - 4 * q, 12)),)),
    "ex44": Family(
        modulus=lambda q: 1,
        hypotheses=((_CHAR2_3, "need q a power of 4"),),
        spec=lambda q, k: f"omega, sigma4(delta=a^{(q * q - 1) // 5})",
        order=lambda fam, q, m: 5, vanishes=None,
        rows=(Row(None, None, lambda q, m: q % 5 == 1,
                  lambda q, m: Fraction(q * q - 6 * q, 20)),
              Row(None, None, lambda q, m: q % 5 != 1,
                  lambda q, m: Fraction(q * q - 6 * q + 8, 20)))),
    "t421": _cyclic(
        modulus=lambda q: q + 1,
        hypotheses=(_ODD_ABOVE_3,
                    (lambda q: (q + 1) % 3 != 0, "need 3 not dividing q + 1")),
        sigma=lambda q: f"sigma4(delta=a^{q - 1})",
        rows=(Row(2, "i", lambda q, m: m % 2 == 1,
                  lambda q, m: 1 + Fraction(q * q - q - 2, 2 * m)),
              Row(2, "ii", lambda q, m: m % 4 == 0 and q % 8 == 3,
                  lambda q, m: 1 + Fraction(q * q - 4 * q - 5, 2 * m)),
              Row(2, "iii",
                  lambda q, m: m % 2 == 0 and not (m % 4 == 0 and q % 8 == 3),
                  lambda q, m: 1 + Fraction(q * q - 2 * q - 3, 2 * m))),
        vanishes=lambda q, i: (2 * i) % (q + 1) == (
            0 if i % 2 == 0 else (q + 1) // 2)),
    "t422": _cyclic(
        modulus=lambda q: 2 * (q - 1), hypotheses=(_ODD_ABOVE_3,),
        sigma=lambda q: f"sigma4(delta=a^{(q + 1) // 2})",
        rows=(Row(2, "iv", lambda q, m: m % 2 == 1,
                  lambda q, m: Fraction(q * q - q, 2 * m)),
              Row(2, "v", lambda q, m: m % 4 == 0 and q % 4 == 3,
                  lambda q, m: Fraction(q * q - 4 * q + 3, 2 * m)),
              Row(2, "vi",
                  lambda q, m: m % 2 == 0 and not (m % 4 == 0 and q % 4 == 3),
                  lambda q, m: Fraction(q * q - 2 * q + 1, 2 * m))),
        vanishes=lambda q, i: (2 * i) % (2 * q - 2) == (
            0 if i % 2 == 0 else q - 1)),
    "t511": _cyclic(
        modulus=lambda q: q * q - 1,
        # at q = 2, delta = a^3 = 1 and sigma5 has order 6, not q^2 - 1
        hypotheses=(_EVEN, (lambda q: q > 2, "q > 2 only")),
        sigma=lambda q: f"sigma5(delta=a^{q + 1})",
        rows=(Row(1, "iv", _ALWAYS, lambda q, m: Fraction(
            (q - 1) * (q + 1 - gcd(m, q + 1)), 2 * m)),),
        vanishes=lambda q, i: i % (q - 1) == 0),
    "t512": _cyclic(
        modulus=lambda q: q + 1, hypotheses=(_EVEN,),
        sigma=lambda q: "sigma5(delta=a)",
        rows=(Row(None, None, _ALWAYS, _sigma5_genus),),
        vanishes=lambda q, i: i % (q + 1) == 0),
    "t521": _cyclic(
        modulus=lambda q: 2 * (q + 1), hypotheses=(_ODD,),
        sigma=lambda q: f"sigma5(delta=a^{(q + 1) // 2})",
        rows=(Row(2, "vii", lambda q, m: (q + 1) % m == 0, _sigma5_genus),
              Row(2, "viii", lambda q, m: (q + 1) % m != 0,
                  lambda q, m: Fraction((q - 1) * (q + 1 - m // 2), 2 * m))),
        vanishes=lambda q, i: i % 2 == 0),
    "t522": _cyclic(
        modulus=_t522_modulus,
        hypotheses=(_ODD, (lambda q: q % 12 != 5,
                           "excluded congruence class q = 5 mod 12")),
        sigma=lambda q: "sigma5(delta=a)",
        rows=(Row(None, None, _ALWAYS, _sigma5_genus),),
        vanishes=lambda q, i: i % _t522_modulus(q) == 0),
}

CASES = tuple(FAMILIES)

# the paper's Tables 1 and 2, each row as (label, case, condition on (q, m))
TABLE1_ROWS, TABLE2_ROWS = (
    tuple((row.label, case, row.holds) for case, fam in FAMILIES.items()
          for row in fam.rows if row.table == table) for table in (1, 2))


def _family(case: str) -> Family:
    if case not in FAMILIES:
        raise GFError(f"unknown case {case!r}")
    return FAMILIES[case]


def sigma_order(case: str, q: int, m: int) -> int:
    """Predicted order of the distinguished generator sigma = tau omega."""
    fam = _family(case)
    if fam.order is None:
        raise GFError(f"no sigma order for case {case!r}")
    return fam.order(fam, q, m)


def case_modulus(case: str, q: int) -> int:
    """The range of m: expected_genus(case, q, m) is defined for m | this."""
    return _family(case).modulus(q)


def case_spec(case: str, q: int, m: int, check: bool = True) -> str:
    """Generator-DSL string for the case's subgroup at parameter m.

    With check=False only m | modulus is enforced, so a group can still be
    built (and its genus measured) outside a formula's hypotheses."""
    fam = _family(case)
    n = fam.modulus(q)
    if check:
        fam.check(q, m)
    else:
        _divides(n, m)
    return fam.spec(q, n // m)


def expected_genus(case: str, q: int, m: int = 1) -> int:
    """Predicted genus of the quotient for case (q, m); exact integer."""
    fam = _family(case)
    fam.check(q, m)
    g = next(row.genus(q, m) for row in fam.rows if row.holds(q, m))
    if g.denominator != 1:
        raise HypothesisNotMet(f"{case} at q={q}, m={m} gives non-integer {g}")
    if g < 0:
        raise GFError(f"{case} at q={q}, m={m} gives negative genus {g}")
    return int(g)


class VSequence:
    """Companion linear recurrence v_i = c v_{i-1} + u_{i-1} attached to the
    distinguished sigma, with u_i = v_{i-1} (sigma4) or a^(q+1) v_{i-1}
    (sigma5). Its vanishing pattern governs the ramification jumps of powers
    of sigma, so three independent evaluations of it are kept: the
    recurrence itself, a closed form in delta, and a binomial sum.
    """

    def __init__(self, tower, delta: int, kind: str):
        assert kind in ("sigma4", "sigma5")
        lvl = tower.q2
        self.tower = tower
        self.lvl = lvl
        self.kind = kind
        self.delta = delta
        if kind == "sigma4":
            self.norm = 1
            self.c = lvl.sub(delta, lvl.inv(delta))
        else:
            a = tower.a
            self.norm = lvl.mul(a, lvl.frobq(a))
            self.c = lvl.sub(delta, lvl.mul(self.norm, lvl.inv(delta)))

    def recurrence(self, n: int) -> list[int]:
        """[v_0, ..., v_n] from the two-term recursion."""
        lvl = self.lvl
        vprev, v = 0, 1  # v_{-1}, v_0
        out = [1]
        for _ in range(n):
            u = lvl.mul(self.norm, vprev)
            vprev, v = v, lvl.add(lvl.mul(self.c, v), u)
            out.append(v)
        return out

    def closed_form(self, i: int) -> int:
        """v_i = (delta^(i+2) + (-delta)^(-i) N^(i+1)) / (delta^2 + N),
        N the norm parameter (1 for sigma4)."""
        lvl = self.lvl
        d = self.delta
        den = lvl.add(lvl.pow(d, 2), self.norm)
        if den == 0:
            raise GFError("degenerate delta for the closed form")
        t1 = lvl.pow(d, i + 2)
        t2 = lvl.mul(lvl.pow(lvl.neg(lvl.inv(d)), i), lvl.pow(self.norm, i + 1))
        return lvl.div(lvl.add(t1, t2), den)

    def binomial(self, n: int) -> int:
        """sigma4 only: v_n = sum_i binom(n - i, i) c^(n - 2i) mod p."""
        assert self.kind == "sigma4"
        lvl = self.lvl
        p = self.tower.p
        acc = 0
        for i in range(n // 2 + 1):
            k = comb(n - i, i) % p
            if k == 0:
                continue
            acc = lvl.add(acc, lvl.mul(k, lvl.pow(self.c, n - 2 * i)))
        return acc


def v_vanishing_index(case: str, q: int, i: int) -> bool:
    """Whether v_{i-1} of the case's sigma vanishes, by congruence on i."""
    fam = _family(case)
    if fam.vanishes is None:
        raise GFError("use the delta-order predicate in even characteristic")
    return fam.vanishes(q, i)


def v_vanishing_even_char(delta_order: int, i: int) -> bool:
    """sigma4 in characteristic 2: v_{i-1} = 0 iff ord(delta) divides i."""
    return i % delta_order == 0
