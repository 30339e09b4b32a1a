"""Closed-form quotient genus predictions for the named subgroup families.

Each case pins down a family of subgroups of the Hermitian curve's
automorphism group, one group per divisor m of the case modulus, together
with the genus the quotient curve must have. All groups contain the
involution omega composed with an affine map, and the parameter delta feeds
the sigma4 / sigma5 constructors of the generator DSL.

Case tags:
  t3          char 2, m | q^2 - 1, dihedral-flavoured <eps, omega> quotient
  t41m_minus  char 2, m | q - 1,   sigma4 with delta of order dividing q - 1
  t41m_plus   char 2, m | q + 1,   sigma4 with delta of order dividing q + 1
  ex43        char 2, 3 | q - 1,   delta of order 3
  ex44        char 2, q = 4^k,     delta of order 5
  t421        odd q > 3 with 3 not dividing q + 1, cyclic, sigma4
  t422        odd q > 3, m | 2(q - 1), cyclic, sigma4
  t511        char 2, q > 2, m | q^2 - 1, cyclic, sigma5
  t512        char 2, m | q + 1,   cyclic, sigma5
  t521        odd q, m | 2(q + 1), cyclic, sigma5
  t522        odd q with q not 5 mod 12, cyclic, sigma5
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from .gf import GFError


class HypothesisNotMet(GFError):
    """The (q, m) pair is outside the range a formula is claimed for."""


CASES = ("t3", "t41m_minus", "t41m_plus", "ex43", "ex44",
         "t421", "t422", "t511", "t512", "t521", "t522")


def _require(cond: bool, msg: str):
    if not cond:
        raise HypothesisNotMet(msg)


def sigma_order(case: str, q: int, m: int) -> int:
    """Predicted order of the distinguished generator sigma = tau omega."""
    if case in ("t41m_minus", "t41m_plus"):
        # sigma4 in even characteristic has the order of delta itself
        _check_hypotheses(case, q, m)
        return m
    if case == "ex43":
        return 3
    if case == "ex44":
        return 5
    if case == "t421":
        return q + 1
    if case == "t422":
        return 2 * (q - 1)
    if case == "t511":
        return q * q - 1
    if case == "t512":
        return q + 1
    if case == "t521":
        return 2 * (q + 1)
    if case == "t522":
        return (q + 1) // 2 if q % 4 == 1 else q + 1
    raise GFError(f"no sigma order for case {case!r}")


def case_modulus(case: str, q: int) -> int:
    """The range of m: expected_genus(case, q, m) is defined for m | this."""
    if case in ("t3", "t511"):
        return q * q - 1
    if case == "t41m_minus":
        return q - 1
    if case in ("t41m_plus", "t512"):
        return q + 1
    if case in ("ex43", "ex44"):
        return 1
    if case == "t421":
        return q + 1
    if case == "t422":
        return 2 * (q - 1)
    if case == "t521":
        return 2 * (q + 1)
    if case == "t522":
        return (q + 1) // 2 if q % 4 == 1 else q + 1
    raise GFError(f"unknown case {case!r}")


def case_spec(case: str, q: int, m: int, check: bool = True) -> str:
    """Generator-DSL string for the case's subgroup at parameter m.

    With check=False only m | modulus is enforced, so a group can still be
    built (and its genus measured) outside a formula's hypotheses."""
    if check:
        _check_hypotheses(case, q, m)
    else:
        n = case_modulus(case, q)
        _require(m >= 1 and n % m == 0, f"need m | {n}, got m = {m}")
    if case == "t3":
        k = (q * q - 1) // m
        return f"eps(a^{k}), omega"
    if case == "t41m_minus":
        d = (q - 1) // m
        return f"omega, sigma4(delta=a^{(q + 1) * d})"
    if case == "t41m_plus":
        d = (q + 1) // m
        return f"omega, sigma4(delta=a^{(q - 1) * d})"
    if case == "ex43":
        k = (q * q - 1) // 3
        return f"omega, sigma4(delta=a^{k})"
    if case == "ex44":
        k = (q * q - 1) // 5
        return f"omega, sigma4(delta=a^{k})"
    if case == "t421":
        k = (q + 1) // m
        return f"sigma4(delta=a^{q - 1}) ^ {k}"
    if case == "t422":
        k = 2 * (q - 1) // m
        return f"sigma4(delta=a^{(q + 1) // 2}) ^ {k}"
    if case == "t511":
        k = (q * q - 1) // m
        return f"sigma5(delta=a^{q + 1}) ^ {k}"
    if case == "t512":
        k = (q + 1) // m
        return f"sigma5(delta=a) ^ {k}"
    if case == "t521":
        k = 2 * (q + 1) // m
        return f"sigma5(delta=a^{(q + 1) // 2}) ^ {k}"
    if case == "t522":
        n = (q + 1) // 2 if q % 4 == 1 else q + 1
        k = n // m
        return f"sigma5(delta=a) ^ {k}"
    raise GFError(f"unknown case {case!r}")


def _check_hypotheses(case: str, q: int, m: int):
    if case not in CASES:
        raise GFError(f"unknown case {case!r}")
    n = case_modulus(case, q)
    _require(m >= 1 and n % m == 0, f"need m | {n}, got m = {m}")
    if case in ("t3", "t41m_minus", "t41m_plus", "t511", "t512"):
        _require(q % 2 == 0, "even characteristic only")
    if case == "ex43":
        _require(q % 2 == 0 and (q - 1) % 3 == 0,
                 "need char 2 and 3 | q - 1")
    if case == "ex44":
        _require(q % 2 == 0 and (q - 1) % 3 == 0,
                 "need q a power of 4")
    if case == "t511":
        # at q = 2, delta = a^3 = 1 and sigma5 has order 6, not q^2 - 1
        _require(q > 2, "q > 2 only")
    if case in ("t421", "t422"):
        _require(q % 2 == 1 and q > 3, "odd q > 3 only")
    if case == "t421":
        _require((q + 1) % 3 != 0, "need 3 not dividing q + 1")
    if case in ("t521", "t522"):
        _require(q % 2 == 1, "odd characteristic only")
    if case == "t522":
        _require(q % 12 != 5, "excluded congruence class q = 5 mod 12")


def expected_genus(case: str, q: int, m: int = 1) -> int:
    """Predicted genus of the quotient for case (q, m); exact integer."""
    _check_hypotheses(case, q, m)
    if case == "t3":
        d = gcd(m, q + 1)
        dt = gcd(m, q - 1)
        g = Fraction(q * q - q + m - (d - 1) * (q - 1) - dt * (q + 1), 4 * m)
    elif case == "t41m_minus":
        g = Fraction(q * q - q - m * q, 4 * m)
    elif case == "t41m_plus":
        g = Fraction(q * q - q - m * q + 2 * m - 2, 4 * m)
    elif case == "ex43":
        g = Fraction(q * q - 4 * q, 12)
    elif case == "ex44":
        if q % 5 == 1:
            g = Fraction(q * q - 6 * q, 20)
        else:
            g = Fraction(q * q - 6 * q + 8, 20)
    elif case == "t421":
        if m % 2 == 1:
            g = 1 + Fraction(q * q - q - 2, 2 * m)
        elif m % 4 == 0 and q % 8 == 3:
            g = 1 + Fraction(q * q - 4 * q - 5, 2 * m)
        else:
            g = 1 + Fraction(q * q - 2 * q - 3, 2 * m)
    elif case == "t422":
        if m % 2 == 1:
            g = Fraction(q * q - q, 2 * m)
        elif m % 4 == 0 and q % 4 == 3:
            g = Fraction(q * q - 4 * q + 3, 2 * m)
        else:
            g = Fraction(q * q - 2 * q + 1, 2 * m)
    elif case == "t511":
        d = gcd(m, q + 1)
        g = Fraction((q - 1) * (q + 1 - d), 2 * m)
    elif case == "t512":
        g = Fraction((q - 1) * (q + 1 - m), 2 * m)
    elif case == "t521":
        if (q + 1) % m == 0:
            g = Fraction((q - 1) * (q + 1 - m), 2 * m)
        else:
            g = Fraction((q - 1) * (q + 1 - m // 2), 2 * m)
    elif case == "t522":
        g = Fraction((q - 1) * (q + 1 - m), 2 * m)
    else:
        raise GFError(f"unknown case {case!r}")
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
        from math import comb
        acc = 0
        for i in range(n // 2 + 1):
            k = comb(n - i, i) % p
            if k == 0:
                continue
            term = lvl.mul(k % p if p > 2 else 1, lvl.pow(self.c, n - 2 * i))
            acc = lvl.add(acc, term)
        return acc


def v_vanishing_index(case: str, q: int, i: int) -> bool:
    """Whether v_{i-1} of the case's sigma vanishes, by congruence on i."""
    if case == "t421":
        return (2 * i) % (q + 1) == (0 if i % 2 == 0 else (q + 1) // 2)
    if case == "t422":
        return (2 * i) % (2 * q - 2) == (0 if i % 2 == 0 else q - 1)
    if case in ("t41m_minus", "t41m_plus", "ex43", "ex44", "t3"):
        raise GFError("use the delta-order predicate in even characteristic")
    if case == "t511":
        return i % (q - 1) == 0
    if case == "t512":
        return i % (q + 1) == 0
    if case == "t521":
        return i % 2 == 0
    if case == "t522":
        n = (q + 1) // 2 if q % 4 == 1 else q + 1
        return i % n == 0
    raise GFError(f"unknown case {case!r}")


def v_vanishing_even_char(delta_order: int, i: int) -> bool:
    """sigma4 in characteristic 2: v_{i-1} = 0 iff ord(delta) divides i."""
    return i % delta_order == 0


# Table layout: each named row is (case, condition on (q, m)).
TABLE1_ROWS = (
    ("i", "t3", lambda q, m: True),
    ("ii", "t41m_minus", lambda q, m: True),
    ("iii", "t41m_plus", lambda q, m: True),
    ("iv", "t511", lambda q, m: True),
)

TABLE2_ROWS = (
    ("i", "t421", lambda q, m: m % 2 == 1),
    ("ii", "t421", lambda q, m: m % 4 == 0 and q % 8 == 3),
    ("iii", "t421", lambda q, m: m % 2 == 0 and not (m % 4 == 0 and q % 8 == 3)),
    ("iv", "t422", lambda q, m: m % 2 == 1),
    ("v", "t422", lambda q, m: m % 4 == 0 and q % 4 == 3),
    ("vi", "t422", lambda q, m: m % 2 == 0 and not (m % 4 == 0 and q % 4 == 3)),
    ("vii", "t521", lambda q, m: (q + 1) % m == 0),
    ("viii", "t521", lambda q, m: (q + 1) % m != 0),
)
