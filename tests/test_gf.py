"""Field tower arithmetic: base field F_{q^2} and the cubic extension F_{q^6}."""

import itertools
import random
from functools import reduce
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hermquot.gf as gf
from hermquot._linalg import kernel, mat_vec3
from hermquot.autgrp import epsilon, from_affine, parse_spec
from hermquot.curve import degree3_places
from hermquot.gf import (
    BudgetExceeded,
    GFError,
    build_tower,
    factorize,
    p_divmod,
    p_eval,
    poly_roots,
)
from _twisted_oracle import elimination_kernel

# (q2.mod, a, q6.mod) of the canonical tower: every a^k in every spec means
# a fixed packed value only while these stay the same.
CANONICAL_TOWERS = {
    2: ((1, 1), 2, (2, 0, 0)),
    3: ((1, 0), 4, (3, 0, 3)),
    4: ((1, 0, 0, 1), 4, (8, 0, 2)),
    5: ((1, 1), 16, (5, 0, 0)),
    7: ((1, 0), 15, (7, 0, 21)),
    8: ((1, 0, 0, 0, 0, 1), 32, (32, 0, 0)),
    9: ((1, 0, 1, 1), 36, (27, 0, 27)),
    11: ((1, 0), 45, (11, 0, 33)),
    13: ((1, 3), 79, (13, 0, 53)),
    16: ((1, 0, 0, 0, 1, 1, 0, 1), 160, (128, 0, 0)),
    19: ((1, 0), 58, (19, 0, 76)),
}

# Deterministic property tests: the same examples on every run.
PROPS = settings(derandomize=True, deadline=None, max_examples=150)
LEVELS = [(4, "q2"), (4, "q6"), (7, "q2"), (7, "q6")]


def q2_order(lvl, x):
    """Multiplicative order in F_{q^2}; GFError for zero."""
    n = lvl.size - 1
    return n // gcd(n, lvl.dlog(x))


def is_generator(lvl, x):
    """x^n = 1 and no x^(n/r) = 1 for a prime r | n, n = |F^*|."""
    n = lvl.size - 1
    return lvl.pow(x, n) == 1 and all(lvl.pow(x, n // r) != 1 for r in factorize(n))


def test_tower_construction_deterministic():
    t1 = build_tower(2, 2)
    t2 = build_tower(2, 2)
    assert t1.q == 4
    assert t1.q2.mod == t2.q2.mod
    assert t1.a == t2.a


@pytest.mark.parametrize("q", sorted(CANONICAL_TOWERS))
def test_canonical_tower_pinned(q):
    (p, e), = factorize(q).items()
    tw = build_tower(p, e)
    assert (tw.q2.mod, tw.a, tw.q6.mod) == CANONICAL_TOWERS[q]


# q6.primitive() of the canonical tower: the first generator of F_{q^6}^*
# in packed order, which the search starts at |F_{q^2}| (every element
# below it lies in F_{q^2}).
Q6_PRIMITIVES = {2: 5, 3: 10, 4: 19, 5: 27, 7: 50, 8: 73, 9: 87, 11: 122,
                 13: 171, 16: 259, 19: 370}


@pytest.mark.parametrize("q", sorted(Q6_PRIMITIVES))
def test_q6_primitive_pinned(towers, q):
    (p, e), = factorize(q).items()
    q6 = (towers[q] if q in towers else build_tower(p, e)).q6
    w = q6.primitive()
    assert w == Q6_PRIMITIVES[q] and is_generator(q6, w)
    assert not any(is_generator(q6, x) for x in range(q6.base.size, w))


# The rank and table tests run at every pinned q and at the largest desk
# sizes of each kind: odd with the addition table (25, 27) and even (32).
TABLE_QS = sorted(CANONICAL_TOWERS) + [25, 27, 32]


def _q2_level(towers, q):
    (p, e), = factorize(q).items()
    return towers[q].q2 if q in towers else build_tower(p, e).q2


@pytest.mark.parametrize("q", TABLE_QS)
def test_rank_is_key_order(towers, q):
    # rank is built by digit reversal, not by a sort; it must be each
    # element's position in the order of its digits, and, being its own
    # inverse, list the elements in that order
    lvl = _q2_level(towers, q)
    by_key = sorted(range(lvl.size), key=lvl.digits)
    assert [lvl.rank[x] for x in by_key] == list(range(lvl.size))
    assert lvl.rank == by_key


@pytest.mark.parametrize("q", TABLE_QS)
def test_tables_match_the_generic_walk(towers, q):
    # exp, log, frobt, negt and the product against the walk
    # exp[i+1] = a exp[i] mod m made by the generic helpers over F_p
    from hermquot.gf import _PrimeLevel, p_mod, p_mul, p_trim

    lvl = _q2_level(towers, q)
    p, n = lvl.p, lvl.size - 1
    fp, m = _PrimeLevel(p), [*lvl.mod, 1]
    a = p_trim(list(lvl.digits(lvl.a)))
    exp, cur = [], [1]
    for _ in range(n):
        exp.append(lvl.pack(cur))
        cur = p_mod(fp, p_mul(fp, a, cur), m)
    assert cur == [1] and sorted(exp) == list(range(1, lvl.size))
    log = [-1] * lvl.size
    for i, x in enumerate(exp):
        log[x] = i
    assert lvl._E == exp + exp + [0] * (2 * n + 1)
    assert lvl._L == [2 * n] + log[1:]
    assert lvl.frobt == [0] + [exp[log[x] * q % n] for x in range(1, lvl.size)]
    neg = [lvl.pack([(-d) % p for d in lvl.digits(x)]) for x in range(lvl.size)]
    assert lvl.negt == (None if p == 2 else neg)
    rng = random.Random(q)
    for x in range(lvl.size):
        y = rng.randrange(lvl.size)
        want = exp[(log[x] + log[y]) % n] if x and y else 0
        assert lvl.mul(x, y) == want


def _mobius(n):
    fac = factorize(n)
    return 0 if any(k > 1 for k in fac.values()) else (-1) ** len(fac)


@pytest.mark.parametrize("p,d", [(2, d) for d in range(2, 9)]
                         + [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3)])
def test_is_irreducible_matches_gauss_count(p, d):
    # (1/d) sum_{k | d} mu(k) p^(d/k) monic irreducibles of degree d over F_p.
    # Private names, imported here so that the pinned-tower test above also
    # runs against a gf module that lacks them.
    from hermquot.gf import _is_irreducible, _PrimeLevel

    fp = _PrimeLevel(p)
    found = sum(_is_irreducible(fp, [*cs, 1])
                for cs in itertools.product(range(p), repeat=d))
    gauss = sum(_mobius(k) * p ** (d // k) for k in range(1, d + 1) if d % k == 0)
    assert found * d == gauss


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_is_irreducible_over_f_q2_matches_gauss_count(towers, p, d):
    # the same count over F_Q = F_{p^2}, Q = 4 and 9: Rabin's test runs over
    # any level, as in the search for the F_{q^6} modulus
    from hermquot.gf import _is_irreducible

    lvl = towers[p].q2
    Q = lvl.size
    found = sum(_is_irreducible(lvl, [*cs, 1])
                for cs in itertools.product(range(Q), repeat=d))
    gauss = sum(_mobius(k) * Q ** (d // k) for k in range(1, d + 1) if d % k == 0)
    assert found * d == gauss


@pytest.mark.parametrize("q,name", LEVELS)
@PROPS
@given(data=st.data())
def test_field_axioms(towers, q, name, data):
    lvl = towers[q].level(name)
    x, y, z = data.draw(st.tuples(*[st.integers(0, lvl.size - 1)] * 3))
    add, mul = lvl.add, lvl.mul
    assert add(add(x, y), z) == add(x, add(y, z))
    assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
    # Frobenius x -> x^q is additive and multiplicative
    assert lvl.frobq(add(x, y)) == add(lvl.frobq(x), lvl.frobq(y))
    assert lvl.frobq(mul(x, y)) == mul(lvl.frobq(x), lvl.frobq(y))


@pytest.mark.parametrize("q,name", LEVELS)
@PROPS
@given(data=st.data())
def test_field_inverse(towers, q, name, data):
    lvl = towers[q].level(name)
    x = data.draw(st.integers(1, lvl.size - 1))
    assert lvl.mul(x, lvl.inv(x)) == 1


@pytest.mark.parametrize("q,name", LEVELS)
def test_inverse_of_zero_raises(towers, q, name):
    with pytest.raises(ZeroDivisionError):
        towers[q].level(name).inv(0)


def test_primitive_element_order(towers):
    for q, tw in towers.items():
        assert q2_order(tw.q2, tw.a) == q * q - 1


def test_base_arithmetic_random(towers):
    rng = random.Random(7)
    for q in (4, 7, 9):
        lvl = towers[q].q2
        for _ in range(200):
            x = rng.randrange(lvl.size)
            y = rng.randrange(1, lvl.size)
            assert lvl.mul(x, lvl.inv(y)) == lvl.div(x, y)
            assert lvl.sub(lvl.add(x, y), y) == x
            # Frobenius x -> x^q is additive and multiplicative
            assert lvl.frobq(lvl.add(x, y)) == lvl.add(lvl.frobq(x), lvl.frobq(y))
            assert lvl.frobq(lvl.mul(x, y)) == lvl.mul(lvl.frobq(x), lvl.frobq(y))


def test_frobq_squared_is_identity_on_base(towers):
    for q in (3, 8):
        lvl = towers[q].q2
        for x in range(lvl.size):
            assert lvl.frobq(lvl.frobq(x)) == x


def test_extension_embeds_base(towers):
    rng = random.Random(11)
    for q in (3, 5, 8):
        tw = towers[q]
        q6 = tw.q6
        for _ in range(100):
            x = rng.randrange(tw.q2.size)
            y = rng.randrange(tw.q2.size)
            xe, ye = q6.pack(x, 0, 0), q6.pack(y, 0, 0)
            assert q6.mul(xe, ye) == q6.pack(tw.q2.mul(x, y), 0, 0)
            assert q6.add(xe, ye) == q6.pack(tw.q2.add(x, y), 0, 0)
            assert q6.in_base(xe)


def test_extension_frobq2_fixes_exactly_the_base(tw3):
    q6 = tw3.q6
    rng = random.Random(3)
    fixed = 0
    for x in range(q6.size) if q6.size <= 6561 else []:
        if q6.frobq2(x) == x:
            fixed += 1
            assert q6.in_base(x)
    assert fixed == tw3.q2.size
    for _ in range(50):
        x = rng.randrange(q6.size)
        # x + x^{q^2} + x^{q^4} lands in the base (trace to F_{q^2})
        tr = q6.add(x, q6.add(q6.frobq2(x), q6.frobq2(q6.frobq2(x))))
        assert q6.in_base(tr)


def test_extension_inverse_and_pow(towers):
    rng = random.Random(19)
    for q in (4, 7):
        q6 = towers[q].q6
        for _ in range(60):
            x = rng.randrange(1, q6.size)
            assert q6.mul(x, q6.inv(x)) == q6.pack(1, 0, 0)
            assert q6.pow(x, q**6 - 1) == q6.pack(1, 0, 0)


def test_extension_primitive(towers):
    for q in (2, 3, 4):
        q6 = towers[q].q6
        w = q6.primitive()
        assert is_generator(q6, w)  # its order is q^6 - 1


def test_element_order_examples(tw4):
    lvl = tw4.q2
    assert q2_order(lvl, tw4.a) == 15
    assert q2_order(lvl, 1) == 1
    assert q2_order(lvl, tw4.a_pow(5)) == 3  # a^5 in F_16
    with pytest.raises(GFError):
        q2_order(lvl, 0)


def test_solve_additive_sizes(towers):
    # y^q + y = alpha^{q+1}: the right side is always in F_q, which is
    # exactly the image of y -> y^q + y, so every fiber has q points.
    for q in (3, 4, 8):
        tw = towers[q]
        total = 0
        for alpha in range(tw.q2.size):
            sols = tw.solve_additive_raw(alpha)
            assert len(sols) == q
            total += len(sols)
            rhs = tw.q2.mul(tw.q2.frobq(alpha), alpha)
            for s in sols:
                assert tw.q2.add(tw.q2.frobq(s), s) == rhs
        assert total == q * tw.q2.size


def test_solve_additive_wrapper(tw4):
    sols = tw4.solve_additive_raw(1)
    assert len(sols) == 4
    for s in sols:
        assert tw4.q2.add(tw4.q2.frobq(s), s) == 1


def test_poly_roots_against_scan(towers):
    rng = random.Random(23)
    for q in (3, 5):
        lvl = towers[q].q2
        for trial in range(20):
            deg = rng.randrange(1, 6)
            cs = [rng.randrange(lvl.size) for _ in range(deg)] + [1]
            roots = poly_roots(lvl, cs, seed=trial)
            brute = {}
            for x in range(lvl.size):
                acc = 0
                for c in reversed(cs):
                    acc = lvl.add(lvl.mul(acc, x), c)
                if acc == 0:
                    brute[x] = 1
            assert {r for r, _ in roots} == set(brute)


def test_poly_roots_in_extension(towers):
    # x^{q^6-1} - 1 vanishes on all of F_{q^6}^*, so a polynomial with
    # known roots must come back exactly, with multiplicities. Every
    # F_{q^6}, like every F_{q^2} with q > 32, takes the Frobenius gcd and
    # equal-degree splitting, in odd characteristic and by trace splitting
    # in characteristic 2.
    for q, trials in ((2, 10), (7, 4), (8, 4)):
        q6 = towers[q].q6
        rng = random.Random(5)
        for trial in range(trials):
            rts = rng.sample(range(1, q6.size), 3)
            mults = dict.fromkeys(rts, 1)
            if trial % 2:
                mults[rts[0]] = 2  # a repeated root
            cs = [q6.pack(1, 0, 0)]  # ascending coefficients, start with 1
            for r, m in mults.items():
                for _ in range(m):
                    nxt = [0] * (len(cs) + 1)
                    for i, c in enumerate(cs):
                        nxt[i + 1] = q6.add(nxt[i + 1], c)
                        nxt[i] = q6.sub(nxt[i], q6.mul(c, r))
                    cs = nxt
            found = poly_roots(q6, cs, seed=trial)
            assert found == sorted(mults.items(), key=lambda rm: q6.key(rm[0]))


def _from_roots(lvl, roots):
    """Ascending coefficients of the monic product of the X - r."""
    cs = [1]
    for r in roots:
        nxt = [0] + cs
        for i, c in enumerate(cs):
            nxt[i] = lvl.sub(nxt[i], lvl.mul(c, r))
        cs = nxt
    return cs


ROOT_LEVELS = ([(q, "q2") for q in (2, 3, 4, 5, 7, 8, 9, 11, 13)]
               + [(q, "q6") for q in (2, 3, 4, 5)])


def _brute_roots(lvl, cs):
    """(root, multiplicity) pairs by evaluating at every element of the
    level, multiplicities by repeated long division by X - r."""
    out = {}
    for x in range(lvl.size):
        if p_eval(lvl, cs, x) == 0:
            mult, rest = 0, cs
            while True:
                quo, rem = p_divmod(lvl, rest, [lvl.sub(0, x), 1])
                if rem:
                    break
                mult, rest = mult + 1, quo
            out[x] = mult
    return out


@pytest.mark.parametrize("q,name", ROOT_LEVELS)
def test_poly_roots_scan_and_gcd_paths_agree(towers, monkeypatch, q, name):
    # SCAN_ROOT_LIMIT only picks the faster path: at either limit the
    # (root, multiplicity) lists match an element-by-element p_eval scan,
    # on random cubics (no, some or all roots) and on ones with a double root
    lvl = towers[q].level(name)
    rng = random.Random(q)
    polys = [[rng.randrange(lvl.size) for _ in range(3)] + [1] for _ in range(3)]
    for _ in range(2):
        r, s = rng.randrange(lvl.size), rng.randrange(lvl.size)
        polys.append(_from_roots(lvl, [r, r, s]))  # a repeated root
    expected = [_brute_roots(lvl, cs) for cs in polys]
    for limit in (0, 1 << 62):
        monkeypatch.setattr(gf, "SCAN_ROOT_LIMIT", limit)
        found = [poly_roots(lvl, cs, seed=i) for i, cs in enumerate(polys)]
        assert [dict(rts) for rts in found] == expected
    assert all(sum(exp.values()) == 3 for exp in expected[3:])


@pytest.mark.parametrize("q", TABLE_QS)
def test_values_and_zeros_match_horner(towers, q):
    # BaseLevel.values against Horner's rule (p_eval) on the dense
    # polynomial at every s = a^l: the empty and constant-only term lists,
    # zero coefficients, repeated exponents, the line shape c0 + c1 s +
    # cq s^q + cq1 s^(q+1), and exponents >= n where n is small (at q = 2,
    # q + 1 = n); zeros must be the s in F where the sum vanishes
    lvl = _q2_level(towers, q)
    n = lvl.size - 1
    rng = random.Random(q)
    exps = [1, 2, q, q + 1] + ([n, n + 1, 2 * n + 3] if n < 100 else [])

    def coeff():
        return rng.choice([0, 1, rng.randrange(1, lvl.size)])

    lists = [[], [(0, 1)], [(coeff() or 1, 0)], [(0, 0), (0, q), (0, q + 1)],
             [(coeff(), 0), (coeff(), 1), (coeff(), q), (coeff(), q + 1)]]
    lists += [[(coeff(), rng.choice([0] + exps)) for _ in range(rng.randrange(1, 6))]
              for _ in range(6)]
    for terms in lists:
        dense = [0] * (max((e for _c, e in terms), default=0) + 1)
        for c, e in terms:
            dense[e] = lvl.add(dense[e], c)
        horner = [p_eval(lvl, dense, x) for x in lvl._E[:n]]
        assert list(lvl.values(terms)) == horner
        rest = [(c, e) for c, e in terms if e]
        c0 = dense[0]
        assert sorted(lvl.zeros(c0, rest)) == sorted(
            x for x in range(lvl.size) if p_eval(lvl, dense, x) == 0)


@pytest.mark.parametrize("q", [4, 16, 32, 64, 9, 27, 5, 25])
def test_poly_roots_repeated_roots(towers, q):
    # triple and double roots, 0 among them, in characteristics 2, 3 and
    # 5, and in characteristic 2 on both sides of SCAN_ROOT_LIMIT;
    # multiplicities come from synthetic division
    lvl = _q2_level(towers, q)
    rng = random.Random(q)
    for r, s, t in [(0, 1, lvl.a)] + [tuple(rng.sample(range(lvl.size), 3))
                                      for _ in range(3)]:
        for mults in ({r: 3}, {r: 2, s: 1}, {s: 3, t: 2}, {r: 2, s: 2, t: 1}):
            cs = _from_roots(lvl, [x for x, m in mults.items() for _ in range(m)])
            assert poly_roots(lvl, cs) == sorted(
                mults.items(), key=lambda xm: lvl.digits(xm[0]))


# A per-coefficient reference for F_(q^6) = F_(q^2)[t]/(g): every base
# operation a BaseLevel method call, the product schoolbook with t^4 and
# then t^3 reduced by t^3 = -(g0 + g1 t + g2 t^2), powers by square and
# multiply on that product.
def _ref_mul(q6, x, y):
    base = q6.base
    a, b = q6.unpack(x), q6.unpack(y)
    c = [0] * 5
    for i in range(3):
        for j in range(3):
            c[i + j] = base.add(c[i + j], base.mul(a[i], b[j]))
    for k in (4, 3):
        top, c[k] = c[k], 0
        for i, g in enumerate(q6.mod):
            c[k - 3 + i] = base.sub(c[k - 3 + i], base.mul(top, g))
    return q6.pack(*c[:3])


def _ref_pow(q6, x, k):
    out = 1
    while k:
        if k & 1:
            out = _ref_mul(q6, out, x)
        x, k = _ref_mul(q6, x, x), k >> 1
    return out


def _ref_coefficientwise(q6, op, *xs):
    return q6.pack(*map(op, *map(q6.unpack, xs)))


DIFF_QS = (2, 3, 4, 5, 7, 8, 9)


def _ext_operands(q6, rng):
    """Zero, one, elements of F_(q^2), of degree 1 in t (whose products
    need no reduction) and random elements."""
    Q = q6.base.size
    return ([0, 1, Q - 1, rng.randrange(1, Q), q6.pack(0, 1, 0),
             q6.pack(rng.randrange(Q), rng.randrange(1, Q), 0)]
            + [rng.randrange(q6.size) for _ in range(14)])


@pytest.mark.parametrize("q", DIFF_QS)
def test_extension_arithmetic_matches_the_reference(towers, q):
    # the written-out F_(q^6) arithmetic against the per-coefficient
    # reference on every pair of operands, zero among them; the products of
    # degree 3 or 4 in t, which take the reduction branch, and those of
    # lower degree both occur
    q6 = towers[q].q6
    base = q6.base
    rng = random.Random(q)
    xs = _ext_operands(q6, rng)
    degrees = set()
    for x in xs:
        assert q6.neg(x) == _ref_coefficientwise(q6, base.neg, x)
        assert q6.frobq(x) == _ref_pow(q6, x, q)
        assert q6.frobq2(x) == _ref_pow(q6, x, q * q)
        if x:
            assert q6.inv(x) == _ref_pow(q6, x, q6.size - 2)
        for y in xs:
            assert q6.mul(x, y) == _ref_mul(q6, x, y)
            assert q6.add(x, y) == _ref_coefficientwise(q6, base.add, x, y)
            assert q6.sub(x, y) == _ref_coefficientwise(q6, base.sub, x, y)
            a, b = q6.unpack(x), q6.unpack(y)
            degrees.add(max((i + j for i in range(3) for j in range(3)
                             if a[i] and b[j]), default=-1) >= 3)
    assert degrees == {False, True}


@pytest.mark.parametrize("q", DIFF_QS)
def test_mat_vec3_over_the_extension_matches_the_reference(towers, q):
    # a matrix over F_(q^2) times a vector over F_(q^6), zero entries among
    # both, against the sums of reference products
    q6 = towers[q].q6
    rng = random.Random(q)
    Q = q6.base.size
    for _ in range(30):
        A = tuple(rng.choice([0, rng.randrange(Q)]) for _ in range(9))
        v = tuple(rng.choice([0, rng.randrange(q6.size)]) for _ in range(3))
        want = tuple(
            reduce(q6.add, (_ref_mul(q6, A[3 * i + j], v[j]) for j in range(3)))
            for i in range(3))
        assert mat_vec3(q6, A, v) == want


def _irreducible(lvl, rng, degree):
    """A random monic polynomial of degree 2 or 3 over F_(q^2) with no root
    there, so irreducible."""
    while True:
        cs = [rng.randrange(lvl.size) for _ in range(degree)] + [1]
        if not any(p_eval(lvl, cs, x) == 0 for x in range(lvl.size)):
            return cs


def _roots_over_the_extension(q6, cs, seed):
    """The roots over F_(q^6) of a squarefree polynomial, the whole route
    over F_(q^6): the gcd with X^(q^6) - X, equal-degree splitting, the
    roots in key order."""
    f = gf.p_monic(q6, cs)
    h = gf.p_powmod(q6, [0, 1], q6.size, f) + [0, 0]
    h[1] = q6.sub(h[1], 1)
    g = gf.p_gcd(q6, gf.p_trim(h), f)
    rng = random.Random(seed)
    return sorted(gf._split_linears(q6, g, rng), key=q6.key)


@pytest.mark.parametrize("q", DIFF_QS)
def test_cubic_roots_as_one_frobenius_orbit(towers, q):
    # an irreducible cubic over F_(q^2) has three distinct roots in
    # F_(q^6); poly_roots' list must be three distinct roots (by the
    # reference product), each of multiplicity 1, in key order, and the
    # same list the route over F_(q^6) alone gives
    q6 = towers[q].q6
    rng = random.Random(q)

    def ref_eval(cs, x):
        out = 0
        for c in reversed(cs):
            out = q6.add(_ref_mul(q6, out, x), c)
        return out

    for i in range(50):
        cs = _irreducible(q6.base, rng, 3)
        found = poly_roots(q6, cs, seed=i)
        roots = [r for r, _ in found]
        assert [m for _, m in found] == [1, 1, 1]
        assert len(set(roots)) == 3 and not any(map(q6.in_base, roots))
        assert not any(ref_eval(cs, r) for r in roots)
        assert roots == sorted(roots, key=q6.key)
        if i < 5:
            assert roots == _roots_over_the_extension(q6, cs, i)


@pytest.mark.parametrize("q", DIFF_QS)
def test_roots_of_other_polynomials_over_the_base(towers, q):
    # coefficients in F_(q^2) but no single Frobenius orbit: three roots in
    # F_(q^2), a double one among them, a root times an irreducible
    # quadratic (whose roots lie in F_(q^4), not F_(q^6)), and an
    # irreducible cubic times a linear factor
    q6 = towers[q].q6
    base = q6.base
    rng = random.Random(q)
    r, s, u = rng.sample(range(base.size), 3)
    quad, cubic = _irreducible(base, rng, 2), _irreducible(base, rng, 3)
    cases = [(_from_roots(base, [r, s, u]), {r: 1, s: 1, u: 1}),
             (_from_roots(base, [r, r, s]), {r: 2, s: 1}),
             (gf.p_mul(base, _from_roots(base, [r]), quad), {r: 1}),
             (gf.p_mul(base, _from_roots(base, [s]), cubic), None)]
    for i, (cs, want) in enumerate(cases):
        found = poly_roots(q6, cs, seed=i)
        if want is None:
            want = dict.fromkeys(_roots_over_the_extension(q6, cs, i), 1)
            assert len(want) == 4 and s in want
        assert found == sorted(want.items(), key=lambda rm: q6.key(rm[0]))


@pytest.mark.parametrize("q", [3, 5, 7, 9, 25, 27])
def test_add_table_is_the_digitwise_sum(towers, q):
    # the odd-p addition table is built digit by digit; check it against
    # the sum of base-p digits, every pair up to |F| = 81 and 5,000 seeded
    # pairs above
    (p, e), = factorize(q).items()
    lvl = towers[q].q2 if q in towers else build_tower(p, e).q2
    if lvl.size <= 81:
        pairs = itertools.product(range(lvl.size), repeat=2)
    else:
        rng = random.Random(q)
        pairs = [(rng.randrange(lvl.size), rng.randrange(lvl.size))
                 for _ in range(5000)]
    for x, y in pairs:
        assert lvl.add(x, y) == lvl.pack(
            [(u + v) % p for u, v in zip(lvl.digits(x), lvl.digits(y))])


def _random_rank(lvl, rng, rank):
    """A 3x3 matrix (row lists) of the given rank: a random 3 x rank times
    rank x 3 product, drawn again until the elimination finds that rank."""
    def draw(r, c):
        return [[rng.randrange(lvl.size) for _ in range(c)] for _ in range(r)]
    while True:
        a, b = draw(3, rank), draw(rank, 3)
        rows = [[reduce(lvl.add, (lvl.mul(a[i][k], b[k][j])
                                  for k in range(rank)), 0)
                 for j in range(3)] for i in range(3)]
        if len(elimination_kernel(lvl, rows)) == 3 - rank:
            return rows


@pytest.mark.parametrize("q, name", [(q, "q2") for q in (2, 3, 4, 5, 7, 8, 9)]
                         + [(2, "q6"), (3, "q6")])
def test_closed_form_kernel_is_the_elimination_basis(towers, q, name):
    # the closed-form 3x3 null space returns the very basis of Gauss-Jordan
    # elimination, on random matrices of every rank, and none at rank 3
    lvl = towers[q].level(name)
    rng = random.Random(q * 10 + len(name))
    for rank in range(4):
        for _ in range(40):
            rows = _random_rank(lvl, rng, rank)
            basis = kernel(lvl, rows)
            assert basis == elimination_kernel(lvl, rows)
            assert len(basis) == 3 - rank
    assert kernel(lvl, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == []


def test_parse_and_print_roundtrip(tw8):
    # printed elements parse back through the generator DSL; eps(v) is
    # injective in v, and tau(0, 0) takes the literal 0
    assert tw8.elt_str(0) == "0"
    assert parse_spec(tw8, "tau(0, 0)") == [from_affine(tw8, 1, 0, 0)]
    for v in range(1, tw8.q2.size):
        assert parse_spec(tw8, f"eps({tw8.elt_str(v)})") == [epsilon(tw8, v)]
    with pytest.raises(GFError):
        parse_spec(tw8, "eps(b^3)")


def test_budget_exceeded(tw8):
    with pytest.raises(BudgetExceeded):
        degree3_places(tw8, budget=10)


def test_bad_tower_args():
    with pytest.raises(GFError):
        build_tower(4, 1)
    with pytest.raises(GFError):
        build_tower(2, 0)
