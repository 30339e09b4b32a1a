"""Local expansions and higher ramification invariants.

The i-values of localval come from the affine form of sigma at P_inf, and
its frames expand the curve point near a place. The oracle below
computes them the way a textbook would: it expands x and y as Laurent series
in a uniformizer at each place on its own, and forms sigma(t) - t with series
products and inverses."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermquot._linalg import IDENTITY3, mat_adj3, mat_mul3, mat_vec3
from hermquot.autgrp import (
    Aut,
    apply_place,
    close_group,
    compose,
    epsilon,
    from_affine,
    group_from_spec,
    omega,
)
from hermquot.curve import P_INF, normalize_point, rational_place, rational_places
from hermquot.engine import fixed_rational_places
from hermquot.formulas import case_modulus, case_spec
from hermquot.gf import GFError, build_tower
from hermquot.localval import (
    _hilbert_sum,
    affine_form,
    expand_at,
    i_value,
    ramification_data,
    to_infinity,
)

from _series import PrecisionError, Series
from test_acceptance import GRID, divisors, random_atom, random_group


def _const(lvl, c, prec):
    return Series.make(lvl, 0, [c], prec)


def _scaled(s, c):
    return Series.make(s.lvl, s.off, [s.lvl.mul(c, x) for x in s.cs], s.prec)


def oracle_pole(tw, n):
    """u = 1/y in t = x/y at P_inf, exact below t^n: the iteration
    u <- t^(q+1) - u^q of u + u^q = t^(q+1)."""
    lvl, q = tw.q2, tw.q
    tq1 = Series.t_power(lvl, q + 1, n)
    u = Series.zero(lvl, n)
    k = q + 1
    while k < n:
        u = tq1 - u.frobq()
        u = Series.make(lvl, u.off, u.cs, min(u.prec, n))
        k *= q
    assert (u + u.frobq() - tq1).is_zero_to_prec()
    return u


def oracle_frame(tw, place, horizon):
    """(x, y) as Laurent series in a uniformizer at a rational place: at
    (alpha, beta) the uniformizer is x - alpha and y = beta + s with
    s^q + s = R(t), R = alpha^q t + alpha t^q + t^(q+1); at P_inf it is
    t = x/y, and x = t/u, y = 1/u for u = 1/y, u + u^q = t^(q+1)."""
    lvl, q = tw.q2, tw.q
    if place != P_INF:
        alpha, beta = place.alpha, place.beta
        n = horizon
        x = Series.make(lvl, 0, [alpha, 1], n)
        r = (_scaled(Series.t_power(lvl, 1, n), lvl.frobq(alpha))
             + _scaled(Series.t_power(lvl, q, n), alpha)
             + Series.t_power(lvl, q + 1, n))
        s = Series.zero(lvl, n)
        k = 1
        while k < n:
            s = r - s.frobq()
            s = Series.make(lvl, s.off, s.cs, min(s.prec, n))
            k *= q
        y = _const(lvl, beta, n) + s
        resid = y.frobq() + y - x.frobq() * x
        assert resid.is_zero_to_prec() and resid.prec >= n
        return x, y
    # padded so that inverting u (valuation q + 1) leaves horizon exact terms
    n = horizon + 2 * (q + 1) + 2
    y = oracle_pole(tw, n).inverse()
    return Series.t_power(lvl, 1, n) * y, y


def _row(lvl, row, x, y):
    out = _scaled(x, row[0]) + _scaled(y, row[1])
    return out + _const(lvl, row[2], out.prec) if row[2] else out


def oracle_i_value(tw, place, aut):
    """v(sigma(t) - t) from the oracle frame, the horizon doubling while the
    difference vanishes to its precision."""
    lvl, m = tw.q2, aut.m
    n = tw.q + 5
    while True:
        x, y = oracle_frame(tw, place, n)
        try:
            if place != P_INF:
                den = _row(lvl, m[6:9], x, y)
                return ((_row(lvl, m[0:3], x, y) - x * den).valuation()
                        - den.valuation())
            num1 = _row(lvl, m[3:6], x, y)
            return ((_row(lvl, m[0:3], x, y) * y - x * num1).valuation()
                    - num1.valuation() - y.valuation())
        except PrecisionError:
            if n >= 8 * (tw.q + 5):
                raise
            n *= 2


def test_series_arithmetic(tw4):
    lvl = tw4.q2
    a = Series.make(lvl, 1, (1, tw4.a, 0, 1), 8)
    b = Series.make(lvl, 0, (tw4.a, 1), 8)
    assert (a + b - a).cs == b.cs
    prod = a * b
    assert prod.off == 1
    assert prod.coeff(1) == lvl.mul(1, tw4.a)


def test_series_inverse(tw4):
    lvl = tw4.q2
    s = Series.make(lvl, 0, (1, tw4.a, tw4.a_pow(2)), 20)
    one = s * s.inverse()
    assert one.valuation() == 0
    assert one.coeff(0) == 1
    for n in range(1, one.prec):
        assert one.coeff(n) == 0


def test_series_inverse_needs_unit(tw4):
    s = Series.make(tw4.q2, 2, (1,), 10)
    inv = s.inverse()
    assert inv.off == -2
    assert (s * inv).coeff(0) == 1


def test_series_frobq(tw4):
    lvl = tw4.q2
    s = Series.make(lvl, 1, (tw4.a, 1), 6)
    f = s.frobq()
    assert f.off == 4
    assert f.coeff(4) == lvl.frobq(tw4.a)
    assert f.coeff(8) == 1


PROPS = settings(derandomize=True, deadline=None, max_examples=150)


@st.composite
def _dense(draw, size):
    """A truncated Laurent series as (exponent -> nonzero coefficient, prec)."""
    off = draw(st.integers(-3, 3))
    cs = draw(st.lists(st.integers(0, size - 1), max_size=6))
    prec = off + draw(st.integers(0, 8))
    return {off + i: c for i, c in enumerate(cs) if c and off + i < prec}, prec


def _series(lvl, dense):
    coeffs, prec = dense
    if not coeffs:
        return Series.make(lvl, prec, [], prec)
    lo = min(coeffs)
    return Series.make(lvl, lo, [coeffs.get(n, 0)
                                 for n in range(lo, max(coeffs) + 1)], prec)


def _agrees(s, coeffs, prec):
    assert s.prec == prec
    assert s.off == (min(coeffs) if coeffs else prec)
    return all(s.coeff(n) == coeffs.get(n, 0) for n in range(-20, prec))


def _convolve(lvl, a, b):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = lvl.add(out.get(i + j, 0), lvl.mul(x, y))
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@PROPS
@given(data=st.data())
def test_series_against_dense_arithmetic(towers, q, data):
    lvl = towers[q].q2
    (a, pa), (b, pb) = (data.draw(_dense(lvl.size)) for _ in range(2))
    sa, sb = _series(lvl, (a, pa)), _series(lvl, (b, pb))
    assert _agrees(sa, a, pa)
    prec = min(pa, pb)
    for op, f in ((sa + sb, lvl.add), (sa - sb, lvl.sub)):
        want = {n: f(a.get(n, 0), b.get(n, 0)) for n in set(a) | set(b)}
        assert _agrees(op, {n: c for n, c in want.items() if c and n < prec},
                       prec)
    assert _agrees(sa.frobq(), {q * n: lvl.frobq(c) for n, c in a.items()},
                   q * pa)
    prod = sa * sb
    if a and b:
        prec = min(pa + min(b), pb + min(a))
        assert _agrees(prod, {n: c for n, c in _convolve(lvl, a, b).items()
                              if c and n < prec}, prec)
    else:
        assert prod.is_zero_to_prec()
    if a:
        m = min(a)
        inv = sa.inverse()
        assert inv.off == -m and inv.prec == pa - 2 * m
        one = _convolve(lvl, a, {n: inv.coeff(n) for n in range(-m, inv.prec)})
        assert all(one.get(n, 0) == (n == 0) for n in range(pa - m))


def test_series_zero_valuation_raises(tw4):
    with pytest.raises(PrecisionError):
        Series.zero(tw4.q2, 5).valuation()


def test_expand_finite_place_valuations(tw3):
    # at P_{0,0} the function y is a local uniformizer power: v(y) = q + 1
    x, y = oracle_frame(tw3, rational_place(0, 0), 12)
    assert x.valuation() == 1
    assert y.valuation() == 3 + 1
    pl = rational_places(tw3)[5]
    x2, _ = oracle_frame(tw3, pl, 12)
    assert x2.valuation() == 0
    assert (x2 - _const(tw3.q2, pl.alpha, 12)).valuation() == 1


def test_expand_infinity_valuations(towers):
    for q in (2, 3, 4):
        x, y = oracle_frame(towers[q], P_INF, 10)
        assert x.valuation() == -q
        assert y.valuation() == -(q + 1)


def test_frame_point_lies_on_the_curve(towers):
    # w = T_P^-1 (t, 1, u) is P at t = 0, solves the curve equation to the
    # horizon, and its uniformizer l_0(w)/l_1(w) is t itself, at horizons
    # q + 5 and 8(q + 5)
    for q in (2, 3, 4, 5, 7, 8, 9):
        tw = towers[q]
        lvl = tw.q2
        for pl, h in itertools.product([P_INF] + rational_places(tw)[1:6],
                                       (q + 5, 8 * (q + 5))):
            fr = expand_at(tw, pl, h)
            pt = (0, 1, 0) if pl == P_INF else (pl.alpha, pl.beta, 1)
            assert normalize_point(lvl, fr.w[0]) == normalize_point(lvl, pt)
            X, Y, Z = (Series.make(lvl, 0, [fr.w.get(e, (0, 0, 0))[i]
                                            for e in range(fr.horizon)],
                                   fr.horizon) for i in range(3))
            assert (Y.frobq() * Z + Y * Z.frobq()
                    - X.frobq() * X).is_zero_to_prec()
            t = fr.to_inf or (1, 0, 0, 0, 1, 0, 0, 0, 1)
            l0, l1 = (_scaled(X, r[0]) + _scaled(Y, r[1]) + _scaled(Z, r[2])
                      for r in (t[0:3], t[3:6]))
            assert (l0 - Series.t_power(lvl, 1, fr.horizon) * l1
                    ).is_zero_to_prec()


def test_frame_pole_terms_match_the_oracle(towers):
    # the closed form of u in the frame at P_inf is the u the oracle
    # iterates, term by term, to 8(q + 5)
    for q in (2, 3, 4, 5, 7, 8, 9):
        tw = towers[q]
        for h in (q + 5, 8 * (q + 5)):
            fr = expand_at(tw, P_INF, h)
            u = oracle_pole(tw, h)
            assert {e: v[2] for e, v in fr.w.items() if v[2]} == {
                n: u.coeff(n) for n in range(h) if u.coeff(n)}
            assert fr.w[0] == (0, 1, 0) and fr.w[1] == (1, 0, 0)


def test_i_value_epsilon_at_infinity(towers):
    # a diagonal automorphism fixes P_inf with i = 1 (tame)
    for q in (3, 4, 7):
        tw = towers[q]
        assert i_value(tw, P_INF, epsilon(tw, tw.a)) == 1


def test_i_value_translations_at_infinity(towers):
    # tau(0, c) fixes P_inf to order q + 2; tau(b, c) with b != 0 to order 2
    for q in (2, 3, 4, 5):
        tw = towers[q]
        c = tw.solve_additive_raw(0)[1]  # nonzero c with c^q + c = 0
        assert i_value(tw, P_INF, from_affine(tw, 1, 0, c)) == q + 2
        b = tw.a
        cb = tw.solve_additive_raw(b)[0]
        assert i_value(tw, P_INF, from_affine(tw, 1, b, cb)) == 2


def test_i_value_zero_when_not_fixed(tw3):
    w = omega(tw3)
    pl = next(p for p in rational_places(tw3)[1:] if apply_place(w, p) != p)
    assert i_value(tw3, pl, w) == 0


def test_i_value_zero_when_moved_within_a_fibre_of_x(towers):
    # tau(0, 1) keeps x and moves P(0, 0) to P(0, 1): sigma(t) - t vanishes
    # identically for t = x
    tw = towers[2]
    assert i_value(tw, rational_place(0, 0), from_affine(tw, 1, 0, 1)) == 0
    # omega keeps x = 0 and moves P(0, b) to P(0, 1/b); v(sigma(x) - x) = 1
    tw = towers[3]
    pl = next(p for p in rational_places(tw)[1:]
              if p.alpha == 0 and p.beta != 0)
    assert apply_place(omega(tw), pl) != pl
    assert i_value(tw, pl, omega(tw)) == 0


def test_i_value_positive_exactly_on_the_stabiliser(towers):
    # omega and the whole stabiliser of P_inf, every x -> a x + b: each
    # branch of the affine form (a != 1, b != 0, only c) at P_inf and at
    # the places it is conjugated to, against the oracle at every fixed place
    for q in (2, 3):
        tw = towers[q]
        auts = [omega(tw)]
        auts += [from_affine(tw, a, b, c) for a in range(1, tw.q2.size)
                 for b in range(tw.q2.size) for c in tw.solve_additive_raw(b)
                 if (a, b, c) != (1, 0, 0)]
        for f in auts:
            for pl in rational_places(tw):
                fixed = apply_place(f, pl) == pl
                got = i_value(tw, pl, f)
                assert (got > 0) == fixed
                if fixed:
                    assert got == oracle_i_value(tw, pl, f)


@pytest.fixture(scope="module")
def frame_places(towers):
    """(tower, rational places): every affine one at q = 2..5, and 200
    random ones at q = 16 and 19."""
    out = [(towers[q], rational_places(towers[q])[1:]) for q in (2, 3, 4, 5)]
    rng = random.Random(1619)
    for p, e in ((2, 4), (19, 1)):
        tw = build_tower(p, e)
        out.append((tw, rng.sample(rational_places(tw)[1:], 200)))
    return out


def test_frame_is_exact_and_takes_the_place_to_infinity(frame_places):
    # T_P T_P^-1 is the identity matrix itself, not a multiple of it, and
    # T_P maps P to (0 : 1 : 0); P_inf has no frame
    for tw, places in frame_places:
        lvl = tw.q2
        assert to_infinity(tw, P_INF) is None
        for pl in places:
            t, back = to_infinity(tw, pl)
            assert mat_mul3(lvl, t, back) == IDENTITY3
            assert mat_mul3(lvl, back, t) == IDENTITY3
            assert normalize_point(lvl, mat_vec3(
                lvl, t, (pl.alpha, pl.beta, 1))) == (0, 1, 0)


def test_affine_form_reads_the_affine_shape(frame_places):
    # (a, b, c) of from_affine(a, b, c) at P_inf, also scaled, and of its
    # conjugate moved to each place P by T_P^-1 . T_P, read through P's
    # frame; None exactly when a random atom moves the place
    rng = random.Random(26)
    moved = set()
    for tw, places in frame_places:
        lvl, size = tw.q2, tw.q2.size
        assert affine_form(lvl, None, omega(tw).m) is None
        for pl in places:
            a, b = rng.randrange(1, size), rng.randrange(size)
            c = rng.choice(tw.solve_additive_raw(b))
            f = from_affine(tw, a, b, c).m
            lam = rng.randrange(1, size)
            assert affine_form(lvl, None, f) == (a, b, c)
            assert affine_form(lvl, None, [lvl.mul(lam, x) for x in f]) == (
                a, b, c)
            t, back = to_infinity(tw, pl)
            at_p = mat_mul3(lvl, mat_mul3(lvl, back, f), t)
            assert affine_form(lvl, (t, back), at_p) == (a, b, c)
            g = random_atom(tw, rng)
            off = apply_place(g, pl) != pl
            moved.add(off)
            assert (affine_form(lvl, (t, back), g.m) is None) == off
    assert moved == {False, True}


def _constructor_frame(tw, place):
    """T_P as the product of omega and the translation taking P to P(0, 0),
    both built by the automorphism constructors."""
    lvl = tw.q2
    al, be = place.alpha, place.beta
    tr = from_affine(tw, 1, lvl.neg(al),
                     lvl.sub(lvl.mul(lvl.frobq(al), al), be))
    return mat_mul3(lvl, omega(tw).m, tr.m)


def _adjugate_i_value(tw, t, m):
    """The i-value read off T M adj(T) as i_value reads T M T^-1."""
    lvl = tw.q2
    c = mat_mul3(lvl, mat_mul3(lvl, t, m), mat_adj3(lvl, t))
    if c[1] or c[7]:
        return 0
    if c[0] != c[8]:
        return 1
    return 2 if c[2] else tw.q + 2


def test_i_value_matches_the_adjugate_reference(frame_places):
    # at each place: the three branches of the affine form at P_inf (a != 1,
    # b != 0, only c) moved to P by adj(T_P) . T_P, and two random elements,
    # which mostly move P
    rng = random.Random(25)
    branches = set()
    for tw, places in frame_places:
        lvl, size = tw.q2, tw.q2.size
        c0 = next(c for c in tw.solve_additive_raw(0) if c)
        for pl in places:
            t = _constructor_frame(tw, pl)
            a, b = rng.randrange(2, size), rng.randrange(1, size)
            affine = [from_affine(tw, a, b, tw.solve_additive_raw(b)[0]),
                      from_affine(tw, 1, b, tw.solve_additive_raw(b)[0]),
                      from_affine(tw, 1, 0, c0)]
            ms = [mat_mul3(lvl, mat_mul3(lvl, mat_adj3(lvl, t), f.m), t)
                  for f in affine]
            ms += [random_atom(tw, rng).m for _ in range(2)]
            for m in ms:
                f = Aut(tw, normalize_point(lvl, m))
                if f.is_identity():
                    continue
                want = _adjugate_i_value(tw, t, m)
                branches.add(want if want < 3 else "q + 2")
                assert i_value(tw, pl, f) == want
    assert branches == {0, 1, 2, "q + 2"}


def _division_i_value(tw, place, m):
    """The i-value by division: (a, b, c) of the conjugate at P_inf from
    affine_form, 1 when a != 1, 2 when b != 0, q + 2 when only c is left,
    and 0 when the conjugate moves P_inf."""
    form = affine_form(tw.q2, to_infinity(tw, place), m)
    if form is None:
        return 0
    if form[0] != 1:
        return 1
    return 2 if form[1] else tw.q + 2


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8])
def test_i_value_read_off_entries_matches_the_division(towers, q):
    # every element of the stabiliser of P_inf and of two affine places,
    # closed from eps(a) and tau(1, c) moved there by adj(T) . T, T the
    # constructors' frame: at its own place and at the next one, the
    # i-value read off the conjugate's entries is the division's, and 0
    # exactly when the element moves the place
    tw = towers[q]
    lvl = tw.q2
    places = [P_INF] + random.Random(q).sample(rational_places(tw)[1:], 2)
    base = [epsilon(tw, tw.a),
            from_affine(tw, 1, 1, tw.solve_additive_raw(1)[0])]
    order = q ** 3 * (q * q - 1)
    seen = set()
    for k, pl in enumerate(places):
        gens = base
        if pl != P_INF:
            t = _constructor_frame(tw, pl)
            gens = [Aut(tw, normalize_point(lvl, mat_mul3(
                lvl, mat_mul3(lvl, mat_adj3(lvl, t), g.m), t))) for g in base]
        grp = close_group(tw, gens, cap=order)
        assert grp.order == order
        other = places[(k + 1) % len(places)]
        for f in grp.elements[1:]:
            want = _division_i_value(tw, pl, f.m)
            assert want > 0 and i_value(tw, pl, f) == want
            seen.add(want if want < 3 else "q + 2")
            got = i_value(tw, other, f)
            if apply_place(f, other) != other:
                assert got == 0
                seen.add("moved")
            else:
                assert got == _division_i_value(tw, other, f.m) > 0
    assert seen == {1, 2, "q + 2", "moved"}


def _grid_and_9c_groups(towers):
    for case, qs in GRID.items():
        for q in qs:
            if q > 8:
                continue
            for m in divisors(case_modulus(case, q)):
                try:
                    spec = case_spec(case, q, m)
                except GFError:
                    continue
                yield towers[q], group_from_spec(towers[q], spec)
    for q in (4, 5):
        rng = random.Random(12345 + q)
        for _ in range(10):
            yield towers[q], random_group(towers[q], rng)


def test_i_value_matches_oracle(towers):
    # every (place, stabiliser element) pair of the acceptance grid at
    # q <= 8 and of the first ten 9c groups at q = 4, 5
    seen = set()
    for tw, grp in _grid_and_9c_groups(towers):
        for s in grp.elements:
            if s.is_identity():
                continue
            for pl in fixed_rational_places(tw, s):
                key = (tw.q, s.m, pl)
                if key in seen:
                    continue
                seen.add(key)
                assert i_value(tw, pl, s) == oracle_i_value(tw, pl, s)
    assert len(seen) > 1000


def test_i_value_above_the_frame_horizon_matches_default(towers):
    # omega tau(0, c) omega fixes P(0, 0) with i = q + 2
    for q in (2, 3, 4, 8):
        tw = towers[q]
        pl = rational_place(0, 0)
        w = omega(tw)
        for c in tw.solve_additive_raw(0):
            if c == 0:
                continue
            s = compose(compose(w, from_affine(tw, 1, 0, c)), w)
            assert apply_place(s, pl) == pl
            assert i_value(tw, pl, s) == q + 2


def test_ramification_data_tame(tw4):
    g = group_from_spec(tw4, "eps(a^5)")  # order 3, tame
    dat = ramification_data(tw4, P_INF, g)
    assert dat.e == 3 and dat.f == 1 and dat.d == 2
    dat0 = ramification_data(tw4, rational_place(0, 0), g)
    assert dat0.e == 3 and dat0.d == 2


def test_ramification_data_wild(tw2):
    # full group <eps, omega> at P_inf: e = 2 * |stab|... known d values
    g = group_from_spec(tw2, "eps(a), omega")
    dat = ramification_data(tw2, P_INF, g)
    assert dat.d == 2 * 2 - 2  # q^2 - 2 at q = 2
    beta = next(p.beta for p in rational_places(tw2)[1:] if p.alpha == 0 and p.beta != 0)
    dat_b = ramification_data(tw2, rational_place(0, beta), g)
    assert dat_b.d == 3 * 2 + 2


def test_ramification_data_degree3(tw2):
    # an order-3 element with irreducible characteristic polynomial fixes
    # degree-3 places; its cyclic group ramifies there tamely with d = e - 1
    from hermquot.autgrp import aut_order
    from hermquot.curve import degree3_places

    gens = [omega(tw2), epsilon(tw2, tw2.a)]
    for b in range(tw2.q2.size):
        for c in tw2.solve_additive_raw(b):
            gens.append(from_affine(tw2, 1, b, c))
    full = close_group(tw2, gens, cap=300)
    d3 = degree3_places(tw2)
    hits = []
    for s in full.elements:
        if s.is_identity() or aut_order(s) != 3:
            continue
        if not any(apply_place(s, pl) == pl for pl in d3):
            continue
        g = close_group(tw2, [s])
        for pl in d3:
            dat = ramification_data(tw2, pl, g)
            if dat.e > 1:
                assert dat.e == 3
                assert dat.d == dat.e - 1
                assert dat.f in (1, 3)
                hits.append(dat)
        if hits:
            break
    assert hits


def test_hilbert_formula_cross_check_runs(tw4):
    # ramification_data checks that the two different computations agree
    # when dual_check is set; exercising it on a wild place must not raise
    g = group_from_spec(tw4, "eps(a), omega")
    dat = ramification_data(tw4, P_INF, g, dual_check=True)
    assert dat.d == 4 * 4 - 2


def test_hilbert_sum_in_one_pass():
    # i-values 1 (weight 2), 2 (weight 3) and 5 (weight 1), e = 7: |G_0| = 7,
    # |G_1| = 5 and |G_2| = |G_3| = |G_4| = 2, so the sum is 6 + 4 + 3 * 1,
    # the sum 2 + 6 + 5 of the i-values
    assert _hilbert_sum([(1, 2), (2, 3), (5, 1)], 7) == (13, 5)
    assert _hilbert_sum([], 1) == (0, 1)
