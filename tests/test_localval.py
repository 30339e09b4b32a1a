"""Local expansions and higher ramification invariants."""

import pytest

from hermquot.autgrp import (
    apply_place,
    close_group,
    compose,
    epsilon,
    from_affine,
    group_from_spec,
    omega,
)
from hermquot.curve import P_INF, rational_place, rational_places
from hermquot.localval import (
    FrameCache,
    PrecisionError,
    Series,
    expand_at,
    i_value,
    ramification_data,
)


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


def test_series_zero_valuation_raises(tw4):
    with pytest.raises(PrecisionError):
        Series.zero(tw4.q2, 5).valuation()


def test_expand_finite_place_valuations(tw3):
    # at P_{0,0} the function y is a local uniformizer power: v(y) = q + 1
    fr = expand_at(tw3, rational_place(0, 0), horizon=12)
    assert fr.x.valuation() == 1
    assert fr.y.valuation() == 3 + 1
    pl = rational_places(tw3)[5]
    fr2 = expand_at(tw3, pl, horizon=12)
    assert fr2.x.valuation() == 0
    assert (fr2.x - Series.const(tw3.q2, pl.alpha, 12)).valuation() == 1


def test_expand_infinity_valuations(towers):
    for q in (2, 3, 4):
        fr = expand_at(towers[q], P_INF, horizon=10)
        assert fr.x.valuation() == -q
        assert fr.y.valuation() == -(q + 1)


def test_i_value_epsilon_at_infinity(towers):
    # a diagonal automorphism fixes P_inf with i = 1 (tame)
    for q in (3, 4, 7):
        tw = towers[q]
        cache = FrameCache(tw)
        assert i_value(tw, P_INF, epsilon(tw, tw.a), cache) == 1


def test_i_value_translations_at_infinity(towers):
    # tau(0, c) fixes P_inf to order q + 2; tau(b, c) with b != 0 to order 2
    for q in (2, 3, 4):
        tw = towers[q]
        cache = FrameCache(tw)
        c = tw.solve_additive_raw(0)[1]  # nonzero c with c^q + c = 0
        assert i_value(tw, P_INF, from_affine(tw, 1, 0, c), cache) == q + 2
        b = tw.a
        cb = tw.solve_additive_raw(b)[0]
        assert i_value(tw, P_INF, from_affine(tw, 1, b, cb), cache) == 2


def test_i_value_zero_when_not_fixed(tw3):
    cache = FrameCache(tw3)
    w = omega(tw3)
    pl = next(p for p in rational_places(tw3)[1:] if apply_place(w, p) != p)
    assert i_value(tw3, pl, w, cache) == 0


def test_i_value_consistent_under_horizon(tw4):
    c = tw4.solve_additive_raw(0)[1]
    f = from_affine(tw4, 1, 0, c)
    base = i_value(tw4, P_INF, f, FrameCache(tw4))
    cache = FrameCache(tw4)
    cache.get(P_INF, 25)  # a deeper frame than i_value starts from
    assert i_value(tw4, P_INF, f, cache) == base


def test_ramification_data_tame(tw4):
    g = group_from_spec(tw4, "eps(a^5)")  # order 3, tame
    dat = ramification_data(tw4, P_INF, g, FrameCache(tw4))
    assert dat.e == 3 and dat.f == 1 and dat.d == 2
    dat0 = ramification_data(tw4, rational_place(0, 0), g, FrameCache(tw4))
    assert dat0.e == 3 and dat0.d == 2


def test_ramification_data_wild(tw2):
    # full group <eps, omega> at P_inf: e = 2 * |stab|... known d values
    g = group_from_spec(tw2, "eps(a), omega")
    dat = ramification_data(tw2, P_INF, g, FrameCache(tw2))
    assert dat.d == 2 * 2 - 2  # q^2 - 2 at q = 2
    beta = next(p.beta for p in rational_places(tw2)[1:] if p.alpha == 0 and p.beta != 0)
    dat_b = ramification_data(tw2, rational_place(0, beta), g, FrameCache(tw2))
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
    cache = FrameCache(tw2)
    hits = []
    for s in full.elements:
        if s.is_identity() or aut_order(s) != 3:
            continue
        if not any(apply_place(s, pl) == pl for pl in d3):
            continue
        g = close_group(tw2, [s])
        for pl in d3:
            dat = ramification_data(tw2, pl, g, cache)
            if dat.e > 1:
                assert dat.e == 3
                assert dat.d == dat.e - 1
                assert dat.f in (1, 3)
                hits.append(dat)
        if hits:
            break
    assert hits


def test_hilbert_formula_cross_check_runs(tw4):
    # ramification_data asserts the two different computations agree when
    # dual_check is set; exercising it on a wild place must not raise
    g = group_from_spec(tw4, "eps(a), omega")
    dat = ramification_data(tw4, P_INF, g, FrameCache(tw4), dual_check=True)
    assert dat.d == 4 * 4 - 2
