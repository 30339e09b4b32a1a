"""Places of the curve y^q + y = x^{q+1}: enumeration, degrees, ordering."""

import pytest

from hermquot.curve import (
    P_INF,
    degree3_count,
    degree3_place,
    degree3_places,
    frobenius_point,
    normalize_point,
    on_curve,
    place_of_point,
    place_sort_key,
    rational_place,
    rational_places,
)


def test_rational_place_counts(towers):
    for q in (2, 3, 4, 5):
        places = rational_places(towers[q])
        assert len(places) == q**3 + 1
        assert places[0] == P_INF


def test_rational_places_on_curve(tw3):
    lvl = tw3.q2
    for pl in rational_places(tw3)[1:]:
        assert on_curve(lvl, (pl.alpha, pl.beta, 1))


def test_rational_places_deterministic(tw4):
    a = rational_places(tw4)
    b = rational_places(tw4)
    assert a == b
    keys = [place_sort_key(tw4, pl) for pl in a]
    assert keys == sorted(keys)


def test_no_points_off_curve(tw2):
    lvl = tw2.q2
    on = sum(
        1
        for x in range(lvl.size)
        for y in range(lvl.size)
        if on_curve(lvl, (x, y, 1))
    )
    assert on == 2**3  # plus P_inf gives q^3 + 1


def test_degree3_counts(towers):
    # number of degree-3 places is (N_6 - N_2) / 3 with N_6 the point count
    # over F_{q^6}
    for q in (2, 3, 4):
        n6 = q**6 + 1 + (q * q - q) * q**3
        expected = (n6 - (q**3 + 1)) // 3
        assert degree3_count(towers[q]) == expected
        assert len(degree3_places(towers[q])) == expected


def test_degree3_orbit_structure(tw2):
    q6 = tw2.q6
    for pl in degree3_places(tw2)[:20]:
        pts = pl.data
        assert len(pts) == 3
        for pt in pts:
            assert on_curve(q6, pt)
        orbit = {pts[0]}
        cur = pts[0]
        for _ in range(2):
            cur = normalize_point(q6, frobenius_point(tw2, cur))
            orbit.add(cur)
        assert orbit == set(pts)


def test_place_of_point_rational(tw3):
    for pl in rational_places(tw3)[1:]:
        back = place_of_point(tw3, (pl.alpha, pl.beta, 1))
        assert back == pl
    assert place_of_point(tw3, (0, 1, 0)) == P_INF


def test_place_of_point_scaling_invariance(tw3):
    lvl = tw3.q2
    pl = rational_places(tw3)[5]
    for c in range(1, lvl.size):
        scaled = tuple(lvl.mul(c, v) for v in (pl.alpha, pl.beta, 1))
        assert place_of_point(tw3, scaled) == pl


def test_place_of_point_degree3_roundtrip(tw2):
    for pl in degree3_places(tw2)[:10]:
        assert degree3_place(tw2, pl.data[0]) == pl


def test_place_degrees(tw2):
    assert P_INF.degree == 1
    assert rational_place(0, 0).degree == 1
    assert degree3_places(tw2)[0].degree == 3


def test_degree3_places_sorted_and_distinct(tw3):
    pls = degree3_places(tw3)
    assert len(set(pls)) == len(pls)
    keys = [place_sort_key(tw3, pl) for pl in pls]
    assert keys == sorted(keys)
