"""Quotient genus engine: fixed points, orbit data, genus, cross-checks."""

import functools
import itertools
import random

import pytest

from hermquot._linalg import charpoly3, mat_vec3
from hermquot.autgrp import (
    apply_place,
    apply_point,
    aut_order,
    close_group,
    epsilon,
    from_affine,
    group_from_spec,
    omega,
)
from hermquot.curve import (
    degree3_places,
    normalize_point,
    rational_places,
)
from hermquot.engine import (
    EngineError,
    _cyclic_walk,
    _eigen_data,
    _form_zeros,
    _twisted_count,
    fixed_rational_places,
    genus_of_quotient,
    pointwise_fixed_degree3_places,
    tame_diff_crosscheck,
    twisted_counts,
    twisted_fix_count,
)
from hermquot.formulas import case_modulus, case_spec, expected_genus
from hermquot.gf import GFError, poly_roots
from test_acceptance import GRID, random_group


def brute_fixed_rational(tw, f):
    return [pl for pl in rational_places(tw) if apply_place(f, pl) == pl]


def test_fixed_rational_places_vs_brute(towers):
    for q in (2, 3, 4, 5):
        tw = towers[q]
        c = next(c for c in tw.solve_additive_raw(0) if c)  # c^q + c = 0
        # eigenspaces that are lines: Z = 0 through P_inf alone, and X = 0
        # through q + 1 rational points
        line1, line_q1 = from_affine(tw, 1, 0, c), epsilon(tw, tw.a_pow(q - 1))
        samples = [omega(tw), epsilon(tw, tw.a), line1, line_q1]
        g = group_from_spec(tw, "eps(a), omega")
        samples.extend(f for f in g.elements if not f.is_identity())
        for f in samples:
            assert sorted(map(repr, fixed_rational_places(tw, f))) == sorted(
                map(repr, brute_fixed_rational(tw, f)))
        assert len(fixed_rational_places(tw, line1)) == 1
        assert len(fixed_rational_places(tw, line_q1)) == q + 1


@pytest.mark.parametrize("k", [1, 2, 3])
def test_form_zeros_vs_brute(tw3, k):
    lvl = tw3.q2
    fr, mul, add = lvl.frobq, lvl.mul, lvl.add
    points = [c for c in itertools.product(range(lvl.size), repeat=k)
              if any(c) and next(x for x in c if x) == 1]
    herm = [[lvl.neg(1), 0, 0], [0, 0, 1], [0, 1, 0]]  # the curve's form
    rng = random.Random(k)
    gs = [[row[3 - k:] for row in herm[3 - k:]], [[0] * k for _ in range(k)]]
    gs += [[[rng.choice([0, rng.randrange(lvl.size)]) for _ in range(k)]
            for _ in range(k)] for _ in range(20)]
    for g in gs:
        brute = [c for c in points
                 if functools.reduce(add, (mul(mul(fr(c[i]), c[j]), g[i][j])
                                           for i in range(k)
                                           for j in range(k))) == 0]
        assert sorted(_form_zeros(lvl, 3, g)) == brute


@pytest.mark.parametrize("q, spec", [
    # order-3 homologies, with a 2-dimensional eigenspace
    pytest.param(2, "eps(a), omega", id="q2-homology3"),
    # an irreducible charpoly at order 3, 7 and 13
    pytest.param(2, "aff(a, 1, a) * omega", id="q2-irreducible3"),
    pytest.param(3, "aff(a, 1, a^4) * omega", id="q3-irreducible7"),
    pytest.param(4, "aff(a, 1, a^14) * omega", id="q4-irreducible13"),
    # orders 2 and 4 only
    pytest.param(3, "eps(a^2), omega", id="q3-orders2and4"),
    # an order-3 homology at q = 5
    pytest.param(5, "eps(a^8)", id="q5-homology3"),
])
def test_pointwise_fixed_degree3_vs_brute(towers, q, spec):
    tw = towers[q]
    q6 = tw.q6
    g = group_from_spec(tw, spec)
    d3 = degree3_places(tw)
    for f in g.elements:
        if f.is_identity():
            continue
        brute = {pl for pl in d3
                 if all(normalize_point(q6, apply_point(f, q6, pt)) == pt
                        for pt in pl.data)}
        assert set(pointwise_fixed_degree3_places(tw, f)) == brute
        if not poly_roots(tw.q2, charpoly3(tw.q2, f.m)):
            assert len(brute) == 1  # an irreducible charpoly fixes one


def test_twisted_fix_count_vs_brute(tw2):
    from hermquot.curve import frobenius_point, on_curve

    q6 = tw2.q6
    pts = [(x, y, 1) for x in range(q6.size) for y in range(q6.size)
           if on_curve(q6, 2, (x, y, 1))] + [(0, 1, 0)]
    g = group_from_spec(tw2, "eps(a), omega")
    for f in g.elements:
        brute = sum(
            1 for pt in pts
            if normalize_point(q6, frobenius_point(tw2, pt))
            == normalize_point(q6, apply_point(f, q6, pt)))
        assert twisted_fix_count(tw2, f) == brute


def test_trivial_group_keeps_genus(tw4):
    g = group_from_spec(tw4, "")
    rep = genus_of_quotient(tw4, g)
    assert rep.genus == (16 - 4) // 2
    assert rep.deg_diff == 0
    assert rep.n_rational == 4**3 + 1


def test_full_diagonal_quotient(towers):
    # <eps(a), omega> gives a genus-0 quotient at every q
    for q in (2, 3, 4):
        rep = genus_of_quotient(towers[q], group_from_spec(towers[q], "eps(a), omega"))
        assert rep.genus == 0


def test_known_different_values(tw4):
    g = group_from_spec(tw4, "eps(a), omega")
    rep = genus_of_quotient(tw4, g)
    by_d = {}
    for row in rep.orbits:
        by_d.setdefault(row.d, 0)
        by_d[row.d] += 1
    # P_inf and P_{0,0} merge into one orbit with d = q^2 - 2 = 14,
    # the q - 1 places P_{0,beta} form one orbit with d = 3q + 2 = 14 too
    assert all(row.d in (0, 14) for row in rep.orbits)
    deg = sum(row.size * row.d * row.degree for row in rep.orbits)
    assert deg == rep.deg_diff


def test_genus_matches_formula_sample(towers):
    samples = [
        ("t3", 8, 3), ("t3", 8, 63), ("t41m_plus", 8, 3),
        ("t421", 7, 8), ("t422", 7, 4), ("t422", 9, 8),
        ("t511", 8, 9), ("t512", 8, 3), ("t521", 7, 16), ("t522", 9, 5),
    ]
    for case, q, m in samples:
        tw = towers[q]
        g = group_from_spec(tw, case_spec(case, q, m))
        rep = genus_of_quotient(tw, g, expected=expected_genus(case, q, m))
        assert rep.matches


def test_quotient_rational_count_vs_brute_orbits(towers):
    for q in (2, 3):
        tw = towers[q]
        for spec in ("omega", "eps(a), omega", "eps(a^%d)" % (q + 1)):
            g = group_from_spec(tw, spec)
            # direct orbit count: rational orbits plus degree-3 orbits that
            # collapse to degree-1 places downstairs (full orbit of size
            # 3|orbit of places| with Frobenius acting inside)
            places = rational_places(tw)
            seen = set()
            n_orbits = 0
            for pl in places:
                if pl in seen:
                    continue
                orb = {apply_place(f, pl) for f in g.elements}
                seen |= orb
                n_orbits += 1
            f3 = 0
            seen3 = set()
            for pl in degree3_places(tw):
                if pl in seen3:
                    continue
                orb = {apply_place(f, pl) for f in g.elements}
                seen3 |= orb
                stab = g.order // len(orb)
                # the place splits downstairs into places whose residue
                # degrees multiply out of f; it collapses to degree 1 iff
                # some stabilizer element realizes the Frobenius on it
                if stab % 3 == 0:
                    from hermquot.curve import frobenius_point

                    pt = pl.data[0]
                    fr = normalize_point(tw.q6, frobenius_point(tw, pt))
                    setwise = [f for f in g.elements if apply_place(f, pl) == pl]
                    if any(normalize_point(tw.q6, apply_point(f, tw.q6, pt)) == fr
                           for f in setwise):
                        f3 += 1
            rep = genus_of_quotient(tw, g, dual_check=False)
            assert rep.n_rational_deg13 == n_orbits + f3


def test_tame_diff_crosscheck_regime(tw7):
    g = group_from_spec(tw7, case_spec("t422", 7, 12))
    rep = genus_of_quotient(tw7, g)
    assert tame_diff_crosscheck(tw7, g) == rep.deg_diff == 40


def test_tame_diff_crosscheck_rejects_wild(tw4):
    g = group_from_spec(tw4, "tau(0, a^5)")
    with pytest.raises(EngineError):
        tame_diff_crosscheck(tw4, g)


def test_genus_monotone_under_subgroups(tw8):
    # a bigger group cannot give a bigger quotient genus
    small = group_from_spec(tw8, "eps(a^9)")
    big = group_from_spec(tw8, "eps(a^9), omega")
    g_small = genus_of_quotient(tw8, small, with_count=False).genus
    g_big = genus_of_quotient(tw8, big, with_count=False).genus
    assert g_big <= g_small


def test_dual_check_consistency(tw5):
    g = group_from_spec(tw5, case_spec("t422", 5, 8))
    a = genus_of_quotient(tw5, g, dual_check=True)
    b = genus_of_quotient(tw5, g, dual_check=False)
    assert a.genus == b.genus and a.deg_diff == b.deg_diff


def test_expected_mismatch_reported(tw4):
    g = group_from_spec(tw4, "eps(a), omega")
    rep = genus_of_quotient(tw4, g, expected=7)
    assert rep.matches is False


def _check_walk_per_element(tw, grp):
    # the walk lists each nontrivial element once, with what the
    # per-element route finds for it
    els = _cyclic_walk(tw, grp, True)
    assert sorted(el.aut.m for el in els) == sorted(
        f.m for f in grp.elements if not f.is_identity())
    for el in els:
        f = el.aut
        assert el.order == aut_order(f)
        # the shared eigenspaces, with f's own eigenvalues
        assert sorted((mu, mult, len(b)) for mu, mult, b in el.eig) == sorted(
            (lam, mult, len(b)) for lam, mult, b in _eigen_data(tw, f)[0])
        for mu, _mult, basis in el.eig:
            for v in basis:
                assert mat_vec3(tw.q2, f.m, v) == tuple(tw.q2.mul(mu, x)
                                                        for x in v)
        assert el.fixed == fixed_rational_places(tw, f)
        assert el.deg3 == pointwise_fixed_degree3_places(tw, f)
        assert _twisted_count(tw, f, el.order, el.eig,
                              el.fixed) == twisted_counts(tw, f)


@pytest.mark.parametrize("q", [2, 4, 5, 7, 8])
def test_cyclic_walk_vs_per_element_on_grid(towers, q):
    groups = 0
    for case, qs in GRID.items():
        if q not in qs:
            continue
        n = case_modulus(case, q)
        for m in (m for m in range(1, n + 1) if n % m == 0):
            try:
                spec = case_spec(case, q, m)
            except GFError:
                continue
            _check_walk_per_element(towers[q], group_from_spec(towers[q], spec))
            groups += 1
    assert groups


@pytest.mark.parametrize("q, order", [(4, 13), (8, 504)])
def test_cyclic_walk_vs_per_element_on_9c_stream(towers, q, order):
    # the first group of this order in the criterion 9c stream: a Singer
    # group at q = 4, and a group whose elements have many orders at q = 8
    tw = towers[q]
    rng = random.Random(12345 + q)
    grp = random_group(tw, rng)
    while grp.order != order:
        grp = random_group(tw, rng)
    _check_walk_per_element(tw, grp)
