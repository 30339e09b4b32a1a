"""Quotient genus engine: fixed points, orbit data, genus, cross-checks."""

import functools
import importlib
import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import hermquot
from hermquot import cli, engine
from hermquot._linalg import charpoly3, mat_vec3
from hermquot.autgrp import (
    apply_place,
    aut_order,
    aut_pow,
    close_group,
    compose,
    epsilon,
    from_affine,
    group_from_spec,
    identity,
    inverse,
    omega,
    parse_spec,
    pgu_order,
)
from hermquot.curve import (
    P_INF,
    degree3_places,
    normalize_point,
    place_sort_key,
    rational_places,
)
from hermquot.engine import (
    EngineError,
    _cyclic_walk,
    _eigen_data,
    _orbit_rows,
    _rational_count,
    _twisted_count,
    _wild_counts,
    _wild_place,
    fixed_rational_places,
    genus_of_quotient,
    pointwise_fixed_degree3_places,
    tame_diff_crosscheck,
)
from hermquot.formulas import case_modulus, case_spec, expected_genus
from hermquot.gf import GFError, build_tower, poly_roots
from _twisted_oracle import form_zeros, kernel_twisted_fix_count
from _walk_oracle import (
    orbit_rows_by_images,
    rational_count_per_subgroup,
    walk_per_subgroup,
)
from test_acceptance import GRID, random_atom, random_group
from test_twisted import SINGER3_Q2, SINGER7_Q3, twisted_counts


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
        assert sorted(form_zeros(lvl, 3, g)) == brute


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
                 if all(normalize_point(q6, mat_vec3(q6, f.m, pt)) == pt
                        for pt in pl.data)}
        assert set(pointwise_fixed_degree3_places(tw, f)) == brute
        if not poly_roots(tw.q2, charpoly3(tw.q2, f.m)):
            assert len(brute) == 1  # an irreducible charpoly fixes one


def test_twisted_fix_count_vs_brute(tw2):
    from hermquot.curve import frobenius_point, on_curve

    q6 = tw2.q6
    pts = [(x, y, 1) for x in range(q6.size) for y in range(q6.size)
           if on_curve(q6, (x, y, 1))] + [(0, 1, 0)]
    g = group_from_spec(tw2, "eps(a), omega")
    for f in g.elements:
        brute = sum(
            1 for pt in pts
            if normalize_point(q6, frobenius_point(tw2, pt))
            == normalize_point(q6, mat_vec3(q6, f.m, pt)))
        assert kernel_twisted_fix_count(tw2, f) == brute


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
                    if any(normalize_point(tw.q6, mat_vec3(tw.q6, f.m, pt)) == fr
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


def _wild_above_p(tw, order):
    return order % tw.p == 0 and order > tw.p


def _check_walk_per_element(tw, grp):
    # every nontrivial element generates exactly one record of the walk, and
    # the record holds what the per-element route finds for it; a class
    # representative's twisted count stands for every generator of every
    # cyclic subgroup in its class
    walk = _cyclic_walk(tw, grp)
    assert sorted(f.m for c in walk for f in c.gens) == sorted(
        f.m for f in grp.elements if not f.is_identity())
    counts = {}
    for i, c in enumerate(walk):
        rep = walk[c.rep]
        assert rep.rep == c.rep <= i and rep.order == c.order
        if c.rep == i:
            sigma = c.gens[0]
            # a wild representative has no eigen analysis: of order p it
            # takes its place from its nilpotent part, of order > p from its
            # order-p subgroup
            assert c.eig == (None if c.order % tw.p == 0
                             else _eigen_data(tw, sigma)[0])
            counts[i] = _twisted_count(tw, sigma, c.order, c.eig, c.fixed)
            assert counts[i] == twisted_counts(tw, sigma)
        else:
            assert c.eig is None
        for f in c.gens:
            assert aut_order(f) == c.order
            assert sorted(c.fixed, key=lambda p: place_sort_key(tw, p)) == (
                fixed_rational_places(tw, f))
            assert c.deg3 == pointwise_fixed_degree3_places(tw, f)
            assert twisted_counts(tw, f)[:2] == counts[c.rep][:2]


def _grid_specs(q):
    """The generator specs of the acceptance grid at q."""
    for case, qs in GRID.items():
        if q not in qs:
            continue
        n = case_modulus(case, q)
        for m in (m for m in range(1, n + 1) if n % m == 0):
            try:
                yield case_spec(case, q, m)
            except GFError:
                continue


@pytest.mark.parametrize("q", [2, 4, 5, 7, 8])
def test_cyclic_walk_vs_per_element_on_grid(towers, q):
    groups = 0
    for spec in _grid_specs(q):
        _check_walk_per_element(towers[q], group_from_spec(towers[q], spec))
        groups += 1
    assert groups


@pytest.mark.parametrize("q, order", [(4, 13), (5, 21), (8, 504)])
def test_cyclic_walk_vs_per_element_on_9c_stream(towers, q, order):
    # the first group of this order in the criterion 9c stream: a Singer
    # group at q = 4, a group with elements of order 21 at q = 5, and a
    # group whose elements have many orders at q = 8
    tw = towers[q]
    rng = random.Random(12345 + q)
    grp = random_group(tw, rng)
    while grp.order != order:
        grp = random_group(tw, rng)
    _check_walk_per_element(tw, grp)


def test_order_3m_count_over_q6_is_the_fixed_places(towers):
    # an element of order 3m, m > 1, m | q^2 - q + 1, has no non-rational
    # twisted point over F_{q^6}; the kernel count checks this on every
    # such element of the criterion 9c stream, on either path
    seen, paths = set(), {}
    for q in (4, 5, 7, 8):
        tw = towers[q]
        rng = random.Random(12345 + q)
        for _ in range(200):
            for c in _cyclic_walk(tw, random_group(tw, rng)):
                n = c.order
                if n == 3 or n % 3 or (q * q - q + 1) % (n // 3):
                    continue
                for f in (f for f in c.gens if f.m not in seen):
                    seen.add(f.m)
                    tc = twisted_counts(tw, f)
                    paths.setdefault(tc.path, set()).add(n)
                    assert kernel_twisted_fix_count(tw, f) == tc.n6 == len(
                        fixed_rational_places(tw, f))
    assert paths == {"F_q^6": {21, 57}, "diagonal": {9}} and len(seen) == 150


def test_f6_subcount_follows_the_order_rule_on_pgu(towers):
    # on every class representative of PGU(3, q), q = 2, 3, 4, the twisted
    # points over F_(q^6) are the kernel count's, and all N_sigma of them
    # at order 3, the fixed rational points at any other order; order 3
    # comes on the diagonal and F_q^6 paths at q = 2 and the wild one at 3
    seen, classes = set(), 0
    for q in (2, 3, 4):
        tw = towers[q]
        for i, c in enumerate(_cyclic_walk(tw, _pgu(tw))):
            if c.rep != i:
                continue
            classes += 1
            sigma = c.gens[0]
            tc = _twisted_count(tw, sigma, c.order, c.eig, c.fixed)
            assert tc.n6 == kernel_twisted_fix_count(tw, sigma) == (
                tc.n if c.order == 3 else len(c.fixed)), (q, c.order)
            seen.add((q, tc.path, c.order))
    assert classes == 23
    assert seen == {
        (2, "F_q^6", 3), (2, "diagonal", 3), (2, "wild", 2), (2, "wild", 4),
        (2, "wild", 6), (3, "F_q^6", 7), (3, "diagonal", 2),
        (3, "diagonal", 4), (3, "diagonal", 8), (3, "wild", 3),
        (3, "wild", 6), (3, "wild", 12), (4, "F_q^6", 13),
        (4, "diagonal", 3), (4, "diagonal", 5), (4, "diagonal", 15),
        (4, "wild", 2), (4, "wild", 4), (4, "wild", 10)}


def _report_key(rep):
    rows = sorted((r.size, r.degree, r.e, r.f, r.d, r.i_values)
                  for r in rep.orbits)
    return (rep.genus, rep.deg_diff, rep.n_rational, rep.f3_orbits,
            rep.n_rational_deg13, rep.maximal, rows)


def test_genus_grows_down_to_cyclic_subgroups(towers):
    # X/G is covered by X/H for H <= G, so g(X/G) <= g(X/H); checked for
    # every cyclic H = <sigma> of the first ten 9c groups at each q
    pairs = 0
    for q in (4, 5, 7, 8):
        tw = towers[q]
        rng = random.Random(12345 + q)
        for _ in range(10):
            grp = random_group(tw, rng)
            g = genus_of_quotient(tw, grp, with_count=False).genus
            seen = set()
            for s in grp.elements:
                if s.is_identity():
                    continue
                sub = close_group(tw, [s])
                key = frozenset(e.m for e in sub.elements)
                if key in seen:
                    continue
                seen.add(key)
                assert g <= genus_of_quotient(tw, sub, with_count=False).genus
                pairs += 1
    assert pairs > 100


# no shrinking: a failing example is a sweep over the whole grid, and
# shrinking reruns such sweeps, many of them, before reporting the failure
@settings(max_examples=10, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(rng=st.randoms(use_true_random=False))
def test_conjugation_leaves_reports_unchanged(towers, rng):
    # conjugate each grid group at q <= 8 by a product of 1-3 random atoms;
    # the stabilisers of the moved places are conjugate ones
    for q in (2, 4, 5, 7, 8):
        tw = towers[q]
        for spec in _grid_specs(q):
            c = identity(tw)
            for _ in range(rng.randrange(1, 4)):
                c = compose(c, random_atom(tw, rng))
            c_inv = inverse(c)
            gens = parse_spec(tw, spec)
            conj = close_group(tw, [compose(compose(c_inv, g), c) for g in gens])
            assert _report_key(genus_of_quotient(tw, conj)) == _report_key(
                genus_of_quotient(tw, close_group(tw, gens)))


def _pgu(tw):
    """PGU(3, q), generated by omega, eps(a) and one translation."""
    c = tw.solve_additive_raw(1)[0]
    return close_group(tw, [omega(tw), epsilon(tw, tw.a),
                            from_affine(tw, 1, 1, c)],
                       cap=pgu_order(tw.q) + 1)


def _check_against_oracle(tw, grp):
    # the walk per conjugacy class, the orbits from generators and the count
    # per class against a walk per cyclic subgroup, |G| images per orbit and
    # a count per cyclic subgroup
    walk, old = _cyclic_walk(tw, grp), walk_per_subgroup(tw, grp)

    def records(w):
        return {frozenset(f.m for f in c.gens):
                (c.order, sorted(c.fixed, key=lambda p: place_sort_key(tw, p)),
                 c.deg3) for c in w}

    assert records(walk) == records(old)
    for dual in (False, True):
        assert _orbit_rows(tw, grp, walk, dual) == orbit_rows_by_images(
            tw, grp, old, dual)
    assert _rational_count(tw, grp.order, walk) == (
        rational_count_per_subgroup(tw, grp.order, old))
    # the wild records of order > p met, whose places the walk takes from
    # their order-p subgroups
    return sum(1 for c in walk if _wild_above_p(tw, c.order))


@pytest.mark.parametrize("q", [2, 4, 5, 7, 8])
def test_walk_per_class_vs_oracle_on_grid(towers, q):
    for spec in _grid_specs(q):
        _check_against_oracle(towers[q], group_from_spec(towers[q], spec))


@pytest.mark.parametrize("q", [4, 5, 7, 8])
def test_walk_per_class_vs_oracle_on_9c_stream(towers, q):
    tw = towers[q]
    rng = random.Random(12345 + q)
    for _ in range(10):
        _check_against_oracle(tw, random_group(tw, rng))


@pytest.mark.parametrize("q", [2, 3])
def test_walk_per_class_vs_oracle_on_pgu(towers, q):
    grp = _pgu(towers[q])
    assert grp.order == pgu_order(q)
    _check_against_oracle(towers[q], grp)


@pytest.mark.parametrize("q", [8, 16])
def test_walk_per_class_vs_oracle_on_translation_groups(q):
    # 1-3 random translations tau(b, c), as in the wild_cli workload, each
    # group conjugated by a random atom; tau(b, c) has order 4 when b != 0
    tw = build_tower(2, q.bit_length() - 1)
    rng = random.Random(q)
    wild = nonabelian = 0
    for _ in range(10):
        gens = []
        for _ in range(rng.randrange(1, 4)):
            b = rng.randrange(tw.q2.size)
            cs = tw.solve_additive_raw(b)
            gens.append(from_affine(tw, 1, b, cs[rng.randrange(len(cs))]))
        nonabelian += any(compose(g, h).m != compose(h, g).m
                          for g, h in itertools.combinations(gens, 2))
        t = random_atom(tw, rng)
        t_inv = inverse(t)
        grp = close_group(tw, [compose(compose(t_inv, g), t) for g in gens])
        wild += _check_against_oracle(tw, grp)
    assert wild and nonabelian


@pytest.mark.parametrize("q", [3, 5])
def test_walk_per_class_vs_oracle_on_p_inf_stabiliser(towers, q):
    # the stabiliser of P_inf, <eps(a), tau(1, c)> of order q^3 (q^2 - 1):
    # in odd characteristic (x, y) -> (-x, y + c), c^q + c = 0, c != 0, is
    # wild of order 2p, and its p-th power is an involution fixing q + 1
    # rational places, not the one its order-p subgroup fixes
    tw = towers[q]
    c = tw.solve_additive_raw(1)[0]
    order = q ** 3 * (q * q - 1)
    grp = close_group(tw, [epsilon(tw, tw.a), from_affine(tw, 1, 1, c)],
                      cap=order)
    assert grp.order == order
    assert _check_against_oracle(tw, grp)


def _two_conjugation_count(tw, f, a, b, c, x0):
    """The wild count of f = from_affine(a, b, c), a != 1, with its fixed
    point x0 = b / (1 - a) moved to 0 by an explicit second conjugation,
    by T = tau(-x0, c0), c0^q + c0 = x0^(q+1): (c', N), N None for a
    semisimple f. Also checks T f T^-1 against the closed form
    y -> a^(q+1) y + c + (1 - a^(q+1)) c0 - b x0^q."""
    lvl, q = tw.q2, tw.q
    c0 = tw.solve_additive_raw(x0)[0]
    t = from_affine(tw, 1, lvl.neg(x0), c0)
    m = compose(compose(inverse(t), f), t).m  # M_T M_f M_T^-1
    iz = lvl.inv(m[8])
    a_q1, c_new = lvl.mul(iz, m[4]), lvl.mul(iz, m[5])
    assert m[2] == m[3] == 0
    assert c_new == lvl.sub(lvl.add(c, lvl.mul(lvl.sub(1, a_q1), c0)),
                            lvl.mul(b, lvl.frobq(x0)))
    if a_q1 != 1 or c_new == 0:
        return c_new, None
    beta = lvl.div(c_new, lvl.sub(a, 1))
    return c_new, 1 + q * (q + 1 if lvl.pow(beta, q - 1) == a else 0)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_wild_count_closed_form_matches_two_conjugations(towers, q):
    # every a != 1 element of the P_inf stabiliser: the explicit conjugation
    # moving x0 to 0 has the closed form of _wild_counts' docstring, and the
    # count without it agrees with the count with it, or both find f
    # semisimple. No brute-force count reaches this branch in odd
    # characteristic: an element of order 2p at q = 3 needs F_(3^12)
    tw = towers[q]
    lvl = tw.q2
    seen = {"wild": 0, "semisimple": 0}
    for a in range(2, lvl.size):
        for b in range(lvl.size):
            x0 = lvl.div(b, lvl.sub(1, a))
            for c in tw.solve_additive_raw(b):
                f = from_affine(tw, a, b, c)
                c_new, want = _two_conjugation_count(tw, f, a, b, c, x0)
                if lvl.mul(a, lvl.frobq(a)) != 1:
                    assert want is None
                    continue
                assert c_new == lvl.sub(c, lvl.mul(b, lvl.frobq(x0)))
                order = aut_order(f)
                if want is None:
                    seen["semisimple"] += 1
                    with pytest.raises(EngineError, match="is semisimple"):
                        _wild_counts(tw, f, [P_INF], order)
                else:
                    seen["wild"] += 1
                    assert _wild_counts(tw, f, [P_INF], order) == want
    assert min(seen.values()) > 0


def _order_p_elements(tw, rng, count):
    """count elements of order p: tau(b, c) with b = 0 (elations) and with
    b != 0, at p = 2 squared down to order 2, each conjugated by a random
    word in omega and affine maps."""
    lvl, out = tw.q2, []
    for k in range(count):
        b = 0 if k % 2 else rng.randrange(1, lvl.size)
        cs = [c for c in tw.solve_additive_raw(b) if b or c]
        s = from_affine(tw, 1, b, rng.choice(cs))
        s = aut_pow(s, aut_order(s) // tw.p)
        for _ in range(rng.randrange(4)):
            b = rng.randrange(lvl.size)
            t = from_affine(tw, rng.randrange(1, lvl.size), b,
                            rng.choice(tw.solve_additive_raw(b)))
            if rng.randrange(2):
                t = compose(omega(tw), t)
            s = compose(compose(inverse(t), s), t)
        out.append(s)
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_wild_place_vs_fixed_rational_places(towers, q):
    # q = 3 and 9 take lambda as a cube root of det M, the others as tr M / 3
    tw = towers[q]
    for s in _order_p_elements(tw, random.Random(q), 60):
        assert aut_order(s) == tw.p
        assert [_wild_place(tw, s.m)] == fixed_rational_places(tw, s)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_wild_place_rejects_an_element_of_order_prime_to_p(towers, q):
    tw = towers[q]
    for s in (omega(tw), epsilon(tw, tw.a)):
        with pytest.raises(EngineError):
            _wild_place(tw, s.m)


def _translation_groups(tw, rng):
    """Ten groups of 1-3 random translations tau(b, c), each conjugated by a
    torus element eps(a^k), as in the wild_cli benchmark stream."""
    out = []
    for _ in range(10):
        gens = []
        for _ in range(rng.randrange(1, 4)):
            b = rng.randrange(tw.q2.size)
            gens.append(from_affine(tw, 1, b,
                                    rng.choice(tw.solve_additive_raw(b))))
        t = epsilon(tw, tw.a_pow(rng.randrange(tw.q * tw.q - 1)))
        t_inv = inverse(t)
        out.append(close_group(tw, [compose(compose(t_inv, g), t)
                                    for g in gens]))
    return out


def _check_order_p_records(tw, grp, monkeypatch):
    """Walk grp counting the calls of _wild_place: every order-p record's
    place is _wild_place of its generator, and the walk searches once per
    distinct place among its order-p representatives. Returns (calls,
    representatives)."""
    real, calls = engine._wild_place, []
    monkeypatch.setattr(engine, "_wild_place",
                        lambda tw, m: calls.append(m) or real(tw, m))
    walk = _cyclic_walk(tw, grp)
    monkeypatch.setattr(engine, "_wild_place", real)
    wild = [c for c in walk if c.order == tw.p]
    for c in wild:
        assert c.fixed == [real(tw, c.gens[0].m)]
    reps = [c for i, c in enumerate(walk) if c.rep == i and c in wild]
    assert len(calls) == len({c.fixed[0] for c in reps})
    return len(calls), len(reps)


@pytest.mark.parametrize("q", [3, 4, 5, 8])
def test_order_p_records_on_moved_translation_groups(towers, q, monkeypatch):
    # 1-3 random translations tau(b, c), moved off P_inf by a word in omega
    # and eps: one _wild_place call per group serves every representative
    tw = towers[q]
    rng = random.Random(30 + q)
    calls = reps = 0
    for _ in range(10):
        gens = []
        for _ in range(rng.randrange(1, 4)):
            b = rng.randrange(tw.q2.size)
            gens.append(from_affine(tw, 1, b,
                                    rng.choice(tw.solve_additive_raw(b))))
        t = omega(tw)
        for _ in range(rng.randrange(1, 4)):
            t = compose(t, rng.choice(
                [omega(tw), epsilon(tw, tw.a_pow(rng.randrange(1, q * q)))]))
        if apply_place(t, P_INF) == P_INF:
            t = compose(t, omega(tw))
        t_inv = inverse(t)
        grp = close_group(tw, [compose(compose(t_inv, g), t) for g in gens])
        assert all(apply_place(g, P_INF) != P_INF for g in grp.gens)
        n, r = _check_order_p_records(tw, grp, monkeypatch)
        assert n == 1
        calls, reps = calls + n, reps + r
    assert calls < reps


@pytest.mark.parametrize("q, calls_reps", [(3, (2, 2)), (4, (1, 1)),
                                           (5, (1, 2))])
def test_order_p_records_on_pgu(towers, q, calls_reps, monkeypatch):
    assert _check_order_p_records(towers[q], _pgu(towers[q]),
                                  monkeypatch) == calls_reps


def _sylow_p_subgroup(tw):
    """The translations tau(b, c), of order q^3, from b over the F_p-basis
    1, a, ..., a^(2e - 1) of F_{q^2}, moved by omega to fix (0 : 0 : 1)."""
    w = omega(tw)
    gens = [compose(compose(w, from_affine(
        tw, 1, b, tw.solve_additive_raw(b)[0])), w)
        for b in map(tw.a_pow, range(tw.q2.deg))]
    return close_group(tw, gens, cap=tw.q ** 3)


@pytest.mark.parametrize("q", [8, 9, 16])
def test_p_groups_need_no_eigen_analysis(q, monkeypatch):
    # every cyclic subgroup of a p-group is wild: of order p it takes its
    # place from its nilpotent part, of order p m from its order-p subgroup
    p, e = {8: (2, 3), 9: (3, 2), 16: (2, 4)}[q]
    tw = build_tower(p, e)
    groups = (_translation_groups(tw, random.Random(q)) if p == 2
              else [_sylow_p_subgroup(tw)])
    for grp in groups:
        _check_against_oracle(tw, grp)

    def no_eigen(*_args):
        raise AssertionError("eigen analysis on a p-group")

    monkeypatch.setattr("hermquot.engine._eigen_data", no_eigen)
    for grp in groups:
        rep = genus_of_quotient(tw, grp)
        assert rep.maximal
    # the quotient by a Sylow p-subgroup is rational
    assert p == 2 or (grp.order, rep.genus) == (q ** 3, 0)


def _analyses_per_chain(tw, walk):
    """The matrices whose eigen analysis the walk needs: the tame part
    t = s^(p^a) of each chain of powers that holds a tame class
    representative r = t^e (p^a the p-part of ord s), and r itself when t
    is not diagonalisable over F_(q^2) (Singer-type). The records come in
    chains: <s>, then the subgroups of <s> met first there, each with a
    power of s first; the next chain's s is not a power of s."""
    out, powers = set(), {}
    for i, c in enumerate(walk):
        r = c.gens[0]
        if r.m not in powers:
            pa = 1
            while c.order % (pa * tw.p) == 0:
                pa *= tw.p
            tame = aut_pow(r, pa)
            split = sum(len(b) for _l, _m, b in _eigen_data(tw, tame)[0]) == 3
            powers = {aut_pow(r, k).m for k in range(1, c.order + 1)}
        if c.rep == i and c.order % tw.p:
            out.add(tame.m)
            if not split:
                out.add(r.m)
    return out


@pytest.mark.parametrize("q", [4, 5, 7, 8])
def test_one_eigen_analysis_per_chain(towers, q, monkeypatch):
    # the tame classes of a chain of powers take their eigenspaces from one
    # analysis of its tame part: eps(a) at q = 7 is cyclic of order 48 with
    # nine tame classes and one analysis, and on the 9c stream each element
    # analysed is one of _analyses_per_chain, analysed once
    real, seen = engine._eigen_data, []

    def counting(tw, aut):
        seen.append(aut.m)
        return real(tw, aut)

    monkeypatch.setattr(engine, "_eigen_data", counting)
    tw = towers[q]
    if q == 7:
        walk = _cyclic_walk(tw, group_from_spec(tw, "eps(a)"))
        assert (len(walk), len(seen)) == (9, 1)
    rng = random.Random(12345 + q)
    reps = analysed = 0
    for _ in range(60):
        grp = random_group(tw, rng)
        seen.clear()
        walk = _cyclic_walk(tw, grp)
        assert len(set(seen)) == len(seen)
        assert set(seen) == _analyses_per_chain(tw, walk)
        reps += sum(1 for i, c in enumerate(walk)
                    if c.rep == i and c.order % tw.p)
        analysed += len(seen)
    assert analysed < reps


@pytest.mark.parametrize("q", [4, 5, 7, 8])
def test_power_takes_its_eigenspaces_from_its_chain(towers, q, monkeypatch):
    # a tame class t^e takes its eigenspaces from its chain's tame part t
    # with no null space solved: the walk solves one over F_(q^2) per root of
    # each charpoly that _eigen_data analyses, three for eps(a) at q = 7 with
    # its nine tame classes, and fewer than its representatives have
    # eigenspaces on the 9c stream
    real_kernel, real_eigen = engine.kernel, engine._eigen_data
    solved, roots = [], []

    def counting_kernel(lvl, rows):
        solved.append(lvl.name)
        return real_kernel(lvl, rows)

    def counting_eigen(tw, aut):
        out = real_eigen(tw, aut)
        roots.append(len(out[0]))
        return out

    monkeypatch.setattr(engine, "kernel", counting_kernel)
    monkeypatch.setattr(engine, "_eigen_data", counting_eigen)
    tw = towers[q]
    if q == 7:
        walk = _cyclic_walk(tw, group_from_spec(tw, "eps(a)"))
        assert (len(walk), solved) == (9, ["q2"] * 3)
    rng = random.Random(12345 + q)
    spaces = null_spaces = 0
    for _ in range(60):
        grp = random_group(tw, rng)
        solved.clear()
        roots.clear()
        walk = _cyclic_walk(tw, grp)
        assert solved.count("q2") == sum(roots)
        null_spaces += sum(roots)
        spaces += sum(len(c.eig) for i, c in enumerate(walk)
                      if c.rep == i and c.eig)
    assert null_spaces < spaces


def test_power_eigen_data_rejects_equal_eigenvalues(tw7):
    # the identity keeps every eigenvector of eps(a) but gives its three
    # eigenspaces one eigenvalue, so it is no power of eps(a) with e = 1
    eig = _eigen_data(tw7, epsilon(tw7, tw7.a))[0]
    with pytest.raises(EngineError, match="an element of order 48 does not "
                       "keep the eigenvectors"):
        engine._power_eigen_data(tw7, eig, (1, 0, 0, 0, 1, 0, 0, 0, 1), 48, 1)


@pytest.mark.parametrize("q", [4, 5, 7, 8])
def test_walk_searches_each_eigenspace_once(towers, q, monkeypatch):
    # one span search per distinct eigenspace among a walk's class
    # representatives, none carried over to the next walk, and the places
    # found are those of a search per element with no shared dict
    real, searched = engine._span_places, []

    def counting(tw, basis):
        searched.append(tuple(map(tuple, basis)))
        return real(tw, basis)

    monkeypatch.setattr(engine, "_span_places", counting)
    tw = towers[q]
    if q == 7:
        _cyclic_walk(tw, group_from_spec(tw, "eps(a)"))
        # the three lines of eps(a) and one plane: only the eigenvalues
        # a^(q+1) and 1 have equal powers short of the identity
        assert len(searched) == len(set(searched)) == 4
    rng = random.Random(12345 + q)
    spaces = searches = 0
    for _ in range(60):
        grp = random_group(tw, rng)
        for _walk in range(2):
            searched.clear()
            walk = _cyclic_walk(tw, grp)
            reps = [c for i, c in enumerate(walk) if c.rep == i and c.eig]
            distinct = {tuple(map(tuple, b)) for c in reps
                        for _l, _m, b in c.eig}
            assert sorted(searched) == sorted(distinct)
        spaces += sum(len(c.eig) for c in reps)
        searches += len(searched)
        for c in reps:
            assert c.fixed == fixed_rational_places(tw, c.gens[0])
    assert searches < spaces


@pytest.mark.parametrize("q", [4, 5, 7, 8, 16])
def test_cyclic_walk_makes_no_matrix_product(towers, q, monkeypatch):
    # translation groups at q = 8, 16 and the 9c stream at q <= 8: the walk
    # follows the group's tables, and the only product left is the
    # nilpotent square of _wild_place, once per distinct place among the
    # order-p class representatives
    tw = towers[q] if q in towers else build_tower(2, 4)
    groups = _translation_groups(tw, random.Random(q)) if q in (8, 16) else []
    if q != 16:
        rng = random.Random(12345 + q)
        groups += [random_group(tw, rng) for _ in range(200)]

    def no_product(*_args):
        raise AssertionError("a matrix product in the walk")

    def square(lvl, a, b):
        squares.append(a is b)
        return real(lvl, a, b)

    real, squares = engine.mat_mul3, []
    monkeypatch.setattr("hermquot.autgrp.proj_mul", no_product)
    monkeypatch.setattr(engine, "mat_mul3", square)
    for grp in groups:
        squares.clear()
        walk = _cyclic_walk(tw, grp)
        assert squares == [True] * len(
            {c.fixed[0] for i, c in enumerate(walk)
             if c.rep == i and c.order == tw.p})


def test_orbit_guard_reads_the_walk_at_the_last_member(tw3):
    # the walk lists the inertia group at every member of an orbit, so a
    # record that has lost the orbit's last place breaks the guard there
    grp = group_from_spec(tw3, "eps(a), omega")
    walk = _cyclic_walk(tw3, grp)
    row = next(r for r in _orbit_rows(tw3, grp, walk, False)
               if r.size > 1 and r.degree == 1)
    last = max(engine._orbit(grp, row.rep),
               key=lambda p: place_sort_key(tw3, p))
    i = next(i for i, c in enumerate(walk) if last in c.fixed)
    walk[i] = walk[i]._replace(fixed=[pl for pl in walk[i].fixed
                                      if pl != last])
    with pytest.raises(EngineError, match="residue degree 2"):
        _orbit_rows(tw3, grp, walk, False)


def test_pgu33_quotient_rows(tw3):
    # X/PGU(3, q) is rational: P_inf's orbit is every rational place, and
    # one orbit of degree-3 places with a cyclic inertia group of order
    # q^2 - q + 1 ramifies too
    rep = genus_of_quotient(tw3, _pgu(tw3))
    assert (rep.genus, rep.deg_diff) == (0, 12100)
    assert rep.n_rational == 10 and rep.maximal is True
    assert [(r.rep.kind, r.size, r.e, r.d) for r in rep.orbits] == [
        ("infinity", 28, 216, 247), ("degree3", 288, 7, 6)]


# Faults injected into the engine, each wrapping a real function, with the
# q and spec that reach it and the message of the invariant check that
# catches it: the subcount over F_(q^6) off by one breaks Burnside's
# divisibility, an element of order prime to p with eigenspaces of total
# dimension < 3 is on no count path, an inertia group that fixes nothing
# breaks the orbit guard at P_inf's orbit of two places, a 2-dimensional
# eigenspace with a third vector is too big, and a Singer-type element of
# order 3 at q = 2 whose charpoly has no root over F_(q^6), whose eigenspace
# there has two vectors, or whose eigenvector is rational breaks the
# degree-3 place search, as does a q^2-power Frobenius off by one where
# poly_roots takes a cubic's other roots from its first; the same missing
# root breaks the twisted count of a Singer-type element of order 7 at
# q = 3, whose degree-3 place search has passed; a stabiliser one
# too large for its orbit breaks orbit-stabiliser at a fixed place of
# omega, and a Hilbert sum off by one breaks its agreement with the
# i-values. An eigenvector of eps(a) at q = 3
# moved off its line breaks a power's check of its chain's eigenvectors.
# The wild count at q = 3 of omega tau(0, a^2) omega, which fixes P(0, 0),
# given P_inf's frame (none) there conjugates it to a matrix that does not
# fix P_inf; at q = 2, the square of the wild eps(a) tau(0, 1) of order 6,
# semisimple of order 3, counted in its place leaves no c after the fixed
# point of x -> a x + b moves to 0. omega's N_sigma at q = 3 off by q, or
# the engine's i-value off by one at the wild place P(0, 0) of
# omega tau(0, a^2) omega, breaks the class's Lefschetz identity
# N_sigma = (q + 1)^2 - q D. The walk's reuse of a place found before, if
# its probe (the one generator expression in the engine that calls
# apply_place) accepts a place sigma does not fix, gives the second class
# of elations of SL(2, 9) = <tau(0, c), omega tau(0, c) omega> the place of
# the first, and P_inf an inertia group too large for its stabiliser. A
# name with a module prefix is looked up there, any other in the engine.
FAULTS = {
    "burnside": ("_twisted_count", 3, "omega",
                 "twisted points over F_q^6 sum to 33, not a multiple of "
                 "|G| = 2",
                 "lambda real: lambda *a: real(*a)._replace(n6=real(*a).n6 + 1)"),
    "no-path": ("_twisted_count", 3, "omega",
                "an element of order 2 is on no count path",
                "lambda real: lambda tw, s, n, eig, fixed: "
                "real(tw, s, n, eig[:1], fixed)"),
    "orbit-guard": ("fixes_pointwise", 3, "eps(a), omega",
                    "a conjugated inertia group does not fix its place",
                    "lambda real: lambda *a: False"),
    "eigenspace": ("_eigenspace", 3, "omega",
                   "an element of order 2 has an eigenspace of dimension 3",
                   "lambda real: lambda *a: (lambda b: b + b[1:])(real(*a))"),
    "cubic-root": ("poly_roots", 2, SINGER3_Q2,
                   "the charpoly of an element of order 3 has no root in "
                   "F_q^6",
                   "lambda real: lambda *a: []"),
    "twisted-cubic-root": ("poly_roots", 3, SINGER7_Q3,
                           "the charpoly of an element of order 7 has no "
                           "root in F_q^6",
                           "lambda real: lambda *a: [] if "
                           "'twisted_fix_count' in [f.name for f in "
                           "__import__('traceback').extract_stack()] "
                           "else real(*a)"),
    "cubic-eigenspace": ("_eigenspace", 2, SINGER3_Q2,
                         "an element of order 3 has an eigenspace of "
                         "dimension 2 over F_q^6",
                         "lambda real: lambda *a: real(*a) * 2"),
    "cubic-rational": ("point_is_rational", 2, SINGER3_Q2,
                       "an element of order 3 fixes a rational point "
                       "through an irreducible cubic",
                       "lambda real: lambda *a: True"),
    "cubic-conjugate": ("gf.ExtLevel.frobq2", 2, SINGER3_Q2,
                        "the conjugate 9 of the root 4 of a cubic over "
                        "F_q^2 is not a root",
                        "lambda real: lambda self, x: real(self, x) ^ "
                        "(sys._getframe(1).f_code.co_name == 'poly_roots')"),
    "power-eigenvector": ("_eigen_data", 3, "eps(a)",
                          "an element of order 2 does not keep the "
                          "eigenvectors of the element it is a power of",
                          "lambda real: lambda *a: (lambda eig, cp: "
                          "(eig[:-1] + [(*eig[-1][:2], [[1, 1, 1]])], cp))"
                          "(*real(*a))"),
    "frame-fixes-p-inf": ("to_infinity", 3, "omega*tau(0,a^2)*omega",
                          "conjugate does not fix P_inf",
                          "lambda real: lambda *a: None"),
    "wild-semisimple": ("_wild_counts", 2, "eps(a)*tau(0,1)",
                        "an element of order 6 is semisimple",
                        "lambda real: lambda tw, s, fixed, n: real(tw, "
                        "engine.Aut(tw, engine.mat_mul3(tw.q2, s.m, s.m)), "
                        "fixed, n)"),
    "lefschetz-count": ("_twisted_count", 3, "omega",
                        "an element of order 2 has N = 7 on the diagonal "
                        "path, not (q + 1)^2 - q D = 4 with D = 4",
                        "lambda real: lambda *a: real(*a)._replace("
                        "n=real(*a).n + 3)"),
    "lefschetz-i-value": ("i_value", 3, "omega*tau(0,a^2)*omega",
                          "an element of order 3 has N = 1 on the wild "
                          "path, not (q + 1)^2 - q D = -2 with D = 6",
                          "lambda real: lambda *a: real(*a) + 1"),
    "wild-place-reuse": ("apply_place", 9,
                         "tau(0,a^45), omega*tau(0,a^45)*omega",
                         "the inertia group at P_inf has order 76, not a "
                         "divisor of its stabiliser's order 72",
                         "lambda real: lambda f, pl: pl if sys._getframe(1)"
                         ".f_code.co_name == '<genexpr>' else real(f, pl)"),
    "orbit-stabiliser": ("inertia_data", 3, "omega",
                         "the inertia group at P(4,1) has order 2, not a "
                         "divisor of its stabiliser's order 3",
                         "lambda real: lambda tw, pl, inertia, setwise, *a: "
                         "real(tw, pl, inertia, setwise + 1, *a)"),
    "hilbert-sum": ("localval._hilbert_sum", 3, "omega",
                    "the Hilbert sum at P(4,1) is 2, not the sum 1 of the "
                    "i-values",
                    "lambda real: lambda *a: (lambda d, g1: (d + 1, g1))"
                    "(*real(*a))"),
}


def _assert_exits_3_also_under_O(capsys, monkeypatch, argv, target, message,
                                 wrap):
    # the CLI on argv with hermquot.<target> wrapped by the source text wrap
    # prints the one line "error: <message>" and exits 3, in-process and in
    # a python -O subprocess, where an assert would vanish
    module, _, attr = target.partition(".")
    owner = importlib.import_module(f"hermquot.{module}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    monkeypatch.setattr(owner, name, eval(wrap)(getattr(owner, name)))
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    script = (f"import sys\nfrom hermquot import cli, {module}\n"
              f"{target} = ({wrap})({target})\n"
              f"sys.exit(cli.main({argv!r}))")
    src = os.path.dirname(os.path.dirname(hermquot.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stderr) == (3, f"error: {message}\n")


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_broken_invariant_exits_3_also_under_O(capsys, monkeypatch, fault):
    name, q, spec, message, wrap = FAULTS[fault]
    target = name if "." in name else f"engine.{name}"
    _assert_exits_3_also_under_O(capsys, monkeypatch,
                                 ["genus", "--q", str(q), "--spec", spec],
                                 target, message, wrap)


# Faults injected below the engine, each with the CLI call that reaches it,
# the target it wraps, and the message of the check that catches it: a
# fixed point whose Z is dropped is at infinity but not P_inf, a missing
# solution of y^q + y = x^(q+1) per x breaks the rational place count, one
# degree-3 place per point triples their count, and a negated formula gives
# a negative genus.
CURVE_FAULTS = {
    "point-at-infinity": (
        ["genus", "--q", "3", "--case", "t521", "--m", "2"],
        "engine.place_of_point",
        "the point (0:0:0) at infinity is not P_inf = (0:1:0)",
        "lambda real: lambda tw, pt: real(tw, (*pt[:2], 0))"),
    "rational-count": (
        ["places", "--q", "2"],
        "gf.FieldTower.solve_additive_raw",
        "the curve has 5 rational places, not q^3 + 1 = 9",
        "lambda real: lambda tw, *a: real(tw, *a)[1:]"),
    "degree3-count": (
        ["places", "--q", "2", "--with-degree3"],
        "curve.degree3_place",
        "the curve has 72 places of degree 3, not (N_6 - N_2) / 3 = 24",
        "lambda real: lambda tw, pt: type(real(tw, pt))('degree3', (pt,))"),
    "negative-genus": (
        ["genus", "--q", "3", "--case", "t521", "--m", "2"],
        "formulas.Fraction", "t521 at q=3, m=2 gives negative genus -1",
        "lambda real: lambda *a: -real(*a)"),
}


@pytest.mark.parametrize("fault", sorted(CURVE_FAULTS))
def test_broken_curve_invariant_exits_3_also_under_O(capsys, monkeypatch,
                                                     fault):
    _assert_exits_3_also_under_O(capsys, monkeypatch, *CURVE_FAULTS[fault])
