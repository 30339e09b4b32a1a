"""Acceptance criteria: the whole formula catalogue against the engine.

Each criterion is one test. The shared grid of quotient reports is computed
once per session since several criteria reuse it.
"""

import random
import time

import pytest

from hermquot.autgrp import (
    aut_order,
    close_group,
    compose,
    epsilon,
    from_affine,
    group_from_spec,
    identity,
    omega,
    parse_spec,
    sigma4,
    sigma5,
)
from hermquot.curve import P_INF, rational_place, rational_places
from hermquot.engine import (
    genus_of_quotient,
    tame_diff_crosscheck,
)
from hermquot.formulas import (
    VSequence,
    case_modulus,
    case_spec,
    expected_genus,
    sigma_order,
)
from hermquot.gf import GFError, build_tower
from hermquot.localval import ramification_data

GRID = {
    "t3": (2, 4, 8),
    "t41m_minus": (4, 8),
    "t41m_plus": (4, 8),
    "ex43": (4,),
    "ex44": (4,),
    "t421": (7, 9, 13, 19),
    "t422": (5, 7, 9, 11, 13),
    "t511": (4, 8),
    "t512": (4, 8),
    "t521": (5, 7, 9),
    "t522": (7, 9, 13),
}


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@pytest.fixture(scope="session")
def grid_towers(towers):
    cache = dict(towers)
    cache[19] = build_tower(19, 1)
    return cache


@pytest.fixture(scope="session")
def grid_reports(grid_towers):
    """(case, q, m) -> GenusReport over the whole acceptance grid."""
    out = {}
    for case, qs in GRID.items():
        for q in qs:
            tw = grid_towers[q]
            for m in divisors(case_modulus(case, q)):
                try:
                    spec = case_spec(case, q, m)
                except GFError:
                    continue  # hypothesis not met at this (q, m)
                grp = group_from_spec(tw, spec)
                rep = genus_of_quotient(tw, grp, expected=expected_genus(case, q, m))
                out[(case, q, m)] = rep
    return out


def test_criterion_1_different_at_each_place(towers):
    t0 = time.time()
    for q in (2, 4, 8):
        tw = towers[q]
        g = group_from_spec(tw, "eps(a), omega")
        fq = [b for b in range(tw.q2.size)
              if tw.q2.frobq(b) == b and b != 0]
        assert len(fq) == q - 1
        for pl in rational_places(tw):
            dat = ramification_data(tw, pl, g)
            if pl == P_INF or (pl.alpha == 0 and pl.beta == 0):
                assert dat.d == q * q - 2
            elif pl.alpha == 0 and pl.beta in fq:
                assert dat.d == 3 * q + 2
            elif pl.alpha == 0:
                # remaining fiber points over x = 0 (none in char 2: the
                # fiber is exactly F_q there)
                assert dat.d in (0, 3 * q + 2)
            else:
                assert dat.d == 0
        rep = genus_of_quotient(tw, g, with_count=False)
        assert rep.genus == 0
    assert time.time() - t0 < 5.0


def test_criterion_2_diagonal_family_grid(grid_reports):
    t0 = time.time()
    for q in (2, 4, 8):
        for m in divisors(q * q - 1):
            rep = grid_reports[("t3", q, m)]
            assert rep.matches, ("t3", q, m, rep.genus, rep.expected)
    assert grid_reports[("t3", 8, 1)].genus == 12
    assert grid_reports[("t3", 8, 3)].genus == 3
    assert grid_reports[("t3", 8, 63)].genus == 0
    assert time.time() - t0 < 30.0


def test_criterion_3_even_char_dihedral_families(grid_reports):
    for q in (4, 8):
        for m in divisors(q - 1):
            rep = grid_reports[("t41m_minus", q, m)]
            assert rep.matches
            assert rep.genus == (q * q - q - m * q) // (4 * m)
        for m in divisors(q + 1):
            rep = grid_reports[("t41m_plus", q, m)]
            assert rep.matches
            assert rep.genus == (q * q - q - m * q + 2 * m - 2) // (4 * m)
    assert grid_reports[("t41m_plus", 8, 3)].genus == 3


def test_criterion_4_exceptional_examples(grid_reports):
    assert grid_reports[("ex43", 4, 1)].genus == 0
    assert grid_reports[("ex44", 4, 1)].genus == 0
    # larger field, budget-gated: no degree-3 enumeration is needed because
    # the group orders are prime to q^2 - q + 1
    tw16 = build_tower(2, 4)
    for case, expect in (("ex43", 16), ("ex44", 8)):
        grp = group_from_spec(tw16, case_spec(case, 16, 1))
        rep = genus_of_quotient(tw16, grp, with_count=False)
        assert rep.genus == expect


def test_criterion_5_sigma4_odd_char_family(grid_reports):
    for q in (7, 9, 13, 19):
        for m in divisors(q + 1):
            rep = grid_reports[("t421", q, m)]
            assert rep.matches, ("t421", q, m)
    assert grid_reports[("t421", 7, 8)].genus == 3
    assert grid_reports[("t421", 7, 1)].genus == 21
    # both branches of the 4 | m split appear at q = 19
    assert grid_reports[("t421", 19, 4)].genus == 36
    assert grid_reports[("t421", 19, 20)].genus == 8


def test_criterion_6_sigma4_double_torus_family(grid_reports):
    for q in (5, 7, 9, 11, 13):
        for m in divisors(2 * (q - 1)):
            rep = grid_reports[("t422", q, m)]
            assert rep.matches, ("t422", q, m)
    assert grid_reports[("t422", 7, 4)].genus == 3
    assert grid_reports[("t422", 7, 3)].genus == 7
    assert grid_reports[("t422", 7, 2)].genus == 9


def test_criterion_7_sigma5_families(grid_reports):
    for q in (4, 8):
        for m in divisors(q * q - 1):
            rep = grid_reports[("t511", q, m)]
            assert rep.matches
            d = (q * q - 1) // m  # ord of delta-power pattern enters via d
            assert rep.genus == expected_genus("t511", q, m)
        for m in divisors(q + 1):
            assert grid_reports[("t512", q, m)].matches
            assert grid_reports[("t512", q, m)].genus == (q - 1) * (q + 1 - m) // (2 * m)
    for q in (5, 7, 9):
        for m in divisors(2 * (q + 1)):
            assert grid_reports[("t521", q, m)].matches
    for q in (7, 9, 13):
        for m in divisors(case_modulus("t522", q)):
            key = ("t522", q, m)
            if key in grid_reports:
                assert grid_reports[key].matches
    assert grid_reports[("t522", 9, 5)].genus == 4


def test_criterion_8_order_predicates(grid_towers):
    for case, qs in GRID.items():
        if case == "t3":
            continue  # diagonal family: generator order checked via eps
        for q in qs:
            tw = grid_towers[q]
            for m in divisors(case_modulus(case, q)):
                try:
                    spec = case_spec(case, q, m)
                except GFError:
                    continue
                gens = parse_spec(tw, spec)
                sig = gens[-1]
                if case in ("t41m_minus", "t41m_plus") and m == 1:
                    continue  # delta = 1 degenerates to omega
                if case in ("t41m_minus", "t41m_plus", "ex43", "ex44"):
                    assert aut_order(sig) == sigma_order(case, q, m)
                else:
                    # single-generator families: the spec takes a power of
                    # sigma, so check the base generator at full modulus
                    assert aut_order(sig) == m
    for q in (4, 8):
        tw = grid_towers[q]
        n = q * q - 1
        assert aut_order(parse_spec(tw, case_spec("t511", q, n))[0]) == n
    tw9 = grid_towers[9]
    assert aut_order(parse_spec(tw9, case_spec("t522", 9, 5))[0]) == 5


def test_criterion_9a_three_way_v_agreement(grid_towers):
    for q in (2, 4, 5, 7, 8, 9, 11, 13):
        tw = grid_towers[q]
        for kind, delta in (("sigma4", tw.a_pow(q - 1)), ("sigma5", tw.a)):
            vs = VSequence(tw, delta, kind)
            rec = vs.recurrence(20)
            for i in range(21):
                assert rec[i] == vs.closed_form(i)
                if kind == "sigma4":
                    assert rec[i] == vs.binomial(i)


def test_criterion_9b_dual_different_agreement(grid_towers):
    # dual_check=True makes every wild ramification computation verify the
    # jump-filtration sum against the direct i-value sum; run it over a
    # sample of wildly ramified quotients
    for q, spec in ((4, "eps(a), omega"), (8, "tau(0, a^9)"),
                    (5, case_spec("t422", 5, 8)), (4, case_spec("t41m_plus", 4, 5))):
        tw = grid_towers[q]
        grp = group_from_spec(tw, spec)
        rep = genus_of_quotient(tw, grp, with_count=False, dual_check=True)
        assert rep.genus >= 0


def random_atom(tw, rng):
    q = tw.q
    k = rng.randrange(q * q - 1)
    choice = rng.randrange(5)
    if choice == 0:
        return omega(tw)
    if choice == 1:
        return epsilon(tw, tw.a_pow(k) if k else 1)
    if choice == 2:
        b = rng.randrange(tw.q2.size)
        cs = tw.solve_additive_raw(b)
        return from_affine(tw, 1, b, cs[rng.randrange(len(cs))])
    if choice == 3:
        try:
            return sigma4(tw, tw.a_pow(k) if k else 1)
        except GFError:
            return omega(tw)
    try:
        return sigma5(tw, tw.a_pow(k) if k else 1)
    except GFError:
        return omega(tw)


def random_group(tw, rng):
    while True:
        g = identity(tw)
        for _ in range(rng.randrange(1, 4)):
            g = compose(g, random_atom(tw, rng))
        gens = [g]
        if rng.random() < 0.3:
            gens.append(omega(tw))
        try:
            return close_group(tw, gens, cap=600)
        except GFError:
            continue  # closure too big for this suite; redraw


def test_criterion_9c_hurwitz_on_random_subgroups(towers):
    # genus_of_quotient raises EngineError on non-integral or negative
    # genus, so surviving the sweep is the assertion
    t0 = time.time()
    for q in (4, 5, 7, 8):
        tw = towers[q]
        rng = random.Random(12345 + q)
        for _ in range(200):
            grp = random_group(tw, rng)
            rep = genus_of_quotient(tw, grp, with_count=False, dual_check=False)
            assert 0 <= rep.genus <= (q * q - q) // 2
    assert time.time() - t0 < 300.0


def test_criterion_9d_quotient_maximality(grid_reports):
    # every quotient in the formula grid is asserted to have exactly
    # q^2 + 1 + 2gq rational places as counted from orbits of places of
    # degree 1 and 3
    bad = [(k, rep.n_rational, rep.q * rep.q + 1 + 2 * rep.genus * rep.q)
           for k, rep in grid_reports.items() if not rep.maximal]
    assert not bad, f"{len(bad)} quotients short of the maximal count: {bad[:5]}"


def test_criterion_9e_tame_crosscheck_regime(grid_reports, grid_towers):
    hit = 0
    for (case, q, m), rep in grid_reports.items():
        tw = grid_towers[q]
        grp = group_from_spec(tw, case_spec(case, q, m))
        from math import gcd

        if grp.order % tw.p == 0 or gcd(grp.order, q * q - q + 1) != 1:
            continue
        assert tame_diff_crosscheck(tw, grp) == rep.deg_diff, (case, q, m)
        hit += 1
    assert hit > 10


def test_criterion_10_hypothesis_skip_ledger(capsys):
    from hermquot.cli import main

    code = main(["table", "--q-list", "5", "--format", "csv"])
    out = capsys.readouterr().out
    import csv
    import io

    rows = list(csv.DictReader(io.StringIO(out)))
    assert code == 0
    skipped = [r for r in rows if r["status"] == "skipped(hypothesis)"]
    assert {r["case"] for r in skipped} >= {"t421"}
    for r in skipped:
        if r["case"] == "t421":
            # the group exists even though 3 | q + 1 breaks the formula's
            # hypotheses, so an empirical genus is still reported
            assert r["computed"] != ""
    assert all(r["status"] != "FAILED" for r in rows)
