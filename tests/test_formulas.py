"""Closed-form genus formulas, v-sequences, and hypothesis gating."""

import pytest

from hermquot.autgrp import aut_order, group_from_spec, parse_spec
from hermquot.formulas import (
    CASES,
    FAMILIES,
    HypothesisNotMet,
    VSequence,
    case_modulus,
    case_spec,
    expected_genus,
    sigma_order,
    v_vanishing_even_char,
    v_vanishing_index,
)
from hermquot.gf import factorize

GRID = {
    "t3": (2, 4, 8),
    "t41m_minus": (4, 8),
    "t41m_plus": (4, 8),
    "ex43": (4,),
    "ex44": (4,),
    "t421": (7, 9, 13),
    "t422": (5, 7, 9, 11, 13),
    "t511": (4, 8),
    "t512": (4, 8),
    "t521": (5, 7, 9),
    "t522": (7, 9, 13),
}


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_case_list_covers_grid():
    assert set(GRID) == set(CASES)


def test_expected_genus_integral_over_grid():
    for case, qs in GRID.items():
        for q in qs:
            for m in divisors(case_modulus(case, q)):
                g = expected_genus(case, q, m)
                assert isinstance(g, int)
                assert 0 <= g <= (q * q - q) // 2


def test_expected_genus_spot_values():
    assert expected_genus("t3", 8, 1) == 12
    assert expected_genus("t3", 8, 3) == 3
    assert expected_genus("t3", 8, 63) == 0
    assert expected_genus("t41m_plus", 8, 3) == 3
    assert expected_genus("t421", 7, 8) == 3
    assert expected_genus("t421", 7, 1) == 21
    assert expected_genus("t422", 7, 4) == 3
    assert expected_genus("t422", 7, 3) == 7
    assert expected_genus("t422", 7, 2) == 9
    assert expected_genus("t522", 9, 5) == 4
    assert expected_genus("ex43", 4) == 0
    assert expected_genus("ex44", 4) == 0


def test_m_equal_one_recovers_curve_genus():
    # the trivial quotient (m giving the identity subgroup) keeps the full
    # genus in the cyclic families
    assert expected_genus("t421", 7, 1) == (49 - 7) // 2
    assert expected_genus("t422", 5, 1) == (25 - 5) // 2


def test_sigma_order_matches_matrix_order(towers):
    # the distinguished generator at full modulus has the predicted order,
    # and the power used at parameter m has order m
    for case in ("t421", "t422", "t511", "t512", "t521", "t522"):
        for q in GRID[case]:
            tw = towers[q]
            n = case_modulus(case, q)
            try:
                base = parse_spec(tw, case_spec(case, q, n))[0]
            except HypothesisNotMet:
                continue
            assert aut_order(base) == sigma_order(case, q, n) == n
            for m in divisors(n):
                gens = parse_spec(tw, case_spec(case, q, m, check=False))
                assert aut_order(gens[0]) == m


def test_sigma_order_even_char_families(towers):
    for case in ("t41m_minus", "t41m_plus"):
        for q in GRID[case]:
            tw = towers[q]
            for m in divisors(case_modulus(case, q)):
                if m == 1:
                    continue  # delta = 1 degenerates sigma4 to omega
                gens = parse_spec(tw, case_spec(case, q, m))
                assert aut_order(gens[-1]) == sigma_order(case, q, m) == m
    for case, ordd in (("ex43", 3), ("ex44", 5)):
        gens = parse_spec(towers[4], case_spec(case, 4, 1))
        assert aut_order(gens[-1]) == sigma_order(case, 4, 1) == ordd


def test_hypothesis_gating():
    with pytest.raises(HypothesisNotMet):
        case_spec("t421", 5, 1)  # 3 | q + 1
    with pytest.raises(HypothesisNotMet):
        case_spec("t522", 17, 1)  # q = 5 mod 12
    with pytest.raises(HypothesisNotMet):
        case_spec("ex43", 8, 1)  # needs 3 | q - 1
    with pytest.raises(HypothesisNotMet):
        case_spec("t421", 7, 3)  # m must divide q + 1
    with pytest.raises(HypothesisNotMet):
        expected_genus("t511", 2, 1)  # delta = a^3 = 1 at q = 2
    # check=False still produces a parseable spec for the engine
    spec = case_spec("t421", 5, 2, check=False)
    assert isinstance(spec, str) and spec


def test_case_spec_groups_have_expected_order(tw7):
    g = group_from_spec(tw7, case_spec("t421", 7, 8))
    assert g.order == 8
    g2 = group_from_spec(tw7, case_spec("t422", 7, 4))
    assert g2.order == 4


def test_vsequence_three_way_agreement(towers):
    for q in (4, 5, 7, 8):
        tw = towers[q]
        for kind, delta in (("sigma4", tw.a_pow(q - 1)), ("sigma5", tw.a)):
            vs = VSequence(tw, delta, kind)
            rec = vs.recurrence(20)
            for i in range(21):
                assert rec[i] == vs.closed_form(i)
            if kind == "sigma4":
                for i in range(21):
                    assert rec[i] == vs.binomial(i)


def test_v_vanishing_predicates(towers):
    # the congruence predicate must match the actual zeros of the sequence
    cases = (
        (7, "t421", "sigma4", lambda tw: tw.a_pow(7 - 1)),
        (8, "t512", "sigma5", lambda tw: tw.a),
        (8, "t511", "sigma5", lambda tw: tw.a_pow(8 + 1)),
        (7, "t521", "sigma5", lambda tw: tw.a_pow((7 + 1) // 2)),
        (9, "t522", "sigma5", lambda tw: tw.a),
        (13, "t522", "sigma5", lambda tw: tw.a),
    )
    for q, case, kind, mk in cases:
        tw = towers[q]
        vs = VSequence(tw, mk(tw), kind)
        rec = vs.recurrence(30)
        # the predicate at argument i speaks about v_{i-1}
        for i in range(1, 31):
            assert (rec[i - 1] == 0) == v_vanishing_index(case, q, i), (case, q, i)


def test_v_vanishing_even_char(tw8):
    for ordd in (3, 9):
        delta = tw8.a_pow((64 - 1) // ordd)
        vs = VSequence(tw8, delta, "sigma4")
        rec = vs.recurrence(30)
        for i in range(1, 31):
            assert (rec[i - 1] == 0) == v_vanishing_even_char(ordd, i)


def test_table_rows_partition():
    # within each family the row conditions partition the (q, m) grid
    # the paper's Tables 1 and 2, rows as (label, case, condition on (q, m))
    TABLE1_ROWS, TABLE2_ROWS = (
        [(row.label, case, row.holds) for case, fam in FAMILIES.items()
         for row in fam.rows if row.table == table] for table in (1, 2))
    assert [case for _, case, _ in TABLE1_ROWS] == [
        "t3", "t41m_minus", "t41m_plus", "t511"]
    fams = {
        "t421": ((7, 9, 13), lambda q: divisors(q + 1)),
        "t422": ((5, 7, 9, 11, 13), lambda q: divisors(2 * (q - 1))),
        "t521": ((5, 7, 9), lambda q: divisors(2 * (q + 1))),
    }
    for fam, (qs, ms) in fams.items():
        rows = [(lab, cond) for lab, case, cond in TABLE2_ROWS if case == fam]
        assert rows
        for q in qs:
            for m in ms(q):
                hits = [lab for lab, cond in rows if cond(q, m)]
                assert len(hits) == 1, (fam, q, m, hits)


def test_every_family_rows_partition_its_grid():
    # at every prime power q <= 64 within a family's hypotheses, exactly one
    # genus row holds at each m | n
    for case, fam in FAMILIES.items():
        qs = [q for q in range(2, 65) if len(factorize(q)) == 1
              and all(cond(q) for cond, _msg in fam.hypotheses)]
        assert qs, case
        for q in qs:
            for m in divisors(fam.modulus(q)):
                hits = [row.label for row in fam.rows if row.holds(q, m)]
                assert len(hits) == 1, (case, q, m, hits)


def test_unknown_case_rejected():
    with pytest.raises(Exception):
        expected_genus("nope", 4, 1)
