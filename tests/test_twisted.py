"""Frobenius-twisted point counts N_sigma = #{x : Frob(x) = sigma(x)}
against independent routes: enumeration of the curve over F_(q^(2n)), the
9x9 kernel count over F_(q^6) (tests/_twisted_oracle.py), and the quotient
reports built from them."""

import random

from hermquot._linalg import charpoly3, mat_vec3
from hermquot.autgrp import (aut_order, compose, from_affine, group_from_spec,
                             parse_spec)
from hermquot.curve import normalize_point
from hermquot.engine import (_cyclic_walk, _eigen_data, _twisted_count,
                             fixed_rational_places, genus_of_quotient,
                             twisted_fix_count)
from hermquot.formulas import case_modulus, case_spec
from hermquot.gf import BaseLevel, GFError, build_tower, poly_roots
from _twisted_oracle import kernel_twisted_fix_count
from test_acceptance import random_atom, random_group

# elements with an irreducible cubic characteristic polynomial, which no
# eigenvector of F_(q^2) describes: order 3 at q = 2 and 5, order 7 at q = 3
SINGER3_Q2 = "tau(a^0, a^1) * omega * eps(a^1)"
SINGER7_Q3 = "tau(a^1, a^0) * omega * eps(a^7)"
SINGER3_Q5 = "tau(a^0, a^4) * omega * eps(a^16)"


def twisted_counts(tw, aut):
    """The engine's N_sigma for one nontrivial automorphism, on its own: the
    count path and fixed places the quotient's class walk would give it."""
    assert not aut.is_identity()
    eigen = _eigen_data(tw, aut)
    return _twisted_count(tw, aut, aut_order(aut), eigen,
                          fixed_rational_places(tw, aut, eigen))


def brute_twisted_counts(tw, auts, n):
    """N_sigma for each sigma by enumerating the curve over F_(q^(2n)), built
    as a field of its own. Every solution of Frob(x) = sigma(x) lies over
    F_(q^(2 ord sigma)), so n must be a multiple of every order."""
    q = tw.q
    big = BaseLevel(tw.p, n * tw.e)
    # F_(q^2) = F_p[X]/(mod) embeds by sending X to a root of mod
    mod = list(tw.q2.mod) + [1]

    def horner(coeffs, x):
        out = 0
        for c in reversed(coeffs):
            out = big.add(big.mul(out, x), c)
        return out

    root = next(r for r in range(big.size) if horner(mod, r) == 0)

    def embed(v):
        return horner(tw.q2.digits(v), root)

    powq = [big.pow(x, q) for x in range(big.size)]
    pre = {}
    for y in range(big.size):
        pre.setdefault(big.add(powq[y], y), []).append(y)
    pts = [(0, 1, 0)] + [(x, y, 1) for x in range(big.size)
                         for y in pre.get(big.mul(powq[x], x), [])]
    # the Hermitian curve is maximal over F_(q^(2n)) for odd n, minimal for even n
    assert len(pts) == q ** (2 * n) + 1 - (-1) ** n * (q * q - q) * q ** n
    frob = [normalize_point(big, tuple(powq[powq[c]] for c in pt)) for pt in pts]
    out = []
    for f in auts:
        m = tuple(embed(c) for c in f.m)
        out.append(sum(1 for pt, fpt in zip(pts, frob)
                       if normalize_point(big, mat_vec3(big, m, pt)) == fpt))
    return out


def _translations(tw, rng, count):
    """Random nontrivial translations tau(b, c), b = 0 and b != 0 both."""
    out = []
    while len(out) < count:
        b = 0 if len(out) % 3 == 0 else rng.randrange(1, tw.q2.size)
        cs = tw.solve_additive_raw(b)
        f = from_affine(tw, 1, b, cs[rng.randrange(len(cs))])
        if not f.is_identity():
            out.append(f)
    return out


def test_counts_vs_brute_q2(tw2):
    # orders 2, 3, 6 over F_(2^12): the diagonal path, the wild path (the
    # involution omega and eps(a) omega of order 6), and the F_(q^6) path
    auts = [f for f in group_from_spec(tw2, "eps(a), omega").elements
            if not f.is_identity()]
    auts.append(parse_spec(tw2, SINGER3_Q2)[0])
    counts = [twisted_counts(tw2, f) for f in auts]
    assert {c.path for c in counts} == {"diagonal", "wild", "F_q^6"}
    assert [c.n for c in counts] == brute_twisted_counts(tw2, auts, 6)
    # translations of order 2 and 4 over F_(2^8)
    auts = [f for f in group_from_spec(tw2, "tau(1, a)").elements
            if not f.is_identity()]
    assert {aut_order(f) for f in auts} == {2, 4}
    assert ([twisted_counts(tw2, f).n for f in auts]
            == brute_twisted_counts(tw2, auts, 4))


def test_counts_vs_brute_q3(tw3):
    # orders 2 and 4 over F_(3^8), all on the diagonal path
    auts = [f for f in group_from_spec(tw3, "eps(a), omega").elements
            if aut_order(f) in (2, 4)]
    assert {twisted_counts(tw3, f).path for f in auts} == {"diagonal"}
    assert ([twisted_counts(tw3, f).n for f in auts]
            == brute_twisted_counts(tw3, auts, 4))
    # translations and a non-affine wild element, of order 3, over F_(3^6)
    auts = _translations(tw3, random.Random(3), 6)
    auts.append(parse_spec(tw3, "omega * sigma4(delta=a^2)")[0])
    counts = [twisted_counts(tw3, f) for f in auts]
    assert {c.path for c in counts} == {"wild"}
    assert [c.n for c in counts] == brute_twisted_counts(tw3, auts, 3)


def test_f6_path_vs_brute_q5(tw5):
    # odd characteristic on the F_(q^6) path: an order-3 element with an
    # irreducible cubic characteristic polynomial, enumerated over F_(5^6)
    f = parse_spec(tw5, SINGER3_Q5)[0]
    tc = twisted_counts(tw5, f)
    assert aut_order(f) == 3 and tc.path == "F_q^6"
    assert [tc.n] == brute_twisted_counts(tw5, [f], 3) == [21]


def test_translation_counts_vs_f6_count(tw3, tw9):
    # in characteristic 3 a translation has order 3, so its twisted points
    # all lie over F_(q^6): N = 1 when b = 0 and q^2 + 1 otherwise
    for tw, count in ((tw3, 26), (tw9, 12)):
        for f in _translations(tw, random.Random(tw.q), count):
            tc = twisted_counts(tw, f)
            assert tc.path == "wild"
            assert tc.n == tc.n6 == kernel_twisted_fix_count(tw, f)
            assert tc.n == (1 if f.m[2] == 0 else tw.q ** 2 + 1)


# the acceptance formula grid: case -> q values
GRID = {
    "t3": (2, 4, 8), "t41m_minus": (4, 8), "t41m_plus": (4, 8), "ex43": (4,),
    "ex44": (4,), "t421": (7, 9, 13, 19), "t422": (5, 7, 9, 11, 13),
    "t511": (4, 8), "t512": (4, 8), "t521": (5, 7, 9), "t522": (7, 9, 13),
}


def test_diagonal_path_vs_f6_count_on_grid_order3(towers):
    seen = set()
    for case, qs in GRID.items():
        for q in qs:
            tw = towers[q] if q in towers else build_tower(q, 1)
            modulus = case_modulus(case, q)
            for m in range(1, modulus + 1):
                if modulus % m:
                    continue
                try:
                    grp = group_from_spec(tw, case_spec(case, q, m))
                except GFError:
                    continue
                for f in grp.elements:
                    if (q, f.m) in seen or f.is_identity() or aut_order(f) != 3:
                        continue
                    seen.add((q, f.m))
                    tc = twisted_counts(tw, f)
                    assert tc.path == "diagonal", (case, q, m)
                    assert tc.n == tc.n6 == kernel_twisted_fix_count(tw, f), (
                        case, q, m)
    assert len(seen) == 22  # 58 with repeats across the grid groups
    assert {q for q, _m in seen} == {2, 4, 5, 7, 8, 13}


def test_f6_part_vs_f6_count(towers):
    # the part of N_sigma over F_(q^6), on every path, against the count
    # over F_(q^6) itself
    for q, specs in ((2, ("eps(a), omega", SINGER3_Q2)),
                     (3, ("eps(a), omega", SINGER7_Q3)),
                     (4, ("eps(a), omega", "omega * eps(a)")),
                     (5, ("eps(a^2), omega",))):
        tw = towers[q]
        for spec in specs:
            for f in group_from_spec(tw, spec).elements:
                if not f.is_identity():
                    assert (twisted_counts(tw, f).n6
                            == kernel_twisted_fix_count(tw, f))


def test_report_counts_every_place(towers):
    # q^2 + 1 + 2gq rational places, with the degree-1-and-3 subcount kept
    for q, spec, n_sub in ((2, "eps(a), omega", 3), (4, "eps(a), omega", 5),
                           (2, SINGER3_Q2, 5)):
        rep = genus_of_quotient(towers[q], group_from_spec(towers[q], spec))
        assert rep.maximal is True
        assert rep.n_rational == q * q + 1 + 2 * rep.genus * q
        assert rep.n_rational_deg13 == n_sub
        assert rep.n_rational_deg13 >= rep.f3_orbits


def test_report_counts_singer7_q3(tw3):
    # the Singer-type path counts an element of order 7 with an irreducible
    # cubic characteristic polynomial; maximal is None only without the count
    rep = genus_of_quotient(tw3, group_from_spec(tw3, SINGER7_Q3))
    assert rep.group_order == 7
    assert (rep.genus, rep.n_rational, rep.maximal) == (0, 10, True)
    assert genus_of_quotient(tw3, group_from_spec(tw3, SINGER7_Q3),
                             with_count=False).maximal is None


def _is_singer(tw, f):
    """No eigenvalue of f in F_(q^2): an irreducible cubic charpoly."""
    return not poly_roots(tw.q2, charpoly3(tw.q2, f.m))


def _has_order_3(f):
    return not f.is_identity() and compose(compose(f, f), f).is_identity()


def _stream(towers):
    """(q, group) for the criterion 9c stream at q = 4, 5, 7, 8."""
    for q in (4, 5, 7, 8):
        rng = random.Random(12345 + q)
        for _ in range(200):
            yield q, random_group(towers[q], rng)


def test_singer_count_vs_kernel_oracle_in_9c_stream(towers):
    # every order-3 Singer-type element of the stream, not only the class
    # representatives the engine counts
    hits = {(q, f.m): f for q, grp in _stream(towers) for f in grp.elements
            if _has_order_3(f) and _is_singer(towers[q], f)}
    assert sorted(q for q, _m in hits) == [5, 5, 5, 5, 8, 8]
    for (q, _m), f in hits.items():
        n = twisted_fix_count(towers[q], f)
        assert n == kernel_twisted_fix_count(towers[q], f)
        assert twisted_counts(towers[q], f) == (n, n, "F_q^6")


def test_singer_count_vs_kernel_oracle_on_random_words(towers):
    # the first ten distinct order-3 Singer-type elements among random words
    # of one to three 9c atoms
    for q in (2, 5, 8, 11):
        tw = towers[q]
        rng = random.Random(q)
        hits = {}
        while len(hits) < 10:
            f = random_atom(tw, rng)
            for _ in range(rng.randrange(3)):
                f = compose(f, random_atom(tw, rng))
            if _has_order_3(f) and _is_singer(tw, f):
                hits[f.m] = f
        for f in hits.values():
            n = twisted_fix_count(tw, f)
            assert n == kernel_twisted_fix_count(tw, f), q
            assert twisted_counts(tw, f) == (n, n, "F_q^6")


def test_singer_count_in_9c_stream_is_q2_minus_q_plus_1(towers):
    # on every Singer-type class representative the stream's walks count,
    # the gcd has degree 1; the engine computes it, nothing assumes it
    orders = {}
    for q, grp in _stream(towers):
        for i, c in enumerate(_cyclic_walk(towers[q], grp)):
            if c.rep == i and c.eig == []:
                orders.setdefault(q, set()).add(c.order)
                assert twisted_fix_count(towers[q], c.gens[0]) == q * q - q + 1
    assert orders == {4: {13}, 5: {3, 7, 21}, 7: {43}, 8: {3, 19, 57}}


def test_9c_stream_with_count_is_maximal(towers):
    # a quotient of a maximal curve is maximal (Lachaud 1987): with every
    # element on a count path, each report of the stream says so
    reports = [genus_of_quotient(towers[q], grp, dual_check=False)
               for q, grp in _stream(towers)]
    assert len(reports) == 800
    assert all(rep.maximal is True for rep in reports)
