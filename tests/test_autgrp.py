"""Automorphisms: generators, composition, group closure, and the spec DSL."""

import functools
import os
import random
import re
import subprocess
import sys
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hermquot
from hermquot import autgrp, cli
from hermquot._linalg import IDENTITY3, mat_adj3, mat_mul3, mat_vec3
from hermquot.autgrp import (
    Aut,
    DSLError,
    apply_place,
    aut_order,
    aut_pow,
    close_group,
    compose,
    conjugation_tables,
    coset_products,
    epsilon,
    from_affine,
    generator_products,
    group_from_spec,
    identity,
    inverse,
    omega,
    parse_spec,
    pgu_order,
    proj_mul,
    sigma4,
    sigma5,
    word_tables,
)
from hermquot.curve import (
    P_INF,
    normalize_point,
    place_of_point,
    rational_place,
    rational_places,
)
from hermquot.gf import GFError, build_tower, factorize
from test_acceptance import random_atom, random_group
from test_engine import _grid_specs, _translation_groups

from _closure_oracle import close_group_bfs


def test_pgu_order_values():
    assert pgu_order(2) == 216
    assert pgu_order(3) == 6048
    assert pgu_order(4) == 62400


def test_omega_is_involution(tw4):
    w = omega(tw4)
    assert compose(w, w).is_identity()
    assert aut_order(w) == 2


def test_epsilon_order_matches_element_order(tw8):
    n = tw8.q2.size - 1
    for k in (1, 3, 7, 9, 21):
        eps = epsilon(tw8, tw8.a_pow(k))
        assert aut_order(eps) == n // gcd(n, k)  # the order of a^k


def test_omega_conjugates_epsilon(towers):
    # omega . eps(a) . omega = eps(a)^{-q}
    for q in (3, 4, 7):
        tw = towers[q]
        w = omega(tw)
        eps = epsilon(tw, tw.a)
        lhs = compose(compose(w, eps), w)
        rhs = aut_pow(eps, -q)
        assert lhs == rhs


def test_compose_acts_contravariantly(tw3):
    # compose(f, g) applies g to function fields first, so on places it is
    # "f then g"
    f = compose(omega(tw3), epsilon(tw3, tw3.a))
    g = from_affine(tw3, 1, 1, tw3.solve_additive_raw(1)[0])
    for pl in rational_places(tw3)[:15]:
        assert apply_place(compose(f, g), pl) == apply_place(g, apply_place(f, pl))


def _reference_product(lvl, a, b):
    """The 3x3 product a b entry by entry with the level's own mul and add,
    not scaled."""
    return [functools.reduce(lvl.add, (lvl.mul(a[3 * i + k], b[3 * k + j])
                                       for k in range(3)))
            for i in range(3) for j in range(3)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_coset_products_match_proj_mul(towers, q):
    # random words in the atoms as H and as x: each product of the coset
    # kernel is proj_mul's and the reference's scaled by normalize_point,
    # among them products whose first entry is 0, is 1, or is scaled away;
    # the generator kernel, x on the left, is proj_mul's too
    tw = towers[q]
    lvl, rng = tw.q2, random.Random(q)

    def word():
        f = identity(tw)
        for _ in range(rng.randrange(1, 5)):
            f = compose(f, random_atom(tw, rng))
        return f.m

    hs = [word() for _ in range(40)]
    logs = [tuple(lvl._L[y] for y in h) for h in hs]
    firsts = set()
    for _ in range(25):
        x = word()
        got = coset_products(lvl, logs, x)
        assert got == [proj_mul(lvl, h, x) for h in hs]
        assert generator_products(lvl, x, logs) == [
            proj_mul(lvl, x, h) for h in hs]
        for h, m in zip(hs, got):
            ref = _reference_product(lvl, h, x)
            assert m == normalize_point(lvl, ref)
            firsts.add(min(ref[0], 2))
    assert firsts == {0, 1, 2}


def test_inverse_and_pow(tw4):
    f = compose(omega(tw4), epsilon(tw4, tw4.a))
    assert compose(f, inverse(f)).is_identity()
    n = aut_order(f)
    assert aut_pow(f, n).is_identity()
    assert aut_pow(f, -1) == inverse(f)
    assert aut_pow(f, n + 3) == aut_pow(f, 3)


def test_apply_place_permutes_rational_places(tw3):
    f = compose(omega(tw3), epsilon(tw3, tw3.a))
    places = rational_places(tw3)
    image = {apply_place(f, pl) for pl in places}
    assert image == set(places)


def _image_by_division(tw, f, place):
    """The image of a rational place or P_inf by M v with mat_vec3, then x / z
    and y / z with lvl.inv and lvl.mul."""
    lvl = tw.q2
    v = (0, 1, 0) if place == P_INF else (*place.data, 1)
    x, y, z = mat_vec3(lvl, f.m, v)
    if z == 0:
        assert x == 0 and y != 0
        return P_INF
    iz = lvl.inv(z)
    return rational_place(lvl.mul(x, iz), lvl.mul(y, iz))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_place_images_match_division(towers, q):
    # words in omega, eps and translations, on every rational place and
    # P_inf; place_of_point also on scalar multiples of each image
    tw, rng = towers[q], random.Random(q)
    lvl, places = tw.q2, rational_places(tw)

    def atom():
        k = rng.randrange(3)
        if k == 0:
            return omega(tw)
        if k == 1:
            return epsilon(tw, tw.a_pow(rng.randrange(lvl.size - 1)))
        b = rng.randrange(lvl.size)
        return from_affine(tw, 1, b, rng.choice(tw.solve_additive_raw(b)))

    # omega sends P(0, 0) to P_inf
    words = [omega(tw)]
    for _ in range(20):
        f = atom()
        for _ in range(rng.randrange(4)):
            f = compose(f, atom())
        words.append(f)
    for f in words:
        for pl in places:
            ref = _image_by_division(tw, f, pl)
            assert apply_place(f, pl) == ref
            v = (0, 1, 0) if pl == P_INF else (*pl.data, 1)
            c = rng.randrange(1, lvl.size)
            pt = tuple(lvl.mul(c, x) for x in mat_vec3(lvl, f.m, v))
            assert place_of_point(tw, pt) == ref
    assert apply_place(omega(tw), rational_place(0, 0)) == P_INF


def test_place_at_infinity_other_than_p_inf_raises(towers):
    # (1 : 0 : 0) is no place of the curve, from place_of_point itself and
    # as apply_place's image of P(0, 0) by a matrix that is no automorphism
    message = re.escape("the point (1:0:0) at infinity is not P_inf = (0:1:0)")
    for q in (2, 3, 4, 5, 7, 8, 9):
        tw = towers[q]
        with pytest.raises(GFError, match=message):
            place_of_point(tw, (1, 0, 0))
        swap = Aut(tw, (0, 0, 1, 0, 1, 0, 1, 0, 0))
        with pytest.raises(GFError, match=message):
            apply_place(swap, rational_place(0, 0))


def test_from_affine_constraint():
    import hermquot.gf as gf

    tw = gf.build_tower(3, 1)
    # c^q + c = b^{q+1} must hold
    b = tw.a
    good = tw.solve_additive_raw(b)
    f = from_affine(tw, 1, b, good[0])
    assert aut_order(f) in (3, 9)
    bad = next(c for c in range(tw.q2.size) if c not in good)
    with pytest.raises(GFError):
        from_affine(tw, 1, b, bad)


def test_sigma4_rejects_bad_delta(tw7):
    # at odd q the order of delta must divide q + 1 (or give the square
    # root torus); a^{q+1} has order q - 1 and is rejected
    with pytest.raises(GFError):
        sigma4(tw7, tw7.a_pow(8))
    s = sigma4(tw7, tw7.a_pow(6))  # ord = 8 | 2(q-1)... ord(a^6)=8
    assert aut_order(s) > 1


def test_sigma_orders(towers):
    tw8, tw7 = towers[8], towers[7]
    assert aut_order(sigma5(tw8, tw8.a_pow(8 + 1))) == 8 * 8 - 1
    assert aut_order(sigma5(tw8, tw8.a)) == 8 + 1
    assert aut_order(sigma5(tw7, tw7.a)) == 7 + 1
    assert aut_order(sigma5(tw7, tw7.a_pow(4))) == 2 * (7 + 1)
    assert aut_order(sigma4(tw7, tw7.a_pow(7 - 1))) == 7 + 1


def test_dihedral_structure(tw8):
    # <omega, sigma4(delta)> with delta of order m | q - 1 is dihedral of
    # order 2m in the quotient picture: omega inverts sigma4 up to ...
    # just check the group order is 4 * ord(delta) here (two involutions)
    m = 7
    delta = tw8.a_pow((8 * 8 - 1) // m)
    g = close_group(tw8, [omega(tw8), sigma4(tw8, delta)])
    assert g.order % (2 * m) == 0


def test_close_group_orders(towers):
    for q in (2, 3):
        tw = towers[q]
        gens = [omega(tw), epsilon(tw, tw.a)]
        for b in range(tw.q2.size):
            for c in tw.solve_additive_raw(b):
                gens.append(from_affine(tw, 1, b, c))
        g = close_group(tw, gens, cap=pgu_order(q) + 1)
        assert g.order == pgu_order(q)


def test_close_group_cap(tw4):
    with pytest.raises(GFError):
        close_group(tw4, [omega(tw4), epsilon(tw4, tw4.a)], cap=10)


def test_group_order_divides_pgu(towers):
    for q in (4, 5):
        tw = towers[q]
        g = close_group(tw, [omega(tw), epsilon(tw, tw.a_pow(3))])
        assert pgu_order(q) % g.order == 0


def test_dsl_parses_atoms(tw4):
    gens = parse_spec(tw4, "eps(a^5), omega")
    assert len(gens) == 2
    assert gens[0] == epsilon(tw4, tw4.a_pow(5))
    assert gens[1] == omega(tw4)
    g = group_from_spec(tw4, "eps(a^5), omega")
    assert g.order == 6


def test_dsl_products_and_powers(tw7):
    f = parse_spec(tw7, "sigma4(delta=a^6) ^ 2")[0]
    assert f == aut_pow(sigma4(tw7, tw7.a_pow(6)), 2)
    f2 = parse_spec(tw7, "omega * eps(a^8)")[0]
    assert f2 == compose(omega(tw7), epsilon(tw7, tw7.a_pow(8)))


def test_dsl_tau_and_aff(tw4):
    b = tw4.a
    c = tw4.solve_additive_raw(b)[0]
    txt = "tau(a, %s)" % tw4.elt_str(c)
    f = parse_spec(tw4, txt)[0]
    assert f == from_affine(tw4, 1, b, c)


def test_dsl_empty_spec(tw4):
    assert parse_spec(tw4, "") == []
    g = group_from_spec(tw4, "")
    assert g.order == 1


def test_dsl_errors(tw4):
    for bad in ("eps(", "omega omega", "sigma4(delta=)", "frob", "eps(a^)"):
        with pytest.raises(DSLError):
            parse_spec(tw4, bad)


def _pgu_gens(tw):
    """omega, eps(a) and one translation, which generate PGU(3, q)."""
    c = tw.solve_additive_raw(1)[0]
    return [omega(tw), epsilon(tw, tw.a), from_affine(tw, 1, 1, c)]


def _assert_closures_agree(tw, gens, cap=None):
    grp = close_group(tw, gens, cap=cap)
    bfs = close_group_bfs(tw, gens, cap=cap)
    assert sorted(f.m for f in grp.elements) == sorted(
        f.m for f in bfs.elements) and grp.gens == bfs.gens
    return grp


@pytest.mark.parametrize("q", [4, 5, 7, 8])
def test_close_group_vs_bfs_on_9c_stream(towers, q):
    tw = towers[q]
    rng = random.Random(12345 + q)
    for _ in range(200):
        grp = random_group(tw, rng)
        bfs = close_group_bfs(tw, grp.gens, cap=600)
        assert sorted(f.m for f in grp.elements) == sorted(
            f.m for f in bfs.elements) and grp.gens == bfs.gens


@pytest.mark.parametrize("q", [8, 16])
def test_close_group_vs_bfs_on_translation_groups(compose_towers, q):
    # 1-3 random translations tau(b, c), conjugated by a torus element
    tw = compose_towers[q]
    rng = random.Random(q)
    for _ in range(20):
        gens = []
        for _ in range(rng.randrange(1, 4)):
            b = rng.randrange(tw.q2.size)
            cs = tw.solve_additive_raw(b)
            gens.append(from_affine(tw, 1, b, cs[rng.randrange(len(cs))]))
        t = epsilon(tw, tw.a_pow(rng.randrange(1, tw.q2.size)))
        t_inv = inverse(t)
        gens = [compose(compose(t_inv, g), t) for g in gens]
        assert q ** 3 % _assert_closures_agree(tw, gens).order == 0


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0)])
def test_close_group_vs_bfs_on_pgu(towers, q, order):
    gens = _pgu_gens(towers[q])
    grp = _assert_closures_agree(towers[q], [gens[i] for i in order],
                                 cap=pgu_order(q))
    assert grp.order == pgu_order(q)


@pytest.mark.parametrize("q, make", [
    (4, lambda tw: [epsilon(tw, tw.a), omega(tw)]),  # omega adds a 15-coset
    (2, _pgu_gens),
])
def test_close_group_cap_is_exact(towers, q, make):
    # cap = |G| closes and cap = |G| - 1 raises, although the last step
    # adds a whole coset of more than one element
    tw = towers[q]
    gens = make(tw)
    n = close_group(tw, gens, cap=pgu_order(q)).order
    assert _assert_closures_agree(tw, gens, cap=n).order == n
    for close in (close_group, close_group_bfs):
        with pytest.raises(GFError, match="exceeded the cap"):
            close(tw, gens, cap=n - 1)


def test_close_group_makes_no_proj_mul(towers, compose_towers, monkeypatch):
    # the first generator's powers and every coset representative times a
    # generator come from generator_products, on logs read once per
    # closure: no proj_mul on the grid, 200 groups of the 9c stream at each
    # q <= 8, the translation groups at q = 8, 16 and PGU(3, 2..4)
    cases = []
    for q in (2, 4, 5, 7, 8):
        for spec in _grid_specs(q):
            grp = group_from_spec(towers[q], spec)
            cases.append((towers[q], grp.gens, None, grp.order))
    for q in (4, 5, 7, 8):
        rng = random.Random(12345 + q)
        for _ in range(200):
            grp = random_group(towers[q], rng)
            cases.append((towers[q], grp.gens, 600, grp.order))
    for q in (8, 16):
        for grp in _translation_groups(compose_towers[q], random.Random(q)):
            cases.append((compose_towers[q], grp.gens, None, grp.order))
    for q in (2, 3, 4):
        cases.append((towers[q], _pgu_gens(towers[q]), pgu_order(q),
                      pgu_order(q)))

    def no_product(*_args):
        raise AssertionError("proj_mul in the closure")

    monkeypatch.setattr(autgrp, "proj_mul", no_product)
    for tw, gens, cap, order in cases:
        assert close_group(tw, gens, cap=cap).order == order


def _assert_tables(grp):
    # every entry of every generator's table is the product it stands for,
    # the identity is at index 0, every other element is its tree parent
    # times one generator, and on sampled pairs (x, y) following y's path
    # from x lands on x y
    lvl, els, gens = grp.tower.q2, grp.elements, grp.gens
    assert els[0].m == IDENTITY3
    assert len(grp.tables) == len(gens)
    for g, table in zip(gens, grp.tables):
        assert [els[y].m for y in table] == [
            proj_mul(lvl, f.m, g.m) for f in els]
    for x in range(1, len(els)):
        assert els[x].m == proj_mul(lvl, els[grp.up[x]].m,
                                    gens[grp.by[x]].m)
    word = word_tables(grp.tables, grp.up, grp.by)
    index = {f.m: x for x, f in enumerate(els)}
    rng = random.Random(len(els))
    for _ in range(50):
        x, y = rng.randrange(len(els)), rng.randrange(len(els))
        z = x
        for t in word(y):
            z = t[z]
        assert z == index[proj_mul(lvl, els[x].m, els[y].m)]


@pytest.mark.parametrize("q", [4, 5, 7, 8])
def test_tables_on_9c_stream(towers, q):
    tw = towers[q]
    rng = random.Random(12345 + q)
    for _ in range(200):
        _assert_tables(random_group(tw, rng))


@pytest.mark.parametrize("q", [8, 16])
def test_tables_on_translation_groups(compose_towers, q):
    for grp in _translation_groups(compose_towers[q], random.Random(q)):
        _assert_tables(grp)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0)])
def test_tables_on_pgu(towers, q, order):
    gens = _pgu_gens(towers[q])
    grp = close_group(towers[q], [gens[i] for i in order], cap=pgu_order(q))
    assert grp.order == pgu_order(q)
    _assert_tables(grp)


@pytest.mark.parametrize("q", [3, 4])
def test_tables_of_redundant_generators(towers, q):
    # a power of a generator, a repeat, and a product of two earlier ones
    # join no coset; each still gets its own table
    tw = towers[q]
    w, e, t = _pgu_gens(tw)
    for gens in ([t, compose(t, t)], [t, t], [e, w, e],
                 [e, w, compose(e, w)], [t, e, compose(t, e)]):
        grp = close_group(tw, gens, cap=pgu_order(q))
        assert grp.gens == tuple(gens)
        _assert_tables(grp)


def _conjugation_cases(towers, compose_towers):
    yield close_group(towers[2], _pgu_gens(towers[2]), cap=pgu_order(2))
    rng = random.Random(12345 + 5)
    yield next(g for g in iter(lambda: random_group(towers[5], rng), None)
               if g.order > 20 and len(g.gens) > 1)
    yield next(g for g in _translation_groups(compose_towers[8],
                                              random.Random(8))
               if len(g.gens) > 1)


def test_conjugation_tables(towers, compose_towers):
    # on PGU(3, 2), a 9c group at q = 5 and a translation group at q = 8:
    # every entry is the closure index of the normalised g x g^-1, from
    # matrices, and the tree's parents come before their children
    for grp in _conjugation_cases(towers, compose_towers):
        lvl, els = grp.tower.q2, grp.elements
        index = {f.m: x for x, f in enumerate(els)}
        assert all(grp.up[x] < x for x in range(1, grp.order))
        tables = conjugation_tables(grp)
        assert len(tables) == len(grp.gens) > 1
        for g, table in zip(grp.gens, tables):
            adj = mat_adj3(lvl, g.m)
            assert table == [index[normalize_point(lvl, mat_mul3(
                lvl, mat_mul3(lvl, g.m, f.m), adj))] for f in els]


def test_lagrange_check_exits_3_also_under_O(tw3, capsys, monkeypatch):
    # with |PGU(3, q)| patched to 1, the closure of omega, of order 2,
    # breaks Lagrange's theorem: a GFError, so exit 3 and one stderr line,
    # in-process and in a python -O subprocess, where an assert would vanish
    message = "the closure of order 2 is not a subgroup of PGU(3, 3)"
    argv = ["genus", "--q", "3", "--spec", "omega"]
    monkeypatch.setattr(autgrp, "pgu_order", lambda q: 1)
    with pytest.raises(GFError, match=re.escape(message)):
        close_group(tw3, [omega(tw3)])
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    script = ("import sys\nfrom hermquot import autgrp, cli\n"
              "autgrp.pgu_order = lambda q: 1\n"
              f"sys.exit(cli.main({argv!r}))")
    src = os.path.dirname(os.path.dirname(hermquot.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stderr) == (3, f"error: {message}\n")


@settings(max_examples=20, deadline=None)
@given(rng=st.randoms(use_true_random=False), q=st.sampled_from([2, 3, 4, 5]))
def test_close_group_is_a_subgroup(towers, rng, q):
    # the closure of 1-3 random atoms, redrawn while it passes the cap
    tw = towers[q]
    while True:
        atoms = [random_atom(tw, rng) for _ in range(rng.randrange(1, 4))]
        try:
            grp = close_group(tw, atoms, cap=600)
            break
        except GFError:
            continue
    elements = {f.m for f in grp.elements}
    assert len(elements) == grp.order and pgu_order(q) % grp.order == 0
    for _ in range(50):
        f, g = rng.choice(grp.elements), rng.choice(grp.elements)
        assert compose(f, g).m in elements
    assert close_group(tw, grp.gens, cap=600).elements == grp.elements


COMPOSE_QS = [2, 3, 4, 5, 8, 9, 16, 25]


@pytest.fixture(scope="module")
def compose_towers(towers):
    out = {}
    for q in COMPOSE_QS:
        (p, e), = factorize(q).items()
        out[q] = towers[q] if q in towers else build_tower(p, e)
    return out


def _schoolbook(lvl, A, B):
    """Test-only oracle for A B: each entry product is a product of digit
    polynomials reduced mod the modulus over F_p, and sums go digit by
    digit."""
    from hermquot.gf import _PrimeLevel, p_mod, p_mul, p_trim

    p, fp, m = lvl.p, _PrimeLevel(lvl.p), [*lvl.mod, 1]

    def mul(x, y):
        xs, ys = (p_trim(list(lvl.digits(v))) for v in (x, y))
        return lvl.digits(lvl.pack(p_mod(fp, p_mul(fp, xs, ys), m)))

    def entry(i, j):
        terms = [mul(A[3 * i + k], B[3 * k + j]) for k in range(3)]
        return lvl.pack([sum(ds) % p for ds in zip(*terms)])

    return tuple(entry(i, j) for i in range(3) for j in range(3))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data(), q=st.sampled_from(COMPOSE_QS))
def test_compose_matches_schoolbook_product(compose_towers, data, q):
    # zero entries and zero rows are drawn often, and so are singular and
    # zero products; compose(f, g) has the point matrix M_g M_f
    tw = compose_towers[q]
    lvl = tw.q2
    entry = st.one_of(st.just(0), st.integers(1, lvl.size - 1))
    row = st.one_of(st.just((0, 0, 0)), st.tuples(entry, entry, entry))
    mat = st.tuples(row, row, row).map(lambda rs: rs[0] + rs[1] + rs[2])
    A, B = data.draw(mat), data.draw(mat)
    prod = _schoolbook(lvl, A, B)
    assert mat_mul3(lvl, A, B) == prod
    if any(prod):
        assert compose(Aut(tw, B), Aut(tw, A)).m == normalize_point(lvl, prod)
    else:
        with pytest.raises(GFError):
            compose(Aut(tw, B), Aut(tw, A))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data(), q=st.sampled_from(COMPOSE_QS),
       name=st.sampled_from(["q2", "q6"]))
def test_mat_vec3_matches_schoolbook_product(compose_towers, data, q, name):
    # A v is the first column of A (v 0 0); at F_{q^6} the matrix entries
    # lie in F_{q^2} and act on each coordinate of v's entries separately
    tw = compose_towers[q]
    lvl = tw.q2
    entry = st.one_of(st.just(0), st.integers(1, lvl.size - 1))
    A = data.draw(st.tuples(*[entry] * 9))

    def product(v):
        return _schoolbook(lvl, A, (v[0], 0, 0, v[1], 0, 0, v[2], 0, 0))[0::3]

    if name == "q2":
        v = data.draw(st.tuples(entry, entry, entry))
        assert mat_vec3(lvl, A, v) == product(v)
    else:
        q6 = tw.q6
        v = data.draw(st.tuples(*[st.one_of(st.just(0), st.integers(
            1, q6.size - 1))] * 3))
        parts = [product([q6.unpack(x)[k] for x in v]) for k in range(3)]
        assert mat_vec3(q6, A, v) == tuple(q6.pack(*cs) for cs in zip(*parts))


@pytest.mark.parametrize("q", COMPOSE_QS)
def test_compose_zero_product_raises(compose_towers, q):
    # A keeps only B's zero first row, so the product is the zero matrix
    tw = compose_towers[q]
    A, B = (1, 0, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 1, 1, 1, 0, 0, 1)
    assert mat_mul3(tw.q2, A, B) == (0,) * 9
    with pytest.raises(GFError):
        compose(Aut(tw, B), Aut(tw, A))
