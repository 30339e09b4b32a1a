"""The engine's earlier route to orbit rows and counts, kept as a test
oracle for engine._cyclic_walk, engine._orbit_rows and
engine._rational_count: an eigen analysis for every cyclic subgroup, every
stabiliser found by applying all of G to the orbit's representative, and
N_sigma counted once per cyclic subgroup."""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from hermquot.autgrp import Group, apply_place, compose, inverse
from hermquot.curve import place_sort_key
from hermquot.engine import (
    OrbitRow,
    _eigen_data,
    _twisted_count,
    fixed_rational_places,
    pointwise_fixed_degree3_places,
)
from hermquot.localval import ramification_data


class Subgroup(NamedTuple):
    gens: list   # the generators sigma^k, gcd(k, n) = 1, sigma first
    order: int
    eig: list
    fixed: list
    deg3: list


def walk_per_subgroup(tower, group) -> list[Subgroup]:
    q = tower.q
    seen, out = set(), []
    for s in group.elements:
        if s.is_identity() or s.m in seen:
            continue
        powers = [s]
        while not powers[-1].is_identity():
            powers.append(compose(powers[-1], s))
        n = len(powers)
        gens = [powers[k - 1] for k in range(1, n) if gcd(k, n) == 1]
        seen.update(g.m for g in gens)
        eig = _eigen_data(tower, s)
        fixed = fixed_rational_places(tower, s, eig)
        deg3 = (pointwise_fixed_degree3_places(tower, s, eig)
                if (q * q - q + 1) % n == 0 else [])
        out.append(Subgroup(gens, n, eig, fixed, deg3))
    return out


def orbit_rows_by_images(tower, group, walk, dual_check) -> list[OrbitRow]:
    rows = []
    todo = {pl for c in walk for pl in c.fixed + c.deg3}
    while todo:
        rep = min(todo, key=lambda p: place_sort_key(tower, p))
        images = [apply_place(s, rep) for s in group.elements]
        orbit = set(images)
        todo -= orbit
        stab = tuple(s for s, im in zip(group.elements, images) if im == rep)
        rd = ramification_data(tower, rep, Group(tower, stab, ()),
                               dual_check=dual_check)
        assert group.order == len(orbit) * rd.e * rd.f
        if len(orbit) > 1:
            other = max(orbit, key=lambda p: place_sort_key(tower, p))
            g = group.elements[images.index(other)]
            g_inv = inverse(g)
            conj = tuple(compose(compose(g_inv, s), g) for s in stab)
            rd2 = ramification_data(tower, other, Group(tower, conj, ()),
                                    dual_check=False)
            assert (rd2.e, rd2.f, rd2.d) == (rd.e, rd.f, rd.d)
        rows.append(OrbitRow(rep, len(orbit), rd.e, rd.f, rd.d, rd.i_values))
    return rows


def rational_count_per_subgroup(tower, group_order, walk):
    """(n_rational, f3_orbits, n_rational_deg13)."""
    total = fixed = over_q6 = tower.q ** 3 + 1
    for c in walk:
        phi = len(c.gens)
        tc = _twisted_count(tower, c.gens[0], c.order, c.eig, c.fixed)
        fixed += phi * len(c.fixed)
        over_q6 += phi * tc.n6
        total += phi * tc.n
    f3 = (over_q6 - fixed) // group_order
    return total // group_order, f3, over_q6 // group_order
