"""The breadth-first group closure, kept as a test oracle for
autgrp.close_group: every element found is composed with every generator,
|G| |gens| products in all."""

from __future__ import annotations

from hermquot._linalg import IDENTITY3
from hermquot.autgrp import Group, compose, identity, pgu_order
from hermquot.gf import GFError


def close_group_bfs(tower, gens, cap: int | None = None) -> Group:
    if cap is None:
        cap = 4 * tower.q ** 3
    gens = tuple(g for g in gens if not g.is_identity())
    seen = {IDENTITY3: identity(tower)}
    frontier = [identity(tower)]
    while frontier:
        nxt = []
        for f in frontier:
            for g in gens:
                h = compose(f, g)
                if h.m not in seen:
                    if len(seen) >= cap:
                        raise GFError(
                            f"subgroup closure exceeded the cap {cap}")
                    seen[h.m] = h
                    nxt.append(h)
        frontier = nxt
    order = len(seen)
    assert pgu_order(tower.q) % order == 0, "closure is not a subgroup"
    rank = tower.q2.rank.__getitem__
    elements = tuple(sorted(seen.values(),
                            key=lambda a: tuple(map(rank, a.m))))
    return Group(tower, elements, gens)
