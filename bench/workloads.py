"""The three workloads: inputs made from a seed, one timed quotient per
input, and a correctness check per output.

Each workload names the q values whose towers it needs, builds the parts
of a tower that are built on first use and that its quotients need with
`prepare` (part of the timed set-up), makes its inputs with `generate`,
computes one quotient with `run` (the timed part) and judges the output
with `check`, which returns (ok, digest row, maximal short). `check` gets
`full=False` when it sees an input again, where comparing digests replaces
the slower cross-checks.

Seeds. The grid is fixed, so the seed only shuffles its order. The two
sweeps draw their groups from fixed streams and let the seed pick a random
torus conjugator per group. Conjugation changes every input matrix and
moves the affine ramified places, but the cost of a pass does not depend on
the seed. Drawing fresh groups per seed made the time of the q = 5 slice
spread by more than half its median across seeds. That slice is dominated
by a few groups with elements of order dividing q^2 - q + 1.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from math import gcd

# The acceptance grid of the closed-form catalogue: case -> q values.
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
GRID_SIZE = 110

SWEEP_QS = (4, 5, 7, 8)
SWEEP_PER_Q = 25
SWEEP_CAP = 600

WILD_QS = (8, 16)
WILD_PER_Q = 50


def _rows(rep) -> tuple:
    return tuple((repr(r.rep), r.size, r.e, r.f, r.d, r.i_values)
                 for r in rep.orbits)


def _genus_in_range(q: int, genus: int) -> bool:
    return 0 <= genus <= (q * q - q) // 2


class GridCount:
    """The closed-form catalogue grid with the place count and the dual
    different check on, as the acceptance tests run it."""

    name = "grid_count"
    qs = tuple(sorted({q for qs in GRID.values() for q in qs}))

    def prepare(self, tw):
        # F_(q^6) and its generator, which the twisted point count uses
        tw.q6.primitive()

    def generate(self, h, towers, seed):
        items = []
        for case, qs in GRID.items():
            for q in qs:
                n = h.formulas.case_modulus(case, q)
                for m in range(1, n + 1):
                    if n % m:
                        continue
                    try:
                        h.formulas.case_spec(case, q, m)
                    except h.gf.GFError:
                        continue  # hypothesis not met at this (q, m)
                    items.append((case, q, m))
        if len(items) != GRID_SIZE:
            raise RuntimeError(f"grid has {len(items)} entries, "
                               f"expected {GRID_SIZE}")
        random.Random(seed).shuffle(items)
        return items

    def run(self, h, towers, item):
        case, q, m = item
        tw = towers[q]
        spec = h.formulas.case_spec(case, q, m)
        expected = h.formulas.expected_genus(case, q, m)
        grp = h.autgrp.group_from_spec(tw, spec)
        return h.engine.genus_of_quotient(tw, grp, expected=expected)

    def check(self, h, towers, item, rep, full):
        row = (item, rep.genus, rep.deg_diff, _rows(rep), rep.n_rational)
        return rep.genus == rep.expected, row, rep.maximal is False


def _translation_params(tw, rng):
    """(b, c) with c^q + c = b^(q+1), both uniformly drawn."""
    b = rng.randrange(tw.q2.size)
    cs = tw.solve_additive_raw(b)
    return b, cs[rng.randrange(len(cs))]


def _random_atom(h, tw, rng):
    """One random generator, drawn exactly as acceptance criterion 9c
    draws it."""
    a = h.autgrp
    q = tw.q
    k = rng.randrange(q * q - 1)
    choice = rng.randrange(5)
    if choice == 0:
        return a.omega(tw)
    if choice == 1:
        return a.epsilon(tw, tw.a_pow(k) if k else 1)
    if choice == 2:
        return a.from_affine(tw, 1, *_translation_params(tw, rng))
    make = a.sigma4 if choice == 3 else a.sigma5
    try:
        return make(tw, tw.a_pow(k) if k else 1)
    except h.gf.GFError:
        return a.omega(tw)


def _random_element(h, tw, rng):
    g = h.autgrp.identity(tw)
    for _ in range(rng.randrange(1, 4)):
        g = h.autgrp.compose(g, _random_atom(h, tw, rng))
    return g


def _conjugate(h, tw, gens, rng):
    """Conjugate by a random torus element eps(a^k). It scales the
    Hermitian form and keeps the coordinate axes, so eigenspace bases and
    the line polynomials keep their zero patterns and a quotient costs the
    same whatever the seed. A general element of PGU(3, q) can change the
    degree of those polynomials, and so the cost, several-fold."""
    a = h.autgrp
    c = a.epsilon(tw, tw.a_pow(rng.randrange(tw.q * tw.q - 1)))
    ci = a.inverse(c)
    return [a.compose(a.compose(ci, g), c) for g in gens]


class RandomSweep:
    """Random subgroups with the generator of acceptance criterion 9c, genus
    only (no count, no dual check): the path of a user sweeping subgroups."""

    name = "random_sweep"
    qs = SWEEP_QS

    def prepare(self, tw):
        tw.q6  # built on first use; degree-3 places live there

    def generate(self, h, towers, seed):
        items = []
        for q in SWEEP_QS:
            tw = towers[q]
            # the 9c stream itself: 1-3 random atoms, omega added with
            # probability 0.3, redrawn when the closure passes the cap
            base = random.Random(12345 + q)
            conj = random.Random(f"random_sweep:{seed}:{q}")
            for i in range(SWEEP_PER_Q):
                while True:
                    gens = [_random_element(h, tw, base)]
                    if base.random() < 0.3:
                        gens.append(h.autgrp.omega(tw))
                    try:
                        order = h.autgrp.close_group(tw, gens,
                                                     cap=SWEEP_CAP).order
                        break
                    except h.gf.GFError:
                        continue
                items.append((q, i, _conjugate(h, tw, gens, conj), order))
        return items

    def run(self, h, towers, item):
        q, _i, gens, _order = item
        tw = towers[q]
        grp = h.autgrp.close_group(tw, gens, cap=SWEEP_CAP)
        return grp, h.engine.genus_of_quotient(tw, grp, with_count=False,
                                               dual_check=False)

    def check(self, h, towers, item, out, full):
        q, i, _gens, order = item
        grp, rep = out
        ok = grp.order == order and _genus_in_range(q, rep.genus)
        tw = towers[q]
        if (ok and full and grp.order % tw.p
                and gcd(grp.order, q * q - q + 1) == 1):
            ok = h.engine.tame_diff_crosscheck(tw, grp) == rep.deg_diff
        row = ((q, i), grp.order, rep.genus, rep.deg_diff, _rows(rep),
               rep.n_rational)
        return ok, row, rep.maximal is False


class WildCli:
    """Random 2-subgroups of the translation group at even q, each through
    the `genus` command with JSON output (count and dual check on)."""

    name = "wild_cli"
    qs = WILD_QS

    def prepare(self, tw):
        pass  # no F_(q^6) work, and the CLI builds its own tower

    def generate(self, h, towers, seed):
        items = []
        for q in WILD_QS:
            tw = towers[q]
            base = random.Random(f"wild_cli:{q}")
            conj = random.Random(f"wild_cli:{seed}:{q}")
            for i in range(WILD_PER_Q):
                gens = [h.autgrp.from_affine(tw, 1,
                                             *_translation_params(tw, base))
                        for _ in range(base.randrange(1, 4))]
                order = h.autgrp.close_group(tw, gens).order
                # the torus normalises the translation group, so the
                # conjugates are translations tau(b, c) again
                specs = []
                for g in _conjugate(h, tw, gens, conj):
                    m = g.m
                    if m[0:2] + m[4:5] + m[6:9] != (1, 0, 1, 0, 0, 1):
                        raise RuntimeError(f"conjugate {g} is no translation")
                    specs.append(f"tau({tw.elt_str(m[2])}, {tw.elt_str(m[5])})")
                items.append((q, i, ", ".join(specs), order))
        return items

    def run(self, h, towers, item):
        q, _i, spec, _order = item
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = h.cli.main(["genus", "--q", str(q), "--spec", spec,
                               "--format", "json"])
        return code, out.getvalue(), err.getvalue()

    def check(self, h, towers, item, out, full):
        q, i, _spec, order = item
        code, text, _err = out
        if code != 0:
            return False, ((q, i), "exit", code), False
        try:
            data = json.loads(text)
        except ValueError:
            return False, ((q, i), "unparseable"), False
        ok = (data["group"]["order"] == order
              and _genus_in_range(q, data["genus"]))
        row = ((q, i), data["genus"], data["deg_diff"],
               json.dumps(data["orbits"], sort_keys=True),
               data["n_rational_quotient"])
        return ok, row, data["maximal"] is False


WORKLOADS = {w.name: w for w in (GridCount(), RandomSweep(), WildCli())}
