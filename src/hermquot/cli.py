"""Command line interface.

Subcommands:
  genus   compute one quotient from a generator spec or a named case
  table   sweep the named cases over divisors m and compare with formulas
  verify  run the property suites
  places  list the places of the curve itself

Exit codes: 0 success, 1 property or comparison failure, 2 usage/parse
error, 3 internal hard error.

All standard output goes through _write. A reader that closes the pipe
early (`hermquot places --q 16 | head -1`) ends the output: no traceback,
the rest is discarded, and the exit code is the one the command decided.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import time
from math import gcd, isqrt

from . import autgrp, formulas
from .autgrp import DSLError
from .curve import (DEFAULT_DEG3_BUDGET, degree3_count, degree3_places,
                    rational_places)
from .engine import genus_of_quotient, tame_diff_crosscheck
from .formulas import HypothesisNotMet
from .gf import TABLE_LIMIT, BudgetExceeded, GFError, build_tower, factorize

# the largest q whose F_(q^2) gets log tables; a q above it is rejected
# before factoring or primality testing, which trial-divide
Q_MAX = isqrt(TABLE_LIMIT)
CSV_COLUMNS = ["case", "q", "m", "expected", "computed", "status",
               "deg_diff", "group_order", "runtime_ms"]


class UsageError(Exception):
    pass


def _factor_q(q: int):
    if not 2 <= q <= Q_MAX:
        raise UsageError(f"q = {q} outside 2..{Q_MAX}")
    fac = factorize(q)
    if len(fac) != 1:
        raise UsageError(f"q = {q} is not a prime power")
    (p, e), = fac.items()
    return p, e


@functools.cache
def _tower(p: int, e: int):
    """One tower per (p, e) per process, shared by every genus, verify and
    places call; table builds each q of its list afresh."""
    return build_tower(p, e)


def _place_str(tower, place):
    if place.kind == "infinity":
        return "P_inf"
    if place.kind == "rational":
        return f"P({tower.elt_str(place.alpha)},{tower.elt_str(place.beta)})"
    pts = ";".join("(" + ",".join(tower.elt_str_any(c) for c in pt) + ")"
                   for pt in place.data)
    return f"P3[{pts}]"


def _report_dict(tower, group, rep, spec_strings, formula=None):
    out = {
        "q": tower.q,
        "p": tower.p,
        "group": {"order": group.order, "generators": list(spec_strings)},
        "orbits": [{"rep": _place_str(tower, r.rep), "size": r.size,
                    "degree": r.degree, "e": r.e, "f": r.f, "d": r.d}
                   for r in rep.orbits],
        "deg_diff": rep.deg_diff,
        "genus": rep.genus,
        "n_rational_quotient": rep.n_rational,
        "n_rational_deg1_deg3": rep.n_rational_deg13,
        "maximal": rep.maximal,
    }
    if formula is not None:
        out["formula"] = formula
    return out


def _write(text, out=None):
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as ex:
            raise UsageError(f"cannot write --out {out}: {ex.strerror}") from None
        return
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader is gone: later output and the flush at exit go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _as_text(data) -> str:
    lines = [f"q = {data['q']}  |G| = {data['group']['order']}  "
             f"generators: {', '.join(data['group']['generators']) or '(trivial)'}"]
    for o in data["orbits"]:
        lines.append(f"  orbit rep {o['rep']}  size {o['size']}  "
                     f"deg {o['degree']}  e {o['e']}  f {o['f']}  d {o['d']}")
    lines.append(f"deg Diff = {data['deg_diff']}")
    lines.append(f"genus = {data['genus']}")
    if data.get("n_rational_deg1_deg3") is not None:
        lines.append(f"quotient rational places = "
                     f"{data['n_rational_quotient']}  "
                     f"maximal = {data['maximal']}")
        lines.append(f"  under places of degree 1 and 3 = "
                     f"{data['n_rational_deg1_deg3']}")
    if "formula" in data:
        f = data["formula"]
        lines.append(f"formula {f['name']} m={f['params']['m']}: expected "
                     f"{f['expected']}  {'matched' if f['matched'] else 'MISMATCH'}")
    return "\n".join(lines)


def cmd_genus(args) -> int:
    tower = _tower(*_factor_q(args.q))
    formula = None
    if args.case and args.spec is not None:
        raise UsageError("--spec and --case exclude each other")
    if args.m is not None and not args.case:
        raise UsageError("--m requires --case")
    if args.case:
        if args.m is None:
            raise UsageError("--case requires --m")
        modulus = formulas.case_modulus(args.case, tower.q)
        if args.m < 1 or modulus % args.m:
            raise UsageError(f"--m {args.m} is not a positive divisor of "
                             f"{modulus} for {args.case} at q = {tower.q}")
        try:
            expected = formulas.expected_genus(args.case, tower.q, args.m)
            spec = formulas.case_spec(args.case, tower.q, args.m)
        except HypothesisNotMet as ex:
            _write(f"skipped(hypothesis): {ex}")
            return 0
    elif args.spec is not None:
        expected, spec = None, args.spec
    else:
        raise UsageError("genus needs --spec or --case/--m")
    group = autgrp.group_from_spec(tower, spec)
    rep = genus_of_quotient(tower, group, expected=expected)
    if expected is not None:
        formula = {"name": args.case, "params": {"q": tower.q, "m": args.m},
                   "expected": expected, "matched": rep.genus == expected}
    data = _report_dict(tower, group, rep, [spec] if spec.strip() else [],
                        formula)
    _write(json.dumps(data, indent=2) if args.format == "json"
           else _as_text(data), args.out)
    if expected is not None and rep.genus != expected:
        return 1
    return 0


def _table_rows(tower, cases):
    q = tower.q
    for case in cases:
        try:
            modulus = formulas.case_modulus(case, q)
        except GFError:
            continue
        for m in range(1, modulus + 1):
            if modulus % m != 0:
                continue
            t0 = time.monotonic()
            row = {"case": case, "q": q, "m": m, "expected": "",
                   "computed": "", "status": "skipped(hypothesis)",
                   "deg_diff": "", "group_order": ""}
            try:
                expected = formulas.expected_genus(case, q, m)
            except HypothesisNotMet:
                expected = None
            try:
                # out-of-hypothesis rows still get an empirical genus when a
                # group can be built at all; the sigma constructors reject
                # parameters that make no group
                group = autgrp.group_from_spec(
                    tower, formulas.case_spec(case, q, m, check=False))
                rep = genus_of_quotient(tower, group, with_count=False,
                                        dual_check=False)
                row.update(computed=rep.genus, deg_diff=rep.deg_diff,
                           group_order=group.order)
            except GFError:
                if expected is not None:
                    raise
            if expected is not None:
                row["expected"] = expected
                row["status"] = "matched" if rep.genus == expected else "FAILED"
            row["runtime_ms"] = int(1000 * (time.monotonic() - t0))
            yield row


def cmd_table(args) -> int:
    cases = args.case.split(",") if args.case else list(formulas.CASES)
    for c in cases:
        if c not in formulas.CASES:
            raise UsageError(f"unknown case {c!r}")
    try:
        qs = [int(s) for s in args.q_list.split(",")]
    except ValueError:
        raise UsageError(f"--q-list {args.q_list!r} is not a list of integers") from None
    rows = []
    for q in sorted(set(qs)):
        rows.extend(_table_rows(build_tower(*_factor_q(q)), cases))
    rows.sort(key=lambda r: (r["case"], r["q"], r["m"]))
    failed = any(r["status"] == "FAILED" for r in rows)
    if args.format == "json":
        text = json.dumps(rows, indent=2)
    else:
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=CSV_COLUMNS)
        w.writeheader()
        for r in rows:
            w.writerow({k: r.get(k, "") for k in CSV_COLUMNS})
        text = buf.getvalue().rstrip("\n")
    _write(text, args.out)
    return 1 if failed else 0


def cmd_places(args) -> int:
    if args.deg3_budget < 0:
        raise UsageError(f"--deg3-budget {args.deg3_budget} is negative")
    tower = _tower(*_factor_q(args.q))
    data = {"q": tower.q, "rational": [], "degree3_count": degree3_count(tower)}
    for pl in rational_places(tower):
        data["rational"].append(_place_str(tower, pl))
    if args.with_degree3:
        try:
            data["degree3"] = [_place_str(tower, pl)
                               for pl in degree3_places(tower, args.deg3_budget)]
        except BudgetExceeded as ex:
            data["degree3"] = f"budget exceeded: {ex}"
    if args.format == "json":
        _write(json.dumps(data, indent=2))
        return 0
    lines = [f"q = {data['q']}: {len(data['rational'])} rational places, "
             f"{data['degree3_count']} places of degree 3"]
    lines += ["  " + pl for pl in data["rational"]]
    if isinstance(data.get("degree3"), str):
        lines.append(data["degree3"])  # the budget-exceeded message
    else:
        lines += ["  " + pl for pl in data.get("degree3", [])]
    _write("\n".join(lines))
    return 0


def _tally(suite, checks):
    """(suite, passes, failures, first failing label) from (label, ok)
    pairs."""
    passes, fails, first = 0, 0, None
    for label, ok in checks:
        passes += ok
        fails += not ok
        if not ok and first is None:
            first = label
    return suite, passes, fails, first


def _verify_suites(tower):
    """Yield (suite name, passes, failures, first failing instance)."""
    q = tower.q
    # group relation suite: omega is an involution, eps conjugation rule,
    # inverse and associativity samples
    w = autgrp.omega(tower)
    eps = autgrp.epsilon(tower, tower.a)
    yield _tally("relations", [
        ("omega^2 = 1", autgrp.compose(w, w).is_identity()),
        ("eps inverse", autgrp.compose(eps, autgrp.inverse(eps)).is_identity()),
        ("omega eps omega = eps^-q",
         autgrp.compose(autgrp.compose(w, eps), w).m
         == autgrp.aut_pow(eps, -q).m),
    ])
    # v-sequence suite
    checks = []
    for kind, delta in (("sigma4", tower.a_pow(q - 1)),
                        ("sigma5", tower.a)):
        try:
            seq = formulas.VSequence(tower, delta, kind)
            closed = [seq.closed_form(i) for i in range(21)]
        except GFError:
            continue
        rec = seq.recurrence(20)
        for i in range(21):
            ok = rec[i] == closed[i]
            if kind == "sigma4":
                ok = ok and rec[i] == seq.binomial(i)
            checks.append((f"{kind} delta={tower.elt_str(delta)} i={i}", ok))
    yield _tally("v-sequence", checks)
    # Hurwitz integrality + filtration suite on a few standard groups
    specs = ["omega", "eps(a), omega", f"sigma4(delta=a^{q - 1})",
             "sigma5(delta=a)"]
    reports, checks = [], []
    for sp in specs:
        try:
            grp = autgrp.group_from_spec(tower, sp)
            rep = genus_of_quotient(tower, grp, with_count=True,
                                    dual_check=True)
            reports.append((sp, grp, rep))
            checks.append((sp, True))
        except GFError as ex:
            checks.append((f"{sp}: {ex}", False))
    yield _tally("hurwitz", checks)
    # maximality suite: a quotient of a maximal curve is maximal
    yield _tally("maximality", (
        (f"{sp}: n={rep.n_rational} vs {q * q + 1 + 2 * rep.genus * q}",
         rep.maximal) for sp, _grp, rep in reports))
    # tame crosscheck suite
    yield _tally("tame-crosscheck", (
        (sp, tame_diff_crosscheck(tower, grp) == rep.deg_diff)
        for sp, grp, rep in reports
        if grp.order % tower.p and gcd(grp.order, q * q - q + 1) == 1))


def cmd_verify(args) -> int:
    tower = _tower(*_factor_q(args.q))
    bad = 0
    for name, passes, fails, first in _verify_suites(tower):
        line = f"{name}: {passes} passed, {fails} failed"
        if first:
            line += f"  (first failure: {first})"
        _write(line)
        bad += fails
    return 1 if bad else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it
    unchanged and returns a fresh namespace, so main calls can share it."""
    ap = argparse.ArgumentParser(prog="hermquot", allow_abbrev=False,
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    # every subcommand takes its flags in full: an abbreviation exits 2
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    def q_flag(sp):
        sp.add_argument("--q", type=int, required=True, help="prime power q")

    g = add_parser("genus", help="genus of one quotient")
    q_flag(g)
    g.add_argument("--format", choices=["text", "json"], default="text")
    g.add_argument("--out", help="write output to a file")
    g.add_argument("--spec", help="generator list, e.g. 'eps(a), omega'")
    g.add_argument("--case", choices=formulas.CASES)
    g.add_argument("--m", type=int)
    g.set_defaults(func=cmd_genus)

    t = add_parser("table", help="sweep cases against their formulas")
    t.add_argument("--format", choices=["csv", "json"], default="csv")
    t.add_argument("--out", help="write output to a file")
    t.add_argument("--case", help="comma-separated case names (default all)")
    t.add_argument("--q-list", required=True,
                   help="comma-separated q values, one or more")
    t.set_defaults(func=cmd_table)

    v = add_parser("verify", help="run property suites")
    q_flag(v)
    v.set_defaults(func=cmd_verify)

    pl = add_parser("places", help="list places of the curve")
    q_flag(pl)
    pl.add_argument("--format", choices=["text", "json"], default="text")
    pl.add_argument("--with-degree3", action="store_true")
    pl.add_argument("--deg3-budget", type=int, default=DEFAULT_DEG3_BUDGET,
                    help="max |F_q^6| for --with-degree3")
    pl.set_defaults(func=cmd_places)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as ex:
        return 2 if ex.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, DSLError) as ex:
        print(f"usage error: {ex}", file=sys.stderr)
        return 2
    except GFError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
