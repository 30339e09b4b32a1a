"""Spans and counts around the public functions of each hermquot layer.

The wrappers live here, in the benchmark, not in the program. A function is
wrapped under every name that binds it: `engine` imports `poly_roots`,
`kernel`, `on_curve`, `aut_order`, `apply_place` and `ramification_data` by
name, `localval` imports `apply_place`, and `cli` imports
`genus_of_quotient` and `build_tower`, so replacing only the defining
module's attribute would miss most calls. `restore` puts every original
back.

A span is (name, start, end, parent index, quotient id). Spans stay in
memory until the run ends. A layer's self time is its spans' durations
minus the time covered by their child spans.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter


def _poly_roots_name(args, _kwargs):
    lvl = args[0]
    return "gf.poly_roots.q2" if lvl.size == lvl.q * lvl.q else "gf.poly_roots.q6"


# (defining module, function, span name or name function, and an optional
# count: its name and a function of the call's result)
SPANNED = [
    ("gf", "build_tower", "gf.build_tower", None),
    ("gf", "poly_roots", _poly_roots_name, ("gf.poly_roots.roots", len)),
    ("_linalg", "kernel", "linalg.kernel", None),
    ("autgrp", "parse_spec", "autgrp.parse_spec", None),
    ("autgrp", "close_group", "autgrp.close_group",
     ("autgrp.close_group.elements", lambda grp: grp.order)),
    ("autgrp", "aut_order", "autgrp.aut_order", None),
    ("autgrp", "apply_place", "autgrp.apply_place", None),
    ("localval", "ramification_data", "localval.ramification_data", None),
    ("localval", "i_value", "localval.i_value", None),
    ("localval", "expand_at", "localval.expand_at", None),
    ("engine", "fixed_rational_places", "engine.fixed_rational_places",
     ("engine.fixed_rational_places.places", len)),
    ("engine", "pointwise_fixed_degree3_places",
     "engine.pointwise_fixed_degree3_places",
     ("engine.pointwise_fixed_degree3_places.places", len)),
    ("engine", "twisted_fix_count", "engine.twisted_fix_count",
     ("engine.twisted_fix_count.points", int)),
    ("engine", "genus_of_quotient", "engine.genus_of_quotient", None),
    ("formulas", "case_modulus", "formulas", None),
    ("formulas", "case_spec", "formulas", None),
    ("formulas", "expected_genus", "formulas", None),
    ("cli", "main", "cli.main", None),
]

# Called once per candidate point, so counted without a span: a span each
# would cost more than the test itself.
COUNTED = [("curve", "on_curve", "curve.on_curve")]

SPAN_NAMES = sorted({s[2] for s in SPANNED if isinstance(s[2], str)}
                    | {"gf.poly_roots.q2", "gf.poly_roots.q6"})
COUNT_NAMES = ([s[3][0] for s in SPANNED if s[3] is not None]
               + [f"{c[2]}.{k}" for c in COUNTED for k in ("calls", "hits")])


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.active = False
        self.qid = None

    def spanned(self, fn, name, count):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name(args, kwargs)
            spans = self.spans
            idx = len(spans)
            spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(idx)
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                spans[idx] = (label, t0, t1, parent, self.qid)
            if count is not None:
                self.counts[count[0]] += count[1](res)
            return res
        return wrapper

    def counted(self, fn, name):
        calls, hits = name + ".calls", name + ".hits"

        def wrapper(*args, **kwargs):
            res = fn(*args, **kwargs)
            if self.active:
                self.counts[calls] += 1
                self.counts[hits] += bool(res)
            return res
        return wrapper

    def install(self, modules: dict) -> list:
        """Wrap every binding of each target in the given hermquot modules
        (name -> module). Returns the bindings for `restore`."""
        bindings = []
        targets = [(m, f, self.spanned, (n, x)) for m, f, n, x in SPANNED]
        targets += [(m, f, self.counted, (n,)) for m, f, n in COUNTED]
        for modname, fname, make, extra_args in targets:
            orig = getattr(modules[modname], fname)
            wrapper = make(orig, *extra_args)
            for mod in modules.values():
                if mod.__dict__.get(fname) is orig:
                    setattr(mod, fname, wrapper)
                    bindings.append((mod, fname, orig))
        return bindings

    @staticmethod
    def restore(bindings: list):
        for mod, fname, orig in bindings:
            setattr(mod, fname, orig)

    def summary(self) -> dict:
        """calls and self seconds per span name, plus the top-level time
        spent inside quotients (setup spans excluded)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _qid in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s: dict = defaultdict(float)
        calls: Counter = Counter()
        top = 0.0
        for i, (name, t0, t1, parent, qid) in enumerate(spans):
            self_s[name] += (t1 - t0) - child[i]
            calls[name] += 1
            if parent < 0 and qid != "setup":
                top += t1 - t0
        return {"self_s": self_s, "calls": calls, "top_s": top}

    def write(self, path):
        """Spans as tab-separated lines, times in seconds from the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\tquotient\n")
            for i, (name, t0, t1, parent, qid) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{t0 - origin:.9f}\t{t1 - origin:.9f}"
                         f"\t{parent}\t{qid}\n")
