"""Benchmark of hermquot quotient-genus runs.

    python3 bench/run.py --workload grid_count --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the benchmark imports the package
from `src/` there and exits with code 2 when it is missing. One process,
one thread, closed loop: each quotient starts when the previous one ends.

--trace 0 sets up several times (import plus every tower the workload
uses) and reports the median set-up time. It then runs whole passes over the
seeded inputs, at least one and more while another still fits in --seconds.
Within a pass, an input runs again, back to back, while it has taken less
than REPEAT_UNDER_S, up to REPEATS times. Throughput, p50 (the median) and
p90 (by nearest rank) come from each input's median over its runs. Every
time is scaled to a fixed host speed (see HostSpeed): this host's speed
moves by up to a half with its neighbours' load, between runs and within
one, and unscaled figures (also printed) spread by 15-30% across runs.

--trace 1 ignores --seconds. It runs each quotient untraced and then,
right after, with spans around each layer's public functions, and prints
the per-layer metrics and the tracing overhead (traced minus untraced
time, unscaled).

Every output is checked; a quotient that raises, exits non-zero or fails
its check counts as failed. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. The lines
before it, and `.bench_out/` in the checkout, carry the rest: failure
share, non-maximal count, output digest, machine information and the spans.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import traceback
from bisect import bisect_left, bisect_right
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracing import COUNT_NAMES, SPAN_NAMES, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("gf", "_linalg", "curve", "autgrp", "localval", "formulas",
           "engine", "cli")
SETUP_REPEATS = 5      # at least, and more until SETUP_MIN_S have passed
SETUP_MIN_S = 2.0
# An input runs again while it has taken less than REPEAT_UNDER_S, at most
# REPEATS times a pass. Below 0.25 s that is at least twice, and ten times
# for the 80 ms input at the 90th percentile of random_sweep, alone between
# 65 ms and 0.2 s: with three runs its median, and so p90, moved by 20%
# across seeds.
REPEATS = 10
REPEAT_UNDER_S = 0.5

# (name, unit); the same lists, with directions and bounds, are in
# BENCHMARK.json, which the self-test compares against these.
END_TO_END = [
    ("setup_s", "s"),
    ("quotients_per_s", "1/s"),
    ("quotient_p50_ms", "ms"),
    ("quotient_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]
PER_LAYER = (
    [(f"{n}.{k}", "count" if k == "calls" else "s")
     for n in SPAN_NAMES for k in ("calls", "self_s")]
    + [(n, "count") for n in COUNT_NAMES]
    + [("quotients.count", "count"), ("quotients.maximal_short", "count"),
       ("trace.spans", "count"), ("trace.unattributed_s", "s"),
       ("trace.untraced_s", "s"), ("trace.overhead_s", "s")]
)


def load_package():
    """Import hermquot afresh from the checkout's src/."""
    for name in [m for m in sys.modules
                 if m == "hermquot" or m.startswith("hermquot.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = {m: importlib.import_module(f"hermquot.{m}") for m in MODULES}
    return SimpleNamespace(**{m.lstrip("_"): mod for m, mod in mods.items()},
                           modules=mods)


def build_towers(h, wl):
    towers = {}
    for q in wl.qs:
        (p, e), = h.gf.factorize(q).items()
        towers[q] = h.gf.build_tower(p, e)
        wl.prepare(towers[q])
    return towers


def p90(sorted_vals):
    """The 90th percentile by nearest rank: the smallest of the values that
    at least 90% of them do not exceed, itself one of the measured times."""
    return sorted_vals[-(-9 * len(sorted_vals) // 10) - 1]


def _reference_loop():
    """Fixed interpreter work of the kind the program does: integer
    arithmetic, list indexing, dict updates and calls."""
    table, counts, acc = list(range(61)), {}, 0
    for i in range(4000):
        acc = (acc * 31 + table[i % 61] * i) % 65521
        counts[acc % 37] = counts.get(acc % 37, 0) + 1
    return acc + len(counts)


class HostSpeed:
    """Samples the host's speed with the reference loop.

    The host's speed moves by up to a half within seconds and between runs,
    with its neighbours' load, and CPU time follows wall time. So the loop
    is timed right before and right after every timed span, and, from a
    timer signal, every INTERVAL_S, also in the middle of a long span. A
    span is reported as its time less the samples taken inside it,
    multiplied by REFERENCE_S / r, where r is the mean loop time of the
    samples that start within PAD_S of the span: the time the work would
    take on a host where the loop takes REFERENCE_S. That constant is the
    loop's uncontended time on the machine the benchmark was written on
    (2 vCPUs, Xeon, Python 3.11); the run's own fastest loop is no
    substitute, since some runs never see the host uncontended.
    """

    INTERVAL_S = 0.03
    PAD_S = 0.01
    REFERENCE_S = 0.00075

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []

    def _record(self):
        t0 = perf_counter()
        _reference_loop()
        self.starts.append(t0)
        self.times.append(perf_counter() - t0)

    def sample(self):
        """One sample now; the timer waits until it is done, so that the
        samples stay in order and none is timed inside another."""
        signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGALRM])
        try:
            self._record()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, [signal.SIGALRM])

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM,
                                       lambda _sig, _frame: self._record())
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn):
        """Run fn between two samples; returns (its result, (start, end))."""
        self.sample()
        t0 = perf_counter()
        try:
            return fn(), (t0, perf_counter())
        finally:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        # a sample runs between two bytecodes, so it lies wholly inside or
        # wholly outside [t0, t1]
        inside = sum(self.times[bisect_left(self.starts, t0):
                                bisect_left(self.starts, t1)])
        lo = bisect_left(self.starts, t0 - self.PAD_S)
        hi = bisect_right(self.starts, t1 + self.PAD_S)
        local = statistics.fmean(self.times[lo:hi])
        return (t1 - t0 - inside) * self.REFERENCE_S / local

    def slowdown(self) -> float:
        return statistics.median(self.times) / self.REFERENCE_S


def run_one(wl, h, towers, idx, item, full, tracer=None, host=None):
    """Time one quotient and check it. Returns ((start, end) or None if it
    failed, digest row, non-maximal flag). With a host sampler, the host's
    speed is sampled right before and right after the timed part."""
    def timed_part():
        if tracer is not None:
            tracer.qid, tracer.active = idx, True
        try:
            return wl.run(h, towers, item)
        finally:
            if tracer is not None:
                tracer.active = False

    try:
        if host is not None:
            out, span = host.timed(timed_part)
        else:
            t0 = perf_counter()
            out = timed_part()
            span = (t0, perf_counter())
        ok, row, short = wl.check(h, towers, item, out, full)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None, (idx, "raised"), False
    if not ok:
        print(f"check failed: {item!r} -> {row!r}", file=sys.stderr)
        return None, row, short
    return span, row, short


def digest(rows) -> str:
    """A hash of the sorted rows: the seed only shuffles the grid's inputs,
    so the grid's digest is the same for every seed."""
    text = repr(sorted(repr(r) for r in rows))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def machine_info():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine()}


def measure(wl, seed, seconds):
    def setup():
        h = load_package()
        return h, build_towers(h, wl)

    setups = []
    with HostSpeed() as host:
        setup_start = perf_counter()
        while (len(setups) < SETUP_REPEATS
               or perf_counter() - setup_start < SETUP_MIN_S):
            # free the previous copy of the package, which lives in
            # reference cycles, so that peak_rss_mb does not grow with the
            # number of set-ups
            h = towers = None
            gc.collect()
            (h, towers), span = host.timed(setup)
            setups.append(span)
        items = wl.generate(h, towers, seed)
        spans = [[] for _ in items]  # (start, end) of every timed run
        failed = attempted = passes = 0
        digests = set()
        start = perf_counter()
        while True:
            rows, short = [], 0
            for idx, item in enumerate(items):
                # a cheap quotient runs again, back to back, so that its
                # median sees more than one instant of the host's speed
                busy = 0.0
                for rep in range(REPEATS):
                    span, row, is_short = run_one(
                        wl, h, towers, idx, item, full=passes == rep == 0,
                        host=host)
                    attempted += 1
                    if rep == 0:
                        rows.append(row)
                        short += is_short
                    elif row != rows[-1]:
                        print(f"repeat disagrees: {item!r}", file=sys.stderr)
                        span = None
                    if span is None:
                        failed += 1
                        break
                    spans[idx].append(span)
                    busy += span[1] - span[0]
                    if busy >= REPEAT_UNDER_S:
                        break
            if passes == 0:
                maximal_short, first_digest = short, digest(rows)
            digests.add(digest(rows))
            passes += 1
            elapsed = perf_counter() - start
            if elapsed * (passes + 1) / passes > seconds:
                break
    if len(digests) > 1:
        print(f"passes disagree: digests {sorted(digests)}", file=sys.stderr)
        failed = attempted
    # each input's median over its runs, scaled to the host's speed
    lat = sorted(statistics.median(host.scale(*sp) for sp in sps)
                 for sps in spans if sps)
    raw = sorted(statistics.median(t1 - t0 for t0, t1 in sps)
                 for sps in spans if sps)
    if not lat:
        raise RuntimeError("every quotient failed")
    metrics = {
        "setup_s": statistics.median(host.scale(*s) for s in setups),
        "quotients_per_s": len(lat) / sum(lat),
        "quotient_p50_ms": 1000 * statistics.median(lat),
        "quotient_p90_ms": 1000 * p90(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {"passes": passes, "inputs": len(lat),
             "timed_runs": sum(len(sps) for sps in spans),
             "ops_failed_frac": failed / attempted,
             "maximal_short": maximal_short, "digest": first_digest,
             "measured_s": elapsed,
             "host_slowdown": host.slowdown(),
             "unscaled": {"setup_s": statistics.median(t1 - t0
                                                       for t0, t1 in setups),
                          "quotients_per_s": len(raw) / sum(raw),
                          "quotient_p50_ms": 1000 * statistics.median(raw),
                          "quotient_p90_ms": 1000 * p90(raw)}}
    return metrics, extra, attempted, failed


def measure_traced(wl, seed, out_dir):
    """Each quotient runs untraced and then, right after, traced."""
    h = load_package()
    tracer = Tracer()
    bindings = tracer.install(h.modules)
    try:
        tracer.qid, tracer.active = "setup", True
        towers = build_towers(h, wl)
        tracer.active = False
        items = wl.generate(h, towers, seed)
        pairs, rows = [], []
        failed = short = 0
        for idx, item in enumerate(items):
            # alternate which of the pair runs first, so that warm-up lands
            # on each side equally often
            runs = {}
            for tr in ((None, tracer) if idx % 2 == 0 else (tracer, None)):
                runs[tr] = run_one(wl, h, towers, idx, item,
                                   full=tr is None, tracer=tr)
            (span0, row0, short0), (span1, row1, _) = runs[None], runs[tracer]
            rows.append(row0)
            short += short0
            if span0 is None or span1 is None or row0 != row1:
                failed += 1
            else:
                pairs.append((span0, span1))
    finally:
        tracer.restore(bindings)
    tracer.write(out_dir / f"{wl.name}-seed{seed}-spans.tsv")
    s = tracer.summary()
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = s["calls"].get(name, 0)
        metrics[f"{name}.self_s"] = s["self_s"].get(name, 0.0)
    for name in COUNT_NAMES:
        metrics[name] = tracer.counts.get(name, 0)
    plain = sum(t1 - t0 for (t0, t1), _ in pairs)
    traced = sum(t1 - t0 for _, (t0, t1) in pairs)
    metrics.update({
        "quotients.count": len(items),
        "quotients.maximal_short": short,
        "trace.spans": len(tracer.spans),
        "trace.unattributed_s": traced - s["top_s"],
        "trace.untraced_s": plain,
        "trace.overhead_s": traced - plain,
    })
    extra = {"ops_failed_frac": failed / len(items),
             "maximal_short": short, "digest": digest(rows)}
    return metrics, extra, len(items), failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hermquot" / "__init__.py").is_file():
        print(f"error: no hermquot sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload]
    if args.trace:
        metrics, extra, attempted, failed = measure_traced(wl, args.seed,
                                                           out_dir)
        units = dict(PER_LAYER)
    else:
        metrics, extra, attempted, failed = measure(wl, args.seed,
                                                    args.seconds)
        units = dict(END_TO_END)
    report = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "machine": machine_info(), **extra,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    (out_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    for key in ("machine", *extra):
        print(f"{key}: {report[key]}")
    for name, m in report["metrics"].items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
