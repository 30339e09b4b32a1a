"""Self-test of the benchmark.

    python3 bench/selftest.py

Checks, from the root of a source checkout:
  * BENCHMARK.json lists exactly the metrics and units that run.py prints;
  * without src/ next to it, run.py exits non-zero and prints no result;
  * two traced runs of one seed give correct outputs and identical counts;
  * the layer predictions of the workload design hold: the twisted point
    count runs only on grid_count, F_(q^6) root finding never runs on
    wild_cli, and each layer a workload is meant to load has work on it.
Exits 1 when a check fails.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import END_TO_END, PER_LAYER, ROOT
from workloads import WORKLOADS

# metric -> workload -> True (must be > 0) or False (must be 0)
PREDICTIONS = {
    "engine.twisted_fix_count.calls": {"grid_count": True,
                                       "random_sweep": False,
                                       "wild_cli": False},
    "gf.poly_roots.q6.calls": {"random_sweep": True, "wild_cli": False},
    "gf.poly_roots.q2.calls": {"wild_cli": True},
    "formulas.calls": {"grid_count": True, "wild_cli": False},
    "cli.main.calls": {"wild_cli": True, "grid_count": False},
    "localval.i_value.calls": {"wild_cli": True},
}

SEED = 12345
failures = []


def expect(cond, what):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def run_bench(script_root: Path, *args):
    return subprocess.run([sys.executable, str(script_root / "bench" / "run.py"),
                           *args], cwd=script_root, capture_output=True,
                          text=True, timeout=900)


def check_manifest():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    got = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect(got == dict(END_TO_END), "BENCHMARK.json end_to_end matches run.py")
    got = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(got == dict(PER_LAYER), "BENCHMARK.json per_layer matches run.py")
    expect({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
           "BENCHMARK.json workloads match workloads.py")


def check_bare_directory():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_bench(bare, "--workload", "wild_cli", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without src/ the benchmark exits non-zero and prints no result")


def traced(workload, seed):
    proc = run_bench(ROOT, "--workload", workload, "--seed", str(seed),
                     "--trace", "1")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_workload(workload, seed):
    first, second = traced(workload, seed), traced(workload, seed)
    expect(first is not None and second is not None,
           f"{workload}: traced runs exit 0")
    if first is None or second is None:
        return
    for res in (first, second):
        expect(res["correct"] and res["failed"] == 0,
               f"{workload}: {res['attempted']} quotients correct")
    counts = {k: v["value"] for k, v in first["metrics"].items()
              if v["unit"] == "count"}
    again = {k: v["value"] for k, v in second["metrics"].items()
             if v["unit"] == "count"}
    diff = sorted(k for k in counts if counts[k] != again.get(k))
    expect(not diff, f"{workload}: counts repeat exactly {diff or ''}")
    for metric, by_wl in PREDICTIONS.items():
        if workload in by_wl:
            v = counts[metric]
            expect((v > 0) == by_wl[workload],
                   f"{workload}: {metric} = {v} "
                   f"({'> 0' if by_wl[workload] else '= 0'} predicted)")
    overhead = first["metrics"]["trace.overhead_s"]["value"]
    base = first["metrics"]["trace.untraced_s"]["value"]
    print(f"      {workload}: tracing overhead {overhead:.3f} s over "
          f"untraced quotients of {base:.3f} s")


def main() -> int:
    check_manifest()
    check_bare_directory()
    for wl in sorted(WORKLOADS):
        check_workload(wl, SEED)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
