"""The benchmark's output digests at seed 1, pinned: a change that keeps the
engine's outputs keeps them. The workloads, their checks and the digest are
the benchmark's own (bench/workloads.py, bench/run.py), imported as they are
and run on the package already imported here."""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

DIGESTS = {"grid_count": "fba0584562d2a9a0",
           "random_sweep": "21df737563f346bd",
           "wild_cli": "eb88077d584ae80c"}


@pytest.fixture(scope="module")
def bench():
    # read only: no bytecode is written under bench/
    sys.path.insert(0, str(BENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        run = importlib.import_module("run")
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = dont_write
    h = SimpleNamespace(**{m.lstrip("_"): importlib.import_module(
        f"hermquot.{m}") for m in run.MODULES})
    return run, h


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_seed_1_digest(bench, name):
    # every input passes the workload's full check, and the rows hash to
    # the digest that the benchmark prints at seed 1
    run, h = bench
    wl = run.WORKLOADS[name]
    towers = run.build_towers(h, wl)
    rows = []
    for item in wl.generate(h, towers, 1):
        ok, row, _short = wl.check(h, towers, item, wl.run(h, towers, item),
                                   True)
        assert ok, item
        rows.append(row)
    assert run.digest(rows) == DIGESTS[name]
