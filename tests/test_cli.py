"""Command line interface: exit codes, output formats, table sweeps."""

import argparse
import csv
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hermquot
from hermquot import cli
from hermquot.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_genus_text_output(capsys):
    code, out, _ = run_cli(capsys, "genus", "--q", "4", "--spec", "eps(a), omega")
    assert code == 0
    assert "genus" in out and "0" in out


def test_genus_json_output(capsys):
    code, out, _ = run_cli(capsys, "genus", "--q", "4", "--spec", "eps(a), omega",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["genus"] == 0
    assert doc["q"] == 4
    assert doc["group"]["order"] == 30
    assert doc["orbits"]


def test_back_to_back_calls_share_no_parsed_state(capsys):
    # the parser is built once per process; a flag or an error of one call
    # must not carry over to the next
    assert build_parser() is build_parser()
    argv = ("genus", "--q", "4", "--spec", "eps(a), omega")
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0 and json.loads(out)["genus"] == 0
    assert run_cli(capsys, *argv, "--format", "csv")[0] == 2
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out.startswith("q = 4  |G| = 30")


def test_towers_are_shared_across_calls(capsys):
    # one tower per q per process: a call at q = 4 after one at q = 5
    # prints what the first call at q = 4 printed
    argv = ("--spec", "eps(a), omega", "--format", "json")
    outs = [run_cli(capsys, "genus", "--q", q, *argv) for q in ("4", "5", "4")]
    assert [code for code, _o, _e in outs] == [0, 0, 0]
    assert outs[2][1] == outs[0][1] != outs[1][1]
    assert cli._tower(2, 2) is cli._tower(2, 2)


def test_genus_json_counts_every_rational_place(capsys):
    code, out, _ = run_cli(capsys, "genus", "--q", "4", "--spec", "eps(a), omega",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n_rational_quotient"] == 4 * 4 + 1 == 17
    assert doc["n_rational_deg1_deg3"] == 5
    assert doc["maximal"] is True
    assert "uncounted_orders" not in doc


def test_genus_singer_count(capsys):
    # an element of order 7 with an irreducible cubic characteristic
    # polynomial, counted on the Singer-type path
    spec = "tau(a^1, a^0) * omega * eps(a^7)"
    code, out, _ = run_cli(capsys, "genus", "--q", "3", "--spec", spec,
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["genus"] == 0
    assert doc["n_rational_quotient"] == 10 and doc["maximal"] is True
    code, out, _ = run_cli(capsys, "genus", "--q", "3", "--spec", spec)
    assert code == 0
    assert "quotient rational places = 10  maximal = True" in out


def test_genus_named_case(capsys):
    code, out, _ = run_cli(capsys, "genus", "--q", "9", "--case", "t522",
                           "--m", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["genus"] == 4
    assert doc["formula"]["expected"] == 4
    assert doc["formula"]["matched"] is True


def test_genus_empty_spec_is_identity(capsys):
    code, out, _ = run_cli(capsys, "genus", "--q", "4", "--spec", "",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["genus"] == 6


def test_genus_mismatch_exit_code(capsys, monkeypatch):
    # exit 1 when a named case disagrees with the engine; force a wrong
    # expectation to exercise the path
    import hermquot.cli as cli

    monkeypatch.setattr(cli.formulas, "expected_genus", lambda *a, **k: 99)
    code, out, _ = run_cli(capsys, "genus", "--q", "9", "--case", "t522",
                           "--m", "5")
    assert code == 1


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "genus", "--q", "4", "--spec", "eps(")
    assert code == 2


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "genus", "--q", "4")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("genus", "--q", "4", "--spec", "omega", "--jobs", "2"),
    ("genus", "--q", "4", "--spec", "omega", "--format", "csv"),
    ("verify", "--q", "2", "--format", "json"),
    ("places", "--q", "2", "--out", "f"),
    ("table", "--q-list", "4", "--p", "2"),
    ("genus", "--q", "6", "--spec", "omega"),  # not a prime power
    ("genus", "--q", "4", "--spec", "eps(a), omega", "--horizon", "20"),
    ("table", "--q-list", "5,x"),
    ("table", "--q-list", "5,,7"),
    ("genus", "--p", "2", "--e", "0", "--spec", "omega"),
    ("genus", "--p", "4", "--spec", "omega"),  # p not prime
    ("genus", "--q", "4", "--case", "t3", "--m", "0"),
    ("genus", "--q", "4", "--case", "t3", "--m", "-1"),
    ("genus", "--q", "4", "--case", "t3", "--m", "7"),  # 7 does not divide 15
    # q above 1024 (q^2 above TABLE_LIMIT), rejected before any trial
    # division or p ** e runs on it
    ("genus", "--q", "1000000000000000003", "--spec", "omega"),
    ("verify", "--p", "1000000000000000003"),
    ("table", "--q-list", "1000000000000000003"),
    ("genus", "--p", "2", "--e", "1000000000", "--spec", "omega"),
    ("genus", "--q", "2048", "--spec", "omega"),
    ("table", "--q", "4", "--q-list", "8"),
    # one spelling per input: no --p/--e, table takes --q-list only, and
    # no flag is accepted under a prefix
    ("places", "--q", "2", "--p", "2"),
    ("verify", "--q", "2", "--e", "1"),
    ("table", "--q", "4"),
    ("verify",),  # --q is required
    ("genus", "--q", "4", "--sp", "omega"),
    ("genus", "--q", "4", "--spec", "omega", "--form", "json"),
    ("places", "--q", "2", "--with"),
    ("table", "--q-l", "4"),
    ("table", "--q-list", "4", "--ca", "t3"),
])
def test_unknown_flag_format_or_q_exit_code(capsys, argv):
    t0 = time.monotonic()
    code, _, _ = run_cli(capsys, *argv)
    assert code == 2
    assert time.monotonic() - t0 < 1


# each subcommand's flags, as README.md's "Flags per subcommand" lists them:
# adding or dropping a flag changes this table and the README with it
FLAGS = {
    "genus": {"--q", "--spec", "--case", "--m", "--format", "--out"},
    "table": {"--q-list", "--case", "--format", "--out"},
    "verify": {"--q"},
    "places": {"--q", "--format", "--with-degree3", "--deg3-budget"},
}


def _subcommand_parsers():
    action, = [a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_flags_per_subcommand_match_the_readme():
    parsed = {name: {s for a in sp._actions for s in a.option_strings}
              - {"-h", "--help"} for name, sp in _subcommand_parsers().items()}
    assert parsed == FLAGS
    assert sum(map(len, FLAGS.values())) == 15
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("Flags per subcommand")[1].split("\n\n")[1]
    bullets = re.findall(r"^- `(\w+)`:(.*?)(?=^- |\Z)", section, re.M | re.S)
    assert {name: set(re.findall(r"`(--[\w-]+)", text))
            for name, text in bullets} == FLAGS


def test_no_flag_is_accepted_under_a_prefix():
    # every strict prefix of a flag that is not a flag itself stays
    # unrecognised, so the command exits 2 on it
    required = {"table": ["--q-list", "2"]}
    ap = build_parser()
    for name, flags in FLAGS.items():
        argv = [name, *required.get(name, ["--q", "2"])]
        prefixes = {f[:n] for f in flags for n in range(3, len(f))} - flags
        for prefix in sorted(prefixes):
            _args, extras = ap.parse_known_args(argv + [prefix])
            assert extras == [prefix], (name, prefix)


def test_table_q5_hypothesis_skips(capsys):
    code, out, _ = run_cli(capsys, "table", "--q-list", "5", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows
    t421_rows = [r for r in rows if r["case"] == "t421"]
    assert t421_rows
    for r in t421_rows:
        assert r["status"] == "skipped(hypothesis)"
        assert r["computed"] != ""  # engine still reports a genus
    assert all(r["status"] != "FAILED" for r in rows)
    matched = [r for r in rows if r["status"] == "matched"]
    assert matched
    for r in matched:
        assert r["computed"] == r["expected"]


def test_table_t511_skipped_at_q2(capsys):
    # at q = 2 sigma5(delta=a^3) has order 6, not q^2 - 1 = 3, so the
    # closed form does not describe the groups the spec builds
    code, out, _ = run_cli(capsys, "table", "--q-list", "2", "--case", "t511",
                           "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["m"] for r in rows] == ["1", "3"]
    assert all(r["status"] == "skipped(hypothesis)" for r in rows)


def test_table_repeated_q_gives_each_row_once(capsys):
    code, out, _ = run_cli(capsys, "table", "--q-list", "4,4", "--case", "t3",
                           "--format", "csv")
    assert code == 0
    keys = [(r["case"], r["q"], r["m"])
            for r in csv.DictReader(io.StringIO(out))]
    assert keys == [("t3", "4", m) for m in ("1", "3", "5", "15")]


def test_table_json(capsys):
    code, out, _ = run_cli(capsys, "table", "--q-list", "4", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert all(r["status"] in ("matched", "skipped(hypothesis)") for r in rows)


def test_places_listing(capsys):
    code, out, _ = run_cli(capsys, "places", "--q", "2")
    assert code == 0
    assert out.count("P(") + out.count("P_inf") == 9
    assert "9 rational places" in out


def test_places_with_degree3(capsys):
    code, out, _ = run_cli(capsys, "places", "--q", "2", "--with-degree3")
    assert code == 0
    assert "P3[" in out
    assert "24 places of degree 3" in out


def test_places_degree3_budget_exceeded_text(capsys):
    code, out, _ = run_cli(capsys, "places", "--q", "2", "--with-degree3",
                           "--deg3-budget", "10")
    assert code == 0
    assert "budget exceeded" in out
    assert "P3[" not in out


def test_places_negative_budget_exit_code(capsys):
    code, _, err = run_cli(capsys, "places", "--q", "2", "--with-degree3",
                           "--deg3-budget", "-5")
    assert code == 2
    assert "--deg3-budget" in err


@pytest.mark.parametrize("argv, message", [
    (("--spec", "omega", "--out", "/nonexistent-dir/x"), "cannot write --out"),
    (("--spec", "omega", "--case", "t3", "--m", "3"), "exclude each other"),
    (("--spec", "omega", "--m", "3"), "--m requires --case"),
])
def test_genus_flag_error_exit_code(capsys, argv, message):
    code, _, err = run_cli(capsys, "genus", "--q", "2", *argv)
    assert code == 2
    assert err.startswith("usage error:") and message in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("spec, message", [
    ("eps(0)", "needs a != 0"),
    ("sigma4(delta=0)", "needs delta != 0"),
    ("tau(a, 0)", "affine constraint"),
    ("omega,", "unexpected end of spec at position 6"),
])
def test_spec_parameter_error_exit_code(capsys, spec, message):
    code, _, err = run_cli(capsys, "genus", "--q", "4", "--spec", spec)
    assert code == 2
    assert message in err


def test_verify_reports_suites(capsys):
    code, out, _ = run_cli(capsys, "verify", "--q", "2")
    assert "relations:" in out
    assert "v-sequence:" in out
    assert "hurwitz:" in out
    assert "maximality: 4 passed, 0 failed\n" in out


def test_verify_skips_degenerate_closed_form(capsys):
    # at q = 3 the sigma4 delta = a^(q-1) has delta^2 + 1 = 0, so the closed
    # form of its v-sequence is undefined and that kind is skipped
    code, out, err = run_cli(capsys, "verify", "--q", "3")
    assert code == 0, err
    assert "v-sequence: 21 passed, 0 failed" in out
    assert all(" 0 failed" in line for line in out.splitlines())


def test_verify_detects_injected_fault(capsys, monkeypatch):
    # corrupt a generator relation and confirm the relations suite notices
    import hermquot.autgrp as autgrp
    import hermquot.cli as cli

    real_epsilon = autgrp.epsilon

    def skewed(tower, a):
        f = real_epsilon(tower, a)
        return autgrp.compose(f, autgrp.omega(tower))

    monkeypatch.setattr(cli.autgrp, "epsilon", skewed)
    code, out, _ = run_cli(capsys, "verify", "--q", "2")
    assert code == 1
    line = next(l for l in out.splitlines() if l.startswith("relations:"))
    assert " 0 failed" not in line


def test_closed_pipe_ends_output_quietly():
    # about 85 KB of output, more than a 64 KiB pipe buffer holds, so the
    # command is still writing when the reader closes the pipe after one line
    src = os.path.dirname(os.path.dirname(hermquot.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "hermquot.cli", "places", "--q", "16",
         "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().strip() == b"{"
    proc.stdout.close()
    code = proc.wait(timeout=60)
    with proc.stderr:
        assert proc.stderr.read() == b""
    assert code == 0
