"""The ggslab command-line interface, driven in process."""

import json
import os
import subprocess
import sys
import time

import pytest

from ggslab import cli, core, quotients
from ggslab.core import GgsGroup
from ggslab.cli import VERIFY_NAMES, main
from ggslab.words import concat

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# classify -------------------------------------------------------------------


def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", "--group", "p=3;e=1,2")
    assert code == 0
    assert out.splitlines() == [
        "p = 3",
        "e = 1,2",
        "lambda = 0",
        "family = torsion",
        "torsion = true",
        "branch = true",
    ]


def test_classify_constant_vector_notes_weak_branching(capsys):
    code, out, _ = run(capsys, "classify", "--group", "p=3;e=1,1")
    assert code == 0
    lines = out.splitlines()
    assert "family = constant" in lines
    assert lines[-1] == "branch = false (weakly branch only: constant defining vector)"


def test_classify_scaled_constant_vector(capsys):
    code, out, _ = run(capsys, "classify", "--group", "p=3;e=2,2")
    assert code == 0
    lines = out.splitlines()
    assert "e = 2,2" in lines
    assert "family = constant" in lines
    assert lines[-1] == "branch = false (weakly branch only: constant defining vector)"


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "--group", "p=5;e=1,0,2,4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "p": 5,
        "e": [1, 0, 2, 4],
        "lambda": 2,
        "family": "generic_nontorsion",
        "torsion": False,
        "branch": True,
    }


# word commands --------------------------------------------------------------


def test_act(capsys):
    code, out, _ = run(capsys, "act", "--group", "p=3;e=1,2", "a", "3.1")
    assert code == 0
    assert out.strip() == "1.1"


def test_act_root(capsys):
    code, out, _ = run(capsys, "act", "--group", "p=3;e=1,2", "b", "")
    assert code == 0
    assert out.strip() == ""


def test_section(capsys):
    code, out, _ = run(capsys, "section", "--group", "p=3;e=1,2", "b", "3")
    assert code == 0
    assert out.strip() == "b"
    code, out, _ = run(capsys, "section", "--group", "p=3;e=1,2", "b", "1")
    assert out.strip() == "a"
    code, out, _ = run(capsys, "section", "--group", "p=3;e=1,2", "a", "1", "--json")
    assert json.loads(out) == {"word": "1"}


def test_equal(capsys):
    code, out, _ = run(capsys, "equal", "--group", "p=3;e=1,2", "b^3", "1")
    assert code == 0
    assert out.strip() == "true"
    code, out, _ = run(capsys, "equal", "--group", "p=3;e=1,2", "a", "b")
    assert code == 0
    assert out.strip() == "false"
    code, out, _ = run(capsys, "equal", "--group", "p=3;e=1,2", "a b", "b a", "--json")
    assert json.loads(out) == {"equal": False}


def test_equal_exits_3_when_sections_stop_contracting(capsys, monkeypatch):
    section = GgsGroup.section_word
    # each section carries its whole word along, so no depth bound holds
    monkeypatch.setattr(GgsGroup, "section_word",
                        lambda self, w, r: concat(section(self, w, r), w))
    # the relator [b, b^{(b^{a^6})^2}], trivial at this group
    relator = "b^6 a b^5 a^6 b^6 a b^2 a^6 b a b^5 a^6 b a b^2 a^6"
    code, out, err = run(capsys, "equal", "--group", "p=7;e=1,0,0,0,0,0", relator, "1")
    assert code == 3
    assert out == ""
    assert err.startswith("cross-check failed: ")
    assert "past the contraction bound 3" in err


def test_length(capsys):
    code, out, _ = run(capsys, "length", "--group", "p=3;e=1,2", "b a b")
    assert code == 0
    assert out.strip() == "2"
    code, out, _ = run(capsys, "length", "--group", "p=3;e=1,2", "b a b", "--length-cap", "1")
    assert code == 0
    assert out.strip() == "unknown (cap=1)"
    code, out, _ = run(capsys, "length", "--group", "p=3;e=1,2", "b a b",
                       "--length-cap", "1", "--json")
    assert json.loads(out) == {"length": None, "cap": 1}


def test_length_whose_last_level_is_unconfirmed_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(core, "solve_linear_mod_p", lambda rows, rhs, p: None)
    code, out, err = run(capsys, "length", "--group", "p=5;e=1,0,2,4", "a b^2 a^3 b a^2 b^4 a")
    assert code == 3
    assert out == ""
    assert err.startswith("cross-check failed: ")


def test_length_on_the_floor_answers_in_a_subprocess():
    # the floor total of (b a)^12 is its syllable count, so the search runs
    # only the last level; walking every 12-syllable class sequence before
    # w's own ran past 20 s
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-m", "ggslab", "length", "--group", "p=5;e=1,0,2,4",
                           "b a " * 12, "--length-cap", "12"],
                          capture_output=True, env=env, timeout=20)
    assert proc.returncode == 0
    assert proc.stdout == b"12\n"


def test_abelianize(capsys):
    code, out, _ = run(capsys, "abelianize", "--group", "p=3;e=1,2", "a b^2 a b")
    assert code == 0
    assert out.strip() == "(2, 0)"
    code, out, _ = run(capsys, "abelianize", "--group", "p=3;e=1,2", "b", "--json")
    assert json.loads(out) == {"a_exponent": 0, "b_exponent": 1}


# quotients ------------------------------------------------------------------


def test_quotient_level_one(capsys):
    code, out, _ = run(capsys, "quotient", "--group", "p=3;e=1,2", "1")
    assert code == 0
    assert out.splitlines() == ["level = 1", "order = 3"]


def test_quotient_census_text(capsys):
    code, out, _ = run(capsys, "quotient", "--group", "p=3;e=1,2", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "level = 2"
    assert lines[1] == "order = 27"
    assert lines[2] == "maximal subgroups = 4"
    assert lines[3] == "  functional (1,0): index 3, normal"
    assert len(lines) == 7


def test_quotient_census_json(capsys):
    code, out, _ = run(capsys, "quotient", "--group", "p=3;e=1,1", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 81
    assert data["count"] == 4
    assert [r["functional"] for r in data["maximal"]] == [[1, 0], [1, 1], [1, 2], [0, 1]]


@pytest.mark.parametrize("level", ["1", "2", "3"])
def test_quotient_builds_the_level_quotient_once(capsys, monkeypatch, level):
    calls = []
    real = quotients.level_quotient

    def spy(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(quotients, "level_quotient", spy)
    monkeypatch.setattr(cli, "level_quotient", spy)
    code, _, _ = run(capsys, "quotient", "--group", "p=3;e=1,0", level)
    assert code == 0
    assert calls == [int(level)]


@pytest.mark.parametrize("level", ["6", "10000", "100000000"])
def test_quotient_leaf_guard_refuses_deep_levels_at_once(capsys, level):
    # 3^10000 has too many digits to print; 3^100000000 took over 20 s to
    # compute; at 3^6 = 729 leaves the stabilizer chain ran for over a minute
    start = time.perf_counter()
    code, out, err = run(capsys, "quotient", "--group", "p=3;e=1,2", level)
    assert code == 4
    assert out == ""
    assert "more than 529 leaves" in err
    assert time.perf_counter() - start < 1.0


def test_quotient_order_against_closed_form_exits_3(capsys, monkeypatch):
    # the census checks the chain's order against the closed form
    real = quotients.level_quotient

    def wrong_order(group, n):
        q = real(group, n)
        q.order *= group.p
        return q

    monkeypatch.setattr(quotients, "level_quotient", wrong_order)
    code, out, err = run(capsys, "quotient", "--group", "p=3;e=1,2", "2")
    assert code == 3
    assert out == ""
    assert "!= closed form 27" in err
    # constant vectors are compared with their own closed form, an empirical fit
    code, out, err = run(capsys, "quotient", "--group", "p=3;e=2,2", "2")
    assert code == 3
    assert out == ""
    assert "!= empirical closed form 81" in err


# verify ---------------------------------------------------------------------


def test_verify_single_check(capsys):
    code, out, _ = run(capsys, "verify", "--group", "p=3;e=1,2", "commutator-tuple")
    assert code == 0
    assert out.strip() == "commutator-tuple: pass cases=3 passed=3 skipped=0"


def test_verify_skip_note(capsys):
    code, out, _ = run(capsys, "verify", "--group", "p=3;e=1,2", "split-case")
    assert code == 0
    assert "skipped=1" in out
    assert "(" in out  # the note is appended in parentheses


def test_verify_all_green_on_constant_group(capsys):
    code, out, _ = run(capsys, "verify", "--group", "p=3;e=1,1", "all", "--seed", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == len(VERIFY_NAMES)
    assert all(": pass" in line or "skipped=1" in line for line in lines)
    assert not any("FAIL" in line for line in lines)


def test_verify_json_deterministic(capsys):
    args = ("verify", "--group", "p=3;e=1,2", "--json", "--seed", "9",
            "commutator-tuple", "derived-product", "length-contraction")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical for a fixed seed
    reports = json.loads(out1)
    assert [r["lemma"] for r in reports] == ["commutator-tuple", "derived-product",
                                             "length-contraction"]
    assert all(r["seed"] == 9 for r in reports)


def test_verify_seed_defaults_to_zero(capsys, monkeypatch):
    # the seed comes from --seed alone; the environment is not read
    for raw in ("33", "many"):
        monkeypatch.setenv("GGSLAB_SEED", raw)
        code, out, _ = run(capsys, "verify", "--group", "p=3;e=1,2", "--json", "derived-product")
        assert code == 0
        assert json.loads(out)[0]["seed"] == 0


def test_verify_flag_seed_beats_environment(capsys, monkeypatch):
    monkeypatch.setenv("GGSLAB_SEED", "33")
    code, out, _ = run(capsys, "verify", "--group", "p=3;e=1,2", "--json",
                       "--seed", "4", "derived-product")
    assert code == 0
    assert json.loads(out)[0]["seed"] == 4


@pytest.mark.parametrize("seed, err", [
    ("-7", "error: seed must be an integer >= 0, got -7"),
    ("-1", "error: seed must be an integer >= 0, got -1"),
    ("seven", "argument --seed: invalid int value: 'seven'"),
], ids=["-7", "-1", "seven"])
def test_verify_seed_must_be_a_nonnegative_integer(capsys, seed, err):
    # random.Random(-7) draws the stream of random.Random(7), so a negative
    # seed would rerun another seed's sweep and report it under its own name;
    # the sweeps refuse it, argparse refuses what is not an int
    try:
        code = main(["verify", "--group", "p=3;e=1,2", "--seed", seed, "circulant"])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert err in captured.err


def test_verify_counterexamples_exit_code(capsys, monkeypatch):
    def fake_sweep(group, seed=0):
        return {"lemma": "commutator-tuple", "seed": seed, "cases_run": 3,
                "passed": 2, "skipped": 0,
                "counterexamples": [{"letter": 1, "detail": "forced for the test"}]}

    monkeypatch.setattr(cli.lemmas, "sweep_commutator_tuple", fake_sweep)
    code, out, _ = run(capsys, "verify", "--group", "p=3;e=1,2", "commutator-tuple")
    assert code == 3
    assert "commutator-tuple: FAIL cases=3 passed=2 skipped=0 counterexamples=1" in out


def test_verify_split_case_exits_3_on_a_broken_section_route(capsys, monkeypatch):
    real = GgsGroup._section_uncached
    monkeypatch.setattr(GgsGroup, "_section_uncached",
                        lambda self, w, r: real(self, w, (r + 1) % self.p))
    code, out, _ = run(capsys, "verify", "--group", "p=3;e=1,1", "split-case")
    assert code == 3
    assert out == "split-case: FAIL cases=1000 passed=0 skipped=0 counterexamples=1000\n"


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "--group", "p=3;e=1,2", "no-such-check")
    assert code == 2
    assert "unknown check" in err


# error handling -------------------------------------------------------------


def test_bad_group_spec_exits_2(capsys):
    code, _, err = run(capsys, "classify", "--group", "p=3,e=1,2")
    assert code == 2
    assert err.startswith("error:")
    code, _, _ = run(capsys, "classify", "--group", "p=4;e=1,1,1")
    assert code == 2
    # a huge p with a short vector fails on length, before any trial division
    code, _, err = run(capsys, "classify", "--group", "p=1000000000000000003;e=1")
    assert code == 2
    assert "entries" in err
    for p in (0, 1, 9):
        code, _, _ = run(capsys, "classify", "--group", f"p={p};e=" + ",".join(["1"] * max(p - 1, 1)))
        assert code == 2


def test_bad_word_and_vertex_exit_2(capsys):
    code, _, err = run(capsys, "equal", "--group", "p=3;e=1,2", "c", "b")
    assert code == 2
    code, _, err = run(capsys, "act", "--group", "p=3;e=1,2", "a", "4.1")
    assert code == 2
    assert "vertex" in err


@pytest.mark.parametrize("argv", [
    ("act", "--group", "p=3;e=1,2", "a", "+1. 2"),
    ("section", "--group", "p=31;e=1" + ",0" * 29, "a", "3_0"),
], ids=["act", "section"])
def test_vertex_letters_int_would_take_exit_2(capsys, argv):
    # int() reads "+1" and " 2", so this act once printed 2.2, and "3_0" as letter 30
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad vertex letter")


# past the interpreter's 4,300-digit limit on converting text to int
LONG_INT = "7" * 5000


@pytest.mark.parametrize("argv", [
    ("act", "--group", "p=3;e=1,0", f"a^{LONG_INT}", "1"),
    ("equal", "--group", "p=3;e=1,0", "a", f"b^-{LONG_INT}"),
    ("classify", "--group", f"p={LONG_INT};e=1,0"),
    ("classify", "--group", f"p=3;e=1,{LONG_INT}"),
], ids=["act-word", "equal-word", "spec-p", "spec-e"])
def test_too_many_digits_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "too many digits" in err
    assert len(err) < 200


def test_closed_stdout_exits_with_its_code():
    # the read end is closed before the child starts, so its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    try:
        proc = subprocess.run([sys.executable, "-m", "ggslab", "quotient", "--group",
                               "p=5;e=1,0,2,4", "3", "--json"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_STDOUT_CLOSED == 141
    assert proc.stderr == b""


def test_resource_guard_exits_4(capsys):
    code, _, err = run(capsys, "quotient", "--group", "p=3;e=1,2", "7")
    assert code == 4
    assert err.startswith("resource guard:")
    # 625 leaves, the first level past the guard at p = 5
    code, _, err = run(capsys, "quotient", "--group", "p=5;e=1,0,2,4", "4")
    assert code == 4
    assert "level 4 at p = 5 has more than 529 leaves" in err


# the first prime past each scan's bound
@pytest.mark.parametrize("check,p", [("interval-lemma", 277), ("circulant", 101)])
def test_fixed_size_scans_refuse_large_p_at_once(capsys, check, p):
    spec = f"p={p};e=" + ",".join(["1"] + ["0"] * (p - 2))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--group", spec, check)
    assert time.perf_counter() - start < 1.0
    assert code == 4
    assert out == ""
    assert err.startswith(f"resource guard: {check} check at p={p}")
    assert "p <= " in err


def test_missing_group_flag_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify"])
    assert exc.value.code == 2
    capsys.readouterr()


# flags every command used to accept, with a value for each; a command now
# takes only those it reads (COMMAND_FLAGS), and --depth-cap none at all
DROPPED_FLAGS = {
    "--seed": "1", "--length-cap": "8", "--depth-cap": "8", "--quotient-guard": "729",
}
COMMAND_ARGS = {
    "classify": [], "act": ["a", "1"], "section": ["a", "1"], "equal": ["a", "b"],
    "length": ["a"], "abelianize": ["a"], "quotient": ["1"], "verify": ["circulant"],
}
COMMAND_FLAGS = {"verify": {"--seed"}, "length": {"--length-cap"}}
# the 30 (command, flag) pairs that are refused
UNREAD_FLAGS = [(cmd, flag) for cmd in COMMAND_ARGS for flag in DROPPED_FLAGS
                if flag not in COMMAND_FLAGS.get(cmd, ())]


@pytest.mark.parametrize("command,flag", UNREAD_FLAGS)
def test_unread_flag_is_an_argparse_error(capsys, command, flag):
    argv = [command, "--group", "p=3;e=1,2", *COMMAND_ARGS[command], flag, DROPPED_FLAGS[flag]]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + flag in capsys.readouterr().err


def test_unknown_command_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--group", "p=3;e=1,2"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", [None, *cli.COMMANDS])
def test_help_screen_prints_usage(capsys, command):
    # argparse expands % in help strings only when it prints them
    argv = ["--help"] if command is None else [command, "--help"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: ggslab" + ("" if command is None else " " + command))
    assert "--help" in out


# modules the start-up must not load: the dataclasses chain (inspect pulls in
# ast, dis and tokenize) and typing; the library path loads no CLI modules
# either, and none of re, enum and collections, which argparse and json bring
# in on the CLI path: its parsers test strings by hand
HEAVY_MODULES = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}
CLI_MODULES = {"argparse", "json", "random"}
PATTERN_MODULES = {"re", "enum", "collections"}


@pytest.mark.parametrize("module,forbidden", [
    ("ggslab.cli", HEAVY_MODULES),
    ("ggslab", HEAVY_MODULES | CLI_MODULES | PATTERN_MODULES),
])
def test_import_loads_no_heavy_modules(module, forbidden):
    # -S: no site, whose .pth files could import these first and hide a regression
    code = ("import sys; before = set(sys.modules); import " + module
            + "; print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=30)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert module in loaded
    assert not loaded & forbidden
