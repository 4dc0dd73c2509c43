"""Replay the golden CLI corpus in process.

`golden.json` maps each command line to its exit code and the sha256 of its
stdout: `quotient --json` on every `CENSUS_ORACLE_CASES` row and on the four
groups of the CI quotient steps (p=7 e=1,0,0,0,0,0 n=3, p=3 e=1,0 and e=1,1
at n=5, and the p=23 vector at n=2, with the same sha256 as CI), one bad group
spec (exit 2), one level past the leaf guard (exit 4), `verify all --json`
at seeds 0 and 1 on the benchmark's five verify groups, and the word commands
once per verify group and p=11 e=1,0,2,4,3,5,1,2,0,3 in text and JSON:
`classify`, `equal`, `act`, `section`, `abelianize` and three `length` rows (a
word whose length is its syllable count, a word u*r with r trivial whose
length is below it, and the first word under a cap below its length). It was
recorded by running each command as `python3 -m ggslab`.
"""

import hashlib
import json
import os
import shlex

import pytest

from ggslab.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")
BENCH_EXPECTED = os.path.join(HERE, os.pardir, "perfbench", "expected.json")


def _golden(command):
    with open(GOLDEN) as f:
        return {line: want for line, want in json.load(f).items()
                if shlex.split(line)[0] == command}


def _replay(capsys, command):
    differ = []
    for line, want in _golden(command).items():
        code = main(shlex.split(line))
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        if (code, digest) != (want["exit"], want["stdout_sha256"]):
            differ.append(f"{line}: exit {code}, stdout sha256 {digest}")
    assert not differ, "\n".join(differ)


def test_golden_quotient_corpus(capsys):
    _replay(capsys, "quotient")


@pytest.mark.parametrize("command", ["classify", "equal", "act", "section", "abelianize",
                                     "length"])
def test_golden_word_command_rows(capsys, command):
    _replay(capsys, command)


def test_golden_verify_rows(capsys):
    _replay(capsys, "verify")


def test_seed0_verify_rows_match_the_benchmark():
    # the benchmark's verify workload pins the same five seed-0 outputs
    with open(BENCH_EXPECTED) as f:
        recorded = json.load(f)["verify"]
    rows = {}
    for line, want in _golden("verify").items():
        argv = shlex.split(line)
        if argv[argv.index("--seed") + 1] == "0":
            rows[argv[argv.index("--group") + 1]] = want["stdout_sha256"]
    assert rows == recorded
