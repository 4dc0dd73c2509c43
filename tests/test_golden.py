"""Replay the golden quotient corpus in process.

`golden.json` maps each command line to its exit code and the sha256 of its
stdout: `quotient --json` on every `CENSUS_ORACLE_CASES` row, one bad group
spec (exit 2) and one level past the leaf guard (exit 4). It was recorded by
running each command as `python3 -m ggslab`.
"""

import hashlib
import json
import os
import shlex

from ggslab.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def test_golden_quotient_corpus(capsys):
    with open(GOLDEN) as f:
        golden = json.load(f)
    differ = []
    for line, want in golden.items():
        code = main(shlex.split(line))
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        if (code, digest) != (want["exit"], want["stdout_sha256"]):
            differ.append(f"{line}: exit {code}, stdout sha256 {digest}")
    assert not differ, "\n".join(differ)
