"""Command-line surface: define a GGS-group, compute with words, inspect
finite quotients, and run the lemma verification sweeps.

Exit codes: 0 success, 2 bad input or precondition, 3 verification
counterexample or failed cross-check, 4 resource guard tripped, 141 stdout
closed by its reader before the output was written.
"""

import argparse
import json
import os
import sys

from . import lemmas
from .core import DEFAULT_LENGTH_CAP, format_vertex, parse_group_spec, parse_vertex
from .errors import CrossCheckError, InputError, ResourceLimitError
from .quotients import level_quotient, maximal_subgroups_census
from .words import format_word

# sweep sizes mirror the property-suite counts the checks were designed around
VERIFY_REGISTRY = (
    ("commutator-tuple", lambda group, seed: lemmas.sweep_commutator_tuple(group, seed)),
    ("derived-product", lambda group, seed: lemmas.sweep_derived_product(group, 100, seed)),
    ("split-case", lambda group, seed: lemmas.sweep_split_case(group, 1000, seed)),
    ("propagation", lambda group, seed: lemmas.sweep_propagation(group, 200, seed)),
    ("short-section", lambda group, seed: lemmas.sweep_short_section(group, 50, seed)),
    ("length-contraction", lambda group, seed: lemmas.sweep_length_contraction(group, 200, seed)),
    ("circulant", lambda group, seed: lemmas.sweep_circulant(group.p, seed)),
    ("interval-lemma", lambda group, seed: lemmas.sweep_interval(group.p, seed)),
    ("k-generator", lambda group, seed: lemmas.sweep_k_generator(group, seed)),
    ("infinite-order", lambda group, seed: lemmas.sweep_infinite_order(group, seed)),
    ("maximal-census", lambda group, seed: lemmas.sweep_maximal_census(group, seed)),
    ("constant-model", lambda group, seed: lemmas.sweep_constant_model(group, seed)),
)
VERIFY_NAMES = tuple(name for name, _ in VERIFY_REGISTRY)


def _add_command(subs, name, help_text, *, seed=False, length_cap=False):
    """A subcommand with --group and --json, plus only the flags it reads."""
    sub = subs.add_parser(name, help=help_text)
    sub.add_argument("--group", required=True, metavar="SPEC",
                     help="group spec, e.g. 'p=3;e=1,2'")
    sub.add_argument("--json", action="store_true", help="emit JSON instead of text")
    if seed:
        sub.add_argument("--seed", type=int, default=0, metavar="N",
                         help="sweep seed, N >= 0 (default: 0)")
    if length_cap:
        sub.add_argument("--length-cap", type=int, default=DEFAULT_LENGTH_CAP, metavar="N",
                         help="syllable cap for length certification")
    return sub


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ggslab",
        description="GGS-groups on the p-adic tree: computation and lemma verification.")
    subs = parser.add_subparsers(dest="command", required=True)

    _add_command(subs, "classify", "defining-vector family and branch status")

    sp = _add_command(subs, "act", "image of a vertex under a word")
    sp.add_argument("word")
    sp.add_argument("vertex", help="dot-separated letters in 1..p, empty for the root")

    sp = _add_command(subs, "section", "section of a word at a vertex")
    sp.add_argument("word")
    sp.add_argument("vertex")

    sp = _add_command(subs, "equal", "decide equality of two words in the group")
    sp.add_argument("word1")
    sp.add_argument("word2")

    sp = _add_command(subs, "length", "certified syllable length, or unknown at the cap",
                      length_cap=True)
    sp.add_argument("word")

    sp = _add_command(subs, "abelianize", "exponent-sum pair in G/G'")
    sp.add_argument("word")

    sp = _add_command(subs, "quotient", "level-n congruence quotient order (census for n >= 2)")
    sp.add_argument("level", type=int)

    sp = _add_command(subs, "verify", "run named lemma checks ('all' for every one)", seed=True)
    sp.add_argument("checks", nargs="+", metavar="CHECK",
                    help="one of: " + ", ".join(VERIFY_NAMES) + ", all")

    return parser


def _emit(args, data, text_lines):
    if args.json:
        print(json.dumps(data, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def cmd_classify(args, group):
    data = {
        "p": group.p,
        "e": list(group.e),
        "lambda": group.lam,
        "family": group.family,
        "torsion": group.is_torsion,
        "branch": group.is_branch,
    }
    branch_line = f"branch = {str(group.is_branch).lower()}"
    if not group.is_branch:
        branch_line += " (weakly branch only: constant defining vector)"
    lines = [
        f"p = {group.p}",
        "e = " + ",".join(str(x) for x in group.e),
        f"lambda = {group.lam}",
        f"family = {group.family}",
        f"torsion = {str(group.is_torsion).lower()}",
        branch_line,
    ]
    _emit(args, data, lines)
    return 0


def cmd_act(args, group):
    g = group.element(args.word)
    image = g.act(parse_vertex(args.vertex, group.p))
    out = format_vertex(image)
    _emit(args, {"vertex": out}, [out])
    return 0


def cmd_section(args, group):
    g = group.element(args.word)
    sec = g.section(parse_vertex(args.vertex, group.p))
    out = format_word(sec.word)
    _emit(args, {"word": out}, [out])
    return 0


def cmd_equal(args, group):
    g = group.element(args.word1)
    h = group.element(args.word2)
    verdict = g.equals(h)
    _emit(args, {"equal": verdict}, [str(verdict).lower()])
    return 0


def cmd_length(args, group):
    g = group.element(args.word)
    val = g.length(cap=args.length_cap)
    if val is None:
        _emit(args, {"length": None, "cap": args.length_cap},
              [f"unknown (cap={args.length_cap})"])
    else:
        _emit(args, {"length": val, "cap": args.length_cap}, [str(val)])
    return 0


def cmd_abelianize(args, group):
    g = group.element(args.word)
    s, t = g.abelianize()
    _emit(args, {"a_exponent": s, "b_exponent": t}, [f"({s}, {t})"])
    return 0


def cmd_quotient(args, group):
    n = args.level
    if n >= 2:
        # the census builds the level quotient and checks its order against the closed form
        census = maximal_subgroups_census(group, n)
        order = census["order"]
        data = census
        lines = [f"level = {n}", f"order = {order}",
                 f"maximal subgroups = {census['count']}"]
        for rec in census["maximal"]:
            s, t = rec["functional"]
            lines.append(f"  functional ({s},{t}): index {rec['index']}, "
                         + ("normal" if rec["normal"] else "not normal"))
    else:
        order = level_quotient(group, n).order
        data = {"p": group.p, "e": list(group.e), "n": n, "order": order}
        lines = [f"level = {n}", f"order = {order}"]
    _emit(args, data, lines)
    return 0


def cmd_verify(args, group):
    names = list(args.checks)
    if "all" in names:
        names = list(VERIFY_NAMES)
    else:
        unknown = [n for n in names if n not in VERIFY_NAMES]
        if unknown:
            raise InputError("unknown check(s): " + ", ".join(sorted(unknown))
                             + "; valid: " + ", ".join(VERIFY_NAMES) + ", all")
    registry = dict(VERIFY_REGISTRY)
    reports = [registry[name](group, args.seed) for name in names]
    failures = sum(len(rep["counterexamples"]) for rep in reports)
    if args.json:
        print(json.dumps(reports, sort_keys=True, indent=2))
    else:
        for rep in reports:
            status = "FAIL" if rep["counterexamples"] else "pass"
            line = (f"{rep['lemma']}: {status} cases={rep['cases_run']} "
                    f"passed={rep['passed']} skipped={rep['skipped']}")
            if rep["counterexamples"]:
                line += f" counterexamples={len(rep['counterexamples'])}"
            if "note" in rep:
                line += f" ({rep['note']})"
            print(line)
    return 3 if failures else 0


COMMANDS = {
    "classify": cmd_classify,
    "act": cmd_act,
    "section": cmd_section,
    "equal": cmd_equal,
    "length": cmd_length,
    "abelianize": cmd_abelianize,
    "quotient": cmd_quotient,
    "verify": cmd_verify,
}
EXIT_STDOUT_CLOSED = 141  # what a shell reports for a filter ended by SIGPIPE


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = COMMANDS[args.command](args, parse_group_spec(args.group))
        # flushed here, not at exit, so that a closed stdout raises in the try
        sys.stdout.flush()
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CrossCheckError as exc:
        print(f"cross-check failed: {exc}", file=sys.stderr)
        return 3
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 4
    except BrokenPipeError:
        # stdout points at devnull from here, so the final flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_STDOUT_CLOSED


if __name__ == "__main__":
    sys.exit(main())
