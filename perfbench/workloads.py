"""The three workloads: their inputs and a check for every answer.

Each workload is a batch of items run one at a time (a closed loop with one
item in flight). ``build(workload)`` makes the batch and returns a list
of ``Item``s; running an item returns its answer and ``check`` returns None
when the answer is right, else a one-line reason. Input generation imports
``ggslab`` lazily so that the import is timed as part of set-up.

No workload's inputs depend on the seed, so runs with different seeds do the
same work and every answer can be compared with a recorded one. Each way of
letting the seed vary the inputs moved a run's cost by more than the machine's
own noise: the verify sweeps by a factor of two with their sweep seed
(short-section draws until it has 50 confirmations), the most expensive length
search by a sixth with the word's exponents, and the item order changes the
memo and heap state each item starts from.

- census: ``maximal_subgroups_census`` at the deepest level the default leaf
  guard admits in reasonable time, leaf degrees 49 to 125. Every group is
  checked against the closed-form order.
- length: ``GgsGroup.length_word`` on 32 words drawn once from WORD_SEED. The
  search stops at the first equal candidate, so a word's cost grows with the
  rank of its class sequence in the sieve's lexicographic order; the ranks are
  spread evenly over each stratum. A quarter of the words are u*r with
  r = [b, b^(a^2)] trivial at p=11, so their search stops early at |u|.
- verify: ``cli.main(["verify", ..., "all", "--seed", "0", "--json"])`` for the
  reference groups; each call builds its group afresh, so memos start cold.
"""

import collections
import hashlib
import io
import json
import os
import random
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
WORD_SEED = 0
WORKLOADS = ("census", "length", "verify")

CENSUS_ITEMS = (
    ("p=3;e=1,0", 4),
    ("p=3;e=1,2", 4),
    ("p=3;e=1,1", 4),
    ("p=5;e=1,0,2,4", 3),
    ("p=5;e=1,2,3,4", 3),
    ("p=7;e=1,0,0,0,0,0", 2),
)
# Fernandez-Alcober & Zugadi-Reizabal exclude the constant vector; its level-4
# order at p=3 is frozen from the quotient engine.
CONSTANT_ORDERS = {("p=3;e=1,1", 4): 3 ** 23}

# (p, e, syllables m, words, reducible): reducible words are u*r with |u| = m
LENGTH_STRATA = (
    (11, (1, 0, 2, 4, 3, 5, 1, 2, 0, 3), 4, 6, False),
    (11, (1, 0, 2, 4, 3, 5, 1, 2, 0, 3), 3, 8, True),
    (7, (1, 2, 0, 3, 1, 4), 5, 6, False),
    (5, (1, 0, 2, 4), 5, 12, False),
)

VERIFY_GROUPS = ("p=3;e=1,2", "p=3;e=1,1", "p=5;e=1,0,2,4", "p=5;e=1,1,1,1",
                 "p=7;e=1,0,0,0,0,0")
VERIFY_SWEEP_SEED = 0


# One unit of work: run() gives the answer, check(answer) judges it.
Item = collections.namedtuple("Item", "name run check")


def _expected():
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)


def _parse_spec(spec):
    p_part, e_part = spec.split(";")
    return int(p_part[2:]), tuple(int(x) for x in e_part[2:].split(","))


# census ----------------------------------------------------------------------


def _rank_mod_p(rows, p):
    # computed here rather than with ggslab.fp, so the order check does not rest
    # on the code it checks
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def closed_form_log_order(p, e, n):
    """log_p |G : St_G(n)| for non-constant e and n >= 2 (Trans. AMS 366, 2014):
    t p^(n-2) + 1 - delta (p^(n-2) - 1)/(p - 1), with t the rank of the circulant
    with first row (e, 0) and delta = 1 exactly when e is symmetric."""
    first = list(e) + [0]
    t = _rank_mod_p([[first[(j - k) % p] for j in range(p)] for k in range(p)], p)
    delta = 1 if all(e[i] == e[p - 2 - i] for i in range(p - 1)) else 0
    return t * p ** (n - 2) + 1 - delta * (p ** (n - 2) - 1) // (p - 1)


def check_census(spec, n, census):
    p, e = _parse_spec(spec)
    if census["count"] != p + 1:
        return f"{census['count']} maximal subgroups, expected {p + 1}"
    if census["frattini_index"] != p * p:
        return f"frattini index {census['frattini_index']}, expected {p * p}"
    for rec in census["maximal"]:
        if rec["index"] != p or not rec["normal"]:
            return f"record {rec} is not a normal subgroup of index {p}"
    if (spec, n) in CONSTANT_ORDERS:
        want = CONSTANT_ORDERS[(spec, n)]
    else:
        want = p ** closed_form_log_order(p, e, n)
    if census["order"] != want:
        return f"order {census['order']}, closed form gives {want}"
    return None


def _census_items():
    from ggslab import core, quotients
    items = []
    for spec, n in CENSUS_ITEMS:
        group = core.parse_group_spec(spec)
        items.append(Item(
            f"{spec};n={n}",
            lambda group=group, n=n: quotients.maximal_subgroups_census(group, n),
            lambda census, spec=spec, n=n: check_census(spec, n, census)))
    return items


# length ----------------------------------------------------------------------


def class_sequence(index, p, m):
    """The index-th sequence in lexicographic order of m classes mod p with
    consecutive entries distinct (the order the length sieve visits them)."""
    digits = []
    for _ in range(m - 1):
        index, d = divmod(index, p - 1)
        digits.append(d)
    seq = [index]
    for d in reversed(digits):
        seq.append(d if d < seq[-1] else d + 1)
    return seq


def stratified_word(p, m, slot, slots, rng):
    """A word with m syllables whose class sequence sits at the middle of the
    slot-th of `slots` equal parts of the sieve order. The b-exponents and the
    trailing a-exponent are uniform over F_p minus 0; a nonzero trailing
    a-exponent keeps u*r from merging syllables."""
    from ggslab.words import GroupWord
    total = p * (p - 1) ** (m - 1)
    cs = class_sequence((2 * slot + 1) * total // (2 * slots), p, m)
    alphas = [(cs[k + 1] - cs[k]) % p for k in range(m - 1)] + [rng.randrange(1, p)]
    return GroupWord(p, cs[0], tuple((rng.randrange(1, p), a) for a in alphas))


def trivial_commutator(p):
    """r = [b, b^(a^2)] as a word; trivial when e_2 = e_(p-2) = 0."""
    from ggslab.words import normalize
    return normalize([("b", -1), ("a", -2), ("b", -1), ("a", 2),
                      ("b", 1), ("a", -2), ("b", 1), ("a", 2)], p)


def check_length(key, bound, answer, recorded):
    if answer is None:
        return "no length within the cap"
    if answer > bound:
        return f"length {answer} exceeds the bound {bound}"
    if recorded[key] != answer:
        return f"length {answer}, recorded {recorded[key]}"
    return None


def length_inputs():
    """[(group, word, bound)] for the batch; bound is |u| for u*r, else |w|."""
    from ggslab import core
    from ggslab.words import concat
    rng = random.Random(WORD_SEED)
    groups = {}
    out = []
    for p, e, m, count, reducible in LENGTH_STRATA:
        group = groups.get((p, e))
        if group is None:
            group = groups[(p, e)] = core.make_ggs(p, e)
        for slot in range(count):
            w = stratified_word(p, m, slot, count, rng)
            if reducible:
                w = concat(w, trivial_commutator(p))
            out.append((group, w, m))
    return out


def _length_items():
    from ggslab.words import format_word
    recorded = _expected()["length"]
    items = []
    for group, w, bound in length_inputs():
        key = f"p={group.p}|{format_word(w)}"
        items.append(Item(
            key,
            lambda group=group, w=w: group.length_word(w),
            lambda answer, key=key, bound=bound: check_length(key, bound, answer, recorded)))
    return items


# verify ----------------------------------------------------------------------


def run_verify(spec):
    """Exit code and stdout of ``ggslab verify --group spec all --seed 0 --json``."""
    from ggslab import cli
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["verify", "--group", spec, "all", "--seed", str(VERIFY_SWEEP_SEED),
                         "--json"])
    return code, buf.getvalue()


def check_verify(spec, answer, recorded):
    code, out = answer
    if code != 0:
        return f"exit code {code}"
    bad = sum(len(rep["counterexamples"]) for rep in json.loads(out))
    if bad:
        return f"{bad} counterexamples"
    digest = hashlib.sha256(out.encode()).hexdigest()
    if digest != recorded[spec]:
        return f"stdout sha256 {digest[:12]} differs from the recorded output"
    return None


def _verify_items():
    import ggslab.cli  # noqa: F401  (imported here so set-up pays for it)
    recorded = _expected()["verify"]
    return [Item(spec,
                 lambda spec=spec: run_verify(spec),
                 lambda answer, spec=spec: check_verify(spec, answer, recorded))
            for spec in VERIFY_GROUPS]


def build(workload):
    if workload == "census":
        return _census_items()
    if workload == "length":
        return _length_items()
    if workload == "verify":
        return _verify_items()
    raise ValueError(f"unknown workload {workload!r}")
