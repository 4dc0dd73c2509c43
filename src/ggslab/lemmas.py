"""Machine checks for the desk-verifiable computational lemmas.

Each check_* function examines one concrete input and reports exactly what it
found; each sweep_* function drives a seeded random sweep (or an exhaustive
scan), sized by the module constants below apart from its case count, and
returns a JSON-ready report dict

    {"lemma", "seed", "cases_run", "passed", "skipped", "counterexamples"}

with three-valued semantics: a case whose hypotheses fail is skipped, never
silently passed. Quantities that admit two independent computations (exponent
profiles most of all) are computed both ways and cross-checked on every call;
a mismatch raises CrossCheckError rather than entering the report as data.

The five draw-based sweeps share one loop, _sweep, which checks each
distinct draw once per call. A draw is keyed by its numbers, or by its word
where it goes through random_word: holding the 11,326 distinct short-section
draws at p=7 as numbers leaves the peak RSS of a perfbench verify batch at
23.2 MB, as words 26.1 MB (Python 3.11, medians of ten and of three 10 s runs).
"""

import itertools
import random

from .errors import CrossCheckError, InputError, ResourceLimitError
from .fp import circulant_rank
from .words import class_sums, format_word, random_word
from .words import _below, _reduce_runs
from .core import DEFAULT_LENGTH_CAP, FAMILY_CONSTANT, make_ggs
from .quotients import maximal_subgroups_census
from . import model as _model

SWEEP_MAX_FACTORS = 6  # conjugate factors (b^j)^(a^l) per random element
DERIVED_MAX_FACTORS = 3  # conjugated commutators per random element of G'
DERIVED_CONJ_SYLLABLES = 3  # syllables of each random conjugator
SHORT_SECTION_ATTEMPTS = 400  # draws allowed per short-section case
CONTRACTION_MAX_FACTORS = 4  # conjugate factors per length-contraction draw
CONTRACTION_LENGTH_CAP = 4  # length cap for a draw and for its sections
CIRCULANT_SAMPLES = 10000  # vectors ranked, every one when p^p is no larger
TRACE_STEPS = 5  # steps of the infinite-order trace
CENSUS_LEVEL = 2  # level of the maximal-subgroup census
MODEL_CENSUS_ORDER_CAP = 100  # largest finite model the census enumerates
# Largest p each scan of fixed size runs at before it raises ResourceLimitError.
# The interval scan grows like p^6 (3-5 s at p = 19 on a 2-vCPU VM); the
# circulant sweep ranks 10,000 p x p circulants (about 5 s at p = 31, from
# 7-7.5 s when each rank reduced and encoded all p^2 entries).
INTERVAL_MAX_P = 19
CIRCULANT_MAX_P = 31


class ExponentProfile:
    """Per-letter exponent pairs of an element g of st(1) with g = b^t mod G'.

    pairs[r] = (n_u, m_u) for the letter u with residue r (letter p sits at
    r = 0), where section(g, u) = a^{n_u} b^{m_u} mod G'.
    """

    __slots__ = ("p", "t", "pairs")

    def __init__(self, p, t, pairs):
        if sum(m for _, m in pairs) % p != t % p:
            raise CrossCheckError("profile m-column does not sum to t")
        _set_profile_p(self, p)
        _set_profile_t(self, t)
        _set_profile_pairs(self, pairs)

    def __setattr__(self, name, val):
        raise AttributeError("ExponentProfile is immutable")

    def __eq__(self, other):
        if not isinstance(other, ExponentProfile):
            return NotImplemented
        return self.p == other.p and self.t == other.t and self.pairs == other.pairs

    def __hash__(self):
        return hash((self.p, self.t, self.pairs))

    def __repr__(self):
        return f"ExponentProfile(p={self.p!r}, t={self.t!r}, pairs={self.pairs!r})"


# slot descriptors write past __setattr__, as in words.GroupWord
_set_profile_p = ExponentProfile.p.__set__
_set_profile_t = ExponentProfile.t.__set__
_set_profile_pairs = ExponentProfile.pairs.__set__


def exponent_profile(group, g):
    """Profile of g in st(1) with abelianization (0, t), t != 0.

    Computed two independent ways and cross-checked: once through the actual
    first-level sections, once through the conjugate decomposition
    g = prod_k (b^{j_k})^{a^{l_k}} read off the normal form, which gives
    m_u = sum of j_k over k with l_k = u (the class sum B_{-u}, since
    l_k = -c_k for the walk class c_k) and n_u = sum_j e_j m_{u-j}.
    The sections are full normal forms built by GgsGroup._section_uncached,
    which leaves the group's section memo unchanged.
    """
    p = group.p
    ta, tb = g.abelianize()
    if ta != 0:
        raise InputError("exponent profile needs an element of st(1)")
    if tb == 0:
        raise InputError("exponent profile needs g = b^t mod G' with t != 0")

    # route 1: sections, kept out of the memo: the draws do repeat, but holding
    # their sections costs memory (see core)
    w = g.word
    direct = [group._section_uncached(w, r)._ab for r in range(p)]

    # route 2: conjugate decomposition from the word, over the support of e
    sums = class_sums(w)
    ms = [sums[-r] for r in range(p)]
    ns = [0] * p
    supp = [(j, c) for j, c in enumerate(group.e, 1) if c]
    for v, m_v in enumerate(ms):
        if m_v:
            for j, c in supp:
                ns[(v + j) % p] += c * m_v

    # derived columns sum to t and lambda * t by construction: equality checks both sums
    derived = [(n % p, ms[r]) for r, n in enumerate(ns)]
    if derived != direct:
        raise CrossCheckError(
            f"exponent profile mismatch for {format_word(w)!r}: "
            f"sections gave {direct}, decomposition gave {derived}")
    return ExponentProfile(p, tb, tuple(direct))


def classify_case(profile, lam):
    """The case, 1 or 2, of a valid profile in the two-case dichotomy.

    Case 1 holds when some letter has n_u = 0 and m_u != 0 (that section is a
    pure b-power mod G'). Otherwise every letter with m_u != 0 has n_u != 0
    (the per-letter reading), and Case 2 needs at least two letters with
    n_u != lambda * m_u and at least two with m_u != 0; if either set of
    witnesses is short, something mathematically forced has failed.
    """
    p = profile.p
    lam %= p
    if lam == 0:
        raise InputError("the case split needs a non-torsion group (lambda != 0)")
    if profile.t % p == 0:
        raise InputError("the case split needs t != 0")
    if any(n_u == 0 and m_u != 0 for n_u, m_u in profile.pairs):
        return 1
    pairs = [profile.pairs[u % p] for u in range(1, p + 1)]
    a_wit = [u for u, (n_u, m_u) in enumerate(pairs, 1) if n_u != (lam * m_u) % p]
    m_wit = [u for u, (_, m_u) in enumerate(pairs, 1) if m_u != 0]
    if len(a_wit) < 2 or len(m_wit) < 2:
        raise CrossCheckError(
            f"Case 2 witness shortfall: a-witnesses {a_wit}, m-witnesses {m_wit}")
    return 2


def check_derived_product(group, g):
    """For g in G', the product of all first-level sections lands back in G':
    its abelianization vanishes. g must be handed in as an honest member of G'
    (e.g. a product of conjugated commutators); the necessary condition
    abelianize(g) = (0, 0) is enforced."""
    if g.abelianize() != (0, 0):
        raise InputError("check_derived_product needs an element of the derived subgroup")
    prod = group.identity
    for u in range(1, group.p + 1):
        prod = prod * g.section(u)
    return prod.abelianize() == (0, 0)


def check_propagates(group, g, length_cap=None):
    """p-th power propagation: for g with abelianization (i, j), i != 0, in a
    non-torsion group, every first-level section of g^p is a^{lambda j} b^j
    mod G'. When length_cap is given and every length involved is certified
    within it, the section lengths of g^p are also checked against
    sum_k |g_k| <= |g| (sections g_k of a^{-i} g)."""
    p = group.p
    lam = group.lam
    if lam == 0:
        raise InputError("propagation needs a non-torsion group")
    i, j = g.abelianize()
    if i == 0:
        raise InputError("propagation needs abelianization (i, j) with i != 0")
    gp = g ** p
    expected = ((lam * j) % p, j % p)
    mismatches = []
    for u in range(1, p + 1):
        got = gp.section(u).abelianize()
        if got != expected:
            mismatches.append({"letter": u, "expected": list(expected), "got": list(got)})
    report = {
        "abelianizations_ok": not mismatches,
        "expected": list(expected),
        "mismatches": mismatches,
        "length_checked": False,
    }
    if length_cap is not None:
        h = (group.a ** (-i)) * g
        section_lengths = [h.section(u).length(length_cap) for u in range(1, p + 1)]
        g_len = g.length(length_cap)
        gp_lengths = [gp.section(u).length(length_cap) for u in range(1, p + 1)]
        if None not in section_lengths and g_len is not None and None not in gp_lengths:
            bound = sum(section_lengths)
            report["length_checked"] = True
            report["length_ok"] = bound <= g_len and all(l <= bound for l in gp_lengths)
            report["length_of_g"] = g_len
            report["section_length_sum"] = bound
            report["power_section_lengths"] = gp_lengths
        else:
            report["length_note"] = "lengths not certified within cap; inequality skipped"
    return report


def check_section_less_than_half(group, x):
    """Short-section lemma: x = b^t mod G' (t != 0) of exact even length 2*mu
    and Case 2 profile has a section x_u with x_u != 1 and |x_u| < mu.

    Three-valued: returns status 'pass', 'fail', or 'skipped' (hypotheses not
    met or length not certified within DEFAULT_LENGTH_CAP)."""
    p = group.p
    ta, tb = x.abelianize()
    if ta != 0 or tb == 0:
        return {"status": "skipped", "reason": "needs x = b^t mod G' with t != 0"}
    if group.lam == 0:
        return {"status": "skipped", "reason": "needs a non-torsion group"}
    if classify_case(exponent_profile(group, x), group.lam) != 2:
        return {"status": "skipped", "reason": "profile falls in Case 1"}
    lx = x.length()
    if lx is None:
        return {"status": "skipped",
                "reason": f"length not certified within cap {DEFAULT_LENGTH_CAP}"}
    if lx % 2 or lx == 0:
        return {"status": "skipped", "reason": f"length {lx} is not of the form 2*mu, mu >= 1"}
    mu = lx // 2
    for u in range(1, p + 1):
        xs = x.section(u)
        if xs.is_trivial():
            continue
        short = xs.length(mu - 1)
        if short is not None:
            return {"status": "pass", "length": lx, "witness_letter": u,
                    "witness_length": short}
    return {"status": "fail", "length": lx,
            "detail": "no nontrivial section of length < mu found"}


def interval_lemma_scan(p):
    """Exhaustive scan of the interval criterion over F_p (needs p >= 5).

    For every step i != 0, interval count 1 < k < p-1 and pair i1 != i2:
    whenever exactly two v in F_p have |I_v intersect {i1, i2}| = 1, where
    I_v = {v - d*i : 0 <= d <= k-1}, check i2 = i1 +- i. Returns the list of
    violating quadruples (empty when the lemma holds)."""
    if p < 5:
        raise InputError("the interval criterion needs p >= 5 (so that 1 < k < p-1 is nonempty)")
    violations = []
    for i in range(1, p):
        for k in range(2, p - 1):
            offsets = [(-d * i) % p for d in range(k)]
            for i1 in range(p):
                for i2 in range(p):
                    if i1 == i2:
                        continue
                    boundary = [v for v in range(p)
                                if sum(1 for o in offsets if (v + o) % p in (i1, i2)) == 1]
                    if len(boundary) == 2 and i2 not in ((i1 + i) % p, (i1 - i) % p):
                        violations.append((i, k, i1, i2))
    return violations


def k_generator_identity(p):
    """For the constant-vector group with y_i = (b a^{-1})^{a^i}, verify

        psi([y_0, y_1]) = (1, ..., 1, y_2, (y_0^{-1} y_1^{-1})^a, y_1)

    coordinatewise with equal(). Returns True when every coordinate matches."""
    group = make_ggs(p, (1,) * (p - 1))
    a = group.a
    y = [(group.b * a.inverse()).conjugate(a ** i) for i in range(3)]
    comm = y[0].commutator(y[1])
    sections = comm.psi()
    expected = [group.identity] * (p - 3)
    expected += [y[2], (y[0].inverse() * y[1].inverse()).conjugate(a), y[1]]
    return all(s.equals(t) for s, t in zip(sections, expected))


def infinite_order_trace(group, g, steps=TRACE_STEPS):
    """Iterate g -> section(g^p, 1) and record abelianizations.

    Needs lambda != 0 and abelianization (i, j) with i, j both nonzero; then
    every entry after the first equals (lambda * j, j), the loop that forces
    infinite order. Returns the list of steps+1 abelianization pairs."""
    if group.lam == 0:
        raise InputError("the trace needs a non-torsion group")
    i, j = g.abelianize()
    if i == 0 or j == 0:
        raise InputError("the trace needs abelianization (i, j) with i, j != 0")
    if steps < 1:
        raise InputError("need at least one step")
    trace = [g.abelianize()]
    cur = g
    for _ in range(steps):
        cur = (cur ** group.p).section(1)
        trace.append(cur.abelianize())
    return trace


# random element generators -------------------------------------------------


def _draw_st1(p, rng, max_factors, nonzero_t):
    """The tuple j_1, l_1, ..., j_k, l_k of a product of k <= max_factors
    conjugates (b^j)^(a^l). With nonzero_t, redraw until the b-exponent sum
    is nonzero mod p; the reduced word keeps that sum, so it is read here."""
    while True:
        nums = []
        for _ in range(1 + _below(rng, max_factors)):
            nums += (1 + _below(rng, p - 1), _below(rng, p))
        if not nonzero_t or sum(nums[::2]) % p:
            return tuple(nums)


def _st1_word(p, nums):
    runs = [0]
    for j, l in zip(nums[::2], nums[1::2]):
        runs[-1] -= l
        runs += (j, l)
    return _reduce_runs(p, runs)


def random_derived_element(group, rng):
    """A random member of G': a product of commutators [a, b] conjugated by
    random words."""
    comm = group.a.commutator(group.b)
    out = group.identity
    for _ in range(1 + _below(rng, DERIVED_MAX_FACTORS)):
        h = group.element(random_word(group.p, DERIVED_CONJ_SYLLABLES, rng))
        out = out * comm.conjugate(h)
    return out


def _draw_case2(p, rng):
    """The shape and number tuple of a short-section draw: either a generic
    st(1) draw, shape 0 with its (j, l) pairs, or the two-letter interleaved
    word b^{i_1} (b^{j_1})^{a^v} ... that the short-section analysis centres
    on, shape 1 with v followed by its (i, j) pairs."""
    if rng.random() < 0.5:
        return 0, _draw_st1(p, rng, SWEEP_MAX_FACTORS, True)
    nums = [1 + _below(rng, p - 1)]
    for _ in range(1 + _below(rng, 2)):
        nums += (1 + _below(rng, p - 1), 1 + _below(rng, p - 1))
    return 1, tuple(nums)


def _case2_word(p, shape, nums):
    if shape == 0:
        return _st1_word(p, nums)
    v = nums[0]
    runs = [0]
    for i, j in zip(nums[1::2], nums[2::2]):
        runs += (i, -v, j, v)
    return _reduce_runs(p, runs)


# sweeps ---------------------------------------------------------------------


def _report(lemma, seed, cases_run=0, passed=0, skipped=0, counterexamples=None, **extra):
    rep = {
        "lemma": lemma,
        "seed": seed,
        "cases_run": cases_run,
        "passed": passed,
        "skipped": skipped,
        "counterexamples": counterexamples or [],
    }
    rep.update(extra)
    return rep


def _guard_p(lemma, p, bound):
    if p > bound:
        raise ResourceLimitError(f"{lemma} check at p={p} is past its bound p <= {bound}")


def sweep_commutator_tuple(group, seed=0):
    """psi([a, b]) against the closed form
    (b^{-1} a^{e_1}, a^{e_2 - e_1}, ..., a^{e_{p-1} - e_{p-2}}, a^{-e_{p-1}} b)."""
    p = group.p
    e = group.e
    sections = group.a.commutator(group.b).psi()
    expected = [group.element([("b", -1), ("a", e[0])])]
    expected += [group.element([("a", e[u - 1] - e[u - 2])]) for u in range(2, p)]
    expected.append(group.element([("a", -e[p - 2]), ("b", 1)]))
    bad = [{"letter": u + 1,
            "got": format_word(sections[u].word),
            "expected": format_word(expected[u].word)}
           for u in range(p) if not sections[u].equals(expected[u])]
    return _report("commutator-tuple", seed, cases_run=p, passed=p - len(bad),
                   counterexamples=bad)


def _sweep(lemma, seed, cases, draw, check, budget=None):
    """Draw from random.Random(seed) until `cases` cases are decided or
    `budget` draws (default: `cases`) are spent. draw(rng) returns a hashable
    key that fixes the case; check(key) returns "pass", "skipped" or a
    counterexample entry. Each distinct key is checked once: a repeat reuses
    its verdict and counts again, a counterexample with its own "case"."""
    rng = random.Random(seed)
    verdicts = {}
    passed = skipped = 0
    bad = []
    for _ in range(cases if budget is None else budget):
        if passed + len(bad) == cases:
            break
        key = draw(rng)
        verdict = verdicts.get(key)
        if verdict is None:
            verdict = verdicts[key] = check(key)
        if verdict == "pass":
            passed += 1
        elif verdict == "skipped":
            skipped += 1
        else:
            bad.append({**verdict, "case": passed + len(bad)})
    return _report(lemma, seed, cases_run=passed + len(bad), passed=passed, skipped=skipped,
                   counterexamples=bad)


def sweep_derived_product(group, cases, seed):
    def check(w):
        if check_derived_product(group, group.element(w)):
            return "pass"
        return {"word": format_word(w)}

    return _sweep("derived-product", seed, cases,
                  lambda rng: random_derived_element(group, rng).word, check)


def sweep_split_case(group, cases, seed):
    """Exponent-profile dichotomy on random st(1) elements with t != 0.

    Each case computes the profile two ways and classifies it; a failed
    cross-check or a Case 2 witness shortfall is a counterexample. Skipped
    entirely on torsion groups."""
    if group.lam == 0:
        return _report("split-case", seed, skipped=1,
                       note="case split undefined for torsion groups (lambda = 0)")
    p = group.p

    def check(nums):
        g = group.element(_st1_word(p, nums))
        try:
            classify_case(exponent_profile(group, g), group.lam)
        except CrossCheckError as exc:
            return {"word": format_word(g.word), "error": str(exc)}
        return "pass"

    return _sweep("split-case", seed, cases,
                  lambda rng: _draw_st1(p, rng, SWEEP_MAX_FACTORS, True), check)


def sweep_propagation(group, cases, seed):
    if group.lam == 0:
        return _report("propagation", seed, skipped=1,
                       note="propagation needs a non-torsion group")
    p = group.p

    def draw(rng):
        while True:
            w = random_word(p, 4, rng)
            if w.exponent_sums()[0] != 0:
                return w

    def check(w):
        rep = check_propagates(group, group.element(w))
        if rep["abelianizations_ok"]:
            return "pass"
        return {"word": format_word(w), "mismatches": rep["mismatches"]}

    return _sweep("propagation", seed, cases, draw, check)


def sweep_short_section(group, cases, seed):
    """Confirm the short-section conclusion on `cases` hypothesis-satisfying
    elements, in at most cases * SHORT_SECTION_ATTEMPTS draws; draws that miss
    the hypotheses count as skipped. When e has a single nonzero entry e_j,
    n_u = e_j m_{u-j} and Case 2 needs all p class sums m_u nonzero, which no
    draw reaches once p > SWEEP_MAX_FACTORS."""
    if group.lam == 0:
        return _report("short-section", seed, skipped=1,
                       note="needs a non-torsion group")
    p = group.p

    def check(key):
        x = group.element(_case2_word(p, *key))
        rep = check_section_less_than_half(group, x)
        if rep["status"] == "fail":
            return {"word": format_word(x.word), "detail": rep}
        return rep["status"]

    return _sweep("short-section", seed, cases, lambda rng: _draw_case2(p, rng), check,
                  budget=cases * SHORT_SECTION_ATTEMPTS)


def sweep_length_contraction(group, cases, seed):
    """First-level contraction on random st(1) elements: sum of section
    lengths <= l, each section <= (l+1)/2, and l > 1 forces every section
    strictly shorter. A draw has at most CONTRACTION_MAX_FACTORS b-syllables,
    so CONTRACTION_LENGTH_CAP certifies l; an uncertified length is a
    counterexample."""
    p = group.p

    def check(nums):
        g = group.element(_st1_word(p, nums))
        l = g.length(CONTRACTION_LENGTH_CAP)
        sec_lengths = [g.section(u).length(CONTRACTION_LENGTH_CAP) for u in range(1, p + 1)]
        entry = {"word": format_word(g.word), "length": l, "sections": sec_lengths}
        if l is None or None in sec_lengths:
            return {**entry, "detail": "length not certified within cap"}
        if sum(sec_lengths) > l:
            return {**entry, "detail": "section lengths sum past |g|"}
        if any(2 * s > l + 1 for s in sec_lengths):
            return {**entry, "detail": "a section exceeds (|g|+1)/2"}
        if l > 1 and any(s >= l for s in sec_lengths):
            return {**entry, "detail": "no strict contraction despite |g| > 1"}
        return "pass"

    return _sweep("length-contraction", seed, cases,
                  lambda rng: _draw_st1(p, rng, CONTRACTION_MAX_FACTORS, False), check)


def _rotation_scaling_orbit(m, p):
    """The first rows c * (m rotated k steps), c in F_p \\ {0}, 0 <= k < p."""
    rotations = [m[k:] + m[:k] for k in range(p)]
    return {tuple(c * x % p for x in row) for row in rotations for c in range(1, p)}


def sweep_circulant(p, seed):
    """Circulant rank criterion: rank < p iff the entries sum to zero.

    Sampled, CIRCULANT_SAMPLES first rows, once p^p is larger; past
    CIRCULANT_MAX_P it raises ResourceLimitError before ranking anything.
    Otherwise (p = 3, 5) every first row is checked, and one row per orbit
    under rotation and nonzero scaling is ranked: a rotated first row gives
    the same rows in another order, c != 0 times a first row gives c times
    the matrix with c times the entry sum, so rank and verdict are constant
    on an orbit. That is 6 ranks for 27 rows at p = 3 and 158 for 3,125 at
    p = 5. Each row is reported at its place in product order, with the rank
    of its orbit's first row, so a failing orbit lists every member."""
    _guard_p("circulant", p, CIRCULANT_MAX_P)
    rng = random.Random(seed)
    exhaustive = p ** p <= CIRCULANT_SAMPLES
    if exhaustive:
        vectors = itertools.product(range(p), repeat=p)
        total = p ** p
    else:
        vectors = (tuple(_below(rng, p) for _ in range(p)) for _ in range(CIRCULANT_SAMPLES))
        total = CIRCULANT_SAMPLES
    bad = []
    orbit_verdicts = {}
    for m in vectors:
        verdict = orbit_verdicts.get(m)
        if verdict is None:
            rank = circulant_rank(m, p)
            verdict = rank, (rank < p) != (sum(m) % p == 0)
            if exhaustive:
                orbit_verdicts.update(dict.fromkeys(_rotation_scaling_orbit(m, p), verdict))
        rank, wrong = verdict
        if wrong:
            bad.append({"vector": list(m), "rank": rank})
    return _report("circulant", seed, cases_run=total, passed=total - len(bad),
                   counterexamples=bad, exhaustive=exhaustive)


def sweep_interval(p, seed=0):
    """The interval criterion over F_p, scanned exhaustively; past
    INTERVAL_MAX_P it raises ResourceLimitError before scanning."""
    if p < 5:
        return _report("interval-lemma", seed, skipped=1,
                       note="needs p >= 5; the inner interval range is empty below that")
    _guard_p("interval-lemma", p, INTERVAL_MAX_P)
    violations = interval_lemma_scan(p)
    total = (p - 1) * (p - 3) * p * (p - 1)  # (i, k, i1, i2) quadruples scanned
    return _report("interval-lemma", seed, cases_run=total, passed=total - len(violations),
                   counterexamples=[list(v) for v in violations])


def sweep_k_generator(group, seed=0):
    if group.family != FAMILY_CONSTANT:
        return _report("k-generator", seed, skipped=1,
                       note="identity specific to the constant-vector group")
    ok = k_generator_identity(group.p)
    return _report("k-generator", seed, cases_run=group.p, passed=group.p if ok else 0,
                   counterexamples=[] if ok else [{"detail": "coordinate mismatch"}])


def sweep_infinite_order(group, seed=0):
    if group.lam == 0:
        return _report("infinite-order", seed, skipped=1,
                       note="trace needs a non-torsion group")
    trace = infinite_order_trace(group, group.a * group.b)
    expected = ((group.lam * 1) % group.p, 1)
    bad = [{"step": k + 1, "got": list(v)}
           for k, v in enumerate(trace[1:]) if v != expected]
    return _report("infinite-order", seed, cases_run=TRACE_STEPS, passed=TRACE_STEPS - len(bad),
                   counterexamples=bad, trace=[list(v) for v in trace])


def sweep_maximal_census(group, seed=0):
    # the census raises CrossCheckError unless its order equals the closed
    # form; its records follow from |Q : Q'| = p^2, a theorem for every vector
    census = maximal_subgroups_census(group, CENSUS_LEVEL)
    return _report("maximal-census", seed, cases_run=census["count"],
                   passed=census["count"], census=census)


def _check_action_map(p):
    """Re-check A != I, A^p = I and sum_{k<p} A^k = 0 for the model's action
    matrix A, applying its map over the integers to the p - 1 basis vectors."""
    orbits = [[tuple(int(i == j) for j in range(p - 1))] for i in range(p - 1)]
    for orbit in orbits:
        for _ in range(p):
            orbit.append(_model.shift(orbit[-1]))
    if all(orbit[1] == orbit[0] for orbit in orbits):
        raise CrossCheckError("action matrix is the identity")
    if any(orbit[p] != orbit[0] for orbit in orbits):
        raise CrossCheckError("action matrix does not have order p")
    if any(any(map(sum, zip(*orbit[:p]))) for orbit in orbits):
        raise CrossCheckError("powers of the action matrix do not sum to zero")


def sweep_constant_model(group, seed=0):
    """Constant-group contrast checks on the semidirect-product model."""
    if group.family != FAMILY_CONSTANT:
        return _report("constant-model", seed, skipped=1,
                       note="model applies to the constant-vector group only")
    p = group.p
    bad = []
    cases = 0
    skipped = 0
    _check_action_map(p)
    cases += 1
    for q1, q2 in ((2, 3), (2, 5)):
        cases += 1
        if not _model.distinct_mq_witness(q1, q2, p):
            bad.append({"detail": f"M_{q1} and M_{q2} not seen distinct"})
    finite_census = None
    model_order = p * 2 ** (p - 1)
    if model_order <= MODEL_CENSUS_ORDER_CAP:
        cases += 1
        fm = _model.reduce_mod(p, 2)
        maximal = _model.enumerate_maximal_subgroups(fm)
        finite_census = _model.census_dict(fm, maximal)
        if not any(not rec["normal"] and rec["index"] != p for rec in finite_census["maximal"]):
            bad.append({"detail": "no non-normal maximal subgroup of index != p in the model"})
    else:
        skipped += 1
    rep = _report("constant-model", seed, cases_run=cases, passed=cases - len(bad),
                  skipped=skipped, counterexamples=bad)
    if finite_census is not None:
        rep["census"] = finite_census
    return rep
