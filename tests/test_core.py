"""The word-level engine: sections, actions, equality, length."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ggslab import core
from ggslab.core import (
    FAMILY_CONSTANT,
    FAMILY_FABRYKOWSKI_GUPTA,
    FAMILY_GENERIC,
    FAMILY_TORSION,
    Element,
    GgsGroup,
    format_vertex,
    make_ggs,
    parse_group_spec,
    parse_vertex,
)
from ggslab.errors import CrossCheckError, InputError
from ggslab.quotients import level_quotient, project
from ggslab.words import GroupWord, class_sums, concat, normalize, parse_word, random_word

from oracles import (
    GROUP_SPEC_RE,
    agree_to_depth,
    class_floor,
    leaf_action,
    parse_group_spec_by_regex,
    product_class_sequences,
    section_by_tokens,
    section_target_candidates,
    walk_class_counts,
)


# classification -------------------------------------------------------------


@pytest.mark.parametrize("p,e,family,lam,torsion,branch", [
    (3, (1, 1), FAMILY_CONSTANT, 2, False, False),
    (3, (1, 2), FAMILY_TORSION, 0, True, True),
    (3, (1, 0), FAMILY_FABRYKOWSKI_GUPTA, 1, False, True),
    (3, (0, 1), FAMILY_FABRYKOWSKI_GUPTA, 1, False, True),
    (3, (2, 2), FAMILY_CONSTANT, 1, False, False),  # b_(2,2) = b_(1,1)^2
    (5, (1, 1, 1, 1), FAMILY_CONSTANT, 4, False, False),
    (5, (1, 2, 3, 4), FAMILY_TORSION, 0, True, True),
    (5, (0, 0, 2, 0), FAMILY_FABRYKOWSKI_GUPTA, 2, False, True),
    (5, (1, 0, 2, 4), FAMILY_GENERIC, 2, False, True),
    (5, (3, 3, 3, 3), FAMILY_CONSTANT, 2, False, False),
])
def test_family_classification(p, e, family, lam, torsion, branch):
    g = make_ggs(p, e)
    assert g.family == family
    assert g.lam == lam
    assert g.is_torsion == torsion
    assert g.is_branch == branch


def test_defining_vector_validation():
    with pytest.raises(InputError):
        make_ggs(3, (1, 2, 0))  # wrong length
    with pytest.raises(InputError):
        make_ggs(3, (0, 0))  # zero vector
    with pytest.raises(InputError):
        make_ggs(3, (3, 6))  # zero after reduction
    with pytest.raises(InputError):
        make_ggs(4, (1, 1, 1))
    for p in (0, 1, 9):
        with pytest.raises(InputError):
            make_ggs(p, (1,) * max(p - 1, 0))
    for p in (3.0, "3", True, None):
        with pytest.raises(InputError):
            make_ggs(p, (1, 1))
    # entries must be integers, never truncated or read as 0/1
    for e in ((1.5, 0.9), (1, 2.0), (True, 1), (1, False), ("1", 1)):
        with pytest.raises(InputError):
            make_ggs(3, e)
    # entries reduce mod p
    assert make_ggs(3, (4, 5)).e == (1, 2)


def test_scaled_constant_vector_keeps_its_spec():
    g = make_ggs(3, (2, 2))
    assert g.e == (2, 2)
    assert g.spec_string() == "p=3;e=2,2"


def test_wrong_length_is_rejected_before_primality_test(monkeypatch):
    calls = []
    monkeypatch.setattr(core, "validate_odd_prime", lambda p: calls.append(p))
    with pytest.raises(InputError):
        make_ggs(1000000000000000003, (1,))
    assert calls == []


def test_group_equality_and_hash():
    assert make_ggs(3, (1, 2)) == make_ggs(3, (4, 2))
    assert make_ggs(3, (1, 2)) != make_ggs(3, (1, 1))
    assert hash(make_ggs(3, (1, 2))) == hash(make_ggs(3, (1, 2)))


def test_group_equality_is_presentation_equality():
    # G_(2,2) = G_(1,1) as groups, but the word b names b_(2,2) = b_(1,1)^2 in one
    # and b_(1,1) in the other, so the presentations differ and so do the groups
    g, h = make_ggs(3, (2, 2)), make_ggs(3, (1, 1))
    assert g != h
    assert g == make_ggs(3, (2, 2)) and hash(g) == hash(make_ggs(3, (2, 2)))
    assert len({g, h, make_ggs(3, (2, 2)), make_ggs(3, (1, 1))}) == 2
    for cross in (lambda: g.a * h.a, lambda: g.b.equals(h.b),
                  lambda: g.b.conjugate(h.a), lambda: g.b.commutator(h.a)):
        with pytest.raises(InputError):
            cross()
    assert project(g.b, 3) == project(h.b ** 2, 3)
    assert project(g.b, 3) != project(h.b, 3)


def test_spec_string_round_trip():
    g = make_ggs(5, (1, 0, 2, 4))
    assert parse_group_spec(g.spec_string()) == g


# what a spec's grammar turns on, "e" and ";" apart from ";e=", whitespace
# that strip() removes, and a digit outside ASCII (ARABIC-INDIC DIGIT THREE)
SPEC_FRAGMENTS = ["p=", ";e=", ",", "-", "+", "_", " ", "\n", "0", "7", "\u0663", "e", ";"]


def _spec_outcome(parse, text):
    try:
        g = parse(text)
    except InputError as exc:
        return str(exc)
    return g.p, g.e


def _fragments(most):
    return st.lists(st.sampled_from(SPEC_FRAGMENTS), max_size=most).map("".join)


# free strings of fragments, and specs of digit runs with a fragment here and
# there, which reach the int conversions and make_ggs
_DIGITS = st.lists(st.sampled_from("07\u0663"), min_size=1, max_size=2).map("".join)
_ENTRY = st.one_of(_DIGITS, _DIGITS.map("-".__add__))
SPEC_TEXTS = st.one_of(
    _fragments(12),
    st.tuples(_fragments(1), st.just("p="), st.one_of(_DIGITS, _fragments(2)), st.just(";e="),
              st.lists(_ENTRY, min_size=1, max_size=6).map(",".join), _fragments(1)).map("".join),
)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(SPEC_TEXTS)
@example(" p=7;e=1,0,-7,\u0663,+0,0\n")  # "+0" is no entry
@example("p=7;e=1,0,-7,\u0663,00,-0\n")
@example("p=3;e=1;e=2")  # a second ";e=" is no entry either
@example("p=3;e=;e=1,2")
@example("p=3;e=1,2;e=")
@example("p=\u00b2;e=1")  # "²" is a digit to isdigit, not to \d
@example("p=3;e=1,\u00b2")
@example("p=3;e=-1,-2")
@example("p=3;e=--1,2")
@example("p=3;e=1,2,")
def test_parse_group_spec_is_the_regex(text):
    outcome = _spec_outcome(parse_group_spec, text)
    assert outcome == _spec_outcome(parse_group_spec_by_regex, text)
    refused = isinstance(outcome, str) and outcome.startswith("cannot parse group spec")
    assert refused == (GROUP_SPEC_RE.match(text.strip()) is None)


def test_parse_vertex():
    assert parse_vertex("", 3) == ()
    assert parse_vertex(" \t", 3) == ()
    assert parse_vertex("1.2.3", 3) == (1, 2, 3)
    assert parse_vertex(" 3.1\n", 3) == (3, 1)
    assert parse_vertex("\u0663", 3) == (3,)
    with pytest.raises(InputError, match=r"^vertex letter 4 out of range 1\.\.3$"):
        parse_vertex("1.4", 3)
    with pytest.raises(InputError, match=r"^vertex letter -1 out of range 1\.\.3$"):
        parse_vertex("-1", 3)


# int() takes each of these, so the first two once read as 1 and 1.2, and
# "1_0" as letter 10; 5,000 digits are past the interpreter's int text limit
@pytest.mark.parametrize("text", ["+1", "1. 2", "1_0", "1..2", "1.", ".1", "\u00b2",
                                  pytest.param("7" * 5000, id="5000-digits")])
def test_parse_vertex_refuses_what_the_grammars_refuse(text):
    with pytest.raises(InputError, match="^bad vertex letter") as exc:
        parse_vertex(text, 31)
    assert len(str(exc.value)) < 60


# sections and psi -----------------------------------------------------------


def test_psi_of_b():
    g = make_ggs(3, (1, 2))
    secs = g.b.psi()
    assert secs[0].word == parse_word("a", 3)
    assert secs[1].word == parse_word("a^2", 3)
    assert secs[2].word == parse_word("b", 3)


def test_psi_of_b_general_vector():
    g = make_ggs(5, (1, 0, 2, 4))
    secs = g.b.psi()
    for u in range(1, 5):
        assert secs[u - 1].word == normalize([("a", g.e[u - 1])], 5)
    assert secs[4].word == g.b.word


def test_psi_needs_level_one_stabilizer():
    g = make_ggs(3, (1, 2))
    with pytest.raises(InputError):
        g.a.psi()
    assert g.b.in_level_one_stabilizer()
    assert not g.a.in_level_one_stabilizer()
    assert not (g.a * g.b).in_level_one_stabilizer()


def test_conjugation_by_a_shifts_sections():
    # (g^a).section(u) = g.section(u-1), letters cycling with p below 1
    for p, e in ((3, (1, 2)), (5, (1, 0, 2, 4))):
        g = make_ggs(p, e)
        ba = g.b.conjugate(g.a)
        for u in range(1, p + 1):
            prev = p if u == 1 else u - 1
            assert ba.section(u).equals(g.b.section(prev))


def test_commutator_closed_form():
    # psi([a,b]) = (b^-1 a^{e_1}, a^{e_2-e_1}, ..., a^{e_{p-1}-e_{p-2}}, a^{-e_{p-1}} b)
    for p, e in ((3, (1, 2)), (5, (1, 0, 2, 4)), (7, (1, 2, 0, 3, 0, 5))):
        g = make_ggs(p, e)
        secs = g.a.commutator(g.b).psi()
        assert secs[0].equals(g.element([("b", -1), ("a", e[0])]))
        for u in range(2, p):
            assert secs[u - 1].equals(g.element([("a", e[u - 1] - e[u - 2])]))
        assert secs[p - 1].equals(g.element([("a", -e[p - 2]), ("b", 1)]))


def test_section_cocycle_sampled():
    # section_u(g h) = section_u(g) * section_{u^g}(h)
    rng = random.Random(31)
    for p, e in ((3, (1, 1)), (5, (1, 2, 3, 4))):
        g = make_ggs(p, e)
        for _ in range(40):
            x = g.element(random_word(p, 4, rng))
            y = g.element(random_word(p, 4, rng))
            for u in range(1, p + 1):
                lhs = (x * y).section(u)
                rhs = x.section(u) * y.section(x.act((u,))[0])
                assert lhs.word == rhs.word


_SECTION_GROUPS = (
    (3, (1, 2)), (3, (1, 1)), (5, (1, 0, 2, 4)), (5, (0, 0, 2, 0)),
    (7, (1, 0, 0, 0, 0, 0)), (7, (2, 5, 0, 1, 3, 3)),
)


@st.composite
def _section_case(draw):
    p, e = draw(st.sampled_from(_SECTION_GROUPS))
    return make_ggs(p, e), _draw_word(draw, p, 6)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_section_case())
# at letter 3 the token walk reads b a a^2 b: an interior a-run 2 + 1 = 0 mod 3
@example((make_ggs(3, (1, 2)), parse_word("b a b a b a b", 3)))
# at letter 5 it reads b a^0 b, since e_2 = 0
@example((make_ggs(5, (1, 0, 2, 4)), parse_word("b a^2 b a^3 b", 5)))
# the walk pops back past a cancelled b-power: at letter 5 it reads b a^0 b^4,
# so b b^4 cancels and the section is the leading a^0 alone
@example((make_ggs(5, (1, 0, 2, 4)), parse_word("b a^2 b a^3 b^4", 5)))
# at letter 3 it reads a b a a^2 b^2 a: b and b^2 meet across a^3 and cancel,
# and the a-runs either side merge
@example((make_ggs(3, (1, 1)), parse_word("a b a^2 b a b a b^2 a b^2 a b", 3)))
# at letter 5 it reads b a b^2 a^0 b^3 a: b^2 b^3 cancels, and the walk pops
# back to the interior a, to which the last a adds
@example((make_ggs(5, (1, 0, 2, 4)), parse_word("b a b a^4 b^2 a^2 b a^3 b^3 a b", 5)))
def test_uncached_sections_match_the_token_walk(case):
    g, w = case
    for r in range(g.p):
        got = g._section_uncached(w, r)
        want = section_by_tokens(g, w, r)
        assert got == want
        assert (got._ab, hash(got)) == (want._ab, hash(want))
        # a second walk is served from the intern table
        again = g._section_uncached(w, r)
        assert again is got
        assert again == section_by_tokens(g, w, r)


@pytest.mark.parametrize("p,e", _SECTION_GROUPS)
def test_words_with_one_section_share_one_interned_word(p, e):
    # a w walks the syllables of w from the next letter, and w a^k walks them
    # as w does, so both emit the runs of w:
    # section(a w, r) = section(w a^k, r + 1) = section(w, r + 1)
    g = make_ggs(p, e)
    rng = random.Random(p)
    shared = 0
    for _ in range(30):
        w = random_word(p, 5, rng)
        aw = concat(GroupWord(p, 1, ()), w)
        wa = concat(w, GroupWord(p, 1 + rng.randrange(p - 1), ()))
        for r in range(p):
            sec = g._section_uncached(w, (r + 1) % p)
            assert g._section_uncached(aw, r) is sec
            assert g.section_word(aw, r) is sec
            assert g._section_uncached(wa, (r + 1) % p) is sec
            shared += bool(sec.body)
    assert shared


def test_short_section_sweep_reduces_each_interned_section_once(monkeypatch):
    # the p=7 sweep of verify all: 20,000 draws walk 75,649 sections, 30,529 of
    # which emit a b-syllable, but those emit only 2,070 distinct run tuples,
    # which reduce to 1,637 distinct normal forms; the rest are _a_powers
    from ggslab.lemmas import sweep_short_section

    g = make_ggs(7, (1, 0, 0, 0, 0, 0))
    reduce_runs = core._reduce_runs
    walk = GgsGroup._section_uncached
    reduced = []
    walked = []
    monkeypatch.setattr(core, "_reduce_runs",
                        lambda p, runs: reduced.append(tuple(runs)) or reduce_runs(p, runs))
    monkeypatch.setattr(GgsGroup, "_section_uncached",
                        lambda self, w, r: walked.append(walk(self, w, r)) or walked[-1])
    assert sweep_short_section(g, 50, 0)["skipped"] == 20000
    a_powers = set(map(id, g._a_powers))
    emitted_b = [id(sec) for sec in walked if id(sec) not in a_powers]
    assert len(walked) == 75649
    assert len(emitted_b) == 30529
    assert len(reduced) == len(set(reduced)) == len(g._interned) == 2070
    assert len(set(g._interned.values())) == 1637
    assert set(map(id, g._interned.values())) == set(emitted_b)


@pytest.mark.parametrize("p,e", _SECTION_GROUPS)
def test_pure_a_power_sections_are_the_interned_words(p, e):
    g = make_ggs(p, e)
    assert len(g._a_powers) == p
    for k, word in enumerate(g._a_powers):
        fresh = GroupWord(p, k, ())
        assert word == fresh
        assert (word._ab, hash(word)) == (fresh._ab, hash(fresh))
    assert g._id_word is g._a_powers[0]
    # b has section a^{e_r} at every letter r != p
    for r in range(1, p):
        assert g._section_uncached(g.b.word, r) is g._a_powers[e[r - 1]]
        assert g.section_word(g.b.word, r) is g._a_powers[e[r - 1]]


# the tree action ------------------------------------------------------------


def test_act_examples():
    g = make_ggs(3, (1, 2))
    assert g.a.act((3, 1)) == (1, 1)
    assert g.b.act((1, 2)) == (1, 3)  # subtree 1 sees a^{e_1} = a
    assert g.b.act((3, 1, 2)) == (3, 1, 3)  # subtree 3 sees b again
    assert g.identity.act((2, 2)) == (2, 2)
    assert g.a.act(()) == ()


def test_act_is_right_action_sampled():
    rng = random.Random(37)
    for p, e in ((3, (1, 2)), (5, (1, 0, 2, 4))):
        g = make_ggs(p, e)
        for _ in range(50):
            x = g.element(random_word(p, 4, rng))
            y = g.element(random_word(p, 4, rng))
            v = tuple(rng.randint(1, p) for _ in range(rng.randint(1, 4)))
            assert (x * y).act(v) == y.act(x.act(v))


def test_act_preserves_levels_and_prefixes():
    rng = random.Random(41)
    g = make_ggs(5, (1, 2, 3, 4))
    for _ in range(50):
        x = g.element(random_word(5, 4, rng))
        v = tuple(rng.randint(1, 5) for _ in range(4))
        img = x.act(v)
        assert len(img) == 4
        # prefix of image = image of prefix
        assert img[:2] == x.act(v[:2])


def test_act_bijective_per_level():
    g = make_ggs(3, (1, 0))
    w = g.element("a b^2 a b")
    images = leaf_action(g, w.word, 2)
    assert sorted(images) == list(range(9))


def test_act_rejects_bad_vertices():
    g = make_ggs(3, (1, 2))
    for bad in ((0,), (4,), (1, 0), ("1",), (True,)):
        with pytest.raises(InputError):
            g.a.act(bad)
        with pytest.raises(InputError):
            g.a.section(bad)
    # a bare letter must be an int too, never iterated or read as 1
    for bad in (1.0, True, "1"):
        with pytest.raises(InputError):
            g.b.section(bad)


# equality -------------------------------------------------------------------


def test_order_of_ab_in_the_torsion_group():
    g = make_ggs(3, (1, 2))
    ab = g.a * g.b
    assert not (ab ** 3).is_trivial()
    assert (ab ** 9).is_trivial()
    # the oracle agrees through depth 9
    assert agree_to_depth(g, (ab ** 9).word, g.identity.word, 9)


def test_generator_relations():
    for p, e in ((3, (1, 2)), (5, (1, 0, 2, 4))):
        g = make_ggs(p, e)
        assert (g.a ** p).is_trivial()
        assert (g.b ** p).is_trivial()
        assert not g.a.equals(g.b)


def test_equal_words_vs_depth_oracle_sampled():
    rng = random.Random(43)
    for p, e in ((3, (1, 2)), (3, (1, 1)), (5, (1, 0, 2, 4))):
        g = make_ggs(p, e)
        for _ in range(150):
            w1 = random_word(p, 4, rng)
            w2 = random_word(p, 4, rng)
            assert g.equal_words(w1, w2) == agree_to_depth(g, w1, w2, 8)


def test_equal_detects_rewritten_forms():
    g = make_ggs(3, (1, 2))
    rng = random.Random(47)
    relator = (g.a * g.b) ** 9  # trivial, 9 syllables
    for _ in range(20):
        x = g.element(random_word(3, 4, rng))
        y = g.element(x.word * relator.word)
        assert x.word != y.word or x.word.is_identity
        assert x.equals(y)


def test_equal_descends_where_exponent_sums_match(monkeypatch):
    # a pair whose first section pair shares exponent sums but differs, so
    # that section pair recurses too before the pair fails
    depths = _record_equal_depths(monkeypatch)
    g = make_ggs(3, (1, 2))
    w1 = parse_word("a b a b a^2 b^2", 3)
    w2 = parse_word("b a^2 b a b^2 a", 3)
    assert g.equal_words(w1, w2) is False
    assert max(depths) >= 2


# R2 = [b, b^{(b^{a^6})^2}] and R3 = [b, b^{E^2}] for E = b^{(b^{a^6})^6} are
# trivial at p=7 e=(1,0,0,0,0,0): the section of R3 at the letter 7 is R2, that
# of R2 is [b, b^{a^2}], and every other section is trivial, so comparing R3
# with an equal word descends two levels below the first
LIFTED_R2 = "b^6 a b^5 a^6 b^6 a b^2 a^6 b a b^5 a^6 b a b^2 a^6"
LIFTED_R3 = ("b^6 a b a^6 b^5 a b^6 a^6 b^6 a b a^6 b^2 a b^6 a^6 "
             "b a b a^6 b^5 a b^6 a^6 b a b a^6 b^2 a b^6 a^6")
RELATORS = (
    ((7, (1, 0, 0, 0, 0, 0)), "b a^2 b a^5 b^6 a^2 b^6 a^5"),
    ((3, (1, 1)), "b a b^2 a b a b^2 a b a b^2 a"),
    ((7, (1, 0, 0, 0, 0, 0)), LIFTED_R3),
)


def _record_equal_depths(monkeypatch):
    """Log the depth of every _equal call; a call at depth d + 1 means a pair at
    depth d recursed."""
    depths = []
    equal = GgsGroup._equal

    def logged(self, w1, w2, depth, bound):
        depths.append(depth)
        return equal(self, w1, w2, depth, bound)

    monkeypatch.setattr(GgsGroup, "_equal", logged)
    return depths


def _insert_every(w, relator, k):
    """w with the relator's tokens inserted before every k-th b-syllable."""
    toks = [("a", w.leading_a)]
    for i, (beta, alpha) in enumerate(w.body):
        if i and i % k == 0:
            toks += relator.tokens()
        toks += [("b", beta), ("a", alpha)]
    return normalize(toks, w.p)


def test_equal_recursion_stays_within_the_contraction_bound(monkeypatch):
    depths = _record_equal_depths(monkeypatch)
    rng = random.Random(61)
    deepest = -1
    for (p, e), text in RELATORS:
        relator = parse_word(text, p)
        for _ in range(15):
            w = random_word(p, 60, rng)
            for other, want in ((random_word(p, 60, rng), None),
                                (_insert_every(w, relator, 8), True)):
                # cold memos, so no settled pair cuts the recursion short
                g = make_ggs(p, e)
                depths.clear()
                got = g.equal_words(w, other)
                assert want is None or got is want
                bound = (max(w.syllables, other.syllables) - 1).bit_length()
                assert max(depths) - 1 <= bound
                deepest = max(deepest, max(depths) - 1)
    assert deepest == 2


def test_equal_raises_when_sections_stop_contracting(monkeypatch):
    section = GgsGroup.section_word
    # each section carries its whole word along, so no depth bound holds
    monkeypatch.setattr(GgsGroup, "section_word",
                        lambda self, w, r: concat(section(self, w, r), w))
    g = make_ggs(7, (1, 0, 0, 0, 0, 0))
    with pytest.raises(CrossCheckError, match="past the contraction bound 3"):
        g.equal_words(parse_word(LIFTED_R2, 7), g.identity.word)


def test_equal_keeps_equal_sub_pairs_of_a_failed_comparison():
    # the sections at the letter 7 are R2 and 1, equal after a descent that
    # proves R2's own section [b, b^{a^2}] trivial; the pair then fails at the
    # letter 3 (b^6 against b^4), and both equal sub-pairs stay settled
    g = make_ggs(7, (1, 0, 0, 0, 0, 0))
    w1 = parse_word(LIFTED_R3 + " a^4 b^6 a^6 b^6 a^2", 7)
    w2 = parse_word("a^4 b^4 a^6 b a^2", 7)
    assert g.equal_words(w1, w2) is False
    one = g.identity.word
    kept = {(one, parse_word(LIFTED_R2, 7)),
            (one, parse_word("b^6 a^5 b^6 a^2 b a^5 b a^2", 7))}
    assert g._eq_true == kept
    for u, v in kept:
        assert agree_to_depth(make_ggs(7, (1, 0, 0, 0, 0, 0)), u, v, 8)


@pytest.mark.parametrize("e,equal_pairs", [((1, 2), 0), ((1, 1), 18), ((1, 0), 0)])
def test_equal_words_vs_depth_oracle_on_a_ball(e, equal_pairs):
    # every pair of the 381 normal forms of at most 3 syllables at p=3 whose
    # exponent sums agree (7,938 pairs), each on a cold group and then all on
    # one group whose memo tables fill as it goes
    forms = _p3_normal_forms(3)
    pairs = [(u, v) for u, v in itertools.combinations(forms, 2)
             if u.exponent_sums() == v.exponent_sums()]
    assert (len(forms), len(pairs)) == (381, 7938)
    cold = []
    for u, v in pairs:
        g = make_ggs(3, e)
        got = g.equal_words(u, v)
        assert got == agree_to_depth(g, u, v, 8)
        cold.append(got)
    assert sum(cold) == equal_pairs
    g = make_ggs(3, e)
    assert [g.equal_words(u, v) for u, v in pairs] == cold


def test_equal_group_mismatch():
    g1 = make_ggs(3, (1, 2))
    g2 = make_ggs(3, (1, 1))
    with pytest.raises(InputError):
        g1.b.equals(g2.b)
    with pytest.raises(InputError):
        g1.b * g2.b


# element algebra ------------------------------------------------------------


def test_element_algebra_sampled():
    rng = random.Random(53)
    g = make_ggs(5, (1, 0, 2, 4))
    for _ in range(60):
        x = g.element(random_word(5, 4, rng))
        y = g.element(random_word(5, 4, rng))
        assert (x * x.inverse()).word.is_identity
        assert x.conjugate(y).word == (y.inverse() * x * y).word
        assert x.commutator(y).word == (x.inverse() * y.inverse() * x * y).word
        # abelianization is a homomorphism to Z_p x Z_p
        xa, xb = x.abelianize()
        ya, yb = y.abelianize()
        assert (x * y).abelianize() == ((xa + ya) % 5, (xb + yb) % 5)
    assert g.a.root_permutation_power() == 1
    assert g.b.root_permutation_power() == 0


@pytest.mark.parametrize("name", Element.__slots__)
def test_every_element_slot_refuses_assignment(name):
    x = make_ggs(3, (1, 2)).b
    with pytest.raises(AttributeError):
        setattr(x, name, getattr(x, name))


# fractality witnesses -------------------------------------------------------


def test_sections_reach_both_generators_everywhere():
    # at every first-level letter some element of st(1) has section b, and
    # another has section a
    for p, e in ((3, (1, 2)), (5, (1, 0, 2, 4))):
        g = make_ggs(p, e)
        j = next(i for i, c in enumerate(e) if c) + 1  # a letter with e_j != 0
        inv = pow(e[j - 1], p - 2, p)
        for u in range(1, p + 1):
            wb = g.b.conjugate(g.a ** (u % p))
            assert wb.section(u).equals(g.b)
            wa = (g.b ** inv).conjugate(g.a ** ((u - j) % p))
            assert wa.section(u).equals(g.a)


# length ---------------------------------------------------------------------


def test_length_fixtures():
    g = make_ggs(3, (1, 2))
    assert g.identity.length() == 0
    assert g.element("a^2").length() == 0
    assert g.b.length() == 1
    assert g.element("b a b").length() == 2
    assert ((g.a * g.b) ** 3).length() == 3


def test_length_cap_and_memo_restart():
    g = make_ggs(3, (1, 2))
    x = g.element("b a b")
    assert x.length(cap=0) is None
    assert x.length(cap=1) is None
    assert x.length(cap=2) == 2
    # after an uncapped answer the capped calls stay consistent
    assert x.length(cap=6) == 2
    for bad in (-1, 2.5, True, None):
        with pytest.raises(InputError):
            x.length(cap=bad)


def test_length_is_bounded_by_syllable_count():
    rng = random.Random(59)
    for p, e in ((3, (1, 1)), (5, (1, 2, 3, 4))):
        g = make_ggs(p, e)
        for _ in range(30):
            w = random_word(p, 4, rng)
            l = g.length_word(w, cap=6)
            assert l is not None
            assert l <= w.syllables


def test_length_subadditive_sampled():
    rng = random.Random(61)
    g = make_ggs(3, (1, 0))
    for _ in range(30):
        x = g.element(random_word(3, 3, rng))
        y = g.element(random_word(3, 3, rng))
        lx, ly = x.length(6), y.length(6)
        lxy = (x * y).length(6)
        if None not in (lx, ly, lxy):
            assert lxy <= lx + ly


def test_length_invariant_under_conjugation_by_a():
    # conjugating by a permutes sections, so certified lengths agree
    g = make_ggs(5, (1, 0, 2, 4))
    rng = random.Random(67)
    for _ in range(20):
        x = g.element(random_word(5, 3, rng))
        lx = x.length(5)
        lc = x.conjugate(g.a).length(5)
        if lx is not None and lc is not None:
            assert abs(lx - lc) <= 0  # equal when both certified


# the class-sum sieve against the section-target sieve ------------------------

# (p, e, most syllables drawn); scaled constant, torsion and generic vectors,
# with words short enough that the oracle's p^m class sequences stay cheap
_SIEVE_GROUPS = (
    (3, (1, 0), 5), (3, (2, 2), 5), (3, (1, 2), 5),
    (5, (1, 0, 2, 4), 4), (5, (3, 3, 3, 3), 4), (5, (1, 2, 3, 4), 4),
    (7, (1, 0, 0, 0, 0, 0), 3), (7, (1, 2, 3, 4, 5, 6), 3), (7, (2, 5, 0, 1, 3, 3), 3),
)


def _draw_word(draw, p, most):
    m = draw(st.integers(0, most))
    body = tuple(
        (draw(st.integers(1, p - 1)), draw(st.integers(1 if k < m - 1 else 0, p - 1)))
        for k in range(m))
    return GroupWord(p, draw(st.integers(0, p - 1)), body)


@st.composite
def _group_and_word(draw):
    p, e, most = draw(st.sampled_from(_SIEVE_GROUPS))
    return make_ggs(p, e), _draw_word(draw, p, most)


def _meets_floor(word, floor):
    return all(have >= owed for have, owed in zip(walk_class_counts(word), floor))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_group_and_word())
def test_candidate_words_match_section_target_sieve(case):
    # the class-sum sieve with the class floor is the section-target sieve
    # filtered by a floor read off token lists, and everything the floor drops
    # is a word that does not equal w
    g, w = case
    p = g.p
    sums = class_sums(w)
    for c in range(p):
        assert sums[c] == g.section_word(w, (-c) % p).exponent_sums()[1]
    floor = class_floor(g, w)
    assert g._class_floor(w) == floor
    for m in range(w.syllables + 1):
        oracle = section_target_candidates(g, m, w)
        kept = [c for c in oracle if _meets_floor(c, floor)]
        assert list(g._candidate_words(m, w, floor)) == kept
        for c in oracle:
            if not _meets_floor(c, floor):
                assert g.equal_words(c, w) is False


@pytest.mark.parametrize("p,most", [(3, 5), (5, 5), (7, 4)])
def test_class_sequences_match_product_filter(p, most):
    # 0/1 floors are the old support filter, and floors with entries 0..2 run
    # to one syllable less; floors whose total exceeds m cannot be met and
    # give an empty stream
    for m in range(1, most + 1):
        floors = [[1 if c in support else 0 for c in range(p)]
                  for size in range(min(m + 1, p) + 1)
                  for support in itertools.combinations(range(p), size)]
        if m < most:
            floors += [list(need) for need in itertools.product(range(3), repeat=p)
                       if 2 in need and sum(need) <= m + 1]
        for need in floors:
            assert (list(core._class_sequences(p, m, need))
                    == product_class_sequences(p, m, need))


# the class floor ------------------------------------------------------------

@pytest.mark.parametrize("e,distinct_pairs", [((1, 0), 0), ((1, 2), 0), ((1, 1), 432)])
def test_class_floor_holds_for_every_equal_pair(e, distinct_pairs):
    # exhaustive at p=3 over words of at most 4 syllables: words with the same
    # action on level 3 are compared with the word problem, and every equal
    # pair (c, w) has at least need(w)[k] syllables of each walk class k. At
    # this size only the constant group has equal pairs of distinct words;
    # w = c checks the floor against the word itself.
    g = make_ggs(3, e)
    buckets = {}
    for w in _p3_normal_forms(4):
        buckets.setdefault(leaf_action(g, w, 3), []).append(w)
    distinct = 0
    for words in buckets.values():
        floors = [g._class_floor(w) for w in words]
        for c in words:
            for w, floor in zip(words, floors):
                if g.equal_words(c, w):
                    distinct += c != w
                    assert _meets_floor(c, floor)
    assert distinct == distinct_pairs


def _p3_normal_forms(max_syllables):
    """Every normal form at p=3 with at most max_syllables syllables."""
    forms = []
    for m in range(max_syllables + 1):
        for lead in range(3):
            for betas in itertools.product((1, 2), repeat=m):
                for alphas in itertools.product((1, 2), repeat=max(m - 1, 0)):
                    for last in range(3) if m else (None,):
                        forms.append(GroupWord(3, lead, tuple(zip(betas, alphas + (last,)))))
    return forms


def _bfs_length(g, w, cap):
    for m in range(cap + 1):
        for cand in section_target_candidates(g, m, w):
            if g.equal_words(cand, w):
                return m
    return None


@st.composite
def _reducible_word(draw):
    # with one nonzero entry e_k, b^(a^i) has nontrivial first-level sections
    # only at letters i and i + k, so powers of b^(a^i) and b^(a^j) commute
    # when those pairs are disjoint, and x [(b^s)^(a^i), b^(a^j)] y is x y in
    # disguise
    p, e = draw(st.sampled_from(((5, (0, 0, 2, 0)), (7, (1, 0, 0, 0, 0, 0)))))
    g = make_ggs(p, e)
    k = next(i for i, c in enumerate(e, 1) if c)
    i = draw(st.integers(0, p - 1))
    j = draw(st.sampled_from([j for j in range(p)
                              if {i, (i + k) % p}.isdisjoint({j, (j + k) % p})]))
    bs = g.b ** draw(st.integers(1, p - 1))
    r = bs.conjugate(g.a ** i).commutator(g.b.conjugate(g.a ** j))
    x, y = (g.element(_draw_word(draw, p, 2)) for _ in range(2))
    assert r.is_trivial()
    return g, (x * r * y).word


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.one_of(_group_and_word(), _reducible_word()), st.integers(0, 5))
def test_length_matches_breadth_first_search_on_section_targets(case, cap):
    # the oracle gets a group of its own, so neither reads the other's memo
    g, w = case
    assert g.length_word(w, cap) == _bfs_length(make_ggs(g.p, g.e), w, cap)


def test_length_below_the_floor_answers_none_without_confirming(monkeypatch):
    # six syllables over three walk classes, and a floor of six
    g = make_ggs(11, (1, 0, 2, 4, 3, 5, 1, 2, 0, 3))
    w = parse_word("a b^4 a^3 b^9 a^10 b^9 a b^6 a^8 b^5 a^3 b^3", 11)
    assert sum(g._class_floor(w)) == 6
    calls = []
    real = GgsGroup.equal_words
    monkeypatch.setattr(GgsGroup, "equal_words",
                        lambda self, *args: calls.append(args) or real(self, *args))
    assert g.length_word(w, cap=5) is None
    assert calls == []
    assert g._lengths[w] == (None, 5)
    assert g.length_word(w, cap=4) is None
    assert g.length_word(w) == 6


@pytest.mark.parametrize("text,classes", [
    # floor [0, 2, 0, 0, 1], total 3: the search starts on the last level
    ("a b^2 a^3 b a^2 b^4 a", (1, 4, 1)),
    # floor total 2: levels 2 and 3 walk their class sequences first
    ("a^3 b a^2 b^4 a^3 b^4 a^2 b^2 a", (3, 0, 3, 0)),
])
def test_last_level_solves_only_the_own_class_sequence(monkeypatch, text, classes):
    g = make_ggs(5, (1, 0, 2, 4))
    w = parse_word(text, 5)
    need = g._class_floor(w)
    below = sum(len(list(core._class_sequences(5, m, need)))
                for m in range(sum(need), w.syllables))
    solves = []
    real = core.solve_linear_mod_p
    monkeypatch.setattr(core, "solve_linear_mod_p",
                        lambda *args: solves.append(args) or real(*args))
    assert g.length_word(w) == w.syllables
    assert len(solves) == below + 1
    assert solves[-1][0] == [[1 if ck == c else 0 for ck in classes] for c in range(5)]


def test_unconfirmed_last_level_trips_the_self_check(monkeypatch):
    # with no solutions anywhere, w is missing from its own last level
    g = make_ggs(5, (1, 0, 2, 4))
    w = parse_word("a b^2 a^3 b a^2 b^4 a", 5)
    monkeypatch.setattr(core, "solve_linear_mod_p", lambda rows, rhs, p: None)
    with pytest.raises(CrossCheckError, match="not among its own 3-syllable candidates"):
        g.length_word(w)
    assert w not in g._lengths


def test_floor_above_the_word_trips_the_self_check(monkeypatch):
    g = make_ggs(3, (1, 2))
    w = parse_word("b a b", 3)
    monkeypatch.setattr(GgsGroup, "_class_floor", lambda self, w: [2, 1, 1])
    with pytest.raises(CrossCheckError):
        g.length_word(w)


# G_{ce} = G_e -------------------------------------------------------------------


def _scale_betas(w, c):
    return GroupWord(w.p, w.leading_a, tuple((beta * c % w.p, alpha) for beta, alpha in w.body))


@pytest.mark.parametrize("p,e,levels,most", [
    (3, (1, 0), 3, 4), (3, (1, 1), 3, 4), (3, (1, 2), 3, 4),
    (5, (1, 0, 2, 4), 2, 3), (5, (1, 1, 1, 1), 2, 3),
])
def test_scaled_vector_defines_the_same_group(p, e, levels, most):
    # b_{ce} = b_e^c, so a word in G_{ce} is the word with every beta times c in G_e
    base = make_ggs(p, e)
    rng = random.Random(71)
    samples = [random_word(p, most, rng) for _ in range(6)]
    orders = [level_quotient(base, n).order for n in range(1, levels + 1)]
    for c in range(1, p):
        scaled = make_ggs(p, tuple(c * x for x in e))
        assert (scaled.family, scaled.is_torsion, scaled.is_branch) == (
            base.family, base.is_torsion, base.is_branch)
        assert [level_quotient(scaled, n).order for n in range(1, levels + 1)] == orders
        for w in samples:
            assert scaled.length_word(w) == base.length_word(_scale_betas(w, c))
