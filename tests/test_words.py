"""Normal forms for words in the two generators."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggslab.core import make_ggs
from ggslab.errors import InputError
from ggslab.words import (
    GroupWord,
    concat,
    format_word,
    invert,
    normalize,
    parse_word,
    power,
    random_word,
)
from ggslab.words import _reduce

from oracles import reduce_to_fixpoint


def test_identity_word():
    w = GroupWord.identity(3)
    assert w.is_identity
    assert w.syllables == 0
    assert w.exponent_sums() == (0, 0)
    assert format_word(w) == "1"


def test_constructor_validation():
    GroupWord(3, 2, ((1, 0),))  # trailing alpha may be zero
    with pytest.raises(InputError):
        GroupWord(3, 3, ())  # leading exponent out of range
    with pytest.raises(InputError):
        GroupWord(3, 0, ((0, 1),))  # zero b-syllable
    with pytest.raises(InputError):
        GroupWord(3, 0, ((3, 1),))  # b-exponent not reduced
    with pytest.raises(InputError):
        GroupWord(3, 0, ((1, 0), (1, 0)))  # interior alpha must be nonzero
    with pytest.raises(InputError):
        GroupWord(4, 0, ())  # composite modulus
    # exponents must be integers, never truncated or read as 0/1
    for lead, body in ((2.0, ((1, 0),)), (0, ((1.5, 0),)), (0, ((1, 1.0),)),
                       (True, ()), (0, ((True, 0),)), ("1", ())):
        with pytest.raises(InputError):
            GroupWord(3, lead, body)


def test_word_immutable_and_hashable():
    w = GroupWord(3, 1, ((2, 0),))
    with pytest.raises(AttributeError):
        w.leading_a = 0
    assert w == GroupWord(3, 1, ((2, 0),))
    assert hash(w) == hash(GroupWord(3, 1, ((2, 0),)))
    assert w != GroupWord(5, 1, ((2, 0),))


@pytest.mark.parametrize("name", GroupWord.__slots__)
def test_every_word_slot_refuses_assignment(name):
    w = GroupWord(5, 1, ((2, 3), (4, 0)))
    with pytest.raises(AttributeError):
        setattr(w, name, getattr(w, name))
    with pytest.raises(AttributeError):
        setattr(GroupWord._reduced(5, 1, ((2, 3), (4, 0))), name, None)


_normal_form_parts = st.sampled_from((3, 5, 7)).flatmap(lambda p: st.tuples(
    st.just(p),
    st.integers(0, p - 1),
    st.lists(st.tuples(st.integers(1, p - 1), st.integers(1, p - 1)), max_size=8),
    st.integers(0, p - 1),
))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_normal_form_parts)
def test_unchecked_word_matches_checked_word(parts):
    p, lead, pairs, last_alpha = parts
    body = tuple(pairs[:-1]) + ((pairs[-1][0], last_alpha),) if pairs else ()
    w = GroupWord._reduced(p, lead, body)
    checked = GroupWord(p, lead, body)
    assert w == checked and hash(w) == hash(checked) and w._ab == checked._ab
    assert w._ab == ((lead + sum(a for _, a in body)) % p, sum(b for b, _ in body) % p)


def test_normalize_merges_adjacent_generators():
    # a a^2 collapses to a^0 and disappears
    assert normalize([("a", 1), ("a", 2)], 3).is_identity
    # b b b = b^3 = 1 at word level
    assert normalize([("b", 1)] * 3, 3).is_identity
    assert normalize([("a", 4)], 3) == GroupWord(3, 1, ())


def test_normalize_removes_interior_zero_runs():
    # b a^0 b merges into a single syllable b^2
    w = normalize([("b", 1), ("a", 0), ("b", 1)], 3)
    assert w == GroupWord(3, 0, ((2, 0),))
    # b a b a^-1 b stays three syllables
    w2 = normalize([("b", 1), ("a", 1), ("b", 1), ("a", -1), ("b", 1)], 3)
    assert w2.syllables == 3


def test_normalize_cascading_cancellation():
    # b a b^-1 b a^-1 b^-1 cancels to nothing
    toks = [("b", 1), ("a", 1), ("b", -1), ("b", 1), ("a", -1), ("b", -1)]
    assert normalize(toks, 3).is_identity


def test_normalize_rejects_bad_tokens():
    with pytest.raises(InputError):
        normalize([("c", 1)], 3)
    with pytest.raises(InputError):
        normalize([("a", "x")], 3)
    # power takes the same integer exponents, never truncated or read as 0/1
    w = parse_word("a b", 3)
    for n in (1.5, True, False, "2"):
        with pytest.raises(InputError):
            power(w, n)
        with pytest.raises(InputError):
            w ** n


def test_parse_format_round_trip_examples():
    for text, p in [("a b^2 a^-1 b", 3), ("b", 5), ("a^4 b^3 a", 5), ("1", 3), ("", 3)]:
        w = parse_word(text, p)
        assert parse_word(format_word(w), p) == w


def test_parse_whitespace_and_exponents():
    assert parse_word("  a   b^2 ", 3) == normalize([("a", 1), ("b", 2)], 3)
    assert parse_word("a^-1", 3) == GroupWord(3, 2, ())
    assert parse_word("b^5", 3) == GroupWord(3, 0, ((2, 0),))


@pytest.mark.parametrize("bad", ["c", "a^", "b^x", "ab", "a^1.5", "a b^"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(InputError):
        parse_word(bad, 3)


def test_format_round_trip_random():
    rng = random.Random(3)
    for _ in range(200):
        p = rng.choice((3, 5, 7))
        w = random_word(p, 6, rng)
        assert parse_word(format_word(w), p) == w


def _tokens(w):
    return list(w.tokens())


def test_concat_matches_token_level_normalize():
    rng = random.Random(5)
    for _ in range(200):
        p = rng.choice((3, 5))
        w1, w2 = random_word(p, 5, rng), random_word(p, 5, rng)
        assert concat(w1, w2) == normalize(_tokens(w1) + _tokens(w2), p)
        assert w1 * w2 == concat(w1, w2)


def test_invert_matches_token_level_normalize():
    rng = random.Random(9)
    for _ in range(200):
        p = rng.choice((3, 5))
        w = random_word(p, 5, rng)
        rev = [(g, -x) for g, x in reversed(_tokens(w))]
        assert invert(w) == normalize(rev, p)
        assert concat(w, invert(w)).is_identity
        assert ~w == invert(w)


def test_power_matches_repeated_concat():
    rng = random.Random(13)
    for _ in range(80):
        p = rng.choice((3, 5))
        w = random_word(p, 4, rng)
        n = rng.randint(-6, 6)
        naive = GroupWord.identity(p)
        step = w if n >= 0 else invert(w)
        for _ in range(abs(n)):
            naive = concat(naive, step)
        assert power(w, n) == naive
        assert w ** n == naive
    assert power(random_word(3, 4, rng), 0).is_identity


def test_exponent_sums_additive():
    rng = random.Random(17)
    for _ in range(100):
        p = rng.choice((3, 5))
        w1, w2 = random_word(p, 5, rng), random_word(p, 5, rng)
        a1, b1 = w1.exponent_sums()
        a2, b2 = w2.exponent_sums()
        assert concat(w1, w2).exponent_sums() == ((a1 + a2) % p, (b1 + b2) % p)


def test_syllable_length():
    assert GroupWord.identity(3).syllables == 0
    assert parse_word("a^2", 3).syllables == 0
    assert parse_word("b a b", 3).syllables == 2
    assert parse_word("a b a b^2 a^2 b", 5).syllables == 3


def test_sort_key_orders_by_syllables_first():
    p = 3
    words = [parse_word(t, p) for t in ("b a b", "a", "1", "b", "a^2")]
    ordered = sorted(words, key=lambda w: w.sort_key())
    assert ordered[0].is_identity
    assert ordered[-1].syllables == 2


def test_random_word_deterministic_for_a_seeded_rng():
    w1 = random_word(5, 6, random.Random(42))
    w2 = random_word(5, 6, random.Random(42))
    assert w1 == w2
    with pytest.raises(InputError):
        random_word(5, -1, random.Random(42))


# the unchecked construction path -------------------------------------------------


@st.composite
def _group_and_tokens(draw):
    p = draw(st.sampled_from((3, 5, 7)))
    e = draw(st.lists(st.integers(0, p - 1), min_size=p - 1, max_size=p - 1).filter(any))
    tokens = st.lists(st.tuples(st.sampled_from("ab"), st.integers(-2 * p, 2 * p)), max_size=14)
    return make_ggs(p, e), draw(tokens), draw(tokens)


def _token_sums(toks, p):
    return (sum(x for g, x in toks if g == "a") % p, sum(x for g, x in toks if g == "b") % p)


def _assert_revalidates(w, ab):
    """w passes the checked constructor unchanged, cached slots included, and
    its exponent sums are the independently computed `ab`."""
    fresh = GroupWord(w.p, w.leading_a, w.body)
    assert fresh == w
    assert (fresh._ab, hash(fresh)) == (w._ab, hash(w))
    assert w._ab == ab


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_group_and_tokens())
def test_unchecked_reductions_build_valid_words(case):
    g, t1, t2 = case
    p = g.p
    w1, w2 = normalize(t1, p), normalize(t2, p)
    _assert_revalidates(w1, _token_sums(t1, p))
    _assert_revalidates(w2, _token_sums(t2, p))
    _assert_revalidates(concat(w1, w2), _token_sums(t1 + t2, p))
    _assert_revalidates(invert(w1), _token_sums([(x, -y) for x, y in t1], p))
    for r in range(p):
        sec = g.section_word(w1, r)
        _assert_revalidates(sec, _token_sums(sec.tokens(), p))
    for m in range(min(w1.syllables, 3) + 1):
        for cand in g._candidate_words(m, w1, g._class_floor(w1)):
            assert cand.syllables == m
            _assert_revalidates(cand, w1._ab)


# the one-stack reduction against rewriting to a fixpoint ---------------------------


_exponents = st.one_of(
    st.integers(-3, 3),  # zero and small negatives
    st.integers(-10 ** 12, 10 ** 12),  # multi-digit, either sign
    st.integers(-4, 4).map(lambda k: 7 * k),  # 0 mod 7, and mod p for p = 7
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((3, 5, 7)),
       st.lists(st.tuples(st.sampled_from("ab"), _exponents), max_size=16))
def test_reduce_matches_the_fixpoint_rewrite(p, toks):
    got = _reduce(toks, p)
    want = reduce_to_fixpoint(toks, p)
    assert got == want
    assert (got._ab, hash(got)) == (want._ab, hash(want))


@pytest.mark.parametrize("toks,text", [
    # every run cancels, down to an empty stack
    ([("a", 1), ("b", 2), ("b", 1), ("a", 2)], "1"),
    # the stack empties on a b and restarts on an a, and the other way round
    ([("b", 1), ("b", -1), ("a", 1), ("b", 1)], "a b"),
    ([("a", 2), ("a", 1), ("b", 1), ("a", 1)], "b a"),
    # a cascade that exposes the bottom entry and merges into it
    ([("a", 1), ("b", 1), ("a", 1), ("a", 2), ("b", 2), ("a", 1)], "a^2"),
])
def test_reduce_stack_empties_and_restarts(toks, text):
    assert format_word(_reduce(toks, 3)) == text
    assert format_word(reduce_to_fixpoint(toks, 3)) == text
