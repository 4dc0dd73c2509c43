"""The word-level engine: sections, actions, equality, length."""

import random

import pytest

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
from ggslab.errors import InputError, ResourceLimitError
from ggslab.words import GroupWord, normalize, parse_word, random_word

from oracles import agree_to_depth, leaf_action


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


def test_spec_string_round_trip():
    g = make_ggs(5, (1, 0, 2, 4))
    assert parse_group_spec(g.spec_string()) == g


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


def test_equal_depth_cap():
    # a pair whose first section pair shares exponent sums but differs, so
    # the recursion has to descend at least one level
    g = make_ggs(3, (1, 2))
    w1 = parse_word("a b a b a^2 b^2", 3)
    w2 = parse_word("b a^2 b a b^2 a", 3)
    with pytest.raises(ResourceLimitError):
        g.equal_words(w1, w2, depth_cap=1)
    assert g.equal_words(w1, w2) is False
    with pytest.raises(InputError):
        g.equal_words(w1, w2, depth_cap=0)


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
