"""Finite level quotients: leaf permutations, orders, membership, census."""

import collections
import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggslab import core, quotients
from ggslab.core import make_ggs, parse_group_spec
from ggslab.errors import CrossCheckError, InputError, ResourceLimitError
from ggslab.quotients import (
    _IDENTITY_TABLE,
    LEAF_GUARD,
    LeafPermutation,
    _as_perm,
    _compose,
    _identity,
    _inverse,
    _perm_power,
    _StabilizerChain,
    closed_form_order,
    level_quotient,
    maximal_subgroups_census,
    project,
)
from ggslab.words import random_word

from oracles import (
    StripEveryGeneratorChain,
    TextbookChain,
    _LayeredBasis,
    bfs_quotient_order,
    census_by_sifting,
    closed_form_log_order,
    frattini_theorem_failures,
    layered_frattini_index,
    leaf_action,
    leaf_index,
    leaf_vertices,
    normal_closure_chain,
)


# leaf permutations ----------------------------------------------------------


def test_leaf_vertices_lexicographic():
    vs = leaf_vertices(3, 2)
    assert len(vs) == 9
    assert vs[0] == (1, 1)
    assert vs[1] == (1, 2)
    assert vs[-1] == (3, 3)
    assert all(leaf_index(v, 3) == i for i, v in enumerate(vs))


def test_permutation_validation():
    LeafPermutation(3, 1, (1, 2, 0))
    with pytest.raises(InputError):
        LeafPermutation(3, 1, (0, 0, 1))  # not a bijection
    with pytest.raises(InputError):
        LeafPermutation(3, 1, (0, 1))  # wrong size
    with pytest.raises(InputError):
        LeafPermutation(3, 0, (0,))  # level 0 has a single leaf
    with pytest.raises(InputError):
        LeafPermutation(1, 1, (0,))  # p below 3
    with pytest.raises(AttributeError):
        LeafPermutation(3, 1, (1, 2, 0)).images = (0, 1, 2)


@pytest.mark.parametrize("p,n,images", [
    (3, 1, [0, 1, 2.0]), (3.0, 1, [0, 1, 2]), ("3", 1, [0, 1, 2]), (3, 1.0, [0, 1, 2]),
    (3, 1, ["0", 1, 2]), (True, 1, [0]), (3, True, [0, 1, 2]), (3, 1, [0, True, 2])])
def test_permutation_takes_integers_only(p, n, images):
    # a float image used to pass the bijection test and break `_as_perm`
    # later; the other inputs raised a bare TypeError
    with pytest.raises(InputError):
        LeafPermutation(p, n, images)


def test_permutation_refuses_deep_levels_at_once():
    # the level is checked against the image count before p^n is computed
    start = time.perf_counter()
    with pytest.raises(InputError):
        LeafPermutation(3, 10 ** 12, [0, 1, 2])
    assert time.perf_counter() - start < 1


def test_project_generators_level_one():
    g = make_ggs(3, (1, 2))
    assert project(g.a, 1).images == (1, 2, 0)
    assert project(g.b, 1).images == (0, 1, 2)


def test_project_b_level_two():
    # subtree u of b sees a^{e_u}, subtree p sees b (trivial one level down)
    g = make_ggs(3, (1, 2))
    pb = project(g.b, 2)
    for v in leaf_vertices(3, 2):
        img = pb.images[leaf_index(v, 3)]
        x, y = v
        if x == 1:
            want = (1, y % 3 + 1)
        elif x == 2:
            want = (2, (y + 1) % 3 + 1)
        else:
            want = (3, y)
        assert img == leaf_index(want, 3)


def test_project_is_a_homomorphism():
    rng = random.Random(71)
    g = make_ggs(5, (1, 0, 2, 4))
    for _ in range(30):
        x = g.element(random_word(5, 4, rng))
        y = g.element(random_word(5, 4, rng))
        # x then y, matching the right action of element products
        assert project(x * y, 2).images == _compose(project(x, 2).images, project(y, 2).images)
    with pytest.raises(InputError):
        project(g.a, 0)


def test_generator_images_have_order_p():
    for p, e in ((3, (1, 2)), (5, (1, 2, 3, 4))):
        g = make_ggs(p, e)
        for n in (1, 2):
            identity = tuple(range(p ** n))
            assert project(g.a, n).images != identity
            assert _perm_power(project(g.a, n).images, p) == identity
            assert _perm_power(project(g.b, n).images, p) == identity


@pytest.mark.parametrize("p,e,levels", [
    (3, (1, 0), range(1, 6)), (3, (1, 1), range(1, 6)), (5, (1, 0, 2, 4), range(1, 4)),
    (7, (1, 0, 0, 0, 0, 0), range(1, 4)),  # 343 leaves at level 3: the tuple path
    (23, (1, 0, 2, 4, 3, 5, 1, 2, 0, 3, 1, 2, 6, 0, 7, 1, 0, 0, 2, 0, 0, 5), range(1, 3))])
def test_project_matches_the_leaf_walk_at_every_admitted_level(p, e, levels):
    # the recursion on sections against the action walked from the root on
    # every leaf, for a, b and random words, at each level the guard admits
    g = make_ggs(p, e)
    rng = random.Random(p)
    elements = [g.a, g.b] + [g.element(random_word(p, 8, rng)) for _ in range(20)]
    for n in levels:
        for x in elements:
            assert project(x, n).images == leaf_action(g, x.word, n)


def test_project_is_refused_past_the_guard_before_any_section():
    g = make_ggs(3, (1, 0))
    x = g.element([("b", 1), ("a", 1), ("b", 2), ("a", 2), ("b", 1)])
    before = dict(g._sections)
    with pytest.raises(ResourceLimitError, match="more than 529 leaves"):
        project(x, 6)
    assert g._sections == before


@pytest.mark.parametrize("bad", ["a", make_ggs(3, (1, 0)).a.word, None])
def test_project_refuses_what_is_not_an_element(bad):
    # each of these once raised a bare AttributeError
    with pytest.raises(InputError, match="expected an Element"):
        project(bad, 2)


def test_project_counts_on_the_census_items(monkeypatch):
    # each distinct (word, level) is expanded once per call: the six census
    # items took 3,640 section lookups and 1,084 leaf walks from the root
    # when every leaf was walked
    calls = collections.Counter()
    section, act = core.GgsGroup.section_word, core.GgsGroup.act_word

    def counted_section(self, w, r):
        calls["section_word"] += 1
        return section(self, w, r)

    def counted_act(self, w, vertex):
        calls["act_word"] += 1
        return act(self, w, vertex)

    monkeypatch.setattr(core.GgsGroup, "section_word", counted_section)
    monkeypatch.setattr(core.GgsGroup, "act_word", counted_act)
    for spec, n in CHAIN_SHAPES:
        maximal_subgroups_census(parse_group_spec(spec), n)
    assert calls == {"section_word": 184}


# the internal permutation format ---------------------------------------------


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(3, 256).flatmap(lambda d: st.tuples(
    st.permutations(range(d)), st.permutations(range(d)), st.integers(-12, 12))))
def test_table_kernels_match_tuples(case):
    g, h, k = tuple(case[0]), tuple(case[1]), case[2]
    d = len(g)
    tg, th = _as_perm(g, d), _as_perm(h, d)
    assert tg[:d] == bytes(g) and tg[d:] == _IDENTITY_TABLE[d:]
    assert _as_perm(tg, d) is tg
    # a negative exponent once spun forever, as -1 >> 1 == -1
    assert _perm_power(tg, -1) == _inverse(tg) and _perm_power(g, -1) == _inverse(g)
    for table, images in ((_compose(tg, th), _compose(g, h)),
                          (_inverse(tg), _inverse(g)),
                          (_perm_power(tg, k), _perm_power(g, k))):
        assert type(table) is bytes and type(images) is tuple
        assert len(table) == 256 and table[d:] == _IDENTITY_TABLE[d:]
        assert table == _as_perm(images, d)


def test_as_perm_formats():
    assert _identity(243) == _as_perm(range(243), 243) == _IDENTITY_TABLE
    assert _identity(289) == _as_perm(range(289), 289) == tuple(range(289))
    with pytest.raises(InputError):
        _as_perm((1, 0), 3)
    with pytest.raises(InputError):
        _StabilizerChain(9).add_generator((1, 2, 0))


# CI's p=23 defining vector cut to p - 1 = 16 entries: 289 leaves at level 2,
# the smallest degree past the byte tables
P17_E = (1, 0, 2, 4, 3, 5, 1, 2, 0, 3, 1, 2, 6, 0, 7, 1)


@pytest.mark.parametrize("p,e,n", [(3, (1, 2), 3), (3, (1, 0), 2), (5, (1, 0, 2, 4), 2),
                                   (17, P17_E, 2)])
def test_entry_points_accept_tuples_and_tables(p, e, n):
    # unconverted, a tuple reaching a table-format chain would compose into a
    # tuple that never equals the identity table; past 256 leaves both formats
    # are tuples, and the chain must agree with the layered basis there too
    g = make_ggs(p, e)
    degree = p ** n
    gens = [project(g.a, n).images, project(g.b, n).images]
    tables = [_as_perm(x, degree) for x in gens]
    chains = [_chain_of(gens, degree), _chain_of(tables, degree)]
    assert chains[0].bases == chains[1].bases
    assert chains[0].orbits == chains[1].orbits
    assert chains[0].done == chains[1].done
    comm = _compose(_compose(_inverse(gens[0]), _inverse(gens[1])), _compose(*gens))
    bases = [_closed(gens, p, n), _closed(tables, p, n),
             _closed([comm], p, n, gens), _closed([_as_perm(comm, degree)], p, n, tables)]
    assert bases[0].elements == bases[1].elements
    assert bases[2].elements == bases[3].elements
    rng = random.Random(degree)
    members = [project(g.element(random_word(p, 6, rng)), n).images for _ in range(6)]
    shuffled = list(range(degree))
    rng.shuffle(shuffled)
    for c in chains + bases[:2]:
        assert all(c.contains(x) for x in members)
    non_members = [tuple(rng.sample(range(degree), degree)) for _ in range(3)]
    for x in members + non_members:
        assert chains[0].contains(x) == bases[0].contains(x) == (x in members)
    for x in members + [tuple(shuffled), comm]:
        for c in chains + bases:
            assert c.contains(x) == c.contains(_as_perm(x, degree))
            assert c.sift(x) == c.sift(_as_perm(x, degree))


# quotient orders ------------------------------------------------------------

# orders frozen from the breadth-first closure oracle, except the last, which
# the stabilizer chain gave; the small rows are re-derived against the oracle
# live in test_chain_matches_bfs_oracle
QUOTIENT_ORDERS = [
    (3, (1, 2), 1, 3),
    (3, (1, 1), 1, 3),
    (3, (1, 0), 1, 3),
    (3, (1, 2), 2, 27),
    (3, (1, 1), 2, 81),
    (3, (1, 0), 2, 81),
    (3, (0, 1), 2, 81),
    (3, (2, 2), 2, 81),
    (3, (2, 1), 2, 27),
    (3, (1, 2), 3, 2187),
    (3, (1, 1), 3, 19683),
    (3, (1, 0), 3, 59049),
    (3, (0, 1), 3, 59049),
    (5, (1, 0, 0, 0), 1, 5),
    (5, (1, 2, 3, 4), 1, 5),
    (5, (1, 0, 0, 0), 2, 15625),
    (5, (1, 2, 3, 4), 2, 125),
    (5, (1, 0, 2, 4), 2, 15625),
    (5, (0, 0, 0, 1), 2, 15625),
    (3, (1, 1), 4, 3 ** 23),
]


@pytest.mark.parametrize("p,e,n,order", QUOTIENT_ORDERS)
def test_quotient_orders(p, e, n, order):
    q = level_quotient(make_ggs(p, e), n)
    assert q.order == order


def test_chain_matches_bfs_oracle():
    cases = [(3, (1, 2), 2), (3, (1, 1), 2), (3, (0, 1), 2), (5, (1, 2, 3, 4), 2)]
    for p, e, n in cases:
        g = make_ggs(p, e)
        assert level_quotient(g, n).order == bfs_quotient_order(g, n)


# non-constant vectors, the theorem's hypothesis
CLOSED_FORM_CASES = (
    [(3, e, n) for e in ((1, 0), (2, 0), (0, 1), (0, 2), (1, 2), (2, 1)) for n in (2, 3, 4)]
    + [(5, e, n) for e in ((1, 0, 2, 4), (1, 2, 3, 4), (0, 0, 0, 1)) for n in (2, 3)])


@pytest.mark.parametrize("p,e,n", CLOSED_FORM_CASES)
def test_quotient_order_matches_closed_form(p, e, n):
    assert level_quotient(make_ggs(p, e), n).order == p ** closed_form_log_order(p, e, n)


@pytest.mark.parametrize("p,e,n", [(3, (1, 2), 3), (3, (1, 1), 3), (5, (1, 0, 2, 4), 2)])
def test_chain_inverse_cache(p, e, n):
    q = level_quotient(make_ggs(p, e), n)
    chain = q._chain
    extended = _StabilizerChain(p ** n)
    for g in (q.gen_a.images, q.gen_b.images, tuple(reversed(range(p ** n)))):
        extended.add_generator(g)  # the reversal leaves the group
    for c in (chain, extended):
        assert len(c.inverses) == len(c.transversals) == len(c.bases)
        for trans, inverses in zip(c.transversals, c.inverses):
            assert inverses.keys() == trans.keys()
            for pt, rep in trans.items():
                assert _compose(rep, inverses[pt]) == c.identity
    assert extended.order() > chain.order()


# the chain shape of the six benchmark census groups, frozen from the chain
# that crosses each level with its usable generators: bases, orbit sizes and
# processed (point, generator) pairs per level. The textbook rule
# (`oracles.TextbookChain`) has the same orbit sizes and 16,141 pairs in all:
# its level 0 crosses every generator of the chain (81 x 25 pairs at p=3
# e=1,0), where it now crosses a and b alone (81 x 2)
CHAIN_SHAPES = {
    ("p=3;e=1,0", 4): (
        (0, 27, 54, 72, 63, 57, 45, 48, 36, 30, 39, 75, 18, 21, 9, 3, 12, 66),
        (81, 27, 27, 9, 3, 3, 9, 3, 3, 3, 3, 3, 9, 3, 3, 3, 3, 3),
        (162, 216, 351, 117, 36, 33, 90, 30, 27, 24, 21, 18, 45, 15, 12, 9, 6, 3)),
    ("p=3;e=1,2", 4): (
        (0, 27, 30, 36, 45, 54, 63, 9, 57, 72, 3, 18),
        (81, 27, 3, 9, 3, 9, 3, 3, 3, 3, 3, 3),
        (162, 243, 33, 90, 27, 72, 18, 15, 12, 9, 6, 3)),
    ("p=3;e=1,1", 4): (
        (0, 27, 30, 36, 9, 54, 63, 12, 39, 18, 45, 57, 72, 3),
        (81, 27, 3, 9, 9, 27, 3, 3, 3, 3, 3, 3, 3, 3),
        (162, 324, 33, 99, 99, 270, 24, 21, 18, 15, 12, 9, 6, 3)),
    ("p=5;e=1,0,2,4", 3): (
        (0, 25, 75, 100, 105, 110, 80, 85, 90, 50, 30, 35, 55, 40, 60, 115, 65, 5, 10, 15),
        (125, 25, 25, 25, 5, 5, 5, 5, 5, 25, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5),
        (250, 250, 425, 475, 85, 80, 75, 70, 65, 300, 50, 45, 40, 35, 30, 25, 20, 15,
         10, 5)),
    ("p=5;e=1,2,3,4", 3): (
        (0, 25, 30, 50, 55, 75, 100, 5),
        (125, 25, 5, 5, 5, 5, 5, 5),
        (250, 150, 30, 25, 20, 15, 10, 5)),
    ("p=7;e=1,0,0,0,0,0", 2): (
        (0, 42, 35, 28, 21, 14, 7),
        (49, 7, 7, 7, 7, 7, 7),
        (98, 42, 35, 28, 21, 14, 7)),
}


def test_chain_shape_totals():
    # the totals the benchmark's traced census reports
    assert sum(len(b) for b, _, _ in CHAIN_SHAPES.values()) == 79
    assert sum(sum(o) for _, o, _ in CHAIN_SHAPES.values()) == 1099
    assert sum(sum(d) for _, _, d in CHAIN_SHAPES.values()) == 6100


@pytest.mark.parametrize("spec,n", list(CHAIN_SHAPES))
def test_chain_shape_frozen(spec, n):
    chain = level_quotient(parse_group_spec(spec), n)._chain
    bases, orbit_sizes, pairs = CHAIN_SHAPES[(spec, n)]
    assert tuple(chain.bases) == bases
    assert tuple(len(o) for o in chain.orbits) == orbit_sizes
    assert tuple(len(d) for d in chain.done) == pairs


# the same shape on the tuple path; the textbook rule gives the same bases
# and orbit sizes and 7,514 pairs, 5,202 of them at level 0
P17_SHAPE = (
    (0, 17, 34, 51, 68, 85, 102, 119, 136, 153, 170, 187, 204, 238, 221, 255, 272),
    (289,) + (17,) * 16,
    (578, 272, 255, 238, 221, 204, 187, 170, 153, 136, 119, 102, 85, 68, 51, 34, 17))


def test_chain_shape_frozen_on_tuples():
    chain = level_quotient(make_ggs(17, P17_E), 2)._chain
    bases, orbit_sizes, pairs = P17_SHAPE
    assert type(chain.identity) is tuple
    assert tuple(chain.bases) == bases
    assert tuple(len(o) for o in chain.orbits) == orbit_sizes
    assert tuple(len(d) for d in chain.done) == pairs
    assert (len(bases), sum(orbit_sizes), sum(pairs)) == (17, 561, 2890)


@pytest.mark.parametrize("p,e,n", [(3, (1, 0), 4), (17, P17_E, 2)])
def test_chain_done_keys_hold_no_permutation(p, e, n):
    # a permutation in a key costs a hash over every entry on each lookup,
    # since tuples do not cache their hash
    chain = level_quotient(make_ggs(p, e), n)._chain
    for done in chain.done:
        for key in done:
            assert type(key) is tuple and all(type(x) is int for x in key)


@pytest.mark.parametrize("spec,n", list(CHAIN_SHAPES) + [
    ("p=3;e=1,0", 5), ("p=3;e=1,1", 5), ("p=17;e=" + ",".join(map(str, P17_E)), 2)])
def test_chain_skips_repeated_generators_exactly(spec, n):
    # a repeat of a (level, generator) pair stripped to the identity, and a
    # pair already in `done` was skipped, so neither skip may change the chain:
    # it must equal the oracle that strips every generator and rescans every pair
    g = parse_group_spec(spec)
    gens = [project(g.a, n).images, project(g.b, n).images]
    chain = _chain_of(gens, g.p ** n)
    oracle = StripEveryGeneratorChain(g.p ** n)
    for x in gens:
        oracle.add_generator(x)
    for name in ("bases", "orbits", "gens", "done", "transversals", "inverses"):
        assert getattr(chain, name) == getattr(oracle, name), name
    assert chain._seen is None


def _case_id(case):
    p, e, n = case
    return f"{p}-{''.join(map(str, e))}-{n}"


# every nonzero vector at p = 3 up to level 4, every vector at p = 5 whose
# first nonzero entry is 1 at level 2 (G_{ce} = G_e), the benchmark census
# groups and the tuple path. Vectors with e_1 = 0 matter most: there b fixes
# leaf 0 and is stored below level 0, and level 0 must still cross it.
USABLE_RULE_CASES = tuple(dict.fromkeys(
    [(3, e, n) for n in (2, 3, 4) for e in itertools.product(range(3), repeat=2) if any(e)]
    + [(5, e, 2) for e in itertools.product(range(5), repeat=4)
       if any(e) and next(x for x in e if x) == 1]
    + [(parse_group_spec(spec).p, tuple(parse_group_spec(spec).e), n)
       for spec, n in CHAIN_SHAPES]
    + [(17, P17_E, 2)]))


def _agree_with_textbook(chain, oracle, p, n, words, rng):
    degree = p ** n
    assert chain.order() == oracle.order()
    members = [project(w, n).images for w in words]
    others = [tuple(rng.sample(range(degree), degree)) for _ in range(3)]
    for x in members + others:
        assert chain.contains(x) == oracle.contains(x)


@pytest.mark.parametrize("case", USABLE_RULE_CASES, ids=_case_id)
def test_usable_generators_give_the_textbook_chain(case):
    # each level crosses only generators received at or above it and stored
    # at or below it; the oracle crosses every generator stored at or below
    p, e, n = case
    g = make_ggs(p, e)
    gens = [project(g.a, n).images, project(g.b, n).images]
    oracle = TextbookChain(p ** n)
    for x in gens:
        oracle.add_generator(x)
    rng = random.Random(repr(case))
    words = [g.element(random_word(p, 6, rng)) for _ in range(6)]
    _agree_with_textbook(_chain_of(gens, p ** n), oracle, p, n, words, rng)


def test_usable_generators_give_the_textbook_normal_closure():
    # the normal closure of [a, b] hands the chain one input per kept conjugate
    p, n = 3, 4
    g = make_ggs(p, (1, 0))
    a_img, b_img = project(g.a, n).images, project(g.b, n).images
    comm = _compose(_compose(_inverse(a_img), _inverse(b_img)), _compose(a_img, b_img))
    chain, kept = normal_closure_chain([comm], [a_img, b_img], p ** n)
    oracle, oracle_kept = normal_closure_chain([comm], [a_img, b_img], p ** n, TextbookChain)
    assert kept == oracle_kept and len(kept) > 2
    rng = random.Random(n)
    words = [g.element(random_word(p, 6, rng)) for _ in range(6)]
    _agree_with_textbook(chain, oracle, p, n, words, rng)


def test_add_generator_refuses_non_permutations():
    # a repeated image once recursed until RecursionError, and a table moving
    # points past the degree was stored as it was, giving order 2
    swapped = bytearray(_IDENTITY_TABLE)
    swapped[200], swapped[201] = 201, 200
    for bad in ((1, 1, 2, 3, 4, 5, 6, 7, 8), bytes(swapped), (1, 0, 2, 3, 4, 5, 6, 7, 9),
                (1, 0, 2, 3, 4, 5, 6, 7, 8.0), (True, 0, 2, 3, 4, 5, 6, 7, 8)):
        chain = _StabilizerChain(9)
        with pytest.raises(InputError, match="not a permutation of 9 points"):
            chain.add_generator(bad)
        assert chain.order() == 1 and chain.bases == [] and chain._seen is None
    chain = _chain_of([(1, 2, 0, 3, 4, 5, 6, 7, 8)], 9)
    with pytest.raises(InputError):
        chain.add_generator((1, 1, 2, 3, 4, 5, 6, 7, 8))
    assert chain.order() == 3 and chain.contains((1, 2, 0, 3, 4, 5, 6, 7, 8))


class _PairCounter(set):
    """A `done` set that counts pair examinations: each membership test is one,
    and so is each add that does not follow a membership test of its key."""

    def __init__(self, *args):
        super().__init__(*args)
        self.examined = 0
        self._last = None

    def __contains__(self, key):
        self.examined += 1
        self._last = key
        return super().__contains__(key)

    def add(self, key):
        if key != self._last:
            self.examined += 1
        self._last = None
        super().add(key)


class _CountingLevels(list):
    def append(self, done):
        super().append(_PairCounter(done))


def test_chain_examines_each_pair_once():
    # over the benchmark census shapes the chain processes 6,100 pairs (the
    # textbook rule 16,141); a loop that rescanned every pair on each pass and
    # skipped those in `done` examined 86,752 (260,031 under the textbook rule)
    processed = examined = 0
    for spec, n in CHAIN_SHAPES:
        g = parse_group_spec(spec)
        chain = _StabilizerChain(g.p ** n)
        chain.done = _CountingLevels()
        chain.add_generator(project(g.a, n).images)
        chain.add_generator(project(g.b, n).images)
        processed += sum(len(d) for d in chain.done)
        examined += sum(d.examined for d in chain.done)
    assert processed == 6100
    assert examined == processed


def test_census_strips_each_distinct_generator_once(monkeypatch):
    # one census pass over the six benchmark groups hands the chain 4,784
    # Schreier generators, 1,355 of them distinct (level, permutation) pairs;
    # the chain once stripped all of them, and under the textbook rule it was
    # handed 14,636, 5,092 of them distinct
    calls = collections.Counter()
    real_strip, real_ingest = _StabilizerChain._strip, _StabilizerChain._ingest

    def strip(self, perm, level):
        calls["strip"] += 1
        return real_strip(self, perm, level)

    def ingest(self, g, level):
        calls["ingest"] += 1
        return real_ingest(self, g, level)

    monkeypatch.setattr(_StabilizerChain, "_strip", strip)
    monkeypatch.setattr(_StabilizerChain, "_ingest", ingest)
    for spec, n in CHAIN_SHAPES:
        maximal_subgroups_census(parse_group_spec(spec), n)
    assert calls == {"ingest": 4784, "strip": 1355}


_LEVEL_CALLS = {
    "project": lambda g, n: project(g.a, n),
    "level_quotient": level_quotient,
    "closed_form_order": closed_form_order,
    "maximal_subgroups_census": maximal_subgroups_census,
}


@pytest.mark.parametrize("call,level", [
    (call, level) for call in _LEVEL_CALLS for level in (1.0, 2.0, True, "2", None)
] + [("closed_form_order", 0), ("closed_form_order", 1)])
def test_levels_are_ints_in_range(call, level):
    # closed_form_order once gave 9.0 at level 1.0 and, for e = (1, 1), 81 at
    # level 1, whose quotient has order 3; level_quotient(g, True) gave 3
    for e in ((1, 0), (1, 1)):
        with pytest.raises(InputError):
            _LEVEL_CALLS[call](make_ggs(3, e), level)


def test_quotient_guards():
    g = make_ggs(3, (1, 2))
    with pytest.raises(InputError):
        level_quotient(g, 0)
    with pytest.raises(ResourceLimitError):
        level_quotient(g, 7)  # 3^7 leaves over the guard
    with pytest.raises(ResourceLimitError, match="more than 529 leaves"):
        level_quotient(g, 10 ** 8)  # refused without computing 3^(10^8)
    assert LEAF_GUARD == 23 ** 2
    # the first levels past the guard: 841, 729 and 625 leaves, refused before
    # any projection, census included; project once raised OverflowError from
    # [0] * 3^40 and tried to allocate 3^n entries below that
    for p, e, n in ((29, (1,) + (0,) * 27, 2), (3, (1, 0), 6), (5, (1, 0, 2, 4), 4),
                    (3, (1, 0), 40), (3, (1, 0), 10 ** 8)):
        for build in (_LEVEL_CALLS["project"], level_quotient, maximal_subgroups_census):
            start = time.perf_counter()
            with pytest.raises(ResourceLimitError,
                               match=f"level {n} at p = {p} has more than 529 leaves"):
                build(make_ggs(p, e), n)
            assert time.perf_counter() - start < 1.0
    assert level_quotient(g, 3).order == 2187


# membership -----------------------------------------------------------------


def test_membership_of_projected_words():
    rng = random.Random(73)
    g = make_ggs(3, (1, 2))
    q = level_quotient(g, 2)
    for _ in range(40):
        x = g.element(random_word(3, 6, rng))
        assert q.contains(project(x, 2))


def test_membership_rejects_outsiders():
    g = make_ggs(3, (1, 2))
    q = level_quotient(g, 2)
    # a transposition is odd, the quotient lies in the alternating group
    images = list(range(9))
    images[0], images[1] = images[1], images[0]
    assert not q.contains(LeafPermutation(3, 2, images))
    with pytest.raises(InputError):
        q.contains(LeafPermutation(3, 1, (1, 2, 0)))  # wrong level


# the maximal subgroup census ------------------------------------------------


@pytest.mark.parametrize("p,e", [(3, (1, 2)), (3, (1, 1)), (3, (0, 1)), (5, (1, 0, 2, 4))])
def test_census_structure(p, e):
    g = make_ggs(p, e)
    c = maximal_subgroups_census(g, 2)
    assert c["p"] == p
    assert c["e"] == list(g.e)
    assert c["count"] == p + 1
    assert c["frattini_index"] == p * p
    assert len(c["maximal"]) == p + 1
    funcs = [tuple(r["functional"]) for r in c["maximal"]]
    assert funcs == [(1, t) for t in range(p)] + [(0, 1)]
    for rec in c["maximal"]:
        assert rec["index"] == p
        assert rec["normal"] is True


def test_census_deterministic():
    g = make_ggs(3, (1, 0))
    assert maximal_subgroups_census(g, 2) == maximal_subgroups_census(g, 2)


def test_census_level_three():
    c = maximal_subgroups_census(make_ggs(3, (1, 2)), 3)
    assert c["order"] == 2187
    assert c["count"] == 4
    assert all(r["normal"] and r["index"] == 3 for r in c["maximal"])


def test_census_beyond_table_degree():
    # 289 leaves: past the 256-entry translate table, so the chain and the
    # layered bases run on tuples
    g = make_ggs(17, (1,) + (0,) * 15)
    c = maximal_subgroups_census(g, 2)
    assert c["order"] == closed_form_order(g, 2) == 17 ** 18
    assert c["count"] == 18 and c["frattini_index"] == 17 ** 2
    assert all(r["index"] == 17 and r["normal"] for r in c["maximal"])


def test_census_guards():
    g = make_ggs(3, (1, 2))
    with pytest.raises(InputError):
        maximal_subgroups_census(g, 1)
    with pytest.raises(ResourceLimitError):
        maximal_subgroups_census(g, 7)


# every vector at p=3 for n = 2, 3, and three at n = 4; six vectors at p=5 for
# n = 2 and two for n = 3; two at p=7 for n = 2. The oracle takes about 0.4 s
# for the three n = 4 rows together.
CENSUS_ORACLE_CASES = (
    [(3, e, n) for n in (2, 3)
     for e in ((0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2))]
    + [(3, e, 4) for e in ((1, 0), (1, 2), (1, 1))]
    + [(5, e, 2) for e in ((1, 0, 0, 0), (1, 2, 3, 4), (1, 0, 2, 4), (0, 0, 0, 1),
                           (1, 1, 1, 1), (1, 2, 2, 1))]
    + [(5, e, 3) for e in ((1, 0, 2, 4), (1, 2, 3, 4))]
    + [(7, e, 2) for e in ((1, 0, 0, 0, 0, 0), (1, 2, 3, 4, 5, 6))])


@pytest.mark.parametrize("case", CENSUS_ORACLE_CASES, ids=_case_id)
def test_census_matches_sifting_oracle(case):
    p, e, n = case
    g = make_ggs(p, e)
    assert (json.dumps(maximal_subgroups_census(g, n), sort_keys=True)
            == json.dumps(census_by_sifting(g, n), sort_keys=True))


@pytest.mark.parametrize(
    "case", [c for c in CENSUS_ORACLE_CASES if c[2] >= 3] + [(3, (1, 0), 5), (3, (1, 1), 5)],
    ids=_case_id)
def test_level_two_certificate_matches_level_n_index(case):
    # the census takes |Q_n : Q_n'| = p^2 from a theorem and closes no Q', so
    # close <a, b> and Q_n' here at level n itself
    p, e, n = case
    g = make_ggs(p, e)
    assert (layered_frattini_index(g, n) == p * p
            == maximal_subgroups_census(g, n)["frattini_index"])


def _seeded_vectors(p, count, seed):
    rng = random.Random(seed)
    vectors = []
    while len(vectors) < count:
        e = tuple(rng.randrange(p) for _ in range(p - 1))
        if any(e):
            vectors.append(e)
    return vectors


@pytest.mark.parametrize("p,vectors", [
    (3, [e for e in itertools.product(range(3), repeat=2) if any(e)]),
    (5, [e for e in itertools.product(range(5), repeat=4) if any(e)]),
    (7, _seeded_vectors(7, 300, 0))], ids=["p3-all", "p5-all", "p7-seeded"])
def test_frattini_index_theorem_on_every_vector(p, vectors):
    # the census takes |Q_2 : Q_2'| = p^2 from the structure of Q_2 for every
    # vector: the layered closure of Q_2' must have order p^(t - 1), t the
    # circulant rank; CI runs every p=7 vector with first nonzero entry 1
    assert frattini_theorem_failures(p, vectors) == []


def test_census_rejects_closed_form_order_mismatch(monkeypatch):
    real = quotients.level_quotient

    def wrong_order(group, n):
        q = real(group, n)
        q.order *= group.p
        return q

    monkeypatch.setattr(quotients, "level_quotient", wrong_order)
    # constant vectors are compared with their own closed form, an empirical fit
    for e, n, want in (((1, 2), 2, "!= closed form 27"),
                       ((2, 2), 2, "!= empirical closed form 81"),
                       ((1, 2), 3, "quotient order 6561 != closed form 2187")):
        with pytest.raises(CrossCheckError, match=want):
            maximal_subgroups_census(make_ggs(3, e), n)


# the layered basis ----------------------------------------------------------


def _chain_of(gens, degree):
    chain = _StabilizerChain(degree)
    for g in gens:
        chain.add_generator(g)
    return chain


def _closed(gens, p, n, conjugators=()):
    basis = _LayeredBasis(p, n)
    basis.closure(gens, conjugators)
    return basis


@st.composite
def _projected_subgroup(draw):
    p, n = draw(st.sampled_from(((3, 1), (3, 2), (3, 3), (5, 2))))
    e = draw(st.lists(st.integers(0, p - 1), min_size=p - 1, max_size=p - 1).filter(any))
    seed = draw(st.integers(0, 2 ** 16))
    count = draw(st.integers(1, 3))
    g = make_ggs(p, tuple(e))
    rng = random.Random(seed)
    gens = [project(g.element(random_word(p, 4, rng)), n).images for _ in range(count)]
    return g, n, gens, seed


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_projected_subgroup())
def test_layered_order_matches_chain(case):
    g, n, gens, _ = case
    assert _closed(gens, g.p, n).order() == _chain_of(gens, g.p ** n).order()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_projected_subgroup())
def test_layered_sift_matches_chain_contains(case):
    g, n, gens, seed = case
    p = g.p
    basis = _closed(gens, p, n)
    chain = _chain_of(gens, p ** n)
    rng = random.Random(seed + 1)
    other = make_ggs(p, tuple(rng.randrange(p) for _ in range(p - 2)) + (1,))
    shuffled = list(range(p ** n))
    rng.shuffle(shuffled)
    members = gens + [_compose(x, y) for x in gens for y in gens]
    probes = (members
              + [project(g.element(random_word(p, 6, rng)), n).images for _ in range(8)]
              + [project(other.element(random_word(p, 6, rng)), n).images for _ in range(4)]
              + [tuple(shuffled)])
    assert all(basis.contains(x) for x in members)
    for x in probes:
        assert basis.contains(x) == chain.contains(x)
        assert basis.contains(x) == (basis.sift(x) == basis.identity)


# constant vectors, outside the theorem, against the fit in closed_form_order
CONSTANT_CASES = (
    [(3, e, n) for e in ((1, 1), (2, 2)) for n in (2, 3, 4, 5)]
    + [(5, e, n) for e in ((1, 1, 1, 1), (2, 2, 2, 2)) for n in (2, 3)]
    + [(7, (1,) * 6, n) for n in (2, 3)] + [(11, (2,) * 10, 2)])


@pytest.mark.parametrize("p,e,n", CLOSED_FORM_CASES + CONSTANT_CASES)
def test_layered_order_matches_closed_form(p, e, n):
    g = make_ggs(p, e)
    gens = [project(g.a, n).images, project(g.b, n).images]
    order = _closed(gens, p, n).order()
    assert order == p ** closed_form_log_order(p, e, n) == closed_form_order(g, n)


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (3, 3), (5, 2)])
def test_layered_basis_rejects_leaf_transposition(p, n):
    # two leaves in different first-level subtrees trade places: the first and
    # the last leaf, and two second leaves, which keep every first leaf fixed
    for i, j in ((0, p ** n - 1), (1, p ** (n - 1) + 1)):
        swap = list(range(p ** n))
        swap[i], swap[j] = j, i
        with pytest.raises(CrossCheckError):
            _closed([tuple(swap)], p, n)
        with pytest.raises(CrossCheckError):
            _closed([], p, n, conjugators=[tuple(swap)])


def test_census_rejects_non_rotation_generator(monkeypatch):
    # b's image replaced by a tree automorphism of order 5 that cycles the
    # first-level subtrees 0 -> 2 -> 1 -> 3 -> 4 -> 0, no power of the 5-cycle:
    # it passes the order-p check, and with a it generates A_5 on the subtrees
    g = make_ggs(5, (1, 0, 2, 4))
    real = quotients.project
    b_img = real(g.b, 2)
    subtrees = {0: 2, 2: 1, 1: 3, 3: 4, 4: 0}
    fake = LeafPermutation(5, 2, [subtrees[x // 5] * 5 + x % 5 for x in range(25)])
    monkeypatch.setattr(
        quotients, "project", lambda x, n: fake if real(x, n) == b_img else real(x, n))
    with pytest.raises(CrossCheckError, match="quotient order 60 != closed form 15625"):
        maximal_subgroups_census(g, 2)
