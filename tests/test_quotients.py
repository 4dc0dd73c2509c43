"""Finite level quotients: leaf permutations, orders, membership, census."""

import random

import pytest

from ggslab import quotients
from ggslab.core import make_ggs
from ggslab.errors import CrossCheckError, InputError, ResourceLimitError
from ggslab.quotients import (
    LeafPermutation,
    _compose,
    _inverse,
    _perm_power,
    leaf_index,
    leaf_vertices,
    level_quotient,
    maximal_subgroups_census,
    project,
)
from ggslab.words import random_word

from oracles import bfs_quotient_order, closed_form_log_order, scratch_subgroup_chain


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


def test_permutation_algebra():
    s = LeafPermutation(3, 1, (1, 2, 0))
    t = LeafPermutation(3, 1, (0, 2, 1))
    # s then t: 0 -> 1 -> 2
    assert (s * t).images == (2, 1, 0)
    assert (s * s.inverse()).is_identity
    assert (s ** 3).is_identity
    assert s ** -1 == s.inverse()
    assert (~s) == s.inverse()
    assert s ** 2 == s * s
    u = LeafPermutation(3, 2, range(9))
    with pytest.raises(InputError):
        s * u  # level mismatch
    with pytest.raises(AttributeError):
        s.images = (0, 1, 2)


def test_project_generators_level_one():
    g = make_ggs(3, (1, 2))
    assert project(g.a, 1).images == (1, 2, 0)
    assert project(g.b, 1).is_identity


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
        assert project(x * y, 2) == project(x, 2) * project(y, 2)
    with pytest.raises(InputError):
        project(g.a, 0)


def test_generator_images_have_order_p():
    for p, e in ((3, (1, 2)), (5, (1, 2, 3, 4))):
        g = make_ggs(p, e)
        for n in (1, 2):
            assert (project(g.a, n) ** p).is_identity
            assert (project(g.b, n) ** p).is_identity


# quotient orders ------------------------------------------------------------

# orders frozen from the breadth-first closure oracle; the small rows are
# re-derived against it live in test_chain_matches_bfs_oracle
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


# non-constant vectors only: the theorem excludes the constant vector
CLOSED_FORM_CASES = (
    [(3, e, n) for e in ((1, 0), (2, 0), (0, 1), (0, 2), (1, 2), (2, 1)) for n in (2, 3, 4)]
    + [(5, e, n) for e in ((1, 0, 2, 4), (1, 2, 3, 4), (0, 0, 0, 1)) for n in (2, 3)])


@pytest.mark.parametrize("p,e,n", CLOSED_FORM_CASES)
def test_quotient_order_matches_closed_form(p, e, n):
    assert level_quotient(make_ggs(p, e), n).order == p ** closed_form_log_order(p, e, n)


@pytest.mark.parametrize("p,e,n", [(3, (1, 2), 3), (3, (1, 1), 3), (5, (1, 0, 2, 4), 2)])
def test_chain_inverse_cache(p, e, n):
    chain = level_quotient(make_ggs(p, e), n)._chain
    extended = chain.copy()
    extended.add_generator(tuple(reversed(range(p ** n))))  # leaves the group
    for c in (chain, extended):
        assert len(c.inverses) == len(c.transversals) == len(c.bases)
        for trans, inverses in zip(c.transversals, c.inverses):
            assert inverses.keys() == trans.keys()
            for pt, rep in trans.items():
                assert _compose(rep, inverses[pt]) == c.identity
    assert extended.order() > chain.order()


def test_quotient_guards():
    g = make_ggs(3, (1, 2))
    with pytest.raises(InputError):
        level_quotient(g, 0)
    with pytest.raises(ResourceLimitError):
        level_quotient(g, 7)  # 3^7 leaves over the default guard
    with pytest.raises(ResourceLimitError):
        level_quotient(g, 4, leaf_guard=30)  # custom guard tightens the bound
    assert level_quotient(g, 3, leaf_guard=27).order == 2187


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


def test_census_guards():
    g = make_ggs(3, (1, 2))
    with pytest.raises(InputError):
        maximal_subgroups_census(g, 1)
    with pytest.raises(ResourceLimitError):
        maximal_subgroups_census(g, 7)


@pytest.mark.parametrize("p,e,n", [
    (3, (1, 2), 2), (3, (1, 2), 3), (3, (1, 0), 2), (3, (1, 0), 3), (5, (1, 0, 2, 4), 2)])
def test_census_seeded_chains_match_scratch_build(monkeypatch, p, e, n):
    # spy on the census: the Q' chain it builds and the chains it copies from it
    closures = []
    copies = []

    def shape(chain):
        return (chain.order(), list(chain.bases), [list(o) for o in chain.orbits],
                [len(level) for level in chain.gens], [len(level) for level in chain.done])

    real_closure = quotients._normal_closure
    real_copy = quotients._StabilizerChain.copy

    def closure_spy(seeds, conjugators, degree):
        chain, kept = real_closure(seeds, conjugators, degree)
        closures.append((chain, kept, shape(chain)))
        return chain, kept

    def copy_spy(self):
        other = real_copy(self)
        copies.append(other)
        return other

    monkeypatch.setattr(quotients, "_normal_closure", closure_spy)
    monkeypatch.setattr(quotients._StabilizerChain, "copy", copy_spy)
    g = make_ggs(p, e)
    census = maximal_subgroups_census(g, n)
    assert census["count"] == p + 1
    assert len(closures) == 1 and len(copies) == p + 1

    # extending the copies left the Q' chain as it was
    derived_chain, derived_gens, derived_shape = closures[0]
    assert shape(derived_chain) == derived_shape

    a_img = project(g.a, n).images
    b_img = project(g.b, n).images
    spanning = [_compose(_perm_power(a_img, (-t) % p), _perm_power(b_img, s % p))
                for s, t in [(1, t) for t in range(p)] + [(0, 1)]]
    for w, seeded in zip(spanning, copies):
        reference = scratch_subgroup_chain(w, derived_gens, p ** n)
        assert seeded.order() == reference.order() == census["order"] // p
        conjugates = [_compose(_compose(_inverse(c), h), c)
                      for h in [w] + derived_gens for c in (a_img, b_img)]
        for x in spanning + conjugates:
            assert seeded.contains(x) == reference.contains(x)
