"""The infinite semidirect-product model of the constant-vector group and its
finite reductions."""

import json
import random
from collections import Counter

import pytest

from ggslab.errors import InputError, ResourceLimitError
from ggslab.model import (
    FiniteModel,
    all_subgroups,
    census_dict,
    distinct_mq_witness,
    enumerate_maximal_subgroups,
    model_matrix,
    reduce_mod,
)

from oracles import all_subgroups_by_rounds


# the action matrix ----------------------------------------------------------


def test_matrix_p3_entries():
    assert model_matrix(3).rows == ((0, -1), (1, -1))


def test_matrix_p5_entries():
    assert model_matrix(5).rows == (
        (0, 0, 0, -1),
        (1, 0, 0, -1),
        (0, 1, 0, -1),
        (0, 0, 1, -1),
    )


@pytest.mark.parametrize("p", [3, 5, 7])
def test_matrix_power_cycle(p):
    m = model_matrix(p)
    ident = m.power(0)
    assert m.power(p) == ident  # construction re-verifies A^p = I
    assert m.power(1) != ident
    assert m.power(-1) == m.power(p - 1)
    assert m.power(2 * p + 3) == m.power(3)


# element arithmetic ---------------------------------------------------------


def test_group_axioms_sampled():
    # the product (c1, v1) * (c2, v2) = (c1 + c2, v1 A^{c2} + v2) on the
    # lattice reduced mod q
    rng = random.Random(101)
    for p, q in ((3, 4), (5, 2)):
        fm = FiniteModel(p, q)
        ident = fm.identity
        for _ in range(60):
            x, y, z = (rng.randrange(fm.order) for _ in range(3))
            assert fm.mul(fm.mul(x, y), z) == fm.mul(x, fm.mul(y, z))
            assert fm.mul(x, ident) == x
            assert fm.mul(ident, x) == x
            assert fm.mul(x, fm.inverse(x)) == ident
            assert fm.mul(fm.inverse(x), x) == ident
            # anything outside the lattice has order exactly p: the vanishing
            # power sum of the action matrix wipes the lattice part of a p-th power
            if fm.elements[x][0]:
                assert fm.element_order(x) == p
        # inside the lattice nothing is p-torsion: e_1 has order q
        assert fm.element_order(fm.gen_b) == q


def _times_matrix(v, q):
    """v A mod q for the action matrix in its block form: column t < p-2 of A
    picks row t+1, and the last column is all -1."""
    return tuple(x % q for x in v[1:]) + (-sum(v) % q,)


@pytest.mark.parametrize("p,q", [(3, 2), (5, 2)])
def test_mul_matches_the_product_formula_on_every_pair(p, q):
    # (c1, v1) * (c2, v2) = (c1 + c2, v1 A^{c2} + v2), A applied c2 times by hand
    fm = FiniteModel(p, q)
    for i, (c1, v1) in enumerate(fm.elements):
        for j, (c2, v2) in enumerate(fm.elements):
            moved = v1
            for _ in range(c2):
                moved = _times_matrix(moved, q)
            want = ((c1 + c2) % p, tuple((x + y) % q for x, y in zip(moved, v2)))
            assert fm.elements[fm.mul(i, j)] == want


# the lattice filtration -----------------------------------------------------


def test_distinct_mq_witnesses():
    assert distinct_mq_witness(2, 3, 3)
    assert distinct_mq_witness(2, 5, 5)
    assert distinct_mq_witness(3, 5, 3)


def test_distinct_mq_witness_input_checks():
    with pytest.raises(InputError):
        distinct_mq_witness(2, 2, 3)  # equal moduli
    with pytest.raises(InputError):
        distinct_mq_witness(4, 3, 3)  # composite modulus
    with pytest.raises(InputError):
        distinct_mq_witness(2, 3, 9)  # composite p


# finite reductions ----------------------------------------------------------


def test_reduce_mod_guards():
    with pytest.raises(InputError):
        reduce_mod(3, 3)  # shares a factor with p
    with pytest.raises(ResourceLimitError):
        reduce_mod(7, 4)  # 7 * 4^6 elements over the order guard
    with pytest.raises(InputError):
        reduce_mod(3, 1)


def test_reduction_mod_two_is_a4():
    fm = reduce_mod(3, 2)
    assert fm.order == 12
    orders = Counter(fm.element_order(i) for i in range(fm.order))
    assert orders == {1: 1, 2: 3, 3: 8}  # the alternating group on 4 points
    assert len(all_subgroups(fm)) == 10


def test_a4_maximal_census():
    fm = reduce_mod(3, 2)
    recs = census_dict(fm, enumerate_maximal_subgroups(fm))["maximal"]
    shapes = Counter((r["order"], r["index"], r["normal"]) for r in recs)
    assert shapes == {(4, 3, True): 1, (3, 4, False): 4}


def test_order80_maximal_census():
    # p = 5, q = 2: sixteen conjugate point stabilizers plus the normal lattice
    fm = reduce_mod(5, 2)
    assert fm.order == 80
    c = census_dict(fm, enumerate_maximal_subgroups(fm))
    shapes = Counter((r["index"], r["normal"]) for r in c["maximal"])
    assert shapes == {(16, False): 16, (5, True): 1}
    assert c["p"] == 5 and c["q"] == 2 and c["order"] == 80


def test_census_records_regenerate_their_subgroups():
    fm = reduce_mod(3, 2)
    for rec in census_dict(fm, enumerate_maximal_subgroups(fm))["maximal"]:
        seeds = [fm.elements.index((c, tuple(v))) for c, v in rec["generators"]]
        assert len(fm.subgroup_closure(seeds)) == rec["order"]


def test_census_deterministic():
    fm = reduce_mod(3, 2)
    a = census_dict(fm, enumerate_maximal_subgroups(fm))
    b = census_dict(fm, enumerate_maximal_subgroups(fm))
    assert a == b


def test_finite_model_normality_check():
    fm = reduce_mod(3, 2)
    whole = frozenset(range(fm.order))
    assert fm.is_normal(whole)
    # the four 3-element subgroups are not normal
    threes = [s for s, _ in all_subgroups(fm) if len(s) == 3]
    assert len(threes) == 4
    assert not any(fm.is_normal(s) for s in threes)


@pytest.mark.parametrize("p,q", [(3, 2), (5, 2), (3, 4), (3, 5)])
def test_worklist_lattice_matches_join_rounds(p, q):
    fm = reduce_mod(p, q)
    got = all_subgroups(fm)
    assert [s for s, _ in got] == [s for s, _ in all_subgroups_by_rounds(fm)]
    # each subgroup comes with generators that generate it
    assert all(fm.subgroup_closure(gens) == s for s, gens in got)


def test_worklist_lattice_keeps_the_census_json():
    fm = reduce_mod(5, 2)
    subs = [s for s, _ in all_subgroups_by_rounds(fm)]
    proper = subs[:-1]
    maximal = [s for s in proper if not any(s < t for t in proper)]
    assert json.dumps(census_dict(fm, enumerate_maximal_subgroups(fm))) == json.dumps(
        census_dict(fm, sorted(maximal, key=lambda s: (len(s), sorted(s)))))
