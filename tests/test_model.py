"""The infinite semidirect-product model of the constant-vector group and its
finite reductions."""

import json
import random
from collections import Counter

import pytest

from ggslab.errors import CrossCheckError, InputError, ResourceLimitError
from ggslab.model import (
    FiniteModel,
    ModelElement,
    all_subgroups,
    census_dict,
    distinct_mq_witness,
    enumerate_maximal_subgroups,
    model_identity,
    model_inverse,
    model_matrix,
    model_mul,
    model_power,
    mq_membership,
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


def test_element_validation():
    x = ModelElement(4, (1, 2))
    assert x.c == 1  # reduced mod p = 3
    assert x.p == 3
    with pytest.raises(InputError):
        ModelElement(0, (1,))  # p = 2 is not odd
    with pytest.raises(InputError):
        ModelElement(0, (1, 2, 3))  # p = 4 composite


def test_group_axioms_sampled():
    rng = random.Random(101)
    for p in (3, 5):
        ident = model_identity(p)
        for _ in range(60):
            x = ModelElement(rng.randrange(p), tuple(rng.randrange(-9, 9) for _ in range(p - 1)))
            y = ModelElement(rng.randrange(p), tuple(rng.randrange(-9, 9) for _ in range(p - 1)))
            z = ModelElement(rng.randrange(p), tuple(rng.randrange(-9, 9) for _ in range(p - 1)))
            assert model_mul(model_mul(x, y), z) == model_mul(x, model_mul(y, z))
            assert model_mul(x, ident) == x
            assert model_mul(ident, x) == x
            assert model_mul(x, model_inverse(x)) == ident
            assert model_mul(model_inverse(x), x) == ident


def test_power_matches_repeated_mul():
    rng = random.Random(103)
    x = ModelElement(1, (2, -1, 0, 3))
    acc = model_identity(5)
    for k in range(12):
        assert model_power(x, k) == acc
        acc = model_mul(acc, x)
    assert model_power(x, -3) == model_inverse(model_power(x, 3))
    # anything outside the lattice has order exactly p: the vanishing power
    # sum of the action matrix wipes the lattice part of a p-th power
    assert model_power(x, 5) == model_identity(5)
    # inside the lattice nothing is torsion
    y = ModelElement(0, (1, 0, 0, 0))
    assert model_power(y, 5) == ModelElement(0, (5, 0, 0, 0))
    assert model_power(y, 5) != model_identity(5)


def test_mul_rejects_mismatched_p():
    with pytest.raises(InputError):
        model_mul(ModelElement(0, (1, 2)), ModelElement(0, (1, 2, 3, 4)))


# the lattice filtration -----------------------------------------------------


def test_mq_membership():
    x = ModelElement(1, (2, 4))
    assert mq_membership(x, 2)
    assert not mq_membership(x, 4)
    assert mq_membership(ModelElement(2, (0, 0)), 7)
    with pytest.raises(InputError):
        mq_membership(x, 1)


def test_mq_closed_under_multiplication():
    # the lattice part transforms linearly, so divisibility by q survives
    rng = random.Random(107)
    for _ in range(40):
        x = ModelElement(rng.randrange(3), (2 * rng.randrange(-5, 5), 2 * rng.randrange(-5, 5)))
        y = ModelElement(rng.randrange(3), (2 * rng.randrange(-5, 5), 2 * rng.randrange(-5, 5)))
        assert mq_membership(model_mul(x, y), 2)
        assert mq_membership(model_inverse(x), 2)


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
