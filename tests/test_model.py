"""The infinite semidirect-product model of the constant-vector group and its
finite reductions."""

import json
import random
from collections import Counter

import pytest

from ggslab import cli, lemmas, model
from ggslab.core import make_ggs
from ggslab.errors import CrossCheckError, InputError, ResourceLimitError
from ggslab.model import (
    FiniteModel,
    all_subgroups,
    census_dict,
    distinct_mq_witness,
    enumerate_maximal_subgroups,
    reduce_mod,
    shift,
)

from oracles import all_subgroups_by_rounds


# the action map -------------------------------------------------------------


def _basis(p):
    return [tuple(int(i == j) for j in range(p - 1)) for i in range(p - 1)]


def _rows(p):
    """The action matrix read off the map: row i of A is e_i A."""
    return tuple(shift(v) for v in _basis(p))


def test_matrix_p3_entries():
    assert _rows(3) == ((0, -1), (1, -1))


def test_matrix_p5_entries():
    assert _rows(5) == (
        (0, 0, 0, -1),
        (1, 0, 0, -1),
        (0, 1, 0, -1),
        (0, 0, 1, -1),
    )


@pytest.mark.parametrize("p", [3, 5, 7])
def test_matrix_power_cycle(p):
    for v in _basis(p):
        assert shift(v, 0) == v
        assert shift(v, 1) != v
        assert shift(v, p) == v
        assert shift(v, 2 * p + 3) == shift(v, 3)
        assert shift(shift(v, p - 1)) == v  # A^{p-1} is the inverse of A


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_action_identities_up_to_31(p):
    # A != I, A^p = I and sum_{k<p} A^k = 0, each checked on every basis vector
    basis = _basis(p)
    assert _rows(p) != tuple(basis)
    for v in basis:
        powers = [shift(v, k) for k in range(p + 1)]
        assert powers[p] == v
        assert all(sum(col) == 0 for col in zip(*powers[:p]))
    lemmas._check_action_map(p)


@pytest.mark.parametrize("broken,message", [
    (lambda v, c=1: v, "is the identity"),
    # a cyclic permutation of the p - 1 coordinates has order p - 1
    (lambda v, c=1: v[1:] + v[:1], "does not have order p"),
    # an affine shift: period p on the basis, but its powers sum to all ones
    (lambda v, c=1: v[1:] + (1 - sum(v),), "do not sum to zero"),
], ids=["identity", "cyclic", "affine"])
def test_broken_action_map_fails_the_sweep(monkeypatch, capsys, broken, message):
    monkeypatch.setattr(model, "shift", broken)
    with pytest.raises(CrossCheckError, match=message):
        lemmas.sweep_constant_model(make_ggs(5, (1, 1, 1, 1)))
    code = cli.main(["verify", "--group", "p=5;e=1,1,1,1", "constant-model", "--json"])
    assert code == 3
    assert message in capsys.readouterr().err


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


def _block_matrix(p):
    """A in block form: zero first row but for its last entry, I_{p-2} below it,
    and a last column of all -1."""
    n = p - 1
    return [[-1 if t == n - 1 else int(r == t + 1) for t in range(n)] for r in range(n)]


def _vec_mat_power(v, m, k, q):
    """v m^k mod q as k vector-matrix products."""
    for _ in range(k):
        v = tuple(sum(x * row[t] for x, row in zip(v, m)) % q for t in range(len(m[0])))
    return v


@pytest.mark.parametrize("p,q", [(3, 2), (5, 2)])
def test_mul_matches_the_product_formula_on_every_pair(p, q):
    # (c1, v1) * (c2, v2) = (c1 + c2, v1 A^{c2} + v2), with v1 A^{c2} taken as
    # c2 vector-matrix products against the explicit block-form matrix
    fm = FiniteModel(p, q)
    a = _block_matrix(p)
    for i, (c1, v1) in enumerate(fm.elements):
        for j, (c2, v2) in enumerate(fm.elements):
            moved = _vec_mat_power(v1, a, c2, q)
            want = ((c1 + c2) % p, tuple((x + y) % q for x, y in zip(moved, v2)))
            assert fm.elements[fm.mul(i, j)] == want
        # (c, v)^{-1} = (-c, -v A^{-c})
        c_inv = (-c1) % p
        want = (c_inv, tuple(-x % q for x in _vec_mat_power(v1, a, c_inv, q)))
        assert fm.elements[fm.inverse(i)] == want


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
