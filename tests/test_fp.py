"""Linear algebra over F_p: rank, linear solving, circulant rank."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggslab.errors import InputError
from ggslab.fp import (
    BYTE_ROWS_BELOW,
    _encode_rows,
    _rotations,
    _row_reduce,
    circulant_rank,
    gaussian_rank,
    solve_linear_mod_p,
    validate_odd_prime,
)

from oracles import circulant_rank_closed_form, rref, solve_by_rref


def test_validate_odd_prime_accepts_small_primes():
    for p in (3, 5, 7, 11, 13, 17, 101):
        assert validate_odd_prime(p) == p


@pytest.mark.parametrize("bad", [2, 4, 9, 15, 1, 0, -3, -7, 3.0, "3", True, None])
def test_validate_odd_prime_rejects(bad):
    with pytest.raises(InputError):
        validate_odd_prime(bad)


def test_gaussian_rank_known_values():
    assert gaussian_rank([[1 if i == j else 0 for j in range(4)] for i in range(4)], 5) == 4
    assert gaussian_rank([[0, 0], [0, 0]], 3) == 0
    assert gaussian_rank([], 3) == 0
    # second row is twice the first mod 5
    assert gaussian_rank([[1, 2, 3], [2, 4, 6]], 5) == 1
    # rank 2: rows [1,1,1] and [1,2,4] independent, third = 2*second - first
    assert gaussian_rank([[1, 1, 1], [1, 2, 4], [1, 3, 7]], 5) == 2
    # entries are reduced mod p first
    assert gaussian_rank([[5, 10], [-5, 3]], 5) == 1


def test_gaussian_rank_input_checks():
    with pytest.raises(InputError):
        gaussian_rank([[1, 0], [1]], 3)  # ragged rows
    with pytest.raises(InputError):
        gaussian_rank([[1, 0]], 4)


def test_circulant_row_structure():
    # the rows circulant_rank eliminates: row k is the first row shifted k steps
    # right, entries kept raw since the elimination reduces each one once
    assert _rotations([1, 2, 0], 3) == [[1, 2, 0], [0, 1, 2], [2, 0, 1]]
    assert _rotations([4, 0, -1, 0, 0], 5) == [
        [4, 0, -1, 0, 0],
        [0, 4, 0, -1, 0],
        [0, 0, 4, 0, -1],
        [-1, 0, 0, 4, 0],
        [0, -1, 0, 0, 4],
    ]
    assert circulant_rank((4, 0, -1, 0, 0), 5) == circulant_rank((4, 0, 4, 0, 0), 5)


def test_circulant_rank_examples():
    # all-ones: every row equal, rank 1
    assert circulant_rank((1, 1, 1), 3) == 1
    # sum = 0 mod 3 forces a nontrivial kernel
    assert circulant_rank((1, 2, 0), 3) == 2
    # single 1: a permutation matrix, full rank
    assert circulant_rank((1, 0, 0), 3) == 3
    assert circulant_rank((1, 0, 2, 4, 0), 5) == 5
    # entries are reduced mod p first, on both row encodings
    assert circulant_rank((4, -1, 3), 3) == circulant_rank((1, 2, 0), 3)
    assert circulant_rank((132, -1) + (0,) * 129, 131) == 130


def test_circulant_rank_full_iff_nonzero_sum_p3():
    # exhaustive over all 27 first rows
    for v0 in range(3):
        for v1 in range(3):
            for v2 in range(3):
                row = (v0, v1, v2)
                r = circulant_rank(row, 3)
                if (v0 + v1 + v2) % 3 != 0:
                    assert r == 3, row
                else:
                    assert r < 3, row


def test_circulant_rank_matches_closed_form_p3_p5():
    # all 27 + 3125 first rows against the root-multiplicity closed form
    for p in (3, 5):
        for row in itertools.product(range(p), repeat=p):
            assert circulant_rank(row, p) == circulant_rank_closed_form(row, p), row


def _shifted_root_row(rng, p):
    """First row of (x - 1)^k g(x) for k uniform in 0..p and g random of degree
    below p - k: the multiplicity of the root x = 1, and so the rank, is spread
    over its whole range, where uniform rows sit almost all at rank p or p - 1."""
    k = rng.randint(0, p)
    coeffs = [rng.randrange(p) for _ in range(p - k)]
    for _ in range(k):  # multiply by x - 1
        coeffs = [(lo - hi) % p for lo, hi in zip([0] + coeffs, coeffs + [0])]
    return tuple(coeffs)


@pytest.mark.parametrize("p", [7, 11, 13])
def test_circulant_rank_matches_closed_form_sampled(p):
    # the sweep's own check (rank < p iff the entries sum to 0) cannot see a
    # rank that is too high below p, so compare with the closed form
    rng = random.Random(p)
    rows = [tuple(rng.randrange(p) for _ in range(p)) for _ in range(250)]
    rows += [_shifted_root_row(rng, p) for _ in range(250)]
    ranks = set()
    for row in rows:
        rank = circulant_rank(row, p)
        assert rank == circulant_rank_closed_form(row, p), row
        ranks.add(rank)
    assert len(ranks) > p // 2


def test_circulant_length_check():
    with pytest.raises(InputError):
        circulant_rank((1, 2), 3)
    with pytest.raises(InputError):
        circulant_rank((1, 2, 0, 0), 4)


def _check_solution(rows, rhs, sol, p):
    for row, want in zip(rows, rhs):
        assert sum(r * x for r, x in zip(row, sol)) % p == want % p


def test_solve_linear_known_solutions_recovered():
    rng = random.Random(23)
    for _ in range(60):
        p = rng.choice((3, 5, 7))
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
        hidden = [rng.randrange(p) for _ in range(n)]
        rhs = [sum(r * x for r, x in zip(row, hidden)) % p for row in rows]
        out = solve_linear_mod_p(rows, rhs, p)
        assert out is not None
        particular, basis = out
        _check_solution(rows, rhs, particular, p)
        # every basis vector solves the homogeneous system
        for vec in basis:
            _check_solution(rows, [0] * m, vec, p)


def test_solve_linear_affine_space_is_complete():
    # enumerate the full solution set and compare with brute force
    p = 3
    rows = [[1, 1, 0], [0, 0, 1]]
    rhs = [1, 2]
    particular, basis = solve_linear_mod_p(rows, rhs, p)
    assert len(basis) == 1
    got = set()
    for c in range(p):
        sol = tuple((particular[i] + c * basis[0][i]) % p for i in range(3))
        got.add(sol)
    brute = {
        (x, y, z)
        for x in range(p) for y in range(p) for z in range(p)
        if (x + y) % p == 1 and z % p == 2
    }
    assert got == brute


def test_solve_linear_inconsistent_returns_none():
    assert solve_linear_mod_p([[1, 1], [2, 2]], [1, 0], 3) is None
    assert solve_linear_mod_p([[0, 0]], [1], 5) is None


def test_solve_linear_input_checks():
    with pytest.raises(InputError):
        solve_linear_mod_p([[1, 0], [0, 1]], [1], 3)  # one right-hand side short
    with pytest.raises(InputError):
        solve_linear_mod_p([[1, 0], [0, 1, 2]], [1, 1], 3)  # ragged rows
    with pytest.raises(InputError):
        solve_linear_mod_p([[1, 0]], [1], 9)


def test_solve_linear_zero_columns():
    particular, basis = solve_linear_mod_p([[0, 0]], [0], 3)
    assert particular == (0, 0)
    assert len(basis) == 2


# brute-force property checks on small systems ------------------------------

_small_systems = st.sampled_from((3, 5, 7)).flatmap(lambda p: st.tuples(
    st.just(p),
    st.integers(1, 4).flatmap(lambda n: st.lists(
        st.tuples(st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
                  st.integers(0, p - 1)),
        min_size=1, max_size=4)),
))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_small_systems)
def test_solve_linear_matches_brute_force(system):
    p, eqs = system
    rows = [row for row, _ in eqs]
    rhs = [b for _, b in eqs]
    n = len(rows[0])
    brute = {
        x for x in itertools.product(range(p), repeat=n)
        if all(sum(r * v for r, v in zip(row, x)) % p == b for row, b in eqs)
    }
    out = solve_linear_mod_p(rows, rhs, p)
    if out is None:
        assert brute == set()
        return
    particular, basis = out
    got = set()
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        got.add(tuple(
            (particular[i] + sum(c * vec[i] for c, vec in zip(coeffs, basis))) % p
            for i in range(n)))
    assert got == brute
    assert len(got) == p ** len(basis)  # the basis vectors are independent


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_small_systems)
def test_gaussian_rank_matches_row_space_size(system):
    p, eqs = system
    rows = [row for row, _ in eqs]
    n = len(rows[0])
    span = {
        tuple(sum(c * row[i] for c, row in zip(coeffs, rows)) % p for i in range(n))
        for coeffs in itertools.product(range(p), repeat=len(rows))
    }
    assert p ** gaussian_rank(rows, p) == len(span)


# against Gauss-Jordan elimination in one sweep per pivot ---------------------

@st.composite
def _sparse_matrices(draw, primes=(3, 5, 7, 11, 13, 127, 131)):
    """(p, rows, rhs): up to 9 x 9 over F_p for p drawn from primes, with some
    rows and some columns forced to zero, and a right-hand side that is either
    arbitrary or the image of a hidden vector (so consistent)."""
    p = draw(st.sampled_from(primes))
    m = draw(st.integers(1, 9))
    n = draw(st.integers(1, 9))
    rows = draw(st.lists(st.lists(st.integers(-p, 2 * p), min_size=n, max_size=n),
                         min_size=m, max_size=m))
    zero_rows = draw(st.sets(st.integers(0, m - 1)))
    zero_cols = draw(st.sets(st.integers(0, n - 1)))
    rows = [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
            for i, row in enumerate(rows)]
    if draw(st.booleans()):
        hidden = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
        rhs = [sum(r * x for r, x in zip(row, hidden)) for row in rows]
    else:
        rhs = draw(st.lists(st.integers(0, p - 1), min_size=m, max_size=m))
    return p, rows, rhs


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_sparse_matrices())
def test_elimination_matches_gauss_jordan(case):
    _check_against_gauss_jordan(*case)


# the last prime with byte rows and the first with list rows, 200 draws each
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_sparse_matrices(primes=(127, 131)))
def test_elimination_matches_gauss_jordan_at_the_row_encoding_line(case):
    _check_against_gauss_jordan(*case)


def _check_against_gauss_jordan(p, rows, rhs):
    n = len(rows[0])

    def augmented():
        return [[x % p for x in row] + [b % p] for row, b in zip(rows, rhs)]

    ref = augmented()
    ref_pivots = rref(ref, n, p)
    assert gaussian_rank(rows, p) == len(ref_pivots)
    # the augmented rank: a pivot past the coefficient columns included
    assert gaussian_rank(augmented(), p) == len(rref(augmented(), n + 1, p))
    assert solve_linear_mod_p(rows, rhs, p) == solve_by_rref(rows, rhs, p)
    # reduced row echelon form is unique, so the pivot rows agree entry by entry
    work = _encode_rows(augmented(), p)
    assert all(type(row) is (bytes if p < BYTE_ROWS_BELOW else list) for row in work)
    pivots = _row_reduce(work, n, p)
    assert pivots == ref_pivots
    assert [list(row) for row in work[:len(pivots)]] == ref[:len(pivots)]


@pytest.mark.parametrize("p", [113, 127])
def test_byte_rows_hold_the_largest_field_sums(p):
    # row 2 minus row 1 adds (p - 1) + (p - 1) = 2p - 2 in every field after
    # the first, the most a byte row ever holds before it is reduced
    n = 9
    rows = [[1] * n, [1] + [p - 1] * (n - 1), [2] + [p - 2] * (n - 1)]
    rhs = [1, p - 1, 0]
    ref = [list(row) + [b] for row, b in zip(rows, rhs)]
    ref_pivots = rref(ref, n, p)
    assert gaussian_rank(rows, p) == len(ref_pivots) == 2
    assert solve_linear_mod_p(rows, rhs, p) == solve_by_rref(rows, rhs, p)
    work = _encode_rows([list(row) + [b] for row, b in zip(rows, rhs)], p)
    assert _row_reduce(work, n, p) == ref_pivots
    assert [list(row) for row in work] == ref
