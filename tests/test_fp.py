"""Linear algebra over F_p: rank, linear solving, circulant rank."""

import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggslab import fp
from ggslab.errors import InputError, ResourceLimitError
from ggslab.fp import (
    PRIME_TEST_BOUND,
    _row_reduce,
    circulant_rank,
    gaussian_rank,
    solve_linear_mod_p,
    validate_odd_prime,
)

from oracles import _rotations, circulant_rank_closed_form, rref, solve_by_rref


def test_validate_odd_prime_accepts_small_primes():
    for p in (3, 5, 7, 11, 13, 17, 101):
        assert validate_odd_prime(p) == p


@pytest.mark.parametrize("bad", [2, 4, 9, 15, 1, 0, -3, -7, 3.0, "3", True, None])
def test_validate_odd_prime_rejects(bad):
    with pytest.raises(InputError):
        validate_odd_prime(bad)


def _odd_prime_by_trial_division(n):
    if n < 3 or n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def test_validate_odd_prime_agrees_with_trial_division():
    for n in range(-3, 10 ** 5):
        try:
            got = validate_odd_prime(n) == n
        except InputError:
            got = False
        assert got == _odd_prime_by_trial_division(n), n


@pytest.mark.parametrize("n", [3_215_031_751, 3_825_123_056_546_413_051])
def test_validate_odd_prime_rejects_strong_pseudoprimes(n):
    # 3215031751 is a strong pseudoprime to bases 2, 3, 5 and 7, and
    # 3825123056546413051 to every prime base up to 23
    with pytest.raises(InputError, match="must be prime"):
        validate_odd_prime(n)


def test_prime_test_bound_is_the_first_pseudoprime_to_every_base():
    # the 13 bases call the bound itself prime, so it is refused, not tested
    assert PRIME_TEST_BOUND == 1_287_836_182_261 * 2_575_672_364_521
    assert fp._is_odd_prime(PRIME_TEST_BOUND)


def test_fp_keeps_no_state_that_grows_with_p():
    # every module-level set, dict and list keeps its size however many
    # primes are validated and however many fields elimination runs over;
    # the primes past 10^6 are ones no other test uses, so a cache keyed by
    # p would grow here whatever ran first
    def sizes():
        return {name: len(value) for name, value in vars(fp).items()
                if not name.startswith("__") and isinstance(value, (set, dict, list))}

    before = sizes()
    for n in range(3, 10 ** 4, 2):
        if _odd_prime_by_trial_division(n):
            validate_odd_prime(n)
    primes = [127, 131]
    n = 10 ** 6 + 1
    while len(primes) < 20:
        if _odd_prime_by_trial_division(n):
            primes.append(n)
        n += 2
    for p in primes:
        assert gaussian_rank([[1, 2, 3], [2, 4, 6], [p - 1, 0, 1]], p) == 2
        assert solve_linear_mod_p([[1, 2], [0, 3]], [3, 3], p) == ((1, 1), ())
    assert sizes() == before


def test_validate_odd_prime_accepts_large_primes():
    for p in (2 ** 31 - 1, 2 ** 61 - 1, 1_000_000_007):
        assert validate_odd_prime(p) == p


def test_huge_modulus_is_refused_at_once():
    # past PRIME_TEST_BOUND the test is not known to be exact; trial division
    # up to the square root of 10^30 + 57 used to spin for good, so the calls
    # run in a child that is killed if it hangs
    code = """if True:
        import time
        from ggslab import words
        from ggslab.errors import ResourceLimitError
        from ggslab.fp import circulant_rank, validate_odd_prime
        for call in (lambda: circulant_rank([1], 10 ** 30 + 57),
                     lambda: words.normalize([("a", 1)], 10 ** 30 + 57),
                     lambda: validate_odd_prime(3317044064679887385961981)):
            start = time.perf_counter()
            try:
                call()
            except ResourceLimitError:
                print(time.perf_counter() - start)
    """
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=20)
    assert proc.returncode == 0, proc.stderr
    times = [float(line) for line in proc.stdout.split()]
    assert len(times) == 3 and max(times) < 1.0
    with pytest.raises(ResourceLimitError, match="exact primality test"):
        validate_odd_prime(PRIME_TEST_BOUND)


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


def test_entries_must_be_integers_not_bools_floats_or_strings():
    # none of these may be read as a number: int() would give (1.5, 0, 0)
    # rank 3 at p=3, truncate 2.9 to 2 and parse "2" as a right-hand side
    for bad in (1.5, 2.9, True, False, "2", None):
        with pytest.raises(InputError):
            circulant_rank((bad, 0, 0), 3)
        with pytest.raises(InputError):
            circulant_rank([0] * 130 + [bad], 131)
        with pytest.raises(InputError):
            gaussian_rank([[bad, 0], [0, 1]], 3)
        with pytest.raises(InputError):
            solve_linear_mod_p([[bad, 0]], [2], 3)
        with pytest.raises(InputError):
            solve_linear_mod_p([[1, 0]], [bad], 3)


def test_a_matrix_row_or_right_hand_side_must_be_iterable():
    # bad input like any other malformed matrix, not a bare TypeError
    for call in (lambda: gaussian_rank(5, 3), lambda: gaussian_rank([5], 3),
                 lambda: solve_linear_mod_p([[1, 2]], 5, 3), lambda: circulant_rank(5, 3)):
        with pytest.raises(InputError, match="must be sequences"):
            call()


def test_circulant_row_structure():
    # row k is the first row shifted k steps right, for a list or a bytes row
    assert _rotations([1, 2, 0], 3) == [[1, 2, 0], [0, 1, 2], [2, 0, 1]]
    assert _rotations(b"\x01\x02\x00", 3) == [b"\x01\x02\x00", b"\x00\x01\x02", b"\x02\x00\x01"]
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
    # entries are reduced mod p first
    assert circulant_rank((4, -1, 3), 3) == circulant_rank((1, 2, 0), 3)
    assert circulant_rank((132, -1) + (0,) * 129, 131) == 130
    # rows whose polynomial needs its zero high-degree coefficients trimmed,
    # or has none: the zero row, x^(p-1) (a permutation matrix) and the
    # all-ones row, which is (x - 1)^(p-1), on small p and at p = 131
    for p in (3, 5, 7, 131):
        assert circulant_rank((0,) * p, p) == 0
        assert circulant_rank((0,) * (p - 1) + (1,), p) == p
        assert circulant_rank((1,) * p, p) == 1


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


@pytest.mark.parametrize("p", [3, 5, 7, 13, 31])
def test_circulant_kernel_matches_closed_form(p):
    # the kernel the circulant sweep calls on its residue tuples, with no
    # validation of its own: every row at p = 3 and 5, and at p = 7, 13 and
    # 31 1,000 uniform rows and 1,000 whose rank spreads over 0..p
    if p ** p <= 5 ** 5:
        rows = list(itertools.product(range(p), repeat=p))
    else:
        rng = random.Random(p)
        rows = [tuple(rng.randrange(p) for _ in range(p)) for _ in range(1000)]
        rows += [_shifted_root_row(rng, p) for _ in range(1000)]
    assert len(rows) in (p ** p, 2000)
    for row in rows:
        assert fp._circulant_rank(row, p) == circulant_rank_closed_form(row, p), row


def _times_root_power(coeffs, k, p):
    """The coefficients (constant term first) of g(x) (x - 1)^k over F_p."""
    for _ in range(k):
        coeffs = [(lo - hi) % p for lo, hi in zip([0] + coeffs, coeffs + [0])]
    return coeffs


def _shifted_root_row(rng, p):
    """First row of (x - 1)^k g(x) for k uniform in 0..p and g random of degree
    below p - k: the multiplicity of the root x = 1, and so the rank, is spread
    over its whole range, where uniform rows sit almost all at rank p or p - 1."""
    k = rng.randint(0, p)
    return tuple(_times_root_power([rng.randrange(p) for _ in range(p - k)], k, p))


@pytest.mark.parametrize("p", [7, 11, 13, 257])
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


@st.composite
def _raw_circulant_row(draw, p):
    """p raw entries in [-2p, 3p) whose residues are the first row of
    (x - 1)^k g(x), k drawn from 0..p, so the rank spreads over its range."""
    k = draw(st.integers(0, p))
    g = draw(st.lists(st.integers(0, p - 1), min_size=p - k, max_size=p - k))
    lifts = draw(st.lists(st.integers(-2, 2), min_size=p, max_size=p))
    return [c + lift * p for c, lift in zip(_times_root_power(g, k, p), lifts)]


# small primes, and 127 and 131 either side of 2^7
@pytest.mark.parametrize("p", [3, 5, 7, 13, 31, 127, 131])
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_circulant_rank_matches_the_rank_of_its_rotations(p, data):
    # the gcd rank of one raw row against elimination of its p rotations,
    # and against the closed form, which eliminates nothing
    row = data.draw(_raw_circulant_row(p))
    rank = circulant_rank(row, p)
    assert rank == gaussian_rank(_rotations(row, p), p)
    assert rank == circulant_rank_closed_form(row, p)


def test_circulant_length_check():
    with pytest.raises(InputError):
        circulant_rank((1, 2), 3)
    with pytest.raises(InputError):
        circulant_rank((1, 2, 0, 0), 4)


def test_rows_are_read_once_so_iterators_are_rows():
    # the entry-type check must not consume a row before its residues are read
    assert gaussian_rank([iter([1, 0]), iter([0, 1])], 3) == 2
    assert gaussian_rank([(x for x in (1, 0)), [0, 1]], 3) == 2
    assert circulant_rank((x for x in (1, 0, 0)), 3) == 3
    assert circulant_rank(iter((1, 1, 1)), 3) == 1
    assert solve_linear_mod_p([iter([1, 0])], [1], 3) == ((1, 0), ((0, 1),))
    assert solve_linear_mod_p([iter([1, 0]), [0, 1]], iter([2, 1]), 3) == ((2, 1), ())
    with pytest.raises(InputError, match="exactly 3 entries, got 2"):
        circulant_rank(iter((1, 2)), 3)
    with pytest.raises(InputError, match="ragged rows"):
        gaussian_rank([iter([1, 0]), iter([0])], 3)
    with pytest.raises(InputError):
        gaussian_rank([iter([1, 2.5])], 3)


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


# the primes either side of 2^7, 200 draws each
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_sparse_matrices(primes=(127, 131)))
def test_elimination_matches_gauss_jordan_at_p127_and_p131(case):
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
    work = augmented()
    pivots = _row_reduce(work, n, p)
    assert pivots == ref_pivots
    assert work[:len(pivots)] == ref[:len(pivots)]


@pytest.mark.parametrize("p", [113, 127])
def test_elimination_on_rows_of_the_largest_residues(p):
    # row 2 minus row 1 meets p - 1 against p - 1 in every entry after the
    # first; each entry is reduced as it is computed, so the rows end in
    # canonical residues
    n = 9
    rows = [[1] * n, [1] + [p - 1] * (n - 1), [2] + [p - 2] * (n - 1)]
    rhs = [1, p - 1, 0]
    ref = [list(row) + [b] for row, b in zip(rows, rhs)]
    ref_pivots = rref(ref, n, p)
    assert gaussian_rank(rows, p) == len(ref_pivots) == 2
    assert solve_linear_mod_p(rows, rhs, p) == solve_by_rref(rows, rhs, p)
    work = [list(row) + [b] for row, b in zip(rows, rhs)]
    assert _row_reduce(work, n, p) == ref_pivots
    assert work == ref
