"""Exact linear algebra over the prime field F_p: rank, linear solving, circulant rank.

A matrix is a plain sequence of equal-length integer rows; every entry is
reduced to its canonical residue in {0, ..., p-1} before use, and no floating
point enters anywhere. There is one elimination routine, behind gaussian_rank
and solve_linear_mod_p: _row_reduce, one Gauss-Jordan pass to reduced row
echelon form. Rank is its pivot count, and solving reads the solution set off
the reduced rows.

Rows are lists of residues, reduced entry by entry, because the length
sieve's systems are small: a verify batch solves systems of 3-7 rows by 1-6
columns.

Entries must be ints (_residue_rows, which reads each row once, so a row may
be an iterator): a bool, float or string raises InputError, and so does a
matrix, row or right-hand side that is not iterable.

A circulant's rank needs no elimination. Its row k is x^k c(x) mod x^p - 1,
for c the first-row polynomial, so its row space is the ideal of
F_p[x]/(x^p - 1) that c generates, which is the ideal of g = gcd(c, x^p - 1),
of dimension p - deg g. circulant_rank runs Euclid's algorithm with x^p - 1
itself, in O(p^2) field operations against O(p^3) for elimination. It
validates p and the row and hands the residues to _circulant_rank, the Euclid
kernel, which checks nothing; the circulant sweep, which has validated p
once and draws residues, calls the kernel on each of its 10,000 rows.
"""

from .errors import InputError, ResourceLimitError

# Miller-Rabin with the first 13 prime bases is exact below this bound, the
# least strong pseudoprime to all of them (Sorenson and Webster, Math. Comp.
# 2017); a larger modulus is refused before any arithmetic.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981


def validate_odd_prime(p):
    """Return p if it is an odd prime >= 3, else raise InputError; a p at or
    past PRIME_TEST_BOUND raises ResourceLimitError."""
    if not isinstance(p, int) or isinstance(p, bool):
        raise InputError(f"modulus must be an integer, got {p!r}")
    if p >= PRIME_TEST_BOUND:
        raise ResourceLimitError(
            f"modulus {p} is past {PRIME_TEST_BOUND}, the bound of the exact primality test")
    if p < 3 or p % 2 == 0:
        raise InputError(f"modulus must be an odd prime >= 3, got {p}")
    if not _is_odd_prime(p):
        raise InputError(f"modulus must be prime, got {p}")
    return p


def _is_odd_prime(p):
    """Deterministic Miller-Rabin for an odd p with 3 <= p < PRIME_TEST_BOUND."""
    for q in _PRIME_BASES:
        if p % q == 0:
            return p == q
    d = p - 1
    s = (d & -d).bit_length() - 1  # p - 1 = d 2^s with d odd
    d >>= s
    for q in _PRIME_BASES:
        x = pow(q, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _row_reduce(work, n_cols, p):
    """Bring the residue rows in work (lists, as _residue_rows gives them) to
    reduced row echelon form in place, in one Gauss-Jordan pass pivoting only
    in the first n_cols columns; later columns (an augmented right-hand side)
    are carried along. Each pivot row is scaled to lead with 1 and its pivot
    column is cleared in every other row; the pass stops once every row holds
    a pivot. Returns the pivot columns in order; their count is the rank."""
    n_rows = len(work)
    pivots = []
    rank = 0
    for col in range(n_cols):
        for i in range(rank, n_rows):
            if work[i][col]:
                break
        else:
            continue
        row = work[i]
        work[i] = work[rank]
        inv = pow(row[col], p - 2, p)
        pivot = work[rank] = [x * inv % p for x in row]
        for i, other in enumerate(work):
            f = other[col]
            if f and i != rank:
                work[i] = [(x - f * y) % p for x, y in zip(other, pivot)]
        pivots.append(col)
        rank += 1
        if rank == n_rows:
            break
    return pivots


def _residue_rows(rows, p):
    """The rows as lists of canonical residues mod p; InputError unless every
    entry is an int (a bool is not). Only the set of entry types is tested.
    Each row is read once, into a list, before any check; a matrix or row
    that cannot be iterated raises InputError too."""
    try:
        rows = [list(row) for row in rows]
    except TypeError:
        raise InputError(
            f"a matrix over F_{p}, its rows and a right-hand side must be sequences") from None
    types = set()
    for row in rows:
        types.update(map(type, row))
    for t in types:
        if not issubclass(t, int) or t is bool:
            raise InputError(f"entries over F_{p} must be integers, got a {t.__name__}")
    return [[x % p for x in row] for row in rows]


def gaussian_rank(rows, p):
    """Rank over F_p of the matrix with the given rows."""
    validate_odd_prime(p)
    work = _residue_rows(rows, p)
    n_cols = len(work[0]) if work else 0
    if any(len(row) != n_cols for row in work):
        raise InputError("ragged rows")
    return len(_row_reduce(work, n_cols, p))


def solve_linear_mod_p(rows, rhs, p):
    """Full solution set of the linear system rows * x = rhs over F_p.

    rows is a sequence of equal-length integer sequences, rhs the matching
    right-hand sides. Returns (particular, basis) with a particular solution
    and a tuple of nullspace basis vectors (all canonical-residue tuples), or
    None when the system is inconsistent.
    """
    validate_odd_prime(p)
    work = _residue_rows(rows, p)
    (rhs,) = _residue_rows([rhs], p)
    n_cols = len(work[0]) if work else 0
    if len(rhs) != len(work) or any(len(row) != n_cols for row in work):
        raise InputError("a linear system needs equal-length rows and one right-hand side per row")
    aug = [row + [b] for row, b in zip(work, rhs)]
    pivots = _row_reduce(aug, n_cols, p)
    if any(row[n_cols] for row in aug[len(pivots):]):
        return None
    particular = [0] * n_cols
    for i, col in enumerate(pivots):
        particular[col] = aug[i][n_cols]
    pivot_set = set(pivots)
    basis = []
    for free_col in range(n_cols):
        if free_col in pivot_set:
            continue
        vec = [0] * n_cols
        vec[free_col] = 1
        for i, col in enumerate(pivots):
            vec[col] = (-aug[i][free_col]) % p
        basis.append(tuple(vec))
    return tuple(particular), tuple(basis)


def circulant_rank(first_row, p):
    """Rank over F_p of the circulant with the given first row (length p):
    p - deg gcd(c, x^p - 1) for c the first-row polynomial (module docstring).

    The gcd comes from Euclid's algorithm on coefficient lists, highest degree
    first, started from x^p - 1 itself. It reads neither the entry sum nor the
    factor x - 1: x^p - 1 = (x - 1)^p makes the rank p minus the multiplicity
    of the root 1, which is the closed form the tests check this against, and
    a rank read off the entry sum would make the circulant sweep's criterion
    (rank < p iff the entries sum to 0) restate itself instead of checking it."""
    validate_odd_prime(p)
    (row,) = _residue_rows([first_row], p)
    if len(row) != p:
        raise InputError(f"a circulant over F_{p} needs exactly {p} entries, got {len(row)}")
    return _circulant_rank(row, p)


def _circulant_rank(row, p):
    """circulant_rank's Euclid kernel: row is a sequence of exactly p
    canonical residues and p an odd prime, neither of them checked."""
    # Euclid from x^p - 1 and c: dividend <- dividend mod divisor in place,
    # reduced mod p only where a quotient coefficient is read and once as the
    # remainder (an entry meanwhile loses fewer than p products of residues);
    # every remainder is trimmed, so its length is its degree + 1
    divisor = list(reversed(row))
    while divisor and not divisor[0]:
        del divisor[0]
    if not divisor:
        return 0
    dividend = [1] + [0] * (p - 1) + [p - 1]
    while len(divisor) > 1:
        n = len(divisor)
        lead_inv = pow(divisor[0], p - 2, p)
        start = len(dividend) - n + 1
        for i in range(start):
            q = dividend[i] * lead_inv % p
            if q:
                for j in range(1, n):
                    dividend[i + j] -= q * divisor[j]
        remainder = [x % p for x in dividend[start:]]
        while remainder and not remainder[0]:
            del remainder[0]
        if not remainder:
            return p - (n - 1)
        dividend, divisor = divisor, remainder
    return p
