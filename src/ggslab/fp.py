"""Exact linear algebra over the prime field F_p: rank, linear solving, circulants.

A matrix is a plain sequence of equal-length integer rows; every entry is
reduced to its canonical residue in {0, ..., p-1} before use, and no floating
point enters anywhere. Rank and solving share one row-reduction routine.
"""

from .errors import InputError

_VALIDATED_PRIMES = {3, 5, 7, 11, 13}


def validate_odd_prime(p):
    """Return p if it is an odd prime >= 3, else raise InputError."""
    if not isinstance(p, int) or isinstance(p, bool):
        raise InputError(f"modulus must be an integer, got {p!r}")
    if p in _VALIDATED_PRIMES:
        return p
    if p < 3 or p % 2 == 0:
        raise InputError(f"modulus must be an odd prime >= 3, got {p}")
    d = 3
    while d * d <= p:
        if p % d == 0:
            raise InputError(f"modulus must be prime, got {p} = {d} * {p // d}")
        d += 2
    _VALIDATED_PRIMES.add(p)
    return p


def _row_reduce(work, n_cols, p):
    """Bring the residue rows in work to reduced row echelon form in place,
    pivoting only in the first n_cols columns; later columns (an augmented
    right-hand side) are carried along. Returns the pivot columns in order."""
    n_rows = len(work)
    pivots = []
    rank = 0
    for col in range(n_cols):
        sel = None
        for i in range(rank, n_rows):
            if work[i][col]:
                sel = i
                break
        if sel is None:
            continue
        work[rank], work[sel] = work[sel], work[rank]
        inv = pow(work[rank][col], p - 2, p)
        work[rank] = [(x * inv) % p for x in work[rank]]
        for i in range(n_rows):
            if i != rank and work[i][col]:
                f = work[i][col]
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[rank])]
        pivots.append(col)
        rank += 1
    return pivots


def gaussian_rank(rows, p):
    """Rank over F_p of the matrix with the given rows."""
    validate_odd_prime(p)
    work = [[int(x) % p for x in row] for row in rows]
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
    n_cols = len(rows[0]) if rows else 0
    if len(rhs) != len(rows) or any(len(row) != n_cols for row in rows):
        raise InputError("a linear system needs equal-length rows and one right-hand side per row")
    aug = [[int(x) % p for x in row] + [int(b) % p] for row, b in zip(rows, rhs)]
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


def circulant(first_row, p):
    """The p x p circulant over F_p whose row k is first_row cyclically shifted
    k steps to the right, as a list of rows."""
    validate_odd_prime(p)
    vals = [int(x) % p for x in first_row]
    if len(vals) != p:
        raise InputError(f"a circulant over F_{p} needs exactly {p} entries, got {len(vals)}")
    return [vals[-k:] + vals[:-k] for k in range(p)]


def circulant_rank(first_row, p):
    """Rank over F_p of the circulant with the given first row (length p)."""
    return gaussian_rank(circulant(first_row, p), p)
