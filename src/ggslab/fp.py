"""Exact linear algebra over the prime field F_p: rank, linear solving, circulant rank.

A matrix is a plain sequence of equal-length integer rows; every entry is
reduced to its canonical residue in {0, ..., p-1} before use, and no floating
point enters anywhere. There is one elimination routine: rank runs only its
forward pass to row echelon form (_echelon), and solving adds
back-substitution to reduced row echelon form (_row_reduce).

The routine holds residue rows in one of two encodings, chosen by p alone
(_row_ops). Below p = 128 a row is a bytes object, one residue per byte, and
a row operation works on the whole row at once: scaling is one translate
through a multiplication table, and row - f * pivot adds the two rows read as
big integers, the pivot first translated through the table of -f, then
reduces every field by one more translate. The sum is exact because each
field stays at or below 2p - 2, which fits in a byte, so no carry crosses
into the next field, only while p < 128. From p = 128 on the rows stay lists
of ints, reduced entry by entry. The tables are built on first use of each p.
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


BYTE_ROWS_BELOW = 128  # rows are bytes for p below this (see the module docstring)

_row_ops_by_p = {}


def _row_ops(p):
    """(encode, scale, subtract) for residue rows over F_p, built on first use
    of each p: encode(row) turns a list of residues into a row, scale(row, c)
    is c * row and subtract(row, f, pivot) is row - f * pivot."""
    ops = _row_ops_by_p.get(p)
    if ops is not None:
        return ops
    if p < BYTE_ROWS_BELOW:
        mul = [bytes((c * x) % p for x in range(256)) for c in range(p)]
        mod = bytes(x % p for x in range(256))
        from_bytes = int.from_bytes

        def scale(row, c):
            return row.translate(mul[c])

        def subtract(row, f, pivot):
            # fields of the sum stay at or below 2p - 2 < 256: no carries;
            # the byte order is spelled out because Python 3.10 requires it
            return (from_bytes(row, "big") + from_bytes(pivot.translate(mul[p - f]), "big")
                    ).to_bytes(len(row), "big").translate(mod)

        ops = (bytes, scale, subtract)
    else:
        def scale(row, c):
            return [(x * c) % p for x in row]

        def subtract(row, f, pivot):
            return [(x - f * y) % p for x, y in zip(row, pivot)]

        ops = (list, scale, subtract)
    _row_ops_by_p[p] = ops
    return ops


def _encode_rows(rows, p):
    """Lists of residues as the rows _echelon and _row_reduce work on."""
    encode = _row_ops(p)[0]
    return [encode(row) for row in rows]


def _echelon(work, n_cols, p):
    """Bring the rows in work (as _encode_rows gives them) to row echelon form
    in place, pivoting only in the first n_cols columns; later columns (an
    augmented right-hand side) are carried along. Each pivot row is scaled to
    lead with 1.

    Below the current pivot every row is zero left of the pivot column, and
    the pass stops once every row holds a pivot. Returns the pivot columns in
    order; their count is the rank."""
    _, scale, subtract = _row_ops(p)
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
        pivot = work[rank] = scale(row, pow(row[col], p - 2, p))
        for i in range(rank + 1, n_rows):
            f = work[i][col]
            if f:
                work[i] = subtract(work[i], f, pivot)
        pivots.append(col)
        rank += 1
        if rank == n_rows:
            break
    return pivots


def _row_reduce(work, n_cols, p):
    """Bring the rows in work (as _encode_rows gives them) to reduced row
    echelon form in place: the forward pass _echelon, then back-substitution
    clearing each pivot column above its pivot. Returns the pivot columns in
    order."""
    pivots = _echelon(work, n_cols, p)
    subtract = _row_ops(p)[2]
    for k in range(len(pivots) - 1, 0, -1):
        col = pivots[k]
        pivot = work[k]
        for i in range(k):
            f = work[i][col]
            if f:
                work[i] = subtract(work[i], f, pivot)
    return pivots


def gaussian_rank(rows, p):
    """Rank over F_p of the matrix with the given rows."""
    validate_odd_prime(p)
    work = [[int(x) % p for x in row] for row in rows]
    n_cols = len(work[0]) if work else 0
    if any(len(row) != n_cols for row in work):
        raise InputError("ragged rows")
    return len(_echelon(_encode_rows(work, p), n_cols, p))


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
    aug = _encode_rows([[int(x) % p for x in row] + [int(b) % p] for row, b in zip(rows, rhs)], p)
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


def _rotations(row, p):
    """The p rows whose row k is the list row (of length p) cyclically shifted
    k steps to the right."""
    if len(row) != p:
        raise InputError(f"a circulant over F_{p} needs exactly {p} entries, got {len(row)}")
    return [row[-k:] + row[:-k] for k in range(p)]


def circulant_rank(first_row, p):
    """Rank over F_p of the circulant with the given first row (length p)."""
    validate_odd_prime(p)
    # gaussian_rank reduces each entry once, so the rotations keep the raw entries
    return gaussian_rank(_rotations(list(first_row), p), p)
