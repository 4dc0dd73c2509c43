"""Semidirect-product model (Z/pZ) |x Z^{p-1} of the constant-vector group
modulo the derived subgroup of its level-1 kernel.

Elements are pairs (c, v) with c mod p and v an exact integer row vector of
length p-1; the cyclic part acts through the integer matrix

    A = [ 0      | -1 ]
        [ I_{p-2}| -1 ]      (block form, last column all -1)

which satisfies A^p = I, A != I and sum_{k=0}^{p-1} A^k = 0. Products follow
the right action: (c1, v1) * (c2, v2) = (c1 + c2, v1 A^{c2} + v2).

M_q denotes the subgroup (Z/pZ) |x (q Z)^{p-1}; reducing the lattice mod q
(gcd(q, p) = 1) gives a finite shadow of order p * q^{p-1} small enough to
enumerate outright, where maximal subgroups of index != p and non-normal
maximal subgroups become visible, unlike in any congruence quotient.
"""

import itertools
import math

from .errors import CrossCheckError, InputError, ResourceLimitError
from .fp import validate_odd_prime

MODEL_ORDER_GUARD = 5000


def _mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _mat_mul(a, b):
    n = len(a)
    cols = len(b[0])
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols))
                 for i in range(n))


def _mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


class ActionMatrix:
    """The order-p integer matrix through which Z/pZ acts on the lattice."""

    __slots__ = ("p", "rows", "powers")

    def __init__(self, p):
        validate_odd_prime(p)
        n = p - 1
        rows = [[0] * n for _ in range(n)]
        rows[0][n - 1] = -1
        for r in range(1, n):
            rows[r][r - 1] = 1
            rows[r][n - 1] = -1
        rows = tuple(tuple(r) for r in rows)
        ident = _mat_identity(n)
        powers = [ident]
        for _ in range(p - 1):
            powers.append(_mat_mul(powers[-1], rows))
        if rows == ident:
            raise CrossCheckError("action matrix is the identity")
        if _mat_mul(powers[p - 1], rows) != ident:
            raise CrossCheckError("action matrix does not have order p")
        total = powers[0]
        for k in range(1, p):
            total = _mat_add(total, powers[k])
        if any(any(x != 0 for x in row) for row in total):
            raise CrossCheckError("powers of the action matrix do not sum to zero")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "powers", tuple(powers[:p]))

    def __setattr__(self, name, val):
        raise AttributeError("ActionMatrix is immutable")

    def power(self, k):
        return self.powers[k % self.p]


_MATRICES = {}


def model_matrix(p):
    """The ActionMatrix for p, with its defining identities re-verified once."""
    m = _MATRICES.get(p)
    if m is None:
        m = ActionMatrix(p)
        _MATRICES[p] = m
    return m


def distinct_mq_witness(q1, q2, p):
    """Certify M_{q1} != M_{q2} for distinct primes q1, q2 by exhibiting a
    lattice vector in one and not the other: (0, q1 * e_1) lies in M_{q1}, and
    Bezout (gcd(q1, q2) = 1) rules its coordinates out of q2's lattice."""
    if q1 == q2:
        raise InputError("q1 and q2 must be distinct")
    for q in (q1, q2):
        if not (isinstance(q, int) and q == 2):
            validate_odd_prime(q)
    validate_odd_prime(p)
    # (0, v) lies in M_q exactly when q divides every coordinate of v
    witness = (q1,) + (0,) * (p - 2)
    return all(t % q1 == 0 for t in witness) and not all(t % q2 == 0 for t in witness)


class FiniteModel:
    """The model with its lattice reduced mod q: a finite group of order
    p * q^{p-1}, stored as an explicit element list in deterministic order."""

    def __init__(self, p, q):
        validate_odd_prime(p)
        if not isinstance(q, int) or q < 2:
            raise InputError(f"q must be an integer >= 2, got {q!r}")
        if math.gcd(p, q) != 1:
            raise InputError(f"q must be coprime to p, got q={q}, p={p}")
        order = p * q ** (p - 1)
        if order > MODEL_ORDER_GUARD:
            raise ResourceLimitError(f"model order {order} exceeds the guard {MODEL_ORDER_GUARD}")
        self.p = p
        self.q = q
        self.order = order
        mat = model_matrix(p)
        self._powers = tuple(tuple(tuple(x % q for x in row) for row in mat.power(k))
                             for k in range(p))
        self.elements = [(c, v) for c in range(p)
                         for v in itertools.product(range(q), repeat=p - 1)]
        self._index = {x: i for i, x in enumerate(self.elements)}
        self.identity = self._index[(0, (0,) * (p - 1))]
        # images of the two group generators; they generate the whole model
        self.gen_a = self._index[(1, (0,) * (p - 1))]
        self.gen_b = self._index[(0, (1,) + (0,) * (p - 2))]
        self._rows = [None] * order
        if self.subgroup_closure((self.gen_a, self.gen_b)) != frozenset(range(order)):
            raise CrossCheckError("generator images fail to generate the finite model")

    def _right(self, j):
        """The row [x * j for every index x], built on first use of j."""
        row = self._rows[j]
        if row is None:
            c2, v2 = self.elements[j]
            p, q = self.p, self.q
            cols = tuple(zip(*self._powers[c2]))  # column t of A^{c2}
            row = [self._index[((c1 + c2) % p,
                                tuple((sum(x * y for x, y in zip(v1, col)) + t) % q
                                      for col, t in zip(cols, v2)))]
                   for c1, v1 in self.elements]
            self._rows[j] = row
        return row

    def mul(self, i, j):
        """Product of elements by index, read off the row of j."""
        return self._right(j)[i]

    def inverse(self, i):
        c, v = self.elements[i]
        c_inv = (-c) % self.p
        m = self._powers[c_inv]
        q = self.q
        moved = tuple((-sum(v[r] * m[r][t] for r in range(len(v)))) % q
                      for t in range(len(v)))
        return self._index[(c_inv, moved)]

    def element_order(self, i):
        k = 1
        cur = i
        while cur != self.identity:
            cur = self.mul(cur, i)
            k += 1
        return k

    def subgroup_closure(self, seeds):
        """Indices of the subgroup generated by the seed indices."""
        closed = {self.identity}
        frontier = [self.identity]
        rows = [self._right(s) for s in seeds if s != self.identity]
        while frontier:
            x = frontier.pop()
            for row in rows:
                y = row[x]
                if y not in closed:
                    closed.add(y)
                    frontier.append(y)
        return frozenset(closed)

    def is_normal(self, subgroup):
        """Conjugation-invariance under the two model generators (which
        generate the whole group)."""
        for g in (self.gen_a, self.gen_b):
            g_inv = self.inverse(g)
            for x in subgroup:
                if self.mul(self.mul(g_inv, x), g) not in subgroup:
                    return False
        return True

    def __repr__(self):
        return f"FiniteModel(p={self.p}, q={self.q}, order={self.order})"


def reduce_mod(p, q):
    """The finite shadow of the model with the lattice reduced mod q."""
    return FiniteModel(p, q)


def all_subgroups(fm):
    """Every subgroup of the finite model.

    Any subgroup is the join of its cyclic subgroups, so a worklist suffices:
    start from the cyclic subgroups and join each subgroup found, once, with
    each cyclic subgroup it does not contain; a subgroup C_1 v ... v C_k is
    reached along the chain C_1, C_1 v C_2, .... Returns a list of (element
    frozenset, generating tuple) pairs ordered by size, then by sorted
    elements.
    """
    cyclic = {}
    for i in range(fm.order):
        sub = fm.subgroup_closure((i,))
        if sub not in cyclic:
            cyclic[sub] = (i,) if i != fm.identity else ()
    seen = dict(cyclic)
    work = list(cyclic)
    while work:
        s = work.pop()
        gens = seen[s]
        for c, gc in cyclic.items():
            if c <= s:
                continue
            joined = fm.subgroup_closure(gens + gc)
            if joined not in seen:
                seen[joined] = gens + gc
                work.append(joined)
    return sorted(seen.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))


def enumerate_maximal_subgroups(fm):
    """Maximal proper subgroups of the finite model, via the full lattice."""
    subs = [s for s, _ in all_subgroups(fm)]
    full = frozenset(range(fm.order))
    proper = [s for s in subs if s != full]
    maximal = [s for s in proper
               if not any(s < t for t in proper)]
    return sorted(maximal, key=lambda s: (len(s), sorted(s)))


def minimal_generating_set(fm, subgroup):
    """Greedy generating set for a subgroup, scanning elements in list order."""
    gens = []
    closed = frozenset({fm.identity})
    for i in sorted(subgroup):
        if i in closed:
            continue
        gens.append(i)
        closed = fm.subgroup_closure(tuple(gens))
        if closed == subgroup:
            break
    return tuple(gens)


def census_dict(fm, maximal):
    """JSON-ready census of maximal subgroups of the finite model."""
    records = []
    for sub in maximal:
        gens = minimal_generating_set(fm, sub)
        records.append({
            "order": len(sub),
            "index": fm.order // len(sub),
            "normal": fm.is_normal(sub),
            "generators": [[fm.elements[i][0], list(fm.elements[i][1])] for i in gens],
        })
    records.sort(key=lambda r: (r["index"], r["generators"]))
    return {"p": fm.p, "q": fm.q, "order": fm.order, "maximal": records}
