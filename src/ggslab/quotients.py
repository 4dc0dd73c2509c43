"""Finite congruence quotients G / st_G(n) as permutation groups on the p^n leaves.

Leaves are indexed by the rank of their vertex word in lexicographic order over
{1, ..., p}^n. `project` builds a leaf permutation by recursion on first-level
sections, not by walking each leaf from the root: the leaves under the first
letter d + 1 form the block d p^(n-1) + (0..p^(n-1) - 1), which an element w
maps onto the block of letter (d + r mod p) + 1, r its root power, permuted as
its section at letter d + 1 permutes level n - 1. A dict local to the call
holds the images of each (word, level) pair, so each distinct section is
expanded once per level. `tests/oracles.leaf_action` walks every leaf and is
its test oracle.

Quotient orders and `PermQuotient.contains` come from a deterministic
stabilizer chain (base points taken in natural leaf order, Schreier
generators processed in a fixed order, and a repeated one skipped unstripped,
which leaves the chain as it was), so repeated runs agree byte for byte.
Each level's orbit is crossed only with the generators received at or above
that level and stored at or below it, which generate the same group as all
those stored at or below it (the proof is in `_StabilizerChain`).

Internally a permutation of degree p^n <= 256 is a 256-byte `bytes` table
whose entries past p^n are the identity: composing is `bytes.translate`,
inverting is `bytes.maketrans`, comparing is a memcmp and the hash is cached.
Degrees above 256 (289 to 529 leaves at level 2 for p = 17 to 23, and 343 at
p = 7, level 3) keep tuples, composed with `operator.itemgetter`, because a
translate table has 256 entries. `_as_perm` converts to the internal format at
every entry point, and `_identity`, `_compose`, `_inverse` and `_perm_power`
work on either format; `LeafPermutation.images` stays a tuple.

The maximal-subgroup census builds no subgroup beyond the level quotient.
Q' is the normal closure of [a, b]. Since the images of a and b have order
p, Q/Q' is elementary abelian of rank at most 2, so the Frattini subgroup of
Q is Q'. |Q : Q'| = p^2 holds at every level n >= 2 for every defining vector
(the proof is in `maximal_subgroups_census`), so the records come from the
Burnside basis theorem: the maximal subgroups are the p + 1 preimages of the
index-p subgroups of Q/Q', one for each nonzero linear functional on F_p^2
(up to scalars) pulled back through the exponent sums, and each is normal
because it contains Q'. The census checks the chain's order against
`closed_form_order`. `tests/oracles.census_by_sifting` builds the maximal
subgroups on stabilizer chains instead and is the test oracle for the
records; the layered basis in `tests/oracles.py` closes Q' and is the oracle
for the index.
"""

import operator

from .core import FAMILY_CONSTANT, Element
from .errors import CrossCheckError, InputError, ResourceLimitError
from .fp import circulant_rank

# Largest leaf count a level quotient is built on. It admits level 2 for every
# p <= 23 (the p = 23 chain in about 0.18 s on a 2-vCPU VM), level 3 for p <= 7
# (0.12 s at 343 leaves) and level 5 for p = 3 (0.02 s); it refuses p = 5 at
# level 4 and p = 3 at level 6, whose 625 and 729 leaves take the stabilizer
# chain 2.3 s and 2.8 s. `project` is refused past it too.
LEAF_GUARD = 529  # 23^2 leaves

_TABLE = 256  # largest degree stored as a bytes translate table
_IDENTITY_TABLE = bytes(range(_TABLE))


def _identity(degree):
    return _IDENTITY_TABLE if degree <= _TABLE else tuple(range(degree))


def _as_perm(images, degree):
    """A permutation of 0..degree-1 in the internal format for that degree:
    a 256-byte table fixed past the degree when degree <= 256, else a tuple.
    Tables already in that format pass through."""
    if degree <= _TABLE and type(images) is bytes and len(images) == _TABLE:
        return images
    if len(images) != degree:
        raise InputError(f"expected a permutation of {degree} points, got {len(images)}")
    if degree > _TABLE:
        return tuple(images)
    return bytes(images) + _IDENTITY_TABLE[degree:]


def _compose(g, h):
    """Apply g, then h (right-action order)."""
    if type(g) is bytes:
        return g.translate(h)
    # itemgetter returns a bare item, not a tuple, when given a single index;
    # every permutation here has degree p^n >= 3, so the result is a tuple
    return operator.itemgetter(*g)(h)


def _inverse(g):
    if type(g) is bytes:
        return bytes.maketrans(g, _IDENTITY_TABLE)
    inv = [0] * len(g)
    for i, x in enumerate(g):
        inv[x] = i
    return tuple(inv)


def _perm_power(perm, k):
    if k < 0:
        perm, k = _inverse(perm), -k
    out = _IDENTITY_TABLE if type(perm) is bytes else tuple(range(len(perm)))
    base = perm
    while k:
        if k & 1:
            out = _compose(out, base)
        k >>= 1
        if k:
            base = _compose(base, base)
    return out


class LeafPermutation:
    """A permutation of the p^n leaves of the level-n tree truncation."""

    __slots__ = ("p", "n", "images")

    def __init__(self, p, n, images):
        images = tuple(images)
        # a bool is not an int here, as in `_check_level`
        if any(not isinstance(x, int) or isinstance(x, bool) for x in (p, n, *images)):
            raise InputError("leaf permutations take integer p, n and images")
        if p < 3 or n < 1:
            raise InputError("leaf permutations need p >= 3 and n >= 1")
        # p^n > len(images) once n passes its bit length; p^n is not computed then
        if (n > len(images).bit_length() or len(images) != p ** n
                or sorted(images) != list(range(p ** n))):
            raise InputError(f"not a permutation of {p}^{n} leaves")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, val):
        raise AttributeError("LeafPermutation is immutable")

    def __eq__(self, other):
        if not isinstance(other, LeafPermutation):
            return NotImplemented
        return (self.p, self.n, self.images) == (other.p, other.n, other.images)

    def __hash__(self):
        return hash((self.p, self.n, self.images))

    def __repr__(self):
        return f"LeafPermutation(p={self.p}, n={self.n}, {list(self.images)})"


def _check_level(n, least):
    if not isinstance(n, int) or isinstance(n, bool) or n < least:
        raise InputError(f"level must be an integer >= {least}, got {n!r}")


def _leaf_count(p, n):
    """p^n for a level n >= 1, or ResourceLimitError past LEAF_GUARD leaves."""
    _check_level(n, 1)
    # multiply up to the guard: p^n itself may be far too large to compute
    leaves = 1
    for _ in range(n):
        leaves *= p
        if leaves > LEAF_GUARD:
            raise ResourceLimitError(
                f"level {n} at p = {p} has more than {LEAF_GUARD} leaves, the guard")
    return leaves


def project(g, n):
    """The permutation a group element induces on the p^n leaves.

    By recursion on first-level sections: leaf d p^(k-1) + j, for a first
    letter d + 1, goes to ((d + r) mod p) p^(k-1) + j', where r is the root
    power of the word w (g's word, then its sections) and j' the image of j
    under the section of w at that letter on level k - 1; level 1 is the
    rotation by r. A dict local to the call holds
    the images of each (word, level) pair, so each distinct section is
    expanded once per level. The leaf guard is checked before any of it."""
    if not isinstance(g, Element):
        raise InputError(f"expected an Element, got {g!r}")
    group = g.group
    p = group.p
    _leaf_count(p, n)
    section = group.section_word
    memo = {}

    def images(w, k):
        key = (w, k)
        out = memo.get(key)
        if out is None:
            r = w._ab[0]
            if k == 1:
                out = [(d + r) % p for d in range(p)]
            else:
                block = p ** (k - 1)
                out = []
                for d in range(p):
                    shift = (d + r) % p * block
                    out += [shift + j for j in images(section(w, (d + 1) % p), k - 1)]
            memo[key] = out
        return out

    return LeafPermutation(p, n, images(g.word, n))


class _StabilizerChain:
    """Deterministic incremental Schreier-Sims on points 0..degree-1.

    Base points are chosen as the smallest point moved at each level, which for
    generators fed in a fixed order makes the whole chain (and hence the order
    and every sift) reproducible. Each (orbit point, generator) pair is
    processed exactly once; only non-tree Schreier generators are sifted.
    `done[i]` records a processed pair by ints, (point, level, position in
    gens[level]), stable because `gens` lists only grow; a permutation in the
    key would be hashed in full on every add, as tuples cache no hash.
    `sift` and the Schreier step share `_strip`, which composes with a
    representative's inverse only where the base point moves.

    Level j crosses its orbit with its usable generators `_usable[j]`: those
    that `_ingest` received at a level <= j and stored at a level >= j, as
    (level, position, permutation) in the order they were stored. An input of
    `add_generator` is received at level 0, a Schreier generator of level i
    at level i + 1. Schreier's lemma needs only a generating set of H_j, the
    group of every generator stored at level j or deeper, and the usable ones
    generate it, by induction on creation order. A generator g received at
    L > j is a Schreier generator of level L - 1, a word in the usable
    generators of that level, stripped by transversal elements of levels
    >= L, words in the usable generators there. So g lies in H_(L-1), which
    lies in H_j, which the usable generators of level j already generate.
    Hence a level's orbit is the full H_j-orbit of its base. A generator
    stored deeper still counts at every level from the one it was received
    at: when e_1 = 0, b fixes leaf 0 and is stored below level 0, and level 0
    crosses it. For a level quotient, level 0 crosses the p^n leaves with a
    and b alone; the textbook rule, every generator stored at level j or
    deeper (`tests/oracles.TextbookChain`), crossed them with every generator
    of the chain, which did 16,141 pairs on the benchmark census to this
    chain's 6,100.

    Orbits and usable lists only grow. Closing level i ingests Schreier
    generators received at level i + 1, so `_usable[i]` stays put while
    level i closes and no level's closure re-enters itself. `_crossed[i]`
    counts the usable generators of level i crossed so far, so one pass
    crosses the old orbit points with those added since and the new orbit
    points with all of them, in (orbit position, level, position) order.
    When `_close_level(i)` returns, `done[i]` is the full rectangle of orbit
    points times usable generators, and no pair is looked at again.

    Next to each transversal the chain keeps the inverse of every
    representative, computed once when the entry is created, so sifting and
    the Schreier step compose with it instead of inverting again. `inverses[i]`
    always has the same keys as `transversals[i]`.

    Within one `add_generator` call, `_ingest` strips each distinct
    (level, permutation) pair once: a Schreier generator handed in again at
    the same level returns at once. That changes no chain state. The first
    copy of g stripped from level L to a residue r that either was the
    identity or was stored at the level i where stripping stopped, and
    closing that level set trans[r(base_i)] = r before the transversal took
    any other entry: every usable generator crossed ahead of r there was
    stored deeper and fixes base_i. Transversal entries are never replaced,
    so a repeat of g strips through the same entries to r, then to the
    identity, and was a no-op.
    The seen sets are keyed by the images of 0..degree-1 alone (a 256-byte
    table would double the peak memory of a degree-125 chain) and are
    dropped when `add_generator` returns.

    Every stored permutation is in the internal format of `_as_perm`: a
    256-byte translate table for degree <= 256 and a tuple above 256.
    `sift` and `contains` accept any sequence of images; `add_generator`
    refuses one that is not a permutation of 0..degree-1.
    """

    def __init__(self, degree):
        self.degree = degree
        self.identity = _identity(degree)
        self.bases = []
        self.gens = []          # per level: list of perms fixing all earlier bases
        self.orbits = []        # per level: orbit points in discovery order
        self.transversals = []  # per level: point -> perm mapping base to point
        self.inverses = []      # per level: point -> inverse of that perm
        self.done = []          # per level: (point, level, position) processed
        self._usable = []       # per level: (level, position, perm) it crosses its orbit with
        self._crossed = []      # per level: how many of _usable[level] the orbit has crossed
        self._compose = bytes.translate if degree <= _TABLE else _compose
        self._seen = None       # per level: perms ingested in this add_generator call

    def order(self):
        result = 1
        for t in self.transversals:
            result *= len(t)
        return result

    def _strip(self, perm, level):
        """Factor out transversal parts from `level` on where the base point
        moves; returns (residue, level where stripping stopped)."""
        bases = self.bases
        while level < len(bases):
            t = perm[bases[level]]
            if t != bases[level]:
                inv = self.inverses[level].get(t)
                if inv is None:
                    break
                perm = self._compose(perm, inv)
            level += 1
        return perm, level

    def sift(self, perm):
        """Factor out transversal parts; returns the residue permutation."""
        return self._strip(_as_perm(perm, self.degree), 0)[0]

    def contains(self, perm):
        return self.sift(perm) == self.identity

    def add_generator(self, perm):
        """Add a permutation of 0..degree-1: a sequence of its images, or a
        table that also fixes every point past the degree. Anything else is
        an InputError, raised before the chain changes: an input seeds level
        0 and every level it is stored at or above."""
        degree = self.degree
        table = degree <= _TABLE and type(perm) is bytes and len(perm) == _TABLE
        images = perm[:degree] if table else tuple(perm)
        if ((table and perm[degree:] != _IDENTITY_TABLE[degree:])
                or any(type(x) is not int for x in images)
                or sorted(images) != list(range(degree))):
            raise InputError(f"not a permutation of {degree} points")
        self._seen = {}
        try:
            self._ingest(_as_perm(perm, degree), 0)
            # a residue placed deep in the chain may move non-base points of
            # shallower orbits, so sweep every level to a global fixpoint
            while any(self._close_level(i) for i in range(len(self.bases))):
                pass
        finally:
            self._seen = None

    def _ingest(self, g, level):
        # g is received at `level`: it fixes the bases of all levels below it
        seen = self._seen.get(level)
        if seen is None:
            seen = self._seen[level] = set()
        key = g[:self.degree] if type(g) is bytes else g
        if key in seen:
            return
        seen.add(key)
        res, i = self._strip(g, level)
        if res == self.identity:
            return
        if i == len(self.bases):
            base = next(x for x in range(self.degree) if res[x] != x)
            self.bases.append(base)
            self.gens.append([])
            self.orbits.append([base])
            self.transversals.append({base: self.identity})
            self.inverses.append({base: self.identity})
            self.done.append(set())
            self._usable.append([])
            self._crossed.append(0)
        if res not in self.gens[i]:
            self.gens[i].append(res)
            entry = (i, len(self.gens[i]) - 1, res)
            for j in range(level, i + 1):
                self._usable[j].append(entry)
        self._close_level(i)

    def _close_level(self, i):
        """Cross the orbit of level i with its usable generators until it is
        closed, each (orbit point, generator) pair once, in one pass; returns
        whether any pair was new."""
        usable = self._usable[i]
        crossed = self._crossed[i]
        if crossed == len(usable):
            return False
        orbit = self.orbits[i]
        trans = self.transversals[i]
        inverses = self.inverses[i]
        done = self.done[i]
        compose = self._compose
        identity = self.identity
        # the Schreier generators go to deeper levels, so `usable` stays put
        fresh = usable[crossed:]
        old = len(orbit)
        j = 0
        while j < len(orbit):
            beta = orbit[j]
            t = trans[beta]
            for k, pos, s in (fresh if j < old else usable):
                done.add((beta, k, pos))
                gamma = s[beta]
                image = compose(t, s)
                if gamma not in trans:
                    trans[gamma] = image
                    inverses[gamma] = _inverse(image)
                    orbit.append(gamma)
                else:
                    schreier = compose(image, inverses[gamma])
                    if schreier != identity:
                        self._ingest(schreier, i + 1)
            j += 1
        self._crossed[i] = len(usable)
        return True


class PermQuotient:
    """The level-n congruence quotient: generator images plus a stabilizer chain."""

    def __init__(self, group, n, gen_a, gen_b, chain):
        self.group = group
        self.p = group.p
        self.n = n
        self.gen_a = gen_a
        self.gen_b = gen_b
        self._chain = chain
        self.order = chain.order()

    def contains(self, perm):
        if not isinstance(perm, LeafPermutation):
            raise InputError("expected a LeafPermutation")
        if (perm.p, perm.n) != (self.p, self.n):
            raise InputError(f"permutation is on level {perm.n}, quotient on level {self.n}")
        return self._chain.contains(perm.images)

    def __repr__(self):
        return f"PermQuotient({self.group.spec_string()}, n={self.n}, order={self.order})"


def level_quotient(group, n):
    """Build G / st_G(n) as a permutation group on the p^n leaves."""
    leaves = _leaf_count(group.p, n)
    gen_a = project(group.a, n)
    gen_b = project(group.b, n)
    chain = _StabilizerChain(leaves)
    chain.add_generator(gen_a.images)
    chain.add_generator(gen_b.images)
    return PermQuotient(group, n, gen_a, gen_b, chain)


def closed_form_order(group, n):
    """|G : St_G(n)| for n >= 2.

    For a non-constant defining vector e, by the theorem of Fernandez-Alcober
    and Zugadi-Reizabal (Trans. AMS 366, 2014): p^(t p^(n-2) + 1 - delta
    (p^(n-2) - 1)/(p - 1)), where t is the rank over F_p of the circulant with
    first row (e, 0) and delta is 1 exactly when e is symmetric.

    For a constant vector, p^(p + 1 + sum over k = 3..n of ((p - 2) p^(k-1)
    + 1)/(p - 1)), which at n = 2 is the theorem's p^(t + 1) with t = p. Past
    level 2 it is an empirical fit: it equals the layered order of <a, b> for
    e = (c, ..., c), c = 1 and 2, at p = 3 for n = 2..6, p = 5 for n = 2..4,
    p = 7 for n = 2..3 and p = 11 and 13 for n = 2, which holds every level
    past 2 that the leaf guard admits. `maximal_subgroups_census` checks every
    order it reports against this one."""
    _check_level(n, 2)
    p, e = group.p, tuple(group.e)
    if group.family == FAMILY_CONSTANT:
        return p ** (p + 1 + sum(((p - 2) * p ** (k - 1) + 1) // (p - 1)
                                 for k in range(3, n + 1)))
    t = circulant_rank(list(e) + [0], p)
    delta = 1 if e == e[::-1] else 0
    return p ** (t * p ** (n - 2) + 1 - delta * (p ** (n - 2) - 1) // (p - 1))


def maximal_subgroups_census(group, n):
    """Census of the maximal subgroups of G / st_G(n) for n >= 2.

    Returns a dict (JSON-ready): p, e, n, order, |Q : Q'| and one record per
    maximal subgroup with its defining functional (s, t) on the exponent-sum
    plane (the subgroup is the pullback of ker(s*alpha + t*beta)), its index
    and whether it is normal.

    The order comes from the stabilizer chain of `level_quotient` and must
    equal `closed_form_order(group, n)`. The records are read off the Burnside
    basis theorem (see the module docstring), which needs |Q : Q'| = p^2. That
    index holds for every defining vector, so the census computes no Q'.

    At level 2, Q_2 = G / St_G(2) lies in C_p wr C_p: a maps to the root
    rotation sigma and b to the base-group vector v = (e_1, ..., e_(p-1), 0).
    So Q_2 = V x| <sigma>, where V is the F_p<sigma>-module generated by v.
    The group ring is R = F_p[x]/(x^p - 1) = F_p[x]/(x - 1)^p, and every ideal
    of R has the form (x - 1)^k R, so V = (x - 1)^k R, of dimension
    t = p - k >= 1 since e != 0. V is spanned by the rotations of v, so t is
    the circulant rank of `closed_form_order` and |Q_2| = p^(t + 1). V is
    abelian and sigma acts on it as x, so Q_2' = [V, sigma] = (x - 1) V, of
    dimension t - 1. Hence |Q_2 : Q_2'| = p^2.

    At any level n >= 2: Q_n/Q_n' is generated by the images of a and b, both
    of order dividing p, so |Q_n : Q_n'| <= p^2; and Q_n maps onto Q_2 with
    Q_n' onto Q_2', so |Q_n : Q_n'| >= |Q_2 : Q_2'| = p^2. The tests close
    Q_2' on a layered basis (`tests/oracles.py`) for every vector at p = 3 and
    5 and for sampled vectors at p = 7, and find order p^(t - 1) each time.
    """
    _check_level(n, 2)
    q = level_quotient(group, n)
    p = group.p
    a_img = _as_perm(q.gen_a.images, p ** n)
    b_img = _as_perm(q.gen_b.images, p ** n)
    identity = _identity(p ** n)
    if _perm_power(a_img, p) != identity or _perm_power(b_img, p) != identity:
        raise CrossCheckError("generator images are not of order dividing p")

    want = closed_form_order(group, n)
    if q.order != want:
        # for constant vectors the closed form is an empirical fit past level 2
        kind = "empirical closed form" if group.family == FAMILY_CONSTANT else "closed form"
        raise CrossCheckError(f"quotient order {q.order} != {kind} {want}")

    # Q/Q' = F_p^2: the maximal subgroups are the kernels of the p + 1 nonzero
    # functionals up to scalars, each of index p and normal since it contains Q'
    records = [{"functional": [s, t], "index": p, "normal": True}
               for s, t in [(1, t) for t in range(p)] + [(0, 1)]]
    return {
        "p": p,
        "e": list(group.e),
        "n": n,
        "order": q.order,
        "frattini_index": p * p,
        "count": len(records),
        "maximal": records,
    }
