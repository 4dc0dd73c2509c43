"""Finite congruence quotients G / st_G(n) as permutation groups on the p^n leaves.

Leaves are indexed by the rank of their vertex word in lexicographic order over
{1, ..., p}^n. Quotient orders and `PermQuotient.contains` come from a
deterministic stabilizer chain (base points taken in natural leaf order,
Schreier generators processed in a fixed order), so repeated runs agree byte
for byte.

Internally a permutation of degree p^n <= 256 is a 256-byte `bytes` table
whose entries past p^n are the identity: composing is `bytes.translate`,
inverting is `bytes.maketrans`, comparing is a memcmp and the hash is cached.
Degrees above 256 (289 to 529 leaves at level 2 for p = 17 to 23, and 343 at
p = 7, level 3) keep tuples, composed with `operator.itemgetter`, because a
translate table has 256 entries. `_as_perm` converts to the internal format at
every entry point, and `_identity`, `_compose`, `_inverse` and `_perm_power`
work on either format; `LeafPermutation.images` stays a tuple.

The maximal-subgroup census runs on layered bases instead (`_LayeredBasis`):
induced polycyclic sequences of subgroups of the iterated wreath product
C_p wr ... wr C_p, in which orders and memberships are F_p elimination on
rotation labels, level by level. The layered order of <a, b> must equal the
chain's order, and Q' is a layered normal closure. Since the images of a and
b have order p, Q/Q' is elementary abelian of rank at most 2, so the Frattini
subgroup of Q is Q'. Once |Q : Q'| = p^2 is certified, the records come from
the Burnside basis theorem: the maximal subgroups are the p + 1 preimages of
the index-p subgroups of Q/Q', one for each nonzero linear functional on
F_p^2 (up to scalars) pulled back through the exponent sums, and each is
normal because it contains Q'. `tests/oracles.census_by_sifting` builds them
on stabilizer chains instead and is the test oracle for the records.
"""

import bisect
import collections
import operator

from .core import FAMILY_CONSTANT
from .errors import CrossCheckError, InputError, ResourceLimitError
from .fp import circulant_rank

# Largest leaf count a level quotient is built on. It admits level 2 for every
# p <= 23 (p = 23 in about 4 s on a 2-vCPU VM), level 3 for p <= 7 and level 5
# for p = 3; it refuses p = 5 at level 4 and p = 3 at level 6, whose 625 and
# 729 leaves the stabilizer chain does not finish in a minute.
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
        if p < 3 or n < 1:
            raise InputError("leaf permutations need p >= 3 and n >= 1")
        images = tuple(images)
        if len(images) != p ** n or sorted(images) != list(range(p ** n)):
            raise InputError(f"not a permutation of {p ** n} leaves")
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


def leaf_vertices(p, n):
    """All level-n vertices in lexicographic order (the leaf indexing order)."""
    if n == 0:
        return [()]
    shorter = leaf_vertices(p, n - 1)
    return [v + (x,) for v in shorter for x in range(1, p + 1)]


def leaf_index(vertex, p):
    idx = 0
    for x in vertex:
        idx = idx * p + (x - 1)
    return idx


def project(g, n):
    """The permutation a group element induces on the p^n leaves."""
    if n < 1:
        raise InputError("level must be >= 1")
    p = g.group.p
    images = [0] * p ** n
    for v in leaf_vertices(p, n):
        images[leaf_index(v, p)] = leaf_index(g.act(v), p)
    return LeafPermutation(p, n, images)


class _StabilizerChain:
    """Deterministic incremental Schreier-Sims on points 0..degree-1.

    Base points are chosen as the smallest point moved at each level, which for
    generators fed in a fixed order makes the whole chain (and hence the order
    and every sift) reproducible. Each (orbit point, generator) pair is
    processed exactly once; only non-tree Schreier generators are sifted.

    A level's orbit is closed under the generators of that level and every
    deeper one: a generator stored deeper fixes this level's base by
    construction but can still move other points of the orbit, so leaving it
    out undercounts the orbit.

    Next to each transversal the chain keeps the inverse of every
    representative, computed once when the entry is created, so sifting and
    the Schreier step compose with it instead of inverting again. `inverses[i]`
    always has the same keys as `transversals[i]`.

    Every stored permutation is in the internal format of `_as_perm`: a
    256-byte translate table for degree <= 256, so the (point, generator) keys
    of `done` hash in constant time, and a tuple above 256. `add_generator`,
    `sift` and `contains` accept any sequence of images.
    """

    def __init__(self, degree):
        self.degree = degree
        self.identity = _identity(degree)
        self.bases = []
        self.gens = []          # per level: list of perms fixing all earlier bases
        self.orbits = []        # per level: orbit points in discovery order
        self.transversals = []  # per level: point -> perm mapping base to point
        self.inverses = []      # per level: point -> inverse of that perm
        self.done = []          # per level: processed (point, gen) pairs

    def order(self):
        result = 1
        for t in self.transversals:
            result *= len(t)
        return result

    def sift(self, perm):
        """Factor out transversal parts; returns the residue permutation."""
        res = _as_perm(perm, self.degree)
        for base, inverses in zip(self.bases, self.inverses):
            t = res[base]
            inv = inverses.get(t)
            if inv is None:
                return res
            if t != base:
                res = _compose(res, inv)
        return res

    def contains(self, perm):
        return self.sift(perm) == self.identity

    def add_generator(self, perm):
        self._ingest(_as_perm(perm, self.degree), 0)
        # a residue placed deep in the chain may move non-base points of
        # shallower orbits, so sweep every level to a global fixpoint
        while any(self._close_level(i) for i in range(len(self.bases))):
            pass

    def _ingest(self, g, level):
        # g fixes the bases of all levels below `level`
        res = g
        i = level
        while i < len(self.bases):
            inv = self.inverses[i].get(res[self.bases[i]])
            if inv is None:
                break
            res = _compose(res, inv)
            i += 1
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
        if res not in self.gens[i]:
            self.gens[i].append(res)
        self._close_level(i)

    def _level_generators(self, i):
        return [s for level_gens in self.gens[i:] for s in level_gens]

    def _close_level(self, i):
        """Process pending (orbit point, generator) pairs of level i once;
        returns whether anything new was processed."""
        orbit = self.orbits[i]
        trans = self.transversals[i]
        inverses = self.inverses[i]
        done = self.done[i]
        progressed = False
        while True:
            gens = self._level_generators(i)
            advanced = False
            j = 0
            while j < len(orbit):
                beta = orbit[j]
                for s in gens:
                    if (beta, s) in done:
                        continue
                    done.add((beta, s))
                    advanced = True
                    progressed = True
                    gamma = s[beta]
                    image = _compose(trans[beta], s)
                    if gamma not in trans:
                        trans[gamma] = image
                        inverses[gamma] = _inverse(image)
                        orbit.append(gamma)
                    else:
                        schreier = _compose(image, inverses[gamma])
                        if schreier != self.identity:
                            self._ingest(schreier, i + 1)
                j += 1
            if not advanced:
                return progressed


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
    if n < 1:
        raise InputError("level must be >= 1")
    p = group.p
    # multiply up to the guard: p^n itself may be far too large to compute
    leaves = 1
    for _ in range(n):
        leaves *= p
        if leaves > LEAF_GUARD:
            raise ResourceLimitError(
                f"level {n} at p = {p} has more than {LEAF_GUARD} leaves, the guard")
    gen_a = project(group.a, n)
    gen_b = project(group.b, n)
    chain = _StabilizerChain(p ** n)
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
    + 1)/(p - 1)). This is an empirical fit: it equals the layered order of
    <a, b> for e = (c, ..., c), c = 1 and 2, at p = 3 for n = 2..6, p = 5 for
    n = 2..4, p = 7 for n = 2..3 and p = 11 and 13 for n = 2, and gives the
    3^23 of p = 3, n = 4 that the stabilizer chain computes."""
    p, e = group.p, tuple(group.e)
    if group.family == FAMILY_CONSTANT:
        return p ** (p + 1 + sum(((p - 2) * p ** (k - 1) + 1) // (p - 1)
                                 for k in range(3, n + 1)))
    t = circulant_rank(list(e) + [0], p)
    delta = 1 if e == e[::-1] else 0
    return p ** (t * p ** (n - 2) + 1 - delta * (p ** (n - 2) - 1) // (p - 1))


def _check_rotations(perm, p, n):
    """Raise CrossCheckError unless perm lies in the iterated wreath product:
    it respects the tree and every vertex maps its children by a power of the
    p-cycle. The layered basis reads rotation labels, which mean nothing
    outside that group."""
    above = [0]
    for k in range(1, n + 1):
        step = p ** (n - k)
        # the level-k vertex under which the first leaf of each level-k vertex lands
        here = [perm[u * step] // step for u in range(p ** k)]
        for u, w in enumerate(here):
            first = u - u % p
            if w // p != above[u // p] or (w - u) % p != (here[first] - first) % p:
                raise CrossCheckError(
                    f"leaf permutation does not turn the children of level-{k - 1} "
                    "vertices by powers of the p-cycle")
        above = here


class _LayeredBasis:
    """Induced polycyclic sequence of a subgroup of the iterated wreath product
    C_p wr ... wr C_p acting on the p^n leaves.

    The rotation labels of a permutation at level k are digit k of the image of
    the first leaf under each level-k vertex. On the level-k stabilizer they
    add under composition, and they all vanish exactly on the level-(k+1)
    stabilizer. The basis keeps at most one element per (level, pivot
    column): an element of the level stabilizer whose labels there vanish
    before the pivot column and read 1 at it. `layers[k]` holds
    (column, labels, powers b^0..b^(p-1)) sorted by column; `elements` holds
    the basis in the order it was found.

    `closure` keeps the basis closed: every p-th power and every commutator of
    two basis elements sifts to the identity through the deeper levels. Then
    the basis elements of level k and below generate a subgroup T_k, each T_k
    is normal in T_(k-1) with elementary abelian quotient of rank
    len(layers[k - 1]), so the subgroup has order p^len(elements) and
    `contains` is exact. `contains` is sound for any permutation: a residue
    equal to the identity writes the input as a product of basis elements.
    """

    def __init__(self, p, n):
        self.p = p
        self.n = n
        self.degree = p ** n
        self.identity = _identity(self.degree)
        # digit k of a leaf index, looked up by translate on table-format perms
        self._digits = [bytes(x // p ** (n - k - 1) % p for x in range(_TABLE))
                        for k in range(n)] if self.degree <= _TABLE else None
        self.layers = [[] for _ in range(n)]
        self.elements = []
        self._inverses = []

    def order(self):
        return self.p ** len(self.elements)

    def labels(self, perm, k):
        step = self.p ** (self.n - k - 1)
        if self._digits is not None:
            return perm[:self.degree:step * self.p].translate(self._digits[k])
        return [perm[i] // step % self.p for i in range(0, self.degree, step * self.p)]

    def _reduce(self, perm):
        """(residue, level, labels): perm times powers of basis elements with
        the pivot columns cleared level by level, down to the first level where
        labels remain; (residue, n, None) when none remain."""
        p = self.p
        for k, layer in enumerate(self.layers):
            labels = self.labels(perm, k)
            if not any(labels):
                continue
            for column, vec, powers in layer:
                coef = labels[column]
                if coef:
                    # vec vanishes before its column, so cleared columns stay clear
                    labels = [(x - coef * y) % p for x, y in zip(labels, vec)]
                    perm = _compose(perm, powers[p - coef])
            if any(labels):
                return perm, k, labels
        return perm, self.n, None

    def sift(self, perm):
        return self._reduce(_as_perm(perm, self.degree))[0]

    def contains(self, perm):
        return self.sift(perm) == self.identity

    def closure(self, seeds, conjugators=()):
        """Grow the basis to the smallest subgroup that contains it and the
        seeds and is normalized by the conjugators. Deterministic: queued
        elements are sifted first in, first out; a new basis element queues
        its p-th power, its commutators with every earlier basis element and
        its conjugates, in that order."""
        p = self.p
        seeds = [_as_perm(g, self.degree) for g in seeds]
        conjugators = [_as_perm(c, self.degree) for c in conjugators]
        for g in seeds + conjugators:
            _check_rotations(g, p, self.n)
        pairs = [(_inverse(c), c) for c in conjugators]
        queue = collections.deque(seeds)
        while queue:
            residue, k, labels = self._reduce(queue.popleft())
            if labels is None:
                continue
            column = next(i for i, x in enumerate(labels) if x)
            scale = pow(labels[column], -1, p)
            b = _perm_power(residue, scale)
            powers = [self.identity, b]
            while len(powers) < p:
                powers.append(_compose(powers[-1], b))
            # columns are unique within a level, so the tuples order by column
            bisect.insort(self.layers[k], (column, [x * scale % p for x in labels], powers))
            b_inv = _inverse(b)
            queue.append(_compose(powers[-1], b))
            for x, x_inv in zip(self.elements, self._inverses):
                queue.append(_compose(_compose(b_inv, x_inv), _compose(b, x)))
            for c_inv, c in pairs:
                queue.append(_compose(_compose(c_inv, b), c))
            self.elements.append(b)
            self._inverses.append(b_inv)


def maximal_subgroups_census(group, n):
    """Census of the maximal subgroups of G / st_G(n) for n >= 2.

    Returns a dict (JSON-ready): p, e, n, order, |Q : Q'| and one record per
    maximal subgroup with its defining functional (s, t) on the exponent-sum
    plane (the subgroup is the pullback of ker(s*alpha + t*beta)), its index
    and whether it is normal.

    The order comes from the stabilizer chain of `level_quotient` and must
    equal the layered order of <a, b>. The records are read off the Burnside
    basis theorem (see the module docstring), so the check |Q : Q'| = p^2 on
    the layered normal closure Q' is all that guards them.
    """
    if n < 2:
        raise InputError("the census needs level n >= 2")
    q = level_quotient(group, n)
    p = group.p
    a_img = _as_perm(q.gen_a.images, p ** n)
    b_img = _as_perm(q.gen_b.images, p ** n)
    identity = _identity(p ** n)
    if _perm_power(a_img, p) != identity or _perm_power(b_img, p) != identity:
        raise CrossCheckError("generator images are not of order dividing p")

    whole = _LayeredBasis(p, n)
    whole.closure([a_img, b_img])
    if whole.order() != q.order:
        raise CrossCheckError(
            f"layered order {whole.order()} != stabilizer chain order {q.order}")

    # Q' as the normal closure of [a, b]; with both generators of order p this
    # is the whole Frattini subgroup of Q.
    comm = _compose(_compose(_inverse(a_img), _inverse(b_img)), _compose(a_img, b_img))
    derived = _LayeredBasis(p, n)
    derived.closure([comm], [a_img, b_img])
    frattini_index = q.order // derived.order()
    if frattini_index != p * p:
        raise CrossCheckError(
            f"|Q : Q'| = {frattini_index} != p^2; the functional census does not apply")

    # Q/Q' = F_p^2: the maximal subgroups are the kernels of the p + 1 nonzero
    # functionals up to scalars, each of index p and normal since it contains Q'
    records = [{"functional": [s, t], "index": p, "normal": True}
               for s, t in [(1, t) for t in range(p)] + [(0, 1)]]
    return {
        "p": p,
        "e": list(group.e),
        "n": n,
        "order": q.order,
        "frattini_index": frattini_index,
        "count": len(records),
        "maximal": records,
    }
