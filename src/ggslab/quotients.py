"""Finite congruence quotients G / st_G(n) as permutation groups on the p^n leaves.

Leaves are indexed by the rank of their vertex word in lexicographic order over
{1, ..., p}^n. Orders and membership come from a deterministic stabilizer
chain (base points taken in natural leaf order, Schreier generators processed
in a fixed order), so repeated runs agree byte for byte.

The maximal-subgroup census works entirely inside the quotient Q: since the
images of a and b have order p, Q modulo its derived subgroup is elementary
abelian of rank at most 2, so the Frattini subgroup of Q equals the derived
subgroup. Once the chain certifies |Q : Q'| = p^2, the maximal subgroups are
exactly the p + 1 preimages of the index-p subgroups of Q/Q', one for each
nonzero linear functional on F_p^2 (up to scalars) pulled back through the
element's exponent sums. Every one of them contains Q', so its chain is the
chain of Q' (built once, as a normal closure) extended by one spanning element.
"""

import operator

from .errors import CrossCheckError, InputError, ResourceLimitError

DEFAULT_LEAF_GUARD = 729  # 3^6 leaves


def _compose(g, h):
    """Apply g, then h (right-action order)."""
    # itemgetter returns a bare item, not a tuple, when given a single index;
    # every permutation here has degree p^n >= 3, so the result is a tuple
    return operator.itemgetter(*g)(h)


def _inverse(g):
    inv = [0] * len(g)
    for i, x in enumerate(g):
        inv[x] = i
    return tuple(inv)


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

    @classmethod
    def identity(cls, p, n):
        return cls(p, n, range(p ** n))

    def _check(self, other):
        if not isinstance(other, LeafPermutation):
            raise InputError("expected a LeafPermutation")
        if (self.p, self.n) != (other.p, other.n):
            raise InputError("leaf permutations live on different levels")

    def __mul__(self, other):
        """self then other, matching the right action of element products."""
        self._check(other)
        return LeafPermutation(self.p, self.n, _compose(self.images, other.images))

    def inverse(self):
        return LeafPermutation(self.p, self.n, _inverse(self.images))

    __invert__ = inverse

    def __pow__(self, k):
        images = self.images if k >= 0 else _inverse(self.images)
        return LeafPermutation(self.p, self.n, _perm_power(images, abs(k)))

    @property
    def is_identity(self):
        return all(i == x for i, x in enumerate(self.images))

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

    `copy()` gives an independent chain for the same group: every per-level
    list, dict and set is copied, so extending the copy leaves the original
    untouched, while the permutation tuples themselves are immutable and
    shared.
    """

    def __init__(self, degree):
        self.degree = degree
        self.identity = tuple(range(degree))
        self.bases = []
        self.gens = []          # per level: list of perms fixing all earlier bases
        self.orbits = []        # per level: orbit points in discovery order
        self.transversals = []  # per level: point -> perm mapping base to point
        self.inverses = []      # per level: point -> inverse of that perm
        self.done = []          # per level: processed (point, gen) pairs

    def copy(self):
        other = _StabilizerChain(self.degree)
        other.bases = list(self.bases)
        other.gens = [list(level) for level in self.gens]
        other.orbits = [list(level) for level in self.orbits]
        other.transversals = [dict(level) for level in self.transversals]
        other.inverses = [dict(level) for level in self.inverses]
        other.done = [set(level) for level in self.done]
        return other

    def order(self):
        result = 1
        for t in self.transversals:
            result *= len(t)
        return result

    def sift(self, perm):
        """Factor out transversal parts; returns the residue permutation."""
        res = perm
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
        if len(perm) != self.degree:
            raise InputError("generator degree mismatch")
        self._ingest(tuple(perm), 0)
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


def level_quotient(group, n, leaf_guard=DEFAULT_LEAF_GUARD):
    """Build G / st_G(n) as a permutation group on the p^n leaves."""
    if n < 1:
        raise InputError("level must be >= 1")
    p = group.p
    if p ** n > leaf_guard:
        raise ResourceLimitError(f"p^n = {p ** n} leaves exceeds the guard {leaf_guard}")
    gen_a = project(group.a, n)
    gen_b = project(group.b, n)
    chain = _StabilizerChain(p ** n)
    chain.add_generator(gen_a.images)
    chain.add_generator(gen_b.images)
    return PermQuotient(group, n, gen_a, gen_b, chain)


def _normal_closure(seeds, conjugators, degree):
    """Chain for the smallest subgroup containing seeds and closed under
    conjugation by the given conjugators. Deterministic: seeds in order, new
    conjugates appended FIFO."""
    chain = _StabilizerChain(degree)
    pairs = [(_inverse(c), c) for c in conjugators]
    kept = []
    queue = list(seeds)
    while queue:
        h = queue.pop(0)
        if chain.contains(h):
            continue
        chain.add_generator(h)
        kept.append(h)
        for c_inv, c in pairs:
            queue.append(_compose(_compose(c_inv, h), c))
    return chain, kept


def maximal_subgroups_census(group, n, leaf_guard=DEFAULT_LEAF_GUARD):
    """Census of the maximal subgroups of G / st_G(n) for n >= 2.

    Returns a dict (JSON-ready): p, e, n, order, and one record per maximal
    subgroup with its defining functional (s, t) on the exponent-sum plane
    (the subgroup is the pullback of ker(s*alpha + t*beta)), its index, and
    whether conjugation by both generator images fixed it.
    """
    if n < 2:
        raise InputError("the census needs level n >= 2")
    q = level_quotient(group, n, leaf_guard)
    p = group.p
    a_img = q.gen_a.images
    b_img = q.gen_b.images
    identity = tuple(range(p ** n))
    if _perm_power(a_img, p) != identity or _perm_power(b_img, p) != identity:
        raise CrossCheckError("generator images are not of order dividing p")

    # Q' as the normal closure of [a, b]; with both generators of order p this
    # is the whole Frattini subgroup of Q.
    a_inv = _inverse(a_img)
    b_inv = _inverse(b_img)
    conjugators = ((a_inv, a_img), (b_inv, b_img))
    comm = _compose(_compose(a_inv, b_inv), _compose(a_img, b_img))
    derived_chain, derived_gens = _normal_closure([comm], [a_img, b_img], p ** n)
    frattini_index = q.order // derived_chain.order()
    if frattini_index != p * p:
        raise CrossCheckError(
            f"|Q : Q'| = {frattini_index} != p^2; the functional census does not apply")

    functionals = [(1, t) for t in range(p)] + [(0, 1)]
    records = []
    kernel_perms = []
    for s, t in functionals:
        # a^{-t} b^{s} has exponent sums (-t, s), spanning ker(s*alpha + t*beta)
        w = _compose(_perm_power(a_img, (-t) % p), _perm_power(b_img, s % p))
        # the kernel contains Q', so extend a copy of its finished chain by w
        sub = derived_chain.copy()
        sub.add_generator(w)
        index = q.order // sub.order()
        normal = all(
            sub.contains(_compose(_compose(c_inv, g), c))
            for g in [w] + derived_gens for c_inv, c in conjugators)
        records.append({"functional": [s, t], "index": index, "normal": normal})
        kernel_perms.append((sub, w))

    # pairwise distinctness: the spanning element of one kernel avoids the others
    distinct = all(
        not kernel_perms[j][0].contains(kernel_perms[i][1])
        for i in range(len(functionals)) for j in range(len(functionals)) if i != j)
    if not distinct:
        raise CrossCheckError("functional kernels are not pairwise distinct")

    return {
        "p": p,
        "e": list(group.e),
        "n": n,
        "order": q.order,
        "frattini_index": frattini_index,
        "count": len(records),
        "maximal": records,
    }


def _perm_power(perm, k):
    out = tuple(range(len(perm)))
    base = perm
    while k:
        if k & 1:
            out = _compose(out, base)
        k >>= 1
        if k:
            base = _compose(base, base)
    return out
