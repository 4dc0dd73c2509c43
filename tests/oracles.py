"""Independent oracles the test suite checks the package against.

Everything here but the layered basis is deliberately naive and cache-free:
plain breadth-first enumeration of leaf permutations, depth-bounded
recursive action comparison, the closed-form quotient order and circulant
rank, the circulant sweep ranking every first row, the maximal-subgroup
census on stabilizer chains built from nothing, a chain that crosses each
level's orbit with every generator stored at that level or deeper, a chain
that strips every Schreier generator it is handed and rescans every (orbit
point, generator) pair on each pass, the length sieve on the full
section-target system and its class sequences filtered from all p^m, the
class floor read off token lists, first-level sections as token walks,
the sweeps' st(1) and short-section draws built from tokens, the
short-section and split-case sweeps redrawing and rechecking every draw from
its tokens, each of those token lists rewritten to a fixpoint one merge at a
time rather than by the package's reducer, the sweeps' draws with every
number a call to words._below, the interval criterion scanned over every
quadruple, Gauss-Jordan elimination to reduced row echelon form in one sweep
per pivot, and the subgroup lattice of a finite model saturated under
all-pairs joins. The word and group-spec grammars are kept here as the
regular expressions the parsers matched before they became string tests.

The layered basis (`_LayeredBasis`) is a second group engine, independent of
the package's stabilizer chain: an induced polycyclic sequence of a subgroup
of the iterated wreath product C_p wr ... wr C_p, in which orders and
memberships are F_p elimination on rotation labels, level by level. It is
the oracle for the chain's orders and memberships, for `closed_form_order`,
and for |Q : Q'| = p^2, which the census takes from a theorem: it closes Q'
at level 2 for whole families of vectors and at the census level itself.
Fixtures frozen in the tests were derived with these functions.
"""

import bisect
import collections
import itertools
import random
import re

from ggslab import lemmas
from ggslab.core import make_ggs
from ggslab.errors import CrossCheckError, InputError
from ggslab.fp import circulant_rank, solve_linear_mod_p
from ggslab.quotients import (
    _TABLE,
    _StabilizerChain,
    _as_perm,
    _compose,
    _identity,
    _inverse,
    _perm_power,
    level_quotient,
    project,
)
from ggslab.words import GroupWord, _below, format_word, normalize


def leaf_vertices(p, n):
    """All level-n vertices in lexicographic order (the leaf indexing order)."""
    if n == 0:
        return [()]
    shorter = leaf_vertices(p, n - 1)
    return [v + (x,) for v in shorter for x in range(1, p + 1)]


def leaf_index(vertex, p):
    """The rank of a vertex in lexicographic order over {1, ..., p}^n."""
    idx = 0
    for x in vertex:
        idx = idx * p + (x - 1)
    return idx


def leaf_action(group, w, n):
    """The permutation a word induces on level-n vertices, as a tuple of
    indices into the lexicographic vertex list."""
    return tuple(leaf_index(group.act_word(w, v), group.p) for v in leaf_vertices(group.p, n))


def bfs_quotient_order(group, n, limit=200000):
    """Order of the level-n congruence quotient by breadth-first closure of
    {A, B} under composition, counting distinct leaf permutations."""
    gen_a = leaf_action(group, group.a.word, n)
    gen_b = leaf_action(group, group.b.word, n)
    ident = tuple(range(len(gen_a)))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for s in (gen_a, gen_b):
                h = tuple(s[i] for i in g)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
                    if len(seen) > limit:
                        raise RuntimeError(f"BFS exceeded {limit} permutations")
        frontier = nxt
    return len(seen)


def agree_to_depth(group, w1, w2, depth):
    """Whether two words act identically on every vertex of the first `depth`
    levels. Recursive: images of the p letters must match, then all p section
    pairs must agree one level higher. Fresh memo per call, no shared state."""
    memo = {}

    def rec(u, v, d):
        if d == 0 or u == v:
            return True
        key = (u, v, d)
        hit = memo.get(key)
        if hit is not None:
            return hit
        out = True
        for x in range(1, group.p + 1):
            if group.act_word(u, (x,)) != group.act_word(v, (x,)):
                out = False
                break
        if out:
            for r in range(group.p):
                if not rec(group.section_word(u, r), group.section_word(v, r), d - 1):
                    out = False
                    break
        memo[key] = out
        return out

    return rec(w1, w2, depth)


def closed_form_log_order(p, e, n):
    """log_p |G : St_G(n)| for n >= 2.

    For a non-constant defining vector e, by the theorem of Fernandez-Alcober
    and Zugadi-Reizabal (Trans. AMS 366, 2014): t p^(n-2) + 1 - delta
    (p^(n-2) - 1)/(p - 1), where t is the rank over F_p of the circulant
    matrix with first row (e, 0) and delta is 1 exactly when e is symmetric.

    For a constant vector, the empirical fit of `closed_form_order` with the
    sum over levels done: p + 1 + ((p - 2) (p^n - p^2)/(p - 1) + n - 2)/(p - 1)."""
    if len(set(e)) == 1:
        return p + 1 + ((p - 2) * (p ** n - p * p) // (p - 1) + n - 2) // (p - 1)
    first = list(e) + [0]
    rows = [first[-k:] + first[:-k] for k in range(p)]
    rank = 0
    for col in range(p):
        pivot = next((r for r in range(rank, p) if rows[r][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        scale = pow(rows[rank][col], p - 2, p)
        rows[rank] = [x * scale % p for x in rows[rank]]
        for r in range(p):
            if r != rank and rows[r][col] % p:
                factor = rows[r][col]
                rows[r] = [(x - factor * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    delta = 1 if list(e) == list(reversed(e)) else 0
    return rank * p ** (n - 2) + 1 - delta * (p ** (n - 2) - 1) // (p - 1)


class TextbookChain(_StabilizerChain):
    """The stabilizer chain with the textbook closure rule: `_close_level(i)`
    crosses the orbit of level i with every generator stored at level i or
    deeper, not only with the usable ones. Those generate the same group, so
    the order and every membership agree with the package's chain; the work
    does not. Generators stored deeper can grow during a pass, so a pass
    crosses the old orbit points with the generators added since the last one
    and the new points with all of them, until a pass finds nothing new."""

    def __init__(self, degree):
        super().__init__(degree)
        # per level: len(gens[k]), k >= level, crossed with the orbit
        self._crossed_every = collections.defaultdict(list)

    def _close_level(self, i):
        orbit = self.orbits[i]
        trans = self.transversals[i]
        inverses = self.inverses[i]
        done = self.done[i]
        gens = self.gens
        progressed = False
        while True:
            sizes = [len(gens[k]) for k in range(i, len(gens))]
            # levels made since the last pass have no generator crossed yet
            crossed = self._crossed_every[i] + [0] * (len(sizes) - len(self._crossed_every[i]))
            fresh = [(k, pos, s) for k, c in enumerate(crossed, i)
                     for pos, s in enumerate(gens[k][c:], c)]
            if not fresh:
                return progressed
            progressed = True
            every = [(k, pos, s) for k in range(i, len(gens)) for pos, s in enumerate(gens[k])]
            old = len(orbit)
            j = 0
            while j < len(orbit):
                beta = orbit[j]
                for k, pos, s in (fresh if j < old else every):
                    done.add((beta, k, pos))
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
            self._crossed_every[i] = sizes


class StripEveryGeneratorChain(_StabilizerChain):
    """The stabilizer chain as it ran before it skipped repeated Schreier
    generators and crossed each level's orbit from its frontier: `_ingest`
    strips every generator it is handed, and each pass of `_close_level`
    walks every (orbit point, usable generator) pair, skipping those in
    `done`."""

    def _ingest(self, g, level):
        # g fixes the bases of all levels below `level`
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
        if res not in self.gens[i]:
            self.gens[i].append(res)
            entry = (i, len(self.gens[i]) - 1, res)
            for j in range(level, i + 1):
                self._usable[j].append(entry)
        self._close_level(i)

    def _close_level(self, i):
        orbit = self.orbits[i]
        trans = self.transversals[i]
        inverses = self.inverses[i]
        done = self.done[i]
        progressed = False
        while True:
            gens = list(self._usable[i])
            advanced = False
            j = 0
            while j < len(orbit):
                beta = orbit[j]
                for k, pos, s in gens:
                    key = (beta, k, pos)
                    if key in done:
                        continue
                    done.add(key)
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


def derived_subgroup_order(group, n):
    """|Q'| for Q = G / St_G(n): the normal closure of [a, b] under a and b,
    closed on a layered basis at level n."""
    a_img = project(group.a, n).images
    b_img = project(group.b, n).images
    comm = _compose(_compose(_inverse(a_img), _inverse(b_img)), _compose(a_img, b_img))
    derived = _LayeredBasis(group.p, n)
    derived.closure([comm], [a_img, b_img])
    return derived.order()


def layered_frattini_index(group, n):
    """|Q : Q'| for Q = G / St_G(n), with <a, b> and the normal closure Q' of
    [a, b] both closed on layered bases at level n itself. The census takes
    this index, p^2, from a theorem instead."""
    whole = _LayeredBasis(group.p, n)
    whole.closure([project(group.a, n).images, project(group.b, n).images])
    return whole.order() // derived_subgroup_order(group, n)


def frattini_theorem_failures(p, vectors):
    """The defining vectors e among `vectors` whose Q_2' is not of order
    p^(t - 1), with t the rank of the circulant with first row (e, 0). Since
    |Q_2| = p^(t + 1), the others have |Q_2 : Q_2'| = p^2, the index
    `quotients.maximal_subgroups_census` takes from a theorem."""
    return [e for e in vectors
            if derived_subgroup_order(make_ggs(p, e), 2)
            != p ** (circulant_rank(list(e) + [0], p) - 1)]


def normal_closure_chain(seeds, conjugators, degree, chain_type=_StabilizerChain):
    """Chain for the smallest subgroup containing seeds and closed under
    conjugation by the given conjugators, and the seeds it kept.
    Deterministic: seeds in order, new conjugates appended FIFO. Each kept
    seed enlarges the group, and a chain of subgroups of S_d has fewer than
    2d links, so more kept seeds than that mean a chain that does not close."""
    chain = chain_type(degree)
    pairs = [(_inverse(c), c) for c in conjugators]
    kept = []
    queue = list(seeds)
    while queue:
        h = queue.pop(0)
        if chain.contains(h):
            continue
        if len(kept) == 2 * degree:
            raise AssertionError(f"the chain kept {len(kept)} seeds of degree {degree}")
        chain.add_generator(h)
        kept.append(h)
        for c_inv, c in pairs:
            queue.append(_compose(_compose(c_inv, h), c))
    return chain, kept


def census_by_sifting(group, n):
    """The maximal-subgroup census on stabilizer chains alone, in the format of
    `quotients.maximal_subgroups_census`: Q' as a chain normal closure, each
    maximal subgroup's chain built from nothing out of w and the kept
    generators of Q', and normality and distinctness by sifting through those
    chains. This is the census the package ran before its layered bases."""
    q = level_quotient(group, n)
    p = group.p
    a_img = q.gen_a.images
    b_img = q.gen_b.images
    a_inv = _inverse(a_img)
    b_inv = _inverse(b_img)
    conjugators = ((a_inv, a_img), (b_inv, b_img))
    comm = _compose(_compose(a_inv, b_inv), _compose(a_img, b_img))
    derived_chain, derived_gens = normal_closure_chain([comm], [a_img, b_img], p ** n)
    frattini_index = q.order // derived_chain.order()
    functionals = [(1, t) for t in range(p)] + [(0, 1)]
    records = []
    kernels = []
    for s, t in functionals:
        w = _compose(_perm_power(a_img, (-t) % p), _perm_power(b_img, s % p))
        sub = _StabilizerChain(p ** n)
        for g in derived_gens + [w]:
            sub.add_generator(g)
        normal = all(
            sub.contains(_compose(_compose(c_inv, g), c))
            for g in [w] + derived_gens for c_inv, c in conjugators)
        records.append({"functional": [s, t], "index": q.order // sub.order(),
                        "normal": normal})
        kernels.append((sub, w))
    if any(kernels[j][0].contains(kernels[i][1])
           for i in range(len(functionals)) for j in range(len(functionals)) if i != j):
        raise AssertionError("functional kernels are not pairwise distinct")
    return {
        "p": p,
        "e": list(group.e),
        "n": n,
        "order": q.order,
        "frattini_index": frattini_index,
        "count": len(records),
        "maximal": records,
    }


def circulant_rank_closed_form(row, p):
    """Rank over F_p of the circulant with first row `row`, with no elimination.

    The circulant is f(P) for the cyclic shift P and f the first-row
    polynomial, and x^p - 1 = (x - 1)^p over F_p, so the rank is p minus the
    multiplicity of x = 1 as a root of f (capped at p, which the zero row
    reaches). The multiplicity is counted by repeated synthetic division by
    x - 1."""
    coeffs = [int(x) % p for x in row]  # coeffs[j] multiplies x^j
    mult = 0
    while mult < p:
        acc, quotient = 0, []
        for c in reversed(coeffs[1:]):
            acc = (acc + c) % p
            quotient.append(acc)
        if (acc + coeffs[0]) % p:
            break
        coeffs = quotient[::-1]
        mult += 1
    return p - mult


def _rotations(row, p):
    """The p rows of the circulant with first row `row` (a list or a bytes
    row): row k is `row` cyclically shifted k steps to the right. Ranked by
    gaussian_rank, they are the elimination oracle for circulant_rank."""
    return [row[-k:] + row[:-k] for k in range(p)]


def circulant_sweep_by_vector(p, seed):
    """The circulant sweep's report with every first row ranked on its own:
    all p^p in product order when p^p <= CIRCULANT_SAMPLES, else that many
    drawn by randrange. It ranks through lemmas._circulant_rank, the kernel
    the sweep calls, so a patched
    rank reaches both this and the sweep, which ranks one row per orbit under
    rotation and scaling. A rank fault that is not constant on those orbits
    is left to test_circulant_rank_matches_closed_form_p3_p5, which checks
    all 3,152 rows at p = 3 and 5 against circulant_rank_closed_form."""
    rng = random.Random(seed)
    exhaustive = p ** p <= lemmas.CIRCULANT_SAMPLES
    if exhaustive:
        vectors = itertools.product(range(p), repeat=p)
        total = p ** p
    else:
        vectors = (tuple(rng.randrange(p) for _ in range(p))
                   for _ in range(lemmas.CIRCULANT_SAMPLES))
        total = lemmas.CIRCULANT_SAMPLES
    bad = []
    for m in vectors:
        rank = lemmas._circulant_rank(m, p)
        if (rank < p) != (sum(m) % p == 0):
            bad.append({"vector": list(m), "rank": rank})
    return lemmas._report("circulant", seed, cases_run=total, passed=total - len(bad),
                          counterexamples=bad, exhaustive=exhaustive)


def section_target_candidates(group, m, w):
    """The length sieve on the 2p-row section-target system, as a list.

    For each class sequence with no two equal neighbours, the betas must
    reproduce the exponent-sum pair of every first-level section of w: a
    b-row and an e-weighted a-row per residue. This is the sieve the package
    ran before it matched the p class sums of w instead."""
    p = group.p
    ta, tb = w._ab
    out = []
    if m == 0:
        if tb % p == 0:
            out.append(GroupWord(p, ta, ()))
        return out
    targets = [group.section_word(w, r)._ab for r in range(p)]
    for cs in itertools.product(range(p), repeat=m):
        if any(cs[k] == cs[k + 1] for k in range(m - 1)):
            continue
        rows = []
        rhs = []
        for r in range(p):
            vs = [(r + c) % p for c in cs]
            rows.append([1 if v == 0 else 0 for v in vs])
            rhs.append(targets[r][1])
            rows.append([0 if v == 0 else group.e[v - 1] for v in vs])
            rhs.append(targets[r][0])
        sol = solve_linear_mod_p(rows, rhs, p)
        if sol is None:
            continue
        particular, basis = sol
        alphas = tuple((cs[k + 1] - cs[k]) % p for k in range(m - 1))
        alphas += ((ta - cs[-1]) % p,)
        for coeffs in itertools.product(range(p), repeat=len(basis)):
            betas = list(particular)
            for coeff, vec in zip(coeffs, basis):
                if coeff:
                    betas = [(x + coeff * y) % p for x, y in zip(betas, vec)]
            if 0 in betas:
                continue
            out.append(GroupWord(p, cs[0], tuple(zip(betas, alphas))))
    return out


def product_class_sequences(p, m, need):
    """The class sequences the length sieve tries, as a list: every sequence
    in F_p^m, filtered for no two equal neighbours and for holding each class
    c at least need[c] times. A 0/1 vector is the old filter for covering a
    support set; this is the walk the sieve ran before its pruned DFS."""
    out = []
    for cs in itertools.product(range(p), repeat=m):
        if any(cs[k] == cs[k + 1] for k in range(m - 1)):
            continue
        if any(cs.count(c) < need[c] for c in range(p)):
            continue
        out.append(cs)
    return out


def walk_class_counts(w):
    """Syllables per walk class of a normal form, counted from its tokens."""
    counts = [0] * w.p
    c = 0
    for gen, exp in w.tokens():
        if gen == "a":
            c = (c + exp) % w.p
        else:
            counts[c] += 1
    return counts


def class_floor(group, w):
    """For each class c, the number of nonzero class sums of the section of w
    at residue -c, both read off the token lists with no reduction: the
    section's tokens by tracking the letter under each prefix, and its class
    sums by tracking the a-exponent before each b-token. Merging or dropping
    tokens leaves class sums unchanged, so this is the floor the length sieve
    puts on how often each class occurs."""
    p = group.p
    floor = []
    for c in range(p):
        v = -c % p
        section = []
        for gen, exp in w.tokens():
            if gen == "a":
                v = (v + exp) % p
            elif v == 0:
                section.append(("b", exp))
            else:
                section.append(("a", exp * group.e[v - 1]))
        sums = [0] * p
        k = 0
        for gen, exp in section:
            if gen == "a":
                k = (k + exp) % p
            else:
                sums[k] = (sums[k] + exp) % p
        floor.append(sum(1 for x in sums if x))
    return floor


def section_by_tokens(group, w, r):
    """Section of the normal form w at the letter with residue r: walk the
    syllables tracking the letter, emit b^beta at residue 0 and a^{beta e_v}
    at residue v != 0, and rewrite the whole token list to a fixpoint with
    reduce_to_fixpoint, which shares no code with the package's reducer."""
    p = group.p
    v = (r + w.leading_a) % p
    toks = []
    for beta, alpha in w.body:
        toks.append(("b", beta) if v == 0 else ("a", beta * group.e[v - 1]))
        v = (v + alpha) % p
    return reduce_to_fixpoint(toks, p)


def reduce_to_fixpoint(tokens, p):
    """Normal form of (gen, exp) tokens by rewriting until nothing changes:
    drop a token whose exponent is 0 mod p, or merge the first two neighbours
    with the same generator. The result goes through the checked GroupWord
    constructor."""
    toks = [(gen, exp % p) for gen, exp in tokens]
    while True:
        zero = next((i for i, (_, x) in enumerate(toks) if x == 0), None)
        if zero is not None:
            del toks[zero]
            continue
        same = next((i for i in range(len(toks) - 1) if toks[i][0] == toks[i + 1][0]), None)
        if same is None:
            break
        toks[same:same + 2] = [(toks[same][0], (toks[same][1] + toks[same + 1][1]) % p)]
    lead = toks.pop(0)[1] if toks and toks[0][0] == "a" else 0
    betas = [x for gen, x in toks if gen == "b"]
    alphas = [x for gen, x in toks if gen == "a"]
    alphas += [0] * (len(betas) - len(alphas))
    return GroupWord(p, lead, tuple(zip(betas, alphas)))


def rref(work, n_cols, p):
    """Bring the residue rows in work to reduced row echelon form in place by
    Gauss-Jordan elimination: each pivot row is scaled to 1 and its column
    cleared in every other row at once. Pivots lie in the first n_cols
    columns; later columns (an augmented right-hand side) are carried along.
    Returns the pivot columns in order. This is the routine the package used
    for rank and solving before it split off a forward-only pass."""
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


def solve_by_rref(rows, rhs, p):
    """Solution set of rows * x = rhs over F_p read off rref of the augmented
    matrix, in the format of fp.solve_linear_mod_p: (particular, basis), or
    None when inconsistent."""
    n_cols = len(rows[0]) if rows else 0
    aug = [[x % p for x in row] + [b % p] for row, b in zip(rows, rhs)]
    pivots = rref(aug, n_cols, p)
    if any(row[n_cols] for row in aug[len(pivots):]):
        return None
    particular = [0] * n_cols
    for i, col in enumerate(pivots):
        particular[col] = aug[i][n_cols]
    basis = []
    for free_col in range(n_cols):
        if free_col in pivots:
            continue
        vec = [0] * n_cols
        vec[free_col] = 1
        for i, col in enumerate(pivots):
            vec[col] = (-aug[i][free_col]) % p
        basis.append(tuple(vec))
    return tuple(particular), tuple(basis)


def all_subgroups_by_rounds(fm):
    """Every subgroup of a finite model, in the format of model.all_subgroups:
    seed with the cyclic subgroups, then join every incomparable pair of the
    subgroups found so far, round after round, until a round adds nothing."""
    seen = {}
    for i in range(fm.order):
        sub = fm.subgroup_closure((i,))
        if sub not in seen:
            seen[sub] = (i,) if i != fm.identity else ()
    while True:
        added = False
        current = sorted(seen.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
        for (s, gs), (t, gt) in itertools.combinations(current, 2):
            if s <= t or t <= s:
                continue
            gens = gs + gt
            joined = fm.subgroup_closure(gens)
            if joined not in seen:
                seen[joined] = gens
                added = True
        if not added:
            break
    return sorted(seen.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))


def st1_by_tokens(group, rng, max_factors=lemmas.SWEEP_MAX_FACTORS, nonzero_t=False):
    """A random st(1) element as the sweeps drew it before draws were kept as
    numbers: build the tokens of each conjugate (b^j)^(a^l), rewrite every
    draw to a fixpoint, and test the b-exponent sum of the reduced word."""
    p = group.p
    while True:
        toks = []
        for _ in range(rng.randint(1, max_factors)):
            j = rng.randrange(1, p)
            l = rng.randrange(p)
            toks += [("a", -l), ("b", j), ("a", l)]
        w = reduce_to_fixpoint(toks, p)
        if not nonzero_t or w.exponent_sums()[1] != 0:
            return group.element(w)


def random_st1_element(group, rng, max_factors=lemmas.SWEEP_MAX_FACTORS, nonzero_t=False):
    """A random element of st(1) as a product of <= max_factors conjugates
    (b^j)^(a^l), drawn and built as the sweeps do. With nonzero_t, redraw until
    the b-exponent sum is nonzero."""
    return group.element(lemmas._st1_word(group.p, lemmas._draw_st1(group.p, rng, max_factors,
                                                                     nonzero_t)))


def case2_candidate(group, rng):
    """A short-section draw, drawn and built as the sweep does."""
    return group.element(lemmas._case2_word(group.p, *lemmas._draw_case2(group.p, rng)))


def case2_by_tokens(group, rng):
    """A short-section draw built from tokens and rewritten to a fixpoint: an
    st(1) draw with t != 0, or the interleaved word b^{i_1} (b^{j_1})^{a^v} ...."""
    p = group.p
    if rng.random() < 0.5:
        return st1_by_tokens(group, rng, nonzero_t=True)
    v = rng.randrange(1, p)
    mu = rng.randint(1, 2)
    toks = []
    for _ in range(mu):
        toks += [("b", rng.randrange(1, p)), ("a", -v), ("b", rng.randrange(1, p)), ("a", v)]
    return group.element(reduce_to_fixpoint(toks, p))


def short_section_by_redrawing(group, cases, seed):
    """The short-section sweep's report with every draw rebuilt and checked
    through lemmas.check_section_less_than_half, repeats included."""
    if group.lam == 0:
        return lemmas._report("short-section", seed, skipped=1,
                              note="needs a non-torsion group")
    rng = random.Random(seed)
    confirmed = 0
    skipped = 0
    bad = []
    attempts = 0
    while confirmed + len(bad) < cases and attempts < cases * lemmas.SHORT_SECTION_ATTEMPTS:
        attempts += 1
        x = case2_by_tokens(group, rng)
        rep = lemmas.check_section_less_than_half(group, x)
        if rep["status"] == "skipped":
            skipped += 1
        elif rep["status"] == "pass":
            confirmed += 1
        else:
            bad.append({"word": format_word(x.word), "detail": rep,
                        "case": confirmed + len(bad)})
    return lemmas._report("short-section", seed, cases_run=confirmed + len(bad),
                          passed=confirmed, skipped=skipped, counterexamples=bad)


def split_case_by_redrawing(group, cases, seed):
    """The split-case sweep's report with every draw rebuilt from its tokens
    and its profile computed and classified, repeats included."""
    if group.lam == 0:
        return lemmas._report("split-case", seed, skipped=1,
                              note="case split undefined for torsion groups (lambda = 0)")
    rng = random.Random(seed)
    bad = []
    for idx in range(cases):
        g = st1_by_tokens(group, rng, nonzero_t=True)
        try:
            lemmas.classify_case(lemmas.exponent_profile(group, g), group.lam)
        except CrossCheckError as exc:
            bad.append({"word": format_word(g.word), "error": str(exc), "case": idx})
    return lemmas._report("split-case", seed, cases_run=cases, passed=cases - len(bad),
                          counterexamples=bad)


def draw_st1_by_below(p, rng, max_factors, nonzero_t):
    """lemmas._draw_st1 as it was written before its rejection loops ran in
    place: every number drawn by a call to words._below."""
    while True:
        nums = []
        for _ in range(1 + _below(rng, max_factors)):
            nums += (1 + _below(rng, p - 1), _below(rng, p))
        if not nonzero_t or sum(nums[::2]) % p:
            return tuple(nums)


def draw_case2_by_below(p, rng):
    """lemmas._draw_case2 with every number drawn by a call to words._below."""
    if rng.random() < 0.5:
        return (0, *draw_st1_by_below(p, rng, lemmas.SWEEP_MAX_FACTORS, True))
    nums = [1, 1 + _below(rng, p - 1)]
    for _ in range(1 + _below(rng, 2)):
        nums += (1 + _below(rng, p - 1), 1 + _below(rng, p - 1))
    return tuple(nums)


def draw_vectors_by_below(p, rng, count):
    """lemmas._draw_vectors with every entry drawn by a call to words._below."""
    return [tuple(_below(rng, p) for _ in range(p)) for _ in range(count)]


def interval_scan_by_quadruples(p, violates=None):
    """The interval criterion scanned over every quadruple (i, k, i1, i2), in
    that order, as lemmas.interval_lemma_scan did before it scanned orbits.
    With violates, a quadruple is listed when violates(p, k, s) holds for
    s = (i2 - i1)/i, in place of the criterion."""
    violations = []
    for i in range(1, p):
        inv = pow(i, p - 2, p)
        for k in range(2, p - 1):
            offsets = [(-d * i) % p for d in range(k)]
            for i1 in range(p):
                for i2 in range(p):
                    if i1 == i2:
                        continue
                    if violates is not None:
                        wrong = violates(p, k, (i2 - i1) * inv % p)
                    else:
                        boundary = [v for v in range(p)
                                    if sum(1 for o in offsets if (v + o) % p in (i1, i2)) == 1]
                        wrong = len(boundary) == 2 and i2 not in ((i1 + i) % p, (i1 - i) % p)
                    if wrong:
                        violations.append((i, k, i1, i2))
    return violations


TOKEN_RE = re.compile(r"([ab])(?:\^(-?\d+))?$")
GROUP_SPEC_RE = re.compile(r"p=(\d+);e=(-?\d+(?:,-?\d+)*)$")


def parse_word_by_regex(text, p):
    """words.parse_word with each token matched by TOKEN_RE."""
    pieces = text.split()
    if pieces == ["1"]:
        return GroupWord.identity(p)
    toks = []
    for piece in pieces:
        m = TOKEN_RE.match(piece)
        if m is None:
            raise InputError(f"cannot parse word token {piece!r}")
        try:
            exp = int(m.group(2)) if m.group(2) is not None else 1
        except ValueError:
            raise InputError(f"exponent of {piece[:12]}... has too many digits") from None
        toks.append((m.group(1), exp))
    return normalize(toks, p)


def parse_group_spec_by_regex(text):
    """core.parse_group_spec with the stripped text matched by GROUP_SPEC_RE."""
    m = GROUP_SPEC_RE.match(text.strip())
    if m is None:
        raise InputError(f"cannot parse group spec {text!r}; expected p=<prime>;e=<c1>,...,<c_(p-1)>")
    try:
        p = int(m.group(1))
        e = [int(x) for x in m.group(2).split(",")]
    except ValueError:
        raise InputError("group spec has an integer with too many digits") from None
    return make_ggs(p, e)
