"""Independent oracles the test suite checks the package against.

Everything here is deliberately naive and cache-free: plain breadth-first
enumeration of leaf permutations, depth-bounded recursive action
comparison, the closed-form quotient order and circulant rank, the
maximal-subgroup census on stabilizer chains built from nothing, and the
length sieve on the full section-target system and its class sequences
filtered from all p^m, the class floor read off token lists, first-level
sections as token walks reduced by normalize, token lists rewritten to a
fixpoint one merge at a time, Gauss-Jordan elimination to
reduced row echelon form in one sweep per pivot, and the subgroup lattice of
a finite model saturated under all-pairs joins.
Fixtures frozen in the tests were derived with these functions.
"""

import itertools

from ggslab.fp import solve_linear_mod_p
from ggslab.quotients import _StabilizerChain, _compose, _inverse, _perm_power, level_quotient
from ggslab.words import GroupWord, normalize


def leaf_action(group, w, n):
    """The permutation a word induces on level-n vertices, as a tuple of
    indices into the lexicographic vertex list."""
    leaves = list(itertools.product(range(1, group.p + 1), repeat=n))
    index = {v: i for i, v in enumerate(leaves)}
    return tuple(index[group.act_word(w, v)] for v in leaves)


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


def normal_closure_chain(seeds, conjugators, degree):
    """Chain for the smallest subgroup containing seeds and closed under
    conjugation by the given conjugators, and the seeds it kept.
    Deterministic: seeds in order, new conjugates appended FIFO."""
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
    at residue v != 0, and reduce the whole token list with words.normalize.
    This is how the package built each section before it reduced during the
    walk."""
    p = group.p
    v = (r + w.leading_a) % p
    toks = []
    for beta, alpha in w.body:
        toks.append(("b", beta) if v == 0 else ("a", beta * group.e[v - 1]))
        v = (v + alpha) % p
    return normalize(toks, p)


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
