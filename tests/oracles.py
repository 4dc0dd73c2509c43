"""Independent oracles the test suite checks the package against.

Everything here is deliberately naive and cache-free: plain breadth-first
enumeration of leaf permutations, depth-bounded recursive action
comparison, the closed-form quotient order and circulant rank, and the
census's subgroup chains built from nothing. Fixtures frozen in the tests
were derived with these functions.
"""

import itertools

from ggslab.quotients import _StabilizerChain


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
    """log_p |G : St_G(n)| for a non-constant defining vector e and n >= 2,
    by the theorem of Fernandez-Alcober and Zugadi-Reizabal (Trans. AMS 366,
    2014): t p^(n-2) + 1 - delta (p^(n-2) - 1)/(p - 1), where t is the rank
    over F_p of the circulant matrix with first row (e, 0) and delta is 1
    exactly when e is symmetric."""
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


def scratch_subgroup_chain(w, derived_gens, degree):
    """Chain of the subgroup generated by w and the derived subgroup's
    generators, built from an empty chain (the census instead extends a copy
    of the derived subgroup's chain by w)."""
    chain = _StabilizerChain(degree)
    for g in [w] + list(derived_gens):
        chain.add_generator(g)
    return chain


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
