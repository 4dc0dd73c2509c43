"""GGS-groups acting on the p-adic rooted tree.

A group is fixed by an odd prime p and a nonzero defining vector
e = (e_1, ..., e_{p-1}) over F_p. The rooted generator a permutes the level-1
subtrees along the p-cycle (1 2 ... p); the directed generator b fixes level 1
and has first-level sections (a^{e_1}, ..., a^{e_{p-1}}, b).

Conventions, fixed once and used everywhere:

- letters of the alphabet X = {1, ..., p} are carried internally as residues
  mod p with the letter p stored as 0, so a acts on letters as x -> x + 1;
- all actions are right actions: act(g * h, v) == act(h, act(g, v)), and
  sections obey section(g * h, u) == section(g, u) * section(h, act(g, u));
- elements are words in a and b (free-product normal forms); equality of the
  underlying tree automorphisms is decided by equal(), a coinductive
  bisimulation on pairs of normal forms.

Sanity anchor for the sign conventions: psi([a, b]) computes to
(b^{-1} a^{e_1}, a^{e_2 - e_1}, ..., a^{e_{p-1} - e_{p-2}}, a^{-e_{p-1}} b).

GgsGroup and Element are immutable; the group carries internal memo tables
(sections, settled equality pairs, certified lengths) behind a lock, so
concurrent readers only ever contend on that shared memo.
"""

import itertools
import re
import threading

from .errors import InputError, ResourceLimitError
from .fp import solve_linear_mod_p, validate_odd_prime
from .words import GroupWord, concat, format_word, invert, normalize, parse_word, power

FAMILY_TORSION = "torsion"
FAMILY_CONSTANT = "constant"
FAMILY_FABRYKOWSKI_GUPTA = "fabrykowski_gupta_type"
FAMILY_GENERIC = "generic_nontorsion"

DEFAULT_LENGTH_CAP = 6
DEFAULT_DEPTH_CAP = 12


class GgsGroup:
    """A GGS-group, plus the word-level computation engine for its elements."""

    def __init__(self, p, e):
        # the length check bounds p by the size of the input, so it runs
        # before the trial division in the primality test
        if not isinstance(p, int) or isinstance(p, bool):
            raise InputError(f"modulus must be an integer, got {p!r}")
        e = tuple(e)
        if len(e) != p - 1:
            raise InputError(f"defining vector needs p-1={p - 1} entries, got {len(e)}")
        validate_odd_prime(p)
        e = tuple(int(c) % p for c in e)
        if not any(e):
            raise InputError("defining vector must be nonzero mod p")
        self.p = p
        self.e = e
        self.lam = sum(e) % p
        # b_{ce} = b_e^c, so every scalar multiple of the all-ones vector
        # defines the same (constant-vector) group
        if len(set(e)) == 1:
            self.family = FAMILY_CONSTANT
        elif self.lam == 0:
            self.family = FAMILY_TORSION
        elif sum(1 for c in e if c) == 1:
            self.family = FAMILY_FABRYKOWSKI_GUPTA
        else:
            self.family = FAMILY_GENERIC
        self._id_word = GroupWord.identity(p)
        self._sections = {}
        self._eq_true = set()
        self._eq_false = set()
        self._lengths = {}
        self._lock = threading.RLock()

    # classification --------------------------------------------------------

    @property
    def is_torsion(self):
        return self.lam == 0

    @property
    def is_branch(self):
        # every non-constant GGS-group is regular branch; the constant one is
        # weakly regular branch but not branch
        return self.family != FAMILY_CONSTANT

    def spec_string(self):
        return f"p={self.p};e=" + ",".join(str(c) for c in self.e)

    def __repr__(self):
        return f"GgsGroup({self.spec_string()!r}, family={self.family})"

    def __eq__(self, other):
        if not isinstance(other, GgsGroup):
            return NotImplemented
        return self.p == other.p and self.e == other.e

    def __hash__(self):
        return hash((self.p, self.e))

    # element constructors --------------------------------------------------

    def element(self, w):
        """Wrap a GroupWord, a text word, or a (gen, exp) token iterable."""
        if isinstance(w, GroupWord):
            if w.p != self.p:
                raise InputError(f"word modulus {w.p} does not match group p={self.p}")
            return Element(self, w)
        if isinstance(w, str):
            return Element(self, parse_word(w, self.p))
        return Element(self, normalize(w, self.p))

    @property
    def identity(self):
        return Element(self, self._id_word)

    @property
    def a(self):
        return Element(self, GroupWord(self.p, 1, ()))

    @property
    def b(self):
        return Element(self, GroupWord(self.p, 0, ((1, 0),)))

    # word-level engine ------------------------------------------------------

    def _letter_residue(self, x):
        if not isinstance(x, int) or isinstance(x, bool) or not 1 <= x <= self.p:
            raise InputError(f"letter must be in 1..{self.p}, got {x!r}")
        return x % self.p

    def _residue_letter(self, r):
        return self.p if r == 0 else r

    def section_word(self, w, r):
        """Section of a word at the level-1 letter with residue r, as a normal form.

        Walk the syllables left to right tracking the image of the letter under
        the prefix so far: an a-syllable only moves the tracked letter, a
        b-syllable emits b^beta when the letter sits at residue 0 (the letter p)
        and a^{beta * e_v} when it sits at residue v != 0.
        """
        key = (w, r)
        cached = self._sections.get(key)
        if cached is not None:
            return cached
        p = self.p
        v = (r + w.leading_a) % p
        toks = []
        for beta, alpha in w.body:
            if v == 0:
                toks.append(("b", beta))
            else:
                toks.append(("a", beta * self.e[v - 1]))
            v = (v + alpha) % p
        res = normalize(toks, p)
        self._sections[key] = res
        return res

    def act_word(self, w, vertex):
        out = []
        cur = w
        for x in vertex:
            r = self._letter_residue(x)
            out.append(self._residue_letter((r + cur._ab[0]) % self.p))
            cur = self.section_word(cur, r)
        return tuple(out)

    def equal_words(self, w1, w2, depth_cap=None):
        """Decide whether two normal forms define the same tree automorphism.

        Coinductive bisimulation on word pairs: a pair passes when the root
        powers match and all p section pairs pass, where pairs currently in
        progress are assumed to pass (the set of equal pairs is the greatest
        such relation, so the assumption is sound). Failures never rest on an
        assumption, so they are cached unconditionally; successes are committed
        to the shared memo only when the outermost call succeeds, since an
        inner failure invalidates every assumption made below it.

        The depth cap is a safety net: the reachable pair space is finite, but
        exceeding the cap raises ResourceLimitError rather than looping.
        """
        if w1.p != self.p or w2.p != self.p:
            raise InputError("word modulus does not match group")
        cap = DEFAULT_DEPTH_CAP if depth_cap is None else depth_cap
        if cap < 1:
            raise InputError("depth cap must be >= 1")
        with self._lock:
            provisional = set()
            ok = self._bisim(w1, w2, 0, cap, set(), provisional)
            if ok:
                self._eq_true |= provisional
            return ok

    def _bisim(self, w1, w2, depth, cap, in_progress, provisional):
        if w1 == w2:
            return True
        if w1.sort_key() > w2.sort_key():
            w1, w2 = w2, w1
        pair = (w1, w2)
        if pair in self._eq_true or pair in provisional:
            return True
        if pair in self._eq_false:
            return False
        if pair in in_progress:
            return True
        if w1._ab != w2._ab:
            # exponent sums mod p are invariants of the element
            self._eq_false.add(pair)
            return False
        if depth >= cap:
            raise ResourceLimitError(f"equality recursion exceeded depth cap {cap}")
        in_progress.add(pair)
        ok = True
        for r in range(self.p):
            if not self._bisim(self.section_word(w1, r), self.section_word(w2, r),
                               depth + 1, cap, in_progress, provisional):
                ok = False
                break
        in_progress.discard(pair)
        if ok:
            provisional.add(pair)
        else:
            self._eq_false.add(pair)
        return ok

    def _candidate_words(self, m, w):
        """Normal forms with m syllables that share every cheap invariant of w.

        A normal form a^{c_1} b^{beta_1} a^{alpha_1} ... b^{beta_m} a^{alpha_m}
        is pinned down by its beta_k together with the walk classes
        c_k = c_1 + alpha_1 + ... + alpha_{k-1} (consecutive classes differ
        because interior alpha_k != 0, and the final a-power is forced by the
        total a-exponent). In the section at residue r, syllable k sits at
        v = r + c_k: it lands as b^{beta_k} when v = 0 and as a^{beta_k e_v}
        otherwise, so requiring the candidate to match the exponent-sum pair
        of every section of w is a linear system in the beta over F_p. Only
        its solutions with all beta_k nonzero are emitted; each still needs an
        equal() confirmation. Class sequences run in lexicographic order, so
        the output order is deterministic.
        """
        p = self.p
        ta, tb = w._ab
        if m == 0:
            if tb % p == 0:
                yield GroupWord(p, ta, ())
            return
        targets = [self.section_word(w, r)._ab for r in range(p)]
        for cs in itertools.product(range(p), repeat=m):
            if any(cs[k] == cs[k + 1] for k in range(m - 1)):
                continue
            rows = []
            rhs = []
            for r in range(p):
                vs = [(r + c) % p for c in cs]
                rows.append([1 if v == 0 else 0 for v in vs])
                rhs.append(targets[r][1])
                rows.append([0 if v == 0 else self.e[v - 1] for v in vs])
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
                yield GroupWord(p, cs[0], tuple(zip(betas, alphas)))

    def length_word(self, w, cap=DEFAULT_LENGTH_CAP, depth_cap=None):
        """Minimal syllable length over all normal forms equal to w, or None if
        it exceeds cap.

        Breadth-first over syllable counts 0..cap; within a level only words
        passing the full section-invariant sieve are candidates, each confirmed
        with equal(). The first hit is the minimum. Results are memoized with
        the level up to which the search is exhaustive, and the search never
        runs past the syllable count of w itself, which is always attainable.
        """
        if cap < 0:
            raise InputError("length cap must be >= 0")
        start = 0
        with self._lock:
            cached = self._lengths.get(w)
        if cached is not None:
            found, upto = cached
            if found is not None:
                return found if found <= cap else None
            if cap <= upto:
                return None
            start = upto + 1
        for m in range(start, min(cap, w.syllables) + 1):
            for cand in self._candidate_words(m, w):
                if self.equal_words(cand, w, depth_cap):
                    with self._lock:
                        self._lengths[w] = (m, cap)
                    return m
        with self._lock:
            self._lengths[w] = (None, cap)
        return None


def make_ggs(p, e):
    """Construct the GGS-group for an odd prime p and nonzero e over F_p."""
    return GgsGroup(p, e)


class Element:
    """A group element, carried as a free-product normal form over its group."""

    __slots__ = ("group", "word")

    def __init__(self, group, word):
        if word.p != group.p:
            raise InputError(f"word modulus {word.p} does not match group p={group.p}")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "word", word)

    def __setattr__(self, name, val):
        raise AttributeError("Element is immutable")

    def _check_same_group(self, other):
        if not isinstance(other, Element):
            raise InputError(f"expected an Element, got {other!r}")
        if other.group.p != self.group.p or other.group.e != self.group.e:
            raise InputError("elements belong to different groups")

    # arithmetic -------------------------------------------------------------

    def __mul__(self, other):
        self._check_same_group(other)
        return Element(self.group, concat(self.word, other.word))

    def inverse(self):
        return Element(self.group, invert(self.word))

    __invert__ = inverse

    def __pow__(self, n):
        return Element(self.group, power(self.word, n))

    def conjugate(self, h):
        """h^{-1} * self * h."""
        self._check_same_group(h)
        return h.inverse() * self * h

    def commutator(self, h):
        """self^{-1} h^{-1} self h."""
        self._check_same_group(h)
        return self.inverse() * h.inverse() * self * h

    # tree action ------------------------------------------------------------

    def root_permutation_power(self):
        """k with the root action equal to the k-th power of the p-cycle (1 2 ... p):
        the total a-exponent mod p."""
        return self.word._ab[0]

    def abelianize(self):
        """Image in G/G' as (a-exponent, b-exponent) over F_p."""
        return self.word._ab

    def in_level_one_stabilizer(self):
        return self.word._ab[0] == 0

    def act(self, vertex):
        """Image of a vertex (tuple of letters in 1..p) under this element."""
        return self.group.act_word(self.word, tuple(vertex))

    def section(self, u):
        """Section at a letter in 1..p or at a vertex (tuple of letters)."""
        g = self.group
        if isinstance(u, int) and not isinstance(u, bool):
            u = (u,)
        w = self.word
        for x in u:
            w = g.section_word(w, g._letter_residue(x))
        return Element(g, w)

    def psi(self):
        """First-level decomposition (section at 1, ..., section at p).

        Only defined on the level-1 stabilizer.
        """
        if not self.in_level_one_stabilizer():
            raise InputError("psi needs an element of the level-1 stabilizer "
                             f"(root power is {self.root_permutation_power()})")
        g = self.group
        return tuple(Element(g, g.section_word(self.word, x % g.p)) for x in range(1, g.p + 1))

    # decision procedures ------------------------------------------------------

    def equals(self, other, depth_cap=None):
        self._check_same_group(other)
        return self.group.equal_words(self.word, other.word, depth_cap)

    def is_trivial(self, depth_cap=None):
        return self.group.equal_words(self.word, self.group._id_word, depth_cap)

    def length(self, cap=DEFAULT_LENGTH_CAP, depth_cap=None):
        """Minimal syllable length, or None when not certified within cap."""
        return self.group.length_word(self.word, cap, depth_cap)

    def __repr__(self):
        return f"Element({format_word(self.word)!r}, {self.group.spec_string()})"


_GROUP_SPEC_RE = re.compile(r"p=(\d+);e=(-?\d+(?:,-?\d+)*)$")


def parse_group_spec(text):
    """Parse a group specification string like 'p=3;e=1,2'."""
    m = _GROUP_SPEC_RE.match(text.strip())
    if m is None:
        raise InputError(f"cannot parse group spec {text!r}; expected p=<prime>;e=<c1>,...,<c_(p-1)>")
    p = int(m.group(1))
    e = [int(x) for x in m.group(2).split(",")]
    return make_ggs(p, e)


def parse_vertex(text, p):
    """Parse a dot-separated vertex such as '3.1.2'; the empty string is the root."""
    text = text.strip()
    if not text:
        return ()
    out = []
    for piece in text.split("."):
        try:
            x = int(piece)
        except ValueError:
            raise InputError(f"bad vertex letter {piece!r}") from None
        if not 1 <= x <= p:
            raise InputError(f"vertex letter {x} out of range 1..{p}")
        out.append(x)
    return tuple(out)


def format_vertex(vertex):
    return ".".join(str(x) for x in vertex)
