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
(sections, settled equality pairs, certified lengths) that live as long as the
group and never shrink. They hold what later calls revisit: sections met by
equal(), lengths and the class floor. The sweeps' random draws repeat (10,497
distinct words among the 20,000 short-section draws at p=7), but holding their
sections costs memory, 14 MB in the table for those draws alone, so
lemmas.exponent_profile calls _section_uncached and leaves the table as it
was. _section_uncached reduces as it walks; every section that is a pure
a-power is one of the p words a^0, ..., a^{p-1} the group builds once.
"""

import itertools
import re

from .errors import CrossCheckError, InputError
from .fp import solve_linear_mod_p, validate_odd_prime
from .words import (GroupWord, class_counts, class_sums, concat, format_word, invert, normalize,
                    parse_word, power)

FAMILY_TORSION = "torsion"
FAMILY_CONSTANT = "constant"
FAMILY_FABRYKOWSKI_GUPTA = "fabrykowski_gupta_type"
FAMILY_GENERIC = "generic_nontorsion"

DEFAULT_LENGTH_CAP = 6


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
        if any(not isinstance(c, int) or isinstance(c, bool) for c in e):
            raise InputError(f"defining vector entries must be integers, got {e!r}")
        e = tuple(c % p for c in e)
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
        # a^0, ..., a^{p-1}, shared by every section that is a pure a-power
        self._a_powers = tuple(GroupWord._reduced(p, k, ()) for k in range(p))
        self._id_word = self._a_powers[0]
        self._sections = {}
        self._eq_true = set()
        self._eq_false = set()
        self._lengths = {}

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
        """Equality of presentations (p, e). G_{ce} = G_e as groups, but at p = 3
        b_{(2,2)} = b_{(1,1)}^2, so one word names different automorphisms."""
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
        """Section of a word at the level-1 letter with residue r, as a normal
        form, memoized in _sections (see _section_uncached)."""
        key = (w, r)
        cached = self._sections.get(key)
        if cached is not None:
            return cached
        res = self._section_uncached(w, r)
        self._sections[key] = res
        return res

    def _section_uncached(self, w, r):
        """The section of section_word, computed without touching the memo.

        Walk the syllables left to right tracking the image of the letter under
        the prefix so far: an a-syllable only moves the tracked letter, a
        b-syllable emits b^beta when the letter sits at residue 0 (the letter p)
        and a^{beta * e_v} when it sits at residue v != 0. The walk keeps the
        reduced prefix as exps = [a_0, b_1, a_1, ..., b_k] plus the a-sum run
        emitted since b_k. A b^beta after a run of 0 mod p merges into b_k, and
        when that cancels b_k the walk pops back to a_{k-1} as its run. A
        section with no b-syllable left is the interned word _a_powers[run % p].
        """
        p = self.p
        e = self.e
        v = (r + w.leading_a) % p
        run = 0
        exps = []
        for beta, alpha in w.body:
            if v:
                run += beta * e[v - 1]
            elif exps and not run % p:
                b = (exps[-1] + beta) % p
                if b:
                    exps[-1] = b
                else:
                    exps.pop()
                    run = exps.pop()
            else:
                exps.append(run % p)
                exps.append(beta)
                run = 0
            v = (v + alpha) % p
        if not exps:
            return self._a_powers[run % p]
        exps.append(run % p)
        return GroupWord._reduced(p, exps[0], tuple(zip(exps[1::2], exps[2::2])))

    def act_word(self, w, vertex):
        out = []
        cur = w
        for x in vertex:
            r = self._letter_residue(x)
            out.append(self._residue_letter((r + cur._ab[0]) % self.p))
            cur = self.section_word(cur, r)
        return tuple(out)

    def equal_words(self, w1, w2):
        """Decide whether two normal forms define the same tree automorphism.

        Coinductive bisimulation on word pairs: a pair passes when the root
        powers match and all p section pairs pass, where pairs already assumed
        in this call pass (the set of equal pairs is the greatest such
        relation, so the assumption is sound). A failure never rests on an
        assumption, so it is cached unconditionally and propagates to the
        outermost call; the assumed pairs are committed to the shared memo only
        when that call succeeds.

        Contraction bounds the recursion. A section of an m-syllable normal
        form takes its b-syllables from one walk class, and neighbouring
        syllables differ in class, so it has at most ceil(m/2) syllables. When
        both words have at most one syllable, every section is b^beta or a^x,
        so each section pair is identical or differs in its exponent sums. So
        no pair deeper than ceil(log2 M) = (M - 1).bit_length() recurses, for
        M the larger syllable count; one that does raises CrossCheckError.
        """
        if w1.p != self.p or w2.p != self.p:
            raise InputError("word modulus does not match group")
        bound = (max(w1.syllables, w2.syllables) - 1).bit_length()
        assumed = set()
        ok = self._bisim(w1, w2, 0, bound, assumed)
        if ok:
            self._eq_true |= assumed
        return ok

    def _bisim(self, w1, w2, depth, bound, assumed):
        if w1 == w2:
            return True
        if w1.sort_key() > w2.sort_key():
            w1, w2 = w2, w1
        pair = (w1, w2)
        if pair in self._eq_true or pair in assumed:
            return True
        if pair in self._eq_false:
            return False
        if w1._ab != w2._ab:
            # exponent sums mod p are invariants of the element
            self._eq_false.add(pair)
            return False
        if depth > bound:
            raise CrossCheckError(f"equality recursion at depth {depth} is past "
                                  f"the contraction bound {bound}")
        assumed.add(pair)
        for r in range(self.p):
            if not self._bisim(self.section_word(w1, r), self.section_word(w2, r),
                               depth + 1, bound, assumed):
                self._eq_false.add(pair)
                return False
        return True

    def _class_floor(self, w):
        """need[c] for c in F_p: how often walk class c occurs, at the least, in
        any normal form equal to w.

        The section at residue -c takes its b-syllables only from the syllables
        of walk class c, and a word with k syllables has at most k nonzero class
        sums. Sections and class sums are invariants of the element, so every
        word equal to w has class c at least |supp class_sums(section(w, -c))|
        times. need[c] >= 1 wherever B_c != 0, since B_c is the b-exponent of
        that section.
        """
        p = self.p
        return [sum(1 for x in class_sums(self.section_word(w, -c % p)) if x)
                for c in range(p)]

    def _candidate_words(self, m, w, need):
        """Normal forms with m syllables that share every cheap invariant of w.

        A normal form a^{c_1} b^{beta_1} a^{alpha_1} ... b^{beta_m} a^{alpha_m}
        is pinned down by its beta_k together with the walk classes
        c_k = c_1 + alpha_1 + ... + alpha_{k-1} (consecutive classes differ
        because interior alpha_k != 0, and the final a-power is forced by the
        total a-exponent). Its section at residue r has b-exponent B_{-r} and
        a-exponent sum_c B_c e_{r+c}, for the class sums B of class_sums, so
        matching the exponent sums of every section of w means matching B:
        one indicator row per class. Only class sequences that meet the class
        floor need (_class_floor(w)) are walked, which covers the support of
        B; only solutions with all beta_k nonzero are emitted, and each still
        needs an equal() confirmation. Class sequences run in lexicographic
        order, so the output order is deterministic.
        """
        p = self.p
        ta, tb = w._ab
        if m == 0:
            if tb % p == 0 and not any(need):
                yield GroupWord._reduced(p, ta, ())
            return
        sums = class_sums(w)
        for cs in _class_sequences(p, m, need):
            rows = [[1 if ck == c else 0 for ck in cs] for c in range(p)]
            particular, basis = solve_linear_mod_p(rows, sums, p)
            alphas = tuple((cs[k + 1] - cs[k]) % p for k in range(m - 1))
            alphas += ((ta - cs[-1]) % p,)
            for coeffs in itertools.product(range(p), repeat=len(basis)):
                betas = list(particular)
                for coeff, vec in zip(coeffs, basis):
                    if coeff:
                        betas = [(x + coeff * y) % p for x, y in zip(betas, vec)]
                if 0 in betas:
                    continue
                yield GroupWord._reduced(p, cs[0], tuple(zip(betas, alphas)))

    def length_word(self, w, cap=DEFAULT_LENGTH_CAP):
        """Minimal syllable length over all normal forms equal to w, or None if
        it exceeds cap.

        Breadth-first over syllable counts; within a level only words passing
        the class-sum sieve and the class floor are candidates, each confirmed
        with equal(). The first hit is the minimum. The search starts at the
        floor's total, below which no word equals w (past cap it answers None
        at once), and never runs past the syllable count of w itself, which is
        always attainable. Results are memoized with the level up to which the
        search is exhaustive.
        """
        if not isinstance(cap, int) or isinstance(cap, bool) or cap < 0:
            raise InputError(f"length cap must be an integer >= 0, got {cap!r}")
        start = 0
        cached = self._lengths.get(w)
        if cached is not None:
            found, upto = cached
            if found is not None:
                return found if found <= cap else None
            if cap <= upto:
                return None
            start = upto + 1
        need = self._class_floor(w)
        counts = class_counts(w)
        if any(have < owed for have, owed in zip(counts, need)):
            # w is a word equal to itself, so it always meets its own floor
            raise CrossCheckError(f"{format_word(w)} has walk class counts {counts} "
                                  f"below its own floor {need}")
        for m in range(max(start, sum(need)), min(cap, w.syllables) + 1):
            for cand in self._candidate_words(m, w, need):
                if self.equal_words(cand, w):
                    self._lengths[w] = (m, cap)
                    return m
        self._lengths[w] = (None, cap)
        return None


def _class_sequences(p, m, need):
    """Class sequences c_1..c_m (m >= 1) over F_p, lexicographic, with no two equal
    neighbours and every class c present at least need[c] times. Depth-first: a
    branch is dropped once the occurrences it still owes outnumber the free
    positions."""
    seq = []
    owed = list(need)

    def extend(total):
        left = m - len(seq) - 1  # positions after the one placed now
        prev = seq[-1] if seq else None
        for c in range(p):
            if c == prev:
                continue
            owes = owed[c] > 0
            if total - owes > left:
                continue
            seq.append(c)
            owed[c] -= owes
            if left:
                yield from extend(total - owes)
            else:
                yield tuple(seq)
            owed[c] += owes
            seq.pop()

    return extend(sum(owed))


def make_ggs(p, e):
    """Construct the GGS-group for an odd prime p and nonzero e over F_p."""
    return GgsGroup(p, e)


class Element:
    """A group element, carried as a free-product normal form over its group.

    ``==`` is object identity (``g.a == g.a`` is False); equals() decides equality."""

    __slots__ = ("group", "word")

    def __init__(self, group, word):
        if word.p != group.p:
            raise InputError(f"word modulus {word.p} does not match group p={group.p}")
        _set_group(self, group)
        _set_word(self, word)

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
        if not isinstance(u, tuple):
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

    def equals(self, other):
        self._check_same_group(other)
        return self.group.equal_words(self.word, other.word)

    def is_trivial(self):
        return self.group.equal_words(self.word, self.group._id_word)

    def length(self, cap=DEFAULT_LENGTH_CAP):
        """Minimal syllable length, or None when not certified within cap."""
        return self.group.length_word(self.word, cap)

    def __repr__(self):
        return f"Element({format_word(self.word)!r}, {self.group.spec_string()})"


# slot descriptors write past __setattr__, as in words.GroupWord
_set_group = Element.group.__set__
_set_word = Element.word.__set__


_GROUP_SPEC_RE = re.compile(r"p=(\d+);e=(-?\d+(?:,-?\d+)*)$")


def parse_group_spec(text):
    """Parse a group specification string like 'p=3;e=1,2'."""
    m = _GROUP_SPEC_RE.match(text.strip())
    if m is None:
        raise InputError(f"cannot parse group spec {text!r}; expected p=<prime>;e=<c1>,...,<c_(p-1)>")
    try:
        p = int(m.group(1))
        e = [int(x) for x in m.group(2).split(",")]
    except ValueError:  # past the interpreter's limit on digits in int text
        raise InputError("group spec has an integer with too many digits") from None
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
