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
  underlying tree automorphisms is decided by equal(), a recursion on section
  pairs that contraction makes well-founded.

Sanity anchor for the sign conventions: psi([a, b]) computes to
(b^{-1} a^{e_1}, a^{e_2 - e_1}, ..., a^{e_{p-1} - e_{p-2}}, a^{-e_{p-1}} b).

GgsGroup and Element are immutable; the group carries internal memo tables
(sections, settled equality pairs, certified lengths, interned sections) that
live as long as the group and never shrink. The section memo, keyed by word
and residue, holds what later calls revisit: sections met by equal(), lengths
and the class floor. lemmas.exponent_profile leaves it as it was, since the
sweeps' draws are many (10,497 distinct words among the 20,000 short-section
draws at p=7) and the draw-based sweeps keep a per-call memo of verdicts,
which the lemmas module docstring sizes. Sections themselves are few, because
contraction keeps them short: those draws walk 75,649 sections, and the 30,529
that emit a b-syllable have only 1,637 distinct normal forms. So every section
is interned. One that emits no b-syllable is one of the p words a^0, ...,
a^{p-1} the group builds once; any other is keyed in _interned by its emitted
runs and reduced once. After verify all at seed 0 on the benchmark's five
groups (p=3 e=1,2; p=3 e=1,1; p=5 e=1,0,2,4; p=5 e=1,1,1,1; p=7
e=1,0,0,0,0,0), _interned holds 196, 345, 1,144, 1,082 and 2,677 entries. A
run reduces one section per entry, plus 3 in the second group that the
k-generator check builds for the constant vectors, where reducing every
b-carrying section took 460, 2,298, 4,841, 4,291 and 35,154 reductions.

Text input is read by plain string tests, with no regular expression. A group
spec, once stripped of surrounding whitespace, is "p=", decimal digits, ";e="
and one or more comma-separated entries, each an optional "-" and decimal
digits (words._is_int_text); tests/oracles.py keeps the regex
p=(\\d+);e=(-?\\d+(?:,-?\\d+)*)$ it was, as the oracle. A vertex is letters
of the same optional "-" and digits, separated by dots, each in 1..p.
"""

import itertools

from .errors import CrossCheckError, InputError
from .fp import solve_linear_mod_p, validate_odd_prime
from .words import (GroupWord, class_sums, concat, format_word, invert, normalize, parse_word,
                    power, walk_classes, _is_int_text, _reduce_runs)

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
        # the pairs (j, e_j) with e_j != 0, which exponent_profile reads
        self._support = tuple((j, c) for j, c in enumerate(e, 1) if c)
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
        self._interned = {}
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
        """The section of section_word, computed without touching its memo.

        Walk the syllables left to right tracking the image of the letter under
        the prefix so far: an a-syllable only moves the tracked letter, a
        b-syllable emits b^beta when the letter sits at residue 0 (the letter p)
        and a^{beta * e_v} when it sits at residue v != 0. A section that emits
        no b is _a_powers[run % p]. Any other is interned: the tuple of emitted
        runs, every a-run mod p, keys _interned, so words._reduce_runs reduces
        each distinct tuple once and later walks share its normal form.
        """
        p = self.p
        e = self.e
        v = (r + w.leading_a) % p
        runs = []
        run = 0
        for beta, alpha in w.body:
            if v:
                run += beta * e[v - 1]
            else:
                runs += (run % p, beta)
                run = 0
            v = (v + alpha) % p
        if not runs:
            return self._a_powers[run % p]
        runs.append(run % p)
        key = tuple(runs)
        word = self._interned.get(key)
        if word is None:
            word = self._interned[key] = _reduce_runs(p, runs)
        return word

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

        They are equal iff their root powers match and all p section pairs are
        equal; _equal recurses on that rule and stores each verdict in _eq_true
        or _eq_false at once. Contraction makes the recursion well-founded. A
        section of an m-syllable normal form takes its b-syllables from one
        walk class, and neighbouring syllables differ in class, so it has at
        most ceil(m/2) syllables. When both words have at most one syllable,
        every section is b^beta or a^x, so each section pair is identical or
        differs in its exponent sums. So no pair deeper than ceil(log2 M) =
        (M - 1).bit_length() recurses, for M the larger syllable count, and the
        recursion ends; one that does recurse deeper raises CrossCheckError.
        """
        if w1.p != self.p or w2.p != self.p:
            raise InputError("word modulus does not match group")
        bound = (max(w1.syllables, w2.syllables) - 1).bit_length()
        return self._equal(w1, w2, 0, bound)

    def _equal(self, w1, w2, depth, bound):
        if w1 == w2:
            return True
        # one canonical order, so a pair met either way round shares its entry
        if w1.sort_key() > w2.sort_key():
            w1, w2 = w2, w1
        pair = (w1, w2)
        if pair in self._eq_true:
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
        for r in range(self.p):
            if not self._equal(self.section_word(w1, r), self.section_word(w2, r),
                               depth + 1, bound):
                self._eq_false.add(pair)
                return False
        self._eq_true.add(pair)
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
        B; each is solved by _sequence_candidates, and each candidate still
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
            yield from self._sequence_candidates(cs, ta, sums)

    def _sequence_candidates(self, cs, ta, sums):
        """Normal forms with walk class sequence cs, total a-exponent ta and
        class sums sums: the solutions of the indicator rows with every beta_k
        nonzero, none when the rows are inconsistent."""
        p = self.p
        rows = [[1 if ck == c else 0 for ck in cs] for c in range(p)]
        solution = solve_linear_mod_p(rows, sums, p)
        if solution is None:
            return
        particular, basis = solution
        alphas = tuple((cs[k + 1] - cs[k]) % p for k in range(len(cs) - 1))
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

        Breadth-first over syllable counts; below the last level only words
        passing the class-sum sieve and the class floor are candidates, each
        confirmed with equal(). The first hit is the minimum. The search starts
        at the floor's total, below which no word equals w (past cap it
        answers None at once). The last level is w's own syllable count, which
        w attains: once the levels below are ruled out the answer is
        w.syllables, so that level solves only w's own walk class sequence,
        among whose candidates w is, and raises CrossCheckError if none of
        them confirms. An a-power takes the level-0 branch of the sieve.
        Results are memoized with the level up to which the search is
        exhaustive.
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
        own = walk_classes(w)
        counts = [own.count(c) for c in range(self.p)]
        if any(have < owed for have, owed in zip(counts, need)):
            # w is a word equal to itself, so it always meets its own floor
            raise CrossCheckError(f"{format_word(w)} has walk class counts {counts} "
                                  f"below its own floor {need}")
        last = w.syllables
        for m in range(max(start, sum(need)), min(cap, last) + 1):
            if m < last or not m:
                cands = self._candidate_words(m, w, need)
            else:
                cands = self._sequence_candidates(own, w._ab[0], class_sums(w))
            for cand in cands:
                if self.equal_words(cand, w):
                    self._lengths[w] = (m, cap)
                    return m
            if m == last:
                raise CrossCheckError(f"{format_word(w)} is not among its own "
                                      f"{m}-syllable candidates")
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
        if other.group != self.group:
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


def parse_group_spec(text):
    """Parse a group specification string like 'p=3;e=1,2' (the grammar is
    in the module docstring)."""
    head, sep, tail = text.strip().partition(";e=")
    entries = tail.split(",")
    if not (sep and head[:2] == "p=" and head[2:].isdecimal() and all(map(_is_int_text, entries))):
        raise InputError(f"cannot parse group spec {text!r}; expected p=<prime>;e=<c1>,...,<c_(p-1)>")
    try:
        p = int(head[2:])
        e = [int(x) for x in entries]
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
        if not _is_int_text(piece):
            raise InputError(f"bad vertex letter {piece!r}")
        try:
            x = int(piece)
        except ValueError:  # past the interpreter's limit on digits in int text
            raise InputError(f"bad vertex letter {piece[:12]}... has too many digits") from None
        if not 1 <= x <= p:
            raise InputError(f"vertex letter {x} out of range 1..{p}")
        out.append(x)
    return tuple(out)


def format_vertex(vertex):
    return ".".join(str(x) for x in vertex)
