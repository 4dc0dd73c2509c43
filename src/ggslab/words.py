"""Normal forms in the free product C_p * C_p on generators a and b.

Every element has a unique reduced shape

    a^{alpha_1} b^{beta_1} a^{alpha_2} b^{beta_2} ... b^{beta_m} a^{alpha_{m+1}}

with every beta_k nonzero mod p and every interior a-exponent nonzero; the
leading and trailing a-exponents may vanish. The count m of b-syllables is the
word's syllable length. GroupWord stores exactly this shape and is immutable
and hashable, so words serve directly as memo keys elsewhere.

GroupWord(...), normalize and parse_word validate their input. The package's
own reductions (concat, invert, sections in core and the sweep draws in
lemmas) start from tokens they built themselves, with valid generators and
int exponents, so they reduce with _reduce and build the result with
GroupWord._reduced, which checks nothing.
"""

import re

from .errors import InputError
from .fp import validate_odd_prime


class GroupWord:
    """A reduced word: leading a-exponent plus a tuple of (beta, alpha) syllable pairs.

    body[k] = (beta_{k+1}, alpha_{k+2}); only the last pair may carry alpha = 0.
    """

    __slots__ = ("p", "leading_a", "body", "_hash", "_ab")

    def __init__(self, p, leading_a, body):
        validate_odd_prime(p)
        body = tuple((b, a) for b, a in body)
        for x in (leading_a, *(c for pair in body for c in pair)):
            if not isinstance(x, int) or isinstance(x, bool):
                raise InputError(f"exponent must be an integer, got {x!r}")
        if not 0 <= leading_a < p:
            raise InputError(f"leading a-exponent {leading_a} out of range for p={p}")
        last = len(body) - 1
        for k, (b, a) in enumerate(body):
            if not 1 <= b < p:
                raise InputError(f"b-syllable exponent {b} must be nonzero mod {p}")
            if k != last and not 1 <= a < p:
                raise InputError(f"interior a-exponent {a} must be nonzero mod {p}")
            if not 0 <= a < p:
                raise InputError(f"a-exponent {a} out of range for p={p}")
        self._fill(p, leading_a, body)

    @classmethod
    def _reduced(cls, p, leading_a, body):
        """A word from parts already in normal form: residues, every beta and
        every interior alpha nonzero, body a tuple of pairs. Nothing is checked."""
        w = object.__new__(cls)
        w._fill(p, leading_a, body)
        return w

    def _fill(self, p, leading_a, body):
        ta, tb = leading_a, 0
        for beta, alpha in body:
            tb += beta
            ta += alpha
        _set_p(self, p)
        _set_leading_a(self, leading_a)
        _set_body(self, body)
        _set_ab(self, (ta % p, tb % p))
        _set_hash(self, hash((p, leading_a, body)))

    def __setattr__(self, name, val):
        raise AttributeError("GroupWord is immutable")

    @classmethod
    def identity(cls, p):
        return cls(p, 0, ())

    @property
    def is_identity(self):
        return self.leading_a == 0 and not self.body

    @property
    def syllables(self):
        return len(self.body)

    def exponent_sums(self):
        """(total a-exponent, total b-exponent) mod p."""
        return self._ab

    def tokens(self):
        """Expand back to a (gen, exp) token list; zero exponents are omitted."""
        toks = []
        if self.leading_a:
            toks.append(("a", self.leading_a))
        for b, a in self.body:
            toks.append(("b", b))
            if a:
                toks.append(("a", a))
        return toks

    def sort_key(self):
        return (self.syllables, self.leading_a, self.body)

    def __mul__(self, other):
        return concat(self, other)

    def __invert__(self):
        return invert(self)

    def __pow__(self, n):
        return power(self, n)

    def __eq__(self, other):
        if not isinstance(other, GroupWord):
            return NotImplemented
        return self.p == other.p and self.leading_a == other.leading_a and self.body == other.body

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"GroupWord({format_word(self)!r}, p={self.p})"


# The slots' own descriptors write past the immutability guard in __setattr__,
# at half the cost of object.__setattr__ looking each name up.
_set_p = GroupWord.p.__set__
_set_leading_a = GroupWord.leading_a.__set__
_set_body = GroupWord.body.__set__
_set_ab = GroupWord._ab.__set__
_set_hash = GroupWord._hash.__set__


def normalize(raw, p):
    """Reduce a (gen, exp) token sequence to its unique normal form."""
    validate_odd_prime(p)
    toks = []
    for gen, exp in raw:
        if gen not in ("a", "b"):
            raise InputError(f"unknown generator {gen!r}")
        if not isinstance(exp, int) or isinstance(exp, bool):
            raise InputError(f"exponent must be an integer, got {exp!r}")
        toks.append((gen, exp))
    return _reduce(toks, p)


def _reduce(tokens, p):
    """Normal form of (gen, exp) tokens with gen in {"a", "b"} and int exp.

    A single left-to-right pass over a stack reaches the fixpoint: merging two
    adjacent same-generator runs can only expose one earlier run, which the
    stack top already is. The stack alternates generators, so its top's follows
    from its length and first, its bottom's. After an optional leading a-run
    its exponents read beta_1, alpha_2, beta_2, ...
    """
    exps = []  # nonzero residues, one per run
    first = None
    for gen, exp in tokens:
        e = exp % p
        if not e:
            continue
        if exps and (gen == first) == len(exps) % 2:
            e = (exps[-1] + e) % p
            if e:
                exps[-1] = e
            else:
                exps.pop()
        else:
            if not exps:
                first = gen
            exps.append(e)
    lead = 0
    if first == "a" and exps:
        lead = exps[0]
        del exps[0]
    if len(exps) % 2:
        exps.append(0)
    return GroupWord._reduced(p, lead, tuple(zip(exps[::2], exps[1::2])))


def class_sums(w):
    """B_0, ..., B_{p-1}: B_c sums beta_k over the syllables of walk class
    c_k = c + alpha_1 + ... + alpha_{k-1} in a^{c} b^{beta_1} a^{alpha_1} ...;
    it is the b-exponent of the first-level section at residue -c."""
    p = w.p
    sums = [0] * p
    c = w.leading_a
    for beta, alpha in w.body:
        sums[c] = (sums[c] + beta) % p
        c = (c + alpha) % p
    return sums


def class_counts(w):
    """How many syllables of w fall in each walk class c_k, as in class_sums."""
    p = w.p
    counts = [0] * p
    c = w.leading_a
    for _, alpha in w.body:
        counts[c] += 1
        c = (c + alpha) % p
    return counts


def concat(w1, w2):
    if w1.p != w2.p:
        raise InputError(f"modulus mismatch: {w1.p} vs {w2.p}")
    return _reduce(w1.tokens() + w2.tokens(), w1.p)


def invert(w):
    return _reduce([(g, -e) for g, e in reversed(w.tokens())], w.p)


def power(w, n):
    if not isinstance(n, int) or isinstance(n, bool):
        raise InputError(f"exponent must be an integer, got {n!r}")
    if n < 0:
        return power(invert(w), -n)
    result = GroupWord.identity(w.p)
    base = w
    while n:
        if n & 1:
            result = concat(result, base)
        n >>= 1
        if n:
            base = concat(base, base)
    return result


def random_word(p, max_syllables, rng):
    """A normal form with syllable length chosen uniformly in 0..max_syllables.

    Within each shape every exponent is uniform over its allowed range:
    beta and interior alpha over F_p \\ {0}, leading and trailing alpha over F_p.
    Deterministic given the rng, a random.Random.
    """
    validate_odd_prime(p)
    if max_syllables < 0:
        raise InputError("max_syllables must be >= 0")
    m = rng.randint(0, max_syllables)
    lead = rng.randrange(p)
    body = []
    for k in range(m):
        beta = rng.randrange(1, p)
        alpha = rng.randrange(1, p) if k < m - 1 else rng.randrange(p)
        body.append((beta, alpha))
    return GroupWord(p, lead, tuple(body))


_TOKEN_RE = re.compile(r"([ab])(?:\^(-?\d+))?$")


def parse_word(text, p):
    """Parse whitespace-separated tokens a, b, a^k, b^k; "1" or the empty
    string is the identity."""
    pieces = text.split()
    if pieces == ["1"]:
        return GroupWord.identity(p)
    toks = []
    for piece in pieces:
        m = _TOKEN_RE.match(piece)
        if m is None:
            raise InputError(f"cannot parse word token {piece!r}")
        try:
            exp = int(m.group(2)) if m.group(2) is not None else 1
        except ValueError:  # past the interpreter's limit on digits in int text
            raise InputError(f"exponent of {piece[:12]}... has too many digits") from None
        toks.append((m.group(1), exp))
    return normalize(toks, p)


def format_word(w):
    """Render a normal form in the same token format parse_word accepts."""
    if w.is_identity:
        return "1"
    parts = []
    for g, e in w.tokens():
        parts.append(g if e == 1 else f"{g}^{e}")
    return " ".join(parts)
