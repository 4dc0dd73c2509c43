"""Normal forms in the free product C_p * C_p on generators a and b.

Every element has a unique reduced shape

    a^{alpha_1} b^{beta_1} a^{alpha_2} b^{beta_2} ... b^{beta_m} a^{alpha_{m+1}}

with every beta_k nonzero mod p and every interior a-exponent nonzero; the
leading and trailing a-exponents may vanish. The count m of b-syllables is the
word's syllable length. GroupWord stores exactly this shape and is immutable
and hashable, so words serve directly as memo keys elsewhere.

GroupWord(...), normalize and parse_word validate their input. normalize,
concat, invert, the sections in core and the sweep draws in lemmas reduce
through _reduce_runs; it and random_word, whose draws are normal forms by
construction, build words with GroupWord._reduced, which checks nothing.

Every random draw in the package runs _below's rejection loop, the
getrandbits loop that random.Random.randrange(n) runs, without randrange's
argument checks: by calling _below, or, in the sweep draws of lemmas, with
getrandbits and the bit width n.bit_length() bound once and the loop run in
place. randrange(n), randrange(1, n) and randint(a, b) draw _below(n),
1 + _below(n - 1) and a + _below(b - a + 1) and consume the same getrandbits
words (CPython 3.10 to 3.13), so a seed gives the streams, the verify reports
and the golden rows it gave when the draws called them.

parse_word reads text by plain string tests, with no regular expression, so
importing the package compiles no pattern and loads neither re nor
collections. A token is a or b, alone or followed by "^" and an exponent: an
optional "-" and one or more decimal digits, as _is_int_text decides, which
core's group-spec and vertex parsers share. tests/oracles.py keeps the regex
([ab])(?:\\^(-?\\d+))?$ this grammar was, and the tests check the two agree.
"""

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
    runs = [0]
    for gen, exp in raw:
        if gen not in ("a", "b"):
            raise InputError(f"unknown generator {gen!r}")
        if not isinstance(exp, int) or isinstance(exp, bool):
            raise InputError(f"exponent must be an integer, got {exp!r}")
        # runs alternates a, b, a, ..., so its last run is an a-run at odd length
        if (gen == "a") == len(runs) % 2:
            runs[-1] += exp
        else:
            runs.append(exp)
    if not len(runs) % 2:
        runs.append(0)
    return _reduce_runs(p, runs)


def _reduce_runs(p, runs):
    """Normal form of the raw word a^{a_0} b^{b_1} a^{a_1} ... b^{b_k} a^{a_k},
    given as its exponent runs [a_0, b_1, a_1, ..., b_k, a_k]: odd length, any
    ints. Every reduction in the package goes through this one loop.

    A single left-to-right pass reaches the fixpoint. It keeps the reduced
    prefix exps = [a_0, b_1, a_1, ..., b_k], residues with every b and every
    interior a nonzero, and run, the a-sum since b_k. A b-run of 0 mod p
    vanishes, so the a-runs either side of it add up in run. A b-run after a
    run of 0 mod p merges into b_k; when that cancels b_k, the loop pops back
    to a_{k-1} as its run, and the next b-run may cancel b_{k-1} in turn.
    Otherwise run and the b-run join the prefix.
    """
    run = runs[0]
    exps = []
    for k in range(1, len(runs), 2):
        beta = runs[k] % p
        if beta:
            if exps and not run % p:
                b = (exps[-1] + beta) % p
                if b:
                    exps[-1] = b
                else:
                    exps.pop()
                    run = exps.pop()
            else:
                exps += (run % p, beta)
                run = 0
        run += runs[k + 1]
    exps.append(run % p)
    return GroupWord._reduced(p, exps[0], tuple(zip(exps[1::2], exps[2::2])))


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


def walk_classes(w):
    """The walk class c_k of each syllable of w, as in class_sums."""
    p = w.p
    classes = []
    c = w.leading_a
    for _, alpha in w.body:
        classes.append(c)
        c = (c + alpha) % p
    return tuple(classes)


def _runs(w):
    """The exponent runs [a_0, b_1, a_1, ..., b_k, a_k] of a normal form."""
    return [w.leading_a, *(x for pair in w.body for x in pair)]


def concat(w1, w2):
    if w1.p != w2.p:
        raise InputError(f"modulus mismatch: {w1.p} vs {w2.p}")
    runs = _runs(w1)
    runs[-1] += w2.leading_a
    runs += _runs(w2)[1:]
    return _reduce_runs(w1.p, runs)


def invert(w):
    return _reduce_runs(w.p, [-x for x in reversed(_runs(w))])


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


def _below(rng, n):
    """A uniform draw from range(n), n >= 1, as rng.randrange(n) draws it."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def random_word(p, max_syllables, rng):
    """A normal form with syllable length chosen uniformly in 0..max_syllables.

    Within each shape every exponent is uniform over its allowed range:
    beta and interior alpha over F_p \\ {0}, leading and trailing alpha over F_p.
    Deterministic given the rng, a random.Random.
    """
    validate_odd_prime(p)
    if not isinstance(max_syllables, int) or isinstance(max_syllables, bool):
        raise InputError(f"max_syllables must be an integer, got {max_syllables!r}")
    if max_syllables < 0:
        raise InputError("max_syllables must be >= 0")
    m = _below(rng, max_syllables + 1)
    lead = _below(rng, p)
    body = []
    for k in range(m):
        beta = 1 + _below(rng, p - 1)
        alpha = 1 + _below(rng, p - 1) if k < m - 1 else _below(rng, p)
        body.append((beta, alpha))
    return GroupWord._reduced(p, lead, tuple(body))


def _is_int_text(s):
    """Whether s is an optional "-" and then one or more decimal digits: the
    digits are str.isdecimal(), Unicode category Nd, which is exactly what
    \\d matches in a str pattern (isdigit would also take "²")."""
    return s[1:].isdecimal() if s[:1] == "-" else s.isdecimal()


def parse_word(text, p):
    """Parse whitespace-separated tokens a, b, a^k, b^k; "1" or the empty
    string is the identity (the token grammar is in the module docstring)."""
    pieces = text.split()
    if pieces == ["1"]:
        return GroupWord.identity(p)
    toks = []
    for piece in pieces:
        gen, exp = piece[:1], piece[2:]
        if gen not in ("a", "b") or (len(piece) > 1 and (piece[1] != "^" or not _is_int_text(exp))):
            raise InputError(f"cannot parse word token {piece!r}")
        try:
            toks.append((gen, int(exp) if exp else 1))
        except ValueError:  # past the interpreter's limit on digits in int text
            raise InputError(f"exponent of {piece[:12]}... has too many digits") from None
    return normalize(toks, p)


def format_word(w):
    """Render a normal form in the same token format parse_word accepts."""
    if w.is_identity:
        return "1"
    parts = []
    for g, e in w.tokens():
        parts.append(g if e == 1 else f"{g}^{e}")
    return " ".join(parts)
