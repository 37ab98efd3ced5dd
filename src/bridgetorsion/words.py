"""Free-group words on the generators x, y; Fox free-differential calculus;
and the normalized two-bridge presentation <x, y | w x = y w>.

Words are stored as freely reduced unit letters (generator, +/-1), so a
peripheral power such as x^(-2*sigma) is |2 sigma| letters, and every word
walk (``reps.word_product``, the exact route's ``exact._image``) takes it
letter by letter.
"""

import math
import operator
from collections import namedtuple

from .errors import DeterminantMismatch, InvalidFraction

GENERATORS = ("x", "y")


def _free_reduce(pairs):
    """Unit letters of the pairs (generator, exponent), freely reduced, one
    unit letter at a time, with int exponents."""
    stack = []
    for g, e in pairs:
        if g not in GENERATORS:
            raise ValueError(f"unknown generator {g!r}")
        e = int(e)
        sign = 1 if e > 0 else -1
        for _ in range(abs(e)):
            if stack and stack[-1] == (g, -sign):
                stack.pop()
            else:
                stack.append((g, sign))
    return tuple(stack)


class Word:
    """Freely reduced word in x and y, stored as unit letters (g, +/-1);
    the constructor also takes (g, e) pairs and expands them."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        self.letters = _free_reduce(letters)

    @classmethod
    def parse(cls, text):
        """Compact form: lowercase = generator, uppercase = inverse ('xYXy')."""
        return cls([(ch.lower(), 1 if ch.islower() else -1) for ch in text if not ch.isspace()])

    def __mul__(self, other):
        return Word(self.letters + other.letters)

    def inverse(self):
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def reversed_word(self):
        """Letters in reverse order with the same exponents (the word <-w)."""
        return Word(tuple(reversed(self.letters)))

    def exponent_sum(self):
        """Total exponent sum, i.e. the abelianization image x, y -> t."""
        return sum(e for _, e in self.letters)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        if not self.letters:
            return "Word(1)"
        bits = [g if e == 1 else f"{g}^-1" for g, e in self.letters]
        return "Word(" + " ".join(bits) + ")"


class GroupRingElement:
    """Finite integer combination of freely reduced words (element of Z[F])."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        cleaned = {}
        if terms:
            for w, c in terms.items():
                c = int(c)
                if c:
                    cleaned[w] = c
        self.terms = cleaned

    @classmethod
    def from_word(cls, w, coeff=1):
        return cls({w: coeff})

    def __add__(self, other):
        merged = dict(self.terms)
        for w, c in other.terms.items():
            merged[w] = merged.get(w, 0) + c
        return GroupRingElement(merged)

    def __neg__(self):
        return GroupRingElement({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Word):
            other = GroupRingElement.from_word(other)
        if isinstance(other, int):
            return GroupRingElement({w: c * other for w, c in self.terms.items()})
        prod = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 * w2
                prod[w] = prod.get(w, 0) + c1 * c2
        return GroupRingElement(prod)

    def __eq__(self, other):
        return isinstance(other, GroupRingElement) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "GroupRingElement(0)"
        bits = [f"{c}*{w!r}" for w, c in self.terms.items()]
        return "GroupRingElement(" + " + ".join(bits) + ")"


def fox_derivative(w, gen):
    """Fox differential d(w)/d(gen) in Z[F].

    Satisfies dg/dg = 1, d(g^-1)/dg = -g^-1, dh/dg = 0 for h != g, and the
    product rule d(uv)/dg = du/dg + u * dv/dg: a letter g adds the prefix
    before it, a letter g^-1 subtracts the prefix after it.
    """
    if gen not in GENERATORS:
        raise ValueError(f"unknown generator {gen!r}")
    acc = {}
    for i, (g, e) in enumerate(w.letters):
        if g == gen:
            term = Word(w.letters[:i] if e > 0 else w.letters[:i + 1])
            acc[term] = acc.get(term, 0) + e
    return GroupRingElement(acc)


class TwoBridgeKnot(namedtuple("TwoBridgeKnot", "p q word sigma mirror", defaults=(False,))):
    """Normalized Schubert fraction (p, q) with its word w and sigma, the
    exponent sum of w.

    ``mirror`` records that the input fraction named the mirror of the
    stored representative.  Immutable, with no instance dict: the relator
    and <-w, which only the float routes walk, are built on each use.
    """

    __slots__ = ()

    @property
    def label(self):
        return f"b({self.p},{self.q})"

    def relator(self):
        """The relator w x w^-1 y^-1 of <x, y | w x = y w>."""
        # freely reduced as it stands: w alternates x and y, starts with x
        # and ends with y
        w = self.word.letters
        return Word(w + (("x", 1),) + tuple((g, -e) for g, e in reversed(w)) + (("y", -1),))

    @property
    def reversed_word(self):
        """The word <-w."""
        return self.word.reversed_word()


def build_relator_word(p, q):
    """The standard two-bridge word w = x^(e1) y^(e2) ... y^(e_{p-1}),
    e_i = (-1)^floor(i*q/p)."""
    letters = []
    for i in range(1, p):
        eps = -1 if ((i * q) // p) % 2 else 1
        letters.append(("x" if i % 2 else "y", eps))
    return Word(letters)


def longitude_word(knot):
    """Preferred longitude <-w * w * x^(-2*sigma); null-homologous by construction."""
    return knot.reversed_word * knot.word * Word((("x", -2 * knot.sigma),))


def knot_determinant(knot):
    """|Delta(-1)|, the knot determinant, which for b(p, q) is p, in exact
    integers and one walk over w.  Fox's rule dr/dx = (1 - w x w^-1) dw/dx + w
    maps under x, y -> t to (1 - t) d(t) + t^sigma, d the image of dw/dx:
    at t = -1, 2 d(-1) + (-1)^sigma.  A letter x^+-1 after letters of
    exponent sum a adds (-1)^a to d(-1); sigma is the final a."""
    total = a = 0
    for g, e in knot.word.letters:
        if g == "x":
            total += -1 if a % 2 else 1
        a += e
    return abs(2 * total + (-1 if a % 2 else 1))


def normalize_two_bridge(p, q):
    """Reduce (p, q) to the canonical odd representative with 0 < q < p.

    The reduction runs modulo 2p; landing above p applies the mirror move
    q -> 2p - q, and an even residue applies q -> p - q (the mod-p mirror
    class move).  Both toggle the mirror flag.  The constructed word is
    validated against the knot determinant |Delta(-1)| = p, read from w.
    """
    try:
        p, q = operator.index(p), operator.index(q)
    except TypeError:
        raise InvalidFraction(f"fraction {p!r}/{q!r} must have integer terms") from None
    if p < 3 or p % 2 == 0:
        raise InvalidFraction(f"p = {p} must be an odd integer >= 3")
    if math.gcd(p, q) != 1:
        raise InvalidFraction(f"gcd({p}, {q}) != 1")
    q0 = q % (2 * p)
    mirror = False
    if q0 > p:
        q0 = 2 * p - q0
        mirror = not mirror
    if q0 % 2 == 0:
        q0 = p - q0
        mirror = not mirror
    w = build_relator_word(p, q0)
    knot = TwoBridgeKnot(p, q0, w, w.exponent_sum(), mirror)
    det = knot_determinant(knot)
    if det != p:
        raise DeterminantMismatch(
            f"|Delta(-1)| = {det} != p = {p} for fraction {p}/{q}"
        )
    return knot


def fractions_mirror_equivalent(p, qa, qb):
    """Whether qb is congruent to one of +/- qa^{+/-1} mod p (lens-space
    homeomorphism condition, i.e. equality of knots up to mirror image)."""
    qa, qb = qa % p, qb % p
    inv = pow(qa, -1, p)
    return qb in {qa, p - qa, inv, (p - inv) % p}
