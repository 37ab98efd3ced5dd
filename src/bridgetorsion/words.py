"""Free-group words on the generators x, y; Fox free-differential calculus;
and the normalized two-bridge presentation <x, y | w x = y w>.

Words are stored run-length as (generator, exponent) pairs in freely reduced
form, so peripheral factors like x^(-2*sigma) stay compact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import DeterminantMismatch, InvalidFraction

GENERATORS = ("x", "y")


def _free_reduce(letters):
    stack = []
    for g, e in letters:
        if g not in GENERATORS:
            raise ValueError(f"unknown generator {g!r}")
        e = int(e)
        if e == 0:
            continue
        if stack and stack[-1][0] == g:
            g0, e0 = stack.pop()
            e += e0
            if e == 0:
                continue
        stack.append((g, e))
    return tuple(stack)


class Word:
    """Freely reduced word in x and y, stored as run-length letters."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        self.letters = _free_reduce(letters)

    @classmethod
    def parse(cls, text):
        """Compact form: lowercase = generator, uppercase = inverse ('xYXy')."""
        return cls([(ch.lower(), 1 if ch.islower() else -1) for ch in text if not ch.isspace()])

    @property
    def is_identity(self):
        return not self.letters

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

    def letter_count(self):
        return sum(abs(e) for _, e in self.letters)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        if not self.letters:
            return "Word(1)"
        bits = [g if e == 1 else f"{g}^{e}" for g, e in self.letters]
        return "Word(" + " ".join(bits) + ")"


X = Word((("x", 1),))
Y = Word((("y", 1),))


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
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({Word(): 1})

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
    product rule d(uv)/dg = du/dg + u * dv/dg.
    """
    if gen not in GENERATORS:
        raise ValueError(f"unknown generator {gen!r}")
    acc = {}
    prefix = Word()
    for g, e in w.letters:
        if g == gen:
            # d(g^e)/dg = sum_{i=0..e-1} g^i   (e > 0)
            #           = -sum_{i=1..|e|} g^-i (e < 0)
            if e > 0:
                for i in range(e):
                    term = prefix * Word(((g, i),))
                    acc[term] = acc.get(term, 0) + 1
            else:
                for i in range(1, -e + 1):
                    term = prefix * Word(((g, -i),))
                    acc[term] = acc.get(term, 0) - 1
        prefix = prefix * Word(((g, e),))
    return GroupRingElement(acc)


@dataclass(frozen=True)
class TwoBridgeKnot:
    """Normalized Schubert fraction (p, q) with the derived relator data.

    ``mirror`` records that the input fraction named the mirror of the
    stored representative.
    """

    p: int
    q: int
    word: Word
    sigma: int
    mirror: bool = False

    @property
    def label(self):
        return f"b({self.p},{self.q})"

    def relator(self):
        """The relator w x w^-1 y^-1 of <x, y | w x = y w>."""
        return self._relator

    @cached_property
    def _relator(self):
        return self.word * X * self.word.inverse() * Y.inverse()

    @cached_property
    def reversed_word(self):
        """The word <-w, built once per knot."""
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
    """|Delta(-1)|, the knot determinant, which for b(p, q) is p: the Fox
    derivative of the relator by x at t = -1, in exact integers and one
    walk over the relator.  With a the exponent sum of the letters before
    it, a letter x^e contributes sum_{i<e} (-1)^(a+i) for e > 0 and
    -sum_{i=1..-e} (-1)^(a-i) for e < 0; both are (-1)^a for odd e and 0
    for even e."""
    total = a = 0
    for g, e in knot.relator().letters:
        if g == "x" and e % 2:
            total += -1 if a % 2 else 1
        a += e
    return abs(total)


def normalize_two_bridge(p, q):
    """Reduce (p, q) to the canonical odd representative with 0 < q < p.

    The reduction runs modulo 2p; landing above p applies the mirror move
    q -> 2p - q, and an even residue applies q -> p - q (the mod-p mirror
    class move).  Both toggle the mirror flag.  The constructed word is
    validated against the knot determinant |Delta(-1)| = p.
    """
    p, q = int(p), int(q)
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
    if not 0 < q0 < p:
        raise InvalidFraction(f"q = {q} has no odd representative modulo {2 * p}")
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
