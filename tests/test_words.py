import math
import random

import pytest

from bridgetorsion.errors import InvalidFraction
from bridgetorsion.words import (
    GroupRingElement,
    Word,
    build_relator_word,
    fox_derivative,
    fractions_mirror_equivalent,
    knot_determinant,
    longitude_word,
    normalize_two_bridge,
)

CENSUS = [(p, q) for p in range(3, 16, 2) for q in range(1, p, 2) if math.gcd(p, q) == 1]


def rand_word(rng, n=6):
    return Word([(rng.choice("xy"), rng.choice((-2, -1, 1, 2))) for _ in range(n)])


# -- free reduction ---------------------------------------------------------------


def test_reduction_merges_and_cancels():
    w = Word([("x", 1), ("x", 2), ("y", 1), ("y", -1), ("x", -3)])
    assert w == Word()
    assert Word.parse("xYXy").letters == (("x", 1), ("y", -1), ("x", -1), ("y", 1))


def test_reduction_idempotent_and_assembly_invariant():
    rng = random.Random(5)
    for _ in range(60):
        letters = [(rng.choice("xy"), rng.randint(-3, 3)) for _ in range(8)]
        i = rng.randint(0, 8)
        whole = Word(letters)
        split = Word(letters[:i]) * Word(letters[i:])
        assert whole == split
        assert Word(whole.letters) == whole


def test_inverse_and_reverse():
    w = Word.parse("xYXy")
    assert w * w.inverse() == Word()
    assert w.reversed_word() == Word.parse("yXYx")


# -- two-bridge normalization -----------------------------------------------------


def test_trefoil_and_figure_eight():
    t = normalize_two_bridge(3, 1)
    assert (t.p, t.q) == (3, 1)
    assert t.word == Word.parse("xy")
    assert t.sigma == 2
    f = normalize_two_bridge(5, 3)
    assert (f.p, f.q) == (5, 3)
    assert f.word == Word.parse("xYXy")
    assert f.sigma == 0


def test_invalid_fractions():
    with pytest.raises(InvalidFraction):
        normalize_two_bridge(4, 1)
    with pytest.raises(InvalidFraction):
        normalize_two_bridge(9, 3)
    with pytest.raises(InvalidFraction):
        normalize_two_bridge(1, 1)


def test_normalization_moves():
    # q + 2p is the same fraction
    assert normalize_two_bridge(7, 3 + 14).q == 3
    # above p: mirror move 2p - q
    k = normalize_two_bridge(7, 9)  # 9 -> 14 - 9 = 5
    assert (k.q, k.mirror) == (5, True)
    # even q: mod-p mirror move p - q  (figure-eight fraction 5/2)
    k = normalize_two_bridge(5, 2)
    assert (k.q, k.mirror) == (3, True)
    # negative input: -3 = 11 mod 14, then the mirror move gives 3
    k = normalize_two_bridge(7, -3)
    assert (k.q, k.mirror) == (3, True)


def test_word_shape_census():
    for p, q in CENSUS:
        k = normalize_two_bridge(p, q)
        assert len(k.word.letters) == p - 1
        assert all(abs(e) == 1 for _, e in k.word.letters)
        assert k.word.letters[0][0] == "x"
        assert k.sigma == k.word.exponent_sum()


def test_build_word_examples():
    assert build_relator_word(5, 3) == Word.parse("xYXy")
    assert build_relator_word(3, 1) == Word.parse("xy")


# -- Fox calculus -----------------------------------------------------------------


def test_fox_axioms():
    x = Word.parse("x")
    assert fox_derivative(x, "x") == GroupRingElement.from_word(Word())
    assert fox_derivative(x.inverse(), "x") == GroupRingElement.from_word(x.inverse(), -1)
    assert fox_derivative(Word.parse("y"), "x") == GroupRingElement()
    assert fox_derivative(Word.parse("xy"), "x") == GroupRingElement.from_word(Word())


def test_fox_product_rule_random():
    rng = random.Random(13)
    for _ in range(40):
        u, v = rand_word(rng), rand_word(rng)
        lhs = fox_derivative(u * v, "x")
        rhs = fox_derivative(u, "x") + GroupRingElement.from_word(u) * fox_derivative(v, "x")
        assert lhs == rhs


def test_fox_relator_expansion():
    # d(w x w^-1 y^-1)/dx = w + (1 - w x w^-1) dw/dx
    for p, q in ((5, 3), (7, 3), (9, 5)):
        k = normalize_two_bridge(p, q)
        w = k.word
        lhs = fox_derivative(k.relator(), "x")
        wxw = w * Word.parse("x") * w.inverse()
        rhs = (
            GroupRingElement.from_word(w)
            + (GroupRingElement.from_word(Word()) - GroupRingElement.from_word(wxw))
            * fox_derivative(w, "x")
        )
        assert lhs == rhs


def test_fox_fundamental_identity_exact():
    # (dr/dx)(x-1) + (dr/dy)(y-1) = r - 1, so the abelianized sum vanishes
    x, y, one = Word.parse("x"), Word.parse("y"), Word()
    for p, q in CENSUS:
        k = normalize_two_bridge(p, q)
        r = k.relator()
        total = (
            fox_derivative(r, "x") * (GroupRingElement.from_word(x) - GroupRingElement.from_word(one))
            + fox_derivative(r, "y") * (GroupRingElement.from_word(y) - GroupRingElement.from_word(one))
        )
        abelianized = {}
        for w, c in total.terms.items():
            e = w.exponent_sum()
            abelianized[e] = abelianized.get(e, 0) + c
        assert all(v == 0 for v in abelianized.values())


# -- longitude ---------------------------------------------------------------------


def test_longitude_examples():
    f = normalize_two_bridge(5, 3)
    assert longitude_word(f) == Word.parse("yXYx xYXy")
    t = normalize_two_bridge(3, 1)
    assert longitude_word(t) == Word([("y", 1), ("x", 2), ("y", 1), ("x", -4)])


def test_longitude_null_homologous():
    for p, q in CENSUS:
        k = normalize_two_bridge(p, q)
        assert longitude_word(k).exponent_sum() == 0


def test_mirror_fraction_normalizes_to_same_knot():
    for p, q in CENSUS:
        a = normalize_two_bridge(p, q)
        b = normalize_two_bridge(p, p - q)  # the mirror fraction
        assert (b.p, b.q) == (a.p, a.q)
        assert b.mirror != a.mirror


# -- congruence helper ---------------------------------------------------------------


def test_mirror_congruence():
    assert fractions_mirror_equivalent(7, 3, 5)  # 3*5 = 15 = 1 mod 7
    assert fractions_mirror_equivalent(7, 3, 4)  # 4 = -3
    assert not fractions_mirror_equivalent(11, 3, 5)
    assert fractions_mirror_equivalent(5, 3, 3)


def test_knot_determinant_matches_fox_sum():
    # the one-pass integer walk equals |sum of the Fox terms of dr/dx at
    # t = -1| for every normalized fraction with p <= 61
    fractions = [(p, q) for p in range(3, 62, 2) for q in range(1, p, 2) if math.gcd(p, q) == 1]
    for p, q in fractions:
        k = normalize_two_bridge(p, q)
        d = fox_derivative(k.relator(), "x")
        fox = abs(sum(c * (-1) ** (w.exponent_sum() % 2) for w, c in d.terms.items()))
        assert knot_determinant(k) == fox == p, (p, q)


def test_knot_words_built_once():
    # the relator and <-w are built once per knot and equal the words built
    # from scratch
    k = normalize_two_bridge(13, 5)
    w = k.word
    assert k.relator() is k.relator()
    assert k.relator() == w * Word.parse("x") * w.inverse() * Word.parse("Y")
    assert k.reversed_word is k.reversed_word
    assert k.reversed_word == w.reversed_word()
    assert longitude_word(k) == w.reversed_word() * w * Word((("x", -2 * k.sigma),))
