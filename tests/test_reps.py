import cmath
import math
import random

import pytest

from bridgetorsion.curve import Jet2, _relator_jets
from bridgetorsion.errors import IndexOutOfRange
from bridgetorsion.numerics import LaurentPoly, RingMatrix
from bridgetorsion.precision import DOUBLE, Precision
from bridgetorsion.reps import (
    Rep2,
    fox_image,
    metabelian_rep,
    metabelian_u,
    phi_map,
    riley_images,
    word_product,
)
from bridgetorsion.words import (
    GroupRingElement,
    Word,
    fox_derivative,
    longitude_word,
    normalize_two_bridge,
)

CENSUS = [(p, q) for p in range(3, 16, 2) for q in range(1, p, 2) if math.gcd(p, q) == 1]
KERNEL_CENSUS = [(p, q) for p in range(3, 26, 2) for q in range(1, p, 2) if math.gcd(p, q) == 1]
FRACTIONS_41 = [(p, q) for p in range(3, 42, 2) for q in range(1, p, 2) if math.gcd(p, q) == 1]


def rand_word(rng, n=5):
    return Word([(rng.choice("xy"), rng.choice((-2, -1, 1, 2))) for _ in range(n)])


def mat_close(a, b, tol=1e-10):
    return all(abs(x - y) <= tol for x, y in zip(a.entries, b.entries))


# -- metabelian family ---------------------------------------------------------


def test_u_values():
    assert abs(metabelian_u(5, 1) - (-4 * math.sin(math.pi / 5) ** 2)) < 1e-15
    assert abs(metabelian_u(5, 1) + 1.3819660113) < 1e-9
    assert abs(metabelian_u(3, 1) + 3.0) < 1e-14


def test_metabelian_matrices():
    rho = metabelian_rep(5, 1)
    assert abs(rho.img_x.trace()) < 1e-15
    assert abs(rho.img_y.trace()) < 1e-15
    assert abs(rho.img_x.det() - 1) < 1e-15
    assert abs(rho.img_y.det() - 1) < 1e-15
    with pytest.raises(IndexOutOfRange):
        metabelian_rep(5, 3)
    with pytest.raises(IndexOutOfRange):
        metabelian_rep(5, 0)


def test_metabelian_count_and_irreducibility():
    for p, _ in {(p, 0) for p, _ in CENSUS}:
        us = [metabelian_u(p, k) for k in range(1, (p - 1) // 2 + 1)]
        assert len(us) == (p - 1) // 2
        assert len({round(float(u), 12) for u in us}) == len(us)
        # shared eigenvector would need the (2,1) entry -i*u_k to vanish
        assert all(abs(u) > 1e-12 for u in us)


def test_trefoil_trace_identities():
    # brute-force products of the two explicit 2x2 matrices
    rho = metabelian_rep(3, 1)
    u1 = metabelian_u(3, 1)
    m_xy = word_product(rho.img_x, rho.img_y, Word.parse("xy"))
    m_xyinv = word_product(rho.img_x, rho.img_y, Word.parse("xY"))
    assert abs(m_xyinv.trace() - (u1 + 2)) < 1e-12
    assert abs(m_xy.trace() - (-u1 - 2)) < 1e-12


# -- Riley family -----------------------------------------------------------------


def test_riley_matches_metabelian_at_s_minus_one():
    # P(1) and F use one representation: rho_k equals, bit for bit, the
    # value slots of the jet images F's relator pass builds at (-1, u_k)
    extended = Precision("extended")
    for prec, top in ((DOUBLE, 41), (extended, 13)):
        for p, q in [(p, q) for p, q in FRACTIONS_41 if p <= top]:
            knot = normalize_two_bridge(p, q)
            for k in range(1, (p - 1) // 2 + 1):
                rho = metabelian_rep(p, k, prec)
                _, img_x, img_y, *_ = _relator_jets(knot, -1.0, metabelian_u(p, k, prec), prec)
                for meta, jets in ((rho.img_x, img_x), (rho.img_y, img_y)):
                    assert list(meta.entries) == [e.val for e in jets.entries], (p, q, k, prec)


def test_riley_parabolic_corner_and_dets():
    img_x, img_y = riley_images(1, 0)
    assert abs(img_x.trace() - 2) < 1e-15
    assert abs(img_y.trace() - 2) < 1e-15
    rng = random.Random(2)
    for _ in range(20):
        s = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(s) < 0.1:
            continue
        u = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        img_x, img_y = riley_images(cmath.sqrt(s), u)
        assert abs(img_x.det() - 1) < 1e-12
        assert abs(img_y.det() - 1) < 1e-12


# -- word evaluation -----------------------------------------------------------------


def test_empty_word_is_identity():
    rho = metabelian_rep(5, 2)
    m = word_product(rho.img_x, rho.img_y, Word())
    assert mat_close(m, RingMatrix((1 + 0j, 0j, 0j, 1 + 0j)), 1e-15)


def test_homomorphism_property():
    rng = random.Random(17)
    rho = metabelian_rep(7, 2)
    for _ in range(30):
        u, v = rand_word(rng), rand_word(rng)
        lhs = word_product(rho.img_x, rho.img_y, u * v)
        rhs = word_product(rho.img_x, rho.img_y, u) * word_product(rho.img_x, rho.img_y, v)
        assert mat_close(lhs, rhs, 1e-10)


def test_relator_maps_to_identity_census():
    ident = RingMatrix((1 + 0j, 0j, 0j, 1 + 0j))
    for p, q in CENSUS:
        knot = normalize_two_bridge(p, q)
        for k in range(1, (p - 1) // 2 + 1):
            rho = metabelian_rep(p, k)
            m = word_product(rho.img_x, rho.img_y, knot.relator())
            assert mat_close(m, ident, 1e-8), (p, q, k)


def test_metabelian_sends_longitude_to_identity():
    ident = RingMatrix((1 + 0j, 0j, 0j, 1 + 0j))
    for p, q in ((5, 3), (7, 3), (11, 7)):
        knot = normalize_two_bridge(p, q)
        for k in range(1, (p - 1) // 2 + 1):
            rho = metabelian_rep(p, k)
            m = word_product(rho.img_x, rho.img_y, longitude_word(knot))
            assert mat_close(m, ident, 1e-8)


# -- abelianization and Phi -----------------------------------------------------------


def test_abelianization():
    assert Word.parse("x").exponent_sum() == 1
    k = normalize_two_bridge(7, 3)
    assert k.relator().exponent_sum() == 0
    assert longitude_word(k).exponent_sum() == 0


def test_phi_on_y_minus_one():
    rho = metabelian_rep(5, 1)
    elem = GroupRingElement({Word.parse("y"): 1, Word(): -1})
    m = phi_map(rho, elem)
    det = m.det()
    assert det.close_to(LaurentPoly({2: 1, 0: 1}), 1e-12)


def test_phi_identity_and_linearity():
    rho = metabelian_rep(5, 2)
    m = phi_map(rho, GroupRingElement.from_word(Word()))
    assert m.entries[0].close_to(LaurentPoly({0: 1}), 1e-15)
    assert m.entries[1].is_zero and m.entries[2].is_zero

    x = Word.parse("x")
    elem = GroupRingElement({x: 1, x.inverse(): 1})
    got = phi_map(rho, elem)
    rx = word_product(rho.img_x, rho.img_y, x)
    rxi = word_product(rho.img_x, rho.img_y, x.inverse())
    for pos in range(4):
        expected = LaurentPoly({1: rx.entries[pos], -1: rxi.entries[pos]})
        assert got.entries[pos].close_to(expected, 1e-13)


def test_phi_multiplicative_on_words():
    rng = random.Random(29)
    rho = metabelian_rep(9, 2)
    for _ in range(15):
        u, v = rand_word(rng, 3), rand_word(rng, 3)
        lhs = phi_map(rho, GroupRingElement.from_word(u * v))
        rhs = phi_map(rho, GroupRingElement.from_word(u)) * phi_map(
            rho, GroupRingElement.from_word(v)
        )
        for pos in range(4):
            assert lhs.entries[pos].close_to(rhs.entries[pos], 1e-10)


def test_phi_additive_random():
    rng = random.Random(37)
    rho = metabelian_rep(7, 1)
    for _ in range(15):
        e1 = GroupRingElement({rand_word(rng, 3): rng.randint(-3, 3) or 1})
        e2 = GroupRingElement({rand_word(rng, 3): rng.randint(-3, 3) or 1})
        lhs = phi_map(rho, e1 + e2)
        rhs = phi_map(rho, e1) + phi_map(rho, e2)
        for pos in range(4):
            assert lhs.entries[pos].close_to(rhs.entries[pos], 1e-12)


def test_fox_image_matches_phi_of_fox_derivative():
    rng = random.Random(43)
    rho = metabelian_rep(11, 3)
    words = [rand_word(rng, 8) for _ in range(10)]
    words.append(normalize_two_bridge(13, 5).relator())
    for w in words:
        for gen in ("x", "y"):
            got = [LaurentPoly(d) for d in fox_image(rho, w, gen)]
            expected = phi_map(rho, fox_derivative(w, gen))
            for pos in range(4):
                assert got[pos].close_to(expected.entries[pos], 1e-10), (w, gen)


# -- the triangular kernel ------------------------------------------------------------


def _fold(img_x, img_y, w):
    """Reference product: full 2x2 products of the letter images, one
    letter at a time, with an inverse taken as the adjugate."""
    steps = {
        ("x", 1): img_x, ("x", -1): img_x.adjugate(),
        ("y", 1): img_y, ("y", -1): img_y.adjugate(),
    }
    zero = img_x.entries[0] * 0
    result = RingMatrix((zero + 1, zero, zero, zero + 1))
    for g, e in w.letters:
        for _ in range(abs(e)):
            result = result * steps[g, 1 if e > 0 else -1]
    return result


def _entry_coeffs(m):
    return [c for e in m.entries for c in (e.coeffs() if hasattr(e, "coeffs") else [e])]


def _kernel_images(p, k, prec):
    """Images of x and y at a metabelian point with complex entries, and
    as jets in (u, s) at the Riley point (-1, u_k)."""
    u = metabelian_u(p, k, prec)
    zero = u * 0
    rho = metabelian_rep(p, k, prec)
    yield rho.img_x, rho.img_y
    s = Jet2(zero - 1, zero, zero + 1, zero)
    yield riley_images(s.sqrt(prec.sqrt), Jet2(u, zero + 1, zero, zero))


def test_word_product_matches_reference_fold():
    # the triangular kernel computes every coefficient of every entry
    # exactly as the full 2x2 fold does: complex, Jet2 and 30-digit
    # images, over every census word (p <= 25) and its reverse, and random
    # words with runs |e| > 1.  Equality is exact; only the sign of an
    # exact zero may differ, as the fold adds zero terms the kernel skips
    rng = random.Random(53)
    extended = Precision("extended")
    for p, q in KERNEL_CENSUS:
        knot = normalize_two_bridge(p, q)
        k = 1 + q % ((p - 1) // 2)
        words = [knot.word, knot.reversed_word]
        words += [Word([(rng.choice("xy"), rng.choice((-3, -2, 2, 3))) for _ in range(6)])]
        for prec in (DOUBLE, extended):
            for img_x, img_y in _kernel_images(p, k, prec):
                for w in words:
                    got = _entry_coeffs(word_product(img_x, img_y, w))
                    assert got == _entry_coeffs(_fold(img_x, img_y, w)), (p, q, prec.name, w)


def test_word_product_refuses_non_triangular_images():
    # Rep2 is public: an image of another form raises instead of losing
    # its entry
    rho = metabelian_rep(7, 2)
    a, b, _, d = rho.img_x.entries
    e, _, g, h = rho.img_y.entries
    w = normalize_two_bridge(7, 3).word
    lower_x = Rep2(RingMatrix((a, b, 1e-300 + 0j, d)), rho.img_y)
    upper_y = Rep2(rho.img_x, RingMatrix((e, 0.5j, g, h)))
    for rep in (lower_x, upper_y):
        with pytest.raises(ValueError):
            word_product(rep.img_x, rep.img_y, w)
    s = Jet2(-1 + 0j, 0j, 1 + 0j, 0j)
    img_x, img_y = riley_images(s.sqrt(DOUBLE.sqrt), Jet2(metabelian_u(7, 2), 1 + 0j))
    jet_x = RingMatrix(img_x.entries[:2] + (Jet2(0j, 0j, 0j, 1e-300 + 0j), img_x.entries[3]))
    with pytest.raises(ValueError):
        word_product(jet_x, img_y, w)
