import cmath
import json
import math
import random
from fractions import Fraction

import pytest

from bridgetorsion import exact
from bridgetorsion.alexander import DIVISION_TOL
from bridgetorsion.curve import Jet2
from bridgetorsion.errors import IndexOutOfRange, InexactDivision
from bridgetorsion.numerics import LaurentPoly, RingMatrix
from bridgetorsion.pipeline import compute_invariants, knot_report, serialize_report
from bridgetorsion.precision import DOUBLE, Precision
from bridgetorsion.reps import (
    Rep2,
    fox_image,
    metabelian_pair,
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


def _letter_jets(image, m, u):
    """The entries of a one-letter ``exact._image`` read at u, as jets in
    (u, h) with h = 4g.  The image carries t^m, m = 1 for y^+-1 and 0 for
    x^+-1; each slot is t^m (c + u v), which, with t^-m taken out, has
    digits (v, c - 2v, v) for t^-1, 1 and t, read as (c + u v) / 4^i at
    g^i."""
    def at_u(x):
        digits = exact._digits(x, 3)
        v, c_minus_2v, w = (digits[(e + m) % 3] for e in (-1, 0, 1))
        assert v == w
        return c_minus_2v + 2 * v + u * v

    return [[at_u(e0), at_u(ed), at_u(es) / 4, at_u(ess) / 16] for e0, ed, es, ess in image]


def test_riley_matches_metabelian_at_s_minus_one():
    # P(1) and F use one representation: the exact route's image of each
    # single letter, r^-1 times its scaled letter (times t for y^+-1), is,
    # bit for bit, the jets of the real pair at (-1, u_k) along
    # s = -1 + h, inverses included, and their value slots are the real
    # pair of rho_k
    b = exact._digit_bits(3)  # the width _letter_jets decodes at
    images = {(gen, sign): exact._image([(gen, sign)], b)[0]
              for gen in "xy" for sign in (1, -1)}
    extended = Precision("extended")
    for prec, top in ((DOUBLE, 41), (extended, 13)):
        for p in range(3, top + 1, 2):
            for k in range(1, (p - 1) // 2 + 1):
                u = metabelian_u(p, k, prec)
                zero = u * 0
                s = Jet2(zero - 1, zero, zero + 1, zero)
                jets = riley_images((-s).sqrt(prec.sqrt), Jet2(u, zero + 1, zero, zero))
                rho = metabelian_pair(p, k, prec)
                for gen, img, meta in zip("xy", jets, (rho.img_x, rho.img_y)):
                    inverse = [-e for e in img.adjugate().entries]  # determinant -1
                    for sign, entries in ((1, img.entries), (-1, inverse)):
                        want = _letter_jets(images[gen, sign], int(gen == "y"), u)
                        assert [e.coeffs() for e in entries] == want, (p, k, gen, sign)
                    assert list(meta.entries) == [e.val for e in img.entries], (p, k, prec)


def test_riley_parabolic_corner_and_dets():
    # the real pair at r = sqrt(-s) has determinants -1, and i times it is
    # Riley's pair, parabolic at the corner s = 1, u = 0 (sqrt(s) = i r = 1
    # at r = -i)
    img_x, img_y = riley_images(-1j, 0)
    assert abs(1j * img_x.trace() - 2) < 1e-15
    assert abs(1j * img_y.trace() - 2) < 1e-15
    rng = random.Random(2)
    for _ in range(20):
        s = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(s) < 0.1:
            continue
        u = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        img_x, img_y = riley_images(cmath.sqrt(-s), u)
        assert abs(img_x.det() + 1) < 1e-12
        assert abs(img_y.det() + 1) < 1e-12


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


def _inverse(m):
    """The adjugate over the determinant."""
    d = 1 / m.det()
    return RingMatrix(e * d for e in m.adjugate().entries)


def _fold(img_x, img_y, w):
    """Reference product: full 2x2 products of the letter images, one
    letter at a time, with an inverse taken as the adjugate over the
    determinant."""
    steps = {
        ("x", 1): img_x, ("x", -1): _inverse(img_x),
        ("y", 1): img_y, ("y", -1): _inverse(img_y),
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
    """Images of x and y at a metabelian point: Riley's, with complex
    entries, and the real pair, with scalar entries and as jets in (u, s)
    at the Riley point (-1, u_k)."""
    u = metabelian_u(p, k, prec)
    zero = u * 0
    for rho in (metabelian_rep(p, k, prec), metabelian_pair(p, k, prec)):
        yield rho.img_x, rho.img_y
    s = Jet2(zero - 1, zero, zero + 1, zero)
    yield riley_images((-s).sqrt(prec.sqrt), Jet2(u, zero + 1, zero, zero))


def test_word_product_matches_reference_fold():
    # the triangular kernel computes every coefficient of every entry
    # exactly as the full 2x2 fold does: complex, real, Jet2 and 30-digit
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
    s = Jet2(-1.0, 0.0, 1.0, 0.0)
    img_x, img_y = riley_images((-s).sqrt(DOUBLE.sqrt), Jet2(metabelian_u(7, 2), 1.0))
    jet_x = RingMatrix(img_x.entries[:2] + (Jet2(0.0, 0.0, 0.0, 1e-300), img_x.entries[3]))
    with pytest.raises(ValueError):
        word_product(jet_x, img_y, w)


def _census_reports():
    """The parsed reports of the 68 census fractions p <= 25."""
    out = []
    for p, q in KERNEL_CENSUS:
        knot = normalize_two_bridge(p, q)
        out.append(json.loads(serialize_report(knot_report(knot, compute_invariants(knot)))))
    return out


def _reference_image(letters, b, tail=()):
    """``exact._image`` by full 2x2 products of ``riley_images`` at
    r = sqrt(-s), s = -1 + 4g, over exact jets in (u, g) at t = 2^b
    (``Jet2`` with Fraction slots, g in its s slot): the images of the
    letters and of the letters followed by tail, each slot packed as
    t^m = 2^(b m) times its value, m the word's letters y^+-1."""
    u = Jet2(Fraction(2 ** b) + Fraction(1, 2 ** b) - 2, 1, 0, 0)
    h = Jet2(0, 0, 4, 0)  # s + 1 = 4g
    r = 1 - h * Fraction(1, 2) - h * h * Fraction(1, 8)  # sqrt(1 - h)
    images = []
    for word in (tuple(letters), tuple(letters) + tuple(tail)):
        scale = 2 ** (b * sum(gen == "y" for gen, _ in word))
        image = []
        for entry in _fold(*riley_images(r, u), Word(word)).entries:
            slots = [Fraction(c) * scale for c in entry.coeffs()]
            assert all(c.denominator == 1 for c in slots)
            image.append(tuple(map(int, slots)))
        images.append(image)
    return images


def test_compute_invariants_matches_reference_fold(monkeypatch):
    # the whole record path, with every word image of the exact route,
    # the peripheral tail x^(-2 sigma) included, taken by the full 2x2 fold
    # of Riley's real pair instead of the homogenized scaled-letter kernel,
    # gives equal report bytes for the 68 census fractions p <= 25
    assert len(KERNEL_CENSUS) == 68
    kernel = _census_reports()
    monkeypatch.setattr(exact, "_image", _reference_image)
    assert _census_reports() == kernel


# -- the real pair and the phase law -------------------------------------------------


def _riley_sl2(rs, u):
    """Riley's images themselves, from sqrt(s) = rs and u: the reference
    the real pair of the program is checked against."""
    inv = 1 / rs
    zero = rs * 0
    return RingMatrix((rs, inv, zero, inv)), RingMatrix((rs, zero, -(u * rs), inv))


def _phase_law_images(p, k, prec):
    """(real pair, Riley's pair) at the metabelian point (-1, u_k), with
    scalar entries and as jets in (u, s)."""
    u = metabelian_u(p, k, prec)
    zero = u * 0
    rho = metabelian_pair(p, k, prec)
    yield (rho.img_x, rho.img_y), _riley_sl2(prec.sqrt(-1), u)
    s = Jet2(zero - 1, zero, zero + 1, zero)
    uj = Jet2(u, zero + 1, zero, zero)
    yield riley_images((-s).sqrt(prec.sqrt), uj), _riley_sl2(s.sqrt(prec.sqrt), uj)


def test_phase_law_bit_for_bit():
    # a word v has Riley image i^alpha(v) times its image under the real
    # pair, bit for bit (== on every coefficient, so only the sign of an
    # exact zero may differ): scalars at u_k and jets at (-1, u_k), in
    # double for every census fraction p <= 25 and at 30 digits for
    # p <= 13, over the word, its reverse, the relator and a random word
    # with inverse letters
    rng = random.Random(71)
    extended = Precision("extended")
    for p, q in KERNEL_CENSUS:
        knot = normalize_two_bridge(p, q)
        words = [knot.word, knot.reversed_word, knot.relator(), rand_word(rng, 7)]
        for prec in (DOUBLE, extended) if p <= 13 else (DOUBLE,):
            i = prec.sqrt(-1)
            for k in range(1, (p - 1) // 2 + 1):
                for real, sl2 in _phase_law_images(p, k, prec):
                    for w in words:
                        phase = i ** (w.exponent_sum() % 4)
                        got = [c * phase for c in _entry_coeffs(word_product(*real, w))]
                        want = _entry_coeffs(word_product(*sl2, w))
                        assert got == want, (p, q, k, prec.name, w)


def _sl2_p_at_one(knot, rep):
    """P(1) from Riley's rho_k itself, with Wada's weight
    t^a = i^a (1, a, a(a-1)/2) at t = i(1 + e): the reference for
    alexander.p_at_one, which reads the real pair."""
    entries = []
    for d in fox_image(rep, knot.relator(), "x"):
        terms = [(a, c * (1, 1j, -1, -1j)[a % 4]) for a, c in d.items()]
        entries.append(Jet2(
            sum(c for _, c in terms),
            s=sum(a * c for a, c in terms),
            ss=sum(a * (a - 1) // 2 * c for a, c in terms),
        ))
    n = RingMatrix(entries).det()
    gap = float(max(abs(n.val), abs(n.s)) / (abs(n.ss) + 1))
    if not gap <= DIVISION_TOL:
        raise InexactDivision(f"gap {gap:.3e}")
    return -n.ss / 4, gap


def test_compute_invariants_matches_riley_sl2():
    # P(1)^2 of every record of the 68 census fractions p <= 25, read off
    # the exact elements, matches P(1) of Riley's rho_k itself (sqrt(s) = i)
    # in double, with Wada's weight i^a
    for p, q in KERNEL_CENSUS:
        knot = normalize_two_bridge(p, q)
        for r in compute_invariants(knot):
            rho = Rep2(*_riley_sl2(1j, metabelian_u(p, r.k)))
            p1, _ = _sl2_p_at_one(knot, rho)
            assert abs(p1 ** 2 - r.p1_squared) <= 1e-9 * r.p1_squared, (p, q, r.k)
