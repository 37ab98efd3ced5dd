import hashlib
import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest

from bridgetorsion import exact
from bridgetorsion.errors import RecordError
from bridgetorsion.pipeline import (
    compare_knots,
    compute_invariants,
    metabelian_pairing,
    tau_multiset,
)
from bridgetorsion.words import normalize_two_bridge

CENSUS_25 = [(p, q) for p in range(3, 26, 2) for q in range(1, p, 2) if math.gcd(p, q) == 1]
LADDER = [(5, 3), (15, 7), (41, 11), (61, 17), (101, 31)]


def _lens_50(p, q, k):
    """1/(u_k u_{kr}) = 1/(16 sin^2(k pi/p) sin^2(k r pi/p)) at 50 digits."""
    r = pow(q, -1, p)
    with mpmath.workdps(50):
        s = mpmath.sin(mpmath.pi * k / p) * mpmath.sin(mpmath.pi * (k * r % p) / p)
        return 1 / (16 * s * s)


def test_census_passes_every_zero_test():
    # every check of the exact pass holds for the 68 fractions p <= 25, and
    # each tau is the 50-digit lens value to within a rounding or two
    assert len(CENSUS_25) == 68
    for p, q in CENSUS_25:
        readings = exact.read(exact.knot_elements(normalize_two_bridge(p, q)))
        for k in range(1, (p - 1) // 2 + 1):
            reading = readings[metabelian_pairing(p, k) - 1]
            assert reading.margin_bits >= exact.MIN_MARGIN_BITS, (p, q, k)
            want = _lens_50(p, q, k)
            assert abs(reading.tau - want) <= 4e-16 * want, (p, q, k)


def test_spot_check_at_1001_375():
    # every tau of 1001/375 is the 50-digit lens value to within a rounding
    # or two, and both guards of the exact pass have headroom there: the
    # least readout margin is above MIN_MARGIN_BITS (92 bits against 64) and
    # the largest unpacked coefficient below GUARD_BITS (14 bits against 32)
    p, q = 1001, 375
    elements = exact.knot_elements(normalize_two_bridge(p, q))
    readings = exact.read(elements)
    margin = exact.READOUT_BITS
    for k in range(1, (p - 1) // 2 + 1):
        reading = readings[metabelian_pairing(p, k) - 1]
        margin = min(margin, reading.margin_bits)
        want = _lens_50(p, q, k)
        assert abs(reading.tau - want) <= 4e-16 * want, k
    coefficient_bits = max(max(map(abs, c)).bit_length() for c in elements)
    print(f"1001/375 headroom: margin {margin} bits against {exact.MIN_MARGIN_BITS}, "
          f"coefficients {coefficient_bits} bits against {exact.GUARD_BITS}")
    assert margin > exact.MIN_MARGIN_BITS
    assert coefficient_bits < exact.GUARD_BITS


def test_intermediate_digit_headroom_at_1001_375():
    # a product of two folded elements whose coefficients have at most a
    # and b bits has coefficients of at most p 2^(a + b), and a sum of
    # `terms` such products at most terms p 2^(a + b); below
    # 2^(DIGIT_BITS - 1) each coefficient fits its signed digit, so no
    # carry crosses into the next.  At 1001/375 the operands of every
    # product knot_elements forms are decoded: the 8 slots of the two
    # dividends of C W C, unfolded, before their division by (t + 1)^2
    # (while they fit their digits, a zero remainder is a polynomial
    # division), the 32 unworded slots of rho(<-w) and of W x^(-2 sigma)
    # after it, and the Fox terms after the (I - Phi(y)) step, whose
    # weighted sums are the 12 Fox jets; then the longitude slots and phi
    # that estimate (b) and D multiply, and the identity's n_ss(t^2)^2,
    # whose coefficients are those of n_ss^2 permuted; the one zero test
    # that takes no product, phi_u's closed form, sums four shifts of phi_u
    # and p t^((p+3)/2), so its coefficients are at most 4 2^bits(phi_u) + p
    knot = normalize_two_bridge(1001, 375)
    p, b = knot.p, exact.DIGIT_BITS

    def fold(x):
        return exact._fold(x, b * p)

    def bits(*xs):
        return max(max(map(abs, exact._digits(x, p))).bit_length() for x in xs)

    def unfolded_bits(*xs):  # of ints of degree below p + 2 in t, decoded whole
        digits = [exact._digits(x, p + 2) for x in xs]
        assert [sum(c << b * e for e, c in enumerate(ds)) for ds in digits] == list(xs)
        return max(max(map(abs, ds)).bit_length() for ds in digits)

    unword = b * ((p + 1) // 2)
    tail = [("x", -1 if knot.sigma > 0 else 1)] * abs(2 * knot.sigma)
    w, v = exact._image(knot.word.letters, b, tail)
    dividends = exact._dividends(w, b)
    k, r12 = exact._divide(dividends, b, p, knot.label)
    (r00, r01, r11), (v00, v01, v10, v11) = (
        [[fold(x << unword) for x in jet] for jet in image]
        for image in (([x + y for x, y in zip(w[0], k)], r12, [x - y for x, y in zip(w[3], k)]), v))
    r10 = [fold(x << unword - b) for x in exact._tv(r12, b)]
    one = 1 << b * (p + 1)
    terms = exact._fox_terms(knot.word, b, one)
    term_slots = [fold(x << b * (p - 1)) for term in terms.values() for x in term]
    a, bb, c, dd = ([fold(x << b * (p - 1)) for x in jet] for jet in exact._fox_jets(knot.word, b, one))
    walk, fox = r00 + r01 + r10 + r11 + v00 + v01 + v10 + v11, a + bb + c + dd
    assert (len(walk), len(fox), len(term_slots)) == (32, 12, 4 * len(terms))

    l00, l11 = exact._dot(r00, v00, r01, v10, fold), exact._dot(r10, v01, r11, v11, fold)
    l01 = exact._dot(r00, v01, r01, v11, fold, False)
    l10 = exact._dot(r10, v00, r11, v10, fold, False)
    d = fold(l01[1] * l10[1] - l00[2] * l11[2])
    phi_d, phi_ss = (fold(x << unword) for x in (w[0][1] + 2 * w[1][1],
                                                 w[0][3] + 2 * w[1][3] - 4 * w[1][2]))
    n_ss = fold(a[0] * dd[2] + a[1] * dd[1] + a[2] * dd[0] - bb[0] * c[2] - bb[1] * c[1]
                - bb[2] * c[0])
    u2, u2r = ((1 << b * (m % p)) + (1 << b * (-m % p)) - 2 for m in (2, 2 * pow(knot.q, -1, p)))
    products = {  # the products' operands: (terms, a + b)
        "walk slots": (6, bits(*walk[:16]) + bits(*walk[16:])),
        "Fox jets": (6, 2 * bits(*fox)),
        "D": (2, 2 * bits(l01[1], l10[1], l00[2], l11[2])),
        "estimate (b)": (2, bits(phi_d, phi_ss) + bits(l00[1] + l11[1], l00[3] + l11[3] - d)),
        "n_ss^2": (1, 2 * bits(n_ss)),
        "u_k u_kr": (1, 2 * bits(u2, u2r)),
        "n_ss^2 u_k u_kr": (1, bits(fold(n_ss * n_ss)) + bits(fold(u2 * u2r))),
    }
    # the products' coefficients are below 2^bound, and so are the closed
    # form's, the dividends' and the Fox jets', sums of the terms weighted
    # by at most max(1, |a|, |a(a - 1)/2|) each
    bounds = {name: (terms * p << ab).bit_length() for name, (terms, ab) in products.items()}
    bounds["phi_u closed form"] = ((4 << bits(phi_d)) + p).bit_length()
    bounds["C W C dividends"] = unfolded_bits(*(x for jet in dividends for x in jet))
    weight = sum(max(1, abs(a), abs(a * (a - 1) // 2)) for a in terms)
    bounds["Fox terms to jets"] = (weight << bits(*term_slots)).bit_length()
    print(f"1001/375 operand bits: walk slots {bits(*walk)}, Fox terms {bits(*term_slots)}, "
          f"Fox jets {bits(*fox)}")
    for name, bound in bounds.items():
        print(f"1001/375 {name}: coefficients below 2^{bound}, headroom "
              f"{b - 1 - bound} bits against 2^{b - 1}")
        assert bound <= b - 1, name


@pytest.mark.parametrize("p, q, other", [(11, 3, 5), (41, 11, 3), (21, 13, 5)])
def test_identity_fails_with_the_lens_of_another_fraction(p, q, other):
    # the identity pairs u_k with u_{kr}, r = q^-1 mod p; the r of an
    # inequivalent fraction fails it, while every other check still holds
    knot = normalize_two_bridge(p, q)
    with pytest.raises(RecordError, match=r"P\(1\)\^2 F u_k u_kr = 1 fails"):
        exact.knot_elements(knot._replace(q=other))


def test_element_beyond_the_guard_fails_every_record(monkeypatch):
    # checked_elements alone guards the elements: with the e^2 slots of the
    # Fox jets shifted left by 40 bits, n_ss has coefficients of 32 bits or
    # more while every zero test of 7/3 still passes, and each record fails
    # with that element's name
    fox_jets = exact._fox_jets

    def shifted(relator, b, one):
        return [[val, e, ee << 40] for val, e, ee in fox_jets(relator, b, one)]

    monkeypatch.setattr(exact, "_fox_jets", shifted)
    records = compute_invariants(normalize_two_bridge(7, 3))
    assert [r.error for r in records] == [
        "RecordError: 4 P(1) has a coefficient of 32 bits or more"] * 3


def test_phi_u_off_by_one_fails_its_closed_form(monkeypatch, break_letter):
    # Riley's smoothness is a zero test of its own: with the du slot of
    # W11 off by one, every record of 7/3 fails "phi_u closed form", the
    # check before the division C W C / c; break_letter, which leaves every
    # du slot alone, passes it and fails first at that division, whose g^2
    # slots it breaks
    knot = normalize_two_bridge(7, 3)
    image = exact._image

    def off(letters, b, tail=()):
        ((val, du, g, gg), *others), rest = image(letters, b, tail)
        return [(val, du + 1, g, gg), *others], rest

    monkeypatch.setattr(exact, "_image", off)
    assert [r.error for r in compute_invariants(knot)] == [
        "RecordError: phi_u closed form fails in Z[t]/(t^7 - 1) for b(7,3)"] * 3
    monkeypatch.setattr(exact, "_image", image)
    break_letter()
    assert [r.error for r in compute_invariants(knot)] == [
        "RecordError: rho(<-w) = C W C / c fails in Z[t] for b(7,3)"] * 3


def test_tail_off_in_its_g2_slot_fails_estimate_b(monkeypatch):
    # a break that no earlier check reads: the g^2 slot of W x^(-2 sigma)
    # alone, off by its value slot, leaves phi, the division C W C / c,
    # L = I and tr L at g^1 alone, and every record of 7/3 fails
    # estimate (b)
    knot = normalize_two_bridge(7, 3)
    image = exact._image

    def off(letters, b, tail=()):
        head, ((val, du, g, gg), *others) = image(letters, b, tail)
        return head, [(val, du, g, gg + val), *others]

    monkeypatch.setattr(exact, "_image", off)
    assert [r.error for r in compute_invariants(knot)] == [
        "RecordError: estimate (b) fails in Z[t]/(t^7 - 1) for b(7,3)"] * 3


def test_identity_holds_with_the_mirror_fraction():
    # 41/30 names the mirror of 41/11: its r is -r, and u_{-kr} = u_{kr}
    knot = normalize_two_bridge(41, 11)
    assert exact.knot_elements(knot._replace(q=30)) == exact.knot_elements(knot)


def test_value_fields_are_pinned():
    # the record fields that come from integer arithmetic and correctly
    # rounded int/int division alone are the same on every platform
    # (unlike the report bytes, whose oracle field reads libm): a SHA-256
    # over them, census p <= 25 and the ladder; margin_bits is the least
    # margin of the n2 and D readouts
    digest = hashlib.sha256()
    for p, q in CENSUS_25 + LADDER:
        for rec in compute_invariants(normalize_two_bridge(p, q)):
            fields = (p, q, rec.k, rec.kprime, rec.p1_squared, rec.f_value, rec.tau,
                      rec.diagnostics["margin_bits"])
            digest.update(repr(fields).encode())
    assert digest.hexdigest() == "d07c1b7d93dfb88f9ce2d1fe1aa387101a216f13ab8d38404e8fe6f057297dc6"


def test_large_knot_elements_are_pinned():
    # the packed ints and the peripheral tail x^(-2 sigma) are longest at
    # large p (the tail of 301/1 has 600 letters): a SHA-256 over the
    # elements [n2, D] of four large knots, each hashed as the pair of its
    # coefficients and the bit length of their L1 norm
    digest = hashlib.sha256()
    for p, q in ((101, 31), (131, 55), (301, 25), (301, 1)):
        elements = tuple((c, sum(map(abs, c)).bit_length())
                         for c in exact.knot_elements(normalize_two_bridge(p, q)))
        digest.update(repr((p, q, elements)).encode())
    assert digest.hexdigest() == "4433ea412277829122cf57cf9120375db7bc9f670e8815268fff4e3c6a579c5d"


def _mul(m, n):
    """The product of 2x2 matrices, row-major."""
    return (m[0] * n[0] + m[1] * n[2], m[0] * n[1] + m[1] * n[3],
            m[2] * n[0] + m[3] * n[2], m[2] * n[1] + m[3] * n[3])


def test_c_conjugates_each_scaled_letter_to_its_swap():
    # C = [[s - 1, 1], [-u s, 1 - s]], with C^2 = c I for
    # c = (s - 1)^2 - u s, takes each scaled letter r l to c times its swap
    # r l', so rho(<-w) = C W C / c; and P = diag(1, -u s) takes (r l)^T to
    # r l', so W21 = -u s W12: exact, in Fractions, at 50 random (s, u)
    rng, swap = random.Random(32), {"x": "y", "y": "x"}
    for _ in range(50):
        s, u = (Fraction(rng.choice((-1, 1)) * rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
                for _ in range(2))
        c, v = (s - 1) ** 2 - u * s, -u * s
        letters = {("x", 1): (-s, -1, 0, -1), ("x", -1): (1, -1, 0, s),
                   ("y", 1): (-s, 0, u * s, -1), ("y", -1): (1, 0, u * s, s)}
        conj = (s - 1, 1, v, 1 - s)
        assert _mul(conj, conj) == (c, 0, 0, c)
        for (gen, sign), m in letters.items():
            want = letters[swap[gen], sign]
            assert _mul(_mul(conj, m), conj) == tuple(c * x for x in want), (gen, sign)
            assert (m[0], m[2] / v, m[1] * v, m[3]) == want, (gen, sign)


def test_w21_is_v_w12_on_the_census():
    # the packed form of W21 = v W12, which the conjugation reads: t W21 is
    # t v W12, bit for bit, on the 68 census fractions p <= 25
    b = exact.DIGIT_BITS
    for p, q in CENSUS_25:
        w, _ = exact._image(normalize_two_bridge(p, q).word.letters, b)
        assert tuple(x << b for x in w[2]) == exact._tv(w[1], b), (p, q)


def _relator_fox_jets(relator, b, one):
    """Wada's Phi(dr/dx) as ``exact._fox_jets`` gives it, from one walk of
    the relator r = w x w^-1 y^-1 itself with a running prefix product at
    g = 0: +prefix before each x and -prefix after each x^-1, at the
    prefix's exponent sum a, weighted by (-1)^a (1, a, a(a-1)/2)."""
    r0, r1, r2, r3 = one, 0, 0, one
    terms, a = {}, 0
    for gen, sign in relator.letters:
        if gen == "x":
            if sign > 0:
                t0, t1, t2, t3 = terms.get(a, (0, 0, 0, 0))
                terms[a] = t0 + r0, t1 + r1, t2 + r2, t3 + r3
            r1, r3 = -r0 - r1, -r2 - r3
            a += sign
            if sign < 0:
                t0, t1, t2, t3 = terms.get(a, (0, 0, 0, 0))
                terms[a] = t0 - r0, t1 - r1, t2 - r2, t3 - r3
        else:
            r0, r1, r2, r3 = (r0 - (r1 << b) - (r1 >> b) + (r1 << 1), -r1,
                              r2 - (r3 << b) - (r3 >> b) + (r3 << 1), -r3)
            a += sign
    weights = [[(-1 if a % 2 else 1) * c for c in (1, a, a * (a - 1) // 2)] for a in terms]
    return [[sum(w[j] * x for w, x in zip(weights, slot)) for j in range(3)]
            for slot in zip(*terms.values())]


def test_fox_jets_match_a_relator_walk():
    # Fox's product rule over w gives Wada's Phi(dr/dx) of a walk of the
    # whole relator on the 68 census fractions p <= 25: each jet alike at
    # every p-th root of unity but 1 (their difference passes the zero
    # test), the (1, 1), (2, 1) and (2, 2) entries alike bit for bit, the
    # (2, 1) entry zero at t = 1, where only the (1, 2) entry may differ,
    # and so the determinant's e^2 slot, n_ss, alike bit for bit
    b = exact.DIGIT_BITS
    for p, q in CENSUS_25:
        knot, one, mask = normalize_two_bridge(p, q), 1 << b * (p + 1), (1 << b * p) - 1
        new, ref = ([[exact._fold(x << b * (p - 1), b * p) % mask for x in jet] for jet in jets]
                    for jets in (exact._fox_jets(knot.word, b, one),
                                 _relator_fox_jets(knot.relator(), b, one)))
        for got, want in zip(new, ref):
            for x, y in zip(got, want):
                exact._zero_test(x - y, p, "Fox jets", knot.label)
        assert [new[0], new[2], new[3]] == [ref[0], ref[2], ref[3]], (p, q)
        assert all(sum(exact._digits(x, p)) == 0 for x in new[2]), (p, q)
        n_ss = [(a[0] * dd[2] + a[1] * dd[1] + a[2] * dd[0] - bb[0] * c[2] - bb[1] * c[1]
                 - bb[2] * c[0]) % mask for a, bb, c, dd in (new, ref)]
        assert n_ss[0] == n_ss[1], (p, q)


@pytest.mark.slow
def test_knot_elements_are_pinned_at_1001_375_and_2001_731():
    # the two largest knots the tests read, whose walks are the longest: a
    # SHA-256 over repr((p, q, elements)) of each
    digest = hashlib.sha256()
    for p, q in ((1001, 375), (2001, 731)):
        digest.update(repr((p, q, exact.knot_elements(normalize_two_bridge(p, q)))).encode())
    assert digest.hexdigest() == "54e40b636a574320ff70bd668e0dcf9e4331c754be01daf4e1fff6d10bf65283"


def _jet_mul(x, y):
    """The product of jets (val, g, g^2) mod g^3."""
    return x[0] * y[0], x[0] * y[1] + x[1] * y[0], x[0] * y[2] + x[1] * y[1] + x[2] * y[0]


def test_scale_closed_forms():
    # along s = -1 + 4g, r = sqrt(-s) = 1 - 2g - 2g^2 squares to -s
    # exactly, 1/r = 1 + 2g + 6g^2, and the kernel's closed form r^-n =
    # 1 + 2n g + 2n(n + 2) g^2 is the n-fold product of 1/r
    r, inv_r, minus_s = (1, -2, -2), (1, 2, 6), (1, -4, 0)
    assert _jet_mul(r, r) == minus_s
    assert _jet_mul(r, inv_r) == (1, 0, 0)
    power = (1, 0, 0)
    for n in range(701):
        assert exact._inv_r_power(n) == power, n
        power = _jet_mul(power, inv_r)


def test_cosine_table_matches_mpmath():
    # each entry within its stated bound, one unit of 2^-READOUT_BITS; the
    # rounding alone leaves 1/2
    scale = mpmath.mpf(2) ** exact.READOUT_BITS
    with mpmath.workdps(50):
        for p in (3, 5, 7, 25, 61, 101, 131, 301):
            table = exact._cosines(p)
            assert len(table) == p
            for j, c in enumerate(table):
                assert abs(c - scale * mpmath.cos(2 * mpmath.pi * j / p)) <= 0.5 + 1e-3, (p, j)


def _symmetric(head):
    """The element with coefficients c_0..c_(p-1)/2 = head and c_-e = c_e."""
    return head + head[:0:-1]


def _readout(c, kprime, table):
    """The readout of the symmetric element c at k', written out."""
    p = len(c)
    return c[0] * table[0] + 2 * sum(c[e] * table[e * kprime % p] for e in range(1, (p + 1) // 2))


def _peak(p, kprime, sign, rng):
    """A symmetric element whose readout at k' reaches 2^(READOUT_BITS +
    l - 1) in magnitude, l the bit length of its L1: c_0 = +-(2^31 - 1),
    the largest coefficient the digit guard passes, and the others of
    mixed signs, each with the sign of its cosine at k'."""
    table, top = exact._cosines(p), 2 ** 31 - 1
    head = [top] + [rng.randrange(1, 2 ** 24) * (1 if table[e * kprime % p] > 0 else -1)
                    for e in range(1, (p + 1) // 2)]
    return [sign * c for c in _symmetric(head)]


@pytest.mark.parametrize("p", [3, 7, 25, 101])
def test_packed_readout_splits_exactly_at_its_bound(p):
    # read packs the two elements [n2, D] into one int per coefficient, in
    # lanes of READOUT_BITS + max l + 1 bits; at every k' each lane must
    # give that element's own dot product, and the Reading, whose fields
    # are exact functions of the two sums, must match, margin_bits the
    # least of the two margins, each lane setting it somewhere.  The peaks
    # reach the bound L1 2^READOUT_BITS to within a factor below 2, with
    # either sign, in either lane; the wide elements have coefficients of
    # both signs up to 2^31 - 1, and the flat one sums to about 0, so its
    # margin fails at every index
    rng, top, half = random.Random(p), 2 ** 31 - 1, (p + 1) // 2
    table = exact._cosines(p)
    peaks = [_peak(p, rng.randrange(1, half), sign, rng) for sign in (1, -1)]
    wide = [_symmetric([rng.randint(-top, top) for _ in range(half)]) for _ in range(2)]
    flat = [top] * p
    pairs = list(itertools.permutations(peaks)) + [(wide[0], peaks[1]), (peaks[0], wide[1]),
                                                   (peaks[0], flat), (flat, wide[0])]
    setters = set()
    for pair in pairs:
        readings = exact.read(list(pair))
        assert len(readings) == half - 1
        bits = [sum(map(abs, c)).bit_length() for c in pair]  # of each L1
        for kprime, reading in enumerate(readings, 1):
            sums = [_readout(c, kprime, table) for c in pair]
            margins = [abs(total).bit_length() - 1 - l for total, l in zip(sums, bits)]
            margin = min([exact.READOUT_BITS] + margins)
            if margin < exact.MIN_MARGIN_BITS:
                assert isinstance(reading, RecordError), (p, kprime)
                assert str(reading) == (f"readout margin {margin} bits at k' = {kprime}, "
                                        f"below {exact.MIN_MARGIN_BITS}")
                continue
            setters.update(lane for lane, m in enumerate(margins) if m == margin)
            (n, d), r = sums, exact.READOUT_BITS
            assert reading == exact.Reading(n * n / (1 << (2 * r + 4)), (1 << (r + 4)) / d,
                                            n * n / (d << r), margin), (p, kprime)
    assert setters == {0, 1}, p
    # the peaks reach 2^(READOUT_BITS + l - 1), where a lane one bit narrower wraps
    for c in peaks:
        bits = sum(map(abs, c)).bit_length()
        peak = max(abs(_readout(c, kprime, table)) for kprime in range(1, half))
        assert peak >> (exact.READOUT_BITS + bits - 1)


def _pack(digits):
    return sum(c << (exact.DIGIT_BITS * e) for e, c in enumerate(digits))


def test_digits_round_trip():
    digits = [3, -1, 0, 2 ** 31 - 1, -(2 ** 31) + 1, 5, -7]
    assert exact._digits(_pack(digits), 7) == digits
    mask = (1 << exact.DIGIT_BITS * 7) - 1  # 2^(Bp) - 1 = 0
    assert exact._digits(_pack(digits) - mask, 7) == digits
    # t^7 = 1: exponents fold mod p
    assert exact._fold(_pack([0] * 9 + [1]), exact.DIGIT_BITS * 7) == _pack([0, 0, 1])


@pytest.mark.parametrize("digits, message", [
    ([0] * 7, None),
    ([5] * 7, None),
    ([2 ** 32 - 1] * 7, None),
    ([-(2 ** 32) + 1] * 7, None),
    ([2 ** 32] * 7, "coefficient of 32 bits"),
    ([-(2 ** 32)] * 7, "coefficient of 32 bits"),
    ([5, 5, 5, 6, 5, 5, 5], r"fails in Z\[t\]/\(t\^7 - 1\) for b\(7,3\)"),
    ([5, 5, 5, 2 ** 32, 5, 5, 5], "coefficient of 32 bits"),
])
def test_zero_test_outcomes(digits, message):
    # an element passes exactly when its coefficients are equal and within
    # the digit guard, whatever multiple of 2^(Bp) - 1 its int carries; a
    # failure names the guard where a coefficient is beyond it
    mask = (1 << exact.DIGIT_BITS * 7) - 1
    for x in (_pack(digits), _pack(digits) - mask, _pack(digits) + 3 * mask):
        if message is None:
            exact._zero_test(x, 7, "x", "b(7,3)")
        else:
            with pytest.raises(RecordError, match=message):
                exact._zero_test(x, 7, "x", "b(7,3)")


@pytest.mark.parametrize("scale, message", [(1, "fails in Z"), (2 ** 40, "coefficient of 32 bits")])
def test_broken_letter_image_errors_every_record(break_letter, scale, message):
    # a letter kernel that breaks a zero test, or whose products outgrow
    # their digits, turns every record of the knot into an error, and a
    # comparison with it is undetermined
    break_letter(scale)
    a, b = normalize_two_bridge(7, 3), normalize_two_bridge(7, 5)
    records = compute_invariants(a)
    assert len(records) == 3
    assert all(not r.ok and message in r.error for r in records)
    taus = tau_multiset(records), tau_multiset(compute_invariants(b))
    assert compare_knots(a, b, taus=taus).verdict == "undetermined"


def test_readout_margin_below_the_bound_is_an_error(monkeypatch):
    # a record whose readout margin is below MIN_MARGIN_BITS is refused
    monkeypatch.setattr(exact, "MIN_MARGIN_BITS", exact.READOUT_BITS)
    records = compute_invariants(normalize_two_bridge(7, 3))
    assert len(records) == 3
    assert all(not r.ok and "readout margin" in r.error for r in records)
