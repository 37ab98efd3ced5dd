import hashlib
import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest

from bridgetorsion import exact, pipeline
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
        readings = pipeline.read(exact.knot_elements(normalize_two_bridge(p, q)))
        for k in range(1, (p - 1) // 2 + 1):
            reading = readings[metabelian_pairing(p, k) - 1]
            assert reading.margin_bits >= pipeline.MIN_MARGIN_BITS, (p, q, k)
            want = _lens_50(p, q, k)
            assert abs(reading.tau - want) <= 4e-16 * want, (p, q, k)


def test_spot_check_at_1001_375():
    # every tau of 1001/375 is the 50-digit lens value to within a rounding
    # or two, and both guards of the exact pass have headroom there: the
    # least readout margin is above MIN_MARGIN_BITS (92 bits against 64) and
    # the largest unpacked coefficient below the digit guard (14 bits
    # against 32, half the 64-bit digits of a knot of p > 131)
    p, q = 1001, 375
    guard = exact._digit_bits(p) // 2
    elements = exact.knot_elements(normalize_two_bridge(p, q))
    readings = pipeline.read(elements)
    margin = pipeline.READOUT_BITS
    for k in range(1, (p - 1) // 2 + 1):
        reading = readings[metabelian_pairing(p, k) - 1]
        margin = min(margin, reading.margin_bits)
        want = _lens_50(p, q, k)
        assert abs(reading.tau - want) <= 4e-16 * want, k
    coefficient_bits = max(max(map(abs, c)).bit_length() for c in elements)
    print(f"1001/375 headroom: margin {margin} bits against {pipeline.MIN_MARGIN_BITS}, "
          f"coefficients {coefficient_bits} bits against {guard}")
    assert margin > pipeline.MIN_MARGIN_BITS
    assert coefficient_bits < guard


def _decode(x, n, b):
    """The n balanced b-bit digits of x mod 2^(bn) - 1, each in
    [-2^(b-1), 2^(b-1)), at the width b given, whatever the width of the
    knot's own pass."""
    mask, half = (1 << b * n) - 1, 1 << (b - 1)
    raw = ((x + mask // ((1 << b) - 1) * half) % mask).to_bytes(b * n // 8, "little")
    return [int.from_bytes(raw[i:i + b // 8], "little") - half for i in range(0, len(raw), b // 8)]


def _dot_terms(x, y, z, w, full=True):
    """The (x, y) pairs of each slot of ``exact._dot``'s jet x y + z w,
    slot by slot in its order: val and g, and, with full, du and g^2."""
    slots = ([(0, 0)], [(0, 2), (2, 0)], [(0, 1), (1, 0)], [(0, 3), (2, 2), (3, 0)])
    return [[(f[i], g[j]) for f, g in ((x, y), (z, w)) for i, j in slot]
            for slot in (slots if full else slots[:2])]


def _pass_at_width(knot, b):
    """knot_elements replayed step by step with packed digits of b bits.
    Returns (operands, bounds).  operands maps each step to the
    coefficients, decoded at width b, of every int it multiplies, divides
    or weights: unfolded ints (the images W and W x^(-2 sigma), the
    dividends of C W C and their quotients) decoded whole, and each decode
    checked to give back its int, folded ones mod t^p - 1.  bounds maps each
    step to a bound on the magnitude of the coefficients it forms, so
    that while a bound is below 2^(b - 1), every coefficient fits its
    signed digit and no carry crosses into the next:
    - a sum of products xy of folded elements, each term by the L1 form
      |(xy)_e| <= ||x||_inf ||y||_1 (or with x and y swapped, the lesser),
      and a sum of terms by the sum of their bounds;
    - the Fox jets, sums of the Fox terms t_a (after the (I - Phi(y))
      step) weighted by (-1)^a (1, a, a(a-1)/2), by sum |weight| ||t_a||_inf;
    - phi_u's closed form, which sums four shifts of phi_u and
      p t^((p+3)/2), by 4 ||phi_u||_inf + p;
    - an int decoded whole, by its largest coefficient."""
    p = knot.p
    decoded = {}

    def dec(x, n=p):
        if (x, n) not in decoded:
            decoded[x, n] = _decode(x, n, b)
        return decoded[x, n]

    def whole(jets):  # unfolded ints of degree below p + 2
        digits = [dec(x, p + 2) for jet in jets for x in jet]
        assert [sum(c << b * e for e, c in enumerate(ds)) for ds in digits] == [
            x for jet in jets for x in jet]
        return digits

    def fold(x):
        return exact._fold(x, b * p)

    def term_bound(x, y):
        (x_inf, x_l1), (y_inf, y_l1) = ((max(map(abs, c)), sum(map(abs, c))) for c in (dec(x), dec(y)))
        return min(x_inf * y_l1, x_l1 * y_inf)

    unword = b * ((p + 1) // 2)
    tail = [("x", -1 if knot.sigma > 0 else 1)] * abs(2 * knot.sigma)
    w, v = exact._image(knot.word.letters, b, tail)
    dividends = exact._dividends(w, b)
    k, r12 = exact._divide(dividends, b, p, knot.label)
    r00, r01, r11, v00, v01, v10, v11 = (
        [fold(x << unword) for x in jet]
        for jet in ([x + y for x, y in zip(w[0], k)], r12, [x - y for x, y in zip(w[3], k)], *v))
    r10 = [fold(x << unword - b) for x in exact._tv(r12, b)]
    l00, l11 = exact._dot(r00, v00, r01, v10, fold), exact._dot(r10, v01, r11, v11, fold)
    l01 = exact._dot(r00, v01, r01, v11, fold, False)
    l10 = exact._dot(r10, v00, r11, v10, fold, False)
    d = fold(l01[1] * l10[1] - l00[2] * l11[2])
    phi_d = fold((w[0][1] + 2 * w[1][1]) << unword)
    one = 1 << b * (p + 1)
    terms = {a: [fold(x << b * (p - 1)) for x in term]
             for a, term in exact._fox_terms(knot.word, b, one).items()}
    a, bb, c, dd = ([fold(x << b * (p - 1)) for x in jet] for jet in exact._fox_jets(knot.word, b, one))
    n_ss = dec(a[0] * dd[2] + a[1] * dd[1] + a[2] * dd[0] - bb[0] * c[2] - bb[1] * c[1]
               - bb[2] * c[0])
    n2 = sum(n_ss[e * (p + 1) // 2 % p] << b * e for e in range(p))  # n_ss(t^2), as checked_elements packs it
    u2, u2r = ((1 << b * (m % p)) + (1 << b * (-m % p)) - 2 for m in (2, 2 * pow(knot.q, -1, p)))

    sums = {  # each step's folded sums of products, each sum as its (x, y) pairs
        "L slots": (_dot_terms(r00, v00, r01, v10) + _dot_terms(r10, v01, r11, v11)
                    + _dot_terms(r00, v01, r01, v11, False) + _dot_terms(r10, v00, r11, v10, False)),
        "D": [[(l01[1], l10[1]), (l00[2], l11[2])]],
        "Wada's numerator": [
            [(a[0], dd[0]), (bb[0], c[0])],
            [(a[0], dd[1]), (a[1], dd[0]), (bb[0], c[1]), (bb[1], c[0])],
            [(a[0], dd[2]), (a[1], dd[1]), (a[2], dd[0]), (bb[0], c[2]), (bb[1], c[1]), (bb[2], c[0])]],
        "n_ss(t^2)^2": [[(n2, n2)]],
        "u_k u_kr": [[(u2, u2r)]],
        "P(1)^2 F u_k u_kr": [[(fold(n2 * n2), fold(u2 * u2r))]],
    }
    bounds = {name: max(sum(term_bound(x, y) for x, y in pairs) for pairs in step)
              for name, step in sums.items()}
    operands = {name: [(dec(x), dec(y)) for pairs in step for x, y in pairs]
                for name, step in sums.items()}
    weights = [[(-1) ** (a % 2) * m for m in (1, a, a * (a - 1) // 2)] for a in terms]
    bounds["Fox terms to jets"] = max(
        sum(abs(weight[i]) * max(map(abs, dec(term[slot]))) for weight, term in zip(weights, terms.values()))
        for i in range(3) for slot in range(4))
    operands["Fox terms to jets"] = [dec(x) for term in terms.values() for x in term]
    bounds["phi_u closed form"] = 4 * max(map(abs, dec(phi_d))) + p
    operands["phi_u closed form"] = [dec(phi_d)]
    for name, jets in (("W and W x^(-2 sigma)", w + v), ("C W C dividends", dividends),
                       ("C W C quotients", (k, r12))):
        operands[name] = whole(jets)
        bounds[name] = max(max(map(abs, ds)) for ds in operands[name])
    return operands, bounds


def _check_headroom(p, q):
    """The bound of every step of the exact pass at p/q below 2^(B - 1),
    B the knot's digit width; the headroom of each is printed."""
    knot, b = normalize_two_bridge(p, q), exact._digit_bits(p)
    _, bounds = _pass_at_width(knot, b)
    for name, bound in bounds.items():
        print(f"{p}/{q} {name}: coefficients below 2^{bound.bit_length()}, headroom "
              f"{b - 1 - bound.bit_length()} bits against 2^{b - 1}")
        assert bound < 1 << (b - 1), name


def test_intermediate_digit_headroom_at_1001_375():
    # every step of the exact pass at 1001/375 keeps its coefficients
    # within the 64-bit digits, by the bounds of _pass_at_width: the L1
    # form bounds the products at 2^33 there, where the largest slot
    # squared gave 2^55
    _check_headroom(1001, 375)


@pytest.mark.slow
def test_intermediate_digit_headroom_at_4001_1529():
    # the same bounds where the largest slot squared would give 2^65,
    # beyond the 64-bit digits: the L1 form stays near 2^39
    _check_headroom(4001, 1529)


@pytest.mark.slow
def test_intermediate_digit_headroom_at_the_torus_knot_1001_1():
    # over all q the largest bound of the pass is the identity step
    # n_ss(t^2)^2 u_k u_kr at the torus knot b(p,1), about 5 bits more per
    # doubling of p: below 2^53 at 1001/1, against 2^32 at 1001/375
    _check_headroom(1001, 1)


NARROW = [(p, q) for p in range(3, 32, 2) for q in range(1, p, 2) if math.gcd(p, q) == 1]


def test_narrow_digits_hold_through_p_31(monkeypatch):
    # the 32-bit digits of every knot with p <= 31, proven knot by knot
    # over its 106 fractions: the pass at 32 bits decodes every operand
    # to the coefficients it has at 64 bits, every step's bound is below
    # 2^31, both elements are within the 16-bit guard, and knot_elements
    # gives the same elements at both widths, bit for bit; the first
    # knots past the range, p = 33, take 40-bit digits, through p = 131,
    # and the knots past p = 131 64-bit digits
    assert len(NARROW) == 106
    worst, element_bits, narrow = {}, 0, []
    for p, q in NARROW:
        knot = normalize_two_bridge(p, q)
        operands, bounds = _pass_at_width(knot, 32)
        assert operands == _pass_at_width(knot, 64)[0], (p, q)
        for name, bound in bounds.items():
            worst[name] = max(worst.get(name, 0), bound.bit_length())
        narrow.append(exact.knot_elements(knot))
        element_bits = max(element_bits, *(max(map(abs, c)).bit_length() for c in narrow[-1]))
    print(f"p <= 31: element coefficients below 2^{element_bits}; steps below "
          + ", ".join(f"{name} 2^{bits}" for name, bits in worst.items()))
    assert max(worst.values()) <= 31
    assert element_bits < 16

    widths, image = [], exact._image

    def spy(letters, b, tail=()):
        widths.append(b)
        return image(letters, b, tail)

    monkeypatch.setattr(exact, "_image", spy)
    for p, q in ((31, 3), (33, 1), (131, 1), (133, 1)):
        exact.knot_elements(normalize_two_bridge(p, q))
    assert widths == [32, 40, 40, 64]
    monkeypatch.setattr(exact, "_digit_bits", lambda p: 64)
    assert [exact.knot_elements(normalize_two_bridge(p, q)) for p, q in NARROW] == narrow


def _check_40_bit_digits(fractions, replay_at_64):
    """The 40-bit digits of each knot of fractions, 33 <= p <= 131, proven
    knot by knot: every step's bound at 40 bits is below 2^39, and both
    elements are below 2^20, the guard; with replay_at_64, the pass at 40
    bits also decodes every operand to the coefficients it has at 64
    bits.  Returns the elements; the worst bound and the largest element
    are printed."""
    worst, element_bits, elements = (0, None), 0, []
    for p, q in fractions:
        knot = normalize_two_bridge(p, q)
        assert exact._digit_bits(p) == 40, p
        operands, bounds = _pass_at_width(knot, 40)
        if replay_at_64:
            assert operands == _pass_at_width(knot, 64)[0], (p, q)
        worst = max(worst, *((bound.bit_length(), f"{p}/{q} {name}") for name, bound in bounds.items()))
        elements.append(exact.knot_elements(knot))
        element_bits = max(element_bits, *(max(map(abs, c)).bit_length() for c in elements[-1]))
    print(f"40-bit digits: steps below 2^{worst[0]} ({worst[1]}), element coefficients "
          f"below 2^{element_bits}")
    assert worst[0] <= 39
    assert element_bits <= 20
    return elements


def test_40_bit_digits_hold_at_the_worst_and_the_ladder_knots(monkeypatch):
    # the tier's worst knot, b(131,1), whose identity step
    # n_ss(t^2)^2 u_k u_kr is bounded just below 2^39, and the ladder's
    # knots of 33 <= p <= 131: bounds and operands at both widths by
    # _check_40_bit_digits, and knot_elements gives the same elements at
    # 64 bits, bit for bit
    fractions = [(131, 1), (41, 11), (61, 17), (101, 31)]
    elements = _check_40_bit_digits(fractions, True)
    monkeypatch.setattr(exact, "_digit_bits", lambda p: 64)
    assert [exact.knot_elements(normalize_two_bridge(p, q)) for p, q in fractions] == elements


MIDDLE = [(p, q) for p in range(33, 132, 2) for q in range(1, p, 2) if math.gcd(p, q) == 1]


@pytest.mark.slow
def test_40_bit_digits_hold_for_33_through_131(monkeypatch):
    # the same over all 1,664 fractions with 33 <= p <= 131, but for the
    # replay at 64 bits, which the bounds make redundant and which would
    # double the time
    assert len(MIDDLE) == 1664
    elements = _check_40_bit_digits(MIDDLE, False)
    monkeypatch.setattr(exact, "_digit_bits", lambda p: 64)
    assert [exact.knot_elements(normalize_two_bridge(p, q)) for p, q in MIDDLE] == elements


IDENTITY = "P(1)^2 F u_k u_kr = 1"


def _identity_widths(monkeypatch):
    """The digit widths at which the identity of checked_elements is
    packed, call by call, as a spy on its zero test records them."""
    widths, zero_test = [], exact._zero_test

    def spy(x, p, b, what, label):
        if what == IDENTITY:
            widths.append(b)
        zero_test(x, p, b, what, label)

    monkeypatch.setattr(exact, "_zero_test", spy)
    return widths


def _list_bound(n2, d):
    """16 ||n2||_inf ||n2||_1 + ||D||_inf, which bounds the coefficients of
    n2^2 u(t^2) u(t^2r) - D, as u(t^2) u(t^2r) has L1 norm at most 16."""
    return 16 * max(map(abs, n2)) * sum(map(abs, n2)) + max(map(abs, d))


def test_identity_check_sizes_its_own_digits(monkeypatch):
    # the identity n_ss(t^2)^2 u(t^2) u(t^2r) = D runs at the knot's own
    # width on the census, the ladder and the 40-bit tier's worst knot,
    # 131/1, whose list bound stays below 2^(B-1)
    widths = _identity_widths(monkeypatch)
    fractions = CENSUS_25 + LADDER + [(131, 1)]
    for p, q in fractions:
        exact.knot_elements(normalize_two_bridge(p, q))
    assert widths == [exact._digit_bits(p) for p, q in fractions]
    # a valid entry at 131/1 beyond the tier proofs: n2 + c N, c = 507,322,
    # within the 20-bit guard and equal to n2 at every root read, as N
    # vanishes there and N u = 0; its list bound of 50 bits is past the
    # 40-bit digits, so the identity is packed at 56 bits, and it passes
    knot = normalize_two_bridge(131, 1)
    n2, d = exact.knot_elements(knot)
    shifted = [x + 507_322 for x in n2]
    assert max(map(abs, shifted)) < 1 << 20
    assert _list_bound(shifted, d).bit_length() == 50
    widths.clear()
    assert exact.checked_elements(knot, [shifted, d]) == [shifted, d]
    assert widths == [56]
    # a tested element past its digits can alias: 2^40 - t, which is not
    # zero, packs at 40 bits to the int 0 and passes there, but not at 56
    alias = [2 ** 40, -1] + [0] * 129
    exact._zero_test(sum(c << (40 * e) for e, c in enumerate(alias)), 131, 40, "x", "b(131,1)")
    with pytest.raises(RecordError, match="coefficient of 20 bits"):
        exact._zero_test(sum(c << (56 * e) for e, c in enumerate(alias)), 131, 56, "x", "b(131,1)")
    # the same entry with one symmetric pair of D's coefficients off by one fails
    off = list(d)
    off[1] += 1
    off[-1] += 1
    with pytest.raises(RecordError, match=r"P\(1\)\^2 F u_k u_kr = 1 fails .* for b\(131,1\)"):
        exact.checked_elements(knot, [shifted, off])
    assert widths == [56, 56]


@pytest.mark.slow
def test_identity_check_widens_itself_at_4001_1(monkeypatch):
    # the torus knot b(4001,1), whose identity step has a list bound of 64
    # bits, one more than its 64-bit digits hold: checked_elements packs
    # the computed elements at 72 bits, and they pass
    widths = _identity_widths(monkeypatch)
    knot = normalize_two_bridge(4001, 1)
    n2, d = exact.knot_elements(knot)
    bound = _list_bound(n2, d)
    print(f"4001/1 identity: list bound below 2^{bound.bit_length()}, packed at {widths} bits")
    assert exact._digit_bits(4001) == 64 and bound >> 63
    assert widths == [72]


@pytest.mark.parametrize("p, q, other", [(11, 3, 5), (41, 11, 3), (21, 13, 5)])
def test_identity_fails_with_the_lens_of_another_fraction(p, q, other):
    # the identity pairs u_k with u_{kr}, r = q^-1 mod p; the r of an
    # inequivalent fraction fails it, while every other check still holds
    knot = normalize_two_bridge(p, q)
    with pytest.raises(RecordError, match=r"P\(1\)\^2 F u_k u_kr = 1 fails"):
        exact.knot_elements(knot._replace(q=other))


def test_element_beyond_the_guard_fails_every_record(monkeypatch):
    # checked_elements alone guards the elements: with the e^2 slots of the
    # Fox jets shifted left, n_ss has coefficients beyond the guard, half
    # the knot's digit, while still within the digit and while every zero
    # test still passes, and each record fails with that element's name:
    # at 7/3 (32-bit digits) by 20 bits, past the 16-bit guard, at 33/5
    # (40-bit digits) by 20 bits, past the 20-bit guard, and at 133/5
    # (64-bit digits) by 40 bits, past the 32-bit guard
    fox_jets = exact._fox_jets
    for p, q, shift, guard in ((7, 3, 20, 16), (33, 5, 20, 20), (133, 5, 40, 32)):
        def shifted(word, b, one):
            return [[val, e, ee << shift] for val, e, ee in fox_jets(word, b, one)]

        monkeypatch.setattr(exact, "_fox_jets", shifted)
        records = compute_invariants(normalize_two_bridge(p, q))
        assert [r.error for r in records] == [
            f"RecordError: 4 P(1) has a coefficient of {guard} bits or more"] * ((p - 1) // 2)


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


def test_tail_off_in_its_du_slot_fails_tr_l_at_du(monkeypatch):
    # estimate (b) is tested as its two factors, lam_u = 0 and
    # lam_ss = D: the du slot of W x^(-2 sigma) alone, off by its value
    # slot, leaves every check before them and D alone, and every record
    # of 7/3 fails the first factor, tr L at du
    knot = normalize_two_bridge(7, 3)
    image = exact._image

    def off(letters, b, tail=()):
        head, ((val, du, g, gg), *others) = image(letters, b, tail)
        return head, [(val, du + val, g, gg), *others]

    monkeypatch.setattr(exact, "_image", off)
    assert [r.error for r in compute_invariants(knot)] == [
        "RecordError: tr L at du fails in Z[t]/(t^7 - 1) for b(7,3)"] * 3


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
    # t v W12, bit for bit, on the 68 census fractions p <= 25, at their
    # own 32-bit digits and at 64 bits
    for (p, q), b in itertools.product(CENSUS_25, (exact._digit_bits(25), 64)):
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
    # and so the determinant's e^2 slot, n_ss, alike bit for bit; at each
    # knot's own digit width, which its zero tests and unpacking use
    for p, q in CENSUS_25:
        b = exact._digit_bits(p)
        knot, one, mask = normalize_two_bridge(p, q), 1 << b * (p + 1), (1 << b * p) - 1
        new, ref = ([[exact._fold(x << b * (p - 1), b * p) % mask for x in jet] for jet in jets]
                    for jets in (exact._fox_jets(knot.word, b, one),
                                 _relator_fox_jets(knot.relator(), b, one)))
        for got, want in zip(new, ref):
            for x, y in zip(got, want):
                exact._zero_test(x - y, p, b, "Fox jets", knot.label)
        assert [new[0], new[2], new[3]] == [ref[0], ref[2], ref[3]], (p, q)
        assert all(sum(exact._digits(x, p, b)) == 0 for x in new[2]), (p, q)
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
    scale = mpmath.mpf(2) ** pipeline.READOUT_BITS
    with mpmath.workdps(50):
        for p in (3, 5, 7, 25, 61, 101, 131, 301):
            table = pipeline._cosines(p)
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
    table, top = pipeline._cosines(p), 2 ** 31 - 1
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
    table = pipeline._cosines(p)
    peaks = [_peak(p, rng.randrange(1, half), sign, rng) for sign in (1, -1)]
    wide = [_symmetric([rng.randint(-top, top) for _ in range(half)]) for _ in range(2)]
    flat = [top] * p
    pairs = list(itertools.permutations(peaks)) + [(wide[0], peaks[1]), (peaks[0], wide[1]),
                                                   (peaks[0], flat), (flat, wide[0])]
    setters = set()
    for pair in pairs:
        readings = pipeline.read(list(pair))
        assert len(readings) == half - 1
        bits = [sum(map(abs, c)).bit_length() for c in pair]  # of each L1
        for kprime, reading in enumerate(readings, 1):
            sums = [_readout(c, kprime, table) for c in pair]
            margins = [abs(total).bit_length() - 1 - l for total, l in zip(sums, bits)]
            margin = min([pipeline.READOUT_BITS] + margins)
            if margin < pipeline.MIN_MARGIN_BITS:
                assert isinstance(reading, RecordError), (p, kprime)
                assert str(reading) == (f"readout margin {margin} bits at k' = {kprime}, "
                                        f"below {pipeline.MIN_MARGIN_BITS}")
                continue
            setters.update(lane for lane, m in enumerate(margins) if m == margin)
            (n, d), r = sums, pipeline.READOUT_BITS
            assert reading == pipeline.Reading(n * n / (1 << (2 * r + 4)), (1 << (r + 4)) / d,
                                               n * n / (d << r), margin), (p, kprime)
    assert setters == {0, 1}, p
    # the peaks reach 2^(READOUT_BITS + l - 1), where a lane one bit narrower wraps
    for c in peaks:
        bits = sum(map(abs, c)).bit_length()
        peak = max(abs(_readout(c, kprime, table)) for kprime in range(1, half))
        assert peak >> (pipeline.READOUT_BITS + bits - 1)


def _pack(digits):
    """The packed int of an element of a knot of p = len(digits), at the
    knot's digit width."""
    b = exact._digit_bits(len(digits))
    return sum(c << (b * e) for e, c in enumerate(digits))


def test_digits_round_trip():
    # at p = 7 (32-bit digits), p = 33 (40-bit digits) and p = 133
    # (64-bit digits): every signed digit short of -2^(B-1) comes back,
    # whatever multiple of 2^(Bp) - 1 the int carries, and exponents fold
    # mod p
    for p in (7, 33, 133):
        b = exact._digit_bits(p)
        top = 2 ** (b - 1) - 1
        digits = ([3, -1, 0, top, -top, 5, -7] * 19)[:p]
        assert exact._digits(_pack(digits), p, b) == digits, p
        mask = (1 << b * p) - 1  # 2^(Bp) - 1 = 0
        assert exact._digits(_pack(digits) - mask, p, b) == digits, p
        # t^p = 1: exponents fold mod p
        assert exact._fold(1 << b * (p + 2), b * p) == _pack([0, 0, 1] + [0] * (p - 3)), p


def test_digits_unpack_any_whole_byte_width():
    # the identity of checked_elements packs at any multiple of 8 bits its
    # bound needs, and a failure unpacks at that width, which may be none
    # of the knots' own: every signed digit short of -2^(b-1) comes back,
    # whatever multiple of 2^(bp) - 1 the int carries
    for b in (48, 56, 72, 96):
        top = 2 ** (b - 1) - 1
        digits = [3, -1, 0, top, -top, 5, -7]
        x = sum(c << (b * e) for e, c in enumerate(digits))
        assert exact._digits(x, 7, b) == digits, b
        assert exact._digits(x + 5 * ((1 << b * 7) - 1), 7, b) == digits, b


@pytest.mark.parametrize("digits, message", [
    # at p = 133, whose 64-bit digits have the guard 32
    ([0] * 133, None),
    ([5] * 133, None),
    ([2 ** 32 - 1] * 133, None),
    ([-(2 ** 32) + 1] * 133, None),
    ([2 ** 32] * 133, "coefficient of 32 bits"),
    ([-(2 ** 32)] * 133, "coefficient of 32 bits"),
    # at p = 7, whose 32-bit digits have the guard 16
    ([5, 5, 5, 6, 5, 5, 5], r"fails in Z\[t\]/\(t\^7 - 1\) for b\(7,3\)"),
    # at p = 133, then p = 33, whose 40-bit digits have the guard 20
    ([5] * 66 + [2 ** 32] + [5] * 66, "coefficient of 32 bits"),
    ([5] * 16 + [6] + [5] * 16, r"fails in Z\[t\]/\(t\^33 - 1\) for b\(33,5\)"),
    # at p = 7
    ([0] * 7, None),
    ([2 ** 16 - 1] * 7, None),
    ([-(2 ** 16) + 1] * 7, None),
    ([2 ** 16] * 7, "coefficient of 16 bits"),
    ([-(2 ** 16)] * 7, "coefficient of 16 bits"),
    ([5, 5, 5, 2 ** 16, 5, 5, 5], "coefficient of 16 bits"),
    # at p = 33
    ([0] * 33, None),
    ([2 ** 20 - 1] * 33, None),
    ([-(2 ** 20) + 1] * 33, None),
    ([2 ** 20] * 33, "coefficient of 20 bits"),
    ([-(2 ** 20)] * 33, "coefficient of 20 bits"),
    ([5] * 16 + [2 ** 20] + [5] * 16, "coefficient of 20 bits"),
    # at p = 133
    ([5] * 66 + [6] + [5] * 66, r"fails in Z\[t\]/\(t\^133 - 1\) for b\(133,5\)"),
])
def test_zero_test_outcomes(digits, message):
    # an element of a knot of p = len(digits) passes exactly when its
    # coefficients are equal and within the digit guard, half the knot's
    # digit width, whatever multiple of 2^(Bp) - 1 its int carries; a
    # failure names the guard where a coefficient is beyond it
    p = len(digits)
    label = {7: "b(7,3)", 33: "b(33,5)", 133: "b(133,5)"}[p]
    b = exact._digit_bits(p)
    mask = (1 << b * p) - 1
    for x in (_pack(digits), _pack(digits) - mask, _pack(digits) + 3 * mask):
        if message is None:
            exact._zero_test(x, p, b, "x", label)
        else:
            with pytest.raises(RecordError, match=message):
                exact._zero_test(x, p, b, "x", label)


@pytest.mark.parametrize("scale, message", [(1, "fails in Z"), (2 ** 40, "coefficient of 32 bits"),
                                            (2 ** 20, "coefficient of 16 bits"),
                                            (2 ** 30, "coefficient of 20 bits")])
def test_broken_letter_image_errors_every_record(break_letter, scale, message):
    # a letter kernel that breaks a zero test, or whose products outgrow
    # their digits, turns every record of the knot into an error, and a
    # comparison with it is undetermined: 7/3 against 7/5, whose 32-bit
    # digits hold a scale below 2^31, the guard 16 past 2^16, for a larger
    # scale 33/5 against 33/7, whose 40-bit digits have the guard 20, and,
    # for a scale beyond those digits, 133/5 against 133/9, whose 64-bit
    # digits have the guard 32
    break_letter(scale)
    p, qa, qb = (7, 3, 5) if scale < 2 ** 21 else (33, 5, 7) if scale < 2 ** 39 else (133, 5, 9)
    a, b = normalize_two_bridge(p, qa), normalize_two_bridge(p, qb)
    records = compute_invariants(a)
    assert len(records) == (p - 1) // 2
    assert all(not r.ok and message in r.error for r in records)
    taus = tau_multiset(records), tau_multiset(compute_invariants(b))
    assert compare_knots(a, b, taus=taus).verdict == "undetermined"


def test_readout_margin_below_the_bound_is_an_error(monkeypatch):
    # a record whose readout margin is below MIN_MARGIN_BITS is refused
    monkeypatch.setattr(pipeline, "MIN_MARGIN_BITS", pipeline.READOUT_BITS)
    records = compute_invariants(normalize_two_bridge(7, 3))
    assert len(records) == 3
    assert all(not r.ok and "readout margin" in r.error for r in records)
