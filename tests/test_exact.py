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
from bridgetorsion.words import Word, normalize_two_bridge
from conftest import clearing_caches

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


@pytest.mark.slow
@pytest.mark.parametrize("p, q", [(4001, 1), (8009, 3061)])
def test_spot_check_at_large_p(p, q):
    # no error record, every tau within a rounding of the 50-digit lens
    # value, and so is each record's oracle, lens_torsion_magnitude
    records = compute_invariants(normalize_two_bridge(p, q))
    assert [r.error for r in records if not r.ok] == []
    worst_tau = worst_oracle = 0.0
    for rec in records:
        want = _lens_50(p, q, rec.k)
        worst_tau = max(worst_tau, float(abs(rec.tau - want) / want))
        worst_oracle = max(worst_oracle, float(abs(rec.cross_check - want) / want))
    print(f"{p}/{q}: largest relative error of tau {worst_tau:.2e}, "
          f"of the oracle {worst_oracle:.2e}")
    assert worst_tau <= 1e-15
    assert worst_oracle <= 2e-15


def _decode(x, n, b):
    """The n balanced b-bit digits of x mod 2^(bn) - 1, each in
    [-2^(b-1), 2^(b-1)), at the width b given, whatever the width of the
    knot's own pass."""
    mask, half = (1 << b * n) - 1, 1 << (b - 1)
    raw = ((x + mask // ((1 << b) - 1) * half) % mask).to_bytes(b * n // 8, "little")
    return [int.from_bytes(raw[i:i + b // 8], "little") - half for i in range(0, len(raw), b // 8)]


def _jet_terms(x, y, z, w, slots):
    """The (x, y) pairs of each slot of the jet x y + z w, one list of
    pairs per slot of slots, each slot given by its index pairs."""
    return [[(f[i], g[j]) for f, g in ((x, y), (z, w)) for i, j in slot] for slot in slots]


#: The index pairs of the slots of a product of jets: (val, du) at g = 0, as
#: the metabelian stage forms L (each entry's val, and the du slots of the
#: diagonal as one sum, tr L at du), and the g and g^2 slots of (val, g, g^2),
#: as ``exact._dot`` forms them (its g slot alone without full).
AT_0, IN_G = ([(0, 0)], [(0, 1), (1, 0)]), ([(0, 1), (1, 0)], [(0, 2), (1, 1), (2, 0)])


class _Replay:
    """The steps of one stage of knot_elements replayed with packed digits
    of b bits, mod t^p - 1.  operands maps each step to the coefficients,
    decoded at width b, of every int it multiplies, divides or weights:
    unfolded ints decoded whole, and each decode checked to give back its
    int, the others mod t^p - 1, as the folds that follow their products
    read them.  bounds maps each step to a bound on the magnitude of the
    coefficients it forms, so that while a bound is below 2^(b - 1),
    every coefficient fits its signed digit and no carry crosses into the
    next."""

    def __init__(self, p, b):
        self.p, self.b, self.operands, self.bounds, self._decoded = p, b, {}, {}, {}

    def dec(self, x, n=None):
        key = x, n or self.p
        if key not in self._decoded:
            self._decoded[key] = _decode(x, key[1], self.b)
        return self._decoded[key]

    def fold(self, x):
        return exact._fold(x, self.b * self.p)

    def sums(self, name, step):
        """A step of sums of products xy of folded elements, each sum given
        as its (x, y) pairs: each term bounded by the L1 form
        |(xy)_e| <= ||x||_inf ||y||_1 (or with x and y swapped, the
        lesser), and a sum by the sum of its terms' bounds."""
        def term_bound(x, y):
            (x_inf, x_l1), (y_inf, y_l1) = ((max(map(abs, c)), sum(map(abs, c)))
                                            for c in (self.dec(x), self.dec(y)))
            return min(x_inf * y_l1, x_l1 * y_inf)

        self.bounds[name] = max(sum(term_bound(x, y) for x, y in pairs) for pairs in step)
        self.operands[name] = [(self.dec(x), self.dec(y)) for pairs in step for x, y in pairs]

    def whole(self, name, jets):
        """A step of unfolded ints of degree below p + 2, each bounded by
        its largest coefficient."""
        digits = [self.dec(x, self.p + 2) for jet in jets for x in jet]
        assert [sum(c << self.b * e for e, c in enumerate(ds)) for ds in digits] == [
            x for jet in jets for x in jet]
        self.operands[name] = digits
        self.bounds[name] = max(max(map(abs, ds)) for ds in digits)

    def put(self, name, xs, bound):
        """A step whose bound is given, on the folded elements xs."""
        self.operands[name] = [self.dec(x) for x in xs]
        self.bounds[name] = bound


def _stage_at_width(p, b):
    """exact._metabelian replayed at width b: W = (XY)^m at g = 0, the
    dividends of C W C and their quotients k and rho(<-w)_12 in (val, du),
    L = rho(<-w) W and phi_u's closed form, which sums four shifts of phi_u
    and p t^((p+3)/2), bounded by 4 ||phi_u||_inf + p.  Returns the val
    slots of k, rho(<-w)_12 and rho(<-w)_21 that every knot of p reads, and
    the replay."""
    replay = _Replay(p, b)
    tu, d = (1 << 2 * b) - (1 << b + 1) + 1, (1 << 2 * b) + (1 << b + 1) + 1
    w0 = exact._image_at_0("xy" * (p // 2), b)
    (p0, pd), (q0, qd), _, (r0, rd) = w0
    m0, md = p0 - r0 + 2 * q0, pd - rd + 2 * qd
    dividends0 = [(e0 * tu - (f0 << b + 1), ed * tu + (e0 << b) - (fd << b + 1))
                  for e0, ed, f0, fd in ((-2 * q0 - m0, -2 * qd - md, 0, 0), (q0, qd, m0, md))]
    k0, r12_0 = exact._swap_at_0(w0, b)
    assert [(x0 * d, xd * d + (x0 << b)) for x0, xd in (k0, r12_0)] == dividends0
    r10_0 = [replay.fold(x << b * (p - 1)) for x in (r12_0[0] * tu, r12_0[1] * tu + (r12_0[0] << b))]
    rows0 = ([x + y for x, y in zip(w0[0], k0)], r12_0), (r10_0, [x - y for x, y in zip(w0[3], k0)])
    cols0 = w0[::2], w0[1::2]
    phi_d = replay.fold((w0[0][1] + 2 * w0[1][1]) << b * ((p + 1) // 2))
    replay.whole("(XY)^m", w0)
    replay.whole("metabelian C W C dividends", dividends0)
    replay.whole("metabelian C W C quotients", (k0, r12_0))
    replay.sums("metabelian L slots", [pairs for x, z in rows0 for y, v in cols0
                                       for pairs in _jet_terms(x, y, z, v, AT_0[:1])]
                + [[pair for (x, z), (y, v) in zip(rows0, cols0)
                    for pair in _jet_terms(x, y, z, v, AT_0[1:])[0]]])
    replay.put("phi_u closed form", [phi_d], 4 * max(map(abs, replay.dec(phi_d))) + p)
    return (k0[0], r12_0[0], r10_0[0]), replay


def _pass_at_width(knot, b, values):
    """The knot's own steps of knot_elements replayed at width b, in
    (val, g, g^2), reading values, the val slots of C W C / c that
    ``_stage_at_width`` returns for the knot's p; not the identity of
    checked_elements, which packs at the width of its own list bound on
    every call.  The images W and W x^(-2 sigma), the g and g^2 slots of
    the dividends of C W C and the quotients are decoded whole; the
    longitude's operands keep the factor t^m of W, as knot_elements
    leaves it, which moves their coefficients and not their norms.  The
    Fox jets, sums of the Fox terms t_a by exponent sum (Fox's product
    rule (I - Phi(y)) replayed here on the terms of ``exact._fox_terms``,
    Phi(w) added) weighted by (-1)^a (1, a, a(a-1)/2), are bounded by
    sum |weight| ||t_a||_inf.  Returns the replay."""
    p, replay = knot.p, _Replay(knot.p, b)
    fold = replay.fold

    def u(x):  # u x = (x << B) + (x >> B) - 2x
        return (x << b) + (x >> b) - (x << 1)

    tail = [("x", -1 if knot.sigma > 0 else 1)] * abs(2 * knot.sigma)
    w, v = exact._image(knot.word.letters, b, tail)
    dividends = exact._dividends(w, b)
    k, r12 = exact._divide(values, dividends, b, p, knot.label)
    r00, r11 = [x + y for x, y in zip(w[0], k)], [x - y for x, y in zip(w[3], k)]
    v00, v01, v10, v11 = v
    r10 = [values[2], *(fold(x << b * (p - 1)) for x in exact._tv(r12, b))]
    l00, l11 = exact._dot(r00, v00, r12, v10, fold), exact._dot(r10, v01, r11, v11, fold)
    l01 = exact._dot(r00, v01, r12, v11, fold, False)
    l10 = exact._dot(r10, v00, r11, v10, fold, False)
    one = 1 << b * (p + 1)
    fox_terms, top, phi_w = exact._fox_terms(knot.word, b, one)
    fox = {top: phi_w}  # (I - Phi(y)) T: T at a and -Phi(y) T at a + 1
    for a, (t0, t1, t2, t3) in fox_terms.items():
        for e, term in ((a, (t0, t1, t2, t3)), (a + 1, (-t0, -t1, u(t0) + t2, u(t1) + t3))):
            fox[e] = [x + y for x, y in zip(fox.get(e, (0, 0, 0, 0)), term)]
    terms = {a: [fold(x << b * (p - 1)) for x in term] for a, term in fox.items()}
    a, bb, c, dd = ([fold(x << b * (p - 1)) for x in jet] for jet in exact._fox_jets(knot.word, b, one))

    replay.sums("L slots", _jet_terms(r00, v00, r12, v10, IN_G) + _jet_terms(r10, v01, r11, v11, IN_G)
                + _jet_terms(r00, v01, r12, v11, IN_G[:1]) + _jet_terms(r10, v00, r11, v10, IN_G[:1]))
    replay.sums("D", [[(l01, l10), (l00[0], l11[0])]])
    replay.sums("Wada's numerator", [
        [(a[0], dd[0]), (bb[0], c[0])],
        [(a[0], dd[1]), (a[1], dd[0]), (bb[0], c[1]), (bb[1], c[0])],
        [(a[0], dd[2]), (a[1], dd[1]), (a[2], dd[0]), (bb[0], c[2]), (bb[1], c[1]), (bb[2], c[0])]])
    weights = [[(-1) ** (a % 2) * m for m in (1, a, a * (a - 1) // 2)] for a in terms]
    replay.put("Fox terms to jets", [x for term in terms.values() for x in term], max(
        sum(abs(weight[i]) * max(map(abs, replay.dec(term[slot])))
            for weight, term in zip(weights, terms.values()))
        for i in range(3) for slot in range(4)))
    replay.whole("W and W x^(-2 sigma)", w + v)
    replay.whole("C W C dividends", dividends)
    replay.whole("C W C quotients", (k, r12))
    return replay


def _replays(fractions, b):
    """The replays at width b of the stage of each p of fractions, grouped
    by p, once per p, each followed by those of the knots of that p, as
    (name, replay) pairs: p for a stage, p/q for a knot."""
    for p, group in itertools.groupby(fractions, key=lambda f: f[0]):
        values, stage = _stage_at_width(p, b)
        yield f"{p}", stage
        for _, q in group:
            yield f"{p}/{q}", _pass_at_width(normalize_two_bridge(p, q), b, values)


def _check_headroom(p, q):
    """The bound of every step of the exact pass at p/q, both stages, below
    2^(B - 1), B the knot's digit width; the headroom of each is printed."""
    b = exact._digit_bits(p)
    for name, replay in _replays([(p, q)], b):
        for step, bound in replay.bounds.items():
            print(f"{name} {step}: coefficients below 2^{bound.bit_length()}, headroom "
                  f"{b - 1 - bound.bit_length()} bits against 2^{b - 1}")
            assert bound < 1 << (b - 1), step


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
    # over all q the largest bound of the pass is that of the longitude
    # slots at the torus knot b(p,1), about 3 bits more per doubling of p:
    # below 2^35 at 1001/1, against 2^32 at 1001/375
    _check_headroom(1001, 1)


NARROW = [(p, q) for p in range(3, 32, 2) for q in range(1, p, 2) if math.gcd(p, q) == 1]


@pytest.fixture
def at_64_bits(patch_exact):
    """A function that sets every knot's digits to 64 bits, by patching
    exact._digit_bits through patch_exact, which clears exact's caches
    before the patch and again at teardown."""
    return lambda: patch_exact("_digit_bits", lambda p: 64)


def test_ring_holds_each_guard_across_a_patched_width(monkeypatch):
    # the two clears of patch_exact: the entry (7, 64) of _ring, filled
    # with 7/3's own guard, 16, is refilled under the patch with the
    # patched width's, 32, and the per-p stage's entry (7, 64) is filled
    # under it; after the teardown an unpatched zero test at that key reads
    # 16 again, and the per-p stage holds no entry of the patch
    steps = clearing_caches(monkeypatch)
    assert exact._ring(7, 64)[3] == exact._guard_bits(7) == 16
    next(steps)("_digit_bits", lambda p: 64)
    exact.knot_elements(normalize_two_bridge(7, 3))
    assert exact._ring(7, 64)[3] == 32
    assert exact._metabelian.cache_info().currsize == 1
    next(steps, None)
    monkeypatch.undo()
    assert exact._ring(7, 64)[3] == exact._guard_bits(7) == 16
    assert exact._metabelian.cache_info().currsize == 0


def test_narrow_digits_hold_through_p_31(monkeypatch, at_64_bits):
    # the 32-bit digits of every knot with p <= 31, proven over its 106
    # fractions, the stage of each p once and each knot's own steps: the
    # pass at 32 bits decodes every operand to the coefficients it has at
    # 64 bits, every step's bound is below 2^31, both elements are within
    # the 16-bit guard, and knot_elements gives the same elements at both
    # widths, bit for bit; the first knots past the range, p = 33, take
    # 40-bit digits, through p = 131, and the knots past p = 131 64-bit
    # digits
    assert len(NARROW) == 106
    worst = {}
    for (name, replay), (_, wide) in zip(_replays(NARROW, 32), _replays(NARROW, 64)):
        assert replay.operands == wide.operands, name
        for step, bound in replay.bounds.items():
            worst[step] = max(worst.get(step, 0), bound.bit_length())
    narrow = [exact.knot_elements(normalize_two_bridge(p, q)) for p, q in NARROW]
    element_bits = max(max(map(abs, c)).bit_length() for elements in narrow for c in elements)
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
    at_64_bits()
    assert [exact.knot_elements(normalize_two_bridge(p, q)) for p, q in NARROW] == narrow


def _check_40_bit_digits(fractions, replay_at_64):
    """The 40-bit digits of each knot of fractions, 33 <= p <= 131 grouped
    by p, proven over the stage of each p once and each knot's own steps:
    every step's bound at 40 bits is below 2^39, and both elements are
    below 2^20, the guard; with replay_at_64, the pass at 40 bits also
    decodes every operand to the coefficients it has at 64 bits.  Returns
    the elements; the worst bound and the largest element are printed."""
    assert {exact._digit_bits(p) for p, _ in fractions} == {40}
    worst = (0, None)
    wide = _replays(fractions, 64) if replay_at_64 else itertools.repeat((None, None))
    for (name, replay), (_, other) in zip(_replays(fractions, 40), wide):
        if other is not None:
            assert replay.operands == other.operands, name
        worst = max(worst, *((bound.bit_length(), f"{name} {step}") for step, bound in replay.bounds.items()))
    elements = [exact.knot_elements(normalize_two_bridge(p, q)) for p, q in fractions]
    element_bits = max(max(map(abs, c)).bit_length() for e in elements for c in e)
    print(f"40-bit digits: steps below 2^{worst[0]} ({worst[1]}), element coefficients "
          f"below 2^{element_bits}")
    assert worst[0] <= 39
    assert element_bits <= 20
    return elements


def test_40_bit_digits_hold_at_the_worst_and_the_ladder_knots(at_64_bits):
    # the tier's worst knot, b(131,1), whose longitude slots, the largest
    # step of the tier, are bounded below 2^26, and the ladder's knots of
    # 33 <= p <= 131: bounds and operands at both widths by
    # _check_40_bit_digits, and knot_elements gives the same elements at
    # 64 bits, bit for bit
    fractions = [(131, 1), (41, 11), (61, 17), (101, 31)]
    elements = _check_40_bit_digits(fractions, True)
    at_64_bits()
    assert [exact.knot_elements(normalize_two_bridge(p, q)) for p, q in fractions] == elements


MIDDLE = [(p, q) for p in range(33, 132, 2) for q in range(1, p, 2) if math.gcd(p, q) == 1]


@pytest.mark.slow
def test_40_bit_digits_hold_for_33_through_131(at_64_bits):
    # the same over all 1,664 fractions with 33 <= p <= 131, but for the
    # replay at 64 bits, which the bounds make redundant and which would
    # double the time
    assert len(MIDDLE) == 1664
    elements = _check_40_bit_digits(MIDDLE, False)
    at_64_bits()
    assert [exact.knot_elements(normalize_two_bridge(p, q)) for p, q in MIDDLE] == elements


IDENTITY = "P(1)^2 F u_k u_kr = 1"


def _identity_widths(patch_exact):
    """The digit widths at which the identity of checked_elements is
    packed, call by call, as a spy on its zero test records them."""
    widths, zero_test = [], exact._zero_test

    def spy(x, p, b, what, label):
        if what == IDENTITY:
            widths.append(b)
        zero_test(x, p, b, what, label)

    patch_exact("_zero_test", spy)
    return widths


def _list_bound(n2, d):
    """16 ||n2||_inf ||n2||_1 + ||D||_inf, which bounds the coefficients of
    n2^2 u(t^2) u(t^2r) - D, as u(t^2) u(t^2r) has L1 norm at most 16."""
    return 16 * max(map(abs, n2)) * sum(map(abs, n2)) + max(map(abs, d))


def test_identity_check_sizes_its_own_digits(patch_exact):
    # the identity n_ss(t^2)^2 u(t^2) u(t^2r) = D is packed, call by call,
    # at the least multiple of 8 bits whose signed digit holds its list
    # bound, whatever the knot's width, on the census, the ladder and 131/1
    widths = _identity_widths(patch_exact)
    want = []
    for p, q in CENSUS_25 + LADDER + [(131, 1)]:
        n2, d = exact.knot_elements(normalize_two_bridge(p, q))
        want.append(_list_bound(n2, d).bit_length() + 8 & -8)
    assert widths == want
    # two valid entries at 7/3 whose list bounds straddle a byte: D + c N
    # passes the identity with n2, as N vanishes at every root read and
    # N u = 0, and c sets the bound to 2^15 - 1, packed at 16 bits, and
    # to 2^15, packed at 24; with one symmetric pair of D's coefficients
    # off by one, not the largest, each fails at its own width
    knot = normalize_two_bridge(7, 3)
    n2, d = exact.knot_elements(knot)
    for bound, width in ((2 ** 15 - 1, 16), (2 ** 15, 24)):
        c = bound - _list_bound(n2, d)
        entry = [n2, [x + c for x in d]]
        assert _list_bound(*entry) == bound
        widths.clear()
        assert exact.checked_elements(knot, entry) == entry
        off = [x + (e in (2, 5)) for e, x in enumerate(entry[1])]
        assert _list_bound(n2, off) == bound
        with pytest.raises(RecordError, match=r"P\(1\)\^2 F u_k u_kr = 1 fails .* for b\(7,3\)"):
            exact.checked_elements(knot, [n2, off])
        assert widths == [width, width]
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
def test_identity_check_widens_itself_at_4001_1(patch_exact):
    # the torus knot b(4001,1), whose identity step has a list bound of 64
    # bits, one more than its 64-bit digits hold: checked_elements packs
    # the computed elements at 72 bits, and they pass
    widths = _identity_widths(patch_exact)
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


def test_phi_u_off_by_one_fails_its_closed_form(patch_exact, break_letter):
    # Riley's smoothness is a zero test of its own, in the metabelian
    # stage: with the du slot of W11 of (XY)^m off by one, every record of
    # 7/3 fails "phi_u closed form", the check before the division
    # C W C / c; break_letter, which breaks the knot's own g^2 slots and no
    # du slot, passes it and fails first at the knot's own division, whose
    # g^2 slots it breaks
    knot = normalize_two_bridge(7, 3)
    image = exact._image_at_0

    def off(gens, b):
        (val, du), *others = image(gens, b)
        return [(val, du + 1), *others]

    patch_exact("_image_at_0", off)
    assert [r.error for r in compute_invariants(knot)] == [
        "RecordError: phi_u closed form fails in Z[t]/(t^7 - 1) for b(7,3)"] * 3
    patch_exact("_image_at_0", image)
    break_letter()
    assert [r.error for r in compute_invariants(knot)] == [
        "RecordError: rho(<-w) = C W C / c fails in Z[t] for b(7,3)"] * 3


def test_tail_off_in_its_g2_slot_fails_estimate_b(monkeypatch):
    # a break that no earlier check reads: the g^2 slot of W x^(-2 sigma)
    # alone, off by its value slot, leaves the metabelian stage, the
    # comparison of the value slots, phi at g^1, the division C W C / c
    # and tr L at g^1 alone, and every record of 7/3 fails estimate (b)
    knot = normalize_two_bridge(7, 3)
    image = exact._image

    def off(letters, b, tail=()):
        head, ((val, g, gg), *others) = image(letters, b, tail)
        return head, [(val, g, gg + val), *others]

    monkeypatch.setattr(exact, "_image", off)
    assert [r.error for r in compute_invariants(knot)] == [
        "RecordError: estimate (b) fails in Z[t]/(t^7 - 1) for b(7,3)"] * 3


def test_tail_off_in_its_du_slot_fails_tr_l_at_du(patch_exact):
    # estimate (b) is tested as its two factors, lam_u = 0, in the
    # metabelian stage, and lam_ss = D: there W x^(-2 sigma) is W, as
    # X^2 = I, and the du slot of W21 alone, off by its value slot, is read
    # by L alone (phi reads the first row of W, and C W C / c reads
    # W21 = v W12 from W12), so it leaves phi, the division and L = I at g^0
    # alone, and every record of 7/3 fails the first factor, tr L at du
    knot = normalize_two_bridge(7, 3)
    image = exact._image_at_0

    def off(gens, b):
        w00, w01, (val, du), w11 = image(gens, b)
        return [w00, w01, (val, du + val), w11]

    patch_exact("_image_at_0", off)
    assert [r.error for r in compute_invariants(knot)] == [
        "RecordError: tr L at du fails in Z[t]/(t^7 - 1) for b(7,3)"] * 3


def test_value_slots_must_be_those_of_the_metabelian_stage(monkeypatch, patch_exact):
    # the checks of the metabelian stage test a knot's own values only
    # where the knot's value slots are the stage's, so each knot's W and
    # W x^(-2 sigma) are compared with them: 7/3 with one letter's
    # generator swapped, whose W at g = 0 is no longer (XY)^3, fails the
    # comparison before any check of the knot's own; a flipped sign is no
    # control, as at g = 0 each scaled letter is one involution whatever
    # its sign: it passes the comparison and fails phi at g^1.  The knot
    # reads the value slots of C W C / c from the stage, whose checks read
    # them: a stage quotient off by one fails L = I at g^0; and the knot's
    # own g slots are checked by the knot: its first dividend's g slot
    # skewed by (t + 1)^2, so that the division stays exact, fails tr L at
    # g^1
    knot = normalize_two_bridge(7, 3)
    letters = list(knot.word.letters)
    swapped = knot._replace(word=Word([("y", 1)] + letters[1:]))
    with pytest.raises(RecordError, match=r"^W at g\^0 is not \(XY\)\^m for b\(7,3\)$"):
        exact.knot_elements(swapped)
    flipped = knot._replace(word=Word([("x", -1)] + letters[1:]))
    with pytest.raises(RecordError, match=r"^phi at g\^1 fails"):
        exact.knot_elements(flipped)

    swap, dividends = exact._swap_at_0, exact._dividends

    def off(w, b):
        (k0, kd), r12 = swap(w, b)
        return [(k0 + 1, kd), r12]

    patch_exact("_swap_at_0", off)
    with pytest.raises(RecordError, match=r"^L = I at g\^0 fails in Z\[t\]/\(t\^7 - 1\) for b\(7,3\)$"):
        exact.knot_elements(knot)
    patch_exact("_swap_at_0", swap)

    def skewed(image, b):
        (ks, kss), r12 = dividends(image, b)
        return [(ks + (1 << 2 * b) + (1 << b + 1) + 1, kss), r12]

    monkeypatch.setattr(exact, "_dividends", skewed)
    with pytest.raises(RecordError, match=r"^tr L at g\^1 fails in Z\[t\]/\(t\^7 - 1\) for b\(7,3\)$"):
        exact.knot_elements(knot)


def test_census_runs_the_metabelian_stage_once_per_p(patch_exact):
    # the checks that read only g^0 and du run once per (p, b): 12 times
    # for the 68 census fractions, whose 12 determinants each have one
    # entry at the knot's own width, which every later knot of that p and
    # any later call at that key reads
    calls, image = [], exact._image_at_0

    def counted(gens, b):
        calls.append((len(gens) + 1, b))
        return image(gens, b)

    patch_exact("_image_at_0", counted)
    for p, q in CENSUS_25:
        compute_invariants(normalize_two_bridge(p, q))
    keys = [(p, exact._digit_bits(p)) for p in range(3, 26, 2)]
    assert calls == keys and len(CENSUS_25) == 68
    info = exact._metabelian.cache_info()
    assert (info.misses, info.currsize) == (12, 12)
    for key in keys:
        exact._metabelian(*key)
    assert exact._metabelian.cache_info().hits == info.hits + 12 and len(calls) == 12


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
    # own 32-bit digits and at 64 bits: its value slot, t u W12 (the
    # stage's, formed here), and its g and g^2 slots, those of exact._tv
    for (p, q), b in itertools.product(CENSUS_25, (exact._digit_bits(25), 64)):
        w, _ = exact._image(normalize_two_bridge(p, q).word.letters, b)
        assert w[2][0] << b == w[1][0] * ((1 << 2 * b) - (1 << b + 1) + 1), (p, q)
        assert tuple(x << b for x in w[2][1:]) == exact._tv(w[1], b), (p, q)


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
    # Fox's product rule on the weighted sums over w gives Wada's
    # Phi(dr/dx) of a walk of the whole relator on the 68 census fractions
    # p <= 25, the ladder and the torus knots 131/1 and 301/1, whose walks
    # reach the most exponent sums: each jet alike at every p-th root of
    # unity but 1 (their difference passes the zero test), the (1, 1),
    # (2, 1) and (2, 2) entries alike bit for bit, the (2, 1) entry zero
    # at t = 1, where only the (1, 2) entry may differ, and so the
    # determinant's e^2 slot, n_ss, alike bit for bit; at each knot's own
    # digit width, which its zero tests and unpacking use
    for p, q in CENSUS_25 + LADDER + [(131, 1), (301, 1)]:
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


def test_fox_walk_anchored_at_p_drops_no_digit():
    # knot_elements starts the Fox walk at OFF = p, which is 1 as t^p = 1:
    # on the census and the ladder each of its 12 jets, folded, has the
    # coefficients of the jet of a walk at OFF = p + 1 moved back by
    # t^(p-1), so the walk's u steps drop no digit at either anchor
    for p, q in CENSUS_25 + LADDER:
        word, b = normalize_two_bridge(p, q).word, exact._digit_bits(p)
        at_p, at_p1 = ([[exact._digits(exact._fold(x << shift, b * p), p, b) for x in jet]
                        for jet in exact._fox_jets(word, b, 1 << b * off)]
                       for off, shift in ((p, 0), (p + 1, b * (p - 1))))
        assert at_p == at_p1, (p, q)
        assert any(any(coeffs) for jet in at_p for coeffs in jet), (p, q)


def test_ring_constants_are_cached_per_p_and_width():
    # a zero test's constants at p and digit width b: bp, the packed N,
    # whose p digits are 1, 2^b - 1 and the guard of the knot's own width,
    # half of _digit_bits(p) whatever b, the guard _guard also reads
    for p, b in ((7, 32), (7, 48), (33, 40), (131, 56), (133, 64)):
        bits, n, digit, guard = exact._ring(p, b)
        assert (bits, digit, guard) == (b * p, (1 << b) - 1, exact._digit_bits(p) // 2)
        assert guard == exact._guard_bits(p)
        assert exact._digits(n, p, b) == [1] * p
        assert exact._ring(p, b) is exact._ring(p, b)
    with pytest.raises(RecordError, match="has a coefficient of 20 bits"):
        exact._guard([0] * 32 + [1 << 20], "x")


@pytest.mark.slow
def test_knot_elements_are_pinned_at_1001_375_and_2001_731():
    # the two largest knots the tests read, whose walks are the longest: a
    # SHA-256 over repr((p, q, elements)) of each
    digest = hashlib.sha256()
    for p, q in ((1001, 375), (2001, 731)):
        digest.update(repr((p, q, exact.knot_elements(normalize_two_bridge(p, q)))).encode())
    assert digest.hexdigest() == "54e40b636a574320ff70bd668e0dcf9e4331c754be01daf4e1fff6d10bf65283"


@pytest.mark.slow
def test_knot_elements_are_pinned_through_p_131():
    # every normalized fraction with p <= 131, each tier of digits whole:
    # a SHA-256 over repr((p, q, elements)) of each, in the order of p
    # and then q
    digest = hashlib.sha256()
    for p, q in NARROW + MIDDLE:
        digest.update(repr((p, q, exact.knot_elements(normalize_two_bridge(p, q)))).encode())
    assert len(NARROW + MIDDLE) == 1770
    assert digest.hexdigest() == "d79de181f876190b3a3546399d952c5850a9dc4b41f8fac6f0894eba9acc0e7b"


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
    # the identity of checked_elements packs at the multiple of 8 bits its
    # bound needs, and a failure unpacks at that width, which may be none
    # of the knots' own: every signed digit short of -2^(b-1) comes back,
    # whatever multiple of 2^(bp) - 1 the int carries
    for b in (8, 16, 24, 48, 56, 72, 96):
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
    assert compare_knots(a, b, *taus).verdict == "undetermined"


def test_readout_margin_below_the_bound_is_an_error(monkeypatch):
    # a record whose readout margin is below MIN_MARGIN_BITS is refused
    monkeypatch.setattr(pipeline, "MIN_MARGIN_BITS", pipeline.READOUT_BITS)
    records = compute_invariants(normalize_two_bridge(7, 3))
    assert len(records) == 3
    assert all(not r.ok and "readout margin" in r.error for r in records)
