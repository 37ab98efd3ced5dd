"""P(1) and F of a two-bridge knot for every index at once, exactly, in
Z[t]/(t^p - 1): the two elements that ``pipeline.read`` reads off at the
roots of unity.

At the metabelian point the real pair of ``reps.riley_images`` has entries
in Z[u], and along s = -1 + 4g so have its jets: r = sqrt(-s) =
1 - 2g - 2g^2, with r^2 = -s exactly.  So each letter l is r^-1 times a
scaled letter r l whose entries are 0, +-1, +-s or +-u s:
r x = [[-s, -1], [0, -1]], r x^-1 = [[1, -1], [0, s]],
r y = [[-s, 0], [u s, -1]] and r y^-1 = [[1, 0], [u s, s]].  A word of n
letters has image r^-n times the product of its scaled letters, with
r^-n = 1 + 2n g + 2n(n + 2) g^2 mod g^3; multiplying by s is two shifts
and no multiplication.

One walk of w serves both factors of tau.  <-w is w with x and y
swapped, and C = [[s - 1, 1], [-u s, 1 - s]] swaps them: C (r l) C = c r l'
for each scaled letter r l and its swap r l', with C^2 = c I and
c = (s - 1)^2 - u s.  So rho(<-w) = C W C / c, where C costs shifts
alone and c, homogenized, is (t + 1)^2 at g = 0: each slot of the
quotient is an exact division of a packed int.  P(1)'s Fox walk runs at
g = 0, where r = 1 and x and y are the involutions [[1, -1], [0, -1]] and
[[1, 0], [-u, -1]], over w alone: for r = w x w^-1 y^-1, Fox's product
rule gives Phi(dr/dx) = (I - Phi(y)) Phi(dw/dx) + Phi(w).
With u = t + 1/t - 2, t = zeta^{k'} (zeta = e^{2 pi i/p}) gives u_{k'} and
t^2 gives u_k.  An element vanishes at every p-th root of unity but 1
exactly when its p coefficients are equal: that zero test replaces every
tolerance.

Packing (Kronecker substitution): sum c_e t^e is the int sum c_e 2^(B e),
signed B-bit digits, with B = 32 for p <= 31, 40 for p <= 131 and 64
above (``_digit_bits``), sized to the coefficients the knot's pass
forms; the identity check of ``checked_elements`` sizes its own.  Ring
operations on these ints are exact integer arithmetic, so an int is its
element at t = 2^B however large the coefficients grow on the way;
unpacking recovers the coefficients of an element whose coefficients
have fewer than B - 1 bits.  A word product is homogenized: it carries
a factor t for each letter y^+-1, so u enters as t u = (t - 1)^2 and no
power of t is negative.  It starts at the int 1,
holds about j digits after j letters, and is moved back by t^-m =
t^(p - m) for its m letters y^+-1, folded once mod 2^(Bp) - 1, where
t^p = 1.  P(1)'s Fox walk is not homogenized: it sums prefixes with
different numbers of letters y^+-1, to which homogenizing would give
different powers of t.  Its 1 sits at OFF = p + 1, above any u-degree it
reaches ((p + 1)/2, after the step by Phi(y)), so
u V = (V << B) + (V >> B) - 2V drops no nonzero digit.
"""

import operator
import struct

from .errors import RecordError


def _digit_bits(p):
    """B, the bits of a packed coefficient of a knot of determinant p: 32
    through p = 31, where every coefficient the pass forms is below 2^28
    and both elements' below 2^14, 40 through p = 131, where they are
    below 2^39 and 2^20 (tests bound each product of each knot by
    |(xy)_e| <= ||x||_inf ||y||_1), and 64 above, where the steps of
    ``knot_elements`` stay below 2^39 through b(2001,1); the identity of
    ``checked_elements`` sizes its own digits.  The digit guard is B/2:
    an unpacked coefficient has fewer bits, and one that outgrew its B
    bits shows as its balanced residue mod 2^B, which passes only if it
    lies within 2^(B/2) of 0."""
    return 32 if p <= 31 else 40 if p <= 131 else 64


def _inv_r_power(n):
    """r^-n as (val, g, g^2): 1/r = 1 + 2g + 6g^2, so (1/r)^n =
    1 + 2n g + 2n(n + 2) g^2 mod g^3."""
    return 1, 2 * n, 2 * n * (n + 2)


def _product(row, letters, b):
    """The row vector (a, b) of jets (val, du, g, g^2) of packed ints times
    the scaled letters r l, homogenized: one written-out step a letter, and
    a factor t for each letter y^+-1, so u enters as t u = (t - 1)^2 and
    terms with no u as t.  A jet times s = -1 + 4g is
    (-e0, -ed, 4 e0 - es, 4 es - ess), and the du slot of t u e is
    (t - 1)^2 ed + t e0; packed, t (u x + y) is (((x << B) - 2x + y) << B) + x."""
    a0, ad, as_, ass, b0, bd, bs, bss = row
    for gen, sign in letters:
        if gen == "x":
            if sign > 0:  # (a, b) -> (-s a, -a - b)
                a0, ad, as_, ass, b0, bd, bs, bss = (
                    a0, ad, as_ - (a0 << 2), ass - (as_ << 2),
                    -a0 - b0, -ad - bd, -as_ - bs, -ass - bss)
            else:  # (a, b) -> (a, s b - a)
                b0, bd, bs, bss = (-b0 - a0, -bd - ad, (b0 << 2) - bs - as_,
                                   (bs << 2) - bss - ass)
        elif sign > 0:  # (a, b) -> t (s (u b - a), -b)
            c0, cd, cs, css = ((((b0 << b) - (b0 << 1) - a0) << b) + b0,
                               (((bd << b) - (bd << 1) + b0 - ad) << b) + bd,
                               (((bs << b) - (bs << 1) - as_) << b) + bs,
                               (((bss << b) - (bss << 1) - ass) << b) + bss)
            a0, ad, as_, ass, b0, bd, bs, bss = (
                -c0, -cd, (c0 << 2) - cs, (cs << 2) - css,
                -(b0 << b), -(bd << b), -(bs << b), -(bss << b))
        else:  # (a, b) -> t (a + u s b, s b)
            b0, bd, bs, bss = -b0, -bd, (b0 << 2) - bs, (bs << 2) - bss
            a0, ad, as_, ass, b0, bd, bs, bss = (
                (((b0 << b) - (b0 << 1) + a0) << b) + b0,
                (((bd << b) - (bd << 1) + ad + b0) << b) + bd,
                (((bs << b) - (bs << 1) + as_) << b) + bs,
                (((bss << b) - (bss << 1) + ass) << b) + bss,
                b0 << b, bd << b, bs << b, bss << b)
    return a0, ad, as_, ass, b0, bd, bs, bss


def _scaled(rows, n):
    """The rows of a product of n scaled letters, times r^-n, as a 2x2
    matrix of jets, row-major."""
    c0, c1, c2 = _inv_r_power(n)
    return [(c0 * e0, c0 * ed, c0 * es + c1 * e0, c0 * ess + c1 * es + c2 * e0)
            for row in rows for e0, ed, es, ess in (row[:4], row[4:])]


def _image(letters, b, tail=()):
    """The images of the letters and of the letters followed by tail: r^-n
    times the product of their n scaled letters, times t^m for the m
    letters y^+-1 among them.  The tail walks on from the letters' rows."""
    rows = [_product(row, letters, b) for row in ((1, 0, 0, 0, 0, 0, 0, 0),
                                                  (0, 0, 0, 0, 1, 0, 0, 0))]
    head = _scaled(rows, len(letters))
    return head, _scaled([_product(row, tail, b) for row in rows],
                         len(letters) + len(tail)) if tail else head


def _tv(e, b):
    """The jet e times t v, v = -u s = u (1 - 4g): (1 - 4g) e times
    t u = (t - 1)^2, whose du slot is (t - 1)^2 ed + t e0."""
    tu = (1 << 2 * b) - (1 << b + 1) + 1
    return e[0] * tu, e[1] * tu + (e[0] << b), (e[2] - (e[0] << 2)) * tu, (e[3] - (e[2] << 2)) * tu


def _dividends(image, b):
    """The two jets whose quotients by t c give rho(<-w) = C W C / c from
    W = image, a 2x2 matrix of jets, row-major, homogenized as W times t:
    C = [[a, 1], [v, -a]], a = s - 1 = -2 + 4g and v = -u s, with
    C^2 = c I, c = a^2 + v.  The scaled letters satisfy
    P (r l)^T P^-1 = r l' for P = diag(1, v), l' the letter l with x and y
    swapped, and w with its letters swapped is <-w, so W21 = v W12.  With
    M = W11 - W22 - a W12, C W C is then
    [[c W11 + v (a W12 - M), a M + v W12], [v (a M + v W12), c W22 - v (a W12 - M)]],
    and the dividends are t v (a W12 - M) and t a M + t v W12.  A jet
    times a is (-2 e0, -2 ed, 4 e0 - 2 es, 4 es - 2 ess)."""
    (p0, pd, ps, pss), (q0, qd, qs, qss), _, (r0, rd, rs, rss) = image
    g0, gd, gs, gss = -(q0 << 1), -(qd << 1), (q0 << 2) - (qs << 1), (qs << 2) - (qss << 1)
    m0, md, ms, mss = p0 - r0 - g0, pd - rd - gd, ps - rs - gs, pss - rss - gss
    v0, vd, vs, vss = _tv(image[1], b)
    return [_tv((g0 - m0, gd - md, gs - ms, gss - mss), b),
            (v0 - (m0 << b + 1), vd - (md << b + 1),
             vs + ((m0 << 2) - (ms << 1) << b), vss + ((ms << 2) - (mss << 1) << b))]


def _divide(jets, b, p, label):
    """Yields the jets divided by t c, c = (s - 1)^2 - u s =
    (4 + u)(1 - 4g) + 16g^2, whose homogenized jet is
    ((t + 1)^2, t, -4 (t + 1)^2, 16 t): slot by slot in g, each an exact
    division of an unfolded packed int by (t + 1)^2, the du slot by the
    product rule.  RecordError unless every remainder is 0."""
    d = (1 << 2 * b) + (1 << b + 1) + 1  # (t + 1)^2
    for y0, yd, ys, yss in jets:
        x0, r0 = divmod(y0, d)
        xd, rd = divmod(yd - (x0 << b), d)
        xs, rs = divmod(ys, d)
        xs += x0 << 2
        xss, rss = divmod(yss - (x0 << b + 4), d)
        if r0 or rd or rs or rss:
            for y in (y0, yd, ys, yss):
                _guard(_digits(y, p, b), b // 2, "C W C")
            raise RecordError(f"rho(<-w) = C W C / c fails in Z[t] for {label}")
        yield x0, xd, xs, xss + (xs << 2)


def _fox_terms(word, b, one):
    """The entries of Wada's Phi(dr/dx), r = w x w^-1 y^-1, at g = 0 by
    exponent sum a, from one walk of w with a running prefix product.
    There r = 1 and x and y are the involutions [[1, -1], [0, -1]] and
    [[1, 0], [-u, -1]].  Fox's rules put +prefix before each x and -prefix
    after each x^-1, at the prefix's exponent sum, which gives
    Phi(dw/dx); then Phi(dr/dx) = (I - Phi(y)) Phi(dw/dx) + Phi(w), where
    Phi(y) moves a term from a to a + 1.  That product rule reads
    w x w^-1 as y, which holds at every p-th root of unity but 1; at
    t = 1, u = 0 and every factor is upper triangular, so only the (1, 2)
    entry can differ there from a walk of r, and as the (2, 1) entry
    vanishes at t = 1, Wada's determinant is the same."""
    r0, r1, r2, r3 = one, 0, 0, one  # the prefix, row-major
    terms, a = {}, 0
    for gen, sign in word.letters:
        if gen == "x":
            if sign > 0:
                t0, t1, t2, t3 = terms.get(a, (0, 0, 0, 0))
                terms[a] = t0 + r0, t1 + r1, t2 + r2, t3 + r3
            r1, r3 = -r0 - r1, -r2 - r3  # (a, b) -> (a, -a - b)
            a += sign
            if sign < 0:
                t0, t1, t2, t3 = terms.get(a, (0, 0, 0, 0))
                terms[a] = t0 - r0, t1 - r1, t2 - r2, t3 - r3
        else:  # (a, b) -> (a - u b, -b), u x = (x << B) + (x >> B) - 2x
            r0, r1, r2, r3 = (r0 - (r1 << b) - (r1 >> b) + (r1 << 1), -r1,
                              r2 - (r3 << b) - (r3 >> b) + (r3 << 1), -r3)
            a += sign
    fox = {a: (r0, r1, r2, r3)}  # Phi(w)
    for a, t in terms.items():  # -Phi(y) T = [[-t0, -t1], [u t0 + t2, u t1 + t3]]
        ut0, ut1 = ((x << b) + (x >> b) - (x << 1) for x in t[:2])
        for e, term in ((a, t), (a + 1, (-t[0], -t[1], ut0 + t[2], ut1 + t[3]))):
            fox[e] = tuple(map(operator.add, fox.get(e, (0, 0, 0, 0)), term))
    return fox


def _fox_jets(word, b, one):
    """The entries of Wada's Phi(dr/dx) for rho_k at t_Wada = i(1 + e) as
    jets (val, e, e^2) of packed ints, from ``_fox_terms``: at exponent sum
    a, Riley's phase i^a times Wada's t^a is (-1)^a (1, a, a(a-1)/2) mod
    e^3, and each entry's three sums are accumulated term by term."""
    jets = [[0] * 3 for _ in range(4)]
    for a, term in _fox_terms(word, b, one).items():
        for jet, x in zip(jets, term):
            x = -x if a % 2 else x
            jet[0] += x
            jet[1] += a * x
            jet[2] += a * (a - 1) // 2 * x
    return jets


def _fold(x, bits):
    """An int in [0, 2^bits) congruent to x mod 2^bits - 1."""
    while x >> bits:
        x = (x & ((1 << bits) - 1)) + (x >> bits)
    return x


def _guard(coeffs, bits, what):
    """RecordError where one of a knot's p coefficients fails its digit
    guard, bits = B/2 bits."""
    if max(map(abs, coeffs)) >> bits:
        raise RecordError(f"{what} has a coefficient of {bits} bits or more")


def _digits(x, p, b):
    """The p coefficients of x, an element mod 2^(bp) - 1 packed in b-bit
    digits, b a multiple of 8: the digits of x + H mod 2^(bp) - 1, each
    less 2^(b-1), H = 2^(b-1) packed N, unpacked as little-endian words of
    b bits: by the struct code I or Q of that standard size, and other
    widths, which have none, b/8 bytes at a time."""
    mask, h, n = (1 << b * p) - 1, 1 << (b - 1), b // 8
    raw = ((x + mask // ((1 << b) - 1) * h) % mask).to_bytes(n * p, "little")
    if b in (32, 64):
        return [c - h for c in struct.unpack(f"<{p}{'IQ'[b > 32]}", raw)]
    return [int.from_bytes(raw[i:i + n], "little") - h for i in range(0, n * p, n)]


def _zero_test(x, p, b, what, label):
    """RecordError unless the element x mod 2^(bp) - 1, packed in b-bit
    digits, vanishes at every p-th root of unity but 1: its coefficients
    are equal, and within the digit guard of the knot's width B.  They are
    equal exactly when x is a multiple of the packed N = 1 + t + ... +
    t^(p-1), and then the quotient, balanced mod 2^b - 1, is their value;
    the coefficients are unpacked only to name a failure."""
    bits, digit, guard = b * p, (1 << b) - 1, _digit_bits(p) // 2
    c, rest = divmod(_fold(x, bits), ((1 << bits) - 1) // digit)
    if not rest and abs(c - digit if c >> (b - 1) else c) < 1 << guard:
        return
    _guard(_digits(x, p, b), guard, what)
    raise RecordError(f"{what} fails in Z[t]/(t^{p} - 1) for {label}")


def _dot(x, y, z, w, fold, full=True):
    """The jet x y + z w of jets (val, du, g, g^2) of packed ints, each slot
    folded; with full false its val and g slots only."""
    val = fold(x[0] * y[0] + z[0] * w[0])
    g = fold(x[0] * y[2] + x[2] * y[0] + z[0] * w[2] + z[2] * w[0])
    if not full:
        return val, g
    du = fold(x[0] * y[1] + x[1] * y[0] + z[0] * w[1] + z[1] * w[0])
    gg = fold(x[0] * y[3] + x[2] * y[2] + x[3] * y[0] + z[0] * w[3] + z[2] * w[2] + z[3] * w[0])
    return val, du, g, gg


def knot_elements(knot):
    """The elements the knot's records read, [n_ss(t^2), D], each the list
    of its p coefficients, the object a cache entry holds: n_ss(t^2),
    where n_ss = -4 P(1), so that t = zeta^{k'} reads rho_k, and D = 16/F.
    One walk of w, on through the tail x^(-2 sigma), gives W and
    W x^(-2 sigma); rho(<-w) is C W C / c, and Wada's Phi(dr/dx) is
    (I - Phi(y)) Phi(dw/dx) + Phi(w), from a second walk of w alone, at
    g = 0.  They are returned once these hold in Z[t]/(t^p - 1), for every
    index at once (RecordError names the first that fails):
    - tangency: phi = W11 + (1 - s) W12 = 0 mod g^2, W the image of w;
    - Riley's smoothness: at g = 0 each scaled letter is one involution
      whatever its sign, so W = (XY)^((p-1)/2) for every q, and
      (t - 1)(t - 1/t) phi_u = p t^((p+1)/2) - N, so |phi_u| >= p/4;
    - C W C / c, slot by slot, is an exact division in Z[t];
    - the longitude image L = rho(<-w) W x^(-2 sigma) is I at g = 0, and
      tr L = 2 + 0 g + D g^2 with D = -det([g^1] L) = 16 [h^2] I_lam =
      16/F (h = 4g is the s + 1 of ``curve``);
    - estimate (b), the implicit-function formula for [g^2] I_lam along
      the curve, phi_u (lam_ss - D) = lam_u phi_ss, by its two factors:
      lam_u = 0 and lam_ss = D;
    - Wada's double zero: n = det Phi(dr/dx) at t_Wada = i(1 + e) is
      n_ss e^2 + O(e^3), and 4 P(1) = -n_ss;
    - the paper's identity P(1)^2 F = 1/(u_k u_{kr}), r = q^-1 mod p:
      n_ss(t^2)^2 u(t^2) u(t^2r) = D, with the checks of
      ``checked_elements``, which alone guards their coefficients."""
    p, b, label = knot.p, _digit_bits(knot.p), knot.label
    bits, mask = b * p, (1 << b * p) - 1
    unword = b * ((p + 1) // 2)  # times t^-m, m = (p - 1)/2 the letters y^+-1 of w

    def fold(x):  # _fold(x, bits), its loop inline
        while x >> bits:
            x = (x & mask) + (x >> bits)
        return x

    def zero(x, what):  # _zero_test at this knot
        _zero_test(x, p, b, what, label)

    tail = [("x", -1 if knot.sigma > 0 else 1)] * abs(2 * knot.sigma)
    w, v = _image(knot.word.letters, b, tail)
    (w11_0, w11_d, w11_s, _), (w12_0, w12_d, w12_s, _) = w[:2]
    # a zero test does not see the factor t^m, which permutes coefficients
    zero(w11_0 + 2 * w12_0, "phi at g^0")
    zero(w11_s + 2 * w12_s - 4 * w12_0, "phi at g^1")
    phi_d = fold((w11_d + 2 * w12_d) << unword)  # 1 - s = 2 - 4g
    # Riley's smoothness at every u_k: (t - 1)(t - 1/t) phi_u = p t^((p+1)/2) - N, times t
    zero((phi_d << 3 * b) - (phi_d << 2 * b) - (phi_d << b) + phi_d - (p << b * ((p + 3) // 2)),
         "phi_u closed form")

    # rho(<-w) = C W C / c: its 11 and 22 entries W11 + k and W22 - k and
    # its 12 entry, homogenized as W, and its 21 entry v rho(<-w)_12,
    # which carries t^(m + 1)
    k, r12 = _divide(_dividends(w, b), b, p, label)
    r10 = [fold(x << unword - b) for x in _tv(r12, b)]
    # the slots of L = rho(<-w) v, v = W x^(-2 sigma), that the checks read
    (r00, r01, r11), (v00, v01, v10, v11) = (
        [[fold(x << unword) for x in jet] for jet in image]
        for image in ((map(operator.add, w[0], k), r12, map(operator.sub, w[3], k)), v))
    l00, l11 = _dot(r00, v00, r01, v10, fold), _dot(r10, v01, r11, v11, fold)
    (l01_0, l01_s), (l10_0, l10_s) = (_dot(r00, v01, r01, v11, fold, False),
                                      _dot(r10, v00, r11, v10, fold, False))
    for x in (l00[0] - 1, l01_0, l10_0, l11[0] - 1):
        zero(x, "L = I at g^0")
    lam_d, lam_s, lam_ss = (l00[j] + l11[j] for j in (1, 2, 3))
    zero(lam_s, "tr L at g^1")
    d = fold(l01_s * l10_s - l00[2] * l11[2])
    zero(lam_d, "tr L at du")
    zero(lam_ss - d, "estimate (b)")

    a, bb, c, dd = ([fold(x << b * (p - 1)) for x in jet]  # from the Fox walk's 1, at OFF, to 0
                    for jet in _fox_jets(knot.word, b, 1 << b * (p + 1)))
    zero(a[0] * dd[0] - bb[0] * c[0], "Wada's numerator at e^0")
    zero(a[0] * dd[1] + a[1] * dd[0] - bb[0] * c[1] - bb[1] * c[0], "Wada's numerator at e^1")
    n_ss = _digits(a[0] * dd[2] + a[1] * dd[1] + a[2] * dd[0]
                   - bb[0] * c[2] - bb[1] * c[1] - bb[2] * c[0], p, b)
    n2 = [n_ss[e * (p + 1) // 2 % p] for e in range(p)]  # n_ss(t^2)
    return checked_elements(knot, [n2, _digits(d, p, b)])


def checked_elements(knot, coeffs):
    """coeffs, the p coefficients of each of n_ss(t^2) and D, as
    ``knot_elements`` returns them and a cache entry holds them.
    RecordError unless coeffs is a list of two lists of p ints (a bool or
    a float is not one), each within the digit guard and symmetric under
    t -> 1/t, as an element of Z[u] is, and the paper's identity
    n_ss(t^2)^2 u(t^2) u(t^2r) = D holds in Z[t]/(t^p - 1).  Computed
    elements and cached ones pass this one check.  u(t^2) u(t^2r) has L1
    norm at most 16, so the tested element's coefficients are within
    16 ||n2||_inf ||n2||_1 + ||D||_inf: the identity is packed at the
    knot's width B while that bound is below 2^(B-1), and otherwise at the
    least multiple of 8 bits whose signed digit holds it, so that its zero
    test is sound for any p and any entry."""
    p, b, label = knot.p, _digit_bits(knot.p), knot.label
    if not (type(coeffs) is list and len(coeffs) == 2 and all(
            type(c) is list and len(c) == p and all(type(x) is int for x in c) for c in coeffs)):
        raise RecordError(f"the elements of {label} are not two lists of {p} ints")
    for what, c in zip(("4 P(1)", "16/F"), coeffs):
        _guard(c, b // 2, what)
        if c[1:] != c[:0:-1]:
            raise RecordError(f"{what} of {label} is not real")
    n2, d = coeffs
    bound = 16 * max(map(abs, n2)) * sum(map(abs, n2)) + max(map(abs, d))
    if bound >> (b - 1):
        b = bound.bit_length() + 8 & -8
    n2, d = (sum(c << (b * e) for e, c in enumerate(x)) for x in coeffs)
    u2, u2r = ((1 << b * (m % p)) + (1 << b * (-m % p)) - 2 for m in (2, 2 * pow(knot.q, -1, p)))
    _zero_test(_fold(n2 * n2, b * p) * _fold(u2 * u2r, b * p) - d, p, b,
               "P(1)^2 F u_k u_kr = 1", label)
    return coeffs
