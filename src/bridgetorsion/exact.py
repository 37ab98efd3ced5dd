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
rule gives Phi(dr/dx) = (I - Phi(y)) Phi(dw/dx) + Phi(w), applied once
to Wada's weighted sums of the walk's terms, as both are linear.
The pass has two stages, split by what depends on q.  At g = 0, r = 1
and each scaled letter is one involution whatever its sign, X or Y, so
W = (XY)^m, m = (p - 1)/2, for every q, and so is W x^(-2 sigma), as
X^2 = I.  The stage of p (``_metabelian``, cached) owns g^0 and the
u-derivative du: on jets (val, du) of (XY)^m it runs the checks that
read only those and forms the val slots of C W C / c.  Each knot owns g
and g^2, and its val slots of W and W x^(-2 sigma) must equal the
stage's, which makes each check of the stage a check of the knot's own
values, as equal polynomials in u have equal derivatives.
With u = t + 1/t - 2, t = zeta^{k'} (zeta = e^{2 pi i/p}) gives u_{k'} and
t^2 gives u_k.  An element vanishes at every p-th root of unity but 1
exactly when its p coefficients are equal: that zero test replaces every
tolerance.

Packing (Kronecker substitution): sum c_e t^e is the int sum c_e 2^(B e),
signed B-bit digits, with B = 32 for p <= 31, 40 for p <= 131 and 64
above (``_digit_bits``), sized to the coefficients both stages form and
to the knot's elements, which the guard holds below 2^(B/2); the identity
check of ``checked_elements`` packs at the width its own bound needs.  Ring
operations on these ints are exact integer arithmetic, so an int is its
element at t = 2^B however large the coefficients grow on the way;
unpacking recovers the coefficients of an element whose coefficients
have fewer than B - 1 bits.  A word product is homogenized: it carries
a factor t for each letter y^+-1, so u enters as t u = (t - 1)^2 and no
power of t is negative.  It starts at the int 1 and holds about j
digits after j letters.  W keeps the factor t^m of its m = (p - 1)/2
letters y^+-1, which a zero test does not see, as it permutes
coefficients; the longitude products carry it as t^(2m) = t^(p - 1) in
every slot of L, taken out only where a value is not invariant under
it.  phi_u alone is moved back by t^-m = t^(p - m), where t^p = 1: one
shift, which the fold of its zero test reduces.  P(1)'s Fox walk is not
homogenized: it sums prefixes with different numbers of letters y^+-1,
to which homogenizing would give different powers of t.  Its 1 sits at
OFF = p, as t^p = 1, above any u-degree it reaches ((p + 1)/2, after
the step by Phi(y)), so every term, and every weighted sum of terms,
has no nonzero digit below (p + 1)/2: u V = (V << B) + (V >> B) - 2V
drops none, and the jets reduce as is.
"""

import operator
import struct
from functools import lru_cache

from .errors import RecordError


def _digit_bits(p):
    """B, the bits of a packed coefficient of a knot of determinant p: 32
    through p = 31, where every coefficient the pass forms, in the
    metabelian stage of p and in the knot's own steps, is below 2^19 and
    both elements' below 2^14, within the guard B/2 = 16, 40 through
    p = 131, where they are below 2^26 and 2^19, within 20 (tests bound
    each product of each stage of each knot by
    |(xy)_e| <= ||x||_inf ||y||_1), and 64 above, where the steps of
    ``knot_elements`` stay below 2^38 through b(2001,1); the identity of
    ``checked_elements`` is not a step of the pass and packs at its own
    width."""
    return 32 if p <= 31 else 40 if p <= 131 else 64


def _guard_bits(p):
    """The digit guard of p, B/2 bits: a coefficient past its B bits shows
    as its balanced residue mod 2^B, which passes only within 2^(B/2) of 0."""
    return _digit_bits(p) // 2


@lru_cache(maxsize=None)
def _ring(p, b):
    """A zero test's constants: bp, the packed N, 2^b - 1 and p's guard bits."""
    return b * p, ((1 << b * p) - 1) // ((1 << b) - 1), (1 << b) - 1, _guard_bits(p)


def _inv_r_power(n):
    """r^-n as (val, g, g^2): 1/r = 1 + 2g + 6g^2, so (1/r)^n =
    1 + 2n g + 2n(n + 2) g^2 mod g^3."""
    return 1, 2 * n, 2 * n * (n + 2)


def _product(row, letters, b):
    """The row vector (a, b) of jets (val, g, g^2) of packed ints times the
    scaled letters r l, homogenized: one written-out step a letter, and a
    factor t for each letter y^+-1, so u enters as t u = (t - 1)^2 and
    terms with no u as t.  A jet times s = -1 + 4g is
    (-e0, 4 e0 - es, 4 es - ess); packed, t (u x + y) is
    (((x << B) - 2x + y) << B) + x."""
    a0, as_, ass, b0, bs, bss = row
    for gen, sign in letters:
        if gen == "x":
            if sign > 0:  # (a, b) -> (-s a, -a - b)
                as_, ass, b0, bs, bss = (as_ - (a0 << 2), ass - (as_ << 2),
                                         -a0 - b0, -as_ - bs, -ass - bss)
            else:  # (a, b) -> (a, s b - a)
                b0, bs, bss = -b0 - a0, (b0 << 2) - bs - as_, (bs << 2) - bss - ass
        elif sign > 0:  # (a, b) -> t (s (u b - a), -b)
            c0, cs, css = ((((b0 << b) - (b0 << 1) - a0) << b) + b0,
                           (((bs << b) - (bs << 1) - as_) << b) + bs,
                           (((bss << b) - (bss << 1) - ass) << b) + bss)
            a0, as_, ass, b0, bs, bss = (-c0, (c0 << 2) - cs, (cs << 2) - css,
                                         -(b0 << b), -(bs << b), -(bss << b))
        else:  # (a, b) -> t (a + u s b, s b)
            b0, bs, bss = -b0, (b0 << 2) - bs, (bs << 2) - bss
            a0, as_, ass, b0, bs, bss = (
                (((b0 << b) - (b0 << 1) + a0) << b) + b0,
                (((bs << b) - (bs << 1) + as_) << b) + bs,
                (((bss << b) - (bss << 1) + ass) << b) + bss,
                b0 << b, bs << b, bss << b)
    return a0, as_, ass, b0, bs, bss


def _scaled(rows, n):
    """The rows of a product of n scaled letters, times r^-n, as a 2x2
    matrix of jets, row-major."""
    c0, c1, c2 = _inv_r_power(n)
    return [(c0 * e0, c0 * es + c1 * e0, c0 * ess + c1 * es + c2 * e0)
            for row in rows for e0, es, ess in (row[:3], row[3:])]


def _image(letters, b, tail=()):
    """The images of the letters and of the letters followed by tail: r^-n
    times the product of their n scaled letters, times t^m for the m
    letters y^+-1 among them.  The tail walks on from the letters' rows."""
    rows = [_product(row, letters, b) for row in ((1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0))]
    head = _scaled(rows, len(letters))
    return head, _scaled([_product(row, tail, b) for row in rows],
                         len(letters) + len(tail)) if tail else head


def _tv(e, b):
    """The g and g^2 slots of the jet e times t v, v = -u s = u (1 - 4g):
    (1 - 4g) e times t u = (t - 1)^2."""
    tu = (1 << 2 * b) - (1 << b + 1) + 1
    return (e[1] - (e[0] << 2)) * tu, (e[2] - (e[1] << 2)) * tu


def _dividends(image, b):
    """The two jets whose quotients by t c give rho(<-w) = C W C / c from
    W = image, a 2x2 matrix of jets, row-major, homogenized as W times t:
    C = [[a, 1], [v, -a]], a = s - 1 = -2 + 4g and v = -u s, with
    C^2 = c I, c = a^2 + v.  The scaled letters satisfy
    P (r l)^T P^-1 = r l' for P = diag(1, v), l' the letter l with x and y
    swapped, and w with its letters swapped is <-w, so W21 = v W12.  With
    M = W11 - W22 - a W12, C W C is then
    [[c W11 + v (a W12 - M), a M + v W12], [v (a M + v W12), c W22 - v (a W12 - M)]],
    and the dividends are t v (a W12 - M) and t a M + t v W12, their g and
    g^2 slots.  A jet times a is (-2 e0, 4 e0 - 2 es, 4 es - 2 ess)."""
    (p0, ps, pss), (q0, qs, qss), _, (r0, rs, rss) = image
    g0, gs, gss = -(q0 << 1), (q0 << 2) - (qs << 1), (qs << 2) - (qss << 1)
    m0, ms, mss = p0 - r0 - g0, ps - rs - gs, pss - rss - gss
    vs, vss = _tv(image[1], b)
    return [_tv((g0 - m0, gs - ms, gss - mss), b),
            (vs + ((m0 << 2) - (ms << 1) << b), vss + ((ms << 2) - (mss << 1) << b))]


def _divide(values, jets, b, p, label):
    """Yields the quotients by t c as jets (val, g, g^2): their val slots
    are values, the stage's, and their g and g^2 slots come from those of
    the dividends, jets.  c = (s - 1)^2 - u s = (4 + u)(1 - 4g) + 16g^2 has
    the homogenized jet ((t + 1)^2, -4 (t + 1)^2, 16 t), so each slot is an
    exact division of an unfolded packed int by (t + 1)^2.  RecordError
    unless every remainder is 0."""
    d = (1 << 2 * b) + (1 << b + 1) + 1  # (t + 1)^2
    for x0, (ys, yss) in zip(values, jets):
        xs, rs = divmod(ys, d)
        xs += x0 << 2
        xss, rss = divmod(yss - (x0 << b + 4), d)
        if rs or rss:
            for y in (ys, yss):
                _guard(_digits(y, p, b), "C W C")
            raise RecordError(f"rho(<-w) = C W C / c fails in Z[t] for {label}")
        yield x0, xs, xss + (xs << 2)


def _fox_terms(word, b, one):
    """The entries of Phi(dw/dx) at g = 0 by exponent sum a, the exponent
    sum A of w and Phi(w), from one walk of w with a running prefix
    product.  There r = 1 and x and y are the involutions
    [[1, -1], [0, -1]] and [[1, 0], [-u, -1]].  Fox's rules put +prefix
    before each x and -prefix after each x^-1, at the prefix's exponent
    sum."""
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
    return terms, a, (r0, r1, r2, r3)


def _fox_jets(word, b, one):
    """The entries of Wada's Phi(dr/dx), r = w x w^-1 y^-1, for rho_k at
    t_Wada = i(1 + e) as jets (val, e, e^2) of packed ints, from
    ``_fox_terms``: at exponent sum a, Riley's phase i^a times Wada's t^a
    is (-1)^a w(a), w(a) = (1, a, a(a-1)/2) mod e^3.  Fox's product rule
    gives Phi(dr/dx) = (I - Phi(y)) Phi(dw/dx) + Phi(w), where Phi(y)
    moves a term from a to a + 1; it acts on the weighted sums
    K_m = sum_a (-1)^a w_m(a) T_a of the terms T_a: as
    w(a + 1) = (w0, w1 + w0, w2 + w1) and the phase changes sign, the
    jet's slot m is K_m + Phi(y) S_m, S = (K0, K1 + K0, K2 + K1), plus
    Phi(w) under its weights at A, the exponent sum of w.  That product
    rule reads w x w^-1 as y, which holds at every p-th root of unity but
    1; at t = 1, u = 0 and every factor is upper triangular, so only the
    (1, 2) entry can differ there from a walk of r, and as the (2, 1)
    entry vanishes at t = 1, Wada's determinant is the same."""
    terms, top, phi_w = _fox_terms(word, b, one)
    ks = [0] * 4, [0] * 4, [0] * 4
    for a, term in terms.items():
        h = a * (a - 1) // 2
        for j, x in enumerate(term):
            x = -x if a % 2 else x
            ks[0][j] += x
            ks[1][j] += a * x
            ks[2][j] += h * x
    sums = ks[0], [*map(operator.add, ks[1], ks[0])], [*map(operator.add, ks[2], ks[1])]
    sign = -1 if top % 2 else 1
    weights = sign, sign * top, sign * (top * (top - 1) // 2)
    # Phi(y) S = [[S0, S1], [-u S0 - S2, -u S1 - S3]], u x = (x << B) + (x >> B) - 2x
    return [[k[j] + w * phi_w[j] + (s[j] if j < 2 else
                                    -s[j] - (s[j - 2] << b) - (s[j - 2] >> b) + (s[j - 2] << 1))
             for k, s, w in zip(ks, sums, weights)] for j in range(4)]


def _fold(x, bits):
    """An int in [0, 2^bits) congruent to x mod 2^bits - 1."""
    while x >> bits:
        x = (x & ((1 << bits) - 1)) + (x >> bits)
    return x


def _guard(coeffs, what):
    """RecordError where one of a knot's p coefficients fails the digit
    guard of the knot's width, whatever width they were unpacked at."""
    bits = _guard_bits(len(coeffs))
    if max(map(abs, coeffs)) >> bits:
        raise RecordError(f"{what} has a coefficient of {bits} bits or more")


def _digits(x, p, b):
    """The p coefficients of x, an element mod 2^(bp) - 1 packed in b-bit
    digits, b a multiple of 8: the digits of x + H mod 2^(bp) - 1, each
    less 2^(b-1), H = 2^(b-1) packed N, unpacked as little-endian words of
    b bits: by the struct code I or Q of that standard size, and other
    widths, which have none, b/8 bytes at a time."""
    mask, h, n = (1 << b * p) - 1, 1 << (b - 1), b // 8
    raw = ((x + _ring(p, b)[1] * h) % mask).to_bytes(n * p, "little")
    if b in (32, 64):
        return [c - h for c in struct.unpack(f"<{p}{'IQ'[b > 32]}", raw)]
    return [int.from_bytes(raw[i:i + n], "little") - h for i in range(0, n * p, n)]


def _zero_test(x, p, b, what, label):
    """RecordError unless the element x mod 2^(bp) - 1, packed in b-bit
    digits, vanishes at every p-th root of unity but 1: its coefficients
    are equal, and within the digit guard of the knot's width B.  They are
    equal exactly when x, folded into [0, 2^(bp)), is c N, N = 1 + t + ...
    + t^(p-1) packed, for its low digit c, and then c, balanced mod 2^b - 1,
    is their value; the coefficients are unpacked only to name a failure."""
    bits, n, digit, guard = _ring(p, b)
    x = _fold(x, bits)
    c = x & digit
    if c * n == x and abs(c - digit if c >> (b - 1) else c) < 1 << guard:
        return
    _guard(_digits(x, p, b), what)
    raise RecordError(f"{what} fails in Z[t]/(t^{p} - 1) for {label}")


def _dot(x, y, z, w, fold, full=True):
    """The g slot of the jet x y + z w of jets (val, g, g^2) of packed
    ints, folded, and with full its g^2 slot too (L's val slots are the
    metabelian stage's); on jets (val, du) the same sum is the du slot."""
    g = fold(x[0] * y[1] + x[1] * y[0] + z[0] * w[1] + z[1] * w[0])
    if not full:
        return g
    return g, fold(x[0] * y[2] + x[1] * y[1] + x[2] * y[0] + z[0] * w[2] + z[1] * w[1] + z[2] * w[0])


def _image_at_0(gens, b):
    """The product of the letters gens, each "x" or "y", at g = 0, as a 2x2
    matrix of jets (val, du) of packed ints, row-major: there r = 1 and
    each scaled letter is one involution whatever its sign,
    X = [[1, -1], [0, -1]] or Y = [[1, 0], [-u, -1]], homogenized as t Y,
    so one step each and no sign cases.  The du slot of t (a - u b) is
    t (ad - u bd - b0)."""
    rows = []
    for a0, ad, b0, bd in ((1, 0, 0, 0), (0, 0, 1, 0)):
        for gen in gens:
            if gen == "x":  # (a, b) -> (a, -a - b)
                b0, bd = -a0 - b0, -ad - bd
            else:  # (a, b) -> t (a - u b, -b)
                a0, ad, b0, bd = ((((b0 << 1) - (b0 << b) + a0) << b) - b0,
                                  (((bd << 1) - (bd << b) + ad - b0) << b) - bd, -(b0 << b), -(bd << b))
        rows += (a0, ad), (b0, bd)
    return rows


def _swap_at_0(w, b):
    """Yields k and rho(<-w)_12 of C W C / c at g = 0 as jets (val, du),
    from W = w of ``_image_at_0``: there a = -2
    and v = u, t v e has du slot (t - 1)^2 ed + t e0, and t c = (t + 1)^2
    has du slot t.  RecordError unless every remainder is 0, its knot
    left as {} for ``knot_elements`` to name."""
    tu, d = (1 << 2 * b) - (1 << b + 1) + 1, (1 << 2 * b) + (1 << b + 1) + 1
    (p0, pd), (q0, qd), _, (r0, rd) = w
    m0, md = p0 - r0 + 2 * q0, pd - rd + 2 * qd  # M = W11 - W22 - a W12
    for e0, ed, f0, fd in ((-2 * q0 - m0, -2 * qd - md, 0, 0), (q0, qd, m0, md)):
        x0, r = divmod(e0 * tu - (f0 << b + 1), d)  # t v e + t a f
        xd, rd = divmod(ed * tu + (e0 << b) - (fd << b + 1) - (x0 << b), d)
        if r or rd:
            raise RecordError("rho(<-w) = C W C / c fails in Z[t] for {}")
        yield x0, xd


@lru_cache(maxsize=None)
def _metabelian(p, b):
    """The checks of ``knot_elements`` that read only g^0 and du, run once
    per (p, b) on W = (XY)^m, m = (p - 1)/2, which every w of determinant p
    has at g = 0, where the tail x^(-2 sigma) is I as X^2 = I: phi at g^0,
    phi_u's closed form, rho(<-w) = C W C / c in du, L = I at g^0 and tr L
    at du.  Returns the val slots of W, which each knot's must equal, and of
    k, rho(<-w)_12 and _21, which it reads; a RecordError leaves its knot
    as {}, for ``knot_elements`` to name, and so is not cached."""
    bits = b * p
    w = _image_at_0("xy" * (p // 2), b)
    (w11, w11_d), (w12, w12_d) = w[:2]
    _zero_test(w11 + 2 * w12, p, b, "phi at g^0", "{}")
    phi_d = w11_d + 2 * w12_d << b * (p // 2 + 1)  # times t^(m + 1) = t^-m
    # Riley's smoothness at every u_k: (t - 1)(t - 1/t) phi_u = p t^((p+1)/2) - N, times t
    _zero_test((phi_d << 3 * b) - (phi_d << 2 * b) - (phi_d << b) + phi_d
               - (p << b * (p // 2 + 2)), p, b, "phi_u closed form", "{}")
    k, r12 = _swap_at_0(w, b)
    (c0, cd), tu = r12, (1 << 2 * b) - (1 << b + 1) + 1
    r10 = [_fold(x << bits - b, bits) for x in (c0 * tu, cd * tu + (c0 << b))]  # u r12 t^-1
    rows = ([*map(operator.add, w[0], k)], r12), (r10, [*map(operator.sub, w[3], k)])
    cols = w[::2], w[1::2]
    # L = rho(<-w) W x^(-2 sigma) = rho(<-w) W at g^0, row-major, and tr L
    # at du, unfolded (int) until the zero test folds it
    l = [x[0] * y[0] + z[0] * v[0] for x, z in rows for y, v in cols]
    one = 1 << bits - b  # t^(p - 1), L's factor t^(2m)
    for x in (l[0] - one, l[1], l[2], l[3] - one):
        _zero_test(x, p, b, "L = I at g^0", "{}")
    _zero_test(sum(_dot(x, y, z, v, int, False) for (x, z), (y, v) in zip(rows, cols)),
               p, b, "tr L at du", "{}")
    return [*zip(*w)][0], (k[0], r12[0], r10[0])


def knot_elements(knot):
    """The elements the knot's records read, [n_ss(t^2), D], each the list
    of its p coefficients, the object a cache entry holds: n_ss(t^2),
    where n_ss = -4 P(1), so that t = zeta^{k'} reads rho_k, and D = 16/F.
    One walk of w, on through the tail x^(-2 sigma), gives W and
    W x^(-2 sigma), both with the factor t^m, m = (p - 1)/2, as jets
    (val, g, g^2); rho(<-w) is C W C / c, and Wada's Phi(dr/dx) is
    (I - Phi(y)) Phi(dw/dx) + Phi(w), from a second walk of w alone, at
    g = 0, the product rule applied to the weighted sums of
    ``_fox_jets``.  The slots of L carry t^(p - 1), which the diagonal of
    L = I at g^0, D and estimate (b) take out.  They are returned once
    these hold in Z[t]/(t^p - 1), for every index at once (RecordError
    names the knot and the first that fails).  Once per (p, B), in
    ``_metabelian``, on W = (XY)^m, in (val, du):
    - tangency at g^0: phi = W11 + (1 - s) W12 = 0 at g = 0;
    - Riley's smoothness: (t - 1)(t - 1/t) phi_u = p t^((p+1)/2) - N, so
      |phi_u| >= p/4;
    - C W C / c, in val and du, is an exact division in Z[t];
    - the longitude image L = rho(<-w) W x^(-2 sigma) = rho(<-w) W is I at
      g = 0 (four zero tests), and tr L at du is 0, lam_u = 0, the first
      factor of estimate (b) below.
    Per knot, on its own w, in (val, g, g^2):
    - its val slots of W and W x^(-2 sigma) are the stage's, so its checks
      hold for them and for the val slots of C W C / c read from it;
    - tangency at g^1: phi = 0 mod g^2;
    - C W C / c in its g and g^2 slots is an exact division in Z[t];
    - tr L = 2 + 0 g + D g^2 with D = -det([g^1] L) = 16 [h^2] I_lam =
      16/F (h = 4g is the s + 1 of ``curve``): tr L at g^1 is 0;
    - estimate (b), the implicit-function formula for [g^2] I_lam along
      the curve, phi_u (lam_ss - D) = lam_u phi_ss, by its second factor,
      lam_ss = D;
    - Wada's double zero: n = det Phi(dr/dx) at t_Wada = i(1 + e) is
      n_ss e^2 + O(e^3) (two zero tests), and 4 P(1) = -n_ss;
    - the paper's identity P(1)^2 F = 1/(u_k u_{kr}), r = q^-1 mod p:
      n_ss(t^2)^2 u(t^2) u(t^2r) = D, with the checks of
      ``checked_elements``, which alone guards their coefficients."""
    p, b, label = knot.p, _digit_bits(knot.p), knot.label
    bits, mask = b * p, (1 << b * p) - 1
    try:
        w0, values = _metabelian(p, b)
    except RecordError as e:
        raise RecordError(str(e).format(label)) from None

    def fold(x):  # _fold(x, bits), its loop inline
        while x >> bits:
            x = (x & mask) + (x >> bits)
        return x

    tail = [("x", -1 if knot.sigma > 0 else 1)] * abs(2 * knot.sigma)
    w, v = _image(knot.word.letters, b, tail)
    if [*zip(*w + v)][0] != w0 * 2:
        raise RecordError(f"W at g^0 is not (XY)^m for {label}")
    # a zero test does not see the factor t^m, which permutes coefficients
    _zero_test(w[0][1] + 2 * w[1][1] - 4 * w[1][0], p, b, "phi at g^1", label)

    # rho(<-w) = C W C / c: its 11 and 22 entries W11 + k and W22 - k and
    # its 12 entry, homogenized as W, and its 21 entry v rho(<-w)_12,
    # which carries t^(m + 1), moved back by t^-1; value slots the stage's
    k, r12 = _divide(values, _dividends(w, b), b, p, label)
    r10 = [values[2], *((x << bits - b & mask) + (x >> b) for x in _tv(r12, b))]
    # the g and g^2 slots of L = rho(<-w) v, v = W x^(-2 sigma), that the
    # checks read, each with the factor t^(2m) = t^(p - 1) of its operands
    r00, r11 = [*map(operator.add, w[0], k)], [*map(operator.sub, w[3], k)]
    v00, v01, v10, v11 = v
    (l00_s, l00_ss), (l11_s, l11_ss) = _dot(r00, v00, r12, v10, fold), _dot(r10, v01, r11, v11, fold)
    _zero_test(l00_s + l11_s, p, b, "tr L at g^1", label)
    # D, its t^(2(p - 1)) = t^-2 taken out
    d = fold(_dot(r00, v01, r12, v11, fold, False) * _dot(r10, v00, r11, v10, fold, False)
             - l00_s * l11_s) << 2 * b
    _zero_test((l00_ss + l11_ss << b) - d, p, b, "estimate (b)", label)

    a, bb, c, dd = ([(x & mask) + (x >> bits) for x in jet]  # the walk's 1 at OFF = p
                    for jet in _fox_jets(knot.word, b, 1 << bits))
    _zero_test(a[0] * dd[0] - bb[0] * c[0], p, b, "Wada's numerator at e^0", label)
    _zero_test(a[0] * dd[1] + a[1] * dd[0] - bb[0] * c[1] - bb[1] * c[0], p, b,
               "Wada's numerator at e^1", label)
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
    least multiple of 8 bits whose signed digit holds that bound, whatever
    the knot's width B, so that its zero test is sound for any p and any
    entry."""
    p, label = knot.p, knot.label
    if not (type(coeffs) is list and len(coeffs) == 2 and all(
            type(c) is list and len(c) == p and all(type(x) is int for x in c) for c in coeffs)):
        raise RecordError(f"the elements of {label} are not two lists of {p} ints")
    for what, c in zip(("4 P(1)", "16/F"), coeffs):
        _guard(c, what)
        if c[1:] != c[:0:-1]:
            raise RecordError(f"{what} of {label} is not real")
    n2, d = coeffs
    bound = 16 * max(map(abs, n2)) * sum(map(abs, n2)) + max(map(abs, d))
    b = bound.bit_length() + 8 & -8
    n2, d = (sum(c << (b * e) for e, c in enumerate(x)) for x in coeffs)
    u2, u2r = ((1 << b * (m % p)) + (1 << b * (-m % p)) - 2 for m in (2, 2 * pow(knot.q, -1, p)))
    _zero_test(_fold(n2 * n2, b * p) * _fold(u2 * u2r, b * p) - d, p, b,
               "P(1)^2 F u_k u_kr = 1", label)
    return coeffs
