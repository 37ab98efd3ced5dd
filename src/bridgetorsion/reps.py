"""SL2(C) representation families of the two-bridge knot group.

Two families matter here: the discrete metabelian representatives rho_k
(one per character of the double branched cover) and the continuous Riley
family rho_{sqrt(s),u} that deforms them along the character variety.
Both send x to an upper and y to a lower triangular matrix (Riley 1984),
and word products rely on that form: ``word_product`` multiplies by one
triangular letter image at a time and refuses images of any other form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IndexOutOfRange
from .numerics import LaurentPoly, RingMatrix
from .precision import DOUBLE
from .words import GroupRingElement, Word


@dataclass(frozen=True)
class Rep2:
    """Pair of SL2 images for the generators x and y."""

    img_x: RingMatrix
    img_y: RingMatrix


def metabelian_u(p, k, prec=DOUBLE):
    """u_k = (e^{k pi i/p} - e^{-k pi i/p})^2 = -4 sin^2(k pi / p)."""
    s = prec.sin(k * prec.pi / p)
    return -4 * s * s


def metabelian_rep(p, k, prec=DOUBLE):
    """The representative rho_k of the k-th irreducible metabelian class,
    k = 1..(p-1)/2: Riley's pair at s = -1, sqrt(s) = prec.sqrt(-1) = i,
    and u = u_k."""
    if not 1 <= k <= (p - 1) // 2:
        raise IndexOutOfRange(f"k = {k} outside 1..{(p - 1) // 2}")
    return Rep2(*riley_images(prec.sqrt(-1), metabelian_u(p, k, prec)))


def riley_images(rs, u):
    """Riley's images of x and y from sqrt(s) and u, in whatever ring rs and
    u live in (scalars, or the jets of the curve module)."""
    inv = 1 / rs
    zero = rs * 0
    img_x = RingMatrix((rs, inv, zero, inv))
    img_y = RingMatrix((rs, zero, -(u * rs), inv))
    return img_x, img_y


def _is_zero(c):
    return all(v == 0 for v in (c.coeffs() if hasattr(c, "coeffs") else (c,)))


def _letter_steps(img_x, img_y):
    """(generator, sign) -> (upper, p, q, r) for the letter's image
    [[p, q], [0, r]] (upper) or [[p, 0], [q, r]], and the identity's entries.

    The images must have Riley's triangular form, x upper and y lower
    triangular; so have their inverses, the adjugates.  Images of any other
    form raise ValueError rather than lose an entry."""
    a, b, zx, d = img_x.entries
    e, zy, g, h = img_y.entries
    if not (_is_zero(zx) and _is_zero(zy)):
        raise ValueError("word_product needs x upper and y lower triangular")
    zero = a * 0
    steps = {
        ("x", 1): (True, a, b, d),
        ("x", -1): (True, d, -b, a),
        ("y", 1): (False, e, g, h),
        ("y", -1): (False, h, -g, e),
    }
    return steps, (zero + 1, zero, zero, zero + 1)


def _walk(img_x, img_y, w):
    """The running product along a word, for scalar images (complex,
    mpmath): yields (generator, sign, product) at the start, as
    (None, 0, identity), and after each letter, which right-multiplies the
    product with 6 products and 2 sums (``_letter_steps``)."""
    steps, (r0, r1, r2, r3) = _letter_steps(img_x, img_y)
    yield None, 0, (r0, r1, r2, r3)
    for gen, sign in w.letters:
        upper, p, q, r = steps[gen, sign]
        if upper:
            r0, r1, r2, r3 = r0 * p, r0 * q + r1 * r, r2 * p, r2 * q + r3 * r
        else:
            r0, r1, r2, r3 = r0 * p + r1 * q, r1 * r, r2 * p + r3 * q, r3 * r
        yield gen, sign, (r0, r1, r2, r3)


def word_product(img_x, img_y, w):
    """Product of generator images along a word.  A jet ring that has a
    fused kernel for triangular letters (``curve.Jet2.triangular_product``)
    gets the letter steps of ``_letter_steps``; scalar images take the last
    product of ``_walk``."""
    kernel = getattr(type(img_x.entries[0]), "triangular_product", None)
    if kernel is None:
        *_, (_, _, product) = _walk(img_x, img_y, w)
    else:
        product = kernel(*_letter_steps(img_x, img_y), w.letters)
    return RingMatrix(product)


def phi_map(rep, element):
    """The evaluation Phi = alpha (x) rho on a group-ring element.

    Returns the 2x2 matrix over C[t, 1/t] given by
    sum_terms coeff * t^{alpha(word)} * rho(word).
    """
    if isinstance(element, Word):
        element = GroupRingElement.from_word(element)
    acc = [{} for _ in range(4)]
    for w, c in element.terms.items():
        e = w.exponent_sum()
        for d, entry in zip(acc, word_product(rep.img_x, rep.img_y, w).entries):
            d[e] = d.get(e, 0) + c * entry
    return RingMatrix(LaurentPoly(d) for d in acc)


def fox_image(rep, w, gen):
    """The entries of phi_map(rep, fox_derivative(w, gen)) as four raw maps
    exponent -> coefficient, for scalar images, from one walk of w with a
    running prefix product (``_walk``): O(len w) letter steps, where phi_map
    multiplies every Fox term's word from scratch.  Fox's rules give the
    terms: +prefix before each letter gen, -prefix after each letter gen^-1;
    each is added into the four maps in place."""
    acc = m0, m1, m2, m3 = [{} for _ in range(4)]
    a = 0
    for g, sign, prefix in _walk(rep.img_x, rep.img_y, w):
        a += sign
        if g == gen:
            e, c, (r0, r1, r2, r3) = (a - 1, 1, before) if sign > 0 else (a, -1, prefix)
            m0[e], m1[e], m2[e], m3[e] = (
                m0.get(e, 0) + c * r0, m1.get(e, 0) + c * r1,
                m2.get(e, 0) + c * r2, m3.get(e, 0) + c * r3,
            )
        before = prefix
    return acc
