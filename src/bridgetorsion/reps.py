"""SL2(C) representation families of the two-bridge knot group, and their
real form.

Two families matter here: the discrete metabelian representatives rho_k
(one per character of the double branched cover) and the continuous Riley
family rho_{sqrt(s),u} that deforms them along the character variety.
Both send x to an upper and y to a lower triangular matrix (Riley 1984),
and word products rely on that form: ``word_product`` multiplies by one
triangular letter image at a time and refuses images of any other form.

``riley_images`` builds the real pair, Riley's images divided by i:
x = [[r, -1/r], [0, -1/r]] and y = [[r, 0], [-u r, -1/r]] with r = sqrt(-s),
so that sqrt(s) = i r.  Its determinants are -1, and a word product takes
an inverse letter's image as its adjugate over its determinant.  So a word
v has Riley image i^alpha(v) times its real image, alpha the exponent sum
(the phase law).  At the metabelian point s = -1 the pair is real, with
r = 1 for scalars and r = 1 - h/2 - h^2/8 for jets along s = -1 + h; with
h = 4g its entries are integer polynomials in u and g, which ``exact``
multiplies for every index at once.  F reads only phase-free quantities,
and P(1) folds the phase into Wada's weight (``alexander.p_at_one``).
"""

from collections import namedtuple

from .errors import IndexOutOfRange
from .numerics import LaurentPoly, RingMatrix
from .precision import DOUBLE
from .words import GroupRingElement, Word


class Rep2(namedtuple("Rep2", "img_x img_y")):
    """Pair of images for the generators x and y, each a RingMatrix."""

    __slots__ = ()


def metabelian_u(p, k, prec=DOUBLE):
    """u_k = (e^{k pi i/p} - e^{-k pi i/p})^2 = -4 sin^2(k pi / p)."""
    s = prec.sin(k * prec.pi / p)
    return -4 * s * s


def metabelian_pair(p, k, prec=DOUBLE):
    """The real pair of rho_k, the k-th irreducible metabelian class,
    k = 1..(p-1)/2: ``riley_images`` at s = -1, r = sqrt(-s) =
    prec.sqrt(1), and u = u_k.  Every entry is real."""
    if not 1 <= k <= (p - 1) // 2:
        raise IndexOutOfRange(f"k = {k} outside 1..{(p - 1) // 2}")
    return Rep2(*riley_images(prec.sqrt(1), metabelian_u(p, k, prec)))


def metabelian_rep(p, k, prec=DOUBLE):
    """The SL2 representative rho_k: Riley's pair at s = -1, sqrt(s) = i =
    prec.sqrt(-1) and u = u_k, that is, i times ``metabelian_pair``."""
    i = prec.sqrt(-1)
    pair = metabelian_pair(p, k, prec)
    return Rep2(*(RingMatrix(i * e for e in img.entries) for img in (pair.img_x, pair.img_y)))


def riley_images(r, u):
    """The real pair at r = sqrt(-s) and u, Riley's images of x and y
    divided by i, in whatever ring r and u live in (scalars, or the jets of
    the curve module)."""
    inv = -1 / r
    zero = r * 0
    img_x = RingMatrix((r, inv, zero, inv))
    img_y = RingMatrix((r, zero, -(u * r), inv))
    return img_x, img_y


def _is_zero(c):
    return all(v == 0 for v in (c.coeffs() if hasattr(c, "coeffs") else (c,)))


def _walk(img_x, img_y, w, gen=None):
    """The product of the images along w, and the raw maps of
    ``fox_image`` for the generator gen (empty for None), in one loop.

    Each letter right-multiplies the running product by its image
    [[p, q], [0, r]] (upper) or [[p, 0], [q, r]] with 6 products and 2
    sums.  An inverse letter's image is the adjugate over the determinant;
    that is 1 for SL2 images and -1 for the real pair, so the division is
    exact there.  The images must have Riley's triangular form, x upper and
    y lower triangular; images of any other form raise ValueError rather
    than lose an entry.  Fox's rules give the terms of the maps: +prefix
    before each letter gen and -prefix after each letter gen^-1, added in
    place at the exponent sum of that prefix."""
    x0, x1, zx, x3 = img_x.entries
    y0, zy, y2, y3 = img_y.entries
    if not (_is_zero(zx) and _is_zero(zy)):
        raise ValueError("word_product needs x upper and y lower triangular")
    dx, dy = 1 / (x0 * x3), 1 / (y0 * y3)
    steps = {
        ("x", 1): (True, x0, x1, x3),
        ("x", -1): (True, x3 * dx, -x1 * dx, x0 * dx),
        ("y", 1): (False, y0, y2, y3),
        ("y", -1): (False, y3 * dy, -y2 * dy, y0 * dy),
    }
    zero = x0 * 0
    r0, r1, r2, r3 = zero + 1, zero, zero, zero + 1
    maps = m0, m1, m2, m3 = [{} for _ in range(4)]
    a = 0
    for key in w.letters:
        g, sign = key
        if g == gen and sign > 0:
            m0[a], m1[a], m2[a], m3[a] = (
                m0.get(a, 0) + r0, m1.get(a, 0) + r1, m2.get(a, 0) + r2, m3.get(a, 0) + r3,
            )
        upper, p, q, r = steps[key]
        if upper:
            r0, r1, r2, r3 = r0 * p, r0 * q + r1 * r, r2 * p, r2 * q + r3 * r
        else:
            r0, r1, r2, r3 = r0 * p + r1 * q, r1 * r, r2 * p + r3 * q, r3 * r
        a += sign
        if g == gen and sign < 0:
            m0[a], m1[a], m2[a], m3[a] = (
                m0.get(a, 0) - r0, m1.get(a, 0) - r1, m2.get(a, 0) - r2, m3.get(a, 0) - r3,
            )
    return (r0, r1, r2, r3), maps


def word_product(img_x, img_y, w):
    """Product of generator images along a word (``_walk``)."""
    product, _ = _walk(img_x, img_y, w)
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
    multiplies every Fox term's word from scratch."""
    return _walk(rep.img_x, rep.img_y, w, gen)[1]
