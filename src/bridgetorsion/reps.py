"""SL2(C) representation families of the two-bridge knot group.

Two families matter here: the discrete metabelian representatives rho_k
(one per character of the double branched cover) and the continuous Riley
family rho_{sqrt(s),u} that deforms them along the character variety.
Both send x to an upper and y to a lower triangular matrix (Riley 1984),
and word products rely on that form: ``word_product`` multiplies by one
triangular letter image at a time and refuses images of any other form.
"""

from __future__ import annotations

import operator
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


def _walk(img_x, img_y, w):
    """The running product along a word: yields (generator, sign, product)
    at the start, as (None, 0, identity), and after each letter.

    The images must have Riley's triangular form, x upper and y lower
    triangular; so have their inverses, the adjugates, and each letter
    right-multiplies the running product with 6 products and 2 sums.  The
    product is kept as four flat coefficient tuples: a jet ring supplies
    its sum and truncated product on tuples (``coeff_add``, ``coeff_mul``),
    and plain scalars (complex, mpmath) use the operators.  Images of any
    other form raise ValueError rather than lose an entry."""
    a, b, zx, d = img_x.entries
    e, zy, g, h = img_y.entries
    if not (_is_zero(zx) and _is_zero(zy)):
        raise ValueError("word_product needs x upper and y lower triangular")
    ring = type(a)
    if hasattr(ring, "coeff_mul"):
        mul, add, flat = ring.coeff_mul, ring.coeff_add, ring.coeffs
    else:
        mul, add, flat = operator.mul, operator.add, lambda c: c
    zero = a * 0
    one = zero + 1
    # (generator, sign) -> (upper, p, q, r) for the letter's image
    # [[p, q], [0, r]] (upper) or [[p, 0], [q, r]]
    steps = {
        ("x", 1): (True, *map(flat, (a, b, d))),
        ("x", -1): (True, *map(flat, (d, -b, a))),
        ("y", 1): (False, *map(flat, (e, g, h))),
        ("y", -1): (False, *map(flat, (h, -g, e))),
    }
    r0, r1, r2, r3 = map(flat, (one, zero, zero, one))
    yield None, 0, (r0, r1, r2, r3)
    for gen, sign in w.letters:
        upper, p, q, r = steps[gen, sign]
        if upper:
            r0, r1, r2, r3 = (
                mul(r0, p), add(mul(r0, q), mul(r1, r)),
                mul(r2, p), add(mul(r2, q), mul(r3, r)),
            )
        else:
            r0, r1, r2, r3 = (
                add(mul(r0, p), mul(r1, q)), mul(r1, r),
                add(mul(r2, p), mul(r3, q)), mul(r3, r),
            )
        yield gen, sign, (r0, r1, r2, r3)


def word_product(img_x, img_y, w):
    """Product of generator images along a word: the last one of ``_walk``."""
    *_, (_, _, product) = _walk(img_x, img_y, w)
    ring = type(img_x.entries[0])
    if hasattr(ring, "coeff_mul"):
        product = [ring(*c) for c in product]
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
        _accumulate(acc, w.exponent_sum(), c, word_product(rep.img_x, rep.img_y, w).entries)
    return RingMatrix(LaurentPoly(d) for d in acc)


def fox_image(rep, w, gen):
    """The entries of phi_map(rep, fox_derivative(w, gen)) as four raw maps
    exponent -> coefficient, for scalar images, from one walk of w with a
    running prefix product (``_walk``): O(len w) letter steps, where phi_map
    multiplies every Fox term's word from scratch.  Fox's rules give the
    terms: +prefix before each letter gen, -prefix after each letter gen^-1."""
    acc = [{} for _ in range(4)]
    a = 0
    for g, sign, prefix in _walk(rep.img_x, rep.img_y, w):
        a += sign
        if g == gen:
            if sign > 0:
                _accumulate(acc, a - 1, 1, before)
            else:
                _accumulate(acc, a, -1, prefix)
        before = prefix
    return acc


def _accumulate(acc, exponent, coeff, entries):
    """Add coeff * t^exponent * entry into each entry's coefficient map."""
    for d, entry in zip(acc, entries):
        d[exponent] = d.get(exponent, 0) + coeff * entry
