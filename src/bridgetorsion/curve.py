"""The Riley curve through a metabelian point: residual and derivatives,
Newton continuation and trace functions on the real pair of
``reps.riley_images``, and the rational function F on the character
variety, read off the exact elements of ``exact`` by ``pipeline.read``.

The curve is parametrized by s (hence by s + 1/s), which keeps every
quantity of record independent of the sqrt(s) branch.  Near the metabelian
point s = -1 + h, and -(I_muhat + 2) = h^2 + O(h^3) while I_lam - 2 has a
double zero; so F = 1 / [h^2] I_lam.  As s + 1/s is stationary at s = -1,
u = u_{k'} + O(h^2) along the curve, so no solve is needed mod h^2.  The
longitude image L is the identity at the metabelian point and
tr L - 2 = -det(L - I) on SL2, so [h^2] I_lam = -det([h^1] L).
"""
from collections import namedtuple

from .errors import NewtonDivergence, RecordError, SingularPoint, ZeroParameter
from .exact import knot_elements
from .pipeline import read
from .precision import DOUBLE
from .reps import metabelian_u, riley_images, word_product
from .words import longitude_word

#: Largest |phi| (scalar Newton's stopping rule) accepted relative to its
#: evaluation scale.
NEWTON_TOL = 1e-12
#: Smallest |dphi/du| at which the curve counts as smooth.
SINGULAR_TOL = 1e-8
#: Newton iterations allowed per scalar solve.
MAX_NEWTON_ITER = 50


class Jet2:
    """Jet in R[u, s]/(du^2, du ds, ds^3): the value, then the coefficients
    of du, ds and ds^2.  It gives the first-order partials of the Riley
    residual exactly, and the series mod e^3 of ``alexander.p_at_one``.
    No operation reads the u or ss slots into the val and s slots.

    With r = n/v for the nilpotent part n, 1/(v + n) = (1 - r + r^2)/v and
    sqrt(v + n) = sqrt(v) (1 + r/2 - r^2/8)."""

    __slots__ = ("val", "u", "s", "ss")

    def __init__(self, val, u=0.0, s=0.0, ss=0.0):
        self.val = val
        self.u = u
        self.s = s
        self.ss = ss

    def coeffs(self):
        return [self.val, self.u, self.s, self.ss]

    def __add__(self, o):
        if isinstance(o, Jet2):
            return Jet2(self.val + o.val, self.u + o.u, self.s + o.s, self.ss + o.ss)
        return Jet2(self.val + o, self.u, self.s, self.ss)

    def __mul__(self, o):
        if isinstance(o, Jet2):
            a0, au, as_, ass = self.val, self.u, self.s, self.ss
            b0, bu, bs, bss = o.val, o.u, o.s, o.ss
            return Jet2(
                a0 * b0,
                a0 * bu + au * b0,
                a0 * bs + as_ * b0,
                a0 * bss + as_ * bs + ass * b0,
            )
        return Jet2(self.val * o, self.u * o, self.s * o, self.ss * o)

    def __radd__(self, o):
        return self + o

    def __rmul__(self, o):
        return self * o

    def __neg__(self):
        return Jet2(-self.val, -self.u, -self.s, -self.ss)

    def __sub__(self, o):
        return self + (-o)

    def __rsub__(self, o):
        return (-self) + o

    def __rtruediv__(self, o):
        return self.reciprocal() * o

    def _nilpotent_ratio(self):
        r = 1 / self.val
        return Jet2(self.val * 0, self.u * r, self.s * r, self.ss * r)

    def reciprocal(self):
        """(1 - r + r^2)/v in straight-line code: r^2 has the ss slot
        (s/v)^2 alone."""
        iv = 1 / self.val
        ru, rs, rss = self.u * iv, self.s * iv, self.ss * iv
        return Jet2(iv, -ru * iv, -rs * iv, (rs * rs - rss) * iv)

    def sqrt(self, scalar_sqrt):
        r = self._nilpotent_ratio()
        return (1 + r * 0.5 - r * r * 0.125) * scalar_sqrt(self.val)

    def __repr__(self):
        parts = (f"{n}={c!r}" for n, c in zip(self.__slots__, self.coeffs()))
        return f"Jet2({', '.join(parts)})"


class RileyPoint(namedtuple("RileyPoint", "s u residual")):
    """Accepted point on the Riley curve: real s, complex u, and the
    residual |phi(s, u)|."""

    __slots__ = ()


def _jet_phi(knot, s, u, prec=DOUBLE):
    """phi = W11 + (1-s) W12 of the real pair as a jet in (u, s) at the
    point (s, u), with r = sqrt(-s), Riley's phi up to its phase i^alpha(w),
    and its evaluation scale |W11| + |(1-s) W12| + 1."""
    if s == 0:
        raise ZeroParameter("Riley residual needs s != 0")
    zero = u * 0
    sj = Jet2(zero + s, zero, zero + 1, zero)
    img_x, img_y = riley_images((-sj).sqrt(prec.sqrt), Jet2(u, zero + 1, zero, zero))
    w = word_product(img_x, img_y, knot.word)
    w11, second = w.entries[0], (1 - sj) * w.entries[1]
    return w11 + second, float(abs(w11.val) + abs(second.val) + 1.0)


def riley_residual(knot, s, u, prec=DOUBLE):
    """phi(s, u) = W11 + (1-s) W12 for Riley's images and its partials
    (d/du, d/ds), all three read off one jet pass through the word product
    of the real pair, times the phase i^alpha(w)."""
    phi, _ = _jet_phi(knot, s, u, prec)
    phase = prec.sqrt(-1) ** (knot.word.exponent_sum() % 4)
    return phi.val * phase, phi.u * phase, phi.s * phase


def trace_longitude(knot, s, u, prec=DOUBLE):
    """Trace of the longitude image under Riley's pair at (s, u), read off
    the real pair: the longitude has exponent sum 0, so no phase."""
    if s == 0:
        raise ZeroParameter("trace_longitude needs s != 0")
    img_x, img_y = riley_images(prec.sqrt(-s), u)
    return word_product(img_x, img_y, longitude_word(knot)).trace()


def _newton_u(knot, s, u0, prec):
    """Newton in u at fixed s.  The stopping rule is relative to the
    evaluation scale of phi: the absolute floor eps*scale is what double
    precision can reach near a simple root."""
    u = u0
    for _ in range(MAX_NEWTON_ITER):
        phi, scale = _jet_phi(knot, s, u, prec)
        resid = abs(phi.val)
        if float(resid) <= NEWTON_TOL * scale:
            return u, float(resid)
        if abs(phi.u) < SINGULAR_TOL:
            raise SingularPoint(
                f"|dphi/du| = {float(abs(phi.u)):.3e} below {SINGULAR_TOL:.1e} at s={s!r}"
            )
        u = u - phi.val / phi.u
        if abs(u - u0) > 10 * (1 + abs(u0)):
            raise NewtonDivergence(f"iterate ran away from seed {u0!r} at s={s!r}")
    raise NewtonDivergence(
        f"no convergence in {MAX_NEWTON_ITER} iterations at s={s!r}"
    )


def continue_riley_curve(knot, kprime, h, prec=DOUBLE, seed=None):
    """Solve phi(-1+h, u) = 0 near the metabelian point u_{k'}.

    Checks smoothness |dphi/du| at the seed point (-1, u_{k'}) first; h = 0
    returns the metabelian point itself.
    """
    u_meta = metabelian_u(knot.p, kprime, prec)
    phi, _ = _jet_phi(knot, -1.0, u_meta, prec)
    if not abs(phi.u) >= SINGULAR_TOL:
        raise SingularPoint(
            f"curve through u_{kprime} of {knot.label} is singular: "
            f"|dphi/du| = {float(abs(phi.u)):.3e}"
        )
    if h == 0:
        return RileyPoint(-1.0, u_meta, float(abs(phi.val)))
    u0 = u_meta if seed is None else seed
    u, resid = _newton_u(knot, -1.0 + h, u0, prec)
    return RileyPoint(-1.0 + h, u, resid)


def evaluate_F(knot, kprime):
    """The rational function (I_lam^2-4)/(I_muhat^2-4) * (dI_muhat/dI_lam)^2
    at the metabelian character chi_{rho_{k'}}, as 1/[h^2] I_lam: the
    ``pipeline.Reading`` of index k', whose f_value is F.  The knot's exact
    elements (``exact.knot_elements``) hold the two estimates equal at
    every index: (a) -det([h^1] L) of the longitude image, and (b) the
    implicit-function formula L_ss - L_u phi_ss / phi_u.  1/F is
    H_hat(-2), where I_lam - 2 = -(I_muhat + 2) H_hat(I_muhat) locally; for
    the figure-eight knot it comes out 5.  The readout is exact to its
    margin; RecordError where the margin is below its bound."""
    reading = read(knot_elements(knot))[kprime - 1]
    if isinstance(reading, RecordError):
        raise reading
    return reading
