"""The Riley curve through a metabelian point: residual and derivatives,
Newton continuation, trace functions, and the rational function F on the
character variety as a Taylor coefficient along the curve.

The curve is parametrized by s (hence by s + 1/s), which keeps every
quantity of record independent of the sqrt(s) branch.  Near the metabelian
point s = -1 + h, and -(I_muhat + 2) = h^2 + O(h^3) while I_lam - 2 has a
double zero; so F = 1 / [h^2] I_lam.  As s + 1/s is stationary at s = -1,
u = u_{k'} + O(h^2) along the curve, so no solve is needed mod h^2.  The
longitude image L is the identity at the metabelian point and
tr L - 2 = -det(L - I) on SL2, so [h^2] I_lam = -det([h^1] L):
first-order Taylor arithmetic pushed through the word products gives the
coefficient exactly, and far better conditioned than the h^2 coefficient
of the trace itself.

One pass of jets in (u, s) through the relator word w, at the metabelian
point, serves both estimates of F.  The value of record reads the jets'
quotient by (du, ds^2), the series mod h^2 at fixed u = u_{k'}, and takes
the image of the reversed word from the x <-> y symmetry of Riley's
representations.  The cross-check reads the h^2 coefficient of the trace
off second-order partials instead, with the reversed word from a direct
product; the two share the relator image W and nothing after it.

The jets run on the real pair of ``reps.riley_images``, at r = sqrt(-s) =
1 - h/2 - h^2/8, so at a metabelian point every slot is real.  Riley's
image of a word of exponent sum a is i^a times the real one.  F reads only
phase-free quantities: magnitudes, the ratio phi_ss / phi_u, and the
longitude image, whose exponent sum is 0.  So nothing on F's path puts
the phase back.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    EstimateDisagreement,
    LongitudeNotIdentity,
    NewtonDivergence,
    RecordError,
    SingularPoint,
    ZeroParameter,
)
from .numerics import RingMatrix, nan_max
from .precision import DOUBLE
from .reps import metabelian_u, riley_images, word_product
from .words import longitude_word

#: Largest max|[h^0] L - I| accepted for the longitude image L at the
#: metabelian point, the precondition of the determinant identity; rounding
#: leaves below 1e-12 through p = 101.
IDENTITY_TOL = 1e-8

#: Largest |phi| (scalar Newton's stopping rule), or coefficient of phi mod
#: h^2 at the metabelian point, accepted relative to its evaluation scale.
NEWTON_TOL = 1e-12
#: Smallest |dphi/du| at which the curve counts as smooth.
SINGULAR_TOL = 1e-8
#: Largest relative disagreement accepted between the two estimates of F.
CROSS_TOL = 1e-5
#: Newton iterations allowed per scalar solve.
MAX_NEWTON_ITER = 50


class Jet2:
    """Jet in R[u, s]/(du^2, du ds, ds^3): the value, then the coefficients
    of du, ds and ds^2.  It gives first-order partials exactly, and all that
    ``_implicit_h2`` needs: its dropped terms carry a factor u' = 0.  No
    operation reads the u or ss slots into the val and s slots, which thus
    form the quotient by (du, ds^2): the series mod h^2 along s = -1 + h
    at fixed u.

    With r = n/v for the nilpotent part n, 1/(v + n) = (1 - r + r^2)/v and
    sqrt(v + n) = sqrt(v) (1 + r/2 - r^2/8).  ``triangular_product`` is
    the ring's kernel for ``reps.word_product``."""

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

    @staticmethod
    def triangular_product(steps, identity, letters):
        """The product of triangular letter images along ``letters``, for
        ``reps.word_product``: ``steps`` maps a letter to (upper, p, q, r)
        for its image [[p, q], [0, r]] (upper) or [[p, 0], [q, r]].

        The running product [[a, b], [c, d]] is kept as 16 local scalars,
        and each letter updates them in one assignment, slot by slot as
        ``__mul__`` and ``__add__`` would: (A p)_slot + (B q)_slot, with
        ``__mul__``'s term order inside each.  Only -u r carries du,
        so the products by the u slots of x's entries and of y's diagonal
        are left out; an image where such a slot is not zero raises
        ValueError."""
        flat = {}
        for key, (upper, p, q, r) in steps.items():
            if any(e.u != 0 for e in ((p, q, r) if upper else (p, r))):
                raise ValueError("word_product needs du on y's off-diagonal entry alone")
            flat[key] = (upper, p.val, p.s, p.ss, q.val, q.u, q.s, q.ss, r.val, r.s, r.ss)
        (a0, au, as_, ass), (b0, bu, bs, bss), (c0, cu, cs, css), (d0, du, ds, dss) = (
            (e.val, e.u, e.s, e.ss) for e in identity)
        for key in letters:
            upper, p0, ps, pss, q0, qu, qs, qss, r0, rs, rss = flat[key]
            if upper:  # (a, b) -> (a p, a q + b r), and (c, d) alike
                (a0, au, as_, ass, b0, bu, bs, bss,
                 c0, cu, cs, css, d0, du, ds, dss) = (
                    a0 * p0, au * p0, a0 * ps + as_ * p0, a0 * pss + as_ * ps + ass * p0,
                    a0 * q0 + b0 * r0, au * q0 + bu * r0,
                    (a0 * qs + as_ * q0) + (b0 * rs + bs * r0),
                    (a0 * qss + as_ * qs + ass * q0) + (b0 * rss + bs * rs + bss * r0),
                    c0 * p0, cu * p0, c0 * ps + cs * p0, c0 * pss + cs * ps + css * p0,
                    c0 * q0 + d0 * r0, cu * q0 + du * r0,
                    (c0 * qs + cs * q0) + (d0 * rs + ds * r0),
                    (c0 * qss + cs * qs + css * q0) + (d0 * rss + ds * rs + dss * r0),
                )
            else:  # (a, b) -> (a p + b q, b r), and (c, d) alike
                (a0, au, as_, ass, b0, bu, bs, bss,
                 c0, cu, cs, css, d0, du, ds, dss) = (
                    a0 * p0 + b0 * q0, au * p0 + (b0 * qu + bu * q0),
                    (a0 * ps + as_ * p0) + (b0 * qs + bs * q0),
                    (a0 * pss + as_ * ps + ass * p0) + (b0 * qss + bs * qs + bss * q0),
                    b0 * r0, bu * r0, b0 * rs + bs * r0, b0 * rss + bs * rs + bss * r0,
                    c0 * p0 + d0 * q0, cu * p0 + (d0 * qu + du * q0),
                    (c0 * ps + cs * p0) + (d0 * qs + ds * q0),
                    (c0 * pss + cs * ps + css * p0) + (d0 * qss + ds * qs + dss * q0),
                    d0 * r0, du * r0, d0 * rs + ds * r0, d0 * rss + ds * rs + dss * r0,
                )
        return [Jet2(a0, au, as_, ass), Jet2(b0, bu, bs, bss),
                Jet2(c0, cu, cs, css), Jet2(d0, du, ds, dss)]

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


@dataclass(frozen=True)
class RileyPoint:
    """Accepted point on the Riley curve; residual is |phi(s, u)|."""

    s: float
    u: complex
    residual: float


@dataclass(frozen=True)
class FEstimate:
    """Result of the F evaluation.

    ``value`` (the value of record) comes from the longitude series mod h^2,
    ``direct`` (its cross-check) from the implicit-function formula; both
    start from one jet image of the relator word and share nothing after
    it.  The double zero of I_lam - 2 shows in ``lam_gap0`` =
    |[h^0] I_lam - 2| and ``lam_gap1`` = |[h^1] I_lam|, and ``lon_gap0`` =
    max|[h^0] L - I| is the precondition of the determinant identity;
    ``max_residual`` is the largest coefficient of phi mod h^2 at
    s = -1 + h, u = u_{k'}."""

    value: float
    direct: float
    rel_disagreement: float
    max_residual: float
    lam_gap0: float
    lam_gap1: float
    lon_gap0: float


def _relator_jets(knot, s, u, prec):
    """s and the real pair of x and y as jets in (u, s) at the point (s, u),
    with r = sqrt(-s), the real image W of the relator word w, and the two
    terms W11 and (1-s) W12 of phi, whose magnitudes set the scale phi is
    evaluated at.  Riley's W, and so phi, is i^alpha(w) times these."""
    if s == 0:
        raise ZeroParameter("Riley residual needs s != 0")
    zero = u * 0
    sj = Jet2(zero + s, zero, zero + 1, zero)
    img_x, img_y = riley_images((-sj).sqrt(prec.sqrt), Jet2(u, zero + 1, zero, zero))
    w = word_product(img_x, img_y, knot.word)
    return sj, img_x, img_y, w, (w.entries[0], (1 - sj) * w.entries[1])


def _jet_phi(knot, s, u, prec=DOUBLE):
    """phi = W11 + (1-s) W12 of the real pair as a jet in (u, s), Riley's
    phi up to its phase, and its evaluation scale."""
    *_, (w11, second) = _relator_jets(knot, s, u, prec)
    return w11 + second, float(abs(w11.val) + abs(second.val) + 1.0)


def riley_residual(knot, s, u, prec=DOUBLE):
    """phi(s, u) = W11 + (1-s) W12 for Riley's images and its partials
    (d/du, d/ds), all three read off one jet pass through the word product
    of the real pair, times the phase i^alpha(w)."""
    phi, _ = _jet_phi(knot, s, u, prec)
    phase = prec.sqrt(-1) ** (knot.word.exponent_sum() % 4)
    return phi.val * phase, phi.u * phase, phi.s * phase


def metabelian_pairing(p, k):
    """The unique k' in 1..(p-1)/2 with 2k' = +/- k mod p, from the inverse
    (p+1)/2 of 2 mod p; rho_{k'} is the companion representation at whose
    character F is evaluated."""
    kp = k * ((p + 1) // 2) % p
    return min(kp, p - kp)


def trace_longitude(knot, s, u, prec=DOUBLE):
    """Trace of the longitude image under Riley's pair at (s, u), read off
    the real pair: the longitude has exponent sum 0, so no phase."""
    if s == 0:
        raise ZeroParameter("trace_longitude needs s != 0")
    img_x, img_y = riley_images(prec.sqrt(-s), u)
    return word_product(img_x, img_y, longitude_word(knot)).trace()


def swap_generators(w, s, u):
    """The image of a word with x and y swapped, from the image W of the
    word: M W M^-1 with M = [[s-1, 1], [-u s, 1-s]], which conjugates
    Riley's image of x to that of y and back.  M^2 = ((s-1)^2 - u s) I
    gives the inverse.  M conjugates the real pair alike, as it is Riley's
    pair divided by i.  For a normalized two-bridge word the exponents
    satisfy e_{p-i} = e_i, so the reversed word <-w is w with x and y
    swapped.  At s = -1 the conditioning of M is about 1/(4 + u), which
    grows like p^2 as u_{k'} approaches -4."""
    m = RingMatrix((s - 1, s * 0 + 1, -(u * s), 1 - s))
    d = 1 / ((s - 1) * (s - 1) - u * s)
    return RingMatrix(e * d for e in (m * w * m).entries)


def longitude_image(knot, rev, w, img_x):
    """The longitude image rho(<-w) W x^(-2 sigma) from rev = rho(<-w) and
    W = rho(w); the peripheral power comes from binary powering.  The
    power is even, so the adjugate serves as the inverse of x for a
    determinant of 1 (Riley's pair) or -1 (the real pair)."""
    lon = rev * w
    n = 2 * knot.sigma
    base = img_x.adjugate() if n > 0 else img_x
    n = abs(n)
    while n:
        if n & 1:
            lon = lon * base
        n >>= 1
        if n:
            base = base * base
    return lon


def _check_smooth(knot, kprime, du):
    """Raise SingularPoint where |dphi/du| at the metabelian point says the
    curve through it is not smooth."""
    if not abs(du) >= SINGULAR_TOL:
        raise SingularPoint(
            f"curve through u_{kprime} of {knot.label} is singular: "
            f"|dphi/du| = {float(abs(du)):.3e}"
        )


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
    _check_smooth(knot, kprime, phi.u)
    if h == 0:
        return RileyPoint(-1.0, u_meta, float(abs(phi.val)))
    u0 = u_meta if seed is None else seed
    u, resid = _newton_u(knot, -1.0 + h, u0, prec)
    return RileyPoint(-1.0 + h, u, resid)


def _check_tangent(knot, kprime, w11, second):
    """The largest coefficient of phi = W11 + (1-s) W12 mod h^2 at
    s = -1 + h, u = u_{k'}, where the curve is tangent to u = u_{k'}, read
    off the val and s slots; RecordError if it fails the NEWTON_TOL rule,
    as it does off the curve."""
    slots = [(w11.val, second.val), (w11.s, second.s)]
    resid = nan_max(float(abs(a + b)) for a, b in slots)
    scale = nan_max(float(abs(a) + abs(b)) for a, b in slots)
    if not resid <= NEWTON_TOL * (scale + 1.0):
        raise RecordError(
            f"u_{kprime} of {knot.label} does not solve phi = 0 mod h^2: "
            f"max|[h^i] phi| = {resid:.3e} at scale {scale:.3e}"
        )
    return resid


def _identity_gap(lon):
    """max|[h^0] L - I| for the longitude image L."""
    return nan_max(float(abs(e.val - i)) for e, i in zip(lon.entries, (1, 0, 0, 1)))


def _h2_of_trace(knot, kprime, lon):
    """[h^2] tr L from [h^1] L (the s slots), for L in SL2 with L(0) = I:
    tr L - 2 = -det(L - I) = -h^2 det([h^1] L) + O(h^3).  Raises
    LongitudeNotIdentity where L(0) = I fails beyond IDENTITY_TOL."""
    gap = _identity_gap(lon)
    if not gap <= IDENTITY_TOL:
        raise LongitudeNotIdentity(
            f"longitude image at u_{kprime} of {knot.label} is not the identity: "
            f"max|L - I| = {gap:.3e} (> {IDENTITY_TOL:.1e})"
        )
    return -RingMatrix(e.s for e in lon.entries).det()


def _implicit_h2(phi, lam):
    """[h^2] I_lam by the implicit function theorem from the second-order
    partials of phi and of the longitude trace at the metabelian point
    (-1, u_{k'}), with no solve and without the determinant identity of
    ``_h2_of_trace``.

    In Taylor coefficients, with s = -1 + h and u = u_{k'} + u' h + u'' h^2,
    u' = -phi_s/phi_u, u'' = -(phi_ss + phi_su u' + phi_uu u'^2)/phi_u and
    [h^2] I_lam = L_ss + L_su u' + L_uu u'^2 + L_u u''.  At a metabelian
    point u' = 0 (``_check_tangent`` refuses a point where it is not),
    which leaves u'' = -phi_ss/phi_u and [h^2] I_lam = L_ss + L_u u''."""
    return lam.ss - lam.u * phi.ss / phi.u


def evaluate_F(knot, kprime, prec=DOUBLE):
    """The rational function (I_lam^2-4)/(I_muhat^2-4) * (dI_muhat/dI_lam)^2
    at the metabelian character chi_{rho_{k'}}, as 1/[h^2] I_lam.

    One jet pass in (u, s) at (-1, u_{k'}) gives phi and the relator image
    W; the two estimates share W and nothing after it.
    (b) the cross-check takes rho(<-w) from a product over the reversed
        word, as the conditioning of ``swap_generators`` would spoil the
        small coefficient it reads off large ones, and [h^2] I_lam from the
        implicit-function formula (``_implicit_h2``); its phi_u is the
        smoothness check;
    (a) the value of record reads the (val, s) slots alone, the series mod
        h^2 at u = u_{k'}: the tangency check, rho(<-w) = M W M^-1
        (``swap_generators``) and the determinant identity
        (``_h2_of_trace``).  1/value is H_hat(-2), where I_lam - 2 =
        -(I_muhat + 2) H_hat(I_muhat) locally; for the figure-eight knot
        it comes out 5.
    A relative disagreement beyond CROSS_TOL raises.
    """
    u_meta = metabelian_u(knot.p, kprime, prec)
    s, img_x, img_y, w, (w11, second) = _relator_jets(knot, -1.0, u_meta, prec)
    phi = w11 + second
    _check_smooth(knot, kprime, phi.u)
    rev = word_product(img_x, img_y, knot.reversed_word)
    direct = 1 / _implicit_h2(phi, longitude_image(knot, rev, w, img_x).trace())
    resid = _check_tangent(knot, kprime, w11, second)
    lon = longitude_image(knot, swap_generators(w, s, u_meta), w, img_x)
    lam = lon.trace()
    value = 1 / _h2_of_trace(knot, kprime, lon)
    rel = float(abs(value - direct) / max(abs(value), abs(direct), 1e-300))
    if not rel <= CROSS_TOL:
        raise EstimateDisagreement(
            f"F estimates disagree by {rel:.3e} (> {CROSS_TOL:.1e}) for "
            f"{knot.label}, k' = {kprime}: series {value!r} vs implicit {direct!r}"
        )
    return FEstimate(
        value=value,
        direct=direct,
        rel_disagreement=rel,
        max_residual=resid,
        lam_gap0=float(abs(lam.val - 2)),
        lam_gap1=float(abs(lam.s)),
        lon_gap0=_identity_gap(lon),
    )
