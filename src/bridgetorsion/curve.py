"""The Riley curve through a metabelian point: residual and derivatives,
Newton continuation, trace functions, and the rational function F on the
character variety as a Taylor coefficient along the curve.

The curve is parametrized by s (hence by s + 1/s), which keeps every
quantity of record independent of the sqrt(s) branch.  Near the metabelian
point s = -1 + h, and -(I_muhat + 2) = h^2 + O(h^3) while I_lam - 2 has a
double zero; so F = 1 / [h^2] I_lam.  The longitude image L is the identity
at the metabelian point and tr L - 2 = -det(L - I) on SL2, so
[h^2] I_lam = -det([h^1] L): first-order Taylor arithmetic pushed through
the word products gives the coefficient exactly, and far better
conditioned than the h^2 coefficient of the trace itself.  The cross-check
reads that h^2 coefficient of the trace off second-order partials instead,
so it shares neither the solve nor the identity.  Both build the longitude
image from the image of the relator word w that phi already needs: the
value of record takes the image of the reversed word from the x <-> y
symmetry of Riley's representations, the cross-check from a direct product.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    EstimateDisagreement,
    LongitudeNotIdentity,
    NewtonDivergence,
    SingularPoint,
    ZeroParameter,
)
from .numerics import RingMatrix
from .precision import DOUBLE
from .reps import evaluate_word, metabelian_u, riley_images, riley_rep, word_product
from .words import longitude_word

#: Identifies how evaluate_F computes F; part of the cache fingerprint.
F_METHOD = "taylor-h2-mirror"

#: Largest max|[h^0] L - I| accepted for the longitude image L at the
#: metabelian point, the precondition of the determinant identity; rounding
#: leaves below 1e-12 through p = 101.
IDENTITY_TOL = 1e-8


class _Jet:
    """Arithmetic shared by the jets below: a scalar value plus a nilpotent
    part n with n^3 = 0.  Subclasses list the value and then the higher
    coefficients in ``__slots__`` and supply __init__, __add__ and __mul__
    (which accept plain scalars too); with r = n/v, reciprocals and square
    roots follow from 1/(v + n) = (1 - r + r^2)/v and
    sqrt(v + n) = sqrt(v) (1 + r/2 - r^2/8), where r^2 vanishes for the
    first-order jets."""

    __slots__ = ()

    def coeffs(self):
        return [getattr(self, name) for name in self.__slots__]

    def __radd__(self, o):
        return self + o

    def __rmul__(self, o):
        return self * o

    def __neg__(self):
        return type(self)(*(-c for c in self.coeffs()))

    def __sub__(self, o):
        return self + (-o)

    def __rsub__(self, o):
        return (-self) + o

    def __truediv__(self, o):
        return self * (o.reciprocal() if isinstance(o, _Jet) else 1 / o)

    def __rtruediv__(self, o):
        return self.reciprocal() * o

    def _nilpotent_ratio(self):
        v, *rest = self.coeffs()
        r = 1 / v
        return type(self)(v * 0, *(c * r for c in rest))

    def reciprocal(self):
        r = self._nilpotent_ratio()
        return (1 - r + r * r) * (1 / self.val)

    def sqrt(self, scalar_sqrt):
        r = self._nilpotent_ratio()
        return (1 + r * 0.5 - r * r * 0.125) * scalar_sqrt(self.val)


class Dual(_Jet):
    """First-order jet a + b*eps_u + c*eps_s carrying partials in (u, s)."""

    __slots__ = ("val", "du", "ds")

    def __init__(self, val, du=0.0, ds=0.0):
        self.val = val
        self.du = du
        self.ds = ds

    def __add__(self, o):
        if isinstance(o, Dual):
            return Dual(self.val + o.val, self.du + o.du, self.ds + o.ds)
        return Dual(self.val + o, self.du, self.ds)

    def __mul__(self, o):
        if isinstance(o, Dual):
            return Dual(
                self.val * o.val,
                self.val * o.du + self.du * o.val,
                self.val * o.ds + self.ds * o.val,
            )
        return Dual(self.val * o, self.du * o, self.ds * o)

    def __repr__(self):
        return f"Dual({self.val!r}, du={self.du!r}, ds={self.ds!r})"


class Series(_Jet):
    """Power series val + h1*h truncated mod h^2, in the step h along the
    curve."""

    __slots__ = ("val", "h1")

    def __init__(self, val, h1=0.0):
        self.val = val
        self.h1 = h1

    def __add__(self, o):
        if isinstance(o, Series):
            return Series(self.val + o.val, self.h1 + o.h1)
        return Series(self.val + o, self.h1)

    def __mul__(self, o):
        if isinstance(o, Series):
            return Series(self.val * o.val, self.val * o.h1 + self.h1 * o.val)
        return Series(self.val * o, self.h1 * o)

    def __repr__(self):
        return f"Series({self.val!r}, h1={self.h1!r})"


class Jet2(_Jet):
    """Second-order jet in (u, s): the value, then the Taylor coefficients
    of du, ds, du^2, du ds and ds^2; terms of total degree 3 are dropped."""

    __slots__ = ("val", "u", "s", "uu", "us", "ss")

    def __init__(self, val, u=0.0, s=0.0, uu=0.0, us=0.0, ss=0.0):
        self.val = val
        self.u = u
        self.s = s
        self.uu = uu
        self.us = us
        self.ss = ss

    def __add__(self, o):
        if isinstance(o, Jet2):
            return Jet2(
                self.val + o.val, self.u + o.u, self.s + o.s,
                self.uu + o.uu, self.us + o.us, self.ss + o.ss,
            )
        return Jet2(self.val + o, self.u, self.s, self.uu, self.us, self.ss)

    def __mul__(self, o):
        a0, au, as_ = self.val, self.u, self.s
        if isinstance(o, Jet2):
            b0, bu, bs = o.val, o.u, o.s
            return Jet2(
                a0 * b0,
                a0 * bu + au * b0,
                a0 * bs + as_ * b0,
                a0 * o.uu + au * bu + self.uu * b0,
                a0 * o.us + au * bs + as_ * bu + self.us * b0,
                a0 * o.ss + as_ * bs + self.ss * b0,
            )
        return Jet2(a0 * o, au * o, as_ * o, self.uu * o, self.us * o, self.ss * o)

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
class LimitConfig:
    """Knobs of the curve solves and of the F cross-check."""

    newton_tol: float = 1e-12
    singular_tol: float = 1e-8
    cross_tol: float = 1e-5
    max_newton_iter: int = 50


@dataclass(frozen=True)
class FEstimate:
    """Result of the F evaluation.

    ``value`` (the value of record) comes from the series solve, ``direct``
    (its independent cross-check) from the implicit-function formula.  The
    double zero of I_lam - 2 shows in ``lam_gap0`` = |[h^0] I_lam - 2| and
    ``lam_gap1`` = |[h^1] I_lam|, and ``lon_gap0`` = max|[h^0] L - I| is the
    precondition of the determinant identity; ``max_residual`` is the
    largest coefficient of phi left by the series Newton solve."""

    value: complex
    direct: complex
    rel_disagreement: float
    max_residual: float
    lam_gap0: float
    lam_gap1: float
    lon_gap0: float


def _relator_terms(knot, s, img_x, img_y):
    """(W, W11, (1-s) W12) for the image W of the relator word w; phi is the
    sum of the last two, and their magnitudes set the scale phi is evaluated
    at."""
    w = word_product(img_x, img_y, knot.word)
    return w, w.entries[0], (1 - s) * w.entries[1]


def _dual_phi(knot, s, u, prec=DOUBLE, branch=1):
    """phi = W11 + (1-s) W12 with forward-mode partials, and its evaluation
    scale."""
    if s == 0:
        raise ZeroParameter("Riley residual needs s != 0")
    sd = Dual(s, 0.0, 1.0)
    images = riley_images(sd.sqrt(prec.sqrt) * branch, Dual(u, 1.0, 0.0))
    _, w11, second = _relator_terms(knot, sd, *images)
    return w11 + second, float(abs(w11.val) + abs(second.val) + 1.0)


def riley_residual(knot, s, u, prec=DOUBLE, branch=1):
    """phi(s, u) = W11 + (1-s) W12 and its partials (d/du, d/ds), all three
    computed in one dual-number pass through the word product."""
    phi, _ = _dual_phi(knot, s, u, prec, branch)
    return phi.val, phi.du, phi.ds


def metabelian_pairing(p, k):
    """The unique k' in 1..(p-1)/2 with 2k' = +/- k mod p; rho_{k'} is the
    companion representation at whose character F is evaluated."""
    matches = [
        kp
        for kp in range(1, (p - 1) // 2 + 1)
        if (2 * kp - k) % p == 0 or (2 * kp + k) % p == 0
    ]
    if len(matches) != 1:
        raise AssertionError(f"pairing not unique for p={p}, k={k}: {matches}")
    return matches[0]


def trace_longitude(knot, s, u, prec=DOUBLE, branch=1):
    """Trace of the longitude image under the Riley representation."""
    rep = riley_rep(s, u, prec, branch)
    return evaluate_word(rep, longitude_word(knot)).trace()


def swap_generators(w, s, u):
    """The image of a word with x and y swapped, from the image W of the
    word: M W M^-1 with M = [[s-1, 1], [-u s, 1-s]], which conjugates
    Riley's image of x to that of y and back.  M^2 = ((s-1)^2 - u s) I
    gives the inverse.  For a normalized two-bridge word the exponents
    satisfy e_{p-i} = e_i, so the reversed word <-w is w with x and y
    swapped.  At s = -1 the conditioning of M is about 1/(4 + u), which
    grows like p^2 as u_{k'} approaches -4."""
    m = RingMatrix((s - 1, s * 0 + 1, -(u * s), 1 - s))
    d = 1 / ((s - 1) * (s - 1) - u * s)
    return RingMatrix(e * d for e in (m * w * m).entries)


def longitude_image(knot, rev, w, img_x):
    """The longitude image rho(<-w) W x^(-2 sigma) from rev = rho(<-w) and
    W = rho(w); the peripheral power comes from binary powering."""
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


def _check_smooth(knot, kprime, du, cfg):
    """Raise SingularPoint where |dphi/du| at the metabelian point says the
    curve through it is not smooth."""
    if abs(du) < cfg.singular_tol:
        raise SingularPoint(
            f"curve through u_{kprime} of {knot.label} is singular: "
            f"|dphi/du| = {float(abs(du)):.3e}"
        )


def _metabelian_point(knot, kprime, prec, cfg):
    """(u_{k'}, phi, dphi/du) at the metabelian point s = -1; raises
    SingularPoint where the curve through it is not smooth."""
    u_meta = metabelian_u(knot.p, kprime, prec)
    val, du, _ = riley_residual(knot, -1.0, u_meta, prec)
    _check_smooth(knot, kprime, du, cfg)
    return u_meta, val, du


def _newton_u(knot, s, u0, prec, cfg):
    """Newton in u at fixed s.  The stopping rule is relative to the
    evaluation scale of phi: the absolute floor eps*scale is what double
    precision can reach near a simple root."""
    u = u0
    for _ in range(cfg.max_newton_iter):
        phi, scale = _dual_phi(knot, s, u, prec)
        resid = abs(phi.val)
        if float(resid) <= cfg.newton_tol * scale:
            return u, float(resid)
        if abs(phi.du) < cfg.singular_tol:
            raise SingularPoint(
                f"|dphi/du| = {float(abs(phi.du)):.3e} below {cfg.singular_tol:.1e} at s={s!r}"
            )
        u = u - phi.val / phi.du
        if abs(u - u0) > 10 * (1 + abs(u0)):
            raise NewtonDivergence(f"iterate ran away from seed {u0!r} at s={s!r}")
    raise NewtonDivergence(
        f"no convergence in {cfg.max_newton_iter} iterations at s={s!r}"
    )


def continue_riley_curve(knot, kprime, h, prec=DOUBLE, cfg=LimitConfig(), seed=None):
    """Solve phi(-1+h, u) = 0 near the metabelian point u_{k'}.

    Checks smoothness |dphi/du| at the seed point (-1, u_{k'}) first; h = 0
    returns the metabelian point itself.
    """
    u_meta, val0, _ = _metabelian_point(knot, kprime, prec, cfg)
    if h == 0:
        return RileyPoint(-1.0, u_meta, float(abs(val0)))
    u0 = u_meta if seed is None else seed
    u, resid = _newton_u(knot, -1.0 + h, u0, prec, cfg)
    return RileyPoint(-1.0 + h, u, resid)


def longitude_series(knot, kprime, cfg=LimitConfig(), prec=DOUBLE):
    """The longitude image along the Riley curve at s = -1 + h, as a matrix
    of Series, and the residual of the series solve; the Newton slope comes
    from a dual-number pass at the metabelian point."""
    u_meta, _, slope = _metabelian_point(knot, kprime, prec, cfg)
    return _longitude_series(knot, kprime, u_meta, slope, cfg, prec)


def _longitude_series(knot, kprime, u_meta, slope, cfg, prec):
    """u(h) solves phi(-1 + h, u(h)) = 0 by Newton on series, started at
    u_{k'} with the slope dphi/du of the metabelian point; each step fixes
    one more coefficient, so two evaluations of phi usually suffice.  The
    stopping rule is the scalar one, applied to the largest coefficient.
    The longitude is assembled from the last relator image W, with
    rho(<-w) = M W M^-1 (``swap_generators``)."""
    zero = u_meta * 0
    s = Series(zero - 1, zero + 1)
    rs = s.sqrt(prec.sqrt)
    u = Series(u_meta, zero)
    step = 1 / slope
    for _ in range(cfg.max_newton_iter):
        img_x, img_y = riley_images(rs, u)
        w, w11, second = _relator_terms(knot, s, img_x, img_y)
        phi = w11 + second
        resid = max(float(abs(c)) for c in phi.coeffs())
        scale = max(float(abs(a) + abs(b)) for a, b in zip(w11.coeffs(), second.coeffs()))
        if resid <= cfg.newton_tol * (scale + 1.0):
            return longitude_image(knot, swap_generators(w, s, u), w, img_x), resid
        u = u - phi * step
    raise NewtonDivergence(
        f"series solve through u_{kprime} of {knot.label} did not converge "
        f"in {cfg.max_newton_iter} iterations"
    )


def _identity_gap(lon):
    """max|[h^0] L - I| for the longitude series L."""
    return max(float(abs(e.val - i)) for e, i in zip(lon.entries, (1, 0, 0, 1)))


def _h2_of_trace(knot, kprime, lon):
    """[h^2] tr L from [h^1] L, for L in SL2 with L(0) = I:
    tr L - 2 = -det(L - I) = -h^2 det([h^1] L) + O(h^3).  Raises
    LongitudeNotIdentity where L(0) = I fails beyond IDENTITY_TOL."""
    gap = _identity_gap(lon)
    if gap > IDENTITY_TOL:
        raise LongitudeNotIdentity(
            f"longitude image at u_{kprime} of {knot.label} is not the identity: "
            f"max|L - I| = {gap:.3e} (> {IDENTITY_TOL:.1e})"
        )
    return -RingMatrix(e.h1 for e in lon.entries).det()


def fitted_local_form(knot, kprime, cfg=LimitConfig(), prec=DOUBLE):
    """H_hat(-2) = [h^2] I_lam, where I_lam - 2 = -(I_muhat + 2) * H_hat(I_muhat)
    locally; equals 1/F and for the figure-eight knot comes out 5."""
    lon, _ = longitude_series(knot, kprime, cfg, prec)
    return _h2_of_trace(knot, kprime, lon)


def _implicit_jets(knot, kprime, prec):
    """u_{k'}, and phi and the longitude trace as second-order jets in
    (u, s) at the metabelian point (-1, u_{k'}).  rho(<-w) is a direct
    product over the reversed word: the conjugation of ``swap_generators``
    would add its conditioning to the small coefficient that
    ``implicit_local_form`` reads off large ones."""
    u_meta = metabelian_u(knot.p, kprime, prec)
    zero = u_meta * 0
    s = Jet2(zero - 1, zero, zero + 1, zero, zero, zero)
    img_x, img_y = riley_images(
        s.sqrt(prec.sqrt), Jet2(u_meta, zero + 1, zero, zero, zero, zero)
    )
    w, w11, second = _relator_terms(knot, s, img_x, img_y)
    rev = word_product(img_x, img_y, knot.word.reversed_word())
    return u_meta, w11 + second, longitude_image(knot, rev, w, img_x).trace()


def _implicit_h2(phi, lam):
    """[h^2] I_lam from the jets of phi and of the longitude trace."""
    u1 = -phi.s / phi.u
    u2 = -(phi.ss + phi.us * u1 + phi.uu * u1 * u1) / phi.u
    return lam.ss + lam.us * u1 + lam.uu * u1 * u1 + lam.u * u2


def implicit_local_form(knot, kprime, prec=DOUBLE):
    """[h^2] I_lam again, by the implicit function theorem from the
    second-order partials of phi and of the longitude trace at the
    metabelian point (-1, u_{k'}), with no solve and without the
    determinant identity of ``fitted_local_form``.

    In Taylor coefficients, with s = -1 + h and u = u_{k'} + u' h + u'' h^2,
    u' = -phi_s/phi_u, u'' = -(phi_ss + phi_su u' + phi_uu u'^2)/phi_u and
    [h^2] I_lam = L_ss + L_su u' + L_uu u'^2 + L_u u''."""
    _, phi, lam = _implicit_jets(knot, kprime, prec)
    return _implicit_h2(phi, lam)


def evaluate_F(knot, kprime, cfg=LimitConfig(), prec=DOUBLE):
    """The rational function (I_lam^2-4)/(I_muhat^2-4) * (dI_muhat/dI_lam)^2
    at the metabelian character chi_{rho_{k'}}, as 1/[h^2] I_lam.

    (b) the cross-check takes [h^2] I_lam from the implicit-function formula
        (``implicit_local_form``); its phi_u is the smoothness check and
        the Newton slope of (a);
    (a) the value of record takes it from the series solve
        (``fitted_local_form``), which shares neither the solve nor the
        determinant identity with (b).
    A relative disagreement beyond cross_tol raises.
    """
    u_meta, phi, lam2 = _implicit_jets(knot, kprime, prec)
    _check_smooth(knot, kprime, phi.u, cfg)
    direct = 1 / _implicit_h2(phi, lam2)
    lon, resid = _longitude_series(knot, kprime, u_meta, phi.u, cfg, prec)
    lam = lon.trace()
    value = 1 / _h2_of_trace(knot, kprime, lon)
    rel = float(abs(value - direct) / max(abs(value), abs(direct), 1e-300))
    if rel > cfg.cross_tol:
        raise EstimateDisagreement(
            f"F estimates disagree by {rel:.3e} (> {cfg.cross_tol:.1e}) for "
            f"{knot.label}, k' = {kprime}: series {value!r} vs implicit {direct!r}",
            ratio_value=value,
            direct_value=direct,
        )
    return FEstimate(
        value=value,
        direct=direct,
        rel_disagreement=rel,
        max_residual=resid,
        lam_gap0=float(abs(lam.val - 2)),
        lam_gap1=float(abs(lam.h1)),
        lon_gap0=_identity_gap(lon),
    )
