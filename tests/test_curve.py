import cmath
import math
import random

import pytest

from bridgetorsion import curve
from bridgetorsion.curve import (
    Jet2,
    continue_riley_curve,
    evaluate_F,
    metabelian_pairing,
    riley_residual,
    trace_longitude,
)
from bridgetorsion.errors import (
    EstimateDisagreement,
    LongitudeNotIdentity,
    NewtonDivergence,
    RecordError,
    SingularPoint,
    ZeroParameter,
)
from bridgetorsion.numerics import RingMatrix
from bridgetorsion.precision import DOUBLE, Precision
from bridgetorsion.reps import metabelian_u, riley_images, word_product
from bridgetorsion.words import Word, longitude_word, normalize_two_bridge

CENSUS = [(p, q) for p in range(3, 16, 2) for q in range(1, p, 2) if math.gcd(p, q) == 1]
WIDE_CENSUS = [(p, q) for p in range(3, 26, 2) for q in range(1, p, 2) if math.gcd(p, q) == 1]


# -- jets ----------------------------------------------------------------------------


def test_jet2_arithmetic():
    # the ring R[u, s]/(du^2, du ds, ds^3), slots (val, u, s, ss)
    u = Jet2(2.0, 1.0)  # 2 + du
    s = Jet2(3.0, 0.0, 1.0)  # 3 + ds
    assert (u * s).coeffs() == [6.0, 3.0, 2.0, 0.0]
    # 1/(1 + x) = 1 - x + x^2 with x = du + ds, where x^2 = ds^2
    inv = (u + s - 4).reciprocal()
    assert inv.coeffs() == [1.0, -1.0, -1.0, 1.0]
    # sqrt(-1 + ds) = i (1 - ds/2 - ds^2/8)
    r = Jet2(-1.0, 0.0, 1.0).sqrt(cmath.sqrt)
    assert r.coeffs() == [1j, 0j, -0.5j, -0.125j]


# -- Riley residual -------------------------------------------------------------------


def test_residual_vanishes_at_metabelian_points():
    fig8 = normalize_two_bridge(5, 3)
    for k in (1, 2):
        val, _, _ = riley_residual(fig8, -1.0, metabelian_u(5, k))
        assert abs(val) < 1e-9
    for p, q in CENSUS:
        knot = normalize_two_bridge(p, q)
        for k in range(1, (p - 1) // 2 + 1):
            val, _, _ = riley_residual(knot, -1.0, metabelian_u(p, k))
            assert abs(val) < 1e-8, (p, q, k)


def test_metabelian_points_are_tangent():
    # phi depends on s only through s + 1/s, stationary at s = -1, so
    # phi_s = 0 at every metabelian point and the curve has u'(0) = 0
    for p, q in CENSUS:
        knot = normalize_two_bridge(p, q)
        for kp in range(1, (p - 1) // 2 + 1):
            phi, scale = curve._jet_phi(knot, -1.0, metabelian_u(p, kp))
            assert abs(phi.s) <= 1e-12 * scale, (p, q, kp)
    ext = Precision("extended")
    knot = normalize_two_bridge(13, 5)
    for kp in range(1, 7):
        phi, scale = curve._jet_phi(knot, -1.0, metabelian_u(13, kp, ext), ext)
        assert abs(phi.s) <= 1e-25 * scale, kp


def test_residual_nonzero_off_variety():
    knot = normalize_two_bridge(5, 3)
    rng = random.Random(41)
    for _ in range(10):
        s = complex(rng.uniform(-2, -0.5), rng.uniform(0.1, 1))
        u = complex(rng.uniform(1, 3), rng.uniform(0.5, 2))
        val, _, _ = riley_residual(knot, s, u)
        assert abs(val) > 1e-6


def test_residual_derivatives_match_finite_differences():
    knot = normalize_two_bridge(7, 3)
    s, u = -0.95, metabelian_u(7, 2) + 0.05
    val, du, ds = riley_residual(knot, s, u)
    eps = 1e-6
    fd_u = (riley_residual(knot, s, u + eps)[0] - riley_residual(knot, s, u - eps)[0]) / (2 * eps)
    fd_s = (riley_residual(knot, s + eps, u)[0] - riley_residual(knot, s - eps, u)[0]) / (2 * eps)
    assert abs(du - fd_u) < 1e-6 * max(1, abs(du))
    assert abs(ds - fd_s) < 1e-6 * max(1, abs(ds))


def test_residual_zero_parameter():
    with pytest.raises(ZeroParameter):
        riley_residual(normalize_two_bridge(5, 3), 0.0, 1.0)
    with pytest.raises(ZeroParameter):
        trace_longitude(normalize_two_bridge(5, 3), 0.0, 1.0)


def _flipped():
    """The double backend with the other branch of sqrt."""
    flipped = Precision("double")
    flipped.sqrt = lambda z: -cmath.sqrt(z)
    return flipped


def test_branch_independence():
    knot = normalize_two_bridge(7, 5)
    s, u = -0.97, metabelian_u(7, 1) + 0.02
    flipped = _flipped()
    v1 = riley_residual(knot, s, u)[0]
    v2 = riley_residual(knot, s, u, flipped)[0]
    assert abs(v1 - v2) < 1e-10 * max(1, abs(v1))
    t1 = trace_longitude(knot, s, u)
    t2 = trace_longitude(knot, s, u, flipped)
    assert abs(t1 - t2) < 1e-10 * max(1, abs(t1))


def test_F_independent_of_sqrt_branch():
    # F is a function on the character variety, so the other square root of
    # s along the curve must give the same value
    flipped = _flipped()
    for p, q in CENSUS:
        knot = normalize_two_bridge(p, q)
        for kp in range(1, (p - 1) // 2 + 1):
            a = evaluate_F(knot, kp).value
            b = evaluate_F(knot, kp, prec=flipped).value
            assert abs(a - b) <= 1e-12 * abs(a), (p, q, kp)


# -- pairing ---------------------------------------------------------------------------


def test_pairing_examples():
    assert metabelian_pairing(5, 1) == 2
    assert metabelian_pairing(5, 2) == 1
    assert metabelian_pairing(3, 1) == 1
    assert metabelian_pairing(7, 1) == 3
    assert metabelian_pairing(7, 2) == 1
    assert metabelian_pairing(7, 3) == 2


def test_pairing_is_a_bijection():
    for p in range(3, 102, 2):
        images = [metabelian_pairing(p, k) for k in range(1, (p - 1) // 2 + 1)]
        assert sorted(images) == list(range(1, (p - 1) // 2 + 1))
        for k, kp in zip(range(1, (p - 1) // 2 + 1), images):
            assert (2 * kp - k) % p == 0 or (2 * kp + k) % p == 0


# -- longitude trace -------------------------------------------------------------------


def test_longitude_trace_at_metabelian_points():
    for p, q in ((5, 3), (7, 3), (9, 7), (13, 9)):
        knot = normalize_two_bridge(p, q)
        for k in range(1, (p - 1) // 2 + 1):
            t = trace_longitude(knot, -1.0, metabelian_u(p, k))
            assert abs(t - 2) < 1e-8


def test_figure_eight_local_form_along_curve():
    # I_lambda - 2 = -I_mu^2 (-I_mu^2 + 5) with I_mu^2 = I_mu_hat + 2
    knot = normalize_two_bridge(5, 3)
    for kp in (1, 2):
        for h in (0.02, 0.01, 0.005):
            pt = continue_riley_curve(knot, kp, h)
            s = pt.s
            imu2 = s + 1 / s + 2
            lam = trace_longitude(knot, s, pt.u)
            expected = -imu2 * (-imu2 + 5)
            assert abs((lam - 2) - expected) < 1e-8 * max(1, abs(expected))


def test_torus_longitude_closed_form_along_curve():
    # I_lambda = -(M^q + M^-q) with M, 1/M the eigenvalues of the mu-hat matrix,
    # i.e. -(s^q + s^-q) along the Riley curve of b(q, 1)
    for q in (3, 5, 7):
        knot = normalize_two_bridge(q, 1)
        for k in range(1, (q - 1) // 2 + 1):
            pt = continue_riley_curve(knot, k, 0.004)
            lam = trace_longitude(knot, pt.s, pt.u)
            expected = -(pt.s ** q + pt.s ** (-q))
            assert abs(lam - expected) < 1e-9 * max(1, abs(expected)), (q, k)


def _coeffs(m):
    return [c for e in m.entries for c in (e.coeffs() if hasattr(e, "coeffs") else [e])]


def _max_coeff(m):
    return max(abs(c) for c in _coeffs(m))


def _gap(a, b):
    return max(abs(x - y) for x, y in zip(_coeffs(a), _coeffs(b)))


def _symmetry_points(p, kp, prec):
    """(sqrt(s), s, u) at a scalar point off the curve, and as Jet2 in
    (u, s) at the metabelian point u_{k'}."""
    u_meta = metabelian_u(p, kp, prec)
    zero = u_meta * 0
    s = zero - 0.9 + 0.2j
    yield prec.sqrt(s), s, u_meta + 0.1 - 0.3j
    s = Jet2(zero - 1, zero, zero + 1)
    yield s.sqrt(prec.sqrt), s, Jet2(u_meta, zero + 1)


def _check_longitude_symmetry(knot, kp, prec, rel):
    for rs, s, u in _symmetry_points(knot.p, kp, prec):
        img_x, img_y = riley_images(rs, u)
        w = word_product(img_x, img_y, knot.word)
        rev = curve.swap_generators(w, s, u)
        direct = word_product(img_x, img_y, knot.word.reversed_word())
        assert _gap(rev, direct) <= rel * _max_coeff(direct)
        # L is close to I where its factors are large, so rounding is
        # measured against the product of the factors' scales
        lon = curve.longitude_image(knot, rev, w, img_x)
        periph = word_product(img_x, img_y, Word((("x", -2 * knot.sigma),)))
        scale = _max_coeff(rev) * _max_coeff(w) * _max_coeff(periph)
        assert _gap(lon, word_product(img_x, img_y, longitude_word(knot))) <= rel * scale


def test_longitude_from_swapped_relator_image():
    # rho(<-w) = M W M^-1 because <-w is w with x and y swapped, and the
    # assembled rho(<-w) W x^(-2 sigma) is the image of the longitude word,
    # for scalar and jet entries alike
    for p, q in CENSUS:
        knot = normalize_two_bridge(p, q)
        for kp in range(1, (p - 1) // 2 + 1):
            _check_longitude_symmetry(knot, kp, DOUBLE, 1e-12)
    _check_longitude_symmetry(normalize_two_bridge(13, 5), 3, Precision("extended"), 1e-25)


def _with_noise(c, rng):
    """The jet c with its u and ss slots overwritten at random; a zero jet
    (an off-triangle entry) stays zero."""
    if all(v == 0 for v in c.coeffs()):
        return c
    u, ss = (c.val * 0 + complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2))
    return Jet2(c.val, u, c.s, ss)


def _val_s_slots(m):
    return [repr((e.val, e.s)) for e in m.entries]


def test_val_and_s_slots_ignore_u_and_ss_slots():
    # the value of record reads the (val, s) slots of the jets that the
    # cross-check pushes through the relator word, as the series mod h^2
    # at fixed u; that holds because no operation reads a u or ss slot
    # into them.  Random u and ss slots in s and the images leave every
    # val and s slot of W, M W M^-1 and the longitude image bit-identical
    rng = random.Random(67)
    extended = Precision("extended")
    for p, q in WIDE_CENSUS:
        knot = normalize_two_bridge(p, q)
        kp = 1 + q % ((p - 1) // 2)
        for prec in (DOUBLE, extended):
            u_meta = metabelian_u(p, kp, prec)
            zero = u_meta * 0
            s = Jet2(zero - 1, zero, zero + 1, zero)
            images = riley_images(s.sqrt(prec.sqrt), Jet2(u_meta, zero + 1, zero, zero))
            noisy = [RingMatrix(_with_noise(c, rng) for c in m.entries) for m in images]
            runs = []
            for sj, (img_x, img_y) in ((s, images), (_with_noise(s, rng), noisy)):
                w = word_product(img_x, img_y, knot.word)
                rev = curve.swap_generators(w, sj, u_meta)
                lon = curve.longitude_image(knot, rev, w, img_x)
                runs.append((w, rev, lon))
            before, after = runs
            assert list(map(_val_s_slots, before)) == list(map(_val_s_slots, after)), (p, q, prec.name)
            # the noise did reach the ss slots
            assert [e.ss for e in before[2].entries] != [e.ss for e in after[2].entries], (p, q)


# -- continuation ---------------------------------------------------------------------


def test_continuation_h_zero_returns_seed():
    knot = normalize_two_bridge(7, 3)
    pt = continue_riley_curve(knot, 2, 0.0)
    assert pt.s == -1.0
    assert abs(pt.u - metabelian_u(7, 2)) < 1e-15
    assert pt.residual < 1e-10


def test_continuation_small_step():
    knot = normalize_two_bridge(5, 3)
    pt = continue_riley_curve(knot, 1, 1e-3)
    assert abs(pt.s - (-1 + 1e-3)) < 1e-15
    val, _, _ = riley_residual(knot, pt.s, pt.u)
    assert abs(val) < 1e-10


def test_torus_curves_smooth_at_metabelian_points():
    for q in (3, 5, 7, 9):
        knot = normalize_two_bridge(q, 1)
        for k in range(1, (q - 1) // 2 + 1):
            _, du, _ = riley_residual(knot, -1.0, metabelian_u(q, k))
            assert abs(du) > 1e-8


def test_singular_guard_and_newton_budget(monkeypatch):
    knot = normalize_two_bridge(5, 3)
    with monkeypatch.context() as m:
        m.setattr(curve, "SINGULAR_TOL", 1e3)
        with pytest.raises(SingularPoint):
            continue_riley_curve(knot, 1, 1e-3)
    with monkeypatch.context() as m:
        m.setattr(curve, "MAX_NEWTON_ITER", 1)
        with pytest.raises(NewtonDivergence):
            continue_riley_curve(knot, 1, 1e-2)


# -- the double zero and F as a Taylor coefficient ------------------------------------


def test_double_zero_structure():
    # I_lambda - 2 vanishes to second order at every metabelian point of the
    # census, and its h^2 coefficient (= 1/F) is finite and nonzero
    for p, q in CENSUS:
        knot = normalize_two_bridge(p, q)
        for kp in range(1, (p - 1) // 2 + 1):
            est = evaluate_F(knot, kp)
            h2 = 1 / est.value
            assert est.lam_gap0 < 1e-10, (p, q, kp)
            assert est.lam_gap1 < 1e-10 * max(1, abs(h2)), (p, q, kp)
            assert 1e-3 < abs(h2) < 1e6, (p, q, kp)
            assert est.max_residual < 1e-10


def test_longitude_series_matches_point_solves():
    # 2 + [h^2] I_lam h^2 agrees with scalar Newton solves on the curve up to
    # O(h^3), so both the series and the determinant identity hold
    knot = normalize_two_bridge(9, 5)
    h2 = 1 / evaluate_F(knot, 3).value
    errors = []
    for h in (1e-2, 5e-3):
        pt = continue_riley_curve(knot, 3, h)
        exact = trace_longitude(knot, pt.s, pt.u)
        errors.append(abs(2 + h2 * h * h - exact))
    assert errors[0] < 0.05 * abs(h2) * 1e-2 ** 2  # small beside the h^2 term
    assert 6 < errors[0] / errors[1] < 10  # one halving of h: factor ~8


def test_series_and_implicit_estimates_agree_on_census():
    # (a) is -det([h^1] L) from the longitude series at u = u_{k'}; (b) is
    # the h^2 coefficient of the trace itself, from second-order partials
    for p, q in CENSUS:
        knot = normalize_two_bridge(p, q)
        for kp in range(1, (p - 1) // 2 + 1):
            est = evaluate_F(knot, kp)
            a, b = 1 / est.value, 1 / est.direct
            assert abs(a - b) <= 1e-9 * abs(a), (p, q, kp)


def test_evaluate_F_figure_eight():
    knot = normalize_two_bridge(5, 3)
    for kp in (1, 2):
        est = evaluate_F(knot, kp)
        assert abs(est.value - 0.2) < 1e-6
        assert est.rel_disagreement < 1e-5


def test_evaluate_F_torus():
    for q in (3, 5, 7):
        knot = normalize_two_bridge(q, 1)
        for kp in range(1, (q - 1) // 2 + 1):
            est = evaluate_F(knot, kp)
            assert abs(est.value - 1 / q ** 2) < 1e-5 / q ** 2, (q, kp)


def test_fitted_local_form_figure_eight():
    knot = normalize_two_bridge(5, 3)
    for kp in (1, 2):
        h = 1 / evaluate_F(knot, kp).value
        assert abs(h - 5.0) < 1e-4


def test_estimate_disagreement_raises(monkeypatch):
    # the two estimates agree far inside CROSS_TOL, so skew the cross-check
    exact = curve._implicit_h2
    monkeypatch.setattr(curve, "_implicit_h2", lambda *a: exact(*a) * 1.001)
    knot = normalize_two_bridge(5, 3)
    with pytest.raises(EstimateDisagreement) as info:
        evaluate_F(knot, 1)
    assert "series" in str(info.value) and "implicit" in str(info.value)


def test_checks_fail_on_nan():
    # a NaN fails every check, also where it is not the first of the
    # values the builtin max would compare
    nan = float("nan")
    knot = normalize_two_bridge(5, 3)
    with pytest.raises(SingularPoint):
        curve._check_smooth(knot, 1, complex(nan, 0))
    with pytest.raises(RecordError):
        curve._check_tangent(knot, 1, Jet2(1.0, s=0.0), Jet2(-1.0, s=nan))
    lon = RingMatrix((Jet2(1.0), Jet2(0.0), Jet2(nan), Jet2(1.0)))
    with pytest.raises(LongitudeNotIdentity):
        curve._h2_of_trace(knot, 1, lon)


def test_off_curve_metabelian_point_is_refused(monkeypatch):
    # (a) evaluates the longitude series at u = u_{k'} with no solve, so a
    # point that does not solve phi = 0 mod h^2 must be refused, not
    # evaluated off the curve
    exact = curve.metabelian_u
    monkeypatch.setattr(curve, "metabelian_u", lambda *a: exact(*a) + 1e-9)
    with pytest.raises(RecordError, match="does not solve phi = 0"):
        evaluate_F(normalize_two_bridge(5, 3), 1)


def test_longitude_not_identity_raises(monkeypatch):
    # the determinant identity needs L = I at the metabelian point; a
    # longitude whose image is not the identity there must be refused, not
    # evaluated.  (a) takes rho(<-w) from swap_generators, so skew that.
    swap = curve.swap_generators

    def skewed(w, s, u):
        img_x, _ = riley_images(s.sqrt(cmath.sqrt), u)
        return swap(w, s, u) * img_x

    monkeypatch.setattr(curve, "swap_generators", skewed)
    with pytest.raises(LongitudeNotIdentity):
        evaluate_F(normalize_two_bridge(5, 3), 1)


def test_evaluate_F_extended_precision():
    est = evaluate_F(normalize_two_bridge(7, 3), 2, prec=Precision("extended"))
    double = evaluate_F(normalize_two_bridge(7, 3), 2)
    assert est.rel_disagreement < 1e-20
    assert abs(complex(est.value) - double.value) < 1e-12 * abs(double.value)


def test_mu_muhat_change_of_variable_identity():
    # 4 (I_lam^2-4)/(I_mu^2-4) (dI_mu/dI_lam)^2 = (I_lam^2-4)/(I_muhat^2-4) (dI_muhat/dI_lam)^2
    knot = normalize_two_bridge(5, 3)
    kp = 1
    for h in (0.05, 0.02):
        delta = h / 200
        pts = {}
        seed = None
        for hh in (h - delta, h, h + delta):
            pt = continue_riley_curve(knot, kp, hh, seed=seed)
            seed = pt.u
            pts[hh] = pt

        def imu(s):
            r = cmath.sqrt(s)
            return r + 1 / r

        def imuhat(s):
            return s + 1 / s

        lam = {hh: trace_longitude(knot, pt.s, pt.u) for hh, pt in pts.items()}
        d_lam = lam[h + delta] - lam[h - delta]
        d_mu = imu(pts[h + delta].s) - imu(pts[h - delta].s)
        d_muhat = imuhat(pts[h + delta].s) - imuhat(pts[h - delta].s)
        s0 = pts[h].s
        lam0 = lam[h]
        lhs = 4 * (lam0 ** 2 - 4) / (imu(s0) ** 2 - 4) * (d_mu / d_lam) ** 2
        rhs = (lam0 ** 2 - 4) / (imuhat(s0) ** 2 - 4) * (d_muhat / d_lam) ** 2
        assert abs(lhs - rhs) < 1e-5 * max(abs(lhs), abs(rhs))
