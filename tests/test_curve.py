import cmath
import math
import random

import pytest

from bridgetorsion import curve, exact, pipeline
from bridgetorsion.alexander import p_at_one
from bridgetorsion.curve import (
    Jet2,
    continue_riley_curve,
    evaluate_F,
    riley_residual,
    trace_longitude,
)
from bridgetorsion.errors import (
    NewtonDivergence,
    RecordError,
    SingularPoint,
    ZeroParameter,
)
from bridgetorsion.numerics import RingMatrix
from bridgetorsion.pipeline import metabelian_pairing
from bridgetorsion.precision import DOUBLE, Precision
from bridgetorsion.reps import metabelian_pair, metabelian_u, riley_images, word_product
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


def test_F_independent_of_sqrt_branch(monkeypatch):
    # F is a function on the character variety, so the other square root
    # -r of -s must give the same value.  The scaled letters r l of the
    # exact route are the same at -r, so the branch enters only through
    # the scale r^-n, which becomes (-r)^-n = (-1)^n r^-n: an odd word's
    # image is negated, and so is the image of a word and a tail of odd
    # total length, while the elements stay the same, bit for bit
    knots = [normalize_two_bridge(p, q) for p, q in CENSUS]
    before = [exact.knot_elements(knot) for knot in knots]
    b, odd = exact._digit_bits(3), [("x", 1), ("y", -1), ("y", -1)]
    even_tail, odd_tail = [("x", -1)], [("x", 1), ("x", 1)]  # 4 and 5 letters in all
    (head, even_whole), (_, odd_whole) = (exact._image(odd, b, tail) for tail in (even_tail, odd_tail))
    scale = exact._inv_r_power
    monkeypatch.setattr(exact, "_inv_r_power", lambda n: tuple((-1) ** n * c for c in scale(n)))

    def negated(image):
        return [tuple(-c for c in jet) for jet in image]

    assert exact._image(odd, b, even_tail) == (negated(head), even_whole)
    assert exact._image(odd, b, odd_tail) == (negated(head), negated(odd_whole))
    assert [exact.knot_elements(knot) for knot in knots] == before


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


def _with_noise(c, rng, u_slot=True):
    """The jet c with its ss slot, and its u slot if u_slot, overwritten at
    random; a zero jet (an off-triangle entry) stays zero."""
    if all(v == 0 for v in c.coeffs()):
        return c
    u, ss = (c.val * 0 + complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2))
    return Jet2(c.val, u if u_slot else c.u, c.s, ss)


def _val_s_slots(m):
    return [repr((e.val, e.s)) for e in m.entries]


def test_val_and_s_slots_ignore_u_and_ss_slots():
    # the (val, s) slots of the jets pushed through a word are the series
    # mod h^2 at fixed u, because no operation reads a u or ss slot into
    # them.  Random ss slots in s and the images, and random u slots where
    # a jet of the real pair carries du (s and y's lower-left entry), leave
    # every val and s slot of W, rho(<-w) and the longitude image
    # bit-identical
    rng = random.Random(67)
    extended = Precision("extended")
    for p, q in WIDE_CENSUS:
        knot = normalize_two_bridge(p, q)
        kp = 1 + q % ((p - 1) // 2)
        for prec in (DOUBLE, extended):
            u_meta = metabelian_u(p, kp, prec)
            zero = u_meta * 0
            s = Jet2(zero - 1, zero, zero + 1, zero)
            images = riley_images((-s).sqrt(prec.sqrt), Jet2(u_meta, zero + 1, zero, zero))
            noisy = [
                RingMatrix(_with_noise(c, rng, (m, i) == (1, 2)) for i, c in enumerate(img.entries))
                for m, img in enumerate(images)
            ]
            runs = []
            for img_x, img_y in (images, noisy):
                runs.append([word_product(img_x, img_y, word) for word in
                             (knot.word, knot.reversed_word, longitude_word(knot))])
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
    # census, exactly (knot_elements zero-tests tr L - 2 at g^0 and g^1),
    # and its h^2 coefficient (= 1/F) is finite and nonzero
    for p, q in CENSUS:
        knot = normalize_two_bridge(p, q)
        for kp, reading in enumerate(pipeline.read(exact.knot_elements(knot)), 1):
            h2 = 1 / reading.f_value
            assert 1e-3 < abs(h2) < 1e6, (p, q, kp)


def test_longitude_series_matches_point_solves():
    # 2 + [h^2] I_lam h^2 agrees with scalar Newton solves on the curve up to
    # O(h^3), so both the series and the determinant identity hold
    knot = normalize_two_bridge(9, 5)
    h2 = 1 / evaluate_F(knot, 3).f_value
    errors = []
    for h in (1e-2, 5e-3):
        pt = continue_riley_curve(knot, 3, h)
        exact_trace = trace_longitude(knot, pt.s, pt.u)
        errors.append(abs(2 + h2 * h * h - exact_trace))
    assert errors[0] < 0.05 * abs(h2) * 1e-2 ** 2  # small beside the h^2 term
    assert 6 < errors[0] / errors[1] < 10  # one halving of h: factor ~8


def _implicit_h2(knot, kp):
    """[h^2] I_lam by estimate (b) in double: the implicit function theorem
    on second-order partials of phi and of the longitude trace at
    (-1, u_{k'}), from jets in (u, s) pushed through direct word products;
    u' = 0 there, which leaves L_ss - L_u phi_ss / phi_u."""
    u = metabelian_u(knot.p, kp)
    phi, _ = curve._jet_phi(knot, -1.0, u)
    s = Jet2(-1.0, 0.0, 1.0, 0.0)
    img_x, img_y = riley_images((-s).sqrt(DOUBLE.sqrt), Jet2(u, 1.0))
    lam = word_product(img_x, img_y, longitude_word(knot)).trace()
    return lam.ss - lam.u * phi.ss / phi.u


def test_series_and_implicit_estimates_agree_on_census():
    # (a), the value of record, is -det([h^1] L), read off the exact
    # elements; (b) is the h^2 coefficient of the trace itself, from
    # second-order partials in double
    for p, q in CENSUS:
        knot = normalize_two_bridge(p, q)
        for kp in range(1, (p - 1) // 2 + 1):
            a, b = 1 / evaluate_F(knot, kp).f_value, _implicit_h2(knot, kp)
            assert abs(a - b) <= 1e-9 * abs(a), (p, q, kp)


def test_evaluate_F_figure_eight():
    knot = normalize_two_bridge(5, 3)
    for kp in (1, 2):
        est = evaluate_F(knot, kp)
        assert abs(est.f_value - 0.2) < 1e-6
        assert est.margin_bits >= pipeline.MIN_MARGIN_BITS


def test_evaluate_F_torus():
    for q in (3, 5, 7):
        knot = normalize_two_bridge(q, 1)
        for kp in range(1, (q - 1) // 2 + 1):
            est = evaluate_F(knot, kp)
            assert abs(est.f_value - 1 / q ** 2) < 1e-5 / q ** 2, (q, kp)


def test_fitted_local_form_figure_eight():
    knot = normalize_two_bridge(5, 3)
    for kp in (1, 2):
        h = 1 / evaluate_F(knot, kp).f_value
        assert abs(h - 5.0) < 1e-4


def test_checks_fail_on_nan(monkeypatch):
    # a NaN fails the smoothness check, as it fails every check
    monkeypatch.setattr(curve, "_jet_phi", lambda *a: (Jet2(0.0, float("nan")), 1.0))
    with pytest.raises(SingularPoint):
        continue_riley_curve(normalize_two_bridge(5, 3), 1, 0.0)


def test_off_curve_metabelian_point_is_refused():
    # F is read at u = u_{k'} with no solve, so a word whose Riley curve
    # does not pass through u_{k'} tangentially must be refused, not
    # evaluated off the curve: the word of 7/3 with 5/3's q and sigma
    knot = normalize_two_bridge(5, 3)
    other = normalize_two_bridge(7, 3)
    off = knot._replace(word=Word(other.word.letters[:4]))
    with pytest.raises(RecordError, match="phi at g"):
        evaluate_F(off, 1)


def test_longitude_not_identity_raises(patch_exact):
    # the determinant identity needs L = I at the metabelian point; a
    # longitude whose image is not the identity there, here w w x^(-2 sigma)
    # in place of <-w w x^(-2 sigma), must be refused, not evaluated.  The
    # metabelian stage's quotients k = 0 and rho(<-w)_12 = W12 make its
    # rho(<-w) read W, since W21 = v W12
    patch_exact("_swap_at_0", lambda w, b: [(0, 0), w[1]])
    with pytest.raises(RecordError, match="L = I"):
        evaluate_F(normalize_two_bridge(5, 3), 1)


def test_evaluate_F_extended_precision():
    # F agrees with its 30-digit reference tau / P(1)^2: the lens value
    # and P(1) (alexander.p_at_one), both at 30 digits
    ext = Precision("extended")
    for p, q in ((7, 3), (13, 5), (25, 7)):
        knot = normalize_two_bridge(p, q)
        r = pow(q, -1, p)
        for k in range(1, (p - 1) // 2 + 1):
            p1, _ = p_at_one(knot, metabelian_pair(p, k, ext))
            lens = 1 / (16 * (ext.sin(k * ext.pi / p) * ext.sin(k * r * ext.pi / p)) ** 2)
            want = lens / p1 ** 2
            got = evaluate_F(knot, metabelian_pairing(p, k)).f_value
            assert abs(got - want) <= 1e-14 * abs(want), (p, q, k)


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


def test_evaluate_F_raises_its_readout_error(monkeypatch):
    # a margin bound at the readout's full width fails the readout, and
    # evaluate_F raises the index's RecordError rather than returning it
    monkeypatch.setattr(pipeline, "MIN_MARGIN_BITS", pipeline.READOUT_BITS)
    with pytest.raises(RecordError, match=r"readout margin \d+ bits at k' = 2, below 128"):
        evaluate_F(normalize_two_bridge(7, 3), 2)
