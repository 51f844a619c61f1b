import numpy as np
import pytest
from oracles import compose2

from ncframe.errors import NotIsotropic, NotIsotropicElement
from ncframe.factorization import (
    FactorOrder,
    factor_boost_rotation,
    factor_isotropic,
    factor_rotation_boost,
    isotropic_sign,
    scale_freedom_report,
)
from ncframe.group import SpinorElement, spinor_compose, spinor_from_boost, spinor_from_rotation
from ncframe.linalg import hnorm, inf_norm
from ncframe.sampling import random_isotropic_k, random_spinor


def roundtrip_residual(b, pair):
    """Max deviation of the recomposed product from sign * b, via the 2x2 oracle."""
    if pair.order is FactorOrder.ROTATION_FIRST:
        k0, k = compose2(pair.rotation, pair.boost)
    else:
        k0, k = compose2(pair.boost, pair.rotation)
    scale = max(1.0, abs(b.k0), hnorm(b.k))
    return max(abs(k0 - pair.sign * b.k0), inf_norm(k - pair.sign * b.k)) / scale


def assert_pure_factors(pair):
    rot, boost = pair.rotation, pair.boost
    assert abs(rot.k0.imag) < 1e-12 and inf_norm(rot.k.real) < 1e-12
    a0, a = rot.k0.real, -rot.k.imag
    assert a0 >= 0.0
    assert a0 * a0 + a @ a == pytest.approx(1.0, abs=1e-10)
    assert abs(boost.k0.imag) < 1e-12 and inf_norm(boost.k.imag) < 1e-12
    b0, bv = boost.k0.real, boost.k.real
    assert b0 >= 1.0
    assert b0 * b0 - bv @ bv == pytest.approx(1.0, abs=1e-10)


class TestGenericFactorization:
    def test_pure_rotation_input(self):
        b = spinor_from_rotation(1.2, [0, 0, 1.0])
        for pair in (factor_rotation_boost(b), factor_boost_rotation(b)):
            assert inf_norm(pair.boost.k) < 1e-14 and pair.boost.k0 == pytest.approx(1.0)
            assert roundtrip_residual(b, pair) < 1e-14

    def test_pure_boost_input(self):
        beta = 1.1
        e = np.array([0.0, 0.6, 0.8])
        b = spinor_from_boost(beta, e)
        for pair in (factor_rotation_boost(b), factor_boost_rotation(b)):
            assert inf_norm(pair.rotation.k) < 1e-14
            assert pair.rotation.k0 == pytest.approx(1.0)
            # boost velocity parameter is m / n0 = tanh(beta/2) e
            B = pair.boost.k.real / pair.boost.k0.real
            np.testing.assert_allclose(B, np.tanh(beta / 2) * e, atol=1e-14)
            assert roundtrip_residual(b, pair) < 1e-14

    def test_random_roundtrip_both_orders(self, rng):
        for _ in range(200):
            b = random_spinor(rng)
            for pair in (factor_rotation_boost(b), factor_boost_rotation(b)):
                assert_pure_factors(pair)
                assert roundtrip_residual(b, pair) < 1e-10
                # library-side composition agrees with the oracle
                composed = pair.compose()
                assert abs(composed.k0 - pair.sign * b.k0) < 1e-10
                assert inf_norm(composed.k - pair.sign * b.k) < 1e-10

    def test_orders_share_rotation_and_flip_cross_term(self, rng):
        for _ in range(50):
            b = random_spinor(rng)
            rb = factor_rotation_boost(b)
            br = factor_boost_rotation(b)
            assert abs(rb.rotation.k0 - br.rotation.k0) < 1e-12
            assert inf_norm(rb.rotation.k - br.rotation.k) < 1e-12
            # velocity parameters differ by twice the cross term
            r2 = b.n0**2 + b.n @ b.n
            Brb = rb.boost.k.real / rb.boost.k0.real
            Bbr = br.boost.k.real / br.boost.k0.real
            np.testing.assert_allclose(Brb - Bbr, 2.0 * np.cross(b.m, b.n) / r2, atol=1e-12)


class TestLargeRapidity:
    def test_roundtrip_at_rapidity_16_to_30(self, rng):
        # rotation o boost with random axes, |rapidity| 16..30 and rotation
        # angles 0..4 pi (both sheets of the double cover): the boost factor
        # b0 = sqrt(n0^2 + n.n) has no cancellation, so both orders factor
        # and round-trip as in the unit box
        for _ in range(300):
            axes = rng.normal(size=(2, 3))
            beta = rng.choice((-1.0, 1.0)) * rng.uniform(16.0, 30.0)
            b = spinor_compose(
                spinor_from_rotation(rng.uniform(0.0, 4 * np.pi), axes[0] / hnorm(axes[0])),
                spinor_from_boost(beta, axes[1] / hnorm(axes[1])),
            )
            for pair in (factor_rotation_boost(b), factor_boost_rotation(b)):
                boost = pair.boost
                assert boost.k0.real >= 1.0
                assert abs(boost.k0.imag) < 1e-12 and inf_norm(boost.k.imag) < 1e-12
                assert roundtrip_residual(b, pair) < 1e-10


class TestIsotropicFactorization:
    def test_trivial_element(self):
        pair = factor_isotropic(SpinorElement.identity())
        assert inf_norm(pair.rotation.k) == 0 and inf_norm(pair.boost.k) == 0
        assert pair.sign == 1
        pair = factor_isotropic(-SpinorElement.identity())
        assert pair.sign == -1

    def test_random_roundtrip(self, rng):
        for _ in range(100):
            k = random_isotropic_k(rng)
            sign = 1 if rng.uniform() < 0.5 else -1
            b = SpinorElement(sign, sign * k)
            for order in FactorOrder:
                pair = factor_isotropic(b, order)
                assert_pure_factors(pair)
                assert pair.sign == sign
                assert roundtrip_residual(b, pair) < 1e-10

    def test_closed_form_parameters(self, rng):
        for _ in range(50):
            k = random_isotropic_k(rng)
            b = SpinorElement(1.0, k)
            n, m = -k.imag, k.real
            n2 = n @ n
            pair = factor_isotropic(b)
            assert pair.boost.k0.real == pytest.approx(np.sqrt(1 + n2), abs=1e-10)
            assert pair.rotation.k0.real == pytest.approx(1 / np.sqrt(1 + n2), abs=1e-10)
            # rotation vector a = a0 * n, boost vector b = b0 (m - n x m)/(1 + n.n)
            a = -pair.rotation.k.imag
            np.testing.assert_allclose(a, pair.rotation.k0.real * n, atol=1e-12)
            bv = pair.boost.k.real
            expected = pair.boost.k0.real * (m - np.cross(n, m)) / (1 + n2)
            np.testing.assert_allclose(bv, expected, atol=1e-12)
            # opposite order flips the cross term
            bv2 = factor_isotropic(b, FactorOrder.BOOST_FIRST).boost.k.real
            expected2 = pair.boost.k0.real * (m + np.cross(n, m)) / (1 + n2)
            np.testing.assert_allclose(bv2, expected2, atol=1e-12)

    def test_agrees_with_generic_path(self, rng):
        # the generic split applies to isotropic elements too and must agree
        k = random_isotropic_k(rng)
        b = SpinorElement(1.0, k)
        iso = factor_isotropic(b)
        gen = factor_rotation_boost(b)
        assert abs(iso.rotation.k0 - gen.rotation.k0) < 1e-12
        assert inf_norm(iso.rotation.k - gen.rotation.k) < 1e-12
        assert inf_norm(iso.boost.k - gen.boost.k) < 1e-12

    def test_non_isotropic_rejected(self, rng):
        with pytest.raises(NotIsotropicElement):
            factor_isotropic(spinor_from_boost(1.0, [0, 0, 1.0]))

    def test_isotropic_sign_is_the_guard(self, rng):
        # k0 = +-(1 + eps) with k.k = k0^2 - 1: the predicate is nonzero
        # exactly where factor_isotropic accepts the element
        for eps in (0.0, 1e-12, -5e-11, 2e-10, -7.5e-10, 1e-8):
            k = random_isotropic_k(rng)
            n, m = -k.imag, k.real
            w = np.cross(m, n) / (m @ m)
            for sign in (1, -1):
                k0 = sign * (1.0 + eps)
                b = SpinorElement(k0, k + np.sqrt(complex(k0 * k0 - 1.0)) * w)
                sgn = isotropic_sign(b)
                assert sgn in (0, sign)
                if sgn:
                    assert factor_isotropic(b).sign == sign
                else:
                    with pytest.raises(NotIsotropicElement):
                        factor_isotropic(b)
        assert isotropic_sign(SpinorElement.identity()) == 1
        assert isotropic_sign(spinor_from_boost(1.0, [0, 0, 1.0])) == 0

    def test_near_isotropic_element_factors_generically(self):
        # k0 - 1 = 7.5e-10 is outside DEFAULT_TOL although k.k is within
        # eps_iso: not isotropic, and the generic split round-trips it
        k0 = 1.0000000007499998
        b = SpinorElement(k0, [k0, 1j, 0.0])
        assert isotropic_sign(b) == 0
        for pair in (factor_rotation_boost(b), factor_boost_rotation(b)):
            assert roundtrip_residual(b, pair) < 1e-12


class TestScaleFreedom:
    def test_identity_transform(self, rng):
        k = random_isotropic_k(rng)
        rep = scale_freedom_report(k, 1.0, 0.0)
        assert rep["max_residual"] < 1e-12
        np.testing.assert_allclose(rep["n_prime"], -k.imag, atol=1e-15)
        np.testing.assert_allclose(rep["m_prime"], k.real, atol=1e-15)

    def test_pure_scaling(self, rng):
        k = random_isotropic_k(rng)
        n = -k.imag
        rep = scale_freedom_report(k, 2.0, 0.0)
        assert rep["max_residual"] < 1e-10
        assert rep["n_prime"] @ rep["n_prime"] == pytest.approx(4.0 * (n @ n), rel=1e-12)

    def test_quarter_phase_swaps_parts(self, rng):
        k = random_isotropic_k(rng)
        n, m = -k.imag, k.real
        rep = scale_freedom_report(k, 1.0, np.pi / 2)
        np.testing.assert_allclose(rep["n_prime"], -m, atol=1e-12)
        np.testing.assert_allclose(rep["m_prime"], n, atol=1e-12)
        np.testing.assert_allclose(
            np.cross(rep["n_prime"], rep["m_prime"]), np.cross(n, m), atol=1e-12
        )
        assert rep["max_residual"] < 1e-10

    def test_stabilizer_survives_rescaling(self, rng):
        from ncframe.stabilizer import isotropic_stabilizer_element

        k = random_isotropic_k(rng)
        kp = 1.7 * np.exp(0.9j) * k
        el = isotropic_stabilizer_element(0.8 - 0.3j, kp)
        assert hnorm(el.rotation.apply(kp) - kp) < 1e-9 * hnorm(kp)

    def test_non_isotropic_rejected(self):
        with pytest.raises(NotIsotropic):
            scale_freedom_report(np.array([1.0, 0, 0]), 1.0, 0.0)
