import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import (
    boost_closed_form,
    compose2,
    lorentz4_real_split,
    random_unit_delta,
    rotation_matrix_angle_axis,
)

from ncframe.errors import (
    ConstraintViolation,
    GammaDegenerate,
    HalfTurnResult,
    NonUnitAxis,
    NotPureElement,
)
from ncframe.group import (
    ETA,
    ComplexRotation,
    GammaDelta,
    Lorentz4,
    SpinorElement,
    gamma_delta_from_spinor,
    gibbs_compose,
    lorentz4_from_spinor,
    project_to_group,
    so3c_from_spinor,
    spinor_compose,
    spinor_from_boost,
    spinor_from_gamma_delta,
    spinor_from_rotation,
    verify_su2_boost_identities,
)
from ncframe.linalg import inf_norm
from ncframe.sampling import random_spinor

EZ = np.array([0.0, 0.0, 1.0])


def spinor_close(a, b, tol=1e-10):
    return abs(a.k0 - b.k0) <= tol and inf_norm(a.k - b.k) <= tol


def spinor_close_up_to_sign(a, b, tol=1e-9):
    return spinor_close(a, b, tol) or spinor_close(a, -b, tol)


def _axis(theta, phi):
    return np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])


class TestConstructorRejections:
    def test_complex_rotation_rejects_minus_identity(self):
        with pytest.raises(ConstraintViolation, match="det O"):
            ComplexRotation(-np.eye(3))

    def test_complex_rotation_rejects_improper_complex_matrix(self, rng):
        O = so3c_from_spinor(random_spinor(rng)).matrix
        with pytest.raises(ConstraintViolation, match="det O"):
            ComplexRotation(-O)

    def test_complex_rotation_rejects_non_orthogonal(self):
        # det = 1, but O^T O != I
        with pytest.raises(ConstraintViolation, match="O\\^T O"):
            ComplexRotation(np.diag([2.0, 0.5, 1.0]))

    def test_lorentz4_rejects_parity(self):
        with pytest.raises(ConstraintViolation, match="improper"):
            Lorentz4(np.diag([1.0, -1.0, -1.0, -1.0]))

    def test_lorentz4_rejects_time_reversal(self):
        with pytest.raises(ConstraintViolation, match="orthochronous"):
            Lorentz4(np.diag([-1.0, 1.0, 1.0, 1.0]))

    def test_lorentz4_rejects_metric_violation(self):
        with pytest.raises(ConstraintViolation, match="eta"):
            Lorentz4(np.diag([1.0, 2.0, 1.0, 1.0]))


class TestSpinorElement:
    def test_constructor_rejects_bad_determinant(self):
        with pytest.raises(ConstraintViolation):
            SpinorElement(2.0, np.zeros(3))

    def test_project_to_group(self):
        b = project_to_group(2.0, np.array([0.5, 0.5j, 0.0]))
        d = b.k0**2 - b.k @ b.k
        assert d == pytest.approx(1.0, abs=1e-14)

    def test_real_split_roundtrip(self, rng):
        b = random_spinor(rng)
        c = SpinorElement.from_real_split(b.n0, b.m0, b.n, b.m)
        assert spinor_close(b, c, tol=0.0)
        assert c.n0 == b.k0.real and c.m0 == b.k0.imag
        np.testing.assert_array_equal(c.n, -b.k.imag)
        np.testing.assert_array_equal(c.m, b.k.real)


class TestCompose:
    def test_identity(self, rng):
        e = SpinorElement.identity()
        b = random_spinor(rng)
        assert spinor_close(spinor_compose(e, b), b)
        assert spinor_close(spinor_compose(b, e), b)

    def test_z_rotations_add(self):
        # oracle: explicit 2x2 matrix multiplication
        b1 = spinor_from_rotation(0.7, EZ)
        b2 = spinor_from_rotation(1.1, EZ)
        got = spinor_compose(b1, b2)
        k0, k = compose2(b1, b2)
        assert abs(got.k0 - k0) < 1e-15 and inf_norm(got.k - k) < 1e-15
        expected = spinor_from_rotation(1.8, EZ)
        assert spinor_close(got, expected, tol=1e-14)

    def test_random_pairs_match_2x2_product(self, rng):
        for _ in range(200):
            b1, b2 = random_spinor(rng), random_spinor(rng)
            got = spinor_compose(b1, b2)
            k0, k = compose2(b1, b2)
            assert abs(got.k0 - k0) < 1e-12
            assert inf_norm(got.k - k) < 1e-12

    def test_inverse(self, rng):
        b = random_spinor(rng)
        assert spinor_close(spinor_compose(b, b.inverse()), SpinorElement.identity(), 1e-12)


class TestRotationBoostConstructors:
    def test_rotation_zero_angle(self):
        b = spinor_from_rotation(0.0, EZ)
        assert b.k0 == 1.0 and inf_norm(b.k) == 0.0

    def test_rotation_half_turn(self):
        b = spinor_from_rotation(np.pi, EZ)
        assert abs(b.k0) < 1e-16
        np.testing.assert_allclose(b.k, [0, 0, -1j], atol=1e-15)

    def test_rotation_full_turn_is_deck_element(self):
        b = spinor_from_rotation(2 * np.pi, EZ)
        assert b.k0 == pytest.approx(-1.0, abs=1e-15)
        assert inf_norm(b.k) < 1e-15

    def test_boost_values(self):
        assert spinor_close(spinor_from_boost(0.0, EZ), SpinorElement.identity())
        beta = 1.4
        b = spinor_from_boost(beta, EZ)
        assert b.k0 == pytest.approx(np.cosh(beta / 2))
        np.testing.assert_allclose(b.k, [0, 0, np.sinh(beta / 2)])

    def test_collinear_boosts_add_rapidity(self):
        e = np.array([0.6, 0.0, 0.8])
        got = spinor_compose(spinor_from_boost(0.9, e), spinor_from_boost(0.4, e))
        k0, k = compose2(spinor_from_boost(0.9, e), spinor_from_boost(0.4, e))
        assert abs(got.k0 - k0) < 1e-15 and inf_norm(got.k - k) < 1e-15
        assert spinor_close(got, spinor_from_boost(1.3, e), tol=1e-14)

    def test_non_unit_axis_rejected(self):
        with pytest.raises(NonUnitAxis):
            spinor_from_rotation(1.0, [0, 0, 2])
        with pytest.raises(NonUnitAxis):
            spinor_from_boost(1.0, [0, 1j, 0])


class TestGibbs:
    def test_identity(self):
        c = np.array([0.2, -0.4, 0.1])
        np.testing.assert_allclose(gibbs_compose(np.zeros(3), c), c)

    def test_tangent_addition_on_axis(self):
        a1, a2 = 0.8, 0.5
        c1 = np.tan(a1 / 2) * EZ
        c2 = np.tan(a2 / 2) * EZ
        np.testing.assert_allclose(gibbs_compose(c1, c2), np.tan((a1 + a2) / 2) * EZ, atol=1e-14)

    def test_agrees_with_spinor_composition(self, rng):
        for _ in range(50):
            a1, a2 = rng.uniform(-2.5, 2.5, 2)
            e1, e2 = rng.normal(size=(2, 3))
            e1 /= np.linalg.norm(e1)
            e2 /= np.linalg.norm(e2)
            b = spinor_compose(spinor_from_rotation(a1, e1), spinor_from_rotation(a2, e2))
            if abs(b.n0) < 1e-3:
                continue
            got = gibbs_compose(np.tan(a1 / 2) * e1, np.tan(a2 / 2) * e2)
            np.testing.assert_allclose(got, b.n / b.n0, atol=1e-9)

    def test_half_turn_raises(self):
        c = np.array([1.0, 0.0, 0.0])
        with pytest.raises(HalfTurnResult):
            gibbs_compose(c, c)  # c1.c2 = 1


class TestSO3C:
    def test_identity(self):
        O = so3c_from_spinor(SpinorElement.identity())
        np.testing.assert_array_equal(O.matrix, np.eye(3))

    def test_boost_z_matrix(self):
        beta = 0.9
        O = so3c_from_spinor(spinor_from_boost(beta, EZ)).matrix
        ch, sh = np.cosh(beta), np.sinh(beta)
        expected = np.array([[ch, -1j * sh, 0], [1j * sh, ch, 0], [0, 0, 1]])
        np.testing.assert_allclose(O, expected, atol=1e-14)

    def test_rotation_matches_angle_axis_form(self, rng):
        for _ in range(20):
            alpha = rng.uniform(0, 2 * np.pi)
            e = rng.normal(size=3)
            e /= np.linalg.norm(e)
            O = so3c_from_spinor(spinor_from_rotation(alpha, e)).matrix
            np.testing.assert_allclose(O.imag, 0, atol=1e-14)
            np.testing.assert_allclose(O.real, rotation_matrix_angle_axis(alpha, e), atol=1e-13)

    def test_homomorphism(self, rng):
        for _ in range(100):
            b1, b2 = random_spinor(rng), random_spinor(rng)
            O12 = so3c_from_spinor(spinor_compose(b1, b2)).matrix
            prod = so3c_from_spinor(b1).matrix @ so3c_from_spinor(b2).matrix
            assert inf_norm(O12 - prod) < 1e-9

    def test_two_to_one_kernel_exact(self, rng):
        b = random_spinor(rng)
        np.testing.assert_array_equal(
            so3c_from_spinor(b).matrix, so3c_from_spinor(-b).matrix
        )


class TestLorentz4:
    def test_identity(self):
        np.testing.assert_array_equal(lorentz4_from_spinor(SpinorElement.identity()).matrix, np.eye(4))

    def test_boost_x_closed_form(self):
        beta = 1.1
        ex = np.array([1.0, 0.0, 0.0])
        L = lorentz4_from_spinor(spinor_from_boost(beta, ex)).matrix
        np.testing.assert_allclose(L, boost_closed_form(beta, ex), atol=1e-13)

    def test_matches_real_split_formula(self, rng):
        # the two entry tables are independent routes to the same matrix
        for _ in range(100):
            b = random_spinor(rng)
            np.testing.assert_allclose(
                lorentz4_from_spinor(b).matrix, lorentz4_real_split(b), atol=1e-12
            )

    @given(
        alpha=st.floats(0.0, 2 * np.pi),
        beta=st.floats(-10.0, 10.0),
        angles=st.tuples(*[st.floats(0.0, 2 * np.pi)] * 4),
    )
    def test_matches_real_split_formula_up_to_rapidity_10(self, alpha, beta, angles):
        b = spinor_compose(
            spinor_from_rotation(alpha, _axis(*angles[:2])), spinor_from_boost(beta, _axis(*angles[2:]))
        )
        L = lorentz4_from_spinor(b).matrix
        assert inf_norm(L - lorentz4_real_split(b)) <= 1e-12 * max(1.0, inf_norm(L))

    def test_homomorphism(self, rng):
        for _ in range(100):
            b1, b2 = random_spinor(rng), random_spinor(rng)
            L12 = lorentz4_from_spinor(spinor_compose(b1, b2)).matrix
            prod = lorentz4_from_spinor(b1).matrix @ lorentz4_from_spinor(b2).matrix
            assert inf_norm(L12 - prod) < 1e-9

    def test_metric_and_orthochronous(self, rng):
        for _ in range(100):
            L = lorentz4_from_spinor(random_spinor(rng)).matrix
            assert inf_norm(L.T @ ETA @ L - ETA) < 1e-10
            assert L[0, 0] >= 1.0 - 1e-10

    def test_boost_action_on_events(self, rng):
        # t' = ch(beta) t - sh(beta) (e.x); x' = -sh(beta) e t + x + (ch-1) e (e.x)
        for _ in range(20):
            beta = rng.uniform(-3, 3)
            e = rng.normal(size=3)
            e /= np.linalg.norm(e)
            L = lorentz4_from_spinor(spinor_from_boost(beta, e))
            t, x = rng.normal(), rng.normal(size=3)
            out = L.apply(np.concatenate([[t], x]))
            ch, sh = np.cosh(beta), np.sinh(beta)
            assert out[0] == pytest.approx(ch * t - sh * (e @ x), abs=1e-12)
            np.testing.assert_allclose(
                out[1:], -sh * e * t + x + (ch - 1.0) * e * (e @ x), atol=1e-12
            )


class TestGammaDelta:
    def test_real_gamma_real_delta_is_rotation(self):
        alpha = 1.3
        gd = GammaDelta(alpha, EZ.astype(complex))
        assert spinor_close(spinor_from_gamma_delta(gd), spinor_from_rotation(alpha, EZ), 1e-15)

    def test_imaginary_gamma_real_delta_is_boost(self):
        beta = 0.8
        gd = GammaDelta(1j * beta, EZ.astype(complex))
        assert spinor_close(spinor_from_gamma_delta(gd), spinor_from_boost(beta, EZ), 1e-15)

    def test_real_split_identities(self, rng):
        # k0 and k decompose through cos/cosh products of the half angles
        for _ in range(50):
            alpha = rng.uniform(0, 2 * np.pi)
            beta = rng.uniform(-2, 2)
            delta, rho, N0, M0 = random_unit_delta(rng, rho_max=2.0)
            N, M = delta.real, delta.imag
            b = spinor_from_gamma_delta(GammaDelta(alpha + 1j * beta, delta))
            ca, sa = np.cos(alpha / 2), np.sin(alpha / 2)
            cb, sb = np.cosh(beta / 2), np.sinh(beta / 2)
            assert b.n0 == pytest.approx(ca * cb, abs=1e-12)
            assert b.m0 == pytest.approx(-sa * sb, abs=1e-12)
            np.testing.assert_allclose(b.n, sa * cb * N - ca * sb * M, atol=1e-12)
            np.testing.assert_allclose(b.m, ca * sb * N + sa * cb * M, atol=1e-12)

    def test_roundtrip_up_to_sign(self, rng):
        for _ in range(100):
            b = random_spinor(rng)
            if abs(b.k @ b.k) < 1e-6:
                continue
            gd = gamma_delta_from_spinor(b)
            assert spinor_close_up_to_sign(spinor_from_gamma_delta(gd), b, tol=1e-9)

    def test_degenerate_elements_raise(self):
        with pytest.raises(GammaDegenerate):
            gamma_delta_from_spinor(SpinorElement.identity())
        with pytest.raises(GammaDegenerate):
            gamma_delta_from_spinor(-SpinorElement.identity())
        # isotropic: k0 = 1, k.k = 0, k != 0
        iso = SpinorElement(1.0, np.array([0.4, 0.4j, 0.0]))
        with pytest.raises(GammaDegenerate):
            gamma_delta_from_spinor(iso)

    def test_delta_constraint_enforced(self):
        with pytest.raises(ConstraintViolation):
            GammaDelta(1.0, np.array([1.0, 1.0, 0.0]))


class TestPureIdentities:
    def test_rotation_identities(self, rng):
        e = rng.normal(size=3)
        e /= np.linalg.norm(e)
        rep = verify_su2_boost_identities(spinor_from_rotation(1.2, e))
        assert rep["kind"] == "rotation"
        assert rep["max_residual"] < 1e-12

    def test_boost_identities(self, rng):
        e = rng.normal(size=3)
        e /= np.linalg.norm(e)
        rep = verify_su2_boost_identities(spinor_from_boost(1.7, e))
        assert rep["kind"] == "boost"
        assert rep["max_residual"] < 1e-12

    def test_generic_element_rejected(self):
        mixed = spinor_compose(spinor_from_rotation(0.5, EZ), spinor_from_boost(0.5, [1, 0, 0]))
        with pytest.raises(NotPureElement):
            verify_su2_boost_identities(mixed)
