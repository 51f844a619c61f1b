import numpy as np
import pytest
from oracles import random_unit_delta

from ncframe.errors import (
    IsotropicInput,
    NonFiniteInput,
    NotAntisymmetric,
    NotIsotropic,
    NotUnitDelta,
    ZeroVector,
)
from ncframe.group import ComplexRotation, lorentz4_from_spinor, so3c_from_spinor
from ncframe.linalg import bilinear_dot, hnorm, inf_norm
from ncframe.sampling import random_isotropic_k, random_nonisotropic_K, random_spinor
from ncframe.stabilizer import (
    NCClass,
    Subcase,
    K_to_theta,
    canonical_frame,
    classify,
    invariants,
    isotropic_stabilizer_element,
    reduce_to_real,
    rotation_between,
    stabilizer_element,
    theta_to_K,
    unit_delta,
)


class TestThetaMap:
    def test_zero(self):
        np.testing.assert_array_equal(theta_to_K(np.zeros((4, 4))), np.zeros(3))

    def test_time_space_block_is_imaginary_part(self):
        theta = np.zeros((4, 4))
        theta[0, 1], theta[1, 0] = 0.7, -0.7
        np.testing.assert_allclose(theta_to_K(theta), [0.7j, 0, 0])

    def test_space_space_block_is_real_part(self):
        theta = np.zeros((4, 4))
        theta[2, 3], theta[3, 2] = 0.4, -0.4
        np.testing.assert_allclose(theta_to_K(theta), [0.4, 0, 0])

    def test_roundtrip_exact(self, rng):
        K = rng.normal(size=3) + 1j * rng.normal(size=3)
        np.testing.assert_array_equal(theta_to_K(K_to_theta(K)), K)
        theta = rng.normal(size=(4, 4))
        theta -= theta.T
        np.testing.assert_array_equal(K_to_theta(theta_to_K(theta)), theta)

    def test_not_antisymmetric(self):
        with pytest.raises(NotAntisymmetric):
            theta_to_K(np.eye(4))

    def test_covariance_convention(self, rng):
        # the theta <-> K map must intertwine the 4x4 and 3x3 actions
        for _ in range(100):
            b = random_spinor(rng)
            L = lorentz4_from_spinor(b).matrix
            O = so3c_from_spinor(b).matrix
            theta = rng.normal(size=(4, 4))
            theta -= theta.T
            lhs = theta_to_K(L @ theta @ L.T)
            rhs = O @ theta_to_K(theta)
            assert hnorm(lhs - rhs) / max(hnorm(rhs), 1e-12) < 1e-9


class TestClassify:
    def test_case_real_dominant(self):
        p = classify(np.array([1.0, 0, 0]) + 0j)
        assert p.klass is NCClass.NON_ISOTROPIC and p.subcase is Subcase.IA
        assert p.I1 == 1.0 and p.I2 == 0.0 and p.mu == 0.0

    def test_case_imaginary_dominant(self):
        p = classify(np.array([1.0, 0, 0]) + 1j * np.array([0, 2.0, 0]))
        assert p.subcase is Subcase.IB
        assert p.I1 == pytest.approx(-3.0) and p.I2 == pytest.approx(0.0)
        assert p.mu == pytest.approx(np.pi / 2)

    def test_case_collinear_positive(self):
        # I1 = 0 needs n.n = m.m; collinear equal-length parts give I2 = 2 n.m > 0
        n = np.array([1.0, 0, 0])
        p = classify(n + 1j * n)
        assert p.subcase is Subcase.IIA and p.mu == pytest.approx(np.pi / 4)
        assert p.I1 == pytest.approx(0.0) and p.I2 == pytest.approx(2.0)
        # non-collinear variant with the same invariants
        q = classify(np.array([1.0, 0, 0]) + 1j * np.array([0.6, 0.8, 0.0]))
        assert q.subcase is Subcase.IIA and q.mu == pytest.approx(np.pi / 4)

    def test_case_collinear_negative(self):
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([-0.6, 0.8, 0.0])
        p = classify(a + 1j * b)  # I1 = 0, I2 = 2 a.b < 0
        assert p.subcase is Subcase.IIB and p.mu == pytest.approx(3 * np.pi / 4)

    def test_commutative(self):
        p = classify(np.zeros(3))
        assert p.klass is NCClass.COMMUTATIVE and p.subcase is Subcase.NONE and p.mu is None

    def test_isotropic(self):
        p = classify(np.array([1.0, 1j, 0.0]))
        assert p.klass is NCClass.ISOTROPIC and p.subcase is Subcase.NONE

    @pytest.mark.parametrize(
        "K",
        [
            [1.0, 0.5, 0.0],           # Ia
            [0.5j, 1.0j, 0.0],         # Ib
            [1 + 1j, 0.0, 0.0],        # IIa
            [1 - 1j, 0.0, 0.0],        # IIb
            [1 + 0.5j, 0.3, 0.2j],     # generic
            [1.0, 1j, 0.0],            # isotropic
        ],
    )
    @pytest.mark.parametrize("k", [1, 300, 511, 512, 513, 700, 1000, 1020])
    def test_labels_survive_norm_overflow(self, K, k):
        # ||2^k K|| overflows from k = 512 on, while every entry stays finite
        want = classify(K)
        with np.errstate(over="ignore", invalid="ignore"):
            got = classify(2.0**k * np.asarray(K))
        assert (got.klass, got.subcase) == (want.klass, want.subcase)
        if want.mu is None:
            assert got.mu is None
        else:
            assert got.mu == pytest.approx(want.mu, rel=1e-15)

    def test_scale_covariance(self, rng):
        for _ in range(20):
            K = random_nonisotropic_K(rng)
            lam = rng.uniform(0.1, 10.0)
            p, q = classify(K), classify(lam * K)
            assert q.subcase is p.subcase and q.klass is p.klass
            assert q.I1 == pytest.approx(lam**2 * p.I1, rel=1e-12, abs=1e-12)
            assert q.I2 == pytest.approx(lam**2 * p.I2, rel=1e-12, abs=1e-12)
            assert q.mu == pytest.approx(p.mu, abs=1e-12)

    def test_invariants_match_bilinear_square(self, rng):
        K = random_nonisotropic_K(rng)
        i1, i2, mag, mu = invariants(K)
        ksq = bilinear_dot(K, K)
        assert complex(i1, i2) == pytest.approx(ksq)
        assert mag == pytest.approx(abs(ksq))

    def test_classify_theta_keeps_matrix(self, rng):
        from ncframe.stabilizer import classify_theta

        theta = rng.normal(size=(4, 4))
        theta -= theta.T
        p = classify_theta(theta)
        np.testing.assert_array_equal(p.theta, theta)
        q = classify(theta_to_K(theta))
        assert p.klass is q.klass and p.subcase is q.subcase
        assert p.I1 == q.I1 and p.I2 == q.I2


NON_FINITE_K = (
    [np.nan, 0, 0],
    [np.inf, 0, 0],
    [0, -np.inf, 1.0],
    [1.0, 0, complex(0, np.inf)],
    [1.0, complex(np.nan, 0), 0],
)


class TestNonFiniteInput:
    @pytest.mark.parametrize("K", NON_FINITE_K)
    def test_classify_and_unit_delta_reject(self, K):
        with pytest.raises(NonFiniteInput):
            classify(K)
        with pytest.raises(NonFiniteInput):
            unit_delta(K)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_theta_to_K_rejects(self, value):
        theta = K_to_theta([1.0, 0.5 + 0.2j, 0])
        theta[0, 2] = value
        with pytest.raises(NonFiniteInput):
            theta_to_K(theta)

    def test_is_a_value_error(self):
        assert issubclass(NonFiniteInput, ValueError)

    def test_finite_input_with_overflowing_norm_is_not_rejected_as_non_finite(self):
        with np.errstate(over="ignore"):
            classify([1e200, 0, 0])


class TestUnitDelta:
    def test_real_vector(self):
        kscalar, delta = unit_delta(np.array([2.0, 0, 0]) + 0j)
        assert kscalar == pytest.approx(2.0)
        np.testing.assert_allclose(delta, [1, 0, 0], atol=1e-15)

    def test_imaginary_vector(self):
        kscalar, delta = unit_delta(np.array([2j, 0, 0]))
        assert kscalar == pytest.approx(2j)
        np.testing.assert_allclose(delta, [1, 0, 0], atol=1e-15)

    def test_reconstruction(self, rng):
        for _ in range(50):
            K = random_nonisotropic_K(rng)
            kscalar, delta = unit_delta(K)
            assert hnorm(kscalar * delta - K) < 1e-10 * hnorm(K)
            assert bilinear_dot(delta, delta) == pytest.approx(1.0, abs=1e-12)
            N, M = delta.real, delta.imag
            assert N @ M == pytest.approx(0.0, abs=1e-12)
            assert N @ N - M @ M == pytest.approx(1.0, abs=1e-12)

    def test_isotropic_rejected(self):
        with pytest.raises(IsotropicInput):
            unit_delta(np.array([1.0, 1j, 0.0]))
        with pytest.raises(IsotropicInput):
            unit_delta(np.zeros(3))


class TestStabilizerElements:
    def test_rotation_family_fixes_axis(self):
        delta = np.array([0, 0, 1.0]) + 0j
        el = stabilizer_element(0.9, delta)
        np.testing.assert_allclose(el.rotation.matrix.imag, 0, atol=1e-15)
        np.testing.assert_allclose(el.rotation.apply(delta), delta, atol=1e-15)
        # real gamma on a real axis is a plain rotation about that axis
        c, s = np.cos(0.9), np.sin(0.9)
        np.testing.assert_allclose(
            el.rotation.matrix.real, [[c, -s, 0], [s, c, 0], [0, 0, 1]], atol=1e-14
        )

    def test_boost_family_fixes_axis(self):
        delta = np.array([0, 0, 1.0]) + 0j
        el = stabilizer_element(0.6j, delta)
        np.testing.assert_allclose(el.rotation.apply(delta), delta, atol=1e-14)
        ch, sh = np.cosh(0.6), np.sinh(0.6)
        np.testing.assert_allclose(
            el.rotation.matrix, [[ch, -1j * sh, 0], [1j * sh, ch, 0], [0, 0, 1]], atol=1e-14
        )

    def test_parameters_add(self, rng):
        delta, _, _, _ = random_unit_delta(rng, rho_max=1.5)
        g1 = complex(rng.uniform(0, 2 * np.pi), rng.uniform(-1, 1))
        g2 = complex(rng.uniform(0, 2 * np.pi), rng.uniform(-1, 1))
        prod = ComplexRotation(
            stabilizer_element(g1, delta).rotation.matrix @ stabilizer_element(g2, delta).rotation.matrix
        )
        direct = stabilizer_element(g1 + g2, delta).rotation
        assert inf_norm(prod.matrix - direct.matrix) < 1e-9

    def test_fixes_every_multiple(self, rng):
        for _ in range(50):
            K = random_nonisotropic_K(rng)
            _, delta = unit_delta(K)
            el = stabilizer_element(complex(rng.uniform(0, 6.28), rng.uniform(-2, 2)), delta)
            lam = complex(rng.normal(), rng.normal())
            v = lam * delta
            assert hnorm(el.rotation.apply(v) - v) < 1e-9 * max(1.0, hnorm(v))
            assert hnorm(el.rotation.apply(K) - K) < 1e-9 * hnorm(K)

    def test_abelian(self, rng):
        delta, _, _, _ = random_unit_delta(rng)
        a = stabilizer_element(1.1 + 0.4j, delta).rotation.matrix
        b = stabilizer_element(-0.7 + 1.2j, delta).rotation.matrix
        assert inf_norm(a @ b - b @ a) < 1e-9

    def test_not_unit_delta(self):
        with pytest.raises(NotUnitDelta):
            stabilizer_element(1.0, np.array([1.0, 1.0, 0.0]))


class TestIsotropicStabilizer:
    def test_fixes_k(self, rng):
        k = np.array([1.0, 1j, 0.0])
        el = isotropic_stabilizer_element(2.0 - 1.0j, k)
        assert hnorm(el.rotation.apply(k) - k) < 1e-12

    def test_zero_parameter_is_identity(self):
        el = isotropic_stabilizer_element(0.0, np.array([1.0, 1j, 0.0]))
        np.testing.assert_allclose(el.rotation.matrix, np.eye(3), atol=1e-15)

    def test_parameters_add(self, rng):
        for _ in range(20):
            k = random_isotropic_k(rng)
            z1 = complex(rng.normal(), rng.normal())
            z2 = complex(rng.normal(), rng.normal())
            prod = ComplexRotation(
                isotropic_stabilizer_element(z1, k).rotation.matrix
                @ isotropic_stabilizer_element(z2, k).rotation.matrix
            )
            direct = isotropic_stabilizer_element(z1 + z2, k).rotation
            assert inf_norm(prod.matrix - direct.matrix) < 1e-9

    def test_abelian(self, rng):
        k = random_isotropic_k(rng)
        a = isotropic_stabilizer_element(1.0 + 2.0j, k).rotation.matrix
        b = isotropic_stabilizer_element(-0.5 + 0.25j, k).rotation.matrix
        assert inf_norm(a @ b - b @ a) < 1e-9

    def test_rejections(self):
        with pytest.raises(ZeroVector):
            isotropic_stabilizer_element(1.0, np.zeros(3))
        with pytest.raises(NotIsotropic):
            isotropic_stabilizer_element(1.0, np.array([1.0, 0, 0]))


class TestRotationBetween:
    def test_random_pairs(self, rng):
        for _ in range(50):
            a, b = rng.normal(size=(2, 3))
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            R = rotation_between(a, b)
            np.testing.assert_allclose(R @ a, b, atol=1e-12)
            assert inf_norm(R.T @ R - np.eye(3)) < 1e-12
            assert np.linalg.det(R) == pytest.approx(1.0)

    def test_antiparallel_fallback(self):
        a = np.array([0.0, 1.0, 0.0])
        R = rotation_between(a, -a)
        np.testing.assert_allclose(R @ a, -a, atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0)


class TestReduceToReal:
    def test_real_delta_auto_is_identity(self):
        delta = np.array([0.0, 1.0, 0.0]) + 0j
        S = reduce_to_real(delta)
        np.testing.assert_allclose(S.matrix, np.eye(3), atol=1e-14)

    def test_plane_case(self):
        rho = 1.0
        delta = np.array([np.cosh(rho), 1j * np.sinh(rho), 0.0])
        S = reduce_to_real(delta, e_target=np.array([1.0, 0, 0]))
        assert inf_norm(S.matrix.T @ S.matrix - np.eye(3)) < 1e-12
        np.testing.assert_allclose(S.apply(delta), [1, 0, 0], atol=1e-12)

    def test_target_m0_shapes(self, rng):
        # with the target on the imaginary direction, no extra rotation is
        # applied; the real/imaginary parts of S then carry the expected
        # hyperbolic structure on the plane orthogonal to u = M0 x N0
        delta, rho, N0, M0 = random_unit_delta(rng, rho=1.3)
        S = reduce_to_real(delta, e_target=M0).matrix
        np.testing.assert_allclose(S @ delta, M0, atol=1e-12)
        u = np.cross(M0, N0)
        plane = np.eye(3) - np.outer(u, u)
        ch, sh = np.cosh(rho), np.sinh(rho)
        J = -S.imag  # S = R - i J
        R = S.real
        np.testing.assert_allclose(J @ plane, -sh * plane, atol=1e-12)
        ux = np.array([[0, -u[2], u[1]], [u[2], 0, -u[0]], [-u[1], u[0], 0]])
        np.testing.assert_allclose(R @ plane, -ch * ux, atol=1e-12)

    def test_random_deltas(self, rng):
        for _ in range(100):
            delta, rho, N0, M0 = random_unit_delta(rng, rho_max=3.0)
            S = reduce_to_real(delta)
            e = S.apply(delta)
            assert inf_norm(S.matrix.T @ S.matrix - np.eye(3)) < 1e-9
            assert inf_norm(e.imag) < 1e-9
            assert np.linalg.norm(e.real) == pytest.approx(1.0, abs=1e-9)
            assert np.linalg.det(S.matrix) == pytest.approx(1.0, abs=1e-9)

    def test_explicit_targets(self, rng):
        for _ in range(20):
            delta, _, _, _ = random_unit_delta(rng)
            e = rng.normal(size=3)
            e /= np.linalg.norm(e)
            S = reduce_to_real(delta, e_target=e)
            np.testing.assert_allclose(S.apply(delta), e, atol=1e-9)

    def test_antiparallel_target(self, rng):
        delta, rho, N0, M0 = random_unit_delta(rng, rho=0.9)
        S = reduce_to_real(delta, e_target=-M0)
        np.testing.assert_allclose(S.apply(delta), -M0, atol=1e-12)

    def test_bad_delta_rejected(self):
        with pytest.raises(NotUnitDelta):
            reduce_to_real(np.array([1.0, 1.0, 0.0]) + 0j)


class TestCanonicalFrame:
    def test_real_K(self):
        K = np.array([0.3, -1.2, 0.4]) + 0j
        S, kcanon = canonical_frame(K)
        np.testing.assert_allclose(S.matrix, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(kcanon, K / hnorm(K) * hnorm(K), atol=1e-12)

    def test_imaginary_K(self):
        S, kcanon = canonical_frame(np.array([2j, 0, 0]))
        e = (kcanon / 2j).real
        assert np.linalg.norm(e) == pytest.approx(1.0, abs=1e-12)
        ksq = bilinear_dot(kcanon, kcanon)
        assert ksq.real == pytest.approx(-4.0) and ksq.imag == pytest.approx(0.0, abs=1e-12)

    def test_random_K(self, rng):
        for _ in range(50):
            K = random_nonisotropic_K(rng)
            S, kcanon = canonical_frame(K)
            assert inf_norm(S.matrix.T @ S.matrix - np.eye(3)) < 1e-9
            assert hnorm(S.apply(K) - kcanon) < 1e-9 * hnorm(K)
            i1, i2, _, _ = invariants(K)
            j1, j2, _, _ = invariants(kcanon)
            scale = max(abs(i1), abs(i2))
            assert abs(j1 - i1) < 1e-9 * scale and abs(j2 - i2) < 1e-9 * scale
            # canonical form: n' and m' both parallel to one real direction
            n, m = kcanon.real, kcanon.imag
            assert hnorm(np.cross(n, m)) < 1e-9 * max(hnorm(n) * hnorm(m), 1e-12)

    def test_isotropic_rejected(self):
        with pytest.raises(IsotropicInput):
            canonical_frame(np.array([1.0, 1j, 0.0]))
