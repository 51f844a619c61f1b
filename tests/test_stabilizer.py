import dataclasses
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from oracles import (
    boost_closed_form,
    e_parallel_b_boost,
    expm2,
    from_matrix2,
    random_unit_delta,
    to_matrix2,
)
from test_frame_bit_identity import KINDS, exponents, gammas, k_of_kind, seeded_K, seeds, units

from ncframe import stabilizer
from ncframe.errors import (
    DegenerateDelta,
    IsotropicInput,
    NonFiniteInput,
    NotAntisymmetric,
    NotIsotropic,
    NotUnitDelta,
    ZeroVector,
)
from ncframe.group import ComplexRotation, lorentz4_from_spinor, so3c_from_spinor
from ncframe.linalg import DEFAULT_TOL, bilinear_dot, hnorm, inf_norm
from ncframe.sampling import random_isotropic_k, random_nonisotropic_K, random_spinor
from ncframe.stabilizer import (
    EPS_ISO,
    NCClass,
    NCParameter,
    Subcase,
    K_to_theta,
    canonical_frame,
    classify,
    invariants,
    isotropic_stabilizer_element,
    reduce_to_real,
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

    @pytest.mark.parametrize("tol", [math.nan, -1.0, -1e-300, math.inf])
    def test_invalid_tol_is_refused(self, tol):
        # tol = nan returned K for a theta that is not antisymmetric, and
        # tol = -1 refused the zero theta with "residual 0.000e+00"
        for theta in (np.ones((4, 4)), np.zeros((4, 4)), K_to_theta([1, 0.5j, 0])):
            with pytest.raises(ValueError, match=f"tol must be finite and >= 0, got {tol!r}"):
                theta_to_K(theta, tol=tol)
        np.testing.assert_array_equal(theta_to_K(np.zeros((4, 4)), tol=0.0), np.zeros(3))

    def test_complex_theta(self):
        # a nonzero imaginary part is refused, not dropped by a cast
        theta = np.zeros((4, 4), dtype=complex)
        theta[0, 1], theta[1, 0] = 1 + 7j, -1 - 7j
        with pytest.raises(ValueError, match="expected a real 4x4 matrix"):
            theta_to_K(theta)

    @given(seed=st.integers(0, 2**32 - 1), exp=st.integers(-150, 150))
    def test_asymmetric_entry_at_each_position(self, seed, exp):
        # theta + theta^T against 1e-12 max(1, max |theta|), entry by entry
        rng = np.random.default_rng(seed)
        theta = 10.0**exp * rng.uniform(0.5, 1.0, size=(4, 4))
        theta -= theta.T
        bound = 1e-12 * max(1.0, np.abs(theta).max())
        for i in range(4):
            for j in range(4):
                # the residual of a diagonal entry is twice the entry
                step = bound / (2.0 if i == j else 1.0)
                near, far = theta.copy(), theta.copy()
                near[i, j] += 0.5 * step
                far[i, j] += 2.0 * step
                theta_to_K(near)
                with pytest.raises(NotAntisymmetric):
                    theta_to_K(far)

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
    @pytest.mark.parametrize("k", [1, 300, 511, 512, 513, 700, 1000, 1020,
                                   -1, -300, -511, -512, -513, -700, -1000, -1022])
    def test_labels_survive_norm_overflow(self, K, k):
        # ||2^k K|| overflows from k = 512 on, while every entry stays finite;
        # ||2^k K||^2 underflows from k = -512 down, and at k = -1022 the
        # parts below 1 are subnormal
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

    @given(kind=st.sampled_from(KINDS), exp=st.integers(-150, 150), seed=seeds)
    def test_invariant_magnitude_is_np_hypot(self, kind, exp, seed):
        # |K.K| from 1e-300 to 1e300: abs of a complex is libm's hypot
        i1, i2, mag, _ = invariants(k_of_kind(kind, exp, seed))
        assert np.float64(mag).tobytes() == np.hypot(i1, i2).tobytes()

    def test_invariants_match_bilinear_square(self, rng):
        K = random_nonisotropic_K(rng)
        i1, i2, mag, mu = invariants(K)
        ksq = bilinear_dot(K, K)
        assert complex(i1, i2) == pytest.approx(ksq)
        assert mag == pytest.approx(abs(ksq))


    @pytest.mark.parametrize("K", [np.array([1 + 1j, 0, 0]), np.array([0.3 - 1.2j, 0.7 + 0.1j, -0.5 + 0.9j])],
                             ids=["IIa", "generic"])
    def test_invariants_mu_is_scale_free(self, K):
        # mu comes from K scaled by a power of two, as classify's does: at
        # 1e-200 K.K underflowed (mu read 0) and at 1e200 it overflowed (NaN)
        mu, ksq = invariants(K)[3], bilinear_dot(K, K)
        for p in range(-300, 301, 10):
            Ks = 10.0**p * K
            i1, i2, _, mu_s = invariants(Ks)
            assert mu_s == pytest.approx(mu, rel=1e-15) and mu_s == classify(Ks).mu
            if abs(p) <= 150:  # I1 and I2 are those of K as given
                assert complex(i1, i2) == pytest.approx(10.0 ** (2 * p) * ksq, rel=1e-12)

    @pytest.mark.parametrize("eps_iso", [-1.0, -1e-300, math.nan, math.inf])
    def test_invalid_eps_iso_is_refused(self, eps_iso):
        # K = (1, i, 0) is isotropic: with eps_iso = -1 it was split by
        # Kscalar = 0, a ZeroDivisionError
        for f in (classify, unit_delta, canonical_frame):
            with pytest.raises(ValueError, match="eps_iso must be finite and >= 0"):
                f([1, 1j, 0], eps_iso)
        assert classify([1, 1j, 0], 0.0).klass is NCClass.ISOTROPIC


NON_FINITE_K = (
    [np.nan, 0, 0],
    [np.inf, 0, 0],
    [0, -np.inf, 1.0],
    [1.0, 0, complex(0, np.inf)],
    [1.0, complex(np.nan, 0), 0],
)


class TestNonFiniteInput:
    @pytest.mark.parametrize("K", NON_FINITE_K)
    def test_invariants_reject(self, K):
        with pytest.raises(NonFiniteInput):
            invariants(K)

    @pytest.mark.parametrize("K", NON_FINITE_K)
    def test_classify_and_unit_delta_reject(self, K):
        with pytest.raises(NonFiniteInput):
            classify(K)
        with pytest.raises(NonFiniteInput):
            unit_delta(K)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_theta_to_K_rejects(self, value):
        # at each of the 16 positions, also where max() would pass over a NaN
        for i in range(4):
            for j in range(4):
                theta = K_to_theta([1.0, 0.5 + 0.2j, 0])
                theta[i, j] = value
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
    # the rotation between two real unit directions is reduce_to_real of a real Delta
    def test_random_pairs(self, rng):
        for _ in range(50):
            a, b = rng.normal(size=(2, 3))
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            R = reduce_to_real(a, b).matrix
            np.testing.assert_allclose(R @ a, b, atol=1e-12)
            assert inf_norm(R.T @ R - np.eye(3)) < 1e-12
            assert np.linalg.det(R) == pytest.approx(1.0)

    def test_antiparallel_fallback(self):
        a = np.array([0.0, 1.0, 0.0])
        R = reduce_to_real(a, -a).matrix
        np.testing.assert_allclose(R @ a, -a, atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0)

    def test_near_antiparallel(self, rng):
        # dst at the angle pi - delta from src, and dst = -src: a half turn
        # and a turn that does not cancel, so S src = dst to rounding
        for delta in [*np.logspace(-14, -2, 49), 0.0]:
            for _ in range(4):
                src, w = rng.normal(size=(2, 3))
                src /= np.linalg.norm(src)
                w -= (w @ src) * src
                w /= np.linalg.norm(w)
                dst = -math.cos(delta) * src + math.sin(delta) * w
                S = reduce_to_real(src, dst).matrix
                assert np.abs(S @ src - dst).max() <= 1e-12, delta
                assert inf_norm(S.T @ S - np.eye(3)) <= 1e-12, delta


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

    @pytest.mark.parametrize("divisor", [1.0, 1e300])
    def test_overflowing_frame_is_refused(self, divisor):
        # K.K is at the rounding level of ||K||^2, so at eps_iso = 0 K is
        # non-isotropic with ||Delta||^2 near 1e308, and S Delta overflows:
        # Re(S Delta) has norm 0, which was a ZeroDivisionError
        K = np.array([-0.0235 + 1.7078084781192e308j, -0.774 + 2.36e-51j, 1.7078084781192e308 - 0.702j])
        with pytest.raises(DegenerateDelta, match="no finite real direction"):
            canonical_frame(K / divisor, eps_iso=0.0)

    @given(kind=st.sampled_from(["generic", "Ia", "Ib", "IIa", "IIb"]), seed=seeds, k=st.integers(-1000, 1000))
    def test_exact_under_power_of_two_scaling(self, kind, seed, k):
        # K at magnitude about 1, then 2^k K: the same S and Delta bytes, and
        # Kscalar and Kcanon exactly 2^k times, from ||K|| near 1e-301 to 1e301
        K = k_of_kind(kind, 0, seed)
        Kk = np.ldexp(K.view(float), k).view(complex)
        assume(np.ldexp(Kk.view(float), -k).tobytes() == K.tobytes())  # 2^k K is exact
        S, kcanon = canonical_frame(K)
        kscalar, delta = unit_delta(K)
        with np.errstate(over="ignore"):  # ||Kk||^2 overflows from k = 511 on
            Sk, kcanon_k = canonical_frame(Kk)
            kscalar_k, delta_k = unit_delta(Kk)
        assert Sk.matrix.tobytes() == S.matrix.tobytes() and delta_k.tobytes() == delta.tobytes()
        assert kscalar_k == complex(*np.ldexp((kscalar.real, kscalar.imag), k))
        assert kcanon_k.tobytes() == np.ldexp(kcanon.view(float), k).view(complex).tobytes()


def _bits(x):
    """x with every float and complex as exact bits, signed zeros included."""
    if isinstance(x, (list, tuple)):
        return tuple(_bits(y) for y in x)
    if isinstance(x, complex):
        return x.real.hex(), x.imag.hex()
    if isinstance(x, float):
        return x.hex()
    return x


def _frame_bytes(K, eps_iso=EPS_ISO):
    """Every output of classify, unit_delta and canonical_frame on K, as bytes."""
    p = classify(K, eps_iso)
    kscalar, delta = unit_delta(K, eps_iso)
    S, kcanon = canonical_frame(K, eps_iso)
    scalars = _bits((p.I1, p.I2, p.I, p.mu, p.klass, p.subcase, kscalar))
    return scalars, delta.tobytes(), S.matrix.tobytes(), kcanon.tobytes()


class TestScaledViewMemo:
    """classify, invariants, unit_delta and canonical_frame view one K once,
    through a one-entry memo keyed on the bytes of K and on eps_iso."""

    def test_one_view_per_K(self, monkeypatch):
        calls = []
        view = stabilizer._view
        monkeypatch.setattr(stabilizer, "_view", lambda K, eps: calls.append(K) or view(K, eps))
        monkeypatch.setattr(stabilizer, "_last", (None, None))  # whatever an earlier test viewed
        K = np.array([1.0 + 0.5j, 0.3, 0.2j])
        classify(K)
        invariants(K)
        unit_delta(K)
        canonical_frame(K)
        assert len(calls) == 1
        classify(2.0 * K)
        assert len(calls) == 2

    @pytest.mark.parametrize("negative_first", [True, False])
    def test_signed_zeros_miss(self, negative_first):
        neg = np.array([1.0 + 0j, complex(-0.0, 0.5), 0.3j])
        pos = np.array([1.0 + 0j, complex(0.0, 0.5), 0.3j])
        views = {}
        for K in (neg, pos) if negative_first else (pos, neg):
            want = stabilizer._view(K.tolist(), EPS_ISO)
            assert _bits(stabilizer._viewed(K, EPS_ISO)) == _bits(want)
            assert _bits(classify(K).mu) == _bits(want[3][0])
            assert unit_delta(K)[1].tobytes() == np.array(want[4][1]).tobytes()
            views[K.tobytes()] = _bits(want)
        assert views[neg.tobytes()] != views[pos.tobytes()]

    def test_mutated_input_misses(self):
        old, new = np.array([1.0 + 0.5j, 0.3, 0.2j]), np.array([0.4j, 1.0 - 0.2j, 0.7])
        want = _frame_bytes(new.copy())
        K = old.copy()
        assert _frame_bytes(K) != want
        classify(K)
        K[:] = new
        assert _frame_bytes(K) == want

    def test_eps_iso_is_part_of_the_key(self):
        # |K.K| / ||K||^2 is about 1e-6: non-isotropic at 1e-9, isotropic at 1e-3
        K = np.array([1.0, 1j * (1.0 + 1e-6), 0.0])
        for _ in range(2):
            assert classify(K, 1e-9).klass is NCClass.NON_ISOTROPIC
            assert classify(K, 1e-3).klass is NCClass.ISOTROPIC
        with pytest.raises(IsotropicInput):
            unit_delta(K, 1e-3)
        assert unit_delta(K, 1e-9)[1].shape == (3,)

    def test_non_finite_raises_every_time_and_stores_nothing(self):
        classify([1.0, 0.5j, 0.0])
        memo = stabilizer._last
        for _ in range(2):
            for f in (classify, invariants, unit_delta, canonical_frame):
                with pytest.raises(NonFiniteInput):
                    f([np.nan, 1.0, 0.0])
            with pytest.raises(NonFiniteInput):
                isotropic_stabilizer_element(1.0, [np.nan, 1.0, 0.0])
        assert stabilizer._last is memo

    def test_results_do_not_share_the_memo(self):
        K = np.array([1.0 + 0.5j, 0.3, 0.2j])
        want = _frame_bytes(K)
        _, delta = unit_delta(K)
        delta[:] = 0.0
        canonical_frame(K)[1][:] = 0.0
        assert _frame_bytes(K) == want

    def test_threads_get_their_own_view(self):
        # more threads than cores, switching often: a view served for another
        # thread's K would change the bytes of some result
        Ks = [np.array([1.0 + 0.5j, 0.3, 0.2j]) * (i + 1) + 0.1j * i for i in range(4)]
        want = [_frame_bytes(K) for K in Ks]
        wrong = []
        start = threading.Barrier(len(Ks))

        def work(i):
            start.wait(timeout=60)
            for _ in range(300):
                if _frame_bytes(Ks[i]) != want[i]:
                    wrong.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(Ks))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and wrong == []


class TestNCParameterContract:
    def test_fields(self):
        names = [f.name for f in dataclasses.fields(NCParameter)]
        assert names == ["K", "I1", "I2", "I", "mu", "klass", "subcase"]

    def test_theta_from_K(self, rng):
        # the migration path of the former NCParameter.theta: exact
        for _ in range(20):
            theta = rng.normal(size=(4, 4))
            theta -= theta.T
            assert K_to_theta(classify(theta_to_K(theta)).K).tobytes() == theta.tobytes()

    def test_fields_do_not_alias_the_input(self):
        # a complex128 input passes vec3 as the same array; the frozen
        # results must not follow a later mutation of it
        K = np.array([1 + 0.5j, 0.3, 0.2j])
        p = classify(K)
        K[0] = 5
        assert p.K[0] == 1 + 0.5j and p.I1 == pytest.approx(0.8)
        delta = np.array([1.0 + 0j, 0.0, 0.0])
        elem = stabilizer_element(0.3, delta)
        delta[0] = 5
        assert elem.delta[0] == 1
        k = np.array([1.0 + 0j, 1j, 0.0])
        elem = isotropic_stabilizer_element(0.3, k)
        k[0] = 5
        assert elem.k[0] == 1


# ---------------------------------------------------------------------------
# Both stabilizer families and the reducing boost are one small-group spinor
# b(t; K).  Its values, over the magnitudes and classes of the bit-identity
# sweep, against independent oracles.
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps


def spinor_gap(b, k0, k):
    """Distance of b from (k0, k), relative to max(1, |b.k0|, ||b.k||)."""
    return max(abs(b.k0 - k0), inf_norm(b.k - k)) / max(1.0, abs(b.k0), hnorm(b.k))


def isotropic_k(exp, seed, near):
    """k = s (u + i p) + s sqrt(near) (u x p), so k.k = s^2 near up to rounding."""
    k = k_of_kind("isotropic", exp, seed)
    w = np.cross(k.real, k.imag) / hnorm(k) * np.sqrt(2.0)
    return k + np.sqrt(near) * w


def frame_oracle(K):
    """The complex orthogonal image of the E || B boost, column by column
    through the theta transport theta_to_K(L theta L^T) = O theta_to_K(theta)."""
    rho, axis = e_parallel_b_boost(K)
    L = boost_closed_form(rho, axis)
    return np.array([theta_to_K(L @ K_to_theta(e) @ L.T) for e in np.eye(3)]).T


class TestSmallGroupOracles:
    @given(K=seeded_K, gamma=gammas)
    def test_gamma_family_is_cos_sin_of_half_gamma(self, K, gamma):
        try:
            _, delta = unit_delta(K)
        except IsotropicInput:
            return
        half = gamma / 2.0
        b = stabilizer_element(gamma, delta).spinor
        assert spinor_gap(b, np.cos(half), -1j * np.sin(half) * delta) <= DEFAULT_TOL

    @given(exp=exponents, seed=seeds, near=st.one_of(st.just(0.0), st.floats(1e-20, 1e-9)),
           size=st.floats(-3.0, 1.5), phase=st.floats(0.0, 2 * np.pi))
    def test_isotropic_family_is_exponential(self, exp, seed, near, size, phase):
        # b(2i z; k) = exp(z k.sigma), for k.k inside eps_iso and |z| ||k|| up to 30
        k = isotropic_k(exp, seed, near)
        z = 10.0**size * complex(np.cos(phase), np.sin(phase)) / hnorm(k)
        b = isotropic_stabilizer_element(z, k).spinor
        assert spinor_gap(b, *from_matrix2(expm2(z * to_matrix2(0.0, k)))) <= DEFAULT_TOL
        scale = abs(b.k0) ** 2 + hnorm(b.k) ** 2
        assert abs(b.k0 * b.k0 - bilinear_dot(b.k, b.k) - 1.0) <= 16 * EPS * scale

    def test_isotropic_element_unimodular_where_z_k_is_large(self):
        # k.k = 1e-10 passes the eps_iso test; with z = 1e5, (1, z k) would
        # have k0^2 - k.k = 0 exactly, a singular element
        z, k = 1e5, np.array([1.0, 1j, 1e-5])
        b = isotropic_stabilizer_element(z, k).spinor
        assert abs(b.k0 * b.k0 - bilinear_dot(b.k, b.k) - 1.0) <= 16 * EPS * hnorm(z * k) ** 2

    @given(kind=st.sampled_from(["generic", "Ia", "Ib", "IIa", "IIb"]), exp=exponents, seed=seeds, target=units)
    def test_reduction_is_e_parallel_b_boost(self, kind, exp, seed, target):
        K = k_of_kind(kind, exp, seed)
        _, delta = unit_delta(K)
        S, kcanon = canonical_frame(K)
        assert inf_norm(S.matrix - frame_oracle(K)) <= 1e-9 * max(1.0, inf_norm(S.matrix))
        assert inf_norm(reduce_to_real(delta).matrix - S.matrix) == 0.0
        St = reduce_to_real(delta, target)
        scale = max(1.0, inf_norm(St.matrix))
        assert inf_norm(St.matrix.T @ St.matrix - np.eye(3)) <= 1e-9 * scale**2
        assert hnorm(St.apply(delta) - target) <= 1e-9 * scale * hnorm(delta)
