import contextlib
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import (
    boost_closed_form,
    compose2,
    lorentz4_real_split,
    random_unit_delta,
    rotation_matrix_angle_axis,
    so3c_oracle,
)

from ncframe import factorization, group, stabilizer
from ncframe.electrodynamics import FieldState, constitutive_real_forward
from ncframe.errors import (
    ConstraintViolation,
    NcframeError,
    NonUnitAxis,
    NotPureElement,
    NotUnitDelta,
)
from ncframe.factorization import (
    FactorOrder,
    RotationBoostPair,
    factor_boost_rotation,
    factor_isotropic,
    factor_rotation_boost,
)
from ncframe.group import (
    ETA,
    ComplexRotation,
    Lorentz4,
    SpinorElement,
    lorentz4_from_spinor,
    project_to_group,
    so3c_from_spinor,
    spinor_compose,
    spinor_from_boost,
    spinor_from_rotation,
    verify_su2_boost_identities,
)
from ncframe.linalg import DEFAULT_TOL, EYE3, bilinear_dot, hnorm, inf_norm
from ncframe.sampling import random_spinor
from ncframe.stabilizer import (
    StabilizerElement,
    _require_unit_square,
    canonical_frame,
    isotropic_stabilizer_element,
    reduce_to_real,
    stabilizer_element,
    unit_delta,
)

EZ = np.array([0.0, 0.0, 1.0])


def spinor_close(a, b, tol=1e-10):
    return abs(a.k0 - b.k0) <= tol and inf_norm(a.k - b.k) <= tol


def _axis(theta, phi):
    return np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])


def rotation_boost(alpha, beta, angles):
    """Rotation by alpha after a boost of rapidity beta, the two axes from four angles."""
    return spinor_compose(
        spinor_from_rotation(alpha, _axis(*angles[:2])), spinor_from_boost(beta, _axis(*angles[2:]))
    )


angles4 = st.tuples(*[st.floats(0.0, 2 * np.pi)] * 4)
rapidities = st.floats(-30.0, 30.0)
PARITY, TIME_REVERSAL = np.diag([1.0, -1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, 1.0, 1.0])
# the message of the one check of ComplexRotation and Lorentz4
NOT_AN_IMAGE = "not the image of a unimodular spinor"


class TestConstructorRejections:
    def test_complex_rotation_rejects_minus_identity(self):
        with pytest.raises(ConstraintViolation, match=NOT_AN_IMAGE):
            ComplexRotation(-np.eye(3))

    def test_complex_rotation_rejects_improper_complex_matrix(self, rng):
        O = so3c_from_spinor(random_spinor(rng)).matrix
        with pytest.raises(ConstraintViolation, match=NOT_AN_IMAGE):
            ComplexRotation(-O)

    def test_complex_rotation_rejects_non_orthogonal(self):
        # det = 1, but O^T O != I
        with pytest.raises(ConstraintViolation, match=NOT_AN_IMAGE):
            ComplexRotation(np.diag([2.0, 0.5, 1.0]))

    def test_lorentz4_rejects_parity(self):
        with pytest.raises(ConstraintViolation, match=NOT_AN_IMAGE):
            Lorentz4(np.diag([1.0, -1.0, -1.0, -1.0]))

    def test_lorentz4_rejects_time_reversal(self):
        with pytest.raises(ConstraintViolation, match=NOT_AN_IMAGE):
            Lorentz4(np.diag([-1.0, 1.0, 1.0, 1.0]))

    def test_lorentz4_rejects_metric_violation(self):
        with pytest.raises(ConstraintViolation, match=NOT_AN_IMAGE):
            Lorentz4(np.diag([1.0, 2.0, 1.0, 1.0]))

    def test_lorentz4_rejects_complex_matrix(self):
        # a nonzero imaginary part is refused, not dropped by a cast
        m = np.eye(4) + 0j
        m[1, 1] += 5j
        with pytest.raises(ConstraintViolation, match="expected a real 4x4 matrix"):
            Lorentz4(m)

    @given(alpha=st.floats(0.0, 2 * np.pi), beta=rapidities, angles=angles4)
    def test_rotation_boost_products(self, alpha, beta, angles):
        # every image is accepted, and its improper or non-orthochronous
        # partners are refused, through rapidity 30
        b = rotation_boost(alpha, beta, angles)
        O, L = so3c_from_spinor(b).matrix, lorentz4_from_spinor(b).matrix
        ComplexRotation(O)
        Lorentz4(L)
        with pytest.raises(ConstraintViolation, match=NOT_AN_IMAGE):
            ComplexRotation(-O)
        for m in (L @ PARITY, PARITY @ L, -L, TIME_REVERSAL @ L):
            with pytest.raises(ConstraintViolation, match=NOT_AN_IMAGE):
                Lorentz4(m)


def raises_with(error, message, build, *args):
    with pytest.raises(error) as info:
        build(*args)
    assert str(info.value) == message


class TestToleranceScales:
    """Residuals between DEFAULT_TOL and DEFAULT_TOL * scale pass; larger ones raise.

    The spinor and unit-square checks compare their residual with
    DEFAULT_TOL times a scale >= 1 set by the size of the element, so these
    cases straddle both thresholds of a large element.  The matrix checks
    compare the image residual with DEFAULT_TOL max(1, ||m||_max), and also
    require the recovered spinor to pass the spinor check.
    """

    @staticmethod
    def spinor(excess, s=100.0):
        # k0^2 - k.k = 1 + excess; scale = |k0|^2 + ||k||^2 ~ 2e4
        return math.sqrt(1.0 + s * s + excess), np.array([0.0, 0.0, s], dtype=complex)

    def test_spinor_element(self):
        k0, k = self.spinor(1e-8)
        det = k0 * k0 - complex(k @ k)
        assert DEFAULT_TOL < abs(det - 1.0) <= DEFAULT_TOL * (k0**2 + np.linalg.norm(k) ** 2)
        SpinorElement(k0, k)
        k0, k = self.spinor(1e-5)
        det = k0 * k0 - complex(k @ k)
        assert abs(det - 1.0) > DEFAULT_TOL * (k0**2 + np.linalg.norm(k) ** 2)
        message = f"k0^2 - k.k = {det:.15g}, expected 1 (within {DEFAULT_TOL:g} relative)"
        raises_with(ConstraintViolation, message, SpinorElement, k0, k)

    @staticmethod
    def delta(excess, ch=100.0):
        # delta.delta = 1 + excess; ||delta||^2 ~ 2e4
        return np.array([ch, 1j * math.sqrt(ch * ch - 1.0 - excess), 0.0])

    def test_unit_square(self):
        d = self.delta(1e-8)
        assert DEFAULT_TOL < abs(d @ d - 1.0) <= DEFAULT_TOL * np.linalg.norm(d) ** 2
        stabilizer_element(0.3, d)
        d = self.delta(1e-5)
        assert abs(d @ d - 1.0) > DEFAULT_TOL * np.linalg.norm(d) ** 2
        message = f"delta.delta = {complex(d @ d):.15g}, expected 1"
        raises_with(NotUnitDelta, message, stabilizer_element, 0.3, d)

    def test_complex_rotation(self):
        # rapidity 6, one entry moved: the image residual is about the shift,
        # against DEFAULT_TOL ||O||_max ~ 2e-8
        O = so3c_from_spinor(spinor_from_boost(6.0, EZ)).matrix
        for shift, ok in ((1e-9, True), (1e-6, False)):
            P = O.copy()
            P[0, 0] += shift
            if ok:
                ComplexRotation(P)
            else:
                with pytest.raises(ConstraintViolation, match=NOT_AN_IMAGE):
                    ComplexRotation(P)
        # -O: orthogonal to DEFAULT_TOL, determinant -1
        with pytest.raises(ConstraintViolation, match=NOT_AN_IMAGE):
            ComplexRotation(-O)
        # the exact image of k = (0, 0, i sqrt(1.2)), k0 = 0: k0^2 - k.k = 1.2,
        # which the spinor check refuses
        O = np.diag([-1.4, -1.4, 1.0])
        assert inf_norm(np.array(group._so3c(0j, [0j, 0j, 1j * math.sqrt(1.2)])) - O) <= 1e-15
        with pytest.raises(ConstraintViolation, match="k0\\^2 - k.k = 1.2"):
            ComplexRotation(O)

    def test_lorentz4_metric(self):
        L = lorentz4_from_spinor(spinor_from_boost(10.0, EZ)).matrix
        Lorentz4(L)
        P = L.copy()
        P[1, 2] += 1.0
        assert inf_norm(P.T @ ETA @ P - ETA) > DEFAULT_TOL * inf_norm(L)
        with pytest.raises(ConstraintViolation, match=NOT_AN_IMAGE):
            Lorentz4(P)

    def test_lorentz4_orthochronous(self):
        # L00 = 1 - 1e-9 and a large second column (X, sqrt(X^2 + 1), 0, 0):
        # the cross term of L^T eta L is ~X, so no spinor has this image
        X = 1e11
        L = np.eye(4)
        L[0, 0] = 1.0 - 1e-9
        L[0, 1], L[1, 1] = X, math.sqrt(X * X + 1.0)
        assert inf_norm(L.T @ ETA @ L - ETA) > 1e10
        with pytest.raises(ConstraintViolation, match=NOT_AN_IMAGE):
            Lorentz4(L)
        # time reversal of a rapidity-10 boost: L00 = -cosh(10)
        L = TIME_REVERSAL @ lorentz4_from_spinor(spinor_from_boost(10.0, EZ)).matrix
        with pytest.raises(ConstraintViolation, match=NOT_AN_IMAGE):
            Lorentz4(L)


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

    def test_product_beyond_the_float_range_is_refused(self):
        # k0 of b b is about 1e260: its square overflows and k0^2 - k.k is NaN
        b = spinor_from_boost(600.0, [1, 0, 0])
        with pytest.raises(ConstraintViolation, match="k0\\^2 - k.k = nan"):
            spinor_compose(b, b)


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

    @given(alpha=st.floats(0.0, 2 * np.pi), beta=st.floats(-10.0, 10.0), angles=angles4)
    def test_matches_real_split_formula_up_to_rapidity_10(self, alpha, beta, angles):
        b = rotation_boost(alpha, beta, angles)
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
    """The paper's identities of the O(gamma, Delta) family, on stabilizer_element."""

    def test_real_gamma_real_delta_is_rotation(self):
        alpha = 1.3
        b = stabilizer_element(alpha, EZ).spinor
        assert spinor_close(b, spinor_from_rotation(alpha, EZ), 1e-15)

    def test_imaginary_gamma_real_delta_is_boost(self):
        beta = 0.8
        b = stabilizer_element(1j * beta, EZ).spinor
        assert spinor_close(b, spinor_from_boost(beta, EZ), 1e-15)

    def test_real_split_identities(self, rng):
        # k0 and k decompose through cos/cosh products of the half angles
        for _ in range(50):
            alpha = rng.uniform(0, 2 * np.pi)
            beta = rng.uniform(-2, 2)
            delta, rho, N0, M0 = random_unit_delta(rng, rho_max=2.0)
            N, M = delta.real, delta.imag
            b = stabilizer_element(alpha + 1j * beta, delta).spinor
            ca, sa = np.cos(alpha / 2), np.sin(alpha / 2)
            cb, sb = np.cosh(beta / 2), np.sinh(beta / 2)
            assert b.n0 == pytest.approx(ca * cb, abs=1e-12)
            assert b.m0 == pytest.approx(-sa * sb, abs=1e-12)
            np.testing.assert_allclose(b.n, sa * cb * N - ca * sb * M, atol=1e-12)
            np.testing.assert_allclose(b.m, ca * sb * N + sa * cb * M, atol=1e-12)


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


# ---------------------------------------------------------------------------
# Trusted images: so3c_from_spinor and lorentz4_from_spinor build O(b) and
# L(b) from an element that passed the SpinorElement check, without running
# the ComplexRotation and Lorentz4 checks again.
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def patched(*patches):
    """Bind each (module, name) to a value for the duration, then restore it."""
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    for module, name, value in patches:
        setattr(module, name, value)
    try:
        yield
    finally:
        for module, name, value in saved:
            setattr(module, name, value)


def checking(*classes):
    """A stand-in for group._trusted that builds the given classes through
    their public constructors, with every check, and trusts the others."""
    trusted = group._trusted

    def build(cls, **fields):
        return cls(**fields) if cls in classes else trusted(cls, **fields)

    return build


def checked_images():
    """Build the images through the public constructors, with every check."""
    return patched((group, "_trusted", checking(ComplexRotation, Lorentz4)))


def at_tolerance_edge(b, frac):
    """b rescaled so that k0^2 - k.k - 1 is frac of SpinorElement's tolerance.

    The rescaled element has scale s^2 times b's; the tolerance it takes up
    is capped at 1/2 in absolute terms, so that s^2 stays within [2/3, 2].
    """
    scale = max(1.0, abs(b.k0) ** 2 + hnorm(b.k) ** 2)
    s = math.sqrt(1.0 / (1.0 - frac * min(DEFAULT_TOL * scale, 0.5)))
    return SpinorElement(s * b.k0, s * b.k)


def _k_at(exp, seed, isotropic):
    """K of magnitude about 10**exp: generic, or u + i*p with orthonormal u, p."""
    rng = np.random.default_rng(seed)
    if not isotropic:
        return 10.0**exp * (rng.normal(size=3) + 1j * rng.normal(size=3))
    u, p = rng.normal(size=3), rng.normal(size=3)
    u /= np.linalg.norm(u)
    p -= (p @ u) * u
    return 10.0**exp * (u + 1j * p / np.linalg.norm(p))


high_rapidities = st.tuples(st.floats(16.0, 30.0), st.sampled_from([-1.0, 1.0])).map(lambda t: t[0] * t[1])
edge_fractions = st.tuples(st.floats(0.1, 0.9), st.sampled_from([-1.0, 1.0])).map(lambda t: t[0] * t[1])


class TestTrustedImages:
    @staticmethod
    def assert_same_as_checked(b):
        """The trusted images carry the checked constructors' bytes."""
        images = so3c_from_spinor(b).matrix, lorentz4_from_spinor(b).matrix
        assert images[0].dtype == np.complex128 and images[0].shape == (3, 3)
        assert images[1].dtype == np.float64 and images[1].shape == (4, 4)
        with checked_images():
            for build, got in zip((so3c_from_spinor, lorentz4_from_spinor), images):
                want = build(b).matrix
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    @given(alpha=st.floats(0.0, 2 * np.pi), beta=rapidities, angles=angles4)
    def test_rotation_boost_images_equal_checked(self, alpha, beta, angles):
        self.assert_same_as_checked(rotation_boost(alpha, beta, angles))

    @given(exp=st.integers(-100, 100), seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.0, 2 * np.pi),
           beta=rapidities, isotropic=st.booleans())
    def test_stabilizer_images_equal_checked(self, exp, seed, alpha, beta, isotropic):
        # K over magnitudes 1e-100..1e100, as the frame path sees it
        K = _k_at(exp, seed, isotropic)
        if isotropic:
            z = complex(math.cos(alpha), math.sin(alpha)) * math.exp(beta / 2) / np.linalg.norm(K)
            elem = isotropic_stabilizer_element(z, K)
        else:
            elem = stabilizer_element(complex(alpha, beta), unit_delta(K)[1])
        assert elem.rotation.matrix.tobytes() == so3c_from_spinor(elem.spinor).matrix.tobytes()
        self.assert_same_as_checked(elem.spinor)

    @given(alpha=st.floats(0.0, 2 * np.pi), beta=high_rapidities, angles=angles4)
    def test_high_rapidity_images_match_oracles(self, alpha, beta, angles):
        # rapidity 16..30: no determinant sign is asserted here, because the
        # rounded L can have a negative exact determinant
        b = rotation_boost(alpha, beta, angles)
        L = lorentz4_from_spinor(b).matrix
        assert inf_norm(L - lorentz4_real_split(b)) <= 1e-12 * max(1.0, inf_norm(L))
        O = so3c_from_spinor(b).matrix
        assert inf_norm(O - so3c_oracle(b)) <= 1e-12 * max(1.0, inf_norm(O))
        e = _axis(*angles[2:])
        L = lorentz4_from_spinor(spinor_from_boost(beta, e)).matrix
        assert inf_norm(L - boost_closed_form(beta, e)) <= 1e-12 * max(1.0, inf_norm(L))

    @given(alpha=st.floats(0.0, 2 * np.pi), beta=rapidities, angles=angles4, frac=edge_fractions)
    def test_residuals_at_the_tolerance_edge(self, alpha, beta, angles, frac):
        # For b = s*b1 with b1 exact and eps = k0^2 - k.k - 1 = s^2 - 1:
        # O(b)^T O(b) - I = -s^2 eps (A + A^T) with A = O(b1) - I, and
        # |A + A^T| = 4 |(k1^x)^2| <= 4 ||k1||^2, so the orthogonality residual
        # is at most 4 |eps| scale; L(b) = s^4 L(b1) puts the metric residual
        # at |s^4 - 1| <= (2 + |eps|) |eps| <= 2 |eps| scale (1 + DEFAULT_TOL).
        # The margins cover rounding, below 1e-4 of the bounds at the edge.
        b = at_tolerance_edge(rotation_boost(alpha, beta, angles), frac)
        eps = abs(b.k0 * b.k0 - bilinear_dot(b.k, b.k) - 1.0)
        scale = max(1.0, abs(b.k0) ** 2 + hnorm(b.k) ** 2)
        O = so3c_from_spinor(b).matrix
        assert inf_norm(O.T @ O - EYE3) <= 4.5 * eps * scale
        L = lorentz4_from_spinor(b).matrix
        assert inf_norm(L.T @ ETA @ L - ETA) <= 2.5 * eps * scale


NAN, INF = float("nan"), float("inf")


def _filled(shape, value, where=(0, 0)):
    m = np.eye(shape)
    m[where] = value
    return m


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFinite:
    """A NaN or infinite residual fails every check: `not r <= bound`."""

    @pytest.mark.parametrize("k0, k", [
        (NAN, np.zeros(3)),
        (INF, np.zeros(3)),
        (1.0, np.array([0.0, INF, 0.0])),
        (1.0, np.array([0.0, 0.0, complex(0.0, NAN)])),
    ])
    def test_spinor_element(self, k0, k):
        with pytest.raises(ConstraintViolation, match="k0\\^2 - k.k"):
            SpinorElement(k0, k)

    @pytest.mark.parametrize("m", [np.full((3, 3), NAN), np.full((3, 3), INF), _filled(3, INF), _filled(3, NAN, (2, 1))])
    def test_complex_rotation(self, m):
        with pytest.raises(ConstraintViolation):
            ComplexRotation(m)

    @pytest.mark.parametrize("m", [np.full((4, 4), NAN), np.full((4, 4), INF), _filled(4, INF), _filled(4, NAN, (3, 3))])
    def test_lorentz4(self, m):
        with pytest.raises(ConstraintViolation):
            Lorentz4(m)

    @pytest.mark.parametrize("d", [[NAN, 0.0, 0.0], [INF, 0.0, 0.0], [1.0, 0.0, complex(0.0, INF)]])
    def test_unit_square(self, d):
        d = np.array(d, dtype=complex)
        with pytest.raises(NotUnitDelta, match="delta.delta"):
            _require_unit_square(d.tolist())

    @pytest.mark.parametrize("gamma", [NAN, complex(0.0, INF), complex(NAN, 1.0)])
    def test_stabilizer_element(self, gamma):
        with pytest.raises(ConstraintViolation, match="k0\\^2 - k.k"):
            stabilizer_element(gamma, [1.0, 0.0, 0.0])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("build", [
        lambda: stabilizer_element(complex(0.3, 712.0), [1.0, 0.0, 0.0]),
        lambda: ComplexRotation(1e160 * np.eye(3)),
        lambda: Lorentz4(1e160 * np.eye(4)),
    ], ids=["stabilizer_element", "complex_rotation", "lorentz4"])
    def test_overflowing_scale(self, build):
        # refused, not an OverflowError from a float power: the square of an
        # entry beyond ~1e154 is an infinite spinor bound, and the matrices'
        # recovered k0^2 - k.k is far from 1
        with pytest.raises(ConstraintViolation):
            build()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k0", [complex(1.7e308, -1e308), complex(1.3e154, 0.55e154)])
    def test_overflowing_modulus(self, k0):
        # |k0|, or |k0^2 - 1|, of a finite k0 overflows, where Python's abs
        # raised OverflowError; project_to_group refuses the infinite scale
        # before numpy divides by its root
        with pytest.raises(ConstraintViolation, match="k0\\^2 - k.k"):
            SpinorElement(k0, np.zeros(3))
        with pytest.raises(ConstraintViolation, match="is not finite"):
            project_to_group(k0, np.zeros(3))

    @pytest.mark.parametrize("build", [spinor_from_rotation, spinor_from_boost])
    def test_unit_axis(self, build):
        with pytest.raises(NonUnitAxis, match="axis norm"):
            build(0.3, [NAN, 0.0, 0.0])

    def test_reduce_to_real_target(self):
        delta = np.array([math.cosh(0.5), 1j * math.sinh(0.5), 0.0])
        with pytest.raises(ValueError, match="target must be a real unit vector"):
            reduce_to_real(delta, [NAN, 0.0, 0.0])

    def test_rotation_between(self):
        # the rotation between two real directions, reduce_to_real of a real
        # Delta: a NaN target fails its unit-length test, and an infinite
        # Delta the unit-square test
        with pytest.raises(ValueError, match="target must be a real unit vector"):
            reduce_to_real([1.0, 0.0, 0.0], [0.0, NAN, 0.0])
        with pytest.raises(NotUnitDelta, match="delta.delta = inf"):
            reduce_to_real([INF, 0.0, 0.0], [1.0, 0.0, 0.0])

    # A NaN imaginary part of a real-vector argument is refused, not dropped.
    @pytest.mark.parametrize("build", [
        lambda v: reduce_to_real([0.0, 1.0, 0.0], v),
        lambda v: reduce_to_real([1.0, 0.0, 0.0], v),
        lambda v: constitutive_real_forward(v, [0.0, 1.0, 0.0], [0.1, 0.0, 0.0]),
        lambda v: FieldState(v, [0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
    ], ids=["rotation_between_dst", "reduce_to_real_target", "constitutive_real_forward", "field_state"])
    def test_nan_imaginary_part(self, build):
        with pytest.raises(ValueError, match="expected a real 3-vector"):
            build([1.0, 0.0, complex(0.0, NAN)])

    @pytest.mark.parametrize("build", [spinor_from_rotation, spinor_from_boost])
    def test_nan_imaginary_axis(self, build):
        with pytest.raises(NonUnitAxis, match="expected a real 3-vector"):
            build(0.3, [0.0, 0.0, complex(1.0, NAN)])


# ---------------------------------------------------------------------------
# Trusted constructions: the stabilizer element O(gamma, Delta), both factors
# of the factorization, -b, b^-1 and the reducing rotation S are closed forms
# of an input that was checked, and are stored without being checked again.
# ---------------------------------------------------------------------------


def checked_constructions():
    """Build every trusted element and reducing rotation through the checked constructors.

    The images O(b) and L(b) stay trusted: TestTrustedImages covers them.
    """
    spinors, rotations = checking(SpinorElement), checking(ComplexRotation)
    return patched((group, "_trusted", spinors), (factorization, "_trusted", spinors), (stabilizer, "_trusted", rotations))


def _stored(x):
    """What a result stores, as exact bytes, with the types of the stored values."""
    if isinstance(x, SpinorElement):
        return type(x.k0), np.complex128(x.k0).tobytes(), x.k.dtype, x.k.shape, x.k.tobytes()
    if isinstance(x, np.ndarray):
        return x.dtype, x.shape, x.tobytes()
    if isinstance(x, ComplexRotation):
        return _stored(x.matrix)
    if isinstance(x, RotationBoostPair):
        return _stored(x.rotation), _stored(x.boost), x.order, x.sign
    if isinstance(x, StabilizerElement):
        return _stored(x.spinor), _stored(x.rotation)
    return tuple(_stored(v) for v in x)


def _spinors(x):
    """The SpinorElements a result holds."""
    if isinstance(x, SpinorElement):
        return [x]
    if isinstance(x, RotationBoostPair):
        return [x.rotation, x.boost]
    if isinstance(x, StabilizerElement):
        return [x.spinor]
    return []


def _outcome(build, *args):
    try:
        result = build(*args)
    except (NcframeError, ValueError, ArithmeticError) as exc:
        return (type(exc), str(exc)), None
    return ("ok", _stored(result)), result


EPS = np.finfo(float).eps
EX = np.array([1.0, 0.0, 0.0])


def assert_same_as_checked(build, *args):
    """The trusted result has the bytes the checked constructors store, where they accept.

    Where they refuse and the trusted path accepts, the refusal must be one
    of a spinor whose k0^2 - k.k - 1 overshoots the element's tolerance by
    rounding alone: a few units in the last place of its scale.  Returns
    True for such a refusal removed.
    """
    got, result = _outcome(build, *args)
    with checked_constructions():
        want, _ = _outcome(build, *args)
    if got == want:
        return False
    assert got[0] == "ok" and want[0] is ConstraintViolation and want[1].startswith("k0^2 - k.k")
    for b in _spinors(result):
        scale = max(1.0, abs(b.k0) ** 2 + hnorm(b.k) ** 2)
        assert abs(b.k0 * b.k0 - bilinear_dot(b.k, b.k) - 1.0) <= DEFAULT_TOL * scale + 8 * EPS * scale
    return True


def orthonormal_pair(angles):
    """Real orthonormal (N0, M0), from two angles for N0 and one for M0 about it."""
    n0 = _axis(*angles[:2])
    u = np.cross(n0, np.eye(3)[np.argmin(np.abs(n0))])
    u /= np.linalg.norm(u)
    return n0, math.cos(angles[2]) * u + math.sin(angles[2]) * np.cross(n0, u)


def unit_square_delta(rho, angles, frac):
    """cosh(rho) N0 + i sinh(rho) M0, rescaled so that Delta.Delta - 1 is frac
    of the unit-square tolerance."""
    n0, m0 = orthonormal_pair(angles)
    d = math.cosh(rho) * n0 + 1j * math.sinh(rho) * m0
    t = math.sqrt(1.0 + frac * DEFAULT_TOL * max(1.0, float(np.linalg.norm(d)) ** 2))
    return t * d


tolerance_fractions = st.one_of(edge_fractions, st.sampled_from([-1.0, 1.0, 0.0]))
# ||Delta|| = sqrt(cosh(2 rho)), up to about 1.4e4
direction_rapidities = st.floats(0.0, math.asinh(1e4))


class TestTrustedConstruction:
    @given(alpha=st.floats(0.0, 4 * np.pi), beta=st.floats(-30.0, 30.0), rho=direction_rapidities,
           angles=angles4, frac=tolerance_fractions)
    def test_stabilizer_element(self, alpha, beta, rho, angles, frac):
        delta = unit_square_delta(rho, angles, frac)
        gamma = complex(alpha, beta)
        assert_same_as_checked(stabilizer_element, gamma, delta)
        try:
            b = stabilizer_element(gamma, delta).spinor
        except NotUnitDelta:  # rounding can put the edge just outside
            return
        for build in (factor_rotation_boost, factor_boost_rotation, lambda b: -b, lambda b: b.inverse()):
            assert_same_as_checked(build, b)

    @given(alpha=st.floats(0.0, 4 * np.pi), beta=st.floats(-30.0, 30.0), angles=angles4, frac=tolerance_fractions)
    def test_factors_negation_and_inverse(self, alpha, beta, angles, frac):
        try:
            b = at_tolerance_edge(rotation_boost(alpha, beta, angles), frac)
        except ConstraintViolation:  # rounding can put the edge just outside
            return
        for source in (b, -b, b.inverse()):
            for build in (factor_rotation_boost, factor_boost_rotation):
                assert_same_as_checked(build, source)
        # negation and inversion leave k0^2 - k.k the same to the bit
        for build in (lambda b: -b, lambda b: b.inverse()):
            assert not assert_same_as_checked(build, b)

    @given(seed=st.integers(0, 2**32 - 1), exp=st.integers(-100, 100), order=st.sampled_from(list(FactorOrder)),
           z=st.complex_numbers(max_magnitude=1e3))
    def test_isotropic_factors(self, seed, exp, order, z):
        k = _k_at(exp, seed, True)
        for k0 in (1.0, -1.0):
            b = SpinorElement(k0, k0 * z / np.linalg.norm(k) * k)
            assert_same_as_checked(factor_isotropic, b, order)

    @given(rho=direction_rapidities, angles=angles4, frac=tolerance_fractions, target=angles4)
    def test_reduce_to_real(self, rho, angles, frac, target):
        delta = unit_square_delta(rho, angles, frac)
        assert not assert_same_as_checked(reduce_to_real, delta)
        assert not assert_same_as_checked(reduce_to_real, delta, _axis(*target[:2]))

    @given(dch=st.floats(-5e-11, 5e-11), sh=st.floats(1e-11, 1e-5), angles=angles4, target=angles4)
    def test_reduce_to_real_near_cosh_one(self, dch, sh, angles, target):
        # ||Re Delta|| on either side of 1 and a small Im Delta: the image
        # O(r b(i rho; u)) that stabilizer._trusted stores, r the turn from N0
        # to e, has the bytes of the checked ComplexRotation
        n0, m0 = orthonormal_pair(angles)
        delta = (1.0 + dch) * n0 + 1j * sh * m0
        assert not assert_same_as_checked(reduce_to_real, delta, _axis(*target[:2]))

    @given(exp=st.integers(-160, 100), seed=st.integers(0, 2**32 - 1), isotropic=st.booleans(),
           near=st.floats(1e-9, 1e-6))
    @example(exp=-157, seed=0, isotropic=False, near=1e-9)
    @example(exp=-160, seed=0, isotropic=False, near=1e-9)
    def test_canonical_frame(self, exp, seed, isotropic, near):
        # down to |K| ~ 1e-160, where K.K is subnormal; near-isotropic K gives ||Delta|| up to 3e4
        K = _k_at(exp, seed, isotropic)
        if isotropic:
            K = K + 10.0**exp * math.sqrt(near) * np.array([0.0, 0.0, 1.0])
        assert not assert_same_as_checked(canonical_frame, K)
        try:
            S, kcanon = canonical_frame(K)
        except NcframeError:
            return
        # where it returns, S carries K onto the frame it reports
        assert inf_norm(S.matrix @ K - kcanon) <= 1e-8 * max(1.0, inf_norm(S.matrix)) * np.abs(K).max()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("beta", [700.0, 712.0, 1000.0, 1419.0, 1421.0, 1500.0, INF, -INF, NAN])
    def test_stabilizer_element_overflow_falls_back(self, beta):
        # past |Im gamma| ~ 710 the element's scale overflows, past ~1420 cos
        # and sin do; the checked constructor decides there, as it always has
        assert not assert_same_as_checked(stabilizer_element, complex(0.3, beta), EX)
        if abs(beta) > 1420.0 or math.isnan(beta):
            with pytest.raises(ConstraintViolation, match="k0\\^2 - k.k = nan"):
                stabilizer_element(complex(0.3, beta), EX)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_factor_overflow_falls_back(self):
        # ||k||^2 overflows, so the element's own bound is infinite and it
        # passes; n0^2 + n.n overflows too, so r = inf and the boost is
        # refused by its own check, as it always was
        b = SpinorElement.from_real_split(1.1e154, 0.0, [1e154, 0.0, 0.0], [0.0, 1.2e154, 0.0])
        for build in (factor_rotation_boost, factor_boost_rotation):
            assert not assert_same_as_checked(build, b)
            with pytest.raises(ConstraintViolation, match="k0\\^2 - k.k = inf"):
                build(b)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("ch", [1e103, 1e120, 1e150])
    def test_reduce_to_real_at_huge_cosh(self, ch):
        # the trusted S is finite and orthogonal to rounding, relative to
        # ||S||^2; the ComplexRotation check refuses it, because the rounding
        # of the recovered k0^2 - k.k, ~eps ||S||, is far above 1/2
        delta = np.array([ch, 1j * math.sqrt(ch * ch - 1.0), 0.0])
        S = reduce_to_real(delta).matrix
        scaled = S / ch
        assert np.isfinite(S).all() and inf_norm(scaled.T @ scaled - EYE3 / ch**2) <= 1e-14
        with pytest.raises(ConstraintViolation, match=NOT_AN_IMAGE):
            ComplexRotation(S)


# ---------------------------------------------------------------------------
# group._trusted fills the instance __dict__ of a frozen dataclass in one
# update: what it stores must be what the public constructor stores.
# ---------------------------------------------------------------------------


def _state(obj):
    """The stored fields of a dataclass instance, in storage order: names,
    types, dtypes and raw bytes, a nested instance by its own state."""
    out = []
    for name, value in vars(obj).items():
        if dataclasses.is_dataclass(value):
            out.append((name, _state(value)))
        elif isinstance(value, np.ndarray):
            out.append((name, value.dtype, value.shape, value.tobytes()))
        elif isinstance(value, complex):
            out.append((name, complex, np.complex128(value).tobytes()))
        else:
            out.append((name, type(value), value))
    return tuple(out)


def _trusted_and_public():
    """(trusted result of the library, the same fields through the public constructor)."""
    b = rotation_boost(0.4, 1.3, (0.3, 1.1, 0.7, 2.0))
    delta = unit_delta(np.array([0.3 - 1.2j, 0.7 + 0.1j, -0.5 + 0.9j]))[1]
    element = stabilizer_element(complex(0.8, -0.6), delta)
    isotropic = isotropic_stabilizer_element(0.5 - 0.2j, np.array([1.0, 1j, 0.0]))
    pair = factor_rotation_boost(b)
    O, L = so3c_from_spinor(b), lorentz4_from_spinor(b)
    return [
        (-b, SpinorElement(-b.k0, -b.k)),
        (O, ComplexRotation(O.matrix)),
        (L, Lorentz4(L.matrix)),
        (element, StabilizerElement(family="non-isotropic", spinor=element.spinor, rotation=element.rotation,
                                    gamma=element.gamma, delta=element.delta)),
        (isotropic, StabilizerElement(family="isotropic", spinor=isotropic.spinor, rotation=isotropic.rotation,
                                      z=isotropic.z, k=isotropic.k)),
        (pair, RotationBoostPair(rotation=pair.rotation, boost=pair.boost, order=pair.order, sign=pair.sign)),
    ]


class TestTrustedStorage:
    @pytest.mark.parametrize("i", range(6), ids=["SpinorElement", "ComplexRotation", "Lorentz4",
                                                 "StabilizerElement", "StabilizerElement-isotropic",
                                                 "RotationBoostPair"])
    def test_stores_what_the_constructor_stores(self, i):
        trusted, public = _trusted_and_public()[i]
        cls = type(public)
        assert type(trusted) is cls
        assert list(vars(trusted)) == list(vars(public)) == [f.name for f in dataclasses.fields(cls)]
        assert _state(trusted) == _state(public)
        for name in vars(trusted):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(trusted, name, getattr(trusted, name))
        assert not any("__slots__" in vars(c) for c in cls.__mro__)
