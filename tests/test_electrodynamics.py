import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ncframe.electrodynamics import (
    DualFrame,
    _base,
    FieldState,
    UnitSystem,
    constitutive_forward,
    constitutive_inverse,
    constitutive_real_forward,
    constitutive_real_inverse,
    covariance_residual,
    dual_invariance_residual,
    dual_transform,
    gr_constraint_residual,
    gr_from_fields,
    maxwell_variable_check,
    quarter_turn,
    residual_scale,
)
from ncframe.errors import NonFiniteInput
from ncframe.group import (
    ComplexRotation,
    SpinorElement,
    so3c_from_spinor,
    spinor_compose,
    spinor_from_boost,
    spinor_from_rotation,
)
from ncframe.linalg import DEFAULT_TOL, hnorm
from ncframe.sampling import random_nonisotropic_K, random_spinor
from ncframe.stabilizer import stabilizer_element, unit_delta


def random_field(rng, scale=1.0):
    return scale * (rng.normal(size=3) + 1j * rng.normal(size=3))


class TestConstitutive:
    def test_vacuum(self, rng):
        f = random_field(rng)
        np.testing.assert_array_equal(constitutive_forward(f, np.zeros(3)), f)
        np.testing.assert_array_equal(constitutive_inverse(f, np.zeros(3)), f)

    def test_real_case_direct_evaluation(self, rng):
        # with f and K real the relation collapses to real arithmetic
        f = rng.normal(size=3)
        K = rng.normal(size=3) * 0.3
        expected = (1.0 + f @ K) * f + 0.5 * (f @ f) * K
        np.testing.assert_allclose(constitutive_forward(f + 0j, K + 0j), expected, atol=1e-14)

    def test_first_order_inversion(self, rng):
        f = random_field(rng)
        f /= hnorm(f)
        K = random_field(rng)
        K *= 1e-4 / hnorm(K)
        h = constitutive_forward(f, K)
        assert hnorm(constitutive_inverse(h, K) - f) < 1e-6

    def test_roundtrip_scales_quadratically(self, rng):
        f = random_field(rng)
        f /= hnorm(f)
        direction = random_field(rng)
        direction /= hnorm(direction)
        norms = np.array([1e-2, 1e-3, 1e-4, 1e-5])
        resid = [
            hnorm(constitutive_inverse(constitutive_forward(f, eps * direction), eps * direction) - f)
            for eps in norms
        ]
        slope = np.polyfit(np.log(norms), np.log(resid), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)


class TestRealForms:
    def test_vacuum_si(self):
        units = UnitSystem.si()
        E = np.array([1.0, -2.0, 0.5])
        B = np.array([3e-9, 1e-9, -2e-9])
        D, H = constitutive_real_forward(E, B, np.zeros(3), units)
        np.testing.assert_allclose(D, units.epsilon0 * E)
        np.testing.assert_allclose(H, units.epsilon0 * units.c**2 * B)
        E2, B2 = constitutive_real_inverse(D, H, np.zeros(3), units)
        np.testing.assert_allclose(E2, E)
        np.testing.assert_allclose(B2, B)

    def test_zero_electric_field_closed_form(self, rng):
        B = rng.normal(size=3)
        n = rng.normal(size=3) * 0.2
        K = n + 0j
        D, H = constitutive_real_forward(np.zeros(3), B, K)
        cB = B  # c = 1
        expected_d = (n @ cB) * cB - 0.5 * (cB @ cB) * n
        np.testing.assert_allclose(D, expected_d, atol=1e-14)

    def test_complex_route_consistency(self, rng):
        units = UnitSystem(c=2.0, epsilon0=3.0)
        for _ in range(100):
            E, B = rng.normal(size=3), rng.normal(size=3)
            K = random_field(rng, 0.5)
            D, H = constitutive_real_forward(E, B, K, units)
            f = E + 1j * units.c * B
            h_real_route = (D + 1j * H / units.c) / units.epsilon0
            h = constitutive_forward(f, K)
            scale = hnorm(f) * (1.0 + hnorm(K) * hnorm(f))
            assert hnorm(h_real_route - h) < 1e-12 * max(scale, 1.0)

    def test_inverse_complex_route_consistency(self, rng):
        units = UnitSystem(c=2.0, epsilon0=0.5)
        for _ in range(100):
            D, H = rng.normal(size=3), rng.normal(size=3)
            K = random_field(rng, 0.5)
            E, B = constitutive_real_inverse(D, H, K, units)
            h = (D + 1j * H / units.c) / units.epsilon0
            f_real_route = E + 1j * units.c * B
            f = constitutive_inverse(h, K)
            scale = hnorm(h) * (1.0 + hnorm(K) * hnorm(h))
            assert hnorm(f_real_route - f) < 1e-12 * max(scale, 1.0)

    def test_real_roundtrip_first_order(self, rng):
        E, B = rng.normal(size=3), rng.normal(size=3)
        K = random_field(rng)
        K *= 1e-4 / hnorm(K)
        D, H = constitutive_real_forward(E, B, K)
        E2, B2 = constitutive_real_inverse(D, H, K)
        assert hnorm(E2 - E) + hnorm(B2 - B) < 1e-6


class TestFieldState:
    def test_derived_fields(self):
        units = UnitSystem(c=2.0, epsilon0=4.0)
        state = FieldState(E=[1, 0, 0], B=[0, 1, 0], D=[4, 0, 0], H=[0, 16, 0], units=units)
        np.testing.assert_allclose(state.f, [1, 2j, 0])
        np.testing.assert_allclose(state.h, [1, 2j, 0])

    def test_from_eb_consistent(self, rng):
        K = random_field(rng, 0.3)
        state = FieldState.from_eb(rng.normal(size=3), rng.normal(size=3), K)
        np.testing.assert_allclose(state.h, constitutive_forward(state.f, K), atol=1e-13)


class TestCovariance:
    def test_identity_element(self, rng):
        from ncframe.group import SpinorElement

        f, K = random_field(rng), random_field(rng)
        assert covariance_residual(SpinorElement.identity(), f, K) == 0.0

    def test_random_elements(self, rng):
        for _ in range(200):
            b = random_spinor(rng)
            f, K = random_field(rng), random_field(rng)
            assert covariance_residual(b, f, K) < 1e-9

    def test_stabilizer_preserves_relations_with_same_K(self, rng):
        # for O in the stabilizer of K the primed relations carry the original K
        for _ in range(50):
            K = random_nonisotropic_K(rng)
            _, delta = unit_delta(K)
            gamma = complex(rng.uniform(0, 2 * np.pi), rng.uniform(-1.5, 1.5))
            el = stabilizer_element(gamma, delta)
            O = el.rotation.matrix
            f = random_field(rng)
            lhs = constitutive_forward(O @ f, K)
            rhs = O @ constitutive_forward(f, K)
            scale = hnorm(f) * (1.0 + hnorm(K) * hnorm(f))
            assert hnorm(lhs - rhs) < 1e-9 * max(scale, 1.0)


class TestDualSymmetry:
    def test_zero_angle_identity(self, rng):
        f, K = random_field(rng), random_field(rng)
        h = constitutive_forward(f, K)
        fp, hp, Kp = dual_transform(f, h, K, 0.0)
        np.testing.assert_array_equal(fp, f)
        np.testing.assert_array_equal(hp, h)
        np.testing.assert_array_equal(Kp, K)

    def test_half_turn_negates(self, rng):
        f, K = random_field(rng), random_field(rng)
        h = constitutive_forward(f, K)
        fp, hp, Kp = dual_transform(f, h, K, np.pi)
        np.testing.assert_allclose(fp, -f, atol=1e-15)
        np.testing.assert_allclose(hp, -h, atol=1e-15)
        np.testing.assert_allclose(Kp, -K, atol=1e-15)

    def test_quarter_turn_swaps(self, rng):
        f, K = random_field(rng), random_field(rng)
        h = constitutive_forward(f, K)
        fp, hp, Kp = dual_transform(f, h, K, np.pi / 2)
        np.testing.assert_allclose(hp, 1j * f, atol=1e-14)
        np.testing.assert_allclose(fp, 1j * h, atol=1e-14)
        np.testing.assert_allclose(Kp, 1j * K, atol=1e-14)

    def test_discrete_angles_invariant(self, rng):
        for _ in range(20):
            f = random_field(rng)
            K = random_field(rng, 0.3)
            for chi in (0.0, np.pi / 2, np.pi, 3 * np.pi / 2):
                assert dual_invariance_residual(f, K, chi) < 1e-10

    def test_generic_angle_breaks_invariance(self):
        f = np.array([1.0, 0, 0], dtype=complex)
        K = np.array([0.1, 0, 0], dtype=complex)
        assert dual_invariance_residual(f, K, np.pi / 4) > 1e-3

    def test_vacuum_fully_invariant(self, rng):
        f = random_field(rng)
        for chi in np.linspace(0, 2 * np.pi, 17):
            assert dual_invariance_residual(f, np.zeros(3), chi) < 1e-15

    def test_four_element_group_closure(self, rng):
        # the four surviving transforms compose as the cyclic group of order 4
        f, K = random_field(rng), random_field(rng)
        h = constitutive_forward(f, K)
        state = (f, h, K)
        quarter = lambda s: dual_transform(*s, np.pi / 2)  # noqa: E731
        out = quarter(quarter(quarter(quarter(state))))
        for got, want in zip(out, state):
            np.testing.assert_allclose(got, want, atol=1e-14)
        for j in range(4):
            for k in range(4):
                a = dual_transform(*state, j * np.pi / 2)
                ab = dual_transform(*a, k * np.pi / 2)
                direct = dual_transform(*state, ((j + k) % 4) * np.pi / 2)
                for got, want in zip(ab, direct):
                    np.testing.assert_allclose(got, want, atol=1e-13)


class TestDualFrame:
    def test_vacuum_has_zero_r(self, rng):
        f = random_field(rng)
        frame = gr_from_fields(f, f)
        np.testing.assert_array_equal(frame.R, np.zeros(3))
        np.testing.assert_array_equal(frame.G, f)

    def test_zero_f(self, rng):
        h = random_field(rng)
        frame = gr_from_fields(np.zeros(3), h)
        np.testing.assert_allclose(frame.G, h / 2)
        np.testing.assert_allclose(frame.R, np.conj(h) / 2)

    def test_roundtrip(self, rng):
        f, h = random_field(rng), random_field(rng)
        frame = gr_from_fields(f, h)
        f2, h2 = frame.fields()
        np.testing.assert_allclose(f2, f, rtol=0, atol=1e-14)
        np.testing.assert_allclose(h2, h, rtol=0, atol=1e-14)

    def test_constraints_vacuum(self):
        frame = gr_from_fields(np.array([1.0, 2.0, 0.5]) + 0j, np.array([1.0, 2.0, 0.5]) + 0j)
        r1, r2 = gr_constraint_residual(frame, np.zeros(3))
        assert r1 == 0.0 and r2 == 0.0

    def test_constraints_consistent_pair(self, rng):
        f = random_field(rng)
        f /= hnorm(f)
        K = random_field(rng)
        K *= 1e-4 / hnorm(K)
        frame = gr_from_fields(f, constitutive_forward(f, K))
        r1, r2 = gr_constraint_residual(frame, K)
        assert r1 < 1e-7 and r2 < 1e-7

    def test_constraints_inconsistent_frame(self, rng):
        frame = DualFrame(G=random_field(rng), R=random_field(rng))
        r1, r2 = gr_constraint_residual(frame, random_field(rng))
        assert max(r1, r2) > 0.1


class TestQuarterTurn:
    def test_negative_and_beyond_one_turn(self):
        assert quarter_turn(-np.pi / 2) == (-1, True)
        assert quarter_turn(5 * np.pi / 2) == (5, True)

    @pytest.mark.parametrize("steps", [4, 6, 8])
    def test_scan_angles(self, steps):
        for j in range(steps):
            q, on = quarter_turn(2.0 * np.pi * j / steps)
            assert q == round(4 * j / steps)
            assert on == (4 * j % steps == 0)

    def test_off_quarter(self):
        assert quarter_turn(np.pi / 4) == (0, False)
        assert quarter_turn(0.7) == (0, False)
        assert quarter_turn(np.pi / 2 + 1e-6) == (1, False)

    @pytest.mark.parametrize("chi", [np.nan, np.inf, -np.inf])
    def test_non_finite(self, chi):
        with pytest.raises(NonFiniteInput):
            quarter_turn(chi)

    def test_selects_the_relation(self, rng):
        # odd quarter turns exchange f and h, even ones keep the forward relation
        f, K = random_field(rng), random_field(rng, 0.3)
        for chi, swapped in ((-np.pi / 2, True), (5 * np.pi / 2, True), (-np.pi, False)):
            assert dual_invariance_residual(f, K, chi) < 1e-10
            assert dual_invariance_residual(f, K, chi, swapped=not swapped) > 1e-3


def plane_wave_sample(n=16, t=0.3, c=1.0, eps0=1.0):
    """Vacuum plane wave with exact dispersion on an n^3 periodic grid."""
    length = 2 * np.pi
    dx = length / n
    z = np.arange(n) * dx
    _, _, Z = np.meshgrid(z, z, z, indexing="ij")
    kz = 1.0
    omega = c * kz
    phase = kz * Z - omega * t
    cosw, sinw = np.cos(phase), np.sin(phase)
    zero = np.zeros_like(cosw)
    E = np.stack([cosw, zero, zero])
    cB = np.stack([zero, cosw, zero])
    dE = np.stack([omega * sinw, zero, zero])
    dcB = np.stack([zero, omega * sinw, zero])
    B, dB = cB / c, dcB / c
    D, dD = eps0 * E, eps0 * dE
    H, dH = c * eps0 * cB, c * eps0 * dcB
    return dict(E=E, B=B, D=D, H=H, dE_dt=dE, dB_dt=dB, dD_dt=dD, dH_dt=dH, spacing=dx)


class TestMaxwellVariableCheck:
    def test_plane_wave_residuals_at_truncation_level(self):
        report = maxwell_variable_check(units=UnitSystem(1.0, 1.0), **plane_wave_sample())
        for group in ("real", "complex", "gr"):
            for value in report[group].values():
                assert value < 0.05
        # the curl residuals are genuinely nonzero (2nd-order truncation)
        assert report["real"]["faraday"] > 1e-4
        assert report["real"]["ampere"] > 1e-4
        for key in ("real_vs_complex", "complex_vs_gr"):
            for value in report[key].values():
                assert value < 1e-12

    def test_zero_fields(self):
        zero = np.zeros((3, 8, 8, 8))
        report = maxwell_variable_check(zero, zero, zero, zero, zero, zero, zero, zero, 0.5)
        for group in ("real", "complex", "gr", "real_vs_complex", "complex_vs_gr"):
            assert all(v == 0.0 for v in report[group].values())

    def test_rewrites_exact_off_shell(self, rng):
        # random non-solution fields: large residuals, tiny rewrite discrepancies
        shape = (3, 8, 8, 8)
        fields = [rng.normal(size=shape) for _ in range(8)]
        report = maxwell_variable_check(*fields, 0.7, units=UnitSystem(2.0, 3.0))
        assert report["real"]["faraday"] > 0.1
        for key in ("real_vs_complex", "complex_vs_gr"):
            for value in report[key].values():
                assert value < 1e-12


# ---------------------------------------------------------------------------
# Bit identity with the plain formulas: np.conj of every starred vector,
# matmul dots, np.cos / np.sin / np.exp for the dual phase and
# np.linalg.norm for the norms.  The library evaluates the same
# floating-point operations through cheaper calls, so every output has the
# same bits, signed zeros included.
# ---------------------------------------------------------------------------

def _dot(u, v):
    return complex(u @ v)


def plain_forward(f, K):
    fc = np.conj(f)
    return (1.0 + _dot(fc, np.conj(K))) * f + 0.5 * _dot(fc, fc) * K


def plain_inverse(h, K):
    hc = np.conj(h)
    return (1.0 - _dot(hc, np.conj(K))) * h - 0.5 * _dot(hc, hc) * K


def plain_scale(f, K):
    s = np.linalg.norm(f) * (1.0 + np.linalg.norm(K) * np.linalg.norm(f))
    return s if s > 0.0 else 1.0


def plain_real_forward(E, B, K, units):
    cB = units.c * B
    n, m = K.real, K.imag
    s1 = n @ E - m @ cB
    s2 = m @ E + n @ cB
    ecb = E @ cB
    quad = 0.5 * (E @ E - cB @ cB)
    d = E + s1 * E + s2 * cB + ecb * m + quad * n
    g = cB + s1 * cB - s2 * E - ecb * n + quad * m
    return units.epsilon0 * d, units.c * units.epsilon0 * g


def plain_real_inverse(D, H, K, units):
    d = D / units.epsilon0
    g = H / (units.c * units.epsilon0)
    n, m = K.real, K.imag
    s1 = m @ g - n @ d
    s2 = m @ d + n @ g
    dg = d @ g
    quad = 0.5 * (g @ g - d @ d)
    E = d + s1 * d - s2 * g - dg * m + quad * n
    cB = g + s1 * g + s2 * d + dg * n + quad * m
    return E, cB / units.c


def plain_dual(f, h, K, chi):
    c, s = np.cos(chi), np.sin(chi)
    return 1j * s * h + c * f, c * h + 1j * s * f, np.exp(1j * chi) * K


def plain_dual_residual(f, K, chi):
    """The closed form: the residual vector as alpha f + beta h + gamma K."""
    fhK = np.stack((f, plain_forward(f, K), K))
    g = fhK @ fhK.T
    c, s = np.cos(chi), np.sin(chi)
    e, i_s = np.exp(1j * chi), 1j * s
    if int(round(chi / (np.pi / 2))) % 2 == 1:
        u = 1.0 - np.conj(e * (c * g[1, 2] + i_s * g[0, 2]))
        w = 0.5 * np.conj(c * c * g[1, 1] + 2j * c * s * g[0, 1] - s * s * g[0, 0]) * e
        coef = np.array([c - u * i_s, i_s - u * c, w])
    else:
        u = 1.0 + np.conj(e * (c * g[0, 2] + i_s * g[1, 2]))
        w = -0.5 * np.conj(c * c * g[0, 0] + 2j * c * s * g[0, 1] - s * s * g[1, 1]) * e
        coef = np.array([i_s - u * c, c - u * i_s, w])
    return np.linalg.norm(coef @ fhK) / plain_scale(f, K)


def expanded_dual_residual(f, K, chi):
    """The definition: rotate (f, h, K) by chi, then apply the relation."""
    fp, hp, Kp = plain_dual(f, plain_forward(f, K), K, chi)
    if int(round(chi / (np.pi / 2))) % 2 == 1:
        r = fp - plain_inverse(hp, Kp)
    else:
        r = hp - plain_forward(fp, Kp)
    return np.linalg.norm(r) / plain_scale(f, K)


def plain_covariance_residual(b, f, K):
    O = so3c_from_spinor(b).matrix
    r = plain_forward(O @ f, O @ K) - O @ plain_forward(f, K)
    return np.linalg.norm(r) / plain_scale(f, K)


def plain_gr_constraints(G, R, K):
    Gc, Rc, Kc = np.conj(G), np.conj(R), np.conj(K)
    a, b, s = _dot(Gc, Kc), _dot(R, Kc), _dot(Gc, R)
    r1 = 2.0 * s * K + a * Rc + b * G
    r2 = a * G + b * Rc + 0.5 * (_dot(Gc, Gc) + _dot(R, R)) * K - 2.0 * Rc
    return np.linalg.norm(r1), np.linalg.norm(r2)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), f"{got!r} != {want!r}"


def cvec(exp):
    """Complex 3-vectors with parts m * 10**(exp + d), m in [-1, 1], d in [-3, 3].

    The mantissas are either hypothesis floats, which favour exact values
    such as 0, 0.5 and 1, or seeded uniform draws, whose full 53-bit
    mantissas make every rounding step show in the result.
    """
    uniform = st.integers(0, 2**32 - 1).map(lambda seed: np.random.default_rng(seed).uniform(-1.0, 1.0, 6))
    simple = st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=6, max_size=6).map(np.array)
    spread = st.lists(st.integers(-3, 3), min_size=6, max_size=6).map(np.array)
    return st.tuples(st.one_of(uniform, simple), spread).map(
        lambda t: 10.0**exp * (t[0] * 10.0 ** t[1]).view(complex)
    )


# Fields at 10**e and K at 10**-e, with e sweeping magnitudes 1e-100..1e100:
# ||K|| ||f|| stays within a few decades of 1, so every term of the relations
# reaches the last bit of the result and nothing overflows.
exponents = st.integers(-97, 97)
field_and_K = exponents.flatmap(lambda e: st.tuples(cvec(e), cvec(-e)))
pair_and_K = exponents.flatmap(lambda e: st.tuples(cvec(e), cvec(e), cvec(-e)))
# the multiples of pi/4 (quarter turns and the midpoints between them) and
# uniform angles, over two turns either way
angles = st.one_of(
    st.integers(-16, 16).map(lambda j: j * np.pi / 4),
    st.floats(min_value=-4 * np.pi, max_value=4 * np.pi),
)
unit_systems = st.sampled_from([UnitSystem.natural(), UnitSystem.si(), UnitSystem(c=2.0, epsilon0=3.0)])
spinors = st.integers(0, 2**32 - 1).map(lambda seed: random_spinor(np.random.default_rng(seed)))


def rotation_boost_at(seed, beta, frac):
    """A seeded rotation after a boost of rapidity beta, rescaled to the tolerance edge.

    The rescaling makes k0^2 - k.k - 1 frac of SpinorElement's tolerance
    (capped at 1/2 in absolute terms); frac = 0 keeps the element's bits.
    """
    rng = np.random.default_rng(seed)
    e1, e2 = rng.normal(size=(2, 3))
    b = spinor_compose(spinor_from_rotation(rng.uniform(0.0, 2 * np.pi), e1 / np.linalg.norm(e1)),
                       spinor_from_boost(beta, e2 / np.linalg.norm(e2)))
    scale = max(1.0, abs(b.k0) ** 2 + hnorm(b.k) ** 2)
    s = math.sqrt(1.0 / (1.0 - frac * min(DEFAULT_TOL * scale, 0.5)))
    return SpinorElement(s * b.k0, s * b.k)


edge_fractions = st.one_of(
    st.just(0.0), st.tuples(st.floats(0.1, 0.9), st.sampled_from([-1.0, 1.0])).map(lambda t: t[0] * t[1])
)


def parts(re, im):
    """Complex array with the exact parts given, signed zeros included."""
    out = np.empty(len(re), dtype=complex)
    out.real, out.imag = re, im
    return out


# an exactly zero imaginary part of f.f that the conjugated form gives as +0.0
SIGNED_ZERO_F = parts([0.0, 0.0, -0.0], [0.0, 0.5, -0.0])
SIGNED_ZERO_K = parts([0.5, 0.0, 2.0], [0.5, 0.0, 0.0])


class TestBitIdentity:
    @given(fK=field_and_K)
    @example(fK=(SIGNED_ZERO_F, SIGNED_ZERO_K))
    def test_constitutive(self, fK):
        f, K = fK
        assert_same_bits(constitutive_forward(f, K), plain_forward(f, K))
        assert_same_bits(constitutive_inverse(f, K), plain_inverse(f, K))

    @given(fhK=pair_and_K, units=unit_systems)
    def test_constitutive_real(self, fhK, units):
        E, B, K = fhK[0].real, fhK[1].real, fhK[2]
        pairs = (
            (constitutive_real_forward(E, B, K, units), plain_real_forward(E, B, K, units)),
            (constitutive_real_inverse(E, B, K, units), plain_real_inverse(E, B, K, units)),
        )
        for got, want in pairs:
            assert_same_bits(got[0], want[0])
            assert_same_bits(got[1], want[1])

    @given(b=spinors, fK=field_and_K)
    def test_covariance_residual(self, b, fK):
        f, K = fK
        O = so3c_from_spinor(b).matrix
        r = plain_forward(O @ f, O @ K) - O @ plain_forward(f, K)
        assert_same_bits(covariance_residual(b, f, K), np.linalg.norm(r) / plain_scale(f, K))
        assert_same_bits(residual_scale(f, K), plain_scale(f, K))

    @given(seed=st.integers(0, 2**32 - 1), beta=st.floats(-30.0, 30.0), frac=edge_fractions, fK=field_and_K)
    def test_covariance_residual_up_to_rapidity_30(self, seed, beta, frac, fK):
        # O(b) is not checked again, so an element at the edge of the
        # SpinorElement tolerance, whose O the ComplexRotation check refused,
        # gets the plain formula's residual like every other element
        b = rotation_boost_at(seed, beta, frac)
        f, K = fK
        O = so3c_from_spinor(b).matrix
        r = plain_forward(O @ f, O @ K) - O @ plain_forward(f, K)
        assert_same_bits(covariance_residual(b, f, K), np.linalg.norm(r) / plain_scale(f, K))
        if frac == 0.0:
            # an exact element's image passes the public check unchanged
            assert_same_bits(ComplexRotation(O).matrix, O)

    @given(fhK=pair_and_K, chi=angles)
    @example(fhK=(SIGNED_ZERO_F, SIGNED_ZERO_F, parts([-0.0] * 3, [0.0] * 3)), chi=-0.0)
    def test_dual_transform(self, fhK, chi):
        f, h, K = fhK
        for got, want in zip(dual_transform(f, h, K, chi), plain_dual(f, h, K, chi)):
            assert_same_bits(got, want)

    @given(fK=field_and_K, chi=angles)
    def test_dual_invariance_residual(self, fK, chi):
        f, K = fK
        assert_same_bits(dual_invariance_residual(f, K, chi), plain_dual_residual(f, K, chi))

    @given(fhK=pair_and_K)
    def test_gr_constraint_residual(self, fhK):
        f, h, K = fhK
        frame = gr_from_fields(f, h)
        assert_same_bits(frame.G, (h + f) / 2.0)
        assert_same_bits(frame.R, np.conj(h - f) / 2.0)
        assert isinstance(frame, DualFrame)
        for got, want in zip(gr_constraint_residual(frame, K), plain_gr_constraints(frame.G, frame.R, K)):
            assert_same_bits(got, want)


class TestDualClosedForm:
    @given(fK=field_and_K, chi=angles)
    def test_matches_the_expanded_definition(self, fK, chi):
        # the closed form is exact in exact arithmetic, so the two evaluations
        # differ by rounding, relative to the size of the K terms
        f, K = fK
        got, want = dual_invariance_residual(f, K, chi), expanded_dual_residual(f, K, chi)
        assert math.isfinite(got) == math.isfinite(want)
        if math.isfinite(want):
            coupling = np.linalg.norm(K) * np.linalg.norm(f)
            assert abs(got - want) <= 1e-14 * max(1.0, coupling) ** 2


# ---------------------------------------------------------------------------
# The (f, K) memo behind covariance_residual and dual_invariance_residual:
# whatever the order of calls, every result equals the plain formulas.
# ---------------------------------------------------------------------------

QUARTER_MULTIPLES = [j * np.pi / 4 for j in range(8)]


def assert_plain_dual(f, K, chi):
    assert_same_bits(dual_invariance_residual(f, K, chi), plain_dual_residual(f, K, chi))


class TestMemo:
    def test_repeated_scan_on_one_state(self, rng):
        f, K = random_field(rng), random_field(rng, 0.3)
        for _ in range(2):
            for chi in QUARTER_MULTIPLES:
                assert_plain_dual(f, K, chi)

    @pytest.mark.parametrize("shared", ["f", "K", "none"])
    def test_interleaved_states(self, rng, shared):
        fA, KA = random_field(rng), random_field(rng, 0.3)
        fB, KB = random_field(rng), random_field(rng, 0.3)
        if shared == "f":
            fB = fA.copy()
        elif shared == "K":
            KB = KA.copy()
        for _ in range(2):
            for f, K in ((fA, KA), (fB, KB)):
                for chi in (np.pi / 4, np.pi / 2):
                    assert_plain_dual(f, K, chi)

    def test_inputs_differing_in_the_sign_of_a_zero(self):
        K = parts([0.5, -0.0, 2.0], [0.5, -0.0, 0.0])
        f1 = parts([1.0, 0.0, 0.0], [0.5, -0.0, 0.0])
        f2 = parts([1.0, -0.0, 0.0], [0.5, -0.0, 0.0])
        # the two forward images differ in the sign of a zero
        assert plain_forward(f1, K).tobytes() != plain_forward(f2, K).tobytes()
        for f in (f1, f2, f1):
            _, h, scale, _ = _base(f, K)
            assert_same_bits(h, plain_forward(f, K))
            assert_same_bits(scale, plain_scale(f, K))
            assert_plain_dual(f, K, np.pi / 4)

    def test_input_mutated_in_place(self, rng):
        f, K = random_field(rng), random_field(rng, 0.3)
        assert_plain_dual(f, K, np.pi / 4)
        f[1] *= 2.0
        assert_plain_dual(f, K, np.pi / 4)
        K[2] = 0.0
        assert_plain_dual(f, K, np.pi / 4)

    def test_forward_result_is_the_callers_own(self, rng):
        f, K = random_field(rng), random_field(rng, 0.3)
        assert_plain_dual(f, K, 0.0)
        h = constitutive_forward(f, K)
        h[:] = 0.0
        assert_plain_dual(f, K, np.pi / 4)

    def test_covariance_and_dual_in_either_order(self, rng):
        b = random_spinor(rng)
        f, K = random_field(rng), random_field(rng, 0.3)
        assert_plain_dual(f, K, np.pi / 4)
        assert_same_bits(covariance_residual(b, f, K), plain_covariance_residual(b, f, K))
        g, L = random_field(rng), random_field(rng, 0.3)
        assert_same_bits(covariance_residual(b, g, L), plain_covariance_residual(b, g, L))
        assert_plain_dual(g, L, np.pi / 4)

    def test_covariance_then_dual_on_one_state(self, rng):
        # covariance leaves the gram unbuilt; the first dual call builds it
        b = random_spinor(rng)
        f, K = random_field(rng), random_field(rng, 0.3)
        assert_same_bits(covariance_residual(b, f, K), plain_covariance_residual(b, f, K))
        assert _base(f, K)[3] is None
        for chi in QUARTER_MULTIPLES:
            assert_plain_dual(f, K, chi)
        assert _base(f, K)[3] is not None
        assert_same_bits(covariance_residual(b, f, K), plain_covariance_residual(b, f, K))

    def test_dual_then_covariance_on_one_state(self, rng):
        # covariance reads the entry the dual scan filled and keeps its gram
        b = random_spinor(rng)
        f, K = random_field(rng), random_field(rng, 0.3)
        assert_plain_dual(f, K, np.pi / 4)
        gram = _base(f, K)[3]
        assert_same_bits(covariance_residual(b, f, K), plain_covariance_residual(b, f, K))
        assert _base(f, K)[3] is gram
        assert_plain_dual(f, K, np.pi / 2)

    def test_dual_fills_the_gram_and_keeps_the_base(self, rng):
        f, K = random_field(rng), random_field(rng, 0.3)
        key, h, scale, gram = _base(f, K)
        assert gram is None
        assert_plain_dual(f, K, np.pi / 4)
        key2, h2, scale2, (fhK, dots) = _base(f, K)
        assert key2 == key and h2 is h
        assert_same_bits(h2, plain_forward(f, K))
        assert_same_bits(scale2, plain_scale(f, K))
        assert_same_bits(fhK, np.stack((f, h, K)))
        assert_same_bits(np.array(dots), fhK @ fhK.T)

    def test_concurrent_threads_match_serial(self, rng):
        states = [(random_field(rng), random_field(rng, 0.3), random_spinor(rng)) for _ in range(8)]

        def evaluate(f, K, b):
            dual = [dual_invariance_residual(f, K, chi) for chi in QUARTER_MULTIPLES]
            return np.array(dual + [covariance_residual(b, f, K)])

        serial = [evaluate(*state) for state in states]
        for (f, K, b), want in zip(states, serial):
            plain = [plain_dual_residual(f, K, chi) for chi in QUARTER_MULTIPLES]
            assert_same_bits(want, np.array(plain + [plain_covariance_residual(b, f, K)]))
        results = [[] for _ in states]

        def work(i):
            for _ in range(100):
                results[i].append(evaluate(*states[i]))

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(states))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for want, got in zip(serial, results):
            assert len(got) == 100
            for row in got:
                assert_same_bits(row, want)
