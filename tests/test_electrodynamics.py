import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from ncframe.electrodynamics import (
    DUAL_TOL,
    QUARTER_TOL,
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
from ncframe import electrodynamics
from ncframe._kernels import _ldexp, _state, _turn
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

    @pytest.mark.parametrize("q", range(4))
    def test_quarter_turns_at_every_coupling(self, rng, q):
        # a quarter turn takes the exact cos and sin of q pi/2; math.cos(pi/2)
        # = 6.1e-17 left a residual of about 7.6e-17 ||K|| ||f||
        chi = q * (np.pi / 2)
        f0 = np.array([1.0, 0.2, 0.0]) + 1j * np.array([0.0, 0.3, 0.1])
        pairs = [(f0, np.array([1.0, 0.0, 0.0], dtype=complex))]
        pairs += [(random_field(rng), random_field(rng)) for _ in range(4)]
        for p in range(-6, 13):
            for f, K in pairs:
                K = 10.0**p / (hnorm(f) * hnorm(K)) * K
                assert dual_invariance_residual(f, K, chi) <= DUAL_TOL
                assert dual_invariance_residual(1e-150 * f, 1e150 * K, chi) <= DUAL_TOL

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

    def test_huge_angles_lie_on_no_quarter_turn(self):
        # chi / (pi/2) is rounded by up to |chi / (pi/2)| 2**-52 quarter
        # turns; from chi of about 7e6 on that exceeds QUARTER_TOL, and past
        # 2**53 quarter turns every quotient is an integer float
        assert quarter_turn(1e17)[1] is False
        assert quarter_turn(-1e17)[1] is False
        assert quarter_turn(1e8 * np.pi / 2)[1] is False
        # small multiples still snap
        for q in (-1000, 7, 1000, 10**6):
            assert quarter_turn(q * (np.pi / 2)) == (q, True)

    # the 7e6 boundary is QUARTER_TOL 2**52 quarter turns
    EDGE_QUARTERS = (0, 1, -1, 3, 5, -7, 4503599, 4503600, 4503601, -4503600, 10**8, 10**17)

    @pytest.mark.parametrize("q", EDGE_QUARTERS)
    @pytest.mark.parametrize("offset", [0.0, 0.5e-9, 2e-9, 0.25, 0.5])
    def test_quarter_turn_is_the_turn(self, q, offset):
        # one quarter-turn test: quarter_turn gives the first two values of
        # _turn, and _turn's cos and sin are exact on a quarter turn
        for sign in (1.0, -1.0):
            chi = sign * (q + offset) * (np.pi / 2)
            turn = _turn(chi)
            assert quarter_turn(chi) == turn[:2]
            assert type(turn[0]) is int and type(turn[1]) is bool
            if turn[1]:
                assert turn[2:] == QUARTER_COS_SIN[turn[0] % 4]
            else:
                assert turn[2:] == (math.cos(chi), math.sin(chi))
        assert quarter_turn(1e17) == _turn(1e17)[:2] and quarter_turn(1e17)[1] is False

    @pytest.mark.parametrize("chi", [np.nan, np.inf, -np.inf])
    def test_every_entry_refuses_a_non_finite_angle(self, rng, chi):
        f, K = random_field(rng), random_field(rng, 0.3)
        for call in (lambda: quarter_turn(chi), lambda: _turn(chi), lambda: dual_transform(f, f, K, chi),
                     lambda: dual_invariance_residual(f, K, chi)):
            with pytest.raises(NonFiniteInput):
                call()

    def test_selects_the_relation(self, rng):
        # odd quarter turns exchange f and h, even ones keep the forward
        # relation; the other relation, from its definition, fails there
        f, K = random_field(rng), random_field(rng, 0.3)
        for chi, swapped in ((-np.pi / 2, True), (5 * np.pi / 2, True), (-np.pi, False)):
            assert dual_invariance_residual(f, K, chi) < 1e-10
            fp, hp, Kp = dual_transform(f, constitutive_forward(f, K), K, chi)
            other = hp - constitutive_forward(fp, Kp) if swapped else fp - constitutive_inverse(hp, Kp)
            assert hnorm(other) / residual_scale(f, K) > 1e-3


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

    @pytest.mark.parametrize("spacing", [math.inf, math.nan, -1.0, [0.5, math.inf, 0.5]])
    def test_refuses_a_spacing_not_finite_and_positive(self, rng, spacing):
        # an infinite spacing read both divergences as 0.0, a vacuous pass; NaN read NaN
        grids = rng.normal(size=(8, 3, 4, 4, 4))
        with pytest.raises(ValueError, match="spacing"):
            maxwell_variable_check(*grids, spacing)

    @pytest.mark.parametrize("bad", [(3, 4, 4, 1), (2, 4, 4, 4), (3, 4, 4), (3, 4, 4, 4, 1)])
    def test_refuses_grids_of_different_shapes(self, rng, bad):
        # numpy broadcast an E of shape (3, 4, 4, 1) against the other seven,
        # and the residuals came out finite (div_b 2.91) without an error
        for j in range(8):
            grids = list(rng.normal(size=(8, 3, 4, 4, 4)))
            grids[j] = rng.normal(size=bad)
            with pytest.raises(ValueError, match="shape"):
                maxwell_variable_check(*grids, 0.5)

    def test_refuses_a_complex_grid(self, rng):
        # the grids were cast with dtype=float, so an imaginary part was
        # dropped with only a ComplexWarning (faraday 29.46 on this sample)
        for j in range(8):
            grids = list(rng.normal(size=(8, 3, 4, 4, 4)))
            grids[j] = grids[j] + 1j * rng.normal(size=(3, 4, 4, 4))
            with pytest.raises(ValueError, match="real"):
                maxwell_variable_check(*grids, 0.5)

    def test_a_zero_imaginary_part_keeps_the_bits(self, rng):
        grids = list(rng.normal(size=(8, 3, 4, 4, 4)))
        want = maxwell_variable_check(*grids, 0.5, units=UnitSystem(2.0, 3.0))
        for j in range(8):
            got = maxwell_variable_check(*grids[:j], grids[j] + 0j, *grids[j + 1:], 0.5, units=UnitSystem(2.0, 3.0))
            for group, values in want.items():
                for name, value in values.items():
                    assert_same_bits(got[group][name], value)


# ---------------------------------------------------------------------------
# Bit identity with the plain formulas: np.conj of every starred vector, dots
# summed left to right over Python complex numbers, math.hypot of the six
# parts for every norm, and np.cos / np.sin / np.exp for the dual phase.  The
# library evaluates the same floating-point operations on 3-lists, so every
# output has the same bits, signed zeros included.
# ---------------------------------------------------------------------------

def _dot(u, v):
    """u.v of two 3-vectors (arrays or lists), summed left to right."""
    u, v = np.asarray(u).tolist(), np.asarray(v).tolist()
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def plain_norm(v):
    return math.hypot(*np.ascontiguousarray(v, dtype=complex).view(float).tolist())


def plain_apply(O, v):
    return np.array([_dot(row, v) for row in O])


def plain_forward(f, K):
    fc = np.conj(f)
    a, q = _dot(fc, np.conj(K)), _dot(fc, fc)
    return np.array([(1.0 + a) * x + 0.5 * q * k for x, k in zip(f.tolist(), K.tolist())])


def plain_inverse(h, K):
    hc = np.conj(h)
    a, q = _dot(hc, np.conj(K)), _dot(hc, hc)
    return np.array([(1.0 - a) * x - 0.5 * q * k for x, k in zip(h.tolist(), K.tolist())])


def plain_scale(f, K):
    s = plain_norm(f) * (1.0 + plain_norm(K) * plain_norm(f))
    return s if s > 0.0 else 1.0


def plain_real_forward(E, B, K, units):
    c, eps0 = units.c, units.epsilon0
    E, cB = E.tolist(), [c * x for x in B.tolist()]
    n, m = K.real.tolist(), K.imag.tolist()
    s1 = _dot(n, E) - _dot(m, cB)
    s2 = _dot(m, E) + _dot(n, cB)
    ecb = _dot(E, cB)
    quad = 0.5 * (_dot(E, E) - _dot(cB, cB))
    d = [e + s1 * e + s2 * b + ecb * y + quad * x for e, b, x, y in zip(E, cB, n, m)]
    g = [b + s1 * b - s2 * e - ecb * x + quad * y for e, b, x, y in zip(E, cB, n, m)]
    return np.array([eps0 * x for x in d]), np.array([c * eps0 * x for x in g])


def plain_real_inverse(D, H, K, units):
    c, eps0 = units.c, units.epsilon0
    d, g = [x / eps0 for x in D.tolist()], [x / (c * eps0) for x in H.tolist()]
    n, m = K.real.tolist(), K.imag.tolist()
    s1 = _dot(m, g) - _dot(n, d)
    s2 = _dot(m, d) + _dot(n, g)
    dg = _dot(d, g)
    quad = 0.5 * (_dot(g, g) - _dot(d, d))
    E = [a + s1 * a - s2 * b - dg * y + quad * x for a, b, x, y in zip(d, g, n, m)]
    cB = [b + s1 * b + s2 * a + dg * x + quad * y for a, b, x, y in zip(d, g, n, m)]
    return np.array(E), np.array([x / c for x in cB])


# (cos, sin) of the quarter turns q pi/2, q = 0, 1, 2, 3 modulo 4, exactly
QUARTER_COS_SIN = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))


def plain_turn(chi):
    """(cos, sin, exp(i chi)): exact at a quarter turn within QUARTER_TOL."""
    q = round(chi / (np.pi / 2))
    if abs(chi / (np.pi / 2) - q) < QUARTER_TOL:
        c, s = QUARTER_COS_SIN[q % 4]
        return c, s, complex(c, s)
    return np.cos(chi), np.sin(chi), np.exp(1j * chi)


def plain_dual(f, h, K, chi):
    c, s, e = plain_turn(chi)
    return 1j * s * h + c * f, c * h + 1j * s * f, e * K


def plain_dual_residual(f, K, chi):
    """The closed form: the residual vector as alpha f + beta h + gamma K."""
    h = plain_forward(f, K)
    ff, fh, fK, hh, hK = _dot(f, f), _dot(f, h), _dot(f, K), _dot(h, h), _dot(h, K)
    c, s, e = plain_turn(chi)
    i_s = 1j * s
    if int(round(chi / (np.pi / 2))) % 2 == 1:
        u = 1.0 - np.conj(e * (c * hK + i_s * fK))
        w = 0.5 * np.conj(c * c * hh + 2j * c * s * fh - s * s * ff) * e
        alpha, beta, gamma = c - u * i_s, i_s - u * c, w
    else:
        u = 1.0 + np.conj(e * (c * fK + i_s * hK))
        w = -0.5 * np.conj(c * c * ff + 2j * c * s * fh - s * s * hh) * e
        alpha, beta, gamma = i_s - u * c, c - u * i_s, w
    r = [alpha * x + beta * y + gamma * z for x, y, z in zip(f.tolist(), h.tolist(), K.tolist())]
    return plain_norm(np.array(r)) / plain_scale(f, K)


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
    r = plain_forward(plain_apply(O, f), plain_apply(O, K)) - plain_apply(O, plain_forward(f, K))
    return plain_norm(r) / plain_scale(f, K)


def plain_gr_constraints(G, R, K):
    Gc, Rc, Kc = np.conj(G), np.conj(R), np.conj(K)
    a, b, s = _dot(Gc, Kc), _dot(R, Kc), _dot(Gc, R)
    w = 0.5 * (_dot(Gc, Gc) + _dot(R, R))
    terms = list(zip(G.tolist(), Rc.tolist(), K.tolist()))
    r1 = [2.0 * s * k + a * rc + b * g for g, rc, k in terms]
    r2 = [a * g + b * rc + w * k - 2.0 * rc for g, rc, k in terms]
    return plain_norm(r1), plain_norm(r2)


def unscaled(f, K):
    """Whether the residuals run on (f, K) as given: ||f|| and the residual
    scale inside [2**-450, 2**450], where the library does not rescale."""
    return 2.0**-450 <= plain_norm(f) and plain_scale(f, K) <= 2.0**450


def plain_map(plain, x, K):
    """plain(x, K) where the maps run on (x, K) as given; elsewhere their
    definition 2**e plain(2**-e x, 2**e K), e the frexp exponent of the
    largest part of x.  Evaluated as given, a part of x.x that underflows
    can flip the sign of a zero in the result."""
    if unscaled(x, K):
        return plain(x, K)
    e = math.frexp(np.abs(x.view(float)).max())[1]
    with np.errstate(over="ignore"):
        return ldexp(plain(ldexp(x, -e), ldexp(K, e)), e)


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


# an exactly zero imaginary part of f*.f*, which is -0.0 when summed left to
# right over the conjugated parts
SIGNED_ZERO_F = parts([0.0, 0.0, -0.0], [0.0, 0.5, -0.0])
SIGNED_ZERO_K = parts([0.5, 0.0, 2.0], [0.5, 0.0, 0.0])
# zeros of both signs that sum to +0.0 in the imaginary part of f*.f*, where
# conj(f.f) would give -0.0, and the sign reaches h
MIXED_ZERO_F = parts([-0.0, -0.0, 0.0], [-1.0, 1.0, 0.0])
MIXED_ZERO_K = parts([0.0, 0.0, 0.5], [-0.0, -1.0, 0.5])
# h + f with real parts -0.0, which (h + f) / 2 would turn into +0.0
NEGATIVE_ZERO_SUM = (parts([-0.0] * 3, [1.0, 0.5, 0.0]), parts([-0.0] * 3, [0.0] * 3), SIGNED_ZERO_K)

# ||f|| below the window: f*.f* = -1.2e-451 underflows to +0.0 when evaluated
# as given, while h_0 = (f*.f*)/2 K_0 is negative, the -0.0 that the rescaled
# maps give
TINY_F_STATE = (parts([0.0] * 3, [0.0, 0.0, 3.5e-226]), np.array([0.27 - 0.46j, -0.92 - 0.97j, 0.63 + 0.83j]))

# ||f|| = 4.8e-155 is below the window, so the real routes rescale it, where
# their plain copies do not: each gives its own last bits
RESCALED_REAL_STATE = (
    np.zeros(3, dtype=complex),
    np.array([0.0, 4.80223544e-155, 0.0], dtype=complex),
    np.array([2.74e39 - 4.60e39j, -9.18e39 - 9.67e39j, 6.27e39 + 8.26e39j]),
)


class TestBitIdentity:
    @given(fK=field_and_K)
    @example(fK=(SIGNED_ZERO_F, SIGNED_ZERO_K))
    @example(fK=(MIXED_ZERO_F, MIXED_ZERO_K))
    @example(fK=TINY_F_STATE)
    def test_constitutive(self, fK):
        f, K = fK
        assert_same_bits(constitutive_forward(f, K), plain_map(plain_forward, f, K))
        assert_same_bits(constitutive_inverse(f, K), plain_map(plain_inverse, f, K))

    @given(fhK=pair_and_K, units=unit_systems)
    @example(fhK=RESCALED_REAL_STATE, units=UnitSystem.natural())
    def test_constitutive_real(self, fhK, units):
        # each route where it runs on its pair as given: E + i c B (forward)
        # or D / eps0 + i H / (c eps0) (inverse) and K inside the window;
        # TestPowerOfTwoScaling covers the rescaled region
        E, B, K = fhK[0].real, fhK[1].real, fhK[2]
        c, eps0 = units.c, units.epsilon0
        routes = (
            (E + 1j * (c * B), constitutive_real_forward, plain_real_forward),
            (E / eps0 + 1j * (B / (c * eps0)), constitutive_real_inverse, plain_real_inverse),
        )
        for f, route, plain in routes:
            if unscaled(f, K):
                for got, want in zip(route(E, B, K, units), plain(E, B, K, units)):
                    assert_same_bits(got, want)

    @given(b=spinors, fK=field_and_K)
    def test_covariance_residual(self, b, fK):
        f, K = fK
        assert_same_bits(residual_scale(f, K), plain_scale(f, K))
        assume(unscaled(f, K))
        assert_same_bits(covariance_residual(b, f, K), plain_covariance_residual(b, f, K))

    @given(seed=st.integers(0, 2**32 - 1), beta=st.floats(-30.0, 30.0), frac=edge_fractions, fK=field_and_K)
    def test_covariance_residual_up_to_rapidity_30(self, seed, beta, frac, fK):
        # O(b) is not checked again, so an element at the edge of the
        # SpinorElement tolerance, whose O the ComplexRotation check refused,
        # gets the plain formula's residual like every other element
        b = rotation_boost_at(seed, beta, frac)
        f, K = fK
        assume(unscaled(f, K))
        assert_same_bits(covariance_residual(b, f, K), plain_covariance_residual(b, f, K))
        if frac == 0.0:
            # an exact element's image passes the public check unchanged
            O = so3c_from_spinor(b).matrix
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
        assume(unscaled(f, K))
        assert_same_bits(dual_invariance_residual(f, K, chi), plain_dual_residual(f, K, chi))

    @given(fhK=pair_and_K)
    @example(fhK=NEGATIVE_ZERO_SUM)
    def test_gr_constraint_residual(self, fhK):
        f, h, K = fhK
        frame = gr_from_fields(f, h)
        assert_same_bits(frame.G, np.array([0.5 * (y + x) for x, y in zip(f.tolist(), h.tolist())]))
        assert_same_bits(frame.R, np.array([0.5 * (y - x).conjugate() for x, y in zip(f.tolist(), h.tolist())]))
        assert isinstance(frame, DualFrame)
        for got, want in zip(gr_constraint_residual(frame, K), plain_gr_constraints(frame.G, frame.R, K)):
            assert_same_bits(got, want)


# ---------------------------------------------------------------------------
# Frozen copies of the real routes as they were before their straight-line
# rewrite: a helper forms the parts of f (or h) through a lambda, the window
# test builds three complex numbers, and each dot is a call on lists.  The
# (G, R) residual was plain_gr_constraints, operation for operation.  The
# rewrite keeps every bit of them at any scale, in any units, signed zeros
# included; only the (G, R) residual changed on purpose, outside the window.
# ---------------------------------------------------------------------------

def _list_dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def frozen_real_normalized(x, y, K, form, factors):
    u, v = form(x, y)
    (u1, u2, u3), (v1, v2, v3) = u, v
    nf = plain_norm([complex(u1, v1), complex(u2, v2), complex(u3, v3)])
    scale = nf * (1.0 + plain_norm(K) * nf)
    e = 0
    if not (2.0**-450 <= nf and scale <= 2.0**450) and scale != 0.0:
        exponents = (math.frexp(abs(a))[1] + math.frexp(s)[1] for z, s in zip((x, y), factors) for a in z if a)
        e = max(exponents, default=0)
        if e:
            u, v = form(_ldexp(x, -e), _ldexp(y, -e))
            K = _ldexp(K, e)
    return u, v, [k.real for k in K], [k.imag for k in K], e


def frozen_real_forward(E, B, K, c, eps0):
    E, cB, n, m, e = frozen_real_normalized(E, B, K, lambda x, y: (x, [c * y[0], c * y[1], c * y[2]]), (1.0, c))
    s1 = _list_dot(n, E) - _list_dot(m, cB)
    s2 = _list_dot(m, E) + _list_dot(n, cB)
    ecb = _list_dot(E, cB)
    quad = 0.5 * (_list_dot(E, E) - _list_dot(cB, cB))
    D = [eps0 * (a + s1 * a + s2 * b + ecb * y + quad * x) for a, b, x, y in zip(E, cB, n, m)]
    H = [c * eps0 * (b + s1 * b - s2 * a - ecb * x + quad * y) for a, b, x, y in zip(E, cB, n, m)]
    return _ldexp(D, e), _ldexp(H, e)


def frozen_real_inverse(D, H, K, c, eps0):
    ceps0 = c * eps0
    d, g, n, m, e = frozen_real_normalized(
        D, H, K, lambda x, y: ([a / eps0 for a in x], [a / ceps0 for a in y]), (1.0 / eps0, 1.0 / ceps0))
    s1 = _list_dot(m, g) - _list_dot(n, d)
    s2 = _list_dot(m, d) + _list_dot(n, g)
    dg = _list_dot(d, g)
    quad = 0.5 * (_list_dot(g, g) - _list_dot(d, d))
    E = [a + s1 * a - s2 * b - dg * y + quad * x for a, b, x, y in zip(d, g, n, m)]
    B = [(b + s1 * b + s2 * a + dg * x + quad * y) / c for a, b, x, y in zip(d, g, n, m)]
    return _ldexp(E, e), _ldexp(B, e)


def frozen_gr_constraints(G, R, K):
    """plain_gr_constraints where (G, R) and K pass the window test; else
    2**e times its value at (2**-e G, 2**-e R, 2**e K), e the frexp exponent
    of the largest part of G and R, as the library defines it there."""
    GR = np.concatenate([G, R])
    if unscaled(GR, K):
        return plain_gr_constraints(G, R, K)
    e = math.frexp(np.abs(GR.view(float)).max())[1]
    with np.errstate(over="ignore"):
        return tuple(np.ldexp(r, e) for r in plain_gr_constraints(ldexp(G, -e), ldexp(R, -e), ldexp(K, e)))


# mantissas in [-1, 1]: seeded uniform draws with every bit set, hypothesis
# floats, or zeros of either sign (a zero E or B among them)
real_mantissas = st.one_of(
    st.integers(0, 2**32 - 1).map(lambda seed: np.random.default_rng(seed).uniform(-1.0, 1.0, 3)),
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).map(np.array),
    st.lists(st.sampled_from([0.0, -0.0]), min_size=3, max_size=3).map(np.array),
)


def real3(exponents):
    return st.tuples(real_mantissas, exponents).map(lambda t: np.ldexp(t[0], t[1]))


def complex3(exponents):
    return st.tuples(real_mantissas, real_mantissas, exponents).map(
        lambda t: parts(np.ldexp(t[0], t[2]), np.ldexp(t[1], t[2])))


def near(k):
    """Exponents within 60 of k, in -1000..1000."""
    return st.integers(max(k - 60, -1000), min(k + 60, 1000))


# fields at 2**k, k in -1000..1000, and K at 2**-k, each shifted by up to
# 2**+-60 on its own, so that the window test passes and fails on both sides
two_fields_and_K = st.integers(-1000, 1000).flatmap(
    lambda k: st.tuples(real3(near(k)), real3(near(k)), complex3(near(-k))))
# c = 1e200 puts c B and D / eps0 some 2**664 above E and H / (c eps0)
extreme_units = st.sampled_from([UnitSystem.natural(), UnitSystem.si(), UnitSystem(c=1e200, epsilon0=1e-200)])
three_fields = st.integers(-1000, 1000).flatmap(
    lambda k: st.tuples(complex3(near(k)), complex3(near(k)), complex3(near(-k))))


class TestStraightLineRewrite:
    @given(xyK=two_fields_and_K, units=extreme_units)
    @example(xyK=(np.zeros(3), np.zeros(3), np.zeros(3, dtype=complex)), units=UnitSystem.natural())
    @example(xyK=(np.array([-0.0, 0.0, -0.0]), np.array([0.0, -0.0, 1.0]), SIGNED_ZERO_K), units=UnitSystem.si())
    def test_real_routes(self, xyK, units):
        # (x, y) is (E, B) for the forward route and (D, H) for the inverse
        x, y, K = xyK
        args = x.tolist(), y.tolist(), K.tolist(), units.c, units.epsilon0
        for route, frozen in ((constitutive_real_forward, frozen_real_forward),
                              (constitutive_real_inverse, frozen_real_inverse)):
            for got, want in zip(route(x, y, K, units), frozen(*args)):
                assert_same_bits(got, np.array(want, dtype=float))

    @given(GRK=three_fields)
    @example(GRK=NEGATIVE_ZERO_SUM)
    def test_gr_constraint_residual(self, GRK):
        G, R, K = GRK
        for got, want in zip(gr_constraint_residual(DualFrame(G, R), K), frozen_gr_constraints(G, R, K)):
            assert_same_bits(got, want)


# ---------------------------------------------------------------------------
# Agreement with the numpy forms that the scalar kernels replaced: the same
# formulas with matmul dots, which BLAS sums in its own order.
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps


def matmul_forward(f, K):
    fc = np.conj(f)
    return (1.0 + complex(fc @ np.conj(K))) * f + 0.5 * complex(fc @ fc) * K


def matmul_inverse(h, K):
    hc = np.conj(h)
    return (1.0 - complex(hc @ np.conj(K))) * h - 0.5 * complex(hc @ hc) * K


def matmul_real_forward(E, B, K, units):
    cB = units.c * B
    n, m = K.real, K.imag
    s1 = n @ E - m @ cB
    s2 = m @ E + n @ cB
    ecb = E @ cB
    quad = 0.5 * (E @ E - cB @ cB)
    d = E + s1 * E + s2 * cB + ecb * m + quad * n
    g = cB + s1 * cB - s2 * E - ecb * n + quad * m
    return units.epsilon0 * d, units.c * units.epsilon0 * g


def matmul_real_inverse(D, H, K, units):
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


class TestAgreementWithMatmul:
    # Each dot of the relations sums three products, in a different order
    # than BLAS; the difference reaches a few eps times the residual scale.
    @given(fK=field_and_K)
    def test_constitutive(self, fK):
        f, K = fK
        assert plain_norm(constitutive_forward(f, K) - matmul_forward(f, K)) <= 4 * EPS * plain_scale(f, K)
        assert plain_norm(constitutive_inverse(f, K) - matmul_inverse(f, K)) <= 4 * EPS * plain_scale(f, K)

    @given(fhK=pair_and_K, units=unit_systems)
    @example(fhK=RESCALED_REAL_STATE, units=UnitSystem.natural())
    def test_constitutive_real(self, fhK, units):
        # compared as the complex fields h = (D + i H/c)/eps0 and f = E + i c B
        E, B, K = fhK[0].real, fhK[1].real, fhK[2]
        c, eps0 = units.c, units.epsilon0
        (D1, H1), (D0, H0) = constitutive_real_forward(E, B, K, units), matmul_real_forward(E, B, K, units)
        dh = (D1 - D0) / eps0 + 1j * (H1 - H0) / (c * eps0)
        assert plain_norm(dh) <= 4 * EPS * plain_scale(E + 1j * c * B, K)
        (E1, B1), (E0, B0) = constitutive_real_inverse(E, B, K, units), matmul_real_inverse(E, B, K, units)
        df = (E1 - E0) + 1j * c * (B1 - B0)
        assert plain_norm(df) <= 4 * EPS * plain_scale((E + 1j * B / c) / eps0, K)


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
            _, _, h, scale, _, _ = _base(f, K)
            assert_same_bits(np.array(h), plain_forward(f, K))
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

    @pytest.mark.parametrize("magnitude", [1.0, 1e200, 1e-200])
    def test_forward_seeds_the_memo(self, rng, magnitude):
        # constitutive_forward leaves the whole entry that a residual would
        # build (exponent and gram too), and the residuals read it with the same bits
        # as from a cold memo.  At 1e200 and 1e-200, ||f|| is outside the
        # window, and the entry holds the rescaled f, K and h.
        b = random_spinor(rng)
        f, K = magnitude * random_field(rng), random_field(rng, 0.3) / magnitude
        constitutive_forward(random_field(rng), K)  # another state
        cold = [covariance_residual(b, f, K)] + [dual_invariance_residual(f, K, chi) for chi in QUARTER_MULTIPLES]
        constitutive_forward(f, random_field(rng))  # the same f with another K
        h = constitutive_forward(f, K)
        key, state = electrodynamics._memo
        want = _state(f.tolist(), K.tolist())
        assert key == f.tobytes() + K.tobytes() and state[4] == want[4]
        for got, expected in zip(state[:4] + state[5:], want[:4] + want[5:]):
            assert_same_bits(np.array(got), np.array(expected))
        largest = np.abs(np.array(state[0]).view(float)).max()
        assert (0.5 <= largest < 1.0) if magnitude != 1.0 else state[0] == f.tolist()
        assert_same_bits(h, plain_map(plain_forward, f, K))
        seeded = [covariance_residual(b, f, K)] + [dual_invariance_residual(f, K, chi) for chi in QUARTER_MULTIPLES]
        assert_same_bits(np.array(seeded), np.array(cold))

    @pytest.mark.parametrize("magnitude", [1.0, 1e200, 1e-200])
    def test_mutating_the_forward_result_or_f(self, rng, magnitude):
        # forward is the first call on the state: a returned h that shared
        # the memo's storage would carry the caller's writes into it
        b = random_spinor(rng)
        f, K = magnitude * random_field(rng), random_field(rng, 0.3) / magnitude
        g = f.copy()
        g[0] *= 2.0
        cold = [covariance_residual(b, f, K), dual_invariance_residual(f, K, np.pi / 4),
                covariance_residual(b, g, K), dual_invariance_residual(g, K, np.pi / 4)]
        h = constitutive_forward(f, K)
        want = h.copy()
        h *= 3.0
        h[1] = 0.0
        assert_same_bits(constitutive_forward(f, K), want)
        got = [covariance_residual(b, f, K), dual_invariance_residual(f, K, np.pi / 4)]
        constitutive_forward(f, K)
        f[0] *= 2.0  # f is now g, in place
        got += [covariance_residual(b, f, K), dual_invariance_residual(f, K, np.pi / 4)]
        assert_same_bits(np.array(got), np.array(cold))

    def test_forward_keeps_the_gram_of_its_state(self, rng):
        f, K = random_field(rng), random_field(rng, 0.3)
        assert_plain_dual(f, K, np.pi / 4)
        entry = electrodynamics._memo
        assert_same_bits(constitutive_forward(f, K), plain_forward(f, K))
        assert electrodynamics._memo is entry
        assert_plain_dual(f, K, np.pi / 2)

    @pytest.mark.parametrize("magnitude", [1.0, 1e200, 1e-200])
    def test_forward_on_a_hit_maps_nothing(self, rng, magnitude, monkeypatch):
        # a dual residual leaves the whole state, so a later forward on the
        # same (f, K) reads its h and exponent instead of mapping f again
        from ncframe import _kernels

        f, K = magnitude * random_field(rng), random_field(rng, 0.3) / magnitude
        dual_invariance_residual(f, K, np.pi / 4)

        def refused(f, K):
            raise AssertionError("forward called on a memo hit")

        monkeypatch.setattr(_kernels, "_forward", refused)
        monkeypatch.setattr(electrodynamics, "_forward", refused)
        assert_same_bits(constitutive_forward(f, K), plain_map(plain_forward, f, K))

    def test_covariance_and_dual_in_either_order(self, rng):
        b = random_spinor(rng)
        f, K = random_field(rng), random_field(rng, 0.3)
        assert_plain_dual(f, K, np.pi / 4)
        assert_same_bits(covariance_residual(b, f, K), plain_covariance_residual(b, f, K))
        g, L = random_field(rng), random_field(rng, 0.3)
        assert_same_bits(covariance_residual(b, g, L), plain_covariance_residual(b, g, L))
        assert_plain_dual(g, L, np.pi / 4)

    def test_covariance_then_dual_on_one_state(self, rng):
        b = random_spinor(rng)
        f, K = random_field(rng), random_field(rng, 0.3)
        assert_same_bits(covariance_residual(b, f, K), plain_covariance_residual(b, f, K))
        for chi in QUARTER_MULTIPLES:
            assert_plain_dual(f, K, chi)
        assert_same_bits(covariance_residual(b, f, K), plain_covariance_residual(b, f, K))

    def test_dual_then_covariance_on_one_state(self, rng):
        # covariance reads the entry the dual scan built and keeps its gram
        b = random_spinor(rng)
        f, K = random_field(rng), random_field(rng, 0.3)
        assert_plain_dual(f, K, np.pi / 4)
        gram = _base(f, K)[5]
        assert_same_bits(covariance_residual(b, f, K), plain_covariance_residual(b, f, K))
        assert _base(f, K)[5] is gram
        assert_plain_dual(f, K, np.pi / 2)

    def test_dual_fills_the_gram_and_keeps_the_base(self, rng):
        f, K = random_field(rng), random_field(rng, 0.3)
        fl, Kl, h, scale, e, gram = _base(f, K)
        key = electrodynamics._memo[0]
        assert_plain_dual(f, K, np.pi / 4)
        fl2, Kl2, h2, scale2, e2, dots = _base(f, K)
        assert electrodynamics._memo[0] == key and (fl2, Kl2, h2) == (fl, Kl, h) and h2 is h and dots is gram and e2 == e == 0
        assert_same_bits(np.array(fl2), f) and assert_same_bits(np.array(Kl2), K)
        assert_same_bits(np.array(h2), plain_forward(f, K))
        assert_same_bits(scale2, plain_scale(f, K))
        hv = plain_forward(f, K)
        want = [_dot(f, f), _dot(f, hv), _dot(f, K), _dot(hv, hv), _dot(hv, K)]
        assert_same_bits(np.array(dots), np.array(want))

    def test_concurrent_threads_match_serial(self, rng):
        states = [(random_field(rng), random_field(rng, 0.3), random_spinor(rng)) for _ in range(8)]

        def evaluate(f, K, b):
            # forward seeds the memo, between and around the residuals
            h = constitutive_forward(f, K).tolist()
            dual = [dual_invariance_residual(f, K, chi) for chi in QUARTER_MULTIPLES[:4]]
            covariance = covariance_residual(b, f, K)
            h += constitutive_forward(f, K).tolist()
            dual += [dual_invariance_residual(f, K, chi) for chi in QUARTER_MULTIPLES[4:]]
            return np.array(h + dual + [covariance])

        serial = [evaluate(*state) for state in states]
        for (f, K, b), want in zip(states, serial):
            h = plain_forward(f, K).tolist()
            plain = [plain_dual_residual(f, K, chi) for chi in QUARTER_MULTIPLES]
            assert_same_bits(want, np.array(h + h + plain + [plain_covariance_residual(b, f, K)]))
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

# ---------------------------------------------------------------------------
# Power-of-two rescaling: (f, K) -> (2**k f, 2**-k K) maps h to 2**k h and
# leaves both residuals unchanged; the library evaluates the maps and the
# residuals on f with its largest part in [0.5, 1) once ||f|| or the residual
# scale leaves [2**-450, 2**450].
# ---------------------------------------------------------------------------

# parts 0 or +-m 10**d with m in [0.1, 1] and d in [-3, 3]: scaled by 2**+-1000
# they stay normal floats, so 2**k f and 2**-k K are exact
moderate_part = st.one_of(
    st.just(0.0),
    st.tuples(st.floats(0.1, 1.0), st.integers(-3, 3), st.sampled_from([-1.0, 1.0])).map(
        lambda t: t[2] * t[0] * 10.0 ** t[1]
    ),
)
moderate_cvec = st.one_of(
    st.lists(moderate_part, min_size=6, max_size=6).map(lambda p: np.array(p).view(complex)),
    st.integers(0, 2**32 - 1).map(lambda seed: np.random.default_rng(seed).uniform(0.1, 1.0, 6).view(complex)),
)


def ldexp(z, k):
    return np.ldexp(z.view(float), k).view(complex)


class TestPowerOfTwoScaling:
    @given(f=moderate_cvec, K=moderate_cvec, k=st.integers(-1000, 1000))
    def test_maps_keep_their_bits(self, f, K, k):
        fs, Ks = ldexp(f, k), ldexp(K, -k)
        with np.errstate(over="ignore"):  # 2**1000 h can overflow, on both sides
            assert_same_bits(constitutive_forward(fs, Ks), ldexp(constitutive_forward(f, K), k))
            assert_same_bits(constitutive_inverse(fs, Ks), ldexp(constitutive_inverse(f, K), k))

    @given(f=moderate_cvec, K=moderate_cvec, k=st.integers(-1000, 1000), units=unit_systems)
    def test_real_maps_keep_their_bits(self, f, K, k, units):
        # in SI units c B, D / eps0 and H / (c eps0) overflow at 2**1000
        # unless they are formed after the rescaling; the results themselves
        # can overflow, on both sides alike
        x, y, Ks = np.ldexp(f.real, k), np.ldexp(f.imag, k), ldexp(K, -k)
        for real_map in (constitutive_real_forward, constitutive_real_inverse):
            got, want = real_map(x, y, Ks, units), real_map(f.real, f.imag, K, units)
            with np.errstate(over="ignore"):
                for g, w in zip(got, want):
                    assert_same_bits(g, np.ldexp(w, k))

    def test_real_maps_finite_where_c_B_overflowed(self):
        # c B = 3e309 overflowed before the rescaling, and D and H read NaN;
        # the inverse's H / (c eps0) likewise at H = 1e306
        si, K = UnitSystem.si(), np.array([1e-302, 0.0, 0.0])
        E, B = np.zeros(3), np.array([0.0, 1e301, 0.0])
        D, H = constitutive_real_forward(E, B, K, si)
        assert np.isfinite(D).all() and np.isfinite(H).all() and H[1] > 7e306
        for got, want in zip((D, H), constitutive_real_forward(E, np.ldexp(B, -600), np.ldexp(K, 600), si)):
            assert_same_bits(got, np.ldexp(want, 600))
        K = np.array([1e-308, 0.0, 0.0])
        E, B = constitutive_real_inverse(np.zeros(3), np.array([0.0, 1e306, 0.0]), K, si)
        assert np.isfinite(B).all() and B[1] > 1e300
        _, want = constitutive_real_inverse(np.zeros(3), np.array([0.0, 1e306 * 2.0**-600, 0.0]), K * 2.0**600, si)
        assert_same_bits(B, np.ldexp(want, 600))
        # c = 1e200: c B is finite, but the dots of f = E + i c B overflowed
        # unless the rescaling takes c into account
        units, K = UnitSystem(c=1e200, epsilon0=1e-200), np.array([1e-200, 0.5e-200j, 0.0])
        E, B = np.array([1.0, 0.0, 0.5]), np.array([0.0, 1.0, 0.25])
        h = constitutive_forward(E + 1j * (units.c * B), K)
        D, H = constitutive_real_forward(E, B, K, units)
        assert np.isfinite(D).all() and np.isfinite(H).all()
        assert hnorm(D / units.epsilon0 + 1j * H / (units.c * units.epsilon0) - h) <= 1e-15 * hnorm(h)

    def test_maps_finite_where_the_dots_overflowed(self):
        # f*.f* ~ 1e320 overflowed inside h ~ 1e160, and every map read NaN
        K = parts([1e-160, 0.0, 0.0], [0.0, 5e-161, 0.0])
        E, B = np.array([1e160, 0.0, 0.0]), np.array([0.0, 2e159, 0.0])
        f = E + 1j * B
        h = constitutive_forward(f, K)
        D, H = constitutive_real_forward(E, B, K)
        assert np.isfinite(h).all() and hnorm(h - (D + 1j * H)) <= 1e-15 * hnorm(h)
        assert np.isfinite(constitutive_inverse(h, K)).all()
        assert all(np.isfinite(x).all() for x in constitutive_real_inverse(D, H, K))
        assert_same_bits(h, ldexp(constitutive_forward(ldexp(f, -600), ldexp(K, 600)), 600))

    @given(f=moderate_cvec, K=moderate_cvec, k=st.integers(-1000, 1000), chi=angles, b=spinors, R=moderate_cvec)
    def test_residuals_keep_their_bits(self, f, K, k, chi, b, R):
        fs, Ks = ldexp(f, k), ldexp(K, -k)
        assert_same_bits(dual_invariance_residual(fs, Ks, chi), dual_invariance_residual(f, K, chi))
        assert_same_bits(covariance_residual(b, fs, Ks), covariance_residual(b, f, K))
        # the (G, R) residuals are not relative but homogeneous of degree 1:
        # they scale by 2**k, and can overflow, on both sides alike
        got = gr_constraint_residual(DualFrame(fs, ldexp(R, k)), Ks)
        with np.errstate(over="ignore"):
            for g, w in zip(got, gr_constraint_residual(DualFrame(f, R), K)):
                assert_same_bits(g, np.ldexp(w, k))

    def test_gr_residual_finite_where_the_dots_overflowed(self):
        # at the scale of a dual-scan case, G*.R ~ 1e320 overflowed and both norms read NaN
        f, K = parts([1e160, 0.0, 0.0], [0.0, 2e159, 0.0]), parts([1e-160, 0.0, 0.0], [0.0, 0.0, 5e-161])
        frame = gr_from_fields(f, constitutive_forward(f, K))
        scaled = gr_constraint_residual(DualFrame(ldexp(frame.G, -530), ldexp(frame.R, -530)), ldexp(K, 530))
        for got, want in zip(gr_constraint_residual(frame, K), scaled):
            assert math.isfinite(got) and got > 1e160
            assert_same_bits(got, math.ldexp(want, 530))

    def test_residuals_finite_where_the_dots_overflowed(self, rng):
        # h.h overflowed at 1e100 f, and f.f at 2**600 f; 2**-600 f underflowed
        b = random_spinor(rng)
        f, K = random_field(rng), random_field(rng)
        states = [(1e100 * f, K), (2.0**600 * f, 2.0**-600 * K), (2.0**-600 * f, 2.0**600 * K)]
        for fs, Ks in states:
            assert dual_invariance_residual(fs, Ks, 0.0) <= DUAL_TOL
            assert all(math.isfinite(dual_invariance_residual(fs, Ks, chi)) for chi in QUARTER_MULTIPLES)
            assert math.isfinite(covariance_residual(b, fs, Ks))
        for fs, Ks in states[1:]:
            assert_same_bits(dual_invariance_residual(fs, Ks, np.pi / 2), dual_invariance_residual(f, K, np.pi / 2))
            assert_same_bits(covariance_residual(b, fs, Ks), covariance_residual(b, f, K))


# ---------------------------------------------------------------------------
# Python arithmetic raises where numpy returned inf or NaN (ZeroDivisionError,
# OverflowError from **); the scalar kernels must return inf or NaN instead.
# ---------------------------------------------------------------------------

def every_output(f, K, b):
    """Each public kernel on (f, K), with f's parts as (E, B) and (D, H), by name."""
    E, B = f.real.copy(), f.imag.copy()
    out = {
        "forward": constitutive_forward(f, K),
        "inverse": constitutive_inverse(f, K),
        "real_forward": np.concatenate(constitutive_real_forward(E, B, K)),
        "real_inverse": np.concatenate(constitutive_real_inverse(E, B, K, UnitSystem.si())),
        "residual_scale": residual_scale(f, K),
        "covariance": covariance_residual(b, f, K),
        "gr": gr_constraint_residual(gr_from_fields(f, 0.5 * f), K),
    }
    out.update((f"dual_{j}", dual_invariance_residual(f, K, chi)) for j, chi in enumerate(QUARTER_MULTIPLES))
    return out


class TestNoArithmeticException:
    @pytest.mark.parametrize(
        "c, epsilon0", [(1e-200, 1e-200), (1e200, 1e200), (math.nan, 1.0), (1.0, math.inf), (-1.0, -1.0), (0.0, 1.0)]
    )
    def test_units_need_a_normal_product(self, c, epsilon0):
        # c epsilon0 = 1e-400 underflowed to 0, and the real inverse read NaN
        with pytest.raises(ValueError, match="normal product"):
            UnitSystem(c, epsilon0)

    def test_units_with_extreme_factors_but_a_normal_product(self):
        units = UnitSystem(1e-300, 1e300)
        E, B = constitutive_real_inverse([1.0, 0, 0], [0, 1.0, 0], np.zeros(3), units)
        assert np.isfinite(E).all() and np.isfinite(B).all()

    def test_entries_near_the_largest_float(self, rng):
        b = random_spinor(rng)
        f = parts([1e308, 0.0, -5e307], [0.0, 1e308, 0.0])
        # ||K|| ||f|| of order 1: the residuals rescale and stay exact
        K = parts([1e-308, 0.0, 0.0], [0.0, 5e-309, 0.0])
        out = every_output(f, K, b)
        assert np.isfinite(out["forward"]).all()  # h ~ 1.6e308 is a finite float
        assert dual_invariance_residual(f, K, 0.0) <= DUAL_TOL
        assert dual_invariance_residual(f, K, np.pi / 2) <= DUAL_TOL
        assert covariance_residual(b, f, K) < 1e-9
        # ||K|| ||f|| of order 1e308: no result is meaningful, but none raises
        every_output(f, random_field(rng), b)

    def test_nan_entries(self, rng):
        b = random_spinor(rng)
        f, K = random_field(rng), random_field(rng)
        for bad in (parts([math.nan, 0, 0], [0, 0, 0]), parts([0, 0, 0], [0, math.nan, 0])):
            for args in ((f + bad, K), (f, K + bad)):
                out = every_output(*args, b)
                for name, value in out.items():
                    assert np.isnan(value).any(), name


