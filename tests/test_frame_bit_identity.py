"""Bit identity of the frame path with its plain formulas.

``group``, ``stabilizer`` and ``factorization`` coerce each argument once, at
their public entry points, and then do their 3-vector arithmetic on Python
scalars through the kernels of ``linalg``.  The plain versions below write
the same formulas out on Python scalars: every 3-vector dot sums its three
products left to right, every cross product is the written-out formula, and
every norm is ``math.hypot`` of the six real parts (``np.sqrt``, ``np.exp``
and numpy's arrays where the library keeps them); ``plain_lorentz4`` keeps
the index loops of the Lorentz image and ``plain_K_to_theta`` numpy's slice
assignments, which the library writes out entry by entry.  Every output,
and every error with its message, must be the same, bit for bit and signed
zeros included.  There are two exceptions: the boost factor of the
factorization, which is checked against the 2x2 oracle instead (its
rotation factor and sign stay pinned bit for bit), and the S of
``reduce_to_real`` with a target, which is checked against the frozen
Gibbs-vector form away from antiparallel (its refusals, and S without a
target, stay pinned bit for bit).

``TestAgreementWithMatmul`` compares the outputs with the forms the library
used before, matmul dots and products, ``np.linalg.norm`` and ``np.cross``,
within a few eps relative.

``TestFrozenKernels`` compares ``_kernels._theta_to_K``, ``_reduce_to_real``
and ``_canonical`` with frozen copies of the list-building forms they
replaced, bit for bit and exception for exception.

K sweeps magnitudes 1e-100..1e100 over the generic class, the boundary
subcases Ia/Ib/IIa/IIb and the isotropic class; the mantissas are seeded
uniform draws (full 53-bit mantissas, so every rounding step shows) or
hypothesis floats (exact values such as 0, -0.0, 0.5 and 1).
"""

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import compose2, so3c_oracle

from ncframe import _kernels
from ncframe.errors import (
    ConstraintViolation,
    DegenerateDelta,
    IsotropicInput,
    NcframeError,
    NotIsotropic,
    NotIsotropicElement,
    NotAntisymmetric,
    NotPureElement,
    NotUnitDelta,
    ZeroVector,
)
from ncframe.factorization import (
    FactorOrder,
    factor_boost_rotation,
    factor_isotropic,
    factor_rotation_boost,
    scale_freedom_report,
)
from ncframe.group import (
    SpinorElement,
    _so3c,
    lorentz4_from_spinor,
    project_to_group,
    so3c_from_spinor,
    spinor_compose,
    spinor_from_boost,
    spinor_from_rotation,
    verify_su2_boost_identities,
)
from ncframe.linalg import DEFAULT_TOL, EYE3, inf_norm
from ncframe.sampling import random_spinor
from ncframe.stabilizer import (
    EPS_ISO,
    NCClass,
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

# ---------------------------------------------------------------------------
# The plain formulas.
# ---------------------------------------------------------------------------


def _list(v):
    """The entries of v as Python numbers."""
    return np.asarray(v).tolist()


def _dot(u, v):
    """Bilinear u.v, summed left to right."""
    (a, b, c), (x, y, z) = _list(u), _list(v)
    return a * x + b * y + c * z


def _cross(u, v):
    (a, b, c), (x, y, z) = _list(u), _list(v)
    return [b * z - c * y, c * x - a * z, a * y - b * x]


def _norm(v):
    """math.hypot of the six real parts."""
    a, b, c = (complex(x) for x in _list(v))
    return math.hypot(a.real, a.imag, b.real, b.imag, c.real, c.imag)


def _square(x):
    return x * x


def plain_spinor(k0, k):
    """SpinorElement's check; returns (k0, k)."""
    k0, k = complex(k0), np.asarray(k, dtype=complex)
    det = k0 * k0 - _dot(k, k)
    scale = max(1.0, _square(abs(k0)) + _square(_norm(k)))
    if abs(det - 1.0) > DEFAULT_TOL * scale:
        raise ConstraintViolation(f"k0^2 - k.k = {det:.15g}, expected 1 (within {DEFAULT_TOL:g} relative)")
    return k0, k


def plain_unit_square(d):
    sq = _dot(d, d)
    if abs(sq - 1.0) > DEFAULT_TOL * max(1.0, _square(_norm(d))):
        raise NotUnitDelta(f"delta.delta = {sq:.15g}, expected 1")


def plain_project(k0, k):
    k0 = complex(k0)
    det = k0 * k0 - _dot(k, k)
    if abs(det) < 1e-12 * max(1.0, _square(abs(k0)) + _square(_norm(k))):
        raise ConstraintViolation("cannot project: k0^2 - k.k is numerically zero")
    s = np.sqrt(det)
    return plain_spinor(k0 / s, k / s)


def plain_compose(b1, b2):
    k0 = b1.k0 * b2.k0 + _dot(b1.k, b2.k)
    k = [b1.k0 * y + b2.k0 * x + 1j * c for x, y, c in zip(_list(b1.k), _list(b2.k), _cross(b1.k, b2.k))]
    return plain_spinor(k0, k)


def plain_gamma_delta(b):
    """(gamma, Delta) of b on the principal branch gamma/2 = arccos(k0), an
    input builder for the unit-square check; None where k.k is about 0."""
    ksq = _dot(b.k, b.k)
    if abs(ksq) <= 1e-12 * max(1.0, _square(_norm(b.k))):
        return None
    half = np.arccos(complex(b.k0))
    return complex(2.0 * half), 1j * b.k / np.sin(half)


def plain_su2_kind(b, tol=DEFAULT_TOL):
    scale = max(1.0, abs(b.k0), _norm(b.k))
    if abs(b.m0) <= tol * scale and _norm(b.m) <= tol * scale:
        return "rotation"
    if abs(b.m0) <= tol * scale and _norm(b.n) <= tol * scale:
        return "boost"
    raise NotPureElement("element is neither a pure rotation nor a pure boost")


def plain_invariants(K):
    ksq = _dot(K, K)
    i1, i2 = ksq.real, ksq.imag
    mag = float(np.hypot(i1, i2))
    mu = 0.5 * math.atan2(i2, i1)
    if mu < 0.0:
        mu += np.pi
    return i1, i2, mag, float(mu)


def pinned(K):
    """Where plain_classify and plain_unit_delta are right, and so pinned bit
    for bit: ||K|| > EPS_ISO and K.K a normal float (or zero).  Below that,
    their absolute commutative cut and the digits a subnormal K.K loses are
    what the exact power-of-two scaling of K removed; test_stabilizer checks
    the labels and the frame there by scale covariance."""
    mag = abs(_dot(K, K))
    return _norm(K) > EPS_ISO and (mag == 0.0 or mag >= np.finfo(float).tiny)


def plain_classify(K, eps_iso=EPS_ISO):
    """classify's formulas, for a K where pinned(K) holds."""
    nrm = _norm(K)
    i1, i2, mag, mu = plain_invariants(K)
    norm2 = _square(nrm)
    if nrm <= eps_iso:
        return i1, i2, mag, None, NCClass.COMMUTATIVE, Subcase.NONE
    if mag <= eps_iso * norm2:
        return i1, i2, mag, None, NCClass.ISOTROPIC, Subcase.NONE
    if abs(i2) <= eps_iso * mag:
        sub = Subcase.IA if i1 > 0 else Subcase.IB
        mu = 0.0 if i1 > 0 else np.pi / 2
    elif abs(i1) <= eps_iso * mag:
        sub = Subcase.IIA if i2 > 0 else Subcase.IIB
        mu = np.pi / 4 if i2 > 0 else 3 * np.pi / 4
    else:
        sub = Subcase.GENERIC
    return i1, i2, mag, float(mu), NCClass.NON_ISOTROPIC, sub


def plain_unit_delta(K, eps_iso=EPS_ISO):
    """unit_delta's formulas, pinned where pinned(K) holds."""
    nrm = _norm(K)
    _, _, mag, mu = plain_invariants(K)
    if mag <= eps_iso * _square(nrm) or nrm == 0.0:
        raise IsotropicInput("K.K = 0 within tolerance: no unit-square direction exists")
    kscalar = complex(np.sqrt(mag) * np.exp(1j * mu))
    return kscalar, np.array([z / kscalar for z in _list(K)])


def axial(v):
    """The antisymmetric matrix v^x with v^x w = v x w."""
    a, b, c = _list(v)
    return np.array([[0.0, -c, b], [c, 0.0, -a], [-b, a, 0.0]], dtype=complex)


def gibbs_rotation(src, dst):
    """The real rotation carrying the unit src to the unit dst in the
    rational (Gibbs-vector) form I + 2 (c^x + (c^x)^2) / (1 + c.c), with
    c = src x dst / (1 + src.dst), and a half turn where |1 + src.dst| <=
    1e-12: the form reduce_to_real took for a target before its S became the
    image of one spinor, kept as a reference."""
    denom = 1.0 + _dot(src, dst)
    if abs(denom) <= 1e-12:
        seed = np.zeros(3)
        seed[int(np.argmin(np.abs(src)))] = 1.0
        u = _cross(src, seed)
        ux = axial([x / _norm(u) for x in u]).real
        return EYE3 + 2.0 * (ux @ ux)
    c = [x / denom for x in _cross(src, dst)]
    cx = axial(c).real
    return EYE3 + 2.0 * (cx + cx @ cx) / (1.0 + _dot(c, c))


def plain_reduce_to_real(delta):
    """The refusals and the real-Delta branch (S = I), without a target.  A
    complex Delta's S is the image of the small-group boost, checked against
    the E-parallel-to-B oracle in test_stabilizer and acceptance criterion
    13."""
    plain_unit_square(delta)
    N, M = delta.real, delta.imag
    ch = _norm(N)
    if ch < 1.0 - DEFAULT_TOL:
        raise DegenerateDelta(f"||Re delta|| = {ch:.15g} < 1")
    N0 = [x / ch for x in _list(N)]
    mnorm = _norm(M)
    if mnorm <= 1e-12 * max(1.0, ch):
        return np.eye(3, dtype=complex)
    M0 = [y / mnorm for y in _list(M)]
    u = _cross(M0, N0)
    unorm = _norm(u)
    if unorm < 1e-8:
        raise DegenerateDelta("Re delta and Im delta are parallel")
    return reduce_to_real(delta).matrix


def plain_canonical_frame(K):
    """Through plain_reduce_to_real: bit for bit where Delta is real."""
    kscalar, delta = plain_unit_delta(K)
    S = plain_reduce_to_real(delta)
    e = [_dot(row, delta).real for row in S]
    return S, np.array([kscalar * (x / _norm(e)) for x in e])


def plain_stabilizer_element(gamma, delta):
    """The refusal of a Delta off the unit quadric.  An accepted element is
    the small-group spinor, checked against the oracles in test_stabilizer."""
    plain_unit_square(delta)
    return element_of(stabilizer_element(gamma, delta))


def plain_isotropic_element(z, k, eps_iso=EPS_ISO):
    """The refusals.  An accepted element is the small-group spinor, checked
    against the oracles in test_stabilizer."""
    nrm = _norm(k)
    if nrm == 0.0:
        raise ZeroVector("isotropic stabilizer needs a nonzero k")
    if abs(_dot(k, k)) > eps_iso * _square(nrm):
        raise NotIsotropic(f"k.k = {_dot(k, k):.3e} is not zero within tolerance")
    return element_of(isotropic_stabilizer_element(z, k, eps_iso))


def plain_factor_rotation(b):
    """The rotation factor and sign of both orders (the boost is checked by the oracle)."""
    n0, n = b.k0.real, -b.k.imag
    r = math.sqrt(n0 * n0 + _dot(n, n))
    a0, a = n0 / r, [x / r for x in _list(n)]
    sign = 1
    if a0 < 0.0:
        a0, a, sign = -a0, [-x for x in a], -1
    return plain_spinor(a0, [-1j * x for x in a]), sign


def plain_isotropic_sign(b, eps_iso=EPS_ISO):
    """factor_isotropic's guard; returns k0 = +-1."""
    k0 = complex(b.k0)
    sgn = 1 if abs(k0 - 1.0) <= abs(k0 + 1.0) else -1
    if abs(k0 - sgn) > DEFAULT_TOL or abs(_dot(b.k, b.k)) > eps_iso * _square(_norm(b.k)):
        raise NotIsotropicElement("element must have k0 = +-1 and k.k = 0")
    return sgn


def plain_lorentz4(b):
    """lorentz4_from_spinor's entry table, with the index loops it was written with."""
    k0, k0c, k = b.k0, b.k0.conjugate(), b.k.tolist()
    kk = [a * a for a in map(abs, k)]
    total = kk[0] + kk[1] + kk[2]
    a2 = abs(k0) * abs(k0)
    L = [[0.0] * 4 for _ in range(4)]
    L[0][0] = a2 + total
    for i in range(3):
        t = -2.0 * (k0c * k[i]).real
        j, l = (i + 1) % 3, (i + 2) % 3
        c = -2.0 * (k[j] * k[l].conjugate()).imag
        L[0][i + 1] = t + c
        L[i + 1][0] = t - c
    for i in range(3):
        for j in range(3):
            if i == j:
                L[i + 1][j + 1] = a2 + 2.0 * kk[i] - total
            else:
                l = 3 - i - j
                eps = 1.0 if (j - i) % 3 == 1 else -1.0  # Levi-Civita eps_ijl
                L[i + 1][j + 1] = 2.0 * eps * (k0c * k[l]).imag + 2.0 * (k[i] * k[j].conjugate()).real
    return np.asarray(L, dtype=float)


def plain_K_to_theta(K):
    """K_to_theta as numpy slice assignments."""
    K = np.asarray(K, dtype=complex)
    n, m = K.real, K.imag
    theta = np.zeros((4, 4))
    theta[0, 1:] = m
    theta[1:, 0] = -m
    theta[2, 3], theta[3, 1], theta[1, 2] = n
    theta[3, 2], theta[1, 3], theta[2, 1] = -n
    return theta


# ---------------------------------------------------------------------------
# Comparison.
# ---------------------------------------------------------------------------


def outcome(fn, *args):
    """fn(*args), or the library error it raises as (type name, message)."""
    try:
        return fn(*args)
    except NcframeError as exc:
        return type(exc).__name__, str(exc)


def assert_same(got, want):
    """Same structure, same strings, and numbers with the same bits."""
    if isinstance(want, (tuple, list)):
        assert isinstance(got, (tuple, list)) and len(got) == len(want), f"{got!r} != {want!r}"
        for g, w in zip(got, want):
            assert_same(g, w)
    elif isinstance(want, str) or want is None:
        assert got == want
    else:
        got, want = np.asarray(got), np.asarray(want)
        assert got.dtype == want.dtype and got.shape == want.shape, f"{got!r} != {want!r}"
        assert got.tobytes() == want.tobytes(), f"{got!r} != {want!r}"


def spinor_of(b):
    return b.k0, b.k


def pair_of(pair):
    return spinor_of(pair.rotation), spinor_of(pair.boost), pair.sign


FACTORS = {FactorOrder.ROTATION_FIRST: factor_rotation_boost, FactorOrder.BOOST_FIRST: factor_boost_rotation}


def assert_factor(b, order):
    """Rotation and sign bit for bit; a real boost b0 >= 1 that round-trips by the 2x2 oracle."""
    pair = FACTORS[order](b)
    assert_same((spinor_of(pair.rotation), pair.sign), plain_factor_rotation(b))
    boost = pair.boost
    assert boost.k0.real >= 1.0 and abs(boost.k0.imag) < 1e-12 and inf_norm(boost.k.imag) < 1e-12
    first, second = (pair.rotation, boost) if order is FactorOrder.ROTATION_FIRST else (boost, pair.rotation)
    k0, k = compose2(first, second)
    scale = max(1.0, abs(b.k0), _norm(b.k))
    assert max(abs(k0 - pair.sign * b.k0), inf_norm(k - pair.sign * b.k)) / scale < 1e-10


def assert_factor_isotropic(b, order):
    """The guard's refusals bit for bit; where it accepts, exactly the generic pair."""
    got = outcome(lambda: pair_of(factor_isotropic(b, order)))
    sgn = outcome(plain_isotropic_sign, b)
    if isinstance(sgn, tuple):
        assert_same(got, sgn)
    else:
        assert_same(got, pair_of(FACTORS[order](b)))
        assert got[2] == sgn


def element_of(elem):
    return elem.spinor.k0, elem.spinor.k, elem.rotation.matrix


def frame_of(result):
    S, kcanon = result
    return S.matrix, kcanon


# ---------------------------------------------------------------------------
# Inputs.
# ---------------------------------------------------------------------------

KINDS = ("generic", "Ia", "Ib", "IIa", "IIb", "isotropic")


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.sqrt(v @ v)


def k_of_kind(kind, exp, seed):
    """K = n + i*m of one class at magnitude about 10**exp, from a seed."""
    rng = np.random.default_rng(seed)
    s = 10.0 ** exp * rng.uniform(0.5, 2.0)
    if kind == "generic":
        return s * (rng.normal(size=3) + 1j * rng.normal(size=3))
    u = _unit(rng)
    p = rng.normal(size=3)
    p -= (p @ u) * u
    p /= np.sqrt(p @ p)
    if kind == "isotropic":
        return s * (u + 1j * p)
    if kind in ("Ia", "Ib"):
        big, small = s * u, rng.uniform(0.0, 0.8) * s * p
        return big + 1j * small if kind == "Ia" else small + 1j * big
    a = rng.uniform(0.2, 1.3)
    if kind == "IIb":
        a = math.pi - a
    return s * u + 1j * s * (math.cos(a) * u + math.sin(a) * p)


exponents = st.integers(-100, 100)
seeds = st.integers(0, 2**32 - 1)
seeded_K = st.tuples(st.sampled_from(KINDS), exponents, seeds).map(lambda t: k_of_kind(*t))
simple_K = st.tuples(
    exponents, st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=6, max_size=6)
).map(lambda t: 10.0 ** t[0] * np.array(t[1]).view(complex))
any_K = st.one_of(seeded_K, simple_K)
# stabilizer parameters: any angle, rapidities up to 30 (the stress range)
gammas = st.tuples(st.floats(0.0, 2 * math.pi), st.floats(-30.0, 30.0)).map(lambda t: complex(*t))
spinors = seeds.map(lambda seed: random_spinor(np.random.default_rng(seed)))
units = seeds.map(lambda seed: _unit(np.random.default_rng(seed)))


def rotation_boost(alpha, beta, seed):
    """Rotation by alpha after a boost of rapidity beta, about seeded axes."""
    rng = np.random.default_rng(seed)
    return spinor_compose(spinor_from_rotation(alpha, _unit(rng)), spinor_from_boost(beta, _unit(rng)))


def tilted_boost(beta, tilt, axis):
    """Boost of rapidity beta along coordinate axis ``axis`` tilted by about ``tilt``."""
    e = np.roll([1.0, tilt, -0.5 * tilt], axis)
    return spinor_from_boost(beta, e / np.sqrt(e @ e))


# elements up to rapidity 30 (the stress range), where ||O|| ~ e^30, and
# boosts near a coordinate axis, whose diagonal entry along it is near 1
boosted = st.one_of(
    st.tuples(st.floats(0.0, 2 * math.pi), st.floats(-30.0, 30.0), seeds).map(lambda t: rotation_boost(*t)),
    st.tuples(st.floats(-30.0, 30.0), st.floats(1e-8, 1e-1), st.integers(0, 2)).map(lambda t: tilted_boost(*t)),
)


def parts(re, im):
    """Complex array with the exact parts given, signed zeros included."""
    out = np.empty(len(re), dtype=complex)
    out.real, out.imag = re, im
    return out


REAL_AXIS = parts([2.0, -0.0, 0.0], [0.0, -0.0, 0.0])         # Ia, real delta
IMAGINARY_AXIS = parts([0.0, 0.0, -0.0], [0.0, 3.0, 0.0])     # Ib
EXACT_ISOTROPIC = parts([1.0, 0.0, -0.0], [0.0, 1.0, 0.0])
ZERO = parts([-0.0, 0.0, -0.0], [0.0, -0.0, 0.0])
# the identity and a z-rotation and z-boost, with zero parts of both signs
SIGNED_ZERO_SPINORS = (
    SpinorElement(1.0, ZERO),
    SpinorElement(complex(math.cos(0.35), -0.0), parts([-0.0, 0.0, 0.0], [0.0, -0.0, -math.sin(0.35)])),
    SpinorElement(complex(math.cosh(0.35), 0.0), parts([0.0, -0.0, math.sinh(0.35)], [-0.0, 0.0, -0.0])),
)
# K.K where math.hypot rounds differently from np.hypot, which the invariants
# keep, and K.K where math.atan2, which they use, rounds differently from
# np.arctan2
HYPOT_CASE = parts([-0.31664963176331873, 0.8562268420291475, 0.7794565770190949],
                   [-0.038997966707707166, -0.0904803628348374, 0.3339860877077614])
ATAN2_CASE = parts([0.0027144088342523354, 0.38155154241339884, 0.39462696471760217],
                   [-0.9885746201441636, -0.9218689334883712, -0.701923378368901])
# I2 = 4.6e-138: at K 2**-284 the I2 of Ks is subnormal, at K 2**-449 it is 0
TINY_I2 = parts([0.0, 0.0, 1.0], [0.0, 0.0, 2.28504797591572e-138])
# K.K = -2.7e-326 underflows to zero: the plain mu is 0, the scale-free mu pi/2
UNDERFLOWING_SQUARE = parts([0.0, 0.0, 0.0], [0.0, 0.0, 1.6472915e-163])
# n and m of a K whose S Delta overflows at eps_iso = 0
OVERFLOWING_FRAME = [-0.0235, -0.774, 1.7078084781192e308, 1.7078084781192e308, 2.36e-51, -0.702]


class TestBitIdentity:
    @given(K=any_K)
    @example(K=REAL_AXIS)
    @example(K=IMAGINARY_AXIS)
    @example(K=EXACT_ISOTROPIC)
    @example(K=ZERO)
    @example(K=HYPOT_CASE)
    @example(K=ATAN2_CASE)
    @example(K=UNDERFLOWING_SQUARE)
    def test_classify(self, K):
        # mu is scale-free, and so it is pinned only where the plain formula is right
        got, want = invariants(K), plain_invariants(K)
        assert_same(got[:3], want[:3])
        if pinned(K):
            assert_same(got[3], want[3])
        p = classify(K)
        assert_same(p.K, K)
        if pinned(K):
            assert_same((p.I1, p.I2, p.I, p.mu, p.klass, p.subcase), plain_classify(K))

    def test_classify_underflowing_square(self):
        assert invariants(UNDERFLOWING_SQUARE)[3] == math.pi / 2
        p = classify(UNDERFLOWING_SQUARE)
        assert (p.mu, p.subcase) == (math.pi / 2, Subcase.IB)

    @given(K=any_K)
    @example(K=REAL_AXIS)
    @example(K=IMAGINARY_AXIS)
    @example(K=EXACT_ISOTROPIC)
    @example(K=ZERO)
    @example(K=HYPOT_CASE)
    @example(K=ATAN2_CASE)
    def test_unit_delta_and_canonical_frame(self, K):
        if not pinned(K):
            return
        assert_same(outcome(unit_delta, K), outcome(plain_unit_delta, K))
        assert_same(outcome(lambda K: frame_of(canonical_frame(K)), K), outcome(plain_canonical_frame, K))

    @given(K=any_K, target=units)
    @example(K=REAL_AXIS, target=np.array([0.0, 0.0, 1.0]))
    @example(K=IMAGINARY_AXIS, target=np.array([-1.0, 0.0, 0.0]))
    def test_reduce_to_real(self, K, target):
        delta = outcome(plain_unit_delta, K)[1]
        if isinstance(delta, str):  # isotropic: no unit direction
            return
        want = outcome(plain_reduce_to_real, delta)
        assert_same(outcome(lambda d: reduce_to_real(d).matrix, delta), want)
        # with a target: the same refusals, and away from antiparallel the
        # frozen Gibbs product, within the bound of TestAgreementWithMatmul
        got = outcome(lambda d: reduce_to_real(d, target).matrix, delta)
        if isinstance(want, tuple):
            assert_same(got, want)
        else:
            N0 = delta.real / _norm(delta.real)
            denom = abs(1.0 + _dot(N0, target))
            if denom > 1e-12:
                gibbs = gibbs_rotation(N0, target) @ want
                assert deviation(got, gibbs) <= 4 * (1.0 + 1.0 / denom) * max(1.0, np.abs(gibbs).max())
        # a direction off the unit quadric is refused the same way
        off = (1.0 + 1e-9) * delta
        assert_same(outcome(lambda d: reduce_to_real(d).matrix, off), outcome(plain_reduce_to_real, off))

    @given(b=st.one_of(spinors, boosted))
    @example(b=SIGNED_ZERO_SPINORS[0])
    @example(b=SIGNED_ZERO_SPINORS[1])
    @example(b=SIGNED_ZERO_SPINORS[2])
    def test_lorentz4_from_spinor(self, b):
        for source in (b, -b):
            assert_same(lorentz4_from_spinor(source).matrix, plain_lorentz4(source))

    @given(K=any_K, zeros=st.lists(st.sampled_from([None, 0.0, -0.0]), min_size=6, max_size=6))
    @example(K=ZERO, zeros=[None] * 6)
    def test_theta_maps(self, K, zeros):
        # some parts replaced by zeros of either sign
        re_im = [z if z is not None else x for x, z in zip(K.view(float).tolist(), zeros)]
        K = parts(re_im[0::2], re_im[1::2])
        theta = K_to_theta(K)
        assert_same(theta, plain_K_to_theta(K))
        assert_same(theta_to_K(theta), K)

    @given(K=any_K, gamma=gammas, z_seed=seeds)
    @example(K=REAL_AXIS, gamma=1.0 + 0.5j, z_seed=0)
    @example(K=EXACT_ISOTROPIC, gamma=0j, z_seed=1)
    def test_stabilizer_and_factorization(self, K, gamma, z_seed):
        rng = np.random.default_rng(z_seed)
        nrm = _norm(K)
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) / (nrm if nrm > 0.0 else 1.0)
        # each family refuses the other's input, with the same message
        got = outcome(lambda: element_of(isotropic_stabilizer_element(z, K)))
        assert_same(got, outcome(plain_isotropic_element, z, K))
        unit_K = K / nrm if nrm > 0.0 else K
        assert_same(outcome(lambda: element_of(stabilizer_element(gamma, unit_K))),
                    outcome(plain_stabilizer_element, gamma, unit_K))
        delta = outcome(plain_unit_delta, K)[1]
        if isinstance(delta, str):
            if isinstance(got[0], str):
                return
            b = SpinorElement(got[0], got[1])
            for source in (b, -b):
                for order in FactorOrder:
                    assert_factor_isotropic(source, order)
        else:
            got = outcome(lambda: element_of(stabilizer_element(gamma, delta)))
            assert_same(got, outcome(plain_stabilizer_element, gamma, delta))
            if isinstance(got[0], str):
                return
            b = SpinorElement(got[0], got[1])
        for order in FactorOrder:
            assert_factor(b, order)
            assert_factor(-b, order)

    @given(b1=spinors, b2=spinors)
    def test_compose(self, b1, b2):
        assert_same(spinor_of(spinor_compose(b1, b2)), plain_compose(b1, b2))

    @given(b=spinors, exp=st.floats(-13.0, -8.0), flip=st.booleans())
    def test_constructor_checks(self, b, exp, flip):
        # perturbations straddling DEFAULT_TOL: accepted or refused alike,
        # with the same message
        eps = (-1.0 if flip else 1.0) * 10.0 ** exp
        k0 = b.k0 * (1.0 + eps)
        assert_same(outcome(lambda: spinor_of(SpinorElement(k0, b.k))), outcome(plain_spinor, k0, b.k))
        k = b.k * (1.0 + eps)
        assert_same(outcome(lambda: spinor_of(project_to_group(b.k0, k))), outcome(plain_project, b.k0, k))
        # k0^2 - k.k = 10**exp against 1e-12 (|k0|^2 + ||k||^2), ||k||^2 = 2e4
        k = 100.0 * parts([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        k0 = math.sqrt(10.0 ** exp)
        assert_same(outcome(lambda: spinor_of(project_to_group(k0, k))), outcome(plain_project, k0, k))
        gd = plain_gamma_delta(b)
        if gd is None:
            return
        delta = gd[1] * (1.0 + eps)
        assert_same(outcome(lambda: element_of(stabilizer_element(0.3, delta))),
                    outcome(plain_stabilizer_element, 0.3, delta))

    @given(seed=seeds, exp=st.integers(-14, -6), rapidity=st.floats(-8.0, 8.0))
    def test_su2_kind(self, seed, exp, rapidity):
        e = _unit(np.random.default_rng(seed))
        rot = SpinorElement(math.cos(rapidity / 2), -1j * math.sin(rapidity / 2) * e)
        boost = SpinorElement(math.cosh(rapidity / 2), math.sinh(rapidity / 2) * e + 0j)
        nudge = 10.0 ** exp * (e + 1j * e)
        mixed = (project_to_group(rot.k0, rot.k + nudge), project_to_group(boost.k0, boost.k + nudge))
        for b in (rot, boost, *mixed):
            assert_same(outcome(lambda: verify_su2_boost_identities(b)["kind"]), outcome(plain_su2_kind, b))

    @given(seed=seeds, exp=st.floats(-12.0, -3.0), negative=st.booleans(), below=st.booleans())
    def test_isotropy_guards(self, seed, exp, negative, below):
        # k = u + i p + t w with w = u x p, so k.k = t^2 (up to rounding):
        # the isotropy guards of scale_freedom_report and factor_isotropic,
        # straddled in k.k (eps_iso) and in k0 (DEFAULT_TOL)
        rng = np.random.default_rng(seed)
        u = _unit(rng)
        p = rng.normal(size=3)
        p -= (p @ u) * u
        p /= np.sqrt(p @ p)
        w = np.cross(u, p)
        t = 10.0 ** exp
        k = u + 1j * p + t * w
        refused = abs(_dot(k, k)) > EPS_ISO * _square(_norm(k))
        got = outcome(lambda: scale_freedom_report(k, 1.3, 0.4)["max_residual"])
        assert (got == ("NotIsotropic", "k.k must vanish within tolerance")) == refused
        k0 = 1.0 - t if below else 1.0 + t
        sources = [SpinorElement(-k0 if negative else k0, u + 1j * p + np.sqrt(complex(k0 * k0 - 1.0)) * w)]
        # k0 = +-1 exactly and a small isotropic part, so that k.k = t^2 / 1e6
        # decides against eps_iso ||k||^2
        small = outcome(SpinorElement, -1.0 if negative else 1.0, 1e-3 * (u + 1j * p + t * w))
        if isinstance(small, SpinorElement):
            sources.append(small)
        for b in sources:
            for order in FactorOrder:
                assert_factor_isotropic(b, order)


# ---------------------------------------------------------------------------
# Agreement with the numpy forms the library used before the scalar kernels:
# matmul dots, np.linalg.norm and np.cross.  Each bound is 4 eps times the
# magnitude of the output and the condition of its formula: kappa =
# ||K||^2 / |K.K| for the split of K (cosh 2 rho = kappa sets the size of S),
# 1 + |gamma| more for the stabilizer element.  Measured worst over 90000
# seeded draws of the kinds above, in eps: invariants 1.9, kscalar and Delta
# 2.9, S 1.5, Kcanon 2.5, stabilizer element 0.7, compose 1.8, rotation
# factor 1.0 and boost factor 1.3.  The rotation between two real directions,
# the image of one spinor, is compared with the Gibbs-vector form it
# replaced, of condition 1 / |1 + src.dst|, within 4 eps (1 + 1 / |1 +
# src.dst|) times the size of S (measured worst 2.3 over 30000 random and
# near-antiparallel pairs, and 3.0 for S with a target over 30000 K of the
# kinds above).  The image O(k), now written
# out entry by entry, is compared with the matmul form I + 2 (i k0 k^x -
# (k^x)^2) within 4 eps max(1, ||O||) (measured worst 2.2 over 20000 draws
# up to rapidity 30), and with the 2x2 trace oracle within 8 eps: the
# oracle's four 2x2 products round too, and differ from the matmul form by
# up to 4.2 eps (the written-out form: 5.1).
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps


def matmul_unit_delta(K):
    ksq = complex(K @ K)
    mu = 0.5 * math.atan2(ksq.imag, ksq.real)
    if mu < 0.0:
        mu += np.pi
    kscalar = complex(np.sqrt(float(np.hypot(ksq.real, ksq.imag))) * np.exp(1j * mu))
    return kscalar, K / kscalar


def matmul_stabilizer_spinor(t, K):
    half = 0.5 * t
    w = half * cmath.sqrt(complex(K @ K))
    return complex(np.cos(w)), (-1j * half * (complex(np.sin(w)) / w if w else 1.0)) * K


def matmul_canonical_frame(K):
    kscalar, delta = matmul_unit_delta(K)
    N, M = delta.real, delta.imag
    N0, mnorm = N / np.linalg.norm(N), np.linalg.norm(M)
    S = np.eye(3, dtype=complex)
    if mnorm > 1e-12 * max(1.0, np.linalg.norm(N)):
        u = np.cross(M / mnorm, N0)
        u /= np.linalg.norm(u)
        S = so3c_from_spinor(SpinorElement(*matmul_stabilizer_spinor(1j * math.asinh(mnorm), u))).matrix
    e = (S @ delta).real
    return S, kscalar * e / np.linalg.norm(e)


def matmul_so3c(k0, k):
    kx = axial(k)
    return EYE3 + 2.0 * (1j * k0 * kx - kx @ kx)


def matmul_rotation_between(src, dst):
    c = np.cross(src, dst) / (1.0 + src @ dst)
    cx = axial(c).real
    return EYE3 + 2.0 * (cx + cx @ cx) / (1.0 + c @ c)


def matmul_factors(b, cross_sign):
    """Unsigned rotation (a0, a) and boost (b0, b) of the factorization."""
    n0, m0, n, m = b.n0, b.m0, b.n, b.m
    r = np.sqrt(n0 * n0 + n @ n)
    return (n0 / r, n / r), (r, (n0 * m - m0 * n + cross_sign * np.cross(m, n)) / r)


def deviation(got, want):
    """Largest entrywise |got - want|, in eps."""
    return float(np.abs(np.asarray(got) - np.asarray(want)).max()) / EPS


class TestAgreementWithMatmul:
    @given(K=any_K, k=st.integers(-700, 700))
    @example(K=ATAN2_CASE, k=0)
    @example(K=ATAN2_CASE, k=-700)
    @example(K=TINY_I2, k=-284)
    @example(K=TINY_I2, k=-449)
    @example(K=IMAGINARY_AXIS, k=700)
    def test_mu_agrees_with_arctan2(self, K, k):
        # mu is math.atan2 of the invariants of K scaled into the window; on
        # K times 2**k (1e-311 to 1e311 here) it agrees with np.arctan2 of
        # the invariants of K within 2 ulp: numpy's arctan2 and libm's differ
        # in the last bit for a few per cent of arguments
        with np.errstate(over="ignore", under="ignore"):
            Kk = np.ldexp(K.view(float), k)
        if not pinned(K) or not np.array_equal(np.ldexp(Kk, -k), K.view(float)):
            return  # the scaled K is not exact
        ksq = _dot(K, K)
        want = 0.5 * float(np.arctan2(ksq.imag, ksq.real))
        if want < 0.0:
            want += math.pi
        mu = invariants(Kk.view(complex))[3]
        assert abs(mu - want) <= 2 * math.ulp(want)

    @given(K=any_K, gamma=gammas)
    @example(K=HYPOT_CASE, gamma=1.0 + 0.5j)
    @example(K=IMAGINARY_AXIS, gamma=0j)
    def test_split_frame_and_stabilizer(self, K, gamma):
        nrm = np.linalg.norm(K)
        i1, i2, _, _ = invariants(K)
        ksq = complex(K @ K)
        assert deviation([i1, i2], [ksq.real, ksq.imag]) <= 4 * nrm * nrm
        if not pinned(K) or classify(K).klass is not NCClass.NON_ISOTROPIC:
            return
        kappa = nrm * nrm / abs(ksq)
        kscalar, delta = unit_delta(K)
        want_kscalar, want_delta = matmul_unit_delta(K)
        # on the Ia/Ib boundary the branch of sqrt(K.K) follows a rounded
        # invariant, so either sign may be taken
        sign = 1.0 if abs(kscalar - want_kscalar) <= abs(kscalar + want_kscalar) else -1.0
        assert deviation(kscalar, sign * want_kscalar) <= 4 * kappa * abs(kscalar)
        assert deviation(delta, sign * want_delta) <= 4 * kappa * np.abs(delta).max()
        S, kcanon = canonical_frame(K)
        want_S, want_kcanon = matmul_canonical_frame(K)
        assert deviation(S.matrix, want_S) <= 4 * kappa * max(1.0, np.abs(want_S).max())
        assert deviation(kcanon, want_kcanon) <= 4 * kappa * abs(kscalar)
        b = stabilizer_element(gamma, delta).spinor
        want_k0, want_k = matmul_stabilizer_spinor(gamma, delta)
        scale = max(1.0, abs(want_k0), np.abs(want_k).max())
        assert deviation([b.k0, *b.k], [want_k0, *want_k]) <= 4 * kappa * (1.0 + abs(gamma)) * scale

    @given(b=st.one_of(spinors, boosted))
    @example(b=SIGNED_ZERO_SPINORS[0])
    @example(b=SIGNED_ZERO_SPINORS[1])
    @example(b=SIGNED_ZERO_SPINORS[2])
    def test_so3c(self, b):
        O = so3c_from_spinor(b).matrix
        assert_same(np.array(_so3c(b.k0, b.k.tolist())), O)  # the kernel covariance_residual uses
        want = matmul_so3c(b.k0, b.k)
        scale = max(1.0, np.abs(O).max())
        assert deviation(O, want) <= 4 * scale
        assert deviation(O, so3c_oracle(b)) <= 8 * scale
        # the diagonal 1 + 2 (k_j k_j + k_l k_l) does not cancel: entrywise
        # within 4 eps of its own scale, not of ||O|| (measured worst 2.0)
        kk = np.abs(b.k) ** 2
        for i in range(3):
            assert deviation(O[i, i], want[i, i]) <= 4 * (1.0 + 2.0 * (kk[(i + 1) % 3] + kk[(i + 2) % 3]))
        # as in I + X, no part of O is a negative zero
        zeros = O.view(float)[O.view(float) == 0.0]
        assert not np.signbit(zeros).any()

    @given(src=units, dst=units)
    def test_rotation_between(self, src, dst):
        # the rotation between two real directions is reduce_to_real of a real Delta
        denom = abs(1.0 + src @ dst)
        if denom > 1e-12:
            assert deviation(reduce_to_real(src, dst).matrix, matmul_rotation_between(src, dst)) <= 4 * (1 + 1 / denom)

    @given(b1=spinors, b2=spinors)
    def test_compose_and_factors(self, b1, b2):
        b = spinor_compose(b1, b2)
        want_k0 = b1.k0 * b2.k0 + complex(b1.k @ b2.k)
        want_k = b1.k0 * b2.k + b2.k0 * b1.k + 1j * np.cross(b1.k, b2.k)
        scale = abs(b1.k0) * abs(b2.k0) + np.linalg.norm(b1.k) * np.linalg.norm(b2.k)
        assert deviation([b.k0, *b.k], [want_k0, *want_k]) <= 4 * scale
        for order, cross_sign in ((FactorOrder.ROTATION_FIRST, 1.0), (FactorOrder.BOOST_FIRST, -1.0)):
            pair = FACTORS[order](b)
            (a0, a), (b0, bk) = matmul_factors(b, cross_sign)
            rotation, boost = pair.rotation, pair.boost
            assert deviation([rotation.k0, *rotation.k], pair.sign * np.array([a0, *(-1j * a)])) <= 4
            assert deviation([boost.k0, *boost.k], [b0, *bk]) <= 4 * b0


# ---------------------------------------------------------------------------
# The straight-line frame kernels against the list-building forms they
# replaced (as of 0e77fb6), frozen here: the same bits, or the same
# exception type and message.  _theta_to_K tests finiteness on the signed sum
# of the 16 entries and takes the scale only above tol; _reduce_to_real
# takes its norms as math.hypot of the real parts and writes the cross
# product out; _canonical takes Re(S Delta) row by row.  The helpers they
# call (_require_finite, _small_group, _so3c, ...) are the library's own.
# ---------------------------------------------------------------------------


def frozen_theta_to_K(rows, tol):
    (t00, t01, t02, t03), (t10, t11, t12, t13), (t20, t21, t22, t23), (t30, t31, t32, t33) = rows
    entries = [abs(x) for row in rows for x in row]
    _kernels._require_finite(entries, sum(entries), "theta")
    scale = max(entries)
    resid = max(
        2.0 * max(abs(t00), abs(t11), abs(t22), abs(t33)),
        abs(t01 + t10), abs(t02 + t20), abs(t03 + t30),
        abs(t12 + t21), abs(t13 + t31), abs(t23 + t32),
    )
    if resid > tol * max(1.0, scale):
        raise NotAntisymmetric(f"theta + theta^T residual {resid:.3e}")
    return [complex(t23, t01), complex(t31, t02), complex(t12, t03)]


def frozen_reduce_to_real(delta, e_target):
    a, b, c = delta
    n1, n2, n3, m1, m2, m3 = a.real, b.real, c.real, a.imag, b.imag, c.imag
    ch = _kernels._norm([n1, n2, n3])
    if ch < 1.0 - DEFAULT_TOL:
        raise DegenerateDelta(f"||Re delta|| = {ch:.15g} < 1")
    N0 = [n1 / ch, n2 / ch, n3 / ch]
    mnorm = _kernels._norm([m1, m2, m3])
    k0, k = 1 + 0j, [0j, 0j, 0j]
    if mnorm > 1e-12 * max(1.0, ch):
        u1, u2, u3 = u = _kernels._cross([m1 / mnorm, m2 / mnorm, m3 / mnorm], N0)
        unorm = _kernels._norm(u)
        if unorm < 1e-8:
            raise DegenerateDelta("Re delta and Im delta are parallel")
        k0, k = _kernels._small_group(1j * math.asinh(mnorm), [u1 / unorm, u2 / unorm, u3 / unorm])
    if e_target is not None:
        k0, k = _kernels._compose(*_kernels._turn_to(N0, _kernels._unit_target(e_target)), k0, k)
    return _kernels._so3c(k0, k)


def frozen_canonical(kscalar, delta):
    S = frozen_reduce_to_real(delta, None)
    a, b, c = _kernels._apply(S, delta)
    u1, u2, u3 = a.real, b.real, c.real
    nrm = _kernels._norm([u1, u2, u3])
    if not 0.0 < nrm < math.inf:
        raise DegenerateDelta(f"||Re(S Delta)|| = {nrm:.15g}: no finite real direction")
    return S, [kscalar * (u1 / nrm), kscalar * (u2 / nrm), kscalar * (u3 / nrm)]


def raised(fn, *args):
    """fn(*args), or the library error or ValueError it raises as (type name, message)."""
    try:
        return fn(*args)
    except (ValueError, NcframeError) as exc:
        return type(exc).__name__, str(exc)


def assert_kernel(kernel, frozen, *args):
    got, want = raised(kernel, *args), raised(frozen, *args)
    assert_same(got, want)
    return want


def antisymmetric_rows(rng, scale):
    """theta as 4 rows of Python floats: exactly antisymmetric, entries of about ``scale``."""
    theta = scale * rng.uniform(0.5, 1.0, size=(4, 4)) * rng.choice([-1.0, 1.0], size=(4, 4))
    theta = np.triu(theta, 1)
    return (theta - theta.T).tolist()


POSITIONS = [(i, j) for i in range(4) for j in range(4)]
THETA_SCALES = [10.0**p for p in range(-300, 301, 25)]
THETA_TOLS = (0.0, 1e-300, 1e-12, 1e-9, 0.5)


def rapidity_delta(rng, rapidity):
    """A unit Delta = cosh(r) u + i sinh(r) p (u, p orthonormal), turned by a random phase of u, p."""
    u = _unit(rng)
    p = rng.normal(size=3)
    p -= (p @ u) * u
    p /= np.sqrt(p @ p)
    return (math.cosh(rapidity) * u + 1j * math.sinh(rapidity) * p).tolist()


class TestFrozenKernels:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_theta_non_finite_at_each_position(self, value):
        rng = np.random.default_rng(1)
        for scale in (0.0, 1e-300, 1.0, 1e300):
            for i, j in POSITIONS:
                rows = antisymmetric_rows(rng, scale)
                rows[i][j] = value
                want = assert_kernel(_kernels._theta_to_K, frozen_theta_to_K, rows, 1e-12)
                assert want == ("NonFiniteInput", "theta has a NaN or infinite entry")

    def test_theta_infinities_that_cancel(self):
        # +inf and -inf make the signed sum NaN, wherever they sit; so do a
        # finite overflow to +inf and a -inf entry after it
        rng = np.random.default_rng(2)
        for (i, j), (k, l) in itertools.permutations(POSITIONS, 2):
            rows = antisymmetric_rows(rng, 1.0)
            rows[i][j], rows[k][l] = math.inf, -math.inf
            assert assert_kernel(_kernels._theta_to_K, frozen_theta_to_K, rows, 1e-12)[0] == "NonFiniteInput"
        for k, l in POSITIONS[2:]:
            rows = antisymmetric_rows(rng, 1.0)
            rows[0][0], rows[0][1], rows[k][l] = 1.5e308, 1.5e308, -math.inf
            assert assert_kernel(_kernels._theta_to_K, frozen_theta_to_K, rows, 1e-12)[0] == "NonFiniteInput"

    def test_theta_finite_sums_that_overflow(self):
        # the signed sum overflows, the scan finds every entry finite, and
        # the antisymmetry test decides, as it did on the sum of |entries|
        rng = np.random.default_rng(3)
        outcomes = set()
        for seed in range(200):
            rows = antisymmetric_rows(rng, 1.7e308)
            if seed % 2:  # same signs everywhere: not antisymmetric, residual inf
                rows = [[abs(x) for x in row] for row in rows]
            if seed % 3 == 0:
                i, j = POSITIONS[seed % 16]
                rows[i][j] = math.nextafter(rows[i][j], 0.0)
            total = sum(x for row in rows for x in row)
            want = assert_kernel(_kernels._theta_to_K, frozen_theta_to_K, rows, 1e-12)
            outcomes.add((math.isfinite(total), type(want) is list))
        assert (False, True) in outcomes and (False, False) in outcomes

    @pytest.mark.parametrize("tol", THETA_TOLS)
    def test_theta_residual_at_the_bound(self, tol):
        # residuals just below, at and just above tol * max(1, scale), and at
        # tol itself, on the diagonal and on each off-diagonal pair
        rng = np.random.default_rng(4)
        decisions = set()
        for scale in THETA_SCALES:
            for i, j in POSITIONS:
                rows = antisymmetric_rows(rng, scale)
                rows[i][j] = rows[j][i] = 0.0
                bound = tol * max(1.0, max(abs(x) for row in rows for x in row))
                for r in (math.nextafter(bound, 0.0), bound, math.nextafter(bound, math.inf),
                          tol, math.nextafter(tol, math.inf)):
                    rows[i][j] = 0.5 * r if i == j else r
                    want = assert_kernel(_kernels._theta_to_K, frozen_theta_to_K, rows, tol)
                    decisions.add(type(want) is list)
        assert decisions == {True, False}

    @given(seed=seeds, exp=st.integers(-300, 300), tol=st.sampled_from(THETA_TOLS), skew=st.floats(0.0, 1e-6))
    def test_theta_scales(self, seed, exp, tol, skew):
        rng = np.random.default_rng(seed)
        rows = antisymmetric_rows(rng, 10.0**exp)
        i, j = POSITIONS[seed % 16]
        rows[i][j] *= 1.0 + skew
        assert_kernel(_kernels._theta_to_K, frozen_theta_to_K, rows, tol)

    def test_canonical_and_reduce_across_the_window(self):
        # the split Delta of every boundary subcase and of generic K, for K
        # from 1e-300 to 1e300 (the split is that of the scaled view Ks)
        targets = (None, [0.0, 0.0, 1.0], _unit(np.random.default_rng(5)).tolist())
        for kind in KINDS[:-1]:
            for exp in range(-300, 301, 20):
                for seed in range(3):
                    split = _kernels._view(k_of_kind(kind, exp, seed).tolist(), EPS_ISO)[4]
                    assert_kernel(_kernels._canonical, frozen_canonical, *split)
                    for target in targets:
                        assert_kernel(_kernels._reduce_to_real, frozen_reduce_to_real, split[1], target)

    @pytest.mark.parametrize("rapidity", range(16, 31))
    def test_canonical_and_reduce_at_high_rapidity(self, rapidity):
        rng = np.random.default_rng(rapidity)
        for exp in range(-135, 136, 15):
            kscalar = 10.0**exp * complex(*rng.normal(size=2))
            delta = rapidity_delta(rng, rapidity + rng.uniform(0.0, 1.0))
            assert_kernel(_kernels._canonical, frozen_canonical, kscalar, delta)
            assert_kernel(_kernels._reduce_to_real, frozen_reduce_to_real, delta, None)
            # the same Delta through the scaled view of K = kscalar * Delta:
            # isotropic within EPS_ISO at these rapidities, and K.K rounds to
            # 0 in some draws, so at eps_iso = 0 where it splits
            split = _kernels._view([kscalar * d for d in delta], 0.0)[4]
            if split is not None:
                assert_kernel(_kernels._canonical, frozen_canonical, *split)

    def test_canonical_and_reduce_refusals(self):
        # a real Delta (no boost), Re and Im parallel, ||Re Delta|| < 1, a
        # target off the unit sphere, and S Delta beyond the float range
        cases = [
            ([complex(1.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0)], [0.0, 1.0, 0.0]),
            ([complex(1.5, 1.118033988749895), 0j, 0j], None),
            ([complex(0.5, 0.0), complex(0.0, 0.0), 0j], None),
            ([complex(1.25, 0.0), complex(0.0, 0.75), 0j], [0.0, 2.0, 0.0]),
            ([complex(1.25, 0.0), complex(0.0, 0.75), 0j], [math.nan, 0.0, 1.0]),
        ]
        for delta, target in cases:
            assert_kernel(_kernels._reduce_to_real, frozen_reduce_to_real, delta, target)
            assert_kernel(_kernels._canonical, frozen_canonical, 1.0 + 0j, delta)
        for K in (OVERFLOWING_FRAME, [x / 1e300 for x in OVERFLOWING_FRAME]):
            split = _kernels._view([complex(x, y) for x, y in zip(K[:3], K[3:])], 0.0)[4]
            want = assert_kernel(_kernels._canonical, frozen_canonical, *split)
            assert want[0] == "DegenerateDelta"
