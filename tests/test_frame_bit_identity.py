"""Bit identity of the frame path with its plain formulas.

``group``, ``stabilizer`` and ``factorization`` coerce each argument once, at
their public entry points, and then run on the complex 3-vectors they own
through ``linalg.bdot3``/``hnorm3``/``rnorm3``, ``ndarray.dot``, ``math.sqrt``
and ``math.cos``/``math.sin``.  The plain versions below evaluate the same
formulas the way the library first wrote them: matmul dots, np.linalg.norm,
np.cross, np.sqrt and np.exp.  Every output, and every error with its
message, must be the same, bit for bit and signed zeros included.

K sweeps magnitudes 1e-100..1e100 over the generic class, the boundary
subcases Ia/Ib/IIa/IIb and the isotropic class; the mantissas are seeded
uniform draws (full 53-bit mantissas, so every rounding step shows) or
hypothesis floats (exact values such as 0, -0.0, 0.5 and 1).
"""

import math

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from ncframe.errors import (
    ConstraintViolation,
    DegenerateDelta,
    GammaDegenerate,
    InternalInconsistency,
    IsotropicInput,
    NcframeError,
    NotIsotropic,
    NotIsotropicElement,
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
    ComplexRotation,
    GammaDelta,
    SpinorElement,
    gamma_delta_from_spinor,
    project_to_group,
    spinor_compose,
    verify_su2_boost_identities,
)
from ncframe.linalg import DEFAULT_TOL, EYE3, axial_matrix
from ncframe.sampling import random_spinor
from ncframe.stabilizer import (
    EPS_ISO,
    NCClass,
    Subcase,
    canonical_frame,
    classify,
    invariants,
    isotropic_stabilizer_element,
    reduce_to_real,
    rotation_between,
    stabilizer_element,
    unit_delta,
)

# ---------------------------------------------------------------------------
# The plain formulas.
# ---------------------------------------------------------------------------


def _dot(u, v):
    return complex(u @ v)


def _norm(v):
    return float(np.linalg.norm(v))


def plain_spinor(k0, k):
    """SpinorElement's check; returns (k0, k)."""
    k0, k = complex(k0), np.asarray(k, dtype=complex)
    det = k0 * k0 - _dot(k, k)
    scale = max(1.0, abs(k0) ** 2 + _norm(k) ** 2)
    if abs(det - 1.0) > DEFAULT_TOL * scale:
        raise ConstraintViolation(f"k0^2 - k.k = {det:.15g}, expected 1 (within {DEFAULT_TOL:g} relative)")
    return k0, k


def plain_unit_square(d, error):
    sq = _dot(d, d)
    if abs(sq - 1.0) > DEFAULT_TOL * max(1.0, _norm(d) ** 2):
        raise error(f"delta.delta = {sq:.15g}, expected 1")


def plain_so3c(k0, k):
    kx = axial_matrix(k)
    return ComplexRotation(EYE3 + 2.0 * (1j * k0 * kx - kx @ kx)).matrix


def plain_project(k0, k):
    k0 = complex(k0)
    det = k0 * k0 - _dot(k, k)
    if abs(det) < 1e-12 * max(1.0, abs(k0) ** 2 + _norm(k) ** 2):
        raise ConstraintViolation("cannot project: k0^2 - k.k is numerically zero")
    s = np.sqrt(det)
    return plain_spinor(k0 / s, k / s)


def plain_compose(b1, b2):
    k0 = b1.k0 * b2.k0 + _dot(b1.k, b2.k)
    k = b1.k0 * b2.k + b2.k0 * b1.k + 1j * np.cross(b1.k, b2.k)
    return plain_spinor(k0, k)


def plain_gamma_delta(b):
    ksq = _dot(b.k, b.k)
    if abs(ksq) <= 1e-12 * max(1.0, _norm(b.k) ** 2):
        raise GammaDegenerate("k.k = 0: direction undefined (deck or isotropic element)")
    half = np.arccos(complex(b.k0))
    delta = 1j * b.k / np.sin(half)
    plain_unit_square(delta, ConstraintViolation)
    return complex(2.0 * half), delta


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
    mu = 0.5 * np.arctan2(i2, i1)
    if mu < 0.0:
        mu += np.pi
    return i1, i2, mag, float(mu)


def plain_classify(K, eps_iso=EPS_ISO):
    nrm = _norm(K)
    i1, i2, mag, mu = plain_invariants(K)
    norm2 = nrm ** 2
    if np.sqrt(norm2) <= eps_iso:
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
    nrm = _norm(K)
    _, _, mag, mu = plain_invariants(K)
    if mag <= eps_iso * nrm ** 2 or nrm == 0.0:
        raise IsotropicInput("K.K = 0 within tolerance: no unit-square direction exists")
    kscalar = np.sqrt(mag) * np.exp(1j * mu)
    return complex(kscalar), K / kscalar


def plain_rotation_between(src, dst):
    denom = 1.0 + src @ dst
    if abs(denom) <= 1e-12:
        seed = np.zeros(3)
        seed[int(np.argmin(np.abs(src)))] = 1.0
        u = np.cross(src, seed)
        u /= np.linalg.norm(u)
        ux = axial_matrix(u).real
        return EYE3 + 2.0 * (ux @ ux)
    c = np.cross(src, dst) / denom
    cx = axial_matrix(c).real
    return EYE3 + 2.0 * (cx + cx @ cx) / (1.0 + c @ c)


def plain_reduce_to_real(delta, target=None):
    plain_unit_square(delta, NotUnitDelta)
    N, M = delta.real, delta.imag
    ch = _norm(N)
    if ch < 1.0 - DEFAULT_TOL:
        raise DegenerateDelta(f"||Re delta|| = {ch:.15g} < 1")
    N0 = N / ch
    target = N0 if target is None else target
    mnorm = _norm(M)
    if mnorm <= 1e-12 * max(1.0, ch):
        return ComplexRotation(plain_rotation_between(N0, target).astype(complex)).matrix
    M0 = M / mnorm
    u = np.cross(M0, N0)
    unorm = _norm(u)
    if unorm < 1e-8:
        raise DegenerateDelta("Re delta and Im delta are parallel")
    u = u / unorm
    sh = np.sqrt(max(ch * ch - 1.0, 0.0))
    uu = np.outer(u, u)
    T = uu.astype(complex) + 1j * sh * (EYE3 - uu) - ch * axial_matrix(u)
    return ComplexRotation(plain_rotation_between(M0, target).astype(complex) @ T).matrix


def plain_canonical_frame(K):
    kscalar, delta = plain_unit_delta(K)
    S = plain_reduce_to_real(delta)
    e = (S @ delta).real
    e /= np.linalg.norm(e)
    return S, kscalar * e


def plain_stabilizer_element(gamma, delta):
    plain_unit_square(delta, NotUnitDelta)
    gamma = complex(gamma)
    plain_unit_square(delta, ConstraintViolation)  # GammaDelta
    half = gamma / 2.0
    k0, k = plain_spinor(np.cos(half), -1j * np.sin(half) * delta)
    return k0, k, plain_so3c(k0, k)


def plain_isotropic_element(z, k, eps_iso=EPS_ISO):
    nrm = _norm(k)
    if nrm == 0.0:
        raise ZeroVector("isotropic stabilizer needs a nonzero k")
    if abs(_dot(k, k)) > eps_iso * nrm ** 2:
        raise NotIsotropic(f"k.k = {_dot(k, k):.3e} is not zero within tolerance")
    k0, k = plain_spinor(1.0, complex(z) * k)
    return k0, k, plain_so3c(k0, k)


def plain_factor(b, order):
    n0, m0, n, m = b.k0.real, b.k0.imag, -b.k.imag, b.k.real
    r2 = n0 * n0 + float(n @ n)
    cross_sign = 1.0 if order is FactorOrder.ROTATION_FIRST else -1.0
    B = (n0 * m - m0 * n + cross_sign * np.cross(m, n)) / r2
    b2 = float(B @ B)
    if b2 >= 1.0 - 1e-10:
        raise InternalInconsistency(
            f"boost velocity parameter ||B||^2 = {b2:.15g} reached 1; "
            "input is not a valid group element (or is boosted beyond double range)"
        )
    b0 = 1.0 / np.sqrt(1.0 - b2)
    boost = plain_spinor(b0, b0 * B + 0j)
    r = np.sqrt(r2)
    a0, a = n0 / r, n / r
    sign = 1
    if a0 < 0.0:
        a0, a, sign = -a0, -a, -1
    return plain_spinor(a0, -1j * a), boost, sign


def plain_factor_isotropic(b, order, eps_iso=EPS_ISO):
    k0 = complex(b.k0)
    sgn = 1 if abs(k0 - 1.0) <= abs(k0 + 1.0) else -1
    nrm2 = _norm(b.k) ** 2
    if abs(k0 - sgn) > DEFAULT_TOL or abs(_dot(b.k, b.k)) > eps_iso * max(1e-300, nrm2):
        raise NotIsotropicElement("element must have k0 = +-1 and k.k = 0")
    kappa = b.k / sgn
    n, m = -kappa.imag, kappa.real
    n2 = float(n @ n)
    b0 = np.sqrt(1.0 + n2)
    a0 = 1.0 / b0
    cross_sign = -1.0 if order is FactorOrder.ROTATION_FIRST else 1.0
    bvec = b0 * (m + cross_sign * np.cross(n, m)) / (1.0 + n2)
    return plain_spinor(a0, -1j * a0 * n), plain_spinor(b0, bvec + 0j), sgn


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


def element_of(elem):
    return elem.spinor.k0, elem.spinor.k, elem.rotation.matrix


def gamma_delta_of(gd):
    return gd.gamma, gd.delta


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


def parts(re, im):
    """Complex array with the exact parts given, signed zeros included."""
    out = np.empty(len(re), dtype=complex)
    out.real, out.imag = re, im
    return out


REAL_AXIS = parts([2.0, -0.0, 0.0], [0.0, -0.0, 0.0])         # Ia, real delta
IMAGINARY_AXIS = parts([0.0, 0.0, -0.0], [0.0, 3.0, 0.0])     # Ib
EXACT_ISOTROPIC = parts([1.0, 0.0, -0.0], [0.0, 1.0, 0.0])
ZERO = parts([-0.0, 0.0, -0.0], [0.0, -0.0, 0.0])
# K.K where math.hypot and math.atan2 round differently from np.hypot and
# np.arctan2, which the invariants keep
HYPOT_CASE = parts([-0.31664963176331873, 0.8562268420291475, 0.7794565770190949],
                   [-0.038997966707707166, -0.0904803628348374, 0.3339860877077614])
ATAN2_CASE = parts([0.0027144088342523354, 0.38155154241339884, 0.39462696471760217],
                   [-0.9885746201441636, -0.9218689334883712, -0.701923378368901])


class TestBitIdentity:
    @given(K=any_K)
    @example(K=REAL_AXIS)
    @example(K=IMAGINARY_AXIS)
    @example(K=EXACT_ISOTROPIC)
    @example(K=ZERO)
    @example(K=HYPOT_CASE)
    @example(K=ATAN2_CASE)
    def test_classify(self, K):
        assert_same(invariants(K), plain_invariants(K))
        p = classify(K)
        assert_same((p.I1, p.I2, p.I, p.mu, p.klass, p.subcase), plain_classify(K))
        assert_same(p.K, K)

    @given(K=any_K)
    @example(K=REAL_AXIS)
    @example(K=IMAGINARY_AXIS)
    @example(K=EXACT_ISOTROPIC)
    @example(K=ZERO)
    @example(K=HYPOT_CASE)
    @example(K=ATAN2_CASE)
    def test_unit_delta_and_canonical_frame(self, K):
        assert_same(outcome(unit_delta, K), outcome(plain_unit_delta, K))
        assert_same(outcome(lambda K: frame_of(canonical_frame(K)), K), outcome(plain_canonical_frame, K))

    @given(K=any_K, target=units)
    @example(K=REAL_AXIS, target=np.array([0.0, 0.0, 1.0]))
    @example(K=IMAGINARY_AXIS, target=np.array([-1.0, 0.0, 0.0]))
    def test_reduce_to_real(self, K, target):
        delta = outcome(plain_unit_delta, K)[1]
        if isinstance(delta, str):  # isotropic: no unit direction
            return
        assert_same(outcome(lambda d: reduce_to_real(d).matrix, delta), outcome(plain_reduce_to_real, delta))
        assert_same(outcome(lambda d: reduce_to_real(d, target).matrix, delta),
                    outcome(plain_reduce_to_real, delta, target))
        # a direction off the unit quadric is refused the same way
        off = (1.0 + 1e-9) * delta
        assert_same(outcome(lambda d: reduce_to_real(d).matrix, off), outcome(plain_reduce_to_real, off))

    @given(src=units, dst=units)
    def test_rotation_between(self, src, dst):
        for d in (dst, src, -src, -src + 1e-13 * dst):
            assert_same(rotation_between(src, d), plain_rotation_between(src, d))

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
                    assert_same(outcome(lambda: pair_of(factor_isotropic(source, order))),
                                outcome(plain_factor_isotropic, source, order))
        else:
            got = outcome(lambda: element_of(stabilizer_element(gamma, delta)))
            assert_same(got, outcome(plain_stabilizer_element, gamma, delta))
            if isinstance(got[0], str):
                return
            b = SpinorElement(got[0], got[1])
        for factor, order in ((factor_rotation_boost, FactorOrder.ROTATION_FIRST),
                              (factor_boost_rotation, FactorOrder.BOOST_FIRST)):
            assert_same(outcome(lambda: pair_of(factor(b))), outcome(plain_factor, b, order))
            assert_same(outcome(lambda: pair_of(factor(-b))), outcome(plain_factor, -b, order))

    @given(b1=spinors, b2=spinors, size=st.floats(-1.0, 2.0), square=st.floats(-14.0, -8.0))
    def test_compose_and_gamma_delta(self, b1, b2, size, square):
        assert_same(spinor_of(spinor_compose(b1, b2)), plain_compose(b1, b2))
        # near the isotropic family: k = s (e1 + i e2) + c e3, so k.k = c^2
        # while ||k||^2 = 2 s^2 sets the scale of the degeneracy test
        c2 = 10.0 ** square
        near = SpinorElement(math.sqrt(1.0 + c2), parts([10.0 ** size, 0.0, math.sqrt(c2)], [0.0, 10.0 ** size, 0.0]))
        for b in (b1, near, SpinorElement.identity(), SpinorElement(1.0, parts([0.5, 0.0, 0.0], [0.0, 0.5, 0.0]))):
            got = outcome(lambda: gamma_delta_of(gamma_delta_from_spinor(b)))
            assert_same(got, outcome(plain_gamma_delta, b))

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
        gd = outcome(plain_gamma_delta, b)
        if isinstance(gd[0], str):
            return
        delta = gd[1] * (1.0 + eps)
        assert_same(outcome(lambda: GammaDelta(1.0, delta).delta), outcome(
            lambda d: plain_unit_square(d, ConstraintViolation) or d, delta))
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
        refused = abs(_dot(k, k)) > EPS_ISO * _norm(k) ** 2
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
                assert_same(outcome(lambda: pair_of(factor_isotropic(b, order))),
                            outcome(plain_factor_isotropic, b, order))
