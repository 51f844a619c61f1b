"""Stabilizer (small group) of a complex noncommutativity vector K = n + i*m.

The six real parameters of an antisymmetric 4x4 matrix theta pack into one
complex 3-vector K; a Lorentz transformation acts on K through the complex
orthogonal image O, so classifying K and building the subgroup that fixes it
solves the form-invariance problem for arbitrary theta.

Two real invariants govern everything:

    I1 = n.n - m.m,   I2 = 2 n.m,   K.K = I1 + i*I2 = I * exp(2*i*mu)

Nonzero K.K ("non-isotropic"): K = Kscalar * Delta with Delta.Delta = 1, and
the stabilizer is the Abelian two-parameter family O(gamma, Delta).  A further
complex rotation S brings Delta to a real unit vector e, putting K into the
canonical frame where it is proportional to a single real direction.
Vanishing K.K ("isotropic"): the stabilizer is the additive family O(z*k).
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDelta,
    IsotropicInput,
    NonFiniteInput,
    NotAntisymmetric,
    NotIsotropic,
    NotUnitDelta,
    ZeroVector,
)
from .group import (
    ComplexRotation,
    Lorentz4,
    SpinorElement,
    _require_unit_square,
    _spinor_from_gamma_delta,
    _trusted,
    lorentz4_from_spinor,
    so3c_from_spinor,
)
from .linalg import (
    DEFAULT_TOL,
    EYE3,
    ComplexVec3,
    RealMat4,
    axial_matrix,
    bdot3,
    cross3,
    hnorm,
    hnorm3,
    inf_norm,
    rmat4,
    rnorm3,
    rvec3,
    vec3,
)

#: Relative isotropy / commutativity threshold on |K.K| against ||K||^2.
EPS_ISO = 1e-9

# |Kscalar| = sqrt(|K.K|) below this means K.K is a subnormal float.
_SUBNORMAL_ROOT = math.sqrt(sys.float_info.min)


class NCClass(str, enum.Enum):
    COMMUTATIVE = "Commutative"
    NON_ISOTROPIC = "NonIsotropic"
    ISOTROPIC = "Isotropic"


class Subcase(str, enum.Enum):
    IA = "Ia"          # I2 = 0, I1 > 0 (mu = 0)
    IB = "Ib"          # I2 = 0, I1 < 0 (mu = pi/2)
    IIA = "IIa"        # I1 = 0, I2 > 0 (mu = pi/4)
    IIB = "IIb"        # I1 = 0, I2 < 0 (mu = 3*pi/4)
    GENERIC = "Generic"
    NONE = "None"


@dataclass(frozen=True)
class NCParameter:
    """Classified noncommutativity data: theta, K, invariants and orbit class."""

    theta: RealMat4
    K: ComplexVec3
    I1: float
    I2: float
    I: float
    mu: float | None
    klass: NCClass
    subcase: Subcase


def theta_to_K(theta, tol: float = 1e-12) -> ComplexVec3:
    """Map an antisymmetric 4x4 matrix to K = n + i*m.

    m_i = theta[0, i+1] (time-space block) and n_i = (theta[2,3], theta[3,1],
    theta[1,2]) (space-space block).  With these signs, K transforms under a
    Lorentz matrix L exactly as the complex orthogonal image O acts on
    vectors: theta_to_K(L theta L^T) = O @ theta_to_K(theta).

    No rescaling is applied: theta is taken in whatever units the caller
    uses (length^2 for a noncommutativity matrix) and K carries them.  NaN or
    inf entries raise :class:`NonFiniteInput`.
    """
    theta = rmat4(theta)
    scale = inf_norm(theta)
    _require_finite(theta, scale, "theta")
    resid = inf_norm(theta + theta.T)
    if resid > tol * max(1.0, scale):
        raise NotAntisymmetric(f"theta + theta^T residual {resid:.3e}")
    m = np.array([theta[0, 1], theta[0, 2], theta[0, 3]])
    n = np.array([theta[2, 3], theta[3, 1], theta[1, 2]])
    return n + 1j * m


def _require_finite(a, nrm: float, name: str = "K") -> None:
    """Raise :class:`NonFiniteInput` if an entry of a is NaN or infinite.

    nrm is a norm of a that the caller computes anyway; a NaN or inf entry
    makes it NaN or inf, so the entries are scanned only then (a finite K
    whose norm overflows is not rejected).
    """
    if not math.isfinite(nrm) and not np.isfinite(a).all():
        raise NonFiniteInput(f"{name} has a NaN or infinite entry")


def K_to_theta(K) -> RealMat4:
    """Inverse of :func:`theta_to_K`; exact by construction."""
    K = vec3(K)
    n, m = K.real, K.imag
    theta = np.zeros((4, 4))
    theta[0, 1:] = m
    theta[1:, 0] = -m
    theta[2, 3], theta[3, 1], theta[1, 2] = n
    theta[3, 2], theta[1, 3], theta[2, 1] = -n
    return theta


def invariants(K) -> tuple[float, float, float, float]:
    """Return (I1, I2, I, mu) with mu = atan2(I2, I1)/2 folded into [0, pi)."""
    return _invariants(vec3(K))


# The private kernels below take complex 3-vectors (real ones for
# _rotation_between) that their public callers have already coerced.


def _invariants(K: ComplexVec3) -> tuple[float, float, float, float]:
    # np.hypot and np.arctan2, not their math versions: those round
    # differently in the last bit for some arguments.
    ksq = bdot3(K, K)
    i1, i2 = ksq.real, ksq.imag
    mag = float(np.hypot(i1, i2))
    mu = 0.5 * np.arctan2(i2, i1)
    if mu < 0.0:
        mu += np.pi
    return i1, i2, mag, float(mu)


def classify(K, eps_iso: float = EPS_ISO) -> NCParameter:
    """Classify K into commutative / non-isotropic / isotropic with subcase.

    Commutative means ||K|| = 0 within eps_iso; isotropic means
    |K.K| <= eps_iso * ||K||^2.  The boundary subcases Ia/Ib (I2 = 0) and
    IIa/IIb (I1 = 0) are detected relative to I = |K.K|, so the labels are
    invariant under real rescaling of K.  NaN or inf entries raise
    :class:`NonFiniteInput`.  For a finite K whose norm overflows, the labels
    and mu come from K scaled by an exact power of two, while I1, I2 and I
    stay those of K as given (so they can be infinite or NaN).
    """
    K = vec3(K)
    nrm = hnorm3(K)
    _require_finite(K, nrm)
    i1, i2, mag, mu = _invariants(K)
    if math.isfinite(nrm):
        klass, sub, mu = _label(nrm, i1, i2, mag, mu, eps_iso)
    else:
        # ||K|| overflows although every entry is finite: label K scaled by
        # the exact power of two that brings its largest part into [0.5, 1).
        big = max(np.abs(K.real).max(), np.abs(K.imag).max())
        Ks = K * 2.0 ** -math.frexp(big)[1]
        klass, sub, mu = _label(hnorm3(Ks), *_invariants(Ks), eps_iso)
    return NCParameter(K_to_theta(K), K, i1, i2, mag, mu, klass, sub)


def _label(nrm: float, i1: float, i2: float, mag: float, mu: float,
           eps_iso: float) -> tuple[NCClass, Subcase, float | None]:
    """(class, subcase, mu) of :func:`classify` from the norm and invariants of K."""
    norm2 = nrm ** 2
    if math.sqrt(norm2) <= eps_iso:
        return NCClass.COMMUTATIVE, Subcase.NONE, None
    if mag <= eps_iso * norm2:
        return NCClass.ISOTROPIC, Subcase.NONE, None
    if abs(i2) <= eps_iso * mag:
        sub = Subcase.IA if i1 > 0 else Subcase.IB
        mu = 0.0 if i1 > 0 else np.pi / 2
    elif abs(i1) <= eps_iso * mag:
        sub = Subcase.IIA if i2 > 0 else Subcase.IIB
        mu = np.pi / 4 if i2 > 0 else 3 * np.pi / 4
    else:
        sub = Subcase.GENERIC
    return NCClass.NON_ISOTROPIC, sub, float(mu)


def classify_theta(theta, eps_iso: float = EPS_ISO, tol: float = 1e-12) -> NCParameter:
    """Classify directly from the antisymmetric matrix form."""
    K = theta_to_K(theta, tol=tol)
    param = classify(K, eps_iso=eps_iso)
    return NCParameter(rmat4(theta), param.K, param.I1, param.I2, param.I, param.mu,
                       param.klass, param.subcase)


def unit_delta(K, eps_iso: float = EPS_ISO) -> tuple[complex, ComplexVec3]:
    """Split a non-isotropic K into Kscalar * Delta with Delta.Delta = 1.

    Kscalar = sqrt(I) * exp(i*mu) on the principal branch mu in [0, pi), so
    the split is single-valued; Delta = K / Kscalar then satisfies
    Delta.Delta = (I1 + i*I2) / (I exp(2*i*mu)) = 1 identically.  NaN or inf
    entries raise :class:`NonFiniteInput`.
    """
    return _unit_delta(vec3(K), eps_iso)


def _unit_delta(K: ComplexVec3, eps_iso: float) -> tuple[complex, ComplexVec3]:
    nrm = hnorm3(K)
    _require_finite(K, nrm)
    i1, i2, mag, mu = _invariants(K)
    if mag <= eps_iso * nrm ** 2 or nrm == 0.0:
        raise IsotropicInput("K.K = 0 within tolerance: no unit-square direction exists")
    # exp(i*mu) from math.cos and math.sin, bit for bit; the + 0.0 turns the
    # -0.0 of sin(-0.0) into the +0.0 that exp gives.
    kscalar = math.sqrt(mag) * complex(math.cos(mu), math.sin(mu) + 0.0)
    return kscalar, K / kscalar


@dataclass(frozen=True)
class StabilizerElement:
    """One element of the stabilizer of K, with its realized representations.

    ``family`` is "non-isotropic" (parameters gamma, delta) or "isotropic"
    (parameters z, k).  ``rotation`` satisfies rotation.apply(K) = K.
    """

    family: str
    spinor: SpinorElement
    rotation: ComplexRotation
    gamma: complex | None = None
    delta: ComplexVec3 | None = None
    z: complex | None = None
    k: ComplexVec3 | None = None

    @property
    def lorentz4(self) -> Lorentz4:
        return lorentz4_from_spinor(self.spinor)


def stabilizer_element(gamma, delta) -> StabilizerElement:
    """Element O(gamma, Delta) of the Abelian family fixing every multiple of Delta.

    Requires Delta.Delta = 1.  Re(gamma) is the rotation-like parameter,
    Im(gamma) the boost-like one; elements with the same Delta commute and
    compose by adding gamma.

    Delta is checked once; the element and its image are not checked again,
    because k0^2 - k.k - 1 = sin^2(gamma/2) (Delta.Delta - 1) stays inside
    the element's own tolerance.  Where the closed form overflows, the
    checked constructor decides, as before.
    """
    delta = vec3(delta)
    _require_unit_square(delta, NotUnitDelta)
    gamma = complex(gamma)
    spinor = _spinor_from_gamma_delta(gamma, delta)
    return StabilizerElement(
        family="non-isotropic",
        spinor=spinor,
        rotation=so3c_from_spinor(spinor),
        gamma=gamma,
        delta=delta,
    )


def isotropic_stabilizer_element(z, k, eps_iso: float = EPS_ISO) -> StabilizerElement:
    """Element O(z*k) of the additive family fixing an isotropic k.

    The underlying spinor is I + z*k.sigma, which is already unimodular
    because (k.sigma)^2 = k.k = 0; composition adds the z parameters.
    """
    k = vec3(k)
    nrm = hnorm3(k)
    if nrm == 0.0:
        raise ZeroVector("isotropic stabilizer needs a nonzero k")
    ksq = bdot3(k, k)
    if abs(ksq) > eps_iso * nrm**2:
        raise NotIsotropic(f"k.k = {ksq:.3e} is not zero within tolerance")
    z = complex(z)
    # Checked: k.k = 0 only within eps_iso, which can be looser than the
    # element's own DEFAULT_TOL.
    spinor = SpinorElement(1.0, z * k)
    return StabilizerElement(
        family="isotropic",
        spinor=spinor,
        rotation=so3c_from_spinor(spinor),
        z=z,
        k=k,
    )


def rotation_between(src, dst) -> np.ndarray:
    """Real rotation matrix carrying unit vector src to unit vector dst.

    Uses the rational (Gibbs-vector) form O(c) = I + 2*(c^x + (c^x)^2)/(1+c.c)
    with c = src x dst / (1 + src.dst).  Antiparallel inputs fall back to the
    half-turn O = I + 2*(u^x)^2 about an axis u perpendicular to src.  NaN or
    inf entries raise :class:`NonFiniteInput`.
    """
    src, dst = rvec3(src), rvec3(dst)
    dot = float(src.dot(dst))  # not finite if an entry of either is not
    _require_finite(src, dot, "src")
    _require_finite(dst, dot, "dst")
    return _rotation_between(src, dst)


def _rotation_between(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    denom = 1.0 + src.dot(dst)
    if abs(denom) <= 1e-12:
        seed = np.zeros(3)
        seed[int(np.argmin(np.abs(src)))] = 1.0
        u = cross3(src, seed)
        u /= rnorm3(u)
        ux = axial_matrix(u).real
        return EYE3 + 2.0 * (ux @ ux)
    c = cross3(src, dst) / denom
    cx = axial_matrix(c).real
    return EYE3 + 2.0 * (cx + cx @ cx) / (1.0 + c.dot(c))


def reduce_to_real(delta, e_target=None) -> ComplexRotation:
    """Complex rotation S with S @ Delta = e (real unit), for Delta.Delta = 1.

    Write Delta = cosh(rho) N0 + i*sinh(rho) M0 with orthonormal real N0, M0.
    On the plane spanned by (N0, M0) the matrix

        T = u u^T + i*sinh(rho) (I - u u^T) - cosh(rho) u^x,   u = M0 x N0,

    acts as [[i*sh, -ch], [ch, i*sh]] and sends Delta to M0; on the axis u it
    acts as the identity, the unique completion with T^T T = I and det T = 1
    (any other scaling of the axis component breaks orthogonality).  A real
    rotation then carries M0 to the requested target:

        S = rotation_between(M0, e) @ T.

    ``e_target=None`` picks e = N0.  For real Delta (rho = 0) the plane
    degenerates and S is just the real rotation taking N0 to the target.

    For complex Delta with ch = cosh(rho) >= 1, S is not checked again:
    T^T T = I whenever sh^2 = ch^2 - 1, which holds to rounding, and the
    real rotation keeps S orthogonal; S is finite because ch is.  The
    sliver ch < 1 (Re Delta just inside the unit-square tolerance, where sh
    is held at 0) and real Delta keep the ComplexRotation check.
    """
    delta = vec3(delta)
    _require_unit_square(delta, NotUnitDelta)
    return _reduce_to_real(delta, e_target)


def _reduce_to_real(delta: ComplexVec3, e_target) -> ComplexRotation:
    """S of :func:`reduce_to_real`, for a delta with delta.delta = 1 already."""
    N, M = delta.real, delta.imag
    ch = rnorm3(N)
    if ch < 1.0 - DEFAULT_TOL:
        raise DegenerateDelta(f"||Re delta|| = {ch:.15g} < 1")
    N0 = N / ch
    mnorm = rnorm3(M)
    if mnorm <= 1e-12 * max(1.0, ch):
        target = N0 if e_target is None else _unit_target(e_target)
        return ComplexRotation(_rotation_between(N0, target).astype(complex))
    M0 = M / mnorm
    u = cross3(M0, N0)
    unorm = rnorm3(u)
    if unorm < 1e-8:
        raise DegenerateDelta("Re delta and Im delta are parallel")
    u = u / unorm
    sh = math.sqrt(max(ch * ch - 1.0, 0.0))
    uu = np.outer(u, u)
    T = uu.astype(complex) + 1j * sh * (EYE3 - uu) - ch * axial_matrix(u)
    target = N0 if e_target is None else _unit_target(e_target)
    S = _rotation_between(M0, target).astype(complex) @ T
    if ch >= 1.0:
        return _trusted(ComplexRotation, S)
    return ComplexRotation(S)


def _unit_target(e) -> np.ndarray:
    e = rvec3(e)
    nrm = hnorm(e)
    if not abs(nrm - 1.0) <= DEFAULT_TOL:  # a NaN entry fails too
        raise ValueError(f"target must be a real unit vector (norm {nrm:.15g})")
    return e


def canonical_frame(K, eps_iso: float = EPS_ISO) -> tuple[ComplexRotation, ComplexVec3]:
    """Reduce a non-isotropic K to its simplest frame.

    Returns (S, Kcanon) with Kcanon = Kscalar * e, where e = S @ Delta is a
    real unit vector.  In that frame n' and m' are both parallel to e, and
    the invariants of Kcanon equal those of K by construction.
    """
    kscalar, delta = _unit_delta(vec3(K), eps_iso)
    if abs(kscalar) < _SUBNORMAL_ROOT:
        # Delta.Delta = 1 to rounding unless K.K is subnormal and lost digits
        _require_unit_square(delta, NotUnitDelta)
    S = _reduce_to_real(delta, None)
    e = S.matrix.dot(delta).real
    e /= rnorm3(e)
    return S, kscalar * e
