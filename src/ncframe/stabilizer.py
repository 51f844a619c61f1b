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

from dataclasses import dataclass

import numpy as np

from ._kernels import (
    EPS_ISO, NCClass, Subcase, _K_to_theta, _canonical, _dot, _invariants, _ldexp, _reduce_to_real,
    _require_unit_square, _theta_to_K, _view,
)
from .errors import IsotropicInput, NotIsotropic, ZeroVector
from .group import (
    ComplexRotation,
    Lorentz4,
    SpinorElement,
    _stabilizer_spinor,
    _trusted,
    lorentz4_from_spinor,
    so3c_from_spinor,
)
from .linalg import ComplexVec3, RealMat4, rmat4, rvec3, vec3


@dataclass(frozen=True)
class NCParameter:
    """Classified noncommutativity data: K, its invariants and its orbit class.

    theta is not stored: ``K_to_theta(param.K)`` gives it back exactly.
    """

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
    inf entries raise :class:`NonFiniteInput`.  theta is antisymmetric when
    every entry of theta + theta^T is within tol * max(1, max |theta_ij|); a
    tol that is not finite and >= 0 raises ValueError.
    """
    return np.array(_theta_to_K(rmat4(theta).tolist(), tol), dtype=complex)


def K_to_theta(K) -> RealMat4:
    """Inverse of :func:`theta_to_K`; exact by construction."""
    return np.array(_K_to_theta(vec3(K).tolist()), dtype=float)


def invariants(K) -> tuple[float, float, float, float]:
    """Return (I1, I2, I, mu) with mu = atan2(I2, I1)/2 folded into [0, pi).

    mu is scale-free, from K scaled by a power of two as in :func:`classify`;
    I1, I2 and I are those of K as given, in its units squared (they can
    overflow or underflow).  NaN or inf entries raise :class:`NonFiniteInput`.
    """
    K = vec3(K)
    _, e, scaled, _, _ = _viewed(K, EPS_ISO)
    return (*(_invariants(K.tolist()) if e else scaled)[:3], scaled[3])


def classify(K, eps_iso: float = EPS_ISO) -> NCParameter:
    """Classify K into commutative / non-isotropic / isotropic with subcase.

    Commutative means K = 0; isotropic means |K.K| <= eps_iso * ||K||^2.
    Ia/Ib (I2 = 0) and IIa/IIb (I1 = 0) are detected relative to I = |K.K|.
    Labels and mu come from K scaled by an exact power of two, so the units
    of K do not matter; I1, I2 and I are those of K as given (they can
    overflow or underflow).  NaN or inf entries raise :class:`NonFiniteInput`.
    """
    K = vec3(K)
    _, e, scaled, label, _ = _viewed(K, eps_iso)
    given = _invariants(K.tolist()) if e else scaled
    (i1, i2, mag, _), (mu, klass, subcase) = given, label
    return _trusted(NCParameter, K=K.copy(), I1=i1, I2=i2, I=mag, mu=mu, klass=klass, subcase=subcase)


# _last is the scaled view of the last K that a public function viewed, under
# the key (raw bytes of the coerced complex128 K, eps_iso): classify,
# unit_delta and canonical_frame on one K view it once.  The key is the exact
# bytes, so a mutated input or a zero of the other sign misses and every
# result keeps its bits; a NaN or inf K raises before anything is stored.
# The tuple is replaced in one assignment and read once per call, so
# concurrent callers at worst miss.  No list in it leaves the module
# uncopied, so no caller can mutate it.
_last: tuple = (None, None)


def _viewed(K: ComplexVec3, eps_iso: float) -> tuple:
    """:func:`_view` of the coerced complex128 K, through the memo ``_last``."""
    global _last
    key = (K.tobytes(), eps_iso)
    memo = _last
    if memo[0] != key:
        memo = (key, _view(K.tolist(), eps_iso))
        _last = memo
    return memo[1]


_NO_SPLIT = "K.K = 0 within tolerance: no unit-square direction exists"


def unit_delta(K, eps_iso: float = EPS_ISO) -> tuple[complex, ComplexVec3]:
    """Split a non-isotropic K into Kscalar * Delta with Delta.Delta = 1.

    Kscalar = sqrt(I) * exp(i*mu) on the principal branch mu in [0, pi), so
    the split is single-valued; Delta = K / Kscalar then satisfies
    Delta.Delta = (I1 + i*I2) / (I exp(2*i*mu)) = 1 identically.  NaN or inf
    entries raise :class:`NonFiniteInput`.
    """
    _, e, _, _, split = _viewed(vec3(K), eps_iso)
    if split is None:
        raise IsotropicInput(_NO_SPLIT)
    return _ldexp(split[0], e), np.array(split[1], dtype=complex)


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


def _element(family: str, t: complex, direction: list,
             gamma=None, delta=None, z=None, k=None) -> StabilizerElement:
    """The element of ``family`` whose spinor is b(t; direction), holding that
    family's two parameters (the other family's stay None)."""
    spinor = _stabilizer_spinor(t, direction)
    return _trusted(StabilizerElement, family=family, spinor=spinor, rotation=so3c_from_spinor(spinor),
                    gamma=gamma, delta=delta, z=z, k=k)


def stabilizer_element(gamma, delta) -> StabilizerElement:
    """Element O(gamma, Delta) of the Abelian family fixing every multiple of Delta.

    Requires Delta.Delta = 1.  Re(gamma) is the rotation-like parameter,
    Im(gamma) the boost-like one; elements with the same Delta commute and
    compose by adding gamma.

    The element is the small-group spinor b(gamma; Delta) of
    ``group._stabilizer_spinor``, which fixes Delta for any Delta.Delta; for
    a unit Delta it is cos(gamma/2) - i sin(gamma/2) Delta.sigma, a rotation
    for real gamma and Delta, a boost for imaginary gamma and real Delta.
    """
    delta = vec3(delta)
    dl = delta.tolist()
    _require_unit_square(dl)
    gamma = complex(gamma)
    return _element("non-isotropic", gamma, dl, gamma=gamma, delta=delta.copy())


def isotropic_stabilizer_element(z, k, eps_iso: float = EPS_ISO) -> StabilizerElement:
    """Element O(z*k) of the additive family fixing an isotropic k.

    The underlying spinor is the small-group spinor b(2i z; k) of
    ``group._stabilizer_spinor``: I + z*k.sigma where k.k = 0 exactly, and
    unimodular and fixing k for a k.k inside eps_iso too.  Composition adds
    the z parameters.
    """
    k = vec3(k)
    kl = k.tolist()
    if not any(kl):  # NaN is nonzero: _viewed refuses it
        raise ZeroVector("isotropic stabilizer needs a nonzero k")
    if _viewed(k, eps_iso)[4] is not None:
        raise NotIsotropic(f"k.k = {_dot(kl, kl):.3e} is not zero within tolerance")
    z = complex(z)
    return _element("isotropic", 2j * z, kl, z=z, k=k.copy())


def reduce_to_real(delta, e_target=None) -> ComplexRotation:
    """Complex rotation S with S @ Delta = e (real unit), for Delta.Delta = 1.

    Write Delta = cosh(rho) N0 + i*sinh(rho) M0 with orthonormal real N0, M0.
    The pure boost of rapidity rho along u = M0 x N0, the small-group element
    b(i rho; u), carries Delta to N0.  For K = Kscalar * Delta it is the
    boost to the frame in which n and m are parallel, with
    cosh(2 rho) = ||Delta||^2 = ||K||^2 / |K.K|.  A real rotation r then
    carries N0 to the requested target, and S is the image of one spinor:

        S = O(r * b(i rho; u)).

    ``e_target=None`` picks e = N0, and S is the boost alone.  For real Delta
    (rho = 0) there is no boost and S is just the real rotation taking N0 to
    the target.

    S is not checked again: it is the image of a product of two spinors that
    are unimodular by construction.  rho is asinh(||Im Delta||), which does
    not cancel near rho = 0.
    """
    delta = vec3(delta).tolist()
    _require_unit_square(delta)
    target = None if e_target is None else rvec3(e_target).tolist()
    return _trusted(ComplexRotation, matrix=np.array(_reduce_to_real(delta, target), dtype=complex))


def canonical_frame(K, eps_iso: float = EPS_ISO) -> tuple[ComplexRotation, ComplexVec3]:
    """Reduce a non-isotropic K to its simplest frame.

    Returns (S, Kcanon) with Kcanon = Kscalar * e, where e = S @ Delta is a
    real unit vector.  In that frame n' and m' are both parallel to e, and
    the invariants of Kcanon equal those of K by construction.
    """
    _, e, _, _, split = _viewed(vec3(K), eps_iso)
    if split is None:
        raise IsotropicInput(_NO_SPLIT)
    S, kcanon = _canonical(*split)
    S = _trusted(ComplexRotation, matrix=np.array(S, dtype=complex))
    return S, np.array(_ldexp(kcanon, e), dtype=complex)
