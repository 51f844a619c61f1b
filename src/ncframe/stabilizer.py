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

import cmath
import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import linalg
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
    _exceeds,
    _stabilizer_spinor,
    _trusted,
    lorentz4_from_spinor,
    so3c_from_spinor,
)
from .linalg import (
    _WINDOW,
    DEFAULT_TOL,
    _apply,
    _cross,
    _dot,
    _exponent,
    _ldexp,
    _norm,
    axial_matrix,
    np,
    rmat4,
    rvec3,
    vec3,
)

if TYPE_CHECKING:
    from .linalg import ComplexVec3, RealMat4

#: Relative isotropy threshold on |K.K| against ||K||^2.
EPS_ISO = 1e-9


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
    return np.array(_theta_to_K(rmat4(theta).tolist(), tol))


def _theta_to_K(rows: list, tol: float) -> list:
    """K of :func:`theta_to_K` as a 3-list, from theta as 4 rows of 4 floats."""
    (t00, t01, t02, t03), (t10, t11, t12, t13), (t20, t21, t22, t23), (t30, t31, t32, t33) = rows
    entries = [abs(x) for row in rows for x in row]
    # max() passes over a NaN in some positions, so finiteness is settled first
    _require_finite(entries, sum(entries), "theta")
    scale = max(entries)
    resid = max(
        2.0 * max(abs(t00), abs(t11), abs(t22), abs(t33)),
        abs(t01 + t10), abs(t02 + t20), abs(t03 + t30),
        abs(t12 + t21), abs(t13 + t31), abs(t23 + t32),
    )
    if resid > tol * max(1.0, scale):
        raise NotAntisymmetric(f"theta + theta^T residual {resid:.3e}")
    return [complex(t23, t01), complex(t31, t02), complex(t12, t03)]


def _require_finite(a: list, nrm: float, name: str = "K") -> None:
    """Raise :class:`NonFiniteInput` if an entry of the list a is NaN or
    infinite; the entries are scanned only when nrm, a norm of a, is not
    finite."""
    if not math.isfinite(nrm) and not all(map(cmath.isfinite, a)):
        raise NonFiniteInput(f"{name} has a NaN or infinite entry")


def K_to_theta(K) -> RealMat4:
    """Inverse of :func:`theta_to_K`; exact by construction."""
    return np.array(_K_to_theta(vec3(K).tolist()))


def _K_to_theta(K: list) -> list:
    """theta of :func:`K_to_theta` as 4 rows of 4 floats, from the 3-list of K."""
    (n1, m1), (n2, m2), (n3, m3) = ((z.real, z.imag) for z in K)
    return [
        [0.0, m1, m2, m3],
        [-m1, 0.0, n3, -n2],
        [-m2, -n3, 0.0, n1],
        [-m3, n2, -n1, 0.0],
    ]


def invariants(K) -> tuple[float, float, float, float]:
    """Return (I1, I2, I, mu) with mu = atan2(I2, I1)/2 folded into [0, pi).

    mu is scale-free, from K scaled by a power of two as in :func:`classify`;
    I1, I2 and I are those of K as given, in its units squared (they can
    overflow or underflow).  NaN or inf entries raise :class:`NonFiniteInput`.
    """
    K = vec3(K).tolist()
    _, e, scaled, _, _ = _view(K, EPS_ISO)
    return (*(_invariants(K) if e else scaled)[:3], scaled[3])


# The private functions below take the 3-lists of complex 3-vectors that
# their public callers have already coerced (real ones for _rotation_between).


def _invariants(K: list) -> tuple[float, float, float, float]:
    # |K.K| is libm's hypot, as np.hypot is.  math.atan2 differs from
    # np.arctan2 in the last bit for a few per cent of arguments.
    ksq = _dot(K, K)
    i1, i2 = ksq.real, ksq.imag
    mu = math.atan2(i2, i1) / 2.0
    if mu < 0.0:
        mu += math.pi
    return i1, i2, abs(ksq), mu


def classify(K, eps_iso: float = EPS_ISO) -> NCParameter:
    """Classify K into commutative / non-isotropic / isotropic with subcase.

    Commutative means K = 0; isotropic means |K.K| <= eps_iso * ||K||^2.
    Ia/Ib (I2 = 0) and IIa/IIb (I1 = 0) are detected relative to I = |K.K|.
    Labels and mu come from K scaled by an exact power of two, so the units
    of K do not matter; I1, I2 and I are those of K as given (they can
    overflow or underflow).  NaN or inf entries raise :class:`NonFiniteInput`.
    """
    K = vec3(K)
    Kl = K.tolist()
    _, e, scaled, label, _ = _view(Kl, eps_iso)
    given = _invariants(Kl) if e else scaled
    return NCParameter(np.array(_K_to_theta(Kl)), K, *given[:3], *label)


def _view(K: list, eps_iso: float) -> tuple:
    """The scaled view of K, the one place that scales K for classification
    and splitting: (Ks, e, (I1, I2, I, mu) of Ks, (mu, class, subcase) of
    :func:`classify`, split).

    Ks is the 3-list 2**-e K, exact: K itself inside ``_WINDOW``, else K
    with its largest part in [0.5, 1).  split is (Kscalar / 2**e, Delta as a
    3-list) of a non-isotropic K, None for any other.  NaN or inf raise
    NonFiniteInput.
    """
    nrm, e = _norm(K), 0
    if not _WINDOW[0] <= nrm <= _WINDOW[1]:
        _require_finite(K, nrm)
        e = _exponent(K)
        K = _ldexp(K, -e)
        nrm = _norm(K)
    scaled = i1, i2, mag, mu = _invariants(K)
    if nrm == 0.0 or mag <= eps_iso * (nrm * nrm):
        klass = NCClass.ISOTROPIC if nrm else NCClass.COMMUTATIVE
        return K, e, scaled, (None, klass, Subcase.NONE), None
    # Kscalar = sqrt(I) exp(i*mu) from the raw mu, not the snapped mu of a
    # subcase, so that Delta.Delta = 1 to rounding; exp(i*mu) from math.cos
    # and math.sin, bit for bit, the + 0.0 turning the -0.0 of sin(-0.0)
    # into the +0.0 that exp gives.
    kscalar = math.sqrt(mag) * complex(math.cos(mu), math.sin(mu) + 0.0)
    split = (kscalar, [z / kscalar for z in K])
    sub = Subcase.GENERIC
    if abs(i2) <= eps_iso * mag:
        mu, sub = (0.0, Subcase.IA) if i1 > 0 else (math.pi / 2, Subcase.IB)
    elif abs(i1) <= eps_iso * mag:
        mu, sub = (math.pi / 4, Subcase.IIA) if i2 > 0 else (3 * math.pi / 4, Subcase.IIB)
    return K, e, scaled, (mu, NCClass.NON_ISOTROPIC, sub), split


def _null(k: list, eps_iso: float) -> bool:
    """Whether k.k = 0 within eps_iso relative to ||k||^2 (k = 0 included),
    tested on the scaled view of k.  NaN or inf raise NonFiniteInput."""
    return _view(k, eps_iso)[4] is None


_NO_SPLIT = "K.K = 0 within tolerance: no unit-square direction exists"


def unit_delta(K, eps_iso: float = EPS_ISO) -> tuple[complex, ComplexVec3]:
    """Split a non-isotropic K into Kscalar * Delta with Delta.Delta = 1.

    Kscalar = sqrt(I) * exp(i*mu) on the principal branch mu in [0, pi), so
    the split is single-valued; Delta = K / Kscalar then satisfies
    Delta.Delta = (I1 + i*I2) / (I exp(2*i*mu)) = 1 identically.  NaN or inf
    entries raise :class:`NonFiniteInput`.
    """
    _, e, _, _, split = _view(vec3(K).tolist(), eps_iso)
    if split is None:
        raise IsotropicInput(_NO_SPLIT)
    return _ldexp(split[0], e), np.array(split[1])


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


def _require_unit_square(d: list) -> None:
    """Raise :class:`NotUnitDelta` unless d.d = 1 within DEFAULT_TOL relative
    to max(1, ||d||^2): the one test of a unit direction Delta, for the
    3-list of a complex 3-vector that the caller has already coerced."""
    sq = _dot(d, d)
    err = abs(sq - 1.0)
    if not err <= DEFAULT_TOL:
        nd = _norm(d)
        if _exceeds(err, DEFAULT_TOL * max(1.0, nd * nd)):
            raise NotUnitDelta(f"delta.delta = {sq:.15g}, expected 1")


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
    spinor = _stabilizer_spinor(gamma, dl)
    return StabilizerElement(
        family="non-isotropic",
        spinor=spinor,
        rotation=so3c_from_spinor(spinor),
        gamma=gamma,
        delta=delta,
    )


def isotropic_stabilizer_element(z, k, eps_iso: float = EPS_ISO) -> StabilizerElement:
    """Element O(z*k) of the additive family fixing an isotropic k.

    The underlying spinor is the small-group spinor b(2i z; k) of
    ``group._stabilizer_spinor``: I + z*k.sigma where k.k = 0 exactly, and
    unimodular and fixing k for a k.k inside eps_iso too.  Composition adds
    the z parameters.
    """
    k = vec3(k)
    kl = k.tolist()
    if not any(kl):  # NaN is nonzero: _null refuses it
        raise ZeroVector("isotropic stabilizer needs a nonzero k")
    if not _null(kl, eps_iso):
        raise NotIsotropic(f"k.k = {_dot(kl, kl):.3e} is not zero within tolerance")
    z = complex(z)
    spinor = _stabilizer_spinor(2j * z, kl)
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
    s, d = src.tolist(), dst.tolist()
    dot = _dot(s, d)  # not finite if an entry of either is not
    _require_finite(s, dot, "src")
    _require_finite(d, dot, "dst")
    return _rotation_between(s, d)


def _rotation_between(src: list, dst: list) -> np.ndarray:
    denom = 1.0 + _dot(src, dst)
    if abs(denom) <= 1e-12:
        seed = [0.0, 0.0, 0.0]
        seed[min(range(3), key=lambda i: abs(src[i]))] = 1.0
        u = _cross(src, seed)
        nrm = _norm(u)
        ux = axial_matrix([x / nrm for x in u]).real
        return linalg.EYE3 + 2.0 * (ux @ ux)
    c = [x / denom for x in _cross(src, dst)]
    cx = axial_matrix(c).real
    return linalg.EYE3 + 2.0 * (cx + cx @ cx) / (1.0 + _dot(c, c))


def reduce_to_real(delta, e_target=None) -> ComplexRotation:
    """Complex rotation S with S @ Delta = e (real unit), for Delta.Delta = 1.

    Write Delta = cosh(rho) N0 + i*sinh(rho) M0 with orthonormal real N0, M0.
    The pure boost of rapidity rho along u = M0 x N0, the small-group element
    b(i rho; u), carries Delta to N0.  For K = Kscalar * Delta it is the
    boost to the frame in which n and m are parallel, with
    cosh(2 rho) = ||Delta||^2 = ||K||^2 / |K.K|.  A real rotation then
    carries N0 to the requested target:

        S = rotation_between(N0, e) @ O(b(i rho; u)).

    ``e_target=None`` picks e = N0, and S is the boost alone.  For real Delta
    (rho = 0) there is no boost and S is just the real rotation taking N0 to
    the target.

    For complex Delta, S is not checked again: it is the image of a group
    element, times a real rotation.  rho is asinh(||Im Delta||), which does
    not cancel near rho = 0.
    """
    delta = vec3(delta).tolist()
    _require_unit_square(delta)
    return _reduce_to_real(delta, e_target)


def _reduce_to_real(delta: list, e_target) -> ComplexRotation:
    """S of :func:`reduce_to_real`, for a delta with delta.delta = 1 already."""
    N, M = [z.real for z in delta], [z.imag for z in delta]
    ch = _norm(N)
    if ch < 1.0 - DEFAULT_TOL:
        raise DegenerateDelta(f"||Re delta|| = {ch:.15g} < 1")
    N0 = [x / ch for x in N]
    mnorm = _norm(M)
    if mnorm <= 1e-12 * max(1.0, ch):
        target = N0 if e_target is None else _unit_target(e_target)
        return ComplexRotation(_rotation_between(N0, target).astype(complex))
    u = _cross([y / mnorm for y in M], N0)
    unorm = _norm(u)
    if unorm < 1e-8:
        raise DegenerateDelta("Re delta and Im delta are parallel")
    S = so3c_from_spinor(_stabilizer_spinor(1j * math.asinh(mnorm), [x / unorm for x in u]))
    if e_target is None:
        return S
    return _trusted(ComplexRotation, matrix=_rotation_between(N0, _unit_target(e_target)) @ S.matrix)


def _unit_target(e) -> list:
    e = rvec3(e).tolist()
    nrm = _norm(e)
    if not abs(nrm - 1.0) <= DEFAULT_TOL:  # a NaN entry fails too
        raise ValueError(f"target must be a real unit vector (norm {nrm:.15g})")
    return e


def canonical_frame(K, eps_iso: float = EPS_ISO) -> tuple[ComplexRotation, ComplexVec3]:
    """Reduce a non-isotropic K to its simplest frame.

    Returns (S, Kcanon) with Kcanon = Kscalar * e, where e = S @ Delta is a
    real unit vector.  In that frame n' and m' are both parallel to e, and
    the invariants of Kcanon equal those of K by construction.
    """
    _, e, _, _, split = _view(vec3(K).tolist(), eps_iso)
    if split is None:
        raise IsotropicInput(_NO_SPLIT)
    S, kcanon = _canonical(*split)
    return S, np.array(_ldexp(kcanon, e))


def _canonical(kscalar: complex, delta: list) -> tuple[ComplexRotation, list]:
    """(S, Kcanon as a 3-list) of :func:`canonical_frame`, from a split of
    :func:`_view`; Kcanon is that of the view's Ks."""
    S = _reduce_to_real(delta, None)
    u = [z.real for z in _apply(S.matrix.tolist(), delta)]
    nrm = _norm(u)
    return S, [kscalar * (x / nrm) for x in u]
