"""Spinor (2x2) parametrization of the proper orthochronous Lorentz group.

An element is the coefficient pair ``(k0, k)`` of ``B = k0*I + k.sigma`` with
the unit-determinant constraint ``k0^2 - k.k = 1`` (bilinear).  The real split

    k0 = n0 + i*m0,      k = -i*n + m

separates rotation-like content (n0, n) from boost-like content (m0, m):
pure rotations have m0 = 0, m = 0; pure boosts have m0 = 0, n = 0.

Two 2-to-1 maps realize the element as a complex orthogonal 3x3 matrix and as
a real 4x4 Lorentz matrix; both are homomorphisms, and both send -B and B to
the same image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstraintViolation,
    GammaDegenerate,
    HalfTurnResult,
    NonUnitAxis,
    NotPureElement,
)
from .linalg import (
    DEFAULT_TOL,
    EYE3,
    ComplexMat3,
    ComplexVec3,
    RealMat4,
    axial_matrix,
    bdot3,
    cross3,
    det3,
    hnorm,
    hnorm3,
    inf_norm,
    is_real,
    rnorm3,
    rvec3,
    vec3,
)

#: Minkowski metric, signature (+, -, -, -).
ETA = np.diag([1.0, -1.0, -1.0, -1.0])


@dataclass(frozen=True)
class SpinorElement:
    """Group element (k0, k) with k0^2 - k.k = 1.

    Construction re-checks the constraint and rejects bad input rather than
    renormalizing; use :func:`project_to_group` to renormalize explicitly.
    """

    k0: complex
    k: ComplexVec3

    def __post_init__(self):
        k0, k = complex(self.k0), vec3(self.k)
        object.__setattr__(self, "k0", k0)
        object.__setattr__(self, "k", k)
        det = k0 * k0 - bdot3(k, k)
        scale = max(1.0, abs(k0) ** 2 + hnorm3(k) ** 2)
        if abs(det - 1.0) > DEFAULT_TOL * scale:
            raise ConstraintViolation(
                f"k0^2 - k.k = {det:.15g}, expected 1 (within {DEFAULT_TOL:g} relative)"
            )

    @property
    def n0(self) -> float:
        return self.k0.real

    @property
    def m0(self) -> float:
        return self.k0.imag

    @property
    def n(self) -> np.ndarray:
        return -self.k.imag

    @property
    def m(self) -> np.ndarray:
        return self.k.real

    @classmethod
    def identity(cls) -> "SpinorElement":
        return cls(1.0, np.zeros(3))

    @classmethod
    def from_real_split(cls, n0, m0, n, m) -> "SpinorElement":
        return cls(complex(n0, m0), np.asarray(m, dtype=float) - 1j * np.asarray(n, dtype=float))

    def __neg__(self) -> "SpinorElement":
        return SpinorElement(-self.k0, -self.k)

    def inverse(self) -> "SpinorElement":
        # (k0 + k.sigma)(k0 - k.sigma) = k0^2 - k.k = 1
        return SpinorElement(self.k0, -self.k)


def project_to_group(k0, k) -> SpinorElement:
    """Rescale (k0, k) by the principal square root of k0^2 - k.k onto the group."""
    k0 = complex(k0)
    k = vec3(k)
    det = k0 * k0 - bdot3(k, k)
    if abs(det) < 1e-12 * max(1.0, abs(k0) ** 2 + hnorm3(k) ** 2):
        raise ConstraintViolation("cannot project: k0^2 - k.k is numerically zero")
    s = np.sqrt(det)  # principal branch, Re >= 0
    return SpinorElement(k0 / s, k / s)


def spinor_compose(b1: SpinorElement, b2: SpinorElement) -> SpinorElement:
    """Product b1 * b2 in the 2x2 representation, expressed on coefficients.

    The scalar part is k0' k0 + k'.k: the sigma-algebra product contributes
    the bilinear dot with a plus sign (it reduces to the familiar
    n0'' = n0' n0 - n'.n of the unitary subgroup where k = -i*n).
    """
    k0 = b1.k0 * b2.k0 + bdot3(b1.k, b2.k)
    k = b1.k0 * b2.k + b2.k0 * b1.k + 1j * cross3(b1.k, b2.k)
    return SpinorElement(k0, k)


def _unit_axis(e) -> np.ndarray:
    e = np.asarray(e)
    if np.iscomplexobj(e) and not is_real(e):
        raise NonUnitAxis("axis must be real")
    e = np.asarray(e.real if np.iscomplexobj(e) else e, dtype=float)
    if e.shape != (3,):
        raise NonUnitAxis(f"axis must be a 3-vector, got shape {e.shape}")
    if abs(e @ e - 1.0) > DEFAULT_TOL:
        raise NonUnitAxis(f"axis norm^2 = {e @ e:.15g}, expected 1")
    return e


def spinor_from_rotation(alpha: float, e) -> SpinorElement:
    """Rotation by angle alpha about the real unit axis e."""
    e = _unit_axis(e)
    return SpinorElement(np.cos(alpha / 2), -1j * np.sin(alpha / 2) * e)


def spinor_from_boost(beta: float, e) -> SpinorElement:
    """Boost of rapidity beta along the real unit axis e."""
    e = _unit_axis(e)
    return SpinorElement(np.cosh(beta / 2), np.sinh(beta / 2) * e + 0j)


def gibbs_compose(c1, c2) -> np.ndarray:
    """Compose two rotations given as Gibbs vectors c = tan(angle/2) * axis.

    c'' = (c1 + c2 + c1 x c2) / (1 - c1.c2), where c1 acts second (it carries
    the primes of the left factor).  Raises :class:`HalfTurnResult` at the
    half-turn singularity 1 - c1.c2 = 0, where the composite has no finite
    Gibbs vector.
    """
    c1, c2 = rvec3(c1), rvec3(c2)
    denom = 1.0 - c1 @ c2
    if abs(denom) <= 1e-12 * (1.0 + hnorm(c1) * hnorm(c2)):
        raise HalfTurnResult("composition is a half-turn (scalar part vanishes)")
    return (c1 + c2 + cross3(c1, c2)) / denom


@dataclass(frozen=True)
class ComplexRotation:
    """Proper complex orthogonal 3x3 matrix: O^T O = I (plain transpose), det O = 1."""

    matrix: ComplexMat3

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (3, 3):
            raise ConstraintViolation(f"expected 3x3, got {m.shape}")
        object.__setattr__(self, "matrix", m)
        scale = max(1.0, inf_norm(m) ** 2)
        resid = inf_norm(m.T @ m - EYE3)
        if resid > DEFAULT_TOL * scale:
            raise ConstraintViolation(f"O^T O - I residual {resid:.3e} exceeds tolerance")
        det = det3(m)
        if abs(det - 1.0) > DEFAULT_TOL * scale ** 1.5:
            raise ConstraintViolation(f"det O = {det:.15g}, expected +1")

    @classmethod
    def identity(cls) -> "ComplexRotation":
        return cls(EYE3)

    def apply(self, v) -> ComplexVec3:
        return self.matrix @ vec3(v)


@dataclass(frozen=True)
class Lorentz4:
    """Proper orthochronous real 4x4 Lorentz matrix, metric (+,-,-,-)."""

    matrix: RealMat4

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (4, 4):
            raise ConstraintViolation(f"expected 4x4, got {m.shape}")
        object.__setattr__(self, "matrix", m)
        scale = max(1.0, inf_norm(m) ** 2)
        resid = inf_norm(m.T @ ETA @ m - ETA)
        if resid > DEFAULT_TOL * scale:
            raise ConstraintViolation(f"L^T eta L - eta residual {resid:.3e} exceeds tolerance")
        if m[0, 0] < 1.0 - DEFAULT_TOL * scale:
            raise ConstraintViolation(f"L00 = {m[0, 0]:.15g} < 1 (not orthochronous)")
        if np.linalg.det(m) < 0.0:
            raise ConstraintViolation("det L < 0 (improper)")

    @classmethod
    def identity(cls) -> "Lorentz4":
        return cls(np.eye(4))

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (4,):
            raise ValueError(f"expected a 4-vector, got shape {x.shape}")
        return self.matrix @ x


def so3c_from_spinor(b: SpinorElement) -> ComplexRotation:
    """Complex orthogonal image O(k) = I + 2*(i*k0*k^x - (k^x)^2).

    This is the 2-to-1 vector representation: O(-b) = O(b), and
    O(b1*b2) = O(b1) O(b2).  Pure rotations give real orthogonal matrices;
    pure boosts give complex symmetric ones.
    """
    kx = axial_matrix(b.k)
    return ComplexRotation(EYE3 + 2.0 * (1j * b.k0 * kx - kx @ kx))


def lorentz4_from_spinor(b: SpinorElement) -> Lorentz4:
    """Real 4x4 Lorentz image, built entrywise from k0, k and their conjugates.

    Row/column 0 is time.  For a pure boost this reproduces the standard
    closed form with L00 = cosh(beta) and L0i = -sinh(beta) e_i.
    """
    k0, k0c, k = b.k0, b.k0.conjugate(), b.k.tolist()
    # |k_i|^2 stays numpy's vectorized abs, which rounds differently from
    # Python's abs; every other entry is evaluated on Python scalars.
    kk = np.abs(b.k) ** 2
    total = float(kk.sum())
    kk = kk.tolist()
    a2 = abs(k0) ** 2
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
                L[i + 1][j + 1] = 2.0 * eps * (k0c * k[l]).imag + 2.0 * (
                    k[i] * k[j].conjugate()
                ).real
    return Lorentz4(L)


@dataclass(frozen=True)
class GammaDelta:
    """Axis-angle data (gamma, Delta) of a non-isotropic element.

    gamma = alpha + i*beta packs a rotation angle and a rapidity; Delta is a
    complex direction with bilinear square one, i.e. Delta = N + i*M with
    N.N - M.M = 1 and N.M = 0.
    """

    gamma: complex
    delta: ComplexVec3

    def __post_init__(self):
        object.__setattr__(self, "gamma", complex(self.gamma))
        d = vec3(self.delta)
        object.__setattr__(self, "delta", d)
        _require_unit_square(d, ConstraintViolation)


def _require_unit_square(d: ComplexVec3, error: type[Exception]) -> None:
    """Raise ``error`` unless d.d = 1 within DEFAULT_TOL relative to max(1, ||d||^2).

    The one test of a unit direction Delta, for a complex 3-vector that the
    caller has already coerced; each caller names its own exception type.
    """
    sq = bdot3(d, d)
    if abs(sq - 1.0) > DEFAULT_TOL * max(1.0, hnorm3(d) ** 2):
        raise error(f"delta.delta = {sq:.15g}, expected 1")


def spinor_from_gamma_delta(gd: GammaDelta) -> SpinorElement:
    """Element cos(gamma/2) - i*sin(gamma/2) Delta.sigma.

    Real gamma with real Delta is a rotation; purely imaginary gamma with real
    Delta is a boost.  For fixed Delta the family is Abelian with
    gamma'' = gamma' + gamma.
    """
    half = gd.gamma / 2.0
    return SpinorElement(np.cos(half), -1j * np.sin(half) * gd.delta)


def gamma_delta_from_spinor(b: SpinorElement) -> GammaDelta:
    """Extract (gamma, Delta) with the principal branch gamma/2 = arccos(k0).

    Defined only when k.k != 0: since k.k = -sin^2(gamma/2), the deck elements
    (+-I, k = 0) and the isotropic family (k.k = 0, k != 0) have no usable
    direction and raise :class:`GammaDegenerate`.
    """
    ksq = bdot3(b.k, b.k)
    knorm2 = hnorm3(b.k) ** 2
    if abs(ksq) <= 1e-12 * max(1.0, knorm2):
        raise GammaDegenerate("k.k = 0: direction undefined (deck or isotropic element)")
    half = np.arccos(complex(b.k0))  # principal: Re in [0, pi]
    s = np.sin(half)
    delta = 1j * b.k / s
    return GammaDelta(2.0 * half, delta)


def verify_su2_boost_identities(b: SpinorElement, tol: float = DEFAULT_TOL) -> dict:
    """Check the conjugation identities of pure rotations / pure boosts.

    Rotations: O is real and O^-1 = O^T.  Boosts: O^* = O^-1 = O^T.
    Returns a dict with the element kind, the individual residuals and their
    maximum.  Raises :class:`NotPureElement` for mixed elements.
    """
    scale = max(1.0, abs(b.k0), hnorm3(b.k))
    is_rotation = abs(b.m0) <= tol * scale and rnorm3(b.m) <= tol * scale
    is_boost = abs(b.m0) <= tol * scale and rnorm3(b.n) <= tol * scale
    if not (is_rotation or is_boost):
        raise NotPureElement("element is neither a pure rotation nor a pure boost")
    O = so3c_from_spinor(b).matrix
    residuals = {"orthogonality": inf_norm(O.T @ O - EYE3)}
    if is_rotation:
        kind = "rotation"
        residuals["realness"] = inf_norm(O.imag)
        residuals["conjugate_fixed"] = inf_norm(np.conj(O) - O)
    else:
        kind = "boost"
        residuals["conjugate_is_inverse"] = inf_norm(np.conj(O) @ O - EYE3)
        residuals["conjugate_is_transpose"] = inf_norm(np.conj(O) - O.T)
    return {"kind": kind, "residuals": residuals, "max_residual": max(residuals.values())}
