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

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import (
    DEFAULT_TOL, _check_spinor, _compose, _dot, _exceeds, _lorentz4, _norm, _projection_root,
    _small_group, _so3c,
)
from .errors import ConstraintViolation, NonUnitAxis, NotPureElement
from .linalg import ETA, EYE3, ComplexMat3, ComplexVec3, RealMat4, det3, inf_norm, rvec3, vec3


def _matrix_scale(m: np.ndarray) -> float:
    """max(1, ||m||_inf^2), the scale of the ComplexRotation and Lorentz4 checks."""
    x = inf_norm(m)
    return max(1.0, x * x)


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
        _check_spinor(k0, k.tolist())

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

    # Negating k0, k or both leaves k0^2 - k.k the same to the bit, so the
    # results inherit this element's check.

    def __neg__(self) -> "SpinorElement":
        return _trusted(SpinorElement, k0=-self.k0, k=-self.k)

    def inverse(self) -> "SpinorElement":
        # (k0 + k.sigma)(k0 - k.sigma) = k0^2 - k.k = 1
        return _trusted(SpinorElement, k0=self.k0, k=-self.k)


def _trusted(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields``, unchecked.

    For a SpinorElement, ComplexRotation or Lorentz4, only a closed form of
    a checked input that is valid by construction: a spinor with
    k0^2 - k.k = 1 within its own tolerance, or the image of one.  For a
    StabilizerElement or RotationBoostPair, which have no check, it just
    skips the dataclass ``__init__``.  Each field, every one of them, must be
    what the public constructor would store: a Python complex k0 and a
    complex128 3-vector k, or a complex128 3x3 or float64 4x4 matrix.

    The fields go into the instance ``__dict__`` in one update, which is
    valid because every class built here is a frozen dataclass without
    ``__slots__``: frozen only blocks ``__setattr__``, and the instance
    still has a ``__dict__``.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def project_to_group(k0, k) -> SpinorElement:
    """Rescale (k0, k) by the principal square root of k0^2 - k.k onto the group."""
    k0, k = complex(k0), vec3(k)
    s = np.complex128(_projection_root(k0, k.tolist()))
    return SpinorElement(k0 / s, k / s)  # numpy's division, as always: see _project


def spinor_compose(b1: SpinorElement, b2: SpinorElement) -> SpinorElement:
    """Product b1 * b2 in the 2x2 representation, expressed on coefficients.

    The scalar part is k0' k0 + k'.k: the sigma-algebra product contributes
    the bilinear dot with a plus sign (it reduces to the familiar
    n0'' = n0' n0 - n'.n of the unitary subgroup where k = -i*n).
    """
    # Checked: the product's scale can be far below its factors' (b b^-1 is
    # the identity), so the factors' tolerance does not carry over.
    return SpinorElement(*_compose(b1.k0, b1.k.tolist(), b2.k0, b2.k.tolist()))


def _unit_axis(e) -> np.ndarray:
    try:
        e = rvec3(e)
    except ValueError as exc:
        raise NonUnitAxis(f"axis: {exc}") from exc
    el = e.tolist()
    sq = _dot(el, el)
    if not abs(sq - 1.0) <= DEFAULT_TOL:  # a NaN entry fails too
        raise NonUnitAxis(f"axis norm^2 = {sq:.15g}, expected 1")
    return e


def spinor_from_rotation(alpha: float, e) -> SpinorElement:
    """Rotation by angle alpha about the real unit axis e."""
    e = _unit_axis(e)
    return SpinorElement(np.cos(alpha / 2), -1j * np.sin(alpha / 2) * e)


def spinor_from_boost(beta: float, e) -> SpinorElement:
    """Boost of rapidity beta along the real unit axis e."""
    e = _unit_axis(e)
    return SpinorElement(np.cosh(beta / 2), np.sinh(beta / 2) * e + 0j)


@dataclass(frozen=True)
class ComplexRotation:
    """Proper complex orthogonal 3x3 matrix: O^T O = I (plain transpose), det O = 1."""

    matrix: ComplexMat3

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (3, 3):
            raise ConstraintViolation(f"expected 3x3, got {m.shape}")
        object.__setattr__(self, "matrix", m)
        scale = None
        resid = inf_norm(m.T @ m - EYE3)
        if not resid <= DEFAULT_TOL:
            scale = _matrix_scale(m)
            if _exceeds(resid, DEFAULT_TOL * scale):
                raise ConstraintViolation(f"O^T O - I residual {resid:.3e} exceeds tolerance")
        det = det3(m)
        err = abs(det - 1.0)
        if not err <= DEFAULT_TOL:
            scale = scale or _matrix_scale(m)
            if _exceeds(err, DEFAULT_TOL * (scale * math.sqrt(scale))):
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
        scale = None
        resid = inf_norm(m.T @ ETA @ m - ETA)
        if not resid <= DEFAULT_TOL:
            scale = _matrix_scale(m)
            if _exceeds(resid, DEFAULT_TOL * scale):
                raise ConstraintViolation(f"L^T eta L - eta residual {resid:.3e} exceeds tolerance")
        l00 = m[0, 0]
        if not l00 >= 1.0 - DEFAULT_TOL and not l00 >= 1.0 - DEFAULT_TOL * (scale or _matrix_scale(m)):
            raise ConstraintViolation(f"L00 = {l00:.15g} < 1 (not orthochronous)")
        if not np.linalg.det(m) >= 0.0:
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
    pure boosts give complex symmetric ones.  The image is not checked again:
    ``b`` passed the SpinorElement check.
    """
    return _trusted(ComplexRotation, matrix=np.array(_so3c(b.k0, b.k.tolist())))


def lorentz4_from_spinor(b: SpinorElement) -> Lorentz4:
    """Real 4x4 Lorentz image, built entrywise from k0, k and their conjugates.

    Row/column 0 is time.  For a pure boost this reproduces the standard
    closed form with L00 = cosh(beta) and L0i = -sinh(beta) e_i.  Like
    :func:`so3c_from_spinor`, the image is not checked again.
    """
    return _trusted(Lorentz4, matrix=np.array(_lorentz4(b.k0, b.k.tolist())))


def _stabilizer_spinor(t: complex, K: list) -> SpinorElement:
    """The small-group element b(t; K) of :func:`_small_group` as a SpinorElement."""
    k0, k = _small_group(t, K)
    return _trusted(SpinorElement, k0=k0, k=np.array(k))


def verify_su2_boost_identities(b: SpinorElement, tol: float = DEFAULT_TOL) -> dict:
    """Check the conjugation identities of pure rotations / pure boosts.

    Rotations: O is real and O^-1 = O^T.  Boosts: O^* = O^-1 = O^T.
    Returns a dict with the element kind, the individual residuals and their
    maximum.  Raises :class:`NotPureElement` for mixed elements.
    """
    kl = b.k.tolist()
    scale = max(1.0, abs(b.k0), _norm(kl))
    pure = abs(b.m0) <= tol * scale
    is_rotation = pure and _norm([z.real for z in kl]) <= tol * scale
    is_boost = pure and _norm([z.imag for z in kl]) <= tol * scale
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
