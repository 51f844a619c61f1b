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

import cmath
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from ._kernels import (
    DEFAULT_TOL, _check_spinor, _compose, _dot, _exceeds, _lorentz4, _norm, _projection_root,
    _small_group, _so3c,
)
from .errors import ConstraintViolation, NonUnitAxis, NotPureElement
from .linalg import ETA, EYE3, ComplexMat3, ComplexVec3, RealMat4, inf_norm, rmat4, rvec3, vec3


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
    k0, k = _compose(b1.k0, b1.k.tolist(), b2.k0, b2.k.tolist())
    _check_spinor(k0, k)
    return _trusted(SpinorElement, k0=k0, k=np.array(k, dtype=complex))


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


def _check_image(m: np.ndarray, preimage, image) -> None:
    """The one check of ComplexRotation and Lorentz4: m is image(k0, k) of a unimodular spinor.

    (k0, k) = preimage(m.tolist()), linear in m, must pass the SpinorElement check
    (whose bound grows with scale), |k0^2 - k.k - 1| <= 1/2 and ||image(k0, k) - m||_max
    <= DEFAULT_TOL max(1, ||m||_max).  Every valid O and L through rapidity 30
    passes; at 30..36, rounding refuses 7 O and 17 L in 1000.
    """
    det = resid = np.nan
    with suppress(ArithmeticError, ConstraintViolation):  # a zero pivot, an overflow or a refused spinor
        k0, k = preimage(m.tolist())
        det = k0 * k0 - _dot(k, k)
        resid = inf_norm(np.array(image(k0, k), dtype=m.dtype) - m)
        _check_spinor(k0, k)
        if abs(det - 1.0) <= 0.5 and not _exceeds(resid, DEFAULT_TOL * max(1.0, inf_norm(m))):
            return
    raise ConstraintViolation(f"not the image of a unimodular spinor: k0^2 - k.k = {det:.15g}, "
                              f"image residual {resid:.3e}")


def _so3c_preimage(m: list) -> tuple[complex, list]:
    """(k0, k) with O(k) = (1 + 2 k.k) I - 2 k k^T + 2i k0 k^x = m: k0^2 = (tr O + 1) / 4,
    k k^T = ((1 + 2 k.k) I - sym O) / 2 with k.k = (tr O - 3) / 4 and k0 k =
    axial(O - O^T) / 4i, with the root taken of the largest of k0^2, k_i^2."""
    tr = m[0][0] + m[1][1] + m[2][2]
    k0sq, d = (tr + 1.0) / 4.0, (tr - 1.0) / 2.0
    kk = [[((d if i == j else 0.0) - (m[i][j] + m[j][i]) / 2.0) / 2.0 for j in range(3)] for i in range(3)]
    k0k = [(m[2][1] - m[1][2]) / 4j, (m[0][2] - m[2][0]) / 4j, (m[1][0] - m[0][1]) / 4j]
    p = max(range(3), key=lambda i: abs(kk[i][i]))
    if abs(k0sq) >= abs(kk[p][p]):
        k0 = cmath.sqrt(k0sq)
        return k0, [x / k0 for x in k0k]
    kp = cmath.sqrt(kk[p][p])
    return k0k[p] / kp, [x / kp for x in kk[p]]


def _lorentz4_preimage(m: list) -> tuple[complex, list]:
    """(k0, k) with L(k) = m: the row of largest diagonal entry of H_ab = conj(k_a) k_b
    (k_0 = k0), linear in L, over that entry's root is (k0, k) times a phase,
    which sqrt(det / |det|) of det = k0^2 - k.k fixes without rescaling L."""
    tr = m[0][0] + m[1][1] + m[2][2] + m[3][3]
    h = [[tr, 0j, 0j, 0j]] + [[0j] * 4 for _ in range(3)]  # 4 H
    for i, j, l in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):  # cyclic
        h[i][i] = 2.0 * (m[0][0] + m[i][i]) - tr
        h[0][i] = complex(-(m[0][i] + m[i][0]), m[j][l] - m[l][j])
        h[i][j] = complex(m[i][j] + m[j][i], m[0][l] - m[l][0])
        h[i][0], h[j][i] = h[0][i].conjugate(), h[i][j].conjugate()
    a = max(range(4), key=lambda a: h[a][a])
    root = 2.0 * cmath.sqrt(h[a][a])
    k0, *k = (x / root for x in h[a])
    det = k0 * k0 - _dot(k, k)
    phase = cmath.sqrt(det / abs(det))
    return k0 / phase, [x / phase for x in k]


@dataclass(frozen=True)
class ComplexRotation:
    """Proper complex orthogonal 3x3 matrix: O^T O = I (plain transpose), det O = 1.

    Checked as the image O(k) of a unimodular spinor: see :func:`_check_image`.
    """

    matrix: ComplexMat3

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (3, 3):
            raise ConstraintViolation(f"expected 3x3, got {m.shape}")
        object.__setattr__(self, "matrix", m)
        _check_image(m, _so3c_preimage, _so3c)

    @classmethod
    def identity(cls) -> "ComplexRotation":
        return cls(EYE3)

    def apply(self, v) -> ComplexVec3:
        return self.matrix @ vec3(v)


@dataclass(frozen=True)
class Lorentz4:
    """Proper orthochronous real 4x4 Lorentz matrix, metric (+,-,-,-).

    Checked as the image L(k) of a unimodular spinor: see :func:`_check_image`.
    """

    matrix: RealMat4

    def __post_init__(self):
        try:
            m = rmat4(self.matrix)
        except ValueError as exc:
            raise ConstraintViolation(str(exc)) from None
        object.__setattr__(self, "matrix", m)
        _check_image(m, _lorentz4_preimage, _lorentz4)

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
    return _trusted(ComplexRotation, matrix=np.array(_so3c(b.k0, b.k.tolist()), dtype=complex))


def lorentz4_from_spinor(b: SpinorElement) -> Lorentz4:
    """Real 4x4 Lorentz image, built entrywise from k0, k and their conjugates.

    Row/column 0 is time.  For a pure boost this reproduces the standard
    closed form with L00 = cosh(beta) and L0i = -sinh(beta) e_i.  Like
    :func:`so3c_from_spinor`, the image is not checked again.
    """
    return _trusted(Lorentz4, matrix=np.array(_lorentz4(b.k0, b.k.tolist()), dtype=float))


def _stabilizer_spinor(t: complex, K: list) -> SpinorElement:
    """The small-group element b(t; K) of :func:`_small_group` as a SpinorElement."""
    k0, k = _small_group(t, K)
    return _trusted(SpinorElement, k0=k0, k=np.array(k, dtype=complex))


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
