"""Minimal complex linear algebra for 3-vectors and small fixed-size matrices.

Dot products here are bilinear (no conjugation): the invariant "lengths"
of complex orthogonal geometry are bilinear squares, so ``bilinear_dot(v, v)``
can be any complex number, including zero for nonzero v.  Use :func:`hnorm`
for the ordinary Hermitian magnitude.

This module is the numpy side of the package's one boundary: it coerces
array arguments and holds the array constants.  Every 3-vector dot, cross
product and norm goes through the scalar kernels of ``ncframe._kernels``
(``_dot``, ``_cross``, ``_norm``, ...), which need no numpy: a dot sums its
three products left to right, and a norm is ``math.hypot`` of the six real
parts.  The CLI imports only ``_kernels`` and ``errors``, so a CLI child
never loads this module.
"""

from __future__ import annotations

import numpy as np

from ._kernels import DEFAULT_TOL, _dot, _norm

# Working representation: plain numpy arrays.
#   ComplexVec3 -- shape (3,),  complex128
#   ComplexMat3 -- shape (3, 3), complex128, row-major
#   RealMat4    -- shape (4, 4), float64, index order (t, x, y, z)
ComplexVec3 = ComplexMat3 = RealMat4 = np.ndarray

# EYE3 is the real 3x3 identity: adding it to a complex matrix promotes it
# to 1 + 0j entrywise, so the sum equals that with a complex identity.  ETA
# is the Minkowski metric, signature (+, -, -, -).  Both are read-only: they are shared.
EYE3 = np.eye(3)
ETA = np.diag([1.0, -1.0, -1.0, -1.0])
EYE3.flags.writeable = ETA.flags.writeable = False


def vec3(v) -> ComplexVec3:
    """Coerce to a complex 3-vector."""
    a = np.asarray(v, dtype=complex)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    return a


def _real(v, shape: tuple, what: str) -> np.ndarray:
    """Coerce to a real array of the given shape; reject nonzero imaginary parts."""
    a = np.asarray(v)
    if a.dtype.kind == "c":
        # written as "not <=" so that a NaN imaginary part is refused too
        if not np.abs(a.imag).max() <= DEFAULT_TOL * max(1.0, np.abs(a).max()):
            raise ValueError(f"expected a real {what}")
        a = a.real
    if a.dtype != np.float64:
        a = np.asarray(a, dtype=float)
    if a.shape != shape:
        raise ValueError(f"expected a {what}, got shape {a.shape}")
    return a


def rvec3(v) -> np.ndarray:
    """Coerce to a real 3-vector; reject nonzero imaginary parts."""
    return _real(v, (3,), "3-vector")


def rmat4(m) -> RealMat4:
    """Coerce to a real 4x4 matrix; reject nonzero imaginary parts."""
    return _real(m, (4, 4), "4x4 matrix")


def bilinear_dot(u, v) -> complex:
    """Unconjugated dot product sum_i u_i v_i."""
    return _dot(vec3(u).tolist(), vec3(v).tolist())


def inf_norm(a) -> float:
    """Max absolute entry of an array (the norm used in all residuals)."""
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


def hnorm(v) -> float:
    """Hermitian (Euclidean) magnitude sqrt(sum |v_i|^2) of a 3-vector."""
    return _norm(vec3(v).tolist())
