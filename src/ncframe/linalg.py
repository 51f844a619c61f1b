"""Minimal complex linear algebra for 3-vectors and small fixed-size matrices.

Dot products here are bilinear (no conjugation): the invariant "lengths"
of complex orthogonal geometry are bilinear squares, so ``bilinear_dot(v, v)``
can be any complex number, including zero for nonzero v.  Use :func:`hnorm`
for the ordinary Hermitian magnitude.
"""

from __future__ import annotations

import math

import numpy as np

# Working representation: plain numpy arrays.
#   ComplexVec3 -- shape (3,),  complex128
#   ComplexMat3 -- shape (3, 3), complex128, row-major
#   RealMat4    -- shape (4, 4), float64, index order (t, x, y, z)
ComplexVec3 = np.ndarray
ComplexMat3 = np.ndarray
RealMat4 = np.ndarray

#: Default relative tolerance for all residual checks.
DEFAULT_TOL = 1e-10

#: Read-only real 3x3 identity.  Adding it to a complex matrix promotes it
#: to 1 + 0j entrywise, so the sum equals that with a complex identity.
EYE3 = np.eye(3)
EYE3.flags.writeable = False

# Index pairs of the vector product: row 0 picks (1, 2, 0), row 1 (2, 0, 1).
_CROSS_L = np.array([[1, 2, 0], [2, 0, 1]])
_CROSS_R = _CROSS_L[::-1].copy()


def vec3(v) -> ComplexVec3:
    """Coerce to a complex 3-vector."""
    a = np.asarray(v, dtype=complex)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    return a


def rvec3(v) -> np.ndarray:
    """Coerce to a real 3-vector; reject nonzero imaginary parts."""
    a = np.asarray(v)
    if np.iscomplexobj(a):
        # written as "not <=" so that a NaN imaginary part is refused too
        if not np.abs(a.imag).max() <= DEFAULT_TOL * max(1.0, np.abs(a).max()):
            raise ValueError("expected a real 3-vector")
        a = a.real
    a = np.asarray(a, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    return a


def rmat4(m) -> RealMat4:
    """Coerce to a real 4x4 matrix."""
    a = np.asarray(m, dtype=float)
    if a.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {a.shape}")
    return a


def bdot3(u: np.ndarray, v: np.ndarray) -> complex:
    """Unconjugated dot product of two length-3 arrays, without coercion.

    ``u.dot(v)`` runs the same BLAS dot as ``u @ v`` (so the same bits)
    without matmul's ufunc set-up.
    """
    return complex(u.dot(v))


def bilinear_dot(u, v) -> complex:
    """Unconjugated dot product sum_i u_i v_i."""
    return bdot3(vec3(u), vec3(v))


def cross3(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vector product of two length-3 arrays, without coercion.

    The result has numpy's promoted dtype of u and v (real stays real) and
    equals ``np.cross(u, v)`` bit for bit: both take the same elementwise
    products u_j v_l and differences, only without np.cross's axis handling.
    """
    p = u[_CROSS_L] * v[_CROSS_R]
    return p[0] - p[1]


def axial_matrix(v) -> ComplexMat3:
    """Antisymmetric matrix v^x with v^x w = v x w for every w."""
    v = vec3(v)
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ],
        dtype=complex,
    )


def det3(m: np.ndarray) -> complex:
    """Determinant of a 3x3 array by cofactor expansion along the first row."""
    (a, b, c), (d, e, f), (g, h, i) = m.tolist()
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def inf_norm(a) -> float:
    """Max absolute entry of an array (the norm used in all residuals)."""
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


def hnorm(v) -> float:
    """Hermitian (Euclidean) magnitude sqrt(sum |v_i|^2) of all entries.

    The same sums as ``np.linalg.norm(v)`` (so the same bits), without its
    argument handling: sqrt(re.re + im.im) for complex input.
    """
    x = np.asarray(v)
    if x.dtype.kind not in "fc":
        x = x.astype(float)
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        return hnorm3(x)
    return rnorm3(x)


def hnorm3(v: np.ndarray) -> float:
    """Hermitian magnitude of a complex 1-d array, without coercion.

    The complex branch of :func:`hnorm`: sqrt(re.re + im.im), the same sums
    as ``np.linalg.norm`` for any stride.
    """
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def rnorm3(v: np.ndarray) -> float:
    """Euclidean magnitude of a real 1-d array, without coercion.

    The real branch of :func:`hnorm`: sqrt(v.v), the same sum as
    ``np.linalg.norm`` for any stride.
    """
    return math.sqrt(v.dot(v))
