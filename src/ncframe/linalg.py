"""Minimal complex linear algebra for 3-vectors and small fixed-size matrices.

Dot products here are bilinear (no conjugation): the invariant "lengths"
of complex orthogonal geometry are bilinear squares, so ``bilinear_dot(v, v)``
can be any complex number, including zero for nonzero v.  Use :func:`hnorm`
for the ordinary Hermitian magnitude.

Every 3-vector dot, cross product and norm of the package goes through the
private scalar kernels at the end of this module: a dot sums its three
products left to right, and a norm is ``math.hypot`` of the six real parts.
The group images and the theta <-> K maps are written out entry by entry on
Python scalars in their own modules.

numpy loads only for the array arguments and results of the public
functions, the checks of ``group.ComplexRotation`` and ``group.Lorentz4``
and random draws (``ncframe.sampling``).  The list-level kernels that the
public functions wrap, and that the CLI calls, live in ``ncframe._kernels``,
which imports only this module's scalar kernels and ``errors``: no numpy
and no dataclasses below that boundary.  Every module reaches numpy through
the lazy binding ``np`` below, and the array constants ``EYE3`` and ``ETA``
and the array aliases are built on first access, so importing the package,
or calling only kernels, does not import numpy.
"""

from __future__ import annotations

import math


class _Numpy:
    """numpy, imported on the first attribute access.  Each attribute is
    then stored in the instance, so a later access is one dict lookup."""

    def __getattr__(self, name: str):
        if name.startswith("__"):  # probes for protocols do not import numpy
            raise AttributeError(name)
        import numpy

        value = self.__dict__[name] = getattr(numpy, name)
        return value


np = _Numpy()


def _lazy_names(namespace: dict, builders: dict):
    """A module ``__getattr__`` (PEP 562) that builds each name of
    ``builders`` on first access and stores it in ``namespace``, the
    module's globals, so that later accesses and imports find it there."""

    def __getattr__(name: str):
        if name not in builders:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = builders[name]()
        return value

    return __getattr__


#: Default relative tolerance for all residual checks.
DEFAULT_TOL = 1e-10


def _read_only(a):
    a.flags.writeable = False
    return a


# Working representation: plain numpy arrays.
#   ComplexVec3 -- shape (3,),  complex128
#   ComplexMat3 -- shape (3, 3), complex128, row-major
#   RealMat4    -- shape (4, 4), float64, index order (t, x, y, z)
# EYE3 is the read-only real 3x3 identity: adding it to a complex matrix
# promotes it to 1 + 0j entrywise, so the sum equals that with a complex
# identity.  ETA is the Minkowski metric, signature (+, -, -, -).
__getattr__ = _lazy_names(globals(), {
    "ComplexVec3": lambda: np.ndarray,
    "ComplexMat3": lambda: np.ndarray,
    "RealMat4": lambda: np.ndarray,
    "EYE3": lambda: _read_only(np.eye(3)),
    "ETA": lambda: np.diag([1.0, -1.0, -1.0, -1.0]),
})


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


def bilinear_dot(u, v) -> complex:
    """Unconjugated dot product sum_i u_i v_i."""
    return _dot(vec3(u).tolist(), vec3(v).tolist())


def det3(m: np.ndarray) -> complex:
    """Determinant of a 3x3 array by cofactor expansion along the first row."""
    (a, b, c), (d, e, f), (g, h, i) = m.tolist()
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def inf_norm(a) -> float:
    """Max absolute entry of an array (the norm used in all residuals)."""
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


def hnorm(v) -> float:
    """Hermitian (Euclidean) magnitude sqrt(sum |v_i|^2) of a 3-vector."""
    return _norm(vec3(v).tolist())


# The private kernels below compute on 3-lists of Python complex (or float)
# numbers, the ``tolist()`` of vectors that their callers coerced with vec3
# or rvec3: on a 3-vector, numpy's per-call overhead costs more than the
# arithmetic.  Every module does its 3-vector arithmetic through them.  Dots
# sum left to right and squares are products, so an overflow gives inf or
# NaN, never a Python exception.


def _dot(u: list, v: list) -> complex:
    """Bilinear u.v, summed left to right."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u: list, v: list) -> list:
    """Vector product u x v."""
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]


def _conj(v: list) -> list:
    return [z.conjugate() for z in v]


def _norm(v: list) -> float:
    """Hermitian magnitude: math.hypot of the six parts, which cannot overflow early."""
    a, b, c = v
    return math.hypot(a.real, a.imag, b.real, b.imag, c.real, c.imag)


def _apply(O: list, v: list) -> list:
    """O v for a 3x3 nested list O."""
    return [_dot(row, v) for row in O]


# Exact power-of-two scaling.  Inside _WINDOW a squared norm and a
# non-isotropic |K.K| are normal floats; outside it, a homogeneous formula is
# evaluated on 2**-e v, e = _exponent(v), and its result scaled back.
_WINDOW = (2.0**-450, 2.0**450)


def _exponent(v: list) -> int:
    """The frexp exponent of the largest real or imaginary part of v."""
    return math.frexp(max(max(abs(z.real), abs(z.imag)) for z in v))[1]


def _ldexp(z, e: int):
    """2**e z for a real or complex scalar or a 3-list of them: z itself when
    e is 0.  Unlike z * 2.0**e, it keeps signed zeros and takes any e.  An
    overflow gives a signed inf, without a warning."""
    if not e:
        return z
    if isinstance(z, list):
        return [_ldexp(x, e) for x in z]
    if isinstance(z, complex):
        return complex(_ldexp(z.real, e), _ldexp(z.imag, e))
    try:
        return math.ldexp(z, e)
    except OverflowError:
        return math.copysign(math.inf, z)
