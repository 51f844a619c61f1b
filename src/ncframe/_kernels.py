"""The list-level kernels of the library, which the CLI runs and the public
functions of ``group``, ``stabilizer``, ``factorization`` and
``electrodynamics`` wrap.

They take and return Python scalars and (nested) lists.  This module is the
numpy boundary of the package: it imports only ``math``, ``cmath``, ``enum``,
``sys`` and ``errors``, so no numpy and no dataclasses below it.  The public
modules, numpy's side, import the names defined here (``stabilizer.NCClass``
is ``_kernels.NCClass``, ``linalg.DEFAULT_TOL`` is ``_kernels.DEFAULT_TOL``),
and the CLI imports only this module and ``errors``, so a CLI child loads
neither numpy nor a public module.

The kernels are straight-line code: a 3-list or a 3x3 nested list is
tuple-unpacked and each entry written out, never a comprehension, ``zip`` or
generator over it, with the operations in the order a loop would take, so
every result keeps its bits.  On CPython 3.11 such a loop costs a nested
function call and an iterator, more than its three entries' arithmetic
(3.12 inlines comprehensions: PEP 709).  Loops over 3-lists and the 4x4
theta remain only on rare paths: the rescaling of input outside ``_WINDOW``
(the second pass of a real constitutive route among them), the target turn
of ``reduce_to_real``, the CLI's projection and the scans of a theta whose
signed sum is not finite or whose residual exceeds ``tol``.
"""

from __future__ import annotations

import cmath
import enum
import math
import sys

from .errors import ConstraintViolation, DegenerateDelta, NonFiniteInput, NotAntisymmetric, NotUnitDelta

#: Default relative tolerance for all residual checks.
DEFAULT_TOL = 1e-10


# linalg: the scalar kernels.  They compute on 3-lists of Python complex (or
# float) numbers, the ``tolist()`` of vectors that their callers coerced with
# ``linalg.vec3`` or ``linalg.rvec3``: on a 3-vector, numpy's per-call
# overhead costs more than the arithmetic.  Every module does its 3-vector
# arithmetic through them.  Dots sum left to right and squares are products,
# so an overflow gives inf or NaN, never a Python exception.


def _dot(u: list, v: list) -> complex:
    """Bilinear u.v, summed left to right."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u: list, v: list) -> list:
    """Vector product u x v."""
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]


def _norm(v: list) -> float:
    """Hermitian magnitude: math.hypot of the six parts, which cannot overflow early."""
    a, b, c = v
    return math.hypot(a.real, a.imag, b.real, b.imag, c.real, c.imag)


def _apply(O: list, v: list) -> list:
    """O v for a 3x3 nested list O."""
    (a, b, c), (d, e, f), (g, h, i) = O
    x, y, z = v
    return [a * x + b * y + c * z, d * x + e * y + f * z, g * x + h * y + i * z]


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


# group: the spinor check, composition, projection and the two images.

# The spinor and unit-square checks compare a residual r with DEFAULT_TOL *
# scale, scale >= 1, so they compute the scale only for r > DEFAULT_TOL.  Every
# square in a scale is a product, not a float power: an entry beyond ~1e154
# gives an infinite bound, which _exceeds refuses, where ``x ** 2`` raises.


def _exceeds(r: float, bound: float) -> bool:
    """True unless r <= bound, the final test of every constructor check.

    Written so that a NaN residual fails.  An infinite residual fails too,
    even against the infinite bound that an infinite entry (or an overflowed
    norm) gives: no valid element has one.
    """
    return not r <= bound or r == math.inf


def _modulus(z: complex) -> float:
    """abs(z), or inf where Python's abs raises because the modulus of a finite z overflows."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _spinor_scale(k0: complex, k: list) -> float:
    """max(1, |k0|^2 + ||k||^2), NaN for a NaN part: the scale of the spinor checks."""
    a, n = _modulus(k0), _norm(k)
    return max(a * a + n * n, 1.0)


def _check_spinor(k0: complex, k: list) -> None:
    """The check of :class:`SpinorElement`, on k0 and the 3-list of k."""
    det = k0 * k0 - _dot(k, k)
    err = _modulus(det - 1.0)
    if not err <= DEFAULT_TOL and _exceeds(err, DEFAULT_TOL * _spinor_scale(k0, k)):
        raise ConstraintViolation(
            f"k0^2 - k.k = {det:.15g}, expected 1 (within {DEFAULT_TOL:g} relative)"
        )


def _projection_root(k0: complex, k: list) -> complex:
    """sqrt(k0^2 - k.k) on its principal branch (Re >= 0), for the 3-list of
    k; ConstraintViolation where k0^2 - k.k is numerically zero or the scale
    |k0|^2 + ||k||^2 is not finite."""
    det, scale = k0 * k0 - _dot(k, k), _spinor_scale(k0, k)
    if not math.isfinite(scale):
        raise ConstraintViolation(f"cannot project: |k0|^2 + ||k||^2 = {scale:g} is not finite")
    if abs(det) < 1e-12 * scale:
        raise ConstraintViolation("cannot project: k0^2 - k.k is numerically zero")
    return cmath.sqrt(det)


def _project(k0: complex, k: list) -> tuple[complex, list]:
    """(k0, k) / sqrt(k0^2 - k.k) of :func:`project_to_group` on Python
    scalars, unchecked, for the 3-list of k.

    Each quotient is rounded as numpy's scalar complex division rounds it
    (Smith's method, times the reciprocal of the denominator), not as
    Python's (which divides by it).  That is project_to_group's k0, bit for
    bit; its k comes from numpy's array loop, which agrees wherever the root
    is real and can differ in the last bit elsewhere.
    """
    s = _projection_root(k0, k)
    c, d = s.real, s.imag
    if abs(c) >= abs(d):
        rat = d / c
        scl = 1.0 / (c + d * rat)
        quotient = lambda z: complex((z.real + z.imag * rat) * scl, (z.imag - z.real * rat) * scl)  # noqa: E731
    else:
        rat = c / d
        scl = 1.0 / (d + c * rat)
        quotient = lambda z: complex((z.real * rat + z.imag) * scl, (z.imag * rat - z.real) * scl)  # noqa: E731
    return quotient(k0), [quotient(z) for z in k]


def _compose(p: complex, u: list, q: complex, v: list) -> tuple[complex, list]:
    """(p, u) * (q, v) of :func:`spinor_compose`, unchecked, on 3-lists."""
    (a, b, c), (x, y, z) = u, v
    k = [p * x + q * a + 1j * (b * z - c * y), p * y + q * b + 1j * (c * x - a * z),
         p * z + q * c + 1j * (a * y - b * x)]
    return p * q + (a * x + b * y + c * z), k


def _so3c(k0: complex, k: list) -> list:
    """O(k) of :func:`so3c_from_spinor` as a 3x3 nested list of Python complex.

    With -(k^x)^2 = (k.k) I - k k^T, the diagonal is 1 + 2 (k_j k_j + k_l k_l)
    over the two other indices, which does not cancel, and an off-diagonal
    entry is +-2i k0 k_l - 2 k_i k_j.  Each entry starts from the complex 0
    or 1 of the identity, so, as in I + X, no part is a negative zero.
    """
    a, b, c = k
    t = 2j * k0
    ta, tb, tc = t * a, t * b, t * c
    aa, bb, cc = a * a, b * b, c * c
    ab, ac, bc = 2.0 * (a * b), 2.0 * (a * c), 2.0 * (b * c)
    return [
        [1 + 0j + 2.0 * (bb + cc), 0j - tc - ab, 0j + tb - ac],
        [0j + tc - ab, 1 + 0j + 2.0 * (aa + cc), 0j - ta - bc],
        [0j - tb - ac, 0j + ta - bc, 1 + 0j + 2.0 * (aa + bb)],
    ]


def _lorentz4(k0: complex, k: list) -> list:
    """L of :func:`lorentz4_from_spinor` as 4 rows of 4 Python floats."""
    x, y, z = k
    k0c = k0.conjugate()
    px, py, pz = k0c * x, k0c * y, k0c * z
    # k_i k_j^* for the three pairs; swapping i and j conjugates it, bit for bit
    qyz, qzx, qxy = y * z.conjugate(), z * x.conjugate(), x * y.conjugate()
    ax, ay, az, a0 = abs(x), abs(y), abs(z), abs(k0)
    xx, yy, zz, a2 = ax * ax, ay * ay, az * az, a0 * a0
    total = xx + yy + zz
    # time row and column: -2 Re(k0^* k_i) -+ 2 Im(k_j k_l^*), (i, j, l) cyclic
    tx, ty, tz = -2.0 * px.real, -2.0 * py.real, -2.0 * pz.real
    cx, cy, cz = -2.0 * qyz.imag, -2.0 * qzx.imag, -2.0 * qxy.imag
    # space block: 2 eps_ijl Im(k0^* k_l) + 2 Re(k_i k_j^*) off the diagonal
    rx, ry, rz = 2.0 * px.imag, 2.0 * py.imag, 2.0 * pz.imag
    sx, sy, sz = 2.0 * qyz.real, 2.0 * qzx.real, 2.0 * qxy.real
    return [
        [a2 + total, tx + cx, ty + cy, tz + cz],
        [tx - cx, a2 + 2.0 * xx - total, rz + sz, -ry + sy],
        [ty - cy, -rz + sz, a2 + 2.0 * yy - total, rx + sx],
        [tz - cz, ry + sy, -rx + sx, a2 + 2.0 * zz - total],
    ]


def _small_group(t: complex, K: list) -> tuple[complex, list]:
    """The small-group spinor b(t; K) = (cos w, -i (t/2) (sin w / w) K), w = (t/2) sqrt(K.K),
    as (k0, the 3-list of k).

    Every b(t; K) fixes K, and b(t1; K) b(t2; K) = b(t1 + t2; K).  cos w and
    sin w / w are even and entire in w^2, so the branch of the root does not
    matter and the family is continuous through K.K = 0, where it is
    (1, -i (t/2) K).  t = gamma with K = Delta gives O(gamma, Delta), and
    t = 2i z with an isotropic k gives O(z k).  One unit direction k serves
    every class: with s a root of k.k, b(gamma / s; k) = b(gamma; k / s), so
    the CLI's stabilizer builds every element as b(t; K / ||K||).

    The element is not checked again: k0^2 - k.k = cos^2 w + sin^2 w = 1 for
    every K, up to rounding relative to the element's own scale.  Where that
    scale is not finite (|Im w| above about 710), the SpinorElement check
    decides.  cos w and sin w are cmath's, which equal numpy's bit for bit
    where they are finite; where cmath raises instead (an OverflowError, or
    a ValueError for an infinite Re w), no element exists and k0^2 - k.k is
    NaN.  Python's complex division keeps sin w / w = 1 for a subnormal w,
    where numpy's gives inf.
    """
    half = 0.5 * t
    w = half * cmath.sqrt(_dot(K, K))
    try:
        k0, sin_w = cmath.cos(w), cmath.sin(w)
    except (OverflowError, ValueError):
        raise ConstraintViolation(f"k0^2 - k.k = nan: cos w, sin w not finite at w = {w}") from None
    c = -1j * half * (sin_w / w if w else 1.0)
    x, y, z = K
    k = [c * x, c * y, c * z]
    if not math.isfinite(_spinor_scale(k0, k)):
        _check_spinor(k0, k)
    return k0, k


# stabilizer: theta <-> K, the scaled view of K and the reducing rotation.

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


def _theta_to_K(rows: list, tol: float) -> list:
    """K of :func:`theta_to_K` as a 3-list, from theta as 4 rows of 4 floats."""
    _require_threshold(tol, "tol")
    (t00, t01, t02, t03), (t10, t11, t12, t13), (t20, t21, t22, t23), (t30, t31, t32, t33) = rows
    # any NaN or inf entry makes the signed sum non-finite (and max() below passes over a NaN)
    total = t00 + t01 + t02 + t03 + t10 + t11 + t12 + t13 + t20 + t21 + t22 + t23 + t30 + t31 + t32 + t33
    if not math.isfinite(total):
        _require_finite([x for row in rows for x in row], total, "theta")
    resid = max(
        2.0 * max(abs(t00), abs(t11), abs(t22), abs(t33)),
        abs(t01 + t10), abs(t02 + t20), abs(t03 + t30),
        abs(t12 + t21), abs(t13 + t31), abs(t23 + t32),
    )
    if resid > tol and resid > tol * max(1.0, max(abs(x) for row in rows for x in row)):  # the bound is >= tol
        raise NotAntisymmetric(f"theta + theta^T residual {resid:.3e}")
    return [complex(t23, t01), complex(t31, t02), complex(t12, t03)]


def _require_finite(a: list, nrm: float, name: str = "K") -> None:
    """Raise :class:`NonFiniteInput` if an entry of the list a is NaN or
    infinite; the entries are scanned only when nrm, a norm or the signed
    sum of a, is not finite."""
    if not math.isfinite(nrm) and not all(map(cmath.isfinite, a)):
        raise NonFiniteInput(f"{name} has a NaN or infinite entry")


def _K_to_theta(K: list) -> list:
    """theta of :func:`K_to_theta` as 4 rows of 4 floats, from the 3-list of K."""
    a, b, c = K
    n1, n2, n3, m1, m2, m3 = a.real, b.real, c.real, a.imag, b.imag, c.imag
    return [
        [0.0, m1, m2, m3],
        [-m1, 0.0, n3, -n2],
        [-m2, -n3, 0.0, n1],
        [-m3, n2, -n1, 0.0],
    ]


def _invariants(K: list) -> tuple[float, float, float, float]:
    # |K.K| is libm's hypot, as np.hypot is.  math.atan2 differs from
    # np.arctan2 in the last bit for a few per cent of arguments.
    ksq = _dot(K, K)
    i1, i2 = ksq.real, ksq.imag
    mu = math.atan2(i2, i1) / 2.0
    if mu < 0.0:
        mu += math.pi
    return i1, i2, abs(ksq), mu


# An invariant below 2**-969 (2**53 times the smallest normal float) may be
# a subnormal or a zero left by underflow, short of the bits mu needs.
_TINY_INVARIANT = 2.0**-969


def _require_threshold(x: float, name: str) -> None:
    if not 0.0 <= x < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {x!r}")


def _view(K: list, eps_iso: float) -> tuple:
    """The scaled view of K, the one place that scales K for classification
    and splitting: (Ks, e, (I1, I2, I, mu) of Ks, (mu, class, subcase) of
    :func:`classify`, split).

    Ks is the 3-list 2**-e K, exact: K itself inside ``_WINDOW``, else K
    with its largest part in [0.5, 1).  split is (Kscalar / 2**e, Delta as a
    3-list) of a non-isotropic K, None for any other.  Where I1 or I2 of Ks
    is below ``_TINY_INVARIANT``, mu is that of K scaled to a largest part
    in [0.5, 1), so no power-of-two scale of K moves it.  NaN or inf raise
    NonFiniteInput; an eps_iso that is not finite and >= 0 raises ValueError.
    """
    _require_threshold(eps_iso, "eps_iso")
    nrm, e = _norm(K), 0
    if not _WINDOW[0] <= nrm <= _WINDOW[1]:
        _require_finite(K, nrm)
        e = _exponent(K)
        K = _ldexp(K, -e)
        nrm = _norm(K)
    scaled = i1, i2, mag, mu = _invariants(K)
    if min(abs(i1), abs(i2)) < _TINY_INVARIANT:
        mu = _invariants(_ldexp(K, -_exponent(K)))[3]
        scaled = i1, i2, mag, mu
    if nrm == 0.0 or mag <= eps_iso * (nrm * nrm):
        klass = NCClass.ISOTROPIC if nrm else NCClass.COMMUTATIVE
        return K, e, scaled, (None, klass, Subcase.NONE), None
    # Kscalar = sqrt(I) exp(i*mu) from the raw mu, not the snapped mu of a
    # subcase, so that Delta.Delta = 1 to rounding; exp(i*mu) from math.cos
    # and math.sin, bit for bit, the + 0.0 turning the -0.0 of sin(-0.0)
    # into the +0.0 that exp gives.
    kscalar = math.sqrt(mag) * complex(math.cos(mu), math.sin(mu) + 0.0)
    k1, k2, k3 = K
    split = (kscalar, [k1 / kscalar, k2 / kscalar, k3 / kscalar])
    sub = Subcase.GENERIC
    if abs(i2) <= eps_iso * mag:
        mu, sub = (0.0, Subcase.IA) if i1 > 0 else (math.pi / 2, Subcase.IB)
    elif abs(i1) <= eps_iso * mag:
        mu, sub = (math.pi / 4, Subcase.IIA) if i2 > 0 else (3 * math.pi / 4, Subcase.IIB)
    return K, e, scaled, (mu, NCClass.NON_ISOTROPIC, sub), split


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


def _reduce_to_real(delta: list, e_target: list | None) -> list:
    """S of :func:`reduce_to_real` as a 3x3 nested list, for a delta with
    delta.delta = 1 already and the real 3-list of e_target (or None)."""
    a, b, c = delta
    n1, n2, n3, m1, m2, m3 = a.real, b.real, c.real, a.imag, b.imag, c.imag
    ch = math.hypot(n1, n2, n3)  # _norm of the real 3-list, bit for bit: its zero parts add nothing
    if ch < 1.0 - DEFAULT_TOL:
        raise DegenerateDelta(f"||Re delta|| = {ch:.15g} < 1")
    x1, x2, x3 = n1 / ch, n2 / ch, n3 / ch  # N0
    mnorm = math.hypot(m1, m2, m3)
    k0, k = 1 + 0j, [0j, 0j, 0j]  # no boost for a real delta
    if mnorm > 1e-12 * max(1.0, ch):
        y1, y2, y3 = m1 / mnorm, m2 / mnorm, m3 / mnorm
        u1, u2, u3 = y2 * x3 - y3 * x2, y3 * x1 - y1 * x3, y1 * x2 - y2 * x1  # (Im delta / mnorm) x N0
        unorm = math.hypot(u1, u2, u3)
        if unorm < 1e-8:
            raise DegenerateDelta("Re delta and Im delta are parallel")
        k0, k = _small_group(1j * math.asinh(mnorm), [u1 / unorm, u2 / unorm, u3 / unorm])
    if e_target is not None:
        k0, k = _compose(*_turn_to([x1, x2, x3], _unit_target(e_target)), k0, k)
    return _so3c(k0, k)


def _turn_to(src: list, dst: list) -> tuple[complex, list]:
    """The spinor (k0, k) of the real rotation about src x dst that carries
    the real unit 3-list src to dst, unimodular to rounding.

    For src.dst >= 0 it is (1 + src.dst, -i src x dst), normalized, whose
    scalar part cannot cancel.  Otherwise the half turn (0, -i u) about the
    unit u along src x dst = src x (src + dst) carries src to -src, and the
    turn from -src, with -src.dst > 0, follows it.  The sum src + dst does
    not cancel, so u is perpendicular to src to rounding however close dst
    is to -src; for dst = -src, u is any axis perpendicular to src.
    """
    dot = _dot(src, dst)
    if dot < 0.0:
        u = _cross(src, [x + y for x, y in zip(src, dst)])
        if not any(u):
            seed = [0.0, 0.0, 0.0]
            seed[min(range(3), key=lambda i: abs(src[i]))] = 1.0
            u = _cross(src, seed)
        nrm = _norm(u)
        return _compose(*_turn_to([-x for x in src], dst), 0j, [-1j * (x / nrm) for x in u])
    c = _cross(src, dst)
    nrm = math.hypot(1.0 + dot, *c)
    return complex((1.0 + dot) / nrm), [-1j * (x / nrm) for x in c]


def _unit_target(e: list) -> list:
    """The real 3-list e, normalized; it must have unit norm within
    DEFAULT_TOL."""
    nrm = _norm(e)
    if not abs(nrm - 1.0) <= DEFAULT_TOL:  # a NaN entry fails too
        raise ValueError(f"target must be a real unit vector (norm {nrm:.15g})")
    return [x / nrm for x in e]


def _canonical(kscalar: complex, delta: list) -> tuple[list, list]:
    """(S as a 3x3 nested list, Kcanon as a 3-list) of :func:`canonical_frame`,
    from a split of :func:`_view`; Kcanon is that of the view's Ks."""
    (a, b, c), (d, e, f), (g, h, i) = S = _reduce_to_real(delta, None)
    x, y, z = delta
    # Re(S Delta) row by row, with no list; a complex product takes fewer
    # steps on CPython 3.11 than its real part written out in floats
    u1, u2, u3 = (a * x + b * y + c * z).real, (d * x + e * y + f * z).real, (g * x + h * y + i * z).real
    nrm = math.hypot(u1, u2, u3)
    if not 0.0 < nrm < math.inf:  # S or S Delta overflowed: ||Delta||^2 is near the float range
        raise DegenerateDelta(f"||Re(S Delta)|| = {nrm:.15g}: no finite real direction")
    return S, [kscalar * (u1 / nrm), kscalar * (u2 / nrm), kscalar * (u3 / nrm)]


# factorization: the rotation and boost factors of a spinor.


class FactorOrder(str, enum.Enum):
    ROTATION_FIRST = "rotation-first"   # element = rotation o boost
    BOOST_FIRST = "boost-first"         # element = boost o rotation


def _factors(k0: complex, k: list, order: FactorOrder) -> tuple[tuple, tuple, int]:
    """((a0, a), (b0, b), sign): the rotation and boost of :func:`_factor`
    as (k0, 3-list of k) pairs of Python complex numbers, for the 3-list of
    k of a checked element."""
    # Neither factor is checked again.  The rotation has a0^2 + a.a = 1 up to
    # rounding.  The boost has k0^2 - k.k - 1 = Re(eps) + Im(eps)^2 / (4 r^2),
    # where eps = k0^2 - k.k - 1 of b, and a scale at most b's.  A checked b
    # has |m0|, ||m|| <= r (1 + DEFAULT_TOL), so every product and partial
    # sum of the boost numerator stays near r^2 or below, and both factors
    # are finite while 4 r^2 is.  Beyond that (entries near 1e154) both get
    # the SpinorElement check, as they always have.
    n0, m0 = k0.real, k0.imag
    x, y, z = k
    n1, n2, n3, m1, m2, m3 = -x.imag, -y.imag, -z.imag, x.real, y.real, z.real
    r2 = n0 * n0 + (n1 * n1 + n2 * n2 + n3 * n3)
    r = math.sqrt(r2)
    s = 1.0 if order is FactorOrder.ROTATION_FIRST else -1.0  # the sign of m x n
    bk = [complex((n0 * m1 - m0 * n1 + s * (m2 * n3 - m3 * n2)) / r),
          complex((n0 * m2 - m0 * n2 + s * (m3 * n1 - m1 * n3)) / r),
          complex((n0 * m3 - m0 * n3 + s * (m1 * n2 - m2 * n1)) / r)]
    # r >= 1 in exact arithmetic; max() keeps b0 >= 1 after rounding
    boost = complex(max(r, 1.0)), bk
    a0, a1, a2, a3 = n0 / r, n1 / r, n2 / r, n3 / r
    sign = 1
    if a0 < 0.0:
        a0, a1, a2, a3, sign = -a0, -a1, -a2, -a3, -1
    rotation = complex(a0), [-1j * a1, -1j * a2, -1j * a3]
    if not math.isfinite(4.0 * r2):
        _check_spinor(*boost)
        _check_spinor(*rotation)
    return rotation, boost, sign


def _isotropic_sign(k0: complex, view: tuple) -> int:
    """:func:`isotropic_sign` of k0 and the :func:`_view` of k, whose split
    is None exactly when k.k = 0 within its eps_iso (k = 0 included)."""
    sgn = 1 if abs(k0 - 1.0) <= abs(k0 + 1.0) else -1
    return 0 if abs(k0 - sgn) > DEFAULT_TOL or view[4] is not None else sgn


# electrodynamics: units, the constitutive maps, field states and the dual
# residual, on the ``tolist()`` of vectors coerced with vec3 or rvec3.


def _check_units(c: float, epsilon0: float) -> None:
    """The check of :class:`UnitSystem`."""
    # the real routes divide by c * epsilon0, so it must be a normal float
    ce = c * epsilon0
    if not (c > 0 and epsilon0 > 0 and sys.float_info.min <= ce <= sys.float_info.max):
        raise ValueError("c and epsilon0 must be positive, with a finite normal product")


def _f_of(E: list, B: list, c: float) -> list:
    """f = E + i c B of :class:`FieldState`, on 3-lists."""
    (e1, e2, e3), (b1, b2, b3), ic = E, B, 1j * c
    return [e1 + ic * b1, e2 + ic * b2, e3 + ic * b3]


def _h_of(D: list, H: list, c: float, epsilon0: float) -> list:
    """h = (D + i H / c) / epsilon0 of :class:`FieldState`, on 3-lists.

    Each part is multiplied by the reciprocals of c and epsilon0, as numpy's
    complex division by a real number does, so every part keeps the value it
    had as that array expression (a zero part can take the other sign).
    """
    (d1, d2, d3), (h1, h2, h3), rc, re = D, H, 1.0 / c, 1.0 / epsilon0
    return [complex(d1 * re, h1 * rc * re), complex(d2 * re, h2 * rc * re), complex(d3 * re, h3 * rc * re)]


#: Distance, in quarter turns, within which a dual angle counts as a quarter
#: turn.  A chi that close to q pi/2 snaps to it: the dual rotation and its
#: residual take the exact cos and sin of q pi/2, not cos and sin of chi.
QUARTER_TOL = 1e-9

#: Largest dual_invariance_residual that passes at a quarter turn.
DUAL_TOL = 1e-10


def quarter_turn(chi: float) -> tuple[int, bool]:
    """Nearest quarter-turn index q = round(chi / (pi/2)), and whether chi lies on it.

    chi lies on q when |chi / (pi/2) - q| < QUARTER_TOL and that quotient's
    own rounding, |chi / (pi/2)| 2**-52, is below QUARTER_TOL too, so that no
    angle beyond about 7e6 lies on a quarter turn.  q is not reduced modulo
    4, so an odd q means the quarter turn exchanges f and h.  These are the
    first two values of ``_turn(chi)``, the one quarter-turn test.
    Raises :class:`NonFiniteInput` for a NaN or infinite chi.
    """
    return _turn(chi)[:2]


# (cos, sin) of q pi/2 for q = 0..3 modulo 4, exactly: math.cos(pi/2) is 6.1e-17
_QUARTER_COS_SIN = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))


def _turn(chi: float) -> tuple[int, bool, float, float]:
    """(q, on, cos chi, sin chi): the one quarter-turn test, whose (q, on)
    :func:`quarter_turn` returns, with cos and sin exact where chi is on q."""
    if not math.isfinite(chi):
        raise NonFiniteInput(f"dual angle must be finite, got {chi}")
    quarter = chi / (math.pi / 2)
    q = round(quarter)
    if abs(quarter - q) < QUARTER_TOL and abs(quarter) * 2.0**-52 < QUARTER_TOL:
        return (q, True, *_QUARTER_COS_SIN[q % 4])
    return q, False, math.cos(chi), math.sin(chi)


def _scale(f: list, K: list) -> float:
    """The scale of :func:`_inside` for f and K, or 1 where it is 0 (NaN stays NaN)."""
    return _inside(_norm(f), _norm(K))[0] or 1.0


def _forward(f: list, K: list) -> list:
    (a, b, c), (x, y, z) = f, K
    ac, bc, cc = a.conjugate(), b.conjugate(), c.conjugate()
    p = 1.0 + (ac * x.conjugate() + bc * y.conjugate() + cc * z.conjugate())
    w = 0.5 * (ac * ac + bc * bc + cc * cc)
    return [p * a + w * x, p * b + w * y, p * c + w * z]


def _inverse(h: list, K: list) -> list:
    (a, b, c), (x, y, z) = h, K
    ac, bc, cc = a.conjugate(), b.conjugate(), c.conjugate()
    p = 1.0 - (ac * x.conjugate() + bc * y.conjugate() + cc * z.conjugate())
    w = 0.5 * (ac * ac + bc * bc + cc * cc)
    return [p * a - w * x, p * b - w * y, p * c - w * z]


def _inside(nf: float, nk: float) -> tuple[float, bool]:
    """(nf (1 + nk nf), whether nf and that scale lie inside ``_WINDOW``, so
    the scale is > 0): the window test of the norms nf of f (or h) and nk of K."""
    scale = nf * (1.0 + nk * nf)
    return scale, _WINDOW[0] <= nf and scale <= _WINDOW[1]


def _normalized(f: list, K: list) -> tuple[list, list, float, int]:
    """(2**-e f, 2**e K, residual_scale of those, e), rescaled exactly when
    ||f|| or the scale is outside ``_WINDOW``, with e the exponent of the
    largest part of f; else (f, K, scale, 0).

    |f.f|, |f.h| and |h.h| are at most a few scale**2, so inside the window
    none overflows and f.f does not underflow.  h scales with f, so each of
    the four maps (of h, for the inverses) is evaluated as 2**e map(2**-e f,
    2**e K), and both residuals, being relative, on the rescaled pair; where
    the unscaled dots are normal floats, the rescaling changes no result.
    K 2**e overflows only if ||K|| ||f|| does.
    """
    scale, inside = _inside(_norm(f), _norm(K))
    if inside:
        return f, K, scale, 0
    e = _exponent(f)
    if e:
        f, K = _ldexp(f, -e), _ldexp(K, e)
    return f, K, _scale(f, K), e


# A field state is (f, K, h, scale, e, gram): f, K, scale and e from
# _normalized, h = forward(f, K) (so 2**e h is the forward image of the
# caller's f), and gram the bilinear dots (f.f, f.h, f.K, h.h, h.K) that
# turn every dual angle into a closed form.  A dual scan evaluates many
# angles on one field state, so the dots are computed once per state.


def _state(f: list, K: list) -> tuple:
    """The field state of the 3-lists f and K."""
    f, K, scale, e = _normalized(f, K)
    h = _forward(f, K)
    return f, K, h, scale, e, (_dot(f, f), _dot(f, h), _dot(f, K), _dot(h, h), _dot(h, K))


def _real_exponent(x: list, y: list, sx: float, sy: float) -> int:
    """The exponent e of a real route whose parts u + i v = sx x + i sy y
    (f, or h) fail the window test of :func:`_normalized`: up to one or two,
    the exponent of the largest part, taken from the exponents of x, y, sx
    and sy, so that the route forms its parts from 2**-e x and 2**-e y: in SI
    units c B overflows at B = 1e301, where H is finite.  0 for x = y = 0."""
    return max((math.frexp(abs(a))[1] + math.frexp(s)[1] for z, s in ((x, sx), (y, sy)) for a in z if a), default=0)


def _real_forward(E: list, B: list, K: list, c: float, eps0: float) -> tuple[list, list]:
    """(D, H) of :func:`constitutive_real_forward` as 3-lists, on 3-lists.

    The loop forms the six parts of f = E + i c B and runs the window test of
    :func:`_normalized` on them and K.  Where they fail it and are not zero,
    a second pass forms them from 2**-e (E, B), with 2**e K, e from
    :func:`_real_exponent`, and D and H are scaled back by 2**e.
    """
    e = 0
    while True:
        (a1, a2, a3), (y1, y2, y3), (k1, k2, k3) = E, B, K
        b1, b2, b3 = c * y1, c * y2, c * y3
        x1, x2, x3, z1, z2, z3 = k1.real, k2.real, k3.real, k1.imag, k2.imag, k3.imag
        scale, inside = _inside(math.hypot(a1, b1, a2, b2, a3, b3), math.hypot(x1, z1, x2, z2, x3, z3))
        if e or inside or scale == 0.0 or not (e := _real_exponent(E, B, 1.0, c)):
            break
        E, B, K = _ldexp(E, -e), _ldexp(B, -e), _ldexp(K, e)
    s1 = (x1 * a1 + x2 * a2 + x3 * a3) - (z1 * b1 + z2 * b2 + z3 * b3)
    s2 = (z1 * a1 + z2 * a2 + z3 * a3) + (x1 * b1 + x2 * b2 + x3 * b3)
    ecb = a1 * b1 + a2 * b2 + a3 * b3
    quad = 0.5 * ((a1 * a1 + a2 * a2 + a3 * a3) - (b1 * b1 + b2 * b2 + b3 * b3))
    ceps0 = c * eps0
    D = [eps0 * (a1 + s1 * a1 + s2 * b1 + ecb * z1 + quad * x1),
         eps0 * (a2 + s1 * a2 + s2 * b2 + ecb * z2 + quad * x2),
         eps0 * (a3 + s1 * a3 + s2 * b3 + ecb * z3 + quad * x3)]
    H = [ceps0 * (b1 + s1 * b1 - s2 * a1 - ecb * x1 + quad * z1),
         ceps0 * (b2 + s1 * b2 - s2 * a2 - ecb * x2 + quad * z2),
         ceps0 * (b3 + s1 * b3 - s2 * a3 - ecb * x3 + quad * z3)]
    return _ldexp(D, e), _ldexp(H, e)


def _dual_residual(state: tuple, turn: tuple) -> float:
    """:func:`dual_invariance_residual` on a field state at the angle of ``turn``, a :func:`_turn`."""
    f, K, h, scale, _, (ff, fh, fK, hh, hK) = state
    q, _, c, s = turn
    e, i_s = complex(c, s), 1j * s
    if q % 2:
        u = 1.0 - (e * (c * hK + i_s * fK)).conjugate()
        w = 0.5 * (c * c * hh + 2j * c * s * fh - s * s * ff).conjugate() * e
        alpha, beta, gamma = c - u * i_s, i_s - u * c, w
    else:
        u = 1.0 + (e * (c * fK + i_s * hK)).conjugate()
        w = -0.5 * (c * c * ff + 2j * c * s * fh - s * s * hh).conjugate() * e
        alpha, beta, gamma = i_s - u * c, c - u * i_s, w
    (f1, f2, f3), (h1, h2, h3), (k1, k2, k3) = f, h, K
    x, y, z = (alpha * f1 + beta * h1 + gamma * k1, alpha * f2 + beta * h2 + gamma * k2,
               alpha * f3 + beta * h3 + gamma * k3)
    return math.hypot(x.real, x.imag, y.real, y.imag, z.real, z.imag) / scale
