"""First-order nonlinear constitutive relations of noncommutative electrodynamics.

The complex field combinations

    f = E + i*c*B,      h = (D + i*H/c) / epsilon0

transform as plain 3-vectors under the complex orthogonal image of the
Lorentz group, which makes the first-order constitutive pair

    h = [1 + (f*.K*)] f + (f*.f*)/2 K
    f = [1 - (h*.K*)] h - (h*.h*)/2 K

manifestly form-covariant: rotating f, h and K together leaves both relations
unchanged, and for K in canonical position its stabilizer leaves even K
itself fixed.  The two relations are mutually inverse to first order in K
only; all residuals reported here are exact-formula residuals.

Dual rotations multiply the helicity-like combinations G = (h+f)/2 and
R = (h* - f*)/2 by a common phase.  Only the fourth roots of unity preserve
the constitutive pair; the continuous family fails at second order in K,
with the quarter-turn cases holding only after exchanging the roles of the
two relations.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import NonFiniteInput
from .group import SpinorElement, _so3c
from .linalg import _WINDOW, _apply, _conj, _dot, _exponent, _ldexp, _norm, np, rvec3, vec3

if TYPE_CHECKING:
    from .linalg import ComplexVec3


@dataclass(frozen=True)
class UnitSystem:
    """Electromagnetic unit constants; defaults are the natural units c = epsilon0 = 1."""

    c: float = 1.0
    epsilon0: float = 1.0

    def __post_init__(self):
        # the real routes divide by c * epsilon0, so it must be a normal float
        ce = self.c * self.epsilon0
        if not (self.c > 0 and self.epsilon0 > 0 and sys.float_info.min <= ce <= sys.float_info.max):
            raise ValueError("c and epsilon0 must be positive, with a finite normal product")

    @classmethod
    def natural(cls) -> "UnitSystem":
        return cls(1.0, 1.0)

    @classmethod
    def si(cls) -> "UnitSystem":
        return cls(c=299792458.0, epsilon0=8.8541878128e-12)


NATURAL = UnitSystem()


@dataclass(frozen=True)
class FieldState:
    """Electromagnetic field in SI-style variables with derived complex forms."""

    E: np.ndarray
    B: np.ndarray
    D: np.ndarray
    H: np.ndarray
    units: UnitSystem = NATURAL

    def __post_init__(self):
        for name in ("E", "B", "D", "H"):
            object.__setattr__(self, name, rvec3(getattr(self, name)))

    @property
    def f(self) -> ComplexVec3:
        return np.array(_f_of(self.E.tolist(), self.B.tolist(), self.units))

    @property
    def h(self) -> ComplexVec3:
        return np.array(_h_of(self.D.tolist(), self.H.tolist(), self.units))

    @classmethod
    def from_eb(cls, E, B, K, units: UnitSystem = NATURAL) -> "FieldState":
        """Build the full state from (E, B) using the forward constitutive relation."""
        D, H = constitutive_real_forward(E, B, K, units)
        return cls(E=E, B=B, D=D, H=H, units=units)


def _f_of(E: list, B: list, units: UnitSystem) -> list:
    """f = E + i c B of :class:`FieldState`, on 3-lists."""
    c = units.c
    return [x + 1j * c * y for x, y in zip(E, B)]


def _h_of(D: list, H: list, units: UnitSystem) -> list:
    """h = (D + i H / c) / epsilon0 of :class:`FieldState`, on 3-lists.

    Each part is multiplied by the reciprocals of c and epsilon0, as numpy's
    complex division by a real number does, so every part keeps the value it
    had as that array expression (a zero part can take the other sign).
    """
    rc, re = 1.0 / units.c, 1.0 / units.epsilon0
    return [complex(x * re, y * rc * re) for x, y in zip(D, H)]


def residual_scale(f, K) -> float:
    """||f|| (1 + ||K|| ||f||), the scale of every relative residual here; 1 if it is 0.

    NaN when an entry of f or K is NaN, as the residuals are.
    """
    return _scale(vec3(f).tolist(), vec3(K).tolist())


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
    4, so an odd q means the quarter turn exchanges f and h.
    Raises :class:`NonFiniteInput` for a NaN or infinite chi.
    """
    if not math.isfinite(chi):
        raise NonFiniteInput(f"dual angle must be finite, got {chi}")
    quarter = chi / (math.pi / 2)
    q = round(quarter)
    # the quotient itself is rounded by up to |quarter| 2**-52 quarter turns:
    # past QUARTER_TOL of that (|chi| above about 7e6), no chi lies on q
    return q, abs(quarter - q) < QUARTER_TOL and abs(quarter) * 2.0**-52 < QUARTER_TOL


# (cos, sin) of q pi/2 for q = 0..3 modulo 4, exactly: math.cos(pi/2) is 6.1e-17
_QUARTER_COS_SIN = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))


def _turn(chi: float) -> tuple[int, float, float]:
    """(q, cos chi, sin chi) with q from :func:`quarter_turn`, exact where chi lies on q."""
    q, on = quarter_turn(chi)
    if on:
        return (q, *_QUARTER_COS_SIN[q % 4])
    return q, math.cos(chi), math.sin(chi)


# The private functions below compute on 3-lists of Python complex (or float)
# numbers, the ``tolist()`` of vectors that their public callers coerced with
# vec3 or rvec3, through the scalar kernels of ``linalg``.


def _scale(f: list, K: list) -> float:
    nf = _norm(f)
    s = nf * (1.0 + _norm(K) * nf)
    return 1.0 if s == 0.0 else s


def _forward(f: list, K: list) -> list:
    fc = _conj(f)
    p, w = 1.0 + _dot(fc, _conj(K)), 0.5 * _dot(fc, fc)
    return [p * x + w * k for x, k in zip(f, K)]


def _inverse(h: list, K: list) -> list:
    hc = _conj(h)
    p, w = 1.0 - _dot(hc, _conj(K)), 0.5 * _dot(hc, hc)
    return [p * x - w * k for x, k in zip(h, K)]


def _inside(f: list, K: list) -> tuple[float, bool]:
    """(||f|| (1 + ||K|| ||f||), whether ||f|| and that scale lie inside ``_WINDOW``, so the scale is > 0)."""
    nf = _norm(f)
    scale = nf * (1.0 + _norm(K) * nf)
    return scale, _WINDOW[0] <= nf and scale <= _WINDOW[1]


def _mapped(form, f: list, K: list) -> list:
    """2**e form(2**-e f, 2**e K) with e from :func:`_normalized`: the forward
    (``form`` = ``_forward``) or inverse (``_inverse``) map on 3-lists."""
    f, K, _, e = _normalized(f, K)
    return _ldexp(form(f, K), e)


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
    scale, inside = _inside(f, K)
    if inside:
        return f, K, scale, 0
    e = _exponent(f)
    if e:
        f, K = _ldexp(f, -e), _ldexp(K, e)
    return f, K, _scale(f, K), e


# A field state is (key, f, K, h, scale, gram): f, K and scale from
# _normalized, h = forward(f, K), and gram the bilinear dots (f.f, f.h, f.K,
# h.h, h.K), or None where no dual residual has asked for them
# (covariance_residual never does).  A dual scan evaluates many angles on one
# field state, so they are computed once per state.
#
# _memo is the state of the last (f, K) that a public residual read, with key
# the raw bytes of f and K as given.  The key is the exact bytes, so a
# mutated input or a zero of the other sign misses and every result keeps its
# bits.  The tuple is replaced in one assignment and read once per call, so
# concurrent callers at worst miss; nothing in it leaves the module, so no
# caller can mutate it.
_memo: tuple = (b"", None, None, None, 1.0, None)


def _state(key, f: list, K: list, gram: bool = False) -> tuple:
    """The field state of the 3-lists f and K under ``key``, with its gram
    when ``gram`` is set."""
    f, K, scale, _ = _normalized(f, K)
    h = _forward(f, K)
    return key, f, K, h, scale, (_gram(f, K, h) if gram else None)


def _gram(f: list, K: list, h: list) -> tuple:
    return _dot(f, f), _dot(f, h), _dot(f, K), _dot(h, h), _dot(h, K)


def _base(f: ComplexVec3, K: ComplexVec3, gram: bool = False) -> tuple:
    """The memo entry of (f, K), with its gram filled in when ``gram`` is set."""
    global _memo
    key = f.tobytes() + K.tobytes()
    memo = _memo
    if memo[0] != key:
        memo = _state(key, f.tolist(), K.tolist(), gram)
    elif gram and memo[5] is None:
        memo = memo[:5] + (_gram(*memo[1:4]),)
    _memo = memo
    return memo


def constitutive_forward(f, K) -> ComplexVec3:
    """h = [1 + (f*.K*)] f + (f*.f*)/2 K (dots bilinear, stars conjugate)."""
    return np.array(_mapped(_forward, vec3(f).tolist(), vec3(K).tolist()))


def constitutive_inverse(h, K) -> ComplexVec3:
    """f = [1 - (h*.K*)] h - (h*.h*)/2 K; inverse of the forward map to first order in K."""
    return np.array(_mapped(_inverse, vec3(h).tolist(), vec3(K).tolist()))


def _real_normalized(x: list, y: list, K: list, form, factors) -> tuple[list, list, list, list, int]:
    """(u, v, n, m, e) with (u, v) = form(2**-e x, 2**-e y) and n + i*m = 2**e K.

    ``form`` is a real route's map from its input pair to the parts of f (or
    of h): it multiplies or divides x and y by unit constants, of the sizes
    ``factors``.  e is 0 when u + i*v and K pass the window test of
    :func:`_normalized`, or when u + i*v is zero.  Else e is, up to one or
    two, the exponent of the largest part of u + i*v, taken from the
    exponents of x, y and the factors, and form acts on the rescaled pair:
    in SI units c B overflows at B = 1e301, where H is finite.
    """
    u, v = form(x, y)
    scale, inside = _inside([complex(a, b) for a, b in zip(u, v)], K)
    e = 0
    if not inside and scale != 0.0:
        exponents = (math.frexp(abs(a))[1] + math.frexp(s)[1] for z, s in zip((x, y), factors) for a in z if a)
        e = max(exponents, default=0)
        if e:
            u, v = form(_ldexp(x, -e), _ldexp(y, -e))
            K = _ldexp(K, e)
    return u, v, [z.real for z in K], [z.imag for z in K], e


def constitutive_real_forward(E, B, K, units: UnitSystem = NATURAL):
    """(D, H) from (E, B) in real variables.

    Identical, term by term, to mapping f = E + i*c*B through
    :func:`constitutive_forward`; kept in real form so the two routes can
    serve as mutual checks.
    """
    D, H = _real_forward(rvec3(E).tolist(), rvec3(B).tolist(), vec3(K).tolist(), units)
    return np.array(D), np.array(H)


def _real_forward(E: list, B: list, K: list, units: UnitSystem) -> tuple[list, list]:
    """(D, H) of :func:`constitutive_real_forward` as 3-lists, on 3-lists."""
    c, eps0 = units.c, units.epsilon0
    E, cB, n, m, e = _real_normalized(E, B, K, lambda x, y: (x, [c * b for b in y]), (1.0, c))
    s1 = _dot(n, E) - _dot(m, cB)
    s2 = _dot(m, E) + _dot(n, cB)
    ecb = _dot(E, cB)
    quad = 0.5 * (_dot(E, E) - _dot(cB, cB))
    ceps0 = c * eps0
    terms = list(zip(E, cB, n, m))
    D = [eps0 * (a + s1 * a + s2 * b + ecb * y + quad * x) for a, b, x, y in terms]
    H = [ceps0 * (b + s1 * b - s2 * a - ecb * x + quad * y) for a, b, x, y in terms]
    return _ldexp(D, e), _ldexp(H, e)


def constitutive_real_inverse(D, H, K, units: UnitSystem = NATURAL):
    """(E, B) from (D, H); the real form of :func:`constitutive_inverse`."""
    c, eps0 = units.c, units.epsilon0
    ceps0 = c * eps0
    d, g, n, m, e = _real_normalized(
        rvec3(D).tolist(), rvec3(H).tolist(), vec3(K).tolist(),
        lambda x, y: ([a / eps0 for a in x], [b / ceps0 for b in y]), (1.0 / eps0, 1.0 / ceps0),
    )
    s1 = _dot(m, g) - _dot(n, d)
    s2 = _dot(m, d) + _dot(n, g)
    dg = _dot(d, g)
    quad = 0.5 * (_dot(g, g) - _dot(d, d))
    terms = list(zip(d, g, n, m))
    E = [a + s1 * a - s2 * b - dg * y + quad * x for a, b, x, y in terms]
    B = [(b + s1 * b + s2 * a + dg * x + quad * y) / c for a, b, x, y in terms]
    return np.array(_ldexp(E, e)), np.array(_ldexp(B, e))


def covariance_residual(b: SpinorElement, f, K) -> float:
    """Relative failure of form-covariance for one group element.

    Returns ||forward(O f, O K) - O forward(f, K)|| / (||f|| (1 + ||K|| ||f||))
    with O the complex orthogonal image of b; zero in exact arithmetic.
    """
    f, K = vec3(f), vec3(K)
    O = _so3c(b.k0, b.k.tolist())
    _, f, K, h, scale, _ = _base(f, K)
    moved = _forward(_apply(O, f), _apply(O, K))
    return _norm([x - y for x, y in zip(moved, _apply(O, h))]) / scale


def dual_transform(f, h, K, chi: float):
    """Dual rotation by angle chi on the field pair and the parameter.

    h' = cos(chi) h + i sin(chi) f, f' = i sin(chi) h + cos(chi) f, and
    K' = exp(i*chi) K; equivalently G and R both pick up the phase exp(i*chi).
    A chi on a quarter turn (:func:`quarter_turn`, which refuses a NaN or inf
    chi) takes its exact cos and sin: pi/2 maps (f, h, K) to i (h, f, K).
    """
    f, h, K = vec3(f), vec3(h), vec3(K)
    _, c, s = _turn(chi)
    return 1j * s * h + c * f, c * h + 1j * s * f, complex(c, s) * K


def dual_invariance_residual(f, K, chi: float, swapped: bool | None = None) -> float:
    """Residual of the constitutive relations after a dual rotation by chi.

    Builds h from f, rotates (f, h, K) by chi, and tests the primed pair
    against the relation asserted at the nearest quarter-turn.  At chi = 0 or
    pi that is the forward relation on (f', h'); at chi = pi/2 or 3*pi/2 the
    rotation exchanges the roles of f and h, so the inverse relation is the
    one that holds (``swapped=True``).  Pass ``swapped`` to force a role;
    ``None`` selects it from chi (:func:`quarter_turn`, which also refuses a
    NaN or infinite chi).  The residual is relative to ||f|| (1 + ||K|| ||f||)
    and vanishes (to rounding) at the four quarter turns, with the exact cos
    and sin of :func:`dual_transform`; generic angles fail at second order.

    With c = cos(chi), s = sin(chi) and e = exp(i*chi), the primed fields
    f' = c f + i s h, h' = c h + i s f and K' = e K make the residual vector
    an exact combination alpha f + beta h + gamma K of the unprimed ones, whose
    coefficients need only the bilinear dots of f, h and K:

    * forward relation, r = h' - forward(f', K'): with
      A = (e (c f.K + i s h.K))* and Q = c^2 f.f + 2ics f.h - s^2 h.h,
      alpha = is - (1 + A) c, beta = c - (1 + A) is, gamma = -Q* e / 2;
    * inverse relation (swapped), r = f' - inverse(h', K'): with
      B = (e (c h.K + i s f.K))* and P = c^2 h.h + 2ics f.h - s^2 f.f,
      alpha = c - (1 - B) is, beta = is - (1 - B) c, gamma = P* e / 2.

    The expansion is exact in exact arithmetic; the dots are computed once
    per field state, so each further angle costs a few scalar operations.
    """
    return _dual_residual(_base(vec3(f), vec3(K), gram=True), chi, swapped)


def _dual_residual(state: tuple, chi: float, swapped: bool | None = None) -> float:
    """:func:`dual_invariance_residual` on a field state with its gram."""
    _, f, K, h, scale, (ff, fh, fK, hh, hK) = state
    q, c, s = _turn(chi)
    if swapped is None:
        swapped = q % 2 == 1
    e, i_s = complex(c, s), 1j * s
    if swapped:
        u = 1.0 - (e * (c * hK + i_s * fK)).conjugate()
        w = 0.5 * (c * c * hh + 2j * c * s * fh - s * s * ff).conjugate() * e
        alpha, beta, gamma = c - u * i_s, i_s - u * c, w
    else:
        u = 1.0 + (e * (c * fK + i_s * hK)).conjugate()
        w = -0.5 * (c * c * ff + 2j * c * s * fh - s * s * hh).conjugate() * e
        alpha, beta, gamma = i_s - u * c, c - u * i_s, w
    return _norm([alpha * x + beta * y + gamma * z for x, y, z in zip(f, h, K)]) / scale


@dataclass(frozen=True)
class DualFrame:
    """Phase-covariant variables G = (h + f)/2 and R = (h* - f*)/2."""

    G: ComplexVec3
    R: ComplexVec3

    def __post_init__(self):
        object.__setattr__(self, "G", vec3(self.G))
        object.__setattr__(self, "R", vec3(self.R))

    def fields(self):
        """Recover (f, h) = (G - R*, G + R*)."""
        rc = np.conj(self.R)
        return self.G - rc, self.G + rc


def gr_from_fields(f, h) -> DualFrame:
    f, h = vec3(f).tolist(), vec3(h).tolist()
    G = [0.5 * (y + x) for x, y in zip(f, h)]
    R = [0.5 * (y - x).conjugate() for x, y in zip(f, h)]
    return DualFrame(G=np.array(G), R=np.array(R))


def gr_constraint_residual(frame: DualFrame, K) -> tuple[float, float]:
    """Residual norms of the two constitutive constraints in (G, R) variables:

        2 (G*.R) K + (G*.K*) R* + (R.K*) G = 0
        2 R* = (G*.K*) G + (R.K*) R* + 1/2 (G*.G* + R.R) K

    Both vanish to second order in K for a frame built from a consistent
    (f, h) pair; K = 0 forces R = 0, the vacuum relation h = f.
    """
    K = vec3(K).tolist()
    G, R = frame.G.tolist(), frame.R.tolist()
    Gc, Rc = _conj(G), _conj(R)
    Kc = _conj(K)
    a, b = _dot(Gc, Kc), _dot(R, Kc)
    t, w = 2.0 * _dot(Gc, R), 0.5 * (_dot(Gc, Gc) + _dot(R, R))
    terms = list(zip(G, Rc, K))
    r1 = [t * k + a * rc + b * g for g, rc, k in terms]
    r2 = [a * g + b * rc + w * k - 2.0 * rc for g, rc, k in terms]
    return _norm(r1), _norm(r2)


# ---------------------------------------------------------------------------
# Grid identities: the real Maxwell system vs its complex and (G, R) rewrites.
# ---------------------------------------------------------------------------

def _pderiv(a: np.ndarray, axis: int, h: float) -> np.ndarray:
    # 2nd-order central difference, periodic wrap
    return (np.roll(a, -1, axis=axis) - np.roll(a, 1, axis=axis)) / (2.0 * h)


def _spacing3(spacing):
    s = np.atleast_1d(np.asarray(spacing, dtype=float))
    if s.size == 1:
        s = np.repeat(s, 3)
    if s.size != 3 or np.any(s <= 0):
        raise ValueError("spacing must be a positive scalar or 3-vector")
    return s


def _grid_divergence(F: np.ndarray, spacing) -> np.ndarray:
    """Central-difference divergence of a (3, nx, ny, nz) field, periodic BCs."""
    h = _spacing3(spacing)
    return sum(_pderiv(F[i], i, h[i]) for i in range(3))


def _grid_curl(F: np.ndarray, spacing) -> np.ndarray:
    """Central-difference curl of a (3, nx, ny, nz) field, periodic BCs."""
    h = _spacing3(spacing)
    d = lambda i, j: _pderiv(F[i], j, h[j])  # noqa: E731
    return np.stack([d(2, 1) - d(1, 2), d(0, 2) - d(2, 0), d(1, 0) - d(0, 1)])


def maxwell_variable_check(
    E, B, D, H,
    dE_dt, dB_dt, dD_dt, dH_dt,
    spacing,
    units: UnitSystem = NATURAL,
) -> dict:
    """Check that the real source-free Maxwell system and its rewrites agree.

    All inputs are (3, nx, ny, nz) samples on a uniform periodic grid, with
    analytic time derivatives supplied by the caller; div and curl are formal
    central-difference operators.  Three forms of the same system are
    evaluated: the real one (four residual fields), the complex combination
    in (D/eps0 + i c B, E + i H/(c eps0)), and the (G, R) form.  Since the
    rewrites are linear and the difference operators commute with them, the
    cross-form discrepancies sit at rounding level even for fields that do
    not solve the equations; the residuals themselves vanish (to truncation
    error) only for solutions.

    Returns a dict of max-abs residuals per form, plus the rewrite
    discrepancies "real_vs_complex" and "complex_vs_gr".
    """
    c, eps0 = units.c, units.epsilon0
    E, B, D, H = (np.asarray(x, dtype=float) for x in (E, B, D, H))
    dE, dB, dD, dH = (np.asarray(x, dtype=float) for x in (dE_dt, dB_dt, dD_dt, dH_dt))

    r_div_b = _grid_divergence(B, spacing)
    r_faraday = _grid_curl(E, spacing) + dB
    r_div_d = _grid_divergence(D, spacing)
    r_ampere = _grid_curl(H, spacing) / c - dD / c

    F1 = D / eps0 + 1j * c * B
    dF1 = dD / eps0 + 1j * c * dB
    F2 = E + 1j * H / (c * eps0)
    c_div = _grid_divergence(F1, spacing)
    c_curl = -1j * dF1 / c + _grid_curl(F2, spacing)

    f = E + 1j * c * B
    h = (D + 1j * H / c) / eps0
    df = dE + 1j * c * dB
    dh = (dD + 1j * dH / c) / eps0
    G, R = (h + f) / 2.0, np.conj(h - f) / 2.0
    dG, dR = (dh + df) / 2.0, np.conj(dh - df) / 2.0
    gr_div = _grid_divergence(G + R, spacing)
    gr_curl = -1j * (dG + dR) / c + _grid_curl(G - R, spacing)

    amax = lambda a: float(np.abs(a).max())  # noqa: E731
    return {
        "real": {
            "div_b": amax(r_div_b),
            "faraday": amax(r_faraday),
            "div_d": amax(r_div_d),
            "ampere": amax(r_ampere),
        },
        "complex": {"divergence": amax(c_div), "curl": amax(c_curl)},
        "gr": {"divergence": amax(gr_div), "curl": amax(gr_curl)},
        "real_vs_complex": {
            "divergence": amax(c_div - (r_div_d / eps0 + 1j * c * r_div_b)),
            "curl": amax(c_curl - (r_faraday + 1j * r_ampere / eps0)),
        },
        "complex_vs_gr": {
            "divergence": amax(gr_div - c_div),
            "curl": amax(gr_curl - c_curl),
        },
    }
