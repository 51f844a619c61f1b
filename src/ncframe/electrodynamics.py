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

from dataclasses import dataclass

import numpy as np

from ._kernels import (  # DUAL_TOL, QUARTER_TOL and quarter_turn are public here too
    DUAL_TOL, QUARTER_TOL, _apply, _check_units, _conj, _dot, _dual_residual, _f_of, _forward,
    _gram, _h_of, _inverse, _ldexp, _mapped, _norm, _real_forward, _real_normalized, _scale, _so3c,
    _state, _turn, quarter_turn,
)
from .group import SpinorElement, _trusted
from .linalg import ComplexVec3, rvec3, vec3


@dataclass(frozen=True)
class UnitSystem:
    """Electromagnetic unit constants; defaults are the natural units c = epsilon0 = 1."""

    c: float = 1.0
    epsilon0: float = 1.0

    def __post_init__(self):
        _check_units(self.c, self.epsilon0)

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
        return np.array(_f_of(self.E.tolist(), self.B.tolist(), self.units.c), dtype=complex)

    @property
    def h(self) -> ComplexVec3:
        units = self.units
        return np.array(_h_of(self.D.tolist(), self.H.tolist(), units.c, units.epsilon0), dtype=complex)

    @classmethod
    def from_eb(cls, E, B, K, units: UnitSystem = NATURAL) -> "FieldState":
        """Build the full state from (E, B) using the forward constitutive relation."""
        D, H = constitutive_real_forward(E, B, K, units)
        return cls(E=E, B=B, D=D, H=H, units=units)


def residual_scale(f, K) -> float:
    """||f|| (1 + ||K|| ||f||), the scale of every relative residual here; 1 if it is 0.

    NaN when an entry of f or K is NaN, as the residuals are.
    """
    return _scale(vec3(f).tolist(), vec3(K).tolist())


# _memo is the field state (``_kernels._state``) of the last (f, K) that a
# public residual read, with key the raw bytes of f and K as given.  The key
# is the exact bytes, so a mutated input or a zero of the other sign misses
# and every result keeps its bits.  The tuple is replaced in one assignment
# and read once per call, so concurrent callers at worst miss; nothing in it
# leaves the module, so no caller can mutate it.
_memo: tuple = (b"", None, None, None, 1.0, None)


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
    return np.array(_mapped(_forward, vec3(f).tolist(), vec3(K).tolist()), dtype=complex)


def constitutive_inverse(h, K) -> ComplexVec3:
    """f = [1 - (h*.K*)] h - (h*.h*)/2 K; inverse of the forward map to first order in K."""
    return np.array(_mapped(_inverse, vec3(h).tolist(), vec3(K).tolist()), dtype=complex)


def constitutive_real_forward(E, B, K, units: UnitSystem = NATURAL):
    """(D, H) from (E, B) in real variables.

    Identical, term by term, to mapping f = E + i*c*B through
    :func:`constitutive_forward`; kept in real form so the two routes can
    serve as mutual checks.
    """
    D, H = _real_forward(rvec3(E).tolist(), rvec3(B).tolist(), vec3(K).tolist(), units.c, units.epsilon0)
    return np.array(D, dtype=float), np.array(H, dtype=float)


def constitutive_real_inverse(D, H, K, units: UnitSystem = NATURAL):
    """(E, B) from (D, H); the real form of :func:`constitutive_inverse`."""
    c, eps0 = units.c, units.epsilon0
    ceps0 = c * eps0
    d, g, n, m, e = _real_normalized(
        rvec3(D).tolist(), rvec3(H).tolist(), vec3(K).tolist(),
        lambda x, y: ([x[0] / eps0, x[1] / eps0, x[2] / eps0], [y[0] / ceps0, y[1] / ceps0, y[2] / ceps0]),
        (1.0 / eps0, 1.0 / ceps0),
    )
    s1 = _dot(m, g) - _dot(n, d)
    s2 = _dot(m, d) + _dot(n, g)
    dg = _dot(d, g)
    quad = 0.5 * (_dot(g, g) - _dot(d, d))
    (a1, a2, a3), (b1, b2, b3), (x1, x2, x3), (y1, y2, y3) = d, g, n, m
    E = [a1 + s1 * a1 - s2 * b1 - dg * y1 + quad * x1,
         a2 + s1 * a2 - s2 * b2 - dg * y2 + quad * x2,
         a3 + s1 * a3 - s2 * b3 - dg * y3 + quad * x3]
    B = [(b1 + s1 * b1 + s2 * a1 + dg * x1 + quad * y1) / c,
         (b2 + s1 * b2 + s2 * a2 + dg * x2 + quad * y2) / c,
         (b3 + s1 * b3 + s2 * a3 + dg * x3 + quad * y3) / c]
    return np.array(_ldexp(E, e), dtype=float), np.array(_ldexp(B, e), dtype=float)


def covariance_residual(b: SpinorElement, f, K) -> float:
    """Relative failure of form-covariance for one group element.

    Returns ||forward(O f, O K) - O forward(f, K)|| / (||f|| (1 + ||K|| ||f||))
    with O the complex orthogonal image of b; zero in exact arithmetic.
    """
    f, K = vec3(f), vec3(K)
    O = _so3c(b.k0, b.k.tolist())
    _, f, K, h, scale, _ = _base(f, K)
    (x1, x2, x3), (y1, y2, y3) = _forward(_apply(O, f), _apply(O, K)), _apply(O, h)
    return _norm([x1 - y1, x2 - y2, x3 - y3]) / scale


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
    (f1, f2, f3), (h1, h2, h3) = vec3(f).tolist(), vec3(h).tolist()
    G = [0.5 * (h1 + f1), 0.5 * (h2 + f2), 0.5 * (h3 + f3)]
    R = [0.5 * (h1 - f1).conjugate(), 0.5 * (h2 - f2).conjugate(), 0.5 * (h3 - f3).conjugate()]
    return _trusted(DualFrame, G=np.array(G, dtype=complex), R=np.array(R, dtype=complex))


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
    (g1, g2, g3), (r1, r2, r3), (k1, k2, k3) = G, Rc, K
    return (_norm([t * k1 + a * r1 + b * g1, t * k2 + a * r2 + b * g2, t * k3 + a * r3 + b * g3]),
            _norm([a * g1 + b * r1 + w * k1 - 2.0 * r1, a * g2 + b * r2 + w * k2 - 2.0 * r2,
                   a * g3 + b * r3 + w * k3 - 2.0 * r3]))


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
