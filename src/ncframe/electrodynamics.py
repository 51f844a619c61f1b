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
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInput
from .group import SpinorElement, so3c_from_spinor
from .linalg import ComplexVec3, bdot3, hnorm3, rvec3, vec3


@dataclass(frozen=True)
class UnitSystem:
    """Electromagnetic unit constants; defaults are the natural units c = epsilon0 = 1."""

    c: float = 1.0
    epsilon0: float = 1.0

    def __post_init__(self):
        if not (self.c > 0 and self.epsilon0 > 0):
            raise ValueError("c and epsilon0 must be positive")

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
        return self.E + 1j * self.units.c * self.B

    @property
    def h(self) -> ComplexVec3:
        return (self.D + 1j * self.H / self.units.c) / self.units.epsilon0

    @classmethod
    def from_eb(cls, E, B, K, units: UnitSystem = NATURAL) -> "FieldState":
        """Build the full state from (E, B) using the forward constitutive relation."""
        D, H = constitutive_real_forward(E, B, K, units)
        return cls(E=E, B=B, D=D, H=H, units=units)


def residual_scale(f, K) -> float:
    """||f|| (1 + ||K|| ||f||), the scale of every relative residual here; 1 if it is 0."""
    return _scale(vec3(f), vec3(K))


#: Distance, in quarter turns, within which a dual angle counts as a quarter turn.
QUARTER_TOL = 1e-9

#: Largest dual_invariance_residual that passes at a quarter turn.
DUAL_TOL = 1e-10


def quarter_turn(chi: float) -> tuple[int, bool]:
    """Nearest quarter-turn index q = round(chi / (pi/2)), and whether chi lies on it.

    chi lies on q when |chi / (pi/2) - q| < QUARTER_TOL.  q is not reduced
    modulo 4, so an odd q means the quarter turn exchanges f and h.
    Raises :class:`NonFiniteInput` for a NaN or infinite chi.
    """
    if not math.isfinite(chi):
        raise NonFiniteInput(f"dual angle must be finite, got {chi}")
    quarter = chi / (math.pi / 2)
    q = round(quarter)
    return q, abs(quarter - q) < QUARTER_TOL


# The private kernels below take complex 3-vectors that their public callers
# have already coerced with vec3.


def _sdot(u: ComplexVec3, v: ComplexVec3) -> complex:
    """u*.v* without forming the conjugates: conj(u.v), bit for bit.

    Negating the imaginary parts of both inputs negates every imaginary
    product, so the real sum is unchanged and the imaginary sum changes sign.
    numpy's dot sums from +0.0, so an exactly zero imaginary sum is +0.0
    either way; ``0.0 - im`` keeps it +0.0 where ``-im`` would give -0.0.
    """
    z = bdot3(u, v)
    return complex(z.real, 0.0 - z.imag)


def _scale(f: ComplexVec3, K: ComplexVec3) -> float:
    nf = hnorm3(f)
    s = nf * (1.0 + hnorm3(K) * nf)
    return s if s > 0.0 else 1.0


def _forward(f: ComplexVec3, K: ComplexVec3) -> ComplexVec3:
    return (1.0 + _sdot(f, K)) * f + 0.5 * _sdot(f, f) * K


def _inverse(h: ComplexVec3, K: ComplexVec3) -> ComplexVec3:
    return (1.0 - _sdot(h, K)) * h - 0.5 * _sdot(h, h) * K


# The per-field-state quantities of the last (f, K) that a residual read:
# (key, h, scale, gram) with key the raw bytes of f and K, h = forward(f, K),
# scale = residual_scale(f, K) and gram = (fhK, dots), the rows f, h, K
# stacked and every bilinear dot between them, or None until a dual residual
# first asks for it (covariance_residual never does).  A dual scan evaluates
# many angles on one field state, so they compute these once.  The key is the
# exact bytes, so a mutated input or a zero of the other sign misses and every
# result keeps its bits.  The tuple is replaced in one assignment and read
# once per call, so concurrent callers at worst miss; nothing in it leaves the
# module, so no caller can mutate it.
_memo: tuple[bytes, ComplexVec3 | None, float, tuple | None] = (b"", None, 1.0, None)


def _base(f: ComplexVec3, K: ComplexVec3, gram: bool = False) -> tuple:
    """The memo entry of (f, K), with its gram filled in when ``gram`` is set."""
    global _memo
    key = f.tobytes() + K.tobytes()
    memo = _memo
    if memo[0] != key:
        memo = (key, _forward(f, K), _scale(f, K), None)
    if gram and memo[3] is None:
        fhK = np.stack((f, memo[1], K))
        memo = memo[:3] + ((fhK, fhK.dot(fhK.T).tolist()),)
    _memo = memo
    return memo


def constitutive_forward(f, K) -> ComplexVec3:
    """h = [1 + (f*.K*)] f + (f*.f*)/2 K (dots bilinear, stars conjugate)."""
    return _forward(vec3(f), vec3(K))


def constitutive_inverse(h, K) -> ComplexVec3:
    """f = [1 - (h*.K*)] h - (h*.h*)/2 K; inverse of the forward map to first order in K."""
    return _inverse(vec3(h), vec3(K))


def constitutive_real_forward(E, B, K, units: UnitSystem = NATURAL):
    """(D, H) from (E, B) in real variables.

    Identical, term by term, to mapping f = E + i*c*B through
    :func:`constitutive_forward`; kept in real form so the two routes can
    serve as mutual checks.
    """
    E, cB = rvec3(E), units.c * rvec3(B)
    K = vec3(K)
    n, m = K.real, K.imag
    s1 = n.dot(E) - m.dot(cB)
    s2 = m.dot(E) + n.dot(cB)
    ecb = E.dot(cB)
    quad = 0.5 * (E.dot(E) - cB.dot(cB))
    d = E + s1 * E + s2 * cB + ecb * m + quad * n
    g = cB + s1 * cB - s2 * E - ecb * n + quad * m
    return units.epsilon0 * d, units.c * units.epsilon0 * g


def constitutive_real_inverse(D, H, K, units: UnitSystem = NATURAL):
    """(E, B) from (D, H); the real form of :func:`constitutive_inverse`."""
    d = rvec3(D) / units.epsilon0
    g = rvec3(H) / (units.c * units.epsilon0)
    K = vec3(K)
    n, m = K.real, K.imag
    s1 = m.dot(g) - n.dot(d)
    s2 = m.dot(d) + n.dot(g)
    dg = d.dot(g)
    quad = 0.5 * (g.dot(g) - d.dot(d))
    E = d + s1 * d - s2 * g - dg * m + quad * n
    cB = g + s1 * g + s2 * d + dg * n + quad * m
    return E, cB / units.c


def covariance_residual(b: SpinorElement, f, K) -> float:
    """Relative failure of form-covariance for one group element.

    Returns ||forward(O f, O K) - O forward(f, K)|| / (||f|| (1 + ||K|| ||f||))
    with O the complex orthogonal image of b; zero in exact arithmetic.
    """
    f, K = vec3(f), vec3(K)
    O = so3c_from_spinor(b).matrix
    _, h, scale, _ = _base(f, K)
    r = _forward(O.dot(f), O.dot(K)) - O.dot(h)
    return hnorm3(r) / scale


def dual_transform(f, h, K, chi: float):
    """Dual rotation by angle chi on the field pair and the parameter.

    h' = cos(chi) h + i sin(chi) f, f' = i sin(chi) h + cos(chi) f, and
    K' = exp(i*chi) K; equivalently G and R both pick up the phase exp(i*chi).
    """
    f, h, K = vec3(f), vec3(h), vec3(K)
    c, s = math.cos(chi), math.sin(chi)
    # complex(c, s) is exp(1j * chi) bit for bit; `+ 0.0` turns sin(-0.0) into
    # the +0.0 imaginary part that exp(1j * -0.0) has.
    return 1j * s * h + c * f, c * h + 1j * s * f, complex(c, s + 0.0) * K


def dual_invariance_residual(f, K, chi: float, swapped: bool | None = None) -> float:
    """Residual of the constitutive relations after a dual rotation by chi.

    Builds h from f, rotates (f, h, K) by chi, and tests the primed pair
    against the relation asserted at the nearest quarter-turn.  At chi = 0 or
    pi that is the forward relation on (f', h'); at chi = pi/2 or 3*pi/2 the
    rotation exchanges the roles of f and h, so the inverse relation is the
    one that holds (``swapped=True``).  Pass ``swapped`` to force a role;
    ``None`` selects it from chi (:func:`quarter_turn`).  The residual is
    relative to ||f|| (1 + ||K|| ||f||) and vanishes (to rounding) exactly at
    the four quarter-turn angles; generic angles fail at second order in K.

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
    f, K = vec3(f), vec3(K)
    if swapped is None:
        swapped = quarter_turn(chi)[0] % 2 == 1
    _, _, scale, (fhK, g) = _base(f, K, gram=True)
    c, s = math.cos(chi), math.sin(chi)
    e, i_s = complex(c, s), 1j * s
    (ff, fh, fK), (_, hh, hK) = g[0], g[1]
    if swapped:
        u = 1.0 - (e * (c * hK + i_s * fK)).conjugate()
        w = 0.5 * (c * c * hh + 2j * c * s * fh - s * s * ff).conjugate() * e
        coef = (c - u * i_s, i_s - u * c, w)
    else:
        u = 1.0 + (e * (c * fK + i_s * hK)).conjugate()
        w = -0.5 * (c * c * ff + 2j * c * s * fh - s * s * hh).conjugate() * e
        coef = (i_s - u * c, c - u * i_s, w)
    return hnorm3(np.array(coef).dot(fhK)) / scale


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
    f, h = vec3(f), vec3(h)
    return DualFrame(G=(h + f) / 2.0, R=np.conj(h - f) / 2.0)


def gr_constraint_residual(frame: DualFrame, K) -> tuple[float, float]:
    """Residual norms of the two constitutive constraints in (G, R) variables:

        2 (G*.R) K + (G*.K*) R* + (R.K*) G = 0
        2 R* = (G*.K*) G + (R.K*) R* + 1/2 (G*.G* + R.R) K

    Both vanish to second order in K for a frame built from a consistent
    (f, h) pair; K = 0 forces R = 0, the vacuum relation h = f.
    """
    K = vec3(K)
    G, R = frame.G, frame.R
    Rc = np.conj(R)
    a = _sdot(G, K)
    b = _sdot(Rc, K)  # R.K* = (R*.K)*
    s = _sdot(G, Rc)  # G*.R = (G.R*)*
    r1 = 2.0 * s * K + a * Rc + b * G
    r2 = a * G + b * Rc + 0.5 * (_sdot(G, G) + bdot3(R, R)) * K - 2.0 * Rc
    return hnorm3(r1), hnorm3(r2)


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


def grid_divergence(F: np.ndarray, spacing) -> np.ndarray:
    """Central-difference divergence of a (3, nx, ny, nz) field, periodic BCs."""
    h = _spacing3(spacing)
    return sum(_pderiv(F[i], i, h[i]) for i in range(3))


def grid_curl(F: np.ndarray, spacing) -> np.ndarray:
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

    r_div_b = grid_divergence(B, spacing)
    r_faraday = grid_curl(E, spacing) + dB
    r_div_d = grid_divergence(D, spacing)
    r_ampere = grid_curl(H, spacing) / c - dD / c

    F1 = D / eps0 + 1j * c * B
    dF1 = dD / eps0 + 1j * c * dB
    F2 = E + 1j * H / (c * eps0)
    c_div = grid_divergence(F1, spacing)
    c_curl = -1j * dF1 / c + grid_curl(F2, spacing)

    f = E + 1j * c * B
    h = (D + 1j * H / c) / eps0
    df = dE + 1j * c * dB
    dh = (dD + 1j * dH / c) / eps0
    G, R = (h + f) / 2.0, np.conj(h - f) / 2.0
    dG, dR = (dh + df) / 2.0, np.conj(dh - df) / 2.0
    gr_div = grid_divergence(G + R, spacing)
    gr_curl = -1j * (dG + dR) / c + grid_curl(G - R, spacing)

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
