"""Factorization of spinor elements into a Euclidean rotation and a Lorentz boost.

Every element splits, in either order, into a pure rotation (a0, -i*a) and a
pure boost (b0, b) with real parameters.  The rotation factor is the same for
both orders; the boost factor differs only in the sign of one cross-product
term.  The overall two-fold sign of the double cover is returned explicitly
rather than folded into the factors.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotIsotropic, NotIsotropicElement
from .group import SpinorElement, _trusted_spinor, spinor_compose
from .linalg import DEFAULT_TOL, bdot3, cross3, hnorm3, vec3
from .stabilizer import EPS_ISO


class FactorOrder(str, enum.Enum):
    ROTATION_FIRST = "rotation-first"   # element = rotation o boost
    BOOST_FIRST = "boost-first"         # element = boost o rotation


@dataclass(frozen=True)
class RotationBoostPair:
    """Rotation/boost factors of a spinor element.

    ``rotation`` has real (a0, a) with a0^2 + a.a = 1 and a0 >= 0 (the
    representative of the double cover is fixed by that convention);
    ``boost`` has real (b0, b) with b0^2 - b.b = 1 and b0 >= 1.  The product
    of the factors, taken in ``order``, equals ``sign`` times the source.
    """

    rotation: SpinorElement
    boost: SpinorElement
    order: FactorOrder
    sign: int

    def compose(self) -> SpinorElement:
        """Multiply the factors back together in the declared order."""
        if self.order is FactorOrder.ROTATION_FIRST:
            return spinor_compose(self.rotation, self.boost)
        return spinor_compose(self.boost, self.rotation)


def _factor(b: SpinorElement, order: FactorOrder) -> RotationBoostPair:
    # Neither factor is checked again.  The rotation has a0^2 + a.a = 1 up to
    # rounding.  The boost has k0^2 - k.k - 1 = Re(eps) + Im(eps)^2 / (4 r^2),
    # where eps = k0^2 - k.k - 1 of b, and a scale at most b's.  A checked b
    # has |m0|, ||m|| <= r (1 + DEFAULT_TOL), so every product and partial
    # sum of the boost numerator stays near r^2 or below, and both factors
    # are finite while 4 r^2 is.  Beyond that (entries near 1e154) the
    # checked constructor decides, as it always has.
    n0, m0, n, m = b.n0, b.m0, b.n, b.m
    r2 = n0 * n0 + float(n.dot(n))
    r = math.sqrt(r2)
    build = _trusted_spinor if math.isfinite(4.0 * r2) else SpinorElement
    cross_sign = 1.0 if order is FactorOrder.ROTATION_FIRST else -1.0
    bk = (n0 * m - m0 * n + cross_sign * cross3(m, n)) / r
    # r >= 1 in exact arithmetic; max() keeps b0 >= 1 after rounding
    boost = build(complex(max(r, 1.0)), bk.astype(complex))
    a0, a = n0 / r, n / r
    sign = 1
    if a0 < 0.0:
        a0, a, sign = -a0, -a, -1
    rotation = build(complex(a0), -1j * a)
    return RotationBoostPair(rotation=rotation, boost=boost, order=order, sign=sign)


def factor_rotation_boost(b: SpinorElement) -> RotationBoostPair:
    """Split b = rotation o boost.

    With r = sqrt(n0^2 + n.n) (always >= 1 for a valid element), the
    rotation factor is (n0, n) / r and the boost factor is

        b0 = r,  b = (n0*m - m0*n + m x n) / r,

    which involves no difference of nearly equal terms at any rapidity (b0
    is held at 1 where rounding puts r just below it).

    Neither factor is checked again: both are closed forms of b, which was
    checked.  The rotation is a unit vector up to rounding, and the boost's
    k0^2 - k.k - 1 is at most b's own plus its square over 4 r^2, against a
    scale at most b's.  Beyond entries of about 1e154, where the closed
    form can overflow, the checked constructor decides as before.
    """
    return _factor(b, FactorOrder.ROTATION_FIRST)


def factor_boost_rotation(b: SpinorElement) -> RotationBoostPair:
    """Split b = boost o rotation; same rotation factor, the m x n term flips sign."""
    return _factor(b, FactorOrder.BOOST_FIRST)


def isotropic_sign(b: SpinorElement, eps_iso: float = EPS_ISO) -> int:
    """k0 = +-1 when b is in the isotropic family, else 0.

    The family is k0 = +-1 within DEFAULT_TOL and k.k = 0 within eps_iso
    relative to ||k||^2: the elements :func:`factor_isotropic` accepts.
    """
    sgn = 1 if abs(b.k0 - 1.0) <= abs(b.k0 + 1.0) else -1
    if abs(b.k0 - sgn) > DEFAULT_TOL:
        return 0
    if abs(bdot3(b.k, b.k)) > eps_iso * max(1e-300, hnorm3(b.k) ** 2):
        return 0
    return sgn


def factor_isotropic(
    b: SpinorElement,
    order: FactorOrder = FactorOrder.ROTATION_FIRST,
    eps_iso: float = EPS_ISO,
) -> RotationBoostPair:
    """Factor an element of the isotropic family, k0 = +-1 and k.k = 0.

    This is the generic split restricted to the family: writing the element
    as k0*(I + kappa.sigma) with kappa = -i*n + m (n.n = m.m, n.m = 0), the
    factors are a0 = 1/sqrt(1 + n.n), a = a0*n and b0 = sqrt(1 + n.n),
    b = (m -+ n x m)/b0, with the minus sign for rotation-first order and
    plus for boost-first.  The returned ``sign`` is k0.
    """
    if not isotropic_sign(b, eps_iso):
        raise NotIsotropicElement("element must have k0 = +-1 and k.k = 0")
    return _factor(b, order)


def scale_freedom_report(k, lam: float, sigma: float, eps_iso: float = EPS_ISO) -> dict:
    """Effect of the rescaling k -> lam * exp(i*sigma) * k of an isotropic k.

    The (n, m) pair mixes as n' = lam*(cos(sigma) n - sin(sigma) m),
    m' = lam*(sin(sigma) n + cos(sigma) m); the report verifies that
    n'.n' = lam^2 n.n, m'.m' = lam^2 m.m, n'.m' = 0 and
    n' x m' = lam^2 (n x m), and that the factorization parameters of the
    transformed element depend on the original ones only through lam^2 n.n:
    a0' = 1/sqrt(1 + lam^2 n.n), b0' = sqrt(1 + lam^2 n.n).
    """
    k = vec3(k)
    nrm2 = hnorm3(k) ** 2
    if nrm2 == 0.0 or abs(bdot3(k, k)) > eps_iso * nrm2:
        raise NotIsotropic("k.k must vanish within tolerance")
    n, m = -k.imag, k.real
    z = lam * np.exp(1j * sigma)
    kp = z * k
    np_, mp = -kp.imag, kp.real
    lam2 = lam * lam
    checks = {
        "n_norm2": abs(float(np_ @ np_) - lam2 * float(n @ n)),
        "m_norm2": abs(float(mp @ mp) - lam2 * float(m @ m)),
        "orthogonality": abs(float(np_ @ mp)),
        "cross": float(np.abs(cross3(np_, mp) - lam2 * cross3(n, m)).max()),
    }
    pair = factor_isotropic(SpinorElement(1.0, kp), eps_iso=eps_iso)
    expected_b0 = np.sqrt(1.0 + lam2 * float(n @ n))
    factor_checks = {
        "a0": abs(pair.rotation.n0 - 1.0 / expected_b0),
        "b0": abs(pair.boost.k0.real - expected_b0),
    }
    return {
        "n_prime": np_,
        "m_prime": mp,
        "identity_residuals": checks,
        "factor_residuals": factor_checks,
        "max_residual": max(max(checks.values()), max(factor_checks.values())),
    }
