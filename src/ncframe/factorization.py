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

from .errors import InternalInconsistency, NotIsotropic, NotIsotropicElement
from .group import SpinorElement, spinor_compose
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


def _boost_from_velocity(B: np.ndarray) -> SpinorElement:
    """Boost spinor from the velocity-like vector B = b / b0 (needs ||B|| < 1)."""
    b2 = float(B.dot(B))
    if b2 >= 1.0 - 1e-10:
        raise InternalInconsistency(
            f"boost velocity parameter ||B||^2 = {b2:.15g} reached 1; "
            "input is not a valid group element (or is boosted beyond double range)"
        )
    b0 = 1.0 / math.sqrt(1.0 - b2)
    return SpinorElement(b0, b0 * B + 0j)


def _factor(b: SpinorElement, order: FactorOrder) -> RotationBoostPair:
    n0, m0, n, m = b.n0, b.m0, b.n, b.m
    r2 = n0 * n0 + float(n.dot(n))
    cross_sign = 1.0 if order is FactorOrder.ROTATION_FIRST else -1.0
    B = (n0 * m - m0 * n + cross_sign * cross3(m, n)) / r2
    boost = _boost_from_velocity(B)
    r = math.sqrt(r2)
    a0, a = n0 / r, n / r
    sign = 1
    if a0 < 0.0:
        a0, a, sign = -a0, -a, -1
    rotation = SpinorElement(a0, -1j * a)
    return RotationBoostPair(rotation=rotation, boost=boost, order=order, sign=sign)


def factor_rotation_boost(b: SpinorElement) -> RotationBoostPair:
    """Split b = rotation o boost.

    The rotation factor is (n0, n) normalized by sqrt(n0^2 + n.n) (always
    >= 1 for a valid element), and the boost velocity parameter is

        B = (n0*m - m0*n + m x n) / (n0^2 + n.n).
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

    Writing the element as k0*(I + kappa.sigma) with kappa = -i*n + m
    (n.n = m.m, n.m = 0), the factors close in radicals:

        a0 = 1/sqrt(1 + n.n),  a = a0*n,
        b0 = sqrt(1 + n.n),    b = b0*(m -+ n x m)/(1 + n.n)

    with the minus sign for rotation-first order and plus for boost-first.
    The returned ``sign`` is k0.
    """
    sgn = isotropic_sign(b, eps_iso)
    if not sgn:
        raise NotIsotropicElement("element must have k0 = +-1 and k.k = 0")
    kappa = b.k / sgn
    n, m = -kappa.imag, kappa.real
    n2 = float(n.dot(n))
    b0 = math.sqrt(1.0 + n2)
    a0 = 1.0 / b0
    cross_sign = -1.0 if order is FactorOrder.ROTATION_FIRST else 1.0
    bvec = b0 * (m + cross_sign * cross3(n, m)) / (1.0 + n2)
    rotation = SpinorElement(a0, -1j * a0 * n)
    boost = SpinorElement(b0, bvec + 0j)
    return RotationBoostPair(rotation=rotation, boost=boost, order=order, sign=sgn)


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
