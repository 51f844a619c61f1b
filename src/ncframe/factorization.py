"""Factorization of spinor elements into a Euclidean rotation and a Lorentz boost.

Every element splits, in either order, into a pure rotation (a0, -i*a) and a
pure boost (b0, b) with real parameters.  The rotation factor is the same for
both orders; the boost factor differs only in the sign of one cross-product
term.  The overall two-fold sign of the double cover is returned explicitly
rather than folded into the factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import EPS_ISO, FactorOrder, _cross, _dot, _factors, _isotropic_sign
from .errors import NotIsotropic, NotIsotropicElement
from .group import SpinorElement, _trusted, spinor_compose
from .linalg import vec3
from .stabilizer import _null_viewed


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
    (a0, a), (b0, bk), sign = _factors(b.k0, b.k.tolist(), order)
    rotation = _trusted(SpinorElement, k0=a0, k=np.array(a, dtype=complex))
    boost = _trusted(SpinorElement, k0=b0, k=np.array(bk, dtype=complex))
    return _trusted(RotationBoostPair, rotation=rotation, boost=boost, order=order, sign=sign)


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
    return _isotropic_sign(b.k0, b.k, eps_iso, _null_viewed)


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
    if not k.any() or not _null_viewed(k, eps_iso):
        raise NotIsotropic("k.k must vanish within tolerance")
    z = lam * np.exp(1j * sigma)
    kp = z * k
    kl, kpl = k.tolist(), kp.tolist()
    n, m = [-w.imag for w in kl], [w.real for w in kl]
    np_, mp = [-w.imag for w in kpl], [w.real for w in kpl]
    lam2 = lam * lam
    nn = _dot(n, n)
    checks = {
        "n_norm2": abs(_dot(np_, np_) - lam2 * nn),
        "m_norm2": abs(_dot(mp, mp) - lam2 * _dot(m, m)),
        "orthogonality": abs(_dot(np_, mp)),
        "cross": max(abs(x - lam2 * y) for x, y in zip(_cross(np_, mp), _cross(n, m))),
    }
    pair = factor_isotropic(SpinorElement(1.0, kp), eps_iso=eps_iso)
    expected_b0 = math.sqrt(1.0 + lam2 * nn)
    factor_checks = {
        "a0": abs(pair.rotation.n0 - 1.0 / expected_b0),
        "b0": abs(pair.boost.k0.real - expected_b0),
    }
    return {
        "n_prime": np.array(np_, dtype=float),
        "m_prime": np.array(mp, dtype=float),
        "identity_residuals": checks,
        "factor_residuals": factor_checks,
        "max_residual": max(max(checks.values()), max(factor_checks.values())),
    }
