"""Seeded random generators for group elements and noncommutativity data.

Used by the property-test suite and the benchmark; everything is driven by
an explicit numpy Generator so runs are reproducible from a single seed.
The CLI does not use this module: ``stabilizer --count`` draws from the
standard library's ``random.Random(seed)``.
"""

from __future__ import annotations

import numpy as np

from ._kernels import _cross, _dot, _norm
from .group import SpinorElement, project_to_group


def default_rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def _uniform_complex(rng, n: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)


def random_spinor(rng: np.random.Generator) -> SpinorElement:
    """Random group element: uniform components projected onto the group.

    Draws (k0, k) with components uniform in the complex unit box, rejects
    nearly-singular determinants (|k0^2 - k.k| < 0.25, which would blow up
    the projection) and elements with ||k|| > 2 after projection.
    """
    while True:
        k0 = complex(_uniform_complex(rng, 1)[0])
        k = _uniform_complex(rng, 3)
        kl = k.tolist()
        if abs(k0 * k0 - _dot(kl, kl)) < 0.25:
            continue
        b = project_to_group(k0, k)
        if _norm(b.k.tolist()) <= 2.0:
            return b


def random_unit_vector(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / _norm(v.tolist())


def random_nonisotropic_K(rng: np.random.Generator) -> np.ndarray:
    """Random complex K in the complex unit box with |K.K| > ||K||^2 / 20."""
    while True:
        K = _uniform_complex(rng, 3)
        Kl = K.tolist()
        nrm2 = _norm(Kl) ** 2
        if nrm2 > 1e-4 and abs(_dot(Kl, Kl)) > 0.05 * nrm2:
            return K


def random_isotropic_k(rng: np.random.Generator) -> np.ndarray:
    """Random k = m - i*n with m.m = n.n, m.n = 0, so k.k = 0 to rounding."""
    n = random_unit_vector(rng)
    c = _cross(n.tolist(), rng.normal(size=3).tolist())
    m = np.array(c, dtype=float) / _norm(c)
    r = rng.uniform(0.3, 1.7)
    return r * (m - 1j * n)


def random_gamma(rng: np.random.Generator) -> complex:
    """Random stabilizer parameter: angle in [0, 2*pi), rapidity in [-2, 2]."""
    return complex(rng.uniform(0.0, 2 * np.pi), rng.uniform(-2.0, 2.0))
