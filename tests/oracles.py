"""Independent oracles for the test suite.

These deliberately do not reuse the library's computation paths: the spinor
algebra and the complex orthogonal image are done with literal 2x2 Pauli
matrices, and the 4x4 Lorentz matrix is assembled from the alternative
real-split entry table.
"""

import numpy as np

SIGMA = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]
ID2 = np.eye(2, dtype=complex)


def to_matrix2(k0, k):
    """B = k0*I + k.sigma as an explicit 2x2 matrix."""
    return k0 * ID2 + sum(k[j] * SIGMA[j] for j in range(3))


def from_matrix2(B):
    """Read (k0, k) back off a 2x2 matrix via trace projections."""
    k0 = complex(0.5 * np.trace(B))
    k = np.array([0.5 * np.trace(B @ s) for s in SIGMA], dtype=complex)
    return k0, k


def compose2(b1, b2):
    """Group product through literal 2x2 matrix multiplication."""
    P = to_matrix2(b1.k0, b1.k) @ to_matrix2(b2.k0, b2.k)
    return from_matrix2(P)


def so3c_oracle(b):
    """O_ij = tr(sigma_i B sigma_j B^-1) / 2, with literal 2x2 matrices."""
    B, B_inv = to_matrix2(b.k0, b.k), to_matrix2(b.k0, -b.k)
    return np.array([[0.5 * np.trace(SIGMA[i] @ B @ SIGMA[j] @ B_inv) for j in range(3)] for i in range(3)])


def lorentz4_real_split(b):
    """4x4 Lorentz matrix from the (n0, m0, n, m) entry table.

    Independent of the (k0, k)-based route in the library; the (3,2) entry of
    the first block is n0*n1 + m0*m1, the value forced by antisymmetry of the
    rotation part.
    """
    n0, m0 = b.n0, b.m0
    n1, n2, n3 = b.n
    m1, m2, m3 = b.m
    half = (n0 * n0 + m0 * m0) / 2.0
    first = np.array(
        [
            [half, n1 * m0 - n0 * m1, n2 * m0 - n0 * m2, n3 * m0 - n0 * m3],
            [n1 * m0 - n0 * m1, half, -n0 * n3 - m0 * m3, n0 * n2 + m0 * m2],
            [n2 * m0 - n0 * m2, n0 * n3 + m0 * m3, half, -n0 * n1 - m0 * m1],
            [n3 * m0 - n0 * m3, -n0 * n2 - m0 * m2, n0 * n1 + m0 * m1, half],
        ]
    )
    d0 = n1 * n1 + m1 * m1 + n2 * n2 + m2 * m2 + n3 * n3 + m3 * m3
    d1 = n1 * n1 + m1 * m1 - n2 * n2 - m2 * m2 - n3 * n3 - m3 * m3
    d2 = -n1 * n1 - m1 * m1 + n2 * n2 + m2 * m2 - n3 * n3 - m3 * m3
    d3 = -n1 * n1 - m1 * m1 - n2 * n2 - m2 * m2 + n3 * n3 + m3 * m3
    second = np.array(
        [
            [d0 / 2, n2 * m3 - n3 * m2, n3 * m1 - n1 * m3, n1 * m2 - n2 * m1],
            [-n2 * m3 + n3 * m2, d1 / 2, n1 * n2 + m1 * m2, n1 * n3 + m1 * m3],
            [-n3 * m1 + n1 * m3, n1 * n2 + m1 * m2, d2 / 2, n2 * n3 + m2 * m3],
            [-n1 * m2 + n2 * m1, n1 * n3 + m1 * m3, n2 * n3 + m2 * m3, d3 / 2],
        ]
    )
    return 2.0 * (first + second)


def boost_closed_form(beta, e):
    """Standard 4x4 boost: L00 = ch, L0i = -sh*e_i, Lij = delta_ij + (ch-1) e_i e_j."""
    ch, sh = np.cosh(beta), np.sinh(beta)
    e = np.asarray(e, dtype=float)
    L = np.zeros((4, 4))
    L[0, 0] = ch
    L[0, 1:] = L[1:, 0] = -sh * e
    L[1:, 1:] = np.eye(3) + (ch - 1.0) * np.outer(e, e)
    return L


def rotation_matrix_angle_axis(alpha, e):
    """Real rotation matrix with entries written from sin/cos and the axis."""
    e = np.asarray(e, dtype=float)
    s, F = np.sin(alpha), 1.0 - np.cos(alpha)
    e1, e2, e3 = e
    return np.array(
        [
            [1 - F * (e2 * e2 + e3 * e3), -s * e3 + F * e1 * e2, s * e2 + F * e1 * e3],
            [s * e3 + F * e1 * e2, 1 - F * (e3 * e3 + e1 * e1), -s * e1 + F * e2 * e3],
            [-s * e2 + F * e1 * e3, s * e1 + F * e2 * e3, 1 - F * (e1 * e1 + e2 * e2)],
        ]
    )


def random_unit_delta(rng, rho_max=3.0, rho=None):
    """Random Delta = cosh(rho) N0 + i sinh(rho) M0 with orthonormal N0, M0."""
    if rho is None:
        rho = rng.uniform(0.0, rho_max)
    N0 = rng.normal(size=3)
    N0 /= np.linalg.norm(N0)
    M0 = np.cross(N0, rng.normal(size=3))
    M0 /= np.linalg.norm(M0)
    return np.cosh(rho) * N0 + 1j * np.sinh(rho) * M0, rho, N0, M0


def e_parallel_b_boost(K):
    """Rapidity and unit axis of the textbook boost to the frame where E || B.

    With E = m and B = n (K = n + i m, c = 1), the frame moves along E x B
    with rapidity rho, cosh(2 rho) = ||K||^2 / |K.K|, which diverges as
    K.K -> 0: an isotropic K has no such frame.  rho is evaluated as
    sinh(2 rho) = 2 |E x B| / |K.K|, the same identity without the
    cancellation of acosh near 1 or of the velocity form
    v / (1 + v^2) = |E x B| / (E^2 + B^2) near v = 1.
    """
    K = K / np.abs(K).max()  # rho and the axis do not depend on the scale
    n, m = np.real(K), np.imag(K)
    exb = np.cross(m, n)
    s = np.linalg.norm(exb)
    ksq = np.hypot(n @ n - m @ m, 2.0 * (n @ m))
    return np.arcsinh(2.0 * s / ksq) / 2.0, exb / s


def expm2(A):
    """exp(A) of a 2x2 matrix: a Taylor series of A / 2**s, squared s times."""
    s = max(0, int(np.ceil(np.log2(max(np.abs(A).max(), 1e-300)))) + 1)
    B = A / 2.0**s
    term = E = ID2
    for j in range(1, 20):
        term = term @ B / j
        E = E + term
    for _ in range(s):
        E = E @ E
    return E
