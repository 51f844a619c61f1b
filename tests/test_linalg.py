import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncframe.linalg import (
    axial_matrix,
    bdot3,
    bilinear_dot,
    cross3,
    det3,
    hnorm,
    hnorm3,
    inf_norm,
    rnorm3,
    vec3,
)

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
cvec = st.tuples(*[st.tuples(finite, finite) for _ in range(3)]).map(
    lambda t: np.array([complex(re, im) for re, im in t])
)
cscalar = st.tuples(finite, finite).map(lambda t: complex(*t))


def test_bilinear_dot_examples():
    assert bilinear_dot([1, 0, 0], [1, 0, 0]) == 1
    # isotropic vector: nonzero but null bilinear square
    assert bilinear_dot([1, 1j, 0], [1, 1j, 0]) == 0
    for rho in (0.0, 0.5, 1.7, 3.0):
        d = np.array([np.cosh(rho), 1j * np.sinh(rho), 0.0])
        assert bilinear_dot(d, d) == pytest.approx(1.0, abs=1e-12)


def test_cross_examples():
    np.testing.assert_array_equal(cross3(vec3([1, 0, 0]), vec3([0, 1, 0])), [0, 0, 1])
    u = np.array([0.3 + 1j, -2.0, 0.5j])
    np.testing.assert_array_equal(cross3(vec3(u), vec3(u)), np.zeros(3))
    np.testing.assert_allclose(cross3(vec3([1, 1j, 0]), vec3([0, 0, 1])), [1j, -1, 0])


def test_axial_matrix_examples():
    expected = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
    np.testing.assert_array_equal(axial_matrix([0, 0, 1]), expected)
    np.testing.assert_array_equal(axial_matrix(np.zeros(3)), np.zeros((3, 3)))


@given(u=cvec, v=cvec, w=cvec, alpha=cscalar)
def test_bilinear_dot_symmetric_bilinear(u, v, w, alpha):
    assert bilinear_dot(u, v) == pytest.approx(bilinear_dot(v, u), rel=1e-12, abs=1e-12)
    lhs = bilinear_dot(alpha * u + w, v)
    rhs = alpha * bilinear_dot(u, v) + bilinear_dot(w, v)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


@given(u=cvec, v=cvec)
def test_cross_antisymmetric_and_orthogonal(u, v):
    np.testing.assert_allclose(cross3(vec3(u), vec3(v)), -cross3(vec3(v), vec3(u)), atol=1e-12)
    assert abs(bilinear_dot(u, cross3(vec3(u), vec3(v)))) < 1e-9


@given(v=cvec)
def test_axial_matrix_identities(v):
    ax = axial_matrix(v)
    np.testing.assert_allclose(ax.T, -ax, atol=1e-12)
    # (v^x)^2 = v v^T - (v.v) I
    expected = np.outer(v, v) - bilinear_dot(v, v) * np.eye(3)
    np.testing.assert_allclose(ax @ ax, expected, atol=1e-8)


@given(v=cvec, w=cvec)
def test_axial_matrix_is_cross(v, w):
    np.testing.assert_allclose(axial_matrix(v) @ w, cross3(vec3(v), vec3(w)), atol=1e-8)


# Kernel sweeps over scale: entries m * 10**(e + d) with a common exponent e
# and a small per-entry spread d, real or complex.
mantissa = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def scaled_array(shape, max_exp):
    size = int(np.prod(shape))

    def build(args):
        exp, is_complex, parts = args
        re, im, spread = (np.array(p, dtype=float) for p in zip(*parts))
        a = re * 10.0 ** (exp + spread)
        if is_complex:
            a = a + 1j * im * 10.0 ** (exp + spread)
        return a.reshape(shape)

    part = st.tuples(mantissa, mantissa, st.integers(-3, 3))
    return st.tuples(
        st.integers(-max_exp, max_exp), st.booleans(), st.lists(part, min_size=size, max_size=size)
    ).map(build)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), f"{got!r} != {want!r}"


@given(u=scaled_array((3,), 147), v=scaled_array((3,), 147))
def test_cross3_is_np_cross_bit_for_bit(u, v):
    assert_same_bits(cross3(u, v), np.cross(u, v))
    assert_same_bits(cross3(vec3(u), vec3(v)), np.cross(u.astype(complex), v.astype(complex)))


@given(v=scaled_array((3,), 150))
def test_hnorm_is_np_linalg_norm_bit_for_bit(v):
    assert_same_bits(np.float64(hnorm(v)), np.linalg.norm(v))
    assert_same_bits(np.float64(hnorm(v[::2])), np.linalg.norm(v[::2]))  # strided view


@given(u=scaled_array((3,), 97), v=scaled_array((3,), 97))
def test_bdot3_is_matmul_bit_for_bit(u, v):
    assert_same_bits(np.complex128(bdot3(u, v)), np.complex128(complex(u @ v)))
    uc, vc = u.astype(complex), v.astype(complex)
    assert_same_bits(np.complex128(bilinear_dot(u, v)), np.complex128(complex(uc @ vc)))


@given(v=scaled_array((6,), 150))
def test_hnorm3_is_np_linalg_norm_bit_for_bit(v):
    v = v.astype(complex)
    assert_same_bits(np.float64(hnorm3(v[:3])), np.linalg.norm(v[:3]))
    assert_same_bits(np.float64(hnorm3(v[::2])), np.linalg.norm(v[::2]))  # strided view


@given(v=scaled_array((6,), 150))
def test_rnorm3_is_np_linalg_norm_bit_for_bit(v):
    # complex draws give strided real and imaginary parts, as in delta.real
    parts = (v.real, v.imag) if np.iscomplexobj(v) else (v,)
    for x in parts:
        assert_same_bits(np.float64(rnorm3(x[:3])), np.linalg.norm(x[:3]))
        assert_same_bits(np.float64(rnorm3(x[::2])), np.linalg.norm(x[::2]))  # strided view
        assert_same_bits(np.float64(rnorm3(x[:3])), np.float64(hnorm(x[:3])))


@given(m=scaled_array((3, 3), 97))
def test_det3_matches_lapack(m):
    # scales up to 1e100, so that ||m||^3 stays a finite double
    assert abs(det3(m) - np.linalg.det(m)) <= 1e-12 * inf_norm(m) ** 3


def test_det3_examples():
    assert det3(np.eye(3)) == 1.0
    assert det3(-np.eye(3)) == -1.0
    assert det3(np.diag([2.0, 3.0, 0.5j])) == 3j
    assert det3(np.ones((3, 3))) == 0.0
