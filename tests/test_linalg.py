"""The complex 3-vector kernels of ``ncframe.linalg`` and ``ncframe._kernels``.

The private scalar kernels of ``_kernels`` (``_dot``, ``_cross``, ``_norm``,
``_apply``, ``_exponent`` and ``_ldexp``) do every 3-vector dot, cross
product and norm of the package.  They are checked here on examples, for
bilinearity, and against the numpy forms they replaced (``@``, ``np.cross``
and ``np.linalg.norm``) within a few units in the last place.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ncframe
from ncframe import group, linalg
from ncframe._kernels import _apply, _cross, _dot, _exponent, _ldexp, _norm
from ncframe.linalg import bilinear_dot, hnorm

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
cvec = st.tuples(*[st.tuples(finite, finite) for _ in range(3)]).map(
    lambda t: np.array([complex(re, im) for re, im in t])
)
cscalar = st.tuples(finite, finite).map(lambda t: complex(*t))


def test_array_constants():
    # group reads EYE3 and re-exports ETA, so a caller cannot write to them;
    # and the package has one ETA
    for constant in (linalg.EYE3, linalg.ETA):
        with pytest.raises(ValueError, match="read-only"):
            constant[0, 0] = 2.0
    assert group.ETA is linalg.ETA is ncframe.ETA


def test_bilinear_dot_examples():
    assert bilinear_dot([1, 0, 0], [1, 0, 0]) == 1
    # isotropic vector: nonzero but null bilinear square
    assert bilinear_dot([1, 1j, 0], [1, 1j, 0]) == 0
    for rho in (0.0, 0.5, 1.7, 3.0):
        d = np.array([np.cosh(rho), 1j * np.sinh(rho), 0.0])
        assert bilinear_dot(d, d) == pytest.approx(1.0, abs=1e-12)


def test_cross_examples():
    assert _cross([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]) == [0.0, 0.0, 1.0]
    u = [0.3 + 1j, -2.0 + 0j, 0.5j]
    assert _cross(u, u) == [0j, 0j, 0j]
    assert _cross([1 + 0j, 1j, 0j], [0j, 0j, 1 + 0j]) == [1j, -1 + 0j, 0j]


def test_kernel_examples():
    assert _dot([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]) == 32.0
    assert _dot([1 + 0j, 1j, 0j], [1 + 0j, 1j, 0j]) == 0  # isotropic
    assert _norm([3.0, 0.0, 4.0]) == 5.0
    assert _norm([3j, 0j, -4 + 0j]) == 5.0
    assert _norm([0.0, -0.0, 0.0]) == 0.0
    assert _apply([[0, 1, 0], [0, 0, 1], [1, 0, 0]], [1j, 2.0, 3.0]) == [2.0, 3.0, 1j]
    # the sum runs left to right: (1e16 + 1) - 1e16 loses the 1
    assert _dot([1e16, -1e16, 1.0], [1.0, 1.0, 1.0]) == 1.0
    assert _dot([1.0, 1e16, -1e16], [1.0, 1.0, 1.0]) == 0.0


@given(u=cvec, v=cvec, w=cvec, alpha=cscalar)
def test_bilinear_dot_symmetric_bilinear(u, v, w, alpha):
    assert bilinear_dot(u, v) == pytest.approx(bilinear_dot(v, u), rel=1e-12, abs=1e-12)
    lhs = bilinear_dot(alpha * u + w, v)
    rhs = alpha * bilinear_dot(u, v) + bilinear_dot(w, v)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


@given(u=cvec, v=cvec, w=cvec, alpha=cscalar)
def test_kernels_symmetric_bilinear(u, v, w, alpha):
    u, v, w = u.tolist(), v.tolist(), w.tolist()
    assert _dot(u, v) == _dot(v, u)  # each product and sum is commutative in IEEE arithmetic
    mixed = [alpha * x + y for x, y in zip(u, w)]
    assert _dot(mixed, v) == pytest.approx(alpha * _dot(u, v) + _dot(w, v), rel=1e-9, abs=1e-9)
    got = _cross(mixed, v)
    want = [alpha * x + y for x, y in zip(_cross(u, v), _cross(w, v))]
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


@given(u=cvec, v=cvec)
def test_cross_antisymmetric_and_orthogonal(u, v):
    uv, vu = _cross(u.tolist(), v.tolist()), _cross(v.tolist(), u.tolist())
    np.testing.assert_array_equal(uv, [-x for x in vu])
    assert abs(bilinear_dot(u, uv)) < 1e-9


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


EPS = np.finfo(float).eps


@given(u=scaled_array((3,), 147), v=scaled_array((3,), 147))
def test_dot_agrees_with_matmul(u, v):
    # both sums of three products round to within a few eps of the products'
    # magnitudes (measured worst: 2.0 eps over 2 * 10^5 draws)
    bound = 4 * EPS * float(np.abs(u) @ np.abs(v))
    assert abs(_dot(u.tolist(), v.tolist()) - complex(u @ v)) <= bound
    assert abs(bilinear_dot(u, v) - complex(u.astype(complex) @ v.astype(complex))) <= bound


@given(u=scaled_array((3,), 147), v=scaled_array((3,), 147))
def test_cross_agrees_with_np_cross(u, v):
    # entry i within 4 eps of |u_j v_l| + |u_l v_j| (measured worst: 1.9 eps)
    got = np.array(_cross(u.tolist(), v.tolist()))
    j, l = [1, 2, 0], [2, 0, 1]
    au, av = np.abs(u), np.abs(v)
    assert (np.abs(got - np.cross(u, v)) <= 4 * EPS * (au[j] * av[l] + au[l] * av[j])).all()


def assert_norm_agrees(got, v):
    # math.hypot is correctly rounded to within an ulp, and np.linalg.norm to
    # within a few where no square under- or overflows: it runs on v scaled
    # exactly to a largest part in [0.5, 1) (measured worst: 1.3 eps over
    # 2 * 10^5 draws)
    e = _exponent(v.tolist())
    want = math.ldexp(float(np.linalg.norm(_ldexp(v.tolist(), -e))), e)
    assert abs(got - want) <= 4 * EPS * want


@given(v=scaled_array((6,), 150))
def test_hnorm_agrees_with_np_linalg_norm(v):
    assert_norm_agrees(hnorm(v[:3]), v[:3])
    assert_norm_agrees(hnorm(v[::2]), v[::2])  # strided view


@given(v=scaled_array((6,), 150))
def test_complex_norm_agrees_with_np_linalg_norm(v):
    v = v.astype(complex)
    for x in (v[:3], v[::2]):
        assert_norm_agrees(_norm(x.tolist()), x)
        assert _norm(x.tolist()) == hnorm(x)


@given(v=scaled_array((6,), 150))
def test_real_norm_agrees_with_np_linalg_norm(v):
    # complex draws give strided real and imaginary parts, as in delta.real
    parts = (v.real, v.imag) if np.iscomplexobj(v) else (v,)
    for x in parts:
        for y in (x[:3], x[::2]):
            assert_norm_agrees(_norm(y.tolist()), y)
            assert _norm(y.tolist()) == hnorm(y) == _norm(y.astype(complex).tolist())


@pytest.mark.parametrize("size", [1e300, 1.5e307, 1e-300, 5e-324])
def test_norm_does_not_overflow_or_underflow(size):
    # np.linalg.norm squares the entries: inf at 1e300, 0 at 1e-300
    v = [size + 0j, -size * 1j, complex(size, size)]
    assert _norm(v) == hnorm(v) == pytest.approx(2.0 * size, rel=4 * EPS)
    assert _norm([size, -size, size]) == pytest.approx(math.sqrt(3.0) * size, rel=4 * EPS)


@given(m=scaled_array((3, 3), 97), v=scaled_array((3,), 97))
def test_apply_agrees_with_matmul(m, v):
    # row by row as the dot above (measured worst: 1.9 eps)
    got = np.array(_apply(m.tolist(), v.tolist()))
    assert (np.abs(got - m @ v) <= 4 * EPS * (np.abs(m) @ np.abs(v))).all()


@given(v=scaled_array((3,), 300), e=st.integers(-1000, 1000))
def test_ldexp_is_exact(v, e):
    # the parts times 2.0**e, rounded once: exact while they stay normal,
    # signed zeros included; an overflow is inf, without a warning
    vl = v.tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = np.array(_ldexp(vl, e))
    with np.errstate(over="ignore"):
        want = v.view(float) * 2.0**e
    assert got.dtype == v.dtype and got.shape == v.shape
    assert got.view(float).tobytes() == want.tobytes()
    assert _ldexp(vl, 0) is vl


def test_ldexp_examples():
    assert _ldexp(1.5 + 3j, 2) == 6 + 12j and isinstance(_ldexp(1.5 + 3j, 2), complex)
    z = _ldexp([-0.0, 0.0, 1.0], 5)
    assert np.signbit(z).tolist() == [True, False, False] and z[2] == 32.0
    assert _ldexp([1.0 + 0j, -0j, 2j], -1) == [0.5 + 0j, -0j, 1j]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _ldexp([1.0, -1e300, 0.0], 100) == [2.0**100, -math.inf, 0.0]
        assert _ldexp(complex(1e300, -1e300), 100) == complex(math.inf, -math.inf)


def test_exponent_examples():
    assert _exponent([0.5 + 0j, 0j, 0j]) == 0
    assert _exponent([0.0, -3.0, 1.0]) == 2
    assert _exponent([1j, 0.75e-300, 2.0 + 0.1j]) == 2
    assert _exponent([0j, 0j, -0j]) == 0
    assert _exponent([2.0**-1074, 0.0, 0.0]) == -1073
