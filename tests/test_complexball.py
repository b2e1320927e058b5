import numpy as np
import pytest

from spherekuramoto import complexball as cb
from spherekuramoto import dynamics as dyn
from spherekuramoto import geometry as geo
from spherekuramoto.sampling import rng_from


def random_unit_complex(m, rng):
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return v / np.linalg.norm(v)


def random_ball_complex(m, rng, rmax=0.8):
    return random_unit_complex(m, rng) * rmax * rng.random()


# ---------------------------------------------------------------------------
# boosts


def test_boost_identities():
    rng = rng_from(0, 0)
    for m in (1, 2, 3):
        w = random_ball_complex(m, rng)
        x = random_unit_complex(m, rng)
        # M_0 = id
        assert np.allclose(cb.complex_boost(np.zeros(m, complex), x), x, atol=0)
        # M_w(w) = 0
        assert np.max(np.abs(cb.complex_boost(w, w))) <= 1e-14
        # M_w(0) = -w
        assert np.allclose(cb.complex_boost(w, np.zeros(m, complex)), -w, atol=1e-15)
        # M_w o M_{-w} = id
        y = cb.complex_boost(w, cb.complex_boost(-w, x))
        assert np.max(np.abs(y - x)) <= 1e-12


def test_boost_single_variable_reduces_to_disc_map():
    # frozen case: w = 0.5, x = i  ->  -0.8 + 0.6 i
    out = cb.complex_boost(np.array([0.5 + 0j]), np.array([1j]))
    assert np.allclose(out, [-0.8 + 0.6j], atol=1e-15)
    rng = rng_from(1, 0)
    for _ in range(25):
        w = random_ball_complex(1, rng)
        x = random_unit_complex(1, rng)
        expected = (x[0] - w[0]) / (1.0 - x[0] * np.conj(w[0]))
        assert abs(cb.complex_boost(w, x)[0] - expected) <= 1e-13


def test_boost_preserves_complex_sphere_and_ball():
    rng = rng_from(2, 0)
    for m in (1, 2, 4):
        w = random_ball_complex(m, rng, 0.9)
        xs = np.array([random_unit_complex(m, rng) for _ in range(20)])
        ys = cb.complex_boost(w, xs)
        assert np.max(np.abs(np.linalg.norm(ys, axis=1) - 1.0)) <= 1e-12
        inside = xs * rng.random((20, 1))
        assert np.all(np.linalg.norm(cb.complex_boost(w, inside), axis=1) < 1.0)


def test_boost_rejects_parameter_outside_ball():
    with pytest.raises(geo.GeometryError):
        cb.complex_boost(np.array([1.0 + 0j, 0j]), np.array([1j, 0j]))


# ---------------------------------------------------------------------------
# the flow


def test_flow_norm_derivative_vanishes():
    rng = rng_from(3, 0)
    for m in (1, 2, 3):
        A = cb.random_antihermitian(m, rng)
        Z = random_ball_complex(m, rng, 2.0)
        for _ in range(20):
            x = random_unit_complex(m, rng)
            xdot = cb.complex_flow_rhs(x, A, Z)
            assert abs(np.real(cb.hermitian_inner(xdot, x))) <= 1e-14


def test_flow_with_zero_coupling_is_rotation():
    rng = rng_from(4, 0)
    m = 3
    A = cb.random_antihermitian(m, rng)
    x = random_unit_complex(m, rng)
    xdot = cb.complex_flow_rhs(x, A, np.zeros(m, complex))
    assert np.allclose(xdot, A @ x, atol=1e-15)
    assert abs(np.real(cb.hermitian_inner(xdot, x))) <= 1e-14


def test_flow_generates_boost_family():
    # d/dt M_{tw}(x) at t = 0 is <x, w> x - w, the flow field with A = 0 and
    # Z = -w; measured by central differences so the scaling is pinned by the
    # boost formula itself rather than asserted
    rng = rng_from(5, 0)
    for m in (1, 2):
        w = random_ball_complex(m, rng, 0.7)
        x = random_unit_complex(m, rng)
        h = 1e-5
        fd = (cb.complex_boost(h * w, x) - cb.complex_boost(-h * w, x)) / (2.0 * h)
        gen = cb.complex_flow_rhs(x, None, -w)
        assert np.max(np.abs(fd - gen)) <= 1e-8


def test_flow_preserves_sphere_along_integration():
    # moderate field magnitudes (|A| ~ 2, |Z| = 1/2) keep the RK4 norm error
    # per step at the h^5 scale
    rng = rng_from(6, 0)
    m = 2
    A = cb.random_antihermitian(m, rng, scale=0.5)
    Z = 0.5 * random_unit_complex(m, rng)
    x = random_unit_complex(m, rng)
    drift = 0.0
    for _ in range(1000):  # t in [0, 10] at h = 0.01
        x = dyn.rk4_step(lambda v: cb.complex_flow_rhs(v, A, Z), x, 0.01)
        drift = max(drift, abs(float(np.linalg.norm(x)) - 1.0))
    assert drift <= 1e-9


def test_single_variable_flow_matches_planar_real_model():
    # the complex coupling Zc = Y/2 reproduces the real planar field exactly,
    # so the two integrations agree to roundoff
    rng = rng_from(7, 0)
    n, omega, h, t_end = 6, 0.9, 1e-3, 10.0
    weights = rng.random(n)
    weights /= weights.sum()
    theta0 = rng.uniform(0.0, 2.0 * np.pi, n)

    xc = np.exp(1j * theta0)[:, None]
    A_c = np.array([[1j * omega]])

    def rhs_complex(x):
        return cb.complex_flow_rhs(x, A_c, 0.5 * (weights @ x))

    xr = np.column_stack([np.cos(theta0), np.sin(theta0)])
    A_r = np.array([[0.0, -omega], [omega, 0.0]])
    spec = weights

    def rhs_real(x):
        return dyn.full_rhs(x, A_r, spec)

    for _ in range(int(round(t_end / h))):
        xc = dyn.rk4_step(rhs_complex, xc, h)
        xr = dyn.rk4_step(rhs_real, xr, h)
    planar = np.column_stack([xc[:, 0].real, xc[:, 0].imag])
    assert np.max(np.abs(planar - xr)) <= 1e-10


# ---------------------------------------------------------------------------
# real and complex views


def test_views_round_trip():
    rng = rng_from(8, 0)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert np.array_equal(cb.complex_view(cb.real_view(v)), v)
    xs = rng.standard_normal((4, 6))
    assert np.array_equal(cb.real_view(cb.complex_view(xs)), xs)


def test_antihermitian_real_view_is_antisymmetric():
    rng = rng_from(9, 0)
    A = cb.random_antihermitian(3, rng)
    R = cb.real_antisymmetric_view(A)
    assert np.max(np.abs(R + R.T)) <= 1e-15
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert np.allclose(cb.real_view(A @ x), R @ cb.real_view(x), atol=1e-13)


# ---------------------------------------------------------------------------
# divergence certificate


def test_divergence_zero_when_coupling_vanishes():
    rep = cb.divergence_from_real(2, seed=1, Z=np.zeros(2, complex))
    assert rep.residual <= 1e-10


def test_divergence_zero_in_single_variable():
    for seed in range(3):
        rep = cb.divergence_from_real(1, seed=seed)
        assert rep.residual <= 1e-10


def test_divergence_positive_for_two_variables():
    rng = rng_from(10, 0)
    for seed in range(3):
        Z = random_unit_complex(2, rng)
        rep = cb.divergence_from_real(2, seed=seed, Z=Z)
        assert rep.residual > 1e-6


def test_antihermitian_validation():
    rng = rng_from(11, 0)
    A = cb.random_antihermitian(3, rng)
    cb.as_antihermitian(A)
    with pytest.raises(geo.GeometryError):
        cb.as_antihermitian(A + 1e-9)
