import tracemalloc

import numpy as np
import pytest

from anosovlab.geometry import UnitTangent, ConformalTorus, ConstantCurvature
from anosovlab.flow import (CurvatureProfile, integrate_geodesic,
                            find_closed_geodesics, curvature_profile_along,
                            curvature_profile_window, trapping_surrogate,
                            rk4_orbit)

TWO_PI = 2.0 * np.pi


class TestIntegrator:
    def test_flat_geodesics_are_straight(self, flat_torus):
        orb = integrate_geodesic(flat_torus, UnitTangent(1.0, 2.0, 0.7), 3.0,
                                 dt=1e-3)
        x, y, th = orb.end.x, orb.end.y, orb.end.theta
        assert abs(x - (1.0 + 3.0 * np.cos(0.7))) < 1e-10
        assert abs(y - (2.0 + 3.0 * np.sin(0.7))) < 1e-10
        assert abs(th - 0.7) < 1e-12

    def test_sphere_great_circle_closes(self, sphere):
        # K = +1: every geodesic closes after 2 pi
        orb = integrate_geodesic(sphere, UnitTangent(1.0, 0.0, np.pi / 2),
                                 TWO_PI, dt=1e-3)
        d = orb.samples[-1] - orb.samples[0]
        d[2] = np.angle(np.exp(1j * d[2]))      # theta closes mod 2 pi
        assert np.linalg.norm(d) < 1e-9

    def test_reversibility(self, curved_torus):
        start = UnitTangent(0.4, 1.1, 0.3)
        fwd = integrate_geodesic(curved_torus, start, 2.0, dt=1e-3)
        back = integrate_geodesic(curved_torus, fwd.end, -2.0, dt=1e-3)
        assert np.linalg.norm(back.samples[0] - start.as_array()) < 1e-10

    def test_fourth_order_convergence(self, curved_torus):
        start = np.array([0.4, 1.1, 0.3])
        _, e1 = rk4_orbit(curved_torus, start, 1.0, 2e-2, record=False)
        _, e2 = rk4_orbit(curved_torus, start, 1.0, 1e-2, record=False)
        _, e0 = rk4_orbit(curved_torus, start, 1.0, 1e-3, record=False)
        r1 = np.linalg.norm(e1 - e0)
        r2 = np.linalg.norm(e2 - e0)
        assert r1 / r2 > 12.0   # ~16 for a 4th-order method

    @pytest.mark.parametrize("torus", ["curved_torus", "flat_torus"])
    def test_batched_orbit_equals_single_runs(self, torus, request):
        model = request.getfixturevalue(torus)
        states = np.array([[0.4, 1.1, 0.3], [2.0, 4.5, 2.9], [5.1, 0.2, 4.4]])
        _, batch = rk4_orbit(model, states, 2.0, 1e-2)
        for k, s in enumerate(states):
            _, single = rk4_orbit(model, s, 2.0, 1e-2)
            assert np.array_equal(batch[:, k], single)

    def test_octagon_generator_orbit_closes(self, octagon):
        geo = octagon.closed_geodesic_from_word([0])
        start = geo.start
        orb = integrate_geodesic(octagon, start, geo.period, dt=1e-3)
        d = np.linalg.norm(orb.samples[-1][:2] - geo.samples[0][:2])
        assert d < 1e-6


class TestClosedGeodesics:
    def test_flat_torus_homotopy_classes(self, flat_torus):
        geo = find_closed_geodesics(flat_torus, (1, 0))
        assert abs(geo.period - TWO_PI) < 1e-8
        geo = find_closed_geodesics(flat_torus, (1, 1))
        assert abs(geo.period - TWO_PI * np.sqrt(2)) < 1e-8

    def test_curved_torus_class_1_0(self):
        t = ConformalTorus.from_expression("0.05*cos(x)", TWO_PI, TWO_PI,
                                           64, 64)
        geo = find_closed_geodesics(t, (1, 0))
        # the anchored representative winds through all x; its length is the
        # mean of e^{lambda} over a period: 2 pi I0(0.05)
        assert abs(geo.period - TWO_PI * np.i0(0.05)) < 1e-6

    def test_curved_torus_class_0_1(self):
        # lambda independent of y: vertical line geodesics have period
        # e^{lambda(x*)} Ly at critical points of lambda
        t = ConformalTorus.from_expression("0.05*cos(x)", TWO_PI, TWO_PI,
                                           64, 64)
        geo = find_closed_geodesics(t, (0, 1))
        exact = np.exp(0.05) * TWO_PI   # continuation from the flat metric
        assert abs(geo.period - exact) < 1e-6
        assert abs(geo.period - TWO_PI) / TWO_PI < 0.06

    def test_trivial_class_rejected(self, flat_torus):
        with pytest.raises(ValueError):
            find_closed_geodesics(flat_torus, (0, 0))


def _dense_interpolant(K, T, ts):
    """Reference: the trigonometric interpolant summed with a dense
    (len(ts), n//2 + 1) phase matrix.  t is reduced modulo T first, since
    exp(i k w t) at large t carries a rounding error that grows with k w t."""
    F = np.fft.rfft(K)
    ks = np.arange(len(F)) * (TWO_PI / T)
    w = np.ones(len(F))
    w[1:] = 2.0
    if len(K) % 2 == 0:
        w[-1] = 1.0
    phase = np.exp(1j * np.outer(np.mod(ts, T), ks))
    return np.real(phase @ (w * F)) / len(K)


class TestCurvatureProfiles:
    def test_constant_profile(self):
        prof = CurvatureProfile.constant(-1.0, T=5.0)
        assert np.allclose(prof(np.linspace(0, 10, 17)), -1.0)

    def test_periodic_interpolation_matches_samples(self):
        fn = lambda t: np.cos(TWO_PI * t / 3.0)
        prof = CurvatureProfile.from_function(fn, 3.0, dt=0.01)
        ts = np.linspace(0, 3.0, 23)
        assert np.allclose(prof(ts), fn(ts), atol=1e-12)

    @pytest.mark.parametrize("n", [7, 64, 255, 1800])
    def test_interpolation_matches_dense_formula(self, n):
        rng = np.random.default_rng(n)
        K = 0.1 * rng.standard_normal(n)
        prof = CurvatureProfile(K, 0.01)
        ts = rng.uniform(-3 * prof.T, 30 * prof.T, 4000)
        err = np.max(np.abs(prof(ts) - _dense_interpolant(K, prof.T, ts)))
        assert err <= 1e-12 * np.max(np.abs(K))

    def test_interpolation_memory_is_linear_in_points(self):
        rng = np.random.default_rng(0)
        prof = CurvatureProfile(0.1 * rng.standard_normal(1800), 0.005)
        ts = np.linspace(0.0, 200.0, 40001)
        tracemalloc.start()
        try:
            prof(ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6     # a dense phase matrix would take ~580 MB

    def test_profile_along_octagon_geodesic(self, octagon):
        geo = octagon.closed_geodesic_from_word([0])
        prof = curvature_profile_along(octagon, geo)
        assert np.allclose(prof.K_samples, -1.0, atol=1e-12)

    def test_profile_window_on_torus(self, curved_torus):
        prof = curvature_profile_window(curved_torus,
                                        UnitTangent(0.1, 0.2, 0.5), 10.0)
        assert abs(prof.T - 10.0) <= prof.dt + 1e-12
        assert np.max(np.abs(prof.K_samples)) < 0.3
        orbit = integrate_geodesic(curved_torus, UnitTangent(0.1, 0.2, 0.5),
                                   10.0, 5e-3)
        pointwise = [curved_torus.curvature_at((x, y))
                     for x, y, _ in orbit.samples]
        assert np.array_equal(prof.K_samples, pointwise)


class TestTrappingSurrogate:
    def test_flat_torus_trapped(self, flat_torus):
        rep = trapping_surrogate(flat_torus, n_dir=32, T_window=10.0)
        assert rep["trapped_detected"]

    def test_curved_torus_not_trapped(self, curved_torus):
        rep = trapping_surrogate(curved_torus, n_dir=64, T_window=20.0)
        assert not rep["trapped_detected"]
        assert "finite test" in rep["note"]

    def test_hyperbolic_not_trapped(self, hyperbolic):
        rep = trapping_surrogate(hyperbolic)
        assert not rep["trapped_detected"]
