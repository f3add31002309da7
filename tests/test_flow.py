import tracemalloc

import numpy as np
import pytest

from anosovlab import flow
from anosovlab.geometry import UnitTangent, ConformalTorus, ConstantCurvature
from anosovlab.flow import (CurvatureProfile, find_closed_geodesics,
                            curvature_profile_along, curvature_profile_window,
                            trapping_surrogate, rk4_orbit, _rk4_ends)

TWO_PI = 2.0 * np.pi


class TestIntegrator:
    def test_flat_geodesics_are_straight(self, flat_torus):
        x, y, th = rk4_orbit(flat_torus, np.array([1.0, 2.0, 0.7]), 3.0,
                             1e-3)[1][-1]
        assert abs(x - (1.0 + 3.0 * np.cos(0.7))) < 1e-10
        assert abs(y - (2.0 + 3.0 * np.sin(0.7))) < 1e-10
        assert abs(th - 0.7) < 1e-12

    def test_sphere_great_circle_closes(self, sphere):
        # K = +1: every geodesic closes after 2 pi
        _, traj = rk4_orbit(sphere, np.array([1.0, 0.0, np.pi / 2]), TWO_PI,
                            1e-3)
        d = traj[-1] - traj[0]
        d[2] = np.angle(np.exp(1j * d[2]))      # theta closes mod 2 pi
        assert np.linalg.norm(d) < 1e-9

    def test_reversibility(self, curved_torus):
        # flow forward, turn theta by pi, flow forward again, turn back
        start = np.array([0.4, 1.1, 0.3])
        end = rk4_orbit(curved_torus, start, 2.0, 1e-3)[1][-1]
        end[2] += np.pi
        back = rk4_orbit(curved_torus, end, 2.0, 1e-3)[1][-1]
        back[2] = np.mod(back[2] - np.pi, TWO_PI)
        assert np.linalg.norm(back - start) < 1e-10

    def test_fourth_order_convergence(self, curved_torus):
        start = np.array([0.4, 1.1, 0.3])
        e1 = rk4_orbit(curved_torus, start, 1.0, 2e-2)[1][-1]
        e2 = rk4_orbit(curved_torus, start, 1.0, 1e-2)[1][-1]
        e0 = rk4_orbit(curved_torus, start, 1.0, 1e-3)[1][-1]
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

    @pytest.mark.parametrize("torus", ["curved_torus", "flat_torus"])
    def test_ends_equal_single_runs(self, torus, request):
        # 237, 200, 200 (with a different step size) and 1 step: rows finish
        # at different steps, and the longest is not the last row
        model = request.getfixturevalue(torus)
        states = np.array([[0.4, 1.1, 0.3], [2.0, 4.5, 2.9],
                           [5.1, 0.2, 4.4], [1.0, 1.0, 1.0]])
        T = np.array([2.37, 2.0, 2.0 + 1e-9, 4e-3])
        ends = _rk4_ends(model, states, T, 1e-2)
        for s, t, end in zip(states, T, ends):
            single = rk4_orbit(model, s, t, 1e-2)[1][-1]
            assert np.array_equal(end, single)

    @pytest.mark.parametrize("torus", ["curved_torus", "flat_torus"])
    def test_ends_with_one_step_per_row_equal_single_runs(self, torus,
                                                          request):
        # each row at its own step size, as in lockstep shooting; each
        # row's own orbit rides along and is recorded
        model = request.getfixturevalue(torus)
        states = np.array([[0.4, 1.1, 0.3], [2.0, 4.5, 2.9],
                           [5.1, 0.2, 4.4]])
        T = np.array([2.37, 2.0, 1.5])
        dt = np.array([1e-2, 7e-3, 1.5 / 256])
        orbits = [flow.OrbitWindows(s[None], t, h)
                  for s, t, h in zip(states, T, dt)]
        ends = _rk4_ends(model, states, T, dt, riders=orbits)
        for s, t, h, end, orbit in zip(states, T, dt, ends, orbits):
            _, single = rk4_orbit(model, s, t, h)
            assert orbit.left == 0
            assert np.array_equal(orbit.traj[:, 0], single)
            assert np.array_equal(end, single[-1])

    @pytest.mark.parametrize("torus", ["curved_torus", "flat_torus"])
    @pytest.mark.parametrize("T_window", [1.0, 3.0, 9.0])
    def test_windows_riding_in_batches_equal_one_recorded_orbit(
            self, torus, request, T_window):
        # 100, 300 and 900 rider steps of 1e-2: fewer than the first
        # batch's 237; more, so the second batch of 150 drops the riders
        # partway; and more than both, so the rest is stepped alone
        model = request.getfixturevalue(torus)
        starts = np.array([[0.3, 2.2, 1.9], [4.0, 0.7, 5.5]])
        windows = flow.OrbitWindows(starts, T_window, 1e-2)
        kw = dict(n_dir=8, T_window=T_window, kappa_floor=0.05, dt=1e-2,
                  seed=3)
        watch = flow.TrappingWatch(model, **kw)
        states = np.array([[0.4, 1.1, 0.3], [2.0, 4.5, 2.9]])
        T, dt = np.array([2.37, 1.0]), np.array([1e-2, 7e-3])
        ends = _rk4_ends(model, states, T, dt, riders=(windows, watch))
        assert np.array_equal(ends, _rk4_ends(model, states, T, dt))
        # the rows' own orbits ride too, between the other riders
        orbits = [flow.OrbitWindows(s[None], 1.5, 1e-2) for s in states]
        ends = _rk4_ends(model, states, np.array([1.5, 1.5]), 1e-2,
                         riders=(windows, *orbits, watch))
        for orbit, s, end in zip(orbits, states, ends):
            _, single = rk4_orbit(model, s, 1.5, 1e-2)
            assert orbit.left == 0
            assert np.array_equal(orbit.traj[:, 0], single)
            assert np.array_equal(end, single[-1])
        assert windows.i == watch.i == min(windows.n, 237 + 150)
        profiles = windows.profiles(model)
        _, orbit = rk4_orbit(model, starts, T_window, 1e-2)
        assert np.array_equal(windows.traj, orbit)
        for k, prof in enumerate(profiles):
            assert np.array_equal(
                prof.K_samples, model.curvature(*orbit[:, k, :2].T))
            assert prof.dt == windows.h
        alone = flow.TrappingWatch(model, **kw)
        assert watch.report() == alone.report() == \
            trapping_surrogate(model, **kw)
        assert np.array_equal(watch.max_abs_K, alone.max_abs_K)
        assert watch.left == 0

    @pytest.mark.parametrize("T", [-1.0, 1e-9, 2.005 - 1e-9, 30.0])
    def test_shot_point_finishes_inside_its_batch(self, curved_torus, T):
        # a shot's own point u rides while its 3 points u + du are rows:
        # du > 0 in T, so no row takes fewer steps than u.  At 2.005 - 1e-9
        # u takes 200 steps and u + du_T 201
        model, dt = curved_torus, 1e-2
        u4, du = flow._shot_points(np.array([1.3, 0.4, T]))
        starts = np.column_stack([np.zeros(4), u4[:, 0], u4[:, 1]])
        orbit = flow.OrbitWindows(starts[:1], T, dt)
        ends = _rk4_ends(model, starts[1:], u4[1:, 2], dt, riders=(orbit,))
        assert orbit.left == 0
        assert np.array_equal(orbit.traj[:, 0],
                              rk4_orbit(model, starts[0], T, dt)[1])
        for s, t, end in zip(starts[1:], u4[1:, 2], ends):
            assert np.array_equal(end, rk4_orbit(model, s, t, dt)[1][-1])

    def test_octagon_generator_orbit_closes(self, octagon):
        geo = octagon.closed_geodesic_from_word([0])
        end = rk4_orbit(octagon, geo.start.as_array(), geo.period,
                        1e-3)[1][-1]
        d = np.linalg.norm(end[:2] - geo.samples[0][:2])
        assert d < 1e-6


def _newton_oracle(model, homotopy, tol, max_iter=60):
    """(y0, theta0, T) from the shooting loop before batching: one
    single-state shot for the residual and one per finite-difference
    column, each its own rk4_orbit call."""
    p, q = homotopy
    dx, dy = p * model.Lx, q * model.Ly
    T0 = float(np.hypot(dx, dy))
    u = np.array([0.0, np.arctan2(dy, dx), T0])
    dt = T0 / max(400, int(T0 / 5e-3))

    def resid(u):
        y0, th0, T = u
        ends = rk4_orbit(model, np.array([0.0, y0, th0]), T, dt)[1][-1]
        return np.array([ends[0] - dx, ends[1] - (y0 + dy),
                         np.arctan2(np.sin(ends[2] - th0),
                                    np.cos(ends[2] - th0))])

    r = resid(u)
    if np.max(np.abs(r)) < tol:
        return u
    for _ in range(max_iter):
        J = np.empty((3, 3))
        eps = 1e-7
        for j in range(3):
            du = np.zeros(3)
            du[j] = eps * max(1.0, abs(u[j]))
            J[:, j] = (resid(u + du) - r) / du[j]
        step = np.linalg.lstsq(J, -r, rcond=1e-10)[0]
        lam = 1.0
        for _ in range(12):
            trial = u + lam * step
            if trial[2] > 0:    # no shot with T <= 0
                rt = resid(trial)
                if np.linalg.norm(rt) < np.linalg.norm(r):
                    u, r = trial, rt
                    break
            lam *= 0.5
        else:
            raise RuntimeError("stalled")
        if np.max(np.abs(r)) < tol:
            return u
    raise RuntimeError("did not converge")


@pytest.fixture(scope="module")
def single_class_geos(curved_torus):
    return {hom: find_closed_geodesics(curved_torus, hom, tol=1e-9)
            for hom in [(1, 0), (0, 1), (1, 1)]}


class TestClosedGeodesics:
    @pytest.mark.parametrize("hom", [(1, 0), (0, 1), (1, 1)])
    def test_batched_shooting_equals_single_shots(self, curved_torus, hom):
        y0, th0, T = _newton_oracle(curved_torus, hom, tol=1e-9)
        geo = find_closed_geodesics(curved_torus, hom, tol=1e-9)
        assert geo.period == T
        assert np.array_equal(geo.samples[0],
                              [0.0, np.mod(y0, curved_torus.Ly), th0])

    def test_iteration_cap_raises(self, curved_torus):
        with pytest.raises(RuntimeError, match="did not converge"):
            find_closed_geodesics(curved_torus, (1, 1), max_iter=1)

    def test_last_allowed_step_below_tol_converges(self, curved_torus):
        # (1, 0) reaches residual 1.9e-12 on its third Newton step
        geo = find_closed_geodesics(curved_torus, (1, 0), max_iter=3)
        y0, th0, T = _newton_oracle(curved_torus, (1, 0), tol=1e-10,
                                    max_iter=3)
        assert geo.period == T
        assert np.array_equal(geo.samples[0],
                              [0.0, np.mod(y0, curved_torus.Ly), th0])

    def test_lockstep_classes_equal_single_class_calls(self, curved_torus,
                                                      single_class_geos):
        classes = [(1, 0), (0, 1), (1, 1)]
        geos = find_closed_geodesics(curved_torus, classes, tol=1e-9)
        assert len(geos) == 3
        for hom, geo in zip(classes, geos):
            one = single_class_geos[hom]
            assert geo.period == one.period and geo.dt == one.dt
            assert np.array_equal(geo.samples, one.samples)

    def test_failed_class_is_none_and_leaves_the_others(self, curved_torus,
                                                        single_class_geos):
        # at tol 1e-9, (1, 0) and (0, 1) converge within 3 Newton
        # iterations and (1, 1) does not (with 1, none of them does)
        classes = [(1, 0), (1, 1), (0, 1)]
        geos = find_closed_geodesics(curved_torus, classes, tol=1e-9,
                                     max_iter=3)
        assert geos[1] is None
        with pytest.raises(RuntimeError, match="did not converge"):
            find_closed_geodesics(curved_torus, (1, 1), tol=1e-9, max_iter=3)
        for hom, geo in zip(classes[::2], geos[::2]):
            one = single_class_geos[hom]
            assert geo.period == one.period
            assert np.array_equal(geo.samples, one.samples)
        assert find_closed_geodesics(curved_torus, classes,
                                     max_iter=1) == [None] * 3

    def test_closed_orbit_is_the_recorded_rk4_orbit(self, curved_torus,
                                                    single_class_geos):
        # the orbit recorded in the last Newton round is rk4_orbit from the
        # oracle's converged start, wrapped into the torus box, theta mod 2 pi
        y0, th0, T = _newton_oracle(curved_torus, (0, 1), tol=1e-9)
        geo = single_class_geos[(0, 1)]
        n = len(geo.samples)
        _, traj = rk4_orbit(curved_torus, np.array([0.0, y0, th0]), T, T / n)
        x, y = curved_torus.wrap(traj[:-1, 0], traj[:-1, 1])
        assert np.array_equal(geo.samples, np.column_stack(
            [x, y, np.mod(traj[:-1, 2], TWO_PI)]))

    def test_short_orbits_keep_256_samples(self):
        # e^lambda ~ e^-2 takes every class below 256 steps of its dt, so
        # its closed orbit is stepped again at T/256
        t = ConformalTorus.from_expression("-2 + 0.1*cos(x)*sin(y)",
                                           TWO_PI, TWO_PI, 32, 32)
        classes = [(1, 0), (0, 1), (1, 1)]
        for hom, geo in zip(classes, find_closed_geodesics(t, classes)):
            y0, th0, T = _newton_oracle(t, hom, tol=1e-10)
            assert geo.period == T and geo.dt == T / 256
            _, traj = rk4_orbit(t, np.array([0.0, y0, th0]), T, T / 256)
            x, y = t.wrap(traj[:-1, 0], traj[:-1, 1])
            assert len(geo.samples) == 256
            assert np.array_equal(geo.samples, np.column_stack(
                [x, y, np.mod(traj[:-1, 2], TWO_PI)]))

    @pytest.mark.parametrize("grid", [False, True])
    def test_orbits_flow_forwards(self, grid):
        # on lambda = -2.5 + 0.2 cos x sin y a Newton step once took (1, 0)
        # to T < 0, where the orbit flowed backwards from theta0 ~ pi closes
        # too: it converged with period -0.48 (32 x 32 grid values) or -0.58
        # (the expression)
        if grid:
            x = np.arange(32) * (TWO_PI / 32)
            X, Y = np.meshgrid(x, x, indexing="ij")
            t = ConformalTorus(-2.5 + 0.2 * np.cos(X) * np.sin(Y), TWO_PI,
                               TWO_PI)
        else:
            t = ConformalTorus.from_expression("-2.5 + 0.2*cos(x)*sin(y)",
                                               TWO_PI, TWO_PI, 32, 32)
        classes = [(1, 0), (0, 1), (1, 1)]
        for hom, geo in zip(classes, find_closed_geodesics(t, classes)):
            assert geo.period > 0 and geo.dt > 0
            assert geo.period == _newton_oracle(t, hom, tol=1e-10)[2]
            # the Newton steps in theta0 can jump by whole turns (to 18.85
            # for (1, 0) and -43.20 for (1, 1) on the grid values); the
            # samples store theta reduced, as x and y are
            theta = geo.samples[:, 2]
            assert np.all((theta >= 0) & (theta < TWO_PI))

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
        ts, traj = rk4_orbit(curved_torus, np.array([0.1, 0.2, 0.5]), 10.0,
                             5e-3)
        pointwise = [curved_torus.curvature_at((x, y)) for x, y, _ in traj]
        assert np.array_equal(prof.K_samples, pointwise)
        assert prof.dt == ts[1]

    def test_window_batch_equals_single_windows(self, curved_torus):
        starts = np.array([[0.1, 0.2, 0.5], [3.0, 5.9, 4.0],
                           [6.2, 1.0, 2.2]])
        batch = curvature_profile_window(curved_torus, starts, 10.0)
        assert len(batch) == len(starts)
        for s, prof in zip(starts, batch):
            ts, traj = rk4_orbit(curved_torus, s, 10.0, 5e-3)
            pointwise = [curved_torus.curvature_at((x, y))
                         for x, y, _ in traj]
            assert np.array_equal(prof.K_samples, pointwise)
            assert (prof.dt, prof.periodic, prof.name) == \
                   (ts[1], False, "window:10.0")
        assert np.array_equal(
            curvature_profile_window(curved_torus, starts[1], 10.0).K_samples,
            batch[1].K_samples)


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


def recorded_surrogate(model, n_dir, T_window, kappa_floor=1e-4, dt=2e-2,
                       seed=0):
    """Oracle: the trapping surrogate on the whole recorded trajectory, with
    K sampled on all of it at once.  Returns (report, sampled states)."""
    rng = np.random.default_rng(seed)
    starts = np.column_stack([rng.uniform(0, model.Lx, n_dir),
                              rng.uniform(0, model.Ly, n_dir),
                              rng.uniform(0, TWO_PI, n_dir)])
    _, traj = rk4_orbit(model, starts, T_window, dt)
    states = traj.reshape(-1, 3)
    K = model.curvature(*states[:, :2].T).reshape(traj.shape[:-1])
    min_max = float(np.min(np.max(np.abs(K), axis=0)))
    return {"trapped_detected": bool(min_max < kappa_floor), "n_dir": n_dir,
            "T_window": T_window, "kappa_floor": kappa_floor,
            "min_max_abs_K": min_max,
            "note": "no trapping detected (finite test)"
                    if min_max >= kappa_floor
                    else "trapping flagged on a finite window"}, states


class TestStreamedSurrogate:
    # n = T_window / dt steps: one step, an odd count and a longer window
    @pytest.mark.parametrize("T_window", (2e-2, 25 * 2e-2, 150 * 2e-2))
    def test_matches_the_recorded_trajectory(self, curved_torus, monkeypatch,
                                             T_window):
        ref, ref_states = recorded_surrogate(curved_torus, 16, T_window,
                                             kappa_floor=0.05)
        sampled = []
        orig = curved_torus.curvature

        def keep(x, y):
            sampled.append(np.column_stack([x, y]))
            return orig(x, y)
        monkeypatch.setattr(curved_torus, "curvature", keep)
        rep = trapping_surrogate(curved_torus, n_dir=16, T_window=T_window,
                                 kappa_floor=0.05)
        assert rep == ref
        # every recorded state is sampled once, in order, bit for bit, one
        # state per orbit at a time
        assert np.array_equal(np.concatenate(sampled), ref_states[:, :2])
        assert all(len(s) == 16 for s in sampled)

    def test_flagged_report_matches(self, flat_torus):
        ref, _ = recorded_surrogate(flat_torus, 8, 2.0)
        rep = trapping_surrogate(flat_torus, n_dir=8, T_window=2.0)
        assert rep == ref and rep["trapped_detected"]

    def test_memory_does_not_grow_with_the_window(self, curved_torus):
        # the curvature table is built on first use; build it before
        # measuring
        trapping_surrogate(curved_torus, n_dir=2, T_window=1.0)
        peaks = []
        for T_window in (50.0, 200.0):
            tracemalloc.start()
            try:
                trapping_surrogate(curved_torus, n_dir=256, T_window=T_window,
                                   dt=0.08)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # a recorded trajectory would take 15 MB at 200 (2501 x 256 states)
        assert peaks[1] <= 1.05 * peaks[0] and peaks[1] < 2e6

