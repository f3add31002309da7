import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from anosovlab import cocycle, flow, gulliver
from anosovlab.flow import CurvatureProfile
from anosovlab.cocycle import (integrate_beta_jacobi, first_conjugate_time,
                               jacobi_first_zero_batch, riccati_integrate,
                               riccati_hopf, terminator_bisect,
                               comparison_oracle, anosov_verdict,
                               ConjugatePointError)

BETAS = (0.25, 1.0, 2.25, 4.0)


def scalar_first_conjugate_time(profile, beta, T_max=200.0, dt=1e-2):
    """Reference: the step-by-step RK4 loop the chunked kernel replaces."""
    n, h, Kh = cocycle._half_grid(profile, 0.0, T_max, dt)
    y, v = 0.0, 1.0
    for i in range(n):
        c0, c1, c2 = -beta * Kh[2 * i], -beta * Kh[2 * i + 1], -beta * Kh[2 * i + 2]
        k1y, k1v = v, c0 * y
        k2y, k2v = v + 0.5 * h * k1v, c1 * (y + 0.5 * h * k1y)
        k3y, k3v = v + 0.5 * h * k2v, c1 * (y + 0.5 * h * k2y)
        k4y, k4v = v + h * k3v, c2 * (y + h * k3y)
        ynew = y + (h / 6.0) * (k1y + 2 * k2y + 2 * k3y + k4y)
        vnew = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        if i > 0:
            if ynew == 0.0:
                return float((i + 1) * h)
            if y * ynew < 0.0:
                return float(cocycle._hermite_root(i * h, h, y, v, ynew, vnew))
        y, v = ynew, vnew
        scale = abs(y) + abs(v)
        if scale > 1e100:
            y, v = y / scale, v / scale
    return None


def _oracle_cases():
    rng = np.random.default_rng(600)
    cases = [(CurvatureProfile.constant(K), beta, 200.0)
             for K in (1.0, 0.0, -1.0) for beta in (0.3, 1.0, 64.0)]
    for _ in range(12):
        a0, a1 = rng.uniform(-1.0, 0.5), rng.uniform(0.0, 0.6)
        om, ph = rng.uniform(0.2, 2.0), rng.uniform(0.0, 2 * np.pi)
        prof = CurvatureProfile.from_function(
            lambda t, a0=a0, a1=a1, om=om, ph=ph: a0 + a1 * np.cos(om * t + ph),
            6 * np.pi / om, dt=1e-2)
        cases.append((prof, rng.uniform(0.1, 20.0), 100.0))
    cap_collar = gulliver.synth_profile(gulliver.search_params(1.75))
    cases += [(cap_collar, beta, 3.0 * cap_collar.T)
              for beta in (1.0, 1.75, 1.9, 2.5)]
    return cases


def _assert_matches(t, ref):
    assert (t is None) == (ref is None)
    if ref is not None:
        assert abs(t - ref) <= 1e-12 * abs(ref)


class TestJacobi:
    def test_flat_solution_is_linear(self):
        prof = CurvatureProfile.constant(0.0)
        _, ys, dys = integrate_beta_jacobi(prof, 1.0, 0.0, 1.0, 5.0, dt=1e-3)
        assert abs(ys[-1] - 5.0) < 1e-10 and abs(dys[-1] - 1.0) < 1e-12

    def test_positive_curvature_sine(self):
        prof = CurvatureProfile.constant(1.0)
        _, ys, dys = integrate_beta_jacobi(prof, 1.0, 0.0, 1.0, 1.3, dt=1e-3)
        assert abs(ys[-1] - np.sin(1.3)) < 1e-10
        assert abs(dys[-1] - np.cos(1.3)) < 1e-10

    def test_negative_curvature_sinh(self):
        prof = CurvatureProfile.constant(-1.0)
        _, ys, _ = integrate_beta_jacobi(prof, 1.0, 0.0, 1.0, 2.0, dt=1e-3)
        assert abs(ys[-1] - np.sinh(2.0)) < 1e-8

    def test_cocycle_unimodular_per_unit_time(self):
        prof = CurvatureProfile.from_function(
            lambda t: 0.5 * np.cos(t), 2 * np.pi, dt=1e-3)
        # the Wronskian y1 y2' - y2 y1' of the solutions from (1, 0) and
        # (0, 1) is the determinant of the cocycle matrix, 1 at every t
        _, y1, dy1 = integrate_beta_jacobi(prof, 1.7, 1.0, 0.0, 1.0, dt=1e-3)
        _, y2, dy2 = integrate_beta_jacobi(prof, 1.7, 0.0, 1.0, 1.0, dt=1e-3)
        assert np.max(np.abs(y1 * dy2 - y2 * dy1 - 1.0)) < 1e-8

    def test_first_conjugate_time_sphere(self):
        prof = CurvatureProfile.constant(1.0)
        t = first_conjugate_time(prof, 1.0, dt=1e-3)
        assert abs(t - np.pi) < 1e-8
        t = first_conjugate_time(prof, 4.0, dt=1e-3)
        assert abs(t - np.pi / 2) < 1e-8

    def test_no_conjugate_points_nonpositive(self):
        for K in (0.0, -1.0):
            prof = CurvatureProfile.constant(K)
            assert first_conjugate_time(prof, 8.0, T_max=100.0) is None

    def test_batch_matches_scalar(self):
        prof = CurvatureProfile.from_function(
            lambda t: np.sin(t) + 0.5, 2 * np.pi, dt=1e-2)
        n = len(prof.K_samples)
        h = prof.dt
        ts = np.arange(2 * n + 1) * (h / 2.0)
        K_half = prof(ts)[None, :]
        betas = np.array([2.0])
        out = jacobi_first_zero_batch(K_half, betas, h)
        ref = first_conjugate_time(prof, 2.0, T_max=prof.T, dt=h)
        if ref is None:
            assert np.isnan(out[0])
        else:
            # both paths locate zeros by the cubic-Hermite root
            assert abs(out[0] - ref) < 1e-10

    def test_matches_scalar_loop(self):
        cases = _oracle_cases()
        none_seen = 0
        for prof, beta, T_max in cases:
            t = first_conjugate_time(prof, beta, T_max=T_max)
            ref = scalar_first_conjugate_time(prof, beta, T_max=T_max)
            _assert_matches(t, ref)
            none_seen += ref is None
        assert 0 < none_seen < len(cases)

    def test_batch_rows_match_scalar_loop(self):
        # rows finish at different steps; beta = 0 (y = t) never does, so
        # the others run on through zeros in later chunks
        prof = CurvatureProfile.from_function(
            lambda t: np.sin(t) + 0.5, 2 * np.pi, dt=1e-2)
        betas = np.array([0.0, 0.05, 0.5, 2.0, 8.0, 40.0])
        n, h, Kh = cocycle._half_grid(prof, 0.0, 60.0, 1e-2)
        out = jacobi_first_zero_batch(np.repeat(Kh[None], len(betas), 0),
                                      betas, h)
        for t, beta in zip(out, betas):
            ref = scalar_first_conjugate_time(prof, beta, T_max=60.0)
            _assert_matches(None if np.isnan(t) else t, ref)

    def test_one_step_chunks(self, monkeypatch):
        monkeypatch.setattr(cocycle, "_BLOCK", 1)
        prof = CurvatureProfile.constant(1.0)
        for beta, T_max in ((1.0, 4.0), (0.1, 4.0)):
            _assert_matches(first_conjugate_time(prof, beta, T_max=T_max),
                            scalar_first_conjugate_time(prof, beta, T_max))
        _, ys, _ = integrate_beta_jacobi(prof, 1.0, 0.0, 1.0, 1.3, dt=1e-2)
        assert abs(ys[-1] - np.sin(1.3)) < 1e-8

    @pytest.mark.parametrize("block", [313, 314, 315])
    def test_zero_on_chunk_boundary(self, monkeypatch, block):
        # the sign change of sin t lies on step 314, [3.14, 3.15]
        monkeypatch.setattr(cocycle, "_BLOCK", block)
        prof = CurvatureProfile.constant(1.0)
        t = first_conjugate_time(prof, 1.0, T_max=10.0)
        _assert_matches(t, scalar_first_conjugate_time(prof, 1.0, 10.0))
        assert abs(t - np.pi) < 1e-8

    def test_growth_bounded_chunks_do_not_overflow(self):
        # y = sinh(8 t)/8 grows like e^1600 over [0, 200]; at beta = 6400 a
        # single block of steps grows like e^3000
        prof = CurvatureProfile.constant(-1.0)
        with np.errstate(all="raise"):
            for beta in (64.0, 6400.0):
                assert first_conjugate_time(prof, beta, T_max=200.0) is None
            _, ys, _ = integrate_beta_jacobi(prof, 64.0, 0.0, 1.0, 40.0,
                                             dt=1e-3)
        # unscaled across chunks: sinh(320)/8 ~ e^320/16 at t = 40
        assert abs(ys[-1] / (np.exp(320.0) / 16.0) - 1.0) < 1e-6

    @pytest.mark.parametrize("K", [1.0, -1.0])
    def test_overflowed_steps_are_a_solver_failure(self, K):
        # beta K h^2 = 1e304: the RK4 step matrices overflow to inf and NaN,
        # which no sign test reads as a zero
        prof = CurvatureProfile.constant(K)
        with np.errstate(all="ignore"):
            with pytest.raises(cocycle.JacobiSolveError):
                first_conjugate_time(prof, 1e308, T_max=10.0)
            with pytest.raises(cocycle.JacobiSolveError):
                riccati_integrate(prof, 1e308, 0.0, 1.0, 0.0)


class TestRiccati:
    def test_conjugate_point_raises_pole(self):
        prof = CurvatureProfile.constant(1.0)
        with pytest.raises(ConjugatePointError) as ei:
            riccati_integrate(prof, 1.0, 0.0, 5.0, 1e6, dt=1e-3,
                              raise_on_pole=True)
        assert abs(ei.value.time - np.pi) < 1e-2

    def test_poles_at_the_zeros_of_y(self):
        # r = -tan t: y = cos t vanishes at pi/2 + k pi
        prof = CurvatureProfile.constant(1.0)
        _, _, poles = riccati_integrate(prof, 1.0, 0.0, 10.0, 0.0,
                                        raise_on_pole=False)
        expect = np.pi / 2 + np.pi * np.arange(3)
        assert len(poles) == 3
        assert np.max(np.abs(np.array(poles) - expect)) < 1e-8

    @pytest.mark.parametrize("beta", (1.0, 4.0))
    def test_hopf_solutions_match_dop853_at_their_times(self, beta):
        def K(t):
            return -0.3 + 0.5 * np.sin(t) + 0.2 * np.cos(3 * t)

        def reference(t0, r0, ts):     # r = y'/y of y'' = -beta K y
            sol = solve_ivp(lambda t, u: [u[1], -beta * K(t) * u[0]],
                            (t0, ts[-1]), [1.0, r0], method="DOP853",
                            rtol=1e-13, atol=1e-300, t_eval=ts)
            return sol.y[1] / sol.y[0]

        prof = CurvatureProfile.from_function(K, 2 * np.pi)
        pair = riccati_hopf(prof, beta, R=30.0)
        T, R = prof.T, pair.R_used
        assert np.max(np.abs(pair.r_plus
                             - reference(-R, 1e6, pair.ts))) <= 1e-7
        assert np.max(np.abs(pair.r_minus
                             - reference(T + R, -1e6, pair.ts[::-1])[::-1])
                      ) <= 1e-7

    @pytest.mark.parametrize("beta", BETAS)
    def test_hopf_solutions_constant_negative(self, beta):
        prof = CurvatureProfile.constant(-1.0)
        pair = riccati_hopf(prof, beta, R=30.0)
        sb = np.sqrt(beta)
        assert np.max(np.abs(pair.r_plus - sb)) < 1e-6
        assert np.max(np.abs(pair.r_minus + sb)) < 1e-6
        assert abs(pair.gap_min - 2 * sb) < 1e-6


class TestTerminator:
    def test_positive_curvature_window_is_tiny(self):
        prof = CurvatureProfile.constant(1.0)
        cert = terminator_bisect([prof], tol=1e-3)
        assert cert.beta_lo >= 0.0
        assert cert.beta_hi <= 1e-3
        assert not cert.exceeds_beta_max

    @pytest.mark.parametrize("K", (0.0, -1.0))
    def test_nonpositive_exceeds_cap(self, K):
        prof = CurvatureProfile.constant(K)
        cert = terminator_bisect([prof], beta_max=64.0)
        assert cert.exceeds_beta_max
        assert cert.beta_lo >= 64.0

    def test_certificate_serializes(self):
        prof = CurvatureProfile.constant(1.0)
        cert = terminator_bisect([prof], tol=1e-2)
        doc = cert.to_json()
        assert set(doc) >= {"beta_lo", "beta_hi", "exceeds_beta_max",
                            "profiles", "evidence"}


def per_beta_bisect(profiles, beta_max=64.0, tol=1e-3, T_max=200.0, dt=1e-2):
    """Oracle: terminator bisection sampling each profile anew at every
    beta, through first_conjugate_time's own sampling."""
    evidence = []

    def free(beta):
        ok = True
        for p in profiles:
            t = first_conjugate_time(p, beta, T_max=T_max, dt=dt)
            evidence.append({"beta": beta, "profile": p.name,
                             "first_conjugate_time": t})
            ok = ok and t is None
        return ok

    names = [p.name for p in profiles]
    if free(beta_max):
        return cocycle.TerminatorCertificate(beta_max, np.inf, True, beta_max,
                                             names, evidence).to_json()
    lo, hi = 0.0, beta_max
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if free(mid) else (lo, mid)
    return cocycle.TerminatorCertificate(lo, hi, False, beta_max, names,
                                         evidence).to_json()


class TestSampledOnce:
    """terminator_bisect samples each profile once for all its passes."""

    @pytest.fixture(scope="class")
    def torus_pool(self, curved_torus):
        return cocycle._profile_pool(curved_torus, seed=1)

    def _gulliver(self):
        prof = gulliver.synth_profile(gulliver.search_params(1.75))
        return prof, 3.0 * prof.T

    def test_certificates_match_the_per_beta_oracle(self, torus_pool):
        prof, T_max = self._gulliver()
        cases = [(torus_pool, dict(beta_max=64.0 / 2 ** 14)),
                 ([prof], dict(T_max=T_max, tol=1e-2)),
                 ([CurvatureProfile.constant(1.0)], dict(tol=1e-2)),
                 ([CurvatureProfile.constant(-1.0)], dict())]
        for pool, kw in cases:
            assert (terminator_bisect(pool, **kw).to_json()
                    == per_beta_bisect(pool, **kw))

    def _sampled(self, monkeypatch, pool, **kw):
        """The profile names, one per half grid of the default T_max and dt
        sampled, and the certificate of terminator_bisect(pool, **kw).  A
        grid is sampled a block at a time: its 2n + 1 points come from
        consecutive CurvatureProfile calls on one profile."""
        calls = []
        orig = CurvatureProfile.__call__

        def counted(self, ts):
            calls.append((self.name, np.size(ts)))
            return orig(self, ts)
        monkeypatch.setattr(CurvatureProfile, "__call__", counted)
        cert = terminator_bisect(pool, **kw)
        n_grid = 2 * cocycle._steps(0.0, 200.0, 1e-2)[0] + 1
        grids, left = [], 0
        for name, size in calls:
            if not left:    # the next grid starts
                grids.append(name)
                left = n_grid
            assert name == grids[-1] and size <= left
            left -= size
        assert left == 0
        return grids, cert

    def test_each_profile_sampled_once(self, torus_pool, monkeypatch):
        calls, cert = self._sampled(monkeypatch, torus_pool,
                                    beta_max=64.0 / 2 ** 14)
        assert len(torus_pool) == 7
        assert len(cert.evidence) == 3 * len(torus_pool)   # three passes
        assert calls == [p.name for p in torus_pool]

    def test_kept_samples_count_the_pool(self, torus_pool, monkeypatch):
        # the half grid of the default T_max and dt: 2 * 20000 + 1 samples;
        # one profile's grid fits the limit, the pool's seven do not
        kw = dict(beta_max=64.0 / 2 ** 14)
        ref = per_beta_bisect(torus_pool, **kw)
        monkeypatch.setattr(cocycle, "MAX_KEPT_SAMPLES", 3 * 40001)
        calls, cert = self._sampled(monkeypatch, torus_pool[:3], **kw)
        assert calls == [p.name for p in torus_pool[:3]]
        calls, cert = self._sampled(monkeypatch, torus_pool, **kw)
        # sampled again for every (profile, beta), in evidence order
        assert calls == [e["profile"] for e in cert.evidence]
        assert len(calls) == 3 * len(torus_pool)
        assert cert.to_json() == ref

    def test_grid_of_another_length_rejected(self):
        prof = CurvatureProfile.constant(1.0)
        K_half = cocycle._half_grid(prof, 0.0, 10.0, 1e-2)[2]
        assert first_conjugate_time(prof, 1.0, T_max=10.0,
                                    K_half=K_half) == \
            first_conjugate_time(prof, 1.0, T_max=10.0)
        with pytest.raises(ValueError, match="half grid"):
            first_conjugate_time(prof, 1.0, T_max=20.0, K_half=K_half)


class TestProfilePool:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_windows_in_the_shooting_equal_separate_calls(self, curved_torus,
                                                          seed):
        # the torus pool steps its orbit windows inside the shooting's RK4
        # batches; apart, they are rk4_orbit over the same starts
        pool = cocycle._profile_pool(curved_torus, seed=seed)
        geos = flow.find_closed_geodesics(curved_torus,
                                          ((1, 0), (0, 1), (1, 1)), tol=1e-9)
        rng = np.random.default_rng(seed)
        starts = np.array([[rng.uniform(0, curved_torus.Lx),
                            rng.uniform(0, curved_torus.Ly),
                            rng.uniform(0, 2 * np.pi)] for _ in range(4)])
        ts, traj = flow.rk4_orbit(curved_torus, starts, 40.0, 5e-3)
        ref = [(flow.curvature_profile_along(curved_torus, g).K_samples, g.dt)
               for g in geos]
        ref += [(curved_torus.curvature(*traj[:, k, :2].T),
                 ts[1] - ts[0]) for k in range(len(starts))]
        assert len(pool) == len(ref) == 7
        for prof, (K, dt) in zip(pool, ref):
            assert np.array_equal(prof.K_samples, K)
            assert prof.dt == dt

    def test_surrogate_and_pool_draw_apart(self, curved_torus, monkeypatch):
        # the verdict's surrogate rides in its pool's shooting; each draws
        # its starts from a generator of its own, so both equal the ones
        # made apart
        pools = []
        orig = cocycle._profile_pool

        def kept(*args, **kw):
            pools.append(orig(*args, **kw))
            return pools[-1]
        monkeypatch.setattr(cocycle, "_profile_pool", kept)
        rep = anosov_verdict(curved_torus, beta_max=64.0 / 2 ** 14, seed=2)
        monkeypatch.undo()
        assert rep["trapping"] == flow.trapping_surrogate(curved_torus,
                                                          seed=2)
        alone = cocycle._profile_pool(curved_torus, seed=2)
        assert len(pools) == 1 and len(pools[0]) == len(alone) == 7
        for prof, ref in zip(pools[0], alone):
            assert np.array_equal(prof.K_samples, ref.K_samples)
            assert (prof.dt, prof.name) == (ref.dt, ref.name)


class TestHalfGrid:
    """_half_grid samples a profile a block of _BLOCK times at a time."""

    @pytest.fixture(scope="class")
    def gulliver_195(self):
        prof = gulliver.synth_profile(gulliver.search_params(1.95))
        return prof, 3.0 * prof.T   # gulliver's default horizon

    def test_blocks_are_the_bits_of_one_call(self, gulliver_195,
                                             curved_torus):
        prof, T_max = gulliver_195
        # trigonometric interpolation of a closed orbit's samples
        geo = flow.find_closed_geodesics(curved_torus, (1, 1), tol=1e-9)
        torus = flow.curvature_profile_along(curved_torus, geo)
        assert torus.K_fn is None and torus.periodic
        for p, t0, t1 in ((prof, 0.0, T_max), (torus, -3.0, 47.0)):
            n, h, K = cocycle._half_grid(p, t0, t1, 1e-2)
            assert len(K) > cocycle._BLOCK and len(K) % cocycle._BLOCK
            assert np.array_equal(K, p(t0 + np.arange(2 * n + 1) * (h / 2.0)))

    def test_bisection_memory(self, gulliver_195):
        # sampled at once, the 162,533-point grid's times, their reduction
        # modulo the period, the np.where result and K peaked at 4.1 MB
        prof, T_max = gulliver_195
        tracemalloc.start()
        try:
            terminator_bisect([prof], T_max=T_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6     # 2.2 MB a block at a time


class TestComparison:
    def test_larger_curvature_smaller_solution(self):
        p0 = CurvatureProfile.constant(0.5)    # K0 >= K1
        p1 = CurvatureProfile.constant(-0.5)
        ok, details = comparison_oracle(p0, p1, 0.1, 0.2, 2.0, dt=1e-3)
        assert ok and details["min_diff"] >= -1e-8

    def test_equal_inputs_hold(self):
        p = CurvatureProfile.constant(-1.0)
        ok, _ = comparison_oracle(p, p, 0.3, 0.3, 2.0)
        assert ok


class TestVerdicts:
    def test_octagon_is_anosov_consistent(self, octagon):
        rep = anosov_verdict(octagon)
        assert rep["verdict"] == "Anosov-consistent"
        assert rep["terminator"]["exceeds_beta_max"]

    def test_flat_torus_is_not_anosov(self, flat_torus):
        rep = anosov_verdict(flat_torus)
        assert rep["verdict"] == "not-Anosov"
        assert rep["trapping"]["trapped_detected"]

    def test_sphere_is_not_anosov(self, sphere):
        rep = anosov_verdict(sphere)
        assert rep["verdict"] == "not-Anosov"
        assert rep["terminator"]["beta_hi"] <= 1e-3
