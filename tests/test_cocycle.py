import numpy as np
import pytest

from anosovlab import cocycle, gulliver
from anosovlab.flow import CurvatureProfile
from anosovlab.cocycle import (integrate_beta_jacobi, cocycle_matrix,
                               first_conjugate_time, jacobi_first_zero_batch,
                               riccati_integrate, riccati_hopf,
                               hyperbolicity_test, terminator_bisect,
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
        M = cocycle_matrix(prof, 1.7, 1.0, dt=1e-3)
        assert abs(np.linalg.det(M) - 1.0) < 1e-8

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


class TestRiccati:
    def test_conjugate_point_raises_pole(self):
        prof = CurvatureProfile.constant(1.0)
        with pytest.raises(ConjugatePointError) as ei:
            riccati_integrate(prof, 1.0, 0.0, 5.0, 1e6, dt=1e-3,
                              raise_on_pole=True)
        assert abs(ei.value.time - np.pi) < 1e-2

    @pytest.mark.parametrize("beta", BETAS)
    def test_hopf_solutions_constant_negative(self, beta):
        prof = CurvatureProfile.constant(-1.0)
        pair = riccati_hopf(prof, beta, R=30.0)
        sb = np.sqrt(beta)
        assert np.max(np.abs(pair.r_plus - sb)) < 1e-6
        assert np.max(np.abs(pair.r_minus + sb)) < 1e-6
        assert abs(pair.gap_min - 2 * sb) < 1e-6

    def test_hyperbolicity_verdicts(self):
        neg = CurvatureProfile.constant(-1.0)
        flat = CurvatureProfile.constant(0.0)
        assert hyperbolicity_test(neg, 1.0)["verdict"] == "hyperbolic"
        assert hyperbolicity_test(flat, 1.0)["verdict"] != "hyperbolic"


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
