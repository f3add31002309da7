import tracemalloc
from functools import lru_cache
from itertools import product

import numpy as np
import pytest

from anosovlab import xray
from anosovlab import smfourier as sf
from anosovlab.flow import find_closed_geodesics
from anosovlab.geometry import ConformalTorus, FuchsianOctagon

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def small_pool(octagon):
    return xray.octagon_geodesic_pool(octagon, max_len=4, max_count=64,
                                      n_samples=512)


def _assert_wirtinger_match_fd(mode, x, y, tol):
    """The stack's d_z and d_zbar against central differences of its
    value."""
    eps = 1e-6
    fx = (mode(x + eps, y)[0] - mode(x - eps, y)[0]) / (2 * eps)
    fy = (mode(x, y + eps)[0] - mode(x, y - eps)[0]) / (2 * eps)
    _, dz, dbar = mode(x, y)
    assert abs(dz - 0.5 * (fx - 1j * fy)) < tol
    assert abs(dbar - 0.5 * (fx + 1j * fy)) < tol


class TestModes:
    def test_windowed_mode_derivatives_match_fd(self):
        # the mode and the stack operations on it: conjugate, real part and
        # imaginary part
        mode = xray.windowed_trig_mode((2, -1), 0.57)
        for part in (mode, mode.conj(), mode.real(), mode.imag()):
            _assert_wirtinger_match_fd(part, 0.11, 0.07, 1e-6)

    def test_stack_parts(self):
        mode = xray.windowed_trig_mode((2, -1), 0.57)
        v = mode(0.11, 0.07)[0]
        assert mode.conj()(0.11, 0.07)[0] == np.conj(v)
        assert mode.real()(0.11, 0.07)[0] == v.real
        assert mode.imag()(0.11, 0.07)[0] == v.imag

    def test_trig_mode_derivatives_match_fd(self, flat_torus):
        ch = sf.Chart.from_torus(flat_torus)
        X, Y = ch.nodes()
        mode = xray.trig_mode(np.cos(X) * np.sin(2 * Y)
                              + 1j * np.sin(X + Y), ch)
        assert abs(mode(X[3, 5], Y[3, 5])[0]
                   - (np.cos(X[3, 5]) * np.sin(2 * Y[3, 5])
                      + 1j * np.sin(X[3, 5] + Y[3, 5]))) < 1e-12
        _assert_wirtinger_match_fd(mode, 0.4, 1.3, 1e-6)

    def test_window_vanishes_outside_support(self):
        mode = xray.windowed_trig_mode((1, 0), 0.5)
        assert mode(0.6, 0.0)[0] == 0.0
        assert mode(0.0, 0.7)[1] == 0.0
        # t = 1 exactly: b' = -b/(1 - t)^2 must not divide 0 by 0
        with np.errstate(all="raise"):
            assert np.all(mode(np.array([0.5, 0.0]), np.array([0.0, 0.5]))
                          == 0.0)

    def test_band_validation(self, octagon):
        good = xray.windowed_trig_mode((1, 1), 0.57)
        with pytest.raises(ValueError):
            xray.SymTensorField(octagon, 2, {1: good})

    def test_conjugate_pair_evaluates_its_source_once(self, octagon):
        calls = []
        top = xray.windowed_trig_mode((1, 2), 0.57)
        source = top.source
        top.source = lambda points: calls.append(1) or source(points)
        pair = xray.SymTensorField(octagon, 1, {1: top, -1: top.conj()})
        x, y = np.array([0.1, -0.2]), np.array([0.3, 0.05])
        v = pair.values(x, y)
        assert len(calls) == 1
        assert np.array_equal(v[1], np.conj(v[0]))
        dh = xray.PotentialTensor(pair)
        dh.values(x, y)
        assert len(calls) == 2


class TestRayTransform:
    def test_linearity(self, octagon, small_pool):
        geo = small_pool[0]
        a = xray.SymTensorField(octagon, 0, xray._real_modes(0, 1, 0.57)[0])
        b = xray.SymTensorField(octagon, 0, xray._real_modes(0, 2, 0.57)[1])
        both = xray.SymTensorField(
            octagon, 0, {0: xray.Mode(
                lambda p: a.modes[0].at(p) + 2.0 * b.modes[0].at(p))})
        Ia = xray.ray_transform(a, geo)
        Ib = xray.ray_transform(b, geo)
        Iboth = xray.ray_transform(both, geo)
        assert abs(Iboth - (Ia + 2.0 * Ib)) < 1e-10

    def test_quadrature_converged(self, octagon, small_pool):
        f = xray._nonpotential_basis(octagon, 2, 1, 0.57)[0]
        geo = small_pool[2]
        v1 = xray.ray_transform(f, geo, n_samples=1024)
        v2 = xray.ray_transform(f, geo, n_samples=2048)
        assert abs(v1 - v2) <= 1e-10 * max(1.0, xray.abs_ray_mass(f, geo))

    def test_flat_torus_cosine_oracle(self, flat_torus):
        ch = sf.Chart.from_torus(flat_torus)
        xs = np.arange(ch.nx) * (ch.Lx / ch.nx)
        X, _ = np.meshgrid(xs, xs, indexing="ij")
        u = sf.SMField(ch, {0: np.cos(X)})
        f = xray.SymTensorField.from_smfield(flat_torus, 0, u)
        geo = find_closed_geodesics(flat_torus, (0, 1))
        x0 = geo.samples[0][0]
        val = xray.ray_transform(f, geo)
        assert abs(val - geo.period * np.cos(x0)) < 1e-8

    def test_potential_tensors_integrate_to_zero(self, octagon, small_pool):
        # I_m(dh) = 0 on closed geodesics: the integrand is an exact
        # derivative of h along the orbit
        for m in (1, 2):
            dh = xray._potential_basis(octagon, m, 3, 0.57)[2]
            for geo in small_pool[:10]:
                mass = xray.abs_ray_mass(dh, geo, n_samples=1024)
                if mass < 1e-12:
                    continue
                val = xray.ray_transform(dh, geo, n_samples=1024)
                assert abs(val) <= 1e-8 * mass

    @pytest.mark.parametrize("n_samples", [None, 1024])
    def test_matrix_matches_per_geodesic(self, octagon, small_pool,
                                         n_samples):
        # 20 orbits of 512 stored samples fill two chunks; at 1024 samples
        # every orbit is resampled and they fill three
        basis = (xray._potential_basis(octagon, 2, 2, 0.57)
                 + xray._nonpotential_basis(octagon, 2, 2, 0.57))
        pool = small_pool[:20]
        assert len(list(xray._pool_chunks(pool, n_samples))) == \
            (2 if n_samples is None else 3)
        G = xray.ray_transform_matrix(basis, pool, n_samples)
        for i, geo in enumerate(pool):
            for j, f in enumerate(basis):
                ref = xray.ray_transform(f, geo, n_samples=n_samples)
                mass = xray.abs_ray_mass(f, geo, n_samples=n_samples)
                assert abs(G[i, j] - ref) <= 1e-12 * max(1.0, mass)

    @pytest.mark.parametrize("n_samples", [None, 1024])
    def test_matrix_equals_per_tensor_evaluation(self, octagon, small_pool,
                                                 n_samples):
        # the tensors of a chunk share its factors; each evaluated at a
        # point set of its own, over the same chunks, gives G to the bit
        basis = (xray._potential_basis(octagon, 2, 3, 0.57)
                 + xray._nonpotential_basis(octagon, 2, 3, 0.57))
        pool = small_pool[:20]
        ref = np.empty((len(pool), len(basis)))
        chunks = list(xray._pool_chunks(pool, n_samples))
        assert len(chunks) >= 2
        for rows, samples, starts, dts in chunks:
            x, y, th = samples[:, 0], samples[:, 1], samples[:, 2]
            for j, f in enumerate(basis):
                ref[rows, j] = np.real(np.add.reduceat(f.eval(x, y, th),
                                                       starts) * dts)
        G = xray.ray_transform_matrix(basis, pool, n_samples)
        assert np.array_equal(G, ref)

    def test_matrix_takes_shared_factors_once_per_chunk(
            self, octagon, small_pool, monkeypatch):
        # one lam_and_grad call and one window bump per chunk, where each
        # potential tensor took lam and each windowed source the bump
        counts = {"lam": 0, "bump": 0, "resample": 0}

        def counted(key, fn):
            def call(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return call
        monkeypatch.setattr(octagon, "lam_and_grad",
                            counted("lam", octagon.lam_and_grad))
        monkeypatch.setattr(xray, "bump", counted("bump", xray.bump))
        monkeypatch.setattr(octagon, "closed_geodesics_from_words",
                            counted("resample",
                                    octagon.closed_geodesics_from_words))
        basis = (xray._potential_basis(octagon, 2, 4, 0.57)
                 + xray._nonpotential_basis(octagon, 2, 4, 0.57))
        pool = small_pool[:20]
        for n_samples in (None, 1024):
            n_chunks = len(list(xray._pool_chunks(pool, n_samples)))
            counts.update(lam=0, bump=0, resample=0)
            xray.ray_transform_matrix(basis, pool, n_samples)
            assert counts["lam"] == counts["bump"] == n_chunks
            # the orbits resampled at 1024 samples: one call per chunk
            assert counts["resample"] == (n_chunks if n_samples else 0)

    def test_resampled_chunks_match_each_orbit_resampled(self, small_pool):
        pool = small_pool[:20]
        samples = np.concatenate([xray._orbit_samples(geo, 1024)[0]
                                  for geo in pool])
        chunks = list(xray._pool_chunks(pool, 1024))
        assert np.array_equal(np.concatenate([c[1] for c in chunks]),
                              samples)

    def test_model_mismatch_raises(self, flat_torus, small_pool):
        ch = sf.Chart.from_torus(flat_torus)
        u = sf.SMField(ch, {0: np.ones((ch.nx, ch.ny))})
        f = xray.SymTensorField.from_smfield(flat_torus, 0, u)
        with pytest.raises(ValueError):
            xray.ray_transform(f, small_pool[0])
        with pytest.raises(ValueError):
            xray.ray_transform_matrix([f], small_pool[:2])


class TestSolenoidal:
    def test_coordinate_gradient_not_solenoidal(self, octagon):
        h = xray.SymTensorField(octagon, 0, xray._real_modes(0, 2, 0.57)[1])
        A = xray.PotentialTensor(h)
        ch = sf.Chart.disk_patch(octagon, half_width=0.6, n=64)
        assert xray.solenoidal_check(A, ch) > 1e-3

    def test_degree_check(self, octagon):
        f = xray.SymTensorField(octagon, 0, xray._real_modes(0, 1, 0.57)[0])
        ch = sf.Chart.disk_patch(octagon, half_width=0.6, n=32)
        with pytest.raises(ValueError):
            xray.solenoidal_check(f, ch)


class TestChartQuadrature:
    def test_tensor_inner_on_a_torus_chart(self):
        # the tensor is evaluated at the chart's own nodes, which start at
        # the origin on a torus: its L^2(SM) norm is the field's
        t = ConformalTorus.from_expression("0.3*cos(x) + 0.2*sin(y)", TWO_PI,
                                           TWO_PI, 32, 32)
        ch = sf.Chart.from_torus(t)
        X, Y = ch.nodes()
        assert X[0, 0] == Y[0, 0] == 0.0
        u = sf.SMField(ch, {-2: np.exp(1j * (X - 2 * Y)),
                            0: np.cos(X) + np.sin(Y) + 2.0,
                            2: np.exp(-1j * (X - 2 * Y))})
        f = xray.SymTensorField.from_smfield(t, 2, u)
        ref = sf.norm2(u)
        assert abs(xray.tensor_inner(f, f, ch) - ref) <= 1e-12 * ref

    def test_non_potential_residual_resolves_a_tiny_off_span_part(self):
        # f = D^T c + eps g with g orthogonal to span D: the residual field
        # f - Pi f reads eps, where ||f||^2 - ||Pi f||^2 cancels to ~1e-16
        rng = np.random.default_rng(5)
        shape = (2, 16, 16)
        w = rng.uniform(0.5, 2.0, shape)
        D = rng.normal(size=(6,) + shape) + 1j * rng.normal(size=(6,) + shape)
        g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        g -= xray._projection(D, w, xray._gram(D, [g], w))[0]
        f0 = np.tensordot(rng.normal(size=6), D, axes=1)
        norm = lambda a: np.sqrt(xray._gram([a], [a], w)[0, 0])
        eps = 1e-10
        f = f0 + eps * norm(f0) / norm(g) * g
        r = f - xray._projection(D, w, xray._gram(D, [f], w))[0]
        assert abs(norm(r) / norm(f) - eps) <= 0.01 * eps
        proj = f - r
        cancel = max(norm(f) ** 2 - norm(proj) ** 2, 0.0) / norm(f) ** 2
        assert abs(np.sqrt(cancel) - eps) > 0.01 * eps


@lru_cache(maxsize=None)
def _dfs_classes(max_len):
    """The pool's word classes by a recursive depth-first search over the
    octagon's reduced words: rounded |trace| -> word, a shorter word
    replacing a longer one, and of equal lengths the first visited (the
    lexicographically first) kept."""
    gens = FuchsianOctagon().disk_generators
    classes = {}

    def dfs(word, M):
        if word:
            tr = abs(float(np.real(np.trace(M))))
            if tr > 2.0 + 1e-10:
                key = round(tr, 9)
                if key not in classes or len(word) < len(classes[key]):
                    classes[key] = tuple(word)
        if len(word) == max_len:
            return
        for g in range(8):
            if word and (word[-1] - g) % 8 == 4:   # immediate cancellation
                continue
            dfs(word + [g], M @ gens[g])

    dfs([], np.eye(2, dtype=complex))
    return classes


def _word_geodesic_oracle(octagon, word, n_samples):
    """(period, dt, axis, samples) of a word's closed geodesic, or None,
    by the per-word steps with one reduce_batch call of its own."""
    M = octagon.word_matrix(word)
    tr = abs(np.real(np.trace(M)))
    if tr <= 2.0 + 1e-10:
        return None
    T = 2.0 * np.arccosh(tr / 2.0)
    z0, theta0 = octagon.axis_of(M)
    ts = np.arange(n_samples) * (T / n_samples)
    zr, thr, _ = octagon.reduce_batch(*octagon.geodesic_point(z0, theta0, ts))
    return T, T / n_samples, (z0, theta0), np.column_stack([zr.real, zr.imag,
                                                            thr])


def _assert_matches_oracle(geo, ref):
    T, dt, axis, samples = ref
    assert geo.period == T and geo.dt == dt
    assert np.array_equal(geo.axis, axis)
    assert np.array_equal(geo.samples, samples)


class TestGeodesicPool:
    def test_levels_are_the_reduced_words_in_order(self, octagon):
        # every reduced word of each length once, lexicographically, with
        # the trace of its word matrix to the bit
        levels = []
        for parents, letters, tr in xray._word_levels(
                octagon.disk_generators, 4):
            levels.append((parents, letters))
            n = len(levels)
            words = [xray._rebuild_word(levels, n, i)
                     for i in range(len(letters))]
            assert words == [w for w in product(range(8), repeat=n)
                             if all((a - b) % 8 != 4
                                    for a, b in zip(w, w[1:]))]
            assert np.array_equal(tr, [abs(np.trace(octagon.word_matrix(w))
                                           .real) for w in words])

    @pytest.mark.parametrize("max_len", range(1, 7))
    def test_word_classes_match_dfs(self, octagon, max_len):
        classes = xray._word_classes(octagon.disk_generators, max_len)
        oracle = _dfs_classes(max_len)
        assert classes == oracle
        assert all(type(k) is float for k in classes)
        assert all(type(g) is int for w in classes.values() for g in w)

    @pytest.mark.parametrize("max_len, max_count, n_samples", [
        pytest.param(4, 64, 512, id="4-64"),
        pytest.param(6, 256, 512, id="6-256"),
        # 3 words of 300 samples a reduction: the last of 13 holds one
        pytest.param(6, 37, 300, id="6-37-300")])
    def test_pool_matches_dfs_pool(self, octagon, max_len, max_count,
                                   n_samples):
        classes = _dfs_classes(max_len)
        words = [classes[key] for key in sorted(classes)[:max_count]]
        oracle = [(w, _word_geodesic_oracle(octagon, w, n_samples))
                  for w in words]
        oracle = [(w, ref) for w, ref in oracle if ref is not None]
        pool = xray.octagon_geodesic_pool(octagon, max_len=max_len,
                                          max_count=max_count,
                                          n_samples=n_samples)
        # 35 classes up to length 4, 429 up to length 6
        assert len(pool) == len(oracle) == min(max_count, len(classes))
        for geo, (word, ref) in zip(pool, oracle):
            assert geo.word == word
            _assert_matches_oracle(geo, ref)

    def test_builder_keeps_word_order(self, octagon):
        # a word that is not hyperbolic (the surface relation) keeps its
        # place as None among reductions of 2 words each
        words = [(0,), octagon.RELATION, (0, 2), (1, 3), (2, 7, 5)]
        n_samples = octagon.REDUCE_CHUNK_POINTS // 2
        geos = octagon.closed_geodesics_from_words(words, n_samples)
        assert geos[1] is None
        for word, geo in zip(words, geos):
            ref = _word_geodesic_oracle(octagon, word, n_samples)
            if ref is None:
                assert geo is None
            else:
                assert geo.word == word
                _assert_matches_oracle(geo, ref)

    def test_pool_memory(self, octagon):
        # the enumeration of the words up to length 6 peaks at 6.72 MB, as
        # it did with each word reduced alone; the default pool and one
        # reduction of 1024 points stay below it, where reductions of 4096
        # points peaked at 7.05 MB and of 8192 points at 10.7 MB
        tracemalloc.start()
        try:
            xray.octagon_geodesic_pool(octagon)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.9e6

    def test_pool_properties(self, octagon, small_pool):
        assert 0 < len(small_pool) <= 64
        # shortest class first: the single-generator axis
        assert abs(small_pool[0].period - octagon.translation_length) < 1e-8
        periods = [g.period for g in small_pool]
        assert all(p > 0 for p in periods)
        # conjugacy dedup: no repeated lengths
        assert len(set(np.round(periods, 8))) == len(periods)

    def test_no_immediate_cancellation(self, small_pool):
        for geo in small_pool:
            w = geo.word
            for a, b in zip(w, w[1:]):
                assert (a - b) % 8 != 4


class TestSInjectivity:
    def test_scalar_transform_injective_on_basis(self, octagon, small_pool):
        rep = xray.sinjectivity_experiment(octagon, 0, small_pool,
                                           n_basis=10, n_samples=512)
        assert rep["kernel_dim"] == 0
        assert rep["sigma_min"] > 1e-6 * rep["sigma_max"]

    def test_pool_too_small_flag(self, octagon, small_pool):
        rep = xray.sinjectivity_experiment(octagon, 0, small_pool[:3],
                                           n_basis=10)
        assert "flag" in rep and "pool" in rep["flag"]
