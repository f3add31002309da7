import numpy as np
import pytest

from anosovlab.geometry import ConformalTorus, ConstantCurvature
from anosovlab import smfourier as sf

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def chart(curved_torus):
    return sf.Chart.from_torus(curved_torus)


@pytest.fixture(scope="module")
def field(chart):
    rng = np.random.default_rng(7)
    return sf.SMField.random_real(chart, n_modes=3, spatial_band=2, rng=rng)


def _diff(a, b, sign=1.0):
    ks = set(a.modes) | set(b.modes)
    return sf.SMField(a.chart, {k: a.get(k) - sign * b.get(k) for k in ks})


def _commutator(op1, op2, u):
    return _diff(sf.apply_frame(op1, sf.apply_frame(op2, u)),
                 sf.apply_frame(op2, sf.apply_frame(op1, u)))


class TestChart:
    def test_weight_matches_area_element(self, chart):
        cell = (chart.Lx / chart.nx) * (chart.Ly / chart.ny)
        assert np.allclose(chart.w, np.exp(2 * chart.lam) * cell * TWO_PI)

    def test_upsample_preserves_values(self, chart):
        rng = np.random.default_rng(1)
        f = rng.normal(size=(chart.nx, chart.ny))
        g = chart.upsample(f)
        assert np.allclose(np.real(g[::2, ::2]), f, atol=1e-12)

    def test_disk_patch_corner_check(self, hyperbolic):
        with pytest.raises(ValueError):
            sf.Chart.disk_patch(hyperbolic, half_width=0.9)
        ch = sf.Chart.disk_patch(hyperbolic, half_width=0.5, n=16)
        assert np.allclose(ch.K, -1.0)

    def test_from_torus_takes_the_torus_calculus(self, curved_torus):
        # at the torus's own grid the chart holds the torus's arrays, which
        # are what the chart's own spectral calculus gives, bit for bit
        ch = sf.Chart.from_torus(curved_torus)
        assert ch.lam_x is curved_torus.lam_x_grid
        own = sf.Chart(curved_torus.lam_grid, curved_torus.Lx,
                       curved_torus.Ly)
        for name in ("lam_x", "lam_y", "K", "dz_lam", "eta_symbol"):
            assert np.array_equal(getattr(ch, name), getattr(own, name))

    def test_refined_disk_patch_keeps_the_analytic_calculus(self, octagon):
        # lam = log(2/(1 - r^2)) is not periodic on the box, so a spectral
        # calculus of the interpolated lam is far off (K by ~18, lam_x by
        # ~3); the refined patch is built analytically on the refined nodes
        ch = sf.Chart.disk_patch(octagon, half_width=0.55, n=32)
        fine = ch.refine()
        assert fine.lam.shape == (64, 64)
        assert np.array_equal(fine.K, np.full((64, 64), -1.0))
        xs = -0.55 + np.arange(64) * (1.1 / 64)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        lam, lam_x, lam_y = octagon.lam_and_grad(X, Y)
        assert np.array_equal(fine.lam_x, lam_x)
        assert np.array_equal(fine.lam_y, lam_y)
        assert np.array_equal(fine.lam[::2, ::2], ch.lam)

    def test_mesh_starts(self, octagon):
        ch = sf.Chart.disk_patch(octagon, half_width=0.55, n=8)
        X, Y = ch.mesh(-0.5)
        assert X[0, 0] == Y[0, 0] == -0.55
        assert np.allclose(np.diff(X[:, 0]), 1.1 / 8)
        X0, _ = ch.mesh(0.0)
        assert X0[0, 0] == 0.0 and np.allclose(X0, X + 0.55)
        # a disk patch's own nodes are the centred ones, to the bit
        Xn, Yn = ch.nodes()
        assert np.array_equal(Xn, X) and np.array_equal(Yn, Y)

    def test_from_torus_resamples_a_non_square_torus(self):
        model = ConformalTorus.from_expression("0.1*cos(x)*sin(y)", TWO_PI,
                                               TWO_PI, 16, 32)
        assert sf.Chart.from_torus(model).lam.shape == (16, 32)
        ch = sf.Chart.from_torus(model, 32)
        assert ch.lam.shape == (32, 32)
        assert np.allclose(ch.lam[::2], model.lam_grid, atol=1e-12)
        with pytest.raises(ValueError, match="only upsamples"):
            sf.Chart.from_torus(model, 16)     # would drop y frequencies


class TestSurfaceChart:
    def test_torus_is_its_own_chart_covering_nx_and_ny(self, curved_torus):
        assert sf.chart_side(curved_torus, 48) == 64
        assert sf.chart_side(curved_torus, 80) == 80
        ch, window = sf.surface_chart(curved_torus, 48)
        assert window is None and ch.lam.shape == (64, 64)
        assert ch.patch is None

    def test_constant_curvature_gets_the_windowed_disk_patch(self, octagon,
                                                             sphere):
        for model in (octagon, sphere):
            assert sf.chart_side(model, 16) == 16
            ch, window = sf.surface_chart(model, 16)
            assert ch.patch == (model, 0.55) and ch.lam.shape == (16, 16)
            assert np.array_equal(window, sf._patch_window(ch))
            assert np.all(ch.K == model.K0)

    def test_patch_past_the_chart_radius(self):
        # the corners lie 0.55 sqrt 2 = 0.778 from the centre
        with pytest.raises(ValueError, match="chart of radius 0.5000"):
            sf.surface_chart(ConstantCurvature(-4.0), 16)


def _random_real_loop(chart, n_modes, spatial_band, rng):
    """SMField.random_real as a sum of sampled plane waves, mode by mode,
    kept here as an oracle."""
    xs = np.arange(chart.nx) * (chart.Lx / chart.nx)
    ys = np.arange(chart.ny) * (chart.Ly / chart.ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    modes = {}
    for k in range(n_modes + 1):
        h = np.zeros_like(X, dtype=complex)
        for m in range(-spatial_band, spatial_band + 1):
            for n in range(-spatial_band, spatial_band + 1):
                c = rng.normal() + 1j * rng.normal()
                h += c * np.exp(1j * (m * TWO_PI * X / chart.Lx +
                                      n * TWO_PI * Y / chart.Ly))
        modes[-k] = np.conj(h)
        modes[k] = h if k else h + np.conj(h)
    return modes


class TestSMFieldLayout:
    def test_dict_constructor_fills_the_band(self, chart):
        g = np.ones((chart.nx, chart.ny))
        u = sf.SMField(chart, {-2: g, 1: 2 * g}, n_modes=1)
        assert u.n_modes == 2 and u.data.shape == (5, chart.nx, chart.ny)
        assert np.array_equal(u.data[0], g) and np.array_equal(u.data[3], 2 * g)
        assert sorted(u.modes) == [-2, -1, 0, 1, 2]
        assert not np.any(u.get(0)) and not np.any(u.get(7))
        u.modes[0] = g                 # a fresh dict: the field is unchanged
        assert not np.any(u.get(0))
        with pytest.raises(ValueError):
            sf.SMField.from_array(chart, np.zeros((4, chart.nx, chart.ny)))

    # 5 x 7 is below 2 * 4 + 1 points a side: the plane waves alias
    @pytest.mark.parametrize("shape", [(64, 64), (5, 7), (12, 20)])
    def test_random_real_matches_plane_wave_sum(self, shape):
        ch = sf.Chart(np.zeros(shape), TWO_PI, 3.0)
        u = sf.SMField.random_real(ch, n_modes=3, spatial_band=4,
                                   rng=np.random.default_rng(5))
        expect = _random_real_loop(ch, 3, 4, np.random.default_rng(5))
        assert u.n_modes == 3 and sorted(expect) == sorted(u.modes)
        scale = np.abs(u.data).max()
        for k, h in expect.items():
            assert np.max(np.abs(u.get(k) - h)) <= 1e-13 * scale


def _apply_frame_loop(op, u):
    """X or X_perp mode by mode through the public eta, kept as an oracle."""
    ch, N = u.chart, u.n_modes + 1
    out = {}
    for k in range(-N, N + 1):
        up = sf.eta("+", k - 1, u.get(k - 1), ch)
        dn = sf.eta("-", k + 1, u.get(k + 1), ch)
        out[k] = up + dn if op == "X" else -1j * (up - dn)
    return out


class TestFrameOperators:
    @pytest.mark.parametrize("op", ["X", "Xperp"])
    def test_stacked_frame_matches_eta_loop(self, field, op):
        got = sf.apply_frame(op, field)
        expect = _apply_frame_loop(op, field)
        assert got.n_modes == field.n_modes + 1
        for k, g in expect.items():
            assert np.array_equal(got.get(k), g)

    def test_eta_is_the_wirtinger_formula(self, chart, field):
        kx = TWO_PI * np.fft.fftfreq(chart.nx, d=chart.Lx / chart.nx)
        ky = TWO_PI * np.fft.fftfreq(chart.ny, d=chart.Ly / chart.ny)
        KX, KY = np.meshgrid(kx, ky, indexing="ij")
        h = field.get(2)
        F = np.fft.fft2(h)
        dz = np.fft.ifft2(0.5j * (KX - 1j * KY) * F)
        dbar = np.fft.ifft2(0.5j * (KX + 1j * KY) * F)
        plus = chart.emlam * (dz - 2 * chart.dz_lam * h)
        minus = chart.emlam * (dbar + 2 * chart.dbar_lam * h)
        scale = np.abs(plus).max() + np.abs(minus).max()
        assert np.max(np.abs(sf.eta("+", 2, h, chart) - plus)) <= 1e-12 * scale
        assert np.max(np.abs(sf.eta("-", 2, h, chart) - minus)) <= 1e-12 * scale
        with pytest.raises(ValueError):
            sf.eta("x", 2, h, chart)

    def test_h1_norm_matches_frame_norms(self, field):
        expect = sum(sf.norm2(sf.apply_frame(op, field))
                     for op in ("X", "Xperp", "V")) + sf.norm2(field)
        assert abs(sf.h1_norm2(field) - expect) <= 1e-13 * expect

    def test_vertical_derivative_eigenrelation(self, field):
        Vu = sf.apply_frame("V", field)
        for k in field.modes:
            assert np.allclose(Vu.get(k), 1j * k * field.get(k))

    def test_commutator_XV_is_Xperp(self, field):
        C = _commutator("X", "V", field)
        Xp = sf.apply_frame("Xperp", field)
        assert sf.norm(_diff(C, Xp)) <= 1e-8 * sf.norm(Xp)

    def test_commutator_VXperp_is_X(self, field):
        C = _commutator("V", "Xperp", field)
        Xu = sf.apply_frame("X", field)
        assert sf.norm(_diff(C, Xu)) <= 1e-8 * sf.norm(Xu)

    def test_commutator_XXperp_is_minus_KV(self, field):
        ch = field.chart
        C = _commutator("X", "Xperp", field)
        Vu = sf.apply_frame("V", field)
        KVu = sf.SMField(ch, {k: ch.K * v for k, v in Vu.modes.items()})
        assert sf.norm(_diff(C, KVu, sign=-1.0)) <= 1e-8 * sf.norm(KVu)

    def test_X_and_V_are_skew_adjoint(self, chart, field):
        rng = np.random.default_rng(8)
        v = sf.SMField.random_real(chart, n_modes=4, spatial_band=2, rng=rng)
        scale = sf.norm(field) * sf.norm(v)
        for op in ("X", "V"):
            s = sf.inner(sf.apply_frame(op, field), v) \
                + sf.inner(field, sf.apply_frame(op, v))
            assert abs(s) <= 1e-8 * scale

    def test_eta_adjoint_pair(self, chart, field):
        h, g = field.get(1), field.get(2)
        lhs = chart.inner(sf.eta("+", 1, h, chart), g)
        rhs = -chart.inner(h, sf.eta("-", 2, g, chart))
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_X_splits_into_eta_parts(self, chart, field):
        Xu = sf.apply_frame("X", field)
        k = 0
        expect = sf.eta("+", k - 1, field.get(k - 1), chart) \
            + sf.eta("-", k + 1, field.get(k + 1), chart)
        assert np.allclose(Xu.get(k), expect)


class TestNorms:
    def test_mixed_norm_s0_is_l2(self, field):
        assert np.isclose(sf.mixed_norm(field, 0.0), sf.norm(field))

    def test_mixed_norm_monotone_in_s(self, field):
        assert sf.mixed_norm(field, 1.0) >= sf.mixed_norm(field, -1.0)

    def test_h1_dominates_l2(self, field):
        assert sf.h1_norm2(field) >= sf.norm2(field)


class TestPestov:
    def test_residual_structural_zero_on_torus(self, chart):
        rng = np.random.default_rng(3)
        for _ in range(5):
            u = sf.SMField.random_real(chart, n_modes=4, spatial_band=3,
                                       rng=rng)
            assert sf.pestov_residual(u) < 1e-12

    def test_residual_small_on_disk_patch(self, hyperbolic):
        ch = sf.Chart.disk_patch(hyperbolic, half_width=0.5, n=64)
        win = sf._patch_window(ch)
        rng = np.random.default_rng(4)
        u = sf.SMField.random_real(ch, n_modes=3, spatial_band=2, rng=rng)
        u = sf.SMField(ch, {k: v * win for k, v in u.modes.items()})
        assert sf.pestov_residual(u) < 1e-5


def _alpha_loop(ch, n_modes, spatial_band, window=None):
    """The alpha estimate with one inner product per basis pair, kept here as
    an oracle."""
    xs = np.arange(ch.nx) * (ch.Lx / ch.nx)
    ys = np.arange(ch.ny) * (ch.Ly / ch.ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    basis = []
    for k in range(-n_modes, n_modes + 1):
        for m in range(-spatial_band, spatial_band + 1):
            for n in range(-spatial_band, spatial_band + 1):
                h = np.exp(1j * (m * TWO_PI * X / ch.Lx + n * TWO_PI * Y / ch.Ly))
                basis.append((k, h if window is None else h * window))
    Xb = [sf.apply_frame("X", sf.SMField(ch, {k: h})) for k, h in basis]
    d = len(basis)
    A = np.zeros((d, d), dtype=complex)
    B = np.zeros((d, d), dtype=complex)
    for i, (ki, hi) in enumerate(basis):
        for j, (kj, hj) in enumerate(basis):
            B[i, j] = sf.inner(Xb[i], Xb[j])
            A[i, j] = B[i, j] - (ch.inner(ch.K * hi, hj) if ki == kj else 0.0)
    return sf._deflate_gep(A, B)


class TestAlphaEstimates:
    def test_gep_matches_pairwise_assembly(self, chart, octagon):
        a = sf._alpha_gep_on_chart(chart, 1, 1)
        assert abs(a - _alpha_loop(chart, 1, 1)) <= 1e-12 * abs(a)
        ch = sf.Chart.disk_patch(octagon, half_width=0.55, n=32)
        win = sf._patch_window(ch)
        a = sf._alpha_gep_on_chart(ch, 2, 1, window=win)
        assert abs(a - _alpha_loop(ch, 2, 1, window=win)) <= 1e-12 * abs(a)

    def test_flat_torus_alpha_is_one(self, flat_torus):
        a = sf.alpha_lower_bound(flat_torus, n_modes=2, spatial_band=2)
        assert abs(a - 1.0) <= 1e-9

    def test_torus_chart_covers_nx_and_ny(self, curved_torus):
        # the README torus (nx 64) at the default n_grid 48: the chart side
        # is max(n_grid, nx, ny), so the resample never downsamples
        ch = sf.Chart.from_torus(curved_torus, 64)
        assert sf.alpha_lower_bound(curved_torus) == \
            sf._alpha_gep_on_chart(ch, 3, 2)

    def test_constant_nonpositive_alpha(self):
        assert sf.alpha_lower_bound(ConstantCurvature(-1.0)) == 1.0
        assert sf.alpha_lower_bound(ConstantCurvature(0.0)) == 1.0

    def test_positive_constant_curvature_rejected(self, sphere):
        with pytest.raises(ValueError):
            sf.alpha_lower_bound(sphere)

    def test_octagon_alpha_at_least_one(self, octagon):
        a = sf.alpha_lower_bound(octagon, n_modes=2, spatial_band=1)
        assert a >= 1.0 - 1e-6

    def test_profile_alpha_constant_negative(self):
        from anosovlab.flow import CurvatureProfile
        prof = CurvatureProfile.constant(-1.0)
        a = sf.alpha_lower_bound_profile(prof, n_freq=24)
        assert a >= 1.0 - 1e-9


class TestQ1Bookkeeping:
    def test_identity_gap_machine_zero(self, field):
        for m in (0, 1, 2):
            gap = sf.q1_identity_gap(field, m)
            assert gap <= 1e-12 * sf.h1_norm2(field)

    def test_quantitative_inequality_holds(self, chart):
        rng = np.random.default_rng(9)
        u = sf.SMField.random_real(chart, n_modes=4, spatial_band=2, rng=rng)
        m = 2
        u = sf.SMField(chart, {k: v for k, v in u.modes.items()
                               if abs(k) >= m})
        rep = sf.verify_quantitative_inequality(u, m, alpha_hat=1.0)
        assert rep["ok"]

    def test_support_violation_raises(self, field):
        with pytest.raises(ValueError):
            sf.verify_quantitative_inequality(field, 2, alpha_hat=1.0)


class TestTransportSolve:
    def test_plant_and_recover_p_star(self, chart):
        rng = np.random.default_rng(11)
        h = sf.SMField.random_real(chart, n_modes=2, spatial_band=2, rng=rng)
        f = sf.apply_frame("X", sf.apply_frame("V", h))   # P* h = XV h
        sol, resid, stop = sf.solve_adjoint_transport(f, m=0, n_modes=4)
        assert resid <= 1e-8
        # lsqr stopped on its own tests, not at the iteration cap
        assert stop["istop"] in (1, 2) and 0 < stop["iterations"] < 400
        back = sf.apply_frame("X", sf.apply_frame("V", sol))
        assert sf.norm(_diff(back, f)) <= 1e-7 * sf.norm(f)

    def test_q_star_residual(self, chart):
        rng = np.random.default_rng(12)
        h = sf.SMField.random_real(chart, n_modes=3, spatial_band=2, rng=rng)
        m = 1
        hT = sf.SMField(chart, {k: v for k, v in h.modes.items()
                                if abs(k) >= m + 1})
        f = sf.apply_frame("X", sf.apply_frame("V", hT))  # Q* h = XVT h
        _, resid, _ = sf.solve_adjoint_transport(f, m=m, n_modes=5)
        assert resid <= 1e-8

    def test_constant_component_rejected(self, chart):
        f = sf.SMField(chart, {0: np.ones((chart.nx, chart.ny))})
        with pytest.raises(ValueError):
            sf.solve_adjoint_transport(f, m=0)


def _eta_loop_forward(op, h):
    """The ladder operator mode by mode: a per-mode eta loop over the mode
    dict h (whitened in and out), kept here as an oracle."""
    ch = op.ch
    vh = {k: (1j * k if op.V_power else 1.0) * (f / ch.sqrt_w)
          for k, f in h.items()}
    out = {}
    for k in op.out_ks:
        acc = np.zeros((ch.nx, ch.ny), dtype=complex)
        if k - 1 in vh:
            acc += sf.eta("+", k - 1, vh[k - 1], ch)
        if k + 1 in vh:
            acc += sf.eta("-", k + 1, vh[k + 1], ch)
        out[k] = acc * ch.sqrt_w
    return out


def _flat(fields, ks):
    """The operator's layout: the modes ks stacked in order, flattened."""
    return np.concatenate([fields[k].ravel() for k in ks])


def _modes(x, ks, shape):
    return dict(zip(ks, x.reshape((len(ks),) + shape)))


def _complex_normal(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def _real_space_precond(op, y):
    """The right preconditioner as applied in real space, ifft2(N fft2(y))
    on an in-mode stack y, with N applied by einsum: kept here as an
    oracle for the Fourier-space products."""
    ch = op.ch
    N = op._N.reshape(ch.nx, ch.ny, len(op.in_ks), len(op.in_ks))
    Y = np.fft.fft2(y.reshape(len(op.in_ks), ch.nx, ch.ny), axes=(-2, -1))
    return np.fft.ifft2(np.einsum("xyij,jxy->ixy", N, Y), axes=(-2, -1))


LADDER_CASES = {
    # invariant_extension's layout: even in-modes with a hole at k = 0
    "V0": dict(in_ks=[-4, -2, 2, 4], out_ks=[-3, -1, 1, 3], V_power=0),
    "V1": dict(in_ks=list(range(-3, 4)), out_ks=list(range(-4, 5)),
               V_power=1),
}


@pytest.mark.parametrize("case", sorted(LADDER_CASES))
class TestLadderOperator:
    def test_forward_matches_eta_loop(self, chart, case):
        op = sf._LadderOperator(chart, **LADDER_CASES[case])
        x = _complex_normal(np.random.default_rng(21), op.shape[1])
        expect = _flat(_eta_loop_forward(
            op, _modes(x, op.in_ks, (chart.nx, chart.ny))), op.out_ks)
        got = op.matvec(x)
        # the batched products keep the loop's arithmetic, operation by
        # operation, so the two agree exactly, not merely to rounding
        assert np.array_equal(got, expect)

    def test_rmatvec_is_the_adjoint(self, chart, case):
        op = sf._LadderOperator(chart, **LADDER_CASES[case])
        rng = np.random.default_rng(22)
        x = _complex_normal(rng, op.shape[1])
        y = _complex_normal(rng, op.shape[0])
        Ax, AHy = op.matvec(x), op.rmatvec(y)
        assert AHy.shape == (op.shape[1],)
        scale = np.linalg.norm(Ax) * np.linalg.norm(y)
        # Hermitian inner products: (A x, y) = (x, A^H y)
        assert abs(np.vdot(y, Ax) - np.vdot(AHy, x)) <= 1e-12 * scale

    def test_fourier_space_product_matches_real_space(self, chart, case):
        # lsqr's unknown is the unitary fft2 of the real-space one, so A N
        # at y_hat is the real-space product A ifft2(N fft2(y)) at
        # y = ifft2(y_hat, norm="ortho")
        op = sf._LadderOperator(chart, **LADDER_CASES[case])
        op._build_precond()
        y_hat = _complex_normal(np.random.default_rng(23), op.shape[1])
        y = np.fft.ifft2(y_hat.reshape(len(op.in_ks), chart.nx, chart.ny),
                         axes=(-2, -1), norm="ortho")
        expect = op.matvec(_real_space_precond(op, y).ravel())
        got = op.precond_matvec(y_hat)
        assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)

    def test_fourier_space_adjoint_matches_real_space(self, chart, case):
        # the adjoint returns the unitary fft2 of the real-space adjoint
        # ifft2(N fft2(A^H x))
        op = sf._LadderOperator(chart, **LADDER_CASES[case])
        op._build_precond()
        x = _complex_normal(np.random.default_rng(24), op.shape[0])
        real = _real_space_precond(op, op.rmatvec(x))
        expect = np.fft.fft2(real, axes=(-2, -1), norm="ortho").ravel()
        got = op.precond_rmatvec(x)
        assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)

    def test_fourier_space_products_are_adjoint(self, chart, case):
        op = sf._LadderOperator(chart, **LADDER_CASES[case])
        op._build_precond()
        rng = np.random.default_rng(25)
        y = _complex_normal(rng, op.shape[1])
        x = _complex_normal(rng, op.shape[0])
        ANy, NAHx = op.precond_matvec(y), op.precond_rmatvec(x)
        scale = np.linalg.norm(ANy) * np.linalg.norm(x)
        assert abs(np.vdot(x, ANy) - np.vdot(NAHx, y)) <= 1e-12 * scale


class TestInvariantExtension:
    def test_w0_prescribes_data_exactly(self, flat_torus):
        # constants are flow-invariant on any surface: exact extension
        ch = sf.Chart.from_torus(flat_torus)
        f = sf.SMField(ch, {0: 3.0 * np.ones((ch.nx, ch.ny))})
        w, diag = sf.invariant_extension(f, "w0", n_modes=8, reg=1e-12)
        assert np.array_equal(w.get(0), f.get(0))
        for k in w.modes:
            if k % 2 == 1:
                assert not np.any(w.get(k))
        assert diag["interior_max"] <= 1e-6 * max(diag["w_norm"], 1e-300)

    def test_w0_on_octagon_patch(self, octagon):
        rng = np.random.default_rng(14)
        f = sf.octagon_mode0_field(octagon, rng=rng, n=48)
        w, diag = sf.invariant_extension(f, "w0", n_modes=8, reg=1e-12,
                                         iter_lim=800)
        assert diag["interior_max"] <= 1e-6 * diag["w_norm"]
        assert np.array_equal(w.get(0), f.get(0))

    def test_unknown_variant_raises(self, chart):
        f = sf.SMField(chart, {0: np.zeros((chart.nx, chart.ny))})
        with pytest.raises(ValueError):
            sf.invariant_extension(f, "w7")

    def test_ladder_residual_matches_eta_loop(self, field):
        ch, N = field.chart, field.n_modes
        lad = sf.ladder_residual(field)
        assert sorted(lad) == list(range(-N + 1, N))
        for k, v in lad.items():
            r = sf.eta("+", k - 1, field.get(k - 1), ch) \
                + sf.eta("-", k + 1, field.get(k + 1), ch)
            assert v["residual"] == np.sqrt(ch.norm2(r))

    def test_ladder_residual_flags_truncation(self, chart):
        rng = np.random.default_rng(15)
        w = sf.SMField.random_real(chart, n_modes=5, spatial_band=1, rng=rng)
        lad = sf.ladder_residual(w)
        for k, v in lad.items():
            assert v["truncation_affected"] == (abs(k) >= 4)


def _one_block(free, out_ks):
    return [(list(range(len(free))), list(range(len(out_ks))))]


def _coupled_extension(monkeypatch, *args, **kwargs):
    """invariant_extension as one least-squares problem over every free and
    out mode, with the out modes that read no free mode as zero rows: the
    solve before the ladder was split, kept here as an oracle."""
    with monkeypatch.context() as m:
        m.setattr(sf, "_ladder_blocks", _one_block)
        return sf.invariant_extension(*args, **kwargs)


@pytest.fixture(scope="module")
def octagon_f(octagon):
    return sf.octagon_mode0_field(octagon, rng=np.random.default_rng(3),
                                  n=24)


@pytest.fixture(scope="module")
def torus_f(chart):
    return sf.SMField.random_real(chart, n_modes=0, spatial_band=2,
                                  rng=np.random.default_rng(4))


def _odd_data(chart):
    """Band-limited data for the w1 and wm variants (not invariant data: the
    out modes that read only prescribed modes keep a residual)."""
    return sf.SMField.random_real(chart, n_modes=2, spatial_band=2,
                                  rng=np.random.default_rng(5))


class TestLadderBlocks:
    @pytest.mark.parametrize("data", ["octagon_f", "torus_f"])
    def test_split_matches_coupled_solve(self, request, monkeypatch, data):
        f = request.getfixturevalue(data)
        n_modes = 4 if data == "octagon_f" else 6
        w, diag = sf.invariant_extension(f, "w0", n_modes=n_modes, reg=1e-12)
        wc, diag_c = _coupled_extension(monkeypatch, f, "w0",
                                        n_modes=n_modes, reg=1e-12)
        assert np.linalg.norm(w.data - wc.data) <= 1e-8 * np.linalg.norm(
            wc.data)
        assert np.array_equal(w.get(0), f.get(0))
        assert [b["out_modes"] for b in diag["solver_blocks"]] == [
            list(range(-n_modes + 1, 0, 2)), list(range(1, n_modes, 2))]
        assert len(diag_c["solver_blocks"]) == 1

    def test_two_sided_w1_splits_in_two(self, octagon_f):
        u = _odd_data(octagon_f.chart)
        _, diag = sf.invariant_extension((u, u), "w1", n_modes=5, reg=1e-12)
        # out mode 0 reads only the prescribed modes -1 and 1
        assert [b["out_modes"] for b in diag["solver_blocks"]] == [
            [-4, -2], [2, 4]]

    @pytest.mark.parametrize("variant", ["w1", "wm"])
    def test_one_sided_variants_form_one_block(self, monkeypatch, octagon_f,
                                               variant):
        u = _odd_data(octagon_f.chart)
        data, low = (u, 0) if variant == "w1" else ((u, 2), 1)
        _, diag = sf.invariant_extension(data, variant, n_modes=5, reg=1e-12)
        _, diag_c = _coupled_extension(monkeypatch, data, variant, n_modes=5,
                                       reg=1e-12)
        (block,) = diag["solver_blocks"]
        assert low not in block["out_modes"]
        assert low in diag_c["solver_blocks"][0]["out_modes"]
        # the out mode that reads no free mode still counts in the residual
        assert diag["solver_residual"] > 0.1
        assert abs(diag["solver_residual"] - diag_c["solver_residual"]) \
            <= 1e-12

    def test_stop_reports_the_worst_block(self, monkeypatch, octagon_f):
        solve = sf._LadderOperator.solve

        def capped(op, rhs, reg, iter_lim):
            # the k < 0 half alone stops at a cap of 5 iterations
            return solve(op, rhs, reg=reg,
                         iter_lim=5 if op.out_ks[0] < 0 else iter_lim)
        monkeypatch.setattr(sf._LadderOperator, "solve", capped)
        _, diag = sf.invariant_extension(octagon_f, "w0", n_modes=4,
                                         reg=1e-12)
        neg, pos = diag["solver_blocks"]
        assert (neg["istop"], neg["iterations"]) == (7, 5)
        assert pos["istop"] == 2 and pos["iterations"] > 5
        assert diag["solver_istop"] == 7
        assert diag["solver_iterations"] == pos["iterations"]

    def test_one_worker_matches_threads(self, monkeypatch, octagon_f):
        runs = []
        for workers in (lambda n: n, lambda n: 1):
            monkeypatch.setattr(sf, "_n_workers", workers)
            runs.append(sf.invariant_extension(octagon_f, "w0", n_modes=4,
                                               reg=1e-12))
        (w, diag), (w1, diag1) = runs
        assert np.array_equal(w.data, w1.data)
        assert diag["solver_blocks"] == diag1["solver_blocks"]
        assert diag["solver_residual"] == diag1["solver_residual"]

    def test_components_of_the_ladder_graph(self):
        # out mode 1 joins 0 and 2, out mode 5 joins 4 and 6; 2 and 4 share
        # no out mode, and out mode 9 reads no free mode
        assert sf._ladder_blocks([0, 2, 4, 6, 11], [1, 5, 9, 10]) == [
            ([0, 1], [0]), ([2, 3], [1]), ([4], [3])]
        assert sf._ladder_blocks([], [1]) == []


class TestFourierProduct:
    def test_single_mode_product(self, chart):
        xs = np.arange(chart.nx) * (chart.Lx / chart.nx)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        a = np.exp(1j * X)
        b = np.exp(1j * Y)
        u = sf.SMField(chart, {1: a})
        v = sf.SMField(chart, {2: b})
        w, rep = sf.fourier_product(u, v)
        assert set(k for k in w.modes if np.any(w.get(k))) == {3}
        fine = w.chart
        xf = np.arange(fine.nx) * (fine.Lx / fine.nx)
        XF, YF = np.meshgrid(xf, xf, indexing="ij")
        assert np.allclose(w.get(3), np.exp(1j * (XF + YF)), atol=1e-10)

    def test_constant_times_field_keeps_modes(self, chart):
        rng = np.random.default_rng(16)
        h = rng.normal(size=(chart.nx, chart.ny))
        u = sf.SMField(chart, {0: np.ones_like(h)})
        v = sf.SMField(chart, {0: h, 1: h})
        w, rep = sf.fourier_product(u, v)
        assert np.allclose(np.real(w.get(0)[::2, ::2]), h, atol=1e-10)

    def test_negative_modes_rejected(self, chart):
        u = sf.SMField(chart, {-1: np.ones((chart.nx, chart.ny))})
        with pytest.raises(ValueError):
            sf.fourier_product(u, u)

    def test_l1_ratios_bounded_for_invariant_inputs(self, flat_torus):
        # constants are transport-invariant and holomorphic: the product is
        # again constant and every per-mode ratio is controlled
        ch = sf.Chart.from_torus(flat_torus)
        one = np.ones((ch.nx, ch.ny))
        u = sf.SMField(ch, {0: one})
        w, rep = sf.fourier_product(u, u)
        assert rep["max_l1_ratio"] <= 1.0 + 1e-12
        assert rep["interior_X_residual"] <= 1e-10
