import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anosovlab.geometry import (ConformalTorus, ConstantCurvature,
                                FuchsianOctagon, mobius, mobius_deriv,
                                disk_distance0, resample, surface_from_json)

TWO_PI = 2.0 * np.pi
EPS = np.finfo(float).eps


def _reduce_oracle(model, z, theta, max_steps=200):
    """The per-point reduction loop that reduce_batch replaced: reference
    for its results."""
    z0 = z
    if abs(z) >= 1.0 - 1e-12:
        raise ValueError("point too close to the boundary circle")
    applied = np.eye(2, dtype=complex)
    for _ in range(max_steps):
        d0 = disk_distance0(z)
        moved = [disk_distance0(mobius(g, z)) for g in model.disk_generators]
        k = int(np.argmin(moved))
        if moved[k] >= d0 - 1e-14:
            theta = np.mod(theta + np.angle(mobius_deriv(applied, z0)),
                           TWO_PI)
            return z, theta, applied
        g = model.disk_generators[k]
        z = mobius(g, z)
        applied = g @ applied
    raise RuntimeError("fundamental-domain reduction did not terminate")


# ----------------------------------------------------------------------------
# what every model answers


class TestModelAnswers:
    def test_constant_curvature_and_chart_radius(self, octagon, flat_torus):
        assert (octagon.K0, octagon.chart_radius) == (-1.0, 1.0)
        for K, radius in ((-4.0, 0.5), (-1.0, 1.0), (0.0, np.inf),
                          (1.0, np.inf)):
            model = ConstantCurvature(K)
            assert (model.K0, model.chart_radius) == (K, radius)
        assert flat_torus.K0 is None

    def test_constant_curvature_vectorised(self, octagon):
        for model in (octagon, ConstantCurvature(-2.5)):
            K = model.curvature(np.zeros((3, 4)), 0.2)
            assert K.shape == (3, 4) and np.all(K == model.K0)
            assert model.curvature_at((0.1, 0.2)) == model.K0

    @pytest.mark.parametrize("grid", [[[]], [[[0.0]]], [], 0.0])
    def test_torus_grid_is_2d_and_not_empty(self, grid):
        with pytest.raises(ValueError, match="2-D"):
            ConformalTorus(grid, TWO_PI, TWO_PI)


# ----------------------------------------------------------------------------
# conformal torus


class TestConformalTorus:
    def test_flat_curvature_is_zero(self, flat_torus):
        xs = np.linspace(0, TWO_PI, 7)
        for x in xs:
            assert abs(flat_torus.curvature_at((x, 1.0))) < 1e-12

    def test_curvature_matches_hand_derivative(self):
        # lam = a cos x sin y  =>  K = -e^{-2 lam} * Delta lam = 2a e^{-2lam} cos x sin y
        a = 0.1
        t = ConformalTorus.from_expression("0.1*cos(x)*sin(y)",
                                           TWO_PI, TWO_PI, 64, 64)
        for x, y in [(0.3, 1.2), (2.0, 4.0), (5.5, 0.1)]:
            lam = a * np.cos(x) * np.sin(y)
            expect = 2 * a * np.exp(-2 * lam) * np.cos(x) * np.sin(y)
            assert abs(t.curvature_at((x, y)) - expect) < 1e-7

    def test_total_curvature_vanishes(self, curved_torus):
        # Gauss-Bonnet on a genus-1 surface
        assert abs(curved_torus.total_curvature()) < 1e-10

    def test_area_positive_and_consistent(self, curved_torus):
        area = curved_torus.area()
        assert area > 0
        # flat comparison: area = integral of e^{2 lam}
        lam = curved_torus.lam_grid
        cell = (TWO_PI / 64) ** 2
        assert np.isclose(area, float(np.sum(np.exp(2 * lam)) * cell))

    def test_resample_preserves_values(self, curved_torus):
        fine = curved_torus.resample(128)
        assert fine.shape == (128, 128)
        assert np.allclose(fine[::2, ::2], curved_torus.lam_grid, atol=1e-12)

    def test_resample_stack_matches_per_grid(self):
        rng = np.random.default_rng(2)
        stack = rng.normal(size=(3, 12, 20)) + 1j * rng.normal(size=(3, 12, 20))
        for shape in [(24, 40), (17, 25), (12, 20)]:
            got = resample(stack, shape)
            assert got.shape == (3,) + shape
            for g, f in zip(got, stack):
                assert np.array_equal(g, resample(f, shape))
        real = resample(stack.real, (24, 40))
        assert np.isrealobj(real)
        assert np.allclose(real[:, ::2, ::2], stack.real, atol=1e-12)
        with pytest.raises(ValueError, match="only upsamples"):
            resample(stack, (24, 16))

    def test_resample_interpolates_trig_polynomials(self):
        def f(x, y):
            return np.exp(1j * (2 * x - 3 * y)) + np.cos(x + y)
        grids = [np.arange(n) * (TWO_PI / n) for n in (12, 20, 17, 25)]
        coarse = f(*np.meshgrid(grids[0], grids[1], indexing="ij"))
        fine = f(*np.meshgrid(grids[2], grids[3], indexing="ij"))
        assert np.allclose(resample(coarse, (17, 25)), fine, atol=1e-12)

    def test_wrap(self, flat_torus):
        x, y = flat_torus.wrap(TWO_PI + 0.5, -0.25)
        assert np.isclose(x, 0.5) and np.isclose(y, TWO_PI - 0.25)


def _fitpack_spline(torus, grid):
    """FITPACK's not-a-knot bicubic spline of a torus grid padded by 4 cells
    with wrap-around: the interpolant PeriodicBicubic reproduces."""
    from scipy.interpolate import RectBivariateSpline

    pad = 4
    g = np.pad(grid, pad, mode="wrap")
    xs = np.arange(-pad, torus.nx + pad) * (torus.Lx / torus.nx)
    ys = np.arange(-pad, torus.ny + pad) * (torus.Ly / torus.ny)
    return RectBivariateSpline(xs, ys, g, kx=3, ky=3)


def _grid_torus(n=16, Lx=TWO_PI, Ly=TWO_PI):
    """A grid-built torus: lam = 0.1 cos x sin y sampled on an n x n grid."""
    X, Y = np.meshgrid(np.arange(n) * (Lx / n), np.arange(n) * (Ly / n),
                       indexing="ij")
    return ConformalTorus(0.1 * np.cos(X) * np.sin(Y), Lx, Ly)


def _interpolant_points(torus, n_random=100_000):
    """Random points over three periods, the nodes (the last row and
    column exactly on Lx and Ly), and points that wrap to exactly Lx or Ly
    or to just below 0."""
    rng = np.random.default_rng(7)
    x = rng.uniform(-torus.Lx, 2 * torus.Lx, n_random)
    y = rng.uniform(-torus.Ly, 2 * torus.Ly, n_random)
    nx, ny = np.meshgrid(np.arange(torus.nx + 1) * (torus.Lx / torus.nx),
                         np.arange(torus.ny + 1) * (torus.Ly / torus.ny),
                         indexing="ij")
    ex = np.array([torus.Lx, -1e-20, -1e-300, -0.0, 0.5, 0.5, -1e-20])
    ey = np.array([0.5, 0.5, 1.0, -1e-20, torus.Ly, -1e-300, -1e-20])
    x, y = (np.concatenate(a) for a in ((x, nx.ravel(), ex),
                                        (y, ny.ravel(), ey)))
    # np.mod sends a tiny negative to exactly L: the last tabled cell
    assert np.mod(-1e-20, torus.Lx) == torus.Lx
    return x, y


class TestPeriodicBicubic:
    """The torus interpolant against the FITPACK spline it replaced."""

    def test_readme_torus_curvature(self, curved_torus):
        x, y = _interpolant_points(curved_torus)
        ref = _fitpack_spline(curved_torus, curved_torus.K_grid)(
            *curved_torus.wrap(x, y), grid=False)
        err = np.max(np.abs(curved_torus.curvature(x, y) - ref))
        assert err <= 1e-14 * np.max(np.abs(curved_torus.K_grid))

    @pytest.mark.parametrize("shape", [(16, TWO_PI, TWO_PI), (12, 3.0, 5.0)])
    def test_grid_torus_all_four_grids(self, shape):
        torus = _grid_torus(*shape)
        x, y = _interpolant_points(torus)
        got = torus.lam_and_grad(x, y) + (torus.curvature(x, y),)
        grids = (torus.lam_grid, torus.lam_x_grid, torus.lam_y_grid,
                 torus.K_grid)
        for g, v in zip(grids, got):
            ref = _fitpack_spline(torus, g)(*torus.wrap(x, y), grid=False)
            assert v.shape == x.shape
            assert np.max(np.abs(v - ref)) <= 1e-14 * np.max(np.abs(g))

    def test_nodes_reproduce_the_grid(self):
        torus = _grid_torus()
        X, Y = np.meshgrid(np.arange(16) * (TWO_PI / 16),
                           np.arange(16) * (TWO_PI / 16), indexing="ij")
        for v, g in zip(torus.lam_and_grad(X, Y),
                        (torus.lam_grid, torus.lam_x_grid, torus.lam_y_grid)):
            assert v.shape == (16, 16)
            assert np.max(np.abs(v - g)) <= 1e-14 * np.max(np.abs(g))

    def test_non_finite_positions_give_nan(self):
        torus = _grid_torus()
        x = np.array([np.nan, np.inf, -np.inf, 1.0, 1.0, 1.0, 2.0])
        y = np.array([1.0, 1.0, 1.0, np.nan, np.inf, -np.inf, 2.0])
        with np.errstate(invalid="ignore"):      # np.mod of an infinity
            got = torus.lam_and_grad(x, y) + (torus.curvature(x, y),)
            ref = _fitpack_spline(torus, torus.K_grid)(
                *torus.wrap(x, y), grid=False)
            scalar = torus.curvature_at((np.nan, 1.0))
        assert np.isnan(ref[:6]).all()
        for v in got:
            assert np.isnan(v[:6]).all() and np.isfinite(v[6])
        assert np.isnan(scalar)

    def test_scalar_equals_batch_bit_for_bit(self, curved_torus):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1.0, 7.0, 2000)
        y = rng.uniform(-1.0, 7.0, 2000)
        batch = curved_torus.curvature(x, y)
        assert np.array_equal(
            batch, [curved_torus.curvature_at((a, b)) for a, b in zip(x, y)])
        torus = _grid_torus()
        batch = np.array(torus.lam_and_grad(x, y))
        single = [torus.lam_and_grad(a, b) for a, b in zip(x, y)]
        assert np.array_equal(batch.T, np.array(single, dtype=float))

    def test_tables_are_built_on_first_use(self):
        # building the surface builds no table; an expression torus reads
        # lam from its expression, so it only ever builds the K table
        torus = ConformalTorus.from_expression("0.1*cos(x)*sin(y)",
                                               TWO_PI, TWO_PI, 16, 16)
        assert torus._interpolants == {}
        torus.lam_and_grad(np.array([0.5]), np.array([0.5]))
        torus.curvature_at((0.5, 0.5))
        assert set(torus._interpolants) == {"K"}
        grid = _grid_torus()
        assert grid._interpolants == {}
        grid.lam_and_grad(0.5, 0.5)
        assert set(grid._interpolants) == {"lam"}


# ----------------------------------------------------------------------------
# disk model helpers


class TestDiskModel:
    def test_distance_origin_formula(self):
        r = 0.5
        assert np.isclose(disk_distance0(r), 2.0 * np.arctanh(r))

    def test_mobius_derivative_chain_rule(self, octagon):
        g = octagon.disk_generators[2]
        z = 0.1 + 0.2j
        eps = 1e-7
        fd = (mobius(g, z + eps) - mobius(g, z - eps)) / (2 * eps)
        assert abs(fd - mobius_deriv(g, z)) < 1e-6


# ----------------------------------------------------------------------------
# octagon


class TestOctagon:
    def test_generators_unimodular(self, octagon):
        for M in octagon.disk_generators:
            assert abs(np.linalg.det(M) - 1.0) < 1e-12

    def test_side_pairing_relation(self, octagon):
        P = octagon.relation_product()
        assert min(np.linalg.norm(P - np.eye(2)),
                   np.linalg.norm(P + np.eye(2))) < 1e-9

    def test_inverse_pairing(self, octagon):
        for k in range(4):
            P = octagon.disk_generators[k] @ octagon.disk_generators[k + 4]
            assert np.linalg.norm(P - np.eye(2)) < 1e-12

    def test_constant_negative_curvature(self, octagon):
        for p in [(0.0, 0.0), (0.3, -0.2), (0.5, 0.5)]:
            assert abs(octagon.curvature_at(p) + 1.0) < 1e-12

    def test_vertex_angles_sum_to_two_pi(self, octagon):
        angles = octagon.vertex_angles()
        assert np.allclose(angles, np.pi / 4, atol=1e-10)
        assert abs(np.sum(angles) - TWO_PI) < 1e-9

    def test_fundamental_domain_area(self, octagon):
        # genus 2: area = 4 pi
        assert abs(octagon.fundamental_domain_area() - 4 * np.pi) < 1e-6

    def test_reduce_deep_point(self, octagon, rng):
        for _ in range(10):
            word = rng.integers(0, 8, size=5)
            z = 0.1 + 0.05j
            for k in word:
                z = mobius(octagon.disk_generators[k], z)
            zr, g = octagon.reduce(z)
            assert octagon.contains(zr, margin=1e-9)
            assert abs(mobius(g, z) - zr) < 1e-9

    def test_reduce_dispatch_helper(self, octagon):
        zr, g = octagon.reduce(0.2 + 0.1j)
        assert zr == 0.2 + 0.1j  # already inside

    @given(st.lists(st.tuples(
               st.lists(st.integers(0, 7), max_size=6),
               st.floats(0.0, 0.6), st.floats(0.0, TWO_PI),
               st.floats(0.0, TWO_PI)), min_size=1, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_reduce_batch_matches_oracle(self, octagon, cases):
        # words of length <= 6 applied to interior points, reduced in one
        # batch; the reduction is ill-conditioned near the boundary circle
        # (a rounding of z moves the result by ~eps / (1 - |z|)), so two
        # loops that round differently agree to 1e-9 plus that term
        zs, thetas = [], []
        for word, r, phi, theta in cases:
            z = r * np.exp(1j * phi)
            for k in word:
                z = mobius(octagon.disk_generators[k], z)
            zs.append(z)
            thetas.append(theta)
        zs, thetas = np.array(zs), np.array(thetas)
        zr, thr, applied = octagon.reduce_batch(zs, thetas)
        assert zr.shape == thr.shape == zs.shape
        assert applied.shape == zs.shape + (2, 2)
        tol = 1e-9 + 16 * EPS / (1.0 - np.abs(zs))
        for i, (z, th) in enumerate(zip(zs, thetas)):
            oz, oth, _ = _reduce_oracle(octagon, z, th)
            assert octagon.contains(zr[i], margin=1e-9)
            assert abs(mobius(applied[i], z) - zr[i]) <= tol[i]
            assert abs(zr[i] - oz) <= tol[i]
            assert abs(np.angle(np.exp(1j * (thr[i] - oth)))) <= tol[i]
            assert 0.0 <= thr[i] < TWO_PI

    def test_reduce_batch_angle_stays_below_two_pi(self, octagon):
        # the orbit of 0 under the word (3, 7, 4) reduces with a tiny negative
        # angle, which np.mod rounds up to exactly 2 pi
        z = 0j
        for k in (3, 7, 4):
            z = mobius(octagon.disk_generators[k], z)
        _, thr, _ = octagon.reduce_batch(np.array([z]), np.array([0.0]))
        assert 0.0 <= thr[0] < TWO_PI

    def test_reduce_batch_rejects_boundary_point(self, octagon):
        zs = np.array([0.1 + 0.2j, 0.5, 1.0 - 1e-13, -0.3j])
        with pytest.raises(ValueError):
            octagon.reduce_batch(zs, np.zeros(4))

    def test_reduce_batch_step_cap(self, octagon):
        z = 0.3
        for k in (0, 1, 2, 3):
            z = mobius(octagon.disk_generators[k], z)
        with pytest.raises(RuntimeError):
            octagon.reduce_batch(np.array([0.1, z]), np.zeros(2), max_steps=2)
        zr, _, _ = octagon.reduce_batch(np.array([0.1, z]), np.zeros(2))
        assert abs(zr[1] - 0.3) < 1e-9

    def test_translation_length_closed_form(self, octagon):
        assert np.isclose(octagon.translation_length,
                          2.0 * np.arccosh(1.0 + np.sqrt(2.0)))

    def test_single_generator_geodesic_length(self, octagon):
        geo = octagon.closed_geodesic_from_word([0])
        assert geo is not None
        assert abs(geo.period - octagon.translation_length) < 1e-10

    def test_cyclic_words_same_length(self, octagon):
        w = (0, 1, 2)
        periods = []
        for s in range(3):
            word = w[s:] + w[:s]
            periods.append(octagon.closed_geodesic_from_word(word).period)
        assert max(periods) - min(periods) < 1e-10

    def test_elliptic_word_has_no_geodesic(self, octagon):
        # the full relation word is the identity: no closed geodesic
        assert octagon.closed_geodesic_from_word(octagon.RELATION) is None

    def test_word_geodesic_samples_inside_domain(self, octagon):
        geo = octagon.closed_geodesic_from_word([0, 2], n_samples=64)
        for x, y, _ in geo.samples:
            assert octagon.contains(x + 1j * y, margin=1e-9)


# ----------------------------------------------------------------------------
# constant curvature + JSON dispatch


class TestSurfaceJson:
    def test_round_trip_types(self):
        assert isinstance(surface_from_json({"type": "octagon"}),
                          FuchsianOctagon)
        assert isinstance(surface_from_json({"type": "constant", "K": 1.0}),
                          ConstantCurvature)
        t = surface_from_json({"type": "conformal_torus", "nx": 16, "ny": 16,
                               "lambda": "0.05*cos(x)"})
        assert isinstance(t, ConformalTorus)

    @pytest.mark.parametrize("expr, L", [
        ("0", TWO_PI), ("0*x", TWO_PI), ("0.05*cos(x)", TWO_PI),
        ("0.1*cos(x)*sin(y)", TWO_PI), ("0.3*sin(2*pi*x)*cos(4*pi*y)", 1.0),
        ("2*cos(x)**2 - sin(3*y)", TWO_PI)])
    def test_periodic_expressions_build(self, expr, L):
        t = ConformalTorus.from_expression(expr, L, L, 16, 16)
        assert t.lam_grid.shape == (16, 16)

    @pytest.mark.parametrize("expr", [
        "x**2", "y", "x*(x - 2*pi)", "cos(x/2)", "1/x", "sqrt(y - 1)"])
    def test_nonperiodic_expressions_rejected(self, expr):
        with pytest.raises(ValueError, match="not periodic"):
            ConformalTorus.from_expression(expr, TWO_PI, TWO_PI, 16, 16)

    def test_grid_lambda(self):
        grid = np.zeros((8, 8))
        t = surface_from_json({"type": "conformal_torus", "Lx": 1.0,
                               "Ly": 1.0, "lambda": grid.tolist()})
        assert t.lam_grid.shape == (8, 8)

    def test_integral_float_sides_build(self):
        # the one integer rule of every config key: 8.0 counts as 8
        t = surface_from_json({"type": "conformal_torus", "nx": 8.0,
                               "ny": 16.0, "lambda": "0.05*cos(x)"})
        assert (t.nx, t.ny) == (8, 16)
        assert type(t.nx) is int

    def test_unknown_type_raises(self):
        with pytest.raises(ValueError):
            surface_from_json({"type": "nope"})


# every function of the language, unary signs, ^, /, negative and fractional
# exponents, pi, a constant and x**0
ORACLE_LAMBDAS = [
    "sin(x)*cos(y)", "tan(0.5*x) - tanh(y)", "exp(-x) + log(2 + sin(y))",
    "sqrt(3 + cos(x*y))", "sinh(x/3) * (cosh(y) ^ 2)",
    "+x**-2 - y**0.5 + x**-1.5", "-(x - y)**3 / (1 + x**2)",
    "pi*x - 2*pi", "2*pi - 1", "x**0 + y", "0.1*cos(x)*sin(y)"]
# the compiled derivatives reorder SymPy's operations: a few ulps apart
ORACLE_RTOL = 1e-13


class TestLambdaLanguage:
    """``lamexpr.compile_lambda`` against SymPy's ``lambdify`` of the same
    string, the reader it replaced."""

    @staticmethod
    def _sympy(expr):
        import sympy as sp

        x, y = sp.symbols("x y", real=True)
        lam = sp.sympify(expr.replace("^", "**"),
                         locals={"x": x, "y": y, "pi": sp.pi})
        return sp.lambdify((x, y), [lam, sp.diff(lam, x), sp.diff(lam, y)],
                           "numpy")

    @pytest.mark.parametrize("expr", ORACLE_LAMBDAS)
    def test_matches_sympy(self, expr):
        from anosovlab.lamexpr import compile_lambda

        fn, ref = compile_lambda(expr), self._sympy(expr)
        rng = np.random.default_rng(5)
        points = [(float(a), float(b)) for a, b in rng.uniform(0.5, 3, (20, 2))]
        points.append(tuple(rng.uniform(0.5, 3, (2, 4))))
        for x, y in points:
            got = fn(x, y)
            for g, r in zip(got, ref(x, y)):
                assert np.shape(g) == np.shape(x)
                np.testing.assert_allclose(g, r, rtol=ORACLE_RTOL,
                                           atol=ORACLE_RTOL)

    def test_x_to_the_zero_builds(self):
        # its derivative is 0, not 0 * x**-1, which is NaN at the node x = 0
        torus = ConformalTorus.from_expression("x**0", TWO_PI, TWO_PI, 8, 8)
        assert np.all(torus.lam_grid == 1.0)
        got = torus.lam_and_grad(np.zeros(4), np.zeros(4))
        assert [v.tolist() for v in got] == [[1.0] * 4, [0.0] * 4, [0.0] * 4]

    def test_forms_sympy_simplified_are_read_as_written(self):
        # SymPy read x/x as 1; as written it is 0/0 at the node x = 0
        with pytest.raises(ValueError, match="not periodic"):
            ConformalTorus.from_expression("x/x", TWO_PI, TWO_PI, 16, 16)


class TestReadNumber:
    """The one reader of config numbers: a key's default, kind and bounds
    are given where it is read."""

    def read(self, val, *args):
        from anosovlab.geometry import read_number
        return read_number({"k": val}, "k", None, *args)

    def test_int_kind(self):
        assert self.read(3, 1, 5, int) == 3
        assert self.read(1, 1, 5, int) == 1 and self.read(5, 1, 5, int) == 5
        got = self.read(4.0, 1, 5, int)
        assert got == 4 and type(got) is int

    def test_float_kind(self):
        got = self.read(2, 0.0)
        assert got == 2.0 and type(got) is float
        assert self.read(1.0, 0.0, 1.0) == 1.0      # at most hi
        assert self.read(-3.5, -np.inf) == -3.5

    def test_default_fills_an_absent_key(self):
        from anosovlab.geometry import read_number
        assert read_number({}, "k", 7, 1, 9, int) == 7
        assert read_number({}, "k", 0.5, 0.0) == 0.5

    @pytest.mark.parametrize("val, args", [
        (0, (1, 5, int)), (6, (1, 5, int)), (2.5, (1, 5, int)),
        (10 ** 400, (1, sys.maxsize, int)), (np.inf, (1, 5, int)),
        (0.0, (0.0,)), (-1e-300, (0.0,)), (1.5, (0.0, 1.0)),
        (np.inf, (0.0,)), (np.nan, (-np.inf,)), (10 ** 400, (0.0,)),
        *((bad, args) for bad in (True, False, "1", None, [1])
          for args in ((0, 5, int), (-np.inf,)))])
    def test_refused(self, val, args):
        from anosovlab.geometry import ConfigError
        with pytest.raises(ConfigError, match="'k' must be"):
            self.read(val, *args)

    def test_message_names_the_bounds(self):
        from anosovlab.geometry import ConfigError
        with pytest.raises(ConfigError, match=r"'k' must be an integer in "
                           r"\[1, 5\]"):
            self.read(9, 1, 5, int)
        with pytest.raises(ConfigError, match="'k' must be a finite number "
                           "above 0.0 and at most 1.0"):
            self.read(2.0, 0.0, 1.0)

    def test_cli_config_error_is_the_same_class(self):
        from anosovlab import cli, geometry
        assert cli.ConfigError is geometry.ConfigError
        assert issubclass(cli.ConfigError, ValueError)
