"""Surface models and their basic geometry.

Three kinds of closed oriented surfaces are supported:

* ``ConformalTorus`` -- metric ds^2 = e^{2 lam}(dx^2 + dy^2) on a periodic box,
  with the log-conformal factor lam stored on a uniform grid (derivatives taken
  spectrally) and optionally backed by an analytic expression.
* ``ConstantCurvature`` -- a local conformal chart lam = log(2/(1 + K0 r^2))
  realizing constant curvature K0 (sphere for K0 > 0, flat for K0 = 0,
  hyperbolic for K0 < 0).
* ``FuchsianOctagon`` -- the genus-2 surface obtained from the regular
  hyperbolic octagon with all vertex angles pi/4, as a Fuchsian group of
  side-pairing translations acting on the Poincare disk.
"""

import sys

import numpy as np
from dataclasses import dataclass, field

TWO_PI = 2.0 * np.pi

# ----------------------------------------------------------------------------
# basic types


@dataclass
class UnitTangent:
    """A point of the unit sphere bundle: position (x, y) and fiber angle theta,
    the angle between the unit vector and d/dx."""

    x: float
    y: float
    theta: float

    def as_array(self):
        return np.array([self.x, self.y, self.theta], dtype=float)


@dataclass
class ClosedGeodesic:
    """A sampled closed geodesic: samples[i] = (x, y, theta) at t = i*dt,
    covering one period T (the last sample is at T - dt)."""

    model: object
    period: float
    samples: np.ndarray          # (n, 3)
    dt: float
    source: str                  # "torus-shooting" | "octagon-word" | "constant"
    word: tuple = None           # generator index sequence (octagon only)
    axis: tuple = None           # (z0, theta0) axis data (octagon only)

    @property
    def start(self):
        x, y, th = self.samples[0]
        return UnitTangent(x, y, th)


# ----------------------------------------------------------------------------
# Moebius helpers on the Poincare disk


def mobius(M, z):
    """Apply the Moebius map of a complex 2x2 matrix to z (vectorized)."""
    return (M[0, 0] * z + M[0, 1]) / (M[1, 0] * z + M[1, 1])


def mobius_deriv(M, z):
    """Complex derivative of the Moebius map (det M = 1 assumed)."""
    return 1.0 / (M[1, 0] * z + M[1, 1]) ** 2


def disk_distance0(z):
    """Hyperbolic distance from the origin."""
    return 2.0 * np.arctanh(np.abs(z))


# ----------------------------------------------------------------------------
# conformal torus


def grid_nodes(start, n, L):
    """The n node coordinates start + i L/n of a periodic grid of side L."""
    return start + np.arange(n) * (L / n)


def wavenumbers(shape, Lx, Ly):
    """The angular wavenumbers 2 pi fftfreq of a periodic grid of the given
    shape on a Lx x Ly box: a column for x and a row for y."""
    kx, ky = (TWO_PI * np.fft.fftfreq(n, d=L / n)
              for n, L in zip(shape, (Lx, Ly)))
    return kx[:, None], ky[None, :]


def spectral_calculus(lam, Lx, Ly):
    """(lam_x, lam_y, K) of a periodic lam grid on a Lx x Ly box, spectrally:
    the gradient and the Gaussian curvature K = -e^{-2 lam} (lam_xx +
    lam_yy) of the metric e^{2 lam}(dx^2 + dy^2)."""
    kx, ky = wavenumbers(lam.shape, Lx, Ly)
    F = np.fft.fft2(lam)
    lam_x = np.real(np.fft.ifft2(1j * kx * F))
    lam_y = np.real(np.fft.ifft2(1j * ky * F))
    lap = np.real(np.fft.ifft2(-(kx ** 2 + ky ** 2) * F))
    return lam_x, lam_y, -np.exp(-2.0 * lam) * lap


def resample(f, shape):
    """Trigonometric interpolation of f, periodic in its last two axes, onto
    a grid of the given shape by zero-padding its spectrum.  Leading axes
    are a stack; a real f gives a real result.  Only upsamples."""
    nx, ny = f.shape[-2:]
    n1, n2 = shape
    if n1 < nx or n2 < ny:
        raise ValueError("resample only upsamples")
    ix, iy = (np.fft.fftfreq(n, 1.0 / n).astype(int) for n in (nx, ny))
    out = np.zeros(f.shape[:-2] + (n1, n2), dtype=complex)
    out[..., ix[:, None], iy] = np.fft.fft2(f)
    g = np.fft.ifft2(out)
    return (g.real if np.isrealobj(f) else g) * (n1 * n2) / (nx * ny)


# An expression-backed lam must be periodic on its box: lam, lam_x and lam_y
# on opposite edges may differ by at most PERIODIC_TOL * max(1, max |value|
# on the edges).  Rounding of the edge coordinate (e.g. 2 pi) moves them by
# about 1e-15 relative.
PERIODIC_TOL = 1e-8


class ConformalTorus:
    """Torus [0,Lx) x [0,Ly) with metric e^{2 lam}(dx^2+dy^2).

    lam is stored on an nx x ny grid (indexing: lam[i, j] = lam(x_i, y_j));
    derivatives are spectral.  If analytic callables for lam and its gradient
    are supplied (expression-backed models) they are used for off-grid
    evaluation, otherwise the ``bicubic.PeriodicBicubic`` interpolant of
    the spectral grids of lam, lam_x and lam_y is used.  Off-grid K is
    always the ``PeriodicBicubic`` interpolant of the spectral K grid.  Each
    interpolant is built on its first use.
    """

    K0 = None       # its curvature varies

    def __init__(self, lam_grid, Lx, Ly, lam_fn=None):
        lam_grid = np.asarray(lam_grid, dtype=float)
        if lam_grid.ndim != 2 or min(lam_grid.shape) < 1:
            raise ValueError("the lambda grid must be 2-D with both sides "
                             f"at least 1, not of shape {lam_grid.shape}")
        if not np.all(np.isfinite(lam_grid)):
            raise ValueError("lambda grid contains non-finite values")
        self.lam_grid = lam_grid
        self.nx, self.ny = lam_grid.shape
        self.Lx, self.Ly = float(Lx), float(Ly)
        self._lam_fn = lam_fn  # (x, y) -> (lam, lam_x, lam_y), or None

        with np.errstate(all="ignore"):     # a tiny box overflows them
            calculus = spectral_calculus(lam_grid, self.Lx, self.Ly)
        if not np.all(np.isfinite(calculus)):
            raise ValueError("lambda_x, lambda_y or K is not finite on the "
                             f"{self.Lx:.3g} x {self.Ly:.3g} box")
        self.lam_x_grid, self.lam_y_grid, self.K_grid = calculus
        self._interpolants = {}

    @classmethod
    def from_expression(cls, expr, Lx, Ly, nx, ny):
        """Build from an expression in x, y, read with its gradient by
        ``lamexpr.compile_lambda``.  Raises ValueError when it is outside that
        language, or when lam or its gradient is not periodic on the box."""
        from .lamexpr import compile_lambda  # only expression tori load it
        fn = compile_lambda(expr)
        xs, ys = grid_nodes(0.0, nx, Lx), grid_nodes(0.0, ny, Ly)
        with np.errstate(all="ignore"):     # non-finite values fail below
            for name, a, b in (("x", (0.0 * ys, ys), (Lx + 0.0 * ys, ys)),
                               ("y", (xs, 0.0 * xs), (xs, Ly + 0.0 * xs))):
                va, vb = np.array(fn(*a)), np.array(fn(*b))
                gap = np.max(np.abs(va - vb))
                scale = max(1.0, np.max(np.abs(va)), np.max(np.abs(vb)))
                if not gap <= PERIODIC_TOL * scale:     # NaN fails too
                    raise ValueError(
                        f"lambda {expr!r} is not periodic in {name}: "
                        "(lambda, lambda_x, lambda_y) differ by "
                        f"{gap:.3g} across the box")
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        return cls(fn(X, Y)[0], Lx, Ly, lam_fn=fn)

    # -- interpolation ------------------------------------------------------

    def _interpolant(self, name):
        """The PeriodicBicubic of "K" (K_grid) or "lam" (lam_grid,
        lam_x_grid, lam_y_grid), built on first use."""
        if name not in self._interpolants:
            from .bicubic import PeriodicBicubic    # only a torus loads it

            grids = ([self.K_grid] if name == "K" else
                     [self.lam_grid, self.lam_x_grid, self.lam_y_grid])
            self._interpolants[name] = PeriodicBicubic(grids, self.Lx,
                                                       self.Ly)
        return self._interpolants[name]

    def wrap(self, x, y):
        return np.mod(x, self.Lx), np.mod(y, self.Ly)

    def lam_and_grad(self, x, y):
        """Return (lam, lam_x, lam_y) at arbitrary points (vectorized)."""
        if self._lam_fn is not None:
            return self._lam_fn(x, y)
        return tuple(self._interpolant("lam")(x, y))

    def curvature(self, x, y):
        """Gaussian curvature at arbitrary points (vectorized): the spectral
        K grid interpolated."""
        return self._interpolant("K")(x, y)[0]

    def curvature_at(self, p):
        """Gaussian curvature at position p = (x, y)."""
        return float(self.curvature(p[0], p[1]))

    # -- integrals ----------------------------------------------------------

    @property
    def cell_area(self):
        return (self.Lx / self.nx) * (self.Ly / self.ny)

    def area(self):
        return float(np.sum(np.exp(2.0 * self.lam_grid)) * self.cell_area)

    def total_curvature(self):
        """integral of K dA (should vanish: Gauss-Bonnet, genus 1)."""
        return float(np.sum(self.K_grid * np.exp(2.0 * self.lam_grid))
                     * self.cell_area)

    def resample(self, n):
        """lam on an n x n grid by trigonometric interpolation (exact)."""
        return resample(self.lam_grid, (n, n))


# ----------------------------------------------------------------------------
# constant curvature chart


class _DiskChart:
    """A surface of constant curvature ``K0`` in a conformal chart about 0
    that is valid on the disk r < ``chart_radius``."""

    def curvature(self, x, y):
        """Gaussian curvature at arbitrary points (vectorized): K0."""
        return np.full(np.broadcast(x, y).shape, self.K0)

    def curvature_at(self, p):
        return self.K0


class ConstantCurvature(_DiskChart):
    """Local conformal chart lam = log(2/(1 + K0 r^2)) of constant curvature K0.

    For K0 < 0 the chart is valid on r < 1/sqrt(-K0) (Poincare-type disk);
    for K0 >= 0 it covers the whole plane (stereographic sphere / flat plane).
    """

    def __init__(self, K0):
        if not np.isfinite(K0):
            raise ValueError("K0 must be finite")
        self.K0 = float(K0)
        self.chart_radius = (1.0 / np.sqrt(-self.K0) if self.K0 < 0
                             else np.inf)

    def lam_and_grad(self, x, y):
        q = 1.0 + self.K0 * (np.asarray(x) ** 2 + np.asarray(y) ** 2)
        lam = np.log(2.0) - np.log(q)
        return lam, -2.0 * self.K0 * np.asarray(x) / q, -2.0 * self.K0 * np.asarray(y) / q

    def wrap(self, x, y):
        return x, y


# ----------------------------------------------------------------------------
# genus-2 octagon


class FuchsianOctagon(_DiskChart):
    """The regular-octagon genus-2 hyperbolic surface.

    The group is generated by eight hyperbolic translations g_k (k = 0..7)
    along the diameters at angles k*pi/4, each of translation length
    2*arccosh(1 + sqrt 2); g_{k+4} = g_k^{-1} pairs opposite sides of the
    Dirichlet octagon centered at 0.  The elements live in SU(1,1) (complex
    2x2 matrices acting on the disk).
    """

    K0 = -1.0
    chart_radius = 1.0     # the Poincare disk
    # surface-group relation: g0 g1^-1 g2 g3^-1 g0^-1 g1 g2^-1 g3 = identity
    RELATION = (0, 5, 2, 7, 4, 1, 6, 3)

    def __init__(self):
        a = 1.0 + np.sqrt(2.0)
        b = np.sqrt(2.0 + 2.0 * np.sqrt(2.0))
        self.disk_generators = [
            np.array([[a, b * np.exp(1j * k * np.pi / 4)],
                      [b * np.exp(-1j * k * np.pi / 4), a]])
            for k in range(8)
        ]
        self.translation_length = 2.0 * np.arccosh(a)
        # Dirichlet-side data: orthocircle centers/radii and vertex radius
        t = np.tanh(self.translation_length / 4.0)
        self._side_center = 0.5 * (t + 1.0 / t)
        self._side_radius = 0.5 * (1.0 / t - t)
        cosv = np.cos(np.pi / 8.0)
        d = self._side_center
        self.vertex_radius_euclidean = d * cosv - np.sqrt(
            (d * cosv) ** 2 - d ** 2 + self._side_radius ** 2)
        self.vertex_radius = 2.0 * np.arctanh(self.vertex_radius_euclidean)

    # -- group operations ---------------------------------------------------

    def word_matrix(self, word):
        M = np.eye(2, dtype=complex)
        for k in word:
            M = M @ self.disk_generators[k % 8]
        return M

    def relation_product(self):
        return self.word_matrix(self.RELATION)

    def wrap(self, x, y):
        z, _, _ = self.reduce_batch(np.asarray(x) + 1j * np.asarray(y), 0.0)
        return z.real, z.imag

    def lam_and_grad(self, x, y):
        """Disk-chart conformal factor lam = log(2/(1-r^2)) and gradient."""
        r2 = np.asarray(x) ** 2 + np.asarray(y) ** 2
        q = 1.0 - r2
        return (np.log(2.0) - np.log(q), 2.0 * np.asarray(x) / q,
                2.0 * np.asarray(y) / q)

    def contains(self, z, margin=0.0):
        """Dirichlet test: z is no farther from 0 than from any g_k(0)'s pull."""
        d0 = disk_distance0(z)
        for g in self.disk_generators:
            if d0 > disk_distance0(mobius(g, z)) + margin:
                return False
        return True

    def reduce_batch(self, z, theta, max_steps=200):
        """Reduce SM points into the fundamental octagon, all at once.

        Each point steps by the generator that brings it closest to 0 until
        none brings it closer (by more than 1e-14 in distance).  Returns
        (z_reduced, theta_reduced, applied): arrays shaped like z, with
        applied[..., :, :] the composed SU(1,1) element, mobius(applied, z) =
        z_reduced, and theta_reduced = theta + arg g'(z) of that element,
        modulo 2 pi.
        """
        z = np.asarray(z, dtype=complex)
        shape = z.shape
        z0 = z.ravel()
        if np.any(np.abs(z0) >= 1.0 - 1e-12):
            raise ValueError("point too close to the boundary circle")
        gens = np.array(self.disk_generators)                 # (8, 2, 2)
        g00, g01, g10, g11 = (gens[:, i, j, None]
                              for i in (0, 1) for j in (0, 1))
        zr = z0.copy()
        # the applied element [[a, b], [c, d]], entrywise over the points
        a = np.ones_like(zr)
        b = np.zeros_like(zr)
        c = np.zeros_like(zr)
        d = np.ones_like(zr)
        active = np.arange(zr.size)
        for _ in range(max_steps):
            za = zr[active]
            images = (g00 * za + g01) / (g10 * za + g11)     # (8, n_active)
            moved = disk_distance0(images)
            k = np.argmin(moved, axis=0)
            cols = np.arange(za.size)
            step = moved[k, cols] < disk_distance0(za) - 1e-14
            active, k, cols = active[step], k[step], cols[step]
            if not active.size:
                break
            zr[active] = images[k, cols]
            # applied <- g @ applied
            ga, gb, gc, gd = (gens[k, i, j] for i in (0, 1) for j in (0, 1))
            aa, bb, cc, dd = a[active], b[active], c[active], d[active]
            a[active] = ga * aa + gb * cc
            b[active] = ga * bb + gb * dd
            c[active] = gc * aa + gd * cc
            d[active] = gc * bb + gd * dd
        else:
            raise RuntimeError("fundamental-domain reduction did not "
                               "terminate")
        # g'(z) = 1/(c z + d)^2 = (a - c g(z))^2 for det g = 1; the second
        # form has no cancellation when z lies near the boundary circle
        theta = np.mod(np.broadcast_to(theta, shape).ravel()
                       + np.angle((a - c * zr) ** 2), TWO_PI)
        theta[theta == TWO_PI] = 0.0    # mod of a tiny negative angle rounds up
        applied = np.stack([a, b, c, d], axis=-1).reshape(shape + (2, 2))
        return zr.reshape(shape), theta.reshape(shape), applied

    def reduce(self, z, max_steps=200):
        """Reduce a disk point into the fundamental octagon.

        Returns (z_reduced, applied) where applied is the SU(1,1) element with
        mobius(applied, z) = z_reduced.
        """
        zr, _, g = self.reduce_batch(z, 0.0, max_steps)
        return zr[()], g

    # -- geodesics ----------------------------------------------------------

    def axis_of(self, M):
        """Axis data (z0, theta0) of a hyperbolic element: the point of the
        axis closest to 0 and the direction of translation there."""
        tr = np.real(np.trace(M))
        if abs(tr) <= 2.0 + 1e-12:
            return None
        # boundary fixed points of z -> (Az+B)/(Cz+D)
        A, B = M[0, 0], M[0, 1]
        C, D = M[1, 0], M[1, 1]
        roots = np.roots([C, D - A, -B])
        # attracting fixed point: |multiplier| = |C z + D|^{-2} ... < 1
        mults = [1.0 / np.abs(C * z + D) ** 2 for z in roots]
        za = roots[int(np.argmin(mults))]
        zr = roots[int(np.argmax(mults))]
        za, zr = za / abs(za), zr / abs(zr)
        if abs(za + zr) < 1e-9:
            # axis through the origin
            z0, dirn = 0.0 + 0.0j, za
        else:
            # orthocircle through za, zr: center c with Re(conj(z) c) = 1
            Mlin = np.array([[za.real, za.imag], [zr.real, zr.imag]])
            cx, cy = np.linalg.solve(Mlin, np.array([1.0, 1.0]))
            c = cx + 1j * cy
            rho = np.sqrt(abs(c) ** 2 - 1.0)
            z0 = c * (1.0 - rho / abs(c))
            tang = 1j * (z0 - c) / rho
            dirn = tang if np.real(np.conj(tang) * (za - z0)) > 0 else -tang
        return z0, float(np.angle(dirn))

    def geodesic_point(self, z0, theta0, t):
        """Exact geodesic flow in the disk from (z0, theta0) (vectorized in t).

        Returns (z(t), theta(t)) with theta the velocity direction."""
        w = np.tanh(np.asarray(t, dtype=float) / 2.0) * np.exp(1j * theta0)
        den = 1.0 + np.conj(z0) * w
        z = (w + z0) / den
        # velocity: d/dt of the Moebius image, direction only
        vel = np.exp(1j * theta0) * (1.0 - abs(z0) ** 2) / den ** 2
        return z, np.mod(np.angle(vel), TWO_PI)

    def closed_geodesic_from_word(self, word, n_samples=512):
        """Closed geodesic of the conjugacy class of a word, or None.

        The word is a sequence of generator indices 0..7 (inverses are
        indices k+4).  Returns None for non-hyperbolic (elliptic/parabolic)
        words, which carry no closed geodesic."""
        return self.closed_geodesics_from_words([word], n_samples)[0]

    # word geodesic points per reduce_batch call in
    # closed_geodesics_from_words: the reduction's temporaries take ~1 kB a
    # point (the images of the 8 generators and their distances).  On the
    # default xray pool (256 words of 512 samples), 1024 points took 0.21 s
    # where one word a call took 0.27 s, and left the run's peak RSS as it
    # was; 2048 points ran at 0.20 s but raised the peak RSS by 0.5 MB, and
    # 8192 points peaked at 10.7 MB in tracemalloc, above the word
    # enumeration's 6.7 MB
    REDUCE_CHUNK_POINTS = 1024

    def closed_geodesics_from_words(self, words, n_samples=512):
        """closed_geodesic_from_word of each word, in order: its closed
        geodesic, or None when it is not hyperbolic.

        The words are taken a chunk at a time, as many hyperbolic words as
        hold REDUCE_CHUNK_POINTS samples (at least one): each word's orbit
        is sampled from its axis, and the chunk's samples are reduced into
        the octagon by one reduce_batch call.  The reduction acts on each
        point alone, so a geodesic's samples do not depend on the words it
        is reduced with, and only one chunk's unreduced points are alive at
        a time."""
        per_chunk = max(1, self.REDUCE_CHUNK_POINTS // n_samples)
        out = [None] * len(words)
        chunk = []      # (index, word, period, axis, z, theta) per word
        for i, word in enumerate(words):
            word = tuple(int(k) % 8 for k in word)
            if not word:
                raise ValueError("empty word")
            M = self.word_matrix(word)
            tr = abs(np.real(np.trace(M)))
            if tr <= 2.0 + 1e-10:
                continue
            T = 2.0 * np.arccosh(tr / 2.0)
            z0, theta0 = self.axis_of(M)
            ts = grid_nodes(0.0, n_samples, T)
            chunk.append((i, word, T, (z0, theta0),
                          *self.geodesic_point(z0, theta0, ts)))
            if len(chunk) == per_chunk:
                self._reduce_word_chunk(chunk, n_samples, out)
                chunk = []
        if chunk:
            self._reduce_word_chunk(chunk, n_samples, out)
        return out

    def _reduce_word_chunk(self, chunk, n, out):
        """Reduce the n sampled points of each word of chunk
        (closed_geodesics_from_words) by one reduce_batch call and put each
        word's geodesic in out.  The geodesics' sample arrays are allocated
        before the reduction's temporaries: allocated after them, they left
        holes in the heap that raised the xray run's peak RSS by 0.25 MB."""
        samples = [np.empty((n, 3)) for _ in chunk]
        zr, thr, _ = self.reduce_batch(np.concatenate([c[4] for c in chunk]),
                                       np.concatenate([c[5] for c in chunk]))
        for j, (i, word, T, axis, _, _) in enumerate(chunk):
            rows = slice(j * n, (j + 1) * n)
            s = samples[j]
            s[:, 0], s[:, 1], s[:, 2] = zr[rows].real, zr[rows].imag, thr[rows]
            out[i] = ClosedGeodesic(model=self, period=T, samples=s,
                                    dt=T / n, source="octagon-word",
                                    word=word, axis=axis)

    # -- Dirichlet domain geometry ------------------------------------------

    def vertices(self):
        r = self.vertex_radius_euclidean
        return [r * np.exp(1j * (2 * k + 1) * np.pi / 8.0) for k in range(8)]

    def vertex_angles(self):
        """Interior angles at the octagon vertices, computed from the side
        orthocircles meeting there."""
        angles = []
        for k in range(8):
            v = self.vertices()[k]
            c1 = self._side_center * np.exp(1j * k * np.pi / 4.0)
            c2 = self._side_center * np.exp(1j * (k + 1) * np.pi / 4.0)
            # tangents of the two side circles at v, oriented into the domain
            t1 = 1j * (v - c1)
            t2 = 1j * (v - c2)
            cosang = abs(np.real(np.conj(t1) * t2)) / (abs(t1) * abs(t2))
            angles.append(np.arccos(np.clip(cosang, -1.0, 1.0)))
        return np.array(angles)

    def fundamental_domain_area(self):
        """Hyperbolic area by the angle-defect formula (6 pi - sum of angles)."""
        return 6.0 * np.pi - float(np.sum(self.vertex_angles()))


# ----------------------------------------------------------------------------
# dispatch helpers


# the largest torus grid side a JSON spec may ask for: building the
# surface holds ~130 B a grid point, 35 MB at 512 x 512, and its
# PeriodicBicubic tables 128 B a grid point and grid: 34 MB for K at 512,
# 101 MB more for lam and its gradient on a grid-built torus
MAX_TORUS_SIDE = 512
# the largest torus box side Lx or Ly, and metric box max(Lx, Ly) e^(max
# lam): geodesic lengths, and with them the RK4 steps of the closed-geodesic
# shooting, grow with the box, and a constant added to lam stretches them as
# the box does.  anosov on a flat 8 x 8 torus (2-CPU Xeon, one BLAS thread)
# took 4.8 s and 98 MB at Lx = Ly = 100, 13 s and 120 MB at 300, and more
# than 200 s at 1e3; on the default box, lam = 3.85 took 25.7 s
MAX_TORUS_BOX = 100.0


class ConfigError(ValueError):
    """A config or surface spec that the program refuses before any work."""


def read_number(doc, key, default, lo, hi=np.inf, kind=float):
    """doc[key], or ``default`` when the key is absent, checked as ``kind``:
    an int in [lo, hi] (an integral float counts as one), or a finite float
    above lo and at most hi.  A bool, a string or None is refused."""
    val = doc.get(key, default)
    if kind is int and isinstance(val, float) and val.is_integer():
        val = int(val)
    number = isinstance(val, (int, float)) and not isinstance(val, bool)
    if kind is int:
        ok = number and isinstance(val, int) and lo <= val <= hi
        rule = f"an integer in [{lo}, {hi}]"
    else:
        # the abs bound refuses inf, NaN and an int too large for a float
        ok = number and abs(val) <= sys.float_info.max and lo < val <= hi
        rule = ("a finite number" + (f" above {lo!r}" if lo > -np.inf else "")
                + (f" and at most {hi!r}" if hi < np.inf else ""))
    if not ok:
        raise ConfigError(f"{key!r} must be {rule}")
    return kind(val)


def surface_from_json(doc):
    """Build a SurfaceModel from its JSON description.

    {"type": "conformal_torus", "Lx":.., "Ly":.., "nx":.., "ny":..,
     "lambda": "expr" | [[..grid..]]}
    {"type": "constant", "K": ..}
    {"type": "octagon"}
    """
    if not isinstance(doc, dict):
        raise TypeError("the surface spec must be a JSON object")
    kind = doc.get("type")
    if kind == "conformal_torus":
        lam = doc["lambda"]
        Lx, Ly = (read_number(doc, key, TWO_PI, 0.0, MAX_TORUS_BOX)
                  for key in ("Lx", "Ly"))
        nx, ny = (read_number(doc, key, 64, 1, MAX_TORUS_SIDE, int)
                  for key in ("nx", "ny"))
        if isinstance(lam, str):
            model = ConformalTorus.from_expression(lam, Lx, Ly, nx, ny)
        else:
            lam = np.asarray(lam, dtype=float)
            if max(lam.shape, default=0) > MAX_TORUS_SIDE:
                raise ValueError(f"the 'lambda' grid's sides must be at most "
                                 f"{MAX_TORUS_SIDE}")
            model = ConformalTorus(lam, Lx, Ly)
        # compared as logarithms, so a large lam overflows nothing
        lam_max = float(np.max(model.lam_grid))
        if lam_max > np.log(MAX_TORUS_BOX / max(Lx, Ly)):
            raise ConfigError(
                f"the metric box max(Lx, Ly) e^(max lambda) = "
                f"{max(Lx, Ly):.4g} e^{lam_max:.4g} exceeds {MAX_TORUS_BOX}")
        return model
    if kind == "constant":
        return ConstantCurvature(read_number(doc, "K", None, -np.inf))
    if kind == "octagon":
        return FuchsianOctagon()
    raise ValueError(f"unknown surface type: {kind!r}")
