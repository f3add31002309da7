"""Fourier analysis on the unit sphere bundle.

A function u on SM is stored as its vertical Fourier modes u_k(x, y), |k| <=
N, over a conformal chart: one complex (2N+1, nx, ny) array, u_k in row k + N.
The frame acts on the whole array at once:

    V  -> multiplication by ik
    eta_minus (k -> k-1):  e^{-lam} (dbar h + k (dbar lam) h)
    eta_plus  (k -> k+1):  e^{-lam} (dz h   - k (dz lam)  h)
    X = eta_plus + eta_minus,   X_perp = -i (eta_plus - eta_minus)

Every eta image comes from one kernel, ``_eta_sides``, spectral on the
periodic chart grid.  The inner product is the SM volume: (u, v) = sum_k int
u_k conj(v_k) e^{2 lam} dx dy times 2 pi (the fiber integral), and all norms
below use it.
"""

import os

import numpy as np

from .geometry import (ConstantCurvature, TWO_PI, grid_nodes, resample,
                       spectral_calculus, wavenumbers)


class Chart:
    """Periodic conformal chart: lam on an nx x ny grid with spectral
    calculus.

    ``calculus`` = (lam_x, lam_y, K) may be supplied, K as a grid or a
    constant: analytically where lam itself is not periodic on the box (a
    disk patch), or as a torus already holds it; otherwise it is computed
    spectrally from the lam grid (``geometry.spectral_calculus``).
    """

    patch = None    # (model, half_width) of a disk patch

    def __init__(self, lam_grid, Lx, Ly, calculus=None):
        self.lam = np.asarray(lam_grid, dtype=float)
        self.nx, self.ny = self.lam.shape
        self.Lx, self.Ly = float(Lx), float(Ly)
        # wavenumbers, a column and a row, and the symbols of dz and dbar:
        # the spectral parts of eta_+ and eta_-
        self.kx, self.ky = wavenumbers(self.lam.shape, self.Lx, self.Ly)
        ikx, iky = 1j * self.kx, 1j * self.ky
        self.eta_symbol = 0.5 * np.stack([ikx - 1j * iky,
                                          ikx + 1j * iky])[:, None]
        if calculus is None:
            calculus = spectral_calculus(self.lam, self.Lx, self.Ly)
        lam_x, lam_y, K = calculus
        self.lam_x, self.lam_y = lam_x, lam_y
        self.dz_lam = 0.5 * (lam_x - 1j * lam_y)
        self.dbar_lam = 0.5 * (lam_x + 1j * lam_y)
        self.K = np.asarray(K, dtype=float) if np.ndim(K) else np.full_like(self.lam, float(K))
        self.emlam = np.exp(-self.lam)
        cell = (self.Lx / self.nx) * (self.Ly / self.ny)
        self.w = np.exp(2.0 * self.lam) * cell * TWO_PI   # d(SM) quadrature weight
        self.sqrt_w = np.sqrt(self.w)

    @classmethod
    def from_torus(cls, model, n=None):
        """The torus on an n x n grid, resampled unless that is the model's
        own grid (n None keeps the model's grid, square or not)."""
        if n is None or (n, n) == (model.nx, model.ny):
            return cls(model.lam_grid, model.Lx, model.Ly,
                       (model.lam_x_grid, model.lam_y_grid, model.K_grid))
        return cls(model.resample(n), model.Lx, model.Ly)

    @classmethod
    def disk_patch(cls, model, half_width=1.0, n=128):
        """Box chart [-L/2, L/2]^2 around the chart center of a model of
        constant curvature K0; lam and its calculus are analytic (lam is not
        box-periodic, so only compactly supported fields should live here)."""
        r = model.chart_radius
        if half_width * np.sqrt(2.0) >= r:
            raise ValueError(f"box corners leave the chart of radius {r:.4f};"
                             f" need half_width < {r / np.sqrt(2.0):.4f}")
        L = 2.0 * half_width
        xs = grid_nodes(-half_width, n, L)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        lam, lam_x, lam_y = (np.broadcast_to(a, X.shape).copy()
                             for a in model.lam_and_grad(X, Y))
        chart = cls(lam, L, L, (lam_x, lam_y, model.K0))
        chart.patch = (model, half_width)
        return chart

    def mesh(self, start):
        """(X, Y), the node coordinates of the grid, each axis starting at
        ``start`` times its side: -0.5 centres the box on the origin, as a
        disk patch is, and 0 starts it there."""
        return np.meshgrid(grid_nodes(start * self.Lx, self.nx, self.Lx),
                           grid_nodes(start * self.Ly, self.ny, self.Ly),
                           indexing="ij")

    def nodes(self):
        """(X, Y) at the chart's own nodes: centred on the origin on a disk
        patch, starting there on a torus."""
        return self.mesh(-0.5 if self.patch is not None else 0.0)

    # -- inner products and refinement -------------------------------------

    def inner(self, f, g):
        return complex(np.sum(self.w * f * np.conj(g)))

    def norm2(self, f):
        """Squared SM norm of a grid, or of each grid of a stack."""
        return np.sum(self.w * np.abs(f) ** 2, axis=(-2, -1))

    def refine(self):
        """Chart at the 2x-refined grid: a disk patch is built again
        analytically (its lam is not periodic on the box), any other chart
        by trigonometric interpolation of lam."""
        if self.patch is not None:
            model, half_width = self.patch
            return Chart.disk_patch(model, half_width, 2 * self.nx)
        shape = (self.nx * 2, self.ny * 2)
        return Chart(resample(self.lam, shape), self.Lx, self.Ly)

    def upsample(self, f):
        """f (a grid or a stack of grids) on the 2x-refined grid."""
        return resample(f, (self.nx * 2, self.ny * 2))


# ----------------------------------------------------------------------------
# SMField


class SMField:
    """Truncated vertical Fourier expansion u = sum_k u_k(x) e^{i k theta}.

    The modes |k| <= n_modes live in ``data``, a complex (2 n_modes + 1, nx,
    ny) array with mode k in row k + n_modes.  ``SMField(chart, {k: grid},
    n_modes)`` puts the grids in the band max(n_modes, max |k|)."""

    def __init__(self, chart, modes=None, n_modes=None):
        modes = modes or {}
        N = max([n_modes or 0] + [abs(int(k)) for k in modes])
        self.chart = chart
        self.data = np.zeros((2 * N + 1, chart.nx, chart.ny), dtype=complex)
        for k, arr in modes.items():
            self.data[int(k) + N] = arr

    @classmethod
    def from_array(cls, chart, data):
        data = np.asarray(data, dtype=complex)
        if data.ndim != 3 or len(data) % 2 == 0:
            raise ValueError("a mode array has shape (2N+1, nx, ny)")
        u = cls.__new__(cls)
        u.chart, u.data = chart, data
        return u

    @property
    def n_modes(self):
        return len(self.data) // 2

    @property
    def ks(self):
        return np.arange(-self.n_modes, self.n_modes + 1)

    @property
    def modes(self):
        """{k: row} over the band: a fresh dict of views into ``data``."""
        return dict(zip(range(-self.n_modes, self.n_modes + 1), self.data))

    def get(self, k):
        if abs(k) > self.n_modes:
            return np.zeros((self.chart.nx, self.chart.ny), dtype=complex)
        return self.data[k + self.n_modes]

    @classmethod
    def random_real(cls, chart, n_modes, spatial_band=4, rng=None):
        """Band-limited random real field: modes |k| <= n_modes with spatial
        frequencies |m|, |n| <= spatial_band, conj-symmetrized.

        Draws run over k = 0..n_modes, then m, then n.  Mode k is one ifft2
        of its coefficients in a zero spectrum, where frequencies above the
        grid's Nyquist band alias as sampled plane waves do."""
        rng = rng or np.random.default_rng()
        z = rng.normal(size=(n_modes + 1, 2 * spatial_band + 1,
                             2 * spatial_band + 1, 2))
        freqs = np.arange(-spatial_band, spatial_band + 1)
        spec = np.zeros((n_modes + 1, chart.nx, chart.ny), dtype=complex)
        np.add.at(spec, (slice(None), (freqs % chart.nx)[:, None],
                         freqs % chart.ny), z[..., 0] + 1j * z[..., 1])
        h = np.fft.ifft2(spec, norm="forward")
        return cls.from_array(chart, np.concatenate(
            [np.conj(h[:0:-1]), h[:1] + np.conj(h[:1]), h[1:]]))


# ----------------------------------------------------------------------------
# frame operators


def _with_zero_row(stack):
    return np.concatenate([stack, np.zeros((1,) + stack.shape[1:],
                                           dtype=stack.dtype)])


# Complex products below keep the operand order of a per-mode loop.  A
# complex product with fused multiply-adds is not bitwise commutative, and
# numpy swaps the operands of ``a * b`` when it reuses a large temporary b as
# the output; hence np.multiply where b is a temporary.  Real factors commute.

def _ladder_nbr(in_ks, out_ks):
    """(2, len(out_ks)) rows of an in_ks stack holding the neighbours k-1
    (eta_+ side) and k+1 (eta_- side) of each output k; len(in_ks) if none."""
    pos = {k: i for i, k in enumerate(in_ks)}
    return np.array([[pos.get(k - 1, len(in_ks)) for k in out_ks],
                     [pos.get(k + 1, len(in_ks)) for k in out_ks]], dtype=int)


def _eta_coef(chart, k_up, k_dn):
    """Pointwise terms of eta_+ on modes k_up and of eta_- on modes k_dn,
    signed so that each side is (spectral part) + coefficient * h."""
    k_up, k_dn = (np.asarray(k, float)[:, None, None] for k in (k_up, k_dn))
    return np.stack([-k_up * chart.dz_lam, k_dn * chart.dbar_lam])


def _eta_sides(chart, src, nbr, coef):
    """The eta_+/- kernel: the (2, n, nx, ny) stack of eta_+ (side 0) and
    eta_- (side 1) images of the rows nbr of the mode stack src, with the
    pointwise terms coef.  The sides stay apart, so callers sum them in the
    order of a per-mode eta loop and the products round as mode by mode.
    A row index len(src) in nbr reads a zero row."""
    F = _with_zero_row(np.fft.fft2(src, axes=(-2, -1)))
    d = np.fft.ifft2(np.multiply(chart.eta_symbol, F[nbr]), axes=(-2, -1))
    d += np.multiply(coef, _with_zero_row(src)[nbr])
    d *= chart.emlam
    return d


def _x_sides(u, n_out):
    """(eta_+ u_{k-1}, eta_- u_{k+1}) for the output modes |k| <= n_out: the
    two halves of X u and of X_perp u."""
    ks = np.arange(-n_out, n_out + 1)
    return _eta_sides(u.chart, u.data, _ladder_nbr(u.ks, ks),
                      _eta_coef(u.chart, ks - 1, ks + 1))


def eta(sign, k, h, chart):
    """eta_+/- applied to the mode-k coefficient field h."""
    if sign not in ("+", 1, "-", -1):
        raise ValueError("sign must be '+' or '-'")
    side = 0 if sign in ("+", 1) else 1
    nbr = np.array([[side], [1 - side]])     # the other side reads zeros
    return _eta_sides(chart, h[None], nbr, _eta_coef(chart, [k], [k]))[side, 0]


def apply_frame(op, u, truncate=None):
    """Apply X, X_perp or V to an SMField.

    X and X_perp shift modes by +/-1; the output band grows to n_modes + 1
    unless ``truncate`` caps it."""
    ch = u.chart
    if op == "V":
        return SMField.from_array(ch, 1j * u.ks[:, None, None] * u.data)
    if op not in ("X", "Xperp"):
        raise ValueError("op must be one of 'X', 'Xperp', 'V'")
    up, dn = _x_sides(u, u.n_modes + 1 if truncate is None else truncate)
    return SMField.from_array(ch, up + dn if op == "X" else -1j * (up - dn))


def inner(u, v):
    N = min(u.n_modes, v.n_modes)    # modes outside either band add nothing
    a = u.data[u.n_modes - N:u.n_modes + N + 1]
    b = v.data[v.n_modes - N:v.n_modes + N + 1]
    return complex(np.sum(u.chart.w * a * np.conj(b)))


def norm2(u):
    return float(np.sum(u.chart.norm2(u.data)))


def norm(u):
    return np.sqrt(norm2(u))


def h1_norm2(u):
    return _h1_norm2(u, *_x_sides(u, u.n_modes + 1))


def _h1_norm2(u, up, dn):
    """||Xu||^2 + ||X_perp u||^2 + ||Vu||^2 + ||u||^2 from the eta sides of
    u (|X_perp u| = |eta_+ - eta_-| pointwise)."""
    ch = u.chart
    return (float(np.sum(ch.norm2(up + dn))) + float(np.sum(ch.norm2(up - dn)))
            + float(np.sum((1.0 + u.ks ** 2) * ch.norm2(u.data))))


def mixed_norm(u, s):
    """L^2_x H^s_theta norm: (sum_k <k>^{2s} ||u_k||^2)^{1/2}."""
    return np.sqrt(np.sum((1.0 + u.ks ** 2.0) ** s * u.chart.norm2(u.data)))


# ----------------------------------------------------------------------------
# Pestov identity


def pestov_residual(u):
    """|  ||XVu||^2 - (K Vu, Vu) + ||Xu||^2 - ||VXu||^2  | / ||u||_{H^1}^2."""
    ch = u.chart
    Vu = apply_frame("V", u)
    up, dn = _x_sides(u, u.n_modes + 1)
    xn2 = u.chart.norm2(up + dn)                # ||(Xu)_k||^2
    ks = np.arange(-u.n_modes - 1, u.n_modes + 2)
    KVV = float(np.sum(ch.w * ch.K * np.abs(Vu.data) ** 2))
    lhs = (norm2(apply_frame("X", Vu)) - KVV + float(np.sum(xn2))
           - float(np.sum(ks ** 2 * xn2)))
    return abs(lhs) / _h1_norm2(u, up, dn)


# ----------------------------------------------------------------------------
# alpha-controlled estimate


def _deflate_gep(A, B):
    """Smallest eigenvalue of A v = mu B v after projecting out B's
    near-null space (eigenvalues <= 1e-10 max: constants etc.): B is I
    on its kept eigenvectors scaled by 1/sqrt(eigenvalue)."""
    evals, evecs = np.linalg.eigh(B)
    keep = evals > 1e-10 * max(evals.max(), 1e-300)
    if not np.any(keep):
        raise ValueError("test space entirely in the null space of ||X.||^2")
    W = evecs[:, keep] / np.sqrt(evals[keep])
    return float(np.linalg.eigvalsh(W.conj().T @ A @ W)[0])


def alpha_lower_bound(model, n_modes=3, spatial_band=2, n_grid=48):
    """alpha-hat = min over a band-limited test space of
    (||X psi||^2 - (K psi, psi)) / ||X psi||^2.

    Tori assemble the forms over plane-wave x vertical-mode test functions;
    the octagon assembles them over windowed plane waves on a
    fundamental-domain chart (the window keeps the test fields supported
    inside the octagon, so they are genuine fields on the surface);
    constant-curvature models reduce algebraically (K constant)."""
    if isinstance(model, ConstantCurvature):
        # (K psi, psi) = K0 ||psi||^2, so the Rayleigh quotient is
        # 1 - K0 ||psi||^2 / ||X psi||^2; for K0 <= 0 the infimum over any
        # growing test space is 1 (high-frequency psi), the 1-controlled bound
        if model.K0 <= 0:
            return 1.0
        raise ValueError("positively curved constant models are not "
                         "alpha-controlled for any alpha > 0 on large spaces")
    ch, window = surface_chart(model, n_grid)
    return _alpha_gep_on_chart(ch, n_modes, spatial_band, window)


def bump(t):
    """C-infinity bump of the scaled radius-squared t; 1 at t=0, 0 for t>=1."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = t < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside]))
    return out


def _patch_window(ch):
    """Smooth radial bump on a box chart, vanishing with all derivatives at
    radius min(0.95 half-width, 0.62), inside the octagon's incircle."""
    r0 = min(0.95 * (0.5 * ch.Lx), 0.62)
    X, Y = ch.nodes()
    return bump((X ** 2 + Y ** 2) / r0 ** 2)


def chart_side(model, n):
    """The grid side of ``surface_chart(model, n)``: n, raised on a torus
    to its own nx and ny, since the spectral resample only upsamples."""
    return n if model.K0 is not None else max(n, model.nx, model.ny)


def surface_chart(model, n):
    """(chart, window): the SM chart serving ``model`` at grid side n, and
    the window its fields are multiplied by, or None.  A torus is its own
    chart; a surface of constant curvature K0 gets the disk patch of
    half-width 0.55 about 0, where a field is windowed by ``_patch_window``
    (lam is not periodic on the box)."""
    if model.K0 is None:
        return Chart.from_torus(model, chart_side(model, n)), None
    ch = Chart.disk_patch(model, half_width=0.55, n=n)
    return ch, _patch_window(ch)


def octagon_mode0_field(model, rng=None, spatial_band=2, n=48):
    """A random real mode-0 SMField compactly supported inside the octagon,
    on a fundamental-domain box chart (window x low trig polynomial)."""
    rng = rng or np.random.default_rng()
    ch, win = surface_chart(model, n)
    X, Y = ch.mesh(0.0)
    f0 = np.zeros_like(win, dtype=complex)
    for m in range(-spatial_band, spatial_band + 1):
        for nn in range(-spatial_band, spatial_band + 1):
            c = rng.normal() + 1j * rng.normal()
            f0 += c * np.exp(1j * TWO_PI * (m * X / ch.Lx + nn * Y / ch.Ly))
    f0 = 0.5 * (f0 + np.conj(f0)) * win
    return SMField.from_array(ch, f0[None])


def _alpha_gep_on_chart(ch, n_modes, spatial_band, window=None):
    """The forms B = (X b_i, X b_j) and A = B - (K b_i, b_j) over the basis
    b_i = h_s e^{ik theta}, k outer, plane wave h_s inner.  X b_i is eta_+ h_s
    on mode k+1 and eta_- h_s on mode k-1; two sides meet where their modes
    agree."""
    X, Y = ch.mesh(0.0)
    H = np.array([np.exp(1j * (m * TWO_PI * X / ch.Lx + n * TWO_PI * Y / ch.Ly))
                  for m in range(-spatial_band, spatial_band + 1)
                  for n in range(-spatial_band, spatial_band + 1)])
    if window is not None:
        H = H * window
    ks = np.repeat(np.arange(-n_modes, n_modes + 1), len(H))
    src = np.tile(np.arange(len(H)), 2 * n_modes + 1)
    sides = _eta_sides(ch, H, np.stack([src, src]), _eta_coef(ch, ks, ks))
    sides, at = sides.reshape(2, len(ks), -1), (ks + 1, ks - 1)
    w = ch.w.ravel()
    B = sum((sides[a] * w) @ np.conj(sides[b]).T * (at[a][:, None] == at[b])
            for a in (0, 1) for b in (0, 1))
    Hb = H.reshape(len(H), -1)[src]
    A = B - (ch.K.ravel() * w * Hb) @ np.conj(Hb).T * (ks[:, None] == ks)
    return _deflate_gep(A, B)


def alpha_lower_bound_profile(profile, n_freq=48):
    """Along-geodesic alpha estimate for a 1-D curvature profile:
    min of (||psi'||^2 - int K |psi|^2) / ||psi'||^2 over band-limited
    periodic psi (constants deflated).  Fourier assembly: |psi'|^2 is
    diagonal, the K term is the Toeplitz matrix of K's Fourier coefficients."""
    T = profile.T
    ngrid = 8 * n_freq
    ts = grid_nodes(0.0, ngrid, T)
    Khat = np.fft.fft(profile(ts)) / ngrid
    js = np.arange(-n_freq, n_freq + 1)
    om = TWO_PI * js / T
    Kmat = Khat[(js[None, :] - js[:, None]) % ngrid]
    B = np.diag(om.astype(float) ** 2)
    A = B - np.conj(Kmat).T * 0.5 - Kmat * 0.5   # hermitize K term
    return _deflate_gep(A, B)


# ----------------------------------------------------------------------------
# eq:Q1 bookkeeping and the quantitative inequality


def p_operator(u):
    """P u = V X u."""
    return apply_frame("V", apply_frame("X", u))


def q_operator(u, m):
    """Q u = T V X u (projection onto vertical modes |k| >= m+1)."""
    Pu = p_operator(u)
    keep = (np.abs(Pu.ks) >= m + 1)[:, None, None]
    return SMField.from_array(u.chart, np.where(keep, Pu.data, 0.0))


def q1_identity_gap(u, m):
    """| ||Pu||^2 - sum_{|k|<=m} k^2 ||(Xu)_k||^2 - ||Qu||^2 | (exact
    bookkeeping: should be machine zero)."""
    Xu = apply_frame("X", u)
    low = float(np.sum(np.where(np.abs(Xu.ks) <= m,
                                Xu.ks ** 2 * Xu.chart.norm2(Xu.data), 0.0)))
    return abs(norm2(p_operator(u)) - low - norm2(q_operator(u, m)))


def verify_quantitative_inequality(u, m, alpha_hat, tol=1e-8):
    """Both sides of the alpha-controlled lower bound for ||Qu||^2 on fields
    supported in |k| >= m; returns the slack (lhs - rhs, should be >= -tol)."""
    if np.any(u.data[np.abs(u.ks) < m]):
        raise ValueError(f"u must be supported on |k| >= {m}")
    ch = u.chart
    M = max(u.n_modes, m) + 1
    up, dn = _x_sides(u, M)      # rows: output modes -M..M
    # eta_- of u_{m+1} and u_m, eta_+ of u_{-m-1} and u_{-m}
    em1, em0 = ch.norm2(dn[m + M]), ch.norm2(dn[m - 1 + M])
    ep1, ep0 = ch.norm2(up[-m + M]), ch.norm2(up[1 - m + M])
    ks = np.arange(-M, M + 1)
    high = np.abs(ks) >= m + 1
    xn2 = ch.norm2(up + dn)
    v2 = float(np.sum(xn2[high]))
    XVu = apply_frame("X", apply_frame("V", u), truncate=M)
    w2 = float(np.sum(ch.norm2(XVu.data)[high]))
    c1 = 1.0 - m ** 2 + alpha_hat * (m + 1) ** 2
    c2 = 1.0 - (m - 1) ** 2 + alpha_hat * m ** 2
    lhs = float(np.sum((ks ** 2 * xn2)[high]))     # ||Qu||^2
    rhs = c1 * (em1 + ep1) + c2 * (em0 + ep0) + alpha_hat * w2 + v2
    return {"lhs": lhs, "rhs": rhs, "slack": lhs - rhs,
            "coefficients": (c1, c2), "ok": lhs - rhs >= -tol * max(1.0, lhs)}


# ----------------------------------------------------------------------------
# transport least squares (grid path)


# lsqr's least-squares stopping test, ||(AN)^H r|| <= atol ||AN|| ||r||
# (Paige and Saunders 1982).  Octagon solves meet it at ~800 iterations with
# their interior residual unchanged; at 1e-7 they stop at ~620 with a
# residual 100x larger, above the CLI's tol
LSQR_ATOL = 1e-8


class _LadderOperator:
    """Exact-adjoint discretization of h -> A h in whitened coordinates.

    A = X V^V_power from the modes ``in_ks`` to the modes ``out_ks``: P* =
    XV and Q* = XVT (T by leaving the modes |k| <= m out of ``out_ks``), and
    plain X with prescribed-mode holes for invariant_extension.  Fields are
    (len(ks), nx, ny) stacks, flattened for ``matvec``/``rmatvec``; the
    forward map is the eta kernel between whitenings, and a missing
    neighbour (a hole in the band) reads the zero row appended to the
    gathered stack.
    """

    def __init__(self, chart, in_ks, out_ks, V_power=1):
        self.ch = chart
        self.in_ks = list(in_ks)
        self.out_ks = list(out_ks)
        self.V_power = V_power
        ngrid = chart.nx * chart.ny
        self.shape = (len(self.out_ks) * ngrid, len(self.in_ks) * ngrid)
        ks_out = np.array(self.out_ks)
        self._fwd_nbr = _ladder_nbr(self.in_ks, self.out_ks)
        # in-mode k is read by out-mode k+1 (its eta_+ side) and by out-mode
        # k-1 (its eta_- side)
        self._adj_nbr = _ladder_nbr(self.out_ks, self.in_ks)[::-1]
        ks_in = np.array(self.in_ks, dtype=float)[:, None, None]
        self._vmul = 1j * ks_in if V_power else None
        self._fwd_coef = _eta_coef(chart, ks_out - 1, ks_out + 1)
        # the adjoint's factors, with its whitenings (sqrt_w before the
        # sides, 1/sqrt_w and conj(V) after them) folded in: the transformed
        # parts are -dbar and -dz of e^{-lam} sqrt_w g, and the pointwise
        # parts are signed so that each side is (transformed part) +
        # coefficient * neighbour
        self._adj_in = chart.emlam * chart.sqrt_w
        self._adj_symbol = -chart.eta_symbol[::-1]
        self._adj_coef = chart.sqrt_w * np.stack(
            [-(ks_in * np.conj(chart.dz_lam) * chart.emlam),
             ks_in * np.conj(chart.dbar_lam) * chart.emlam])
        vconj = np.conj(self._vmul) if V_power else 1.0
        self._adj_out = vconj / chart.sqrt_w

    def _stack(self, x, ks):
        return x.reshape(len(ks), self.ch.nx, self.ch.ny)

    def _forward(self, h):
        """A applied to the in-mode stack h (whitened in/out)."""
        ch = self.ch
        vh = h / ch.sqrt_w
        if self._vmul is not None:
            vh = self._vmul * vh
        up, dn = _eta_sides(ch, vh, self._fwd_nbr, self._fwd_coef)
        return (up + dn) * ch.sqrt_w

    def _adjoint(self, g):
        """Exact discrete adjoint of _forward.  In unweighted l2 the adjoint
        of eta("+", k, .) is g -> -dbar(e^{-lam} g) - k conj(dz_lam) e^{-lam} g
        and that of eta("-", k, .) is g -> -dz(e^{-lam} g) + k conj(dbar_lam)
        e^{-lam} g.  The two transformed parts are summed in Fourier space,
        so one ifft2 over the in-modes serves both sides."""
        (up, dn), (s_up, s_dn) = self._adj_nbr, self._adj_symbol
        F = _with_zero_row(np.fft.fft2(self._adj_in * g, axes=(-2, -1)))
        acc = np.fft.ifft2(s_up * F[up] + s_dn * F[dn], axes=(-2, -1))
        g0 = _with_zero_row(g)
        acc += self._adj_coef[0] * g0[up] + self._adj_coef[1] * g0[dn]
        acc *= self._adj_out
        return acc

    def matvec(self, x):
        return self._forward(self._stack(x, self.in_ks)).ravel()

    def rmatvec(self, x):
        return self._adjoint(self._stack(x, self.out_ks)).ravel()

    # -- flat-symbol right preconditioner -----------------------------------
    # In Fourier space the flat-metric version of A is block-diagonal over
    # spatial frequencies (a small bidiagonal mode-coupling matrix B(xi) per
    # frequency).  Preconditioning with the full-rank Hermitian
    # N(xi) = (B^H B + eps I)^{-1/2} clusters the singular values of A N;
    # eps is tied to the size of the curvature terms (which dominate A where
    # the flat symbol degenerates, e.g. at xi = 0).  lsqr iterates on the
    # unitary Fourier coefficients y of the preconditioned unknown, h =
    # ifft2(N y), so N acts on y directly and the damped norm is that of
    # the real-space unknown.  On octagon data (n_modes 10, 48^2) the
    # interior ladder residual falls to ~2e-8 of ||w|| in ~800 iterations,
    # where lsqr's own test ||(AN)^H r|| <= LSQR_ATOL ||AN|| ||r|| stops it
    # (istop 2); istop 7 means the iteration cap was reached first.

    def _build_precond(self):
        """N(xi) as one (nx ny, n_in, n_in) stack, frequency-major.  It is
        Hermitian, so it is also its own adjoint."""
        evals, evecs = self._flat_eigh()
        inv_sqrt = evecs * (evals ** -0.5)[..., None, :]
        n_in = len(self.in_ks)
        self._N = (inv_sqrt @ np.conj(np.swapaxes(evecs, -1, -2))).reshape(
            -1, n_in, n_in)

    def _flat_eigh(self):
        """Eigen-decomposition of B(xi)^H B(xi) + eps I at every frequency
        (a helper of its own, so that B and B^H B are freed before N(xi) is
        assembled)."""
        ch = self.ch
        symbols = np.broadcast_to(ch.eta_symbol[:, 0], (2, ch.nx, ch.ny))
        elam = np.exp(-np.mean(ch.lam))
        n_in, n_out = len(self.in_ks), len(self.out_ks)
        vmul = [1j * k if self.V_power else 1.0 for k in self.in_ks]
        B = np.zeros((ch.nx, ch.ny, n_out, n_in), dtype=complex)
        for r, i in enumerate(self._fwd_nbr.ravel()):
            if i < n_in:        # row r: side r // n_out of out-mode r % n_out
                B[..., r % n_out, i] = elam * symbols[r // n_out] * vmul[i]
        G = np.conj(np.swapaxes(B, -1, -2)) @ B
        kmax = max((abs(k) for k in self.in_ks), default=1) or 1
        grad_scale = float(np.mean(np.abs(ch.dz_lam))) * elam * kmax
        eps = max(grad_scale ** 2, 1e-12 * max(float(np.abs(G).max()), 1.0))
        return np.linalg.eigh(G + eps * np.eye(n_in))

    def _precondition(self, y):
        """N(xi) frequency by frequency on the in-mode coefficients y (flat,
        or an (n_in, nx, ny) stack)."""
        cols = y.reshape(len(self.in_ks), -1).T[..., None]
        return self._stack(np.matmul(self._N, cols)[..., 0].T, self.in_ks)

    def _from_fourier(self, y):
        """The real-space unknown ifft2(N y) of the Fourier-space iterate y
        (unitary transforms, so ||y|| is the norm of the real-space y)."""
        return np.fft.ifft2(self._precondition(y), axes=(-2, -1),
                            norm="ortho")

    def precond_matvec(self, y):
        """A ifft2(N y): the preconditioned operator lsqr iterates on."""
        return self.matvec(self._from_fourier(y))

    def precond_rmatvec(self, x):
        """N fft2(A^H x): the adjoint of ``precond_matvec``."""
        g = self._stack(self.rmatvec(x), self.in_ks)
        return self._precondition(np.fft.fft2(g, axes=(-2, -1),
                                              norm="ortho")).ravel()

    def solve(self, rhs, reg=1e-10, iter_lim=400):
        """Min-norm damped least squares A h = rhs (whitened internally), for
        rhs the (len(out_ks), nx, ny) stack of the output modes.

        Returns the in-mode stack h, the squared weighted residual of each
        output mode, and lsqr's stop reason ``istop`` and iteration count."""
        from .lsqr import lsqr

        ch = self.ch
        rhs = rhs * ch.sqrt_w
        self._build_precond()
        y, istop, itn = lsqr(self.precond_matvec, self.precond_rmatvec,
                             rhs.ravel(), self.shape[1], np.sqrt(reg),
                             LSQR_ATOL, 1e-14, iter_lim)
        h = self._from_fourier(y) / ch.sqrt_w
        r2 = _rows2(self._forward(h * ch.sqrt_w) - rhs)
        return h, r2, istop, itn


def _rows2(stack):
    """Squared l2 norm of each field of a (n, nx, ny) stack."""
    return np.sum(np.abs(stack) ** 2, axis=(-2, -1))


def _relative_residual(r2, b2):
    """sqrt(sum r2 / sum b2) for the squared residuals r2 and right-hand
    sides b2 of the output modes, summed in mode order."""
    return np.sqrt(sum(r2.tolist()) / max(sum(b2.tolist()), 1e-300))


def solve_adjoint_transport(f, m=0, reg=1e-10, n_modes=None, iter_lim=400):
    """Least-squares solution of P* h = f (m = 0) or Q* h = f (m >= 1).

    P* = XV and Q* = XVT in this convention (adjoints up to sign of the
    paper's P = VX, which is what the constructions consume); h is the
    min-norm ridge minimizer over the truncation.  Returns h, the relative
    residual, and lsqr's stop as ``{"istop", "iterations"}``.  f_0 must be
    orthogonal to constants for m = 0."""
    ch = f.chart
    N = n_modes or max(8, f.n_modes + 4)
    in_ks = [k for k in range(-N, N + 1)]
    # output band includes the spillover modes +-(N+1) (reachable from the
    # band edge) with zero right-hand side, so the reported residual counts
    # truncation spillover instead of hiding it
    if m == 0:
        fa = f.get(0)
        if abs(np.sum(ch.w * fa)) > 1e-6 * np.sqrt(ch.norm2(fa) + 1e-300):
            raise ValueError("f_0 must be orthogonal to constants")
    # T: Q* leaves the output modes |k| <= m out
    out_ks = [k for k in range(-N - 1, N + 2) if m == 0 or abs(k) >= m + 1]
    rhs = np.array([f.get(k) for k in out_ks])
    h, r2, istop, itn = _LadderOperator(ch, in_ks, out_ks, V_power=1).solve(
        rhs, reg=reg, iter_lim=iter_lim)
    return (SMField.from_array(ch, h),
            _relative_residual(r2, _rows2(rhs * ch.sqrt_w)),
            {"istop": istop, "iterations": itn})


# ----------------------------------------------------------------------------
# invariant extensions


def ladder_residual(w):
    """Per-mode transport residuals ||eta_+ w_{k-1} + eta_- w_{k+1}||.

    Modes k with |k| in {N-1, N} are truncation-affected and flagged."""
    N = w.n_modes
    up, dn = _x_sides(w, N - 1)
    res = np.sqrt(w.chart.norm2(up + dn))
    return {k: {"residual": r, "truncation_affected": abs(k) >= N - 1}
            for k, r in zip(range(-N + 1, N), res)}


def _ladder_blocks(free, out_ks):
    """The connected components of the ladder graph, in which out mode k
    joins the free modes k - 1 and k + 1: one (free rows, out rows) pair of
    index lists per component, in order of first free mode.  Each is a least
    squares problem of its own.  An out mode with no free neighbour reads
    only prescribed modes and belongs to no component."""
    root = {k: k for k in free}

    def find(k):
        while root[k] != k:
            k = root[k]
        return k
    for k in out_ks:
        if k - 1 in root and k + 1 in root:
            root[find(k + 1)] = find(k - 1)
    blocks = {}
    for i, k in enumerate(free):
        blocks.setdefault(find(k), ([], []))[0].append(i)
    for i, k in enumerate(out_ks):
        nbr = [j for j in (k - 1, k + 1) if j in root]
        if nbr:
            blocks[find(nbr[0])][1].append(i)
    return list(blocks.values())


def _n_workers(n_tasks):
    """Threads for n_tasks independent solves: at most one per task and
    one per CPU this process may run on."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return min(n_tasks, cpus)


def _map_threads(fn, tasks):
    """[fn(t) for t in tasks], the tasks run at once on _n_workers threads
    (numpy's FFTs and ufuncs release the GIL)."""
    workers = _n_workers(len(tasks))
    if workers < 2:
        return [fn(t) for t in tasks]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, tasks))


def _mode(data, k):
    """Mode k of an SMField, or a grid as it is."""
    return data.get(k) if isinstance(data, SMField) else data


def invariant_extension(data, variant="w0", n_modes=16, reg=1e-10,
                        iter_lim=None):
    """Construct w with Xw ~ 0 and prescribed low modes.

    variant "w0": data is a mode-0 SMField f; w has even modes, w_0 = f.
    variant "w1": data is (a_minus1, a_1) or a single a_1 (with eta_- a_1 = 0);
        w has odd modes with w_{+-1} prescribed.
    variant "wm": data is (q_m, m) with eta_- q_m = 0; w is supported on
        k = m, m+2, ... with w_m = q_m.

    The free modes minimize ||Xw|| (ridge-regularized least squares); the
    prescribed modes are matched exactly by construction.  The prescribed
    modes cut the ladder into independent problems (for w0 and two-sided w1,
    the k > 0 and the k < 0 modes), solved at once on up to one thread each.
    Returns (w, diag) with the interior ladder residuals, the mode-decay
    slope, and lsqr's stop: ``solver_blocks`` holds each problem's out modes,
    ``istop`` and ``iterations``; ``solver_istop`` is 7 if any problem hit
    the cap ``solver_iter_lim``, else the largest istop (2 is the normal
    stop), and ``solver_iterations`` the largest count (None and 0 when no
    mode is free).  ``solver_residual`` is relative over all out modes."""
    if variant == "w0":
        f = data
        ch = f.chart
        fixed_ks, fixed = [0], [f.get(0)]
        free = [k for k in range(-n_modes, n_modes + 1) if k % 2 == 0 and k != 0]
        out_ks = [k for k in range(-n_modes + 1, n_modes) if abs(k) % 2 == 1]
    elif variant == "w1":
        am1, a1 = data if isinstance(data, tuple) else (None, data)
        ch = a1.chart if hasattr(a1, "chart") else am1.chart
        fixed_ks, fixed = [1], [_mode(a1, 1)]
        if am1 is not None:
            fixed_ks, fixed = [1, -1], fixed + [_mode(am1, -1)]
        free = [k for k in range(-n_modes, n_modes + 1)
                if abs(k) % 2 == 1 and k not in fixed_ks and
                (am1 is not None or k > 0)]
        out_ks = [k for k in range(-n_modes + 1, n_modes) if k % 2 == 0]
        if am1 is None:
            out_ks = [k for k in out_ks if k >= 0]
    elif variant == "wm":
        q_m, m = data
        ch = q_m.chart
        fixed_ks, fixed = [m], [_mode(q_m, m)]
        free = [k for k in range(m + 2, n_modes + 1) if (k - m) % 2 == 0]
        out_ks = [k for k in range(m - 1, n_modes) if (k - m) % 2 == 1]
    else:
        raise ValueError(f"unknown variant {variant!r}")

    fixed = np.array(fixed, dtype=complex)
    # rhs: -X(fixed part) on the output band
    ks = np.array(out_ks)
    rhs = -np.add(*_eta_sides(ch, fixed, _ladder_nbr(fixed_ks, out_ks),
                              _eta_coef(ch, ks - 1, ks + 1)))
    iter_lim = iter_lim or max(400, 100 * n_modes)
    blocks = _ladder_blocks(free, out_ks)

    def solve(block):
        free_rows, out_rows = block
        op = _LadderOperator(ch, [free[i] for i in free_rows],
                             [out_ks[i] for i in out_rows], V_power=0)
        return op.solve(rhs[out_rows], reg=reg, iter_lim=iter_lim)

    solved = _map_threads(solve, blocks)
    h = np.zeros((len(free), ch.nx, ch.ny), dtype=complex)
    b2 = _rows2(rhs * ch.sqrt_w)
    r2 = b2.copy()      # an out mode in no block keeps |rhs|^2
    for (free_rows, out_rows), (h_b, r2_b, _, _) in zip(blocks, solved):
        h[free_rows] = h_b
        r2[out_rows] = r2_b
    if free:
        resid = _relative_residual(r2, b2)
    else:
        resid = np.sqrt(float(np.sum(ch.norm2(rhs))))
    solver_blocks = [{"out_modes": [out_ks[i] for i in out_rows],
                      "istop": istop, "iterations": itn}
                     for (_, out_rows), (_, _, istop, itn) in zip(blocks,
                                                                  solved)]
    w = SMField(ch, n_modes=n_modes)
    w.data[np.array(fixed_ks) + n_modes] = fixed
    w.data[np.array(free, dtype=int) + n_modes] = h
    lad = ladder_residual(w)
    interior = {k: v["residual"] for k, v in lad.items()
                if not v["truncation_affected"]}
    # mode-decay slope: log ||w_k|| vs log <k>
    nk = np.sqrt(ch.norm2(w.data))
    pos = (w.ks > 0) & (nk > 1e-300)
    ks, ns = 0.5 * np.log(1.0 + w.ks[pos] ** 2.0), np.log(nk[pos])
    slope = float(np.polyfit(ks, ns, 1)[0]) if len(ks) > 1 else 0.0
    diag = {"solver_residual": resid, "ladder": lad,
            "interior_max": max(interior.values()) if interior else 0.0,
            "w_norm": norm(w), "mode_decay_slope": slope,
            # 7 (the cap) is lsqr's largest istop, so it wins the max
            "solver_istop": max((b["istop"] for b in solver_blocks),
                                default=None),
            "solver_iterations": max((b["iterations"] for b in solver_blocks),
                                     default=0),
            "solver_iter_lim": iter_lim, "solver_blocks": solver_blocks}
    return w, diag


# ----------------------------------------------------------------------------
# the product of invariant holomorphic distributions


def fourier_product(u, v, s=1.0, t=1.0):
    """w_k = sum_{j=0}^{k} u_j v_{k-j} for holomorphic (modes >= 0) fields.

    Computed on a 2x-refined chart so the mode products stay below the
    spatial Nyquist band; reports the per-mode L^1 ratio against
    <k>^{s+t} ||u||_{L2 H^{-s}} ||v||_{L2 H^{-t}} and, for transport-invariant
    inputs, the interior residual of Xw."""
    Nu, Nv = u.n_modes, v.n_modes
    if np.any(u.data[:Nu]) or np.any(v.data[:Nv]):
        raise ValueError("inputs must be holomorphic (modes k >= 0)")
    ch = u.chart
    fine = ch.refine()
    U, V = (SMField.from_array(fine, ch.upsample(f.data)) for f in (u, v))
    N = Nu + Nv
    w = SMField(fine, n_modes=N)
    for j in range(Nu + 1):
        w.data[N + j:N + j + Nv + 1] += U.data[Nu + j] * V.data[Nv:]
    Uu, Vv = mixed_norm(U, -s), mixed_norm(V, -t)
    l1 = np.sum(fine.w * np.abs(w.data[N:]), axis=(-2, -1))
    denom = (1.0 + np.arange(N + 1) ** 2.0) ** ((s + t) / 2.0) * Uu * Vv
    ratios = dict(enumerate(np.divide(l1, denom, out=np.zeros_like(l1),
                                      where=denom > 0).tolist()))
    lad = ladder_residual(w)
    interior = [val["residual"] for key, val in lad.items()
                if not val["truncation_affected"] and key >= 0]
    report = {"l1_ratios": ratios, "max_l1_ratio": max(ratios.values()),
              "interior_X_residual": max(interior) if interior else 0.0,
              "w_norm": norm(w)}
    return w, report
