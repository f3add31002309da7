"""Fourier analysis on the unit sphere bundle.

A function u on SM is stored as vertical Fourier modes u_k(x, y), |k| <=
N_modes, over a conformal chart.  The frame acts mode-wise:

    V  -> multiplication by ik
    eta_minus (k -> k-1):  e^{-lam} (dbar h + k (dbar lam) h)
    eta_plus  (k -> k+1):  e^{-lam} (dz h   - k (dz lam)  h)
    X = eta_plus + eta_minus,   X_perp = -i (eta_plus - eta_minus)

Spatial derivatives are spectral on the periodic chart grid.  The inner
product is the SM volume: (u, v) = sum_k int u_k conj(v_k) e^{2 lam} dx dy
times 2 pi (the fiber integral), and all norms below use it.
"""

import numpy as np

from .geometry import ConformalTorus, ConstantCurvature, FuchsianOctagon, TWO_PI


class Chart:
    """Periodic conformal chart: lam on an n x n grid with spectral calculus.

    ``grads``/``K`` may be supplied analytically (needed when lam itself is
    not periodic on the box, e.g. a disk patch); otherwise they are computed
    spectrally from the lam grid.
    """

    def __init__(self, lam_grid, Lx, Ly, grads=None, K=None):
        self.lam = np.asarray(lam_grid, dtype=float)
        self.nx, self.ny = self.lam.shape
        self.Lx, self.Ly = float(Lx), float(Ly)
        kx = TWO_PI * np.fft.fftfreq(self.nx, d=self.Lx / self.nx)
        ky = TWO_PI * np.fft.fftfreq(self.ny, d=self.Ly / self.ny)
        self._ikx = 1j * kx[:, None]
        self._iky = 1j * ky[None, :]
        if grads is None:
            F = np.fft.fft2(self.lam)
            lam_x = np.real(np.fft.ifft2(self._ikx * F))
            lam_y = np.real(np.fft.ifft2(self._iky * F))
        else:
            lam_x, lam_y = grads
        self.lam_x, self.lam_y = lam_x, lam_y
        self.dz_lam = 0.5 * (lam_x - 1j * lam_y)
        self.dbar_lam = 0.5 * (lam_x + 1j * lam_y)
        if K is None:
            F = np.fft.fft2(self.lam)
            lap = np.real(np.fft.ifft2((self._ikx ** 2 + self._iky ** 2) * F))
            K = -np.exp(-2.0 * self.lam) * lap
        self.K = np.asarray(K, dtype=float) if np.ndim(K) else np.full_like(self.lam, float(K))
        self.emlam = np.exp(-self.lam)
        cell = (self.Lx / self.nx) * (self.Ly / self.ny)
        self.w = np.exp(2.0 * self.lam) * cell * TWO_PI   # d(SM) quadrature weight
        self.sqrt_w = np.sqrt(self.w)

    @classmethod
    def from_torus(cls, model, n=None):
        if n is None or n == model.nx:
            lam = model.lam_grid
            n = model.nx
        else:
            lam = model.resample(n)
        return cls(lam, model.Lx, model.Ly)

    @classmethod
    def disk_patch(cls, model, half_width=1.0, n=128):
        """Box chart [-L/2, L/2]^2 around a constant-curvature/octagon chart
        center; lam and its calculus are analytic (lam is not box-periodic, so
        only compactly supported fields should live here)."""
        lim = np.inf
        if isinstance(model, FuchsianOctagon):
            lim = 1.0
        elif isinstance(model, ConstantCurvature) and model.K0 < 0:
            lim = 1.0 / np.sqrt(-model.K0)
        if half_width * np.sqrt(2.0) >= lim:
            raise ValueError("box corners leave the model's chart domain; "
                             f"need half_width < {lim / np.sqrt(2.0):.4f}")
        L = 2.0 * half_width
        xs = -half_width + np.arange(n) * (L / n)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        lam, lam_x, lam_y = model.lam_and_grad(X, Y)
        K = model.curvature_at((0.0, 0.0))
        return cls(np.broadcast_to(lam, X.shape).copy(), L, L,
                   grads=(np.broadcast_to(lam_x, X.shape).copy(),
                          np.broadcast_to(lam_y, X.shape).copy()), K=K)

    # -- spectral calculus --------------------------------------------------

    def dx(self, f):
        return np.fft.ifft2(self._ikx * np.fft.fft2(f))

    def dy(self, f):
        return np.fft.ifft2(self._iky * np.fft.fft2(f))

    def dz(self, f):
        return np.fft.ifft2(0.5 * (self._ikx - 1j * self._iky) * np.fft.fft2(f))

    def dbar(self, f):
        return np.fft.ifft2(0.5 * (self._ikx + 1j * self._iky) * np.fft.fft2(f))

    def inner(self, f, g):
        return complex(np.sum(self.w * f * np.conj(g)))

    def norm2(self, f):
        return float(np.sum(self.w * np.abs(f) ** 2))

    def refine(self, factor=2):
        """Chart at a factor-refined grid by trigonometric interpolation."""
        n = self.nx * factor
        F = np.fft.fft2(self.lam)
        out = np.zeros((n, self.ny * factor), dtype=complex)
        ix = np.fft.fftfreq(self.nx, 1.0 / self.nx).astype(int)
        iy = np.fft.fftfreq(self.ny, 1.0 / self.ny).astype(int)
        out[np.ix_(ix, iy)] = F
        lam = np.real(np.fft.ifft2(out)) * factor * factor
        return Chart(lam, self.Lx, self.Ly)

    def upsample(self, f, factor=2):
        F = np.fft.fft2(f)
        n1, n2 = self.nx * factor, self.ny * factor
        out = np.zeros((n1, n2), dtype=complex)
        ix = np.fft.fftfreq(self.nx, 1.0 / self.nx).astype(int)
        iy = np.fft.fftfreq(self.ny, 1.0 / self.ny).astype(int)
        out[np.ix_(ix, iy)] = F
        return np.fft.ifft2(out) * factor * factor


# ----------------------------------------------------------------------------
# SMField


class SMField:
    """Truncated vertical Fourier expansion u = sum_k u_k(x) e^{i k theta}."""

    def __init__(self, chart, modes=None, n_modes=None):
        self.chart = chart
        self.modes = {}
        if modes:
            for k, arr in modes.items():
                self.modes[int(k)] = np.asarray(arr, dtype=complex)
        self.n_modes = n_modes if n_modes is not None else \
            (max((abs(k) for k in self.modes), default=0))

    def get(self, k):
        arr = self.modes.get(k)
        if arr is None:
            return np.zeros((self.chart.nx, self.chart.ny), dtype=complex)
        return arr

    def set(self, k, arr):
        self.modes[int(k)] = np.asarray(arr, dtype=complex)
        self.n_modes = max(self.n_modes, abs(int(k)))

    @classmethod
    def random_real(cls, chart, n_modes, spatial_band=4, rng=None, decay=0.0):
        """Band-limited random real field: modes |k| <= n_modes with spatial
        frequencies |m|, |n| <= spatial_band, conj-symmetrized."""
        rng = rng or np.random.default_rng()
        xs = np.arange(chart.nx) * (chart.Lx / chart.nx)
        ys = np.arange(chart.ny) * (chart.Ly / chart.ny)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        out = cls(chart, n_modes=n_modes)
        for k in range(0, n_modes + 1):
            h = np.zeros_like(X, dtype=complex)
            amp = np.exp(-decay * abs(k))
            for m in range(-spatial_band, spatial_band + 1):
                for n in range(-spatial_band, spatial_band + 1):
                    c = (rng.normal() + 1j * rng.normal()) * amp
                    h += c * np.exp(1j * (m * TWO_PI * X / chart.Lx +
                                          n * TWO_PI * Y / chart.Ly))
            out.set(k, h)
            if k > 0:
                out.set(-k, np.conj(h))
            else:
                out.set(0, h + np.conj(h))
        return out


# ----------------------------------------------------------------------------
# frame operators


def eta(sign, k, h, chart):
    """eta_+/- applied to the mode-k coefficient field h."""
    if sign in ("-", -1):
        return chart.emlam * (chart.dbar(h) + k * chart.dbar_lam * h)
    if sign in ("+", 1):
        return chart.emlam * (chart.dz(h) - k * chart.dz_lam * h)
    raise ValueError("sign must be '+' or '-'")


def apply_frame(op, u, truncate=None):
    """Apply X, X_perp or V to an SMField.

    X and X_perp shift modes by +/-1; the output band grows to n_modes + 1
    unless ``truncate`` caps it."""
    ch = u.chart
    if op == "V":
        return SMField(ch, {k: 1j * k * v for k, v in u.modes.items()},
                       u.n_modes)
    if op not in ("X", "Xperp"):
        raise ValueError("op must be one of 'X', 'Xperp', 'V'")
    N = u.n_modes + 1 if truncate is None else truncate
    out = SMField(ch, n_modes=N)
    ks = set()
    for k in u.modes:
        ks.update((k - 1, k + 1))
    for k in ks:
        if abs(k) > N:
            continue
        up = eta("+", k - 1, u.get(k - 1), ch)
        dn = eta("-", k + 1, u.get(k + 1), ch)
        out.set(k, up + dn if op == "X" else -1j * (up - dn))
    return out


def inner(u, v):
    tot = 0.0 + 0.0j
    for k in set(u.modes) | set(v.modes):
        tot += u.chart.inner(u.get(k), v.get(k))
    return tot


def norm2(u):
    return float(sum(u.chart.norm2(v) for v in u.modes.values()))


def norm(u):
    return np.sqrt(norm2(u))


def h1_norm2(u):
    return (norm2(apply_frame("X", u)) + norm2(apply_frame("Xperp", u))
            + norm2(apply_frame("V", u)) + norm2(u))


def mixed_norm(u, s):
    """L^2_x H^s_theta norm: (sum_k <k>^{2s} ||u_k||^2)^{1/2}."""
    tot = 0.0
    for k, v in u.modes.items():
        tot += (1.0 + k * k) ** s * u.chart.norm2(v)
    return np.sqrt(tot)


# ----------------------------------------------------------------------------
# Pestov identity


def pestov_residual(u, chart=None):
    """|  ||XVu||^2 - (K Vu, Vu) + ||Xu||^2 - ||VXu||^2  | / ||u||_{H^1}^2."""
    ch = chart or u.chart
    Vu = apply_frame("V", u)
    XVu = apply_frame("X", Vu)
    Xu = apply_frame("X", u)
    VXu = apply_frame("V", Xu)
    KVV = sum(np.real(ch.inner(ch.K * v, v)) for v in Vu.modes.values())
    lhs = norm2(XVu) - KVV + norm2(Xu) - norm2(VXu)
    return abs(lhs) / h1_norm2(u)


# ----------------------------------------------------------------------------
# alpha-controlled estimate


def _deflate_gep(A, B, cutoff=1e-10):
    """Smallest eigenvalue of A v = mu B v after projecting out B's
    near-null space (constants etc.)."""
    from scipy.linalg import eigh

    evals, evecs = eigh(B)
    keep = evals > cutoff * max(evals.max(), 1e-300)
    if not np.any(keep):
        raise ValueError("test space entirely in the null space of ||X.||^2")
    W = evecs[:, keep]
    Ar = W.conj().T @ A @ W
    Br = W.conj().T @ B @ W
    mus = eigh(Ar, Br, eigvals_only=True)
    return float(mus[0])


def alpha_lower_bound(model, n_modes=3, spatial_band=2, n_grid=48):
    """alpha-hat = min over a band-limited test space of
    (||X psi||^2 - (K psi, psi)) / ||X psi||^2.

    Tori assemble the forms over plane-wave x vertical-mode test functions;
    the octagon assembles them over windowed plane waves on a
    fundamental-domain chart (the window keeps the test fields supported
    inside the octagon, so they are genuine fields on the surface);
    constant-curvature models reduce algebraically (K constant)."""
    if isinstance(model, FuchsianOctagon):
        ch = Chart.disk_patch(model, half_width=0.55, n=n_grid)
        return _alpha_gep_on_chart(ch, n_modes, spatial_band,
                                   window=_patch_window(ch))
    if isinstance(model, ConstantCurvature):
        # (K psi, psi) = K0 ||psi||^2, so the Rayleigh quotient is
        # 1 - K0 ||psi||^2 / ||X psi||^2; for K0 <= 0 the infimum over any
        # growing test space is 1 (high-frequency psi), the 1-controlled bound
        if model.K0 <= 0:
            return 1.0
        raise ValueError("positively curved constant models are not "
                         "alpha-controlled for any alpha > 0 on large spaces")
    ch = Chart.from_torus(model, n_grid)
    return _alpha_gep_on_chart(ch, n_modes, spatial_band)


def _patch_window(ch, support_frac=0.95, max_radius=0.62):
    """Smooth radial bump on a box chart, vanishing with all derivatives at
    the support radius (kept inside the octagon's inscribed circle)."""
    hw = 0.5 * ch.Lx
    r0 = min(support_frac * hw, max_radius)
    xs = -hw + np.arange(ch.nx) * (ch.Lx / ch.nx)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    t = (X ** 2 + Y ** 2) / r0 ** 2
    out = np.zeros_like(t)
    inside = t < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside]))
    return out


def octagon_mode0_field(model, rng=None, spatial_band=2, half_width=0.55,
                        n=48):
    """A random real mode-0 SMField compactly supported inside the octagon,
    on a fundamental-domain box chart (window x low trig polynomial)."""
    rng = rng or np.random.default_rng()
    ch = Chart.disk_patch(model, half_width=half_width, n=n)
    win = _patch_window(ch)
    xs = np.arange(ch.nx) * (ch.Lx / ch.nx)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    f0 = np.zeros_like(win, dtype=complex)
    for m in range(-spatial_band, spatial_band + 1):
        for nn in range(-spatial_band, spatial_band + 1):
            c = rng.normal() + 1j * rng.normal()
            f0 += c * np.exp(1j * TWO_PI * (m * X / ch.Lx + nn * Y / ch.Ly))
    f0 = 0.5 * (f0 + np.conj(f0)) * win
    return SMField(ch, {0: f0})


def _alpha_gep_on_chart(ch, n_modes, spatial_band, window=None):
    xs = np.arange(ch.nx) * (ch.Lx / ch.nx)
    ys = np.arange(ch.ny) * (ch.Ly / ch.ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    basis = []
    for k in range(-n_modes, n_modes + 1):
        for m in range(-spatial_band, spatial_band + 1):
            for n in range(-spatial_band, spatial_band + 1):
                h = np.exp(1j * (m * TWO_PI * X / ch.Lx + n * TWO_PI * Y / ch.Ly))
                if window is not None:
                    h = h * window
                basis.append((k, h))
    Xb = []
    for k, h in basis:
        f = SMField(ch, {k: h})
        Xb.append(apply_frame("X", f))
    d = len(basis)
    A = np.zeros((d, d), dtype=complex)
    B = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(i, d):
            gx = inner(Xb[i], Xb[j])
            ki, hi = basis[i]
            kj, hj = basis[j]
            gk = ch.inner(ch.K * hi, hj) if ki == kj else 0.0
            B[i, j] = gx
            A[i, j] = gx - gk
            if j > i:
                B[j, i] = np.conj(gx)
                A[j, i] = np.conj(A[i, j])
    return _deflate_gep(A, B)


def alpha_lower_bound_profile(profile, n_freq=48):
    """Along-geodesic alpha estimate for a 1-D curvature profile:
    min of (||psi'||^2 - int K |psi|^2) / ||psi'||^2 over band-limited
    periodic psi (constants deflated).  Fourier assembly: |psi'|^2 is
    diagonal, the K term is the Toeplitz matrix of K's Fourier coefficients."""
    T = profile.T
    ngrid = 8 * n_freq
    ts = np.arange(ngrid) * (T / ngrid)
    Khat = np.fft.fft(profile(ts)) / ngrid
    js = np.arange(-n_freq, n_freq + 1)
    om = TWO_PI * js / T
    d = len(js)
    Kmat = np.empty((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            Kmat[i, j] = Khat[(js[j] - js[i]) % ngrid]
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
    return SMField(u.chart, {k: v for k, v in Pu.modes.items() if abs(k) >= m + 1},
                   Pu.n_modes)


def q1_identity_gap(u, m):
    """| ||Pu||^2 - sum_{|k|<=m} k^2 ||(Xu)_k||^2 - ||Qu||^2 | (exact
    bookkeeping: should be machine zero)."""
    Xu = apply_frame("X", u)
    Pu = p_operator(u)
    Qu = q_operator(u, m)
    low = sum(k * k * u.chart.norm2(Xu.get(k)) for k in range(-m, m + 1))
    return abs(norm2(Pu) - low - norm2(Qu))


def verify_quantitative_inequality(u, m, alpha_hat, tol=1e-8):
    """Both sides of the alpha-controlled lower bound for ||Qu||^2 on fields
    supported in |k| >= m; returns the slack (lhs - rhs, should be >= -tol)."""
    if any(abs(k) < m for k in u.modes if np.any(u.get(k))):
        raise ValueError(f"u must be supported on |k| >= {m}")
    ch = u.chart
    Qu = q_operator(u, m)
    Xu = apply_frame("X", u)
    XVu = apply_frame("X", apply_frame("V", u))
    em1 = ch.norm2(eta("-", m + 1, u.get(m + 1), ch))
    ep1 = ch.norm2(eta("+", -(m + 1), u.get(-(m + 1)), ch))
    em0 = ch.norm2(eta("-", m, u.get(m), ch))
    ep0 = ch.norm2(eta("+", -m, u.get(-m), ch))
    v2 = sum(ch.norm2(Xu.get(k)) for k in Xu.modes if abs(k) >= m + 1)
    w2 = sum(ch.norm2(XVu.get(k)) for k in XVu.modes if abs(k) >= m + 1)
    c1 = 1.0 - m ** 2 + alpha_hat * (m + 1) ** 2
    c2 = 1.0 - (m - 1) ** 2 + alpha_hat * m ** 2
    lhs = norm2(Qu)
    rhs = c1 * (em1 + ep1) + c2 * (em0 + ep0) + alpha_hat * w2 + v2
    return {"lhs": lhs, "rhs": rhs, "slack": lhs - rhs,
            "coefficients": (c1, c2), "ok": lhs - rhs >= -tol * max(1.0, lhs)}


# ----------------------------------------------------------------------------
# transport least squares (grid path)


class _LadderOperator:
    """Exact-adjoint discretization of h -> A h in whitened coordinates.

    ``kind`` selects A: "P*" is XV, "Q*" is XVT (T projecting |k| >= m+1),
    "X" is plain X with prescribed-mode holes (used by invariant_extension:
    unknowns are the free modes, fixed modes enter the right-hand side).
    Input band: modes in ``in_ks``; output band: modes in ``out_ks``.

    Fields are stacks of shape (n_modes, nx, ny), one row per mode of the
    band, so each product is one fft2 and one ifft2 over a whole stack.  The
    ladder neighbours of each mode are gathered by index arrays; a missing
    neighbour (a hole in the band, or an output below ``T_floor``) points at
    the zero row appended to the gathered stack.
    """

    def __init__(self, chart, in_ks, out_ks, V_power=1, T_floor=None):
        self.ch = chart
        self.in_ks = list(in_ks)
        self.out_ks = list(out_ks)
        self.V_power = V_power
        self.T_floor = T_floor
        self.ngrid = chart.nx * chart.ny
        self.shape = (2 * len(self.out_ks) * self.ngrid,
                      2 * len(self.in_ks) * self.ngrid)
        n_in, n_out = len(self.in_ks), len(self.out_ks)
        ipos = {k: i for i, k in enumerate(self.in_ks)}
        opos = {k: a for a, k in enumerate(self.out_ks)
                if self.T_floor is None or abs(k) >= self.T_floor}
        # Neighbour rows, the k-1 side first and the k+1 side second:
        # out-mode k reads in-modes k-1 and k+1, in-mode k is read by
        # out-modes k+1 and k-1.  Index n_in (n_out) is the zero row.
        self._fwd_nbr = np.array(
            [ipos.get(k - 1, n_in) if k in opos else n_in for k in self.out_ks]
            + [ipos.get(k + 1, n_in) if k in opos else n_in
               for k in self.out_ks], dtype=int)
        self._adj_nbr = np.array([opos.get(k + 1, n_out) for k in self.in_ks]
                                 + [opos.get(k - 1, n_out) for k in self.in_ks],
                                 dtype=int)
        ks_out = np.array(self.out_ks, dtype=float)[:, None, None]
        ks_in = np.array(self.in_ks, dtype=float)[:, None, None]
        self._vmul = 1j * ks_in if V_power else None
        SZ = 0.5 * (chart._ikx - 1j * chart._iky)   # symbols of dz, dbar
        SB = 0.5 * (chart._ikx + 1j * chart._iky)
        self._fwd_symbol = np.stack([SZ, SB])[:, None]
        self._adj_symbol = np.stack([SB, SZ])[:, None]
        # pointwise parts of eta_+/- and of their adjoints, signed so that
        # each side is (transformed part) + coefficient * neighbour
        self._fwd_coef = np.concatenate([-(ks_out - 1) * chart.dz_lam,
                                         (ks_out + 1) * chart.dbar_lam])
        self._adj_coef = np.concatenate(
            [-(ks_in * np.conj(chart.dz_lam) * chart.emlam),
             ks_in * np.conj(chart.dbar_lam) * chart.emlam])

    # real <-> complex packing (lsqr works on real vectors): mode i owns
    # block i of x, its real part then its imaginary part
    def _unpack(self, x):
        blocks = x.reshape(-1, 2, self.ch.nx, self.ch.ny)
        out = np.empty((len(blocks), self.ch.nx, self.ch.ny), dtype=complex)
        out.real = blocks[:, 0]
        out.imag = blocks[:, 1]
        return out

    @staticmethod
    def _pack(stack):
        out = np.empty((len(stack), 2) + stack.shape[1:])
        out[:, 0] = stack.real
        out[:, 1] = stack.imag
        return out.ravel()

    @staticmethod
    def _with_zero_row(stack):
        return np.concatenate([stack, np.zeros((1,) + stack.shape[1:],
                                               dtype=stack.dtype)])

    # Complex products below keep the operand order of a per-mode loop.  A
    # complex product with fused multiply-adds is not bitwise commutative,
    # and numpy swaps the operands of ``a * b`` when it reuses a large
    # temporary b as the output; hence np.multiply where b is a temporary.

    def _spectral(self, src, nbr, symbol):
        """ifft2(symbol * fft2(src)[nbr]) with rows [0, n) on the k-1 side
        and [n, 2n) on the k+1 side.  The two sides are transformed apart
        and summed afterwards, in the order of a per-mode eta loop, so the
        products round exactly as mode by mode."""
        F = self._with_zero_row(np.fft.fft2(src, axes=(-2, -1)))
        n, grid = len(nbr) // 2, F.shape[1:]
        Fn = np.multiply(symbol, F[nbr].reshape((2, n) + grid))
        return np.fft.ifft2(Fn.reshape((2 * n,) + grid), axes=(-2, -1))

    def _forward(self, h):
        """A applied to the in-mode stack h (whitened in/out)."""
        ch, nbr = self.ch, self._fwd_nbr
        vh = h / ch.sqrt_w
        if self._vmul is not None:
            vh = self._vmul * vh
        d = self._spectral(vh, nbr, self._fwd_symbol)
        p = np.multiply(self._fwd_coef, self._with_zero_row(vh)[nbr])
        eta_pm = ch.emlam * (d + p)
        n = len(self.out_ks)
        return (eta_pm[:n] + eta_pm[n:]) * ch.sqrt_w

    def _adjoint(self, g):
        """Exact discrete adjoint of _forward.  In unweighted l2 the adjoint
        of eta("+", k, .) is g -> -dbar(e^{-lam} g) - k conj(dz_lam) e^{-lam} g
        and that of eta("-", k, .) is g -> -dz(e^{-lam} g) + k conj(dbar_lam)
        e^{-lam} g."""
        ch, nbr = self.ch, self._adj_nbr
        t = ch.sqrt_w * g
        d = self._spectral(ch.emlam * t, nbr, self._adj_symbol)
        adj_pm = -d + np.multiply(self._adj_coef, self._with_zero_row(t)[nbr])
        n = len(self.in_ks)
        acc = adj_pm[:n] + adj_pm[n:]
        if self._vmul is not None:
            acc = np.conj(self._vmul) * acc
        return acc / ch.sqrt_w

    def matvec(self, x):
        return self._pack(self._forward(self._unpack(x)))

    def rmatvec(self, x):
        return self._pack(self._adjoint(self._unpack(x)))

    # -- flat-symbol right preconditioner -----------------------------------
    # In Fourier space the flat-metric version of A is block-diagonal over
    # spatial frequencies (a small bidiagonal mode-coupling matrix B(xi) per
    # frequency).  Preconditioning with the full-rank Hermitian
    # N(xi) = (B^H B + eps I)^{-1/2} clusters the singular values of A N;
    # eps is tied to the size of the curvature terms (which dominate A where
    # the flat symbol degenerates, e.g. at xi = 0).  lsqr still runs to its
    # iteration cap: on octagon data (n_modes 10, 48^2) the interior ladder
    # residual is ~1e-3 of ||w|| after 400 iterations and ~2e-8 after 800,
    # where it stalls, and atol = btol = 1e-14 is never met (istop 7).

    def _build_precond(self):
        evals, evecs = self._flat_eigh()
        inv_sqrt = evecs * (evals ** -0.5)[..., None, :]
        # Hermitian by construction, so it is also its own adjoint
        self._M = inv_sqrt @ np.conj(np.swapaxes(evecs, -1, -2))

    def _flat_eigh(self):
        """Eigen-decomposition of B(xi)^H B(xi) + eps I at every frequency
        (a helper of its own, so that B and B^H B are freed before N(xi) is
        assembled)."""
        ch = self.ch
        symbols = np.broadcast_to(self._fwd_symbol[:, 0], (2, ch.nx, ch.ny))
        elam = np.exp(-np.mean(ch.lam))
        n_in, n_out = len(self.in_ks), len(self.out_ks)
        vmul = [1j * k if self.V_power else 1.0 for k in self.in_ks]
        B = np.zeros((ch.nx, ch.ny, n_out, n_in), dtype=complex)
        for r, i in enumerate(self._fwd_nbr):
            if i < n_in:        # row r: side r // n_out of out-mode r % n_out
                B[..., r % n_out, i] = elam * symbols[r // n_out] * vmul[i]
        G = np.conj(np.swapaxes(B, -1, -2)) @ B
        kmax = max((abs(k) for k in self.in_ks), default=1) or 1
        grad_scale = float(np.mean(np.abs(ch.dz_lam))) * elam * kmax
        eps = max(grad_scale ** 2, 1e-12 * max(float(np.abs(G).max()), 1.0))
        return np.linalg.eigh(G + eps * np.eye(n_in))

    def _precondition(self, h):
        """N(xi) applied frequency by frequency to the in-mode stack h."""
        Y = np.fft.fft2(h, axes=(-2, -1))
        return np.fft.ifft2(np.einsum("xyij,jxy->ixy", self._M, Y),
                            axes=(-2, -1))

    def solve(self, rhs_fields, reg=1e-10, iter_lim=400):
        """Min-norm damped least squares A h = rhs (whitened internally).

        Returns the mode dict h, the relative residual, and lsqr's stop
        reason ``istop`` and iteration count."""
        from scipy.sparse.linalg import lsqr, LinearOperator

        ch = self.ch
        rhs = np.zeros((len(self.out_ks), ch.nx, ch.ny), dtype=complex)
        for a, k in enumerate(self.out_ks):
            if k in rhs_fields:
                rhs[a] = rhs_fields[k] * ch.sqrt_w
        self._build_precond()

        def mv(y):
            return self.matvec(self._pack(self._precondition(self._unpack(y))))

        def rmv(x):
            return self._pack(self._precondition(self._unpack(self.rmatvec(x))))

        AM = LinearOperator(self.shape, matvec=mv, rmatvec=rmv)
        res = lsqr(AM, self._pack(rhs), damp=np.sqrt(reg), atol=1e-14,
                   btol=1e-14, iter_lim=iter_lim)
        h = self._precondition(self._unpack(res[0])) / ch.sqrt_w
        # relative residual norm in the weighted inner product
        d = self._forward(h * ch.sqrt_w) - rhs
        r2 = sum(float(np.sum(np.abs(dk) ** 2)) for dk in d)
        b2 = sum(float(np.sum(np.abs(bk) ** 2)) for bk in rhs)
        return (dict(zip(self.in_ks, h)), np.sqrt(r2 / max(b2, 1e-300)),
                int(res[1]), int(res[2]))


def solve_adjoint_transport(f, m=0, reg=1e-10, n_modes=None, iter_lim=400):
    """Least-squares solution of P* h = f (m = 0) or Q* h = f (m >= 1).

    P* = XV and Q* = XVT in this convention (adjoints up to sign of the
    paper's P = VX, which is what the constructions consume); h is the
    min-norm ridge minimizer over the truncation and the residual is
    reported.  f_0 must be orthogonal to constants for m = 0."""
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
        out_ks = [k for k in range(-N - 1, N + 2)]
        op = _LadderOperator(ch, in_ks, out_ks, V_power=1)
    else:
        out_ks = [k for k in range(-N - 1, N + 2) if abs(k) >= m + 1]
        op = _LadderOperator(ch, in_ks, out_ks, V_power=1, T_floor=m + 1)
    h, resid, _, _ = op.solve({k: f.get(k) for k in f.modes}, reg=reg,
                              iter_lim=iter_lim)
    return SMField(ch, h, N), resid


# ----------------------------------------------------------------------------
# invariant extensions


def ladder_residual(w):
    """Per-mode transport residuals ||eta_+ w_{k-1} + eta_- w_{k+1}||.

    Modes k with |k| in {N-1, N} are truncation-affected and flagged."""
    ch = w.chart
    N = w.n_modes
    out = {}
    for k in range(-N + 1, N):
        r = eta("+", k - 1, w.get(k - 1), ch) + eta("-", k + 1, w.get(k + 1), ch)
        out[k] = {"residual": np.sqrt(ch.norm2(r)),
                  "truncation_affected": abs(k) >= N - 1}
    return out


def invariant_extension(data, variant="w0", n_modes=16, reg=1e-10,
                        iter_lim=None):
    """Construct w with Xw ~ 0 and prescribed low modes.

    variant "w0": data is a mode-0 SMField f; w has even modes, w_0 = f.
    variant "w1": data is (a_minus1, a_1) or a single a_1 (with eta_- a_1 = 0);
        w has odd modes with w_{+-1} prescribed.
    variant "wm": data is (q_m, m) with eta_- q_m = 0; w is supported on
        k = m, m+2, ... with w_m = q_m.

    The free modes minimize ||Xw|| (ridge-regularized least squares); the
    prescribed modes are matched exactly by construction.  Returns (w, diag)
    with the interior ladder residuals, the mode-decay slope, and lsqr's stop
    reason ``solver_istop`` and ``solver_iterations`` (None and 0 when no
    mode is free)."""
    if variant == "w0":
        f = data
        ch = f.chart
        fixed = {0: f.get(0)}
        free = [k for k in range(-n_modes, n_modes + 1) if k % 2 == 0 and k != 0]
        out_ks = [k for k in range(-n_modes + 1, n_modes) if abs(k) % 2 == 1]
    elif variant == "w1":
        if isinstance(data, tuple):
            am1, a1 = data
        else:
            am1, a1 = None, data
        ch = a1.chart if hasattr(a1, "chart") else am1.chart
        fixed = {1: a1.get(1) if isinstance(a1, SMField) else a1}
        if am1 is not None:
            fixed[-1] = am1.get(-1) if isinstance(am1, SMField) else am1
        free = [k for k in range(-n_modes, n_modes + 1)
                if abs(k) % 2 == 1 and k not in fixed and
                (am1 is not None or k > 0)]
        out_ks = [k for k in range(-n_modes + 1, n_modes) if k % 2 == 0]
        if am1 is None:
            out_ks = [k for k in out_ks if k >= 0]
    elif variant == "wm":
        q_m, m = data
        ch = q_m.chart
        fixed = {m: q_m.get(m) if isinstance(q_m, SMField) else q_m}
        free = [k for k in range(m + 2, n_modes + 1) if (k - m) % 2 == 0]
        out_ks = [k for k in range(m - 1, n_modes) if (k - m) % 2 == 1]
    else:
        raise ValueError(f"unknown variant {variant!r}")

    op = _LadderOperator(ch, free, out_ks, V_power=0)
    # rhs: -X(fixed part) on the output band
    rhs = {}
    for k in out_ks:
        acc = np.zeros((ch.nx, ch.ny), dtype=complex)
        if (k - 1) in fixed:
            acc += eta("+", k - 1, fixed[k - 1], ch)
        if (k + 1) in fixed:
            acc += eta("-", k + 1, fixed[k + 1], ch)
        if np.any(acc):
            rhs[k] = -acc
    if free:
        h, resid, istop, itn = op.solve(
            rhs, reg=reg, iter_lim=iter_lim or max(400, 100 * n_modes))
    else:
        h, resid = {}, np.sqrt(sum(ch.norm2(v) for v in rhs.values()))
        istop, itn = None, 0
    w = SMField(ch, {**fixed, **h}, n_modes)
    lad = ladder_residual(w)
    interior = {k: v["residual"] for k, v in lad.items()
                if not v["truncation_affected"]}
    # mode-decay slope: log ||w_k|| vs log <k>
    ks, ns = [], []
    for k, v in w.modes.items():
        nk = np.sqrt(ch.norm2(v))
        if k > 0 and nk > 1e-300:
            ks.append(0.5 * np.log(1.0 + k * k))
            ns.append(np.log(nk))
    slope = float(np.polyfit(ks, ns, 1)[0]) if len(ks) > 1 else 0.0
    diag = {"solver_residual": resid, "ladder": lad,
            "interior_max": max(interior.values()) if interior else 0.0,
            "w_norm": norm(w), "mode_decay_slope": slope,
            "solver_istop": istop, "solver_iterations": itn}
    return w, diag


# ----------------------------------------------------------------------------
# the product of invariant holomorphic distributions


def fourier_product(u, v, s=1.0, t=1.0):
    """w_k = sum_{j=0}^{k} u_j v_{k-j} for holomorphic (modes >= 0) fields.

    Computed on a 2x-refined chart so the mode products stay below the
    spatial Nyquist band; reports the per-mode L^1 ratio against
    <k>^{s+t} ||u||_{L2 H^{-s}} ||v||_{L2 H^{-t}} and, for transport-invariant
    inputs, the interior residual of Xw."""
    if any(k < 0 and np.any(u.get(k)) for k in u.modes) or \
            any(k < 0 and np.any(v.get(k)) for k in v.modes):
        raise ValueError("inputs must be holomorphic (modes k >= 0)")
    ch = u.chart
    fine = ch.refine(2)
    Nu = max((k for k in u.modes), default=0)
    Nv = max((k for k in v.modes), default=0)
    uf = {k: ch.upsample(u.get(k)) for k in range(Nu + 1)}
    vf = {k: ch.upsample(v.get(k)) for k in range(Nv + 1)}
    w = SMField(fine, n_modes=Nu + Nv)
    for k in range(Nu + Nv + 1):
        acc = np.zeros((fine.nx, fine.ny), dtype=complex)
        for j in range(max(0, k - Nv), min(Nu, k) + 1):
            acc += uf[j] * vf[k - j]
        w.set(k, acc)
    Uu = mixed_norm(SMField(fine, uf), -s)
    Vv = mixed_norm(SMField(fine, vf), -t)
    ratios = {}
    for k in range(Nu + Nv + 1):
        l1 = float(np.sum(fine.w * np.abs(w.get(k))))
        denom = (1.0 + k * k) ** ((s + t) / 2.0) * Uu * Vv
        ratios[k] = l1 / denom if denom > 0 else 0.0
    lad = ladder_residual(w)
    interior = [val["residual"] for key, val in lad.items()
                if not val["truncation_affected"] and key >= 0]
    report = {"l1_ratios": ratios, "max_l1_ratio": max(ratios.values()),
              "interior_X_residual": max(interior) if interior else 0.0,
              "w_norm": norm(w)}
    return w, report
