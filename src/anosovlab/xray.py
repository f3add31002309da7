"""Symmetric tensor fields, the ray transform over closed geodesics,
potential tensors, solenoidal checks, and s-injectivity experiments.

A symmetric m-tensor restricted to the unit sphere bundle is a function
with vertical Fourier modes supported on {-m, -m+2, ..., m}.  Tensor modes
here are *analytic* callables in surface coordinates (disk coordinates for
the octagon, periodic coordinates for tori), so evaluation along geodesics
is free of grid interpolation error and the periodic-trapezoid ray
transform converges spectrally.
"""

import numpy as np

from .geometry import (FuchsianOctagon, ConformalTorus, ConstantCurvature,
                       ClosedGeodesic)
from .smfourier import bump


# ----------------------------------------------------------------------------
# analytic mode functions


class Mode:
    """A scalar coefficient field with optional Wirtinger derivatives."""

    def __init__(self, val, dz=None, dbar=None):
        self.val = val
        self.dz = dz
        self.dbar = dbar


def _bump_prime(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = t < 1.0
    ti = t[inside]
    out[inside] = -np.exp(1.0 - 1.0 / (1.0 - ti)) / (1.0 - ti) ** 2
    return out


def windowed_trig_mode(mn, r0=0.57):
    """w(x,y) e^{i (pi/r0) (m x + n y)} with w a radial bump supported in
    the euclidean disk of radius r0 (inside the octagon when r0 < 0.64)."""
    m, n = mn
    om = np.pi / r0

    def val(x, y):
        t = (x ** 2 + y ** 2) / r0 ** 2
        return bump(t) * np.exp(1j * om * (m * x + n * y))

    def dz(x, y):
        z = x + 1j * y
        t = (z * np.conj(z)).real / r0 ** 2
        E = np.exp(1j * om * (m * x + n * y))
        # d/dz of t is conj(z)/r0^2; d/dz of the phase is i om (m - i n)/2
        return (_bump_prime(t) * np.conj(z) / r0 ** 2
                + bump(t) * 0.5j * om * (m - 1j * n)) * E

    def dbar(x, y):
        z = x + 1j * y
        t = (z * np.conj(z)).real / r0 ** 2
        E = np.exp(1j * om * (m * x + n * y))
        return (_bump_prime(t) * z / r0 ** 2
                + bump(t) * 0.5j * om * (m + 1j * n)) * E

    return Mode(val, dz, dbar)


def _conj_mode(mode):
    return Mode(lambda x, y: np.conj(mode.val(x, y)),
                (lambda x, y: np.conj(mode.dbar(x, y))) if mode.dbar else None,
                (lambda x, y: np.conj(mode.dz(x, y))) if mode.dz else None)


def trig_mode(grid, chart):
    """Mode backed by a grid on a periodic chart: trigonometric-interpolant
    evaluation (exact for band-limited data on the chart), with the chart's
    dz and dbar symbols for the Wirtinger derivatives."""
    grid = np.asarray(grid, dtype=complex)
    C = np.fft.fft2(grid) / grid.size
    kx, ky = chart.kx[:, 0], chart.ky[0]

    def _eval(coef, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        Ex = np.exp(1j * np.multiply.outer(x, kx))       # (..., nx)
        Ey = np.exp(1j * np.multiply.outer(y, ky))       # (..., ny)
        return np.einsum("...m,mn,...n->...", Ex, coef, Ey)

    dz, dbar = chart.eta_symbol[:, 0]
    return Mode(lambda x, y: _eval(C, x, y),
                lambda x, y: _eval(dz * C, x, y),
                lambda x, y: _eval(dbar * C, x, y))


# ----------------------------------------------------------------------------
# tensor fields


class SymTensorField:
    """Degree-m symmetric tensor as its function on SM: vertical modes
    supported on {-m, -m+2, ..., m}, each an analytic Mode."""

    def __init__(self, model, m, modes, label=""):
        self.model = model
        self.m = int(m)
        allowed = set(range(-self.m, self.m + 1, 2))
        bad = [k for k in modes if k not in allowed]
        if bad:
            raise ValueError(f"modes {bad} outside the degree-{m} band")
        self.modes = dict(modes)
        self.label = label

    @classmethod
    def from_smfield(cls, model, m, field, label=""):
        ch = field.chart
        modes = {}
        for k in range(-m, m + 1, 2):
            g = field.get(k)
            if np.any(g):
                modes[k] = trig_mode(g, ch)
        return cls(model, m, modes, label=label)

    def eval(self, x, y, theta):
        """The function f(x, v) at SM points."""
        acc = np.zeros(np.broadcast(x, y, theta).shape, dtype=complex)
        for k, mode in self.modes.items():
            acc = acc + mode.val(x, y) * np.exp(1j * k * np.asarray(theta))
        return acc

    def mode_values(self, k, X, Y):
        if k in self.modes:
            return self.modes[k].val(X, Y)
        return np.zeros(np.broadcast(X, Y).shape, dtype=complex)


def lam_wirtinger(model, x, y):
    """(e^{-lam}, d_z lam, d_zbar lam) at surface points."""
    lam, lam_x, lam_y = model.lam_and_grad(np.asarray(x), np.asarray(y))
    return (np.exp(-lam), 0.5 * (lam_x - 1j * lam_y),
            0.5 * (lam_x + 1j * lam_y))


def potential_tensor(h, model=None):
    """dh = Xh: the degree-m potential tensor of a degree-(m-1) tensor h.

    h's modes must carry Wirtinger derivatives (windowed_trig_mode or
    trig_mode); the eta-ladder coefficients use the model's analytic
    conformal factor, so dh is the exact inner derivative of h's
    interpolant and I_m(dh) vanishes on closed geodesics up to quadrature."""
    model = model if model is not None else h.model
    m = h.m + 1

    def eta_plus(mode, j):
        def val(x, y):
            emlam, dzl, _ = lam_wirtinger(model, x, y)
            return emlam * (mode.dz(x, y) - j * dzl * mode.val(x, y))
        return val

    def eta_minus(mode, j):
        def val(x, y):
            emlam, _, dbl = lam_wirtinger(model, x, y)
            return emlam * (mode.dbar(x, y) + j * dbl * mode.val(x, y))
        return val

    modes = {}
    for k in range(-m, m + 1, 2):
        terms = []
        if (k - 1) in h.modes:
            terms.append(eta_plus(h.modes[k - 1], k - 1))
        if (k + 1) in h.modes:
            terms.append(eta_minus(h.modes[k + 1], k + 1))
        if terms:
            modes[k] = Mode(lambda x, y, fs=tuple(terms):
                            sum(f(x, y) for f in fs))
    return SymTensorField(model, m, modes, label=f"d({h.label})")


def solenoidal_check(A, chart):
    """||eta_+ a_{-1} + eta_- a_1|| on a quadrature chart; zero iff the
    1-tensor is solenoidal (divergence-free) on the truncation."""
    from .smfourier import eta as eta_grid

    if A.m != 1:
        raise ValueError("solenoidal_check takes a degree-1 tensor")
    X, Y = chart.mesh(-0.5)
    am1 = A.mode_values(-1, X, Y)
    a1 = A.mode_values(1, X, Y)
    r = eta_grid("+", -1, am1, chart) + eta_grid("-", 1, a1, chart)
    return float(np.sqrt(chart.norm2(r)))


# ----------------------------------------------------------------------------
# ray transform


def _orbit_samples(geo, n_samples=None):
    """A geodesic's orbit samples and step; an octagon word geodesic with
    fewer than n_samples stored samples is resampled exactly from its
    axis."""
    if (n_samples is not None and len(geo.samples) < n_samples
            and geo.source == "octagon-word" and geo.axis is not None):
        fine = geo.model.closed_geodesic_from_word(geo.word,
                                                   n_samples=n_samples)
        return fine.samples, fine.dt
    return geo.samples, geo.dt


# rows of stacked orbit samples per tensor evaluation: the temporaries of
# one SymTensorField.eval stay near 1.6 MB, where stacking the whole default
# pool (131k rows) would take ~20 MB
_CHUNK_POINTS = 8192


def _pool_chunks(pool, n_samples):
    """The orbit samples of consecutive pool geodesics, stacked into chunks
    of at most _CHUNK_POINTS rows (an orbit longer than that is a chunk of
    its own).  Yields (rows, samples, starts, dts): the chunk's pool
    indices, its stacked (n, 3) samples, each orbit's first row, and each
    orbit's step."""
    chunk, size = [], 0
    for i, geo in enumerate(pool):
        samples, dt = _orbit_samples(geo, n_samples)
        if chunk and size + len(samples) > _CHUNK_POINTS:
            yield _stack_chunk(chunk)
            chunk, size = [], 0
        chunk.append((i, samples, dt))
        size += len(samples)
    if chunk:
        yield _stack_chunk(chunk)


def _stack_chunk(chunk):
    rows, samples, dts = zip(*chunk)
    starts = np.cumsum([0] + [len(s) for s in samples[:-1]])
    return np.array(rows), np.concatenate(samples), starts, np.array(dts)


def ray_transform(f, geo, n_samples=None):
    """I_m f(gamma) = integral of f(gamma(t), gamma'(t)) over one period.

    Periodic-trapezoid quadrature at the orbit samples; for octagon word
    geodesics the orbit can be resampled exactly from its axis."""
    _check_same_model(f, geo)
    samples, dt = _orbit_samples(geo, n_samples)
    x, y, th = samples[:, 0], samples[:, 1], samples[:, 2]
    vals = f.eval(x, y, th)
    return float(np.real(np.sum(vals) * dt))


def ray_transform_matrix(basis, pool, n_samples=None):
    """G[i, j] = ray_transform(basis[j], pool[i], n_samples).

    Each tensor is evaluated once per chunk of stacked orbits (see
    _pool_chunks) and summed per orbit."""
    for f in basis:
        for geo in pool:
            _check_same_model(f, geo)
    G = np.empty((len(pool), len(basis)))
    for rows, samples, starts, dts in _pool_chunks(pool, n_samples):
        x, y, th = samples[:, 0], samples[:, 1], samples[:, 2]
        for j, f in enumerate(basis):
            G[rows, j] = np.real(np.add.reduceat(f.eval(x, y, th), starts)
                                 * dts)
    return G


def _check_same_model(f, geo):
    if f.model is not geo.model and type(f.model) is not type(geo.model):
        raise ValueError("tensor and geodesic live on different models")


def abs_ray_mass(f, geo, n_samples=None):
    """integral of |f| along the geodesic — the natural scale for relative
    ray-transform residuals."""
    samples, dt = _orbit_samples(geo, n_samples)
    x, y, th = samples[:, 0], samples[:, 1], samples[:, 2]
    return float(np.sum(np.abs(f.eval(x, y, th))) * dt)


# ----------------------------------------------------------------------------
# octagon geodesic pool


# parents whose children are formed together: a block's products take
# 8 * 1024 * 64 B = 512 kB
_PARENT_BLOCK = 1024


def _word_levels(gens, max_len):
    """The reduced words of length 1..max_len in the octagon generators
    gens (g_{k+4} = g_k^{-1}), one length at a time.

    A level's children are its words times each generator, parent-major and
    letter-minor, with immediate cancellations dropped, so every level is
    in lexicographic order.  Yields (parents, letters, tr) per level: each
    word's parent index in the level before, its last letter, and |trace|
    of its SU(1,1) matrix.  Only the matrices of the level being extended
    are kept, and the last level's are formed a block of parents at a time
    and dropped."""
    letter_ids = np.arange(8)
    M = np.eye(2, dtype=complex)[None]      # the empty word
    last = None
    for length in range(1, max_len + 1):
        keep = length < max_len
        # each nonempty word has one cancelling letter
        fan = 8 if last is None else 7
        parents = np.repeat(np.arange(len(M), dtype=np.int32), fan)
        letters = np.empty(len(parents), dtype=np.int8)
        tr = np.empty(len(parents))
        children = (np.empty((len(parents), 2, 2), dtype=complex) if keep
                    else None)
        for lo in range(0, len(M), _PARENT_BLOCK):
            P = M[lo:lo + _PARENT_BLOCK]
            rows = slice(lo * fan, (lo + len(P)) * fan)
            if last is None:
                ok = np.ones((len(P), 8), dtype=bool)
            else:
                ok = (last[lo:lo + len(P), None] - letter_ids) % 8 != 4
            letters[rows] = np.nonzero(ok)[1]
            tr_blk = np.empty((len(P), 8))
            prods = np.empty((len(P), 8, 2, 2), dtype=complex) if keep \
                else None
            for g in letter_ids:
                prod = P @ gens[g]
                tr_blk[:, g] = np.abs(prod[:, 0, 0].real + prod[:, 1, 1].real)
                if keep:
                    prods[:, g] = prod
            tr[rows] = tr_blk[ok]
            if keep:
                children[rows] = prods[ok]
        yield parents, letters, tr
        M, last = children, letters


def _rebuild_word(levels, length, idx):
    """The word at index idx of its level, by its back-pointers."""
    word = []
    for parents, letters in reversed(levels[:length]):
        word.append(int(letters[idx]))
        idx = parents[idx]
    return tuple(reversed(word))


def _word_classes(gens, max_len):
    """Rounded |trace| -> word over the hyperbolic reduced words up to
    max_len (see _word_levels).  A key keeps the first word that reaches
    it: the shortest, then the lexicographically first."""
    classes = {}            # rounded |trace| -> (length, index in level)
    levels = []             # per length: (parent index, letter)
    for length, (parents, letters, tr) in enumerate(
            _word_levels(gens, max_len), start=1):
        levels.append((parents, letters))
        # the distinct traces of the level, each with its first word; only
        # hyperbolic words (|tr| > 2) carry a closed geodesic
        vals, first = np.unique(tr, return_index=True)
        hyp = vals > 2.0 + 1e-10
        vals, first = vals[hyp], first[hyp]
        for i in np.argsort(first):
            key = round(float(vals[i]), 9)
            if key not in classes:
                classes[key] = (length, first[i])
    return {key: _rebuild_word(levels, length, idx)
            for key, (length, idx) in classes.items()}


def octagon_geodesic_pool(model, max_len=6, max_count=256, n_samples=512):
    """Closed geodesics of the max_count smallest-|trace| conjugacy classes
    among the reduced words up to max_len, shortest geodesic first.

    A class is keyed by round(|tr|, 9) of its hyperbolic words (|tr| > 2)
    and represented by its shortest word, of those the lexicographically
    first.  The words are enumerated one length at a time, 8*7^(L-1) of
    length L: all levels' (parent, letter) back-pointers are kept (5 B a
    word), and the traces (8 B a word) and np.unique of one level and the
    matrices of the level before it (64 B a word) live together, so the
    enumeration peaks at ~7 MB at max_len 6 and ~45 MB at 7."""
    classes = _word_classes(model.disk_generators, max_len)
    pool = []
    for key in sorted(classes)[:max_count]:
        geo = model.closed_geodesic_from_word(classes[key],
                                              n_samples=n_samples)
        if geo is not None:
            pool.append(geo)
    return pool


# ----------------------------------------------------------------------------
# s-injectivity experiment


def _freq_list(count):
    """Low integer frequency pairs ordered by |.|^2, excluding (0,0) last."""
    pairs = sorted(((m, n) for m in range(-3, 4) for n in range(-3, 4)),
                   key=lambda p: (p[0] ** 2 + p[1] ** 2, p))
    return pairs[:count]


def _real_scalar_modes(count, r0):
    """Real windowed trig scalars: cos/sin pairs over half-plane
    frequencies (both parities, no duplicated columns)."""
    reps = [p for p in _freq_list(49) if p >= (0, 0)]
    out = []
    for m, n in reps:
        base = windowed_trig_mode((m, n), r0=r0)
        out.append(Mode(lambda x, y, b=base: np.real(b.val(x, y)),
                        lambda x, y, b=base: 0.5 * (b.dz(x, y) +
                                                    np.conj(b.dbar(x, y))),
                        lambda x, y, b=base: 0.5 * (b.dbar(x, y) +
                                                    np.conj(b.dz(x, y)))))
        if (m, n) == (0, 0):
            continue
        out.append(Mode(lambda x, y, b=base: np.imag(b.val(x, y)),
                        lambda x, y, b=base: -0.5j * (b.dz(x, y) -
                                                      np.conj(b.dbar(x, y))),
                        lambda x, y, b=base: -0.5j * (b.dbar(x, y) -
                                                      np.conj(b.dz(x, y)))))
        if len(out) >= count:
            break
    return out[:count]


def basis_capacity(m):
    """The largest n_basis sinjectivity_experiment can build for degree m:
    each family (potential, free) has 49 distinct windowed modes."""
    return 49 if m == 0 else 98


def _potential_basis(model, m, count, r0):
    """Real potential tensors dh for degree-(m-1) tensors h with a single
    conjugate mode pair (or mode 0 for m=1)."""
    out = []
    freqs = _freq_list(count)
    for i in range(count):
        if m == 1:
            h = SymTensorField(model, 0, {0: _real_scalar_modes(i + 1, r0)[i]},
                               label=f"h0[{i}]")
        else:
            top = windowed_trig_mode(freqs[i], r0=r0)
            modes = {m - 1: top, -(m - 1): _conj_mode(top)}
            h = SymTensorField(model, m - 1, modes, label=f"h{m-1}[{i}]")
        out.append(potential_tensor(h, model))
    return out


def _nonpotential_basis(model, m, count, r0):
    out = []
    freqs = _freq_list(count)
    for i in range(count):
        if m == 0:
            modes = {0: _real_scalar_modes(i + 1, r0)[i]}
        else:
            top = windowed_trig_mode(freqs[i], r0=r0)
            modes = {m: top, -m: _conj_mode(top)}
        out.append(SymTensorField(model, m, modes, label=f"free[{i}]"))
    return out


def tensor_inner(f, g, chart):
    """L^2(SM) inner product of two tensors via quadrature on a disk-patch
    chart."""
    X, Y = chart.mesh(-0.5)
    acc = 0.0 + 0.0j
    for k in set(f.modes) | set(g.modes):
        acc += chart.inner(f.mode_values(k, X, Y), g.mode_values(k, X, Y))
    return complex(acc)


def _values_inner(fv, gv, chart):
    """tensor_inner on mode values already taken at the chart nodes (one
    grid per vertical mode, the same modes in the same order)."""
    return sum(chart.inner(a, b) for a, b in zip(fv, gv))


def sinjectivity_experiment(model, m, pool, n_basis=20, threshold=1e-6,
                            n_samples=1024):
    """Numerical kernel of the ray transform on a mixed tensor basis.

    Builds G[gamma, j] = I_m(f_j)(gamma), takes its SVD, and reports how much
    of the numerical kernel (singular values below threshold * sigma_max)
    lies outside the span of potential tensors."""
    if len(pool) < n_basis:
        return {"flag": "pool too small for the basis (underdetermined)",
                "pool_size": len(pool), "n_basis": n_basis}
    from .smfourier import Chart

    r0 = 0.57
    chart = Chart.disk_patch(model, half_width=0.6, n=64)
    if m == 0:
        basis = _nonpotential_basis(model, 0, n_basis, r0)
        kinds = ["free"] * n_basis
    else:
        n_pot = n_basis // 2
        basis = (_potential_basis(model, m, n_pot, r0)
                 + _nonpotential_basis(model, m, n_basis - n_pot, r0))
        kinds = ["potential"] * n_pot + ["free"] * (n_basis - n_pot)

    G = ray_transform_matrix(basis, pool, n_samples)
    # column scales so the SVD compares tensors of comparable size
    scales = np.array([np.sqrt(abs(tensor_inner(f, f, chart)))
                       for f in basis])
    Gs = G / scales
    U, S, Vt = np.linalg.svd(Gs, full_matrices=False)
    sig_max = S[0] if len(S) else 0.0
    kernel = [Vt[i] / scales for i in range(len(S))
              if S[i] <= threshold * sig_max]

    # potential dictionary for the projection test (wider than the basis):
    # its chart values and Gram matrix serve every kernel vector
    X, Y = chart.mesh(-0.5)
    ks = range(-m, m + 1, 2)
    dictionary = []
    if m >= 1 and kernel:
        dictionary = [[d.mode_values(k, X, Y) for k in ks]
                      for d in _potential_basis(
                          model, m, min(12, 2 * (n_basis // 2)), r0)]
    A = np.array([[_values_inner(di, dj, chart) for dj in dictionary]
                  for di in dictionary])
    resid = 0.0
    for v in kernel:
        fk = [sum(v[j] * basis[j].mode_values(k, X, Y)
                  for j in range(n_basis)) for k in ks]
        nrm2 = sum(chart.norm2(g) for g in fk)
        if nrm2 <= 0 or not dictionary:
            continue
        # least-squares projection onto span{dh}
        b = np.array([_values_inner(fk, di, chart) for di in dictionary])
        coef = np.linalg.lstsq(A, b, rcond=1e-12)[0]
        proj2 = float(np.real(np.vdot(coef, b)))
        resid = max(resid, np.sqrt(max(nrm2 - proj2, 0.0) / nrm2))
    return {"sigma_min": float(S[-1]) if len(S) else 0.0,
            "sigma_max": float(sig_max),
            "kernel_dim": len(kernel),
            "non_potential_residual": float(resid),
            "pool_size": len(pool), "n_basis": n_basis,
            "kinds": kinds}
