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

from .smfourier import bump


# ----------------------------------------------------------------------------
# analytic mode functions


def _conj(s):
    """The stack of conj(f) from f's: conjugation swaps d_z and d_zbar."""
    c = s[[0, 2, 1]]
    return np.conj(c, out=c)


class Mode:
    """A scalar coefficient field: ``mode(x, y)`` is the stack (value, d_z,
    d_zbar) at surface points, shape (3,) + theirs.

    conj(), real() and imag() are operations on that stack.  The mode they
    make keeps its ``source`` evaluation and applies them to it, so a tensor
    holding several parts of one source evaluates it once per point set
    (``SymTensorField.stacks``)."""

    def __init__(self, source, part=None):
        self.source = source
        self.part = part or (lambda s: s)   # the source's stack -> this one's

    def __call__(self, x, y):
        return self.part(self.source(x, y))

    def _then(self, op):
        return Mode(self.source, lambda s: op(self.part(s)))

    def conj(self):
        return self._then(_conj)

    def real(self):
        return self._then(lambda s: 0.5 * (s + _conj(s)))

    def imag(self):
        return self._then(lambda s: -0.5j * (s - _conj(s)))


def windowed_trig_mode(mn, r0):
    """w(x,y) e^{i (pi/r0) (m x + n y)} with w a radial bump supported in
    the euclidean disk of radius r0 (inside the octagon when r0 < 0.64).

    A stack takes the bump b(t) of t = |z|^2 / r0^2 and the phase once;
    inside the support b'(t) = -b / (1 - t)^2."""
    m, n = mn
    om = np.pi / r0

    def stack(x, y):
        t = (x ** 2 + y ** 2) / r0 ** 2
        b = bump(t)
        db = np.divide(-b, (1.0 - t) ** 2, out=np.zeros_like(b), where=t < 1.0)
        E = np.exp(1j * om * (m * x + n * y))
        out = np.empty((3,) + E.shape, dtype=complex)
        out[0] = b * E
        # d/dz of t is conj(z)/r0^2; d/dz of the phase is i om (m - i n)/2
        out[1] = (db * (x - 1j * y) / r0 ** 2
                  + b * 0.5j * om * (m - 1j * n)) * E
        out[2] = (db * (x + 1j * y) / r0 ** 2
                  + b * 0.5j * om * (m + 1j * n)) * E
        return out

    return Mode(stack)


def trig_mode(grid, chart):
    """Mode backed by a grid on a periodic chart: trigonometric-interpolant
    evaluation (exact for band-limited data on the chart) of one stacked
    coefficient array, the grid's and its images under the chart's dz and
    dbar symbols."""
    grid = np.asarray(grid, dtype=complex)
    C = np.fft.fft2(grid) / grid.size
    coef = np.concatenate([C[None], chart.eta_symbol[:, 0] * C])
    kx, ky = chart.kx[:, 0], chart.ky[0]

    def stack(x, y):
        Ex = np.exp(1j * np.multiply.outer(np.asarray(x, dtype=float), kx))
        Ey = np.exp(1j * np.multiply.outer(np.asarray(y, dtype=float), ky))
        return np.einsum("...m,smn,...n->s...", Ex, coef, Ey)

    return Mode(stack)


# ----------------------------------------------------------------------------
# tensor fields


class SymTensorField:
    """Degree-m symmetric tensor as its function on SM: vertical modes
    supported on {-m, -m+2, ..., m}, mode k the Mode ``modes[k]``.
    ``values(x, y)`` evaluates all of them at once, one row per k of
    ``ks``."""

    def __init__(self, model, m, modes, label=""):
        self.model = model
        self.m = int(m)
        allowed = set(range(-self.m, self.m + 1, 2))
        bad = [k for k in modes if k not in allowed]
        if bad:
            raise ValueError(f"modes {bad} outside the degree-{m} band")
        self.modes = dict(modes)
        self.ks = tuple(self.modes)
        self.label = label

    @classmethod
    def from_smfield(cls, model, m, field, label=""):
        modes = {k: trig_mode(field.get(k), field.chart)
                 for k in range(-m, m + 1, 2) if np.any(field.get(k))}
        return cls(model, m, modes, label=label)

    def stacks(self, x, y):
        """Each mode's stack at surface points, one per k of ``ks``; the
        modes of one source share its evaluation."""
        sources = dict.fromkeys(mode.source for mode in self.modes.values())
        stacks = {source: source(x, y) for source in sources}
        return [mode.part(stacks[mode.source]) for mode in self.modes.values()]

    def values(self, x, y):
        return np.array([s[0] for s in self.stacks(x, y)])

    def eval(self, x, y, theta):
        """The function f(x, v) at SM points."""
        acc = np.zeros(np.broadcast(x, y, theta).shape, dtype=complex)
        for k, v in zip(self.ks, self.values(x, y)):
            acc = acc + v * np.exp(1j * k * np.asarray(theta))
        return acc


class PotentialTensor(SymTensorField):
    """dh = Xh: the degree-m potential tensor of a degree-(m-1) tensor h.

    h's modes must be Modes (windowed_trig_mode or trig_mode); the
    eta-ladder coefficients use the model's analytic conformal factor, so
    dh is the exact inner derivative of h's interpolant and I_m(dh) vanishes
    on closed geodesics up to quadrature.  Its values read each mode of h,
    and lam, once per point set."""

    def __init__(self, h):
        self.h, self.model, self.m = h, h.model, h.m + 1
        self.ks = tuple(k for k in range(-self.m, self.m + 1, 2)
                        if k - 1 in h.modes or k + 1 in h.modes)
        self.label = f"d({h.label})"

    def values(self, x, y):
        lam, lam_x, lam_y = self.model.lam_and_grad(x, y)
        emlam = np.exp(-lam)
        dzl, dbl = 0.5 * (lam_x - 1j * lam_y), 0.5 * (lam_x + 1j * lam_y)
        S = dict(zip(self.h.ks, self.h.stacks(x, y)))
        out = np.zeros((len(self.ks),) + emlam.shape, dtype=complex)
        for row, k in zip(out, self.ks):
            if k - 1 in S:          # eta_+ raises mode k - 1
                v, d, _ = S[k - 1]
                row += emlam * (d - (k - 1) * dzl * v)
            if k + 1 in S:          # eta_- lowers mode k + 1
                v, _, d = S[k + 1]
                row += emlam * (d + (k + 1) * dbl * v)
        return out


def solenoidal_check(A, chart):
    """||eta_+ a_{-1} + eta_- a_1|| on a quadrature chart, at its own nodes;
    zero iff the 1-tensor is solenoidal (divergence-free) on the
    truncation."""
    from .smfourier import eta as eta_grid

    if A.m != 1:
        raise ValueError("solenoidal_check takes a degree-1 tensor")
    X, Y = chart.nodes()
    a = dict(zip(A.ks, A.values(X, Y)))
    zero = np.zeros(X.shape)
    r = (eta_grid("+", -1, a.get(-1, zero), chart)
         + eta_grid("-", 1, a.get(1, zero), chart))
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
# one SymTensorField.eval stay near 2 MB, where stacking the whole default
# pool (131k rows) would take 16 times as much
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


def _real_modes(j, count, r0):
    """count mode sets of real degree-j tensors.  For j = 0, mode 0 is the
    real or imaginary part of a windowed mode over half-plane frequencies
    (both parities, no duplicated columns); otherwise mode j is a windowed
    mode and mode -j its conjugate."""
    if j == 0:
        parts = []
        for mn in (p for p in _freq_list(49) if p >= (0, 0)):
            base = windowed_trig_mode(mn, r0)
            parts += [base.real()] + ([base.imag()] if any(mn) else [])
        return [{0: mode} for mode in parts[:count]]
    tops = [windowed_trig_mode(mn, r0) for mn in _freq_list(count)]
    return [{j: top, -j: top.conj()} for top in tops]


def basis_capacity(m):
    """The largest n_basis sinjectivity_experiment can build for degree m:
    each family (potential, free) has 49 distinct windowed modes."""
    return 49 if m == 0 else 98


def _potential_basis(model, m, count, r0):
    """Real potential tensors dh for real degree-(m-1) tensors h with a
    single conjugate mode pair (or mode 0 for m=1)."""
    return [PotentialTensor(SymTensorField(model, m - 1, modes,
                                           label=f"h{m-1}[{i}]"))
            for i, modes in enumerate(_real_modes(m - 1, count, r0))]


def _nonpotential_basis(model, m, count, r0):
    return [SymTensorField(model, m, modes, label=f"free[{i}]")
            for i, modes in enumerate(_real_modes(m, count, r0))]


def tensor_inner(f, g, chart):
    """L^2(SM) inner product of two tensors via quadrature at the chart's
    own nodes."""
    X, Y = chart.nodes()
    gv = dict(zip(g.ks, g.values(X, Y)))
    return complex(sum(chart.inner(a, gv[k])
                       for k, a in zip(f.ks, f.values(X, Y)) if k in gv))


def _gram(P, Q, w):
    """Re sum(w p conj(q)) over p of P and q of Q: the L^2(SM) inner products
    of real tensors held by their modes k >= 0 (sinjectivity_experiment)."""
    return np.array([[np.sum(w * p * np.conj(q)).real for q in Q]
                     for p in P]).reshape(len(P), len(Q))


def _projection(D, w, b):
    """The least-squares projections onto the span of D of the fields whose
    inner products with D are the columns of b (b[i, a] = (D_i, f_a)): the
    fields sum_i c_i D_i, one per column, by the small Gram solve."""
    c = np.linalg.lstsq(_gram(D, D, w), b, rcond=1e-12)[0]
    return np.tensordot(c.T, D, axes=1)


def sinjectivity_experiment(model, m, pool, n_basis=20, threshold=1e-6,
                            n_samples=1024):
    """Numerical kernel of the ray transform on a mixed tensor basis.

    Builds G[gamma, j] = I_m(f_j)(gamma), takes its SVD, and reports how much
    of the numerical kernel (singular values below threshold * sigma_max)
    lies outside the span of potential tensors.  Each basis tensor is
    evaluated on the chart at most twice (for its scale, then for the kernel
    fields) and each dictionary tensor once."""
    if len(pool) < n_basis:
        return {"flag": "pool too small for the basis (underdetermined)",
                "pool_size": len(pool), "n_basis": n_basis}
    from .smfourier import Chart

    r0 = 0.57
    chart = Chart.disk_patch(model, half_width=0.6, n=64)
    n_pot = n_basis // 2 if m else 0
    basis = (_potential_basis(model, m, n_pot, r0)
             + _nonpotential_basis(model, m, n_basis - n_pot, r0))
    kinds = ["potential"] * n_pot + ["free"] * (n_basis - n_pot)

    G = ray_transform_matrix(basis, pool, n_samples)
    # every tensor here is real, f_{-k} = conj(f_k): on the chart it is held
    # by its modes k >= 0 (row k // 2), a mode k > 0 weighing twice in the
    # SM norm
    X, Y = chart.nodes()
    w = np.array([chart.w * (2.0 if k else 1.0)
                  for k in range(m % 2, m + 1, 2)])

    def on_chart(f, out):
        out[...] = 0.0
        for k, v in zip(f.ks, f.values(X, Y)):
            if k >= 0:
                out[k // 2] = v

    # the potential dictionary for the projection test (wider than the basis)
    n_dict = min(12, 2 * n_pot)
    D = np.empty((n_dict,) + w.shape, dtype=complex)
    for i, d in enumerate(_potential_basis(model, m, n_dict, r0)):
        on_chart(d, D[i])
    # column scales so the SVD compares tensors of comparable size, and each
    # tensor's inner products with the dictionary
    buf = np.empty(w.shape, dtype=complex)
    scales, cross = np.empty(n_basis), np.empty((n_dict, n_basis))
    for j, f in enumerate(basis):
        on_chart(f, buf)
        scales[j] = np.sqrt(np.sum(w * np.abs(buf) ** 2))
        cross[:, j] = _gram(D, [buf], w)[:, 0]
    U, S, Vt = np.linalg.svd(G / scales, full_matrices=False)
    sig_max = S[0] if len(S) else 0.0
    kernel = Vt[S <= threshold * sig_max] / scales

    resid = 0.0
    if len(kernel) and n_dict:
        # each kernel field f = sum_j v_j f_j has the residual field
        # f - Pi f: -Pi f from the dictionary, which is then dropped, plus
        # the f_j evaluated once more.  r is orthogonal to Pi f, so
        # ||f||^2 = ||r||^2 + ||Pi f||^2 without cancellation
        R = _projection(D, w, cross @ kernel.T)
        del D
        proj2 = np.array([np.sum(w * np.abs(r) ** 2) for r in R])
        R *= -1.0
        for f, col in zip(basis, kernel.T):
            on_chart(f, buf)
            for r, v in zip(R, col):
                r += v * buf
        res2 = np.array([np.sum(w * np.abs(r) ** 2) for r in R])
        resid = float(np.max(np.sqrt(res2 / (res2 + proj2))))
    return {"sigma_min": float(S[-1]) if len(S) else 0.0,
            "sigma_max": float(sig_max),
            "kernel_dim": len(kernel),
            "non_potential_residual": float(resid),
            "pool_size": len(pool), "n_basis": n_basis,
            "kinds": kinds}
