"""beta-Jacobi cocycles along curvature profiles.

Everything here runs on a ``CurvatureProfile`` (K(t) along a unit-speed
geodesic): the beta-Jacobi equation y'' + beta K(t) y = 0, conjugate-point
detection, Hopf solutions of the Riccati equation r' + r^2 + beta K = 0,
terminator-value bisection, and the Anosov verdict that combines the
terminator bracket with the zero-curvature trapping surrogate.

All of it runs on one Jacobi kernel: the Riccati and Hopf solutions are read
off it as r = y'/y, with poles at the zeros of y.
"""

import numpy as np
from dataclasses import dataclass, field

from . import flow as _flow
from .flow import CurvatureProfile, curvature_profile_along
from .geometry import ConformalTorus, ConstantCurvature, FuchsianOctagon


class ConjugatePointError(RuntimeError):
    """Raised when an operation requiring conjugate-point-freeness hits one."""

    def __init__(self, time, msg=None):
        self.time = time
        super().__init__(msg or f"conjugate point at t = {time:.6f}")


class JacobiSolveError(RuntimeError):
    """Raised when an RK4 Jacobi solve leaves the finite numbers: its step
    matrices overflowed (beta K h^2 far too large), so the solve says
    nothing about conjugate points."""


# ----------------------------------------------------------------------------
# Jacobi integration
#
# The beta-Jacobi equation is linear, so one RK4 step is exactly a 2x2 matrix
# M_i acting on (y, y').  The kernel builds the step matrices of a block of
# steps at once, multiplies them into inclusive prefix products P_j =
# M_j ... M_i0 by Hillis-Steele doubling, and reads every state of the chunk
# off P_j (y, y') -- no Python loop runs per step.  A chunk ends before the
# growth bound sum log ||M_i||_inf passes _GROWTH, so no product can overflow;
# the chunk's end state is carried to the next chunk rescaled by a power of 2
# (exact, and the zero set of a linear equation does not change).

_BLOCK = 4096       # steps whose step matrices are built together
_GROWTH = 512.0     # bound on log ||P_j||_inf inside a chunk (e^512 ~ 1e222)


def _steps(t0, t1, dt):
    """The n RK4 steps of size h that the grid [t0, t1] at dt takes (the
    flow's step rule ``_n_steps`` over |t1 - t0|; h is signed)."""
    n, _ = _flow._n_steps(abs(t1 - t0), dt)
    return n, (t1 - t0) / n


def _half_grid(profile, t0, t1, dt):
    """Time grid [t0, t1] with n RK4 steps and K sampled at half steps,
    ``_BLOCK`` times at a time (elementwise, so the same bits as at once)."""
    n, h = _steps(t0, t1, dt)
    K = np.empty(2 * n + 1)
    for i in range(0, len(K), _BLOCK):
        K[i:i + _BLOCK] = profile(t0 + np.arange(i, min(i + _BLOCK, len(K)))
                                  * (h / 2.0))
    return n, h, K


def _rk4_step(y, v, c0, c1, c2, h):
    """One classical RK4 step of (y, v)' = (v, c y), c = -beta K at the
    step's start, midpoint and end."""
    k1y, k1v = v, c0 * y
    k2y, k2v = v + 0.5 * h * k1v, c1 * (y + 0.5 * h * k1y)
    k3y, k3v = v + 0.5 * h * k2v, c1 * (y + 0.5 * h * k2y)
    k4y, k4v = v + h * k3v, c2 * (y + h * k3y)
    return (y + (h / 6.0) * (k1y + 2 * k2y + 2 * k3y + k4y),
            v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v))


def _step_matrices(K_half, betas, h):
    """Step matrices [[a, b], [c, d]] of the RK4 steps whose half-grid
    curvature is K_half (r, 2L+1): the step applied to the basis vectors."""
    cK = -betas[:, None] * K_half
    c0, c1, c2 = cK[:, 0:-1:2], cK[:, 1::2], cK[:, 2::2]
    a, c = _rk4_step(1.0, 0.0, c0, c1, c2, h)
    b, d = _rk4_step(0.0, 1.0, c0, c1, c2, h)
    return a, b, c, d


def _prefix_products(a, b, c, d):
    """Inclusive prefix products P_j = M_j ... M_0 along the last axis, by
    Hillis-Steele doubling on the four component arrays."""
    a, b, c, d = (x.copy() for x in (a, b, c, d))
    k = 1
    while k < a.shape[-1]:
        a0, b0, c0, d0 = a[:, :-k], b[:, :-k], c[:, :-k], d[:, :-k]
        a1, b1, c1, d1 = a[:, k:], b[:, k:], c[:, k:], d[:, k:]
        na, nb = a1 * a0 + b1 * c0, a1 * b0 + b1 * d0
        nc, nd = c1 * a0 + d1 * c0, c1 * b0 + d1 * d0
        a[:, k:], b[:, k:], c[:, k:], d[:, k:] = na, nb, nc, nd
        k *= 2
    return a, b, c, d


def _jacobi_chunks(K_half, betas, h, y0, v0):
    """Propagate the states (y0, v0) of y'' + beta K y = 0 through all RK4
    steps of K_half (m, 2n+1), chunk by chunk.

    Yields (i0, Y, V, E): the chunk starts at step i0; Y and V are (m, L+1)
    with column 0 the state before step i0 and column j the state after step
    i0+j-1, all scaled by 2**-E per row.  Raises JacobiSolveError when a
    chunk ends in a non-finite state."""
    K_half = np.asarray(K_half, dtype=float)
    betas = np.asarray(betas, dtype=float)
    n = (K_half.shape[1] - 1) // 2
    y = np.array(y0, dtype=float)
    v = np.array(v0, dtype=float)
    E = np.zeros(len(K_half), dtype=int)
    i = block = block_end = 0
    while i < n:
        if i == block_end:
            block, block_end = i, min(i + _BLOCK, n)
            # an overflow here leaves a non-finite state, which fails below
            with np.errstate(over="ignore", invalid="ignore"):
                M = _step_matrices(K_half[:, 2 * block:2 * block_end + 1],
                                   betas, h)
                # per-step growth bound, the worst row at each step
                growth = np.cumsum(np.log(np.maximum(np.max(np.maximum(
                    np.abs(M[0]) + np.abs(M[1]),
                    np.abs(M[2]) + np.abs(M[3])), axis=0), 1.0)))
        p = i - block
        base = growth[p - 1] if p > 0 else 0.0
        L = max(1, int(np.searchsorted(growth[p:], base + _GROWTH,
                                       side="right")))
        _, exp = np.frexp(np.maximum(np.abs(y), np.abs(v)))
        y, v, E = np.ldexp(y, -exp), np.ldexp(v, -exp), E + exp
        Y = np.empty((len(y), L + 1))
        V = np.empty((len(y), L + 1))
        Y[:, 0], V[:, 0] = y, v
        with np.errstate(over="ignore", invalid="ignore"):
            A, B, C, D = _prefix_products(*(x[:, p:p + L] for x in M))
            Y[:, 1:] = A * y[:, None] + B * v[:, None]
            V[:, 1:] = C * y[:, None] + D * v[:, None]
        # a non-finite entry of the prefix products reaches the last column
        # (inf * 0 and inf - inf are NaN), so that column alone is tested
        if not (np.isfinite(Y[:, -1]).all() and np.isfinite(V[:, -1]).all()):
            raise JacobiSolveError(
                f"non-finite Jacobi state after RK4 step {i + L} (step "
                f"{h:.3g}, beta up to {np.max(betas):.3g})")
        yield i, Y, V, E
        y, v = Y[:, -1], V[:, -1]
        i += L


def integrate_beta_jacobi(profile, beta, y0, dy0, T, dt=1e-2, t0=0.0):
    """Solve y'' + beta K(t) y = 0 over [t0, t0+T]; returns (ts, ys, dys)."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    n, h, Kh = _half_grid(profile, t0, t0 + T, dt)
    ys, dys = np.empty(n + 1), np.empty(n + 1)
    ys[0], dys[0] = y0, dy0
    for i0, Y, V, E in _jacobi_chunks(Kh[None, :], [beta], h, [y0], [dy0]):
        L = Y.shape[1] - 1
        ys[i0 + 1:i0 + L + 1] = np.ldexp(Y[0, 1:], E[0])
        dys[i0 + 1:i0 + L + 1] = np.ldexp(V[0, 1:], E[0])
    return t0 + np.arange(n + 1) * h, ys, dys


def _hermite_root(t, h, y0, v0, y1, v1):
    """Zero of the cubic Hermite interpolant on [t, t+h] given endpoint
    values/derivatives; assumes a sign change."""
    c = np.array([2 * y0 + h * v0 - 2 * y1 + h * v1,
                  -3 * y0 - 2 * h * v0 + 3 * y1 - h * v1,
                  h * v0, y0])
    roots = np.roots(c)
    real = roots[np.abs(roots.imag) < 1e-9].real
    cands = real[(real >= -1e-12) & (real <= 1 + 1e-12)]
    if len(cands) == 0:
        return t + 0.5 * h
    return t + h * float(np.min(np.clip(cands, 0.0, 1.0)))


def _chunk_zeros(t0, h, i0, Y, V):
    """Where y vanishes in a chunk of ``_jacobi_chunks`` starting at step
    i0 of the grid t0 + i h.  Returns the (m, L) mask of the steps over
    which y changes sign or lands exactly on 0, and zero_time(r, j), the
    zero on step j of row r: the step's end where y lands exactly on 0,
    else a cubic-Hermite root on the step."""
    y, y1 = Y[:, :-1], Y[:, 1:]
    exact = y1 == 0.0
    # signs, not y * y1 < 0: the product of two tiny values underflows
    hit = exact | (np.sign(y) * np.sign(y1) < 0.0)

    def zero_time(r, j):
        i = i0 + j
        if exact[r, j]:
            return t0 + (i + 1) * h
        return _hermite_root(t0 + i * h, h, Y[r, j], V[r, j], Y[r, j + 1],
                             V[r, j + 1])
    return hit, zero_time


def jacobi_first_zero_batch(K_half, betas, h):
    """Conjugate-point detection for a batch of problems.

    K_half: (m, 2n+1) curvature at half-grid nodes; betas: (m,).  Returns
    the first zero in (h, n h] of each solution with y(0)=0, y'(0)=1 -- a
    sign change located by a cubic-Hermite root on the bracketing step, or
    (i+1) h when step i lands exactly on 0 -- with NaN where the solution
    never vanishes on the window.  Step 0 is not tested."""
    m = len(K_half)
    out = np.full(m, np.nan)
    found = np.zeros(m, dtype=bool)
    for i0, Y, V, _ in _jacobi_chunks(K_half, betas, h, np.zeros(m),
                                      np.ones(m)):
        hit, zero_time = _chunk_zeros(0.0, h, i0, Y, V)
        if i0 == 0:
            hit[:, 0] = False
        for r in np.flatnonzero(hit.any(axis=1) & ~found):
            out[r] = zero_time(r, int(np.argmax(hit[r])))
            found[r] = True
        if found.all():
            break
    return out


def first_conjugate_time(profile, beta, T_max=200.0, dt=1e-2, K_half=None):
    """Smallest t in (0, T_max] where the solution with y(0)=0, y'(0)=1
    vanishes, or None.  Zero located by sign change plus a cubic-Hermite root
    on the bracketing step (4th-order accurate); see
    ``jacobi_first_zero_batch``.

    ``K_half``, when given, is the profile's curvature on the half grid of
    [0, T_max] at ``dt`` (``_half_grid(profile, 0.0, T_max, dt)[2]``), so a
    caller testing one profile at many beta samples it once."""
    if K_half is None:
        _, h, K_half = _half_grid(profile, 0.0, T_max, dt)
    else:
        n, h = _steps(0.0, T_max, dt)
        if len(K_half) != 2 * n + 1:
            raise ValueError(f"K_half holds {len(K_half)} samples; the half "
                             f"grid of {n} steps has {2 * n + 1}")
    t = jacobi_first_zero_batch(K_half[None, :], [beta], h)[0]
    return None if np.isnan(t) else float(t)


# ----------------------------------------------------------------------------
# Riccati integration


@dataclass
class HopfPair:
    ts: np.ndarray
    r_plus: np.ndarray
    r_minus: np.ndarray
    R_used: float
    gap_min: float


def riccati_integrate(profile, beta, t0, t1, r0, dt=1e-2, raise_on_pole=True):
    """Integrate r' + r^2 + beta K = 0 from r(t0) = r0 (t1 may be < t0).

    r = y'/y for the Jacobi solution with (y, y')(t0) = (1, r0), so any
    finite r0 (the capped Hopf data too) is fine.  A pole crossed inside the
    window is a zero of y, located by sign change and a cubic-Hermite root
    as in ``jacobi_first_zero_batch``; with ``raise_on_pole`` the first one
    raises ConjugatePointError, otherwise poles are recorded and integration
    continues through them.

    Returns (ts, rs, poles) where rs sample r on the grid (a node where y is
    exactly 0 reads +/-1e300, signed as the value just past the pole).
    """
    n, h, Kh = _half_grid(profile, t0, t1, dt)
    ts = t0 + np.arange(n + 1) * h
    rs = np.empty(n + 1)
    poles = []
    for i0, Y, V, _ in _jacobi_chunks(Kh[None, :], [beta], h, [1.0],
                                      [float(r0)]):
        y, v = Y[0], V[0]
        zero = y == 0.0
        # r = V/Y: the chunk scale 2**-E cancels
        rs[i0:i0 + len(y)] = np.where(
            zero, np.copysign(1e300, h), v / np.where(zero, 1.0, y))
        hit, zero_time = _chunk_zeros(t0, h, i0, Y, V)
        for j in np.flatnonzero(hit[0]):
            tpole = zero_time(0, j)
            if raise_on_pole:
                raise ConjugatePointError(tpole)
            poles.append(tpole)
    return ts, rs, poles


def riccati_hopf(profile, beta, R=30.0, dt=1e-2):
    """Hopf solutions r^+/r^- over one profile period.

    Both solves step at h = T/max(1, round(T/dt)) on the grid {i h}, with
    the horizon R rounded to R_used = h max(1, round(R/h)): r^+ integrates
    forward from r(-R_used) = +cap, r^- backward from r(T+R_used) = -cap
    (cap = 1e6), so every sampled t = i h in [0, T] sits at horizon >=
    R_used from the data and r^+, r^- are compared at the same times.
    Riccati poles inside the window signal conjugate points and raise."""
    T, cap = profile.T, 1e6
    n, h = _steps(0.0, T, dt)
    R_used = h * max(1, int(round(R / h)))
    _, rp, _ = riccati_integrate(profile, beta, -R_used, T, cap, h)
    _, rm, _ = riccati_integrate(profile, beta, T + R_used, 0.0, -cap, h)
    rp, rm = rp[-(n + 1):], rm[-(n + 1):][::-1]
    return HopfPair(np.arange(n + 1) * h, rp, rm, R_used,
                    float(np.min(rp - rm)))


# ----------------------------------------------------------------------------
# terminator value


@dataclass
class TerminatorCertificate:
    beta_lo: float
    beta_hi: float
    exceeds_beta_max: bool
    beta_max: float
    profiles: list
    evidence: list = field(default_factory=list)

    def to_json(self):
        return {
            "beta_lo": self.beta_lo,
            "beta_hi": None if self.exceeds_beta_max else self.beta_hi,
            "exceeds_beta_max": self.exceeds_beta_max,
            "beta_max": self.beta_max,
            "profiles": self.profiles,
            "evidence": self.evidence,
        }


def _pool_free_of_conjugate_points(profiles, K_halves, beta, T_max, dt,
                                   evidence):
    free = True
    for p, K_half in zip(profiles, K_halves):
        t = first_conjugate_time(p, beta, T_max=T_max, dt=dt, K_half=K_half)
        evidence.append({"beta": beta, "profile": p.name,
                         "first_conjugate_time": t})
        if t is not None:
            free = False
    return free


# the most half-grid K samples terminator_bisect keeps for its whole pool,
# 32 MB of float64; a pool whose grids take more is sampled again on every
# pass, one profile at a time
MAX_KEPT_SAMPLES = 1 << 22


def terminator_bisect(profiles, beta_max=64.0, tol=1e-3, T_max=200.0, dt=1e-2):
    """Bracket the terminator value over a finite profile pool by bisection.

    beta = 0 is always conjugate-point-free (y'' = 0).  If beta_max is free on
    every profile the certificate reports "exceeds beta_max" (the finite
    surrogate for beta_Ter = infinity, e.g. K <= 0).  Every pass steps on one
    grid, so each profile is sampled on it once, for all passes, while the
    pool's grids hold at most MAX_KEPT_SAMPLES samples."""
    profiles = list(profiles)
    if not profiles:
        raise ValueError("empty profile pool")
    names = [p.name for p in profiles]
    n, _ = _steps(0.0, T_max, dt)
    if len(profiles) * (2 * n + 1) <= MAX_KEPT_SAMPLES:
        K_halves = [_half_grid(p, 0.0, T_max, dt)[2] for p in profiles]
    else:
        K_halves = [None] * len(profiles)
    evidence = []
    if _pool_free_of_conjugate_points(profiles, K_halves, beta_max, T_max, dt,
                                      evidence):
        return TerminatorCertificate(beta_max, np.inf, True, beta_max,
                                     names, evidence)
    lo, hi = 0.0, beta_max
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _pool_free_of_conjugate_points(profiles, K_halves, mid, T_max, dt,
                                          evidence):
            lo = mid
        else:
            hi = mid
    return TerminatorCertificate(lo, hi, False, beta_max, names, evidence)


# ----------------------------------------------------------------------------
# comparison lemma


def comparison_oracle(profile0, profile1, w0, w1, t0, tol=1e-8, dt=1e-2):
    """Riccati comparison: with K1 <= K0 and initial values w1 >= w0, the
    solutions satisfy r1 >= r0 on [0, t0] as long as r0 is defined.

    Returns (ok, details); blow-up of r0 inside the window is a precondition
    violation and is reported as such."""
    if w1 < w0 - 1e-15:
        raise ValueError("hypothesis requires w1 >= w0")
    ts0, r0s, poles0 = riccati_integrate(profile0, 1.0, 0.0, t0, w0, dt,
                                         raise_on_pole=False)
    if poles0:
        return False, {"precondition_violation":
                       f"r0 blows up at t = {poles0[0]:.6f}"}
    _, r1s, _ = riccati_integrate(profile1, 1.0, 0.0, t0, w1, dt,
                                  raise_on_pole=False)
    diff = r1s - r0s
    ok = bool(np.min(diff) >= -tol)
    return ok, {"min_diff": float(np.min(diff)), "ts": ts0}


# ----------------------------------------------------------------------------
# Anosov verdict


def _profile_pool(model, seed=0, riders=()):
    if isinstance(model, ConstantCurvature):
        return [CurvatureProfile.constant(model.K0, name=f"constant K={model.K0}")]
    if isinstance(model, FuchsianOctagon):
        pool = []
        for word in ([0], [0, 1], [0, 2]):
            geo = model.closed_geodesic_from_word(word, n_samples=256)
            if geo is not None:
                pool.append(curvature_profile_along(model, geo))
        return pool
    if isinstance(model, ConformalTorus):
        rng = np.random.default_rng(seed)
        starts = np.array([[rng.uniform(0, model.Lx),
                            rng.uniform(0, model.Ly),
                            rng.uniform(0, 2 * np.pi)]
                           for _ in range(4)])
        # the windows and the riders step as extra rows of the shooting's
        # RK4 batches: a step costs little more at 16 rows than at 12, and
        # far less than a step of its own
        windows = _flow.OrbitWindows(starts, 40.0, 5e-3)
        geos = _flow.find_closed_geodesics(model, ((1, 0), (0, 1), (1, 1)),
                                           tol=1e-9,
                                           riders=(windows, *riders))
        pool = [curvature_profile_along(model, geo) for geo in geos
                if geo is not None]
        return pool + windows.profiles(model)
    raise TypeError(f"unsupported model {type(model).__name__}")


def anosov_verdict(model, beta_max=64.0, tol=1e-3, T_max=200.0, dt=1e-2,
                   seed=0):
    """Finite-evidence test of the Anosov characterization: no geodesic
    trapped in zero curvature (the surrogate's orbits ride in the pool's RK4
    batches), and terminator value > 1."""
    watch = _flow.TrappingWatch(model, seed=seed)
    pool = _profile_pool(model, seed=seed, riders=(watch,))
    trap = watch.report()
    cert = terminator_bisect(pool, beta_max=beta_max, tol=tol, T_max=T_max, dt=dt)
    if trap["trapped_detected"]:
        verdict = "not-Anosov"
        reason = "zero-curvature trapping detected on the finite window"
    elif cert.exceeds_beta_max or cert.beta_lo > 1.0:
        verdict = "Anosov-consistent"
        reason = ("terminator bracket exceeds 1 and no trapping detected "
                  "(finite test; surrogate can miss trapping)")
    elif cert.beta_hi <= 1.0:
        verdict = "not-Anosov"
        reason = "terminator estimate below 1 (conjugate points dominate)"
    else:
        verdict = "inconclusive"
        reason = "terminator bracket straddles 1"
    return {"verdict": verdict, "reason": reason, "trapping": trap,
            "terminator": cert.to_json()}
