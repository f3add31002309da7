"""beta-Jacobi cocycles along curvature profiles.

Everything here runs on a ``CurvatureProfile`` (K(t) along a unit-speed
geodesic): the beta-Jacobi equation y'' + beta K(t) y = 0, conjugate-point
detection, Hopf solutions of the Riccati equation r' + r^2 + beta K = 0,
hyperbolicity of the cocycle, terminator-value bisection, and the Anosov
verdict that combines the terminator bracket with the zero-curvature trapping
surrogate.

The Riccati integrator works in a hybrid variable: near poles it switches to
the reciprocal s = 1/r (s' = 1 + beta K s^2), which turns the +/-infinity
initial data of the Hopf construction into the regular values s = +/-1/cap
and removes the pole stiffness entirely.
"""

import numpy as np
from dataclasses import dataclass, field

from . import flow as _flow
from .flow import CurvatureProfile, trapping_surrogate, curvature_profile_along
from .geometry import ConformalTorus, ConstantCurvature, FuchsianOctagon


class ConjugatePointError(RuntimeError):
    """Raised when an operation requiring conjugate-point-freeness hits one."""

    def __init__(self, time, msg=None):
        self.time = time
        super().__init__(msg or f"conjugate point at t = {time:.6f}")


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


def _half_grid(profile, t0, t1, dt):
    """Time grid [t0, t1] with n RK4 steps and K sampled at half steps."""
    n = max(1, int(round((t1 - t0) / dt)))
    h = (t1 - t0) / n
    t_half = t0 + np.arange(2 * n + 1) * (h / 2.0)
    return n, h, profile(t_half)


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
    i0+j-1, all scaled by 2**-E per row."""
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
            M = _step_matrices(K_half[:, 2 * block:2 * block_end + 1],
                               betas, h)
            # per-step growth bound, the worst row at each step
            growth = np.cumsum(np.log(np.maximum(np.max(np.maximum(
                np.abs(M[0]) + np.abs(M[1]), np.abs(M[2]) + np.abs(M[3])),
                axis=0), 1.0)))
        p = i - block
        base = growth[p - 1] if p > 0 else 0.0
        L = max(1, int(np.searchsorted(growth[p:], base + _GROWTH,
                                       side="right")))
        _, exp = np.frexp(np.maximum(np.abs(y), np.abs(v)))
        y, v, E = np.ldexp(y, -exp), np.ldexp(v, -exp), E + exp
        A, B, C, D = _prefix_products(*(x[:, p:p + L] for x in M))
        Y = np.empty((len(y), L + 1))
        V = np.empty((len(y), L + 1))
        Y[:, 0], V[:, 0] = y, v
        Y[:, 1:] = A * y[:, None] + B * v[:, None]
        V[:, 1:] = C * y[:, None] + D * v[:, None]
        yield i, Y, V, E
        y, v = Y[:, -1], V[:, -1]
        i += L


def _jacobi_trajectory(K_half, betas, h, y0, v0):
    """Unscaled states (m, n+1) of the RK4 solutions from (y0, v0)."""
    m, n = len(K_half), (np.shape(K_half)[1] - 1) // 2
    ys, vs = np.empty((m, n + 1)), np.empty((m, n + 1))
    ys[:, 0], vs[:, 0] = y0, v0
    for i0, Y, V, E in _jacobi_chunks(K_half, betas, h, y0, v0):
        L = Y.shape[1] - 1
        ys[:, i0 + 1:i0 + L + 1] = np.ldexp(Y[:, 1:], E[:, None])
        vs[:, i0 + 1:i0 + L + 1] = np.ldexp(V[:, 1:], E[:, None])
    return ys, vs


def integrate_beta_jacobi(profile, beta, y0, dy0, T, dt=1e-2, t0=0.0):
    """Solve y'' + beta K(t) y = 0 over [t0, t0+T]; returns (ts, ys, dys)."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    n, h, Kh = _half_grid(profile, t0, t0 + T, dt)
    ys, dys = _jacobi_trajectory(Kh[None, :], [beta], h, [y0], [dy0])
    return t0 + np.arange(n + 1) * h, ys[0], dys[0]


def cocycle_matrix(profile, beta, T, dt=1e-2):
    """Psi_T^beta: the 2x2 matrix mapping (y(0), y'(0)) to (y(T), y'(T))."""
    _, h, Kh = _half_grid(profile, 0.0, T, dt)
    ys, vs = _jacobi_trajectory(np.stack([Kh, Kh]), [beta, beta], h,
                                [1.0, 0.0], [0.0, 1.0])
    return np.array([ys[:, -1], vs[:, -1]])


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
        y, y1 = Y[:, :-1], Y[:, 1:]
        zero = y1 == 0.0
        # signs, not y * y1 < 0: the product of two tiny values underflows
        hit = zero | (np.sign(y) * np.sign(y1) < 0.0)
        if i0 == 0:
            hit[:, 0] = False
        for r in np.flatnonzero(hit.any(axis=1) & ~found):
            j = int(np.argmax(hit[r]))
            i = i0 + j
            if zero[r, j]:
                out[r] = (i + 1) * h
            else:
                out[r] = _hermite_root(i * h, h, Y[r, j], V[r, j],
                                       Y[r, j + 1], V[r, j + 1])
            found[r] = True
        if found.all():
            break
    return out


def first_conjugate_time(profile, beta, T_max=200.0, dt=1e-2):
    """Smallest t in (0, T_max] where the solution with y(0)=0, y'(0)=1
    vanishes, or None.  Zero located by sign change plus a cubic-Hermite root
    on the bracketing step (4th-order accurate); see
    ``jacobi_first_zero_batch``."""
    _, h, Kh = _half_grid(profile, 0.0, T_max, dt)
    t = jacobi_first_zero_batch(Kh[None, :], [beta], h)[0]
    return None if np.isnan(t) else float(t)


# ----------------------------------------------------------------------------
# Riccati integration (hybrid variable)


@dataclass
class HopfPair:
    ts: np.ndarray
    r_plus: np.ndarray
    r_minus: np.ndarray
    R_used: float
    gap_min: float


def _riccati_rhs(u, K, beta, smode):
    if smode:
        return 1.0 + beta * K * u * u
    return -u * u - beta * K


def riccati_integrate(profile, beta, t0, t1, r0, dt=1e-2, record_window=None,
                      raise_on_pole=True):
    """Integrate r' + r^2 + beta K = 0 from r(t0) = r0 (t1 may be < t0).

    Uses the reciprocal variable near poles, so arbitrarily large |r0| (the
    capped Hopf data) is fine.  A pole crossed inside the window corresponds
    to a zero of the underlying Jacobi solution; with ``raise_on_pole`` this
    raises ConjugatePointError, otherwise poles are recorded and integration
    continues through them.

    Returns (ts, rs, poles) where rs sample r on the grid (+/-inf-adjacent
    values appear as large finite numbers) restricted to ``record_window``
    (a (lo, hi) t-interval) when given.
    """
    n = max(1, int(round(abs(t1 - t0) / dt)))
    h = (t1 - t0) / n
    Kh = profile(t0 + np.arange(2 * n + 1) * (h / 2.0))
    maxK = float(np.max(np.abs(Kh))) if len(Kh) else 1.0
    r_switch = 10.0 * max(1.0, np.sqrt(beta * maxK + 1.0))
    smode = abs(r0) >= r_switch
    u = (1.0 / r0) if smode else float(r0)
    ts = t0 + np.arange(n + 1) * h
    rs = np.empty(n + 1)
    rs[0] = r0
    poles = []
    for i in range(n):
        K0, K1, K2 = Kh[2 * i], Kh[2 * i + 1], Kh[2 * i + 2]
        k1 = _riccati_rhs(u, K0, beta, smode)
        k2 = _riccati_rhs(u + 0.5 * h * k1, K1, beta, smode)
        k3 = _riccati_rhs(u + 0.5 * h * k2, K1, beta, smode)
        k4 = _riccati_rhs(u + h * k3, K2, beta, smode)
        unew = u + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if smode:
            if u * unew < 0.0:
                tpole = ts[i] + h * (u / (u - unew))
                if raise_on_pole:
                    raise ConjugatePointError(tpole)
                poles.append(tpole)
            if abs(unew) >= 1.5 / r_switch:
                u, smode = 1.0 / unew, False
            else:
                u = unew
        else:
            if not np.isfinite(unew) or abs(unew) >= r_switch:
                # re-take the step in the reciprocal variable
                u, smode = 1.0 / u, True
                k1 = _riccati_rhs(u, K0, beta, smode)
                k2 = _riccati_rhs(u + 0.5 * h * k1, K1, beta, smode)
                k3 = _riccati_rhs(u + 0.5 * h * k2, K1, beta, smode)
                k4 = _riccati_rhs(u + h * k3, K2, beta, smode)
                unew = u + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
                if u * unew < 0.0:
                    tpole = ts[i] + h * (u / (u - unew))
                    if raise_on_pole:
                        raise ConjugatePointError(tpole)
                    poles.append(tpole)
                u = unew
            else:
                u = unew
        rs[i + 1] = (1.0 / u) if (smode and u != 0.0) else (np.sign(h) * 1e300 if smode else u)
    if record_window is not None:
        lo, hi = record_window
        sel = (ts >= lo - 1e-12) & (ts <= hi + 1e-12)
        return ts[sel], rs[sel], poles
    return ts, rs, poles


def riccati_hopf(profile, beta, R=30.0, cap=1e6, dt=1e-2):
    """Hopf solutions r^+/r^- over one profile period.

    r^+ integrates forward from r(-R) = +cap, r^- backward from r(T+R) = -cap
    (so every sampled t in [0, T] sits at horizon >= R from the data); both are
    sampled on the shared grid over [0, T].  Riccati poles inside the window
    signal conjugate points and raise."""
    T = profile.T
    _, rp, _ = riccati_integrate(profile, beta, -R, T, cap, dt,
                                 record_window=(0.0, T))
    tsb, rm, _ = riccati_integrate(profile, beta, T + R, 0.0, -cap, dt,
                                   record_window=(0.0, T))
    rm = rm[::-1]
    ts = np.linspace(0.0, T, len(rp))
    m = min(len(rp), len(rm))
    gap = rp[:m] - rm[:m]
    return HopfPair(ts[:m], rp[:m], rm[:m], R, float(np.min(gap)))


def hyperbolicity_test(profile, beta, gap_tol=1e-4, R=20.0, dt=1e-2):
    """Theorem-style criterion: hyperbolic iff r^+ and r^- stay distinct.

    Compares Hopf gaps at horizons R, 2R, 4R; a stable positive gap (within
    10% under doubling) means hyperbolic, a gap that keeps shrinking toward 0
    means not-hyperbolic, anything else is inconclusive.  A Jacobi probe's
    growth over the window is attached as cross-evidence."""
    gaps = []
    for Rk in (R, 2 * R, 4 * R):
        pair = riccati_hopf(profile, beta, R=Rk, dt=dt)
        gaps.append(pair.gap_min)
    g1, g2, g3 = gaps
    # probe growth of the cocycle over [0, 4R]
    M = cocycle_matrix(profile, beta, 4 * R, dt)
    probe_growth = float(np.linalg.norm(M @ np.array([1.0, 0.0])))
    ev = {"gaps": gaps, "horizons": [R, 2 * R, 4 * R],
          "probe_growth": probe_growth}
    if g3 > gap_tol and abs(g3 - g2) <= 0.1 * abs(g3):
        return {"verdict": "hyperbolic", **ev}
    if g3 <= gap_tol or (g3 < 0.6 * g2 and g2 < 0.6 * g1):
        return {"verdict": "not-hyperbolic", **ev}
    return {"verdict": "inconclusive", **ev}


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


def _pool_free_of_conjugate_points(profiles, beta, T_max, dt, evidence):
    free = True
    for p in profiles:
        t = first_conjugate_time(p, beta, T_max=T_max, dt=dt)
        evidence.append({"beta": beta, "profile": p.name,
                         "first_conjugate_time": t})
        if t is not None:
            free = False
    return free


def terminator_bisect(profiles, beta_max=64.0, tol=1e-3, T_max=200.0, dt=1e-2):
    """Bracket the terminator value over a finite profile pool by bisection.

    beta = 0 is always conjugate-point-free (y'' = 0).  If beta_max is free on
    every profile the certificate reports "exceeds beta_max" (the finite
    surrogate for beta_Ter = infinity, e.g. K <= 0)."""
    profiles = list(profiles)
    if not profiles:
        raise ValueError("empty profile pool")
    names = [p.name for p in profiles]
    evidence = []
    if _pool_free_of_conjugate_points(profiles, beta_max, T_max, dt, evidence):
        return TerminatorCertificate(beta_max, np.inf, True, beta_max,
                                     names, evidence)
    lo, hi = 0.0, beta_max
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _pool_free_of_conjugate_points(profiles, mid, T_max, dt, evidence):
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


def _profile_pool(model, seed=0, n_windows=4, T_window=40.0):
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
        pool = []
        for hom in ((1, 0), (0, 1), (1, 1)):
            try:
                geo = _flow.find_closed_geodesics(model, hom, tol=1e-9)
                pool.append(curvature_profile_along(model, geo))
            except RuntimeError:
                pass
        rng = np.random.default_rng(seed)
        for _ in range(n_windows):
            start = _flow.UnitTangent(rng.uniform(0, model.Lx),
                                      rng.uniform(0, model.Ly),
                                      rng.uniform(0, 2 * np.pi))
            pool.append(_flow.curvature_profile_window(model, start, T_window))
        return pool
    raise TypeError(f"unsupported model {type(model).__name__}")


def anosov_verdict(model, beta_max=64.0, tol=1e-3, T_max=200.0, dt=1e-2,
                   seed=0, trapping_kwargs=None):
    """Finite-evidence test of the Anosov characterization: no geodesic
    trapped in zero curvature, and terminator value > 1."""
    trap = trapping_surrogate(model, seed=seed, **(trapping_kwargs or {}))
    pool = _profile_pool(model, seed=seed)
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
