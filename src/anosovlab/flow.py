"""Geodesic flow on the unit sphere bundle.

In a conformal chart ds^2 = e^{2 lam}(dx^2 + dy^2) the flow reads

    x' = e^{-lam} cos theta
    y' = e^{-lam} sin theta
    theta' = e^{-lam} (-lam_x sin theta + lam_y cos theta)

integrated with classical fixed-step RK4 so that cocycle integrations can
share the time grid.  Octagon orbits are pulled back into the fundamental
domain whenever they drift outward (the reduction is an isometry, so this is
transparent to the dynamics).
"""

import numpy as np
from dataclasses import dataclass

from .geometry import (ClosedGeodesic, ConformalTorus, ConstantCurvature,
                       FuchsianOctagon, UnitTangent, TWO_PI, grid_nodes)


@dataclass
class GeodesicOrbit:
    model: object
    ts: np.ndarray
    samples: np.ndarray   # (n, 3) rows (x, y, theta)
    dt: float

    @property
    def end(self):
        x, y, th = self.samples[-1]
        return UnitTangent(x, y, th)


@dataclass
class CurvatureProfile:
    """Gaussian curvature along a unit-speed geodesic, K(t) at step dt.

    ``K_fn``, when present, evaluates K(t) analytically (used for constant,
    piecewise and synthetic profiles); otherwise periodic profiles are
    evaluated by trigonometric interpolation of the samples and aperiodic
    ones by linear interpolation.

    The trigonometric interpolant is summed by Horner's rule in
    z = exp(i 2 pi t / T) after reducing t modulo the period T: one complex
    multiply-add per rfft coefficient and point, in O(len(ts)) memory.
    """

    K_samples: np.ndarray
    dt: float
    periodic: bool = True
    K_fn: object = None
    name: str = ""

    @property
    def T(self):
        return len(self.K_samples) * self.dt

    @classmethod
    def constant(cls, K, T=TWO_PI, dt=0.05, name=None):
        n = max(4, int(round(T / dt)))
        return cls(np.full(n, float(K)), T / n, periodic=True,
                   K_fn=(lambda t, K=float(K): np.full_like(np.asarray(t, dtype=float), K)),
                   name=name or f"K={K}")

    @classmethod
    def from_function(cls, fn, T, dt=0.05, periodic=True, name=""):
        n = max(4, int(round(T / dt)))
        ts = grid_nodes(0.0, n, T)
        return cls(np.asarray(fn(ts), dtype=float), T / n, periodic=periodic,
                   K_fn=fn, name=name)

    def __call__(self, ts):
        ts = np.asarray(ts, dtype=float)
        if self.K_fn is not None:
            if self.periodic:
                return np.asarray(self.K_fn(np.mod(ts, self.T)), dtype=float)
            return np.asarray(self.K_fn(ts), dtype=float)
        if self.periodic:
            # trigonometric interpolation of the periodic samples: the
            # interior bins count twice (their conjugates), the even-n
            # Nyquist bin once
            n = len(self.K_samples)
            c = np.fft.rfft(self.K_samples)
            c[1:] *= 2.0
            if n % 2 == 0:
                c[-1] *= 0.5
            z = np.exp(1j * (TWO_PI / self.T) * np.mod(ts, self.T))
            acc = np.full(ts.shape, c[-1])
            for ck in c[-2::-1]:
                acc *= z
                acc += ck
            return acc.real / n
        return np.interp(ts, np.arange(len(self.K_samples)) * self.dt,
                         self.K_samples)


# ----------------------------------------------------------------------------
# integration


def _rhs(model, states):
    x, y, th = states[..., 0], states[..., 1], states[..., 2]
    lam, lx, ly = model.lam_and_grad(x, y)
    e = np.exp(-lam)
    out = np.empty_like(states)
    c, s = np.cos(th), np.sin(th)
    out[..., 0] = e * c
    out[..., 1] = e * s
    out[..., 2] = e * (-lx * s + ly * c)
    return out


def _reduce_states(model, states):
    """Pull octagon chart points back into the fundamental domain."""
    z = states[..., 0] + 1j * states[..., 1]
    if not np.any(np.abs(z) > 0.82):
        return states
    zr, theta, _ = model.reduce_batch(z, states[..., 2])
    return np.stack([zr.real, zr.imag, theta], axis=-1)


def _rk4_step(model, states, h):
    """One classical RK4 step of the flow for a batch of SM states; ``h`` is
    a scalar or broadcasts against ``states`` (one step size per state).
    Octagon states are pulled back into the fundamental domain."""
    k1 = _rhs(model, states)
    k2 = _rhs(model, states + 0.5 * h * k1)
    k3 = _rhs(model, states + 0.5 * h * k2)
    k4 = _rhs(model, states + h * k3)
    states = states + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    if isinstance(model, FuchsianOctagon):
        states = _reduce_states(model, states)
    return states


def _n_steps(T, dt):
    """The n = max(1, round(T/dt)) steps of h = T/n that fixed-step RK4 takes
    over [0, T] at dt."""
    n = max(1, int(round(T / dt)))
    return n, T / n


def _rk4_states(model, states, T, dt):
    """The n + 1 states of fixed-step RK4 over [0, T] at dt (``_n_steps``),
    the start first, each yielded as it is reached."""
    n, h = _n_steps(T, dt)
    yield states
    for _ in range(n):
        states = _rk4_step(model, states, h)
        yield states


def rk4_orbit(model, states, T, dt):
    """Fixed-step RK4 over [0, T] for a batch of SM states (shape (..., 3)):
    a finished ``OrbitWindows``.  Returns (ts, trajectory), the trajectory
    of shape (n_steps+1, ..., 3)."""
    orbit = OrbitWindows(states, T, dt)
    orbit.finish(model)
    return np.arange(orbit.n + 1) * orbit.h, orbit.traj


def _rk4_ends(model, states, T, dt, record=False, windows=None):
    """End states of (n, 3) SM states, state i flowed over its own horizon
    T[i] at its own step dt[i] (``dt`` a scalar or one per row): n_i =
    max(1, round(T[i]/dt[i])) steps of h_i = T[i]/n_i, the same steps as
    ``rk4_orbit(model, states[i], T[i], dt[i])``.  All rows step together up
    to max n_i; row i is read off after step n_i.

    With ``record``, returns instead one trajectory per row, row i's of
    shape (n_i + 1, 3) and equal to ``rk4_orbit(model, states[i], T[i],
    dt[i])[1]``.

    ``windows``, an ``OrbitWindows``, rides along: its rows take as many of
    the batch's steps as they still need, at their own step, as extra rows
    of the same RK4 steps."""
    states = np.array(states, dtype=float)
    T = np.asarray(T, dtype=float)
    dt = np.broadcast_to(np.asarray(dt, dtype=float), T.shape)
    n = np.array([_n_steps(t, d)[0] for t, d in zip(T, dt)])
    h = (T / n)[:, None]
    m = len(states)
    ride = 0 if windows is None else min(windows.left, n.max())
    if ride:
        states = np.vstack([states, windows.states])
        h = np.vstack([h, np.full((len(windows.states), 1), windows.h)])
    if record:
        traj = np.empty((n.max() + 1, m, 3))
        traj[0] = states[:m]
    ends = np.empty((m, 3))
    for i in range(1, n.max() + 1):
        states = _rk4_step(model, states, h)
        if i <= ride:
            windows.take(states[m:])
            if i == ride:
                states, h = states[:m], h[:m]
        if record:
            traj[i] = states[:m]
        done = n == i
        ends[done] = states[:m][done]
    if record:
        return [traj[:k + 1, j] for j, k in enumerate(n)]
    return ends


class OrbitWindows:
    """Orbit windows being stepped: fixed-step RK4 over [0, T] at dt from
    SM starts (shape (..., 3)), all states recorded.

    The steps can be taken as extra rows of ``_rk4_ends`` batches (its
    ``windows`` argument) and the rest alone by ``finish``, in any mix:
    each row steps at its own h from its own last state, so the states are
    the same bits either way."""

    def __init__(self, starts, T, dt):
        starts = np.array(starts, dtype=float)
        self.T = T
        self.n, self.h = _n_steps(T, dt)
        self.traj = np.empty((self.n + 1,) + starts.shape)
        self.traj[0] = starts
        self.i = 0          # steps taken

    @property
    def left(self):
        return self.n - self.i

    @property
    def states(self):
        return self.traj[self.i]

    def take(self, states):
        """Record the states the next step reaches."""
        self.i += 1
        self.traj[self.i] = states

    def finish(self, model):
        """Take the steps still left, alone."""
        while self.left:
            self.take(_rk4_step(model, self.states, self.h))

    def profiles(self, model):
        """Finish, then return the aperiodic curvature profile along each
        of the (k, 3) starts' windows."""
        self.finish(model)
        K = _curvature_samples(model, self.traj.reshape(-1, 3))
        K = np.ascontiguousarray(K.reshape(self.traj.shape[:-1]).T)
        return [CurvatureProfile(k, self.h, periodic=False,
                                 name=f"window:{self.T}") for k in K]


def integrate_geodesic(model, start, T, dt=1e-3):
    """Integrate the geodesic flow from a UnitTangent over [0, T].

    Negative T integrates backwards (by reversing the direction, flowing, and
    reversing again)."""
    s0 = start.as_array() if isinstance(start, UnitTangent) else np.asarray(start, dtype=float)
    if T < 0:
        rev = s0.copy()
        rev[2] = np.mod(rev[2] + np.pi, TWO_PI)
        ts, traj = rk4_orbit(model, rev, -T, dt)
        traj = traj[::-1].copy()
        traj[:, 2] = np.mod(traj[:, 2] + np.pi, TWO_PI)
        return GeodesicOrbit(model, -ts[::-1], traj, dt)
    ts, traj = rk4_orbit(model, s0, T, dt)
    return GeodesicOrbit(model, ts, traj, ts[1] - ts[0] if len(ts) > 1 else dt)


_FD_EPS = 1e-7   # relative forward-difference step of the shooting Jacobian


def _shot_points(u):
    """The 4 points of one shot at u = (y0, theta0, T): u itself and
    u + du_j for j = 0, 1, 2, with the steps du."""
    du = _FD_EPS * np.maximum(1.0, np.abs(u))
    return np.vstack([u, u + np.diag(du)]), du


def _return_map(ends, us, du, dx, dy):
    """Residual of the return map at us[0] and its forward-difference
    Jacobian, from the end states of the 4 shot points ``us``."""
    y0, th0 = us[:, 0], us[:, 1]
    dth = ends[:, 2] - th0
    rs = np.column_stack([ends[:, 0] - dx, ends[:, 1] - (y0 + dy),
                          np.arctan2(np.sin(dth), np.cos(dth))])
    return rs[0], (rs[1:] - rs[0]).T / du


def _newton_search(u, tol, max_iter):
    """Damped Newton iteration on the return map from u = (y0, theta0, T),
    as a generator: it yields each point it wants shot, receives the
    residual r and Jacobian J there, and returns the converged u (or raises
    RuntimeError)."""
    r, J = yield u
    if np.max(np.abs(r)) < tol:
        return u
    for _ in range(max_iter):
        # least-squares step: tolerates neutral directions (e.g. translation
        # symmetries of special metrics make the Jacobian rank-deficient)
        step = np.linalg.lstsq(J, -r, rcond=1e-10)[0]
        lam = 1.0
        for _ in range(12):
            trial = u + lam * step
            rt, Jt = yield trial
            if np.linalg.norm(rt) < np.linalg.norm(r):
                u, r, J = trial, rt, Jt
                break
            lam *= 0.5
        else:
            raise RuntimeError("closed-geodesic Newton search stalled; "
                               f"residual {np.max(np.abs(r)):.3e}")
        if np.max(np.abs(r)) < tol:
            return u
    raise RuntimeError("closed-geodesic Newton search did not converge; "
                       f"residual {np.max(np.abs(r)):.3e}")


def find_closed_geodesics(model, homotopy, tol=1e-10, max_iter=60,
                          windows=None):
    """Closed geodesics of torus homotopy classes (p, q), by shooting plus a
    damped Newton iteration on the return map.  The start is anchored on the
    line x = 0 (y0 free) to remove the translation degeneracy along the
    geodesic; each class steps at its own dt = T0 / max(400, int(T0/5e-3)),
    with T0 the flat length of the class.

    ``homotopy`` is one class (p, q), giving one ClosedGeodesic (a failed
    search raises RuntimeError), or a sequence of classes, giving a list
    with one entry per class: its ClosedGeodesic, or None where the search
    failed.  The searches run in lockstep: each Newton round shoots the
    4 points of every live class in one ``_rk4_ends`` call, and a class
    leaves the batch once it converges or fails.  Each class makes the same
    iterates as a search on its own.  The converged orbits are then
    recorded in one batched pass.

    ``windows``, an ``OrbitWindows``, rides along in these ``_rk4_ends``
    batches until it has taken all its steps; the shots do not depend on
    it."""
    single = np.ndim(homotopy) == 1
    classes = [tuple(homotopy)] if single else [tuple(h) for h in homotopy]
    if (0, 0) in classes:
        raise ValueError("homotopy class must be nontrivial")
    if not isinstance(model, ConformalTorus):
        raise TypeError("closed-geodesic shooting is for conformal tori")
    shifts = [(p * model.Lx, q * model.Ly) for p, q in classes]
    T0 = [float(np.hypot(dx, dy)) for dx, dy in shifts]
    dts = [T / max(400, int(T / 5e-3)) for T in T0]

    def starts(us):   # SM starts on the line x = 0 of rows (y0, theta0, T)
        return np.column_stack([np.zeros(len(us)), us[:, 0], us[:, 1]])

    searches = [_newton_search(np.array([0.0, np.arctan2(dy, dx), T]), tol,
                               max_iter) for (dx, dy), T in zip(shifts, T0)]
    points = {i: next(search) for i, search in enumerate(searches)}
    found = {}
    while points:
        live = list(points)
        shots = [_shot_points(points[i]) for i in live]
        us = np.vstack([u4 for u4, _ in shots])
        ends = _rk4_ends(model, starts(us), us[:, 2],
                         np.repeat([dts[i] for i in live], 4),
                         windows=windows)
        for k, (i, (u4, du)) in enumerate(zip(live, shots)):
            rJ = _return_map(ends[4 * k:4 * k + 4], u4, du, *shifts[i])
            try:
                points[i] = searches[i].send(rJ)
            except StopIteration as stop:
                found[i] = stop.value
                del points[i]
            except RuntimeError:
                if single:
                    raise
                del points[i]

    geos = [None] * len(classes)
    if found:
        done = sorted(found)
        us = np.array([found[i] for i in done])
        T = us[:, 2]
        h = T / [max(256, int(round(t / dts[i]))) for i, t in zip(done, T)]
        trajs = _rk4_ends(model, starts(us), T, h, record=True,
                          windows=windows)
        for i, traj, t, hi in zip(done, trajs, T, h):
            samples = traj[:-1].copy()
            samples[:, 0], samples[:, 1] = model.wrap(samples[:, 0],
                                                      samples[:, 1])
            geos[i] = ClosedGeodesic(model=model, period=float(t),
                                     samples=samples, dt=float(hi),
                                     source="torus-shooting")
    return geos[0] if single else geos


# ----------------------------------------------------------------------------
# curvature along orbits


def curvature_profile_along(model, geo):
    """Periodic curvature profile K(t) along a closed geodesic.

    Octagon word-geodesics are resampled analytically from the axis, so the
    profile inherits no integrator error (K is -1 there anyway); other models
    evaluate curvature at the stored samples."""
    K = _curvature_samples(model, geo.samples)
    K_fn = None
    if isinstance(model, (ConstantCurvature, FuchsianOctagon)):
        K0 = model.curvature_at((0.0, 0.0))
        K_fn = lambda t, K0=K0: np.full_like(np.asarray(t, dtype=float), K0)
    return CurvatureProfile(K, geo.dt, periodic=True, K_fn=K_fn,
                            name=f"{geo.source}:{geo.word or ''}")


def curvature_profile_window(model, start, T_window, dt=5e-3):
    """Aperiodic curvature profile along the orbit window [0, T_window].

    ``start`` is one SM point (a UnitTangent or (x, y, theta)), giving one
    profile, or an (n, 3) array of them, giving a list with one profile per
    start; either way the starts are integrated in one batched call."""
    single = isinstance(start, UnitTangent) or np.ndim(start) == 1
    starts = np.atleast_2d(start.as_array() if isinstance(start, UnitTangent)
                           else start)
    profiles = OrbitWindows(starts, T_window, dt).profiles(model)
    return profiles[0] if single else profiles


def _curvature_samples(model, samples):
    """K at the positions of (n, 3) SM samples, in one vectorised call; the
    same values as ``model.curvature_at`` point by point."""
    if isinstance(model, ConformalTorus):
        return model.curvature(samples[:, 0], samples[:, 1])
    if isinstance(model, (ConstantCurvature, FuchsianOctagon)):
        return np.full(len(samples), float(model.curvature_at((0.0, 0.0))))
    raise TypeError(f"unsupported model {type(model).__name__}")


def trapping_surrogate(model, n_dir=256, T_window=50.0, kappa_floor=1e-4,
                       dt=2e-2, seed=0):
    """Finite surrogate for "no geodesic trapped in zero curvature".

    Samples n_dir random starts, integrates each over [0, T_window] and flags
    trapping if some orbit sees max |K| < kappa_floor throughout.  A negative
    result is reported as "no trapping detected (finite test)" -- the infinite
    -time condition is not decidable from a finite window.

    The orbits are not recorded: K is sampled on each state as the orbits
    reach it, into a running max |K| per orbit, so memory does not grow with
    T_window.
    """
    if isinstance(model, (ConstantCurvature, FuchsianOctagon)):
        # curvature is constant over the whole surface by construction
        K0 = abs(model.curvature_at((0.0, 0.0)))
        trapped = K0 < kappa_floor
        return {"trapped_detected": bool(trapped), "n_dir": n_dir,
                "T_window": T_window, "kappa_floor": kappa_floor,
                "min_max_abs_K": K0,
                "note": "constant-curvature model: K uniform; finite test"}
    rng = np.random.default_rng(seed)
    states = np.column_stack([
        rng.uniform(0, model.Lx, n_dir),
        rng.uniform(0, model.Ly, n_dir),
        rng.uniform(0, TWO_PI, n_dir),
    ])
    per_orbit_max = np.zeros(n_dir)
    for states in _rk4_states(model, states, T_window, dt):
        np.maximum(per_orbit_max, np.abs(_curvature_samples(model, states)),
                   out=per_orbit_max)
    min_max = float(np.min(per_orbit_max))
    return {"trapped_detected": bool(min_max < kappa_floor), "n_dir": n_dir,
            "T_window": T_window, "kappa_floor": kappa_floor,
            "min_max_abs_K": min_max,
            "note": "no trapping detected (finite test)" if min_max >= kappa_floor
                    else "trapping flagged on a finite window"}
