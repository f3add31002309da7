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

from .geometry import (ClosedGeodesic, ConformalTorus, FuchsianOctagon,
                       UnitTangent, TWO_PI, grid_nodes)


@dataclass
class CurvatureProfile:
    """Gaussian curvature along a unit-speed geodesic, K(t) at step dt.

    ``K_fn``, when present, evaluates K(t) analytically (used for constant,
    piecewise and synthetic profiles); otherwise periodic profiles are
    evaluated by trigonometric interpolation of the samples and aperiodic
    ones by linear interpolation (``np.interp``), which holds the end
    sample for every t past the sampled window [0, (n - 1) dt]: a Jacobi
    solve past the window sees that constant curvature, not the orbit's.

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


def rk4_orbit(model, states, T, dt):
    """Fixed-step RK4 over [0, T] for a batch of SM states (shape (..., 3)):
    a finished ``OrbitWindows``.  Returns (ts, trajectory), the trajectory
    of shape (n_steps+1, ..., 3)."""
    orbit = OrbitWindows(states, T, dt)
    orbit.finish(model)
    return np.arange(orbit.n + 1) * orbit.h, orbit.traj


def _rk4_ends(model, states, T, dt, riders=()):
    """End states of (n, 3) SM states, state i flowed over its own horizon
    T[i] at its own step dt[i] (``dt`` a scalar or one per row): n_i =
    max(1, round(T[i]/dt[i])) steps of h_i = T[i]/n_i, the same steps as
    ``rk4_orbit(model, states[i], T[i], dt[i])``.  All rows step together up
    to max n_i; row i is read off after step n_i.

    ``riders`` (``OrbitWindows``, ``TrappingWatch``) ride along: a rider's
    rows take as many of the batch's steps as they still need, at its own
    step.  Riders are stacked longest first, so one that leaves holds the
    batch's last rows and is cut off them."""
    states = np.array(states, dtype=float)
    T = np.asarray(T, dtype=float)
    dt = np.broadcast_to(np.asarray(dt, dtype=float), T.shape)
    n = np.array([_n_steps(t, d)[0] for t, d in zip(T, dt)])
    m = len(states)
    riders = sorted((r for r in riders if r.left), key=lambda r: -r.left)
    rows = np.cumsum([m] + [len(r.states) for r in riders])
    states = np.vstack([states] + [r.states for r in riders])
    h = np.concatenate([T / n] + [np.full(len(r.states), r.h)
                                  for r in riders])[:, None]
    ends = np.empty((m, 3))
    live = len(riders)
    for i in range(1, n.max() + 1):
        states = _rk4_step(model, states, h)
        for k in range(live):
            riders[k].take(states[rows[k]:rows[k + 1]])
        while live and not riders[live - 1].left:
            live -= 1
            states, h = states[:rows[live]], h[:rows[live]]
        done = n == i
        ends[done] = states[:m][done]
    return ends


class _Rider:
    """Rows of SM ``states`` stepping at a scalar ``h``, ``left`` steps to
    go, each state reached handed to ``take``.  Steps taken as extra rows of
    ``_rk4_ends`` batches or alone by ``finish`` are the same bits."""

    @property
    def left(self):
        return self.n - self.i

    def finish(self, model):
        """Take the steps still left, alone."""
        while self.left:
            self.take(_rk4_step(model, self.states, self.h))


class OrbitWindows(_Rider):
    """Orbit windows being stepped: fixed-step RK4 over [0, T] at dt from
    SM starts (shape (..., 3)), all states recorded."""

    def __init__(self, starts, T, dt):
        starts = np.array(starts, dtype=float)
        self.T = T
        self.n, self.h = _n_steps(T, dt)
        self.traj = np.empty((self.n + 1,) + starts.shape)
        self.traj[0] = starts
        self.i = 0          # steps taken

    @property
    def states(self):
        return self.traj[self.i]

    def take(self, states):
        """Record the states the next step reaches."""
        self.i += 1
        self.traj[self.i] = states

    def profiles(self, model):
        """Finish, then return the aperiodic curvature profile along each
        of the (k, 3) starts' windows."""
        self.finish(model)
        K = model.curvature(*self.traj.reshape(-1, 3)[:, :2].T)
        K = np.ascontiguousarray(K.reshape(self.traj.shape[:-1]).T)
        return [CurvatureProfile(k, self.h, periodic=False,
                                 name=f"window:{self.T}") for k in K]


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
    residual r and Jacobian J there, and returns the converged u, always the
    last point it yielded (or raises RuntimeError)."""
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
            # a trial with T <= 0 is not shot: a closed orbit flowed
            # backwards closes up too, and would pass as a converged one
            if trial[2] > 0:
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
                          riders=()):
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
    iterates as a search on its own.  A class's point u rides in its round
    as an ``OrbitWindows``, finishing no later than its rows u + du (du > 0
    in T), so the round a search converges in has recorded the closed
    orbit.  The orbit is sampled at least 256 times: a shorter one is
    stepped again, alone, at T/256.

    ``riders`` ride along in these ``_rk4_ends`` batches until they have
    taken all their steps; the shots do not depend on them."""
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
    geos = [None] * len(classes)
    while points:
        live = list(points)
        shots = [_shot_points(points[i]) for i in live]
        orbits = [OrbitWindows(starts(u4[:1]), u4[0, 2], dts[i])
                  for i, (u4, _) in zip(live, shots)]
        us = np.vstack([u4[1:] for u4, _ in shots])
        ends = _rk4_ends(model, starts(us), us[:, 2],
                         np.repeat([dts[i] for i in live], 3),
                         riders=(*orbits, *riders))
        for k, (i, (u4, du), orbit) in enumerate(zip(live, shots, orbits)):
            rJ = _return_map(np.vstack([orbit.states, ends[3 * k:3 * k + 3]]),
                             u4, du, *shifts[i])
            try:
                points[i] = searches[i].send(rJ)
            except StopIteration:
                if orbit.n < 256:
                    orbit = OrbitWindows(orbit.traj[0], orbit.T, orbit.T / 256)
                    orbit.finish(model)
                x, y, theta = orbit.traj[:-1, 0].T
                samples = np.column_stack([*model.wrap(x, y),
                                           np.mod(theta, TWO_PI)])
                geos[i] = ClosedGeodesic(model=model, period=float(orbit.T),
                                         samples=samples, dt=float(orbit.h),
                                         source="torus-shooting")
                del points[i]
            except RuntimeError:
                if single:
                    raise
                del points[i]
    return geos[0] if single else geos


# ----------------------------------------------------------------------------
# curvature along orbits


def curvature_profile_along(model, geo):
    """Periodic curvature profile K(t) along a closed geodesic.

    K is sampled at the stored samples; on a model of constant curvature K0
    the profile also evaluates K(t) = K0 exactly between them."""
    K = model.curvature(geo.samples[:, 0], geo.samples[:, 1])
    K_fn = None
    if model.K0 is not None:
        K_fn = lambda t, K0=model.K0: np.full_like(np.asarray(t, dtype=float),
                                                   K0)
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


class TrappingWatch(_Rider):
    """Finite surrogate for "no geodesic trapped in zero curvature": n_dir
    random orbits over [0, T_window], trapping flagged if one sees max |K| <
    kappa_floor throughout.  A negative result is "no trapping detected
    (finite test)"; the infinite-time condition is not decidable from a
    finite window.  K is sampled on each state as the orbits reach it, into
    a running max |K| per orbit (``max_abs_K``), so memory does not grow
    with T_window.  A constant-curvature model has nothing to step."""

    def __init__(self, model, n_dir=256, T_window=50.0, kappa_floor=1e-4,
                 dt=2e-2, seed=0):
        self.model, self.n_dir = model, n_dir
        self.T_window, self.kappa_floor = T_window, kappa_floor
        self.n = self.i = 0
        self.uniform = model.K0 is not None
        if self.uniform:
            self.max_abs_K = np.full(n_dir, abs(model.K0))
            return
        rng = np.random.default_rng(seed)
        self.states = np.column_stack([rng.uniform(0, L, n_dir) for L in
                                       (model.Lx, model.Ly, TWO_PI)])
        self.n, self.h = _n_steps(T_window, dt)
        self.max_abs_K = np.abs(model.curvature(*self.states[:, :2].T))

    def take(self, states):
        """Fold |K| at the states the next step reaches into the maxima."""
        self.i += 1
        self.states = states
        np.maximum(self.max_abs_K,
                   np.abs(self.model.curvature(*states[:, :2].T)),
                   out=self.max_abs_K)

    def report(self):
        """Finish the orbits, alone; the surrogate's report."""
        self.finish(self.model)
        min_max = float(np.min(self.max_abs_K))
        trapped = min_max < self.kappa_floor
        return {"trapped_detected": bool(trapped), "n_dir": self.n_dir,
                "T_window": self.T_window, "kappa_floor": self.kappa_floor,
                "min_max_abs_K": min_max,
                "note": ("constant-curvature model: K uniform; finite test"
                         if self.uniform else
                         "trapping flagged on a finite window" if trapped
                         else "no trapping detected (finite test)")}


def trapping_surrogate(model, n_dir=256, T_window=50.0, kappa_floor=1e-4,
                       dt=2e-2, seed=0):
    """The report of a ``TrappingWatch`` stepped alone."""
    return TrappingWatch(model, n_dir, T_window, kappa_floor, dt,
                         seed).report()
