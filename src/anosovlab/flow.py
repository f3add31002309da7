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
                       FuchsianOctagon, UnitTangent, TWO_PI, mobius,
                       mobius_deriv, disk_distance0)


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
        ts = np.arange(n) * (T / n)
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
    """Pull octagon chart points back toward the fundamental domain."""
    z = states[..., 0] + 1j * states[..., 1]
    need = np.abs(z) > 0.82
    if not np.any(need):
        return states
    flat = states.reshape(-1, 3)
    zf = flat[:, 0] + 1j * flat[:, 1]
    for _ in range(64):
        d0 = disk_distance0(zf)
        best = np.full(len(zf), -1)
        bestd = d0.copy()
        for k, g in enumerate(model.disk_generators):
            dk = disk_distance0(mobius(g, zf))
            better = dk < bestd - 1e-14
            best[better] = k
            bestd[better] = dk[better]
        if np.all(best < 0):
            break
        for k, g in enumerate(model.disk_generators):
            sel = best == k
            if np.any(sel):
                zs = zf[sel]
                flat[sel, 2] = np.mod(flat[sel, 2] + np.angle(mobius_deriv(g, zs)), TWO_PI)
                zf[sel] = mobius(g, zs)
    flat[:, 0], flat[:, 1] = zf.real, zf.imag
    return flat.reshape(states.shape)


def rk4_orbit(model, states, T, dt, record=True):
    """Fixed-step RK4 over [0, T] for a batch of SM states (shape (..., 3)).

    Returns (ts, trajectory) with trajectory shape (n_steps+1, ..., 3) when
    ``record``, else just the final states."""
    n = max(1, int(round(T / dt)))
    h = T / n
    states = np.array(states, dtype=float)
    reduce_oct = isinstance(model, FuchsianOctagon)
    traj = None
    if record:
        traj = np.empty((n + 1,) + states.shape)
        traj[0] = states
    for i in range(n):
        k1 = _rhs(model, states)
        k2 = _rhs(model, states + 0.5 * h * k1)
        k3 = _rhs(model, states + 0.5 * h * k2)
        k4 = _rhs(model, states + h * k3)
        states = states + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if reduce_oct:
            states = _reduce_states(model, states)
        if record:
            traj[i + 1] = states
    ts = np.arange(n + 1) * h
    if record:
        return ts, traj
    return ts[-1], states


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


def find_closed_geodesics(model, homotopy, tol=1e-10, dt=None, max_iter=60):
    """Closed geodesic of a torus homotopy class (p, q), by shooting plus a
    damped Newton iteration on the return map.  The start is anchored on the
    line x = 0 (y0 free) to remove the translation degeneracy along the
    geodesic."""
    p, q = homotopy
    if (p, q) == (0, 0):
        raise ValueError("homotopy class must be nontrivial")
    if not isinstance(model, ConformalTorus):
        raise TypeError("closed-geodesic shooting is for conformal tori")
    dx, dy = p * model.Lx, q * model.Ly
    T0 = float(np.hypot(dx, dy))
    u = np.array([0.0, np.arctan2(dy, dx), T0])  # (y0, theta0, T)
    if dt is None:
        dt = T0 / max(400, int(T0 / 5e-3))

    def resid(u):
        y0, th0, T = u
        _, ends = rk4_orbit(model, np.array([0.0, y0, th0]), T, dt, record=False)
        return np.array([ends[0] - dx, ends[1] - (y0 + dy),
                         np.arctan2(np.sin(ends[2] - th0), np.cos(ends[2] - th0))])

    r = resid(u)
    for _ in range(max_iter):
        if np.max(np.abs(r)) < tol:
            break
        J = np.empty((3, 3))
        eps = 1e-7
        for j in range(3):
            du = np.zeros(3)
            du[j] = eps * max(1.0, abs(u[j]))
            J[:, j] = (resid(u + du) - r) / du[j]
        # least-squares step: tolerates neutral directions (e.g. translation
        # symmetries of special metrics make the Jacobian rank-deficient)
        step = np.linalg.lstsq(J, -r, rcond=1e-10)[0]
        lam = 1.0
        for _ in range(12):
            trial = u + lam * step
            rt = resid(trial)
            if np.linalg.norm(rt) < np.linalg.norm(r):
                u, r = trial, rt
                break
            lam *= 0.5
        else:
            raise RuntimeError("closed-geodesic Newton search stalled; "
                               f"residual {np.max(np.abs(r)):.3e}")
    else:
        raise RuntimeError("closed-geodesic Newton search did not converge; "
                           f"residual {np.max(np.abs(r)):.3e}")
    y0, th0, T = u
    n = max(256, int(round(T / dt)))
    ts, traj = rk4_orbit(model, np.array([0.0, y0, th0]), T, T / n)
    samples = traj[:-1].copy()
    samples[:, 0], samples[:, 1] = model.wrap(samples[:, 0], samples[:, 1])
    return ClosedGeodesic(model=model, period=float(T), samples=samples,
                          dt=T / n, source="torus-shooting")


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
    """Aperiodic curvature profile along the orbit window [0, T_window]."""
    orbit = integrate_geodesic(model, start, T_window, dt)
    return CurvatureProfile(_curvature_samples(model, orbit.samples),
                            orbit.dt, periodic=False,
                            name=f"window:{T_window}")


def _curvature_samples(model, samples):
    """K at the positions of (n, 3) SM samples, in one vectorised call; the
    same values as ``model.curvature_at`` point by point."""
    if isinstance(model, ConformalTorus):
        x, y = model.wrap(samples[:, 0], samples[:, 1])
        return model._get_splines()["K"](x, y, grid=False)
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
    starts = np.column_stack([
        rng.uniform(0, model.Lx, n_dir),
        rng.uniform(0, model.Ly, n_dir),
        rng.uniform(0, TWO_PI, n_dir),
    ])
    _, traj = rk4_orbit(model, starts, T_window, dt)   # (n_steps+1, n_dir, 3)
    Kvals = _curvature_samples(model, traj.reshape(-1, 3)).reshape(
        traj.shape[:-1])
    per_orbit_max = np.max(np.abs(Kvals), axis=0)
    min_max = float(np.min(per_orbit_max))
    return {"trapped_detected": bool(min_max < kappa_floor), "n_dir": n_dir,
            "T_window": T_window, "kappa_floor": kappa_floor,
            "min_max_abs_K": min_max,
            "note": "no trapping detected (finite test)" if min_max >= kappa_floor
                    else "trapping flagged on a finite window"}
