"""The positive-curvature-cap example family.

A cap of curvature K = b^2 and hyperbolic radius r_3 = r_1 + eps sits inside
a K = -1 collar; any unit-speed geodesic spends at most length 2 r_3 in the
cap between collar crossings of length at least R' = R + r_2 - r_3, where r_2
solves b^{-1} sin(b r_1) = sinh(r_1 - r_2).  The worst case for conjugate
points is therefore the periodic profile alternating K = b^2 (length 2 r_3)
with K = -1 (length R'), and freedom from beta-conjugate points follows from

    cond1:  sqrt(beta) b r_3 < pi/2
    cond2:  b tan(sqrt(beta) b r_3) < tanh(sqrt(beta) R')

With r_1 = pi/(2 sqrt 2 b) + delta and b (r_1 - eps) > pi/(2 sqrt 2) the
2-Jacobi equation acquires conjugate points inside the cap, pinning the
terminator value into [beta_target, 2).
"""

import numpy as np
from dataclasses import dataclass

from scipy.optimize import brentq

from .flow import CurvatureProfile

_HALF_PI = 0.5 * np.pi
_C8 = np.pi / (2.0 * np.sqrt(2.0))   # the critical cap half-angle constant


@dataclass
class GulliverParams:
    b: float
    r1: float
    r2: float
    r3: float
    eps: float
    delta: float
    R: float
    beta_target: float

    @property
    def R_prime(self):
        return self.R + self.r2 - self.r3

    def validate(self):
        if not (0 < self.b * self.r1 < _HALF_PI):
            raise ValueError("need 0 < b*r1 < pi/2")
        if not (0 < self.r2 < self.r1):
            raise ValueError("need 0 < r2 < r1")
        if not (self.eps < self.r1 - self.r2):
            raise ValueError("need eps < r1 - r2")
        if not (self.b * self.r3 < _HALF_PI):
            raise ValueError("need b*(r1+eps) < pi/2")
        res = np.sinh(self.r1 - self.r2) - np.sin(self.b * self.r1) / self.b
        if abs(res) > 1e-10:
            raise ValueError(f"r2 relation violated, residual {res:.3e}")
        return self

    def to_json(self):
        return {k: getattr(self, k) for k in
                ("b", "r1", "r2", "r3", "eps", "delta", "R", "beta_target")} | \
               {"R_prime": self.R_prime}


def solve_r2(b, r1):
    """Root of sinh(r1 - r2) = sin(b r1)/b on (0, r1)."""
    if not (0.0 < b * r1 < _HALF_PI):
        raise ValueError("need 0 < b*r1 < pi/2")
    target = np.sin(b * r1) / b

    def f(r2):
        return np.sinh(r1 - r2) - target

    # f(0) = sinh r1 - sin(b r1)/b > 0 and f(r1) = -target < 0
    return brentq(f, 0.0, r1, xtol=1e-14, rtol=8.9e-16)


def feasibility(params, beta):
    """Evaluate the two conjugate-point-freedom conditions at a given beta.

    Returns a certificate dict with the margins; feasible means both strict
    inequalities hold (beta = 0 is trivially free: y'' = 0)."""
    if beta == 0.0:
        return {"feasible": True, "beta": 0.0, "trivial": True,
                "cond1_margin": _HALF_PI, "cond2_margin": 1.0}
    sb = np.sqrt(beta)
    ang = sb * params.b * params.r3
    cond1_margin = _HALF_PI - ang
    if cond1_margin <= 0.0:
        return {"feasible": False, "beta": beta, "trivial": False,
                "cond1_margin": float(cond1_margin), "cond2_margin": None,
                "violated": "cond1"}
    cond2_margin = np.tanh(sb * params.R_prime) - params.b * np.tan(ang)
    ok = cond2_margin > 0.0
    return {"feasible": bool(ok), "beta": beta, "trivial": False,
            "cond1_margin": float(cond1_margin),
            "cond2_margin": float(cond2_margin),
            **({} if ok else {"violated": "cond2"})}


def search_params(beta_target, b0=0.1, delta0=0.1):
    """Parameters realizing a terminator window [beta_target, 2).

    Shrinks (b, delta) geometrically until the small-parameter conditions

        cond3: sqrt(beta)(pi/(2 sqrt 2) + 2 b delta) < pi/2
        cond4: b tan(sqrt(beta)(pi/(2 sqrt 2) + 2 b delta)) < 1/2

    hold, sets r1 = pi/(2 sqrt 2 b) + delta, eps = delta/2 (which forces
    b (r1 - eps) > pi/(2 sqrt 2), hence conjugate points before beta = 2),
    and grows R until tanh(sqrt(beta) R') > 1/2."""
    if not (1.5 < beta_target < 2.0):
        raise ValueError("beta_target must lie in (3/2, 2)")
    sb = np.sqrt(beta_target)
    b, delta = float(b0), float(delta0)
    for _ in range(200):
        ang = sb * (_C8 + 2.0 * b * delta)
        if ang < _HALF_PI and b * np.tan(ang) < 0.5:
            break
        b *= 0.7
        delta *= 0.9
    else:
        raise RuntimeError("parameter shrink failed")
    r1 = _C8 / b + delta
    eps = 0.5 * delta
    r2 = solve_r2(b, r1)
    r3 = r1 + eps
    R = r3 - r2 + 1.0
    for _ in range(100):
        params = GulliverParams(b, r1, r2, r3, eps, delta, R, beta_target)
        if np.tanh(sb * params.R_prime) > 0.5 and \
                feasibility(params, beta_target)["feasible"]:
            return params.validate()
        R *= 1.5
    raise RuntimeError("collar growth failed")


def synth_profile(params, dt=2e-3):
    """The extremal periodic profile: K = b^2 on length 2 r3, then K = -1 on
    length R' (for b = 0 the cap is flat, K = 0)."""
    cap = 2.0 * params.r3
    T = cap + params.R_prime
    b2 = params.b ** 2

    def K_fn(t, cap=cap, b2=b2):
        t = np.asarray(t, dtype=float)
        return np.where(t < cap, b2, -1.0)

    return CurvatureProfile.from_function(K_fn, T, dt=dt, periodic=True,
                                          name=f"cap-collar b={params.b:.4g}")
