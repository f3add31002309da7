"""Correctness checks, one per workload.

Each check recomputes what it compares against from the benchmark's own
code (scipy's DOP853, closed-form transfer matrices, the octagon generators,
FFT derivatives with the analytic disk factor) or tests a property the
mathematics forces.  None compares against stored program output.

A check takes (config, seed, outdir, captured) and returns a list of
problems; an empty list is a pass.  ``captured`` holds objects handed to or
returned by the program's public calls during the command (see worker.py).
"""

import csv
import json
import math
from pathlib import Path

import numpy as np


def _read_json(outdir, name):
    return json.loads((Path(outdir) / name).read_text())


def _read_csv(outdir, name):
    with open(Path(outdir) / name, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


# ----------------------------------------------------------------------------
# anosov-torus


def _profile_K(profile):
    """K(t) of a curvature profile, rebuilt from its samples: trigonometric
    interpolation for periodic samples, clamped linear interpolation for
    orbit windows."""
    samples = np.asarray(profile.K_samples, dtype=float)
    n = len(samples)
    if profile.K_fn is not None:
        if profile.periodic:
            return lambda t: float(profile.K_fn(np.mod(t, profile.T)))
        return lambda t: float(profile.K_fn(t))
    if not profile.periodic:
        ts = np.arange(n) * profile.dt
        return lambda t: float(np.interp(t, ts, samples))
    coef = np.fft.rfft(samples) / n
    coef[1:] *= 2.0
    if n % 2 == 0:
        coef[-1] *= 0.5
    freqs = np.arange(len(coef)) * (2.0 * np.pi / (n * profile.dt))
    return lambda t: float(np.real(np.dot(coef, np.exp(1j * freqs * t))))


def _first_zero_dop853(K, beta, T):
    """First zero in (0, T] of y'' + beta K(t) y = 0, y(0)=0, y'(0)=1."""
    from scipy.integrate import solve_ivp

    def rhs(t, s):
        return (s[1], -beta * K(t) * s[0])

    def zero(t, s):
        return s[0]
    # y > 0 just after t = 0, so the first zero is a downward crossing
    zero.terminal, zero.direction = True, -1
    sol = solve_ivp(rhs, (0.0, T), (0.0, 1.0), method="DOP853",
                    events=zero, rtol=1e-10, atol=1e-12)
    hits = sol.t_events[0]
    return float(hits[0]) if len(hits) else None


ANOSOV_T_MAX = 200.0   # cocycle.anosov_verdict's horizon; `anosov` passes none


def anosov(cfg, seed, outdir, captured):
    rep = _read_json(outdir, "anosov_verdict.json")
    problems = []
    # Hopf: a torus without conjugate points is flat, and Anosov surfaces
    # have genus >= 2, so this non-flat torus is never Anosov-consistent.
    if rep["verdict"] == "Anosov-consistent":
        problems.append("a non-flat torus was called Anosov-consistent")
    cert = rep["terminator"]
    lo, hi = cert["beta_lo"], cert["beta_hi"]
    tol = cfg["tol"]
    if hi is None or not hi - lo <= tol:
        problems.append(f"bracket [{lo}, {hi}] wider than tol {tol}")
        return problems
    pools = captured.get("terminator_bisect", [])
    if len(pools) != 1 or not pools[0]:
        return problems + [f"expected one profile pool, saw {len(pools)}"]
    Ks = [_profile_K(p) for p in pools[0]]
    for i, K in enumerate(Ks):
        t = _first_zero_dop853(K, lo, ANOSOV_T_MAX)
        if t is not None:
            problems.append(f"profile {i} vanishes at t={t:.6g} "
                            f"at beta_lo={lo}")
    if not any(_first_zero_dop853(K, hi, ANOSOV_T_MAX) is not None
               for K in Ks):
        problems.append(f"no profile vanishes at beta_hi={hi}")
    return problems


# ----------------------------------------------------------------------------
# gulliver-sweep


def _cap_collar_first_zero(beta, b, cap, collar, periods):
    """First zero of y'' + beta K y = 0, y(0)=0, y'(0)=1, for K = b^2 on
    [0, cap) and K = -1 on [cap, cap + collar), repeated ``periods`` times;
    exact cos/sin and cosh/sinh transfer matrices, None when zero-free."""
    y, v, t = 0.0, 1.0, 0.0
    sb = math.sqrt(beta)
    w = sb * b
    for _ in range(periods):
        psi = math.atan2(y, v / w)       # y = A sin(w s + psi) on the cap
        s = (-psi if psi < 0.0 else math.pi - psi) / w
        if s <= cap:
            return t + s
        c, sn = math.cos(w * cap), math.sin(w * cap)
        y, v = y * c + v / w * sn, -y * w * sn + v * c
        t += cap
        if y * v < 0.0 and abs(y * sb / v) < 1.0:
            s = math.atanh(-y * sb / v) / sb
            if s <= collar:
                return t + s
        ch, sh = math.cosh(sb * collar), math.sinh(sb * collar)
        y, v = y * ch + v / sb * sh, y * sb * sh + v * ch
        t += collar
    return None


def _cap_collar_threshold(b, cap, collar, periods, beta_max=2.0, n=2000):
    """Smallest beta with a zero in (0, periods * (cap + collar)]: first
    grid point with a zero, refined by bisection to double precision."""
    lo = 0.0
    for i in range(1, n + 1):
        hi = beta_max * i / n
        if _cap_collar_first_zero(hi, b, cap, collar, periods) is not None:
            break
        lo = hi
    else:
        return None
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _cap_collar_first_zero(mid, b, cap, collar, periods) is None:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


GULLIVER_PERIODS = 3   # `gulliver` bisects over [0, 3T] (T_max default 3.0)


def gulliver(cfg, seed, outdir, captured):
    params = _read_json(outdir, "gulliver_params.json")
    cert = _read_json(outdir, "terminator_certificate.json")
    problems = []
    b, cap, collar = params["b"], 2.0 * params["r3"], params["R_prime"]
    target = cfg["beta_target"]
    _, rows = _read_csv(outdir, "profile.csv")
    tk = np.array(rows, dtype=float)
    want = np.where(tk[:, 0] < cap, b * b, -1.0)
    if not np.array_equal(tk[:, 1], want):
        problems.append("profile.csv is not K=b^2 on the cap, -1 on the collar")
    lo, hi = cert["beta_lo"], cert["beta_hi"]
    if hi is None or not hi - lo <= 1e-3:
        return problems + [f"bracket [{lo}, {hi}] wider than tol 1e-3"]
    exact = _cap_collar_threshold(b, cap, collar, GULLIVER_PERIODS)
    if exact is None:
        return problems + ["closed form finds no conjugate point below 2"]
    if not lo <= exact <= hi:
        problems.append(f"closed-form threshold {exact:.9f} outside "
                        f"[{lo}, {hi}]")
    if not target <= exact < 2.0:
        problems.append(f"closed-form threshold {exact:.9f} outside "
                        f"[{target}, 2)")
    return problems


# ----------------------------------------------------------------------------
# xray-octagon


def _octagon_generators():
    a = 1.0 + math.sqrt(2.0)
    b = math.sqrt(2.0 + 2.0 * math.sqrt(2.0))
    return [np.array([[a, b * np.exp(1j * k * np.pi / 4)],
                      [b * np.exp(-1j * k * np.pi / 4), a]])
            for k in range(8)]


SYSTOLE = 2.0 * math.acosh(1.0 + math.sqrt(2.0))


def xray(cfg, seed, outdir, captured):
    rep = _read_json(outdir, "xray_report.json")
    _, rows = _read_csv(outdir, "geodesic_pool.csv")
    problems = []
    pool_size = cfg.get("pool_size", 256)
    max_len = cfg.get("max_word_len", 6)
    n_basis = cfg.get("n_basis", 16)
    gens = _octagon_generators()
    words = [r[1] for r in rows]
    lengths = np.array([float(r[2]) for r in rows])
    if len(rows) != pool_size or len(set(words)) != pool_size:
        problems.append(f"pool holds {len(set(words))} distinct words of "
                        f"{len(rows)}, expected {pool_size}")
    if not np.all(np.diff(lengths) > 0.0):
        problems.append("pool lengths are not strictly increasing")
    for word, length in zip(words, lengths):
        if not 1 <= len(word) <= max_len:
            problems.append(f"word {word} longer than {max_len}")
            continue
        M = np.eye(2, dtype=complex)
        for k in word:
            M = M @ gens[int(k)]
        exact = 2.0 * math.acosh(abs(M[0, 0].real + M[1, 1].real) / 2.0)
        if abs(exact - length) > 1e-9 * exact:
            problems.append(f"word {word}: length {length} != {exact}")
    if len(lengths) and abs(lengths[0] - SYSTOLE) > 1e-9:
        problems.append(f"shortest length {lengths[0]} != systole {SYSTOLE}")
    # s-injectivity of I_2 on an Anosov surface: the kernel is exactly the
    # potential part of the basis
    if rep.get("kernel_dim") != n_basis // 2:
        problems.append(f"kernel_dim {rep.get('kernel_dim')} != "
                        f"{n_basis // 2}")
    if not rep.get("non_potential_residual", math.inf) <= 1e-4:
        problems.append("non_potential_residual "
                        f"{rep.get('non_potential_residual')} > 1e-4")
    return problems


# ----------------------------------------------------------------------------
# invariant-octagon

HALF_WIDTH = 0.55      # octagon_mode0_field's box chart [-0.55, 0.55)^2
WINDOW_RADIUS = 0.62   # its bump support: min(0.95 * 0.55, 0.62)


def _octagon_mode0_data(n, seed, band):
    """The `invariant` data from the seed: a real trig polynomial of degree
    ``band`` with complex normal coefficients, times a smooth radial bump."""
    rng = np.random.default_rng(seed)
    L = 2.0 * HALF_WIDTH
    s = np.arange(n) * (L / n)
    X, Y = np.meshgrid(s, s, indexing="ij")
    f = np.zeros((n, n), dtype=complex)
    for m in range(-band, band + 1):
        for k in range(-band, band + 1):
            c = rng.normal() + 1j * rng.normal()
            f += c * np.exp(2j * np.pi * (m * X + k * Y) / L)
    x = -HALF_WIDTH + s
    X, Y = np.meshgrid(x, x, indexing="ij")
    t = (X ** 2 + Y ** 2) / min(0.95 * HALF_WIDTH, WINDOW_RADIUS) ** 2
    win = np.zeros_like(t)
    inside = t < 1.0
    win[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside]))
    return f.real * win, X, Y


def invariant(cfg, seed, outdir, captured):
    problems = []
    n = cfg.get("grid", 48)
    N = cfg.get("n_modes", 10)
    results = captured.get("invariant_extension", [])
    if len(results) != 1:
        return [f"expected one invariant extension, saw {len(results)}"]
    modes = results[0][0].modes
    data, X, Y = _octagon_mode0_data(n, seed, cfg.get("spatial_band", 2))
    w0 = modes.get(0)
    if w0 is None or not np.allclose(w0, data, rtol=0.0,
                                     atol=1e-12 * np.abs(data).max()):
        problems.append("w_0 differs from the data")
    if any(k % 2 and np.any(v) for k, v in modes.items()):
        problems.append("an odd mode of w is nonzero")
    # disk factor lam = log(2/(1-r^2)); SM volume weight e^{2 lam} dx dy 2 pi
    q = 1.0 - X ** 2 - Y ** 2
    emlam = q / 2.0
    lam_x, lam_y = 2.0 * X / q, 2.0 * Y / q
    dz_lam, dbar_lam = 0.5 * (lam_x - 1j * lam_y), 0.5 * (lam_x + 1j * lam_y)
    L = 2.0 * HALF_WIDTH
    weight = (2.0 / q) ** 2 * (L / n) ** 2 * 2.0 * np.pi
    kx = 2.0 * np.pi * np.fft.fftfreq(n, d=L / n)
    KX, KY = np.meshgrid(kx, kx, indexing="ij")

    def dz(f):
        return np.fft.ifft2(0.5j * (KX - 1j * KY) * np.fft.fft2(f))

    def dbar(f):
        return np.fft.ifft2(0.5j * (KX + 1j * KY) * np.fft.fft2(f))

    zero = np.zeros((n, n))
    w = {k: modes.get(k, zero) for k in range(-N, N + 1)}
    norm_w = math.sqrt(sum(float(np.sum(weight * np.abs(v) ** 2))
                           for v in w.values()))
    worst = 0.0
    for k in range(-N + 2, N - 1):       # |k| = N-1, N see the truncation
        up, dn = w[k - 1], w[k + 1]
        r = emlam * (dz(up) - (k - 1) * dz_lam * up
                     + dbar(dn) + (k + 1) * dbar_lam * dn)
        worst = max(worst, math.sqrt(float(np.sum(weight * np.abs(r) ** 2))))
    if not worst / norm_w <= 1e-6:
        problems.append(f"interior ladder residual {worst / norm_w:.3e} "
                        "> 1e-6")
    return problems
