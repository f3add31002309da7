"""Batch command-line front door.

    anosovlab <command> --config file.json [--out DIR] [--seed N]

Commands: pestov, terminator, anosov, xray, invariant, gulliver.
Exit codes: 0 ok, 2 config error, 3 insufficient data, 4 solver failure.
Every output JSON embeds the config hash and tool version; tabular data is
emitted as tidy CSV (one observation per row).
"""

import argparse
import csv
import hashlib
import json
import math
import sys
from itertools import chain
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .cocycle import JacobiSolveError, _steps
from .geometry import ConfigError, read_number

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_SOLVER = 4


# relative Pestov residuals at or below this are rounding, not discretisation
# error, so they give no refinement ratio
PESTOV_RESIDUAL_FLOOR = 1e-12


# the keys each command reads; any other key is a config error
_COCYCLE_KEYS = frozenset({"surface", "beta_max", "tol", "T_max", "dt"})
CONFIG_KEYS = {
    "pestov": frozenset({"surface", "n_fields", "n_modes", "spatial_band",
                         "grid"}),
    "terminator": _COCYCLE_KEYS,
    "anosov": _COCYCLE_KEYS,
    "xray": frozenset({"surface", "m", "max_word_len", "pool_size",
                       "n_basis", "kernel_threshold", "n_samples"}),
    "invariant": frozenset({"surface", "variant", "n_modes", "grid",
                            "spatial_band", "reg", "tol"}),
    "gulliver": frozenset({"beta_target", "beta_max", "tol", "T_max"}),
}


def _load_config(path, command):
    try:
        with open(path) as f:
            cfg = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(cfg) - CONFIG_KEYS[command])
    if unknown:
        raise ConfigError(f"unknown {command} key(s) {unknown}; expected "
                          f"some of {sorted(CONFIG_KEYS[command])}")
    return cfg


# the Jacobi solves keep K on a half grid of 2 T_max/dt + 1 points, one
# grid per pool profile only while the pool's grids take at most
# cocycle.MAX_KEPT_SAMPLES samples, one at a time past that
MAX_JACOBI_STEPS = 10 ** 7

# the most radians of the fastest Jacobi oscillation, sqrt(beta |K|) per
# unit time, that one RK4 step h may span.  On K = 1 the first conjugate
# time comes out 0.6% late at h sqrt(beta K) = 1, and 47% late at 2.5
MAX_STEP_PHASE = 1.0


def _jacobi_horizon(T_max, dt):
    """Refuse a T_max/dt above MAX_JACOBI_STEPS."""
    if not T_max / dt <= MAX_JACOBI_STEPS:
        raise ConfigError(f"T_max/dt asks for {T_max / dt:.3g} RK4 steps; "
                          f"at most {MAX_JACOBI_STEPS:.0e} are allowed")


def _max_abs_curvature(model):
    """max|K| of a surface, known once it is built, and what it is read
    from: the constant curvature K0 of a constant or octagon surface, the
    spectral curvature grid of a torus."""
    if model.K0 is None:
        return float(np.max(np.abs(model.K_grid))), "max|K_grid|"
    return abs(model.K0), "|K|"


def _check_step_phase(max_abs_K, which, beta_max, T_max, dt):
    """The RK4 step h = T_max/round(T_max/dt) must resolve beta_max on
    curvature up to max_abs_K (read from ``which``):
    h sqrt(beta_max max_abs_K) <= MAX_STEP_PHASE."""
    _, h = _steps(0.0, T_max, dt)
    phase = h * math.sqrt(beta_max) * math.sqrt(max_abs_K)
    if phase > MAX_STEP_PHASE:
        raise ConfigError(
            f"'beta_max' {beta_max:.3g} is not resolved by the RK4 step "
            f"{h:.3g}: h sqrt(beta_max {which}) = {phase:.4g} exceeds "
            f"{MAX_STEP_PHASE}")


# size caps, checked before any work.  xray: the word enumeration holds a
# whole level, 8*7^(L-1) words at length L; at 7 it takes ~1 s and ~45 MB,
# and 8 would take ~7x both
MAX_WORD_LEN = 7
# each pool geodesic keeps n_samples (x, y, theta) samples, 96 kB at 4096:
# 25 MB for the default pool of 256, 128 MB for all 1331 classes up to
# length 7
MAX_N_SAMPLES = 4096
# xray tensor degree: the projection test keeps m + 1 mode grids of
# 64 x 64 per dictionary tensor
MAX_DEGREE = 8
# pestov runs its fields one after another
MAX_FIELDS = 1000
# (2 n_modes + 1) grid^2, the points of one SMField mode stack (8 MB of
# complex values); pestov's fine grid is twice its grid.  Just under the
# cap a pestov field peaked at 170 MB and an invariant solve at 246 MB
MAX_FIELD_POINTS = 2 ** 19


def _check_field_size(n_modes, grid):
    points = (2 * n_modes + 1) * grid ** 2
    if points > MAX_FIELD_POINTS:
        raise ConfigError(f"{2 * n_modes + 1} modes on a {grid} x {grid} "
                          f"grid make {points} field points; at most "
                          f"{MAX_FIELD_POINTS} are allowed")


def _config_hash(cfg):
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _surface(cfg):
    from .geometry import surface_from_json
    spec = cfg.get("surface")
    if spec is None:
        raise ConfigError("config is missing the 'surface' entry")
    try:
        return surface_from_json(spec)
    # OverflowError: a lambda holding an int too large for a float
    except (KeyError, ValueError, TypeError, OverflowError) as e:
        raise ConfigError(f"invalid surface spec: {e}")


# rows of a CSV report formatted and written together: a chunk's text is
# ~40 kB, small enough not to raise the peak RSS of a run
_CSV_CHUNK = 256


def _csv_fields(column):
    """The field text ``csv.writer`` writes for each value of ``column``.

    A float64 array's values are written as their repr, never quoted, and
    each distinct value is formatted once.  The memo is keyed on the bits,
    not the value: -0.0 == 0.0 but they print apart, and NaN != NaN.  Any
    other value is formatted by ``csv.writer`` itself, quoting included,
    as the first of two fields, since a lone empty field is written as
    ``""``; the delimiter and line terminator after it are then cut off
    (the writer keeps the default terminator, whose characters decide
    which fields are quoted)."""
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        bits = column.view(np.int64).tolist()
        memo = {b: repr(v)
                for b, v in dict(zip(bits, column.tolist())).items()}
        return map(memo.__getitem__, bits)
    rows = []       # csv.writer makes one write call per row
    w = csv.writer(SimpleNamespace(write=rows.append))
    w.writerows((v, "") for v in column)
    return [r[:-len(",\r\n")] for r in rows]


class _Out:
    def __init__(self, outdir, cfg):
        self.dir = Path(outdir)
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"cannot create the output directory "
                              f"{outdir}: {e}")
        self.stamp = {"config_sha256": _config_hash(cfg),
                      "version": __version__}

    def json(self, name, payload):
        payload = {**self.stamp, **payload}
        path = self.dir / name
        with open(path, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True, default=float)
            f.write("\n")
        return path

    def csv(self, name, columns):
        """Write ``columns`` (header -> equal-length column) as CSV: the
        bytes ``csv.writer`` writes row by row, formatted a column and
        _CSV_CHUNK rows at a time and written one chunk per call."""
        cols = list(columns.values())
        n = len(cols[0]) if cols else 0
        if any(len(c) != n for c in cols):
            raise ValueError(f"{name}: columns of unequal length")
        # the header is the first chunk, a column of one row each
        chunks = chain([[[key] for key in columns]],
                       ([c[a:a + _CSV_CHUNK] for c in cols]
                        for a in range(0, n, _CSV_CHUNK)))
        path = self.dir / name
        with open(path, "w", newline="") as f:
            for chunk in chunks:
                rows = map(",".join, zip(*map(_csv_fields, chunk)))
                if len(cols) == 1:
                    # csv.writer writes a row of one empty field as ""
                    rows = (r or '""' for r in rows)
                f.write("\r\n".join(rows) + "\r\n")
        return path


# ----------------------------------------------------------------------------
# commands


def cmd_pestov(cfg, out, seed):
    from . import smfourier as sf

    n_fields = read_number(cfg, "n_fields", 5, 1, MAX_FIELDS, int)
    n_modes = read_number(cfg, "n_modes", 6, 0, sys.maxsize, int)
    band = read_number(cfg, "spatial_band", 4, 0, sys.maxsize, int)
    n_grid = read_number(cfg, "grid", 64, 2 * band + 1, sys.maxsize, int)
    model = _surface(cfg)
    n_grid = sf.chart_side(model, n_grid)
    _check_field_size(n_modes, 2 * n_grid)
    rng = np.random.default_rng(seed)
    try:    # a strongly curved surface's chart is too small for the patch
        charts, windows = zip(*(sf.surface_chart(model, n)
                                for n in (n_grid, 2 * n_grid)))
    except ValueError as e:
        raise ConfigError(str(e))

    residuals = np.empty((n_fields, len(charts)))
    for i in range(n_fields):
        state = rng.bit_generator.state
        for j, ch in enumerate(charts):
            # the same field on both grids; the last draw leaves rng past it
            rng.bit_generator.state = state
            u = sf.SMField.random_real(ch, n_modes=n_modes,
                                       spatial_band=band, rng=rng)
            if windows[j] is not None:
                u = sf.SMField.from_array(ch, u.data * windows[j])
            residuals[i, j] = sf.pestov_residual(u)
    out.csv("pestov_residuals.csv", {
        "field": np.repeat(np.arange(n_fields), len(charts)),
        "grid": np.tile([ch.nx for ch in charts], n_fields),
        "residual": residuals.ravel()})
    coarse, fine = residuals.T.tolist()
    # only fields whose coarse residual is above the rounding floor have a
    # refinement ratio; null when there is none
    ratios = [c / f if f > 0 else np.inf for c, f in zip(coarse, fine)
              if c > PESTOV_RESIDUAL_FLOOR]
    min_ratio = min(ratios, default=np.inf)
    out.json("pestov_report.json", {
        "surface": cfg["surface"], "n_fields": n_fields,
        "max_residual_coarse": max(coarse), "max_residual_fine": max(fine),
        "min_refinement_ratio": (min_ratio if np.isfinite(min_ratio)
                                 else None)})
    return EXIT_OK


def _cocycle_setup(cfg):
    """The pre-work of terminator and anosov: read the keys, check
    T_max/dt, build the surface and check the step phase.  Returns
    (surface, beta_max, tol, T_max, dt)."""
    beta_max = read_number(cfg, "beta_max", 64.0, 0.0)
    tol = read_number(cfg, "tol", 1e-3, 0.0)
    T_max = read_number(cfg, "T_max", 200.0, 0.0)
    dt = read_number(cfg, "dt", 1e-2, 0.0)
    _jacobi_horizon(T_max, dt)
    model = _surface(cfg)
    _check_step_phase(*_max_abs_curvature(model), beta_max, T_max, dt)
    return model, beta_max, tol, T_max, dt


def cmd_terminator(cfg, out, seed):
    from . import cocycle

    model, beta_max, tol, T_max, dt = _cocycle_setup(cfg)
    pool = cocycle._profile_pool(model, seed=seed)
    if not pool:
        print("error: empty curvature-profile pool", file=sys.stderr)
        return EXIT_DATA
    cert = cocycle.terminator_bisect(pool, beta_max=beta_max, tol=tol,
                                     T_max=T_max, dt=dt)
    out.json("terminator_certificate.json", cert.to_json())
    return EXIT_OK


def cmd_anosov(cfg, out, seed):
    from . import cocycle

    model, beta_max, tol, T_max, dt = _cocycle_setup(cfg)
    verdict = cocycle.anosov_verdict(model, beta_max=beta_max, tol=tol,
                                     T_max=T_max, dt=dt, seed=seed)
    out.json("anosov_verdict.json", verdict)
    return EXIT_OK


def cmd_xray(cfg, out, seed):
    from .geometry import FuchsianOctagon
    from . import xray

    m = read_number(cfg, "m", 2, 0, MAX_DEGREE, int)
    n_samples = read_number(cfg, "n_samples", 512, 1, MAX_N_SAMPLES, int)
    pool_size = read_number(cfg, "pool_size", 256, 1, sys.maxsize, int)
    max_word_len = read_number(cfg, "max_word_len", 6, 1, MAX_WORD_LEN, int)
    n_basis = read_number(cfg, "n_basis", 16, 1, xray.basis_capacity(m), int)
    # relative to the largest singular value
    threshold = read_number(cfg, "kernel_threshold", 1e-6, 0.0, 1.0)
    if not threshold < 1.0:
        raise ConfigError("'kernel_threshold' must be less than 1")
    model = _surface(cfg)
    if not isinstance(model, FuchsianOctagon):
        raise ConfigError("xray runs on the octagon surface")
    pool = xray.octagon_geodesic_pool(model, max_len=max_word_len,
                                      max_count=pool_size,
                                      n_samples=n_samples)
    if len(pool) < n_basis:
        print(f"error: the geodesic pool holds {len(pool)} geodesics, fewer "
              f"than the {n_basis} basis tensors", file=sys.stderr)
        return EXIT_DATA
    report = xray.sinjectivity_experiment(
        model, m, pool, n_basis=n_basis, threshold=threshold,
        n_samples=n_samples)
    out.json("xray_report.json", report)
    out.csv("geodesic_pool.csv", {
        "index": np.arange(len(pool)),
        "word": ["".join(map(str, g.word)) for g in pool],
        "length": np.array([g.period for g in pool])})
    return EXIT_OK


def cmd_invariant(cfg, out, seed):
    from .geometry import FuchsianOctagon, ConformalTorus
    from . import smfourier as sf

    variant = cfg.get("variant", "w0")
    if variant != "w0":
        raise ConfigError("only variant 'w0' is exposed on the CLI; use the "
                          "library for w1/wm data preparation")
    # n_modes >= 3: with 2 the interior ladder set holds only k = 0, where
    # the residual is identically zero; grid >= 2 band + 1 resolves the data
    n_modes = read_number(cfg, "n_modes", 10, 3, sys.maxsize, int)
    band = read_number(cfg, "spatial_band", 2, 0, sys.maxsize, int)
    grid = read_number(cfg, "grid", 48, 2 * band + 1, sys.maxsize, int)
    # reg >= 0: a float's lower bound is open, and -5e-324 is the float
    # next below 0
    reg = read_number(cfg, "reg", 1e-12, -5e-324)
    tol = read_number(cfg, "tol", 1e-6, 0.0)
    model = _surface(cfg)
    if not isinstance(model, (FuchsianOctagon, ConformalTorus)):
        raise ConfigError(f"unsupported surface {type(model).__name__}")
    grid = sf.chart_side(model, grid)
    _check_field_size(n_modes, grid)
    rng = np.random.default_rng(seed)
    if isinstance(model, FuchsianOctagon):
        f = sf.octagon_mode0_field(model, rng=rng, spatial_band=band, n=grid)
    else:
        ch = sf.Chart.from_torus(model, grid)
        f = sf.SMField.random_real(ch, n_modes=0, spatial_band=band, rng=rng)
    w, diag = sf.invariant_extension(f, variant, n_modes=n_modes, reg=reg)
    rel = diag["interior_max"] / max(diag["w_norm"], 1e-300)
    norms = np.sqrt(w.chart.norm2(w.data))      # w0 lives on the even modes
    ks = np.arange(-n_modes, n_modes + 1)
    even = ks % 2 == 0
    out.csv("invariant_modes.csv", {"k": ks[even], "norm": norms[even]})
    ladder = sorted(diag["ladder"].items())
    out.csv("ladder_residuals.csv", {
        "k": np.array([k for k, _ in ladder]),
        "residual": np.array([v["residual"] for _, v in ladder]),
        "truncation_affected": np.array([v["truncation_affected"]
                                         for _, v in ladder])})
    out.json("invariant_report.json", {
        "variant": variant, "n_modes": n_modes,
        "interior_ladder_max": diag["interior_max"],
        "interior_ladder_relative": rel,
        "w_norm": diag["w_norm"],
        "mode_decay_slope": diag["mode_decay_slope"],
        "solver_residual": diag["solver_residual"],
        "solver_istop": diag["solver_istop"],
        "solver_iterations": diag["solver_iterations"],
        "solver_blocks": diag["solver_blocks"]})
    if diag["solver_istop"] == 7:
        print(f"warning: lsqr stopped at its iteration cap: solver_istop 7, "
              f"solver_iterations {diag['solver_iterations']}, cap "
              f"{diag['solver_iter_lim']}", file=sys.stderr)
    if rel > tol:
        print(f"error: solver residual {rel:.3e} above tolerance {tol:.1e}",
              file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def cmd_gulliver(cfg, out, seed):
    from . import gulliver, cocycle

    # a window [beta_target, 2) whose cap double precision can hold
    beta_target = read_number(cfg, "beta_target", None, 1.5,
                              gulliver.BETA_TARGET_MAX)
    periods = read_number(cfg, "T_max", 3.0, 0.0)     # in profile periods
    beta_max = read_number(cfg, "beta_max", 64.0, 0.0)
    tol = read_number(cfg, "tol", 1e-3, 0.0)
    params = gulliver.search_params(beta_target)
    profile = gulliver.synth_profile(params)
    T_max, dt = periods * float(profile.T), 1e-2
    _jacobi_horizon(T_max, dt)
    _check_step_phase(float(np.max(np.abs(profile.K_samples))),
                      "max|K_samples|", beta_max, T_max, dt)
    cert = cocycle.terminator_bisect([profile], beta_max=beta_max, tol=tol,
                                     T_max=T_max, dt=dt)
    out.json("gulliver_params.json", params.to_json())
    out.json("terminator_certificate.json", cert.to_json())
    ts = np.arange(len(profile.K_samples)) * profile.dt
    out.csv("profile.csv", {"t": ts, "K": profile.K_samples})
    return EXIT_OK


COMMANDS = {
    "pestov": cmd_pestov,
    "terminator": cmd_terminator,
    "anosov": cmd_anosov,
    "xray": cmd_xray,
    "invariant": cmd_invariant,
    "gulliver": cmd_gulliver,
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="anosovlab", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default="anosovlab_out")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            raise ConfigError(f"--seed must be an integer >= 0, not "
                              f"{args.seed}")
        cfg = _load_config(args.config, args.command)
        out = _Out(args.out, cfg)
        out.stamp["seed"] = args.seed
        return COMMANDS[args.command](cfg, out, args.seed)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except JacobiSolveError as e:
        print(f"error: solver failure: {e}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
