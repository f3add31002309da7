"""Batch command-line front door.

    anosovlab <command> --config file.json [--out DIR] [--seed N] [--workers N]

Commands: pestov, terminator, anosov, xray, invariant, gulliver.
Exit codes: 0 ok, 2 config error, 3 insufficient data, 4 solver failure.
Every output JSON embeds the config hash and tool version; tabular data is
emitted as tidy CSV (one observation per row).
"""

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_SOLVER = 4


class ConfigError(ValueError):
    pass


def _is_number(val):
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _load_config(path):
    try:
        with open(path) as f:
            cfg = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    for key, val in cfg.items():
        if key.endswith("tol") and not (isinstance(val, (int, float))
                                        and val > 0):
            raise ConfigError(f"tolerance {key!r} must be positive")
    for key, zero_ok in (("beta_max", False), ("T_max", False),
                         ("dt", False), ("kernel_threshold", False),
                         ("reg", True)):
        if key not in cfg:
            continue
        val = cfg[key]
        # the upper bound rejects inf, and ints too large for a float; the
        # comparisons reject NaN
        if not (_is_number(val) and (0 <= val if zero_ok else 0 < val)
                and val <= sys.float_info.max):
            kind = "nonnegative" if zero_ok else "positive"
            raise ConfigError(f"{key!r} must be a finite {kind} number")
    return cfg


def _int_key(cfg, key, default, lo, hi=None):
    """cfg[key] (or the default) as an int in [lo, hi]; an integral float
    counts as an int."""
    val = cfg.get(key, default)
    if (isinstance(val, float) and val.is_integer()
            and abs(val) <= sys.maxsize):
        val = int(val)
    if not (isinstance(val, int) and not isinstance(val, bool) and lo <= val
            and (hi is None or val <= hi)):
        bound = f"at least {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ConfigError(f"{key!r} must be an integer {bound}")
    return val


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
    except (KeyError, ValueError, TypeError) as e:
        raise ConfigError(f"invalid surface spec: {e}")


class _Out:
    def __init__(self, outdir, cfg):
        self.dir = Path(outdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.stamp = {"config_sha256": _config_hash(cfg),
                      "version": __version__}

    def json(self, name, payload):
        payload = {**self.stamp, **payload}
        path = self.dir / name
        with open(path, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True, default=float)
            f.write("\n")
        return path

    def csv(self, name, header, rows):
        path = self.dir / name
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(header)
            for row in rows:
                w.writerow(row)
        return path


# ----------------------------------------------------------------------------
# commands


def cmd_pestov(cfg, out, seed):
    from .geometry import ConformalTorus, FuchsianOctagon, ConstantCurvature
    from . import smfourier as sf

    n_fields = _int_key(cfg, "n_fields", 5, 1)
    n_modes = _int_key(cfg, "n_modes", 6, 0)
    band = _int_key(cfg, "spatial_band", 4, 0)
    n_grid = _int_key(cfg, "grid", 64, 2 * band + 1)
    model = _surface(cfg)
    rng = np.random.default_rng(seed)

    if isinstance(model, ConformalTorus):
        n_grid = max(n_grid, model.nx)           # spectral resample only upsamples
        charts = [sf.Chart.from_torus(model, n) for n in (n_grid, 2 * n_grid)]
    elif isinstance(model, (FuchsianOctagon, ConstantCurvature)):
        charts = [sf.Chart.disk_patch(model, half_width=0.55, n=n)
                  for n in (n_grid, 2 * n_grid)]
    else:
        raise ConfigError(f"unsupported surface {type(model).__name__}")

    window = None
    if not isinstance(model, ConformalTorus):
        window = [sf._patch_window(ch) for ch in charts]
    rows = []
    for i in range(n_fields):
        state = rng.bit_generator.state
        for j, ch in enumerate(charts):
            rng_i = np.random.default_rng()
            rng_i.bit_generator.state = state    # same field on both grids
            u = sf.SMField.random_real(ch, n_modes=n_modes,
                                       spatial_band=band, rng=rng_i)
            if window is not None:
                u = sf.SMField(ch, {k: u.get(k) * window[j]
                                    for k in u.modes}, u.n_modes)
            rows.append((i, ch.nx, sf.pestov_residual(u)))
    out.csv("pestov_residuals.csv", ["field", "grid", "residual"], rows)
    coarse = [r[2] for r in rows if r[1] == charts[0].nx]
    fine = [r[2] for r in rows if r[1] == charts[1].nx]
    ratios = [c / f if f > 0 else np.inf for c, f in zip(coarse, fine)]
    min_ratio = min(ratios)
    out.json("pestov_report.json", {
        "surface": cfg["surface"], "n_fields": n_fields,
        "max_residual_coarse": max(coarse), "max_residual_fine": max(fine),
        # null when the coarse residual already sits at the floor
        "min_refinement_ratio": (min_ratio if np.isfinite(min_ratio)
                                 else None)})
    return EXIT_OK


def cmd_terminator(cfg, out, seed):
    from . import cocycle

    model = _surface(cfg)
    pool = cocycle._profile_pool(model, seed=seed)
    if not pool:
        print("error: empty curvature-profile pool", file=sys.stderr)
        return EXIT_DATA
    cert = cocycle.terminator_bisect(
        pool, beta_max=float(cfg.get("beta_max", 64.0)),
        tol=float(cfg.get("tol", 1e-3)),
        T_max=float(cfg.get("T_max", 200.0)),
        dt=float(cfg.get("dt", 1e-2)))
    out.json("terminator_certificate.json", cert.to_json())
    return EXIT_OK


def cmd_anosov(cfg, out, seed):
    from . import cocycle

    model = _surface(cfg)
    verdict = cocycle.anosov_verdict(
        model, beta_max=float(cfg.get("beta_max", 64.0)),
        tol=float(cfg.get("tol", 1e-3)),
        T_max=float(cfg.get("T_max", 200.0)),
        dt=float(cfg.get("dt", 1e-2)), seed=seed)
    out.json("anosov_verdict.json", verdict)
    return EXIT_OK


def cmd_xray(cfg, out, seed):
    from .geometry import FuchsianOctagon
    from . import xray

    m = _int_key(cfg, "m", 2, 0)
    n_samples = _int_key(cfg, "n_samples", 512, 1)
    pool_size = _int_key(cfg, "pool_size", 256, 1)
    max_word_len = _int_key(cfg, "max_word_len", 6, 1)
    n_basis = _int_key(cfg, "n_basis", 16, 1, xray.basis_capacity(m))
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
        model, m, pool, n_basis=n_basis,
        threshold=float(cfg.get("kernel_threshold", 1e-6)),
        n_samples=n_samples)
    out.json("xray_report.json", report)
    out.csv("geodesic_pool.csv", ["index", "word", "length"],
            [(i, "".join(map(str, g.word)), g.period)
             for i, g in enumerate(pool)])
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
    n_modes = _int_key(cfg, "n_modes", 10, 3)
    band = _int_key(cfg, "spatial_band", 2, 0)
    grid = _int_key(cfg, "grid", 48, 2 * band + 1)
    model = _surface(cfg)
    reg = float(cfg.get("reg", 1e-12))
    rng = np.random.default_rng(seed)
    if isinstance(model, FuchsianOctagon):
        f = sf.octagon_mode0_field(model, rng=rng, spatial_band=band, n=grid)
    elif isinstance(model, ConformalTorus):
        ch = sf.Chart.from_torus(model, grid)
        u = sf.SMField.random_real(ch, n_modes=0, spatial_band=band, rng=rng)
        f = sf.SMField(ch, {0: u.get(0)})
    else:
        raise ConfigError(f"unsupported surface {type(model).__name__}")
    w, diag = sf.invariant_extension(f, variant, n_modes=n_modes, reg=reg)
    tol = float(cfg.get("tol", 1e-6))
    rel = diag["interior_max"] / max(diag["w_norm"], 1e-300)
    out.csv("invariant_modes.csv", ["k", "norm"],
            [(k, np.sqrt(w.chart.norm2(w.get(k))))
             for k in sorted(w.modes)])
    out.csv("ladder_residuals.csv", ["k", "residual", "truncation_affected"],
            [(k, v["residual"], v["truncation_affected"])
             for k, v in sorted(diag["ladder"].items())])
    out.json("invariant_report.json", {
        "variant": variant, "n_modes": n_modes,
        "interior_ladder_max": diag["interior_max"],
        "interior_ladder_relative": rel,
        "w_norm": diag["w_norm"],
        "mode_decay_slope": diag["mode_decay_slope"],
        "solver_residual": diag["solver_residual"],
        "solver_istop": diag["solver_istop"],
        "solver_iterations": diag["solver_iterations"]})
    if rel > tol:
        print(f"error: solver residual {rel:.3e} above tolerance {tol:.1e}",
              file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def cmd_gulliver(cfg, out, seed):
    from . import gulliver, cocycle

    beta_target = cfg.get("beta_target")
    if beta_target is None:
        raise ConfigError("gulliver needs 'beta_target'")
    if not _is_number(beta_target):
        raise ConfigError("'beta_target' must be a number")
    try:
        params = gulliver.search_params(float(beta_target))
    except ValueError as e:
        raise ConfigError(str(e))
    profile = gulliver.synth_profile(params)
    cert = cocycle.terminator_bisect(
        [profile], beta_max=float(cfg.get("beta_max", 64.0)),
        tol=float(cfg.get("tol", 1e-3)),
        T_max=float(cfg.get("T_max", 3.0)) * profile.T)
    out.json("gulliver_params.json", params.to_json())
    out.json("terminator_certificate.json", cert.to_json())
    ts = np.arange(0.0, profile.T, profile.dt)
    out.csv("profile.csv", ["t", "K"], zip(ts, profile(ts)))
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
    parser.add_argument("--workers", type=int, default=None,
                        help="recorded in reports; commands run "
                             "single-process for reproducibility")
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        out = _Out(args.out, cfg)
        out.stamp["seed"] = args.seed
        if args.workers is not None:
            out.stamp["workers"] = args.workers
        return COMMANDS[args.command](cfg, out, args.seed)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
