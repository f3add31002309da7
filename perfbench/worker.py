"""One benchmark round in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 [--setup-only]

Times the set-up (importing the anosovlab modules and building the
workload's surface), then runs the round's CLI commands through
``anosovlab.cli.main`` and times them, then checks every command's output.
Prints one JSON line with the figures.
"""

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    from anosovlab import (cli, geometry, flow, cocycle, gulliver, xray,
                           smfourier)
    return {"cli": cli, "geometry": geometry, "flow": flow,
            "cocycle": cocycle, "gulliver": gulliver, "xray": xray,
            "smfourier": smfourier}


def _capture(modules, sink):
    """Keep what the checks need, in ``sink["now"]``: the profile pool
    handed to terminator_bisect and the field invariant_extension returns."""
    from spans import replace_function

    def keep(fn, key, pick):
        def kept(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink["now"].setdefault(key, []).append(pick(args, result))
            return result
        replace_function(list(modules.values()), fn, kept)

    keep(modules["cocycle"].terminator_bisect, "terminator_bisect",
         lambda a, r: list(a[0]))
    keep(modules["smfourier"].invariant_extension, "invariant_extension",
         lambda a, r: r)


def _stamp_problems(cmd_dir, seed):
    """The command's JSON reports must carry this run's seed: a report left
    over from elsewhere, or one never written, fails the command."""
    stamps = []
    for path in sorted(cmd_dir.glob("*.json")):
        if path.name == "config.json":
            continue
        report = json.loads(path.read_text())
        if isinstance(report, dict) and "seed" in report:
            stamps.append((path.name, report["seed"]))
    if not stamps:
        return ["no report stamped with a seed"]
    return [f"{name} stamped with seed {s}, run seed {seed}"
            for name, s in stamps if s != seed]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    modules = _import_package()
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS
    import spans
    tracer = None
    if args.trace:   # traced set-up times are not reported as setup_s
        tracer = spans.Tracer()
        spans.install(tracer, modules)
    wl = WORKLOADS[args.workload]
    if wl.surface is not None:
        modules["geometry"].surface_from_json(wl.surface)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    sink = {}
    _capture(modules, sink)
    cli = modules["cli"]
    outdir = OUT / args.workload
    results = []
    wall_s = 0.0
    for i, (command, cfg) in enumerate(wl.commands):
        cmd_dir = outdir / f"cmd{i}"
        shutil.rmtree(cmd_dir, ignore_errors=True)   # no earlier run's reports
        cmd_dir.mkdir(parents=True)
        cfg_path = cmd_dir / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        captured = sink["now"] = {}
        argv = [command, "--config", str(cfg_path), "--out", str(cmd_dir),
                "--seed", str(args.seed)]
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:
            rc, err = 1, traceback.format_exc()
        else:
            err = None
        wall_s += time.perf_counter() - start
        results.append((command, cfg, cmd_dir, captured, rc, err))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # A command fails when it exits non-zero or fails its check.
    failed, problems = 0, []
    for command, cfg, cmd_dir, captured, rc, err in results:
        if rc != 0:
            bad = [f"exit code {rc}" + (f"\n{err}" if err else "")]
        else:
            try:
                bad = (_stamp_problems(cmd_dir, args.seed)
                       or wl.check(cfg, args.seed, cmd_dir, captured))
            except Exception:
                bad = [f"check raised\n{traceback.format_exc()}"]
        if bad:
            failed += 1
            problems.extend(f"{command} {cfg}: {p}" for p in bad)
    record = {"setup_s": setup_s, "wall_s": wall_s,
              "peak_rss_mb": peak_rss_mb, "attempted": len(results),
              "failed": failed, "problems": problems}
    if tracer is not None:
        record["layers"] = spans.layer_metrics(tracer)
        tracer.dump(outdir / "spans.jsonl")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
