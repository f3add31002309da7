"""anosovlab benchmark: runs a workload's CLI commands, checks their output,
and prints the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from a checkout of the repository.  Every round runs in a fresh worker
process (worker.py), one after another; rounds repeat until ``--seconds``
have passed, and every run makes at least one whole round.  The last line
of standard output is the result as one JSON object.
"""

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
# Set-up-only processes per untraced run, half before the rounds and half
# after: one set-up (~1 s) sees a single state of the host's CPU speed, which
# swings for seconds at a time, so the probes are spread across the run.
SETUP_PROBES = 4
# One BLAS thread: a second OpenBLAS thread spins on the other CPU, doubling
# CPU use for no gain and tying the timings to whatever else runs there.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
WORKER_TIMEOUT = 170.0  # seconds; a run must end within 180


def _worker(workload, seed, trace=0, setup_only=False):
    """One fresh worker process; returns its record, or None if it died."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {WORKER_TIMEOUT} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _rounds(workload, seed, seconds, trace, n_commands):
    """Whole rounds until ``seconds`` have passed; stops at a dead worker,
    counting its commands as failed."""
    start = time.perf_counter()
    rounds = []
    while not rounds or time.perf_counter() - start < seconds:
        rec = _worker(workload, seed, trace)
        if rec is None:
            rounds.append({"attempted": n_commands, "failed": n_commands,
                           "problems": ["worker died"]})
            break
        rounds.append(rec)
    return rounds


def _blas():
    """BLAS libraries loaded with numpy and their thread counts."""
    import numpy  # noqa: F401  (numpy and scipy each load one)
    import scipy.linalg  # noqa: F401
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f
                       if "openblas" in line.split()[-1].lower()})
    out = []
    for path in libs:
        info = {"library": path}
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                conf = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get is not None and "threads" not in info:
                    info["threads"] = get()
                if conf is not None and "config" not in info:
                    conf.restype = ctypes.c_char_p
                    info["config"] = conf().decode()
        out.append(info)
    return out


def environment():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "sympy")},
        "blas": _blas(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS") if k in os.environ},
        "loadavg": os.getloadavg(),
    }


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(workload, seed, seconds, trace):
    from workloads import WORKLOADS
    n_commands = len(WORKLOADS[workload].commands)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace,
              "commands": [list(c) for c in WORKLOADS[workload].commands]}
    if trace:
        base = _rounds(workload, seed, 0.0, 0, n_commands)
        rounds = base + _rounds(workload, seed,
                                max(0.0, seconds - base[0].get("wall_s", 0.0)),
                                1, n_commands)
        traced = [r for r in rounds[1:] if "layers" in r and not r["failed"]]
        metrics = {}
        if traced and not base[0]["failed"]:
            for name in traced[0]["layers"]:
                metrics[name] = statistics.median(
                    r["layers"][name] for r in traced)
            metrics["trace.overhead_s"] = (
                statistics.median(r["wall_s"] for r in traced)
                - base[0]["wall_s"])
    else:
        probes = [_worker(workload, seed, setup_only=True)
                  for _ in range(SETUP_PROBES // 2)]
        rounds = _rounds(workload, seed, seconds, 0, n_commands)
        probes += [_worker(workload, seed, setup_only=True)
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        # a round with a failed command stopped early: keep it out
        done = [r for r in rounds if not r["failed"]]
        metrics = {}
        if done and all(probes):
            metrics = {
                "wall_s": statistics.median(r["wall_s"] for r in done),
                "setup_s": statistics.median(
                    [p["setup_s"] for p in probes]
                    + [r["setup_s"] for r in done]),
                "peak_rss_mb": statistics.median(
                    r["peak_rss_mb"] for r in done),
            }
        record["setup_probes"] = probes
    record["rounds"] = rounds
    record["environment"] = environment()
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    wanted = _spec()["per_layer" if trace else "end_to_end"]
    # no command fails on purpose, so any failure makes the result wrong
    correct = (failed == 0 and all(m["name"] in metrics for m in wanted))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]],
                                      "unit": m["unit"]}
                          for m in wanted if m["name"] in metrics}}
    record["result"] = result
    outdir = BENCH / "out" / workload
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / f"run-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    _print_table(record)
    return result


def _print_table(record):
    res = record["result"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"rounds {len(record['rounds'])}  trace {record['trace']}")
    for name, m in res["metrics"].items():
        print(f"  {name:<42} {m['value']:>16.6g} {m['unit']}")
    print(f"  commands attempted {res['attempted']}  failed {res['failed']}"
          f"  correct {res['correct']}")
    for r in record["rounds"]:
        for p in r.get("problems", []):
            print(f"  problem: {p}")
    env = record["environment"]
    print(f"  environment: nproc {env['nproc']}  python {env['python']}  "
          f"numpy {env['numpy']}  scipy {env['scipy']}  sympy {env['sympy']}"
          f"  blas {[(b.get('config', b['library']), b.get('threads')) for b in env['blas']]}"
          f"  loadavg {env['loadavg']}")


def main():
    os.environ.update(ONE_THREAD)   # before numpy loads, here and in workers
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "anosovlab" / "cli.py").is_file():
        print(f"error: no anosovlab sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, args.trace)
               for n in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}/{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
