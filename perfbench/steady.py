"""Steadiness check: two sets of benchmark runs of the same commit.

    python3 perfbench/steady.py

Each set makes ten untraced runs of every workload in BENCHMARK.json, one
seed per run: seeds 1-10, then 11-20.  Workloads run one after another,
each with its first set and then its second.  For every workload and
end-to-end metric it prints each set's median, quartiles and spread (the
distance between the quartiles over the median), the same for both sets
pooled, and the shift of the second median against the first.  It exits 1
when a set's spread exceeds the metric's bound in BENCHMARK.json, when a
median shifts the worse way by more than the bound, or when the two sets
fail different shares of their commands.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10   # runs per set


def _run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
        timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"run {workload} seed {seed} printed nothing:\n{proc.stderr}")
    return json.loads(lines[-1])


def _stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def _report(w, a, b, spec):
    """Print the figures of one workload's two sets; False on a failure."""
    ok = True
    if not all(r["correct"] for r in a + b):
        print(f"FAIL {w}: a run reported wrong output")
        ok = False
    shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
              for rs in (a, b)]
    if shares[0] != shares[1]:
        print(f"FAIL {w}: failed share {shares[0]} vs {shares[1]}")
        ok = False
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        st = [_stats([r["metrics"][name]["value"] for r in rs])
              for rs in (a, b)]
        both = _stats([r["metrics"][name]["value"] for r in a + b])
        shift = st[1]["median"] / st[0]["median"] - 1.0
        worse = shift if m["better"] == "lower" else -shift
        line = (f"{w:<18} {name:<12} "
                + "  ".join(f"set{i + 1} median {x['median']:.6g} "
                            f"q1 {x['q1']:.6g} q3 {x['q3']:.6g} "
                            f"spread {x['spread']:.4f}"
                            for i, x in enumerate(st))
                + f"  both median {both['median']:.6g} q1 {both['q1']:.6g}"
                f" q3 {both['q3']:.6g} spread {both['spread']:.4f}"
                + f"  shift {shift:+.4f}  bound {bound}")
        bad = worse > bound or max(x["spread"] for x in st) > bound
        ok &= not bad
        print(("FAIL " if bad else "ok   ") + line)
    return ok


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for w in (w["name"] for w in spec["workloads"]):
        sets = []
        for s in range(2):
            sets.append([])
            for seed in range(1 + s * RUNS, 1 + (s + 1) * RUNS):
                res = _run(w, seed, spec["run_seconds"])
                sets[-1].append(res)
                print(f"set {s + 1} seed {seed} {w}: " + json.dumps(res),
                      flush=True)
        ok &= _report(w, *sets, spec)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
