"""The benchmark's workloads: which CLI commands one round runs, on which
surface, and which check judges each command's output.

A round is the same list of commands every time; the benchmark seed is
passed unchanged to every command as ``--seed``.
"""

from dataclasses import dataclass

import checks

TORUS = {"type": "conformal_torus", "nx": 64, "ny": 64,
         "lambda": "0.1*cos(x)*sin(y)"}
OCTAGON = {"type": "octagon"}
GULLIVER_TARGETS = (1.55, 1.65, 1.75, 1.85, 1.95)


@dataclass(frozen=True)
class Workload:
    surface: dict          # built during set-up; None when no command uses one
    commands: tuple        # (command, config) pairs run in order
    check: object          # check(config, seed, outdir, captured) -> problems


WORKLOADS = {
    # The defaults (beta_max 64, tol 1e-3) make 17 bisection passes and take
    # ~100 s.  beta_max 64/2^14 makes only their last three passes, at
    # 64/2^14, 64/2^15 and 64/2^16 or 3*64/2^16, and ends in a bracket of
    # width 64/2^16 as they do; T_max and dt cannot shorten the run because
    # `anosov` ignores them.
    "anosov-torus": Workload(
        TORUS,
        (("anosov", {"surface": TORUS, "beta_max": 64.0 / 2 ** 14,
                     "tol": 1e-3}),),
        checks.anosov),
    "gulliver-sweep": Workload(
        None,
        tuple(("gulliver", {"beta_target": b}) for b in GULLIVER_TARGETS),
        checks.gulliver),
    "xray-octagon": Workload(
        OCTAGON, (("xray", {"surface": OCTAGON}),), checks.xray),
    # Two identical solves: one (~12 s) is too short to average out the
    # host's CPU-speed swings, which last several seconds.
    "invariant-octagon": Workload(
        OCTAGON, (("invariant", {"surface": OCTAGON}),) * 2, checks.invariant),
}
