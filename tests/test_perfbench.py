"""The benchmark's per-layer tracer (perfbench/spans.py) wraps package
functions and methods looked up by name.  Installing it here, in a fresh
interpreter, fails when one of those names is renamed or deleted, without
running a benchmark round."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_every_wrapped_name():
    code = ("import spans\n"
            "from anosovlab import (cli, geometry, flow, cocycle, gulliver,\n"
            "                       xray, smfourier)\n"
            "spans.install(spans.Tracer(), {\n"
            "    'cli': cli, 'geometry': geometry, 'flow': flow,\n"
            "    'cocycle': cocycle, 'gulliver': gulliver, 'xray': xray,\n"
            "    'smfourier': smfourier})\n")
    # no bytecode: the test only reads perfbench/
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
