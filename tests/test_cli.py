import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from anosovlab import cli

OCTAGON = {"type": "octagon"}
SPHERE = {"type": "constant", "K": 1.0}
FLAT = {"type": "conformal_torus", "nx": 16, "ny": 16, "lambda": "0"}
CURVED = {"type": "conformal_torus", "nx": 32, "ny": 32,
          "lambda": "0.1*cos(x)*sin(y)"}


def _write(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def _run(tmp_path, command, cfg, seed=0, sub="out"):
    path = _write(tmp_path, f"{command}.json", cfg)
    out = tmp_path / sub
    rc = cli.main([command, "--config", path, "--out", str(out),
                   "--seed", str(seed)])
    return rc, out


class TestConfigHandling:
    def test_missing_file_is_config_error(self, tmp_path):
        rc = cli.main(["anosov", "--config", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_CONFIG

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        rc = cli.main(["anosov", "--config", str(p),
                       "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_CONFIG

    def test_nonpositive_tolerance_rejected(self, tmp_path):
        rc, _ = _run(tmp_path, "anosov", {"surface": SPHERE, "tol": -1.0})
        assert rc == cli.EXIT_CONFIG

    @pytest.mark.parametrize("val", ["true", "1e999", '"1e-3"'])
    def test_bad_tolerance_rejected(self, tmp_path, val):
        # written as raw JSON text: 1e999 parses to infinity
        p = tmp_path / "cfg.json"
        p.write_text('{"surface": {"type": "constant", "K": 1.0}, '
                     f'"tol": {val}}}')
        out = tmp_path / "out"
        rc = cli.main(["terminator", "--config", str(p), "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["anosov", "invariant"])
    @pytest.mark.parametrize("lam", ["x**2", "x*(x - 2*pi)", "a*cos(x)"])
    def test_nonperiodic_lambda_rejected(self, tmp_path, command, lam):
        # x*(x - 2 pi) vanishes on both x edges; its x-derivative does not;
        # a*cos(x) has a symbol that is neither x nor y
        surface = {"type": "conformal_torus", "nx": 16, "ny": 16,
                   "lambda": lam}
        start = time.perf_counter()
        rc, out = _run(tmp_path, command, {"surface": surface})
        assert rc == cli.EXIT_CONFIG
        assert not out.exists() or not any(out.iterdir())
        assert time.perf_counter() - start < 30.0   # before any work

    @pytest.mark.parametrize("key, val", [("dt", 0), ("beta_max", -1)])
    def test_nonpositive_cocycle_key_rejected(self, tmp_path, key, val):
        rc, out = _run(tmp_path, "anosov", {"surface": SPHERE, key: val})
        assert rc == cli.EXIT_CONFIG
        assert not (out / "anosov_verdict.json").exists()

    @pytest.mark.parametrize("command, key, val", [
        ("invariant", "reg", "abc"), ("invariant", "reg", -1e-12),
        ("invariant", "reg", float("nan")),
        ("xray", "kernel_threshold", -1), ("xray", "kernel_threshold", 0),
        ("xray", "kernel_threshold", float("inf")),
        ("xray", "kernel_threshold", 1.0),
        ("xray", "kernel_threshold", 1e308)])
    def test_bad_float_key_rejected(self, tmp_path, command, key, val):
        rc, out = _run(tmp_path, command, {"surface": OCTAGON, key: val})
        assert rc == cli.EXIT_CONFIG
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command, cfg", [
        ("terminator", {"surface": SPHERE, "T_max": 1e6}),
        ("anosov", {"surface": SPHERE, "T_max": 1.0, "dt": 1e-8}),
        ("gulliver", {"beta_target": 1.75, "T_max": 1e308})])
    def test_step_count_bounded(self, tmp_path, command, cfg):
        # more than cli.MAX_JACOBI_STEPS RK4 steps of the Jacobi solves
        rc, out = _run(tmp_path, command, cfg)
        assert rc == cli.EXIT_CONFIG
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command, cfg", [
        ("terminator", {"surface": SPHERE, "beta_max": 1e308}),
        ("terminator", {"surface": SPHERE, "beta_max": 1e12}),
        ("terminator", {"surface": SPHERE, "beta_max": 1e4, "dt": 0.011}),
        ("anosov", {"surface": OCTAGON, "beta_max": 1e12}),
        ("anosov", {"surface": {"type": "constant", "K": -4.0},
                    "T_max": 1.0, "dt": 2.0}),
        # max|K_samples| = 1 on the cap-collar profile; at beta_max 1e12
        # gulliver exited 0 with a first conjugate time of 2.69 where the
        # truth is ~9e-5
        ("gulliver", {"beta_target": 1.75, "beta_max": 1e12}),
        # max|K_grid| ~ 0.2 on the curved torus
        ("anosov", {"surface": CURVED, "beta_max": 1e12}),
        ("terminator", {"surface": CURVED, "beta_max": 1e12})])
    def test_unresolved_beta_max_rejected(self, tmp_path, capsys, command,
                                          cfg):
        # h sqrt(beta_max max|K|) above cli.MAX_STEP_PHASE; at beta_max 1e12
        # on K = 1 the RK4 solve is finite but reported a first conjugate
        # time of 78.53 where the true one is pi 1e-6
        start = time.perf_counter()
        rc, out = _run(tmp_path, command, cfg)
        assert rc == cli.EXIT_CONFIG
        assert not out.exists() or not any(out.iterdir())
        err = capsys.readouterr().err
        assert "beta_max" in err
        # the message names the maximum it used
        which = {"gulliver": "max|K_samples|"}.get(
            command, "max|K_grid|" if cfg.get("surface") == CURVED else "|K|")
        assert f"beta_max {which})" in err
        assert time.perf_counter() - start < 5.0    # before any work

    def test_resolved_beta_max_accepted(self, tmp_path):
        # h sqrt(beta_max K) = 0.01 sqrt(1e4) = 1, at the bound
        rc, out = _run(tmp_path, "terminator",
                       {"surface": SPHERE, "beta_max": 1e4, "T_max": 1.0})
        assert rc == cli.EXIT_OK
        doc = json.loads((out / "terminator_certificate.json").read_text())
        assert not doc["exceeds_beta_max"]

    @pytest.mark.filterwarnings("error")
    def test_nonfinite_jacobi_state_is_solver_failure(self, tmp_path, capsys,
                                                      monkeypatch):
        # the step-resolution check rejects beta_max 1e308 before any solve;
        # with it lifted, the Jacobi kernel's step matrices overflow, and
        # that must not read as "no conjugate point".  The overflow is the
        # case under test, so it raises no warning
        monkeypatch.setattr(cli, "MAX_STEP_PHASE", math.inf)
        rc, out = _run(tmp_path, "gulliver",
                       {"beta_target": 1.75, "beta_max": 1e308})
        assert rc == cli.EXIT_SOLVER
        assert "solver failure" in capsys.readouterr().err
        assert not (out / "terminator_certificate.json").exists()

    @pytest.mark.parametrize("command, cfg", [
        ("pestov", {"surface": OCTAGON, "n_fields": cli.MAX_FIELDS + 1}),
        ("pestov", {"surface": OCTAGON, "n_modes": 10 ** 9}),
        ("pestov", {"surface": OCTAGON, "grid": 10 ** 9}),
        # 13 modes on the fine 2 * 101 grid: 530k points
        ("pestov", {"surface": OCTAGON, "grid": 101}),
        ("invariant", {"surface": OCTAGON, "n_modes": 10 ** 9}),
        ("invariant", {"surface": OCTAGON, "grid": 159}),
        ("invariant", {"surface": {**FLAT, "nx": 10 ** 9}}),
        ("terminator", {"surface": {**FLAT, "ny": 513}}),
        # a grid lambda is capped by its shape, not by nx and ny
        ("terminator", {"surface": {**FLAT, "lambda": [[0.0] * 513]}})])
    def test_size_caps(self, tmp_path, command, cfg):
        start = time.perf_counter()
        rc, out = _run(tmp_path, command, cfg)
        assert rc == cli.EXIT_CONFIG
        assert not out.exists() or not any(out.iterdir())
        assert time.perf_counter() - start < 5.0    # before any work

    def test_missing_surface(self, tmp_path):
        rc, _ = _run(tmp_path, "terminator", {})
        assert rc == cli.EXIT_CONFIG

    def test_unknown_surface_type(self, tmp_path):
        rc, _ = _run(tmp_path, "anosov", {"surface": {"type": "mystery"}})
        assert rc == cli.EXIT_CONFIG

    @pytest.mark.parametrize("surface", ["octagon", ["octagon"], 1, True])
    def test_surface_spec_not_an_object(self, tmp_path, surface):
        rc, out = _run(tmp_path, "anosov", {"surface": surface})
        assert rc == cli.EXIT_CONFIG
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("val", ["true", '"1"', "null", "[1]", "1e999",
                                     "NaN"])
    def test_constant_K_checked(self, tmp_path, val):
        # written as raw JSON text: 1e999 parses to infinity
        p = tmp_path / "cfg.json"
        p.write_text(f'{{"surface": {{"type": "constant", "K": {val}}}}}')
        out = tmp_path / "out"
        rc = cli.main(["terminator", "--config", str(p), "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert not out.exists() or not any(out.iterdir())

    def test_gulliver_needs_target(self, tmp_path):
        rc, _ = _run(tmp_path, "gulliver", {})
        assert rc == cli.EXIT_CONFIG

    def test_gulliver_target_out_of_range(self, tmp_path):
        rc, _ = _run(tmp_path, "gulliver", {"beta_target": 2.7})
        assert rc == cli.EXIT_CONFIG

    @pytest.mark.parametrize("target", [1.995, 1.999])
    def test_gulliver_target_above_the_representable_one(self, tmp_path,
                                                         target):
        # in (1.5, 2), but above the largest target double precision holds
        # to the r2 relation
        rc, out = _run(tmp_path, "gulliver", {"beta_target": target})
        assert rc == cli.EXIT_CONFIG
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("target", [[1], "1.75", True])
    def test_gulliver_target_not_a_number(self, tmp_path, target):
        rc, out = _run(tmp_path, "gulliver", {"beta_target": target})
        assert rc == cli.EXIT_CONFIG
        assert not out.exists() or not any(out.iterdir())


    @pytest.mark.parametrize("key", ["nx", "ny", "Lx", "Ly"])
    @pytest.mark.parametrize("val", ["0", "-1", "2.5", "true", '"8"',
                                     "1e999"])
    def test_torus_size_checked(self, tmp_path, key, val):
        # written as raw JSON text: 1e999 parses to infinity
        p = tmp_path / "cfg.json"
        p.write_text('{"surface": {"type": "conformal_torus", "nx": 8, '
                     f'"ny": 8, "lambda": "0", "{key}": {val}}}, '
                     '"n_modes": 3, "grid": 8}')
        out = tmp_path / "out"
        rc = cli.main(["invariant", "--config", str(p), "--out", str(out)])
        if key.startswith("L") and val == "2.5":    # a valid box length
            assert rc in (cli.EXIT_OK, cli.EXIT_SOLVER)
        else:
            assert rc == cli.EXIT_CONFIG
            assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command, cfg", [
        ("pestov", {"surface": OCTAGON}), ("terminator", {"surface": SPHERE}),
        ("anosov", {"surface": SPHERE}), ("xray", {"surface": OCTAGON}),
        ("invariant", {"surface": OCTAGON}),
        ("gulliver", {"beta_target": 1.75})])
    @pytest.mark.parametrize("extra", [{"bogus": 1}, {"Tmax": 100.0}])
    def test_unknown_key_rejected(self, tmp_path, capsys, command, cfg,
                                  extra):
        start = time.perf_counter()
        rc, out = _run(tmp_path, command, {**cfg, **extra})
        assert rc == cli.EXIT_CONFIG
        assert not out.exists()
        assert repr(next(iter(extra))) in capsys.readouterr().err
        assert time.perf_counter() - start < 5.0    # before any work

    @pytest.mark.parametrize("command", ["anosov", "terminator", "pestov",
                                         "invariant"])
    @pytest.mark.parametrize("surface", [
        # a 1 x 0 grid has no wavenumbers
        {"type": "conformal_torus", "lambda": [[]]},
        # on a tiny box the wavenumbers overflow, and K_grid is NaN
        *({"type": "conformal_torus", "nx": 8, "ny": 8, "lambda": lam,
           "Lx": Lx} for lam in ("0", "sin(x)") for Lx in (1e-300, 1e-160))])
    def test_torus_the_spectral_calculus_cannot_hold(self, tmp_path, capsys,
                                                     command, surface):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out = _run(tmp_path, command, {"surface": surface})
        assert rc == cli.EXIT_CONFIG
        assert not out.exists() or not any(out.iterdir())
        assert "invalid surface spec" in capsys.readouterr().err

    @pytest.mark.parametrize("Lx", [1e300, math.nextafter(100.0, math.inf)])
    def test_torus_box_capped(self, tmp_path, capsys, Lx):
        # anosov's closed-geodesic shooting grows with the box: 13 s at
        # Lx = Ly = 300 on this flat torus, more than 200 s at 1e3
        start = time.perf_counter()
        rc, out = _run(tmp_path, "anosov", {"surface": {**FLAT, "nx": 8,
                                                        "ny": 8, "Lx": Lx}})
        assert rc == cli.EXIT_CONFIG
        assert not out.exists() or not any(out.iterdir())
        assert "'Lx'" in capsys.readouterr().err
        assert time.perf_counter() - start < 5.0    # before any work

    @pytest.mark.parametrize("surface", [
        # a constant in lambda stretches every geodesic as the box does:
        # anosov on lambda = 3.85 ran 25.7 s before it was bounded
        {**FLAT, "nx": 8, "ny": 8, "lambda": "3.85"},
        # 2 pi e^3 ~ 126
        {**FLAT, "nx": 8, "ny": 8, "lambda": "2*cos(x)**2 - sin(3*y)"},
        # 60 e^0.6 ~ 109
        {**FLAT, "nx": 8, "ny": 8, "Lx": 60.0, "lambda": "0.6*cos(pi*x/30)"},
        {"type": "conformal_torus", "lambda": [[3.85] * 4] * 4}])
    def test_torus_metric_box_capped(self, tmp_path, capsys, surface):
        start = time.perf_counter()
        rc, out = _run(tmp_path, "anosov", {"surface": surface})
        assert rc == cli.EXIT_CONFIG
        assert not out.exists() or not any(out.iterdir())
        assert "metric box" in capsys.readouterr().err
        assert time.perf_counter() - start < 5.0    # before any work

    def test_lambda_runs_no_code(self, tmp_path, capsys, monkeypatch):
        # SymPy's sympify evaluates its string as Python
        calls = []
        monkeypatch.setattr(os, "getpid", lambda: calls.append(1) or 1)
        surface = {**FLAT, "lambda": '0*__import__("os").getpid()'}
        rc, out = _run(tmp_path, "pestov", {"surface": surface})
        assert rc == cli.EXIT_CONFIG
        assert not calls
        assert not out.exists() or not any(out.iterdir())
        assert "'__import__(\"os\").getpid()'" in capsys.readouterr().err

    @pytest.mark.parametrize("lam, part", [
        ("a*cos(x)", "a"), ("Abs(x)", "Abs"), ("sin(x, y)", "sin(x, y)"),
        ("x & y", "x & y"), ("1j", "1j"), ("pi**2", "pi**2"),
        ("2**x", "2**x"), ("x**(1 + 1)", "x**(1 + 1)"),
        ("x.real", "x.real"), ("sin", "sin"),
        # number literals that are not finite floats
        ("1e400*cos(x)", "1e400"),
        pytest.param("sin(x)**1" + "0" * 400, "1" + "0" * 400,
                     id="sin(x)**10...0-400-zeros")])
    def test_lambda_outside_the_language(self, tmp_path, capsys, lam, part):
        # the message names the first part outside the language; pestov, whose
        # cost does not grow with lambda, as pi**2 was accepted
        cfg = {"surface": {**FLAT, "lambda": lam}, "n_fields": 1,
               "n_modes": 2, "spatial_band": 1, "grid": 16}
        rc, out = _run(tmp_path, "pestov", cfg)
        assert rc == cli.EXIT_CONFIG
        assert not out.exists() or not any(out.iterdir())
        assert f"{part!r} is outside" in capsys.readouterr().err

    def test_power_tower_lambda_refused_unevaluated(self, tmp_path):
        # SymPy would evaluate 9**9**9 as an exact integer of 370 million
        # digits; run apart, so that such a run cannot hold up the suite
        path = _write(tmp_path, "cfg.json",
                      {"surface": {**FLAT, "lambda": "9**9**9"}})
        proc = subprocess.run(
            [sys.executable, "-m", "anosovlab.cli", "anosov", "--config", path,
             "--out", str(tmp_path / "out")],
            env=_fresh_env(), capture_output=True, text=True, timeout=5.0)
        assert proc.returncode == cli.EXIT_CONFIG
        assert "'9**9**9'" in proc.stderr

    @pytest.mark.parametrize("lam", [10 ** 400, [[10 ** 400]],
                                     "sin(x)**1" + "0" * 400])
    def test_lambda_too_large_for_a_float(self, tmp_path, lam):
        # each ended in an OverflowError traceback
        rc, out = _run(tmp_path, "anosov", {"surface": {**FLAT, "lambda": lam}})
        assert rc == cli.EXIT_CONFIG
        assert not out.exists() or not any(out.iterdir())

    def test_workers_option_is_gone(self, tmp_path):
        path = _write(tmp_path, "cfg.json", {"surface": SPHERE})
        with pytest.raises(SystemExit):
            cli.main(["terminator", "--config", path, "--workers", "2"])


# small valid configs: every run from them takes well under a second
TORUS8 = {"type": "conformal_torus", "nx": 8, "ny": 8,
          "lambda": "0.1*cos(x)*sin(y)"}
FUZZ_BASES = {
    "pestov": {"surface": TORUS8, "n_fields": 1, "n_modes": 2,
               "spatial_band": 1, "grid": 8},
    "terminator": {"surface": SPHERE, "beta_max": 4.0, "tol": 0.1,
                   "T_max": 10.0, "dt": 0.05},
    "anosov": {"surface": {"type": "constant", "K": -1.0}, "beta_max": 4.0,
               "tol": 0.1, "T_max": 10.0, "dt": 0.05},
    "xray": {"surface": OCTAGON, "m": 0, "max_word_len": 2, "pool_size": 8,
             "n_basis": 4, "kernel_threshold": 1e-6, "n_samples": 32},
    "invariant": {"surface": TORUS8, "variant": "w0", "n_modes": 3,
                  "grid": 8, "spatial_band": 1, "reg": 1e-12, "tol": 1e-6},
    "gulliver": {"beta_target": 1.75, "beta_max": 4.0, "tol": 0.1,
                 "T_max": 1.0},
}
# 10**9 is past every size cap (cli.MAX_WORD_LEN, cli.MAX_N_SAMPLES, ...)
JUNK = [True, False, "junk", None, [1], 0, -1, -2.5, 1e308, 10 ** 9,
        {"a": 1}]
SURFACE_KEYS = ["type", "K", "nx", "ny", "Lx", "Ly", "lambda"]


class TestConfigFuzz:
    @pytest.mark.parametrize("command", sorted(FUZZ_BASES))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_junk_value_ends_in_a_documented_exit_code(self, command, data):
        # one key of the base (any key the command reads, a surface key, or
        # an unknown one) set to a junk value; run in process, a traceback
        # is an exception out of cli.main
        cfg = json.loads(json.dumps(FUZZ_BASES[command]))
        keys = sorted(cli.CONFIG_KEYS[command]) + ["bogus"]
        if "surface" in cfg:
            keys += [f"surface.{k}" for k in SURFACE_KEYS]
        key = data.draw(st.sampled_from(keys), label="key")
        val = data.draw(st.sampled_from(JUNK), label="value")
        if key.startswith("surface."):
            cfg["surface"][key[len("surface."):]] = val
        else:
            cfg[key] = val
        with tempfile.TemporaryDirectory() as tmp:
            rc, _ = _run(Path(tmp), command, cfg)
        assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_DATA,
                      cli.EXIT_SOLVER)


class TestRunArguments:
    @pytest.mark.parametrize("command", sorted(FUZZ_BASES))
    def test_negative_seed_rejected(self, tmp_path, capsys, command):
        rc, out = _run(tmp_path, command, FUZZ_BASES[command], seed=-1)
        assert rc == cli.EXIT_CONFIG
        assert not out.exists()
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", ["taken", "taken/sub"])
    def test_out_that_cannot_be_a_directory(self, tmp_path, capsys, sub):
        (tmp_path / "taken").write_text("")
        rc, out = _run(tmp_path, "terminator", FUZZ_BASES["terminator"],
                       sub=sub)
        assert rc == cli.EXIT_CONFIG
        assert str(out) in capsys.readouterr().err
        assert (tmp_path / "taken").read_text() == ""

    @pytest.mark.parametrize("cfg", [
        {"surface": FLAT, "n_fields": 0},
        {"surface": {**FLAT, "lambda": "a*cos(x)"}}])
    def test_refused_config_leaves_no_output_directory(self, tmp_path, cfg):
        # the directories this run made go; one that was there stays
        rc, out = _run(tmp_path, "pestov", cfg, sub="new/out")
        assert rc == cli.EXIT_CONFIG
        assert not (tmp_path / "new").exists()
        (tmp_path / "old").mkdir()
        rc, out = _run(tmp_path, "pestov", cfg, sub="old/out")
        assert rc == cli.EXIT_CONFIG
        assert not out.exists() and (tmp_path / "old").is_dir()


README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("command", sorted(cli.CONFIG_KEYS))
def test_readme_names_every_key(command):
    # the command's bullet under "### Commands", up to the next bullet
    text = README.read_text().split("### Commands")[1].strip()
    section = "\n" + text.split("\n\n")[0]
    bullets = {b.split("**")[0]: b for b in section.split("\n- **")[1:]}
    missing = sorted(key for key in cli.CONFIG_KEYS[command] - {"surface"}
                     if f"`{key}`" not in bullets[command])
    assert not missing, f"README's {command} paragraph omits {missing}"


class TestCommands:
    def test_terminator_sphere(self, tmp_path):
        rc, out = _run(tmp_path, "terminator", {"surface": SPHERE})
        assert rc == cli.EXIT_OK
        doc = json.loads((out / "terminator_certificate.json").read_text())
        assert doc["beta_hi"] <= 1e-3
        assert len(doc["config_sha256"]) == 16
        int(doc["config_sha256"], 16)

    def test_anosov_sphere_verdict(self, tmp_path):
        rc, out = _run(tmp_path, "anosov", {"surface": SPHERE})
        assert rc == cli.EXIT_OK
        doc = json.loads((out / "anosov_verdict.json").read_text())
        assert doc["verdict"] == "not-Anosov"

    def test_anosov_honours_T_max(self, tmp_path):
        # K = 1 at beta_max = 64 has its first conjugate point at pi/8
        rc, out = _run(tmp_path, "anosov", {"surface": SPHERE, "T_max": 0.3})
        assert rc == cli.EXIT_OK
        doc = json.loads((out / "anosov_verdict.json").read_text())
        assert doc["terminator"]["exceeds_beta_max"]

    def test_pestov_flat_torus(self, tmp_path):
        cfg = {"surface": FLAT, "n_fields": 2, "n_modes": 3, "grid": 16}
        rc, out = _run(tmp_path, "pestov", cfg)
        assert rc == cli.EXIT_OK
        doc = json.loads((out / "pestov_report.json").read_text())
        assert doc["max_residual_fine"] <= 1e-5
        lines = (out / "pestov_residuals.csv").read_text().strip().split("\n")
        assert lines[0] == "field,grid,residual"
        assert len(lines) == 1 + 2 * 2   # 2 fields x 2 grids

    def test_pestov_draws_a_new_field_each_time(self, tmp_path):
        cfg = {"surface": OCTAGON, "n_modes": 2, "spatial_band": 2,
               "grid": 16}
        _, one = _run(tmp_path, "pestov", {**cfg, "n_fields": 1}, sub="one")
        _, two = _run(tmp_path, "pestov", {**cfg, "n_fields": 2}, sub="two")
        rows = [line.split(",") for line in
                (two / "pestov_residuals.csv").read_text().split()[1:]]
        coarse = [r[2] for r in rows if r[1] == "16"]
        assert len(coarse) == 2 and coarse[0] != coarse[1]
        # field 0 keeps its draw
        assert (one / "pestov_residuals.csv").read_text().split()[1:3] == \
            (two / "pestov_residuals.csv").read_text().split()[1:3]

    def test_pestov_same_field_on_both_grids(self, tmp_path, monkeypatch):
        from anosovlab import smfourier as sf
        seen = []
        residual = sf.pestov_residual
        monkeypatch.setattr(sf, "pestov_residual",
                            lambda u: seen.append(u) or residual(u))
        cfg = {"surface": FLAT, "n_fields": 2, "n_modes": 2,
               "spatial_band": 2, "grid": 16}
        assert _run(tmp_path, "pestov", cfg)[0] == cli.EXIT_OK
        coarse, fine = seen[0::2], seen[1::2]
        for c, f in zip(coarse, fine):
            assert np.allclose(f.data[:, ::2, ::2], c.data, atol=1e-12)
        assert not np.allclose(coarse[0].data, coarse[1].data)

    def test_pestov_torus_grid_covers_nx_and_ny(self, tmp_path):
        torus = {"type": "conformal_torus", "nx": 16, "ny": 32,
                 "lambda": "0.1*cos(x)*sin(y)"}
        cfg = {"surface": torus, "n_fields": 1, "n_modes": 2,
               "spatial_band": 2, "grid": 16}
        rc, out = _run(tmp_path, "pestov", cfg)
        assert rc == cli.EXIT_OK
        rows = (out / "pestov_residuals.csv").read_text().split()[1:]
        assert [r.split(",")[1] for r in rows] == ["32", "64"]

    def test_pestov_disk_patch_inside_the_chart(self, tmp_path, capsys):
        # the 0.55 disk patch's corners lie 0.7778 from its centre: inside
        # the chart of radius 1/sqrt(-K) for K = -1.65, outside for K below
        # -1/(2 0.55^2) = -1.653
        cfg = {"n_fields": 1, "n_modes": 2, "spatial_band": 1, "grid": 8}
        for K in (-1.66, -4.0):
            surface = {"type": "constant", "K": K}
            rc, out = _run(tmp_path, "pestov", {"surface": surface, **cfg},
                           sub=f"out{K}")
            assert rc == cli.EXIT_CONFIG
            assert not out.exists() or not any(out.iterdir())
            assert "chart of radius" in capsys.readouterr().err
        surface = {"type": "constant", "K": -1.65}
        rc, out = _run(tmp_path, "pestov", {"surface": surface, **cfg})
        assert rc == cli.EXIT_OK
        assert (out / "pestov_report.json").exists()

    def test_invariant_torus_grid_below_nx(self, tmp_path):
        # the README torus (nx 64) with the default grid, 48
        torus = {"type": "conformal_torus", "nx": 64, "ny": 64,
                 "lambda": "0.1*cos(x)*sin(y)"}
        rc, out = _run(tmp_path, "invariant", {"surface": torus, "n_modes": 3})
        assert rc in (cli.EXIT_OK, cli.EXIT_SOLVER)
        assert (out / "invariant_report.json").exists()

    @pytest.mark.parametrize("bad", [
        {"n_fields": 0}, {"n_modes": -1}, {"spatial_band": -1}, {"grid": 0},
        {"grid": 8}, {"grid": 4, "spatial_band": 2}, {"n_fields": "5"},
        {"grid": 16.5}])
    def test_pestov_bad_key_rejected(self, tmp_path, bad):
        rc, out = _run(tmp_path, "pestov", {"surface": OCTAGON, **bad})
        assert rc == cli.EXIT_CONFIG
        assert not out.exists() or not any(out.iterdir())

    def test_pestov_torus_ratio_null_at_the_rounding_floor(self, tmp_path):
        # on the README torus every residual is rounding (~1e-15), so no
        # field has a refinement ratio
        torus = {"type": "conformal_torus", "nx": 64, "ny": 64,
                 "lambda": "0.1*cos(x)*sin(y)"}
        cfg = {"surface": torus, "n_fields": 3}
        for seed in (0, 1, 2):
            rc, out = _run(tmp_path, "pestov", cfg, seed=seed, sub=str(seed))
            assert rc == cli.EXIT_OK
            doc = json.loads((out / "pestov_report.json").read_text())
            assert doc["max_residual_coarse"] <= cli.PESTOV_RESIDUAL_FLOOR
            assert doc["min_refinement_ratio"] is None

    def test_pestov_octagon_ratio_over_all_fields(self, tmp_path):
        cfg = {"surface": OCTAGON, "n_fields": 2, "n_modes": 2,
               "spatial_band": 2, "grid": 16}
        rc, out = _run(tmp_path, "pestov", cfg)
        assert rc == cli.EXIT_OK
        rows = [line.split(",") for line in
                (out / "pestov_residuals.csv").read_text().split()[1:]]
        coarse = [float(r[2]) for r in rows if r[1] == "16"]
        fine = [float(r[2]) for r in rows if r[1] == "32"]
        assert min(coarse) > cli.PESTOV_RESIDUAL_FLOOR
        doc = json.loads((out / "pestov_report.json").read_text())
        assert doc["min_refinement_ratio"] == \
            min(c / f for c, f in zip(coarse, fine))

    def test_pestov_ratio_skips_fields_at_the_floor(self, tmp_path,
                                                    monkeypatch):
        from anosovlab import smfourier as sf
        # (coarse, fine) per field: 100, rounding, 40
        residuals = iter([1e-8, 1e-10, 5e-16, 0.0, 4e-9, 1e-10])
        monkeypatch.setattr(sf, "pestov_residual",
                            lambda u: next(residuals))
        cfg = {"surface": FLAT, "n_fields": 3, "n_modes": 1,
               "spatial_band": 1, "grid": 16}
        rc, out = _run(tmp_path, "pestov", cfg)
        assert rc == cli.EXIT_OK
        doc = json.loads((out / "pestov_report.json").read_text())
        assert doc["min_refinement_ratio"] == 4e-9 / 1e-10

    def test_gulliver_window(self, tmp_path):
        rc, out = _run(tmp_path, "gulliver", {"beta_target": 1.75})
        assert rc == cli.EXIT_OK
        cert = json.loads((out / "terminator_certificate.json").read_text())
        assert 1.749 <= cert["beta_lo"] and cert["beta_hi"] < 2.0
        assert (out / "gulliver_params.json").exists()
        assert (out / "profile.csv").exists()

    # verdict, bracket and trapping block of `anosov` on the README torus at
    # its defaults, from a profile pool whose orbit windows were stepped
    # apart from the shooting, by rk4_orbit
    README_TORUS_VERDICTS = {
        1: (0.001953125, 0.0029296875, 0.1508782866590017),
        2: (0.0009765625, 0.001953125, 0.07640822093981563),
        3: (0.0009765625, 0.001953125, 0.15126278676554905),
        4: (0.001953125, 0.0029296875, 0.15351954291603795)}

    @pytest.mark.parametrize("seed", sorted(README_TORUS_VERDICTS))
    def test_anosov_readme_torus_verdict(self, tmp_path, seed):
        surface = dict(CURVED, nx=64, ny=64)
        rc, out = _run(tmp_path, "anosov", {"surface": surface}, seed=seed)
        assert rc == cli.EXIT_OK
        rep = json.loads((out / "anosov_verdict.json").read_text())
        lo, hi, min_max = self.README_TORUS_VERDICTS[seed]
        assert rep["verdict"] == "not-Anosov"
        assert (rep["terminator"]["beta_lo"], rep["terminator"]["beta_hi"],
                rep["terminator"]["exceeds_beta_max"]) == (lo, hi, False)
        # min_max_abs_K was written by the FITPACK spline that the numpy
        # bicubic table reproduces to rounding
        trapping = rep["trapping"]
        assert trapping.pop("min_max_abs_K") == pytest.approx(min_max,
                                                              rel=1e-12)
        assert trapping == {
            "trapped_detected": False, "n_dir": 256, "T_window": 50.0,
            "kappa_floor": 1e-4,
            "note": "no trapping detected (finite test)"}

    def test_terminator_grid_built_torus(self, tmp_path):
        # lam = 0.1 cos x sin y sampled on a 16 x 16 grid: the flow and K
        # both read the bicubic interpolant of the spectral grids
        n = 16
        X, Y = np.meshgrid(np.arange(n) * (2 * np.pi / n),
                           np.arange(n) * (2 * np.pi / n), indexing="ij")
        surface = {"type": "conformal_torus",
                   "lambda": (0.1 * np.cos(X) * np.sin(Y)).tolist()}
        rc, out = _run(tmp_path, "terminator", {"surface": surface})
        assert rc == cli.EXIT_OK
        cert = json.loads((out / "terminator_certificate.json").read_text())
        assert (cert["beta_lo"], cert["beta_hi"], cert["exceeds_beta_max"]) \
            == (0.0009765625, 0.001953125, False)

    def test_invariant_octagon(self, tmp_path):
        cfg = {"surface": OCTAGON, "n_modes": 6, "grid": 48}
        rc, out = _run(tmp_path, "invariant", cfg)
        assert rc == cli.EXIT_OK
        doc = json.loads((out / "invariant_report.json").read_text())
        assert doc["interior_ladder_relative"] <= 1e-6
        assert (out / "invariant_modes.csv").exists()
        assert (out / "ladder_residuals.csv").exists()

    def test_invariant_curved_torus_solver_failure(self, tmp_path):
        # generic mode-0 data on a curved torus has no invariant extension;
        # the solver converges to a large residual and must say so
        curved = {"type": "conformal_torus", "nx": 32, "ny": 32,
                  "lambda": "0.1*cos(x)*sin(y)"}
        cfg = {"surface": curved, "n_modes": 6, "grid": 32}
        rc, out = _run(tmp_path, "invariant", cfg)
        assert rc == cli.EXIT_SOLVER

    def test_invariant_reports_solver_stop(self, tmp_path, capsys):
        cfg = {"surface": OCTAGON, "n_modes": 4, "grid": 24}
        rc, out = _run(tmp_path, "invariant", cfg)
        assert rc in (cli.EXIT_OK, cli.EXIT_SOLVER)
        doc = json.loads((out / "invariant_report.json").read_text())
        # lsqr's least-squares test stops it (istop 2) before the cap of
        # invariant_extension, max(400, 100 n_modes)
        assert doc["solver_istop"] == 2
        assert 1 <= doc["solver_iterations"] < 400
        assert "cap" not in capsys.readouterr().err
        # the k < 0 and k > 0 halves of the ladder are solved apart
        blocks = doc["solver_blocks"]
        assert [b["out_modes"] for b in blocks] == [[-3, -1], [1, 3]]
        assert all(b["istop"] == 2 for b in blocks)
        assert doc["solver_iterations"] == max(b["iterations"]
                                               for b in blocks)

    def test_invariant_says_when_the_cap_is_hit(self, tmp_path, capsys,
                                                monkeypatch):
        from anosovlab import smfourier as sf
        solve = sf.invariant_extension
        monkeypatch.setattr(sf, "invariant_extension",
                            lambda *a, **kw: solve(*a, iter_lim=20, **kw))
        # a tol the capped solve still meets: the exit code follows tol,
        # not the stop reason
        cfg = {"surface": OCTAGON, "n_modes": 4, "grid": 24, "tol": 1.0}
        rc, out = _run(tmp_path, "invariant", cfg)
        assert rc == cli.EXIT_OK
        doc = json.loads((out / "invariant_report.json").read_text())
        assert (doc["solver_istop"], doc["solver_iterations"]) == (7, 20)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert all(word in err[0] for word in (
            "solver_istop 7", "solver_iterations 20", "cap 20"))

    @pytest.mark.parametrize("bad", [
        {"n_modes": 2}, {"n_modes": "3"}, {"spatial_band": -1},
        {"grid": 0}, {"grid": 4}, {"spatial_band": 30}, {"grid": 48.5}])
    def test_invariant_bad_key_rejected(self, tmp_path, bad):
        rc, out = _run(tmp_path, "invariant", {"surface": OCTAGON, **bad})
        assert rc == cli.EXIT_CONFIG
        assert not out.exists() or not any(out.iterdir())

    def test_xray_small_pool(self, tmp_path):
        cfg = {"surface": OCTAGON, "m": 0, "max_word_len": 4,
               "pool_size": 48, "n_basis": 8, "n_samples": 512}
        rc, out = _run(tmp_path, "xray", cfg)
        assert rc == cli.EXIT_OK
        doc = json.loads((out / "xray_report.json").read_text())
        assert doc["kernel_dim"] == 0
        assert (out / "geodesic_pool.csv").exists()

    def test_xray_pool_smaller_than_basis(self, tmp_path):
        cfg = {"surface": OCTAGON, "pool_size": 8, "max_word_len": 3}
        rc, out = _run(tmp_path, "xray", cfg)
        assert rc == cli.EXIT_DATA
        assert not (out / "xray_report.json").exists()

    @pytest.mark.parametrize("key, val", [
        ("n_samples", 0), ("m", -1), ("pool_size", 0), ("max_word_len", 0),
        ("n_basis", 0), ("n_basis", 99), ("n_basis", 2.5), ("m", "2"),
        ("pool_size", True), ("max_word_len", cli.MAX_WORD_LEN + 1),
        ("max_word_len", 10 ** 9), ("n_samples", cli.MAX_N_SAMPLES + 1),
        ("pool_size", 10 ** 400),
        ("n_samples", 10 ** 9), ("m", cli.MAX_DEGREE + 1)])
    def test_xray_bad_integer_key_rejected(self, tmp_path, key, val):
        start = time.perf_counter()
        rc, out = _run(tmp_path, "xray", {"surface": OCTAGON, key: val})
        assert rc == cli.EXIT_CONFIG
        assert not out.exists() or not any(out.iterdir())
        assert time.perf_counter() - start < 5.0    # before any work

    def test_xray_requires_octagon(self, tmp_path):
        rc, _ = _run(tmp_path, "xray", {"surface": FLAT})
        assert rc == cli.EXIT_CONFIG


def _csv_writer_bytes(header, columns):
    """What csv.writer writes for the rows of ``columns``, value by value."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(zip(*columns))
    return buf.getvalue().encode()


def _fresh_env():
    """The environment of a new interpreter that imports this anosovlab."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _fresh_python(code):
    """Run ``code`` in a new interpreter that imports this anosovlab; returns
    its standard output."""
    proc = subprocess.run([sys.executable, "-c", code], env=_fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestImportFootprint:
    """SciPy is imported where a command uses it, not by importing the
    package: its import costs more than the rest of the package's."""

    def test_importing_the_modules_loads_no_scipy(self):
        out = _fresh_python(
            "import sys\n"
            "from anosovlab import (cli, geometry, flow, cocycle, gulliver,\n"
            "                       xray, smfourier)\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')))\n")
        assert out.strip() == "[]"

    def test_importing_the_modules_leaves_the_torus_interpolant_unloaded(
            self):
        out = _fresh_python(
            "import sys\n"
            "from anosovlab import (cli, geometry, flow, cocycle, gulliver,\n"
            "                       xray, smfourier)\n"
            "print('anosovlab.bicubic' in sys.modules)\n")
        assert out.strip() == "False"

    def test_importing_the_modules_leaves_the_lambda_language_unloaded(
            self):
        # only building an expression torus parses a lambda string
        out = _fresh_python(
            "import sys\n"
            "from anosovlab import (cli, geometry, flow, cocycle, gulliver,\n"
            "                       xray, smfourier)\n"
            "print('anosovlab.lamexpr' in sys.modules)\n")
        assert out.strip() == "False"

    def test_gulliver_run_leaves_the_optimizer_unloaded(self, tmp_path):
        cfg = _write(tmp_path, "gulliver.json", {"beta_target": 1.75})
        out = _fresh_python(
            "import sys\n"
            "from anosovlab import cli\n"
            f"rc = cli.main(['gulliver', '--config', {cfg!r}, '--out',\n"
            f"               {str(tmp_path / 'out')!r}])\n"
            "print(rc, 'scipy.optimize' in sys.modules)\n")
        assert out.split() == [str(cli.EXIT_OK), "False"]

    @pytest.mark.parametrize("command, cfg", [
        ("anosov", {"surface": CURVED, "beta_max": 0.0625, "tol": 0.0625}),
        ("terminator", {"surface": dict(CURVED, nx=16, ny=16)})])
    def test_torus_run_loads_no_scipy(self, tmp_path, command, cfg):
        assert _run_modules(tmp_path, command, cfg) == [
            str(cli.EXIT_OK), "[]"]

    def test_alpha_estimates_load_no_scipy(self):
        # the deflated GEP of the alpha estimates runs on numpy's eigh
        out = _fresh_python(
            "import sys\n"
            "import numpy as np\n"
            "from anosovlab import flow, geometry, smfourier as sf\n"
            "a = sf.alpha_lower_bound(geometry.FuchsianOctagon(), n_modes=1,\n"
            "                         spatial_band=1, n_grid=16)\n"
            "b = sf.alpha_lower_bound_profile(\n"
            "    flow.CurvatureProfile.constant(-1.0), n_freq=8)\n"
            "print(np.isfinite([a, b]).all(), sorted(\n"
            "    m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
        assert out.split(maxsplit=1) == ["True", "[]\n"]

    def test_invariant_run_loads_no_scipy(self, tmp_path):
        # the ladder least squares runs the package's own LSQR
        cfg = {"surface": OCTAGON, "grid": 16, "n_modes": 4}
        assert _run_modules(tmp_path, "invariant", cfg) == [
            str(cli.EXIT_OK), "[]"]

    @pytest.mark.parametrize("command, cfg", [
        ("anosov", {"surface": CURVED, "beta_max": 0.0625, "tol": 0.0625}),
        ("terminator", {"surface": dict(CURVED, nx=16, ny=16)}),
        ("pestov", FUZZ_BASES["pestov"]),
        # a loose tol: the ladder residual of its 8 x 8 torus is ~1e-3
        ("invariant", {**FUZZ_BASES["invariant"], "tol": 0.5})])
    def test_expression_torus_run_loads_no_sympy(self, tmp_path, command,
                                                 cfg):
        # lamexpr compiles the lambda string to numpy code itself
        assert _run_modules(tmp_path, command, cfg, "sympy") == [
            str(cli.EXIT_OK), "[]"]


def _run_modules(tmp_path, command, cfg, prefix="scipy"):
    """[exit code, ``prefix`` modules loaded] of ``command`` on ``cfg``,
    run through cli.main in a new interpreter."""
    path = _write(tmp_path, f"{command}.json", cfg)
    out = _fresh_python(
        "import sys\n"
        "from anosovlab import cli\n"
        f"rc = cli.main([{command!r}, '--config', {path!r}, '--out',\n"
        f"               {str(tmp_path / 'out')!r}])\n"
        "print(rc, sorted(m for m in sys.modules\n"
        f"                 if m.split('.')[0] == {prefix!r}))\n")
    return out.strip().split(maxsplit=1)


# bit patterns of float64 values that compare equal but print apart, or
# that compare unequal to themselves: zeros of both signs, and NaNs of both
# signs, quiet and signalling, with and without payloads
_ZERO_AND_NAN_BITS = np.array(
    [0x0000000000000000, 0x8000000000000000, 0x7FF8000000000000,
     0xFFF8000000000000, 0x7FF8000000000ABC, 0xFFF0000000000001,
     0x7FF4000000000000], dtype=np.uint64).view(np.int64)


class TestCsvWriter:
    def _write(self, tmp_path, columns):
        out = cli._Out(tmp_path, {})
        return out.csv("t.csv", columns).read_bytes()

    def test_edge_floats(self, tmp_path):
        edges = np.concatenate([
            [-0.0, 0.0, 1e-300, 1e16, 0.1 + 0.2, -1e-5, 5e-324, np.inf,
             -np.inf, np.nan, 1.0, 123456789.125],
            _ZERO_AND_NAN_BITS.view(np.float64)])
        # rows in three chunks; every column repeats its values across the
        # chunk boundaries
        n = 2 * cli._CSV_CHUNK + 17
        x = np.resize(edges, n)
        # -0.0 and 0.0 compare equal, but print apart, also inside a chunk
        runs = np.resize(np.repeat([-1.0, 0.0012, -0.0, 0.0], 3), n)
        two = np.where(np.arange(n) % 2 == 0, -0.0, 0.0)
        K = np.where(np.arange(n) % 7 < 3, 1.2e-3, -1.0)
        cols = {"x": x, "runs": runs, "two": two, "K": K}
        got = self._write(tmp_path, cols)
        assert got == _csv_writer_bytes(list(cols), list(cols.values()))
        assert b",-0.0,-0.0," in got and b",0.0,0.0," in got
        assert b"\r\nnan," in got and b"\r\n-nan" not in got

    def test_two_value_column_across_chunks(self, tmp_path):
        n = 2 * cli._CSV_CHUNK + 17
        t = np.arange(n) * 2e-3
        K = np.where(t < 0.7, 1.2e-3, -1.0)
        got = self._write(tmp_path, {"t": t, "K": K})
        assert got == _csv_writer_bytes(["t", "K"], [t, K])

    def test_other_columns(self, tmp_path):
        cols = {"i": np.arange(4), "word": ["0", "01", "a,b", 'q"'],
                "ok": np.array([True, False, True, False]),
                "f32": np.array([0.1, 0.2, 0.3, 0.4], dtype=np.float32),
                "x": [np.float64(0.1), 1, 2.5, np.float64(-0.0)]}
        got = self._write(tmp_path, cols)
        assert got == _csv_writer_bytes(list(cols), list(cols.values()))

    def test_empty_and_unequal_columns(self, tmp_path):
        assert self._write(tmp_path, {"k": np.array([]),
                                      "r": np.array([])}) == b"k,r\r\n"
        # csv.writer writes a row of one empty field as ""
        lone = ["", "a", None]
        assert self._write(tmp_path, {"w": lone}) == \
            _csv_writer_bytes(["w"], [lone]) == b'w\r\n""\r\na\r\n""\r\n'
        with pytest.raises(ValueError, match="unequal"):
            self._write(tmp_path, {"a": np.zeros(3), "b": np.zeros(2)})

    @settings(max_examples=50, deadline=None)
    @given(x=st.one_of(
        hnp.arrays(np.float64, st.integers(0, 40),
                   elements=st.floats(allow_nan=True, allow_infinity=True)),
        # any bit pattern, and a few that repeat, within a chunk and across
        # chunk boundaries
        *(hnp.arrays(np.int64, st.integers(0, 2 * cli._CSV_CHUNK + 40),
                     elements=e).map(lambda b: b.view(np.float64))
          for e in (st.integers(-2 ** 63, 2 ** 63 - 1),
                    st.sampled_from(_ZERO_AND_NAN_BITS.tolist())))))
    def test_any_floats(self, x):
        with tempfile.TemporaryDirectory() as tmp:
            got = self._write(Path(tmp), {"x": x, "y": x[::-1]})
        assert got == _csv_writer_bytes(["x", "y"], [x, x[::-1]])

    def test_gulliver_profile_is_the_csv_writer_bytes(self, tmp_path):
        from anosovlab import gulliver
        rc, out = _run(tmp_path, "gulliver", {"beta_target": 1.55})
        assert rc == cli.EXIT_OK
        profile = gulliver.synth_profile(gulliver.search_params(1.55))
        ts = np.arange(0.0, profile.T, profile.dt)
        K = profile(ts)
        assert len(ts) == 16502 and len(np.unique(K)) == 2
        assert (out / "profile.csv").read_bytes() == \
            _csv_writer_bytes(["t", "K"], [ts, K])

    def test_memory_does_not_grow_with_the_rows(self, tmp_path):
        # the chunks bound the text held at once, whatever the row count
        peaks = []
        for n in (16_000, 135_000):
            t = np.arange(n) * 1e-2
            cols = {"t": t, "K": np.where(t < 1.0, 2.25, -1.0)}
            out = cli._Out(tmp_path, {})
            tracemalloc.start()
            try:
                out.csv("t.csv", cols)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 256 * 1024, peaks
        assert peaks[1] < 1.25 * peaks[0], peaks


class TestDeterminism:
    def test_same_seed_same_output(self, tmp_path):
        cfg = {"surface": SPHERE}
        rc1, out1 = _run(tmp_path, "anosov", cfg, seed=3, sub="a")
        rc2, out2 = _run(tmp_path, "anosov", cfg, seed=3, sub="b")
        assert rc1 == rc2 == cli.EXIT_OK
        assert (out1 / "anosov_verdict.json").read_bytes() == \
               (out2 / "anosov_verdict.json").read_bytes()

    def test_curved_torus_anosov_same_seed_same_output(self, tmp_path):
        # reaches the closed-geodesic shooting, which the sphere does not
        torus = {"type": "conformal_torus", "nx": 32, "ny": 32,
                 "lambda": "0.1*cos(x)*sin(y)"}
        cfg = {"surface": torus, "beta_max": 64.0 / 2 ** 14}
        rc1, out1 = _run(tmp_path, "anosov", cfg, seed=3, sub="a")
        rc2, out2 = _run(tmp_path, "anosov", cfg, seed=3, sub="b")
        assert rc1 == rc2 == cli.EXIT_OK
        doc = json.loads((out1 / "anosov_verdict.json").read_text())
        assert doc["terminator"]["profiles"].count("torus-shooting:") == 3
        assert (out1 / "anosov_verdict.json").read_bytes() == \
               (out2 / "anosov_verdict.json").read_bytes()

    def test_invariant_same_seed_same_output(self, tmp_path):
        cfg = {"surface": OCTAGON, "n_modes": 4, "grid": 24}
        rc1, out1 = _run(tmp_path, "invariant", cfg, seed=3, sub="a")
        rc2, out2 = _run(tmp_path, "invariant", cfg, seed=3, sub="b")
        assert rc1 == rc2
        for name in ("invariant_report.json", "invariant_modes.csv",
                     "ladder_residuals.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_xray_same_seed_same_output(self, tmp_path):
        cfg = {"surface": OCTAGON, "max_word_len": 4, "pool_size": 32,
               "n_basis": 8}
        rc1, out1 = _run(tmp_path, "xray", cfg, seed=3, sub="a")
        rc2, out2 = _run(tmp_path, "xray", cfg, seed=3, sub="b")
        assert rc1 == rc2 == cli.EXIT_OK
        for name in ("xray_report.json", "geodesic_pool.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_gulliver_same_seed_same_output(self, tmp_path):
        cfg = {"beta_target": 1.75}
        rc1, out1 = _run(tmp_path, "gulliver", cfg, seed=3, sub="a")
        rc2, out2 = _run(tmp_path, "gulliver", cfg, seed=3, sub="b")
        assert rc1 == rc2 == cli.EXIT_OK
        for name in ("gulliver_params.json", "terminator_certificate.json",
                     "profile.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_recorded(self, tmp_path):
        rc, out = _run(tmp_path, "terminator", {"surface": SPHERE}, seed=42)
        doc = json.loads((out / "terminator_certificate.json").read_text())
        assert doc["seed"] == 42
