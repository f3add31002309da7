import json

import pytest

from anosovlab import cli

OCTAGON = {"type": "octagon"}
SPHERE = {"type": "constant", "K": 1.0}
FLAT = {"type": "conformal_torus", "nx": 16, "ny": 16, "lambda": "0"}


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

    @pytest.mark.parametrize("key, val", [("dt", 0), ("beta_max", -1)])
    def test_nonpositive_cocycle_key_rejected(self, tmp_path, key, val):
        rc, out = _run(tmp_path, "anosov", {"surface": SPHERE, key: val})
        assert rc == cli.EXIT_CONFIG
        assert not (out / "anosov_verdict.json").exists()

    @pytest.mark.parametrize("command, key, val", [
        ("invariant", "reg", "abc"), ("invariant", "reg", -1e-12),
        ("invariant", "reg", float("nan")),
        ("xray", "kernel_threshold", -1), ("xray", "kernel_threshold", 0),
        ("xray", "kernel_threshold", float("inf"))])
    def test_bad_float_key_rejected(self, tmp_path, command, key, val):
        rc, out = _run(tmp_path, command, {"surface": OCTAGON, key: val})
        assert rc == cli.EXIT_CONFIG
        assert not out.exists() or not any(out.iterdir())

    def test_missing_surface(self, tmp_path):
        rc, _ = _run(tmp_path, "terminator", {})
        assert rc == cli.EXIT_CONFIG

    def test_unknown_surface_type(self, tmp_path):
        rc, _ = _run(tmp_path, "anosov", {"surface": {"type": "mystery"}})
        assert rc == cli.EXIT_CONFIG

    def test_gulliver_needs_target(self, tmp_path):
        rc, _ = _run(tmp_path, "gulliver", {})
        assert rc == cli.EXIT_CONFIG

    def test_gulliver_target_out_of_range(self, tmp_path):
        rc, _ = _run(tmp_path, "gulliver", {"beta_target": 2.7})
        assert rc == cli.EXIT_CONFIG

    @pytest.mark.parametrize("target", [[1], "1.75", True])
    def test_gulliver_target_not_a_number(self, tmp_path, target):
        rc, out = _run(tmp_path, "gulliver", {"beta_target": target})
        assert rc == cli.EXIT_CONFIG
        assert not out.exists() or not any(out.iterdir())


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

    @pytest.mark.parametrize("bad", [
        {"n_fields": 0}, {"n_modes": -1}, {"spatial_band": -1}, {"grid": 0},
        {"grid": 8}, {"grid": 4, "spatial_band": 2}, {"n_fields": "5"},
        {"grid": 16.5}])
    def test_pestov_bad_key_rejected(self, tmp_path, bad):
        rc, out = _run(tmp_path, "pestov", {"surface": OCTAGON, **bad})
        assert rc == cli.EXIT_CONFIG
        assert not out.exists() or not any(out.iterdir())

    def test_gulliver_window(self, tmp_path):
        rc, out = _run(tmp_path, "gulliver", {"beta_target": 1.75})
        assert rc == cli.EXIT_OK
        cert = json.loads((out / "terminator_certificate.json").read_text())
        assert 1.749 <= cert["beta_lo"] and cert["beta_hi"] < 2.0
        assert (out / "gulliver_params.json").exists()
        assert (out / "profile.csv").exists()

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

    def test_invariant_reports_solver_stop(self, tmp_path):
        cfg = {"surface": OCTAGON, "n_modes": 4, "grid": 24}
        rc, out = _run(tmp_path, "invariant", cfg)
        assert rc in (cli.EXIT_OK, cli.EXIT_SOLVER)
        doc = json.loads((out / "invariant_report.json").read_text())
        assert doc["solver_istop"] in range(8)
        # the iteration cap of invariant_extension: max(400, 100 n_modes)
        assert 1 <= doc["solver_iterations"] <= 400

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
        ("pool_size", True)])
    def test_xray_bad_integer_key_rejected(self, tmp_path, key, val):
        rc, out = _run(tmp_path, "xray", {"surface": OCTAGON, key: val})
        assert rc == cli.EXIT_CONFIG
        assert not out.exists() or not any(out.iterdir())

    def test_xray_requires_octagon(self, tmp_path):
        rc, _ = _run(tmp_path, "xray", {"surface": FLAT})
        assert rc == cli.EXIT_CONFIG


class TestDeterminism:
    def test_same_seed_same_output(self, tmp_path):
        cfg = {"surface": SPHERE}
        rc1, out1 = _run(tmp_path, "anosov", cfg, seed=3, sub="a")
        rc2, out2 = _run(tmp_path, "anosov", cfg, seed=3, sub="b")
        assert rc1 == rc2 == cli.EXIT_OK
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

    def test_seed_recorded(self, tmp_path):
        rc, out = _run(tmp_path, "terminator", {"surface": SPHERE}, seed=42)
        doc = json.loads((out / "terminator_certificate.json").read_text())
        assert doc["seed"] == 42
