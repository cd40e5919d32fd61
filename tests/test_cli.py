import argparse
import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import tracemalloc
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import refsde
import refsde.cli as cli
from refsde.cli import ConfigError, load_config, main
from refsde.coeff import hypothesis_audit
from refsde.fbm import sample_circulant
from refsde.fracnorm import norm_report
from refsde.grids import SamplePath, TimeGrid
from refsde.skorokhod import reflect
from refsde.solver import BlowUpError, PicardConvergenceError, solve_stochastic

from conftest import deepest_sum

CONFIGS = resources.files("refsde") / "configs"


def bundled(name):
    return str(CONFIGS / name)


def write_config(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


def strict_loads(text):
    """json.loads that refuses NaN and the infinities, which JSON lacks."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


MINIMAL = """\
[problem]
hurst = 0.75
delay = 1.0
horizon = 1.0
dim = 1
noise_dim = 1
eta = t + 1
drift = xd1
diffusion = 0.1 * xd1

[solver]
scheme = euler
steps_per_delay = 32

[mc]
paths = 2
seed = 5

[output]
directory = {out}
"""


class TestLoadConfig:
    def test_bundled_configs_parse(self):
        for name in ("linear_a.cfg", "nonlinear_b.cfg"):
            cfg = load_config(bundled(name))
            assert cfg.problem.d == 1
            assert cfg.solver.steps_per_delay == 256

    def test_unknown_key_reports_location(self, tmp_path):
        body = MINIMAL.format(out=tmp_path).replace(
            "scheme = euler", "scheme = euler\nwarp = 9")
        path = write_config(tmp_path, body)
        with pytest.raises(ConfigError, match=r"solver\.warp") as exc:
            load_config(path)
        assert ":" in str(exc.value)  # file:line location

    def test_unknown_section(self, tmp_path):
        path = write_config(tmp_path, MINIMAL.format(out=tmp_path) + "\n[plotting]\nx = 1\n")
        with pytest.raises(ConfigError, match="plotting"):
            load_config(path)

    def test_missing_key(self, tmp_path):
        body = MINIMAL.format(out=tmp_path).replace("delay = 1.0\n", "")
        with pytest.raises(ConfigError, match="delay"):
            load_config(write_config(tmp_path, body))

    def test_negative_eta_rejected(self, tmp_path):
        body = MINIMAL.format(out=tmp_path).replace("eta = t + 1", "eta = t")
        with pytest.raises(ConfigError, match="non-negative"):
            load_config(write_config(tmp_path, body))

    @pytest.mark.parametrize("params,name,why", [
        ("x1 = 5, t = 2", "x1", "the name of a variable"),  # the drift x1 would read the state
        ("a = 1, a = 2", "a", "given twice"),
        ("lambda = 0.5", "lambda", "a Python keyword"),  # lambda * x1 would not parse
    ])
    def test_bad_params_exit_one(self, tmp_path, capsys, params, name, why):
        body = MINIMAL.format(out=tmp_path).replace("drift = xd1", f"drift = xd1\nparams = {params}")
        path = write_config(tmp_path, body)
        with pytest.raises(ConfigError, match=r"^bad value for problem\.params \(.*:9\): ") as exc:
            load_config(path)
        assert str(exc.value).endswith(f"parameter {name!r} is {why}")
        assert main(["simulate", path]) == 1
        assert capsys.readouterr().err == f"error: {exc.value}\n"

    @pytest.mark.parametrize("terms", [1200, 5000])
    def test_too_deep_drift_exit_one(self, tmp_path, capsys, terms):
        drift = "+".join(["xd1"] * terms)
        body = MINIMAL.format(out=tmp_path).replace("drift = xd1", f"drift = {drift}")
        path = write_config(tmp_path, body)
        assert main(["simulate", path]) == 1
        assert capsys.readouterr().err == (f"error: bad value for problem.drift ({path}:8): "
                                           "expression nested too deeply (offset 0)\n")

    def test_deepest_drift_runs(self, tmp_path):
        # the deepest sum parse_expr accepts is compiled, read and evaluated
        # inside simulate, a few dozen frames below the test runner's
        terms = deepest_sum("xd1")
        body = MINIMAL.format(out=tmp_path).replace("drift = xd1", f"drift = {'+'.join(['xd1'] * terms)}")
        assert main(["simulate", write_config(tmp_path, body), "--paths", "1"]) == 0
        x = np.loadtxt(tmp_path / "path_0000.csv", delimiter=",", skiprows=1)[:, 1]
        assert x[-1] == pytest.approx(1.0 + terms / 2, rel=0.05)  # 1 + terms * (integral of s on [0, 1])

    def test_hurst_half_names_the_open_interval(self, tmp_path, capsys):
        # a config's H must be above 1/2; only the fbm command can admit 1/2
        body = MINIMAL.format(out=tmp_path).replace("hurst = 0.75", "hurst = 0.5")
        assert main(["simulate", write_config(tmp_path, body)]) == 1
        assert capsys.readouterr().err.endswith(": Hurst parameter must lie in (0.5, 1), got 0.5\n")

    def test_missing_file_exit_one(self, tmp_path, capsys):
        path = tmp_path / "absent.cfg"
        assert main(["simulate", str(path)]) == 1
        assert capsys.readouterr().err == f"error: config file not found: {path}\n"

    def test_missing_section_exit_one(self, tmp_path, capsys):
        body = MINIMAL.format(out=tmp_path).split("[output]")[0]
        path = write_config(tmp_path, body)
        assert main(["simulate", path]) == 1
        assert capsys.readouterr().err == f"error: missing section [output] in {path}\n"

    @pytest.mark.parametrize("old,new,key,line,want", [
        ("drift = xd1; xd2", "drift = xd1", "drift", 8, "expected 2 expressions"),
        ("diffusion = 0.1 * xd1; 0.1 * xd2", "diffusion = 0.1 * xd1, 0.0; 0.1 * xd2",
         "diffusion", 9, "expected a 2x1 matrix"),
        ("eta = t + 1", "eta = t + 1; t + 2; t + 3", "eta", 7, "expected 1 or 2 expressions"),
    ], ids=["drift", "diffusion", "eta"])
    def test_expression_counts_exit_one(self, tmp_path, capsys, old, new, key, line, want):
        body = MINIMAL.format(out=tmp_path).replace("\ndim = 1\n", "\ndim = 2\n").replace(
            "drift = xd1", "drift = xd1; xd2").replace(
            "diffusion = 0.1 * xd1", "diffusion = 0.1 * xd1; 0.1 * xd2")
        load_config(write_config(tmp_path, body, name="two.cfg"))  # a valid 2-dimensional problem
        path = write_config(tmp_path, body.replace(old, new))
        assert main(["simulate", path]) == 1
        assert capsys.readouterr().err == f"error: problem.{key} ({path}:{line}): {want}\n"

    @pytest.mark.parametrize("old,new,key,line,offset", [
        ("drift = xd1", "drift = x1 +", "drift", 8, 4),
        ("diffusion = 0.1 * xd1", "diffusion = foo(xd1)", "diffusion", 9, 0),
        ("eta = t + 1", "eta = (t", "eta", 7, 2),
    ], ids=["drift", "diffusion", "eta"])
    def test_expression_error_names_key_and_line(self, tmp_path, capsys, old, new, key, line, offset):
        path = write_config(tmp_path, MINIMAL.format(out=tmp_path).replace(old, new))
        assert main(["simulate", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad value for problem.{key} ({path}:{line}): ")
        assert err.endswith(f" (offset {offset})\n") and err.count("\n") == 1

    def test_unknown_format_exit_one(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL.format(out=tmp_path) + "formats = csv, xml\n")
        assert main(["simulate", path]) == 1
        assert capsys.readouterr().err == (
            f"error: output.formats ({path}:21): unknown formats ['xml']\n")

    @pytest.mark.parametrize("argv,what", [
        (["simulate"], "sample drivers"),
        (["converge", "--levels", "8,16,32"], "sample the shared driver"),
    ], ids=["simulate", "converge"])
    def test_hurst_required_to_sample(self, tmp_path, capsys, argv, what):
        path = write_config(tmp_path, MINIMAL.format(out=tmp_path).replace("hurst = 0.75\n", ""))
        assert main([argv[0], path, *argv[1:]]) == 1
        assert capsys.readouterr().err == f"error: problem.hurst is required to {what}\n"
        assert not list(tmp_path.glob("*.csv"))

    def test_steps_override(self):
        cfg = load_config(bundled("linear_a.cfg"), steps_per_delay=64)
        assert cfg.solver.steps_per_delay == 64
        assert cfg.problem.eta.grid.n_steps == 64


class TestSimulate:
    def test_runs_bundled_linear(self, tmp_path):
        rc = main(["simulate", bundled("linear_a.cfg"), "--paths", "2",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "path_0000.csv").is_file()
        manifest = strict_loads((tmp_path / "manifest.json").read_text())
        assert manifest["paths"] == 2
        inv = manifest["runs"][0]["invariants"]
        assert inv["x_nonnegative"] and inv["x_equals_z_plus_y"]

    def test_runs_bundled_nonlinear(self, tmp_path):
        rc = main(["simulate", bundled("nonlinear_b.cfg"), "--paths", "1",
                   "--out", str(tmp_path)])
        assert rc == 0

    def test_negative_eta_exit_one(self, tmp_path, capsys):
        body = MINIMAL.format(out=tmp_path).replace("eta = t + 1", "eta = t")
        rc = main(["simulate", write_config(tmp_path, body)])
        assert rc == 1
        assert "non-negative" in capsys.readouterr().err

    def test_csv_header_and_start(self, tmp_path):
        main(["simulate", write_config(tmp_path, MINIMAL.format(out=tmp_path)),
              "--paths", "1", "--out", str(tmp_path)])
        lines = (tmp_path / "path_0000.csv").read_text().splitlines()
        assert lines[0] == "t,x_1,y_1,z_1"
        assert lines[1].startswith("-1,")

    def test_env_var_output_override(self, tmp_path, monkeypatch):
        target = tmp_path / "env_out"
        monkeypatch.setenv("REFSDE_OUTPUT_DIR", str(target))
        rc = main(["simulate", write_config(tmp_path, MINIMAL.format(out=tmp_path / "cfg_out")),
                   "--paths", "1"])
        assert rc == 0
        assert (target / "manifest.json").is_file()
        assert not (tmp_path / "cfg_out").exists()

    def test_determinism(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL.format(out=tmp_path))
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", cfg, "--out", str(a)])
        main(["simulate", cfg, "--out", str(b)])
        for name in ("path_0000.csv", "path_0001.csv", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_flag_overrides_the_config(self, tmp_path):
        runs = {}
        for name, seed, flag in (("flag", 5, ["--seed", "7"]), ("config", 7, []), ("five", 5, [])):
            body = MINIMAL.format(out=tmp_path / name).replace("seed = 5", f"seed = {seed}")
            assert main(["simulate", write_config(tmp_path, body, f"{name}.cfg"), *flag]) == 0
            runs[name] = [(tmp_path / name / f"path_{i:04d}.csv").read_bytes() for i in range(2)]
        assert runs["flag"] == runs["config"] != runs["five"]
        manifest = json.loads((tmp_path / "flag" / "manifest.json").read_text())
        assert manifest["seeds"] == [[7, 0], [7, 1]]
        assert manifest["config"]["mc"]["seed"] == "5"  # the echo is the file's

    def test_invariant_violation_exit_two(self, tmp_path, capsys, monkeypatch):
        real = cli._lane_invariants
        monkeypatch.setattr(cli, "_lane_invariants",
                            lambda *lanes: [{**inv, "y_nondecreasing": False} for inv in real(*lanes)])
        assert main(["simulate", write_config(tmp_path, MINIMAL.format(out=tmp_path))]) == 2
        assert capsys.readouterr().err == "invariant violation; see manifest\n"
        runs = json.loads((tmp_path / "manifest.json").read_text())["runs"]
        assert [run["invariants"]["y_nondecreasing"] for run in runs] == [False, False]
        assert (tmp_path / "path_0001.csv").exists()

    def test_manifest_records_versions(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL.format(out=tmp_path))
        assert main(["simulate", cfg, "--paths", "1", "--out", str(tmp_path)]) == 0
        manifest = strict_loads((tmp_path / "manifest.json").read_text())
        assert manifest["versions"] == {"refsde": refsde.__version__, "numpy": np.__version__,
                                        "python": platform.python_version()}

    def test_manifest_records_picard_residuals(self, tmp_path):
        path = bundled("nonlinear_b.cfg")
        assert main(["simulate", path, "--paths", "2", "--out", str(tmp_path)]) == 0
        runs = strict_loads((tmp_path / "manifest.json").read_text())["runs"]
        cfg = load_config(path)
        mc = solve_stochastic(cfg.problem, cfg.solver, 2)
        assert [run["picard_iterations"] for run in runs] == [s.iterations_per_interval for s in mc.solutions]
        assert [run["picard_residuals"] for run in runs] == [s.final_residuals for s in mc.solutions]

    def test_blow_up_recorded_with_its_step(self, tmp_path, capsys):
        # a finite drift of 1e308 pushes z past the float range before t = 2
        body = MINIMAL.format(out=tmp_path).replace("horizon = 1.0", "horizon = 2.0").replace(
            "drift = xd1", "drift = 1e308")
        path = write_config(tmp_path, body)
        assert main(["simulate", path, "--out", str(tmp_path)]) == 1
        assert "2 of 2 paths failed" in capsys.readouterr().err
        manifest = strict_loads((tmp_path / "manifest.json").read_text())
        assert manifest["runs"] == []
        cfg = load_config(path)
        mc = solve_stochastic(cfg.problem, cfg.solver, 2)
        for i, err in mc.failures.items():
            assert isinstance(err, BlowUpError)
            assert manifest["failures"][str(i)] == {
                "type": "BlowUpError", "message": str(err), "step": err.step, "t": err.t,
                "component": err.component}
        assert 0 < manifest["failures"]["0"]["step"] <= 64
        assert manifest["failures"]["0"]["component"] == 1

    def test_picard_failure_recorded_with_its_interval(self, tmp_path):
        # at seed 12 only the second of three paths needs more than 10
        # iterations on some delay interval
        body = Path(bundled("nonlinear_b.cfg")).read_text().replace(
            "horizon = 3.0", "horizon = 1.0").replace(
            "steps_per_delay = 256", "steps_per_delay = 32").replace(
            "picard_max_iter = 100", "picard_max_iter = 10").replace(
            "paths = 4", "paths = 3").replace("seed = 20260826", "seed = 12")
        path = write_config(tmp_path, body)
        assert main(["simulate", path, "--out", str(tmp_path)]) == 1
        manifest = strict_loads((tmp_path / "manifest.json").read_text())
        cfg = load_config(path)
        err = solve_stochastic(cfg.problem, cfg.solver, 3).failures[1]
        assert isinstance(err, PicardConvergenceError)
        assert manifest["failures"] == {"1": {
            "type": "PicardConvergenceError", "message": str(err),
            "interval": err.interval, "residual": err.residual}}
        assert [run["path"] for run in manifest["runs"]] == [0, 2]
        assert sorted(p.name for p in tmp_path.glob("*.csv")) == ["path_0000.csv", "path_0002.csv"]

    def test_scipy_not_imported(self, tmp_path):
        # scipy is a test dependency only
        code = ("import sys; from refsde.cli import main; "
                f"rc = main(['simulate', {bundled('linear_a.cfg')!r}, '--paths', '1', "
                f"'--out', {str(tmp_path)!r}]); print(rc, 'scipy' in sys.modules)")
        src = str(Path(refsde.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert run.stdout.split()[-2:] == ["0", "False"]

    def test_import_loads_neither_scipy_nor_numpy_random(self):
        # every CLI call pays its imports before any work
        code = ("import sys, refsde.cli; print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'random']))")
        src = str(Path(refsde.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert run.stdout == "[]\n"


class TestFbm:
    def test_deterministic_bytes(self, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["fbm", "--hurst", "0.75", "--steps", "128", "--paths", "1",
                "--seed", "7"]
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_hurst_half_rejected(self, tmp_path, capsys):
        rc = main(["fbm", "--hurst", "0.5", "--steps", "16",
                   "--out", str(tmp_path / "w.csv")])
        assert rc == 1
        assert "allow-h-half" in capsys.readouterr().err

    def test_hurst_half_allowed_with_flag(self, tmp_path):
        rc = main(["fbm", "--hurst", "0.5", "--steps", "16", "--allow-h-half",
                   "--out", str(tmp_path / "w.csv")])
        assert rc == 0

    @pytest.mark.parametrize("hurst", ["1.0", "0.3", "nan"])
    def test_hurst_outside_names_the_flag_even_with_it(self, tmp_path, capsys, hurst):
        rc = main(["fbm", "--hurst", hurst, "--steps", "16", "--allow-h-half",
                   "--out", str(tmp_path / "w.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: --hurst must lie in (0.5, 1); pass --allow-h-half to test at exactly 1/2\n")

    def test_cholesky_cap(self, tmp_path, capsys):
        rc = main(["fbm", "--hurst", "0.75", "--steps", "4096",
                   "--method", "cholesky", "--out", str(tmp_path / "w.csv")])
        assert rc == 1
        assert "capped" in capsys.readouterr().err


class TestSkorokhodCmd:
    def test_negative_ramp(self, tmp_path):
        t = np.linspace(0.0, 1.0, 51)
        src = tmp_path / "z.csv"
        with open(src, "w") as fh:
            fh.write("t,z_1\n")
            np.savetxt(fh, np.column_stack([t, -t]), fmt="%.17g", delimiter=",")
        out = tmp_path / "x.csv"
        assert main(["skorokhod", str(src), "--out", str(out)]) == 0
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert np.allclose(data["y_1"], t, atol=1e-12)
        assert np.allclose(data["x_1"], 0.0, atol=1e-12)


class TestNormsCmd:
    def test_identity_path(self, tmp_path, capsys):
        t = np.linspace(0.0, 1.0, 4097)
        src = tmp_path / "f.csv"
        with open(src, "w") as fh:
            fh.write("t,f\n")
            np.savetxt(fh, np.column_stack([t, t]), fmt="%.17g", delimiter=",")
        assert main(["norms", str(src), "--alpha", "0.4"]) == 0
        rep = strict_loads(capsys.readouterr().out)
        assert rep["component_1"]["norms"]["w_alpha_inf"] == pytest.approx(
            1.0 + 1.0 / 0.6, abs=1e-3)

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_lambda_exit_one(self, tmp_path, capsys, lam):
        src = tmp_path / "g.csv"
        src.write_text("t,f\n0,0\n0.5,1\n1,0.5\n")
        out = tmp_path / "norms.json"
        assert main(["norms", str(src), "--alpha", "0.3", "--lambda", lam, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: lambda_weight must be finite and >= 0, got {lam}\n"
        assert captured.out == "" and not out.exists()

    def test_overflowing_damping_names_lambda_and_t0(self, tmp_path, capsys):
        src = tmp_path / "g.csv"
        src.write_text("t,f\n-1,0\n0,1\n1,0.5\n")
        out = tmp_path / "norms.json"
        assert main(["norms", str(src), "--alpha", "0.3", "--lambda", "1000",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: exp(-lambda t) overflows at lambda = 1000.0, t0 = -1.0\n"
        assert captured.out == "" and not out.exists()

    def test_non_finite_norm_is_an_error_not_json(self, tmp_path, capsys, monkeypatch):
        # a value JSON cannot hold ends the command with exit 1 and writes no file
        class Report:
            def to_dict(self):
                return {"norms": {"w_alpha_inf": float("nan")}}

        monkeypatch.setattr(cli, "norm_reports", lambda fs, *args, **kwargs: [Report()] * len(fs))
        src = tmp_path / "g.csv"
        src.write_text("t,f\n0,0\n0.5,1\n1,0.5\n")
        out = tmp_path / "norms.json"
        assert main(["norms", str(src), "--alpha", "0.3", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: Out of range float values")
        assert captured.out == "" and not out.exists()

    def test_components_share_one_search(self, tmp_path, capsys):
        # a 2-column CSV: one norm_reports call over both components, each
        # bit-equal to its component's report alone
        n = 1024
        g = sample_circulant(TimeGrid(0.0, 1.0, n), 0.75, 2, seed=(2, 0))
        src = tmp_path / "g.csv"
        with open(src, "w") as fh:
            fh.write("t,w_1,w_2\n")
            np.savetxt(fh, np.column_stack([g.times, g.values]), fmt="%.17g", delimiter=",")
        assert main(["norms", str(src), "--alpha", "0.375", "--lambda", "0.5"]) == 0
        got = strict_loads(capsys.readouterr().out)
        f = cli._read_path_csv(src)
        for i in range(2):
            want = norm_report(f.component(i), 0.375, lambda_weight=0.5).to_dict()["norms"]
            norms = got[f"component_{i + 1}"]["norms"]
            assert norms == want

    @pytest.mark.parametrize("command", ["norms", "skorokhod"])
    def test_comment_before_header(self, tmp_path, capsys, command):
        # '#' lines before the header are skipped, as np.loadtxt skips them among the rows
        rows = "t,f\n0,0\n0.5,1\n1,0.5\n"
        outputs = []
        for name, text in (("plain.csv", rows), ("noted.csv", "# note\n\n" + rows)):
            src = tmp_path / name
            src.write_text(text)
            out = tmp_path / f"{name}.out"
            extra = ["--alpha", "0.3"] if command == "norms" else []
            assert main([command, str(src), "--out", str(out)] + extra) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        if command == "norms":
            assert strict_loads(outputs[1])["component_1"]["n_steps"] == 2


class TestShortCsv:
    @pytest.mark.parametrize("text,why", [
        ("t,f\n", "two data rows"),
        ("t,f\n0.0,1.0\n", "two data rows"),
        ("", "is empty"),
        ("# a comment\n\n", "is empty"),
        ("t\n0.0\n1.0\n", "no value column"),
        ("s,f\n0.0,1.0\n1.0,2.0\n", "must be t, got s"),
    ], ids=["header_only", "one_row", "empty", "comments_only", "t_only", "first_not_t"])
    @pytest.mark.parametrize("command", ["norms", "skorokhod"])
    def test_exit_one(self, tmp_path, capsys, command, text, why):
        src = tmp_path / "short.csv"
        src.write_text(text)
        extra = ["--alpha", "0.3"] if command == "norms" else ["--out", str(tmp_path / "x.csv")]
        assert main([command, str(src)] + extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(src) in err and why in err


def test_comment_rows_alone_are_no_data(tmp_path):
    # a body of comments holds no data row: the error, and no np.loadtxt warning
    src = tmp_path / "c.csv"
    src.write_text("t,f\n# a comment\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="needs at least two data rows, got 0"):
            cli._read_path_csv(src)


def write_t_column(path, t):
    with open(path, "w") as fh:
        fh.write("t,f\n")
        np.savetxt(fh, np.column_stack([t, np.sin(t - t[0])]), fmt="%.17g", delimiter=",")


class TestUniformGrid:
    @pytest.mark.parametrize("t", [
        np.linspace(-1.0, 3.0, 1025),
        np.linspace(1e6, 1e6 + 1.0, 1001),  # exact [1e6, 1e6 + 1]
        1e6 + 1e-3 * np.arange(1001),  # the same grid by another rounding of t
        np.linspace(0.0, 1.0, 4097) + 1e-4 / 4096 * np.sin(np.arange(4097)),  # 1e-4 of a step off
        TimeGrid(0.0, 1.0, 256).times,  # the grid of refsde fbm
    ], ids=["minus_1_to_3", "1e6", "1e6_arange", "near_grid", "fbm"])
    @pytest.mark.parametrize("command", ["norms", "skorokhod"])
    def test_grids_written_in_full_pass(self, tmp_path, capsys, command, t):
        src = tmp_path / "f.csv"
        write_t_column(src, t)
        extra = ["--alpha", "0.3"] if command == "norms" else ["--out", str(tmp_path / "x.csv")]
        assert main([command, str(src)] + extra) == 0
        assert cli._read_path_csv(src).grid == TimeGrid(t[0], t[-1], len(t) - 1)

    @pytest.mark.parametrize("t0,shift", [
        (1e6, 0.5),  # 500 steps off, and t no longer increasing
        (1e6, 2e-6),  # 2e-3 of a step
        (0.0, 1e-5),  # 1e-2 of a step
        (0.0, -1e-3),  # a whole step back: a repeated t
    ], ids=["500_steps", "1e6_small", "unit", "repeated"])
    @pytest.mark.parametrize("command", ["norms", "skorokhod"])
    def test_a_point_off_the_grid_exits_one(self, tmp_path, capsys, command, t0, shift):
        # a tolerance relative to t once let these through at large t
        t = np.linspace(t0, t0 + 1.0, 1001)
        t[500] += shift
        src = tmp_path / "f.csv"
        write_t_column(src, t)
        extra = ["--alpha", "0.3"] if command == "norms" else ["--out", str(tmp_path / "x.csv")]
        assert main([command, str(src)] + extra) == 1
        assert capsys.readouterr().err == f"error: {src} is not sampled on a uniform grid\n"


class TestBadCell:
    @pytest.mark.parametrize("cell", ["abc", ""], ids=["text", "blank"])
    @pytest.mark.parametrize("command", ["norms", "skorokhod"])
    def test_names_file_line_and_column(self, tmp_path, capsys, command, cell):
        src = tmp_path / "bad.csv"
        src.write_text(f"t,f\n0,1\n0.5,{cell}\n1,2\n")
        extra = ["--alpha", "0.3"] if command == "norms" else ["--out", str(tmp_path / "x.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, str(src)] + extra) == 1
        assert capsys.readouterr().err == f"error: {src}, line 3, column f: {cell!r} is not a number\n"


    @pytest.mark.parametrize("row,column,cell", [
        ("0.5,nan", "f", "nan"), ("0.5,inf", "f", "inf"), ("0.5,-inf", "f", "-inf"),
        ("0.5,1e400", "f", "1e400"), ("nan,2", "t", "nan"),
    ], ids=["nan", "inf", "minus_inf", "overflow", "nan_time"])
    @pytest.mark.parametrize("command", ["norms", "skorokhod"])
    def test_names_non_finite_cell(self, tmp_path, capsys, command, row, column, cell):
        src = tmp_path / "bad.csv"
        src.write_text(f"t,f\n0,1\n{row}\n1,2\n")
        extra = ["--alpha", "0.3"] if command == "norms" else ["--out", str(tmp_path / "x.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, str(src)] + extra) == 1
        assert capsys.readouterr().err == f"error: {src}, line 3, column {column}: {cell!r} is not finite\n"


    @pytest.mark.parametrize("text,line,cells", [
        ("t,f\n0,1\n0.5,2,3\n1,2\n", 3, 3),
        ("t,f,g\n0,1\n0.5,2\n1,2\n", 2, 2),
        ("t,f\n# a comment, with a comma\n0,1\n0.5\n1,2\n", 4, 1),
    ], ids=["wide_row", "narrow_rows", "after_comment"])
    def test_names_row_of_other_width(self, tmp_path, capsys, text, line, cells):
        src = tmp_path / "bad.csv"
        src.write_text(text)
        assert main(["norms", str(src), "--alpha", "0.3"]) == 1
        header = len(text.split("\n", 1)[0].split(","))
        assert capsys.readouterr().err == f"error: {src}, line {line}: {cells} cells, the header has {header}\n"


class TestCsvWriter:
    """The writer against np.savetxt, the writer it replaced, byte for byte."""

    @staticmethod
    def savetxt_bytes(header, data):
        buf = io.StringIO()
        buf.write(",".join(header) + "\n")
        np.savetxt(buf, data, fmt="%.17g", delimiter=",")
        return buf.getvalue().encode()

    @pytest.mark.parametrize("cells", [None, 5])
    def test_bytes_equal_savetxt(self, tmp_path, monkeypatch, cells):
        if cells:  # row blocks of one row
            monkeypatch.setattr(cli, "_CSV_CELLS", cells)
        rng = np.random.default_rng(4)
        t = np.linspace(-1.0, 3.0, 9)
        x = rng.standard_normal((9, 2)) * 10.0 ** rng.integers(-20, 20, (9, 2))
        x[0] = [-0.0, 1e-300]
        x[1] = [1e17, 0.1]
        x[2] = [5e-324, -1.7976931348623157e308]
        header = ["t", "x_1", "x_2"]
        out = tmp_path / "a.csv"
        cli._write_csv(out, header, [t, x])
        assert out.read_bytes() == self.savetxt_bytes(header, np.column_stack([t, x]))

    def test_lanes_share_t(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_CSV_CELLS", 12)  # row blocks of two rows, the last of one
        rng = np.random.default_rng(5)
        t = np.linspace(0.0, 1.0, 5)
        lanes = [rng.standard_normal((5, 3)) for _ in range(3)]
        paths = [tmp_path / f"p{j}.csv" for j in range(3)]
        header = ["t", "x_1", "y_1", "z_1"]
        cli._write_csvs(paths, header, t, [np.stack(lanes, axis=1)])
        for path, values in zip(paths, lanes):
            assert path.read_bytes() == self.savetxt_bytes(header, np.column_stack([t, values]))

    @staticmethod
    def lanes(sols):
        """x, y and z of the solutions as lanes, each of shape (n + 1, P, d)."""
        return [np.stack([getattr(sol, name).values for sol in sols], axis=1) for name in "xyz"]

    def assert_solution_bytes(self, paths, sols):
        d = sols[0].x.dim
        header = ["t"] + [f"{name}_{i + 1}" for name in "xyz" for i in range(d)]
        for path, sol in zip(paths, sols):
            data = np.column_stack([sol.x.times, sol.x.values, sol.y.values, sol.z.values])
            assert path.read_bytes() == self.savetxt_bytes(header, data)

    @pytest.mark.parametrize("cells", [None, 1, 5])  # 1 and 5: row blocks of one row
    def test_reflected_lanes_and_shared_rows(self, tmp_path, monkeypatch, cells):
        if cells:
            monkeypatch.setattr(cli, "_CSV_CELLS", cells)
        grid = TimeGrid(-1.0, 1.0, 60)
        steps = np.random.default_rng(6).standard_normal((60, 2)) * 0.3
        z = np.vstack([[0.5, 0.0], 0.5 + np.cumsum(steps - 0.05, axis=0)])
        prefix = z.copy()
        prefix[25:] += 0.125  # the first lane's rows up to 24, its own after
        other = z + 0.25  # no row of the first lane's
        sols = [reflect(SamplePath(grid, v)) for v in (z, prefix, z, other)]
        y = sols[0].y.values[:, 0]
        assert len(np.unique(y)) >= 4 and (np.diff(y) == 0).sum() > 30  # several runs
        assert (sols[0].z.values != sols[0].x.values).sum() > 30  # z is not x after a reflection
        paths = [tmp_path / f"p{j}.csv" for j in range(len(sols))]
        cli._solution_csvs(paths, grid.times, *self.lanes(sols))
        self.assert_solution_bytes(paths, sols)

    @pytest.mark.parametrize("cells", [None, 1, 5])
    def test_signed_zeros_stay_apart(self, tmp_path, monkeypatch, cells):
        if cells:
            monkeypatch.setattr(cli, "_CSV_CELLS", cells)
        t = np.linspace(0.0, 1.0, 7)
        x = np.array([0.0, 0.0, 1.5, 0.0, -0.0, 2.0, 0.0])
        y = np.array([0.0, -0.0, -0.0, 0.0, 0.0, 1.0, 1.0])
        z = np.array([-0.0, 0.0, 1.5, -0.0, -0.0, 2.0, -1.0])  # -0.0 below x's +0.0
        first = np.column_stack([x, y, z])
        later = np.where(first == 0.0, -first, first)  # -0.0 where the first lane has +0.0
        header = ["t", "x_1", "y_1", "z_1"]
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        cli._write_csvs(paths, header, t, [np.stack([first, later], axis=1)])
        for path, values in zip(paths, [first, later]):
            want = self.savetxt_bytes(header, np.column_stack([t, values]))
            assert b",-0," in want and b",0," in want
            assert path.read_bytes() == want

    def test_fbm_paths_csv(self, tmp_path):
        out = tmp_path / "w.csv"
        assert main(["fbm", "--hurst", "0.7", "--steps", "64", "--paths", "3", "--seed", "2",
                     "--out", str(out)]) == 0
        grid = TimeGrid(0.0, 1.0, 64)
        w = sample_circulant(grid, 0.7, 3, seed=2).values
        want = self.savetxt_bytes(["t", "w_1", "w_2", "w_3"], np.column_stack([grid.times, w]))
        assert out.read_bytes() == want

    def test_skorokhod_csv(self, tmp_path):
        t = np.linspace(0.0, 1.0, 81)
        z = np.column_stack([np.sin(12.0 * t) - t, 0.2 - t * t])
        src, out = tmp_path / "z.csv", tmp_path / "x.csv"
        src.write_bytes(self.savetxt_bytes(["t", "z_1", "z_2"], np.column_stack([t, z])))
        assert main(["skorokhod", str(src), "--out", str(out)]) == 0
        self.assert_solution_bytes([out], [reflect(cli._read_path_csv(src))])

    def test_formats_each_repeated_value_once(self, tmp_path, monkeypatch):
        cfg = load_config(write_config(tmp_path, MINIMAL.format(out=tmp_path)))
        n_paths = 3
        mc = solve_stochastic(cfg.problem, cfg.solver, n_paths)
        sols = mc.solutions
        assert not any(sol.y.values.any() for sol in sols)  # no path reflects
        n, n_r = len(sols[0].x.times) - 1, cfg.solver.steps_per_delay
        formatted = []
        format_values = cli._format_values

        def counted(values):
            formatted.append(len(values))
            return format_values(values)

        monkeypatch.setattr(cli, "_format_values", counted)
        paths = [tmp_path / f"p{j}.csv" for j in range(n_paths)]
        cli._solution_csvs(paths, mc.grid.times, mc.x, mc.y, mc.z)
        self.assert_solution_bytes(paths, sols)
        # t once, the first lane's x and one y, then each later lane's x
        # after the initial segment; every cell would be (n + 1)(3P + 1)
        assert sum(formatted) <= 2 * n + 3 + (n_paths - 1) * (n - n_r)

    @pytest.mark.parametrize("cells", [None, 12])  # 12: row blocks of three rows
    def test_formats_each_distinct_value_of_a_block_once(self, tmp_path, monkeypatch, cells):
        if cells:
            monkeypatch.setattr(cli, "_CSV_CELLS", cells)
        t = np.linspace(0.0, 1.0, 7)
        x = np.array([0.0, 0.0, 1.5, 0.25, -0.0, 2.0, 0.0])
        y = np.array([0.0, 0.0, 0.0, 0.5, 0.5, 0.5, 1.0])
        first = np.column_stack([x, y, x])  # z = x
        later = first.copy()
        later[4:] += 3.0  # the first file's rows up to 3, then its own
        later[5, 2] = -0.0  # a value of the first file's, in another row
        formatted = []
        format_values = cli._format_values

        def counted(values):
            formatted.append(len(values))
            return format_values(values)

        monkeypatch.setattr(cli, "_format_values", counted)
        header = ["t", "x_1", "y_1", "z_1"]
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        cli._write_csvs(paths, header, t, [np.stack([first, later], axis=1)])
        for path, values in zip(paths, [first, later]):
            assert path.read_bytes() == self.savetxt_bytes(header, np.column_stack([t, values]))
        # t once; then each block's distinct bits, less the first file's same block's in a later file
        step = cli._CSV_CELLS // 4
        blocks = [{v.tobytes() for v in first[a : a + step].ravel()} for a in range(0, 7, step)]
        later_new = [{v.tobytes() for v in later[a : a + step].ravel()} - known
                     for a, known in zip(range(0, 7, step), blocks)]
        assert sum(formatted) == len(t) + sum(map(len, blocks)) + sum(map(len, later_new))
        if not cells:  # one block: 7 distinct values in the first file, of 21 cells, 4 new in the later
            assert sum(formatted) == 7 + 7 + 4


    def test_groups_of_whole_files(self, tmp_path, monkeypatch):
        # 7 rows of 4 cells: a block of 60 cells holds two whole files, so
        # five files go in three groups, each group's distinct values taken
        # once, and the later groups format only what the first one lacks
        monkeypatch.setattr(cli, "_CSV_CELLS", 60)
        rng = np.random.default_rng(8)
        t = np.linspace(-1.0, 1.0, 7)
        lanes = np.repeat(rng.standard_normal((7, 1, 3)), 5, axis=1)  # rows every lane shares
        lanes[3:, 1:] += rng.integers(0, 3, (4, 4, 3))  # and rows of their own, some alike
        lanes[:, :, 1] = np.where(lanes[:, :, 1] > 0.0, 0.0, -0.0)
        formatted = []
        format_values = cli._format_values

        def counted(values):
            formatted.append(len(values))
            return format_values(values)

        monkeypatch.setattr(cli, "_format_values", counted)
        header = ["t", "x_1", "y_1", "z_1"]
        paths = [tmp_path / f"p{j}.csv" for j in range(5)]
        cli._write_csvs(paths, header, t, [lanes[:, :, :1], lanes[:, :, 1:]])
        for j, path in enumerate(paths):
            assert path.read_bytes() == self.savetxt_bytes(header, np.column_stack([t, lanes[:, j]]))
        groups = [{v.tobytes() for v in lanes[:, g : g + 2].ravel()} for g in range(0, 5, 2)]
        assert len(formatted) == 4  # t and the first group's values, then one call a group
        assert sum(formatted) == len(t) + len(groups[0]) + sum(len(g - groups[0]) for g in groups[1:])


class TestCsvMemory:
    """Traced peaks of the CSV reader and writer, each against its data."""

    n = 1 << 14

    @staticmethod
    def traced_peak(call):
        call()  # lazy imports and caches, paid first
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_reader_peak(self, tmp_path):
        # 5.1 times the file with its whole text and lines kept, 1.3 with np.loadtxt
        # reading the file itself, 0.70 with one n-sized temporary for the grid check
        src = tmp_path / "w.csv"
        write_t_column(src, TimeGrid(0.0, 1.0, self.n).times)
        assert self.traced_peak(lambda: cli._read_path_csv(src)) <= 0.75 * src.stat().st_size

    def test_one_lane_writer_peak(self, tmp_path):
        # 12.5 times the data with t's text and every block's kept for the whole
        # write, 7 with one row block's text at a time
        t = np.linspace(0.0, 1.0, self.n + 1)
        x = np.random.default_rng(7).standard_normal((self.n + 1, 3))
        header = ["t", "x_1", "y_1", "z_1"]
        peak = self.traced_peak(lambda: cli._write_csvs([tmp_path / "a.csv"], header, t, [x[:, None]]))
        assert peak <= 9 * (t.nbytes + x.nbytes)


class TestConvergeCmd:
    def test_too_few_levels(self, tmp_path, capsys):
        rc = main(["converge", bundled("linear_a.cfg"), "--levels", "64,128"])
        assert rc == 1
        assert "3" in capsys.readouterr().err

    @pytest.mark.parametrize("levels", ["8,8,16", "4,4,4"])
    def test_repeated_levels_exit_one(self, capsys, levels):
        # an error line and nothing else: no order, no RankWarning
        rc = main(["converge", bundled("linear_a.cfg"), "--levels", levels])
        assert rc == 1
        captured = capsys.readouterr()
        want = [int(v) for v in levels.split(",")]
        assert captured.err == f"error: levels must be strictly ascending, got {want}\n"
        assert captured.out == ""

    def test_nonpositive_level_exit_one(self, tmp_path, capsys):
        rc = main(["converge", write_config(tmp_path, MINIMAL.format(out=tmp_path)),
                   "--levels", "0,64,128"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: level 0 ")

    def test_levels_checked_before_sampling(self, tmp_path, capsys, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("the driver was sampled before the levels were checked")

        monkeypatch.setattr("refsde.cli.sample_circulant", no_sampling)
        cfg = write_config(tmp_path, MINIMAL.format(out=tmp_path))
        rc = main(["converge", cfg, "--levels", "3,64,262144"])
        assert rc == 1
        assert "does not divide" in capsys.readouterr().err

    def test_level_below_the_solver_minimum_before_sampling(self, tmp_path, capsys, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("the driver was sampled before the levels were checked")

        monkeypatch.setattr("refsde.cli.sample_circulant", no_sampling)
        rc = main(["converge", bundled("linear_a.cfg"), "--levels", "2,4,8"])
        assert rc == 1
        assert capsys.readouterr().err == "error: steps_per_delay must be >= 4, got 2\n"

    def test_runs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL.format(out=tmp_path))
        rc = main(["converge", cfg, "--levels", "32,64,128"])
        assert rc == 0
        table = strict_loads(capsys.readouterr().out)
        assert table["levels"] == [32, 64]
        assert all(e > 0 for e in table["errors"])

    def test_exact_levels_have_no_order(self, tmp_path, capsys):
        # x stays 1: no level has an error to fit an order to
        body = (MINIMAL.format(out=tmp_path).replace("eta = t + 1", "eta = 1")
                .replace("drift = xd1", "drift = 0").replace("diffusion = 0.1 * xd1", "diffusion = 0"))
        rc = main(["converge", write_config(tmp_path, body), "--levels", "16,32,64"])
        assert rc == 0
        table = strict_loads(capsys.readouterr().out)
        assert table["errors"] == [0.0, 0.0]
        assert table["empirical_order"] is None


class TestSolverErrors:
    def test_picard_nonconvergence_exit_one(self, tmp_path, capsys):
        body = Path(bundled("nonlinear_b.cfg")).read_text().replace(
            "picard_max_iter = 100", "picard_max_iter = 1")
        rc = main(["converge", write_config(tmp_path, body), "--levels", "16,32,64"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: Picard iteration")

    def test_blow_up_exit_one(self, tmp_path, capsys):
        # a finite drift of 1e308 pushes z past the float range before t = 2
        for scheme in ("euler", "picard"):
            body = MINIMAL.format(out=tmp_path).replace("horizon = 1.0", "horizon = 2.0").replace(
                "drift = xd1", "drift = 1e308").replace("scheme = euler", f"scheme = {scheme}")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc = main(["converge", write_config(tmp_path, body), "--levels", "8,16,32"])
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], scheme
            assert rc == 1
            assert capsys.readouterr().err.startswith("error: non-finite state")

    def test_nan_picard_tol_exit_one(self, tmp_path, capsys):
        body = MINIMAL.format(out=tmp_path).replace(
            "scheme = euler", "scheme = picard\npicard_tol = nan")
        assert main(["simulate", write_config(tmp_path, body), "--out", str(tmp_path)]) == 1
        assert "picard_tol must be positive" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_levels_not_integers_exit_one(self, tmp_path, capsys):
        body = MINIMAL.format(out=tmp_path)
        assert main(["converge", write_config(tmp_path, body), "--levels", "2,4,x"]) == 1
        assert capsys.readouterr().err == (
            "error: --levels must be comma-separated integers, got '2,4,x'\n")

    def test_negative_seed_exit_one(self, tmp_path, capsys, monkeypatch):
        # the config is rejected, naming the key, before any driver is sampled
        def sample(*args, **kwargs):
            raise AssertionError("sampled a driver")

        monkeypatch.setattr(refsde.solver, "sample_circulant", sample)
        body = MINIMAL.format(out=tmp_path).replace("seed = 5", "seed = -1")
        assert main(["simulate", write_config(tmp_path, body), "--out", str(tmp_path)]) == 1
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_sampler_cap_ends_the_run(self, tmp_path, capsys):
        # a run-wide error: one message, no manifest, not one failure per path
        body = MINIMAL.format(out=tmp_path).replace("horizon = 1.0", "horizon = 3.0").replace(
            "steps_per_delay = 32", "steps_per_delay = 1400000")
        assert main(["simulate", write_config(tmp_path, body)]) == 1
        assert capsys.readouterr().err == (
            "error: circulant sampler capped at 4194304 steps, got 4200000\n")
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("command", [["simulate"], ["converge", "--levels", "8,16,32"]])
    def test_infinite_horizon_exit_one(self, tmp_path, capsys, command):
        body = MINIMAL.format(out=tmp_path).replace("horizon = 1.0", "horizon = inf")
        rc = main([command[0], write_config(tmp_path, body), *command[1:]])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be finite" in err


class TestReadme:
    def test_config_block_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = load_config(write_config(tmp_path, block))
        assert cfg.directory == "out_linear_a"
        assert cfg.solver.seed == 20260826

    def test_python_sketch_runs(self, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(block, "README.md", "exec"), {})
        assert "'x_nonnegative': True" in capsys.readouterr().out


    def test_out_is_a_file(self, tmp_path, capsys):
        # the synopsis: fbm ... --out FILE, norms INPUT.csv ... --out FILE
        csv, report = tmp_path / "a" / "f.csv", tmp_path / "b" / "n.json"
        assert main(["fbm", "--hurst", "0.7", "--steps", "64", "--out", str(csv)]) == 0
        assert main(["norms", str(csv), "--alpha", "0.3", "--out", str(report)]) == 0
        assert csv.is_file() and report.is_file()
        assert "component_1" in strict_loads(report.read_text())


class TestAuditCmd:
    def test_runs_and_reports(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL.format(out=tmp_path))
        rc = main(["audit", cfg, "--samples", "100"])
        assert rc == 0
        rep = strict_loads(capsys.readouterr().out)
        assert rep["m0_spatial"] == pytest.approx(0.1, abs=0.01)

    def test_probes_cover_the_horizon(self, tmp_path, capsys):
        # the residual b0 = t stays under its declared constant on [0, 1] and
        # passes it on [0, T] = [0, 3], where the probes must draw their times
        body = Path(bundled("linear_a.cfg")).read_text().replace("drift = xd1", "drift = t")
        path = write_config(tmp_path, body)
        assert main(["audit", path]) == 0
        rep = strict_loads(capsys.readouterr().out)
        cfg = load_config(path)
        want = hypothesis_audit(cfg.problem.coeffs, ([0.0], [2.0]), seed=cfg.solver.seed,
                                t_max=3.0, delay=cfg.problem.r)
        assert rep["b0_l_one_over_alpha"] == want.b0_l_one_over_alpha > 1.05
        assert rep["flags"]["b0"] is True

    def test_non_finite_coefficient_exits_one(self, tmp_path, capsys):
        # the b0 probe evaluates the drift on the zero history, where 1 / x1 is inf
        body = Path(bundled("linear_a.cfg")).read_text().replace("drift = xd1", "drift = 1 / x1")
        path = write_config(tmp_path, body)
        assert main(["audit", path]) == 1
        assert capsys.readouterr().err == "error: drift component 1 evaluated to inf at t=0.0\n"

    def test_growth_probe_stays_in_the_orthant(self, tmp_path, capsys):
        # x ^ 1.5 is nan for x < 0, a state reflection never reaches; audit
        # runs wherever simulate does
        body = Path(bundled("linear_a.cfg")).read_text().replace(
            "diffusion = a * xd1 + b", "diffusion = a * xd1 ^ 1.5 + b")
        path = write_config(tmp_path, body)
        assert main(["simulate", path, "--paths", "2", "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert main(["audit", path]) == 0
        rep = strict_loads(capsys.readouterr().out)
        assert rep["gamma"] == 1.0 and rep["flags"]["gamma"] is True  # slope about 1.5

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_no_samples_exit_one(self, tmp_path, capsys, samples):
        cfg = write_config(tmp_path, MINIMAL.format(out=tmp_path))
        assert main(["audit", cfg, "--samples", samples]) == 1
        assert capsys.readouterr().err == f"error: n_samples must be >= 1, got {samples}\n"

    @pytest.mark.parametrize("box", [["--box-hi", "inf"], ["--box-lo", "nan"],
                                     ["--box-lo=-1e308", "--box-hi=1e308"]])
    def test_box_without_finite_width_exits_one(self, tmp_path, capsys, box):
        cfg = write_config(tmp_path, MINIMAL.format(out=tmp_path))
        assert main(["audit", cfg, "--samples", "10", *box]) == 1
        assert capsys.readouterr().err.startswith("error: box needs lo < hi with a finite width")


class TestParser:
    COMMANDS = ["simulate", "fbm", "skorokhod", "converge", "audit", "norms"]

    @staticmethod
    def printed(parser, argv):
        """The exit code, stdout and stderr of parser on argv, which must exit."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as exited:
                parser.parse_args(argv)
        return exited.value.code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("argv", [[], ["-h"], ["bogus"]]
                             + [[c, *rest] for c in COMMANDS
                                for rest in ([], ["-h"], ["x", "--bogus"])])
    def test_text_is_the_full_parsers(self, argv):
        # help, usage and error text do not depend on which arguments are built
        one = cli._build_parser(argv[0] if argv else None)
        assert self.printed(one, argv) == self.printed(cli._build_parser(), argv)

    def test_builds_only_the_invoked_arguments(self):
        parser = cli._build_parser("norms")
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        # each subcommand has its -h; norms also its input, --alpha, --lambda and --out
        assert {name: len(p._actions) for name, p in sub.choices.items()} == {
            **dict.fromkeys(self.COMMANDS, 1), "norms": 5}
        args = parser.parse_args(["norms", "in.csv", "--alpha", "0.3"])
        assert (args.fn, args.input, args.alpha, getattr(args, "lambda")) == (
            cli.cmd_norms, "in.csv", 0.3, 0.0)
