"""Self-tests of the benchmark: its checks, its tracer and its metric names.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import sys
import types
from pathlib import Path

import pytest

import child
import run

sys.path.insert(0, str(run.SRC))
from refsde.cli import main as refsde_main  # noqa: E402

TINY = run.Workload("tiny-euler", "simulate", run.LINEAR_A, steps_per_delay=16, paths=2)
TINY_PICARD = run.Workload("tiny-picard", "simulate", run.NONLINEAR_B, steps_per_delay=16, paths=2)
NAME = re.compile(r"[A-Za-z0-9_.-]+")
OK = {"exit_code": 0, "error": None}


def simulate_in_process(w, tmp_path):
    """Outputs of one real simulate call, and a Run to check them with."""
    input_path, _ = run.write_inputs(w, 5, tmp_path / "in")
    out = tmp_path / "out"
    assert refsde_main(run.cli_argv(w, input_path, out)) == 0
    return run.Run(w, tmp_path), out


def test_clean_output_passes_its_own_digest(tmp_path):
    bench, out = simulate_in_process(TINY, tmp_path)
    want = run.digest(TINY, out)
    assert bench.check(OK, out, want) == want
    assert (bench.attempted, bench.failed, bench.problems) == (1, 0, [])


def test_corrupted_csv_is_a_failure(tmp_path):
    bench, out = simulate_in_process(TINY, tmp_path)
    want = run.digest(TINY, out)
    csv = out / "path_0001.csv"
    data = bytearray(csv.read_bytes())
    data[-3] = ord("9") if data[-3] != ord("9") else ord("8")
    csv.write_bytes(bytes(data))
    assert bench.check(OK, out, want) is None
    assert (bench.attempted, bench.failed) == (1, 1)
    assert any("path_0001.csv" in p for p in bench.problems)


def test_flipped_invariant_is_a_failure(tmp_path):
    bench, out = simulate_in_process(TINY, tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["runs"][1]["invariants"]["y_nondecreasing"] = False
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert bench.check(OK, out, None) is None
    assert bench.failed == 1
    assert "y_nondecreasing" in bench.problems[0]


def test_nonzero_exit_and_norm_drift_are_failures(tmp_path):
    bench, out = simulate_in_process(TINY, tmp_path)
    want = run.digest(TINY, out)
    assert bench.check({"exit_code": 1, "error": None}, out, want) is None
    drifted = json.loads(json.dumps(want))
    norms = drifted["runs"][0]["norms_x_1"]["norms"]
    norms["w_alpha_inf"] *= 1.0 + 10 * run.REL_TOL
    assert bench.check(OK, out, drifted) is None
    assert (bench.attempted, bench.failed) == (2, 2)
    within = json.loads(json.dumps(want))
    within["runs"][0]["norms_x_1"]["norms"]["w_alpha_inf"] *= 1.0 + 0.1 * run.REL_TOL
    assert bench.check(OK, out, within) is not None


def test_self_time_is_parent_minus_child():
    now = [0.0]
    tracer = child.Tracer(clock=lambda: now[0])

    def inner():
        now[0] += 2.0

    def outer():
        now[0] += 1.0
        traced_inner()
        now[0] += 3.0

    traced_inner = tracer.wrap("coeff.eval_drift", inner)
    tracer.wrap("solver.solve", outer)()
    solve = tracer.stats["solver.solve"]
    assert (solve["s"], solve["child_s"], solve["calls"]) == (6.0, 2.0, 1)
    assert tracer.stats["coeff.eval_drift"]["child_s"] == 0.0
    spans = {name: {"calls": 0, "s": 0.0, "child_s": 0.0} for name in child.HOOKS}
    spans.update(tracer.stats)
    values = run.layer_metrics(TINY, spans, None)
    assert values["solver.solve.self_s"] == 4.0
    assert values["solver.steps_per_s"] == TINY.steps / 6.0


def fake_module(monkeypatch):
    module = types.ModuleType("perfbench_fake")
    module.called = lambda: 1
    module.uncalled = lambda: 2
    monkeypatch.setitem(sys.modules, "perfbench_fake", module)
    return module


def test_missing_hook_name_is_an_error(monkeypatch):
    fake_module(monkeypatch)
    tracer = child.Tracer()
    with pytest.raises(child.HookError, match="gone"):
        tracer.install({"fake.gone": [("perfbench_fake", "gone")]})


def test_uncalled_layer_reports_zero_calls(monkeypatch):
    module = fake_module(monkeypatch)
    tracer = child.Tracer()
    tracer.install({"fake.called": [("perfbench_fake", "called")],
                    "fake.uncalled": [("perfbench_fake", "uncalled")]})
    assert module.called() == 1
    assert tracer.stats["fake.called"]["calls"] == 1
    assert tracer.stats["fake.uncalled"] == {"calls": 0, "s": 0.0, "child_s": 0.0}


def test_traced_calls_repeat_their_exact_counts(tmp_path):
    bench = run.Run(TINY_PICARD, tmp_path)
    input_path, config = run.write_inputs(TINY_PICARD, 3, tmp_path / "in")
    layers = []
    for _ in range(2):
        result, dig = bench.call(input_path, config, trace=True)
        assert dig is not None, bench.problems
        layers.append(run.layer_metrics(TINY_PICARD, result["spans"], dig))
    exact = [n for n in layers[0] if n.endswith(".calls")] + ["solver.picard_iterations"]
    assert {n: layers[0][n] for n in exact} == {n: layers[1][n] for n in exact}
    assert layers[0]["coeff.eval_drift.calls"] > 0
    assert layers[0]["solver.picard_iterations"] > 0
    assert layers[0]["fbm.sample_circulant.calls"] == TINY_PICARD.paths
    assert layers[0]["cli.read_csv.calls"] == 0


def test_metric_names_and_values_match_benchmark_json():
    spec = run.load_spec()
    names = [*spec["end_to_end"], *spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    spans = {name: {"calls": 1, "s": 1.0, "child_s": 0.0} for name in child.HOOKS}
    produced = set(run.layer_metrics(TINY, spans, None)) | {"trace.overhead_s"}
    assert set(spec["per_layer"]) <= produced
    sample = {"wall_s": 1.0, "cal_s": 0.1, "setup_s": 0.1, "peak_rss_mb": 40.0}
    bench = run.Run(TINY, Path("."))
    bench.attempted = 1
    produced = set(run.end_to_end(TINY, bench, [(sample, {})]))
    assert produced == set(spec["end_to_end"]) | set(run.UNGRADED)


def test_seeded_inputs_repeat(tmp_path):
    for w in run.WORKLOADS.values():
        a, _ = run.write_inputs(w, 7, tmp_path / "a")
        b, _ = run.write_inputs(w, 7, tmp_path / "b")
        c, _ = run.write_inputs(w, 8, tmp_path / "c")
        assert a.read_bytes() == b.read_bytes() != c.read_bytes()
