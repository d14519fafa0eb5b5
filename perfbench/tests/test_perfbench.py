"""Tests of the benchmark itself: oracles, tracing and the entry command.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import warnings

import pytest

import oracles
import run
import tracing
import workloads
from formevol.cli import main as cli_main
from formevol.config import parse_config
from formevol.runs import build_model

# Reduced sizes keep each job well under a second; the oracles are
# parametric in the spec, so the same checks apply as on the full workloads.
SMALL = {
    "audit": {"grid_points": 65, "rayleigh_samples": 200},  # K2 slope fit needs >= 65
    "converge": {"steps": 128, "n_list": (16, 32, 64), "steps_list": (16, 32)},
    "propagate_k64": {"steps": 16},
    "dyson": {"steps": 64},
}


def small_job(tmp_path, workload, seed=3, cli=cli_main):
    spec = {**workloads.make_spec(workload, seed), **SMALL[workload]}
    text = workloads.config_text(spec)
    tmp_path.mkdir(parents=True, exist_ok=True)
    config = tmp_path / "config.ini"
    config.write_text(text)
    outdir = tmp_path / "out"
    _, problems = run.run_job(cli, spec["command"], config, outdir)
    assert problems == []
    checker = oracles.make_checker(spec, build_model(parse_config(text)).semibound.m)
    return outdir, checker


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_unmodified_artifacts_pass(tmp_path, workload):
    outdir, checker = small_job(tmp_path, workload)
    assert checker(outdir) == []


def test_k2_modulus_off_by_1e6_relative_fails(tmp_path):
    outdir, checker = small_job(tmp_path, "audit")
    path = outdir / "audit_summary.json"
    summary = json.loads(path.read_text())
    summary["k2_modulus"][-1][1] *= 1.0 + 1e-6
    path.write_text(json.dumps(summary))
    problems = checker(outdir)
    assert any("k2_modulus" in p for p in problems)


def test_flipped_state_component_fails(tmp_path):
    outdir, checker = small_job(tmp_path, "propagate_k64")
    path = outdir / "trajectory.csv"
    lines = path.read_text().splitlines()
    header, last = lines[0].split(","), lines[-1].split(",")
    amplitude_cols = [j for j, name in enumerate(header) if name.startswith(("re_", "im_"))]
    j = max(amplitude_cols, key=lambda c: abs(float(last[c])))
    last[j] = repr(-float(last[j]))
    lines[-1] = ",".join(last)
    path.write_text("\n".join(lines) + "\n")
    problems = checker(outdir)
    assert any("amplitudes" in p for p in problems)


def test_yosida_error_off_fails(tmp_path):
    outdir, checker = small_job(tmp_path, "converge")
    header, data = oracles.read_csv(outdir / "convergence.csv")
    data[1, 1] *= 1.0 + 1e-4
    rows = [",".join(header)] + [",".join(repr(float(x)) for x in row) for row in data]
    (outdir / "convergence.csv").write_text("\n".join(rows) + "\n")
    assert any("convergence.csv:err" in p for p in checker(outdir))


def test_runtime_warning_and_exceptions_fail_the_job(tmp_path):
    def warns(argv):
        warnings.warn("overflow encountered", RuntimeWarning)
        return 0

    def raises(argv):
        raise FloatingPointError("boom")

    _, problems = run.run_job(warns, "audit", tmp_path / "c.ini", tmp_path / "o")
    assert any("RuntimeWarning" in p for p in problems)
    _, problems = run.run_job(raises, "audit", tmp_path / "c.ini", tmp_path / "o")
    assert any("raised" in p for p in problems)
    _, problems = run.run_job(lambda argv: 2, "audit", tmp_path / "c.ini", tmp_path / "o")
    assert any("exit 2" in p for p in problems)


def test_tail_percentile():
    assert run.tail([2.0]) == (2.0, 100.0)
    assert run.tail([float(x) for x in range(1, 21)]) == (pytest.approx(18.1), 90.0)
    assert run.tail([float(x) for x in range(1, 201)]) == (190.0, 95.0)


BINDINGS_SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import formevol, formevol.cli, tracing
print(json.dumps(tracing.describe_bindings()))
"""


def test_traced_job_restores_every_binding(tmp_path):
    before = tracing.bindings()
    assert len(before) > len(tracing.TARGETS)  # names rebound outside their module
    tracer = tracing.Tracer()
    with tracer.installed():
        assert all(getattr(owner, attr) is not original for owner, attr, original in before)
        small_job(tmp_path, "converge", cli=tracer.wrap("cli.main", cli_main))
    assert tracer.spans and tracer.spans[0][0] == "cli.main"
    for owner, attr, original in before:
        assert getattr(owner, attr) is original, (owner, attr)

    fresh = subprocess.run(
        [sys.executable, "-c", BINDINGS_SCRIPT, str(run.HERE), str(run.SRC)],
        capture_output=True, text=True, check=True,
    )
    assert tracing.describe_bindings() == json.loads(fresh.stdout)


def test_counts_repeat_across_traced_jobs(tmp_path):
    counts = []
    for attempt in range(2):
        tracer = tracing.Tracer()
        with tracer.installed():
            small_job(tmp_path / str(attempt), "converge", cli=tracer.wrap("cli.main", cli_main))
        values = tracing.layer_metrics(tracer.spans)
        counts.append({k: v for k, v in values.items() if isinstance(v, int)})
    assert counts[0] == counts[1]
    assert counts[0]["models.H_evals"] > 0 and counts[0]["linalg.eig_mats"] > 0


def test_self_time_excludes_children():
    spans = [
        ["runs.run", 0.0, 10.0, -1, 0, True],
        ["models.H", 1.0, 4.0, 0, 0, True],
        ["models.H", 2.0, 3.0, 1, 0, False],
        ["linalg.eig", 5.0, 7.0, 0, 4, True],
    ]
    metrics = tracing.layer_metrics(spans)
    assert metrics["runs.self_s"] == pytest.approx(5.0)
    assert metrics["models.H_evals"] == 2
    assert metrics["models.H_eval_s"] == pytest.approx(3.0)
    assert metrics["linalg.eig_mats"] == 4


def _run_command(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "11",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_entry_command_prints_every_end_to_end_metric(workload):
    done = _run_command(run.ROOT, workload, 0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["metrics"] == {
        name: {"value": result["metrics"][name]["value"], "unit": unit}
        for name, unit in run.declared_metrics(0).items()
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_entry_command_prints_every_per_layer_metric():
    done = _run_command(run.ROOT, "dyson", 1)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.declared_metrics(1)
    assert result["metrics"]["propagators.dyson_s"]["value"] > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    done = _run_command(tmp_path, "converge", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
