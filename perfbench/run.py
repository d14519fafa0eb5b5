"""formevol benchmark: one closed-loop client running CLI jobs in process.

Usage (from the root of a formevol checkout):

    python3 perfbench/run.py --workload audit --seed 1 --seconds 25 --trace 0

Each job is one call ``formevol.cli.main([cmd, "--config", cfg, "--out",
dir])`` on the config generated from the seed; the next job starts when the
previous one returns.  After the timed phase every job's artifacts are
checked by ``oracles.py``.  A job fails if ``main`` returns non-zero or
raises, if a ``RuntimeWarning`` fires during it, or if its artifacts fail
the check.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced jobs and reports the per-layer
metrics (see ``tracing.py``).  The last line of standard output is the
result object; the line before it, ``meta: {...}``, records the seed, the
machine and the source version, and the same record is written to
``perfbench/work/<run>/result.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

# One BLAS thread: on a small shared machine a second thread mostly adds
# stalls whenever a neighbour occupies the other core.  It must be set before
# numpy loads; the set-up probes inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

#: Fresh interpreters timed per run for ``setup_s``; the median is reported.
#: One more runs first, untimed, to load the interpreter's files into cache.
SETUP_PROBES = 5
#: Jobs beyond the reported tail percentile.
TAIL_JOBS = 10

sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(trace):
    """``{name: unit}`` of the metrics ``BENCHMARK.json`` asks this mode for."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


# -- jobs ----------------------------------------------------------------------


def run_job(cli_main, command, config, outdir):
    """One CLI call; returns ``(seconds, problems)``."""
    sink = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                code = cli_main([command, "--config", str(config), "--out", str(outdir)])
            except Exception as exc:  # a raising job is a failed job, not a failed run
                code = f"raised {exc!r}"
            seconds = time.perf_counter() - start
    problems = []
    if code != 0:
        problems.append(f"exit {code}: {sink.getvalue()[-400:]}")
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if runtime:
        problems.append(f"{len(runtime)} RuntimeWarning(s), first: {runtime[0].message}")
    return seconds, problems


def check_job(checker, outdir, problems):
    if problems:
        return problems
    try:
        return checker(outdir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"artifacts unreadable: {exc!r}"]


def artifact_bytes(outdir):
    """Bytes of the data artifacts; ``run_record.json`` carries a wall time."""
    return sum(p.stat().st_size for p in Path(outdir).iterdir() if p.name != "run_record.json")


def tail(times):
    """Tail job time and the percentile it sits at.

    The highest percentile with ``TAIL_JOBS`` jobs beyond it reaches the
    90th only at ``10 * TAIL_JOBS`` jobs, and at ``2 * TAIL_JOBS`` or fewer it
    is not above the median.  A run completes about 10 ``audit`` or 60
    ``converge`` jobs, so below ``10 * TAIL_JOBS`` jobs the 90th percentile,
    interpolated between jobs, is reported: one rule for every run, whatever
    its job count.
    """
    n = len(times)
    if n > 10 * TAIL_JOBS:
        rank = n - TAIL_JOBS
        return sorted(times)[rank - 1], 100.0 * rank / n
    if n == 1:
        return times[0], 100.0
    return statistics.quantiles(times, n=10, method="inclusive")[-1], 90.0


# -- set-up --------------------------------------------------------------------


def setup_seconds(config):
    """Median over fresh interpreters of import + parse + model build."""
    values = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(SRC), str(config)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-400:]}")
        values.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(values[1:]), values[1:]


# -- metadata ------------------------------------------------------------------


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def blas_threads():
    """Threads of numpy's bundled OpenBLAS, asked from the loaded library."""
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("libscipy_openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def source_facts():
    """Git commit when available, a hash of ``src/formevol`` and its size."""
    files = sorted((SRC / "formevol").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        text = path.read_text(encoding="utf-8")
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + text.encode())
        lines += sum(1 for line in text.splitlines()
                     if line.strip() and not line.strip().startswith("#"))
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
        commit = done.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines}


def machine_facts():
    import numpy
    import scipy

    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        openblas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "blas_threads": blas_threads(),
    }


# -- the run -------------------------------------------------------------------


def timed_phase(args, cli_main, spec, config, rundir):
    """Jobs back to back for ``args.seconds``; in trace mode every other job is traced.

    A traced job's spans are reduced to per-layer metrics as soon as it ends,
    so they do not pile up in memory; the first traced job's spans are
    written to ``rundir/spans.csv``.  Returns ``(phase seconds, jobs)``.
    """
    jobs = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(jobs) % 2 == 1
        outdir = rundir / f"job{len(jobs):04d}"
        job = {"outdir": outdir, "traced": traced}
        if traced:
            tracer = tracing.Tracer()
            with tracer.installed():
                job["seconds"], job["problems"] = run_job(
                    tracer.wrap("cli.main", cli_main), spec["command"], config, outdir)
            if len(jobs) == 1:
                tracer.write(rundir / "spans.csv")
            job["layers"] = tracing.layer_metrics(tracer.spans)
            job["layers"]["runs.bytes_written"] = (
                0 if job["problems"] else artifact_bytes(outdir))
        else:
            job["seconds"], job["problems"] = run_job(cli_main, spec["command"], config, outdir)
        jobs.append(job)
        if time.perf_counter() - start >= args.seconds and len(jobs) >= 1 + args.trace:
            return time.perf_counter() - start, jobs


def trace_metrics(jobs):
    """Per-layer metrics: counts of the first traced job, medians of times.

    Returns the metrics and whether every traced job gave the same counts.
    """
    traced = [j for j in jobs if j["traced"]]
    first = traced[0]["layers"]
    counts = [name for name, value in first.items() if isinstance(value, int)]
    metrics = {name: statistics.median(j["layers"][name] for j in traced) for name in first}
    metrics.update((name, first[name]) for name in counts)
    repeat = all(j["layers"][name] == first[name] for j in traced for name in counts)
    plain = statistics.median(j["seconds"] for j in jobs if not j["traced"])
    metrics["trace_overhead_frac"] = statistics.median(j["seconds"] for j in traced) / plain - 1.0
    return metrics, repeat


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "formevol" / "__init__.py").is_file():
        print(f"error: no formevol sources under {SRC}; run from a formevol checkout",
              file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)
    spec = workloads.make_spec(args.workload, args.seed)
    rundir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    config = rundir / "config.ini"
    config.write_text(workloads.config_text(spec), encoding="utf-8")

    setup = setup_seconds(config) if not args.trace else (None, [])

    sys.path.insert(0, str(SRC))
    import formevol
    from formevol.cli import main as cli_main
    from formevol.config import parse_config
    from formevol.runs import build_model

    if Path(formevol.__file__).resolve().parent != (SRC / "formevol").resolve():
        print(f"error: imported formevol from {formevol.__file__}, not {SRC}", file=sys.stderr)
        return 2
    model = build_model(parse_config(config.read_text(encoding="utf-8")))
    checker = oracles.make_checker(spec, model.semibound.m)
    # An untimed job first: later jobs reuse its heap and loaded code.
    run_job(cli_main, spec["command"], config, rundir / "warmup")

    phase_seconds, jobs = timed_phase(args, cli_main, spec, config, rundir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for job in jobs:
        job["problems"] = check_job(checker, job["outdir"], job["problems"])
    failed = sum(1 for job in jobs if job["problems"])
    times = [job["seconds"] for job in jobs if not job["traced"]]
    tail_s, tail_pct = tail(times)
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "phase": spec["phase"], "audit_seed": spec.get("audit_seed"),
        "run_seconds": args.seconds, "jobs": len(jobs), "job_seconds": times,
        "tail_percentile": tail_pct, "tail_jobs": len(times),
        "setup_probe_seconds": setup[1],
        "problems": [p for job in jobs for p in job["problems"]][:5],
        **machine_facts(), **source_facts(),
    }
    if args.trace:
        values, meta["counts_repeat"] = trace_metrics(jobs)
        values["failed_frac"] = failed / len(jobs)
    else:
        ok = len(jobs) - failed
        values = {
            "setup_s": setup[0],
            "job_s_p50": statistics.median(times),
            "job_s_tail": tail_s,
            "jobs_per_s": ok / phase_seconds if ok else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
    missing = sorted(set(declared) - set(values))
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 2
    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }
    for job in jobs:
        shutil.rmtree(job["outdir"], ignore_errors=True)
    shutil.rmtree(rundir / "warmup", ignore_errors=True)
    (rundir / "result.json").write_text(
        json.dumps({**result, "meta": meta}, indent=2) + "\n", encoding="utf-8")
    print("meta: " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
