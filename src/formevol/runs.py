"""Experiment orchestration and deterministic artifact serialization.

Each runner consumes a validated :class:`~formevol.config.ExperimentConfig`,
writes its artifacts into an output directory, and returns a
:class:`RunRecord` listing them.  Artifacts are deterministic: floats are
written with 17 significant digits in scientific notation, rows and keys
have fixed order, line endings are LF, and no timestamps appear in data
files (wall-clock information lives only in the run record).  Files are
written atomically (temp file + rename), so concurrent runs into distinct
directories never interleave.
"""

from __future__ import annotations

import json
import os
import tempfile
import time as _time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from .config import ExperimentConfig, config_hash, serialize_config
from .errors import ConfigError
from .models import alpha_profile, circle_delta_model, spectrum, synthetic_family
from .propagators import (
    YosidaStudy,
    final_state,
    propagate,
    weak_residual,
    yosida_convergence_study,
)
from .regularity import bridge_check, uniform_grid


def _fmt_float(x) -> str:
    return f"{float(x):.16e}"


def _write_atomic(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows):
    """RFC-4180-style CSV: header row, LF endings, full float precision."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, str):
                cells.append(cell)
            elif isinstance(cell, (int, np.integer)):
                cells.append(str(int(cell)))
            else:
                cells.append(_fmt_float(cell))
        lines.append(",".join(cells))
    _write_atomic(path, "\n".join(lines) + "\n")


def write_json(path, obj):
    _write_atomic(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    # Before the integers: bool is a subclass of int.
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if np.isfinite(x) else repr(x)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


@dataclass
class RunRecord:
    """Metadata of one completed run; the only artifact carrying timestamps."""

    config_hash: str
    seed: int
    versions: dict
    wall_time_s: float
    outputs: list
    #: dtype of the model's ``H`` stack, ``"float64"`` or ``"complex128"``: the
    #: arithmetic (real symmetric or complex Hermitian LAPACK) the run took.
    arithmetic: str
    counters: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)


def _versions():
    return {"formevol": __version__, "numpy": np.__version__}


# ---------------------------------------------------------------------------
# Model construction from configuration
# ---------------------------------------------------------------------------


def build_alpha(model_section):
    name = model_section.alpha
    if name in ("sin", "trigonometric"):
        return alpha_profile(
            "trigonometric",
            amplitude=model_section.alpha_amplitude,
            frequency=model_section.alpha_frequency,
            phase=model_section.alpha_phase,
            offset=model_section.alpha_offset,
        )
    if name == "constant":
        return alpha_profile("constant", value=model_section.alpha_value)
    if name == "polynomial":
        return alpha_profile("polynomial", coeffs=list(model_section.alpha_coeffs))
    if name == "kink":
        center = model_section.alpha_center
        if center is None:
            center = 0.5 * model_section.T
        return alpha_profile(
            "kink",
            center=center,
            amplitude=model_section.alpha_amplitude,
            offset=model_section.alpha_offset,
        )
    if name == "rough_c0":
        return alpha_profile(
            "rough_c0",
            amplitude=model_section.alpha_amplitude,
            scale=model_section.alpha_scale,
        )
    if name == "table":
        return alpha_profile(
            "table",
            times=list(model_section.alpha_times),
            values=list(model_section.alpha_values),
        )
    raise ConfigError([f"model.alpha: unsupported profile {name!r}"])


def build_model(cfg: ExperimentConfig):
    m = cfg.model
    if m.kind == "circle_delta":
        return circle_delta_model(m.K, build_alpha(m), m.T)
    params = {"seed": m.seed}
    if m.kind == "commuting_diagonal":
        params["rates"] = np.arange(1, m.dim + 1, dtype=float)
        params["offsets"] = np.zeros(m.dim)
    return synthetic_family(m.kind, m.dim, m.T, params)


def initial_state(cfg: ExperimentConfig, tdh) -> np.ndarray:
    init = cfg.initial
    if init.coefficients:
        psi = np.asarray(init.coefficients, dtype=complex)
        if psi.shape != (tdh.dim,):
            raise ConfigError(
                [f"initial.coefficients must have length {tdh.dim}, got {psi.size}"]
            )
    else:
        psi = np.zeros(tdh.dim, dtype=complex)
        if cfg.model.kind == "circle_delta":
            k = init.mode
            if abs(k) > cfg.model.K:
                raise ConfigError(
                    [f"initial.mode must satisfy |mode| <= K = {cfg.model.K}"]
                )
            psi[k + cfg.model.K] = 1.0
        else:
            if not 0 <= init.mode < tdh.dim:
                raise ConfigError([f"initial.mode must be in [0, {tdh.dim})"])
            psi[init.mode] = 1.0
    norm = np.linalg.norm(psi)
    if norm == 0.0:
        raise ConfigError(["initial state must be nonzero"])
    return psi / norm


def _span(cfg: ExperimentConfig):
    start = cfg.time.start
    stop = cfg.time.stop if cfg.time.stop is not None else cfg.model.T
    return start, stop


def _coefficient_labels(cfg, tdh, indices):
    if cfg.model.kind == "circle_delta":
        K = cfg.model.K
        return [f"k{idx - K:+d}" for idx in indices]
    return [f"c{idx}" for idx in indices]


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def _finish(cfg, outdir, outputs, seed, t_start, tdh, counters=None):
    record = RunRecord(
        config_hash=config_hash(cfg),
        seed=seed,
        versions=_versions(),
        wall_time_s=_time.perf_counter() - t_start,
        outputs=sorted(outputs),
        arithmetic=tdh.stack(tdh.t_span[:1]).dtype.name,
        counters=counters or {},
    )
    write_json(os.path.join(outdir, "run_record.json"), record.to_dict())
    return record


def _write_effective_config(cfg, outdir, outputs):
    path = os.path.join(outdir, "effective_config.ini")
    _write_atomic(path, serialize_config(cfg))
    outputs.append("effective_config.ini")


def _rayleigh_max_ratio(A, samples):
    """Largest ratio ``q_t(x) / q_0(x)`` or ``q_0(x) / q_t(x)`` over the sample rows
    ``x`` and the slices ``t >= 1`` of ``A``, with ``q_t(x) = Re x* A[t] x``."""
    n = samples.shape[0]
    if np.iscomplexobj(A):
        rows, cols, fold = samples.conj(), samples, np.real
    else:
        # For a real symmetric M, Re x* M x = xr' M xr + xi' M xi: one real product.
        rows = cols = np.concatenate([samples.real, samples.imag])

        def fold(q):
            return q[:n] + q[n:]

    q = [fold(np.einsum("va,va->v", rows @ M, cols)) for M in A]
    return max(float(np.max(np.maximum(qt / q[0], q[0] / qt))) for qt in q[1:])


def run_audit(cfg: ExperimentConfig, outdir, grid_refine=0):
    """Assumption audits on a uniform grid; writes audit.csv + summary JSON."""
    t_start = _time.perf_counter()
    tdh = build_model(cfg)
    audit = cfg.audit
    points = (audit.grid_points - 1) * 2**grid_refine + 1
    grid = uniform_grid(0.0, cfg.model.T, points)
    report = bridge_check(
        tdh, grid, t0=audit.t0, k2_order=audit.k2_order, slope_min=audit.k2_slope_min)

    outputs = []
    columns = ("lambda_min", "pencil_max", "pencil_min", "s2_local", "k2_local")
    rows = zip(grid, *(report.per_t[name] for name in columns))
    write_csv(
        os.path.join(outdir, "audit.csv"),
        ["t", "lambda_min", "lambda_max_pencil", "lambda_min_pencil", "S2_local", "K2_omega_at_t"],
        rows,
    )
    outputs.append("audit.csv")

    summary = report.to_dict()
    if audit.rayleigh_samples > 0:
        rng = np.random.default_rng(audit.seed)
        samples = rng.standard_normal((audit.rayleigh_samples, tdh.dim)) \
            + 1j * rng.standard_normal((audit.rayleigh_samples, tdh.dim))
        A = tdh.shifted(np.concatenate([[report.t0], grid[:: max(1, grid.size // 32)]]))
        worst = summary["rayleigh_max_ratio"] = _rayleigh_max_ratio(A, samples)
        bound = report.s1_operator_constant * (1.0 + 1e-12)
        summary["rayleigh_within_bound"] = bool(worst <= bound)
    write_json(os.path.join(outdir, "audit_summary.json"), _jsonable(summary))
    outputs.append("audit_summary.json")

    series = {name: (grid, report.per_t[name]) for name in columns[:4]}
    series["k2_omega"] = tuple(np.array(column) for column in zip(*report.k2_modulus))
    emit_plotdata([(config_hash(cfg), series)], os.path.join(outdir, "plotdata.csv"))
    outputs.append("plotdata.csv")

    _write_effective_config(cfg, outdir, outputs)
    return report, _finish(cfg, outdir, outputs, audit.seed, t_start, tdh, report.counters)


def run_propagation(cfg: ExperimentConfig, outdir, grid_refine=0):
    """Propagate the configured initial state; writes trajectory + residuals."""
    t_start = _time.perf_counter()
    tdh = build_model(cfg)
    psi0 = initial_state(cfg, tdh)
    s, t = _span(cfg)
    steps = cfg.time.steps * 2**grid_refine
    inner = cfg.propagator.substeps
    traj = propagate(
        tdh,
        psi0,
        s,
        t,
        method=cfg.propagator.method,
        substeps=steps * inner,
        order=cfg.propagator.order,
        yosida_n=cfg.propagator.yosida_n,
    )
    times = traj.times[::inner]
    states = traj.states[::inner]

    order = np.argsort(-np.abs(psi0), kind="stable")
    selected = np.sort(order[: min(4, tdh.dim)])
    labels = _coefficient_labels(cfg, tdh, selected)

    scale0 = tdh.scale_at(tdh.t_span[0])
    test = np.eye(tdh.dim, dtype=complex)[selected]
    sub_traj = replace(traj, times=times, states=states)
    report = weak_residual(tdh, sub_traj, test, scale=scale0)

    header = ["t"]
    for lab in labels:
        header += [f"re_{lab}", f"im_{lab}"]
    header += ["norm_H", "norm_plus", "weak_residual_local"]
    weak_local = np.append(report.weak_local, 0.0)
    norm_plus = [scale0.norm_plus(v) for v in states]
    rows = []
    for j, tj in enumerate(times):
        row = [tj]
        for idx in selected:
            row += [states[j, idx].real, states[j, idx].imag]
        row += [
            float(np.linalg.norm(states[j])),
            norm_plus[j],
            float(weak_local[j]),
        ]
        rows.append(row)
    outputs = []
    write_csv(os.path.join(outdir, "trajectory.csv"), header, rows)
    outputs.append("trajectory.csv")

    summary = report.to_dict()
    summary["unitarity_defect"] = traj.unitarity_defect
    summary["method"] = traj.method
    write_json(os.path.join(outdir, "residuals.json"), _jsonable(summary))
    outputs.append("residuals.json")

    series = {
        "norm_H": (times, np.linalg.norm(states, axis=1)),
        "norm_plus": (times, np.array(norm_plus)),
        "weak_residual": (report.midpoints, report.weak_local),
    }
    for lab, idx in zip(labels, selected):
        series[f"abs_{lab}"] = (times, np.abs(states[:, idx]))
    emit_plotdata([(config_hash(cfg), series)], os.path.join(outdir, "plotdata.csv"))
    outputs.append("plotdata.csv")

    _write_effective_config(cfg, outdir, outputs)
    counters = {"propagation_steps": traj.times.size - 1}
    return report, _finish(cfg, outdir, outputs, cfg.audit.seed, t_start, tdh, counters)


def run_convergence(cfg: ExperimentConfig, outdir):
    """Sweeps over the regularization index and/or the step count."""
    t_start = _time.perf_counter()
    n_list = cfg.propagator.n_list
    steps_list = cfg.propagator.steps_list
    if not n_list and not steps_list:
        raise ConfigError(
            ["propagator.n_list and propagator.steps_list cannot both be empty"]
        )
    tdh = build_model(cfg)
    psi0 = initial_state(cfg, tdh)
    s, t = _span(cfg)
    outputs = []
    series = {}
    steps = 0  # propagation steps applied, over both sweeps

    if n_list:
        study = yosida_convergence_study(
            tdh, list(n_list), psi0, s, t, substeps=cfg.time.steps
        )
        write_csv(
            os.path.join(outdir, "convergence.csv"),
            ["n", "err_H", "err_plus", "ratio"],
            study.rows(),
        )
        outputs.append("convergence.csv")
        ns = study.n_values.astype(float)
        series["yosida_err_H"] = (ns, study.err_h)
        series["yosida_err_plus"] = (ns, study.err_plus)
        steps += cfg.time.steps * (len(n_list) + 1)

    if steps_list:
        if any(b <= a for a, b in zip(steps_list, steps_list[1:])):
            raise ConfigError(["propagator.steps_list must be strictly increasing"])
        prop = cfg.propagator
        options = {"method": prop.method, "order": prop.order, "yosida_n": prop.yosida_n}
        ref_steps = 4 * max(steps_list)
        ref = final_state(tdh, psi0, s, t, substeps=ref_steps, **options)
        finals = (final_state(tdh, psi0, s, t, substeps=N, **options) for N in steps_list)
        steps += ref_steps + sum(steps_list)
        sweep = YosidaStudy.against(ref, steps_list, finals, tdh.scale_at(tdh.t_span[0]))
        write_csv(
            os.path.join(outdir, "convergence_steps.csv"),
            ["steps", "err_H", "err_plus", "ratio"],
            sweep.rows(),
        )
        outputs.append("convergence_steps.csv")
        series["steps_err_H"] = (np.asarray(steps_list, float), sweep.err_h)

    emit_plotdata([(config_hash(cfg), series)], os.path.join(outdir, "plotdata.csv"))
    outputs.append("plotdata.csv")
    _write_effective_config(cfg, outdir, outputs)
    return _finish(cfg, outdir, outputs, cfg.audit.seed, t_start, tdh, {"propagation_steps": steps})


def run_spectrum(cfg: ExperimentConfig, outdir, grid_refine=0):
    """Eigenvalue scan over time; long-format CSV (t, index, eigenvalue)."""
    t_start = _time.perf_counter()
    tdh = build_model(cfg)
    points = (cfg.audit.grid_points - 1) * 2**grid_refine + 1
    grid = uniform_grid(0.0, cfg.model.T, points)
    evals = spectrum(tdh, grid)
    rows = [(tj, idx, float(lam)) for tj, row in zip(grid, evals) for idx, lam in enumerate(row)]
    outputs = []
    write_csv(os.path.join(outdir, "spectrum.csv"), ["t", "index", "eigenvalue"], rows)
    outputs.append("spectrum.csv")

    series = {f"level_{idx:03d}": (grid, evals[:, idx]) for idx in range(evals.shape[1])}
    emit_plotdata([(config_hash(cfg), series)], os.path.join(outdir, "plotdata.csv"))
    outputs.append("plotdata.csv")
    _write_effective_config(cfg, outdir, outputs)
    return _finish(cfg, outdir, outputs, cfg.audit.seed, t_start, tdh)


def emit_plotdata(records, path):
    """Merge (hash, series) records into one tidy long-format CSV.

    Rows are ``series,x,y`` with the series name prefixed by the originating
    config hash, so merged runs cannot collide.  Ordering is deterministic:
    records in the given order, series sorted by name.
    """
    rows = []
    for tag, series in records:
        for name in sorted(series):
            xs, ys = series[name]
            for x, y in zip(np.asarray(xs), np.asarray(ys)):
                rows.append((f"{tag}:{name}", float(x), float(y)))
    write_csv(path, ["series", "x", "y"], rows)
