"""Experiment orchestration and deterministic artifact serialization.

Each runner consumes a validated :class:`~formevol.config.ExperimentConfig`
and builds its artifacts as data, ``{file name: content}``: a CSV artifact
is an ordered mapping from header to a 1-d column, a JSON artifact an
object.  :func:`_finish` writes them only once all are built, so a run that
fails writes no data artifact.  A column is formatted once, by dtype:
strings as they are, integers in decimal, floats with 17 significant digits
in scientific notation; ragged and complex columns are refused.  Rows and
keys have fixed order, line endings are LF, and no timestamps appear in
data files (wall-clock information lives only in the run record).  Files
are written atomically (temp file + rename), so concurrent runs into
distinct directories never interleave.
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
from .errors import ArgumentError
from .forms import map_blocks, tallying
from .models import alpha_profile, circle_delta_model, spectrum, synthetic_family
from .propagators import (
    YosidaStudy,
    final_state,
    propagate,
    weak_residual,
    yosida_convergence_study,
)
from .regularity import bridge_check, uniform_grid


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


def _cells(header, values, rows):
    """The cells of one column as text, formatted by the column's dtype."""
    values = np.asarray(values)
    if values.shape != (rows,):
        raise ArgumentError(
            f"column {header!r} has shape {values.shape}; the first column has {rows} rows")
    kind = values.dtype.kind
    if kind == "U":
        return values.tolist()
    if kind in "iu":
        return [str(v) for v in values.tolist()]
    if kind == "f":
        return [f"{v:.16e}" for v in values.tolist()]
    raise ArgumentError(f"column {header!r}: cannot write values of dtype {values.dtype}")


def write_csv(path, columns):
    """RFC-4180-style CSV of ``{header: 1-d column}``: LF endings, full float precision."""
    rows = len(next(iter(columns.values()), ()))
    cells = [_cells(header, values, rows) for header, values in columns.items()]
    lines = [",".join(columns), *map(",".join, zip(*cells))]
    _write_atomic(path, "\n".join(lines) + "\n")


def write_json(path, obj):
    """Sorted, indented JSON; numpy values as JSON values, non-finite floats as text."""
    _write_atomic(path, json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n")


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
    #: The work the run did after building its model, as :func:`forms.count` tallied it.
    counters: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)


# ---------------------------------------------------------------------------
# Model construction from configuration
# ---------------------------------------------------------------------------


#: The parameters of each alpha profile kind, each read from the config key ``alpha_<name>``.
ALPHA_PARAMS = {
    "constant": ("value",),
    "polynomial": ("coeffs",),
    "trigonometric": ("amplitude", "frequency", "phase", "offset"),
    "kink": ("center", "amplitude", "offset"),
    "rough_c0": ("amplitude", "scale"),
    "table": ("times", "values"),
}


def build_alpha(model_section):
    """The profile ``model.alpha`` names (``sin`` is ``trigonometric``); a kink's
    centre defaults to ``T / 2``, and list parameters are passed as lists."""
    kind = "trigonometric" if model_section.alpha == "sin" else model_section.alpha
    params = {name: getattr(model_section, f"alpha_{name}") for name in ALPHA_PARAMS[kind]}
    if kind == "kink" and params["center"] is None:
        params["center"] = 0.5 * model_section.T
    return alpha_profile(kind, **{k: list(v) if isinstance(v, tuple) else v
                                  for k, v in params.items()})


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
    """The normalized ``initial.coefficients``, or else the basis vector of
    ``initial.mode`` (the Fourier mode ``k`` on the circle)."""
    init = cfg.initial
    if init.coefficients:
        psi = np.asarray(init.coefficients, dtype=complex)
    else:
        psi = np.zeros(tdh.dim, dtype=complex)
        psi[init.mode + (cfg.model.K if cfg.model.kind == "circle_delta" else 0)] = 1.0
    return psi / np.linalg.norm(psi)


def _refinement(grid_refine):
    """``2**grid_refine``, the factor ``--grid-refine`` refines a grid by."""
    if grid_refine < 0 or int(grid_refine) != grid_refine:
        raise ArgumentError(f"grid_refine must be an integer >= 0, got {grid_refine!r}")
    return 2**grid_refine


def _span(cfg: ExperimentConfig):
    start = cfg.time.start
    stop = cfg.time.stop if cfg.time.stop is not None else cfg.model.T
    return start, stop


def _coefficient_labels(cfg, indices):
    if cfg.model.kind == "circle_delta":
        K = cfg.model.K
        return [f"k{idx - K:+d}" for idx in indices]
    return [f"c{idx}" for idx in indices]


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def _finish(cfg, outdir, artifacts, series, t_start, tdh, counts):
    """Write ``artifacts`` (``.csv`` ones as columns, the rest as JSON), then
    ``plotdata.csv`` of ``series``, ``effective_config.ini`` and ``run_record.json``
    with ``counts``, where ``h_slices`` and ``eigensolved_mats`` are 0 if not counted."""
    tag = config_hash(cfg)
    for name, content in artifacts.items():
        write = write_csv if name.endswith(".csv") else write_json
        write(os.path.join(outdir, name), content)
    emit_plotdata([(tag, series)], os.path.join(outdir, "plotdata.csv"))
    _write_atomic(os.path.join(outdir, "effective_config.ini"), serialize_config(cfg))
    record = RunRecord(
        config_hash=tag,
        seed=cfg.audit.seed,
        versions={"formevol": __version__, "numpy": np.__version__},
        wall_time_s=_time.perf_counter() - t_start,
        outputs=sorted([*artifacts, "plotdata.csv", "effective_config.ini"]),
        arithmetic=tdh.stack(tdh.t_span[:1]).dtype.name,
        counters={"h_slices": 0, "eigensolved_mats": 0, **counts},
    )
    write_json(os.path.join(outdir, "run_record.json"), record.to_dict())
    return record


def _rayleigh_max_ratio(A, samples):
    """Largest ratio ``q_t(x) / q_0(x)`` or ``q_0(x) / q_t(x)`` over the sample rows
    ``x`` and the slices ``t >= 1`` of ``A``, with ``q_t(x) = Re x* A[t] x``.  The
    slices' products run concurrently by :func:`forms.map_blocks`, one slice a part."""
    n = samples.shape[0]
    if np.iscomplexobj(A):
        rows, cols, fold = samples.conj(), samples, np.real
    else:
        # For a real symmetric M, Re x* M x = xr' M xr + xi' M xi: one real product.
        rows = cols = np.concatenate([samples.real, samples.imag])

        def fold(q):
            return q[:n] + q[n:]

    q = map_blocks(lambda M: fold(np.einsum("va,va->v", rows @ M, cols)), A)
    return max(float(np.max(np.maximum(qt / q[0], q[0] / qt))) for qt in q[1:])


def run_audit(cfg: ExperimentConfig, outdir, grid_refine=0):
    """Assumption audits on a uniform grid; writes audit.csv + summary JSON."""
    t_start = _time.perf_counter()
    audit = cfg.audit
    points = (audit.grid_points - 1) * _refinement(grid_refine) + 1
    tdh = build_model(cfg)
    grid = uniform_grid(0.0, cfg.model.T, points)
    with tallying() as counts:
        report = bridge_check(
            tdh, grid, t0=audit.t0, k2_order=audit.k2_order, slope_min=audit.k2_slope_min)
        summary = report.to_dict()
        if audit.rayleigh_samples > 0:
            rng = np.random.default_rng(audit.seed)
            samples = rng.standard_normal((audit.rayleigh_samples, tdh.dim)) \
                + 1j * rng.standard_normal((audit.rayleigh_samples, tdh.dim))
            A = tdh.shifted(np.concatenate([[report.t0], grid[:: max(1, grid.size // 32)]]))
            worst = summary["rayleigh_max_ratio"] = _rayleigh_max_ratio(A, samples)
            bound = report.s1_operator_constant * (1.0 + 1e-12)
            summary["rayleigh_within_bound"] = bool(worst <= bound)

    names = ("lambda_min", "pencil_max", "pencil_min", "s2_local", "k2_local")
    headers = ("t", "lambda_min", "lambda_max_pencil", "lambda_min_pencil", "S2_local",
               "K2_omega_at_t")
    table = dict(zip(headers, [grid, *(report.per_t[name] for name in names)]))
    series = {name: (grid, report.per_t[name]) for name in names[:4]}
    series["k2_omega"] = np.transpose(report.k2_modulus)
    artifacts = {"audit.csv": table, "audit_summary.json": summary}
    return report, _finish(cfg, outdir, artifacts, series, t_start, tdh, counts)


def run_propagation(cfg: ExperimentConfig, outdir, grid_refine=0):
    """Propagate the configured initial state; writes trajectory + residuals."""
    t_start = _time.perf_counter()
    prop = cfg.propagator
    steps, inner = cfg.time.steps * _refinement(grid_refine), prop.substeps
    tdh = build_model(cfg)
    psi0 = initial_state(cfg, tdh)
    s, t = _span(cfg)
    order = np.argsort(-np.abs(psi0), kind="stable")
    selected = np.sort(order[: min(4, tdh.dim)])
    labels = _coefficient_labels(cfg, selected)
    test = np.eye(tdh.dim, dtype=complex)[selected]

    with tallying() as counts:
        traj = propagate(tdh, psi0, s, t, method=prop.method, substeps=steps * inner,
                         order=prop.order, yosida_n=prop.yosida_n)
        times, states = traj.times[::inner], traj.states[::inner]
        scale0 = tdh.scale_at(tdh.t_span[0])
        report = weak_residual(tdh, replace(traj, times=times, states=states), test,
                               scale=scale0)

    norm_h = np.linalg.norm(states, axis=1)
    norm_plus = np.array([scale0.norm_plus(v) for v in states])
    trajectory = {"t": times}
    series = {"norm_H": (times, norm_h), "norm_plus": (times, norm_plus),
              "weak_residual": (report.midpoints, report.weak_local)}
    for lab, idx in zip(labels, selected):
        coefficient = states[:, idx]
        trajectory[f"re_{lab}"], trajectory[f"im_{lab}"] = coefficient.real, coefficient.imag
        series[f"abs_{lab}"] = (times, np.abs(coefficient))
    trajectory.update(norm_H=norm_h, norm_plus=norm_plus,
                      weak_residual_local=np.append(report.weak_local, 0.0))
    summary = {**report.to_dict(), "unitarity_defect": traj.unitarity_defect,
               "method": traj.method}
    artifacts = {"trajectory.csv": trajectory, "residuals.json": summary}
    return report, _finish(cfg, outdir, artifacts, series, t_start, tdh, counts)


def run_convergence(cfg: ExperimentConfig, outdir):
    """Sweeps over the regularization index and/or the step count.  A magnus2
    step sweep whose reference grid, ``4 * max(steps_list)`` steps, is the
    Yosida sweep's ``time.steps`` compares against that sweep's reference."""
    t_start = _time.perf_counter()
    prop = cfg.propagator
    n_list, steps_list = prop.n_list, prop.steps_list
    tdh = build_model(cfg)
    psi0 = initial_state(cfg, tdh)
    s, t = _span(cfg)
    artifacts, series = {}, {}

    with tallying() as counts:
        if n_list:
            study = yosida_convergence_study(tdh, n_list, psi0, s, t, substeps=cfg.time.steps)
            artifacts["convergence.csv"] = study.columns("n")
            series["yosida_err_H"] = (study.n_values, study.err_h)
            series["yosida_err_plus"] = (study.n_values, study.err_plus)

        if steps_list:
            options = {"method": prop.method, "order": prop.order, "yosida_n": prop.yosida_n}
            ref_steps = 4 * max(steps_list)
            if n_list and prop.method == "magnus2" and ref_steps == cfg.time.steps:
                # Row 0 of the Yosida sweep is this propagation, bit for bit.
                ref = study.reference
            else:
                ref = final_state(tdh, psi0, s, t, substeps=ref_steps, **options)
            finals = (final_state(tdh, psi0, s, t, substeps=N, **options) for N in steps_list)
            scale = study.scale if n_list else tdh.scale_at(tdh.t_span[0])
            sweep = YosidaStudy.against(ref, steps_list, finals, scale)
            artifacts["convergence_steps.csv"] = sweep.columns("steps")
            series["steps_err_H"] = (sweep.n_values, sweep.err_h)

    return _finish(cfg, outdir, artifacts, series, t_start, tdh, counts)


def run_spectrum(cfg: ExperimentConfig, outdir, grid_refine=0):
    """Eigenvalue scan over time; long-format CSV (t, index, eigenvalue)."""
    t_start = _time.perf_counter()
    points = (cfg.audit.grid_points - 1) * _refinement(grid_refine) + 1
    tdh = build_model(cfg)
    grid = uniform_grid(0.0, cfg.model.T, points)
    with tallying() as counts:
        evals = spectrum(tdh, grid)
    levels = evals.shape[1]
    table = {"t": np.repeat(grid, levels), "index": np.tile(np.arange(levels), grid.size),
             "eigenvalue": evals.ravel()}
    series = {f"level_{idx:03d}": (grid, evals[:, idx]) for idx in range(levels)}
    return _finish(cfg, outdir, {"spectrum.csv": table}, series, t_start, tdh, counts)


def emit_plotdata(records, path):
    """Merge (hash, series) records into one tidy long-format CSV.

    Rows are ``series,x,y`` with the series name prefixed by the originating
    config hash, so merged runs cannot collide; x and y are written as floats.
    Ordering is deterministic: records in the given order, series sorted by
    name.  A series whose x and y differ in length is refused.
    """
    # The empty float heads make x and y float columns even for no or integer series.
    labels, counts, xs, ys = [], [], [np.zeros(0)], [np.zeros(0)]
    for tag, series in records:
        for name in sorted(series):
            x, y = map(np.asarray, series[name])
            if len(x) != len(y):
                raise ArgumentError(
                    f"plotdata series {tag}:{name} has {len(x)} x values and {len(y)} y values")
            labels.append(f"{tag}:{name}")
            counts.append(len(x))
            xs.append(x)
            ys.append(y)
    write_csv(path, {"series": np.repeat(np.array(labels, dtype=str), counts),
                     "x": np.concatenate(xs), "y": np.concatenate(ys)})
