import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import formevol
from formevol import (
    AffineHamiltonian,
    ConfigError,
    TimeDependentHamiltonian,
    alpha_profile,
    circle_delta_model,
    config,
    models,
    propagate,
    runs,
    synthetic_family,
    yosida_hamiltonian,
)
from formevol.cli import main
from formevol.config import config_hash, default_config, parse_config, serialize_config
from formevol.errors import ArgumentError, NumericalError
from formevol.models import spectrum
from formevol.propagators import YosidaStudy, final_state, yosida_convergence_study
from formevol.regularity import bridge_check, uniform_grid
from formevol.runs import (
    build_model,
    emit_plotdata,
    initial_state,
    run_audit,
    run_convergence,
    run_propagation,
    run_spectrum,
    write_csv,
)

from helpers import generic_twin

CONFIGS = Path(__file__).parents[1] / "configs"

#: Every key of the schema whose value is, or holds, a float or complex number.
FLOAT_KEYS = [
    "model.T", "model.alpha_amplitude", "model.alpha_frequency", "model.alpha_phase",
    "model.alpha_offset", "model.alpha_value", "model.alpha_center", "model.alpha_scale",
    "model.alpha_coeffs", "model.alpha_times", "model.alpha_values",
    "time.start", "time.stop", "audit.t0", "audit.k2_slope_min", "initial.coefficients",
]

MINIMAL = """
[model]
kind = circle_delta
K = 8
alpha = sin
T = 6.283185307179586

[propagator]
method = magnus2

[time]
steps = 512
"""


class TestParseConfig:
    def test_minimal_valid(self):
        cfg = parse_config(MINIMAL)
        assert cfg.model.kind == "circle_delta"
        assert cfg.model.K == 8
        assert cfg.time.steps == 512
        assert cfg.propagator.method == "magnus2"

    def test_defaults_fill_in(self):
        cfg = parse_config("")
        assert cfg.audit.grid_points == 257
        assert cfg.propagator.n_list == (4, 8, 16, 32, 64)

    def test_negative_steps_message(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[time]\nsteps = -1\n")
        assert "time.steps must be positive" in err.value.errors

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[model]\nkappa = 3\n")
        assert any("model.kappa" in e for e in err.value.errors)

    def test_unknown_section_named(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[solver]\nx = 1\n")
        assert any("[solver]" in e for e in err.value.errors)

    def test_three_faults_three_errors(self):
        text = "[model]\nkappa = 3\n[time]\nsteps = -1\n[audit]\ngrid_points = 0\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert len(err.value.errors) == 3

    def test_type_mismatch_named_with_path(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[time]\nsteps = soon\n")
        assert any(e.startswith("time.steps") for e in err.value.errors)

    def test_roundtrip(self):
        cfg = parse_config(MINIMAL)
        again = parse_config(serialize_config(cfg))
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    def test_roundtrip_default(self):
        cfg = default_config()
        assert parse_config(serialize_config(cfg)) == cfg

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", FLOAT_KEYS)
    def test_non_finite_numbers_are_refused_by_key(self, name, value):
        section, key = name.split(".")
        with pytest.raises(ConfigError) as err:
            parse_config(f"[{section}]\n{key} = {value}\n")
        assert err.value.errors == [f"{name}: cannot parse {value!r} (not a finite number)"]

    def test_yosida_method_requires_n(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[propagator]\nmethod = yosida\n")
        assert any("yosida_n" in e for e in err.value.errors)


#: Refused values of every key that has a validator, ``{section.key: [raw, ...]}``.
REFUSED = {
    "model.kind": ["sphere"],
    "model.K": ["0", "-2"],
    "model.T": ["0", "-1.5"],
    "model.alpha": ["cos"],
    "model.alpha_scale": ["0"],
    "model.dim": ["0", "1"],
    "model.seed": ["-1"],
    "time.steps": ["0", "1"],
    "propagator.method": ["euler"],
    "propagator.order": ["5"],
    "propagator.substeps": ["0"],
    "propagator.yosida_n": ["0"],
    "propagator.n_list": ["0,4", "-1", "8,4", "4,4"],
    "propagator.steps_list": ["-64,128", "64,64"],
    "audit.grid_points": ["0", "5", "7"],
    "audit.k2_order": ["3"],
    "audit.rayleigh_samples": ["-1"],
    "audit.seed": ["-1"],
}


def _cli(tmp_path, command, text):
    """``(exit code, whether --out was created)`` of one CLI run of ``text``."""
    path = tmp_path / "config.ini"
    path.write_text(text)
    out = tmp_path / "out"
    code = main([command, "--config", str(path), "--out", str(out)])
    return code, out.exists()


class TestConfigRules:
    """Every rule about config values is checked at parse time, naming its key."""

    def test_the_table_covers_every_validated_key(self):
        validated = {f"{section}.{key}" for section, keys in config.SCHEMA.items()
                     for key, (_, _, validator) in keys.items() if validator is not None}
        assert set(REFUSED) == validated

    @pytest.mark.parametrize("name, raw", [(n, r) for n, raws in REFUSED.items() for r in raws])
    def test_every_validator_names_its_key(self, name, raw):
        section, key = name.split(".")
        with pytest.raises(ConfigError) as err:
            parse_config(f"[{section}]\n{key} = {raw}\n")
        [problem] = err.value.errors
        assert problem.startswith(f"{name} ") and "cannot parse" not in problem

    @pytest.mark.parametrize("text, message", [
        ("[time]\nstart = 1.0\nstop = 1.0\n", "time.stop must exceed time.start"),
        ("[time]\nstart = -0.5\n", "time.start must be >= 0"),
        ("[model]\nT = 1.0\n[time]\nstop = 1.5\n", "time.stop cannot exceed model.T"),
        ("[model]\nT = 1.0\n[audit]\nt0 = 1.5\n", "audit.t0 must lie in [0, model.T]"),
        ("[audit]\nt0 = -0.1\n", "audit.t0 must lie in [0, model.T]"),
        ("[model]\nalpha = table\nalpha_times = 0,1,2\nalpha_values = 1,2\n",
         "model.alpha_times and model.alpha_values must have equal length >= 2"),
        ("[model]\nalpha = table\nalpha_times = 0\nalpha_values = 1\n",
         "model.alpha_times and model.alpha_values must have equal length >= 2"),
        ("[model]\nalpha = table\nalpha_times = 0,2,1\nalpha_values = 1,2,3\n",
         "model.alpha_times must be strictly increasing"),
        ("[model]\nalpha = polynomial\nalpha_coeffs =\n",
         "model.alpha_coeffs needs at least one entry when model.alpha = polynomial"),
        ("[propagator]\nn_list =\nsteps_list =\n",
         "propagator.n_list and propagator.steps_list cannot both be empty"),
        ("[model]\nK = 1\n[initial]\nmode = 2\n", "initial.mode must satisfy |mode| <= K = 1"),
        ("[model]\nK = 1\n[initial]\nmode = -2\n", "initial.mode must satisfy |mode| <= K = 1"),
        ("[model]\nkind = constant\ndim = 3\n[initial]\nmode = 3\n",
         "initial.mode must be in [0, 3)"),
        ("[model]\nkind = rotating_frame\n[initial]\nmode = -1\n",
         "initial.mode must be in [0, 4)"),
        ("[model]\nK = 1\n[initial]\ncoefficients = 1,0\n",
         "initial.coefficients must have length 3, got 2"),
        ("[model]\nkind = commuting_diagonal\ndim = 2\n[initial]\ncoefficients = 1,0,0\n",
         "initial.coefficients must have length 2, got 3"),
        ("[model]\nK = 1\n[initial]\ncoefficients = 0,0j,-0.0\n",
         "initial.coefficients must have a nonzero norm"),
        ("[model]\nK = 1\n[initial]\ncoefficients = 1e-170,0,1e-170j\n",
         "initial.coefficients must have a nonzero norm"),
    ])
    def test_cross_key_rules(self, text, message):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.errors == [message]

    @pytest.mark.parametrize("text", [
        "[time]\nstart = 1.0\nstop = 2.0\n",
        "[model]\nT = 1.0\n[time]\nstop = 1.0\n[audit]\nt0 = 1.0\n",
        "[model]\nalpha = table\nalpha_times = 0,1\nalpha_values = 1,1\n",
        "[model]\nK = 1\n[initial]\nmode = -1\n",
        "[model]\nkind = constant\ndim = 2\n[initial]\nmode = 1\n",
        # The mode is not used when coefficients are given.
        "[model]\nK = 1\n[initial]\nmode = 7\ncoefficients = 0,0,1e-3j\n",
        "[propagator]\nn_list =\nsteps_list = 1\n",
        "[propagator]\nn_list = 1\n",
    ])
    def test_the_edges_of_each_rule_are_admitted(self, text):
        parse_config(text)

    @pytest.mark.parametrize("command, text, message", [
        ("converge", "[model]\nK = 1\n[propagator]\nn_list = 0,4\n",
         "propagator.n_list entries must be >= 1"),
        ("converge", "[model]\nK = 1\n[propagator]\nn_list = 8,4\n",
         "propagator.n_list must be strictly increasing"),
        ("converge", "[model]\nK = 1\n[propagator]\nn_list =\nsteps_list = -64,128\n",
         "propagator.steps_list entries must be >= 1"),
        ("audit", "[model]\nkind = constant\ndim = 1\n[audit]\ngrid_points = 17\n",
         "model.dim must be >= 2"),
        ("audit", "[model]\nK = 1\n[audit]\ngrid_points = 5\n", "audit.grid_points must be >= 8"),
        ("propagate", "[model]\nK = 1\n[time]\nsteps = 1\n", "time.steps must be >= 2"),
        ("audit", "[model]\nK = 1\nalpha = polynomial\nalpha_coeffs =\n[audit]\ngrid_points = 17\n",
         "model.alpha_coeffs needs at least one entry"),
        *[(command, "[model]\nK = 1\n[audit]\ngrid_points = 17\n[initial]\nmode = 5\n",
           "initial.mode must satisfy |mode| <= K = 1")
          for command in ("audit", "spectrum", "propagate", "converge")],
    ])
    def test_config_mistakes_exit_1_before_any_output(self, tmp_path, capsys, command, text,
                                                      message):
        # Each exited 2 as a numerical failure, crashed, or (a bad mode under
        # audit and spectrum) ran, before the rule moved into the schema.
        code, created = _cli(tmp_path, command, text)
        assert code == 1 and not created
        assert f"config error: {message}" in capsys.readouterr().err


#: ``(model keys, the profile they name)`` for every ``model.alpha`` name.
ALPHA_CASES = [
    ("alpha = sin\nalpha_amplitude = 2.0\nalpha_frequency = 3.0\nalpha_phase = 0.5\n"
     "alpha_offset = -1.0",
     alpha_profile("trigonometric", amplitude=2.0, frequency=3.0, phase=0.5, offset=-1.0)),
    ("alpha = trigonometric\nalpha_frequency = 2.0",
     alpha_profile("trigonometric", amplitude=1.0, frequency=2.0, phase=0.0, offset=0.0)),
    ("alpha = constant\nalpha_value = 2.5", alpha_profile("constant", value=2.5)),
    ("alpha = polynomial\nalpha_coeffs = 0.5,-1.0,0.3",
     alpha_profile("polynomial", coeffs=[0.5, -1.0, 0.3])),
    ("alpha = rough_c0\nalpha_amplitude = 0.7\nalpha_scale = 4.0",
     alpha_profile("rough_c0", amplitude=0.7, scale=4.0)),
    ("alpha = table\nalpha_times = 0,1,3\nalpha_values = 1,-1,2",
     alpha_profile("table", times=[0.0, 1.0, 3.0], values=[1.0, -1.0, 2.0])),
    # Without a center, the corner sits at T / 2.
    ("alpha = kink\nalpha_amplitude = 2.0\nalpha_offset = 0.5",
     alpha_profile("kink", center=1.5, amplitude=2.0, offset=0.5)),
    ("alpha = kink\nalpha_center = 0.25",
     alpha_profile("kink", center=0.25, amplitude=1.0, offset=0.0)),
]


class TestBuildModel:
    """``build_model`` turns each ``model.alpha`` name into its profile."""

    def test_every_alpha_name_is_covered(self):
        names = {keys.split("\n")[0].removeprefix("alpha = ") for keys, _ in ALPHA_CASES}
        assert names == set(config.ALPHA_NAMES)

    @pytest.mark.parametrize("keys, expected", ALPHA_CASES)
    def test_each_alpha_name_builds_its_profile(self, keys, expected):
        tdh = build_model(parse_config(f"[model]\nK = 2\nT = 3.0\n{keys}\n"))
        assert tdh.source.alpha == expected

    def test_coefficients_start_propagate(self, tmp_path):
        text = "[model]\nK = 1\n[time]\nsteps = 8\n[initial]\ncoefficients = 1,1j,0\n"
        code, _ = _cli(tmp_path, "propagate", text)
        assert code == 0
        columns = read_columns(tmp_path / "out" / "trajectory.csv")
        first = {header: float(cells[0]) for header, cells in columns.items()}
        expected = np.array([1.0, 1j, 0.0]) / math.sqrt(2.0)
        for label, value in zip(("k-1", "k+0", "k+1"), expected):
            assert first[f"re_{label}"] == pytest.approx(value.real, abs=1e-15)
            assert first[f"im_{label}"] == pytest.approx(value.imag, abs=1e-15)


class TestIoFailures:
    def test_out_below_a_regular_file_exits_3(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        path = tmp_path / "config.ini"
        path.write_text("[model]\nK = 1\n[audit]\ngrid_points = 9\n")
        assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "file" / "o")]) == 3
        assert "i/o failure" in capsys.readouterr().err

    def test_a_failed_replace_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            runs._write_atomic(str(tmp_path / "a.csv"), "x\n1\n")
        assert os.listdir(tmp_path) == []


class TestRunners:
    def test_audit_constant_model_c_is_one(self, tmp_path):
        text = """
[model]
kind = circle_delta
K = 4
alpha = constant
alpha_value = 1.0
T = 1.0

[audit]
grid_points = 33
"""
        report, record = run_audit(parse_config(text), str(tmp_path))
        summary = json.loads((tmp_path / "audit_summary.json").read_text())
        assert summary["s1_constant"] == pytest.approx(1.0, abs=1e-12)
        assert summary["s2_bound"] == 0.0
        assert all(v["pass"] for v in summary["verdicts"].values())
        run_record = json.loads((tmp_path / "run_record.json").read_text())
        # a constant family: every pair difference is zero, so no pair is eigensolved;
        # H(t0), then H and dH/dt at 33 times; 2 for the reference scale, 5 x 33
        # per-time, 32 neighbour differences and 3 reference norms; one block of
        # 33 times and no Rayleigh check, so one thread
        assert run_record["counters"] == {
            "k2_pairs": 33 * 32 // 2,
            "k2_exact_pairs": 0,
            "h_slices": 1 + 2 * 33,
            "eigensolved_mats": 2 + 5 * 33 + 32 + 3,
            "threads": 1,
        }
        assert "counters" not in summary
        for name in record.outputs:
            assert (tmp_path / name).exists()
        plot_rows = (tmp_path / "plotdata.csv").read_text().strip().splitlines()[1:]
        assert len({r.split(",")[0] for r in plot_rows}) >= 4

    def test_audit_rough_profile_s_passes_k_fails(self, tmp_path):
        text = """
[model]
kind = circle_delta
K = 4
alpha = rough_c0
alpha_amplitude = 1.0
alpha_scale = 1.0
T = 6.283185307179586

[audit]
grid_points = 129
"""
        run_audit(parse_config(text), str(tmp_path))
        summary = json.loads((tmp_path / "audit_summary.json").read_text())
        assert summary["verdicts"]["S2"]["pass"]
        assert not summary["verdicts"]["K2"]["pass"]

    def test_summary_flags_are_json_booleans(self, tmp_path):
        # bool is a subclass of int: through the integer branch they read back as 1 and 0.
        assert json.dumps(runs._jsonable([True, np.bool_(False), 1, np.int64(0)])) \
            == "[true, false, 1, 0]"
        text = MINIMAL + "\n[audit]\ngrid_points = 33\nrayleigh_samples = 50\n"
        run_audit(parse_config(text), str(tmp_path))
        summary = json.loads((tmp_path / "audit_summary.json").read_text())
        assert summary["rayleigh_within_bound"] is True
        flags = [v["pass"] for v in summary["verdicts"].values()]
        assert flags and all(type(flag) is bool for flag in flags), flags

    def test_propagation_free_mode_phase_and_norm(self, tmp_path):
        text = """
[model]
kind = circle_delta
K = 2
alpha = constant
alpha_value = 0.0
T = 6.283185307179586

[time]
steps = 128

[initial]
mode = 1
"""
        report, record = run_propagation(parse_config(text), str(tmp_path))
        rows = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
        header = rows[0].split(",")
        i_norm = header.index("norm_H")
        i_re = header.index("re_k+1")
        i_im = header.index("im_k+1")
        times, res, ims, norms = [], [], [], []
        for line in rows[1:]:
            cells = line.split(",")
            times.append(float(cells[0]))
            res.append(float(cells[i_re]))
            ims.append(float(cells[i_im]))
            norms.append(float(cells[i_norm]))
        norms = np.asarray(norms)
        assert np.max(np.abs(norms - 1.0)) < 1e-12
        phases = np.asarray(res) + 1j * np.asarray(ims)
        expected = np.exp(-1j * np.asarray(times))
        assert np.max(np.abs(phases - expected)) < 1e-10
        summary = json.loads((tmp_path / "residuals.json").read_text())
        assert summary["norm_drift"] < 1e-10

    def test_convergence_errors_strictly_decreasing(self, tmp_path):
        text = """
[model]
kind = circle_delta
K = 1
alpha = sin
alpha_amplitude = 5.0
T = 6.283185307179586

[time]
steps = 256

[propagator]
n_list = 4,8,16
steps_list = 32,64,128

[initial]
mode = 0
"""
        run_convergence(parse_config(text), str(tmp_path))
        rows = (tmp_path / "convergence.csv").read_text().strip().splitlines()[1:]
        errs = [float(r.split(",")[1]) for r in rows]
        assert all(a > b for a, b in zip(errs, errs[1:]))

        rows = (tmp_path / "convergence_steps.csv").read_text().strip().splitlines()[1:]
        ratios = [float(r.split(",")[3]) for r in rows[1:]]
        # second-order scheme: halving the step quarters the error
        assert ratios[-1] == pytest.approx(4.0, rel=0.4)

    def test_convergence_requires_a_sweep(self, tmp_path):
        text = "[propagator]\nn_list =\nsteps_list =\n"
        with pytest.raises(ConfigError):
            run_convergence(parse_config(text), str(tmp_path))

    def test_failed_run_writes_no_data_artifact(self, tmp_path, monkeypatch):
        # The Yosida sweep succeeds; the K = 16 order-4 Dyson step sweep after
        # it diverges, and must not leave the sweep's convergence.csv behind.
        text = (CONFIGS / "propagate_circle.ini").read_text().replace(
            "method = magnus2", "method = dyson\norder = 4\nn_list = 2,4\nsteps_list = 16,32")
        studies = []

        def study(*args, **kwargs):
            studies.append(yosida_convergence_study(*args, **kwargs))
            return studies[-1]

        monkeypatch.setattr(runs, "yosida_convergence_study", study)
        with pytest.raises(NumericalError, match="not finite at t = "):
            run_convergence(parse_config(text), str(tmp_path / "out"))
        assert len(studies) == 1  # the Yosida sweep completed before the failure
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("runner", [run_audit, run_propagation, run_spectrum])
    @pytest.mark.parametrize("grid_refine", [-1, 0.5])
    def test_grid_refine_must_be_a_count(self, tmp_path, runner, grid_refine):
        # Unchecked, 2**-1 halved the grid and 2**0.5 gave a fractional point count.
        with pytest.raises(ArgumentError, match="grid_refine"):
            runner(parse_config(MINIMAL), str(tmp_path / "out"), grid_refine=grid_refine)
        assert not (tmp_path / "out").exists()


def read_columns(path):
    """``{header: [cell, ...]}`` of a CSV artifact, cells as text."""
    header, *rows = path.read_text().splitlines()
    return dict(zip(header.split(","), zip(*(row.split(",") for row in rows))))


def assert_same_floats(cells, expected):
    """The cells parse with ``float()`` to ``expected``, bit for bit."""
    parsed = np.array([float(cell) for cell in cells])
    expected = np.asarray(expected, dtype=float)
    assert parsed.shape == expected.shape
    assert np.array_equal(parsed.view(np.uint64), expected.view(np.uint64))


class TestWriteCsv:
    def test_golden_text(self, tmp_path):
        path = tmp_path / "golden.csv"
        write_csv(str(path), {
            "i": np.array([0, -7, 2**40, 3, 42, 2**63 - 1, 1]),
            "s": ["a", "b:c", "", "x y", "-", "level_000", "z"],
            "x": np.array([-0.0, 5e-324, 1e100, np.nan, np.inf, -np.inf, 0.1]),
        })
        assert path.read_bytes() == (
            b"i,s,x\n"
            b"0,a,-0.0000000000000000e+00\n"
            b"-7,b:c,4.9406564584124654e-324\n"
            b"1099511627776,,1.0000000000000000e+100\n"
            b"3,x y,nan\n"
            b"42,-,inf\n"
            b"9223372036854775807,level_000,-inf\n"
            b"1,z,1.0000000000000001e-01\n"
        )

    def test_ragged_column_is_refused_by_name(self, tmp_path):
        path = tmp_path / "ragged.csv"
        with pytest.raises(ArgumentError, match="'err_H'"):
            write_csv(str(path), {"n": np.arange(3), "err_H": np.zeros(2), "ratio": np.zeros(3)})
        assert not path.exists()

    def test_complex_column_is_refused(self, tmp_path):
        with pytest.raises(ArgumentError, match="'psi'.*complex128"):
            write_csv(str(tmp_path / "c.csv"), {"t": np.zeros(2), "psi": np.ones(2, complex)})


class TestArtifactRoundTrip:
    """Every data column of a CSV artifact parses back to the library's array."""

    TEXT = """
[model]
kind = circle_delta
K = 2
alpha = sin
alpha_amplitude = 3.0
T = 6.283185307179586

[audit]
grid_points = 33

[time]
steps = 64

[propagator]
n_list = 2,4,8
steps_list =
"""

    def test_audit_csv(self, tmp_path):
        cfg = parse_config(self.TEXT)
        run_audit(cfg, str(tmp_path))
        columns = read_columns(tmp_path / "audit.csv")
        grid = uniform_grid(0.0, cfg.model.T, cfg.audit.grid_points)
        per_t = bridge_check(build_model(cfg), grid, t0=cfg.audit.t0, k2_order=cfg.audit.k2_order,
                             slope_min=cfg.audit.k2_slope_min).per_t
        expected = {"t": grid, "lambda_min": per_t["lambda_min"],
                    "lambda_max_pencil": per_t["pencil_max"],
                    "lambda_min_pencil": per_t["pencil_min"], "S2_local": per_t["s2_local"],
                    "K2_omega_at_t": per_t["k2_local"]}
        assert list(columns) == list(expected)
        for header, values in expected.items():
            assert_same_floats(columns[header], values)

    def test_spectrum_csv(self, tmp_path):
        cfg = parse_config(self.TEXT)
        run_spectrum(cfg, str(tmp_path))
        columns = read_columns(tmp_path / "spectrum.csv")
        grid = uniform_grid(0.0, cfg.model.T, cfg.audit.grid_points)
        evals = spectrum(build_model(cfg), grid)
        assert list(columns) == ["t", "index", "eigenvalue"]
        # Rows are t-major, index-minor.
        assert_same_floats(columns["t"], np.repeat(grid, evals.shape[1]))
        assert [int(cell) for cell in columns["index"]] == list(range(evals.shape[1])) * grid.size
        assert_same_floats(columns["eigenvalue"], evals.ravel())

    def test_convergence_csv(self, tmp_path):
        cfg = parse_config(self.TEXT)
        run_convergence(cfg, str(tmp_path))
        columns = read_columns(tmp_path / "convergence.csv")
        tdh = build_model(cfg)
        study = yosida_convergence_study(tdh, [2, 4, 8], initial_state(cfg, tdh), 0.0,
                                         cfg.model.T, substeps=cfg.time.steps)
        assert list(columns) == ["n", "err_H", "err_plus", "ratio"]
        assert [int(cell) for cell in columns["n"]] == [2, 4, 8]
        assert_same_floats(columns["err_H"], study.err_h)
        assert_same_floats(columns["err_plus"], study.err_plus)
        assert_same_floats(columns["ratio"], np.append(np.nan, study.ratios))


class TestEmitPlotdata:
    def test_single_record_has_series(self, tmp_path):
        path = tmp_path / "plot.csv"
        xs = np.arange(3.0)
        emit_plotdata([("abc", {"s1": (xs, xs), "s2": (xs, 2 * xs)})], str(path))
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "series,x,y"
        assert len(rows) == 7
        assert rows[1].startswith("abc:s1,")

    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "plot.csv"
        emit_plotdata([], str(path))
        assert path.read_text() == "series,x,y\n"

    def test_ragged_series_is_refused_by_name(self, tmp_path):
        # Writing only the rows both have would misalign every later series.
        path = tmp_path / "plot.csv"
        with pytest.raises(ArgumentError, match="a:s has 3 x values and 2 y values"):
            emit_plotdata([("a", {"s": (np.arange(3.0), np.arange(2.0))})], str(path))
        assert not path.exists()

    def test_integer_series_are_written_as_floats(self, tmp_path):
        path = tmp_path / "plot.csv"
        emit_plotdata([("a", {"s": (np.arange(2), np.arange(2))})], str(path))
        assert path.read_text().splitlines()[1:] == [
            "a:s,0.0000000000000000e+00,0.0000000000000000e+00",
            "a:s,1.0000000000000000e+00,1.0000000000000000e+00",
        ]

    def test_merged_records_no_collisions(self, tmp_path):
        path = tmp_path / "plot.csv"
        xs = np.arange(2.0)
        emit_plotdata(
            [("aaa", {"s": (xs, xs)}), ("bbb", {"s": (xs, xs)})], str(path)
        )
        rows = path.read_text().strip().splitlines()[1:]
        names = {r.split(",")[0] for r in rows}
        assert names == {"aaa:s", "bbb:s"}


class TestCli:
    def _write(self, tmp_path, text):
        path = tmp_path / "config.ini"
        path.write_text(text)
        return str(path)

    def test_audit_roundtrip(self, tmp_path, capsys):
        cfg = self._write(
            tmp_path,
            "[model]\nkind = circle_delta\nK = 2\nalpha = sin\nT = 6.283185307179586\n"
            "\n[audit]\ngrid_points = 33\n",
        )
        out = tmp_path / "out"
        assert main(["audit", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "audit.csv").exists()
        assert "audit done" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "[time]\nsteps = -3\n")
        assert main(["audit", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "time.steps must be positive" in capsys.readouterr().err

    def test_non_finite_phase_is_a_config_error(self, tmp_path, capsys):
        # Parsed as a float, nan reached the eigensolver and exited 2 with
        # "Eigenvalues did not converge".
        text = (CONFIGS / "converge_circle.ini").read_text().replace(
            "alpha_amplitude = 5.0", "alpha_amplitude = 5.0\nalpha_phase = nan")
        cfg = self._write(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["converge", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "model.alpha_phase: cannot parse 'nan' (not a finite number)" in \
            capsys.readouterr().err

    def test_missing_config_is_io_error(self, tmp_path):
        assert (
            main(["audit", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path)])
            == 3
        )

    def test_grid_refine_multiplies_grid(self, tmp_path):
        cfg = self._write(
            tmp_path,
            "[model]\nkind = circle_delta\nK = 1\nalpha = sin\nT = 6.283185307179586\n"
            "\n[audit]\ngrid_points = 17\n",
        )
        out = tmp_path / "out"
        assert main(["audit", "--config", cfg, "--out", str(out), "--grid-refine", "1"]) == 0
        rows = (out / "audit.csv").read_text().strip().splitlines()
        assert len(rows) - 1 == 33

    @pytest.mark.parametrize("command", ["audit", "spectrum", "propagate"])
    @pytest.mark.parametrize("mistake, flag", [
        (["--out", "OUT", "--grid-refine", "-9"], "argument --grid-refine"),
        (["--out", "OUT", "--grid-refine", "-1"], "argument --grid-refine"),
        (["--out", "OUT", "--grid-refine", "x"], "argument --grid-refine"),
        ([], "required: --out"),
    ], ids=["refine-9", "refine-1", "refine-x", "no-out"])
    def test_argument_mistakes_exit_1_naming_the_flag(self, tmp_path, capsys, command,
                                                      mistake, flag):
        # argparse's own code is 2, formevol's numerical failure; a negative
        # refinement used to run on a fractional grid.
        cfg = self._write(tmp_path, "[model]\nK = 1\n[audit]\ngrid_points = 17\n")
        out = tmp_path / "out"
        argv = [command, "--config", cfg, *(str(out) if a == "OUT" else a for a in mistake)]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_artifacts(self, tmp_path):
        cfg = self._write(
            tmp_path,
            "[model]\nkind = circle_delta\nK = 2\nalpha = sin\nT = 6.283185307179586\n"
            "\n[audit]\ngrid_points = 33\nrayleigh_samples = 500\nseed = 3\n",
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["audit", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["audit", "--config", cfg, "--out", str(out_b)]) == 0
        for name in os.listdir(out_a):
            if name == "run_record.json":  # the one artifact carrying timing
                continue
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_audit_pinned_to_one_cpu_writes_the_same_bytes(self, tmp_path, cpus):
        # The child pins itself to one CPU before formevol loads, so its block
        # maps run inline; this process runs them on two threads.
        config_path = str(CONFIGS / "audit_circle.ini")
        pinned, threaded = tmp_path / "pinned", tmp_path / "threaded"
        script = ("import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
                  "from formevol.cli import main; sys.exit(main(sys.argv[1:]))")
        src = str(Path(formevol.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, "-c", script, "audit", "--config", config_path,
                        "--out", str(pinned)], env=env, check=True, capture_output=True)
        cpus(2)
        assert main(["audit", "--config", config_path, "--out", str(threaded)]) == 0
        for out, threads in ((pinned, 1), (threaded, 2)):
            record = json.loads((out / "run_record.json").read_text())
            assert record["counters"]["threads"] == threads
        names = sorted(os.listdir(pinned))
        assert names == sorted(os.listdir(threaded))
        for name in names:
            if name != "run_record.json":  # the one artifact carrying timing
                assert (pinned / name).read_bytes() == (threaded / name).read_bytes(), name

    def test_overflowing_yosida_map_is_a_named_numerical_error(self, tmp_path, capsys):
        # |H| reaches ~5e307 at K = 1, so (w - shift) * n overflows for n = 64.
        cfg = self._write(tmp_path, """
[model]
kind = circle_delta
K = 1
alpha = sin
alpha_amplitude = 1e308
T = 1.0

[time]
steps = 16

[propagator]
method = yosida
yosida_n = 64
""")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["propagate", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert "the Yosida map H_n with n = 64 overflows at t = " in err
        assert not (tmp_path / "o").exists()

    def test_diverged_dyson_expansion_is_a_named_numerical_error(self, tmp_path, capsys):
        # configs/propagate_circle.ini with method = dyson, order = 4, at 64
        # steps instead of 512: dt * |H| ~ 25, so the truncated series blows up.
        # Refused in ~0.1 s; the 512-step table is refused in ~3.6 s (one Xeon
        # core, OpenBLAS on one thread).
        text = (CONFIGS / "propagate_circle.ini").read_text()
        text = text.replace("steps = 512", "steps = 64")
        cfg = self._write(tmp_path, text.replace("method = magnus2", "method = dyson\norder = 4"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["propagate", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert "unitarity defect is not finite at t = " in err
        assert "truncated expansion diverged" in err and "raise substeps" in err

    STEP_SWEEP = """
[model]
kind = circle_delta
K = 1
alpha = sin
alpha_amplitude = 5.0
T = 6.283185307179586

[propagator]
{options}
n_list =
steps_list = 16,32

[initial]
mode = 0
"""

    @pytest.mark.parametrize(
        "options",
        [{"method": "yosida", "yosida_n": 8},
         {"method": "dyson", "order": 2, "yosida_n": 8}],
    )
    def test_step_sweep_propagates_the_regularized_family(self, tmp_path, options):
        text = self.STEP_SWEEP.format(options="\n".join(f"{k} = {v}" for k, v in options.items()))
        out = tmp_path / "out"
        assert main(["converge", "--config", self._write(tmp_path, text), "--out", str(out)]) == 0
        cfg = parse_config(text)
        tdh = build_model(cfg)
        psi0 = initial_state(cfg, tdh)

        def final(steps, **kw):
            return propagate(tdh, psi0, 0.0, cfg.model.T, substeps=steps, **kw).final

        rows = (out / "convergence_steps.csv").read_text().strip().splitlines()[1:]
        errs = [float(row.split(",")[1]) for row in rows]
        expected = [np.linalg.norm(final(N, **options) - final(128, **options)) for N in (16, 32)]
        assert errs == pytest.approx(expected, rel=0, abs=1e-13)

    def test_diverged_step_sweep_is_a_named_numerical_error(self, tmp_path, capsys):
        # The K = 16 model of configs/propagate_circle.ini, order-4 Dyson: the
        # 128-step reference has dt * |H| ~ 12.6, and its state overflows.
        text = (CONFIGS / "propagate_circle.ini").read_text()
        text = text.replace("method = magnus2", "method = dyson\norder = 4\nn_list =\nsteps_list = 16,32")
        cfg = self._write(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["converge", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert "not finite at t = " in err and "raise substeps" in err

    @pytest.mark.parametrize(
        "command, config, steps",
        # converge: (5 + 1) x 1,024 Yosida steps and 64 + 128 + 256 sweep steps; the
        # sweep's 4 x 256-step reference is the Yosida sweep's row 0, not propagated again.
        [("converge", "converge_circle.ini", 6592), ("propagate", "propagate_circle.ini", 512)],
    )
    def test_run_record_counts_propagation_steps(self, tmp_path, command, config, steps):
        out = tmp_path / "out"
        assert main([command, "--config", str(CONFIGS / config), "--out", str(out)]) == 0
        record = json.loads((out / "run_record.json").read_text())
        assert record["counters"]["propagation_steps"] == steps

    @pytest.mark.parametrize("refine, points, slices", [(0, 257, 549), (1, 513, 1061)])
    def test_run_record_counts_the_audit_pass(self, tmp_path, monkeypatch, refine, points,
                                              slices):
        stacked = TestConvergeWork.count_slices(monkeypatch)
        out = tmp_path / "out"
        args = ["audit", "--config", str(CONFIGS / "audit_circle.ini"), "--out", str(out)]
        assert main(args + ["--grid-refine", str(refine)]) == 0
        counters = json.loads((out / "run_record.json").read_text())["counters"]
        # H(t0), then H and dH/dt once at each grid time (the midpoint is one), and the
        # Rayleigh check's A(t0) and 33 grid times.
        assert counters["h_slices"] == sum(stacked) == 1 + 2 * points + 34 == slices
        # The reference scale's 2; two pencils, eigh(A) and two S2 norms a time;
        # the neighbour differences, 3 reference norms and the K2 pairs solved.
        solved = 2 + 5 * points + (points - 1) + 3 + counters["k2_exact_pairs"]
        assert counters["eigensolved_mats"] == solved
        if refine == 0:
            # One thread per usable CPU, at most one per slice of the 34-slice Rayleigh check.
            threads = min(len(os.sched_getaffinity(0)), 34)
            assert counters == {"h_slices": 549, "eigensolved_mats": 1560, "k2_pairs": 32896,
                                "k2_exact_pairs": 14, "threads": threads}

    ARITHMETIC = """
[model]
kind = {kind}
K = 1
dim = 3
alpha = sin
T = 1.0

[audit]
grid_points = 17
rayleigh_samples = 10

[time]
steps = 16

[propagator]
n_list = 4,8
steps_list = 4,8
"""

    @pytest.mark.parametrize("command", ["audit", "propagate", "converge", "spectrum"])
    @pytest.mark.parametrize(
        "kind, arithmetic",
        [("circle_delta", "float64"), ("commuting_diagonal", "float64"),
         ("rotating_frame", "complex128"), ("constant", "complex128")],
    )
    def test_run_record_names_the_arithmetic(self, tmp_path, command, kind, arithmetic):
        cfg = self._write(tmp_path, self.ARITHMETIC.format(kind=kind))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        record = json.loads((tmp_path / "out" / "run_record.json").read_text())
        assert record["arithmetic"] == arithmetic


class TestConvergeWork:
    """What a run propagates and eigensolves, and what its run record counts."""

    @staticmethod
    def spy_final_state(monkeypatch):
        """The ``substeps`` of each of the runners' calls to ``final_state``, in order."""
        calls = []

        def spy(*args, substeps, **kwargs):
            calls.append(substeps)
            return final_state(*args, substeps=substeps, **kwargs)

        monkeypatch.setattr(runs, "final_state", spy)
        return calls

    @staticmethod
    def count_solves(monkeypatch):
        """``(solved, built)``: the matrices each ``np.linalg`` eigensolve takes, and
        those of building the model, which the run record does not count."""
        solved, built = [], []
        for name in ("eigh", "eigvalsh"):
            def counted(M, *args, solver=getattr(np.linalg, name), **kwargs):
                solved.append(math.prod(np.shape(M)[:-2]))
                return solver(M, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)

        def build(cfg, build_model=runs.build_model):
            before = sum(solved)
            tdh = build_model(cfg)
            built.append(sum(solved) - before)
            return tdh

        monkeypatch.setattr(runs, "build_model", build)
        return solved, built

    @staticmethod
    def count_slices(monkeypatch):
        """The times of each ``TimeDependentHamiltonian.stack`` call after the model is
        built and before the run's files are written, the span the run record counts."""
        stacked, counting = [], []

        def stack(self, times, order=0, stack=TimeDependentHamiltonian.stack):
            if counting:
                stacked.append(np.size(times))
            return stack(self, times, order)

        def build(cfg, build_model=runs.build_model):
            tdh = build_model(cfg)
            counting.append(True)
            return tdh

        def finish(*args, finish=runs._finish):
            counting.clear()
            return finish(*args)

        monkeypatch.setattr(TimeDependentHamiltonian, "stack", stack)
        monkeypatch.setattr(runs, "build_model", build)
        monkeypatch.setattr(runs, "_finish", finish)
        return stacked

    @pytest.mark.parametrize("edits, own_reference", [
        ({}, False),  # the shipped config: 4 x 256 = 1,024 = time.steps
        ({"steps = 1024": "steps = 512"}, True),
        ({"steps_list": "method = magnus4\nsteps_list"}, True),
        ({"n_list = 4,8,16,32,64": "n_list ="}, True),
    ])
    def test_the_step_sweep_propagates_its_reference_off_the_shared_grid(
            self, tmp_path, monkeypatch, edits, own_reference):
        text = (CONFIGS / "converge_circle.ini").read_text()
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        path = tmp_path / "config.ini"
        path.write_text(text)
        calls = self.spy_final_state(monkeypatch)
        assert main(["converge", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert calls == [1024] * own_reference + [64, 128, 256]

    def test_the_shared_reference_gives_the_same_bytes(self, tmp_path):
        cfg = parse_config((CONFIGS / "converge_circle.ini").read_text())
        run_convergence(cfg, str(tmp_path / "out"))
        tdh = build_model(cfg)
        psi0 = initial_state(cfg, tdh)
        T, steps_list = cfg.model.T, cfg.propagator.steps_list
        ref = final_state(tdh, psi0, 0.0, T, substeps=4 * max(steps_list))
        finals = [final_state(tdh, psi0, 0.0, T, substeps=N) for N in steps_list]
        sweep = YosidaStudy.against(ref, steps_list, finals, tdh.scale_at(tdh.t_span[0]))
        write_csv(tmp_path / "expected.csv", sweep.columns("steps"))
        expected = (tmp_path / "expected.csv").read_bytes()
        assert (tmp_path / "out" / "convergence_steps.csv").read_bytes() == expected

    @pytest.mark.parametrize("command, config, expected", [
        # 1,024 Yosida steps, one eigensolve each for all runs, and 64 + 128 + 256
        # sweep steps; one scale, shared by both sweeps, of two eigensolves.
        ("converge", "converge_circle.ini", 1474),
        # 512 steps, 513 unitarity defects and the scale's two.
        ("propagate", "propagate_circle.ini", 1027),
    ])
    def test_run_record_counts_the_matrices_eigensolved(self, tmp_path, monkeypatch, command,
                                                        config, expected):
        solved, built = self.count_solves(monkeypatch)
        out = tmp_path / "out"
        assert main([command, "--config", str(CONFIGS / config), "--out", str(out)]) == 0
        counters = json.loads((out / "run_record.json").read_text())["counters"]
        assert counters["eigensolved_mats"] == sum(solved) - sum(built) == expected

    MODELS = {
        "circle": "kind = circle_delta\nK = 1\nalpha = sin\nalpha_amplitude = 2.0",
        "rotating_frame": "kind = rotating_frame\ndim = 3\nseed = 4",
    }

    @pytest.mark.parametrize("options", [
        "method = magnus2", "method = magnus4", "method = magnus2\nsubsteps = 3",
        "method = yosida\nyosida_n = 8", "method = dyson\norder = 2",
        "method = dyson\norder = 3\nyosida_n = 8", "method = dyson\norder = 4\nyosida_n = 8",
    ])
    @pytest.mark.parametrize("steps", [32, 128])
    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("command", ["converge", "propagate"])
    def test_eigensolve_counter_matches_the_solves(self, tmp_path, monkeypatch, command, model,
                                                   steps, options):
        # steps = 128 puts the step sweep's reference on the Yosida sweep's grid.
        text = (f"[model]\n{self.MODELS[model]}\nT = 1.0\n\n[time]\nsteps = {steps}\n\n"
                f"[propagator]\n{options}\nn_list = 4,8\nsteps_list = 16,32\n")
        path = tmp_path / "config.ini"
        path.write_text(text)
        solved, built = self.count_solves(monkeypatch)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
        counters = json.loads((out / "run_record.json").read_text())["counters"]
        assert counters["eigensolved_mats"] == sum(solved) - sum(built)

    @pytest.mark.parametrize("command, config, solves, slices", [
        # One symmetric block a grid time; the circle's spectrum stacks no H.
        ("spectrum", "audit_circle.ini", 257, 0),
        # 512 step midpoints, 512 residual midpoints and H(t0) of the scale.
        ("propagate", "propagate_circle.ini", 1027, 1025),
        # 1,024 Yosida and 64 + 128 + 256 sweep step midpoints, and H(t0) of the scale.
        ("converge", "converge_circle.ini", 1474, 1473),
    ])
    def test_every_subcommand_counts_slices_and_eigensolves(self, tmp_path, monkeypatch,
                                                             command, config, solves, slices):
        solved, built = self.count_solves(monkeypatch)
        stacked = self.count_slices(monkeypatch)
        out = tmp_path / "out"
        assert main([command, "--config", str(CONFIGS / config), "--out", str(out)]) == 0
        counters = json.loads((out / "run_record.json").read_text())["counters"]
        assert counters["eigensolved_mats"] == sum(solved) - sum(built) == solves
        assert counters["h_slices"] == sum(stacked) == slices

    @pytest.mark.parametrize("options", [
        "method = magnus2", "method = magnus4", "method = yosida\nyosida_n = 8",
        "method = dyson\norder = 2", "method = dyson\norder = 4\nyosida_n = 8",
    ])
    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("command", ["converge", "propagate", "spectrum"])
    def test_slice_counter_matches_the_stacks(self, tmp_path, monkeypatch, command, model,
                                              options):
        text = (f"[model]\n{self.MODELS[model]}\nT = 1.0\n\n[time]\nsteps = 32\n\n"
                f"[audit]\ngrid_points = 33\n\n"
                f"[propagator]\n{options}\nn_list = 4,8\nsteps_list = 16,32\n")
        path = tmp_path / "config.ini"
        path.write_text(text)
        stacked = self.count_slices(monkeypatch)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
        counters = json.loads((out / "run_record.json").read_text())["counters"]
        assert counters["h_slices"] == sum(stacked)
        assert sum(stacked) > 0 or (command, model) == ("spectrum", "circle")


class TestAffinePathArtifacts:
    """The array model forms change no artifact: every subcommand on a shipped
    config, and the rotating frame on a small config, writes the same bytes as
    with its model on the per-time path."""

    ROTATING = """
[model]
kind = rotating_frame
dim = 5
seed = 3
T = 1.0

[time]
steps = 64

[audit]
grid_points = 65
rayleigh_samples = 50
"""

    def assert_same_bytes(self, tmp_path, monkeypatch, args, family, arithmetic):
        args = args + ["--out"]
        assert main(args + [str(tmp_path / "array")]) == 0
        build = runs.build_model

        def build_generic(cfg):
            tdh = build(cfg)
            assert isinstance(tdh, family)
            return generic_twin(tdh)

        monkeypatch.setattr(runs, "build_model", build_generic)
        assert main(args + [str(tmp_path / "generic")]) == 0
        names = sorted(os.listdir(tmp_path / "array"))
        assert names == sorted(os.listdir(tmp_path / "generic"))
        for name in names:
            array, generic = (tmp_path / side / name for side in ("array", "generic"))
            if name == "run_record.json":  # the one artifact carrying timing
                records = [json.loads(path.read_text()) for path in (array, generic)]
                assert [r["arithmetic"] for r in records] == [arithmetic, arithmetic]
                continue
            assert array.read_bytes() == generic.read_bytes(), name

    @pytest.mark.parametrize(
        "command, config",
        [
            ("audit", "audit_circle.ini"),
            ("propagate", "propagate_circle.ini"),
            ("converge", "converge_circle.ini"),
            ("spectrum", "audit_circle.ini"),
        ],
    )
    def test_same_bytes_as_the_generic_path(self, tmp_path, monkeypatch, command, config):
        args = [command, "--config", str(CONFIGS / config)]
        self.assert_same_bytes(tmp_path, monkeypatch, args, AffineHamiltonian, "float64")

    @pytest.mark.parametrize("command", ["audit", "propagate"])
    def test_rotating_frame_same_bytes_as_the_per_time_path(self, tmp_path, monkeypatch, command):
        config = tmp_path / "rotating.ini"
        config.write_text(self.ROTATING)
        args = [command, "--config", str(config)]
        self.assert_same_bytes(tmp_path, monkeypatch, args, TimeDependentHamiltonian, "complex128")


class TestArrayContract:
    """No built-in family evaluates ``H`` one time at a time: with the per-time
    adapter refusing, every order of each family stacks and an audit runs."""

    PROFILES = [
        alpha_profile("constant", value=0.5),
        alpha_profile("polynomial", coeffs=[0.5, -1.0, 0.3]),
        alpha_profile("trigonometric", amplitude=-1.7, frequency=2.0, phase=0.4),
        alpha_profile("kink", center=0.5, amplitude=-1.5, offset=0.2),
        alpha_profile("rough_c0", amplitude=2.0, scale=1.0),
        alpha_profile("table", times=[0.0, 0.5, 1.0], values=[0.0, 1.5, -0.5]),
    ]

    def test_built_in_families_never_reach_the_per_time_adapter(self, tmp_path, monkeypatch):
        def refuse(fn, order, dim):
            raise AssertionError("the per-time adapter was reached")

        monkeypatch.setattr(models, "_per_time", refuse)
        with pytest.raises(AssertionError, match="per-time adapter"):
            TimeDependentHamiltonian(2, lambda t: np.eye(2), (0.0, 1.0), 0.0)
        assert sorted(p.kind for p in self.PROFILES) == sorted(models.ALPHA_KINDS)
        families = [circle_delta_model(2, profile, 1.0) for profile in self.PROFILES]
        families += [synthetic_family(kind, 3, 1.0)
                     for kind in ("constant", "commuting_diagonal", "rotating_frame")]
        families.append(yosida_hamiltonian(families[2], 8))
        grid = np.linspace(0.0, 1.0, 9)
        for tdh in families:
            for order in range(3):
                stack = tdh.stack(grid, order)
                assert stack is None or stack.shape == (grid.size, tdh.dim, tdh.dim)
        args = ["audit", "--config", str(CONFIGS / "audit_circle.ini")]
        assert main(args + ["--out", str(tmp_path)]) == 0
