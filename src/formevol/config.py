"""Experiment configuration: a small sectioned key/value format.

Files use INI syntax (``[section]`` headers, ``key = value`` lines, ``#``
comments).  Every key is typed and validated, and every rule about values,
single-key or across keys, lives here: a config either parses or is refused
naming its key, before any model is built.  Unknown sections or keys are
hard errors, and validation collects *all* problems before reporting.
Parsing and serialization round-trip exactly, and serialization writes every
key including defaulted ones, so the effective config stored next to a run's
outputs fully describes it.

The grammar (sections, keys, types, defaults) is documented in the README
and encoded in :data:`SCHEMA` below.
"""

from __future__ import annotations

import cmath
import configparser
import hashlib
import io
import math
from dataclasses import dataclass, field, fields

from .errors import ConfigError

TWO_PI = 2.0 * math.pi


# -- typed values ------------------------------------------------------------


def _parse_float(s):
    value = float(s)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _parse_int(s):
    try:
        return int(s, 10)
    except ValueError:
        raise ValueError("not an integer") from None


def _parse_str(s):
    return s.strip()


def _parse_complex(s):
    value = complex(s)
    if not cmath.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _list_of(parse):
    """Parser of a comma-separated list of ``parse`` values; blank is empty."""
    def parse_list(s):
        s = s.strip()
        return tuple(parse(x) for x in s.split(",")) if s else ()

    return parse_list


def _optional(parse):
    """Parser of a ``parse`` value that may be left blank, giving ``None``."""
    def parse_optional(s):
        s = s.strip()
        return parse(s) if s else None

    return parse_optional


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, complex):
        return repr(value).strip("()")
    return str(value)


def _positive(name, least=None):
    """Refuses values <= 0 and, when ``least`` is given, values below it."""
    def check(v):
        if v is not None and not v > 0:
            return f"{name} must be positive"
        if v is not None and least is not None and v < least:
            return f"{name} must be >= {least}"
        return None

    return check


def _nonnegative(name):
    def check(v):
        if v is not None and v < 0:
            return f"{name} must be >= 0"
        return None

    return check


def _sweep(name):
    """Refuses a list with an entry below 1 or not strictly increasing."""
    def check(v):
        if any(n < 1 for n in v):
            return f"{name} entries must be >= 1"
        if any(b <= a for a, b in zip(v, v[1:])):
            return f"{name} must be strictly increasing"
        return None

    return check


def _choice(name, options):
    def check(v):
        if v not in options:
            allowed = ", ".join(str(o) for o in options)
            return f"{name} must be one of {allowed}; got {v!r}"
        return None

    return check


MODEL_KINDS = ("circle_delta", "constant", "commuting_diagonal", "rotating_frame")
ALPHA_NAMES = ("constant", "polynomial", "trigonometric", "sin", "kink", "rough_c0", "table")
METHODS = ("magnus2", "magnus4", "dyson", "yosida")

#: section -> key -> (parser, default, validator-or-None)
SCHEMA = {
    "model": {
        "kind": (_parse_str, "circle_delta", _choice("model.kind", MODEL_KINDS)),
        "K": (_parse_int, 8, _positive("model.K")),
        "T": (_parse_float, TWO_PI, _positive("model.T")),
        "alpha": (_parse_str, "sin", _choice("model.alpha", ALPHA_NAMES)),
        "alpha_amplitude": (_parse_float, 1.0, None),
        "alpha_frequency": (_parse_float, 1.0, None),
        "alpha_phase": (_parse_float, 0.0, None),
        "alpha_offset": (_parse_float, 0.0, None),
        "alpha_value": (_parse_float, 1.0, None),
        "alpha_center": (_optional(_parse_float), None, None),
        "alpha_scale": (_parse_float, 1.0, _positive("model.alpha_scale")),
        "alpha_coeffs": (_list_of(_parse_float), (1.0,), None),
        "alpha_times": (_list_of(_parse_float), (), None),
        "alpha_values": (_list_of(_parse_float), (), None),
        "dim": (_parse_int, 4, _positive("model.dim", least=2)),
        "seed": (_parse_int, 0, _nonnegative("model.seed")),
    },
    "time": {
        "start": (_parse_float, 0.0, None),
        "stop": (_optional(_parse_float), None, None),
        "steps": (_parse_int, 512, _positive("time.steps", least=2)),
    },
    "propagator": {
        "method": (_parse_str, "magnus2", _choice("propagator.method", METHODS)),
        "order": (_parse_int, 2, _choice("propagator.order", (1, 2, 3, 4))),
        "substeps": (_parse_int, 1, _positive("propagator.substeps")),
        "yosida_n": (_optional(_parse_int), None, _positive("propagator.yosida_n")),
        "n_list": (_list_of(_parse_int), (4, 8, 16, 32, 64), _sweep("propagator.n_list")),
        "steps_list": (_list_of(_parse_int), (), _sweep("propagator.steps_list")),
    },
    "audit": {
        "grid_points": (_parse_int, 257, _positive("audit.grid_points", least=8)),
        "t0": (_parse_float, 0.0, None),
        "k2_order": (_parse_int, 1, _choice("audit.k2_order", (0, 1, 2))),
        "k2_slope_min": (_parse_float, 0.9, None),
        "rayleigh_samples": (_parse_int, 0, _nonnegative("audit.rayleigh_samples")),
        "seed": (_parse_int, 0, _nonnegative("audit.seed")),
    },
    "initial": {
        "mode": (_parse_int, 0, None),
        "coefficients": (_list_of(_parse_complex), (), None),
    },
    "output": {
        "directory": (_parse_str, "", None),
        "formats": (_parse_str, "csv,json", None),
    },
}


@dataclass(frozen=True)
class SectionView:
    """Attribute access over one validated section."""

    name: str
    values: tuple  # ((key, value), ...) in schema order

    def __getattr__(self, key):
        for k, v in self.values:
            if k == key:
                return v
        raise AttributeError(f"{self.name} has no key {key!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    model: SectionView
    time: SectionView
    propagator: SectionView
    audit: SectionView
    initial: SectionView
    output: SectionView


def _cross_validate(sections, errors):
    model = dict(sections["model"].values)
    tim = dict(sections["time"].values)
    if tim["stop"] is not None and not tim["stop"] > tim["start"]:
        errors.append("time.stop must exceed time.start")
    if tim["start"] < 0.0:
        errors.append("time.start must be >= 0")
    if tim["stop"] is not None and tim["stop"] > model["T"] + 1e-12:
        errors.append("time.stop cannot exceed model.T")
    audit = dict(sections["audit"].values)
    if not 0.0 <= audit["t0"] <= model["T"]:
        errors.append("audit.t0 must lie in [0, model.T]")
    if model["alpha"] == "table":
        ts, vs = model["alpha_times"], model["alpha_values"]
        if len(ts) < 2 or len(ts) != len(vs):
            errors.append(
                "model.alpha_times and model.alpha_values must have equal length >= 2"
            )
        elif any(b <= a for a, b in zip(ts, ts[1:])):
            errors.append("model.alpha_times must be strictly increasing")
    if model["alpha"] == "polynomial" and not model["alpha_coeffs"]:
        errors.append("model.alpha_coeffs needs at least one entry when model.alpha = polynomial")
    prop = dict(sections["propagator"].values)
    if prop["method"] == "yosida" and prop["yosida_n"] is None:
        errors.append("propagator.yosida_n is required when propagator.method = yosida")
    if not prop["n_list"] and not prop["steps_list"]:
        errors.append("propagator.n_list and propagator.steps_list cannot both be empty")
    init = dict(sections["initial"].values)
    circle = model["kind"] == "circle_delta"
    dim = 2 * model["K"] + 1 if circle else model["dim"]
    if init["coefficients"]:
        if len(init["coefficients"]) != dim:
            errors.append(f"initial.coefficients must have length {dim}, "
                          f"got {len(init['coefficients'])}")
        elif not sum(c.real * c.real + c.imag * c.imag for c in init["coefficients"]) > 0:
            # Squared, as the norm initial_state divides by: entries below ~1e-162 vanish.
            errors.append("initial.coefficients must have a nonzero norm")
    elif circle and abs(init["mode"]) > model["K"]:
        errors.append(f"initial.mode must satisfy |mode| <= K = {model['K']}")
    elif not circle and not 0 <= init["mode"] < dim:
        errors.append(f"initial.mode must be in [0, {dim})")


def parse_config(text) -> ExperimentConfig:
    """Parse and validate configuration text; raises :class:`ConfigError`
    carrying every problem found."""
    cp = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#",), strict=True
    )
    cp.optionxform = str  # keys are case-sensitive (K vs k)
    errors = []
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"syntax error: {exc}"]) from exc

    for section in cp.sections():
        if section not in SCHEMA:
            errors.append(f"unknown section [{section}]")
            continue
        for key in cp[section]:
            if key not in SCHEMA[section]:
                errors.append(f"unknown key {section}.{key}")

    sections = {}
    for section, keys in SCHEMA.items():
        values = []
        for key, (parser, default, validator) in keys.items():
            if cp.has_option(section, key):
                raw = cp.get(section, key)
                try:
                    value = parser(raw)
                except ValueError as exc:
                    errors.append(
                        f"{section}.{key}: cannot parse {raw!r} ({exc})"
                    )
                    value = default
            else:
                value = default
            if validator is not None:
                problem = validator(value)
                if problem:
                    errors.append(problem)
            values.append((key, value))
        sections[section] = SectionView(section, tuple(values))

    if not errors:
        _cross_validate(sections, errors)
    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(**sections)


def default_config() -> ExperimentConfig:
    return parse_config("")


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text with every key written out (defaults included)."""
    buf = io.StringIO()
    for f in fields(cfg):
        section = getattr(cfg, f.name)
        buf.write(f"[{section.name}]\n")
        for key, value in section.values:
            buf.write(f"{key} = {_fmt(value)}\n")
        buf.write("\n")
    return buf.getvalue()


def config_hash(cfg: ExperimentConfig) -> str:
    """Stable short identifier of the effective configuration."""
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:12]
