"""Seeded workload definitions for the formevol benchmark.

Every workload is one CLI subcommand on one generated config.  The seed
draws only the phase of the interaction profile ``alpha(t) = amplitude *
sin(t + phase)`` and, for ``audit``, the Rayleigh-sample seed.  It never
changes K, grid sizes or step counts, so the work per job is fixed.

The models mirror the shipped configs: ``audit`` is
``configs/audit_circle.ini``, ``converge`` is ``configs/converge_circle.ini``,
``propagate_k64`` is ``configs/propagate_circle.ini`` at K = 64 with 256
steps, and ``dyson`` is the ``converge`` model propagated with the order-4
truncated Dyson expansion.  The sizes are written out here rather than read
from ``configs/`` so that editing a shipped config cannot change what the
benchmark measures.

``BENCHMARK.json`` gates ``audit`` and ``converge`` only; the other two stay
runnable and checked, and ``README.md`` says why they are not gated.

Dyson is run at K = 1, where ``dt * max|H| ~ 0.08``.  At K = 16 it diverges
even at order 2 with 2048 steps (unitarity defect ~7e80); that defect is
ROADMAP item 4b and is left out of the benchmark on purpose, because a
workload whose outputs overflow cannot be checked.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi

#: Workload name -> fixed parameters.  ``command`` is the CLI subcommand;
#: the remaining keys size the job.  Why each workload exists is recorded
#: in ``BENCHMARK.json`` and ``perfbench/README.md``.
WORKLOADS = {
    "audit": {"command": "audit", "K": 16, "amplitude": 1.0, "grid_points": 257,
              "k2_order": 1, "rayleigh_samples": 2000},
    "converge": {"command": "converge", "K": 1, "amplitude": 5.0, "steps": 1024,
                 "n_list": (4, 8, 16, 32, 64), "steps_list": (64, 128, 256)},
    "propagate_k64": {"command": "propagate", "K": 64, "amplitude": 1.0, "steps": 256,
                      "method": "magnus2", "order": 2},
    "dyson": {"command": "propagate", "K": 1, "amplitude": 5.0, "steps": 256,
              "method": "dyson", "order": 4},
}


def make_spec(workload, seed) -> dict:
    """Full parameter set of ``workload`` for ``seed``; same seed, same spec."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(WORKLOADS)}")
    rng = np.random.default_rng(seed)
    spec = {"workload": workload, "seed": int(seed), "T": TWO_PI,
            "phase": float(rng.uniform(0.0, TWO_PI))}
    spec.update(WORKLOADS[workload])
    if spec["command"] == "audit":
        spec["audit_seed"] = int(rng.integers(0, 2**31 - 1))
    return spec


def _ints(values):
    return ",".join(str(int(v)) for v in values)


def config_text(spec) -> str:
    """The INI config the CLI receives for ``spec``."""
    lines = [
        "[model]",
        "kind = circle_delta",
        f"K = {spec['K']}",
        "alpha = sin",
        f"alpha_amplitude = {spec['amplitude']!r}",
        f"alpha_phase = {spec['phase']!r}",
        f"T = {spec['T']!r}",
        "",
    ]
    command = spec["command"]
    if command == "audit":
        lines += [
            "[audit]",
            f"grid_points = {spec['grid_points']}",
            f"k2_order = {spec['k2_order']}",
            f"rayleigh_samples = {spec['rayleigh_samples']}",
            f"seed = {spec['audit_seed']}",
        ]
    elif command == "converge":
        lines += [
            "[time]",
            f"steps = {spec['steps']}",
            "",
            "[propagator]",
            f"n_list = {_ints(spec['n_list'])}",
            f"steps_list = {_ints(spec['steps_list'])}",
            "",
            "[initial]",
            "mode = 0",
        ]
    else:
        lines += [
            "[time]",
            f"steps = {spec['steps']}",
            "",
            "[propagator]",
            f"method = {spec['method']}",
            f"order = {spec['order']}",
            "",
            "[initial]",
            "mode = 0",
        ]
    return "\n".join(lines) + "\n"
