"""Layer spans for formevol, recorded from outside the program.

``Tracer.installed()`` wraps the public functions of each module (and the
LAPACK eigensolvers they call) and rebinds every name that refers to them
inside the ``formevol`` package: ``hermitize``, for instance, is bound
separately in ``forms``, ``models``, ``scales``, ``regularity`` and
``propagators``.  Each call records a span ``[name, start, end, parent,
work, outer]`` in memory; ``outer`` is false when a span of the same name
is already open (a regularized ``H(t)`` evaluates the plain one), so
summed times never count a nested call twice.  Leaving the context restores
every binding.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np


def _matrices(args, result):
    """Matrices an eigensolver call solves: every slice of a batched stack."""
    return math.prod(np.shape(args[0])[:-2])


def _table_work(args, result):
    return (result.times.size - 1, result.matrices.nbytes)


#: (defining module, attribute path, span name, work recorder).
TARGETS = (
    ("formevol.config", "parse_config", "config.parse", None),
    ("formevol.models", "circle_delta_model", "models.build", None),
    ("formevol.models", "TimeDependentHamiltonian.__call__", "models.H", None),
    ("formevol.models", "TimeDependentHamiltonian.derivative", "models.deriv", None),
    ("formevol.models", "TimeDependentHamiltonian.second_derivative", "models.deriv", None),
    ("formevol.forms", "hermitize", "forms.hermitize", None),
    ("formevol.forms", "hermitian_spectral_norm", "forms.specnorm", None),
    ("formevol.scales", "build_scale", "scales.build", None),
    ("formevol.scales", "HilbertScale.norm_plus", "scales.norm", None),
    ("formevol.scales", "HilbertScale.norm_minus", "scales.norm", None),
    ("formevol.regularity", "s1_pencil_profile", "regularity.s1", None),
    ("formevol.regularity", "s2_profile", "regularity.s2", None),
    ("formevol.regularity", "check_K2", "regularity.k2", None),
    ("formevol.regularity", "bridge_check", "regularity.bridge", None),
    ("formevol.propagators", "build_table", "propagators.table", _table_work),
    ("formevol.propagators", "unitary_exp", "propagators.exp", None),
    ("formevol.propagators", "yosida_operator", "propagators.yosida", None),
    ("formevol.propagators", "dyson_propagator", "propagators.dyson", None),
    ("formevol.propagators", "weak_residual", "propagators.residual", None),
    ("formevol.propagators", "propagate", "propagators.propagate", None),
    ("formevol.propagators", "yosida_convergence_study", "propagators.yosida_study", None),
    ("formevol.runs", "write_csv", "runs.write", None),
    ("formevol.runs", "write_json", "runs.write", None),
    ("formevol.runs", "emit_plotdata", "runs.write", None),
    ("formevol.runs", "run_audit", "runs.run", None),
    ("formevol.runs", "run_propagation", "runs.run", None),
    ("formevol.runs", "run_convergence", "runs.run", None),
    ("numpy.linalg", "eigh", "linalg.eig", _matrices),
    ("numpy.linalg", "eigvalsh", "linalg.eig", _matrices),
    ("scipy.linalg", "eigh", "linalg.eig", _matrices),
)

#: Layers whose eigensolver work is reported separately.
EIG_LAYERS = ("models", "forms", "scales", "regularity", "propagators")


def _owner(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "formevol" or name.startswith("formevol."))]


def bindings():
    """Every place a traced function is bound: ``[(owner, attr, object)]``."""
    found = []
    modules = _package_modules()
    for module_name, path, _, _ in TARGETS:
        owner, attr = _owner(module_name, path)
        original = vars(owner)[attr]
        found.append((owner, attr, original))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original and (module, key) != (owner, attr):
                    found.append((module, key, original))
    return found


def describe_bindings():
    """``bindings()`` as comparable text: owner, name and the bound code."""
    def name_of(obj):
        return getattr(obj, "__name__", None) if isinstance(obj, type(sys)) else \
            f"{obj.__module__}.{obj.__qualname__}"

    described = []
    for owner, attr, obj in bindings():
        code = getattr(obj, "__code__", None)
        where = f"{code.co_filename}:{code.co_firstlineno}" if code else type(obj).__name__
        described.append([name_of(owner), attr, name_of(obj), where])
    return sorted(described)


class Tracer:
    """In-memory spans of one job."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._open = {}

    def wrap(self, name, fn, work=None):
        spans, stack, open_counts = self.spans, self._stack, self._open
        open_counts[name] = 0
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = open_counts[name]
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, depth == 0]
            stack.append(len(spans))
            spans.append(record)
            open_counts[name] = depth + 1
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                open_counts[name] = depth
                stack.pop()
            if work is not None:
                record[4] = work(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        wrappers = {}
        for module_name, path, name, work in TARGETS:
            owner, attr = _owner(module_name, path)
            original = vars(owner)[attr]
            wrappers[id(original)] = self.wrap(name, original, work)
        done = []
        try:
            for owner, attr, original in bindings():
                setattr(owner, attr, wrappers[id(original)])
                done.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(done):
                setattr(owner, attr, original)

    def write(self, path):
        """Spans as CSV ``name,start,end,parent`` (seconds, parent row or -1)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name,start,end,parent\n")
            for name, start, end, parent, _, _ in self.spans:
                handle.write(f"{name},{start!r},{end!r},{parent}\n")


def layer_metrics(spans) -> dict:
    """Per-layer counts and times of one job's spans.

    A span's self time is its duration minus the durations of its direct
    children; in single-threaded code children do not overlap, so this is
    the time the children do not cover.
    """
    durations = [end - start for _, start, end, _, _, _ in spans]
    covered = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            covered[span[3]] += durations[i]
    calls, total, self_time = Counter(), defaultdict(float), defaultdict(float)
    eig_mats, eig_s = Counter(), defaultdict(float)
    k2_eig_mats = steps = table_bytes = 0
    for i, (name, _, _, parent, work, outer) in enumerate(spans):
        calls[name] += 1
        if outer:
            total[name] += durations[i]
        self_time[name] += durations[i] - covered[i]
        if name == "linalg.eig":
            layer = spans[parent][0].split(".")[0] if parent >= 0 else "cli"
            eig_mats[layer] += work
            eig_s[layer] += durations[i]
            while parent >= 0:
                if spans[parent][0] == "regularity.k2":
                    k2_eig_mats += work
                    break
                parent = spans[parent][3]
        elif name == "propagators.table":
            steps += work[0]
            table_bytes = max(table_bytes, work[1])
    metrics = {
        "config.parse_s": total["config.parse"],
        "models.build_s": total["models.build"],
        "models.H_evals": calls["models.H"],
        "models.H_eval_s": total["models.H"],
        "models.deriv_evals": calls["models.deriv"],
        "forms.hermitize_calls": calls["forms.hermitize"],
        "forms.hermitize_s": total["forms.hermitize"],
        "forms.specnorm_calls": calls["forms.specnorm"],
        "forms.specnorm_s": total["forms.specnorm"],
        "scales.build_calls": calls["scales.build"],
        "scales.build_s": total["scales.build"],
        "scales.norm_calls": calls["scales.norm"],
        "scales.norm_s": total["scales.norm"],
        "regularity.s1_s": total["regularity.s1"],
        "regularity.s2_s": total["regularity.s2"],
        "regularity.k2_s": total["regularity.k2"],
        "regularity.k2_eig_mats": k2_eig_mats,
        "regularity.bridge_self_s": self_time["regularity.bridge"],
        "propagators.table_s": total["propagators.table"],
        "propagators.table_self_s": self_time["propagators.table"],
        "propagators.steps": steps,
        "propagators.exp_calls": calls["propagators.exp"],
        "propagators.exp_s": total["propagators.exp"],
        "propagators.yosida_calls": calls["propagators.yosida"],
        "propagators.yosida_s": total["propagators.yosida"],
        "propagators.dyson_s": total["propagators.dyson"],
        "propagators.residual_s": total["propagators.residual"],
        "propagators.table_mb": table_bytes / 1e6,
        "linalg.eig_calls": calls["linalg.eig"],
        "linalg.eig_mats": sum(eig_mats.values()),
        "linalg.eig_s": total["linalg.eig"],
        "runs.write_s": total["runs.write"],
        "runs.self_s": self_time["runs.run"],
    }
    for layer in EIG_LAYERS:
        metrics[f"linalg.eig_mats.{layer}"] = eig_mats[layer]
        metrics[f"linalg.eig_s.{layer}"] = eig_s[layer]
    return metrics
