"""The benchmark's tracer still finds every formevol function it wraps.

``perfbench/tracing.py`` looks each traced name up with ``vars(owner)[attr]``,
so a refactor that deletes or renames one breaks every traced benchmark run
with a ``KeyError``.  The tracer is loaded from its file, unchanged.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).parents[1]


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _load_tracing()
FORMEVOL_TARGETS = [(module, path) for module, path, _, _ in TRACING.TARGETS
                    if module.startswith("formevol.")]


def test_formevol_is_traced():
    assert len(FORMEVOL_TARGETS) > 20


@pytest.mark.parametrize("module, path", FORMEVOL_TARGETS, ids=lambda v: v)
def test_target_resolves(module, path):
    owner, attr = TRACING._owner(module, path)
    assert callable(vars(owner)[attr])


def test_traced_dyson_propagate_records_a_dyson_span():
    """``propagators.dyson_s`` of a traced Dyson ``propagate`` reads a real span."""
    from formevol import AlphaProfile, circle_delta_model, propagators

    tdh = circle_delta_model(1, AlphaProfile("trigonometric", {"amplitude": 1.0}), T=1.0)
    psi0 = np.zeros(tdh.dim)
    psi0[0] = 1.0
    tracer = TRACING.Tracer()
    with tracer.installed():
        propagators.propagate(tdh, psi0, 0.0, 1.0, method="dyson", order=2, substeps=8)
    assert TRACING.layer_metrics(tracer.spans)["propagators.dyson_s"] > 0
