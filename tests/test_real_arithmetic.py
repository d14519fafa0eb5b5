"""Real families run in real arithmetic and agree with the complex path.

A real affine family stacks float64, so its audits and propagations run
LAPACK's real symmetric drivers.  The same family presented through
complex-valued per-time callables runs the complex Hermitian ones; the two
must agree to roundoff, within 1e-12 of each quantity's largest entry.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formevol import (
    AffineHamiltonian,
    Semibound,
    TimeDependentHamiltonian,
    bridge_check,
    propagate,
    yosida_convergence_study,
)
from formevol import runs
from formevol.config import parse_config

from helpers import reference_rayleigh_max_ratio

RTOL = 1e-12


def random_real_family(seed, dim, terms):
    """``(real, complex_twin)``: ``H0 + sum_r a_r sin(w_r t + p_r) B_r`` on [0, 1]
    with random real symmetric ``H0`` and ``B_r``, as an affine family and as
    complex-valued per-time callables."""
    rng = np.random.default_rng(seed)

    def symmetric():
        M = rng.standard_normal((dim, dim))
        return 0.5 * (M + M.T)

    H0 = symmetric() + np.diag(np.arange(dim, dtype=float) ** 2)
    lowest = np.linalg.eigvalsh(H0)[0]
    coefficients, mats = [], []
    for _ in range(terms):
        a, w, p = rng.uniform(0.2, 2.0), rng.uniform(0.5, 3.0), rng.uniform(-3.0, 3.0)
        coefficients.append((lambda t, a=a, w=w, p=p: a * np.sin(w * t + p),
                             lambda t, a=a, w=w, p=p: a * w * np.cos(w * t + p),
                             lambda t, a=a, w=w, p=p: -a * w * w * np.sin(w * t + p)))
        mats.append(symmetric())
        lowest -= a * np.linalg.norm(mats[-1], 2)  # |f_r| <= a_r: a uniform semibound
    semibound = Semibound(max(0.0, -lowest))
    real = AffineHamiltonian(H0, list(zip(mats, coefficients)), (0.0, 1.0), semibound)

    def complex_slice(order):
        def fn(t):
            M = H0 if order == 0 else np.zeros_like(H0)
            for B, f in zip(mats, coefficients):
                M = M + f[order](t) * B
            return M.astype(complex)

        return fn

    twin = TimeDependentHamiltonian(
        dim, complex_slice(0), (0.0, 1.0), semibound,
        derivative_fn=complex_slice(1), second_derivative_fn=complex_slice(2),
    )
    return real, twin


def assert_agree(real, cplx):
    real, cplx = np.asarray(real), np.asarray(cplx)
    assert real.shape == cplx.shape
    assert np.max(np.abs(real - cplx), initial=0.0) <= RTOL * np.max(np.abs(real), initial=0.0)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=2),
)
def test_real_path_matches_complex_path(seed, dim, terms):
    real, twin = random_real_family(seed, dim, terms)
    grid = np.linspace(0.0, 1.0, 17)
    for order in range(3):
        assert real.stack(grid, order).dtype == np.float64
        assert twin.stack(grid, order).dtype == np.complex128

    R, C = bridge_check(real, grid), bridge_check(twin, grid)
    for name in ("s1_constant", "s1_operator_constant", "s1_constant_unit_shift", "s2_bound"):
        assert_agree(getattr(R, name), getattr(C, name))
    assert [d for d, _ in R.k2_modulus] == [d for d, _ in C.k2_modulus]
    assert_agree([w for _, w in R.k2_modulus], [w for _, w in C.k2_modulus])
    assert sorted(R.per_t) == sorted(C.per_t)
    for name in R.per_t:
        assert_agree(R.per_t[name], C.per_t[name])

    psi0 = np.ones(dim, dtype=complex) / math.sqrt(dim)
    for method in ("magnus2", "magnus4", "dyson"):
        finals = [propagate(tdh, psi0, 0.0, 1.0, method=method, substeps=32).final
                  for tdh in (real, twin)]
        assert_agree(*finals)

    studies = [yosida_convergence_study(tdh, [4, 8, 16], psi0, 0.0, 1.0, substeps=32)
               for tdh in (real, twin)]
    assert_agree(studies[0].err_h, studies[1].err_h)
    assert_agree(studies[0].err_plus, studies[1].err_plus)


AUDIT = """
[model]
kind = {kind}
dim = 5
T = 1.0

[audit]
grid_points = 65
rayleigh_samples = 2000
seed = {seed}
"""


def audit_summary(tmp_path, cfg, tdh, monkeypatch):
    """``audit_summary.json`` of ``run_audit`` on ``cfg`` with its model replaced by ``tdh``."""
    monkeypatch.setattr(runs, "build_model", lambda _: tdh)
    out = tmp_path / str(id(tdh))
    runs.run_audit(cfg, str(out))
    return json.loads((out / "audit_summary.json").read_text())


def rayleigh_samples(cfg, dim):
    rng = np.random.default_rng(cfg.audit.seed)
    shape = (cfg.audit.rayleigh_samples, dim)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rayleigh_check_in_real_arithmetic_matches_complex(tmp_path, monkeypatch, seed):
    cfg = parse_config(AUDIT.format(kind="constant", seed=seed))
    real, twin = random_real_family(seed, 5, 2)
    R, C = (audit_summary(tmp_path, cfg, tdh, monkeypatch) for tdh in (real, twin))
    assert_agree(R["rayleigh_max_ratio"], C["rayleigh_max_ratio"])
    assert R["rayleigh_within_bound"] == C["rayleigh_within_bound"]
    # and the real product agrees with the complex one on the real family itself
    grid = np.linspace(0.0, 1.0, 65)
    expected = reference_rayleigh_max_ratio(real, grid, 0.0, rayleigh_samples(cfg, 5))
    assert_agree(R["rayleigh_max_ratio"], expected)


@pytest.mark.parametrize("kind", ["rotating_frame", "constant"])
def test_complex_family_keeps_the_complex_rayleigh_product(tmp_path, monkeypatch, kind):
    cfg = parse_config(AUDIT.format(kind=kind, seed=4))
    tdh = runs.build_model(cfg)
    assert tdh.stack([0.0]).dtype == np.complex128
    summary = audit_summary(tmp_path, cfg, tdh, monkeypatch)
    grid = np.linspace(0.0, 1.0, 65)
    expected = reference_rayleigh_max_ratio(tdh, grid, 0.0, rayleigh_samples(cfg, tdh.dim))
    assert summary["rayleigh_max_ratio"] == expected  # bit for bit
    assert summary["rayleigh_within_bound"] == (
        expected <= summary["s1_operator_constant"] * (1.0 + 1e-12)
    )
