import math
import threading
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from formevol import (
    AffineHamiltonian,
    GridError,
    NotPositiveDefiniteError,
    NumericalError,
    Semibound,
    TimeDependentHamiltonian,
    alpha_profile,
    audit_grid,
    bridge_check,
    check_K2,
    check_S1,
    check_S2,
    circle_delta_model,
    differentiate_form,
    equivalence_constant,
    form_operator_norm,
    s1_pencil_profile,
    s2_profile,
    synthetic_family,
    uniform_grid,
)
from formevol.forms import tallying
from formevol.regularity import (
    S2_CONSISTENCY_TOL,
    _derivative_bounds,
    _fd_derivative,
    _grid_pass,
    _k2_moduli,
    _sandwich,
)

from helpers import (
    block_size,
    brute_force_k2_moduli,
    random_hermitian,
    reference_audit_profiles,
    reference_fd_derivative,
)

TWO_PI = 2.0 * math.pi


def constant_family(H, T=1.0):
    m = max(0.0, -float(np.linalg.eigvalsh(H)[0]))
    return TimeDependentHamiltonian(
        H.shape[0], lambda t: H, (0.0, T), Semibound(m),
        derivative_fn=lambda t: np.zeros_like(H),
        second_derivative_fn=lambda t: np.zeros_like(H),
    )


class TestCheckS1:
    def test_constant_family(self):
        rng = np.random.default_rng(0)
        tdh = constant_family(random_hermitian(rng, 4))
        assert check_S1(tdh, uniform_grid(0, 1, 9)) == pytest.approx(1.0, abs=1e-12)

    def test_scalar_linear_family(self):
        tdh = TimeDependentHamiltonian(
            2, lambda t: (1.0 + t) * np.eye(2, dtype=complex), (0.0, 1.0), 0.0
        )
        C = check_S1(tdh, uniform_grid(0, 1, 17))
        assert C == pytest.approx(math.sqrt(1.5), abs=1e-12)

    def test_matches_pairwise_equivalence_constant(self):
        prof = alpha_profile("trigonometric", amplitude=1.0)
        tdh = circle_delta_model(6, prof, TWO_PI)
        t = 2.0
        C = check_S1(tdh, np.array([0.0, t]), t0=0.0)
        c = equivalence_constant(tdh.scale_at(0.0), tdh.scale_at(t)).c
        assert abs(C - c) < 1e-10

    def test_monotone_under_refinement(self):
        prof = alpha_profile("trigonometric", amplitude=1.0)
        tdh = circle_delta_model(6, prof, TWO_PI)
        coarse = check_S1(tdh, uniform_grid(0, TWO_PI, 9))
        fine = check_S1(tdh, uniform_grid(0, TWO_PI, 17))
        finest = check_S1(tdh, uniform_grid(0, TWO_PI, 33))
        assert coarse <= fine + 1e-12 <= finest + 2e-12

    def test_shift_covariance(self):
        # Adding c I to H while lowering the claimed bound by c reproduces the
        # identical shifted operators, hence the identical constant.
        prof = alpha_profile("trigonometric", amplitude=2.0)
        base = circle_delta_model(4, prof, TWO_PI)
        m = base.semibound.m
        c = 0.25 * m
        shifted = TimeDependentHamiltonian(
            base.dim,
            lambda t: base(t) + c * np.eye(base.dim),
            base.t_span,
            Semibound(m - c),
        )
        grid = uniform_grid(0, TWO_PI, 17)
        assert abs(check_S1(base, grid) - check_S1(shifted, grid)) < 1e-10

    def test_constant_bounded_under_mode_refinement(self):
        # The boundary interaction is form-bounded relative to the kinetic
        # norm, so the comparability constant stays bounded as the mode
        # cutoff grows.
        prof = alpha_profile("trigonometric", amplitude=1.0)
        grid = uniform_grid(0, TWO_PI, 33)
        cs = []
        for K in (4, 8, 16, 32, 64):
            tdh = circle_delta_model(K, prof, TWO_PI)
            cs.append(check_S1(tdh, grid))
        cs = np.array(cs)
        assert cs.max() / cs.min() <= 2.0

    def test_rayleigh_sampling_never_exceeds_pencil_bound(self):
        rng = np.random.default_rng(44)
        prof = alpha_profile("trigonometric", amplitude=1.0)
        tdh = circle_delta_model(6, prof, TWO_PI)
        grid = uniform_grid(0, TWO_PI, 33)
        C = check_S1(tdh, grid)
        A0 = tdh.shifted(0.0)
        V = rng.standard_normal((2000, tdh.dim)) + 1j * rng.standard_normal((2000, tdh.dim))
        den = np.real(np.einsum("va,ab,vb->v", V.conj(), A0, V))
        for t in grid[::4]:
            num = np.real(np.einsum("va,ab,vb->v", V.conj(), tdh.shifted(t), V))
            ratios = num / den
            assert np.max(ratios) <= C**2 * (1 + 1e-12)
            assert np.min(ratios) >= (1 + 1e-12) / C**2 - 1e-12


class TestCheckS2:
    def test_constant_family(self):
        rng = np.random.default_rng(1)
        tdh = constant_family(random_hermitian(rng, 3))
        assert check_S2(tdh, uniform_grid(0, 1, 9)) == pytest.approx(0.0, abs=1e-14)

    def test_scalar_exponential(self):
        tdh = TimeDependentHamiltonian(
            1,
            lambda t: np.array([[math.exp(t)]], dtype=complex),
            (0.0, 1.0),
            0.0,
            derivative_fn=lambda t: np.array([[math.exp(t)]], dtype=complex),
        )
        bound = check_S2(tdh, uniform_grid(0, 1, 33))
        assert bound == pytest.approx(math.e / (math.e + 1.0), abs=1e-12)

    def test_dual_formulas_agree_on_circle_model(self):
        prof = alpha_profile("trigonometric", amplitude=1.0)
        tdh = circle_delta_model(8, prof, TWO_PI)
        direct, dual = s2_profile(tdh, uniform_grid(0, TWO_PI, 65))
        assert np.max(np.abs(direct - dual)) < 1e-10

    def test_finite_difference_fallback_matches_analytic(self):
        prof = alpha_profile("trigonometric", amplitude=1.0)
        analytic = circle_delta_model(6, prof, TWO_PI)
        blind = TimeDependentHamiltonian(
            analytic.dim, analytic, analytic.t_span, analytic.semibound
        )
        grid = uniform_grid(0, TWO_PI, 17)
        assert abs(check_S2(analytic, grid) - check_S2(blind, grid)) < 1e-8

    def test_monotone_under_refinement(self):
        prof = alpha_profile("trigonometric", amplitude=1.0, frequency=3.0)
        tdh = circle_delta_model(4, prof, TWO_PI)
        coarse = check_S2(tdh, uniform_grid(0, TWO_PI, 9))
        fine = check_S2(tdh, uniform_grid(0, TWO_PI, 17))
        assert coarse <= fine + 1e-12


class TestDifferentiateForm:
    def test_linear_family_exact(self):
        rng = np.random.default_rng(2)
        M = random_hermitian(rng, 4)
        tdh = TimeDependentHamiltonian(
            4, lambda t: t * M, (-1.0, 1.0), 10.0
        )
        D = differentiate_form(tdh, 0.0, h_step=1e-3)
        assert np.max(np.abs(D - M)) < 1e-12

    def test_sine_family_accuracy(self):
        rng = np.random.default_rng(3)
        M = random_hermitian(rng, 3)
        tdh = TimeDependentHamiltonian(3, lambda t: math.sin(t) * M, (-1.0, 1.0), 5.0)
        D = differentiate_form(tdh, 0.0, h_step=1e-3)
        assert np.max(np.abs(D - M)) < 1e-6 * np.max(np.abs(M))

    def test_fd_vs_analytic_in_operator_norm(self):
        prof = alpha_profile("trigonometric", amplitude=1.0)
        tdh = circle_delta_model(8, prof, TWO_PI)
        t = 2.0
        D_fd = differentiate_form(tdh, t)
        D_an = tdh.derivative(t)
        A0 = tdh.shifted(0.0)
        assert form_operator_norm(D_fd - D_an, A0) < 1e-8

    def test_step_underflow(self):
        tdh = constant_family(np.eye(2))
        with pytest.raises(GridError):
            differentiate_form(tdh, 0.5, h_step=1e-12)

    def test_stencil_must_stay_inside_span(self):
        tdh = constant_family(np.eye(2))
        with pytest.raises(GridError):
            differentiate_form(tdh, 0.0, h_step=1e-3)


class TestCheckK2:
    def test_constant_family_zero_moduli(self):
        rng = np.random.default_rng(4)
        tdh = constant_family(random_hermitian(rng, 3))
        for order in (0, 1, 2):
            moduli = check_K2(tdh, uniform_grid(0, 1, 17), order=order)
            assert all(w == 0.0 for _, w in moduli)

    def test_kink_plateau_matches_rank_one_jump(self):
        prof = alpha_profile("kink", center=math.pi, amplitude=1.0)
        tdh = circle_delta_model(6, prof, TWO_PI)
        grid = uniform_grid(0, TWO_PI, 129)
        moduli = check_K2(tdh, grid, order=1)
        plateau = moduli[-1][1]
        ones = np.ones((tdh.dim, tdh.dim))
        expected = 2.0 * form_operator_norm(ones, tdh.shifted(0.0)) / TWO_PI
        assert plateau == pytest.approx(expected, rel=1e-10)
        # moduli are taken over shrinking pair sets: non-increasing in delta
        omegas = [w for _, w in moduli]
        assert all(a >= b - 1e-15 for a, b in zip(omegas, omegas[1:]))

    def test_smooth_profile_lipschitz_fit_stable(self):
        prof = alpha_profile("trigonometric", amplitude=1.0)
        tdh = circle_delta_model(6, prof, TWO_PI)
        fits = []
        for points in (65, 129, 257):
            moduli = check_K2(tdh, uniform_grid(0, TWO_PI, points), order=1)
            delta, omega = moduli[-1]
            fits.append(omega / delta)
        fits = np.array(fits)
        assert fits.max() / fits.min() < 1.1
        # rank-one oracle: slope of cos is at most 1, realized through the
        # sandwiched all-ones matrix
        ones = np.ones((tdh.dim, tdh.dim))
        L = form_operator_norm(ones, tdh.shifted(0.0)) / TWO_PI
        assert fits[-1] == pytest.approx(L, rel=0.05)

    def test_needs_enough_points(self):
        tdh = constant_family(np.eye(2))
        with pytest.raises(GridError):
            check_K2(tdh, uniform_grid(0, 1, 5))


def assert_k2_matches_brute_force(tdh, grid, order=1):
    """Pruned moduli equal the all-pairs reference bit for bit; returns the counters."""
    W = _grid_pass(tdh, grid, k2_order=order)["W"]
    with tallying() as counters:
        moduli = _k2_moduli(W, grid)
    assert moduli == brute_force_k2_moduli(W, grid)
    assert check_K2(tdh, grid, order=order) == moduli
    assert counters["k2_pairs"] == grid.size * (grid.size - 1) // 2
    assert 0 <= counters["k2_exact_pairs"] <= counters["k2_pairs"]
    return counters


class TestK2BranchAndBound:
    def test_circle_shipped_grid_is_exact_and_pruned(self):
        prof = alpha_profile("trigonometric", amplitude=1.0)
        tdh = circle_delta_model(16, prof, TWO_PI)
        counters = assert_k2_matches_brute_force(tdh, uniform_grid(0, TWO_PI, 257))
        # rank-one differences: Frobenius equals spectral, so almost all pairs prune
        assert counters["k2_exact_pairs"] < counters["k2_pairs"] // 20

    def test_rotating_frame(self):
        tdh = synthetic_family("rotating_frame", 12, 1.0, {"seed": 3})
        assert_k2_matches_brute_force(tdh, uniform_grid(0, 1.0, 97))

    def test_commuting_diagonal_needs_no_eigensolve(self):
        tdh = synthetic_family("commuting_diagonal", 6, 1.0)
        counters = assert_k2_matches_brute_force(tdh, uniform_grid(0, 1.0, 65))
        assert counters["k2_exact_pairs"] == 0

    @pytest.mark.parametrize("kind", ["kink", "rough_c0"])
    def test_profiles_with_plateau(self, kind):
        params = {"center": math.pi} if kind == "kink" else {"scale": 1.0}
        prof = alpha_profile(kind, amplitude=1.0, **params)
        tdh = circle_delta_model(6, prof, TWO_PI)
        assert_k2_matches_brute_force(tdh, uniform_grid(0, TWO_PI, 129))

    def test_nonuniform_refined_grid(self):
        prof = alpha_profile("kink", center=math.pi, amplitude=1.0)
        tdh = circle_delta_model(4, prof, TWO_PI)
        grid = audit_grid(tdh, points=65, refine_near=(math.pi, 1.0))
        assert_k2_matches_brute_force(tdh, grid)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_every_order(self, order):
        prof = alpha_profile("trigonometric", amplitude=1.5, phase=0.3)
        tdh = circle_delta_model(6, prof, TWO_PI)
        assert_k2_matches_brute_force(tdh, uniform_grid(0, TWO_PI, 65), order=order)

    @settings(max_examples=15, deadline=None)
    @given(
        amplitude=st.floats(min_value=-3.0, max_value=3.0),
        phase=st.floats(min_value=0.0, max_value=TWO_PI),
    )
    def test_circle_profile_parameters(self, amplitude, phase):
        prof = alpha_profile("trigonometric", amplitude=amplitude, phase=phase)
        tdh = circle_delta_model(3, prof, TWO_PI)
        assert_k2_matches_brute_force(tdh, uniform_grid(0, TWO_PI, 33))

    @pytest.mark.parametrize("factor", [1e-300, 1e150])
    def test_norm_bounds_neither_underflow_nor_overflow(self, factor):
        prof = alpha_profile("trigonometric", amplitude=1.0)
        tdh = circle_delta_model(3, prof, TWO_PI)
        grid = uniform_grid(0, TWO_PI, 33)
        W = factor * _grid_pass(tdh, grid)["W"]
        assert _k2_moduli(W, grid) == brute_force_k2_moduli(W, grid)

    def test_rounding_margin_keeps_near_ties(self):
        # A rank-one difference has Frobenius norm equal to its spectral norm,
        # so the computed eigenvalue can exceed the computed Frobenius norm by
        # a few ulps.  The stack puts a slightly shrunk copy D' of D in the
        # finest band and D itself only in the coarsest, where its bound must
        # not be pruned against the running maximum |D'|.
        tdh = constant_family(np.eye(4))
        grid = uniform_grid(0, 1.0, 8)
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            for D in (np.outer(v, v.conj()), np.outer(v.real, v.real)):  # complex and real stacks
                for k in (1, 2, 3, 4):
                    W = np.stack([np.zeros_like(D)] + [D * (1.0 - k * 2.0**-53)] * 6 + [D])
                    assert _k2_moduli(W, grid) == brute_force_k2_moduli(W, grid)

    def test_stack_must_be_finite(self):
        grid = uniform_grid(0, 1.0, 9)
        stack = np.zeros((9, 2, 2))
        stack[4, 0, 0] = np.nan  # would otherwise be pruned without a trace
        with pytest.raises(NumericalError):
            _k2_moduli(stack, grid)

    def test_bridge_counts_and_keeps_counters_out_of_summary(self):
        prof = alpha_profile("trigonometric", amplitude=1.0)
        tdh = circle_delta_model(4, prof, TWO_PI)
        grid = uniform_grid(0, TWO_PI, 33)
        with tallying() as counters:
            report = bridge_check(tdh, grid)
        assert report.k2_modulus == check_K2(tdh, grid, t0=0.0)
        assert counters["k2_pairs"] == 33 * 32 // 2
        assert "counters" not in report.to_dict()

    @pytest.mark.parametrize("points", [32, 33])
    def test_bridge_reference_norm_at_the_midpoint(self, points):
        # dH/dt = c sin(pi t) peaks at the midpoint, a node only for odd grids.
        c = 100.0
        tdh = TimeDependentHamiltonian(
            2,
            lambda t: (1.0 + c * (1.0 - math.cos(math.pi * t)) / math.pi) * np.eye(2, dtype=complex),
            (0.0, 1.0),
            Semibound(0.0),
            derivative_fn=lambda t: c * math.sin(math.pi * t) * np.eye(2, dtype=complex),
        )
        report = bridge_check(tdh, uniform_grid(0, 1.0, points))
        zero_floor = 10.0 * np.finfo(float).eps * c / 2.0  # |A(0)^{-1/2} c A(0)^{-1/2}|
        assert report.verdicts["K2"]["zero_floor"] == pytest.approx(zero_floor, rel=1e-12)


class TestBridge:
    def test_constant_family_passes_everything(self):
        rng = np.random.default_rng(5)
        tdh = constant_family(random_hermitian(rng, 3))
        report = bridge_check(tdh, uniform_grid(0, 1, 17))
        assert report.s1_constant == pytest.approx(1.0, abs=1e-12)
        assert report.s2_bound == pytest.approx(0.0, abs=1e-14)
        assert all(v["pass"] for v in report.verdicts.values())

    def test_smooth_circle_model_passes(self):
        prof = alpha_profile("trigonometric", amplitude=1.0)
        tdh = circle_delta_model(8, prof, TWO_PI)
        report = bridge_check(tdh, uniform_grid(0, TWO_PI, 65))
        assert report.verdicts["K2"]["pass"]
        assert np.isfinite(report.s1_constant)
        assert np.isfinite(report.s2_bound)
        assert report.verdicts["bridge"]["pass"]
        assert report.s1_operator_constant == pytest.approx(report.s1_constant**2)

    def test_rough_profile_exhibits_asymmetry(self):
        prof = alpha_profile("rough_c0", amplitude=1.0, scale=1.0)
        tdh = circle_delta_model(6, prof, TWO_PI)
        report = bridge_check(tdh, uniform_grid(0, TWO_PI, 129))
        assert report.verdicts["S2"]["pass"]
        assert not report.verdicts["K2"]["pass"]
        assert report.verdicts["K2"]["plateau"] > 10 * report.verdicts["K2"]["zero_floor"]
        assert report.verdicts["bridge"]["pass"]  # implication untouched

    def test_per_time_diagnostics_shapes(self):
        prof = alpha_profile("trigonometric", amplitude=1.0)
        tdh = circle_delta_model(4, prof, TWO_PI)
        grid = uniform_grid(0, TWO_PI, 33)
        report = bridge_check(tdh, grid)
        for key in ("lambda_min", "pencil_min", "pencil_max", "s2_local", "k2_local"):
            assert report.per_t[key].shape == grid.shape


class TestGrids:
    def test_audit_grid_refines_near_flags(self):
        prof = alpha_profile("kink", center=math.pi, amplitude=1.0)
        tdh = circle_delta_model(2, prof, TWO_PI)
        base = audit_grid(tdh, points=33)
        refined = audit_grid(tdh, points=33, refine_near=(math.pi,))
        assert refined.size > base.size
        gaps = np.diff(refined)
        near = np.abs(refined[:-1] - math.pi) < 0.2
        assert gaps[near].min() < np.diff(base).min() / 8

    def test_rejects_disordered_grid(self):
        tdh = constant_family(np.eye(2))
        with pytest.raises(GridError):
            check_S1(tdh, np.array([0.0, 0.5, 0.4]))

    def test_rejects_grid_outside_span(self):
        tdh = constant_family(np.eye(2))
        with pytest.raises(GridError):
            check_S1(tdh, np.array([0.0, 2.0]))


def _circle(K, kind, T=TWO_PI, **params):
    return lambda: circle_delta_model(K, alpha_profile(kind, **params), T)


#: Audited families: (builder, K2 order, reference time).  Together they take
#: every derivative path: analytic, finite differences of H (table, order 1),
#: of the analytic first derivative (rough_c0, order 2), and none (order 0).
BATCHED_FAMILIES = {
    "circle_sin": (_circle(5, "trigonometric", amplitude=1.3, phase=0.2), 1, None),
    "kink": (_circle(4, "kink", center=math.pi), 1, None),
    "table": (
        _circle(3, "table", times=[0.0, 1.0, 2.5, TWO_PI], values=[0.0, 1.5, -0.5, 0.3]), 1, None
    ),
    "polynomial": (_circle(4, "polynomial", T=3.0, coeffs=[0.5, -1.0, 0.3, 0.05]), 2, None),
    "rough_c0": (_circle(4, "rough_c0", scale=1.0), 2, None),
    "rotating_frame": (lambda: synthetic_family("rotating_frame", 6, 1.0, {"seed": 2}), 0, 0.25),
    "commuting_diagonal": (lambda: synthetic_family("commuting_diagonal", 5, 1.0), 1, None),
}


class TestBatchedGrid:
    """Blocked, batched grid evaluation equals the per-point loops bit for bit."""

    @pytest.mark.parametrize("grid_kind", ["uniform_45", "uniform_70", "refined"])
    @pytest.mark.parametrize("family", sorted(BATCHED_FAMILIES))
    def test_profiles_match_per_point_reference(self, family, grid_kind, blocks_of_32):
        build, order, t0 = BATCHED_FAMILIES[family]
        tdh = build()
        blocks_of_32(tdh.dim)
        start, stop = tdh.t_span
        if grid_kind == "refined":
            # 33 uniform points plus 10 refinements: no multiple of the block size
            grid = audit_grid(tdh, points=33, refine_near=(start + 0.3 * (stop - start),))
            assert grid.size == 43
        else:
            grid = uniform_grid(start, stop, int(grid_kind.split("_")[1]))
        b = block_size(tdh.dim)
        assert b < grid.size and grid.size % b  # a partial block after a full one
        ref = reference_audit_profiles(tdh, grid, order, t0)
        report = bridge_check(tdh, grid, t0=t0, k2_order=order)
        keys = ("pencil_min", "pencil_max", "s2_local", "s2_local_alt", "lambda_min", "k2_local")
        for key in keys:
            assert np.array_equal(report.per_t[key], ref[key]), key
        lo_u, hi_u = ref["unit_shift_min"], ref["unit_shift_max"]
        assert report.s1_constant_unit_shift == float(np.sqrt(max(hi_u.max(), 1.0 / lo_u.min())))
        assert np.array_equal(_grid_pass(tdh, grid, report.t0, order)["W"], ref["W"])

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("family", sorted(BATCHED_FAMILIES))
    def test_library_audits_are_views_of_the_bridge_report(self, family, order):
        build, _, t0 = BATCHED_FAMILIES[family]
        tdh = build()
        grid = uniform_grid(*tdh.t_span, 45)
        report = bridge_check(tdh, grid, t0=t0, k2_order=order)
        lo, hi = s1_pencil_profile(tdh, grid, t0)
        assert np.array_equal(lo, report.per_t["pencil_min"])
        assert np.array_equal(hi, report.per_t["pencil_max"])
        assert check_S1(tdh, grid, t0) == report.s1_constant
        direct, dual = s2_profile(tdh, grid)
        if t0 is None:  # s2_profile's reference time is the start of the span
            assert np.array_equal(direct, report.per_t["s2_local"])
            assert np.array_equal(dual, report.per_t["s2_local_alt"])
            assert check_S2(tdh, grid) == report.s2_bound
        assert check_K2(tdh, grid, order=order, t0=t0) == report.k2_modulus

    def test_bridge_check_memory_stays_bounded(self):
        # Grid points are processed in blocks, so temporaries do not grow with
        # the grid; the peak is the K2 stack and its pair bookkeeping.
        tdh = circle_delta_model(16, alpha_profile("trigonometric", amplitude=1.0), TWO_PI)
        grid = uniform_grid(0, TWO_PI, 257)
        tracemalloc.start()
        try:
            bridge_check(tdh, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 11 * 2**20


class TestOnePass:
    """``bridge_check`` walks the grid once: one stack per block and derivative
    order, every quantity from what its block holds."""

    @staticmethod
    def count_stacks(tdh):
        """Record ``(times, order)`` of each ``tdh.stack`` call into the returned list."""
        calls = []
        stack = tdh.stack

        def counted(times, order=0):
            calls.append((np.array(times, dtype=float, ndmin=1), order))
            return stack(times, order)

        tdh.stack = counted
        return calls

    @pytest.mark.parametrize("points", [81, 80])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_each_grid_time_is_stacked_once_per_order(self, order, points, blocks_of_32):
        tdh = circle_delta_model(3, alpha_profile("trigonometric", amplitude=1.3, phase=0.2), TWO_PI)
        blocks_of_32(tdh.dim)
        grid = uniform_grid(0.0, TWO_PI, points)  # three blocks
        calls = self.count_stacks(tdh)
        with tallying() as counters:
            bridge_check(tdh, grid, t0=1.0, k2_order=order)

        evaluated = Counter((float(t), o) for times, o in calls for t in times)
        used = {0, 1, order}
        expected = Counter({(float(t), o): 1 for t in grid for o in used})
        expected[(1.0, 0)] += 1  # the reference time
        stacks = 1 + 3 * len(used)
        mid = 0.5 * TWO_PI
        if points % 2 == 0:  # the midpoint of the K2 reference norms is no grid time
            expected[(mid, order)] += 1
            stacks += 1
        assert evaluated == expected
        assert len(calls) == stacks
        assert counters["h_slices"] == sum(expected.values())

    @pytest.mark.parametrize("points", [81, 80])
    @pytest.mark.parametrize("family", ["circle_sin", "kink", "rotating_frame"])
    def test_counts_the_matrices_eigensolved(self, family, points, monkeypatch):
        build, order, t0 = BATCHED_FAMILIES[family]
        tdh = build()
        grid = uniform_grid(*tdh.t_span, points)
        solved = []
        for name in ("eigh", "eigvalsh"):
            def counted(M, *args, solver=getattr(np.linalg, name), **kwargs):
                solved.append(math.prod(np.shape(M)[:-2]))
                return solver(M, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        with tallying() as counters:
            bridge_check(tdh, grid, t0=t0, k2_order=order)
        assert counters["eigensolved_mats"] == sum(solved)

    @pytest.mark.parametrize("family", sorted(BATCHED_FAMILIES))
    def test_pencils_and_lambda_min_match_independent_references(self, family):
        # Generalized eigensolves against A(t0) and A(t0) + I, and eigvalsh of H.
        build, order, t0 = BATCHED_FAMILIES[family]
        tdh = build()
        grid = uniform_grid(*tdh.t_span, 45)
        report = bridge_check(tdh, grid, t0=t0, k2_order=order)
        A_ref = tdh.shifted(report.t0)
        A = tdh.shifted(grid)
        for key, reference in (("pencil", A_ref), ("unit_shift", A_ref + np.eye(tdh.dim))):
            w = np.stack([scipy.linalg.eigh(M, reference, eigvals_only=True) for M in A])
            lo, hi = w[:, 0], w[:, -1]
            if key == "pencil":
                for name, column in (("pencil_min", lo), ("pencil_max", hi)):
                    error = np.max(np.abs(report.per_t[name] - column))
                    assert error <= 1e-12 * np.max(np.abs(column)), name
                constant = report.s1_constant
            else:
                constant = report.s1_constant_unit_shift
            expected = math.sqrt(max(hi.max(), 1.0 / lo.min()))
            assert abs(constant - expected) <= 1e-12 * expected, key
        lowest = np.linalg.eigvalsh(tdh.stack(grid))[:, 0]
        bound = 32 * np.finfo(float).eps * max(np.linalg.norm(M, 2) for M in A)
        assert np.max(np.abs(report.per_t["lambda_min"] - lowest)) <= bound

    @pytest.mark.parametrize("t0", [-3.0, 50.0, math.nan])
    @pytest.mark.parametrize("audit", [s1_pencil_profile, check_S1, check_K2, bridge_check])
    def test_reference_time_must_lie_in_the_span(self, audit, t0):
        tdh = circle_delta_model(4, alpha_profile("trigonometric", amplitude=1.0), TWO_PI)
        message = rf"t0 = {t0} lies outside the span \[0.0, {TWO_PI}\]"
        with pytest.raises(GridError, match=message):
            audit(tdh, uniform_grid(0, TWO_PI, 33), t0=t0)


def failing_semibound_family():
    """``A(t) = (2 - 3t) I``: the claimed semibound 0 fails from ``t = 2/3`` on."""
    return TimeDependentHamiltonian(
        2,
        lambda t: (1.0 - 3.0 * t) * np.eye(2, dtype=complex),
        (0.0, 1.0),
        Semibound(0.0),
        derivative_fn=lambda t: -3.0 * np.eye(2, dtype=complex),
    )


def _zero_pattern_family():
    """No derivative offered; constant entries, exact zeros among them, whose
    one-sided differences cancel exactly."""
    def matrix(t):
        return np.array([[1.0, 0.0, 0.5j], [0.0, -2.0 - t * t, t], [-0.5j, t, 3.0]], dtype=complex)
    return TimeDependentHamiltonian(3, matrix, (0.0, 1.0), Semibound(4.0))


class TestFiniteDifferenceStack:
    """The batched finite differences equal the per-point ones bit for bit,
    signed zeros included, at the edges and inside."""

    @pytest.mark.parametrize("h", [1e-4, 0.05])
    @pytest.mark.parametrize(
        "family",
        [
            _zero_pattern_family,
            # Flat last segment: a one-sided difference at the right edge cancels.
            _circle(2, "table", T=1.0, times=[0.0, 0.4, 0.8, 1.0], values=[0.5, -1.0, 2.0, 2.0]),
        ],
        ids=["zero_pattern", "flat_table"],
    )
    def test_matches_per_point_reference(self, family, h):
        tdh = family()
        grid = np.concatenate([uniform_grid(0.0, 1.0, 11), [h / 2, 1.0 - h / 2, 1.5 * h]])
        expected = np.stack([reference_fd_derivative(tdh, t, h) for t in grid])
        assert _fd_derivative(tdh, grid, h).tobytes() == expected.tobytes()
        assert differentiate_form(tdh, 0.5, h_step=h).tobytes() == expected[5].tobytes()

    def test_names_the_first_time_without_a_stencil(self):
        tdh = _zero_pattern_family()
        # With h = 0.45 a stencil fits for t <= 0.1, 0.45 <= t <= 0.55 and t >= 0.9.
        with pytest.raises(GridError, match=r"stencil at t = 0.3$"):
            _fd_derivative(tdh, np.array([0.0, 0.5, 1.0, 0.3, 0.35]), 0.45)
        with pytest.raises(GridError, match=r"stencil at t = 0.3$"):
            reference_fd_derivative(tdh, 0.3, 0.45)


class TestEmptyStacks:
    def test_finite_differences_evaluate_only_the_slices_they_use(self):
        # No analytic derivative: every block's first derivative takes finite
        # differences, and most blocks have no edge times.
        tdh = circle_delta_model(
            2, alpha_profile("table", times=[0.0, 1.0, 2.5, TWO_PI], values=[0.0, 1.5, -0.5, 0.3]),
            TWO_PI)
        assert not tdh.has_derivative
        evaluated = []

        def wrapped(fn):
            return lambda times: (evaluated.append(len(times)), fn(times))[1]

        tdh._stacks = tuple(None if fn is None else wrapped(fn) for fn in tdh._stacks)
        with tallying() as counters:
            bridge_check(tdh, uniform_grid(0.0, TWO_PI, 257))
        assert sum(evaluated) == counters["h_slices"]


class TestDerivativeBoundsConsistency:
    def test_ill_conditioned_slice_passes_the_norm_check(self):
        # cond(A) = 1e13.  The two S2 norms agree to the tolerance, while the
        # operators S+ and S- = -S+ differ in Frobenius norm by far more: a
        # check of |S+ + S-|_F would refuse a slice that is computed well.
        rng = np.random.default_rng(0)
        Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        A = (Q * np.geomspace(1.0, 1e13, 5)) @ Q.T
        A = 0.5 * (A + A.T)
        B = rng.standard_normal((5, 5))
        Hdot = 0.5 * (B + B.T)
        direct, dual, _ = _derivative_bounds(A[None], Hdot[None], np.array([0.0]))
        assert abs(direct[0] - dual[0]) <= S2_CONSISTENCY_TOL * max(1.0, direct[0])
        w, V = np.linalg.eigh(A)
        inv = (V / w) @ V.T
        S_plus = _sandwich((V / np.sqrt(w)) @ V.T, Hdot)
        S_minus = _sandwich((V * np.sqrt(w)) @ V.T, -inv @ Hdot @ inv)
        assert np.linalg.norm(S_plus + S_minus) > 1e4 * S2_CONSISTENCY_TOL * max(1.0, direct[0])


class TestErrorPaths:
    @pytest.mark.parametrize("audit", [s1_pencil_profile, s2_profile, bridge_check])
    def test_failed_semibound_names_first_failing_time(self, audit, blocks_of_32):
        grid = uniform_grid(0.0, 1.0, 81)
        first = np.flatnonzero(2.0 - 3.0 * grid <= 0.0)[0]
        assert first == 54  # in the second block, with failures after it
        tdh = failing_semibound_family()
        blocks_of_32(tdh.dim)
        b = block_size(tdh.dim)
        assert b <= first < 2 * b < grid.size
        with pytest.raises(NotPositiveDefiniteError) as info:
            audit(tdh, grid)
        assert f"(A({grid[first]}))" in str(info.value)
        assert info.value.lambda_min < 0.0


def exclusive():
    """``wrap(fn)``: ``fn`` that raises if entered while any function wrapped by
    the same ``wrap`` is still running, as user code that is not thread-safe might."""
    running = threading.Lock()

    def wrap(fn):
        def call(t):
            if not running.acquire(blocking=False):
                raise AssertionError("user code entered from two threads at once")
            try:
                time.sleep(1e-4)  # keeps the call open long enough for another thread
                return fn(t)
            finally:
                running.release()
        return call

    return wrap


class TestConcurrentBlocks:
    """The blocks of an audit run on two threads; the family's callables never
    run twice at once, and the report is the one-thread report bit for bit."""

    def per_time_family(self):
        wrap, B = exclusive(), random_hermitian(np.random.default_rng(4), 3, scale=0.3)
        return TimeDependentHamiltonian(
            3, wrap(lambda t: np.diag([1.0, 2.0, 3.0]) + np.sin(t) * B), (0.0, 1.0),
            Semibound(1.0), derivative_fn=wrap(lambda t: np.cos(t) * B))

    def affine_family(self):
        wrap = exclusive()
        return AffineHamiltonian(
            np.diag([1.0, 2.0, 3.0]), [(np.ones((3, 3)), (wrap(np.sin), wrap(np.cos), None))],
            (0.0, 1.0), Semibound(1.0))

    def stacks_family(self):
        wrap, B = exclusive(), random_hermitian(np.random.default_rng(4), 3, scale=0.3)
        return TimeDependentHamiltonian.from_stacks(
            3, (wrap(lambda t: np.diag([1.0, 2.0, 3.0]) + np.sin(t)[:, None, None] * B),
                wrap(lambda t: np.cos(t)[:, None, None] * B), None),
            (0.0, 1.0), Semibound(1.0))

    @pytest.mark.parametrize("family", ["per_time_family", "affine_family", "stacks_family"])
    def test_user_code_is_called_serially(self, family, cpus, blocks_of_32):
        blocks_of_32(3)
        grid = uniform_grid(0.0, 1.0, 97)  # blocks of 32, 32, 32 and 1 times
        reports, counters = [], []
        for n in (2, 1):
            cpus(n)
            with tallying() as counts:
                reports.append(bridge_check(getattr(self, family)(), grid))
            counters.append(counts)
        threaded, inline = reports
        assert (counters[0]["threads"], counters[1]["threads"]) == (2, 1)
        for name, values in inline.per_t.items():
            assert np.array_equal(threaded.per_t[name], values), name
        assert threaded.to_dict() == inline.to_dict()

    def test_the_thread_count_changes_no_other_count(self, cpus, blocks_of_32):
        tdh = circle_delta_model(3, alpha_profile("trigonometric", amplitude=1.3), TWO_PI)
        blocks_of_32(tdh.dim)
        counters = []
        for n in (2, 1):
            cpus(n)
            with tallying() as counts:
                bridge_check(tdh, uniform_grid(0.0, TWO_PI, 80))
            counters.append(counts)
        threaded, inline = counters
        assert (threaded.pop("threads"), inline.pop("threads")) == (2, 1)
        assert threaded == inline
        assert set(inline) == {"h_slices", "eigensolved_mats", "k2_pairs", "k2_exact_pairs"}
