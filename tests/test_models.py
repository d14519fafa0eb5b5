import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from formevol import (
    AffineHamiltonian,
    ArgumentError,
    CircleDeltaModel,
    NotHermitianError,
    Semibound,
    TimeDependentHamiltonian,
    alpha_profile,
    circle_delta_model,
    reference_propagator,
    spectrum,
    synthetic_family,
)

from helpers import generic_twin, reference_callables, reference_profile

TWO_PI = 2.0 * math.pi


class TestAlphaProfiles:
    def test_constant(self):
        prof = alpha_profile("constant", value=1.0)
        assert prof.derivative(2.0) == 0.0

    def test_kink_jump(self):
        prof = alpha_profile("kink", center=1.0, amplitude=1.0)
        assert prof.derivative(0.5) == -1.0
        assert prof.derivative(1.5) == 1.0
        assert prof.value(1.0) == 0.0

    def test_polynomial_derivative(self):
        prof = alpha_profile("polynomial", coeffs=[1.0, -2.0, 3.0])
        assert prof.value(2.0) == pytest.approx(1.0 - 4.0 + 12.0)
        assert prof.derivative(2.0) == pytest.approx(-2.0 + 12.0)
        assert prof.second_derivative(2.0) == pytest.approx(6.0)

    def test_rough_c0_derivative_bounded_but_oscillating(self):
        prof = alpha_profile("rough_c0", amplitude=1.0, scale=1.0)
        assert prof.value(0.0) == 0.0
        assert prof.derivative(0.0) == 0.0
        ts = np.linspace(1e-6, 1e-3, 1000)
        ds = np.array([prof.derivative(t) for t in ts])
        assert np.max(np.abs(ds)) <= 1.0 + 2e-3  # bounded by scale + 2 t
        # no limit at zero: the derivative keeps swinging across order one
        assert ds.max() > 0.9 and ds.min() < -0.9

    def test_table_requires_sorted_unique(self):
        with pytest.raises(ArgumentError):
            alpha_profile("table", times=[0.0, 0.0, 1.0], values=[1.0, 2.0, 3.0])
        with pytest.raises(ArgumentError):
            alpha_profile("table", times=[1.0, 0.0], values=[1.0, 2.0])

    def test_table_interpolates_without_derivative(self):
        prof = alpha_profile("table", times=[0.0, 1.0, 2.0], values=[0.0, 2.0, 0.0])
        assert prof.value(0.5) == pytest.approx(1.0)
        assert not prof.has_derivative

    def test_unknown_kind(self):
        with pytest.raises(ArgumentError):
            alpha_profile("fancy")


class TestCircleDeltaModel:
    def test_k1_matrix_formula(self):
        model = CircleDeltaModel(1, alpha_profile("constant", value=2.0), 1.0)
        expected = np.diag([1.0, 0.0, 1.0]) + (2.0 / TWO_PI) * np.ones((3, 3))
        assert np.allclose(model.matrix(0.0), expected)

    def test_constant_mode_form_value(self):
        # The derivative term vanishes on the constant mode, leaving only the
        # boundary coupling alpha / (2 pi).
        model = CircleDeltaModel(4, alpha_profile("constant", value=3.0), 1.0)
        e0 = np.zeros(9)
        e0[4] = 1.0
        val = e0 @ model.matrix(0.0) @ e0
        assert val == pytest.approx(3.0 / TWO_PI)

    def test_k0_disallowed(self):
        with pytest.raises(ArgumentError):
            CircleDeltaModel(0, alpha_profile("constant", value=1.0), 1.0)

    def test_rank_one_interaction(self):
        model = CircleDeltaModel(8, alpha_profile("constant", value=1.5), 1.0)
        D = model.matrix(0.3) - np.diag(model.mode_numbers.astype(float) ** 2)
        assert np.linalg.matrix_rank(D) == 1
        evals = np.sort(np.linalg.eigvalsh(D))
        assert evals[-1] == pytest.approx(17 * 1.5 / TWO_PI, rel=1e-12)
        assert np.max(np.abs(evals[:-1])) < 1e-13

    def test_free_spectrum_multiplicities(self):
        model = CircleDeltaModel(3, alpha_profile("constant", value=0.0), 1.0)
        assert np.allclose(model.spectrum(0.0), [0, 1, 1, 4, 4, 9, 9])

    def test_antisymmetric_modes_stay_free(self):
        model = CircleDeltaModel(5, alpha_profile("constant", value=7.3), 1.0)
        H = model.matrix(0.0)
        for k in range(1, 6):
            v = np.zeros(11)
            v[5 + k] = 1.0 / math.sqrt(2.0)
            v[5 - k] = -1.0 / math.sqrt(2.0)
            assert np.linalg.norm(H @ v - k**2 * v) < 1e-12

    def test_block_split_matches_dense_solver(self):
        model = CircleDeltaModel(6, alpha_profile("constant", value=-2.4), 1.0)
        dense = np.linalg.eigvalsh(model.matrix(0.0))
        assert np.max(np.abs(model.spectrum(0.0) - dense)) < 1e-12

    def test_secular_equation_roots_match_eigensolver(self):
        model = CircleDeltaModel(16, alpha_profile("constant", value=1.0), 1.0)
        lam0 = model.spectrum(0.0)[0]
        f = lambda lam: model.secular_residual(lam, 0.0, normalized=False)
        root = brentq(f, 1e-9, 1.0 - 1e-9, xtol=1e-13)
        assert abs(root - lam0) < 1e-10

    def test_secular_residual_small_on_nondegenerate_eigenvalues(self):
        model = CircleDeltaModel(16, alpha_profile("constant", value=1.0), 1.0)
        sym = np.linalg.eigvalsh(model.symmetric_block(0.0))
        for lam in sym:
            assert abs(model.secular_residual(lam, 0.0)) < 1e-8

    def test_ground_state_first_order_slope(self):
        eps = 1e-4
        up = CircleDeltaModel(16, alpha_profile("constant", value=eps), 1.0)
        down = CircleDeltaModel(16, alpha_profile("constant", value=-eps), 1.0)
        slope = (up.spectrum(0.0)[0] - down.spectrum(0.0)[0]) / (2 * eps)
        assert slope == pytest.approx(1.0 / TWO_PI, rel=1e-2)

    def test_lambda_min_lipschitz_in_alpha(self):
        K = 8
        alphas = np.linspace(-3.0, 3.0, 25)
        lam = np.array(
            [
                CircleDeltaModel(K, alpha_profile("constant", value=a), 1.0).spectrum(0.0)[0]
                for a in alphas
            ]
        )
        lip = (2 * K + 1) / TWO_PI
        steps = np.abs(np.diff(lam)) / np.abs(np.diff(alphas))
        assert np.all(steps <= lip * (1 + 1e-9))
        assert np.all(np.diff(lam) > 0)  # monotone in the rank-one direction

    def test_uniform_semibound_uses_minimum_strength(self):
        prof = alpha_profile("trigonometric", amplitude=2.0)
        tdh = circle_delta_model(4, prof, TWO_PI)
        frozen = CircleDeltaModel(4, alpha_profile("constant", value=-2.0), 1.0)
        lam_min = frozen.spectrum(0.0)[0]
        assert tdh.semibound.m == pytest.approx(-lam_min, abs=1e-12)
        # uniform validity on a sample grid
        for t in np.linspace(0, TWO_PI, 33):
            assert np.linalg.eigvalsh(tdh(t))[0] >= -tdh.semibound.m - 1e-10

    def test_spectrum_dispatch_on_hamiltonian(self):
        tdh = circle_delta_model(3, alpha_profile("constant", value=1.0), 1.0)
        direct = spectrum(tdh, 0.5)
        assert np.max(np.abs(direct - np.linalg.eigvalsh(tdh(0.5)))) < 1e-12


class TestSyntheticFamilies:
    def test_commuting_diagonal_closed_form(self):
        tdh = synthetic_family(
            "commuting_diagonal", 2, 1.0, {"offsets": [0.0, 0.0], "rates": [1.0, 2.0]}
        )
        U = tdh.source.exact_propagator(0.0, 1.0)
        assert np.allclose(np.diag(U), [np.exp(-0.5j), np.exp(-1.0j)])

    def test_constant_closed_form(self):
        H0 = np.array([[1.0, 1.0], [1.0, -1.0]])
        tdh = synthetic_family("constant", 2, 1.0, {"matrix": H0})
        U = tdh.source.exact_propagator(0.0, 0.7)
        import scipy.linalg as sla

        assert np.max(np.abs(U - sla.expm(-1j * 0.7 * H0))) < 1e-12

    def test_rotating_frame_matches_reference_scheme(self):
        tdh = synthetic_family("rotating_frame", 3, 1.0, {"seed": 8})
        table = reference_propagator(tdh, 0.0, 1.0, 512)
        exact = tdh.source.exact_propagator(0.0, 1.0)
        # second-order scheme at 512 steps
        assert np.linalg.norm(table.final - exact, 2) < 1e-4
        finer = reference_propagator(tdh, 0.0, 1.0, 1024)
        err1 = np.linalg.norm(table.final - exact, 2)
        err2 = np.linalg.norm(finer.final - exact, 2)
        assert err1 / err2 == pytest.approx(4.0, rel=0.3)

    def test_invalid_kind(self):
        with pytest.raises(ArgumentError):
            synthetic_family("nope", 2, 1.0)

    def test_needs_two_dimensions(self):
        with pytest.raises(ArgumentError):
            synthetic_family("constant", 1, 1.0)


#: One profile of every kind.  Together with ``PROFILE_TIMES`` they reach each
#: special point: rough_c0's t = 0, the kink's corner, the table's nodes and
#: times before and after the table.
PROFILES = {
    "constant": alpha_profile("constant", value=-1.25),
    "polynomial": alpha_profile("polynomial", coeffs=[0.5, -1.0, 0.3, 0.05]),
    "trigonometric": alpha_profile(
        "trigonometric", amplitude=-1.7, frequency=2.5, phase=0.4, offset=0.3
    ),
    "kink": alpha_profile("kink", center=0.75, amplitude=-1.5, offset=0.2),
    "rough_c0": alpha_profile("rough_c0", amplitude=1.7, scale=3.0),
    "table": alpha_profile("table", times=[0.0, 0.3, 0.7, 1.0], values=[0.0, 1.5, -0.5, 0.3]),
}
PROFILE_TIMES = np.concatenate(
    [np.linspace(-0.5, 1.5, 41), [0.0, 0.3, 0.7, 0.75, 1.0, 1e-3, -1e-9]]
)


def assert_profile_matches_reference(prof, times):
    """Orders 0-2 on an array and at each scalar time equal the scalar reference
    bit for bit, or raise where the kind offers no such derivative."""
    methods = (prof.value, prof.derivative, prof.second_derivative)
    for order, method in enumerate(methods):
        expected = [reference_profile(prof, t, order) for t in times]
        if expected[0] is None:
            with pytest.raises(ArgumentError, match="offers no"):
                method(times)
            continue
        values = method(times)
        assert values.shape == times.shape
        assert np.array_equal(values, expected)
        assert all(type(method(t)) is float and method(t) == e for t, e in zip(times, expected))
    assert prof.has_derivative == (reference_profile(prof, 0.5, 1) is not None)
    assert prof.has_second_derivative == (reference_profile(prof, 0.5, 2) is not None)


class TestProfileArrays:
    """Each kind's formulas, written once over arrays, equal the scalar ones."""

    @pytest.mark.parametrize("kind", sorted(PROFILES))
    def test_every_kind_and_order(self, kind):
        assert_profile_matches_reference(PROFILES[kind], PROFILE_TIMES)

    @pytest.mark.parametrize("kind", sorted(PROFILES))
    def test_min_value_keeps_its_samples(self, kind):
        prof = PROFILES[kind]
        if kind == "table":
            # The ends and the nodes inside; no uniform sample hits the node 0.7.
            expected = min(reference_profile(prof, t, 0) for t in (0.25, 0.9, 0.3, 0.7))
            assert prof.min_value(0.25, 0.9) == expected == -0.5
        else:
            scan = np.linspace(-0.25, 0.9, 4097)
            expected = min(reference_profile(prof, t, 0) for t in scan)
            assert prof.min_value(-0.25, 0.9) == expected

    def test_rough_c0_has_no_division_at_zero(self):
        prof = PROFILES["rough_c0"]
        with np.errstate(all="raise"):
            assert prof.value(np.array([0.0, -0.0])).tolist() == [0.0, 0.0]
            assert prof.derivative(0.0) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=1, max_size=6
        ),
    )
    def test_parameter_space(self, amplitude, frequency, phase, offset, coeffs):
        times = np.linspace(-3.0, 7.0, 23)
        trig = alpha_profile(
            "trigonometric", amplitude=amplitude, frequency=frequency, phase=phase, offset=offset
        )
        assert_profile_matches_reference(trig, times)
        assert_profile_matches_reference(alpha_profile("polynomial", coeffs=coeffs), times)


def skewing_family(t_star=0.5):
    """Hermitian up to ``t_star``, with a growing asymmetric entry from then on."""
    def matrix(t):
        return np.array([[1.0, max(0.0, t - t_star)], [0.0, 2.0]], dtype=complex)
    return TimeDependentHamiltonian(2, matrix, (0.0, 1.0), Semibound(0.0))


class TestStack:
    def test_slices_are_the_symmetrized_callables(self):
        tdh = circle_delta_model(2, alpha_profile("polynomial", coeffs=[0.5, -1.0, 2.0]), 1.0)
        callables = reference_callables(tdh)
        one_time = (tdh, tdh.derivative, tdh.second_derivative)
        grid = np.linspace(0.0, 1.0, 37)
        for order, fn in enumerate(callables):
            stack = tdh.stack(grid, order)
            assert stack.shape == (grid.size, tdh.dim, tdh.dim)
            for j, t in enumerate(grid):
                M = fn(t)
                assert np.array_equal(stack[j], 0.5 * (M + M.conj().T))
                assert np.array_equal(one_time[order](t), stack[j])

    def test_names_the_first_non_hermitian_time(self):
        tdh = skewing_family()
        grid = np.linspace(0.0, 1.0, 41)
        first = grid[np.flatnonzero(grid > 0.5)[0]]
        assert tdh.stack(grid[grid <= 0.5]).shape == (21, 2, 2)
        with pytest.raises(NotHermitianError) as err:
            tdh.stack(grid)
        assert f"H({first})" in str(err.value)
        with pytest.raises(NotHermitianError):
            tdh(first)

    def test_wrong_shape_is_an_argument_error(self):
        tdh = TimeDependentHamiltonian(3, lambda t: np.eye(2), (0.0, 1.0), Semibound(0.0))
        with pytest.raises(ArgumentError, match=r"H\(0.5\) has shape \(2, 2\)"):
            tdh.stack([0.5])
        with pytest.raises(ArgumentError):
            tdh(0.0)

    def test_missing_derivatives_give_none(self):
        tdh = circle_delta_model(2, alpha_profile("kink", center=0.5), 1.0)
        assert tdh.stack([0.2, 0.7], 1).shape == (2, 5, 5)
        assert tdh.stack([0.2, 0.7], 2) is None
        assert tdh.second_derivative(0.2) is None
        table = circle_delta_model(
            2, alpha_profile("table", times=[0.0, 1.0], values=[0.0, 1.0]), 1.0
        )
        assert table.stack([0.2], 1) is None and table.derivative(0.2) is None
        with pytest.raises(ArgumentError):
            table.stack([0.2], 3)


#: Circle profiles of every kind with a derivative path: analytic to order 2,
#: to order 1 only (kink, rough_c0) and none (table).
AFFINE_PROFILES = {
    "sin": alpha_profile("trigonometric", amplitude=-1.7, frequency=2.0, phase=0.4, offset=0.3),
    "polynomial": alpha_profile("polynomial", coeffs=[0.5, -1.0, 0.3, 0.05]),
    "kink": alpha_profile("kink", center=0.5, amplitude=-1.5, offset=0.2),
    "rough_c0": alpha_profile("rough_c0", amplitude=2.0, scale=1.0),
    "table": alpha_profile("table", times=[0.0, 0.3, 0.7, 1.0], values=[0.0, 1.5, -0.5, 0.3]),
}


def assert_stacks_match_callables(tdh, grid):
    """Orders 0-2: the affine stack equals the generic per-time path, or both are None."""
    twin = generic_twin(tdh)
    assert type(twin) is TimeDependentHamiltonian
    for order, fn in enumerate(reference_callables(tdh)):
        stack, expected = tdh.stack(grid, order), twin.stack(grid, order)
        assert (stack is None) == (fn is None) == (expected is None)
        if fn is not None:
            assert stack.shape == (grid.size, tdh.dim, tdh.dim)
            assert np.array_equal(stack, expected)


class TestAffineStack:
    """The affine families stacked by one broadcast equal their per-time callables."""

    # 0 (rough_c0's special case) and 0.5 (the kink's corner) are on the grid.
    GRID = np.linspace(0.0, 1.0, 41)

    @pytest.mark.parametrize("profile", sorted(AFFINE_PROFILES))
    def test_circle_profiles(self, profile):
        tdh = circle_delta_model(3, AFFINE_PROFILES[profile], 1.0)
        assert isinstance(tdh, AffineHamiltonian)
        assert_stacks_match_callables(tdh, self.GRID)
        assert tdh.has_derivative == (profile != "table")
        assert (tdh.second_derivative(0.5) is None) == (profile not in ("sin", "polynomial"))

    @pytest.mark.parametrize(
        "params",
        [None, {"offsets": [-2.0, 0.5, 1.25], "rates": [-3.0, 0.0, 7.5]}],
    )
    def test_commuting_diagonal(self, params):
        tdh = synthetic_family("commuting_diagonal", 3, 1.0, params)
        assert_stacks_match_callables(tdh, self.GRID)

    @pytest.mark.parametrize("params", [{"seed": 4}, {"matrix": [[1.0, 2.0j], [-2.0j, -3.0]]}])
    def test_constant(self, params):
        tdh = synthetic_family("constant", 2, 1.0, params)
        assert_stacks_match_callables(tdh, self.GRID)

    def test_non_hermitian_term_is_refused_at_construction(self):
        coefficient = (math.sin, math.cos, None)
        skew = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotHermitianError, match="B_1"):
            AffineHamiltonian(np.eye(2), [(np.eye(2), coefficient), (skew, coefficient)],
                              (0.0, 1.0), Semibound(0.0))
        with pytest.raises(ArgumentError, match="B_0 has shape"):
            AffineHamiltonian(np.eye(2), [(np.eye(3), coefficient)], (0.0, 1.0), Semibound(0.0))

    def test_a_missing_coefficient_derivative_withdraws_that_order(self):
        tdh = AffineHamiltonian(
            np.diag([1.0, 2.0]),
            [(np.eye(2), (np.sin, np.cos, None)), (np.ones((2, 2)), (np.cos, None, None))],
            (0.0, 1.0), Semibound(0.0),
        )
        assert not tdh.has_derivative and tdh.second_derivative(0.5) is None
        assert tdh.stack([0.5], 1) is None and tdh.derivative(0.5) is None
        expected = np.diag([1.0, 2.0]) + math.sin(0.5) * np.eye(2) + math.cos(0.5) * np.ones((2, 2))
        assert np.allclose(tdh(0.5), expected, rtol=1e-15, atol=0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    )
    def test_circle_parameter_space(self, K, amplitude, phase):
        prof = alpha_profile("trigonometric", amplitude=amplitude, phase=phase)
        assert_stacks_match_callables(circle_delta_model(K, prof, TWO_PI), np.linspace(0, TWO_PI, 9))
