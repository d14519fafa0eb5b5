import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from formevol import (
    ArgumentError,
    NumericalError,
    Semibound,
    TimeDependentHamiltonian,
    alpha_profile,
    build_table,
    circle_delta_model,
    dyson_propagator,
    final_state,
    form_operator_norm,
    propagate,
    propagator_axioms,
    reference_propagator,
    synthetic_family,
    unitary_exp,
    weak_residual,
    yosida_convergence_study,
    yosida_hamiltonian,
    yosida_operator,
)
from formevol.propagators import YosidaStudy, _ordered_degrees, _spectral_exp, _sweep_steps

from helpers import (
    block_size,
    random_hermitian,
    random_unit_vector,
    reference_dyson_table,
    reference_simplex_term,
    reference_table,
    reference_unitarity_defects,
    reference_weak_residual,
    reference_yosida_family,
    reference_yosida_operator,
)

TWO_PI = 2.0 * math.pi


def constant_family(H, T=1.0):
    m = max(0.0, -float(np.linalg.eigvalsh(H)[0]))
    return TimeDependentHamiltonian(
        H.shape[0], lambda t: H, (0.0, T), Semibound(m),
        derivative_fn=lambda t: np.zeros_like(H),
    )


class TestYosidaOperator:
    def test_zero_hamiltonian_is_fixed(self):
        Hn = yosida_operator(np.zeros((3, 3)), 7, 1.0)
        assert np.max(np.abs(Hn)) == 0.0

    def test_diagonal_spectral_map(self):
        Hn = yosida_operator(np.diag([1.0, 100.0]), 1, 1.0)
        assert np.diag(Hn).real == pytest.approx([1.0 / 3.0, 100.0 / 102.0])

    def test_norm_bound(self):
        rng = np.random.default_rng(0)
        H = random_hermitian(rng, 6, scale=50.0)
        m = max(0.0, -float(np.linalg.eigvalsh(H)[0]))
        for n in (1, 4, 16):
            Hn = yosida_operator(H, n, m + 1.0)
            assert np.linalg.norm(Hn, 2) <= n + m + 1.0 + 1e-9

    def test_rejects_nonpositive_index(self):
        with pytest.raises(ArgumentError):
            yosida_operator(np.eye(2), 0, 1.0)

    def test_overflowing_map_names_n_and_the_first_slice(self):
        # (w - shift) * n overflows for w = 1e307 and n = 64, without a warning.
        H = np.stack([np.eye(2), np.diag([1.0, 1e307]), np.diag([1e307, 1.0])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=r"Yosida map H_n with n = 64 overflows at slice 1"):
                yosida_operator(H, 64, 1.0)
        # With n = 8 the same stack maps without overflow, within n + shift.
        assert np.max(np.abs(yosida_operator(H, 8, 1.0))) <= 9.0

    def test_plus_minus_error_matches_spectral_oracle_and_decreases(self):
        prof = alpha_profile("trigonometric", amplitude=1.0)
        tdh = circle_delta_model(8, prof, TWO_PI)
        t = 1.0
        H = tdh(t)
        shift = tdh.semibound.m + 1.0
        A = tdh.shifted(t)
        lam = np.linalg.eigvalsh(H)
        errs = []
        for n in (4, 8, 16, 32, 64):
            measured = form_operator_norm(H - yosida_operator(H, n, shift), A)
            # spectral oracle: the sandwiched error eigenvalues are
            # lam / (n + lam + shift) on the common eigenbasis
            oracle = np.max(np.abs(lam) / (n + lam + shift))
            assert measured == pytest.approx(oracle, rel=1e-10)
            errs.append(measured)
        assert np.all(np.diff(errs) < 0)

    def test_family_wrapper_keeps_semibound(self):
        prof = alpha_profile("trigonometric", amplitude=2.0)
        tdh = circle_delta_model(3, prof, TWO_PI)
        reg = yosida_hamiltonian(tdh, 8)
        for t in np.linspace(0, TWO_PI, 9):
            assert np.linalg.eigvalsh(reg(t))[0] >= -reg.semibound.m - 1e-12


class TestReferencePropagator:
    def test_constant_hamiltonian_exact(self):
        rng = np.random.default_rng(1)
        H = random_hermitian(rng, 4)
        tdh = constant_family(H, T=2.0)
        for steps in (1, 7, 50):
            table = reference_propagator(tdh, 0.0, 2.0, steps)
            exact = unitary_exp(H, 2.0)
            assert np.linalg.norm(table.final - exact, 2) < 1e-12

    def test_free_circle_phases_exact(self):
        tdh = circle_delta_model(8, alpha_profile("constant", value=0.0), TWO_PI)
        table = reference_propagator(tdh, 0.0, 1.5, 64)
        ks = np.arange(-8, 9)
        exact = np.diag(np.exp(-1j * ks**2 * 1.5))
        assert np.max(np.abs(table.final - exact)) < 1e-12

    def test_unitarity_defect_small(self):
        prof = alpha_profile("trigonometric", amplitude=1.0)
        tdh = circle_delta_model(8, prof, TWO_PI)
        table = reference_propagator(tdh, 0.0, TWO_PI, 256)
        assert table.max_unitarity_defect() < 1e-12

    def test_self_convergence_order_two(self):
        prof = alpha_profile("trigonometric", amplitude=1.0)
        tdh = circle_delta_model(4, prof, TWO_PI)
        fine = reference_propagator(tdh, 0.0, 2.0, 2048).final
        errs = [
            np.linalg.norm(reference_propagator(tdh, 0.0, 2.0, N).final - fine, 2)
            for N in (32, 64, 128)
        ]
        slope = -np.polyfit(np.log([32, 64, 128]), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.3)

    def test_magnus4_faster_than_magnus2(self):
        prof = alpha_profile("trigonometric", amplitude=1.0)
        tdh = circle_delta_model(4, prof, TWO_PI)
        exact = reference_propagator(tdh, 0.0, 2.0, 4096, scheme="magnus4").final
        err2 = np.linalg.norm(reference_propagator(tdh, 0.0, 2.0, 64).final - exact, 2)
        err4 = np.linalg.norm(
            reference_propagator(tdh, 0.0, 2.0, 64, scheme="magnus4").final - exact, 2
        )
        assert err4 < err2 / 50

    def test_magnus4_self_convergence_order_four(self):
        prof = alpha_profile("trigonometric", amplitude=1.0)
        tdh = circle_delta_model(3, prof, TWO_PI)
        exact = reference_propagator(tdh, 0.0, 2.0, 2048, scheme="magnus4").final
        errs = [
            np.linalg.norm(
                reference_propagator(tdh, 0.0, 2.0, N, scheme="magnus4").final - exact, 2
            )
            for N in (8, 16, 32)
        ]
        slope = -np.polyfit(np.log([8, 16, 32]), np.log(errs), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.5)

    def test_time_reversal(self):
        prof = alpha_profile("trigonometric", amplitude=1.0)
        tdh = circle_delta_model(4, prof, TWO_PI)
        fwd = reference_propagator(tdh, 0.0, 2.0, 128).final
        bwd = reference_propagator(tdh, 2.0, 0.0, 128).final
        assert np.linalg.norm(fwd @ bwd - np.eye(9), 2) < 1e-11


class TestDysonPropagator:
    def test_first_order_single_step(self):
        prof = alpha_profile("trigonometric", amplitude=1.0)
        tdh = circle_delta_model(2, prof, TWO_PI)
        dt = 1e-3
        table = dyson_propagator(tdh, 0.0, dt, 1, 1)
        expected = np.eye(5) - 1j * dt * tdh(dt / 2.0)
        assert np.max(np.abs(table.final - expected)) < 1e-15

    def test_constant_fourth_order_matches_exponential(self):
        rng = np.random.default_rng(2)
        H = random_hermitian(rng, 3)
        tdh = constant_family(H, T=1.0)
        errs = []
        dts = (0.2, 0.1, 0.05)
        for dt in dts:
            table = dyson_propagator(tdh, 0.0, dt, 4, 1)
            errs.append(np.linalg.norm(table.final - unitary_exp(H, dt), 2))
        slope = -np.polyfit(np.log(1.0 / np.asarray(dts)), np.log(errs), 1)[0]
        assert slope == pytest.approx(5.0, abs=0.7)  # local error of the k=4 step

    @pytest.mark.parametrize("order,expected", [(1, 1.0), (2, 2.0), (3, 3.0)])
    def test_global_convergence_order(self, order, expected):
        prof = alpha_profile("trigonometric", amplitude=1.0)
        tdh = circle_delta_model(2, prof, 1.0)
        exact = reference_propagator(tdh, 0.0, 1.0, 4096, scheme="magnus4").final
        steps = (32, 64, 128)
        errs = [
            np.linalg.norm(dyson_propagator(tdh, 0.0, 1.0, order, N).final - exact, 2)
            for N in steps
        ]
        slope = -np.polyfit(np.log(steps), np.log(errs), 1)[0]
        assert slope == pytest.approx(expected, abs=0.5)

    def test_unitarity_defect_decays_at_least_at_scheme_order(self):
        prof = alpha_profile("trigonometric", amplitude=1.0)
        tdh = circle_delta_model(2, prof, 1.0)
        defects = [
            dyson_propagator(tdh, 0.0, 1.0, 2, N).max_unitarity_defect()
            for N in (16, 32, 64)
        ]
        slope = -np.polyfit(np.log([16, 32, 64]), np.log(defects), 1)[0]
        # guaranteed decay is the scheme order; the smooth commutator
        # structure of this model actually gains one extra power
        assert slope >= 1.5
        assert np.all(np.diff(defects) < 0)

    def test_free_circle_any_order_diagonal(self):
        tdh = circle_delta_model(3, alpha_profile("constant", value=0.0), 1.0)
        table = dyson_propagator(tdh, 0.0, 0.5, 2, 64)
        off = table.final - np.diag(np.diag(table.final))
        assert np.max(np.abs(off)) < 1e-14

    def test_yosida_regularized_expansion(self):
        prof = alpha_profile("trigonometric", amplitude=1.0)
        tdh = circle_delta_model(2, prof, 1.0)
        n = 16
        direct = dyson_propagator(tdh, 0.0, 1.0, 2, 128, yosida_n=n)
        via_family = reference_propagator(yosida_hamiltonian(tdh, n), 0.0, 1.0, 4096)
        assert np.linalg.norm(direct.final - via_family.final, 2) < 5e-4

    def test_divergence_is_a_numerical_error_without_warnings(self):
        # dt * |H| = 100: the order-4 series grows ~4e6 a step, so the table
        # overflows too, not only its unitarity check U* U.
        tdh = constant_family(np.diag([0.0, 3000.0]), T=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=r"not finite at t = .*diverged"):
                dyson_propagator(tdh, 0.0, 2.0, 4, 60)

    def test_rejects_bad_order(self):
        tdh = constant_family(np.eye(2))
        with pytest.raises(ArgumentError):
            dyson_propagator(tdh, 0.0, 1.0, 5, 4)

    def test_one_node_count_for_every_step(self, monkeypatch):
        # The steps of linspace(0, 1, 71) differ from 1/70 by ulps, and
        # ceil(1/dt), the node count of degrees 1 and 2, is 70 for some of
        # them and 71 for others; the nominal step gives 70/70/9/1 to all.
        tdh = circle_delta_model(1, alpha_profile("trigonometric", amplitude=1.0), 1.0)
        evaluated = []
        stack = tdh.stack

        def recording(times, order=0):
            evaluated.append(np.array(times))
            return stack(times, order)

        monkeypatch.setattr(tdh, "stack", recording)
        table = dyson_propagator(tdh, 0.0, 1.0, 4, 70)
        step_of = np.searchsorted(table.times, np.concatenate(evaluated)) - 1
        assert np.array_equal(np.bincount(step_of, minlength=70), np.full(70, 70 + 9 + 1))

    def test_peak_memory_stays_per_node(self):
        # K = 16, 64 steps on [0, 0.5]: node counts 128/128/12/1 and blocks of
        # 30 steps.  A block's nodes held at once, (30, 128, 33, 33) complex,
        # would take 67 MB; one node index at a time takes a few stacks.
        tdh = circle_delta_model(16, alpha_profile("trigonometric", amplitude=1.0), TWO_PI)
        tracemalloc.start()
        try:
            dyson_propagator(tdh, 0.0, 0.5, 4, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


class TestOrderedDegrees:
    """The node recursion against the sum over nondecreasing node tuples."""

    @pytest.mark.parametrize("M", [1, 2, 10, 82])
    @pytest.mark.parametrize("family", ["circle", "rotating_frame"])
    def test_degrees_match_tuple_sum(self, family, M):
        if family == "circle":
            tdh = circle_delta_model(16, alpha_profile("trigonometric", amplitude=1.0), TWO_PI)
        else:
            tdh = FAMILIES["rotating_frame"]()
        dt = TWO_PI / 512
        evals = list(tdh.stack(0.3 + (np.arange(M) + 0.5) * dt / M))
        # Degree 4 over 82 nodes is 2,024,785 tuples: too slow for the tuple sum.
        top = 3 if M == 82 else 4
        T = _ordered_degrees([dt / M * H[None] for H in evals], top)
        for p in range(1, top + 1):
            expected = reference_simplex_term(evals, dt / M, p)
            assert np.max(np.abs(T[p - 1][0] - expected)) <= 1e-13 * np.max(np.abs(expected))


class TestPropagate:
    def test_eigenvector_acquires_phase(self):
        rng = np.random.default_rng(3)
        H = random_hermitian(rng, 4)
        w, Q = np.linalg.eigh(H)
        tdh = constant_family(H, T=1.0)
        traj = propagate(tdh, Q[:, 1], 0.0, 1.0, substeps=16)
        expected = np.exp(-1j * w[1] * 1.0) * Q[:, 1]
        assert np.linalg.norm(traj.final - expected) < 1e-12

    def test_free_mode_phase(self):
        tdh = circle_delta_model(2, alpha_profile("constant", value=0.0), TWO_PI)
        psi0 = np.zeros(5, dtype=complex)
        psi0[3] = 1.0  # k = +1
        traj = propagate(tdh, psi0, 0.0, 2.0, substeps=32)
        assert abs(traj.final[3] - np.exp(-2.0j)) < 1e-12

    def test_norm_conservation(self):
        prof = alpha_profile("trigonometric", amplitude=1.0)
        tdh = circle_delta_model(6, prof, TWO_PI)
        psi0 = np.ones(13, dtype=complex)
        traj = propagate(tdh, psi0, 0.0, TWO_PI, substeps=256)
        assert traj.norm_drift() < 1e-10

    def test_richardson_consistency_against_doubled_steps(self):
        prof = alpha_profile("trigonometric", amplitude=1.0)
        tdh = circle_delta_model(4, prof, TWO_PI)
        psi0 = np.zeros(9, dtype=complex)
        psi0[4] = 1.0
        coarse = propagate(tdh, psi0, 0.0, 3.0, substeps=128)
        fine = propagate(tdh, psi0, 0.0, 3.0, substeps=256)
        finer = propagate(tdh, psi0, 0.0, 3.0, substeps=512)
        e1 = np.linalg.norm(coarse.final - fine.final)
        e2 = np.linalg.norm(fine.final - finer.final)
        assert e1 / e2 == pytest.approx(4.0, rel=0.3)

    def test_antisymmetric_sector_keeps_free_phases(self):
        # (e_k - e_{-k})/sqrt(2) is annihilated by the interaction for every
        # strength, so it evolves with the free phase even under varying alpha.
        prof = alpha_profile("trigonometric", amplitude=3.0)
        tdh = circle_delta_model(4, prof, TWO_PI)
        k = 2
        psi0 = np.zeros(9, dtype=complex)
        psi0[4 + k] = 1.0 / math.sqrt(2.0)
        psi0[4 - k] = -1.0 / math.sqrt(2.0)
        t = 1.3
        traj = propagate(tdh, psi0, 0.0, t, substeps=256)
        assert np.linalg.norm(traj.final - np.exp(-1j * k**2 * t) * psi0) < 1e-10

    def test_dyson_magnus_distance_within_second_order_envelope(self):
        prof = alpha_profile("trigonometric", amplitude=1.0)
        tdh = circle_delta_model(2, prof, 1.0)
        psi0 = np.zeros(5, dtype=complex)
        psi0[2] = 1.0
        steps = np.array([64, 128, 256])
        dists = []
        for N in steps:
            a = propagate(tdh, psi0, 0.0, 1.0, method="dyson", order=2, substeps=int(N))
            b = propagate(tdh, psi0, 0.0, 1.0, method="magnus2", substeps=int(N))
            dists.append(float(np.max(np.linalg.norm(a.states - b.states, axis=1))))
        slope = -np.polyfit(np.log(steps), np.log(dists), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.5)
        # the finest distance sits below the envelope extrapolated from the
        # two coarser runs
        fit_c = dists[0] * steps[0] ** 2
        assert dists[-1] <= 1.5 * fit_c / steps[-1] ** 2

    def test_zero_state_rejected(self):
        tdh = constant_family(np.eye(2))
        with pytest.raises(ArgumentError):
            propagate(tdh, np.zeros(2), 0.0, 1.0)

    def test_method_table_mismatch(self):
        tdh = constant_family(np.eye(2))
        table = reference_propagator(tdh, 0.0, 1.0, 8)
        with pytest.raises(ArgumentError):
            propagate(tdh, np.array([1.0, 0.0]), table=table, method="dyson")

    @staticmethod
    def _counted_family(dim):
        """A constant family of dimension ``dim`` and the list of times it was evaluated at."""
        calls = []
        tdh = TimeDependentHamiltonian(
            dim, lambda t: calls.append(t) or np.eye(dim), (0.0, 1.0), Semibound(0.0),
        )
        return tdh, calls

    @pytest.mark.parametrize("run", [propagate, final_state], ids=["propagate", "final_state"])
    def test_rejects_a_state_of_another_dimension(self, run):
        tdh, calls = self._counted_family(3)
        with pytest.raises(ArgumentError, match=r"shape \(5,\), expected \(3,\)"):
            run(tdh, np.ones(5), 0.0, 1.0)
        assert calls == []

    @pytest.mark.parametrize("run", [propagate, final_state], ids=["propagate", "final_state"])
    def test_rejects_a_column_state(self, run):
        tdh, calls = self._counted_family(3)
        with pytest.raises(ArgumentError, match=r"shape \(3, 1\), expected \(3,\)"):
            run(tdh, np.ones((3, 1)), 0.0, 1.0)
        assert calls == []

    def test_holds_no_table(self):
        # K = 16 with 2,048 magnus2 steps: the (2049, 33, 33) table alone would
        # take 35.7 MB; the trajectory's (2049, 33) states take 1.1 MB.
        tdh = circle_delta_model(16, alpha_profile("trigonometric", amplitude=1.0), TWO_PI)
        psi0 = np.eye(tdh.dim, dtype=complex)[16]
        tracemalloc.start()
        try:
            propagate(tdh, psi0, 0.0, TWO_PI, substeps=2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20


class TestWeakResidual:
    @staticmethod
    def _exact_trajectory(tdh, H, psi0, T, steps):
        times = np.linspace(0.0, T, steps + 1)
        table = reference_propagator(tdh, 0.0, T, steps)
        states = np.stack([unitary_exp(H, t) @ psi0 for t in times])
        from formevol import Trajectory

        return Trajectory(times, states, table.method, table.max_unitarity_defect())

    def test_constant_diagonal_residual_is_finite_difference_error(self):
        H = np.diag([0.0, 1.0, 4.0]).astype(complex)
        tdh = constant_family(H, T=1.0)
        psi0 = np.array([1, 1, 1], dtype=complex) / math.sqrt(3)
        errs = []
        for steps in (16, 32):
            traj = self._exact_trajectory(tdh, H, psi0, 1.0, steps)
            rep = weak_residual(tdh, traj, np.eye(3, dtype=complex))
            errs.append(rep.weak_residual)
        # exact trajectory: the only residual is the O(dt^2) discretization
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
        assert errs[0] < 4.0 / 16**2

    def test_norm_drift_zero_for_exact_phases(self):
        tdh = circle_delta_model(2, alpha_profile("constant", value=0.0), TWO_PI)
        psi0 = np.zeros(5, dtype=complex)
        psi0[2] = 1.0
        traj = propagate(tdh, psi0, 0.0, 1.0, substeps=64)
        rep = weak_residual(tdh, traj, np.eye(5, dtype=complex))
        assert rep.norm_drift < 1e-12

    def test_weak_equals_minus_defect_at_maximizer(self):
        # Pairing the defect vector with A^{-1} r / |A^{-1} r|_+ realizes the
        # dual norm, reconciling the weak and minus-norm strong residuals.
        prof = alpha_profile("trigonometric", amplitude=1.0)
        tdh = circle_delta_model(3, prof, TWO_PI)
        psi0 = np.ones(7, dtype=complex) / math.sqrt(7)
        traj = propagate(tdh, psi0, 0.0, 1.0, substeps=8)
        scale = tdh.scale_at(0.0)
        j = 3
        dt = traj.times[1] - traj.times[0]
        tm = 0.5 * (traj.times[j] + traj.times[j + 1])
        rvec = (traj.states[j + 1] - traj.states[j]) / dt + 1j * (
            tdh(tm) @ (0.5 * (traj.states[j] + traj.states[j + 1]))
        )
        phi_star = scale.apply_J(rvec)
        attained = abs(np.vdot(phi_star, rvec)) / scale.norm_plus(phi_star)
        assert attained == pytest.approx(scale.norm_minus(rvec), rel=1e-10)

    def test_needs_three_points(self):
        tdh = constant_family(np.eye(2))
        traj = propagate(tdh, np.array([1.0, 0.0]), 0.0, 1.0, substeps=1)
        from formevol import GridError

        with pytest.raises(GridError):
            weak_residual(tdh, traj, np.eye(2, dtype=complex))


class TestAxioms:
    def test_constant_exponentials_compose_exactly(self):
        rng = np.random.default_rng(4)
        H = random_hermitian(rng, 3)
        tdh = constant_family(H, T=1.0)
        outer = reference_propagator(tdh, 0.0, 1.0, 64)
        inner = reference_propagator(tdh, 0.5, 1.0, 32)
        rep = propagator_axioms(inner, from_r=outer)
        assert rep.identity_exact
        assert rep.composition_defect < 1e-12

    def test_dyson_composition_defect_scales_with_order(self):
        # The inner table uses a coarser step so the composed product does
        # not coincide factor-by-factor with the outer one.
        prof = alpha_profile("trigonometric", amplitude=1.0)
        tdh = circle_delta_model(2, prof, 1.0)
        defects = []
        for N in (16, 32, 64):
            outer = dyson_propagator(tdh, 0.0, 1.0, 2, N)
            inner = dyson_propagator(tdh, 0.5, 1.0, 2, N // 4)
            defects.append(propagator_axioms(inner, from_r=outer).composition_defect)
        slope = -np.polyfit(np.log([16, 32, 64]), np.log(defects), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.5)

    def test_step_increments_shrink_under_refinement(self):
        prof = alpha_profile("trigonometric", amplitude=1.0)
        tdh = circle_delta_model(3, prof, TWO_PI)
        incs = [
            propagator_axioms(reference_propagator(tdh, 0.0, 1.0, N)).max_step_increment
            for N in (8, 32, 128)
        ]
        assert incs[0] > incs[1] > incs[2]


class TestYosidaConvergence:
    def test_constant_family_matches_scalar_phase_model(self):
        H = np.diag([0.2, 1.0, 3.0]).astype(complex)
        tdh = constant_family(H, T=1.0)
        psi0 = np.array([0.0, 1.0, 0.0], dtype=complex)  # eigenvector, lam = 1
        study = yosida_convergence_study(tdh, [4, 16, 64], psi0, 0.0, 1.0, substeps=512)
        shift = tdh.semibound.m + 1.0
        lam = 1.0
        for n, err in zip(study.n_values, study.err_h):
            lam_n = lam * n / (n + lam + shift)
            oracle = abs(np.exp(-1j * lam) - np.exp(-1j * lam_n))
            assert err == pytest.approx(oracle, rel=1e-4)

    def test_large_n_beats_small_n_by_an_order(self):
        prof = alpha_profile("trigonometric", amplitude=1.0)
        tdh = circle_delta_model(2, prof, TWO_PI)
        psi0 = np.zeros(5, dtype=complex)
        psi0[2] = 1.0
        study = yosida_convergence_study(tdh, [4, 1024], psi0, 0.0, 2.0, substeps=512)
        assert study.err_h[1] < study.err_h[0] / 10.0

    def test_low_energy_states_converge_faster(self):
        prof = alpha_profile("trigonometric", amplitude=1.0)
        tdh = circle_delta_model(4, prof, TWO_PI)
        low = np.zeros(9, dtype=complex)
        low[4] = 1.0  # k = 0
        high = np.zeros(9, dtype=complex)
        high[0] = 1.0  # k = -4
        for n in (8, 32):
            s_low = yosida_convergence_study(tdh, [n], low, 0.0, 1.0, substeps=256)
            s_high = yosida_convergence_study(tdh, [n], high, 0.0, 1.0, substeps=256)
            assert s_low.err_h[0] < s_high.err_h[0]

    def test_rejects_unsorted_n_list(self):
        tdh = constant_family(np.eye(2))
        with pytest.raises(ArgumentError):
            yosida_convergence_study(tdh, [8, 4], np.array([1.0, 0.0]), 0.0, 1.0)

    def test_zero_errors_give_nan_ratios_without_warnings(self):
        # H = 0: every regularized propagator equals the reference exactly, so
        # each ratio would be 0/0.
        tdh = synthetic_family("constant", 2, 1.0, {"matrix": np.zeros((2, 2))})
        e0 = np.array([1.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            study = yosida_convergence_study(tdh, [2, 4], e0, 0.0, 1.0, substeps=8)
            columns = study.columns("n")
        assert list(columns) == ["n", "err_H", "err_plus", "ratio"]
        assert columns["n"].tolist() == [2, 4]
        assert columns["err_H"].tolist() == [0.0, 0.0]
        assert columns["err_plus"].tolist() == [0.0, 0.0]
        assert all(math.isnan(r) for r in columns["ratio"])


class TestUnitarityDefects:
    @pytest.mark.parametrize(
        "build",
        [
            lambda tdh: reference_propagator(tdh, 0.0, 1.0, 40),
            lambda tdh: reference_propagator(tdh, 0.0, 1.0, 33, scheme="magnus4"),
            lambda tdh: dyson_propagator(tdh, 0.0, 1.0, 2, 70),
        ],
    )
    def test_batched_defects_match_per_entry_loop(self, build, blocks_of_32):
        prof = alpha_profile("trigonometric", amplitude=1.0)
        tdh = circle_delta_model(3, prof, TWO_PI)
        blocks_of_32(tdh.dim)
        table = build(tdh)
        defects = table.diagnostics["unitarity_defect"]
        assert np.array_equal(defects, reference_unitarity_defects(table.matrices))


def edge_substeps(tdh, first=1):
    """Step counts around the edges of the step blocks at the family's dimension:
    (1, 31, 32, 33, 65) under ``blocks_of_32``."""
    b = block_size(tdh.dim)
    return (first, b - 1, b, b + 1, 2 * b + 1)


FAMILIES = {
    "sin": lambda: circle_delta_model(
        2, alpha_profile("trigonometric", amplitude=1.5, phase=0.3), TWO_PI
    ),
    "kink": lambda: circle_delta_model(
        2, alpha_profile("kink", center=2.0, amplitude=1.0), TWO_PI
    ),
    "table": lambda: circle_delta_model(
        2, alpha_profile("table", times=[0.0, 2.0, 4.0, TWO_PI], values=[0.0, 1.0, -0.5, 0.3]),
        TWO_PI,
    ),
    "rotating_frame": lambda: synthetic_family("rotating_frame", 4, 2.0, {"seed": 5}),
    "commuting_diagonal": lambda: synthetic_family("commuting_diagonal", 3, 1.0),
}


def assert_table_matches(table, reference):
    times, U, defects = reference
    assert np.array_equal(table.times, times)
    assert np.array_equal(table.matrices, U)
    assert np.array_equal(table.diagnostics["unitarity_defect"], defects)


def assert_trajectory_matches(traj, reference, psi0):
    """The streamed trajectory of ``psi0`` is the reference table applied to it, bit for bit."""
    times, U, defects = reference
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.states, np.einsum("jab,b->ja", U, psi0))
    assert traj.unitarity_defect == defects.max()


class TestBatchedSteps:
    """Blocked, stacked step evaluation against the per-step loops, bit for bit."""

    @pytest.mark.parametrize("scheme", ["magnus2", "magnus4"])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_reference_tables(self, family, scheme, blocks_of_32):
        tdh = FAMILIES[family]()
        blocks_of_32(tdh.dim)
        t1 = tdh.t_span[1]
        psi0 = random_unit_vector(np.random.default_rng(5), tdh.dim)
        for substeps in edge_substeps(tdh):
            table = reference_propagator(tdh, 0.0, t1, substeps, scheme=scheme)
            reference = reference_table(tdh, 0.0, t1, substeps, scheme)
            assert_table_matches(table, reference)
            traj = propagate(tdh, psi0, 0.0, t1, method=scheme, substeps=substeps)
            assert_trajectory_matches(traj, reference, psi0)

    @pytest.mark.parametrize("n", [4, 64])
    @pytest.mark.parametrize("family", ["sin", "kink", "rotating_frame"])
    def test_yosida_tables(self, family, n, blocks_of_32):
        tdh = FAMILIES[family]()
        blocks_of_32(tdh.dim)
        t1 = tdh.t_span[1]
        per_time = reference_yosida_family(tdh, n)
        psi0 = random_unit_vector(np.random.default_rng(5), tdh.dim)
        for scheme in ("magnus2", "magnus4"):
            for substeps in edge_substeps(tdh):
                options = {"method": "yosida", "substeps": substeps, "yosida_n": n,
                           "inner_scheme": scheme}
                table = build_table(tdh, 0.0, t1, **options)
                reference = reference_table(per_time, 0.0, t1, substeps, scheme)
                assert_table_matches(table, reference)
                assert_trajectory_matches(propagate(tdh, psi0, 0.0, t1, **options),
                                          reference, psi0)

    @pytest.mark.parametrize("yosida_n", [None, 8])
    @pytest.mark.parametrize("family", ["sin", "table", "rotating_frame"])
    def test_dyson_tables(self, family, yosida_n, blocks_of_32):
        tdh = FAMILIES[family]()
        blocks_of_32(tdh.dim)
        t1 = tdh.t_span[1]
        psi0 = random_unit_vector(np.random.default_rng(5), tdh.dim)
        for order in (2, 4):
            for substeps in edge_substeps(tdh):
                table = dyson_propagator(tdh, 0.0, t1, order, substeps, yosida_n=yosida_n)
                reference = reference_dyson_table(tdh, 0.0, t1, order, substeps, yosida_n)
                assert_table_matches(table, reference)
                traj = propagate(tdh, psi0, 0.0, t1, method="dyson", order=order,
                                 substeps=substeps, yosida_n=yosida_n)
                assert_trajectory_matches(traj, reference, psi0)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_weak_residual(self, family, blocks_of_32):
        tdh = FAMILIES[family]()
        blocks_of_32(tdh.dim)
        scale = tdh.scale_at(tdh.t_span[0])
        test = np.eye(tdh.dim, dtype=complex)[:2]
        psi0 = random_unit_vector(np.random.default_rng(3), tdh.dim)
        for substeps in edge_substeps(tdh, first=2):
            traj = propagate(tdh, psi0, 0.0, tdh.t_span[1], substeps=substeps)
            report = weak_residual(tdh, traj, test, scale=scale)
            expected, weak_local = reference_weak_residual(tdh, traj, test, scale)
            assert report.to_dict() == expected
            assert np.array_equal(report.weak_local, weak_local)

    def test_yosida_operator_on_a_stack(self):
        rng = np.random.default_rng(4)
        H = np.stack([random_hermitian(rng, 5, scale=10.0) for _ in range(7)])
        Hn = yosida_operator(H, 16, 30.0)
        for j in range(H.shape[0]):
            assert np.array_equal(Hn[j], reference_yosida_operator(H[j], 16, 30.0))


#: Propagation options of the state-path tests: every method, Dyson with and
#: without the Yosida regularization.
STATE_CASES = [
    {"method": "magnus2"},
    {"method": "magnus4"},
    {"method": "yosida", "yosida_n": 4},
    {"method": "yosida", "yosida_n": 64},
    {"method": "yosida", "yosida_n": 4, "inner_scheme": "magnus4"},
] + [
    {"method": "dyson", "order": order, "yosida_n": n} for order in (2, 4) for n in (None, 8)
]


class TestFinalState:
    """Steps applied to the state against the final row of the table."""

    @pytest.mark.parametrize("options", STATE_CASES, ids=lambda o: "-".join(map(str, o.values())))
    @pytest.mark.parametrize("family", ["sin", "kink", "rotating_frame"])
    def test_matches_the_table_path(self, family, options, blocks_of_32):
        tdh = FAMILIES[family]()
        blocks_of_32(tdh.dim)
        psi0 = random_unit_vector(np.random.default_rng(7), tdh.dim)
        t1 = tdh.t_span[1]
        for s, t in ((0.0, t1), (t1, 0.3)):  # forward, and backward from the end
            for substeps in edge_substeps(tdh):
                expected = propagate(tdh, psi0, s, t, substeps=substeps, **options).final
                state = final_state(tdh, psi0, s, t, substeps=substeps, **options)
                # Relative to the norm: one order-4 Dyson step over the circle's
                # whole span grows the state to ~1e4; the unitary methods keep 1.
                scale = max(1.0, float(np.linalg.norm(expected)))
                assert np.max(np.abs(state - expected)) <= 1e-13 * scale

    def test_holds_no_table(self):
        # K = 16 with 2,048 magnus2 steps: the (2049, 33, 33) table would take
        # 35.7 MB; the state path peaked at 3.0 MiB (block stacks and eigensolves).
        tdh = circle_delta_model(16, alpha_profile("trigonometric", amplitude=1.0), TWO_PI)
        psi0 = np.eye(tdh.dim, dtype=complex)[16]
        tracemalloc.start()
        try:
            final_state(tdh, psi0, 0.0, TWO_PI, substeps=2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_divergence_is_a_numerical_error_without_warnings(self):
        # configs/propagate_circle.ini at 64 steps with the order-4 expansion:
        # dt * |H| ~ 25, and the state's norm overflows by the end of the
        # second block of 30 steps (t = 5.89).
        tdh = circle_delta_model(16, alpha_profile("trigonometric", amplitude=1.0), TWO_PI)
        psi0 = np.eye(tdh.dim, dtype=complex)[16]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=r"not finite at t = .*raise substeps"):
                final_state(tdh, psi0, 0.0, TWO_PI, method="dyson", order=4, substeps=64)

    def test_rejects_what_the_table_path_rejects(self):
        tdh = constant_family(np.eye(2))
        psi0 = np.array([1.0, 0.0])
        for options in ({"method": "yosida"}, {"method": "euler"}, {"substeps": 0},
                        {"method": "dyson", "order": 5}):
            with pytest.raises(ArgumentError):
                propagate(tdh, psi0, 0.0, 1.0, **options)
            with pytest.raises(ArgumentError):
                final_state(tdh, psi0, 0.0, 1.0, **options)
        with pytest.raises(ArgumentError):
            final_state(tdh, np.zeros(2), 0.0, 1.0)


@pytest.fixture
def sweep_finals(monkeypatch):
    """``(ref, finals)``: the final states a Yosida sweep compares, the reference
    and one per ``n``, read off its call to ``YosidaStudy.against``."""
    seen = {}
    against = YosidaStudy.against

    def spy(cls, ref, n_values, finals, scale):
        seen["ref"], seen["finals"] = ref, np.array(finals)
        return against(ref, n_values, finals, scale)

    monkeypatch.setattr(YosidaStudy, "against", classmethod(spy))

    def run(*args, **kwargs):
        yosida_convergence_study(*args, **kwargs)
        return seen["ref"], seen["finals"]

    return run


class TestYosidaSweep:
    """The sweep's runs, carried together, against separate propagations."""

    @pytest.mark.parametrize("family", ["sin", "kink", "rotating_frame", "commuting_diagonal"])
    def test_rows_match_separate_propagations(self, family, sweep_finals, blocks_of_32):
        tdh = FAMILIES[family]()
        blocks_of_32(tdh.dim)
        psi0 = random_unit_vector(np.random.default_rng(11), tdh.dim)
        t1 = tdh.t_span[1]
        n_list = [1, 4, 64]
        for s, t in ((0.0, t1), (t1, 0.3)):  # forward, and backward from the end
            for substeps in edge_substeps(tdh):
                ref, finals = sweep_finals(tdh, n_list, psi0, s, t, substeps=substeps)
                expected = final_state(tdh, psi0, s, t, method="magnus2", substeps=substeps)
                assert np.max(np.abs(ref - expected)) <= 1e-13
                for n, final in zip(n_list, finals):
                    expected = final_state(tdh, psi0, s, t, method="yosida", yosida_n=n,
                                           substeps=substeps)
                    assert np.max(np.abs(final - expected)) <= 1e-13

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_row_zero_is_the_magnus2_final_state_bit_for_bit(self, family, sweep_finals,
                                                              blocks_of_32):
        # A step sweep on the same grid compares against this row instead of
        # propagating it again (runs.run_convergence).
        tdh = FAMILIES[family]()
        blocks_of_32(tdh.dim)
        psi0 = random_unit_vector(np.random.default_rng(12), tdh.dim)
        t1 = tdh.t_span[1]
        for s, t in ((0.0, t1), (t1, 0.3)):
            for substeps in edge_substeps(tdh):
                ref, _ = sweep_finals(tdh, [2, 16], psi0, s, t, substeps=substeps)
                expected = final_state(tdh, psi0, s, t, method="magnus2", substeps=substeps)
                assert np.array_equal(ref, expected)

    @pytest.mark.parametrize("n_list", [[4], [3, 9], [2, 4, 8, 16, 32, 64, 128]])
    @pytest.mark.parametrize("family", ["sin", "rotating_frame"])
    def test_step_matrices_are_each_runs_spectral_exp_bit_for_bit(self, family, n_list,
                                                                   blocks_of_32):
        # The runs share one product per step; each run's rows must round as
        # its own (d, d) product would.
        tdh = FAMILIES[family]()
        blocks_of_32(tdh.dim)
        n_arr = np.array(n_list)
        shift = tdh.semibound.m + 1.0
        times = np.linspace(*tdh.t_span, 2 * block_size(tdh.dim) + 2)
        for block, E in _sweep_steps(tdh, n_arr, times):
            a, b = times[:-1][block], times[1:][block]
            w, Q = np.linalg.eigh(tdh.stack(0.5 * (a + b)))
            assert E.shape == (len(w), n_arr.size + 1, tdh.dim, tdh.dim)
            assert np.array_equal(E[:, 0], _spectral_exp(w, Q, b - a))
            for r, n in enumerate(n_list, start=1):
                mapped = w / (1.0 + (w + shift) / n)
                assert np.array_equal(E[:, r], _spectral_exp(mapped, Q, b - a))

    def test_the_study_keeps_its_reference(self):
        tdh = FAMILIES["sin"]()
        psi0 = np.eye(tdh.dim, dtype=complex)[1]
        study = yosida_convergence_study(tdh, [4, 8], psi0, 0.0, 1.0, substeps=40)
        assert np.array_equal(study.reference,
                              final_state(tdh, psi0, 0.0, 1.0, method="magnus2", substeps=40))

    @pytest.mark.parametrize("n_list", [[4], [2, 4, 8, 16, 32, 64, 128]])
    def test_one_eigensolve_per_block_for_every_n(self, n_list, monkeypatch, blocks_of_32):
        tdh = FAMILIES["sin"]()
        d = tdh.dim
        blocks_of_32(d)
        b = block_size(d)
        shapes = []
        eigh = np.linalg.eigh

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        psi0 = np.eye(d, dtype=complex)[0]
        yosida_convergence_study(tdh, n_list, psi0, 0.0, 1.0, substeps=2 * b + 1)
        # One stack per block of steps, then the plus norm's scale.
        assert shapes == [(b, d, d), (b, d, d), (1, d, d), (d, d)]

    @pytest.mark.parametrize("n_list", [[0, 4], [-3]])
    def test_rejects_an_index_below_one(self, n_list):
        tdh = constant_family(np.eye(2))
        with pytest.raises(ArgumentError, match="positive integer"):
            yosida_convergence_study(tdh, n_list, np.array([1.0, 0.0]), 0.0, 1.0)

    def test_huge_eigenvalues_do_not_overflow(self):
        # n * lam overflows for lam = 1e307 and n = 64; lam / (1 + (lam + shift) / n) does not.
        tdh = synthetic_family("constant", 2, 1.0, {"matrix": np.diag([0.0, 1e307])})
        psi0 = np.array([1.0, 1.0]) / math.sqrt(2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            study = yosida_convergence_study(tdh, [4, 64], psi0, 0.0, 1.0, substeps=8)
        assert np.all(np.isfinite(study.err_h))
        assert np.all(np.isfinite(study.err_plus))

    @pytest.mark.parametrize("H, m, T, message", [
        # dt * lam overflows in the reference's phases.
        (np.diag([0.0, 1e307]), 0.0, 80.0, r"of H is not finite at t = 20\.0$"),
        # A semibound that does not hold puts lam = -5 on the pole of the map at n = 4.
        (np.diag([-5.0, 0.0]), 0.0, 1.0, r"of H_n, n = 4, is not finite at t = 0\.25$"),
    ])
    def test_non_finite_steps_are_a_numerical_error(self, H, m, T, message):
        tdh = TimeDependentHamiltonian(2, lambda t: H, (0.0, T), Semibound(m))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=message):
                yosida_convergence_study(tdh, [2, 4], np.array([1.0, 0.0]), 0.0, T,
                                         substeps=4)
