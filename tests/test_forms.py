import ast
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formevol import (
    ArgumentError,
    HermitianForm,
    NotHermitianError,
    NotPositiveDefiniteError,
    Semibound,
    SemiboundError,
    form_operator_norm,
    graph_norm,
    represent_form,
    semibound_of,
)
from formevol import forms
from formevol.forms import (
    blocks,
    count,
    eigh,
    eigvalsh,
    hermitian_spectral_norm,
    hermitize,
    map_blocks,
    tallying,
)
from formevol.models import CircleDeltaModel, alpha_profile

from helpers import random_hermitian, random_unit_vector


class TestRepresentation:
    def test_identity_form(self):
        rep = represent_form(HermitianForm(np.eye(3)))
        assert np.array_equal(rep.T, np.eye(3))

    def test_diagonal_form(self):
        G = np.diag([0.0, 1.0, 4.0])
        rep = represent_form(G)
        assert np.array_equal(rep.T, G.astype(complex))

    def test_basis_pair_roundtrip_random(self):
        rng = np.random.default_rng(42)
        G = random_hermitian(rng, 5)
        form = HermitianForm(G)
        rep = represent_form(form)
        basis = np.eye(5, dtype=complex)
        worst = max(
            abs(rep.expectation(basis[j], basis[k]) - form.value(basis[j], basis[k]))
            for j in range(5)
            for k in range(5)
        )
        assert worst < 1e-12

    def test_representing_operator_is_hermitian(self):
        rng = np.random.default_rng(3)
        rep = represent_form(random_hermitian(rng, 6))
        assert np.max(np.abs(rep.T - rep.T.conj().T)) < 1e-13

    def test_rejects_asymmetric_input(self):
        G = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(NotHermitianError) as err:
            represent_form(G)
        assert err.value.max_asymmetry == pytest.approx(2.0)

    def test_quadratic_form_real_on_random_vectors(self):
        rng = np.random.default_rng(7)
        form = HermitianForm(random_hermitian(rng, 4))
        for _ in range(20):
            v = random_unit_vector(rng, 4)
            assert abs(np.imag(form.value(v, v))) < 1e-13


class TestSemibound:
    def test_positive_form(self):
        assert semibound_of(HermitianForm(np.diag([1.0, 2.0]))).m == 0.0

    def test_diagonal_readoff(self):
        assert semibound_of(HermitianForm(np.diag([-3.0, 1.0]))).m == pytest.approx(3.0)

    def test_circle_delta_matches_dense_eigensolver(self):
        model = CircleDeltaModel(16, alpha_profile("constant", value=-10.0), 1.0)
        H = model.matrix(0.0)
        m = semibound_of(HermitianForm(H)).m
        lam_min = float(np.linalg.eigvalsh(H)[0])
        assert m == pytest.approx(-lam_min, abs=1e-12)
        assert m > 0


class TestGraphNorm:
    def test_reduces_to_vector_norm(self):
        form = HermitianForm(np.zeros((2, 2)))
        v = np.array([1.0, 0.0])
        assert graph_norm(form, Semibound(0.0), v) == pytest.approx(1.0)

    def test_scalar_example(self):
        form = HermitianForm(np.diag([3.0]))
        assert graph_norm(form, 0.0, np.array([1.0])) == pytest.approx(2.0)

    def test_semibound_saturation(self):
        form = HermitianForm(np.diag([-3.0, 1.0]))
        v = np.array([1.0, 0.0])
        assert graph_norm(form, Semibound(3.0), v) == pytest.approx(1.0)

    def test_invalid_semibound_raises(self):
        form = HermitianForm(np.diag([-3.0]))
        with pytest.raises(SemiboundError):
            graph_norm(form, 0.0, np.array([1.0]))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
    def test_dominates_vector_norm(self, n, seed):
        rng = np.random.default_rng(seed)
        form = HermitianForm(random_hermitian(rng, n))
        m = semibound_of(form)
        v = random_unit_vector(rng, n) * rng.uniform(0.1, 3.0)
        assert graph_norm(form, m, v) >= np.linalg.norm(v) - 1e-12


class TestFormOperatorNorm:
    def test_v_equals_a0(self):
        rng = np.random.default_rng(11)
        H = random_hermitian(rng, 4)
        A0 = H @ H.conj().T + np.eye(4)
        assert form_operator_norm(A0, A0) == pytest.approx(1.0, abs=1e-12)

    def test_zero(self):
        assert form_operator_norm(np.zeros((3, 3)), np.eye(3)) == 0.0

    def test_dominates_sampled_ratios_and_is_attained(self):
        rng = np.random.default_rng(23)
        n = 4
        V = random_hermitian(rng, n)
        B = random_hermitian(rng, n)
        A0 = B @ B.conj().T + np.eye(n)
        norm = form_operator_norm(V, A0)

        # sampling oracle: no ratio may exceed the closed form
        psi = rng.standard_normal((10_000, n)) + 1j * rng.standard_normal((10_000, n))
        phi = rng.standard_normal((10_000, n)) + 1j * rng.standard_normal((10_000, n))
        num = np.abs(np.einsum("sa,ab,sb->s", psi.conj(), V, phi))
        den = np.sqrt(
            np.real(np.einsum("sa,ab,sb->s", psi.conj(), A0, psi))
            * np.real(np.einsum("sa,ab,sb->s", phi.conj(), A0, phi))
        )
        assert np.all(num <= norm * den * (1.0 + 1e-12))

        # extremal vector attains the supremum
        w, Q = np.linalg.eigh(A0)
        inv_sqrt = (Q * w**-0.5) @ Q.conj().T
        S = inv_sqrt @ V @ inv_sqrt
        ws, Qs = np.linalg.eigh(0.5 * (S + S.conj().T))
        u = Qs[:, int(np.argmax(np.abs(ws)))]
        x = inv_sqrt @ u
        attained = abs(x.conj() @ V @ x) / np.real(x.conj() @ A0 @ x)
        assert attained == pytest.approx(norm, abs=1e-8)

    def test_homogeneous_and_sign_invariant(self):
        rng = np.random.default_rng(5)
        V = random_hermitian(rng, 5)
        B = random_hermitian(rng, 5)
        A0 = B @ B.conj().T + np.eye(5)
        base = form_operator_norm(V, A0)
        assert form_operator_norm(-V, A0) == pytest.approx(base, rel=1e-13)
        assert form_operator_norm(2.5 * V, A0) == pytest.approx(2.5 * base, rel=1e-12)

    def test_rejects_indefinite_weight(self):
        with pytest.raises(NotPositiveDefiniteError) as err:
            form_operator_norm(np.eye(2), np.diag([1.0, -2.0]))
        assert err.value.lambda_min == pytest.approx(-2.0)


class TestHermitianSpectralNorm:
    def test_stack_gives_the_norm_of_every_slice(self):
        rng = np.random.default_rng(8)
        stack = np.stack([random_hermitian(rng, 4) for _ in range(6)]).reshape(2, 3, 4, 4)
        norms = hermitian_spectral_norm(stack)
        assert norms.shape == (2, 3)
        for index in np.ndindex(2, 3):
            single = hermitian_spectral_norm(stack[index])
            assert isinstance(single, float)
            assert norms[index] == single

    def test_empty_inputs(self):
        assert hermitian_spectral_norm(np.zeros((0, 0))) == 0.0
        assert hermitian_spectral_norm(np.zeros((0, 4, 4))).shape == (0,)


class TestHermitizeStack:
    def test_slices_match_one_matrix_calls(self):
        rng = np.random.default_rng(9)
        stack = np.stack([random_hermitian(rng, 3) for _ in range(5)])
        stack[2, 0, 1] += 1e-15  # within tolerance, symmetrized away
        out = hermitize(stack)
        for j in range(stack.shape[0]):
            assert np.array_equal(out[j], hermitize(stack[j]))

    def test_each_slice_has_its_own_tolerance(self):
        # Slice 1's asymmetry 1e-10 is far within 1e-13 of slice 0's largest
        # entry 1e6, but must be judged against its own scale.
        stack = np.stack([1e6 * np.eye(2), np.eye(2)]).astype(complex)
        stack[1, 0, 1] = 1e-10
        with pytest.raises(NotHermitianError) as err:
            hermitize(stack, context=lambda j: f"slice {j}")
        assert "slice 1" in str(err.value)
        assert err.value.tolerance == pytest.approx(1e-13)
        assert hermitize(stack[:1]).shape == (1, 2, 2)

    def test_rejects_non_square_stacks(self):
        with pytest.raises(ArgumentError):
            hermitize(np.zeros((3, 2, 4)))
        with pytest.raises(ArgumentError):
            hermitize(np.zeros(4))


class TestHermitizeDtype:
    """The dtype of the input, never its values, decides real or complex arithmetic."""

    def test_real_input_stays_float64(self):
        M = np.array([[1.0, 2.0], [2.0 + 1e-15, -3.0]])
        out = hermitize(M)
        assert out.dtype == np.float64
        assert np.array_equal(out, 0.5 * (M + M.T))
        assert hermitize(np.stack([M, 2.0 * M])).dtype == np.float64
        assert hermitize([[1, 2], [2, 1]]).dtype == np.float64
        assert hermitize(M.astype(np.float32)).dtype == np.float64

    def test_complex_input_stays_complex_with_a_zero_imaginary_part(self):
        M = np.array([[1.0, 2.0], [2.0, -3.0]])
        for dtype in (np.complex64, np.complex128):
            out = hermitize(M.astype(dtype))
            assert out.dtype == np.complex128
            assert np.array_equal(out, M)

    def test_asymmetric_real_matrix_is_rejected(self):
        with pytest.raises(NotHermitianError):
            hermitize(np.array([[1.0, 1.0], [0.0, 1.0]]))
        stack = np.stack([np.eye(2), np.array([[1.0, 1e-9], [0.0, 1.0]])])
        with pytest.raises(NotHermitianError) as err:
            hermitize(stack, context=lambda j: f"slice {j}")
        assert "slice 1" in str(err.value)


class TestBlocks:
    def test_blocks_cover_the_range_in_order(self):
        for n, dim in [(0, 3), (1, 3), (257, 33), (1025, 3), (5, 200)]:
            covered = [i for block in blocks(n, dim) for i in range(n)[block]]
            assert covered == list(range(n))

    def test_block_size_by_entries_and_by_slices(self):
        assert blocks(100, 33)[0] == slice(0, 30)  # 2**15 // 33**2 entries
        assert blocks(1025, 3)[0] == slice(0, 256)  # the slice cap binds
        assert blocks(3, 200)[0] == slice(0, 1)  # at least one slice


class TestMapBlocks:
    def test_results_in_the_order_of_the_parts(self, cpus):
        cpus(2)
        parts = list(range(40))
        assert map_blocks(lambda p: p * p, parts) == [p * p for p in parts]
        assert map_blocks(lambda p: p, []) == []

    def test_every_part_runs_once_under_frequent_switches(self, cpus):
        cpus(8)  # more threads than this host's cores
        calls, interval = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = map_blocks(lambda p: calls.append(p) or np.full(3, p).sum(), range(2000))
        finally:
            sys.setswitchinterval(interval)
        assert results == [3 * p for p in range(2000)]
        assert sorted(calls) == list(range(2000))

    def test_raises_the_earliest_failing_part(self, cpus):
        cpus(2)
        failed = []

        def fn(part):
            if part == 1:
                time.sleep(0.2)
            if part in (1, 2):
                failed.append(part)
                raise ValueError(f"part {part}")
            return part

        with pytest.raises(ValueError, match="part 1"):
            map_blocks(fn, [1, 2, 3, 4])
        # Part 2 failed first, while part 1 was still running; part 1's error wins.
        assert failed == [2, 1]

    def test_caller_errstate_reaches_the_helper_threads(self, cpus):
        cpus(2)

        def overflow(part):
            time.sleep(0.02)  # long enough for the helper to take parts
            try:
                np.array([1e308]) * 10.0
            except FloatingPointError:
                return threading.get_ident()
            return None

        with np.errstate(over="raise"):
            raised_in = map_blocks(overflow, range(8))
        assert None not in raised_in
        assert threading.get_ident() in raised_in and len(set(raised_in)) == 2

    def test_one_cpu_starts_no_thread(self, cpus, monkeypatch):
        cpus(1)

        def start(thread):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", start)
        caller = threading.get_ident()
        assert map_blocks(lambda p: threading.get_ident(), range(5)) == [caller] * 5


class TestTally:
    def test_count_outside_tallying_does_nothing(self):
        count("steps", 3)
        eigvalsh(np.eye(2))
        with tallying() as counts:
            pass
        count("steps", 3)  # after the block: its dict stays as it was
        assert counts == {}

    def test_counts_add_or_combine(self):
        with tallying() as counts:
            count("steps", 3)
            count("steps", 4)
            count("threads", 2, max)
            count("threads", 1, max)
        assert counts == {"steps": 7, "threads": 2}

    def test_an_inner_tally_counts_apart(self):
        with tallying() as outer:
            count("steps", 1)
            with tallying() as inner:
                count("steps", 2)
            count("steps", 4)
        assert (outer, inner) == ({"steps": 5}, {"steps": 2})

    def test_solvers_count_every_slice_and_return_numpys_values(self):
        A = random_hermitian(np.random.default_rng(3), 4)
        stack = np.stack([A, 2.0 * A, -A])
        with tallying() as counts:
            w, Q = eigh(stack)
            values = eigvalsh(A)
        assert counts == {"eigensolved_mats": 4}
        expected_w, expected_Q = np.linalg.eigh(stack)
        assert np.array_equal(w, expected_w) and np.array_equal(Q, expected_Q)
        assert np.array_equal(values, np.linalg.eigvalsh(A))

    def test_helper_threads_count_into_the_callers_tally(self, cpus):
        cpus(2)
        with tallying() as counts:
            map_blocks(lambda part: count("parts", 1) or time.sleep(0.01), range(8))
        assert counts == {"parts": 8, "threads": 2}


#: The LAPACK Hermitian eigensolvers that only ``forms.eigh`` and ``forms.eigvalsh`` call.
SOLVERS = ("eigh", "eigvalsh")


def direct_solves(path):
    """Line numbers in ``path`` that reach a ``linalg`` Hermitian eigensolver directly,
    by attribute or by import, outside the bodies of ``forms``' counted solvers."""
    tree = ast.parse(Path(path).read_text(encoding="utf-8"))
    counted = set()
    if Path(path).name == "forms.py":
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in SOLVERS:
                counted.update(id(inner) for inner in ast.walk(node))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in SOLVERS:
            direct = ast.unparse(node.value).endswith("linalg")
        elif isinstance(node, ast.ImportFrom):
            direct = (node.module or "").endswith("linalg") and any(
                alias.name in SOLVERS for alias in node.names)
        else:
            continue
        if direct and id(node) not in counted:
            lines.append(node.lineno)
    return sorted(lines)


class TestCountedSolvers:
    """Every eigensolve in formevol goes through ``forms.eigh`` or ``forms.eigvalsh``,
    so ``eigensolved_mats`` misses none."""

    SOURCES = sorted(Path(forms.__file__).parent.glob("*.py"))

    @pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
    def test_no_module_calls_a_solver_directly(self, path):
        assert direct_solves(path) == []

    def test_the_scan_finds_direct_calls(self, tmp_path):
        source = tmp_path / "module.py"
        source.write_text("import numpy as np\nimport scipy.linalg\n"
                          "from numpy.linalg import eigvalsh\n"
                          "w = np.linalg.eigh(A)\nv = scipy.linalg.eigh(A)\n"
                          "u = numpy.linalg.eigvalsh\nx = forms.eigh(A)\n")
        assert direct_solves(source) == [3, 4, 5, 6]

    def test_the_scan_sees_the_counted_solvers_call_numpy(self, tmp_path):
        source = tmp_path / "forms.py"
        source.write_text(Path(forms.__file__).read_text(encoding="utf-8").replace(
            "def eigh(", "def uncounted("))
        assert len(direct_solves(source)) == 1
