import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formevol import (
    HilbertScale,
    Semibound,
    SemiboundError,
    build_scale,
    duality_constant,
    equivalence_constant,
    pairing,
)
from formevol.models import CircleDeltaModel, alpha_profile

from helpers import random_hermitian, random_scale, random_unit_vector


class TestBuildScale:
    def test_zero_hamiltonian(self):
        scale = build_scale(np.zeros((3, 3)), Semibound(0.0))
        assert np.allclose(scale.A, np.eye(3))
        assert scale.shift == 1.0

    def test_diagonal(self):
        scale = build_scale(np.diag([-3.0, 1.0]), Semibound(3.0))
        assert np.allclose(scale.A, np.diag([1.0, 5.0]))

    def test_circle_delta_floor_saturates(self):
        model = CircleDeltaModel(16, alpha_profile("constant", value=-10.0), 1.0)
        H = model.matrix(0.0)
        m = -float(np.linalg.eigvalsh(H)[0])
        scale = build_scale(H, Semibound(m))
        lam_min = float(scale.eigenvalues[0])
        assert 1.0 - 1e-9 <= lam_min <= 1.0 + 1e-9

    def test_invalid_semibound_rejected(self):
        with pytest.raises(SemiboundError):
            build_scale(np.diag([-3.0, 1.0]), Semibound(1.0))

    def test_spectral_reconstruction(self):
        rng = np.random.default_rng(1)
        scale = random_scale(rng, 6)
        Q, w = scale.eigenvectors, scale.eigenvalues
        assert np.max(np.abs(Q.conj().T @ Q - np.eye(6))) < 1e-12
        rebuilt = (Q * w) @ Q.conj().T
        assert np.max(np.abs(rebuilt - scale.A)) < 1e-11 * np.max(np.abs(scale.A))


class TestNormsAndPairing:
    def test_identity_scale_norms_coincide(self):
        scale = HilbertScale.from_operator(np.eye(4))
        v = random_unit_vector(np.random.default_rng(0), 4)
        assert scale.norm_plus(v) == pytest.approx(1.0)
        assert scale.norm_minus(v) == pytest.approx(1.0)

    def test_scalar_scale(self):
        scale = HilbertScale.from_operator(np.array([[4.0]]))
        v = np.array([1.0])
        assert scale.norm_plus(v) == pytest.approx(2.0)
        assert scale.norm_minus(v) == pytest.approx(0.5)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_pairing_bound(self, seed):
        rng = np.random.default_rng(seed)
        scale = random_scale(rng, 6)
        psi = random_unit_vector(rng, 6) * rng.uniform(0.1, 2.0)
        phi = random_unit_vector(rng, 6) * rng.uniform(0.1, 2.0)
        assert abs(pairing(psi, phi)) <= scale.norm_minus(psi) * scale.norm_plus(phi) * (
            1.0 + 1e-12
        )

    def test_sandwich_between_norms(self):
        rng = np.random.default_rng(9)
        scale = random_scale(rng, 5)
        for _ in range(10):
            v = random_unit_vector(rng, 5) * rng.uniform(0.5, 2.0)
            nv = np.linalg.norm(v)
            assert scale.norm_minus(v) <= nv * (1 + 1e-12)
            assert nv <= scale.norm_plus(v) * (1 + 1e-12)


class TestPowersAndDuality:
    def test_identity_scale_j_is_identity(self):
        scale = HilbertScale.from_operator(np.eye(3))
        v = np.arange(3, dtype=complex)
        assert np.allclose(scale.apply_J(v), v)

    def test_sqrt_diagonal(self):
        scale = HilbertScale.from_operator(np.diag([4.0, 9.0]))
        out = scale.apply_power(0.5, np.array([1.0, 1.0]))
        assert np.allclose(out, [2.0, 3.0])

    def test_half_power_composition(self):
        rng = np.random.default_rng(13)
        scale = random_scale(rng, 5)
        v = random_unit_vector(rng, 5)
        out = scale.apply_power(0.5, scale.apply_power(-0.5, v))
        assert np.linalg.norm(out - v) < 1e-11

    def test_j_isometry(self):
        rng = np.random.default_rng(17)
        scale = random_scale(rng, 6)
        for _ in range(10):
            v = random_unit_vector(rng, 6) * rng.uniform(0.1, 3.0)
            assert scale.norm_plus(scale.apply_J(v)) == pytest.approx(
                scale.norm_minus(v), abs=1e-11
            )


class TestEquivalenceConstants:
    def test_equal_scales(self):
        rng = np.random.default_rng(2)
        scale = random_scale(rng, 4)
        assert equivalence_constant(scale, scale).c == pytest.approx(1.0, abs=1e-12)
        assert duality_constant(scale, scale).c == pytest.approx(1.0, abs=1e-12)

    def test_scalar_multiple(self):
        s1 = HilbertScale.from_operator(np.eye(3))
        s2 = HilbertScale.from_operator(4.0 * np.eye(3))
        assert equivalence_constant(s1, s2).c == pytest.approx(2.0)
        # minus-norm ratios are identically 1/4, giving the same constant
        assert duality_constant(s1, s2).c == pytest.approx(2.0)

    def test_crossed_diagonal(self):
        s1 = HilbertScale.from_operator(np.diag([1.0, 2.0]))
        s2 = HilbertScale.from_operator(np.diag([2.0, 1.0]))
        res = equivalence_constant(s1, s2)
        assert sorted(res.spectrum) == pytest.approx([0.5, 2.0])
        assert res.c == pytest.approx(np.sqrt(2.0))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_duality_law(self, seed):
        rng = np.random.default_rng(seed)
        s1 = random_scale(rng, 6)
        s2 = random_scale(rng, 6)
        plus = equivalence_constant(s1, s2)
        minus = duality_constant(s1, s2)
        assert abs(plus.c - minus.c) < 1e-10
        # pencil spectra are reciprocal: ascending lambdas times descending mus
        prod = np.sort(plus.spectrum) * np.sort(minus.spectrum)[::-1]
        assert np.max(np.abs(prod - 1.0)) < 1e-10

    def test_sharpness_at_extremal_vectors(self):
        rng = np.random.default_rng(31)
        s1 = random_scale(rng, 5)
        s2 = random_scale(rng, 5)
        res = equivalence_constant(s1, s2)
        hi = s2.norm_plus(res.vec_max) / s1.norm_plus(res.vec_max)
        lo = s2.norm_plus(res.vec_min) / s1.norm_plus(res.vec_min)
        assert hi == pytest.approx(np.sqrt(res.lambda_max), abs=1e-8)
        assert lo == pytest.approx(np.sqrt(res.lambda_min), abs=1e-8)
        # both one-sided inequalities are tight within the constant
        assert hi <= res.c * (1 + 1e-10)
        assert 1.0 / lo <= res.c * (1 + 1e-10)


class TestPencilAgainstScipy:
    """The pencils are reduced through numpy's Cholesky factor and ``eigh``; on
    random pairs they match ``scipy.linalg.eigh(A2, A1)`` to roundoff and keep
    its normalisation ``V* A1 V = I``.  Measured up to d = 33 with spreads up
    to 50: spectra within 1.2e-15 of their largest modulus, ``V* A1 V`` within
    4.3e-15 of ``I``; the tests allow 1e-13 and 1e-12."""

    @pytest.mark.parametrize("n", [2, 5, 17, 33])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_plus_and_minus_pencils(self, n, seed):
        import scipy.linalg

        rng = np.random.default_rng(seed)
        s1, s2 = (random_scale(rng, n, spread=rng.uniform(0.0, 50.0)) for _ in range(2))
        for constant, A2, A1 in [
            (equivalence_constant(s1, s2), s2.A, s1.A),
            (duality_constant(s1, s2), s2.power_matrix(-1.0), s1.power_matrix(-1.0)),
        ]:
            w, V = scipy.linalg.eigh(A2, A1)
            assert np.max(np.abs(constant.spectrum - w)) <= 1e-13 * np.max(np.abs(w))
            assert constant.c == pytest.approx(max(np.sqrt(w[-1]), 1.0 / np.sqrt(w[0])),
                                               rel=1e-13)
            X = np.column_stack([constant.vec_min, constant.vec_max])
            assert np.max(np.abs(X.conj().T @ A1 @ X - np.eye(2))) <= 1e-12
            # The extremes are simple, so each vector is scipy's up to a phase.
            overlaps = np.abs(np.diag(X.conj().T @ A1 @ V[:, [0, -1]]))
            assert np.max(np.abs(overlaps - 1.0)) <= 1e-10
