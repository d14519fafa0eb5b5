"""Shared construction helpers for the test suite."""

import math

import numpy as np

from formevol import HilbertScale, Semibound, build_scale


def random_hermitian(rng, n, scale=1.0):
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (M + M.conj().T)


def random_scale(rng, n, spread=2.0) -> HilbertScale:
    """Random scale with eigenvalues in roughly [1, 1 + spread + ...]."""
    H = random_hermitian(rng, n)
    lam_min = float(np.linalg.eigvalsh(H)[0])
    m = max(0.0, -lam_min) + rng.uniform(0.0, spread)
    return build_scale(H, Semibound(m))


def random_unit_vector(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def brute_force_k2_moduli(W, grid):
    """Reference K2 moduli: eigensolve every grid pair, then mask by separation.

    ``W`` is the sandwiched stack on ``grid``; the levels and the separation
    test are those of ``check_K2``.
    """
    N = W.shape[0]
    dist = np.zeros((N, N))
    pairs = [(i, j) for i in range(N) for j in range(i + 1, N)]
    chunk = 2048
    for start in range(0, len(pairs), chunk):
        batch = pairs[start : start + chunk]
        diffs = np.stack([W[i] - W[j] for i, j in batch])
        norms = np.max(np.abs(np.linalg.eigvalsh(diffs)), axis=1)
        for (i, j), d in zip(batch, norms):
            dist[i, j] = d
    seps = np.abs(grid[None, :] - grid[:, None])

    span = float(grid[-1] - grid[0])
    mean_h = span / (grid.size - 1)
    n_levels = max(1, int(math.floor(math.log2(span / (2.0 * mean_h)))) + 1)
    moduli = []
    upper = np.triu_indices(N, k=1)
    d_flat = dist[upper]
    s_flat = seps[upper]
    for j in range(n_levels):
        delta = span / 2.0**j
        mask = s_flat <= delta * (1.0 + 1e-12)
        omega = float(d_flat[mask].max()) if np.any(mask) else 0.0
        moduli.append((delta, omega))
    return moduli
