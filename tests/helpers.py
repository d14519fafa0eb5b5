"""Shared construction helpers for the test suite."""

import math
from collections import Counter
from itertools import combinations_with_replacement

import numpy as np
import scipy.linalg

from formevol import (
    CircleDeltaModel,
    HilbertScale,
    Semibound,
    TimeDependentHamiltonian,
    build_scale,
)
from formevol.errors import GridError
from formevol.forms import blocks, hermitian_spectral_norm, hermitize
from formevol.propagators import _CF4_C, _CF4_D, _node_count, _ordered_degrees


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


def block_size(dim):
    """Slices per block of ``dim x dim`` matrices, read off ``forms.blocks``."""
    return blocks(1, dim)[0].stop


# ---------------------------------------------------------------------------
# Scalar formulas of the profile kinds.  The library writes each kind's
# alpha, alpha' and alpha'' once, as numpy expressions over arrays of times;
# these are the ``math``-module formulas it used one scalar time at a time,
# and the arrays must equal them bit for bit.
# ---------------------------------------------------------------------------


def reference_profile(profile, t, order):
    """``d^n alpha/dt^n`` at one time, ``n = order`` in 0..2, as a float; ``None``
    for an order the kind does not offer."""
    k, p = profile.kind, profile.params
    t = float(t)
    if k == "constant":
        return float(p.get("value", 0.0)) if order == 0 else 0.0
    if k == "polynomial":
        P = np.polynomial.polynomial
        c = p["coeffs"] if order == 0 else P.polyder(np.asarray(p["coeffs"], dtype=float), order)
        return float(P.polyval(t, c))
    if k == "trigonometric":
        a = p.get("amplitude", 1.0)
        w = p.get("frequency", 1.0)
        ph = p.get("phase", 0.0)
        if order == 0:
            return float(a * math.sin(w * t + ph) + p.get("offset", 0.0))
        if order == 1:
            return float(a * w * math.cos(w * t + ph))
        return float(-a * w * w * math.sin(w * t + ph))
    if k == "kink":
        a = p.get("amplitude", 1.0)
        if order == 0:
            return float(a * abs(t - p["center"]) + p.get("offset", 0.0))
        # Bounded a.e. derivative; the corner itself reports 0.
        return float(a * np.sign(t - p["center"])) if order == 1 else None
    if k == "rough_c0":
        a = p.get("amplitude", 1.0)
        s = p.get("scale", 1.0)
        if order == 2:
            return None
        if t == 0.0:
            return 0.0
        if order == 0:
            return float(a * t * t * math.sin(s / t))
        return float(a * (2.0 * t * math.sin(s / t) - s * math.cos(s / t)))
    return float(np.interp(t, p["times"], p["values"])) if order == 0 else None


# ---------------------------------------------------------------------------
# Per-time callables of the affine model kinds.  The library stacks these
# families by one broadcast of scalar coefficients; the callables are the
# per-time matrices the models were built from before, and the stacks must
# equal them, symmetrized, bit for bit.
# ---------------------------------------------------------------------------


def reference_callables(tdh):
    """``(H, dH/dt, d2H/dt2)`` per-time callables of a circle, ``constant``,
    ``commuting_diagonal`` or ``rotating_frame`` family, in the family's dtype;
    ``None`` for a derivative it does not offer."""
    model = tdh.source
    if isinstance(model, CircleDeltaModel):
        kinetic = np.diag(model.mode_numbers**2.0)
        ones = np.ones((model.dim, model.dim))
        a = model.alpha
        return (
            lambda t: kinetic + (reference_profile(a, t, 0) / (2.0 * math.pi)) * ones,
            (lambda t: (reference_profile(a, t, 1) / (2.0 * math.pi)) * ones)
            if a.has_derivative
            else None,
            (lambda t: (reference_profile(a, t, 2) / (2.0 * math.pi)) * ones)
            if a.has_second_derivative
            else None,
        )
    if model.kind == "constant":
        H0 = model.params["matrix"]
        return lambda t: H0, lambda t: np.zeros_like(H0), lambda t: np.zeros_like(H0)
    if model.kind == "commuting_diagonal":
        offsets, rates = model.params["offsets"], model.params["rates"]
        n = offsets.size
        return (
            lambda t: np.diag(offsets + rates * t),
            lambda t: np.diag(rates),
            lambda t: np.zeros((n, n)),
        )
    if model.kind == "rotating_frame":
        # The library's rotation group, one time at a time: R(t) = V e^{-iwt} V*
        # from the eigenpairs of i Om, and dH/dt = Om H - H Om.
        H0, Om = model.params["matrix"], model.params["omega"]
        w, V = np.linalg.eigh(1j * Om)
        Vh = V.conj().T

        def Hfun(t):
            R = (V * np.exp(-1j * w * t)) @ Vh
            return R @ H0 @ R.conj().T

        def Hdot(t):
            H = Hfun(t)
            return Om @ H - H @ Om

        return Hfun, Hdot, None
    raise ValueError(f"no reference callables for {tdh!r}")


# ---------------------------------------------------------------------------
# The scipy forms of the rotating frame.  The library builds its unitary
# groups from one Hermitian eigendecomposition each; these are the
# matrix-exponential forms it replaced, equal up to roundoff.
# ---------------------------------------------------------------------------


def reference_rotating_frame(tdh, t):
    """``(H(t), dH/dt)`` of a ``rotating_frame`` family from ``R(t) = expm(Om t)``."""
    H0, Om = (tdh.source.params[key] for key in ("matrix", "omega"))
    R = scipy.linalg.expm(Om * t)
    H = R @ H0 @ R.conj().T
    return H, Om @ H - H @ Om


def reference_rotating_propagator(tdh, s, t):
    """``U(t, s) = e^{Om t} e^{-(Om + i H0)(t - s)} e^{-Om s}`` as three ``expm``."""
    H0, Om = (tdh.source.params[key] for key in ("matrix", "omega"))
    expm = scipy.linalg.expm
    return expm(Om * t) @ expm(-(Om + 1j * H0) * (t - s)) @ expm(-Om * s)


def generic_twin(tdh):
    """The same family on the per-time callable path of ``TimeDependentHamiltonian``:
    its :func:`reference_callables` through the constructor's adapter."""
    fn, d1, d2 = reference_callables(tdh)
    return TimeDependentHamiltonian(
        tdh.dim, fn, tdh.t_span, tdh.semibound, derivative_fn=d1, second_derivative_fn=d2,
        label=tdh.label, source=tdh.source,
    )


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


# ---------------------------------------------------------------------------
# Per-point reference loops of the audit and of the table defects.  The
# library evaluates the time grid in blocks with batched LAPACK calls and
# products; these loops are the one-matrix-at-a-time originals it must match
# bit for bit.
# ---------------------------------------------------------------------------


def reference_fd_derivative(tdh, t, h):
    """Second-order finite-difference derivative at one time, valid up to the
    span boundary: Richardson central differences inside, one-sided at the edges."""
    t0, t1 = tdh.t_span
    if t - h >= t0 and t + h <= t1:
        def central(step):
            return (tdh(t + step) - tdh(t - step)) / (2.0 * step)

        D = central(h)
        D = (4.0 * central(h / 2.0) - D) / 3.0
    elif t + 2 * h <= t1:  # left edge, forward one-sided
        D = (-3.0 * tdh(t) + 4.0 * tdh(t + h) - tdh(t + 2 * h)) / (2.0 * h)
    elif t - 2 * h >= t0:  # right edge, backward one-sided
        D = (3.0 * tdh(t) - 4.0 * tdh(t - h) + tdh(t - 2 * h)) / (2.0 * h)
    else:
        raise GridError(f"span too short for a finite-difference stencil at t = {t}")
    return hermitize(D, rtol=np.inf)


def reference_derivative(tdh, t, order):
    """``d^n H/dt^n`` at one time, analytic if offered, else finite differences."""
    if order == 0:
        return tdh(t)
    t0, t1 = tdh.t_span
    h = (t1 - t0) * 1e-4
    if order == 1:
        D = tdh.derivative(t)
        return reference_fd_derivative(tdh, t, h) if D is None else D
    D2 = tdh.second_derivative(t)
    if D2 is not None:
        return D2
    tc = min(max(t, t0 + h), t1 - h)
    if tdh.has_derivative:
        D2 = (tdh.derivative(tc + h) - tdh.derivative(tc - h)) / (2.0 * h)
    else:
        D2 = (tdh(tc + h) - 2.0 * tdh(tc) + tdh(tc - h)) / (h * h)
    return hermitize(D2, rtol=np.inf)


def reference_pencil_extremes(tdh, grid, factor):
    """Extremes of the pencils ``(A(t), A_ref)`` from ``factor = A_ref^{-1/2}``."""
    lo = np.empty(grid.size)
    hi = np.empty(grid.size)
    for j, t in enumerate(grid):
        w = np.linalg.eigvalsh(factor @ tdh.shifted(t) @ factor)
        lo[j], hi[j] = w[0], w[-1]
    return lo, hi


def reference_s2_profile(tdh, grid):
    direct = np.empty(grid.size)
    dual = np.empty(grid.size)
    for j, t in enumerate(grid):
        Hdot = reference_derivative(tdh, t, 1)
        w, Q = np.linalg.eigh(tdh.shifted(t))
        inv_sqrt = (Q * (1.0 / np.sqrt(w))) @ Q.conj().T
        S = inv_sqrt @ Hdot @ inv_sqrt
        direct[j] = hermitian_spectral_norm(0.5 * (S + S.conj().T))
        inv = (Q * (1.0 / w)) @ Q.conj().T
        sqrtA = (Q * np.sqrt(w)) @ Q.conj().T
        S2 = sqrtA @ (-inv @ Hdot @ inv) @ sqrtA
        dual[j] = hermitian_spectral_norm(0.5 * (S2 + S2.conj().T))
    return direct, dual


def reference_sandwiched_stack(tdh, grid, order, t0=None):
    t_ref = tdh.t_span[0] if t0 is None else float(t0)
    inv_sqrt = tdh.scale_at(t_ref).power_matrix(-0.5)
    mats = []
    for t in grid:
        S = inv_sqrt @ reference_derivative(tdh, t, order) @ inv_sqrt
        mats.append(0.5 * (S + S.conj().T))
    return np.stack(mats)


def reference_audit_profiles(tdh, grid, order, t0=None):
    """Per-time audit profiles, one grid point at a time."""
    t_ref = tdh.t_span[0] if t0 is None else float(t0)
    scale = tdh.scale_at(t_ref)
    lo, hi = reference_pencil_extremes(tdh, grid, scale.power_matrix(-0.5))
    lo_u, hi_u = reference_pencil_extremes(tdh, grid, scale.power_matrix(-0.5, shift=1.0))
    direct, dual = reference_s2_profile(tdh, grid)
    W = reference_sandwiched_stack(tdh, grid, order, t_ref)
    k2_local = np.zeros(grid.size)
    for j in range(1, grid.size):
        k2_local[j] = np.max(np.abs(np.linalg.eigvalsh(W[j] - W[j - 1])))
    return {
        "pencil_min": lo,
        "pencil_max": hi,
        "unit_shift_min": lo_u,
        "unit_shift_max": hi_u,
        "s2_local": direct,
        "s2_local_alt": dual,
        "W": W,
        # The lowest eigenvalue of A(t) from the derivative bound's eigh, unshifted.
        "lambda_min": np.array(
            [np.linalg.eigh(tdh.shifted(t))[0][0] - (tdh.semibound.m + 1.0) for t in grid]
        ),
        "k2_local": k2_local,
    }


def reference_rayleigh_max_ratio(tdh, grid, t0, samples):
    """The audit's Rayleigh cross-check in complex arithmetic whatever the
    family's dtype: ``Re x* A x`` from one complex product per sampled time."""
    denom = np.real(np.einsum("va,va->v", samples.conj() @ tdh.shifted(t0), samples))
    worst = 0.0
    for At in tdh.shifted(grid[:: max(1, grid.size // 32)]):
        num = np.real(np.einsum("va,va->v", samples.conj() @ At, samples))
        worst = max(worst, float(np.max(num / denom)), float(np.max(denom / num)))
    return worst


def reference_unitarity_defects(U):
    eye = np.eye(U.shape[-1])
    defects = np.empty(U.shape[0])
    for j in range(U.shape[0]):
        G = U[j].conj().T @ U[j] - eye
        defects[j] = hermitian_spectral_norm(0.5 * (G + G.conj().T))
    return defects


# ---------------------------------------------------------------------------
# Per-step reference loops of the propagators.  The library stacks the nodes
# of a block of steps through ``TimeDependentHamiltonian.stack`` and runs
# batched eigensolves and products; these loops evaluate one time and one
# matrix at a time, as the propagators did before, and must agree bit for bit.
# ---------------------------------------------------------------------------


def _exp(H, dt):
    w, Q = np.linalg.eigh(H)
    return (Q * np.exp(-1j * dt * w)) @ Q.conj().T


def reference_yosida_operator(H, n, shift):
    w, Q = np.linalg.eigh(H + shift * np.eye(H.shape[0]))
    Hn = (Q * ((w - shift) * n / (n + w))) @ Q.conj().T
    return 0.5 * (Hn + Hn.conj().T)


def reference_yosida_family(tdh, n):
    """``t -> H_n(t)`` evaluated one time at a time through a per-time callable."""
    shift = tdh.semibound.m + 1.0
    return TimeDependentHamiltonian(
        tdh.dim, lambda t: reference_yosida_operator(tdh(t), n, shift),
        tdh.t_span, tdh.semibound,
    )


def reference_table(tdh, s, t, substeps, scheme="magnus2"):
    """``(times, U, unitarity defects)`` of the per-step magnus2/magnus4 loop."""
    times = np.linspace(float(s), float(t), substeps + 1)
    mats = [np.eye(tdh.dim, dtype=complex)]
    for j in range(substeps):
        a, b = times[j], times[j + 1]
        dt, mid = b - a, 0.5 * (a + b)
        if scheme == "magnus2":
            E = _exp(tdh(mid), dt)
        else:
            h1 = tdh(mid - math.sqrt(3.0) / 6.0 * dt)
            h2 = tdh(mid + math.sqrt(3.0) / 6.0 * dt)
            E = _exp(_CF4_C * h1 + _CF4_D * h2, dt) @ _exp(_CF4_D * h1 + _CF4_C * h2, dt)
        mats.append(E @ mats[-1])
    U = np.stack(mats)
    return times, U, reference_unitarity_defects(U)


def reference_axioms(table, from_r=None):
    """``(composition defect, max step increment)`` of ``propagator_axioms``, one
    table time and one basis vector at a time."""
    defect = 0.0
    if from_r is not None:
        U_sr = from_r.at(table.s)
        for j, tj in enumerate(table.times):
            D = table.matrices[j] @ U_sr - from_r.at(tj)
            defect = max(defect, float(np.linalg.norm(D, 2)))
    increments = np.diff(table.matrices, axis=0)
    max_inc = 0.0
    for psi in np.eye(table.dim, dtype=complex)[:3]:
        vals = np.linalg.norm(np.einsum("jab,b->ja", increments, psi), axis=1)
        if vals.size:
            max_inc = max(max_inc, float(vals.max()))
    return defect, max_inc


def reference_simplex_term(evals, weight, p):
    """Sum of time-ordered products over nondecreasing node tuples, one tuple at a time.

    ``evals`` are the per-node matrices in ascending node time; tuples with
    repeated nodes pick up the inverse factorial of each multiplicity (the
    volume fraction of the hypercube cell below the ordering boundary).  This
    is the degree-``p`` term that ``propagators._ordered_degrees`` computes by
    a recursion over the nodes.
    """
    M = len(evals)
    n = evals[0].shape[0]
    acc = np.zeros((n, n), dtype=complex)
    for combo in combinations_with_replacement(range(M), p):
        prod = evals[combo[-1]]
        for idx in reversed(combo[:-1]):
            prod = prod @ evals[idx]
        frac = 1.0
        for mult in Counter(combo).values():
            frac /= math.factorial(mult)
        acc += frac * prod
    return acc * weight**p


def reference_dyson_table(tdh, s, t, order, substeps, yosida_n=None):
    """``(times, U, unitarity defects)`` of the per-step, per-node Dyson loop.

    Each step evaluates its nodes one time at a time and runs the library's
    node recursion on that step alone, with the node counts of the nominal step.
    """
    if yosida_n is None:
        evaluate = tdh
    else:
        shift = tdh.semibound.m + 1.0
        evaluate = lambda tau: reference_yosida_operator(tdh(tau), yosida_n, shift)
    n = tdh.dim
    times = np.linspace(float(s), float(t), substeps + 1)
    counts = [_node_count(abs(float(t) - float(s)) / substeps, order, p)
              for p in range(1, order + 1)]
    tops = {M: p for p, M in enumerate(counts, start=1)}
    mats = [np.eye(n, dtype=complex)]
    for j in range(substeps):
        a, b = times[j], times[j + 1]
        dt = b - a
        degrees = {}
        for M, top in tops.items():
            nodes = a + (np.arange(M) + 0.5) * dt / M
            degrees[M] = _ordered_degrees([dt / M * evaluate(tau)[None] for tau in nodes], top)
        step = np.eye(n, dtype=complex)
        for p, M in enumerate(counts, start=1):
            step = step + (-1j) ** p * degrees[M][p - 1][0]
        mats.append(step @ mats[-1])
    U = np.stack(mats)
    return times, U, reference_unitarity_defects(U)


def reference_weak_residual(tdh, trajectory, test, scale):
    """``(report dict, weak_local)`` of the per-midpoint residual loop."""
    times, states = trajectory.times, trajectory.states
    dt = np.diff(times)[0]
    mids = 0.5 * (times[:-1] + times[1:])
    weak_local, strong_h, strong_minus = np.empty((3, mids.size))
    sq_sum = 0.0
    for j, tm in enumerate(mids):
        dpsi = (states[j + 1] - states[j]) / dt
        mid_state = 0.5 * (states[j] + states[j + 1])
        rvec = dpsi + 1j * (tdh(tm) @ mid_state)
        vals = np.abs(test.conj() @ rvec)
        weak_local[j] = float(vals.max())
        sq_sum += float(np.sum(vals**2))
        strong_h[j] = float(np.linalg.norm(rvec))
        strong_minus[j] = scale.norm_minus(rvec)
    report = {
        "weak_residual": float(weak_local.max()),
        "weak_residual_l2": float(np.sqrt(sq_sum / (mids.size * test.shape[0]))),
        "strong_residual": float(strong_h.max()),
        "strong_residual_minus": float(strong_minus.max()),
        "norm_drift": trajectory.norm_drift(),
    }
    return report, weak_local
