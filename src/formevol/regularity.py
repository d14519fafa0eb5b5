"""Grid-based regularity audits for time-dependent Hamiltonians.

Three executable audits probe the hypotheses under which unitary dynamics
exist for a family ``H(t)`` with a fixed form domain:

* ``check_S1`` -- uniform two-sided comparability of the shifted quadratic
  forms ``A(t) = H(t) + (m + 1) I`` against a reference time, measured as the
  best norm-equivalence constant on the grid (its square bounds the quadratic
  pencil ratios).
* ``check_S2`` -- the sandwiched derivative bound
  ``sup_t |A(t)^{-1/2} dH/dt A(t)^{-1/2}|``, computed redundantly through the
  derivative of the inverse and cross-checked (the two expressions are equal
  operators up to sign).
* ``check_K2`` -- continuity moduli of ``t -> d^n H/dt^n`` in the plus/minus
  operator norm on dyadic separations.  A finite sample cannot prove
  smoothness; the moduli are numerical evidence, reported with explicit
  thresholds, never a proof.

One walk over the grid, :func:`_grid_pass`, computes every per-time number
of the three audits at once; ``bridge_check`` reads all of it, and each of
``s1_pencil_profile``, ``check_S1``, ``s2_profile``, ``check_S2`` and
``check_K2`` reads its own part, so each costs one full walk and all agree bit
for bit.  The walk evaluates the grid in the blocks of :func:`forms.blocks`,
bounded in matrix entries and in points: each block is stacked and goes through batched
LAPACK calls and products, which treat every slice exactly as a one-point
call would, while the block bounds the temporaries.  The blocks are independent,
so :func:`forms.map_blocks` runs them concurrently, one thread per usable CPU
with the caller as one of them; LAPACK and the products release the GIL, and
each block computes exactly what it would alone, so the results do not depend
on the thread count.  The family's callables are never entered by two threads
at once (see :class:`models.TimeDependentHamiltonian`).  Reports are sorted by
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridError, NotPositiveDefiniteError, NumericalError
from .forms import blocks, count, eigh, eigvalsh, hermitian_spectral_norm, hermitize, map_blocks

#: Machine scale used by the K2 "modulus is numerically zero" test.
_EPS = float(np.finfo(float).eps)

#: Smallest normal float: absolute floor of the squared K2 pair bounds.
_TINY = float(np.finfo(float).tiny)

#: Agreement tolerance between the two derivative-bound formulas.
S2_CONSISTENCY_TOL = 1e-10

#: Default number of uniform audit grid points.
DEFAULT_GRID_POINTS = 257


def uniform_grid(t0, t1, points) -> np.ndarray:
    if points < 2:
        raise GridError(f"need at least 2 grid points, got {points}")
    if not t1 > t0:
        raise GridError(f"empty interval [{t0}, {t1}]")
    return np.linspace(t0, t1, int(points))


def audit_grid(tdh, points=DEFAULT_GRID_POINTS, refine_near=()) -> np.ndarray:
    """Uniform audit grid over the span, optionally refined near flagged times.

    For each flagged time, extra points at the five dyadic offsets ``h / 2 .. h / 32``
    (``h`` the grid step) are inserted on both sides, clipped to the span.
    """
    t0, t1 = tdh.t_span
    grid = uniform_grid(t0, t1, points)
    if refine_near:
        h = (t1 - t0) / (points - 1)
        offsets = h / 2.0 ** np.arange(1, 6)
        extra = np.add.outer(refine_near, np.concatenate([-offsets, offsets]))
        grid = np.unique(np.concatenate([grid, extra[(extra >= t0) & (extra <= t1)]]))
    return grid


# ---------------------------------------------------------------------------
# Derivatives
# ---------------------------------------------------------------------------


def differentiate_form(tdh, t, h_step=None) -> np.ndarray:
    """Central finite difference ``(H(t+h) - H(t-h)) / 2h``, symmetrized.

    One Richardson extrapolation level is applied, giving fourth-order
    accuracy for smooth families.  ``t - h`` and ``t + h`` must both lie
    inside the span; steps below ``1e-8 * span`` are rejected as underflow.
    """
    return _central_difference(tdh, np.array([t], dtype=float), h_step)[0]


def _central_difference(tdh, times, h=None):
    """:func:`differentiate_form` at each of ``times``, stacked."""
    t0, t1 = tdh.t_span
    span = t1 - t0
    h = span * 1e-4 if h is None else float(h)
    if h < 1e-8 * span:
        raise GridError(f"finite-difference step {h:.3e} underflows (span {span:.3e})")
    outside = np.flatnonzero((times - h < t0 - 1e-15) | (times + h > t1 + 1e-15))
    if outside.size:
        t = times[outside[0]]
        raise GridError(f"stencil [{t - h}, {t + h}] leaves the span [{t0}, {t1}]")
    up, down, half_up, half_down = (tdh.stack(times + s) for s in (h, -h, h / 2.0, -h / 2.0))
    D = (up - down) / (2.0 * h)
    D = (4.0 * ((half_up - half_down) / (2.0 * (h / 2.0))) - D) / 3.0
    return hermitize(D, rtol=np.inf)


def _fd_derivative(tdh, times, h):
    """Second-order derivative estimates at each of ``times``, valid up to the span boundary.

    Central differences where ``[t - h, t + h]`` fits in the span, else
    one-sided ones on ``t, t + s, t + 2s``: forward (``s = h``) at the left
    edge, backward (``s = -h``) at the right.  The numerator is kept per
    side, not divided by ``2s``, so an exactly cancelled one stays ``+0.0``.
    """
    t0, t1 = tdh.t_span
    inner = (times - h >= t0) & (times + h <= t1)
    forward = times + 2 * h <= t1
    stuck = np.flatnonzero(~inner & ~forward & (times - 2 * h < t0))
    if stuck.size:
        raise GridError(f"span too short for a finite-difference stencil at t = {times[stuck[0]]}")
    # An empty set asks the family for nothing: its float64 stand-in leaves
    # ``D``'s dtype to the other set, float64 or complex128 as hermitize makes it.
    central = one_sided = np.empty((0, tdh.dim, tdh.dim))
    if inner.any():
        central = _central_difference(tdh, times[inner], h)
    if not inner.all():
        edge, forward = times[~inner], forward[~inner]
        s = np.where(forward, h, -h)
        H0, H1, H2 = tdh.stack(edge), tdh.stack(edge + s), tdh.stack(edge + 2 * s)
        numerator = np.where(
            forward[:, None, None], -3.0 * H0 + 4.0 * H1 - H2, 3.0 * H0 - 4.0 * H1 + H2
        )
        one_sided = hermitize(numerator / (2.0 * h), rtol=np.inf)
    D = np.empty((times.size, tdh.dim, tdh.dim), dtype=np.result_type(central, one_sided))
    D[inner], D[~inner] = central, one_sided
    return D


def _derivative_stack(tdh, grid, order):
    """``d^n H / dt^n``, ``n = order`` in 0..2, at every grid time, stacked.

    Without an analytic derivative the first falls back to :func:`_fd_derivative`,
    the second to a central difference at the time clamped into ``[t0 + h, t1 - h]``,
    on the analytic first derivative when there is one; ``h = span * 1e-4``.
    """
    D = tdh.stack(grid, order)
    if D is not None:
        return D
    t0, t1 = tdh.t_span
    h = (t1 - t0) * 1e-4
    if order == 1:
        return _fd_derivative(tdh, grid, h)
    tc = np.clip(grid, t0 + h, t1 - h)
    if tdh.has_derivative:
        D2 = (_derivative_stack(tdh, tc + h, 1) - _derivative_stack(tdh, tc - h, 1)) / (2.0 * h)
    else:
        H = [_derivative_stack(tdh, t, 0) for t in (tc + h, tc, tc - h)]
        D2 = (H[0] - 2.0 * H[1] + H[2]) / (h * h)
    return 0.5 * (D2 + D2.conj().swapaxes(-1, -2))


def _require_positive(lowest, times):
    """Raise at the first time whose shifted form is not positive definite."""
    bad = np.flatnonzero(lowest <= 0.0)
    if bad.size:
        raise NotPositiveDefiniteError(lowest[bad[0]], context=f"A({times[bad[0]]})")


def _sandwich(factor, D):
    """Hermitian part of ``factor @ D[j] @ factor`` for each slice."""
    S = factor @ D @ factor
    return 0.5 * (S + S.conj().swapaxes(-1, -2))


#: The per-time columns of :func:`_grid_pass`, in the order its blocks compute them.
_COLUMNS = ("pencil_min", "pencil_max", "unit_shift_min", "unit_shift_max",
            "s2_local", "s2_local_alt", "lowest", "W")


def _grid_pass(tdh, grid, t0=None, k2_order=1):
    """The one walk over the blocks of ``grid`` that every audit reads.

    Checks the grid and the reference time ``t0``, default the start of the
    span; the semibound holds on the span only, so a time outside it is
    refused.  Each block stacks ``H`` and ``dH/dt`` once and computes, per
    time, the extremes of the pencils against ``A(t0)`` and ``A(t0) + I``
    (the reference form with an extra ambient-norm term), both derivative
    bounds with ``A``'s lowest eigenvalue, and the K2 stack ``W``:
    ``d^n H/dt^n``, ``n = k2_order``, sandwiched by ``A(t0)^{-1/2}``, which
    reuses ``H`` or ``dH/dt`` for ``n`` 0 or 1.  Returns a dict of the checked
    ``grid``, ``t_ref``, ``factor = A(t0)^{-1/2}`` and the :data:`_COLUMNS`,
    each in grid order.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise GridError(f"grid must be a 1-d array with >= 2 points, got shape {grid.shape}")
    if np.any(np.diff(grid) <= 0):
        raise GridError("grid must be strictly increasing")
    start, stop = tdh.t_span
    if grid[0] < start - 1e-12 or grid[-1] > stop + 1e-12:
        raise GridError(
            f"grid [{grid[0]}, {grid[-1]}] exceeds the Hamiltonian span [{start}, {stop}]"
        )
    t_ref = start if t0 is None else float(t0)
    if not start <= t_ref <= stop:
        raise GridError(f"reference time t0 = {t_ref} lies outside the span [{start}, {stop}]")
    scale = tdh.scale_at(t_ref)
    factor, unit_shift = scale.power_matrix(-0.5), scale.power_matrix(-0.5, shift=1.0)
    shift = (tdh.semibound.m + 1.0) * np.eye(tdh.dim)

    def block(part):
        times = grid[part]
        H = tdh.stack(times)
        A = H + shift
        pencils = (*_pencil_extremes(A, factor, times), *_pencil_extremes(A, unit_shift, times))
        Hdot = _derivative_stack(tdh, times, 1)
        bounds = _derivative_bounds(A, Hdot, times)
        if k2_order in (0, 1):
            D = Hdot if k2_order else H
        else:
            D = _derivative_stack(tdh, times, k2_order)
        return (*pencils, *bounds, _sandwich(factor, D))

    parts = map_blocks(block, blocks(grid.size, tdh.dim))
    columns = {name: np.concatenate(column) for name, column in zip(_COLUMNS, zip(*parts))}
    return {"grid": grid, "t_ref": t_ref, "factor": factor, **columns}


# ---------------------------------------------------------------------------
# S1: uniform comparability against a reference time
# ---------------------------------------------------------------------------


def _pencil_extremes(A, factor, times):
    """Smallest and largest eigenvalues of the pencils ``(A[j], A_ref)``, ``factor = A_ref^{-1/2}``,
    from the batched eigensolve of ``factor A[j] factor``.  By Sylvester's law of
    inertia the lowest has the sign of ``A[j]``'s lowest eigenvalue."""
    w = eigvalsh(factor @ A @ factor)
    _require_positive(w[:, 0], times)
    return w[:, 0], w[:, -1]


def s1_pencil_profile(tdh, grid, t0=None):
    """Extremal eigenvalues of the pencil ``(A(t), A(t0))`` along the grid."""
    audit = _grid_pass(tdh, grid, t0)
    return audit["pencil_min"], audit["pencil_max"]


def _s1_constant(lo, hi):
    return float(np.sqrt(max(hi.max(), 1.0 / lo.min())))


def check_S1(tdh, grid, t0=None) -> float:
    """Best grid constant ``C`` with ``C^{-1} |v|_{+,t0} <= |v|_{+,t} <= C |v|_{+,t0}``.

    ``C**2`` is then the smallest constant bounding the quadratic-form pencil
    ``(A(t), A(t0))`` two-sidedly on the grid; the reference time defaults to
    the start of the span.
    """
    return _s1_constant(*s1_pencil_profile(tdh, grid, t0))


# ---------------------------------------------------------------------------
# S2: sandwiched derivative bound with redundant evaluation
# ---------------------------------------------------------------------------


def s2_profile(tdh, grid):
    """Pointwise derivative bounds computed two independent ways.

    Returns ``(direct, via_inverse)`` where ``direct[j]`` is
    ``|A^{-1/2} Hdot A^{-1/2}|`` at ``grid[j]`` and ``via_inverse[j]`` is
    ``|A^{1/2} B A^{1/2}|`` with ``B = d/dt A^{-1} = -A^{-1} Hdot A^{-1}``.
    The two are equal operators up to sign, so the computed values must agree
    to :data:`S2_CONSISTENCY_TOL`; disagreement raises ``NumericalError``.
    """
    audit = _grid_pass(tdh, grid)
    return audit["s2_local"], audit["s2_local_alt"]


def _derivative_bounds(A, Hdot, times):
    """Both derivative bounds at each slice, checked to agree, and ``A``'s lowest eigenvalue."""
    w, Q = eigh(A)
    _require_positive(w[:, 0], times)
    lowest = w[:, 0]
    w, Qh = w[:, None, :], Q.conj().swapaxes(-1, -2)
    direct = hermitian_spectral_norm(_sandwich((Q * (1.0 / np.sqrt(w))) @ Qh, Hdot))
    inv = (Q * (1.0 / w)) @ Qh
    dual = hermitian_spectral_norm(_sandwich((Q * np.sqrt(w)) @ Qh, -inv @ Hdot @ inv))
    bad = np.flatnonzero(np.abs(direct - dual) > S2_CONSISTENCY_TOL * np.maximum(1.0, direct))
    if bad.size:
        j = bad[0]
        raise NumericalError(
            f"derivative-bound formulas disagree at t = {times[j]}: "
            f"{direct[j]:.15e} vs {dual[j]:.15e}"
        )
    return direct, dual, lowest


def check_S2(tdh, grid) -> float:
    """Supremum over the grid of the sandwiched derivative bound."""
    direct, _ = s2_profile(tdh, grid)
    return float(direct.max())


# ---------------------------------------------------------------------------
# K2: continuity moduli of the n-th derivative in the +/- operator norm
# ---------------------------------------------------------------------------


#: Most pairs per batched eigensolve in the K2 branch and bound: each band's
#: walk eigensolves one pair, then doubles the batch up to this size.
_K2_CHUNK = 32


def _frobenius_norms(rows):
    """Euclidean norms of the rows as ``(mantissa, exponent)`` for ``np.ldexp``.

    Each row is scaled by a power of two before squaring, so the squares
    neither underflow nor overflow; an all-zero row has norm exactly 0.
    """
    _, exponent = np.frexp(np.max(np.abs(rows), axis=1))
    scaled = np.ldexp(rows, -exponent[:, None])
    return np.sqrt(np.einsum("pk,pk->p", scaled, scaled)), exponent


def _k2_moduli(W, grid):
    """The moduli of :func:`check_K2` from ``W``, the sandwiched stack on ``grid``.

    The modulus at ``delta`` is the maximum spectral distance over grid pairs
    ``i < j`` with ``t_j - t_i <= delta`` (up to a relative 1e-12), each
    distance being ``max |eigvalsh(W_i - W_j)|`` exactly as a full scan would
    compute it.  Branch and bound: the Frobenius norm bounds the spectral norm
    from above, so a pair whose bound (with a rounding margin) cannot exceed
    the running maximum is never eigensolved.  Bounds come first from one Gram
    product, ``|W_i - W_j|_F^2 = |W_i|^2 + |W_j|^2 - 2 Re<W_i, W_j>``, then
    from the difference itself just before its eigensolve.  The bands are
    walked from the finest separation outward, carrying the maximum, since
    each level set contains the finer ones.  A band's first batch is one pair,
    its best bound, and each next batch doubles up to :data:`_K2_CHUNK`: the
    first maxima usually prune the rest of the band.  Counts ``k2_pairs``, the
    pairs on the grid, and ``k2_exact_pairs``, the pairs eigensolved.
    """
    if not np.all(np.isfinite(W)):
        raise NumericalError("K2 stack has non-finite entries")
    span = float(grid[-1] - grid[0])
    mean_h = span / (grid.size - 1)
    n_levels = max(1, int(math.floor(math.log2(span / (2.0 * mean_h)))) + 1)
    deltas = [span / 2.0**j for j in range(n_levels)]
    thresholds = np.array([delta * (1.0 + 1e-12) for delta in deltas])
    N, d = W.shape[0], W.shape[1]
    # Relative margin for the roundoff of the norms, the Gram product and the
    # eigensolver; the absolute term covers squares that underflow.
    slack = 16.0 * d * d * _EPS
    # Rows of a real stack as they are; a complex one's real and imaginary parts side by side.
    flat = W.reshape(N, -1)
    flat = np.concatenate([flat.real, flat.imag], axis=1) if np.iscomplexobj(W) else flat.copy()
    # Scaled in place and without an abs() copy: the largest array of an audit.
    _, exponent = np.frexp(max(flat.max(), -flat.min()))
    np.ldexp(flat, -exponent, out=flat)
    sq = np.einsum("ik,ik->i", flat, flat)
    gram = flat @ flat.T
    del flat  # released before the band walk, which needs only W and the bounds
    I, J = np.triu_indices(N, k=1)
    scale = sq[I] + sq[J]
    bound_sq = np.maximum(scale - 2.0 * gram[I, J], 0.0) + slack * scale + _TINY
    bound = np.ldexp(np.sqrt(bound_sq) * (1.0 + slack), exponent)
    # Finest band containing each pair: the last threshold not below its separation.
    band = thresholds.size - 1 - np.searchsorted(thresholds[::-1], grid[J] - grid[I], side="left")

    maxima = np.zeros(thresholds.size)
    running = 0.0
    exact = 0
    for b in range(thresholds.size - 1, -1, -1):
        members = np.flatnonzero(band == b)
        members = members[np.argsort(-bound[members], kind="stable")]
        start, size = 0, 1
        while start < members.size:
            chunk = members[start : start + size]
            start, size = start + size, min(2 * size, _K2_CHUNK)
            chunk = chunk[bound[chunk] > running]
            if chunk.size == 0:
                break
            diffs = W[I[chunk]] - W[J[chunk]]
            frob, scale_exp = _frobenius_norms(diffs.view(float).reshape(chunk.size, -1))
            diffs = diffs[np.ldexp(frob * (1.0 + slack), scale_exp) > running]
            if diffs.shape[0]:
                exact += diffs.shape[0]
                running = max(running, float(hermitian_spectral_norm(diffs).max()))
        maxima[b] = running
    count("k2_pairs", int(I.size))
    count("k2_exact_pairs", exact)
    return [(delta, float(omega)) for delta, omega in zip(deltas, maxima)]


def check_K2(tdh, grid, order=1, t0=None):
    """Continuity moduli ``omega(delta)`` of the ``order``-th derivative.

    For each dyadic separation ``delta`` (full grid span halved down to twice
    the mean spacing), ``omega(delta)`` is the maximum of
    ``|V^(n)(t) - V^(n)(t')|`` in the plus/minus operator norm (measured
    against the scale at ``t0``, default the start of the span) over grid
    pairs with ``|t - t'| <= delta``.  Returns ``[(delta, omega), ...]`` with
    ``delta`` descending.  A decreasing trend toward zero is evidence (not
    proof) that the family is ``C^n``.

    Each modulus is the exact maximum, found by branch and bound: a pair's
    Frobenius norm bounds its spectral norm from above, so only pairs whose
    bound can still beat the running maximum are eigensolved.  The cost
    therefore scales with the pairs that survive pruning, not with all
    ``N (N - 1) / 2`` of them.
    """
    if np.size(grid) < 8:
        raise GridError(f"K2 audit needs >= 8 grid points, got {np.size(grid)}")
    audit = _grid_pass(tdh, grid, t0, order)
    return _k2_moduli(audit["W"], audit["grid"])


def k2_verdict(moduli, reference_norm, slope_min=0.9):
    """Decide the smoothness audit from the moduli.

    Passes when the smallest-separation modulus is numerically zero
    (below ``10 * eps * reference_norm``) or when a log-log fit over the
    finest separations has slope at least ``slope_min`` (the modulus decays
    toward zero at a definite rate).  Returns ``(passed, details)``.
    """
    deltas = np.array([d for d, _ in moduli])
    omegas = np.array([w for _, w in moduli])
    zero_floor = 10.0 * _EPS * max(reference_norm, 1.0)
    plateau = float(omegas[-1])
    details = {
        "plateau": plateau,
        "zero_floor": zero_floor,
        "slope": float("nan"),
        "slope_min": slope_min,
    }
    if plateau <= zero_floor:
        return True, details
    tail = min(4, len(moduli))
    d_tail, w_tail = deltas[-tail:], omegas[-tail:]
    positive = w_tail > 0
    if np.count_nonzero(positive) >= 2:
        slope, _ = np.polyfit(np.log(d_tail[positive]), np.log(w_tail[positive]), 1)
        details["slope"] = float(slope)
        if slope >= slope_min:
            return True, details
    return False, details


# ---------------------------------------------------------------------------
# Combined report
# ---------------------------------------------------------------------------


@dataclass
class AssumptionReport:
    """Side-by-side record of the three audits on one grid.

    ``s1_constant`` is the norm-level equivalence constant; its square
    ``s1_operator_constant`` bounds the quadratic pencil, and
    ``s1_constant_unit_shift`` repeats the computation against
    ``A(t0) + I`` (reference norm with an extra ambient term) since the two
    conventions differ by at most a modest factor and both are informative.
    ``verdicts`` maps audit name to a dict with ``pass`` plus the numbers
    the decision was based on.
    """

    t0: float
    k2_order: int
    s1_constant: float
    s1_operator_constant: float
    s1_constant_unit_shift: float
    s2_bound: float
    k2_modulus: list
    verdicts: dict
    per_t: dict = field(default_factory=dict)

    def to_dict(self):
        names = ("t0", "k2_order", "s1_constant", "s1_operator_constant",
                 "s1_constant_unit_shift", "s2_bound", "verdicts")
        summary = {name: getattr(self, name) for name in names}
        return {**summary, "k2_modulus": [[d, w] for d, w in self.k2_modulus]}


def bridge_check(tdh, grid, t0=None, k2_order=1, slope_min=0.9) -> AssumptionReport:
    """Run all three audits and record the implication structure.

    A family whose inner products vary smoothly must also satisfy the
    comparability and derivative bounds; the reverse fails (a bounded but
    discontinuous derivative passes the derivative-bound audit while the
    smoothness audit detects the plateau).  The embedding half of the
    smoothness hypothesis holds automatically here: every shifted form is a
    positive definite matrix on the full coefficient space.  The returned
    report always carries verdicts; nothing raises on a failed audit.

    Every number comes from the one :func:`_grid_pass`, but the K2 reference
    norm at the midpoint of the span when that is no grid time, and the
    neighbour moduli ``k2_local``, taken from the pass's stack.
    """
    audit = _grid_pass(tdh, grid, t0, k2_order)
    grid, W = audit["grid"], audit["W"]
    lo, hi = audit["pencil_min"], audit["pencil_max"]
    c_norm = _s1_constant(lo, hi)
    c_unit = _s1_constant(audit["unit_shift_min"], audit["unit_shift_max"])
    s2_bound = float(audit["s2_local"].max())

    moduli = _k2_moduli(W, grid)
    mid = 0.5 * (grid[0] + grid[-1])
    k_mid = int(np.searchsorted(grid, mid))
    W_mid = W[k_mid] if grid[k_mid] == mid else _sandwich(
        audit["factor"], _derivative_stack(tdh, np.array([mid]), k2_order))[0]
    ref_norms = [hermitian_spectral_norm(S) for S in (W[0], W_mid, W[-1])]
    k2_pass, k2_details = k2_verdict(moduli, max(ref_norms), slope_min=slope_min)

    s1_pass = bool(np.isfinite(c_norm))
    s2_pass = bool(np.isfinite(s2_bound))
    verdicts = {
        "S1": {"pass": s1_pass, "constant": c_norm},
        "S2": {"pass": s2_pass, "bound": s2_bound},
        "K2": {"pass": k2_pass, **k2_details},
        # Smoothness passing must force the other two audits to pass.
        "bridge": {"pass": (not k2_pass) or (s1_pass and s2_pass)},
    }

    # Local modulus between grid neighbours, for per-time diagnostics.
    neighbours = map_blocks(lambda block: hermitian_spectral_norm(W[1:][block] - W[:-1][block]),
                            blocks(grid.size - 1, tdh.dim))
    k2_local = np.concatenate([[0.0], *neighbours])

    per_t = dict(lambda_min=audit["lowest"] - (tdh.semibound.m + 1.0), pencil_min=lo,
                 pencil_max=hi, s2_local=audit["s2_local"], s2_local_alt=audit["s2_local_alt"],
                 k2_local=k2_local)
    return AssumptionReport(
        t0=audit["t_ref"], k2_order=k2_order, s1_constant=c_norm,
        s1_operator_constant=c_norm**2, s1_constant_unit_shift=c_unit, s2_bound=s2_bound,
        k2_modulus=moduli, verdicts=verdicts, per_t=per_t)
