"""Unitary propagators for time-dependent Hamiltonians.

Two families of schemes are provided:

* exponential-midpoint and fourth-order commutator-free exponential schemes
  ("magnus2"/"magnus4"): each step applies exact exponentials of Hermitian
  matrices via the spectral decomposition, so the tables are unitary up to
  eigensolver roundoff and serve as the reference;
* truncated time-ordered (Dyson) expansions of order 1..4, optionally applied
  to the bounded resolvent regularization ``H_n = H (1 + A/n)^{-1}`` (Yosida
  approximant of the shifted positive operator, with the shift's image
  removed).  Truncation makes a Dyson step non-unitary at the order of the
  local error; the defect is recorded as a diagnostic and never renormalized,
  since unitarity is only recovered in the limit.

Diagnostics cover the propagator axioms (composition through an intermediate
time, identity at equal times, grid-level strong continuity), weak and strong
residuals of trajectories, norm conservation, and the convergence of the
resolvent-regularized dynamics as ``n`` grows.

Steps are evaluated in the blocks of :func:`forms.blocks`, bounded in matrix
entries and in steps: each block's nodes are stacked by
:meth:`TimeDependentHamiltonian.stack` (for ``H_n``, the Yosida map of a stack
of ``H``), one node index for every step of the block at once, and
exponentiated by batched eigensolves or, for Dyson, combined by a recursion
over the nodes.  Only applying the steps is sequential.  One walker composes
``U[j+1] = E_j U[j]`` a block at a time and checks each row's unitarity:
:func:`build_table` keeps the rows, and :func:`propagate` only the states
``U_j psi0`` and the largest defect (a Dyson one keeps its table, small
wherever the expansion converges).  The convergence sweeps apply each step
to a vector (:func:`final_state`).  The Yosida sweep
(:func:`yosida_convergence_study`) carries the reference and every ``H_n``
together: ``H_n`` is a spectral function of ``H``, so one eigensolve of each
block's ``H(mid)`` stack and one product per step give the steps of all its
runs, which are applied to a stack of states.  The study keeps the
reference's final state (``YosidaStudy.reference``), bit for bit the magnus2
:func:`final_state`, for a step sweep on the same grid to compare against,
and the scale of its plus norm (``YosidaStudy.scale``).  Tables are
immutable once built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, GridError, NumericalError
from .forms import blocks, count, eigh, hermitian_spectral_norm, hermitize
from .models import TimeDependentHamiltonian
from .scales import HilbertScale

_SQRT3 = math.sqrt(3.0)
#: CF4 weights: two Gauss nodes, two exponentials per step.
_CF4_C = 0.25 - _SQRT3 / 6.0
_CF4_D = 0.25 + _SQRT3 / 6.0


def _spectral_exp(w, Q, dt) -> np.ndarray:
    """``Q diag(exp(-i dt w)) Q*`` of eigenpairs ``(w, Q)``, or of stacks of them
    broadcast together; ``dt`` is a scalar or one per leading index of ``w``."""
    phases = np.exp(-1j * np.expand_dims(dt, -1) * w)
    return (Q * phases[..., None, :]) @ Q.conj().swapaxes(-1, -2)


def unitary_exp(H, dt) -> np.ndarray:
    """Exact ``exp(-i dt H)`` via eigendecomposition, of a Hermitian matrix or
    of each slice of a ``(..., d, d)`` stack; ``dt`` is a scalar or one per slice."""
    return _spectral_exp(*eigh(H), dt)


def yosida_operator(H, n, shift) -> np.ndarray:
    """Bounded regularization ``H_n = (A - shift) (1 + A/n)^{-1}`` of ``H`` or of a stack.

    ``A = H + shift I`` is the positive definite shifted operator; the map
    acts spectrally as ``lam -> (lam_A - shift) * n / (n + lam_A)``, so
    ``|H_n| <= n + shift`` while ``H_n -> H`` as ``n`` grows.  A map that
    overflows raises :class:`NumericalError` naming ``n`` and the first slice.
    """
    return _yosida_map(H, n, shift, lambda j: f"slice {j}")


def _yosida_map(H, n, shift, where):
    """:func:`yosida_operator`; a map that overflows names ``where(j)``, ``j`` its first slice."""
    n = int(n)
    if n < 1:
        raise ArgumentError(f"regularization index must be a positive integer, got {n}")
    H = hermitize(H, context="H")
    shift = float(shift)
    w, Q = eigh(H + shift * np.eye(H.shape[-1]))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        mapped = (w - shift) * n / (n + w)
    bad = np.flatnonzero(~np.isfinite(mapped).all(axis=-1))
    if bad.size:
        raise NumericalError(
            f"the Yosida map H_n with n = {n} overflows at {where(bad[0])}: "
            "|H| is too large for this n")
    Hn = (Q * mapped[..., None, :]) @ Q.conj().swapaxes(-1, -2)
    return 0.5 * (Hn + Hn.conj().swapaxes(-1, -2))


def yosida_hamiltonian(tdh: TimeDependentHamiltonian, n) -> TimeDependentHamiltonian:
    """The family ``t -> H_n(t)``: its stacks are the Yosida map of the stacks
    of ``tdh``, whose span and semibound it keeps; it offers no derivative.

    The spectral map is monotone and fixes values at and above ``-m`` toward
    zero, so the original semibound remains valid.
    """
    shift = tdh.semibound.m + 1.0

    def stack(times):
        return _yosida_map(tdh.stack(times), n, shift, lambda j: f"t = {times[j]}")

    return TimeDependentHamiltonian.from_stacks(
        tdh.dim, (stack, None, None), tdh.t_span, tdh.semibound,
        label=f"{tdh.label}|yosida(n={n})", source=tdh.source)


@dataclass
class PropagatorTable:
    """Grid of propagators ``U(times[j], s)`` with method metadata.

    ``matrices[0]`` is exactly the identity.  ``diagnostics`` records the
    per-entry unitarity defect ``|U* U - I|``.
    """

    s: float
    times: np.ndarray
    matrices: np.ndarray
    method: str
    diagnostics: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.matrices.shape[-1]

    def index_of(self, t) -> int:
        span = max(abs(self.times[-1] - self.times[0]), 1.0)
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > 1e-9 * span:
            raise GridError(f"time {t} is not on the table grid")
        return idx

    def at(self, t) -> np.ndarray:
        return self.matrices[self.index_of(t)]

    @property
    def final(self) -> np.ndarray:
        return self.matrices[-1]

    def max_unitarity_defect(self) -> float:
        return float(np.max(self.diagnostics["unitarity_defect"]))


def _defects(U, times, method):
    """Unitarity defects ``|U* U - I|`` of a stack of rows at ``times``."""
    # A diverged expansion overflows here; it is reported below, not warned.
    with np.errstate(over="ignore", invalid="ignore"):
        G = U.conj().swapaxes(-1, -2) @ U - np.eye(U.shape[-1])
        G = 0.5 * (G + G.conj().swapaxes(-1, -2))
    bad = np.flatnonzero(~np.isfinite(G).all(axis=(-2, -1)))
    if bad.size:
        raise NumericalError(
            f"{method} table: the unitarity defect is not finite at t = "
            f"{times[bad[0]]}; the truncated expansion diverged, raise substeps"
        )
    return hermitian_spectral_norm(G)


def _walk(times, steps, dim, method):
    """Yield ``(rows, U, defects)`` of the table ``U[j+1] = E_j U[j]``, ``U[0] = I``,
    one block at a time: row 0, then the rows after each ``(block, E)`` of ``steps``.
    Only the current block's rows are held."""
    U = np.eye(dim, dtype=complex)[None]
    yield slice(0, 1), U, _defects(U, times[:1], method)
    for block, E in steps:
        count("propagation_steps", len(E))
        last, U = U[-1], np.empty(E.shape, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):  # caught by _defects
            for i, E_j in enumerate(E):
                last = U[i] = E_j @ last
        rows = slice(block.start + 1, block.stop + 1)
        yield rows, U, _defects(U, times[rows], method)


def _table(tdh, s, times, steps, method) -> PropagatorTable:
    """The :class:`PropagatorTable` of the ``(block, E)`` ``steps`` on ``times``."""
    U = np.empty((times.size, tdh.dim, tdh.dim), dtype=complex)
    defects = np.empty(times.size)
    for rows, U_rows, defects_rows in _walk(times, steps, tdh.dim, method):
        U[rows], defects[rows] = U_rows, defects_rows
    return PropagatorTable(float(s), times, U, method, {"unitarity_defect": defects})


def _grid(s, t, substeps):
    """The ``substeps + 1`` uniform step times from ``s`` to ``t``."""
    substeps = int(substeps)
    if substeps < 1:
        raise ArgumentError(f"substeps must be >= 1, got {substeps}")
    return np.linspace(float(s), float(t), substeps + 1)


def _reference_steps(tdh, s, t, substeps, scheme):
    """``(times, steps)``: the grid and a generator of ``(block, E)``, the
    magnus2/magnus4 step propagators of each block of steps as one stack."""
    if scheme not in ("magnus2", "magnus4"):
        raise ArgumentError(f"unknown reference scheme {scheme!r}")
    times = _grid(s, t, substeps)

    def steps():
        for block in blocks(times.size - 1, tdh.dim):
            a, b = times[:-1][block], times[1:][block]
            dt, mid = b - a, 0.5 * (a + b)
            if scheme == "magnus2":
                yield block, unitary_exp(tdh.stack(mid), dt)
            else:
                h1 = tdh.stack(mid - _SQRT3 / 6.0 * dt)
                h2 = tdh.stack(mid + _SQRT3 / 6.0 * dt)
                yield block, unitary_exp(_CF4_C * h1 + _CF4_D * h2, dt) @ unitary_exp(
                    _CF4_D * h1 + _CF4_C * h2, dt
                )

    return times, steps()


def reference_propagator(tdh, s, t, substeps, scheme="magnus2") -> PropagatorTable:
    """High-accuracy propagator table built from exact spectral exponentials.

    ``magnus2`` applies ``exp(-i dt H(midpoint))`` per substep (second
    order); ``magnus4`` is the fourth-order two-exponential commutator-free
    scheme on the Gauss nodes.  Either way every step is exactly unitary up
    to eigensolver roundoff, making unitarity a hard invariant of the table
    rather than a convergence artifact.  ``t < s`` integrates backwards.
    """
    return _table(tdh, s, *_reference_steps(tdh, s, t, substeps, scheme), scheme)


# ---------------------------------------------------------------------------
# Truncated time-ordered expansion
# ---------------------------------------------------------------------------


def _node_count(dt, order, p):
    """Midpoint nodes per axis keeping quadrature error within truncation order.

    A composite midpoint rule on the ordered simplex carries an
    ``O(dt^{p+2} / M^2)`` smooth error plus, for ``p >= 2``, an
    ``O(dt^{p+1} / M^2)`` contribution from cells straddling the ordering
    boundary; both must stay below the ``O(dt^{order+1})`` truncation error.
    """
    exponent = (order - max(p, 2)) / 2.0
    if exponent <= 0 or dt >= 1.0:
        return 1
    return min(128, max(1, math.ceil(dt ** (-exponent))))


def _ordered_degrees(X, top):
    """Degree 1..``top`` parts ``T_1..T_top`` of the ordered product of ``exp(X_j)``.

    ``X`` yields the ``(steps, d, d)`` stacks ``X_j = w H_j`` in ascending node
    time; later nodes multiply on the left, ``T_p <- T_p + sum_k X_j^k / k! T_{p-k}``
    with ``T_0 = I``.  ``T_p`` is the sum of the ordered products over nondecreasing
    node tuples, each weighted by the inverse factorial of every multiplicity (the
    volume fraction of the hypercube cell below the ordering boundary).
    """
    T = None
    for Xj in X:
        powers = [Xj]  # powers[k] = X_j^(k+1) / (k+1)!
        for k in range(2, top + 1):
            powers.append(powers[-1] @ Xj / k)
        # T[p] holds T_{p+1} of the nodes so far; each node writes fresh arrays.
        T = powers if T is None else [
            T[p] + powers[p] + sum(powers[k] @ T[p - k - 1] for k in range(p)) for p in range(top)
        ]
    return T


def _dyson_steps(tdh, s, t, order, substeps, yosida_n):
    """``(times, steps)``: the grid and a generator of ``(block, E)``, the
    truncated-expansion steps of each block of steps as one stack."""
    order = int(order)
    if order not in (1, 2, 3, 4):
        raise ArgumentError(f"expansion order must be in 1..4, got {order}")
    times = _grid(s, t, substeps)
    family = tdh if yosida_n is None else yosida_hamiltonian(tdh, yosida_n)
    n = tdh.dim
    counts = [_node_count(abs(float(t) - float(s)) / (times.size - 1), order, p)
              for p in range(1, order + 1)]
    # Counts do not rise with p, so each count's degrees follow the previous count's.
    tops = {M: p for p, M in enumerate(counts, start=1)}  # the highest degree of each count

    def steps():
        for block in blocks(times.size - 1, n):
            a, b = times[:-1][block], times[1:][block]
            dt = b - a
            step = np.eye(n, dtype=complex)
            for M, top in tops.items():
                w = (dt / M)[:, None, None]
                T = _ordered_degrees(
                    (w * family.stack(a + (j + 0.5) * dt / M) for j in range(M)), top
                )
                for p in range(counts.index(M) + 1, top + 1):
                    step = step + (-1j) ** p * T[p - 1]
                del T  # free this count's degrees before the next recursion
            yield block, step

    return times, steps()


def dyson_propagator(tdh, s, t, order, substeps, yosida_n=None) -> PropagatorTable:
    """Truncated time-ordered expansion of order ``order`` in {1, 2, 3, 4}.

    Each substep accumulates ``sum_p (-i)^p`` times the ordered simplex
    integral of ``H(t_1) ... H(t_p)``, approximated by a composite midpoint
    tensor rule restricted to the ordered region; the node counts follow from
    the nominal step ``|t - s| / substeps``.  The degrees sharing a count come
    from one :func:`_ordered_degrees` over every step of a block.  With
    ``yosida_n`` set, every evaluation of ``H`` is replaced by its bounded
    regularization.  Steps are not renormalized: the unitarity defect decays
    at the scheme order and is reported in the diagnostics.
    """
    return _table(tdh, s, *_steps(tdh, s, t, "dyson", substeps, order, yosida_n))


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------


@dataclass
class Trajectory:
    """States ``psi_j = U(times[j], s) psi0`` of a propagation by ``method``, with
    the largest unitarity defect ``|U* U - I|`` of its propagators."""

    times: np.ndarray
    states: np.ndarray
    method: str
    unitarity_defect: float

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.states, axis=1)

    def norm_drift(self) -> float:
        norms = self.norms()
        return float(np.max(np.abs(norms - norms[0])))


def _steps(tdh, s, t, method, substeps, order, yosida_n):
    """``(times, steps, method)`` of a propagation by method name: the grid, the
    generator of ``(block, E)`` steps, and the method (``yosida``: magnus2 of ``H_n``)."""
    if method in ("magnus2", "magnus4"):
        return (*_reference_steps(tdh, s, t, substeps, method), method)
    if method == "dyson":
        return (*_dyson_steps(tdh, s, t, order, substeps, yosida_n), "dyson")
    if method == "yosida":
        if yosida_n is None:
            raise ArgumentError("method 'yosida' requires yosida_n")
        family = yosida_hamiltonian(tdh, yosida_n)
        return (*_reference_steps(family, s, t, substeps, "magnus2"), "yosida")
    raise ArgumentError(f"unknown propagation method {method!r}")


def _state(psi0, dim):
    """``psi0`` as a complex vector of dimension ``dim``; refuses any other shape and zero."""
    psi = np.array(psi0, dtype=complex)
    if psi.shape != (dim,):
        raise ArgumentError(f"initial state has shape {psi.shape}, expected ({dim},)")
    if np.linalg.norm(psi) == 0.0:
        raise ArgumentError("initial state must be nonzero")
    return psi


def build_table(tdh, s, t, method="magnus2", substeps=256, order=2,
                yosida_n=None) -> PropagatorTable:
    """The propagator table of a construction chosen by method name.

    ``magnus2``/``magnus4`` build reference tables, ``dyson`` the truncated
    expansion, and ``yosida`` propagates the regularized family ``H_n`` by
    magnus2; ``build_table(yosida_hamiltonian(tdh, n), s, t, "magnus4")`` is
    its magnus4 table.
    """
    return _table(tdh, s, *_steps(tdh, s, t, method, substeps, order, yosida_n))


def _apply(psi, times, steps, method):
    """``psi`` after every ``(block, E)`` of ``steps``, ``psi <- E_j psi``.

    ``psi`` may be a stack of runs, ``(R, d, 1)`` against steps ``(R, d, d)``.
    Not through :func:`_walk`: its per-block bookkeeping cost a few percent of
    a sweep."""
    for block, E in steps:
        count("propagation_steps", math.prod(E.shape[:-2]))  # steps x runs
        # A diverged expansion overflows here; it is reported below, not warned.
        with np.errstate(over="ignore", invalid="ignore"):
            for E_j in E:
                psi = E_j @ psi
            norm_sq = np.vdot(psi, psi).real
        if not np.isfinite(norm_sq):
            raise NumericalError(
                f"{method} state: its norm is not finite at t = {times[1:][block][-1]}; "
                "the truncated expansion diverged, raise substeps"
            )
    return psi


def final_state(tdh, psi0, s, t, method="magnus2", substeps=256, order=2,
                yosida_n=None) -> np.ndarray:
    """``U(t, s) psi0`` for the propagation :func:`build_table` would tabulate.

    Each block's step propagators are applied to the state, ``psi <- E_j psi``,
    so no ``(substeps + 1, d, d)`` table is built; the result equals the
    table's final row applied to ``psi0`` up to roundoff.  A state whose squared
    norm overflows after a block, as ``U* U`` in the table's unitarity check
    would, raises :class:`NumericalError` naming the block's end time.
    """
    psi = _state(psi0, tdh.dim)
    times, steps, _ = _steps(tdh, s, t, method, substeps, order, yosida_n)
    return _apply(psi, times, steps, method)


def propagate(tdh, psi0, s=None, t=None, method=None, substeps=256,
              order=2, yosida_n=None, table=None) -> Trajectory:
    """Propagate ``psi0`` from ``s`` to ``t``; returns the full trajectory.

    Either supply a prebuilt ``table`` (then ``method``, if given, must agree
    with the table's method) or the parameters of a propagation (``method``
    defaults to ``magnus2``), whose steps are then streamed: no table is
    held, except for ``dyson``.  For unitary methods the state norm is
    conserved to roundoff.
    """
    psi0 = _state(psi0, tdh.dim if table is None else table.dim)
    if table is None and (s is None or t is None):
        raise ArgumentError("s and t are required when no table is given")
    if table is None and method == "dyson":
        # A Dyson table is kept: the expansion converges only while dt * max|H|
        # is small, so only for small d, where its table is small too.
        # perfbench's tracer times dyson_propagator as propagators.dyson.
        table = dyson_propagator(tdh, s, t, order, substeps, yosida_n)
    if table is not None:
        if method is not None and method != table.method:
            raise ArgumentError(
                f"method {method!r} does not match table method {table.method!r}"
            )
        states = np.einsum("jab,b->ja", table.matrices, psi0)
        return Trajectory(table.times, states, table.method, table.max_unitarity_defect())
    times, steps, label = _steps(tdh, s, t, method or "magnus2", substeps, order, yosida_n)
    states = np.empty((times.size, tdh.dim), dtype=complex)
    defect = 0.0
    for rows, U, defects in _walk(times, steps, tdh.dim, label):
        states[rows] = np.einsum("jab,b->ja", U, psi0)
        defect = max(defect, float(defects.max()))
    return Trajectory(times, states, label, defect)


# ---------------------------------------------------------------------------
# Residuals and axioms
# ---------------------------------------------------------------------------


@dataclass
class ResidualReport:
    """Discrete defects of a trajectory against the evolution equations.

    ``weak_residual`` is the worst midpoint defect of
    ``d/dt <phi, psi> + i h_t(phi, psi)`` over the supplied test vectors;
    ``strong_residual_minus`` measures ``dpsi/dt + i H psi`` in the minus
    norm (the dual-norm counterpart of the weak defect maximized over the
    unit plus-ball) and ``strong_residual`` in the ambient norm.
    """

    weak_residual: float
    weak_residual_l2: float
    strong_residual: float
    strong_residual_minus: float
    norm_drift: float
    weak_local: np.ndarray
    midpoints: np.ndarray

    def to_dict(self):
        return {
            "weak_residual": self.weak_residual,
            "weak_residual_l2": self.weak_residual_l2,
            "strong_residual": self.strong_residual,
            "strong_residual_minus": self.strong_residual_minus,
            "norm_drift": self.norm_drift,
        }


def weak_residual(tdh, trajectory, test_vectors, scale=None) -> ResidualReport:
    """Centered-difference residuals of a trajectory at interval midpoints.

    At each midpoint the forward difference quotient of the states is
    compared with ``-i H(t_mid)`` applied to the averaged state; pairing the
    defect vector with the test vectors gives the weak residual, and its
    minus/ambient norms give the strong defects.  Needs a uniform grid with
    at least 3 points.  ``scale`` defaults to the scale at the start of the
    Hamiltonian's span.
    """
    times, states = trajectory.times, trajectory.states
    if times.size < 3:
        raise GridError(f"need >= 3 trajectory points, got {times.size}")
    steps = np.diff(times)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise GridError("trajectory grid must be uniform")
    if scale is None:
        scale = tdh.scale_at(tdh.t_span[0])
    if not isinstance(scale, HilbertScale):
        raise ArgumentError("scale must be a HilbertScale")

    test = np.asarray(test_vectors, dtype=complex)
    if test.ndim == 1:
        test = test[None, :]
    mids = 0.5 * (times[:-1] + times[1:])
    mid_states = 0.5 * (states[:-1] + states[1:])
    residuals = np.diff(states, axis=0) / steps[0]
    for block in blocks(mids.size, tdh.dim):
        residuals[block] += 1j * (tdh.stack(mids[block]) @ mid_states[block, :, None])[..., 0]
    weak_local = np.empty(mids.size)
    strong_h = np.empty(mids.size)
    strong_minus = np.empty(mids.size)
    sq_sum = 0.0
    # Row by row: a summed or axis-wise reduction would round differently.
    for j, rvec in enumerate(residuals):
        vals = np.abs(test.conj() @ rvec)
        weak_local[j] = float(vals.max())
        sq_sum += float(np.sum(vals**2))
        strong_h[j] = float(np.linalg.norm(rvec))
        strong_minus[j] = scale.norm_minus(rvec)
    return ResidualReport(
        weak_residual=float(weak_local.max()),
        weak_residual_l2=float(np.sqrt(sq_sum / (mids.size * test.shape[0]))),
        strong_residual=float(strong_h.max()),
        strong_residual_minus=float(strong_minus.max()),
        norm_drift=trajectory.norm_drift(),
        weak_local=weak_local,
        midpoints=mids,
    )


@dataclass
class AxiomReport:
    """Checks of the two-parameter propagator laws on concrete tables."""

    identity_exact: bool
    composition_defect: float
    max_step_increment: float

    def to_dict(self):
        return {
            "identity_exact": self.identity_exact,
            "composition_defect": self.composition_defect,
            "max_step_increment": self.max_step_increment,
        }


def propagator_axioms(table: PropagatorTable, from_r: PropagatorTable = None) -> AxiomReport:
    """Verify ``U(t, t) = I`` exactly and the composition law on shared grids.

    With ``from_r`` given (a table started at an earlier time ``r`` whose
    grid contains ``table.s`` and the common times), the defect
    ``max_t |U(t, s) U(s, r) - U(t, r)|`` is computed; otherwise it is 0.
    ``max_step_increment`` records grid-level strong continuity,
    ``max_j |(U_{j+1} - U_j) psi|`` over the first three basis vectors ``psi``
    (all of them below dimension 3).
    """
    identity = bool(np.array_equal(table.matrices[0], np.eye(table.dim)))

    defect = 0.0
    if from_r is not None:
        if from_r.dim != table.dim:
            raise GridError("tables have different dimensions")
        U_sr = from_r.at(table.s)
        rows = []
        for tj in table.times:
            try:
                rows.append(from_r.index_of(tj))
            except GridError:
                raise GridError(
                    f"time {tj} of the composed table is missing from the outer grid"
                )
        D = table.matrices @ U_sr - from_r.matrices[rows]
        defect = float(np.linalg.norm(D, 2, axis=(-2, -1)).max())

    # Each basis vector's increments as contiguous rows: numpy sums a contiguous
    # axis pairwise and a strided one in sequence, which can move the last bit.
    increments = np.ascontiguousarray(np.diff(table.matrices, axis=0)[..., :3].swapaxes(-1, -2))
    return AxiomReport(
        identity_exact=identity,
        composition_defect=defect,
        max_step_increment=float(np.linalg.norm(increments, axis=-1).max(initial=0.0)),
    )


# ---------------------------------------------------------------------------
# Convergence of the regularized dynamics
# ---------------------------------------------------------------------------


@dataclass
class YosidaStudy:
    """Final-state errors along a sweep against a reference propagation; ``n_values``
    holds the regularization indices, or the step counts of a step sweep, and
    ``reference`` and ``scale`` the final state and plus-norm scale of the reference."""

    n_values: np.ndarray
    err_h: np.ndarray
    err_plus: np.ndarray
    reference: np.ndarray
    scale: HilbertScale

    @classmethod
    def against(cls, ref, n_values, finals, scale):
        """Errors of the final states ``finals`` (one per value) against the final
        state ``ref``, in the ambient norm and in the plus norm of ``scale``."""
        diffs = [final - ref for final in finals]
        err_h = np.array([float(np.linalg.norm(diff)) for diff in diffs])
        return cls(np.asarray(n_values), err_h, np.array([scale.norm_plus(d) for d in diffs]),
                   ref, scale)

    @property
    def ratios(self) -> np.ndarray:
        """Successive improvement factors ``err(n_i) / err(n_{i+1})``, nan where the latter is 0."""
        later = self.err_h[1:]
        return np.divide(self.err_h[:-1], later, out=np.full(later.shape, np.nan), where=later > 0)

    def columns(self, swept):
        """The sweep as CSV columns; ``swept`` heads the column of ``n_values``."""
        return {swept: self.n_values, "err_H": self.err_h, "err_plus": self.err_plus,
                "ratio": np.append(np.nan, self.ratios)}


def _sweep_steps(tdh, n_arr, times):
    """Generator of ``(block, E)``: the magnus2 steps of ``H`` (row 0) and of
    ``H_n`` for each ``n`` of ``n_arr`` (rows 1..), each block as one
    ``(block, R, d, d)`` stack from one eigensolve of ``H(mid)``.

    ``H_n`` is a function of ``H``, so it shares the eigenvectors and maps the
    eigenvalues, ``lam -> lam / (1 + (lam + shift) / n)``; that form cannot
    overflow where ``lam * n`` would.
    """
    shift = tdh.semibound.m + 1.0
    for block in blocks(times.size - 1, tdh.dim):
        a, b = times[:-1][block], times[1:][block]
        dt, mid = b - a, 0.5 * (a + b)
        w, Q = eigh(tdh.stack(mid))
        w = w[:, None]
        with np.errstate(all="ignore"):  # non-finite steps are refused below
            mapped = w / (1.0 + (w + shift) / n_arr[:, None])
            phases = np.exp(-1j * dt[:, None, None] * np.concatenate([w, mapped], axis=1))
            # _spectral_exp with the runs stacked as rows: one (R d, d) @ (d, d)
            # product per step, not R products of (d, d).
            QP = (Q[:, None] * phases[..., None, :]).reshape(len(Q), -1, Q.shape[-1])
            E = (QP @ Q.conj().swapaxes(-1, -2)).reshape(phases.shape + Q.shape[-1:])
        bad = np.argwhere(~np.isfinite(E).all(axis=(-2, -1)))
        if bad.size:
            j, r = bad[0]
            which = "H" if r == 0 else f"H_n, n = {n_arr[r - 1]},"
            raise NumericalError(
                f"Yosida sweep: the step propagator of {which} is not finite at "
                f"t = {times[1:][block][j]}"
            )
        yield block, E


def yosida_convergence_study(tdh, n_list, psi0, s, t, substeps=1024) -> YosidaStudy:
    """Propagate with ``H_n`` for each ``n`` and compare against ``H`` itself.

    Every run takes the same ``substeps`` magnus2 steps, so the measured
    errors isolate the regularization, not the time discretization.  The runs
    go together: each step's ``H(mid)`` is eigensolved once, for the reference
    and every ``n`` (see :func:`_sweep_steps`), and the states of all runs
    advance as one stack.  ``err_h`` is the ambient-norm state error at the
    final time, ``err_plus`` the same in the plus norm of the scale at the
    start of the span.  ``reference`` is the final state of ``H`` itself,
    bit for bit ``final_state(tdh, psi0, s, t, "magnus2", substeps)``, so a
    step sweep on the same grid can compare against it without propagating
    it again; ``scale`` is the scale at the start of the span.
    """
    n_arr = np.asarray(list(n_list), dtype=int)
    if n_arr.size == 0 or np.any(np.diff(n_arr) <= 0):
        raise ArgumentError("n_list must be nonempty and strictly increasing")
    if n_arr[0] < 1:
        raise ArgumentError(f"regularization index must be a positive integer, got {n_arr[0]}")
    psi = _state(psi0, tdh.dim)
    times = _grid(s, t, substeps)
    runs = np.repeat(psi[None, :, None], n_arr.size + 1, axis=0)
    finals = _apply(runs, times, _sweep_steps(tdh, n_arr, times), "yosida sweep")[..., 0]
    return YosidaStudy.against(finals[0], n_arr, finals[1:], tdh.scale_at(tdh.t_span[0]))
