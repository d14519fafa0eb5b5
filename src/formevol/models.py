"""Concrete time-dependent Hamiltonians on a finite Galerkin basis.

The main model is a free particle on a circle of circumference ``2 pi`` with
a point interaction at the origin whose strength varies in time.  In the
orthonormal Fourier basis ``e_k(x) = exp(i k x) / sqrt(2 pi)``, ``|k| <= K``,
the quadratic form of the kinetic term is ``diag(k^2)`` and the boundary term
``alpha(t) conj(phi(0)) psi(0)`` compresses to the rank-one matrix
``alpha(t) / (2 pi)`` times the all-ones matrix, since every basis function
takes the value ``1 / sqrt(2 pi)`` at the origin.  The discrete model is thus
the exact Galerkin compression of the continuum form; nothing is lumped.

Units: hbar = 1, 2 m_particle = 1, circle length ``2 pi``.

Synthetic control families (constant, commuting diagonal, rotating frame)
with closed-form propagators are provided for oracle testing.

Every built-in family evaluates ``H`` on a whole array of times at once.
The circle and the constant and commuting-diagonal families are affine
(:class:`AffineHamiltonian`): fixed matrices whose real coefficients, like
the profiles ``alpha``, take arrays; the rotating frame stacks its rotations
from one eigendecomposition.  Only user per-time callables loop over times.

Model objects are immutable specifications.  A family calls its evaluation
callables under its own lock, so they need not be thread-safe.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import partial, partialmethod

import numpy as np

from .errors import ArgumentError, NumericalError
from .forms import Semibound, blocks, count, eigh, eigvalsh, hermitize
from .scales import HilbertScale, build_scale

TWO_PI = 2.0 * math.pi

ALPHA_KINDS = ("constant", "polynomial", "trigonometric", "kink", "rough_c0", "table")

#: Samples for the grid-based minimum of profiles other than ``table``.
_PROFILE_SCAN_POINTS = 4097


def _profile_formulas(kind, p):
    """``(alpha, alpha', alpha'')`` of a profile kind as numpy expressions in an
    array of times, each of its shape; ``None`` for an order the kind lacks."""
    required = {"polynomial": "coeffs", "kink": "center"}.get(kind)
    if required is not None and required not in p:
        raise ArgumentError(f"{kind} profile needs the parameter {required!r}")
    if kind == "constant":
        v = float(p.get("value", 0.0))
        return lambda t: np.full_like(t, v), np.zeros_like, np.zeros_like
    if kind == "polynomial":
        P = np.polynomial.polynomial
        c = np.asarray(p["coeffs"], dtype=float)
        return tuple(lambda t, d=P.polyder(c, n): P.polyval(t, d) for n in range(3))
    if kind == "trigonometric":
        a, w = p.get("amplitude", 1.0), p.get("frequency", 1.0)
        ph, off = p.get("phase", 0.0), p.get("offset", 0.0)
        return (lambda t: a * np.sin(w * t + ph) + off,
                lambda t: a * w * np.cos(w * t + ph),
                lambda t: -a * w * w * np.sin(w * t + ph))
    if kind == "kink":
        # Bounded a.e. derivative; the corner itself reports 0.
        a, c, off = p.get("amplitude", 1.0), p["center"], p.get("offset", 0.0)
        return lambda t: a * np.abs(t - c) + off, lambda t: a * np.sign(t - c), None
    if kind == "rough_c0":
        a, s = p.get("amplitude", 1.0), p.get("scale", 1.0)

        def zero_at_origin(f):
            # f(t, s / t) away from t = 0, and 0 there, without dividing by 0.
            def formula(t):
                with np.errstate(over="ignore"):
                    u = s / np.where(t == 0.0, 1.0, t)
                if np.isinf(u).any():
                    bad = float(t[np.isinf(u)][0])
                    raise ArgumentError(f"rough_c0 profile: scale / t overflows at t = {bad!r}")
                return np.where(t == 0.0, 0.0, f(t, u))

            return formula

        return (zero_at_origin(lambda t, u: a * t * t * np.sin(u)),
                zero_at_origin(lambda t, u: a * (2.0 * t * np.sin(u) - s * np.cos(u))), None)
    times, values = (np.asarray(p.get(key, ()), dtype=float) for key in ("times", "values"))
    if times.size < 2 or times.shape != values.shape:
        raise ArgumentError("table profile needs matching times/values, >= 2 points")
    if np.any(np.diff(times) <= 0):
        raise ArgumentError("table profile times must be sorted and deduplicated")
    return lambda t: np.interp(t, times, values), None, None


@dataclass(frozen=True)
class AlphaProfile:
    """Interaction-strength profile ``t -> alpha(t)`` with derivative metadata.

    ``kind`` selects the functional family:

    ``constant``       ``value``
    ``polynomial``     ``coeffs`` (ascending powers)
    ``trigonometric``  ``amplitude * sin(frequency * t + phase) + offset``
    ``kink``           ``amplitude * |t - center| + offset`` (corner at
                       ``center``; the derivative jumps by ``2 * amplitude``)
    ``rough_c0``       ``amplitude * t^2 sin(scale / t)`` (differentiable
                       everywhere with a bounded derivative that has no limit
                       at 0 -- continuously differentiable nowhere near 0)
    ``table``          piecewise-linear through ``(times, values)``; no
                       derivative is offered

    ``value``, ``derivative`` and ``second_derivative`` take a scalar time,
    giving a float, or an array of times, giving an array of that shape.
    """

    kind: str
    params: dict = field(default_factory=dict)
    # By derivative order, the formula of each kind; None when not offered.
    _formulas: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ALPHA_KINDS:
            raise ArgumentError(
                f"unknown alpha profile kind {self.kind!r}; "
                f"expected one of {ALPHA_KINDS}"
            )
        object.__setattr__(self, "_formulas", _profile_formulas(self.kind, self.params))

    # -- evaluation ----------------------------------------------------------

    def _evaluate(self, order, t):
        fn = self._formulas[order]
        if fn is None:
            raise ArgumentError(
                f"profile kind {self.kind!r} offers no {'second ' * (order == 2)}derivative"
            )
        t = np.asarray(t, dtype=float)
        return float(fn(t)) if t.ndim == 0 else fn(t)

    value = partialmethod(_evaluate, 0)
    derivative = partialmethod(_evaluate, 1)
    second_derivative = partialmethod(_evaluate, 2)

    @property
    def has_derivative(self) -> bool:
        return self._formulas[1] is not None

    @property
    def has_second_derivative(self) -> bool:
        return self._formulas[2] is not None

    def min_value(self, t0, t1) -> float:
        """Least value on ``[t0, t1]``: over the ends and the nodes inside for a
        table, else over uniform samples."""
        times = np.linspace(t0, t1, _PROFILE_SCAN_POINTS)
        if self.kind == "table":
            nodes = np.asarray(self.params["times"], dtype=float)
            times = np.concatenate([[t0, t1], nodes[(nodes >= t0) & (nodes <= t1)]])
        return float(self.value(times).min())


def alpha_profile(kind, **params) -> AlphaProfile:
    """Build an :class:`AlphaProfile`; see the class docstring for kinds."""
    return AlphaProfile(kind=kind, params=dict(params))


#: The name of each derivative order in messages.
_ORDER_NAMES = ("H", "dH/dt", "d2H/dt2")


def _per_time(fn, order, dim):
    """The array callable of the per-time callable ``fn`` of derivative ``order``:
    one call per time, each slice's shape checked, then the stack checked
    Hermitian and symmetrized (errors name the first failing time)."""
    name, shape = _ORDER_NAMES[order], (dim, dim)

    def stack(times):
        slices = [np.asarray(fn(t)) for t in times]
        for t, M in zip(times, slices):
            if M.shape != shape:
                raise ArgumentError(f"{name}({t}) has shape {M.shape}, expected {shape}")
        return hermitize(np.array(slices), rtol=1e-12, context=lambda j: f"{name}({times[j]})")

    return stack


class TimeDependentHamiltonian:
    """A family ``t -> H(t)`` of Hermitian matrices on ``[t0, t1]``.

    ``semibound`` must be uniform: ``lambda_min(H(t)) >= -m`` for all ``t``
    in the span.  :meth:`stack` evaluates ``H`` or an analytic derivative on
    a time grid; calling the object, ``derivative`` and ``second_derivative``
    are its one-time slices.  Each order is one array callable, 1-d times to
    the Hermitian stack (:meth:`from_stacks`); the constructor takes per-time
    callables ``t -> (d, d)`` and adapts each by a loop over the times, with
    a float64 stack when every slice is real, complex128 when any is complex.

    The callables must be pure.  They are user code, so stacks call them
    under one lock per family: concurrent blocks of a grid never enter them
    from two threads at once.
    """

    def __init__(self, dim, matrix_fn, t_span, semibound, derivative_fn=None,
                 second_derivative_fn=None, label="", source=None):
        fns = (matrix_fn, derivative_fn, second_derivative_fn)
        stacks = [None if fn is None else _per_time(fn, order, int(dim))
                  for order, fn in enumerate(fns)]
        self._define(dim, stacks, t_span, semibound, label, source)

    @classmethod
    def from_stacks(cls, dim, stacks, t_span, semibound, label="", source=None):
        """The family whose order-``n`` stack is ``stacks[n](times)``, ``None`` when
        that order is not offered.  Each callable takes the 1-d float array of
        times and returns their ``(N, d, d)`` Hermitian stack."""
        family = cls.__new__(cls)
        family._define(dim, stacks, t_span, semibound, label, source)
        return family

    def _define(self, dim, stacks, t_span, semibound, label, source):
        t0, t1 = float(t_span[0]), float(t_span[1])
        if not t1 > t0:
            raise ArgumentError(f"empty time span [{t0}, {t1}]")
        self.dim = int(dim)
        self.t_span = (t0, t1)
        self.semibound = semibound if isinstance(semibound, Semibound) else Semibound(float(semibound))
        self.label, self.source = label, source
        # By derivative order, the array callable ``stack`` runs; None when not offered.
        self._stacks = tuple(stacks)
        self._lock = threading.Lock()

    def stack(self, times, order=0):
        """``d^n H/dt^n``, ``n = order`` in 0..2, at each of the 1-d ``times``, stacked
        ``(N, d, d)`` in the family's dtype; ``None`` when that order is not offered.

        The callable's result is checked once: a shape other than ``(N, d, d)``
        raises :class:`ArgumentError`, a value that is not finite
        :class:`NumericalError` naming the first such time.  No times give the
        stack at the span's start cut to none, so its dtype is the family's."""
        if order not in (0, 1, 2):
            raise ArgumentError(f"derivative order must be 0, 1 or 2, got {order}")
        fn = self._stacks[order]
        if fn is None:
            return None
        times = np.asarray(times, dtype=float)
        if times.ndim != 1:
            raise ArgumentError(f"times must be a 1-d array, got shape {times.shape}")
        evaluated = times if times.size else np.array(self.t_span[:1])
        with self._lock:
            out = fn(evaluated)
        count("h_slices", times.size)
        name, expected = _ORDER_NAMES[order], (evaluated.size, self.dim, self.dim)
        if np.shape(out) != expected:
            raise ArgumentError(f"the {name} stack (order {order}) of {evaluated.size} times "
                                f"has shape {np.shape(out)}, expected {expected}")
        if not np.isfinite(out).all():
            first = np.argmin(np.isfinite(out).all(axis=(-2, -1)))
            raise NumericalError(f"{name}({evaluated[first]}) is not finite")
        return out if times.size else out[:0]

    def __call__(self, t):
        return self.stack([t])[0]

    @property
    def has_derivative(self) -> bool:
        return self._stacks[1] is not None

    def derivative(self, t):
        return None if self._stacks[1] is None else self.stack([t], 1)[0]

    def second_derivative(self, t):
        return None if self._stacks[2] is None else self.stack([t], 2)[0]

    def shifted(self, t):
        """The scale operator ``A(t) = H(t) + (m + 1) I`` at ``t``, or stacked over 1-d times."""
        A = self.stack(np.atleast_1d(t)) + (self.semibound.m + 1.0) * np.eye(self.dim)
        return A if np.ndim(t) else A[0]

    def scale_at(self, t) -> HilbertScale:
        return build_scale(self(t), self.semibound, label=f"{self.label}@{t}")

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return (f"<TimeDependentHamiltonian{tag} dim={self.dim} "
                f"span={self.t_span} m={self.semibound.m:.6g}>")


class AffineHamiltonian(TimeDependentHamiltonian):
    """``H(t) = H0 + sum_r f_r(t) B_r``, with ``terms`` the pairs ``(B_r, (f_r, f_r', f_r''))``.

    Each coefficient callable takes the 1-d array of times and returns their
    real values, or one scalar for all of them.  A ``None`` derivative
    withdraws that order from the family.  ``H0`` and each ``B_r`` are checked
    Hermitian once, here; a stack calls each coefficient once and broadcasts
    it over the fixed matrices, in their dtype: float64 when all are real.
    """

    def __init__(self, H0, terms, t_span, semibound, label="", source=None):
        H0 = hermitize(H0, rtol=1e-12, context="H0")
        mats = [hermitize(B, rtol=1e-12, context=f"B_{r}") for r, (B, _) in enumerate(terms)]
        for r, B in enumerate(mats):
            if B.shape != H0.shape:
                raise ArgumentError(f"B_{r} has shape {B.shape}, expected {H0.shape}")
        self.H0, self.B = H0, mats
        by_order = [tuple(fns[order] for _, fns in terms) for order in range(3)]
        stacks = [None if None in coefficients else partial(self._combine, coefficients, order)
                  for order, coefficients in enumerate(by_order)]
        self._define(H0.shape[0], stacks, t_span, semibound, label, source)

    def _combine(self, coefficients, order, times):
        """The order-``order`` stack at ``times`` of the coefficient callables."""
        out = np.zeros((times.size, self.dim, self.dim), dtype=np.result_type(self.H0, *self.B))
        for r, (f, B) in enumerate(zip(coefficients, self.B)):
            c = np.broadcast_to(np.asarray(f(times), dtype=float), times.shape)[:, None, None]
            if r == 0:
                np.multiply(c, B, out=out)
            else:
                out += c * B
        if order == 0:
            out += self.H0
        return out


# ---------------------------------------------------------------------------
# Circle with a time-dependent point interaction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CircleDeltaModel:
    """Fourier-Galerkin circle model ``H(t) = diag(k^2) + alpha(t)/(2 pi) * ones``.

    Modes ``k = -K..K`` (dimension ``2K + 1``).  The interaction couples only
    the symmetric sector: combinations ``(e_k - e_{-k})/sqrt(2)`` vanish at
    the origin, stay eigenvectors with eigenvalue ``k^2`` for every strength,
    and decouple exactly.  The symmetric sector reduces to a ``(K+1)``-matrix
    ``diag(0, 1, 4, ...) + alpha/(2 pi) * w w^T`` with
    ``w = (1, sqrt 2, ..., sqrt 2)``.
    """

    K: int
    alpha: AlphaProfile
    T: float

    def __post_init__(self):
        if self.K < 1:
            raise ArgumentError(
                "K = 0 is disallowed: a single-mode model hides the rank-one "
                "structure of the interaction"
            )
        if not self.T > 0:
            raise ArgumentError(f"T must be positive, got {self.T}")

    @property
    def dim(self) -> int:
        return 2 * self.K + 1

    @property
    def mode_numbers(self) -> np.ndarray:
        return np.arange(-self.K, self.K + 1)

    def matrix(self, t) -> np.ndarray:
        """``H(t)``: the slice at ``t`` of the affine family that runs evaluate."""
        return self.to_hamiltonian()(t)

    # -- symmetry-adapted spectrum --------------------------------------------

    def symmetric_blocks(self, times) -> np.ndarray:
        """Coupled sector ``diag(k^2) + c(t) w w^T`` on ``e_0, (e_k + e_{-k})/sqrt 2``, per time."""
        ks = np.arange(0, self.K + 1, dtype=float)
        w = np.full(self.K + 1, math.sqrt(2.0))
        w[0] = 1.0
        c = self.alpha.value(times) / TWO_PI
        return np.diag(ks**2) + c[:, None, None] * np.outer(w, w)

    def symmetric_block(self, t) -> np.ndarray:
        return self.symmetric_blocks([t])[0]

    def antisymmetric_eigenvalues(self) -> np.ndarray:
        """Eigenvalues ``k^2`` of the decoupled sector, exact for every ``t``."""
        return np.arange(1, self.K + 1, dtype=float) ** 2

    def spectrum(self, t) -> np.ndarray:
        """Sorted eigenvalues at ``t``, or one row per time of a 1-d array of times."""
        sym = eigvalsh(self.symmetric_blocks(np.atleast_1d(t)))
        anti = np.broadcast_to(self.antisymmetric_eigenvalues(), (sym.shape[0], self.K))
        out = np.sort(np.concatenate([sym, anti], axis=1), axis=1)
        return out if np.ndim(t) else out[0]

    def secular_residual(self, lam, t, normalized=True) -> float:
        """Residual of ``1 + alpha/(2 pi) * sum_k 1 / (k^2 - lam)`` at ``lam``.

        Valid for eigenvalues away from the unperturbed levels ``k^2``.  With
        ``normalized=True`` the residual is divided by ``1 +
        |alpha|/(2 pi) * sum_k 1/|k^2 - lam|`` so that values are comparable
        across eigenvalues at different distances from the poles.
        """
        a = self.alpha.value(t) / TWO_PI
        ks2 = self.mode_numbers.astype(float) ** 2
        terms = 1.0 / (ks2 - lam)
        raw = 1.0 + a * float(np.sum(terms))
        if not normalized:
            return raw
        denom = 1.0 + abs(a) * float(np.sum(np.abs(terms)))
        return raw / denom

    def uniform_semibound(self) -> Semibound:
        # The interaction enters through a positive rank-one term, so the
        # lowest eigenvalue is monotone in alpha: the minimum over the span
        # sits at the minimal strength.
        a_min = self.alpha.min_value(0.0, self.T)
        frozen = CircleDeltaModel(
            self.K, alpha_profile("constant", value=a_min), self.T
        )
        lam_min = float(eigvalsh(frozen.symmetric_block(0.0))[0])
        return Semibound(m=max(0.0, -lam_min))

    def to_hamiltonian(self) -> TimeDependentHamiltonian:
        a = self.alpha
        fns = (a.value, a.has_derivative and a.derivative,
               a.has_second_derivative and a.second_derivative)
        coefficients = tuple((lambda t, f=f: f(t) / TWO_PI) if f else None for f in fns)
        return AffineHamiltonian(
            np.diag(self.mode_numbers**2.0), [(np.ones((self.dim, self.dim)), coefficients)],
            (0.0, self.T), self.uniform_semibound(),
            label=f"circle_delta(K={self.K}, alpha={a.kind})", source=self,
        )


def circle_delta_model(K, alpha: AlphaProfile, T) -> TimeDependentHamiltonian:
    """Circle with a point interaction of time-dependent strength ``alpha``."""
    return CircleDeltaModel(K=int(K), alpha=alpha, T=float(T)).to_hamiltonian()


def spectrum(model, t) -> np.ndarray:
    """Sorted eigenvalues of ``H(t)``, or one row per time of a 1-d array of times.

    Circle models use the exact symmetry-adapted block split, which keeps the
    decoupled eigenvalues at ``k^2`` without roundoff from the full solve;
    anything else falls back to dense Hermitian eigensolves of its stacks.
    Times go through batched eigensolves in blocks.
    """
    circle = getattr(model, "source", model)
    if isinstance(circle, CircleDeltaModel):
        solve, dim = circle.spectrum, circle.K + 1
    elif isinstance(model, TimeDependentHamiltonian):
        solve, dim = (lambda ts: eigvalsh(model.stack(ts))), model.dim
    else:
        raise ArgumentError(f"cannot compute a spectrum for {type(model).__name__}")
    times = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty((times.size, model.dim))
    for block in blocks(times.size, dim):
        out[block] = solve(times[block])
    return out if np.ndim(t) else out[0]


# ---------------------------------------------------------------------------
# Synthetic control families with closed-form propagators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticModel:
    """Control-family descriptor giving access to the exact propagator."""

    kind: str
    params: dict

    def exact_propagator(self, s, t) -> np.ndarray:
        if self.kind == "constant":
            return _hermitian_group(self.params["matrix"])(t - s)
        if self.kind == "commuting_diagonal":
            offsets = np.asarray(self.params["offsets"], dtype=float)
            rates = np.asarray(self.params["rates"], dtype=float)
            phases = offsets * (t - s) + 0.5 * rates * (t * t - s * s)
            return np.diag(np.exp(-1j * phases))
        if self.kind == "rotating_frame":
            H0 = self.params["matrix"]
            Om = self.params["omega"]
            # In the co-rotating frame the generator is constant, giving
            # U(t, s) = e^{Om t} e^{-(Om + i H0)(t - s)} e^{-Om s}, where
            # e^{Om t} = e^{-i (i Om) t} and Om + i H0 = i (H0 - i Om): both
            # groups come from Hermitian generators.
            R = _hermitian_group(1j * Om)
            return R(t) @ _hermitian_group(H0 - 1j * Om)(t - s) @ R(-s)
        raise ArgumentError(f"unknown synthetic kind {self.kind!r}")


def _hermitian_group(G):
    """``t -> exp(-i G t)`` for a Hermitian ``G``, from one eigendecomposition;
    a 1-d array of times gives the stack of the group at each of them."""
    w, V = eigh(G)
    Vh = V.conj().T
    return lambda t: (V * np.exp(-1j * w * np.expand_dims(t, -1))[..., None, :]) @ Vh


def _random_hermitian(n, rng, scale=1.0):
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (M + M.conj().T)


def synthetic_family(kind, n, T, params=None) -> TimeDependentHamiltonian:
    """Build a control family with a closed-form propagator.

    ``constant``            ``H(t) = H0`` (``params['matrix']`` or a seeded
                            random Hermitian)
    ``commuting_diagonal``  ``H(t) = diag(offsets + rates * t)``
    ``rotating_frame``      ``H(t) = R(t) H0 R(t)*`` with ``R(t) = exp(Om t)``
                            and ``Om`` skew-Hermitian

    The returned Hamiltonian carries a :class:`SyntheticModel` in ``source``
    whose ``exact_propagator`` serves as an oracle.
    """
    params = dict(params or {})
    n = int(n)
    if n < 2:
        raise ArgumentError(f"synthetic families need n >= 2, got n = {n}")
    T = float(T)

    if kind == "constant":
        if "matrix" in params:
            H0 = hermitize(params["matrix"], context="H0")
        else:
            rng = np.random.default_rng(params.get("seed", 0))
            H0 = _random_hermitian(n, rng)
        if H0.shape != (n, n):
            raise ArgumentError(f"matrix has shape {H0.shape}, expected {(n, n)}")
        params["matrix"] = H0
        model = SyntheticModel("constant", params)
        m = max(0.0, -float(eigvalsh(H0)[0]))
        return AffineHamiltonian(H0, (), (0.0, T), Semibound(m), label="constant", source=model)

    if kind == "commuting_diagonal":
        offsets = np.asarray(params.get("offsets", np.zeros(n)), dtype=float)
        rates = np.asarray(params.get("rates", np.arange(1, n + 1)), dtype=float)
        if offsets.shape != (n,) or rates.shape != (n,):
            raise ArgumentError("offsets and rates must have length n")
        params["offsets"], params["rates"] = offsets, rates
        model = SyntheticModel("commuting_diagonal", params)
        endpoints = np.concatenate([offsets, offsets + rates * T])
        m = max(0.0, -float(endpoints.min()))
        # f(t) = t, with f' = 1 and f'' = 0.
        slope = (lambda t: t, lambda t: 1.0, lambda t: 0.0)
        return AffineHamiltonian(
            np.diag(offsets), [(np.diag(rates), slope)], (0.0, T), Semibound(m),
            label="commuting_diagonal", source=model,
        )

    if kind == "rotating_frame":
        rng = np.random.default_rng(params.get("seed", 0))
        H0 = hermitize(params["matrix"]) if "matrix" in params else _random_hermitian(n, rng)
        if "omega" in params:
            Om = np.asarray(params["omega"], dtype=complex)
            if np.max(np.abs(Om + Om.conj().T)) > 1e-12 * max(1.0, np.max(np.abs(Om))):
                raise ArgumentError("omega must be skew-Hermitian")
        else:
            Om = 1j * _random_hermitian(n, rng, scale=0.5)
        params["matrix"], params["omega"] = H0, Om
        model = SyntheticModel("rotating_frame", params)
        rotation = _hermitian_group(1j * Om)

        def rotated(times):
            R = rotation(times)
            return R @ H0 @ R.conj().swapaxes(-1, -2)

        def Hdot(times):
            H = rotated(times)
            return hermitize(Om @ H - H @ Om, rtol=1e-12, context=lambda j: f"dH/dt({times[j]})")

        def Hfun(times):
            return hermitize(rotated(times), rtol=1e-12, context=lambda j: f"H({times[j]})")

        m = max(0.0, -float(eigvalsh(H0)[0]))
        return TimeDependentHamiltonian.from_stacks(
            n, (Hfun, Hdot, None), (0.0, T), Semibound(m), label="rotating_frame", source=model,
        )

    raise ArgumentError(f"unknown synthetic family kind {kind!r}")
