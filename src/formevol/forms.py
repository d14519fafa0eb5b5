"""Hermitian sesquilinear forms on a finite orthonormal basis.

A form is stored as its coefficient matrix ``G``: with the basis orthonormal
in the ambient Hilbert space, the value on a pair of coefficient vectors is
``h(psi, phi) = psi* G phi`` (anti-linear in the first argument).  In this
setting the operator representing the form coincides with ``G`` itself, which
turns the form/operator correspondence into an explicitly testable identity.

All functions here are pure: inputs are never mutated and returned arrays are
fresh, so values can be shared freely across threads.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import operator
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArgumentError,
    NotHermitianError,
    NotPositiveDefiniteError,
    NumericalError,
    SemiboundError,
)

#: ``(counts, lock)`` of the innermost :func:`tallying`, or None outside one.
_TALLY = contextvars.ContextVar("formevol_tally", default=None)


@contextlib.contextmanager
def tallying():
    """Yield the dict that :func:`count` fills inside the block, also from the
    threads of :func:`map_blocks`, which run in copies of the caller's context."""
    token = _TALLY.set(({}, threading.Lock()))
    try:
        yield _TALLY.get()[0]
    finally:
        _TALLY.reset(token)


def count(name, n, combine=operator.add):
    """Fold ``n`` into the tally's ``name`` by ``combine``; nothing outside :func:`tallying`."""
    tally = _TALLY.get()
    if tally is not None:
        counts, lock = tally
        with lock:
            counts[name] = combine(counts[name], n) if name in counts else n


def eigh(a):
    """``np.linalg.eigh(a)``, its matrices counted as ``eigensolved_mats``."""
    count("eigensolved_mats", math.prod(np.shape(a)[:-2]))
    return np.linalg.eigh(a)


def eigvalsh(a):
    """``np.linalg.eigvalsh(a)``, its matrices counted as ``eigensolved_mats``."""
    count("eigensolved_mats", math.prod(np.shape(a)[:-2]))
    return np.linalg.eigvalsh(a)


#: Relative tolerance (against the largest entry) for accepting a matrix as
#: Hermitian.  Inputs within tolerance are symmetrized; anything worse is
#: rejected, since silently symmetrizing badly asymmetric input would mask
#: model bugs upstream.
HERMITICITY_RTOL = 1e-13


def hermitize(M, rtol=HERMITICITY_RTOL, context=""):
    """Return the Hermitian part of ``M``, or of each slice of a ``(..., d, d)`` stack.

    The dtype decides the arithmetic: real input gives a float64 (symmetric)
    result, complex input a complex128 one, whatever the values.  Raises
    :class:`NotHermitianError` if ``max |M - M*|`` exceeds
    ``rtol * max(max|M|, 1)``, slice by slice; for a stack, ``context`` may be
    a callable mapping the flat index of the first failing slice to its label.
    """
    A = np.asarray(M)
    A = A.astype(np.result_type(A, np.float64), copy=False)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ArgumentError(f"{context or 'matrix'} must be square, got shape {A.shape}")
    Ah = A.conj().swapaxes(-1, -2)
    asym = np.max(np.abs(A - Ah), axis=(-2, -1), initial=0.0)
    tol = rtol * np.maximum(np.max(np.abs(A), axis=(-2, -1), initial=0.0), 1.0)
    bad = np.flatnonzero(asym > tol)
    if bad.size:
        j = bad[0]
        label = context(j) if callable(context) else context
        raise NotHermitianError(asym.flat[j], tol.flat[j], label)
    return 0.5 * (A + Ah)


#: Matrix entries per batched LAPACK call or product over a time grid: bounds
#: the temporaries whatever the dimension (30 slices at d = 33, and at least
#: one slice).
BLOCK_ENTRIES = 2**15
#: Slices per block at most, which binds for d <= 11.  Without it a block at
#: d = 3 holds 3,640 slices and each temporary a few hundred kilobytes, which
#: glibc's malloc returns to the kernel and faults in again for the next
#: block.  The cap does not remove all of them: a ``converge`` job on
#: ``configs/converge_circle.ini`` still takes ~317 minor faults (getrusage,
#: one BLAS thread), as its ``(256, 6, 3, 3)`` complex Yosida sweep stacks are
#: 221 KB each, above glibc's default 128 KB mmap threshold.
BLOCK_SLICES = 256


def blocks(n, dim):
    """Slices covering ``range(n)``, for blocks of at most :data:`BLOCK_SLICES`
    ``dim x dim`` matrices and :data:`BLOCK_ENTRIES` entries."""
    size = max(1, min(BLOCK_SLICES, BLOCK_ENTRIES // (dim * dim)))
    return [slice(start, start + size) for start in range(0, n, size)]


def map_blocks(fn, parts):
    """``[fn(part) for part in parts]``, the parts run concurrently.

    The parts run on one thread per CPU this process may use, at most one per
    part and at least one, counted as ``threads``: the calling thread and
    helpers take the parts one at a time, in order, as each becomes free; with
    one CPU or one part no thread starts, and the caller runs them all.  Each
    helper runs in a copy of the caller's context, so ``np.errstate`` and
    other context variables reach its parts.  If parts fail, the exception of
    the earliest one is raised, as the serial loop would raise it: parts are
    taken in order, and none is taken once one has failed.
    """
    parts = list(parts)
    results, errors = [None] * len(parts), {}
    tickets, lock = iter(range(len(parts))), threading.Lock()

    def work():
        while True:
            with lock:
                i = None if errors else next(tickets, None)
            if i is None:
                return
            try:
                results[i] = fn(parts[i])
            except BaseException as exc:
                with lock:
                    errors[i] = exc

    threads = max(1, min(len(os.sched_getaffinity(0)), len(parts)))
    count("threads", threads, max)
    helpers = [threading.Thread(target=contextvars.copy_context().run, args=(work,))
               for _ in range(threads - 1)]
    for helper in helpers:
        helper.start()
    work()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[min(errors)]
    return results


def hermitian_spectral_norm(M):
    """Spectral norm of a Hermitian matrix, or of each slice of a ``(..., d, d)`` stack."""
    if np.size(M) == 0:
        return 0.0 if np.ndim(M) == 2 else np.zeros(np.shape(M)[:-2])
    norms = np.max(np.abs(eigvalsh(M)), axis=-1)
    return float(norms) if np.ndim(M) == 2 else norms


class HermitianForm:
    """A Hermitian form ``h(psi, phi) = psi* G phi`` on coefficient space.

    Parameters
    ----------
    G : array_like
        Square coefficient matrix.  Must be Hermitian to within
        ``HERMITICITY_RTOL`` relative to its largest entry; it is
        symmetrized on acceptance and stored read-only.
    label : str
        Free-form tag used in error messages and reports.
    """

    def __init__(self, G, label=""):
        H = hermitize(G, context=label or "form matrix")
        H.setflags(write=False)
        self.G = H
        self.label = label

    @property
    def basis_dim(self) -> int:
        return self.G.shape[0]

    def value(self, psi, phi) -> complex:
        """Evaluate ``h(psi, phi)``, anti-linear in ``psi``."""
        psi = np.asarray(psi, dtype=complex)
        phi = np.asarray(phi, dtype=complex)
        if psi.shape != (self.basis_dim,) or phi.shape != (self.basis_dim,):
            raise ArgumentError(
                f"expected vectors of length {self.basis_dim}, "
                f"got {psi.shape} and {phi.shape}"
            )
        return complex(psi.conj() @ (self.G @ phi))

    def quadratic(self, phi) -> float:
        """Evaluate ``h(phi, phi)``; always real for a Hermitian form."""
        return float(np.real(self.value(phi, phi)))

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"<HermitianForm{tag} dim={self.basis_dim}>"


@dataclass(frozen=True)
class Semibound:
    """Magnitude ``m`` of a spectral lower bound: ``h(phi,phi) >= -m |phi|^2``."""

    m: float


@dataclass(frozen=True)
class RepresentedOperator:
    """Self-adjoint operator ``T`` with ``h(psi, phi) = <psi, T phi>``."""

    T: np.ndarray
    source_form: HermitianForm

    def expectation(self, psi, phi) -> complex:
        psi = np.asarray(psi, dtype=complex)
        phi = np.asarray(phi, dtype=complex)
        return complex(psi.conj() @ (self.T @ phi))


def represent_form(form) -> RepresentedOperator:
    """Return the operator representing a Hermitian form.

    On an orthonormal basis the representing operator is the form matrix
    itself; the point of this function is to make the correspondence an
    explicit object that downstream code (and tests) can exercise.

    Accepts either a :class:`HermitianForm` or a raw matrix; raw input goes
    through the same Hermiticity gate as the form constructor.
    """
    if not isinstance(form, HermitianForm):
        form = HermitianForm(form)
    T = np.array(form.G, copy=True)
    T.setflags(write=False)
    return RepresentedOperator(T=T, source_form=form)


def semibound_of(form: HermitianForm) -> Semibound:
    """Compute the tight semibound ``m = max(0, -lambda_min(G))``.

    No padding is added: strict positivity, where needed, is obtained later
    by the ``+ (m + 1)`` shift of the scale construction.
    """
    try:
        lam_min = float(eigvalsh(form.G)[0])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed on form {form.label!r}") from exc
    return Semibound(m=max(0.0, -lam_min))


def graph_norm(form: HermitianForm, m, v) -> float:
    """Graph norm ``sqrt((1 + m) |v|^2 + h(v, v))`` of a semibounded form.

    ``m`` may be a :class:`Semibound` or a plain real number.  For a valid
    semibound the radicand is at least ``|v|^2``; a radicand below ``-1e-12``
    signals an invalid ``m`` and raises, while tiny negative values from
    roundoff are clamped to zero.
    """
    bound = m.m if isinstance(m, Semibound) else float(m)
    v = np.asarray(v, dtype=complex)
    radicand = (1.0 + bound) * float(np.real(np.vdot(v, v))) + form.quadratic(v)
    if radicand < -1e-12:
        raise SemiboundError(
            f"graph-norm radicand {radicand:.3e} is negative: "
            f"m = {bound} is not a semibound for this form"
        )
    return float(np.sqrt(max(radicand, 0.0)))


def form_operator_norm(V, A0) -> float:
    """Operator norm of a Hermitian ``V`` acting from the ``+`` to the ``-`` space.

    With ``|phi|_+^2 = phi* A0 phi`` for a positive definite ``A0``, the norm

        sup |psi* V phi| / (|psi|_+ |phi|_+)

    equals the spectral norm of ``A0^{-1/2} V A0^{-1/2}``, which is what is
    computed here.  The supremum is attained at the extremal eigenvectors of
    the sandwiched matrix, mapped back through ``A0^{-1/2}``.
    """
    V = hermitize(V, context="V")
    A = hermitize(A0, context="A0")
    if V.shape != A.shape:
        raise ArgumentError(f"shape mismatch: V {V.shape} vs A0 {A.shape}")
    w, Q = eigh(A)
    if w[0] <= 0.0:
        raise NotPositiveDefiniteError(w[0], context="A0")
    inv_sqrt = (Q * (1.0 / np.sqrt(w))) @ Q.conj().T
    S = inv_sqrt @ V @ inv_sqrt
    S = 0.5 * (S + S.conj().T)
    return hermitian_spectral_norm(S)
