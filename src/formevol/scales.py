"""Scales of Hilbert spaces built from a shifted semibounded operator.

Given a Hermitian ``H`` with semibound ``m``, the scale operator is the
positive definite ``A = H + (m + 1) I`` with all eigenvalues at least one.
It induces

* the plus norm      ``|v|_+ = sqrt(v* A v)``,
* the minus norm     ``|v|_- = sqrt(v* A^{-1} v)``,
* the duality map    ``J = A^{-1}``, an isometry from the minus to the plus
  norm,
* fractional powers  ``A^p`` through the cached spectral decomposition.

In finite dimension the minus space coincides with the ambient space as a
set; only the norms differ.  The pairing between the two is the plain
coefficient inner product.

A :class:`HilbertScale` is immutable after construction (the eigensystem is
computed eagerly), so instances are safe for concurrent reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, NotPositiveDefiniteError, SemiboundError
from .forms import Semibound, eigh, eigvalsh, hermitize


class HilbertScale:
    """Positive definite scale operator with cached eigendecomposition.

    Construct via :func:`build_scale` (from ``H`` and its semibound) or
    :meth:`from_operator` (from an already-shifted ``A``).
    """

    #: Slack allowed on the spectral floor ``lambda_min(A) >= 1``.
    FLOOR_TOL = 1e-10

    def __init__(self, A, shift, label=""):
        A = hermitize(A, context=label or "scale operator")
        w, Q = eigh(A)
        if w[0] < 1.0 - self.FLOOR_TOL:
            raise NotPositiveDefiniteError(
                w[0], context="scale operator (eigenvalues must be >= 1)"
            )
        A.setflags(write=False)
        w.setflags(write=False)
        Q.setflags(write=False)
        self.A = A
        self.shift = float(shift)
        self.label = label
        self.eigenvalues = w
        self.eigenvectors = Q

    @classmethod
    def from_operator(cls, A):
        """Wrap an already positive definite ``A`` with spectrum above one."""
        return cls(A, shift=0.0)

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    # -- norms and pairing -------------------------------------------------

    def _check_vector(self, v):
        v = np.asarray(v, dtype=complex)
        if v.shape != (self.dim,):
            raise ArgumentError(
                f"expected vector of length {self.dim}, got shape {v.shape}"
            )
        return v

    def norm_plus(self, v) -> float:
        v = self._check_vector(v)
        q = np.real(np.vdot(v, self.A @ v))
        return float(np.sqrt(max(q, 0.0)))

    def norm_minus(self, v) -> float:
        v = self._check_vector(v)
        y = self.eigenvectors.conj().T @ v
        q = np.real(np.sum(np.abs(y) ** 2 / self.eigenvalues))
        return float(np.sqrt(max(q, 0.0)))

    def apply_J(self, v):
        """Duality map ``J = A^{-1}``; satisfies ``|J v|_+ = |v|_-``."""
        return self.apply_power(-1.0, v)

    def apply_power(self, p, v):
        """Apply ``A^p`` spectrally; intended for ``p in {-1, -1/2, 1/2, 1}``.

        Any real ``p`` is accepted since the spectrum is strictly positive.
        """
        v = self._check_vector(v)
        Q = self.eigenvectors
        return Q @ (self.eigenvalues ** float(p) * (Q.conj().T @ v))

    def power_matrix(self, p, shift=0.0):
        """Dense matrix ``(A + shift I)^p``, e.g. ``p = -1/2`` for norm sandwiches."""
        Q = self.eigenvectors
        M = (Q * (self.eigenvalues + shift) ** float(p)) @ Q.conj().T
        return 0.5 * (M + M.conj().T)

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"<HilbertScale{tag} dim={self.dim} shift={self.shift}>"


def build_scale(H, m, label="") -> HilbertScale:
    """Build the scale of ``H`` with semibound ``m``: ``A = H + (m + 1) I``.

    Raises :class:`SemiboundError` if ``lambda_min(H)`` undercuts ``-m`` by
    more than ``1e-10``.
    """
    bound = m.m if isinstance(m, Semibound) else float(m)
    H = hermitize(H, context=label or "H")
    lam_min = float(eigvalsh(H)[0])
    if lam_min < -bound - 1e-10:
        raise SemiboundError(
            f"lambda_min(H) = {lam_min:.6e} violates the claimed "
            f"semibound m = {bound:.6e}"
        )
    A = H + (bound + 1.0) * np.eye(H.shape[0])
    return HilbertScale(A, shift=bound + 1.0, label=label)


def pairing(psi, phi) -> complex:
    """Extension of the ambient inner product to the minus/plus pair.

    In coefficients this is the plain inner product, anti-linear in the
    first argument; it obeys ``|pairing(psi, phi)| <= |psi|_- |phi|_+``.
    """
    psi = np.asarray(psi, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    if psi.shape != phi.shape:
        raise ArgumentError(f"shape mismatch: {psi.shape} vs {phi.shape}")
    return complex(np.vdot(psi, phi))


@dataclass(frozen=True)
class EquivalenceConstant:
    """Best two-sided constant between the plus (or minus) norms of two scales.

    ``c`` is the smallest constant with
    ``c^{-1} |v|_1 <= |v|_2 <= c |v|_1`` for all ``v``;
    ``lambda_min``/``lambda_max`` are the extremal eigenvalues of the
    underlying pencil, ``spectrum`` the full ascending pencil spectrum, and
    ``vec_min``/``vec_max`` the eigenvectors attaining the two extremes.
    """

    c: float
    lambda_min: float
    lambda_max: float
    spectrum: np.ndarray
    vec_min: np.ndarray
    vec_max: np.ndarray


def _pencil_constant(A2, A1) -> EquivalenceConstant:
    # Generalized problem A2 x = lambda A1 x, reduced through the Cholesky
    # factor A1 = L L*: the standard problem of L^{-1} A2 L^{-*} has the same
    # eigenvalues, and x = L^{-*} u gives eigenvectors with V* A1 V = I.
    Linv = np.linalg.inv(np.linalg.cholesky(A1))
    w, U = eigh(Linv @ A2 @ Linv.conj().T)
    V = Linv.conj().T @ U
    if w[0] <= 0.0:
        raise NotPositiveDefiniteError(w[0], context="pencil")
    c = max(float(np.sqrt(w[-1])), float(1.0 / np.sqrt(w[0])))
    return EquivalenceConstant(
        c=c,
        lambda_min=float(w[0]),
        lambda_max=float(w[-1]),
        spectrum=w,
        vec_min=V[:, 0],
        vec_max=V[:, -1],
    )


def equivalence_constant(scale1: HilbertScale, scale2: HilbertScale) -> EquivalenceConstant:
    """Best constant relating the plus norms of two scales on one space."""
    if scale1.dim != scale2.dim:
        raise ArgumentError(f"dimension mismatch: {scale1.dim} vs {scale2.dim}")
    return _pencil_constant(scale2.A, scale1.A)


def duality_constant(scale1: HilbertScale, scale2: HilbertScale) -> EquivalenceConstant:
    """Best constant relating the minus norms of two scales on one space.

    Computed independently of :func:`equivalence_constant` from the pencil of
    the inverse operators; the two constants agree, and the two pencil
    spectra are reciprocal to each other.
    """
    if scale1.dim != scale2.dim:
        raise ArgumentError(f"dimension mismatch: {scale1.dim} vs {scale2.dim}")
    return _pencil_constant(scale2.power_matrix(-1.0), scale1.power_matrix(-1.0))
