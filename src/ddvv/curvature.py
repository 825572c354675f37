"""Pointwise curvature invariants from shape operators in a real space form.

rho and rho_perp are each computed by two independent routes: the Gauss /
Ricci component sums, kept as per-operator oracles, and the traceless-part
identities on the stack kernels of `matrix_core`.  Their agreement is a
property the test suite checks, never an assumption made here.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .matrix_core import as_symmetric, commutator, commutators_and_gram, traceless_project

TRACELESS_TOL = 1e-12


@dataclass(frozen=True)
class ShapeOperatorSet:
    """m symmetric n x n shape operators plus the ambient curvature c.

    `ops` has shape (m, n, n); each slice is symmetrized on construction.
    """

    ops: np.ndarray
    ambient_c: float = 0.0

    def __post_init__(self):
        ops = np.asarray(self.ops, dtype=float)
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise ValueError(f"expected shape (m, n, n), got {ops.shape}")
        if ops.shape[0] < 1:
            raise ValueError("need at least one shape operator")
        if ops.shape[1] < 2:
            raise ValueError("tangent dimension must be >= 2")
        ambient_c = float(self.ambient_c)
        if not np.isfinite(ambient_c):
            raise ValueError(f"ambient_c must be finite, got {ambient_c}")
        ops = as_symmetric(ops)
        ops.setflags(write=False)
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "ambient_c", ambient_c)

    @property
    def m(self):
        return self.ops.shape[0]

    @property
    def n(self):
        return self.ops.shape[1]


def _relative_traces(mats):
    """|tr B_a| / max(1, |B_a|) for each matrix of an (m, n, n) stack."""
    norms = np.sqrt(np.sum(mats * mats, axis=(1, 2)))
    return np.abs(np.trace(mats, axis1=1, axis2=2)) / np.maximum(1.0, norms)


@dataclass(frozen=True)
class MatrixTuple:
    """Ordered tuple of m traceless symmetric n x n matrices, shape (m, n, n)."""

    mats: np.ndarray

    def __post_init__(self):
        mats = np.asarray(self.mats, dtype=float)
        if mats.ndim != 3:
            raise ValueError(f"expected shape (m, n, n), got {mats.shape}")
        mats = as_symmetric(mats)
        excess = _relative_traces(mats)
        if np.any(excess > TRACELESS_TOL):
            raise ValueError(f"matrix has relative trace {np.max(excess):.3e}, not traceless")
        mats.setflags(write=False)
        object.__setattr__(self, "mats", mats)

    @property
    def m(self):
        return self.mats.shape[0]

    @property
    def n(self):
        return self.mats.shape[1]

    def norm_sq_total(self):
        return float(np.sum(self.mats * self.mats))


@dataclass(frozen=True)
class CurvatureInvariants:
    rho: float
    rho_perp: float
    h_sq: float
    b_sq: float
    slack: float
    ambient_c: float = 0.0

    def as_dict(self):
        return asdict(self)


def traceless_parts(s: ShapeOperatorSet) -> MatrixTuple:
    """Remove the mean-curvature multiple of the identity from each operator."""
    return MatrixTuple(traceless_project(s.ops))


def mean_curvature_sq(s: ShapeOperatorSet) -> float:
    """Squared length of the mean curvature vector, sum of (tr A_a / n)^2."""
    traces = np.trace(s.ops, axis1=1, axis2=2)
    return float(np.sum((traces / s.n) ** 2))


def rho_direct(s: ShapeOperatorSet) -> float:
    """Normalized scalar curvature from the Gauss-equation double sum."""
    n = s.n
    iu, ju = np.triu_indices(n, k=1)
    total = 0.0
    for op in s.ops:
        d = np.diag(op)
        total += float(np.sum(d[iu] * d[ju]) - np.sum(op[iu, ju] ** 2))
    return s.ambient_c + 2.0 * total / (n * (n - 1))


def rho_identity(s: ShapeOperatorSet) -> float:
    """Normalized scalar curvature via c + |H|^2 - |b|^2 / (n(n-1))."""
    return invariants(s).rho


def rho_perp_direct(s: ShapeOperatorSet) -> float:
    """Normalized normal scalar curvature from Ricci-equation components.

    For a real space form the ambient normal contribution vanishes, so the
    components are the commutator entries <[A_a, A_b] e_i, e_j>, i < j,
    a < b.  Returns 0 for codimension one (no normal 2-plane).
    """
    n, m = s.n, s.m
    if m < 2:
        return 0.0
    iu, ju = np.triu_indices(n, k=1)
    total = 0.0
    for a in range(m):
        for b in range(a + 1, m):
            comm = commutator(s.ops[a], s.ops[b])
            total += float(np.sum(comm[iu, ju] ** 2))
    return 2.0 * np.sqrt(total) / (n * (n - 1))


def rho_perp_commutator(s: ShapeOperatorSet) -> float:
    """Normalized normal scalar curvature from traceless-part commutator norms."""
    return invariants(s).rho_perp


def invariants(s: ShapeOperatorSet) -> CurvatureInvariants:
    """All pointwise invariants; slack >= 0 is the DDVV bound at this point.

    rho = c + |H|^2 - |b|^2 / (n(n-1)) and
    rho_perp = sqrt(sum_{a, b} ||[B_a, B_b]||^2) / (n(n-1)), both from the
    traceless parts B_a.  The commutators are taken on B 2^-e, with 2^e close to
    |b|; scaling by a power of two is exact, so rho_perp keeps every bit of the
    unscaled sum and neither underflows nor overflows before |b|^2 does.
    """
    n = s.n
    parts = traceless_parts(s)
    b_sq = parts.norm_sq_total()
    e = int(np.frexp(b_sq)[1]) // 2
    comm, _ = commutators_and_gram(np.ldexp(parts.mats, -e))
    h_sq = mean_curvature_sq(s)
    rho = s.ambient_c + h_sq - b_sq / (n * (n - 1))
    rho_perp = float(np.ldexp(np.sqrt(np.vdot(comm, comm)), 2 * e)) / (n * (n - 1))
    slack = h_sq - rho_perp + s.ambient_c - rho
    return CurvatureInvariants(
        rho=rho,
        rho_perp=rho_perp,
        h_sq=h_sq,
        b_sq=b_sq,
        slack=slack,
        ambient_c=s.ambient_c,
    )
