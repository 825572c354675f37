"""Pointwise curvature invariants from shape operators in a real space form.

A point is m symmetric n x n shape operators and the ambient curvature c; a
stack of points carries leading axes, (..., m, n, n) with c of the leading
shape, and every function here returns values of that leading shape (a
Python float for one point).

rho and rho_perp are each computed by two independent routes: the Gauss /
Ricci component sums on the operators themselves, kept as oracles, and the
traceless-part identities of `invariants` on the stack kernels of
`matrix_core`.  Their agreement is a property the test suite checks, never
an assumption made here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields

import numpy as np

from .matrix_core import (
    as_symmetric, commutators_and_gram, scalar_or_array, sum_sq, traceless_project)

TRACELESS_TOL = 1e-12


@dataclass(frozen=True)
class ShapeOperatorSet:
    """m symmetric n x n shape operators plus the ambient curvature c, per point.

    `ops` has shape (..., m, n, n), one point per leading index; each
    matrix is symmetrized on construction.  `ambient_c` broadcasts to the
    leading shape: a float for one point, an array for a stack.
    """

    ops: np.ndarray
    ambient_c: float = 0.0

    def __post_init__(self):
        ops = np.asarray(self.ops, dtype=float)
        if ops.ndim < 3 or ops.shape[-2] != ops.shape[-1]:
            raise ValueError(f"expected shape (..., m, n, n), got {ops.shape}")
        if ops.shape[-3] < 1:
            raise ValueError("need at least one shape operator")
        if ops.shape[-1] < 2:
            raise ValueError("tangent dimension must be >= 2")
        ambient_c = np.array(self.ambient_c, dtype=float)  # a copy, frozen like ops
        if ambient_c.shape != ops.shape[:-3]:
            ambient_c = np.broadcast_to(ambient_c, ops.shape[:-3])
        ambient_c.setflags(write=False)
        if not np.isfinite(ambient_c).all():
            raise ValueError(f"ambient_c must be finite, got {self.ambient_c}")
        ops = as_symmetric(ops)
        ops.setflags(write=False)
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "ambient_c", scalar_or_array(ambient_c))

    @property
    def m(self):
        return self.ops.shape[-3]

    @property
    def n(self):
        return self.ops.shape[-1]


def _relative_traces(mats):
    """|tr B_a| / max(1, |B_a|) for each matrix of an (..., m, n, n) stack.

    A squared norm that overflows reads inf, which passes the trace test;
    the overflow raises no floating-point warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt((mats * mats).sum(axis=(-2, -1)))
        return np.abs(mats.trace(axis1=-2, axis2=-1)) / np.maximum(1.0, norms)


@dataclass(frozen=True)
class CurvatureInvariants:
    """The invariants of a point, or arrays of them for a stack.

    `gram` is the Gram matrix <B_a, B_b> of the traceless parts, kept for
    the checks; it is not part of a report.
    """

    rho: float
    rho_perp: float
    h_sq: float
    b_sq: float
    slack: float
    ambient_c: float = 0.0
    gram: np.ndarray = field(default=None, repr=False, compare=False)

    def as_dict(self):
        return {name: getattr(self, name) for name in _REPORT_FIELDS}


# the fields of a report, in order: those that take part in comparison
_REPORT_FIELDS = tuple(f.name for f in fields(CurvatureInvariants) if f.compare)


def traceless_parts(s: ShapeOperatorSet) -> np.ndarray:
    """The traceless parts B_a = A_a - (tr A_a / n) I of the operators, (..., m, n, n).

    The operators are validated, so the projection is exactly symmetric; it
    is checked to be finite and traceless to TRACELESS_TOL.
    """
    parts = traceless_project(s.ops)
    if not np.isfinite(parts).all():
        raise ValueError("traceless parts overflow the float range")
    excess = _relative_traces(parts)
    if (excess > TRACELESS_TOL).any():
        raise ValueError(f"matrix has relative trace {np.max(excess):.3e}, not traceless")
    return parts


@functools.cache
def _pairs(n):
    """The index pairs i < j of range(n), as numpy's triu_indices(n, k=1)."""
    return np.triu_indices(n, k=1)


def mean_curvature_sq(s: ShapeOperatorSet):
    """Squared length of the mean curvature vector, sum of (tr A_a / n)^2."""
    traces = s.ops.trace(axis1=-2, axis2=-1)
    return scalar_or_array(((traces / s.n) ** 2).sum(axis=-1))


def rho_direct(s: ShapeOperatorSet):
    """Normalized scalar curvature from the Gauss-equation double sum.

    c + 2 / (n(n-1)) sum_a sum_{i<j} ((A_a)_ii (A_a)_jj - (A_a)_ij^2), one
    component sum per operator through the triu indices of (i, j).
    """
    n = s.n
    iu, ju = _pairs(n)
    d = s.ops.diagonal(axis1=-2, axis2=-1)
    per_op = (d[..., iu] * d[..., ju]).sum(axis=-1) - (s.ops[..., iu, ju] ** 2).sum(axis=-1)
    return scalar_or_array(s.ambient_c + 2.0 * per_op.sum(axis=-1) / (n * (n - 1)))


def rho_perp_direct(s: ShapeOperatorSet):
    """Normalized normal scalar curvature from Ricci-equation components.

    For a real space form the ambient normal contribution vanishes, so the
    components are the commutator entries <[A_a, A_b] e_i, e_j>, i < j,
    a < b, through the triu indices of (a, b) and (i, j).  Codimension one
    has no normal 2-plane and gives 0.
    """
    n, m = s.n, s.m
    (ia, ib), (iu, ju) = _pairs(m), _pairs(n)
    a, b = s.ops[..., ia, :, :], s.ops[..., ib, :, :]
    comm = a @ b - b @ a
    total = (comm[..., iu, ju] ** 2).sum(axis=-1).sum(axis=-1)
    return scalar_or_array(2.0 * np.sqrt(total) / (n * (n - 1)))


def invariants(s: ShapeOperatorSet) -> CurvatureInvariants:
    """All pointwise invariants; slack >= 0 is the DDVV bound at this point.

    rho = c + |H|^2 - |b|^2 / (n(n-1)) and
    rho_perp = sqrt(sum_{a, b} ||[B_a, B_b]||^2) / (n(n-1)), both from the
    traceless parts B_a.  The commutators are taken on B 2^-e, with 2^e close to
    |b|; scaling by a power of two is exact, so rho_perp keeps every bit of the
    unscaled sum and neither underflows nor overflows before |b|^2 does.  One
    kernel call serves a whole stack, and each point of it gets the same bits
    as on its own.
    """
    n = s.n
    parts = traceless_parts(s)
    b_sq = (parts * parts).sum(axis=(-3, -2, -1))
    e = np.frexp(b_sq)[1] // 2
    comm, gram = commutators_and_gram(np.ldexp(parts, -e[..., None, None, None]))
    h_sq = mean_curvature_sq(s)
    rho = s.ambient_c + h_sq - b_sq / (n * (n - 1))
    rho_perp = np.ldexp(np.sqrt(sum_sq(comm, 4)), 2 * e) / (n * (n - 1))
    slack = h_sq - rho_perp + s.ambient_c - rho
    return CurvatureInvariants(
        rho=scalar_or_array(rho),
        rho_perp=scalar_or_array(rho_perp),
        h_sq=h_sq,
        b_sq=scalar_or_array(b_sq),
        slack=scalar_or_array(slack),
        ambient_c=s.ambient_c,
        gram=np.ldexp(gram, 2 * e[..., None, None]),
    )
