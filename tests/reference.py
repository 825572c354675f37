"""Per-matrix references that the tests compare the stack kernels against.

The library computes on whole (..., m, n, n) stacks; these helpers take one
matrix or one pair at a time, so a test can check a kernel entry by entry
against a formula written out on its own.  `curvature_form_bound` decides
the DDVV bound of one point in the form that the check bundle does not use.
"""

import numpy as np

from ddvv.matrix_core import traceless_project


def _check_same_shape(a, b):
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


def commutator(a, b):
    """[a, b] = ab - ba.  Skew-symmetric when a and b are symmetric."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_same_shape(a, b)
    return a @ b - b @ a


def frobenius_inner(a, b):
    """tr(a^T b) = sum of entrywise products."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_same_shape(a, b)
    return float(np.sum(a * b))


def frobenius_norm_sq(a):
    a = np.asarray(a, dtype=float)
    return float(np.sum(a * a))


def conjugate(a, o):
    """Orthogonal conjugation o^T a o; preserves the Frobenius norm."""
    a = np.asarray(a, dtype=float)
    o = np.asarray(o, dtype=float)
    _check_same_shape(a, o)
    return o.T @ a @ o


def orthogonality_defect(o):
    """Max-entry norm of o^T o - I."""
    o = np.asarray(o, dtype=float)
    return float(np.max(np.abs(o.T @ o - np.eye(o.shape[0]))))


def random_traceless_sym(n, seed):
    """Seeded standard-Gaussian symmetric matrix with the trace removed."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    return traceless_project(rng.standard_normal((n, n)))


def curvature_form_bound(inv, n, tol):
    """(holds, equality) of the DDVV bound in its curvature form,
    rho <= |H|^2 - rho_perp + c, for the invariants `inv` of one point.

    The tolerance is that of the point's degree-2 scale,
    tol (|c| + |H|^2 + |b|^2 / (n(n-1))), so the flags do not change when
    the operators scale by 2^k and c by 4^k.  `point_checks` decides the
    same bound in its ratio form (n(n-1) rho_perp / |b|^2)^2 <= 1.
    """
    rhs = inv.h_sq - inv.rho_perp + inv.ambient_c
    atol = tol * (abs(inv.ambient_c) + inv.h_sq + inv.b_sq / (n * (n - 1)))
    equality = abs(inv.rho - rhs) <= atol
    return equality or inv.rho <= rhs + atol, equality
