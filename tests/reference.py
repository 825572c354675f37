"""Per-matrix references that the tests compare the stack kernels against.

The library computes on whole (..., m, n, n) stacks; these helpers take one
matrix or one pair at a time, so a test can check a kernel entry by entry
against a formula written out on its own.
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
