"""Dense symmetric-matrix primitives.

Commutators, Frobenius inner products, traceless projection, orthogonal
conjugation and seeded random generation.  All matrices are plain float64
numpy arrays; dimensions are dynamic (working range n, m <= 12 or so).
"""

from __future__ import annotations

import warnings

import numpy as np

# Asymmetry below the warn tolerance is silently fixed (JSON round-off);
# between the two we warn; above the error tolerance the data is rejected.
SYMMETRIZE_WARN_TOL = 1e-9
SYMMETRIZE_ERR_TOL = 1e-6


class AsymmetricMatrixError(ValueError):
    """Input matrix deviates from symmetry beyond the hard tolerance."""


def as_symmetric(a, warn_tol=SYMMETRIZE_WARN_TOL, err_tol=SYMMETRIZE_ERR_TOL):
    """Return the symmetrized copy (A + A^T)/2 of a square matrix.

    Raises AsymmetricMatrixError if the asymmetry exceeds `err_tol` in
    max-entry norm, warns if it exceeds `warn_tol`.
    """
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("dimension must be >= 1")
    asym = float(np.max(np.abs(a - a.T)))
    if asym > err_tol:
        raise AsymmetricMatrixError(
            f"matrix asymmetry {asym:.3e} exceeds tolerance {err_tol:.1e}"
        )
    if asym > warn_tol:
        warnings.warn(f"symmetrizing matrix with asymmetry {asym:.3e}")
    return (a + a.T) / 2.0


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


def traceless_project(a):
    """a minus (tr a / n) times the identity, for a matrix or a stack (..., n, n).

    The first subtraction leaves a trace of rounding relative to |a|,
    which exceeds the result's own size when a is close to a multiple of
    the identity; a second pass brings it down to rounding relative to
    the result.
    """
    a = np.asarray(a, dtype=float)
    eye = np.eye(a.shape[-1])
    for _ in range(2):
        a = a - (np.trace(a, axis1=-2, axis2=-1) / len(eye))[..., None, None] * eye
    return a


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


def random_orthogonal(n, seed):
    """Haar-distributed orthogonal matrix from a QR factorization.

    A standard-Gaussian matrix is orthonormalized and the signs of the
    R diagonal fixed so the distribution is uniform.  Deterministic for a
    fixed seed.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    return q * d


def random_traceless_sym(n, seed):
    """Seeded standard-Gaussian symmetric matrix with the trace removed."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    return traceless_project((g + g.T) / 2.0)
