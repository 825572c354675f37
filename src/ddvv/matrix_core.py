"""Dense symmetric-matrix primitives.

The pointwise algebra runs on whole (..., m, n, n) stacks, one tuple of m
matrices per leading index: `as_symmetric` validates a stack,
`traceless_project` is the symmetric-traceless projection, `scale_pow2`
scales each tuple exactly below 1, `unit_stack` scales it to total norm 1,
`commutators_and_gram` gives every
commutator [B_a, B_b] and the Gram matrix <B_a, B_b> from one product, and
`inner` is the one per-tuple inner product over trailing axes, with the
squared norm `sum_sq` its a = b case.  A tuple without leading
axes is the batch-free case of the same code.  Seeded Haar-orthogonal
generation, `random_orthogonal`, completes the module; the per-matrix
references the tests compare the kernels against live with the tests.
All matrices are plain float64 numpy arrays; dimensions are dynamic
(working range n, m <= 12 or so).
"""

from __future__ import annotations

import warnings

import numpy as np

# Asymmetry max|A - A^T| of a matrix, relative to its largest entry: below
# the warn tolerance it is silently fixed (JSON round-off); between the two
# we warn; above the error tolerance the data is rejected.
SYMMETRIZE_WARN_TOL = 1e-9
SYMMETRIZE_ERR_TOL = 1e-6


class AsymmetricMatrixError(ValueError):
    """Input matrix deviates from symmetry beyond the hard tolerance."""


def as_symmetric(a):
    """Return the symmetrized copy (A + A^T)/2 of a square matrix or a stack (..., n, n).

    Raises ValueError on an empty input, a NaN or infinite entry, or a
    symmetrized entry that overflows, and AsymmetricMatrixError if the
    asymmetry max|A - A^T| of some matrix exceeds SYMMETRIZE_ERR_TOL times
    its largest entry; warns if it exceeds SYMMETRIZE_WARN_TOL times it.
    So no verdict depends on the scale, and a zero matrix is symmetric.
    An overflow in A + A^T or A - A^T raises no floating-point warning.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if a.size == 0:
        raise ValueError(f"expected a nonempty input, got shape {a.shape}")
    at = a.swapaxes(-1, -2)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sym is reported below
        sym, diff = (a + at) / 2.0, a - at
    # a NaN or infinite entry of a leaves one in sym, so one scan finds both faults
    if not np.isfinite(sym).all():
        if np.isfinite(a).all():
            raise ValueError("symmetric part overflows the float range")
        raise ValueError("input has NaN or infinite entries")
    if not diff.any():  # exactly symmetric: no scale needs to be taken
        return sym
    scale = np.abs(a).max(axis=(-2, -1))
    asym = float((np.abs(diff).max(axis=(-2, -1)) / (scale + (scale == 0))).max())
    if asym > SYMMETRIZE_ERR_TOL:
        raise AsymmetricMatrixError(
            f"relative matrix asymmetry {asym:.3e} exceeds tolerance {SYMMETRIZE_ERR_TOL:.1e}"
        )
    if asym > SYMMETRIZE_WARN_TOL:
        warnings.warn(f"symmetrizing matrix with relative asymmetry {asym:.3e}")
    return sym


def traceless_project(a):
    """Symmetric traceless part (A + A^T)/2 - (tr A / n) I of a matrix or a stack (..., n, n).

    The first trace subtraction leaves a trace of rounding relative to |A|,
    which exceeds the result's own size when A is close to a multiple of
    the identity; a second pass brings it down to rounding relative to
    the result.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    out = a + np.swapaxes(a, -1, -2)
    out *= 0.5
    diag = np.einsum("...ii->...i", out)  # a writable view
    # both passes run on a contiguous copy of the diagonal, written back once
    d = diag - np.einsum("...i->...", diag)[..., None] / n
    d -= np.einsum("...i->...", d)[..., None] / n
    diag[...] = d
    return out


def scalar_or_array(x):
    """A Python float or bool for a value without leading axes, else the array."""
    if isinstance(x, np.ndarray) and x.ndim:
        return x
    return x.item() if isinstance(x, (np.ndarray, np.generic)) else x


def inner(a, b, axes):
    """<a, b> over the last `axes` axes of two arrays of one shape, per leading
    index: one BLAS dot, (1, K) @ (K, 1), each, so a point in a stack gets the
    same bits as on its own.  An array, 0-d without leading axes."""
    lead = a.shape[:a.ndim - axes]
    rows = np.ascontiguousarray(a).reshape(*lead, 1, -1)
    return (rows @ np.ascontiguousarray(b).reshape(*lead, -1, 1))[..., 0, 0]


def sum_sq(x, axes):
    """Sum of squares over the last `axes` axes of an array, `inner(x, x, axes)`,
    a float without leading axes."""
    return scalar_or_array(inner(x, x, axes))


def scale_pow2(mats):
    """(mats 2^-e, e) per tuple of an (..., m, n, n) stack, with 2^e just above
    the tuple's largest entry and e of shape (..., 1, 1, 1); e = 0 for a zero tuple.

    Scaling by a power of two is exact, and the scaled entries lie below 1 in
    magnitude, so their products and sums of squares cannot overflow.
    """
    e = np.frexp(np.abs(mats).max(axis=(-3, -2, -1), keepdims=True))[1]
    return np.ldexp(mats, -e), e


def unit_stack(mats):
    """Each tuple of an (..., m, n, n) stack scaled to total norm 1, a zero tuple
    unscaled.

    The norm is `inner` on the tuple of `scale_pow2`, so it neither overflows
    nor underflows; away from overflow and underflow the result is
    mats / |mats| bit for bit.
    """
    mats = scale_pow2(mats)[0]
    total = inner(mats, mats, 3)[..., None, None, None]
    return mats / np.sqrt(total + (total == 0))  # a zero tuple is divided by 1


def commutators_and_gram(mats):
    """The commutators [B_a, B_b] as an (..., m, m, n, n) stack and the m x m
    Gram matrices <B_a, B_b> of an (..., m, n, n) stack.

    One batched GEMM, (mn, n) @ (n, mn) per tuple, gives every product
    B_a B_b as block (a, b).  [B_a, B_a] is exactly zero, and so is the
    commutator of two diagonal matrices, since both of its products sum the
    same terms.
    """
    mats = np.asarray(mats, dtype=float)
    lead, (m, n) = mats.shape[:-3], mats.shape[-3:-1]
    rows = mats.reshape(*lead, m * n, n)  # [B_1; ...; B_m]
    cols = mats.swapaxes(-3, -2).reshape(*lead, n, m * n)  # [B_1 | ... | B_m]
    prod = (rows @ cols).reshape(*lead, m, n, m, n).swapaxes(-3, -2)
    flat = mats.reshape(*lead, m, n * n)
    return prod - prod.swapaxes(-4, -3), flat @ flat.swapaxes(-1, -2)


def random_orthogonal(n, seed, shape=()):
    """Haar-distributed orthogonal matrices, (*shape, n, n), from QR factorizations.

    Standard-Gaussian matrices are orthonormalized and the signs of each R
    diagonal fixed so the distribution is uniform.  `seed` is anything
    np.random.default_rng accepts; a Generator is drawn from in place.
    Deterministic for a fixed integer seed, and the matrices of a stack are
    drawn one after another, so a stack of k continues the same stream as k
    single draws from one Generator.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((*shape, n, n))
    q, r = np.linalg.qr(g)
    d = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    d[d == 0] = 1.0
    return q * d[..., None, :]

