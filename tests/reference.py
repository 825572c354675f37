"""Per-matrix references that the tests compare the stack kernels against.

The library computes on whole (..., m, n, n) stacks; these helpers take one
matrix or one pair at a time, so a test can check a kernel entry by entry
against a formula written out on its own.  `ddvv_sides` and `lili_sides`
sum the two degree-0 bounds of the check bundle pair by pair,
`curvature_sides` takes the sides of its curvature bounds from the Gauss and
Ricci component sums, and `curvature_form_bound` decides the DDVV bound of
one point in the form that the check bundle does not use.
"""

import numpy as np

from ddvv.curvature import mean_curvature_sq, rho_direct, rho_perp_direct
from ddvv.inequalities import weak_constant_m, weak_constant_n
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


def _pow2_scaled(t):
    """The matrices of `t` times 2^-e, with 2^e just above their largest
    entry: exact, and small enough that no product or sum of squares overflows."""
    t = np.asarray(t, dtype=float)
    peak = float(np.max(np.abs(t)))
    return [np.ldexp(b, -np.frexp(peak)[1]) for b in t]


def _sides(terms, total, constant):
    """(terms / total^2, constant), or (0, 0) where the total is 0."""
    return (terms / total**2, constant) if total > 0 else (0.0, 0.0)


def ddvv_sides(t):
    """(S / |B|^4, 1) of one traceless tuple, S = sum over ordered pairs of
    ||[B_a, B_b]||^2, one pair at a time; (0, 0) for a zero tuple."""
    b = _pow2_scaled(t)
    s = sum(frobenius_norm_sq(commutator(x, y)) for x in b for y in b)
    return _sides(s, sum(frobenius_norm_sq(x) for x in b), 1.0)


def lili_sides(t):
    """((S + sum <B_a, B_b>^2) / |B|^4, 3/2) of one tuple, traceless or not,
    over all ordered pairs, one pair at a time; (0, 0) for a zero tuple."""
    b = _pow2_scaled(t)
    s = sum(frobenius_norm_sq(commutator(x, y)) + frobenius_inner(x, y) ** 2
            for x in b for y in b)
    return _sides(s, sum(frobenius_norm_sq(x) for x in b), 1.5)


def curvature_sides(s):
    """([(lhs, rhs) of chen, weak-codim, weak-dim], degree-2 scale) of one
    point, rho and rho_perp from the Gauss and Ricci component sums.

    The scale is |c| + |H|^2 + |b|^2 / (n(n-1)), with |b|^2 summed matrix by
    matrix; the codimension constant is 1 for m = 1.
    """
    n, c = s.n, s.ambient_c
    rho, rho_perp, h_sq = rho_direct(s), rho_perp_direct(s), mean_curvature_sq(s)
    cm = weak_constant_m(s.m) if s.m >= 2 else 1.0
    scale = abs(c) + h_sq + sum(frobenius_norm_sq(b) for b in traceless_project(s.ops)) / (n * (n - 1))
    rhs = (h_sq + c, h_sq - cm * rho_perp + c, h_sq - weak_constant_n(n) * rho_perp + c)
    return [(rho, r) for r in rhs], scale


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
