"""Explicit Lagrangian shape-operator families and their closed forms.

Three families: the H-umbilical family in complex dimension n, a minimal
family in complex dimension 3 parametrized by (a, b, c, d), and an
ultra-minimal 2+2 block family in complex dimension 4.  The normal frame
is J e_1, ..., J e_n throughout, so codimension equals dimension and the
coefficient array <h(e_i, e_j), J e_k> is totally symmetric.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .curvature import CurvatureInvariants, ShapeOperatorSet, invariants
from .inequalities import DEFAULT_TOL, CheckResult, _bound, point_checks
from .matrix_core import scalar_or_array


def lagrangian_symmetry_check(s: ShapeOperatorSet, tol=DEFAULT_TOL):
    """Total symmetry of C[a, i, j] = (A_a)_ij under all index permutations.

    The operators are symmetric in (i, j) already, so swapping the normal
    index with a tangent index is the only condition left to verify.  The
    defect is compared with tol max|C|, so no flag depends on the scale; a
    zero cube is symmetric.  A bool for one point, a bool array for a stack.
    """
    if s.m != s.n:
        raise ValueError("Lagrangian frame requires codimension == dimension")
    cube = s.ops
    defect = np.abs(cube - cube.swapaxes(-3, -2)).max(axis=(-3, -2, -1))
    return scalar_or_array(defect <= tol * np.abs(cube).max(axis=(-3, -2, -1)))


def h_umbilical(n, lam, mu) -> ShapeOperatorSet:
    """Shape operators of the H-umbilical family in complex dimension n >= 2.

    A_1 = diag(lam, mu, ..., mu); for j >= 2, A_j has mu in the (1, j) and
    (j, 1) slots and zeros elsewhere.  Flat ambient space.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    ops = np.zeros((n, n, n))
    ops[0] = np.diag([lam] + [mu] * (n - 1))
    j = np.arange(1, n)
    ops[j, 0, j] = ops[j, j, 0] = mu
    return ShapeOperatorSet(ops, ambient_c=0.0)


def h_umbilical_closed(n, lam, mu):
    """Closed forms for the two sides of the commutator-sum bound.

    Returns (lhs, rhs, quartic): the ordered commutator sum, the squared
    total norm of the traceless parts, and the quartic whose nonnegativity
    is equivalent to lhs <= rhs.
    """
    dl = lam - mu
    lhs = 2.0 * (n - 1) * mu**2 * ((n - 2) * mu**2 + 2.0 * dl**2)
    rhs = (n - 1) ** 2 * (dl**2 / n + 2.0 * mu**2) ** 2
    quartic = 2.0 * n * mu**4 - (4.0 / n) * mu**2 * dl**2 \
        + (n - 1) / n**2 * dl**4
    return lhs, rhs, quartic


def minimal_lagrangian_c3(a, b, c, d) -> ShapeOperatorSet:
    """Shape operators of the minimal family in complex dimension 3."""
    ops = np.array([
        [[a + b, 0.0, 0.0],
         [0.0, -a, 0.0],
         [0.0, 0.0, -b]],
        [[0.0, -a, 0.0],
         [-a, c, -d],
         [0.0, -d, -c]],
        [[0.0, 0.0, -b],
         [0.0, -d, -c],
         [-b, -c, d]],
    ])
    return ShapeOperatorSet(ops, ambient_c=0.0)


def c3_closed(a, b, c, d):
    """Closed-form (3 rho, 9 rho_perp^2) for the complex-dimension-3 family."""
    three_rho = -2.0 * (a * a + b * b + c * c + d * d) - a * b
    nine_rho_perp_sq = (
        4.0 * (a**4 + b**4 + c**4 + d**4) + 4.0 * a**3 * b + 4.0 * a * b**3
        + 3.0 * a * a * b * b
        + 2.0 * a * a * c * c + 2.0 * a * a * d * d
        + 2.0 * b * b * c * c + 2.0 * b * b * d * d
        + 8.0 * c * c * d * d
        - 8.0 * a * b * c * c - 8.0 * a * b * d * d
    )
    return three_rho, nine_rho_perp_sq


def s3_equality_form(a: float) -> ShapeOperatorSet:
    """Equality-case operators for the complex-dimension-3 family."""
    ops = np.array([
        [[a, 0.0, 0.0], [0.0, -a, 0.0], [0.0, 0.0, 0.0]],
        [[0.0, -a, 0.0], [-a, 0.0, 0.0], [0.0, 0.0, 0.0]],
        np.zeros((3, 3)),
    ])
    return ShapeOperatorSet(ops, ambient_c=0.0)


def csf_invariants(s: ShapeOperatorSet, c: float) -> CurvatureInvariants:
    """Invariants of a Lagrangian set in constant holomorphic curvature 4c.

    The Gauss sum keeps the real-space-form shape with constant c; the
    Ricci components pick up the ambient term, so the normal curvature
    tensor of the pair (a, b) is [A_a, A_b] + c (E_ab - E_ba), E_ab = e_a e_b^T.
    As [A_a, A_b] is skew,
    sum_{a,b} ||[A_a, A_b] + c (E_ab - E_ba)||^2
        = S + 4c sum_{a,b} ([A_a, A_b])_ab + 2c^2 n(n-1),
    with S = (n(n-1) rho_perp)^2 the flat commutator sum.  On a totally
    symmetric cube C[a, i, j] = (A_a)_ij the middle sum is
    sum_k (tr A_k)^2 - sum C[a, i, j]^2 = n(n-1) |H|^2 - |b|^2, so every term
    comes from one `invariants` evaluation.  At c = 0 these are the flat
    invariants, rho_perp to rounding.  A stack is rejected if any of its
    points fails the symmetry check.
    """
    if not np.all(lagrangian_symmetry_check(s)):  # which also rejects m != n
        raise ValueError("operators fail the Lagrangian symmetry property")
    nn = s.n * (s.n - 1)
    inv = invariants(ShapeOperatorSet(s.ops, ambient_c=c))
    # the ambient terms over nn^2, divided before c^2 nn can overflow
    ambient = 4.0 * c * (inv.h_sq - inv.b_sq / nn) / nn + 2.0 * c * c / nn
    # a sum of squares, which rounding must not take below 0
    rho_perp = scalar_or_array(np.sqrt(np.maximum(inv.rho_perp**2 + ambient, 0.0)))
    return replace(inv, rho_perp=rho_perp, slack=inv.h_sq - rho_perp + c - inv.rho)


def csf_bound_rhs(rho: float, c: float) -> float:
    """Right side (rho - c)^2 + (2/3) c (rho - c) + c^2 / 3 of the CSF bound.

    With the Ricci components of csf_invariants, the squared normal
    curvature of a minimal Lagrangian set satisfies the identity
    9 (rho_perp)^2 = 9 (rho_perp_flat)^2 - c ||b||^2 + 3 c^2, so the flat
    bound (rho_perp_flat)^2 <= rho_flat^2 translates into exactly this
    right side, with the same equality cases for every c.
    """
    return (rho - c) ** 2 + (2.0 / 3.0) * c * (rho - c) + c * c / 3.0


def csf_check(s: ShapeOperatorSet, c: float, tol=DEFAULT_TOL) -> CheckResult:
    """The csf bound rho_perp^2 <= `csf_bound_rhs`(rho, c) of a minimal Lagrangian
    set in holomorphic curvature 4c, with the tolerance tol D^2 of its degree-4 sides,
    D = |c| + |H|^2 + |b|^2 / (n(n-1)), and the ddvv equality of `point_checks`, as
    its defect is the flat one, which c^2 terms cannot swamp: no flag depends on scale."""
    inv = csf_invariants(s, c)
    d = abs(c) + inv.h_sq + inv.b_sq / (s.n * (s.n - 1))
    return _bound(inv.rho_perp**2, csf_bound_rhs(inv.rho, c), tol, "csf-bound", tol * d * d,
                  equality=point_checks(s, tol)[1][0].equality)


def ultraminimal_c4_22(a, b, c, d) -> ShapeOperatorSet:
    """Ultra-minimal 2+2 block operators in complex dimension 4.

    The lower block of the fourth operator follows the same rotated pattern
    as the second operator; this is the form consistent with total symmetry
    of the coefficient cube and with the family's closed forms.
    """
    z = np.zeros((2, 2))
    top1 = np.array([[a, b], [b, -a]])
    top2 = np.array([[b, -a], [-a, -b]])
    bot3 = np.array([[c, d], [d, -c]])
    bot4 = np.array([[d, -c], [-c, -d]])
    ops = np.array([
        np.block([[top1, z], [z, z]]),
        np.block([[top2, z], [z, z]]),
        np.block([[z, z], [z, bot3]]),
        np.block([[z, z], [z, bot4]]),
    ])
    return ShapeOperatorSet(ops, ambient_c=0.0)


def c4_closed(a, b, c, d):
    """Closed-form (6 rho, 36 rho_perp^2) for the 2+2 block family."""
    six_rho = -2.0 * (a * a + b * b + c * c + d * d)
    thirtysix = 4.0 * ((a * a + b * b) ** 2 + (c * c + d * d) ** 2)
    return six_rho, thirtysix


def eq_5_1_form(a: float, b: float) -> ShapeOperatorSet:
    """Equality-case operators for the 2+2 block family (lower block zero)."""
    return ultraminimal_c4_22(a, b, 0.0, 0.0)
