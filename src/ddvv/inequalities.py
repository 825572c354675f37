"""Decision procedures for the matrix and curvature inequalities.

Each check returns a CheckResult with the two sides, a holds flag and an
equality flag.  The bundle `point_checks` decides ddvv and li-li, of degree
0, as ratios at an exact power-of-two scale, and the curvature checks with
a tolerance that scales with the point; `ddvv_check` and `lili_check` are
its views on a matrix tuple, `chen_check` and `weak_checks` its views on a
point.  Every check decides elementwise: a stack of
points or tuples, with leading axes, gives a CheckResult of arrays; one
point gives Python floats and bools.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import curvature
from .curvature import ShapeOperatorSet
from .matrix_core import (
    commutators_and_gram, scalar_or_array, scale_pow2, sum_sq, traceless_project, unit_stack)

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    lhs: float
    rhs: float
    holds: bool
    equality: bool
    tol: float
    label: str

    def as_dict(self):
        return {
            "label": self.label,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": bool(self.holds),
            "equality": bool(self.equality),
            "tol": self.tol,
        }


def _result(lhs, rhs, tol, label):
    return _bound(lhs, rhs, tol, label, tol * np.maximum(1.0, abs(rhs)))


def _bound(lhs, rhs, tol, label, atol, equality=None):
    """Holds if lhs <= rhs + atol; equality if |lhs - rhs| <= atol, unless given.

    Floats or arrays of one shape; the decision is elementwise.
    """
    if equality is None:
        equality = abs(lhs - rhs) <= atol
    holds = equality | (lhs <= rhs + atol)
    if not isinstance(holds, np.ndarray):  # one point: plain Python values
        lhs, rhs, holds, equality = float(lhs), float(rhs), bool(holds), bool(equality)
    return CheckResult(lhs=lhs, rhs=rhs, holds=holds, equality=equality, tol=tol, label=label)


def ddvv_check(t, tol=DEFAULT_TOL) -> CheckResult:
    """The DDVV bound of traceless symmetric tuples, the ddvv check of
    `point_checks` on them as shape operators; rejects tuples that are not
    traceless within `tol` of their largest entry, at every scale."""
    s = ShapeOperatorSet(t)
    b = scale_pow2(s.ops)[0]  # entries below 1: |B_a|^2 cannot overflow
    norms = np.sqrt((b * b).sum(axis=(-2, -1)))
    if np.any(np.abs(b.trace(axis1=-2, axis2=-1)) / np.maximum(1.0, norms) > tol):
        raise ValueError("ddvv_check requires traceless matrices")
    return point_checks(s, tol)[1][0]


def equality_certificate(t):
    """(canonical tuple, residual) of traceless symmetric tuples (..., m, n, n).

    The DDVV sides are equal exactly on one O(n) x O(m) orbit (Ge & Tang,
    2008; Lu, 2011): B_1 and B_2 are the pair mu (e_1 e_2^T + e_2 e_1^T),
    mu (e_1 e_1^T - e_2 e_2^T) on a 2-plane, of equal norms, and every other
    B_a is 0.  Each tuple is first scaled by `scale_pow2`; that is exact, so
    nothing here depends on 2^k scaling, and the scaled tuple cannot
    overflow.  The canonical tuple C is the Gram-diagonalizing mix
    B'_b = sum_a O_ab B_a, largest norm first, projected traceless, at the
    input's scale.  The residual, in units of
    |B|^2, is 0 exactly on the orbit: the largest of the Gram spectrum beyond
    the top two eigenvalues, the gap between those two, |C_1^2 - C_2^2|,
    |C_1 C_2 + C_2 C_1| and, on the unit tuple, |(C_1^2)^2 - C_1^2 / 4|.  A
    zero tuple has residual 0; a nonzero one with m = 1 is off the orbit.
    """
    mats = ShapeOperatorSet(t).ops
    m = mats.shape[-3]
    b, e = scale_pow2(mats.reshape(-1, *mats.shape[-3:]))  # one tuple per row
    flat = b.reshape(len(b), m, -1)
    gram = flat @ flat.swapaxes(1, 2)
    lam, vecs = np.linalg.eigh(gram)  # ascending
    mixed = np.einsum("kab,kaij->kbij", vecs, b)
    order = np.argsort((mixed * mixed).sum(axis=(2, 3)))[:, ::-1]
    canon = traceless_project(mixed[np.arange(len(b))[:, None], order])
    total = np.trace(gram, axis1=1, axis2=2)
    unit = total + (total == 0)  # a zero tuple has zero terms: divide by 1
    pair = canon[:, :2] / np.sqrt(unit)[:, None, None, None]  # of the unit tuple
    if m == 1:  # a zero matrix and eigenvalue stand in for the second
        pair = np.concatenate([pair, 0 * pair], axis=1)
        lam = np.concatenate([0 * lam, lam], axis=1)
    c1, c2 = pair[:, 0], pair[:, 1]
    sq1 = c1 @ c1
    defects = np.stack([sq1 - c2 @ c2, c1 @ c2 + c2 @ c1, sq1 @ sq1 - sq1 / 4.0])
    residual = np.max([np.abs(lam[:, :-2]).sum(axis=1) / unit,
                       (lam[:, -1] - lam[:, -2]) / unit,
                       *np.sqrt((defects * defects).sum(axis=(2, 3)))], axis=0)
    return (np.ldexp(canon, e).reshape(mats.shape),
            scalar_or_array(residual.reshape(mats.shape[:-3])))


def cdk_check(b1, b2, tol=DEFAULT_TOL) -> CheckResult:
    """Pairwise commutator bound ||[B1, B2]||^2 <= 2 ||B1||^2 ||B2||^2.

    `b1` and `b2` are two matrices or two (..., n, n) stacks of them, one
    pair per leading index.
    """
    pairs = ShapeOperatorSet(np.stack([b1, b2], axis=-3)).ops
    comm, gram = commutators_and_gram(unit_stack(pairs))
    lhs = sum_sq(comm[..., 0, 1, :, :], 2)
    return _result(lhs, 2.0 * gram[..., 0, 0] * gram[..., 1, 1], tol, "cdk")


def lili_check(t, tol=DEFAULT_TOL) -> CheckResult:
    """Commutator plus Gram-square bound with constant 3/2 of symmetric
    tuples, traceless or not, the li-li check of `point_checks` on them as
    shape operators."""
    return point_checks(ShapeOperatorSet(t), tol)[1][4]


def weak_constant_m(m: int) -> float:
    """Codimension-based constant sqrt((2m - 1) / (3m - 3))."""
    if m < 2:
        raise ValueError("constant requires m >= 2")
    return math.sqrt((2 * m - 1) / (3 * m - 3))


def weak_constant_n(n: int) -> float:
    """Dimension-based constant sqrt((2/3) (n^2 + n - 3) / (n^2 + n - 4)).

    Equals weak_constant_m(n(n+1)/2 - 1): the codimension can be replaced
    by the dimension of the image of the traceless second fundamental form,
    which is at most n(n+1)/2 - 1.
    """
    if n < 2:
        raise ValueError("constant requires n >= 2")
    return math.sqrt((2.0 / 3.0) * (n * n + n - 3) / (n * n + n - 4))


def point_checks(s: ShapeOperatorSet, tol=DEFAULT_TOL):
    """(invariants, [ddvv, chen, weak-codim, weak-dim, li-li]) of a point or a
    stack of points, from one `curvature.invariants` evaluation.

    ddvv and li-li have degree 0 and are decided at exact scales, off the
    parts B 2^-e, commutator sum S and Gram matrix G of the invariants: ddvv
    is S / (tr G)^2 against 1, and its equality is kept only where
    `equality_certificate` of B 2^-e is within `tol`; only the points whose
    sides agree get a certificate, and holds stays as the sides decide it.
    Li-Li takes A_a = B_a + H_a I at the scale 2^-f of `scale_pow2` of A:
    [A_a, A_b] = [B_a, B_b] and <A_a, A_b> = <B_a, B_b> + n H_a H_b, so its
    sides are (S + sum <A_a, A_b>^2) / |A|^4 and 3/2.  A zero b, or point,
    gives 0 and 0.  Scaling the operators by 2^k shifts e and f by k and
    leaves every scaled value as it is.

    chen and weak-* compare sides that are signed sums of terms bounded by
    the point's degree-2 scale |c| + |H|^2 + |b|^2 / (n(n-1)), and take their
    tolerance relative to it: scaling the operators by 2^k and c by 4^k
    scales every invariant exactly by 4^k and leaves every flag unchanged.
    Chen's sides differ by exactly |b|^2 / (n(n-1)), which decides its
    equality.  Overflow raises no warning, in the bundle or any of its views.
    """
    inv = curvature.invariants(s)
    parts, comm_sq, gram, e = inv.scaled
    b_sq = np.trace(gram, axis1=-2, axis2=-1)
    ddvv = _result(comm_sq / (b_sq * b_sq + (b_sq == 0)), 1.0 * (b_sq > 0), tol, "ddvv")
    equal = np.array(ddvv.equality)
    if equal.any():
        equal[equal] = equality_certificate(parts[equal])[1] <= tol
        ddvv = replace(ddvv, equality=scalar_or_array(equal))
    a, f = scale_pow2(s.ops)  # |A_ij| < 2^f, so |B_ij| < 2^(f + 1) and |n H_a| < n 2^f
    f = f[..., 0, 0, 0]
    t = a.trace(axis1=-2, axis2=-1)  # n H 2^-f
    gram = np.ldexp(gram, 2 * (e - f)[..., None, None]) + t[..., :, None] * t[..., None, :] / s.n
    total = np.trace(gram, axis1=-2, axis2=-1)
    lili = (np.ldexp(comm_sq, 4 * (e - f)) + sum_sq(gram, 2)) / (total * total + (total == 0))
    n, c = s.n, inv.ambient_c
    cm = weak_constant_m(s.m) if s.m >= 2 else 1.0
    cn = weak_constant_n(n)
    with np.errstate(over="ignore", invalid="ignore"):  # the degree-2 sides may overflow
        gap = inv.b_sq / (n * (n - 1))
        atol = tol * (abs(c) + inv.h_sq + gap)
        return inv, [
            ddvv,
            _bound(inv.rho, inv.h_sq + c, tol, "chen", atol, gap <= atol),
            _bound(inv.rho, inv.h_sq - cm * inv.rho_perp + c, tol, "weak-codim", atol),
            _bound(inv.rho, inv.h_sq - cn * inv.rho_perp + c, tol, "weak-dim", atol),
            _result(lili, 1.5 * (total > 0), tol, "li-li"),
        ]


def weak_checks(s: ShapeOperatorSet, tol=DEFAULT_TOL):
    """The two provable weakenings rho <= |H|^2 - C rho_perp + c, the weak-*
    checks of `point_checks`.

    Returns (codimension-constant check, dimension-constant check).  For
    m = 1 the normal curvature vanishes and the codimension constant is
    irrelevant; it is taken as 1 so the check degenerates to Chen's bound.
    """
    return tuple(point_checks(s, tol)[1][2:4])


def chen_check(s: ShapeOperatorSet, tol=DEFAULT_TOL) -> CheckResult:
    """Normally-flat bound rho <= |H|^2 + c, the chen check of `point_checks`;
    equality iff b vanishes at the point's scale."""
    return point_checks(s, tol)[1][1]
