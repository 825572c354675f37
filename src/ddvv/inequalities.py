"""Decision procedures for the matrix and curvature inequalities.

Each check returns a CheckResult with the two sides, a holds flag and an
equality flag.  Checks on matrix tuples normalize to total norm 1 first
(both sides are degree-4 homogeneous), so one absolute tolerance fits all
scales; the curvature checks of a point scale their tolerance with it.
Every check decides elementwise: a stack of points or tuples, with leading
axes, gives a CheckResult of arrays; one point gives Python floats and bools.
A matrix tuple is validated as the operators of a `ShapeOperatorSet`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import curvature
from .curvature import ShapeOperatorSet, _relative_traces
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
    """Commutator-sum bound for traceless symmetric tuples.

    lhs = sum over ordered pairs of ||[B_a, B_b]||^2, rhs = (sum ||B_a||^2)^2.
    Equality needs equal sides and a tuple on the equality orbit, within
    `tol` of `equality_certificate`.  Rejects tuples that are not traceless
    within `tol`.
    """
    mats = ShapeOperatorSet(t).ops
    if np.any(_relative_traces(mats) > tol):
        raise ValueError("ddvv_check requires traceless matrices")
    comm, gram = commutators_and_gram(unit_stack(mats))
    result = _result(sum_sq(comm, 4), np.trace(gram, axis1=-2, axis2=-1) ** 2, tol, "ddvv")
    return _on_orbit(result, mats, tol)


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


def _on_orbit(check, ops, tol):
    """`check` with its equality flag kept only where the traceless parts of
    `ops` pass `equality_certificate` within `tol`.

    Only the tuples whose sides are equal get a certificate; holds stays as
    the sides decide it.
    """
    equality = np.array(check.equality)
    if not equality.any():
        return check
    equality[equality] = equality_certificate(traceless_project(ops[equality]))[1] <= tol
    return replace(check, equality=scalar_or_array(equality))


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
    """Commutator plus Gram-square bound with constant 3/2.

    Both double sums run over all ordered pairs, including the diagonal
    terms <B_a, B_a>^2 = ||B_a||^4.  Trace-free input is not required.
    """
    comm, gram = commutators_and_gram(unit_stack(ShapeOperatorSet(t).ops))
    return _lili_sides(sum_sq(comm, 4), gram, tol)


def _lili_sides(comm_sq, gram, tol):
    """Li-Li from sum ||[B_a, B_b]||^2 and the Gram matrix of a unit stack."""
    trace = np.trace(gram, axis1=-2, axis2=-1)
    return _result(comm_sq + sum_sq(gram, 2), 1.5 * trace**2, tol, "li-li")


@functools.cache
def weak_constant_m(m: int) -> float:
    """Codimension-based constant sqrt((2m - 1) / (3m - 3))."""
    if m < 2:
        raise ValueError("constant requires m >= 2")
    return float(np.sqrt((2 * m - 1) / (3 * m - 3)))


@functools.cache
def weak_constant_n(n: int) -> float:
    """Dimension-based constant sqrt((2/3) (n^2 + n - 3) / (n^2 + n - 4)).

    Equals weak_constant_m(n(n+1)/2 - 1): the codimension can be replaced
    by the dimension of the image of the traceless second fundamental form,
    which is at most n(n+1)/2 - 1.
    """
    if n < 2:
        raise ValueError("constant requires n >= 2")
    return float(np.sqrt((2.0 / 3.0) * (n * n + n - 3) / (n * n + n - 4)))


def _invariant_checks(s: ShapeOperatorSet, inv, tol):
    """ddvv, chen, weak-codim and weak-dim from the invariants `inv` of `s`.

    As rho_perp = sqrt(sum ||[B_a, B_b]||^2) / (n(n-1)), the DDVV sides of the
    unit stack B / |b| are (n(n-1) rho_perp / |b|^2)^2 and 1, or 0 and 0.
    The other three compare sides that are signed sums of terms bounded by
    the point's degree-2 scale |c| + |H|^2 + |b|^2 / (n(n-1)), and take their
    tolerance relative to it: scaling the operators by 2^k and c by 4^k scales
    every invariant exactly by 4^k and leaves every flag unchanged.  Chen's
    sides differ by exactly |b|^2 / (n(n-1)), which decides its equality.
    """
    n, c, nonzero = s.n, inv.ambient_c, inv.b_sq > 0
    # a zero b has rho_perp = 0: divide by 1 there
    ddvv = (n * (n - 1) * inv.rho_perp / (inv.b_sq + (inv.b_sq == 0))) ** 2
    cm = weak_constant_m(s.m) if s.m >= 2 else 1.0
    gap = inv.b_sq / (n * (n - 1))
    atol = tol * (abs(inv.ambient_c) + inv.h_sq + inv.b_sq / (n * (n - 1)))
    return [
        _result(ddvv, 1.0 * nonzero, tol, "ddvv"),
        _bound(inv.rho, inv.h_sq + c, tol, "chen", atol, gap <= atol),
        _bound(inv.rho, inv.h_sq - cm * inv.rho_perp + c, tol, "weak-codim", atol),
        _bound(inv.rho, inv.h_sq - weak_constant_n(n) * inv.rho_perp + c, tol, "weak-dim", atol),
    ]


def point_checks(s: ShapeOperatorSet, tol=DEFAULT_TOL):
    """(invariants, [ddvv, chen, weak-codim, weak-dim, li-li]) of a point or a
    stack of points, from one `curvature.invariants` evaluation.

    Li-Li needs the commutator sum and the Gram matrix of the operators
    A_a = B_a + H_a I themselves, on their unit stack.  Both come off the
    traceless stack exactly: [A_a, A_b] = [B_a, B_b], so the commutator sum
    is (n(n-1) rho_perp)^2, and <A_a, A_b> = <B_a, B_b> + n H_a H_b, with
    |A|^2 = |b|^2 + n |H|^2.
    """
    inv = curvature.invariants(s)
    n = s.n
    total = inv.b_sq + n * inv.h_sq
    total = np.asarray(total + (total == 0))  # a zero point has zero sides: divide by 1
    # sqrt(n) H / |A|, at most 1, so its outer product cannot overflow; the
    # square roots are taken apart, as n |A|^2 overflows before |A|^2 does
    u = s.ops.trace(axis1=-2, axis2=-1) / (np.sqrt(n) * np.sqrt(total))[..., None]
    gram = inv.gram / total[..., None, None] + u[..., :, None] * u[..., None, :]
    comm_sq = (n * (n - 1) * inv.rho_perp / total) ** 2
    ddvv, *rest = _invariant_checks(s, inv, tol)
    return inv, [_on_orbit(ddvv, s.ops, tol), *rest, _lili_sides(comm_sq, gram, tol)]


def weak_checks(s: ShapeOperatorSet, tol=DEFAULT_TOL):
    """The two provable weakenings rho <= |H|^2 - C rho_perp + c.

    Returns (codimension-constant check, dimension-constant check).  For
    m = 1 the normal curvature vanishes and the codimension constant is
    irrelevant; it is taken as 1 so the check degenerates to Chen's bound.
    """
    return tuple(_invariant_checks(s, curvature.invariants(s), tol)[2:])


def chen_check(s: ShapeOperatorSet, tol=DEFAULT_TOL) -> CheckResult:
    """Normally-flat bound rho <= |H|^2 + c; equality iff b vanishes at the point's scale."""
    return _invariant_checks(s, curvature.invariants(s), tol)[1]
