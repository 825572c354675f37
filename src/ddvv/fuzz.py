"""Seeded random property suite shared by the CLI and the test suite.

Hard failures are violations of proved statements (dual-route agreement,
invariances, the theorem-status inequalities).  Violations of the
conjectured bound outside its proved regimes are recorded separately and
never counted as failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import curvature, inequalities
from .curvature import ShapeOperatorSet
from .matrix_core import conjugate, frobenius_norm_sq, random_orthogonal


def random_shape_set(n, m, rng, ambient_range=1.0):
    """Unit-normalized random shape operators with a random ambient c."""
    g = rng.standard_normal((m, n, n))
    ops = (g + np.transpose(g, (0, 2, 1))) / 2.0
    total = np.sqrt(np.sum(ops * ops))
    if total > 0:
        ops = ops / total
    c = float(rng.uniform(-ambient_range, ambient_range))
    return ShapeOperatorSet(ops, ambient_c=c)


def _rel_err(x, y):
    return abs(x - y) / max(1.0, abs(x), abs(y))


@dataclass
class FuzzSummary:
    samples: int = 0
    hard_failures: int = 0
    conjecture_violations: int = 0
    failure_labels: list = field(default_factory=list)

    def record(self, ok, label):
        if not ok:
            self.hard_failures += 1
            if label not in self.failure_labels:
                self.failure_labels.append(label)


def run_fuzz(n, m, samples, seed, tol=1e-9, rel_tol=1e-10):
    """Run the full property suite over seeded random configurations."""
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 and m >= 1")
    if samples < 0:
        raise ValueError("samples must be >= 0")
    rng = np.random.default_rng(np.random.SeedSequence([seed & (2**64 - 1), n, m]))
    summary = FuzzSummary(samples=samples)
    proved_regime = m <= 3 or n <= 3
    for k in range(samples):
        s = random_shape_set(n, m, rng)

        # dual-route agreement
        rho_a = curvature.rho_direct(s)
        rho_b = curvature.rho_identity(s)
        summary.record(_rel_err(rho_a, rho_b) <= rel_tol, "rho-dual-route")
        rp_a = curvature.rho_perp_direct(s)
        rp_b = curvature.rho_perp_commutator(s)
        summary.record(_rel_err(rp_a, rp_b) <= rel_tol, "rho-perp-dual-route")

        # orthogonal invariance (tangent conjugation and normal mixing)
        o_t = random_orthogonal(n, rng.integers(2**63))
        conj = ShapeOperatorSet(
            np.stack([conjugate(op, o_t) for op in s.ops]), s.ambient_c)
        summary.record(_rel_err(curvature.rho_direct(conj), rho_a) <= rel_tol,
                       "rho-tangent-invariance")
        summary.record(
            _rel_err(curvature.rho_perp_direct(conj), rp_a) <= rel_tol,
            "rho-perp-tangent-invariance")
        o_n = random_orthogonal(m, rng.integers(2**63))
        mixed = ShapeOperatorSet(
            np.einsum("ab,aij->bij", o_n, s.ops), s.ambient_c)
        summary.record(_rel_err(curvature.rho_direct(mixed), rho_a) <= rel_tol,
                       "rho-normal-invariance")
        summary.record(
            _rel_err(curvature.rho_perp_direct(mixed), rp_a) <= rel_tol,
            "rho-perp-normal-invariance")
        summary.record(
            _rel_err(curvature.mean_curvature_sq(mixed),
                     curvature.mean_curvature_sq(s)) <= rel_tol,
            "h-sq-normal-invariance")

        # theorem-status inequalities
        summary.record(inequalities.chen_check(s, tol).holds, "chen")
        wm, wn = inequalities.weak_checks(s, tol)
        summary.record(wm.holds, "weak-codim")
        summary.record(wn.holds, "weak-dim")
        summary.record(inequalities.lili_check(s.ops, tol).holds, "li-li")
        if m >= 2:
            i, j = rng.choice(m, size=2, replace=False)
            summary.record(
                inequalities.cdk_check(s.ops[i], s.ops[j], tol).holds, "cdk")

        # conjectured bound: assert in proved regimes, record otherwise
        ddvv = inequalities.ddvv_check(curvature.traceless_parts(s), tol)
        if proved_regime:
            summary.record(ddvv.holds, "ddvv-proved-regime")
        elif not ddvv.holds:
            summary.conjecture_violations += 1
    return summary
