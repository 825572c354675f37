"""Seeded random property suite shared by the CLI and the test suite.

Hard failures are violations of proved statements: dual-route agreement,
invariances and the inequalities, the DDVV bound among them (proved for all
(n, m) by Ge & Tang, 2008, and Lu, 2011).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import curvature, inequalities
from .curvature import ShapeOperatorSet
from .matrix_core import random_orthogonal, unit_stack


def random_shape_set(n, m, rng, ambient_range=1.0):
    """Unit-normalized random shape operators with a random ambient c."""
    g = rng.standard_normal((m, n, n))
    ops, _ = unit_stack((g + np.transpose(g, (0, 2, 1))) / 2.0)
    c = float(rng.uniform(-ambient_range, ambient_range))
    return ShapeOperatorSet(ops, ambient_c=c)


def _rel_err(x, y):
    return abs(x - y) / max(1.0, abs(x), abs(y))


@dataclass
class FuzzSummary:
    samples: int = 0
    hard_failures: int = 0
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
    for k in range(samples):
        s = random_shape_set(n, m, rng)

        # dual-route agreement
        inv, checks = inequalities.point_checks(s, tol)
        rho_a = curvature.rho_direct(s)
        summary.record(_rel_err(rho_a, inv.rho) <= rel_tol, "rho-dual-route")
        rp_a = curvature.rho_perp_direct(s)
        summary.record(_rel_err(rp_a, inv.rho_perp) <= rel_tol, "rho-perp-dual-route")

        # orthogonal invariance (tangent conjugation and normal mixing)
        o_t = random_orthogonal(n, rng.integers(2**63))
        conj = ShapeOperatorSet(o_t.T @ s.ops @ o_t, s.ambient_c)
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
        summary.record(_rel_err(curvature.mean_curvature_sq(mixed), inv.h_sq) <= rel_tol,
                       "h-sq-normal-invariance")

        # theorem-status inequalities
        for check in checks:
            summary.record(check.holds, check.label)
        if m >= 2:
            i, j = rng.choice(m, size=2, replace=False)
            summary.record(
                inequalities.cdk_check(s.ops[i], s.ops[j], tol).holds, "cdk")
    return summary
