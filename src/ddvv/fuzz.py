"""Seeded random property suite shared by the CLI and the test suite.

Hard failures are violations of proved statements: dual-route agreement,
invariances and the inequalities, the DDVV bound among them (proved for all
(n, m) by Ge & Tang, 2008, and Lu, 2011).  Samples are drawn and checked in
blocks, each block as one stack of points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import curvature, inequalities
from .curvature import ShapeOperatorSet
from .matrix_core import random_orthogonal, unit_stack

# Entries of the (B, m, m, n, n) commutator stack of one block of B samples;
# this bounds the memory of a block, 2^20 entries at (4, 4) being 4096 samples.
BLOCK_ENTRIES = 2**20
REL_TOL = 1e-10  # the relative tolerance of the dual-route and invariance properties


def random_shape_set(n, m, rng, size=(), ambient_c=None):
    """Unit-normalized random shape operators, (*size, m, n, n), with an ambient
    c drawn uniformly from [-1, 1) unless given."""
    g = rng.standard_normal((*size, m, n, n))
    ops = unit_stack((g + np.swapaxes(g, -1, -2)) / 2.0)
    if ambient_c is None:
        ambient_c = rng.uniform(-1.0, 1.0, size)
    return ShapeOperatorSet(ops, ambient_c=ambient_c)


def _rel_err(x, y):
    return np.abs(x - y) / np.maximum(1.0, np.maximum(np.abs(x), np.abs(y)))


@dataclass
class FuzzSummary:
    samples: int = 0
    hard_failures: int = 0
    failure_labels: list = field(default_factory=list)

    def record(self, ok, label):
        """Count each False in `ok`, a bool or a bool array, as a failure of `label`."""
        failures = int(np.size(ok) - np.count_nonzero(ok))
        if failures:
            self.hard_failures += failures
            if label not in self.failure_labels:
                self.failure_labels.append(label)


def _block(n, m, size, streams, tol):
    """(label, ok per sample) of every property over `size` new samples.

    Each kind of draw has its own stream and takes it sample by sample, so
    sample k is the same whatever the block sizes.
    """
    ops_rng, tangent_rng, normal_rng, uniform_rng = streams
    u = uniform_rng.random((size, 3))
    s = random_shape_set(n, m, ops_rng, size=(size,), ambient_c=2.0 * u[:, 0] - 1.0)
    ops = s.ops

    # dual-route agreement
    inv, checks = inequalities.point_checks(s, tol)
    rho_a = curvature.rho_direct(s)
    rp_a = curvature.rho_perp_direct(s)
    props = [("rho-dual-route", _rel_err(rho_a, inv.rho) <= REL_TOL),
             ("rho-perp-dual-route", _rel_err(rp_a, inv.rho_perp) <= REL_TOL)]

    # orthogonal invariance (tangent conjugation and normal mixing)
    o_t = random_orthogonal(n, tangent_rng, (size, 1))
    conj = ShapeOperatorSet(np.swapaxes(o_t, -1, -2) @ ops @ o_t, s.ambient_c)
    o_n = random_orthogonal(m, normal_rng, (size,))
    mixed = ShapeOperatorSet(
        (np.swapaxes(o_n, -1, -2) @ ops.reshape(size, m, n * n)).reshape(ops.shape),
        s.ambient_c)
    for name, other in (("tangent", conj), ("normal", mixed)):
        props += [(f"rho-{name}-invariance",
                   _rel_err(curvature.rho_direct(other), rho_a) <= REL_TOL),
                  (f"rho-perp-{name}-invariance",
                   _rel_err(curvature.rho_perp_direct(other), rp_a) <= REL_TOL)]
    props.append(("h-sq-normal-invariance",
                  _rel_err(curvature.mean_curvature_sq(mixed), inv.h_sq) <= REL_TOL))

    # theorem-status inequalities
    props += [(check.label, check.holds) for check in checks]
    if m >= 2:
        i = (u[:, 1] * m).astype(int)
        j = (i + 1 + (u[:, 2] * (m - 1)).astype(int)) % m
        k = np.arange(size)
        props.append(("cdk", inequalities.cdk_check(ops[k, i], ops[k, j], tol).holds))
    return props


def run_fuzz(n, m, samples, seed, tol=inequalities.DEFAULT_TOL):
    """Run the full property suite over seeded random configurations.

    Samples are checked in blocks of at most BLOCK_ENTRIES / (mn)^2.  The
    summary does not depend on the block size: failure labels come in the
    order of their first failing sample, properties of one sample in suite
    order.
    """
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 and m >= 1")
    if samples < 0:
        raise ValueError("samples must be >= 0")
    root = np.random.SeedSequence([seed & (2**64 - 1), n, m])
    streams = [np.random.default_rng(child) for child in root.spawn(4)]
    summary = FuzzSummary(samples=samples)
    block = max(1, BLOCK_ENTRIES // (m * n) ** 2)
    for first in range(0, samples, block):
        props = _block(n, m, min(block, samples - first), streams, tol)
        # a stable sort by first failing sample keeps suite order within one
        for label, ok in sorted(props, key=lambda p: p[1].size if p[1].all() else p[1].argmin()):
            summary.record(ok, label)
    return summary
