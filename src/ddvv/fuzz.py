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
        self.hard_failures += failures
        if failures and label not in self.failure_labels:
            self.failure_labels.append(label)


def _block(n, m, size, streams, tol):
    """(labels, ok) over `size` new samples: ok[p, k] says whether property
    labels[p] holds on sample k.

    Each kind of draw has its own stream and takes it sample by sample, so
    sample k is the same whatever the block sizes.
    """
    ops_rng, tangent_rng, normal_rng, uniform_rng = streams
    u = uniform_rng.random((size, 3))
    s = random_shape_set(n, m, ops_rng, size=(size,), ambient_c=2.0 * u[:, 0] - 1.0)
    ops = s.ops
    inv, checks = inequalities.point_checks(s, tol)
    rho_a, rp_a = curvature.rho_direct(s), curvature.rho_perp_direct(s)

    # orthogonal invariance (tangent conjugation and normal mixing)
    o_t = random_orthogonal(n, tangent_rng, (size, 1))
    # Oᵀ A O symmetrized bitwise as `as_symmetric` would, so validated on its fast branch
    conj = np.swapaxes(o_t, -1, -2) @ ops @ o_t
    conj = ShapeOperatorSet((conj + np.swapaxes(conj, -1, -2)) / 2.0, s.ambient_c)
    o_n = random_orthogonal(m, normal_rng, (size,))
    mixed = ShapeOperatorSet(
        (np.swapaxes(o_n, -1, -2) @ ops.reshape(size, m, n * n)).reshape(ops.shape),
        s.ambient_c)

    # (label, value, reference) of the dual routes and the invariances, one
    # relative error over all of them, then the theorem-status inequalities
    routes = [("rho-dual-route", rho_a, inv.rho),
              ("rho-perp-dual-route", rp_a, inv.rho_perp)]
    for name, other in (("tangent", conj), ("normal", mixed)):
        routes += [(f"rho-{name}-invariance", curvature.rho_direct(other), rho_a),
                   (f"rho-perp-{name}-invariance", curvature.rho_perp_direct(other), rp_a)]
    routes.append(("h-sq-normal-invariance", curvature.mean_curvature_sq(mixed), inv.h_sq))
    labels, values, refs = map(list, zip(*routes))
    labels += [check.label for check in checks]
    ok = [_rel_err(np.array(values), np.array(refs)) <= REL_TOL, *(c.holds for c in checks)]
    if m >= 2:
        i = (u[:, 1] * m).astype(int)
        j = (i + 1 + (u[:, 2] * (m - 1)).astype(int)) % m
        k = np.arange(size)
        labels.append("cdk")
        ok.append(inequalities.cdk_check(ops[k, i], ops[k, j], tol).holds)
    return labels, np.vstack(ok)


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
        labels, ok = _block(n, m, min(block, samples - first), streams, tol)
        # failing properties by first failing sample; the stable sort keeps suite order within one
        failing = np.flatnonzero(~ok.all(axis=1))
        for p in failing[np.argsort(ok[failing].argmin(axis=1), kind="stable")]:
            summary.record(ok[p], labels[p])
    return summary
