"""The batched property suite: determinism, block independence and fault detection."""

import dataclasses

import numpy as np
import pytest

from ddvv import curvature, fuzz, inequalities
from ddvv.curvature import ShapeOperatorSet
from ddvv.matrix_core import random_orthogonal


def test_run_fuzz_is_deterministic_per_seed():
    a, b = fuzz.run_fuzz(4, 3, 50, seed=17), fuzz.run_fuzz(4, 3, 50, seed=17)
    assert a == b == fuzz.FuzzSummary(samples=50)


@pytest.fixture
def faulty_rho(monkeypatch):
    """rho_direct off by 1 on the samples whose first entry exceeds 0.1."""
    original = curvature.rho_direct

    def shifted(s):
        return original(s) + (s.ops[..., 0, 0, 0] > 0.1)

    monkeypatch.setattr(curvature, "rho_direct", shifted)


@pytest.mark.usefixtures("faulty_rho")
def test_summary_does_not_depend_on_the_block_size(monkeypatch):
    n, m, samples = 3, 2, 40
    whole = fuzz.run_fuzz(n, m, samples, seed=5)
    assert 0 < whole.hard_failures < 3 * samples
    for block in (1, 7):
        monkeypatch.setattr(fuzz, "BLOCK_ENTRIES", block * (m * n) ** 2)
        assert fuzz.run_fuzz(n, m, samples, seed=5) == whole


def test_a_shifted_rho_perp_fails_every_sample(monkeypatch):
    original = curvature.invariants

    def shifted(s):
        inv = original(s)
        return dataclasses.replace(inv, rho_perp=inv.rho_perp * (1 + 1e-8))

    monkeypatch.setattr(curvature, "invariants", shifted)
    summary = fuzz.run_fuzz(4, 3, 100, seed=1)
    assert summary.hard_failures == 100
    assert summary.failure_labels == ["rho-perp-dual-route"]


def test_an_oracle_on_the_traceless_parts_fails(monkeypatch):
    original = curvature.rho_direct

    def on_traceless_parts(s):
        return original(ShapeOperatorSet(curvature.traceless_parts(s), s.ambient_c))

    monkeypatch.setattr(curvature, "rho_direct", on_traceless_parts)
    summary = fuzz.run_fuzz(4, 3, 100, seed=2)
    assert summary.hard_failures == 100
    assert summary.failure_labels == ["rho-dual-route"]


def test_record_takes_a_bool_or_an_array():
    summary = fuzz.FuzzSummary(samples=3)
    summary.record(True, "a")
    summary.record(np.array([True, False, False]), "b")
    summary.record(False, "c")
    summary.record(np.array([False, True, True]), "b")
    assert (summary.hard_failures, summary.failure_labels) == (4, ["b", "c"])


def test_failure_labels_follow_the_first_failing_sample(monkeypatch):
    """li-li fails first, chen and weak-dim tie on a later sample and ddvv comes
    last: the labels follow the first failing sample, suite order breaking ties."""
    n, m, samples, seed = 3, 2, 12, 4
    original = inequalities.point_checks
    seen = []

    def recording(s, tol):
        seen.append(s.ops[:, 0, 0, 0])
        return original(s, tol)

    monkeypatch.setattr(inequalities, "point_checks", recording)
    assert fuzz.run_fuzz(n, m, samples, seed) == fuzz.FuzzSummary(samples=samples)
    first_entry = np.concatenate(seen)  # tells the samples apart
    fails_on = {"ddvv": [9, 10], "chen": [5], "weak-dim": [5, 11], "li-li": [3, 6]}

    def faulty(s, tol):
        inv, checks = original(s, tol)
        return inv, [dataclasses.replace(c, holds=c.holds & ~np.isin(
            s.ops[:, 0, 0, 0], first_entry[fails_on.get(c.label, [])])) for c in checks]

    monkeypatch.setattr(inequalities, "point_checks", faulty)
    for block in (1, 7, samples):
        monkeypatch.setattr(fuzz, "BLOCK_ENTRIES", block * (m * n) ** 2)
        summary = fuzz.run_fuzz(n, m, samples, seed)
        assert summary.failure_labels == ["li-li", "chen", "weak-dim", "ddvv"]
        assert type(summary.hard_failures) is int and summary.hard_failures == 7


@pytest.mark.parametrize("n, m, size, seed", [(4, 4, 40, 3), (3, 2, 25, 8), (8, 8, 5, 1)])
def test_symmetrized_conjugate_leaves_every_property_unchanged(monkeypatch, n, m, size, seed):
    """The tangent conjugate Oᵀ A O is symmetrized before validation, bitwise as
    `as_symmetric` symmetrized it: every set and the property table stay."""

    def block(raw_conjugate):
        children = np.random.SeedSequence(seed).spawn(4)
        tangent = np.random.default_rng(np.random.SeedSequence(seed).spawn(4)[1])
        sets = []

        def build(ops, *args, **kwargs):
            if len(sets) == 1:  # the tangent conjugate
                assert np.array_equal(ops, np.swapaxes(ops, -1, -2))
                if raw_conjugate:
                    o = random_orthogonal(n, tangent, (size, 1))
                    ops = np.swapaxes(o, -1, -2) @ sets[0].ops @ o
            sets.append(ShapeOperatorSet(ops, *args, **kwargs))
            return sets[-1]

        monkeypatch.setattr(fuzz, "ShapeOperatorSet", build)
        streams = [np.random.default_rng(child) for child in children]
        return fuzz._block(n, m, size, streams, inequalities.DEFAULT_TOL), sets

    ((labels, ok), sets), ((raw_labels, raw_ok), raw_sets) = block(False), block(True)
    assert len(sets) == len(raw_sets) == 3
    for s, raw in zip(sets, raw_sets):
        np.testing.assert_array_equal(s.ops, raw.ops)
        np.testing.assert_array_equal(s.ambient_c, raw.ambient_c)
    assert labels == raw_labels
    np.testing.assert_array_equal(ok, raw_ok)
