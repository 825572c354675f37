"""A stack of points gives, point for point, what each point gives alone."""

import numpy as np
import pytest

from ddvv import curvature as cv
from ddvv import inequalities as ineq
from ddvv import matrix_core as mc
from ddvv.curvature import ShapeOperatorSet

KEYS = ("rho", "rho_perp", "h_sq", "b_sq", "slack")


def close(x, y):
    return abs(x - y) <= 1e-15 * max(abs(x), abs(y))


def stack(p, m, n, seed):
    """p random points at scales 1e-3..1e3, with a zero, an umbilic, a CDK point
    and the CDK point moved 1e-5 off its orbit."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((p, m, n, n))
    ops = (g + g.swapaxes(-1, -2)) / 2 * 10.0 ** rng.uniform(-3, 3, (p, 1, 1, 1))
    if p >= 3:
        ops[1] = 0.0
        ops[2] = rng.standard_normal((m, 1, 1)) * np.eye(n)
    if p >= 4 and m >= 2:
        ops[3] = 0.0
        ops[3, 0, 0, 1] = ops[3, 0, 1, 0] = ops[3, 1, 0, 0] = 0.5
        ops[3, 1, 1, 1] = -0.5
    if p >= 5 and m >= 2:
        d = mc.traceless_project(rng.standard_normal((m, n, n)))
        ops[4] = ops[3] + 1e-5 * d / np.sqrt(np.sum(d * d))
    return ops, rng.uniform(-1, 1, p)


SHAPES = [(1, 1, 2), (1, 3, 3), (5, 1, 2), (6, 2, 2), (6, 4, 3), (5, 3, 6), (4, 6, 6), (4, 1, 5)]


@pytest.mark.parametrize("p,m,n", SHAPES)
def test_invariants_and_oracles_match_per_point(p, m, n):
    ops, c = stack(p, m, n, 10 * p + m + n)
    s = ShapeOperatorSet(ops, c)
    inv = cv.invariants(s)
    rho, rho_perp, h_sq = cv.rho_direct(s), cv.rho_perp_direct(s), cv.mean_curvature_sq(s)
    for k in range(p):
        point = ShapeOperatorSet(ops[k], c[k])
        one = cv.invariants(point)
        for key in KEYS:
            assert close(getattr(inv, key)[k], getattr(one, key)), key
        assert close(rho[k], cv.rho_direct(point))
        assert close(rho_perp[k], cv.rho_perp_direct(point))
        assert close(h_sq[k], cv.mean_curvature_sq(point))


@pytest.mark.parametrize("p,m,n", SHAPES)
def test_point_checks_match_per_point(p, m, n):
    ops, c = stack(p, m, n, 20 * p + m + n)
    inv, checks = ineq.point_checks(ShapeOperatorSet(ops, c))
    for k in range(p):
        one_inv, one = ineq.point_checks(ShapeOperatorSet(ops[k], c[k]))
        assert [check.label for check in checks] == [check.label for check in one]
        for batch, single in zip(checks, one):
            assert close(batch.lhs[k], single.lhs) and close(batch.rhs[k], single.rhs)
            assert (batch.holds[k], batch.equality[k]) == (single.holds, single.equality)
        assert all(close(getattr(inv, key)[k], getattr(one_inv, key)) for key in KEYS)
    if p >= 5 and m >= 2:  # the CDK point is an equality, the point off its orbit is not
        assert checks[0].equality[3] and checks[0].holds[4] and not checks[0].equality[4]


def test_one_point_gives_plain_python_values():
    ops, c = stack(1, 3, 3, 5)
    inv, checks = ineq.point_checks(ShapeOperatorSet(ops[0], float(c[0])))
    assert all(type(v) is float for v in inv.as_dict().values())
    for check in checks:
        assert type(check.lhs) is float and type(check.rhs) is float
        assert type(check.holds) is bool and type(check.equality) is bool


def test_cdk_check_takes_stacks_of_pairs():
    ops, _ = stack(7, 2, 4, 3)
    batch = ineq.cdk_check(ops[:, 0], ops[:, 1])
    for k in range(7):
        one = ineq.cdk_check(ops[k, 0], ops[k, 1])
        assert close(batch.lhs[k], one.lhs) and close(batch.rhs[k], one.rhs)
        assert (batch.holds[k], batch.equality[k]) == (one.holds, one.equality)
    assert batch.equality[1] and batch.equality[3]  # the zero and the CDK pair


def test_random_orthogonal_stack_continues_the_stream():
    stacked = mc.random_orthogonal(4, np.random.default_rng(9), (3, 2))
    rng = np.random.default_rng(9)
    singles = np.stack([mc.random_orthogonal(4, rng) for _ in range(6)])
    assert stacked.shape == (3, 2, 4, 4)
    np.testing.assert_array_equal(stacked.reshape(6, 4, 4), singles)
    defect = np.abs(stacked.swapaxes(-1, -2) @ stacked - np.eye(4))
    assert np.max(defect) <= 1e-14


def test_shape_set_broadcasts_ambient_c():
    ops, _ = stack(3, 2, 3, 4)
    s = ShapeOperatorSet(ops, 0.5)
    assert s.ambient_c.shape == (3,) and np.all(s.ambient_c == 0.5)
    assert (s.m, s.n) == (2, 3)
    with pytest.raises(ValueError):
        ShapeOperatorSet(ops, [0.1, 0.2])
    with pytest.raises(ValueError):
        ShapeOperatorSet(ops, [0.1, np.nan, 0.2])
    one = ShapeOperatorSet(ops[0], 2)  # a Python int c on one point is a float
    assert type(one.ambient_c) is float and one.ambient_c == 2.0
    zero_d = ShapeOperatorSet(ops, np.array(0.25))  # a 0-d array on a stack of 3
    assert zero_d.ambient_c.shape == (3,) and np.all(zero_d.ambient_c == 0.25)
    assert not zero_d.ambient_c.flags.writeable
    with pytest.raises(ValueError):
        ShapeOperatorSet(ops, None)


def test_shape_set_keeps_its_own_frozen_ambient_c():
    ops, c = stack(3, 2, 3, 4)
    s = ShapeOperatorSet(ops, c)
    c[:] = 9.0
    assert np.all(s.ambient_c != 9.0)
    with pytest.raises(ValueError):
        s.ambient_c[0] = 9.0


def test_sum_sq_of_one_point_is_the_vdot_and_a_float():
    ops, _ = stack(4, 3, 5, 6)
    for k in range(4):
        one = mc.sum_sq(ops[k], 3)
        assert type(one) is float and one == np.vdot(ops[k], ops[k])
        assert mc.sum_sq(ops, 3)[k] == one


@pytest.mark.parametrize("batch", [3, 64])
def test_inner_on_a_stack_is_per_tuple_calls_bit_for_bit(batch):
    a, b = np.random.default_rng(batch).standard_normal((2, batch, 4, 5, 5))
    got = mc.inner(a, b, 3)
    assert got.shape == (batch,)
    for k in range(batch):
        one = mc.inner(a[k], b[k], 3)
        assert one.shape == () and one == got[k]
    np.testing.assert_array_equal(mc.sum_sq(a, 3), mc.inner(a, a, 3))


def test_random_shape_set_takes_a_leading_size():
    from ddvv.fuzz import random_shape_set

    s = random_shape_set(4, 3, np.random.default_rng(7), size=(5,))
    assert s.ops.shape == (5, 3, 4, 4) and s.ambient_c.shape == (5,)
    assert np.all((-1.0 <= s.ambient_c) & (s.ambient_c < 1.0))
    np.testing.assert_allclose(mc.sum_sq(s.ops, 3), 1.0, rtol=1e-15)
    given = random_shape_set(4, 3, np.random.default_rng(7), size=(5,), ambient_c=0.25)
    np.testing.assert_array_equal(given.ops, s.ops)
    assert np.all(given.ambient_c == 0.25)
