import warnings

import numpy as np
import pytest

from ddvv import curvature as cv
from ddvv import inequalities as ineq
from ddvv.curvature import ShapeOperatorSet
from ddvv.fuzz import random_shape_set
from ddvv.matrix_core import random_orthogonal
from reference import conjugate


def cdk_shape_set(mu1=0.5, mu2=0.5, c=0.0):
    b1 = np.array([[0.0, mu1], [mu1, 0.0]])
    b2 = np.array([[mu2, 0.0], [0.0, -mu2]])
    return ShapeOperatorSet(np.stack([b1, b2]), ambient_c=c)


def rel_err(x, y):
    return abs(x - y) / max(1.0, abs(x), abs(y))


def test_traceless_parts_examples():
    zero = ShapeOperatorSet(np.zeros((2, 3, 3)))
    assert np.all(cv.traceless_parts(zero) == 0.0)
    s = cdk_shape_set()
    np.testing.assert_allclose(cv.traceless_parts(s), s.ops)
    s2 = ShapeOperatorSet(np.array([[[3.0, 0.0], [0.0, 1.0]]]))
    np.testing.assert_allclose(cv.traceless_parts(s2)[0],
                               [[1.0, 0.0], [0.0, -1.0]])
    # the trace of 8e307 I overflows: an error alone, without a floating-point warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="traceless parts overflow"):
            cv.traceless_parts(ShapeOperatorSet(8e307 * np.eye(3)[None]))


def test_mean_curvature_sq_examples():
    assert cv.mean_curvature_sq(cdk_shape_set()) == 0.0
    s = ShapeOperatorSet(np.eye(2)[None])
    assert cv.mean_curvature_sq(s) == pytest.approx(1.0)


def test_rho_trivial_cases():
    zero = ShapeOperatorSet(np.zeros((2, 3, 3)), ambient_c=0.0)
    assert cv.rho_direct(zero) == 0.0
    geo = ShapeOperatorSet(np.zeros((2, 3, 3)), ambient_c=1.7)
    assert cv.rho_direct(geo) == pytest.approx(1.7)
    assert cv.invariants(geo).slack == pytest.approx(0.0, abs=1e-15)


def test_cdk_pair_invariants():
    s = cdk_shape_set()
    assert cv.invariants(s).rho == pytest.approx(-0.5)
    assert cv.rho_direct(s) == pytest.approx(-0.5)
    assert cv.rho_perp_direct(s) == pytest.approx(0.5)
    assert cv.invariants(s).rho_perp == pytest.approx(0.5)
    assert cv.invariants(s).slack == pytest.approx(0.0, abs=1e-14)


def test_rho_perp_m1_and_commuting():
    s1 = ShapeOperatorSet(np.array([[[1.0, 2.0], [2.0, 3.0]]]))
    assert cv.rho_perp_direct(s1) == 0.0
    diag = ShapeOperatorSet(np.stack([np.diag([1.0, -2.0, 1.0]),
                                      np.diag([0.5, 0.5, -1.0])]))
    assert cv.rho_perp_direct(diag) == 0.0
    assert cv.invariants(diag).rho_perp == 0.0
    assert ineq.ddvv_check(cv.traceless_parts(diag)).lhs == 0.0


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (4, 3), (6, 6), (5, 1)])
def test_dual_route_agreement(n, m):
    rng = np.random.default_rng(1000 + 10 * n + m)
    for _ in range(200):
        s = random_shape_set(n, m, rng)
        assert rel_err(cv.rho_direct(s), cv.invariants(s).rho) <= 1e-10
        assert rel_err(cv.rho_perp_direct(s), cv.invariants(s).rho_perp) <= 1e-10


def test_tangent_and_normal_invariance():
    rng = np.random.default_rng(77)
    for _ in range(50):
        s = random_shape_set(4, 3, rng)
        o = random_orthogonal(4, rng.integers(2**63))
        conj = ShapeOperatorSet(np.stack([conjugate(op, o) for op in s.ops]),
                                s.ambient_c)
        mix = random_orthogonal(3, rng.integers(2**63))
        mixed = ShapeOperatorSet(np.einsum("ab,aij->bij", mix, s.ops),
                                 s.ambient_c)
        for other in (conj, mixed):
            assert rel_err(cv.rho_direct(s), cv.rho_direct(other)) <= 1e-10
            assert rel_err(cv.rho_perp_direct(s),
                           cv.rho_perp_direct(other)) <= 1e-10
            assert rel_err(cv.mean_curvature_sq(s),
                           cv.mean_curvature_sq(other)) <= 1e-10


def test_rho_identity_consistency_in_invariants():
    rng = np.random.default_rng(13)
    for _ in range(100):
        s = random_shape_set(3, 2, rng)
        inv = cv.invariants(s)
        lhs = inv.rho
        rhs = s.ambient_c + inv.h_sq - inv.b_sq / (s.n * (s.n - 1))
        assert rel_err(lhs, rhs) <= 1e-10
        assert inv.rho_perp >= 0.0
        assert inv.h_sq >= 0.0
        assert inv.b_sq >= 0.0


def test_chen_bound_from_nonnegative_b():
    rng = np.random.default_rng(21)
    for _ in range(200):
        s = random_shape_set(3, 3, rng)
        inv = cv.invariants(s)
        assert inv.rho <= inv.h_sq + s.ambient_c + 1e-12


def test_n2_specialization_matches_hand_formula():
    # for surfaces the Gauss sum reduces to c + sum of 2x2 determinants
    rng = np.random.default_rng(31)
    for _ in range(50):
        s = random_shape_set(2, 3, rng)
        k = s.ambient_c + sum(np.linalg.det(op) for op in s.ops)
        assert rel_err(cv.rho_direct(s), k) <= 1e-10


def test_shape_set_validation():
    with pytest.raises(ValueError):
        ShapeOperatorSet(np.zeros((0, 3, 3)))
    with pytest.raises(ValueError):
        ShapeOperatorSet(np.zeros((2, 1, 1)))
    with pytest.raises(ValueError):
        ShapeOperatorSet(np.zeros((2, 3, 4)))


@pytest.mark.parametrize("scale", [1e-100, 1e80])
def test_invariants_exact_across_scales(scale):
    # the commutators are taken on the unit stack, so rho_perp neither
    # underflows nor overflows before |b|^2 does
    rng = np.random.default_rng(41)
    for n, m in [(2, 2), (3, 3), (4, 4), (6, 6), (8, 3), (3, 8)]:
        ops = random_shape_set(n, m, rng).ops
        unit = cv.invariants(ShapeOperatorSet(ops)).as_dict()
        scaled = cv.invariants(ShapeOperatorSet(ops * scale)).as_dict()
        for key in ("rho", "rho_perp", "h_sq", "b_sq", "slack"):
            assert scaled[key] / scale**2 == pytest.approx(unit[key], rel=1e-12, abs=1e-12)
