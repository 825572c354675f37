import numpy as np
import pytest

from ddvv import curvature as cv
from ddvv import lagrangian as lg
from ddvv.curvature import ShapeOperatorSet
from ddvv.fuzz import random_shape_set
from ddvv.matrix_core import commutator, frobenius_norm_sq


def rel_err(x, y):
    return abs(x - y) / max(1.0, abs(x), abs(y))


def commutator_sum_sq(mats):
    m = len(mats)
    return sum(2.0 * frobenius_norm_sq(commutator(mats[a], mats[b]))
               for a in range(m) for b in range(a + 1, m))


### symmetry check


def test_symmetry_check_families():
    assert lg.lagrangian_symmetry_check(
        lg.h_umbilical(4, 1.3, -0.7))
    assert lg.lagrangian_symmetry_check(
        lg.minimal_lagrangian_c3(0.2, -1.1, 0.5, 2.0))
    assert lg.lagrangian_symmetry_check(
        lg.ultraminimal_c4_22(1.0, 0.3, -0.8, 0.6))


def test_symmetry_check_generic_failure_and_dim_guard():
    s = random_shape_set(3, 3, np.random.default_rng(4))
    assert not lg.lagrangian_symmetry_check(s)
    with pytest.raises(ValueError):
        lg.lagrangian_symmetry_check(random_shape_set(3, 2, np.random.default_rng(5)))


### H-umbilical family


def test_h_umbilical_structure():
    lam, mu = 2.0, 0.5
    s = lg.h_umbilical(4, lam, mu)
    assert s.n == s.m == 4
    assert np.trace(s.ops[0]) == pytest.approx(lam + 3 * mu)
    for j in range(1, 4):
        assert np.trace(s.ops[j]) == 0.0
    zero = lg.h_umbilical(3, 0.0, 0.0)
    assert np.all(zero.ops == 0.0)


def test_h_umbilical_needs_n_at_least_2():
    with pytest.raises(ValueError, match="n >= 2"):
        lg.h_umbilical(1, 0.0, 1.0)


def test_h_umbilical_mean_curvature():
    lam, mu = 1.7, -0.3
    s = lg.h_umbilical(5, lam, mu)
    expected = ((lam + 4 * mu) / 5.0) ** 2
    assert cv.mean_curvature_sq(s) == pytest.approx(expected, rel=1e-12)


def test_h_umbilical_closed_spot_value():
    lhs, rhs, quartic = lg.h_umbilical_closed(3, 3.0, 1.0)
    assert lhs == pytest.approx(36.0)
    assert rhs == pytest.approx(400.0 / 9.0)
    assert quartic == pytest.approx(38.0 / 9.0)


def test_h_umbilical_quartic_lambda_equals_mu():
    for n in range(2, 9):
        _, _, quartic = lg.h_umbilical_closed(n, 0.8, 0.8)
        assert quartic == pytest.approx(2 * n * 0.8**4, rel=1e-12)


def test_h_umbilical_oracle_and_theorem_fuzz():
    rng = np.random.default_rng(61)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        lam, mu = rng.uniform(-3, 3, size=2)
        lhs, rhs, quartic = lg.h_umbilical_closed(n, lam, mu)
        s = lg.h_umbilical(n, lam, mu)
        mats = cv.traceless_parts(s)
        assert rel_err(lhs, commutator_sum_sq(mats)) <= 1e-10
        assert rel_err(rhs, float(np.sum(mats * mats)) ** 2) <= 1e-10
        assert lhs <= rhs + 1e-9 * max(1.0, rhs)
        assert quartic >= -1e-12
        # the two sides differ by exactly (n - 1) times the quartic
        assert rel_err(rhs - lhs, (n - 1) * quartic) <= 1e-9


def test_h_umbilical_slack_zero_only_at_geodesic():
    rng = np.random.default_rng(67)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        lam, mu = rng.uniform(-2, 2, size=2)
        norm = np.hypot(lam, mu)
        if norm > 0:
            lam, mu = lam / norm, mu / norm
        s = lg.h_umbilical(n, lam, mu)
        slack = cv.invariants(s).slack
        assert slack >= -1e-12
        if slack <= 1e-9:
            assert abs(lam) + abs(mu) <= 1e-6
    geo = lg.h_umbilical(4, 0.0, 0.0)
    assert cv.invariants(geo).slack == pytest.approx(0.0, abs=1e-15)


### minimal family in complex dimension 3


def test_c3_structure():
    zero = lg.minimal_lagrangian_c3(0, 0, 0, 0)
    assert np.all(zero.ops == 0.0)
    rng = np.random.default_rng(71)
    for _ in range(20):
        s = lg.minimal_lagrangian_c3(*rng.standard_normal(4))
        traces = np.trace(s.ops, axis1=1, axis2=2)
        np.testing.assert_allclose(traces, 0.0, atol=1e-14)


def test_c3_closed_spot_values():
    assert lg.c3_closed(1, 0, 0, 0) == (-2.0, 4.0)
    assert lg.c3_closed(1, 1, 0, 0) == (-5.0, 19.0)


def test_c3_oracle_and_theorem_fuzz():
    rng = np.random.default_rng(73)
    for _ in range(1000):
        p = rng.uniform(-2, 2, size=4)
        three_rho, nine_rp_sq = lg.c3_closed(*p)
        inv = cv.invariants(lg.minimal_lagrangian_c3(*p))
        assert rel_err(three_rho, 3 * inv.rho) <= 1e-10
        assert rel_err(nine_rp_sq, 9 * inv.rho_perp**2) <= 1e-10
        assert nine_rp_sq <= three_rho**2 + 1e-9 * max(1.0, three_rho**2)
        assert three_rho <= 1e-12
        assert inv.rho <= -inv.rho_perp + 1e-9


def test_c3_equality_iff_cd_zero_and_ab_zero():
    rng = np.random.default_rng(79)
    for _ in range(300):
        raw = rng.uniform(-2, 2, size=4)
        raw /= np.linalg.norm(raw)
        a, b, c, d = raw
        inv = cv.invariants(lg.minimal_lagrangian_c3(a, b, c, d))
        is_equality = abs(inv.rho + inv.rho_perp) <= 1e-9
        structural = abs(c) <= 1e-9 and abs(d) <= 1e-9 and abs(a * b) <= 1e-9
        assert is_equality == structural
    # structural equality params really do give equality
    inv = cv.invariants(lg.minimal_lagrangian_c3(1.3, 0, 0, 0))
    assert abs(inv.rho + inv.rho_perp) <= 1e-12


def test_s3_equality_form_slack():
    for a in (0.0, 1.0, -2.5):
        inv = cv.invariants(lg.s3_equality_form(a))
        assert abs(inv.slack) <= 1e-12


### complex space form variant


def test_csf_reduces_to_flat():
    rng = np.random.default_rng(83)
    for _ in range(100):
        s = lg.minimal_lagrangian_c3(*rng.standard_normal(4))
        flat = cv.invariants(s)
        csf = lg.csf_invariants(s, 0.0)
        assert abs(csf.rho - flat.rho) <= 1e-14
        assert abs(csf.rho_perp - flat.rho_perp) <= 1e-14


def test_csf_matches_the_explicit_ricci_tensor():
    # the normal curvature tensor [A_a, A_b] + c (E_ab - E_ba), built entry by entry
    rng = np.random.default_rng(103)
    for k in range(300):
        if k % 3 == 0:
            s = lg.minimal_lagrangian_c3(*rng.uniform(-2, 2, size=4))
        elif k % 3 == 1:
            s = lg.ultraminimal_c4_22(*rng.uniform(-2, 2, size=4))
        else:
            s = lg.h_umbilical(int(rng.integers(2, 7)), *rng.uniform(-2, 2, size=2))
        c = float(rng.uniform(-2, 2))
        n = s.n
        total = 0.0
        for a in range(n):
            for b in range(n):
                r = commutator(s.ops[a], s.ops[b])
                r[a, b] += c
                r[b, a] -= c
                total += frobenius_norm_sq(r)
        csf = lg.csf_invariants(s, c)
        flat = cv.invariants(s)
        scale = abs(c) + flat.h_sq + flat.b_sq / (n * (n - 1))
        assert abs(csf.rho_perp - np.sqrt(total) / (n * (n - 1))) <= 1e-14 * scale
        assert rel_err(csf.rho, cv.rho_direct(ShapeOperatorSet(s.ops, c))) <= 1e-14


def test_csf_totally_geodesic_equality():
    s = ShapeOperatorSet(np.zeros((3, 3, 3)))
    csf = lg.csf_invariants(s, 1.0)
    assert csf.rho == pytest.approx(1.0, abs=1e-14)
    assert csf.rho_perp**2 == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert lg.csf_bound_rhs(csf.rho, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_csf_inequality_fuzz():
    rng = np.random.default_rng(89)
    for _ in range(1000):
        p = rng.uniform(-2, 2, size=4)
        c = float(rng.uniform(-2, 2))
        csf = lg.csf_invariants(lg.minimal_lagrangian_c3(*p), c)
        bound = lg.csf_bound_rhs(csf.rho, c)
        assert csf.rho_perp**2 <= bound + 1e-9 * max(1.0, abs(bound))


def test_csf_rejects_non_lagrangian():
    with pytest.raises(ValueError):
        lg.csf_invariants(random_shape_set(3, 3, np.random.default_rng(9)), 1.0)


### ultra-minimal 2+2 block family


def test_c4_structure():
    s = lg.ultraminimal_c4_22(1.0, -0.4, 0.7, 0.2)
    traces = np.trace(s.ops, axis1=1, axis2=2)
    np.testing.assert_allclose(traces, 0.0, atol=1e-14)
    # block structure: top pair lives in rows/cols 0-1, bottom pair in 2-3
    assert np.all(s.ops[0][2:, :] == 0.0) and np.all(s.ops[1][:, 2:] == 0.0)
    assert np.all(s.ops[2][:2, :] == 0.0) and np.all(s.ops[3][:, :2] == 0.0)


def test_c4_closed_spot_values():
    assert lg.c4_closed(1, 1, 0, 0) == (-4.0, 16.0)
    assert lg.c4_closed(1, 0, 1, 0) == (-4.0, 8.0)
    inv = cv.invariants(lg.ultraminimal_c4_22(1, 1, 0, 0))
    assert abs(inv.rho + inv.rho_perp) <= 1e-12  # equality case
    inv = cv.invariants(lg.ultraminimal_c4_22(1, 0, 1, 0))
    assert inv.rho < -inv.rho_perp - 1e-3  # strict


def test_c4_oracle_and_theorem_fuzz():
    rng = np.random.default_rng(97)
    for _ in range(1000):
        a, b, c, d = rng.uniform(-2, 2, size=4)
        six_rho, thirtysix = lg.c4_closed(a, b, c, d)
        inv = cv.invariants(lg.ultraminimal_c4_22(a, b, c, d))
        assert rel_err(six_rho, 6 * inv.rho) <= 1e-10
        assert rel_err(thirtysix, 36 * inv.rho_perp**2) <= 1e-10
        assert inv.rho <= -inv.rho_perp + 1e-9
        ab_zero = abs(a) <= 1e-12 and abs(b) <= 1e-12
        cd_zero = abs(c) <= 1e-12 and abs(d) <= 1e-12
        if ab_zero or cd_zero:
            assert abs(inv.rho + inv.rho_perp) <= 1e-10


def test_eq_5_1_form_slack():
    for a, b in ((1.0, 0.0), (0.5, -1.5), (0.0, 0.0)):
        inv = cv.invariants(lg.eq_5_1_form(a, b))
        assert abs(inv.slack) <= 1e-12


def test_c4_31_case_reduces_to_c3():
    # a 3+1 split: embed the complex-dimension-3 family in the top 3x3 block
    # with a zero fourth operator; the bound is unchanged
    rng = np.random.default_rng(101)
    for _ in range(200):
        s3 = lg.minimal_lagrangian_c3(*rng.uniform(-2, 2, size=4))
        ops4 = np.zeros((4, 4, 4))
        ops4[:3, :3, :3] = s3.ops
        s4 = ShapeOperatorSet(ops4)
        inv3 = cv.invariants(s3)
        inv4 = cv.invariants(s4)
        assert inv4.rho <= -inv4.rho_perp + 1e-9
        # padding rescales the normalizations but keeps the raw sums
        assert rel_err(inv3.rho * 6, inv4.rho * 12) <= 1e-10
        assert rel_err(inv3.rho_perp * 6, inv4.rho_perp * 12) <= 1e-10
