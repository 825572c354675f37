import itertools

import numpy as np
import pytest

from ddvv import cli
from ddvv import curvature as cv
from ddvv import lagrangian as lg
from ddvv.curvature import ShapeOperatorSet
from ddvv.fuzz import random_shape_set
from ddvv.inequalities import point_checks
from reference import commutator, frobenius_norm_sq


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


def test_symmetry_check_does_not_depend_on_scale():
    # the defect is measured relative to the largest entry, so a random
    # cube far below unit size is no Lagrangian point
    cubes = {False: random_shape_set(3, 3, np.random.default_rng(4)).ops,
             True: lg.minimal_lagrangian_c3(1.0, 0.2, 0.3, 0.4).ops}
    for want, cube in cubes.items():
        for k in range(-60, 61):
            assert lg.lagrangian_symmetry_check(ShapeOperatorSet(np.ldexp(cube, k))) is want
    assert lg.lagrangian_symmetry_check(ShapeOperatorSet(np.zeros((3, 3, 3))))
    with pytest.raises(ValueError, match="Lagrangian symmetry"):
        lg.csf_invariants(ShapeOperatorSet(1e-12 * cubes[False]), 0.5)


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


def test_csf_sides_near_the_float_range_keep_their_flags(capsys):
    # at C = 4.096e153 the sides are about C^2 / 3 = 5.6e306, though 2 C^2 n(n-1) overflows
    def family(a, b, c):
        code = cli.main(["family", "minimal-c3", "--a", a, "--b", b, "--csf-c", c])
        out = capsys.readouterr().out.splitlines()
        return code, [(line.split()[0], line.split()[-1]) for line in out]

    near = family("64", "64", "4.096e153")
    assert near == family("1", "1", "1e150")
    assert near[0] == 0 and near[1][-1] == ("csf-bound", "[ok]")


def test_symmetry_and_csf_checks_decide_a_stack_per_point():
    # a stack is decided point by point, with the bits of per-point calls
    points = [lg.minimal_lagrangian_c3(1.0, 0.2, 0.3, 0.4), lg.h_umbilical(3, 1.3, -0.7),
              lg.s3_equality_form(2.0), ShapeOperatorSet(np.zeros((3, 3, 3))),
              ShapeOperatorSet(1e-12 * lg.minimal_lagrangian_c3(-0.5, 1.1, 0.0, 2.0).ops),
              random_shape_set(3, 3, np.random.default_rng(4))]
    stack = ShapeOperatorSet(np.stack([p.ops for p in points]))
    single = [lg.lagrangian_symmetry_check(p) for p in points]
    assert all(type(flag) is bool for flag in single) and single == [True] * 5 + [False]
    flags = lg.lagrangian_symmetry_check(stack)
    assert flags.shape == (len(points),)
    np.testing.assert_array_equal(flags, single)
    with pytest.raises(ValueError, match="Lagrangian symmetry"):  # one point fails
        lg.csf_invariants(stack, 0.5)
    lagrangian = ShapeOperatorSet(stack.ops[:5])
    for c in (0.0, 0.5, -1.3):
        got = lg.csf_check(lagrangian, c)
        assert got.holds.shape == (5,)
        for k, p in enumerate(points[:5]):
            want = lg.csf_check(p, c)
            assert (got.lhs[k], got.rhs[k], got.holds[k], got.equality[k]) == \
                (want.lhs, want.rhs, want.holds, want.equality)
    with pytest.raises(ValueError):  # m != n, on a stack too
        lg.lagrangian_symmetry_check(random_shape_set(3, 2, np.random.default_rng(5), size=(2,)))


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


### exact certificates in Python integers
#
# Each side below is a polynomial of degree at most 4 in each parameter, so
# an identity that holds on the five-point grid {-2..2} in every parameter
# holds for all parameters.

GRID = range(-2, 3)


def exact_sums(s):
    """(Gauss sum, commutator sum S, n |b|^2) of integer operators, in Python
    integers: sum_a sum_{i<j} (A_ii A_jj - A_ij^2), sum_{a,b} ||[A_a, A_b]||^2
    and n sum |A_a|^2 - sum (tr A_a)^2."""
    ops = s.ops.astype(int)
    assert np.all(ops == s.ops)
    ops = ops.tolist()
    n = len(ops[0])
    gauss = sum(a[i][i] * a[j][j] - a[i][j] ** 2
                for a in ops for i in range(n) for j in range(i + 1, n))
    comm = 0
    for k, a in enumerate(ops):
        for b in ops[k + 1:]:
            ab = [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
            # [A, B] = AB - (AB)^T for symmetric A and B, and [B, A] = -[A, B]
            comm += 2 * sum((ab[i][j] - ab[j][i]) ** 2 for i in range(n) for j in range(n))
    n_b_sq = n * sum(x * x for a in ops for row in a for x in row) \
        - sum(sum(a[i][i] for i in range(n)) ** 2 for a in ops)
    return gauss, comm, n_b_sq


def ddvv_equality(points):
    """The ddvv equality flags of `point_checks` on a list of points."""
    stack = ShapeOperatorSet(np.stack([s.ops for s in points]))
    return point_checks(stack)[1][0].equality.tolist()


@pytest.mark.parametrize("family, closed, defect", [
    (lg.minimal_lagrangian_c3, lg.c3_closed,
     lambda a, b, c, d: 6 * (a * a * b * b + (a + b) ** 2 * (c * c + d * d))),
    (lg.ultraminimal_c4_22, lg.c4_closed,
     lambda a, b, c, d: 8 * (a * a + b * b) * (c * c + d * d))], ids=["c3", "c4"])
def test_cn_families_are_exact_certificates(family, closed, defect):
    # the closed forms are 3 rho = sum and 9 rho_perp^2 = S / 4 at n = 3, and
    # 6 rho = sum and 36 rho_perp^2 = S / 4 at n = 4: four times the DDVV
    # defect (n(n-1) rho / 2)^2 - (n(n-1) rho_perp / 2)^2 is 4 sum^2 - S
    params = list(itertools.product(GRID, repeat=4))
    points, zero = [family(*p) for p in params], []
    for p, s in zip(params, points):
        gauss, comm, _ = exact_sums(s)
        rho_form, rho_perp_sq_form = closed(*p)
        assert (rho_form, 4 * rho_perp_sq_form) == (gauss, comm), p
        assert 4 * gauss * gauss - comm == 4 * defect(*p), p
        zero.append(defect(*p) == 0)
    assert ddvv_equality(points) == zero
    assert 0 < sum(zero) < len(zero)


@pytest.mark.parametrize("n", range(2, 9))
def test_h_umbilical_is_an_exact_certificate(n):
    # S = lhs, |b|^4 = rhs and rhs - lhs = (n - 1) q for the closed forms of
    # `h_umbilical_closed`, q = 2n X^2 - (4/n) X Y + ((n-1)/n^2) Y^2 with
    # X = mu^2 and Y = (lam - mu)^2; rhs and q are taken times n^2, in integers
    points, zero = [], []
    for lam, mu in itertools.product(GRID, repeat=2):
        s = lg.h_umbilical(n, lam, mu)
        _, comm, n_b_sq = exact_sums(s)
        x, y = mu * mu, (lam - mu) ** 2
        lhs = 2 * (n - 1) * x * ((n - 2) * x + 2 * y)
        rhs = (n - 1) ** 2 * (y + 2 * n * x) ** 2  # n^2 times the closed rhs
        q = 2 * n**3 * x * x - 4 * n * x * y + (n - 1) * y * y  # n^2 q
        assert comm == lhs and n_b_sq**2 == rhs
        assert rhs - n * n * lhs == (n - 1) * q
        for got, num, den in zip(lg.h_umbilical_closed(n, lam, mu), (lhs, rhs, q), (1, n * n, n * n)):
            # |got - num / den| <= 4e-16 |num / den|, exactly in integers
            p, r = got.as_integer_ratio()
            assert abs(p * den - num * r) * 10**16 <= 4 * abs(num) * r, (lam, mu, got)
        points.append(s)
        zero.append(q == 0)
    assert ddvv_equality(points) == zero


@pytest.mark.parametrize("n", range(2, 13))
def test_h_umbilical_quartic_discriminant(n):
    # n^2 q has coefficients 2n^3, -4n, n - 1: the discriminant of q is
    # -8 (n - 2)(n + 1) / n^2, so q >= 0, and q is a square at n = 2
    assert (4 * n) ** 2 - 4 * (2 * n**3) * (n - 1) == -8 * (n - 2) * (n + 1) * n**2
