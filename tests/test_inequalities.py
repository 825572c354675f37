import warnings

import numpy as np
import pytest

from ddvv import inequalities as ineq
from ddvv.curvature import ShapeOperatorSet, invariants, traceless_parts
from ddvv.fuzz import random_shape_set
from ddvv.lagrangian import eq_5_1_form
from ddvv.matrix_core import random_orthogonal, scale_pow2, traceless_project
from reference import (
    commutator, conjugate, curvature_sides, ddvv_sides, frobenius_norm_sq, lili_sides,
    random_traceless_sym)

# the labels of the check bundle of a point, in order
BUNDLE = ["ddvv", "chen", "weak-codim", "weak-dim", "li-li"]


def reference_flags(lhs, rhs, tol=ineq.DEFAULT_TOL):
    """(holds, equality) of sides of degree 0, with the tolerance tol max(1, |rhs|)."""
    atol = tol * max(1.0, abs(rhs))
    return lhs <= rhs + atol, abs(lhs - rhs) <= atol


def cdk_pair(mu1=0.5, mu2=0.5, n=2):
    b1 = np.zeros((n, n))
    b2 = np.zeros((n, n))
    b1[0, 1] = b1[1, 0] = mu1
    b2[0, 0] = mu2
    b2[1, 1] = -mu2
    return b1, b2


def random_traceless_stack(m, n, seed):
    return np.stack([random_traceless_sym(n, seed + 1000 * k)
                     for k in range(m)])


def cdk_tuple(m, n):
    """The unit CDK pair on the first 2-plane, padded with zero matrices to m."""
    t = np.zeros((m, n, n))
    t[:2] = cdk_pair(n=n)
    return t


def near_orbit(m=3, n=4, seed=0):
    """The unit CDK pair plus a traceless perturbation of norm 1e-5.

    Its DDVV sides differ by about 1e-10, within the default tolerance.
    """
    d = traceless_project(np.random.default_rng(seed).standard_normal((m, n, n)))
    return cdk_tuple(m, n) + 1e-5 * d / np.sqrt(np.sum(d * d))


def rotate(t, seed):
    """t conjugated by a Haar O(n) and mixed by a Haar O(m), made exactly symmetric."""
    m, n = t.shape[-3:-1]
    o, mix = random_orthogonal(n, seed), random_orthogonal(m, seed + 1)
    r = np.einsum("ab,...aij->...bij", mix, o.T @ t @ o)
    return (r + r.swapaxes(-1, -2)) / 2


### ddvv_check


def test_ddvv_zero_tuple_equality():
    r = ineq.ddvv_check(np.zeros((3, 2, 2)))
    assert r.lhs == 0.0 and r.rhs == 0.0
    assert r.holds and r.equality


def test_ddvv_cdk_equality():
    r = ineq.ddvv_check(np.stack(cdk_pair()))
    assert r.lhs == pytest.approx(1.0, abs=1e-12)
    assert r.rhs == pytest.approx(1.0, abs=1e-12)
    assert r.equality


def test_ddvv_single_matrix():
    b = random_traceless_sym(3, 4)
    r = ineq.ddvv_check(b[None])
    assert r.lhs == 0.0
    assert r.holds and not r.equality


def test_ddvv_rejects_nonzero_trace():
    with pytest.raises(ValueError):
        ineq.ddvv_check(np.eye(3)[None])
    # the trace is measured relative to the tuple's largest entry, so a
    # tuple of relative trace 1 is rejected at 2^-40 as at 1
    traced = np.stack([np.diag([1.0, 0.0, 0.0]), random_traceless_sym(3, 1)])
    traceless = random_traceless_stack(2, 3, 9)
    for k in range(-60, 61):
        with pytest.raises(ValueError, match="traceless"):
            ineq.ddvv_check(np.ldexp(traced, k))
        assert ineq.ddvv_check(np.ldexp(traceless, k)).holds


def test_tuple_checks_need_n_at_least_2():
    # tuples are validated as the operators of a ShapeOperatorSet
    with pytest.raises(ValueError, match="tangent dimension"):
        ineq.ddvv_check(np.zeros((1, 1, 1)))


def test_ddvv_verdict_invariances():
    # a random tuple, the CDK pair and a point just off its orbit
    for mats in (random_traceless_stack(3, 4, 0), cdk_tuple(3, 4), near_orbit()):
        base = ineq.ddvv_check(mats)
        o = random_orthogonal(4, 9)
        conj = np.stack([conjugate(b, o) for b in mats])
        mix = random_orthogonal(3, 10)
        mixed = np.einsum("ab,aij->bij", mix, mats)
        perm = mats[[2, 0, 1]]
        for variant in (conj, mixed, perm, 3.7 * mats):
            r = ineq.ddvv_check(variant)
            assert r.holds == base.holds
            assert r.equality == base.equality
            assert abs(r.lhs - base.lhs) <= 1e-9  # normalized, scale-free


def test_ddvv_m2_implied_by_cdk_chain():
    # (|B1|^2 + |B2|^2)^2 >= 4 |B1|^2 |B2|^2 >= 2 ||[B1,B2]||^2
    for seed in range(50):
        b1 = random_traceless_sym(4, seed)
        b2 = random_traceless_sym(4, seed + 500)
        n1, n2 = frobenius_norm_sq(b1), frobenius_norm_sq(b2)
        comm_sq = frobenius_norm_sq(commutator(b1, b2))
        assert (n1 + n2) ** 2 >= 4 * n1 * n2 - 1e-12
        assert 4 * n1 * n2 >= 2 * comm_sq - 1e-9
        assert ineq.ddvv_check(np.stack([b1, b2])).holds


### cdk_check and equality detection


def test_cdk_zero_equality():
    r = ineq.cdk_check(np.zeros((3, 3)), random_traceless_sym(3, 1))
    assert r.lhs == 0.0 and r.rhs == 0.0 and r.equality


@pytest.mark.parametrize("mu1,mu2", [(0.5, 0.5), (1.0, 2.0), (0.3, -1.2)])
def test_cdk_displayed_pair_equality(mu1, mu2):
    b1, b2 = cdk_pair(mu1, mu2, n=4)
    r = ineq.cdk_check(b1, b2)
    assert r.equality
    # the pairwise equality allows unequal norms; the DDVV equality does not
    on_orbit = abs(mu1) == abs(mu2)
    assert ineq.ddvv_check(np.stack([b1, b2])).equality == on_orbit
    assert (ineq.equality_certificate(np.stack([b1, b2]))[1] <= 1e-15) == on_orbit


def test_cdk_random_pairs_hold():
    rng = np.random.default_rng(8)
    for _ in range(300):
        g1, g2 = rng.standard_normal((2, 3, 3))
        b1, b2 = (g1 + g1.T) / 2, (g2 + g2.T) / 2
        r = ineq.cdk_check(b1, b2)
        assert r.holds
        # direct evaluation agrees with the reported (normalized) sides
        scale = frobenius_norm_sq(b1) + frobenius_norm_sq(b2)
        lhs = frobenius_norm_sq(commutator(b1, b2)) / scale**2
        assert r.lhs == pytest.approx(lhs, rel=1e-12)


### equality_certificate


def test_near_orbit_point_holds_without_equality():
    t = near_orbit()
    r = ineq.ddvv_check(t)
    assert abs(r.lhs - r.rhs) <= ineq.DEFAULT_TOL  # the sides cannot tell
    assert r.holds and not r.equality
    assert 1e-6 <= ineq.equality_certificate(t)[1] <= 1e-4
    _, checks = ineq.point_checks(ShapeOperatorSet(t + 0.3 * np.eye(4), 0.2))
    assert checks[0].label == "ddvv"
    assert checks[0].holds and not checks[0].equality


def test_ddvv_equality_where_the_sides_underflow():
    # at entries of 1e-170, |b|^2 underflows to 0 and both sides read 0;
    # the certificate scales the tuple exactly and still tells them apart
    t = 1e-170 * random_traceless_stack(3, 4, 5)
    assert not ineq.ddvv_check(t).equality
    assert not ineq.point_checks(ShapeOperatorSet(t))[1][0].equality
    assert ineq.ddvv_check(1e-170 * cdk_tuple(3, 4)).equality


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e160, 1e-165])
def test_tuple_check_sides_at_extreme_scales(scale):
    # a sum of squares of the entries overflows at 1e160 and underflows at
    # 1e-165; the unit stack is taken without one
    t = random_traceless_stack(3, 4, 5)
    checks = (ineq.ddvv_check, ineq.lili_check, lambda x: ineq.cdk_check(x[0], x[1]))
    for check in checks:
        # ddvv_check's trace test squares the entries of the tuple of
        # scale_pow2, so no overflow warning escapes
        want, got = check(t), check(scale * t)
        assert want.lhs > 0.1
        assert got.lhs == pytest.approx(want.lhs, rel=1e-12)
        assert got.rhs == pytest.approx(want.rhs, rel=1e-12)


def test_equality_certificate_on_rotated_cdk_pairs():
    for n in range(2, 9):
        for m in range(2, 9):
            t = rotate(cdk_tuple(m, n), 100 * n + m)
            for scale in (1.0, 3.7e-3, 2.1e5):
                assert ineq.equality_certificate(scale * t)[1] <= 1e-14, (n, m, scale)


def test_equality_certificate_rejects_random_tuples():
    rng = np.random.default_rng(41)
    for _ in range(200):
        m, n = int(rng.integers(1, 9)), int(rng.integers(3, 9))
        t = traceless_project(rng.standard_normal((m, n, n)))
        assert ineq.equality_certificate(t)[1] >= 0.1, (m, n)


def test_equality_certificate_scale_invariant():
    t = np.stack([near_orbit(), rotate(cdk_tuple(3, 4), 7), random_traceless_stack(3, 4, 5)])
    canon, residual = ineq.equality_certificate(t)
    for k in range(-400, 401):
        scaled_canon, scaled = ineq.equality_certificate(np.ldexp(t, k))
        np.testing.assert_array_equal(scaled, residual)
        np.testing.assert_array_equal(scaled_canon, np.ldexp(canon, k))


def test_equality_certificate_orthogonal_invariant():
    b1, b2 = cdk_pair(0.7, -0.4, n=5)  # a pairwise equality with unequal norms
    tuples = [near_orbit(), random_traceless_stack(3, 4, 5), np.stack([b1, b2])]
    for t in tuples:
        base = ineq.equality_certificate(t)[1]
        assert base > 1e-6
        for seed in range(5):
            assert abs(ineq.equality_certificate(rotate(t, 10 * seed))[1] - base) <= 1e-10


def test_equality_certificate_rejects_commuting_pair():
    b = np.diag([1.0, -1.0, 0.0])
    assert ineq.equality_certificate(np.stack([b, b]))[1] >= 0.5
    assert ineq.equality_certificate(b[None])[1] == 1.0  # m = 1: never on the orbit


def test_equality_certificate_zero_tuple():
    canon, residual = ineq.equality_certificate(np.zeros((2, 3, 3)))
    assert residual == 0.0 and np.all(canon == 0.0)
    assert ineq.ddvv_check(np.zeros((2, 3, 3))).equality


def test_equality_certificate_takes_stacks():
    t = np.stack([near_orbit(seed=k) for k in range(3)] + [cdk_tuple(3, 4), np.zeros((3, 4, 4))])
    canon, residual = ineq.equality_certificate(t)
    assert residual.shape == (5,) and canon.shape == t.shape
    for k in range(5):
        one_canon, one = ineq.equality_certificate(t[k])
        assert type(one) is float and one == residual[k]
        np.testing.assert_array_equal(one_canon, canon[k])
    r = ineq.ddvv_check(t)
    assert list(r.equality) == [False, False, False, True, True] and r.holds.all()


### lili_check


def test_lili_single_matrix():
    b = random_traceless_sym(3, 5)
    r = ineq.lili_check([b])
    assert r.lhs == pytest.approx(r.rhs / 1.5, rel=1e-12)
    assert r.holds


def test_lili_cdk_equality():
    r = ineq.lili_check(np.stack(cdk_pair()))
    assert r.lhs == pytest.approx(1.5, abs=1e-12)
    assert r.rhs == pytest.approx(1.5, abs=1e-12)
    assert r.equality


def test_lili_fuzz_holds():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(2, 7))
        g = rng.standard_normal((m, n, n))
        mats = (g + np.transpose(g, (0, 2, 1))) / 2  # not traceless on purpose
        assert ineq.lili_check(mats).holds


def test_lili_chain_on_the_canonical_tuple():
    # with an orthogonal Gram matrix the combined bound with constant
    # (2m-1)/(2m-2) on the commutator sum follows; check it on samples
    rng = np.random.default_rng(23)
    for _ in range(200):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(2, 6))
        mats = random_traceless_stack(m, n, int(rng.integers(10**6)))
        mixed = ineq.equality_certificate(mats)[0]
        gram = np.einsum("aij,bij->ab", mixed, mixed)
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) <= 1e-9 * max(1.0, np.max(np.abs(gram)))
        comm_sum = sum(
            2 * frobenius_norm_sq(commutator(mixed[a], mixed[b]))
            for a in range(m) for b in range(a + 1, m))
        total = float(np.sum(mixed * mixed))
        assert (2 * m - 1) / (2 * m - 2) * comm_sum <= 1.5 * total**2 + 1e-9


### weak constants and weak/chen checks


def test_weak_constant_m_values():
    assert ineq.weak_constant_m(2) == 1.0
    assert ineq.weak_constant_m(3) == pytest.approx(np.sqrt(5.0 / 6.0), abs=1e-15)
    assert ineq.weak_constant_m(10**9) == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-8)
    with pytest.raises(ValueError):
        ineq.weak_constant_m(1)


def test_weak_constant_n_values():
    assert ineq.weak_constant_n(2) == pytest.approx(1.0, abs=1e-15)
    assert ineq.weak_constant_n(3) == pytest.approx(np.sqrt(0.75), abs=1e-15)
    with pytest.raises(ValueError):
        ineq.weak_constant_n(1)


@pytest.mark.parametrize("n", range(2, 11))
def test_weak_constant_n_is_image_dimension_substitution(n):
    m_eff = n * (n + 1) // 2 - 1
    assert ineq.weak_constant_n(n) == pytest.approx(
        ineq.weak_constant_m(m_eff), abs=1e-15)


def test_weak_checks_geodesic_equality():
    s = ShapeOperatorSet(np.zeros((2, 3, 3)), ambient_c=0.4)
    rm, rn = ineq.weak_checks(s)
    assert rm.equality and rn.equality


def test_weak_and_chen_on_cdk():
    b1, b2 = cdk_pair()
    s = ShapeOperatorSet(np.stack([b1, b2]))
    rm, rn = ineq.weak_checks(s)
    assert rm.holds and rn.holds
    chen = ineq.chen_check(s)
    assert chen.holds and not chen.equality
    assert chen.lhs == pytest.approx(-0.5)
    assert chen.rhs == pytest.approx(0.0)


def test_weak_and_chen_fuzz():
    rng = np.random.default_rng(29)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 7))
        s = random_shape_set(n, m, rng)
        rm, rn = ineq.weak_checks(s)
        assert rm.holds and rn.holds
        assert ineq.chen_check(s).holds


def test_chen_equality_iff_traceless_parts_vanish():
    umbilic = ShapeOperatorSet(np.stack([2.0 * np.eye(3), -0.5 * np.eye(3)]),
                               ambient_c=1.0)
    r = ineq.chen_check(umbilic)
    assert r.equality
    s = random_shape_set(3, 2, np.random.default_rng(31))
    assert not ineq.chen_check(s).equality


def test_ddvv_proved_regimes_fuzz():
    rng = np.random.default_rng(37)
    for _ in range(500):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 7))
        s = random_shape_set(n, m, rng)
        assert ineq.ddvv_check(traceless_parts(s)).holds


def test_point_checks_match_the_separate_checks(monkeypatch):
    rng = np.random.default_rng(43)
    b1, b2 = cdk_pair()
    sets = [ShapeOperatorSet(np.stack([b1, b2])),
            ShapeOperatorSet(np.stack([2.0 * np.eye(3), -np.eye(3)]), ambient_c=0.5),
            ShapeOperatorSet(np.zeros((2, 3, 3)))]
    for _ in range(300):
        n, m = int(rng.integers(2, 7)), int(rng.integers(1, 7))
        s = random_shape_set(n, m, rng)
        sets.append(ShapeOperatorSet(s.ops * 10.0 ** rng.uniform(-3, 3), s.ambient_c))
    # a stack: the embedded CDK pair, bare and rotated with a mean curvature,
    # an eq51 point, the CDK pair 1e-5 off its orbit and random points
    g = rng.standard_normal((4, 4, 4, 4))
    stack = ShapeOperatorSet(np.stack([
        cdk_tuple(4, 4),
        rotate(cdk_tuple(4, 4), 3) + np.array([0.4, -1.0, 0.0, 0.2])[:, None, None] * np.eye(4),
        eq_5_1_form(1.0, -0.2).ops, near_orbit(4, 4), *(g + g.swapaxes(-1, -2))]),
        rng.uniform(-1.0, 1.0, 8))
    sets += [ShapeOperatorSet(ops, c) for ops, c in zip(stack.ops, stack.ambient_c)]
    certificate, certified = ineq.equality_certificate, []

    def recorded(t):
        certified.append(t)
        return certificate(t)

    monkeypatch.setattr(ineq, "equality_certificate", recorded)
    agree = []  # of each point, whether its ddvv sides agree
    for s in sets:
        certified.clear()
        inv, checks = ineq.point_checks(s)
        assert inv == invariants(s)
        assert [c.label for c in checks] == BUNDLE
        # ddvv and li-li against the per-matrix sums: the tuple checks are
        # views of the bundle, so they cannot serve as its reference
        parts = traceless_parts(s)
        on_orbit = certificate(parts)[1] <= ineq.DEFAULT_TOL
        for got, (lhs, rhs), certified_ok in ((checks[0], ddvv_sides(parts), on_orbit),
                                              (checks[4], lili_sides(s.ops), True)):
            assert got.lhs == pytest.approx(lhs, rel=1e-12, abs=1e-12)
            assert got.rhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
            holds, equality = reference_flags(lhs, rhs)
            assert (got.holds, got.equality) == (holds, equality and certified_ok)
        # the certificate reads the parts of the invariants, as they are
        sides_agree = reference_flags(*ddvv_sides(parts))[1]
        assert len(certified) == sides_agree
        if sides_agree:
            np.testing.assert_array_equal(certified[0], inv.scaled[0][None])
        np.testing.assert_array_equal(inv.scaled[0], scale_pow2(parts)[0])
        agree.append(sides_agree)
        assert checks[1] == ineq.chen_check(s) and checks[2:4] == list(ineq.weak_checks(s))
        # chen and weak-* against the Gauss and Ricci sums, at the degree-2 scale
        sides, scale = curvature_sides(s)
        atol = ineq.DEFAULT_TOL * scale
        for got, (lhs, rhs) in zip(checks[1:4], sides):
            assert got.lhs == pytest.approx(lhs, rel=1e-12, abs=1e-12 * scale)
            assert got.rhs == pytest.approx(rhs, rel=1e-12, abs=1e-12 * scale)
            equality = abs(lhs - rhs) <= atol
            assert (got.holds, got.equality) == (equality or lhs <= rhs + atol, equality)
    agree = agree[-len(stack.ops):]  # of the points of the stack
    assert agree == [True] * 4 + [False] * 4
    certified.clear()
    inv, checks = ineq.point_checks(stack)
    (arg,) = certified
    np.testing.assert_array_equal(arg, inv.scaled[0][np.array(agree)])
    assert list(checks[0].equality) == [True] * 3 + [False] * 5


def test_flags_do_not_depend_on_scale():
    rng = np.random.default_rng(53)
    b1, b2 = cdk_pair()
    sets = [ShapeOperatorSet(np.stack([b1, b2]), ambient_c=0.3),
            ShapeOperatorSet(np.stack([2.0 * np.eye(3), -np.eye(3)]), ambient_c=0.5)]
    sets += [random_shape_set(int(rng.integers(2, 7)), int(rng.integers(1, 7)), rng)
             for _ in range(50)]
    for s in sets:
        base = [(c.holds, c.equality) for c in ineq.point_checks(s)[1]]
        for k in (-400, -150, -17, 17, 150, 400):
            scaled = ShapeOperatorSet(np.ldexp(s.ops, k), np.ldexp(s.ambient_c, 2 * k))
            assert [(c.holds, c.equality) for c in ineq.point_checks(scaled)[1]] == base
    # a random point far below unit size is no equality case
    g = rng.standard_normal((3, 4, 4))
    for scale in (1e-5, 1e-100):
        s = ShapeOperatorSet(scale * (g + g.transpose(0, 2, 1)), ambient_c=0.0)
        assert not any(c.equality for c in ineq.point_checks(s)[1])


def _scale_points():
    """Operators of seeded points of each kind the degree-0 checks tell apart."""
    rng = np.random.default_rng(71)
    g = rng.standard_normal((3, 4, 4))
    g1 = rng.standard_normal((1, 5, 5))
    return {
        "random": (g + g.transpose(0, 2, 1)) / 2,
        "cdk": cdk_tuple(3, 4),
        "cdk-plus-h": cdk_tuple(3, 4) + np.array([0.7, -1.3, 0.2])[:, None, None] * np.eye(4),
        "umbilic": np.stack([2.0 * np.eye(3), -np.eye(3)]),
        "m1": (g1 + g1.transpose(0, 2, 1)) / 2,
    }


@pytest.mark.parametrize("kind", list(_scale_points()))
def test_degree_0_checks_are_exact_at_every_scale(kind):
    # ddvv and li-li are ratios of degree 0, decided at exact powers of two
    # of the point: every 2^k whose entries stay finite and nonzero gives
    # the same flags and the same sides
    ops = _scale_points()[kind]
    with np.errstate(over="ignore", under="ignore"):
        scaled = np.ldexp(ops, np.arange(-1000, 1001)[:, None, None, None])
    keep = (np.isfinite(scaled) & ((scaled != 0) == (ops != 0))).all(axis=(1, 2, 3))
    assert keep.sum() >= 1900
    base = ineq.point_checks(ShapeOperatorSet(ops))[1]
    checks = ineq.point_checks(ShapeOperatorSet(scaled[keep]))[1]  # overflows without a warning
    for i in (0, 4):
        got, want = checks[i], base[i]
        assert got.label == want.label
        assert (got.holds == want.holds).all() and (got.equality == want.equality).all()
        np.testing.assert_allclose(got.lhs, want.lhs, rtol=1e-12, atol=0)
        np.testing.assert_allclose(got.rhs, want.rhs, rtol=1e-12, atol=0)


def test_lili_rhs_is_exact_at_tiny_scale():
    # |b|^2 is subnormal at entries of 1e-160; the sides are taken at an exact scale
    g = np.random.default_rng(3).standard_normal((3, 4, 4))
    lili = ineq.point_checks(ShapeOperatorSet(1e-160 * (g + g.transpose(0, 2, 1)) / 2))[1][4]
    assert lili.label == "li-li" and lili.rhs == 1.5 and lili.holds


@pytest.mark.parametrize("scale", [1e160, 1e-160])
def test_the_bundle_and_its_views_raise_no_floating_point_warning(scale):
    # one policy for the whole bundle: near the float range the invariants
    # and sides read inf or NaN, and no view warns where another does not
    g = np.random.default_rng(0).standard_normal((3, 4, 4))
    ops = scale * (g + g.transpose(0, 2, 1)) / 2
    s = ShapeOperatorSet(ops)
    calls = (lambda: invariants(s), lambda: ineq.point_checks(s), lambda: ineq.chen_check(s),
             lambda: ineq.weak_checks(s), lambda: ineq.lili_check(ops),
             lambda: ineq.ddvv_check(traceless_project(ops)))
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            call()


@pytest.mark.parametrize("check", [ineq.ddvv_check, ineq.lili_check])
def test_tuple_checks_are_views_of_the_bundle(monkeypatch, check):
    from ddvv import curvature, matrix_core

    calls = []

    def counted(mats):
        calls.append(np.shape(mats))
        return matrix_core.commutators_and_gram(mats)

    monkeypatch.setattr(curvature, "commutators_and_gram", counted)
    monkeypatch.setattr(ineq, "commutators_and_gram", counted)
    t = np.stack([near_orbit(), rotate(cdk_tuple(3, 4), 5), random_traceless_stack(3, 4, 5)])
    got = check(t)
    assert calls == [t.shape]
    want = ineq.point_checks(ShapeOperatorSet(t))[1][0 if check is ineq.ddvv_check else 4]
    assert got.label == want.label
    for field in ("lhs", "rhs", "holds", "equality"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field))


@pytest.mark.parametrize("lead", [(), (4,)])
def test_point_checks_make_one_kernel_call(monkeypatch, lead):
    from ddvv import curvature, matrix_core

    calls = []

    def counted(mats):
        calls.append(np.shape(mats))
        return matrix_core.commutators_and_gram(mats)

    monkeypatch.setattr(curvature, "commutators_and_gram", counted)
    monkeypatch.setattr(ineq, "commutators_and_gram", counted)
    g = np.random.default_rng(61).standard_normal((*lead, 3, 4, 4))
    ineq.point_checks(ShapeOperatorSet(g + g.swapaxes(-1, -2)))
    assert calls == [(*lead, 3, 4, 4)]


def test_lili_of_a_point_with_huge_mean_curvature():
    # |A|^2 overflows while the traceless parts are zero; the li-li sides
    # are taken on the unit stack and must not turn into NaN
    s = ShapeOperatorSet(np.stack([2.0 * np.eye(3), -np.eye(3)]) * 1e155)
    lili = ineq.point_checks(s)[1][-1]  # |H|^2 itself overflows
    assert lili.label == "li-li" and lili.holds


@pytest.mark.parametrize("scale", [1e152, 1e153])
def test_lili_sides_where_n_times_norm_sq_overflows(scale):
    # n |A|^2 overflows above |A|^2 of about DBL_MAX / n while |A|^2 and
    # |b|^2 stay finite; the mean-curvature term must stay in the Gram matrix
    g = np.random.default_rng(67).standard_normal((3, 4, 4))
    parts = traceless_parts(ShapeOperatorSet(g + g.transpose(0, 2, 1)))
    s = ShapeOperatorSet(scale * (parts + np.array([1.0, -2.0, 0.5])[:, None, None] * np.eye(4)))
    lili, (lhs, rhs) = ineq.point_checks(s)[1][-1], lili_sides(s.ops)
    assert lili.lhs == pytest.approx(lhs, rel=1e-13)
    assert lili.rhs == pytest.approx(rhs, rel=1e-13)
    assert (lili.holds, lili.equality) == reference_flags(lhs, rhs)
