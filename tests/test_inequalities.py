import numpy as np
import pytest

from ddvv import inequalities as ineq
from ddvv.curvature import ShapeOperatorSet, invariants, traceless_parts
from ddvv.fuzz import random_shape_set
from ddvv.matrix_core import (
    commutator,
    conjugate,
    frobenius_norm_sq,
    random_orthogonal,
    random_traceless_sym,
    traceless_project,
)


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
        # ddvv_check's trace test squares entries too; an inf norm passes it,
        # and no overflow warning escapes
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


def test_point_checks_match_the_separate_checks():
    rng = np.random.default_rng(43)
    b1, b2 = cdk_pair()
    sets = [ShapeOperatorSet(np.stack([b1, b2])),
            ShapeOperatorSet(np.stack([2.0 * np.eye(3), -np.eye(3)]), ambient_c=0.5),
            ShapeOperatorSet(np.zeros((2, 3, 3)))]
    for _ in range(300):
        n, m = int(rng.integers(2, 7)), int(rng.integers(1, 7))
        s = random_shape_set(n, m, rng)
        sets.append(ShapeOperatorSet(s.ops * 10.0 ** rng.uniform(-3, 3), s.ambient_c))
    for s in sets:
        inv, checks = ineq.point_checks(s)
        assert inv == invariants(s)
        separate = [ineq.ddvv_check(traceless_parts(s)), ineq.chen_check(s),
                    *ineq.weak_checks(s), ineq.lili_check(s.ops)]
        assert [c.label for c in checks] == [c.label for c in separate]
        for got, want in zip(checks, separate):
            assert got.lhs == pytest.approx(want.lhs, rel=1e-12, abs=1e-12)
            assert got.rhs == pytest.approx(want.rhs, rel=1e-12, abs=1e-12)
            assert (got.holds, got.equality) == (want.holds, want.equality)


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
    with np.errstate(over="ignore", invalid="ignore"):  # |H|^2 itself overflows
        lili = ineq.point_checks(s)[1][-1]
    assert lili.label == "li-li" and lili.holds


@pytest.mark.parametrize("scale", [1e152, 1e153])
def test_lili_sides_where_n_times_norm_sq_overflows(scale):
    # n |A|^2 overflows above |A|^2 of about DBL_MAX / n while |A|^2 and
    # |b|^2 stay finite; the mean-curvature term must stay in the Gram matrix
    g = np.random.default_rng(67).standard_normal((3, 4, 4))
    parts = traceless_parts(ShapeOperatorSet(g + g.transpose(0, 2, 1)))
    s = ShapeOperatorSet(scale * (parts + np.array([1.0, -2.0, 0.5])[:, None, None] * np.eye(4)))
    lili, want = ineq.point_checks(s)[1][-1], ineq.lili_check(s.ops)
    assert lili.lhs == pytest.approx(want.lhs, rel=1e-13)
    assert lili.rhs == pytest.approx(want.rhs, rel=1e-13)
    assert (lili.holds, lili.equality) == (want.holds, want.equality)
