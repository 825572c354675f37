import warnings

import numpy as np
import pytest

from ddvv import matrix_core as mc
import reference as ref


def test_commutator_hand_expanded_2x2():
    b1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    b2 = np.array([[1.0, 0.0], [0.0, -1.0]])
    np.testing.assert_allclose(ref.commutator(b1, b2),
                               [[0.0, -2.0], [2.0, 0.0]])


def test_commutator_identity_and_self():
    rng = np.random.default_rng(0)
    b = ref.random_traceless_sym(4, 1)
    assert np.all(ref.commutator(np.eye(4), b) == 0.0)
    assert np.all(ref.commutator(b, b) == 0.0)


def test_commutator_dimension_mismatch():
    with pytest.raises(ValueError):
        ref.commutator(np.eye(2), np.eye(3))


def test_commutator_antisymmetry():
    a = ref.random_traceless_sym(5, 2)
    b = ref.random_traceless_sym(5, 3)
    np.testing.assert_array_equal(ref.commutator(a, b), -ref.commutator(b, a))


def test_frobenius_inner_examples():
    assert ref.frobenius_inner(np.eye(3), np.eye(3)) == 3.0
    skew = np.array([[0.0, -2.0], [2.0, 0.0]])
    assert ref.frobenius_inner(skew, skew) == 8.0
    assert ref.frobenius_inner(np.eye(2), np.zeros((2, 2))) == 0.0


def test_frobenius_inner_is_sum_of_squares():
    a = ref.random_traceless_sym(4, 7)
    assert ref.frobenius_inner(a, a) == pytest.approx(np.sum(a * a), rel=1e-15)
    assert ref.frobenius_inner(a, a) >= 0.0


def test_traceless_project_examples():
    np.testing.assert_allclose(mc.traceless_project(np.eye(2)), np.zeros((2, 2)))
    b = ref.random_traceless_sym(3, 11)
    np.testing.assert_allclose(mc.traceless_project(b), b, atol=1e-15)
    np.testing.assert_allclose(
        mc.traceless_project(np.array([[3.0, 1.0], [1.0, 1.0]])),
        [[1.0, 1.0], [1.0, -1.0]])


def test_traceless_project_idempotent_linear_and_traceless():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.standard_normal((4, 4))
        a = (a + a.T) / 2
        p = mc.traceless_project(a)
        norm = np.sqrt(np.sum(a * a))
        assert abs(np.trace(p)) <= 1e-14 * max(1.0, norm)
        np.testing.assert_allclose(mc.traceless_project(p), p, atol=1e-14)
        b = rng.standard_normal((4, 4))
        b = (b + b.T) / 2
        np.testing.assert_allclose(
            mc.traceless_project(2 * a - 3 * b),
            2 * mc.traceless_project(a) - 3 * mc.traceless_project(b),
            atol=1e-13)


@pytest.mark.parametrize("m", [1, 6])
def test_commutators_and_gram_match_per_pair_references(m):
    rng = np.random.default_rng(40 + m)
    g = rng.standard_normal((m, 5, 5))
    mats = (g + np.transpose(g, (0, 2, 1))) / 2
    comm, gram = mc.commutators_and_gram(mats)
    assert comm.shape == (m, m, 5, 5) and gram.shape == (m, m)
    for a in range(m):
        for b in range(m):
            np.testing.assert_allclose(comm[a, b], ref.commutator(mats[a], mats[b]),
                                       rtol=0, atol=1e-13)
            assert gram[a, b] == pytest.approx(ref.frobenius_inner(mats[a], mats[b]),
                                               rel=1e-13, abs=1e-13)


def test_traceless_project_symmetrizes_a_stack():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((3, 4, 4))
    p = mc.traceless_project(a)
    sym = (a + np.transpose(a, (0, 2, 1))) / 2
    expected = sym - (np.trace(sym, axis1=1, axis2=2) / 4)[:, None, None] * np.eye(4)
    np.testing.assert_allclose(p, expected, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(p, np.transpose(p, (0, 2, 1)))


def _relative_trace(p):
    """|tr P| / |P| of one matrix, on its exact power-of-two scaling; 0 for P = 0."""
    b = mc.scale_pow2(p[None])[0][0]
    norm = np.sqrt(np.sum(b * b))
    return abs(np.trace(b)) / (norm + (norm == 0))


def test_traceless_project_umbilic_stack_leaves_no_trace():
    rng = np.random.default_rng(7)
    for _ in range(50):
        stack = rng.uniform(-1e3, 1e3, size=6)[:, None, None] * np.eye(5)
        p = mc.traceless_project(stack)
        # the exact result is zero: what is left is rounding of the result
        assert np.all(np.abs(np.trace(p, axis1=1, axis2=2)) <= 1e-15 * max(1.0, np.max(np.abs(p))))
        assert np.max(np.abs(p)) <= 1e-12
    # the traceless parts of a point are checked for finiteness only: the
    # two passes leave a trace of rounding relative to the result at every
    # size and scale, near-umbilic and wide-range diagonal matrices included
    for _ in range(900):
        n = int(rng.integers(2, 40))
        g = rng.standard_normal((n, n))
        kind = rng.integers(3)
        if kind == 0:
            a = g + g.T
        elif kind == 1:  # near-umbilic
            a = rng.standard_normal() * np.eye(n) + 10.0 ** rng.uniform(-15, -3) * (g + g.T)
        else:  # a diagonal over 16 decades
            a = np.diag(rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n))
        a *= 10.0 ** rng.uniform(-300, 300) / np.max(np.abs(a))
        assert _relative_trace(mc.traceless_project(a)) <= 1e-14


def test_as_symmetric_stack_validation():
    stack = np.stack([ref.random_traceless_sym(3, seed) for seed in range(3)])
    np.testing.assert_array_equal(mc.as_symmetric(stack), stack)
    bad = stack.copy()
    bad[1, 0, 2] += 1e-3
    with pytest.raises(mc.AsymmetricMatrixError):
        mc.as_symmetric(bad)
    nan = stack.copy()
    nan[2, 1, 1] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        mc.as_symmetric(nan)
    huge = np.full((2, 2), 1.5e308)  # finite and symmetric, but A + A^T overflows
    with pytest.raises(ValueError, match="overflows"):
        mc.as_symmetric(huge)
    with pytest.raises(ValueError):
        mc.as_symmetric(np.zeros((3, 2, 3)))


def test_random_orthogonal_is_orthogonal_and_deterministic():
    for n in (1, 2, 5, 9):
        o = mc.random_orthogonal(n, 123)
        assert ref.orthogonality_defect(o) <= 1e-12
        np.testing.assert_array_equal(o, mc.random_orthogonal(n, 123))
    assert not np.allclose(mc.random_orthogonal(5, 1), mc.random_orthogonal(5, 2))


def test_random_traceless_sym_properties():
    b = ref.random_traceless_sym(6, 99)
    np.testing.assert_array_equal(b, b.T)
    assert abs(np.trace(b)) <= 1e-14 * np.sqrt(np.sum(b * b))
    np.testing.assert_array_equal(b, ref.random_traceless_sym(6, 99))


def test_conjugate_preserves_norm():
    for seed in range(10):
        a = ref.random_traceless_sym(5, seed)
        o = mc.random_orthogonal(5, seed + 100)
        na = np.sqrt(np.sum(a * a))
        nc = np.sqrt(np.sum(ref.conjugate(a, o) ** 2))
        assert abs(na - nc) <= 1e-12 * max(1.0, na)


def test_conjugate_commutes_with_commutator():
    for seed in range(10):
        a = ref.random_traceless_sym(4, seed)
        b = ref.random_traceless_sym(4, seed + 50)
        o = mc.random_orthogonal(4, seed + 200)
        lhs = ref.conjugate(ref.commutator(a, b), o)
        rhs = ref.commutator(ref.conjugate(a, o), ref.conjugate(b, o))
        scale = max(1.0, np.max(np.abs(lhs)))
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale


def test_as_symmetric_policy():
    # the asymmetry is relative to the largest entry, so every 2^k scaling
    # gets the same verdict
    for k in range(-60, 61):
        a = np.ldexp(np.array([[1.0, 2.0], [2.0 + 1e-12, 1.0]]), k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_allclose(mc.as_symmetric(a), (a + a.T) / 2)
        with pytest.warns(UserWarning):
            mc.as_symmetric(np.ldexp(np.array([[1.0, 2.0], [2.0 + 1e-8, 1.0]]), k))
        with pytest.raises(mc.AsymmetricMatrixError):
            mc.as_symmetric(np.ldexp(np.array([[1.0, 2.0], [2.0 + 1e-3, 1.0]]), k))
    # an overflow in A - A^T or in A + A^T is reported as an error alone,
    # without a floating-point warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(mc.AsymmetricMatrixError):
            mc.as_symmetric([[0.0, 1.5e308], [-1.5e308, 0.0]])
        with pytest.raises(ValueError, match="symmetric part overflows"):
            mc.as_symmetric([[1.5e308, 1.5e308], [1.5e308, 0.0]])
        with pytest.raises(ValueError, match="NaN or infinite"):
            mc.as_symmetric([[0.0, np.inf], [-np.inf, 0.0]])


def test_as_symmetric_tolerance_is_relative_to_each_matrix():
    # a tiny matrix that is far from symmetric is rejected, as at scale 1
    for scale in (1e-12, 1.0, 1e12):
        with pytest.raises(mc.AsymmetricMatrixError, match="relative matrix asymmetry 1.000e"):
            mc.as_symmetric(np.array([[0.0, scale], [0.0, 0.0]]))
    # so is one next to a large matrix: each matrix is measured on its own entries
    stack = np.stack([1e12 * np.eye(2), [[0.0, 1.0], [0.0, 0.0]]])
    with pytest.raises(mc.AsymmetricMatrixError):
        mc.as_symmetric(stack)
    # a rotated point at entries of 1e11 is symmetric to rounding of its size
    g = np.random.default_rng(0).standard_normal((3, 4, 4))
    o = mc.random_orthogonal(4, 1)
    ops = o.T @ (1e11 * (g + g.transpose(0, 2, 1)) / 2) @ o
    assert np.abs(ops - ops.transpose(0, 2, 1)).max() > 1e-6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(mc.as_symmetric(ops), (ops + ops.transpose(0, 2, 1)) / 2)
    np.testing.assert_array_equal(mc.as_symmetric(np.zeros((2, 3, 3))), np.zeros((2, 3, 3)))
