import numpy as np
import pytest

from ddvv import extremizer as ex
from ddvv import inequalities as ineq
from ddvv.matrix_core import inner, random_orthogonal, sum_sq, traceless_project, unit_stack
from reference import commutator, conjugate, frobenius_norm_sq, random_traceless_sym


def cdk_tuple():
    t = np.zeros((2, 2, 2))
    t[0] = [[0.0, 0.5], [0.5, 0.0]]
    t[1] = [[0.5, 0.0], [0.0, -0.5]]
    return t


def random_tuple(m, n, seed):
    return np.stack([random_traceless_sym(n, seed + 31 * k) for k in range(m)])


def stream_starts(config, count):
    """The first `count` raw starts of a search: blocks of one stream seeded from (seed, n, m)."""
    rng = np.random.default_rng(
        np.random.SeedSequence([config.seed & (2**64 - 1), config.n, config.m]))
    return rng.standard_normal((count, config.m, config.n, config.n))


def test_objective_examples():
    diag = np.stack([np.diag([1.0, -1.0, 0.0]), np.diag([0.5, 0.5, -1.0])])
    assert ex.objective(diag) == 0.0
    assert ex.objective(cdk_tuple()) == pytest.approx(1.0, abs=1e-14)
    t = random_tuple(3, 3, 5)
    assert ex.objective(2.0 * t) == pytest.approx(16.0 * ex.objective(t), rel=1e-12)


def test_objective_invariances():
    t = random_tuple(3, 4, 1)
    base = ex.objective(t)
    o = random_orthogonal(4, 2)
    conj = np.stack([conjugate(b, o) for b in t])
    mix = np.einsum("ab,aij->bij", random_orthogonal(3, 3), t)
    assert ex.objective(conj) == pytest.approx(base, rel=1e-10)
    assert ex.objective(mix) == pytest.approx(base, rel=1e-10)


def test_normalize():
    t = random_tuple(2, 3, 9) + 0.3 * np.eye(3)
    z = ex.normalize(t)
    assert np.sum(z * z) == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(np.trace(z, axis1=1, axis2=2))) <= 1e-14
    with pytest.raises(ValueError):
        ex.normalize(np.zeros((2, 3, 3)))


@pytest.mark.parametrize("shape", [(64, 6, 6, 6), (32, 8, 8, 8), (5, 2, 3, 3),
                                   (8, 12, 12, 12), (3, 1, 2, 2)])
def test_normalize_is_unit_stack_of_the_projection_bit_for_bit(shape):
    rng = np.random.default_rng(shape[0])
    for scale in (1e-3, 1.0, 1e3):
        t = scale * rng.standard_normal(shape)
        z = ex.normalize(t)
        np.testing.assert_array_equal(z, unit_stack(traceless_project(t)))
        # the exact 2^-e scaling of `unit_stack` leaves p / |p| unchanged
        p = traceless_project(t)
        np.testing.assert_array_equal(z, p / np.sqrt(inner(p, p, 3))[:, None, None, None])


def test_normalize_raises_on_a_zero_tuple_in_a_stack():
    stack = np.stack([random_tuple(2, 3, 70 + k) for k in range(4)])
    stack[1] = 0.0
    with pytest.raises(ValueError, match="zero tuple"):
        ex.normalize(stack)
    # a multiple of the identity projects to zero too
    stack[1] = np.eye(3)
    with pytest.raises(ValueError, match="zero tuple"):
        ex.normalize(stack)
    # a tiny tuple, whose squared norm underflows, is scaled exactly first
    stack[1] = 1e-200 * stack[0]
    z = ex.normalize(stack)
    np.testing.assert_allclose(z[1], z[0], rtol=0, atol=1e-15)


def test_gradient_zero_tuple():
    assert np.all(ex.gradient(np.zeros((3, 4, 4))) == 0.0)


def test_gradient_matches_finite_differences():
    h = 1e-5
    rng = np.random.default_rng(123)
    for trial in range(20):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(2, 5))
        t = ex.normalize(random_tuple(m, n, trial))
        g = ex.gradient(t)
        fd = np.zeros_like(t)
        for a in range(m):
            for i in range(n):
                for j in range(n):
                    e = np.zeros_like(t)
                    e[a, i, j] = h
                    fd[a, i, j] = (ex.objective(t + e) - ex.objective(t - e)) / (2 * h)
        # raw entrywise derivative, projected to the traceless symmetric space
        fd = (fd + np.transpose(fd, (0, 2, 1))) / 2
        fd -= np.trace(fd, axis1=1, axis2=2)[:, None, None] * np.eye(n) / n
        scale = max(1.0, float(np.max(np.abs(g))))
        assert np.max(np.abs(g - fd)) / scale < 1e-6


def test_riemannian_gradient_vanishes_at_cdk():
    assert np.max(np.abs(ex.riemannian_gradient(cdk_tuple()))) < 1e-8


def test_ascend_monotone_and_on_sphere():
    config = ex.SearchConfig(n=3, m=2, max_iters=200, seed=0)
    start = random_tuple(2, 3, 44)
    (value,), (x,), _ = ex.ascend(config, start[None])
    assert value >= ex.objective(ex.normalize(start)) - 1e-15
    assert np.sum(x * x) == pytest.approx(1.0, abs=1e-12)
    assert value == pytest.approx(ex.objective(x), abs=1e-12)


def test_trial_step_after_an_accepted_move_is_the_bb_step(monkeypatch):
    # replay one restart from its recorded evaluations: the first trial step is STEP_INIT,
    # a rejection halves the step, and an accepted move s = x_new - x_old with
    # y = g_new - g_old sets the next trial step to <s, s> / |<s, y>|
    evaluations, original = [], ex._evaluate

    def record(mats):
        result = original(mats)
        evaluations.append((mats.copy(),) + tuple(a.copy() for a in result))
        return result

    monkeypatch.setattr(ex, "_evaluate", record)
    (value,), _, (outcome,) = ex.ascend(ex.SearchConfig(n=4, m=3), random_tuple(3, 4, 8)[None])
    (x, f, g, gain), step, moves = evaluations[0], ex.STEP_INIT, 0
    for cand, cand_f, cand_g, cand_gain in evaluations[1:]:
        expected = x + step * g
        expected /= np.sqrt(inner(expected, expected, 3))[:, None, None, None]
        np.testing.assert_allclose(cand, expected, rtol=0, atol=1e-15)
        if cand_f[0] >= f[0] + ex.ARMIJO_SIGMA * step * gain[0]:
            s, y = cand - x, cand_g - g
            step = inner(s, s, 3)[0] / abs(inner(s, y, 3)[0])
            x, f, g, gain = cand, cand_f, cand_g, cand_gain
            moves += 1
        else:
            step *= ex.STEP_SHRINK
    assert f[0] == value and moves == outcome.iterations - 1


@pytest.mark.parametrize("n,m,restarts,expect", [
    (2, 2, 8, 1.0),
    (3, 3, 16, 1.0),
    (2, 1, 4, 0.0),
])
def test_multistart_known_ceilings(n, m, restarts, expect):
    config = ex.SearchConfig(n=n, m=m, restarts=restarts, seed=7)
    report = ex.multistart(config)
    assert report.best_value == pytest.approx(expect, abs=2e-6)
    assert report.best_value <= expect + 1e-9
    assert not report.violation_candidate
    assert sum_sq(report.best_tuple, 3) == pytest.approx(1.0, abs=1e-12)
    assert report.best_value == pytest.approx(
        ex.objective(report.best_tuple), abs=1e-12)


def test_multistart_deterministic():
    config = ex.SearchConfig(n=3, m=2, restarts=6, seed=321)
    r1 = ex.multistart(config)
    r2 = ex.multistart(config)
    assert r1.best_value == r2.best_value
    np.testing.assert_array_equal(r1.best_tuple, r2.best_tuple)
    assert [o.value for o in r1.per_restart] == [o.value for o in r2.per_restart]


def test_maximizer_is_cdk_pair():
    config = ex.SearchConfig(n=3, m=3, restarts=16, seed=5)
    report = ex.multistart(config)
    assert report.best_value >= 1.0 - 1e-6
    assert ineq.ddvv_check(report.best_tuple).holds
    # the ascent stops once the value is within rounding of 1, about sqrt(eps)
    # off the orbit, and the certificate's residual is linear in that distance
    assert ineq.equality_certificate(report.best_tuple)[1] <= 1e-6
    assert ineq.ddvv_check(report.best_tuple, tol=1e-6).equality


def test_search_config_validation():
    with pytest.raises(ValueError):
        ex.SearchConfig(n=1, m=2)
    with pytest.raises(ValueError):
        ex.SearchConfig(n=2, m=2, restarts=0)
    # the step and stop settings are module constants, not fields
    for name in ("step_init", "step_shrink", "grad_tol"):
        with pytest.raises(TypeError):
            ex.SearchConfig(n=3, m=2, **{name: 0.2})


def test_search_config_as_dict_writes_the_constants():
    # a search report's config block and the search benchmark's input digest
    config = ex.SearchConfig(n=6, m=6, restarts=8, seed=1)
    assert list(config.as_dict().items()) == [
        ("n", 6), ("m", 6), ("restarts", 8), ("max_iters", 5000),
        ("step_init", 0.1), ("step_shrink", 0.5), ("grad_tol", 1e-10), ("seed", 1)]


def test_stop_reasons():
    config = ex.SearchConfig(n=2, m=2, seed=0)
    _, _, (outcome,) = ex.ascend(config, cdk_tuple()[None])
    assert (outcome.stop_reason, outcome.iterations, outcome.converged) == ("grad_tol", 1, True)
    start = random_tuple(3, 3, 8)
    _, _, (outcome,) = ex.ascend(ex.SearchConfig(n=3, m=3, max_iters=1), start[None])
    assert (outcome.stop_reason, outcome.iterations, outcome.converged) == ("max_iters", 1, False)
    _, _, (outcome,) = ex.ascend(ex.SearchConfig(n=3, m=3), start[None])
    assert outcome.stop_reason == "line_search" and outcome.converged
    assert 1 < outcome.iterations < 5000


def test_report_lists_stop_reasons():
    report = ex.multistart(ex.SearchConfig(n=3, m=2, restarts=4, seed=1))
    per_restart = report.as_dict()["per_restart"]
    assert len(per_restart) == 4
    for entry in per_restart:
        assert entry["stop_reason"] in ex.STOP_REASONS
        assert entry["converged"] == (entry["stop_reason"] != "max_iters")


def test_multistart_restarts_match_single_ascents(monkeypatch):
    # each restart keeps its own step, so the batch gives every restart's own ascent bit for bit
    config = ex.SearchConfig(n=4, m=3, restarts=8, seed=17)
    ascend, tuples = ex.ascend, []

    def record(config, starts):
        result = ascend(config, starts)
        tuples.append(result[1])
        return result

    monkeypatch.setattr(ex, "ascend", record)
    report = ex.multistart(config)
    (batch,) = tuples
    starts = traceless_project(stream_starts(config, 8))  # as multistart hands them over
    for k, outcome in enumerate(report.per_restart):
        (value,), (x,), (alone,) = ascend(config, starts[k][None])
        assert outcome.value == value
        assert x.tobytes() == batch[k].tobytes()
        assert (outcome.iterations, outcome.stop_reason) == (alone.iterations, alone.stop_reason)


def test_multistart_batches_give_the_same_report(monkeypatch):
    config = ex.SearchConfig(n=3, m=2, restarts=7, seed=12)
    whole = ex.multistart(config)
    monkeypatch.setattr(ex, "BATCH_ENTRIES", 3 * (2 * 3) ** 2)  # batches of 3, 3 and 1
    batched = ex.multistart(config)
    assert len(batched.per_restart) == 7
    for a, b in zip(whole.per_restart, batched.per_restart):
        assert a.value == pytest.approx(b.value, abs=1e-12)
    assert batched.best_value == pytest.approx(whole.best_value, abs=1e-12)


def test_multistart_first_restarts_do_not_depend_on_restarts():
    five, nine = (ex.multistart(ex.SearchConfig(n=4, m=3, restarts=r, seed=23)).as_dict()
                  for r in (5, 9))
    assert five["per_restart"] == nine["per_restart"][:5]


def test_multistart_ties_go_to_earliest_restart(monkeypatch):
    config = ex.SearchConfig(n=3, m=2, restarts=4, seed=0)
    tuples = np.stack([ex.normalize(random_tuple(2, 3, 50 + k)) for k in range(4)])
    values = np.array([0.5, 0.9, 0.9 + 5e-13, 0.9 - 5e-13])
    outcomes = [ex.RestartOutcome(value=float(v), iterations=1, stop_reason="grad_tol")
                for v in values]
    monkeypatch.setattr(ex, "ascend", lambda config, starts: (values, tuples, outcomes))
    report = ex.multistart(config)
    assert report.best_value == 0.9
    np.testing.assert_array_equal(report.best_tuple,
                                  ineq.equality_certificate(tuples[1])[0])


# the `search` configurations that CI runs: (n, m, restarts, seed)
CI_SEARCHES = [(6, 6, 8, 1), (3, 8, 8, 2), (4, 1, 4, 0), (2, 5, 8, 4), (8, 8, 32, 7),
               (4, 3, 4, 5), (4, 3, 8, 5)]


@pytest.mark.parametrize("n, m, restarts, seed", CI_SEARCHES)
def test_search_reports_the_certificate_residual_of_its_best_tuple(
        n, m, restarts, seed, monkeypatch):
    config = ex.SearchConfig(n=n, m=m, restarts=restarts, seed=seed)
    ascend, batches = ex.ascend, []

    def record(config, starts):
        batches.append(ascend(config, starts))
        return batches[-1]

    monkeypatch.setattr(ex, "ascend", record)
    report = ex.multistart(config)
    values = np.concatenate([values for values, _, _ in batches])
    tuples = np.concatenate([tuples for _, tuples, _ in batches])
    best = 0
    for k, value in enumerate(values):  # ties within 1e-12 go to the earliest restart
        if value > values[best] + 1e-12:
            best = k
    canonical, residual = ineq.equality_certificate(tuples[best])
    assert report.certificate_residual == residual
    assert report.as_dict()["certificate_residual"] == residual
    np.testing.assert_array_equal(report.best_tuple, canonical)
    if m == 1:  # one matrix has the ceiling 0 and no equality orbit
        assert residual == 1.0
    else:  # a searched maximizer ends about sqrt(eps) off the orbit
        assert residual <= 1e-6


def test_multistart_skips_zero_start(monkeypatch):
    config = ex.SearchConfig(n=3, m=2, restarts=3, seed=4)
    original = ex._draw_starts

    def with_zero_start(rng, count, config):
        starts = original(rng, count, config)
        starts[1] = 0.0
        return starts

    monkeypatch.setattr(ex, "_draw_starts", with_zero_start)
    report = ex.multistart(config)
    assert len(report.per_restart) == 2
    starts = stream_starts(config, 3)
    for outcome, k in zip(report.per_restart, (0, 2)):
        (value,), _, _ = ex.ascend(config, starts[k][None])
        assert outcome.value == pytest.approx(value, abs=1e-12)


def test_kernels_on_a_stack_match_per_tuple_calls():
    stack = np.stack([random_tuple(3, 4, 60 + k) for k in range(5)])
    values = ex.objective(stack)
    grads = ex.gradient(stack)
    rgrads = ex.riemannian_gradient(stack)
    normed = ex.normalize(stack)
    assert values.shape == (5,) and grads.shape == stack.shape
    for k, t in enumerate(stack):
        assert values[k] == pytest.approx(ex.objective(t), rel=1e-14)
        np.testing.assert_allclose(grads[k], ex.gradient(t), rtol=0, atol=1e-13)
        np.testing.assert_allclose(rgrads[k], ex.riemannian_gradient(t), rtol=0, atol=1e-13)
        np.testing.assert_allclose(normed[k], ex.normalize(t), rtol=0, atol=1e-15)
    stack[2] = 0.0
    with pytest.raises(ValueError):
        ex.normalize(stack)


def test_ascend_from_a_maximizer_stops_at_once(monkeypatch):
    config = ex.SearchConfig(n=4, m=3, restarts=8, seed=3)
    best = ex.multistart(config).best_tuple
    rows, original = [], ex.gradient

    def counted(mats):
        rows.append(len(mats))
        return original(mats)

    monkeypatch.setattr(ex, "gradient", counted)
    (value,), _, (outcome,) = ex.ascend(config, best[None])
    assert outcome.stop_reason in ("grad_tol", "line_search")
    assert sum(rows) - 1 <= 2  # the first call evaluates the start itself
    assert value == pytest.approx(1.0, abs=1e-9)


def test_multistart_reaches_the_ceiling_in_few_iterations():
    report = ex.multistart(ex.SearchConfig(n=6, m=6, restarts=8, seed=1))
    for outcome in report.per_restart:
        assert outcome.value == pytest.approx(1.0, abs=1e-9)
    assert np.median([o.iterations for o in report.per_restart]) <= 30


@pytest.mark.parametrize("n,m", [(6, 6), (3, 8), (8, 3)])
def test_ascend_iterates_stay_symmetric_traceless_and_unit(n, m):
    # candidates are only rescaled, never projected again
    config = ex.SearchConfig(n=n, m=m, restarts=16, seed=n + 10 * m)
    starts = traceless_project(stream_starts(config, 16))
    values, x, _ = ex.ascend(config, starts)
    np.testing.assert_array_equal(x, np.swapaxes(x, -1, -2))
    assert np.max(np.abs(np.trace(x, axis1=-2, axis2=-1))) <= 1e-14
    assert np.max(np.abs(np.sum(x * x, axis=(1, 2, 3)) - 1.0)) <= 1e-14
    assert np.all(values >= ex.objective(ex.normalize(starts)))


def test_gradient_needs_no_traceless_projection():
    # tr(B_g Q - W_g) = 0 by cyclicity, for traceless tuples or not
    rng = np.random.default_rng(8)
    for trial in range(50):
        m, n = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        a = rng.standard_normal((3, m, n, n))
        b = a + np.swapaxes(a, -1, -2)
        expected = traceless_project(np.stack([_gradient_loop(t) for t in b]))
        got = ex.gradient(b)
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))
        np.testing.assert_array_equal(got, np.swapaxes(got, -1, -2))


def test_multistart_projects_its_starts_as_one_stack(monkeypatch):
    config = ex.SearchConfig(n=5, m=4, restarts=6, seed=99)
    seen = []

    def record(config, starts):
        seen.append(starts)
        return np.zeros(len(starts)), starts, [ex.RestartOutcome(0.0, 1, "grad_tol")] * len(starts)

    monkeypatch.setattr(ex, "ascend", record)
    ex.multistart(config)
    expected = np.stack([traceless_project(t) for t in stream_starts(config, 6)])
    assert seen[0].shape == expected.shape
    assert seen[0].tobytes() == expected.tobytes()  # bit for bit


def test_objective_is_never_negative():
    rng = np.random.default_rng(0)
    diag = np.zeros((1000, 3, 4, 4))
    idx = np.arange(4)
    diag[..., idx, idx] = rng.standard_normal((1000, 3, 4))
    values = ex.objective(diag)
    assert values.shape == (1000,) and np.all(values == 0.0)
    assert all(ex.objective(t) == 0.0 for t in diag[:20])


def test_objective_is_accurate_near_commuting_tuples():
    # a diagonal tuple plus 1e-6 times a symmetric one: the sum is about 1e-12 |B|^4
    rng = np.random.default_rng(19)
    t = np.zeros((200, 3, 5, 5))
    idx = np.arange(5)
    t[..., idx, idx] = rng.standard_normal((200, 3, 5))
    t += 1e-6 * _symmetric(rng, (200, 3, 5, 5))
    values = ex.objective(t)
    for k, tup in enumerate(t):
        expected = sum(frobenius_norm_sq(commutator(a, b)) for a in tup for b in tup)
        assert abs(values[k] - expected) <= 1e-12 * expected
        assert abs(ex.objective(tup) - expected) <= 1e-12 * expected


def test_single_matrix_search_reports_no_negative_values():
    report = ex.multistart(ex.SearchConfig(n=4, m=1, restarts=3))
    values = [o.value for o in report.per_restart] + [report.best_value]
    assert all(0.0 <= v <= 1e-15 for v in values), values


def _symmetric(rng, shape):
    a = rng.standard_normal(shape)
    return a + np.swapaxes(a, -1, -2)


def _gradient_loop(t):
    """4 sum_b [[B_g, B_b], B_b] for each B_g of one tuple, one matrix at a time."""
    return np.stack([4.0 * sum(commutator(commutator(bg, b), b) for b in t) for bg in t])


def _assert_gradient_matches_loop(mats):
    g = ex.gradient(mats)
    lead = mats.shape[:-3]
    assert g.shape == mats.shape
    for idx in np.ndindex(*lead):
        t = mats[idx]
        # the scale of the terms: the largest entry of any W_g = sum_b B_b B_g B_b
        w_max = max(np.max(np.abs(sum(b @ bg @ b for b in t))) for bg in t)
        assert np.max(np.abs(g[idx] - _gradient_loop(t))) <= 1e-13 * w_max


@pytest.mark.parametrize("m,n", [(1, 2), (1, 5), (2, 2), (5, 2), (3, 8), (8, 3), (6, 6)])
@pytest.mark.parametrize("lead", [(), (1,), (3,), (2, 3)])
def test_products_match_a_per_matrix_loop(m, n, lead):
    # the batched products of `gradient`, checked through the gradient they build
    rng = np.random.default_rng(100 * m + 10 * n + len(lead))
    _assert_gradient_matches_loop(_symmetric(rng, lead + (m, n, n)))


@pytest.mark.parametrize("m,n", [(2, 2), (3, 8), (8, 3), (6, 6)])
def test_products_of_strided_and_fortran_stacks(m, n):
    rng = np.random.default_rng(m + n)
    stack = _symmetric(rng, (6, m, n, n))
    strided = stack[::2]
    assert not strided.flags.c_contiguous
    _assert_gradient_matches_loop(strided)
    fortran = np.asfortranarray(stack)
    assert not fortran.flags.c_contiguous
    _assert_gradient_matches_loop(fortran)
    np.testing.assert_array_equal(ex.gradient(fortran), ex.gradient(stack))


@pytest.mark.parametrize("m,n", [(1, 4), (3, 3), (6, 6), (3, 8), (8, 3)])
def test_evaluate_matches_the_kernels_tuple_by_tuple(m, n):
    rng = np.random.default_rng(7 * m + n)
    x = ex.normalize(_symmetric(rng, (9, m, n, n)))
    value, g, gain = ex._evaluate(x)
    assert value.shape == gain.shape == (9,) and g.shape == x.shape
    np.testing.assert_array_equal(g, np.swapaxes(g, -1, -2))
    assert np.max(np.abs(np.einsum("raij,raij->r", g, x))) <= 1e-14
    for k, t in enumerate(x):
        assert value[k] == pytest.approx(ex.objective(t), rel=1e-14, abs=1e-15)
        rg = ex.riemannian_gradient(t)
        np.testing.assert_allclose(g[k], rg, rtol=0, atol=1e-13 * max(1.0, np.max(np.abs(rg))))
        assert gain[k] == pytest.approx(np.sum(g[k] * g[k]), rel=1e-13, abs=1e-30)


def test_gradient_norm_is_bounded_by_the_value_on_the_sphere():
    # |g|^2 <= 64 f on the unit sphere, and f <= 1 there: a step of 1e-18
    # predicts a gain below the rounding floor, so the floor rule of `ascend`
    # stops a restart before its step can shrink that far
    rng = np.random.default_rng(29)
    floor = ex.FLOOR_ULPS * np.finfo(float).eps
    for m in range(1, 13):
        for n in range(2, 13):
            # random tuples, and near-commuting ones where f and |g|^2 are small
            diag = np.zeros((4, m, n, n))
            diag[..., np.arange(n), np.arange(n)] = rng.standard_normal((4, m, n))
            x = ex.normalize(np.concatenate([
                _symmetric(rng, (8, m, n, n)), diag + 1e-6 * _symmetric(rng, (4, m, n, n))]))
            value, _, gain = ex._evaluate(x)
            assert np.all(gain <= 64.0 * value + 1e-15), (m, n)
            assert np.all(value <= 1.0 + 1e-12), (m, n)
            assert np.all(1e-18 * gain <= floor * np.maximum(1.0, value)), (m, n)
    value, _, gain = ex._evaluate(cdk_tuple()[None])
    assert value[0] == pytest.approx(1.0, abs=1e-15) and gain[0] <= 64.0 * value[0]


@pytest.mark.parametrize("field,bad", [
    ("n", 2.5), ("m", 2.0), ("restarts", 2.0), ("max_iters", 2.5), ("seed", 1.5),
    ("n", True), ("restarts", np.True_), ("seed", "1"), ("max_iters", np.float64(3.0)),
])
def test_search_config_rejects_non_integer_sizes(field, bad):
    # these used to pass: multistart then raised TypeError, and max_iters=2.5 ran 3 iterations
    with pytest.raises(ValueError, match=rf"^{field} must be an integer, got "):
        ex.SearchConfig(**{"n": 3, "m": 2, field: bad})


def test_search_config_takes_numpy_integers_as_int():
    config = ex.SearchConfig(n=np.int64(3), m=np.int32(2), restarts=np.uint8(4),
                             max_iters=np.int16(50), seed=np.int64(-5))
    assert all(type(v) is int for k, v in config.as_dict().items()
               if k in ("n", "m", "restarts", "max_iters", "seed"))
    plain = ex.SearchConfig(n=3, m=2, restarts=4, max_iters=50, seed=-5)
    assert config == plain
    assert ex.multistart(config).per_restart == ex.multistart(plain).per_restart


@pytest.mark.parametrize("m,n", [(1, 2), (1, 5), (2, 2), (3, 5), (5, 3), (6, 6), (8, 8)])
@pytest.mark.parametrize("traceless", [True, False])
def test_euler_identity_of_the_gradient(m, n, traceless):
    # F is a quartic form, so <grad F(t), t> = 4 F(t); the ascent reads its value off this
    rng = np.random.default_rng(10 * m + n + traceless)
    for scale in (1e-3, 1e-1, 1.0, 1e1, 1e3):
        t = scale * _symmetric(rng, (m, n, n))
        if traceless:
            t = traceless_project(t)
        norm4 = np.sum(t * t) ** 2
        assert abs(np.sum(ex.gradient(t) * t) - 4.0 * ex.objective(t)) <= 1e-13 * norm4
