"""Multistart projected gradient ascent for the commutator-sum objective.

Maximizes F(B_1, ..., B_m) = sum over ordered pairs of ||[B_a, B_b]||^2 on
the unit sphere of traceless symmetric tuples (sum ||B_a||^2 = 1).  The
ceiling is 1 for all (n, m) (Ge & Tang, 2008; Lu, 2011), attained on
rank-2 rotated pairs.
The restarts of a search advance together as one (R, m, n, n) stack.  Its
per-tuple inner products and squared norms are `matrix_core.inner` and
`sum_sq`, one BLAS dot per tuple, and `normalize` scales through
`matrix_core.unit_stack`.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass

import numpy as np

from .inequalities import equality_certificate
from .matrix_core import commutators_and_gram, inner, sum_sq, traceless_project, unit_stack

VIOLATION_THRESHOLD = 1.0 + 1e-6
STOP_REASONS = ("grad_tol", "line_search", "max_iters")
RUNNING, STOP_GRAD_TOL, STOP_LINE_SEARCH, STOP_MAX_ITERS = -1, 0, 1, 2  # STOP_REASONS indices
STEP_INIT = 0.1  # the first step of every restart
STEP_SHRINK = 0.5  # a rejected step is multiplied by this
GRAD_TOL = 1e-10  # stop once the Riemannian gradient norm is at most this
ARMIJO_SIGMA = 1e-4  # accept a gain of at least this times the predicted gain t |g|^2
FLOOR_ULPS = 8.0  # stop once t |g|^2 <= FLOOR_ULPS eps max(1, |f|), the rounding floor
BATCH_ENTRIES = 2**22  # entries of the block products of one batch of restarts


def _integer(name, value):
    """`value` as an int; numpy integers pass, bool and non-integers do not."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SearchConfig:
    n: int
    m: int
    restarts: int = 64
    max_iters: int = 5000
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "m", "restarts", "max_iters", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.n < 2 or self.m < 1:
            raise ValueError("need n >= 2 and m >= 1")
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be >= 1")

    def as_dict(self):
        """The settings of a search, the module's step and stop constants included."""
        return {
            "n": self.n, "m": self.m, "restarts": self.restarts,
            "max_iters": self.max_iters, "step_init": STEP_INIT,
            "step_shrink": STEP_SHRINK, "grad_tol": GRAD_TOL,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class RestartOutcome:
    value: float
    iterations: int
    stop_reason: str  # one of STOP_REASONS

    @property
    def converged(self):
        """True unless the restart ran out of iterations."""
        return self.stop_reason != "max_iters"


@dataclass(frozen=True)
class SearchReport:
    best_value: float
    best_tuple: np.ndarray
    certificate_residual: float  # of `equality_certificate` on the best tuple
    per_restart: list[RestartOutcome]
    config: SearchConfig
    wall_time: float
    violation_candidate: bool = False

    def as_dict(self):
        return {
            "best_value": self.best_value,
            "best_tuple": self.best_tuple.tolist(),
            "certificate_residual": self.certificate_residual,
            "per_restart": [
                {"value": r.value, "iterations": r.iterations,
                 "converged": r.converged, "stop_reason": r.stop_reason}
                for r in self.per_restart
            ],
            "config": self.config.as_dict(),
            "wall_time": self.wall_time,
            "violation_candidate": self.violation_candidate,
        }


def objective(t):
    """Sum over ordered pairs (a, b) of ||[B_a, B_b]||^2 of one tuple or a stack.

    The squared norm of the commutator stack of
    `matrix_core.commutators_and_gram`, the kernel of the invariants and
    the checks: a sum of squares, so it is exactly 0 on a commuting tuple
    and accurate relative to its own size.  The ascent does not call it:
    `_evaluate` reads the value off the gradient.  It and
    `riemannian_gradient` are the reference kernels that the tests compare
    `_evaluate` against.  A (..., m, n, n) stack gives an array of values,
    one tuple a float.
    """
    return sum_sq(commutators_and_gram(t)[0], 4)


def normalize(t):
    """Traceless-project and scale each tuple so its total squared norm is 1:
    `unit_stack` of `traceless_project`; ValueError if a tuple projects to 0."""
    mats = unit_stack(traceless_project(t))
    if not mats.any(axis=(-3, -2, -1)).all():
        raise ValueError("cannot normalize a zero tuple")
    return mats


def gradient(t):
    """Euclidean gradient of the objective on the traceless symmetric space.

    dF/dB_g = 4 sum_b [[B_g, B_b], B_b] = 4 (G_g + G_g^T), G_g = B_g Q - W_g,
    with Q = sum_b B_b^2 and W_g = sum_b B_b B_g B_b, all symmetric.  One
    batched GEMM, `rows` @ `cols` of shapes (R, mn, n) @ (R, n, mn), gives
    every P_gb = B_g B_b as block (g, b); with its row block g read as
    A_g[(l, b), x] = (P_gb)[l, x], and `cols` as V[(l, b), k] = (B_b)[l, k],
    A_g^T V = sum_b P_gb^T B_b = W_g.  G is assembled in the output of the
    GEMM that gives every B_g Q, then G^T is added from a contiguous copy;
    since g_ij + g_ji is g_ji + g_ij bit for bit, the result is exactly
    symmetric.  It needs no traceless projection: by cyclicity
    tr W_g = sum_b tr(B_b B_g B_b) = sum_b tr(B_g B_b^2) = tr(B_g Q), so
    tr G_g = 0 for every symmetric tuple, traceless or not.  The result is a new array.
    """
    mats = np.asarray(t, dtype=float)
    m, n = mats.shape[-3:-1]
    stack = mats.reshape(-1, m, n, n)
    rows = stack.reshape(-1, m * n, n)  # [B_1; ...; B_m]
    cols = stack.transpose(0, 2, 1, 3).reshape(-1, n, m * n)  # [B_1 | ... | B_m]
    q = cols @ rows
    # the (R, mn, mn) block products are freed once W is formed, before the B_g Q GEMM
    w = (rows @ cols).reshape(-1, m, n * m, n).swapaxes(-1, -2) @ cols.reshape(-1, 1, n * m, n)
    g = (rows @ q).reshape(mats.shape)  # [B_g Q]
    g -= w.reshape(mats.shape)
    g += np.swapaxes(g, -1, -2).copy()
    g *= 4.0
    return g


def riemannian_gradient(t):
    """Tangential component of the gradient on the unit sphere, per tuple.

    The radial part <g, x> x is removed in place from the array `gradient`
    returns; on an exactly symmetric x the result stays exactly symmetric.
    """
    mats = np.asarray(t, dtype=float)
    grad = gradient(mats)
    grad -= inner(grad, mats, 3)[..., None, None, None] * mats
    return grad


def _evaluate(mats):
    """Value, Riemannian gradient g and |g|^2 of each tuple of an (R, m, n, n) stack.

    The objective is homogeneous of degree 4, so Euler's identity
    <grad F(x), x> = 4 F(x) gives the value from the radial part <g, x>
    that the projection onto the sphere computes anyway; no separate
    `objective` contraction is made.  The projection g -= <g, x> x is that
    of `riemannian_gradient` bit for bit, and the value is clamped at 0.
    """
    g = gradient(mats)
    radial = inner(g, mats, 3)
    g -= radial[:, None, None, None] * mats
    return np.maximum(radial / 4.0, 0.0), g, sum_sq(g, 3)


def ascend(config: SearchConfig, starts):
    """Projected gradient ascent with an Armijo step from R starts (R, m, n, n).

    Every restart runs the same algorithm.  The first iteration tries
    STEP_INIT; after an accepted move s = x_new - x_old, with
    y = g_new - g_old, the next iteration first tries the Barzilai-Borwein
    step <s, s> / |<s, y>| (BB1), or the accepted step where that is not
    finite and positive.  The step shrinks by STEP_SHRINK until the
    renormalized candidate raises the value by at least
    ARMIJO_SIGMA t |g|^2, with g the Riemannian gradient.  A restart stops
    at GRAD_TOL; with `line_search` once the predicted gain t |g|^2 falls
    to the rounding floor FLOOR_ULPS eps max(1, f) of the objective; or after
    `max_iters` iterations.  Iterates stay on the sphere and the objective
    never decreases between accepted iterates.

    The restarts advance together: each pass evaluates the value and the
    Riemannian gradient of one candidate per live restart in one batched
    kernel call (`_evaluate`, which takes the value from the radial part
    of the gradient by Euler's identity), and a restart whose candidate
    was accepted starts its next iteration from that gradient in the next
    pass.  A backtracking restart therefore never holds up the others.  A
    rejected candidate is replaced by its restart's iterate, and a stopped
    restart leaves the working stack.  A candidate x + t g is symmetric and
    traceless to rounding, so it is only rescaled to the sphere, not
    projected again.

    Returns (values, tuples, outcomes): an (R,) array, an (R, m, n, n)
    array and a list of R RestartOutcomes.
    """
    x = normalize(starts)  # projects multistart's starts again: reports depend on their bits
    value, rgrad, gain = _evaluate(x)
    r = len(x)
    # the working arrays hold the running restarts only; `row` maps them back
    row = np.arange(r)
    final_value, final_x = np.empty(r), np.empty_like(x)
    final_iters, final_stop = np.empty(r, dtype=int), np.empty(r, dtype=int)
    step = np.full(r, STEP_INIT)  # the next step each restart tries
    iters = np.ones(r, dtype=int)
    stop = np.full(r, RUNNING)
    floor = FLOOR_ULPS * np.finfo(float).eps
    while True:
        # a rejected restart's gain passed this test already and passes it again
        stop[(stop == RUNNING) & (np.sqrt(gain) <= GRAD_TOL)] = STOP_GRAD_TOL
        stalled = step * gain <= floor * np.maximum(1.0, value)  # value >= 0, see `_evaluate`
        stop[(stop == RUNNING) & stalled] = STOP_LINE_SEARCH
        done = stop != RUNNING
        if done.any():  # retire the stopped restarts from the working arrays
            k = row[done]
            final_value[k], final_x[k] = value[done], x[done]
            final_iters[k], final_stop[k] = iters[done], stop[done]
            if done.all():
                break
            keep = ~done
            row, x, value, rgrad, gain = row[keep], x[keep], value[keep], rgrad[keep], gain[keep]
            step, iters, stop = step[keep], iters[keep], stop[keep]
        # x + t g stays symmetric and traceless up to rounding: rescale only
        cand = step[:, None, None, None] * rgrad
        cand += x
        cand /= np.sqrt(sum_sq(cand, 3))[:, None, None, None]  # as `unit_stack`
        cand_value, cand_rgrad, cand_gain = _evaluate(cand)
        up = cand_value >= value + ARMIJO_SIGMA * step * gain
        # BB1 step of the move: <s, s> / |<s, y>|, s = x_new - x_old, y = g_new - g_old
        s = cand - x
        with np.errstate(divide="ignore", invalid="ignore"):
            bb = sum_sq(s, 3) / np.abs(inner(s, cand_rgrad - rgrad, 3))
        step = np.where(up, np.where(np.isfinite(bb) & (bb > 0), bb, step), STEP_SHRINK * step)
        down = ~up
        if down.any():  # a rejected restart keeps its iterate
            cand[down], cand_value[down] = x[down], value[down]
            cand_rgrad[down], cand_gain[down] = rgrad[down], gain[down]
        x, value, rgrad, gain = cand, cand_value, cand_rgrad, cand_gain
        out_of_iters = iters >= config.max_iters
        stop[up & out_of_iters] = STOP_MAX_ITERS
        iters += up & ~out_of_iters  # these start a new iteration
    outcomes = [RestartOutcome(value=float(v), iterations=int(k), stop_reason=STOP_REASONS[s])
                for v, k, s in zip(final_value, final_iters, final_stop)]
    return final_value, final_x, outcomes


def _draw_starts(rng, count, config: SearchConfig):
    """The next `count` raw (m, n, n) starts of a search's stream."""
    return rng.standard_normal((count, config.m, config.n, config.n))


def multistart(config: SearchConfig) -> SearchReport:
    """Run seeded restarts of the ascent and report the best configuration,
    as the canonical tuple of `inequalities.equality_certificate`, with the
    residual of that certificate.

    Restart k starts from the k-th block of one stream per search, seeded
    from (seed, n, m) as `fuzz.run_fuzz` seeds its root, whatever the batch
    size or the number of restarts; a batch is drawn and projected in one call.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng([config.seed & (2**64 - 1), config.n, config.m])
    best_value, best_mats, outcomes = -np.inf, None, []
    # restarts are independent: batches bound the (R, mn, mn) products
    batch = max(1, BATCH_ENTRIES // (config.m * config.n) ** 2)
    for first in range(0, config.restarts, batch):
        starts = traceless_project(_draw_starts(rng, min(batch, config.restarts - first), config))
        values, xs, batch_outcomes = ascend(config, starts[sum_sq(starts, 3) > 0])
        outcomes += batch_outcomes
        for value, x in zip(values, xs):
            # ties within 1e-12 keep the earliest restart for determinism
            if value > best_value + 1e-12:
                best_value, best_mats = value, x
    best_tuple, residual = equality_certificate(best_mats)
    return SearchReport(
        best_value=float(best_value),
        best_tuple=best_tuple,
        certificate_residual=residual,
        per_restart=outcomes,
        config=config,
        wall_time=time.perf_counter() - t0,
        violation_candidate=bool(best_value > VIOLATION_THRESHOLD),
    )

