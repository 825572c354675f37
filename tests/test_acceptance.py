"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
pass/fail lines.
"""

import contextlib
import json

import numpy as np
import pytest

from ddvv import cli
from ddvv import curvature as cv
from ddvv import extremizer as ex
from ddvv import fuzz
from ddvv import inequalities as ineq
from ddvv import lagrangian as lg
from ddvv.curvature import ShapeOperatorSet
from ddvv.fuzz import run_fuzz


@contextlib.contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"CRITERION {num:2d} FAIL: {desc}")
        raise
    print(f"CRITERION {num:2d} PASS: {desc}")


def rel_err(x, y):
    return abs(x - y) / max(1.0, abs(x), abs(y))


def embedded_cdk(n):
    b1 = np.zeros((n, n))
    b2 = np.zeros((n, n))
    b1[0, 1] = b1[1, 0] = 0.5
    b2[0, 0], b2[1, 1] = 0.5, -0.5
    return np.stack([b1, b2])


def unit_shape_set(rng, n, m):
    g = rng.standard_normal((m, n, n))
    ops = (g + np.transpose(g, (0, 2, 1))) / 2
    ops /= np.sqrt(np.sum(ops * ops))
    return ShapeOperatorSet(ops, ambient_c=float(rng.uniform(-1, 1)))


def test_criterion_01_cdk_equality():
    with criterion(1, "equality of both sides at the rank-2 pair, any n"):
        for n in range(2, 8):
            r = ineq.ddvv_check(embedded_cdk(n))
            assert abs(r.lhs - 1.0) <= 1e-12
            assert abs(r.rhs - 1.0) <= 1e-12
            assert r.equality


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 3)])
def test_criterion_02_extremizer_ceiling(n, m):
    with criterion(2, f"multistart ceiling 1 at (n, m) = ({n}, {m})"):
        config = ex.SearchConfig(n=n, m=m, restarts=64, max_iters=5000, seed=2024)
        report = ex.multistart(config)
        assert 1.0 - 1e-6 <= report.best_value <= 1.0 + 1e-9
        assert ineq.equality_certificate(report.best_tuple)[1] <= 1e-6


def test_criterion_03_theorem_fuzzing():
    with criterion(3, "proved bounds never fail over 10^4 random configs"):
        rng = np.random.default_rng(314159)
        count = 0
        while count < 10_000:
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, 7))
            s = unit_shape_set(rng, n, m)
            checks = [ineq.chen_check(s), *ineq.weak_checks(s),
                      ineq.lili_check(s.ops)]
            if m >= 2:
                i, j = rng.choice(m, size=2, replace=False)
                checks.append(ineq.cdk_check(s.ops[i], s.ops[j]))
            for r in checks:
                assert r.rhs - r.lhs >= -1e-9, r.label
            count += 1


def test_criterion_04_weak_constants():
    with criterion(4, "weakened-bound constants and the image-dimension identity"):
        assert ineq.weak_constant_m(2) == 1.0
        assert abs(ineq.weak_constant_m(3) - np.sqrt(5.0 / 6.0)) <= 1e-15
        for n in range(2, 11):
            m_eff = n * (n + 1) // 2 - 1
            assert abs(ineq.weak_constant_n(n)
                       - ineq.weak_constant_m(m_eff)) <= 1e-15


def test_criterion_05_dual_route_and_invariance_suite():
    with criterion(5, "dual-route agreement and invariances over 10^3 configs"):
        assert fuzz.REL_TOL == 1e-10  # the relative tolerance of every property
        total = 0
        for n in range(2, 7):
            for m in range(1, 7):
                summary = run_fuzz(n, m, 40, seed=271828)
                assert summary.hard_failures == 0
                total += summary.samples
        assert total >= 1000


def test_criterion_06_h_umbilical_closed_forms():
    with criterion(6, "closed forms of the two-parameter umbilical family"):
        lhs, rhs, quartic = lg.h_umbilical_closed(3, 3.0, 1.0)
        assert lhs == pytest.approx(36.0, abs=1e-12)
        assert rhs == pytest.approx(400.0 / 9.0, abs=1e-12)
        assert quartic == pytest.approx(38.0 / 9.0, abs=1e-12)
        rng = np.random.default_rng(161803)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            lam, mu = rng.uniform(-3, 3, size=2)
            lhs, rhs, quartic = lg.h_umbilical_closed(n, lam, mu)
            mats = cv.traceless_parts(lg.h_umbilical(n, lam, mu))
            oracle_lhs = sum(
                2.0 * np.sum(np.square(mats[a] @ mats[b] - mats[b] @ mats[a]))
                for a in range(n) for b in range(a + 1, n))
            oracle_rhs = float(np.sum(mats * mats)) ** 2
            assert rel_err(lhs, oracle_lhs) <= 1e-10
            assert rel_err(rhs, oracle_rhs) <= 1e-10
            assert quartic >= -1e-12


def test_criterion_07_c3_family():
    with criterion(7, "cubic-dimension minimal family closed forms and bound"):
        rng = np.random.default_rng(662607)
        for _ in range(1000):
            p = rng.uniform(-2, 2, size=4)
            three_rho, nine_rp_sq = lg.c3_closed(*p)
            inv = cv.invariants(lg.minimal_lagrangian_c3(*p))
            assert rel_err(three_rho, 3 * inv.rho) <= 1e-10
            assert rel_err(nine_rp_sq, 9 * inv.rho_perp**2) <= 1e-10
            assert nine_rp_sq <= 9 * inv.rho**2 + 1e-9 * max(1.0, inv.rho**2)
            assert inv.rho <= 1e-12
        for _ in range(300):
            raw = rng.uniform(-2, 2, size=4)
            raw /= np.linalg.norm(raw)
            a, b, c, d = raw
            inv = cv.invariants(lg.minimal_lagrangian_c3(a, b, c, d))
            equality = abs(inv.rho + inv.rho_perp) <= 1e-9
            structural = (abs(c) <= 1e-9 and abs(d) <= 1e-9
                          and abs(a * b) <= 1e-9)
            assert equality == structural
        for a in (0.0, 1.0, -1.7):
            assert abs(cv.invariants(lg.s3_equality_form(a)).slack) <= 1e-12


def test_criterion_08_c4_family():
    with criterion(8, "block family closed forms, spot values and equality"):
        rng = np.random.default_rng(137035)
        for _ in range(1000):
            p = rng.uniform(-2, 2, size=4)
            six_rho, thirtysix = lg.c4_closed(*p)
            inv = cv.invariants(lg.ultraminimal_c4_22(*p))
            assert rel_err(six_rho, 6 * inv.rho) <= 1e-10
            assert rel_err(thirtysix, 36 * inv.rho_perp**2) <= 1e-10
        assert lg.c4_closed(1, 1, 0, 0) == (-4.0, 16.0)
        inv = cv.invariants(lg.ultraminimal_c4_22(1, 1, 0, 0))
        assert abs(inv.rho + inv.rho_perp) <= 1e-12
        assert lg.c4_closed(1, 0, 1, 0) == (-4.0, 8.0)
        inv = cv.invariants(lg.ultraminimal_c4_22(1, 0, 1, 0))
        assert inv.rho < -inv.rho_perp - 1e-6
        for a, b in ((1.0, 0.0), (0.4, -1.1)):
            assert abs(cv.invariants(lg.eq_5_1_form(a, b)).slack) <= 1e-12


def test_criterion_09_complex_space_form():
    with criterion(9, "ambient holomorphic-curvature variant of the invariants"):
        rng = np.random.default_rng(602214)
        for _ in range(200):
            s = lg.minimal_lagrangian_c3(*rng.standard_normal(4))
            flat = cv.invariants(s)
            csf = lg.csf_invariants(s, 0.0)
            assert abs(csf.rho - flat.rho) <= 1e-14
            assert abs(csf.rho_perp - flat.rho_perp) <= 1e-14
        csf = lg.csf_invariants(ShapeOperatorSet(np.zeros((3, 3, 3))), 1.0)
        assert abs(csf.rho_perp**2 - 1.0 / 3.0) <= 1e-12
        assert abs(lg.csf_bound_rhs(csf.rho, 1.0) - 1.0 / 3.0) <= 1e-12
        for _ in range(1000):
            p = rng.uniform(-2, 2, size=4)
            c = float(rng.uniform(-2, 2))
            csf = lg.csf_invariants(lg.minimal_lagrangian_c3(*p), c)
            bound = lg.csf_bound_rhs(csf.rho, c)
            assert csf.rho_perp**2 <= bound + 1e-9 * max(1.0, abs(bound))


def test_criterion_10_gradient_correctness():
    with criterion(10, "analytic gradient vs central differences, critical point"):
        h = 1e-5
        rng = np.random.default_rng(299792)
        for trial in range(100):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(2, 5))
            g0 = rng.standard_normal((m, n, n))
            t = ex.normalize((g0 + np.transpose(g0, (0, 2, 1))) / 2)
            grad = ex.gradient(t)
            fd = np.zeros_like(t)
            for a in range(m):
                for i in range(n):
                    for j in range(n):
                        e = np.zeros_like(t)
                        e[a, i, j] = h
                        fd[a, i, j] = (ex.objective(t + e)
                                       - ex.objective(t - e)) / (2 * h)
            fd = (fd + np.transpose(fd, (0, 2, 1))) / 2
            fd -= np.trace(fd, axis1=1, axis2=2)[:, None, None] * np.eye(n) / n
            scale = max(1.0, float(np.max(np.abs(grad))))
            assert np.max(np.abs(grad - fd)) / scale < 1e-6
        cdk = embedded_cdk(2)
        rg = ex.riemannian_gradient(cdk)
        assert np.sqrt(np.sum(rg * rg)) < 1e-8


def test_criterion_11_search_determinism(tmp_path):
    with criterion(11, "byte-identical search reports for a fixed seed"):
        argv = ["search", "--n", "3", "--m", "2", "--restarts", "16",
                "--iters", "5000", "--seed", "90210"]
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert cli.main(argv + ["--output", str(out1)]) == 0
        assert cli.main(argv + ["--output", str(out2)]) == 0
        d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
        assert (json.dumps(d1["best_value"]).encode()
                == json.dumps(d2["best_value"]).encode())
        assert (json.dumps(d1["best_tuple"]).encode()
                == json.dumps(d2["best_tuple"]).encode())
