"""Command-line interface: check, search, family and fuzz subcommands.

Input and report documents are JSON (UTF-8, snake_case fields); exit codes
are the machine contract: 0 success, 1 input error, 2 failed checks,
3 violation candidate from the search.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

import numpy as np

from . import __version__, curvature, extremizer, inequalities, lagrangian
from .curvature import ShapeOperatorSet
from .fuzz import run_fuzz
from .matrix_core import AsymmetricMatrixError, commutators_and_gram


def read_input_document(path):
    """Parse an input JSON document into a ShapeOperatorSet plus label."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    try:
        n = int(doc["n"])
        m = int(doc["m"])
        mats = doc["shape_operators"]
        c = float(doc.get("ambient_c", 0.0))
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"malformed input document: {e}") from e
    arr = np.asarray(mats, dtype=float)
    if arr.shape != (m, n, n):
        raise ValueError(
            f"shape_operators has shape {arr.shape}, expected ({m}, {n}, {n})")
    return ShapeOperatorSet(arr, ambient_c=c), doc.get("label")


def shape_set_to_document(s, label=None):
    doc = {
        "n": s.n,
        "m": s.m,
        "ambient_c": s.ambient_c,
        "shape_operators": s.ops.tolist(),
    }
    if label is not None:
        doc["label"] = label
    return doc


def write_json(doc, path):
    if path is None:
        return
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def write_csv(checks, path):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["label", "lhs", "rhs", "holds", "equality"])
        for c in checks:
            writer.writerow([c.label, repr(c.lhs), repr(c.rhs),
                             c.holds, c.equality])


def _report_skeleton(seed=None):
    return {
        "tool_version": __version__,
        "seed": seed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def cmd_check(args):
    try:
        s, label = read_input_document(args.input)
    except (OSError, ValueError, AsymmetricMatrixError, json.JSONDecodeError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 1
    tol = args.tol
    inv = curvature.invariants(s)
    checks = [
        inequalities.ddvv_check(curvature.traceless_parts(s), tol),
        inequalities.chen_check(s, tol),
        *inequalities.weak_checks(s, tol),
        inequalities.lili_check(s.ops, tol),
    ]
    lagr = None
    if s.m == s.n:
        lagr = lagrangian.lagrangian_symmetry_check(s, tol)
    report = _report_skeleton()
    report.update({
        "input": shape_set_to_document(s, label),
        "invariants": inv.as_dict(),
        "checks": [c.as_dict() for c in checks],
        "lagrangian_symmetry": lagr,
    })
    write_json(report, args.output)
    if args.csv:
        write_csv(checks, args.csv)
    for c in checks:
        flag = "equality" if c.equality else ("ok" if c.holds else "FAIL")
        print(f"{c.label:12s} lhs={c.lhs:+.12e} rhs={c.rhs:+.12e} [{flag}]")
    print(f"slack = {inv.slack:.12e}")
    return 0 if all(c.holds for c in checks) else 2


def cmd_search(args):
    try:
        config = extremizer.SearchConfig(
            n=args.n, m=args.m, restarts=args.restarts,
            max_iters=args.iters, seed=args.seed)
    except ValueError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 1
    report = extremizer.multistart(config)
    doc = _report_skeleton(seed=args.seed)
    doc.update(report.as_dict())
    write_json(doc, args.output)
    print(f"best_value = {report.best_value!r}")
    if report.violation_candidate:
        print("violation candidate found: best value exceeds the known ceiling",
              file=sys.stderr)
        return 3
    return 0


def _family_report(args):
    """Build (shape set, closed-form records, family check results)."""
    name = args.family
    tol = args.tol
    checks = []
    closed = {}
    if name == "h-umbilical":
        p = lagrangian.HUmbilicalParams(n=args.n, lam=args.lam, mu=args.mu)
        s = lagrangian.h_umbilical(p)
        lhs, rhs, quartic = lagrangian.h_umbilical_closed(p)
        comm, gram = commutators_and_gram(curvature.traceless_parts(s).mats)
        oracle_lhs = float(np.vdot(comm, comm))
        oracle_rhs = float(np.trace(gram)) ** 2
        closed = {"lhs": lhs, "rhs": rhs, "quartic": quartic,
                  "oracle_lhs": oracle_lhs, "oracle_rhs": oracle_rhs}
        inv = curvature.invariants(s)
        checks.append(inequalities.CheckResult(
            lhs=inv.rho, rhs=inv.h_sq - inv.rho_perp,
            holds=inv.slack >= -tol, equality=abs(inv.slack) <= tol,
            tol=tol, label="h-umbilical-bound"))
    elif name in ("minimal-c3", "s3-equality"):
        if name == "minimal-c3":
            p = lagrangian.C3Params(a=args.a, b=args.b, c=args.c, d=args.d)
            s = lagrangian.minimal_lagrangian_c3(p)
        else:
            p = lagrangian.C3Params(a=args.a, b=0.0, c=0.0, d=0.0)
            s = lagrangian.s3_equality_form(args.a)
        three_rho, nine_rp_sq = lagrangian.c3_closed(p)
        inv = curvature.invariants(s)
        closed = {"three_rho": three_rho, "nine_rho_perp_sq": nine_rp_sq,
                  "oracle_rho": inv.rho, "oracle_rho_perp": inv.rho_perp}
        checks.append(inequalities.CheckResult(
            lhs=inv.rho, rhs=-inv.rho_perp,
            holds=inv.rho <= -inv.rho_perp + tol,
            equality=abs(inv.rho + inv.rho_perp) <= tol,
            tol=tol, label="minimal-c3-bound"))
        if args.csf_c is not None:
            csf = lagrangian.csf_invariants(s, args.csf_c)
            bound = lagrangian.csf_bound_rhs(csf.rho, args.csf_c)
            checks.append(inequalities.CheckResult(
                lhs=csf.rho_perp**2, rhs=bound,
                holds=csf.rho_perp**2 <= bound + tol,
                equality=abs(csf.rho_perp**2 - bound) <= tol * max(1.0, abs(bound)),
                tol=tol, label="csf-bound"))
    elif name in ("ultraminimal-c4", "eq51"):
        if name == "ultraminimal-c4":
            p = lagrangian.C4BlockParams(a=args.a, b=args.b, c=args.c, d=args.d)
        else:
            p = lagrangian.C4BlockParams(a=args.a, b=args.b, c=0.0, d=0.0)
        s = lagrangian.ultraminimal_c4_22(p)
        six_rho, thirtysix = lagrangian.c4_closed(p)
        inv = curvature.invariants(s)
        closed = {"six_rho": six_rho, "thirtysix_rho_perp_sq": thirtysix,
                  "oracle_rho": inv.rho, "oracle_rho_perp": inv.rho_perp}
        checks.append(inequalities.CheckResult(
            lhs=inv.rho, rhs=-inv.rho_perp,
            holds=inv.rho <= -inv.rho_perp + tol,
            equality=abs(inv.rho + inv.rho_perp) <= tol,
            tol=tol, label="ultraminimal-c4-bound"))
    else:
        raise ValueError(f"unknown family {name!r}")
    return s, closed, checks


def cmd_family(args):
    try:
        s, closed, checks = _family_report(args)
    except (TypeError, ValueError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 1
    inv = curvature.invariants(s)
    report = _report_skeleton()
    report.update({
        "input": shape_set_to_document(s, label=args.family),
        "invariants": inv.as_dict(),
        "closed_forms": closed,
        "checks": [c.as_dict() for c in checks],
    })
    write_json(report, args.output)
    for c in checks:
        flag = "equality" if c.equality else ("ok" if c.holds else "FAIL")
        print(f"{c.label:22s} lhs={c.lhs:+.12e} rhs={c.rhs:+.12e} [{flag}]")
    return 0 if all(c.holds for c in checks) else 2


def cmd_fuzz(args):
    try:
        summary = run_fuzz(args.n, args.m, args.samples, args.seed, tol=args.tol)
    except ValueError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 1
    print(f"samples: {summary.samples}")
    print(f"hard failures: {summary.hard_failures}")
    if summary.failure_labels:
        print("failing properties: " + ", ".join(summary.failure_labels))
    return 0 if summary.hard_failures == 0 else 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ddvv",
        description="Curvature-inequality checks and extremal search for "
                    "shape-operator configurations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="check one input document")
    p_check.add_argument("--input", required=True)
    p_check.add_argument("--output")
    p_check.add_argument("--csv")
    p_check.add_argument("--tol", type=float, default=inequalities.DEFAULT_TOL)
    p_check.set_defaults(func=cmd_check)

    p_search = sub.add_parser("search", help="multistart extremal search")
    p_search.add_argument("--n", type=int, required=True)
    p_search.add_argument("--m", type=int, required=True)
    p_search.add_argument("--restarts", type=int, default=64)
    p_search.add_argument("--iters", type=int, default=5000)
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--output")
    p_search.set_defaults(func=cmd_search)

    p_family = sub.add_parser("family", help="evaluate a closed-form family")
    p_family.add_argument("family", choices=[
        "h-umbilical", "minimal-c3", "s3-equality", "ultraminimal-c4", "eq51"])
    p_family.add_argument("--n", type=int, default=3)
    p_family.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p_family.add_argument("--mu", type=float, default=0.0)
    p_family.add_argument("--a", type=float, default=0.0)
    p_family.add_argument("--b", type=float, default=0.0)
    p_family.add_argument("--c", type=float, default=0.0)
    p_family.add_argument("--d", type=float, default=0.0)
    p_family.add_argument("--csf-c", dest="csf_c", type=float, default=None)
    p_family.add_argument("--tol", type=float, default=inequalities.DEFAULT_TOL)
    p_family.add_argument("--output")
    p_family.set_defaults(func=cmd_family)

    p_fuzz = sub.add_parser("fuzz", help="run the random property suite")
    p_fuzz.add_argument("--n", type=int, required=True)
    p_fuzz.add_argument("--m", type=int, required=True)
    p_fuzz.add_argument("--samples", type=int, default=1000)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--tol", type=float, default=inequalities.DEFAULT_TOL)
    p_fuzz.set_defaults(func=cmd_fuzz)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
