"""Command-line interface: check, search, family and fuzz subcommands.

Input and report documents are JSON (UTF-8, snake_case fields); exit codes
are the machine contract: 0 success, 1 input error, 2 failed checks,
3 violation candidate from the search.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import re
import sys
import time
from collections import namedtuple
from itertools import chain

import numpy as np

from . import __version__, curvature, inequalities, lagrangian
from .curvature import ShapeOperatorSet

# extremizer, fuzz and csv are imported by the commands that use them, so
# that a `check` loads none of them


_NUMBER = {int, float}  # the types json gives a number


def read_input_document(path):
    """Parse an input JSON document into a ShapeOperatorSet plus label.

    n and m must be JSON integers, and ambient_c and every operator entry
    JSON numbers: a string, a boolean or null is malformed, though Python
    or numpy would convert it.
    """
    with open(path, "rb", buffering=0) as f:  # read whole, so no buffer is needed
        text = f.read()
    try:
        doc = json.loads(text)
    except RecursionError as e:  # nested deeper than the interpreter's recursion limit
        raise ValueError(f"malformed input document: {e}") from e
    try:
        n, m, mats = doc["n"], doc["m"], doc["shape_operators"]
        c = doc.get("ambient_c", 0.0)
        if type(n) is not int or type(m) is not int:
            raise TypeError(f"n and m must be integers, got {n!r} and {m!r}")
        if type(c) not in _NUMBER:
            raise TypeError(f"ambient_c must be a number, got {c!r}")
        arr = np.asarray(mats, dtype=float)
        c = float(c)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ValueError(f"malformed input document: {e}") from e
    if arr.shape != (m, n, n):
        raise ValueError(
            f"shape_operators has shape {arr.shape}, expected ({m}, {n}, {n})")
    # the shape says that mats nests three lists deep; the types of its
    # entries are read off directly, as numpy converts "0.5", true and null
    if not set(map(type, chain.from_iterable(chain.from_iterable(mats)))) <= _NUMBER:
        raise ValueError("malformed input document: shape_operators entries must be numbers")
    return ShapeOperatorSet(arr, ambient_c=c), doc.get("label")


def shape_set_to_document(s, label=None):
    """The input document of `s`, with the operators as their float64 array,
    which `write_json` writes as its lists."""
    doc = {
        "n": s.n,
        "m": s.m,
        "ambient_c": s.ambient_c,
        "shape_operators": s.ops,
    }
    if label is not None:
        doc["label"] = label
    return doc


def _json_text(obj, indent=""):
    """json.dumps(obj, indent=2), with every numpy array as its tolist(), for
    a value nested at `indent`."""
    return json.dumps(obj, indent=2, default=np.ndarray.tolist).replace("\n", "\n" + indent)


def _json_float(x):
    """The JSON text of a float: its repr, with NaN and infinities spelled as
    json spells them.  A finite float's repr never contains "n"."""
    text = float.__repr__(x)
    return text.replace("nan", "NaN").replace("inf", "Infinity") if "n" in text else text


_encode_str = json.encoder.encode_basestring_ascii
_BOOL_TEXT = {True: "true", False: "false"}

# the `check` report of a point: the shape set and label read, its invariants,
# its checks and its Lagrangian symmetry (None unless m == n)
_CheckReport = namedtuple("_CheckReport", "s label inv checks lagr")
_INPUT_INDENT = "    "  # of the members of a report's "input" block
_INVARIANTS = operator.attrgetter(*curvature._REPORT_FIELDS)


@functools.lru_cache(maxsize=64)
def _check_layout(n, m, labelled, count):
    """The text of a `check` report on a point of m operators n x n, with
    `count` checks, and a %s for each leaf that varies between points (the
    Lagrangian symmetry has one where m == n); with how to fill the echo of
    the operators.

    The text is `_json_text` of a report whose leaves are such slots, so
    every other character is what the dict report has.  The echo has one
    slot per entry, in row order; a label, any JSON value, has one slot for
    its whole text.  Returned with the text: the flat indices of the upper
    triangles (i <= j) of the operators, in order, and a getter that takes
    the list of their reprs to the n^2 entries of each operator in row order.
    """
    slot = "%s"
    echo = {"n": n, "m": m, "ambient_c": slot,
            "shape_operators": np.full((m, n, n), slot, dtype=object)}
    if labelled:
        echo["label"] = slot
    check = dict.fromkeys(("label", "lhs", "rhs", "holds", "equality", "tol"), slot)
    report = {
        "tool_version": __version__, "seed": None, "timestamp": slot,
        "input": echo,
        "invariants": dict.fromkeys(curvature._REPORT_FIELDS, slot),
        "checks": [check] * count,
        "lagrangian_symmetry": slot if m == n else None,
    }
    text = _json_text(report).replace("%", "%%").replace('"%%s"', "%s")
    iu, ju = np.triu_indices(n)
    entry = np.empty((n, n), dtype=np.intp)  # entry (i, j) of an operator: its triangle slot
    entry[iu, ju] = entry[ju, iu] = np.arange(iu.size)
    a = np.arange(m)[:, None]
    triangles = (a * (n * n) + iu * n + ju).ravel()
    triangles.setflags(write=False)  # shared by every call through the cache
    entries = operator.itemgetter(*(a * iu.size + entry.ravel()).ravel().tolist())
    return text, triangles, entries


def _check_report_text(report):
    """The text of the dict report of `check` (`_json_text` of it), filled
    into the layout of its shape in one %."""
    s, label, inv, checks, lagr = report
    layout, triangles, entries = _check_layout(s.n, s.m, label is not None, len(checks))
    # the operators are validated, so finite and bitwise symmetric: the echo
    # formats each entry of their upper triangles once
    echo = entries(list(map(float.__repr__, s.ops.take(triangles).tolist())))
    cells = [_encode_str(_timestamp()), _json_float(s.ambient_c), *echo]
    if label is not None:
        cells.append(_json_text(label, _INPUT_INDENT))
    cells += map(_json_float, _INVARIANTS(inv))
    for c in checks:
        cells += (_encode_str(c.label), _json_float(c.lhs), _json_float(c.rhs),
                  _BOOL_TEXT[c.holds], _BOOL_TEXT[c.equality], _json_float(c.tol))
    if lagr is not None:
        cells.append(_BOOL_TEXT[lagr])
    return layout % tuple(cells)


def write_json(doc, path):
    """Write `doc` as json.dump(doc, f, indent=2) does, with every numpy array
    as its tolist(), plus a newline, in one write.

    A `_CheckReport` is written as its dict report, from the cached layout
    of its shape.
    """
    if path is None:
        return
    text = (_check_report_text(doc) if type(doc) is _CheckReport else _json_text(doc)) + "\n"
    with open(path, "wb") as f:  # the text is ASCII, as json's is
        f.write(text.encode())


def write_csv(checks, path):
    import csv

    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["label", "lhs", "rhs", "holds", "equality"])
        for c in checks:
            writer.writerow([c.label, repr(c.lhs), repr(c.rhs),
                             c.holds, c.equality])


def _timestamp():
    return time.strftime("%Y-%m-%dT%H:%M:%S%z")


def _report_skeleton(seed=None):
    return {
        "tool_version": __version__,
        "seed": seed,
        "timestamp": _timestamp(),
    }


def _print_checks(checks, tail=""):
    """One line per check, then `tail`, in one write; the exit code 0 if all
    hold, else 2."""
    lines = []
    for c in checks:
        flag = "equality" if c.equality else ("ok" if c.holds else "FAIL")
        lines.append(f"{c.label:12s} lhs={c.lhs:+.12e} rhs={c.rhs:+.12e} [{flag}]\n")
    sys.stdout.write("".join(lines) + tail)
    return 0 if all(c.holds for c in checks) else 2


def cmd_check(args):
    try:
        s, label = read_input_document(args.input)
        # a point whose traceless parts overflow passes the reader but not this
        inv, checks = inequalities.point_checks(s, args.tol)
    except (OSError, ValueError) as e:  # AsymmetricMatrixError and JSONDecodeError among them
        print(f"input error: {e}", file=sys.stderr)
        return 1
    lagr = lagrangian.lagrangian_symmetry_check(s, args.tol) if s.m == s.n else None
    write_json(_CheckReport(s, label, inv, checks, lagr), args.output)
    if args.csv:
        write_csv(checks, args.csv)
    return _print_checks(checks, f"slack = {inv.slack:.12e}\n")


def cmd_search(args):
    from . import extremizer

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


def _h_umbilical_forms(inv, n, lam, mu):
    lhs, rhs, quartic = lagrangian.h_umbilical_closed(n, lam, mu)
    # the oracles are the commutator sum and |b|^4 of the traceless parts
    return {"lhs": lhs, "rhs": rhs, "quartic": quartic,
            "oracle_lhs": (n * (n - 1) * inv.rho_perp) ** 2, "oracle_rhs": inv.b_sq**2}


def _c3_forms(inv, *p):
    three_rho, nine_rp_sq = lagrangian.c3_closed(*p)
    return {"three_rho": three_rho, "nine_rho_perp_sq": nine_rp_sq,
            "oracle_rho": inv.rho, "oracle_rho_perp": inv.rho_perp}


def _c4_forms(inv, *p):
    six_rho, thirtysix = lagrangian.c4_closed(*p)
    return {"six_rho": six_rho, "thirtysix_rho_perp_sq": thirtysix,
            "oracle_rho": inv.rho, "oracle_rho_perp": inv.rho_perp}


# family -> (parameter tuple from args, shape set from the parameters, closed-form
#            record from the invariants and the parameters)
FAMILIES = {
    "h-umbilical": (
        lambda args: (args.n, args.lam, args.mu),
        lagrangian.h_umbilical, _h_umbilical_forms),
    "minimal-c3": (
        lambda args: (args.a, args.b, args.c, args.d),
        lagrangian.minimal_lagrangian_c3, _c3_forms),
    "s3-equality": (
        lambda args: (args.a, 0.0, 0.0, 0.0),
        lambda a, b, c, d: lagrangian.s3_equality_form(a), _c3_forms),
    "ultraminimal-c4": (
        lambda args: (args.a, args.b, args.c, args.d),
        lagrangian.ultraminimal_c4_22, _c4_forms),
    "eq51": (
        lambda args: (args.a, args.b, 0.0, 0.0),
        lagrangian.ultraminimal_c4_22, _c4_forms),
}


def cmd_family(args):
    params, shape_set, closed_forms = FAMILIES[args.family]
    tol = args.tol
    try:
        if args.csf_c is not None and closed_forms is not _c3_forms:
            raise ValueError(f"--csf-c applies to minimal-c3 and s3-equality, not to {args.family}")
        p = params(args)
        s = shape_set(*p)
        # the check bundle of `ddvv check`: the family's DDVV bound is its ddvv check
        inv, checks = inequalities.point_checks(s, tol)
        if args.csf_c is not None:
            checks.append(lagrangian.csf_check(s, args.csf_c, tol))
        forms = closed_forms(inv, *p)
        # past the float range a check decides on infinities: no report is written
        sides = chain.from_iterable((c.lhs, c.rhs) for c in checks)  # infinite at --csf-c 1e300
        if not all(map(math.isfinite, chain(_INVARIANTS(inv), forms.values(), sides))):
            raise OverflowError("an invariant, a closed form or a check side is not finite")
    except (TypeError, ValueError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 1
    except OverflowError as e:  # also a Python float ** in a closed form, as at minimal-c3 --a 1e160
        print(f"input error: closed form outside the float range: {e}", file=sys.stderr)
        return 1
    report = _report_skeleton()
    report.update({
        "input": shape_set_to_document(s, label=args.family),
        "invariants": inv.as_dict(),
        "closed_forms": forms,
        "checks": [c.as_dict() for c in checks],
    })
    write_json(report, args.output)
    return _print_checks(checks)


def cmd_fuzz(args):
    from .fuzz import run_fuzz

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


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the input-error code; 2 means a check failed.

    `build_parser` sets `commands` of the top-level parser to its
    subcommand parsers by name.

    A negative number in scientific notation, such as `--b -2e-1`, is read
    as a value, not as an option: before Python 3.13 argparse only knew
    plain negative integers and decimals.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser():
    parser = _Parser(
        prog="ddvv",
        description="Curvature-inequality checks and extremal search for "
                    "shape-operator configurations.")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p_check = sub.add_parser("check", help="check one input document")
    p_check.add_argument("--input", required=True)
    p_check.add_argument("--output")
    p_check.add_argument("--csv")
    p_check.add_argument("--tol", type=float, default=inequalities.DEFAULT_TOL)

    p_search = sub.add_parser("search", help="multistart extremal search")
    p_search.add_argument("--n", type=int, required=True)
    p_search.add_argument("--m", type=int, required=True)
    p_search.add_argument("--restarts", type=int, default=64)
    p_search.add_argument("--iters", type=int, default=5000)
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--output")

    p_family = sub.add_parser("family", help="evaluate a closed-form family")
    p_family.add_argument("family", choices=list(FAMILIES))
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

    p_fuzz = sub.add_parser("fuzz", help="run the random property suite")
    p_fuzz.add_argument("--n", type=int, required=True)
    p_fuzz.add_argument("--m", type=int, required=True)
    p_fuzz.add_argument("--samples", type=int, default=1000)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--tol", type=float, default=inequalities.DEFAULT_TOL)
    return parser


def _parse_args(argv):
    """build_parser().parse_args(argv), parsing the arguments of a named
    subcommand with that subcommand's parser alone."""
    parser = build_parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:  # no subcommand named: the top-level usage, help or error
        return parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None):
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    # a NaN or negative --tol would fail every check, and an infinite one pass it
    if not 0.0 <= getattr(args, "tol", 0.0) < np.inf:
        print(f"input error: --tol must be finite and >= 0, got {args.tol}", file=sys.stderr)
        return 1
    try:
        # looked up at call time, so a replaced cmd_* module attribute is the one called
        return globals()[f"cmd_{args.command}"](args)
    except OSError as e:  # each command reports an unreadable input itself
        print(f"output error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:  # arrays too large for the available memory, as at --n 100000
        print(f"input error: out of memory: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
