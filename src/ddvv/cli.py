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
from itertools import chain

import numpy as np

from . import __version__, curvature, inequalities, lagrangian
from .curvature import ShapeOperatorSet
from .matrix_core import AsymmetricMatrixError

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
        doc = json.loads(f.read())
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
    """The text of json.dumps(obj, indent=2) for a value nested at `indent`,
    with every numpy array taken as its tolist().

    A row of floats is one join of their reprs.  Whatever this does not
    cover (a non-str key, a subclass of a JSON type, a type that json
    rejects) goes through json itself.
    """
    leaf = _LEAVES.get(type(obj))
    if leaf is not None:
        return leaf(obj)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = None
        if isinstance(obj[0], float):  # tried first, as most lists are rows
            try:
                body = _json_floats(sep.join(map(float.__repr__, obj)))
            except TypeError:  # not floats only
                pass
        if body is None:
            body = sep.join([_json_text(x, inner) for x in obj])
        return f"[\n{inner}{body}\n{indent}]"
    if isinstance(obj, dict) and all(isinstance(k, str) for k in obj):
        if not obj:
            return "{}"
        body = sep.join([f"{_encode_str(k)}: {_json_text(v, inner)}" for k, v in obj.items()])
        return f"{{\n{inner}{body}\n{indent}}}"
    if isinstance(obj, np.ndarray):
        return _json_array(obj, indent)
    # arrays nested here go as their lists; anything else json rejects raises TypeError
    return json.dumps(obj, indent=2, default=np.ndarray.tolist).replace("\n", "\n" + indent)


def _json_array(arr, indent):
    """The text of json.dumps(arr.tolist(), indent=2) for an array nested at `indent`.

    A float64 stack of square matrices that equals its transpose bit for bit
    (a 0.0 mirrored by -0.0 does not) is written from its upper triangles,
    one repr per distinct entry; any other array goes through its rows.
    """
    if arr.dtype == np.float64 and arr.ndim >= 2 and arr.size and arr.shape[-1] == arr.shape[-2]:
        bits = arr.view(np.int64)
        if (bits == bits.swapaxes(-1, -2)).all():
            triangles, entries, template = _symmetric_layout(arr.shape, indent)
            reprs = map(float.__repr__, arr.take(triangles).tolist())
            return _json_floats(template % entries(list(reprs)))
    return _json_text(arr.tolist(), indent)


@functools.lru_cache(maxsize=32)
def _symmetric_layout(shape, indent):
    """How `_json_array` writes a symmetric stack of `shape` at `indent`.

    Returns the flat indices of the upper triangles (i <= j) of the stack's
    matrices, in order; a getter that takes the list of their reprs to the
    n^2 entries of each matrix in row order; and the text of the stack with
    a %s for every entry.
    """
    n, count = shape[-1], math.prod(shape[:-2])
    iu, ju = np.triu_indices(n)
    slot = np.empty((n, n), dtype=np.intp)  # entry (i, j) of a matrix: its triangle slot
    slot[iu, ju] = slot[ju, iu] = np.arange(iu.size)
    matrix = np.arange(count)[:, None]
    triangles = (matrix * (n * n) + iu * n + ju).ravel()
    triangles.setflags(write=False)  # shared by every call through the cache
    entries = operator.itemgetter(*(matrix * iu.size + slot.ravel()).ravel().tolist())
    template = _json_text(np.full(shape, "%s", dtype=object).tolist(), indent)
    return triangles, entries, template.replace('"%s"', "%s")


def _json_floats(text):
    """Float reprs with NaN and infinities spelled as json spells them.

    A finite float's repr never contains "n", so most text is returned as is.
    """
    return text.replace("nan", "NaN").replace("inf", "Infinity") if "n" in text else text


_encode_str = json.encoder.encode_basestring_ascii
# the JSON text of a leaf, by its exact type
_LEAVES = {
    float: lambda x: _json_floats(float.__repr__(x)),
    str: _encode_str,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def write_json(doc, path):
    """Write `doc` as json.dump(doc, f, indent=2) does, with every numpy array
    as its tolist(), plus a newline, in one write."""
    if path is None:
        return
    text = _json_text(doc) + "\n"
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


def _report_skeleton(seed=None):
    return {
        "tool_version": __version__,
        "seed": seed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _print_checks(checks, width, tail=""):
    """One line per check, then `tail`, in one write; the exit code 0 if all
    hold, else 2."""
    lines = []
    for c in checks:
        flag = "equality" if c.equality else ("ok" if c.holds else "FAIL")
        lines.append(f"{c.label:{width}s} lhs={c.lhs:+.12e} rhs={c.rhs:+.12e} [{flag}]\n")
    sys.stdout.write("".join(lines) + tail)
    return 0 if all(c.holds for c in checks) else 2


def cmd_check(args):
    try:
        s, label = read_input_document(args.input)
        # a point whose traceless parts overflow passes the reader but not this
        inv, checks = inequalities.point_checks(s, args.tol)
    except (OSError, ValueError, AsymmetricMatrixError, json.JSONDecodeError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 1
    lagr = lagrangian.lagrangian_symmetry_check(s, args.tol) if s.m == s.n else None
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
    return _print_checks(checks, 12, f"slack = {inv.slack:.12e}\n")


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
#            record from the invariants and the parameters, label of its bound)
FAMILIES = {
    "h-umbilical": (
        lambda args: (args.n, args.lam, args.mu),
        lagrangian.h_umbilical, _h_umbilical_forms, "h-umbilical-bound"),
    "minimal-c3": (
        lambda args: (args.a, args.b, args.c, args.d),
        lagrangian.minimal_lagrangian_c3, _c3_forms, "minimal-c3-bound"),
    "s3-equality": (
        lambda args: (args.a, 0.0, 0.0, 0.0),
        lambda a, b, c, d: lagrangian.s3_equality_form(a), _c3_forms, "minimal-c3-bound"),
    "ultraminimal-c4": (
        lambda args: (args.a, args.b, args.c, args.d),
        lagrangian.ultraminimal_c4_22, _c4_forms, "ultraminimal-c4-bound"),
    "eq51": (
        lambda args: (args.a, args.b, 0.0, 0.0),
        lagrangian.ultraminimal_c4_22, _c4_forms, "ultraminimal-c4-bound"),
}


def cmd_family(args):
    params, shape_set, closed_forms, label = FAMILIES[args.family]
    tol = args.tol
    try:
        p = params(args)
        s = shape_set(*p)
        inv = curvature.invariants(s)
        # rho <= |H|^2 - rho_perp + c, with the tolerance of the point's degree-2 scale
        checks = [inequalities._bound(
            inv.rho, inv.h_sq - inv.rho_perp + inv.ambient_c, tol, label,
            inequalities._point_atol(inv, s.n, tol))]
        if args.csf_c is not None and closed_forms is _c3_forms:  # the C^3 families
            csf = lagrangian.csf_invariants(s, args.csf_c)
            bound = lagrangian.csf_bound_rhs(csf.rho, args.csf_c)
            checks.append(inequalities._result(csf.rho_perp**2, bound, tol, "csf-bound"))
    except (TypeError, ValueError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 1
    report = _report_skeleton()
    report.update({
        "input": shape_set_to_document(s, label=args.family),
        "invariants": inv.as_dict(),
        "closed_forms": closed_forms(inv, *p),
        "checks": [c.as_dict() for c in checks],
    })
    write_json(report, args.output)
    return _print_checks(checks, 22)


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


def main(argv=None):
    args = build_parser().parse_args(argv)
    # a NaN or negative --tol would fail every check, and an infinite one pass it
    if not 0.0 <= getattr(args, "tol", 0.0) < np.inf:
        print(f"input error: --tol must be finite and >= 0, got {args.tol}", file=sys.stderr)
        return 1
    try:
        # a point near the float range overflows in intermediate sums; the
        # commands report such points themselves, so numpy's warnings only
        # add noise on stderr
        with np.errstate(over="ignore", invalid="ignore"):
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
