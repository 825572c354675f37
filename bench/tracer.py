"""Spans around the public functions of the ddvv modules.

The tracer wraps functions from outside the program by patching module
attributes: every module attribute that holds the original function is
replaced, so a name that another ddvv module imported with
``from ... import`` is traced too.  Spans (name, start, end, parent id) are
kept in memory and written out at the end of a run; self times are
derived from them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter, defaultdict

# Layer boundaries that are timed, as "<module>.<function>" of ddvv.
TRACED = (
    "cli.main", "cli.cmd_check", "cli.read_input_document", "cli.write_json",
    "matrix_core.as_symmetric", "matrix_core.random_orthogonal",
    "curvature.invariants", "curvature.traceless_parts",
    "curvature.rho_direct", "curvature.rho_perp_direct",
    "inequalities.ddvv_check", "inequalities.chen_check",
    "inequalities.weak_checks", "inequalities.lili_check",
    "inequalities.cdk_check",
    "lagrangian.lagrangian_symmetry_check",
    "extremizer.multistart", "extremizer.ascend", "extremizer.objective",
    "extremizer.gradient", "extremizer.normalize",
    "fuzz.run_fuzz",
)
CHECKS = ("inequalities.ddvv_check", "inequalities.chen_check",
          "inequalities.weak_checks", "inequalities.lili_check",
          "inequalities.cdk_check")


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.missing = []  # names in TRACED that the program does not have
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent)

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Replace every reference to a traced function in ddvv's modules."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "ddvv" or name.startswith("ddvv.")}
        saved = []
        for qualname in TRACED:
            mod_name, attr = qualname.split(".")
            # a function the program no longer has cannot be traced; the run
            # reports it and is marked incorrect, as its metrics would read 0
            original = getattr(modules.get("ddvv." + mod_name), attr, None)
            if original is None:
                self.missing.append(qualname)
                continue
            wrapper = self.wrap(qualname, original)
            for mod in modules.values():
                for key in [k for k, v in vars(mod).items() if v is original]:
                    saved.append((mod, key, original))
                    setattr(mod, key, wrapper)
        try:
            yield self
        finally:
            for mod, key, original in reversed(saved):
                setattr(mod, key, original)

    def write(self, path):
        """Write the spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({"id": sid, "name": name, "start": start - t0,
                                    "end": end - t0, "parent": parent}) + "\n")


def summarize(spans):
    """Calls, inclusive seconds and self seconds per span name."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, incl, self_s = Counter(), defaultdict(float), defaultdict(float)
    for sid, (name, start, end, _) in enumerate(spans):
        calls[name] += 1
        incl[name] += end - start
        self_s[name] += end - start - child[sid]
    return calls, incl, self_s


# Flops of one call on an (m, n, n) stack, counted from the einsums: the
# m^2 products B_a B_b cost 2 m^2 n^3; the gradient adds two more contractions
# of the same size.  Elementwise terms of order m^2 n^2 are included.
def objective_flops(m, n):
    return 2 * m * m * n**3 + 3 * m * m * n * n


def gradient_flops(m, n):
    return 6 * m * m * n**3 + m * m * n * n
