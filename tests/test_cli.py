import json
import math
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddvv
from ddvv import cli, extremizer, inequalities, lagrangian
from ddvv.matrix_core import random_orthogonal
from reference import curvature_form_bound


def write_doc(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")


def cdk_doc():
    return {
        "n": 2, "m": 2, "ambient_c": 0.0, "label": "cdk-pair",
        "shape_operators": [[[0.0, 0.5], [0.5, 0.0]],
                            [[0.5, 0.0], [0.0, -0.5]]],
    }


def test_input_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    ops = rng.standard_normal((3, 4, 4))
    ops = (ops + np.transpose(ops, (0, 2, 1))) / 2
    doc = {"n": 4, "m": 3, "ambient_c": -0.25,
           "shape_operators": [op.tolist() for op in ops]}
    p = tmp_path / "in.json"
    write_doc(p, doc)
    s, label = cli.read_input_document(p)
    assert label is None
    echoed = cli.shape_set_to_document(s)
    p2 = tmp_path / "echo.json"
    cli.write_json(echoed, p2)
    s2, _ = cli.read_input_document(p2)
    np.testing.assert_array_equal(s.ops, s2.ops)  # bit-identical round trip
    assert s2.ambient_c == s.ambient_c


def test_check_zero_operators(tmp_path, capsys):
    doc = {"n": 3, "m": 2, "ambient_c": 0.5,
           "shape_operators": np.zeros((2, 3, 3)).tolist()}
    p = tmp_path / "zero.json"
    write_doc(p, doc)
    out = tmp_path / "report.json"
    code = cli.main(["check", "--input", str(p), "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    # totally geodesic: rho = c exactly, so the slack vanishes
    assert report["invariants"]["slack"] == pytest.approx(0.0, abs=1e-15)
    assert report["invariants"]["rho"] == pytest.approx(0.5)


def test_check_cdk_pair(tmp_path):
    p = tmp_path / "cdk.json"
    write_doc(p, cdk_doc())
    out = tmp_path / "report.json"
    code = cli.main(["check", "--input", str(p), "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    ddvv = [c for c in report["checks"] if c["label"] == "ddvv"][0]
    assert ddvv["equality"] is True
    assert report["tool_version"]


def test_check_near_orbit_point_is_ok_not_equality(tmp_path, capsys):
    # the CDK pair in R^3 moved 1e-5 off its orbit: the sides agree within
    # the tolerance, the equality certificate does not
    ops = np.zeros((2, 3, 3))
    ops[0, 0, 1] = ops[0, 1, 0] = 0.5
    ops[1] = np.diag([0.5, -0.5, 0.0]) + 1e-5 * np.diag([1.0, 1.0, -2.0]) / np.sqrt(6.0)
    doc = {"n": 3, "m": 2, "ambient_c": 0.0, "shape_operators": ops.tolist()}
    p = tmp_path / "near.json"
    write_doc(p, doc)
    out = tmp_path / "report.json"
    assert cli.main(["check", "--input", str(p), "--output", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0].endswith(" [ok]")
    ddvv = json.loads(out.read_text())["checks"][0]
    assert ddvv["label"] == "ddvv" and ddvv["holds"] is True and ddvv["equality"] is False
    assert abs(ddvv["lhs"] - ddvv["rhs"]) <= ddvv["tol"]


def test_check_shape_error(tmp_path):
    doc = {"n": 3, "m": 1, "shape_operators": [[[1, 0, 0], [0, 1, 0]]]}
    p = tmp_path / "bad.json"
    write_doc(p, doc)
    assert cli.main(["check", "--input", str(p)]) == 1


def test_check_asymmetry_error(tmp_path):
    doc = {"n": 2, "m": 1, "shape_operators": [[[0.0, 1.0], [0.0, 0.0]]]}
    p = tmp_path / "asym.json"
    write_doc(p, doc)
    assert cli.main(["check", "--input", str(p)]) == 1


def test_check_asymmetry_error_at_a_tiny_scale(tmp_path, capsys):
    # the asymmetry is measured relative to the matrix's largest entry
    doc = {"n": 2, "m": 1, "shape_operators": [[[0.0, 1e-12], [0.0, 0.0]]]}
    p = tmp_path / "asym.json"
    write_doc(p, doc)
    assert cli.main(["check", "--input", str(p)]) == 1
    assert capsys.readouterr().err == (
        "input error: relative matrix asymmetry 1.000e+00 exceeds tolerance 1.0e-06\n")


def test_check_accepts_a_large_rotated_point(tmp_path):
    # rotating entries of 1e11 leaves an absolute asymmetry of about 3e-5,
    # rounding relative to their size
    g = np.random.default_rng(0).standard_normal((3, 4, 4))
    o = random_orthogonal(4, 1)
    ops = o.T @ (1e11 * (g + g.transpose(0, 2, 1)) / 2) @ o
    p = tmp_path / "rotated.json"
    write_doc(p, {"n": 4, "m": 3, "ambient_c": 0.0, "shape_operators": ops.tolist()})
    assert cli.main(["check", "--input", str(p)]) == 0


@pytest.mark.parametrize("field", ["shape_operators", "ambient_c", "overflow"])
def test_check_non_finite_input(tmp_path, capsys, field):
    doc = cdk_doc()
    if field == "ambient_c":
        doc["ambient_c"] = float("inf")
    elif field == "overflow":  # finite, but (A + A^T) / 2 overflows
        doc["shape_operators"][1][0][0] = 1.5e308
    else:
        doc["shape_operators"][0][0][1] = doc["shape_operators"][0][1][0] = float("nan")
    p = tmp_path / "non-finite.json"
    write_doc(p, doc)
    out = tmp_path / "report.json"
    assert cli.main(["check", "--input", str(p), "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith("input error: ")
    assert not out.exists()


def test_check_overflow_prints_one_error_line(tmp_path, capsys):
    p = tmp_path / "huge.json"
    write_doc(p, {"n": 2, "m": 1, "shape_operators": [[[1.5e308, 0.0], [0.0, 1.0]]]})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["check", "--input", str(p)]) == 1
    assert not caught  # numpy's overflow warnings would print on stderr
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error: ")


def test_check_traceless_overflow_is_an_input_error(tmp_path, capsys):
    # the operators pass validation, but their traces overflow
    p = tmp_path / "huge.json"
    write_doc(p, {"n": 3, "m": 1, "shape_operators": [(8e307 * np.eye(3)).tolist()]})
    assert cli.main(["check", "--input", str(p)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error: ")


def test_check_malformed_json(tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("{not json", encoding="utf-8")
    assert cli.main(["check", "--input", str(p)]) == 1


def test_check_large_umbilic_point(tmp_path):
    # removing the mean curvature leaves a trace residue of rounding
    # relative to |A_a|, far above the size of the traceless parts
    ops = [k * np.eye(6) for k in (1093.59, 1004.00, 368.60, -234.98, 1582.85)]
    doc = {"n": 6, "m": 5, "ambient_c": 0.0,
           "shape_operators": [op.tolist() for op in ops]}
    p = tmp_path / "umbilic.json"
    write_doc(p, doc)
    assert cli.main(["check", "--input", str(p)]) == 0


def test_check_csv_export(tmp_path):
    p = tmp_path / "cdk.json"
    write_doc(p, cdk_doc())
    csv_path = tmp_path / "checks.csv"
    assert cli.main(["check", "--input", str(p), "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "label,lhs,rhs,holds,equality"
    assert any(line.startswith("ddvv,") for line in lines[1:])


def test_search_deterministic_output(tmp_path):
    args = ["search", "--n", "2", "--m", "2", "--restarts", "8",
            "--iters", "2000", "--seed", "11"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(args + ["--output", str(out1)]) == 0
    assert cli.main(args + ["--output", str(out2)]) == 0
    d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    assert json.dumps(d1["best_value"]) == json.dumps(d2["best_value"])
    assert json.dumps(d1["best_tuple"]) == json.dumps(d2["best_tuple"])


def test_search_invalid_dims():
    assert cli.main(["search", "--n", "1", "--m", "2"]) == 1


@pytest.mark.parametrize("dims", [["--n", "1", "--m", "2"], ["--n", "3", "--m", "0"]])
def test_fuzz_invalid_dims(dims, capsys):
    assert cli.main(["fuzz", *dims, "--samples", "5"]) == 1
    assert capsys.readouterr().err.startswith("input error: ")


@pytest.mark.parametrize("argv", [
    ["family", "h-umbilical", "--n", "3", "--lambda", "3", "--mu", "1"],
    ["family", "minimal-c3", "--a", "1", "--b", "1"],
    ["family", "s3-equality", "--a", "2.0"],
    ["family", "ultraminimal-c4", "--a", "1", "--b", "0.5", "--c", "0.3"],
    ["family", "eq51", "--a", "1", "--b", "-0.2"],
    ["family", "minimal-c3", "--a", "1", "--csf-c", "0.5"],
    # negative values in scientific notation, which argparse before
    # Python 3.13 takes for options
    ["family", "eq51", "--a", "1", "--b", "-2e-1"],
    ["family", "h-umbilical", "--lambda", "-1e-1", "--mu", "2"],
    ["family", "minimal-c3", "--a", "1", "--csf-c", "-1E+0"],
])
def test_family_commands(tmp_path, argv):
    out = tmp_path / "fam.json"
    assert cli.main(argv + ["--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["closed_forms"]
    assert [c["label"] for c in report["checks"]] == family_labels(argv)


# the labels of the check bundle of a point, in report order
BUNDLE = ["ddvv", "chen", "weak-codim", "weak-dim", "li-li"]


def family_labels(argv):
    return BUNDLE + ["csf-bound"] * ("--csf-c" in argv)


# the scaled parameters of each family
FAMILY_PARAMETERS = {
    "h-umbilical": ["--lambda", "--mu"],
    "minimal-c3": ["--a", "--b", "--c", "--d"],
    "s3-equality": ["--a"],
    "ultraminimal-c4": ["--a", "--b", "--c", "--d"],
    "eq51": ["--a", "--b"],
}


def _family_argv(family, rng, scale):
    """A seeded `family` command line with parameters of size `scale`, and
    with --csf-c of size scale^2 on the C^3 families."""
    def value(size):
        return repr(float(rng.standard_normal() * size))

    argv = ["family", family]
    if family == "h-umbilical":
        argv += ["--n", str(rng.integers(2, 6))]
    for name in FAMILY_PARAMETERS[family]:
        argv += [name, value(scale)]
    if family in ("minimal-c3", "s3-equality"):
        argv += ["--csf-c", value(scale**2)]
    return argv


@pytest.mark.parametrize("family", list(cli.FAMILIES))
def test_family_reports_the_bundle_at_every_scale(family, tmp_path):
    # the ddvv check of the bundle decides the ratio form
    # (n(n-1) rho_perp / |b|^2)^2 <= 1; the curvature form
    # rho <= |H|^2 - rho_perp + c, decided apart, must give the same flags
    rng = np.random.default_rng(list(cli.FAMILIES).index(family))
    out = tmp_path / "fam.json"
    for k in range(-40, 41):
        argv = _family_argv(family, rng, 2.0**k)
        assert cli.main([*argv, "--output", str(out)]) == 0, argv
        report = json.loads(out.read_text())
        checks = report["checks"]
        assert [c["label"] for c in checks] == family_labels(argv), argv
        inv = SimpleNamespace(**report["invariants"])
        expected = curvature_form_bound(inv, report["input"]["n"], inequalities.DEFAULT_TOL)
        assert (checks[0]["holds"], checks[0]["equality"]) == expected, argv


@pytest.mark.parametrize("family, params, csf_c, flags", [
    ("minimal-c3", {"--a": 1.0, "--b": 1.0, "--c": 0.3}, 1.0, (True, False)),
    ("s3-equality", {"--a": 1.0}, 0.5, (True, True)),
    # off the ddvv orbit, where the c^2 terms swamp the tolerance of the sides;
    # at 4^40 times 1e120 the sides are still finite
    ("minimal-c3", {"--a": 1.0, "--b": 1.0}, 1e120, (True, False)),
    ("minimal-c3", {"--a": 1e-3, "--b": 1e-3}, 1e3, (True, False))])
def test_csf_flags_do_not_depend_on_scale(family, params, csf_c, flags, tmp_path):
    # the csf sides have degree 4, and so does the tolerance, and the equality
    # is ddvv's: the parameters at 2^k and c at 4^k give the same flags
    out = tmp_path / "fam.json"
    for k in range(-40, 41):
        argv = ["family", family, "--csf-c", repr(math.ldexp(csf_c, 2 * k))]
        for name, value in params.items():
            argv += [name, repr(math.ldexp(value, k))]
        assert cli.main([*argv, "--output", str(out)]) == 0, argv
        csf = json.loads(out.read_text())["checks"][-1]
        assert csf["label"] == "csf-bound"
        assert (csf["holds"], csf["equality"]) == flags, argv


def test_check_tiny_cdk_point_is_an_equality(tmp_path, capsys):
    # |b|^2 is subnormal at entries of 1e-160; ddvv and li-li decide at an exact scale
    ops = np.zeros((3, 4, 4))
    ops[0, 0, 1] = ops[0, 1, 0] = ops[1, 0, 0] = 0.5
    ops[1, 1, 1] = -0.5
    p = tmp_path / "tiny-cdk.json"
    write_doc(p, {"n": 4, "m": 3, "ambient_c": 0.0, "shape_operators": (1e-160 * ops).tolist()})
    assert cli.main(["check", "--input", str(p)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("ddvv ") and lines[0].endswith(" [equality]")
    assert lines[4].startswith("li-li ") and lines[4].endswith(" [equality]")


@pytest.mark.parametrize("argv", [
    ["family", "h-umbilical", "--n", "3", "--lambda", "3", "--mu", "1"],
    ["family", "ultraminimal-c4", "--a", "1", "--b", "0.5", "--c", "0.3"],
    ["family", "eq51", "--a", "1", "--b", "-0.2"]])
def test_csf_c_outside_the_c3_families_is_an_input_error(tmp_path, argv, capsys):
    # these families have no csf bound
    out = tmp_path / "fam.json"
    assert cli.main([*argv, "--csf-c", "0.5", "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: --csf-c ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_family_closed_forms_match_oracle(tmp_path):
    out = tmp_path / "fam.json"
    cli.main(["family", "minimal-c3", "--a", "1", "--b", "1",
              "--output", str(out)])
    report = json.loads(out.read_text())
    closed = report["closed_forms"]
    assert closed["three_rho"] == pytest.approx(-5.0)
    assert closed["nine_rho_perp_sq"] == pytest.approx(19.0)
    assert closed["oracle_rho"] == pytest.approx(-5.0 / 3.0)


def test_family_h_umbilical_n1_is_an_input_error(capsys):
    assert cli.main(["family", "h-umbilical", "--n", "1"]) == 1
    assert capsys.readouterr().err == "input error: need n >= 2\n"


def _out_of_memory(*args):
    raise MemoryError("Unable to allocate 72.8 PiB for an array")


@pytest.mark.parametrize("argv", [["family", "h-umbilical", "--n", "3"],
                                  ["search", "--n", "3", "--m", "2", "--restarts", "1"]])
def test_out_of_memory_is_an_input_error(argv, monkeypatch, capsys):
    # the constructors stand in for an allocation too large for the available memory
    monkeypatch.setitem(cli.FAMILIES, "h-umbilical",
                        (lambda args: (), _out_of_memory, None))
    monkeypatch.setattr(extremizer, "_draw_starts", _out_of_memory)
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: out of memory: Unable to allocate 72.8 PiB for an array\n"


@pytest.mark.parametrize("argv", [
    ["family", "h-umbilical", "--n", "3", "--lambda", "1e200", "--mu", "1e200"],
    ["family", "minimal-c3", "--a", "1e160", "--b", "1"],
    ["family", "ultraminimal-c4", "--a", "1e160"],
    ["family", "eq51", "--a", "1e160", "--b", "1"],
    ["family", "minimal-c3", "--a", "1", "--b", "1", "--csf-c", "1e300"],
    ["family", "s3-equality", "--a", "1", "--csf-c", "1e160"]])
def test_family_closed_form_overflow_is_an_input_error(tmp_path, argv, capsys):
    # the closed forms take Python float powers, which raise past the float
    # range, the invariants of ultraminimal-c4 and eq51 overflow to
    # infinities, and so do both csf sides, through c^2, at the last two
    out = tmp_path / "fam.json"
    assert cli.main([*argv, "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: closed form outside the float range: ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_family_unknown_rejected():
    with pytest.raises(SystemExit):
        cli.main(["family", "nonsense"])


def test_fuzz_command(capsys):
    assert cli.main(["fuzz", "--n", "3", "--m", "2", "--samples", "30",
                     "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "hard failures: 0" in out


def random_doc(seed, n=4, m=3, scale=1.0):
    g = np.random.default_rng(seed).standard_normal((m, n, n))
    ops = (g + g.transpose(0, 2, 1)) / 2 * scale
    return {"n": n, "m": m, "ambient_c": 0.0, "shape_operators": ops.tolist()}


@pytest.mark.parametrize("doc", [cdk_doc(), random_doc(5)])
def test_check_tol_zero(tmp_path, doc):
    # the traceless parts keep a trace of rounding, which tol 0 does not forgive
    p = tmp_path / "point.json"
    write_doc(p, doc)
    assert cli.main(["check", "--input", str(p), "--tol", "0"]) == 0


def test_fuzz_tol_zero():
    assert cli.main(["fuzz", "--n", "3", "--m", "2", "--samples", "200", "--tol", "0"]) == 0


def test_check_at_large_scale(tmp_path):
    # rho_perp is taken on the unit stack, so its commutators do not overflow
    p = tmp_path / "large.json"
    write_doc(p, random_doc(5, scale=1e80))
    out = tmp_path / "report.json"
    assert cli.main(["check", "--input", str(p), "--output", str(out)]) == 0
    weak = [c for c in json.loads(out.read_text())["checks"] if c["label"].startswith("weak")]
    assert len(weak) == 2
    assert all(math.isfinite(c["rhs"]) and not c["equality"] for c in weak)


@pytest.mark.parametrize("argv", [
    ["check"], ["check", "--input", "in.json", "--tol", "abc"], ["family", "nonsense"], []])
def test_usage_errors_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(argv)
    assert e.value.code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "-1e-9", "inf"])
@pytest.mark.parametrize("command", [
    ["check", "--input"], ["family", "eq51", "--a", "1"], ["fuzz", "--n", "3", "--m", "2"]])
def test_bad_tol_is_an_input_error(tmp_path, capsys, command, tol):
    p = tmp_path / "cdk.json"
    write_doc(p, cdk_doc())
    argv = [*command, str(p)] if command[-1] == "--input" else command
    assert cli.main([*argv, f"--tol={tol}"]) == 1
    assert capsys.readouterr().err.startswith("input error: --tol")


# argvs of every route through the parser: each subcommand, help, usage errors
PARSE_TABLE = [
    ["check", "--input", "p.json"],
    ["check", "--input", "p.json", "--output", "r.json", "--csv", "r.csv", "--tol", "1e-6"],
    ["check", "--inp", "p.json"],
    ["search", "--n", "3", "--m", "2"],
    ["search", "--n", "6", "--m", "6", "--restarts", "8", "--iters", "9", "--seed", "1",
     "--output", "s.json"],
    ["family", "eq51", "--a", "1", "--b", "-2e-1"],
    ["family", "h-umbilical", "--n", "4", "--lambda", "3", "--mu", "1", "--tol", "0"],
    ["family", "minimal-c3", "--a", "1", "--csf-c", "0.5", "--output", "f.json"],
    ["fuzz", "--n", "3", "--m", "2", "--samples", "5", "--seed", "2"],
    ["--help"], ["-h"], ["check", "--help"], ["family", "-h"],
    ["check"], ["check", "--output", "r.json"], ["check", "--input", "p.json", "--tol", "abc"],
    ["check", "--input", "p.json", "--bogus"], ["check", "--input", "p.json", "x", "--bogus", "1"],
    ["family"], ["family", "nonsense"], ["fuzz", "--n", "3"],
    ["nonsense"], ["nonsense", "--input", "p.json"], ["--tol", "1", "check"], [],
]


@pytest.mark.parametrize("argv", PARSE_TABLE)
def test_main_parses_as_the_top_level_parser(argv, monkeypatch, capsys):
    def outcome(parse):
        try:
            result = parse(list(argv))
        except SystemExit as e:
            result = ("exit", e.code)
        return result, *capsys.readouterr()

    for name in cli.build_parser().commands:  # a command returns what main parsed
        monkeypatch.setattr(cli, f"cmd_{name}", lambda args: args)
    assert outcome(cli.main) == outcome(cli.build_parser().parse_args)


def test_a_named_subcommand_is_parsed_by_its_parser_alone(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the top-level parser parsed a named subcommand")

    monkeypatch.setattr(cli.build_parser(), "parse_known_args", fail)
    monkeypatch.setattr(cli, "cmd_fuzz", lambda args: args)
    args = cli.main(["fuzz", "--n", "3", "--m", "2"])
    assert (args.command, args.n, args.m, args.samples) == ("fuzz", 3, 2, 1000)


def test_main_calls_the_current_command_handler(monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "cmd_fuzz", lambda args: 7)
    assert cli.main(["fuzz", "--n", "2", "--m", "1"]) == 7


def test_family_equality_at_large_scale(capsys):
    # the slack of this equality case is exactly 0 when rho_perp keeps every
    # bit of the commutator sum; one rounding of |b| exceeds the absolute tol
    assert cli.main(["family", "eq51", "--a", "1e4", "--b", "0.3"]) == 0
    assert capsys.readouterr().out.endswith("[equality]\n")


def test_family_bound_is_relative_to_the_point_scale(capsys):
    # lhs and rhs agree to rounding at |b|^2 ~ 6e8; an absolute |slack| <= tol
    # reported FAIL and exit 2 here
    argv = ["family", "eq51", "--a", "-4364.352471432212", "--b", "-11698.01907772864"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.endswith("[equality]\n")


@pytest.mark.parametrize("scale", [1e4, 1e8])
def test_family_bounds_hold_at_large_scale(scale, capsys):
    rng = np.random.default_rng(int(math.log10(scale)))
    for _ in range(40):
        a, b = (repr(float(x)) for x in rng.standard_normal(2) * scale)
        csf_c = repr(float(rng.standard_normal() * scale**2))
        assert cli.main(["family", "eq51", "--a", a, "--b", b]) == 0
        assert cli.main(["family", "s3-equality", "--a", a, "--csf-c", csf_c]) == 0


def test_fuzz_without_samples(capsys):
    assert cli.main(["fuzz", "--n", "3", "--m", "2", "--samples", "0"]) == 0
    assert capsys.readouterr().out.startswith("samples: 0\nhard failures: 0\n")


# one command line per subcommand that writes a report
REPORT_COMMANDS = [
    ["check", "--input", "<point>"],
    ["search", "--n", "3", "--m", "2", "--restarts", "4", "--iters", "500", "--seed", "7"],
    ["family", "eq51", "--a", "1", "--b", "-0.2"],
]


def _argv(command, tmp_path):
    p = tmp_path / "point.json"
    write_doc(p, random_doc(8))
    return [str(p) if arg == "<point>" else arg for arg in command]


@pytest.mark.parametrize("command", REPORT_COMMANDS)
def test_report_file_is_indented_json(tmp_path, command):
    out = tmp_path / "report.json"
    assert cli.main([*_argv(command, tmp_path), "--output", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize("command, option", [
    *((command, "--output") for command in REPORT_COMMANDS), (REPORT_COMMANDS[0], "--csv")])
def test_unwritable_output_is_an_output_error(tmp_path, capsys, command, option):
    bad = tmp_path / "no" / "such" / "dir" / "out"
    assert cli.main([*_argv(command, tmp_path), option, str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("output error: ")
    assert captured.err.count("\n") == 1
    assert not bad.exists()


@pytest.mark.parametrize("field, value", [
    ("n", 2.7), ("n", 2.0), ("n", True), ("m", True), ("m", "2"),
    ("ambient_c", "0.5"), ("ambient_c", True), ("ambient_c", None), ("ambient_c", 10**400),
    ("entry", "0.5"), ("entry", True), ("entry", None), ("entry", {"x": 1.0}),
])
def test_malformed_document_is_an_input_error(tmp_path, capsys, field, value):
    doc = cdk_doc()
    if field == "entry":
        doc["shape_operators"][1][0][0] = value
    else:
        doc[field] = value
    p = tmp_path / "bad.json"
    write_doc(p, doc)
    out = tmp_path / "report.json"
    assert cli.main(["check", "--input", str(p), "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith("input error: malformed input document")
    assert not out.exists()


def test_document_nested_past_the_recursion_limit_is_an_input_error(tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000)
    out = tmp_path / "report.json"
    assert cli.main(["check", "--input", str(p), "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: malformed input document: ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_integer_entries_are_numbers(tmp_path):
    # JSON integers, also beyond int64, are numbers like any other
    doc = {"n": 2, "m": 2, "ambient_c": -1,
           "shape_operators": [[[0, 10**20], [10**20, 0]], [[10**20, 0], [0, -(10**20)]]]}
    p = tmp_path / "ints.json"
    write_doc(p, doc)
    s, _ = cli.read_input_document(p)
    np.testing.assert_array_equal(s.ops, np.array(doc["shape_operators"], dtype=float))
    assert s.ambient_c == -1.0


json_leaves = (
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from([-0.0, 5e-324, float("nan"), float("inf"), float("-inf")])
    | st.floats(allow_nan=True).map(np.float64))
json_trees = st.recursive(
    json_leaves,
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.lists(st.floats(allow_nan=True))
                      | st.dictionaries(st.text(), children)
                      | st.dictionaries(st.integers() | st.floats(allow_nan=False), children)),
    max_leaves=30)


def _written(obj):
    """The text `write_json` writes for `obj`, without its final newline."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "report.json"
        cli.write_json(obj, path)
        text = path.read_bytes().decode("ascii")
    assert text.endswith("\n")
    return text[:-1]


@settings(max_examples=100, deadline=None)
@given(json_trees)
def test_report_text_is_json_dumps_indent_2(obj):
    assert _written(obj) == json.dumps(obj, indent=2)


def _lists(obj):
    """`obj` with every numpy array replaced by its tolist()."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_lists(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _lists(v) for k, v in obj.items()}
    return obj


# values whose reprs take each form: subnormal, extreme, exponent, integral
edge_floats = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
    1e16, 1e-05, 0.1, 1.0, -3.0, 2.0**53, float("nan"), float("inf"), float("-inf")])


@st.composite
def float_arrays(draw):
    """float64 arrays (m, n, n), (n, n) or (m, n), with m <= 4 and 2 <= n <= 8.

    A drawn flag mirrors each stack's upper triangle into its lower one, so
    the stack is bitwise symmetric; another then mirrors one 0.0 by -0.0.
    """
    m, n = draw(st.integers(1, 4)), draw(st.integers(2, 8))
    shape = draw(st.sampled_from([(m, n, n), (n, n), (m, n)]))
    elements = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | edge_floats
    flat = draw(st.lists(elements, min_size=math.prod(shape), max_size=math.prod(shape)))
    arr = np.array(flat, dtype=np.float64).reshape(shape)
    if shape[-1] == shape[-2] and draw(st.booleans()):
        upper = np.triu(np.ones((n, n), dtype=bool))
        arr = np.where(upper, arr, np.swapaxes(arr, -1, -2))
        if draw(st.booleans()):
            i, j = draw(st.sampled_from(list(zip(*np.triu_indices(n, k=1)))))
            arr[..., i, j], arr[..., j, i] = 0.0, -0.0
    return arr


json_trees_with_arrays = st.recursive(
    json_leaves | float_arrays(),
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(st.text(), children)
                      | st.dictionaries(st.integers(), children)),
    max_leaves=6)


@settings(max_examples=100, deadline=None)
@given(json_trees_with_arrays)
def test_report_text_of_arrays_is_json_dumps_of_their_lists(obj):
    assert _written(obj) == json.dumps(_lists(obj), indent=2)


@pytest.mark.parametrize("shape", [(3, 4, 4), (4, 4), (1, 2, 2)])
@pytest.mark.parametrize("zeros", [(0.0, 0.0), (-0.0, -0.0), (0.0, -0.0)])
def test_report_text_of_mirrored_zeros(shape, zeros):
    g = np.random.default_rng(5).standard_normal(shape)
    arr = g + np.swapaxes(g, -1, -2)
    arr[..., 0, 1], arr[..., 1, 0] = zeros
    doc = {"input": {"shape_operators": arr}}
    assert _written(doc) == json.dumps(_lists(doc), indent=2)


def test_check_stdout_is_one_line_per_check_then_the_slack(tmp_path, capsys):
    p = tmp_path / "cdk.json"
    write_doc(p, cdk_doc())
    assert cli.main(["check", "--input", str(p)]) == 0
    assert capsys.readouterr().out == (
        "ddvv         lhs=+1.000000000000e+00 rhs=+1.000000000000e+00 [equality]\n"
        "chen         lhs=-5.000000000000e-01 rhs=+0.000000000000e+00 [ok]\n"
        "weak-codim   lhs=-5.000000000000e-01 rhs=-5.000000000000e-01 [equality]\n"
        "weak-dim     lhs=-5.000000000000e-01 rhs=-5.000000000000e-01 [equality]\n"
        "li-li        lhs=+1.500000000000e+00 rhs=+1.500000000000e+00 [equality]\n"
        "slack = 0.000000000000e+00\n")


def test_check_report_echoes_the_input_lists(tmp_path):
    doc = random_doc(4)
    doc["shape_operators"][0][0][1] = doc["shape_operators"][0][1][0] = 5e-324
    doc["shape_operators"][1][2][2] = -0.0
    p = tmp_path / "point.json"
    write_doc(p, doc)
    out = tmp_path / "report.json"
    assert cli.main(["check", "--input", str(p), "--output", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    echoed = json.loads(text)["input"]["shape_operators"]
    assert echoed == doc["shape_operators"]
    assert math.copysign(1.0, echoed[1][2][2]) == -1.0


def _dict_report(path, timestamp, tol=inequalities.DEFAULT_TOL):
    """The report of `check` on the document at `path` as a dict of its values."""
    s, label = cli.read_input_document(path)
    inv, checks = inequalities.point_checks(s, tol)
    return {
        "tool_version": ddvv.__version__, "seed": None, "timestamp": timestamp,
        "input": cli.shape_set_to_document(s, label),
        "invariants": inv.as_dict(),
        "checks": [c.as_dict() for c in checks],
        "lagrangian_symmetry": lagrangian.lagrangian_symmetry_check(s, tol) if s.m == s.n else None,
    }


def _edge_doc():
    doc = random_doc(6, n=4, m=2)
    ops = doc["shape_operators"]
    ops[0][0][0], ops[0][1][1] = -0.0, 0.0
    ops[0][0][1] = ops[0][1][0] = 5e-324
    ops[1][2][2], ops[1][3][3] = 1e300, -1e300
    return doc


LABELS = ["nan-12", "inf", "-Infinity", 'a "quoted" label', "back\\slash", "ünïcødé ∂ρ",
          "100%s %d %%", {"nested": [1.5, None, "nan"]}, 7]
LAYOUT_DOCS = [
    # the check-mix shapes and (2, 1), without a label and with one
    *(random_doc(n * m, n=n, m=m) for n, m in [(2, 2), (3, 3), (4, 4), (6, 6), (8, 3), (3, 8), (2, 1)]),
    *({**random_doc(n + m, n=n, m=m), "label": f"pt-{n}-{m}"} for n, m in [(2, 2), (8, 3), (2, 1)]),
    cdk_doc(),  # an equality point, square and totally symmetric
    {**cdk_doc(), "ambient_c": 1.5},
    # zeros of both signs among the invariants
    {"n": 3, "m": 2, "ambient_c": -0.0, "shape_operators": np.zeros((2, 3, 3)).tolist()},
    _edge_doc(),
    {**_edge_doc(), "n": 4, "m": 2, "label": "edge"},
    # its invariants overflow: the report holds Infinity and NaN
    {"n": 2, "m": 1, "shape_operators": [[[8e307, 0.0], [0.0, 8e307]]]},
    *({**random_doc(9, n=3, m=3), "label": label} for label in LABELS),
]


@pytest.mark.parametrize("doc", LAYOUT_DOCS)
def test_check_report_is_the_text_of_its_dict(tmp_path, doc):
    p = tmp_path / "point.json"
    write_doc(p, doc)
    out = tmp_path / "report.json"
    assert cli.main(["check", "--input", str(p), "--output", str(out)]) in (0, 2)
    text = out.read_text(encoding="utf-8")
    report = _dict_report(p, json.loads(text)["timestamp"])
    assert text == json.dumps(report, indent=2, default=np.ndarray.tolist) + "\n"
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
