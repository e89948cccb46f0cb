import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from dendrifliess import algebra, cli, integrals, operators, signals, trees


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_trees_enum(capsys):
    code, out, _ = run(capsys, "trees", "enum", "--order", "3")
    assert code == 0
    assert out.splitlines() == ["((()))", "(()())", "()(())", "(())()", "()()()"]


def test_trees_enum_json_decorated(capsys):
    code, out, _ = run(capsys, "--json", "trees", "enum", "--order", "2",
                       "--decorate", "x1x2")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    assert payload["trees"][0] == {"l": None, "x": 1,
                                   "r": {"l": None, "x": 2, "r": None}}


def test_deterministic_output(capsys):
    a = run(capsys, "algebra", "char", "--order", "3")
    b = run(capsys, "algebra", "char", "--order", "3")
    assert a == b and a[0] == 0


def test_algebra_shuffle(capsys):
    code, out, _ = run(capsys, "algebra", "shuffle", "(x1<x2)", "x3")
    assert code == 0
    assert out.strip() == "(x1<(x2<x3)) + (x1<(x2>x3)) + ((x1<x2)>x3)"
    assert run(capsys, "algebra", "shuffle", "x1 - x1", "x2") == (0, "0\n", "")


def test_algebra_prelie(capsys):
    code, out, _ = run(capsys, "algebra", "prelie", "x1", "x2")
    assert code == 0
    assert out.strip() == "(x1<x2) - (x1>x2)"


def test_bad_expression_exit_code(capsys):
    code, _, err = run(capsys, "algebra", "shuffle", "x1", "][")
    assert code == 1
    assert err.startswith("error:")


def test_json_errors_on_stderr(capsys):
    code, _, err = run(capsys, "--json", "algebra", "shuffle", "x1", "][")
    assert code == 1
    assert "error" in json.loads(err)


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["trees", "enum"])  # missing --order
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["eval", "tree", "--expr", "x1", "--signal", "const:1,a"],
     "bad matrix literal '1,a': could not convert string to float: 'a'"),
    (["eval", "tree", "--expr", "x1", "--signal", "const:1,2"],
     "matrix literal '1,2' is not square"),
    (["algebra", "char", "--order", "2", "--letter", "x1x2"],
     "--letter takes a single letter like x1"),
    (["algebra", "shuffle", "(x1 + x2)", "x1"],
     "products must be parenthesized pairs; got ')' in '(x1 + x2)'"),
    (["fliess", "eval", "--series", "dyson:abc", "--signal", "const:1", "--order", "1"],
     "bad series spec 'dyson:abc': expected dyson:<N>"),
    (["eval", "tree", "--expr", "x1", "--signal", "spin:abc,rot"],
     "bad signal spec 'spin:abc,rot': expected spin:<Bmag>,<schedule>"),
], ids=["matrix-entry", "matrix-shape", "letter", "sum-in-parentheses", "dyson-order",
        "spin-magnitude"])
def test_bad_input_is_named(capsys, argv, message):
    code, out, err = run(capsys, "--json", *argv)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": message}


def test_one_parser_serves_every_call(capsys, monkeypatch):
    # run in one process, one after the other, each call must print and exit
    # as it does in a process of its own, with a parser built for it alone
    monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps help to
    fliess = ["fliess", "eval", "--series", "dyson:2", "--signal", "const:0.5",
              "--order", "2", "--grid", "8"]
    calls = [["--help"], ["fliess", "eval", "--order", "x"],
             [*fliess, "--certificate"], fliess]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    for argv in calls:
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "dendrifliess.cli", *argv],
                               capture_output=True, text=True,
                               env={**os.environ, "PYTHONPATH": src})
        assert (code, captured.out, captured.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr)
    assert "available" not in captured.out  # the last call asked for no certificate


def test_eval_tree_to_csv(capsys, tmp_path):
    out_path = str(tmp_path / "result.csv")
    code, _, _ = run(capsys, "eval", "tree", "--expr", "(x1<x1)",
                     "--signal", "const:0,1;-1,0", "--grid", "64",
                     "--horizon", "0.5", "--out", out_path)
    assert code == 0
    with open(out_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "e11", "e12", "e21", "e22"]
    assert len(rows) == 66
    # (x1<x1) on a constant channel is (tA)^2/2; entry (1,1) at T=0.5 is -1/8
    assert abs(float(rows[-1][1]) + 0.125) < 1e-9


def test_fliess_dyson(capsys):
    code, out, _ = run(capsys, "--json", "fliess", "eval",
                       "--series", "dyson:4", "--signal", "const:0.5",
                       "--order", "4", "--grid", "128", "--horizon", "1.0")
    assert code == 0
    payload = json.loads(out)
    # truncated exponential of 0.5
    want = sum(0.5 ** n / [1, 1, 2, 6, 24][n] for n in range(5))
    assert abs(payload["values"][-1][0][0] - want) < 1e-5


def test_fliess_series_file(capsys, tmp_path):
    path = tmp_path / "series.json"
    path.write_text(json.dumps(
        [{"coeff": "2", "tree": {"l": None, "x": 1, "r": None}}]))
    code, out, _ = run(capsys, "--json", "fliess", "eval",
                       "--series", str(path), "--signal", "const:1.0",
                       "--order", "2", "--grid", "32", "--horizon", "1.0",
                       "--certificate")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"t", "values", "certificate"}
    cert = payload["certificate"]
    assert set(cert) == {"K", "M", "m", "R", "radius", "tail", "N", "diagnostic"}
    # K = 2, M = 1, m = 1 and R = 1: ratio 2, outside the radius 1/2
    assert cert["tail"] is None and "diverges" in cert["diagnostic"]
    # on a quarter horizon R = 1/4, ratio 1/2, tail 2 (1/2)^3 / (1 - 1/2);
    # with --out the values go to the CSV and stdout holds the certificate
    code, out, _ = run(capsys, "--json", "fliess", "eval",
                       "--series", str(path), "--signal", "const:1.0",
                       "--order", "2", "--grid", "32", "--horizon", "0.25",
                       "--certificate", "--out", str(tmp_path / "y.csv"))
    assert code == 0
    assert json.loads(out)["tail"] == pytest.approx(0.5)


@pytest.mark.parametrize("source", ["spec", "file"])
def test_fliess_dyson_certificate_unavailable(capsys, tmp_path, source):
    spec = "dyson:3"
    if source == "file":
        path = tmp_path / "series.json"
        path.write_text(json.dumps({"rule": spec}))
        spec = str(path)
    code, out, _ = run(capsys, "--json", "fliess", "eval",
                       "--series", spec, "--signal", "const:0.5",
                       "--order", "3", "--grid", "32", "--certificate")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["values"]) == 33
    assert payload["certificate"] == {
        "available": False, "reason": "growth regime factorial_left_comb"}


@pytest.mark.parametrize("series, order", [("dyson:3", "-1"), ("dyson:-2", "2")])
def test_fliess_negative_order(capsys, series, order):
    code, out, err = run(capsys, "--json", "fliess", "eval",
                         "--series", series, "--signal", "const:0.5",
                         "--order", order, "--grid", "32")
    assert code == 1 and out == ""
    assert "error" in json.loads(err)


@pytest.mark.parametrize("document", [
    {"coeff": "1", "tree": None},  # not a list of records
    {"rule": 5},  # a rule that is not a string
    [{"coeff": "1"}],  # record without a tree
    [{"coeff": "1/0", "tree": {"l": None, "x": 1, "r": None}}],
])
def test_fliess_bad_series_file(capsys, tmp_path, document):
    path = tmp_path / "series.json"
    path.write_text(json.dumps(document))
    code, out, err = run(capsys, "--json", "fliess", "eval",
                         "--series", str(path), "--signal", "const:1.0",
                         "--order", "2", "--grid", "32")
    assert code == 1 and out == ""
    assert "error" in json.loads(err)


X0 = {"l": None, "x": 0, "r": None}
X1 = {"l": None, "x": 1, "r": None}
MATRIX_SERIES = [  # 2x2 coefficients over x0 and x1
    ([[1.0, 2.0], [0.0, -1.0]], X1),
    ([[0.5, 0.0], [3.0, 0.25]], {"l": X0, "x": 1, "r": None}),
    ([[0.0, -1.0], [1.0, 0.5]], {"l": None, "x": 1, "r": X0}),
]


def test_fliess_matrix_series_file(capsys, tmp_path):
    path = tmp_path / "series.json"
    path.write_text(json.dumps([{"coeff": c, "tree": t} for c, t in MATRIX_SERIES]))
    code, out, _ = run(capsys, "--json", "fliess", "eval",
                       "--series", str(path), "--signal", "const:0,1;-1,0",
                       "--order", "2", "--grid", "32", "--horizon", "0.1",
                       "--certificate")
    assert code == 0
    payload = json.loads(out)
    u = signals.constant_signal(np.array([[0.0, 1.0], [-1.0, 0.0]]), 0.1, 32)
    ev = integrals.TreeEvaluator(u)
    want = sum(np.array(c) @ ev.values(trees.tree_from_json(t)) for c, t in MATRIX_SERIES)
    assert np.allclose(payload["values"], want, rtol=1e-14, atol=1e-15)
    # K is the largest max-column-sum of a coefficient: 3.5, from the second
    assert payload["certificate"]["K"] == max(
        float(np.abs(c).sum(axis=0).max()) for c, _ in MATRIX_SERIES) == 3.5


@pytest.mark.parametrize("document, message", [
    ([{"coeff": "1", "tree": X1}, {"coeff": [[1.0, 0.0], [0.0, 1.0]], "tree": X0}],
     "mixed coefficient shapes"),
    ([{"coeff": [1.0, 2.0], "tree": X1}], "square"),
])
def test_fliess_bad_matrix_series_file(capsys, tmp_path, document, message):
    path = tmp_path / "series.json"
    path.write_text(json.dumps(document))
    code, out, err = run(capsys, "--json", "fliess", "eval",
                         "--series", str(path), "--signal", "const:0,1;-1,0",
                         "--order", "2", "--grid", "32")
    assert code == 1 and out == ""
    assert message in json.loads(err)["error"]


@pytest.mark.parametrize("record", [
    {"coeff": True, "tree": {"l": None, "x": 1, "r": None}},
    {"coeff": "1", "tree": {"l": None, "x": 1.5, "r": None}},
    {"coeff": "1", "tree": {"l": None, "x": "1", "r": None}},
], ids=["bool-coeff", "float-letter", "string-letter"])
def test_fliess_series_record_read_strictly(capsys, tmp_path, record):
    # none of these is read as x1 with coefficient 1
    path = tmp_path / "series.json"
    path.write_text(json.dumps([{"coeff": 0.5, "tree": X1}, record]))
    argv = ["fliess", "eval", "--series", str(path), "--signal", "const:1.0",
            "--order", "2", "--grid", "32"]
    code, out, err = run(capsys, "--json", *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"].startswith("bad series record 1: ")
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and err.startswith("error: bad series record 1: ")


@pytest.mark.parametrize("entry", [True, "2"], ids=["bool-entry", "string-entry"])
def test_matrix_entries_are_numbers(capsys, tmp_path, entry):
    # neither is read as the number 1 or 2
    path = tmp_path / "series.json"
    path.write_text(json.dumps([{"coeff": [[0.5]], "tree": X0},
                                {"coeff": [[entry]], "tree": X1}]))
    code, out, err = run(capsys, "--json", "fliess", "eval", "--series", str(path),
                         "--signal", "const:1.0", "--order", "1", "--grid", "2")
    assert code == 1 and out == ""
    assert json.loads(err)["error"].startswith("bad series record 1: TypeError(")
    assert f"a matrix entry is a number, got {entry!r}" in err

def test_fliess_coefficient_shape_must_match_the_signal(capsys, tmp_path):
    path = tmp_path / "series.json"
    path.write_text(json.dumps([{"coeff": [[1.0, 0.0], [0.0, 2.0]], "tree": X1}]))
    code, out, err = run(capsys, "--json", "fliess", "eval", "--series", str(path),
                         "--signal", "const:1.0", "--order", "1", "--grid", "32")
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "a 2x2 coefficient cannot act on the 1x1 values of the signal"}


@pytest.mark.parametrize("coeff, expr, digits", [
    ("1e400", None, "1" + "0" * 400), (int("9" * 400), None, "9" * 400),
    (None, "9" * 400 + "*x1", "9" * 400),
], ids=["series-1e400", "series-400-digits", "expr-400-digits"])
@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
def test_coefficient_too_large_for_a_float_is_a_clean_error(capsys, tmp_path, coeff,
                                                            expr, digits, as_json):
    # an exact rational too large for a float cannot weigh an iterated integral
    path = tmp_path / "series.json"
    path.write_text(json.dumps([{"coeff": coeff, "tree": X1}]))
    argv = (["eval", "tree", "--expr", expr] if expr else
            ["fliess", "eval", "--series", str(path), "--order", "2", "--certificate"])
    code, out, err = run(capsys, *(["--json"] if as_json else []), *argv,
                         "--signal", "const:1.0", "--grid", "4")
    assert code == 1 and out == ""
    message = json.loads(err)["error"] if as_json else err.removeprefix("error: ")
    assert message == f"coefficient {digits} of DecoratedTree('x1') is not a finite float" + (
        "" if as_json else "\n")


@pytest.mark.parametrize("argv", [
    ["fliess", "eval", "--series", "dyson:3", "--signal", "const:1.0", "--order", "3"],
    ["magnus", "--signal", "spin:1.0,rot"],
], ids=["fliess", "magnus"])
def test_negative_grid_is_named(capsys, argv):
    code, out, err = run(capsys, "--json", *argv, "--grid", "-3")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "--grid must be a positive number of steps, got -3"}


def test_fliess_zero_record_outside_alphabet_dropped(capsys, tmp_path):
    path = tmp_path / "series.json"
    path.write_text(json.dumps([{"coeff": "2", "tree": X1},
                                {"coeff": "0", "tree": {"l": None, "x": 5, "r": None}}]))
    code, out, _ = run(capsys, "--json", "fliess", "eval",
                       "--series", str(path), "--signal", "const:1.0",
                       "--order", "1", "--grid", "32", "--horizon", "0.5")
    assert code == 0
    assert json.loads(out)["values"][-1][0][0] == pytest.approx(1.0)


def test_fliess_dyson_above_cap(capsys):
    code, out, err = run(capsys, "--json", "fliess", "eval",
                         "--series", "dyson:400", "--signal", "const:0.5",
                         "--order", "400", "--grid", "32")
    assert code == 1 and out == ""
    assert "256" in json.loads(err)["error"]


@pytest.mark.parametrize("depth", [600, 3000])
def test_fliess_deep_series_file(capsys, tmp_path, depth):
    # a right comb of x1 written out as text; at depth 3000 json.load itself
    # recurses too deeply, at 600 the tree reads and the series evaluates
    tree = '{"l": ' * depth + "null" + ', "x": 1, "r": null}' * depth
    path = tmp_path / "deep.json"
    path.write_text('[{"coeff": "1", "tree": ' + tree + "}]")
    code, out, err = run(capsys, "--json", "fliess", "eval",
                         "--series", str(path), "--signal", "const:0.5",
                         "--order", "2", "--grid", "4")
    if depth == 600:
        assert code == 0 and err == ""
        assert json.loads(out).keys() == {"t", "values"}
    else:
        assert code == 1 and out == ""
        assert "nests too deeply" in json.loads(err)["error"]


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
def test_deep_product_refused_only_as_json(capsys, as_json):
    # the product reads and multiplies at any depth, but json.dumps recurses
    # once per nesting level, so only the JSON form of the result is refused
    expr = "(" * 3000 + "x1" + ">x1)" * 3000
    code, out, err = run(capsys, *(["--json"] if as_json else []), "algebra", "prec", expr, "x2")
    if as_json:
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "the result nests too deeply to write as JSON"}
    else:
        want = algebra.prec(algebra.parse_dendriform_expr(expr), algebra.parse_dendriform_expr("x2"))
        assert code == 0 and err == "" and out == algebra.render_polynomial(want) + "\n"


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
def test_deeply_nested_expr_evaluates(capsys, as_json):
    # the --expr reader and the products are loops, so nesting depth is no limit
    u = cli._parse_signal("const:0.1", 4, 1.0)
    for depth in (400, 3000):
        expr = "(x1<" * depth + "x1" + ")" * depth
        code, out, err = run(capsys, *(["--json"] if as_json else []), "eval", "tree",
                             "--expr", expr, "--signal", "const:0.1", "--grid", "4")
        assert code == 0 and err == ""
        want = integrals.evaluate_tree(trees.left_comb((1,) * (depth + 1)), u)
        if as_json:
            assert json.loads(out)["values"] == want.values.tolist()
        else:
            assert out == f"value at horizon t = {u.horizon}:\n{want.at_horizon}\n"


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
@pytest.mark.parametrize("argv", [
    ["eval", "tree", "--expr", "1/0 * x1", "--signal", "const:0.1"],
    ["algebra", "shuffle", "1/0 * x1", "x1"],
], ids=["eval", "algebra"])
def test_zero_denominator_is_a_clean_error(capsys, argv, as_json):
    code, out, err = run(capsys, *(["--json"] if as_json else []), *argv)
    assert code == 1 and out == ""
    want = "zero denominator in '1/0' in '1/0 * x1'"
    assert (json.loads(err) == {"error": want}) if as_json else err == f"error: {want}\n"


@pytest.mark.parametrize("argv", [
    ["eval", "tree", "--expr", "x1", "--signal", "const:0.1", "--grid", "1000000000000000"],
    ["magnus", "--signal", "const:0,1;-1,0", "--order", "2", "--grid", "2",
     "--refine", "1000000000000000", "--compare-rk4"],
], ids=["eval", "magnus"])
def test_grid_too_large_to_allocate_is_a_json_error(capsys, argv):
    # 7.1 and 28.4 PiB, more than a process can map, so the allocation fails at once
    code, out, err = run(capsys, "--json", *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"].startswith("Unable to allocate")


@pytest.mark.parametrize("argv", [
    ["fliess", "eval", "--series", "dyson:3", "--signal", "const:1e308", "--order", "3"],
    ["eval", "tree", "--expr", "(x1<(x1<x1))", "--signal", "const:1e200"],
    # magnus: omega(T) = 1000 and z(T) = e^1000; omega(T) itself overflows;
    # z(T) = 0 but the RK4 steps blow up
    ["magnus", "--signal", "const:1e3", "--order", "2"],
    ["magnus", "--signal", "const:1e3", "--order", "2", "--compare-rk4"],
    ["magnus", "--signal", "const:1e300", "--order", "3"],
    ["magnus", "--signal", "const:-1e7", "--order", "2", "--compare-rk4"],
], ids=["fliess", "eval", "magnus-z", "magnus-z-rk4", "magnus-omega", "magnus-rk4"])
def test_overflow_is_a_json_error(capsys, argv):
    # the values overflow to NaN, which a JSON document cannot hold
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run(capsys, "--json", *argv, "--grid", "4")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "the values are not finite, so none are written"}


def test_json_stderr_is_one_document_on_overflow():
    # a separate process, so stderr holds whatever numpy would print there
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "dendrifliess.cli", "--json", "fliess", "eval",
         "--series", "dyson:3", "--signal", "const:1e308", "--order", "3", "--grid", "4"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 1 and proc.stdout == ""
    assert json.loads(proc.stderr) == {"error": "the values are not finite, so none are written"}


@pytest.mark.parametrize("argv", [
    ["fliess", "eval", "--series", "dyson:3", "--signal", "const:1e308", "--order", "3"],
    ["eval", "tree", "--expr", "(x1<(x1<x1))", "--signal", "const:1e200", "--out"],
    # magnus: omega(T) = 1000 and z(T) = e^1000; omega(T) itself overflows;
    # z(T) = 0 but the RK4 steps blow up
    ["magnus", "--signal", "const:1e3", "--order", "2"],
    ["magnus", "--signal", "const:1e3", "--order", "2", "--compare-rk4"],
    ["magnus", "--signal", "const:1e300", "--order", "3"],
    ["magnus", "--signal", "const:-1e7", "--order", "2", "--compare-rk4"],
], ids=["fliess-text", "eval-csv", "magnus-z", "magnus-z-rk4", "magnus-omega", "magnus-rk4"])
def test_overflow_is_refused_without_json(capsys, tmp_path, argv):
    path = tmp_path / "y.csv"
    if argv[-1] == "--out":
        argv = argv + [str(path)]
    code, out, err = run(capsys, *argv, "--grid", "4")
    assert code == 1 and out == "" and not path.exists()
    assert err.startswith("error: ") and "not finite" in err


@pytest.mark.parametrize("horizon", ["nan", "inf"])
def test_fliess_non_finite_horizon(capsys, horizon):
    code, out, err = run(capsys, "--json", "fliess", "eval",
                         "--series", "dyson:3", "--signal", "const:1",
                         "--order", "3", "--horizon", horizon, "--grid", "4")
    assert code == 1 and out == ""
    assert "horizon" in json.loads(err)["error"]


def test_magnus_json(capsys):
    code, out, _ = run(capsys, "--json", "magnus", "--signal", "spin:0.5,rot",
                       "--order", "2", "--grid", "128", "--compare-rk4")
    assert code == 0
    payload = json.loads(out)
    assert payload["orientation"] == "standard"
    assert payload["deviation"] < 1e-1


def test_magnus_exponentiates_only_the_horizon(capsys, monkeypatch):
    u = signals.spin_field(0.5, "rot", 1.0, 128)
    _, z = operators.magnus_evaluate(operators.magnus_generating_series(2), u)
    sizes = []
    expm_stack = operators.expm_stack

    def counting(values):
        sizes.append(len(values))
        return expm_stack(values)

    monkeypatch.setattr(operators, "expm_stack", counting)
    code, out, _ = run(capsys, "--json", "magnus", "--signal", "spin:0.5,rot",
                       "--order", "2", "--grid", "128")
    assert code == 0 and sizes == [1]
    assert np.allclose(json.loads(out)["z_T"], z[-1], rtol=0.0, atol=1e-14)


def test_verify_magnus_exponentiates_only_the_horizon(capsys, monkeypatch):
    # four orders, then three orientations: one matrix each
    sizes = []
    expm_stack = operators.expm_stack

    def counting(values):
        sizes.append(len(values))
        return expm_stack(values)

    monkeypatch.setattr(operators, "expm_stack", counting)
    code, out, _ = run(capsys, "verify", "magnus")
    assert code == 0 and out == "magnus: ok\n" and sizes == [1] * 7

def test_verify_catalan(capsys):
    code, out, _ = run(capsys, "verify", "catalan")
    assert code == 0
    assert "catalan: ok" in out


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "all", "--seed", "0")
    assert code == 0
    assert out.splitlines() == [f"{name}: ok" for name in cli._SUITES]


def test_verify_json_shape(capsys):
    code, out, _ = run(capsys, "--json", "verify", "axioms", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["axioms"] == []


def test_unknown_signal_spec(capsys):
    code, _, err = run(capsys, "eval", "tree", "--expr", "x1",
                       "--signal", "wave:1")
    assert code == 1
    assert "signal spec" in err


@pytest.mark.parametrize("suite", [*cli._SUITES, "all"])
def test_verify_refuses_a_negative_seed_as_usage(capsys, suite):
    # numpy's seeded generators refuse a negative seed, so every suite does
    with pytest.raises(SystemExit) as exc:
        cli.run(["--json", "verify", suite, "--seed", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed: must be a non-negative integer, got '-1'" in err


def test_bad_rule_in_a_series_file_is_named_with_its_form(capsys, tmp_path):
    path = tmp_path / "series.json"
    path.write_text(json.dumps({"rule": "dyson:x"}))
    code, out, err = run(capsys, "--json", "fliess", "eval", "--series", str(path),
                         "--signal", "const:0.5", "--order", "2", "--grid", "8")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "bad series spec 'dyson:x': expected dyson:<N>"}


@pytest.mark.parametrize("argv, code", [
    (["verify", "catalan"], 0),
    (["fliess", "eval", "--series", "dyson:x", "--signal", "const:1", "--order", "1"], 1),
], ids=["ok", "failure"])
def test_main_exits_with_the_code_of_run(capsys, monkeypatch, argv, code):
    # main is the console script's entry point (project.scripts in pyproject.toml)
    monkeypatch.setattr(sys, "argv", ["dendrifliess", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == code
    capsys.readouterr()
