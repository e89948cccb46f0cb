"""Fuzz gate for the command line: whatever argv a small grammar builds, a
run ends in exit code 0, 1 or 2 and never in a traceback.  Under ``--json``
stderr is empty or one ``{"error": ...}`` document, and a successful run
prints one document of finite numbers."""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dendrifliess import cli

FUZZ_SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=300)

X1 = {"l": None, "x": 1, "r": None}

# bodies of the signal file "@signal.csv" and the series file "@series.json"
CSV_FILES = [
    "t,ch,a11\n0,1,1.0\n0.5,1,2.0\n1,1,0.5\n",  # a good one-channel signal
    "t,ch,a11\n0,1,1.0\n",  # one node
    "t,ch,a11,a12\n0,1,1,2\n",  # not a square count of columns
    "t,ch,a11\n0,1,1.0\n0.2,1,2.0\n1,1,0.5\n",  # not uniform
    "t,ch,a11\n0,2,1.0\n1,2,2.0\n",  # channel 1 missing
    "t,ch,a11\n0,1,x\n1,1,2.0\n",  # not a number
    "t,ch,a11\n0,1,nan\n1,1,2.0\n",
    "t,ch,a11\n0,1\n",  # ragged
    "a,b\n",
    "",
]
INFINITE_COEFF = '[{"coeff": Infinity, "tree": {"l": null, "x": 1, "r": null}}]'
HUGE_ENTRY = '[{"coeff": [[' + "9" * 400 + ']], "tree": {"l": null, "x": 1, "r": null}}]'
HUGE_STRING_COEFF = json.dumps([{"coeff": "1e400", "tree": X1}])
HUGE_COEFF = '[{"coeff": ' + "9" * 400 + ', "tree": {"l": null, "x": 1, "r": null}}]'
HUGE_EXPR = "9" * 400 + "*x1"
SERIES_FILES = [
    json.dumps([{"coeff": "1/2", "tree": X1}]),
    json.dumps([{"coeff": [[0.5]], "tree": X1}]),
    json.dumps({"rule": "dyson:3"}),
    json.dumps({"rule": "dyson:-1"}),
    json.dumps({"rule": 5}),
    json.dumps([{"coeff": [[True]], "tree": X1}]),
    json.dumps([{"coeff": [["2"]], "tree": X1}]),
    json.dumps([{"coeff": [[1.0, 2.0], [3.0, 4.0]], "tree": X1}]),
    json.dumps([{"coeff": [[[1.0]]], "tree": X1}]),
    json.dumps([{"coeff": [[1.0], [2.0, 3.0]], "tree": X1}]),
    json.dumps([{"coeff": [1.0, 2.0], "tree": X1}]),
    json.dumps([{"coeff": "1", "tree": {"l": None, "x": 1.5, "r": None}}]),
    json.dumps([{"coeff": "1", "tree": {"l": None, "x": -1, "r": None}}]),
    json.dumps([{"coeff": "1", "tree": {"l": None, "x": 7, "r": None}}]),
    json.dumps([{"coeff": "1", "tree": {"x": 1}}]),
    json.dumps([{"coeff": "1", "tree": [1]}]),
    json.dumps([{"coeff": None, "tree": X1}]),
    json.dumps([{"coeff": "1/0", "tree": X1}]),
    json.dumps([{"tree": X1}]),
    json.dumps([5]),
    INFINITE_COEFF,
    '[{"coeff": NaN, "tree": {"l": null, "x": 1, "r": null}}]',
    '[{"coeff": [[1e999]], "tree": {"l": null, "x": 1, "r": null}}]',
    HUGE_ENTRY,
    HUGE_STRING_COEFF,
    HUGE_COEFF,
    '[{"coeff": "1", "tree": ' + '{"l": null, "x": 1, "r": ' * 3000 + "null" + "}" * 3000 + "}]",
    "{",
    "",
    '"dyson:3"',
]


def edges(good, bad):
    """A good value half the time, so that most runs get past the first check."""
    return st.one_of(st.sampled_from(good), st.sampled_from(bad))


matrices = edges(["1", "0.5", "0,1;-1,0", "1e308"], ["1,2;3", "nan", "inf", "x", ""])
signals = st.one_of(
    st.sampled_from(["const:0.5", "const:0,1;-1,0", "spin:0.7,xzy", "spin:1,rot",
                     "csv:@signal.csv"]),
    st.builds("const:{}".format, matrices),
    st.builds("spin:{},{}".format, edges(["1", "0.7", "1e308"], ["nan", "x", ""]),
              edges(["rot", "xzy", "x"], ["", "abc"])),
    st.sampled_from(["csv:@missing.csv", "foo:1", ""]),
)
exprs = st.one_of(
    edges(["x1", "(x1<x2)", "((x1>x1)<x1)", "2*x1 - 1/2*(x1>x0)", "x0"],
          ["x3", "1", "(x1<x2", "x1<x2", "1/0*x1", "", "x1 ? x2", HUGE_EXPR]),
    st.lists(st.sampled_from(["x1", "x0", "(", ")", "<", ">", "+", "-", "*", "2"]),
             max_size=8).map(" ".join),
)
grids = edges(["1", "2", "3", "16"], ["-3", "-1", "0", "1.5"])
horizons = edges(["1", "0.5", "1e-300", "1e300"], ["0", "-1", "nan", "inf"])
orders = st.sampled_from(["-1", "0", "1", "3", "x"])


def options(**choices):
    """Each option present or left out; present ones in a drawn order."""
    return st.lists(st.sampled_from(sorted(choices)), unique=True).flatmap(
        lambda names: st.tuples(*(choices[n].map(lambda v, n=n: [n, v]) for n in names)))


def flat(parts):
    return [v for part in parts for v in part]


commands = st.one_of(
    st.builds(lambda e, s, opts: ["eval", "tree", "--expr", e, "--signal", s, *flat(opts)],
              exprs, signals, options(**{"--grid": grids, "--horizon": horizons})),
    st.builds(lambda series, s, order, opts, cert:
              ["fliess", "eval", "--series", series, "--signal", s, "--order", order,
               *flat(opts), *cert],
              edges(["dyson:0", "dyson:3", "@series.json"],
                    ["dyson:257", "dyson:x", "dyson:", "@missing.json"]),
              signals, orders,
              options(**{"--grid": grids, "--horizon": horizons}),
              st.sampled_from([[], ["--certificate"]])),
    st.builds(lambda s, opts, rk4: ["magnus", "--signal", s, *flat(opts), *rk4],
              signals,
              options(**{"--grid": grids, "--horizon": horizons,
                         "--order": edges(["1", "4", "8"], ["-1", "0", "9", "x"]),
                         "--refine": edges(["1", "4"], ["-1", "0"])}),
              st.sampled_from([[], ["--compare-rk4"]])),
    st.builds(lambda order, word: ["trees", "enum", "--order", order, *word],
              edges(["0", "3"], ["-1", "15", "x"]),
              st.sampled_from([[], ["--decorate", "x1x2x1"], ["--decorate", "x1"],
                               ["--decorate", "y1"], ["--decorate", "x"]])),
    st.builds(lambda op, a, b: ["algebra", op, a, b],
              st.sampled_from(["shuffle", "prec", "succ", "prelie"]), exprs, exprs),
    st.builds(lambda order, letter: ["algebra", "char", "--order", order, "--letter", letter],
              edges(["0", "3"], ["-1", "15"]), edges(["x1", "x0"], ["1", "xx"])),
)


def finite(doc):
    """Whether every number in a JSON document is finite."""
    if isinstance(doc, dict):
        return all(finite(v) for v in doc.values())
    if isinstance(doc, list):
        return all(finite(v) for v in doc)
    return not isinstance(doc, float) or math.isfinite(doc)


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ_SETTINGS
@given(as_json=st.booleans(), argv=commands,
       csv_text=st.sampled_from(CSV_FILES), series_text=st.sampled_from(SERIES_FILES))
@example(as_json=True, argv=["magnus", "--signal", "spin:1,xy", "--horizon", "nan"],
         csv_text=CSV_FILES[0], series_text=SERIES_FILES[0])
@example(as_json=False, argv=["eval", "tree", "--expr", "x1", "--signal", "spin:1,xzy",
                              "--grid", "1", "--horizon", "0"],
         csv_text=CSV_FILES[0], series_text=SERIES_FILES[0])
@example(as_json=False, argv=["fliess", "eval", "--series", "@series.json", "--signal",
                              "const:1", "--order", "-1"],
         csv_text=CSV_FILES[0], series_text=INFINITE_COEFF)
@example(as_json=False, argv=["fliess", "eval", "--series", "@series.json", "--signal",
                              "const:1", "--order", "-1"],
         csv_text=CSV_FILES[0], series_text=HUGE_ENTRY)
@example(as_json=True, argv=["fliess", "eval", "--series", "@series.json", "--signal",
                             "const:1", "--order", "1"],
         csv_text=CSV_FILES[0], series_text=HUGE_STRING_COEFF)
@example(as_json=False, argv=["fliess", "eval", "--series", "@series.json", "--signal",
                              "const:1", "--order", "1", "--certificate"],
         csv_text=CSV_FILES[0], series_text=HUGE_COEFF)
@example(as_json=True, argv=["eval", "tree", "--expr", HUGE_EXPR, "--signal", "const:1.0",
                             "--grid", "4"],
         csv_text=CSV_FILES[0], series_text=SERIES_FILES[0])
def test_cli_never_ends_in_a_traceback(workdir, as_json, argv,
                                       csv_text, series_text):
    (workdir / "signal.csv").write_text(csv_text)
    (workdir / "series.json").write_text(series_text)
    # "@name" is the file ``name`` of the work directory
    argv = (["--json"] if as_json else []) + [a.replace("@", f"{workdir}/") for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # argparse: a usage error
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert caught == []
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.startswith("usage: ")
    elif code == 1:
        assert out == ""
        if as_json:
            assert list(json.loads(err)) == ["error"]
        else:
            assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == ""
        if as_json:
            assert finite(json.loads(out, parse_constant=refuse_constant))
