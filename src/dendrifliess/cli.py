"""Batch command-line front end.

Subcommands: ``trees``, ``algebra``, ``eval``, ``fliess``, ``magnus``,
``verify``.  Output is CSV/JSON on stdout or files; identical argv and seed
give identical output.  Exit codes: 0 success, 1 computation or verification
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import random
import sys
from fractions import Fraction

import numpy as np

from . import algebra, integrals, operators, signals, trees

SIGNAL_SPEC_HELP = "signal spec: csv:<path> | const:<matrix like '0,1;-1,0'> | spin:<Bmag>,<schedule>"

#: order of the trapezoid scheme behind every iterated integral (``eval --json``)
SCHEME_ORDER = 2


class CliError(Exception):
    pass


def _parse_matrix(text: str) -> np.ndarray:
    try:
        rows = [[float(v) for v in row.split(",")] for row in text.split(";")]
        mat = np.array(rows)
    except ValueError as exc:
        raise CliError(f"bad matrix literal {text!r}: {exc}") from exc
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise CliError(f"matrix literal {text!r} is not square")
    return mat


def _parse_signal(spec: str, grid: int, horizon: float) -> signals.MatrixSignal:
    kind, _, rest = spec.partition(":")
    if kind == "csv":
        return signals.signal_from_csv(rest)
    if grid < 1:
        raise CliError(f"--grid must be a positive number of steps, got {grid}")
    if kind == "const":
        return signals.constant_signal(_parse_matrix(rest), horizon, grid)
    if kind == "spin":
        mag_text, _, schedule = rest.partition(",")
        try:
            magnitude = float(mag_text)
        except ValueError:
            schedule = ""  # refused below, as a missing schedule is
        if not schedule:
            raise CliError(f"bad signal spec {spec!r}: expected spin:<Bmag>,<schedule>")
        return signals.spin_field(magnitude, schedule, horizon, grid)
    raise CliError(f"unknown signal spec {spec!r} ({SIGNAL_SPEC_HELP})")


def _print_json(doc) -> None:
    """One JSON document on stdout; a NaN or infinity raises ``ValueError``
    (a JSON error), since JSON cannot hold it.  The json module recurses once
    per nesting level, so a very deep tree cannot be written as JSON."""
    try:
        text = json.dumps(doc, allow_nan=False)
    except RecursionError:
        raise CliError("the result nests too deeply to write as JSON") from None
    print(text)


def _write_csv(path: str, result: integrals.EvaluationResult) -> None:
    n = result.values.shape[-1]
    header = ["t"] + [f"e{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t, mat in zip(result.grid, result.values):
            writer.writerow([repr(float(t))] + [repr(float(v)) for v in mat.ravel()])


def _require_finite(values: np.ndarray) -> None:
    """Refuse values that are not finite in every output mode: JSON cannot
    hold them, and CSV or text would pass an overflow on as data."""
    if not np.isfinite(values).all():
        raise CliError("the values are not finite, so none are written")


def _write_result(args, result: integrals.EvaluationResult, title: str,
                  extra: dict, side: dict | None = None) -> None:
    """The one output path of grid values (``eval tree``, ``fliess eval``).

    ``--json`` without ``--out`` prints one document ``{"t", "values",
    **extra}``.  Otherwise ``side``, if given, is printed as JSON, and the
    values go to the ``--out`` CSV file or out as ``title`` and the value at
    the horizon.
    """
    _require_finite(result.values)
    if args.json and not args.out:
        _print_json({"t": result.grid.tolist(), "values": result.values.tolist(), **extra})
        return
    if side is not None:
        _print_json(side)
    if args.out:
        _write_csv(args.out, result)
    else:
        print(title)
        print(result.at_horizon)


def _print_polynomial(p: algebra.TreePolynomial, as_json: bool) -> None:
    if as_json:
        _print_json(p.to_json())
    else:
        print(algebra.render_polynomial(p))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_trees(args) -> int:
    ts = trees.enumerate_trees(args.order)
    word = trees.parse_word(args.decorate) if args.decorate else None
    show = trees.tree_to_json if args.json else algebra.render_tree_expr
    records = [shape if word is None else show(trees.decorate(word, shape)) for shape in ts]
    if args.json:
        _print_json({"order": args.order, "count": len(ts), "trees": records})
    else:
        for rec in records:
            print(rec)
    return 0


#: the products of ``algebra <name> <expr1> <expr2>``
_PRODUCTS = {"shuffle": algebra.shuffle, "prec": algebra.prec, "succ": algebra.succ,
             "prelie": algebra.pre_lie}


def _cmd_algebra(args) -> int:
    if args.algebra_cmd == "char":
        letter_word = trees.parse_word(args.letter)
        if len(letter_word) != 1:
            raise CliError("--letter takes a single letter like x1")
        _print_polynomial(algebra.char_trees(args.order, letter_word[0]), args.json)
        return 0
    p = algebra.parse_dendriform_expr(args.expr1)
    q = algebra.parse_dendriform_expr(args.expr2)
    _print_polynomial(_PRODUCTS[args.algebra_cmd](p, q), args.json)
    return 0


def _cmd_eval(args) -> int:
    p = algebra.parse_dendriform_expr(args.expr)
    u = _parse_signal(args.signal, args.grid, args.horizon)
    _write_result(args, integrals.evaluate_polynomial(p, u),
                  f"value at horizon t = {u.horizon}:", {"scheme_order": SCHEME_ORDER})
    return 0


def _load_series(spec: str) -> operators.GeneratingSeries:
    """``dyson:<N>``, or a JSON file with ``{"rule": "dyson:<N>"}`` or a list
    of ``{coeff, tree}`` records."""
    if not spec.startswith("dyson:"):
        with open(spec) as fh:
            try:
                data = json.load(fh)
            except RecursionError:  # json.load recurses once per nesting level
                raise CliError("the series file nests too deeply to read as JSON") from None
        rule = data.get("rule") if isinstance(data, dict) else None
        if not (isinstance(rule, str) and rule.startswith("dyson:")):
            return operators.finite_series(operators.terms_from_json(data))
        spec = rule
    try:
        order = int(spec.split(":", 1)[1])
    except ValueError:
        raise CliError(f"bad series spec {spec!r}: expected dyson:<N>") from None
    return operators.dyson_series(order)


def _certificate(series: operators.GeneratingSeries, u: signals.MatrixSignal,
                 order: int) -> dict:
    if series.growth_regime != "geometric":
        return {"available": False, "reason": f"growth regime {series.growth_regime}"}
    return operators.convergence_certificate(series, u, order).to_dict()


def _cmd_fliess(args) -> int:
    series = _load_series(args.series)
    u = _parse_signal(args.signal, args.grid, args.horizon)
    out = operators.evaluate_fliess(series, u, args.order)
    cert = _certificate(series, u, args.order) if args.certificate else None
    _write_result(args, out, "y(T) =", {} if cert is None else {"certificate": cert}, cert)
    return 0


def _cmd_magnus(args) -> int:
    u = _parse_signal(args.signal, args.grid, args.horizon)
    series = operators.magnus_generating_series(args.order)
    omega = operators.magnus_exponent(series, u)
    _require_finite(omega.at_horizon)
    z_T = operators.matrix_exp(omega.at_horizon)  # only the horizon is printed
    _require_finite(z_T)
    payload: dict = {
        "order": args.order,
        "orientation": series.orientation,
        "generating_series": series.poly.to_json(),
        "omega_T": omega.at_horizon.tolist(),
        "z_T": z_T.tolist(),
    }
    if args.compare_rk4:
        ref = operators.rk4_reference(u, args.refine)
        _require_finite(ref[-1])
        payload["rk4_T"] = ref[-1].tolist()
        payload["deviation"] = float(signals.stack_norm1(z_T - ref[-1]))
    if args.json:
        _print_json(payload)
    else:
        print(f"orientation: {payload['orientation']}")
        print(f"omega(T) =\n{omega.at_horizon}")
        print(f"z(T) =\n{z_T}")
        if args.compare_rk4:
            print(f"deviation vs RK4: {payload['deviation']:.3e}")
    return 0


# ---------------------------------------------------------------------------
# verification suites (seeded, desk scale)

def _random_homogeneous(rng: random.Random, order: int, m: int = 2) -> algebra.TreePolynomial:
    shape = rng.choice(trees.enumerate_trees(order))
    word = tuple(rng.randint(0, m) for _ in range(order))
    coeff = Fraction(rng.randint(1, 5), rng.randint(1, 5))
    return algebra.TreePolynomial.single(trees.decorate(word, shape), coeff)


def _verify_axioms(seed: int) -> list[str]:
    rng = random.Random(seed)
    failures = []
    for k in range(100):
        a, b, c = (_random_homogeneous(rng, rng.randint(1, 3)) for _ in range(3))
        checks = {
            "(a<b)<c = a<(b sh c)":
                algebra.prec(algebra.prec(a, b), c)
                == algebra.prec(a, algebra.shuffle(b, c)),
            "(a>b)<c = a>(b<c)":
                algebra.prec(algebra.succ(a, b), c)
                == algebra.succ(a, algebra.prec(b, c)),
            "a>(b>c) = (a sh b)>c":
                algebra.succ(a, algebra.succ(b, c))
                == algebra.succ(algebra.shuffle(a, b), c),
            "< + > = sh":
                algebra.prec(a, b) + algebra.succ(a, b) == algebra.shuffle(a, b),
            "sh associative":
                algebra.shuffle(algebra.shuffle(a, b), c)
                == algebra.shuffle(a, algebra.shuffle(b, c)),
        }
        failures += [f"case {k}: {name}" for name, ok in checks.items() if not ok]
    return failures


def _verify_catalan(seed: int) -> list[str]:
    failures = []
    for n in range(11):
        if len(trees.enumerate_trees(n)) != trees.catalan(n):
            failures.append(f"count mismatch at order {n}")
    for n in range(9):
        for side, comb in (("left", trees.left_comb), ("right", trees.right_comb)):
            if trees.tree_factorial(trees.skeleton(comb((1,) * n))) != math.factorial(n):
                failures.append(f"{side} comb factorial at order {n}")
    return failures


def _verify_product_theorem(seed: int) -> list[str]:
    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    failures = []
    for k in range(10):
        n1, n2 = rng.randint(1, 2), rng.randint(1, 2)
        t1 = trees.decorate(tuple(rng.randint(0, 2) for _ in range(n1)),
                            rng.choice(trees.enumerate_trees(n1)))
        t2 = trees.decorate(tuple(rng.randint(0, 2) for _ in range(n2)),
                            rng.choice(trees.enumerate_trees(n2)))
        coarse = signals.random_smooth_signal(nprng, 2, 2, 1.0, 256)
        fine = signals.MatrixSignal(
            _refine_samples(coarse.samples), coarse.horizon)
        r1 = integrals.check_product_identity(t1, t2, coarse)
        r2 = integrals.check_product_identity(t1, t2, fine)
        if r2 > 1e-4:
            failures.append(f"case {k}: fine residual {r2:.2e}")
        if r1 > 1e-12 and not 3.0 <= r1 / max(r2, 1e-300) <= 5.5:
            failures.append(f"case {k}: ratio {r1 / r2:.2f}")
    return failures


def _refine_samples(samples: np.ndarray) -> np.ndarray:
    """The samples with the midpoint of each step inserted between its ends."""
    out = np.repeat(samples, 2, axis=1)[:, :-1]
    out[:, 1::2] = 0.5 * (samples[:, :-1] + samples[:, 1:])
    return out


def _verify_bounds(seed: int) -> list[str]:
    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    failures = []
    u = signals.random_smooth_signal(nprng, 2, 2, 1.0, 256)
    for k in range(50):
        n = rng.randint(1, 4)
        t = trees.decorate(tuple(rng.randint(0, 2) for _ in range(n)),
                           rng.choice(trees.enumerate_trees(n)))
        lhs, rhs = integrals.check_ubar_domination(t, u)
        if lhs > rhs * (1 + 1e-6) + 1e-9:
            failures.append(f"case {k}: domination {lhs:.3e} > {rhs:.3e}")
    one = signals.constant_signal(np.array([[1.0]]), 1.0, 1000)
    for n in range(1, 5):
        for shape in trees.enumerate_trees(n):
            t = trees.decorate((1,) * n, shape)
            got = integrals.evaluate_tree(t, one).at_horizon[0, 0]
            want = 1.0 / trees.tree_factorial(shape)
            if abs(got - want) > 1e-6:
                failures.append(f"closed form at order {n}: {got} vs {want}")
        if integrals.check_factorial_identity(n, one) > 1e-6:
            failures.append(f"factorial identity at n={n}")
    return failures


def _verify_magnus(seed: int) -> list[str]:
    failures = []
    u = signals.spin_field(1.0, "rot", 1.0, 512)
    u = u.scaled(0.5 / signals.signal_norm(u))
    ref = operators.rk4_reference(u, 4)
    errs = []
    for n in (1, 2, 3, 4):
        omega = operators.magnus_exponent(operators.magnus_generating_series(n), u)
        z_T = operators.matrix_exp(omega.at_horizon)
        errs.append(float(signals.stack_norm1(z_T - ref[-1])))
    if not all(a > b for a, b in zip(errs, errs[1:])):
        failures.append(f"errors not decreasing: {errs}")
    if errs[-1] > 1e-4:
        failures.append(f"error at order 4 is {errs[-1]:.2e}")
    if operators.resolve_pre_lie_orientation(u) != "standard":
        failures.append("orientation resolution did not pick 'standard'")
    return failures


_SUITES = {
    "axioms": _verify_axioms,
    "catalan": _verify_catalan,
    "product-theorem": _verify_product_theorem,
    "bounds": _verify_bounds,
    "magnus": _verify_magnus,
}


def _seed(text: str) -> int:
    """A ``--seed``: a non-negative integer, as numpy's seeded generators need."""
    with contextlib.suppress(ValueError):
        if (seed := int(text)) >= 0:
            return seed
    raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")


def _cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    all_failures: dict[str, list[str]] = {}
    for name in names:
        failures = all_failures[name] = _SUITES[name](args.seed)
        status = "ok" if not failures else f"FAILED ({len(failures)})"
        if not args.json:
            print(f"{name}: {status}")
            for f in failures:
                print(f"  {f}")
    if args.json:
        _print_json({"seed": args.seed, "results": all_failures})
    return 0 if not any(all_failures.values()) else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dendrifliess",
        description="trees, dendriform products, iterated integrals and "
                    "operator evaluation on matrix signals")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output (and JSON errors on stderr)")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("trees", help="enumerate/inspect trees")
    tsub = p.add_subparsers(dest="tree_cmd", required=True)
    enum = tsub.add_parser("enum")
    enum.add_argument("--order", type=int, required=True)
    enum.add_argument("--decorate", help="word like x1x2x1 to decorate with")
    enum.set_defaults(func=_cmd_trees)

    p = sub.add_parser("algebra", help="symbolic products")
    asub = p.add_subparsers(dest="algebra_cmd", required=True)
    for name in _PRODUCTS:
        ap = asub.add_parser(name)
        ap.add_argument("expr1")
        ap.add_argument("expr2")
        ap.set_defaults(func=_cmd_algebra)
    ap = asub.add_parser("char")
    ap.add_argument("--order", type=int, required=True)
    ap.add_argument("--letter", default="x1")
    ap.set_defaults(func=_cmd_algebra)

    p = sub.add_parser("eval", help="evaluate iterated integrals")
    esub = p.add_subparsers(dest="eval_cmd", required=True)
    ep = esub.add_parser("tree")
    ep.add_argument("--expr", required=True)
    ep.add_argument("--signal", required=True, help=SIGNAL_SPEC_HELP)
    ep.add_argument("--grid", type=int, default=256)
    ep.add_argument("--horizon", type=float, default=1.0)
    ep.add_argument("--out", help="CSV output path")
    ep.set_defaults(func=_cmd_eval)

    p = sub.add_parser("fliess", help="truncated operator evaluation")
    fsub = p.add_subparsers(dest="fliess_cmd", required=True)
    fp = fsub.add_parser("eval")
    fp.add_argument("--series", required=True, help="JSON file or dyson:<N>")
    fp.add_argument("--signal", required=True, help=SIGNAL_SPEC_HELP)
    fp.add_argument("--order", type=int, required=True)
    fp.add_argument("--grid", type=int, default=256)
    fp.add_argument("--horizon", type=float, default=1.0)
    fp.add_argument("--certificate", action="store_true")
    fp.add_argument("--out", help="CSV output path")
    fp.set_defaults(func=_cmd_fliess)

    p = sub.add_parser("magnus", help="exponent recursion vs the ODE oracle")
    p.add_argument("--signal", required=True, help=SIGNAL_SPEC_HELP)
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--grid", type=int, default=512)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--compare-rk4", action="store_true")
    p.add_argument("--refine", type=int, default=4)
    p.set_defaults(func=_cmd_magnus)

    p = sub.add_parser("verify", help="run seeded verification suites")
    p.add_argument("suite", choices=list(_SUITES) + ["all"])
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_verify)

    return parser


#: the parser of every :func:`run` call in the process, built on the first;
#: argparse keeps no state from one parse to the next
_parser = functools.cache(build_parser)


def run(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # a non-finite result is refused on output, so numpy's overflow
        # warnings would only put text ahead of the error (or the JSON error)
        with np.errstate(all="ignore"):
            return args.func(args)
    except (CliError, ValueError, OSError, MemoryError, RecursionError) as exc:
        # a grid too large to allocate ends in numpy's MemoryError
        if getattr(args, "json", False):
            print(json.dumps({"error": str(exc)}), file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
