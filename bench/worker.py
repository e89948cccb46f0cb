"""One workload in one fresh process: set up, run the closed loop, report.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the package sources.
It prints ``READY`` once set-up (imports, input generation and one untimed
warm-up op) is done; in ``setup`` mode it then exits.  In ``measure`` mode it
runs ops back to back for ``--seconds`` (a single client, closed loop),
verifying each result after its timer stops.  In ``trace`` mode it spends
the first half untraced and the second half with the tracer on.  The last
line of its standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from statistics import median

import workloads
from tracer import LAYERS, Tracer

MAX_MESSAGES = 5


def closed_loop(w, inputs, seconds: float, first: int, tracer: Tracer | None = None):
    """Run ops until ``seconds`` of wall time pass; return the loop record."""
    durations: list[float] = []
    failures: list[str] = []
    worst = 0.0
    last = None
    deadline = time.perf_counter() + seconds
    k = first
    while time.perf_counter() < deadline:
        inp = inputs[k % len(inputs)]
        if tracer is not None:
            tracer.begin_op(k)
        start = time.perf_counter()
        try:
            out = w.op(inp)
            error = None
        except Exception as exc:  # a raising op is a failed op, not a crash
            out, error = None, f"op {k} raised {type(exc).__name__}: {exc}"
        end = time.perf_counter()
        if tracer is not None:
            tracer.end_op(f"op:{w.name}")
        durations.append(end - start)
        if tracer is not None and out is not None and hasattr(w, "output_bytes"):
            tracer.counters["cli.bytes_out"] += w.output_bytes(out)
        if error is None:
            ok, ratio, message = check(w, inp, out)
            worst = max(worst, ratio)
            if ok:
                last = (inp, out)
            else:
                error = f"op {k}: {message}"
        if error is not None:
            failures.append(error)
        k += 1
    return {"durations": durations, "failures": failures, "error_ratio": worst,
            "next": k, "last": last}


def check(w, inp, out):
    """``w.verify``, with a result it cannot even read counted as wrong."""
    try:
        return w.verify(inp, out)
    except Exception as exc:
        return False, 0.0, f"verification raised {type(exc).__name__}: {exc}"


def rejections(w, last) -> dict[str, bool]:
    """Whether the verifier rejects each corrupted copy of a good output."""
    if last is None:
        return {"no verified output to corrupt": False}
    inp, out = last
    return {label: not check(w, inp, bad)[0] for label, bad in w.corruptions(inp, out)}


def layer_metrics(tracer: Tracer, ops: int, overhead_ratio: float) -> dict[str, float]:
    """Per-layer values per traced op; ratios are ratios of totals."""
    c = tracer.counters
    self_s, calls = tracer.layer_self_s(), tracer.layer_calls()
    per_op = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    per_op.update({f"{layer}.calls": calls[layer] for layer in ("trees", "algebra", "signals")})
    for name in ("trees.nodes_built", "trees.hash_calls", "trees.eq_calls",
                 "algebra.pairs", "algebra.terms_out", "signals.trapezoid_bytes",
                 "integrals.values_calls", "integrals.trees_evaluated",
                 "integrals.matmul_flops", "operators.trees_visited",
                 "operators.rk4_s", "operators.rk4_steps", "operators.expm_s",
                 "operators.expm_matrices"):
        per_op[name] = c[name]
    per_op["cli.bytes_out"] = c["cli.bytes_out"]
    out = {name: value / ops for name, value in per_op.items()}
    lookups = c["integrals.cache_hits"] + c["integrals.trees_evaluated"]
    out["integrals.cache_hit_ratio"] = c["integrals.cache_hits"] / lookups if lookups else 0.0
    out["algebra.truncate_kept_ratio"] = (c["algebra.truncate_kept"] / c["algebra.truncate_in"]
                                          if c["algebra.truncate_in"] else 0.0)
    out["operators.magnus_iterations"] = (c["operators.magnus_iterations"]
                                          / c["operators.magnus_calls"]
                                          if c["operators.magnus_calls"] else 0.0)
    out["trace.overhead_ratio"] = overhead_ratio
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    import numpy as np

    w = workloads.WORKLOADS[args.workload]()
    inputs = w.make_inputs(args.seed)
    w.op(w.warmup_input(inputs))  # fills lazy caches, as every later op finds them
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    result = {"numpy": np.__version__, "python": sys.version.split()[0],
              "stacked_array_bytes": getattr(w, "stacked_array_bytes", None)}
    if args.mode == "measure":
        loop = closed_loop(w, inputs, args.seconds, 0)
        loops = [loop]
    else:
        plain = closed_loop(w, inputs, args.seconds / 2, 0)
        tracer = Tracer()
        tracer.install()
        try:
            loop = closed_loop(w, inputs, args.seconds / 2, plain["next"], tracer)
        finally:
            tracer.uninstall()
        loops = [plain, loop]
        traced = len(loop["durations"])
        overhead = median(loop["durations"]) / median(plain["durations"])
        result["layers"] = layer_metrics(tracer, traced, overhead)
        result["untraced_durations"] = plain["durations"]
        if args.trace_out:
            os.makedirs(os.path.dirname(args.trace_out) or ".", exist_ok=True)
            tracer.write(args.trace_out, {"workload": args.workload, "seed": args.seed,
                                          "traced_ops": traced})
            result["trace_file"] = args.trace_out
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["durations"] = loop["durations"]
    result["attempted"] = sum(len(lp["durations"]) for lp in loops)
    failures = [f for lp in loops for f in lp["failures"]]
    result["failed"] = len(failures)
    result["failures"] = failures[:MAX_MESSAGES]
    result["error_ratio"] = max(lp["error_ratio"] for lp in loops)
    result["rejections"] = rejections(w, loop["last"] or loops[0]["last"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
