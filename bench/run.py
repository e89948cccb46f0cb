"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload <exponent|products|series|flow> \\
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root; it uses the package sources under ``src``.
Each workload runs as a single client in its own fresh single-threaded
process (``worker.py``; BLAS thread variables set to 1).  With ``--trace 0``
the run starts ``SETUP_RUNS`` processes, takes the median of their set-up
times, and measures the closed loop in the last one.  With ``--trace 1`` it
measures the per-layer metrics in one process (see ``worker.py``) and writes
the spans to ``bench/out/trace-<workload>.json``.

Standard output: one line per metric (name, value, unit), a ``run_record``
line, and, last, the JSON result line.  Exit code 0 when a result is
printed; 2, without a result, when the package or a worker cannot run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("exponent", "products", "series", "flow")
SETUP_RUNS = 3
DEADLINE_S = 170.0
TAIL_SAMPLES = 10
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {
    "op_s.p50": "s",
    "op_s.tail": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "trees.self_s": "s", "trees.calls": "count", "trees.nodes_built": "count",
    "trees.hash_calls": "count", "trees.eq_calls": "count",
    "algebra.self_s": "s", "algebra.calls": "count", "algebra.pairs": "count",
    "algebra.terms_out": "count", "algebra.truncate_kept_ratio": "ratio",
    "signals.self_s": "s", "signals.calls": "count", "signals.trapezoid_bytes": "B",
    "integrals.self_s": "s", "integrals.values_calls": "count",
    "integrals.trees_evaluated": "count", "integrals.cache_hit_ratio": "ratio",
    "integrals.matmul_flops": "flop",
    "operators.self_s": "s", "operators.magnus_iterations": "count",
    "operators.trees_visited": "count", "operators.rk4_s": "s",
    "operators.rk4_steps": "count", "operators.expm_s": "s",
    "operators.expm_matrices": "count",
    "cli.self_s": "s", "cli.bytes_out": "B",
    "trace.overhead_ratio": "ratio",
}
#: per-layer values derived from array shapes rather than observed
COMPUTED = ("integrals.matmul_flops", "signals.trapezoid_bytes")


class BenchError(Exception):
    pass


class Worker:
    """A worker process; ``ready()`` returns seconds from start to READY."""

    def __init__(self, args, mode: str, deadline: float, extra=()):
        env = dict(os.environ)
        env.update({name: "1" for name in BLAS_THREAD_VARS})
        env["PYTHONHASHSEED"] = "0"
        src = os.path.abspath("src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode, *extra]
        self.deadline = deadline
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)

    def _remaining(self) -> float:
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise BenchError("worker ran past the deadline")
        return left

    def ready(self) -> float:
        readable, _, _ = select.select([self.proc.stdout], [], [], self._remaining())
        line = self.proc.stdout.readline() if readable else ""
        elapsed = time.perf_counter() - self.start
        if line.strip() != "READY":
            raise BenchError(f"worker did not get ready (got {line.strip()!r})")
        return elapsed

    def finish(self) -> None:
        """Wait for a set-up worker to exit."""
        try:
            code = self.proc.wait(timeout=self._remaining())
        except subprocess.TimeoutExpired:
            raise BenchError("set-up worker ran past the deadline") from None
        if code != 0:
            raise BenchError(f"set-up worker exited with code {code}")

    def result(self) -> dict:
        try:
            out, _ = self.proc.communicate(timeout=self._remaining())
        except subprocess.TimeoutExpired:
            raise BenchError("worker ran past the deadline") from None
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")
        lines = out.strip().splitlines()
        if not lines:
            raise BenchError("worker printed no result")
        return json.loads(lines[-1])

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def tail(durations: list[float]) -> tuple[int, float, int]:
    """The highest whole percentile with at least TAIL_SAMPLES samples above
    its nearest-rank value (never below the median): (p, value, beyond)."""
    n = len(durations)
    p = max(50, math.floor(100 * (n - TAIL_SAMPLES) / n)) if n else 50
    rank = max(1, math.ceil(p * n / 100))
    return p, sorted(durations)[rank - 1], n - rank


def machine() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    l2 = None
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index2/size") as fh:
            text = fh.read().strip()
        l2 = int(text[:-1]) * 1024 if text.endswith("K") else int(text)
    except (OSError, ValueError):
        pass
    return {"cpu_model": cpu, "nproc": os.cpu_count(),
            "nproc_usable": len(os.sched_getaffinity(0)), "l2_bytes": l2}


def git_commit() -> str | None:
    if not os.path.isdir(".git"):
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return done.stdout.strip() or None


def run(args) -> tuple[dict, dict, dict]:
    """Start the workers; return (result line, metric values, run record)."""
    deadline = time.perf_counter() + DEADLINE_S
    workers: list[Worker] = []
    setups: list[float] = []
    try:
        if args.trace:
            trace_file = os.path.join("bench", "out", f"trace-{args.workload}.json")
            workers.append(Worker(args, "trace", deadline, ("--trace-out", trace_file)))
            workers[-1].ready()
        else:
            for _ in range(SETUP_RUNS - 1):
                workers.append(Worker(args, "setup", deadline))
                setups.append(workers[-1].ready())
                workers[-1].finish()
            workers.append(Worker(args, "measure", deadline))
            setups.append(workers[-1].ready())
        res = workers[-1].result()
    finally:
        for w in workers:
            w.stop()

    durations = res["durations"]
    if args.trace:
        metrics = {name: res["layers"][name] for name in LAYER_UNITS}
    else:
        p, tail_value, beyond = tail(durations)
        metrics = {
            "op_s.p50": statistics.median(durations),
            "op_s.tail": tail_value,
            "ops_per_s": (len(durations) - res["failed"]) / sum(durations),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "git_commit": git_commit(),
        **machine(),
        "python": res["python"],
        "numpy": res["numpy"],
        "blas_threads": {name: "1" for name in BLAS_THREAD_VARS},
        "clients": 1,
        "loop": "closed",
        "ops_timed": len(durations),
        "ops_attempted": res["attempted"],
        "ops_failed": res["failed"],
        "fail_ratio": res["failed"] / res["attempted"],
        "error_ratio": res["error_ratio"],
        "failures": res["failures"],
        "verifier_rejects": res["rejections"],
    }
    stack = res["stacked_array_bytes"]
    if stack is not None:
        record["stacked_array_bytes"] = stack
        record["stacked_array_fits_l2"] = record["l2_bytes"] is not None \
            and stack <= record["l2_bytes"]
    if args.trace:
        record["computed_metrics"] = list(COMPUTED)
        record["trace_file"] = res.get("trace_file")
        record["untraced_op_s.p50"] = statistics.median(res["untraced_durations"])
    else:
        record["op_s.tail"] = {"percentile": p, "samples_beyond": beyond,
                               "samples": len(durations)}
        record["setup_s_samples"] = setups
    correct = res["failed"] == 0 and all(res["rejections"].values())
    line = {"correct": correct, "attempted": res["attempted"], "failed": res["failed"]}
    return line, metrics, record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "dendrifliess", "__init__.py")):
        print("bench: no package sources at src/dendrifliess; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        line, metrics, record = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    for name, value in metrics.items():
        note = " (computed)" if name in COMPUTED else ""
        print(f"{args.workload:9s} {name:30s} {value!r} {units[name]}{note}")
    if not args.trace:
        print(f"{args.workload:9s} {'fail_ratio':30s} {record['fail_ratio']!r} ratio")
        print(f"{args.workload:9s} {'error_ratio':30s} {record['error_ratio']!r} ratio")
    print("run_record " + json.dumps(record))
    line["metrics"] = {name: {"value": value, "unit": units[name]}
                       for name, value in metrics.items()}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
