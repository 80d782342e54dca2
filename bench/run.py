"""peaklab benchmark harness (standard library only).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-check
    python3 bench/run.py --record

Each repetition is a fresh, single-threaded worker process (worker.py) that
imports peaklab cold and runs the seed's op list; one worker runs at a time.
A run repeats workers for --seconds (at least three untraced ones).  Every
repetition runs the same ops in the same order from the same cold start;
the timing metrics are built from each op's median latency over the
repetitions.
--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced workers and prints the per-layer metrics, with the tracing overhead
as traced wall_s / untraced wall_s.

Every op's result is reduced to a canonical string and its sha256 compared
with expected.json, which --record writes from the current source tree.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The run's context, per-repetition figures and, when traced, the
spans are written to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = SRC / "peaklab"
EXPECTED = BENCH / "expected.json"
OUT = ROOT / ".bench_out"

MIN_UNTRACED = 3
WORKER_TIMEOUT_S = 150
RECORD_TIMEOUT_S = 900

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

# Per-layer counters that must read non-zero on each workload; a traced run
# that sees one at zero has lost its wrapper binding and fails.
_CALLS = {
    "ga_tensor": ("perms.compose", "perms.masks", "groupalgebra.verify_identity",
                  "groupalgebra.structure_constants", "exact.UniPoly.call",
                  "exact.interpolate", "posets.chain_weight_sum.count",
                  "orderpolys.order_polynomial"),
    "ga_convolve": ("perms.compose", "perms.validate_perm", "groupalgebra.GAElem.init",
                    "groupalgebra.ga_multiply", "groupalgebra.structure_polynomial",
                    "groupalgebra.idempotents", "groupalgebra.class_sum",
                    "groupalgebra.span_rank", "groupalgebra.multiplicative_closure"),
    "qsym_enum": ("exact.MultiPoly.mul", "exact.MultiPoly.add",
                  "posets.chain_weight_sum.poly", "qsym.delta_expansion",
                  "qsym.truncate_realize", "qsym.realize_basis",
                  "qsym.truncated_enumerator", "qsym.bipartite_check"),
    "small_requests": ("perms.masks", "posets.chain_weight_sum.count",
                       "orderpolys.order_polynomial", "orderpolys.peak_polynomial",
                       "orderpolys.identity_check_43", "cli.main"),
}
EXPECT_NONZERO = {
    name: [f"{c}.calls" for c in calls] + [tracer.ELEMENTS]
    + ([tracer.REFUSALS] if name == "small_requests" else [])
    for name, calls in _CALLS.items()
}


class HarnessError(RuntimeError):
    """The benchmark could not produce a result."""


# --- workers ---------------------------------------------------------------------


def _worker_env() -> dict:
    """The caller's environment without Python or peaklab overrides.

    PEAKLAB_MAX_N would silently move every size guard; the hash seed is
    fixed so set and dict iteration orders repeat between workers.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "PEAKLAB_"))}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(ops: list[dict], traced: bool, timeout: float = WORKER_TIMEOUT_S) -> dict:
    spawn = time.monotonic()
    cmd = [sys.executable, "-S", str(BENCH / "worker.py"), str(SRC), repr(spawn),
           "1" if traced else "0"]
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_worker_env(), cwd=ROOT)
    try:
        out, err = proc.communicate(json.dumps(ops).encode(), timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise HarnessError(f"worker did not finish within {timeout} s") from None
    if proc.returncode != 0:
        tail = err.decode(errors="replace")[-3000:]
        raise HarnessError(f"worker exited with {proc.returncode}:\n{tail}")
    return json.loads(out)


def compile_package() -> None:
    """Write bytecode before the first timed set-up, so no run pays for it."""
    if not compileall.compile_dir(str(PACKAGE), quiet=1):
        raise HarnessError("peaklab does not compile")


# --- correctness -----------------------------------------------------------------


def load_expected(workload: str) -> dict:
    with open(EXPECTED) as fh:
        return json.load(fh)["outcomes"][workload]


def judge(ops: list[dict], outcomes: list[str], expected: dict) -> tuple[list, int]:
    """Ops whose outcome differs from the record, and how many raised.

    An op recorded as raising (an edge request that crashes at the recorded
    commit) passes if it raises the same way or no longer raises; any other
    op must reproduce its recorded digest.
    """
    wrong, errors = [], 0
    for op, got in zip(ops, outcomes):
        want = expected.get(op["key"])
        raised = got.startswith("error:")
        errors += raised
        if want is not None and want.startswith("error:"):
            ok = got == want or not raised
        else:
            ok = got == want
        if not ok:
            wrong.append({"key": op["key"], "expected": want, "got": got})
    return wrong, errors


# --- statistics ------------------------------------------------------------------


def tail_percentile(count: int) -> int:
    """Highest whole percentile that leaves at least ten ops above it."""
    return max(0, math.floor(100 * (count - 10) / count))


def tail_latency(latencies: list[float]) -> float:
    """Nearest-rank value at tail_percentile(len(latencies))."""
    ordered = sorted(latencies)
    rank = math.ceil(tail_percentile(len(ordered)) * len(ordered) / 100)
    return ordered[max(rank, 1) - 1]


def op_latencies(reps: list[dict]) -> list[float]:
    """Each op's median latency over the repetitions (same op, same position)."""
    return [statistics.median(times) for times in zip(*(r["latency_s"] for r in reps))]


def end_to_end(reps: list[dict], errors: int, attempted: int) -> dict:
    med = statistics.median
    ops = op_latencies(reps)
    return {
        "setup_s": med(r["setup_s"] for r in reps),
        "wall_s": sum(ops),
        "op_p50_ms": med(ops) * 1000,
        "op_tail_ms": tail_latency(ops) * 1000,
        "peak_rss_mb": med(r["rss_mb"] for r in reps),
        "success_rate": 1 - errors / attempted,
    }


def per_layer(traced: list[dict], untraced: list[dict], errors: int, attempted: int) -> dict:
    values = {name: statistics.median(r["trace"]["metrics"][name] for r in traced)
              for name in tracer.metric_names()}
    values["trace_overhead"] = sum(op_latencies(traced)) / sum(op_latencies(untraced))
    values["error_rate"] = errors / attempted
    return values


def layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name in ("trace_overhead", "error_rate"):
        return "ratio"
    return "count"


# --- context ---------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def context(workload: str, seed: int, ops: list[dict]) -> dict:
    return {
        "workload": workload,
        "why": workloads.WHY[workload],
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "ops": len(ops),
        "op_mix": workloads.op_mix(ops),
        "op_tail_percentile": tail_percentile(len(ops)),
    }


# --- modes -----------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = workloads.op_list(workload, seed)
    expected = load_expected(workload)
    compile_package()
    batch = (False, True) if trace else (False,)
    reps: list[tuple[bool, dict]] = []
    took: dict[bool, list[float]] = {False: [], True: []}
    start = time.monotonic()
    while True:
        for traced in batch:
            t0 = time.monotonic()
            reps.append((traced, run_worker(ops, traced)))
            took[traced].append(time.monotonic() - t0)
        enough = trace or len(reps) >= MIN_UNTRACED
        upcoming = sum(statistics.median(took[t]) for t in batch)
        if enough and time.monotonic() - start + upcoming > seconds:
            break
    wrong, errors = [], 0
    for _, rep in reps:
        w, e = judge(ops, rep["outcomes"], expected)
        wrong += w
        errors += e
    attempted = len(ops) * len(reps)
    plain = [r for t, r in reps if not t]
    traced_reps = [r for t, r in reps if t]
    if trace:
        values = per_layer(traced_reps, plain, errors, attempted)
        units = {name: layer_unit(name) for name in values}
    else:
        values = end_to_end(plain, errors, attempted)
        units = END_TO_END_UNITS
    return {
        "context": context(workload, seed, ops) | {"untraced_reps": len(plain),
                                                   "traced_reps": len(traced_reps)},
        "result": {
            "correct": not wrong,
            "attempted": attempted,
            "failed": len(wrong),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        },
        "wrong": wrong[:20],
        "reps": [{"traced": t, "setup_s": r["setup_s"], "wall_s": r["wall_s"],
                  "rss_mb": r["rss_mb"], "latency_s": r["latency_s"]} for t, r in reps],
        "op_ms": {op["key"]: t * 1000 for op, t in zip(ops, op_latencies(plain))},
        "trace": traced_reps[0]["trace"] if traced_reps else None,
    }


def write_out(name: str, data: dict) -> None:
    OUT.mkdir(exist_ok=True)
    with open(OUT / name, "w") as fh:
        json.dump(data, fh)


def zero_counters(workload: str, metrics: dict) -> list[str]:
    return [name for name in EXPECT_NONZERO[workload] if not metrics[name]["value"]]


def self_check() -> int:
    """One traced worker per workload on two ops, digest gate on."""
    compile_package()
    status = 0
    for workload in workloads.UNIVERSES:
        ops = workloads.self_check_ops(workload)
        universe = {op["key"] for op in workloads.UNIVERSES[workload]()}
        rep = run_worker(ops, traced=True)
        wrong, _ = judge(ops, rep["outcomes"], load_expected(workload))
        calls = sum(v for k, v in rep["trace"]["metrics"].items() if k.endswith(".calls"))
        problems = [f"not in the universe: {op['key']}" for op in ops if op["key"] not in universe]
        problems += [f"outcome differs: {w}" for w in wrong]
        if not rep["trace"]["bound_references"] or not calls:
            problems.append("tracer recorded nothing")
        print(f"{workload}: {'ok' if not problems else 'FAILED'} "
              f"({len(ops)} ops, {calls} traced calls)")
        for line in problems:
            print(f"  {line}")
            status = 1
    return status


def record() -> int:
    """Run every op of every universe once and store its outcome."""
    compile_package()
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    outcomes = {}
    for workload, universe in workloads.UNIVERSES.items():
        ops = universe()
        rep = run_worker(ops, traced=False, timeout=RECORD_TIMEOUT_S)
        outcomes[workload] = {op["key"]: got for op, got in zip(ops, rep["outcomes"])}
        crashed = sum(got.startswith("error:") for got in rep["outcomes"])
        print(f"{workload}: {len(ops)} ops recorded, {crashed} raise")
    with open(EXPECTED, "w") as fh:
        json.dump({"source_sha256": digest.hexdigest(), "outcomes": outcomes}, fh,
                  indent=0, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.UNIVERSES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"peaklab sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.self_check:
            return self_check()
        if args.record:
            return record()
        if args.workload is None:
            parser.error("--workload is required")
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        write_out(f"{tag}.json", run)
        zeros = zero_counters(args.workload, run["result"]["metrics"]) if args.trace else []
        if zeros:
            print(f"counters expected non-zero read zero on {args.workload}: {zeros}",
                  file=sys.stderr)
            return 1
        for item in run["wrong"]:
            print(f"outcome differs: {item}", file=sys.stderr)
    except (HarnessError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"context": run["context"]}))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
