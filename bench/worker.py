"""One benchmark repetition: import peaklab cold, run an op list, report.

run.py starts a fresh process per repetition,

    python3 -S bench/worker.py <src dir> <spawn time> <trace 0|1>

with the op list as JSON on stdin, and reads one JSON object from stdout.
The spawn time is the parent's time.monotonic() just before the process
started, so setup_s covers interpreter start-up and the package import.
"""

import sys
import time

_SPAWN = float(sys.argv[2])
sys.path.insert(0, sys.argv[1])
import peaklab  # noqa: E402,F401  the import is what setup_s measures
import peaklab.cli  # noqa: E402  every CLI invocation imports it too

SETUP_S = time.monotonic() - _SPAWN

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402

from peaklab import groupalgebra as ga, qsym  # noqa: E402

# A runaway op fails with MemoryError instead of exhausting the machine.
_MEMORY_CAP = 2 << 30


class BadExit(Exception):
    """cli.main returned an exit code outside {0, 1, 2, 3}."""


# Ops call through module attributes, so traced wrappers are picked up.

def _verify(state, tid, n):
    return ga.verify_identity(n, tid)


def _constants(state, family, n):
    return ga.structure_constants(n, family)


def _idempotents(state, family, n):
    elems = ga.idempotents(n, family)
    state[family, n] = elems
    return elems


def _product(state, family, n, i, j):
    elems = state.get((family, n)) or _idempotents(state, family, n)
    return elems[i] * elems[j]


def _closure(state, family, n):
    sums = [ga.class_sum(n, family, lab) for lab in ga.family_labels(family, n)]
    return {"span_rank": ga.span_rank(sums), "closure": ga.multiplicative_closure(sums)}


def _expand(state, flavor, perm, basis):
    spread = qsym.delta_expansion(perm, flavor, basis)
    checks = []
    for m in (3, 4, 5):
        got = qsym.truncate_realize(spread, m)
        checks.append([got == qsym.truncated_enumerator(perm, flavor, m), got.eval_all_ones()])
    return {"expansion": spread, "realized": checks}


def _bipartite(state, flavor, perm):
    return qsym.bipartite_check(perm, flavor, 2, 2)


def _cli(state, *argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = peaklab.cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors and --help
            code = exc.code
    if code not in (0, 1, 2, 3):
        raise BadExit(code)
    return f"{out.getvalue()}#exit {code}\n"


RUNNERS = {
    "verify": _verify,
    "constants": _constants,
    "idempotents": _idempotents,
    "product": _product,
    "closure": _closure,
    "expand": _expand,
    "bipartite": _bipartite,
    "cli": _cli,
}


def canonical(value):
    """Library results as plain JSON values, independent of object identity."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if hasattr(value, "to_json"):
        return canonical(value.to_json())
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(result) -> str:
    """First 16 hex digits of the sha256 of the result's canonical string."""
    text = result if isinstance(result, str) else json.dumps(
        canonical(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def peak_rss_mb() -> float:
    """Peak resident set of this process image (VmHWM).

    ru_maxrss is no substitute: Linux carries the parent's resident pages
    over into it at exec, so it reads at least the parent's size.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (_MEMORY_CAP, _MEMORY_CAP))
    traced = sys.argv[3] == "1"
    ops = json.load(sys.stdin)
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.bind()
    state: dict = {}
    results, latencies = [], []
    clock = time.perf_counter
    start = clock()
    for index, op in enumerate(ops):
        run = RUNNERS[op["kind"]]
        if tracer:
            tracer.begin_op(index, "op." + op["kind"])
        t0 = clock()
        try:
            result = run(state, *op["args"])
        except Exception as exc:  # an op that raises is recorded, not fatal
            result = exc
        latencies.append(clock() - t0)
        if tracer:
            tracer.end_op()
        results.append(result)
    wall = clock() - start
    outcomes = [
        f"error:{type(r).__name__}" if isinstance(r, Exception) else digest(r)
        for r in results
    ]
    report = {
        "setup_s": SETUP_S,
        "wall_s": wall,
        "latency_s": latencies,
        "outcomes": outcomes,
        "rss_mb": peak_rss_mb(),
    }
    if tracer:
        report["trace"] = {
            "metrics": tracer.report(),
            "bound_references": tracer.bound,
            "op_leaves": tracer.op_leaves,
            "spans": tracer.spans,
        }
    sys.__stdout__.write(json.dumps(report))


if __name__ == "__main__":
    main()
