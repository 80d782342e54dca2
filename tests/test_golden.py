"""Golden corpus of command-line outputs: exact stdout and exit code.

Every README command and an edge set per subcommand (sizes 0 and 1,
negative sizes, malformed and non-permutation input, unknown names and a
size-guard refusal) is replayed in process and compared byte for byte with
``golden/cli.json``.  An argv whose handler raises is recorded by its
exception type.  Re-record after a deliberate output change with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "golden" / "cli.json"

README = (
    ("stats", "[2,1,4,3,5]"),
    ("stats", "[-2,4,-5,3,1]", "--signed"),
    ("order-poly", "[1,3,2]", "--kind", "enriched_interior", "--gf"),
    ("idempotents", "--family", "rho", "-n", "4"),
    ("verify", "--theorem", "ges", "-n", "4"),
    ("verify", "--all", "-n", "2"),
    ("structure-constants", "--family", "peak_interior_set", "-n", "3"),
    ("qsym", "expand", "[2,1,3]", "--flavor", "interior", "--basis", "fundamental"),
    ("peak-table", "-n", "3"),
    ("closure", "--family", "right_peak_num", "-n", "3"),
)

# Whole-registry and larger runs that reach every layer.
BROAD = (
    ("verify", "--all", "-n", "3"),
    ("idempotents", "--family", "rho_B", "-n", "3"),
    ("structure-constants", "--family", "B_peak_sign_set", "-n", "3"),
    ("closure", "--family", "peak_left_set", "-n", "4"),
)

# `qsym expand "[]" --flavor interior` is tested in test_qsym.py instead: the
# commit this corpus was recorded at never returned from it.
EDGES = (
    ("stats", "[]"),
    ("stats", "[1]"),
    ("stats", "[1,1]"),
    ("stats", "[2,x]"),
    ("stats", "[1,2,3"),
    ("stats", "[1.5,2]"),
    ("stats", "[]", "--signed"),
    ("stats", "[-1]", "--signed"),
    ("stats", "[0,1]", "--signed"),
    ("order-poly", "[]", "--kind", "A_ordinary"),
    ("order-poly", "[1]", "--kind", "A_cyclic"),
    ("order-poly", "[1]", "--kind", "enriched_interior", "--gf"),
    ("order-poly", "[-1]", "--kind", "enriched_B", "--gf"),
    ("order-poly", "[2,2]", "--kind", "enriched_left"),
    ("order-poly", "[1,2]", "--kind", "enriched_right", "--gf"),
    ("order-poly", "[1,2]", "--kind", "nope"),
    ("idempotents", "--family", "rho", "-n", "0"),
    ("idempotents", "--family", "rho", "-n", "1"),
    ("idempotents", "--family", "rho_B", "-n", "1"),
    ("idempotents", "--family", "phi", "-n", "-1"),
    ("idempotents", "--family", "nope", "-n", "2"),
    ("idempotents", "--family", "phi", "-n", "9"),
    ("verify", "--theorem", "ges", "-n", "0"),
    ("verify", "--theorem", "ges", "-n", "1"),
    ("verify", "--theorem", "gf_B", "-n", "0"),
    ("verify", "--theorem", "ges", "-n", "-1"),
    ("verify", "--theorem", "nope", "-n", "2"),
    ("verify", "--theorem", "right_peak_num_closure", "-n", "3"),
    ("verify", "--theorem", "fib_rank_B", "-n", "1"),
    ("verify", "--theorem", "ges", "-n", "7"),
    ("verify", "--theorem", "chow", "-n", "5"),
    ("structure-constants", "--family", "descent_set", "-n", "0"),
    ("structure-constants", "--family", "descent_set", "-n", "1"),
    ("structure-constants", "--family", "B_peak_sign_set", "-n", "1"),
    ("structure-constants", "--family", "right_peak_set", "-n", "4"),
    ("structure-constants", "--family", "descent_set", "-n", "-1"),
    ("structure-constants", "--family", "descent_num", "-n", "3"),
    ("structure-constants", "--family", "descent_set", "-n", "7"),
    ("qsym", "expand", "[1]", "--flavor", "interior"),
    ("qsym", "expand", "[1]", "--flavor", "left"),
    ("qsym", "expand", "[]", "--flavor", "left"),
    ("qsym", "expand", "[]", "--flavor", "B", "--basis", "fundamental"),
    ("qsym", "expand", "[-1]", "--flavor", "B"),
    ("qsym", "expand", "[-2,1,3]", "--flavor", "B", "--basis", "fundamental"),
    ("qsym", "expand", "[1,1]", "--flavor", "interior"),
    ("qsym", "expand", "[2,1,3]", "--flavor", "nope"),
    ("peak-table", "-n", "0"),
    ("peak-table", "-n", "1"),
    ("peak-table", "-n", "-2"),
    ("peak-table", "-n", "x"),
    ("peak-table", "-n", "9"),
    ("closure", "--family", "descent_num", "-n", "0"),
    ("closure", "--family", "descent_num", "-n", "1"),
    ("closure", "--family", "B_peak_sign_num", "-n", "2"),
    ("closure", "--family", "peak_interior_num", "-n", "-1"),
    ("closure", "--family", "nope", "-n", "2"),
    ("closure", "--family", "descent_num", "-n", "9"),
)

ARGV = README + BROAD + EDGES


def replay(argv) -> dict:
    """Run one argv through cli.main in process: stdout and exit code, or
    the type of the exception the handler let escape."""
    from peaklab.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:
            return {"argv": list(argv), "raises": type(exc).__name__}
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue()}


def test_golden_corpus(monkeypatch):
    monkeypatch.delenv("PEAKLAB_MAX_N", raising=False)
    with open(CORPUS) as fh:
        recorded = json.load(fh)
    assert [entry["argv"] for entry in recorded] == [list(argv) for argv in ARGV]
    changed = [entry["argv"] for entry in recorded if replay(entry["argv"]) != entry]
    assert not changed, f"output differs from the corpus for {changed}"


def record() -> None:
    os.environ.pop("PEAKLAB_MAX_N", None)
    entries = [replay(argv) for argv in ARGV]
    with open(CORPUS, "w") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(entries)} argv to {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    record()
