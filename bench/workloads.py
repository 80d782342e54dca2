"""The four benchmark workloads: what each one runs and why.

Every workload draws its ops from a finite universe, so that the expected
outcome of every op any seed can produce is recorded once, in
``expected.json``, by ``run.py --record``.  An op is a dict with a ``kind``,
its ``args`` and a ``key`` (kind plus compact JSON args) that names it in
the record.  Inputs are generated here, in the parent process, from the
seed alone; the worker only executes them.

This module imports nothing from peaklab.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter

WHY = {
    "ga_tensor": "registered product identities on the full grid at S_5/B_3 and S_6/B_4: "
                 "compose over all |G|^2 pairs, class polynomials and grid evaluation",
    "ga_convolve": "idempotents, their products and class-sum closures: dense Fraction "
                   "convolution in ga_multiply, GAElem re-validation and elimination",
    "qsym_enum": "seeded expansion checks at m=3..5 and bipartite checks: MultiPoly "
                 "arithmetic and poly-mode chain sums, compose only at n<=4",
    "small_requests": "about 300 seeded millisecond CLI requests in one process: argparse, "
                      "JSON output, validation and per-call overhead, with reused caches",
}

# Product identities by group; the S_6/B_4 rows are a fixed subset sized so
# one cold worker finishes in a few seconds (all 17 S_6 ids take 11 s).
_PRODUCT_IDS_S = (
    "cyc", "ges", "interior_1", "interior_2", "interior_3", "interior_4",
    "interiordescent_1", "interiordescent_2", "left_1", "left_2", "left_3", "left_4",
    "peakideal_1", "peakideal_2", "peakideal_3", "peakideal_4", "phi_times_rho",
)
_PRODUCT_IDS_B = ("chow", "cyclicB", "idealB", "peakalg2")
_LARGE_IDS_S = ("ges", "left_2")
_CONSTANT_FAMILIES = (
    ("descent_set", 5), ("peak_interior_set", 5), ("peak_left_set", 5),
    ("right_peak_set", 5), ("exterior_peak_set", 5), ("B_peak_sign_set", 3),
)

# Structure families with the size they run at and their idempotent count
# there (len(idempotent_powers(n, family))).
_STRUCTURE = (
    ("phi", 5, 5), ("phi_c", 5, 4), ("rho", 5, 3), ("rho_bar", 5, 3),
    ("rho_l", 5, 3), ("rho_r", 5, 3),
    ("phi_B", 3, 4), ("phi_B_c", 3, 3), ("rho_B", 3, 4),
)
_CLOSURE_FAMILIES = (
    ("peak_interior_num", 5), ("peak_right_num", 5), ("descent_set", 5),
    ("B_peak_sign_num", 3),
)

# Strata of qsym_enum: expansion (flavor, group, n, basis), each drawn
# _EXPAND_DRAWS times, and bipartite (flavor, group, n, draws).
_EXPAND_STRATA = tuple(
    (flavor, group, n, basis)
    for flavor, group, n in (("interior", "S", 5), ("left", "S", 5), ("B", "B", 4))
    for basis in ("monomial", "fundamental")
)
_EXPAND_DRAWS = 12
_BIPARTITE_STRATA = (
    ("gesA", "S", 4, 6), ("interior", "S", 4, 6), ("left", "S", 4, 6),
    ("peakideal_mixed", "S", 4, 6), ("interiordescent_mixed", "S", 4, 6),
    ("B", "B", 3, 8), ("B", "B", 4, 3),
)

_THEOREM_IDS = (
    "augeul", "bpeeul1", "bpeeul2", "chow", "cyc", "cyclicB", "fib_rank_B",
    "fib_rank_interior", "fib_rank_left", "fun", "ges", "gf_B", "gf_ges",
    "gf_interior", "gf_interiordescent", "gf_left", "gf_peakideal", "idealB",
    "interior_1", "interior_2", "interior_3", "interior_4", "interiordescent_1",
    "interiordescent_2", "left_1", "left_2", "left_3", "left_4", "mon", "peakalg2",
    "peakideal_1", "peakideal_2", "peakideal_3", "peakideal_4", "peeul1", "peeul2",
    "phi_times_rho", "recip_B", "recip_exterior", "recip_interior", "recip_left",
    "recip_right", "right_peak_num_closure", "right_peak_set_constants",
)
# At n=3 these take 50 ms to 1.4 s each; their layers are covered by qsym_enum.
_SLOW_AT_3 = ("fun", "gf_B", "gf_left", "gf_peakideal", "mon")
_CLASS_FAMILIES_S = (
    "descent_set", "descent_num", "cyclic_descent_num", "peak_interior_set",
    "peak_left_set", "peak_interior_num", "peak_left_num", "peak_right_num",
    "peak_exterior_num", "right_peak_num", "right_peak_set", "exterior_peak_set",
)
_CLASS_FAMILIES_B = ("B_descent_num", "B_cyclic_descent_num", "B_peak_sign_num",
                     "B_peak_sign_set")

# Edge argv: every one runs in every small_requests op list.  Sizes 0 and 1,
# negative sizes, malformed permutations, unknown names and guard refusals.
# `qsym expand "[]" --flavor interior` is left out: it never returns.
EDGE_ARGV = (
    ("peak-table", "-n", "0"), ("peak-table", "-n", "-2"), ("peak-table", "-n", "1"),
    ("peak-table", "-n", "x"), ("stats", "[]"), ("stats", "[1,1]"), ("stats", "[2,x]"),
    ("stats", "[1,2,3"), ("stats", "[1.5,2]"), ("stats", "[0,1]", "--signed"),
    ("idempotents", "--family", "rho", "-n", "0"), ("idempotents", "--family", "rho", "-n", "1"),
    ("idempotents", "--family", "phi", "-n", "-1"),
    ("closure", "--family", "descent_num", "-n", "0"),
    ("closure", "--family", "descent_num", "-n", "1"),
    ("closure", "--family", "peak_interior_num", "-n", "-1"),
    ("verify", "--theorem", "ges", "-n", "0"), ("verify", "--theorem", "ges", "-n", "1"),
    ("verify", "--theorem", "gf_B", "-n", "0"), ("verify", "--theorem", "ges", "-n", "-1"),
    ("verify", "--theorem", "nope", "-n", "2"),
    ("structure-constants", "--family", "descent_set", "-n", "0"),
    ("structure-constants", "--family", "descent_num", "-n", "3"),
    ("order-poly", "[]", "--kind", "A_ordinary"),
    ("order-poly", "[1]", "--kind", "enriched_interior", "--gf"),
    ("qsym", "expand", "[1]", "--flavor", "left"),
    ("verify", "--theorem", "ges", "-n", "7"), ("verify", "--theorem", "chow", "-n", "5"),
    ("peak-table", "-n", "9"), ("closure", "--family", "descent_num", "-n", "9"),
    ("structure-constants", "--family", "descent_set", "-n", "7"),
)
# Seeded requests per stratum; with the edge list this makes 300 requests.
# Requests of 10-50 ms sit in their own strata with fixed counts, so the
# tail percentile does not move with how many of them a seed happens to draw.
_REQUEST_DRAWS = (
    ("stats", 51), ("stats_signed", 30), ("order_poly", 50), ("qsym_expand", 40),
    ("verify", 36), ("verify_slow", 3), ("peak_table", 6), ("peak_table_4", 3),
    ("idempotents", 14), ("idempotents_slow", 6), ("closure", 14), ("closure_4", 6),
    ("structure_constants", 10),
)
# verify requests of 10-50 ms: (theorem id, n)
_VERIFY_SLOW = (("gf_B", 2), ("mon", 2), ("fun", 2), ("chow", 3), ("cyclicB", 3),
                ("idealB", 3), ("peakalg2", 3), ("gf_interior", 3))


def _perms(n: int) -> list[list[int]]:
    return [list(p) for p in itertools.permutations(range(1, n + 1))]


def _signed_perms(n: int) -> list[list[int]]:
    return sorted(
        [s * v for s, v in zip(signs, p)]
        for p in itertools.permutations(range(1, n + 1))
        for signs in itertools.product((1, -1), repeat=n)
    )


def _group(group: str, n: int) -> list[list[int]]:
    return _perms(n) if group == "S" else _signed_perms(n)


def _text(perm) -> str:
    return json.dumps(perm, separators=(",", ":"))


def make_op(kind: str, *args) -> dict:
    return {"kind": kind, "args": list(args), "key": kind + ":" + _text(list(args))}


# --- universes -----------------------------------------------------------------


def _ga_tensor_universe() -> list[dict]:
    ops = [make_op("verify", tid, 5) for tid in _PRODUCT_IDS_S]
    ops += [make_op("verify", tid, 3) for tid in _PRODUCT_IDS_B]
    ops += [make_op("verify", tid, 6) for tid in _LARGE_IDS_S]
    ops += [make_op("verify", tid, 4) for tid in _PRODUCT_IDS_B]
    ops += [make_op("constants", fam, n) for fam, n in _CONSTANT_FAMILIES]
    return ops


def _ga_convolve_universe() -> list[dict]:
    ops = [make_op("idempotents", fam, n) for fam, n, _ in _STRUCTURE]
    for fam, n, k in _STRUCTURE:
        if n == 5:
            # two |G|^2 products per S family: the last idempotent squared
            # and the first times the last
            pairs = sorted({(k - 1, k - 1), (0, k - 1)})
        else:
            pairs = [(i, j) for i in range(k) for j in range(k)]
        ops += [make_op("product", fam, n, i, j) for i, j in pairs]
    ops += [make_op("closure", fam, n) for fam, n in _CLOSURE_FAMILIES]
    return ops


def _expand_stratum(flavor, group, n, basis) -> list[dict]:
    return [make_op("expand", flavor, p, basis) for p in _group(group, n)]


def _bipartite_stratum(flavor, group, n) -> list[dict]:
    return [make_op("bipartite", flavor, p) for p in _group(group, n)]


def _qsym_universe() -> list[dict]:
    ops = []
    for stratum in _EXPAND_STRATA:
        ops += _expand_stratum(*stratum)
    for flavor, group, n, _ in _BIPARTITE_STRATA:
        ops += _bipartite_stratum(flavor, group, n)
    return ops


def _cli(*argv) -> dict:
    return make_op("cli", *argv)


def _request_strata() -> dict[str, list[dict]]:
    s5, b3, s4 = _perms(5), _signed_perms(3), _perms(4)
    order_poly = [_cli("order-poly", _text(p), "--kind", kind)
                  for p in s4
                  for kind in ("A_ordinary", "A_cyclic", "enriched_interior",
                               "enriched_left", "enriched_right", "enriched_exterior")]
    order_poly += [_cli("order-poly", _text(p), "--kind", kind, "--gf")
                   for p in s4 for kind in ("enriched_interior", "enriched_left")]
    order_poly += [_cli("order-poly", _text(p), "--kind", kind)
                   for p in b3 for kind in ("B_ordinary", "B_cyclic", "enriched_B")]
    order_poly += [_cli("order-poly", _text(p), "--kind", "enriched_B", "--gf") for p in b3]
    qsym_expand = [_cli("qsym", "expand", _text(p), "--flavor", flavor, "--basis", basis)
                   for p in s4 for flavor in ("interior", "left")
                   for basis in ("monomial", "fundamental")]
    qsym_expand += [_cli("qsym", "expand", _text(p), "--flavor", "B", "--basis", basis)
                    for p in b3 for basis in ("monomial", "fundamental")]
    verify = [_cli("verify", "--theorem", tid, "-n", str(n))
              for n in (2, 3) for tid in _THEOREM_IDS
              if (tid, n) not in _VERIFY_SLOW and not (n == 3 and tid in _SLOW_AT_3)]
    structure_s = ("phi", "phi_c", "rho", "rho_bar", "rho_l", "rho_r")
    structure_b = ("phi_B", "phi_B_c", "rho_B")
    idempotents = [_cli("idempotents", "--family", fam, "-n", str(n))
                   for n in (2, 3) for fam in structure_s]
    idempotents += [_cli("idempotents", "--family", fam, "-n", "2") for fam in structure_b]
    idempotents_slow = [_cli("idempotents", "--family", fam, "-n", "4") for fam in structure_s]
    idempotents_slow += [_cli("idempotents", "--family", fam, "-n", "3") for fam in structure_b]
    closure = [_cli("closure", "--family", fam, "-n", str(n))
               for n in (2, 3) for fam in _CLASS_FAMILIES_S]
    closure += [_cli("closure", "--family", fam, "-n", "2") for fam in _CLASS_FAMILIES_B]
    constants = [_cli("structure-constants", "--family", fam, "-n", str(n))
                 for n in (2, 3, 4) for fam, _ in _CONSTANT_FAMILIES
                 if not (n == 4 and fam.startswith("B"))]
    return {
        "stats": [_cli("stats", _text(p)) for p in s5],
        "stats_signed": [_cli("stats", _text(p), "--signed") for p in b3],
        "order_poly": order_poly,
        "qsym_expand": qsym_expand,
        "verify": verify,
        "verify_slow": [_cli("verify", "--theorem", tid, "-n", str(n)) for tid, n in _VERIFY_SLOW],
        "peak_table": [_cli("peak-table", "-n", str(n)) for n in (2, 3)],
        "peak_table_4": [_cli("peak-table", "-n", "4")],
        "idempotents": idempotents,
        "idempotents_slow": idempotents_slow,
        "closure": closure,
        "closure_4": [_cli("closure", "--family", fam, "-n", "4") for fam in _CLASS_FAMILIES_S],
        "structure_constants": constants,
    }


def _small_requests_universe() -> list[dict]:
    ops = [_cli(*argv) for argv in EDGE_ARGV]
    for stratum in _request_strata().values():
        ops += stratum
    return ops


UNIVERSES = {
    "ga_tensor": _ga_tensor_universe,
    "ga_convolve": _ga_convolve_universe,
    "qsym_enum": _qsym_universe,
    "small_requests": _small_requests_universe,
}

# --- seeded op lists -----------------------------------------------------------------


def _ga_tensor_ops(rng: random.Random) -> list[dict]:
    ops = _ga_tensor_universe()
    rng.shuffle(ops)
    return ops


def _ga_convolve_ops(rng: random.Random) -> list[dict]:
    ops = _ga_convolve_universe()
    first = [op for op in ops if op["kind"] == "idempotents"]
    rest = [op for op in ops if op["kind"] != "idempotents"]
    rng.shuffle(first)
    rng.shuffle(rest)
    # products read the idempotents computed earlier in the same worker
    return first + rest


def _qsym_ops(rng: random.Random) -> list[dict]:
    ops = []
    for stratum in _EXPAND_STRATA:
        ops += rng.sample(_expand_stratum(*stratum), _EXPAND_DRAWS)
    for flavor, group, n, draws in _BIPARTITE_STRATA:
        ops += rng.sample(_bipartite_stratum(flavor, group, n), draws)
    rng.shuffle(ops)
    return ops


def _draw(rng: random.Random, items: list, k: int) -> list:
    """k items from a seeded shuffle, cycling when k exceeds the stratum;
    repeated requests reuse the module caches."""
    out: list = []
    while len(out) < k:
        batch = list(items)
        rng.shuffle(batch)
        out += batch
    return out[:k]


def _small_requests_ops(rng: random.Random) -> list[dict]:
    strata = _request_strata()
    ops = [_cli(*argv) for argv in EDGE_ARGV]
    for name, draws in _REQUEST_DRAWS:
        ops += _draw(rng, strata[name], draws)
    rng.shuffle(ops)
    return ops


_OP_LISTS = {
    "ga_tensor": _ga_tensor_ops,
    "ga_convolve": _ga_convolve_ops,
    "qsym_enum": _qsym_ops,
    "small_requests": _small_requests_ops,
}


def op_list(workload: str, seed: int) -> list[dict]:
    """The seed's op list for one workload; the same seed gives the same list."""
    return _OP_LISTS[workload](random.Random(f"{workload}:{seed}"))


def self_check_ops(workload: str) -> list[dict]:
    """Two quick ops per workload for the self-check mode."""
    picks = {
        "ga_tensor": [make_op("verify", "chow", 3), make_op("constants", "B_peak_sign_set", 3)],
        "ga_convolve": [make_op("idempotents", "phi_B_c", 3), make_op("product", "phi_B_c", 3, 0, 2)],
        "qsym_enum": [make_op("expand", "B", [-2, 1, 4, -3], "fundamental"),
                      make_op("bipartite", "interior", [2, 1, 4, 3])],
        "small_requests": [_cli("stats", "[2,1,4,3,5]"), _cli("peak-table", "-n", "0")],
    }
    return picks[workload]


def op_mix(ops: list[dict]) -> dict[str, int]:
    """Histogram of op kinds; CLI requests are split by subcommand."""
    mix = Counter(
        f"cli {op['args'][0]}" if op["kind"] == "cli" else op["kind"] for op in ops
    )
    return dict(sorted(mix.items()))
