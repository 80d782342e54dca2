"""Command-line front end: parse argv, call the library, print one JSON text.

Every subcommand is a thin adapter; no counting or algebra happens here.
Exit status: 0 when the requested computation or checks succeed, 1 when a
verified identity reports a failure, 2 on unusable input, 3 when a size
guard refuses the computation (PEAKLAB_MAX_N raises the guards, --force
drops them).  A closed stdout does not change the exit status.

`verify --all` runs every check even when some refuse: a check that raises
a guard or input error becomes a result with "ok": null and its "refused"
message.  Its exit status is 1 if any check that ran failed, else 3 if any
check hit a guard, else 2 if any refused its input, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .groupalgebra import (
    CLASS_FAMILIES,
    STRUCTURE_FAMILIES,
    _class_table,
    all_theorem_ids,
    class_sum,
    family_labels,
    idempotent_powers,
    idempotents,
    multiplicative_closure,
    span_rank,
    structure_constants,
    verify_identity,
)
from .limits import ResourceLimitError, memo
from .orderpolys import (
    IDENTITIES_43,
    ORDER_POLY_KINDS,
    PEAK_POLY_KINDS,
    WEIGHTED_KIND,
    enriched_gf,
    identity_check_43,
    order_polynomial,
    peak_polynomial,
)
from .perms import STATISTICS, StatResult, validate_perm
from .qsym import _FLAVORS, delta_expansion


def _parse_perm(text: str) -> list[int]:
    t = text.strip()
    if not t.startswith("["):
        t = f"[{t}]"
    try:
        vals = json.loads(t)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValueError(f"cannot parse permutation {text!r}: {exc}") from None
    return vals


def _cmd_stats(args) -> tuple[int, dict]:
    perm = validate_perm(_parse_perm(args.perm), signed=args.signed)
    out = {"perm": perm, "n": len(perm), "signed": args.signed}
    for name, mask in STATISTICS.items():
        if name.startswith("B_") == args.signed:
            out[name.removeprefix("B_")] = StatResult(mask(perm)).to_json()
    return 0, out


def _cmd_order_poly(args) -> tuple[int, dict]:
    perm = _parse_perm(args.perm)
    poly = order_polynomial(perm, args.kind)
    out = {"kind": args.kind, "perm": perm, "poly": poly.to_strings()}
    if args.gf:
        out["gf"] = enriched_gf(perm, args.kind).to_json()
    return 0, out


def _cmd_idempotents(args) -> tuple[int, dict]:
    powers = idempotent_powers(args.n, args.family)
    elems = idempotents(args.n, args.family, force=args.force)
    return 0, {
        "family": args.family,
        "n": args.n,
        "group": STRUCTURE_FAMILIES[args.family][0],
        "idempotents": [
            {"power": p, "element": e.to_json()} for p, e in zip(powers, elems)
        ],
    }


def _cmd_verify(args) -> tuple[int, dict]:
    ids = all_theorem_ids() if args.all else [args.theorem]
    results = []
    failed = 0
    refusals = set()
    for tid in ids:
        try:
            res = verify_identity(args.n, tid, force=args.force)
        except (ResourceLimitError, ValueError) as exc:
            if not args.all:
                raise
            refusals.add(3 if isinstance(exc, ResourceLimitError) else 2)
            results.append({"theorem": tid, "n": args.n, "ok": None, "refused": str(exc)})
            continue
        if not res["ok"]:
            failed += 1
        results.append(res)
    return (1 if failed else max(refusals, default=0)), {
        "n": args.n,
        "checked": len(ids),
        "failed": failed,
        "results": results,
    }


def _sign_peaks(label) -> dict:
    sign, peaks = label
    return {"sign": sign, "peaks": peaks}


def _cmd_structure_constants(args) -> tuple[int, dict]:
    data = structure_constants(args.n, args.family, force=args.force)
    # json writes tuples as arrays; only a (sign, peaks) label reads as an object
    if args.family == "B_peak_sign_set":
        data["labels"] = [_sign_peaks(lab) for lab in data["labels"]]
        v = data["violation"]
        if v is not None:
            v["pair"] = [_sign_peaks(lab) for lab in v["pair"]]
            v["class"] = _sign_peaks(v["class"])
    return 0, data


def _cmd_qsym_expand(args) -> tuple[int, dict]:
    perm = _parse_perm(args.perm)
    exp = delta_expansion(perm, args.flavor, args.basis)
    out = {"flavor": args.flavor, "perm": perm}
    out.update(exp.to_json())
    return 0, out


def _cmd_peak_table(args) -> tuple[int, dict]:
    polys = {kind: peak_polynomial(args.n, kind, force=args.force).to_strings()
             for kind in PEAK_POLY_KINDS if kind != WEIGHTED_KIND}
    weighted = [peak_polynomial(args.n, WEIGHTED_KIND, i=i, force=args.force).to_strings()
                for i in range(args.n + 1)]
    identities = {
        which: identity_check_43(args.n, which, force=args.force)
        for which in IDENTITIES_43
    }
    code = 0 if all(identities.values()) else 1
    return code, {
        "n": args.n,
        "polynomials": polys,
        "weighted_by_negatives": weighted,
        "identities": identities,
    }


def _cmd_closure(args) -> tuple[int, dict]:
    labels = family_labels(args.family, args.n, force=args.force)
    # a legal empty class sums to zero, which adds nothing to either rank
    realized = _class_table(args.family, args.n, args.force)[0]
    sums = [class_sum(args.n, args.family, lab, force=args.force) for lab in realized]
    rank = span_rank(sums)
    basis = multiplicative_closure(sums)
    return 0, {
        "family": args.family,
        "n": args.n,
        "class_count": len(labels),
        "span_rank": rank,
        "closure_rank": len(basis),
        "closed": len(basis) == rank,
        "closure_basis": [e.to_json() for e in basis],
    }


def _add_force(p: argparse.ArgumentParser) -> None:
    p.add_argument("--force", action="store_true", help="drop the size guards")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peaklab",
        description="Exact descent and peak combinatorics on S_n and B_n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="all statistic sets and counts of one permutation")
    p.add_argument("perm", help='permutation, e.g. "[2,1,4,3,5]" or "[-2,1]"')
    p.add_argument("--signed", action="store_true", help="read as a signed permutation")
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("order-poly", help="counting polynomial of one chain")
    p.add_argument("perm")
    p.add_argument("--kind", required=True, choices=sorted(ORDER_POLY_KINDS))
    p.add_argument("--gf", action="store_true",
                   help="include the closed-form generating function")
    p.set_defaults(handler=_cmd_order_poly)

    p = sub.add_parser("idempotents", help="orthogonal idempotents of one family")
    p.add_argument("--family", required=True, choices=sorted(STRUCTURE_FAMILIES))
    p.add_argument("-n", type=int, required=True)
    _add_force(p)
    p.set_defaults(handler=_cmd_idempotents)

    p = sub.add_parser("verify", help="run registered identity checks")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--theorem", help="one registered theorem id")
    which.add_argument("--all", action="store_true", help="every registered id")
    p.add_argument("-n", type=int, required=True)
    _add_force(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("structure-constants",
                       help="class-sum multiplication tensor of a set-valued family")
    p.add_argument("--family", required=True)
    p.add_argument("-n", type=int, required=True)
    _add_force(p)
    p.set_defaults(handler=_cmd_structure_constants)

    p = sub.add_parser("qsym", help="quasisymmetric expansions")
    qsub = p.add_subparsers(dest="qsym_command", required=True)
    q = qsub.add_parser("expand", help="basis expansion of one enriched enumerator")
    q.add_argument("perm")
    q.add_argument("--flavor", required=True, choices=tuple(_FLAVORS))
    q.add_argument("--basis", default="monomial", choices=("monomial", "fundamental"))
    q.set_defaults(handler=_cmd_qsym_expand)

    p = sub.add_parser("peak-table",
                       help="peak and Eulerian distribution polynomials with their hooks")
    p.add_argument("-n", type=int, required=True)
    _add_force(p)
    p.set_defaults(handler=_cmd_peak_table)

    p = sub.add_parser("closure", help="multiplicative closure of one class-sum span")
    p.add_argument("--family", required=True, choices=sorted(CLASS_FAMILIES))
    p.add_argument("-n", type=int, required=True)
    _add_force(p)
    p.set_defaults(handler=_cmd_closure)

    return parser


def main(argv=None) -> int:
    # one parser per process, built on the first request; each parse_args
    # call fills a fresh Namespace, so no request sees another's arguments
    args = memo("cli_parser", (), _build_parser).parse_args(argv)
    try:
        code, payload = args.handler(args)
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(json.dumps(payload, indent=2))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: keep the code, and let the flush at exit hit devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
