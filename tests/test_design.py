"""Design guards that keep the package to one home per decision."""

import argparse
import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import peaklab
from peaklab import cli, groupalgebra, limits, orderpolys, perms, posets, qsym
from peaklab.exact import UniPoly

# Imports every peaklab module, records the size of each module-level
# container, runs one call into each cached layer and prints every
# container that grew.
_PROBE = """
import importlib, json, pkgutil
import peaklab
mods = [peaklab] + [importlib.import_module("peaklab." + m.name)
                    for m in pkgutil.iter_modules(peaklab.__path__)]

def sizes():
    return {f"{mod.__name__}.{name}": len(value) for mod in mods
            for name, value in vars(mod).items()
            if not name.startswith("__") and isinstance(value, (dict, list, set))}

before = sizes()
peaklab.verify_identity(3, "interior_1")
assert peaklab.bipartite_check((2, 1, 3), "interior", 2, 2)
peaklab.truncate_realize(peaklab.delta_expansion((2, 1, 3), "interior", "fundamental"), 2)
peaklab.order_polynomial((-2, 1, 3), "enriched_B")
after = sizes()
print(json.dumps(sorted(name for name in before if after[name] != before[name])))
"""


def test_limits_caches_is_the_only_module_cache():
    env = {**os.environ, "PYTHONPATH": str(Path(peaklab.__file__).resolve().parents[1])}
    env.pop("PEAKLAB_MAX_N", None)
    proc = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["peaklab.limits._CACHES"]


def test_sweeps_keep_only_class_level_data(monkeypatch):
    # the enumerators a sweep computes per chain word live in that sweep;
    # the caches keep groups, classes, alphabets, realizations and tables
    monkeypatch.setattr(limits, "_CACHES", {})
    assert qsym.verify_hook("mon", 4)["ok"] and qsym.verify_hook("gf_B", 4)["ok"]
    assert sorted(limits._CACHES) == ["alphabets", "class_tables", "equations",
                                      "factor_tables", "group_index", "groups", "pair_rows",
                                      "realizations"]
    classes = len(groupalgebra._class_table("B_peak_sign_set", 4, False)[0])
    assert [len(table) for table in limits._CACHES["factor_tables"].values()] == [classes]


def test_ga_multiply_builds_one_fraction_per_output_term(monkeypatch):
    made = 0

    def counting(*args):
        nonlocal made
        made += 1
        return Fraction(*args)

    mixed = groupalgebra.GAElem("S", 4, {p: Fraction(i - 11, i % 5 + 1)
                                         for i, p in enumerate(peaklab.symmetric_group(4))})
    elems = [*groupalgebra.idempotents(4, "rho"), mixed]
    monkeypatch.setattr(groupalgebra, "Fraction", counting)
    for a in elems:
        for b in elems:
            made = 0
            prod = groupalgebra.ga_multiply(a, b)
            # the pair sums run in integers; only the result's terms are Fractions
            assert made <= prod.support_size()


def test_poly_chain_sum_builds_no_fraction(monkeypatch):
    made = 0
    make = Fraction.__new__

    def counting(cls, *args, **kwargs):
        nonlocal made
        made += 1
        return make(cls, *args, **kwargs)

    alphabet = posets.product_alphabet(posets.enriched_alphabet(2),
                                       posets.left_enriched_alphabet(2), "updown")
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    polys = [posets.chain_weight_sum(alphabet, pi, mode="poly")
             for pi in peaklab.symmetric_group(4)]
    # the enumerators are integer polynomials, counted in ints throughout
    assert made == 0 and all(polys)
    polys[0].eval_all_ones()
    assert made > 0  # the counter sees a Fraction when one is made


def test_delta_expansion_builds_no_fraction(monkeypatch):
    made = 0
    make = Fraction.__new__

    def counting(cls, *args, **kwargs):
        nonlocal made
        made += 1
        return make(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    for flavor, (signed, *_) in qsym._FLAVORS.items():
        for n in range(1, 5):
            for pi in perms.iterate_group("B" if signed else "S", n):
                for basis in ("monomial", "fundamental"):
                    # every coefficient is a power of two, held as an int
                    spread = qsym.delta_expansion(pi, flavor, basis)
                    assert spread.coeffs and made == 0, (flavor, pi, basis)
    spread.coeff(0)
    assert made == 1  # the counter sees a Fraction when one is made


def _subcommand(parser, name):
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices[name]


def test_one_list_of_peak_flavors():
    flavors = list(qsym._FLAVORS)
    assert sorted(flavors) == ["B", "interior", "left"]
    ranks = [tid.removeprefix("fib_rank_") for tid in groupalgebra.THEOREMS
             if tid.startswith("fib_rank_")]
    expand = _subcommand(_subcommand(cli._build_parser(), "qsym"), "expand")
    choices = next(a.choices for a in expand._actions if a.dest == "flavor")
    # the families the K-function entry points accept, out of every name in play
    names = {*flavors, *groupalgebra.CLASS_FAMILIES, *qsym._BIPARTITE, "right", "exterior"}
    accepted = []
    for name in sorted(names):
        try:
            qsym.peak_function(3, qsym._FLAVORS[name][4](3)[0] if name in flavors else 0, name)
            qsym.peak_basis_rank(3, name)
        except ValueError as exc:
            assert "unknown K-function family" in str(exc), name
            continue
        accepted.append(name)
    assert sorted(ranks) == sorted(choices) == accepted == sorted(flavors)


def test_one_list_of_peak_polynomial_kinds(capsys):
    # the peak table reads orderpolys.PEAK_POLY_KINDS in table order, the
    # weighted kind in its own list; cli names no kind itself
    kinds = list(orderpolys.PEAK_POLY_KINDS)
    assert cli.main(["peak-table", "-n", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert list(out["polynomials"]) == [k for k in kinds if k != orderpolys.WEIGHTED_KIND]
    assert len(out["weighted_by_negatives"]) == 3
    literals = {node.value for node in ast.walk(ast.parse(Path(cli.__file__).read_text()))
                if isinstance(node, ast.Constant)}
    assert not literals & set(kinds)


@pytest.mark.parametrize("signed", [False, True])
def test_one_table_of_statistics(capsys, signed):
    # stats prints perms.STATISTICS in table order, a B_ name without its
    # prefix under --signed; cli names no statistic itself
    argv = ["stats", "[-2,1,3]", "--signed"] if signed else ["stats", "[2,1,3]"]
    assert cli.main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    names = [name.removeprefix("B_") for name in perms.STATISTICS
             if name.startswith("B_") == signed]
    assert list(out) == ["perm", "n", "signed", *names]
    literals = {node.value for node in ast.walk(ast.parse(Path(cli.__file__).read_text()))
                if isinstance(node, ast.Constant)}
    assert not literals & set(perms.STATISTICS)


def test_section_43_identities_build_no_fraction(monkeypatch):
    made = 0
    make = Fraction.__new__

    def counting(cls, *args, **kwargs):
        nonlocal made
        made += 1
        return make(cls, *args, **kwargs)

    n = 4
    # only the series that coeffs() returns are Fractions: six probe terms
    # in bpeeul1 and n + 3 terms for each of the n + 1 series in bpeeul2
    returned = {"bpeeul1": 6, "bpeeul2": (n + 1) * (n + 3)}
    monkeypatch.setattr(limits, "_CACHES", {})
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    for which in orderpolys.IDENTITIES_43:
        made = 0
        # cold caches: the group scans and peak polynomials are counted too
        assert orderpolys.identity_check_43(n, which)
        assert made == returned.get(which, 0), which
    made = 0
    UniPoly((1, 1))(2)
    assert made == 1  # the counter sees a Fraction when one is made


def test_no_module_imports_random():
    # every check is exhaustive: nothing in the package draws seeded samples;
    # and annotations come from collections.abc, so importing the package
    # does not load typing
    for path in sorted(Path(peaklab.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module and not node.level}
        for forbidden in ("random", "typing"):
            assert forbidden not in imported, (path.name, forbidden)


def test_poset_classes_define_no_methods():
    # the order logic lives once, in _Order; the subclasses only name the type
    for cls in (posets.Poset, posets.BPoset):
        own = [name for name, value in vars(cls).items()
               if callable(value) or isinstance(value, (classmethod, staticmethod, property))]
        assert own == [], cls
