"""Digest of both polynomial solvers over a fixed corpus of generated trees.

Run from the repository root as::

    PYTHONPATH=src python tools/solver_digest.py [--save FILE] [--compare FILE]
    PYTHONPATH=src python tools/solver_digest.py --accuracy

The corpus is the 900 trees ``GenConfig(seed=0..299, n_be=12, n_gates=9,
n_multiparent=m)`` for m in 0, 3 and 10.  For each algorithm the script
prints one SHA-256 (first 16 hex digits) over the exact values, one over
the float values and one over the four counters of the float solves, then
the counter sums.  The corpus is then written to a temporary directory
and run through the command line: one line hashes the output of ``sfpa
dom`` on every tree and the ``variable_budget`` of every tree, and gives
the budgets' sum; the last hashes the ``raw_unreliability`` strings of
``sfpa solve --exact`` with each algorithm and the output of ``sfpa
mcs``, which read each file exactly.  The last line hashes the float
``oracle_unreliability`` of every tree, the output of ``sfpa check`` on
the corpus directory, and the ``raw_unreliability`` strings of ``sfpa
solve --exact --algo treelike`` on the tree-shaped files (no multiparent
node; the 300 with m = 0).  Two checkouts that print the same lines
compute the same thing on the corpus.

``--save FILE`` writes the float values as JSON; ``--compare FILE`` reads
such a file and prints, per algorithm, how many float values differ from
it and by how much at most.

``--accuracy`` prints, instead of the digest, how far float
``solve_sfpa2`` strays from exact ``solve_sfpa2`` on the same corpus
drawn with each of ``ACCURACY_RANGES`` as ``prob_range``: the median and
the largest relative error, how many trees stray by more than 1e-6, and
how many read float 0.0 where the exact value is above 0.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import tempfile
from fractions import Fraction
from pathlib import Path

from sfpa import (GenConfig, generate, oracle_unreliability, serialize_ft,
                  solve_sfpa, solve_sfpa2, variable_budget)
from sfpa.cli import main as sfpa_main

COUNTERS = ("max_terms", "max_live_vars", "substitutions", "multiplications")
ALGORITHMS = {"sfpa": solve_sfpa, "sfpa2": solve_sfpa2}


#: ``prob_range`` of each row of the ``--accuracy`` table; the first is
#: the generator's default, the corpus of the digest.
ACCURACY_RANGES = ((0.01, 0.5), (1e-4, 1e-2), (1e-9, 1e-6))


def corpus(prob_range=ACCURACY_RANGES[0]):
    for m in (0, 3, 10):
        for seed in range(300):
            yield generate(GenConfig(seed=seed, n_be=12, n_gates=9,
                                     n_multiparent=m, prob_range=prob_range))


def accuracy():
    """Print float against exact ``solve_sfpa2``, one row per range."""
    print("%-12s %10s %10s %10s %10s" % (
        "prob_range", "median_rel", "max_rel", "above_1e-6", "float_0.0"))
    for lo, hi in ACCURACY_RANGES:
        errors = []
        zeros = 0
        for t in corpus((lo, hi)):
            exact = solve_sfpa2(t.with_exact_probs()).unreliability
            value = solve_sfpa2(t).unreliability
            # every probability is above 0, hence so is every exact value
            errors.append(float(abs(Fraction(value) - exact) / exact))
            zeros += value == 0
        print("%-12s %10.2g %10.2g %10d %10d" % (
            "%g-%g" % (lo, hi), statistics.median(errors), max(errors),
            sum(e > 1e-6 for e in errors), zeros))


def digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


#: The ``sfpa`` commands run on every file of the corpus.
COMMANDS = {
    "dom": ["dom"],
    "sfpa2": ["solve", "--exact"],
    "sfpa": ["solve", "--exact", "--algo", "sfpa"],
    "mcs": ["mcs"],
    "treelike": ["solve", "--exact", "--algo", "treelike"],
}
#: Commands run only on the tree-shaped files: they refuse shared nodes.
TREE_ONLY = {"treelike"}


def cli_outputs(trees) -> dict:
    """What each of ``COMMANDS`` prints for each tree, one file after
    another, and ``sfpa check`` on the whole directory, with the
    directory left out of its paths; of a solve, only its
    ``raw_unreliability`` lines."""
    outs = {name: io.StringIO() for name in (*COMMANDS, "check")}
    with tempfile.TemporaryDirectory() as tmp:
        for i, t in enumerate(trees):
            path = Path(tmp) / ("%d.dft" % i)
            path.write_text(serialize_ft(t), encoding="utf-8")
            for name, command in COMMANDS.items():
                if name in TREE_ONLY and t.multiparent_nodes():
                    continue
                with contextlib.redirect_stdout(outs[name]):
                    if sfpa_main(command + [str(path)]) != 0:
                        raise SystemExit("sfpa %s failed on tree %d" % (name, i))
        with contextlib.redirect_stdout(outs["check"]):
            if sfpa_main(["check", tmp]) != 0:
                raise SystemExit("sfpa check failed on the corpus")
        prefix = os.path.join(tmp, "")
    texts = {name: out.getvalue() for name, out in outs.items()}
    texts["check"] = texts["check"].replace(prefix, "")
    for name, command in COMMANDS.items():
        if command[0] == "solve":
            texts[name] = "".join(json.loads(line)["raw_unreliability"] + "\n"
                                  for line in texts[name].splitlines())
    return texts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", help="write the float values to this JSON file")
    parser.add_argument("--compare", help="compare the float values with this JSON file")
    parser.add_argument("--accuracy", action="store_true",
                        help="print the float accuracy table instead")
    args = parser.parse_args(argv)
    if args.accuracy:
        accuracy()
        return

    trees = list(corpus())
    floats = {}
    for name, solve in ALGORITHMS.items():
        exact = [solve(t.with_exact_probs()).unreliability for t in trees]
        reports = [solve(t) for t in trees]
        floats[name] = [r.unreliability for r in reports]
        counters = [tuple(getattr(r, c) for c in COUNTERS) for r in reports]
        print("%-6s exact %s  float %s  counters %s" % (
            name, digest(exact), digest(floats[name]), digest(counters)))
        print("%-6s sums  %s" % (name, "  ".join(
            "%s=%d" % (c, sum(row[i] for row in counters))
            for i, c in enumerate(COUNTERS))))
    budgets = [variable_budget(t) for t in trees]
    outputs = cli_outputs(trees)
    print("dom    output %s  budgets %s  budget sum=%d" % (
        digest(outputs["dom"]), digest(budgets), sum(budgets)))
    print("cli    exact sfpa2 %s  exact sfpa %s  mcs %s" % (
        digest(outputs["sfpa2"]), digest(outputs["sfpa"]), digest(outputs["mcs"])))
    oracle = [oracle_unreliability(t) for t in trees]
    print("ref    oracle float %s  check %s  exact treelike %s (%d trees)" % (
        digest(oracle), digest(outputs["check"]), digest(outputs["treelike"]),
        len(outputs["treelike"].splitlines())))

    if args.save:
        with open(args.save, "w") as out:
            json.dump(floats, out)
    if args.compare:
        with open(args.compare) as src:
            baseline = json.load(src)
        for name, values in floats.items():
            diffs = [abs(a - b) for a, b in zip(values, baseline[name])]
            print("%-6s float differs on %d of %d trees, by at most %.3g" % (
                name, sum(d > 0 for d in diffs), len(diffs), max(diffs)))


if __name__ == "__main__":
    main()
