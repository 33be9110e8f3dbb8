"""Shared fixtures and independent oracles for the test suite.

The oracles here (exhaustive path enumeration for dominators, the
coefficientwise substitution formula, truth-table equivalence of trees)
are deliberately naive and separate from the library code they check.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from sfpa import (
    FaultTree,
    GenConfig,
    Poly,
    generate,
    immediate_dominators,
    pcft_unreliability,
    structure_function,
)


def fig1():
    """The aircraft tree: AND over two ORs sharing the fuel supply."""
    return FaultTree.build(
        "planecrash",
        {
            "planecrash": ("and", ["leftengine", "rightengine"]),
            "leftengine": ("or", ["lrf", "nofuel"]),
            "rightengine": ("or", ["rrf", "nofuel"]),
        },
        {"rrf": 0.4, "nofuel": 0.3, "lrf": 0.4},
    )


FIG1_TEXT = """\
// aircraft example
toplevel "planecrash";
"planecrash" and "leftengine" "rightengine";
"leftengine" or "lrf" "nofuel";
"rightengine" or "rrf" "nofuel";
"rrf" prob=0.4;
"nofuel" prob=0.3;
"lrf" prob=0.4;
"""

#: Probability literals whose exponent ``Fraction`` cannot raise 10 to:
#: floats read them as inf, 0.0 and 0.0.
HUGE_EXPONENTS = ("0.5e4573754160865701", "1e-4573754160865701",
                  "0e4573754160865701")


def fig2(p=0.5):
    """Two ORs sharing a basic event, under an AND, under the root AND."""
    return FaultTree.build(
        "h",
        {
            "h": ("and", ["f", "g"]),
            "f": ("and", ["d", "e"]),
            "d": ("or", ["a", "b"]),
            "e": ("or", ["b", "c"]),
        },
        {"a": p, "b": p, "c": p, "g": p},
    )


def random_tree(rng, max_be=12, max_gates=10, max_multiparent=8, exact=False):
    """One random valid fault tree drawn through the package generator."""
    n_be = rng.randint(1, max_be)
    n_gates = 0 if n_be == 1 and rng.random() < 0.1 else rng.randint(1, max_gates)
    max_children = rng.randint(2, 4)
    if n_gates:
        # stay within the total child capacity of the gates
        n_be = min(n_be, n_gates * max_children - (n_gates - 1))
    cfg = GenConfig(
        seed=rng.getrandbits(48),
        n_be=n_be,
        n_gates=n_gates,
        max_children=max_children,
        p_and=rng.random(),
        n_multiparent=0
        if n_gates == 0
        else rng.randint(0, min(max_multiparent, n_be + n_gates - 1)),
        prob_range=(0.05, 0.95),
    )
    t = generate(cfg)
    return t.with_exact_probs() if exact else t


def random_poly(rng, variables, max_terms=5, rational=True):
    """Random squarefree polynomial over the given variable indices."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mask = 0
        for v in variables:
            if rng.random() < 0.5:
                mask |= 1 << v
        if rational:
            coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        else:
            coeff = rng.uniform(-3, 3)
        terms[mask] = terms.get(mask, 0) + coeff
    return Poly(terms)


def substitute_by_definition(a: Poly, x: int, b: Poly) -> Poly:
    """Coefficientwise substitution formula, as an independent oracle."""
    bit = 1 << x
    out = {}
    for mask_a, ca in a.terms.items():
        if not mask_a & bit:
            out[mask_a] = out.get(mask_a, 0) + ca
            continue
        rest = mask_a & ~bit
        for mask_b, cb in b.terms.items():
            mask = rest | mask_b
            out[mask] = out.get(mask, 0) + ca * cb
    return Poly(out)


def all_paths(t: FaultTree, v):
    """Every path root -> v, as lists of node ids (exhaustive DFS)."""
    paths = []

    def walk(u, prefix):
        prefix = prefix + [u]
        if u == v:
            paths.append(prefix)
            return
        for w in t.children[u]:
            walk(w, prefix)

    walk(t.root, [])
    return paths


def brute_force_idom(t: FaultTree, v):
    """Immediate dominator by path enumeration: the common path node
    (other than v) that every other common node can reach."""
    common = set.intersection(*(set(p) for p in all_paths(t, v))) - {v}
    reach = {}
    for u in common:
        seen = {u}
        stack = [u]
        while stack:
            x = stack.pop()
            for w in t.children[x]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        reach[u] = seen
    for u in common:
        if all(u in reach[other] for other in common):
            return u
    raise AssertionError("no immediate dominator found")


def idoms_by_name(t: FaultTree):
    info = immediate_dominators(t)
    return {t.names[v]: t.names[u] for v, u in info.idom.items()}


def trees_equivalent(ta: FaultTree, tb: FaultTree) -> bool:
    """Semantic equality: same leaves by name, same structure function
    and same probabilities, checked over every assignment."""
    bes_a = {ta.names[v]: v for v in ta.basic_events()}
    bes_b = {tb.names[v]: v for v in tb.basic_events()}
    cbes_a = {ta.names[v]: v for v in ta.controllable_events()}
    cbes_b = {tb.names[v]: v for v in tb.controllable_events()}
    if set(bes_a) != set(bes_b) or set(cbes_a) != set(cbes_b):
        return False
    if any(ta.probs[bes_a[n]] != tb.probs[bes_b[n]] for n in bes_a):
        return False
    names = sorted(bes_a) + sorted(cbes_a)
    for bits in itertools.product([0, 1], repeat=len(names)):
        state = dict(zip(names, bits))
        fa = {bes_a[n] for n in bes_a if state[n]}
        fb = {bes_b[n] for n in bes_b if state[n]}
        ca = {cbes_a[n] for n in cbes_a if state[n]}
        cb = {cbes_b[n] for n in cbes_b if state[n]}
        if structure_function(ta, ta.root, fa, ca) != structure_function(
            tb, tb.root, fb, cb
        ):
            return False
    return True


def unreliability_table(t: FaultTree):
    """Tabulate a PCFT's unreliability over all CBE assignments.

    Returns (cbe_ids, table) with table[mask] the unreliability when the
    CBEs whose position bit is set in mask are on.
    """
    cbes = t.controllable_events()
    table = []
    for mask in range(1 << len(cbes)):
        on = {cbes[j] for j in range(len(cbes)) if (mask >> j) & 1}
        table.append(pcft_unreliability(t, on))
    return cbes, table


def make_rng(seed):
    return random.Random(seed)
