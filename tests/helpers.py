"""Shared fixtures and independent oracles for the test suite.

The oracles here (exhaustive path enumeration for dominators, the
coefficientwise substitution formula, truth-table equivalence of trees,
the variable budget by graph walks, the cut-set reduction over
``Fraction``s, a BDD for exact values past the exhaustive oracle's reach)
are deliberately naive and separate from the library code they check.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from sfpa import (
    CapExceededError,
    FaultTree,
    GateKind,
    GenConfig,
    NoCutSetError,
    Poly,
    ValidationError,
    generate,
    immediate_dominators,
    solve_sfpa2,
)
from sfpa.solver import MCS_CAP
from oracles import structure_function


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


def long_digits_text(shared=True):
    """A tree whose exact unreliability has hundreds of significant digits:
    an AND over twelve basic events with 17-digit probabilities and, with
    ``shared``, the event ``s`` that a second gate also holds."""
    bes = ["b%02d" % i for i in range(12)]
    lines = ['toplevel "top";', '"top" or "big" "side";',
             '"big" and %s;' % " ".join('"%s"' % b for b in bes + ["s"] * shared),
             '"side" and "s" "c";', '"s" prob=0.12345678901234567;',
             '"c" prob=0.98765432109876543;']
    lines += ['"%s" prob=0.%d;' % (b, 31415926535897932 + 2718281828 * i)
              for i, b in enumerate(bes)]
    return "\n".join(lines) + "\n"


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


def variable_budget_by_walks(t: FaultTree, idom=None) -> int:
    """Live-variable budget by definition: for each multiparent node w,
    walk up to its ancestors and down from its immediate dominator, and
    count w at every node in both sets."""
    if idom is None:
        idom = immediate_dominators(t)
    live = [0] * len(t)
    for w in t.multiparent_nodes():
        ancestors = set()
        stack = [w]
        while stack:
            u = stack.pop()
            for p in t.parents[u]:
                if p not in ancestors:
                    ancestors.add(p)
                    stack.append(p)
        idw = idom[w]
        below_idw = {idw}
        stack = [idw]
        while stack:
            u = stack.pop()
            for kid in t.children[u]:
                if kid not in below_idw:
                    below_idw.add(kid)
                    stack.append(kid)
        for v in ancestors & below_idw:
            live[v] += 1
    return max(live, default=0)


def minimal_cut_set_by_fractions(t: FaultTree, cap: int = MCS_CAP):
    """The minimal-cut-set reduction over exact rationals: the rigged
    solve in ``Fraction``s, and the leading digit found by multiplying
    by ten until the value reaches one."""
    bes = sorted(t.basic_events(), key=lambda v: t.names[v])
    if len(bes) > cap:
        raise CapExceededError(len(bes), cap)
    probs = {v: Fraction(1, 10 ** (2**i)) for i, v in enumerate(bes)}
    rigged = FaultTree(t.names, t.kinds, t.children, probs, t.root)
    value = solve_sfpa2(rigged).unreliability
    if value == 0:
        raise NoCutSetError("the tree has no cut sets")
    num, den = value.numerator, value.denominator
    if num >= den:
        raise ValidationError("unexpected unreliability >= 1")
    kappa = 0
    while num < den:
        num *= 10
        kappa += 1
    return frozenset(bes[i] for i in range(len(bes)) if (kappa >> i) & 1)


def solve_sfpa2_by_idom_order(t: FaultTree):
    """The optimized solve with the whole-gate order, as a reference: each
    gate multiplies all its child factors in child order, then substitutes
    the multiparent nodes it immediately dominates in forward topological
    order.  Returns the unreliability."""
    idom = immediate_dominators(t)
    pending = {}
    for w in t.order:
        if len(t.parents[w]) > 1:
            pending.setdefault(idom[w], []).append(w)
    g = dict(t.probs)
    for v in reversed(t.order):
        if t.kinds[v] is GateKind.BE:
            continue
        invert = t.kinds[v] is GateKind.OR
        gv = 1
        for w in t.children[v]:
            val = g[w] if len(t.parents[w]) == 1 else Poly.variable(w)
            gv = gv * (1 - val if invert else val)
        if invert:
            gv = 1 - gv
        for w in pending.get(v, ()):
            if isinstance(gv, Poly):
                gw = g[w] if isinstance(g[w], Poly) else Poly.constant(g[w])
                gv = gv.substitute(w, gw)
        if isinstance(gv, Poly) and gv.is_constant():
            gv = gv.constant_value()
        g[v] = gv
    return g[t.root]


class Bdd:
    """Reduced ordered BDD (Bryant, IEEE TC 1986): node ids are integers,
    0 and 1 the terminals, every other node a (level, low, high) triple
    kept unique; ``apply`` memoises AND and OR on pairs of ids."""

    def __init__(self, levels):
        self.nodes = [(levels, None, None), (levels, None, None)]
        self.unique = {}
        self.cache = {}

    def mk(self, level, lo, hi):
        if lo == hi:
            return lo
        key = (level, lo, hi)
        if key not in self.unique:
            self.unique[key] = len(self.nodes)
            self.nodes.append(key)
        return self.unique[key]

    def apply(self, is_and, a, b):
        absorbing, neutral = (0, 1) if is_and else (1, 0)
        if absorbing in (a, b):
            return absorbing
        if a == neutral or a == b:
            return b
        if b == neutral:
            return a
        key = (is_and, min(a, b), max(a, b))
        if key not in self.cache:
            (la, a0, a1), (lb, b0, b1) = self.nodes[a], self.nodes[b]
            level = min(la, lb)
            if la != level:
                a0 = a1 = a
            if lb != level:
                b0 = b1 = b
            self.cache[key] = self.mk(level, self.apply(is_and, a0, b0),
                                      self.apply(is_and, a1, b1))
        return self.cache[key]


def bdd_unreliability(t: FaultTree):
    """Unreliability through a reduced ordered BDD, basic events ordered
    by first visit in a depth-first walk from the root.  Apply recurses
    at most one level per basic event."""
    level, seen, stack = {}, set(), [t.root]
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            if t.kinds[v] is GateKind.BE:
                level[v] = len(level)
            stack.extend(reversed(t.children[v]))
    bdd = Bdd(len(level))
    node = {}
    for v in reversed(t.order):
        if t.kinds[v] is GateKind.BE:
            node[v] = bdd.mk(level[v], 0, 1)
            continue
        is_and = t.kinds[v] is GateKind.AND
        acc = 1 if is_and else 0
        for w in t.children[v]:
            acc = bdd.apply(is_and, acc, node[w])
        node[v] = acc
    prob = {lv: t.probs[v] for v, lv in level.items()}
    value = [0, 1]
    for lv, lo, hi in bdd.nodes[2:]:  # children before parents
        value.append((1 - prob[lv]) * value[lo] + prob[lv] * value[hi])
    return value[node[t.root]]


def relabelled(t: FaultTree, rng) -> FaultTree:
    """The same tree under a random node-id permutation, with every gate's
    children in a random order."""
    perm = list(range(len(t)))
    rng.shuffle(perm)  # old id -> new id
    inverse = sorted(range(len(t)), key=perm.__getitem__)
    children = []
    for old in inverse:
        kids = [perm[c] for c in t.children[old]]
        rng.shuffle(kids)
        children.append(kids)
    return FaultTree([t.names[old] for old in inverse],
                     [t.kinds[old] for old in inverse], children,
                     {perm[v]: p for v, p in t.probs.items()}, perm[t.root])


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
    return {t.names[v]: t.names[u] for v, u in immediate_dominators(t).items()}


def trees_equivalent(ta: FaultTree, tb: FaultTree) -> bool:
    """Semantic equality: same leaves by name, same structure function
    and same probabilities, checked over every assignment."""
    bes_a = {ta.names[v]: v for v in ta.basic_events()}
    bes_b = {tb.names[v]: v for v in tb.basic_events()}
    if set(bes_a) != set(bes_b):
        return False
    if any(ta.probs[bes_a[n]] != tb.probs[bes_b[n]] for n in bes_a):
        return False
    names = sorted(bes_a)
    for bits in itertools.product([0, 1], repeat=len(names)):
        state = dict(zip(names, bits))
        fa = {bes_a[n] for n in bes_a if state[n]}
        fb = {bes_b[n] for n in bes_b if state[n]}
        if structure_function(ta, ta.root, fa) != structure_function(tb, tb.root, fb):
            return False
    return True


def make_rng(seed):
    return random.Random(seed)
