"""Unreliability algorithms on fault-tree DAGs.

The polynomial method processes nodes leaves-first.  Each node gets an
expression for its failure probability in which shared (multiparent)
descendants appear as formal variables; a variable is substituted by its
numeric (or polynomial) value inside the immediate dominator of the node
it stands for, where no second copy can show up any more: as soon as the
last factor holding it is in, in min-width order.  At the root all
variables are gone and the constant left over is the unreliability.
Every solver visits the nodes in the tree's stored topological order
reversed, which is children-first.  Any children-first order gives the
same values and counters; a depth-first order would not save memory
either, since the solvers keep every node's value until the end.

Both polynomial algorithms run one loop and differ only in which nodes
become variables: the plain one gives every gate child a variable, the
optimized one folds single-parent children directly into the gate
expression and gives variables to multiparent nodes only.

The optimized algorithm also picks each variable's polarity.  A
multiparent node whose parents are mostly OR gates gets a complemented
variable ``y = 1 - x``: an OR over k such children is then the one term
``1 - y_1...y_k`` instead of the 2**k - 1 terms of ``1 - prod(1 - x_i)``
(the complemented edges of BDDs, Brace, Rudell & Bryant, DAC 1990; the
fixed-polarity Reed-Muller form).  Its dominator substitutes ``1 - g``
for ``y``.  Complementing a small value cancels: in floats ``1 - p``
keeps only the absolute, not the relative, precision of ``p``, and a
tiny unreliability built from such terms loses every digit.  So a node
is complemented only when its value's constant term is at least 1/100.
The plain algorithm stays in the ``x`` basis, so its captured history
shows the paper's expressions.

Probabilities drive the coefficient field: build the tree with floats
for speed, or for exact results with Decimals (``parse_ft(text,
exact=True)`` on decimal literals) or Fractions (see
FaultTree.with_exact_probs).  Every solver runs under an exact decimal
context that traps any rounding, whatever the caller's context.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from decimal import Decimal

from .algebra import Poly
from .dominators import immediate_dominators
from .errors import CapExceededError, NoCutSetError, NotATreeError, ValidationError
from .tree import FaultTree, GateKind, _exact_decimals

#: Hard wall for the minimal-cut-set reduction: U(T) carries up to
#: 2**cap digits.  At 16 basic events one reduction takes 8.5 ms in the
#: median and 51 ms at most (20 generated trees, one Xeon core); each
#: further event costs two to three times more.
MCS_CAP = 16


@dataclass
class SolveReport:
    """Result of one polynomial solve, plus instrumentation.

    ``unreliability`` is the raw computed value (float mode may stray
    from [0,1] by rounding; ``clamped()`` reports it pinned back).
    ``max_live_vars`` and ``max_terms`` are the peak variable and term
    counts over every node value and every product and substitution
    result inside a gate that substitutes variables; ``multiplications``
    counts gate child factors and ``substitutions`` substituted variables.
    With ``capture=True`` the plain algorithm also records ``history``:
    for each node, its whole expression after construction and after
    every substitution (the last entry is the value used at its
    dominator).  Capturing changes neither the value nor the counters.
    """

    unreliability: object
    algorithm: str
    max_live_vars: int = 0
    max_terms: int = 0
    substitutions: int = 0
    multiplications: int = 0
    wall_time: float = 0.0
    history: dict[int, list[Poly]] | None = field(default=None, repr=False)

    def record(self, poly: Poly) -> int:
        """Raise the peak counters to ``poly``'s; return its variable mask."""
        mask = poly.variable_mask()
        self.max_terms = max(self.max_terms, len(poly))
        self.max_live_vars = max(self.max_live_vars, mask.bit_count())
        return mask

    def clamped(self):
        """``unreliability`` pinned to [0, 1]; the same object if it lies there."""
        return min(max(self.unreliability, 0), 1)


def _complemented(value, parents, kinds) -> bool:
    """Whether a multiparent node's variable stands for ``1 - x``: when
    most of its parents are OR gates and its value's constant term (the
    value itself for a number) is at least 1/100.  The comparison is
    exact, so a Decimal or Fraction value meets no float."""
    kind_or = GateKind.OR
    if 2 * sum(kinds[u] is kind_or for u in parents) <= len(parents):
        return False
    lo = value.terms.get(0, 0) if value.__class__ is Poly else value
    return 100 * lo >= 1


def _eliminate(factors, pending, g, num, report, observe=None):
    """Bucket elimination inside one gate (Dechter, AI 113, 1999).

    Takes the gate's polynomial child factors and the nodes it
    immediately dominates that stand as variables.  Each step picks the
    pending ``w`` whose elimination touches the fewest other variables
    (min-width), multiplies only the factors holding ``w``, smallest
    first, and substitutes ``g[w]``: substitution commutes with a factor
    lacking ``w``.  After every substitution ``observe``, if given, is
    called with the constant so far and the factors left.  Returns
    ``num`` times the constant results and the factors left, smallest
    first.
    """
    bucket = [(p.variable_mask(), p) for p in factors]
    left = {w: g[w].variable_mask() if isinstance(g[w], Poly) else 0
            for w in pending}

    def width(w):
        touched = left[w]
        for m, _ in bucket:
            if m >> w & 1:
                touched |= m
        return (touched & ~(1 << w)).bit_count()

    while left:
        # a w that a pending g[u] holds waits: substituting u brings it in
        w = min((u for u in left
                 if not any(m >> u & 1 for m in left.values())), key=width)
        del left[w]
        holders = sorted((p for m, p in bucket if m >> w & 1), key=len)
        if not holders:
            continue  # w never surfaced here
        bucket = [f for f in bucket if not f[0] >> w & 1]
        poly = holders[0]
        for p in holders[1:]:
            poly = poly * p
            report.record(poly)
        gw = g[w]
        poly = poly.substitute(w, gw if isinstance(gw, Poly) else Poly.constant(gw))
        report.substitutions += 1
        mask = report.record(poly)
        if mask:
            bucket.append((mask, poly))
        else:
            num = num * poly.constant_value()
        if observe:
            observe(num, [p for _, p in bucket])
    return num, sorted((p for _, p in bucket), key=len)


@_exact_decimals
def _solve(t: FaultTree, idom: dict[int, int] | None, algorithm: str,
           fold: bool, capture: bool = False) -> SolveReport:
    """The loop of both algorithms (see ``solve_sfpa2``); without ``fold``
    every gate child is a variable.  ``capture`` only observes: it records
    each gate's whole expression after construction and each substitution.

    Flat lists and hoisted locals: on large DAGs the solve is memory-bound
    and dict/attribute traffic would otherwise dominate the polynomial work.
    """
    start = time.perf_counter()
    if idom is None:
        idom = immediate_dominators(t)
    report = SolveReport(unreliability=None, algorithm=algorithm, max_terms=1,
                         history={} if capture else None)

    kinds, children, probs, parents = t.kinds, t.children, t.probs, t.parents
    single = [len(p) == 1 for p in parents] if fold else [False] * len(t)
    # multiparent node -> whether its variable is complemented (fold only),
    # decided at its first parent; a complemented node's g holds 1 - value,
    # what its variable is replaced by
    flipped = {}
    # each gate's variables to substitute, in forward topological order;
    # the root is skipped by a test, since a slice of t.order would copy it
    groups = {}
    root = t.root
    for w in t.order:
        if w != root and not single[w]:
            groups.setdefault(idom[w], []).append(w)
    # node value: a plain number while no variables are live, a Poly as
    # soon as a variable appears
    g = [None] * len(t)
    for v, p in probs.items():
        g[v] = p
        if capture:
            report.history[v] = [Poly.constant(p)]
    poly_cls = Poly
    variable = Poly.variable
    kind_be = GateKind.BE
    kind_or = GateKind.OR
    multiplications = 0

    for v in reversed(t.order):
        kind = kinds[v]
        if kind is kind_be:
            continue
        invert = kind is kind_or  # OR(v) = 1 - prod(1 - children)
        num = 1
        polys = []
        for w in children[v]:
            if single[w]:
                val = g[w]
            else:
                val = variable(w)
                if fold:
                    flip = flipped.get(w)
                    if flip is None:
                        flip = flipped[w] = _complemented(g[w], parents[w], kinds)
                        if flip:
                            g[w] = 1 - g[w]
                    if flip:
                        val = 1 - val  # x = 1 - y
            if invert:
                val = 1 - val
            if val.__class__ is poly_cls:
                polys.append(val)
            else:
                num = num * val
        multiplications += len(children[v])
        observe = None
        if capture:
            def observe(num, factors, steps=report.history.setdefault(v, []),
                        invert=invert):
                poly = Poly.constant(num)
                for p in factors:
                    poly = poly * p
                steps.append(1 - poly if invert else poly)
            observe(num, polys)
        pending = groups.get(v)
        if pending and polys:
            num, polys = _eliminate(polys, pending, g, num, report, observe)
        if not polys:
            g[v] = 1 - num if invert else num
            continue
        poly = polys[0]
        for val in polys[1:]:
            poly = poly * val
            if pending:
                report.record(poly)
        gv = poly if num == 1 else poly * num
        if invert:
            gv = 1 - gv
        g[v] = gv.constant_value() if report.record(gv) == 0 else gv

    report.multiplications = multiplications
    value = g[t.root]
    report.unreliability = (
        value.constant_value() if isinstance(value, poly_cls) else value
    )
    report.wall_time = time.perf_counter() - start
    return report


def solve_sfpa(t: FaultTree, idom: dict[int, int] | None = None,
               capture: bool = False) -> SolveReport:
    """Plain polynomial algorithm: a formal variable per gate child."""
    return _solve(t, idom, "sfpa", fold=False, capture=capture)


def solve_sfpa2(t: FaultTree, idom: dict[int, int] | None = None) -> SolveReport:
    """Optimized polynomial algorithm.

    Single-parent children are folded into the gate expression without
    ever becoming formal variables, so variables exist only for
    multiparent nodes; a gate that immediately dominates some substitutes
    each inside itself as soon as the last factor holding it is in, in
    min-width order (``_eliminate``).  On a tree-shaped input this
    degenerates to the classical numeric bottom-up pass.

    A multiparent node with mostly OR parents gets the complemented
    variable ``y = 1 - x``, so that the ORs over it multiply single
    terms, and its dominator substitutes ``1 - value`` for ``y``; only
    when its value's constant term is at least 1/100, since ``1 - p``
    of a small float ``p`` loses the digits a tiny unreliability needs.
    Exact values are the same in either basis.
    """
    return _solve(t, idom, "sfpa2", fold=True)


@_exact_decimals
def solve_treelike(t: FaultTree):
    """Classical numeric bottom-up unreliability; trees only."""
    for v in t.multiparent_nodes():
        raise NotATreeError(t.names[v])
    value = {}
    for v in reversed(t.order):
        kind = t.kinds[v]
        if kind is GateKind.BE:
            value[v] = t.probs[v]
        elif kind is GateKind.AND:
            acc = 1
            for w in t.children[v]:
                acc = acc * value[w]
            value[v] = acc
        else:
            acc = 1
            for w in t.children[v]:
                acc = acc * (1 - value[w])
            value[v] = 1 - acc
    return value[t.root]


def variable_budget(t: FaultTree, idom: dict[int, int] | None = None) -> int:
    """Maximum number of simultaneously live formal variables.

    A multiparent node w is live at v when v is a strict ancestor of w
    but still at-or-below the immediate dominator of w.  The maximum of
    the live counts over all nodes bounds every polynomial's variable
    set in the optimized algorithm.

    One children-first pass with a bit per multiparent node: the live
    set at v is the union over children c of the set live above c, plus
    c if multiparent; above v, the nodes v immediately dominates leave.
    """
    if idom is None:
        idom = immediate_dominators(t)
    bit = {w: 1 << j for j, w in enumerate(t.multiparent_nodes())}
    dominated = [0] * len(t)
    for w, b in bit.items():
        dominated[idom[w]] |= b
    children = t.children
    live_out = [0] * len(t)
    budget = 0
    for v in reversed(t.order):
        live = 0
        for c in children[v]:
            live |= live_out[c] | bit.get(c, 0)
        if live:
            budget = max(budget, live.bit_count())
            live_out[v] = live & ~dominated[v]
    return budget


def minimal_cut_set_via_reduction(t: FaultTree, cap: int = MCS_CAP):
    """Extract one minimal cut set from a single exact unreliability value.

    Basic events are enumerated in name order as v_0, v_1, ...; each v_i
    gets the probability 10**(-2**i), so the exponents of the minimal
    cut sets are distinct integers whose binary digits spell out the cut
    set, and the leading decimal position of U(T) identifies the
    smallest of them.  Every rigged value is an integer over a power of
    ten, so the solve runs in exact decimals, like every solve; kappa is
    minus the leading digit's exponent.

    Returns the minimal cut set as a frozenset of failed BE ids.
    """
    bes = sorted(t.basic_events(), key=lambda v: t.names[v])
    if len(bes) > cap:
        raise CapExceededError(len(bes), cap)
    probs = {v: Decimal((0, (1,), -(2**i))) for i, v in enumerate(bes)}
    rigged = FaultTree(t.names, t.kinds, t.children, probs, t.root)
    value = solve_sfpa2(rigged).unreliability
    if value == 0:
        raise NoCutSetError("the tree has no cut sets")
    if value >= 1:
        # U(T) = 1 would require the empty event to be a cut set, which
        # monotone gates over basic events cannot produce.
        raise ValidationError("unexpected unreliability >= 1")
    kappa = -value.adjusted()
    return frozenset(bes[i] for i in range(len(bes)) if (kappa >> i) & 1)
