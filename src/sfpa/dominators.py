"""Immediate dominators of a fault-tree DAG.

Edges run from the root towards the leaves.  A dominator of a node v is
a node on every path from the root to v; the immediate dominator is the
closest one.  The solvers substitute the variable of a shared node inside
its immediate dominator, so the map ``immediate_dominators`` returns,
from every non-root node to its immediate dominator, is all they need.

The computation is the iterative-intersection scheme of Cooper, Harvey
and Kennedy ("A Simple, Fast Dominance Algorithm", 2001) over the
root-first topological order ``t.order`` that ``FaultTree`` validation
stores.  On a DAG every parent comes before its children in that order,
so a single sweep reaches the fixpoint.
"""

from __future__ import annotations

from .tree import FaultTree


def topo_sort(t: FaultTree) -> list[int]:
    """Root-first topological order, ties broken by smallest node id."""
    return list(t.order)


def immediate_dominators(t: FaultTree) -> dict[int, int]:
    """Map every non-root node to its immediate dominator."""
    order, parents = t.order, t.parents
    index = [0] * len(order)
    for i, v in enumerate(order):
        index[v] = i
    idom = {}
    for v in order[1:]:
        preds = parents[v]
        new = preds[0]
        for p in preds[1:]:
            # walk both up the dominator tree until they meet; the root
            # has index 0, so it is never the one that moves
            while p != new:
                while index[p] > index[new]:
                    p = idom[p]
                while index[new] > index[p]:
                    new = idom[new]
        idom[v] = new
    return idom


def check_idom_ordering(idom: dict[int, int], t: FaultTree) -> bool:
    """Verify the dominator ordering property on all comparable pairs.

    For every pair with v strictly below w, either idom(v) lies at or
    below w, or idom(w) lies at or below idom(v).  This holds on every
    valid tree; the function exists as a test oracle.
    """
    n = len(t)
    reach = [0] * n  # bitmask of descendants-or-self
    for v in reversed(t.order):
        mask = 1 << v
        for w in t.children[v]:
            mask |= reach[w]
        reach[v] = mask

    def below_eq(x, y):  # x is a descendant of (or equal to) y
        return bool(reach[y] >> x & 1)

    for w in range(n):
        for v in range(n):
            if v == w or not below_eq(v, w):
                continue
            # v is strictly below w
            iv = idom[v]
            ok = below_eq(iv, w)
            if not ok and w != t.root:
                ok = below_eq(idom[w], iv)
            if not ok:
                return False
    return True
