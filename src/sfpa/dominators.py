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

