"""Topological order and immediate dominators of a fault-tree DAG.

Orientation: edges run from the root towards the leaves, and we order
nodes by the ancestor relation (a node is "below" another if the latter
can reach it).  A dominator of v is a node lying on every path from the
root to v; the immediate dominator is the closest one.

The computation is the iterative-intersection scheme of Cooper, Harvey
and Kennedy ("A Simple, Fast Dominance Algorithm", 2001) over the
topological order that ``FaultTree`` validation stores.  On a DAG every
parent comes before its children in that order, so a single sweep
reaches the fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tree import FaultTree


@dataclass(frozen=True)
class DominatorInfo:
    """Immediate dominators plus the topological order they were built on.

    ``idom`` maps every non-root node to its immediate dominator;
    ``topo_order`` lists the nodes root-first with every parent before
    its children; ``topo_index`` is the inverse permutation.
    """

    idom: dict[int, int]
    topo_order: tuple[int, ...]

    @property
    def topo_index(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.topo_order)}


def topo_sort(t: FaultTree) -> list[int]:
    """Root-first topological order, ties broken by smallest node id."""
    return list(t.order)


def immediate_dominators(t: FaultTree) -> DominatorInfo:
    """Immediate dominator of every non-root node."""
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
    return DominatorInfo(idom=idom, topo_order=order)


def check_idom_ordering(info: DominatorInfo, t: FaultTree) -> bool:
    """Verify the dominator ordering property on all comparable pairs.

    For every pair with v strictly below w, either idom(v) lies at or
    below w, or idom(w) lies at or below idom(v).  This holds on every
    valid tree; the function exists as a test oracle.
    """
    n = len(t)
    reach = [0] * n  # bitmask of descendants-or-self
    for v in reversed(info.topo_order):
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
            iv = info.idom[v]
            ok = below_eq(iv, w)
            if not ok and w != t.root:
                ok = below_eq(info.idom[w], iv)
            if not ok:
                return False
    return True
