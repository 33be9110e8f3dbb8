"""Fault-tree data model and exhaustive (oracle) analysis.

A fault tree is a rooted DAG whose leaves are basic events (BEs) with
failure probabilities and whose internal nodes are AND/OR gates.  Leaves
may also be *controllable* basic events (CBEs), whose 0/1 state is set
externally rather than drawn at random; a tree with CBEs is what the
rest of the package calls a PCFT.

Nodes are identified by dense integer ids in declaration order; names
are kept for I/O only.  All objects are immutable after construction and
every function here is pure.

Safety events are represented as frozensets of *failed* BE ids (the
implicit domain is the full BE set of the tree); CBE states are passed
as mappings from CBE id to 0/1.
"""

from __future__ import annotations

import enum
import functools
import heapq
from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, Context, DivisionByZero, Inexact,
                     InvalidOperation, Overflow, Rounded, localcontext)
from fractions import Fraction

from .errors import CapExceededError, ValidationError

#: Default limit on the number of BEs for exhaustive enumeration
#: (2**20 assignments is about the largest that stays under seconds).
DEFAULT_ENUM_CAP = 20

#: Exact decimals whatever the caller's context: only sums, differences
#: and products run, so a trapped rounding would mean a bug.
_EXACT_DECIMALS = Context(
    prec=MAX_PREC, Emin=MIN_EMIN, Emax=MAX_EMAX,
    traps=[InvalidOperation, DivisionByZero, Overflow, Inexact, Rounded],
)


def _exact_decimals(fn):
    """Run ``fn`` under ``_EXACT_DECIMALS``, so that Decimal probabilities
    never round; the caller's context is neither used nor changed."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with localcontext(_EXACT_DECIMALS):
            return fn(*args, **kwargs)
    return wrapper


def _unwritable(text):
    """Whether ``text`` holds what no name in the text format can: a quote
    (it ends a quoted name), ``//`` (it starts a comment) or a character
    that ``str.splitlines`` breaks on (it ends the declaration)."""
    return '"' in text or "//" in text or len((text + "\0").splitlines()) > 1


class GateKind(enum.Enum):
    AND = "and"
    OR = "or"
    BE = "be"
    CBE = "cbe"


_LEAF_KINDS = (GateKind.BE, GateKind.CBE)


class FaultTree:
    """An immutable, validated fault tree (or PCFT, if CBEs are present).

    Attributes:
        names: tuple of node names, indexed by node id.
        kinds: tuple of GateKind per node.
        children: tuple of child-id tuples per node.
        parents: tuple of parent-id tuples per node (derived).
        probs: dict BE id -> failure probability (float, Decimal or
            Fraction).
        root: id of the root node.
        order: tuple of all node ids, root first and every parent before
            its children, ties broken by smallest id (computed once by
            validation; every traversal of the package reads it).
    """

    __slots__ = ("names", "kinds", "children", "parents", "probs", "root",
                 "name_to_id", "order")

    def __init__(self, names, kinds, children, probs, root):
        self.names = tuple(names)
        self.kinds = tuple(kinds)
        self.children = tuple(map(tuple, children))
        self.probs = dict(probs)
        self.root = root
        n = len(self.names)
        # one tuple per gate, shared as the first parent of each child: far
        # fewer objects than a list per node; only nodes with more parents
        # get a tuple of their own
        parents = [()] * n
        more = {}  # node -> its parents after the first
        for v, kids in enumerate(self.children):
            if kids:
                first = (v,)
                for w in kids:
                    if parents[w]:
                        more.setdefault(w, []).append(v)
                    else:
                        parents[w] = first
        for w, rest in more.items():
            parents[w] += tuple(rest)
        self.parents = tuple(parents)
        self.name_to_id = dict(zip(self.names, range(n)))
        self._validate()

    # -- construction helpers -------------------------------------------

    @classmethod
    def build(cls, root, gates, probs, cbes=()):
        """Build a tree from name-based dictionaries.

        ``gates`` maps gate name -> (kind, [child names]) with kind either
        a GateKind or the string "and"/"or".  ``probs`` maps BE name ->
        probability; ``cbes`` lists CBE names.  Ids are assigned in
        declaration order: gates first, then BEs, then CBEs.
        """
        names = []
        kinds = []
        child_names = []
        for name, (kind, kids) in gates.items():
            if isinstance(kind, str):
                kind = GateKind(kind.lower())
            names.append(name)
            kinds.append(kind)
            child_names.append(list(kids))
        id_probs = {}
        for name, p in probs.items():
            id_probs[len(names)] = p
            names.append(name)
            kinds.append(GateKind.BE)
            child_names.append([])
        for name in cbes:
            names.append(name)
            kinds.append(GateKind.CBE)
            child_names.append([])
        index = {}
        for i, name in enumerate(names):
            if name in index:
                raise ValidationError("duplicate node name %r" % name)
            index[name] = i
        children = []
        for name, kids in zip(names, child_names):
            ids = []
            for kid in kids:
                if kid not in index:
                    raise ValidationError(
                        "gate %r references unknown node %r" % (name, kid)
                    )
                ids.append(index[kid])
            children.append(ids)
        if root not in index:
            raise ValidationError("unknown root node %r" % root)
        return cls(names, kinds, children, id_probs, index[root])

    # -- validation ------------------------------------------------------

    def _validate(self):
        n = len(self.names)
        if not (0 <= self.root < n):
            raise ValidationError("root id out of range")
        if len(self.name_to_id) != n:
            dupe = next(x for x in self.names if self.names.count(x) > 1)
            raise ValidationError("duplicate node name %r" % dupe)
        # one scan over all names; "\0" cannot join two names into a match
        if _unwritable("\0".join(self.names)) or "toplevel" in self.name_to_id:
            bad = next(x for x in self.names if x == "toplevel" or _unwritable(x))
            raise ValidationError(
                "node name %r cannot be written in the text format" % bad
            )
        # Whole-tuple scans for what _check_nodes checks node by node; it
        # runs only when a scan fails, and names the smallest offending id.
        # A gate lists a child twice exactly when the child lists that gate
        # twice among its parents.
        probs = self.probs
        bes = [v for v, kind in enumerate(self.kinds) if kind is GateKind.BE]
        if not (
            list(map(bool, self.children))
            == [kind not in _LEAF_KINDS for kind in self.kinds]
            and all(len(set(p)) == len(p) for p in self.parents if len(p) > 1)
            and len(bes) == len(probs)
            and all(map(probs.__contains__, bes))
            and all(0 <= p <= 1 for p in probs.values())
        ):
            self._check_nodes()
        sources = [v for v in range(n) if not self.parents[v]]
        if all(min(kids) > v for v, kids in enumerate(self.children) if kids):
            # every edge leads to a larger id, so the smallest-id-first pass
            # would return the ids in ascending order (name_to_id holds them)
            order = tuple(self.name_to_id.values())
        else:
            order = self._kahn(sources)
        # acyclic, so every node lies below some parentless node: all are
        # reachable exactly when the root is the only parentless node
        if sources != [self.root]:
            stray = next(v for v in sources if v != self.root)
            raise ValidationError(
                "node %r is unreachable from the root" % self.names[stray]
            )
        self.order = order

    def _check_nodes(self):
        for v in range(len(self.names)):
            kind = self.kinds[v]
            kids = self.children[v]
            if kind in _LEAF_KINDS:
                if kids:
                    raise ValidationError(
                        "leaf %r must not have children" % self.names[v]
                    )
            else:
                if not kids:
                    raise ValidationError(
                        "gate %r has no children" % self.names[v]
                    )
                if len(set(kids)) != len(kids):
                    raise ValidationError(
                        "gate %r lists a child twice" % self.names[v]
                    )
            if kind is GateKind.BE:
                if v not in self.probs:
                    raise ValidationError(
                        "basic event %r has no probability" % self.names[v]
                    )
                p = self.probs[v]
                if not (0 <= p <= 1):
                    raise ValidationError(
                        "probability %s of %r outside [0,1]" % (p, self.names[v])
                    )
            elif v in self.probs:
                raise ValidationError(
                    "node %r is not a basic event but has a probability"
                    % self.names[v]
                )

    def _kahn(self, sources):
        """Kahn's algorithm, smallest id first among the ready nodes."""
        n = len(self.names)
        order = []
        indeg = [len(p) for p in self.parents]
        heap = sources[:]  # ascending, hence already a heap
        children, pop, push = self.children, heapq.heappop, heapq.heappush
        while heap:
            v = pop(heap)
            order.append(v)
            for w in children[v]:
                left = indeg[w] - 1
                indeg[w] = left
                if not left:
                    push(heap, w)
        if len(order) != n:
            cyc = next(v for v in range(n) if indeg[v])
            raise ValidationError("cycle detected through node %r" % self.names[cyc])
        return tuple(order)

    def _reachable_from(self, v):
        return _reachable(self.children, v)

    # -- basic queries ---------------------------------------------------

    def __len__(self):
        return len(self.names)

    def basic_events(self):
        """BE ids in ascending id order."""
        return [v for v, k in enumerate(self.kinds) if k is GateKind.BE]

    def controllable_events(self):
        """CBE ids in ascending id order."""
        return [v for v, k in enumerate(self.kinds) if k is GateKind.CBE]

    def multiparent_nodes(self):
        """Ids of nodes with two or more parents, ascending."""
        return [v for v in range(len(self.names)) if len(self.parents[v]) >= 2]

    def with_exact_probs(self):
        """Copy with every probability converted to an exact Fraction."""
        probs = {v: Fraction(p) for v, p in self.probs.items()}
        return FaultTree(self.names, self.kinds, self.children, probs, self.root)

    # -- structural constructions ---------------------------------------

    def subtree(self, v):
        """The sub-tree of all descendants of ``v``, rooted at ``v``."""
        return self._rebuild(v, ())

    def restrict(self, cut):
        """Turn each node in ``cut`` into a CBE and drop what becomes unreachable.

        Nodes in ``cut`` lose their outgoing edges (and probability); the
        result is the portion still reachable from the root.
        """
        return self._rebuild(self.root, cut)

    def _rebuild(self, top, cut):
        """The part reachable from ``top`` once every node in ``cut`` is a
        childless CBE, rooted at ``top``; kept ids are renumbered densely
        in their old order."""
        cut = set(cut)
        _check_ids(self, (top, *cut))
        children = [() if v in cut else kids for v, kids in enumerate(self.children)]
        keep = sorted(_reachable(children, top))
        remap = {old: new for new, old in enumerate(keep)}
        return FaultTree(
            [self.names[u] for u in keep],
            [GateKind.CBE if u in cut else self.kinds[u] for u in keep],
            [[remap[w] for w in children[u]] for u in keep],
            {remap[u]: p for u, p in self.probs.items()
             if u in remap and u not in cut},
            remap[top],
        )


def _check_ids(t, ids):
    for v in ids:
        if not (0 <= v < len(t.names)):
            raise ValidationError("node id %d out of range" % v)


def _reachable(children, v):
    """Ids reachable from ``v`` (itself included) along ``children``."""
    seen = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for w in children[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


# -- structure function and exhaustive analysis -------------------------


def _as_on_set(x, ids, what, kind):
    """Normalize a safety event (``what`` "event", ``kind`` "BE") or a
    control ("control", "CBE"): a set of the ``ids`` that are on, or a
    mapping from exactly those ids to 0/1, to a frozenset of the ids on."""
    ids = set(ids)
    if isinstance(x, (set, frozenset)):
        extra = set(x) - ids
        if extra:
            raise ValidationError(
                "%s mentions non-%s ids %s" % (what, kind, sorted(extra)))
        return frozenset(x)
    if set(x) != ids:
        raise ValidationError(
            "%s must be defined on exactly the %s set" % (what, kind))
    return frozenset(v for v in x if x[v])


def structure_function(t: FaultTree, v: int, f, c=None) -> bool:
    """Evaluate the recursive Boolean structure function at node ``v``.

    ``f`` is a safety event (set of failed BE ids, or a full mapping);
    ``c`` likewise fixes the CBE states when the tree has CBEs.
    """
    _check_ids(t, (v,))
    failed = _as_on_set(f, t.basic_events(), "event", "BE")
    on = _as_on_set(frozenset() if c is None else c, t.controllable_events(),
                    "control", "CBE")
    value = {}
    for u in reversed(t.order):
        kind = t.kinds[u]
        if kind is GateKind.BE:
            value[u] = u in failed
        elif kind is GateKind.CBE:
            value[u] = u in on
        elif kind is GateKind.OR:
            value[u] = any(value[w] for w in t.children[u])
        else:
            value[u] = all(value[w] for w in t.children[u])
    return value[v]


def _variable_tables(n: int):
    """Truth-table bit patterns for n Boolean variables.

    Pattern j is a 2**n-bit integer whose bit a equals bit j of a, so
    bitwise AND/OR on these integers evaluates a monotone circuit over
    all 2**n assignments at once.
    """
    patterns = []
    for j in range(n):
        block = 1 << j
        unit = ((1 << block) - 1) << block  # low `block` zeros, then ones
        period = 2 * block
        reps = (1 << n) // period
        tile = ((1 << (period * reps)) - 1) // ((1 << period) - 1)
        patterns.append(unit * tile)
    return patterns


def _root_table(t: FaultTree, control=frozenset()):
    """Evaluate the structure function at the root over all BE assignments.

    Returns (bes, table) where bit a of ``table`` is the root value under
    the assignment whose bit j is the state of ``bes[j]``.
    """
    bes = t.basic_events()
    n = len(bes)
    patterns = _variable_tables(n)
    full = (1 << (1 << n)) - 1
    table = {}
    for j, v in enumerate(bes):
        table[v] = patterns[j]
    for v in t.controllable_events():
        table[v] = full if v in control else 0
    for u in reversed(t.order):
        if u in table:
            continue
        kids = t.children[u]
        acc = table[kids[0]]
        if t.kinds[u] is GateKind.OR:
            for w in kids[1:]:
                acc |= table[w]
        else:
            for w in kids[1:]:
                acc &= table[w]
        table[u] = acc
    return bes, table[t.root]


def _assignment_weights(t: FaultTree, bes):
    """Probability of each of the 2**n BE assignments, indexed by bitmask."""
    weights = [1]
    for v in bes:
        p = t.probs[v]
        q = 1 - p
        weights = [w * q for w in weights] + [w * p for w in weights]
    return weights


def _check_cap(t: FaultTree, cap):
    n = len(t.basic_events())
    if n > cap:
        raise CapExceededError(n, cap)


def cut_sets(t: FaultTree, cap=DEFAULT_ENUM_CAP):
    """All safety events that fail the root, as frozensets of failed BE ids."""
    _check_cap(t, cap)
    bes, table = _root_table(t)
    n = len(bes)
    result = set()
    for a in range(1 << n):
        if (table >> a) & 1:
            result.add(frozenset(bes[j] for j in range(n) if (a >> j) & 1))
    return result


@_exact_decimals
def _failure_probability(t: FaultTree, control, cap):
    """Sum the weights of the BE assignments that fail the root."""
    _check_cap(t, cap)
    bes, table = _root_table(t, control)
    weights = _assignment_weights(t, bes)
    blob = table.to_bytes((len(weights) + 7) // 8, "little")
    total = 0
    for a, w in enumerate(weights):
        if blob[a >> 3] & (1 << (a & 7)):
            total = total + w
    return total


def oracle_unreliability(t: FaultTree, cap=DEFAULT_ENUM_CAP):
    """Top-event failure probability by explicit summation over cut sets.

    This is the brute-force reference that the polynomial algorithms are
    validated against; exact when the probabilities are Fractions or
    Decimals.
    """
    return _failure_probability(t, frozenset(), cap)


def pcft_unreliability(t: FaultTree, c, cap=DEFAULT_ENUM_CAP):
    """Failure probability of a PCFT with its CBE states fixed to ``c``."""
    on = _as_on_set(c, t.controllable_events(), "control", "CBE")
    return _failure_probability(t, on, cap)
