"""Fault-tree data model and exhaustive (oracle) analysis.

A fault tree is a rooted DAG whose leaves are basic events (BEs) with
failure probabilities and whose internal nodes are AND/OR gates.

Nodes are identified by dense integer ids in declaration order; names
are kept for I/O only.  All objects are immutable after construction and
every function here is pure.

Safety events are represented as frozensets of *failed* BE ids (the
implicit domain is the full BE set of the tree).
"""

from __future__ import annotations

import enum
import functools
import heapq
from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, DivisionByZero,
                     Inexact, InvalidOperation, Overflow, Rounded, localcontext)
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


def _in_unit(p):
    """``0 <= p <= 1``, and False for a NaN, whose ordering a Decimal
    signals as InvalidOperation."""
    try:
        return 0 <= p <= 1
    except InvalidOperation:
        return False


class GateKind(enum.Enum):
    AND = "and"
    OR = "or"
    BE = "be"


#: kind string -> member, for ``FaultTree.build``; calling GateKind runs
#: Python code
_KINDS = {kind.value: kind for kind in GateKind}


#: Probability types that do not mix: Decimal with float or Fraction
#: raises TypeError mid-solve, Fraction with float rounds to float.
_PROB_TYPES = (float, Decimal, Fraction)


class FaultTree:
    """An immutable, validated fault tree.

    Attributes:
        names: tuple of node names, indexed by node id.
        kinds: tuple of GateKind members (AND, OR or BE) per node.
        children: tuple of child-id tuples per node.
        parents: tuple of parent-id tuples per node (derived).
        probs: dict BE id -> failure probability: floats, Decimals or
            Fractions, one type per tree (ints mix with each).
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
        leaves = []
        ascending = True  # whether every edge leads to a larger id
        for v, kids in enumerate(self.children):
            if kids:
                first = (v,)
                if min(kids) <= v:
                    ascending = False
                for w in kids:
                    if parents[w]:
                        more.setdefault(w, []).append(v)
                    else:
                        parents[w] = first
            else:
                leaves.append(v)
        for w, rest in more.items():
            parents[w] += tuple(rest)
        self.parents = tuple(parents)
        self.name_to_id = dict(zip(self.names, range(n)))
        self._validate(more, leaves, ascending)

    # -- construction helpers -------------------------------------------

    @classmethod
    def build(cls, root, gates, probs):
        """Build a tree from name-based dictionaries.

        ``gates`` maps gate name -> (kind, [child names]) with kind either
        a GateKind or the string "and"/"or".  ``probs`` maps BE name ->
        probability.  Ids are assigned in declaration order: gates first,
        then BEs.
        """
        names = list(gates)
        kinds = []
        child_names = []
        for name, (kind, kids) in gates.items():
            if isinstance(kind, str):
                member = _KINDS.get(kind.lower())
                if member is None:
                    raise ValidationError(
                        "node %r has unknown kind %r" % (name, kind))
                kind = member
            kinds.append(kind)
            child_names.append(tuple(kids))
        m = len(names)
        names.extend(probs)
        id_probs = dict(zip(range(m, len(names)), probs.values()))
        kinds += [GateKind.BE] * len(probs)
        index = dict(zip(names, range(len(names))))
        if len(index) != len(names):
            seen = set()
            dupe = next(x for x in names if x in seen or seen.add(x))
            raise ValidationError("duplicate node name %r" % dupe)
        lookup = index.__getitem__
        try:
            children = [tuple(map(lookup, kids)) for kids in child_names]
        except KeyError:
            name, kid = next((name, kid) for name, kids in zip(names, child_names)
                             for kid in kids if kid not in index)
            raise ValidationError(
                "gate %r references unknown node %r" % (name, kid)
            ) from None
        children += [()] * len(probs)
        if root not in index:
            raise ValidationError("unknown root node %r" % root)
        return cls(names, kinds, children, id_probs, index[root])

    # -- validation ------------------------------------------------------

    def _validate(self, shared, leaves, ascending):
        """Check the tree and set ``order``, given the nodes that some gate
        lists after their first parent, the childless nodes in ascending
        order and whether every edge leads to a larger id."""
        names, kinds, children, parents = (self.names, self.kinds,
                                           self.children, self.parents)
        n = len(names)
        if not (0 <= self.root < n):
            raise ValidationError("root id out of range")
        if len(self.name_to_id) != n:
            dupe = next(x for x in names if names.count(x) > 1)
            raise ValidationError("duplicate node name %r" % dupe)
        # one scan over all names; "\0" cannot join two names into a match
        if _unwritable("\0".join(names)) or "toplevel" in self.name_to_id:
            bad = next(x for x in names if x == "toplevel" or _unwritable(x))
            raise ValidationError(
                "node name %r cannot be written in the text format" % bad
            )
        # Whole-tuple scans for what _check_nodes checks node by node; it
        # runs only when a scan fails, and names the smallest offending id.
        # The leaves must be the BEs and the keys of probs.  A gate lists a
        # child twice exactly when the child lists that gate twice among
        # its parents, and such a child is shared.  Reading GateKind.BE is
        # a descriptor call, and Enum hashing runs Python code, so the
        # kinds are counted rather than put in a set.
        probs = self.probs
        BE = GateKind.BE
        bes = len(leaves)
        try:
            valid = (
                kinds.count(BE) == bes == len(probs)
                and bes + kinds.count(GateKind.AND) + kinds.count(GateKind.OR) == n
                and list(map(kinds.__getitem__, leaves)) == [BE] * bes
                and all(map(probs.__contains__, leaves))
                and all(len(set(parents[w])) == len(parents[w]) for w in shared)
                and all(0 <= p <= 1 for p in probs.values())
            )
        except InvalidOperation:  # a Decimal NaN probability
            valid = False
        if not valid:
            self._check_nodes()
        if len(set(map(type, probs.values()))) > 1:
            self._check_prob_types()
        if ascending:
            # the smallest-id-first pass would return the ids in ascending
            # order (name_to_id holds them)
            order = tuple(self.name_to_id.values())
        else:
            order = self._kahn([v for v in range(n) if not parents[v]])
        # acyclic, so every node lies below some parentless node: all are
        # reachable exactly when the root is the only parentless node
        if parents.count(()) != 1 or parents[self.root]:
            stray = next(v for v in range(n) if not parents[v] and v != self.root)
            raise ValidationError(
                "node %r is unreachable from the root" % self.names[stray]
            )
        self.order = order

    def _check_nodes(self):
        for v in range(len(self.names)):
            kind = self.kinds[v]
            kids = self.children[v]
            if not isinstance(kind, GateKind):
                raise ValidationError(
                    "node %r has unknown kind %r" % (self.names[v], kind)
                )
            if kind is GateKind.BE:
                if kids:
                    raise ValidationError(
                        "leaf %r must not have children" % self.names[v]
                    )
                if v not in self.probs:
                    raise ValidationError(
                        "basic event %r has no probability" % self.names[v]
                    )
                p = self.probs[v]
                if not _in_unit(p):
                    raise ValidationError(
                        "probability %s of %r outside [0,1]" % (p, self.names[v])
                    )
                continue
            if not kids:
                raise ValidationError(
                    "gate %r has no children" % self.names[v]
                )
            if len(set(kids)) != len(kids):
                raise ValidationError(
                    "gate %r lists a child twice" % self.names[v]
                )
            if v in self.probs:
                raise ValidationError(
                    "node %r is not a basic event but has a probability"
                    % self.names[v]
                )

    def _check_prob_types(self):
        """Name the first two BEs, by id, whose probabilities are of two
        of ``_PROB_TYPES``."""
        first = None
        for v in sorted(self.probs):
            cls = type(self.probs[v])
            family = next((f for f in _PROB_TYPES if issubclass(cls, f)), None)
            if family is None:
                continue
            if first is None:
                first = v, family, cls
            elif family is not first[1]:
                raise ValidationError(
                    "probability of %r is a %s but that of %r is a %s: "
                    "float, Decimal and Fraction do not mix"
                    % (self.names[first[0]], first[2].__name__, self.names[v],
                       cls.__name__)
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

    # -- basic queries ---------------------------------------------------

    def __len__(self):
        return len(self.names)

    def basic_events(self):
        """BE ids in ascending id order."""
        BE = GateKind.BE
        return [v for v, k in enumerate(self.kinds) if k is BE]

    def multiparent_nodes(self):
        """Ids of nodes with two or more parents, ascending."""
        return [v for v in range(len(self.names)) if len(self.parents[v]) >= 2]

    def with_exact_probs(self):
        """Copy with every probability converted to an exact Fraction."""
        probs = {v: Fraction(p) for v, p in self.probs.items()}
        return FaultTree(self.names, self.kinds, self.children, probs, self.root)


# -- exhaustive analysis -----------------------------------------------


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


def _root_table(t: FaultTree):
    """Evaluate the structure function at the root over all BE assignments.

    Returns (bes, table) where bit a of ``table`` is the root value under
    the assignment whose bit j is the state of ``bes[j]``.
    """
    bes = t.basic_events()
    n = len(bes)
    table = dict(zip(bes, _variable_tables(n)))
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
def oracle_unreliability(t: FaultTree, cap=DEFAULT_ENUM_CAP):
    """Top-event failure probability by explicit summation over cut sets.

    This is the brute-force reference that the polynomial algorithms are
    validated against; exact when the probabilities are Fractions or
    Decimals.
    """
    _check_cap(t, cap)
    bes, table = _root_table(t)
    weights = _assignment_weights(t, bes)
    blob = table.to_bytes((len(weights) + 7) // 8, "little")
    total = 0
    for a, w in enumerate(weights):
        if blob[a >> 3] & (1 << (a & 7)):
            total = total + w
    return total
