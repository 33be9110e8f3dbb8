"""Reference routines that only the tests call.

Truth-table interpolation and evaluation of squarefree polynomials, the
recursive structure function, the dominator ordering property, and the
sub-trees behind the paper's PCFTs (fault trees with controllable basic
events).  Here a PCFT is a plain ``FaultTree`` whose control nodes are
basic events of probability 1 (on) or 0 (off): see ``pinned``.
"""

from __future__ import annotations

from sfpa import (
    AlgebraError,
    FaultTree,
    GateKind,
    Poly,
    ValidationError,
    oracle_unreliability,
)


# -- squarefree polynomials ---------------------------------------------


def restrict(poly: Poly, index: int, bit: int) -> Poly:
    """Pin one variable to 0 or 1.

    Pinning to 0 drops every term containing the variable; pinning to 1
    folds those terms onto their variable-free remainder.
    """
    var = 1 << index
    out = {}
    for mask, coeff in poly.terms.items():
        if mask & var:
            if not bit:
                continue
            mask ^= var
        out[mask] = out.get(mask, 0) + coeff
    return Poly(out)


def evaluate(poly: Poly, assignment):
    """Evaluate at a full 0/1 assignment.

    ``assignment`` maps variable index -> 0/1 and must cover every
    variable of the polynomial.  A term contributes its coefficient iff
    all its variables are assigned 1.
    """
    covered = 0
    ones = 0
    for index, value in assignment.items():
        covered |= 1 << index
        if value:
            ones |= 1 << index
    missing = poly.variable_mask() & ~covered
    if missing:
        raise AlgebraError("assignment does not cover variables %s" % [
            j for j in range(missing.bit_length()) if missing >> j & 1])
    total = 0
    for mask, coeff in poly.terms.items():
        if mask & ~ones == 0:
            total = total + coeff
    return total


def interpolate(values, variables) -> Poly:
    """The unique squarefree polynomial matching a full truth table.

    ``variables`` is an ordered sequence of variable indices.
    ``values`` maps each bitmask over *positions* in that sequence
    (bit j set means variables[j] = 1) to the desired value; it may be
    a sequence of length ``2**len(variables)`` or an equivalent mapping.

    The coefficients solve a lower-triangular system in subset order;
    the forward substitution is performed as a Moebius transform over
    the subset lattice.
    """
    n = len(variables)
    size = 1 << n
    if len(values) != size:
        raise AlgebraError(
            "truth table has %d entries, expected %d" % (len(values), size)
        )
    try:
        table = [values[mask] for mask in range(size)]
    except KeyError as exc:
        raise AlgebraError(
            "truth table has no entry for mask %r" % exc.args[0]
        ) from None
    for j in range(n):
        bit = 1 << j
        for mask in range(size):
            if mask & bit:
                table[mask] = table[mask] - table[mask ^ bit]
    terms = {}
    for mask in range(size):
        real = 0
        for j in range(n):
            if mask & (1 << j):
                real |= 1 << variables[j]
        terms[real] = table[mask]
    return Poly(terms)


def tabulate(poly: Poly, variables) -> list:
    """Inverse of :func:`interpolate`: evaluate over all 2**n assignments."""
    n = len(variables)
    table = []
    for mask in range(1 << n):
        assignment = {variables[j]: (mask >> j) & 1 for j in range(n)}
        table.append(evaluate(poly, assignment))
    return table


# -- dominators ---------------------------------------------------------


def check_idom_ordering(idom: dict[int, int], t: FaultTree) -> bool:
    """Verify the dominator ordering property on all comparable pairs.

    For every pair with v strictly below w, either idom(v) lies at or
    below w, or idom(w) lies at or below idom(v).  This holds on every
    valid tree.
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


# -- structure function and pinned sub-trees ----------------------------


def _check_ids(t: FaultTree, ids):
    for v in ids:
        if not (0 <= v < len(t)):
            raise ValidationError("node id %d out of range" % v)


def reachable(children, v) -> set:
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


def _failed_set(f, bes):
    """A safety event, given as a set of failed BE ids or as a mapping
    from exactly the BE ids to 0/1, as a frozenset of failed BE ids."""
    bes = set(bes)
    if isinstance(f, (set, frozenset)):
        extra = set(f) - bes
        if extra:
            raise ValidationError("event mentions non-BE ids %s" % sorted(extra))
        return frozenset(f)
    if set(f) != bes:
        raise ValidationError("event must be defined on exactly the BE set")
    return frozenset(v for v in f if f[v])


def structure_function(t: FaultTree, v: int, f) -> bool:
    """Evaluate the recursive Boolean structure function at node ``v``
    under the safety event ``f`` (set of failed BE ids, or a full
    mapping)."""
    _check_ids(t, (v,))
    failed = _failed_set(f, t.basic_events())
    value = {}
    for u in reversed(t.order):
        kind = t.kinds[u]
        if kind is GateKind.BE:
            value[u] = u in failed
        elif kind is GateKind.OR:
            value[u] = any(value[w] for w in t.children[u])
        else:
            value[u] = all(value[w] for w in t.children[u])
    return value[v]


def pinned(t: FaultTree, top: int, cut, on=()) -> FaultTree:
    """The part of ``t`` reachable from ``top`` once each node of ``cut``
    is a childless basic event, of probability 1 if it is in ``on`` and
    0 otherwise, rooted at ``top``.

    Unreachable cut nodes are dropped; kept ids are renumbered densely in
    their old order.  With ``cut`` the nodes whose variables are still
    live, this is the restricted sub-tree whose unreliability table a
    node's expression interpolates.
    """
    cut = set(cut)
    _check_ids(t, (top, *cut))
    children = [() if v in cut else kids for v, kids in enumerate(t.children)]
    keep = sorted(reachable(children, top))
    remap = {old: new for new, old in enumerate(keep)}
    probs = {remap[u]: (int(u in on) if u in cut else t.probs[u])
             for u in keep if u in cut or u in t.probs}
    return FaultTree(
        [t.names[u] for u in keep],
        [GateKind.BE if u in cut else t.kinds[u] for u in keep],
        [[remap[w] for w in children[u]] for u in keep],
        probs,
        remap[top],
    )


def subtree(t: FaultTree, v: int) -> FaultTree:
    """The sub-tree of all descendants of ``v``, rooted at ``v``."""
    return pinned(t, v, ())


def unreliability_table(t: FaultTree, top: int, cut) -> list:
    """``oracle_unreliability(pinned(t, top, cut, on))`` for every on-set:
    entry m has on the ``cut[j]`` whose bit j is set in m."""
    return [
        oracle_unreliability(
            pinned(t, top, cut, {cut[j] for j in range(len(cut)) if m >> j & 1}))
        for m in range(1 << len(cut))
    ]
