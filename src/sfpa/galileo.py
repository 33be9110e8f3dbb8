"""Galileo-style text format for fault trees.

Line-oriented, UTF-8.  One declaration per line, terminated by ``;``:

    toplevel "sys";
    "sys" and "left" "right";
    "left" or "a" "b";
    "a" prob=0.25;

``//`` starts a comment; blank lines are ignored; declarations may come
in any order.  Names may be quoted or bare; the serializer always quotes.
A probability is a decimal literal or a ratio ``n/d`` of two integers;
the serializer writes an exact probability as ``n/d`` when no
terminating decimal equals it.  Read exactly, a decimal literal becomes
a ``Decimal`` and a ratio a ``Fraction``; a file holding any ratio is
read in Fractions throughout, since the two types do not mix.  Exact
reading accepts the literals ``Fraction`` accepts, and a decimal
exponent past ``_MAX_EXPONENT`` either way is a bad probability.
``FaultTree`` rejects every name the serializer could not write back: one
containing ``"``, ``//`` or a line break, or the name ``toplevel``.
The format covers static fault trees only (no dynamic gates).
"""

from __future__ import annotations

import re
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from .errors import ParseError
from .tree import FaultTree, GateKind

_TOKEN = re.compile(r'"([^"]*)"|(\S+)')
_GATE_KINDS = {"and": GateKind.AND, "or": GateKind.OR}
#: Largest decimal exponent, either sign, of a probability read exactly.
#: ``Fraction`` builds ``10**exponent`` whatever the digits, which for an
#: exponent near 10**15 never returns, and an exact ``1 - 1e-999999`` has a
#: million digits; a float needs at most 324.
_MAX_EXPONENT = 1000


def parse_ft(text: str, exact: bool = False) -> FaultTree:
    """Parse the text format into a validated FaultTree.

    Node ids follow declaration order.  With ``exact=True`` probabilities
    are read exactly instead of as floats: a decimal literal as a
    ``Decimal``, a ratio ``n/d`` as a ``Fraction``, and every probability
    as a ``Fraction`` once the file holds a ratio.  Without it, ``n/d``
    becomes the float nearest to that ratio.
    """
    toplevel = None
    toplevel_line = None
    names = []
    kinds = []
    kid_names = []  # per node, the child names as written (none for a BE)
    probs = {}
    index = {}  # name -> id
    findall = _TOKEN.findall
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "//" in line:
            line = line.split("//", 1)[0]
        line = line.strip()
        if not line:
            continue
        if not line.endswith(";"):
            raise ParseError("declaration does not end with ';'", lineno)
        tokens = [bare or quoted for quoted, bare in findall(line, 0, len(line) - 1)]
        if not tokens:
            raise ParseError("empty declaration", lineno)
        name = tokens[0]
        if name == "toplevel":
            if len(tokens) != 2:
                raise ParseError("toplevel takes exactly one name", lineno)
            if toplevel is not None:
                raise ParseError(
                    "toplevel already declared on line %d" % toplevel_line, lineno
                )
            toplevel = tokens[1]
            toplevel_line = lineno
            continue
        kind = _GATE_KINDS.get(tokens[1]) if len(tokens) >= 2 else None
        if kind is not None:
            if len(tokens) < 3:
                raise ParseError("gate %r has no children" % name, lineno)
            # a tuple of strings leaves the cyclic GC's care at its first
            # collection; a list would be rescanned by every later one
            kids = tuple(tokens[2:])
        elif len(tokens) == 2 and tokens[1].startswith("prob="):
            literal = tokens[1][len("prob="):]
            ratio = "/" in literal
            try:
                if ratio:
                    prob = Fraction(literal)
                elif exact:
                    exponent = literal.lower().partition("e")[2]
                    if exponent and abs(int(exponent)) > _MAX_EXPONENT:
                        raise ValueError("exponent out of range")
                    prob = Decimal(literal)
                    # Decimal also takes inf, nan and stray underscores,
                    # which Fraction refuses
                    if "_" in literal or not prob.is_finite():
                        Fraction(literal)
                else:
                    prob = float(literal)
            except (ValueError, ZeroDivisionError, InvalidOperation):
                raise ParseError("bad probability %r" % literal, lineno) from None
            if not (0 <= prob <= 1):
                raise ParseError("probability %s outside [0,1]" % literal, lineno)
            if ratio and not exact:
                prob = float(prob)
            probs[len(names)] = prob
            kind = GateKind.BE
            kids = ()
        else:
            raise ParseError("cannot parse declaration %r" % line, lineno)
        if name in index:
            raise ParseError("node %r declared twice" % name, lineno)
        index[name] = len(names)
        names.append(name)
        kinds.append(kind)
        kid_names.append(kids)
    if toplevel is None:
        raise ParseError("no toplevel declaration")
    if toplevel not in index:
        raise ParseError("toplevel names unknown node %r" % toplevel)
    if exact and any(p.__class__ is Fraction for p in probs.values()):
        probs = {v: Fraction(p) for v, p in probs.items()}
    lookup = index.__getitem__
    try:
        children = [tuple(map(lookup, kids)) if kids else () for kids in kid_names]
    except KeyError:
        # name the first undeclared reference in declaration order
        name, kid = next((name, kid) for name, kids in zip(names, kid_names)
                         for kid in kids if kid not in index)
        raise ParseError(
            "gate %r references undeclared node %r" % (name, kid)
        ) from None
    return FaultTree(names, kinds, children, probs, index[toplevel])


def _format_prob(p) -> str:
    if isinstance(p, float):
        return repr(p)
    # an exact probability (int, Decimal or Fraction): a terminating decimal
    # (an integer when den == 1) when the denominator allows it, else n/d
    num, den = p.as_integer_ratio()
    d = den
    twos = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    fives = 0
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d == 1:
        shift = max(twos, fives)
        digits = num * 10**shift // den
        s = str(digits).rjust(shift + 1, "0")
        return s[:-shift] + "." + s[-shift:] if shift else s
    return "%d/%d" % (num, den)


def serialize_ft(t: FaultTree) -> str:
    """Deterministic serialization: toplevel, gates in topological order
    (root first, parents before children), then BEs sorted by name."""
    names, children, kinds = t.names, t.children, t.kinds
    name = names.__getitem__
    AND = GateKind.AND
    lines = ['toplevel "%s";' % names[t.root]]
    for v in t.order:
        kids = children[v]
        if kids:  # a gate
            kind = "and" if kinds[v] is AND else "or"
            lines.append('"%s" %s "%s";' % (names[v], kind, '" "'.join(map(name, kids))))
    # names are unique, so the sort never compares two probabilities
    for be, p in sorted(zip(map(name, t.probs), t.probs.values())):
        lines.append('"%s" prob=%s;' % (be, repr(p) if p.__class__ is float
                                        else _format_prob(p)))
    lines.append("")
    return "\n".join(lines)
