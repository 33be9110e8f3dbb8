"""Galileo-style text format for fault trees.

Line-oriented, UTF-8.  One declaration per line, terminated by ``;``:

    toplevel "sys";
    "sys" and "left" "right";
    "left" or "a" "b";
    "a" prob=0.25;

``//`` starts a comment; blank lines are ignored; declarations may come
in any order.  Names may be quoted or bare; the serializer always quotes.
``FaultTree`` rejects every name the serializer could not write back: one
containing ``"``, ``//`` or a line break, or the name ``toplevel``.
The format covers plain fault trees only (no CBEs, no dynamic gates).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .tree import FaultTree, GateKind

_TOKEN = re.compile(r'"([^"]*)"|(\S+)')


def _tokens(body):
    out = []
    for match in _TOKEN.finditer(body):
        quoted, bare = match.group(1), match.group(2)
        out.append(quoted if quoted is not None else bare)
    return out


def parse_ft(text: str, exact: bool = False) -> FaultTree:
    """Parse the text format into a validated FaultTree.

    With ``exact=True`` probabilities are read as exact Fractions of the
    decimal literal instead of floats.
    """
    toplevel = None
    toplevel_line = None
    decls = {}  # name -> ("gate", kind, [children]) | ("be", prob)
    order = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        if not line.endswith(";"):
            raise ParseError("declaration does not end with ';'", lineno)
        tokens = _tokens(line[:-1].strip())
        if not tokens:
            raise ParseError("empty declaration", lineno)
        if tokens[0] == "toplevel":
            if len(tokens) != 2:
                raise ParseError("toplevel takes exactly one name", lineno)
            if toplevel is not None:
                raise ParseError(
                    "toplevel already declared on line %d" % toplevel_line, lineno
                )
            toplevel = tokens[1]
            toplevel_line = lineno
            continue
        name = tokens[0]
        if len(tokens) >= 2 and tokens[1] in ("and", "or"):
            if len(tokens) < 3:
                raise ParseError("gate %r has no children" % name, lineno)
            decl = ("gate", GateKind(tokens[1]), tokens[2:])
        elif len(tokens) == 2 and tokens[1].startswith("prob="):
            literal = tokens[1][len("prob="):]
            try:
                prob = Fraction(literal) if exact else float(literal)
            except (ValueError, ZeroDivisionError):
                raise ParseError("bad probability %r" % literal, lineno) from None
            if not (0 <= prob <= 1):
                raise ParseError("probability %s outside [0,1]" % literal, lineno)
            decl = ("be", prob)
        else:
            raise ParseError("cannot parse declaration %r" % line, lineno)
        if name in decls:
            raise ParseError("node %r declared twice" % name, lineno)
        decls[name] = decl
        order.append(name)
    if toplevel is None:
        raise ParseError("no toplevel declaration")
    if toplevel not in decls:
        raise ParseError("toplevel names unknown node %r" % toplevel)

    names = list(order)
    index = {name: i for i, name in enumerate(names)}
    kinds = []
    children = []
    probs = {}
    for i, name in enumerate(names):
        decl = decls[name]
        if decl[0] == "gate":
            _, kind, kid_names = decl
            kids = []
            for kid in kid_names:
                if kid not in index:
                    raise ParseError(
                        "gate %r references undeclared node %r" % (name, kid)
                    )
                kids.append(index[kid])
            kinds.append(kind)
            children.append(kids)
        else:
            kinds.append(GateKind.BE)
            children.append([])
            probs[i] = decl[1]
    return FaultTree(names, kinds, children, probs, index[toplevel])


def _format_prob(p) -> str:
    if isinstance(p, Fraction):
        if p.denominator == 1:
            return str(p.numerator)
        num, den = p.numerator, p.denominator
        # emit a terminating decimal when the denominator allows it
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
        return repr(float(p))
    return repr(p)


def serialize_ft(t: FaultTree) -> str:
    """Deterministic serialization: toplevel, gates in topological order
    (root first, parents before children), then BEs sorted by name."""
    lines = ['toplevel "%s";' % t.names[t.root]]
    for v in t.order:
        if t.kinds[v] in (GateKind.AND, GateKind.OR):
            kids = " ".join('"%s"' % t.names[w] for w in t.children[v])
            lines.append('"%s" %s %s;' % (t.names[v], t.kinds[v].value, kids))
    for v in sorted(t.basic_events(), key=lambda u: t.names[u]):
        lines.append('"%s" prob=%s;' % (t.names[v], _format_prob(t.probs[v])))
    return "\n".join(lines) + "\n"
