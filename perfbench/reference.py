"""Reference answers the benchmark computes without the program under test.

Nothing here imports ``sfpa``.  A model is the benchmark's own plain
description of a fault tree: a root name, a dict of gates
``name -> (kind, [child names])`` with kind ``"and"`` or ``"or"``, and a
dict of basic-event probabilities ``name -> p``.

The routines are deliberately simple and independent of the polynomial
method: a numeric bottom-up pass for tree-shaped parts, exhaustive
enumeration of all basic-event assignments with exact weights, and a
seeded Monte Carlo sampler.  Both of the last two evaluate the structure
function bit-parallel: every basic event becomes one big integer whose
bit ``x`` says whether the event failed in assignment (or sample) ``x``,
and gates become ``&`` and ``|`` on those integers.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass
class Model:
    root: str
    gates: dict
    probs: dict

    def children_first(self, start=None):
        """Every node reachable from ``start`` (default: the root), each
        after all of its children."""
        start = self.root if start is None else start
        order = []
        done = set()
        stack = [(start, False)]
        while stack:
            name, expanded = stack.pop()
            if name in done:
                continue
            if expanded:
                done.add(name)
                order.append(name)
                continue
            stack.append((name, True))
            if name in self.gates:
                for kid in self.gates[name][1]:
                    if kid not in done:
                        stack.append((kid, False))
        return order

    def basic_events(self):
        """Basic-event names in name order."""
        return sorted(self.probs)

    def digest(self):
        """A hash of the structure and the probability literals, independent
        of declaration order."""
        lines = [":root %s" % self.root]
        for name, (kind, kids) in self.gates.items():
            lines.append("%s %s %s" % (name, kind, " ".join(kids)))
        for name, p in self.probs.items():
            lines.append("%s prob=%r" % (name, p))
        lines.sort()
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def subtree_values(model, start=None):
    """(unreliability, node count) of every node below ``start``, as two
    dicts, by a numeric bottom-up pass; requires that part to be a tree
    (no node reached twice)."""
    value, size = {}, {}
    claimed = set()
    for name in model.children_first(start):
        if name in model.probs:
            value[name] = model.probs[name]
            size[name] = 1
            continue
        kind, kids = model.gates[name]
        if claimed.intersection(kids) or len(set(kids)) < len(kids):
            raise ValueError("%r shares a child with another gate" % name)
        claimed.update(kids)
        acc = 1.0
        if kind == "and":
            for kid in kids:
                acc *= value[kid]
            value[name] = acc
        else:
            for kid in kids:
                acc *= 1.0 - value[kid]
            value[name] = 1.0 - acc
        size[name] = 1 + sum(size[kid] for kid in kids)
    return value, size


def tree_unreliability(model, start=None):
    """Numeric bottom-up pass below ``start``; requires that part to be a
    tree (no node reached twice)."""
    return subtree_values(model, start)[0][model.root if start is None else start]


def c2_closed_form(pa, pb, pc, p_body):
    """Unreliability of the c2 top, ``AND(AND(OR(a,b), OR(b,c)), OR(a, body))``,
    found by conditioning on the two shared events ``a`` and ``b``.

    a=b=1 fails the top; a=1,b=0 needs c; a=0,b=1 needs the body; a=b=0
    cannot fail ``OR(a,b)``.
    """
    return pa * pb + pa * (1 - pb) * pc + (1 - pa) * pb * p_body


def evaluate(model, leaf_columns):
    """Root column of the structure function, given one integer column per
    basic event (bit x set = failed in assignment or sample x)."""
    col = dict(leaf_columns)
    for name in model.children_first():
        if name in col:
            continue
        kind, kids = model.gates[name]
        acc = col[kids[0]]
        if kind == "and":
            for kid in kids[1:]:
                acc &= col[kid]
        else:
            for kid in kids[1:]:
                acc |= col[kid]
        col[name] = acc
    return col[model.root]


def truth_column(model):
    """(basic events in bit order, root column over all 2**k assignments).

    Bit ``j`` of an assignment index is the state of the ``j``-th basic
    event in name order.
    """
    bes = model.basic_events()
    size = 1 << len(bes)
    leaves = {}
    for j, name in enumerate(bes):
        block = 1 << j
        period_starts = ((1 << size) - 1) // ((1 << (2 * block)) - 1)
        leaves[name] = period_starts * (((1 << block) - 1) << block)
    return bes, evaluate(model, leaves)


def exact_unreliability(model):
    """Sum of the exact weights of every failing assignment.

    Probabilities are converted with ``Fraction(p)`` (use Fraction or
    decimal-string inputs for decimal semantics).  The sum runs over a
    common denominator, folding out one basic event at a time.
    """
    bes, column = truth_column(model)
    size = 1 << len(bes)
    bits = bin(column)[2:].zfill(size)[::-1]
    values = [int(ch) for ch in bits]
    denominator = 1
    for name in reversed(bes):
        p = Fraction(model.probs[name])
        fail, work = p.numerator, p.denominator - p.numerator
        denominator *= p.denominator
        half = len(values) // 2
        values = [values[x] * work + values[x + half] * fail for x in range(half)]
    return Fraction(values[0], denominator)


def is_cut_set(bes, column, failed):
    """Does failing exactly ``failed`` (and nothing else) fail the root?"""
    index = {name: j for j, name in enumerate(bes)}
    x = 0
    for name in failed:
        x |= 1 << index[name]
    return bool(column >> x & 1)


def is_minimal_cut_set(bes, column, failed):
    """A cut set none of whose proper subsets is a cut set.  The structure
    function is monotone, so dropping single events is enough."""
    failed = set(failed)
    if not failed <= set(bes) or not is_cut_set(bes, column, failed):
        return False
    return not any(is_cut_set(bes, column, failed - {name}) for name in failed)


#: bits of each probability the sampler reproduces (bias below 2**-32)
_PROB_BITS = 32


def _bernoulli_column(rng, p, n):
    """An n-bit integer whose bits are independent Bernoulli(p) draws.

    Walks the binary expansion of p from its last bit to its first: OR
    with a fair random word for a 1 bit, AND for a 0 bit.
    """
    scaled = int(p * (1 << _PROB_BITS))
    if scaled >> _PROB_BITS:
        return (1 << n) - 1
    column = 0
    for i in range(_PROB_BITS):
        word = rng.getrandbits(n)
        column = column | word if scaled >> i & 1 else column & word
    return column


def monte_carlo(model, rng, n):
    """(estimate, standard error) of the unreliability from n samples."""
    leaves = {name: _bernoulli_column(rng, model.probs[name], n)
              for name in model.basic_events()}
    estimate = evaluate(model, leaves).bit_count() / n
    return estimate, standard_error(estimate, n)


def standard_error(p, n):
    """Binomial standard error at rate p, with p kept at least 1/n away
    from 0 and 1 so that a sample with no failures still has a width."""
    q = min(max(p, 1 / n), 1 - 1 / n)
    return math.sqrt(q * (1 - q) / n)
