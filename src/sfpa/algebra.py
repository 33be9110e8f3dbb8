"""Squarefree polynomial arithmetic.

Polynomials here live in the algebra of real polynomials over a set of
variables subject to the idempotence law ``v * v == v`` for every bare
variable ``v``.  Consequently every monomial is squarefree and can be
represented as a *set* of variable indices; we store a polynomial as a
sparse map from bitmask (one bit per variable index) to coefficient.

Coefficients are any numeric field elements that support Python
arithmetic: floats for the fast path, ``fractions.Fraction`` for exact
computation.  Integers mix freely with either.  A coefficient that
compares equal to zero is never stored, so two polynomials are equal
iff their term maps are equal; no epsilon pruning is ever applied.
"""

from __future__ import annotations

from .errors import AlgebraError


def _bit(index: int) -> int:
    if index < 0:
        raise ValueError("variable index must be non-negative")
    return 1 << index


def _bits(mask: int):
    """Yield the variable indices present in a monomial bitmask.

    Walks set bits only, so sparse masks with huge indices stay cheap.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Poly:
    """A squarefree polynomial in canonical sparse form.

    Instances are immutable values; all operators return new objects.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        canon = {}
        if terms:
            for mask, coeff in terms.items():
                if coeff == 0:
                    continue
                canon[mask] = coeff
        self.terms = canon

    @classmethod
    def constant(cls, value) -> "Poly":
        return cls({0: value})

    @classmethod
    def variable(cls, index: int) -> "Poly":
        return cls({_bit(index): 1})

    # -- queries ---------------------------------------------------------

    def variable_mask(self) -> int:
        mask = 0
        for term in self.terms:
            mask |= term
        return mask

    def variables(self) -> set[int]:
        return set(_bits(self.variable_mask()))

    def is_constant(self) -> bool:
        return self.variable_mask() == 0

    def constant_value(self):
        """The value of a variable-free polynomial (0 if empty)."""
        if not self.is_constant():
            raise AlgebraError("polynomial is not constant")
        return self.terms.get(0, 0)

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- ring operations -------------------------------------------------

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        out = dict(self.terms)
        for mask, coeff in other.terms.items():
            acc = out.get(mask, 0) + coeff
            if acc == 0:
                out.pop(mask, None)
            else:
                out[mask] = acc
        result = Poly.__new__(Poly)
        result.terms = out
        return result

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        result = Poly.__new__(Poly)
        result.terms = {mask: -coeff for mask, coeff in self.terms.items()}
        return result

    def __sub__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return Poly.constant(other) + (-self)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mask = m1 | m2  # union of monomials: the v*v == v law
                acc = out.get(mask, 0) + c1 * c2
                if acc == 0:
                    out.pop(mask, None)
                else:
                    out[mask] = acc
        result = Poly.__new__(Poly)
        result.terms = out
        return result

    __rmul__ = __mul__

    # -- restriction, substitution, evaluation ---------------------------

    def restrict(self, index: int, bit: int) -> "Poly":
        """Pin one variable to 0 or 1.

        Pinning to 0 drops every term containing the variable; pinning
        to 1 folds those terms onto their variable-free remainder.
        """
        var = _bit(index)
        out = {}
        for mask, coeff in self.terms.items():
            if not mask & var:
                acc = out.get(mask, 0) + coeff
            elif bit:
                mask &= ~var
                acc = out.get(mask, 0) + coeff
            else:
                continue
            if acc == 0:
                out.pop(mask, None)
            else:
                out[mask] = acc
        result = Poly.__new__(Poly)
        result.terms = out
        return result

    def substitute(self, index: int, replacement: "Poly") -> "Poly":
        """Replace a variable by a whole polynomial.

        Requires that the variable does not occur in the replacement.
        Writes ``a`` as ``a0 + v*d``, where ``a0`` holds the terms without
        ``v`` and ``d`` the terms with it, ``v`` removed; then
        ``a[v := b] = a0 + d*b``.  ``a0`` seeds the result and ``d*b`` is
        accumulated into it as ``__mul__`` accumulates, so one product is
        made (a scaled copy of ``d`` when ``b`` is constant).  This equals
        ``a[v->1]*b + a[v->0]*(1 - b)`` and the coefficientwise definition.
        """
        var = _bit(index)
        if replacement.variable_mask() & var:
            raise AlgebraError(
                "variable %d occurs in the replacement polynomial" % index
            )
        out = {}
        d = []
        for mask, coeff in self.terms.items():
            if mask & var:
                d.append((mask ^ var, coeff))
            else:
                out[mask] = coeff
        for m2, c2 in replacement.terms.items():
            for m1, c1 in d:
                mask = m1 | m2
                acc = out.get(mask, 0) + c1 * c2
                if acc == 0:
                    out.pop(mask, None)
                else:
                    out[mask] = acc
        result = Poly.__new__(Poly)
        result.terms = out
        return result

    def evaluate(self, assignment):
        """Evaluate at a full 0/1 assignment.

        ``assignment`` maps variable index -> 0/1 and must cover every
        variable of the polynomial.  A term contributes its coefficient
        iff all its variables are assigned 1.
        """
        covered = 0
        ones = 0
        for index, value in assignment.items():
            covered |= _bit(index)
            if value:
                ones |= _bit(index)
        missing = self.variable_mask() & ~covered
        if missing:
            raise AlgebraError(
                "assignment does not cover variables %s" % sorted(_bits(missing))
            )
        total = 0
        for mask, coeff in self.terms.items():
            if mask & ~ones == 0:
                total = total + coeff
        return total

    # -- formatting ------------------------------------------------------

    def format(self, names=None) -> str:
        """Human-readable rendering, terms ordered by (monomial size, bitmask)."""
        if not self.terms:
            return "0"
        parts = []
        for mask in sorted(self.terms, key=lambda m: (bin(m).count("1"), m)):
            coeff = self.terms[mask]
            factors = [
                names[i] if names is not None else "x%d" % i for i in _bits(mask)
            ]
            negative = coeff < 0
            mag = -coeff if negative else coeff
            if factors and mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append("-" + body if negative else body)
            else:
                parts.append(("- " if negative else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return "Poly(%s)" % self.format()


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
    if isinstance(values, dict):
        if len(values) != size:
            raise AlgebraError(
                "truth table has %d entries, expected %d" % (len(values), size)
            )
        table = [values[mask] for mask in range(size)]
    else:
        table = list(values)
        if len(table) != size:
            raise AlgebraError(
                "truth table has %d entries, expected %d" % (len(table), size)
            )
    for j in range(n):
        bit = 1 << j
        for mask in range(size):
            if mask & bit:
                table[mask] = table[mask] - table[mask ^ bit]
    terms = {}
    for mask in range(size):
        coeff = table[mask]
        if coeff == 0:
            continue
        real = 0
        for j in range(n):
            if mask & (1 << j):
                real |= _bit(variables[j])
        terms[real] = coeff
    poly = Poly.__new__(Poly)
    poly.terms = terms
    return poly


def tabulate(poly: Poly, variables) -> list:
    """Inverse of :func:`interpolate`: evaluate over all 2**n assignments."""
    n = len(variables)
    table = []
    for mask in range(1 << n):
        assignment = {variables[j]: (mask >> j) & 1 for j in range(n)}
        table.append(poly.evaluate(assignment))
    return table
