"""Squarefree polynomial arithmetic: worked examples, laws, oracles."""

from fractions import Fraction

import pytest

from sfpa import AlgebraError, Poly
from helpers import make_rng, random_poly, substitute_by_definition
from oracles import evaluate, interpolate, restrict, tabulate

X, Y, Z = 0, 1, 2
NAMES = {X: "x", Y: "y", Z: "z"}


def p_alpha():  # 2 + x + y
    return 2 + Poly.variable(X) + Poly.variable(Y)


def p_beta():  # x + 3xz
    return Poly.variable(X) + 3 * Poly.variable(X) * Poly.variable(Z)


class TestWorkedExamples:
    def test_sum(self):
        expected = Poly({0: 2, 1 << X: 2, 1 << Y: 1, (1 << X) | (1 << Z): 3})
        assert p_alpha() + p_beta() == expected

    def test_product(self):
        expected = Poly(
            {
                1 << X: 3,
                (1 << X) | (1 << Y): 1,
                (1 << X) | (1 << Z): 9,
                (1 << X) | (1 << Y) | (1 << Z): 3,
            }
        )
        assert p_alpha() * p_beta() == expected

    def test_substitution(self):
        result = p_beta().substitute(Z, p_alpha())
        expected = Poly({1 << X: 10, (1 << X) | (1 << Y): 3})
        assert result == expected

    def test_interpolation(self):
        # table over (x, y): 00 -> 3, 10 -> 7, 01 -> -2, 11 -> 4
        poly = interpolate({0b00: 3, 0b01: 7, 0b10: -2, 0b11: 4}, [X, Y])
        expected = Poly({0: 3, 1 << X: 4, 1 << Y: -5, (1 << X) | (1 << Y): 2})
        assert poly == expected
        assert evaluate(poly, {X: 1, Y: 0}) == 7

    @pytest.mark.parametrize("table, message", [
        ([3, 7, -2], "has 3 entries, expected 4"),
        ({0: 3, 1: 7, 2: -2}, "has 3 entries, expected 4"),
        ({1: 7, 2: -2, 3: 4, 4: 0}, "no entry for mask 0"),
    ])
    def test_interpolation_rejects_a_table_of_the_wrong_shape(self, table, message):
        with pytest.raises(AlgebraError, match=message):
            interpolate(table, [X, Y])

    def test_format(self):
        poly = Poly({0: 0.25, 1 << Y: 0.75})
        assert poly.format({Y: "b"}) == "0.25 + 0.75*b"
        mixed = Poly({0: 3, 1 << X: 4, 1 << Y: -5, (1 << X) | (1 << Y): 2})
        assert mixed.format(NAMES) == "3 + 4*x - 5*y + 2*x*y"


class TestBasics:
    def test_additive_identity_and_inverse(self):
        a = p_alpha()
        assert a + Poly() == a
        assert a + (-1) * a == Poly()

    def test_multiplicative_identity(self):
        a = p_beta()
        assert a * Poly.constant(1) == a

    def test_idempotence(self):
        x = Poly.variable(X)
        assert x * x == x
        m = Poly.variable(X) * Poly.variable(Z)
        assert m * m == m

    def test_no_stored_zero_terms(self):
        a = Poly({0: 1.0, 1 << X: 2.0})
        b = Poly({1 << X: -2.0})
        assert (a + b).terms == {0: 1.0}

    def test_restrict(self):
        a = p_alpha()
        assert restrict(a, X, 1) == Poly({0: 3, 1 << Y: 1})
        assert restrict(a, Z, 0) == a
        assert restrict(Poly.variable(X), X, 1) == Poly.constant(1)

    def test_substitute_rejects_occurring_variable(self):
        with pytest.raises(AlgebraError):
            p_alpha().substitute(X, Poly.variable(X) * 2)

    def test_substitute_renames(self):
        fresh = 7
        renamed = p_beta().substitute(X, Poly.variable(fresh))
        back = renamed.substitute(fresh, Poly.variable(X))
        assert back == p_beta()

    def test_evaluate_requires_coverage(self):
        with pytest.raises(AlgebraError):
            evaluate(p_alpha(), {X: 1})

    def test_evaluate_constant(self):
        assert evaluate(Poly.constant(Fraction(2, 5)), {}) == Fraction(2, 5)


class TestLaws:
    """Ring laws and the substitution lemmas on random rational polynomials."""

    CASES = 300  # the acceptance suite reruns these with >= 1000 cases

    def _polys(self, rng, count=3, vars=(0, 1, 2, 3)):
        return [random_poly(rng, vars) for _ in range(count)]

    def test_ring_axioms(self):
        rng = make_rng(101)
        for _ in range(self.CASES):
            a, b, c = self._polys(rng)
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_substitution_matches_definition(self):
        rng = make_rng(102)
        for _ in range(self.CASES):
            a = random_poly(rng, (0, 1, 2, 3, 4, 5))
            b = random_poly(rng, (1, 2, 3, 4, 5))
            assert a.substitute(0, b) == substitute_by_definition(a, 0, b)

    def test_lemma_restriction_form(self):
        rng = make_rng(103)
        for _ in range(self.CASES):
            a = random_poly(rng, (0, 1, 2, 3))
            b = random_poly(rng, (1, 2, 3))
            lhs = a.substitute(0, b)
            rhs = restrict(a, 0, 1) * b + restrict(a, 0, 0) * (1 - b)
            assert lhs == rhs

    def test_substitution_additive(self):
        rng = make_rng(104)
        for _ in range(self.CASES):
            a1, a2 = self._polys(rng, 2)
            b = random_poly(rng, (1, 2, 3))
            assert (a1 + a2).substitute(0, b) == a1.substitute(0, b) + a2.substitute(0, b)

    def test_substitution_multiplicative_for_idempotent(self):
        rng = make_rng(105)
        for _ in range(self.CASES):
            a1, a2 = self._polys(rng, 2)
            # idempotent replacements arise exactly from 0/1-valued tables
            table = [rng.randint(0, 1) for _ in range(8)]
            b = interpolate(table, [1, 2, 3])
            assert b * b == b
            assert (a1 * a2).substitute(0, b) == a1.substitute(0, b) * a2.substitute(0, b)

    def test_substitution_order_exchange(self):
        rng = make_rng(106)
        for _ in range(self.CASES):
            a = random_poly(rng, (0, 1, 2, 3))
            b1 = random_poly(rng, (2, 3, 4))
            b2 = random_poly(rng, (3, 4, 5))
            lhs = a.substitute(0, b1).substitute(1, b2)
            rhs = a.substitute(1, b2).substitute(0, b1)
            assert lhs == rhs

    def test_interpolation_round_trips(self):
        rng = make_rng(107)
        vars = [0, 1, 2]
        for _ in range(self.CASES):
            poly = random_poly(rng, vars)
            assert interpolate(tabulate(poly, vars), vars) == poly
            table = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(8)]
            assert tabulate(interpolate(table, vars), vars) == table


class TestSubstitute:
    """Substitution at any index, and the edge cases of ``a0 + d*b``."""

    CASES = 300

    def _operands(self, rng, rational=True):
        # a variable up to 40 and the replacement's variables, drawn apart
        index, *others = rng.sample(range(41), 6)
        a = random_poly(rng, [index] + others, rational=rational)
        b = random_poly(rng, others, rational=rational)
        return a, index, b

    def test_matches_definition_at_any_index(self):
        rng = make_rng(108)
        for _ in range(self.CASES):
            a, index, b = self._operands(rng)
            assert a.substitute(index, b) == substitute_by_definition(a, index, b)

    def test_absent_variable_leaves_the_polynomial(self):
        a = p_alpha()
        result = a.substitute(Z, Poly.variable(Y) + 3)
        assert result == a
        assert result.terms is not a.terms

    def test_constant_replacements(self):
        a = p_beta()  # x + 3xz
        assert a.substitute(Z, Poly()) == Poly.variable(X)
        assert a.substitute(Z, Poly.constant(1)) == 4 * Poly.variable(X)
        half = a.substitute(Z, Poly.constant(Fraction(1, 2)))
        assert half == Poly({1 << X: Fraction(5, 2)})
        rng = make_rng(109)
        for _ in range(self.CASES):
            a, index, _ = self._operands(rng)
            for c in (0, 1, Fraction(rng.randint(-6, 6), rng.randint(1, 6))):
                b = Poly.constant(c)
                assert a.substitute(index, b) == substitute_by_definition(a, index, b)

    def test_cancellation_stores_no_zero(self):
        x, y = Poly.variable(X), Poly.variable(Y)
        result = (x - y).substitute(X, y)
        assert result == Poly()
        assert result.terms == {}
        # a product that underflows to 0.0 is not stored either
        tiny = Poly({1 << X: 1e-200}).substitute(X, Poly.constant(1e-200))
        assert tiny.terms == {}

    def test_operands_are_not_mutated(self):
        rng = make_rng(110)
        for _ in range(self.CASES):
            a, index, b = self._operands(rng)
            a_terms, b_terms = dict(a.terms), dict(b.terms)
            a.substitute(index, b)
            assert a.terms == a_terms
            assert b.terms == b_terms

    def test_float_agrees_with_restriction_form(self):
        rng = make_rng(111)
        for _ in range(self.CASES):
            a, index, b = self._operands(rng, rational=False)
            lhs = a.substitute(index, b)
            rhs = restrict(a, index, 1) * b + restrict(a, index, 0) * (1 - b)
            for mask in lhs.terms.keys() | rhs.terms.keys():
                assert abs(lhs.terms.get(mask, 0) - rhs.terms.get(mask, 0)) <= 1e-12
