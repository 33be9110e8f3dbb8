"""The polynomial solvers: golden values, cross-checks, instrumentation."""

import decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sfpa import (
    CapExceededError,
    FaultTree,
    GateKind,
    GenConfig,
    NotATreeError,
    Poly,
    cut_sets,
    generate,
    immediate_dominators,
    minimal_cut_set_via_reduction,
    oracle_unreliability,
    parse_ft,
    solve_sfpa,
    solve_sfpa2,
    solve_treelike,
    variable_budget,
)
from helpers import (
    bdd_unreliability,
    fig1,
    fig2,
    long_digits_text,
    make_rng,
    minimal_cut_set_by_fractions,
    random_tree,
    relabelled,
    solve_sfpa2_by_idom_order,
    variable_budget_by_walks,
)

#: The (n_multiparent, seed) pairs of the benchmark's ``shared_dense``
#: trees, GenConfig(n_be=120, n_gates=80).
SHARED_DENSE = [
    (21, 6), (22, 2), (21, 9), (26, 3), (20, 11), (20, 7), (23, 6),
    (28, 9), (24, 6), (27, 0), (20, 8), (28, 0), (27, 3), (23, 9),
    (22, 8), (29, 2), (30, 9), (30, 0), (25, 6), (27, 10),
]


class TestGoldenValues:
    def test_aircraft_tree(self):
        t = fig1()
        assert solve_sfpa(t).unreliability == pytest.approx(0.412, abs=1e-12)
        assert solve_sfpa2(t).unreliability == pytest.approx(0.412, abs=1e-12)

    def test_shared_be_tree(self):
        t = fig2()
        assert solve_sfpa(t).unreliability == pytest.approx(0.3125, abs=1e-12)
        assert solve_sfpa2(t).unreliability == pytest.approx(0.3125, abs=1e-12)

    def test_intermediate_expressions(self):
        t = fig2()
        report = solve_sfpa(t, capture=True)
        names = dict(enumerate(t.names))
        f = t.name_to_id["f"]
        steps = [p.format(names) for p in report.history[f]]
        assert steps == ["d*e", "0.5*e + 0.5*e*b", "0.25 + 0.75*b", "0.625"]
        assert report.history[f][-1].constant_value() == pytest.approx(0.625)

    def test_single_be(self):
        t = FaultTree.build("b", {}, {"b": 0.7})
        for solve in (solve_sfpa, solve_sfpa2):
            r = solve(t)
            assert r.unreliability == pytest.approx(0.7)
            assert r.substitutions == 0


class TestInstrumentation:
    def test_sfpa2_counts_on_shared_be_tree(self):
        r = solve_sfpa2(fig2())
        assert r.max_live_vars == 1
        assert r.substitutions == 1  # only the shared event needs one

    def test_sfpa2_on_tree_shaped_input_is_purely_numeric(self):
        rng = make_rng(30)
        for _ in range(20):
            t = random_tree(rng, max_be=8, max_gates=6, max_multiparent=0)
            r = solve_sfpa2(t)
            assert r.substitutions == 0
            assert r.max_live_vars == 0
            assert r.unreliability == pytest.approx(solve_treelike(t), abs=1e-12)

    def test_capture_keeps_every_node(self):
        t = fig2()
        report = solve_sfpa(t, capture=True)
        assert set(report.history) == set(range(len(t)))

    def test_capture_only_observes(self):
        rng = make_rng(36)
        for _ in range(200):
            t = random_tree(rng, exact=True)
            plain, seen = solve_sfpa(t), solve_sfpa(t, capture=True)
            assert seen.unreliability == plain.unreliability
            for counter in ("max_terms", "max_live_vars", "substitutions",
                            "multiplications"):
                assert getattr(seen, counter) == getattr(plain, counter)
            history = seen.history
            assert sum(len(h) - 1 for h in history.values()) == seen.substitutions
            for v, kids in enumerate(t.children):
                if not kids:
                    continue
                invert = t.kinds[v] is GateKind.OR
                built = Poly.constant(1)
                for w in kids:
                    built = built * (1 - Poly.variable(w) if invert
                                     else Poly.variable(w))
                assert history[v][0] == (1 - built if invert else built)

    def test_clamped(self):
        r = solve_sfpa(fig1())
        assert 0 <= r.clamped() <= 1


class TestAgreement:
    def test_all_routes_agree_on_random_dags(self):
        rng = make_rng(31)
        for _ in range(60):
            t = random_tree(rng, max_be=10, max_gates=8, max_multiparent=6)
            idom = immediate_dominators(t)
            u0 = oracle_unreliability(t)
            u1 = solve_sfpa(t, idom).unreliability
            u2 = solve_sfpa2(t, idom).unreliability
            assert abs(u1 - u0) <= 1e-9
            assert abs(u2 - u0) <= 1e-9

    def test_exact_agreement_with_rational_probabilities(self):
        rng = make_rng(32)
        for _ in range(20):
            t = random_tree(rng, max_be=8, max_gates=6, max_multiparent=5,
                            exact=True)
            u0 = oracle_unreliability(t)
            assert isinstance(u0, Fraction)
            assert bdd_unreliability(t) == u0
            assert solve_sfpa(t).unreliability == u0
            assert solve_sfpa2(t).unreliability == u0

    @pytest.mark.parametrize("m,seed", [(22, 2), (21, 6), (20, 7)])
    def test_exact_agreement_with_a_bdd_past_the_oracle(self, m, seed):
        # shared_dense trees: 120 basic events, six times the oracle's cap
        t = generate(GenConfig(seed=seed, n_be=120, n_gates=80,
                               n_multiparent=m)).with_exact_probs()
        u = bdd_unreliability(t)
        assert solve_sfpa(t).unreliability == u
        assert solve_sfpa2(t).unreliability == u

    def test_max_live_vars_bounded_by_budget(self):
        # the paper's complexity bound: float solves of random trees, then
        # exact solves of generated trees and of three shared_dense trees
        rng = make_rng(33)
        trees = [random_tree(rng, max_be=8, max_gates=8, max_multiparent=6)
                 for _ in range(40)]
        configs = [GenConfig(seed=s, n_be=60, n_gates=40, n_multiparent=m)
                   for m in (5, 10, 20) for s in range(10)]
        configs += [GenConfig(seed=s, n_be=120, n_gates=80, n_multiparent=m)
                    for m, s in [(22, 2), (21, 6), (20, 7)]]
        trees += [generate(cfg).with_exact_probs() for cfg in configs]
        for t in trees:
            idom = immediate_dominators(t)
            assert solve_sfpa2(t, idom).max_live_vars <= variable_budget(t, idom)


class TestEliminationOrder:
    def test_matches_the_whole_gate_order_exactly(self):
        for m in (0, 3, 10):
            for seed in range(300):
                t = generate(GenConfig(seed=seed, n_be=12, n_gates=9,
                                       n_multiparent=m)).with_exact_probs()
                assert (solve_sfpa2(t).unreliability
                        == solve_sfpa2_by_idom_order(t))

    def test_a_variable_held_by_a_pending_value_waits(self):
        # top dominates w and w2, and g[w] = z*w2 holds w2.  w2 touches
        # only w, w touches w2 and s, so min-width alone would take w2
        # first and the substitution of w would bring w2 back.
        half = Fraction(1, 2)
        t = FaultTree.build(
            "root",
            {"root": ("and", ["top", "s"]), "top": ("and", ["a", "b"]),
             "a": ("or", ["w", "x"]), "b": ("or", ["w", "s"]),
             "x": ("or", ["w2", "e1"]), "w": ("and", ["w2", "z"]),
             "w2": ("or", ["e2", "e3"])},
            {n: half for n in ("s", "e1", "e2", "e3", "z")},
        )
        idom = immediate_dominators(t)
        ids = t.name_to_id
        assert idom[ids["w"]] == idom[ids["w2"]] == ids["top"]
        r = solve_sfpa2(t, idom)
        assert r.unreliability == oracle_unreliability(t)
        assert r.unreliability == solve_sfpa2_by_idom_order(t)
        assert r.substitutions == 3  # w, w2 at top; s at root

    def test_a_variable_that_never_surfaces_is_skipped(self):
        # w's factors vanish (AND with a 0, OR with a 1), so at top only
        # u is substituted
        t = FaultTree.build(
            "top",
            {"top": ("and", ["c", "d", "f", "h"]), "c": ("and", ["w", "off"]),
             "d": ("or", ["w", "on"]), "f": ("or", ["u", "e1"]),
             "h": ("or", ["u", "e2"]), "w": ("or", ["e3", "e4"])},
            {"off": Fraction(0), "on": Fraction(1), "u": Fraction(1, 3),
             "e1": Fraction(1, 4), "e2": Fraction(1, 5),
             "e3": Fraction(1, 6), "e4": Fraction(1, 7)},
        )
        idom = immediate_dominators(t)
        ids = t.name_to_id
        assert idom[ids["w"]] == idom[ids["u"]] == ids["top"]
        r = solve_sfpa2(t, idom)
        assert r.unreliability == oracle_unreliability(t)
        assert r.substitutions == 1

    def test_shared_dense_peak_terms(self):
        # the whole-gate order reached 65 536 terms on these trees
        for m, seed in SHARED_DENSE:
            t = generate(GenConfig(seed=seed, n_be=120, n_gates=80,
                                   n_multiparent=m))
            assert solve_sfpa2(t).max_terms <= 8192


class TestPolarity:
    """solve_sfpa2 complements a shared node with mostly OR parents, unless
    its value's constant term is below 1/100."""

    @staticmethod
    def three_shared(p):
        # two ORs over the shared s1, s2, s3: 1 - (1-x1)(1-x2)(1-x3) has
        # 7 terms and g2's, with e folded in, 8; 1 - y1*y2*y3 has 2
        return FaultTree.build(
            "top",
            {"top": ("and", ["g1", "g2"]), "g1": ("or", ["s1", "s2", "s3"]),
             "g2": ("or", ["s1", "s2", "s3", "e"])},
            {"s1": p, "s2": p / 2, "s3": p / 3, "e": Fraction(1, 5)},
        )

    def test_a_shared_event_under_two_ors_is_complemented(self):
        t = self.three_shared(Fraction(1, 2))
        r = solve_sfpa2(t)
        assert r.unreliability == oracle_unreliability(t)
        assert r.max_terms == 2  # 8 in the x basis

    def test_a_small_shared_event_is_not_complemented(self):
        # the largest shared value, s1 = 1/10000, lies below 1/100
        t = self.three_shared(Fraction(1, 10**4))
        r = solve_sfpa2(t)
        assert r.unreliability == oracle_unreliability(t)
        assert r.max_terms == 8

    def test_the_guard_keeps_small_probabilities_accurate(self):
        # complementing here would read 1.11e-16: 1 - y*... with y near 1
        t = generate(GenConfig(seed=119, n_be=12, n_gates=9, n_multiparent=10,
                               prob_range=(1e-9, 1e-6)))
        exact = solve_sfpa2(t.with_exact_probs()).unreliability
        assert 3.02e-26 < exact < 3.03e-26
        value = solve_sfpa2(t).unreliability
        assert abs(Fraction(value) - exact) <= Fraction(1, 10**9) * exact


class TestExactDecimals:
    """Decimal literals read exactly stay Decimals, and no solver rounds
    them, whatever the caller's decimal context."""

    SOLVERS = {
        "sfpa": lambda t: solve_sfpa(t).unreliability,
        "sfpa2": lambda t: solve_sfpa2(t).unreliability,
        "oracle": oracle_unreliability,
    }

    @pytest.mark.parametrize("prec", [None, 5])
    @pytest.mark.parametrize("shared", [True, False])
    def test_no_exact_solve_rounds(self, prec, shared):
        t = parse_ft(long_digits_text(shared), exact=True)
        assert all(type(p) is decimal.Decimal for p in t.probs.values())
        expected = oracle_unreliability(t.with_exact_probs())
        solvers = dict(self.SOLVERS)
        if not shared:
            solvers["treelike"] = solve_treelike
        with decimal.localcontext() as ctx:
            if prec:
                ctx.prec = prec
            kept = ctx.prec
            for name, solve in solvers.items():
                u = solve(t)
                assert type(u) is decimal.Decimal, name
                assert u == expected, name
            assert decimal.getcontext() is ctx and ctx.prec == kept
        # the answer needs more digits than the default context keeps
        assert decimal.Context(prec=28).plus(u) != u


class TestTreelike:
    def test_rejects_shared_nodes_by_name(self):
        with pytest.raises(NotATreeError, match="nofuel"):
            solve_treelike(fig1())

    def test_matches_oracle_on_trees(self):
        rng = make_rng(34)
        for _ in range(30):
            t = random_tree(rng, max_be=8, max_gates=6, max_multiparent=0)
            assert solve_treelike(t) == pytest.approx(
                oracle_unreliability(t), abs=1e-12
            )


class TestVariableBudget:
    def test_examples(self):
        assert variable_budget(fig2()) == 1
        tree = FaultTree.build(
            "top", {"top": ("and", ["g"]), "g": ("or", ["a", "b"])},
            {"a": 0.1, "b": 0.2},
        )
        assert variable_budget(tree) == 0
        diamond = FaultTree.build(
            "top",
            {"top": ("and", ["l", "r"]), "l": ("or", ["x"]), "r": ("or", ["x"])},
            {"x": 0.5},
        )
        assert variable_budget(diamond) == 1

    def test_term_count_bound(self):
        # every polynomial in the optimized run has at most 2**c terms
        rng = make_rng(35)
        for _ in range(40):
            t = random_tree(rng, max_be=8, max_gates=8, max_multiparent=6)
            idom = immediate_dominators(t)
            c = variable_budget(t, idom)
            assert solve_sfpa2(t, idom).max_terms <= 2 ** c

    def test_one_pass_matches_the_walks(self):
        rng = make_rng(37)
        trees = [random_tree(rng, max_be=12, max_gates=10, max_multiparent=10)
                 for _ in range(300)]
        trees += [generate(GenConfig(seed=s, n_be=60, n_gates=40, n_multiparent=m))
                  for s in range(5) for m in (5, 20, 60)]
        for t in trees:
            idom = immediate_dominators(t)
            assert variable_budget(t, idom) == variable_budget_by_walks(t, idom)


class TestMinimalCutSet:
    def test_or_gate_picks_single_event(self):
        t = FaultTree.build("top", {"top": ("or", ["v0", "v1"])},
                            {"v0": 0.5, "v1": 0.5})
        assert minimal_cut_set_via_reduction(t) == frozenset({t.name_to_id["v0"]})

    def test_and_gate_needs_both(self):
        t = FaultTree.build("top", {"top": ("and", ["v0", "v1"])},
                            {"v0": 0.5, "v1": 0.5})
        assert minimal_cut_set_via_reduction(t) == frozenset(
            {t.name_to_id["v0"], t.name_to_id["v1"]}
        )

    def test_shared_event_tree(self):
        t = fig1()
        mcs = minimal_cut_set_via_reduction(t)
        assert mcs == frozenset({t.name_to_id["nofuel"]})

    def test_result_is_a_minimal_cut_set(self):
        rng = make_rng(36)
        for _ in range(40):
            t = random_tree(rng, max_be=8, max_gates=6, max_multiparent=5)
            mcs = minimal_cut_set_via_reduction(t)
            sets = cut_sets(t)
            assert mcs in sets
            for v in mcs:
                assert (mcs - {v}) not in sets

    def test_cap_enforced(self):
        probs = {"b%02d" % i: 0.5 for i in range(17)}
        t = FaultTree.build("top", {"top": ("or", list(probs))}, probs)
        with pytest.raises(CapExceededError):
            minimal_cut_set_via_reduction(t)

    def test_matches_the_fraction_reduction(self):
        rng = make_rng(38)
        for _ in range(300):
            t = random_tree(rng, max_be=16, max_gates=10, max_multiparent=8)
            assert minimal_cut_set_via_reduction(t) == minimal_cut_set_by_fractions(t)
        for n_be in (14, 16):
            for seed in range(3):
                t = generate(GenConfig(seed=seed, n_be=n_be, n_gates=10,
                                       n_multiparent=4))
                assert (minimal_cut_set_via_reduction(t)
                        == minimal_cut_set_by_fractions(t))

    def test_leading_digit_at_a_power_of_ten(self):
        # U = 10**-1 exactly: the leading digit is the value's only digit
        t = FaultTree.build("top", {"top": ("or", ["v0"])}, {"v0": 0.5})
        assert minimal_cut_set_via_reduction(t) == frozenset({t.name_to_id["v0"]})

    def test_and_gate_at_the_cap(self):
        # kappa = 2**16 - 1: U has its leading digit 65 535 places down
        probs = {"b%02d" % i: 0.5 for i in range(16)}
        t = FaultTree.build("top", {"top": ("and", list(probs))}, probs)
        assert minimal_cut_set_via_reduction(t) == frozenset(t.basic_events())

    def test_caller_decimal_context_is_ignored_and_kept(self):
        t = generate(GenConfig(seed=2, n_be=16, n_gates=10, n_multiparent=4))
        expected = minimal_cut_set_by_fractions(t)
        with decimal.localcontext() as ctx:
            ctx.prec = 3
            ctx.traps[decimal.Inexact] = True
            before = (ctx.prec, ctx.Emin, ctx.Emax, dict(ctx.traps))
            assert minimal_cut_set_via_reduction(t) == expected
            after = decimal.getcontext()
            assert after is ctx
            assert (after.prec, after.Emin, after.Emax, dict(after.traps)) == before

    def test_exact_probabilities_in_input_are_ignored(self):
        # the reduction rigs its own probabilities, so the input's do not
        # matter for the answer
        a = fig1()
        b = a.with_exact_probs()
        assert minimal_cut_set_via_reduction(a) == minimal_cut_set_via_reduction(b)


# Properties over generated trees of at most 12 basic events, so that the
# cut-set enumeration stays fast.
_SEEDS = st.integers(0, 2**48)


def _small_tree(seed, exact=False):
    return random_tree(make_rng(seed), max_be=12, max_gates=10,
                       max_multiparent=8, exact=exact)


@settings(max_examples=150, deadline=None)
@given(seed=_SEEDS)
def test_float_solve_agrees_with_exact_solve(seed):
    t = _small_tree(seed)
    exact = solve_sfpa2(t.with_exact_probs()).unreliability
    assert abs(solve_sfpa2(t).unreliability - exact) <= 1e-9


@settings(max_examples=150, deadline=None)
@given(seed=_SEEDS)
def test_plain_and_optimized_solves_agree_exactly(seed):
    t = _small_tree(seed, exact=True)
    assert solve_sfpa(t).unreliability == solve_sfpa2(t).unreliability


@settings(max_examples=150, deadline=None)
@given(seed=_SEEDS)
def test_reduction_returns_a_minimal_cut_set(seed):
    t = _small_tree(seed)
    mcs = minimal_cut_set_via_reduction(t)
    sets = cut_sets(t)
    assert mcs in sets
    assert not any(s < mcs for s in sets)


@settings(max_examples=150, deadline=None)
@given(seed=_SEEDS, small=st.booleans())
def test_exact_optimized_solve_equals_the_oracle(seed, small):
    # with ``small``, every other basic event drops below the complement
    # guard, so that complemented and plain shared nodes meet in one tree
    t = _small_tree(seed, exact=True)
    if small:
        probs = {v: p / 1000 if v % 2 else p for v, p in t.probs.items()}
        t = FaultTree(t.names, t.kinds, t.children, probs, t.root)
    assert solve_sfpa2(t).unreliability == oracle_unreliability(t)


@settings(max_examples=100, deadline=None)
@given(seed=_SEEDS, relabel_seed=_SEEDS)
def test_exact_unreliability_survives_relabelling_and_child_order(
        seed, relabel_seed):
    t = _small_tree(seed, exact=True)
    u = relabelled(t, make_rng(relabel_seed))
    expected = solve_sfpa2(t).unreliability
    assert solve_sfpa2(u).unreliability == expected
    assert solve_sfpa(u).unreliability == expected
