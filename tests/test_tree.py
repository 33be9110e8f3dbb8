"""Data model, structure function, cut sets, oracle, pinned sub-trees."""

import heapq
import itertools
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sfpa import (
    CapExceededError,
    FaultTree,
    GateKind,
    ValidationError,
    cut_sets,
    oracle_unreliability,
    parse_ft,
    serialize_ft,
)
from helpers import (
    fig1,
    fig2,
    idoms_by_name,
    make_rng,
    random_tree,
    trees_equivalent,
)
from oracles import (
    evaluate,
    interpolate,
    pinned,
    structure_function,
    subtree,
    unreliability_table,
)


def bits_event(t, names, bits):
    return {t.name_to_id[n] for n, b in zip(names, bits) if b}


class TestValidation:
    def test_gate_without_children(self):
        with pytest.raises(ValidationError, match="no children"):
            FaultTree(["g"], [GateKind.AND], [[]], {}, 0)

    def test_be_needs_probability(self):
        with pytest.raises(ValidationError, match="no probability"):
            FaultTree(["b"], [GateKind.BE], [[]], {}, 0)

    def test_leaf_with_children_rejected(self):
        with pytest.raises(ValidationError, match="must not have children"):
            FaultTree(
                ["b", "c"],
                [GateKind.BE, GateKind.BE],
                [[1], []],
                {0: 0.5, 1: 0.5},
                0,
            )

    def test_unreachable_node_rejected(self):
        with pytest.raises(ValidationError, match="unreachable"):
            FaultTree.build(
                "top",
                {"top": ("or", ["a"]), "stray": ("or", ["a"])},
                {"a": 0.5},
            )

    def test_cycle_the_root_cannot_reach_is_reported_as_cycle(self):
        with pytest.raises(ValidationError, match="cycle"):
            FaultTree.build(
                "top",
                {"top": ("or", ["a"]), "c1": ("and", ["c2"]),
                 "c2": ("or", ["c1", "a"])},
                {"a": 0.5},
            )

    def test_root_with_a_parent_is_rejected(self):
        with pytest.raises(ValidationError, match="unreachable"):
            FaultTree.build("top", {"up": ("or", ["top"]), "top": ("or", ["a"])},
                            {"a": 0.5})

    def test_duplicate_child_rejected(self):
        with pytest.raises(ValidationError, match="twice"):
            FaultTree.build("top", {"top": ("and", ["a", "a"])}, {"a": 0.5})

    @pytest.mark.parametrize("kind", ["xor", "cbe"])
    def test_build_rejects_an_unknown_kind(self, kind):
        with pytest.raises(ValidationError, match="node 'top' has unknown kind %r" % kind):
            FaultTree.build("top", {"top": (kind, ["a"])}, {"a": 0.5})

    @pytest.mark.parametrize("p", [float("nan"), Decimal("NaN"), Decimal("sNaN")],
                             ids=["float", "Decimal", "signalling Decimal"])
    def test_nan_probability_rejected(self, p):
        # an ordered comparison with a Decimal NaN signals InvalidOperation
        message = r"probability %s of 'a' outside \[0,1\]" % p
        with pytest.raises(ValidationError, match=message):
            FaultTree.build("top", {"top": ("and", ["a", "b"])},
                            {"a": p, "b": type(p)("0.5")})

    @pytest.mark.parametrize("p, q", [
        (Decimal("0.5"), Fraction(1, 4)),
        (Decimal("0.5"), 0.25),
        (Fraction(1, 2), 0.25),
    ], ids=["Decimal-Fraction", "Decimal-float", "Fraction-float"])
    def test_mixed_probability_types_rejected(self, p, q):
        message = ("probability of 'a' is a %s but that of 'b' is a %s"
                   % (type(p).__name__, type(q).__name__))
        with pytest.raises(ValidationError, match=message):
            FaultTree.build("top", {"top": ("and", ["a", "b"])}, {"a": p, "b": q})

    @pytest.mark.parametrize("p", [0.5, Decimal("0.5"), Fraction(1, 2)])
    def test_int_probabilities_mix_with_any_type(self, p):
        t = FaultTree.build("top", {"top": ("and", ["a", "b", "c"])},
                            {"a": p, "b": 1, "c": True})
        assert oracle_unreliability(t) == p

    def test_single_child_gate_is_identity(self):
        t = FaultTree.build("top", {"top": ("and", ["a"])}, {"a": 0.3})
        assert oracle_unreliability(t) == pytest.approx(0.3)


AND, OR, BE = GateKind.AND, GateKind.OR, GateKind.BE

# Each case has two offending nodes, ids 1 and 2 (``probs`` lists the
# larger id first); validation must name the node of smaller id.
_TWO_OFFENDERS = {
    "leaf with children": (
        ["top", "a", "b", "c"], [OR, BE, BE, BE], [[1, 2], [3], [3], []],
        {3: 0.5, 2: 0.5, 1: 0.5}, "leaf 'a' must not have children"),
    "gate without children": (
        ["top", "g1", "g2"], [OR, AND, OR], [[1, 2], [], []], {},
        "gate 'g1' has no children"),
    "child listed twice": (
        ["top", "g1", "g2", "a"], [OR, AND, OR, BE], [[1, 2], [3, 3], [3, 3], []],
        {3: 0.5}, "gate 'g1' lists a child twice"),
    "no probability": (
        ["top", "a", "b"], [OR, BE, BE], [[1, 2], [], []], {},
        "basic event 'a' has no probability"),
    "probability out of range": (
        ["top", "a", "b"], [OR, BE, BE], [[1, 2], [], []], {2: 1.5, 1: -0.5},
        r"probability -0.5 of 'a' outside \[0,1\]"),
    "probability on a gate": (
        ["top", "g1", "g2", "a"], [OR, OR, OR, BE], [[1, 2], [3], [3], []],
        {3: 0.5, 2: 0.5, 1: 0.5},
        "node 'g1' is not a basic event but has a probability"),
    "probability on a gate, none on a basic event": (
        ["top", "g1", "a", "b"], [OR, OR, BE, BE], [[1, 2], [3], [], []],
        {3: 0.5, 1: 0.5}, "node 'g1' is not a basic event but has a probability"),
    "cycle": (
        ["top", "c1", "c2", "d1", "d2", "a"], [OR, AND, OR, AND, OR, BE],
        [[1, 3], [2], [1, 5], [4], [3, 5], []], {5: 0.5},
        "cycle detected through node 'c1'"),
    "unreachable, ascending ids": (
        ["top", "s1", "s2", "a"], [OR, OR, OR, BE], [[3], [3], [3], []],
        {3: 0.5}, "node 's1' is unreachable"),
    "unreachable, ids not ascending": (
        ["a", "top", "s1", "s2"], [BE, OR, OR, OR], [[], [0], [0], [0]],
        {0: 0.5}, "node 's1' is unreachable"),
    "duplicate name": (
        ["top", "b", "a", "b", "a"], [OR, BE, BE, BE, BE],
        [[1, 2, 3, 4], [], [], [], []], {4: 0.5, 3: 0.5, 2: 0.5, 1: 0.5},
        "duplicate node name 'b'"),
    "unwritable name": (
        ["top", 'x"y', "a//b"], [OR, BE, BE], [[1, 2], [], []],
        {2: 0.5, 1: 0.5}, """node name 'x"y' cannot be written"""),
    # raw strings instead of GateKind members
    "unknown gate kind": (
        ["top", "g1", "g2", "a"], [OR, "or", "and", BE], [[1, 2], [3], [3], []],
        {3: 0.5}, "node 'g1' has unknown kind 'or'"),
    "unknown leaf kind": (
        ["top", "a", "b"], [OR, "be", "cbe"], [[1, 2], [], []],
        {2: 0.5, 1: 0.5}, "node 'a' has unknown kind 'be'"),
}


@pytest.mark.parametrize("case", sorted(_TWO_OFFENDERS))
def test_validation_names_the_smaller_offending_id(case):
    names, kinds, children, probs, message = _TWO_OFFENDERS[case]
    root = names.index("top")
    with pytest.raises(ValidationError, match=message):
        FaultTree(names, kinds, children, probs, root)


def smallest_id_first(t):
    """Reference order: Kahn's algorithm, smallest ready id first."""
    indeg = [len(p) for p in t.parents]
    heap = [v for v in range(len(t)) if not indeg[v]]
    order = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for w in t.children[v]:
            indeg[w] -= 1
            if not indeg[w]:
                heapq.heappush(heap, w)
    return tuple(order)


def permuted(t, perm):
    """``t`` with node v renumbered to ``perm[v]``."""
    inverse = sorted(range(len(t)), key=perm.__getitem__)
    return FaultTree(
        [t.names[v] for v in inverse],
        [t.kinds[v] for v in inverse],
        [[perm[w] for w in t.children[v]] for v in inverse],
        {perm[v]: p for v, p in t.probs.items()},
        perm[t.root],
    )


def test_ascending_ids_are_the_order():
    rng = make_rng(7)
    for t in [fig1(), fig2()] + [random_tree(rng) for _ in range(50)]:
        assert all(w > v for v in range(len(t)) for w in t.children[v])
        assert t.order == tuple(range(len(t))) == smallest_id_first(t)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32), data=st.data())
def test_ids_out_of_order_give_the_same_tree(seed, data):
    t = random_tree(make_rng(seed), max_be=8, max_gates=7, max_multiparent=5)
    p = permuted(t, data.draw(st.permutations(range(len(t)))))
    assert p.order == smallest_id_first(p)
    # the text lists gates in id order where the order leaves a choice,
    # so it keeps its lines, and after a round trip its order too
    text = serialize_ft(p)
    assert sorted(text.splitlines()) == sorted(serialize_ft(t).splitlines())
    again = parse_ft(text)
    assert again.order == tuple(range(len(t)))
    assert serialize_ft(again) == text
    assert idoms_by_name(p) == idoms_by_name(t) == idoms_by_name(again)


class TestStructureFunction:
    def test_fig1_cut_set(self):
        t = fig1()
        event = bits_event(t, ["rrf", "nofuel", "lrf"], (0, 1, 0))
        assert structure_function(t, t.root, event) is True

    def test_be_leaf_case(self):
        t = fig1()
        b = t.name_to_id["rrf"]
        assert structure_function(t, b, set()) is False
        assert structure_function(t, b, {b}) is True

    def test_and_semantics(self):
        t = FaultTree.build("top", {"top": ("and", ["a", "b"])}, {"a": 1, "b": 1})
        assert structure_function(t, t.root, {t.name_to_id["a"]}) is False

    def test_mapping_domain_checked(self):
        t = fig1()
        with pytest.raises(ValidationError, match="exactly the BE set"):
            structure_function(t, t.root, {t.name_to_id["rrf"]: True})

    @pytest.mark.parametrize("which", ["-1", "len"])
    def test_id_outside_the_tree_rejected(self, which):
        t = fig2()
        v = -1 if which == "-1" else len(t)
        with pytest.raises(ValidationError, match="node id %d out of range" % v):
            structure_function(t, v, set())


class TestCutSets:
    def test_fig1_cut_sets(self):
        t = fig1()
        order = ["rrf", "nofuel", "lrf"]
        expected = {
            frozenset(bits_event(t, order, bits))
            for bits in [(0, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)]
        }
        assert cut_sets(t) == expected

    def test_single_be(self):
        t = FaultTree.build("b", {}, {"b": 0.5})
        assert cut_sets(t) == {frozenset({t.root})}

    def test_or_over_two(self):
        t = FaultTree.build("top", {"top": ("or", ["a", "b"])}, {"a": 0.5, "b": 0.5})
        assert len(cut_sets(t)) == 3

    def test_cap(self):
        t = fig1()
        with pytest.raises(CapExceededError):
            cut_sets(t, cap=2)

    def test_matches_structure_function_and_is_monotone(self):
        rng = make_rng(7)
        for _ in range(25):
            t = random_tree(rng, max_be=6, max_gates=5, max_multiparent=3)
            bes = t.basic_events()
            sets = cut_sets(t)
            for bits in itertools.product([0, 1], repeat=len(bes)):
                event = frozenset(v for v, b in zip(bes, bits) if b)
                assert (event in sets) == structure_function(t, t.root, event)
            for event in sets:  # supersets of cut sets are cut sets
                assert frozenset(bes) in sets
                bigger = event | {bes[0]}
                assert bigger in sets


class TestOracle:
    def test_fig1_value(self):
        assert oracle_unreliability(fig1()) == pytest.approx(0.412, abs=1e-12)

    def test_fig2_value(self):
        assert oracle_unreliability(fig2()) == pytest.approx(0.3125, abs=1e-12)

    def test_single_be(self):
        t = FaultTree.build("b", {}, {"b": 0.7})
        assert oracle_unreliability(t) == pytest.approx(0.7)

    def test_closed_forms(self):
        rng = make_rng(8)
        for _ in range(30):
            probs = {"b%d" % i: rng.random() for i in range(rng.randint(1, 6))}
            names = list(probs)
            t_or = FaultTree.build("top", {"top": ("or", names)}, probs)
            t_and = FaultTree.build("top", {"top": ("and", names)}, probs)
            prod_q = 1.0
            prod_p = 1.0
            for p in probs.values():
                prod_q *= 1 - p
                prod_p *= p
            assert abs(oracle_unreliability(t_or) - (1 - prod_q)) <= 1e-12
            assert abs(oracle_unreliability(t_and) - prod_p) <= 1e-12

    def test_always_in_unit_interval(self):
        rng = make_rng(9)
        for _ in range(30):
            t = random_tree(rng, max_be=8, max_gates=6, max_multiparent=4)
            assert 0 <= oracle_unreliability(t) <= 1


class TestPcft:
    """A PCFT is a tree whose control nodes are pinned to 1 (on) or 0 (off)."""

    def example3(self, p=0.4):
        # top = OR(a, b) with b a control node
        t = FaultTree.build("top", {"top": ("or", ["a", "b"])}, {"a": p, "b": 0})
        return t, t.name_to_id["b"]

    def test_example3_values(self):
        t, b = self.example3()
        assert oracle_unreliability(pinned(t, t.root, [b])) == pytest.approx(0.4)
        assert oracle_unreliability(pinned(t, t.root, [b], {b})) == pytest.approx(1.0)

    def test_example3_polynomial(self):
        t, b = self.example3(Fraction(2, 5))
        poly = interpolate(unreliability_table(t, t.root, [b]), [b])
        assert poly.terms == {0: Fraction(2, 5), 1 << b: Fraction(3, 5)}
        assert evaluate(poly, {b: 1}) == 1

    def test_single_cbe_tree(self):
        t = FaultTree.build("x", {}, {"x": 0.5})
        assert oracle_unreliability(pinned(t, t.root, [t.root], {t.root})) == 1
        assert oracle_unreliability(pinned(t, t.root, [t.root])) == 0


class TestSubtreeRestrict:
    def pcft_fig3(self):
        # root r = OR(d, c); d = AND(a, b); c = OR(b, k); a,b,k are BEs.
        return FaultTree.build(
            "r",
            {"r": ("or", ["d", "c"]), "d": ("and", ["a", "b"]), "c": ("or", ["b", "k"])},
            {"a": 0.2, "b": 0.3, "k": 0.4},
        )

    def test_subtree(self):
        t = self.pcft_fig3()
        sub = subtree(t, t.name_to_id["d"])
        expected = FaultTree.build("d", {"d": ("and", ["a", "b"])}, {"a": 0.2, "b": 0.3})
        assert trees_equivalent(sub, expected)

    def test_subtree_of_root_is_whole_tree(self):
        t = self.pcft_fig3()
        assert trees_equivalent(subtree(t, t.root), t)

    def test_subtree_of_be(self):
        t = self.pcft_fig3()
        sub = subtree(t, t.name_to_id["a"])
        assert len(sub) == 1 and sub.kinds[sub.root] is GateKind.BE

    def test_restrict_drops_unreachable(self):
        t = self.pcft_fig3()
        ids = [t.name_to_id["c"], t.name_to_id["d"]]
        cut = pinned(t, t.root, ids, {t.name_to_id["c"]})
        expected = FaultTree.build("r", {"r": ("or", ["d", "c"])}, {"d": 0, "c": 1})
        assert trees_equivalent(cut, expected)
        # adding already-unreachable nodes changes nothing
        more = pinned(t, t.root, ids + [t.name_to_id["a"], t.name_to_id["b"]],
                      {t.name_to_id["c"]})
        assert trees_equivalent(more, expected)

    def test_restrict_empty_is_identity(self):
        t = self.pcft_fig3()
        assert trees_equivalent(pinned(t, t.root, []), t)

    @pytest.mark.parametrize("method", ["subtree", "restrict"])
    @pytest.mark.parametrize("which", ["-1", "len"])
    def test_id_outside_the_tree_rejected(self, method, which):
        # the last declaration is gate "r": -1 must not index it from the end
        t = parse_ft('toplevel "r";\n"a" prob=0.2;\n"b" prob=0.3;\n'
                     '"d" and "a" "b";\n"r" or "d" "b";\n')
        assert t.names[-1] == "r"
        v = -1 if which == "-1" else len(t)
        with pytest.raises(ValidationError, match="node id %d out of range" % v):
            if method == "subtree":
                subtree(t, v)
            else:
                pinned(t, t.root, [v])
