"""Topological order and immediate dominators, against path-enumeration oracles."""

from collections import Counter

from sfpa import (
    FaultTree,
    GenConfig,
    generate,
    immediate_dominators,
    topo_sort,
)
from helpers import (
    brute_force_idom,
    fig2,
    idoms_by_name,
    make_rng,
    random_tree,
)
from oracles import check_idom_ordering


def test_shared_be_example():
    assert idoms_by_name(fig2()) == {
        "a": "d",
        "b": "f",
        "c": "e",
        "d": "f",
        "e": "f",
        "f": "h",
        "g": "h",
    }


def test_tree_shaped_idom_is_parent():
    t = FaultTree.build(
        "top",
        {"top": ("and", ["g1", "g2"]), "g1": ("or", ["a", "b"]), "g2": ("or", ["c"])},
        {"a": 0.1, "b": 0.2, "c": 0.3},
    )
    for v, u in immediate_dominators(t).items():
        assert t.parents[v] == (u,)


def test_diamond_idom_is_root():
    t = FaultTree.build(
        "top",
        {"top": ("and", ["l", "r"]), "l": ("or", ["x"]), "r": ("or", ["x"])},
        {"x": 0.5},
    )
    assert idoms_by_name(t)["x"] == "top"


def test_topo_order_properties():
    t = fig2()
    order = topo_sort(t)
    assert order == topo_sort(t)  # deterministic
    assert sorted(order) == list(range(len(t)))
    assert order[0] == t.root
    pos = {v: i for i, v in enumerate(order)}
    for v in range(len(t)):
        for w in t.children[v]:
            assert pos[v] < pos[w]


def test_random_dags_match_brute_force():
    rng = make_rng(20)
    for _ in range(200):
        t = random_tree(rng, max_be=6, max_gates=6, max_multiparent=6)
        idom = immediate_dominators(t)
        assert set(idom) == set(range(len(t))) - {t.root}
        for v in idom:
            assert idom[v] == brute_force_idom(t, v)
        assert check_idom_ordering(idom, t)


def test_idom_map_is_a_tree_rooted_at_root():
    rng = make_rng(21)
    for _ in range(50):
        t = random_tree(rng, max_be=8, max_gates=8, max_multiparent=6)
        idom = immediate_dominators(t)
        for v in idom:
            u = v
            seen = set()
            while u != t.root:
                assert u not in seen
                seen.add(u)
                u = idom[u]


class CountingTuple(tuple):
    """A tuple that counts how often each index is read."""

    def __new__(cls, items):
        self = super().__new__(cls, items)
        self.reads = Counter()
        return self

    def __getitem__(self, i):
        self.reads[i] += 1
        return tuple.__getitem__(self, i)


def test_one_sweep_reads_each_parent_list_once():
    t = generate(GenConfig(seed=5, n_be=60, n_gates=40, n_multiparent=20))
    expected = immediate_dominators(t)
    t.parents = CountingTuple(t.parents)
    assert immediate_dominators(t) == expected
    assert t.parents.reads == Counter(v for v in range(len(t)) if v != t.root)
