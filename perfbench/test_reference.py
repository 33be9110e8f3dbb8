"""The benchmark's reference routines, checked on their own.

    python3 -m pytest perfbench
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import reference  # noqa: E402
from reference import Model  # noqa: E402
from workloads import c2_model, unsaturated_subtree  # noqa: E402


def aircraft(probs=(0.4, 0.3, 0.4)):
    """The paper's aircraft tree: two engines sharing the fuel supply."""
    lrf, nofuel, rrf = probs
    return Model(
        "planecrash",
        {
            "planecrash": ("and", ["leftengine", "rightengine"]),
            "leftengine": ("or", ["lrf", "nofuel"]),
            "rightengine": ("or", ["rrf", "nofuel"]),
        },
        {"lrf": lrf, "nofuel": nofuel, "rrf": rrf},
    )


def fig2(p):
    """The paper's Fig. 2 tree: two ORs sharing ``b`` under nested ANDs."""
    return Model(
        "h",
        {
            "h": ("and", ["f", "g"]),
            "f": ("and", ["d", "e"]),
            "d": ("or", ["a", "b"]),
            "e": ("or", ["b", "c"]),
        },
        {"a": p, "b": p, "c": p, "g": p},
    )


def test_enumeration_gives_the_golden_values():
    decimal = aircraft(tuple(Fraction(x) for x in ("0.4", "0.3", "0.4")))
    assert reference.exact_unreliability(decimal) == Fraction("0.412")
    assert reference.exact_unreliability(fig2(Fraction(1, 2))) == Fraction("0.3125")


def test_enumeration_reads_decimal_literals_exactly():
    literals = aircraft(("0.4", "0.3", "0.4"))
    assert reference.exact_unreliability(literals) == Fraction("0.412")


@pytest.mark.parametrize("model, golden", [(aircraft(), 0.412), (fig2(0.5), 0.3125)])
def test_monte_carlo_lands_within_five_standard_errors(model, golden):
    for seed in range(5):
        estimate, se = reference.monte_carlo(model, random.Random(seed), 1 << 16)
        assert abs(estimate - golden) <= 5 * se
        assert se == pytest.approx((golden * (1 - golden) / (1 << 16)) ** 0.5, rel=0.05)


def test_monte_carlo_extremes():
    sure = Model("top", {"top": ("or", ["a", "b"])}, {"a": 1.0, "b": 0.0})
    never = Model("top", {"top": ("and", ["a", "b"])}, {"a": 1.0, "b": 0.0})
    assert reference.monte_carlo(sure, random.Random(0), 1000)[0] == 1.0
    assert reference.monte_carlo(never, random.Random(0), 1000)[0] == 0.0
    assert reference.standard_error(0.0, 1000) > 0


@pytest.mark.parametrize("n_nodes", [16, 20, 24, 28])
def test_c2_closed_form_agrees_with_enumeration(n_nodes):
    from sfpa.generator import generate

    for seed in range(3):
        model = c2_model(n_nodes, seed, generate)
        assert len(model.gates) + len(model.probs) == n_nodes
        body = model.gates["acc_g"][1][1]
        p = model.probs
        closed = reference.c2_closed_form(
            p["acc_a"], p["acc_b"], p["acc_c"],
            reference.tree_unreliability(model, body))
        assert closed == pytest.approx(float(reference.exact_unreliability(model)),
                                       abs=1e-12)


def test_bottom_up_pass_refuses_shared_nodes():
    with pytest.raises(ValueError):
        reference.tree_unreliability(aircraft())
    assert reference.tree_unreliability(aircraft(), "leftengine") == pytest.approx(
        1 - 0.6 * 0.7)


def test_subtree_values_and_sizes():
    value, size = reference.subtree_values(aircraft(), "leftengine")
    assert value == pytest.approx({"lrf": 0.4, "nofuel": 0.3, "leftengine": 0.58})
    assert size == {"lrf": 1, "nofuel": 1, "leftengine": 3}


def test_unsaturated_subtree_of_a_c2_body():
    from sfpa.generator import generate

    model = c2_model(3000, 1, generate)
    body = model.gates["acc_g"][1][1]
    value, size = reference.subtree_values(model, body)
    sub = unsaturated_subtree(model, value, size)
    assert 0.05 <= reference.tree_unreliability(sub) <= 0.95
    assert reference.tree_unreliability(sub) == value[sub.root]
    assert len(sub.gates) + len(sub.probs) == size[sub.root]
    assert all(size[sub.root] >= size[name] for name in value
               if 0.05 <= value[name] <= 0.95)


def test_minimal_cut_sets_of_the_aircraft_tree():
    bes, column = reference.truth_column(aircraft())
    assert reference.is_minimal_cut_set(bes, column, ["nofuel"])
    assert reference.is_minimal_cut_set(bes, column, ["lrf", "rrf"])
    assert reference.is_cut_set(bes, column, ["lrf", "nofuel"])
    assert not reference.is_minimal_cut_set(bes, column, ["lrf", "nofuel"])
    assert not reference.is_minimal_cut_set(bes, column, ["lrf"])
    assert not reference.is_minimal_cut_set(bes, column, ["nofuel", "unknown"])


def test_digest_ignores_declaration_order_but_not_structure():
    a = aircraft()
    b = Model(a.root, dict(reversed(list(a.gates.items()))), dict(a.probs))
    assert a.digest() == b.digest()
    c = aircraft((0.4, 0.3, 0.5))
    assert a.digest() != c.digest()
