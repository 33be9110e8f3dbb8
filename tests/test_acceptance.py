"""Acceptance gate: one test per criterion, one printed verdict line each.

The verdict lines bypass pytest's output capture so they stay visible
in a normal run.  Run the whole gate with:

    pytest tests/test_acceptance.py -v
"""

import statistics
import sys
from fractions import Fraction

import pytest

from sfpa import (
    FaultTree,
    Poly,
    cut_sets,
    generate,
    GenConfig,
    immediate_dominators,
    minimal_cut_set_via_reduction,
    oracle_unreliability,
    solve_sfpa,
    solve_sfpa2,
    solve_treelike,
    variable_budget,
)
from helpers import brute_force_idom, fig1, fig2, make_rng, random_tree
from oracles import (
    check_idom_ordering,
    interpolate,
    reachable,
    restrict,
    tabulate,
    unreliability_table,
)

X, Y, Z = 0, 1, 2


_capture = None


@pytest.fixture(autouse=True)
def _verdict_channel(capfd):
    global _capture
    _capture = capfd
    yield
    _capture = None


def verdict(number, ok, text):
    line = "criterion %d: %s - %s" % (number, "PASS" if ok else "FAIL", text)
    with _capture.disabled():
        print("\n" + line, file=sys.stdout)
        sys.stdout.flush()
    assert ok, line


def test_criterion_1_golden_values():
    t1 = fig1()
    ok = all(
        abs(value - 0.412) <= 1e-12
        for value in (
            oracle_unreliability(t1),
            solve_sfpa(t1).unreliability,
            solve_sfpa2(t1).unreliability,
        )
    )
    t2 = fig2()
    ok &= abs(solve_sfpa(t2).unreliability - 0.3125) <= 1e-12
    ok &= abs(solve_sfpa2(t2).unreliability - 0.3125) <= 1e-12
    report = solve_sfpa(t2, capture=True)
    f = t2.name_to_id["f"]
    b = t2.name_to_id["b"]
    before, after = report.history[f][-2], report.history[f][-1]
    ok &= set(before.terms) == {0, 1 << b}
    ok &= abs(before.terms[0] - 0.25) <= 1e-12
    ok &= abs(before.terms[1 << b] - 0.75) <= 1e-12
    ok &= abs(after.constant_value() - 0.625) <= 1e-12
    verdict(1, ok, "golden values 0.412 / 0.3125 with shared-gate intermediates")


def test_criterion_2_algebra_worked_examples():
    alpha = 2 + Poly.variable(X) + Poly.variable(Y)
    beta = Poly.variable(X) + 3 * Poly.variable(X) * Poly.variable(Z)
    xy = (1 << X) | (1 << Y)
    ok = alpha * beta == Poly(
        {1 << X: 3, xy: 1, (1 << X) | (1 << Z): 9, xy | (1 << Z): 3}
    )
    ok &= beta.substitute(Z, alpha) == Poly({1 << X: 10, xy: 3})
    table = {0b00: 3, 0b01: 7, 0b10: -2, 0b11: 4}
    ok &= interpolate(table, [X, Y]) == Poly({0: 3, 1 << X: 4, 1 << Y: -5, xy: 2})
    verdict(2, ok, "product, substitution and interpolation worked examples")


def test_criterion_3_oracle_equivalence():
    rng = make_rng(1003)
    worst = 0.0
    ok = True
    for i in range(500):
        exact = i < 100
        t = random_tree(rng, max_be=12, max_gates=10, max_multiparent=8,
                        exact=exact)
        u0 = oracle_unreliability(t)
        u1 = solve_sfpa(t).unreliability
        u2 = solve_sfpa2(t).unreliability
        if exact:
            ok &= u0 == u1 == u2
        else:
            delta = max(abs(u1 - u0), abs(u2 - u0), abs(u1 - u2))
            worst = max(worst, delta)
            ok &= delta <= 1e-9
    verdict(3, ok, "500 random instances agree with the exhaustive oracle "
                   "(worst float delta %.2e, 100 exact)" % worst)


def test_criterion_4_algebra_laws():
    from helpers import random_poly, substitute_by_definition

    cases = 1000
    rng = make_rng(1004)
    ok = True
    for _ in range(cases):
        a, b, c = (random_poly(rng, (0, 1, 2, 3)) for _ in range(3))
        ok &= a + b == b + a
        ok &= (a + b) + c == a + (b + c)
        ok &= a * b == b * a
        ok &= (a * b) * c == a * (b * c)
        ok &= a * (b + c) == a * b + a * c
        x = Poly.variable(rng.randrange(4))
        ok &= x * x == x
    for _ in range(cases):
        a = random_poly(rng, (0, 1, 2, 3, 4, 5))
        b = random_poly(rng, (1, 2, 3, 4, 5))
        ok &= a.substitute(0, b) == substitute_by_definition(a, 0, b)
        ok &= a.substitute(0, b) == (
            restrict(a, 0, 1) * b + restrict(a, 0, 0) * (1 - b)
        )
    for _ in range(cases):
        a1 = random_poly(rng, (0, 1, 2, 3))
        a2 = random_poly(rng, (0, 1, 2, 3))
        b = random_poly(rng, (1, 2, 3))
        ok &= (a1 + a2).substitute(0, b) == (
            a1.substitute(0, b) + a2.substitute(0, b)
        )
        idem = interpolate([rng.randint(0, 1) for _ in range(8)], [1, 2, 3])
        ok &= (a1 * a2).substitute(0, idem) == (
            a1.substitute(0, idem) * a2.substitute(0, idem)
        )
        # order exchange needs each replacement free of the other variable
        b1 = random_poly(rng, (2, 3, 4))
        b2 = random_poly(rng, (3, 4, 5))
        ok &= a1.substitute(0, b1).substitute(1, b2) == (
            a1.substitute(1, b2).substitute(0, b1)
        )
    for _ in range(cases):
        poly = random_poly(rng, (0, 1, 2))
        ok &= interpolate(tabulate(poly, [0, 1, 2]), [0, 1, 2]) == poly
        table = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(8)]
        ok &= tabulate(interpolate(table, [0, 1, 2]), [0, 1, 2]) == table
    verdict(4, ok, "%d exact-rational cases per algebra law, zero failures"
            % cases)


def _live_below(t, idom, v, descendants):
    """Multiparent nodes strictly below v whose variable survives past v."""
    out = []
    for w in t.multiparent_nodes():
        if w == v or w not in descendants[v]:
            continue
        idw = idom[w]
        if idw != v and v in descendants[idw]:
            out.append(w)
    return out


def test_criterion_5_node_expressions_are_restricted_subtree_unreliabilities():
    rng = make_rng(1005)
    ok = True
    for _ in range(50):
        t = random_tree(rng, max_be=8, max_gates=8, max_multiparent=6,
                        exact=True)
        idom = immediate_dominators(t)
        report = solve_sfpa(t, idom, capture=True)
        descendants = {v: reachable(t.children, v) for v in range(len(t))}
        for v in range(len(t)):
            if not t.children[v]:
                continue
            g = report.history[v][-1]
            live = _live_below(t, idom, v, descendants)
            expected = interpolate(unreliability_table(t, v, live), live)
            ok &= g == expected
    verdict(5, ok, "captured node expressions interpolate their restricted "
                   "subtrees' unreliability tables (50 exact instances)")


def test_criterion_6_dominators():
    rng = make_rng(1006)
    ok = True
    for _ in range(200):
        n_gates = rng.randint(1, 6)
        n_be = rng.randint(1, min(12 - n_gates, 3 * n_gates + 1))
        cfg = GenConfig(
            seed=rng.getrandbits(48),
            n_be=n_be,
            n_gates=n_gates,
            p_and=rng.random(),
            n_multiparent=rng.randint(0, n_be + n_gates - 1),
        )
        t = generate(cfg)
        idom = immediate_dominators(t)
        for v in idom:
            ok &= idom[v] == brute_force_idom(t, v)
        ok &= check_idom_ordering(idom, t)
    verdict(6, ok, "200 random DAGs match path-enumeration dominators and "
                   "the ordering property")


def _c2_instance(n_nodes, seed):
    """A fault tree with exactly two interacting shared events (budget 2)
    on top of a generated tree shape, n_nodes nodes in total."""
    body = n_nodes - 8
    n_gates = body // 3
    t_body = generate(GenConfig(seed=seed, n_be=body - n_gates,
                                n_gates=n_gates, n_multiparent=0))
    gates = {
        "acc_h": ("and", ["acc_f", "acc_g"]),
        "acc_f": ("and", ["acc_d", "acc_e"]),
        "acc_d": ("or", ["acc_a", "acc_b"]),
        "acc_e": ("or", ["acc_b", "acc_c"]),
        "acc_g": ("or", ["acc_a", t_body.names[t_body.root]]),
    }
    probs = {"acc_a": 0.3, "acc_b": 0.4, "acc_c": 0.5}
    for v in range(len(t_body)):
        if t_body.children[v]:
            gates[t_body.names[v]] = (
                t_body.kinds[v].value,
                [t_body.names[w] for w in t_body.children[v]],
            )
        else:
            probs[t_body.names[v]] = t_body.probs[v]
    return FaultTree.build("acc_h", gates, probs)


def test_criterion_7_scaling_with_fixed_variable_budget():
    sizes = [1000, 4000, 16000, 64000]
    instances = {size: [] for size in sizes}
    ok = True
    for size in sizes:
        for seed in range(3):
            t = _c2_instance(size, seed)
            assert len(t) == size
            idom = immediate_dominators(t)
            budget = variable_budget(t, idom)
            ok &= budget == 2
            instances[size].append((t, idom, budget))
    # interleave the timing rounds so slow machine phases hit all sizes
    # alike instead of skewing whichever size they land on
    times = {size: [] for size in sizes}
    for _ in range(5):
        for size in sizes:
            for t, idom, budget in instances[size]:
                rep = solve_sfpa2(t, idom)
                ok &= rep.max_live_vars <= budget
                times[size].append(rep.wall_time)
    medians = [statistics.median(times[size]) for size in sizes]
    ratios = [medians[i + 1] / medians[i] for i in range(len(sizes) - 1)]
    ok &= all(r <= 6 for r in ratios)
    verdict(7, ok, "4x size steps at budget 2 cost at most 6x time "
                   "(ratios %s)" % ", ".join("%.2f" % r for r in ratios))


def test_criterion_8_minimal_cut_set_reduction():
    rng = make_rng(1008)
    ok = True
    for _ in range(100):
        t = random_tree(rng, max_be=8, max_gates=6, max_multiparent=5,
                        exact=True)
        mcs = minimal_cut_set_via_reduction(t)
        sets = cut_sets(t)
        ok &= mcs in sets
        # no strictly smaller cut set exists inside mcs
        for v in mcs:
            ok &= (mcs - {v}) not in sets
        ok &= all(not (event < mcs) for event in sets)
    verdict(8, ok, "100 exact-probability reductions yield confirmed minimal "
                   "cut sets")


def test_criterion_9_tree_shaped_reduction():
    rng = make_rng(1009)
    ok = True
    for _ in range(100):
        t = random_tree(rng, max_be=10, max_gates=8, max_multiparent=0)
        rep = solve_sfpa2(t)
        ok &= rep.substitutions == 0
        ok &= rep.max_live_vars == 0
        ok &= abs(rep.unreliability - solve_treelike(t)) <= 1e-12
    verdict(9, ok, "100 tree-shaped instances solve without substitutions, "
                   "matching the numeric bottom-up pass")
